//! # experiments — the FlowBender (CoNEXT'14) reproduction harness
//!
//! One module per paper artifact; each produces a [`report::Report`] whose
//! tables mirror the rows/series the paper reports (normalized to ECMP
//! where the paper normalizes). The `experiments` binary exposes them as
//! subcommands; the `fb-bench` crate reuses the same entry points at
//! reduced scale for `cargo bench`.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 (functionality microbenchmark) |
//! | [`alltoall`] | Figures 3 & 4 + §4.2.3 out-of-order stats |
//! | [`fig5`] | Figure 5 (partition-aggregate) |
//! | [`sensitivity`] | Figures 6 & 7 (N and T sweeps) |
//! | [`fig8`] | Figure 8 (testbed, simulated) |
//! | [`hotspot`] | §4.3.1 (UDP hotspot decongestion) |
//! | [`topo_dep`] | §4.3.3 (path-diversity dependence) |
//! | [`link_failure`] | §1/§3.3.2 (RTO-scale failure recovery) |
//! | [`gray_failure`] | extension: silent (gray) loss on one agg-core uplink |
//! | [`asym`] | §4.3.1 second half (asymmetric links, WCMP, weight misconfiguration) |
//! | [`buffers`] | substrate sensitivity: buffer depth vs the ECMP gap |
//! | [`flowlet`] | extension: FlowBender vs LetFlow-style flowlet switching |
//! | [`ablation`] | §3.4/§5 design refinements |
//! | [`repflow`] | extension: RepFlow-style short-flow replication vs rerouting |
//! | [`trace_scale`] | extension: million-flow workload engine + streaming FCT sketches |
//! | [`fabric_scale`] | extension: 1024-host all-to-all on the sharded multi-core engine |
//! | [`chaos`] | extension: incident-timeline chaos drill with reconvergence SLOs |
//! | [`feedback`] | extension: switch-assisted feedback — INT telemetry + early CN |
//! | [`reordering`] | extension: reordering cost by routing locus, incl. switch-side flowcuts |
//!
//! Which load-balancing designs exist — and how a new one is added in a
//! single file — is owned by the [`schemes`] registry; which traffic
//! patterns exist is owned by the `workloads` crate's registry (selected
//! with `--workload`). Every simulation goes through one runner:
//! describe it as a [`RunSpec`] (topology, scheme, flows, window, seed,
//! plus shards, telemetry, `--trace` selection, faults, and SLO probe)
//! and call [`run`]. It shards any fat-tree run, resolves
//! `--trace slowest=k` with a probe run and a traced replay at any shard
//! count, and audits conservation; [`sweep_schemes`] fans runs out over a
//! worker pool sized for their shard count. Both live in [`scenario`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod alltoall;
pub mod asym;
pub mod buffers;
pub mod chaos;
pub mod fabric_scale;
pub mod feedback;
pub mod fig5;
pub mod fig8;
pub mod flowlet;
pub mod gray_failure;
pub mod hotspot;
pub mod link_failure;
pub mod registry;
pub mod reordering;
pub mod repflow;
pub mod report;
pub mod scenario;
pub mod schemes;
pub mod sensitivity;
pub mod table1;
pub mod topo_dep;
pub mod trace_scale;

pub use registry::{find, registry, Experiment};
pub use report::{timeline_json, Opts, Report, RunSummary, TraceSel};
pub use scenario::{
    parallel_map, run, run_fat_tree_sharded, slowest_flows, sweep_schemes, FaultFn, RunOutput,
    RunSpec, ShardStats, Topo, Window,
};
pub use schemes::{Replication, SchemeSpec};

/// The error text for an unknown `--scheme` value: names the offender and
/// lists every registered scheme, mirroring the unknown-experiment error.
pub fn schemes_help(unknown: &str) -> String {
    let known = schemes::registry()
        .iter()
        .map(|s| s.name().to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "unknown scheme `{unknown}`; registered schemes: {known} (try the `schemes` subcommand)"
    )
}

/// The error text for an unknown `--workload` value: names the offender
/// and lists every registered workload, mirroring [`schemes_help`].
pub fn workloads_help(unknown: &str) -> String {
    let known = workloads::registry()
        .iter()
        .map(|w| w.slug())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "unknown workload `{unknown}`; registered workloads: {known} \
         (parameterized forms like incast:1000 or hotspot:1.5 also work; \
         try the `workloads` subcommand)"
    )
}

/// Run every experiment and return all reports, in registry (paper) order.
///
/// The fig3/fig4/ooo entries share one all-to-all sweep; running them
/// through [`Experiment::run`] individually would repeat that sweep three
/// times, so this memoizes the sweep and pulls each report out by name.
pub fn run_everything(opts: &Opts) -> Vec<Report> {
    let mut sweep: Vec<Report> = Vec::new();
    let mut reports = Vec::new();
    for exp in registry() {
        match exp.name() {
            "fig3" | "fig4" | "ooo" => {
                if sweep.is_empty() {
                    sweep = alltoall::run_all(opts);
                }
                if let Some(pos) = sweep.iter().position(|r| r.name == exp.name()) {
                    reports.push(sweep.remove(pos));
                }
            }
            _ => reports.extend(exp.run(opts)),
        }
    }
    reports
}
