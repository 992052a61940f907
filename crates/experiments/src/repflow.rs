//! Extension — RepFlow-style short-flow replication vs rerouting: every
//! TCP flow under 100 KB is sent twice with different V fields and the
//! first finisher wins, trading ~a doubling of short-flow load for path
//! diversity without any congestion signal at all.
//!
//! Expected shape: replication shortens the short-flow tail (p99) versus
//! ECMP because at least one copy usually dodges the collided path, while
//! FlowBender gets a similar tail with no duplicate traffic; long flows
//! are untouched by replication. The point of the experiment — and of the
//! `RepFlow` registry entry — is that a scheme with a *host-side flow
//! transformation* (not just a switch config or a path controller) still
//! fits the one-file [`crate::schemes`] recipe.

use netsim::SimTime;
use stats::{fmt_ratio, fmt_secs, samples, Table};
use topology::FatTreeParams;
use workloads::{all_to_all, FlowSizeDist};

use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{self, parallel_map, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// Flows below this size count as "short" in the report tables — the same
/// 100 KB cut-off [`schemes::repflow`] replicates under.
pub const SHORT_BYTES: u64 = 100_000;

/// One scheme's outcome on the short-flow-heavy workload.
#[derive(Debug)]
pub struct SchemeResult {
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Mean FCT of short (<100 KB) flows, seconds.
    pub short_mean_s: f64,
    /// p99 FCT of short flows, seconds.
    pub short_p99_s: f64,
    /// Mean FCT of the remaining (long) flows, seconds.
    pub long_mean_s: f64,
    /// Short flows measured in the window.
    pub short_n: usize,
    /// Replica flows the scheme injected (0 for non-replicating schemes).
    pub replicas: usize,
    /// Extra data the replicas carried, as a fraction of primary bytes.
    pub overhead_frac: f64,
    /// The machine-readable summary of the run.
    pub summary: RunSummary,
}

/// Run the 40 % web-search all-to-all workload once per scheme.
pub fn sweep(opts: &Opts, schemes: &[SchemeSpec]) -> Vec<SchemeResult> {
    opts.validate();
    let params = FatTreeParams::paper();
    let duration = opts.scaled(SimTime::from_ms(60));
    let window = Window::for_duration(duration, SimTime::from_ms(400));
    let dist = FlowSizeDist::web_search();

    parallel_map(schemes.to_vec(), |scheme| {
        let mut rng = netsim::DetRng::new(opts.seed, 0x4EBF);
        let specs = all_to_all(&params, 0.4, duration, &dist, &mut rng);
        let primary_bytes: u64 = specs.iter().map(|s| s.bytes).sum();
        let spec = RunSpec::new(params, &scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let replica_bytes: u64 = out
            .replicas
            .iter()
            .map(|&(p, _)| out.flows[p as usize].bytes)
            .sum();
        let effective = out.effective_flows();
        let s = samples(&effective, window.start, window.end);
        let short: Vec<f64> = s
            .iter()
            .filter(|x| x.bytes < SHORT_BYTES)
            .map(|x| x.fct_s)
            .collect();
        let long: Vec<f64> = s
            .iter()
            .filter(|x| x.bytes >= SHORT_BYTES)
            .map(|x| x.fct_s)
            .collect();
        let label = format!("{}_seed{}", scheme.slug(), opts.seed);
        let summary = RunSummary::from_run(label, scheme.name(), opts, opts.seed, &out);
        SchemeResult {
            scheme: scheme.name().to_string(),
            short_mean_s: stats::mean(&short).unwrap_or(0.0),
            short_p99_s: stats::percentile(&short, 0.99).unwrap_or(0.0),
            long_mean_s: stats::mean(&long).unwrap_or(0.0),
            short_n: short.len(),
            replicas: out.replicas.len(),
            overhead_frac: replica_bytes as f64 / primary_bytes.max(1) as f64,
            summary,
        }
    })
}

/// Produce the replication-vs-rerouting report.
pub fn run(opts: &Opts) -> Report {
    let selection = opts.scheme_selection(&[
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
        schemes::repflow(),
    ]);
    let results = sweep(opts, &selection);
    let base = results
        .iter()
        .find(|r| r.scheme == "ECMP")
        .unwrap_or(&results[0]);
    let mut table = Table::new(vec![
        "scheme",
        "short mean (norm.)",
        "short p99 (norm.)",
        "long mean (norm.)",
        "short flows",
        "replicas",
        "overhead",
        "short mean abs",
    ]);
    for r in &results {
        table.row(vec![
            r.scheme.clone(),
            fmt_ratio(r.short_mean_s / base.short_mean_s),
            fmt_ratio(r.short_p99_s / base.short_p99_s),
            fmt_ratio(r.long_mean_s / base.long_mean_s),
            r.short_n.to_string(),
            r.replicas.to_string(),
            format!("{:.1}%", r.overhead_frac * 100.0),
            fmt_secs(r.short_mean_s),
        ]);
    }
    let mut report = Report::new("repflow");
    report.section(
        format!(
            "RepFlow vs rerouting: short-flow (<100KB) FCT on 40% all-to-all, normalized to {}",
            base.scheme
        ),
        table,
    );
    report.note(
        "replication buys short-flow tail latency with duplicate bytes; \
         FlowBender buys it with reactive rerouting and zero overhead",
    );
    for r in results {
        report.run_summary(r.summary);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Counter;

    #[test]
    fn replication_adds_replicas_and_helps_or_matches_the_short_tail() {
        let opts = Opts {
            scale: 0.15,
            seed: 7,
            ..Opts::default()
        };
        let results = sweep(&opts, &[schemes::ecmp(), schemes::repflow()]);
        let (ecmp, rep) = (&results[0], &results[1]);
        assert_eq!(ecmp.replicas, 0);
        assert!(rep.replicas > 0, "RepFlow injected no replicas");
        assert!(rep.overhead_frac > 0.0 && rep.overhead_frac < 1.0);
        assert!(ecmp.short_n > 50 && rep.short_n > 50, "too few short flows");
        // First-finisher-wins can't make the merged completion later than
        // the primary alone up to scheduling noise; on a congested fabric
        // the short tail should not regress materially.
        assert!(
            rep.short_p99_s <= ecmp.short_p99_s * 1.25,
            "RepFlow p99 {} vs ECMP {}",
            rep.short_p99_s,
            ecmp.short_p99_s
        );
        // The summaries carry the reroute counters for the JSON artifact.
        assert!(results
            .iter()
            .all(|r| r.summary.counters.iter().any(|(n, _)| n == "reroutes")));
    }

    #[test]
    fn run_emits_one_json_summary_per_scheme() {
        let opts = Opts {
            scale: 0.1,
            seed: 3,
            schemes: vec!["ecmp".into(), "repflow".into()],
            ..Opts::default()
        };
        let report = run(&opts);
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].label, "ecmp_seed3");
        assert_eq!(report.runs[1].label, "repflow_seed3");
        assert_eq!(report.name, "repflow");
    }

    #[test]
    #[allow(clippy::absurd_extreme_comparisons)]
    fn counter_names_exist_for_duplicate_accounting() {
        // The ledger treats replica packets as ordinary data packets; the
        // conservation audit inside every runner covers them. This test
        // pins the counter the sweep leans on.
        assert!(Counter::all().iter().any(|c| c.name() == "reroutes"));
    }
}
