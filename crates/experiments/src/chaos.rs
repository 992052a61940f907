//! `chaos` — fabric-scale incident drill on the sharded engine: a
//! scripted timeline (gray-loss ramp → whole-core crash → flap storm →
//! recovery) hits a k=16 / 1024-host fat-tree while a Poisson all-to-all
//! runs, and every scheme is graded on *degradation SLOs* against its own
//! healthy baseline:
//!
//! * **p99 inflation** — chaos-run p99 FCT over healthy-run p99 FCT;
//! * **reconvergence latency** — per flow in flight at the crash instant,
//!   the time to its first post-crash delivered payload (p50/p99),
//!   measured by the engine-level [`netsim::SloConfig`] probe;
//! * **timeout-dominated fraction** — flows whose FCT is at least the
//!   10 ms RTO floor (or that never finished): the flows for which the
//!   incident cost at least one full retransmission timeout;
//! * **goodput dip** — depth and duration of the delivered-bytes trough,
//!   binned identically in both runs and compared bin-by-bin.
//!
//! The timeline deliberately stresses the sharded fault machinery: its
//! targets are agg↔core links — the only links that cross shard
//! boundaries under pod-granular partitioning (see
//! [`topology::ShardPlan::crosses`]) — so every fault transition of the
//! crash and storm travels through the epoch mailbox when `--shards > 1`,
//! and the per-epoch conservation assert audits the books through the
//! whole incident. Traffic comes from [`workloads::PoissonStream`]
//! (tie-free arrivals), so reports are byte-identical across shard counts.

use netsim::{DetRng, FaultPlan, SimTime, SloConfig};
use stats::{completion_fraction, fmt_secs, percentile, samples, Table};
use topology::{FatTree, FatTreeParams};
use workloads::{FlowSizeDist, PoissonStream};

use crate::fabric_scale::{arity, LOAD};
use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{self, FaultFn, RunOutput, RunSpec, Window};
use crate::schemes;

/// RNG stream tag for the per-source Poisson streams (distinct from
/// fabric-scale's so the two experiments draw independent workloads).
const STREAM_TAG: u64 = 0x00C4_A055;

/// The transport's minimum RTO in seconds. A flow whose FCT reaches this
/// paid at least one full timeout — the "timeout-dominated" SLO bucket.
pub const RTO_MIN_S: f64 = 0.010;

/// Goodput histogram bins per arrival window (the dip metrics compare
/// chaos and healthy runs bin-by-bin over exactly this many bins).
const GOODPUT_BINS: u64 = 20;

/// The scripted incident, expressed in absolute simulation times derived
/// from the arrival-window `duration`. Pure function of the duration, so
/// every shard (and every scheme) sees the identical script.
#[derive(Debug, Clone, Copy)]
pub struct Incident {
    /// Gray loss begins (1 %) on one agg→core uplink.
    pub gray_onset: SimTime,
    /// Gray loss ramps to 4 % on the same uplink.
    pub gray_ramp: SimTime,
    /// A core switch crashes whole — the SLO probe's failure instant.
    pub fail_at: SimTime,
    /// Two more agg uplinks start flapping.
    pub storm_start: SimTime,
    /// The incident clears: core revived, gray loss zeroed.
    pub recovery_at: SimTime,
}

impl Incident {
    /// Lay the timeline out over an arrival window: ramp in the first
    /// quarter, crash at the midpoint, storm in the third quarter,
    /// recovery at three quarters — leaving a healthy final quarter so
    /// the goodput curve shows the climb back out of the trough.
    pub fn over(duration: SimTime) -> Self {
        let d = duration.as_ps();
        Incident {
            gray_onset: SimTime::from_ps(d / 8),
            gray_ramp: SimTime::from_ps(d / 4),
            fail_at: SimTime::from_ps(d / 2),
            storm_start: SimTime::from_ps(d / 2 + d / 16),
            recovery_at: SimTime::from_ps(3 * d / 4),
        }
    }

    /// Compile the timeline into a [`FaultPlan`] against a concrete
    /// fabric. Targets are agg↔core elements (the cross-shard tier):
    ///
    /// * gray ramp on agg 0's uplink 0;
    /// * whole-switch crash of the core behind agg 0's uplink 1 — every
    ///   one of its per-pod links dies at once;
    /// * flap storm on agg 0's uplink 1 and the first uplink of the last
    ///   pod's first agg (two flaps, staggered, both healed before
    ///   recovery);
    /// * at recovery: core revived, gray loss back to zero.
    pub fn plan(&self, ft: &FatTree) -> FaultPlan {
        let p = &ft.params;
        let (agg0, up0) = ft.agg_core_link(0, 0);
        let (_, up1) = ft.agg_core_link(0, 1);
        // Core index 1: attached to agg position 0, and — because cores
        // are dealt round-robin — owned by shard 1 whenever shards > 1,
        // so its crash always crosses the shard boundary.
        let sick_core = ft.cores[1];
        let far_agg = p.aggs_per_pod * (p.pods - 1);
        let (agg_far, far_up0) = ft.agg_core_link(far_agg, 0);

        let mut plan = FaultPlan::new();
        plan.gray_loss(agg0, up0, 0.01, self.gray_onset);
        plan.gray_loss(agg0, up0, 0.04, self.gray_ramp);
        plan.crash(sick_core, self.fail_at);
        let storm_len = SimTime::from_ps(self.fail_at.as_ps() / 8);
        plan.flap(agg0, up1, self.storm_start, self.storm_start + storm_len);
        let stagger = SimTime::from_ps(storm_len.as_ps() / 2);
        plan.flap(
            agg_far,
            far_up0,
            self.storm_start + stagger,
            self.storm_start + stagger + storm_len,
        );
        plan.revive(sick_core, self.recovery_at);
        plan.gray_loss(agg0, up0, 0.0, self.recovery_at);
        plan
    }
}

/// One scheme's healthy-vs-chaos digest.
#[derive(Debug)]
pub struct ChaosResult {
    /// Scheme display name.
    pub scheme: String,
    /// Fraction of in-window flows that completed under chaos.
    pub completion: f64,
    /// Chaos p99 FCT over healthy p99 FCT (1.0 = no degradation).
    pub p99_inflation: f64,
    /// Median reconvergence latency (s) of flows in flight at the crash.
    pub recon_p50_s: f64,
    /// p99 reconvergence latency (s).
    pub recon_p99_s: f64,
    /// Flows that reconverged (delivered again after the crash).
    pub recon_samples: usize,
    /// Fraction of flows whose FCT reached [`RTO_MIN_S`] (or that never
    /// finished) under chaos.
    pub timeout_dominated: f64,
    /// Deepest goodput trough: `1 - chaos/healthy` over the compared
    /// bins (0 = no dip).
    pub dip_depth: f64,
    /// Seconds of bins where chaos goodput sat below 90 % of healthy.
    pub dip_duration_s: f64,
}

/// The chaos run's shape for one invocation: fabric, workload, window,
/// incident. Shared by the healthy and chaos runs so the only difference
/// between them is the fault plan.
struct Setup {
    params: FatTreeParams,
    specs: Vec<netsim::FlowSpec>,
    window: Window,
    incident: Incident,
    slo: SloConfig,
}

fn setup(opts: &Opts) -> Setup {
    let params = FatTreeParams::k_ary(arity(opts)).expect("arity checked by Opts::check");
    // Longer windows than fabric-scale: the SLO suite needs a population
    // of flows *in flight at the crash instant*, and the drain must span
    // the 10ms RTO floor with room to spare — flows black-holed by the
    // crash retransmit one RTO later, and that reconvergence tail is
    // exactly what is being measured.
    let base = if opts.smoke {
        SimTime::from_ms(2)
    } else {
        SimTime::from_ms(4)
    };
    let duration = opts.scaled(base);
    let window = Window::for_duration(duration, SimTime::from_ms(50));
    let incident = Incident::over(duration);
    let rng = DetRng::new(opts.seed, STREAM_TAG);
    let specs: Vec<netsim::FlowSpec> =
        PoissonStream::new(&params, LOAD, duration, FlowSizeDist::web_search(), &rng).collect();
    let slo = SloConfig {
        fail_at: incident.fail_at,
        bin: SimTime::from_ps(duration.as_ps() / GOODPUT_BINS),
    };
    Setup {
        params,
        specs,
        window,
        incident,
        slo,
    }
}

/// Run one scheme twice — healthy baseline, then the scripted incident —
/// and digest the degradation SLOs. Returns the digest plus both full
/// run outputs `(healthy, chaos)` for JSON export.
pub fn run_one(opts: &Opts, scheme: &schemes::SchemeSpec) -> (ChaosResult, RunOutput, RunOutput) {
    let s = setup(opts);
    let run = |faults: &FaultFn<'_>| {
        scenario::run(&RunSpec {
            shards: opts.shards,
            faults: Some(faults),
            slo: Some(s.slo),
            ..RunSpec::new(s.params, scheme, &s.specs, s.window.drain_until, opts.seed)
        })
        .expect("shard plan checked by Opts::check")
    };
    // The healthy run arms the same SLO probe: its goodput bins are the
    // dip baseline, and its "reconvergence" samples (first delivery after
    // the would-be failure instant) calibrate what a non-incident looks
    // like.
    let healthy = run(&|_| FaultPlan::new());
    let chaos = run(&|ft| s.incident.plan(ft));

    let h_fcts: Vec<f64> = samples(&healthy.effective_flows(), s.window.start, s.window.end)
        .iter()
        .map(|x| x.fct_s)
        .collect();
    let c_flows = chaos.effective_flows();
    let c_fcts: Vec<f64> = samples(&c_flows, s.window.start, s.window.end)
        .iter()
        .map(|x| x.fct_s)
        .collect();
    let h_p99 = percentile(&h_fcts, 0.99).unwrap_or(0.0);
    let c_p99 = percentile(&c_fcts, 0.99).unwrap_or(0.0);

    let slo = chaos.slo().expect("SLO probe was armed");
    let lats: Vec<f64> = slo
        .reconvergence_latencies()
        .iter()
        .map(|t| t.as_secs_f64())
        .collect();

    // Timeout-dominated: in-window flows that either never finished or
    // paid at least one full RTO.
    let in_window: Vec<_> = c_flows
        .iter()
        .filter(|r| r.start >= s.window.start && r.start < s.window.end)
        .collect();
    let dominated = in_window
        .iter()
        .filter(|r| r.fct().is_none_or(|t| t.as_secs_f64() >= RTO_MIN_S))
        .count();

    // Goodput dip: compare the arrival-window bins only (drain-period
    // bins are stragglers in both runs and would wash the signal out).
    let h_bins = &healthy.slo().expect("SLO probe was armed").goodput_bins;
    let c_bins = &slo.goodput_bins;
    let n = (GOODPUT_BINS as usize).min(h_bins.len()).min(c_bins.len());
    let mut dip_depth: f64 = 0.0;
    let mut dip_bins = 0usize;
    for i in 0..n {
        if h_bins[i] == 0 {
            continue;
        }
        let ratio = c_bins[i] as f64 / h_bins[i] as f64;
        dip_depth = dip_depth.max(1.0 - ratio);
        if ratio < 0.9 {
            dip_bins += 1;
        }
    }

    let digest = ChaosResult {
        scheme: scheme.name().to_string(),
        completion: completion_fraction(&c_flows, s.window.start, s.window.end),
        p99_inflation: if h_p99 > 0.0 { c_p99 / h_p99 } else { 0.0 },
        recon_p50_s: percentile(&lats, 0.5).unwrap_or(0.0),
        recon_p99_s: percentile(&lats, 0.99).unwrap_or(0.0),
        recon_samples: slo.samples(),
        timeout_dominated: if in_window.is_empty() {
            0.0
        } else {
            dominated as f64 / in_window.len() as f64
        },
        dip_depth,
        dip_duration_s: dip_bins as f64 * s.slo.bin.as_secs_f64(),
    };
    (digest, healthy, chaos)
}

/// Run the chaos suite and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let k = arity(opts);
    let s = setup(opts);
    let selection =
        opts.scheme_selection(&[schemes::ecmp(), schemes::flowbender(Default::default())]);

    let mut table = Table::new(vec![
        "scheme",
        "complete",
        "p99 inflation",
        "recon p50",
        "recon p99",
        "timeout-dom",
        "dip depth",
        "dip duration",
    ]);
    let mut summaries = Vec::new();
    let mut results = Vec::with_capacity(selection.len());
    for scheme in &selection {
        let (r, healthy, chaos) = run_one(opts, scheme);
        for (tag, out) in [("healthy", &healthy), ("chaos", &chaos)] {
            summaries.push(RunSummary::from_run(
                format!(
                    "{}_{tag}_k{k}_shards{}_seed{}",
                    scheme.slug(),
                    opts.shards,
                    opts.seed
                ),
                scheme.name(),
                opts,
                opts.seed,
                out,
            ));
        }
        table.row(vec![
            r.scheme.clone(),
            format!("{:.1}%", r.completion * 100.0),
            format!("{:.2}x", r.p99_inflation),
            fmt_secs(r.recon_p50_s),
            fmt_secs(r.recon_p99_s),
            format!("{:.1}%", r.timeout_dominated * 100.0),
            format!("{:.0}%", r.dip_depth * 100.0),
            fmt_secs(r.dip_duration_s),
        ]);
        results.push(r);
    }

    let mut report = Report::new("chaos");
    for summary in summaries {
        report.run_summary(summary);
    }
    report.section(
        format!(
            "Chaos drill on a k={k} fat-tree ({} hosts), {} flows at {:.0}% load, \
             {} shard(s): gray ramp at {} -> core crash at {} -> flap storm -> \
             recovery at {}",
            s.params.n_hosts(),
            s.specs.len(),
            LOAD * 100.0,
            opts.shards,
            fmt_secs(s.incident.gray_onset.as_secs_f64()),
            fmt_secs(s.incident.fail_at.as_secs_f64()),
            fmt_secs(s.incident.recovery_at.as_secs_f64()),
        ),
        table,
    );
    report.note(format!(
        "SLOs vs each scheme's own healthy baseline: p99 inflation = chaos p99 FCT / \
         healthy p99 FCT; reconvergence = crash instant to a flow's first post-crash \
         delivered payload; timeout-dominated = in-window flows with FCT >= the {}ms \
         RTO floor (or unfinished); dip = binned goodput vs the healthy run",
        (RTO_MIN_S * 1e3) as u64
    ));
    report.note(
        "the incident targets agg<->core links — the only cross-shard tier — so every \
         crash/storm transition exercises the epoch-mailbox fault handoff under \
         --shards N, with packet conservation asserted every epoch",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(shards: usize) -> Opts {
        Opts {
            seed: 3,
            topo_k: Some(4),
            shards,
            smoke: true,
            schemes: vec!["flowbender".into()],
            ..Opts::default()
        }
    }

    #[test]
    fn smoke_run_reports_degradation_slos() {
        let r = run(&opts(2));
        assert_eq!(r.name, "chaos");
        assert!(r.sections[0].0.contains("core crash"));
        assert_eq!(r.sections[0].1.len(), 1, "one scheme row");
        // Healthy + chaos summaries, and the chaos one carries the
        // reconvergence section with nonzero samples.
        assert_eq!(r.runs.len(), 2);
        assert!(r.runs[0].label.contains("healthy"));
        let chaos = &r.runs[1];
        assert!(chaos.label.contains("chaos"));
        let recon = chaos.recon.as_ref().expect("SLO probe was armed");
        assert!(recon.samples > 0, "flows must reconverge after the crash");
        assert!(
            recon.latency_percentiles.iter().any(|(n, _)| n == "p99_s"),
            "percentiles digested"
        );
    }

    #[test]
    fn chaos_digest_is_identical_across_shard_counts() {
        let scheme = schemes::flowbender(Default::default());
        let (a, ah, ac) = run_one(&opts(1), &scheme);
        let (b, bh, bc) = run_one(&opts(2), &scheme);
        // The Poisson workload is tie-free, so the sharded incident run is
        // byte-identical to the classic engine — compare through the
        // exact-float digest and both conservation ledgers.
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.p99_inflation.to_bits(), b.p99_inflation.to_bits());
        assert_eq!(a.recon_p50_s.to_bits(), b.recon_p50_s.to_bits());
        assert_eq!(a.recon_p99_s.to_bits(), b.recon_p99_s.to_bits());
        assert_eq!(a.recon_samples, b.recon_samples);
        assert_eq!(a.timeout_dominated, b.timeout_dominated);
        assert_eq!(a.dip_depth.to_bits(), b.dip_depth.to_bits());
        assert_eq!(ah.events, bh.events, "healthy runs identical");
        assert_eq!(ac.events, bc.events, "chaos runs identical");
        assert_eq!(ac.conservation.delivered, bc.conservation.delivered);
    }

    #[test]
    fn incident_clears_and_flows_still_complete() {
        let scheme = schemes::flowbender(Default::default());
        let (r, _, chaos) = run_one(&opts(2), &scheme);
        assert!(r.recon_samples > 0, "crash must leave flows to reconverge");
        assert!(
            r.completion > 0.5,
            "recovery must let most flows finish: {}",
            r.completion
        );
        // The crash + revival appear in the drop audit / counters as real
        // faults: the chaos run must differ from a healthy one.
        assert!(
            r.p99_inflation >= 1.0 || r.dip_depth > 0.0 || r.timeout_dominated > 0.0,
            "the incident must leave a measurable mark: {r:?}"
        );
        assert!(chaos.conservation.holds());
    }
}
