//! `feedback` — the switch-assisted feedback layer end to end: how much
//! earlier a switch-generated congestion notification (CN) reaches the
//! sender than the end-to-end ECN echo it pre-empts, and what that lead
//! buys in tail FCT.
//!
//! Four schemes by default — the two baselines (ECMP, FlowBender) and the
//! two feedback consumers (Bender-INT bending away from the INT-blamed
//! hop, FastCC cutting cwnd on CN arrival) — on the two workloads where
//! early feedback should matter most: incast (deep, short-lived queue
//! spikes at the fan-in port) and a Zipf hotspot (persistent congestion
//! on a few downlinks). Runs go through the sharded engine
//! ([`crate::run`]), so `--shards N` works; Poisson
//! workloads (hotspot, websearch, ...) are byte-identical across shard
//! counts. Incast is the one exception fabric-wide (not feedback-specific):
//! its *synchronized* workers create exact-timestamp arrival ties, and the
//! tie order between events on different shards is a function of the
//! partition, so ECMP's incast numbers already shift by a serialization
//! quantum between `--shards 1` and `--shards 2`. Each shard count is
//! individually deterministic either way.
//!
//! The headline `lead` column is measured, not modeled: the sender opens
//! a timer at the first CN of a congestion window and closes it when the
//! first ECE-marked ACK of that window arrives ([`Counter::FeedbackLeadPs`]
//! summed over [`Counter::FeedbackLeadSamples`] windows). With `--trace`
//! (at any shard count), the CN arrivals can be cross-checked against the
//! flight recorder: a replay tracing every flow logs exactly
//! [`Counter::CnDelivered`] `cn_arrive` timeline events, at timestamps
//! consistent with the lead.

use netsim::{Counter, DetRng, FlowTimeline, SimTime};
use stats::{completion_fraction, fmt_secs, percentile, samples, Table};
use topology::FatTreeParams;

use crate::report::{Opts, Report, RunSummary};
use crate::scenario::{self, sweep_schemes, RunOutput, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// Offered load (fraction of edge bandwidth), the fabric-scale operating
/// point: enough congestion to emit CNs, not enough to collapse.
pub const LOAD: f64 = 0.3;

/// Workload slugs swept by default: incast (fan-in capped to half the
/// fabric, so the smoke-sized k=4 run stays legal) and the Zipf hotspot.
/// `--workload` replaces the pair with a single selection.
pub fn default_workloads(opts: &Opts) -> Vec<String> {
    let hosts = FatTreeParams::k_ary(arity(opts))
        .expect("arity checked by Opts::check")
        .n_hosts();
    vec![format!("incast:{}", 32.min(hosts / 2)), "hotspot".into()]
}

/// RNG stream tag for the workload generators.
const STREAM_TAG: u64 = 0xFEED_BACC;

/// One (workload, scheme) cell of the feedback sweep.
#[derive(Debug)]
pub struct FbResult {
    /// Scheme display name.
    pub scheme: String,
    /// Workload display name.
    pub workload: String,
    /// Flows the generator emitted.
    pub flows: usize,
    /// Fraction of in-window flows that completed.
    pub completion: f64,
    /// p99 FCT (seconds) over in-window completions.
    pub p99_s: f64,
    /// CNs switches emitted ([`Counter::CnSent`]).
    pub cn_sent: u64,
    /// CNs that reached their sender ([`Counter::CnDelivered`]).
    pub cn_delivered: u64,
    /// INT records stamped by the fabric ([`Counter::IntStamps`]).
    pub int_stamps: u64,
    /// Congestion windows where a CN preceded the ECN echo.
    pub lead_samples: u64,
    /// Mean CN-before-echo lead over those windows, in microseconds
    /// (`None` when the scheme produced no samples).
    pub lead_us: Option<f64>,
}

/// The fabric arity this invocation runs: `--topo k=K` if given, else
/// k=8 (128 hosts) — or k=4 (16 hosts) under `--smoke`.
pub fn arity(opts: &Opts) -> usize {
    opts.topo_k.unwrap_or(if opts.smoke { 4 } else { 8 })
}

/// The default scheme set: both baselines, both feedback consumers.
pub fn default_schemes() -> Vec<SchemeSpec> {
    vec![
        schemes::ecmp(),
        schemes::flowbender(Default::default()),
        schemes::bender_int(),
        schemes::fastcc(),
    ]
}

fn measurement(opts: &Opts) -> Window {
    let base = if opts.smoke {
        SimTime::from_us(400)
    } else {
        SimTime::from_ms(2)
    };
    // Generous drain: incast jobs arriving late in the window still need
    // their fan-in to finish for the completion column to mean anything.
    Window::for_duration(opts.scaled(base), SimTime::from_ms(20))
}

/// Generate the flow list for one cell (deterministic in `(seed, slug)`,
/// independent of scheme and shard count).
fn gen_specs(
    opts: &Opts,
    params: &FatTreeParams,
    wl_slug: &str,
    window: Window,
) -> Vec<netsim::FlowSpec> {
    let wl = workloads::find(wl_slug).unwrap_or_else(|| panic!("unknown workload `{wl_slug}`"));
    let mut rng = DetRng::new(opts.seed, STREAM_TAG);
    wl.generate(params, LOAD, window.end, &mut rng)
}

/// Run one (scheme, workload) cell through the sharded engine, returning
/// the digest alongside the full run output (for JSON export).
pub fn run_one(opts: &Opts, scheme: &SchemeSpec, wl_slug: &str) -> (FbResult, RunOutput) {
    let params = FatTreeParams::k_ary(arity(opts)).expect("arity checked by Opts::check");
    let window = measurement(opts);
    let specs = gen_specs(opts, &params, wl_slug, window);
    let out = scenario::run(&RunSpec {
        shards: opts.shards,
        trace: opts.trace.clone(),
        ..RunSpec::new(params, scheme, &specs, window.drain_until, opts.seed)
    })
    .expect("shard plan checked by Opts::check");

    let flows = out.effective_flows();
    let fcts: Vec<f64> = samples(&flows, window.start, window.end)
        .iter()
        .map(|s| s.fct_s)
        .collect();
    let lead_samples = out.get(Counter::FeedbackLeadSamples);
    let digest = FbResult {
        scheme: scheme.name().to_string(),
        workload: workloads::find(wl_slug).expect("resolved above").name(),
        flows: specs.len(),
        completion: completion_fraction(&flows, window.start, window.end),
        p99_s: percentile(&fcts, 0.99).unwrap_or(0.0),
        cn_sent: out.get(Counter::CnSent),
        cn_delivered: out.get(Counter::CnDelivered),
        int_stamps: out.get(Counter::IntStamps),
        lead_samples,
        lead_us: (lead_samples > 0)
            .then(|| out.get(Counter::FeedbackLeadPs) as f64 / lead_samples as f64 / 1e6),
    };
    (digest, out)
}

/// Total `cn_arrive` events across a traced run's timelines — when every
/// flow is traced, this must equal [`Counter::CnDelivered`].
pub fn cn_arrivals_in(timelines: &[FlowTimeline]) -> usize {
    timelines.iter().map(|t| t.count_kind("cn_arrive")).sum()
}

/// Run the feedback experiment and build the report.
pub fn run(opts: &Opts) -> Report {
    opts.validate();
    let k = arity(opts);
    let params = FatTreeParams::k_ary(k).expect("arity checked by Opts::check");
    let selection = opts.scheme_selection(&default_schemes());
    let wl_slugs: Vec<String> = match &opts.workload {
        Some(w) => vec![w.clone()],
        None => default_workloads(opts),
    };

    let runs = sweep_schemes(&selection, &wl_slugs, opts.shards, |scheme, wl| {
        run_one(opts, scheme, wl)
    });

    let mut report = Report::new("feedback");
    for (wl, cells) in wl_slugs.iter().zip(runs) {
        let wl_name = cells
            .first()
            .map(|(r, _)| r.workload.clone())
            .unwrap_or_else(|| wl.clone());
        let wl_label = workloads::find(wl).expect("resolved by run_one").slug();
        let mut table = Table::new(vec![
            "scheme", "flows", "complete", "p99 FCT", "CN sent", "CN deliv", "lead",
        ]);
        for (scheme, (r, out)) in selection.iter().zip(cells) {
            let label = format!(
                "{wl_label}_{}_shards{}_seed{}",
                scheme.slug(),
                opts.shards,
                opts.seed
            );
            report.trace_timelines(label.clone(), out.timelines().to_vec());
            report.run_summary(RunSummary::from_run(
                label,
                scheme.name(),
                opts,
                opts.seed,
                &out,
            ));
            table.row(vec![
                r.scheme.clone(),
                r.flows.to_string(),
                format!("{:.1}%", r.completion * 100.0),
                if r.p99_s > 0.0 {
                    fmt_secs(r.p99_s)
                } else {
                    "-".into()
                },
                r.cn_sent.to_string(),
                r.cn_delivered.to_string(),
                match r.lead_us {
                    Some(us) => format!("{us:.1}us ({} wins)", r.lead_samples),
                    None if r.int_stamps > 0 => format!("{} INT stamps", r.int_stamps),
                    None => "-".into(),
                },
            ]);
        }
        report.section(
            format!(
                "Switch-assisted feedback on {wl_name}: k={k} fat-tree \
                 ({} hosts) at {:.0}% load, {} shard(s)",
                params.n_hosts(),
                LOAD * 100.0,
                opts.shards
            ),
            table,
        );
    }
    report.note(
        "lead = mean time by which the first CN of a congestion window preceded \
         the first ECE-marked ACK of that window (FeedbackLeadPs / \
         FeedbackLeadSamples); it is what FastCC's early cut buys over waiting \
         for the echo",
    );
    report.note(
        "CNs are switch-generated at the ECN mark point and race the data \
         packet's receiver round-trip back to the sender; Bender-INT consumes \
         per-hop INT stamps instead and emits no CNs",
    );
    if !opts.trace.is_off() {
        report.note(
            "flight-recorder timelines (cn_arrive included) come from a read-only \
             traced replay; slowest=k replays are checked against their untraced \
             probe run (same event count)",
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TraceSel;

    fn smoke_opts() -> Opts {
        Opts {
            seed: 7,
            topo_k: Some(4),
            smoke: true,
            ..Opts::default()
        }
    }

    fn cnt(s: &RunSummary, name: &str) -> Option<u64> {
        s.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Smoke-sized end-to-end sweep: all four default schemes on both
    /// workloads, with the feedback consumers actually consuming.
    #[test]
    fn smoke_run_measures_cn_lead_and_int_stamps() {
        let r = run(&smoke_opts());
        assert_eq!(r.name, "feedback");
        assert_eq!(r.sections.len(), 2, "incast + hotspot");
        assert_eq!(r.sections[0].1.len(), 4, "four scheme rows per workload");
        assert_eq!(r.runs.len(), 8, "one JSON summary per cell");

        let by_label = |frag: &str| {
            r.runs
                .iter()
                .find(|s| s.label.contains(frag) && s.label.starts_with("incast_8"))
                .unwrap_or_else(|| panic!("no incast summary for {frag}"))
        };
        let fastcc = by_label("fastcc");
        assert!(
            cnt(fastcc, "cn_sent").unwrap_or(0) > 0 && cnt(fastcc, "cn_delivered").unwrap_or(0) > 0,
            "incast at 30% load must trip the CN threshold: {:?}",
            fastcc.counters
        );
        assert!(
            cnt(fastcc, "feedback_lead_samples").unwrap_or(0) > 0,
            "FastCC must measure the CN-before-echo lead"
        );
        let bender_int = by_label("bender_int");
        assert!(
            cnt(bender_int, "int_stamps").unwrap_or(0) > 0,
            "Bender-INT fabric must stamp INT records"
        );
        assert!(
            cnt(bender_int, "cn_sent").is_none(),
            "Bender-INT is INT-only"
        );
        // Baselines carry no feedback counters at all (feedback-only
        // counters are omitted from summaries when zero).
        let ecmp = by_label("ecmp");
        assert!(cnt(ecmp, "cn_sent").is_none());
        assert!(cnt(ecmp, "int_stamps").is_none());
    }

    /// The measured lead is positive and CN arrivals beat the echo by
    /// less than the configured delivery gap allows — i.e. the counter
    /// measures something physical, not an artifact.
    #[test]
    fn fastcc_lead_is_positive_on_incast() {
        let (r, _) = run_one(&smoke_opts(), &schemes::fastcc(), "incast:8");
        assert!(r.cn_delivered > 0, "CNs must be delivered: {r:?}");
        let lead = r.lead_us.expect("lead must be measured");
        assert!(
            lead > 0.0,
            "CN must precede the echo it pre-empts: {lead}us"
        );
        assert!(r.completion > 0.5, "most in-window flows complete: {r:?}");
    }

    /// Feedback-enabled schemes are byte-identical across shard counts:
    /// CN delivery crosses shard boundaries through the handoff protocol
    /// without perturbing the schedule. Checked on the hotspot workload —
    /// Poisson arrivals, so no exact-timestamp ties; incast's synchronized
    /// senders tie constantly and are not shard-count-invariant for *any*
    /// scheme, ECMP included (see the module docs). Uses the full
    /// (non-smoke) 2 ms window: the smoke hotspot cell carries only a
    /// single flow, which would make invariance vacuous — the full window
    /// pushes ~1M events and double-digit flow counts through the shard
    /// handoffs.
    #[test]
    fn feedback_cells_are_identical_across_shard_counts() {
        let dense = Opts {
            smoke: false,
            ..smoke_opts()
        };
        for scheme in [schemes::bender_int(), schemes::fastcc()] {
            let base = run_one(&dense, &scheme, "hotspot");
            for shards in [2, 4] {
                let opts = Opts {
                    shards,
                    ..dense.clone()
                };
                let (r, out) = run_one(&opts, &scheme, "hotspot");
                assert_eq!(base.0.p99_s, r.p99_s, "{} x{shards}", scheme.name());
                assert_eq!(base.0.completion, r.completion);
                assert_eq!(base.0.cn_sent, r.cn_sent);
                assert_eq!(base.0.cn_delivered, r.cn_delivered);
                assert_eq!(base.0.int_stamps, r.int_stamps);
                assert_eq!(base.0.lead_samples, r.lead_samples);
                assert_eq!(base.0.lead_us, r.lead_us);
                assert_eq!(base.1.flows.len(), out.flows.len());
                assert!(
                    base.1
                        .flows
                        .iter()
                        .zip(out.flows.iter())
                        .all(|(a, b)| a.end == b.end),
                    "{} x{shards}: per-flow completion times must match",
                    scheme.name()
                );
            }
        }
    }

    /// Flight-recorder verification of the lead: a traced replay logs
    /// exactly `CnDelivered` cn_arrive events, and at least one traced
    /// flow shows a cn_arrive strictly before a later cwnd change — the
    /// recorded shape of "the CN acted before the echo".
    #[test]
    fn traced_replay_confirms_cn_arrivals_against_counters() {
        let opts = smoke_opts();
        let (r, out) = run_one(&opts, &schemes::fastcc(), "incast:8");
        assert!(r.cn_delivered > 0);
        let traced_opts = Opts {
            trace: TraceSel::Flows((0..r.flows as netsim::FlowId).collect()),
            ..opts
        };
        let (_, traced) = run_one(&traced_opts, &schemes::fastcc(), "incast:8");
        assert_eq!(traced.events, out.events, "tracing is read-only");
        let timelines = traced.results.timelines();
        assert_eq!(
            cn_arrivals_in(timelines) as u64,
            r.cn_delivered,
            "every delivered CN appears in a timeline"
        );
        let cn_then_cut = timelines.iter().any(|t| {
            t.events
                .iter()
                .find(|(_, e)| e.kind() == "cn_arrive")
                .is_some_and(|(cn_at, _)| {
                    t.events
                        .iter()
                        .any(|(at, e)| e.kind() == "cwnd" && at > cn_at)
                })
        });
        assert!(cn_then_cut, "a CN must precede a later cwnd change");
    }

    /// `--trace` attaches verified timelines to the report, at one shard
    /// and at two.
    #[test]
    fn trace_selection_attaches_timelines_to_the_report() {
        for shards in [1, 2] {
            let opts = Opts {
                trace: TraceSel::Slowest(2),
                schemes: vec!["fastcc".into()],
                workload: Some("incast:8".into()),
                shards,
                ..smoke_opts()
            };
            let r = run(&opts);
            assert_eq!(
                r.traces.len(),
                2,
                "{shards} shards: two slowest flows traced"
            );
            assert!(r.notes.iter().any(|n| n.contains("cn_arrive")));
        }
    }
}
