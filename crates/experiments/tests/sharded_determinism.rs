//! The sharded engine's hard constraint, tested as a property: for every
//! registered scheme, an N-shard run (N ∈ {2, 4, 8}) of the same seed
//! produces a [`RunSummary`] JSON **byte-identical** to the 1-shard
//! (classic single-threaded) run — flows, counters, drops, FCT
//! percentiles, even the event count — and repeating an invocation is
//! byte-stable regardless of OS thread scheduling. The cross-shard
//! conservation ledger is checked at quiesce: every packet one shard
//! exported, another imported, and the merged ledger balances.
//!
//! Traffic is a seeded Poisson all-to-all on a k=8 fat-tree (128 hosts,
//! 8 pods — so 2, 4, and 8 shards all divide the pod count), big enough
//! to force cross-pod (and hence cross-shard) traffic through the core
//! tier, with DeTail exercising cross-shard PFC pause/resume handoffs.

use experiments::report::{Opts, RunSummary};
use experiments::{run, schemes, timeline_json, RunOutput, RunSpec, SchemeSpec, TraceSel};
use netsim::{DetRng, FlowSpec, SimTime, TelemetryConfig};
use topology::FatTreeParams;
use workloads::{FlowSizeDist, PoissonStream};

const SEED: u64 = 3;

fn fabric() -> FatTreeParams {
    FatTreeParams::k_ary(8).expect("k=8 is a valid arity")
}

fn traffic(params: &FatTreeParams) -> Vec<FlowSpec> {
    let rng = DetRng::new(SEED, 0xDE7);
    PoissonStream::new(
        params,
        0.3,
        SimTime::from_us(200),
        FlowSizeDist::web_search(),
        &rng,
    )
    .collect()
}

fn run_sharded(
    params: FatTreeParams,
    scheme: &SchemeSpec,
    specs: &[FlowSpec],
    until: SimTime,
    shards: usize,
) -> Result<RunOutput, String> {
    run(&RunSpec {
        shards,
        ..RunSpec::new(params, scheme, specs, until, SEED)
    })
}

fn summary_json(out: &experiments::RunOutput, scheme: &str) -> String {
    let opts = Opts {
        seed: SEED,
        ..Opts::default()
    };
    RunSummary::from_run("det", scheme, &opts, SEED, out)
        .to_json("sharded_determinism")
        .to_string_pretty()
}

#[test]
fn every_scheme_is_byte_identical_across_shard_counts() {
    let params = fabric();
    let specs = traffic(&params);
    assert!(!specs.is_empty());
    let until = SimTime::from_ms(30);

    for scheme in schemes::registry() {
        let base =
            run_sharded(params, &scheme, &specs, until, 1).expect("1 shard always partitions");
        assert!(
            base.shard_stats.is_none(),
            "--shards 1 must be the classic engine"
        );
        let base_json = summary_json(&base, scheme.name());

        for shards in [2usize, 4, 8] {
            let out = run_sharded(params, &scheme, &specs, until, shards)
                .unwrap_or_else(|e| panic!("{shards} shards on k=8: {e}"));

            // Cross-shard ledger at quiesce: the runner asserted
            // exported == imported before merging; after handoffs cancel,
            // the merged ledger must equal the single-threaded one in
            // every component — same injections, deliveries, drops, and
            // in-flight population.
            assert_eq!(
                out.conservation,
                base.conservation,
                "{} at {shards} shards: merged ledger diverged",
                scheme.name()
            );

            let ss = out.shard_stats.expect("sharded runs report stats");
            assert_eq!(ss.shards, shards);
            assert!(ss.rounds > 0, "epoch protocol must have run");
            assert!(
                ss.handoffs > 0,
                "{} at {shards} shards: all-to-all traffic must cross shards",
                scheme.name()
            );

            let json = summary_json(&out, scheme.name());
            assert_eq!(
                base_json,
                json,
                "{} at {shards} shards: RunSummary JSON diverged from 1 shard",
                scheme.name()
            );
        }
    }
}

#[test]
fn repeated_invocations_are_byte_stable() {
    // Thread-scheduling independence: the merge order is fixed (shard 0
    // first) and mailboxes drain sorted by source shard, so two identical
    // invocations must agree byte-for-byte even though the OS interleaves
    // the workers differently each time.
    let params = fabric();
    let specs = traffic(&params);
    let until = SimTime::from_ms(30);
    let scheme = schemes::flowbender(flowbender::Config::default());
    let a = run_sharded(params, &scheme, &specs, until, 4).unwrap();
    let b = run_sharded(params, &scheme, &specs, until, 4).unwrap();
    assert_eq!(
        summary_json(&a, scheme.name()),
        summary_json(&b, scheme.name())
    );
    assert_eq!(a.events, b.events);
    assert_eq!(a.conservation, b.conservation);
}

#[test]
fn shard_plan_errors_are_actionable() {
    let params = fabric();
    let specs = traffic(&params);
    let until = SimTime::from_ms(1);
    let scheme = schemes::ecmp();
    let err = run_sharded(params, &scheme, &specs, until, 0).unwrap_err();
    assert!(err.contains("--shards 1"), "{err}");
    let err = run_sharded(params, &scheme, &specs, until, 3).unwrap_err();
    assert!(err.contains("valid shard counts"), "{err}");
    let err = run_sharded(params, &scheme, &specs, until, 999).unwrap_err();
    assert!(err.contains("128 hosts"), "{err}");
}

#[test]
fn traced_runs_are_identical_across_shard_counts() {
    // The flight recorder rides every shard: each worker records the
    // events of its own nodes and hosts, and the merged timelines must
    // equal the single-shard recording. Tracing stays read-only at every
    // shard count: a traced run processes exactly the untraced events.
    let params = fabric();
    let specs = traffic(&params);
    let until = SimTime::from_ms(30);
    let scheme = schemes::flowbender(flowbender::Config::default());
    let traced_flows: Vec<netsim::FlowId> = (0..8).collect();
    let mut timelines = Vec::new();
    for shards in [1usize, 2] {
        let plain = run_sharded(params, &scheme, &specs, until, shards).unwrap();
        let traced = run(&RunSpec {
            shards,
            trace: TraceSel::Flows(traced_flows.clone()),
            ..RunSpec::new(params, &scheme, &specs, until, SEED)
        })
        .unwrap();
        assert_eq!(
            traced.events, plain.events,
            "{shards} shards: tracing perturbed the run"
        );
        assert!(plain.timelines().is_empty());
        assert_eq!(traced.timelines().len(), traced_flows.len());
        assert!(
            traced.timelines().iter().any(|t| t.count_kind("hop") > 0),
            "{shards} shards: hops recorded"
        );
        let json: Vec<String> = traced
            .timelines()
            .iter()
            .map(|t| timeline_json("det", "cell", t).to_string())
            .collect();
        timelines.push(json);
    }
    assert_eq!(
        timelines[0], timelines[1],
        "2-shard timelines diverged from 1 shard"
    );
}

#[test]
fn multi_shard_telemetry_is_an_error() {
    // Per-shard series would merge in a different order than one shard
    // records them, so a sharded spec asking for telemetry is refused
    // rather than silently dropped.
    let params = fabric();
    let specs = traffic(&params);
    let until = SimTime::from_ms(1);
    let scheme = schemes::ecmp();
    let spec = |shards| RunSpec {
        shards,
        telemetry: TelemetryConfig::all(SimTime::from_us(100)),
        ..RunSpec::new(params, &scheme, &specs, until, SEED)
    };
    let err = run(&spec(2)).unwrap_err();
    assert!(
        err.contains("telemetry") && err.contains("--shards 1"),
        "{err}"
    );
    assert!(run(&spec(1)).is_ok(), "one shard collects telemetry");
}
