//! The benchmark's own rules: the percentile rule, metric names, input
//! sizing, and that the timing decorators leave a run's outputs unchanged.

use netsim::SimTime;
use perfbench::metrics::{
    supported_quantile, valid_name, END_TO_END, MIN_BEYOND, PER_LAYER, TAIL_Q,
};
use perfbench::pipeline;
use perfbench::workload::{sub_seed, Workload, MIN_IN_WINDOW, WORKLOADS};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(supported_quantile(&xs, TAIL_Q), Ok(990.0));
    assert_eq!(
        supported_quantile(&xs[..999], TAIL_Q).ok(),
        None,
        "9 beyond"
    );
    assert_eq!(supported_quantile(&xs, 0.5), Ok(500.0));
    // Ties at the percentile do not count as beyond it.
    let mut tied = xs.clone();
    tied[990..995].fill(990.0);
    assert!(supported_quantile(&tied, TAIL_Q).is_err());
    assert!(supported_quantile(&[], 0.5).is_err());
    assert!(supported_quantile(&[1.0; 10], 0.5).is_err());
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for ok in [
        "setup_s",
        "netsim.ns_per_event",
        "bench.trace_overhead_frac",
        "9a-b",
    ] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in [
        "",
        "_x",
        ".x",
        "a b",
        "x/y",
        "p99%",
        "ünits",
        &"a".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
    }
}

/// Every metric the benchmark prints is declared in `BENCHMARK.json` with
/// the same unit, and nothing else is.
#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return; // the benchmark's package built outside the repository
    };
    let compact: String = json.split_whitespace().collect();
    let declared = compact.matches("\"name\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        let entry = format!("\"name\":\"{}\"", w.name);
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn every_sub_run_has_a_thousand_in_window_flows() {
    for w in WORKLOADS {
        for seed in 1..=20 {
            for sub in 0..w.subruns {
                let inp = w.inputs(sub_seed(seed, sub)).expect("inputs");
                let win = inp.window;
                let n = inp
                    .specs
                    .iter()
                    .filter(|s| s.start >= win.start && s.start < win.end)
                    .count();
                assert!(
                    n >= MIN_IN_WINDOW,
                    "{} seed {seed} sub {sub}: {n} in-window",
                    w.name
                );
                let offered: u64 = inp.specs.iter().map(|s| s.bytes).sum();
                assert!(
                    offered < w.byte_budget * 2,
                    "{} seed {seed} sub {sub}: {offered} bytes",
                    w.name
                );
            }
        }
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let w = WORKLOADS[2];
    let a = w.inputs(7).expect("inputs");
    let b = w.inputs(7).expect("inputs");
    let c = w.inputs(8).expect("inputs");
    let key = |i: &perfbench::workload::Inputs| {
        i.specs
            .iter()
            .map(|s| (s.src, s.dst, s.bytes, s.start))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
    assert_ne!(key(&a), key(&c));
    assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
    assert_ne!(sub_seed(7, 1), sub_seed(8, 0));
}

/// A 16-host fabric small enough for a unit test.
fn small(shards: usize) -> Workload {
    Workload {
        name: "small",
        k: 4,
        traffic: "incast:8",
        shards,
        subruns: 1,
        byte_budget: 150_000_000,
        horizon: SimTime::from_ms(200),
        drain: SimTime::from_ms(100),
    }
}

#[test]
fn decorators_leave_classic_outputs_identical() {
    let w = small(1);
    let plain = pipeline::run(&w, 3, 1, false).expect("untraced run");
    let traced = pipeline::run(&w, 3, 1, true).expect("traced run");
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(plain.events, traced.events);
    assert_eq!(plain.counters, traced.counters);
    assert_eq!(plain.incomplete, 0);
    let seams = traced.seams.expect("traced runs carry tallies");
    let agent = seams
        .agent
        .expect("the classic engine reaches the agent seam");
    assert!(agent.calls > 0 && seams.core.calls > 0);
    assert!(
        agent.ns >= seams.core.ns,
        "controller calls nest inside agent calls"
    );
    assert!(plain.seams.is_none());
    let slices = traced
        .spans
        .list
        .iter()
        .filter(|s| s.name == "slice")
        .count();
    assert!(slices > 1, "simulate ran in slices");
}

#[test]
fn decorators_leave_sharded_outputs_identical() {
    let w = small(2);
    let plain = pipeline::run(&w, 3, 2, false).expect("untraced run");
    let traced = pipeline::run(&w, 3, 2, true).expect("traced run");
    assert_eq!(plain.digest, traced.digest);
    let seams = traced.seams.expect("traced runs carry tallies");
    assert!(seams.agent.is_none(), "the sharded runner owns its agents");
    assert!(seams.core.calls > 0, "controller calls summed over workers");
    assert!(plain.shard.expect("sharded stats").rounds > 0);
}
