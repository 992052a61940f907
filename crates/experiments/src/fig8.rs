//! Figure 8 — the testbed experiment, simulated: hosts of one ToR send
//! 1 MB flows to random servers at 20/40/60 % of the ToR's uplink
//! capacity; mean, 99th- and 99.9th-percentile completion times of
//! FlowBender normalized to ECMP.
//!
//! Paper's result (real hardware): FlowBender improves p99 by 15–26 % and
//! p99.9 by 34–45 %; at 60 % load flows finish >2× faster on average. Our
//! substrate is the simulator, so per the paper's own §4.3 caveat only the
//! qualitative shape is expected to match (simulation numbers tend to show
//! *larger* wins than the syscall-noise-limited testbed).

use netsim::SimTime;
use stats::{fmt_ratio, fmt_secs, samples, Table};
use topology::TestbedParams;
use workloads::testbed_one_tor;

use crate::report::{Opts, Report};
use crate::scenario::{self, sweep_schemes, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// Loads from the paper.
pub const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

/// One (scheme, load) testbed run summary.
#[derive(Debug)]
pub struct Cell {
    /// Load fraction.
    pub load: f64,
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Mean FCT (s).
    pub mean_s: f64,
    /// p99 FCT (s).
    pub p99_s: f64,
    /// p99.9 FCT (s).
    pub p999_s: f64,
    /// Samples measured.
    pub n: usize,
}

/// Run the sweep.
pub fn sweep(opts: &Opts, schemes: &[SchemeSpec]) -> Vec<Cell> {
    opts.validate();
    let params = TestbedParams::paper();
    let duration = opts.scaled(SimTime::from_ms(800));
    let window = Window::for_duration(duration, SimTime::from_ms(400));

    sweep_schemes(schemes, &LOADS, 1, |scheme, &load| {
        let mut rng = netsim::DetRng::new(opts.seed, 0xF18 ^ (load * 1000.0) as u64);
        let tor0 = 0..params.servers_per_tor[0];
        let specs = testbed_one_tor(
            &params,
            tor0,
            params.n_hosts(),
            load,
            1_000_000,
            duration,
            &mut rng,
        );
        let spec = RunSpec::new(
            params.clone(),
            scheme,
            &specs,
            window.drain_until,
            opts.seed,
        );
        let out = scenario::run(&spec).expect("single-shard spec");
        let flows = out.effective_flows();
        let s = samples(&flows, window.start, window.end);
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        Cell {
            load,
            scheme: scheme.name().to_string(),
            mean_s: stats::mean(&fcts).unwrap_or(0.0),
            p99_s: stats::percentile(&fcts, 0.99).unwrap_or(0.0),
            p999_s: stats::percentile(&fcts, 0.999).unwrap_or(0.0),
            n: fcts.len(),
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Produce the Figure 8 report.
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(
        opts,
        &[
            schemes::ecmp(),
            schemes::flowbender(flowbender::Config::default()),
        ],
    );
    let find = |load: f64, name: &str| {
        cells
            .iter()
            .find(|c| c.load == load && c.scheme == name)
            .unwrap_or_else(|| panic!("missing {name} at {load}"))
    };
    let mut table = Table::new(vec![
        "load",
        "FB mean/ECMP",
        "FB p99/ECMP",
        "FB p99.9/ECMP",
        "ECMP mean",
        "ECMP p99",
        "ECMP p99.9",
        "flows",
    ]);
    for &load in &LOADS {
        let e = find(load, "ECMP");
        let f = find(load, "FlowBender");
        table.row(vec![
            format!("{:.0}%", load * 100.0),
            fmt_ratio(f.mean_s / e.mean_s),
            fmt_ratio(f.p99_s / e.p99_s),
            fmt_ratio(f.p999_s / e.p999_s),
            fmt_secs(e.mean_s),
            fmt_secs(e.p99_s),
            fmt_secs(e.p999_s),
            e.n.to_string(),
        ]);
    }
    let mut r = Report::new("fig8");
    r.section(
        "Fig 8: testbed (simulated) 1MB flows from one ToR, FlowBender vs ECMP",
        table,
    );
    r.note("paper (real testbed): p99 15-26% better, p99.9 34-45% better, mean >2x at 60% load");
    r.note("simulation lacks the testbed's host-side noise; expect same shape, stronger ratios");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_load_cells_are_sane() {
        let opts = Opts {
            scale: 0.1,
            seed: 2,
            ..Opts::default()
        };
        let params = TestbedParams::paper();
        let duration = opts.scaled(SimTime::from_ms(800));
        let window = Window::for_duration(duration, SimTime::from_ms(400));
        let mut rng = netsim::DetRng::new(opts.seed, 0xF18);
        let specs = testbed_one_tor(
            &params,
            0..params.servers_per_tor[0],
            params.n_hosts(),
            0.6,
            1_000_000,
            duration,
            &mut rng,
        );
        let scheme = schemes::flowbender(flowbender::Config::default());
        let spec = RunSpec::new(
            params.clone(),
            &scheme,
            &specs,
            window.drain_until,
            opts.seed,
        );
        let out = scenario::run(&spec).expect("single-shard spec");
        let s = samples(&out.flows, window.start, window.end);
        assert!(s.len() > 50, "too few flows: {}", s.len());
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        let mean = stats::mean(&fcts).unwrap();
        // 1MB at 10G is ~0.9ms with stack delays; under load it stretches
        // but must stay well under 100ms.
        assert!(mean > 0.8e-3 && mean < 0.1, "mean = {mean}");
    }
}
