//! Substrate sensitivity — switch buffer depth: the one knob that
//! separates this reproduction's magnitudes from the paper's.
//!
//! EXPERIMENTS.md claims that with shallow buffers the ECMP-vs-adaptive
//! gap widens toward the paper's headline numbers because ECMP collisions
//! start costing drops and 10 ms RTO tails. This experiment makes that
//! claim regenerable: the 60 % all-to-all workload under ECMP, FlowBender,
//! and RPS at three per-port buffer depths.

use netsim::{Counter, QueueSpec, SimTime};
use stats::{fmt_ratio, fmt_secs, samples, Table};
use topology::FatTreeParams;
use workloads::{all_to_all, FlowSizeDist};

use crate::report::{Opts, Report};
use crate::scenario::{self, sweep_schemes, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// Evaluated per-port buffer capacities (bytes).
pub const CAPACITIES: [u64; 3] = [150_000, 400_000, 2 * 1024 * 1024];

/// One (capacity, scheme) outcome.
#[derive(Debug)]
pub struct Cell {
    /// Buffer capacity, bytes.
    pub capacity: u64,
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Mean FCT (s).
    pub mean_s: f64,
    /// p99 FCT (s).
    pub p99_s: f64,
    /// Queue drops.
    pub drops: u64,
    /// RTOs.
    pub timeouts: u64,
    /// In-window completion fraction.
    pub completion: f64,
}

/// Run the sweep.
pub fn sweep(opts: &Opts) -> Vec<Cell> {
    opts.validate();
    let duration = opts.scaled(SimTime::from_ms(60));
    let window = Window::for_duration(duration, SimTime::from_ms(400));
    let dist = FlowSizeDist::web_search();
    let contenders: Vec<SchemeSpec> = vec![
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
        schemes::rps(),
    ];

    sweep_schemes(&contenders, &CAPACITIES, 1, |scheme, &capacity| {
        let mut params = FatTreeParams::paper();
        params.fabric_queue = QueueSpec {
            capacity,
            mark_threshold: 90_000,
        };
        let mut rng = netsim::DetRng::new(opts.seed, 0xB0FF);
        let specs = all_to_all(&params, 0.6, duration, &dist, &mut rng);
        let spec = RunSpec::new(params, scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let s = samples(&out.flows, window.start, window.end);
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        Cell {
            capacity,
            scheme: scheme.name().to_string(),
            mean_s: stats::mean(&fcts).unwrap_or(0.0),
            p99_s: stats::percentile(&fcts, 0.99).unwrap_or(0.0),
            drops: out.get(Counter::QueueDrops),
            timeouts: out.get(Counter::Timeouts),
            completion: stats::completion_fraction(&out.flows, window.start, window.end),
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(opts);
    let find = |capacity: u64, name: &str| {
        cells
            .iter()
            .find(|c| c.capacity == capacity && c.scheme == name)
            .unwrap_or_else(|| panic!("missing {name} at {capacity}"))
    };
    let mut table = Table::new(vec![
        "buffer/port",
        "scheme",
        "mean",
        "p99",
        "mean vs ECMP",
        "p99 vs ECMP",
        "drops",
        "RTOs",
        "compl",
    ]);
    for &capacity in &CAPACITIES {
        let ecmp = find(capacity, "ECMP");
        for name in ["ECMP", "FlowBender", "RPS"] {
            let c = find(capacity, name);
            table.row(vec![
                format!("{}KB", capacity / 1000),
                name.to_string(),
                fmt_secs(c.mean_s),
                fmt_secs(c.p99_s),
                fmt_ratio(c.mean_s / ecmp.mean_s),
                fmt_ratio(c.p99_s / ecmp.p99_s),
                c.drops.to_string(),
                c.timeouts.to_string(),
                format!("{:.3}", c.completion),
            ]);
        }
    }
    let mut r = Report::new("buffers");
    r.section(
        "Substrate sensitivity: per-port buffer depth at 60% all-to-all load",
        table,
    );
    r.note("claim under test: shallow buffers turn ECMP collisions into drops + RTO tails, widening the adaptive schemes' advantage toward the paper's magnitudes");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shallow_buffers_drop_and_deep_buffers_do_not() {
        let opts = Opts {
            scale: 0.25,
            seed: 2,
            ..Opts::default()
        };
        let cells = sweep(&opts);
        let ecmp_shallow = cells
            .iter()
            .find(|c| c.capacity == CAPACITIES[0] && c.scheme == "ECMP")
            .unwrap();
        let ecmp_deep = cells
            .iter()
            .find(|c| c.capacity == CAPACITIES[2] && c.scheme == "ECMP")
            .unwrap();
        assert!(
            ecmp_shallow.drops > 0,
            "150KB buffers must overflow at 60% load"
        );
        assert_eq!(ecmp_deep.drops, 0, "2MB buffers should absorb 60% load");
        // Everything still completes (retransmission works).
        for c in &cells {
            assert!(
                c.completion > 0.99,
                "{} at {}: {}",
                c.scheme,
                c.capacity,
                c.completion
            );
        }
    }
}
