//! Extension — FlowBender vs flowlet switching (LetFlow-style), the other
//! major "adaptive without custom silicon" family that emerged alongside
//! FlowBender (CONGA SIGCOMM'14, LetFlow NSDI'17).
//!
//! Flowlet switches re-draw a flow's path during idle gaps; FlowBender
//! re-draws from end-host congestion signals. Both avoid the sustained
//! reordering of per-packet schemes. The comparison runs the 40/60 %
//! all-to-all plus the Table-1 microbenchmark, with flowlet gaps swept
//! around the fabric RTT.

use netsim::{Counter, SimTime};
use stats::{fmt_ratio, fmt_secs, samples, Table};
use topology::FatTreeParams;
use workloads::{all_to_all, microbench, FlowSizeDist};

use crate::report::{Opts, Report};
use crate::scenario::{self, parallel_map, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// Flowlet inactivity gaps evaluated (around the ~90 µs fabric RTT).
pub const GAPS_US: [u64; 3] = [50, 100, 500];

/// One (scheme, load) all-to-all outcome.
#[derive(Debug)]
pub struct Cell {
    /// Scheme label (includes the gap for flowlet variants).
    pub label: String,
    /// Load fraction.
    pub load: f64,
    /// Mean FCT (s).
    pub mean_s: f64,
    /// p99 FCT (s).
    pub p99_s: f64,
    /// Out-of-order fraction.
    pub ooo_frac: f64,
}

fn contenders() -> Vec<SchemeSpec> {
    let mut v = vec![
        schemes::ecmp(),
        schemes::flowbender(flowbender::Config::default()),
    ];
    for gap in GAPS_US {
        v.push(schemes::flowlet(SimTime::from_us(gap)));
    }
    v
}

/// Run the all-to-all comparison.
pub fn sweep(opts: &Opts) -> Vec<Cell> {
    opts.validate();
    let params = FatTreeParams::paper();
    let duration = opts.scaled(SimTime::from_ms(60));
    let window = Window::for_duration(duration, SimTime::from_ms(400));
    let dist = FlowSizeDist::web_search();

    let mut jobs = Vec::new();
    for &load in &[0.4f64, 0.6] {
        for scheme in contenders() {
            jobs.push((load, scheme));
        }
    }
    parallel_map(jobs, |(load, scheme)| {
        let mut rng = netsim::DetRng::new(opts.seed, 0xF10E ^ (load * 1000.0) as u64);
        let specs = all_to_all(&params, load, duration, &dist, &mut rng);
        let spec = RunSpec::new(params, &scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let s = samples(&out.flows, window.start, window.end);
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        Cell {
            label: scheme.name().to_string(),
            load,
            mean_s: stats::mean(&fcts).unwrap_or(0.0),
            p99_s: stats::percentile(&fcts, 0.99).unwrap_or(0.0),
            ooo_frac: out.get(Counter::OooPktsRcvd) as f64
                / out.get(Counter::DataPktsRcvd).max(1) as f64,
        }
    })
}

/// Produce the report (all-to-all table plus a microbenchmark shootout).
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(opts);
    let find = |load: f64, label: &str| {
        cells
            .iter()
            .find(|c| c.load == load && c.label == label)
            .unwrap_or_else(|| panic!("missing {label} at {load}"))
    };
    let mut table = Table::new(vec![
        "load",
        "scheme",
        "mean vs ECMP",
        "p99 vs ECMP",
        "ooo %",
    ]);
    for &load in &[0.4f64, 0.6] {
        let ecmp = find(load, "ECMP");
        for spec in contenders() {
            let label = spec.name().to_string();
            let c = find(load, &label);
            table.row(vec![
                format!("{:.0}%", load * 100.0),
                label.clone(),
                fmt_ratio(c.mean_s / ecmp.mean_s),
                fmt_ratio(c.p99_s / ecmp.p99_s),
                format!("{:.3}%", c.ooo_frac * 100.0),
            ]);
        }
    }

    // Microbenchmark shootout: 16 x scaled flows, one number per scheme.
    let bytes = (10_000_000.0 * opts.scale) as u64;
    let micro = parallel_map(contenders(), |scheme| {
        let params = FatTreeParams::paper();
        let specs = microbench(&params, 16, bytes);
        let spec = RunSpec::new(params, &scheme, &specs, SimTime::from_secs(120), opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let fcts: Vec<f64> = out
            .flows
            .iter()
            .filter_map(|f| f.fct())
            .map(|t| t.as_secs_f64())
            .collect();
        (
            scheme.name().to_string(),
            stats::mean(&fcts).unwrap_or(0.0),
            fcts.iter().cloned().fold(0.0, f64::max),
        )
    });
    let mut mtable = Table::new(vec!["scheme", "mean FCT", "max FCT"]);
    for (label, mean, max) in &micro {
        mtable.row(vec![label.clone(), fmt_secs(*mean), fmt_secs(*max)]);
    }

    let mut r = Report::new("flowlet");
    r.section(
        "Extension: FlowBender vs flowlet switching, all-to-all",
        table,
    );
    r.section(
        format!(
            "Extension: 16 x {} MB ToR-to-ToR microbenchmark",
            bytes / 1_000_000
        ),
        mtable,
    );
    r.note("small gaps (~RTT/2) rival FlowBender with even less reordering; large gaps degrade to ECMP — DCTCP's ack-clocked windows leave just enough idle gaps for flowlets to move");
    r.note("FlowBender's edge is *directed* rerouting: it moves because of congestion (and on RTOs around failures), not by idle-gap luck — see link-failure, hotspot and asym");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowlet_scheme_runs_and_reorders_moderately() {
        let opts = Opts {
            scale: 0.2,
            seed: 6,
            ..Opts::default()
        };
        let params = FatTreeParams::paper();
        let duration = opts.scaled(SimTime::from_ms(60));
        let window = Window::for_duration(duration, SimTime::from_ms(400));
        let mut rng = netsim::DetRng::new(opts.seed, 1);
        let specs = all_to_all(
            &params,
            0.4,
            duration,
            &FlowSizeDist::web_search(),
            &mut rng,
        );
        let scheme = schemes::flowlet(SimTime::from_us(100));
        let spec = RunSpec::new(params, &scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let done = out.flows.iter().filter(|f| f.fct().is_some()).count();
        assert_eq!(
            done,
            out.flows.len(),
            "all flows must complete under flowlets"
        );
        let ooo =
            out.get(Counter::OooPktsRcvd) as f64 / out.get(Counter::DataPktsRcvd).max(1) as f64;
        // Flowlets reorder less than per-packet spraying (>10%) but are
        // not reorder-free.
        assert!(ooo < 0.10, "flowlet ooo unexpectedly high: {ooo}");
    }
}
