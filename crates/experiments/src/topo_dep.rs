//! §4.3.3 — topological dependencies: does FlowBender's improvement
//! survive when path diversity quadruples?
//!
//! The paper's argument: ECMP's per-path long-flow count is binomial with
//! mean `R = L/P` and variance `R(1 - 1/P)`; scaling the fabric up scales
//! `L` with `P`, so the imbalance (and hence FlowBender's win) is nearly
//! unchanged — they re-ran all-to-all on a wider fabric and saw "almost
//! the same" improvement. We run the 40 % all-to-all on the paper fabric
//! (8 inter-pod paths) and on the doubled-port-density variant (32 paths)
//! and compare FlowBender/ECMP mean-latency ratios.

use netsim::SimTime;
use stats::{fmt_secs, samples, Table};
use topology::FatTreeParams;
use workloads::{all_to_all, FlowSizeDist};

use crate::report::{Opts, Report};
use crate::scenario::{self, parallel_map, RunSpec, Window};
use crate::schemes;

/// Mean FCT of one (fabric, scheme) run.
#[derive(Debug)]
pub struct Cell {
    /// Fabric label.
    pub fabric: &'static str,
    /// Inter-pod path diversity of the fabric.
    pub paths: usize,
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Mean FCT (s).
    pub mean_s: f64,
}

/// Run both fabrics × {ECMP, FlowBender}.
pub fn sweep(opts: &Opts) -> Vec<Cell> {
    opts.validate();
    let fabrics: [(&'static str, FatTreeParams); 2] = [
        ("paper (P=8)", FatTreeParams::paper()),
        ("wide (P=32)", FatTreeParams::paper_wide()),
    ];
    let duration = opts.scaled(SimTime::from_ms(25));
    let window = Window::for_duration(duration, SimTime::from_ms(400));
    let dist = FlowSizeDist::web_search();

    let mut jobs = Vec::new();
    for (label, params) in fabrics {
        for scheme in [
            schemes::ecmp(),
            schemes::flowbender(flowbender::Config::default()),
        ] {
            jobs.push((label, params, scheme));
        }
    }
    parallel_map(jobs, |(label, params, scheme)| {
        let mut rng = netsim::DetRng::new(opts.seed, 0x70D ^ params.n_hosts() as u64);
        let specs = all_to_all(&params, 0.4, duration, &dist, &mut rng);
        let spec = RunSpec::new(params, &scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let s = samples(&out.flows, window.start, window.end);
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        Cell {
            fabric: label,
            paths: params.inter_pod_paths(),
            scheme: scheme.name().to_string(),
            mean_s: stats::mean(&fcts).unwrap_or(0.0),
        }
    })
}

/// Produce the report.
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(opts);
    let find = |fabric: &str, scheme: &str| {
        cells
            .iter()
            .find(|c| c.fabric == fabric && c.scheme == scheme)
            .unwrap_or_else(|| panic!("missing {scheme} on {fabric}"))
    };
    let mut table = Table::new(vec!["fabric", "paths", "ECMP mean", "FB mean", "FB/ECMP"]);
    let mut ratios = Vec::new();
    for fabric in ["paper (P=8)", "wide (P=32)"] {
        let e = find(fabric, "ECMP");
        let f = find(fabric, "FlowBender");
        let ratio = f.mean_s / e.mean_s;
        ratios.push(ratio);
        table.row(vec![
            fabric.to_string(),
            e.paths.to_string(),
            fmt_secs(e.mean_s),
            fmt_secs(f.mean_s),
            format!("{ratio:.3}"),
        ]);
    }
    let mut r = Report::new("topo_dep");
    r.section(
        "§4.3.3: FlowBender improvement vs path diversity (40% all-to-all)",
        table,
    );
    r.note(format!(
        "improvement ratio P=8 vs P=32: {:.3} vs {:.3} (paper: 'almost the same')",
        ratios[0], ratios[1]
    ));
    r.note("theory: per-path long-flow count is Binomial(mean R=L/P, var R(1-1/P)); going P=8->32 changes the variance by <11%");
    r
}

/// The binomial variance argument itself (§4.3.3), as code: relative
/// variance change of the per-path flow count when P grows at constant
/// R = L/P.
pub fn binomial_variance_ratio(p_small: f64, p_large: f64) -> f64 {
    (1.0 - 1.0 / p_large) / (1.0 - 1.0 / p_small)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_variance_claim_checks_out() {
        // "varying P from 8 to 32 would increase the variance by less than
        // 11% only"
        let ratio = binomial_variance_ratio(8.0, 32.0);
        assert!(ratio > 1.0 && ratio - 1.0 < 0.11, "ratio = {ratio}");
    }
}
