//! Ablation study — the §3.4/§5 design refinements, each evaluated on the
//! 40 % all-to-all workload against the paper-default FlowBender:
//!
//! * `N = 2` (reroute only after two consecutive congested RTTs, §3.4.1 —
//!   the paper reports "very similar performance"),
//! * randomized `N` (desynchronization, §3.4.2),
//! * EWMA-smoothed `F` (§3.4.1 footnote),
//! * reroute cooldown (§5.1 stability guard),
//! * `v_range = 2` (footnote 2: "even when we restricted each flow to 2
//!   options only, FlowBender was extremely effective"),
//! * timeout rerouting disabled (isolates the congestion-driven half).

use netsim::{Counter, SimTime};
use stats::{fmt_secs, samples, Table};
use topology::FatTreeParams;
use workloads::{all_to_all, FlowSizeDist};

use crate::report::{Opts, Report};
use crate::scenario::{self, parallel_map, RunSpec, Window};
use crate::schemes;

/// A named FlowBender variant.
pub struct Variant {
    /// Display name.
    pub name: &'static str,
    /// Its configuration.
    pub cfg: flowbender::Config,
}

/// The evaluated variants, paper default first.
pub fn variants() -> Vec<Variant> {
    let base = flowbender::Config::default();
    vec![
        Variant {
            name: "default (T=5%,N=1,V=8)",
            cfg: base,
        },
        Variant {
            name: "N=2",
            cfg: base.with_n(2),
        },
        Variant {
            name: "randomized N (N=2±1)",
            cfg: base.with_n(2).with_randomized_n(),
        },
        Variant {
            name: "EWMA F (gamma=0.25)",
            cfg: base.with_ewma(0.25),
        },
        Variant {
            name: "cooldown 3 RTTs",
            cfg: base.with_cooldown(3),
        },
        Variant {
            name: "V range 2",
            cfg: base.with_v_range(2),
        },
        Variant {
            name: "no timeout reroute",
            cfg: flowbender::Config {
                reroute_on_timeout: false,
                ..base
            },
        },
    ]
}

/// One variant's outcome.
#[derive(Debug)]
pub struct Cell {
    /// Variant name.
    pub name: &'static str,
    /// Mean FCT (s).
    pub mean_s: f64,
    /// p99 FCT (s).
    pub p99_s: f64,
    /// Total reroutes.
    pub reroutes: u64,
    /// Out-of-order fraction.
    pub ooo_frac: f64,
}

/// Run all variants on the same workload.
pub fn sweep(opts: &Opts) -> Vec<Cell> {
    opts.validate();
    let params = FatTreeParams::paper();
    let duration = opts.scaled(SimTime::from_ms(60));
    let window = Window::for_duration(duration, SimTime::from_ms(400));
    let dist = FlowSizeDist::web_search();

    parallel_map(variants(), |v| {
        let mut rng = netsim::DetRng::new(opts.seed, 0xAB1A);
        let specs = all_to_all(&params, 0.4, duration, &dist, &mut rng);
        let scheme = schemes::flowbender(v.cfg);
        let spec = RunSpec::new(params, &scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        let s = samples(&out.flows, window.start, window.end);
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        let data = out.get(Counter::DataPktsRcvd).max(1);
        Cell {
            name: v.name,
            mean_s: stats::mean(&fcts).unwrap_or(0.0),
            p99_s: stats::percentile(&fcts, 0.99).unwrap_or(0.0),
            reroutes: out.get(Counter::Reroutes) + out.get(Counter::TimeoutReroutes),
            ooo_frac: out.get(Counter::OooPktsRcvd) as f64 / data as f64,
        }
    })
}

/// Produce the ablation report.
pub fn run(opts: &Opts) -> Report {
    let cells = sweep(opts);
    let base = &cells[0];
    let mut table = Table::new(vec![
        "variant",
        "mean (norm.)",
        "p99 (norm.)",
        "reroutes",
        "ooo %",
        "mean abs",
    ]);
    for c in &cells {
        table.row(vec![
            c.name.to_string(),
            format!("{:.3}", c.mean_s / base.mean_s),
            format!("{:.3}", c.p99_s / base.p99_s),
            c.reroutes.to_string(),
            format!("{:.4}%", c.ooo_frac * 100.0),
            fmt_secs(c.mean_s),
        ]);
    }
    let mut r = Report::new("ablation");
    r.section(
        "Ablations: FlowBender variants on 40% all-to-all (normalized to default)",
        table,
    );
    r.note("paper: N=2 'very similar'; V range 2 still 'extremely effective'; refinements trade reroute count vs reaction time");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_list_covers_every_refinement_once() {
        let vs = variants();
        assert_eq!(vs.len(), 7);
        let names: std::collections::HashSet<_> = vs.iter().map(|v| v.name).collect();
        assert_eq!(names.len(), 7);
        for v in &vs {
            v.cfg.validate();
        }
        assert!(!vs[6].cfg.reroute_on_timeout);
        assert_eq!(vs[5].cfg.v_range, 2);
    }
}
