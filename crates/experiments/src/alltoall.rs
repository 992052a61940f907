//! Figures 3 & 4 — all-to-all workload: mean and 99th-percentile flow
//! latency of DeTail / FlowBender / RPS normalized to ECMP, at 20/40/60 %
//! load, binned by flow size; plus the §4.2.3 out-of-order statistics that
//! come from the same runs.
//!
//! Paper's result: all three schemes substantially beat ECMP (up to 73 %
//! mean / 93 % tail reduction at high load for the larger bins) and land
//! within a few percent of each other; FlowBender's out-of-order rate is
//! ≈ ECMP's (+0.006 %) while DeTail reorders almost as much as RPS.
//!
//! Tables are built from the scheme names actually swept (any registry
//! selection works, parameterized names included), with ECMP as the
//! normalization baseline when present and the first swept scheme
//! otherwise.

use netsim::{Counter, SimTime};
use stats::{completion_fraction, fmt_ratio, samples, BinSpec, BinStats, FctAccumulator, Table};
use topology::FatTreeParams;

use crate::report::{Opts, Report};
use crate::scenario::{self, sweep_schemes, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// The paper's evaluated loads (fraction of bisection bandwidth).
pub const LOADS: [f64; 3] = [0.2, 0.4, 0.6];

/// Result of one (scheme, load) all-to-all run.
#[derive(Debug)]
pub struct A2AResult {
    /// Load as a fraction.
    pub load: f64,
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Per-size-bin latency stats (paper bins).
    pub bins: Vec<BinStats>,
    /// Overall mean FCT (seconds).
    pub mean_s: f64,
    /// Overall p99 FCT (seconds).
    pub p99_s: f64,
    /// Out-of-order arrival fraction (ooo packets / data packets).
    pub ooo_frac: f64,
    /// Fraction of in-window flows that completed.
    pub completion: f64,
    /// FlowBender reroutes (0 for other schemes).
    pub reroutes: u64,
    /// Raw in-window FCT samples (seconds), for CDF export.
    pub fcts: Vec<f64>,
}

/// Run the all-to-all sweep over `schemes` × `loads`. All schemes see the
/// *same* flow arrivals at a given load (same generator seed), so
/// normalization compares like with like.
///
/// Traffic comes from the workload registry: the historical web-search
/// all-to-all by default, or whatever `--workload` selected — the RNG
/// stream is unchanged, so the default reproduces the pre-registry flow
/// lists byte for byte. Binned statistics go through the streaming
/// [`FctAccumulator`] (the same path `trace_scale` uses at millions of
/// flows), with counts and means exact and tail percentiles within its
/// 0.5 % sketch guarantee.
pub fn sweep(opts: &Opts, schemes: &[SchemeSpec], loads: &[f64]) -> Vec<A2AResult> {
    opts.validate();
    let params = FatTreeParams::paper();
    let duration = opts.scaled(SimTime::from_ms(100));
    let window = Window::for_duration(duration, SimTime::from_ms(400));
    let workload = opts.workload_or("websearch");

    sweep_schemes(schemes, loads, 1, |scheme, &load| {
        let mut rng = netsim::DetRng::new(opts.seed, 0xA2A ^ (load * 1000.0) as u64);
        let specs = workload.generate(&params, load, duration, &mut rng);
        let spec = RunSpec::new(params, scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        // First-finisher-wins view: identical to `out.flows` for every
        // non-replicating scheme.
        let flows = out.effective_flows();
        let s = samples(&flows, window.start, window.end);
        let fcts: Vec<f64> = s.iter().map(|x| x.fct_s).collect();
        let mut acc = FctAccumulator::new(BinSpec::paper());
        for x in &s {
            acc.record_sample(x);
        }
        let data = out.get(Counter::DataPktsRcvd).max(1);
        A2AResult {
            load,
            scheme: scheme.name().to_string(),
            bins: acc.binned(),
            mean_s: acc.overall().mean().unwrap_or(0.0),
            p99_s: acc.overall().quantile(0.99).unwrap_or(0.0),
            ooo_frac: out.get(Counter::OooPktsRcvd) as f64 / data as f64,
            completion: completion_fraction(&flows, window.start, window.end),
            reroutes: out.get(Counter::Reroutes) + out.get(Counter::TimeoutReroutes),
            fcts,
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

fn find<'a>(results: &'a [A2AResult], load: f64, scheme: &str) -> &'a A2AResult {
    results
        .iter()
        .find(|r| r.load == load && r.scheme == scheme)
        .unwrap_or_else(|| panic!("missing result for {scheme} at {load}"))
}

/// The distinct scheme names present, in first-appearance order.
fn scheme_names(results: &[A2AResult]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in results {
        if !names.contains(&r.scheme) {
            names.push(r.scheme.clone());
        }
    }
    names
}

/// The scheme everything is normalized to: ECMP when swept, otherwise the
/// first scheme in the sweep.
fn baseline_name(results: &[A2AResult]) -> String {
    let names = scheme_names(results);
    names
        .iter()
        .find(|n| n.as_str() == "ECMP")
        .unwrap_or(&names[0])
        .clone()
}

/// Build the Figure 3 (mean) or Figure 4 (p99) normalized-latency table,
/// one column per swept non-baseline scheme.
fn normalized_table(results: &[A2AResult], loads: &[f64], tail: bool) -> Table {
    let base_name = baseline_name(results);
    let others: Vec<String> = scheme_names(results)
        .into_iter()
        .filter(|n| *n != base_name)
        .collect();
    let mut header = vec!["load".to_string(), "flow size".to_string()];
    header.extend(others.iter().cloned());
    header.push(format!("{base_name} abs"));
    let mut table = Table::new(header);
    for &load in loads {
        let base = find(results, load, &base_name);
        for (bi, bin) in BinSpec::paper().bins().iter().enumerate() {
            // Empty bins carry `None` — render "-" so a binless config
            // can't masquerade as a perfect (0 s) tail.
            let abs = if tail {
                base.bins[bi].p99_s
            } else {
                base.bins[bi].mean_s
            };
            let mut row = vec![format!("{:.0}%", load * 100.0), bin.label.to_string()];
            for name in &others {
                let r = find(results, load, name);
                let v = if tail {
                    r.bins[bi].p99_s
                } else {
                    r.bins[bi].mean_s
                };
                row.push(match (v, abs) {
                    (Some(v), Some(abs)) if abs > 0.0 => fmt_ratio(v / abs),
                    _ => "-".to_string(),
                });
            }
            row.push(match abs {
                Some(abs) => stats::fmt_secs(abs),
                None => "-".to_string(),
            });
            table.row(row);
        }
    }
    table
}

/// Figure 3: mean latency normalized to ECMP.
pub fn fig3_report(results: &[A2AResult], loads: &[f64]) -> Report {
    let mut r = Report::new("fig3");
    r.section(
        format!(
            "Fig 3: all-to-all MEAN latency, normalized to {} (lower is better)",
            baseline_name(results)
        ),
        normalized_table(results, loads, false),
    );
    // Full FCT CDFs per (load, scheme), CSV-only, for plotting.
    let mut cdf = Table::new(vec!["load", "scheme", "fct_s", "p"]);
    for res in results {
        for (v, p) in stats::cdf_points(&res.fcts, 200) {
            cdf.row(vec![
                format!("{:.0}", res.load * 100.0),
                res.scheme.clone(),
                format!("{v:.9}"),
                format!("{p:.4}"),
            ]);
        }
    }
    r.data_section("fct_cdf", cdf);
    completion_note(&mut r, results);
    r.note(
        "paper: DeTail/FlowBender/RPS all well below 1.0 for >=10KB bins, within ~2% of each other",
    );
    r
}

/// Figure 4: 99th-percentile latency normalized to ECMP.
pub fn fig4_report(results: &[A2AResult], loads: &[f64]) -> Report {
    let mut r = Report::new("fig4");
    r.section(
        format!(
            "Fig 4: all-to-all 99th-PERCENTILE latency, normalized to {} (lower is better)",
            baseline_name(results)
        ),
        normalized_table(results, loads, true),
    );
    completion_note(&mut r, results);
    r.note("paper: tail reductions up to 93% vs ECMP at the larger bins/loads");
    r
}

/// §4.2.3: out-of-order delivery statistics.
pub fn ooo_report(results: &[A2AResult], loads: &[f64]) -> Report {
    let mut table = Table::new(vec!["load", "scheme", "ooo fraction", "reroutes"]);
    for &load in loads {
        for name in scheme_names(results) {
            let r = find(results, load, &name);
            table.row(vec![
                format!("{:.0}%", load * 100.0),
                name.clone(),
                format!("{:.5}%", r.ooo_frac * 100.0),
                r.reroutes.to_string(),
            ]);
        }
    }
    let mut rep = Report::new("ooo");
    rep.section("§4.2.3: out-of-order packet arrivals", table);
    // The paper's two headline OOO claims, computed at the middle load
    // (only meaningful when the paper's schemes were swept).
    let have = |name: &str| results.iter().any(|r| r.load == 0.4 && r.scheme == name);
    if loads.contains(&0.4) {
        if have("ECMP") && have("FlowBender") {
            let e = find(results, 0.4, "ECMP");
            let f = find(results, 0.4, "FlowBender");
            rep.note(format!(
                "FlowBender - ECMP ooo delta at 40% load: {:+.4}% (paper: ~+0.006%)",
                (f.ooo_frac - e.ooo_frac) * 100.0
            ));
        }
        if have("DeTail") && have("RPS") {
            let d = find(results, 0.4, "DeTail");
            let p = find(results, 0.4, "RPS");
            if p.ooo_frac > 0.0 {
                rep.note(format!(
                    "DeTail / RPS ooo ratio at 40% load: {:.1}% (paper: >97.9%)",
                    d.ooo_frac / p.ooo_frac * 100.0
                ));
            }
        }
    }
    rep
}

fn completion_note(r: &mut Report, results: &[A2AResult]) {
    let worst = results.iter().map(|x| x.completion).fold(1.0, f64::min);
    r.note(format!("worst in-window completion fraction: {:.4}", worst));
}

/// Run the sweep once and emit all three reports (fig3, fig4, ooo).
pub fn run_all(opts: &Opts) -> Vec<Report> {
    let selection = opts.scheme_selection(&schemes::paper_set());
    let results = sweep(opts, &selection, &LOADS);
    let mut reports = vec![
        fig3_report(&results, &LOADS),
        fig4_report(&results, &LOADS),
        ooo_report(&results, &LOADS),
    ];
    // A non-default workload changes what the tables mean — say so.
    if opts.workload.is_some() {
        let wl = opts.workload_or("websearch").name();
        for r in &mut reports {
            r.note(format!("traffic workload: {wl} (selected with --workload)"));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, small sweep: one load, ECMP + FlowBender only.
    #[test]
    fn small_sweep_produces_consistent_results() {
        let opts = Opts {
            scale: 0.2,
            seed: 5,
            ..Opts::default()
        };
        let sel = vec![
            schemes::ecmp(),
            schemes::flowbender(flowbender::Config::default()),
        ];
        let results = sweep(&opts, &sel, &[0.4]);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(
                r.completion > 0.95,
                "{}: completion {}",
                r.scheme,
                r.completion
            );
            assert!(r.mean_s > 0.0);
            assert!(r.p99_s >= r.mean_s);
        }
        let ecmp = find(&results, 0.4, "ECMP");
        let fb = find(&results, 0.4, "FlowBender");
        assert_eq!(ecmp.reroutes, 0);
        assert!(fb.reroutes > 0, "FlowBender should reroute under 40% load");
        // FlowBender should not be slower overall.
        assert!(
            fb.mean_s <= ecmp.mean_s * 1.05,
            "fb {} vs ecmp {}",
            fb.mean_s,
            ecmp.mean_s
        );
    }

    #[test]
    fn report_tables_have_all_rows() {
        let opts = Opts {
            scale: 0.05,
            seed: 5,
            ..Opts::default()
        };
        let results = sweep(&opts, &schemes::paper_set(), &[0.2]);
        let fig3 = fig3_report(&results, &[0.2]);
        assert_eq!(fig3.sections[0].1.len(), 4); // 1 load x 4 bins
        assert!(fig3.sections[0].0.contains("normalized to ECMP"));
        let ooo = ooo_report(&results, &[0.2]);
        assert_eq!(ooo.sections[0].1.len(), 4); // 4 schemes
    }

    #[test]
    fn tables_adapt_to_the_swept_schemes() {
        let opts = Opts {
            scale: 0.05,
            seed: 5,
            ..Opts::default()
        };
        // No ECMP in the selection: the first scheme becomes the baseline
        // and the column set follows the sweep.
        let sel = vec![
            schemes::flowbender(flowbender::Config::default()),
            schemes::flowbender(flowbender::Config::default().with_n(2)),
        ];
        let results = sweep(&opts, &sel, &[0.2]);
        let fig3 = fig3_report(&results, &[0.2]);
        assert!(fig3.sections[0].0.contains("normalized to FlowBender"));
        let header = fig3.sections[0].1.headers();
        assert!(header.contains(&"FlowBender(N=2)".to_string()));
        assert!(header.contains(&"FlowBender abs".to_string()));
    }
}
