//! Figure 5 — partition-aggregate workload: average job completion time
//! (the last flow of each incast job) normalized to ECMP, for fan-in
//! degrees 4–32 at 40 % load.
//!
//! Paper's result: FlowBender (like RPS and DeTail) completes jobs ~4×
//! faster than ECMP at fan-in 4, degrading to ~2× at fan-in 32 where the
//! receiver's last hop is the bottleneck and multipathing can't help.

use netsim::SimTime;
use stats::{fmt_ratio, fmt_secs, job_completion, Table};
use topology::FatTreeParams;
use workloads::Workload;

use crate::report::{Opts, Report};
use crate::scenario::{self, sweep_schemes, RunSpec, Window};
use crate::schemes::{self, SchemeSpec};

/// Fan-in degrees from the paper's Figure 5.
pub const FAN_INS: [u32; 4] = [4, 8, 16, 32];

/// One (scheme, fan-in) cell.
#[derive(Debug)]
pub struct Cell {
    /// Fan-in degree.
    pub fan_in: u32,
    /// Scheme display name (parameters included).
    pub scheme: String,
    /// Average job completion time (s).
    pub avg_jct_s: f64,
    /// 99th-percentile job completion time (s); `None` without jobs.
    pub p99_jct_s: Option<f64>,
    /// Jobs measured (all of whose flows completed).
    pub jobs: usize,
}

/// Run the sweep over `schemes` × [`FAN_INS`]. Traffic comes from the
/// workload registry's `incast:<fanin>` pattern (the same generator and
/// RNG stream the hard-coded `partition_aggregate` call always used, so
/// results are byte-compatible).
pub fn sweep(opts: &Opts, schemes: &[SchemeSpec]) -> Vec<Cell> {
    opts.validate();
    let params = FatTreeParams::paper();
    let duration = opts.scaled(SimTime::from_ms(60));
    let window = Window::for_duration(duration, SimTime::from_ms(400));

    sweep_schemes(schemes, &FAN_INS, 1, |scheme, &fan_in| {
        let mut rng = netsim::DetRng::new(opts.seed, 0xF165 ^ fan_in as u64);
        let specs = workloads::patterns::incast(fan_in).generate(&params, 0.4, duration, &mut rng);
        let spec = RunSpec::new(params, scheme, &specs, window.drain_until, opts.seed);
        let out = scenario::run(&spec).expect("single-shard spec");
        // Job completion uses all jobs whose flows all completed; trim
        // cool-down jobs by start time like the FCT window does.
        let in_window: Vec<_> = out
            .effective_flows()
            .iter()
            .filter(|f| f.start >= window.start && f.start < window.end)
            .cloned()
            .collect();
        let js = job_completion(&in_window);
        Cell {
            fan_in,
            scheme: scheme.name().to_string(),
            avg_jct_s: js.mean_s.unwrap_or(0.0),
            p99_jct_s: js.p99_s,
            jobs: js.jobs_complete,
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Produce the Figure 5 report.
pub fn run(opts: &Opts) -> Report {
    let selection = opts.scheme_selection(&schemes::paper_set());
    let cells = sweep(opts, &selection);
    let find = |fan_in: u32, name: &str| {
        cells
            .iter()
            .find(|c| c.fan_in == fan_in && c.scheme == name)
            .unwrap_or_else(|| panic!("missing {name} at fan-in {fan_in}"))
    };
    // ECMP is the baseline when swept, else the first selected scheme.
    let base_name = selection
        .iter()
        .map(|s| s.name().to_string())
        .find(|n| n == "ECMP")
        .unwrap_or_else(|| selection[0].name().to_string());
    let others: Vec<String> = selection
        .iter()
        .map(|s| s.name().to_string())
        .filter(|n| *n != base_name)
        .collect();
    // One normalized table per statistic: the paper's average, plus the
    // p99 tail the per-job FCT extension adds.
    let jct_table = |stat: &dyn Fn(&Cell) -> Option<f64>| {
        let mut header = vec!["fan-in".to_string()];
        header.extend(others.iter().cloned());
        header.push(format!("{base_name} abs"));
        header.push("jobs".to_string());
        let mut table = Table::new(header);
        for &n in &FAN_INS {
            let base = find(n, &base_name);
            let base_v = stat(base);
            let mut row = vec![n.to_string()];
            for name in &others {
                let c = find(n, name);
                row.push(match (stat(c), base_v) {
                    (Some(v), Some(b)) if b > 0.0 => fmt_ratio(v / b),
                    _ => "-".to_string(),
                });
            }
            row.push(match base_v {
                Some(b) => fmt_secs(b),
                None => "-".to_string(),
            });
            row.push(base.jobs.to_string());
            table.row(row);
        }
        table
    };
    let mut r = Report::new("fig5");
    r.section(
        format!(
            "Fig 5: partition-aggregate avg job completion time, normalized to {base_name} (lower is better)"
        ),
        jct_table(&|c| (c.avg_jct_s > 0.0).then_some(c.avg_jct_s)),
    );
    r.section(
        format!("Fig 5 (ext): p99 job completion time, normalized to {base_name}"),
        jct_table(&|c| c.p99_jct_s),
    );
    r.note("paper: FlowBender ~0.25x at fan-in 4, ~0.5x at fan-in 32; within ~2% of DeTail/RPS");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::parallel_map;

    #[test]
    fn small_sweep_beats_ecmp_at_low_fan_in() {
        let opts = Opts {
            scale: 0.25,
            seed: 3,
            ..Opts::default()
        };
        let sel = vec![
            schemes::ecmp(),
            schemes::flowbender(flowbender::Config::default()),
        ];
        let params = FatTreeParams::paper();
        let duration = opts.scaled(SimTime::from_ms(60));
        let window = Window::for_duration(duration, SimTime::from_ms(400));
        let cells = parallel_map(sel, |scheme| {
            let mut rng = netsim::DetRng::new(opts.seed, 0xF165 ^ 4);
            let specs = workloads::patterns::incast(4).generate(&params, 0.4, duration, &mut rng);
            let spec = RunSpec::new(params, &scheme, &specs, window.drain_until, opts.seed);
            let out = scenario::run(&spec).expect("single-shard spec");
            let in_window: Vec<_> = out
                .flows
                .iter()
                .filter(|f| f.start >= window.start && f.start < window.end)
                .cloned()
                .collect();
            let js = job_completion(&in_window);
            (
                scheme.name().to_string(),
                js.mean_s.unwrap_or(0.0),
                js.jobs_complete,
            )
        });
        let (_, ecmp_jct, ecmp_jobs) = cells[0].clone();
        let (_, fb_jct, fb_jobs) = cells[1].clone();
        assert!(ecmp_jobs > 10 && fb_jobs > 10, "too few jobs measured");
        assert!(fb_jct > 0.0 && ecmp_jct > 0.0);
        // In this substrate the incast bottleneck — the aggregator's own
        // downlink, which no load balancer can widen — dominates
        // partition-aggregate jobs (deep buffers + DCTCP keep the fabric
        // loss-free), so FlowBender's fabric-side gains are muted relative
        // to the paper; we assert non-inferiority within reroute-churn
        // noise. EXPERIMENTS.md discusses the deviation.
        assert!(fb_jct <= ecmp_jct * 1.15, "fb {fb_jct} vs ecmp {ecmp_jct}");
    }
}
