//! Metric values, the percentile rule, and the one-line JSON result.

use std::fmt::Write as _;

/// The quantile reported as the FCT tail.
pub const TAIL_Q: f64 = 0.99;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// `(name, unit)` of the metrics `--trace 0` prints, in order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("simulate_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fct_p50_ms", "ms"),
    ("fct_p99_ms", "ms"),
    ("fct_mean_ms", "ms"),
];

/// `(name, unit)` of the metrics `--trace 1` prints, in order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.flows", "count"),
    ("topology.build_s", "s"),
    ("topology.nodes", "count"),
    ("netsim.events", "count"),
    ("netsim.events_per_pkt", "events/pkt"),
    ("netsim.self_s", "s"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.packets_peak", "count"),
    ("netsim.marked_acks", "count"),
    ("netsim.mark_frac", "frac"),
    ("netsim.queue_drops", "count"),
    ("transport.install_s", "s"),
    ("transport.calls", "count"),
    ("transport.self_s", "s"),
    ("transport.ns_per_call", "ns"),
    ("transport.retransmits", "count"),
    ("transport.timeouts", "count"),
    ("transport.fast_retransmits", "count"),
    ("transport.dsacks", "count"),
    ("transport.ooo_pkts", "count"),
    ("transport.dup_bytes", "bytes"),
    ("transport.retx_frac", "frac"),
    ("core.calls", "count"),
    ("core.self_s", "s"),
    ("core.ns_per_call", "ns"),
    ("core.reroutes", "count"),
    ("core.timeout_reroutes", "count"),
    ("stats.analyze_s", "s"),
    ("stats.samples", "count"),
    ("experiments.report_s", "s"),
    ("experiments.shard_rounds", "count"),
    ("experiments.shard_handoffs", "count"),
    ("experiments.us_per_round", "us"),
    ("experiments.shard_event_delta", "events"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.span_coverage", "frac"),
];

/// Nearest-rank `q`-quantile of `sorted` (ascending), reported only when at
/// least [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn supported_quantile(sorted: &[f64], q: f64) -> Result<f64, String> {
    if sorted.is_empty() {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let v = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= v);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it; at least {MIN_BEYOND} needed",
            q * 100.0,
            sorted.len()
        ));
    }
    Ok(v)
}

/// Whether `name` is a valid metric name: a letter or digit, then at most
/// 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    /// Whether these are exactly the metrics `list` declares, in order.
    pub fn matches(&self, list: &[(&str, &str)]) -> bool {
        self.0.len() == list.len()
            && self
                .0
                .iter()
                .zip(list)
                .all(|(m, &(n, u))| m.name == n && m.unit == u)
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
/// Non-finite values cannot be written as JSON numbers; a caller that
/// has one must report the run as failed instead.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` on f64 prints the shortest string that round-trips.
        write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}
