//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of host time, repeating the
//! whole simulation, checks every repetition, and prints the metrics; the
//! last line of standard output is one JSON object. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use netsim::Counter;
use perfbench::metrics::{
    median, result_json, supported_quantile, Metrics, END_TO_END, PER_LAYER, TAIL_Q,
};
use perfbench::pipeline::{self, Rep};
use perfbench::workload::{self, sub_seed, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut wl, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                wl = Some(workload::find(&val).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{val}`; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: wl.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Every repetition's outcome against the correctness gate.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Digest of each sub-run's first repetition.
    first: Vec<Option<u64>>,
}

impl Gate {
    /// Run one repetition; a failed check or a panic counts as one failed
    /// operation, incomplete flows as failed flows.
    fn attempt(&mut self, wl: &Workload, seed: u64, shards: usize, traced: bool) -> Option<Rep> {
        let res = catch_unwind(AssertUnwindSafe(|| pipeline::run(wl, seed, shards, traced)))
            .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p.as_ref()))));
        let rep = match res {
            Ok(rep) => rep,
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(e);
                return None;
            }
        };
        self.attempted += rep.flows as u64;
        self.failed += rep.incomplete as u64;
        Some(rep)
    }

    /// Check that `rep` reproduced the outputs of sub-run `sub`'s first
    /// repetition (recording them if it is the first).
    fn same_outputs(&mut self, sub: u64, rep: &Rep, what: &str) {
        let first = *self.first[sub as usize].get_or_insert(rep.digest);
        if rep.digest != first {
            self.failed += 1;
            self.errors.push(format!(
                "sub-run {sub}: {what} digest {:016x} differs from the first run's {first:016x}",
                rep.digest
            ));
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        wl.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "meta seed={} available_parallelism={} shards={} git_commit={}",
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        wl.shards,
        git_commit()
    );
    let budget = Duration::from_secs(args.seconds);
    let mut gate = Gate {
        first: vec![None; wl.subruns as usize],
        ..Gate::default()
    };
    let metrics = if args.trace {
        traced_run(&wl, args.seed, budget, &mut gate)
    } else {
        untraced_run(&wl, args.seed, budget, &mut gate)
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    assert!(
        metrics.as_ref().is_none_or(|m| m.matches(declared)),
        "printed metrics differ from the declared list"
    );
    if metrics.is_none() && gate.errors.is_empty() {
        gate.errors.push("no metrics measured".into());
    }
    let ok = gate.errors.is_empty();
    for e in &gate.errors {
        println!("FAILED {e}");
    }
    let metrics = metrics.filter(|_| ok).unwrap_or_default();
    for m in &metrics.0 {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(ok, gate.attempted.max(1), gate.failed, &metrics)
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every sub-run once, then repeat sub-runs in turn while `budget`
/// lasts, at least once. Host-time metrics are medians over all
/// repetitions; FCT metrics pool the sub-runs' in-window flows.
fn untraced_run(wl: &Workload, seed: u64, budget: Duration, gate: &mut Gate) -> Option<Metrics> {
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut pooled: Vec<f64> = Vec::new();
    let (mut flows, mut incomplete) = (0, 0);
    for i in 0.. {
        let sub = i % wl.subruns;
        let t = Instant::now();
        let rep = gate.attempt(wl, sub_seed(seed, sub), wl.shards, false)?;
        print_rep(&format!("sub-run {sub}"), &rep);
        if i < wl.subruns {
            gate.first[sub as usize] = Some(rep.digest);
            pooled.extend_from_slice(&rep.fcts);
            flows += rep.flows;
            incomplete += rep.incomplete;
        } else {
            gate.same_outputs(sub, &rep, "repeated");
        }
        reps.push(rep);
        if i >= wl.subruns && t0.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    pooled.sort_by(f64::total_cmp);
    println!(
        "meta events={} flows={flows} in_window_flows={} subruns={} repetitions={}",
        reps.iter()
            .take(wl.subruns as usize)
            .map(|r| r.events)
            .sum::<u64>(),
        pooled.len(),
        wl.subruns,
        reps.len()
    );
    println!(
        "info flow_fail_frac={} ({incomplete} of {flows} flows incomplete at the drain deadline)",
        incomplete as f64 / flows as f64
    );
    let mut quantile = |q| match supported_quantile(&pooled, q) {
        Ok(v) => Some(v * 1e3),
        Err(e) => {
            gate.errors.push(e);
            None
        }
    };
    let (p50, p99) = (quantile(0.5), quantile(TAIL_Q));
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.put("setup_s", med(&|r| r.phases.setup()), "s");
    m.put("wall_s", med(&|r| r.phases.wall()), "s");
    m.put("simulate_s", med(&|r| r.phases.simulate), "s");
    m.put(
        "events_per_s",
        med(&|r| r.events as f64 / r.phases.simulate),
        "1/s",
    );
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    m.put("fct_p50_ms", p50?, "ms");
    m.put("fct_p99_ms", p99?, "ms");
    m.put("fct_mean_ms", stats::mean(&pooled)? * 1e3, "ms");
    Some(m)
}

/// Alternate untraced and traced repetitions of the sub-runs in turn
/// while `budget` lasts, at least one pair.
fn traced_run(wl: &Workload, seed: u64, budget: Duration, gate: &mut Gate) -> Option<Metrics> {
    let t0 = Instant::now();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // The known divergence across shard counts: the same flows at one
    // shard, summed |event difference| over the traced sub-runs. Shown,
    // never gated on.
    let mut shard_event_delta = 0.0;
    for i in 0.. {
        let sub = i % wl.subruns;
        let seed = sub_seed(seed, sub);
        let t = Instant::now();
        let p = gate.attempt(wl, seed, wl.shards, false)?;
        gate.same_outputs(sub, &p, "untraced");
        let tr = gate.attempt(wl, seed, wl.shards, true)?;
        gate.same_outputs(sub, &tr, "traced");
        print_rep(&format!("sub-run {sub} untraced"), &p);
        print_rep(&format!("sub-run {sub} traced"), &tr);
        if wl.shards > 1 {
            let one = gate.attempt(wl, seed, 1, false)?;
            print_rep(&format!("sub-run {sub} at 1 shard"), &one);
            shard_event_delta += (tr.events as f64 - one.events as f64).abs();
        }
        plain.push(p);
        traced.push(tr);
        if t0.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    // Per-layer values describe one repetition: the traced one with the
    // median simulate time, so its counts and times belong together.
    let mut by_time: Vec<&Rep> = traced.iter().collect();
    by_time.sort_by(|a, b| a.phases.simulate.total_cmp(&b.phases.simulate));
    let r = by_time[(by_time.len() - 1) / 2];
    let untraced_simulate = median(&plain.iter().map(|r| r.phases.simulate).collect::<Vec<_>>());
    let traced_simulate = median(&traced.iter().map(|r| r.phases.simulate).collect::<Vec<_>>());
    let seams = r.seams.expect("traced repetitions carry seam tallies");
    let agent_reached = seams.agent.is_some();
    let agent = seams.agent.unwrap_or_default();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let per_call = |s: f64, n: u64| if n > 0 { s * 1e9 / n as f64 } else { 0.0 };
    let reached = |x: f64| if agent_reached { x } else { 0.0 };
    let count = |c: Counter| r.get(c) as f64;

    let netsim_self = reached(r.phases.simulate - secs(agent.ns));
    let transport_self = reached(secs(agent.ns) - secs(seams.core.ns));
    let core_self = secs(seams.core.ns);
    let data_pkts = count(Counter::DataPktsRcvd).max(1.0);
    let (rounds, handoffs) = r.shard.map_or((0, 0), |s| (s.rounds, s.handoffs));
    let run_secs = r.spans.list[r.run_span].secs();
    print_spans(r);

    if !agent_reached {
        println!(
            "info unreachable here (reported as 0): topology.build_s, topology.nodes, \
             netsim.self_s, netsim.ns_per_event, netsim.packets_peak, transport.install_s, \
             transport.calls, transport.self_s, transport.ns_per_call \
             (the sharded runner builds, installs and owns its agents)"
        );
    }
    println!(
        "info transport.self_s is agent time minus controller time and includes the \
         agent's Ctx calls back into the scheduler; netsim.self_s is simulate time minus agent time"
    );

    let mut m = Metrics::default();
    m.put("workloads.generate_s", r.phases.generate, "s");
    m.put("workloads.flows", r.flows as f64, "count");
    m.put("topology.build_s", r.phases.build, "s");
    m.put("topology.nodes", r.nodes.unwrap_or(0) as f64, "count");
    m.put("netsim.events", r.events as f64, "count");
    m.put(
        "netsim.events_per_pkt",
        r.events as f64 / data_pkts,
        "events/pkt",
    );
    m.put("netsim.self_s", netsim_self, "s");
    m.put("netsim.ns_per_event", per_call(netsim_self, r.events), "ns");
    m.put(
        "netsim.packets_peak",
        r.packets_peak.unwrap_or(0) as f64,
        "count",
    );
    let marked = count(Counter::MarkedAcksRcvd);
    m.put("netsim.marked_acks", marked, "count");
    m.put(
        "netsim.mark_frac",
        marked / count(Counter::AcksRcvd).max(1.0),
        "frac",
    );
    m.put("netsim.queue_drops", count(Counter::QueueDrops), "count");
    m.put("transport.install_s", r.phases.install, "s");
    m.put("transport.calls", agent.calls as f64, "count");
    m.put("transport.self_s", transport_self, "s");
    m.put(
        "transport.ns_per_call",
        per_call(transport_self, agent.calls),
        "ns",
    );
    let retx = count(Counter::Retransmits);
    m.put("transport.retransmits", retx, "count");
    m.put("transport.timeouts", count(Counter::Timeouts), "count");
    m.put(
        "transport.fast_retransmits",
        count(Counter::FastRetransmits),
        "count",
    );
    m.put("transport.dsacks", count(Counter::DsacksRcvd), "count");
    m.put("transport.ooo_pkts", count(Counter::OooPktsRcvd), "count");
    m.put("transport.dup_bytes", count(Counter::DupBytes), "bytes");
    m.put("transport.retx_frac", retx / data_pkts, "frac");
    m.put("core.calls", seams.core.calls as f64, "count");
    m.put("core.self_s", core_self, "s");
    m.put(
        "core.ns_per_call",
        per_call(core_self, seams.core.calls),
        "ns",
    );
    m.put("core.reroutes", count(Counter::Reroutes), "count");
    m.put(
        "core.timeout_reroutes",
        count(Counter::TimeoutReroutes),
        "count",
    );
    m.put("stats.analyze_s", r.phases.analyze, "s");
    m.put("stats.samples", r.fcts.len() as f64, "count");
    m.put("experiments.report_s", r.phases.report, "s");
    m.put("experiments.shard_rounds", rounds as f64, "count");
    m.put("experiments.shard_handoffs", handoffs as f64, "count");
    m.put(
        "experiments.us_per_round",
        per_call(r.phases.simulate, rounds) * 1e-3,
        "us",
    );
    m.put("experiments.shard_event_delta", shard_event_delta, "events");
    m.put(
        "bench.trace_overhead_frac",
        traced_simulate / untraced_simulate - 1.0,
        "frac",
    );
    m.put(
        "bench.span_coverage",
        r.spans.child_secs(r.run_span) / run_secs,
        "frac",
    );
    Some(m)
}

fn print_rep(what: &str, r: &Rep) {
    let p = &r.phases;
    println!(
        "{what}: generate {:.4}s build {:.4}s install {:.4}s simulate {:.4}s analyze {:.4}s \
         report {:.4}s | events {} flows {} incomplete {} digest {:016x}",
        p.generate,
        p.build,
        p.install,
        p.simulate,
        p.analyze,
        p.report,
        r.events,
        r.flows,
        r.incomplete,
        r.digest
    );
}

/// The traced repetition's span tree: phases, then the simulate slices
/// that did work.
fn print_spans(r: &Rep) {
    let run = r.spans.list[r.run_span].secs();
    println!("spans (run {run:.4}s):");
    for (id, s) in r.spans.list.iter().enumerate() {
        let depth = std::iter::successors(s.parent, |&p| r.spans.list[p].parent).count();
        if s.name == "slice" && s.counts.iter().any(|&(k, v)| k == "events" && v == 0) {
            continue;
        }
        let counts: Vec<String> = s.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  {:indent$}{} #{id} {:.6}s {:.1}% {}",
            "",
            s.name,
            s.secs(),
            100.0 * s.secs() / run,
            counts.join(" "),
            indent = 2 * depth
        );
    }
}

/// High-water resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let resolve = || -> Option<String> {
        let head = read("HEAD")?;
        let Some(r) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
    };
    resolve().unwrap_or_else(|| "unknown".into())
}
