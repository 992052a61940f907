//! One repetition of a workload: generate → build → install → simulate →
//! analyze → report, each phase a span, every call into the program's
//! public API. The traced variant wraps the agent and controller seams in
//! timing decorators and simulates in fixed simulated-time slices.

use std::sync::Arc;
use std::time::{Duration, Instant};

use experiments::{run_fat_tree_sharded, Opts, RunOutput, RunSummary, SchemeSpec, ShardStats};
use netsim::{register_flows, Counter, DetHashMap, FlowSpec, HostId, SimTime, Simulator};
use transport::{install_agents, HostAgent, TcpConfig};

use crate::seams::{timed_path, SeamTotals, Tally, TimedAgent};
use crate::workload::{Inputs, Workload};

/// One recorded span: a named interval with its parent and counts.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Spans of one repetition, kept in memory.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.list.push(Span {
            name,
            parent,
            start: now,
            end: now,
            counts: Vec::new(),
        });
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        self.list[id].end = self.origin.elapsed();
        self.list[id].secs()
    }

    /// Run `f` as a span named `name` under `parent`; returns its result
    /// and duration in seconds.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// The summed duration of `parent`'s direct children.
    pub fn child_secs(&self, parent: usize) -> f64 {
        self.list
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .sum()
    }
}

/// Host seconds per phase of one repetition (0 where a phase happens
/// inside another: the sharded runner builds and installs inside its
/// simulate call).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub generate: f64,
    pub build: f64,
    pub install: f64,
    pub simulate: f64,
    pub analyze: f64,
    pub report: f64,
}

impl Phases {
    /// Everything before the engine's run call.
    pub fn setup(&self) -> f64 {
        self.generate + self.build + self.install
    }

    pub fn wall(&self) -> f64 {
        self.setup() + self.simulate + self.analyze + self.report
    }
}

/// What the seam decorators measured in a traced repetition.
#[derive(Debug, Clone, Copy)]
pub struct SeamTallies {
    /// Host-agent callbacks (`None` where the seam is unreachable).
    pub agent: Option<Tally>,
    pub core: Tally,
}

/// Everything one repetition produced.
#[derive(Debug)]
pub struct Rep {
    pub phases: Phases,
    pub spans: Spans,
    /// The `run` span's id in `spans`.
    pub run_span: usize,
    pub flows: usize,
    /// Flows not complete at the drain deadline.
    pub incomplete: usize,
    /// In-window flow completion times, seconds, ascending.
    pub fcts: Vec<f64>,
    pub events: u64,
    pub counters: Vec<u64>,
    /// Classic engine only: slab high-water mark and node count.
    pub packets_peak: Option<usize>,
    pub nodes: Option<usize>,
    pub shard: Option<ShardStats>,
    pub seams: Option<SeamTallies>,
    /// Hash of the simulated outputs: events, counters, per-flow end
    /// times, in-window FCTs.
    pub digest: u64,
}

impl Rep {
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

/// The scheme every workload runs: FlowBender with its default config.
pub fn scheme() -> SchemeSpec {
    experiments::schemes::flowbender(flowbender::Config::default())
}

/// Run one repetition of `wl` at `seed` on `shards` engine shards.
/// `traced` adds the seam decorators and the sliced simulate loop.
/// Errors are failed correctness checks.
pub fn run(wl: &Workload, seed: u64, shards: usize, traced: bool) -> Result<Rep, String> {
    let mut spans = Spans::new();
    let run_span = spans.open("run", None);
    let mut ph = Phases::default();
    let base = scheme();
    let core = SeamTotals::new();
    let agent = SeamTotals::new();

    let (inputs, t) = spans.time("generate", run_span, || wl.inputs(seed));
    ph.generate = t;
    let Inputs {
        params,
        specs,
        window,
    } = inputs?;

    let out = if shards == 1 {
        let (mut sim, t) = spans.time("build", run_span, || {
            let mut sim = Simulator::new(seed);
            topology::build_fat_tree(&mut sim, params, base.switch_config());
            sim
        });
        ph.build = t;
        let (_, t) = spans.time("install", run_span, || {
            if traced {
                let mut tcp = base.tcp_config();
                tcp.path = timed_path(&tcp.path, &core);
                install_timed(&mut sim, &specs, &tcp, &agent);
            } else {
                install_agents(&mut sim, &specs, &base.tcp_config());
            }
        });
        ph.install = t;
        let sim_span = spans.open("simulate", Some(run_span));
        if traced {
            run_sliced(
                &mut sim,
                &mut spans,
                sim_span,
                window.drain_until,
                &agent,
                &core,
            );
        } else {
            sim.run_until(window.drain_until);
        }
        let packets_peak = sim.packets_peak();
        let nodes = sim.node_count();
        let out = finish(sim);
        ph.simulate = spans.close(sim_span);
        (out, Some(packets_peak), Some(nodes))
    } else {
        let scheme = if traced {
            let mut tcp = base.tcp_config();
            tcp.path = timed_path(&tcp.path, &core);
            SchemeSpec::new(base.name(), base.switch_config(), tcp)
        } else {
            base.clone()
        };
        let (out, t) = spans.time("simulate", run_span, || {
            run_fat_tree_sharded(params, &scheme, &specs, window.drain_until, seed, shards)
        });
        ph.simulate = t;
        (out.map_err(|e| format!("sharded run: {e}"))?, None, None)
    };
    let (out, packets_peak, nodes) = out;
    if !out.conservation.holds() {
        return Err(format!(
            "packet conservation violated: {}",
            out.conservation
        ));
    }

    let (fcts, t) = spans.time("analyze", run_span, || analyze(&out, &window));
    ph.analyze = t;

    let (json_len, t) = spans.time("report", run_span, || {
        let opts = Opts {
            seed,
            shards,
            ..Opts::default()
        };
        let label = format!("{}_seed{seed}", wl.name);
        let summary = RunSummary::from_run(label, base.name(), &opts, seed, &out);
        summary.to_json("perfbench").to_string().len()
    });
    ph.report = t;
    std::hint::black_box(json_len);
    spans.close(run_span);

    let counters: Vec<u64> = Counter::all().iter().map(|&c| out.get(c)).collect();
    let incomplete = out.flows.iter().filter(|f| f.fct().is_none()).count();
    let digest = digest(out.events, &counters, &out, &fcts);
    Ok(Rep {
        phases: ph,
        spans,
        run_span,
        flows: specs.len(),
        incomplete,
        fcts,
        events: out.events,
        counters,
        packets_peak,
        nodes,
        shard: out.shard_stats,
        seams: traced.then(|| SeamTallies {
            agent: (shards == 1).then(|| agent.tally()),
            core: core.tally(),
        }),
        digest,
    })
}

/// `transport::install_agents`, with every host agent timed.
fn install_timed(
    sim: &mut Simulator,
    specs: &[FlowSpec],
    tcp: &TcpConfig,
    totals: &Arc<SeamTotals>,
) {
    register_flows(sim.recorder_mut(), specs);
    let mut outgoing: DetHashMap<HostId, Vec<FlowSpec>> = DetHashMap::default();
    let mut incoming: DetHashMap<HostId, Vec<FlowSpec>> = DetHashMap::default();
    for s in specs {
        outgoing.entry(s.src).or_default().push(s.clone());
        incoming.entry(s.dst).or_default().push(s.clone());
    }
    for h in sim.hosts().to_vec() {
        let agent = HostAgent::new(
            tcp.clone(),
            outgoing.remove(&h).unwrap_or_default(),
            incoming.get(&h).map_or(&[][..], |v| &v[..]),
        );
        sim.set_agent(h, Box::new(TimedAgent::new(agent, Arc::clone(totals))));
    }
}

/// Simulated time per slice of a traced repetition.
const SLICE: SimTime = SimTime::from_ms(1);

/// Simulate to `until` in slices of [`SLICE`], one span per slice carrying
/// the events and seam calls/time that fell in it.
fn run_sliced(
    sim: &mut Simulator,
    spans: &mut Spans,
    parent: usize,
    until: SimTime,
    agent: &SeamTotals,
    core: &SeamTotals,
) {
    let mut t = SimTime::ZERO;
    while t < until {
        t = SimTime::from_ps(t.as_ps().saturating_add(SLICE.as_ps()).min(until.as_ps()));
        let (ev0, a0, c0) = (sim.events_processed(), agent.tally(), core.tally());
        let id = spans.open("slice", Some(parent));
        sim.run_until(t);
        spans.close(id);
        let (a, c) = (agent.tally() - a0, core.tally() - c0);
        spans.list[id].counts = vec![
            ("sim_end_us", t.as_ps() / 1_000_000),
            ("events", sim.events_processed() - ev0),
            ("agent_calls", a.calls),
            ("agent_ns", a.ns),
            ("core_calls", c.calls),
            ("core_ns", c.ns),
        ];
    }
}

/// Hand a finished classic simulator's results out the way the
/// experiment runners do.
fn finish(sim: Simulator) -> RunOutput {
    let events = sim.events_processed();
    let conservation = sim.conservation();
    RunOutput {
        results: sim.into_results(),
        port_stats: Vec::new(),
        events,
        conservation,
        replicas: Vec::new(),
        shard_stats: None,
    }
}

/// The in-window flows' completion times in seconds, ascending.
fn analyze(out: &RunOutput, window: &experiments::Window) -> Vec<f64> {
    let samples = stats::samples(&out.flows, window.start, window.end);
    let mut fcts: Vec<f64> = samples.iter().map(|s| s.fct_s).collect();
    fcts.sort_by(f64::total_cmp);
    fcts
}

/// FNV-1a over the simulated outputs.
fn digest(events: u64, counters: &[u64], out: &RunOutput, fcts: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(events);
    counters.iter().for_each(|&c| eat(c));
    for f in out.flows.iter() {
        eat(f.flow as u64);
        eat(f.end.as_ps());
    }
    eat(fcts.len() as u64);
    fcts.iter().for_each(|x| eat(x.to_bits()));
    h
}
