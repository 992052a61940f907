//! Shared experiment machinery: the one runner, replication expansion,
//! and parallel sweeps.
//!
//! What to run is described by a [`RunSpec`]: a topology, a
//! [`crate::schemes::SchemeSpec`] (fabric + host sides of one design, see
//! the `schemes` module), a flow list, a window, and a seed, plus shards,
//! probes, and faults. [`run`] owns *how* to run it: building the
//! topology, expanding replicated flows, installing agents, sharding,
//! tracing, and auditing conservation; [`sweep_schemes`] fans runs out
//! over a bounded worker pool.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use netsim::{
    FaultPlan, FlowId, FlowSpec, Handoff, PortStats, Proto, RunResults, SimTime, Simulator,
    SloConfig, TelemetryConfig, TraceConfig,
};
use topology::{build_fat_tree, build_testbed, FatTree, FatTreeParams, ShardPlan, TestbedParams};
use transport::{install_agents, install_agents_on};

use crate::report::TraceSel;
use crate::schemes::SchemeSpec;

/// Everything a finished run hands back for analysis (thread-safe: no
/// simulator internals). Dereferences to [`RunResults`], so flow records,
/// counters, and telemetry series read directly (`out.flows`,
/// `out.get(c)`, `out.series()`).
#[derive(Debug)]
pub struct RunOutput {
    /// The read-side view of the run: flows, counters, telemetry series.
    pub results: RunResults,
    /// Snapshots of requested ports' statistics, in request order.
    pub port_stats: Vec<PortStats>,
    /// Events the simulator processed (for performance reporting).
    pub events: u64,
    /// The end-of-run packet-conservation ledger (already verified to
    /// balance — every runner asserts it before handing results out).
    pub conservation: netsim::Conservation,
    /// `(primary, replica)` flow-id pairs added by a replicating scheme
    /// (empty for everything but RepFlow-style specs). Replica flows
    /// appear in `flows` like any other; use [`RunOutput::effective_flows`]
    /// for the first-finisher-wins view.
    pub replicas: Vec<(FlowId, FlowId)>,
    /// Cross-shard accounting of a sharded run (`None` for `shards == 1`).
    pub shard_stats: Option<ShardStats>,
}

/// What the sharded engine did, summed over workers — exported/imported
/// are verified equal before results are handed out.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Worker (shard) count.
    pub shards: usize,
    /// Packets handed off across shard boundaries (sum over shards; equals
    /// the verified import count).
    pub handoffs: u64,
    /// Synchronization epochs the coordinator ran.
    pub rounds: u64,
    /// The conservative lookahead every epoch granted, in picoseconds.
    pub lookahead_ps: u64,
    /// Host time workers spent waiting at the epoch barrier, summed over
    /// workers, in seconds. Wall-clock, so it varies run to run: reports
    /// print it, JSON never carries it.
    pub wait_s: f64,
}

impl Deref for RunOutput {
    type Target = RunResults;
    fn deref(&self) -> &RunResults {
        &self.results
    }
}

impl RunOutput {
    fn from_sim(sim: Simulator, watch_ports: &[(netsim::NodeId, netsim::PortId)]) -> Self {
        // Every experiment run passes the conservation audit, in every
        // build profile (the simulator itself only debug-asserts it).
        sim.assert_conservation();
        let port_stats = watch_ports
            .iter()
            .map(|&(n, p)| sim.port_stats(n, p))
            .collect();
        let events = sim.events_processed();
        let conservation = sim.conservation();
        RunOutput {
            results: sim.into_results(),
            port_stats,
            events,
            conservation,
            replicas: Vec::new(),
            shard_stats: None,
        }
    }

    /// The flow records as the *application* experienced them: replicas
    /// are folded into their primary (a replicated flow completes when
    /// its first copy does) and dropped from the list. For
    /// non-replicating schemes this is simply a copy of `flows`.
    ///
    /// The merge is defensive: a pair whose copies *all* failed to
    /// complete (reachable under heavy-loss fault plans) leaves the
    /// primary in the list with `end == SimTime::MAX` — see
    /// [`RunOutput::incomplete_flows`] — and a malformed pair (id out of
    /// range, self-pair) is skipped rather than panicking mid-analysis.
    pub fn effective_flows(&self) -> Vec<netsim::FlowRecord> {
        if self.replicas.is_empty() {
            return self.flows.to_vec();
        }
        let mut merged = self.flows.to_vec();
        let mut drop: Vec<bool> = vec![false; merged.len()];
        for &(primary, replica) in &self.replicas {
            let (p, r) = (primary as usize, replica as usize);
            if p == r || p >= merged.len() || r >= merged.len() {
                debug_assert!(false, "malformed replica pair ({primary}, {replica})");
                continue;
            }
            // First finisher wins; copies that never finished carry
            // SimTime::MAX, so min() keeps whichever copy (if any) made it.
            if merged[r].end < merged[p].end {
                merged[p].end = merged[r].end;
            }
            drop[r] = true;
        }
        let mut i = 0;
        merged.retain(|_| {
            let keep = !drop[i];
            i += 1;
            keep
        });
        merged
    }

    /// Ids of effective (replica-merged) flows that never completed.
    /// Healthy runs with an adequate drain return an empty list; fault
    /// plans that kill a flow's every copy surface it here instead of
    /// panicking in analysis code.
    pub fn incomplete_flows(&self) -> Vec<FlowId> {
        self.effective_flows()
            .iter()
            .filter(|f| f.fct().is_none())
            .map(|f| f.flow)
            .collect()
    }
}

/// The `k` slowest effective TCP flows of a finished run, slowest first
/// (the natural selection for `--trace slowest=k`). Incomplete flows rank
/// slowest of all — they are exactly what a diagnosis wants to see — and
/// ties break by flow id so the selection is deterministic.
pub fn slowest_flows(out: &RunOutput, k: usize) -> Vec<FlowId> {
    let mut eff: Vec<_> = out
        .effective_flows()
        .into_iter()
        .filter(|f| f.proto == Proto::Tcp)
        .collect();
    eff.sort_by_key(|f| (std::cmp::Reverse(f.fct().unwrap_or(SimTime::MAX)), f.flow));
    eff.into_iter().take(k).map(|f| f.flow).collect()
}

/// Expand `specs` for `scheme`: a replicating scheme gets one replica per
/// short TCP flow appended (dense ids continuing after the primaries),
/// everything else passes through untouched. Returns the expanded spec
/// list and the `(primary, replica)` pairs.
fn expand_replicas(
    specs: &[FlowSpec],
    scheme: &SchemeSpec,
) -> (Vec<FlowSpec>, Vec<(FlowId, FlowId)>) {
    let Some(rep) = scheme.replication() else {
        return (specs.to_vec(), Vec::new());
    };
    let mut all = specs.to_vec();
    let mut next: FlowId = specs.iter().map(|s| s.id + 1).max().unwrap_or(0);
    let mut pairs = Vec::new();
    for s in specs {
        if s.proto == Proto::Tcp && s.bytes < rep.max_bytes && s.clone_of.is_none() {
            all.push(s.replica(next, rep.replica_v));
            pairs.push((s.id, next));
            next += 1;
        }
    }
    (all, pairs)
}

/// Where a run happens: a fat-tree, or the two-tier testbed with the
/// `(tor_index, uplink_index)` ports whose statistics come back in
/// [`RunOutput::port_stats`], in order (the hotspot path-throughput
/// measurement).
#[derive(Debug, Clone)]
pub enum Topo {
    /// A k-ary (or paper/tiny) fat-tree; the only topology that shards.
    FatTree(FatTreeParams),
    /// The paper's testbed, plus the ToR uplinks to snapshot.
    Testbed {
        /// Testbed shape.
        params: TestbedParams,
        /// `(tor_index, uplink_index)` ports to snapshot at the end.
        watch_uplinks: Vec<(usize, usize)>,
    },
}

impl From<FatTreeParams> for Topo {
    fn from(params: FatTreeParams) -> Self {
        Topo::FatTree(params)
    }
}

impl From<TestbedParams> for Topo {
    fn from(params: TestbedParams) -> Self {
        Topo::Testbed {
            params,
            watch_uplinks: Vec::new(),
        }
    }
}

/// A fault plan built against the constructed fat-tree, so plans can
/// target specific fabric links. Every shard of a sharded run calls it on
/// its own copy of the topology, so it must be a pure function of the
/// [`FatTree`].
pub type FaultFn<'a> = dyn Fn(&FatTree) -> FaultPlan + Sync + 'a;

/// Everything one simulation run needs. Build it with [`RunSpec::new`]
/// and override the optional parts with struct-update syntax:
///
/// ```ignore
/// run(&RunSpec { shards: 2, ..RunSpec::new(params, &scheme, &specs, until, seed) })
/// ```
pub struct RunSpec<'a> {
    /// The topology to build.
    pub topo: Topo,
    /// The load-balancing design (fabric and host sides).
    pub scheme: &'a SchemeSpec,
    /// The traffic; a replicating scheme appends its replicas.
    pub flows: &'a [FlowSpec],
    /// Simulate until this instant (arrival window plus a drain period).
    pub until: SimTime,
    /// Master seed of the run.
    pub seed: u64,
    /// Engine worker threads; 1 is the classic single-threaded engine.
    pub shards: usize,
    /// Telemetry series to collect (single-shard only).
    pub telemetry: TelemetryConfig,
    /// Flight-recorder selection; `slowest=k` is resolved by an untraced
    /// probe run of this same spec.
    pub trace: TraceSel,
    /// Fault plan to install before any traffic (fat-tree only).
    pub faults: Option<&'a FaultFn<'a>>,
    /// Reconvergence / goodput SLO probe to arm.
    pub slo: Option<SloConfig>,
}

impl<'a> RunSpec<'a> {
    /// A single-shard run with telemetry, tracing, faults, and the SLO
    /// probe all off.
    pub fn new(
        topo: impl Into<Topo>,
        scheme: &'a SchemeSpec,
        flows: &'a [FlowSpec],
        until: SimTime,
        seed: u64,
    ) -> Self {
        RunSpec {
            topo: topo.into(),
            scheme,
            flows,
            until,
            seed,
            shards: 1,
            telemetry: TelemetryConfig::off(),
            trace: TraceSel::Off,
            faults: None,
            slo: None,
        }
    }

    /// The shard plan of a multi-shard run (`None` for one shard), or why
    /// the spec cannot run.
    fn shard_plan(&self) -> Result<Option<ShardPlan>, String> {
        let params = match &self.topo {
            Topo::FatTree(params) => params,
            Topo::Testbed { .. } if self.shards != 1 => {
                return Err(format!(
                    "--shards {}: the testbed runs on the single-threaded engine; use --shards 1",
                    self.shards
                ))
            }
            Topo::Testbed { .. } if self.faults.is_some() => {
                return Err("fault plans target fat-tree links; the testbed takes none".into())
            }
            Topo::Testbed { .. } => return Ok(None),
        };
        let plan = ShardPlan::new(params, self.shards)?;
        if self.shards == 1 {
            return Ok(None);
        }
        if self.telemetry.enabled {
            return Err(format!(
                "--shards {}: telemetry series are collected on one shard only; use --shards 1",
                self.shards
            ));
        }
        Ok(Some(plan))
    }
}

/// Run one simulation. This is the only runner: every experiment, test,
/// and bench describes its run as a [`RunSpec`] and calls this.
///
/// * **One engine body.** Each run is made of instances of the same
///   per-worker setup (`simulate`): build the topology, arm telemetry,
///   trace, and SLO probes, install faults, then agents. With one shard
///   that instance runs straight to `until`; with `shards > 1` the fabric
///   is partitioned pod-granularly per [`ShardPlan`], one instance per
///   worker thread claims a partition, and workers synchronize through
///   the conservative barrier-epoch protocol of `ShardCoord` (below).
///   Results merge in fixed shard order, so a run is reproducible for a
///   given `(seed, shards)` regardless of how the OS schedules workers.
/// * **Tracing.** `trace` applies at every shard count. `slowest=k` runs
///   an untraced probe first, ranks its flows with [`slowest_flows`], and
///   replays the run with the recorder on; the replay must process the
///   same number of events (tracing is read-only), and it is what `run`
///   returns. Timelines of a flow recorded on several shards merge by
///   timestamp and are capped to one ring's capacity.
/// * **Faults.** The plan is installed before any traffic. Gray-loss and
///   corruption draws come from per-directed-port PCG streams split off a
///   never-advanced root, so a port's draws depend on its own departure
///   order, which sharding does not change. In a sharded run each plan
///   step compiles on the shard owning its anchor node; directions owned
///   by other shards travel as [`Handoff::Fault`] in a mailbox round run
///   before agents are installed, so fault events sit below every flow
///   event on every shard, as in a single-shard run. Two same-instant
///   steps from *different* anchors on the same directed egress may
///   apply in source-shard order; separate such steps in time.
/// * **Audit.** Every run passes the conservation audit before results
///   are handed out; a sharded run checks each shard's ledger after
///   every epoch and the merged cross-shard ledger at quiesce.
///
/// Byte-identity across shard counts requires a *tie-free* workload: two
/// packets reaching one switch at the same picosecond from different
/// ingress ports are served in event insertion order, which the engines
/// reach differently per partition. Poisson-arrival workloads never tie
/// in practice; the synchronized `microbench` and incast flow sets do, so
/// they are reproducible per shard count but not byte-stable across
/// counts.
///
/// Errors (rather than panics) on specs that cannot run: shard counts the
/// fabric cannot host, a sharded or faulted testbed, and telemetry on
/// more than one shard (per-shard series would merge in a different
/// order than one shard records them). The CLI surfaces these directly.
pub fn run(spec: &RunSpec) -> Result<RunOutput, String> {
    let plan = spec.shard_plan()?;
    let (flows, replicas) = expand_replicas(spec.flows, spec.scheme);
    let execute = |trace: &TraceConfig| {
        let mut out = match &plan {
            None => simulate(spec, trace, &flows, None),
            Some(plan) => run_sharded(spec, trace, &flows, plan),
        };
        out.replicas = replicas.clone();
        out
    };
    let mut probe_events = None;
    let trace = spec.trace.config_with(|k| {
        let probe = execute(&TraceConfig::off());
        probe_events = Some(probe.events);
        slowest_flows(&probe, k)
    });
    let out = execute(&trace);
    if let Some(events) = probe_events {
        assert_eq!(
            out.events, events,
            "tracing must not perturb the simulation"
        );
    }
    Ok(out)
}

/// [`run`] of a fault-free fat-tree on `shards` engine threads.
pub fn run_fat_tree_sharded(
    params: FatTreeParams,
    scheme: &SchemeSpec,
    specs: &[FlowSpec],
    until: SimTime,
    seed: u64,
    shards: usize,
) -> Result<RunOutput, String> {
    run(&RunSpec {
        shards,
        ..RunSpec::new(params, scheme, specs, until, seed)
    })
}

/// Worker `me` of a sharded run: its partition and its coordinator port.
type Shard<'a, 'c> = (&'a ShardPlan, &'a mut ShardPort<'c, Handoff>);

/// One engine instance. Without `shard` it owns the whole topology and
/// runs straight to `spec.until`; with one it claims its partition and
/// joins the barrier-epoch loop.
fn simulate(
    spec: &RunSpec,
    trace: &TraceConfig,
    flows: &[FlowSpec],
    shard: Option<Shard>,
) -> RunOutput {
    let mut sim = Simulator::new(spec.seed);
    sim.set_telemetry(spec.telemetry.clone());
    sim.set_trace(trace.clone());
    if let Some(cfg) = spec.slo {
        sim.set_slo(cfg);
    }
    let watch: Vec<_> = match &spec.topo {
        Topo::FatTree(params) => {
            let ft = build_fat_tree(&mut sim, *params, spec.scheme.switch_config());
            if let Some((plan, port)) = &shard {
                sim.set_owned(plan.owned_mask(port.me));
            }
            if let Some(faults) = spec.faults {
                sim.install_faults(&faults(&ft));
            }
            Vec::new()
        }
        Topo::Testbed {
            params,
            watch_uplinks,
        } => {
            let tb = build_testbed(&mut sim, params.clone(), spec.scheme.switch_config());
            watch_uplinks
                .iter()
                .map(|&(t, a)| (tb.tors[t], tb.tor_uplinks[t][a]))
                .collect()
        }
    };
    let Some((plan, port)) = shard else {
        install_agents(&mut sim, flows, &spec.scheme.tcp_config());
        sim.run_until(spec.until);
        return RunOutput::from_sim(sim, &watch);
    };
    let lookahead = sim
        .lookahead()
        .expect("a multi-shard plan must produce cross-shard links");
    port.coord
        .lookahead
        .fetch_min(lookahead.as_ps(), Ordering::Relaxed);
    let route = |outbox: Vec<Handoff>| outbox.into_iter().map(|h| (plan.owner_of(h.node()), h));
    // Round 0: cross-shard fault directions cross the mailbox before any
    // traffic exists, so their event seqs sit below every flow event —
    // the single-shard install order. Its window is ignored.
    for h in port.exchange(route(sim.take_outbox()), None).0 {
        sim.import(h);
    }
    install_agents_on(&mut sim, flows, &spec.scheme.tcp_config(), |h| {
        plan.owner_of(h) == port.me
    });
    let mut outbox = Vec::new();
    loop {
        // Every handoff lands on some shard, so the minimum over shards of
        // (local next event, outgoing arrivals) is the global next event.
        let next = sim
            .next_event_time()
            .into_iter()
            .chain(outbox.iter().map(Handoff::at))
            .min();
        let (inbox, window) = port.exchange(route(outbox), next);
        for h in inbox {
            sim.import(h);
        }
        // Every epoch keeps the books balanced, not just the quiesced end
        // state — a fault that leaks or double counts a packet is caught
        // in the epoch it happens.
        sim.assert_conservation();
        let Some(deadline) = window else {
            break;
        };
        sim.run_window(deadline);
        outbox = sim.take_outbox();
    }
    RunOutput::from_sim(sim, &[])
}

/// Run one [`simulate`] instance per shard on scoped threads and merge
/// them in shard order, checking the cross-shard ledger: every packet
/// exported by one shard must have been imported by another, and the
/// global invariant must balance once handoffs cancel.
fn run_sharded(
    spec: &RunSpec,
    trace: &TraceConfig,
    flows: &[FlowSpec],
    plan: &ShardPlan,
) -> RunOutput {
    let shards = plan.shards();
    let coord = ShardCoord::new(shards, spec.until);
    let workers = coord.run(|port| simulate(spec, trace, flows, Some((plan, port))));

    let mut it = workers.into_iter();
    let mut out = it.next().expect("at least one shard");
    let mut c = out.conservation;
    for w in it {
        out.results.merge(w.results);
        out.events += w.events;
        c.injected += w.conservation.injected;
        c.delivered += w.conservation.delivered;
        c.in_flight += w.conservation.in_flight;
        for (a, b) in c.dropped.iter_mut().zip(w.conservation.dropped) {
            *a += b;
        }
        c.exported += w.conservation.exported;
        c.imported += w.conservation.imported;
    }
    let (exported, imported) = (c.exported, c.imported);
    assert_eq!(
        exported, imported,
        "cross-shard handoff imbalance at quiesce: {exported} exported vs {imported} imported"
    );
    // Imports re-insert packets that already counted at their source
    // shard; subtract them so `injected` means true injections.
    c.injected -= imported;
    c.exported -= imported;
    c.imported = 0;
    assert!(c.holds(), "packet conservation violated across shards: {c}");
    out.conservation = c;
    out.results.cap_timelines(trace.ring_capacity);
    out.shard_stats = Some(ShardStats {
        shards,
        handoffs: exported,
        // Round 0, the fault exchange, runs no window.
        rounds: coord.exchanges.load(Ordering::Relaxed) - 1,
        lookahead_ps: coord.lookahead.load(Ordering::Relaxed),
        wait_s: coord.wait_ns.load(Ordering::Relaxed) as f64 * 1e-9,
    });
    out
}

/// The synchronization state shared by all workers of one sharded run,
/// generic over the message type `M` so tests can drive it without a
/// fabric.
///
/// The engine is a conservative barrier-epoch parallel DES, with one
/// barrier per epoch. Each epoch, every shard (through its [`ShardPort`]):
///
/// 1. posts its outbox into `mail[parity][dst][me]` and stores its next
///    event time in `next[parity][me]` — the minimum of its next local
///    event and the arrival times of what it just posted (every handoff
///    lands on some shard, so the minimum over all slots is the global
///    next event `M`);
/// 2. waits at the barrier;
/// 3. computes the same `M` and the same inclusive window
///    `[M, min(M + L - 1, until)]` as every other shard, with no leader.
///    `L` is the lookahead — the minimum latency any message needs to
///    *cross* a shard boundary — so a message generated at `t >= M`
///    arrives at `>= M + L`, strictly after the window;
/// 4. drains `mail[parity][me]` in source-shard order — a fixed merge
///    order, so event seq numbers (the tie-breakers) are reproducible
///    regardless of thread scheduling — imports it, and runs the window.
///
/// Epochs alternate parity, so a slot read after epoch `e`'s barrier is
/// rewritten only after epoch `e + 1`'s barrier, which its reader must
/// reach first: nothing needs resetting. The run ends when `M` is beyond
/// `until` (or no events remain anywhere).
struct ShardCoord<M> {
    shards: usize,
    until_ps: u64,
    barrier: EpochBarrier,
    /// Global lookahead `L` in ps (`fetch_min` over shards before round 0).
    lookahead: AtomicU64,
    /// `next[parity][shard]`: next event time in ps, `u64::MAX` = none.
    next: [Vec<AtomicU64>; 2],
    /// `mail[parity][dst * shards + src]`: messages `src` posted for `dst`.
    mail: [Vec<Mutex<Vec<M>>>; 2],
    /// Exchanges each worker made, round 0 included.
    exchanges: AtomicU64,
    /// Host time spent in the barrier, summed over workers.
    wait_ns: AtomicU64,
}

impl<M: Send> ShardCoord<M> {
    fn new(shards: usize, until: SimTime) -> Self {
        let slots = |n: usize| (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let next = || (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        ShardCoord {
            shards,
            until_ps: until.as_ps(),
            barrier: EpochBarrier::new(shards),
            lookahead: AtomicU64::new(u64::MAX),
            next: [next(), next()],
            mail: [slots(shards * shards), slots(shards * shards)],
            exchanges: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        }
    }

    /// Run `work` once per shard on scoped threads, each with its own
    /// port, and return the results in shard order. A worker that panics
    /// poisons the barrier, so its peers panic too instead of waiting for
    /// it forever; the original panic is then re-raised naming its shard.
    fn run<T: Send>(&self, work: impl Fn(&mut ShardPort<M>) -> T + Sync) -> Vec<T> {
        let joined: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards)
                .map(|me| {
                    let work = &work;
                    scope.spawn(move || {
                        work(&mut ShardPort {
                            coord: self,
                            me,
                            epoch: 0,
                            wait: Duration::ZERO,
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let failed: Vec<(usize, &str)> = joined
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, panic_text(r.as_ref().err()?.as_ref()))))
            .collect();
        if let Some((me, msg)) = failed
            .iter()
            .find(|(_, msg)| *msg != PEER_PANICKED)
            .or(failed.first())
        {
            panic!("shard {me} panicked: {msg}");
        }
        joined.into_iter().flatten().collect()
    }
}

/// One worker's handle on the [`ShardCoord`]. Dropping it records the
/// worker's epoch count and barrier time; dropping it while unwinding
/// poisons the barrier.
struct ShardPort<'c, M> {
    coord: &'c ShardCoord<M>,
    me: usize,
    /// Exchanges made so far; its low bit is the current parity.
    epoch: u64,
    wait: Duration,
}

impl<M: Send> ShardPort<'_, M> {
    /// One epoch boundary: post `outbox` (`(destination shard, message)`
    /// pairs) and this shard's next event time, cross the barrier, and
    /// return this shard's mail in source-shard order together with the
    /// agreed window deadline (`None` when the run is over everywhere).
    fn exchange(
        &mut self,
        outbox: impl IntoIterator<Item = (usize, M)>,
        next: Option<SimTime>,
    ) -> (Vec<M>, Option<SimTime>) {
        let c = self.coord;
        let (n, me, p) = (c.shards, self.me, (self.epoch & 1) as usize);
        self.epoch += 1;
        for (dst, m) in outbox {
            c.mail[p][dst * n + me].lock().expect(MAIL_POISONED).push(m);
        }
        // Relaxed suffices for `next` and `lookahead`: the barrier's
        // Release arrival and Acquire exit order every store before it
        // ahead of every load after it.
        c.next[p][me].store(next.map_or(u64::MAX, SimTime::as_ps), Ordering::Relaxed);
        let t = Instant::now();
        c.barrier.wait();
        self.wait += t.elapsed();
        let m = c.next[p].iter().map(|x| x.load(Ordering::Relaxed)).min();
        let window = m.filter(|&m| m != u64::MAX && m <= c.until_ps).map(|m| {
            // Process [m, m + l - 1]: messages generated at t >= m arrive
            // at >= m + l, strictly outside the window.
            let l = c.lookahead.load(Ordering::Relaxed);
            SimTime::from_ps(m.saturating_add(l).saturating_sub(1).min(c.until_ps))
        });
        let mut inbox = Vec::new();
        for slot in &c.mail[p][me * n..(me + 1) * n] {
            inbox.append(&mut slot.lock().expect(MAIL_POISONED));
        }
        (inbox, window)
    }
}

impl<M> Drop for ShardPort<'_, M> {
    fn drop(&mut self) {
        let c = self.coord;
        if std::thread::panicking() {
            c.barrier.poison();
        }
        c.exchanges.fetch_max(self.epoch, Ordering::Relaxed);
        c.wait_ns
            .fetch_add(self.wait.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// What a worker panics with when a peer's panic poisoned the barrier.
const PEER_PANICKED: &str = "peer shard panicked";

/// Why a mailbox lock can fail: a worker panicked while holding it.
const MAIL_POISONED: &str = "a shard panicked while posting mail";

/// Spins before a spinning waiter starts yielding its time slice.
const SPINS_BEFORE_YIELD: u32 = 1 << 12;

/// A reusable barrier for the workers of one sharded run. An epoch's work
/// is tens of microseconds, so a futex sleep and wake per epoch costs as
/// much as the work: while every worker can have a core of its own the
/// barrier spins (`spin_loop`, then `yield_now`). When workers outnumber
/// cores a spinner would burn the time slice the last arrival needs, so
/// it parks on a condvar instead. Once poisoned, every wait panics.
struct EpochBarrier {
    shards: usize,
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl EpochBarrier {
    fn new(shards: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        EpochBarrier {
            shards,
            spin: shards <= cores,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `shards` workers have called `wait`. Everything a
    /// worker wrote before its call is visible to every worker after it.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.shards {
            self.arrived.store(0, Ordering::Relaxed);
            // Parked waiters check under the lock, so they cannot miss this.
            let parked = (!self.spin).then(|| self.lock());
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            if parked.is_some() {
                self.wake.notify_all();
            }
            return;
        }
        if self.spin {
            let mut spins = 0;
            while self.generation.load(Ordering::Acquire) == gen {
                self.check_poison();
                if spins < SPINS_BEFORE_YIELD {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        } else {
            let mut guard = self.lock();
            while self.generation.load(Ordering::Acquire) == gen {
                self.check_poison();
                guard = self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Make every current and future `wait` panic.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _guard = self.lock();
        self.wake.notify_all();
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Acquire) {
            panic!("{PEER_PANICKED}");
        }
    }

    /// The parking lock; a waiter that panicked holding it left nothing
    /// behind to protect.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Map `f` over `inputs` on a bounded worker pool (runs are
/// single-threaded and independent; sweeps parallelize across
/// configurations). Workers are capped at the machine's available
/// parallelism and pull indices from a shared queue, so a sweep of any
/// size never oversubscribes the host. Output order matches input order.
///
/// Each call of `f` runs under `catch_unwind`: a panic is captured
/// per-index and re-raised from the calling thread as one panic naming
/// *which* inputs failed, instead of poisoning the shared result slots and
/// surfacing as an unrelated mutex error.
pub fn parallel_map<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    parallel_map_capped(inputs, usize::MAX, f)
}

/// [`parallel_map`] with an explicit ceiling on concurrent workers
/// (effective worker count: `min(cap, available parallelism, inputs)`).
fn parallel_map_capped<I, T, F>(inputs: Vec<I>, cap: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n)
        .min(cap.max(1));
    let next = AtomicUsize::new(0);
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = inputs[i].lock().unwrap().take().expect("input taken once");
                // Capture the panic instead of unwinding through the
                // worker: the mutexes stay unpoisoned and every other
                // index still completes.
                let out = catch_unwind(AssertUnwindSafe(|| f(input)));
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    let mut failures: Vec<String> = Vec::new();
    for (i, m) in results.into_iter().enumerate() {
        match m.into_inner().unwrap() {
            Some(Ok(v)) => out.push(v),
            Some(Err(payload)) => {
                failures.push(format!("input {i}: {}", panic_text(payload.as_ref())))
            }
            None => unreachable!("every index is claimed exactly once"),
        }
    }
    assert!(
        failures.is_empty(),
        "parallel_map: {} of {n} inputs panicked:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    out
}

/// Run `f` for every `(param, scheme)` pair on the [`parallel_map`] pool
/// and return the results grouped by parameter: `out[p]` holds one entry
/// per scheme, in registry order. Jobs are flattened params-outer /
/// schemes-inner so result order matches the nested loops this replaced.
///
/// `shards` is the engine thread count each job runs with: the pool is
/// capped at one sweep worker per `shards` cores of available parallelism
/// (never below one), so `sweep workers × shards` never oversubscribes
/// the machine. The cap changes scheduling, never results.
pub fn sweep_schemes<P, T, F>(
    schemes: &[SchemeSpec],
    params: &[P],
    shards: usize,
    f: F,
) -> Vec<Vec<T>>
where
    P: Clone + Send + Sync,
    T: Send,
    F: Fn(&SchemeSpec, &P) -> T + Sync,
{
    let jobs: Vec<(SchemeSpec, P)> = params
        .iter()
        .flat_map(|p| schemes.iter().map(|s| (s.clone(), p.clone())))
        .collect();
    let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cap = avail / shards.max(1);
    let flat = parallel_map_capped(jobs, cap, |(s, p)| f(&s, &p));
    let mut flat = flat.into_iter();
    params
        .iter()
        .map(|_| (&mut flat).take(schemes.len()).collect())
        .collect()
}

/// Best-effort text of a captured panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Common measurement conventions for windowed workloads.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Ignore flows arriving before this (warm-up).
    pub start: SimTime,
    /// Ignore flows arriving at/after this (cool-down); also the end of
    /// the arrival process.
    pub end: SimTime,
    /// Keep simulating until this, so in-window flows can finish.
    pub drain_until: SimTime,
}

impl Window {
    /// A window of `duration` with 10 % warm-up and a generous drain.
    pub fn for_duration(duration: SimTime, drain: SimTime) -> Self {
        Window {
            start: SimTime::from_ps(duration.as_ps() / 10),
            end: duration,
            drain_until: duration + drain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes;
    use flowbender as fb;
    use netsim::Counter;

    fn run_spec(spec: RunSpec) -> RunOutput {
        run(&spec).expect("a valid single-shard spec")
    }

    /// Silence host 0's NIC outright: every flow it sources never finishes.
    fn kill_host0(ft: &FatTree) -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.gray_loss(ft.hosts[0], 0, 1.0, SimTime::ZERO);
        plan
    }

    #[test]
    fn tiny_fat_tree_run_completes_flows() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 500_000, SimTime::ZERO))
            .collect();
        for scheme in schemes::paper_set() {
            let out = run_spec(RunSpec::new(
                params,
                &scheme,
                &specs,
                SimTime::from_secs(5),
                1,
            ));
            let done = out.flows.iter().filter(|f| f.fct().is_some()).count();
            assert_eq!(done, 8, "{} incomplete", scheme.name());
            assert!(out.events > 0);
            let _ = out.get(Counter::DataPktsRcvd);
        }
    }

    #[test]
    fn testbed_run_snapshots_requested_ports() {
        let params = TestbedParams::tiny();
        let specs = vec![
            FlowSpec::tcp(0, 0, 5, 1_000_000, SimTime::ZERO),
            FlowSpec::udp(1, 0, 5, 1_000_000_000, SimTime::ZERO),
        ];
        let topo = Topo::Testbed {
            params,
            watch_uplinks: (0..4).map(|a| (0usize, a)).collect(),
        };
        let scheme = schemes::ecmp();
        let out = run_spec(RunSpec::new(topo, &scheme, &specs, SimTime::from_ms(20), 7));
        assert_eq!(out.port_stats.len(), 4);
        let tcp_total: u64 = out.port_stats.iter().map(|p| p.tx_bytes_tcp).sum();
        let udp_total: u64 = out.port_stats.iter().map(|p| p.tx_bytes_udp).sum();
        assert!(tcp_total > 0, "TCP crossed the uplinks");
        assert!(udp_total > 0, "UDP crossed the uplinks");
        assert_eq!(out.flows[1].proto, Proto::Udp);
    }

    #[test]
    fn testbed_specs_refuse_shards_and_faults() {
        let specs = vec![FlowSpec::tcp(0, 0, 5, 100_000, SimTime::ZERO)];
        let scheme = schemes::ecmp();
        let spec = || {
            RunSpec::new(
                TestbedParams::tiny(),
                &scheme,
                &specs,
                SimTime::from_ms(5),
                1,
            )
        };
        let err = run(&RunSpec {
            shards: 2,
            ..spec()
        })
        .unwrap_err();
        assert!(err.contains("--shards 1"), "{err}");
        let err = run(&RunSpec {
            faults: Some(&kill_host0),
            ..spec()
        })
        .unwrap_err();
        assert!(err.contains("testbed"), "{err}");
        assert!(run(&spec()).is_ok());
    }

    #[test]
    fn replicating_scheme_expands_and_merges() {
        let params = FatTreeParams::tiny();
        // Two short flows (replicated) and one long flow (not).
        let specs = vec![
            FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 9, 30_000, SimTime::ZERO),
            FlowSpec::tcp(2, 2, 10, 2_000_000, SimTime::ZERO),
        ];
        let scheme = schemes::repflow();
        let out = run_spec(RunSpec::new(
            params,
            &scheme,
            &specs,
            SimTime::from_secs(5),
            3,
        ));
        assert_eq!(out.replicas, vec![(0, 3), (1, 4)]);
        assert_eq!(out.flows.len(), 5, "two replicas were installed");
        assert!(out.flows.iter().all(|f| f.fct().is_some()));
        let eff = out.effective_flows();
        assert_eq!(eff.len(), 3, "replicas folded away");
        for &(p, r) in &out.replicas {
            let merged: Vec<_> = eff.iter().filter(|f| f.flow == p).collect();
            assert_eq!(merged.len(), 1, "primary {p} present exactly once");
            assert_eq!(
                merged[0].end,
                out.flows[p as usize].end.min(out.flows[r as usize].end),
                "first finisher wins"
            );
        }
        assert!(out.incomplete_flows().is_empty(), "healthy run completes");
        assert_eq!(eff[2].end, out.flows[2].end, "long flow untouched");
        assert!(out.conservation.holds(), "duplicates stay in the ledger");
    }

    #[test]
    fn replica_merge_survives_a_primary_that_never_completes() {
        // Regression: a fault plan that silently eats *every* copy of a
        // replicated flow used to make effective_flows()'s callers panic
        // (`.find(...).unwrap()` on an incomplete merge). Kill host 0's
        // NIC outright: flow 0 and its replica share src 0, so neither
        // copy can ever finish.
        let params = FatTreeParams::tiny();
        let specs = vec![
            FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 9, 30_000, SimTime::ZERO),
        ];
        let scheme = schemes::repflow();
        let out = run_spec(RunSpec {
            faults: Some(&kill_host0),
            ..RunSpec::new(params, &scheme, &specs, SimTime::from_ms(200), 3)
        });
        let eff = out.effective_flows();
        assert_eq!(eff.len(), 2, "replicas fold away even when incomplete");
        let incomplete = out.incomplete_flows();
        assert!(incomplete.contains(&0), "the killed flow is surfaced");
        assert!(!incomplete.contains(&1), "the healthy flow completed");
        assert!(out.conservation.holds(), "dropped copies stay audited");
    }

    #[test]
    fn slowest_flows_ranks_incomplete_first_and_breaks_ties_by_id() {
        let params = FatTreeParams::tiny();
        let specs = vec![
            FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO),
            FlowSpec::tcp(1, 1, 9, 30_000, SimTime::ZERO),
            FlowSpec::tcp(2, 2, 10, 2_000_000, SimTime::ZERO),
        ];
        let scheme = schemes::ecmp();
        let out = run_spec(RunSpec {
            faults: Some(&kill_host0),
            ..RunSpec::new(params, &scheme, &specs, SimTime::from_ms(200), 3)
        });
        let slow = slowest_flows(&out, 2);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0], 0, "the flow that never finished ranks slowest");
        assert_eq!(
            slowest_flows(&out, 10).len(),
            3,
            "k larger than the flow count returns everything"
        );
    }

    #[test]
    fn non_replicating_scheme_has_no_replicas() {
        let params = FatTreeParams::tiny();
        let specs = vec![FlowSpec::tcp(0, 0, 8, 50_000, SimTime::ZERO)];
        let scheme = schemes::ecmp();
        let out = run_spec(RunSpec::new(
            params,
            &scheme,
            &specs,
            SimTime::from_secs(5),
            3,
        ));
        assert!(out.replicas.is_empty());
        assert_eq!(out.effective_flows().len(), out.flows.len());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect::<Vec<_>>(), |i| i * i);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_far_more_inputs_than_cores() {
        // The old implementation spawned one thread per input; this must
        // stay bounded and still produce every result in order.
        let out = parallel_map((0..1_000).collect::<Vec<_>>(), |i| i + 1);
        assert_eq!(out, (1..=1_000).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_names_the_panicking_inputs() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..16).collect::<Vec<_>>(), |i| {
                if i == 7 || i == 11 {
                    panic!("scenario {i} exploded");
                }
                i
            })
        })
        .expect_err("a worker panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .expect("propagated panic carries a message");
        assert!(msg.contains("input 7"), "names index 7: {msg}");
        assert!(msg.contains("input 11"), "names index 11: {msg}");
        assert!(msg.contains("scenario 7 exploded"), "keeps cause: {msg}");
    }

    #[test]
    fn parallel_map_capped_bounds_concurrency_and_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = parallel_map_capped((0..64).collect::<Vec<_>>(), 2, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "cap=2 exceeded: peak {}",
            peak.load(Ordering::SeqCst)
        );
        // A zero cap is clamped to one worker, never a deadlock.
        let out = parallel_map_capped(vec![1, 2, 3], 0, |i| i);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn sweep_shard_count_changes_scheduling_never_results() {
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        let schemes = vec![schemes::ecmp(), schemes::rps()];
        let f = |s: &SchemeSpec, p: &u64| format!("{}@{p}", s.name());
        let a = sweep_schemes(&schemes, &[10u64, 20u64], 1, f);
        // More shards than cores, and zero, still get one sweep worker.
        for shards in [0, 4, avail * 2] {
            assert_eq!(a, sweep_schemes(&schemes, &[10u64, 20u64], shards, f));
        }
    }

    #[test]
    fn sweep_schemes_groups_by_param_in_registry_order() {
        let schemes = vec![schemes::ecmp(), schemes::rps()];
        let out = sweep_schemes(&schemes, &[10u64, 20u64], 1, |s, p| {
            format!("{}@{p}", s.name())
        });
        assert_eq!(
            out,
            vec![
                vec!["ECMP@10".to_string(), "RPS@10".to_string()],
                vec!["ECMP@20".to_string(), "RPS@20".to_string()],
            ]
        );
    }

    #[test]
    fn fault_runner_injects_and_audits() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 200_000, SimTime::ZERO))
            .collect();
        let scheme = schemes::ecmp();
        let gray = |ft: &FatTree| {
            let mut plan = FaultPlan::new();
            let (agg, port) = ft.agg_core_link(0, 0);
            plan.gray_loss(agg, port, 0.05, SimTime::ZERO);
            plan
        };
        let out = run_spec(RunSpec {
            faults: Some(&gray),
            ..RunSpec::new(params, &scheme, &specs, SimTime::from_secs(5), 1)
        });
        assert!(out.conservation.holds());
        assert_eq!(
            out.conservation.injected,
            out.conservation.delivered
                + out.conservation.dropped_total()
                + out.conservation.in_flight
        );
    }

    #[test]
    fn telemetry_run_collects_queue_and_reroute_series() {
        let params = FatTreeParams::tiny();
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec::tcp(i, i, 8 + i, 500_000, SimTime::ZERO))
            .collect();
        let scheme = schemes::flowbender(fb::Config::default());
        let spec = RunSpec::new(params, &scheme, &specs, SimTime::from_secs(5), 1);
        let out = run_spec(RunSpec {
            telemetry: TelemetryConfig::all(SimTime::from_us(100)),
            ..RunSpec::new(params, &scheme, &specs, SimTime::from_secs(5), 1)
        });
        assert!(
            out.series()
                .iter()
                .any(|s| s.name().starts_with("queue_depth.")),
            "queue-depth series collected"
        );
        assert!(
            out.series().iter().any(|s| s.name().starts_with("vfield.")),
            "V-field traces collected (at least the start anchor)"
        );
        // The same run without telemetry behaves identically flow-wise.
        let plain = run_spec(spec);
        assert!(plain.series().is_empty());
        assert_eq!(
            plain.events, out.events,
            "telemetry must not perturb the simulation"
        );
        let fcts_a: Vec<_> = out.flows.iter().filter_map(|f| f.fct()).collect();
        let fcts_b: Vec<_> = plain.flows.iter().filter_map(|f| f.fct()).collect();
        assert_eq!(fcts_a, fcts_b);
    }

    #[test]
    fn window_conventions() {
        let w = Window::for_duration(SimTime::from_ms(100), SimTime::from_ms(400));
        assert_eq!(w.start, SimTime::from_ms(10));
        assert_eq!(w.end, SimTime::from_ms(100));
        assert_eq!(w.drain_until, SimTime::from_ms(500));
    }

    /// Drive `shards` workers through `epochs` exchanges in which every
    /// shard mails every other shard one message tagged `(source, epoch)`,
    /// then one final exchange with no events anywhere.
    fn exchange_stress(shards: usize, epochs: u64) {
        let coord = ShardCoord::new(shards, SimTime::MAX);
        coord.lookahead.store(5, Ordering::Relaxed);
        let windows = coord.run(|port| {
            let me = port.me;
            let peers = move |live: bool| (0..shards).filter(move |&s| live && s != me);
            let mut windows = Vec::new();
            for e in 0..=epochs {
                let live = e < epochs;
                // The global minimum 10e rotates over the shards' slots.
                let next = live.then(|| SimTime::from_ps(10 * e + (me as u64 + e) % shards as u64));
                let (inbox, window) = port.exchange(peers(live).map(|d| (d, (me, e))), next);
                let want: Vec<_> = peers(live).map(|s| (s, e)).collect();
                assert_eq!(inbox, want, "shard {me} at epoch {e}");
                windows.push(window);
            }
            windows
        });
        let want: Vec<_> = (0..epochs)
            .map(|e| Some(SimTime::from_ps(10 * e + 4)))
            .chain([None])
            .collect();
        for (me, w) in windows.iter().enumerate() {
            assert!(*w == want, "shard {me} disagrees on the windows");
        }
        assert_eq!(coord.exchanges.load(Ordering::Relaxed), epochs + 1);
    }

    #[test]
    fn exchange_delivers_each_epochs_mail_in_source_order() {
        // 2 shards spin; 8 shards outnumber the cores of most test hosts
        // and take the parking path.
        exchange_stress(2, 10_000);
        exchange_stress(8, 10_000);
    }

    /// Run `shards` workers of which shard 1 panics at epoch 100 while the
    /// rest keep exchanging; return the run's panic message.
    fn poisoned_run(shards: usize) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let coord = ShardCoord::<()>::new(shards, SimTime::MAX);
            let run = std::panic::AssertUnwindSafe(|| {
                coord.run(|port| loop {
                    if port.me == 1 && port.epoch == 100 {
                        panic!("shard blew up at epoch 100");
                    }
                    port.exchange(std::iter::empty(), Some(SimTime::ZERO));
                })
            });
            let caught = std::panic::catch_unwind(run).expect_err("the run must panic");
            tx.send(panic_text(caught.as_ref()).to_string()).unwrap();
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a panicking shard must not hang its peers");
        runner.join().expect("the runner caught the panic");
        msg
    }

    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging_it() {
        for shards in [2, 8] {
            let msg = poisoned_run(shards);
            assert_eq!(msg, "shard 1 panicked: shard blew up at epoch 100");
        }
    }

    /// The coordinator's rewrite changed how shards synchronize, not the
    /// epoch schedule: a 2-shard k=8 Poisson run keeps the epoch and
    /// handoff counts of the three-barrier protocol it replaced.
    #[test]
    fn two_shard_poisson_run_keeps_its_epoch_schedule() {
        let params = FatTreeParams::k_ary(8).expect("k=8 is valid");
        let scheme = schemes::flowbender(fb::Config::default());
        let rng = netsim::DetRng::new(1, 0xE90C);
        let specs: Vec<FlowSpec> = workloads::PoissonStream::new(
            &params,
            0.3,
            SimTime::from_ms(1),
            workloads::FlowSizeDist::web_search(),
            &rng,
        )
        .collect();
        let out = run(&RunSpec {
            shards: 2,
            ..RunSpec::new(params, &scheme, &specs, SimTime::from_ms(10), 1)
        })
        .expect("k=8 hosts 2 shards");
        let ss = out.shard_stats.expect("sharded runs report stats");
        assert_eq!((ss.rounds, ss.handoffs), (8505, 30728));
        assert!(ss.wait_s >= 0.0);
    }
}
