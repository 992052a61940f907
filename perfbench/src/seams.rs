//! Timing decorators for the two public trait seams a run crosses: the
//! host agent (`netsim::Agent`, implemented by `transport::HostAgent`)
//! and the per-flow path controller (`flowbender::PathController`).
//!
//! Each decorator forwards every call unchanged and adds the call and its
//! host time to a shared [`SeamTotals`]. No per-call span is recorded; the
//! benchmark reads the totals between simulated-time slices.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flowbender::{Decision, Feedback, FlowBender, PathController, Rng};
use netsim::{Agent, Ctx, Packet};
use transport::PathSpec;

/// Per-thread accumulator slots: each thread adds into its own cache line,
/// so a sharded run's workers never contend on one counter.
const SLOTS: usize = 16;

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

#[repr(align(64))]
#[derive(Default)]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Calls and host nanoseconds spent behind one seam, summed over threads.
/// The counters are statistics that publish no other data, hence
/// `Relaxed`; a sharded run's totals are read after its workers joined.
#[derive(Default)]
pub struct SeamTotals {
    slots: [Slot; SLOTS],
}

/// A snapshot of a [`SeamTotals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, rhs: Tally) -> Tally {
        Tally {
            calls: self.calls - rhs.calls,
            ns: self.ns - rhs.ns,
        }
    }
}

impl SeamTotals {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Time `f` and add it as one call.
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let slot = &self.slots[SLOT.with(|s| *s)];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    pub fn tally(&self) -> Tally {
        self.slots.iter().fold(Tally::default(), |t, s| Tally {
            calls: t.calls + s.calls.load(Ordering::Relaxed),
            ns: t.ns + s.ns.load(Ordering::Relaxed),
        })
    }
}

impl std::fmt::Debug for SeamTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SeamTotals({:?})", self.tally())
    }
}

/// A host agent whose every callback is timed.
pub struct TimedAgent<A> {
    inner: A,
    totals: Arc<SeamTotals>,
}

impl<A: Agent> TimedAgent<A> {
    pub fn new(inner: A, totals: Arc<SeamTotals>) -> Self {
        TimedAgent { inner, totals }
    }
}

impl<A: Agent> Agent for TimedAgent<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_start(ctx))
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_packet(pkt, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_timer(token, ctx))
    }
}

/// A path controller whose decision calls (`on_ack`, `on_rtt_end`,
/// `on_timeout`) are timed; `vfield`, `active`, `on_feedback` and
/// `as_flowbender` forward untimed.
#[derive(Debug)]
pub struct TimedController {
    inner: Box<dyn PathController>,
    totals: Arc<SeamTotals>,
}

impl PathController for TimedController {
    fn vfield(&self) -> u8 {
        self.inner.vfield()
    }

    fn active(&self) -> bool {
        self.inner.active()
    }

    fn on_ack(&mut self, ecn_echo: bool, now_ps: u64, rng: &mut dyn Rng) -> Decision {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_ack(ecn_echo, now_ps, rng))
    }

    fn on_feedback(&mut self, fb: Feedback, now_ps: u64, rng: &mut dyn Rng) -> Decision {
        self.inner.on_feedback(fb, now_ps, rng)
    }

    fn on_rtt_end(&mut self, rng: &mut dyn Rng) -> Decision {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_rtt_end(rng))
    }

    fn on_timeout(&mut self, rng: &mut dyn Rng) -> Decision {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_timeout(rng))
    }

    fn as_flowbender(&self) -> Option<&FlowBender> {
        self.inner.as_flowbender()
    }
}

/// `path` with every controller it builds wrapped in a [`TimedController`].
pub fn timed_path(path: &PathSpec, totals: &Arc<SeamTotals>) -> PathSpec {
    let inner = path.clone();
    let totals = Arc::clone(totals);
    PathSpec::custom(format!("timed({})", path.label()), move |vhint, rng| {
        Box::new(TimedController {
            inner: inner.build(vhint, rng),
            totals: Arc::clone(&totals),
        })
    })
}
