//! Property test: the packet-conservation ledger balances under
//! *randomized* fault plans — arbitrary interleavings of link flaps and
//! gray loss across every agg→core uplink — for **every scheme in the
//! registry** (ECMP, FlowBender, RPS, DeTail's PFC fabric, flowlet and
//! flowcut switching, and RepFlow's duplicated short flows), across
//! seeds. Whatever the plan does to the fabric, every injected packet —
//! replicas included — must end up delivered, dropped with a recorded
//! reason, or still in flight at the cutoff; nothing leaks, nothing is
//! double-counted. (`experiments::run` additionally asserts the same
//! audit internally before returning, so a violation fails twice over.)

use experiments::schemes::{self, SchemeSpec};
use experiments::{run, RunSpec};
use netsim::{DetRng, FaultPlan, FlowSpec, SimTime};
use topology::{FatTree, FatTreeParams};

const SEEDS: u64 = 3;

fn chaos_run(scheme: &SchemeSpec, seed: u64) -> experiments::RunOutput {
    let params = FatTreeParams::tiny();
    // 8 cross-pod flows (hosts 0..8 are pod 0, 8..16 pod 1). Half are
    // short (50 KB, below the RepFlow replication cut-off) so replicating
    // schemes exercise the duplicate-packet accounting too.
    let specs: Vec<FlowSpec> = (0..8)
        .map(|i| {
            let bytes = if i % 2 == 0 { 50_000 } else { 200_000 };
            FlowSpec::tcp(i, i, 8 + i, bytes, SimTime::ZERO)
        })
        .collect();
    let faults = |ft: &FatTree| {
        // Every agg->core uplink in the fabric is fair game: tiny has
        // 4 aggs x 2 core uplinks each.
        let links: Vec<_> = (0..4)
            .flat_map(|a| (0..2).map(move |k| ft.agg_core_link(a, k)))
            .collect();
        let mut rng = DetRng::new(seed, 0x4E57);
        FaultPlan::randomized(&mut rng, &links, SimTime::from_ms(50), 0.15)
    };
    run(&RunSpec {
        faults: Some(&faults),
        ..RunSpec::new(params, scheme, &specs, SimTime::from_secs(10), seed)
    })
    .unwrap()
}

#[test]
fn conservation_holds_under_randomized_faults_for_every_registered_scheme() {
    for seed in 0..SEEDS {
        for scheme in schemes::registry() {
            let out = chaos_run(&scheme, seed);
            let c = out.conservation;
            assert!(c.holds(), "seed {seed}, {}: {c}", scheme.name());
            assert!(c.injected > 0, "seed {seed}: the run must inject traffic");
            assert_eq!(
                c.injected,
                c.delivered + c.dropped_total() + c.in_flight,
                "seed {seed}, {}: ledger must balance",
                scheme.name()
            );
            // The audit's per-port rows must agree with its totals.
            let audit = out.drops();
            let row_sum: u64 = audit
                .per_port()
                .iter()
                .flat_map(|(_, counts)| counts.iter())
                .sum();
            assert_eq!(row_sum, audit.total(), "seed {seed}: rows vs totals");
            assert_eq!(audit.totals().iter().sum::<u64>(), c.dropped_total());
            // Replicating schemes must actually have added replica flows
            // (the 50 KB flows qualify), and their packets sit in the same
            // ledger as everyone else's — the balance above covers them.
            if scheme.replication().is_some() {
                assert_eq!(
                    out.replicas.len(),
                    4,
                    "seed {seed}, {}: each short flow gets one replica",
                    scheme.name()
                );
                assert_eq!(out.flows.len(), 12, "8 primaries + 4 replicas");
                assert_eq!(out.effective_flows().len(), 8);
            } else {
                assert!(out.replicas.is_empty());
                assert_eq!(out.flows.len(), 8);
            }
        }
    }
}

#[test]
fn randomized_fault_runs_are_seed_deterministic() {
    let scheme = schemes::flowbender(flowbender::Config::default());
    let a = chaos_run(&scheme, 3);
    let b = chaos_run(&scheme, 3);
    assert_eq!(a.conservation, b.conservation);
    assert_eq!(a.events, b.events);
    assert_eq!(a.drops().per_port(), b.drops().per_port());
}
