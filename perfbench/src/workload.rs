//! The benchmark's workloads and the inputs each one draws from a seed.

use experiments::Window;
use netsim::{DetRng, FlowSpec, SimTime};
use topology::FatTreeParams;

/// Offered load: average pod-uplink utilization, the paper's x-axis.
pub const LOAD: f64 = 0.3;

/// In-window flows every sub-run holds at least.
pub const MIN_IN_WINDOW: usize = 1000;

/// RNG stream tag of the flow generator (the seed is the benchmark's).
const STREAM_TAG: u64 = 0xBE_7C4;

/// One named workload. Why each exists is in `BENCHMARK.json` and the
/// README.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Fat-tree arity (hosts = k³/4).
    pub k: usize,
    /// Traffic slug from the `workloads` registry.
    pub traffic: &'static str,
    /// Engine shard count (1 = the classic engine).
    pub shards: usize,
    /// Independent sub-runs per run; FCT metrics pool their samples.
    pub subruns: u64,
    /// Offered bytes per sub-run: arrivals stop once they reach this.
    pub byte_budget: u64,
    /// Generation horizon; the budget must be reached before it.
    pub horizon: SimTime,
    /// Simulated time after the last arrival for in-window flows to finish.
    pub drain: SimTime,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "websearch-k16",
        k: 16,
        traffic: "websearch",
        shards: 1,
        subruns: 5,
        byte_budget: 1_200_000_000,
        horizon: SimTime::from_ms(10),
        // Web-search flows reach 100 MB: 80 ms alone at line rate.
        drain: SimTime::from_ms(200),
    },
    Workload {
        name: "websearch-k16-s2",
        k: 16,
        traffic: "websearch",
        shards: 2,
        subruns: 5,
        byte_budget: 1_200_000_000,
        horizon: SimTime::from_ms(10),
        drain: SimTime::from_ms(200),
    },
    Workload {
        name: "incast32-k8",
        k: 8,
        traffic: "incast:32",
        shards: 1,
        subruns: 8,
        byte_budget: 500_000_000,
        horizon: SimTime::from_ms(30),
        drain: SimTime::from_ms(100),
    },
];

/// The seed of sub-run `sub` of a run at `seed` (splitmix64 finalizer,
/// so neighbouring seeds and sub-runs draw unrelated inputs).
pub fn sub_seed(seed: u64, sub: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(sub.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).copied()
}

/// What one run simulates: the flows and their measurement window.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub params: FatTreeParams,
    pub specs: Vec<FlowSpec>,
    pub window: Window,
}

impl Workload {
    /// Generate this workload's inputs for `seed`: the registry
    /// generator's open-loop Poisson arrivals at [`LOAD`], cut before the
    /// first arrival instant at which offered bytes reach the budget and
    /// the window holds [`MIN_IN_WINDOW`] flows (a partition-aggregate job
    /// is kept or dropped whole). The window is the arrivals before the
    /// cut minus a 10 % warm-up; the run drains for [`Workload::drain`]
    /// more.
    pub fn inputs(&self, seed: u64) -> Result<Inputs, String> {
        let params = FatTreeParams::k_ary(self.k)?;
        let wl = workloads::find(self.traffic)
            .ok_or_else(|| format!("unknown traffic `{}`", self.traffic))?;
        let mut rng = DetRng::new(seed, STREAM_TAG);
        let mut specs = wl.generate(&params, LOAD, self.horizon, &mut rng);
        let mut offered = 0u64;
        let cut = specs
            .iter()
            .enumerate()
            .find(|&(i, s)| {
                offered += s.bytes;
                let warm = SimTime::from_ps(s.start.as_ps() / 10);
                offered >= self.byte_budget
                    && specs[..i].partition_point(|f| f.start < s.start)
                        - specs.partition_point(|f| f.start < warm)
                        >= MIN_IN_WINDOW
            })
            .map(|(_, s)| s.start)
            .ok_or_else(|| {
                format!(
                    "{}: {offered} bytes offered by {:?}, budget {}",
                    self.name, self.horizon, self.byte_budget
                )
            })?;
        specs.retain(|s| s.start < cut);
        if specs.iter().enumerate().any(|(i, s)| s.id as usize != i) {
            return Err(format!("{}: flow ids are not dense 0..n", self.name));
        }
        Ok(Inputs {
            params,
            specs,
            window: Window::for_duration(cut, self.drain),
        })
    }
}
