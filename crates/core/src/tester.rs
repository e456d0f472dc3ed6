//! Random protocol tester (in the spirit of gem5's Ruby random tester).
//!
//! One of the two consumers of the shared [`crate::harness`]: drives the
//! real L1 and directory controllers through the harness's virtual
//! network, choosing adversarially random (but seeded, reproducible)
//! delivery orders — the bounded model checker in `ghostwriter-check` is
//! the other consumer, enumerating every order instead. The invariants
//! themselves live in [`crate::harness::System`]:
//!
//! * **SWMR** — at most one writable (E/M) copy of a block, and never a
//!   writable copy concurrently with readable (S) copies elsewhere;
//! * **directory accuracy** — at quiescence the sharer list / owner match
//!   the actual L1 states exactly;
//! * **data-value invariant** — at quiescence every Shared copy equals
//!   the L2's data (approximate GS/GI copies are exempt: their divergence
//!   is the paper's feature, not a bug);
//! * **single-writer data** — with one designated writer per address
//!   writing an increasing sequence, readers only ever observe values the
//!   writer wrote, in non-decreasing order (precise blocks only);
//! * **Ghostwriter containment** — GS/GI lines only on scribbled blocks,
//!   hidden-write counts within the §3.5 bound, the scribe comparator
//!   honoured on every hidden service;
//! * **liveness** — every issued access eventually completes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{BaseProtocol, GiStorePolicy};
use crate::harness::{trace_enabled, Op, System, SystemConfig};
use crate::l1::GwParams;
use crate::scribe::ScribePolicy;

/// Configuration of a fuzzing run.
#[derive(Clone, Copy, Debug)]
pub struct TesterConfig {
    /// Number of L1 caches / cores.
    pub cores: usize,
    /// Number of distinct blocks in the address pool.
    pub blocks: usize,
    /// Core accesses to issue in total.
    pub accesses: usize,
    /// L1 geometry (small to force evictions).
    pub l1_sets: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 geometry (small to force inclusion recalls).
    pub l2_sets: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Enable Ghostwriter states with this probability of scribbles.
    pub scribble_prob: f64,
    /// What a failing scribble does on a GI block (Ghostwriter runs).
    pub gi_stores: GiStorePolicy,
    /// Probability, per step, of firing a random core's GI-timeout sweep.
    pub gi_timeout_prob: f64,
    /// Bias towards delivering messages vs issuing new accesses.
    pub deliver_bias: f64,
    /// Base protocol family (MESI, MSI, MOESI, MOSI or MESIF).
    pub base: BaseProtocol,
}

impl Default for TesterConfig {
    fn default() -> Self {
        Self {
            cores: 4,
            blocks: 12,
            accesses: 400,
            l1_sets: 2,
            l1_ways: 2,
            l2_sets: 4,
            l2_ways: 2,
            scribble_prob: 0.0,
            gi_stores: GiStorePolicy::Fallback,
            gi_timeout_prob: 0.0,
            deliver_bias: 0.7,
            base: BaseProtocol::Mesi,
        }
    }
}

impl TesterConfig {
    /// The configuration of seed `seed` in a multi-seed sweep (the
    /// `protocol_fuzz` cell and the long sweep): the seed picks the core
    /// count, pool size, geometry, scribbling, GI store policy, timeout
    /// rate, delivery bias and base protocol, so a range of seeds walks
    /// every protocol under many shapes.
    pub fn seeded(seed: u64, accesses: usize) -> Self {
        Self {
            cores: 2 + (seed % 7) as usize,
            blocks: 8 + (seed % 29) as usize,
            accesses,
            l1_sets: 1 << (seed % 3),
            l1_ways: 2,
            l2_sets: 2 << (seed % 2),
            l2_ways: 2,
            scribble_prob: if seed.is_multiple_of(3) { 0.4 } else { 0.0 },
            gi_stores: if seed.is_multiple_of(6) {
                GiStorePolicy::Capture
            } else {
                GiStorePolicy::Fallback
            },
            gi_timeout_prob: if seed.is_multiple_of(5) { 0.02 } else { 0.0 },
            deliver_bias: 0.5 + (seed % 5) as f64 * 0.1,
            base: BaseProtocol::ALL[(seed % 5) as usize],
        }
    }

    /// The harness shape this fuzz configuration drives.
    pub fn system(&self) -> SystemConfig {
        let gw = (self.scribble_prob > 0.0).then_some(GwParams {
            scribe: ScribePolicy::Bitwise,
            enable_gs: true,
            enable_gi: true,
            gi_stores: self.gi_stores,
            max_hidden_writes: None,
        });
        SystemConfig {
            cores: self.cores,
            blocks: self.blocks,
            l1_sets: self.l1_sets,
            l1_ways: self.l1_ways,
            l2_sets: self.l2_sets,
            l2_ways: self.l2_ways,
            gw,
            base: self.base,
            disabled_row: None,
            recovery: None,
        }
    }
}

/// What the tester observed; returned for assertions and reporting.
#[derive(Debug, Default)]
pub struct TesterReport {
    /// Accesses issued and completed.
    pub completed: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Invariant-check passes performed: the final quiescence check,
    /// plus one SWMR pass on every loop iteration that ends with the
    /// issue count at a multiple of 16. Deliveries do not move that
    /// count, so the pass repeats on each iteration until the next
    /// issue; this counts iterations, not distinct issue counts.
    pub checks: usize,
    /// GI lines returned to I by timeout sweeps.
    pub gi_timeouts: u64,
}

/// The random protocol tester. Panics on any invariant violation
/// (controller panics propagate too, catching unhandled races).
///
/// ```
/// use ghostwriter_core::tester::{ProtocolTester, TesterConfig};
/// let report = ProtocolTester::new(TesterConfig::default(), 7).run();
/// assert_eq!(report.completed, TesterConfig::default().accesses);
/// ```
pub struct ProtocolTester {
    cfg: TesterConfig,
    rng: StdRng,
    sys: System,
    issued: usize,
    checks: usize,
}

impl ProtocolTester {
    /// Builds a tester with `seed`-reproducible randomness.
    pub fn new(cfg: TesterConfig, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            sys: System::new(cfg.system()),
            issued: 0,
            checks: 0,
            cfg,
        }
    }

    /// Issues a random access on an idle core.
    fn issue(&mut self) {
        let idle = self.sys.idle_cores().count();
        if idle == 0 {
            return;
        }
        let k = self.rng.gen_range(0..idle);
        let core = self.sys.idle_cores().nth(k).expect("k < idle count");
        let b = self.rng.gen_range(0..self.cfg.blocks);
        let op = if self.rng.gen_bool(0.5) {
            // Read any writer's slot in the block.
            Op::Load {
                writer: self.rng.gen_range(0..self.cfg.cores),
            }
        } else if self.rng.gen_bool(self.cfg.scribble_prob) {
            Op::Scribble { d: 4 }
        } else {
            Op::Store
        };
        if trace_enabled() {
            eprintln!("issue core {core} {op:?} on block {b}");
        }
        self.issued += 1;
        if let Err(v) = self.sys.issue(core, b, op) {
            panic!("invariant violated on issue {op:?} at core {core}: {v}");
        }
    }

    /// Delivers one random in-flight message (FIFO within its channel).
    fn deliver(&mut self) -> bool {
        let channels = self.sys.channel_keys().count();
        if channels == 0 {
            return false;
        }
        let k = self.rng.gen_range(0..channels);
        let key = self.sys.channel_keys().nth(k).expect("k < channel count");
        if let Err(v) = self.sys.deliver(key) {
            panic!("invariant violated delivering on channel {key:?}: {v}");
        }
        true
    }

    /// Runs the full fuzz schedule and the end-of-run checks.
    pub fn run(mut self) -> TesterReport {
        while self.issued < self.cfg.accesses {
            if self.rng.gen_bool(self.cfg.deliver_bias) {
                if !self.deliver() {
                    self.issue();
                }
            } else {
                self.issue();
            }
            if self.cfg.gi_timeout_prob > 0.0 && self.rng.gen_bool(self.cfg.gi_timeout_prob) {
                let core = self.rng.gen_range(0..self.cfg.cores);
                if let Err(v) = self.sys.gi_timeout(core) {
                    panic!("invariant violated in GI-timeout sweep on core {core}: {v}");
                }
            }
            if self.issued.is_multiple_of(16) {
                self.checks += 1;
                if let Err(v) = self.sys.check_swmr() {
                    panic!("invariant violated after {} accesses: {v}", self.issued);
                }
            }
        }
        // Drain: deliver everything until the system is quiescent.
        let mut guard = 0u32;
        while self.deliver() {
            guard += 1;
            assert!(guard < 1_000_000, "network never drained (livelock)");
        }
        assert!(self.sys.quiescent(), "accesses never completed");
        self.checks += 1;
        if let Err(v) = self.sys.check_quiescent() {
            panic!("invariant violated at quiescence: {v}");
        }
        TesterReport {
            completed: self.sys.completed(),
            messages: self.sys.messages(),
            checks: self.checks,
            gi_timeouts: self.sys.stats().gi_timeouts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesi_fuzz_small() {
        let report = ProtocolTester::new(TesterConfig::default(), 42).run();
        assert_eq!(report.completed, 400);
        assert!(report.messages > 0);
    }

    #[test]
    fn mesi_fuzz_many_seeds() {
        for seed in 0..20 {
            let report = ProtocolTester::new(TesterConfig::default(), seed).run();
            assert_eq!(report.completed, 400, "seed {seed}");
        }
    }

    #[test]
    fn fuzz_with_tiny_caches_forces_evictions_and_recalls() {
        let cfg = TesterConfig {
            cores: 6,
            blocks: 24,
            accesses: 600,
            l1_sets: 1,
            l1_ways: 2,
            l2_sets: 2,
            l2_ways: 2,
            ..TesterConfig::default()
        };
        for seed in 0..10 {
            ProtocolTester::new(cfg, 1000 + seed).run();
        }
    }

    #[test]
    fn msi_fuzz_passes_the_same_invariants() {
        for seed in 0..10 {
            let cfg = TesterConfig {
                base: BaseProtocol::Msi,
                ..TesterConfig::default()
            };
            let report = ProtocolTester::new(cfg, 3000 + seed).run();
            assert_eq!(report.completed, 400, "seed {seed}");
        }
    }

    #[test]
    fn protocol_family_fuzz_passes_the_same_invariants() {
        // Every base protocol of the ladder survives the same random
        // walks under the full invariant battery.
        for base in [BaseProtocol::Moesi, BaseProtocol::Mosi, BaseProtocol::Mesif] {
            for seed in 0..10 {
                let cfg = TesterConfig {
                    base,
                    ..TesterConfig::default()
                };
                let report = ProtocolTester::new(cfg, 6000 + seed).run();
                assert_eq!(report.completed, 400, "{} seed {seed}", base.name());
            }
        }
    }

    #[test]
    fn ghostwriter_over_moesi_fuzz_holds() {
        // GW composes over MOESI: scribbles plus dirty sharing in the
        // same runs, all structural invariants intact.
        let cfg = TesterConfig {
            base: BaseProtocol::Moesi,
            scribble_prob: 0.5,
            accesses: 600,
            ..TesterConfig::default()
        };
        for seed in 0..10 {
            ProtocolTester::new(cfg, 7000 + seed).run();
        }
    }

    #[test]
    fn ghostwriter_fuzz_structural_invariants_hold() {
        // With scribbles in the mix the value oracle relaxes on the
        // scribbled blocks, but SWMR, directory accuracy, containment
        // and liveness must still hold.
        let cfg = TesterConfig {
            scribble_prob: 0.5,
            accesses: 600,
            ..TesterConfig::default()
        };
        for seed in 0..10 {
            ProtocolTester::new(cfg, 2000 + seed).run();
        }
    }

    #[test]
    fn ghostwriter_fuzz_with_capture_policy() {
        // Capture keeps failing scribbles on GI blocks local instead of
        // falling back to GETX; all structural invariants must survive.
        let cfg = TesterConfig {
            scribble_prob: 0.5,
            gi_stores: GiStorePolicy::Capture,
            accesses: 600,
            ..TesterConfig::default()
        };
        for seed in 0..10 {
            ProtocolTester::new(cfg, 4000 + seed).run();
        }
    }

    #[test]
    fn gi_timeout_sweeps_return_gi_blocks_to_invalid() {
        // With frequent timeouts and heavy scribbling, GI lines must be
        // reclaimed by the timeout path (GI → I) and the run must stay
        // invariant-clean. Across this seed range the sweeps always
        // catch at least one live GI line.
        let cfg = TesterConfig {
            scribble_prob: 0.7,
            gi_timeout_prob: 0.05,
            accesses: 600,
            ..TesterConfig::default()
        };
        let mut total_timeouts = 0;
        for seed in 0..10 {
            let report = ProtocolTester::new(cfg, 5000 + seed).run();
            assert_eq!(report.completed, 600, "seed {seed}");
            total_timeouts += report.gi_timeouts;
        }
        assert!(
            total_timeouts > 0,
            "no GI line was ever reclaimed by a timeout sweep"
        );
    }

    /// Every report field of the smoke-scale `protocol_fuzz` sweep (20
    /// seeds of 200 accesses), one row per seed. The tester's choices
    /// are its RNG draws, so a change to how many draws it makes, or in
    /// what order, moves these counts; the Eval-scale message total in
    /// `results/protocol_fuzz.txt` would catch it only in the full
    /// reproduction.
    #[test]
    fn smoke_sweep_reports_are_pinned() {
        const PINNED: [(usize, usize, usize, u64); 20] = [
            (200, 1166, 126, 0),
            (200, 758, 65, 0),
            (200, 988, 118, 0),
            (200, 933, 47, 0),
            (200, 936, 68, 0),
            (200, 814, 103, 0),
            (200, 923, 57, 0),
            (200, 1040, 120, 0),
            (200, 936, 72, 0),
            (200, 1209, 128, 0),
            (200, 926, 102, 0),
            (200, 819, 76, 0),
            (200, 977, 93, 0),
            (200, 1117, 102, 0),
            (200, 1348, 84, 0),
            (200, 936, 142, 0),
            (200, 1289, 232, 0),
            (200, 854, 58, 0),
            (200, 1183, 133, 0),
            (200, 965, 76, 0),
        ];
        for (seed, &want) in PINNED.iter().enumerate() {
            let seed = seed as u64;
            let r = ProtocolTester::new(TesterConfig::seeded(seed, 200), seed).run();
            let got = (r.completed, r.messages, r.checks, r.gi_timeouts);
            assert_eq!(
                got, want,
                "seed {seed}: (completed, messages, checks, gi_timeouts)"
            );
        }
    }
}

#[cfg(test)]
mod long_fuzz {
    use super::*;

    /// Heavy sweep (run with `--ignored`): many seeds across stressful
    /// geometries, with and without scribbles, both GI store policies
    /// and occasional timeout sweeps.
    #[test]
    #[ignore]
    fn thousand_seed_sweep() {
        for seed in 0..500u64 {
            let cfg = TesterConfig::seeded(seed, 500);
            ProtocolTester::new(cfg, seed).run();
        }
    }
}
