//! Bounded, exhaustive model checker for the MESI/MSI + GS/GI protocol.
//!
//! Where the random walker in `ghostwriter_core::tester` samples one
//! message interleaving per seed, this checker enumerates *every*
//! interleaving of a small configuration — 2–3 cores, 1–2 blocks,
//! bounded per-core access programs — subject only to the per-(src, dst)
//! FIFO ordering the real NoC guarantees. It drives the *real*
//! [`ghostwriter_core::l1::L1Cache`] and [`ghostwriter_core::dir::DirBank`]
//! controllers through the shared [`ghostwriter_core::harness::System`];
//! there is no re-specification of the protocol that could drift from
//! the implementation.
//!
//! The search is a depth-first enumeration with visited-set pruning on a
//! canonical state fingerprint (L1 states + directory entries + in-flight
//! message channels + oracle bookkeeping; see [`System::fingerprint`]).
//! Every transition re-checks the any-time invariants (SWMR, Ghostwriter
//! containment, the value oracle, the scribe error bound); every
//! terminal state is either quiescent — and then checked against the
//! directory-accuracy and data-value invariants — or reported as a
//! deadlock.
//!
//! On violation the checker emits a [`Counterexample`]: the action trace
//! from the initial state, shrunk ([`Space::shrink`]) and
//! deterministically replayable ([`Space::replay`]) so a failure
//! reproduces as a plain `#[test]`. [`Mutation`] fault injection
//! (dropping or forging protocol messages in the harness network)
//! exists to prove the checker can actually catch protocol bugs.
//!
//! There is one search engine, [`Space`] (see [`shard`]); the unified
//! sweep and the per-program [`sweep`] are two strategies over it.

use ghostwriter_core::harness::{Op, System, SystemConfig, Violation};
use ghostwriter_core::l1::GwParams;
use ghostwriter_core::proto::find_row;
use ghostwriter_core::{BaseProtocol, Coverage, GiStorePolicy, RecoveryParams, ScribePolicy};

pub mod shard;
pub mod trace;

pub use shard::{run_sweep, ShardLog, ShardOptions, Space, SweepOutcome, SweepSpec};
pub use trace::{decode_trace, encode_trace};

/// One step of a core's access program: an operation against a pool
/// block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Step {
    pub block: usize,
    pub op: Op,
}

/// A bounded access program: one step sequence per core.
pub type Program = Vec<Vec<Step>>;

/// One scheduling decision of the checker — the alphabet whose
/// interleavings the search enumerates.
///
/// `Issue` carries the step it issues, so a trace alone determines the
/// access program it exercises: counterexamples from the unified search
/// and from per-program checks share one format, one renderer and one
/// replay path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// `core` issues `step` (enabled while the core is idle and has
    /// program budget left).
    Issue { core: usize, step: Step },
    /// Deliver the head of the (src, dst) FIFO channel.
    Deliver { src: usize, dst: usize },
    /// Fire `core`'s periodic GI-timeout sweep (enabled while the core
    /// holds a GI line).
    GiTimeout { core: usize },
    /// Bounded-fault mode: drop the head of the (src, dst) channel
    /// (enabled on the unreliable virtual channel while fault budget
    /// remains).
    Drop { src: usize, dst: usize },
    /// Bounded-fault mode: re-enqueue a copy of the head of the
    /// (src, dst) channel (a network duplicate).
    Duplicate { src: usize, dst: usize },
    /// Bounded-fault mode: mark the head of the (src, dst) channel
    /// corrupt (a payload bit-flip the receiver's ECC detects).
    Corrupt { src: usize, dst: usize },
    /// Bounded-fault mode: fire `core`'s retry timeout (enabled while
    /// the core has an outstanding request and no message for it is in
    /// flight — i.e. exactly when recovery is the only way forward).
    Retry { core: usize },
}

/// Short rendering of one program step (`St b0`, `Ld(w1) b0`,
/// `Sc(d4) b1`).
pub fn describe_step(step: Step) -> String {
    match step.op {
        Op::Store => format!("St b{}", step.block),
        Op::Load { writer } => format!("Ld(w{writer}) b{}", step.block),
        Op::Scribble { d } => format!("Sc(d{d}) b{}", step.block),
    }
}

impl Action {
    /// Human-readable rendering, decoding node keys with `cores`.
    pub fn describe(&self, cores: usize) -> String {
        let ep = |k: usize| {
            if k < cores {
                format!("L1({k})")
            } else if k < 2 * cores {
                format!("Dir({})", k - cores)
            } else {
                format!("Mem({})", k - 2 * cores)
            }
        };
        match self {
            Action::Issue { core, step } => {
                format!("issue   core {core}: {}", describe_step(*step))
            }
            Action::Deliver { src, dst } => {
                format!("deliver {} -> {}", ep(*src), ep(*dst))
            }
            Action::GiTimeout { core } => format!("timeout core {core}"),
            Action::Drop { src, dst } => {
                format!("drop    {} -> {}", ep(*src), ep(*dst))
            }
            Action::Duplicate { src, dst } => {
                format!("dup     {} -> {}", ep(*src), ep(*dst))
            }
            Action::Corrupt { src, dst } => {
                format!("corrupt {} -> {}", ep(*src), ep(*dst))
            }
            Action::Retry { core } => format!("retry   core {core}"),
        }
    }
}

/// A deliberately injected protocol bug, applied at the network layer so
/// the real controllers stay untouched. Used to demonstrate that the
/// checker finds real violations and shrinks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// An INV delivery is lost but its INV_ACK is forged: the directory
    /// believes the sharer invalidated while it still holds S — the
    /// classic skipped-invalidation bug (breaks SWMR / data-value).
    SkipInvalidation,
    /// An INV_ACK delivery is silently lost: the directory waits for an
    /// acknowledgement that never arrives (breaks liveness).
    DropInvAck,
    /// The named transition-table row is deleted from the protocol: the
    /// first time a controller dispatches through it, it raises a
    /// [`ghostwriter_core::ProtocolError`] instead (caught by the
    /// checker as an invariant violation and shrunk like any other).
    DeleteRow(&'static str),
}

impl Mutation {
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(name) = s.strip_prefix("delete-row:") {
            return find_row(name).map(|row| Self::DeleteRow(row.name()));
        }
        match s {
            "skip-inv" => Some(Self::SkipInvalidation),
            "drop-inv-ack" => Some(Self::DropInvAck),
            _ => None,
        }
    }

    /// The canonical command-line token, the exact inverse of
    /// [`Mutation::parse`] (used in cache keys and replay commands).
    pub fn token(&self) -> String {
        match self {
            Self::SkipInvalidation => "skip-inv".into(),
            Self::DropInvAck => "drop-inv-ack".into(),
            Self::DeleteRow(name) => format!("delete-row:{name}"),
        }
    }
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.token())
    }
}

/// Remaining per-core issue budgets, plus the fault budget left in
/// bounded-fault mode, packed 4 bits per slot (slot `i` in bits
/// `4i..4i + 4`, so at most 16 slots of at most 15 each). A `Copy`
/// value: a search forks it for free, and it keys the visited set as
/// it is, next to the system fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Budgets(u64);

impl Budgets {
    /// Packs `slots` in order.
    ///
    /// # Panics
    /// Panics on more than 16 slots or a slot above 15.
    pub(crate) fn new(slots: impl IntoIterator<Item = usize>) -> Self {
        let mut packed = 0;
        for (i, left) in slots.into_iter().enumerate() {
            assert!(
                i < 16 && left <= 15,
                "budgets pack into at most 16 slots of 4 bits"
            );
            packed |= (left as u64) << (4 * i);
        }
        Self(packed)
    }

    /// Budget left in slot `i`.
    pub(crate) fn get(self, i: usize) -> usize {
        ((self.0 >> (4 * i)) & 0xF) as usize
    }

    /// Spends one unit of slot `i`, which must be non-zero.
    pub(crate) fn spend(&mut self, i: usize) {
        debug_assert!(self.get(i) > 0, "slot {i} already spent");
        self.0 -= 1 << (4 * i);
    }

    /// True once each of the first `n` slots is spent.
    pub(crate) fn drained(self, n: usize) -> bool {
        (0..n).all(|i| self.get(i) == 0)
    }

    /// The packed bits (the visited-set key's second half).
    pub(crate) fn bits(self) -> u64 {
        self.0
    }
}

/// Pairs each of `actions` with the state it applies to: a clone of
/// `state` for every action but the last, which gets `state` itself.
/// A breadth-first search, which keeps each successor, thus forks one
/// time fewer per state than it has successors. (The depth-first
/// search does the same in place, through `&mut`, so that no `System`
/// is moved through its stack frames.)
pub(crate) fn forks(state: System, actions: Vec<Action>) -> impl Iterator<Item = (Action, System)> {
    let last = actions.len().saturating_sub(1);
    let mut state = Some(state);
    actions.into_iter().enumerate().map(move |(i, action)| {
        let fork = if i == last {
            state.take()
        } else {
            state.clone()
        };
        (
            action,
            fork.expect("the state moves out at the last action only"),
        )
    })
}

/// The recovery parameters a fault budget of `k` turns on: the checker
/// profile, with the retry budget widened to cover `k` (every dropped
/// message may cost one retry, and the exhaustive sweep must not trip
/// `retry_exhausted` spuriously).
pub(crate) fn recovery_for_budget(k: usize) -> RecoveryParams {
    RecoveryParams {
        max_retries: (k as u32).max(RecoveryParams::checker().max_retries),
        ..RecoveryParams::checker()
    }
}

/// How an explored trace failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// A harness invariant reported a violation.
    Invariant(Violation),
    /// A terminal state that is not a completed quiescent run: some
    /// core waits forever.
    Deadlock { busy_cores: Vec<usize> },
    /// A controller panicked (an unhandled protocol race).
    Panic(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Invariant(v) => write!(f, "invariant violation: {v}"),
            Failure::Deadlock { busy_cores } => {
                write!(f, "deadlock: cores {busy_cores:?} blocked forever")
            }
            Failure::Panic(msg) => write!(f, "controller panic: {msg}"),
        }
    }
}

/// A failing action trace from the initial state, with its failure.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub trace: Vec<Action>,
    pub failure: Failure,
    /// How many leading actions of `trace` are the shard prefix the
    /// sharded sweep split the search at (0 for unsharded searches and
    /// after shrinking, which erases the shard structure).
    pub prefix_len: usize,
}

impl Counterexample {
    pub fn new(trace: Vec<Action>, failure: Failure) -> Self {
        Self {
            trace,
            failure,
            prefix_len: 0,
        }
    }

    /// Pretty multi-line rendering for CLI / panic messages. Actions
    /// inside the shard prefix are marked, so a trace that came out of
    /// the sharded sweep shows where frontier splitting ended and the
    /// shard-local search began.
    pub fn render(&self, cores: usize) -> String {
        let mut s = String::new();
        for (i, a) in self.trace.iter().enumerate() {
            let mark = if i < self.prefix_len {
                "  [shard prefix]"
            } else {
                ""
            };
            s.push_str(&format!("  {i:>3}. {}{mark}\n", a.describe(cores)));
        }
        s.push_str(&format!("  => {}\n", self.failure));
        s
    }
}

/// Outcome of one bounded search ([`Space::check`]).
#[derive(Debug)]
pub struct CheckReport {
    /// Distinct states visited (after fingerprint dedup).
    pub states: usize,
    /// Transitions applied (including ones into already-visited states).
    pub transitions: usize,
    /// Deepest trace explored.
    pub max_depth: usize,
    /// True if the depth or state bound cut the search short — the space
    /// was *not* exhausted.
    pub truncated: bool,
    /// Union of the transition-table rows exercised anywhere in the
    /// explored state space (union over all DFS branches; counts are an
    /// over-approximation, zero/non-zero is exact).
    pub coverage: Coverage,
    /// First failure found, already shrunk, if any.
    pub counterexample: Option<Counterexample>,
}

// ---------------------------------------------------------------------
// Configuration + program enumeration helpers (shared by tests and the
// gwcheck CLI).
// ---------------------------------------------------------------------

/// Which protocol family a sweep exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    Mesi,
    Msi,
    Moesi,
    Mosi,
    Mesif,
    Ghostwriter,
    /// Ghostwriter's GS/GI rows composed over the MOESI base.
    GhostwriterMoesi,
}

impl ProtocolKind {
    /// Every checkable protocol, in sweep order.
    pub const ALL: [ProtocolKind; 7] = [
        Self::Mesi,
        Self::Msi,
        Self::Moesi,
        Self::Mosi,
        Self::Mesif,
        Self::Ghostwriter,
        Self::GhostwriterMoesi,
    ];

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mesi" => Some(Self::Mesi),
            "msi" => Some(Self::Msi),
            "moesi" => Some(Self::Moesi),
            "mosi" => Some(Self::Mosi),
            "mesif" => Some(Self::Mesif),
            "gw" | "ghostwriter" => Some(Self::Ghostwriter),
            "gw-moesi" | "ghostwriter-moesi" => Some(Self::GhostwriterMoesi),
            _ => None,
        }
    }

    /// Canonical command-line token (inverse of [`ProtocolKind::parse`],
    /// used in cache keys and replay commands).
    pub fn token(&self) -> &'static str {
        match self {
            Self::Mesi => "mesi",
            Self::Msi => "msi",
            Self::Moesi => "moesi",
            Self::Mosi => "mosi",
            Self::Mesif => "mesif",
            Self::Ghostwriter => "gw",
            Self::GhostwriterMoesi => "gw-moesi",
        }
    }

    /// The base row-set family this kind runs on.
    pub fn base(&self) -> BaseProtocol {
        match self {
            Self::Msi => BaseProtocol::Msi,
            Self::Moesi | Self::GhostwriterMoesi => BaseProtocol::Moesi,
            Self::Mosi => BaseProtocol::Mosi,
            Self::Mesif => BaseProtocol::Mesif,
            Self::Mesi | Self::Ghostwriter => BaseProtocol::Mesi,
        }
    }
}

/// Smallest power of two ≥ `n` (cache geometries must be powers of two).
fn pow2_at_least(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// A minimal system shape for model checking: single-set caches just big
/// enough to hold the pool (evictions and recalls are exercised by the
/// deeper sweeps that shrink the geometry instead).
pub fn check_config(kind: ProtocolKind, cores: usize, blocks: usize) -> SystemConfig {
    let gw = matches!(
        kind,
        ProtocolKind::Ghostwriter | ProtocolKind::GhostwriterMoesi
    )
    .then_some(GwParams {
        scribe: ScribePolicy::Bitwise,
        enable_gs: true,
        enable_gi: true,
        gi_stores: GiStorePolicy::Fallback,
        max_hidden_writes: Some(3),
    });
    SystemConfig {
        cores,
        blocks,
        l1_sets: 1,
        l1_ways: pow2_at_least(blocks.min(2)),
        l2_sets: 1,
        l2_ways: pow2_at_least(blocks),
        gw,
        base: kind.base(),
        disabled_row: None,
        recovery: None,
    }
}

/// The per-step alphabet for a sweep: every op × every pool block.
/// Loads read every core's slot; Ghostwriter configs add scribbles.
pub fn step_alphabet(kind: ProtocolKind, cores: usize, blocks: usize) -> Vec<Step> {
    let mut ops = vec![Op::Store];
    for writer in 0..cores {
        ops.push(Op::Load { writer });
    }
    if matches!(
        kind,
        ProtocolKind::Ghostwriter | ProtocolKind::GhostwriterMoesi
    ) {
        ops.push(Op::Scribble { d: 4 });
    }
    let mut steps = Vec::new();
    for block in 0..blocks {
        for &op in &ops {
            steps.push(Step { block, op });
        }
    }
    steps
}

/// Every program assigning each of `cores` cores a sequence of
/// `len` steps from `alphabet` — the |alphabet|^(cores·len) cartesian
/// product, enumerated in mixed-radix order.
pub fn enumerate_programs(alphabet: &[Step], cores: usize, len: usize) -> Vec<Program> {
    let digits = cores * len;
    let radix = alphabet.len();
    let total = radix.checked_pow(digits as u32).expect("sweep too large");
    (0..total)
        .map(|mut idx| {
            (0..cores)
                .map(|_| {
                    (0..len)
                        .map(|_| {
                            let s = alphabet[idx % radix];
                            idx /= radix;
                            s
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Outcome of sweeping a whole program family.
#[derive(Debug, Default)]
pub struct SweepReport {
    pub programs: usize,
    pub states: usize,
    pub transitions: usize,
    pub truncated: bool,
    /// Union of the per-program [`CheckReport::coverage`] unions.
    pub coverage: Coverage,
    pub counterexample: Option<(Program, Counterexample)>,
}

/// Exhaustively checks every interleaving of every program of
/// `ops_per_core` steps per core, one [`Space::program`] search per
/// program — the per-program strategy the unified search is checked
/// against. Stops at the first failure.
pub fn sweep(
    kind: ProtocolKind,
    cores: usize,
    blocks: usize,
    ops_per_core: usize,
    explore_gi_timeouts: bool,
    mutation: Option<Mutation>,
) -> SweepReport {
    let spec = SweepSpec {
        gi_timeouts: explore_gi_timeouts,
        mutation,
        ..SweepSpec::new(kind, cores, blocks, ops_per_core)
    };
    let mut report = SweepReport::default();
    for program in enumerate_programs(&spec.alphabet(), cores, ops_per_core) {
        let r = Space::program(&spec, &program).check();
        report.programs += 1;
        report.states += r.states;
        report.transitions += r.transitions;
        report.truncated |= r.truncated;
        report.coverage.merge(&r.coverage);
        if let Some(cex) = r.counterexample {
            report.counterexample = Some((program, cex));
            return report;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core_program(a: &[(usize, Op)], b: &[(usize, Op)]) -> Program {
        let conv = |steps: &[(usize, Op)]| {
            steps
                .iter()
                .map(|&(block, op)| Step { block, op })
                .collect::<Vec<_>>()
        };
        vec![conv(a), conv(b)]
    }

    /// The MESI 2c/1b spec of these tests' programs (at most two steps
    /// per core), with `mutation`.
    fn mesi_spec(mutation: Option<Mutation>) -> SweepSpec {
        SweepSpec {
            mutation,
            ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
        }
    }

    #[test]
    fn single_store_explores_and_passes() {
        let program = two_core_program(&[(0, Op::Store)], &[]);
        let report = Space::program(&mesi_spec(None), &program).check();
        assert!(report.counterexample.is_none());
        assert!(!report.truncated);
        assert!(report.states > 1);
    }

    #[test]
    fn conflicting_writers_explore_cleanly() {
        // Both cores store the same block: the full upgrade/invalidate
        // race space must stay invariant-clean.
        let program = two_core_program(
            &[(0, Op::Store), (0, Op::Store)],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let report = Space::program(&mesi_spec(None), &program).check();
        assert!(
            report.counterexample.is_none(),
            "{}",
            report.counterexample.unwrap().render(2)
        );
        assert!(!report.truncated);
        // The race has genuinely many interleavings.
        assert!(report.states > 100, "only {} states", report.states);
    }

    #[test]
    fn replay_reproduces_search_failures_deterministically() {
        // Store-then-load demotes the owner to a sharer; the second
        // store's UPGRADE generates the INV the mutation corrupts.
        let program = two_core_program(
            &[(0, Op::Load { writer: 1 })],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let checker = Space::program(&mesi_spec(Some(Mutation::SkipInvalidation)), &program);
        let report = checker.check();
        let cex = report.counterexample.expect("mutation must be caught");
        for _ in 0..3 {
            let f = checker.replay(&cex.trace).expect("replay reproduces");
            assert!(
                matches!(f, Failure::Invariant(_) | Failure::Deadlock { .. }),
                "unexpected failure class: {f}"
            );
        }
    }

    #[test]
    fn skipped_invalidation_caught_and_shrunk_short() {
        // The acceptance-criteria test: a seeded skipped-invalidation
        // bug is found by exhaustive search and the shrunk
        // counterexample replays in at most 20 steps.
        let program = two_core_program(
            &[(0, Op::Load { writer: 1 })],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let checker = Space::program(&mesi_spec(Some(Mutation::SkipInvalidation)), &program);
        let report = checker.check();
        let cex = report
            .counterexample
            .expect("skipped invalidation must violate an invariant");
        assert!(
            cex.trace.len() <= 20,
            "shrunk counterexample too long:\n{}",
            cex.render(2)
        );
        assert!(
            checker.replay(&cex.trace).is_some(),
            "shrunk trace must still reproduce"
        );
    }

    #[test]
    fn dropped_inv_ack_deadlocks() {
        let program = two_core_program(
            &[(0, Op::Load { writer: 1 })],
            &[(0, Op::Store), (0, Op::Store)],
        );
        let checker = Space::program(&mesi_spec(Some(Mutation::DropInvAck)), &program);
        let report = checker.check();
        let cex = report.counterexample.expect("lost ack must deadlock");
        assert!(
            matches!(cex.failure, Failure::Deadlock { .. }),
            "expected deadlock, got: {}",
            cex.failure
        );
        assert!(cex.trace.len() <= 20, "{}", cex.render(2));
    }

    #[test]
    fn program_enumeration_is_the_full_product() {
        let alphabet = step_alphabet(ProtocolKind::Mesi, 2, 1);
        assert_eq!(alphabet.len(), 3); // Store, Load{0}, Load{1}
        let programs = enumerate_programs(&alphabet, 2, 2);
        assert_eq!(programs.len(), 81); // 3^(2*2)
        let unique: std::collections::HashSet<_> = programs.iter().collect();
        assert_eq!(unique.len(), 81);
    }
}
