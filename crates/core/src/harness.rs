//! Shared protocol-exercising harness: the virtual network plus the
//! controller-stepping and invariant-checking machinery used by both the
//! random walker ([`crate::tester`]) and the bounded model checker
//! (`ghostwriter-check`).
//!
//! The full machine is timing-deterministic, so it only ever explores one
//! message interleaving per program. This harness instead drives the
//! *same* L1 and directory controllers through a virtual network whose
//! delivery order is chosen by the caller — randomly by the walker,
//! exhaustively by the checker — preserving only the per-(source,
//! destination) FIFO property the real NoC guarantees.
//!
//! A [`System`] owns the controllers, DRAM, in-flight messages and the
//! value-oracle bookkeeping. The caller decides *what happens next*
//! (issue an access, deliver a message, fire a GI timeout); the harness
//! applies it and reports invariant violations as [`Violation`] values
//! instead of panicking, so the checker can turn them into shrunk
//! counterexamples. A controller that reaches a `(state, event)` pair
//! with no transition-table row returns a typed
//! [`crate::proto::ProtocolError`], surfaced here as
//! [`Violation::Protocol`]; only caller-contract bugs still panic (and
//! are caught by the checker separately).

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use ghostwriter_mem::{Addr, BlockAddr, Dram};

use crate::config::{BaseProtocol, GiStorePolicy};
use crate::dir::{DirBank, DirState};
use crate::fault::{self, RecoveryParams};
use crate::l1::{home_bank, AccessKind, CoreReq, GwParams, L1Cache, L1Out, L1State};
use crate::msg::{CtlMsg, DataPool, Endpoint, Msg, Payload, WireTag};
use crate::proto::ProtocolError;
use crate::stats::Stats;

/// Static shape of a harness system.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Number of L1 caches / cores (also the number of L2 banks).
    pub cores: usize,
    /// Number of distinct blocks in the address pool.
    pub blocks: usize,
    /// L1 geometry (small to force evictions).
    pub l1_sets: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 geometry (small to force inclusion recalls).
    pub l2_sets: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Ghostwriter parameters; `None` runs the precise base protocol.
    pub gw: Option<GwParams>,
    /// Base protocol family (MESI, MSI, MOESI, MOSI or MESIF) the GS/GI
    /// rows compose over.
    pub base: BaseProtocol,
    /// Transition-table row (by name) deleted for mutation testing:
    /// firing it becomes a [`Violation::Protocol`].
    pub disabled_row: Option<&'static str>,
    /// Protocol-level fault recovery (sequence tags, retries, duplicate
    /// suppression). `None` keeps the classic lossless-network model and
    /// leaves every fingerprint identical to a pre-recovery build.
    pub recovery: Option<RecoveryParams>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cores: 4,
            blocks: 12,
            l1_sets: 2,
            l1_ways: 2,
            l2_sets: 4,
            l2_ways: 2,
            gw: None,
            base: BaseProtocol::Mesi,
            disabled_row: None,
            recovery: None,
        }
    }
}

/// An access the caller can issue on a core. The harness owns address
/// assignment: every block has one 8-byte slot per core, each written
/// only by its owning core (single-writer-per-address, false sharing
/// across cores by construction) with an increasing sequence, which is
/// what makes the data-value oracle checkable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Load `writer`'s slot of the block.
    Load { writer: usize },
    /// Store the next sequence number to the issuing core's own slot.
    Store,
    /// Scribble the next sequence number with bit-distance `d`.
    Scribble { d: u8 },
}

/// A detected protocol-invariant violation. `Display` gives the
/// human-readable description the tester panics with and the checker
/// prints under a counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// SWMR: more than one E/M copy of a block.
    MultipleWriters { block: usize, writers: usize },
    /// SWMR: an E/M copy coexists with S copies elsewhere.
    WriterWithSharers { block: usize, sharers: usize },
    /// Directory says Owned but the owner field disagrees with L1 state.
    OwnerMismatch {
        block: usize,
        dir_owner: usize,
        l1_owner: Option<usize>,
    },
    /// Directory sharer bitmap disagrees with actual L1 states.
    SharerMismatch { block: usize, dir: u64, actual: u64 },
    /// Directory says Np (or untracked) but L1 copies exist.
    UntrackedCopies {
        block: usize,
        sharers: u64,
        owner: Option<usize>,
    },
    /// An L1 line is stuck in a transient state at quiescence.
    TransientAtQuiescence {
        core: usize,
        block: usize,
        state: L1State,
    },
    /// A precise Shared copy differs from the L2's data at quiescence.
    SharedDiverges {
        core: usize,
        block: usize,
        word: usize,
    },
    /// A load observed a value the single writer never wrote.
    UnwrittenValue {
        core: usize,
        writer: usize,
        block: usize,
        value: u64,
    },
    /// A precise reader saw a single-writer slot go backwards.
    NonMonotoneRead {
        core: usize,
        writer: usize,
        block: usize,
        value: u64,
        prev: u64,
    },
    /// A directory bank still has live transactions at quiescence.
    BankBusyAtQuiescence { bank: usize },
    /// A core still has an outstanding access at quiescence.
    L1BusyAtQuiescence { core: usize },
    /// A writeback was never acknowledged.
    UnackedWriteback { core: usize },
    /// A GS/GI line exists on a block the program never scribbled (or in
    /// a configuration with Ghostwriter disabled) — approximate state
    /// leaked into precise data.
    ApproxLeak {
        core: usize,
        block: usize,
        state: L1State,
    },
    /// A load of a never-scribbled block was serviced by a GI line.
    GiServicedPreciseLoad { core: usize, block: usize },
    /// A line accumulated more hidden writes than the §3.5 bound allows.
    HiddenWritesOverBound {
        core: usize,
        block: usize,
        count: u32,
        bound: u32,
    },
    /// A scribble was serviced hidden although the scribe comparator
    /// rejects the value pair at the configured distance.
    ScribeBoundBypassed {
        core: usize,
        block: usize,
        old: u64,
        new: u64,
        d: u8,
    },
    /// A controller hit a `(state, event)` pair with no transition-table
    /// row — a missing or deleted row in `core::proto`.
    Protocol(ProtocolError),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MultipleWriters { block, writers } => {
                write!(f, "block {block}: {writers} writable (E/M) copies")
            }
            Violation::WriterWithSharers { block, sharers } => write!(
                f,
                "block {block}: writable copy coexists with {sharers} shared copies"
            ),
            Violation::OwnerMismatch {
                block,
                dir_owner,
                l1_owner,
            } => write!(
                f,
                "block {block}: directory owner {dir_owner} but L1 owner {l1_owner:?}"
            ),
            Violation::SharerMismatch { block, dir, actual } => write!(
                f,
                "block {block}: directory sharers {dir:#b} but actual {actual:#b}"
            ),
            Violation::UntrackedCopies {
                block,
                sharers,
                owner,
            } => write!(
                f,
                "block {block}: untracked copies (sharers {sharers:#b}, owner {owner:?})"
            ),
            Violation::TransientAtQuiescence { core, block, state } => {
                write!(
                    f,
                    "core {core} stuck in transient {state:?} on block {block}"
                )
            }
            Violation::SharedDiverges { core, block, word } => write!(
                f,
                "block {block} word {word}: core {core}'s S copy diverges from L2"
            ),
            Violation::UnwrittenValue {
                core,
                writer,
                block,
                value,
            } => write!(
                f,
                "core {core} read unwritten value {value} from writer {writer} block {block}"
            ),
            Violation::NonMonotoneRead {
                core,
                writer,
                block,
                value,
                prev,
            } => write!(
                f,
                "core {core} saw writer {writer} block {block} go backwards: {value} < {prev}"
            ),
            Violation::BankBusyAtQuiescence { bank } => {
                write!(f, "directory bank {bank} not quiescent")
            }
            Violation::L1BusyAtQuiescence { core } => {
                write!(
                    f,
                    "core {core}'s access never completed: liveness violation"
                )
            }
            Violation::UnackedWriteback { core } => {
                write!(f, "core {core}: writeback never acknowledged")
            }
            Violation::ApproxLeak { core, block, state } => write!(
                f,
                "core {core} holds {state:?} on block {block} which was never scribbled"
            ),
            Violation::GiServicedPreciseLoad { core, block } => write!(
                f,
                "core {core}: GI line serviced a precise load of block {block}"
            ),
            Violation::HiddenWritesOverBound {
                core,
                block,
                count,
                bound,
            } => write!(
                f,
                "core {core} block {block}: {count} hidden writes exceed the bound {bound}"
            ),
            Violation::ScribeBoundBypassed {
                core,
                block,
                old,
                new,
                d,
            } => write!(
                f,
                "core {core} block {block}: scribble {old} -> {new} serviced hidden \
                 but is outside d={d}"
            ),
            Violation::Protocol(e) => write!(f, "{e}"),
        }
    }
}

/// True if `GW_TESTER_TRACE` is set: harness deliveries and tester
/// issues are then printed to stderr. Read once per process.
pub(crate) fn trace_enabled() -> bool {
    static TRACE: OnceLock<bool> = OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("GW_TESTER_TRACE").is_some())
}

#[derive(Clone, Debug, Hash)]
struct PendingAccess {
    addr: Addr,
    kind: AccessKind,
}

/// Flattens an endpoint into a virtual-network node id: L1s first, then
/// directory banks, then memory controllers.
pub fn node_key(ep: Endpoint, cores: usize) -> usize {
    match ep {
        Endpoint::L1(i) => i,
        Endpoint::Dir(b) => cores + b,
        Endpoint::Mem(m) => 2 * cores + m,
    }
}

/// The harness system: real controllers, DRAM, the virtual network and
/// the value-oracle bookkeeping. `Clone` snapshots everything — the
/// model checker forks a `System` at every branching point.
#[derive(Clone)]
pub struct System {
    cfg: SystemConfig,
    l1s: Vec<L1Cache>,
    banks: Vec<DirBank>,
    dram: Dram,
    stats: Stats,
    /// Virtual network: every in-flight message in one flat list of
    /// `(channel, message)` pairs, where a channel is the dense
    /// row-major index `src * nodes + dst` of the flattened
    /// [`node_key`]s. The list is kept sorted by channel, and a send
    /// goes after the channel's last message, so each (src, dst)
    /// channel is a FIFO run and channels come in row-major order.
    /// A checker fork copies it with one allocation.
    net: Vec<(u32, CtlMsg)>,
    /// Side pool holding the blocks carried by in-flight data messages;
    /// `net` stores only small fixed-size [`CtlMsg`] control records.
    /// Cloned with the system so checker forks keep their slots private.
    /// NOT part of the architectural state: fingerprints hash each
    /// queued message's *logical* form instead, so two systems with the
    /// same in-flight traffic but different slot assignments (different
    /// delivery histories) still collide in the visited set.
    data: DataPool,
    /// Outstanding access per core.
    pending: Vec<Option<PendingAccess>>,
    /// Single-writer discipline: next sequence number per (core, block),
    /// row-major (`core * blocks + block`).
    next_seq: Vec<u64>,
    /// Monotone-read oracle: last value seen per (reader, block, writer),
    /// row-major (`(reader * blocks + block) * cores + writer`).
    last_seen: Vec<u64>,
    /// Block indices the program has scribbled — the approximate data
    /// set; value oracles relax and GS/GI containment is checked
    /// against it.
    scribbled: BTreeSet<usize>,
    completed: usize,
    messages: usize,
}

impl System {
    /// Builds a quiescent system of `cfg`'s shape.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(cfg.cores >= 1 && cfg.blocks >= 1);
        let mut l1s: Vec<L1Cache> = (0..cfg.cores)
            .map(|c| {
                L1Cache::new(
                    c,
                    cfg.l1_sets,
                    cfg.l1_ways,
                    cfg.cores,
                    cfg.base,
                    cfg.gw,
                    false,
                )
            })
            .collect();
        let mut banks: Vec<DirBank> = (0..cfg.cores)
            .map(|b| DirBank::with_base(b, cfg.l2_sets, cfg.l2_ways, 1, cfg.base))
            .collect();
        if let Some(name) = cfg.disabled_row {
            let mut known = false;
            for l1 in &mut l1s {
                known |= l1.disable_row(name);
            }
            for bank in &mut banks {
                known |= bank.disable_row(name);
            }
            assert!(known, "no protocol row named {name:?}");
        }
        if let Some(rec) = cfg.recovery {
            for l1 in &mut l1s {
                l1.set_recovery(rec);
            }
            for bank in &mut banks {
                bank.set_recovery(rec);
            }
        }
        Self {
            l1s,
            banks,
            dram: Dram::new(),
            stats: Stats::default(),
            net: Vec::new(),
            data: DataPool::default(),
            pending: (0..cfg.cores).map(|_| None).collect(),
            next_seq: vec![1; cfg.cores * cfg.blocks],
            last_seen: vec![0; cfg.cores * cfg.blocks * cfg.cores],
            scribbled: BTreeSet::new(),
            completed: 0,
            messages: 0,
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Accesses issued and completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Messages delivered so far.
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// Accumulated controller statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Byte address of block index `b`'s slot owned by `writer`.
    pub fn slot(&self, writer: usize, b: usize) -> Addr {
        Addr(0x10_0000 + (b as u64) * 64 + (writer as u64) * 8)
    }

    /// Block address of block index `b`.
    pub fn block_of(&self, b: usize) -> BlockAddr {
        self.slot(0, b).block()
    }

    /// Pool index of `block`.
    ///
    /// # Panics
    /// Panics if `block` is not in the pool.
    fn pool_index(&self, block: BlockAddr) -> usize {
        let b = block.0.wrapping_sub(self.block_of(0).0);
        assert!(b < self.cfg.blocks as u64, "block outside the pool");
        b as usize
    }

    /// Index of `(core, b)` in `next_seq`.
    fn seq_idx(&self, core: usize, b: usize) -> usize {
        core * self.cfg.blocks + b
    }

    /// True if `core` can issue a new access.
    pub fn core_idle(&self, core: usize) -> bool {
        self.pending[core].is_none()
    }

    /// Cores with no outstanding access.
    pub fn idle_cores(&self) -> Vec<usize> {
        (0..self.cfg.cores).filter(|&c| self.core_idle(c)).collect()
    }

    /// Cores blocked on an outstanding access.
    pub fn busy_cores(&self) -> Vec<usize> {
        (0..self.cfg.cores)
            .filter(|&c| !self.core_idle(c))
            .collect()
    }

    /// L1 coherence state of pool block `b` at `core` (for tests).
    pub fn l1_state(&self, core: usize, b: usize) -> Option<L1State> {
        self.l1s[core].state_of(self.block_of(b))
    }

    /// Number of virtual-network nodes: L1s, directory banks, then the
    /// single memory controller (see [`node_key`]).
    fn nodes(&self) -> usize {
        2 * self.cfg.cores + 1
    }

    /// Dense channel index of `key`, if both endpoints are in range.
    fn chan(&self, key: (usize, usize)) -> Option<u32> {
        let n = self.nodes();
        (key.0 < n && key.1 < n).then(|| (key.0 * n + key.1) as u32)
    }

    /// Position in `net` of the head of channel `key`, if the channel
    /// holds a message.
    fn head(&self, key: (usize, usize)) -> Option<usize> {
        let c = self.chan(key)?;
        let at = self.net.partition_point(|&(k, _)| k < c);
        (self.net.get(at)?.0 == c).then_some(at)
    }

    /// Removes and returns the head of channel `key`, if any.
    fn pop_head(&mut self, key: (usize, usize)) -> Option<CtlMsg> {
        let at = self.head(key)?;
        Some(self.net.remove(at).1)
    }

    /// Non-empty virtual-network channels, in row-major (src, dst)
    /// order.
    pub fn channels(&self) -> Vec<(usize, usize)> {
        let n = self.nodes() as u32;
        let mut keys = Vec::new();
        let mut last = None;
        for &(c, _) in &self.net {
            if last != Some(c) {
                keys.push(((c / n) as usize, (c % n) as usize));
                last = Some(c);
            }
        }
        keys
    }

    /// The control record at the head of channel `key`, if any. Block
    /// data lives in the side pool; use [`System::drop_message`] (or a
    /// delivery) to materialise the logical message.
    pub fn peek_channel(&self, key: (usize, usize)) -> Option<&CtlMsg> {
        self.head(key).map(|at| &self.net[at].1)
    }

    /// True when nothing is in flight: no queued messages and no core
    /// has an outstanding access.
    pub fn quiescent(&self) -> bool {
        self.net.is_empty() && self.pending.iter().all(|p| p.is_none())
    }

    /// True when `core` holds at least one GI line (a GI-timeout sweep
    /// would change state).
    pub fn has_gi(&self, core: usize) -> bool {
        self.l1s[core].resident().any(|(_, s)| s == L1State::Gi)
    }

    /// Appends `msg` to the back of its (src, dst) channel.
    fn enqueue(&mut self, msg: Msg) {
        let key = (
            node_key(msg.src, self.cfg.cores),
            node_key(msg.dst, self.cfg.cores),
        );
        let c = self.chan(key).expect("endpoint outside the node grid");
        let msg = msg.intern(&mut self.data);
        self.push(c, msg);
    }

    /// Appends `msg` to the back of dense channel `c`, after the
    /// channel's last message, keeping `net` sorted by channel.
    fn push(&mut self, c: u32, msg: CtlMsg) {
        let at = self.net.partition_point(|&(k, _)| k <= c);
        self.net.insert(at, (c, msg));
    }

    /// Fault-injection hook for the model checker's mutation testing:
    /// removes and returns the head of channel `key` without delivering
    /// it (a lost message). Resolving frees the message's data slot.
    pub fn drop_message(&mut self, key: (usize, usize)) -> Option<Msg> {
        let msg = self.pop_head(key)?;
        Some(msg.resolve(&mut self.data))
    }

    /// Fault-injection hook: enqueues an arbitrary message, as a buggy
    /// or byzantine controller would.
    pub fn inject(&mut self, msg: Msg) {
        self.enqueue(msg);
    }

    /// True if the head of channel `key` rides the unreliable virtual
    /// channel — the only traffic the bounded-fault checker may drop or
    /// duplicate (requests from an L1; grants from the directory).
    pub fn head_faultable(&self, key: (usize, usize)) -> bool {
        self.peek_channel(key)
            .is_some_and(|m| fault::droppable(m.src, &m.payload))
    }

    /// True if the head of channel `key` may be marked corrupt: demand
    /// fills from the directory and DRAM fills to the directory.
    pub fn head_corruptible(&self, key: (usize, usize)) -> bool {
        self.peek_channel(key)
            .is_some_and(|m| fault::corruptible(m.src, &m.payload))
    }

    /// Fault-injection hook: re-enqueues a copy of the head of channel
    /// `key` at the back (a network duplicate). The head itself stays.
    /// Returns `false` if the head is absent or not [`head_faultable`].
    pub fn duplicate_head(&mut self, key: (usize, usize)) -> bool {
        if !self.head_faultable(key) {
            return false;
        }
        let copy = self
            .peek_channel(key)
            .expect("head_faultable checked")
            .logical(&self.data);
        self.enqueue(copy);
        true
    }

    /// Fault-injection hook: sets the taint bit on the head of channel
    /// `key`, modelling detected payload corruption in flight. The data
    /// itself is untouched so the value oracles stay valid; receivers see
    /// only the taint and must absorb (approximate) or refetch (precise).
    /// Returns `false` if the head is absent or not [`head_corruptible`].
    pub fn taint_head(&mut self, key: (usize, usize)) -> bool {
        if !self.head_corruptible(key) {
            return false;
        }
        let at = self.head(key).expect("head_corruptible checked");
        self.net[at].1.tag.tainted = true;
        true
    }

    /// True if the retry action on `core` is worth scheduling: recovery
    /// is on, the core has a tagged request outstanding, no message
    /// touching that core is in flight, and the block's home bank
    /// confirms a resend would actually advance the transaction
    /// ([`DirBank::resend_makes_progress`] — the request was lost, or
    /// the grant was). The last condition keeps retries from firing
    /// while the directory is legitimately busy on the core's behalf
    /// (memory fetch, invalidation gathering): those resends would be
    /// dup-dropped yet still burn the bounded retry budget, and under
    /// exhaustive search the waste surfaces as a spurious
    /// `retry_exhausted` on fault-free traces.
    pub fn needs_retry(&self, core: usize) -> bool {
        let Some(seq) = self.l1s[core].pending_seq() else {
            return false;
        };
        let n = self.nodes();
        let in_flight = self.net.iter().any(|&(c, _)| {
            let (src, dst) = (c as usize / n, c as usize % n);
            src == core || dst == core
        });
        if in_flight {
            return false;
        }
        let Some(block) = self.l1s[core].pending_block() else {
            return false;
        };
        let bank = home_bank(block, self.cfg.cores);
        self.banks[bank].resend_makes_progress(block, core, seq)
    }

    /// Fires the L1 retry timeout on `core`: resends the outstanding
    /// tagged request, or surfaces `retry_exhausted` once the budget is
    /// spent. Returns `Ok(false)` if the core has nothing to retry.
    pub fn retry(&mut self, core: usize) -> Result<bool, Violation> {
        let mut outs = Vec::new();
        let fired = self.l1s[core]
            .retry_pending_into(&mut self.stats, &mut outs)
            .map_err(Violation::Protocol)?;
        self.handle_l1_outs(core, outs)?;
        Ok(fired)
    }

    fn handle_l1_outs(&mut self, core: usize, outs: Vec<L1Out>) -> Result<(), Violation> {
        for out in outs {
            match out {
                L1Out::Send(m) => self.enqueue(m),
                L1Out::Reply { value } => {
                    let p = self.pending[core].take().expect("reply without access");
                    self.completed += 1;
                    if matches!(p.kind, AccessKind::Load) {
                        // Which (writer, block) slot was read?
                        let rel = p.addr.0 - 0x10_0000;
                        let b = (rel / 64) as usize;
                        let writer = ((rel % 64) / 8) as usize;
                        // Loads only ever observe values the single
                        // writer actually wrote (zero = initial state).
                        if value >= self.next_seq[self.seq_idx(writer, b)] {
                            return Err(Violation::UnwrittenValue {
                                core,
                                writer,
                                block: b,
                                value,
                            });
                        }
                        // Coherence order makes single-writer reads
                        // monotone per reader — but only on blocks the
                        // program never scribbled: GS/GI copies serve
                        // stale values by design.
                        if !self.scribbled.contains(&b) {
                            let idx = (core * self.cfg.blocks + b) * self.cfg.cores + writer;
                            let prev = self.last_seen[idx];
                            if value < prev {
                                return Err(Violation::NonMonotoneRead {
                                    core,
                                    writer,
                                    block: b,
                                    value,
                                    prev,
                                });
                            }
                            self.last_seen[idx] = value;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Issues `op` on idle `core` against pool block `b`, then runs the
    /// any-time invariant checks.
    ///
    /// # Panics
    /// Panics if `core` is busy or the indices are out of range — those
    /// are caller bugs, not protocol violations.
    pub fn issue(&mut self, core: usize, b: usize, op: Op) -> Result<(), Violation> {
        assert!(core < self.cfg.cores && b < self.cfg.blocks);
        assert!(self.core_idle(core), "core {core} already has an access");
        let (addr, kind, value) = match op {
            Op::Load { writer } => {
                assert!(writer < self.cfg.cores);
                (self.slot(writer, b), AccessKind::Load, 0)
            }
            Op::Store => {
                let i = self.seq_idx(core, b);
                let v = self.next_seq[i];
                self.next_seq[i] += 1;
                (self.slot(core, b), AccessKind::Store, v)
            }
            Op::Scribble { d } => {
                let i = self.seq_idx(core, b);
                let v = self.next_seq[i];
                self.next_seq[i] += 1;
                self.scribbled.insert(b);
                (self.slot(core, b), AccessKind::Scribble { d }, v)
            }
        };
        let block = addr.block();
        // Pre-access observations for the externally re-checked
        // Ghostwriter invariants.
        let pre_state = self.l1s[core].state_of(block);
        let pre_word = self.l1s[core].peek_word(addr, 8);
        // A block is precise until the program scribbles it; GI may
        // legally serve loads of scribbled (error-tolerant) data only.
        let block_precise = !self.scribbled.contains(&b);
        self.pending[core] = Some(PendingAccess { addr, kind });
        let req = CoreReq {
            addr,
            size: 8,
            value,
            kind,
        };
        let outs = self.l1s[core]
            .access(req, &mut self.stats)
            .map_err(Violation::Protocol)?;
        let replied = outs.iter().any(|o| matches!(o, L1Out::Reply { .. }));
        let post_state = self.l1s[core].state_of(block);

        // A GI line may only service loads of approximate (scribbled)
        // data; a precise load hitting on GI would silently read a value
        // coherence never sanctioned.
        if matches!(op, Op::Load { .. })
            && replied
            && pre_state == Some(L1State::Gi)
            && block_precise
        {
            return Err(Violation::GiServicedPreciseLoad { core, block: b });
        }

        // Scribe comparator re-verification: a scribble serviced hidden
        // (line left in GS/GI) must have passed the configured-distance
        // comparison against the word it overwrote — except a failing
        // scribble on an already-GI line under the Capture policy, which
        // hits by design.
        if let Op::Scribble { d } = op {
            if replied && matches!(post_state, Some(L1State::Gs) | Some(L1State::Gi)) {
                let gw = self.cfg.gw.expect("scribble without GW params");
                let capture_hit =
                    gw.gi_stores == GiStorePolicy::Capture && pre_state == Some(L1State::Gi);
                if !capture_hit {
                    let old = pre_word.expect("hidden service requires a resident tag");
                    if !gw.scribe.within(old, value, 64, u32::from(d)) {
                        return Err(Violation::ScribeBoundBypassed {
                            core,
                            block: b,
                            old,
                            new: value,
                            d,
                        });
                    }
                }
            }
        }

        self.handle_l1_outs(core, outs)?;
        self.check_ghostwriter()
    }

    /// Delivers the message at the head of channel `key` (FIFO within
    /// the channel), then runs the any-time invariant checks.
    ///
    /// # Panics
    /// Panics if the channel is empty — callers pick from
    /// [`System::channels`].
    pub fn deliver(&mut self, key: (usize, usize)) -> Result<(), Violation> {
        let msg = self
            .pop_head(key)
            .expect("deliver from empty channel")
            .resolve(&mut self.data);
        self.messages += 1;
        if trace_enabled() {
            eprintln!(
                "deliver {:<12} {:?} -> {:?}  {:?}",
                msg.payload.name(),
                msg.src,
                msg.dst,
                msg.block
            );
        }
        match msg.dst {
            Endpoint::L1(core) => {
                let outs = self.l1s[core]
                    .handle_msg(msg, &mut self.stats)
                    .map_err(Violation::Protocol)?;
                self.handle_l1_outs(core, outs)?;
            }
            Endpoint::Dir(bank) => {
                let outs = self.banks[bank]
                    .handle_msg(msg, &mut self.stats)
                    .map_err(Violation::Protocol)?;
                for m in outs {
                    self.enqueue(m);
                }
            }
            Endpoint::Mem(_) => match msg.payload {
                Payload::MemRead => {
                    let data = self.dram.read_block(msg.block);
                    self.enqueue(Msg {
                        src: msg.dst,
                        dst: msg.src,
                        block: msg.block,
                        payload: Payload::MemData { data },
                        tag: WireTag::seq(msg.tag.seq),
                    });
                }
                Payload::MemWrite { data } => self.dram.write_block(msg.block, data),
                ref p => panic!("memory controller got {}", p.name()),
            },
        }
        self.check_ghostwriter()
    }

    /// Fires the periodic GI timeout on `core`: every GI line reverts to
    /// I, forfeiting hidden updates (paper §3.2).
    pub fn gi_timeout(&mut self, core: usize) -> Result<(), Violation> {
        self.l1s[core]
            .gi_timeout_sweep(&mut self.stats)
            .map_err(Violation::Protocol)
    }

    /// Context-switch forfeit on `core` (paper §3.5): GS/GI lines revert
    /// to I; GS lines notify the directory with PutS.
    pub fn context_switch(&mut self, core: usize) -> Result<(), Violation> {
        let outs = self.l1s[core]
            .context_switch_forfeit(&mut self.stats)
            .map_err(Violation::Protocol)?;
        self.handle_l1_outs(core, outs)
    }

    /// SWMR: never two writable copies, never writable + readable
    /// elsewhere. Valid at any instant. MOESI's O is the distinguished
    /// dirty owner: at most one may exist, and it excludes E/M copies,
    /// but it legitimately coexists with clean S readers. MESIF's F is a
    /// clean read-only copy and counts as a reader.
    pub fn check_swmr(&self) -> Result<(), Violation> {
        for b in 0..self.cfg.blocks {
            let block = self.block_of(b);
            let mut exclusive = 0;
            let mut dirty_owned = 0;
            let mut readable_elsewhere = 0;
            for l1 in &self.l1s {
                match l1.state_of(block) {
                    Some(L1State::M) | Some(L1State::E) => exclusive += 1,
                    Some(L1State::O) => dirty_owned += 1,
                    Some(L1State::S) | Some(L1State::F) => readable_elsewhere += 1,
                    _ => {}
                }
            }
            if exclusive + dirty_owned > 1 {
                return Err(Violation::MultipleWriters {
                    block: b,
                    writers: exclusive + dirty_owned,
                });
            }
            if exclusive == 1 && readable_elsewhere > 0 {
                return Err(Violation::WriterWithSharers {
                    block: b,
                    sharers: readable_elsewhere,
                });
            }
        }
        Ok(())
    }

    /// Ghostwriter containment invariants, valid at any instant:
    /// GS/GI lines exist only on blocks the program scribbled (never in
    /// a precise configuration), and hidden-write counts respect the
    /// §3.5 error bound.
    pub fn check_ghostwriter(&self) -> Result<(), Violation> {
        for (c, l1) in self.l1s.iter().enumerate() {
            for (block, state) in l1.resident() {
                let b = self.pool_index(block);
                if matches!(state, L1State::Gs | L1State::Gi)
                    && (self.cfg.gw.is_none() || !self.scribbled.contains(&b))
                {
                    return Err(Violation::ApproxLeak {
                        core: c,
                        block: b,
                        state,
                    });
                }
                if let Some(bound) = self.cfg.gw.and_then(|g| g.max_hidden_writes) {
                    if matches!(state, L1State::Gs | L1State::Gi) {
                        let count = l1.hidden_writes_of(block).unwrap_or(0);
                        if count > bound {
                            return Err(Violation::HiddenWritesOverBound {
                                core: c,
                                block: b,
                                count,
                                bound,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Directory accuracy + data-value invariant + liveness residue;
    /// only meaningful at quiescence (no in-flight messages or
    /// accesses).
    pub fn check_quiescent(&self) -> Result<(), Violation> {
        for (c, p) in self.pending.iter().enumerate() {
            if p.is_some() {
                return Err(Violation::L1BusyAtQuiescence { core: c });
            }
        }
        for (c, l1) in self.l1s.iter().enumerate() {
            if l1.has_pending_writebacks() {
                return Err(Violation::UnackedWriteback { core: c });
            }
        }
        for (bk, bank) in self.banks.iter().enumerate() {
            if !bank.quiescent() {
                return Err(Violation::BankBusyAtQuiescence { bank: bk });
            }
        }
        for b in 0..self.cfg.blocks {
            let block = self.block_of(b);
            let bank = home_bank(block, self.cfg.cores);
            let dir = self.banks[bank].dir_state(block);
            let mut sharers = 0u64;
            let mut owner = None;
            let mut o_holder = None;
            let mut fwd_mask = 0u64;
            for (c, l1) in self.l1s.iter().enumerate() {
                match l1.state_of(block) {
                    Some(L1State::S) | Some(L1State::Gs) => sharers |= 1 << c,
                    Some(L1State::F) => fwd_mask |= 1 << c,
                    Some(L1State::M) | Some(L1State::E) | Some(L1State::O) => {
                        if let Some(prev) = owner.or(o_holder) {
                            return Err(Violation::MultipleWriters {
                                block: b,
                                writers: 2 + usize::from(prev == c),
                            });
                        }
                        if l1.state_of(block) == Some(L1State::O) {
                            o_holder = Some(c);
                        } else {
                            owner = Some(c);
                        }
                    }
                    Some(L1State::I) | Some(L1State::Gi) | None => {}
                    Some(t) => {
                        return Err(Violation::TransientAtQuiescence {
                            core: c,
                            block: b,
                            state: t,
                        })
                    }
                }
            }
            match (dir, owner) {
                (Some(DirState::Owned(o)), oc) => {
                    if oc != Some(o) {
                        return Err(Violation::OwnerMismatch {
                            block: b,
                            dir_owner: o,
                            l1_owner: oc.or(o_holder),
                        });
                    }
                }
                (
                    Some(DirState::OwnedShared {
                        owner: o,
                        sharers: s,
                    }),
                    _,
                ) => {
                    // MOESI/MOSI dirty sharing: the distinguished owner
                    // must hold O and the sharer list must be exact.
                    if o_holder != Some(o) || owner.is_some() {
                        return Err(Violation::OwnerMismatch {
                            block: b,
                            dir_owner: o,
                            l1_owner: owner.or(o_holder),
                        });
                    }
                    if s != sharers {
                        return Err(Violation::SharerMismatch {
                            block: b,
                            dir: s,
                            actual: sharers,
                        });
                    }
                }
                (Some(DirState::Forward { fwd, sharers: s }), _) => {
                    // MESIF: exactly the designated forwarder holds F.
                    if fwd_mask != 1 << fwd || owner.is_some() || o_holder.is_some() {
                        return Err(Violation::OwnerMismatch {
                            block: b,
                            dir_owner: fwd,
                            l1_owner: owner
                                .or(o_holder)
                                .or((0..64).find(|c| fwd_mask & (1 << c) != 0)),
                        });
                    }
                    if s != sharers {
                        return Err(Violation::SharerMismatch {
                            block: b,
                            dir: s,
                            actual: sharers,
                        });
                    }
                }
                (Some(DirState::Shared(s)), _) => {
                    if s != sharers {
                        return Err(Violation::SharerMismatch {
                            block: b,
                            dir: s,
                            actual: sharers,
                        });
                    }
                    if let Some(c) = owner.or(o_holder) {
                        return Err(Violation::OwnerMismatch {
                            block: b,
                            dir_owner: c,
                            l1_owner: Some(c),
                        });
                    }
                }
                (Some(DirState::Np), _) | (None, _) => {
                    if sharers != 0 || fwd_mask != 0 || owner.is_some() || o_holder.is_some() {
                        return Err(Violation::UntrackedCopies {
                            block: b,
                            sharers: sharers | fwd_mask,
                            owner: owner.or(o_holder),
                        });
                    }
                }
            }
            // An F copy the directory doesn't know about (every other
            // stray-copy combination is caught by the arms above).
            if fwd_mask != 0 && !matches!(dir, Some(DirState::Forward { .. })) {
                return Err(Violation::UntrackedCopies {
                    block: b,
                    sharers: sharers | fwd_mask,
                    owner,
                });
            }
            // Data-value invariant: precise Shared (and MESIF Forward)
            // copies equal the L2 data (GS copies are legitimately
            // divergent). Under MOESI dirty sharing the L2 copy may be
            // stale — the O owner's bytes are the reference instead.
            let reference = match o_holder {
                Some(o) => Some(std::array::from_fn::<_, 8, _>(|w| {
                    self.l1s[o]
                        .peek_word(block.base().add(8 * w as u64), 8)
                        .expect("O line resident")
                })),
                None => self.banks[bank]
                    .peek_block(block)
                    .map(|d| std::array::from_fn(|w| d.read_word(8 * w, 8))),
            };
            if let Some(reference) = reference {
                for (c, l1) in self.l1s.iter().enumerate() {
                    if matches!(l1.state_of(block), Some(L1State::S) | Some(L1State::F)) {
                        for (w, &expect) in reference.iter().enumerate() {
                            let a = block.base().add(8 * w as u64);
                            if l1.peek_word(a, 8) != Some(expect) {
                                return Err(Violation::SharedDiverges {
                                    core: c,
                                    block: b,
                                    word: w,
                                });
                            }
                        }
                    }
                }
            }
        }
        self.check_swmr()?;
        self.check_ghostwriter()
    }

    /// 128-bit canonical fingerprint of the architectural state, for the
    /// model checker's visited set. Two systems with equal fingerprints
    /// behave identically under equal future action sequences: the hash
    /// covers the controllers (including PLRU bits), the in-flight
    /// message channels, outstanding accesses, DRAM contents of the
    /// block pool and the value-oracle bookkeeping. Statistics and the
    /// completed/messages counters are excluded — they never influence a
    /// transition or a check.
    ///
    /// One pass into a `StateHasher`, allocation-free: queued messages
    /// are hashed by reference through `CtlMsg::hash_logical`, and the
    /// controllers' unordered tables through `hash_in_block_order`.
    pub fn fingerprint(&self) -> u128 {
        let mut h = StateHasher::default();
        self.l1s.iter().for_each(|l1| l1.hash(&mut h));
        self.banks.iter().for_each(|b| b.hash(&mut h));
        // Hash each queued message's *logical* form, never its DataRef
        // slot index (and never the pool itself): slot assignment
        // depends on delivery history, and two states with identical
        // in-flight traffic must fingerprint equal regardless of which
        // slots that traffic happens to occupy. The list is framed by
        // its length and each message tagged with its channel.
        self.net.len().hash(&mut h);
        for (c, m) in &self.net {
            c.hash(&mut h);
            m.hash_logical(&self.data, &mut h);
        }
        self.pending.hash(&mut h);
        self.next_seq.hash(&mut h);
        self.last_seen.hash(&mut h);
        self.scribbled.hash(&mut h);
        for b in 0..self.cfg.blocks {
            self.dram.read_block(self.block_of(b)).hash(&mut h);
        }
        h.finish128()
    }
}

/// Two-lane 128-bit [`Hasher`] behind [`System::fingerprint`].
///
/// Every `write_*` call feeds one 64-bit word (byte slices: one word per
/// 8 bytes, the short tail tagged with its length) into two independent
/// xor-multiply lanes, the second fed the word rotated by 32 bits so
/// the high half of every word also reaches the low bits of a lane;
/// [`StateHasher::finish128`] finalises them with the splitmix64
/// avalanche (`fault::fmix64`). Each lane step is a bijection of the
/// lane for a fixed word and of the word for a fixed lane, so two word
/// streams of equal length that differ in a single word can never
/// collide. The derived `Hash` impls frame every variable-length part
/// with its length, so equal streams mean equal states.
///
/// The lane step is one xor and one multiply because its latency is
/// the fingerprint's critical path: a rotation inside the chain made a
/// fingerprint about a fifth slower. The bits are in-process only:
/// nothing on disk depends on them (shard cache keys are textual, see
/// `SweepSpec::key` in the checker).
struct StateHasher {
    a: u64,
    b: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        Self {
            a: 0x9E37_79B9_7F4A_7C15,
            b: 0xC2B2_AE3D_27D4_EB4F,
        }
    }
}

impl StateHasher {
    #[inline(always)]
    fn word(&mut self, x: u64) {
        self.a = (self.a ^ x).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.b = (self.b ^ x.rotate_left(32)).wrapping_mul(0x94d0_49bb_1331_11eb);
    }

    /// The 128-bit digest. `(a, b) ↦ (lo, hi)` is a bijection, so the
    /// finaliser loses none of the two lanes' bits.
    fn finish128(&self) -> u128 {
        let lo = fault::fmix64(self.a);
        let hi = fault::fmix64(self.b ^ lo);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.finish128() as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            w[7] = tail.len() as u8;
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// Hashes a small keyed table — `(block, value)` entries with distinct
/// blocks, stored in insertion order — length first, then the entries
/// in block order, so equal tables hash equally whatever their insertion
/// history. Allocation-free: each step selects the next-larger block in
/// place, which is quadratic, but the tables hold a few entries at most
/// (a writeback buffer, one MSHR set).
pub(crate) fn hash_in_block_order<T: Hash, H: Hasher>(entries: &[(BlockAddr, T)], state: &mut H) {
    entries.len().hash(state);
    let mut prev = None;
    for _ in 0..entries.len() {
        let next = entries
            .iter()
            .filter(|(b, _)| prev.is_none_or(|p| *b > p))
            .min_by_key(|(b, _)| *b)
            .expect("distinct blocks");
        next.hash(state);
        prev = Some(next.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{DirRowId, L1RowId};
    use crate::scribe::ScribePolicy;

    fn cfg2() -> SystemConfig {
        SystemConfig {
            cores: 2,
            blocks: 1,
            ..SystemConfig::default()
        }
    }

    fn drain(sys: &mut System) {
        let mut guard = 0;
        loop {
            let chans = sys.channels();
            let Some(&key) = chans.first() else { break };
            sys.deliver(key).unwrap();
            guard += 1;
            assert!(guard < 10_000, "network never drained");
        }
    }

    fn rec_cfg() -> SystemConfig {
        SystemConfig {
            cores: 2,
            blocks: 1,
            recovery: Some(RecoveryParams::checker()),
            ..SystemConfig::default()
        }
    }

    /// First channel whose head is a directory-sourced grant, delivering
    /// everything else until one appears.
    fn deliver_until_grant(sys: &mut System) -> (usize, usize) {
        let cores = sys.config().cores;
        let mut guard = 0;
        loop {
            let chans = sys.channels();
            if let Some(&key) = chans
                .iter()
                .find(|&&k| k.0 >= cores && k.0 < 2 * cores && sys.head_faultable(k))
            {
                return key;
            }
            let &key = chans.first().expect("grant never materialised");
            sys.deliver(key).unwrap();
            guard += 1;
            assert!(guard < 1_000);
        }
    }

    /// Drains the network, firing the retry timeout whenever a core is
    /// stalled with nothing in flight (the recovery schedule a real
    /// machine's timeout wheel would produce).
    fn drain_with_retries(sys: &mut System) {
        let mut guard = 0;
        while !sys.quiescent() {
            if let Some(&key) = sys.channels().first() {
                sys.deliver(key).unwrap();
            } else {
                let cores = sys.config().cores;
                let stalled: Vec<usize> = (0..cores).filter(|&c| sys.needs_retry(c)).collect();
                assert!(!stalled.is_empty(), "busy but nothing to retry or deliver");
                for c in stalled {
                    sys.retry(c).unwrap();
                }
            }
            guard += 1;
            assert!(guard < 10_000, "network never drained");
        }
    }

    #[test]
    fn dropped_request_recovered_by_retry() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Store).unwrap();
        let key = *sys.channels().first().unwrap();
        assert!(sys.head_faultable(key), "request leg must be faultable");
        sys.drop_message(key).unwrap();
        assert!(sys.needs_retry(0), "loss leaves the core stalled");
        assert!(sys.retry(0).unwrap());
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(sys.stats().retries, 1);
        assert!(sys.stats().coverage.l1_hits(L1RowId::RetryResend) > 0);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn dropped_grant_recovered_by_dup_resend() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Store).unwrap();
        let key = deliver_until_grant(&mut sys);
        sys.drop_message(key).unwrap();
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(
            sys.stats().grant_resends,
            1,
            "directory must resend the grant"
        );
        assert!(sys.stats().coverage.dir_hits(DirRowId::DupReqResend) > 0);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn duplicated_request_suppressed() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Store).unwrap();
        let key = *sys.channels().first().unwrap();
        assert!(sys.duplicate_head(key));
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(sys.stats().dup_reqs_dropped, 1);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn duplicated_grant_stale_dropped() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Store).unwrap();
        let key = deliver_until_grant(&mut sys);
        assert!(sys.duplicate_head(key));
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(sys.stats().stale_replies, 1);
        assert!(sys.stats().coverage.l1_hits(L1RowId::StaleReplyDrop) > 0);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn tainted_precise_grant_refetched() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Load { writer: 1 }).unwrap();
        let key = deliver_until_grant(&mut sys);
        assert!(sys.taint_head(key));
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(sys.stats().corrupt_fills_refetched, 1);
        assert_eq!(
            sys.stats().grant_resends,
            1,
            "refetch answered from the grant copy"
        );
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn tainted_mem_fill_refetched_by_directory() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Store).unwrap();
        // GETX then MemRead reach their targets; taint the MemData reply.
        let mut guard = 0;
        loop {
            let chans = sys.channels();
            let &key = chans.first().unwrap();
            if sys.head_corruptible(key) {
                assert!(sys.taint_head(key));
                break;
            }
            sys.deliver(key).unwrap();
            guard += 1;
            assert!(guard < 100);
        }
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(sys.stats().corrupt_mem_refetches, 1);
        assert!(sys.stats().coverage.dir_hits(DirRowId::CorruptMemRefetch) > 0);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn tainted_approx_fill_absorbed() {
        let mut sys = System::new(SystemConfig {
            gw: Some(GwParams {
                scribe: ScribePolicy::Bitwise,
                enable_gs: true,
                enable_gi: true,
                gi_stores: GiStorePolicy::Fallback,
                max_hidden_writes: None,
            }),
            ..rec_cfg()
        });
        sys.issue(0, 0, Op::Scribble { d: 8 }).unwrap();
        let key = deliver_until_grant(&mut sys);
        assert!(sys.taint_head(key));
        drain_with_retries(&mut sys);
        assert_eq!(sys.completed(), 1);
        assert_eq!(
            sys.stats().corrupt_fills_absorbed,
            1,
            "approximate fills absorb corruption instead of refetching"
        );
        assert_eq!(sys.stats().corrupt_fills_refetched, 0);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let mut sys = System::new(rec_cfg());
        sys.issue(0, 0, Op::Store).unwrap();
        // checker() allows 2 retries; the third timeout must surface the
        // `retry_exhausted` error row, never a panic.
        for _ in 0..3 {
            let key = *sys.channels().first().unwrap();
            sys.drop_message(key).unwrap();
            match sys.retry(0) {
                Ok(fired) => assert!(fired),
                Err(Violation::Protocol(e)) => {
                    assert!(e.to_string().contains("retry_exhausted"), "{e}");
                    return;
                }
                Err(v) => panic!("unexpected violation {v:?}"),
            }
        }
        panic!("retry budget never exhausted");
    }

    #[test]
    fn nack_on_conflict_bounces_and_recovers() {
        let cfg = SystemConfig {
            cores: 2,
            blocks: 4,
            l2_sets: 1,
            l2_ways: 1,
            recovery: Some(RecoveryParams {
                nack_on_conflict: true,
                ..RecoveryParams::default()
            }),
            ..SystemConfig::default()
        };
        let mut sys = System::new(cfg);
        // Two blocks homed on the same single-way bank conflict on fill.
        let b0 = 0;
        let home = home_bank(sys.block_of(b0), 2);
        let b1 = (1..4)
            .find(|&b| home_bank(sys.block_of(b), 2) == home)
            .expect("pigeonhole");
        sys.issue(0, b0, Op::Store).unwrap();
        let key = *sys.channels().first().unwrap();
        sys.deliver(key).unwrap(); // bank pins its only way for b0
        sys.issue(1, b1, Op::Store).unwrap();
        // Drain, but feed the memory controller first: the NACK/resend
        // ping-pong between core 1 and the bank must not starve block
        // b0's DRAM fill (the documented livelock caveat).
        let mem = 2 * sys.config().cores;
        let mut guard = 0;
        while !sys.quiescent() {
            let chans = sys.channels();
            let key = chans
                .iter()
                .copied()
                .find(|&k| k.0 == mem || k.1 == mem)
                .or_else(|| chans.first().copied());
            match key {
                Some(k) => sys.deliver(k).unwrap(),
                None => {
                    for c in 0..2 {
                        if sys.needs_retry(c) {
                            sys.retry(c).unwrap();
                        }
                    }
                }
            }
            guard += 1;
            assert!(guard < 10_000, "NACK livelock");
        }
        assert_eq!(sys.completed(), 2);
        assert!(sys.stats().conflict_nacks >= 1);
        assert!(sys.stats().nack_retries >= 1);
        assert!(sys.stats().coverage.dir_hits(DirRowId::NackConflict) > 0);
        assert!(sys.stats().coverage.l1_hits(L1RowId::ReqNacked) > 0);
        sys.check_quiescent().unwrap();
    }

    /// Satellite: the data-slot side pool neither leaks nor double-frees
    /// under seeded drop/duplicate/taint schedules — at quiescence no
    /// slot is live, and the pool's high-water mark equals the observed
    /// peak of in-flight data messages (freed slots were recycled).
    #[test]
    fn data_pool_leakfree_under_message_faults() {
        for seed in 0..8u64 {
            let mut sys = System::new(SystemConfig {
                cores: 3,
                blocks: 4,
                recovery: Some(RecoveryParams {
                    max_retries: 64,
                    timeout_cycles: 1,
                    backoff_base: 1,
                    nack_on_conflict: false,
                }),
                ..SystemConfig::default()
            });
            let mut peak = 0usize;
            for step in 0..600u64 {
                let r = fault::mix(seed, 0xFA, step);
                let chans = sys.channels();
                if r % 100 < 12 {
                    if let Some(&key) = chans.iter().find(|&&k| sys.head_faultable(k)) {
                        if r.is_multiple_of(2) {
                            sys.drop_message(key);
                        } else {
                            sys.duplicate_head(key);
                        }
                        peak = peak.max(sys.data.in_flight());
                        continue;
                    }
                } else if r % 100 < 16 {
                    if let Some(&key) = chans.iter().find(|&&k| sys.head_corruptible(k)) {
                        sys.taint_head(key);
                        continue;
                    }
                }
                let idle = sys.idle_cores();
                if (r % 100 < 40 || chans.is_empty()) && !idle.is_empty() {
                    let core = idle[(r / 100) as usize % idle.len()];
                    let b = (r / 1000) as usize % 4;
                    let op = if r.is_multiple_of(3) {
                        Op::Load {
                            writer: (r / 7) as usize % 3,
                        }
                    } else {
                        Op::Store
                    };
                    sys.issue(core, b, op).unwrap();
                } else if let Some(&key) = chans.first() {
                    sys.deliver(key).unwrap();
                } else {
                    for c in 0..3 {
                        if sys.needs_retry(c) {
                            sys.retry(c).unwrap();
                        }
                    }
                }
                peak = peak.max(sys.data.in_flight());
            }
            drain_with_retries(&mut sys);
            assert_eq!(
                sys.data.in_flight(),
                0,
                "seed {seed}: live slots at quiescence"
            );
            assert_eq!(
                sys.data.capacity(),
                peak,
                "seed {seed}: pool grew past the in-flight peak (leaked slots)"
            );
            sys.check_quiescent().unwrap();
        }
    }

    #[test]
    fn store_then_remote_load_round_trips() {
        let mut sys = System::new(cfg2());
        sys.issue(0, 0, Op::Store).unwrap();
        drain(&mut sys);
        sys.issue(1, 0, Op::Load { writer: 0 }).unwrap();
        drain(&mut sys);
        assert!(sys.quiescent());
        assert_eq!(sys.completed(), 2);
        sys.check_quiescent().unwrap();
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        let mut a = System::new(cfg2());
        let b = System::new(cfg2());
        assert_eq!(a.fingerprint(), b.fingerprint(), "fresh systems agree");
        let before = a.fingerprint();
        a.issue(0, 0, Op::Store).unwrap();
        assert_ne!(a.fingerprint(), before, "issuing changes the fingerprint");
        // Clones fork without sharing.
        let fork = a.clone();
        assert_eq!(a.fingerprint(), fork.fingerprint());
        drain(&mut a);
        assert_ne!(a.fingerprint(), fork.fingerprint());
    }

    #[test]
    fn fingerprint_independent_of_data_slot_assignment() {
        // Two systems with identical in-flight logical traffic but
        // different delivery histories — and therefore different data
        // pool slot assignments — must fingerprint equal. This pins
        // the payload-split contract: DataRef indices are transport
        // state, not architectural state.
        let data_msg = |v: u64| {
            let mut data = ghostwriter_mem::BlockData::zeroed();
            data.write_word(0, 8, v);
            Msg {
                src: Endpoint::Dir(0),
                dst: Endpoint::L1(0),
                block: BlockAddr(0x40),
                payload: Payload::Data {
                    data,
                    grant: crate::msg::Grant::Shared,
                },
                tag: WireTag::default(),
            }
        };
        // A: the payload of interest lands in slot 0.
        let mut a = System::new(cfg2());
        a.inject(data_msg(42));
        // B: a decoy on another channel takes slot 0 first; the payload
        // of interest gets slot 1; dropping the decoy frees slot 0, so
        // B's only in-flight message references slot 1.
        let mut b = System::new(cfg2());
        let decoy = Msg {
            dst: Endpoint::L1(1),
            ..data_msg(7)
        };
        let decoy_key = (node_key(decoy.src, 2), node_key(decoy.dst, 2));
        b.inject(decoy);
        b.inject(data_msg(42));
        b.drop_message(decoy_key).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "fingerprint must hash logical messages, not slot indices"
        );
        // Sanity: the payload itself still matters.
        let mut c = System::new(cfg2());
        c.inject(data_msg(43));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// A Dir 0 → L1 0 data grant carrying `data`.
    fn grant(data: ghostwriter_mem::BlockData) -> Msg {
        Msg {
            src: Endpoint::Dir(0),
            dst: Endpoint::L1(0),
            block: BlockAddr(0x40),
            payload: Payload::Data {
                data,
                grant: crate::msg::Grant::Shared,
            },
            tag: WireTag::default(),
        }
    }

    /// A fresh 2-core system with `msgs` placed directly on the given
    /// dense channel indices, bypassing the (src, dst) routing — so a
    /// test can put the same message on any channel.
    fn with_net(msgs: &[(usize, Msg)]) -> System {
        let mut sys = System::new(cfg2());
        for (chan, msg) in msgs {
            let ctl = msg.clone().intern(&mut sys.data);
            sys.push(*chan as u32, ctl);
        }
        sys
    }

    #[test]
    fn fingerprint_sees_every_bit_of_in_flight_data() {
        let base = ghostwriter_mem::BlockData::zeroed();
        let mut seen = std::collections::HashSet::new();
        seen.insert(with_net(&[(2, grant(base))]).fingerprint());
        for bit in 0..8 * base.as_bytes().len() {
            let mut data = base;
            data.as_bytes_mut()[bit / 8] ^= 1 << (bit % 8);
            assert!(
                seen.insert(with_net(&[(2, grant(data))]).fingerprint()),
                "flipping data bit {bit} left the fingerprint unchanged"
            );
        }
    }

    #[test]
    fn fingerprint_sees_order_within_a_channel() {
        let x = grant(ghostwriter_mem::BlockData::zeroed());
        let y = Msg {
            payload: Payload::Inv,
            ..x.clone()
        };
        assert_ne!(
            with_net(&[(2, x.clone()), (2, y.clone())]).fingerprint(),
            with_net(&[(2, y), (2, x)]).fingerprint(),
            "swapping two queued messages must change the fingerprint"
        );
    }

    #[test]
    fn fingerprint_sees_which_channel_holds_a_message() {
        let x = grant(ghostwriter_mem::BlockData::zeroed());
        assert_ne!(
            with_net(&[(2, x.clone())]).fingerprint(),
            with_net(&[(3, x)]).fingerprint(),
            "moving a message to another channel must change the fingerprint"
        );
    }

    #[test]
    fn block_order_hash_ignores_insertion_order() {
        let digest = |table: &[(BlockAddr, char)]| {
            let mut h = StateHasher::default();
            hash_in_block_order(table, &mut h);
            h.finish128()
        };
        let sorted = [
            (BlockAddr(1), 'a'),
            (BlockAddr(2), 'b'),
            (BlockAddr(5), 'c'),
        ];
        let shuffled = [
            (BlockAddr(5), 'c'),
            (BlockAddr(1), 'a'),
            (BlockAddr(2), 'b'),
        ];
        assert_eq!(digest(&sorted), digest(&shuffled));
        assert_ne!(digest(&sorted), digest(&sorted[..2]));
    }

    #[test]
    fn fingerprint_frames_adjacent_channels_by_length() {
        // The same message sequence split differently across two
        // adjacent channels: only the per-channel lengths tell them
        // apart.
        let x = grant(ghostwriter_mem::BlockData::zeroed());
        let y = Msg {
            payload: Payload::Inv,
            ..x.clone()
        };
        let split = |at: usize| {
            let msgs: Vec<(usize, Msg)> = [x.clone(), y.clone()]
                .into_iter()
                .enumerate()
                .map(|(i, m)| (if i < at { 2 } else { 3 }, m))
                .collect();
            with_net(&msgs).fingerprint()
        };
        let fps = [split(0), split(1), split(2)];
        assert!(
            fps[0] != fps[1] && fps[1] != fps[2] && fps[0] != fps[2],
            "channel boundaries must be framed by length: {fps:x?}"
        );
    }

    /// An INV on `src → dst` about block `tag`, so a test can tell
    /// messages apart by their block.
    fn inv(src: Endpoint, dst: Endpoint, tag: u64) -> Msg {
        Msg {
            src,
            dst,
            block: BlockAddr(tag),
            payload: Payload::Inv,
            tag: WireTag::default(),
        }
    }

    #[test]
    fn channels_stay_fifo_under_interleaved_sends() {
        let mut sys = System::new(cfg2());
        let (a, b, c) = (
            (Endpoint::Dir(0), Endpoint::L1(0)),
            (Endpoint::Dir(0), Endpoint::L1(1)),
            (Endpoint::Dir(1), Endpoint::L1(0)),
        );
        for (i, (src, dst)) in [a, b, a, c, b, a, c].into_iter().enumerate() {
            sys.inject(inv(src, dst, i as u64));
        }
        let key = |(src, dst)| (node_key(src, 2), node_key(dst, 2));
        let mut drain = |ch| {
            std::iter::from_fn(|| sys.drop_message(key(ch)))
                .map(|m| m.block.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(b), [1, 4]);
        assert_eq!(drain(a), [0, 2, 5]);
        assert_eq!(drain(c), [3, 6]);
        assert!(sys.quiescent());
    }

    #[test]
    fn channels_list_in_row_major_order() {
        let mut sys = System::new(cfg2());
        // Sent in reverse row-major order; node keys are L1 0, L1 1,
        // Dir 0, Dir 1, Mem 0 = 0..5.
        for (src, dst) in [
            (Endpoint::Mem(0), Endpoint::Dir(0)),
            (Endpoint::Dir(1), Endpoint::L1(0)),
            (Endpoint::Dir(0), Endpoint::L1(1)),
            (Endpoint::Dir(0), Endpoint::L1(0)),
            (Endpoint::L1(1), Endpoint::Dir(0)),
            (Endpoint::L1(0), Endpoint::Dir(1)),
        ] {
            sys.inject(inv(src, dst, 0));
        }
        assert_eq!(
            sys.channels(),
            [(0, 3), (1, 2), (2, 0), (2, 1), (3, 0), (4, 2)]
        );
    }

    #[test]
    fn delivering_on_a_fork_leaves_the_parent_untouched() {
        let mut parent = System::new(cfg2());
        parent.issue(0, 0, Op::Store).unwrap();
        parent.issue(1, 0, Op::Load { writer: 0 }).unwrap();
        let channels = parent.channels();
        let fingerprint = parent.fingerprint();
        let heads = |sys: &System| -> Vec<String> {
            channels
                .iter()
                .map(|&k| format!("{:?}", sys.peek_channel(k).map(|m| m.logical(&sys.data))))
                .collect()
        };
        let parent_heads = heads(&parent);
        let mut fork = parent.clone();
        fork.deliver(channels[0]).unwrap();
        assert_ne!(fork.fingerprint(), fingerprint);
        assert_eq!(parent.channels(), channels);
        assert_eq!(parent.fingerprint(), fingerprint);
        assert_eq!(heads(&parent), parent_heads);
        // The parent still delivers the message the fork consumed.
        parent.deliver(channels[0]).unwrap();
        assert_eq!(parent.fingerprint(), fork.fingerprint());
    }

    #[test]
    fn unwritten_value_detected_via_injection() {
        // Inject a Data grant carrying a value the writer never wrote;
        // the oracle must flag the read.
        let mut sys = System::new(cfg2());
        sys.issue(0, 0, Op::Load { writer: 1 }).unwrap();
        let block = sys.block_of(0);
        // Drop the outgoing GETS and answer with forged data ourselves.
        let chans = sys.channels();
        assert_eq!(chans.len(), 1);
        sys.drop_message(chans[0]).unwrap();
        let mut data = ghostwriter_mem::BlockData::zeroed();
        data.write_word(8, 8, 777); // writer 1's slot, never written
        sys.inject(Msg {
            src: Endpoint::Dir(home_bank(block, 2)),
            dst: Endpoint::L1(0),
            block,
            payload: Payload::Data {
                data,
                grant: crate::msg::Grant::Shared,
            },
            tag: WireTag::default(),
        });
        let key = sys.channels()[0];
        let err = sys.deliver(key).unwrap_err();
        assert!(matches!(err, Violation::UnwrittenValue { value: 777, .. }));
    }
}
