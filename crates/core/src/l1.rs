//! The private L1 cache controller: baseline MESI states plus the
//! Ghostwriter approximate states `GS` and `GI` (paper Fig. 3).
//!
//! The controller is written in the *outbox* style: it never talks to the
//! network or the core directly, it returns a list of [`L1Out`] actions for
//! the machine to perform. That keeps every transition unit-testable
//! without building a whole machine.
//!
//! State glossary (stable states; `I` always means *tag present, data
//! stale* — a fully absent block simply has no line):
//!
//! | state | permissions | directory view |
//! |-------|-------------|----------------|
//! | `I`   | none        | not a sharer   |
//! | `S`   | read        | sharer         |
//! | `E`   | read (+silent write→M) | owner |
//! | `M`   | read/write  | owner          |
//! | `O`   | read (dirty; MOESI/MOSI) | distinguished owner + sharers |
//! | `F`   | read (clean forwarder; MESIF) | designated data source |
//! | `GS`  | read/write *locally* (hidden) | still a sharer |
//! | `GI`  | read/write *locally* (hidden) | not tracked |
//!
//! Transient states: `IS_D` (GETS outstanding), `IM_AD` (GETX outstanding),
//! `SM_A` (UPGRADE outstanding; demoted to `IM_AD` if invalidated while
//! waiting, in which case the directory answers with data instead).

use ghostwriter_mem::{
    Addr, BlockAddr, BlockData, Line, LookupResult, ProbedWay, SetAssocCache, WayLookup,
};

use crate::config::{BaseProtocol, GiStorePolicy};
use crate::fault::RecoveryParams;
use crate::harness::hash_in_block_order;
use crate::msg::{Endpoint, Grant, Msg, OwnerXfer, Payload, WireTag};
use crate::proto::{Controller, Homing, L1RowId, L1RowSet, ProtocolError};
use crate::scribe::ScribePolicy;
use crate::stats::Stats;

/// L1 coherence states (Fig. 3 plus the standard directory-protocol
/// transients).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum L1State {
    /// Tag present, data stale, no permissions.
    I,
    /// Shared, read-only.
    S,
    /// Exclusive clean, silent upgrade to M permitted.
    E,
    /// Modified, read/write.
    M,
    /// MOESI/MOSI Owned: dirty but shared read-only; this cache is the
    /// distinguished owner and sources the data for later readers,
    /// eliding the L2 fill.
    O,
    /// MESIF Forward: clean shared read-only; this cache is the
    /// designated forwarder and answers later `FwdGets` instead of L2.
    F,
    /// Ghostwriter: locally modified *shared* block, hidden from the
    /// global view; still on the directory's sharer list.
    Gs,
    /// Ghostwriter: locally modified *invalid* block, hidden from the
    /// global view; untracked, reaped by the periodic timeout.
    Gi,
    /// GETS outstanding.
    IsD,
    /// GETX outstanding (also UPGRADE after losing the race).
    ImAd,
    /// UPGRADE outstanding.
    SmA,
}

/// A demand access from the core.
#[derive(Clone, Copy, Debug, Hash)]
pub struct CoreReq {
    pub addr: Addr,
    /// Access width in bytes (1, 2, 4 or 8).
    pub size: u8,
    /// Store value (ignored for loads).
    pub value: u64,
    pub kind: AccessKind,
}

/// Demand access flavours. The machine resolves a thread's `scribble` into
/// `Scribble { d }` only when the core's approximate region is active and
/// the protocol is Ghostwriter; otherwise it arrives as `Store`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AccessKind {
    Load,
    Store,
    Scribble { d: u8 },
}

impl AccessKind {
    fn is_store_like(self) -> bool {
        !matches!(self, AccessKind::Load)
    }
}

/// Ghostwriter knobs for the L1 (None = baseline MESI).
#[derive(Clone, Copy, Debug, Hash)]
pub struct GwParams {
    pub scribe: ScribePolicy,
    pub enable_gs: bool,
    pub enable_gi: bool,
    pub gi_stores: GiStorePolicy,
    /// §3.5 error bound: max hidden writes before a forced publish.
    pub max_hidden_writes: Option<u32>,
}

/// Actions the machine must perform on the controller's behalf.
#[derive(Debug)]
pub enum L1Out {
    /// The outstanding demand access completed with this (load) value.
    /// The kernel's [`L1Cache::access_into`] returns a hit's value
    /// instead, so there this only ends a miss.
    Reply { value: u64 },
    /// Send a protocol message.
    Send(Msg),
}

#[derive(Clone, Copy, Debug, Hash)]
struct L1Meta {
    state: L1State,
    /// Hidden (GS/GI) writes since the line's last coherent sync; drives
    /// the optional §3.5 error bound.
    hidden_writes: u32,
}

impl L1Meta {
    fn new(state: L1State) -> Self {
        Self {
            state,
            hidden_writes: 0,
        }
    }
}

/// Writeback-buffer entry: holds an evicted E/M/O block until the
/// directory acknowledges the PUT, and answers forwards that race with
/// the eviction.
#[derive(Clone, Debug, Hash)]
struct WbEntry {
    data: BlockData,
}

/// Writeback-buffer capacity, in entries. An entry lives for one
/// PUT→WB_ACK round trip and the in-order core issues at most one miss
/// (and thus one eviction chain) at a time, so the steady-state
/// occupancy is tiny; 16 gives generous slack for ack backlog while
/// keeping the buffer a fixed-width array the hot path scans linearly.
pub const WB_BUFFER_WAYS: usize = 16;

/// Why a writeback-buffer insertion was refused.
enum WbInsertError {
    /// The block already has a buffered writeback (double eviction).
    Duplicate,
    /// All [`WB_BUFFER_WAYS`] entries are occupied.
    Full,
}

/// Fixed-capacity writeback buffer: a small inline vector scanned
/// linearly. With at most [`WB_BUFFER_WAYS`] entries a scan beats the
/// former per-block `HashMap` on every lookup the hot path makes.
#[derive(Clone, Debug, Default)]
struct WbBuffer {
    entries: Vec<(BlockAddr, WbEntry)>,
}

impl WbBuffer {
    fn get(&self, block: BlockAddr) -> Option<&WbEntry> {
        self.entries
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, e)| e)
    }

    fn insert(&mut self, block: BlockAddr, entry: WbEntry) -> Result<(), WbInsertError> {
        if self.entries.iter().any(|(b, _)| *b == block) {
            return Err(WbInsertError::Duplicate);
        }
        if self.entries.len() >= WB_BUFFER_WAYS {
            return Err(WbInsertError::Full);
        }
        self.entries.push((block, entry));
        Ok(())
    }

    fn remove(&mut self, block: BlockAddr) -> Option<WbEntry> {
        let i = self.entries.iter().position(|(b, _)| *b == block)?;
        Some(self.entries.swap_remove(i).1)
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn drain(&mut self) -> impl Iterator<Item = (BlockAddr, WbEntry)> + '_ {
        self.entries.drain(..)
    }
}

/// What an L1 answers a directory forward with.
enum FwdReply {
    /// The block's bytes plus what the holder did with its own copy.
    Data { data: BlockData, xfer: OwnerXfer },
    /// MESIF only: the clean F copy is already gone (`FwdNack`).
    Nack,
}

/// The per-core L1 data-cache controller.
///
/// `Clone` snapshots the full architectural state — the model checker
/// forks a controller at every branching point of its search.
#[derive(Clone)]
pub struct L1Cache {
    core: usize,
    cache: SetAssocCache<L1Meta>,
    /// The single outstanding demand miss (in-order blocking core).
    pending: Option<CoreReq>,
    wb_buffer: WbBuffer,
    gw: Option<GwParams>,
    collect_similarity: bool,
    homing: Homing,
    /// The live transition-table subset for this configuration
    /// (`core::proto`): MESI/ablation variants are row deltas, and the
    /// guards below consult this set instead of config flags.
    rows: L1RowSet,
    /// Row deleted by a checker mutation (`delete-row:<name>`); firing
    /// it raises a [`ProtocolError`].
    disabled: Option<L1RowId>,
    /// Fault-recovery knobs. `None` (the default) keeps the recovery
    /// rows dead and every outgoing message on the default wire tag, so
    /// fault-free hashes and fingerprints are untouched.
    recovery: Option<RecoveryParams>,
    /// Next transaction sequence number to assign (starts at 1; 0 is
    /// the untagged sentinel). Only advanced when recovery is on.
    next_seq: u32,
    /// Sequence number of the outstanding transaction (0 = none).
    cur_seq: u32,
    /// Request payload of the outstanding transaction (`Gets`/`Getx`/
    /// `Upgrade`), kept so timeouts and NACKs can resend it verbatim.
    cur_req: Option<Payload>,
    /// Retries already spent on the outstanding transaction.
    retries_used: u32,
    /// Resident lines in `GI`, kept in step with every transition into
    /// or out of it so the periodic timeout sweep can skip an L1 with
    /// none (the common case) without scanning its lines. Derivable from
    /// `cache`, so excluded from `Hash`.
    gi_lines: usize,
}

impl std::hash::Hash for L1Cache {
    /// Architectural-state hash for the model checker's visited set.
    ///
    /// `collect_similarity` only gates write-only statistics and `rows`/
    /// `disabled` are fixed per configuration (derived from `gw` and the
    /// mutation under test); none can diverge between two states of one
    /// search, so they are excluded.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.core.hash(state);
        self.cache.hash(state);
        self.pending.hash(state);
        hash_in_block_order(&self.wb_buffer.entries, state);
        self.gw.hash(state);
        self.homing.hash(state);
        // The recovery bookkeeping is architectural *only* when recovery
        // is configured; hashing it conditionally keeps every recovery-
        // off hash byte-identical to the pre-recovery implementation.
        if self.recovery.is_some() {
            self.next_seq.hash(state);
            self.cur_seq.hash(state);
            self.cur_req.hash(state);
            self.retries_used.hash(state);
        }
    }
}

/// Home L2 bank of a block: low-order interleave across banks.
pub fn home_bank(block: BlockAddr, banks: usize) -> usize {
    Homing::new(banks).home(block)
}

/// [`L1Cache::row`] over the fields it reads, for callers that hold a
/// borrow of the cache lines. Inlined so `row`, on every dispatch, stays
/// as it was before the split.
#[inline(always)]
fn fire_row(
    core: usize,
    disabled: Option<L1RowId>,
    id: L1RowId,
    stats: &mut Stats,
) -> Result<(), ProtocolError> {
    stats.coverage.l1[id as usize] += 1;
    if disabled == Some(id) {
        return Err(ProtocolError::row(
            Controller::L1 { core },
            id.name(),
            "row deleted by mutation",
        ));
    }
    Ok(())
}

/// [`L1Cache::msg`] over the fields it reads.
#[inline(always)]
fn msg_to_home(core: usize, homing: Homing, block: BlockAddr, payload: Payload) -> Msg {
    Msg {
        src: Endpoint::L1(core),
        dst: Endpoint::Dir(homing.home(block)),
        block,
        payload,
        tag: WireTag::default(),
    }
}

impl L1Cache {
    /// Builds an L1 with `sets × ways` lines for core `core` in a machine
    /// with `banks` L2 banks.
    pub fn new(
        core: usize,
        sets: usize,
        ways: usize,
        banks: usize,
        base: BaseProtocol,
        gw: Option<GwParams>,
        collect_similarity: bool,
    ) -> Self {
        Self {
            core,
            cache: SetAssocCache::new(sets, ways),
            pending: None,
            wb_buffer: WbBuffer::default(),
            gw,
            collect_similarity,
            homing: Homing::new(banks),
            rows: L1RowSet::for_config(base, gw.as_ref()),
            disabled: None,
            recovery: None,
            next_seq: 1,
            cur_seq: 0,
            cur_req: None,
            retries_used: 0,
            gi_lines: 0,
        }
    }

    /// Enables the fault-recovery rows: outgoing requests are sequence-
    /// tagged, stale/duplicate grants are dropped instead of being
    /// protocol errors, tainted fills are absorbed or refetched, and
    /// [`L1Cache::retry_pending_into`] becomes live.
    pub fn set_recovery(&mut self, params: RecoveryParams) {
        self.recovery = Some(params);
    }

    /// Sequence number of the outstanding transaction, if recovery is on
    /// and a demand miss is in flight. The machine's retry timer keys on
    /// this to detect that the transaction it armed for is still stuck.
    pub fn pending_seq(&self) -> Option<u32> {
        match (&self.recovery, &self.pending) {
            (Some(_), Some(_)) if self.cur_seq != 0 => Some(self.cur_seq),
            _ => None,
        }
    }

    /// Retries already spent on the outstanding transaction (drives the
    /// machine's exponential backoff).
    pub fn retries_used(&self) -> u32 {
        self.retries_used
    }

    /// Block of the outstanding demand miss, if any (pairs with
    /// [`L1Cache::pending_seq`] so the harness can ask the block's home
    /// bank whether a resend would make progress).
    pub fn pending_block(&self) -> Option<BlockAddr> {
        self.pending.as_ref().map(|r| r.addr.block())
    }

    /// Fault-injection hook for the defensive-row unit tests: plants a
    /// line for `block` in an arbitrary coherence state without going
    /// through a demand access, the way a corrupted or byzantine
    /// controller would leave it. `pending` and the writeback buffer
    /// stay untouched, so the otherwise-unreachable `Reach::Never`
    /// rows (e.g. a demand access against a transient line with no
    /// outstanding request) can be exercised and asserted to produce a
    /// typed [`ProtocolError`], not a panic.
    pub fn force_line(&mut self, block: BlockAddr, state: L1State) {
        let way = match self.cache.lookup_for_insert(block) {
            LookupResult::Hit { way }
            | LookupResult::Free { way }
            | LookupResult::Victim { way, .. } => way,
        };
        let displaced = self
            .cache
            .insert_at(way, block, L1Meta::new(state), BlockData::zeroed());
        if displaced.is_some_and(|l| l.meta.state == L1State::Gi) {
            self.gi_lines -= 1;
        }
        if state == L1State::Gi {
            self.gi_lines += 1;
        }
    }

    /// Deletes the named table row (checker mutation support): the next
    /// time the row fires, the controller reports a [`ProtocolError`]
    /// instead of transitioning. Returns false for names that are not L1
    /// rows.
    pub fn disable_row(&mut self, name: &str) -> bool {
        match L1RowId::by_name(name) {
            Some(id) => {
                self.disabled = Some(id);
                true
            }
            None => false,
        }
    }

    fn ctl(&self) -> Controller {
        Controller::L1 { core: self.core }
    }

    /// Single owner of the modeled tag-probe energy charge (paper energy
    /// model): the sites that *model* a tag-array probe — transaction-
    /// starting misses and incoming invalidations — all charge through
    /// here. The modeled count is deliberately decoupled from the number
    /// of physical [`SetAssocCache`] lookups the way-threaded
    /// implementation performs, so layout refactors cannot drift the
    /// energy statistics.
    #[inline]
    fn charge_tag_probe(stats: &mut Stats) {
        stats.energy_events.l1_tag_probes += 1;
    }

    /// Table dispatch: records the row hit in the coverage counters and
    /// refuses to fire a row deleted by a checker mutation.
    fn row(&self, id: L1RowId, stats: &mut Stats) -> Result<(), ProtocolError> {
        fire_row(self.core, self.disabled, id, stats)
    }

    /// An error (`Reach::Never`) row fired: record the hit and build the
    /// protocol error the caller returns.
    fn error(&self, id: L1RowId, stats: &mut Stats, detail: impl Into<String>) -> ProtocolError {
        stats.coverage.l1[id as usize] += 1;
        ProtocolError::row(self.ctl(), id.name(), detail)
    }

    /// Core index of this L1.
    pub fn core(&self) -> usize {
        self.core
    }

    /// True while a demand miss is outstanding (core blocked).
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Physical tag lookups performed by this controller's cache array
    /// (tests only; see [`SetAssocCache::phys_lookups`]). Counts every
    /// lookup entry point including memo hits, so "one lookup per
    /// access" is a real claim about the way-threaded paths.
    #[cfg(debug_assertions)]
    pub fn phys_lookups(&self) -> u64 {
        self.cache.phys_lookups()
    }

    /// Coherence state of `block`, if resident (for tests and tracing).
    pub fn state_of(&self, block: BlockAddr) -> Option<L1State> {
        self.cache.get(block).map(|l| l.meta.state)
    }

    /// Resident lines in `GI`, from the count kept in step with every
    /// transition; debug builds check it against a scan of the cache.
    pub fn gi_line_count(&self) -> usize {
        debug_assert_eq!(
            self.gi_lines,
            self.cache
                .iter()
                .filter(|l| l.meta.state == L1State::Gi)
                .count(),
            "core {}: GI-line count out of step with the cache",
            self.core
        );
        self.gi_lines
    }

    /// Hidden-write count of `block`, if resident (for the model
    /// checker's §3.5 error-bound invariant).
    pub fn hidden_writes_of(&self, block: BlockAddr) -> Option<u32> {
        self.cache.get(block).map(|l| l.meta.hidden_writes)
    }

    /// Word currently stored at `addr` in this cache, if resident
    /// (for tests: observes hidden GS/GI values).
    pub fn peek_word(&self, addr: Addr, size: usize) -> Option<u64> {
        self.cache
            .get(addr.block())
            .map(|l| l.data.read_word(addr.offset(), size))
    }

    fn msg(&self, block: BlockAddr, payload: Payload) -> Msg {
        msg_to_home(self.core, self.homing, block, payload)
    }

    /// Opens a coherence transaction: records the pending demand access
    /// and emits its request. With recovery on the request is stamped
    /// with a fresh sequence number and its payload retained so timeouts
    /// and conflict NACKs can resend it verbatim; with recovery off this
    /// is exactly the former two-line `pending = ...; Send(...)` idiom.
    fn start_txn(
        &mut self,
        req: CoreReq,
        block: BlockAddr,
        payload: Payload,
        out: &mut Vec<L1Out>,
    ) {
        let mut msg = self.msg(block, payload.clone());
        if self.recovery.is_some() {
            self.cur_seq = self.next_seq;
            // Wrap past 0: sequence 0 is the untagged sentinel.
            self.next_seq = match self.next_seq.wrapping_add(1) {
                0 => 1,
                n => n,
            };
            self.cur_req = Some(payload);
            self.retries_used = 0;
            msg.tag = WireTag::seq(self.cur_seq);
        }
        self.pending = Some(req);
        out.push(L1Out::Send(msg));
    }

    /// Resends the outstanding request with its original sequence number
    /// (same transaction, not a new one). Charges the given retry row:
    /// `retry_resend` for timeouts, `req_nacked` for conflict NACKs.
    fn resend_pending(
        &mut self,
        row: L1RowId,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<(), ProtocolError> {
        self.row(row, stats)?;
        let block = self
            .pending
            .as_ref()
            .expect("resend with a pending transaction")
            .addr
            .block();
        let payload = self.cur_req.clone().expect("request payload recorded");
        let mut msg = self.msg(block, payload);
        msg.tag = WireTag::seq(self.cur_seq);
        out.push(L1Out::Send(msg));
        Ok(())
    }

    /// Closes the outstanding transaction's recovery bookkeeping (the
    /// grant landed). No-op state with recovery off.
    fn complete_txn(&mut self) {
        self.cur_seq = 0;
        self.cur_req = None;
        self.retries_used = 0;
    }

    /// Retry-timeout entry point (machine `RetryCheck`, checker `r{core}`
    /// action): resends the outstanding request, or raises the typed
    /// `retry_exhausted` error once the budget is spent. Returns `false`
    /// (no-op) if recovery is off or no transaction is outstanding —
    /// a stale timer, not an error.
    pub fn retry_pending_into(
        &mut self,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<bool, ProtocolError> {
        let Some(rec) = self.recovery else {
            return Ok(false);
        };
        if self.pending.is_none() || self.cur_seq == 0 {
            return Ok(false);
        }
        if self.retries_used >= rec.max_retries {
            return Err(self.error(
                L1RowId::RetryExhausted,
                stats,
                format!(
                    "transaction seq {} lost after {} retries",
                    self.cur_seq, self.retries_used
                ),
            ));
        }
        self.retries_used += 1;
        stats.retries += 1;
        self.resend_pending(L1RowId::RetryResend, stats, out)?;
        Ok(true)
    }

    /// Fault-injection hook (SEU model): flips `bit` of the `nth`
    /// resident stable line's data, wrapping `nth` over the resident
    /// population. Transient lines are skipped — their data is garbage
    /// awaiting a fill. Returns false if nothing is resident.
    pub fn corrupt_resident(&mut self, nth: u64, bit: u32) -> bool {
        let stable = |s: L1State| {
            matches!(
                s,
                L1State::S
                    | L1State::E
                    | L1State::M
                    | L1State::O
                    | L1State::F
                    | L1State::Gs
                    | L1State::Gi
            )
        };
        let count = self.cache.iter().filter(|l| stable(l.meta.state)).count();
        if count == 0 {
            return false;
        }
        let idx = (nth % count as u64) as usize;
        let line = self
            .cache
            .iter_mut()
            .filter(|l| stable(l.meta.state))
            .nth(idx)
            .expect("indexed within resident count");
        let bit = bit as usize % (line.data.as_bytes().len() * 8);
        line.data.as_bytes_mut()[bit / 8] ^= 1 << (bit % 8);
        true
    }

    /// Handles a demand access from the core. Returns either a same-cycle
    /// `Reply` (hit) or the messages of a coherence transaction (miss);
    /// in the latter case the core blocks until the fill completes.
    ///
    /// `Err` means the transition table has no row for what happened — a
    /// protocol error the harness surfaces as a violation.
    pub fn access(&mut self, req: CoreReq, stats: &mut Stats) -> Result<Vec<L1Out>, ProtocolError> {
        let mut out = Vec::new();
        if let Some(value) = self.access_into(req, stats, &mut out)? {
            out.push(L1Out::Reply { value });
        }
        Ok(out)
    }

    /// Allocation-free form of [`L1Cache::access`], the simulation
    /// kernel's entry point. A hit returns `Some(value)` (the loaded word,
    /// 0 for a store) and touches nothing else: no [`L1Out::Reply`] goes
    /// through the outbox, so the engine resumes the core straight from
    /// the return value. A miss returns `None` and appends the
    /// transaction's messages to `out` (a reused scratch buffer); the
    /// reply arrives later from [`L1Cache::handle_msg_into`].
    pub fn access_into(
        &mut self,
        req: CoreReq,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<Option<u64>, ProtocolError> {
        assert!(
            self.pending.is_none(),
            "core {} issued a second outstanding access",
            self.core
        );
        match req.kind {
            AccessKind::Load => stats.loads += 1,
            AccessKind::Store => stats.stores += 1,
            AccessKind::Scribble { .. } => stats.scribbles += 1,
        }
        let block = req.addr.block();
        let offset = req.addr.offset();
        let size = req.size as usize;
        assert!(
            req.addr.fits_in_block(size),
            "access at {:?} size {} crosses a block boundary",
            req.addr,
            size
        );

        // One physical tag lookup classifies the whole access; the
        // resulting token is threaded through every helper below.
        let way = match self.cache.lookup_way(block) {
            WayLookup::Hit(w) => {
                // Similarity profiling (Fig. 2): every store-like access
                // that finds the block's tag compares the incoming word
                // with the word it overwrites, irrespective of coherence
                // state.
                if req.kind.is_store_like() && self.collect_similarity {
                    let old = self.cache.line_at(w).data.read_word(offset, size);
                    stats.similarity.record(old, req.value, (size * 8) as u32);
                }
                let state = self.cache.line_at(w).meta.state;
                return self.access_tagged(req, w, state, stats, out);
            }
            WayLookup::Free { way } => way,
            WayLookup::Victim(v) => {
                // True miss into a full set: evict through the victim's
                // token, then reuse its way for the fill.
                let way = v.way();
                let line = self.cache.remove_at(v);
                self.evict(line, stats, out)?;
                way
            }
        };

        // True miss: no tag. The line is allocated below and the
        // transaction starts.
        Self::charge_tag_probe(stats);
        let (row, state, payload) = if req.kind.is_store_like() {
            (L1RowId::MissStore, L1State::ImAd, Payload::Getx)
        } else {
            (L1RowId::MissLoad, L1State::IsD, Payload::Gets)
        };
        self.row(row, stats)?;
        if req.kind.is_store_like() {
            stats.l1_store_misses += 1;
        } else {
            stats.l1_load_misses += 1;
        }
        self.cache
            .insert_at(way, block, L1Meta::new(state), BlockData::zeroed());
        self.start_txn(req, block, payload, out);
        Ok(None)
    }

    /// Demand access when the block's tag is present in state `state`;
    /// `w` is the line's probe token from the access's single physical
    /// tag lookup.
    fn access_tagged(
        &mut self,
        req: CoreReq,
        w: ProbedWay,
        state: L1State,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<Option<u64>, ProtocolError> {
        let block = req.addr.block();
        let offset = req.addr.offset();
        let size = req.size as usize;
        let width = (size * 8) as u32;

        // Whether a scribble passes the scribe comparator against the
        // word currently in the block (stale or not).
        let scribble_pass = |line_data: &BlockData, d: u8, gw: &GwParams| {
            gw.scribe.within(
                line_data.read_word(offset, size),
                req.value,
                width,
                d as u32,
            )
        };
        // §3.5 error bound: once a line has accumulated `max_hidden_writes`
        // hidden updates without a coherent resync, force the next
        // scribble down the conventional path (publishing / refetching).
        let bound_ok = |meta: &L1Meta, gw: &GwParams| match gw.max_hidden_writes {
            Some(bound) => meta.hidden_writes < bound,
            None => true,
        };

        match req.kind {
            AccessKind::Load => match state {
                L1State::S | L1State::E | L1State::M | L1State::Gs => {
                    self.row(L1RowId::LoadHit, stats)?;
                    stats.l1_load_hits += 1;
                    stats.energy_events.l1_reads += 1;
                    self.cache.touch_at(w);
                    let v = self.cache.line_at(w).data.read_word(offset, size);
                    Ok(Some(v))
                }
                L1State::O | L1State::F => {
                    let row = if state == L1State::O {
                        L1RowId::LoadHitOwned
                    } else {
                        L1RowId::LoadHitFwd
                    };
                    self.row(row, stats)?;
                    stats.l1_load_hits += 1;
                    stats.energy_events.l1_reads += 1;
                    self.cache.touch_at(w);
                    let v = self.cache.line_at(w).data.read_word(offset, size);
                    Ok(Some(v))
                }
                L1State::Gi => {
                    self.row(L1RowId::LoadHitGi, stats)?;
                    stats.l1_load_hits += 1;
                    stats.gi_load_hits += 1;
                    stats.energy_events.l1_reads += 1;
                    self.cache.touch_at(w);
                    let v = self.cache.line_at(w).data.read_word(offset, size);
                    Ok(Some(v))
                }
                L1State::I => {
                    // Coherence (or capacity-invalidated) load miss.
                    self.row(L1RowId::LoadInvalid, stats)?;
                    stats.l1_load_misses += 1;
                    Self::charge_tag_probe(stats);
                    self.cache.line_at_mut(w).meta.state = L1State::IsD;
                    self.start_txn(req, block, Payload::Gets, out);
                    Ok(None)
                }
                t => Err(self.error(
                    L1RowId::LoadTransient,
                    stats,
                    format!("load while transient {t:?}"),
                )),
            },

            AccessKind::Store | AccessKind::Scribble { .. } => {
                let d = match req.kind {
                    AccessKind::Scribble { d } => Some(d),
                    _ => None,
                };
                match state {
                    L1State::M => {
                        self.row(L1RowId::StoreHitM, stats)?;
                        self.write_hit(w, offset, size, req.value, stats);
                        Ok(Some(0))
                    }
                    L1State::E => {
                        self.row(L1RowId::StoreHitE, stats)?;
                        self.write_hit(w, offset, size, req.value, stats);
                        self.cache.line_at_mut(w).meta.state = L1State::M;
                        Ok(Some(0))
                    }
                    L1State::O | L1State::F => {
                        // Both are read-only shared states: publishing a
                        // store goes down the conventional UPGRADE path
                        // (scribbles included — an O line is already
                        // dirty-global, an F line is a clean copy, so
                        // neither admits a hidden GS entry).
                        let row = if state == L1State::O {
                            L1RowId::UpgradeFromO
                        } else {
                            L1RowId::UpgradeFromF
                        };
                        self.row(row, stats)?;
                        stats.upgrades_from_s += 1;
                        stats.l1_store_misses += 1;
                        Self::charge_tag_probe(stats);
                        self.cache.line_at_mut(w).meta.state = L1State::SmA;
                        self.start_txn(req, block, Payload::Upgrade, out);
                        Ok(None)
                    }
                    L1State::Gi => {
                        // Fig. 3/Fig. 5: loads, conventional stores and
                        // *passing* scribbles hit on a GI block (hidden
                        // local writes). What a *failing* scribble does is
                        // policy (see GiStorePolicy): under `Capture` it
                        // hits like any store (Fig. 3's Store self-loop);
                        // under `Fallback` it "falls back to the
                        // conventional coherence mechanisms" (§3.1) and
                        // issues a GETX, ending the hidden window (the
                        // fetched coherent data overwrites the forfeited
                        // local updates).
                        let gw = self.gw;
                        let pass = match (d, &gw) {
                            // A failing scribble only breaks the window
                            // when the GI-break row is live (Fallback);
                            // under Capture the table deletes it and the
                            // scribble is captured like a store.
                            (Some(d), Some(gw)) => {
                                bound_ok(&self.cache.line_at(w).meta, gw)
                                    && (!self.rows.contains(L1RowId::GiBreak)
                                        || scribble_pass(&self.cache.line_at(w).data, d, gw))
                            }
                            // Conventional store: Fig. 3 Store self-loop.
                            (None, _) => true,
                            (Some(_), None) => {
                                return Err(ProtocolError::internal(
                                    self.ctl(),
                                    format!("GI line {block:?} without GW params"),
                                ))
                            }
                        };
                        if pass {
                            self.row(L1RowId::GiStoreHit, stats)?;
                            stats.gi_store_hits += 1;
                            self.write_hit(w, offset, size, req.value, stats);
                            self.cache.line_at_mut(w).meta.hidden_writes += 1;
                            Ok(Some(0))
                        } else {
                            self.row(L1RowId::GiBreak, stats)?;
                            stats.stores_on_invalid_tagged += 1;
                            stats.l1_store_misses += 1;
                            Self::charge_tag_probe(stats);
                            stats.gi_breaks += 1;
                            self.cache.line_at_mut(w).meta.state = L1State::ImAd;
                            self.gi_lines -= 1;
                            self.start_txn(req, block, Payload::Getx, out);
                            Ok(None)
                        }
                    }
                    L1State::S => {
                        // The S→GS entry row is a table delta: removed
                        // under the baseline and the no-GS ablation.
                        let gw = self.gw;
                        let pass = self.rows.contains(L1RowId::EnterGs)
                            && matches!((d, &gw), (Some(d), Some(gw))
                                if bound_ok(&self.cache.line_at(w).meta, gw)
                                && scribble_pass(&self.cache.line_at(w).data, d, gw));
                        if pass {
                            // S → GS: write locally, no coherence actions.
                            self.row(L1RowId::EnterGs, stats)?;
                            stats.serviced_by_gs += 1;
                            self.write_hit(w, offset, size, req.value, stats);
                            let meta = &mut self.cache.line_at_mut(w).meta;
                            meta.state = L1State::Gs;
                            meta.hidden_writes += 1;
                            Ok(Some(0))
                        } else {
                            // Conventional path: UPGRADE.
                            self.row(L1RowId::UpgradeFromS, stats)?;
                            stats.upgrades_from_s += 1;
                            stats.l1_store_misses += 1;
                            Self::charge_tag_probe(stats);
                            self.cache.line_at_mut(w).meta.state = L1State::SmA;
                            self.start_txn(req, block, Payload::Upgrade, out);
                            Ok(None)
                        }
                    }
                    L1State::Gs => {
                        let gw = self.gw;
                        let pass = matches!((d, &gw), (Some(d), Some(gw))
                            if bound_ok(&self.cache.line_at(w).meta, gw)
                            && scribble_pass(&self.cache.line_at(w).data, d, gw));
                        if pass {
                            self.row(L1RowId::GsHit, stats)?;
                            stats.gs_hits += 1;
                            self.write_hit(w, offset, size, req.value, stats);
                            self.cache.line_at_mut(w).meta.hidden_writes += 1;
                            Ok(Some(0))
                        } else {
                            // Conventional store from GS publishes the
                            // locally modified block via UPGRADE (Fig. 3:
                            // GS --Store/UPGRADE--> M).
                            self.row(L1RowId::UpgradeFromGs, stats)?;
                            stats.upgrades_from_gs += 1;
                            stats.l1_store_misses += 1;
                            Self::charge_tag_probe(stats);
                            self.cache.line_at_mut(w).meta.state = L1State::SmA;
                            self.start_txn(req, block, Payload::Upgrade, out);
                            Ok(None)
                        }
                    }
                    L1State::I => {
                        // The I→GI entry row is a table delta: removed
                        // under the baseline and the no-GI ablation.
                        let gw = self.gw;
                        let pass = self.rows.contains(L1RowId::EnterGi)
                            && matches!((d, &gw), (Some(d), Some(gw))
                                if bound_ok(&self.cache.line_at(w).meta, gw)
                                && scribble_pass(&self.cache.line_at(w).data, d, gw));
                        if pass {
                            // I → GI: write over the stale data, no GETX.
                            self.row(L1RowId::EnterGi, stats)?;
                            stats.serviced_by_gi += 1;
                            self.write_hit(w, offset, size, req.value, stats);
                            let meta = &mut self.cache.line_at_mut(w).meta;
                            meta.state = L1State::Gi;
                            meta.hidden_writes += 1;
                            self.gi_lines += 1;
                            Ok(Some(0))
                        } else {
                            self.row(L1RowId::StoreInvalid, stats)?;
                            stats.stores_on_invalid_tagged += 1;
                            stats.l1_store_misses += 1;
                            Self::charge_tag_probe(stats);
                            self.cache.line_at_mut(w).meta.state = L1State::ImAd;
                            self.start_txn(req, block, Payload::Getx, out);
                            Ok(None)
                        }
                    }
                    t => Err(self.error(
                        L1RowId::StoreTransient,
                        stats,
                        format!("store while transient {t:?}"),
                    )),
                }
            }
        }
    }

    fn write_hit(
        &mut self,
        w: ProbedWay,
        offset: usize,
        size: usize,
        value: u64,
        stats: &mut Stats,
    ) {
        stats.l1_store_hits += 1;
        stats.energy_events.l1_writes += 1;
        self.cache.touch_at(w);
        self.cache
            .line_at_mut(w)
            .data
            .write_word(offset, size, value);
    }

    /// Buffers an evicted dirty/exclusive block until its PUT is acked.
    /// Capacity exhaustion and double eviction are typed protocol errors,
    /// not panics — the checker's mutation sweeps drive both.
    fn wb_insert(&mut self, victim: BlockAddr, data: BlockData) -> Result<(), ProtocolError> {
        self.wb_buffer
            .insert(victim, WbEntry { data })
            .map_err(|e| {
                ProtocolError::internal(
                    self.ctl(),
                    match e {
                        WbInsertError::Duplicate => {
                            format!("double eviction of {victim:?}: writeback already buffered")
                        }
                        WbInsertError::Full => format!(
                            "writeback buffer full ({WB_BUFFER_WAYS} entries) evicting {victim:?}"
                        ),
                    },
                )
            })
    }

    /// Evicts the already-removed victim `line` per its state, appending
    /// any protocol messages. The caller removes the line through its
    /// probe token so no extra tag lookup happens here.
    fn evict(
        &mut self,
        line: Line<L1Meta>,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<(), ProtocolError> {
        let victim = line.block;
        match line.meta.state {
            L1State::M => {
                self.row(L1RowId::EvictM, stats)?;
                stats.energy_events.l1_reads += 1;
                self.wb_insert(victim, line.data)?;
                out.push(L1Out::Send(
                    self.msg(victim, Payload::PutM { data: line.data }),
                ));
            }
            L1State::O => {
                // Owned is dirty: the eviction is a writeback, exactly
                // like M (the directory refills L2 from it).
                self.row(L1RowId::EvictO, stats)?;
                stats.energy_events.l1_reads += 1;
                self.wb_insert(victim, line.data)?;
                out.push(L1Out::Send(
                    self.msg(victim, Payload::PutM { data: line.data }),
                ));
            }
            L1State::E => {
                self.row(L1RowId::EvictE, stats)?;
                self.wb_insert(victim, line.data)?;
                out.push(L1Out::Send(self.msg(victim, Payload::PutE)));
            }
            L1State::F => {
                // Forward is clean and L2 is valid: a plain PUTS. A
                // FwdGets racing this eviction is bounced with FWD_NACK
                // (`fwd_gets_stale`) and served from L2.
                self.row(L1RowId::EvictF, stats)?;
                out.push(L1Out::Send(self.msg(victim, Payload::PutS)));
            }
            L1State::S => {
                self.row(L1RowId::EvictS, stats)?;
                out.push(L1Out::Send(self.msg(victim, Payload::PutS)));
            }
            L1State::Gs => {
                // Scribbled updates are forfeited (paper §3.5); tell the
                // directory we are no longer a sharer.
                self.row(L1RowId::EvictGs, stats)?;
                stats.approx_evictions += 1;
                out.push(L1Out::Send(self.msg(victim, Payload::PutS)));
            }
            L1State::Gi => {
                // Untracked: drop silently, updates forfeited. The line
                // is already out of the array, so it leaves the count
                // whether or not the row fires.
                self.gi_lines -= 1;
                self.row(L1RowId::EvictGi, stats)?;
                stats.approx_evictions += 1;
            }
            L1State::I => self.row(L1RowId::EvictI, stats)?,
            t => {
                return Err(self.error(
                    L1RowId::EvictTransient,
                    stats,
                    format!("transient line {t:?} chosen as victim"),
                ))
            }
        }
        Ok(())
    }

    /// Handles a protocol message addressed to this L1.
    ///
    /// `Err` means the transition table has no row for `(state, payload)`
    /// — a protocol error the harness surfaces as a violation.
    pub fn handle_msg(&mut self, msg: Msg, stats: &mut Stats) -> Result<Vec<L1Out>, ProtocolError> {
        let mut out = Vec::new();
        self.handle_msg_into(msg, stats, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`L1Cache::handle_msg`]: appends outputs
    /// to `out` instead of returning a fresh `Vec`.
    pub fn handle_msg_into(
        &mut self,
        msg: Msg,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<(), ProtocolError> {
        let block = msg.block;
        let dir = msg.src;
        match msg.payload {
            Payload::Inv => {
                Self::charge_tag_probe(stats);
                let w = self.cache.probe_way(block);
                let row = match w.map(|t| self.cache.line_at(t).meta.state) {
                    Some(L1State::S) => L1RowId::InvSharer,
                    // MOESI: a GETX by one of our sharers invalidates the
                    // owner too — the upgrading sharer holds identical
                    // bytes, so the dirty data is not lost.
                    Some(L1State::O) => L1RowId::InvOwned,
                    Some(L1State::F) => L1RowId::InvFwd,
                    Some(L1State::Gs) => L1RowId::InvGs,
                    // UPGRADE lost the race: the directory will answer
                    // it with data; wait in IM_AD.
                    Some(L1State::SmA) => L1RowId::InvSmA,
                    // Our own GETS/GETX is queued behind the
                    // invalidating transaction; the INV targeted the
                    // copy we since dropped (or the tag is gone
                    // entirely). Ack and keep waiting.
                    Some(L1State::IsD | L1State::ImAd | L1State::I) | None => L1RowId::InvStale,
                    Some(t @ (L1State::E | L1State::M | L1State::Gi)) => {
                        return Err(self.error(
                            L1RowId::InvWriter,
                            stats,
                            format!("INV in state {t:?}"),
                        ))
                    }
                };
                self.row(row, stats)?;
                match row {
                    L1RowId::InvSharer | L1RowId::InvOwned | L1RowId::InvFwd => {
                        self.cache.line_at_mut(w.unwrap()).meta.state = L1State::I
                    }
                    L1RowId::InvGs => {
                        self.cache.line_at_mut(w.unwrap()).meta.state = L1State::I;
                        stats.gs_invalidations += 1;
                    }
                    L1RowId::InvSmA => {
                        self.cache.line_at_mut(w.unwrap()).meta.state = L1State::ImAd
                    }
                    _ => {}
                }
                out.push(L1Out::Send(Msg {
                    src: Endpoint::L1(self.core),
                    dst: dir,
                    block,
                    payload: Payload::InvAck,
                    tag: WireTag::default(),
                }));
                Ok(())
            }
            Payload::FwdGets => {
                let payload = match self.forward_data(block, true, stats)? {
                    FwdReply::Data { data, xfer } => Payload::DataToDir { data, xfer },
                    FwdReply::Nack => Payload::FwdNack,
                };
                out.push(L1Out::Send(Msg {
                    src: Endpoint::L1(self.core),
                    dst: dir,
                    block,
                    payload,
                    tag: WireTag::default(),
                }));
                Ok(())
            }
            Payload::FwdGetx => {
                let payload = match self.forward_data(block, false, stats)? {
                    FwdReply::Data { data, xfer } => {
                        debug_assert_eq!(xfer, OwnerXfer::Dropped);
                        Payload::DataToDir { data, xfer }
                    }
                    FwdReply::Nack => {
                        return Err(ProtocolError::internal(
                            self.ctl(),
                            format!("FWD_GETX for {block:?} answered with a NACK"),
                        ))
                    }
                };
                out.push(L1Out::Send(Msg {
                    src: Endpoint::L1(self.core),
                    dst: dir,
                    block,
                    payload,
                    tag: WireTag::default(),
                }));
                Ok(())
            }
            Payload::Data { data, grant } => {
                // Recovery: a grant that cannot belong to the outstanding
                // transaction (no pending miss, wrong block, stale or
                // duplicate sequence number) is an *expected* artifact of
                // retries and duplication — drop it instead of raising
                // the data_unexpected protocol error.
                if self.recovery.is_some() {
                    let matches_pending = self
                        .pending
                        .as_ref()
                        .is_some_and(|r| r.addr.block() == block)
                        && msg.tag.seq == self.cur_seq;
                    if !matches_pending {
                        self.row(L1RowId::StaleReplyDrop, stats)?;
                        stats.stale_replies += 1;
                        return Ok(());
                    }
                    if msg.tag.tainted {
                        let approx = matches!(
                            self.pending.as_ref().expect("matched above").kind,
                            AccessKind::Scribble { .. }
                        );
                        if approx {
                            // Graceful degradation: the requestor is an
                            // error-tolerant scribble, so the corrupted
                            // fill flows into the approximate dataflow
                            // and is charged to the application's error
                            // budget (visible in the NRMSE curves).
                            self.row(L1RowId::CorruptFillAbsorb, stats)?;
                            stats.corrupt_fills_absorbed += 1;
                        } else {
                            // Precise data: quarantine the tainted block
                            // (it never becomes architecturally visible)
                            // and refetch under the same sequence number.
                            stats.corrupt_fills_refetched += 1;
                            self.resend_pending(L1RowId::CorruptFillRefetch, stats, out)?;
                            return Ok(());
                        }
                    }
                }
                let req = match self.pending.take() {
                    Some(req) => req,
                    None => {
                        return Err(self.error(
                            L1RowId::DataUnexpected,
                            stats,
                            format!("DATA for {block:?} with no pending miss"),
                        ))
                    }
                };
                if req.addr.block() != block {
                    return Err(self.error(
                        L1RowId::DataUnexpected,
                        stats,
                        format!("DATA for {block:?} while missing on {:?}", req.addr.block()),
                    ));
                }
                let w = self.cache.probe_way(block);
                let row = match (w.map(|t| self.cache.line_at(t).meta.state), grant) {
                    (Some(L1State::IsD), Grant::Shared) => L1RowId::DataFillShared,
                    (Some(L1State::IsD), Grant::Exclusive) => L1RowId::DataFillExcl,
                    (Some(L1State::IsD), Grant::Forward)
                        if self.rows.contains(L1RowId::DataFillFwd) =>
                    {
                        L1RowId::DataFillFwd
                    }
                    (Some(L1State::ImAd | L1State::SmA), Grant::Modified) => L1RowId::DataFillM,
                    (t, g) => {
                        return Err(self.error(
                            L1RowId::DataUnexpected,
                            stats,
                            format!("DATA with grant {g:?} in state {t:?}"),
                        ))
                    }
                };
                self.row(row, stats)?;
                stats.energy_events.l1_writes += 1; // line fill
                let w = w.expect("miss line allocated");
                let line = self.cache.line_at_mut(w);
                line.meta.hidden_writes = 0;
                line.data = data;
                let value = match row {
                    L1RowId::DataFillShared => {
                        line.meta.state = L1State::S;
                        line.data.read_word(req.addr.offset(), req.size as usize)
                    }
                    L1RowId::DataFillExcl => {
                        line.meta.state = L1State::E;
                        line.data.read_word(req.addr.offset(), req.size as usize)
                    }
                    L1RowId::DataFillFwd => {
                        line.meta.state = L1State::F;
                        line.data.read_word(req.addr.offset(), req.size as usize)
                    }
                    _ => {
                        line.data
                            .write_word(req.addr.offset(), req.size as usize, req.value);
                        line.meta.state = L1State::M;
                        0
                    }
                };
                self.cache.touch_at(w);
                self.complete_txn();
                out.push(L1Out::Send(Msg {
                    src: Endpoint::L1(self.core),
                    dst: dir,
                    block,
                    payload: Payload::Unblock,
                    tag: WireTag::default(),
                }));
                out.push(L1Out::Reply { value });
                Ok(())
            }
            Payload::UpgAck => {
                // Recovery: same stale/duplicate suppression as DATA
                // (UPG_ACK carries no data, so there is no taint path).
                if self.recovery.is_some() {
                    let matches_pending = self
                        .pending
                        .as_ref()
                        .is_some_and(|r| r.addr.block() == block)
                        && msg.tag.seq == self.cur_seq;
                    if !matches_pending {
                        self.row(L1RowId::StaleReplyDrop, stats)?;
                        stats.stale_replies += 1;
                        return Ok(());
                    }
                }
                let req = match self.pending.take() {
                    Some(req) => req,
                    None => {
                        return Err(self.error(
                            L1RowId::UpgAckUnexpected,
                            stats,
                            format!("UPG_ACK for {block:?} with no pending"),
                        ))
                    }
                };
                if req.addr.block() != block {
                    return Err(self.error(
                        L1RowId::UpgAckUnexpected,
                        stats,
                        format!(
                            "UPG_ACK for {block:?} while missing on {:?}",
                            req.addr.block()
                        ),
                    ));
                }
                let w = self.cache.probe_way(block);
                match w.map(|t| self.cache.line_at(t).meta.state) {
                    Some(L1State::SmA) => {}
                    t => {
                        return Err(self.error(
                            L1RowId::UpgAckUnexpected,
                            stats,
                            format!("UPG_ACK in state {t:?} (outside SM_A)"),
                        ))
                    }
                }
                self.row(L1RowId::UpgAck, stats)?;
                stats.energy_events.l1_writes += 1;
                let w = w.expect("upgrading line present");
                let line = self.cache.line_at_mut(w);
                // Keep the (possibly scribbled) block contents and apply
                // the store: the locally modified data is published —
                // a coherent resync for the §3.5 error bound.
                line.data
                    .write_word(req.addr.offset(), req.size as usize, req.value);
                line.meta.state = L1State::M;
                line.meta.hidden_writes = 0;
                self.cache.touch_at(w);
                self.complete_txn();
                out.push(L1Out::Send(Msg {
                    src: Endpoint::L1(self.core),
                    dst: dir,
                    block,
                    payload: Payload::Unblock,
                    tag: WireTag::default(),
                }));
                out.push(L1Out::Reply { value: 0 });
                Ok(())
            }
            Payload::WbAck => match self.wb_buffer.remove(block) {
                Some(_) => {
                    self.row(L1RowId::WbAck, stats)?;
                    Ok(())
                }
                None => Err(self.error(
                    L1RowId::WbAckUnexpected,
                    stats,
                    format!("WB_ACK for {block:?} without buffer entry"),
                )),
            },
            // Recovery: the directory NACKed our request (conflict —
            // every way of its L2 set was pinned). Resend it under the
            // same sequence number. Without recovery (or without a
            // matching outstanding request) a dir→L1 FWD_NACK remains
            // the l1_unexpected_msg protocol error below.
            Payload::FwdNack
                if self.recovery.is_some()
                    && self
                        .pending
                        .as_ref()
                        .is_some_and(|r| r.addr.block() == block) =>
            {
                stats.nack_retries += 1;
                self.resend_pending(L1RowId::ReqNacked, stats, out)?;
                Ok(())
            }
            ref p => Err(self.error(
                L1RowId::L1UnexpectedMsg,
                stats,
                format!("unexpected message {}", p.name()),
            )),
        }
    }

    /// Supplies block data for a directory forward, from the writeback
    /// buffer or the live line. `is_gets` is true for FWD_GETS.
    ///
    /// The buffer is consulted *first*: a pending PUT means the directory
    /// has not yet observed our eviction, so any forward necessarily
    /// targets that old ownership epoch — even if we have meanwhile begun
    /// a brand-new request on the same block (the line can legitimately
    /// sit in IS_D/IM_AD here, queued at the directory behind our PUT).
    ///
    /// The per-family rows decide what the holder does with its copy:
    /// a MESI/MSI owner downgrades to `S`, a MOESI/MOSI `M` owner keeps
    /// dirty ownership in `O`, a MESIF `F` holder forwards clean, and a
    /// MESIF holder that already evicted its clean copy bounces the
    /// forward with `FwdNack` so the directory serves from L2.
    fn forward_data(
        &mut self,
        block: BlockAddr,
        is_gets: bool,
        stats: &mut Stats,
    ) -> Result<FwdReply, ProtocolError> {
        if let Some(entry) = self.wb_buffer.get(block) {
            // The eviction raced with the forward; answer from the buffer
            // and let the queued PUT be acked as stale.
            let data = entry.data;
            #[cfg(debug_assertions)]
            if let Some(line) = self.cache.probe_way(block).map(|t| self.cache.line_at(t)) {
                debug_assert!(
                    matches!(line.meta.state, L1State::IsD | L1State::ImAd),
                    "core {}: unexpected state {:?} alongside a writeback buffer entry",
                    self.core,
                    line.meta.state
                );
            }
            self.row(L1RowId::FwdWbRace, stats)?;
            return Ok(FwdReply::Data {
                data,
                xfer: OwnerXfer::Dropped,
            });
        }
        let w = self.cache.probe_way(block);
        let state = w.map(|t| self.cache.line_at(t).meta.state);
        let (row, next, xfer) = match (state, is_gets) {
            // MOESI/MOSI: a dirty owner answers a read by *retaining*
            // ownership in O; the directory elides the L2 fill. When the
            // row is not live (MESI/MSI/MESIF), M downgrades to S and the
            // directory refills L2.
            (Some(L1State::M), true) if self.rows.contains(L1RowId::FwdGetsMToO) => {
                (L1RowId::FwdGetsMToO, L1State::O, OwnerXfer::ToOwned)
            }
            (Some(L1State::E | L1State::M), true) => {
                (L1RowId::FwdGetsOwner, L1State::S, OwnerXfer::ToShared)
            }
            (Some(L1State::O), true) => (L1RowId::FwdGetsO, L1State::O, OwnerXfer::ToOwned),
            // MESIF: the forwarder hands the F designation to the
            // requestor and keeps a plain shared copy.
            (Some(L1State::F), true) => (L1RowId::FwdGetsF, L1State::S, OwnerXfer::ToShared),
            // An O/F holder that is upgrading (SM_A) still has valid
            // data: forward it clean and stay put (FWD_GETS), or yield
            // the line and retry the queued UPGRADE as a GETX (FWD_GETX).
            (Some(L1State::SmA), true) if self.rows.contains(L1RowId::FwdGetsUpgrading) => {
                (L1RowId::FwdGetsUpgrading, L1State::SmA, OwnerXfer::ToShared)
            }
            (Some(L1State::SmA), false) if self.rows.contains(L1RowId::FwdGetxUpgrading) => {
                (L1RowId::FwdGetxUpgrading, L1State::ImAd, OwnerXfer::Dropped)
            }
            (Some(L1State::E | L1State::M | L1State::O), false) => {
                (L1RowId::FwdGetxOwner, L1State::I, OwnerXfer::Dropped)
            }
            // MESIF: our clean F copy is gone (PUTS in flight, or already
            // invalidated) — bounce so the directory serves from L2.
            (Some(L1State::I | L1State::IsD | L1State::ImAd) | None, true)
                if self.rows.contains(L1RowId::FwdGetsStale) =>
            {
                self.row(L1RowId::FwdGetsStale, stats)?;
                return Ok(FwdReply::Nack);
            }
            (Some(t), _) => {
                return Err(self.error(
                    L1RowId::FwdBadState,
                    stats,
                    format!("forward in state {t:?}"),
                ))
            }
            (None, _) => {
                return Err(self.error(
                    L1RowId::FwdBadState,
                    stats,
                    format!("forward for unknown block {block:?}"),
                ))
            }
        };
        self.row(row, stats)?;
        stats.energy_events.l1_reads += 1;
        let line = self.cache.line_at_mut(w.unwrap());
        let data = line.data;
        line.meta.state = next;
        Ok(FwdReply::Data { data, xfer })
    }

    /// Context-switch / thread-migration forfeit (paper §3.5): the
    /// approximate blocks are not tracked by the directory, so their
    /// hidden updates cannot be switched or migrated — both `GS` and
    /// `GI` lines revert to `I`. `GS` lines additionally leave the
    /// sharer list (PUTS), exactly as a descheduled thread's cache
    /// working set would be treated.
    pub fn context_switch_forfeit(
        &mut self,
        stats: &mut Stats,
    ) -> Result<Vec<L1Out>, ProtocolError> {
        let mut out = Vec::new();
        self.context_switch_forfeit_into(stats, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`L1Cache::context_switch_forfeit`]: the
    /// lines are rewritten in place, in cache order.
    pub fn context_switch_forfeit_into(
        &mut self,
        stats: &mut Stats,
        out: &mut Vec<L1Out>,
    ) -> Result<(), ProtocolError> {
        // The loop borrows `cache`, so the row dispatch and the PutS
        // build read the other fields directly.
        let (core, disabled, homing) = (self.core, self.disabled, self.homing);
        for line in self.cache.iter_mut() {
            let row = match line.meta.state {
                L1State::Gs => L1RowId::CtxForfeitGs,
                L1State::Gi => L1RowId::CtxForfeitGi,
                _ => continue,
            };
            fire_row(core, disabled, row, stats)?;
            if line.meta.state == L1State::Gi {
                self.gi_lines -= 1;
            } else {
                out.push(L1Out::Send(msg_to_home(
                    core,
                    homing,
                    line.block,
                    Payload::PutS,
                )));
            }
            line.meta.state = L1State::I;
            line.meta.hidden_writes = 0;
            stats.approx_evictions += 1;
        }
        Ok(())
    }

    /// The periodic GI timeout (paper §3.2): returns every `GI` block to
    /// `I`, forfeiting its hidden updates. Runs once per `gi_timeout`
    /// cycles per controller.
    ///
    /// The `GI`-line count makes an L1 with no `GI` line (most ticks)
    /// return at once; otherwise the lines are rewritten in place and the
    /// scan stops at the last `GI` line.
    pub fn gi_timeout_sweep(&mut self, stats: &mut Stats) -> Result<(), ProtocolError> {
        let n = self.gi_line_count();
        if n == 0 {
            return Ok(());
        }
        // One dispatch stands for all `n` firings of the row: a deleted
        // row fails on the first, exactly as per-line dispatch did.
        self.row(L1RowId::GiTimeout, stats)?;
        stats.coverage.l1[L1RowId::GiTimeout as usize] += n as u64 - 1;
        stats.gi_timeouts += n as u64;
        let mut left = n;
        for line in self.cache.iter_mut() {
            if line.meta.state == L1State::Gi {
                line.meta.state = L1State::I;
                left -= 1;
                if left == 0 {
                    break;
                }
            }
        }
        self.gi_lines = 0;
        Ok(())
    }

    /// End-of-run functional flush: yields `(block, data)` for every line
    /// this cache *owns* (E/M) so the machine can build the final coherent
    /// memory image. GS/GI contents are forfeited, exactly as the protocol
    /// would forfeit them on invalidation/timeout.
    pub fn drain_owned(&mut self) -> Vec<(BlockAddr, BlockData)> {
        let mut owned = Vec::new();
        for line in self.cache.iter() {
            match line.meta.state {
                // O is dirty-shared: this cache is still the distinguished
                // owner and must contribute its bytes (L2 may be stale
                // after an elided fill). F is clean — L2 already matches.
                L1State::E | L1State::M | L1State::O => owned.push((line.block, line.data)),
                L1State::IsD | L1State::ImAd | L1State::SmA => {
                    panic!("flush with outstanding transaction on {:?}", line.block)
                }
                _ => {}
            }
        }
        // Writeback buffer entries are also unflushed owned data.
        for (block, entry) in self.wb_buffer.drain() {
            owned.push((block, entry.data));
        }
        owned
    }

    /// Every resident block and its coherence state (for the harness's
    /// invariant checks).
    pub fn resident(&self) -> impl Iterator<Item = (BlockAddr, L1State)> + '_ {
        self.cache.iter().map(|l| (l.block, l.meta.state))
    }

    /// True if the writeback buffer still holds entries (in-flight PUTs).
    pub fn has_pending_writebacks(&self) -> bool {
        !self.wb_buffer.is_empty()
    }

    /// Number of resident lines in each Ghostwriter state `(GS, GI)`;
    /// used by tests and the trace example.
    pub fn approx_occupancy(&self) -> (usize, usize) {
        let mut gs = 0;
        let mut gi = 0;
        for line in self.cache.iter() {
            match line.meta.state {
                L1State::Gs => gs += 1,
                L1State::Gi => gi += 1,
                _ => {}
            }
        }
        (gs, gi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Grant;

    fn gw_params() -> Option<GwParams> {
        Some(GwParams {
            scribe: ScribePolicy::Bitwise,
            enable_gs: true,
            enable_gi: true,
            gi_stores: GiStorePolicy::Fallback,
            max_hidden_writes: None,
        })
    }

    fn l1(gw: Option<GwParams>) -> (L1Cache, Stats) {
        (
            L1Cache::new(0, 8, 2, 1, BaseProtocol::Mesi, gw, true),
            Stats::default(),
        )
    }

    fn load(addr: u64) -> CoreReq {
        CoreReq {
            addr: Addr(addr),
            size: 4,
            value: 0,
            kind: AccessKind::Load,
        }
    }

    fn store(addr: u64, value: u64) -> CoreReq {
        CoreReq {
            addr: Addr(addr),
            size: 4,
            value,
            kind: AccessKind::Store,
        }
    }

    fn scribble(addr: u64, value: u64, d: u8) -> CoreReq {
        CoreReq {
            addr: Addr(addr),
            size: 4,
            value,
            kind: AccessKind::Scribble { d },
        }
    }

    fn dir_msg(block: BlockAddr, payload: Payload) -> Msg {
        Msg {
            src: Endpoint::Dir(0),
            dst: Endpoint::L1(0),
            block,
            payload,
            tag: WireTag::default(),
        }
    }

    fn expect_send<'a>(outs: &'a [L1Out], name: &str) -> &'a Msg {
        outs.iter()
            .find_map(|o| match o {
                L1Out::Send(m) if m.payload.name() == name => Some(m),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no {name} in {outs:?}"))
    }

    fn expect_reply(outs: &[L1Out]) -> u64 {
        outs.iter()
            .find_map(|o| match o {
                L1Out::Reply { value } => Some(*value),
                _ => None,
            })
            .expect("no reply")
    }

    /// Brings block of `addr` to the given stable state via the protocol.
    fn bring_to(cache: &mut L1Cache, stats: &mut Stats, addr: u64, target: L1State) {
        let block = Addr(addr).block();
        match target {
            L1State::S => {
                let outs = cache.access(load(addr), stats).unwrap();
                expect_send(&outs, "GETS");
                cache
                    .handle_msg(
                        dir_msg(
                            block,
                            Payload::Data {
                                data: BlockData::zeroed(),
                                grant: Grant::Shared,
                            },
                        ),
                        stats,
                    )
                    .unwrap();
            }
            L1State::E => {
                let outs = cache.access(load(addr), stats).unwrap();
                expect_send(&outs, "GETS");
                cache
                    .handle_msg(
                        dir_msg(
                            block,
                            Payload::Data {
                                data: BlockData::zeroed(),
                                grant: Grant::Exclusive,
                            },
                        ),
                        stats,
                    )
                    .unwrap();
            }
            L1State::M => {
                let outs = cache.access(store(addr, 7), stats).unwrap();
                expect_send(&outs, "GETX");
                cache
                    .handle_msg(
                        dir_msg(
                            block,
                            Payload::Data {
                                data: BlockData::zeroed(),
                                grant: Grant::Modified,
                            },
                        ),
                        stats,
                    )
                    .unwrap();
            }
            L1State::I => {
                bring_to(cache, stats, addr, L1State::S);
                cache
                    .handle_msg(dir_msg(block, Payload::Inv), stats)
                    .unwrap();
            }
            other => panic!("bring_to({other:?}) unsupported"),
        }
        assert_eq!(cache.state_of(block), Some(target));
    }

    /// Tentpole invariant of the way-threading refactor: each demand
    /// access performs exactly one physical tag lookup — on hit, true
    /// miss, and victim-eviction paths alike — because the probe token
    /// is threaded through every helper instead of re-probing.
    #[cfg(debug_assertions)]
    #[test]
    fn one_physical_tag_lookup_per_access() {
        let (mut c, mut s) = l1(gw_params());
        // Hit paths.
        bring_to(&mut c, &mut s, 0x1000, L1State::M);
        let base = c.phys_lookups();
        c.access(load(0x1000), &mut s).unwrap();
        assert_eq!(c.phys_lookups() - base, 1, "load hit");
        let base = c.phys_lookups();
        c.access(store(0x1000, 5), &mut s).unwrap();
        assert_eq!(c.phys_lookups() - base, 1, "store hit");
        // True miss into a free way.
        let base = c.phys_lookups();
        let outs = c.access(load(0x2040), &mut s).unwrap();
        expect_send(&outs, "GETS");
        assert_eq!(c.phys_lookups() - base, 1, "miss via free way");
        c.handle_msg(
            dir_msg(
                Addr(0x2040).block(),
                Payload::Data {
                    data: BlockData::zeroed(),
                    grant: Grant::Shared,
                },
            ),
            &mut s,
        )
        .unwrap();
        // Victim path: set 0 already holds 0x1000 (M); fill the second
        // way, then a third conflicting block must evict a dirty victim
        // (PUTM) — still one lookup for the whole access.
        bring_to(&mut c, &mut s, 0x1200, L1State::M);
        let base = c.phys_lookups();
        let outs = c.access(store(0x1400, 9), &mut s).unwrap();
        expect_send(&outs, "PUTM");
        expect_send(&outs, "GETX");
        assert_eq!(c.phys_lookups() - base, 1, "miss via victim eviction");
    }

    #[test]
    fn scribble_on_shared_within_d_enters_gs() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        // Block data is zero; writing 15 is within d=4.
        let outs = c.access(scribble(0x1000, 15, 4), &mut s).unwrap();
        assert_eq!(expect_reply(&outs), 0);
        assert_eq!(outs.len(), 1, "no coherence messages");
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::Gs));
        assert_eq!(c.peek_word(Addr(0x1000), 4), Some(15));
        assert_eq!(s.serviced_by_gs, 1);
        assert_eq!(s.upgrades_from_s, 0);
    }

    #[test]
    fn scribble_on_shared_beyond_d_falls_back_to_upgrade() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        // 0 -> 16 differs at bit 4: distance 5 > d=4.
        let outs = c.access(scribble(0x1000, 16, 4), &mut s).unwrap();
        expect_send(&outs, "UPGRADE");
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::SmA));
        assert_eq!(s.serviced_by_gs, 0);
        assert_eq!(s.upgrades_from_s, 1);
        // UPG_ACK completes the store and publishes M.
        let outs = c
            .handle_msg(dir_msg(Addr(0x1000).block(), Payload::UpgAck), &mut s)
            .unwrap();
        expect_send(&outs, "UNBLOCK");
        assert_eq!(expect_reply(&outs), 0);
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::M));
        assert_eq!(c.peek_word(Addr(0x1000), 4), Some(16));
    }

    #[test]
    fn conventional_store_on_shared_always_upgrades() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        let outs = c.access(store(0x1000, 1), &mut s).unwrap();
        expect_send(&outs, "UPGRADE");
        assert_eq!(s.upgrades_from_s, 1);
    }

    #[test]
    fn scribble_on_invalid_within_d_enters_gi() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x2000, L1State::I);
        let outs = c.access(scribble(0x2000, 3, 4), &mut s).unwrap();
        assert_eq!(outs.len(), 1, "no GETX: {outs:?}");
        assert_eq!(expect_reply(&outs), 0);
        assert_eq!(c.state_of(Addr(0x2000).block()), Some(L1State::Gi));
        assert_eq!(s.serviced_by_gi, 1);
    }

    #[test]
    fn scribble_on_invalid_beyond_d_sends_getx() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x2000, L1State::I);
        let outs = c.access(scribble(0x2000, 0xFFFF, 4), &mut s).unwrap();
        expect_send(&outs, "GETX");
        assert_eq!(s.serviced_by_gi, 0);
        assert_eq!(s.stores_on_invalid_tagged, 1);
    }

    #[test]
    fn gi_hits_loads_and_stores_until_timeout() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x2000, L1State::I);
        c.access(scribble(0x2000, 3, 4), &mut s).unwrap();
        // Fig. 3: Load, Store and Scribble all self-loop on GI.
        let v = expect_reply(&c.access(load(0x2000), &mut s).unwrap());
        assert_eq!(v, 3);
        c.access(store(0x2000, 100), &mut s).unwrap();
        assert_eq!(c.state_of(Addr(0x2000).block()), Some(L1State::Gi));
        assert_eq!(c.peek_word(Addr(0x2000), 4), Some(100));
        assert!(s.gi_load_hits >= 1 && s.gi_store_hits >= 1);
        // Timeout returns the block to I; the hidden update survives as
        // stale data but permissions are gone.
        c.gi_timeout_sweep(&mut s).unwrap();
        assert_eq!(c.state_of(Addr(0x2000).block()), Some(L1State::I));
        assert_eq!(s.gi_timeouts, 1);
        assert_eq!(c.peek_word(Addr(0x2000), 4), Some(100));
    }

    #[test]
    fn gs_invalidation_forfeits_updates() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        c.access(scribble(0x1000, 15, 4), &mut s).unwrap();
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::Gs));
        let outs = c
            .handle_msg(dir_msg(Addr(0x1000).block(), Payload::Inv), &mut s)
            .unwrap();
        expect_send(&outs, "INV_ACK");
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::I));
        assert_eq!(s.gs_invalidations, 1);
    }

    #[test]
    fn gs_conventional_store_publishes_scribbled_data() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        c.access(scribble(0x1000, 15, 4), &mut s).unwrap(); // hidden write at offset 0
        let outs = c.access(store(0x1004, 0xAB), &mut s).unwrap(); // different word
        expect_send(&outs, "UPGRADE");
        assert_eq!(s.upgrades_from_gs, 1);
        let outs = c
            .handle_msg(dir_msg(Addr(0x1000).block(), Payload::UpgAck), &mut s)
            .unwrap();
        expect_reply(&outs);
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::M));
        // Both the scribbled word and the new store are in the M block.
        assert_eq!(c.peek_word(Addr(0x1000), 4), Some(15));
        assert_eq!(c.peek_word(Addr(0x1004), 4), Some(0xAB));
    }

    #[test]
    fn inv_during_upgrade_demotes_to_imad_and_data_overwrites() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        let outs = c.access(store(0x1000, 5), &mut s).unwrap();
        expect_send(&outs, "UPGRADE");
        // Another core's GETX won the race: INV arrives mid-upgrade.
        let outs = c
            .handle_msg(dir_msg(Addr(0x1000).block(), Payload::Inv), &mut s)
            .unwrap();
        expect_send(&outs, "INV_ACK");
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::ImAd));
        // Directory answers the (converted) upgrade with fresh data.
        let mut fresh = BlockData::zeroed();
        fresh.write_word(4, 4, 0x77);
        let outs = c
            .handle_msg(
                dir_msg(
                    Addr(0x1000).block(),
                    Payload::Data {
                        data: fresh,
                        grant: Grant::Modified,
                    },
                ),
                &mut s,
            )
            .unwrap();
        expect_send(&outs, "UNBLOCK");
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::M));
        assert_eq!(c.peek_word(Addr(0x1000), 4), Some(5)); // store applied
        assert_eq!(c.peek_word(Addr(0x1004), 4), Some(0x77)); // fresh data
    }

    #[test]
    fn fwd_gets_downgrades_owner_and_supplies_data() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x3000, L1State::M);
        let outs = c
            .handle_msg(dir_msg(Addr(0x3000).block(), Payload::FwdGets), &mut s)
            .unwrap();
        let m = expect_send(&outs, "DATA_TO_DIR");
        match m.payload {
            Payload::DataToDir { xfer, ref data } => {
                assert_eq!(xfer, OwnerXfer::ToShared);
                assert_eq!(data.read_word(0, 4), 7); // store from bring_to
            }
            ref p => panic!("expected DATA_TO_DIR, got {}", p.name()),
        }
        assert_eq!(c.state_of(Addr(0x3000).block()), Some(L1State::S));
    }

    #[test]
    fn fwd_getx_invalidates_owner_but_keeps_stale_tag() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x3000, L1State::M);
        let outs = c
            .handle_msg(dir_msg(Addr(0x3000).block(), Payload::FwdGetx), &mut s)
            .unwrap();
        expect_send(&outs, "DATA_TO_DIR");
        // Tag + stale data stay resident: this is the GI opportunity.
        assert_eq!(c.state_of(Addr(0x3000).block()), Some(L1State::I));
        assert_eq!(c.peek_word(Addr(0x3000), 4), Some(7));
    }

    #[test]
    fn eviction_of_modified_block_uses_writeback_buffer() {
        let (mut c, mut s) = l1(gw_params());
        // Fill both ways of a set (blocks 0x0 and 8*64 = same set in
        // 8-set cache): set = block % 8.
        bring_to(&mut c, &mut s, 0, L1State::M);
        bring_to(&mut c, &mut s, 8 * 64, L1State::M);
        // Third block in the same set evicts the LRU (block 0).
        let outs = c.access(load(16 * 64), &mut s).unwrap();
        let putm = expect_send(&outs, "PUTM");
        assert_eq!(putm.block, Addr(0).block());
        expect_send(&outs, "GETS");
        // A forward racing the writeback is served from the buffer.
        let outs = c
            .handle_msg(dir_msg(Addr(0).block(), Payload::FwdGets), &mut s)
            .unwrap();
        let m = expect_send(&outs, "DATA_TO_DIR");
        assert!(matches!(
            m.payload,
            Payload::DataToDir {
                xfer: OwnerXfer::Dropped,
                ..
            }
        ));
        // WB_ACK clears the buffer.
        c.handle_msg(dir_msg(Addr(0).block(), Payload::WbAck), &mut s)
            .unwrap();
        assert!(s.coverage.l1_hits(L1RowId::FwdWbRace) > 0);
    }

    #[test]
    fn eviction_of_gs_forfeits_and_sends_puts() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0, L1State::S);
        c.access(scribble(0, 3, 4), &mut s).unwrap();
        assert_eq!(c.state_of(Addr(0).block()), Some(L1State::Gs));
        bring_to(&mut c, &mut s, 8 * 64, L1State::M);
        let outs = c.access(load(16 * 64), &mut s).unwrap();
        let puts = expect_send(&outs, "PUTS");
        assert_eq!(puts.block, Addr(0).block());
        assert_eq!(s.approx_evictions, 1);
        assert!(c.state_of(Addr(0).block()).is_none());
    }

    #[test]
    fn eviction_of_gi_is_silent() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0, L1State::I);
        c.access(scribble(0, 3, 4), &mut s).unwrap();
        assert_eq!(c.state_of(Addr(0).block()), Some(L1State::Gi));
        bring_to(&mut c, &mut s, 8 * 64, L1State::M);
        let outs = c.access(load(16 * 64), &mut s).unwrap();
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, L1Out::Send(m) if m.block == Addr(0).block())),
            "GI eviction must not notify the directory: {outs:?}"
        );
        assert_eq!(s.approx_evictions, 1);
        assert!(s.coverage.l1_hits(L1RowId::EvictGi) > 0);
    }

    #[test]
    fn context_switch_forfeits_gs_and_gi_lines() {
        let (mut c, mut s) = l1(gw_params());
        // Distinct sets so nothing evicts before the forfeit.
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        c.access(scribble(0x1000, 3, 4), &mut s).unwrap();
        bring_to(&mut c, &mut s, 0x1040, L1State::I);
        c.access(scribble(0x1040, 3, 4), &mut s).unwrap();
        bring_to(&mut c, &mut s, 0x1080, L1State::M);
        let outs = c.context_switch_forfeit(&mut s).unwrap();
        // The GS line notifies the directory; the GI line drops silently;
        // precise lines are untouched.
        let puts = expect_send(&outs, "PUTS");
        assert_eq!(puts.block, Addr(0x1000).block());
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::I));
        assert_eq!(c.state_of(Addr(0x1040).block()), Some(L1State::I));
        assert_eq!(c.state_of(Addr(0x1080).block()), Some(L1State::M));
        assert!(s.coverage.l1_hits(L1RowId::CtxForfeitGs) > 0);
        assert!(s.coverage.l1_hits(L1RowId::CtxForfeitGi) > 0);
    }

    #[test]
    fn scribble_under_mesi_params_never_approximates() {
        let (mut c, mut s) = l1(None);
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        let outs = c.access(scribble(0x1000, 3, 4), &mut s).unwrap();
        expect_send(&outs, "UPGRADE");
        assert_eq!(s.serviced_by_gs, 0);
    }

    #[test]
    fn gs_disabled_falls_back_even_within_d() {
        let (mut c, mut s) = l1(Some(GwParams {
            scribe: ScribePolicy::Bitwise,
            enable_gs: false,
            enable_gi: true,
            gi_stores: GiStorePolicy::Fallback,
            max_hidden_writes: None,
        }));
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        let outs = c.access(scribble(0x1000, 3, 4), &mut s).unwrap();
        expect_send(&outs, "UPGRADE");
        assert_eq!(s.serviced_by_gs, 0);
    }

    #[test]
    fn gi_disabled_falls_back_even_within_d() {
        let (mut c, mut s) = l1(Some(GwParams {
            scribe: ScribePolicy::Bitwise,
            enable_gs: true,
            enable_gi: false,
            gi_stores: GiStorePolicy::Fallback,
            max_hidden_writes: None,
        }));
        bring_to(&mut c, &mut s, 0x2000, L1State::I);
        let outs = c.access(scribble(0x2000, 3, 4), &mut s).unwrap();
        expect_send(&outs, "GETX");
        assert_eq!(s.serviced_by_gi, 0);
    }

    #[test]
    fn silent_store_is_zero_distance() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::S);
        // d = 0 admits only identical values (silent stores).
        let outs = c.access(scribble(0x1000, 0, 0), &mut s).unwrap();
        assert_eq!(expect_reply(&outs), 0);
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::Gs));
        assert_eq!(s.serviced_by_gs, 1);
    }

    #[test]
    fn store_on_exclusive_silently_upgrades() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x4000, L1State::E);
        let outs = c.access(store(0x4000, 9), &mut s).unwrap();
        assert_eq!(outs.len(), 1);
        expect_reply(&outs);
        assert_eq!(c.state_of(Addr(0x4000).block()), Some(L1State::M));
        assert_eq!(s.l1_store_hits, 1);
    }

    #[test]
    fn load_on_invalid_tag_refetches() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x1000, L1State::I);
        let outs = c.access(load(0x1000), &mut s).unwrap();
        expect_send(&outs, "GETS");
        assert_eq!(s.l1_load_misses, 2); // cold miss in bring_to + this one
    }

    #[test]
    fn similarity_histogram_records_overwrites() {
        let (mut c, mut s) = l1(gw_params());
        bring_to(&mut c, &mut s, 0x5000, L1State::M);
        // bring_to's store wrote 7 at offset 0.
        c.access(store(0x5000, 7), &mut s).unwrap(); // identical: d=0
        c.access(store(0x5000, 6), &mut s).unwrap(); // 7 -> 6: d=1
        assert_eq!(s.similarity.count_at(0), 1);
        assert_eq!(s.similarity.count_at(1), 1);
    }
}

#[cfg(test)]
mod error_bound_tests {
    use super::*;
    use crate::msg::Grant;

    fn bounded_l1(bound: u32) -> (L1Cache, Stats) {
        (
            L1Cache::new(
                0,
                8,
                2,
                1,
                BaseProtocol::Mesi,
                Some(GwParams {
                    scribe: ScribePolicy::Bitwise,
                    enable_gs: true,
                    enable_gi: true,
                    gi_stores: GiStorePolicy::Fallback,
                    max_hidden_writes: Some(bound),
                }),
                false,
            ),
            Stats::default(),
        )
    }

    fn scrib(addr: u64, value: u64) -> CoreReq {
        CoreReq {
            addr: Addr(addr),
            size: 4,
            value,
            kind: AccessKind::Scribble { d: 4 },
        }
    }

    fn to_shared(c: &mut L1Cache, s: &mut Stats, addr: u64) {
        let outs = c
            .access(
                CoreReq {
                    addr: Addr(addr),
                    size: 4,
                    value: 0,
                    kind: AccessKind::Load,
                },
                s,
            )
            .unwrap();
        assert!(matches!(outs[0], L1Out::Send(_)));
        c.handle_msg(
            Msg {
                src: Endpoint::Dir(0),
                dst: Endpoint::L1(0),
                block: Addr(addr).block(),
                payload: Payload::Data {
                    data: BlockData::zeroed(),
                    grant: Grant::Shared,
                },
                tag: WireTag::default(),
            },
            s,
        )
        .unwrap();
    }

    #[test]
    fn bound_forces_publication_after_n_hidden_writes() {
        let (mut c, mut s) = bounded_l1(2);
        to_shared(&mut c, &mut s, 0x1000);
        // Two hidden writes fit the budget...
        for v in [1u64, 2] {
            let outs = c.access(scrib(0x1000, v), &mut s).unwrap();
            assert!(
                matches!(outs[0], L1Out::Reply { .. }),
                "write {v} should be hidden"
            );
        }
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::Gs));
        // ...the third is forced down the conventional path.
        let outs = c.access(scrib(0x1000, 3), &mut s).unwrap();
        assert!(
            matches!(&outs[0], L1Out::Send(m) if m.payload.name() == "UPGRADE"),
            "bound must force an UPGRADE: {outs:?}"
        );
        assert_eq!(s.serviced_by_gs, 1);
        assert_eq!(s.gs_hits, 1);
    }

    #[test]
    fn budget_resets_after_coherent_resync() {
        let (mut c, mut s) = bounded_l1(1);
        to_shared(&mut c, &mut s, 0x1000);
        // First scribble hidden, second forced to publish.
        c.access(scrib(0x1000, 1), &mut s).unwrap();
        let outs = c.access(scrib(0x1000, 2), &mut s).unwrap();
        assert!(matches!(&outs[0], L1Out::Send(m) if m.payload.name() == "UPGRADE"));
        // Publication completes: budget is fresh again.
        c.handle_msg(
            Msg {
                src: Endpoint::Dir(0),
                dst: Endpoint::L1(0),
                block: Addr(0x1000).block(),
                payload: Payload::UpgAck,
                tag: WireTag::default(),
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(c.state_of(Addr(0x1000).block()), Some(L1State::M));
        // Back to Shared (remote reader), scribble is hidden once more.
        c.handle_msg(
            Msg {
                src: Endpoint::Dir(0),
                dst: Endpoint::L1(0),
                block: Addr(0x1000).block(),
                payload: Payload::FwdGets,
                tag: WireTag::default(),
            },
            &mut s,
        )
        .unwrap();
        let outs = c.access(scrib(0x1000, 3), &mut s).unwrap();
        assert!(
            matches!(outs[0], L1Out::Reply { .. }),
            "budget should have reset: {outs:?}"
        );
        assert_eq!(s.serviced_by_gs, 2);
    }

    #[test]
    fn unbounded_config_never_forces() {
        let (mut c, mut s) = (
            L1Cache::new(
                0,
                8,
                2,
                1,
                BaseProtocol::Mesi,
                Some(GwParams {
                    scribe: ScribePolicy::Bitwise,
                    enable_gs: true,
                    enable_gi: true,
                    gi_stores: GiStorePolicy::Fallback,
                    max_hidden_writes: None,
                }),
                false,
            ),
            Stats::default(),
        );
        to_shared(&mut c, &mut s, 0x2000);
        for v in 0..50u64 {
            let outs = c.access(scrib(0x2000, v % 8), &mut s).unwrap();
            assert!(matches!(outs[0], L1Out::Reply { .. }));
        }
        assert_eq!(s.serviced_by_gs + s.gs_hits, 50);
    }
}

#[cfg(test)]
mod more_l1_tests {
    use super::*;
    use crate::msg::Grant;

    fn l1_mesi() -> (L1Cache, Stats) {
        (
            L1Cache::new(0, 8, 2, 1, BaseProtocol::Mesi, None, true),
            Stats::default(),
        )
    }

    fn fill_shared(c: &mut L1Cache, s: &mut Stats, addr: u64, word: u64) {
        c.access(
            CoreReq {
                addr: Addr(addr),
                size: 4,
                value: 0,
                kind: AccessKind::Load,
            },
            s,
        )
        .unwrap();
        let mut data = BlockData::zeroed();
        data.write_word(Addr(addr).offset(), 4, word);
        c.handle_msg(
            Msg {
                src: Endpoint::Dir(0),
                dst: Endpoint::L1(0),
                block: Addr(addr).block(),
                payload: Payload::Data {
                    data,
                    grant: Grant::Shared,
                },
                tag: WireTag::default(),
            },
            s,
        )
        .unwrap();
    }

    #[test]
    fn load_returns_filled_word() {
        let (mut c, mut s) = l1_mesi();
        fill_shared(&mut c, &mut s, 0x100c, 0xABCD);
        let outs = c
            .access(
                CoreReq {
                    addr: Addr(0x100c),
                    size: 4,
                    value: 0,
                    kind: AccessKind::Load,
                },
                &mut s,
            )
            .unwrap();
        match &outs[0] {
            L1Out::Reply { value } => assert_eq!(*value, 0xABCD),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.l1_load_hits, 1);
        assert_eq!(s.l1_load_misses, 1); // the fill
    }

    #[test]
    fn eviction_of_shared_line_sends_puts_without_buffering() {
        let (mut c, mut s) = l1_mesi();
        fill_shared(&mut c, &mut s, 0, 1);
        fill_shared(&mut c, &mut s, 8 * 64, 2);
        // Third block in set 0 evicts the LRU shared line.
        let outs = c
            .access(
                CoreReq {
                    addr: Addr(16 * 64),
                    size: 4,
                    value: 0,
                    kind: AccessKind::Load,
                },
                &mut s,
            )
            .unwrap();
        assert!(outs
            .iter()
            .any(|o| matches!(o, L1Out::Send(m) if m.payload.name() == "PUTS")));
        assert!(!c.has_pending_writebacks(), "PUTS needs no buffer");
    }

    #[test]
    fn similarity_collection_can_be_disabled() {
        let mut c = L1Cache::new(0, 8, 2, 1, BaseProtocol::Mesi, None, false);
        let mut s = Stats::default();
        fill_shared(&mut c, &mut s, 0x2000, 5);
        // A store-like access on a present tag would normally record.
        c.access(
            CoreReq {
                addr: Addr(0x2000),
                size: 4,
                value: 5,
                kind: AccessKind::Store,
            },
            &mut s,
        )
        .unwrap();
        assert_eq!(s.similarity.total(), 0);
    }

    #[test]
    #[should_panic(expected = "second outstanding access")]
    fn double_issue_panics() {
        let (mut c, mut s) = l1_mesi();
        let load = CoreReq {
            addr: Addr(0x3000),
            size: 4,
            value: 0,
            kind: AccessKind::Load,
        };
        c.access(load, &mut s).unwrap();
        c.access(load, &mut s).unwrap();
    }

    #[test]
    #[should_panic(expected = "crosses a block boundary")]
    fn straddling_access_rejected() {
        let (mut c, mut s) = l1_mesi();
        c.access(
            CoreReq {
                addr: Addr(0x103c + 2),
                size: 4,
                value: 0,
                kind: AccessKind::Load,
            },
            &mut s,
        )
        .unwrap();
    }

    #[test]
    fn resident_blocks_reports_states() {
        let (mut c, mut s) = l1_mesi();
        fill_shared(&mut c, &mut s, 0x100, 0);
        let blocks: Vec<_> = c.resident().collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0], (Addr(0x100).block(), L1State::S));
    }

    #[test]
    fn mesif_forward_to_evicted_f_holder_bounces_nack() {
        // The `fwd_gets_stale` race: the directory forwarded a GETS to
        // the tracked F holder, but the clean copy was already evicted
        // (a PUTS is in flight). The L1 must bounce with FWD_NACK so
        // the directory serves the requestor from L2.
        let mut c = L1Cache::new(0, 8, 2, 1, BaseProtocol::Mesif, None, true);
        let mut s = Stats::default();
        let outs = c
            .handle_msg(
                Msg {
                    src: Endpoint::Dir(0),
                    dst: Endpoint::L1(0),
                    block: Addr(0x100).block(),
                    payload: Payload::FwdGets,
                    tag: WireTag::default(),
                },
                &mut s,
            )
            .unwrap();
        assert!(
            outs.iter().any(|o| matches!(
                o,
                L1Out::Send(m) if m.payload.name() == "FWD_NACK"
            )),
            "no FWD_NACK in {outs:?}"
        );
        assert_eq!(s.coverage.l1[L1RowId::FwdGetsStale as usize], 1);
    }

    #[test]
    fn wb_buffer_exhaustion_is_a_typed_error_not_a_panic() {
        // 1 set × 1 way: every block maps to the same line, so each new
        // Modified block evicts the previous one into the writeback
        // buffer. The directory never acks, so the buffer only grows.
        let mut c = L1Cache::new(0, 1, 1, 1, BaseProtocol::Mesi, None, true);
        let mut s = Stats::default();
        let store_req = |addr: u64| CoreReq {
            addr: Addr(addr),
            size: 4,
            value: 7,
            kind: AccessKind::Store,
        };
        let fill_modified = |c: &mut L1Cache, s: &mut Stats, addr: u64| {
            c.access(store_req(addr), s)?;
            c.handle_msg(
                Msg {
                    src: Endpoint::Dir(0),
                    dst: Endpoint::L1(0),
                    block: Addr(addr).block(),
                    payload: Payload::Data {
                        data: BlockData::zeroed(),
                        grant: Grant::Modified,
                    },
                    tag: WireTag::default(),
                },
                s,
            )
            .map(|_| ())
        };
        for i in 0..=WB_BUFFER_WAYS as u64 {
            fill_modified(&mut c, &mut s, 64 * i).unwrap_or_else(|e| panic!("fill {i}: {e}"));
        }
        // The buffer now holds WB_BUFFER_WAYS un-acked writebacks; one
        // more eviction must surface a typed error, not a panic.
        let err = c
            .access(store_req(64 * (WB_BUFFER_WAYS as u64 + 1)), &mut s)
            .expect_err("a full writeback buffer must be a ProtocolError");
        let text = err.to_string();
        assert!(
            text.contains("writeback buffer full"),
            "unexpected error text: {text}"
        );
    }
}
