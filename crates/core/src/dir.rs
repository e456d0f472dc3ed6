//! The shared-L2 bank with its slice of directory state.
//!
//! Organisation follows gem5's MESI_Two_Level (which the paper builds on):
//! the L2 is inclusive and physically distributed, one bank per tile, and
//! each bank holds the directory entry (sharer list / owner) for the blocks
//! it homes. Requests for a block are serialised: while a transaction is in
//! flight the block is *busy* and later requests queue; the requestor's
//! final `UNBLOCK` releases the block. Invalidation acknowledgements are
//! collected at the directory, and forwarded data is routed through it —
//! a latency-neutral simplification (DESIGN.md §2.3) that preserves message
//! counts per class.
//!
//! Inclusion is enforced with recalls: when an L2 victim still has L1
//! copies, the bank invalidates the sharers (or pulls the owner's data)
//! before evicting.

use ghostwriter_mem::{BlockAddr, BlockData, LookupResult, ProbedWay, SetAssocCache, WayLookup};
use std::collections::VecDeque;

use crate::config::BaseProtocol;
use crate::fault::RecoveryParams;
use crate::harness::hash_in_block_order;
use crate::msg::{Endpoint, Grant, Msg, OwnerXfer, Payload, WireTag};
use crate::proto::{Controller, DirRowId, DirRowSet, Homing, ProtocolError};
use crate::stats::Stats;

/// Directory view of one block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DirState {
    /// No L1 holds the block.
    Np,
    /// Read-only copies at the set cores (bitmask).
    Shared(u64),
    /// One core holds the block in E or M.
    Owned(usize),
    /// MOESI/MOSI: `owner` holds the block dirty in O, `sharers` hold
    /// clean read-only copies of the same bytes. The L2 copy may be
    /// stale (the fill was elided) — the owner is the data source.
    OwnedShared { owner: usize, sharers: u64 },
    /// MESIF: `fwd` holds the designated clean forwarder copy (F),
    /// `sharers` hold plain S copies. The L2 copy is valid.
    Forward { fwd: usize, sharers: u64 },
}

#[derive(Clone, Copy, Debug, Hash)]
struct L2Meta {
    dir: DirState,
    /// L2 copy differs from DRAM.
    dirty: bool,
}

/// A queued L1 request.
#[derive(Clone, Debug, Hash)]
struct Request {
    requestor: usize,
    kind: ReqKind,
    /// Requestor-assigned sequence number (0 = untagged / recovery off).
    seq: u32,
}

#[derive(Clone, Debug, Hash)]
enum ReqKind {
    Gets,
    Getx,
    Upgrade,
    PutS,
    PutE,
    PutM(BlockData),
}

/// Phase of an in-flight transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
enum Phase {
    /// Invalidating the sharers of the L2 victim (inclusion recall).
    RecallInv,
    /// Pulling the L2 victim's data from its owner.
    RecallData,
    /// Waiting for the DRAM fill of the requested block.
    MemFetch,
    /// Waiting for invalidation acks on the requested block.
    InvAcks,
    /// Waiting for the owner's data on the requested block.
    OwnerData,
    /// MESIF: waiting for the F holder's clean forward (or its
    /// `FwdNack` if the clean copy was already evicted).
    FwdData,
    /// Waiting for the requestor's UNBLOCK.
    Unblock,
}

#[derive(Clone, Debug, Hash)]
struct Txn {
    requestor: usize,
    kind: TxnKind,
    phase: Phase,
    acks_pending: u32,
    /// L2 victim being recalled before this transaction's fill.
    recall_victim: Option<BlockAddr>,
    /// The request's sequence number (0 = untagged / recovery off).
    seq: u32,
    /// Recovery: copy of the grant sent when the transaction reached
    /// `Unblock`, retained until the requestor's UNBLOCK lands so a
    /// duplicate request (the grant was lost) can be answered with a
    /// resend. Always `None` with recovery off.
    grant: Option<Payload>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
enum TxnKind {
    Gets,
    Getx,
    Upgrade,
}

/// Dense per-set transaction tables: the MSHR replacement for the former
/// per-block `HashMap`s (`busy`, `recall_of`, `queues`).
///
/// Every in-flight transaction pins exactly one line of its block's L2
/// set — resident for `act_on_line` transactions, reserved (placeholder
/// line) for fills, still-resident victim for recalls — so a set can
/// never legally host more than `ways` transactions; that associativity
/// is the fixed MSHR capacity, and exceeding it is a typed
/// [`ProtocolError`], not a panic. The former `recall_of` map
/// (victim → main transaction block) is derived by scanning the set for
/// a transaction whose `recall_victim` matches: an L2 victim always
/// belongs to the same set as the transaction's main block.
#[derive(Clone, Debug)]
struct Mshr {
    /// Per-set transaction capacity (the L2 associativity).
    cap: usize,
    /// `sets - 1`; same power-of-two indexing as the cache array.
    mask: usize,
    sets: Vec<MshrSet>,
}

#[derive(Clone, Debug, Default)]
struct MshrSet {
    /// In-flight transactions homed to this set, unordered (all lookups
    /// key on the block; the checker hash sorts).
    txns: Vec<(BlockAddr, Txn)>,
    /// Requests queued behind blocked (busy or being-recalled) blocks of
    /// this set. Bounded by the blocked blocks: at most `2 × ways`
    /// distinct keys (transaction mains plus recall victims).
    queues: Vec<(BlockAddr, VecDeque<Request>)>,
}

impl Mshr {
    fn new(sets: usize, ways: usize) -> Self {
        debug_assert!(sets.is_power_of_two());
        Self {
            cap: ways,
            mask: sets - 1,
            sets: (0..sets).map(|_| MshrSet::default()).collect(),
        }
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() as usize) & self.mask
    }

    /// Inserts a transaction; `Err` reports the full set's index (MSHR
    /// capacity exhausted — a protocol invariant breach, since every
    /// transaction must pin a distinct line of the set).
    fn insert_txn(&mut self, block: BlockAddr, txn: Txn) -> Result<(), usize> {
        let set = self.set_of(block);
        let table = &mut self.sets[set];
        if table.txns.len() >= self.cap {
            return Err(set);
        }
        debug_assert!(table.txns.iter().all(|(b, _)| *b != block));
        table.txns.push((block, txn));
        Ok(())
    }

    fn take_txn(&mut self, block: BlockAddr) -> Option<Txn> {
        let set = self.set_of(block);
        let txns = &mut self.sets[set].txns;
        let i = txns.iter().position(|(b, _)| *b == block)?;
        Some(txns.swap_remove(i).1)
    }

    #[inline]
    fn txn(&self, block: BlockAddr) -> Option<&Txn> {
        self.sets[self.set_of(block)]
            .txns
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, t)| t)
    }

    #[inline]
    fn txn_mut(&mut self, block: BlockAddr) -> Option<&mut Txn> {
        let set = self.set_of(block);
        self.sets[set]
            .txns
            .iter_mut()
            .find(|(b, _)| *b == block)
            .map(|(_, t)| t)
    }

    /// Busy (in-flight transaction) or being recalled as an L2 victim.
    #[inline]
    fn is_blocked(&self, block: BlockAddr) -> bool {
        self.sets[self.set_of(block)]
            .txns
            .iter()
            .any(|(b, t)| *b == block || t.recall_victim == Some(block))
    }

    /// Main transaction block whose recall targets `victim`, if any
    /// (the former `recall_of` lookup).
    #[inline]
    fn recall_main_of(&self, victim: BlockAddr) -> Option<BlockAddr> {
        self.sets[self.set_of(victim)]
            .txns
            .iter()
            .find(|(_, t)| t.recall_victim == Some(victim))
            .map(|(b, _)| *b)
    }

    fn enqueue(&mut self, block: BlockAddr, req: Request) {
        let set = self.set_of(block);
        let queues = &mut self.sets[set].queues;
        match queues.iter_mut().find(|(b, _)| *b == block) {
            Some((_, q)) => q.push_back(req),
            None => {
                let mut q = VecDeque::with_capacity(4);
                q.push_back(req);
                queues.push((block, q));
            }
        }
    }

    /// Pops the next queued request for `block`; drops the queue when it
    /// empties (so stale empty queues never linger in the table).
    fn dequeue(&mut self, block: BlockAddr) -> Option<Request> {
        let set = self.set_of(block);
        let queues = &mut self.sets[set].queues;
        let i = queues.iter().position(|(b, _)| *b == block)?;
        let req = queues[i].1.pop_front()?;
        if queues[i].1.is_empty() {
            queues.swap_remove(i);
        }
        Some(req)
    }

    /// The pending-request queue for `block`, if one exists.
    fn queue_of(&self, block: BlockAddr) -> Option<&VecDeque<Request>> {
        self.sets[self.set_of(block)]
            .queues
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, q)| q)
    }

    fn quiescent(&self) -> bool {
        self.sets
            .iter()
            .all(|s| s.txns.is_empty() && s.queues.iter().all(|(_, q)| q.is_empty()))
    }
}

/// One bank of the shared L2 with its directory slice.
///
/// `Clone` snapshots the full architectural state — the model checker
/// forks a bank at every branching point of its search.
#[derive(Clone)]
pub struct DirBank {
    bank: usize,
    /// Homes blocks onto the mesh-corner memory controllers.
    mem_homing: Homing,
    /// Live transition-table rows (MESI grants Exclusive to sole readers;
    /// MSI swaps that row for a Shared grant).
    rows: DirRowSet,
    /// Row deleted by a checker mutation: firing it is a protocol error.
    disabled: Option<DirRowId>,
    cache: SetAssocCache<L2Meta>,
    /// Dense per-set transaction tables (busy transactions, recall
    /// routing and per-block request queues — see [`Mshr`]).
    mshr: Mshr,
    /// Requests that found every line of their set pinned by in-flight
    /// transactions; retried after each transaction completes.
    stalled: VecDeque<(BlockAddr, Request)>,
    /// Fault-recovery knobs. `None` (the default) keeps the recovery
    /// rows dead: requests are never classified as duplicates and no
    /// grant is retained.
    recovery: Option<RecoveryParams>,
    /// Recovery: highest sequence number each core has *completed* (its
    /// UNBLOCK landed) at this bank. A core's sequence numbers complete
    /// in order (one outstanding transaction), so any request at or
    /// below this is a duplicate left over from a retry race.
    last_completed: Vec<u32>,
}

impl std::hash::Hash for DirBank {
    /// Architectural-state hash for the model checker's visited set. The
    /// unordered MSHR tables are hashed set by set, each in block order,
    /// so equal states hash equally regardless of insertion history;
    /// `stalled` keeps its order because retry order is architecturally
    /// visible.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bank.hash(state);
        self.mem_homing.hash(state);
        self.cache.hash(state);
        for set in &self.mshr.sets {
            hash_in_block_order(&set.txns, state);
            hash_in_block_order(&set.queues, state);
        }
        self.stalled.hash(state);
        // Architectural only when recovery is configured; hashed
        // conditionally so recovery-off hashes are untouched.
        if self.recovery.is_some() {
            self.last_completed.hash(state);
        }
    }
}

impl DirBank {
    /// Builds bank `bank` with `sets × ways` L2 lines, in a machine with
    /// `mem_ctrls` memory controllers.
    pub fn new(bank: usize, sets: usize, ways: usize, mem_ctrls: usize) -> Self {
        Self::with_base(bank, sets, ways, mem_ctrls, BaseProtocol::Mesi)
    }

    /// Like [`DirBank::new`] with an explicit protocol family: the base
    /// protocol selects the live row set (grant policy, O/F handling).
    pub fn with_base(
        bank: usize,
        sets: usize,
        ways: usize,
        mem_ctrls: usize,
        base: BaseProtocol,
    ) -> Self {
        Self {
            bank,
            mem_homing: Homing::new(mem_ctrls),
            rows: DirRowSet::for_config(base),
            disabled: None,
            cache: SetAssocCache::new(sets, ways),
            mshr: Mshr::new(sets, ways),
            stalled: VecDeque::new(),
            recovery: None,
            last_completed: Vec::new(),
        }
    }

    /// Enables the fault-recovery rows: sequence-tagged requests get
    /// duplicate suppression and grant-resend, tainted DRAM fills are
    /// refetched, and (if `nack_on_conflict`) fully-pinned sets NACK
    /// instead of stalling.
    pub fn set_recovery(&mut self, params: RecoveryParams) {
        self.recovery = Some(params);
    }

    /// Recovery: highest completed sequence number for `core`.
    fn completed_seq(&self, core: usize) -> u32 {
        self.last_completed.get(core).copied().unwrap_or(0)
    }

    /// Recovery: records that `core` completed sequence `seq`.
    fn set_completed(&mut self, core: usize, seq: u32) {
        if self.last_completed.len() <= core {
            self.last_completed.resize(core + 1, 0);
        }
        let slot = &mut self.last_completed[core];
        *slot = (*slot).max(seq);
    }

    /// Test hook: lowers the per-set MSHR capacity below the
    /// associativity so the capacity-exhaustion path (normally
    /// unreachable — every transaction pins a set line) can be driven.
    #[cfg(test)]
    fn force_mshr_capacity(&mut self, cap: usize) {
        self.mshr.cap = cap;
    }

    /// Deletes the named table row (checker mutation): any access that
    /// needs it afterwards is a protocol error. Returns false if the name
    /// is not a directory row.
    pub fn disable_row(&mut self, name: &str) -> bool {
        match DirRowId::by_name(name) {
            Some(id) => {
                self.disabled = Some(id);
                true
            }
            None => false,
        }
    }

    fn ctl(&self) -> Controller {
        Controller::Dir { bank: self.bank }
    }

    /// Table dispatch: records the row hit in the coverage counters and
    /// refuses to fire a row deleted by a checker mutation.
    fn row(&self, id: DirRowId, stats: &mut Stats) -> Result<(), ProtocolError> {
        stats.coverage.dir[id as usize] += 1;
        if self.disabled == Some(id) {
            return Err(ProtocolError::row(
                self.ctl(),
                id.name(),
                "row deleted by mutation",
            ));
        }
        Ok(())
    }

    /// An error (`Reach::Never`) row fired: record the hit and build the
    /// protocol error the caller returns.
    fn error(&self, id: DirRowId, stats: &mut Stats, detail: impl Into<String>) -> ProtocolError {
        stats.coverage.dir[id as usize] += 1;
        ProtocolError::row(self.ctl(), id.name(), detail)
    }

    /// Memory controller homing a block (address interleave across the
    /// mesh-corner controllers).
    fn mc_of(&self, block: BlockAddr) -> usize {
        self.mem_homing.home(block)
    }

    fn to_l1(&self, core: usize, block: BlockAddr, payload: Payload) -> Msg {
        Msg {
            src: Endpoint::Dir(self.bank),
            dst: Endpoint::L1(core),
            block,
            payload,
            tag: WireTag::default(),
        }
    }

    fn to_mem(&self, block: BlockAddr, payload: Payload) -> Msg {
        Msg {
            src: Endpoint::Dir(self.bank),
            dst: Endpoint::Mem(self.mc_of(block)),
            block,
            payload,
            tag: WireTag::default(),
        }
    }

    /// Directory state of `block` (tests/tracing). `None` = not resident
    /// in this bank.
    pub fn dir_state(&self, block: BlockAddr) -> Option<DirState> {
        self.cache.get(block).map(|l| l.meta.dir)
    }

    /// True if any transaction is in flight at this bank.
    pub fn quiescent(&self) -> bool {
        self.mshr.quiescent() && self.stalled.is_empty()
    }

    /// End-of-run functional view of the L2 data for `block`, if resident.
    pub fn peek_block(&self, block: BlockAddr) -> Option<BlockData> {
        self.cache.get(block).map(|l| l.data)
    }

    /// Functional write used by the machine's final flush (owner data
    /// pushed down without timing). Marks the line dirty.
    pub fn flush_write(&mut self, block: BlockAddr, data: BlockData) {
        if let Some(line) = self.cache.get_mut(block) {
            line.data = data;
            line.meta.dirty = true;
            line.meta.dir = DirState::Np;
        }
    }

    /// Drains all dirty L2 lines for the final flush to DRAM.
    pub fn drain_dirty(&mut self) -> Vec<(BlockAddr, BlockData)> {
        self.cache
            .iter_mut()
            .filter(|l| l.meta.dirty)
            .map(|l| {
                l.meta.dirty = false;
                (l.block, l.data)
            })
            .collect()
    }

    /// Handles a message addressed to this bank.
    ///
    /// `Err` means the transition table has no row for this message in the
    /// current directory state — a protocol error the harness surfaces as
    /// a violation.
    pub fn handle_msg(&mut self, msg: Msg, stats: &mut Stats) -> Result<Vec<Msg>, ProtocolError> {
        let mut out = Vec::new();
        self.handle_msg_into(msg, stats, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`DirBank::handle_msg`]: appends the
    /// bank's outgoing messages to a caller-owned (reusable) buffer. The
    /// machine's hot path calls this with a scratch vector.
    pub fn handle_msg_into(
        &mut self,
        msg: Msg,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let start_len = out.len();
        let recovery = self.recovery.is_some();
        self.dispatch_msg(msg, stats, out)?;
        if recovery {
            self.stamp_grants(start_len, out);
        }
        Ok(())
    }

    /// Recovery post-pass over the messages this handling step produced:
    /// every grant (`Data`/`UpgAck`) leaving for the L1 whose transaction
    /// just reached `Unblock` is stamped with the transaction's sequence
    /// number, and a copy is retained at the transaction so a duplicate
    /// request can be answered with a resend if the grant is lost.
    fn stamp_grants(&mut self, start_len: usize, out: &mut [Msg]) {
        for m in &mut out[start_len..] {
            if !matches!(m.payload, Payload::Data { .. } | Payload::UpgAck) {
                continue;
            }
            let Endpoint::L1(core) = m.dst else { continue };
            let Some(txn) = self.mshr.txn_mut(m.block) else {
                continue;
            };
            if txn.requestor == core && txn.phase == Phase::Unblock && txn.seq != 0 {
                m.tag.seq = txn.seq;
                txn.grant = Some(m.payload.clone());
            }
        }
    }

    fn dispatch_msg(
        &mut self,
        msg: Msg,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let block = msg.block;
        // L1 requests are decoded up front so the dispatch below needs no
        // second (partial) match on the payload.
        let req_kind = match msg.payload {
            Payload::Gets => Some(ReqKind::Gets),
            Payload::Getx => Some(ReqKind::Getx),
            Payload::Upgrade => Some(ReqKind::Upgrade),
            Payload::PutS => Some(ReqKind::PutS),
            Payload::PutE => Some(ReqKind::PutE),
            Payload::PutM { data } => Some(ReqKind::PutM(data)),
            _ => None,
        };
        if let Some(kind) = req_kind {
            let Endpoint::L1(core) = msg.src else {
                panic!("request from non-L1 endpoint {:?}", msg.src)
            };
            let req = Request {
                requestor: core,
                kind,
                seq: msg.tag.seq,
            };
            stats.energy_events.l2_tag_probes += 1;
            if self.suppress_dup(block, &req, stats, out)? {
                return Ok(());
            }
            if self.is_blocked(block) {
                self.row(DirRowId::ReqQueued, stats)?;
                self.mshr.enqueue(block, req);
            } else {
                self.start(block, req, stats, out)?;
            }
            return Ok(());
        }
        match msg.payload {
            Payload::InvAck => {
                let Endpoint::L1(_) = msg.src else {
                    panic!("INV_ACK from non-L1")
                };
                self.inv_ack(block, stats, out)?;
            }
            Payload::DataToDir { data, xfer } => {
                self.owner_data(block, data, xfer, stats, out)?;
            }
            Payload::FwdNack => {
                self.fwd_nack(block, stats, out)?;
            }
            Payload::MemData { data } => {
                self.mem_data(block, data, msg.tag.tainted, stats, out)?;
            }
            Payload::Unblock => {
                let Some(txn) = self.mshr.take_txn(block) else {
                    return Err(self.error(
                        DirRowId::StrayUnblock,
                        stats,
                        format!("UNBLOCK for idle block {block:?}"),
                    ));
                };
                assert_eq!(
                    txn.phase,
                    Phase::Unblock,
                    "UNBLOCK in phase {:?}",
                    txn.phase
                );
                self.row(DirRowId::Unblock, stats)?;
                if self.recovery.is_some() && txn.seq != 0 {
                    self.set_completed(txn.requestor, txn.seq);
                }
                self.release(block, stats, out)?;
            }
            ref p => {
                return Err(self.error(
                    DirRowId::DirUnexpectedMsg,
                    stats,
                    format!("unexpected message {}", p.name()),
                ))
            }
        }
        Ok(())
    }

    /// A block is blocked if it has an in-flight transaction or is being
    /// recalled as another transaction's L2 victim.
    fn is_blocked(&self, block: BlockAddr) -> bool {
        self.mshr.is_blocked(block)
    }

    /// Admits a transaction into the per-set MSHR table; a full set is a
    /// typed protocol error (every transaction must pin a set line, so
    /// the table can never legally exceed the associativity).
    fn admit_txn(&mut self, block: BlockAddr, txn: Txn) -> Result<(), ProtocolError> {
        let cap = self.mshr.cap;
        self.mshr.insert_txn(block, txn).map_err(|set| {
            ProtocolError::internal(
                self.ctl(),
                format!(
                    "MSHR capacity exhausted: set {set} already holds \
                     {cap} transactions while admitting one for {block:?}"
                ),
            )
        })
    }

    /// Recovery-mode duplicate suppression at request admission.
    ///
    /// An L1 resend can race its original through the faulty network, so a
    /// tagged request may arrive while the original is (a) already
    /// completed, (b) the in-flight transaction, or (c) sitting in a block
    /// queue or the stall list. Cases (a) and (c) drop the duplicate; case
    /// (b) drops it too unless the transaction already reached `Unblock`
    /// and retains its grant, in which case the grant is resent (the
    /// original grant may have been the dropped message).
    ///
    /// Returns `Ok(true)` when the request was consumed here.
    fn suppress_dup(
        &mut self,
        block: BlockAddr,
        req: &Request,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<bool, ProtocolError> {
        if self.recovery.is_none() || req.seq == 0 {
            return Ok(false);
        }
        if req.seq <= self.completed_seq(req.requestor) {
            self.row(DirRowId::DupReqDrop, stats)?;
            stats.dup_reqs_dropped += 1;
            return Ok(true);
        }
        if let Some(txn) = self.mshr.txn(block) {
            if txn.requestor == req.requestor && txn.seq == req.seq {
                if txn.phase == Phase::Unblock {
                    if let Some(grant) = txn.grant.clone() {
                        self.row(DirRowId::DupReqResend, stats)?;
                        stats.grant_resends += 1;
                        let mut m = self.to_l1(req.requestor, block, grant);
                        m.tag = WireTag::seq(req.seq);
                        out.push(m);
                        return Ok(true);
                    }
                }
                self.row(DirRowId::DupReqDrop, stats)?;
                stats.dup_reqs_dropped += 1;
                return Ok(true);
            }
        }
        let queued = self.mshr.queue_of(block).is_some_and(|q| {
            q.iter()
                .any(|r| r.requestor == req.requestor && r.seq == req.seq)
        }) || self
            .stalled
            .iter()
            .any(|(b, r)| *b == block && r.requestor == req.requestor && r.seq == req.seq);
        if queued {
            self.row(DirRowId::DupReqDrop, stats)?;
            stats.dup_reqs_dropped += 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// True when resending `core`'s outstanding request (tagged `seq`)
    /// is the only way its transaction can advance at this bank: the
    /// request left no live trace here (it was lost in the network), or
    /// its transaction is parked at `Unblock` with the grant retained
    /// (the grant was lost). While the transaction sits in any earlier
    /// phase — memory fetch, invalidation gathering, owner forwarding —
    /// or the request waits in a block queue or the stall list, the bank
    /// is still working on it and a resend would only be dup-dropped.
    /// The model checker's retry action keys on this so retries fire
    /// exactly when recovery is needed, never gratuitously (a gratuitous
    /// resend would burn the bounded retry budget on healthy traces).
    pub fn resend_makes_progress(&self, block: BlockAddr, core: usize, seq: u32) -> bool {
        if self.recovery.is_none() || seq == 0 || seq <= self.completed_seq(core) {
            return false;
        }
        if let Some(txn) = self.mshr.txn(block) {
            if txn.requestor == core && txn.seq == seq {
                return txn.phase == Phase::Unblock && txn.grant.is_some();
            }
        }
        let parked = self
            .mshr
            .queue_of(block)
            .is_some_and(|q| q.iter().any(|r| r.requestor == core && r.seq == seq))
            || self
                .stalled
                .iter()
                .any(|(b, r)| *b == block && r.requestor == core && r.seq == seq);
        !parked
    }

    /// Begins servicing a request (block known unblocked).
    fn start(
        &mut self,
        block: BlockAddr,
        req: Request,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        if self.recovery.is_some() && req.seq != 0 && req.seq <= self.completed_seq(req.requestor) {
            // A queued duplicate whose original completed while it waited.
            self.row(DirRowId::DupReqDrop, stats)?;
            stats.dup_reqs_dropped += 1;
            return Ok(());
        }
        match req.kind {
            ReqKind::PutS => {
                let me = 1u64 << req.requestor;
                let w = self.cache.probe_way(block);
                let (row, new_dir) = match w.map(|t| self.cache.line_at(t).meta.dir) {
                    Some(DirState::Shared(s)) if s & me != 0 => {
                        let s = s & !me;
                        (
                            DirRowId::PutSSharer,
                            Some(if s == 0 {
                                DirState::Np
                            } else {
                                DirState::Shared(s)
                            }),
                        )
                    }
                    Some(DirState::OwnedShared { owner, sharers }) if sharers & me != 0 => (
                        DirRowId::PutSOwnedSharer,
                        Some(DirState::OwnedShared {
                            owner,
                            sharers: sharers & !me,
                        }),
                    ),
                    // The forwarder evicted its clean copy: the block
                    // demotes to plain Shared (L2 serves future reads).
                    Some(DirState::Forward { fwd, sharers }) if fwd == req.requestor => (
                        DirRowId::PutSFwd,
                        Some(if sharers == 0 {
                            DirState::Np
                        } else {
                            DirState::Shared(sharers)
                        }),
                    ),
                    Some(DirState::Forward { fwd, sharers }) if sharers & me != 0 => (
                        DirRowId::PutSFwdSharer,
                        Some(DirState::Forward {
                            fwd,
                            sharers: sharers & !me,
                        }),
                    ),
                    _ => (DirRowId::PutSStale, None),
                };
                self.row(row, stats)?;
                if let Some(dir) = new_dir {
                    self.cache.line_at_mut(w.unwrap()).meta.dir = dir;
                }
                // No ack; nothing further.
            }
            ReqKind::PutE => {
                let w = self.cache.probe_way(block);
                let owner = w.map(|t| self.cache.line_at(t).meta.dir)
                    == Some(DirState::Owned(req.requestor));
                let row = if owner {
                    DirRowId::PutEOwner
                } else {
                    DirRowId::PutEStale
                };
                self.row(row, stats)?;
                if owner {
                    self.cache.line_at_mut(w.unwrap()).meta.dir = DirState::Np;
                }
                out.push(self.to_l1(req.requestor, block, Payload::WbAck));
            }
            ReqKind::PutM(data) => {
                // A stale PUTM lost a race with a forward; its data was
                // already supplied from the writeback buffer. Ack either
                // way so the L1 releases its buffer entry.
                let w = self.cache.probe_way(block);
                let (row, new_dir) = match w.map(|t| self.cache.line_at(t).meta.dir) {
                    Some(DirState::Owned(o)) if o == req.requestor => {
                        (DirRowId::PutMOwner, Some(DirState::Np))
                    }
                    // MOESI/MOSI: the dirty O owner evicted. Its data
                    // refills the (possibly stale) L2 copy; the clean
                    // sharers keep their copies.
                    Some(DirState::OwnedShared { owner, sharers }) if owner == req.requestor => (
                        DirRowId::PutMOwnedShared,
                        Some(if sharers == 0 {
                            DirState::Np
                        } else {
                            DirState::Shared(sharers)
                        }),
                    ),
                    _ => (DirRowId::PutMStale, None),
                };
                self.row(row, stats)?;
                if let Some(dir) = new_dir {
                    let line = self.cache.line_at_mut(w.unwrap());
                    line.data = data;
                    line.meta.dirty = true;
                    line.meta.dir = dir;
                    stats.energy_events.l2_writes += 1;
                }
                out.push(self.to_l1(req.requestor, block, Payload::WbAck));
            }
            ReqKind::Gets | ReqKind::Getx | ReqKind::Upgrade => {
                let kind = match req.kind {
                    ReqKind::Gets => TxnKind::Gets,
                    ReqKind::Getx => TxnKind::Getx,
                    _ => TxnKind::Upgrade,
                };
                if let Some(w) = self.cache.probe_way(block) {
                    self.admit_txn(
                        block,
                        Txn {
                            requestor: req.requestor,
                            kind,
                            phase: Phase::Unblock, // placeholder, set by act
                            acks_pending: 0,
                            recall_victim: None,
                            seq: req.seq,
                            grant: None,
                        },
                    )?;
                    self.act_on_line(block, w, stats, out)?;
                } else {
                    self.begin_fill(block, req, kind, stats, out)?;
                }
            }
        }
        Ok(())
    }

    /// L2 miss path: allocate a way (recalling an L1-held victim if
    /// necessary) and fetch the block from memory.
    fn begin_fill(
        &mut self,
        block: BlockAddr,
        req: Request,
        kind: TxnKind,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let lookup = self
            .cache
            .lookup_way_excluding(block, |b| self.is_blocked(b));
        let Some(lookup) = lookup else {
            if let Some(rec) = self.recovery {
                if rec.nack_on_conflict && req.seq != 0 {
                    // Bounce instead of queueing: the L1 retries with
                    // backoff, keeping the stall list short under storms.
                    self.row(DirRowId::NackConflict, stats)?;
                    stats.conflict_nacks += 1;
                    out.push(self.to_l1(req.requestor, block, Payload::FwdNack));
                    return Ok(());
                }
            }
            // Every line in the set is pinned by an in-flight transaction;
            // retry when one completes.
            self.row(DirRowId::FillStalled, stats)?;
            self.stalled.push_back((block, req));
            return Ok(());
        };
        let mut txn = Txn {
            requestor: req.requestor,
            kind,
            phase: Phase::MemFetch,
            acks_pending: 0,
            recall_victim: None,
            seq: req.seq,
            grant: None,
        };
        match lookup {
            WayLookup::Hit(_) => {
                return Err(ProtocolError::internal(
                    self.ctl(),
                    format!("begin_fill on resident block {block:?}"),
                ))
            }
            WayLookup::Free { way } => {
                self.row(DirRowId::FillFree, stats)?;
                // Reserve the way with a placeholder line awaiting fill.
                self.cache.insert_at(
                    way,
                    block,
                    L2Meta {
                        dir: DirState::Np,
                        dirty: false,
                    },
                    BlockData::zeroed(),
                );
                out.push(self.to_mem(block, Payload::MemRead));
                self.admit_txn(block, txn)?;
            }
            WayLookup::Victim(v) => {
                let victim = self.cache.line_at(v).block;
                match self.cache.line_at(v).meta.dir {
                    DirState::Np => {
                        self.row(DirRowId::FillEvictNp, stats)?;
                        // Plain L2 eviction; the victim's way (same set as
                        // `block`) is reused for the placeholder directly.
                        let way = v.way();
                        let vline = self.cache.remove_at(v);
                        if vline.meta.dirty {
                            stats.energy_events.l2_reads += 1;
                            out.push(self.to_mem(victim, Payload::MemWrite { data: vline.data }));
                        }
                        self.cache.insert_at(
                            way,
                            block,
                            L2Meta {
                                dir: DirState::Np,
                                dirty: false,
                            },
                            BlockData::zeroed(),
                        );
                        out.push(self.to_mem(block, Payload::MemRead));
                        self.admit_txn(block, txn)?;
                    }
                    DirState::Shared(s) => {
                        self.row(DirRowId::FillRecallShared, stats)?;
                        // Inclusion recall: invalidate all L1 sharers.
                        stats.l2_recalls += 1;
                        txn.phase = Phase::RecallInv;
                        txn.recall_victim = Some(victim);
                        txn.acks_pending = s.count_ones();
                        for core in bits(s) {
                            out.push(self.to_l1(core, victim, Payload::Inv));
                        }
                        self.admit_txn(block, txn)?;
                    }
                    DirState::Owned(owner) => {
                        self.row(DirRowId::FillRecallOwned, stats)?;
                        // Inclusion recall: pull the owner's data.
                        stats.l2_recalls += 1;
                        txn.phase = Phase::RecallData;
                        txn.recall_victim = Some(victim);
                        out.push(self.to_l1(owner, victim, Payload::FwdGetx));
                        self.admit_txn(block, txn)?;
                    }
                    DirState::OwnedShared { owner, sharers } => {
                        self.row(DirRowId::FillRecallOwnedShared, stats)?;
                        // MOESI/MOSI recall: the clean sharers are
                        // invalidated first; the dirty owner is pulled
                        // last because its bytes are the only valid copy
                        // (the L2 fill was elided). The victim's dir is
                        // demoted to Owned so the ack-completion path
                        // knows an owner pull is still due.
                        stats.l2_recalls += 1;
                        txn.recall_victim = Some(victim);
                        self.cache.line_at_mut(v).meta.dir = DirState::Owned(owner);
                        if sharers == 0 {
                            txn.phase = Phase::RecallData;
                            out.push(self.to_l1(owner, victim, Payload::FwdGetx));
                        } else {
                            txn.phase = Phase::RecallInv;
                            txn.acks_pending = sharers.count_ones();
                            for core in bits(sharers) {
                                out.push(self.to_l1(core, victim, Payload::Inv));
                            }
                        }
                        self.admit_txn(block, txn)?;
                    }
                    DirState::Forward { fwd, sharers } => {
                        self.row(DirRowId::FillRecallFwd, stats)?;
                        // MESIF recall: every L1 copy is clean and the L2
                        // holds valid data, so all copies (F included)
                        // are invalidated like plain sharers.
                        stats.l2_recalls += 1;
                        let all = sharers | (1 << fwd);
                        txn.phase = Phase::RecallInv;
                        txn.recall_victim = Some(victim);
                        txn.acks_pending = all.count_ones();
                        for core in bits(all) {
                            out.push(self.to_l1(core, victim, Payload::Inv));
                        }
                        self.admit_txn(block, txn)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Acts on a transaction whose block is resident and stable in the L2.
    /// `w` is the line's probe token from the dispatching lookup.
    fn act_on_line(
        &mut self,
        block: BlockAddr,
        w: ProbedWay,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let txn = self.mshr.txn_mut(block).expect("transaction in flight");
        let req = txn.requestor;
        let line = self.cache.line_at(w);
        let dir = line.meta.dir;
        let data = line.data;
        // Upgrades from a core that no longer holds a copy (it lost an
        // invalidation race) are converted to GETX and answered with data.
        // O/F holders and their sharers count as listed: their copies are
        // valid, so an ack suffices once everyone else is invalidated.
        let listed = match dir {
            DirState::Shared(s) => s & (1 << req) != 0,
            DirState::OwnedShared { owner, sharers } => owner == req || sharers & (1 << req) != 0,
            DirState::Forward { fwd, sharers } => fwd == req || sharers & (1 << req) != 0,
            DirState::Np | DirState::Owned(_) => false,
        };
        let kind = match (txn.kind, listed) {
            (TxnKind::Upgrade, true) => TxnKind::Upgrade,
            (TxnKind::Upgrade, false) => {
                self.row(DirRowId::UpgradeRace, stats)?;
                TxnKind::Getx
            }
            (k, _) => k,
        };
        match (kind, dir) {
            (TxnKind::Gets, DirState::Np) => {
                let row = if self.rows.contains(DirRowId::GetsNpExclusive) {
                    DirRowId::GetsNpExclusive
                } else {
                    DirRowId::GetsNpShared
                };
                self.row(row, stats)?;
                stats.energy_events.l2_reads += 1;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::Unblock;
                if row == DirRowId::GetsNpExclusive {
                    // MESI: no sharers, grant Exclusive.
                    self.cache.line_at_mut(w).meta.dir = DirState::Owned(req);
                    out.push(self.to_l1(
                        req,
                        block,
                        Payload::Data {
                            data,
                            grant: Grant::Exclusive,
                        },
                    ));
                } else {
                    // MSI: readers always get Shared.
                    self.cache.line_at_mut(w).meta.dir = DirState::Shared(1 << req);
                    out.push(self.to_l1(
                        req,
                        block,
                        Payload::Data {
                            data,
                            grant: Grant::Shared,
                        },
                    ));
                }
            }
            (TxnKind::Gets, DirState::Shared(s)) => {
                assert_eq!(s & (1 << req), 0, "GETS from listed sharer {req}");
                self.row(DirRowId::GetsShared, stats)?;
                stats.energy_events.l2_reads += 1;
                self.cache.line_at_mut(w).meta.dir = DirState::Shared(s | (1 << req));
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::Unblock;
                out.push(self.to_l1(
                    req,
                    block,
                    Payload::Data {
                        data,
                        grant: Grant::Shared,
                    },
                ));
            }
            (TxnKind::Gets, DirState::Owned(owner)) => {
                assert_ne!(owner, req, "GETS from owner");
                self.row(DirRowId::GetsOwned, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::OwnerData;
                out.push(self.to_l1(owner, block, Payload::FwdGets));
            }
            (TxnKind::Gets, DirState::OwnedShared { owner, .. }) => {
                // MOESI/MOSI: the dirty O owner sources the data; L2 may
                // be stale, so the read cannot be served locally.
                assert_ne!(owner, req, "GETS from dirty owner");
                self.row(DirRowId::GetsOwnedShared, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::OwnerData;
                out.push(self.to_l1(owner, block, Payload::FwdGets));
            }
            (TxnKind::Gets, DirState::Forward { fwd, .. }) => {
                // MESIF: the clean forwarder answers instead of L2 (or
                // bounces with FWD_NACK if its copy is already gone).
                assert_ne!(fwd, req, "GETS from forwarder");
                self.row(DirRowId::GetsFwd, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::FwdData;
                out.push(self.to_l1(fwd, block, Payload::FwdGets));
            }
            (TxnKind::Getx, DirState::Np) => {
                self.row(DirRowId::GetxNp, stats)?;
                stats.energy_events.l2_reads += 1;
                self.cache.line_at_mut(w).meta.dir = DirState::Owned(req);
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.kind = TxnKind::Getx;
                txn.phase = Phase::Unblock;
                out.push(self.to_l1(
                    req,
                    block,
                    Payload::Data {
                        data,
                        grant: Grant::Modified,
                    },
                ));
            }
            (TxnKind::Getx, DirState::Shared(s)) => {
                let others = s & !(1 << req);
                assert_ne!(others, 0, "Shared with no sharers");
                self.row(DirRowId::GetxShared, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.kind = TxnKind::Getx;
                txn.phase = Phase::InvAcks;
                txn.acks_pending = others.count_ones();
                for core in bits(others) {
                    out.push(self.to_l1(core, block, Payload::Inv));
                }
            }
            (TxnKind::Getx, DirState::Owned(owner)) => {
                assert_ne!(owner, req, "GETX from owner");
                self.row(DirRowId::GetxOwned, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.kind = TxnKind::Getx;
                txn.phase = Phase::OwnerData;
                out.push(self.to_l1(owner, block, Payload::FwdGetx));
            }
            (TxnKind::Getx, DirState::OwnedShared { owner, sharers }) => {
                // Sequenced: invalidate the clean sharers first, then
                // pull the dirty owner's data (`inv_ack_last_getx_owned`
                // fires the FWD_GETX on the last ack).
                assert_ne!(owner, req, "GETX from dirty owner");
                self.row(DirRowId::GetxOwnedShared, stats)?;
                let others = sharers & !(1 << req);
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.kind = TxnKind::Getx;
                if others == 0 {
                    txn.phase = Phase::OwnerData;
                    out.push(self.to_l1(owner, block, Payload::FwdGetx));
                } else {
                    txn.phase = Phase::InvAcks;
                    txn.acks_pending = others.count_ones();
                    for core in bits(others) {
                        out.push(self.to_l1(core, block, Payload::Inv));
                    }
                }
            }
            (TxnKind::Getx, DirState::Forward { fwd, sharers }) => {
                // MESIF: every copy is clean and L2 is valid, so the F
                // holder is invalidated like any sharer and the data is
                // granted from L2 once the acks collect.
                let others = (sharers | (1 << fwd)) & !(1 << req);
                assert_ne!(others, 0, "Forward with no copies to invalidate");
                self.row(DirRowId::GetxFwd, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.kind = TxnKind::Getx;
                txn.phase = Phase::InvAcks;
                txn.acks_pending = others.count_ones();
                for core in bits(others) {
                    out.push(self.to_l1(core, block, Payload::Inv));
                }
            }
            (TxnKind::Upgrade, DirState::Shared(s)) => {
                let others = s & !(1 << req);
                let row = if others == 0 {
                    DirRowId::UpgradeSole
                } else {
                    DirRowId::UpgradeInv
                };
                self.row(row, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                if others == 0 {
                    self.cache.line_at_mut(w).meta.dir = DirState::Owned(req);
                    txn.phase = Phase::Unblock;
                    out.push(self.to_l1(req, block, Payload::UpgAck));
                } else {
                    txn.phase = Phase::InvAcks;
                    txn.acks_pending = others.count_ones();
                    for core in bits(others) {
                        out.push(self.to_l1(core, block, Payload::Inv));
                    }
                }
            }
            (TxnKind::Upgrade, DirState::OwnedShared { owner, sharers }) => {
                let (row, targets) = if owner == req {
                    // The dirty owner publishes: invalidate the sharers.
                    (DirRowId::UpgradeOwner, sharers)
                } else {
                    // A sharer publishes. Its clean bytes match the
                    // owner's dirty bytes, so the owner's copy can be
                    // invalidated without a writeback: dirty ownership
                    // transfers to the upgrading core.
                    (
                        DirRowId::UpgradeOwnedSharer,
                        (sharers & !(1 << req)) | (1 << owner),
                    )
                };
                self.row(row, stats)?;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                if targets == 0 {
                    self.cache.line_at_mut(w).meta.dir = DirState::Owned(req);
                    txn.phase = Phase::Unblock;
                    out.push(self.to_l1(req, block, Payload::UpgAck));
                } else {
                    txn.phase = Phase::InvAcks;
                    txn.acks_pending = targets.count_ones();
                    for core in bits(targets) {
                        out.push(self.to_l1(core, block, Payload::Inv));
                    }
                }
            }
            (TxnKind::Upgrade, DirState::Forward { fwd, sharers }) => {
                self.row(DirRowId::UpgradeFwd, stats)?;
                let targets = (sharers | (1 << fwd)) & !(1 << req);
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                if targets == 0 {
                    self.cache.line_at_mut(w).meta.dir = DirState::Owned(req);
                    txn.phase = Phase::Unblock;
                    out.push(self.to_l1(req, block, Payload::UpgAck));
                } else {
                    txn.phase = Phase::InvAcks;
                    txn.acks_pending = targets.count_ones();
                    for core in bits(targets) {
                        out.push(self.to_l1(core, block, Payload::Inv));
                    }
                }
            }
            (TxnKind::Upgrade, d) => {
                return Err(ProtocolError::internal(
                    self.ctl(),
                    format!("unconverted upgrade on {block:?} with dir {d:?}"),
                ))
            }
        }
        Ok(())
    }

    /// An invalidation ack arrived for `block` — either the main block of
    /// a transaction or an L2 recall victim.
    fn inv_ack(
        &mut self,
        block: BlockAddr,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        if let Some(main) = self.mshr.recall_main_of(block) {
            self.row(DirRowId::RecallInvAck, stats)?;
            let txn = self.mshr.txn_mut(main).expect("recall txn in flight");
            assert_eq!(txn.phase, Phase::RecallInv);
            txn.acks_pending -= 1;
            if txn.acks_pending == 0 {
                // An OwnedShared victim was demoted to Owned when its
                // sharers were invalidated: with the acks in, pull the
                // dirty owner's bytes before the eviction completes.
                if let Some(DirState::Owned(o)) = self.cache.get(block).map(|l| l.meta.dir) {
                    let txn = self.mshr.txn_mut(main).expect("recall txn");
                    txn.phase = Phase::RecallData;
                    out.push(self.to_l1(o, block, Payload::FwdGetx));
                    return Ok(());
                }
                self.finish_recall(main, stats, out)?;
            }
            return Ok(());
        }
        let Some(txn) = self.mshr.txn_mut(block) else {
            return Err(self.error(
                DirRowId::StrayInvAck,
                stats,
                format!("stray INV_ACK for {block:?}"),
            ));
        };
        // Classify the transaction kind before the phase assert: a GETS
        // never collects inv acks, so an INV_ACK arriving during one is
        // the typed defensive error (`inv_ack_gets`), not a phase bug.
        if txn.kind == TxnKind::Gets {
            return Err(self.error(
                DirRowId::InvAckGets,
                stats,
                format!("GETS on {block:?} collected an inv ack"),
            ));
        }
        assert_eq!(
            txn.phase,
            Phase::InvAcks,
            "INV_ACK in phase {:?}",
            txn.phase
        );
        txn.acks_pending -= 1;
        if txn.acks_pending > 0 {
            self.row(DirRowId::InvAckPending, stats)?;
            return Ok(());
        }
        let req = txn.requestor;
        let kind = txn.kind;
        let w = self.cache.probe_way(block).expect("line resident");
        // MOESI GETX on a dirty-shared block: the clean sharers are now
        // gone, but the O owner still holds the only valid bytes — pull
        // them before granting (L2 may be stale after an elided fill).
        if kind == TxnKind::Getx {
            if let DirState::OwnedShared { owner, .. } = self.cache.line_at(w).meta.dir {
                self.row(DirRowId::InvAckLastGetxOwned, stats)?;
                self.cache.line_at_mut(w).meta.dir = DirState::Owned(owner);
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::OwnerData;
                out.push(self.to_l1(owner, block, Payload::FwdGetx));
                return Ok(());
            }
        }
        let row = match kind {
            TxnKind::Getx => DirRowId::InvAckLastGetx,
            TxnKind::Upgrade => DirRowId::InvAckLastUpgrade,
            TxnKind::Gets => unreachable!("GETS rejected above"),
        };
        self.row(row, stats)?;
        let line = self.cache.line_at_mut(w);
        line.meta.dir = DirState::Owned(req);
        match kind {
            TxnKind::Getx => {
                stats.energy_events.l2_reads += 1;
                let data = self.cache.line_at(w).data;
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::Unblock;
                out.push(self.to_l1(
                    req,
                    block,
                    Payload::Data {
                        data,
                        grant: Grant::Modified,
                    },
                ));
            }
            _ => {
                let txn = self.mshr.txn_mut(block).expect("transaction in flight");
                txn.phase = Phase::Unblock;
                out.push(self.to_l1(req, block, Payload::UpgAck));
            }
        }
        Ok(())
    }

    /// Owner data arrived — for the main block (OwnerData or FwdData
    /// phase) or a recall victim.
    fn owner_data(
        &mut self,
        block: BlockAddr,
        data: BlockData,
        xfer: OwnerXfer,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        if let Some(main) = self.mshr.recall_main_of(block) {
            self.row(DirRowId::RecallOwnerData, stats)?;
            let txn = self.mshr.txn_mut(main).expect("recall txn");
            assert_eq!(txn.phase, Phase::RecallData);
            // Fold the owner's data into the victim line before eviction.
            let line = self.cache.get_mut(block).expect("victim resident");
            line.data = data;
            line.meta.dirty = true;
            line.meta.dir = DirState::Np;
            stats.energy_events.l2_writes += 1;
            self.finish_recall(main, stats, out)?;
            return Ok(());
        }
        let Some(txn) = self.mshr.txn_mut(block) else {
            return Err(self.error(
                DirRowId::StrayOwnerData,
                stats,
                format!("stray owner data for {block:?}"),
            ));
        };
        // As with INV_ACK: an UPGRADE transaction never waits on owner
        // data, so classify it as the typed defensive error before the
        // phase assert can fire.
        if txn.kind == TxnKind::Upgrade {
            return Err(self.error(
                DirRowId::OwnerDataUpgrade,
                stats,
                format!("upgrade on {block:?} waited on owner data"),
            ));
        }
        let req = txn.requestor;
        let kind = txn.kind;
        let phase = txn.phase;
        let w = self.cache.probe_way(block).expect("line resident");
        if phase == Phase::FwdData {
            // MESIF: the F holder forwarded its clean copy. L2 was valid
            // all along, so nothing is written back — the forwarder
            // downgrades to S and the requestor becomes the new F.
            assert_eq!(kind, TxnKind::Gets, "FwdData on a {kind:?}");
            assert_eq!(xfer, OwnerXfer::ToShared, "F holder must downgrade");
            self.row(DirRowId::FwdDataGets, stats)?;
            stats.clean_forwards += 1;
            let dir = self.cache.line_at(w).meta.dir;
            let DirState::Forward { fwd, sharers } = dir else {
                return Err(ProtocolError::internal(
                    self.ctl(),
                    format!("forward data for {block:?} but dir {dir:?}"),
                ));
            };
            self.cache.line_at_mut(w).meta.dir = DirState::Forward {
                fwd: req,
                sharers: sharers | (1 << fwd),
            };
            let txn = self.mshr.txn_mut(block).expect("transaction in flight");
            txn.phase = Phase::Unblock;
            out.push(self.to_l1(
                req,
                block,
                Payload::Data {
                    data,
                    grant: Grant::Forward,
                },
            ));
            return Ok(());
        }
        assert_eq!(phase, Phase::OwnerData);
        let dir = self.cache.line_at(w).meta.dir;
        let (grant, new_dir) = match (kind, xfer) {
            (TxnKind::Getx, _) => {
                // The owner invalidated (or answered from its writeback
                // buffer); the requestor takes over as sole owner.
                self.row(DirRowId::OwnerDataGetx, stats)?;
                stats.energy_events.l2_writes += 1;
                stats.energy_events.l2_reads += 1;
                let line = self.cache.line_at_mut(w);
                line.data = data;
                line.meta.dirty = true;
                (Grant::Modified, DirState::Owned(req))
            }
            (TxnKind::Gets, OwnerXfer::ToOwned) => {
                // MOESI/MOSI dirty-sharing writeback elision: the owner
                // keeps the dirty block in O and stays the data source;
                // the (possibly stale) L2 copy is NOT refreshed.
                if !self.rows.contains(DirRowId::OwnerDataGetsOwned) {
                    return Err(ProtocolError::internal(
                        self.ctl(),
                        format!("owner retained O for {block:?} without MOESI rows"),
                    ));
                }
                self.row(DirRowId::OwnerDataGetsOwned, stats)?;
                stats.wb_elisions += 1;
                let new_dir = match dir {
                    DirState::Owned(o) => DirState::OwnedShared {
                        owner: o,
                        sharers: 1 << req,
                    },
                    DirState::OwnedShared { owner, sharers } => DirState::OwnedShared {
                        owner,
                        sharers: sharers | (1 << req),
                    },
                    s => {
                        return Err(ProtocolError::internal(
                            self.ctl(),
                            format!("owner data for {block:?} but dir state {s:?}"),
                        ))
                    }
                };
                (Grant::Shared, new_dir)
            }
            (TxnKind::Gets, OwnerXfer::ToShared)
                if self.rows.contains(DirRowId::OwnerDataGetsFwd) =>
            {
                // MESIF: the owner's data refills L2 and the requestor is
                // designated the clean forwarder for future reads.
                self.row(DirRowId::OwnerDataGetsFwd, stats)?;
                stats.energy_events.l2_writes += 1;
                let line = self.cache.line_at_mut(w);
                line.data = data;
                line.meta.dirty = true;
                let DirState::Owned(o) = dir else {
                    return Err(ProtocolError::internal(
                        self.ctl(),
                        format!("owner data for {block:?} but dir state {dir:?}"),
                    ));
                };
                (
                    Grant::Forward,
                    DirState::Forward {
                        fwd: req,
                        sharers: 1 << o,
                    },
                )
            }
            (TxnKind::Gets, _) => {
                // MESI/MSI (and MOESI race fallbacks): refill L2 and
                // track everyone still holding a copy as a plain sharer.
                self.row(DirRowId::OwnerDataGets, stats)?;
                stats.energy_events.l2_writes += 1;
                stats.energy_events.l2_reads += 1;
                let line = self.cache.line_at_mut(w);
                line.data = data;
                line.meta.dirty = true;
                let mut s = 1u64 << req;
                match dir {
                    DirState::Owned(o) => {
                        if xfer == OwnerXfer::ToShared {
                            s |= 1 << o;
                        }
                    }
                    // MOESI: the O holder answered while upgrading (SM_A,
                    // `fwd_gets_upgrading`) — it still holds valid bytes,
                    // as do the clean sharers.
                    DirState::OwnedShared { owner, sharers } => {
                        s |= sharers;
                        if xfer == OwnerXfer::ToShared {
                            s |= 1 << owner;
                        }
                    }
                    d => {
                        return Err(ProtocolError::internal(
                            self.ctl(),
                            format!("owner data for {block:?} but dir state {d:?}"),
                        ))
                    }
                }
                (Grant::Shared, DirState::Shared(s))
            }
            (TxnKind::Upgrade, _) => unreachable!("UPGRADE rejected above"),
        };
        self.cache.line_at_mut(w).meta.dir = new_dir;
        let txn = self.mshr.txn_mut(block).expect("transaction in flight");
        txn.phase = Phase::Unblock;
        out.push(self.to_l1(req, block, Payload::Data { data, grant }));
        Ok(())
    }

    /// MESIF `FWD_NACK`: the forwarder's clean copy was already evicted
    /// (its `PutS` is queued behind this transaction). The copy was clean,
    /// so the valid L2 block serves the requestor, which becomes the new F.
    fn fwd_nack(
        &mut self,
        block: BlockAddr,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let Some(txn) = self.mshr.txn_mut(block) else {
            return Err(self.error(
                DirRowId::DirUnexpectedMsg,
                stats,
                format!("stray FWD_NACK for {block:?}"),
            ));
        };
        assert_eq!(
            txn.phase,
            Phase::FwdData,
            "FWD_NACK in phase {:?}",
            txn.phase
        );
        let req = txn.requestor;
        self.row(DirRowId::FwdNackGets, stats)?;
        stats.energy_events.l2_reads += 1;
        let w = self.cache.probe_way(block).expect("line resident");
        let dir = self.cache.line_at(w).meta.dir;
        let DirState::Forward { fwd: _, sharers } = dir else {
            return Err(ProtocolError::internal(
                self.ctl(),
                format!("FWD_NACK for {block:?} but dir {dir:?}"),
            ));
        };
        let line = self.cache.line_at_mut(w);
        line.meta.dir = DirState::Forward { fwd: req, sharers };
        let data = line.data;
        let txn = self.mshr.txn_mut(block).expect("transaction in flight");
        txn.phase = Phase::Unblock;
        out.push(self.to_l1(
            req,
            block,
            Payload::Data {
                data,
                grant: Grant::Forward,
            },
        ));
        Ok(())
    }

    /// DRAM fill arrived for a transaction in `MemFetch`.
    fn mem_data(
        &mut self,
        block: BlockAddr,
        data: BlockData,
        tainted: bool,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        match self.mshr.txn(block) {
            Some(txn) => assert_eq!(txn.phase, Phase::MemFetch),
            None => {
                return Err(self.error(
                    DirRowId::StrayMemData,
                    stats,
                    format!("stray MEM_DATA for {block:?}"),
                ))
            }
        }
        if tainted && self.recovery.is_some() {
            // The DRAM fill was corrupted in flight. The L2 copy is the
            // root of the precise hierarchy, so never install it: discard
            // and fetch again (the reserved placeholder way stays put).
            self.row(DirRowId::CorruptMemRefetch, stats)?;
            stats.corrupt_mem_refetches += 1;
            out.push(self.to_mem(block, Payload::MemRead));
            return Ok(());
        }
        self.row(DirRowId::MemData, stats)?;
        stats.energy_events.l2_writes += 1;
        let w = self.cache.probe_way(block).expect("placeholder reserved");
        let line = self.cache.line_at_mut(w);
        line.data = data;
        line.meta.dirty = false;
        line.meta.dir = DirState::Np;
        self.act_on_line(block, w, stats, out)
    }

    /// Recall of a transaction's L2 victim completed: evict the victim,
    /// start the DRAM fill of the main block, and release waiters on the
    /// victim.
    fn finish_recall(
        &mut self,
        main: BlockAddr,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let txn = self.mshr.txn_mut(main).expect("recall txn");
        let victim = txn.recall_victim.take().expect("victim recorded");
        txn.phase = Phase::MemFetch;
        let vline = self.cache.remove(victim).expect("victim resident");
        if vline.meta.dirty {
            stats.energy_events.l2_reads += 1;
            out.push(self.to_mem(victim, Payload::MemWrite { data: vline.data }));
        }
        // Reserve the freed way for the main block and fetch it.
        let way = match self.cache.lookup_for_insert(main) {
            LookupResult::Free { way } => way,
            r => {
                return Err(ProtocolError::internal(
                    self.ctl(),
                    format!("way just freed for {main:?}, got {r:?}"),
                ))
            }
        };
        self.cache.insert_at(
            way,
            main,
            L2Meta {
                dir: DirState::Np,
                dirty: false,
            },
            BlockData::zeroed(),
        );
        out.push(self.to_mem(main, Payload::MemRead));
        // Anyone queued on the (now departed) victim can proceed.
        self.release_queued(victim, stats, out)
    }

    /// A transaction finished: service queued requests for the block and
    /// retry set-stalled fills.
    fn release(
        &mut self,
        block: BlockAddr,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        self.release_queued(block, stats, out)?;
        self.retry_stalled(stats, out)
    }

    fn release_queued(
        &mut self,
        block: BlockAddr,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        // Process queued requests until one blocks the line again (or the
        // queue drains). PUTs are synchronous, so several may complete.
        while !self.is_blocked(block) {
            let Some(req) = self.mshr.dequeue(block) else {
                break;
            };
            self.start(block, req, stats, out)?;
        }
        Ok(())
    }

    fn retry_stalled(
        &mut self,
        stats: &mut Stats,
        out: &mut Vec<Msg>,
    ) -> Result<(), ProtocolError> {
        let n = self.stalled.len();
        for _ in 0..n {
            let (block, req) = self.stalled.pop_front().expect("counted");
            if self.is_blocked(block) {
                self.mshr.enqueue(block, req);
            } else {
                self.start(block, req, stats, out)?;
            }
        }
        Ok(())
    }
}

/// Iterates the set bits of a sharer mask as core indices.
fn bits(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |i| mask & (1 << i) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    fn req_msg(core: usize, block: BlockAddr, payload: Payload) -> Msg {
        Msg {
            src: Endpoint::L1(core),
            dst: Endpoint::Dir(0),
            block,
            payload,
            tag: WireTag::default(),
        }
    }

    fn data_of(msg: &Msg) -> (BlockData, Grant) {
        match msg.payload {
            Payload::Data { data, grant } => (data, grant),
            ref p => panic!("expected DATA, got {}", p.name()),
        }
    }

    /// Drives the bank plus a perfect memory: answers MemRead with zeroed
    /// data immediately, swallows MemWrite.
    fn drive_mem(bank: &mut DirBank, out: Vec<Msg>, stats: &mut Stats) -> Vec<Msg> {
        let mut result = Vec::new();
        let mut pending = out;
        while let Some(msg) = pending.pop() {
            match (&msg.dst, &msg.payload) {
                (Endpoint::Mem(_), Payload::MemRead) => {
                    let reply = Msg {
                        src: msg.dst,
                        dst: msg.src,
                        block: msg.block,
                        payload: Payload::MemData {
                            data: BlockData::zeroed(),
                        },
                        tag: WireTag::default(),
                    };
                    pending.extend(bank.handle_msg(reply, stats).unwrap());
                }
                (Endpoint::Mem(_), Payload::MemWrite { .. }) => {}
                _ => result.push(msg),
            }
        }
        result
    }

    #[test]
    fn msi_bank_grants_shared_to_sole_reader() {
        let mut bank = DirBank::with_base(0, 16, 4, 1, BaseProtocol::Msi);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(3, blk(16), Payload::Gets), &mut stats)
            .unwrap();
        let out = drive_mem(&mut bank, out, &mut stats);
        let (_, grant) = data_of(&out[0]);
        assert_eq!(grant, Grant::Shared, "MSI never grants E");
        assert_eq!(bank.dir_state(blk(16)), Some(DirState::Shared(0b1000)));
        // A subsequent store from the same core must therefore UPGRADE.
        bank.handle_msg(req_msg(3, blk(16), Payload::Unblock), &mut stats)
            .unwrap();
        let out = bank
            .handle_msg(req_msg(3, blk(16), Payload::Upgrade), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::UpgAck));
        assert_eq!(bank.dir_state(blk(16)), Some(DirState::Owned(3)));
    }

    #[test]
    fn cold_gets_grants_exclusive() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(3, blk(16), Payload::Gets), &mut stats)
            .unwrap();
        let out = drive_mem(&mut bank, out, &mut stats);
        assert_eq!(out.len(), 1);
        let (_, grant) = data_of(&out[0]);
        assert_eq!(grant, Grant::Exclusive);
        assert_eq!(out[0].dst, Endpoint::L1(3));
        assert_eq!(bank.dir_state(blk(16)), Some(DirState::Owned(3)));
        // Unblock releases the transaction.
        bank.handle_msg(req_msg(3, blk(16), Payload::Unblock), &mut stats)
            .unwrap();
        assert!(bank.quiescent());
    }

    #[test]
    fn second_gets_is_forwarded_to_owner() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(1), Payload::Unblock), &mut stats)
            .unwrap();
        // Core 1 GETS: owner (core 0) must be asked for data.
        let out = bank
            .handle_msg(req_msg(1, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::FwdGets));
        assert_eq!(out[0].dst, Endpoint::L1(0));
        // Owner responds; both become sharers.
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(1),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::ToShared,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        let (_, grant) = data_of(&out[0]);
        assert_eq!(grant, Grant::Shared);
        assert_eq!(bank.dir_state(blk(1)), Some(DirState::Shared(0b11)));
    }

    #[test]
    fn getx_invalidates_sharers_then_grants_m() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        // Cores 0 and 1 share the block.
        let out = bank
            .handle_msg(req_msg(0, blk(2), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(2), Payload::Unblock), &mut stats)
            .unwrap();
        let _out = bank
            .handle_msg(req_msg(1, blk(2), Payload::Gets), &mut stats)
            .unwrap();
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(2),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::ToShared,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        assert!(matches!(out[0].payload, Payload::Data { .. }));
        bank.handle_msg(req_msg(1, blk(2), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(2)), Some(DirState::Shared(0b11)));
        // Core 2 GETX: both sharers invalidated.
        let out = bank
            .handle_msg(req_msg(2, blk(2), Payload::Getx), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|m| matches!(m.payload, Payload::Inv)));
        let out0 = bank
            .handle_msg(req_msg(0, blk(2), Payload::InvAck), &mut stats)
            .unwrap();
        assert!(out0.is_empty());
        let out1 = bank
            .handle_msg(req_msg(1, blk(2), Payload::InvAck), &mut stats)
            .unwrap();
        assert_eq!(out1.len(), 1);
        let (_, grant) = data_of(&out1[0]);
        assert_eq!(grant, Grant::Modified);
        assert_eq!(bank.dir_state(blk(2)), Some(DirState::Owned(2)));
    }

    #[test]
    fn upgrade_from_sole_sharer_is_ack_only() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(3), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(3), Payload::Unblock), &mut stats)
            .unwrap();
        // Downgrade to Shared via a second reader + PutS to make core 0 a
        // sole *shared* holder.
        let _out = bank
            .handle_msg(req_msg(1, blk(3), Payload::Gets), &mut stats)
            .unwrap();
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(3),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::ToShared,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        bank.handle_msg(req_msg(1, blk(3), Payload::Unblock), &mut stats)
            .unwrap();
        bank.handle_msg(req_msg(1, blk(3), Payload::PutS), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(3)), Some(DirState::Shared(0b01)));
        let out = bank
            .handle_msg(req_msg(0, blk(3), Payload::Upgrade), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::UpgAck));
        assert_eq!(bank.dir_state(blk(3)), Some(DirState::Owned(0)));
    }

    #[test]
    fn upgrade_from_nonsharer_converts_to_getx() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        // Core 0 owns the block exclusively.
        let out = bank
            .handle_msg(req_msg(0, blk(4), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(4), Payload::Unblock), &mut stats)
            .unwrap();
        // Core 1 sends an UPGRADE while not a sharer (lost a race):
        // directory must treat it as GETX and pull data from the owner.
        let out = bank
            .handle_msg(req_msg(1, blk(4), Payload::Upgrade), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::FwdGetx));
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(4),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::Dropped,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        let (_, grant) = data_of(&out[0]);
        assert_eq!(grant, Grant::Modified);
        assert_eq!(bank.dir_state(blk(4)), Some(DirState::Owned(1)));
    }

    #[test]
    fn requests_queue_behind_busy_block() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(5), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        // Transaction not yet unblocked: core 1's GETS must queue.
        let out = bank
            .handle_msg(req_msg(1, blk(5), Payload::Gets), &mut stats)
            .unwrap();
        assert!(out.is_empty(), "queued request produced output");
        // Unblock releases it: owner forward goes out.
        let out = bank
            .handle_msg(req_msg(0, blk(5), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::FwdGets));
    }

    #[test]
    fn putm_from_owner_updates_l2() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(6), Payload::Getx), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(6), Payload::Unblock), &mut stats)
            .unwrap();
        let mut data = BlockData::zeroed();
        data.write_word(0, 8, 0xFEED);
        let out = bank
            .handle_msg(req_msg(0, blk(6), Payload::PutM { data }), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::WbAck));
        assert_eq!(bank.dir_state(blk(6)), Some(DirState::Np));
        assert_eq!(bank.peek_block(blk(6)).unwrap().read_word(0, 8), 0xFEED);
    }

    #[test]
    fn stale_putm_is_acked_and_ignored() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(7), Payload::Getx), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(7), Payload::Unblock), &mut stats)
            .unwrap();
        // Ownership moves to core 1.
        let out = bank
            .handle_msg(req_msg(1, blk(7), Payload::Getx), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::FwdGetx));
        let mut fresh = BlockData::zeroed();
        fresh.write_word(0, 8, 1);
        bank.handle_msg(
            Msg {
                src: Endpoint::L1(0),
                dst: Endpoint::Dir(0),
                block: blk(7),
                payload: Payload::DataToDir {
                    data: fresh,
                    xfer: OwnerXfer::Dropped,
                },
                tag: WireTag::default(),
            },
            &mut stats,
        )
        .unwrap();
        bank.handle_msg(req_msg(1, blk(7), Payload::Unblock), &mut stats)
            .unwrap();
        // Core 0's stale PUTM (race loser) must be acked but not applied.
        let mut stale = BlockData::zeroed();
        stale.write_word(0, 8, 99);
        let out = bank
            .handle_msg(
                req_msg(0, blk(7), Payload::PutM { data: stale }),
                &mut stats,
            )
            .unwrap();
        assert!(matches!(out[0].payload, Payload::WbAck));
        assert_eq!(bank.dir_state(blk(7)), Some(DirState::Owned(1)));
        assert_eq!(bank.peek_block(blk(7)).unwrap().read_word(0, 8), 1);
        assert!(stats.coverage.dir_hits(DirRowId::PutMStale) > 0);
    }

    #[test]
    fn stale_pute_is_acked_and_ignored() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(8), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(8), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(8)), Some(DirState::Owned(0)));
        // Core 3 never owned the block: its PUTE is acked (the L1 waits
        // for the ack to clear its writeback buffer) but changes nothing.
        let out = bank
            .handle_msg(req_msg(3, blk(8), Payload::PutE), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::WbAck));
        assert_eq!(bank.dir_state(blk(8)), Some(DirState::Owned(0)));
        assert!(stats.coverage.dir_hits(DirRowId::PutEStale) > 0);
    }

    #[test]
    fn pute_clears_owner_and_acks() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(9), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(9), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(9)), Some(DirState::Owned(0)));
        // Clean exclusive eviction: ownership clears, data stays valid.
        let out = bank
            .handle_msg(req_msg(0, blk(9), Payload::PutE), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::WbAck));
        assert_eq!(bank.dir_state(blk(9)), Some(DirState::Np));
    }

    #[test]
    fn puts_from_last_sharer_returns_np() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(10), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(10), Payload::Unblock), &mut stats)
            .unwrap();
        // Demote to Shared via second reader, then both PUTS.
        let out = bank
            .handle_msg(req_msg(1, blk(10), Payload::Gets), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::FwdGets));
        bank.handle_msg(
            Msg {
                src: Endpoint::L1(0),
                dst: Endpoint::Dir(0),
                block: blk(10),
                payload: Payload::DataToDir {
                    data: BlockData::zeroed(),
                    xfer: OwnerXfer::ToShared,
                },
                tag: WireTag::default(),
            },
            &mut stats,
        )
        .unwrap();
        bank.handle_msg(req_msg(1, blk(10), Payload::Unblock), &mut stats)
            .unwrap();
        let out = bank
            .handle_msg(req_msg(0, blk(10), Payload::PutS), &mut stats)
            .unwrap();
        assert!(out.is_empty(), "PUTS is unacknowledged");
        assert_eq!(bank.dir_state(blk(10)), Some(DirState::Shared(0b10)));
        bank.handle_msg(req_msg(1, blk(10), Payload::PutS), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(10)), Some(DirState::Np));
    }

    #[test]
    fn stale_puts_from_nonsharer_is_ignored() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(11), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(11), Payload::Unblock), &mut stats)
            .unwrap();
        // Core 5 never held the block: its (stale) PUTS must not corrupt
        // the owner tracking.
        bank.handle_msg(req_msg(5, blk(11), Payload::PutS), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(11)), Some(DirState::Owned(0)));
        // PUTS for an absent block is also harmless.
        bank.handle_msg(req_msg(5, blk(999), Payload::PutS), &mut stats)
            .unwrap();
        assert_eq!(bank.dir_state(blk(999)), None);
    }

    #[test]
    fn queued_requests_service_in_fifo_order() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(12), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        // Two readers queue behind the busy block (no unblock yet).
        assert!(bank
            .handle_msg(req_msg(1, blk(12), Payload::Gets), &mut stats)
            .unwrap()
            .is_empty());
        assert!(bank
            .handle_msg(req_msg(2, blk(12), Payload::Gets), &mut stats)
            .unwrap()
            .is_empty());
        // Unblock: core 1's GETS is serviced first (FIFO).
        let out = bank
            .handle_msg(req_msg(0, blk(12), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::FwdGets));
        assert_eq!(out[0].dst, Endpoint::L1(0));
        // Complete it; core 2 is next.
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(12),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::ToShared,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        assert_eq!(out[0].dst, Endpoint::L1(1));
        let out = bank
            .handle_msg(req_msg(1, blk(12), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1, "core 2's queued GETS proceeds");
        assert!(matches!(out[0].payload, Payload::Data { .. }));
        assert_eq!(out[0].dst, Endpoint::L1(2));
    }

    #[test]
    fn fill_stalls_when_every_way_is_pinned() {
        // 1 set x 2 ways: two in-flight fills pin both ways; a third
        // request must stall, then proceed once a way frees.
        let mut bank = DirBank::new(0, 1, 2, 1);
        let mut stats = Stats::default();
        // Fills for blocks 0 and 1 reserve the two ways (MemRead pending,
        // no MemData yet).
        let out0 = bank
            .handle_msg(req_msg(0, blk(0), Payload::Gets), &mut stats)
            .unwrap();
        assert!(matches!(out0[0].payload, Payload::MemRead));
        let out1 = bank
            .handle_msg(req_msg(1, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        assert!(matches!(out1[0].payload, Payload::MemRead));
        // Third request: both ways pinned -> no output, stalled.
        let out2 = bank
            .handle_msg(req_msg(2, blk(2), Payload::Gets), &mut stats)
            .unwrap();
        assert!(out2.is_empty(), "stalled fill must wait: {out2:?}");
        assert!(!bank.quiescent());
        // Block 0's fill completes and unblocks; the stalled fill retries
        // (recalling block 0, now owned by core 0).
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::Mem(0),
                    dst: Endpoint::Dir(0),
                    block: blk(0),
                    payload: Payload::MemData {
                        data: BlockData::zeroed(),
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        assert!(matches!(out[0].payload, Payload::Data { .. }));
        let out = bank
            .handle_msg(req_msg(0, blk(0), Payload::Unblock), &mut stats)
            .unwrap();
        // Retry: block 2 wants a way; block 0 (stable, Owned) is the
        // victim -> recall forward to core 0.
        assert!(
            out.iter()
                .any(|m| matches!(m.payload, Payload::FwdGetx) && m.block == blk(0)),
            "stalled request should retry via recall: {out:?}"
        );
        assert!(stats.coverage.dir_hits(DirRowId::FillStalled) > 0);
    }

    #[test]
    fn inclusion_recall_of_shared_victim() {
        // 1 set x 1 way forces a recall on the second distinct block.
        let mut bank = DirBank::new(0, 1, 1, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(0), Payload::Gets), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(0), Payload::Unblock), &mut stats)
            .unwrap();
        // Demote to shared so the recall is an INV sweep: second sharer.
        let _out = bank
            .handle_msg(req_msg(1, blk(0), Payload::Gets), &mut stats)
            .unwrap();
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(0),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::ToShared,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        bank.handle_msg(req_msg(1, blk(0), Payload::Unblock), &mut stats)
            .unwrap();
        // Block 1 maps to the same (only) set: recall of block 0 expected.
        let out = bank
            .handle_msg(req_msg(2, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|m| matches!(m.payload, Payload::Inv) && m.block == blk(0)));
        // Both sharers ack; the fill proceeds.
        let out0 = bank
            .handle_msg(req_msg(0, blk(0), Payload::InvAck), &mut stats)
            .unwrap();
        assert!(out0.is_empty());
        let out1 = bank
            .handle_msg(req_msg(1, blk(0), Payload::InvAck), &mut stats)
            .unwrap();
        let out = drive_mem(&mut bank, out1, &mut stats);
        assert_eq!(out.len(), 1);
        let (_, grant) = data_of(&out[0]);
        assert_eq!(grant, Grant::Exclusive);
        assert_eq!(stats.l2_recalls, 1);
        assert!(bank.dir_state(blk(0)).is_none(), "victim evicted");
    }

    #[test]
    fn inclusion_recall_of_owned_victim_writes_back() {
        let mut bank = DirBank::new(0, 1, 1, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(0), Payload::Getx), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(0), Payload::Unblock), &mut stats)
            .unwrap();
        // Block 1 forces recall of owned block 0.
        let out = bank
            .handle_msg(req_msg(1, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::FwdGetx) && out[0].block == blk(0));
        let mut dirty = BlockData::zeroed();
        dirty.write_word(8, 8, 0xAA);
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(0),
                    payload: Payload::DataToDir {
                        data: dirty,
                        xfer: OwnerXfer::Dropped,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        // Expect: MemWrite of victim + MemRead of block 1.
        let wrote_back = out.iter().any(|m| {
            matches!(m.payload, Payload::MemWrite { data } if data.read_word(8, 8) == 0xAA)
                && m.block == blk(0)
        });
        assert!(wrote_back, "dirty recall victim must be written back");
        assert!(out
            .iter()
            .any(|m| matches!(m.payload, Payload::MemRead) && m.block == blk(1)));
    }

    #[test]
    fn queued_request_on_recall_victim_refetches() {
        let mut bank = DirBank::new(0, 1, 1, 1);
        let mut stats = Stats::default();
        let out = bank
            .handle_msg(req_msg(0, blk(0), Payload::Getx), &mut stats)
            .unwrap();
        let _ = drive_mem(&mut bank, out, &mut stats);
        bank.handle_msg(req_msg(0, blk(0), Payload::Unblock), &mut stats)
            .unwrap();
        let out = bank
            .handle_msg(req_msg(1, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::FwdGetx));
        // While block 0 is being recalled, core 2 asks for it: queued.
        let out = bank
            .handle_msg(req_msg(2, blk(0), Payload::Gets), &mut stats)
            .unwrap();
        assert!(out.is_empty());
        // Owner answers the recall; block 1 fill begins, and block 0's
        // queued GETS is only serviceable after the set frees up again —
        // it lands in the stalled list until block 1's txn completes.
        let out = bank
            .handle_msg(
                Msg {
                    src: Endpoint::L1(0),
                    dst: Endpoint::Dir(0),
                    block: blk(0),
                    payload: Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::Dropped,
                    },
                    tag: WireTag::default(),
                },
                &mut stats,
            )
            .unwrap();
        let out = drive_mem(&mut bank, out, &mut stats);
        assert_eq!(out.len(), 1, "block 1 data grant");
        let out = bank
            .handle_msg(req_msg(1, blk(1), Payload::Unblock), &mut stats)
            .unwrap();
        // Now block 0's GETS retries: it recalls block 1... which has an
        // owner? No — block 1 was granted Exclusive to core 1, so recall
        // forwards to it.
        let fwd = out
            .iter()
            .find(|m| matches!(m.payload, Payload::FwdGetx))
            .expect("recall of block 1 to serve queued GETS of block 0");
        assert_eq!(fwd.block, blk(1));
    }

    #[test]
    fn mesif_fwd_nack_is_served_from_l2() {
        // The `fwd_nack_gets` race end-to-end at the directory: E owner
        // forwards to a second reader (who becomes F), a third reader's
        // FWD_GETS bounces off the F holder, and the directory serves
        // the requestor from L2, handing it the F designation.
        let mut bank = DirBank::with_base(0, 16, 4, 1, BaseProtocol::Mesif);
        let mut stats = Stats::default();
        // Core 0: cold GETS -> E.
        let out = bank
            .handle_msg(req_msg(0, blk(16), Payload::Gets), &mut stats)
            .unwrap();
        let out = drive_mem(&mut bank, out, &mut stats);
        assert_eq!(data_of(&out[0]).1, Grant::Exclusive);
        bank.handle_msg(req_msg(0, blk(16), Payload::Unblock), &mut stats)
            .unwrap();
        // Core 1: GETS forwards to the owner; the owner's data reply
        // grants core 1 the F designation.
        let out = bank
            .handle_msg(req_msg(1, blk(16), Payload::Gets), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::FwdGets));
        let out = bank
            .handle_msg(
                req_msg(
                    0,
                    blk(16),
                    Payload::DataToDir {
                        data: BlockData::zeroed(),
                        xfer: OwnerXfer::ToShared,
                    },
                ),
                &mut stats,
            )
            .unwrap();
        assert_eq!(data_of(&out[0]).1, Grant::Forward);
        bank.handle_msg(req_msg(1, blk(16), Payload::Unblock), &mut stats)
            .unwrap();
        assert_eq!(
            bank.dir_state(blk(16)),
            Some(DirState::Forward {
                fwd: 1,
                sharers: 0b1
            })
        );
        // Core 2: GETS forwards to the F holder... which bounces.
        let out = bank
            .handle_msg(req_msg(2, blk(16), Payload::Gets), &mut stats)
            .unwrap();
        assert!(matches!(out[0].payload, Payload::FwdGets));
        let l2_reads = stats.energy_events.l2_reads;
        let out = bank
            .handle_msg(req_msg(1, blk(16), Payload::FwdNack), &mut stats)
            .unwrap();
        assert_eq!(data_of(&out[0]).1, Grant::Forward, "served from L2");
        assert_eq!(stats.energy_events.l2_reads, l2_reads + 1);
        bank.handle_msg(req_msg(2, blk(16), Payload::Unblock), &mut stats)
            .unwrap();
        // The stale forwarder is dropped from the sharer set entirely;
        // its PUTS will be acked as stale.
        assert_eq!(
            bank.dir_state(blk(16)),
            Some(DirState::Forward {
                fwd: 2,
                sharers: 0b1
            })
        );
        assert_eq!(stats.coverage.dir[DirRowId::FwdNackGets as usize], 1);
    }

    #[test]
    fn mshr_capacity_exhaustion_is_a_typed_error_not_a_panic() {
        let mut bank = DirBank::new(0, 16, 4, 1);
        bank.force_mshr_capacity(1);
        let mut stats = Stats::default();
        // First GETS admits a transaction that stays in flight (memory
        // never answers, UNBLOCK never arrives), pinning the forced
        // single MSHR slot of set 1.
        bank.handle_msg(req_msg(0, blk(1), Payload::Gets), &mut stats)
            .unwrap();
        // A second transaction for a different block of the same set
        // (17 ≡ 1 mod 16 sets) must surface the capacity breach as a
        // typed protocol error.
        let err = bank
            .handle_msg(req_msg(1, blk(17), Payload::Gets), &mut stats)
            .expect_err("full MSHR set must be a ProtocolError");
        let text = err.to_string();
        assert!(
            text.contains("MSHR capacity exhausted"),
            "unexpected error text: {text}"
        );
    }
}
