//! The simulated chip multiprocessor.
//!
//! [`Machine`] assembles the whole system of the paper's Table 1 — cores,
//! private L1s, the distributed shared L2 with directory slices, the mesh
//! NoC, the corner memory controllers and DRAM — and runs workload threads
//! against it under either the baseline MESI protocol or Ghostwriter.
//!
//! Timing model: a single deterministic event queue drives everything.
//! Cores are in-order and blocking; an L1 hit costs `l1_latency`, a miss
//! blocks the core until the coherence transaction completes. Message
//! delivery latency is the mesh's contention-free XY latency; L2 banks add
//! `l2_latency` per access, memory controllers `dram_latency`.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;

use ghostwriter_mem::{Addr, BlockAddr, Dram, BLOCK_BYTES};
use ghostwriter_noc::{Mesh, NodeId};
use ghostwriter_sim::{EventQueue, FutureThread, Step};

use crate::config::{MachineConfig, Protocol};
use crate::ctx::ThreadCtx;
use crate::dir::DirBank;
use crate::fault::{self, Fate, FaultConfig};
use crate::l1::{AccessKind, CoreReq, GwParams, L1Cache, L1Out};
use crate::msg::{CtlMsg, DataPool, Endpoint, Msg, Payload, WireTag};
use crate::op::{OpKind, ThreadOp, ThreadReply};
use crate::prof::{Component, Phase, Profile, Profiler};
use crate::proto::ProtocolError;
use crate::stats::{CoreSummary, SimReport, Stats};
use ghostwriter_energy::EnergyModel;

/// One simulated thread's body: the future [`Machine::add_thread`]'s
/// closure returns, suspended at every `ThreadCtx` operation.
pub type ThreadBody = Pin<Box<dyn Future<Output = ()>>>;

/// A workload program: one closure per simulated thread. The closure is
/// `Send`, so a built machine's programs may be handed to another thread
/// before the run; the future it returns is single-threaded — it owns
/// the engine-side op cell and never crosses threads.
pub type Program = Box<dyn FnOnce(ThreadCtx) -> ThreadBody + Send + 'static>;

/// Builder/owner of one simulation: allocate memory, load inputs, add
/// threads, then [`Machine::run`].
pub struct Machine {
    config: MachineConfig,
    faults: FaultConfig,
    injections: Vec<(u64, Msg)>,
    energy_model: EnergyModel,
    dram: Dram,
    alloc_cursor: u64,
    programs: Vec<Program>,
    trace: bool,
    profiling: bool,
    fuse_replies: bool,
}

/// One protocol message as seen by the (optional) trace recorder.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// Cycle the message entered the network.
    pub cycle: u64,
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Block address.
    pub block: BlockAddr,
    /// Wire name (GETS, UPGRADE, INV, ...).
    pub name: &'static str,
}

/// A typed protocol-level abort: a controller raised a
/// [`ProtocolError`] mid-run. Mirrors [`post_drain_fetch_report`]'s
/// philosophy — the abort names the cycle and the last delivered
/// message so a fault-campaign failure is actionable, not just
/// "protocol error".
#[derive(Debug)]
pub struct SimAbort {
    /// The controller's typed error (row, controller, detail).
    pub error: ProtocolError,
    /// Cycle at which the error was raised.
    pub cycle: u64,
    /// Human-readable form of the last message the engine delivered
    /// before the abort (`"<none>"` if nothing was delivered yet).
    pub last_msg: String,
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol error at cycle {} (last delivered message: {}): {}",
            self.cycle, self.last_msg, self.error
        )
    }
}

impl std::error::Error for SimAbort {}

/// A completed simulation: the report plus functional access to the final
/// coherent memory image (owned lines flushed through the protocol's
/// semantics — GS/GI contents forfeited).
pub struct FinishedRun {
    /// Timing, traffic, energy and protocol statistics.
    pub report: SimReport,
    /// Message trace, if [`Machine::enable_trace`] was called.
    pub trace: Vec<TraceEntry>,
    /// Cycle-attribution profile, if [`Machine::enable_profiling`] was
    /// called. Never feeds into [`FinishedRun::report`] or its stats
    /// JSON — profiled and unprofiled runs are byte-identical there.
    pub profile: Option<Profile>,
    dram: Dram,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        config.validate();
        Self {
            config,
            faults: FaultConfig::default(),
            injections: Vec::new(),
            energy_model: EnergyModel::default(),
            dram: Dram::new(),
            alloc_cursor: 0x1_0000,
            programs: Vec::new(),
            trace: false,
            profiling: false,
            fuse_replies: true,
        }
    }

    /// Disables the fused reply→fetch fast path, forcing every core
    /// resume through the event queue as separate deliver + fetch
    /// events. A diagnostic switch for differential testing — fused and
    /// unfused runs must produce byte-identical results. Like
    /// [`Machine::enable_profiling`], this is deliberately a runtime
    /// switch rather than a config field so the config cache key is
    /// unaffected.
    pub fn disable_reply_fusion(&mut self) {
        self.fuse_replies = false;
    }

    /// Installs a fault-injection configuration. Like profiling, this
    /// is a runtime switch, not a [`MachineConfig`] field: the config
    /// cache key is unaffected, and campaign cache keys append
    /// [`FaultConfig::key`] themselves. The default (all-off) config
    /// leaves every run byte-identical to a fault-unaware build.
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.faults = faults;
    }

    /// Byzantine-injection hook: delivers an arbitrary `msg` to its
    /// destination at `cycle`, bypassing the network model — as a buggy
    /// or hostile controller would. Pair with [`Machine::try_run`] to
    /// observe the typed [`SimAbort`] instead of a panic.
    pub fn inject_at(&mut self, cycle: u64, msg: Msg) {
        self.injections.push((cycle, msg));
    }

    /// Turns on the cycle-attribution profiler (see [`crate::prof`]).
    /// A runtime switch, not a config field: the machine's cache key is
    /// derived from its [`MachineConfig`], and profiling must never
    /// change what a run computes — only observe it.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Records every protocol message into [`FinishedRun::trace`]. Only
    /// for small scripted scenarios (Figs. 4/5); large runs produce huge
    /// traces.
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Overrides the energy model (defaults to the CACTI/DSENT-class
    /// constants).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy_model = model;
    }

    /// Allocates `bytes` of simulated memory at the given power-of-two
    /// alignment.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two());
        self.alloc_cursor = (self.alloc_cursor + align - 1) & !(align - 1);
        let addr = Addr(self.alloc_cursor);
        self.alloc_cursor += bytes.max(1);
        addr
    }

    /// Allocates a region padded out to whole cache blocks — the paper's
    /// compiler pads annotated structures so a block never mixes
    /// approximate and non-approximate data (§3.1).
    pub fn alloc_padded(&mut self, bytes: u64) -> Addr {
        let b = BLOCK_BYTES as u64;
        let padded = bytes.div_ceil(b) * b;
        self.alloc(padded, b)
    }

    /// Functional pre-run write of raw bytes (input loading).
    pub fn backdoor_write(&mut self, addr: Addr, bytes: &[u8]) {
        self.dram.backdoor_write(addr, bytes);
    }

    /// Functional typed input helpers.
    pub fn backdoor_write_u32s(&mut self, base: Addr, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.dram
                .backdoor_write_word(base.add(4 * i as u64), 4, *v as u64);
        }
    }

    /// Writes a slice of `i32` inputs.
    pub fn backdoor_write_i32s(&mut self, base: Addr, values: &[i32]) {
        for (i, v) in values.iter().enumerate() {
            self.dram
                .backdoor_write_word(base.add(4 * i as u64), 4, *v as u32 as u64);
        }
    }

    /// Writes a slice of `f32` inputs (bit patterns).
    pub fn backdoor_write_f32s(&mut self, base: Addr, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.dram
                .backdoor_write_word(base.add(4 * i as u64), 4, v.to_bits() as u64);
        }
    }

    /// Writes a slice of `f64` inputs (bit patterns).
    pub fn backdoor_write_f64s(&mut self, base: Addr, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.dram
                .backdoor_write_word(base.add(8 * i as u64), 8, v.to_bits());
        }
    }

    /// Writes a slice of bytes-per-element `u8` inputs.
    pub fn backdoor_write_u8s(&mut self, base: Addr, values: &[u8]) {
        self.dram.backdoor_write(base, values);
    }

    /// Adds a simulated thread. Thread `i` runs on core `i`.
    ///
    /// The closure receives its [`ThreadCtx`] and returns the thread's
    /// `async` body; every ctx operation is awaited:
    ///
    /// ```ignore
    /// m.add_thread(move |ctx| async move {
    ///     let v = ctx.load_u32(a).await;
    ///     ctx.store_u32(a, v + 1).await;
    /// });
    /// ```
    pub fn add_thread<F, Fut>(&mut self, f: F)
    where
        F: FnOnce(ThreadCtx) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(
            self.programs.len() < self.config.cores,
            "more threads than cores"
        );
        self.programs.push(Box::new(move |ctx| Box::pin(f(ctx))));
    }

    /// Runs the simulation to completion and returns the report plus the
    /// final coherent memory image.
    ///
    /// # Panics
    /// Panics with the [`SimAbort`] report on a protocol error — under
    /// fault injection prefer [`Machine::try_run`].
    pub fn run(self) -> FinishedRun {
        self.try_run().unwrap_or_else(|abort| panic!("{abort}"))
    }

    /// Runs the simulation, surfacing protocol-level aborts as a typed
    /// [`SimAbort`] (cycle, last delivered message, controller error)
    /// instead of a panic. Workload panics still unwind.
    pub fn try_run(self) -> Result<FinishedRun, SimAbort> {
        assert!(!self.programs.is_empty(), "no threads to run");
        let mut engine = Engine::new(
            self.config,
            self.energy_model,
            self.dram,
            self.programs,
            self.profiling,
            self.fuse_replies,
            self.faults,
            self.injections,
        );
        engine.trace = self.trace.then(Vec::new);
        engine.run()
    }
}

impl FinishedRun {
    /// Reads raw bytes from the final coherent memory image.
    pub fn read(&self, addr: Addr, out: &mut [u8]) {
        self.dram.backdoor_read(addr, out);
    }

    /// Reads one `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        self.dram.backdoor_read_word(addr, 4) as u32
    }

    /// Reads one `i32`.
    pub fn read_i32(&self, addr: Addr) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Reads one `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.dram.backdoor_read_word(addr, 8)
    }

    /// Reads one `i64`.
    pub fn read_i64(&self, addr: Addr) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Reads one `f32`.
    pub fn read_f32(&self, addr: Addr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Reads one `f64`.
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Reads `n` consecutive `f32`s.
    pub fn read_f32s(&self, base: Addr, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| self.read_f32(base.add(4 * i as u64)))
            .collect()
    }

    /// Reads `n` consecutive `f64`s.
    pub fn read_f64s(&self, base: Addr, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.read_f64(base.add(8 * i as u64)))
            .collect()
    }

    /// Canonical fingerprint of the final coherent memory image (see
    /// [`Dram::image_fingerprint`]): equal fingerprints mean byte-equal
    /// memory. Used by the cross-protocol differential suite, where
    /// every base protocol must agree on the image while traffic stats
    /// may differ.
    pub fn memory_fingerprint(&self) -> u64 {
        self.dram.image_fingerprint()
    }

    /// Reads `n` consecutive `i32`s.
    pub fn read_i32s(&self, base: Addr, n: usize) -> Vec<i32> {
        (0..n)
            .map(|i| self.read_i32(base.add(4 * i as u64)))
            .collect()
    }

    /// Reads `n` consecutive `u32`s.
    pub fn read_u32s(&self, base: Addr, n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| self.read_u32(base.add(4 * i as u64)))
            .collect()
    }

    /// Reads `n` consecutive `i64`s.
    pub fn read_i64s(&self, base: Addr, n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| self.read_i64(base.add(8 * i as u64)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Ev {
    /// Core ready for its thread's next operation.
    Fetch { core: usize },
    /// Network delivery of the pooled message in this slot.
    ///
    /// Carrying a slot index instead of the `Msg` itself keeps heap
    /// entries at a fixed 16-ish bytes: `Msg` embeds a 64-byte
    /// `BlockData` payload in its `Data`/`MemData`/`PutM` variants,
    /// and cloning that through every push/pop/sift of the binary heap
    /// dominated the delivery path.
    Deliver(u32),
    /// Periodic GI timeout sweep for one L1 controller.
    GiTick { core: usize },
    /// Periodic context switch on one core (§3.5 forfeit).
    ContextSwitch { core: usize },
    /// Recovery timeout check: if core `core` still has request `seq`
    /// outstanding after `attempt` retries, fire the retry row. Stale
    /// checks (the request completed, or a newer check superseded this
    /// one) are no-ops.
    RetryCheck { core: usize, seq: u32, attempt: u32 },
    /// Background fault tick: resident-line bit flips and GI-timeout
    /// storms, every [`FaultConfig::tick_cycles`].
    FaultTick,
}

/// Arena for in-flight protocol messages: `Ev::Deliver` carries an index
/// into `slots`, and a slot is recycled onto the free list the moment its
/// message is delivered. In-flight count is bounded by outstanding
/// transactions, so the arena stays small and hot. Slots hold the
/// control-plane [`CtlMsg`] form — block data lives in the engine's
/// [`DataPool`], so control messages cost no data movement here.
#[derive(Default)]
struct MsgPool {
    slots: Vec<Option<CtlMsg>>,
    free: Vec<u32>,
}

impl MsgPool {
    fn alloc(&mut self, msg: CtlMsg) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("message pool overflow");
                self.slots.push(Some(msg));
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> CtlMsg {
        let msg = self.slots[slot as usize]
            .take()
            .expect("double delivery of pooled message");
        self.free.push(slot);
        msg
    }

    /// Number of live (undelivered) messages.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

thread_local! {
    /// Recycled event queue: `crates/exp` sweeps run thousands of cells
    /// per worker thread, and handing the drained heap from one machine
    /// to the next avoids re-growing it every run.
    static QUEUE_SCRATCH: std::cell::RefCell<Option<EventQueue<Ev>>> =
        const { std::cell::RefCell::new(None) };
}

fn take_scratch_queue() -> EventQueue<Ev> {
    QUEUE_SCRATCH
        .with(|s| s.borrow_mut().take())
        .unwrap_or_else(|| EventQueue::with_capacity(1024))
}

fn recycle_queue(mut q: EventQueue<Ev>) {
    q.clear();
    QUEUE_SCRATCH.with(|s| *s.borrow_mut() = Some(q));
}

/// Diagnostic for a core fetch event surviving into the post-completion
/// drain (a wedged or double-scheduled thread): names the core, the
/// drain cycle, and the last operation the core issued, so the report
/// is actionable rather than just "core N".
fn post_drain_fetch_report(core: usize, cycle: u64, last_op: &str) -> String {
    format!(
        "fetch for core {core} after all threads finished \
         (at cycle {cycle}; core {core}'s last issued op was `{last_op}`)"
    )
}

struct Engine {
    cfg: MachineConfig,
    energy_model: EnergyModel,
    mesh: Mesh,
    corners: Vec<NodeId>,
    queue: EventQueue<Ev>,
    /// One resumable thread per simulated core.
    cores: Vec<FutureThread<ThreadOp, ThreadReply>>,
    l1s: Vec<L1Cache>,
    banks: Vec<DirBank>,
    dram: Dram,
    /// Machine-global statistics (network, directory, memory, barriers).
    stats: Stats,
    /// Per-core statistics (each L1's activity), merged into the total at
    /// the end of the run.
    core_stats: Vec<Stats>,
    /// Reply owed to each thread, delivered at its next Fetch.
    pending_reply: Vec<Option<ThreadReply>>,
    /// One-slot deferral buffer for the fused reply→fetch fast path:
    /// the core resume owed to a just-completed operation, held out of
    /// the event queue. If nothing else is scheduled before it, the
    /// event loop dispatches it inline (no wheel push/pop); any other
    /// push flushes it into the queue first, which preserves the exact
    /// FIFO-within-a-cycle order of the unfused engine (see
    /// [`Engine::defer_fetch`]).
    pending_fetch: Option<(u64, usize)>,
    /// False only under [`Machine::disable_reply_fusion`].
    fuse_replies: bool,
    /// Active approximate region d-distance per core.
    approx_d: Vec<Option<u8>>,
    threads: usize,
    finished: Vec<bool>,
    finish_time: Vec<u64>,
    n_finished: usize,
    /// Barrier arrival time per waiting core.
    barrier_wait: Vec<Option<u64>>,
    gi_timeout: Option<u64>,
    trace: Option<Vec<TraceEntry>>,
    /// Cycle at which each directional link is next free, indexed by the
    /// mesh's dense link id. Only used when `model_contention` is on.
    link_free: Vec<u64>,
    /// Name of the last operation each core issued (wedged-thread
    /// diagnostics).
    last_op: Vec<&'static str>,
    /// Arena for in-flight message payloads (see [`MsgPool`]).
    pool: MsgPool,
    /// Side pool of in-flight message block data (see [`DataPool`]).
    data: DataPool,
    /// Reusable outbox for L1 controller calls.
    l1_scratch: Vec<L1Out>,
    /// Reusable outbox for directory controller calls.
    dir_scratch: Vec<Msg>,
    /// Cycle-attribution profiler; `None` unless enabled on the machine.
    prof: Option<Box<Profiler>>,
    /// Fault-injection configuration (all-off by default).
    faults: FaultConfig,
    /// Counter of faultable/corruptible messages seen, indexing the
    /// per-message decision streams.
    msg_n: u64,
    /// Counter of background fault ticks fired.
    fault_tick_n: u64,
    /// Last message delivered, for [`SimAbort`] reports.
    last_delivered: Option<(&'static str, Endpoint, Endpoint, BlockAddr)>,
    /// Core currently inside `FutureThread::resume`, if any. `resume` carries
    /// no unwind guard of its own (a per-poll `catch_unwind` costs real
    /// throughput — see `ghostwriter_sim::resume`), so the event loop
    /// installs one guard per run and uses this to tell a workload
    /// panic (re-labelled with the core id) from an engine bug
    /// (re-raised untouched).
    resuming: Option<usize>,
}

impl Engine {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: MachineConfig,
        energy_model: EnergyModel,
        dram: Dram,
        programs: Vec<Program>,
        profiling: bool,
        fuse_replies: bool,
        faults: FaultConfig,
        injections: Vec<(u64, Msg)>,
    ) -> Self {
        let (w, h) = Mesh::dims_for(cfg.cores);
        let mesh = Mesh::new(w, h, cfg.router_cycles, cfg.link_cycles);
        let corners = mesh.corners();
        let l1_sets = cfg.l1_kb * 1024 / BLOCK_BYTES / cfg.l1_ways;
        let l2_sets = cfg.l2_bank_kb * 1024 / BLOCK_BYTES / cfg.l2_ways;
        let gw = match cfg.protocol {
            Protocol::Mesi => None,
            Protocol::Ghostwriter(g) => Some(GwParams {
                scribe: g.scribe,
                enable_gs: g.enable_gs,
                enable_gi: g.enable_gi,
                gi_stores: g.gi_stores,
                max_hidden_writes: g.max_hidden_writes,
            }),
        };
        let gi_timeout = match cfg.protocol {
            Protocol::Ghostwriter(g) => Some(g.gi_timeout),
            Protocol::Mesi => None,
        };
        let mut l1s: Vec<L1Cache> = (0..cfg.cores)
            .map(|c| {
                L1Cache::new(
                    c,
                    l1_sets,
                    cfg.l1_ways,
                    cfg.cores,
                    cfg.base_protocol,
                    gw,
                    cfg.collect_similarity,
                )
            })
            .collect();
        let mut banks: Vec<DirBank> = (0..cfg.cores)
            .map(|b| DirBank::with_base(b, l2_sets, cfg.l2_ways, corners.len(), cfg.base_protocol))
            .collect();
        if let Some(rec) = faults.recovery {
            for l1 in &mut l1s {
                l1.set_recovery(rec);
            }
            for bank in &mut banks {
                bank.set_recovery(rec);
            }
        }

        let threads = programs.len();
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(tid, f)| FutureThread::new(move |cell| f(ThreadCtx::new(cell, tid))))
            .collect();
        let link_free = vec![0u64; mesh.num_links()];

        let mut eng = Self {
            energy_model,
            mesh,
            corners,
            queue: take_scratch_queue(),
            cores,
            l1s,
            banks,
            dram,
            stats: Stats::default(),
            core_stats: (0..cfg.cores).map(|_| Stats::default()).collect(),
            pending_reply: vec![None; cfg.cores],
            pending_fetch: None,
            fuse_replies,
            approx_d: vec![None; cfg.cores],
            threads,
            finished: vec![false; cfg.cores],
            finish_time: vec![0; cfg.cores],
            n_finished: 0,
            barrier_wait: vec![None; cfg.cores],
            gi_timeout,
            trace: None,
            link_free,
            last_op: vec!["<none>"; cfg.cores],
            pool: MsgPool::default(),
            data: DataPool::default(),
            l1_scratch: Vec::new(),
            dir_scratch: Vec::new(),
            prof: profiling.then(|| Box::new(Profiler::new(cfg.cores))),
            faults,
            msg_n: 0,
            fault_tick_n: 0,
            last_delivered: None,
            resuming: None,
            cfg,
        };
        // Byzantine injections bypass the network model: the message is
        // interned and scheduled for direct delivery at its cycle.
        for (cycle, msg) in injections {
            let slot = eng.pool.alloc(msg.intern(&mut eng.data));
            eng.queue.push(cycle, Ev::Deliver(slot));
        }
        eng
    }

    fn node_of(&self, ep: Endpoint) -> NodeId {
        match ep {
            Endpoint::L1(i) => NodeId(i),
            Endpoint::Dir(b) => NodeId(b),
            Endpoint::Mem(m) => self.corners[m],
        }
    }

    /// Wraps a controller's [`ProtocolError`] into the typed abort,
    /// attaching the cycle and the last delivered message.
    fn abort(&self, error: ProtocolError) -> SimAbort {
        let last_msg = match self.last_delivered {
            Some((name, src, dst, block)) => {
                format!("{name} {src:?} -> {dst:?} ({block:?})")
            }
            None => "<none>".to_string(),
        };
        SimAbort {
            error,
            cycle: self.queue.now(),
            last_msg,
        }
    }

    /// Fault-injection chokepoint: every message leaves through here.
    /// Transport faults (drop/duplicate/delay) apply to the unreliable
    /// request/grant classes; payload corruption to demand and DRAM
    /// fills, flipping a real bit and setting the taint bit. All draws
    /// are counter-based, so a given (seed, rates) schedule is
    /// identical regardless of wall-clock or thread interleaving.
    fn send(&mut self, mut msg: Msg, mut extra_delay: u64) {
        if self.faults.perturbs_messages() {
            // Transport and corruption are independent fault classes: a
            // directory grant (`Data` from Dir) is on BOTH surfaces, so
            // the two draws must not shadow each other. One counter
            // value per faultable message; the decision streams are
            // independent, so skipping the corruption draw of a dropped
            // message never perturbs any other message's draws.
            let droppable = fault::droppable(msg.src, &msg.payload);
            let corruptible = fault::corruptible(msg.src, &msg.payload);
            if droppable || corruptible {
                let n = self.msg_n;
                self.msg_n += 1;
                if droppable {
                    match self.faults.fate(n) {
                        Fate::Deliver => {}
                        Fate::Drop => {
                            self.stats.faults_dropped += 1;
                            return;
                        }
                        Fate::Duplicate => {
                            // The copy is a separate wire event and is
                            // delivered unperturbed; only the original
                            // below can additionally be tainted.
                            self.stats.faults_duplicated += 1;
                            self.send_one(msg.clone(), extra_delay);
                        }
                        Fate::Delay(d) => {
                            self.stats.faults_delayed += 1;
                            extra_delay += d;
                        }
                    }
                }
                if corruptible {
                    if let Some(bit) = self.faults.corrupt_bit(n) {
                        let flipped = match &mut msg.payload {
                            Payload::Data { data, .. } | Payload::MemData { data } => {
                                data.as_bytes_mut()[(bit / 8) as usize] ^= 1 << (bit % 8);
                                true
                            }
                            _ => false,
                        };
                        if flipped {
                            msg.tag.tainted = true;
                            self.stats.faults_corrupted += 1;
                        }
                    }
                }
            }
        }
        self.send_one(msg, extra_delay);
    }

    /// Routes a message: records traffic, computes latency, schedules
    /// delivery `extra_delay` (the sender's access time) later. The
    /// message is interned in the pool; the heap only carries its slot.
    fn send_one(&mut self, msg: Msg, extra_delay: u64) {
        if let Some(p) = self.prof.as_mut() {
            p.begin_span(Phase::Routing);
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                cycle: self.queue.now(),
                src: msg.src,
                dst: msg.dst,
                block: msg.block,
                name: msg.payload.name(),
            });
        }
        let src = self.node_of(msg.src);
        let dst = self.node_of(msg.dst);
        let latency = self
            .stats
            .traffic
            .record(&self.mesh, msg.payload.kind(), src, dst);
        let delay = if self.cfg.model_contention {
            self.contended_latency(msg.payload.kind().flits(), src, dst, extra_delay)
        } else {
            extra_delay + latency
        };
        let slot = self.pool.alloc(msg.intern(&mut self.data));
        self.sched_after(delay, Ev::Deliver(slot));
        if let Some(p) = self.prof.as_mut() {
            p.end_span();
            p.route(delay);
        }
    }

    /// Wormhole-ish contention model: each directional link serializes
    /// one flit per `link_cycles`; a message's head flit queues behind
    /// earlier traffic on every link of its XY route, and delivery
    /// completes when the tail flit arrives.
    fn contended_latency(&mut self, flits: u64, src: NodeId, dst: NodeId, extra: u64) -> u64 {
        let start = self.queue.now() + extra;
        // Injection through the local router.
        let mut head = start + self.cfg.router_cycles;
        for link in self.mesh.route_links(src, dst) {
            let begin = head.max(self.link_free[link]);
            // The link is busy until the tail flit has crossed.
            self.link_free[link] = begin + flits * self.cfg.link_cycles;
            // Head flit reaches the next router and traverses it.
            head = begin + self.cfg.link_cycles + self.cfg.router_cycles;
        }
        // Tail flit trails the head by (flits - 1) link cycles.
        let done = head + (flits - 1) * self.cfg.link_cycles;
        done - self.queue.now()
    }

    /// Defers `Ev::Fetch { core }` at `now + delay` into the one-slot
    /// fusion buffer instead of the event queue.
    ///
    /// Ordering is preserved exactly: every *other* queue push goes
    /// through [`Engine::flush_pending_fetch`] first, so by the time
    /// any event could be pushed after the deferred fetch, the fetch
    /// has already claimed its place in the queue — its seq relative to
    /// all other events is the same as an immediate push would have
    /// produced. The payoff is the common case where nothing else
    /// happens before the fetch: the event loop dispatches it inline
    /// and the wheel is never touched.
    #[inline]
    fn defer_fetch(&mut self, delay: u64, core: usize) {
        if !self.fuse_replies {
            self.queue.push_after(delay, Ev::Fetch { core });
            return;
        }
        self.flush_pending_fetch();
        self.pending_fetch = Some((self.queue.now() + delay, core));
    }

    /// Moves the deferred fetch (if any) into the event queue. Must be
    /// called before any other queue push — see [`Engine::defer_fetch`].
    #[inline]
    fn flush_pending_fetch(&mut self) {
        if let Some((t, core)) = self.pending_fetch.take() {
            self.queue.push(t, Ev::Fetch { core });
        }
    }

    /// Schedules a non-fetch event, flushing the deferred fetch first
    /// so queue order matches the unfused engine.
    #[inline]
    fn sched_after(&mut self, delay: u64, ev: Ev) {
        self.flush_pending_fetch();
        self.queue.push_after(delay, ev);
    }

    /// Drains `outs` (a reusable scratch buffer) into replies and sends.
    fn apply_l1_outs(&mut self, core: usize, outs: &mut Vec<L1Out>) {
        let mut sent = false;
        for out in outs.drain(..) {
            match out {
                L1Out::Reply { value } => {
                    self.pending_reply[core] = Some(value);
                    self.defer_fetch(self.cfg.l1_latency, core);
                }
                L1Out::Send(msg) => {
                    sent = true;
                    self.send(msg, self.cfg.l1_latency);
                }
            }
        }
        if sent {
            self.arm_retry(core);
        }
    }

    /// Arms the recovery timeout for `core`'s outstanding tagged
    /// request, if any: a [`Ev::RetryCheck`] fires after the backoff
    /// deadline and is a no-op unless the same (seq, attempt) is still
    /// pending — completed or already-retried requests make it stale.
    fn arm_retry(&mut self, core: usize) {
        let Some(rec) = self.faults.recovery else {
            return;
        };
        let Some(seq) = self.l1s[core].pending_seq() else {
            return;
        };
        let attempt = self.l1s[core].retries_used();
        let deadline =
            rec.timeout_cycles.max(1) * u64::from(rec.backoff_base.max(1)).pow(attempt.min(16));
        self.sched_after(deadline, Ev::RetryCheck { core, seq, attempt });
    }

    fn run(mut self) -> Result<FinishedRun, SimAbort> {
        // One unwind guard for the WHOLE run (never per poll — see the
        // `resuming` field docs): a panic raised while a core was being
        // resumed is a workload panic and gets re-labelled with the
        // core; anything else is an engine bug and re-raised as-is.
        let looped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.event_loop()));
        match looped {
            Err(payload) => {
                if let Some(core) = self.resuming {
                    panic!(
                        "simulated thread {core} panicked: {}",
                        ghostwriter_sim::panic_message(payload)
                    );
                }
                std::panic::resume_unwind(payload);
            }
            Ok(Err(abort)) => return Err(abort),
            Ok(Ok(())) => {}
        }

        // Per-core summaries, then fold every core's counters into the
        // machine total.
        let per_core: Vec<CoreSummary> = (0..self.threads)
            .map(|c| {
                let s = &self.core_stats[c];
                CoreSummary {
                    ops: s.loads + s.stores + s.scribbles,
                    l1_hits: s.l1_load_hits + s.l1_store_hits,
                    l1_misses: s.l1_misses(),
                    approx_serviced: s.serviced_by_gs
                        + s.gs_hits
                        + s.serviced_by_gi
                        + s.gi_store_hits,
                    finish_cycle: self.finish_time[c],
                }
            })
            .collect();
        for cs in &self.core_stats {
            self.stats.merge_from(cs);
        }
        // Fold NoC traffic into the energy events.
        self.stats.energy_events.router_flits = self.stats.traffic.router_flits();
        self.stats.energy_events.link_flit_hops = self.stats.traffic.flit_hops();

        let cycles = self
            .finish_time
            .iter()
            .take(self.threads)
            .copied()
            .max()
            .unwrap_or(0);
        let report = SimReport::new(
            cycles,
            self.finish_time[..self.threads].to_vec(),
            self.stats,
            &self.energy_model,
        )
        .with_per_core(per_core);
        Ok(FinishedRun {
            report,
            trace: self.trace.take().unwrap_or_default(),
            profile: self.prof.take().map(|p| p.finish()),
            dram: self.dram,
        })
    }

    /// The event loop proper: seeds the initial events, drains the
    /// queue until every thread finishes, then drains in-flight
    /// protocol traffic. Split out of [`Engine::run`] so the run-level
    /// unwind guard wraps exactly the code that can raise a workload
    /// panic.
    fn event_loop(&mut self) -> Result<(), SimAbort> {
        for core in 0..self.threads {
            self.queue.push(0, Ev::Fetch { core });
        }
        if self.faults.ticks() {
            self.queue.push(self.faults.tick_cycles, Ev::FaultTick);
        }
        if let Some(t) = self.gi_timeout {
            for core in 0..self.cfg.cores {
                self.queue.push(t, Ev::GiTick { core });
            }
        }
        if let Some(p) = self.cfg.context_switch_period {
            for core in 0..self.cfg.cores {
                // Stagger switches across cores like an OS tick would.
                self.queue.push(p + core as u64, Ev::ContextSwitch { core });
            }
        }
        // Events of one cycle are popped as a batch and dispatched
        // back-to-back: pushes made while the batch is handled carry
        // larger seq numbers, so this is exactly the pop-at-a-time
        // order without a heap query per event. The clock advance into
        // each batch is charged to the batch's first event when the
        // profiler is on.
        let mut batch: Vec<Ev> = Vec::new();
        while self.n_finished < self.threads {
            // Fused reply→fetch fast path: when the deferred core
            // resume precedes everything queued, dispatch it inline —
            // the wheel is never pushed or popped for the per-op
            // round trip. Otherwise restore it to the queue so strict
            // (time, push-order) dispatch is preserved.
            if let Some((t, core)) = self.pending_fetch {
                if self.queue.peek_time().is_none_or(|qt| qt > t) {
                    self.pending_fetch = None;
                    let delta = t - self.queue.now();
                    self.queue.advance_to(t);
                    self.dispatch(Ev::Fetch { core }, delta)?;
                    continue;
                }
                self.flush_pending_fetch();
            }
            let prev = self.queue.now();
            let Some(time) = self.queue.pop_batch(&mut batch) else {
                panic!(
                    "simulation deadlock: {}/{} threads finished, waiting at barrier: {:?}",
                    self.n_finished,
                    self.threads,
                    self.barrier_wait
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| w.is_some())
                        .map(|(c, _)| c)
                        .collect::<Vec<_>>()
                );
            };
            let mut delta = time - prev;
            for ev in batch.drain(..) {
                self.dispatch(ev, delta)?;
                delta = 0;
            }
        }
        // Drain in-flight writebacks and acknowledgements. A fetch here
        // means every thread finished yet a core still wants to resume —
        // a wedged or double-scheduled thread. A deferred fetch is
        // flushed first so the same diagnostic catches it.
        self.flush_pending_fetch();
        if let Some(p) = self.prof.as_mut() {
            p.begin_drain();
        }
        loop {
            let prev = self.queue.now();
            let Some(time) = self.queue.pop_batch(&mut batch) else {
                break;
            };
            let mut delta = time - prev;
            for ev in batch.drain(..) {
                if let Ev::Fetch { core } = ev {
                    panic!(
                        "{}",
                        post_drain_fetch_report(core, self.queue.now(), self.last_op[core])
                    );
                }
                self.dispatch(ev, delta)?;
                delta = 0;
            }
        }
        for bank in &self.banks {
            assert!(bank.quiescent(), "bank not quiescent after drain");
        }
        self.flush();
        recycle_queue(std::mem::take(&mut self.queue));
        Ok(())
    }

    /// Handles one event. `delta` is the clock advance this event is
    /// responsible for (nonzero only for the first event of a batch);
    /// it is consumed by the profiler and nothing else.
    fn dispatch(&mut self, ev: Ev, delta: u64) -> Result<(), SimAbort> {
        match ev {
            Ev::Fetch { core } => {
                if let Some(p) = self.prof.as_mut() {
                    p.begin_span(Phase::CoreStep);
                }
                self.fetch(core)?;
                if let Some(p) = self.prof.as_mut() {
                    p.end_span();
                    p.event(Phase::CoreStep, Component::Core(core), delta);
                }
            }
            Ev::Deliver(slot) => {
                let msg = self.pool.take(slot).resolve(&mut self.data);
                let (phase, component) = match msg.dst {
                    Endpoint::L1(c) => (Phase::L1Dispatch, Component::Core(c)),
                    Endpoint::Dir(b) => (Phase::DirDispatch, Component::Bank(b)),
                    Endpoint::Mem(_) => (Phase::Memory, Component::Mem),
                };
                if let Some(p) = self.prof.as_mut() {
                    p.begin_span(phase);
                }
                self.deliver(msg)?;
                if let Some(p) = self.prof.as_mut() {
                    p.end_span();
                    p.event(phase, component, delta);
                }
            }
            // Every timer is charged to `QueueChurn`, whether or not it
            // still has work, so a batch one of them leads never loses
            // its clock advance.
            timer @ (Ev::GiTick { .. }
            | Ev::ContextSwitch { .. }
            | Ev::RetryCheck { .. }
            | Ev::FaultTick) => {
                if let Some(p) = self.prof.as_mut() {
                    p.begin_span(Phase::QueueChurn);
                }
                let component = self.fire_timer(timer)?;
                if let Some(p) = self.prof.as_mut() {
                    p.end_span();
                    p.event(Phase::QueueChurn, component, delta);
                }
            }
        }
        Ok(())
    }

    /// Handles a timer event and returns the component it is charged to.
    /// Periodic timers stop once every thread has finished.
    fn fire_timer(&mut self, ev: Ev) -> Result<Component, SimAbort> {
        let live = self.n_finished < self.threads;
        match ev {
            Ev::GiTick { core } => {
                if live {
                    self.l1s[core]
                        .gi_timeout_sweep(&mut self.core_stats[core])
                        .map_err(|e| self.abort(e))?;
                    let t = self.gi_timeout.expect("tick without timeout");
                    self.sched_after(t, Ev::GiTick { core });
                }
                Ok(Component::Core(core))
            }
            Ev::ContextSwitch { core } => {
                if live {
                    let mut outs = std::mem::take(&mut self.l1_scratch);
                    self.l1s[core]
                        .context_switch_forfeit_into(&mut self.core_stats[core], &mut outs)
                        .map_err(|e| self.abort(e))?;
                    self.apply_l1_outs(core, &mut outs);
                    self.l1_scratch = outs;
                    let p = self
                        .cfg
                        .context_switch_period
                        .expect("switch without period");
                    self.sched_after(p, Ev::ContextSwitch { core });
                }
                Ok(Component::Core(core))
            }
            Ev::RetryCheck { core, seq, attempt } => {
                let pending = self.faults.recovery.is_some()
                    && self.l1s[core].pending_seq() == Some(seq)
                    && self.l1s[core].retries_used() == attempt;
                if pending {
                    let mut outs = std::mem::take(&mut self.l1_scratch);
                    let fired = self.l1s[core]
                        .retry_pending_into(&mut self.core_stats[core], &mut outs)
                        .map_err(|e| self.abort(e))?;
                    debug_assert!(fired, "liveness gate implies a pending request");
                    // apply_l1_outs re-arms the check at the next
                    // backoff deadline via the resent request.
                    self.apply_l1_outs(core, &mut outs);
                    self.l1_scratch = outs;
                }
                Ok(Component::Core(core))
            }
            Ev::FaultTick => {
                if live {
                    let tick = self.fault_tick_n;
                    self.fault_tick_n += 1;
                    for core in 0..self.cfg.cores {
                        if let Some((nth, bit)) = self.faults.line_flip(tick, core) {
                            if self.l1s[core].corrupt_resident(nth, bit) {
                                self.stats.faults_line_flips += 1;
                            }
                        }
                        if self.gi_timeout.is_some() && self.faults.gi_storm(tick, core) {
                            self.stats.gi_storms += 1;
                            self.l1s[core]
                                .gi_timeout_sweep(&mut self.core_stats[core])
                                .map_err(|e| self.abort(e))?;
                        }
                    }
                    self.sched_after(self.faults.tick_cycles, Ev::FaultTick);
                }
                Ok(Component::Machine)
            }
            Ev::Fetch { .. } | Ev::Deliver(_) => unreachable!("not a timer event"),
        }
    }

    /// Steps thread `core`: feed it the owed reply, pull and dispatch
    /// its next operation — one plain function call on the default
    /// engine.
    fn fetch(&mut self, core: usize) -> Result<(), SimAbort> {
        let reply = self.pending_reply[core].take();
        let now = self.queue.now();
        // Two plain stores bracketing the resume tell the run-level
        // unwind guard which core a workload panic belongs to.
        self.resuming = Some(core);
        let step = self.cores[core].resume(reply);
        self.resuming = None;
        let op = match step {
            Step::Op(op) => op,
            Step::Done => {
                self.finished[core] = true;
                self.finish_time[core] = now;
                self.n_finished += 1;
                // A thread exiting may complete a barrier episode.
                self.try_release_barrier();
                return Ok(());
            }
        };
        self.last_op[core] = op.name();
        match op {
            ThreadOp::Access {
                addr,
                size,
                kind,
                value,
            } => {
                let kind = match kind {
                    OpKind::Load => AccessKind::Load,
                    OpKind::Store => AccessKind::Store,
                    OpKind::Scribble => match (self.gi_timeout.is_some(), self.approx_d[core]) {
                        // Scribbles are real only under Ghostwriter inside
                        // an approximate region, and only when the
                        // d-distance is legal for the access width: the
                        // paper's compiler rejects e.g. 8-distance on
                        // byte data, which would admit any value (§3.1).
                        (true, Some(d)) if (d as u32) < 8 * size as u32 => {
                            AccessKind::Scribble { d }
                        }
                        _ => AccessKind::Store,
                    },
                };
                let req = CoreReq {
                    addr: Addr(addr),
                    size,
                    value,
                    kind,
                };
                let mut outs = std::mem::take(&mut self.l1_scratch);
                self.l1s[core]
                    .access_into(req, &mut self.core_stats[core], &mut outs)
                    .map_err(|e| self.abort(e))?;
                self.apply_l1_outs(core, &mut outs);
                self.l1_scratch = outs;
            }
            ThreadOp::Work(cycles) => {
                self.stats.work_cycles += cycles;
                self.pending_reply[core] = Some(0);
                self.defer_fetch(cycles.max(1), core);
            }
            ThreadOp::Barrier => {
                self.barrier_wait[core] = Some(now);
                self.try_release_barrier();
            }
            ThreadOp::ApproxBegin { d } => {
                self.approx_d[core] = Some(d);
                self.pending_reply[core] = Some(0);
                self.defer_fetch(1, core);
            }
            ThreadOp::ApproxEnd => {
                self.approx_d[core] = None;
                self.pending_reply[core] = Some(0);
                self.defer_fetch(1, core);
            }
        }
        Ok(())
    }

    /// Releases the barrier when every live thread has arrived. Two
    /// plain scans over the per-core arrays — this runs on every thread
    /// exit and barrier arrival, and used to collect the live set into
    /// a fresh `Vec` each time.
    fn try_release_barrier(&mut self) {
        let mut any_live = false;
        let mut arrive_max = 0;
        for c in 0..self.threads {
            if self.finished[c] {
                continue;
            }
            match self.barrier_wait[c] {
                Some(t) => {
                    any_live = true;
                    arrive_max = arrive_max.max(t);
                }
                None => return,
            }
        }
        if !any_live {
            return;
        }
        let release = arrive_max + self.cfg.barrier_cost;
        self.stats.barriers += 1;
        // Multiple cores resume at once: the one-slot fusion buffer
        // cannot hold them all, so these go through the queue.
        self.flush_pending_fetch();
        for c in 0..self.threads {
            if self.finished[c] {
                continue;
            }
            self.barrier_wait[c] = None;
            self.pending_reply[c] = Some(0);
            self.queue
                .push(release.max(self.queue.now()), Ev::Fetch { core: c });
        }
    }

    fn deliver(&mut self, msg: Msg) -> Result<(), SimAbort> {
        self.last_delivered = Some((msg.payload.name(), msg.src, msg.dst, msg.block));
        match msg.dst {
            Endpoint::L1(core) => {
                let mut outs = std::mem::take(&mut self.l1_scratch);
                self.l1s[core]
                    .handle_msg_into(msg, &mut self.core_stats[core], &mut outs)
                    .map_err(|e| self.abort(e))?;
                self.apply_l1_outs(core, &mut outs);
                self.l1_scratch = outs;
            }
            Endpoint::Dir(bank) => {
                let mut outs = std::mem::take(&mut self.dir_scratch);
                self.banks[bank]
                    .handle_msg_into(msg, &mut self.stats, &mut outs)
                    .map_err(|e| self.abort(e))?;
                for m in outs.drain(..) {
                    self.send(m, self.cfg.l2_latency);
                }
                self.dir_scratch = outs;
            }
            Endpoint::Mem(mc) => match msg.payload {
                Payload::MemRead => {
                    self.stats.dram_reads += 1;
                    self.stats.energy_events.dram_reads += 1;
                    let data = self.dram.read_block(msg.block);
                    self.send(
                        Msg {
                            src: Endpoint::Mem(mc),
                            dst: msg.src,
                            block: msg.block,
                            payload: Payload::MemData { data },
                            tag: WireTag::seq(msg.tag.seq),
                        },
                        self.cfg.dram_latency,
                    );
                }
                Payload::MemWrite { data } => {
                    self.stats.dram_writes += 1;
                    self.stats.energy_events.dram_writes += 1;
                    self.dram.write_block(msg.block, data);
                }
                ref p => panic!("memory controller got {}", p.name()),
            },
        }
        Ok(())
    }

    /// End-of-run functional flush (DESIGN.md §2): owned L1 lines are
    /// pushed down into the L2/DRAM; GS/GI contents are forfeited, exactly
    /// as invalidation/timeout would forfeit them. Produces the memory
    /// image a joining main thread would observe with coherent loads.
    fn flush(&mut self) {
        let mut deferred: VecDeque<(BlockAddr, ghostwriter_mem::BlockData)> = VecDeque::new();
        for l1 in &mut self.l1s {
            for (block, data) in l1.drain_owned() {
                deferred.push_back((block, data));
            }
        }
        for (block, data) in deferred {
            let bank = crate::l1::home_bank(block, self.banks.len());
            if self.banks[bank].peek_block(block).is_some() {
                self.banks[bank].flush_write(block, data);
            } else {
                self.dram.write_block(block, data);
            }
        }
        for bank in &mut self.banks {
            for (block, data) in bank.drain_dirty() {
                self.dram.write_block(block, data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};

    fn small(protocol: Protocol) -> Machine {
        Machine::new(MachineConfig::small(4, protocol))
    }

    #[test]
    fn single_thread_store_load_round_trip() {
        let mut m = small(Protocol::Mesi);
        let a = m.alloc_padded(64);
        m.add_thread(move |ctx| async move {
            ctx.store_u32(a, 0xDEAD_BEEF).await;
            let v = ctx.load_u32(a).await;
            assert_eq!(v, 0xDEAD_BEEF);
        });
        let run = m.run();
        assert_eq!(run.read_u32(a), 0xDEAD_BEEF);
        assert!(run.report.cycles > 0);
        assert_eq!(run.report.stats.loads, 1);
        assert_eq!(run.report.stats.stores, 1);
    }

    #[test]
    fn inputs_visible_through_caches() {
        let mut m = small(Protocol::Mesi);
        let a = m.alloc_padded(4 * 16);
        m.backdoor_write_i32s(a, &(0..16).collect::<Vec<i32>>());
        m.add_thread(move |ctx| async move {
            let mut sum = 0i64;
            for i in 0..16u64 {
                sum += ctx.load_i32(a.add(4 * i)).await as i64;
            }
            ctx.store_i64(a.add(64), sum).await;
        });
        let run = m.run();
        assert_eq!(run.read_i64(a.add(64)), 120);
    }

    #[test]
    fn two_threads_see_coherent_data_under_mesi() {
        let mut m = small(Protocol::Mesi);
        let flag = m.alloc_padded(64);
        let data = m.alloc_padded(64);
        // Producer writes data then flag; consumer spins on flag, reads
        // data. Under MESI this must always observe the new value.
        m.add_thread(move |ctx| async move {
            ctx.store_u64(data, 42).await;
            ctx.store_u32(flag, 1).await;
        });
        m.add_thread(move |ctx| async move {
            while ctx.load_u32(flag).await == 0 {
                ctx.work(10).await;
            }
            let v = ctx.load_u64(data).await;
            assert_eq!(v, 42);
            ctx.store_u64(data.add(8), v + 1).await;
        });
        let run = m.run();
        assert_eq!(run.read_u64(data.add(8)), 43);
    }

    #[test]
    fn barrier_synchronizes_all_threads() {
        let mut m = small(Protocol::Mesi);
        let out = m.alloc_padded(64 * 4);
        for t in 0..4usize {
            m.add_thread(move |ctx| async move {
                let slot = out.add(64 * t as u64);
                ctx.store_u32(slot, (t + 1) as u32).await;
                ctx.barrier().await;
                // After the barrier every thread's write is visible.
                let mut sum = 0;
                for s in 0..4u64 {
                    sum += ctx.load_u32(out.add(64 * s)).await;
                }
                ctx.store_u32(slot.add(16), sum).await;
            });
        }
        let run = m.run();
        for t in 0..4u64 {
            assert_eq!(run.read_u32(out.add(64 * t + 16)), 10);
        }
        assert_eq!(run.report.stats.barriers, 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut m = small(Protocol::ghostwriter());
            let shared = m.alloc_padded(64);
            for t in 0..4usize {
                m.add_thread(move |ctx| async move {
                    ctx.approx_begin(4).await;
                    for i in 0..50u32 {
                        let a = shared.add(4 * t as u64);
                        let v = ctx.load_u32(a).await;
                        ctx.scribble_u32(a, v.wrapping_add(i % 3)).await;
                    }
                    ctx.approx_end().await;
                });
            }
            let r = m.run();
            (
                r.report.cycles,
                r.report.stats.traffic.total(),
                r.report.stats.serviced_by_gs,
                r.report.stats.serviced_by_gi,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fused_reply_fetch_matches_unfused_engine() {
        // The fusion fast path is pure mechanics: with it disabled,
        // every core resume rides the event queue as before, and the
        // run must be byte-identical — cycles, per-core finish times,
        // and the full stats JSON.
        let run = |fused: bool| {
            let mut m = small(Protocol::ghostwriter());
            if !fused {
                m.disable_reply_fusion();
            }
            let shared = m.alloc_padded(64 * 4);
            for t in 0..4usize {
                m.add_thread(move |ctx| async move {
                    ctx.approx_begin(4).await;
                    for i in 0..60u32 {
                        let a = shared.add(4 * t as u64);
                        let v = ctx.load_u32(a).await;
                        ctx.scribble_u32(a, v.wrapping_add(i % 5)).await;
                        if i % 16 == 7 {
                            ctx.work(3).await;
                        }
                        // Cross-core sharing keeps invalidations and
                        // forwarded data in flight around the fetches.
                        let b = shared.add(64 * ((t as u64 + 1) % 4));
                        let w = ctx.load_u32(b).await;
                        ctx.store_u32(b, w ^ i).await;
                    }
                    ctx.barrier().await;
                    ctx.approx_end().await;
                });
            }
            let r = m.run();
            (
                r.report.cycles,
                r.report.core_finish.clone(),
                r.report.stats.to_json().to_pretty(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "simulated thread 0 panicked")]
    fn workload_panic_propagates() {
        let mut m = small(Protocol::Mesi);
        let a = m.alloc_padded(64);
        m.add_thread(move |ctx| async move {
            ctx.store_u32(a, 1).await;
            panic!("intentional");
        });
        m.run();
    }

    #[test]
    fn work_advances_time() {
        let mut m = small(Protocol::Mesi);
        let a = m.alloc_padded(64);
        m.add_thread(move |ctx| async move {
            ctx.work(10_000).await;
            ctx.store_u32(a, 1).await;
        });
        let run = m.run();
        assert!(run.report.cycles >= 10_000);
        assert_eq!(run.report.stats.work_cycles, 10_000);
    }

    #[test]
    fn msi_base_protocol_costs_upgrades_on_private_data() {
        use crate::config::BaseProtocol;
        let run = |base| {
            let mut cfg = MachineConfig::small(2, Protocol::Mesi);
            cfg.base_protocol = base;
            let mut m = Machine::new(cfg);
            let a = m.alloc_padded(64);
            m.add_thread(move |ctx| async move {
                // Load-then-store on private data: free under MESI
                // (E -> silent M), an UPGRADE under MSI.
                let v = ctx.load_u32(a).await;
                ctx.store_u32(a, v + 1).await;
            });
            let r = m.run();
            (r.report.stats.traffic.total(), r.read_u32(a))
        };
        let (mesi_msgs, mesi_v) = run(BaseProtocol::Mesi);
        let (msi_msgs, msi_v) = run(BaseProtocol::Msi);
        assert_eq!(mesi_v, 1);
        assert_eq!(msi_v, 1);
        assert!(
            msi_msgs > mesi_msgs,
            "MSI should pay for the upgrade: {msi_msgs} vs {mesi_msgs}"
        );
    }

    #[test]
    fn ghostwriter_layers_onto_msi() {
        use crate::config::BaseProtocol;
        // The paper's generality claim (§3.2): the approximate states
        // work on other invalidate protocols. Shared scribbles must be
        // serviced by GS on an MSI base too.
        let mut cfg = MachineConfig::small(2, Protocol::ghostwriter());
        cfg.base_protocol = BaseProtocol::Msi;
        let mut m = Machine::new(cfg);
        let a = m.alloc_padded(64);
        for t in 0..2u64 {
            m.add_thread(move |ctx| async move {
                ctx.approx_begin(4).await;
                let slot = a.add(4 * t);
                for i in 0..50u32 {
                    let v = ctx.load_u32(slot).await;
                    ctx.scribble_u32(slot, v + (i & 1)).await;
                }
                ctx.approx_end().await;
            });
        }
        let r = m.run();
        assert!(
            r.report.stats.serviced_by_gs > 0,
            "GS must engage on the MSI base"
        );
    }

    #[test]
    fn threads_know_their_ids() {
        let mut m = small(Protocol::Mesi);
        let out = m.alloc_padded(64 * 4);
        for _ in 0..4 {
            m.add_thread(move |ctx| async move {
                let slot = out.add(64 * ctx.tid() as u64);
                ctx.store_u32(slot, ctx.tid() as u32 + 1).await;
            });
        }
        let run = m.run();
        for t in 0..4u64 {
            assert_eq!(run.read_u32(out.add(64 * t)), t as u32 + 1);
        }
    }

    #[test]
    fn post_drain_fetch_report_names_core_cycle_and_op() {
        let msg = post_drain_fetch_report(3, 1234, "barrier");
        assert!(msg.contains("core 3"), "{msg}");
        assert!(msg.contains("cycle 1234"), "{msg}");
        assert!(msg.contains("`barrier`"), "{msg}");
        assert!(msg.contains("after all threads finished"), "{msg}");
    }

    #[test]
    fn mesi_and_demoted_scribbles_are_identical() {
        // Scribbles outside an approximate region are plain stores, so a
        // Ghostwriter run without approx_begin must match MESI exactly.
        let build = |protocol| {
            let mut m = small(protocol);
            let a = m.alloc_padded(256);
            for t in 0..4usize {
                m.add_thread(move |ctx| async move {
                    for i in 0..40u64 {
                        let addr = a.add(4 * t as u64 + 16 * (i % 4));
                        let v = ctx.load_u32(addr).await;
                        ctx.scribble_u32(addr, v + 1).await;
                    }
                });
            }
            let r = m.run();
            (r.report.cycles, r.report.stats.traffic.total())
        };
        assert_eq!(build(Protocol::Mesi), build(Protocol::ghostwriter()));
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};

    fn hot_spot_run(model_contention: bool) -> (u64, u64) {
        // Many cores hammer blocks homed at one bank: the links into
        // that tile congest.
        let mut m = Machine::new(MachineConfig {
            cores: 8,
            model_contention,
            protocol: Protocol::Mesi,
            ..MachineConfig::default()
        });
        let shared = m.alloc_padded(64);
        for t in 0..8u64 {
            m.add_thread(move |ctx| async move {
                let slot = shared.add(4 * t);
                for i in 0..50u32 {
                    let v = ctx.load_u32(slot).await;
                    ctx.store_u32(slot, v + i).await;
                }
            });
        }
        let r = m.run();
        (r.report.cycles, r.report.stats.traffic.total())
    }

    #[test]
    fn contention_slows_hot_spots_without_changing_traffic() {
        let (free_cycles, free_msgs) = hot_spot_run(false);
        let (cont_cycles, cont_msgs) = hot_spot_run(true);
        assert_eq!(
            free_msgs, cont_msgs,
            "contention must not change message counts"
        );
        assert!(
            cont_cycles > free_cycles,
            "congested run should be slower: {cont_cycles} vs {free_cycles}"
        );
    }

    #[test]
    fn contention_model_is_deterministic() {
        assert_eq!(hot_spot_run(true), hot_spot_run(true));
    }

    #[test]
    fn uncontended_single_core_pays_only_tail_serialization() {
        // One core, sequential misses: no queueing. The contention model
        // still charges data messages their tail-flit serialization
        // ((flits-1) x link_cycles per message) but nothing else, so the
        // gap stays within that bound.
        let run = |model_contention| {
            let mut m = Machine::new(MachineConfig {
                cores: 1,
                model_contention,
                protocol: Protocol::Mesi,
                ..MachineConfig::default()
            });
            let a = m.alloc_padded(64 * 16);
            m.add_thread(move |ctx| async move {
                for b in 0..16u64 {
                    ctx.store_u32(a.add(64 * b), b as u32).await;
                }
            });
            let r = m.run();
            (r.report.cycles, r.report.stats.traffic.total())
        };
        let (free_cycles, free_msgs) = run(false);
        let (cont_cycles, cont_msgs) = run(true);
        assert_eq!(free_msgs, cont_msgs);
        assert!(cont_cycles >= free_cycles);
        // At most (DATA_FLITS - 1) extra cycles per message.
        assert!(cont_cycles - free_cycles <= 4 * free_msgs);
    }
}

#[cfg(test)]
mod per_core_tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};

    #[test]
    fn per_core_summaries_sum_to_totals() {
        let mut m = Machine::new(MachineConfig::small(4, Protocol::ghostwriter()));
        let shared = m.alloc_padded(64);
        for t in 0..4usize {
            m.add_thread(move |ctx| async move {
                ctx.approx_begin(4).await;
                let slot = shared.add(4 * t as u64);
                // Deliberately unbalanced: core t does (t+1)*30 updates.
                for i in 0..(t as u32 + 1) * 30 {
                    let v = ctx.load_u32(slot).await;
                    ctx.scribble_u32(slot, v + (i & 1)).await;
                }
                ctx.approx_end().await;
            });
        }
        let run = m.run();
        let s = &run.report.stats;
        assert_eq!(run.report.per_core.len(), 4);
        let ops: u64 = run.report.per_core.iter().map(|c| c.ops).sum();
        assert_eq!(ops, s.loads + s.stores + s.scribbles);
        let hits: u64 = run.report.per_core.iter().map(|c| c.l1_hits).sum();
        assert_eq!(hits, s.l1_load_hits + s.l1_store_hits);
        let misses: u64 = run.report.per_core.iter().map(|c| c.l1_misses).sum();
        assert_eq!(misses, s.l1_misses());
        // The imbalance is visible: core 3 issued 4x core 0's ops.
        assert!(run.report.per_core[3].ops > run.report.per_core[0].ops * 3);
        assert!(run.report.imbalance() > 1.0);
        // Finish cycles in the summary match the report's.
        for (c, summary) in run.report.per_core.iter().enumerate() {
            assert_eq!(summary.finish_cycle, run.report.core_finish[c]);
        }
    }
}

#[cfg(test)]
mod context_switch_tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};

    fn run_with_switches(period: Option<u64>) -> (u64, u64, u32) {
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            protocol: Protocol::ghostwriter(),
            context_switch_period: period,
            ..MachineConfig::default()
        });
        let block = m.alloc_padded(64);
        let probe = m.alloc_padded(64);
        m.add_thread(move |ctx| async move {
            ctx.store_u32(block, 1).await;
            ctx.barrier().await;
            ctx.barrier().await;
        });
        m.add_thread(move |ctx| async move {
            ctx.barrier().await;
            // Enter GS, then idle long enough for a context switch.
            let v = ctx.load_u32(block.add(4)).await;
            ctx.approx_begin(4).await;
            ctx.scribble_u32(block.add(4), v + 3).await;
            ctx.work(5_000).await;
            // Re-read after the (potential) switch.
            let after = ctx.load_u32(block.add(4)).await;
            ctx.store_u32(probe, after).await;
            ctx.approx_end().await;
            ctx.barrier().await;
        });
        let run = m.run();
        (
            run.read_u32(probe) as u64,
            run.report.stats.approx_evictions,
            run.report.stats.serviced_by_gs as u32,
        )
    }

    #[test]
    fn context_switch_forfeits_hidden_updates() {
        // Without switches the hidden value survives locally...
        let (seen_pinned, forfeits_pinned, gs_pinned) = run_with_switches(None);
        assert_eq!(gs_pinned, 1);
        assert_eq!(forfeits_pinned, 0);
        assert_eq!(seen_pinned, 3, "pinned thread keeps its GS value");
        // ...with a 1000-cycle switch period the GS block is forfeited
        // during the idle phase and the re-read refetches the coherent
        // (pre-scribble) value.
        let (seen_sw, forfeits_sw, gs_sw) = run_with_switches(Some(1_000));
        assert_eq!(gs_sw, 1);
        assert!(forfeits_sw >= 1, "switch must forfeit the GS block");
        assert_eq!(seen_sw, 0, "post-switch read sees the coherent value");
    }

    /// A small sharing workload used by the profiler tests: four threads
    /// scribbling adjacent slots of one block under Ghostwriter, with a
    /// closing barrier — exercises fetches, L1/dir dispatch, memory,
    /// GI ticks and routing.
    fn profiler_workload() -> Machine {
        let mut m = Machine::new(MachineConfig::small(4, Protocol::ghostwriter()));
        let shared = m.alloc_padded(64);
        for t in 0..4usize {
            m.add_thread(move |ctx| async move {
                ctx.approx_begin(4).await;
                let slot = shared.add(4 * t as u64);
                for i in 0..50u32 {
                    let v = ctx.load_u32(slot).await;
                    ctx.scribble_u32(slot, v + (i & 1)).await;
                }
                ctx.approx_end().await;
                ctx.barrier().await;
            });
        }
        m
    }

    #[test]
    fn profiler_observes_without_perturbing_and_reconciles_exactly() {
        // Fault-free, then with drops, retries and fault ticks: the
        // recovery timers must be charged like every other event.
        let faulty = FaultConfig {
            seed: 7,
            drop_permille: 200,
            tick_cycles: 64,
            gi_storm_permille: 100,
            recovery: Some(fault::RecoveryParams::default()),
            ..FaultConfig::default()
        };
        for faults in [FaultConfig::default(), faulty] {
            let mut m = profiler_workload();
            m.set_faults(faults);
            let off = m.run();
            assert!(off.profile.is_none(), "profiling is opt-in");

            let mut m = profiler_workload();
            m.set_faults(faults);
            m.enable_profiling();
            let on = m.run();

            // Identical simulation: same cycle count, byte-identical stats.
            assert_eq!(off.report.cycles, on.report.cycles);
            assert_eq!(
                off.report.stats.to_json().to_pretty(),
                on.report.stats.to_json().to_pretty(),
                "profiling must not change any statistic"
            );

            // Exact attribution: per-phase cycles sum to the machine's
            // cycle count, and per-component cycles agree with the
            // phase totals.
            let p = on.profile.expect("profiling was enabled");
            assert_eq!(p.attributed_cycles(), on.report.cycles, "{faults:?}");
            let component_total = p.core_cycles.iter().sum::<u64>()
                + p.bank_cycles.iter().sum::<u64>()
                + p.mem_cycles
                + p.machine_cycles;
            assert_eq!(component_total, on.report.cycles, "{faults:?}");
            assert!(
                p.phases[Phase::Routing as usize].events > 0,
                "the workload routes messages"
            );
            if !faults.is_noop() {
                let s = &on.report.stats;
                assert!(s.retries > 0 && s.gi_storms > 0, "retry and tick paths run");
            }
        }
    }

    mod msg_pool_fuzz {
        use super::*;
        use proptest::prelude::*;

        fn tagged_msg(tag: u64, with_data: bool) -> Msg {
            let payload = if with_data {
                let mut data = ghostwriter_mem::BlockData::zeroed();
                data.write_word(0, 8, tag);
                Payload::PutM { data }
            } else {
                Payload::Gets
            };
            Msg {
                src: Endpoint::L1(0),
                dst: Endpoint::Dir(0),
                block: BlockAddr(tag),
                payload,
                tag: WireTag::default(),
            }
        }

        proptest! {
            /// Random alloc/deliver interleavings over a mix of control
            /// and data-carrying messages: every take returns the
            /// message its slot was allocated with (data intact), the
            /// in-flight counts track the model exactly, freed slots
            /// are recycled (neither arena outgrows its peak live
            /// count), and — the payload-split invariant — control
            /// messages allocate zero data slots: the data pool's size
            /// is bounded by the peak in-flight *data-carrying* count
            /// alone.
            #[test]
            fn slot_recycling_round_trips(ops in proptest::collection::vec(any::<u64>(), 1..256)) {
                let mut pool = MsgPool::default();
                let mut data_pool = DataPool::default();
                let mut live: Vec<(u32, u64, bool)> = Vec::new();
                let mut peak = 0usize;
                let mut data_peak = 0usize;
                for (i, op) in ops.into_iter().enumerate() {
                    // Low bit picks alloc vs deliver; second bit picks
                    // control vs data; the rest picks the in-flight
                    // message to deliver.
                    let (deliver, with_data, pick) = (op & 1 == 1, op & 2 == 2, op >> 2);
                    if deliver && !live.is_empty() {
                        let (slot, tag, had_data) = live.swap_remove(pick as usize % live.len());
                        let msg = pool.take(slot).resolve(&mut data_pool);
                        prop_assert_eq!(msg.block, BlockAddr(tag));
                        if had_data {
                            let Payload::PutM { data } = msg.payload else {
                                return Err(TestCaseError::fail("data variant lost"));
                            };
                            prop_assert_eq!(data.read_word(0, 8), tag);
                        }
                    } else {
                        let tag = i as u64;
                        let before = data_pool.in_flight();
                        let slot = pool.alloc(tagged_msg(tag, with_data).intern(&mut data_pool));
                        let allocated = data_pool.in_flight() - before;
                        prop_assert_eq!(allocated, usize::from(with_data),
                            "control messages must allocate zero data slots");
                        live.push((slot, tag, with_data));
                        peak = peak.max(live.len());
                        data_peak = data_peak.max(data_pool.in_flight());
                    }
                    prop_assert_eq!(pool.in_flight(), live.len());
                    prop_assert_eq!(
                        data_pool.in_flight(),
                        live.iter().filter(|&&(_, _, d)| d).count()
                    );
                }
                prop_assert!(pool.slots.len() <= peak, "arena grew past peak {} > {}", pool.slots.len(), peak);
                prop_assert!(data_pool.capacity() <= data_peak.max(1),
                    "data pool grew past peak in-flight data messages: {} > {}",
                    data_pool.capacity(), data_peak);
            }
        }
    }
}
