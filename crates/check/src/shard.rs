//! The checker's one search engine, and the cached sweep built on it.
//!
//! A [`Space`] is one step function — [`Space::enabled`] and
//! [`Space::apply`] over the real controllers — plus per-core,
//! per-program-counter *issue choices*: the steps core `c` may issue as
//! its `pc`-th operation. Two search strategies differ only in that
//! data:
//!
//! * **Unified** ([`Space::new`], the sweep `gwcheck` runs): every slot
//!   holds the whole alphabet, so [`Action::Issue`] picks any step at
//!   issue time (budgeted to `ops` steps per core). A search state is
//!   `(System fingerprint, per-core remaining budget)`, and the visited
//!   set collapses the cross-program prefix sharing into one
//!   deduplicated graph.
//! * **Per program** ([`Space::program`], driven by [`crate::sweep`]):
//!   slot `pc` of core `c` holds `program[c][pc]` alone, so one search
//!   covers the interleavings of one fixed access program, and
//!   `sweep` enumerates all |alphabet|^(cores·ops) programs around it —
//!   at 3 cores / 2 blocks that is 262 144 MESI searches which mostly
//!   re-explore each other's prefixes.
//!
//! The union of behaviors is identical — every (program, interleaving)
//! path of the per-program sweep is a path of the unified space and vice
//! versa (asserted row-for-row by the differential tests in
//! `tests/sweeps.rs`) — but the unified state count is orders of
//! magnitude smaller.
//!
//! Both strategies run the same search ([`Space::check`]): one
//! depth-first pass from the initial state over one
//! [`VisitedSet`](crate::visited::VisitedSet), stopping at the first
//! failure, which is then shrunk. The DFS order is fixed by
//! [`Space::enabled`], so the counts, the coverage vector and the
//! counterexample are exact and deterministic.
//!
//! A sweep ([`run_sweep`], [`run_sweeps`]) caches each finished search
//! whole, content-addressed by [`SweepSpec::key`] in the
//! [`ghostwriter_exp::cache::ResultCache`], so re-running a sweep after
//! an unrelated change is a warm no-op (`--expect-cached`). The cached
//! record holds the failing traces, never the failure itself: replay
//! rebuilds it, on the same path for cold and warm runs. Parallelism is
//! across sweep cells ([`ShardOptions::jobs`] cells at once on
//! [`ghostwriter_exp::pool::map_parallel`]); nothing in a cell observes
//! scheduling, so `--jobs 1` ≡ `--jobs N` and cold ≡ warm (the
//! `parallel_determinism` suite asserts both).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ghostwriter_core::harness::{System, SystemConfig, Violation};
use ghostwriter_core::msg::{Msg, Payload, PayloadCtl, WireTag};
use ghostwriter_core::{Coverage, Json};
use ghostwriter_exp::cache::{CacheRecord, Miss, ResultCache};
use ghostwriter_exp::pool::map_parallel;
use ghostwriter_exp::Fingerprint;
use ghostwriter_sim::panic_message;

use crate::trace::{decode_trace, encode_trace};
use crate::visited::{state_key, VisitedSet};
use crate::{
    check_config, forks, recovery_for_budget, step_alphabet, Action, Budgets, Counterexample,
    Failure, Mutation, Program, ProtocolKind, Step,
};

/// Bumped whenever the unified search's semantics or its cached record
/// change (alphabet, invariants, bounds, record format): part of every
/// sweep cache key, so stale caches from an older checker can never
/// satisfy a newer sweep.
///
/// Revision 3: the harness virtual network became a dense channel grid,
/// which changed state hashing (empty channels now hash canonically
/// instead of by insertion history).
///
/// Revision 4: a sweep is one search over one visited set, cached whole
/// under its spec key; the per-shard records (and their counts, which
/// double-counted states sibling shards shared) are gone.
///
/// Deliberately NOT bumped for the payload/data split, the one-pass
/// state hasher or the flat in-flight list that replaced the channel
/// grid: sweep cache keys are built from these textual fields, never
/// from `System::fingerprint` (see [`SweepSpec::key`]), so the
/// in-process fingerprint is free to change its bits as long as it
/// still partitions logical states exactly as before. All three hash
/// the same logical content (each queued message's logical form and
/// channel, never its pool slot; unordered tables in block order). The
/// partition is pinned by the `sweep_golden` test's state and
/// transition counts, slot independence by
/// `fingerprint_independent_of_data_slot_assignment` in the core
/// harness, and the value by `check_revision_pinned` below.
pub const CHECK_REVISION: u64 = 4;

/// States a breadth-first shrink may visit before it gives up and the
/// chunked-deletion result stands. The queue holds whole systems, so
/// this stays far below the search's own cap.
const SHRINK_MAX_STATES: usize = 1_000_000;

/// One sweep cell of the checker: everything that identifies the
/// searched space (and therefore the cache key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    pub kind: ProtocolKind,
    pub cores: usize,
    pub blocks: usize,
    /// Program steps per core (the per-core issue budget).
    pub ops: usize,
    /// Interleave GI-timeout sweeps (Ghostwriter only).
    pub gi_timeouts: bool,
    pub mutation: Option<Mutation>,
    /// Single-way L1: forces evictions/recalls into the explored space
    /// (the default geometry holds the whole pool, so eviction rows
    /// would otherwise be unreachable).
    pub tight_l1: bool,
    /// Bounded-fault mode: up to this many message faults (drop,
    /// duplicate, corrupt) become explicit schedule actions and the
    /// recovery rows are enabled, so the sweep proves every ≤k-fault
    /// interleaving still completes. `0` (the default) leaves the
    /// space — and every existing cache key — untouched.
    pub fault_budget: usize,
}

impl SweepSpec {
    pub fn new(kind: ProtocolKind, cores: usize, blocks: usize, ops: usize) -> Self {
        Self {
            kind,
            cores,
            blocks,
            ops,
            gi_timeouts: false,
            mutation: None,
            tight_l1: false,
            fault_budget: 0,
        }
    }

    /// The system shape this spec checks.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = check_config(self.kind, self.cores, self.blocks);
        if self.tight_l1 {
            cfg.l1_ways = 1;
        }
        if let Some(Mutation::DeleteRow(name)) = self.mutation {
            cfg.disabled_row = Some(name);
        }
        if self.fault_budget > 0 {
            cfg.recovery = Some(recovery_for_budget(self.fault_budget));
        }
        cfg
    }

    /// The issue-step alphabet.
    pub fn alphabet(&self) -> Vec<Step> {
        step_alphabet(self.kind, self.cores, self.blocks)
    }

    /// Canonical cache-key string. Built from textual spec fields only
    /// — never from `System::fingerprint`, an in-process hash whose bits
    /// may change with any change to the hashed layout or the hasher
    /// (fine for a visited set, fatal for an on-disk cache). So a new
    /// hasher needs no `CHECK_REVISION` bump, only an unchanged state
    /// partition.
    pub fn key(&self) -> String {
        let mut key = format!(
            "check-rev={CHECK_REVISION}|{}|{}c|{}b|ops={}|gi={}|tight={}|mut={}",
            self.kind.token(),
            self.cores,
            self.blocks,
            self.ops,
            self.gi_timeouts as u8,
            self.tight_l1 as u8,
            self.mutation.map_or("none".into(), |m| m.token()),
        );
        // Appended only in bounded-fault mode, so every fault-free key
        // (and its on-disk cache) is byte-identical to before the
        // fault dimension existed.
        if self.fault_budget > 0 {
            key.push_str(&format!("|faults={}", self.fault_budget));
        }
        key
    }

    /// Human-readable cell label for CLI output.
    pub fn label(&self) -> String {
        format!(
            "{:?} {}c/{}b ops={}{}{}{}",
            self.kind,
            self.cores,
            self.blocks,
            self.ops,
            if self.gi_timeouts {
                " +gi-timeouts"
            } else {
                ""
            },
            if self.tight_l1 { " +tight-l1" } else { "" },
            match self.mutation {
                Some(m) => format!(" +mutation({m})"),
                None => String::new(),
            },
        ) + &if self.fault_budget > 0 {
            format!(" +faults({})", self.fault_budget)
        } else {
            String::new()
        }
    }

    /// The exact `gwcheck` invocation that replays `trace` against this
    /// spec (printed verbatim under counterexamples; consumed by
    /// `gwcheck --replay`).
    pub fn replay_command(&self, trace: &[Action]) -> String {
        let mut s = format!(
            "gwcheck --protocol {} --cores {} --blocks {} --ops {}",
            self.kind.token(),
            self.cores,
            self.blocks,
            self.ops
        );
        if self.gi_timeouts {
            s.push_str(" --gi-timeouts");
        }
        if self.tight_l1 {
            s.push_str(" --tight-l1");
        }
        if let Some(m) = self.mutation {
            s.push_str(&format!(" --mutation {}", m.token()));
        }
        if self.fault_budget > 0 {
            s.push_str(&format!(" --fault-budget {}", self.fault_budget));
        }
        s.push_str(&format!(" --replay {}", encode_trace(trace)));
        s
    }
}

impl Counterexample {
    /// Self-contained failure report: the rendered trace and the replay
    /// command line, verbatim.
    pub fn describe(&self, spec: &SweepSpec) -> String {
        let mut s = self.render(spec.cores);
        s.push_str(&format!("  replay: {}\n", spec.replay_command(&self.trace)));
        s
    }
}

/// One search space over a spec: the step function plus each core's
/// issue choices (see the module docs).
pub struct Space {
    spec: SweepSpec,
    cfg: SystemConfig,
    /// `issue[c][pc]`: the steps core `c` may issue as its `pc`-th
    /// operation. `issue[c].len()` is core `c`'s issue budget.
    issue: Vec<Vec<Vec<Step>>>,
    /// Bound on trace length (absolute, from the initial state).
    pub max_depth: usize,
    /// Bound on the states one search visits beyond the initial one;
    /// reaching it ends the search `truncated`. At ≈15 B of visited set
    /// per state, the default allows ≈0.5 GB.
    pub max_states: usize,
}

/// Reconstructs the action trace from `root` to `key` by walking the
/// BFS parent links backwards.
fn trace_to(parent: &HashMap<u64, (u64, Action)>, root: u64, key: u64) -> Vec<Action> {
    let mut trace = Vec::new();
    let mut at = key;
    while at != root {
        let (prev, action) = parent[&at];
        trace.push(action);
        at = prev;
    }
    trace.reverse();
    trace
}

impl Space {
    /// The unified space: every core may issue any alphabet step at
    /// each of its `spec.ops` program counters.
    pub fn new(spec: &SweepSpec) -> Self {
        let slots = vec![spec.alphabet(); spec.ops];
        Self::with_issue(spec, vec![slots; spec.cores])
    }

    /// The space of one fixed access program: core `c`'s `pc`-th issue
    /// is `program[c][pc]`, and its budget is its program's length.
    ///
    /// # Panics
    /// Panics unless `program` has one step list per core, each at most
    /// `spec.ops` long.
    pub fn program(spec: &SweepSpec, program: &Program) -> Self {
        assert_eq!(program.len(), spec.cores, "one program per core");
        assert!(
            program.iter().all(|steps| steps.len() <= spec.ops),
            "a program longer than the spec's ops"
        );
        let issue = program
            .iter()
            .map(|steps| steps.iter().map(|&step| vec![step]).collect())
            .collect();
        Self::with_issue(spec, issue)
    }

    fn with_issue(spec: &SweepSpec, issue: Vec<Vec<Vec<Step>>>) -> Self {
        assert!(
            spec.cores <= 16 && spec.ops <= 15,
            "state key packs remaining budgets into 4 bits per core"
        );
        assert!(
            spec.fault_budget == 0 || (spec.cores < 16 && spec.fault_budget <= 15),
            "the fault budget packs into one extra state-key nibble"
        );
        Self {
            cfg: spec.config(),
            issue,
            spec: spec.clone(),
            max_depth: 256,
            max_states: 32_000_000,
        }
    }

    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The initial state. The budgets hold each core's issue budget,
    /// then, in bounded-fault mode, one extra slot: the fault budget
    /// left. It rides the per-core-budget plumbing (and state-key
    /// nibble packing) everywhere, so the fault dimension needs no new
    /// threading. A core's program counter is its issue budget minus its
    /// budget left.
    fn initial(&self) -> (System, Budgets) {
        let faults = (self.spec.fault_budget > 0).then_some(self.spec.fault_budget);
        let budgets = Budgets::new(self.issue.iter().map(Vec::len).chain(faults));
        (System::new(self.cfg), budgets)
    }

    /// Enabled actions, in a fixed deterministic order (issues by core
    /// then choice order, delivers in row-major channel order, then the
    /// bounded-fault actions, timeouts by core). The search order, and
    /// so every count and counterexample, rests on this order.
    fn enabled(&self, sys: &System, budgets: Budgets) -> Vec<Action> {
        let mut acts = Vec::new();
        self.enabled_into(sys, budgets, &mut acts);
        acts
    }

    /// [`Space::enabled`], appended to `acts`: the search keeps every
    /// depth's actions on one stack, so once the stack has grown,
    /// expanding a state allocates nothing.
    fn enabled_into(&self, sys: &System, budgets: Budgets, acts: &mut Vec<Action>) {
        for (core, slots) in self.issue.iter().enumerate() {
            let left = budgets.get(core);
            if left > 0 && sys.core_idle(core) {
                for &step in &slots[slots.len() - left] {
                    acts.push(Action::Issue { core, step });
                }
            }
        }
        let delivers = acts.len();
        acts.extend(
            sys.channel_keys()
                .map(|(src, dst)| Action::Deliver { src, dst }),
        );
        let cores = self.spec.cores;
        if self.spec.fault_budget > 0 {
            if budgets.get(cores) > 0 {
                // The faults walk the channels the deliveries just
                // listed, in the same order.
                let end = acts.len();
                for i in delivers..end {
                    let Action::Deliver { src, dst } = acts[i] else {
                        unreachable!("only deliveries follow `delivers`")
                    };
                    if sys.head_faultable((src, dst)) {
                        acts.push(Action::Drop { src, dst });
                        acts.push(Action::Duplicate { src, dst });
                    }
                    if sys.head_corruptible((src, dst)) {
                        acts.push(Action::Corrupt { src, dst });
                    }
                }
            }
            // A wedged core (outstanding request, nothing in flight for
            // it) can only recover by retrying, so retries are never
            // budget-gated.
            for core in 0..cores {
                if sys.needs_retry(core) {
                    acts.push(Action::Retry { core });
                }
            }
        }
        if self.spec.gi_timeouts {
            for core in 0..cores {
                if sys.has_gi(core) {
                    acts.push(Action::GiTimeout { core });
                }
            }
        }
    }

    /// Applies `action` (which must be enabled), running the per-step
    /// invariant checks and converting controller panics into
    /// [`Failure::Panic`].
    fn apply(
        &self,
        sys: &mut System,
        budgets: &mut Budgets,
        action: Action,
    ) -> Result<(), Failure> {
        let step_result = catch_unwind(AssertUnwindSafe(|| match action {
            Action::Issue { core, step } => {
                budgets.spend(core);
                sys.issue(core, step.block, step.op)
            }
            Action::Deliver { src, dst } => self.deliver(sys, (src, dst)),
            Action::GiTimeout { core } => sys.gi_timeout(core),
            Action::Drop { src, dst } => {
                budgets.spend(self.spec.cores);
                sys.drop_message((src, dst));
                Ok(())
            }
            Action::Duplicate { src, dst } => {
                budgets.spend(self.spec.cores);
                sys.duplicate_head((src, dst));
                Ok(())
            }
            Action::Corrupt { src, dst } => {
                budgets.spend(self.spec.cores);
                sys.taint_head((src, dst));
                Ok(())
            }
            Action::Retry { core } => sys.retry(core).map(|_| ()),
        }));
        match step_result {
            Ok(Ok(())) => sys.check_swmr().map_err(Failure::Invariant),
            Ok(Err(v)) => Err(Failure::Invariant(v)),
            Err(payload) => Err(Failure::Panic(panic_message(payload))),
        }
    }

    /// Delivers the head of `key`, applying the spec's network-layer
    /// [`Mutation`] when it matches.
    fn deliver(&self, sys: &mut System, key: (usize, usize)) -> Result<(), Violation> {
        match (self.spec.mutation, sys.peek_channel(key)) {
            (Some(Mutation::SkipInvalidation), Some(m)) if matches!(m.payload, PayloadCtl::Inv) => {
                // The L1 never sees the INV, but the directory gets the
                // ack it is waiting for.
                let lost = sys.drop_message(key).expect("peeked message present");
                sys.inject(Msg {
                    src: lost.dst,
                    dst: lost.src,
                    block: lost.block,
                    payload: Payload::InvAck,
                    tag: WireTag::default(),
                });
                Ok(())
            }
            (Some(Mutation::DropInvAck), Some(m)) if matches!(m.payload, PayloadCtl::InvAck) => {
                sys.drop_message(key).expect("peeked message present");
                Ok(())
            }
            _ => sys.deliver(key),
        }
    }

    /// What a terminal (no enabled actions) state means: a completed
    /// quiescent run is checked against the quiescence invariants;
    /// anything else is blocked forever.
    fn terminal_failure(&self, sys: &System, budgets: Budgets) -> Option<Failure> {
        // Only the per-core issue budgets must drain: leftover fault
        // budget is fine (faults are optional adversary moves).
        if budgets.drained(self.spec.cores) && sys.quiescent() {
            sys.check_quiescent().err().map(Failure::Invariant)
        } else {
            Some(Failure::Deadlock {
                busy_cores: sys.busy_cores(),
            })
        }
    }

    /// Searches the whole space from the initial state in one
    /// depth-first pass over one visited set, uncached. Stops at the
    /// first failure, which is reported as found and shrunk.
    pub fn check(&self) -> SweepOutcome {
        self.outcome(self.search())
    }

    /// The depth-first search behind [`Space::check`], as the record a
    /// sweep caches: the failing trace as found and shrunk, not the
    /// failure itself.
    fn search(&self) -> SweepRecord {
        let (mut root, budgets) = self.initial();
        let mut visited = VisitedSet::default();
        visited.insert(state_key(&root, budgets));
        let mut record = SweepRecord {
            states: 1,
            ..Default::default()
        };
        let found = self.dfs(
            &mut root,
            budgets,
            &mut visited,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut record,
        );
        record.traces = found.map(|raw| {
            let shrunk = self.shrink(self.reproduce(raw.clone())).trace;
            (raw, shrunk)
        });
        record
    }

    /// The outcome `record` stands for, each failure rebuilt by replay.
    fn outcome(&self, record: SweepRecord) -> SweepOutcome {
        let (raw, shrunk) = match record.traces {
            Some((raw, shrunk)) => (Some(self.reproduce(raw)), Some(self.reproduce(shrunk))),
            None => (None, None),
        };
        SweepOutcome {
            spec: self.spec.clone(),
            states: record.states,
            transitions: record.transitions,
            max_depth: record.max_depth,
            truncated: record.truncated,
            coverage: record.coverage,
            raw_counterexample: raw,
            counterexample: shrunk,
        }
    }

    /// The counterexample a search recorded as `trace`, its failure
    /// reconstructed by replay.
    fn reproduce(&self, trace: Vec<Action>) -> Counterexample {
        let failure = self
            .replay(&trace)
            .expect("recorded failing trace must reproduce on replay");
        Counterexample { trace, failure }
    }

    /// Deterministically replays `trace` from the initial state.
    /// Returns the failure it reproduces, or `None` if the trace is
    /// clean or contains a not-enabled action (relevant while
    /// shrinking, where a deletion may leave an action that can no
    /// longer fire).
    pub fn replay(&self, trace: &[Action]) -> Option<Failure> {
        self.replay_strict(trace).unwrap_or(None)
    }

    /// [`Space::replay`], except that a trace with an action that is not
    /// enabled at its position is an error: `Err(i)` names the first
    /// such action, `trace[i]`.
    pub fn replay_strict(&self, trace: &[Action]) -> Result<Option<Failure>, usize> {
        let (mut sys, mut budgets) = self.initial();
        for (i, &action) in trace.iter().enumerate() {
            if !self.enabled(&sys, budgets).contains(&action) {
                return Err(i);
            }
            if let Err(failure) = self.apply(&mut sys, &mut budgets, action) {
                return Ok(Some(failure));
            }
        }
        Ok(if self.enabled(&sys, budgets).is_empty() {
            self.terminal_failure(&sys, budgets)
        } else {
            None
        })
    }

    /// Shrinks a counterexample to a minimal-length one.
    ///
    /// Trace deletion alone (the classic ddmin move) bottoms out far
    /// from minimal on coherence traces: the short counterexample is
    /// usually a *different interleaving*, not a subsequence of the
    /// found one — removing any single delivery desequences the
    /// channels and the replay goes clean. So the primary shrinker is
    /// a breadth-first search over the whole space for the shortest
    /// failing trace, capped at the ddmin result's depth (a failure is
    /// known to exist there). BFS order is deterministic, so the
    /// shrunk trace is too. If the BFS hits its state cap first (it
    /// never does on the seeded-mutation configs, but the cap keeps it
    /// total), the ddmin result stands.
    pub fn shrink(&self, cex: Counterexample) -> Counterexample {
        let ddmin = self.ddmin(cex);
        match self.shortest_failure(ddmin.trace.len()) {
            Some(minimal) if minimal.trace.len() < ddmin.trace.len() => minimal,
            _ => ddmin,
        }
    }

    /// Chunked-deletion pass: drop blocks of halving size (a whole
    /// sub-transaction at once) until no deletion of any size replays
    /// to a failure.
    fn ddmin(&self, cex: Counterexample) -> Counterexample {
        let mut trace = cex.trace;
        let mut failure = cex.failure;
        let mut chunk = (trace.len() / 2).max(1);
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < trace.len() {
                let end = (i + chunk).min(trace.len());
                let mut candidate = trace.clone();
                candidate.drain(i..end);
                if let Some(f) = self.replay(&candidate) {
                    trace = candidate;
                    failure = f;
                    improved = true;
                } else {
                    i += 1;
                }
            }
            if improved {
                chunk = (trace.len() / 2).max(1).min(chunk);
                continue;
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        Counterexample { trace, failure }
    }

    /// Breadth-first search for the shortest failing trace, up to
    /// `depth_cap` actions. Transition failures surface when a state
    /// at depth d expands (trace length d+1); deadlocks surface when a
    /// terminal state dequeues (trace length d) — so after the first
    /// hit the scan continues until the queue depth rules out anything
    /// shorter. Returns `None` if [`SHRINK_MAX_STATES`] is reached
    /// first.
    fn shortest_failure(&self, depth_cap: usize) -> Option<Counterexample> {
        let (root, root_budgets) = self.initial();
        let root_key = state_key(&root, root_budgets);
        let mut parent: HashMap<u64, (u64, Action)> = HashMap::new();
        let mut visited = VisitedSet::default();
        visited.insert(root_key);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((root, root_budgets, root_key, 0));
        let mut best: Option<Counterexample> = None;
        while let Some((sys, budgets, key, depth)) = queue.pop_front() {
            if let Some(b) = &best {
                // Depths are non-decreasing: a deadlock here would be
                // `depth` long, a transition failure `depth + 1`.
                if depth >= b.trace.len() {
                    break;
                }
            }
            let actions = self.enabled(&sys, budgets);
            if actions.is_empty() {
                if let Some(failure) = self.terminal_failure(&sys, budgets) {
                    let trace = trace_to(&parent, root_key, key);
                    best = Some(Counterexample { trace, failure });
                }
                continue;
            }
            if depth >= depth_cap {
                continue;
            }
            for (action, mut next) in forks(sys, actions) {
                let mut next_budgets = budgets;
                match self.apply(&mut next, &mut next_budgets, action) {
                    Err(failure) => {
                        let mut trace = trace_to(&parent, root_key, key);
                        trace.push(action);
                        if best.as_ref().is_none_or(|b| trace.len() < b.trace.len()) {
                            best = Some(Counterexample { trace, failure });
                        }
                    }
                    Ok(()) => {
                        let next_key = state_key(&next, next_budgets);
                        if visited.insert(next_key) {
                            if visited.len() >= SHRINK_MAX_STATES {
                                return None;
                            }
                            parent.insert(next_key, (key, action));
                            queue.push_back((next, next_budgets, next_key, depth + 1));
                        }
                    }
                }
            }
        }
        best
    }

    /// Searches every state reachable from `sys`, and spends `sys`
    /// doing so: the last enabled action is applied to it in place, so
    /// only the others fork it. Returns the first failing trace.
    fn dfs(
        &self,
        sys: &mut System,
        budgets: Budgets,
        visited: &mut VisitedSet,
        path: &mut Vec<Action>,
        actions: &mut Vec<Action>,
        record: &mut SweepRecord,
    ) -> Option<Vec<Action>> {
        record.max_depth = record.max_depth.max(path.len() as u64);
        // This state's actions go on top of its ancestors' on the one
        // stack, and come off it again before the search backs up (a
        // failure ends the whole search, so its returns skip that).
        let first = actions.len();
        self.enabled_into(sys, budgets, actions);
        let end = actions.len();
        if first == end {
            return self.terminal_failure(sys, budgets).map(|_| path.clone());
        }
        // `states` counts the initial state too, which the cap does not.
        if path.len() >= self.max_depth || record.states as usize > self.max_states {
            record.truncated = true;
            actions.truncate(first);
            return None;
        }
        let last = end - 1;
        for i in first..end {
            let action = actions[i];
            let mut fork;
            let next = if i == last {
                &mut *sys
            } else {
                fork = sys.clone();
                &mut fork
            };
            let mut next_budgets = budgets;
            path.push(action);
            record.transitions += 1;
            let applied = self.apply(next, &mut next_budgets, action);
            record.coverage.merge(&next.stats().coverage);
            match applied {
                Err(_) => {
                    let trace = path.clone();
                    path.pop();
                    return Some(trace);
                }
                Ok(()) => {
                    if visited.insert(state_key(next, next_budgets)) {
                        record.states += 1;
                        if let Some(trace) =
                            self.dfs(next, next_budgets, visited, path, actions, record)
                        {
                            path.pop();
                            return Some(trace);
                        }
                    }
                }
            }
            path.pop();
        }
        actions.truncate(first);
        None
    }
}

/// What one search produced: the cached form of a [`SweepOutcome`].
/// The failures themselves are not stored: [`Space::outcome`] replays
/// the traces, so a cache written by one binary can never smuggle in a
/// stale failure description, and cold and warm runs share one path.
#[derive(Clone, Debug, Default)]
struct SweepRecord {
    /// Distinct states visited, the initial state included.
    states: u64,
    /// Transitions applied (including ones into already-visited states).
    transitions: u64,
    /// Deepest trace explored.
    max_depth: u64,
    truncated: bool,
    coverage: Coverage,
    /// The first failing trace as the search found it, and shrunk.
    traces: Option<(Vec<Action>, Vec<Action>)>,
}

fn coverage_to_json(c: &Coverage) -> Json {
    let mut o = Json::obj();
    o.push(
        "l1",
        Json::Arr(c.l1.iter().map(|&v| Json::U64(v)).collect()),
    );
    o.push(
        "dir",
        Json::Arr(c.dir.iter().map(|&v| Json::U64(v)).collect()),
    );
    o
}

fn coverage_from_json(doc: &Json) -> Result<Coverage, String> {
    let mut c = Coverage::default();
    for (name, slots) in [("l1", &mut c.l1[..]), ("dir", &mut c.dir[..])] {
        let arr = doc
            .field(name)
            .and_then(|f| f.as_arr())
            .map_err(|e| e.to_string())?;
        if arr.len() != slots.len() {
            return Err(format!(
                "coverage.{name} has {} rows, expected {}",
                arr.len(),
                slots.len()
            ));
        }
        for (slot, v) in slots.iter_mut().zip(arr) {
            *slot = v.as_u64().map_err(|e| e.to_string())?;
        }
    }
    Ok(c)
}

impl CacheRecord for SweepRecord {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("states", Json::U64(self.states));
        o.push("transitions", Json::U64(self.transitions));
        o.push("max_depth", Json::U64(self.max_depth));
        o.push("truncated", Json::U64(self.truncated as u64));
        o.push("coverage", coverage_to_json(&self.coverage));
        let (raw, shrunk) = match &self.traces {
            Some((raw, shrunk)) => (
                Json::Str(encode_trace(raw)),
                Json::Str(encode_trace(shrunk)),
            ),
            None => (Json::Null, Json::Null),
        };
        o.push("raw_trace", raw);
        o.push("shrunk_trace", shrunk);
        o
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let field = |name: &str| doc.field(name).map_err(|e| e.to_string());
        let u = |name: &str| field(name)?.as_u64().map_err(|e| e.to_string());
        let trace = |name: &str| match field(name)? {
            Json::Null => Ok(None),
            Json::Str(s) => decode_trace(s)
                .map(Some)
                .ok_or_else(|| format!("bad {name} {s:?}")),
            other => Err(format!("{name} must be string/null, got {other:?}")),
        };
        let traces = match (trace("raw_trace")?, trace("shrunk_trace")?) {
            (Some(raw), Some(shrunk)) => Some((raw, shrunk)),
            (None, None) => None,
            _ => return Err("raw_trace and shrunk_trace must both be set or null".into()),
        };
        Ok(SweepRecord {
            states: u("states")?,
            transitions: u("transitions")?,
            max_depth: u("max_depth")?,
            truncated: u("truncated")? != 0,
            coverage: coverage_from_json(field("coverage")?)?,
            traces,
        })
    }
}

/// Execution policy for a batch of sweeps.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Sweep cells searched at once ([`run_sweeps`]); each cell is one
    /// single-threaded search.
    pub jobs: usize,
    /// `false` bypasses the sweep cache (no lookups, no stores).
    pub use_cache: bool,
    /// Where cached sweep records live.
    pub cache_dir: PathBuf,
    /// Report each finished cell on stderr.
    pub progress: bool,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            use_cache: true,
            cache_dir: default_cache_dir(),
            progress: false,
        }
    }
}

/// The default on-repo sweep cache (sibling of the experiment cache,
/// same ignored `results/` tree).
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("results/cache/check")
}

/// Non-deterministic per-run bookkeeping (never part of the report
/// fingerprint: wall clock and cache behavior vary run to run).
#[derive(Clone, Debug, Default)]
pub struct SweepLog {
    /// Served from the cache, without a search.
    pub cached: bool,
    /// A corrupt cache entry was found and searched over.
    pub corrupt: bool,
    /// Wall clock of the cell, ms.
    pub wall_ms: u64,
}

/// The deterministic result of one sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    pub spec: SweepSpec,
    /// Distinct states visited, the initial state included.
    pub states: u64,
    /// Transitions applied (including ones into already-visited states).
    pub transitions: u64,
    /// Deepest trace explored.
    pub max_depth: u64,
    /// True if the depth or state bound cut the search short — the space
    /// was *not* exhausted.
    pub truncated: bool,
    /// Union of the transition-table rows exercised anywhere in the
    /// explored state space (union over all DFS branches; counts are an
    /// over-approximation, zero/non-zero is exact).
    pub coverage: Coverage,
    /// The failing trace exactly as the search found it.
    pub raw_counterexample: Option<Counterexample>,
    /// The same failure shrunk (what tests and the CLI lead with).
    pub counterexample: Option<Counterexample>,
}

impl SweepOutcome {
    /// Canonical JSON form: everything deterministic about the sweep,
    /// nothing about scheduling or caching. Two runs of the same spec
    /// agree iff these bytes agree.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("spec", Json::Str(self.spec.key()));
        o.push("states", Json::U64(self.states));
        o.push("transitions", Json::U64(self.transitions));
        o.push("max_depth", Json::U64(self.max_depth));
        o.push("truncated", Json::U64(self.truncated as u64));
        o.push("coverage", coverage_to_json(&self.coverage));
        o.push(
            "counterexample",
            match (&self.raw_counterexample, &self.counterexample) {
                (Some(raw), Some(shrunk)) => {
                    let mut c = Json::obj();
                    c.push("raw_trace", Json::Str(encode_trace(&raw.trace)));
                    c.push("shrunk_trace", Json::Str(encode_trace(&shrunk.trace)));
                    c.push("failure", Json::Str(shrunk.failure.to_string()));
                    c
                }
                _ => Json::Null,
            },
        );
        o
    }

    /// Content fingerprint of the canonical form (the identity the
    /// determinism suite compares across `--jobs` and cache states).
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(self.to_json().to_pretty().as_bytes())
    }

    /// The one-line verdict `gwcheck` prints: `PASS`, `TRUNCATED` (a
    /// bound cut the search short, so nothing is proven) or `FAIL`.
    pub fn verdict(&self, log: &SweepLog) -> String {
        let word = match (&self.counterexample, self.truncated) {
            (Some(_), _) => "FAIL",
            (None, true) => "TRUNCATED",
            (None, false) => "PASS",
        };
        let mut line = format!(
            "{word}  {}: {} states, {} transitions in {:.2}s ({})",
            self.spec.label(),
            self.states,
            self.transitions,
            log.wall_ms as f64 / 1000.0,
            if log.cached { "cached" } else { "searched" },
        );
        if word == "TRUNCATED" {
            line.push_str(" — a depth or state bound was hit: not exhaustive");
        }
        line
    }
}

/// Runs one sweep cell: a cache probe, else one search (see
/// [`run_sweeps`]).
pub fn run_sweep(spec: &SweepSpec, opts: &ShardOptions) -> (SweepOutcome, SweepLog) {
    run_sweeps(std::slice::from_ref(spec), opts)
        .pop()
        .expect("one outcome per spec")
}

/// Runs every cell of `specs`, `opts.jobs` at a time, each served from
/// the cache when it holds the cell's record and searched (then stored)
/// otherwise. Outcomes come back in `specs` order.
pub fn run_sweeps(specs: &[SweepSpec], opts: &ShardOptions) -> Vec<(SweepOutcome, SweepLog)> {
    let cache = ResultCache::new(&opts.cache_dir);
    let done = AtomicUsize::new(0);
    map_parallel(opts.jobs, specs.to_vec(), |_, spec| {
        let t0 = Instant::now();
        let space = Space::new(&spec);
        let key = spec.key();
        let fp = Fingerprint::of(key.as_bytes());
        let mut log = SweepLog::default();
        let loaded = match opts.use_cache.then(|| cache.load::<SweepRecord>(fp)) {
            Some(Ok(record)) => Some(record),
            Some(Err(Miss::Stale(why))) => {
                eprintln!(
                    "gwcheck: discarding sweep record in an older format {}: {why}",
                    fp.hex()
                );
                None
            }
            Some(Err(Miss::Corrupt(why))) => {
                eprintln!(
                    "gwcheck: discarding corrupt sweep record {}: {why}",
                    fp.hex()
                );
                log.corrupt = true;
                None
            }
            Some(Err(Miss::Absent)) | None => None,
        };
        log.cached = loaded.is_some();
        let record = loaded.unwrap_or_else(|| {
            let record = space.search();
            if opts.use_cache {
                if let Err(e) = cache.store(fp, &key, &record) {
                    eprintln!("gwcheck: sweep cache store failed for {}: {e}", fp.hex());
                }
            }
            record
        });
        let outcome = space.outcome(record);
        log.wall_ms = t0.elapsed().as_millis() as u64;
        if opts.progress {
            let n = done.fetch_add(1, Ordering::SeqCst) + 1;
            eprintln!("gwcheck: {} done ({n}/{})", spec.label(), specs.len());
        }
        (outcome, log)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostwriter_core::harness::Op;
    use std::collections::HashSet;

    #[test]
    fn spec_key_distinguishes_every_field() {
        let base = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2);
        let mut keys = vec![base.key()];
        for spec in [
            SweepSpec::new(ProtocolKind::Msi, 2, 1, 2),
            SweepSpec::new(ProtocolKind::Mesi, 3, 1, 2),
            SweepSpec::new(ProtocolKind::Mesi, 2, 2, 2),
            SweepSpec::new(ProtocolKind::Mesi, 2, 1, 1),
            SweepSpec {
                gi_timeouts: true,
                ..base.clone()
            },
            SweepSpec {
                tight_l1: true,
                ..base.clone()
            },
            SweepSpec {
                mutation: Some(Mutation::SkipInvalidation),
                ..base.clone()
            },
            SweepSpec {
                mutation: Some(Mutation::DeleteRow("gi_timeout")),
                ..base.clone()
            },
            SweepSpec {
                fault_budget: 1,
                ..base.clone()
            },
            SweepSpec {
                fault_budget: 2,
                ..base.clone()
            },
        ] {
            keys.push(spec.key());
        }
        let distinct: HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "colliding keys: {keys:?}");
    }

    /// The revision only moves with the searched semantics or the cached
    /// record format (revision 4: whole-sweep records replaced per-shard
    /// ones), never with the fingerprint's bits alone.
    #[test]
    fn check_revision_pinned() {
        assert_eq!(CHECK_REVISION, 4);
        assert!(SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
            .key()
            .starts_with("check-rev=4|"));
    }

    #[test]
    fn sweep_record_round_trips_through_cache_record() {
        let issue = Action::Issue {
            core: 0,
            step: Step {
                block: 1,
                op: Op::Store,
            },
        };
        let deliver = Action::Deliver { src: 0, dst: 2 };
        let mut r = SweepRecord {
            states: 7,
            transitions: 19,
            max_depth: 11,
            truncated: true,
            traces: Some((vec![issue, deliver, deliver], vec![issue, deliver])),
            ..Default::default()
        };
        r.coverage.l1[0] = 3;
        r.coverage.dir[5] = 9;
        let text = r.canonical_text();
        let back = SweepRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.canonical_text(), text);
        assert_eq!(back.states, 7);
        assert_eq!(back.traces, r.traces);
        assert_eq!(back.coverage.l1[0], 3);
    }

    #[test]
    fn a_state_cap_truncates_and_the_verdict_says_so() {
        let spec = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2);
        let mut space = Space::new(&spec);
        space.max_states = 100;
        let outcome = space.check();
        assert!(outcome.truncated && outcome.counterexample.is_none());
        let line = outcome.verdict(&SweepLog::default());
        assert!(line.starts_with("TRUNCATED  Mesi 2c/1b ops=2: "), "{line}");
        assert!(line.contains("not exhaustive"), "{line}");

        let full = Space::new(&spec).check();
        assert!(!full.truncated);
        assert!(full.verdict(&SweepLog::default()).starts_with("PASS  "));
    }

    #[test]
    fn mutated_sweep_reports_replay_command() {
        let spec = SweepSpec {
            mutation: Some(Mutation::SkipInvalidation),
            ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
        };
        let outcome = Space::new(&spec).check();
        assert!(outcome.verdict(&SweepLog::default()).starts_with("FAIL  "));
        let raw = outcome.raw_counterexample.expect("mutation caught");
        assert!(raw
            .describe(&spec)
            .contains("replay: gwcheck --protocol mesi"));
        let shrunk = outcome.counterexample.expect("shrunk present");
        assert!(shrunk.trace.len() <= 20 && shrunk.trace.len() <= raw.trace.len());
        assert!(shrunk.describe(&spec).contains("--replay "));
    }

    /// Seeded random walks of the Ghostwriter 2c/2b ops=2 space: every
    /// state a walk reaches goes into the compact table and into a set
    /// of the full 192-bit keys, and both must give the same insert
    /// verdict. Walks share their early states, so repeat inserts are
    /// exercised as well as new ones.
    #[test]
    fn compact_keys_agree_with_full_keys_on_seeded_walks() {
        let space = Space::new(&SweepSpec::new(ProtocolKind::Ghostwriter, 2, 2, 2));
        let mut full: HashSet<(u128, u64)> = HashSet::new();
        let mut compact = VisitedSet::default();
        let (mut repeats, mut seed) = (0, 0x2545_F491_4F6C_DD1D_u64);
        for _ in 0..300 {
            let (mut sys, mut budgets) = space.initial();
            loop {
                let fresh = full.insert((sys.fingerprint(), budgets.bits()));
                assert_eq!(compact.insert(state_key(&sys, budgets)), fresh);
                repeats += !fresh as usize;
                let actions = space.enabled(&sys, budgets);
                if actions.is_empty() {
                    break;
                }
                // xorshift64
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let action = actions[seed as usize % actions.len()];
                space
                    .apply(&mut sys, &mut budgets, action)
                    .expect("clean space");
            }
        }
        assert_eq!(compact.len(), full.len());
        assert!(
            full.len() > 1_000 && repeats > 1_000,
            "{} / {repeats}",
            full.len()
        );
    }
}
