//! The checker's one search engine, and the sharded, parallel, cached
//! sweep built on it.
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
//! magnitude smaller. Both run the same depth-first search, replay and
//! shrinker; a per-program check ([`Space::check`]) is the depth-0 case
//! of the sharding below, run in-process.
//!
//! On top of the unified space sits the sharding the work-stealing pool
//! consumes:
//!
//! 1. **Plan** ([`plan_shards`]): breadth-first expansion from the
//!    initial state to a fixed depth, deduplicating states globally.
//!    The resulting frontier states — *deduped roots* — become shard
//!    jobs; their action prefixes identify them.
//! 2. **Execute**: each shard runs an independent bounded DFS from its
//!    root with a private visited set, on
//!    [`ghostwriter_exp::pool::map_parallel`]. Per-shard sets (rather
//!    than one shared concurrent table) make every shard's result a
//!    pure function of its root, so reports are byte-identical across
//!    `--jobs` settings — and cacheable.
//! 3. **Cache**: a finished shard is stored content-addressed in the
//!    [`ghostwriter_exp::cache::ResultCache`], keyed by (spec key,
//!    shard depth, prefix trace). Re-running a sweep after an
//!    unrelated change is a warm no-op (`--expect-cached`).
//! 4. **Merge**: shard results fold in frontier order — states,
//!    transitions, coverage, truncation — and the first failing shard
//!    (in frontier order) supplies the counterexample, which is
//!    re-replayed and shrunk at merge time so cold and warm runs
//!    produce byte-identical reports.
//!
//! Determinism guarantees (the `parallel_determinism` suite asserts
//! these): the shard plan depends only on the spec and depth; shard
//! results depend only on their root; the merge folds in plan order.
//! Nothing observes scheduling, so `--jobs 1` ≡ `--jobs N`, and cached
//! records round-trip losslessly, so cold ≡ warm.

use std::collections::{HashMap, HashSet, VecDeque};
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
use crate::{
    check_config, forks, recovery_for_budget, step_alphabet, Action, Budgets, CheckReport,
    Counterexample, Failure, Mutation, Program, ProtocolKind, Step,
};

/// Bumped whenever the unified search's semantics change (alphabet,
/// invariants, bounds): part of every shard cache key, so stale caches
/// from an older checker can never satisfy a newer sweep.
///
/// Revision 3: the harness virtual network became a dense channel grid,
/// which changed state hashing (empty channels now hash canonically
/// instead of by insertion history).
///
/// Deliberately NOT bumped for the payload/data split, the one-pass
/// state hasher or the flat in-flight list that replaced the channel
/// grid: shard cache keys are built from these textual fields, never
/// from `System::fingerprint` (see [`SweepSpec::key`]), so the
/// in-process fingerprint is free to change its bits as long as it
/// still partitions logical states exactly as before. All three hash
/// the same logical content (each queued message's logical form and
/// channel, never its pool slot; unordered tables in block order). The
/// partition is pinned by the `sweep_golden` test's state and
/// transition counts, slot independence by
/// `fingerprint_independent_of_data_slot_assignment` in the core
/// harness, and the value by `check_revision_pinned` below.
pub const CHECK_REVISION: u64 = 3;

/// Schema version of the cached shard record payload.
const SHARD_SCHEMA: u64 = 1;

/// Auto shard-depth policy: deepen the plan until the frontier has at
/// least this many roots (or [`AUTO_DEPTH_CAP`] is reached). Fixed
/// constants — the plan must not depend on `--jobs`, or reports would.
const AUTO_FRONTIER_TARGET: usize = 48;
const AUTO_DEPTH_CAP: usize = 4;

/// One sweep cell of the sharded checker: everything that identifies
/// the searched space (and therefore the cache key).
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
    /// Self-contained failure report: the shard prefix (when the trace
    /// still carries one), the rendered trace, and the replay command
    /// line, verbatim.
    pub fn describe(&self, spec: &SweepSpec) -> String {
        let mut s = String::new();
        if self.prefix_len > 0 {
            s.push_str(&format!(
                "  shard prefix ({} actions): {}\n",
                self.prefix_len,
                encode_trace(&self.trace[..self.prefix_len])
            ));
        }
        s.push_str(&self.render(spec.cores));
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
    /// Bound on newly visited states per shard.
    pub max_states: usize,
}

/// A search state key: system fingerprint + packed per-core remaining
/// budgets (4 bits per core — asserted in [`Space::new`]).
type StateKey = (u128, u64);

fn state_key(sys: &System, budgets: Budgets) -> StateKey {
    (sys.fingerprint(), budgets.bits())
}

/// Reconstructs the action trace from `root` to `key` by walking the
/// BFS parent links backwards.
fn trace_to(
    parent: &HashMap<StateKey, (StateKey, Action)>,
    root: StateKey,
    key: StateKey,
) -> Vec<Action> {
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
            max_states: 1_000_000,
        }
    }

    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The initial state. The budgets hold each core's issue budget,
    /// then, in bounded-fault mode, one extra slot: the fault budget
    /// left. It rides the per-core-budget plumbing (and state-key
    /// nibble packing) everywhere — plans, shards, caches — so the fault
    /// dimension needs no new threading. A core's program counter is
    /// its issue budget minus its budget left.
    fn initial(&self) -> (System, Budgets) {
        let faults = (self.spec.fault_budget > 0).then_some(self.spec.fault_budget);
        let budgets = Budgets::new(self.issue.iter().map(Vec::len).chain(faults));
        (System::new(self.cfg), budgets)
    }

    /// Enabled actions, in a fixed deterministic order (issues by core
    /// then choice order, delivers in row-major channel order, then the
    /// bounded-fault actions, timeouts by core). Plan and shard searches
    /// both depend on this order being schedule-independent.
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
    /// depth-first pass — the depth-0 shard, run in-process and
    /// uncached. Stops at the first failure, which is returned shrunk.
    pub fn check(&self) -> CheckReport {
        let (root, budgets) = self.initial();
        let shard = self.run_shard(root, budgets, &[]);
        let counterexample = shard
            .failure_trace
            .map(|trace| self.shrink(self.reproduce(trace)));
        CheckReport {
            // The root, plus every state the search first visited.
            states: 1 + shard.states as usize,
            transitions: shard.transitions as usize,
            max_depth: shard.max_depth as usize,
            truncated: shard.truncated,
            coverage: shard.coverage,
            counterexample,
        }
    }

    /// The counterexample a search recorded as `trace`, its failure
    /// reconstructed by replay.
    fn reproduce(&self, trace: Vec<Action>) -> Counterexample {
        let failure = self
            .replay(&trace)
            .expect("recorded failing trace must reproduce on replay");
        Counterexample::new(trace, failure)
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
    /// shrunk trace is too. If the BFS hits the state cap first (it
    /// never does on the seeded-mutation configs, but the cap keeps it
    /// total), the ddmin result stands. `prefix_len` resets to 0 —
    /// the minimal trace has no shard structure.
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
        Counterexample::new(trace, failure)
    }

    /// Breadth-first search for the shortest failing trace, up to
    /// `depth_cap` actions. Transition failures surface when a state
    /// at depth d expands (trace length d+1); deadlocks surface when a
    /// terminal state dequeues (trace length d) — so after the first
    /// hit the scan continues until the queue depth rules out anything
    /// shorter. Returns `None` if the state cap is reached first.
    fn shortest_failure(&self, depth_cap: usize) -> Option<Counterexample> {
        let (root, root_budgets) = self.initial();
        let root_key = state_key(&root, root_budgets);
        let mut parent: HashMap<StateKey, (StateKey, Action)> = HashMap::new();
        let mut visited: HashSet<StateKey> = HashSet::new();
        visited.insert(root_key);
        let mut queue: VecDeque<(System, Budgets, StateKey, usize)> = VecDeque::new();
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
                if let Some(f) = self.terminal_failure(&sys, budgets) {
                    best = Some(Counterexample::new(trace_to(&parent, root_key, key), f));
                }
                continue;
            }
            if depth >= depth_cap {
                continue;
            }
            for (action, mut next) in forks(sys, actions) {
                let mut next_budgets = budgets;
                match self.apply(&mut next, &mut next_budgets, action) {
                    Err(f) => {
                        let mut trace = trace_to(&parent, root_key, key);
                        trace.push(action);
                        if best.as_ref().is_none_or(|b| trace.len() < b.trace.len()) {
                            best = Some(Counterexample::new(trace, f));
                        }
                    }
                    Ok(()) => {
                        let next_key = state_key(&next, next_budgets);
                        if visited.insert(next_key) {
                            if visited.len() >= self.max_states {
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

    /// Runs one shard: a bounded DFS from `root` (reached via `prefix`)
    /// with a private visited set seeded with the root only. Stops at
    /// the shard's first failure. `states` counts only states first
    /// visited inside this shard — the root itself was counted by the
    /// plan.
    fn run_shard(&self, mut root: System, budgets: Budgets, prefix: &[Action]) -> ShardResult {
        let mut result = ShardResult::default();
        let mut visited: HashSet<StateKey> = HashSet::new();
        visited.insert(state_key(&root, budgets));
        let mut path = prefix.to_vec();
        result.max_depth = path.len() as u64;
        let mut actions = Vec::new();
        let failing = self.dfs(
            &mut root,
            budgets,
            &mut visited,
            &mut path,
            &mut actions,
            &mut result,
        );
        result.failure_trace = failing;
        result
    }

    /// Searches every state reachable from `sys`, and spends `sys`
    /// doing so: the last enabled action is applied to it in place, so
    /// only the others fork it.
    fn dfs(
        &self,
        sys: &mut System,
        budgets: Budgets,
        visited: &mut HashSet<StateKey>,
        path: &mut Vec<Action>,
        actions: &mut Vec<Action>,
        result: &mut ShardResult,
    ) -> Option<Vec<Action>> {
        result.max_depth = result.max_depth.max(path.len() as u64);
        // This state's actions go on top of its ancestors' on the one
        // stack, and come off it again before the search backs up (a
        // failure ends the whole search, so its returns skip that).
        let first = actions.len();
        self.enabled_into(sys, budgets, actions);
        let end = actions.len();
        if first == end {
            return self.terminal_failure(sys, budgets).map(|_| path.clone());
        }
        if path.len() >= self.max_depth || result.states as usize >= self.max_states {
            result.truncated = true;
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
            result.transitions += 1;
            let applied = self.apply(next, &mut next_budgets, action);
            result.coverage.merge(&next.stats().coverage);
            match applied {
                Err(_) => {
                    let trace = path.clone();
                    path.pop();
                    return Some(trace);
                }
                Ok(()) => {
                    if visited.insert(state_key(next, next_budgets)) {
                        result.states += 1;
                        if let Some(trace) =
                            self.dfs(next, next_budgets, visited, path, actions, result)
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

/// What one shard's search produced. The serializable subset (states,
/// transitions, depth, truncation, coverage, the raw failing trace) is
/// the cached payload; the [`Failure`] itself is *not* stored — it is
/// reconstructed by replaying the trace at merge time, which keeps the
/// cache format simple and makes cold and warm merges take the
/// identical code path.
#[derive(Clone, Debug, Default)]
pub struct ShardResult {
    pub states: u64,
    pub transitions: u64,
    /// Deepest absolute trace (including the shard prefix).
    pub max_depth: u64,
    pub truncated: bool,
    pub coverage: Coverage,
    /// The shard's first failing trace, absolute from the initial
    /// state (prefix included). The [`Failure`] itself is not stored:
    /// merge replays the trace, so cold and warm merges share one
    /// path.
    pub failure_trace: Option<Vec<Action>>,
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

impl CacheRecord for ShardResult {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("schema", Json::U64(SHARD_SCHEMA));
        o.push("states", Json::U64(self.states));
        o.push("transitions", Json::U64(self.transitions));
        o.push("max_depth", Json::U64(self.max_depth));
        o.push("truncated", Json::U64(self.truncated as u64));
        o.push("coverage", coverage_to_json(&self.coverage));
        o.push(
            "failure_trace",
            match &self.failure_trace {
                Some(trace) => Json::Str(encode_trace(trace)),
                None => Json::Null,
            },
        );
        o
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let schema = doc
            .field("schema")
            .and_then(|f| f.as_u64())
            .map_err(|e| e.to_string())?;
        if schema != SHARD_SCHEMA {
            return Err(format!("shard schema {schema}, expected {SHARD_SCHEMA}"));
        }
        let u = |name: &str| {
            doc.field(name)
                .and_then(|f| f.as_u64())
                .map_err(|e| e.to_string())
        };
        let failure_trace = match doc.field("failure_trace").map_err(|e| e.to_string())? {
            Json::Null => None,
            Json::Str(s) => {
                Some(decode_trace(s).ok_or_else(|| format!("bad failure trace {s:?}"))?)
            }
            other => return Err(format!("failure_trace must be string/null, got {other:?}")),
        };
        Ok(ShardResult {
            states: u("states")?,
            transitions: u("transitions")?,
            max_depth: u("max_depth")?,
            truncated: u("truncated")? != 0,
            coverage: coverage_from_json(doc.field("coverage").map_err(|e| e.to_string())?)?,
            failure_trace,
        })
    }
}

/// The deterministic frontier split: everything the breadth-first
/// prefix expansion produced.
pub struct ShardPlan {
    /// Depth the frontier sits at.
    pub depth: usize,
    /// Deduped frontier roots, in BFS discovery order: the action
    /// prefix that reaches the root, plus the root state itself.
    pub prefixes: Vec<(Vec<Action>, System, Budgets)>,
    /// States first visited during planning (including the initial
    /// state).
    pub states: u64,
    pub transitions: u64,
    pub coverage: Coverage,
    /// A failure hit while expanding the prefix region, if any (the
    /// plan stops immediately; no shards run).
    pub prefix_failure: Option<Counterexample>,
}

/// Expands the unified space breadth-first to `depth` levels (or until
/// the frontier drains), deduplicating states globally. With
/// `depth: None` the auto policy deepens until the frontier reaches
/// [`AUTO_FRONTIER_TARGET`] roots or [`AUTO_DEPTH_CAP`] — fixed
/// constants, so the plan never depends on `--jobs`.
pub fn plan_shards(space: &Space, depth: Option<usize>) -> ShardPlan {
    let (sys, budgets) = space.initial();
    let mut visited: HashSet<StateKey> = HashSet::new();
    visited.insert(state_key(&sys, budgets));
    let mut plan = ShardPlan {
        depth: 0,
        prefixes: vec![(Vec::new(), sys, budgets)],
        states: 1,
        transitions: 0,
        coverage: Coverage::default(),
        prefix_failure: None,
    };
    loop {
        let deep_enough = match depth {
            Some(d) => plan.depth >= d,
            None => plan.depth >= AUTO_DEPTH_CAP || plan.prefixes.len() >= AUTO_FRONTIER_TARGET,
        };
        if deep_enough || plan.prefixes.is_empty() {
            return plan;
        }
        let level = std::mem::take(&mut plan.prefixes);
        let mut next_level = Vec::new();
        for (prefix, sys, budgets) in level {
            let actions = space.enabled(&sys, budgets);
            if actions.is_empty() {
                // Terminal before the frontier: check it here — no
                // shard will ever see it.
                if let Some(failure) = space.terminal_failure(&sys, budgets) {
                    plan.prefix_failure = Some(Counterexample::new(prefix, failure));
                    return plan;
                }
                continue;
            }
            for (action, mut next) in forks(sys, actions) {
                let mut next_budgets = budgets;
                plan.transitions += 1;
                let applied = space.apply(&mut next, &mut next_budgets, action);
                plan.coverage.merge(&next.stats().coverage);
                let mut trace = prefix.clone();
                trace.push(action);
                if let Err(failure) = applied {
                    plan.prefix_failure = Some(Counterexample::new(trace, failure));
                    return plan;
                }
                if visited.insert(state_key(&next, next_budgets)) {
                    plan.states += 1;
                    next_level.push((trace, next, next_budgets));
                }
            }
        }
        plan.prefixes = next_level;
        plan.depth += 1;
    }
}

/// Execution policy for one sharded sweep.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Worker threads for the shard pool.
    pub jobs: usize,
    /// Frontier depth; `None` selects the fixed auto policy.
    pub shard_depth: Option<usize>,
    /// `false` bypasses the shard cache (no lookups, no stores).
    pub use_cache: bool,
    /// Where cached shard records live.
    pub cache_dir: PathBuf,
    /// Stream per-shard progress to stderr.
    pub progress: bool,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            shard_depth: None,
            use_cache: true,
            cache_dir: default_cache_dir(),
            progress: false,
        }
    }
}

/// The default on-repo shard cache (sibling of the experiment cache,
/// same ignored `results/` tree).
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from("results/cache/check")
}

/// Non-deterministic per-run bookkeeping (never part of the report
/// fingerprint: wall clock and cache behavior vary run to run).
#[derive(Clone, Debug, Default)]
pub struct ShardLog {
    /// Frontier shards in the plan.
    pub shards: usize,
    /// Shards served from cache.
    pub cache_hits: usize,
    /// Shards that actually searched (misses + `--no-cache`).
    pub executed: usize,
    /// Corrupt cache entries detected (subset of `executed`).
    pub corrupt: usize,
    /// Whole-sweep wall clock, ms.
    pub wall_ms: u64,
}

/// The merged, deterministic result of one sharded sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    pub spec: SweepSpec,
    pub shard_depth: usize,
    pub shards: usize,
    /// Distinct states: plan states + per-shard newly-visited sums.
    /// (States re-visited by sibling shards count once per shard — a
    /// deterministic over-approximation; see docs/checking.md.)
    pub states: u64,
    pub transitions: u64,
    pub max_depth: u64,
    pub truncated: bool,
    pub coverage: Coverage,
    /// The failing trace exactly as the search found it, with its
    /// shard prefix marked (`prefix_len`).
    pub raw_counterexample: Option<Counterexample>,
    /// The same failure after merge-time shrinking (what tests and the
    /// CLI lead with).
    pub counterexample: Option<Counterexample>,
}

impl SweepOutcome {
    /// Canonical JSON form: everything deterministic about the sweep,
    /// nothing about scheduling or caching. Two runs of the same spec
    /// agree iff these bytes agree.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("spec", Json::Str(self.spec.key()));
        o.push("shard_depth", Json::U64(self.shard_depth as u64));
        o.push("shards", Json::U64(self.shards as u64));
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
                    c.push("shard_prefix_len", Json::U64(raw.prefix_len as u64));
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
}

/// Runs one sharded sweep: plan → (cache-probed) pool execution →
/// deterministic merge.
pub fn run_sweep(spec: &SweepSpec, opts: &ShardOptions) -> (SweepOutcome, ShardLog) {
    let t0 = Instant::now();
    let space = Space::new(spec);
    let plan = plan_shards(&space, opts.shard_depth);
    let mut log = ShardLog {
        shards: plan.prefixes.len(),
        ..Default::default()
    };

    let mut outcome = SweepOutcome {
        spec: spec.clone(),
        shard_depth: plan.depth,
        shards: plan.prefixes.len(),
        states: plan.states,
        transitions: plan.transitions,
        max_depth: plan.depth as u64,
        truncated: false,
        coverage: plan.coverage.clone(),
        raw_counterexample: None,
        counterexample: None,
    };

    if let Some(cex) = plan.prefix_failure {
        // The prefix region itself failed: no shards ran; the failure
        // predates any frontier split, so there is no shard prefix.
        outcome.raw_counterexample = Some(cex.clone());
        outcome.counterexample = Some(space.shrink(cex));
        log.wall_ms = t0.elapsed().as_millis() as u64;
        return (outcome, log);
    }

    let cache = ResultCache::new(&opts.cache_dir);
    let done = AtomicUsize::new(0);
    let total = plan.prefixes.len();
    let outcomes = map_parallel(opts.jobs, plan.prefixes, |_, (prefix, sys, budgets)| {
        let fp = Fingerprint::of_parts(
            [
                spec.key(),
                format!("depth={}", plan.depth),
                encode_trace(&prefix),
            ]
            .iter()
            .map(|s| s.as_str()),
        );
        let (result, hit, corrupt) = if opts.use_cache {
            match cache.load::<ShardResult>(fp) {
                Ok(rec) => (rec, true, false),
                Err(miss) => {
                    let corrupt = matches!(miss, Miss::Corrupt(_));
                    match &miss {
                        Miss::Absent => {}
                        Miss::Stale(why) => eprintln!(
                            "gwcheck: discarding shard in an older record format {}: {why}",
                            fp.hex()
                        ),
                        Miss::Corrupt(why) => {
                            eprintln!("gwcheck: discarding corrupt shard {}: {why}", fp.hex())
                        }
                    }
                    let rec = space.run_shard(sys, budgets, &prefix);
                    let key = format!("{}|depth={}|prefix={}", spec.key(), plan.depth, {
                        encode_trace(&prefix)
                    });
                    if let Err(e) = cache.store(fp, &key, &rec) {
                        eprintln!("gwcheck: shard cache store failed for {}: {e}", fp.hex());
                    }
                    (rec, false, corrupt)
                }
            }
        } else {
            (space.run_shard(sys, budgets, &prefix), false, false)
        };
        if opts.progress {
            let n = done.fetch_add(1, Ordering::SeqCst) + 1;
            eprint!("\rgwcheck: {} {n}/{total} shards", spec.label());
            if n == total {
                eprintln!();
            }
        }
        (prefix, result, hit, corrupt)
    });

    // Deterministic merge, in frontier (plan) order.
    let mut first_failure: Option<(Vec<Action>, Vec<Action>)> = None;
    for (prefix, result, hit, corrupt) in outcomes {
        if hit {
            log.cache_hits += 1;
        } else {
            log.executed += 1;
        }
        if corrupt {
            log.corrupt += 1;
        }
        outcome.states += result.states;
        outcome.transitions += result.transitions;
        outcome.max_depth = outcome.max_depth.max(result.max_depth);
        outcome.truncated |= result.truncated;
        outcome.coverage.merge(&result.coverage);
        if first_failure.is_none() {
            if let Some(trace) = result.failure_trace {
                first_failure = Some((prefix, trace));
            }
        }
    }

    if let Some((prefix, trace)) = first_failure {
        // Reconstruct the failure by replaying the recorded trace —
        // the identical path whether the shard was freshly searched or
        // cache-loaded — then shrink at merge time.
        let mut raw = space.reproduce(trace);
        raw.prefix_len = prefix.len();
        outcome.counterexample = Some(space.shrink(raw.clone()));
        outcome.raw_counterexample = Some(raw);
    }

    log.wall_ms = t0.elapsed().as_millis() as u64;
    (outcome, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostwriter_core::harness::Op;

    fn no_cache() -> ShardOptions {
        ShardOptions {
            use_cache: false,
            ..Default::default()
        }
    }

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
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "colliding keys: {keys:?}");
    }

    /// The payload/data split changed the *representation* of in-flight
    /// messages but not the logical state space, and the fingerprint
    /// hashes logical messages, so cached shard records stay valid:
    /// CHECK_REVISION must not silently drift. Anyone bumping it should
    /// have changed the searched semantics, not just the encoding.
    #[test]
    fn check_revision_pinned() {
        assert_eq!(CHECK_REVISION, 3);
        assert!(SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
            .key()
            .starts_with("check-rev=3|"));
    }

    #[test]
    fn shard_result_round_trips_through_cache_record() {
        let mut r = ShardResult {
            states: 7,
            transitions: 19,
            max_depth: 11,
            truncated: true,
            ..Default::default()
        };
        r.coverage.l1[0] = 3;
        r.coverage.dir[5] = 9;
        r.failure_trace = Some(vec![
            Action::Issue {
                core: 0,
                step: Step {
                    block: 1,
                    op: Op::Store,
                },
            },
            Action::Deliver { src: 0, dst: 2 },
        ]);
        let text = r.canonical_text();
        let back = ShardResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.canonical_text(), text);
        assert_eq!(back.states, 7);
        assert_eq!(back.failure_trace, r.failure_trace);
        assert_eq!(back.coverage.l1[0], 3);
    }

    #[test]
    fn plan_depth_zero_is_one_root() {
        let spec = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 1);
        let space = Space::new(&spec);
        let plan = plan_shards(&space, Some(0));
        assert_eq!(plan.depth, 0);
        assert_eq!(plan.prefixes.len(), 1);
        assert!(plan.prefixes[0].0.is_empty());
        assert_eq!(plan.states, 1);
    }

    #[test]
    fn deeper_plans_have_deduped_roots() {
        let spec = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2);
        let space = Space::new(&spec);
        let plan = plan_shards(&space, Some(2));
        assert_eq!(plan.depth, 2);
        assert!(plan.prefixes.len() > 1);
        // Roots are distinct states by construction.
        let keys: std::collections::HashSet<_> = plan
            .prefixes
            .iter()
            .map(|(_, sys, budgets)| state_key(sys, *budgets))
            .collect();
        assert_eq!(keys.len(), plan.prefixes.len());
    }

    #[test]
    fn sharded_sweep_matches_across_shard_depths() {
        // Different shard depths re-partition the same space: the
        // failure verdict and coverage must agree even though state
        // counts differ (per-shard revisits).
        let spec = SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2);
        let (at0, _) = run_sweep(
            &spec,
            &ShardOptions {
                shard_depth: Some(0),
                ..no_cache()
            },
        );
        let (at2, _) = run_sweep(
            &spec,
            &ShardOptions {
                shard_depth: Some(2),
                ..no_cache()
            },
        );
        assert!(at0.counterexample.is_none() && at2.counterexample.is_none());
        assert!(!at0.truncated && !at2.truncated);
        for (a, b) in at0.coverage.l1.iter().zip(&at2.coverage.l1) {
            assert_eq!(*a > 0, *b > 0);
        }
        for (a, b) in at0.coverage.dir.iter().zip(&at2.coverage.dir) {
            assert_eq!(*a > 0, *b > 0);
        }
    }

    #[test]
    fn mutated_sweep_reports_prefix_and_replay_command() {
        let spec = SweepSpec {
            mutation: Some(Mutation::SkipInvalidation),
            ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
        };
        let (outcome, _) = run_sweep(
            &spec,
            &ShardOptions {
                shard_depth: Some(2),
                ..no_cache()
            },
        );
        let raw = outcome.raw_counterexample.expect("mutation caught");
        assert_eq!(raw.prefix_len, 2, "raw trace keeps the shard prefix");
        let described = raw.describe(&spec);
        assert!(described.contains("shard prefix (2 actions):"));
        assert!(described.contains("[shard prefix]"));
        assert!(described.contains("replay: gwcheck --protocol mesi"));
        let shrunk = outcome.counterexample.expect("shrunk present");
        assert!(shrunk.trace.len() <= 20);
        assert!(shrunk.describe(&spec).contains("--replay "));
    }
}
