//! A forked harness `System` is isolated from its parent.
//!
//! `System::clone` shares the L1s and directory banks copy-on-write, so
//! a step applied to a fork must leave the parent exactly as it was, and
//! a step applied to the parent must leave the fork alone. Seeded random
//! walks over every action kind (with recovery on, so drops, duplicates,
//! taints and retries are all enabled) fork before each step, apply the
//! step to the fork, and check both sides against an unforked replay of
//! the same path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ghostwriter_core::l1::GwParams;
use ghostwriter_core::{
    GiStorePolicy, Op, RecoveryParams, ScribePolicy, System, SystemConfig, Violation,
};

/// One harness action.
#[derive(Clone, Copy, Debug)]
enum Step {
    Issue { core: usize, block: usize, op: Op },
    Deliver((usize, usize)),
    GiTimeout(usize),
    ContextSwitch(usize),
    Retry(usize),
    Drop((usize, usize)),
    Duplicate((usize, usize)),
    Taint((usize, usize)),
}

/// Coverage slot of each action kind; deliveries split by receiver.
const KINDS: [&str; 10] = [
    "issue",
    "deliver to an L1",
    "deliver to a bank",
    "deliver to memory",
    "GI timeout",
    "context switch",
    "retry",
    "drop",
    "duplicate",
    "taint",
];

fn kind(step: Step, cores: usize) -> usize {
    match step {
        Step::Issue { .. } => 0,
        Step::Deliver((_, dst)) if dst < cores => 1,
        Step::Deliver((_, dst)) if dst < 2 * cores => 2,
        Step::Deliver(_) => 3,
        Step::GiTimeout(_) => 4,
        Step::ContextSwitch(_) => 5,
        Step::Retry(_) => 6,
        Step::Drop(_) => 7,
        Step::Duplicate(_) => 8,
        Step::Taint(_) => 9,
    }
}

fn config(cores: usize) -> SystemConfig {
    SystemConfig {
        cores,
        blocks: 2,
        l1_sets: 1,
        l1_ways: 2,
        l2_sets: 1,
        l2_ways: 2,
        gw: Some(GwParams {
            scribe: ScribePolicy::Bitwise,
            enable_gs: true,
            enable_gi: true,
            gi_stores: GiStorePolicy::Fallback,
            max_hidden_writes: Some(3),
        }),
        recovery: Some(RecoveryParams {
            max_retries: 8,
            ..RecoveryParams::checker()
        }),
        ..SystemConfig::default()
    }
}

fn apply(sys: &mut System, step: Step) -> Result<(), Violation> {
    match step {
        Step::Issue { core, block, op } => sys.issue(core, block, op),
        Step::Deliver(key) => sys.deliver(key),
        Step::GiTimeout(core) => sys.gi_timeout(core),
        Step::ContextSwitch(core) => sys.context_switch(core),
        Step::Retry(core) => sys.retry(core).map(|_| ()),
        Step::Drop(key) => {
            sys.drop_message(key).expect("dropped head present");
            Ok(())
        }
        Step::Duplicate(key) => {
            assert!(sys.duplicate_head(key));
            Ok(())
        }
        Step::Taint(key) => {
            assert!(sys.taint_head(key));
            Ok(())
        }
    }
}

/// Every action enabled in `sys`; faults only while `faults` is set.
fn enabled(sys: &System, faults: bool) -> Vec<Step> {
    let cfg = sys.config();
    let mut steps = Vec::new();
    for core in sys.idle_cores() {
        for block in 0..cfg.blocks {
            steps.push(Step::Issue {
                core,
                block,
                op: Op::Store,
            });
            steps.push(Step::Issue {
                core,
                block,
                op: Op::Load {
                    writer: (core + block) % cfg.cores,
                },
            });
            steps.push(Step::Issue {
                core,
                block,
                op: Op::Scribble { d: 4 },
            });
        }
        steps.push(Step::ContextSwitch(core));
    }
    for key in sys.channels() {
        steps.push(Step::Deliver(key));
        if faults && sys.head_faultable(key) {
            steps.push(Step::Drop(key));
            steps.push(Step::Duplicate(key));
        }
        if faults && sys.head_corruptible(key) {
            steps.push(Step::Taint(key));
        }
    }
    for core in 0..cfg.cores {
        if sys.needs_retry(core) {
            steps.push(Step::Retry(core));
        }
        if sys.has_gi(core) {
            steps.push(Step::GiTimeout(core));
        }
    }
    steps
}

/// Every in-flight channel with the debug rendering of its head.
fn heads(sys: &System) -> Vec<((usize, usize), String)> {
    sys.channels()
        .into_iter()
        .map(|key| {
            let head = sys.peek_channel(key).expect("listed channel has a head");
            (key, format!("{head:?}"))
        })
        .collect()
}

/// `path` applied to a fresh system with no forks.
fn replay(cfg: SystemConfig, path: &[Step]) -> (System, Result<(), Violation>) {
    let mut sys = System::new(cfg);
    let (last, prefix) = path.split_last().expect("non-empty path");
    for &step in prefix {
        apply(&mut sys, step).expect("the walk only extends clean paths");
    }
    let result = apply(&mut sys, *last);
    (sys, result)
}

/// One seeded walk of up to `len` steps; tallies the kinds it applied.
fn walk(cores: usize, seed: u64, len: usize, seen: &mut [usize; KINDS.len()]) {
    let cfg = config(cores);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = System::new(cfg);
    let mut path = Vec::new();
    let mut faults_left = 4;
    for i in 0..len {
        let steps = enabled(&sys, faults_left > 0);
        if steps.is_empty() {
            break;
        }
        let step = steps[rng.gen_range(0..steps.len())];
        if matches!(step, Step::Drop(_) | Step::Duplicate(_) | Step::Taint(_)) {
            faults_left -= 1;
        }
        seen[kind(step, cores)] += 1;

        let parent_fp = sys.fingerprint();
        let parent_heads = heads(&sys);
        let mut fork = sys.clone();
        let result = apply(&mut fork, step);
        assert_eq!(
            sys.fingerprint(),
            parent_fp,
            "seed {seed} step {i}: {step:?} on a fork changed the parent"
        );
        assert_eq!(heads(&sys), parent_heads, "seed {seed} step {i}: {step:?}");

        path.push(step);
        let (unforked, replayed) = replay(cfg, &path);
        assert_eq!(result, replayed, "seed {seed} step {i}: {step:?}");
        assert_eq!(
            fork.fingerprint(),
            unforked.fingerprint(),
            "seed {seed} step {i}: {step:?} on a fork diverged from the replay"
        );
        if result.is_err() {
            break;
        }

        // Continue from the fork on even steps. On odd ones step the
        // parent too, while the fork still shares its controllers: the
        // fork must not see the parent's write.
        if i % 2 == 0 {
            sys = fork;
        } else {
            let fork_fp = fork.fingerprint();
            let fork_heads = heads(&fork);
            apply(&mut sys, step).expect("the fork took the same step cleanly");
            assert_eq!(fork.fingerprint(), fork_fp, "seed {seed} step {i}");
            assert_eq!(heads(&fork), fork_heads, "seed {seed} step {i}");
            assert_eq!(sys.fingerprint(), fork_fp, "seed {seed} step {i}");
        }
    }
}

#[test]
fn forks_never_leak_into_each_other() {
    let mut seen = [0; KINDS.len()];
    for cores in [2, 3] {
        for seed in 0..24 {
            walk(cores, seed, 60, &mut seen);
        }
    }
    for (name, n) in KINDS.iter().zip(seen) {
        assert!(n > 0, "no walk took a {name} step: {seen:?}");
    }
}
