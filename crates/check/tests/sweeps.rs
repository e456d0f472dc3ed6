//! Exhaustive small-configuration sweeps (the acceptance gate): every
//! interleaving of every bounded program must be invariant-clean for
//! every protocol of the family ladder — MESI, MSI, MOESI, MOSI, MESIF,
//! Ghostwriter and Ghostwriter-over-MOESI. Bounded to seconds-to-tens of
//! seconds; the deeper sweeps live behind `--ignored`.

use ghostwriter_check::{sweep, Failure, Mutation, ProtocolKind};
use ghostwriter_core::harness::Violation;
use ghostwriter_core::L1RowId;

fn assert_clean(kind: ProtocolKind, cores: usize, blocks: usize, ops: usize) {
    let report = sweep(kind, cores, blocks, ops, false, None);
    if let Some((program, cex)) = &report.counterexample {
        panic!(
            "{kind:?} {cores}c/{blocks}b sweep found a violation\nprogram: {program:?}\n{}",
            cex.render(cores)
        );
    }
    assert!(
        !report.truncated,
        "{kind:?} sweep was truncated, not exhaustive"
    );
    assert!(report.programs > 0 && report.states > report.programs);
    assert!(
        !report.coverage.is_empty(),
        "{kind:?} sweep recorded no transition coverage"
    );
}

#[test]
fn mesi_two_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Mesi, 2, 1, 2);
}

#[test]
fn msi_two_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Msi, 2, 1, 2);
}

#[test]
fn ghostwriter_two_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Ghostwriter, 2, 1, 2);
}

// The O/F protocol regions (dirty sharing, writeback elision, clean
// forwarding and their races) need a second block in the pool before
// they fully appear, so the new family members gate at 2c/2b.

#[test]
fn moesi_two_core_two_block_exhaustive() {
    assert_clean(ProtocolKind::Moesi, 2, 2, 2);
}

#[test]
fn mosi_two_core_two_block_exhaustive() {
    assert_clean(ProtocolKind::Mosi, 2, 2, 2);
}

#[test]
fn mesif_two_core_two_block_exhaustive() {
    assert_clean(ProtocolKind::Mesif, 2, 2, 2);
}

#[test]
fn ghostwriter_over_moesi_two_core_one_block_exhaustive() {
    // GW-over-MOESI is a configuration, not a fork: the scribble rows
    // compose with the Owned-state rows in one checked row set.
    assert_clean(ProtocolKind::GhostwriterMoesi, 2, 1, 2);
}

#[test]
fn ghostwriter_with_timeout_interleavings() {
    // Two-step programs with GI-timeout sweeps woven into the schedule:
    // the timeout path must be race-free too. Two ops per core is the
    // minimum that forms a GI line at all (the victim needs an op to
    // acquire a tag and another to scribble it after invalidation), so
    // ops=1 would make this sweep vacuous.
    let report = sweep(ProtocolKind::Ghostwriter, 2, 1, 2, true, None);
    if let Some((program, cex)) = &report.counterexample {
        panic!(
            "timeout sweep violation\nprogram: {program:?}\n{}",
            cex.render(2)
        );
    }
    assert!(!report.truncated);
    assert!(
        report.coverage.l1_hits(L1RowId::GiTimeout) > 0,
        "timeout interleavings must exercise the gi_timeout row"
    );
}

#[test]
fn mutations_are_caught_by_the_sweep() {
    // The sweep must be able to find both seeded bugs on its own —
    // no hand-picked program.
    let skip = sweep(
        ProtocolKind::Mesi,
        2,
        1,
        2,
        false,
        Some(Mutation::SkipInvalidation),
    );
    let (_, cex) = skip
        .counterexample
        .expect("skipped invalidation must be caught");
    assert!(cex.trace.len() <= 20, "not shrunk:\n{}", cex.render(2));

    let drop = sweep(
        ProtocolKind::Mesi,
        2,
        1,
        2,
        false,
        Some(Mutation::DropInvAck),
    );
    let (_, cex) = drop.counterexample.expect("dropped ack must be caught");
    assert!(cex.trace.len() <= 20, "not shrunk:\n{}", cex.render(2));
}

#[test]
fn deleted_gi_timeout_row_caught_as_protocol_error() {
    // The table-level mutation: deleting the gi_timeout row from the
    // shared transition table must surface as a typed ProtocolError the
    // first time a schedule fires a timeout sweep on a live GI line —
    // found by the exhaustive search and shrunk like any other bug.
    let mutation = Mutation::parse("delete-row:gi_timeout").expect("known row name");
    let report = sweep(ProtocolKind::Ghostwriter, 2, 1, 2, true, Some(mutation));
    let (_, cex) = report
        .counterexample
        .expect("deleted gi_timeout row must be caught");
    assert!(
        matches!(cex.failure, Failure::Invariant(Violation::Protocol(_))),
        "expected a protocol error, got: {}",
        cex.failure
    );
    assert!(cex.trace.len() <= 20, "not shrunk:\n{}", cex.render(2));
}

#[test]
fn unknown_row_names_do_not_parse() {
    assert!(Mutation::parse("delete-row:no_such_row").is_none());
    assert!(Mutation::parse("delete-row:").is_none());
}

// ---- differential: unified sharded search vs per-program sweep -------
//
// The unified search replaces the per-program outer loop with one
// search (Issue actions choose the step, budgeted per core). The
// program family is the full cartesian product of the alphabet, so
// every (program, interleaving) path exists in the unified space and
// vice versa: both strategies must agree that a config is clean and
// must exercise exactly the same set of transition rows.

fn assert_unified_matches_per_program(kind: ProtocolKind, gi: bool) {
    use ghostwriter_check::{run_sweep, ShardOptions, SweepSpec};
    let per_program = sweep(kind, 2, 1, 2, gi, None);
    assert!(per_program.counterexample.is_none() && !per_program.truncated);

    let spec = SweepSpec {
        gi_timeouts: gi,
        ..SweepSpec::new(kind, 2, 1, 2)
    };
    // Depth 0 = a single shard with one visited set, so `states` is
    // the exact distinct-state count of the unified space (deeper
    // plans deterministically over-count states that sibling shards
    // both reach; see docs/checking.md).
    let opts = ShardOptions {
        jobs: 2,
        shard_depth: Some(0),
        use_cache: false,
        ..Default::default()
    };
    let (unified, _) = run_sweep(&spec, &opts);
    assert!(unified.counterexample.is_none() && !unified.truncated);

    for (i, (a, b)) in per_program
        .coverage
        .l1
        .iter()
        .zip(&unified.coverage.l1)
        .enumerate()
    {
        assert_eq!(
            *a > 0,
            *b > 0,
            "{kind:?} gi={gi}: strategies disagree on reaching L1 row {i}"
        );
    }
    for (i, (a, b)) in per_program
        .coverage
        .dir
        .iter()
        .zip(&unified.coverage.dir)
        .enumerate()
    {
        assert_eq!(
            *a > 0,
            *b > 0,
            "{kind:?} gi={gi}: strategies disagree on reaching dir row {i}"
        );
    }
    // Prefix dedup must actually collapse the search: the unified
    // search visits strictly fewer states than the per-program
    // strategy's total across its whole program family.
    assert!(
        unified.states < per_program.states as u64,
        "{kind:?} gi={gi}: unified search ({}) not smaller than per-program ({})",
        unified.states,
        per_program.states
    );
}

#[test]
fn unified_search_matches_per_program_sweep_mesi() {
    assert_unified_matches_per_program(ProtocolKind::Mesi, false);
}

#[test]
fn unified_search_matches_per_program_sweep_ghostwriter_with_timeouts() {
    assert_unified_matches_per_program(ProtocolKind::Ghostwriter, true);
}

// ---- deeper sweeps, seconds-to-minutes: `cargo test -- --ignored` ----

#[test]
#[ignore]
fn mesi_two_core_two_block_exhaustive() {
    assert_clean(ProtocolKind::Mesi, 2, 2, 2);
}

#[test]
#[ignore]
fn mesi_three_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Mesi, 3, 1, 2);
}

#[test]
#[ignore]
fn ghostwriter_two_core_two_block_exhaustive() {
    assert_clean(ProtocolKind::Ghostwriter, 2, 2, 2);
}

#[test]
#[ignore]
fn moesi_three_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Moesi, 3, 1, 2);
}

#[test]
#[ignore]
fn mosi_three_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Mosi, 3, 1, 2);
}

#[test]
#[ignore]
fn mesif_three_core_one_block_exhaustive() {
    assert_clean(ProtocolKind::Mesif, 3, 1, 2);
}

#[test]
#[ignore]
fn ghostwriter_over_moesi_two_core_two_block_exhaustive() {
    assert_clean(ProtocolKind::GhostwriterMoesi, 2, 2, 2);
}

#[test]
#[ignore]
fn ghostwriter_three_core_timeouts_exhaustive() {
    let report = sweep(ProtocolKind::Ghostwriter, 3, 1, 1, true, None);
    if let Some((program, cex)) = &report.counterexample {
        panic!("violation\nprogram: {program:?}\n{}", cex.render(3));
    }
    assert!(!report.truncated);
}
