//! Golden state partition of the checker's small sweeps.
//!
//! `System::fingerprint` is an in-process hash: its bits may change
//! freely, but the partition of logical states it induces may not. This
//! suite pins that partition. For every sweep `gwcheck --cores 2
//! --blocks 1 --require-coverage` runs, plus one recovery-on sweep (so
//! the conditional recovery fields of the controller hashes are pinned
//! too), it records the label, the state and transition counts and the
//! outcome fingerprint, and compares them with
//! `tests/golden/sweep_partition.txt`. A hash collision merges two
//! states; a hash that depends on data-slot assignment splits one (the
//! fault sweep is where slot assignments diverge). Either shows up here
//! as a changed count. Insertion order of the controllers' keyed tables
//! never varies independently of the rest of the state in sweeps this
//! small; `block_order_hash_ignores_insertion_order` in the core harness
//! covers it.
//!
//! A second golden, `tests/golden/per_program_sweep.txt`, pins the
//! per-program strategy ([`sweep`]: one search per access program) the
//! same way: for MESI and Ghostwriter with GI timeouts at 2c/1b ops=2,
//! the summed program, state and transition counts and the transition
//! rows hit, with a fingerprint of the per-row counts.
//!
//! The shard cache is off, so every run really searches. Regenerate
//! (only for an intended change to the searched space) with
//! `UPDATE_GOLDEN=1 cargo test -p ghostwriter-check --test sweep_golden`.

use std::path::PathBuf;

use ghostwriter_check::{run_sweep, sweep, ProtocolKind, ShardOptions, SweepSpec};
use ghostwriter_exp::Fingerprint;

/// The sweep cells of `gwcheck --cores 2 --blocks 1 --require-coverage`
/// (every protocol at ops=2, then the supplementary Ghostwriter
/// `+gi-timeouts` sweep), followed by MESI with a one-fault budget.
fn golden_specs() -> Vec<SweepSpec> {
    let mut specs: Vec<SweepSpec> = ProtocolKind::ALL
        .iter()
        .map(|&kind| SweepSpec::new(kind, 2, 1, 2))
        .collect();
    specs.push(SweepSpec {
        gi_timeouts: true,
        ..SweepSpec::new(ProtocolKind::Ghostwriter, 2, 1, 2)
    });
    specs.push(SweepSpec {
        fault_budget: 1,
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 1)
    });
    specs
}

fn render() -> String {
    let opts = ShardOptions {
        jobs: 2,
        use_cache: false,
        ..Default::default()
    };
    let mut out = String::from("# label\tstates\ttransitions\toutcome fingerprint\n");
    for spec in golden_specs() {
        let (outcome, _) = run_sweep(&spec, &opts);
        assert!(
            outcome.counterexample.is_none() && !outcome.truncated,
            "{}: sweep must be clean and exhaustive",
            spec.label()
        );
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            spec.label(),
            outcome.states,
            outcome.transitions,
            outcome.fingerprint().hex()
        ));
    }
    out
}

/// The per-program sweeps' totals, one line per config.
fn render_per_program() -> String {
    let mut out = String::from(
        "# config\tprograms\tstates\ttransitions\tl1 rows hit\tdir rows hit\tcoverage fingerprint\n",
    );
    for (label, kind, gi) in [
        ("Mesi 2c/1b ops=2", ProtocolKind::Mesi, false),
        (
            "Ghostwriter 2c/1b ops=2 +gi-timeouts",
            ProtocolKind::Ghostwriter,
            true,
        ),
    ] {
        let report = sweep(kind, 2, 1, 2, gi, None);
        assert!(
            report.counterexample.is_none() && !report.truncated,
            "{label}: sweep must be clean and exhaustive"
        );
        let counts = format!("{:?} {:?}", report.coverage.l1, report.coverage.dir);
        let hit = |rows: &[u64]| rows.iter().filter(|&&n| n > 0).count();
        out.push_str(&format!(
            "{label}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            report.programs,
            report.states,
            report.transitions,
            hit(&report.coverage.l1),
            hit(&report.coverage.dir),
            Fingerprint::of(counts.as_bytes()).hex()
        ));
    }
    out
}

#[test]
fn sweep_partition_matches_golden() {
    assert_golden("sweep_partition.txt", &render());
}

#[test]
fn per_program_sweep_matches_golden() {
    assert_golden("per_program_sweep.txt", &render_per_program());
}

fn assert_golden(file: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with UPDATE_GOLDEN=1 cargo test \
             -p ghostwriter-check --test sweep_golden",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{file}: the checker's state partition changed: a fingerprint collision or an \
         order-dependent hash (see docs/checking.md)"
    );
}
