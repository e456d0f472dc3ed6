//! Mutation-catalog regression suite (ISSUE PR 6): every seeded-bug
//! kind the checker supports is proven *caught* by the unified sweep,
//! with a shrunk counterexample of at most 20 steps.
//!
//! The `delete-row` cases pick one row per protocol region so a
//! search-space regression in any region (e.g. a geometry change that
//! silently stops exercising evictions) turns a test red rather than
//! quietly shrinking coverage:
//!
//! - `miss_load`          — the L1 load path
//! - `evict_m`            — L1 eviction (forced by `tight_l1`)
//! - `inv_ack_last_getx`  — directory invalidation collection
//! - `gi_timeout`         — the Ghostwriter GI timeout path
//! - `fwd_gets_m_to_o`    — the MOESI owner-data forward (M enters O)
//! - `evict_o`            — the O-eviction writeback (forced by `tight_l1`)
//! - `inv_owned`          — O invalidated by an upgrading sharer
//! - `data_fill_f`        — the MESIF Forward-grant fill
//! - `fwd_data_gets`      — the MESIF clean-forward chain at the directory

use ghostwriter_check::{run_sweep, Failure, Mutation, ProtocolKind, ShardOptions, SweepSpec};
use ghostwriter_core::harness::Violation;

fn opts() -> ShardOptions {
    ShardOptions {
        jobs: 4,
        use_cache: false,
        ..Default::default()
    }
}

/// Runs the sweep, asserts the mutation is caught with a ≤ 20-step
/// shrunk trace, and hands the failure to a per-case classifier.
fn assert_caught(spec: SweepSpec, classify: impl Fn(&Failure) -> bool) {
    let label = spec.label();
    let (outcome, _) = run_sweep(&spec, &opts());
    let cex = outcome
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: mutation not caught"));
    assert!(
        cex.trace.len() <= 20,
        "{label}: shrunk trace has {} steps (> 20):\n{}",
        cex.trace.len(),
        cex.describe(&spec)
    );
    assert!(
        classify(&cex.failure),
        "{label}: wrong failure class: {}",
        cex.failure
    );
    // The raw (pre-shrink) counterexample is kept next to the shrunk
    // one, so the report can say where the search found it.
    let raw = outcome.raw_counterexample.as_ref().expect("raw kept");
    assert!(raw.trace.len() >= cex.trace.len());
}

fn deleted_row(failure: &Failure, row: &str) -> bool {
    match failure {
        Failure::Invariant(Violation::Protocol(e)) => e.to_string().contains(row),
        _ => false,
    }
}

#[test]
fn skip_invalidation_breaks_swmr() {
    let spec = SweepSpec {
        mutation: Some(Mutation::SkipInvalidation),
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
    };
    assert_caught(spec, |f| {
        matches!(
            f,
            Failure::Invariant(
                Violation::WriterWithSharers { .. } | Violation::MultipleWriters { .. }
            )
        )
    });
}

#[test]
fn dropped_inv_ack_deadlocks() {
    let spec = SweepSpec {
        mutation: Some(Mutation::DropInvAck),
        ..SweepSpec::new(ProtocolKind::Mesi, 2, 1, 2)
    };
    assert_caught(spec, |f| matches!(f, Failure::Deadlock { .. }));
}

#[test]
fn deleted_l1_load_path_row_is_caught() {
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:miss_load"),
        ..SweepSpec::new(ProtocolKind::Mesi, 1, 1, 1)
    };
    assert!(spec.mutation.is_some());
    assert_caught(spec, |f| deleted_row(f, "miss_load"));
}

#[test]
fn deleted_l1_eviction_row_is_caught_under_tight_l1() {
    // The default sweep geometry sizes the L1 so nothing ever evicts;
    // `tight_l1` pins it to one way so a second block forces the
    // eviction path into the explored space.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:evict_m"),
        tight_l1: true,
        ..SweepSpec::new(ProtocolKind::Mesi, 1, 2, 2)
    };
    assert_caught(spec, |f| deleted_row(f, "evict_m"));
}

#[test]
fn deleted_directory_invalidation_row_is_caught() {
    // GetX-with-sharers needs a requester holding no copy while two
    // other cores share the block, so this region first appears at
    // three cores: Ld, Ld (S via owner downgrade), then St.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:inv_ack_last_getx"),
        ..SweepSpec::new(ProtocolKind::Mesi, 3, 1, 1)
    };
    assert_caught(spec, |f| deleted_row(f, "inv_ack_last_getx"));
}

#[test]
fn deleted_gi_timeout_row_is_caught() {
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:gi_timeout"),
        gi_timeouts: true,
        ..SweepSpec::new(ProtocolKind::Ghostwriter, 2, 1, 2)
    };
    assert_caught(spec, |f| deleted_row(f, "gi_timeout"));
}

#[test]
fn deleted_moesi_owner_forward_row_is_caught() {
    // First GETS on an M owner must take the M -> O transfer under
    // MOESI; with the row deleted the forward has nowhere to go.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:fwd_gets_m_to_o"),
        ..SweepSpec::new(ProtocolKind::Moesi, 2, 1, 1)
    };
    assert_caught(spec, |f| deleted_row(f, "fwd_gets_m_to_o"));
}

#[test]
fn deleted_o_eviction_writeback_row_is_caught() {
    // An O line holds the only valid bytes, so its eviction must write
    // back via PUTM; `tight_l1` plus a second block forces the eviction
    // into the explored space.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:evict_o"),
        tight_l1: true,
        ..SweepSpec::new(ProtocolKind::Moesi, 2, 2, 2)
    };
    assert_caught(spec, |f| deleted_row(f, "evict_o"));
}

#[test]
fn deleted_o_invalidation_row_is_caught() {
    // A sharer upgrading under MOESI invalidates the O owner (its clean
    // bytes match the owner's dirty ones); the owner needs `inv_owned`
    // to ack.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:inv_owned"),
        ..SweepSpec::new(ProtocolKind::Moesi, 2, 1, 2)
    };
    assert_caught(spec, |f| deleted_row(f, "inv_owned"));
}

#[test]
fn deleted_mesif_forward_fill_row_is_caught() {
    // MESIF answers the second reader with a Forward grant; the L1
    // needs `data_fill_f` to accept it.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:data_fill_f"),
        ..SweepSpec::new(ProtocolKind::Mesif, 2, 1, 1)
    };
    assert_caught(spec, |f| deleted_row(f, "data_fill_f"));
}

#[test]
fn deleted_mesif_clean_forward_row_is_caught() {
    // A third reader is served by the F holder, not the L2: the chain
    // E -> F -> forward first appears at three cores.
    let spec = SweepSpec {
        mutation: Mutation::parse("delete-row:fwd_data_gets"),
        ..SweepSpec::new(ProtocolKind::Mesif, 3, 1, 1)
    };
    assert_caught(spec, |f| deleted_row(f, "fwd_data_gets"));
}

#[test]
fn unknown_mutation_tokens_are_rejected() {
    assert!(Mutation::parse("delete-row:not_a_row").is_none());
    assert!(Mutation::parse("frobnicate").is_none());
}
