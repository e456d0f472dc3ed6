//! `System::check_swmr` counts every block's copies in one pass over
//! each L1's resident lines. Seeded walks over all five base protocols
//! compare it, after every step, with the per-block probe of every L1
//! written out below: both must return the same `Violation`, or both
//! none.
//!
//! Walks that skip invalidations (the L1 never sees the INV, the
//! directory gets its ack anyway, as the checker's `skip-inv` mutation
//! does) drive the system into states with two writers, or a writer
//! beside sharers, so both violations are compared, not just the clean
//! verdict. Other walks delete a transition-table row and stop at the
//! step that fires it, comparing the state it leaves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ghostwriter_core::l1::{GwParams, L1State};
use ghostwriter_core::msg::{Msg, Payload, PayloadCtl, WireTag};
use ghostwriter_core::{
    BaseProtocol, GiStorePolicy, Op, ScribePolicy, System, SystemConfig, Violation,
};

/// Rows deleted by the `disabled_row` walks: invalidation, forwarding,
/// eviction and fill rows across the protocol family.
const DELETED_ROWS: [&str; 6] = [
    "inv_s",
    "inv_owned",
    "fwd_gets_m_to_o",
    "evict_m",
    "data_fill_f",
    "inv_ack_last_getx",
];

/// SWMR by probing every L1 for every pool block, in block order: the
/// reference `check_swmr` must agree with.
fn probe(sys: &System) -> Result<(), Violation> {
    let cfg = sys.config();
    for block in 0..cfg.blocks {
        let (mut exclusive, mut owned, mut readable) = (0, 0, 0);
        for core in 0..cfg.cores {
            match sys.l1_state(core, block) {
                Some(L1State::M | L1State::E) => exclusive += 1,
                Some(L1State::O) => owned += 1,
                Some(L1State::S | L1State::F) => readable += 1,
                _ => {}
            }
        }
        if exclusive + owned > 1 {
            return Err(Violation::MultipleWriters {
                block,
                writers: exclusive + owned,
            });
        }
        if exclusive == 1 && readable > 0 {
            return Err(Violation::WriterWithSharers {
                block,
                sharers: readable,
            });
        }
    }
    Ok(())
}

fn config(seed: u64, rng: &mut StdRng) -> SystemConfig {
    let base = BaseProtocol::ALL[(seed % 5) as usize];
    let gw = seed.is_multiple_of(3).then_some(GwParams {
        scribe: ScribePolicy::Bitwise,
        enable_gs: true,
        enable_gi: true,
        gi_stores: GiStorePolicy::Fallback,
        max_hidden_writes: None,
    });
    // Every third walk deletes a row (the other walks skip
    // invalidations instead), offset so each row meets several bases.
    let disabled_row = (seed % 3 == 1).then(|| DELETED_ROWS[(seed / 3) as usize % 6]);
    SystemConfig {
        cores: rng.gen_range(2..=4),
        blocks: rng.gen_range(2..=5),
        l1_sets: 1,
        l1_ways: 2,
        l2_sets: 2,
        l2_ways: 2,
        gw,
        base,
        disabled_row,
        recovery: None,
    }
}

/// Delivers the head of `key`, or, if it is an INV and `skip` is set,
/// swallows it and answers the directory with the ack it waits for.
fn deliver(sys: &mut System, key: (usize, usize), skip: bool) -> Result<(), Violation> {
    let is_inv = sys
        .peek_channel(key)
        .is_some_and(|m| matches!(m.payload, PayloadCtl::Inv));
    if !(skip && is_inv) {
        return sys.deliver(key);
    }
    let lost = sys.drop_message(key).expect("peeked head present");
    sys.inject(Msg {
        src: lost.dst,
        dst: lost.src,
        block: lost.block,
        payload: Payload::InvAck,
        tag: WireTag::default(),
    });
    Ok(())
}

#[test]
fn one_pass_swmr_matches_the_per_block_probe() {
    let (mut compared, mut writers, mut with_sharers, mut row_errors) = (0, 0, 0, 0);
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = config(seed, &mut rng);
        let skip_invs = cfg.disabled_row.is_none() && seed % 3 == 2;
        let mut sys = System::new(cfg);
        for step in 0..400 {
            let idle: Vec<usize> = sys.idle_cores().collect();
            let channels = sys.channels();
            let result = if !idle.is_empty() && (channels.is_empty() || rng.gen_bool(0.35)) {
                let core = idle[rng.gen_range(0..idle.len())];
                let block = rng.gen_range(0..cfg.blocks);
                let op = match rng.gen_range(0..3) {
                    0 => Op::Load {
                        writer: rng.gen_range(0..cfg.cores),
                    },
                    1 if cfg.gw.is_some() => Op::Scribble { d: 4 },
                    _ => Op::Store,
                };
                sys.issue(core, block, op)
            } else if let Some(&key) = channels.get(rng.gen_range(0..channels.len().max(1))) {
                deliver(&mut sys, key, skip_invs && rng.gen_bool(0.5))
            } else {
                break;
            };
            let want = probe(&sys);
            assert_eq!(
                sys.check_swmr(),
                want,
                "seed {seed} step {step}: one-pass SWMR disagrees with the probe"
            );
            compared += 1;
            match want {
                Err(Violation::MultipleWriters { .. }) => writers += 1,
                Err(Violation::WriterWithSharers { .. }) => with_sharers += 1,
                _ => {}
            }
            if let Err(v) = result {
                // A deleted row fired (or the skipped INVs broke an
                // oracle): the state it left has been compared; the
                // controllers' contract ends there.
                row_errors += usize::from(matches!(v, Violation::Protocol(_)));
                break;
            }
        }
    }
    assert!(compared > 10_000, "only {compared} states compared");
    assert!(writers > 0, "no walk reached two writers");
    assert!(with_sharers > 0, "no walk reached a writer beside sharers");
    assert!(row_errors > 0, "no deleted row ever fired");
}
