//! The harness context-switch step allocates nothing.
//!
//! A counting global allocator tallies the allocations the test thread
//! makes while `System::context_switch` forfeits an L1 holding one GS
//! and one GI line. The L1 rewrites the lines in place, and the PutS it
//! sends fits the capacity the in-flight list already has, so the step
//! makes no allocation at all.

mod counting_alloc;

use counting_alloc::allocs;
use ghostwriter_core::l1::GwParams;
use ghostwriter_core::{GiStorePolicy, Op, ScribePolicy, System, SystemConfig};

fn deliver_all(sys: &mut System) {
    while let Some(&key) = sys.channels().first() {
        sys.deliver(key).unwrap();
    }
}

/// A Ghostwriter 2-core system whose core 0 holds block 0 in GS (a
/// scribble on a shared line) and block 1 in GI (a scribble on a line
/// core 1's store invalidated), with nothing in flight.
fn gs_and_gi_on_core0() -> System {
    let mut sys = System::new(SystemConfig {
        cores: 2,
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
        ..SystemConfig::default()
    });
    for (core, block, op) in [
        (0, 0, Op::Load { writer: 0 }),
        (1, 0, Op::Load { writer: 0 }),
        (0, 0, Op::Scribble { d: 4 }),
        (0, 1, Op::Load { writer: 0 }),
        (1, 1, Op::Store),
        (0, 1, Op::Scribble { d: 4 }),
    ] {
        sys.issue(core, block, op).unwrap();
        deliver_all(&mut sys);
    }
    assert!(sys.has_gi(0), "core 0 holds a GI line");
    sys
}

#[test]
fn context_switch_allocates_nothing() {
    // The first switch warms the harness's thread-local outbox.
    gs_and_gi_on_core0().context_switch(0).unwrap();

    let mut sys = gs_and_gi_on_core0();
    let evictions = sys.stats().approx_evictions;
    let before = allocs();
    sys.context_switch(0).unwrap();
    let made = allocs() - before;
    assert_eq!(made, 0, "the context switch made {made} allocations");

    // Both lines were forfeited, and only the GS one sent a PutS.
    assert_eq!(sys.stats().approx_evictions, evictions + 2);
    assert!(!sys.has_gi(0));
    assert_eq!(sys.channels().len(), 1);
    deliver_all(&mut sys);
    sys.check_quiescent().unwrap();
}
