//! The simulated L1-hit path allocates nothing per operation.
//!
//! A counting global allocator tallies the allocations the test thread
//! makes while a 2-core machine runs an all-hit loop. Building and
//! tearing down the machine costs a fixed number of allocations; if the
//! count grew with the number of operations, some per-op path (the
//! generator resume, the L1 access, the event queue or the reply) had
//! started to allocate.

mod counting_alloc;

use counting_alloc::allocs;
use ghostwriter_core::{Machine, MachineConfig, Protocol};

/// Builds a 2-core machine whose threads each load and store their own
/// padded block `iters` times (every access after the first is an L1
/// hit), and returns the allocations the run makes, with the number of
/// simulated accesses.
fn run_hits(protocol: Protocol, iters: u32) -> (u64, u64) {
    let mut m = Machine::new(MachineConfig::small(2, protocol));
    for _ in 0..2 {
        let slot = m.alloc_padded(64);
        m.add_thread(move |ctx| async move {
            for i in 0..iters {
                let v = ctx.load_u32(slot).await;
                ctx.store_u32(slot, v.wrapping_add(i)).await;
            }
        });
    }
    let before = allocs();
    let run = m.run();
    let made = allocs() - before;
    let s = &run.report.stats;
    assert_eq!(s.l1_misses(), 2, "one cold miss per core, then hits");
    (made, s.loads + s.stores)
}

#[test]
fn hit_path_allocations_do_not_grow_with_ops() {
    for protocol in [Protocol::Mesi, Protocol::ghostwriter()] {
        // The first run warms the thread-local recycled event queue.
        run_hits(protocol, 1_000);
        let (n_allocs, n_ops) = run_hits(protocol, 5_000);
        let (n2_allocs, n2_ops) = run_hits(protocol, 10_000);
        assert_eq!(n2_ops, 2 * n_ops);
        assert!(
            n2_allocs <= n_allocs,
            "{protocol:?}: {n_ops} ops made {n_allocs} allocations, \
             {n2_ops} ops made {n2_allocs}"
        );
    }
}
