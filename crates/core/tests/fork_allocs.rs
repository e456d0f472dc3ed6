//! A checker fork shares the controllers instead of copying them.
//!
//! A counting global allocator tallies the allocations `System::clone`
//! makes. The L1s and directory banks are shared copy-on-write, so a
//! fork allocates only the per-system lists and never once per
//! controller: a 2-core and a 4-core system of one shape fork with the
//! same number of allocations. Deep-copying the controllers would cost
//! several allocations per L1 and per bank.

mod counting_alloc;

use counting_alloc::allocs;
use ghostwriter_core::dir::DirBank;
use ghostwriter_core::l1::L1Cache;
use ghostwriter_core::{Op, System, SystemConfig};
use ghostwriter_mem::SetAssocCache;

/// The checker moves forks to pool workers (`Send`) while their
/// controllers stay shared between threads (`Sync`).
fn send_and_sync<T: Send + Sync>() {}

const _: [fn(); 4] = [
    send_and_sync::<System>,
    send_and_sync::<L1Cache>,
    send_and_sync::<DirBank>,
    send_and_sync::<SetAssocCache<u64>>,
];

/// A `cores`-core system that has run one store to completion (so an
/// L1 line and a directory entry are populated), with a second store in
/// flight, and the allocations one fork of it makes.
fn fork_allocs(cores: usize) -> u64 {
    let mut sys = System::new(SystemConfig {
        cores,
        blocks: 2,
        ..SystemConfig::default()
    });
    sys.issue(0, 0, Op::Store).unwrap();
    while let Some(&key) = sys.channels().first() {
        sys.deliver(key).unwrap();
    }
    sys.issue(1, 1, Op::Store).unwrap();
    assert!(!sys.channels().is_empty());
    let before = allocs();
    let fork = sys.clone();
    let made = allocs() - before;
    assert_eq!(fork.fingerprint(), sys.fingerprint());
    made
}

#[test]
fn fork_allocations_do_not_grow_with_cores() {
    let two = fork_allocs(2);
    let four = fork_allocs(4);
    assert_eq!(
        two, four,
        "a 2-core fork made {two} allocations, a 4-core fork {four}"
    );
}
