//! The sweep's visited set: 64-bit hash-compacted state keys in one
//! open-addressed table, split into partitions by the key's top bits.
//!
//! A search state is a 128-bit [`System::fingerprint`] plus the packed
//! per-core budgets. [`state_key`] folds the budgets into the
//! fingerprint and keeps 64 bits of it, so a visited state costs one
//! `u64` slot: Stern & Dill's hash compaction ("Improved probabilistic
//! verification by hash compaction", CHARME 1995). Two distinct states
//! share a key with probability 2⁻⁶⁴, so a search over `n` states sees
//! any collision at all with probability at most n²/2⁶⁵ (see
//! docs/checking.md §4 for the figures at the sweep sizes). A collision
//! could only prune a state the search never visited; it cannot add a
//! failure.
//!
//! Each partition is a linear-probing table that grows on its own, so
//! growth never copies the whole table at once, and a partition
//! allocates nothing until its first insert: the thousands of tiny
//! per-program searches stay as cheap as their few states.

use ghostwriter_core::harness::System;

use crate::Budgets;

/// The key's top `PARTITION_BITS` bits pick its partition.
const PARTITION_BITS: u32 = 6;
const PARTITIONS: usize = 1 << PARTITION_BITS;
/// Slots a partition allocates at its first insert.
const FIRST_SLOTS: usize = 16;
/// Odd multiplier that spreads the budgets over all 64 bits (and is a
/// bijection, so equal fingerprints with distinct budgets never share
/// a key).
const BUDGET_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The compacted key of the search state (`sys`, `budgets`): the
/// fingerprint's halves and the mixed budgets XORed together. Never 0,
/// which marks an empty slot.
pub fn state_key(sys: &System, budgets: Budgets) -> u64 {
    compact(sys.fingerprint(), budgets.bits())
}

fn compact(fingerprint: u128, budgets: u64) -> u64 {
    let key = (fingerprint >> 64) as u64 ^ fingerprint as u64 ^ budgets.wrapping_mul(BUDGET_MIX);
    key.max(1)
}

/// A set of non-zero 64-bit keys.
pub struct VisitedSet {
    parts: [Partition; PARTITIONS],
    len: usize,
}

#[derive(Default)]
struct Partition {
    /// Power-of-two many slots (or none yet); 0 is empty.
    slots: Vec<u64>,
    len: usize,
}

impl Default for VisitedSet {
    fn default() -> Self {
        Self {
            parts: std::array::from_fn(|_| Partition::default()),
            len: 0,
        }
    }
}

impl VisitedSet {
    /// Inserts `key`; true if it was not yet present.
    pub fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, 0, "0 marks an empty slot");
        let part = &mut self.parts[(key >> (64 - PARTITION_BITS)) as usize];
        // Grow at three-quarters full (and at the first insert).
        if 4 * (part.len + 1) > 3 * part.slots.len() {
            part.grow();
        }
        if part.place(key) {
            part.len += 1;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Partition {
    /// Puts `key` in its slot unless it is there already; true if it
    /// was placed. The table must have a free slot.
    fn place(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = key as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(FIRST_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; slots]);
        for key in old.into_iter().filter(|&k| k != 0) {
            self.place(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_counts() {
        let mut set = VisitedSet::default();
        assert!(set.is_empty());
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert!(set.insert(u64::MAX));
        assert!(!set.insert(u64::MAX));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn one_partition_grows_alone_and_keeps_its_keys() {
        // Every key below has the same top bits, so all land in one
        // partition, which must grow many times over.
        let mut set = VisitedSet::default();
        let keys: Vec<u64> = (1..=5_000u64).collect();
        for &k in &keys {
            assert!(set.insert(k));
        }
        let part = &set.parts[0];
        assert_eq!(part.len, keys.len());
        assert!(part.slots.len() >= 4 * keys.len() / 3);
        assert!(set.parts[1..].iter().all(|p| p.slots.is_empty()));
        for &k in &keys {
            assert!(!set.insert(k), "{k:#x} lost in growth");
        }
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn a_new_set_allocates_nothing() {
        let set = VisitedSet::default();
        assert!(set.parts.iter().all(|p| p.slots.capacity() == 0));
    }

    #[test]
    fn zero_keys_remap_to_one() {
        // A fingerprint whose halves cancel, with no budgets left.
        let fp = (0xDEAD_BEEF_u128 << 64) | 0xDEAD_BEEF;
        assert_eq!(compact(fp, 0), 1);
        assert_eq!(compact(1, 0), 1);
        let mut set = VisitedSet::default();
        assert!(set.insert(compact(fp, 0)));
        assert!(!set.insert(compact(1, 0)));
    }

    #[test]
    fn distinct_budgets_never_share_a_key() {
        let fp = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210_u128;
        let keys: std::collections::HashSet<u64> = (0..4096).map(|b| compact(fp, b)).collect();
        assert_eq!(keys.len(), 4096);
    }
}
