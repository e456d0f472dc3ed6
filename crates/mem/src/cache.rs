//! Generic set-associative cache array with per-line metadata and data.
//!
//! The coherence layer instantiates this twice: once per L1 (metadata = L1
//! coherence state) and once per L2 bank (metadata = directory entry). The
//! array itself knows nothing about coherence; it only manages tags, data,
//! and pseudo-LRU victims.

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use crate::addr::BlockAddr;
use crate::block::BlockData;
use crate::plru::TreePlru;

/// One cache line: a tagged block with caller-defined metadata.
#[derive(Clone, Debug, Hash)]
pub struct Line<M> {
    /// Block address held by this line (the full block number doubles as
    /// the tag; storing it whole costs nothing in a simulator).
    pub block: BlockAddr,
    pub meta: M,
    pub data: BlockData,
}

/// Result of a victim search for an insertion.
#[derive(Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The block is already present at this way.
    Hit { way: usize },
    /// A free way is available.
    Free { way: usize },
    /// The set is full; the pseudo-LRU way and its block are reported so
    /// the caller can run its eviction protocol.
    Victim { way: usize, block: BlockAddr },
}

/// A resident-line handle produced by one physical tag lookup.
///
/// The coherence layers thread one of these through an entire access or
/// message dispatch instead of re-probing the tag array at every helper:
/// [`SetAssocCache::line_at`], [`SetAssocCache::line_at_mut`],
/// [`SetAssocCache::touch_at`] and [`SetAssocCache::remove_at`] go
/// straight to the slot. The `gen` field snapshots the cache's residency
/// generation; using a token across an insertion or removal is a bug and
/// trips a debug assertion rather than corrupting an unrelated line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbedWay {
    set: u32,
    way: u32,
    gen: u32,
}

impl ProbedWay {
    /// Way within the set (for callers that insert at the same way after
    /// evicting through the token).
    #[inline]
    pub fn way(self) -> usize {
        self.way as usize
    }
}

/// Token-returning form of [`LookupResult`]: what an insertion of a block
/// would need, with resident lines handed back as [`ProbedWay`] tokens so
/// the caller never re-probes.
#[derive(Debug, PartialEq, Eq)]
pub enum WayLookup {
    /// The block is already resident; the token addresses its line.
    Hit(ProbedWay),
    /// A free way is available.
    Free { way: usize },
    /// The set is full; the token addresses the pseudo-LRU victim line
    /// (evict through [`SetAssocCache::remove_at`], then insert at the
    /// same way).
    Victim(ProbedWay),
}

/// Tag-array sentinel for a vacant way. Block numbers are byte addresses
/// shifted right by the block bits, so `u64::MAX` can never be a real tag.
const EMPTY_TAG: BlockAddr = BlockAddr(u64::MAX);

/// A set-associative array of `sets × ways` lines.
///
/// Tags are mirrored into a packed side array: a [`Line`] is ~80 bytes
/// (64 of them block data), so probing through `lines` touches one
/// hardware cache line per way, while the packed `tags` vector fits a
/// whole 8-way set in a single one. Every lookup on the simulator's hot
/// path goes through [`SetAssocCache::probe`], which scans only `tags`.
///
/// `Hash` covers the complete replacement-relevant state (tags, data,
/// metadata, PLRU bits), so equal hashes mean equal future behaviour —
/// the model checker's state canonicalisation relies on this.
///
/// The cache is `Sync`: the model checker shares one controller between
/// a state and its forks (behind an `Arc`) across worker threads, so the
/// lookup-only counters below are relaxed atomics, not `Cell`s.
#[derive(Debug)]
pub struct SetAssocCache<M> {
    sets: usize,
    ways: usize,
    /// `tags[slot]` mirrors `lines[slot]`: the resident block, or
    /// [`EMPTY_TAG`] when the way is vacant.
    tags: Vec<BlockAddr>,
    lines: Vec<Option<Line<M>>>,
    plru: Vec<TreePlru>,
    /// One-entry probe memo: the slot of the last hit or insertion.
    /// Legacy per-block entry points (probe → get → touch → get_mut) may
    /// still look the same block up several times per access, so
    /// remembering the slot skips the tag scan on all but the first. The
    /// memo answers for `block` only while `tags[slot] == block`, so an
    /// insertion or removal that changes the slot's tag invalidates it
    /// without touching it, and any stored value is a valid in-bounds
    /// slot. A relaxed atomic, because a shared cache may be probed from
    /// several threads at once; it is only a hint, re-checked against
    /// `tags` on every use. Pure lookup state — excluded from `Hash`.
    probe_memo: AtomicUsize,
    /// Residency generation: bumped by every insertion/removal so stale
    /// [`ProbedWay`] tokens are caught by debug assertions. Excluded from
    /// `Hash`.
    gen: u32,
    /// Physical tag-lookup counter for tests: counts every public lookup
    /// entry point (`probe`/`get`/`get_mut`/`touch`/`lookup_for_insert`/
    /// `probe_way`/`lookup_way`/`remove`), memo hits included — the
    /// "exactly one physical lookup per access" tests rely on memo hits
    /// still counting as lookups. Excluded from `Hash`.
    #[cfg(debug_assertions)]
    phys_lookups: AtomicU64,
}

impl<M: Clone> Clone for SetAssocCache<M> {
    fn clone(&self) -> Self {
        Self {
            sets: self.sets,
            ways: self.ways,
            tags: self.tags.clone(),
            lines: self.lines.clone(),
            plru: self.plru.clone(),
            probe_memo: AtomicUsize::new(self.probe_memo.load(Relaxed)),
            gen: self.gen,
            #[cfg(debug_assertions)]
            phys_lookups: AtomicU64::new(self.phys_lookups.load(Relaxed)),
        }
    }
}

impl<M: std::hash::Hash> std::hash::Hash for SetAssocCache<M> {
    /// Manual impl skipping `tags`, which is derivable from `lines`:
    /// keeps hashes identical to the pre-split layout, so checker caches
    /// and fingerprints survive the data-layout change.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sets.hash(state);
        self.ways.hash(state);
        self.lines.hash(state);
        self.plru.hash(state);
    }
}

impl<M> SetAssocCache<M> {
    /// Creates a cache with the given geometry. `sets` and `ways` must be
    /// powers of two (`ways` ≤ 64).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            ways.is_power_of_two() && (1..=64).contains(&ways),
            "ways must be a power of two in 1..=64"
        );
        Self {
            sets,
            ways,
            tags: vec![EMPTY_TAG; sets * ways],
            lines: (0..sets * ways).map(|_| None).collect(),
            plru: vec![TreePlru::new(); sets],
            probe_memo: AtomicUsize::new(0),
            gen: 0,
            #[cfg(debug_assertions)]
            phys_lookups: AtomicU64::new(0),
        }
    }

    /// Builds a cache from a capacity in bytes and associativity, with
    /// 64-byte blocks — e.g. `from_capacity(32 * 1024, 2)` is the paper's
    /// L1 (256 sets × 2 ways).
    pub fn from_capacity(capacity_bytes: usize, ways: usize) -> Self {
        let blocks = capacity_bytes / crate::addr::BLOCK_BYTES;
        assert!(
            blocks.is_multiple_of(ways),
            "capacity not divisible by ways"
        );
        Self::new(blocks / ways, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.sets - 1)
    }

    /// Set index of `block` under this geometry. Public so the directory
    /// can co-index its per-set MSHR tables with the cache array.
    #[inline]
    pub fn set_index(&self, block: BlockAddr) -> usize {
        self.set_of(block)
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Bumps the test-only physical-lookup counter. Called once per
    /// public lookup entry point, memo hits included. A plain load and
    /// store, not a locked add: the count is exact for the
    /// single-owner caches the tests measure.
    #[inline]
    fn count_lookup(&self) {
        #[cfg(debug_assertions)]
        self.phys_lookups
            .store(self.phys_lookups.load(Relaxed) + 1, Relaxed);
    }

    /// Physical tag lookups performed so far (tests only): every public
    /// lookup entry point counts one, memo hits included.
    #[cfg(debug_assertions)]
    pub fn phys_lookups(&self) -> u64 {
        self.phys_lookups.load(Relaxed)
    }

    /// Uncounted probe core: memo check, then one linear scan of the
    /// packed tag array (does not touch PLRU).
    #[inline]
    fn probe_slot(&self, block: BlockAddr) -> Option<usize> {
        // A block only ever sits in its own set, so a memo slot holding
        // `block` is in that set and its way is the slot's low bits.
        let memo = self.probe_memo.load(Relaxed);
        if self.tags[memo] == block {
            return Some(memo & (self.ways - 1));
        }
        let base = self.set_of(block) * self.ways;
        let way = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == block)?;
        self.probe_memo.store(base + way, Relaxed);
        Some(way)
    }

    #[inline]
    fn token(&self, set: usize, way: usize) -> ProbedWay {
        ProbedWay {
            set: set as u32,
            way: way as u32,
            gen: self.gen,
        }
    }

    /// Looks up `block`; returns its way on hit (does not touch PLRU).
    /// One linear scan of the packed tag array.
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<usize> {
        self.count_lookup();
        self.probe_slot(block)
    }

    /// Looks up `block` and returns a [`ProbedWay`] token for its line.
    /// One physical tag lookup; every `*_at` accessor on the token is
    /// lookup-free.
    #[inline]
    pub fn probe_way(&self, block: BlockAddr) -> Option<ProbedWay> {
        self.count_lookup();
        let way = self.probe_slot(block)?;
        Some(self.token(self.set_of(block), way))
    }

    #[inline]
    fn slot_of(&self, w: ProbedWay) -> usize {
        debug_assert_eq!(
            w.gen, self.gen,
            "stale ProbedWay token used across a residency change"
        );
        self.slot(w.set as usize, w.way as usize)
    }

    /// Immutable access through a probe token (no tag lookup).
    #[inline]
    pub fn line_at(&self, w: ProbedWay) -> &Line<M> {
        self.lines[self.slot_of(w)]
            .as_ref()
            .expect("ProbedWay token addresses a resident line")
    }

    /// Mutable access through a probe token (no tag lookup; does not
    /// touch PLRU). The same aliasing rule as [`SetAssocCache::get_mut`]
    /// applies: callers must not rewrite [`Line::block`].
    #[inline]
    pub fn line_at_mut(&mut self, w: ProbedWay) -> &mut Line<M> {
        let slot = self.slot_of(w);
        self.lines[slot]
            .as_mut()
            .expect("ProbedWay token addresses a resident line")
    }

    /// Marks the tokened line most-recently-used (no tag lookup).
    #[inline]
    pub fn touch_at(&mut self, w: ProbedWay) {
        debug_assert_eq!(
            w.gen, self.gen,
            "stale ProbedWay token used across a residency change"
        );
        self.plru[w.set as usize].touch(self.ways, w.way as usize);
    }

    /// Removes the tokened line (no tag lookup). Consumes the token's
    /// validity: the residency generation is bumped.
    pub fn remove_at(&mut self, w: ProbedWay) -> Line<M> {
        let slot = self.slot_of(w);
        let line = self.lines[slot]
            .take()
            .expect("ProbedWay token addresses a resident line");
        self.tags[slot] = EMPTY_TAG;
        self.gen = self.gen.wrapping_add(1);
        line
    }

    /// Immutable access to a resident line.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<&Line<M>> {
        let way = self.probe(block)?;
        self.lines[self.slot(self.set_of(block), way)].as_ref()
    }

    /// Mutable access to a resident line (does not touch PLRU; call
    /// [`SetAssocCache::touch`] for accesses that should update recency).
    ///
    /// Callers must not rewrite [`Line::block`] through the returned
    /// reference — residency changes go through [`SetAssocCache::insert_at`]
    /// and [`SetAssocCache::remove`], which keep the tag mirror in sync.
    #[inline]
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut Line<M>> {
        let way = self.probe(block)?;
        let slot = self.slot(self.set_of(block), way);
        self.lines[slot].as_mut()
    }

    /// Marks `block` most-recently-used. No-op if not resident.
    pub fn touch(&mut self, block: BlockAddr) {
        if let Some(way) = self.probe(block) {
            let set = self.set_of(block);
            self.plru[set].touch(self.ways, way);
        }
    }

    /// Uncounted classification core shared by [`Self::lookup_for_insert`]
    /// and [`Self::lookup_way`].
    fn classify_for_insert(&self, block: BlockAddr) -> LookupResult {
        let set = self.set_of(block);
        if let Some(way) = self.probe_slot(block) {
            return LookupResult::Hit { way };
        }
        let base = set * self.ways;
        if let Some(way) = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == EMPTY_TAG)
        {
            return LookupResult::Free { way };
        }
        let way = self.plru[set].victim(self.ways);
        let victim = self.lines[self.slot(set, way)]
            .as_ref()
            .expect("full set has a line in every way")
            .block;
        LookupResult::Victim { way, block: victim }
    }

    /// Classifies what an insertion of `block` would need: hit, free way,
    /// or eviction of the PLRU victim.
    pub fn lookup_for_insert(&self, block: BlockAddr) -> LookupResult {
        self.count_lookup();
        self.classify_for_insert(block)
    }

    /// Token-returning form of [`Self::lookup_for_insert`]: one physical
    /// tag lookup classifying hit / free way / PLRU victim, with resident
    /// lines handed back as [`ProbedWay`] tokens.
    pub fn lookup_way(&self, block: BlockAddr) -> WayLookup {
        self.count_lookup();
        let set = self.set_of(block);
        match self.classify_for_insert(block) {
            LookupResult::Hit { way } => WayLookup::Hit(self.token(set, way)),
            LookupResult::Free { way } => WayLookup::Free { way },
            LookupResult::Victim { way, .. } => WayLookup::Victim(self.token(set, way)),
        }
    }

    /// Like [`SetAssocCache::lookup_for_insert`], but never proposes a
    /// victim for which `pinned` returns true (lines with in-flight
    /// transactions in the directory). Prefers the pseudo-LRU victim when
    /// eligible, otherwise any unpinned line. Returns `None` when the set
    /// is full and every line is pinned — the caller must stall.
    pub fn lookup_for_insert_excluding(
        &self,
        block: BlockAddr,
        pinned: impl Fn(BlockAddr) -> bool,
    ) -> Option<LookupResult> {
        match self.lookup_for_insert(block) {
            r @ (LookupResult::Hit { .. } | LookupResult::Free { .. }) => Some(r),
            LookupResult::Victim { way, block: victim } if !pinned(victim) => {
                Some(LookupResult::Victim { way, block: victim })
            }
            LookupResult::Victim { .. } => {
                let set = self.set_of(block);
                (0..self.ways).find_map(|w| {
                    let line = self.lines[self.slot(set, w)].as_ref()?;
                    (!pinned(line.block)).then_some(LookupResult::Victim {
                        way: w,
                        block: line.block,
                    })
                })
            }
        }
    }

    /// Token-returning form of [`Self::lookup_for_insert_excluding`]: one
    /// physical tag lookup, never proposing a pinned victim. `None` means
    /// the set is full and every line is pinned — the caller must stall.
    pub fn lookup_way_excluding(
        &self,
        block: BlockAddr,
        pinned: impl Fn(BlockAddr) -> bool,
    ) -> Option<WayLookup> {
        self.count_lookup();
        let set = self.set_of(block);
        match self.classify_for_insert(block) {
            LookupResult::Hit { way } => Some(WayLookup::Hit(self.token(set, way))),
            LookupResult::Free { way } => Some(WayLookup::Free { way }),
            LookupResult::Victim { way, block: victim } if !pinned(victim) => {
                Some(WayLookup::Victim(self.token(set, way)))
            }
            LookupResult::Victim { .. } => (0..self.ways).find_map(|w| {
                let line = self.lines[self.slot(set, w)].as_ref()?;
                (!pinned(line.block)).then_some(WayLookup::Victim(self.token(set, w)))
            }),
        }
    }

    /// Inserts (or replaces) a line for `block` at `way` and touches it.
    /// Returns the displaced line, if any.
    pub fn insert_at(
        &mut self,
        way: usize,
        block: BlockAddr,
        meta: M,
        data: BlockData,
    ) -> Option<Line<M>> {
        debug_assert!(block != EMPTY_TAG, "block collides with the tag sentinel");
        let set = self.set_of(block);
        let slot = self.slot(set, way);
        let old = self.lines[slot].replace(Line { block, meta, data });
        self.tags[slot] = block;
        self.probe_memo.store(slot, Relaxed);
        self.gen = self.gen.wrapping_add(1);
        self.plru[set].touch(self.ways, way);
        old
    }

    /// Removes `block` from the cache, returning its line.
    pub fn remove(&mut self, block: BlockAddr) -> Option<Line<M>> {
        let w = self.probe_way(block)?;
        Some(self.remove_at(w))
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        self.lines.iter().filter_map(|l| l.as_ref())
    }

    /// Iterates mutably over all resident lines.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Line<M>> {
        self.lines.iter_mut().filter_map(|l| l.as_mut())
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn hit_free_victim_classification() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        // Blocks 0, 4, 8 all map to set 0.
        assert_eq!(c.lookup_for_insert(blk(0)), LookupResult::Free { way: 0 });
        c.insert_at(0, blk(0), 1, BlockData::zeroed());
        assert_eq!(c.lookup_for_insert(blk(0)), LookupResult::Hit { way: 0 });
        assert_eq!(c.lookup_for_insert(blk(4)), LookupResult::Free { way: 1 });
        c.insert_at(1, blk(4), 2, BlockData::zeroed());
        // Set full; way 0 holds the older block 0.
        c.touch(blk(4));
        assert_eq!(
            c.lookup_for_insert(blk(8)),
            LookupResult::Victim {
                way: 0,
                block: blk(0)
            }
        );
    }

    #[test]
    fn from_capacity_matches_paper_geometry() {
        let l1: SetAssocCache<()> = SetAssocCache::from_capacity(32 * 1024, 2);
        assert_eq!(l1.sets(), 256);
        assert_eq!(l1.ways(), 2);
        let l2: SetAssocCache<()> = SetAssocCache::from_capacity(128 * 1024, 8);
        assert_eq!(l2.sets(), 256);
        assert_eq!(l2.ways(), 8);
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut c: SetAssocCache<&'static str> = SetAssocCache::new(8, 2);
        let mut d = BlockData::zeroed();
        d.write_word(0, 8, 42);
        c.insert_at(0, blk(3), "meta", d);
        assert_eq!(c.get(blk(3)).unwrap().meta, "meta");
        assert_eq!(c.get(blk(3)).unwrap().data.read_word(0, 8), 42);
        let line = c.remove(blk(3)).unwrap();
        assert_eq!(line.block, blk(3));
        assert!(c.get(blk(3)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(4, 2);
        for n in 0..4 {
            c.insert_at(0, blk(n), 0, BlockData::zeroed());
        }
        for n in 0..4 {
            assert!(c.get(blk(n)).is_some());
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn lru_evicts_least_recent_in_two_way() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert_at(0, blk(0), 0, BlockData::zeroed());
        c.insert_at(1, blk(1), 0, BlockData::zeroed());
        c.touch(blk(0)); // 1 is now LRU
        match c.lookup_for_insert(blk(2)) {
            LookupResult::Victim { block, .. } => assert_eq!(block, blk(1)),
            other => panic!("expected victim, got {other:?}"),
        }
    }

    #[test]
    fn excluding_lookup_skips_pinned_victims() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert_at(0, blk(0), 0, BlockData::zeroed());
        c.insert_at(1, blk(1), 0, BlockData::zeroed());
        // PLRU victim is block 0; pin it and the other line is offered.
        c.touch(blk(1));
        match c.lookup_for_insert_excluding(blk(2), |b| b == blk(0)) {
            Some(LookupResult::Victim { block, .. }) => assert_eq!(block, blk(1)),
            other => panic!("unexpected {other:?}"),
        }
        // Everything pinned: stall.
        assert!(c.lookup_for_insert_excluding(blk(2), |_| true).is_none());
        // Hit and free results pass through untouched.
        assert_eq!(
            c.lookup_for_insert_excluding(blk(0), |_| true),
            Some(LookupResult::Hit { way: 0 })
        );
    }

    #[test]
    fn tag_mirror_stays_in_sync_with_lines() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
        // Exercise insert, replace-at-way, and remove; after each step the
        // packed tag probe must agree with a scan of the line array.
        let check = |c: &SetAssocCache<u8>| {
            for n in 0..8u64 {
                let by_tags = c.probe(blk(n));
                let by_lines = c.iter().any(|l| l.block == blk(n));
                assert_eq!(by_tags.is_some(), by_lines, "block {n}");
            }
        };
        c.insert_at(0, blk(0), 0, BlockData::zeroed());
        check(&c);
        c.insert_at(1, blk(2), 0, BlockData::zeroed());
        check(&c);
        // Replace the line at way 0 of set 0 with a different block.
        c.insert_at(0, blk(4), 0, BlockData::zeroed());
        check(&c);
        assert!(c.probe(blk(0)).is_none());
        c.remove(blk(4)).unwrap();
        check(&c);
        assert_eq!(c.lookup_for_insert(blk(6)), LookupResult::Free { way: 0 });
    }

    #[test]
    fn probe_memo_never_outlives_residency() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert_at(0, blk(0), 0, BlockData::zeroed());
        // Warm the memo on block 0, then displace it at the same way.
        assert_eq!(c.probe(blk(0)), Some(0));
        c.insert_at(0, blk(1), 0, BlockData::zeroed());
        assert_eq!(c.probe(blk(0)), None);
        assert_eq!(c.probe(blk(1)), Some(0));
        // Warm the memo, remove, and make sure the memo dies with it.
        c.remove(blk(1)).unwrap();
        assert_eq!(c.probe(blk(1)), None);
        // Repeated probes of a resident block keep answering through the
        // memo after unrelated removals.
        c.insert_at(0, blk(2), 0, BlockData::zeroed());
        c.insert_at(1, blk(3), 0, BlockData::zeroed());
        assert_eq!(c.probe(blk(2)), Some(0));
        c.remove(blk(3)).unwrap();
        assert_eq!(c.probe(blk(2)), Some(0));
    }

    #[test]
    fn probed_way_accessors_round_trip() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        c.insert_at(0, blk(0), 7, BlockData::zeroed());
        let w = c.probe_way(blk(0)).unwrap();
        assert_eq!(c.line_at(w).meta, 7);
        c.line_at_mut(w).meta = 9;
        c.line_at_mut(w).data.write_word(8, 4, 0x55);
        c.touch_at(w);
        assert_eq!(c.line_at(w).data.read_word(8, 4), 0x55);
        let line = c.remove_at(w);
        assert_eq!(line.block, blk(0));
        assert_eq!(line.meta, 9);
        assert!(c.probe_way(blk(0)).is_none());
    }

    #[test]
    fn lookup_way_classifies_like_lookup_for_insert() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        assert!(matches!(c.lookup_way(blk(0)), WayLookup::Free { way: 0 }));
        c.insert_at(0, blk(0), 1, BlockData::zeroed());
        match c.lookup_way(blk(0)) {
            WayLookup::Hit(w) => assert_eq!(c.line_at(w).block, blk(0)),
            other => panic!("expected hit, got {other:?}"),
        }
        c.insert_at(1, blk(4), 2, BlockData::zeroed());
        c.touch(blk(4));
        // Set full; PLRU victim is the older block 0.
        match c.lookup_way(blk(8)) {
            WayLookup::Victim(w) => {
                assert_eq!(c.line_at(w).block, blk(0));
                let way = w.way();
                let line = c.remove_at(w);
                assert_eq!(line.block, blk(0));
                c.insert_at(way, blk(8), 3, BlockData::zeroed());
                assert!(c.get(blk(8)).is_some());
            }
            other => panic!("expected victim, got {other:?}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn phys_lookup_counter_counts_every_entry_point() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(4, 2);
        c.insert_at(0, blk(0), 0, BlockData::zeroed());
        let before = c.phys_lookups();
        // Each public entry point is one lookup — memo hits included.
        c.probe(blk(0));
        c.probe(blk(0));
        c.get(blk(0));
        c.get_mut(blk(0));
        c.touch(blk(0));
        c.lookup_for_insert(blk(0));
        let w = c.probe_way(blk(0)).unwrap();
        assert_eq!(c.phys_lookups() - before, 7);
        // Token accessors are lookup-free.
        c.line_at(w);
        c.line_at_mut(w);
        c.touch_at(w);
        c.remove_at(w);
        assert_eq!(c.phys_lookups() - before, 7);
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2);
        c.insert_at(0, blk(0), 7, BlockData::zeroed());
        c.get_mut(blk(0)).unwrap().data.write_word(8, 4, 0x55);
        c.get_mut(blk(0)).unwrap().meta = 9;
        assert_eq!(c.get(blk(0)).unwrap().data.read_word(8, 4), 0x55);
        assert_eq!(c.get(blk(0)).unwrap().meta, 9);
    }
}
