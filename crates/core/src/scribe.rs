//! The *scribe* comparator (paper §3.4, Fig. 6).
//!
//! In hardware this is a column of XNOR equality comparators beside the L1
//! write register: on a `scribble` store it compares the incoming word `W`
//! with the word `B` currently in the cache block and raises `approx` when
//! they agree in every bit above the programmer-chosen `d` least-significant
//! bits. The comparison runs in parallel with the tag check, so it is off
//! the critical path.
//!
//! This module is the functional model: bit-wise `d`-distance (the paper's
//! definition, from Wong et al., ref. 57) plus an *arithmetic* comparator
//! variant the paper sketches as future work (§3.4), used by the
//! `ablation_scribe` experiment.

/// How the scribe decides two words are "approximately similar".
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum ScribePolicy {
    /// The paper's bit-wise d-distance: values match if all bits above the
    /// `d` least-significant bits are identical.
    #[default]
    Bitwise,
    /// Arithmetic distance (paper §3.4 future work): values match if their
    /// absolute difference as `width`-bit unsigned integers is `< 2^d`.
    /// Catches pairs like -1/0 or 127/128 that bit-wise similarity misses.
    Arithmetic,
}

/// Smallest `d` such that `old >> d == new >> d` within a `width_bits`-wide
/// word; `0` means the values are identical (a silent store).
///
/// ```
/// use ghostwriter_core::scribe::bit_distance;
/// assert_eq!(bit_distance(124, 127, 8), 2);  // the paper's example
/// assert_eq!(bit_distance(127, 128, 8), 8);  // arithmetically close, bit-wise far
/// assert_eq!(bit_distance(42, 42, 32), 0);   // silent store
/// ```
#[inline]
pub fn bit_distance(old: u64, new: u64, width_bits: u32) -> u32 {
    debug_assert!(matches!(width_bits, 8 | 16 | 32 | 64));
    let mask = if width_bits == 64 {
        u64::MAX
    } else {
        (1u64 << width_bits) - 1
    };
    let diff = (old ^ new) & mask;
    64 - diff.leading_zeros()
}

/// Arithmetic distance between two `width_bits`-wide unsigned words,
/// wrapping (so 0 and MAX are distance 1).
#[inline]
pub fn arithmetic_distance(old: u64, new: u64, width_bits: u32) -> u64 {
    let mask = if width_bits == 64 {
        u64::MAX
    } else {
        (1u64 << width_bits) - 1
    };
    let a = old & mask;
    let b = new & mask;
    let fwd = a.wrapping_sub(b) & mask;
    let bwd = b.wrapping_sub(a) & mask;
    fwd.min(bwd)
}

impl ScribePolicy {
    /// The `approx` signal: true if a scribble writing `new` over `old`
    /// may proceed without coherence actions at the given `d`.
    #[inline]
    pub fn within(self, old: u64, new: u64, width_bits: u32, d: u32) -> bool {
        match self {
            ScribePolicy::Bitwise => bit_distance(old, new, width_bits) <= d,
            ScribePolicy::Arithmetic => {
                if d >= width_bits {
                    return true;
                }
                arithmetic_distance(old, new, width_bits) < (1u64 << d)
            }
        }
    }
}

/// Cumulative histogram of observed store d-distances (paper Fig. 2).
///
/// Index `i` counts stores whose new value had bit-distance exactly `i`
/// from the value it overwrote; `cumulative_fraction(d)` is the paper's
/// P(distance ≤ d).
///
/// ```
/// use ghostwriter_core::SimilarityHistogram;
/// let mut h = SimilarityHistogram::new();
/// h.record(10, 10, 32); // silent store
/// h.record(8, 9, 32);   // 1-distance
/// assert_eq!(h.total(), 2);
/// assert_eq!(h.cumulative_fraction(0), 0.5);
/// assert_eq!(h.cumulative_fraction(1), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimilarityHistogram {
    counts: [u64; 65],
    total: u64,
}

impl Default for SimilarityHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl SimilarityHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; 65],
            total: 0,
        }
    }

    /// Records one overwritten value.
    #[inline]
    pub fn record(&mut self, old: u64, new: u64, width_bits: u32) {
        let d = bit_distance(old, new, width_bits);
        self.counts[d as usize] += 1;
        self.total += 1;
    }

    /// Number of stores recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reconstructs a histogram from per-distance counts (the experiment
    /// engine's JSON deserializer); the total is rederived.
    pub fn from_counts(counts: [u64; 65]) -> Self {
        let total = counts.iter().sum();
        Self { counts, total }
    }

    /// Raw count at exactly distance `d`.
    pub fn count_at(&self, d: u32) -> u64 {
        self.counts[d as usize]
    }

    /// P(distance ≤ d): the paper's Fig. 2 y-axis.
    pub fn cumulative_fraction(&self, d: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cum: u64 = self.counts[..=(d as usize)].iter().sum();
        cum as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &SimilarityHistogram) {
        for i in 0..65 {
            self.counts[i] += other.counts[i];
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        // 124 (0111_1100) vs 127 (0111_1111): differ in last two bits.
        assert_eq!(bit_distance(124, 127, 8), 2);
        // 127 vs 128: arithmetically adjacent, bit-wise completely
        // different (8 bits).
        assert_eq!(bit_distance(127, 128, 8), 8);
        // 121 (111_1001) vs 125 (111_1101): 3-distance per the paper.
        assert_eq!(bit_distance(121, 125, 8), 3);
    }

    #[test]
    fn zero_distance_is_identity() {
        assert_eq!(bit_distance(42, 42, 32), 0);
        assert!(ScribePolicy::Bitwise.within(42, 42, 32, 0));
        assert!(!ScribePolicy::Bitwise.within(42, 43, 32, 0));
    }

    #[test]
    fn width_masks_high_bits() {
        // Differences above the access width are invisible.
        let old = 0xFF00_0000_0000_0012u64;
        let new = 0x0000_0000_0000_0010u64;
        assert_eq!(bit_distance(old, new, 8), 2);
        assert_eq!(bit_distance(old, new, 64), 64);
    }

    #[test]
    fn bitwise_within_monotone_in_d() {
        let old = 0b1011_0110u64;
        let new = 0b1011_0001u64; // distance 3
        assert_eq!(bit_distance(old, new, 8), 3);
        for d in 0..3 {
            assert!(!ScribePolicy::Bitwise.within(old, new, 8, d));
        }
        for d in 3..=8 {
            assert!(ScribePolicy::Bitwise.within(old, new, 8, d));
        }
    }

    #[test]
    fn arithmetic_catches_wraparound_neighbours() {
        // -1 vs 0 as 16-bit values: bit-wise hopeless, arithmetic trivial.
        let minus_one = 0xFFFFu64;
        assert_eq!(bit_distance(minus_one, 0, 16), 16);
        assert_eq!(arithmetic_distance(minus_one, 0, 16), 1);
        assert!(ScribePolicy::Arithmetic.within(minus_one, 0, 16, 1));
        assert!(!ScribePolicy::Arithmetic.within(minus_one, 0, 16, 0));
        // 127 vs 128 likewise.
        assert!(ScribePolicy::Arithmetic.within(127, 128, 8, 1));
        assert!(!ScribePolicy::Bitwise.within(127, 128, 8, 7));
    }

    #[test]
    fn arithmetic_d_at_width_accepts_all() {
        assert!(ScribePolicy::Arithmetic.within(0, 0xFF, 8, 8));
    }

    #[test]
    fn float_similarity_lives_in_mantissa() {
        // Two floats differing only far down the mantissa are similar.
        let a = 1000.0_f32.to_bits() as u64;
        let b = 1000.001_f32.to_bits() as u64;
        assert!(bit_distance(a, b, 32) <= 8);
        // Very different magnitudes are not.
        let c = (-5.0_f32).to_bits() as u64;
        assert!(bit_distance(a, c, 32) > 8);
    }

    #[test]
    fn histogram_cumulative_fractions() {
        let mut h = SimilarityHistogram::new();
        h.record(10, 10, 32); // d = 0
        h.record(8, 9, 32); // d = 1
        h.record(0, 0b10000, 32); // d = 5
        assert_eq!(h.total(), 3);
        assert!((h.cumulative_fraction(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(4) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(5) - 1.0).abs() < 1e-12);
        assert!((h.cumulative_fraction(64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = SimilarityHistogram::new();
        let mut b = SimilarityHistogram::new();
        a.record(1, 1, 8);
        b.record(1, 2, 8);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.count_at(0), 1);
        assert_eq!(a.count_at(2), 1);
    }

    #[test]
    fn empty_histogram_fraction_is_zero() {
        assert_eq!(SimilarityHistogram::new().cumulative_fraction(64), 0.0);
    }
}
