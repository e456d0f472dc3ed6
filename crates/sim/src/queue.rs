//! Deterministic time-ordered event queue.
//!
//! Layout: a fixed timing wheel of [`WHEEL_SLOTS`] FIFO buckets for
//! near-future events (push and pop are O(1) — a bucket append and a
//! bitmap scan), backed by a binary heap for the rare far-future push.
//! Simulator delays are small constants (cache latencies, NoC hops,
//! DRAM), so in practice virtually every event lives in the wheel and
//! the heap stays empty; the dense buckets replace the pointer-chasing
//! sift of a `BinaryHeap` on the busiest edge of the simulation kernel
//! (one push + one pop per event).
//!
//! The simulation kernel drains one cycle at a time with
//! [`EventQueue::pop_batch`], which hands the due bucket over by swapping
//! it with the caller's empty batch: the events stay where they were
//! pushed, and the buffers circulate between the wheel and the caller
//! instead of being copied per event.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::Cycle;

/// Number of wheel buckets (power of two). Every push whose delay from
/// the current clock is below this lands in bucket `time % WHEEL_SLOTS`;
/// longer delays overflow to the heap.
const WHEEL_SLOTS: usize = 256;
/// Occupancy-bitmap words covering the wheel.
const WORDS: usize = WHEEL_SLOTS / 64;
/// Capacity [`EventQueue::clear`] leaves a wheel bucket at most. Batches
/// trade buffers with buckets, so without a cap every bucket of a
/// recycled queue drifts to the largest same-cycle burst any run needed.
const BUCKET_KEEP: usize = 16;

/// An overflow-heap entry: ordered by `(time, seq)` so that two events
/// scheduled for the same cycle pop in the order they were pushed. This
/// is what makes whole-machine simulation deterministic: the heap alone
/// would break ties arbitrarily.
#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A min-queue of events keyed by simulated cycle, FIFO within a cycle.
///
/// ```
/// use ghostwriter_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future buckets, `time % WHEEL_SLOTS` each. Every wheel
    /// entry's time lies in `[now, now + WHEEL_SLOTS)`, so a bucket
    /// never mixes two distinct times: a push of `t + WHEEL_SLOTS`
    /// while `t` is still pending would have delay >= WHEEL_SLOTS and
    /// overflow to the heap instead. Within a bucket, append order IS
    /// seq order, so the FIFO-within-a-cycle contract needs no
    /// per-entry sequence number here.
    wheel: Box<[VecDeque<E>]>,
    /// One bit per non-empty wheel bucket.
    occupied: [u64; WORDS],
    /// Entries currently in the wheel (skips the bitmap scan when 0).
    wheel_len: usize,
    /// Far-future overflow. For any time `t`, every heap entry at `t`
    /// was pushed while `now <= t - WHEEL_SLOTS` and every wheel entry
    /// at `t` strictly later, so heap entries always carry smaller seqs
    /// than wheel entries of the same cycle: draining heap-then-bucket
    /// is exactly global push order.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    /// Time of the most recently popped event; pushes in the past are a bug.
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose overflow heap can hold `capacity`
    /// events before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            wheel: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
            wheel_len: 0,
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: 0,
        }
    }

    /// Resets the queue to its initial state (cycle 0, seq 0, no
    /// events) while keeping the heap and up to `BUCKET_KEEP` (16)
    /// events of each bucket's buffer, so a queue can be recycled across
    /// simulation runs without re-growing, and one run's burst does not
    /// stay allocated in the next.
    pub fn clear(&mut self) {
        for bucket in self.wheel.iter_mut() {
            bucket.clear();
            if bucket.capacity() > BUCKET_KEEP {
                bucket.shrink_to(BUCKET_KEEP);
            }
        }
        self.occupied = [0; WORDS];
        self.wheel_len = 0;
        self.heap.clear();
        self.next_seq = 0;
        self.now = 0;
    }

    /// Number of events the overflow heap can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` at absolute cycle `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past (before the last popped event) —
    /// scheduling backwards in time is always a component bug.
    #[inline]
    pub fn push(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={time} < now={}",
            self.now
        );
        if time - self.now < WHEEL_SLOTS as Cycle {
            let slot = time as usize & (WHEEL_SLOTS - 1);
            self.wheel[slot].push_back(event);
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.wheel_len += 1;
        } else {
            let seq = self.next_seq;
            self.heap.push(Reverse(Entry { time, seq, event }));
        }
        self.next_seq += 1;
    }

    /// Schedules `event` `delay` cycles after the current time.
    #[inline]
    pub fn push_after(&mut self, delay: Cycle, event: E) {
        self.push(self.now + delay, event);
    }

    /// Time of the earliest wheel entry, via a bitmap scan starting at
    /// the current cycle's slot and wrapping once around.
    fn next_wheel_time(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = self.now as usize & (WHEEL_SLOTS - 1);
        let (w0, b0) = (start / 64, start % 64);
        let to_time = |slot: usize| {
            let d = (slot + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1);
            Some(self.now + d as Cycle)
        };
        let first = self.occupied[w0] & (!0u64 << b0);
        if first != 0 {
            return to_time(w0 * 64 + first.trailing_zeros() as usize);
        }
        for k in 1..WORDS {
            let w = (w0 + k) % WORDS;
            if self.occupied[w] != 0 {
                return to_time(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        let wrapped = self.occupied[w0] & !(!0u64 << b0);
        if wrapped != 0 {
            return to_time(w0 * 64 + wrapped.trailing_zeros() as usize);
        }
        // wheel_len > 0 guarantees some bit is set.
        unreachable!("wheel_len > 0 but no occupied bucket")
    }

    /// Pops the front of the bucket for `time`, maintaining the bitmap.
    #[inline]
    fn pop_bucket(&mut self, time: Cycle) -> E {
        let slot = time as usize & (WHEEL_SLOTS - 1);
        let ev = self.wheel[slot]
            .pop_front()
            .expect("bucket known non-empty");
        self.wheel_len -= 1;
        if self.wheel[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        ev
    }

    /// Pops the earliest event, advancing the simulated clock to its time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let wheel_t = self.next_wheel_time();
        let heap_t = self.heap.peek().map(|Reverse(e)| e.time);
        let time = match (wheel_t, heap_t) {
            (None, None) => return None,
            (Some(w), None) => w,
            (None, Some(h)) => h,
            (Some(w), Some(h)) => w.min(h),
        };
        debug_assert!(time >= self.now);
        self.now = time;
        // On a tie, the heap entry was pushed first (smaller seq).
        if heap_t == Some(time) {
            let Reverse(e) = self.heap.pop().expect("peeked entry present");
            return Some((time, e.event));
        }
        Some((time, self.pop_bucket(time)))
    }

    /// Pops *every* event scheduled for the earliest pending cycle into
    /// `out`, in FIFO order, advancing the clock to that cycle. Returns
    /// the batch's cycle, or `None` if the queue is empty.
    ///
    /// Popping a whole cycle at once lets the simulation kernel deliver
    /// same-cycle messages back-to-back without interleaving queue
    /// queries: events pushed *while the batch is processed* are pushed
    /// later than anything in the batch, so handling the batch first is
    /// exactly the order a pop-at-a-time loop would produce.
    ///
    /// Zero-copy: the due wheel bucket is *swapped* with `out` — its
    /// events never move, and `out`'s (drained) buffer becomes the
    /// bucket's, so the allocations circulate between the caller and
    /// the wheel. The cycle's rare heap entries were pushed before any
    /// of its wheel entries (see the `heap` field docs), so they are
    /// appended and rotated to the front.
    ///
    /// # Panics
    /// Panics if `out` is not empty: the caller drains each batch before
    /// asking for the next.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut VecDeque<E>) -> Option<Cycle> {
        assert!(
            out.is_empty(),
            "pop_batch into a batch still holding events"
        );
        let wheel_t = self.next_wheel_time();
        let heap_t = self.heap.peek().map(|Reverse(e)| e.time);
        let time = match (wheel_t, heap_t) {
            (None, None) => return None,
            (Some(w), None) => w,
            (None, Some(h)) => h,
            (Some(w), Some(h)) => w.min(h),
        };
        debug_assert!(time >= self.now);
        self.now = time;
        if wheel_t == Some(time) {
            let slot = time as usize & (WHEEL_SLOTS - 1);
            std::mem::swap(&mut self.wheel[slot], out);
            self.wheel_len -= out.len();
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        if heap_t == Some(time) {
            let from_wheel = out.len();
            while self.heap.peek().is_some_and(|Reverse(e)| e.time == time) {
                let Reverse(e) = self.heap.pop().expect("peeked entry present");
                out.push_back(e.event);
            }
            out.rotate_right(out.len() - from_wheel);
        }
        Some(time)
    }

    /// Advances the clock to `time` without popping an event.
    ///
    /// This exists for callers that keep their own one-event fast path
    /// beside the queue (the machine's fused reply→fetch slot): when
    /// the deferred event precedes everything queued, the caller
    /// dispatches it directly and only the clock needs to move.
    ///
    /// # Panics
    /// Panics (debug builds) if `time` is in the past or would skip
    /// over an earlier pending event — either breaks time ordering.
    #[inline]
    pub fn advance_to(&mut self, time: Cycle) {
        debug_assert!(
            time >= self.now,
            "clock advanced backwards: t={time} < now={}",
            self.now
        );
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= time),
            "advance_to({time}) would skip a pending event"
        );
        self.now = time;
    }

    /// Peeks at the time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        let wheel_t = self.next_wheel_time();
        let heap_t = self.heap.peek().map(|Reverse(e)| e.time);
        match (wheel_t, heap_t) {
            (None, None) => None,
            (Some(w), None) => Some(w),
            (None, Some(h)) => Some(h),
            (Some(w), Some(h)) => Some(w.min(h)),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.push(5, ());
        q.pop();
        assert_eq!(q.now(), 5);
        q.push_after(3, ());
        assert_eq!(q.pop(), Some((8, ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn push_in_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 0);
        q.push(2, 0);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(1));
    }

    #[test]
    fn clear_recycles_the_allocation_and_resets_the_clock() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..50u64 {
            q.push(i, i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.now(), 49);
        q.clear();
        assert_eq!(q.now(), 0);
        assert!(q.is_empty());
        assert_eq!(q.capacity(), cap, "clear must keep the heap allocation");
        // A recycled queue behaves like a fresh one: time 0 is pushable
        // again and FIFO seq numbering restarts.
        q.push(0, 7);
        q.push(0, 8);
        assert_eq!(q.pop(), Some((0, 7)));
        assert_eq!(q.pop(), Some((0, 8)));
    }

    #[test]
    fn pop_batch_drains_one_cycle_in_fifo_order() {
        let mut q = EventQueue::new();
        q.push(10, "b");
        q.push(5, "a1");
        q.push(10, "c");
        q.push(5, "a2");
        let mut batch = VecDeque::new();
        assert_eq!(q.pop_batch(&mut batch), Some(5));
        assert_eq!(batch, ["a1", "a2"]);
        assert_eq!(q.now(), 5);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(10));
        assert_eq!(batch, ["b", "c"]);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_matches_pop_at_a_time() {
        // The same schedule drained by pop() and by pop_batch() (with
        // same-cycle pushes during batch handling) yields one sequence.
        let seed = [(0u64, 0u32), (0, 1), (3, 2), (3, 3)];
        let next = |t: u64, v: u32| (t + (v as u64 % 2), v + 4);

        let mut singles = Vec::new();
        let mut q = EventQueue::new();
        for &(t, v) in &seed {
            q.push(t, v);
        }
        while let Some((t, v)) = q.pop() {
            singles.push((t, v));
            if v < 12 {
                let (nt, nv) = next(t, v);
                q.push(nt, nv);
            }
        }

        let mut batched = Vec::new();
        let mut q = EventQueue::new();
        for &(t, v) in &seed {
            q.push(t, v);
        }
        let mut batch = VecDeque::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            while let Some(v) = batch.pop_front() {
                batched.push((t, v));
                if v < 12 {
                    let (nt, nv) = next(t, v);
                    q.push(nt, nv);
                }
            }
        }
        assert_eq!(singles, batched);
    }

    #[test]
    fn interleaved_push_pop_is_deterministic() {
        // Two identical interleavings must yield identical pop sequences.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.push(0, 0u32);
            q.push(0, 1);
            while let Some((t, v)) = q.pop() {
                out.push((t, v));
                if v < 6 {
                    q.push(t + (v as u64 % 3), v + 2);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn far_future_pushes_overflow_and_pop_in_order() {
        // Delays past the wheel horizon take the heap path; they must
        // still interleave correctly with near-future events.
        let mut q = EventQueue::new();
        q.push(1000, "far2");
        q.push(5, "near");
        q.push(999, "far1");
        q.push(1000, "far3");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((999, "far1")));
        assert_eq!(q.pop(), Some((1000, "far2")));
        assert_eq!(q.pop(), Some((1000, "far3")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_fifo_across_heap_and_wheel() {
        // An event pushed far in advance (heap) and one pushed close to
        // the deadline (wheel) for the SAME cycle must pop in push
        // order: the far push always comes first.
        let mut q = EventQueue::new();
        q.push(300, "pushed-early"); // delay 300 >= wheel horizon: heap
        q.push(100, "advance");
        assert_eq!(q.pop(), Some((100, "advance")));
        q.push(300, "pushed-late"); // delay 200 < horizon: wheel
        assert_eq!(q.pop(), Some((300, "pushed-early")));
        assert_eq!(q.pop(), Some((300, "pushed-late")));

        // Same scenario drained as one batch.
        let mut q = EventQueue::new();
        q.push(300, "pushed-early");
        q.push(100, "advance");
        q.pop();
        q.push(300, "pushed-late");
        let mut batch = VecDeque::new();
        assert_eq!(q.pop_batch(&mut batch), Some(300));
        assert_eq!(batch, ["pushed-early", "pushed-late"]);
    }

    #[test]
    fn pop_batch_puts_every_heap_entry_before_the_bucket() {
        // Several far pushes (heap) and several near pushes (wheel) for
        // one cycle: the batch is exactly push order.
        let mut q = EventQueue::new();
        q.push(400, 0);
        q.push(400, 1);
        q.push(400, 2);
        q.push(200, 99);
        assert_eq!(q.pop(), Some((200, 99)));
        q.push(400, 3);
        q.push(400, 4);
        let mut batch = VecDeque::new();
        assert_eq!(q.pop_batch(&mut batch), Some(400));
        assert_eq!(batch, [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_hands_buffers_back_to_the_wheel() {
        // The swap gives the caller the bucket's events and the bucket
        // the caller's drained buffer: nothing is copied or freed.
        let mut q = EventQueue::new();
        let mut batch = VecDeque::with_capacity(64);
        let cap = batch.capacity();
        for i in 0..8 {
            q.push(1, i);
        }
        assert_eq!(q.pop_batch(&mut batch), Some(1));
        assert_eq!(batch, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(q.wheel[1].capacity(), cap);
        assert!(q.wheel[1].is_empty());
    }

    #[test]
    fn clear_shrinks_buckets_a_burst_grew() {
        let mut q = EventQueue::new();
        let mut batch = VecDeque::new();
        // Same-cycle bursts: each drained batch's grown buffer goes back
        // to a bucket on the next pop.
        for t in 1..4 {
            for i in 0..1000 {
                q.push(t, i);
            }
            assert_eq!(q.pop_batch(&mut batch), Some(t));
            batch.clear();
        }
        assert!(q.wheel.iter().any(|b| b.capacity() >= 1000));
        q.clear();
        for (slot, bucket) in q.wheel.iter().enumerate() {
            assert!(
                bucket.capacity() <= BUCKET_KEEP,
                "bucket {slot} kept capacity {}",
                bucket.capacity()
            );
        }
    }

    #[test]
    #[should_panic(expected = "still holding events")]
    fn pop_batch_into_a_full_batch_panics() {
        let mut q = EventQueue::new();
        q.push(1, 1);
        let mut batch = VecDeque::from([0]);
        q.pop_batch(&mut batch);
    }

    #[test]
    fn wheel_slot_reuse_across_laps() {
        // The same bucket serves time t and t + WHEEL_SLOTS on
        // successive laps of the wheel.
        let mut q = EventQueue::new();
        let lap = 256u64;
        q.push(3, "lap0");
        q.push(3 + lap, "lap1"); // heap at push time (delay > horizon)
        assert_eq!(q.pop(), Some((3, "lap0")));
        q.push(3 + 2 * lap, "lap2");
        assert_eq!(q.pop(), Some((3 + lap, "lap1")));
        assert_eq!(q.pop(), Some((3 + 2 * lap, "lap2")));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pops come out sorted by time, FIFO within a time, regardless
        /// of push order — checked against a stable-sort oracle. Times
        /// span both the wheel and the overflow heap.
        #[test]
        fn pops_match_stable_sort_oracle(times in proptest::collection::vec(0u64..600, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let mut oracle: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
            oracle.sort_by_key(|&(t, _)| t); // stable: preserves push order
            let mut popped = Vec::new();
            while let Some(p) = q.pop() {
                popped.push(p);
            }
            prop_assert_eq!(popped, oracle);
        }

        /// Draining by whole cycles with pushes made while each batch is
        /// handled (delays spanning the heap) yields exactly the
        /// pop-at-a-time sequence.
        #[test]
        fn batched_drain_matches_pop(
            seed in proptest::collection::vec(0u64..600, 1..60),
            delays in proptest::collection::vec(0u64..600, 0..120),
        ) {
            let drain = |batched: bool| {
                let mut q = EventQueue::new();
                for (i, &t) in seed.iter().enumerate() {
                    q.push(t, i);
                }
                let mut next = delays.iter().copied();
                let mut id = seed.len();
                let mut out = Vec::new();
                let mut on_pop = |q: &mut EventQueue<usize>, t: u64, v: usize| {
                    out.push((t, v));
                    if let Some(d) = next.next() {
                        q.push(t + d, id);
                        id += 1;
                    }
                };
                if batched {
                    let mut batch = VecDeque::new();
                    while let Some(t) = q.pop_batch(&mut batch) {
                        while let Some(v) = batch.pop_front() {
                            on_pop(&mut q, t, v);
                        }
                    }
                } else {
                    while let Some((t, v)) = q.pop() {
                        on_pop(&mut q, t, v);
                    }
                }
                out
            };
            prop_assert_eq!(drain(true), drain(false));
        }

        /// Interleaved push/pop never violates the clock monotonicity.
        #[test]
        fn clock_is_monotone(ops in proptest::collection::vec((0u64..20, any::<bool>()), 1..100)) {
            let mut q = EventQueue::new();
            let mut last = 0;
            for (delay, do_pop) in ops {
                q.push_after(delay, ());
                if do_pop {
                    if let Some((t, ())) = q.pop() {
                        prop_assert!(t >= last);
                        last = t;
                    }
                }
            }
        }

        /// Interleaved push/pop with delays spanning the wheel horizon
        /// matches a naive stable model queue exactly — the wheel/heap
        /// split and their same-cycle merge rule are invisible.
        #[test]
        fn interleaved_matches_model(ops in proptest::collection::vec(0u64..600, 1..150)) {
            let mut q = EventQueue::new();
            // Model: (time, seq, value), popped by min (time, seq).
            let mut model: Vec<(u64, usize, usize)> = Vec::new();
            let mut now = 0u64;
            for (i, &op) in ops.iter().enumerate() {
                q.push_after(op, i);
                model.push((now + op, i, i));
                // Pop after every other push, like a live simulation.
                if i % 2 == 1 {
                    let min = model.iter().copied().min().unwrap();
                    model.retain(|&e| e != min);
                    now = min.0;
                    prop_assert_eq!(q.pop(), Some((min.0, min.2)));
                }
            }
            while let Some(got) = q.pop() {
                let min = model.iter().copied().min().unwrap();
                model.retain(|&e| e != min);
                prop_assert_eq!(got, (min.0, min.2));
            }
            prop_assert!(model.is_empty());
        }
    }
}
