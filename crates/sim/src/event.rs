//! A stable, timestamped event queue.
//!
//! The engine drives the simulation by repeatedly popping the earliest event.
//! Two properties matter for reproducibility:
//!
//! 1. **Stability** — events scheduled for the same instant pop in the order
//!    they were pushed (FIFO within a timestamp), so runs are deterministic.
//! 2. **Cheap invalidation** — reallocation changes an application's progress
//!    rate, which invalidates its pending completion events. Rather than
//!    removing entries from the heap (an O(n) scan), callers push entries
//!    under a *key* and later [`invalidate_key`](EventQueue::invalidate_key)
//!    it: the queue records the sequence number the next push would take,
//!    and an entry under that key whose own sequence number is older is
//!    stale and lazily discarded. Keys are small dense integers (the engine
//!    keys by job id), so the marks live in a vector and invalidation is an
//!    O(1) store; the stale entry costs one extra O(log n) pop when its turn
//!    comes.
//!
//! Every pending entry is 32 bytes with an 8-byte payload: one integer
//! order key (the instant's bits, then the sequence number), the key word,
//! and the payload. Finite non-negative `f64`s sort like their bit
//! patterns, so the heap compares two integers instead of two floats,
//! and `-0.0` is folded onto `+0.0` so the two still tie, as their values
//! do.
//!
//! The engine keeps the heap small: only running jobs' predictions, faults
//! and quantum ticks are ever pending. Arrivals stay in the workload's
//! submit-sorted job list and are merged in through
//! [`pop_before`](EventQueue::pop_before), which pops a heap event only
//! when it is strictly earlier than the next arrival — so an arrival wins
//! every tie.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A point-in-time snapshot of a queue's traffic counters, as returned by
/// [`EventQueue::stats`]. Health monitors sample these each heartbeat
/// instead of calling four getters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Total events popped, stale discards included.
    pub popped: u64,
    /// Total keyed entries discarded as stale.
    pub stale_drops: u64,
    /// Current backlog, stale entries included.
    pub len: usize,
}

/// A priority queue of `(SimTime, payload)` entries with FIFO tie-breaking
/// and key-based lazy deletion.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Per key, indexed by key (missing keys were never invalidated): the
    /// sequence number the next push would have taken when the key was
    /// last invalidated. Keyed entries with an older sequence number are
    /// stale. Sequence numbers only grow, so a key reused after retirement
    /// can never revive an entry still buried in the heap.
    invalidated: Vec<u64>,
    /// The next sequence number, which is also the number of pushes.
    next_seq: u64,
    popped: u64,
    stale: u64,
}

/// The key word of an entry pushed without a key. Keys index a vector, so
/// no real key reaches it, and looking it up finds no invalidation.
const UNKEYED: u64 = u64::MAX;

/// The sign bit of an `f64`; among finite non-negative instants only
/// `-0.0` carries it.
const SIGN: u64 = 1 << 63;

/// One past the largest sequence number: the order key's low bit holds the
/// `-0.0` flag, which leaves sequence numbers 63 bits.
const SEQ_LIMIT: u64 = 1 << 63;

/// The high word of an entry's order key for instant `at`: its bits with
/// the sign cleared, so `-0.0` ties `+0.0`.
#[inline]
fn time_key(at: SimTime) -> u64 {
    at.to_bits() & !SIGN
}

#[derive(Debug)]
struct Entry<E> {
    /// `time_key(at) << 64 | seq << 1 | sign of at`, compared as one
    /// integer. Sequence numbers are unique, so the sign flag below them
    /// never decides an order; it only restores a `-0.0` instant exactly.
    order: u128,
    /// The key the entry was pushed under, or [`UNKEYED`].
    key: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn new(at: SimTime, seq: u64, key: u64, payload: E) -> Self {
        let bits = at.to_bits();
        Entry {
            order: u128::from(bits & !SIGN) << 64 | u128::from(seq << 1 | bits >> 63),
            key,
            payload,
        }
    }

    /// The high word: [`time_key`] of the entry's instant.
    #[inline]
    fn time_key(&self) -> u64 {
        (self.order >> 64) as u64
    }

    #[inline]
    fn seq(&self) -> u64 {
        (self.order as u64) >> 1
    }

    /// The instant the entry was pushed at, bit for bit.
    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_bits(self.time_key() | (self.order as u64) << 63)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other.order.cmp(&self.order)
    }
}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Bytes per pending entry (32 for an 8-byte payload).
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            invalidated: Vec::new(),
            next_seq: 0,
            popped: 0,
            stale: 0,
        }
    }

    /// Takes the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics once 2⁶³ events have been pushed, rather than wrapping onto
    /// sequence numbers that are still pending.
    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "event sequence numbers exhausted");
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at instant `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.take_seq();
        self.heap.push(Entry::new(at, seq, UNKEYED, payload));
    }

    /// Schedules `payload` at instant `at` under `key`, so a later
    /// [`invalidate_key`](Self::invalidate_key) can lazily discard it.
    /// Entries pushed after an invalidation are live again. Keys index a
    /// vector: keep them small and dense.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        assert!(key != UNKEYED, "key {key} is reserved for unkeyed entries");
        let seq = self.take_seq();
        self.heap.push(Entry::new(at, seq, key, payload));
    }

    /// Schedules a batch of events in one O(n) heap rebuild instead of
    /// n individual O(log n) sifts. Entries receive sequence numbers in
    /// slice order, so same-instant batch entries pop FIFO exactly as if
    /// pushed one by one.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        let mut batch: BinaryHeap<Entry<E>> = events
            .into_iter()
            .map(|(at, payload)| Entry::new(at, self.take_seq(), UNKEYED, payload))
            .collect();
        self.heap.append(&mut batch);
    }

    /// Marks every entry currently pushed under `key` as stale; they are
    /// discarded (and counted by [`stale_drops`](Self::stale_drops)) when
    /// they reach the head of the queue. O(1).
    pub fn invalidate_key(&mut self, key: u64) {
        let i = key as usize;
        if i >= self.invalidated.len() {
            self.invalidated.resize(i + 1, 0);
        }
        self.invalidated[i] = self.next_seq;
    }

    /// True if `entry` was invalidated after it was pushed.
    #[inline]
    fn is_stale(&self, entry: &Entry<E>) -> bool {
        self.invalidated
            .get(entry.key as usize)
            .is_some_and(|&mark| entry.seq() < mark)
    }

    /// Removes and returns the earliest live event, or `None` when empty.
    /// Stale keyed entries are discarded along the way; discards count
    /// toward [`total_popped`](Self::total_popped) and
    /// [`stale_drops`](Self::stale_drops).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let e = self.heap.pop()?;
            self.popped += 1;
            if self.is_stale(&e) {
                self.stale += 1;
                continue;
            }
            return Some((e.at(), e.payload));
        }
    }

    /// Removes and returns the earliest live event whose timestamp is at
    /// or before `t`, or `None` when the earliest live event is after `t`
    /// (or the queue is empty). Stale keyed heads are discarded along the
    /// way even when they sit before `t`, so a caller draining events up
    /// to a barrier never observes a stale head's earlier timestamp the
    /// way [`peek_time`](Self::peek_time) can report it.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        loop {
            let head = self.heap.peek()?;
            if self.is_stale(head) {
                self.heap.pop();
                self.popped += 1;
                self.stale += 1;
                continue;
            }
            if head.time_key() > time_key(t) {
                return None;
            }
            let e = self.heap.pop().expect("peeked entry exists");
            self.popped += 1;
            return Some((e.at(), e.payload));
        }
    }

    /// Removes and returns the earliest live event strictly before `t`,
    /// or `None` when there is none. Stale keyed heads before `t` are
    /// discarded along the way; nothing at or after `t` is touched.
    ///
    /// This is the merge step between the queue and an external,
    /// time-sorted stream (the engine's arrival cursor): with `t` the
    /// stream's next instant, a `None` means the stream's item comes next,
    /// including on a tie — exactly as if it had been pushed before every
    /// entry in the queue.
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        loop {
            let head = self.heap.peek()?;
            if head.time_key() >= time_key(t) {
                return None;
            }
            let stale = self.is_stale(head);
            let e = self.heap.pop().expect("peeked entry exists");
            self.popped += 1;
            if stale {
                self.stale += 1;
                continue;
            }
            return Some((e.at(), e.payload));
        }
    }

    /// The timestamp of the earliest pending entry — possibly a stale one
    /// (a stale head is discarded only when popped, so `peek_time` may be
    /// earlier than what [`pop`](Self::pop) returns).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(Entry::at)
    }

    /// Number of pending entries, stale ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped over the queue's lifetime, stale discards
    /// included.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total keyed entries discarded as stale over the queue's lifetime.
    pub fn stale_drops(&self) -> u64 {
        self.stale
    }

    /// One-call snapshot of the queue-op counters, for health monitors
    /// that sample many queues at once.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.next_seq,
            popped: self.popped,
            stale_drops: self.stale,
            len: self.len(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<i32>>());
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(2.0), "b1");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b2");
        q.push(t(0.5), "z");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["z", "a", "b1", "b2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(4.0), ());
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        q.push(t(2.0), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn batch_pushes_preserve_order_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(1.5), "single");
        q.push_batch(vec![(t(2.0), "b1"), (t(1.0), "a"), (t(2.0), "b2")]);
        q.push(t(2.0), "b3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // Batch entries tie-break FIFO in slice order, interleaved
        // correctly with singly-pushed entries.
        assert_eq!(order, vec!["a", "single", "b1", "b2", "b3"]);
        assert_eq!(q.total_pushed(), 5);
    }

    #[test]
    fn batch_matches_sequential_pushes_exactly() {
        let events: Vec<(SimTime, u32)> =
            (0..200).map(|i| (t(f64::from(i * 7919 % 97)), i)).collect();
        let mut batched = EventQueue::new();
        batched.push_batch(events.clone());
        let mut sequential = EventQueue::new();
        for (at, e) in events {
            sequential.push(at, e);
        }
        loop {
            let (a, b) = (batched.pop(), sequential.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn invalidated_keys_drop_lazily() {
        let mut q = EventQueue::new();
        q.push_keyed(t(1.0), 7, "old");
        q.push(t(2.0), "plain");
        q.invalidate_key(7);
        q.push_keyed(t(3.0), 7, "new");
        assert_eq!(q.pop(), Some((t(2.0), "plain")), "stale head skipped");
        assert_eq!(q.pop(), Some((t(3.0), "new")), "re-pushed key is live");
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_drops(), 1);
        // Discards still count as pops.
        assert_eq!(q.total_popped(), 3);
    }

    #[test]
    fn invalidation_is_scoped_to_one_key() {
        let mut q = EventQueue::new();
        q.push_keyed(t(1.0), 1, "one");
        q.push_keyed(t(2.0), 2, "two");
        q.invalidate_key(1);
        assert_eq!(q.pop(), Some((t(2.0), "two")));
        assert_eq!(q.stale_drops(), 1);
    }

    #[test]
    fn invalidations_survive_key_reuse() {
        let mut q = EventQueue::new();
        // A long-buried entry for key 9, then many invalidate/push cycles.
        q.push_keyed(t(100.0), 9, 0);
        for round in 1..=5 {
            q.invalidate_key(9);
            q.push_keyed(t(100.0 - f64::from(round)), 9, round);
        }
        // Only the entry pushed after the last invalidation survives.
        assert_eq!(q.pop(), Some((t(95.0), 5)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_drops(), 5);
    }

    #[test]
    fn pop_due_respects_the_barrier() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        q.push(t(3.0), "c");
        assert_eq!(q.pop_due(t(2.0)), Some((t(1.0), "a")));
        assert_eq!(q.pop_due(t(2.0)), Some((t(2.0), "b")), "barrier inclusive");
        assert_eq!(q.pop_due(t(2.0)), None, "later event stays queued");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(3.0)), Some((t(3.0), "c")));
    }

    #[test]
    fn pop_due_discards_stale_heads_without_over_advancing() {
        let mut q = EventQueue::new();
        // A stale entry sits at t=1 while the earliest live event is t=5;
        // peek_time would report 1.0, but pop_due(2.0) must drop the stale
        // head and report nothing due rather than return the t=5 event.
        q.push_keyed(t(1.0), 7, "stale");
        q.push(t(5.0), "live");
        q.invalidate_key(7);
        assert_eq!(q.peek_time(), Some(t(1.0)), "stale head shows early time");
        assert_eq!(q.pop_due(t(2.0)), None);
        assert_eq!(q.stale_drops(), 1);
        assert_eq!(q.pop_due(t(5.0)), Some((t(5.0), "live")));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_is_strict_and_leaves_ties() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        assert_eq!(q.pop_before(t(2.0)), Some((t(1.0), "a")));
        assert_eq!(q.pop_before(t(2.0)), None, "a tie belongs to the caller");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(t(2.5)), Some((t(2.0), "b")));
        assert_eq!(q.pop_before(t(9.0)), None);
        assert_eq!(q.total_popped(), 2);
    }

    #[test]
    fn pop_before_discards_stale_heads_only_before_the_bound() {
        let mut q = EventQueue::new();
        q.push_keyed(t(1.0), 3, "stale-early");
        q.push_keyed(t(4.0), 4, "stale-late");
        q.push(t(5.0), "live");
        q.invalidate_key(3);
        q.invalidate_key(4);
        assert_eq!(q.pop_before(t(4.0)), None);
        assert_eq!(q.stale_drops(), 1, "the entry at the bound stays");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_before(t(6.0)), Some((t(5.0), "live")));
        assert_eq!(q.stale_drops(), 2);
        assert_eq!(q.total_popped(), 3);
    }

    #[test]
    fn order_keys_pack_and_unpack_at_their_limits() {
        let instants = [0.0, -0.0, f64::from_bits(1), 1.0, f64::MAX];
        for secs in instants {
            for seq in [0, 1, SEQ_LIMIT / 2, SEQ_LIMIT - 1] {
                let at = t(secs);
                let e = Entry::new(at, seq, UNKEYED, ());
                assert_eq!(e.seq(), seq, "{secs:e} at seq {seq}");
                assert_eq!(e.at().to_bits(), at.to_bits(), "{secs:e} at seq {seq}");
                assert_eq!(e.time_key(), time_key(at));
            }
        }
        // The time word decides first, the sequence number second, and the
        // `-0.0` flag never: a later push at `-0.0` still follows an
        // earlier one at `+0.0`.
        let first = Entry::new(t(0.0), SEQ_LIMIT - 1, UNKEYED, ());
        let next = Entry::new(t(f64::from_bits(1)), 0, UNKEYED, ());
        assert!(first.order < next.order);
        let plus = Entry::new(t(0.0), 5, UNKEYED, ());
        let minus = Entry::new(t(-0.0), 6, UNKEYED, ());
        assert!(plus.order < minus.order);
        let minus_first = Entry::new(t(-0.0), 4, UNKEYED, ());
        assert!(minus_first.order < plus.order);
    }

    #[test]
    fn the_last_sequence_number_is_usable_and_the_next_panics() {
        let mut q = EventQueue::new();
        q.next_seq = SEQ_LIMIT - 2;
        q.push_keyed(t(1.0), 0, "a");
        q.push(t(1.0), "b");
        assert_eq!(q.total_pushed(), SEQ_LIMIT);
        q.invalidate_key(0);
        assert_eq!(q.pop(), Some((t(1.0), "b")));
        assert_eq!(q.stale_drops(), 1);
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(t(2.0), "c");
        }));
        assert!(overflow.is_err(), "a 2^63rd push must not wrap");
    }

    #[test]
    fn negative_zero_ties_positive_zero_and_pops_bit_exact() {
        let mut q = EventQueue::new();
        q.push(t(-0.0), "minus");
        q.push(t(0.0), "plus");
        q.push(t(-0.0), "minus again");
        let popped: Vec<(u64, &str)> =
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_secs().to_bits(), e))).collect();
        let (minus, plus) = ((-0.0f64).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            popped,
            [(minus, "minus"), (plus, "plus"), (minus, "minus again")]
        );
        // Both zeros bound `pop_before` and `pop_due` alike.
        q.push(t(0.0), "z");
        assert_eq!(q.pop_before(t(-0.0)), None);
        assert_eq!(q.pop_due(t(-0.0)), Some((t(0.0), "z")));
    }
}
