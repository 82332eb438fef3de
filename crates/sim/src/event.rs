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
//!    it: the queue tags each keyed entry with the key's generation at push
//!    time and lazily discards entries whose generation has since moved on.
//!    Keys are small dense integers (the engine keys by job id), so the
//!    generations live in a vector and invalidation is an O(1) index bump;
//!    the stale entry costs one extra O(log n) pop when its turn comes.
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
/// and generation-keyed lazy deletion.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Current generation per key, indexed by key (missing keys are at
    /// generation 0); keyed entries pushed under an older generation are
    /// stale. Generations only grow, so a key reused after retirement can
    /// never collide with an entry still buried in the heap.
    generations: Vec<u64>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    stale: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    /// `(key, generation at push time)` for invalidatable entries.
    key: Option<(u64, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            generations: Vec::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            stale: 0,
        }
    }

    /// Schedules `payload` at instant `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Entry {
            at,
            seq,
            key: None,
            payload,
        });
    }

    /// Schedules `payload` at instant `at` under `key`, so a later
    /// [`invalidate_key`](Self::invalidate_key) can lazily discard it.
    /// Entries pushed after an invalidation are live again — the queue
    /// snapshots the key's generation at push time. Keys index a vector:
    /// keep them small and dense.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let generation = self.generation(key);
        self.heap.push(Entry {
            at,
            seq,
            key: Some((key, generation)),
            payload,
        });
    }

    /// Schedules a batch of events in one O(n) heap rebuild instead of
    /// n individual O(log n) sifts. Entries receive sequence numbers in
    /// slice order, so same-instant batch entries pop FIFO exactly as if
    /// pushed one by one.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        let mut batch: BinaryHeap<Entry<E>> = events
            .into_iter()
            .map(|(at, payload)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pushed += 1;
                Entry {
                    at,
                    seq,
                    key: None,
                    payload,
                }
            })
            .collect();
        self.heap.append(&mut batch);
    }

    /// Marks every entry currently pushed under `key` as stale; they are
    /// discarded (and counted by [`stale_drops`](Self::stale_drops)) when
    /// they reach the head of the queue. O(1).
    pub fn invalidate_key(&mut self, key: u64) {
        let i = key as usize;
        if i >= self.generations.len() {
            self.generations.resize(i + 1, 0);
        }
        self.generations[i] += 1;
    }

    /// The current generation of `key`.
    #[inline]
    fn generation(&self, key: u64) -> u64 {
        self.generations.get(key as usize).copied().unwrap_or(0)
    }

    /// True if `entry` was invalidated after it was pushed.
    #[inline]
    fn is_stale(&self, entry: &Entry<E>) -> bool {
        entry
            .key
            .is_some_and(|(key, generation)| self.generation(key) != generation)
    }

    /// Removes and returns the earliest live event, or `None` when empty.
    /// Stale keyed entries are discarded along the way; discards count
    /// toward [`total_popped`](Self::total_popped) and
    /// [`stale_drops`](Self::stale_drops).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let stale = self.heap.peek().map(|e| self.is_stale(e))?;
            let e = self.heap.pop().expect("peeked entry exists");
            self.popped += 1;
            if stale {
                self.stale += 1;
                continue;
            }
            return Some((e.at, e.payload));
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
            if head.at > t {
                return None;
            }
            let e = self.heap.pop().expect("peeked entry exists");
            self.popped += 1;
            return Some((e.at, e.payload));
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
            if head.at >= t {
                return None;
            }
            let stale = self.is_stale(head);
            let e = self.heap.pop().expect("peeked entry exists");
            self.popped += 1;
            if stale {
                self.stale += 1;
                continue;
            }
            return Some((e.at, e.payload));
        }
    }

    /// The timestamp of the earliest pending entry — possibly a stale one
    /// (a stale head is discarded only when popped, so `peek_time` may be
    /// earlier than what [`pop`](Self::pop) returns).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
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
        self.pushed
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
            pushed: self.pushed,
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
    fn generations_survive_key_reuse() {
        let mut q = EventQueue::new();
        // A long-buried entry for key 9, then many invalidate/push cycles.
        q.push_keyed(t(100.0), 9, 0);
        for round in 1..=5 {
            q.invalidate_key(9);
            q.push_keyed(t(100.0 - f64::from(round)), 9, round);
        }
        // Only the latest generation survives.
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
}
