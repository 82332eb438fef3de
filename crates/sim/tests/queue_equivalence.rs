//! Property test: [`EventQueue`] behaves exactly like a naive reference
//! model — a `Vec` of pending entries kept sorted by `(time, sequence)`,
//! with generation-keyed invalidation checked at pop time.
//!
//! A randomized script of `push`, `push_batch`, `push_keyed`,
//! `invalidate_key`, `pop`, `pop_due` and `pop_before` operations is
//! replayed against both, asserting after every step that popped
//! `(time, payload)` pairs, `peek_time`, lengths, and the
//! pushed/popped/stale counters all agree. Timestamps mix dense clusters
//! with exact ties (FIFO order within an instant), spread-out mid-range
//! times and far-future outliers; keys are drawn from a small set so the
//! same key is invalidated and reused many times.

use proptest::prelude::*;

use pdpa_sim::{EventQueue, SimTime};

/// One scripted queue operation.
#[derive(Clone, Debug)]
enum Op {
    Push(f64),
    PushKeyed(f64, u64),
    /// Batch of plain pushes (sequence numbers in slice order).
    PushBatch(Vec<f64>),
    InvalidateKey(u64),
    Pop,
    PopDue(f64),
    PopBefore(f64),
    Peek,
}

fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Dense cluster with frequent exact ties.
        (0u32..200).prop_map(|k| f64::from(k) * 0.5),
        // Spread-out mid-range times.
        0.0f64..10_000.0,
        // Sparse far-future outliers.
        1.0e6f64..1.0e8,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! picks uniformly; duplicate the hot arms
    // to weight pushes and pops over the rarer structural ops.
    prop_oneof![
        arb_time().prop_map(Op::Push),
        arb_time().prop_map(Op::Push),
        (arb_time(), 0u64..24).prop_map(|(t, k)| Op::PushKeyed(t, k)),
        (arb_time(), 0u64..24).prop_map(|(t, k)| Op::PushKeyed(t, k)),
        proptest::collection::vec(arb_time(), 1..40).prop_map(Op::PushBatch),
        (0u64..24).prop_map(Op::InvalidateKey),
        (0u64..24).prop_map(Op::InvalidateKey),
        Just(Op::Pop),
        Just(Op::Pop),
        arb_time().prop_map(Op::PopDue),
        arb_time().prop_map(Op::PopBefore),
        arb_time().prop_map(Op::PopBefore),
        Just(Op::Peek),
    ]
}

/// The reference: every pending entry in one `Vec` sorted by
/// `(time, sequence)`, generations in a map, staleness decided at pop.
#[derive(Default)]
struct Model {
    /// `(time, seq, key and its generation at push, payload)`.
    pending: Vec<(SimTime, u64, Option<(u64, u64)>, u64)>,
    generations: std::collections::HashMap<u64, u64>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    stale: u64,
}

impl Model {
    fn insert(&mut self, at: SimTime, key: Option<u64>, payload: u64) {
        let key = key.map(|k| (k, self.generations.get(&k).copied().unwrap_or(0)));
        self.pending.push((at, self.next_seq, key, payload));
        self.next_seq += 1;
        self.pushed += 1;
        self.pending
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    fn head_is_stale(&self) -> bool {
        self.pending[0]
            .2
            .is_some_and(|(k, g)| self.generations.get(&k).copied().unwrap_or(0) != g)
    }

    /// Pops the earliest live entry for which `take(time)` holds.
    /// A stale head is discarded when `discard(time)` holds; otherwise,
    /// or when the live head fails `take`, nothing more is popped.
    fn pop_where(
        &mut self,
        discard: impl Fn(SimTime) -> bool,
        take: impl Fn(SimTime) -> bool,
    ) -> Option<(SimTime, u64)> {
        while let Some(&(at, _, _, payload)) = self.pending.first() {
            if self.head_is_stale() {
                if !discard(at) {
                    return None;
                }
                self.pending.remove(0);
                self.popped += 1;
                self.stale += 1;
                continue;
            }
            if !take(at) {
                return None;
            }
            self.pending.remove(0);
            self.popped += 1;
            return Some((at, payload));
        }
        None
    }
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut m = Model::default();
    let mut payload: u64 = 0;
    for op in ops {
        let (got, want) = match op {
            Op::Push(t) => {
                q.push(SimTime::from_secs(*t), payload);
                m.insert(SimTime::from_secs(*t), None, payload);
                (None, None)
            }
            Op::PushKeyed(t, k) => {
                q.push_keyed(SimTime::from_secs(*t), *k, payload);
                m.insert(SimTime::from_secs(*t), Some(*k), payload);
                (None, None)
            }
            Op::PushBatch(ts) => {
                let batch: Vec<(SimTime, u64)> = ts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (SimTime::from_secs(*t), payload + i as u64))
                    .collect();
                q.push_batch(batch.iter().copied());
                for (at, p) in batch {
                    m.insert(at, None, p);
                }
                payload += ts.len() as u64;
                (None, None)
            }
            Op::InvalidateKey(k) => {
                q.invalidate_key(*k);
                *m.generations.entry(*k).or_insert(0) += 1;
                (None, None)
            }
            Op::Pop => (Some(q.pop()), Some(m.pop_where(|_| true, |_| true))),
            Op::PopDue(t) => {
                let t = SimTime::from_secs(*t);
                (
                    Some(q.pop_due(t)),
                    Some(m.pop_where(|_| true, |at| at <= t)),
                )
            }
            Op::PopBefore(t) => {
                let t = SimTime::from_secs(*t);
                (
                    Some(q.pop_before(t)),
                    Some(m.pop_where(|at| at < t, |at| at < t)),
                )
            }
            Op::Peek => (None, None),
        };
        payload += 1;
        prop_assert_eq!(&got, &want, "queue vs model mismatch on {:?}", op);
        prop_assert_eq!(q.peek_time(), m.pending.first().map(|e| e.0));
        prop_assert_eq!(q.len(), m.pending.len());
        prop_assert_eq!(q.is_empty(), m.pending.is_empty());
        prop_assert_eq!(q.total_pushed(), m.pushed);
        prop_assert_eq!(q.total_popped(), m.popped);
        prop_assert_eq!(q.stale_drops(), m.stale);
        let stats = q.stats();
        prop_assert_eq!(
            (stats.pushed, stats.popped, stats.stale_drops, stats.len),
            (m.pushed, m.popped, m.stale, m.pending.len())
        );
    }
    // Drain everything left: the full remaining pop order must agree.
    loop {
        let got = q.pop();
        prop_assert_eq!(&got, &m.pop_where(|_| true, |_| true));
        if got.is_none() {
            break;
        }
    }
    prop_assert_eq!(q.stale_drops(), m.stale);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short mixed scripts: every op interleaving matches the model.
    #[test]
    fn mixed_scripts_match_the_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run_script(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Long scripts of same-instant pushes under a handful of keys, with
    /// invalidations and re-pushes interleaved: FIFO order within each
    /// instant and the latest generation of every key survive.
    #[test]
    fn ties_and_reused_keys_match_the_model(
        slots in proptest::collection::vec((0u32..8, 0u64..6, 0u8..4), 200..400),
    ) {
        let ops: Vec<Op> = slots
            .into_iter()
            .map(|(slot, key, kind)| {
                let t = f64::from(slot) * 10.0;
                match kind {
                    0 => Op::Push(t),
                    1 => Op::PushKeyed(t, key),
                    2 => Op::InvalidateKey(key),
                    _ => Op::PopBefore(t),
                }
            })
            .collect();
        run_script(&ops)?;
    }
}
