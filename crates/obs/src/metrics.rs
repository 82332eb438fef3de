//! Process-wide metrics registry: monotonic counters and streaming
//! histograms with p50/p90/p99, no external dependencies.
//!
//! Counters and histogram buckets are plain atomics, so the hot path
//! (engine runs on harness worker threads) never takes a lock; the
//! registry's name→metric maps are behind mutexes but are only touched on
//! first registration and at snapshot time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic, saturating counter.
///
/// Saturates at `u64::MAX` instead of wrapping, so a counter can never
/// appear to move backwards however long the process runs.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests only — production counters are monotonic).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets; covers the full `u64` range.
const BUCKETS: usize = 64;

/// A lock-free streaming histogram over `u64` samples (typically
/// nanoseconds), bucketed by the sample's binary magnitude.
///
/// Bucket `i` holds samples whose highest set bit is `i` (bucket 0 also
/// holds zero), represented by `1.5·2^i` — the bucket midpoint — so
/// quantile estimates carry at most ~33% relative error, plenty for
/// p50/p90/p99 of span durations spread over orders of magnitude.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Representative value for bucket `i` (its midpoint, saturating for
    /// the top bucket).
    fn bucket_value(i: usize) -> u64 {
        if i >= 63 {
            return u64::MAX;
        }
        // 1.5 * 2^i == 2^i + 2^(i-1); bucket 0 represents {0, 1}.
        (1u64 << i) + (1u64 << i >> 1)
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (exact, unlike the bucketed quantiles).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) by cumulative walk over
    /// the buckets. Monotone in `q` by construction: a larger `q` can only
    /// stop at the same or a later bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based; q=0 → first, q=1 → last.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_value(i).min(self.max());
            }
        }
        self.max()
    }

    /// Per-bucket sample counts, low magnitude first. Bucket `i` holds
    /// samples in `[2^i, 2^(i+1))` (bucket 0 also holds zero), which is
    /// exactly the shape a cumulative-bucket exporter (Prometheus text
    /// exposition) needs: the upper bound of bucket `i` is `2^(i+1) - 1`.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Resets all buckets (tests only).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Per-engine-run counter deltas, reported once per `Engine` run and
/// accumulated into the global registry (and per-scope breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Events pushed onto the simulation queue.
    pub events_pushed: u64,
    /// Events popped and dispatched.
    pub events_popped: u64,
    /// Stale events dropped by the epoch filter without dispatch.
    pub events_stale_dropped: u64,
    /// Policy decisions the engine applied (allocation changes).
    pub decisions: u64,
    /// Speedup-memo cache hits.
    pub memo_hits: u64,
    /// Speedup-memo cache misses (model evaluations).
    pub memo_misses: u64,
}

impl RunCounters {
    fn accumulate(&self, into: &ScopeCounters) {
        into.runs.inc();
        into.events_pushed.add(self.events_pushed);
        into.events_popped.add(self.events_popped);
        into.events_stale_dropped.add(self.events_stale_dropped);
        into.decisions.add(self.decisions);
        into.memo_hits.add(self.memo_hits);
        into.memo_misses.add(self.memo_misses);
    }
}

/// Accumulated engine counters, globally or for one scope label.
#[derive(Debug, Default)]
struct ScopeCounters {
    runs: Counter,
    events_pushed: Counter,
    events_popped: Counter,
    events_stale_dropped: Counter,
    decisions: Counter,
    memo_hits: Counter,
    memo_misses: Counter,
}

impl ScopeCounters {
    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            runs: self.runs.get(),
            events_pushed: self.events_pushed.get(),
            events_popped: self.events_popped.get(),
            events_stale_dropped: self.events_stale_dropped.get(),
            decisions: self.decisions.get(),
            memo_hits: self.memo_hits.get(),
            memo_misses: self.memo_misses.get(),
        }
    }
}

/// Point-in-time values of one scope's accumulated counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Engine runs attributed here.
    pub runs: u64,
    /// Events pushed onto simulation queues.
    pub events_pushed: u64,
    /// Events popped and dispatched.
    pub events_popped: u64,
    /// Stale events dropped by the epoch filter.
    pub events_stale_dropped: u64,
    /// Policy decisions applied.
    pub decisions: u64,
    /// Speedup-memo hits.
    pub memo_hits: u64,
    /// Speedup-memo misses.
    pub memo_misses: u64,
}

impl CounterSnapshot {
    /// Memo hit rate in `[0, 1]`, or 0 with no lookups.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Everything the registry knows, frozen at one instant; the input to the
/// JSON exporter.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Global engine counters (all scopes combined).
    pub engine: CounterSnapshot,
    /// Per-scope engine counters, keyed by scope label, sorted.
    pub scopes: Vec<(String, CounterSnapshot)>,
    /// Named histograms (e.g. `decision_ns`), sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The process-wide metrics registry.
#[derive(Debug, Default)]
pub struct Registry {
    global: ScopeCounters,
    scopes: Mutex<BTreeMap<String, Arc<ScopeCounters>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(Registry::default)
    }

    /// Accumulates one engine run's counters, attributed to the current
    /// thread's [`scope`](crate::scope) label when one is set.
    pub fn record_run(&self, run: &RunCounters) {
        run.accumulate(&self.global);
        if let Some(label) = crate::scope::current() {
            let scoped = {
                let mut scopes = self.scopes.lock().unwrap();
                Arc::clone(scopes.entry(label).or_default())
            };
            run.accumulate(&scoped);
        }
    }

    /// The named histogram, created on first use. Names are `&'static str`
    /// because the instrumented sites are compiled in.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut h = self.histograms.lock().unwrap();
        Arc::clone(h.entry(name).or_default())
    }

    /// Live handles to every registered histogram, sorted by name. Unlike
    /// [`Registry::snapshot`] this exposes the histograms themselves, so an
    /// exporter that needs raw buckets (Prometheus cumulative `le` series)
    /// can read them without widening [`HistogramSnapshot`].
    pub fn histogram_handles(&self) -> Vec<(&'static str, Arc<Histogram>)> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| (*name, Arc::clone(h)))
            .collect()
    }

    /// Freezes the registry's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let scopes = self
            .scopes
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.snapshot()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| {
                (
                    name.to_string(),
                    HistogramSnapshot {
                        count: h.count(),
                        mean: h.mean(),
                        p50: h.quantile(0.50),
                        p90: h.quantile(0.90),
                        p99: h.quantile(0.99),
                        max: h.max(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            engine: self.global.snapshot(),
            scopes,
            histograms,
        }
    }

    /// Clears every counter, scope, and histogram (tests only).
    pub fn reset(&self) {
        let g = &self.global;
        for c in [
            &g.runs,
            &g.events_pushed,
            &g.events_popped,
            &g.events_stale_dropped,
            &g.decisions,
            &g.memo_hits,
            &g.memo_misses,
        ] {
            c.reset();
        }
        self.scopes.lock().unwrap().clear();
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
    }
}

/// Convenience: record one run's counters into the global registry.
pub fn record_engine_run(run: &RunCounters) {
    Registry::global().record_run(run);
}

/// Calls per recorded sample of a [`SampledTimer`]: one call in
/// this many reads the clock. A power of two, so the sampling test is a
/// mask. Fixed at compile time; there is no flag or config field for it.
pub const SAMPLE_EVERY: u64 = 64;

/// A sampled wall-clock timer for a hot call site: times one call in
/// [`SAMPLE_EVERY`], starting with the first, and records the elapsed
/// nanoseconds into its histogram. The other calls cost a counter
/// increment and a branch: no clock read and no atomic.
///
/// Over `n` calls the histogram gains exactly `ceil(n / SAMPLE_EVERY)`
/// samples, so its count reports samples, not calls. The timer also
/// keeps its own exact [`calls`](Self::calls), [`samples`](Self::samples)
/// and [`sampled_ns`](Self::sampled_ns), and, once told to
/// [`keep_spans`](Self::keep_spans), each sample's start and duration.
/// None of it ever feeds back into what it times.
#[derive(Debug)]
pub struct SampledTimer {
    hist: Arc<Histogram>,
    calls: u64,
    samples: u64,
    sampled_ns: u64,
    /// The epoch span starts are measured from, and each sample's
    /// `(start_ns, dur_ns)`; `None` until `keep_spans`.
    spans: Option<(Instant, Vec<(u64, u64)>)>,
}

impl SampledTimer {
    /// A timer recording into `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        Self {
            hist,
            calls: 0,
            samples: 0,
            sampled_ns: 0,
            spans: None,
        }
    }

    /// From now on, also keeps every sample as a `(start_ns, dur_ns)`
    /// span, with the start measured from `epoch`.
    pub fn keep_spans(&mut self, epoch: Instant) {
        self.spans = Some((epoch, Vec::new()));
    }

    /// Runs `f`, timing it if this call is a sampled one.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let sampled = self.calls & (SAMPLE_EVERY - 1) == 0;
        self.calls = self.calls.wrapping_add(1);
        if !sampled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let ns = nanos(started.elapsed());
        self.hist.record(ns);
        self.samples += 1;
        self.sampled_ns = self.sampled_ns.saturating_add(ns);
        if let Some((epoch, spans)) = &mut self.spans {
            spans.push((nanos(started.duration_since(*epoch)), ns));
        }
        out
    }

    /// Calls made through [`time`](Self::time), sampled or not.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Calls that were timed: `ceil(calls / SAMPLE_EVERY)`.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Nanoseconds summed over the timed calls.
    pub fn sampled_ns(&self) -> u64 {
        self.sampled_ns
    }

    /// Takes the `(start_ns, dur_ns)` spans kept so far; empty unless the
    /// timer was told to [`keep_spans`](Self::keep_spans).
    pub fn take_spans(&mut self) -> Vec<(u64, u64)> {
        self.spans
            .as_mut()
            .map(|(_, spans)| std::mem::take(spans))
            .unwrap_or_default()
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_saturates_at_max() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_basic_stats() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1015);
        assert_eq!(h.max(), 1000);
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        // Top quantile lands in 1000's bucket [512, 1024): midpoint 768,
        // capped at the exact max.
        assert_eq!(h.quantile(1.0), 768);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn bucket_counts_expose_raw_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2, "0 and 1 share bucket 0");
        assert_eq!(counts[1], 2, "2 and 3 land in [2, 4)");
        assert_eq!(counts[9], 1, "1000 lands in [512, 1024)");
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(Histogram::bucket_upper_bound(0), 1);
        assert_eq!(Histogram::bucket_upper_bound(9), 1023);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn sampled_timer_times_one_call_in_sample_every() {
        let h = Arc::new(Histogram::new());
        let mut timer = SampledTimer::new(Arc::clone(&h));
        assert_eq!(timer.time(|| 7), 7);
        assert_eq!(h.count(), 1, "the first call is sampled");
        for _ in 1..130 {
            timer.time(|| ());
        }
        assert_eq!(h.count(), 3, "calls 0, 64 and 128 of 130");
        assert_eq!(timer.calls(), 130);
        assert_eq!(timer.samples(), 3);
        assert_eq!(timer.sampled_ns(), h.sum());
        assert!(timer.take_spans().is_empty(), "spans are kept on request");

        let mut timer = SampledTimer::new(Arc::new(Histogram::new()));
        timer.keep_spans(Instant::now());
        for _ in 0..130 {
            timer.time(|| std::hint::black_box(0u64));
        }
        let spans = timer.take_spans();
        assert_eq!(spans.len() as u64, timer.samples());
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|&(_, dur)| dur).sum::<u64>(),
            timer.sampled_ns()
        );
        assert!(
            spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
            "samples are kept in call order and do not overlap: {spans:?}"
        );
        assert!(timer.take_spans().is_empty(), "taking drains the spans");
    }

    #[test]
    fn registry_scoped_attribution() {
        let reg = Registry::default();
        let run = RunCounters {
            events_pushed: 5,
            events_popped: 4,
            events_stale_dropped: 1,
            decisions: 2,
            memo_hits: 3,
            memo_misses: 1,
        };
        {
            let _g = crate::scope::enter("figX");
            reg.record_run(&run);
        }
        reg.record_run(&run);
        let snap = reg.snapshot();
        assert_eq!(snap.engine.runs, 2);
        assert_eq!(snap.engine.events_pushed, 10);
        assert_eq!(snap.scopes.len(), 1);
        assert_eq!(snap.scopes[0].0, "figX");
        assert_eq!(snap.scopes[0].1.runs, 1);
        assert!((snap.scopes[0].1.memo_hit_rate() - 0.75).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn quantiles_are_monotone_in_q(
            samples in proptest::collection::vec(0u64..1_000_000_000, 1..200),
            qa in 0.0f64..1.0,
            qb in 0.0f64..1.0,
        ) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            prop_assert!(h.quantile(lo) <= h.quantile(hi));
        }

        #[test]
        fn quantiles_bounded_by_observed_range(
            samples in proptest::collection::vec(0u64..u64::MAX, 1..100),
            q in 0.0f64..1.0,
        ) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            prop_assert!(h.quantile(q) <= h.max());
        }

        #[test]
        fn counter_never_decreases(adds in proptest::collection::vec(0u64..u64::MAX, 1..50)) {
            let c = Counter::new();
            let mut prev = 0;
            for &n in &adds {
                c.add(n);
                let now = c.get();
                prop_assert!(now >= prev);
                prev = now;
            }
        }
    }
}
