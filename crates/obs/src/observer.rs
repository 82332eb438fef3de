//! The decision-event bus: [`Observer`] plus the two standard sinks.

use crate::event::{ObsEvent, TimedEvent};
use pdpa_sim::SimTime;

/// A sink for engine decision events.
///
/// The engine caches [`Observer::is_enabled`] into a local bool at run
/// start and skips both event *construction* and the virtual call when it
/// is false, so a [`NullObserver`] run pays only one branch per publish
/// site.
pub trait Observer {
    /// Whether this observer wants events at all. Checked once per run.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Receives one event at simulated instant `at`. Events arrive in
    /// publication order, which is nondecreasing in `at`.
    fn on_event(&mut self, at: SimTime, event: &ObsEvent);
}

/// Discards everything; `is_enabled()` is `false` so the engine never even
/// builds the events.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn is_enabled(&self) -> bool {
        false
    }

    fn on_event(&mut self, _at: SimTime, _event: &ObsEvent) {}
}

/// Records every event as a [`TimedEvent`] with a per-run monotonic
/// sequence number.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: Vec<TimedEvent>,
    /// The instant of the last stored event.
    last_at: SimTime,
    /// Set when a stored event is earlier than the one stored before it;
    /// only then does [`take_events`](Self::take_events) sort.
    out_of_order: bool,
}

impl RecordingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far, in `(sim_time, seq)` order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the stream sorted by
    /// `(sim_time, seq)`. Publication order is already nondecreasing in
    /// sim time and `seq` is monotonic, so the recorder notes on each push
    /// whether the order broke; the stable sort runs only for a stream
    /// published out of order, which keeps the ordering contract explicit
    /// and deterministic regardless of how the stream was produced.
    pub fn take_events(self) -> Vec<TimedEvent> {
        let mut events = self.events;
        if self.out_of_order {
            events.sort_by(|a, b| a.at.cmp(&b.at).then(a.seq.cmp(&b.seq)));
        }
        events
    }
}

impl Observer for RecordingObserver {
    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        // Instants are never NaN, so the float comparison is the order.
        self.out_of_order |= at.as_secs() < self.last_at.as_secs();
        self.last_at = at;
        self.events.push(TimedEvent {
            at,
            seq: self.events.len() as u64,
            event: event.clone(),
        });
    }
}

/// A set of event kinds, parsed from a comma-separated list of labels from
/// [`ObsEvent::KINDS`]. The substrate of `pdpa replay --obs-filter`: a
/// 250 ms-quantum IRIX run floods the stream with `cpu`/`state` churn, and
/// keeping only the kinds under study makes such traces affordable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindFilter {
    mask: u32,
}

impl KindFilter {
    /// Parses `"kind1,kind2,..."`. Unknown labels are an error listing the
    /// full vocabulary; an empty spec is an error (an all-excluding filter
    /// is never what the operator meant).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut mask = 0u32;
        for label in spec.split(',').map(str::trim).filter(|l| !l.is_empty()) {
            let idx = ObsEvent::KINDS
                .iter()
                .position(|k| *k == label)
                .ok_or_else(|| {
                    format!(
                        "unknown event kind '{label}' (expected one of: {})",
                        ObsEvent::KINDS.join(", ")
                    )
                })?;
            mask |= 1 << idx;
        }
        if mask == 0 {
            return Err("event-kind filter selects nothing".to_string());
        }
        Ok(KindFilter { mask })
    }

    /// Whether the filter keeps this event.
    pub fn allows(&self, event: &ObsEvent) -> bool {
        self.mask & (1 << event.kind_index()) != 0
    }

    /// The kept kind labels, in [`ObsEvent::KINDS`] order.
    pub fn kinds(&self) -> Vec<&'static str> {
        ObsEvent::KINDS
            .iter()
            .enumerate()
            .filter(|(i, _)| self.mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .collect()
    }
}

/// Counts the events of a run per kind, so a caller that needs only the
/// counts (`pdpa replay --obs`) keeps no stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindCounter {
    /// Events per kind, by [`ObsEvent::kind_index`].
    counts: [u64; ObsEvent::KINDS.len()],
}

impl KindCounter {
    /// Events counted, all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kind label, count)` for every kind, in [`ObsEvent::KINDS`] order.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ObsEvent::KINDS
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }
}

impl Observer for KindCounter {
    fn on_event(&mut self, _at: SimTime, event: &ObsEvent) {
        self.counts[event.kind_index()] += 1;
    }
}

/// Forwards only the kinds a [`KindFilter`] keeps to the wrapped observer.
/// Wraps the *outside* of an observer chain, so everything downstream (the
/// recorder, a live tap) sees the same reduced stream.
pub struct FilterObserver<'a> {
    inner: &'a mut dyn Observer,
    filter: KindFilter,
}

impl std::fmt::Debug for FilterObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterObserver")
            .field("filter", &self.filter)
            .finish_non_exhaustive()
    }
}

impl<'a> FilterObserver<'a> {
    /// Wraps `inner`, keeping only kinds allowed by `filter`.
    pub fn new(inner: &'a mut dyn Observer, filter: KindFilter) -> Self {
        FilterObserver { inner, filter }
    }
}

impl Observer for FilterObserver<'_> {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        if self.filter.allows(event) {
            self.inner.on_event(at, event);
        }
    }
}

/// Publishes one stream to two observers, the first then the second: a
/// caller that both records a run and folds it live (into a CPU trace,
/// say) chains the two into the engine's one observer slot. The tee is
/// enabled when either side is, and then both sides see every event.
pub struct TeeObserver<'a>(pub &'a mut dyn Observer, pub &'a mut dyn Observer);

impl std::fmt::Debug for TeeObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TeeObserver")
    }
}

impl Observer for TeeObserver<'_> {
    fn is_enabled(&self) -> bool {
        self.0.is_enabled() || self.1.is_enabled()
    }

    fn on_event(&mut self, at: SimTime, event: &ObsEvent) {
        self.0.on_event(at, event);
        self.1.on_event(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;
    use pdpa_sim::JobId;

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.is_enabled());
    }

    #[test]
    fn tee_feeds_both_sides_and_is_enabled_when_either_is() {
        let (mut a, mut b) = (RecordingObserver::new(), RecordingObserver::new());
        {
            let mut tee = TeeObserver(&mut a, &mut b);
            assert!(tee.is_enabled());
            tee.on_event(
                SimTime::from_secs(1.0),
                &ObsEvent::JobSubmitted { job: JobId(0) },
            );
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 1);

        let (mut null_a, mut null_b) = (NullObserver, NullObserver);
        assert!(!TeeObserver(&mut null_a, &mut null_b).is_enabled());
        assert!(TeeObserver(&mut null_a, &mut a).is_enabled());
    }

    #[test]
    fn kind_counter_counts_every_kind() {
        let mut kinds = KindCounter::default();
        let at = SimTime::from_secs(1.0);
        for job in 0..3 {
            kinds.on_event(at, &ObsEvent::JobSubmitted { job: JobId(job) });
        }
        kinds.on_event(at, &ObsEvent::JobFinished { job: JobId(0) });
        assert_eq!(kinds.total(), 4);
        let counts: Vec<(&str, u64)> = kinds.counts().filter(|&(_, n)| n > 0).collect();
        assert_eq!(counts, [("submit", 3), ("finish", 1)]);
        assert_eq!(kinds.counts().count(), ObsEvent::KINDS.len());
    }

    #[test]
    fn kind_filter_parses_and_rejects() {
        let f = KindFilter::parse("decision, iter").expect("valid kinds");
        assert_eq!(f.kinds(), vec!["iter", "decision"]);
        assert!(f.allows(&ObsEvent::Decision {
            trigger: crate::event::DecisionTrigger::Report,
            job: JobId(0),
            from_alloc: 4,
            to_alloc: 2,
            transition: None,
        }));
        assert!(!f.allows(&ObsEvent::JobSubmitted { job: JobId(0) }));

        let err = KindFilter::parse("decision,bogus").expect_err("unknown kind");
        assert!(err.contains("bogus"), "got: {err}");
        assert!(err.contains("submit"), "error lists vocabulary: {err}");
        assert!(KindFilter::parse("").is_err(), "empty spec selects nothing");
    }

    #[test]
    fn filter_observer_drops_excluded_kinds() {
        let mut rec = RecordingObserver::new();
        {
            let filter = KindFilter::parse("finish").expect("valid");
            let mut filtered = FilterObserver::new(&mut rec, filter);
            assert!(filtered.is_enabled());
            filtered.on_event(
                SimTime::from_secs(1.0),
                &ObsEvent::JobSubmitted { job: JobId(0) },
            );
            filtered.on_event(
                SimTime::from_secs(2.0),
                &ObsEvent::JobFinished { job: JobId(0) },
            );
        }
        let events = rec.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event.kind(), "finish");
    }

    #[test]
    fn recorder_assigns_monotonic_seq_and_sorts() {
        let mut rec = RecordingObserver::new();
        rec.on_event(
            SimTime::from_secs(1.0),
            &ObsEvent::JobSubmitted { job: JobId(0) },
        );
        rec.on_event(
            SimTime::from_secs(1.0),
            &ObsEvent::JobStarted {
                job: JobId(0),
                request: 8,
            },
        );
        rec.on_event(
            SimTime::from_secs(2.0),
            &ObsEvent::JobFinished { job: JobId(0) },
        );
        let events = rec.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn recorder_sorts_a_stream_published_out_of_order() {
        let mut rec = RecordingObserver::new();
        for (at, job) in [(3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3)] {
            rec.on_event(
                SimTime::from_secs(at),
                &ObsEvent::JobSubmitted { job: JobId(job) },
            );
        }
        let events = rec.take_events();
        let order: Vec<(f64, u64)> = events.iter().map(|e| (e.at.as_secs(), e.seq)).collect();
        assert_eq!(order, [(1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn recorder_keeps_an_in_order_stream_without_sorting() {
        let mut rec = RecordingObserver::new();
        for (at, job) in [(0.0, 0), (1.0, 1), (1.0, 2), (2.5, 3)] {
            rec.on_event(
                SimTime::from_secs(at),
                &ObsEvent::JobSubmitted { job: JobId(job) },
            );
        }
        assert!(!rec.out_of_order, "equal instants keep the order");
        let events = rec.take_events();
        let order: Vec<(f64, u64)> = events.iter().map(|e| (e.at.as_secs(), e.seq)).collect();
        assert_eq!(order, [(0.0, 0), (1.0, 1), (1.0, 2), (2.5, 3)]);
    }
}
