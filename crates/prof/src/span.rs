//! Hierarchical wall-clock spans, recorded into the coordinator's lane.
//!
//! A lane is an owned buffer the engine holds next to its state — no
//! locks, no atomics on the hot path. The disabled path has to be
//! effectively free: `begin`/`end` on a disabled lane are a single branch
//! each and never allocate, which is what lets the profiler-off overhead
//! bound ride the same test as `NullObserver`.
//!
//! Spans use an explicit begin/end token rather than an RAII guard because
//! the instrumented engine code needs `&mut self` between the two points;
//! a guard borrowing the lane would lock the whole engine struct.

use std::time::Instant;

/// What a recorded span measures — one variant per instrumented region of
/// the replay hot path, from the whole-run `Replay` span down to batched
/// queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The entire replay run, from first event to `into_result`.
    Replay,
    /// A single policy activation (allocation decision).
    PolicyDecision,
    /// A batch of event-queue operations (arrival batches, reschedules).
    QueueOps,
}

impl SpanKind {
    /// Every kind, in display order — used by the hot-path report.
    pub const ALL: [SpanKind; 3] = [
        SpanKind::Replay,
        SpanKind::PolicyDecision,
        SpanKind::QueueOps,
    ];

    /// Stable human-readable label, used in both exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Replay => "replay",
            SpanKind::PolicyDecision => "policy_decision",
            SpanKind::QueueOps => "queue_ops",
        }
    }
}

/// One closed span: kind, start offset from the profiler epoch, duration.
/// Nanosecond `u64`s cover ~584 years of run time — enough.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// Which instrumented region this span covers.
    pub kind: SpanKind,
    /// Start time in nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Token returned by [`Lane::begin`] and consumed by [`Lane::end`].
///
/// `#[must_use]` so an unmatched `begin` is a compile-time warning; on a
/// disabled lane the token carries `None` and `end` is a single branch.
#[must_use = "a span token must be closed with Lane::end"]
#[derive(Debug)]
pub struct SpanStart {
    kind: SpanKind,
    at: Option<Instant>,
}

/// The coordinator's span buffer: every span of a run, timed from one
/// epoch `Instant`, plus a processed-event counter.
#[derive(Debug)]
pub struct Lane {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    events: u64,
}

impl Lane {
    /// A lane that records spans relative to `epoch`.
    pub fn enabled(epoch: Instant) -> Self {
        Lane {
            enabled: true,
            epoch,
            spans: Vec::new(),
            events: 0,
        }
    }

    /// A lane that ignores everything. `begin`/`end`/`add_events` are a
    /// single branch and never allocate.
    pub fn disabled() -> Self {
        Lane {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            events: 0,
        }
    }

    /// Whether this lane is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span of `kind`. Free when disabled.
    #[inline]
    pub fn begin(&self, kind: SpanKind) -> SpanStart {
        SpanStart {
            kind,
            at: if self.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Closes a span opened with [`Lane::begin`]. Free when the token came
    /// from a disabled lane.
    #[inline]
    pub fn end(&mut self, token: SpanStart) {
        if let Some(start) = token.at {
            let dur_ns = start.elapsed().as_nanos() as u64;
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(SpanRec {
                kind: token.kind,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Bumps this lane's processed-event counter. Free when disabled.
    #[inline]
    pub fn add_events(&mut self, n: u64) {
        if self.enabled {
            self.events += n;
        }
    }

    /// Drains the lane into a finished [`crate::Profile`]. Returns `None`
    /// when the lane was disabled (nothing was recorded).
    pub fn finish(&mut self) -> Option<crate::Profile> {
        self.enabled.then(|| crate::Profile {
            spans: std::mem::take(&mut self.spans),
            events: std::mem::take(&mut self.events),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_lane_records_nothing() {
        let mut lane = Lane::disabled();
        let t = lane.begin(SpanKind::QueueOps);
        lane.add_events(10);
        lane.end(t);
        assert!(lane.spans.is_empty());
        assert_eq!(lane.events, 0);
        assert!(lane.finish().is_none());
    }

    #[test]
    fn enabled_lane_records_nested_spans() {
        let mut lane = Lane::enabled(Instant::now());
        let outer = lane.begin(SpanKind::Replay);
        let inner = lane.begin(SpanKind::PolicyDecision);
        lane.end(inner);
        lane.end(outer);
        lane.add_events(7);
        let profile = lane.finish().expect("enabled lane yields a profile");
        let spans = &profile.spans;
        assert_eq!(spans.len(), 2);
        // Inner closed first, so it is recorded first; the outer span must
        // fully contain it on the shared timeline.
        assert_eq!(spans[0].kind, SpanKind::PolicyDecision);
        assert_eq!(spans[1].kind, SpanKind::Replay);
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(
            spans[1].start_ns + spans[1].dur_ns >= spans[0].start_ns + spans[0].dur_ns,
            "outer span must contain inner span"
        );
        assert_eq!(profile.events, 7);
    }
}
