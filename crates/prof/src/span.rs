//! The span kinds of the engine's self-profile.
//!
//! Each kind is one timed layer of the engine. The engine times the
//! `replay` span once per run and the others through one sampled timer
//! each, so a kind's profile is an exact call count plus the timed
//! samples (see [`crate::Profile`]).

/// What a span measures — one variant per instrumented region of the
/// replay hot path, from the whole-run `Replay` span down to queue
/// operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The entire replay run, from first event to `into_result`.
    Replay,
    /// A single policy activation (allocation decision).
    PolicyDecision,
    /// The event-queue work of one reschedule.
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
