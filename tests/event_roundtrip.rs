//! Property tests for the observability layer's stream codecs and metrics.
//!
//! Three families:
//!
//! 1. `parse_line(to_line(e)) == e` across **every** [`ObsEvent`] kind, with
//!    generated ids, floats, state names, and debug-quoted payloads. The
//!    line format is the interchange surface for `pdpa analyze` / `pdpa
//!    diff`, so a kind that cannot round-trip would silently vanish from
//!    replays.
//! 2. The `PDPAOBS1` binary framing decodes every generated stream back to
//!    the identical events, and `parse_stream` (the auto-detecting reader)
//!    agrees with the text parser event-for-event on the same stream —
//!    the two codecs can never drift apart.
//! 3. The log₂-bucket [`Histogram`] quantile estimate stays within one
//!    bucket width of the exact rank-order statistic: for a sample `v ≥ 2`
//!    in bucket `i`, `v ∈ [2^i, 2^(i+1))` and the reported midpoint
//!    `1.5·2^i` gives a ratio in `(0.75, 1.5]`; the sub-bucket values
//!    `{0, 1}` share bucket 0, so there the error is absolute and ≤ 1.

use proptest::prelude::*;

use pdpa_suite::obs::{
    parse_stream, read_stream, write_stream, write_text_stream, DecisionTrigger, ExperimentFailure,
    Histogram, ObsEvent, StateName, TimedEvent,
};
use pdpa_suite::sim::{CpuId, JobId, SimTime};

fn arb_job() -> impl Strategy<Value = JobId> {
    (0u32..10_000).prop_map(JobId)
}

fn arb_cpu() -> impl Strategy<Value = CpuId> {
    (0u16..4_096).prop_map(CpuId)
}

fn arb_trigger() -> impl Strategy<Value = DecisionTrigger> {
    prop_oneof![
        Just(DecisionTrigger::Arrival),
        Just(DecisionTrigger::Report),
        Just(DecisionTrigger::Completion),
        Just(DecisionTrigger::Fault),
    ]
}

/// The PDPA state vocabulary plus an ad-hoc name, exercising both the
/// name table's fixed entries and one added on first sight.
fn arb_state() -> impl Strategy<Value = StateName> {
    prop_oneof![
        Just(StateName::NO_REF),
        Just(StateName::INC),
        Just(StateName::DEC),
        Just(StateName::STABLE),
        Just(StateName::intern("CUSTOM_STATE").expect("one extra name fits")),
    ]
}

fn failed(name: impl Into<String>, message: impl Into<String>) -> ObsEvent {
    ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
        name: name.into(),
        message: message.into(),
    }))
}

/// One strategy per event kind; `prop_oneof!` unions all sixteen.
fn arb_event() -> BoxedStrategy<ObsEvent> {
    prop_oneof![
        arb_job().prop_map(|job| ObsEvent::JobSubmitted { job }),
        arb_job().prop_map(|job| ObsEvent::JobDequeued { job }),
        (arb_job(), 1usize..=128).prop_map(|(job, request)| ObsEvent::JobStarted { job, request }),
        arb_job().prop_map(|job| ObsEvent::JobFinished { job }),
        (
            arb_job(),
            1usize..=128,
            0.0f64..1e4,
            0.0f64..64.0,
            0.0f64..1.0,
            proptest::bool::ANY,
        )
            .prop_map(|(job, procs, iter_secs, speedup, efficiency, estimated)| {
                ObsEvent::IterationMeasured {
                    job,
                    procs,
                    iter_secs,
                    speedup,
                    efficiency,
                    estimated,
                }
            }),
        (
            arb_trigger(),
            arb_job(),
            0usize..=128,
            0usize..=128,
            proptest::option::of((arb_state(), arb_state())),
        )
            .prop_map(|(trigger, job, from_alloc, to_alloc, transition)| {
                ObsEvent::Decision {
                    trigger,
                    job,
                    from_alloc,
                    to_alloc,
                    transition,
                }
            }),
        (arb_job(), arb_state(), arb_state()).prop_map(|(job, from, to)| ObsEvent::StateChanged {
            job,
            from,
            to
        }),
        (0usize..256, 0usize..16_384).prop_map(|(running, total_alloc)| ObsEvent::MplChanged {
            running,
            total_alloc,
        }),
        (arb_job(), 0.0f64..1e3, 0usize..=64, 0usize..=64).prop_map(
            |(job, penalty_secs, gained, lost)| ObsEvent::ReallocCost {
                job,
                penalty_secs,
                gained,
                lost,
            }
        ),
        (arb_cpu(), proptest::option::of(arb_job()))
            .prop_map(|(cpu, job)| ObsEvent::CpuAssigned { cpu, job }),
        arb_cpu().prop_map(|cpu| ObsEvent::CpuFailed { cpu }),
        arb_cpu().prop_map(|cpu| ObsEvent::CpuRecovered { cpu }),
        (0usize..=4_096, 1usize..=4_096)
            .prop_map(|(alive, total)| ObsEvent::DegradedCapacity { alive, total }),
        (arb_job(), 1u32..=16, 0.0f64..600.0).prop_map(|(job, attempt, backoff_secs)| {
            ObsEvent::JobRetried {
                job,
                attempt,
                backoff_secs,
            }
        }),
        (arb_job(), 1u32..=16).prop_map(|(job, attempts)| ObsEvent::JobFailed { job, attempts }),
        // The name is a single key=value token; the message is
        // debug-quoted, so any printable ASCII (backslashes and quotes
        // included) must survive the escape/unescape pair.
        ("[a-z0-9_]{1,16}", "[ -~]{0,60}").prop_map(|(name, message)| failed(name, message)),
    ]
    .boxed()
}

fn arb_timed() -> impl Strategy<Value = TimedEvent> {
    (
        prop_oneof![Just(0.0f64), 0.0f64..1e6],
        0u64..1_000_000,
        arb_event(),
    )
        .prop_map(|(at, seq, event)| TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Every event kind survives `parse_line(to_line(e))` bit-exactly:
    /// floats re-parse to the same value (shortest formatting), interned
    /// names compare equal, quoted payloads unescape to the original.
    #[test]
    fn every_event_kind_round_trips(ev in arb_timed()) {
        let line = ev.to_line();
        let back = TimedEvent::parse_line(&line);
        prop_assert!(
            back.is_ok(),
            "line {:?} failed to parse: {}",
            line,
            back.unwrap_err()
        );
        prop_assert_eq!(back.unwrap(), ev);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Every generated stream survives the binary codec identically, and
    /// the auto-detecting `parse_stream` yields the same events from the
    /// binary bytes as from the text rendering of the same stream.
    #[test]
    fn binary_stream_matches_text_parser(
        events in proptest::collection::vec(arb_timed(), 0..40),
    ) {
        let bytes = write_stream(&events);
        let back = read_stream(&bytes).expect("binary stream decodes");
        prop_assert_eq!(&back, &events);

        let from_binary = parse_stream(&bytes).expect("binary auto-detects");
        let from_text =
            parse_stream(write_text_stream(&events).as_bytes()).expect("text parses");
        prop_assert_eq!(&from_binary, &from_text);
        prop_assert_eq!(&from_binary, &events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The histogram quantile stays within one log₂ bucket of the exact
    /// rank-order statistic: relative error in `(0.75, 1.5]` for samples
    /// `≥ 2`, absolute error ≤ 1 for the sub-bucket values `{0, 1}`.
    #[test]
    fn quantile_error_is_bounded_by_one_bucket(
        samples in proptest::collection::vec(
            prop_oneof![0u64..4, 1u64..1_000, 1u64..50_000_000],
            1..200,
        ),
        q_percent in 0u32..=100,
    ) {
        let q = f64::from(q_percent) / 100.0;
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }

        // The exact order statistic at the histogram's own rank rule.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let exact = sorted[rank - 1];

        let est = h.quantile(q);
        if exact >= 2 {
            let ratio = est as f64 / exact as f64;
            prop_assert!(
                (0.75..=1.5).contains(&ratio),
                "quantile({}) of {} samples: est {} vs exact {} (ratio {})",
                q, n, est, exact, ratio
            );
        } else {
            let diff = (est as i64 - exact as i64).unsigned_abs();
            prop_assert!(
                diff <= 1,
                "quantile({}) of {} samples: est {} vs exact {} (sub-bucket)",
                q, n, est, exact
            );
        }
    }
}

/// Deterministic spot checks of the round trip at the extremes the
/// generators cannot hit (huge seq, zero-width message, the top bucket).
#[test]
fn round_trip_edge_cases() {
    let cases = [
        TimedEvent {
            at: SimTime::ZERO,
            seq: u64::MAX,
            event: failed("x", ""),
        },
        TimedEvent {
            at: SimTime::from_secs(0.1 + 0.2), // a classically non-exact float
            seq: 0,
            event: ObsEvent::CpuAssigned {
                cpu: CpuId(u16::MAX),
                job: None,
            },
        },
        TimedEvent {
            at: SimTime::from_secs(1e9),
            seq: 1,
            event: failed("quoting", "tab\t quote\" backslash\\ newline\n done"),
        },
    ];
    for ev in cases {
        let line = ev.to_line();
        let back = TimedEvent::parse_line(&line).expect("edge case parses");
        assert_eq!(back, ev, "line was {line:?}");
    }
}
