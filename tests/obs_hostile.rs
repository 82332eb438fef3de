//! Hostile-input suite for the `PDPAOBS1` decoder.
//!
//! Valid streams, including `failed` frames whose payload needs a
//! multi-byte length prefix, are truncated, bit-flipped and padded with
//! inserted bytes, and every result is held to the decoder's contract:
//!
//! - `read_stream` never panics;
//! - every error names the frame and its byte offset;
//! - the frame-by-frame walker (`stream_events`) stops at the same
//!   error, with the same text, or yields the same events;
//! - a decoded stream never holds more capacity than one event per
//!   smallest legal frame (12 bytes) of input;
//! - state names past the table's cap are an error, not a new entry.
//!
//! Mutated name strings intern new state names, so this binary may fill
//! the process-wide name table; every check here holds either way.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pdpa_suite::obs::{
    parse_stream, read_stream, stream_events, write_stream, write_text_stream, DecisionTrigger,
    ExperimentFailure, ObsEvent, StateName, TimedEvent,
};
use pdpa_suite::sim::{CpuId, JobId, SimTime};

/// The smallest legal frame: length, kind, 8-byte time, seq, one field.
const MIN_FRAME: usize = 12;

const STATES: [StateName; 4] = [
    StateName::NO_REF,
    StateName::INC,
    StateName::DEC,
    StateName::STABLE,
];

/// One event of every kind, picked by `kind` and filled from `n`. Only
/// the four fixed state names appear, so a valid stream never depends
/// on the name table's free space.
fn event(kind: u8, n: u32, text_len: usize) -> ObsEvent {
    let job = JobId(n % 5_000);
    let cpu = CpuId((n % 512) as u16);
    let x = f64::from(n) / 7.0;
    let state = |i: u32| STATES[(i % 4) as usize];
    match kind % 16 {
        0 => ObsEvent::JobSubmitted { job },
        1 => ObsEvent::JobDequeued { job },
        2 => ObsEvent::JobStarted {
            job,
            request: n as usize % 129,
        },
        3 => ObsEvent::JobFinished { job },
        4 => ObsEvent::IterationMeasured {
            job,
            procs: n as usize % 64,
            iter_secs: x,
            speedup: x / 3.0,
            efficiency: 0.5,
            estimated: n.is_multiple_of(2),
        },
        5 => ObsEvent::Decision {
            trigger: DecisionTrigger::Report,
            job,
            from_alloc: n as usize % 60,
            to_alloc: (n as usize + 4) % 60,
            transition: (!n.is_multiple_of(3)).then(|| (state(n), state(n / 4))),
        },
        6 => ObsEvent::StateChanged {
            job,
            from: state(n),
            to: state(n + 1),
        },
        7 => ObsEvent::MplChanged {
            running: n as usize % 32,
            total_alloc: n as usize % 4_096,
        },
        8 => ObsEvent::ReallocCost {
            job,
            penalty_secs: x,
            gained: n as usize % 9,
            lost: n as usize % 5,
        },
        9 => ObsEvent::CpuAssigned {
            cpu,
            job: n.is_multiple_of(2).then_some(job),
        },
        10 => ObsEvent::CpuFailed { cpu },
        11 => ObsEvent::CpuRecovered { cpu },
        12 => ObsEvent::DegradedCapacity {
            alive: n as usize % 60,
            total: 60,
        },
        13 => ObsEvent::JobRetried {
            job,
            attempt: n % 4,
            backoff_secs: x,
        },
        14 => ObsEvent::JobFailed {
            job,
            attempts: n % 4,
        },
        _ => ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
            name: format!("expt{}", n % 100),
            message: "panicked: \"boom\"\n".repeat(1 + text_len / 18),
        })),
    }
}

/// A valid stream of 1–30 events; about one in eight is a `failed`
/// frame of up to ~700 bytes.
fn arb_stream() -> impl Strategy<Value = Vec<TimedEvent>> {
    proptest::collection::vec(
        (
            prop_oneof![0u8..16, Just(15u8)],
            0u32..1_000_000,
            0usize..700,
        ),
        1..30,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (kind, n, text_len))| TimedEvent {
                at: SimTime::from_secs(i as f64 * 0.25),
                seq: i as u64,
                event: event(kind, n, text_len),
            })
            .collect()
    })
}

/// One byte-level edit, at a position given as a fraction of the body
/// (everything after the magic).
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(f64),
    Flip(f64, u8),
    Insert(f64, u8),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Mutation::Truncate),
        (0.0f64..1.0, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (0.0f64..1.0, 0u8..=255).prop_map(|(at, byte)| Mutation::Insert(at, byte)),
    ]
}

fn apply(bytes: &mut Vec<u8>, mutation: &Mutation) {
    let body = bytes.len() - 8;
    let pos = |at: f64| 8 + ((at * body as f64) as usize).min(body);
    match *mutation {
        Mutation::Truncate(at) => bytes.truncate(pos(at)),
        Mutation::Flip(at, mask) => {
            let i = pos(at).min(bytes.len() - 1).max(8);
            if i < bytes.len() {
                bytes[i] ^= mask;
            }
        }
        Mutation::Insert(at, byte) => bytes.insert(pos(at), byte),
    }
}

/// Decodes `bytes` and checks the contract; returns the error text for
/// the caller's own checks.
fn check_decode(bytes: &[u8]) -> Result<Option<String>, TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| read_stream(bytes)));
    let Ok(decoded) = outcome else {
        return Err(TestCaseError::Fail(format!(
            "read_stream panicked on {} bytes",
            bytes.len()
        )));
    };
    match decoded {
        Ok(events) => {
            prop_assert!(
                events.capacity() <= bytes.len() / MIN_FRAME,
                "capacity {} for {} input bytes",
                events.capacity(),
                bytes.len()
            );
            Ok(None)
        }
        Err(e) => {
            prop_assert!(names_a_frame(&e), "unlocated error: {}", e);
            Ok(Some(e))
        }
    }
}

/// True when `e` reads `frame N at byte M: …`.
fn names_a_frame(e: &str) -> bool {
    let Some(rest) = e.strip_prefix("frame ") else {
        return false;
    };
    let Some((n, rest)) = rest.split_once(" at byte ") else {
        return false;
    };
    let Some((m, _)) = rest.split_once(": ") else {
        return false;
    };
    n.parse::<u64>().is_ok() && m.parse::<u64>().is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Valid streams decode to themselves within the capacity bound, and
    /// every mutation of one either decodes or fails with a located error.
    #[test]
    fn mutated_streams_fail_located_and_never_panic(
        events in arb_stream(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut bytes = write_stream(&events);
        prop_assert_eq!(check_decode(&bytes)?, None);
        prop_assert_eq!(read_stream(&bytes).expect("valid"), events);
        for m in &mutations {
            apply(&mut bytes, m);
        }
        check_decode(&bytes)?;
        // The auto-detecting reader takes the same path.
        let via_parse = catch_unwind(AssertUnwindSafe(|| parse_stream(&bytes)));
        prop_assert!(via_parse.is_ok(), "parse_stream panicked");
        // So does the walker, one frame at a time.
        let walked = stream_events(&bytes).and_then(|walk| walk.collect::<Result<Vec<_>, _>>());
        prop_assert_eq!(walked, read_stream(&bytes));
    }

    /// The text walker stops at the line `parse_stream` stops at.
    #[test]
    fn walked_text_streams_fail_where_parsed_ones_do(
        events in arb_stream(),
        cut in 0.0f64..1.0,
    ) {
        let text = write_text_stream(&events);
        let mut bytes = text.into_bytes();
        let at = (cut * bytes.len() as f64) as usize;
        if at < bytes.len() {
            bytes[at] = b'#';
        }
        let walked = stream_events(&bytes).and_then(|walk| walk.collect::<Result<Vec<_>, _>>());
        prop_assert_eq!(walked, parse_stream(&bytes));
    }
}

#[test]
fn long_failure_frames_survive_every_truncation() {
    let events = vec![
        TimedEvent {
            at: SimTime::ZERO,
            seq: 0,
            event: event(15, 3, 600),
        },
        TimedEvent {
            at: SimTime::from_secs(1.0),
            seq: 1,
            event: event(3, 3, 0),
        },
    ];
    let bytes = write_stream(&events);
    assert!(
        bytes[8] & 0x80 != 0,
        "the failure frame has a 2-byte prefix"
    );
    // A cut between the two frames is a valid one-frame stream.
    let boundary = write_stream(&events[..1]).len();
    for cut in 9..bytes.len() {
        match check_decode(&bytes[..cut]).expect("contract holds") {
            Some(err) => assert!(err.contains("truncated"), "cut at {cut}: {err}"),
            None => assert_eq!(cut, boundary, "only a frame boundary decodes"),
        }
    }
}

/// Appends a `state` frame moving `job` between two named states.
fn push_state_frame(out: &mut Vec<u8>, seq: u8, from: &str, to: &str) {
    let mut payload = vec![6u8];
    payload.extend_from_slice(&1.0f64.to_le_bytes());
    payload.push(seq);
    payload.push(1); // job
    for name in [from, to] {
        payload.push(name.len() as u8);
        payload.extend_from_slice(name.as_bytes());
    }
    out.push(payload.len() as u8);
    out.extend_from_slice(&payload);
}

#[test]
fn more_distinct_state_names_than_the_cap_is_an_error() {
    // One frame per fresh name: the table (shared with the rest of this
    // binary) cannot take all of them.
    let mut bytes = b"PDPAOBS1".to_vec();
    let mut text = String::new();
    for i in 0..=StateName::CAP {
        let name = format!("CAP_PROBE_{i}");
        push_state_frame(&mut bytes, i as u8, "NO_REF", &name);
        text.push_str(&format!("1 {i} state job=1 from=NO_REF to=TEXT_{name}\n"));
    }
    let err = check_decode(&bytes)
        .expect("contract holds")
        .expect("past the cap is an error");
    assert!(err.contains("table of 64 names"), "got: {err}");
    // The same holds for the text format, located by line.
    let err = parse_stream(text.as_bytes()).expect_err("past the cap is an error");
    assert!(
        err.starts_with("line ") && err.contains("table of 64"),
        "got: {err}"
    );
    // The fixed names still resolve with the table full.
    let ok = write_stream(&[TimedEvent {
        at: SimTime::ZERO,
        seq: 0,
        event: event(6, 1, 0),
    }]);
    assert!(read_stream(&ok).is_ok());
    assert!(parse_stream(write_text_stream(&read_stream(&ok).unwrap()).as_bytes()).is_ok());
}
