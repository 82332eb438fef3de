//! Hostile-input suite for the SWF reader and the replay shaping steps.
//!
//! Valid traces, with header directives, outcome fields and executables
//! outside the paper's four applications, are truncated, bit-flipped and
//! padded with inserted bytes. Every result goes through the replay
//! pipeline (`read_swf` → `remap_machine` → `rescale_load` →
//! `jobs_from_records`) and is held to its contract:
//!
//! - nothing panics;
//! - every error names its line (`line N: …`), and that line exists;
//! - every field the reader accepts is finite, so every job the pipeline
//!   builds has a finite, non-negative submit instant.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pdpa_suite::qs::shape::{jobs_from_records, remap_machine, rescale_load};
use pdpa_suite::qs::swf::read_swf;
use pdpa_suite::qs::SwfError;

const CPUS: usize = 60;

/// Runs the replay pipeline on `bytes`: the number of jobs built, or the
/// reader's error.
fn replay_pipeline(bytes: &[u8]) -> Result<usize, SwfError> {
    let trace = read_swf(bytes)?;
    for r in &trace.records {
        for v in [r.submit_secs, r.wait_secs, r.run_secs, r.allocated_procs] {
            assert!(v.is_finite(), "accepted a non-finite field: {r:?}");
        }
    }
    let from = trace.machine_size().unwrap_or(CPUS);
    let remapped = remap_machine(&trace.records, from, CPUS);
    let rescaled = rescale_load(&remapped, 1.0, CPUS);
    let jobs = jobs_from_records(&rescaled);
    Ok(jobs.len())
}

/// One data line: job, submit, wait, run, procs, then the remaining
/// fields with the executable number at field 14.
fn data_line(job: usize, submit: f64, run: f64, procs: u32, request: i32, exec: u32) -> String {
    format!("{job} {submit} 0.50 {run} {procs} -1 -1 {request} {run} -1 1 3 1 {exec} 1 -1 -1 0")
}

/// A valid trace of 1–25 jobs on a 128-CPU machine; executables 1–9,
/// so about half the jobs take the fallback-class path.
fn arb_trace() -> impl Strategy<Value = String> {
    let job = (
        0.0f64..400.0,
        0.0f64..6_000.0,
        1u32..128,
        -1i32..128,
        1u32..10,
    );
    proptest::collection::vec(job, 1..25).prop_map(|jobs| {
        let mut text = String::from("; Version: 2.2\n; MaxProcs: 128\n");
        let mut submit = 0.0;
        for (i, (gap, run, procs, request, exec)) in jobs.into_iter().enumerate() {
            submit += gap;
            text.push_str(&data_line(i + 1, submit, run, procs, request, exec));
            text.push('\n');
        }
        text
    })
}

/// One byte-level edit at a position given as a fraction of the input.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(f64),
    Flip(f64, u8),
    Insert(f64, u8),
}

/// Inserted bytes favour the ones that make numbers odd: exponents,
/// signs, `inf`/`nan` letters, separators.
fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..=255, (0usize..12).prop_map(|i| b"e9-.infa \n\t;"[i]),]
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Mutation::Truncate),
        (0.0f64..1.0, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (0.0f64..1.0, arb_byte()).prop_map(|(at, byte)| Mutation::Insert(at, byte)),
    ]
}

fn apply(bytes: &mut Vec<u8>, mutation: &Mutation) {
    let pos = |at: f64| ((at * bytes.len() as f64) as usize).min(bytes.len());
    match *mutation {
        Mutation::Truncate(at) => bytes.truncate(pos(at)),
        Mutation::Flip(at, mask) => {
            let i = pos(at);
            if let Some(b) = bytes.get_mut(i) {
                *b ^= mask;
            }
        }
        Mutation::Insert(at, byte) => {
            let i = pos(at);
            bytes.insert(i, byte);
        }
    }
}

/// The line an error names, when it reads `line N: …`.
fn named_line(e: &SwfError) -> Option<usize> {
    let text = e.to_string();
    let (n, _) = text.strip_prefix("line ")?.split_once(": ")?;
    n.parse().ok()
}

/// Runs the pipeline under `catch_unwind` and checks the contract.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| replay_pipeline(bytes)));
    let Ok(result) = outcome else {
        return Err(TestCaseError::Fail(format!(
            "the pipeline panicked on {:?}",
            String::from_utf8_lossy(bytes)
        )));
    };
    if let Err(e) = result {
        let lines = bytes.split(|&b| b == b'\n').count();
        let line = named_line(&e);
        prop_assert!(
            line.is_some_and(|n| (1..=lines).contains(&n)),
            "error {} does not name one of the {} lines",
            e,
            lines
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Valid traces replay; every mutation of one either replays or fails
    /// with an error that names an existing line, and nothing panics.
    #[test]
    fn mutated_traces_fail_located_and_never_panic(
        text in arb_trace(),
        mutations in proptest::collection::vec(arb_mutation(), 1..5),
    ) {
        let mut bytes = text.into_bytes();
        let jobs = replay_pipeline(&bytes);
        prop_assert!(jobs.is_ok(), "a valid trace failed: {:?}", jobs);
        for m in &mutations {
            apply(&mut bytes, m);
        }
        check(&bytes)?;
    }
}

#[test]
fn non_finite_fields_are_located_errors() {
    // (field, spelling): submit times that used to panic in shaping or
    // silently become 0, and an infinite run time that built a job of
    // u32::MAX iterations.
    let cases = [
        (2, "inf"),
        (2, "1e999"),
        (2, "nan"),
        (4, "inf"),
        (4, "-1e400"),
        (5, "NaN"),
        (18, "infinity"),
    ];
    for (field, bad) in cases {
        let mut fields: Vec<String> = data_line(1, 0.0, 10.0, 4, 4, 7)
            .split(' ')
            .map(str::to_string)
            .collect();
        fields[field - 1] = bad.to_string();
        let text = format!("; MaxProcs: 60\n{}\n", fields.join(" "));
        let err = replay_pipeline(text.as_bytes()).expect_err(bad);
        assert_eq!(err, SwfError::NonFinite { line: 2, field });
        assert_eq!(
            err.to_string(),
            format!("line 2: field {field} is not a finite number")
        );
    }
}

#[test]
fn huge_finite_fields_shape_without_panicking() {
    // Work that overflows to an infinite demand: the load cannot be
    // rescaled, so the submit instants stay as read.
    // (Known executables: their work estimate only feeds the demand, so no
    // job is rescaled to it; see `oversized_work_estimates_are_located_errors`
    // for executables that are.)
    let text = [
        data_line(1, 0.0, 5e307, 2, 4, 1),
        data_line(2, 1e-300, 10.0, 1, 4, 1),
    ]
    .join("\n");
    assert_eq!(replay_pipeline(text.as_bytes()), Ok(2));
    // Submit instants at both ends of the range.
    let text = [
        data_line(1, 0.0, 1e300, 100, 4, 2),
        data_line(2, f64::MAX, 1e300, 100, 4, 3),
    ]
    .join("\n");
    assert_eq!(replay_pipeline(text.as_bytes()), Ok(2));
}

#[test]
fn oversized_work_estimates_are_located_errors() {
    // Executable 7 takes a fallback application rescaled to the record's
    // work: a run of 1e12 s on one processor would need about 4e11
    // iterations, which used to be clamped silently to u32::MAX.
    let text = format!(
        "; MaxProcs: 60\n{}\n{}\n",
        data_line(1, 0.0, 10.0, 4, 4, 7),
        data_line(2, 5.0, 1e12, 1, 1, 7)
    );
    let err = replay_pipeline(text.as_bytes()).expect_err("oversized work");
    assert_eq!(err, SwfError::WorkTooLarge { line: 3, field: 4 });
    assert_eq!(
        err.to_string(),
        "line 3: field 4 is too large: the job's work would need more than 4294967295 iterations"
    );
    // A known executable keeps its calibrated application, so the same
    // run time only feeds the demand.
    let text = data_line(1, 0.0, 1e12, 1, 1, 4);
    assert_eq!(replay_pipeline(text.as_bytes()), Ok(1));
    // Work that fits stays accepted: a million iterations.
    let text = data_line(1, 0.0, 1e6 * 2.5, 1, 1, 8);
    assert_eq!(replay_pipeline(text.as_bytes()), Ok(1));
}
