//! Hostile-input suite for the `--faults` plan grammar.
//!
//! Valid plans mixing targeted CPU failures, job crashes, MTBF sampling
//! and a retry policy are truncated, bit-flipped and padded with inserted
//! bytes, then parsed. Every result is held to the parser's contract:
//!
//! - nothing panics, and every parse returns (no input makes the MTBF
//!   sampler loop);
//! - every error names the element it rejects, quoted as in the input;
//! - memory stays bounded: a plan holds at most one fault per targeted
//!   element plus `MAX_PLAN_CPU_FAULTS` sampled CPU faults.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pdpa_suite::faults::{FaultPlan, MAX_PLAN_CPU_FAULTS};

const CPUS: usize = 60;

/// The trimmed, non-empty `;`-separated elements of `input`.
fn elements(input: &str) -> Vec<&str> {
    input
        .split(';')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .collect()
}

/// Parses `input` under `catch_unwind` and checks the contract.
fn check(input: &str) -> Result<(), TestCaseError> {
    let Ok(result) = catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(input, CPUS))) else {
        return Err(TestCaseError::Fail(format!(
            "the parser panicked on {input:?}"
        )));
    };
    let elements = elements(input);
    match result {
        Ok(plan) => {
            prop_assert!(plan.job_faults.len() <= elements.len());
            prop_assert!(
                plan.cpu_faults.len() <= elements.len() + MAX_PLAN_CPU_FAULTS,
                "{} CPU faults from {:?}",
                plan.cpu_faults.len(),
                input
            );
            for f in &plan.cpu_faults {
                prop_assert!(f.cpu.index() < CPUS);
                prop_assert!(f.at.as_secs().is_finite());
                if let Some(r) = f.recover_at {
                    prop_assert!(r > f.at && r.as_secs().is_finite());
                }
            }
        }
        Err(e) => {
            prop_assert!(
                elements.iter().any(|el| e.contains(&format!("{el:?}"))),
                "error {:?} names none of the elements of {:?}",
                e,
                input
            );
        }
    }
    Ok(())
}

/// A valid plan of one to six elements.
fn arb_plan() -> impl Strategy<Value = String> {
    let element = prop_oneof![
        (0usize..CPUS, 0u32..500).prop_map(|(cpu, at)| format!("cpu{cpu}@{at}")),
        (0usize..CPUS, 0u32..500, 1u32..500)
            .prop_map(|(cpu, at, gap)| format!("cpu{cpu}@{at}:recover@{}", at + gap)),
        (0u32..50, 0u32..500).prop_map(|(job, at)| format!("job{job}@{at}")),
        (100u32..5_000, 500u32..5_000, 0u32..300, 0u64..9).prop_map(
            |(mtbf, horizon, repair, seed)| {
                format!("mtbf={mtbf},horizon={horizon},repair={repair},seed={seed}")
            }
        ),
        (0u32..4, 1u32..60, 1u32..4).prop_map(|(retry, backoff, factor)| format!(
            "retry={retry},backoff={backoff},factor={factor}"
        )),
    ];
    proptest::collection::vec(element, 1..7).prop_map(|elements| elements.join(";"))
}

/// One byte-level edit at a position given as a fraction of the input.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(f64),
    Flip(f64, u8),
    Insert(f64, u8),
}

/// Inserted bytes favour the ones that reshape numbers and elements:
/// digits that scale a value, exponents, signs, and the separators.
fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..=255, (0usize..14).prop_map(|i| b"09e-.;,=@:inf "[i]),]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Valid plans parse; every mutation of one either parses within the
    /// bound or fails naming an element, and nothing panics.
    #[test]
    fn mutated_plans_fail_located_and_stay_bounded(
        plan in arb_plan(),
        mutations in proptest::collection::vec(arb_mutation(), 1..6),
    ) {
        prop_assert!(FaultPlan::parse(&plan, CPUS).is_ok(), "a valid plan failed: {}", plan);
        let mut bytes = plan.into_bytes();
        for m in &mutations {
            apply(&mut bytes, m);
            check(&String::from_utf8_lossy(&bytes))?;
        }
    }
}

#[test]
fn mtbf_plans_that_would_never_finish_sampling_are_rejected() {
    // About 10^21 repair cycles per CPU; past t ≈ 1e10 s a cycle of about
    // 2e-6 s is under half an ulp of t, so `t + cycle` rounds back onto t
    // and the sampler would never end.
    let hostile = "mtbf=1e-6,horizon=1e15,repair=1e-6";
    for input in [
        hostile.to_string(),
        format!("cpu3@120;{hostile};retry=2,backoff=30"),
        "mtbf=1e-300,horizon=1e300".replace("1e300", "1e300,repair=1e-300"),
    ] {
        let err = FaultPlan::parse(&input, CPUS).expect_err(&input);
        let element = elements(&input)
            .into_iter()
            .find(|e| e.starts_with("mtbf="))
            .expect("an mtbf element");
        assert!(
            err.starts_with(&format!("{element:?}: about ")),
            "{input:?} -> {err:?}"
        );
        assert!(err.contains("CPU faults expected"), "{err}");
    }
}

#[test]
fn overflowing_mtbf_instants_are_rejected() {
    let err = FaultPlan::parse("mtbf=1e300,horizon=1.5e308,repair=1e308", CPUS).unwrap_err();
    assert!(err.contains("must be finite"), "{err}");
}
