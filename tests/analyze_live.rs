//! A run analyzed live equals the same run's recorded stream analyzed.
//!
//! `pdpa replay`, `pdpa analyze`, the tournament and the scale experiment
//! put an [`Analyzer`] in the observer chain instead of recording the
//! stream and calling [`RunAnalysis::from_events`] after the run. The two
//! must agree to the byte, and the hard part is the CPU series:
//! `from_events` reads the machine size from a pre-scan of the whole
//! stream, which a live fold cannot make. These tests hold the live
//! analyzer to the recorded one over random engine runs (every policy,
//! light and heavy loads, faults on and off, kind-filtered chains) and
//! over hand-built streams whose size the pre-scan settles in ways the
//! configured size does not predict.

use pdpa_suite::analyze::{analysis_json, Analyzer, RunAnalysis};
use pdpa_suite::obs::{
    FilterObserver, KindFilter, ObsEvent, Observer, RecordingObserver, TeeObserver, TimedEvent,
};
use pdpa_suite::prelude::*;
use pdpa_suite::sim::CpuId;
use proptest::prelude::*;

const CPUS: usize = 60;

fn policy(index: usize) -> Box<dyn SchedulingPolicy> {
    match index {
        0 => Box::new(Pdpa::paper_default()),
        1 => Box::new(Equipartition::default()),
        2 => Box::new(EqualEfficiency::paper_default()),
        3 => Box::new(IrixLike::paper_default()),
        4 => Box::new(RigidFirstFit::paper_default()),
        5 => Box::new(GangScheduler::paper_comparable()),
        6 => Box::new(HeSrpt::default()),
        7 => Box::new(OptSplit::default()),
        _ => Box::new(LearnedAlloc::default()),
    }
}

/// The analysis document of one run under a key both sides share.
fn json(analysis: RunAnalysis) -> String {
    analysis_json(&[("run".to_string(), analysis)])
}

/// One engine run analyzed twice: live (an [`Analyzer`] teed with the
/// recorder inside the same filter) and from the recorded stream. Returns
/// both documents and the CPU count the recorded analysis settled on.
fn live_and_recorded(
    workload: Workload,
    load: f64,
    seed: u64,
    policy: Box<dyn SchedulingPolicy>,
    faults: bool,
    quantum_clock: bool,
    kinds: Option<KindFilter>,
) -> (String, String, usize) {
    let mut config = EngineConfig::default()
        .with_seed(seed ^ 0xA5A5)
        .with_cpus(CPUS);
    if faults {
        let plan = FaultPlan::parse(
            "cpu3@20:recover@100;cpu7@50;job2@30;retry=2,backoff=5",
            CPUS,
        )
        .expect("valid plan");
        config = config.with_faults(plan);
    }
    if quantum_clock {
        config = config.with_trace();
    }
    let mut recorder = RecordingObserver::new();
    let mut analyzer = Analyzer::live(Some(CPUS));
    {
        let mut tee = TeeObserver(&mut recorder, &mut analyzer);
        let mut filtered;
        let observer: &mut dyn Observer = match kinds {
            Some(filter) => {
                filtered = FilterObserver::new(&mut tee, filter);
                &mut filtered
            }
            None => &mut tee,
        };
        let result = Engine::new(config).run_observed(workload.build(load, seed), policy, observer);
        assert!(
            result.completed_all,
            "{} on {workload} did not drain",
            result.policy
        );
    }
    let recorded = RunAnalysis::from_events(&recorder.take_events());
    let cpus = recorded.cpus.cpus;
    (json(analyzer.finish()), json(recorded), cpus)
}

/// A kind filter from a bit mask over the kinds the engine publishes
/// (`None` for an empty mask: no filter).
fn filter_of(mask: u32) -> Option<KindFilter> {
    let kinds: Vec<&str> = ObsEvent::KINDS[..ObsEvent::KINDS.len() - 1]
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, k)| *k)
        .collect();
    (!kinds.is_empty()).then(|| KindFilter::parse(&kinds.join(",")).expect("known kinds"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random runs: every policy, loads 0.2–1.2, faults on and off (so
    /// `degraded` events appear), the quantum clock on and off, and half
    /// of the chains behind a random kind filter.
    #[test]
    fn live_analysis_equals_the_recorded_one(
        policy_index in 0usize..9,
        workload_index in 0usize..4,
        load in 0.2f64..1.2,
        seed in 0u64..1_000,
        faults in proptest::bool::ANY,
        quantum_clock in proptest::bool::ANY,
        filtered in proptest::bool::ANY,
        mask in 1u32..(1 << 15),
    ) {
        let workload = [Workload::W1, Workload::W2, Workload::W3, Workload::W4][workload_index];
        let kinds = if filtered { filter_of(mask) } else { None };
        let (live, recorded, _) = live_and_recorded(
            workload,
            load,
            seed,
            policy(policy_index),
            faults,
            quantum_clock,
            kinds,
        );
        prop_assert_eq!(live, recorded);
    }
}

/// Workload 3 at light load leaves the top CPUs unassigned under Rigid
/// and Equipartition, so the recorded analysis sizes the machine below the
/// configured 60 CPUs and the live fold must replay what it held at the
/// end; a fault plan's `degraded` events settle it at 60 instead.
#[test]
fn light_runs_size_the_machine_by_the_highest_cpu_seen() {
    let mut below = 0;
    for (seed, policy_index) in [(1, 1), (2, 1), (1, 4), (2, 4)] {
        for faults in [false, true] {
            let (live, recorded, cpus) = live_and_recorded(
                Workload::W3,
                0.2,
                seed,
                policy(policy_index),
                faults,
                false,
                None,
            );
            assert_eq!(live, recorded, "seed {seed}, faults {faults}");
            if faults {
                assert_eq!(cpus, CPUS, "a degraded event reports the configured size");
            } else if cpus < CPUS {
                below += 1;
            }
        }
    }
    assert!(below > 0, "no light run left the top CPU unassigned");
}

fn at(secs: f64, seq: u64, event: ObsEvent) -> TimedEvent {
    TimedEvent {
        at: SimTime::from_secs(secs),
        seq,
        event,
    }
}

fn assign(secs: f64, seq: u64, cpu: u16, job: Option<u32>) -> TimedEvent {
    at(
        secs,
        seq,
        ObsEvent::CpuAssigned {
            cpu: CpuId(cpu),
            job: job.map(JobId),
        },
    )
}

/// The live analysis of `stream` on a machine configured at `cpus`.
fn live(stream: &[TimedEvent], cpus: Option<usize>) -> RunAnalysis {
    let mut analyzer = Analyzer::live(cpus);
    for te in stream {
        analyzer.on_event(te.at, &te.event);
    }
    analyzer.finish()
}

/// A stream whose `degraded` total (2) lies below a CPU id it assigns (3):
/// the pre-scan sizes the machine at 2 and ignores CPU 3, so a live fold
/// sized by the configured 4 CPUs would integrate two idle CPUs too many.
#[test]
fn a_degraded_total_below_an_assigned_cpu_sizes_the_machine() {
    let j = JobId(0);
    let stream = vec![
        at(0.0, 0, ObsEvent::JobSubmitted { job: j }),
        at(0.0, 1, ObsEvent::DegradedCapacity { alive: 2, total: 2 }),
        at(1.0, 2, ObsEvent::JobDequeued { job: j }),
        at(1.0, 3, ObsEvent::JobStarted { job: j, request: 2 }),
        assign(1.0, 4, 0, Some(0)),
        assign(1.0, 5, 3, Some(0)),
        at(
            4.0,
            6,
            ObsEvent::MplChanged {
                running: 1,
                total_alloc: 2,
            },
        ),
        assign(9.0, 7, 0, None),
        assign(9.0, 8, 3, None),
        at(9.0, 9, ObsEvent::JobFinished { job: j }),
    ];
    let recorded = RunAnalysis::from_events(&stream);
    assert_eq!(recorded.cpus.cpus, 2);
    for cpus in [Some(4), Some(2), None] {
        assert_eq!(
            json(live(&stream, cpus)),
            json(recorded.clone()),
            "{cpus:?}"
        );
    }
}

/// A live fold settles once CPU `cpus − 1` is assigned; a later `degraded`
/// total that contradicts the configured size is a broken stream, and
/// `finish` says so rather than return a wrong series.
#[test]
#[should_panic(expected = "settled at 4 CPUs, but the stream describes 2")]
fn a_stream_that_contradicts_a_settled_size_panics() {
    let stream = vec![
        assign(0.0, 0, 3, Some(0)),
        at(1.0, 1, ObsEvent::DegradedCapacity { alive: 2, total: 2 }),
    ];
    live(&stream, Some(4));
}
