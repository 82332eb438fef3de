//! The analyzer's migration accounting must agree with the engine.
//!
//! `pdpa-analyze` recomputes Table-2 migration counts by replaying the
//! recorded `cpu` event stream; the engine keeps its own counters while
//! scheduling ([`RunResult::total_migrations`] plus the gang-rotation
//! churn counter [`RunResult::quantum_rotations`]). The two sides are
//! produced by completely different code paths — the engine counts as it
//! moves jobs, the analyzer reconstructs placements from `CpuAssigned`
//! transitions — so equality per workload/policy cell is a strong check
//! that the event stream carries full allocation information and that the
//! analyzer's batch/handoff rules match the engine's semantics. The rule
//! is uniform across every sharing model:
//!
//! ```text
//! replayed == total_migrations() + quantum_rotations
//! ```
//!
//! Space-shared runs have zero rotations; gang runs have zero Table-2
//! migrations (rotation reclaims the same footprint every slot) but heavy
//! rotation churn, which the engine now counts with exactly the replay's
//! hand-off rule.

use pdpa_analyze::stability::migration_stats;
use pdpa_suite::obs::RecordingObserver;
use pdpa_suite::policies::GangScheduler;
use pdpa_suite::prelude::*;

/// Runs one Table-2 cell with a recorder attached and returns the engine's
/// own count (migrations + rotations) next to the analyzer's replayed one.
fn replay_cell(
    workload: Workload,
    load: f64,
    seed: u64,
    policy: Box<dyn SchedulingPolicy>,
) -> (String, u64, u64) {
    let jobs = workload.build(load, seed);
    let mut recorder = RecordingObserver::new();
    // `with_trace` runs the quantum clock that drives time-shared placement
    // and gang rotation, as in the Table-2 cells; no CPU trace is kept.
    let config = EngineConfig::default()
        .with_seed(seed ^ 0xA5A5)
        .with_trace();
    let result = Engine::new(config).run_observed(jobs, policy, &mut recorder);
    assert!(
        result.completed_all,
        "{} on {workload} did not drain",
        result.policy
    );
    let replayed = migration_stats(recorder.events()).migrations();
    (
        result.policy.to_string(),
        result.total_migrations() + result.quantum_rotations,
        replayed,
    )
}

/// Every Table-2 cell: the analyzer's replay equals the engine counters
/// for every sharing model — space-shared (batch-growth rule),
/// time-shared (handoff rule), and gang (rotation-churn rule) alike, the
/// tournament entrants included.
#[test]
fn replayed_migrations_match_the_engine_per_cell() {
    let policies: &[fn() -> Box<dyn SchedulingPolicy>] = &[
        || Box::new(IrixLike::paper_default()),
        || Box::new(Pdpa::paper_default()),
        || Box::new(Equipartition::default()),
        || Box::new(EqualEfficiency::paper_default()),
        || Box::new(GangScheduler::paper_comparable()),
        || Box::new(HeSrpt::default()),
        || Box::new(OptSplit::default()),
        || Box::new(LearnedAlloc::default()),
    ];
    for workload in [Workload::W1, Workload::W3] {
        for make in policies {
            let (policy, engine, replayed) = replay_cell(workload, 1.0, 42, make());
            assert_eq!(
                replayed, engine,
                "{policy} on {workload}: analyzer replayed {replayed} \
                 migrations but the engine counted {engine}"
            );
        }
    }
}

/// The agreement survives a different seed and partial load — the replay
/// rule is structural, not tuned to one trajectory.
#[test]
fn replayed_migrations_match_across_seeds_and_loads() {
    for seed in [7, 1234] {
        let (policy, engine, replayed) =
            replay_cell(Workload::W2, 0.6, seed, Box::new(Pdpa::paper_default()));
        assert_eq!(
            replayed, engine,
            "{policy} on w2 seed {seed}: {replayed} != {engine}"
        );
    }
}

/// IRIX actually migrates in these cells (Table 2's headline row), so the
/// equality above is not vacuously comparing zeros.
#[test]
fn the_cross_check_is_not_vacuous() {
    let (_, engine, replayed) =
        replay_cell(Workload::W1, 1.0, 42, Box::new(IrixLike::paper_default()));
    assert!(engine > 100, "IRIX should migrate heavily, got {engine}");
    assert_eq!(replayed, engine);
}

/// Gang rotation is occupant churn, not Table-2 migration: the Table-2
/// counter stays at zero (each gang reclaims the same processor footprint
/// every slot) while the rotation counter records the per-quantum
/// hand-offs the stream shows — and matches the analyzer's replay exactly.
#[test]
fn gang_rotation_is_counted_as_churn_not_migration() {
    let jobs = Workload::W1.build(1.0, 42);
    let mut recorder = RecordingObserver::new();
    let config = EngineConfig::default().with_seed(42 ^ 0xA5A5).with_trace();
    let result = Engine::new(config).run_observed(
        jobs,
        Box::new(GangScheduler::paper_comparable()),
        &mut recorder,
    );
    assert!(result.completed_all);
    assert_eq!(
        result.total_migrations(),
        0,
        "gang rotation is not a Table-2 migration"
    );
    assert!(
        result.quantum_rotations > 1_000,
        "rotation churn should be heavy, got {}",
        result.quantum_rotations
    );
    let replayed = migration_stats(recorder.events()).migrations();
    assert_eq!(replayed, result.quantum_rotations);
}
