//! Shared conformance suite: every scheduling policy — the paper's own,
//! the classic baselines, and the tournament entrants from the later
//! literature — must honor the same engine-level contract:
//!
//! - a full workload drains to completion, with and without fault
//!   injection;
//! - no decision ever exceeds the job's request, and space-shared
//!   allocations always fit in the currently-alive processor set;
//! - a fixed seed produces a bit-identical decision-event stream.
//!
//! New policies get these guarantees by being added to the policy roster
//! (`pdpa_core::roster`); nothing else in the suite is policy-specific.

use std::collections::HashMap;

use pdpa_suite::core::roster::{Entry, ROSTER};
use pdpa_suite::obs::{ObsEvent, Observer, RecordingObserver};
use pdpa_suite::prelude::*;
use pdpa_suite::sim::CpuId;

/// Every policy of the roster, by slug.
fn roster() -> impl Iterator<Item = (&'static str, &'static Entry)> {
    ROSTER.iter().map(|entry| (entry.slug, entry))
}

/// The space-sharing subset: the policies whose allocations partition the
/// machine.
fn space_sharing() -> Vec<(&'static str, &'static Entry)> {
    roster()
        .filter(|(_, make)| matches!(make.build().sharing(), SharingModel::SpaceShared))
        .collect()
}

/// A fault plan exercising every fault type (mirrors `tests/chaos.rs`).
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .fail_cpu_between(CpuId(2), 60.0, 300.0)
        .fail_cpu_at(CpuId(40), 120.0)
        .fail_job_at(JobId(0), 70.0)
        .with_retry(RetryPolicy::default())
}

/// Watches the event stream for contract violations: a decision above the
/// job's request (any policy), or — for space-shared runs, where the
/// `CpuAssigned` stream is the real partition — occupancy above the
/// currently-alive CPU count. The engine evicts on CPU failure without a
/// `Decision` event, so occupancy is tracked from CPU assignments, not
/// from decision targets.
#[derive(Default)]
struct ContractChecker {
    requests: HashMap<JobId, usize>,
    owner: HashMap<usize, JobId>,
    dead: std::collections::HashSet<usize>,
    total: usize,
    last: pdpa_suite::sim::SimTime,
    violations: Vec<String>,
    check_capacity: bool,
}

impl ContractChecker {
    fn new(total: usize, check_capacity: bool) -> Self {
        ContractChecker {
            total,
            check_capacity,
            ..ContractChecker::default()
        }
    }

    /// The capacity invariant is checked only when the clock advances, so
    /// same-instant event bursts (a failure followed by its evictions)
    /// settle before being judged.
    fn settle(&mut self, at: pdpa_suite::sim::SimTime) {
        if !self.check_capacity {
            return;
        }
        let held = self.owner.len();
        let alive = self.total - self.dead.len();
        if held > alive {
            self.violations.push(format!(
                "{at:?}: {held} CPUs occupied but only {alive} alive"
            ));
        }
    }
}

impl Observer for ContractChecker {
    fn on_event(&mut self, at: pdpa_suite::sim::SimTime, event: &ObsEvent) {
        if at > self.last {
            let settled = self.last;
            self.settle(settled);
            self.last = at;
        }
        match event {
            ObsEvent::JobStarted { job, request } => {
                self.requests.insert(*job, *request);
            }
            ObsEvent::CpuFailed { cpu } => {
                self.dead.insert(cpu.index());
            }
            ObsEvent::CpuRecovered { cpu } => {
                self.dead.remove(&cpu.index());
            }
            ObsEvent::CpuAssigned { cpu, job } => match job {
                Some(j) => {
                    self.owner.insert(cpu.index(), *j);
                }
                None => {
                    self.owner.remove(&cpu.index());
                }
            },
            ObsEvent::Decision { job, to_alloc, .. } => {
                if let Some(&req) = self.requests.get(job) {
                    if *to_alloc > req {
                        self.violations.push(format!(
                            "{at:?}: {job:?} granted {to_alloc} > request {req}"
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

/// One traced engine run with the given observer; panics if it wedges.
fn run_with<O: Observer>(
    name: &str,
    make: &Entry,
    faults: FaultPlan,
    observer: &mut O,
) -> RunResult {
    let jobs = Workload::W3.build(1.0, 42);
    let config = EngineConfig::default()
        .with_seed(42)
        .with_faults(faults)
        .with_trace();
    let result = Engine::new(config).run_observed(jobs, make.build(), observer);
    assert!(result.completed_all, "{name} did not drain the workload");
    result
}

/// Every policy drains a full workload, fault-free and under chaos, and
/// under chaos both planned CPU failures actually land.
#[test]
fn every_policy_drains_with_and_without_faults() {
    for (name, make) in roster() {
        let clean = run_with(
            name,
            make,
            FaultPlan::none(),
            &mut pdpa_suite::obs::NullObserver,
        );
        assert_eq!(clean.cpu_failures, 0, "{name} saw phantom failures");
        let chaotic = run_with(name, make, chaos_plan(), &mut pdpa_suite::obs::NullObserver);
        assert_eq!(chaotic.cpu_failures, 2, "{name} missed a CPU failure");
    }
}

/// No policy ever grants a job more than it requested, and space-shared
/// allocations fit in the alive processor set — with and without faults.
#[test]
fn decisions_respect_request_and_capacity_bounds() {
    let space: Vec<&str> = space_sharing().iter().map(|(n, _)| *n).collect();
    for faults in [FaultPlan::none(), chaos_plan()] {
        for (name, make) in roster() {
            let mut checker = ContractChecker::new(60, space.contains(&name));
            let result = run_with(name, make, faults.clone(), &mut checker);
            checker.settle(pdpa_suite::sim::SimTime::from_secs(result.end_secs));
            assert!(
                checker.violations.is_empty(),
                "{name} (faults: {}) violated the allocation contract:\n{}",
                !faults.is_empty(),
                checker.violations.join("\n")
            );
        }
    }
}

/// A fixed seed reproduces the decision-event stream bit-for-bit, for
/// every policy — the determinism bar the tournament rankings rest on.
#[test]
fn decision_streams_are_bit_identical_for_a_fixed_seed() {
    for (name, make) in roster() {
        let record = || {
            let mut recorder = RecordingObserver::new();
            run_with(name, make, chaos_plan(), &mut recorder);
            let mut out = String::new();
            for te in recorder.events() {
                out.push_str(&te.to_line());
                out.push('\n');
            }
            out
        };
        let (a, b) = (record(), record());
        assert!(!a.is_empty(), "{name} recorded no events");
        assert_eq!(
            a, b,
            "{name}: decision stream differs between identical seeds"
        );
    }
}
