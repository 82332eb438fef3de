//! Results of one workload execution.

use std::collections::HashMap;

use pdpa_apps::AppClass;
use pdpa_metrics::Summary;
use pdpa_sim::MachineStats;

/// Everything measured during one workload execution under one policy.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The policy's display name.
    pub policy: String,
    /// Per-job outcomes, aggregated.
    pub summary: Summary,
    /// Machine counters (space-shared migrations, reallocations).
    pub machine_stats: MachineStats,
    /// Migrations counted by the time-shared placement model (IRIX runs
    /// with the quantum clock, `collect_trace`; 0 otherwise).
    pub timeshare_migrations: u64,
    /// Gang-mode occupant hand-offs at slot rotations (clocked gang runs;
    /// 0 otherwise). Rotation reclaims the same footprint every slot, so
    /// Table 2 does not bill it as migration — but the decision-event
    /// stream shows the churn, and the analyzer's replay counts it. Kept
    /// separate so `analyzer == total_migrations() + quantum_rotations`
    /// holds for every sharing model.
    pub quantum_rotations: u64,
    /// The maximum multiprogramming level reached.
    pub max_ml: usize,
    /// Average processors held per application class (over each job's
    /// lifetime, then averaged over jobs of the class).
    pub avg_alloc_by_class: HashMap<AppClass, f64>,
    /// Average processors held by each individual job over its lifetime.
    pub avg_alloc_by_job: HashMap<pdpa_sim::JobId, f64>,
    /// True when every submitted job completed within the simulation bound.
    pub completed_all: bool,
    /// Final simulated time (the workload makespan when `completed_all`).
    pub end_secs: f64,
    /// Total CPU-seconds held by jobs over the run (the integral of each
    /// job's allocation over its lifetime). Under `TimeShared` and `Gang`
    /// an allocation counts threads, so this can exceed the capacity.
    pub cpu_seconds_used: f64,
    /// Machine size, for utilization computations.
    pub total_cpus: usize,
    /// Simulation events scheduled over the run (engine throughput input).
    pub events_pushed: u64,
    /// Simulation events drained over the run, stale ones included (the
    /// bench harness reports `events_popped / wall_time` as events/sec).
    pub events_popped: u64,
    /// Stale events (bumped epoch, completed job) dropped by the queue's
    /// validity filter without dispatch.
    pub events_stale_dropped: u64,
    /// Policy allocation decisions the engine applied (no-op resizes
    /// excluded).
    pub decisions_applied: u64,
    /// Speedup-memo cache hits over every job in the run.
    pub memo_hits: u64,
    /// Speedup-memo cache misses (actual model evaluations).
    pub memo_misses: u64,
    /// Injected CPU failures that actually took a processor down.
    pub cpu_failures: u64,
    /// Job retries scheduled after injected crashes.
    pub job_retries: u64,
    /// Jobs that crashed terminally (retries exhausted or none allowed).
    pub jobs_failed: u64,
    /// `Some(diagnostic)` when the zero-progress watchdog aborted the run:
    /// the simulated clock stopped advancing for the configured number of
    /// steps (a livelock). `completed_all` is false for such runs.
    pub watchdog: Option<String>,
    /// The self-profile collected when the run was instrumented with an
    /// enabled profiler; `None` otherwise.
    pub profile: Option<pdpa_prof::Profile>,
}

impl RunResult {
    /// Total migrations: machine counter plus the time-shared model's.
    pub fn total_migrations(&self) -> u64 {
        self.machine_stats.migrations + self.timeshare_migrations
    }

    /// Fraction of machine capacity held by jobs over the run — the paper's
    /// §5.4 observation is that PDPA does the same work at ≈ 70 % of the
    /// CPU time Equipartition burns at ≈ 100 %.
    /// Under `TimeShared` and `Gang` it counts threads (see
    /// [`cpu_seconds_used`](Self::cpu_seconds_used)) and can pass 1:
    /// workload 1 at load 1.0 prints 167 % for IRIX and 181 % for Gang.
    pub fn utilization(&self) -> f64 {
        let capacity = self.end_secs * self.total_cpus as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            self.cpu_seconds_used / capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrations_and_utilization() {
        let r = RunResult {
            policy: "PDPA".into(),
            summary: Summary::new(Vec::new()),
            machine_stats: MachineStats::default(),
            timeshare_migrations: 0,
            quantum_rotations: 0,
            max_ml: 4,
            avg_alloc_by_class: HashMap::new(),
            avg_alloc_by_job: HashMap::new(),
            completed_all: true,
            end_secs: 10.0,
            cpu_seconds_used: 300.0,
            total_cpus: 60,
            events_pushed: 0,
            events_popped: 0,
            events_stale_dropped: 0,
            decisions_applied: 0,
            memo_hits: 0,
            memo_misses: 0,
            cpu_failures: 0,
            job_retries: 0,
            jobs_failed: 0,
            watchdog: None,
            profile: None,
        };
        assert_eq!(r.total_migrations(), 0);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }
}
