//! Allocation-stability accounting recomputed from the raw `cpu` stream.
//!
//! The engine's own Table-2 counters live in two places with different
//! semantics, and this module replicates both exactly from nothing but
//! the per-CPU occupancy events:
//!
//! - **space-shared** (`Machine::resize`): a migration is a CPU *gained by
//!   a job that was already running* — initial placement is free. One
//!   resize publishes its gained CPUs as consecutive `cpu` events, and any
//!   other event (the decision itself, a cost charge, another job's
//!   losses) closes the batch; whether the batch counts as migrations or
//!   placements is decided by the job's holdings *at the batch start*, so
//!   a 4-CPU initial placement is four placements, not one placement and
//!   three migrations.
//! - **time-shared** (`QuantumPlacement::advance`, the IRIX model): a
//!   migration is a CPU whose occupant changed *from one running job to
//!   another* across a quantum boundary; placements onto idle CPUs are
//!   not counted. These hand-offs appear in the stream as a direct
//!   `Some(a) → Some(b)` occupant change — something the space-shared
//!   machine can never produce, because it only allocates free CPUs.
//!
//! [`MigrationStats::migrations`] picks the count matching the stream's
//! execution model using exactly that signature: any direct hand-off
//! means the run was time-shared.

use crate::fold::{self, slot_mut, Fold, JobIndex};
use pdpa_obs::{ObsEvent, TimedEvent};

/// Migration, placement, and release counts of one recorded run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Space-shared migrations: CPUs gained by already-running jobs
    /// (batch-scoped, matching `Machine`'s counter).
    pub space_migrations: u64,
    /// Time-shared migrations: direct occupied → occupied hand-offs
    /// (matching `QuantumPlacement`'s counter). Under gang scheduling this
    /// instead counts slot-rotation switches.
    pub handoff_migrations: u64,
    /// CPUs granted to jobs that held nothing (initial placements).
    pub initial_placements: u64,
    /// CPU releases (occupant → idle).
    pub releases: u64,
}

impl MigrationStats {
    /// The migration count under the stream's execution model: hand-offs
    /// only exist in time-shared streams, so any hand-off selects the
    /// time-shared counter; otherwise the space-shared one applies.
    pub fn migrations(&self) -> u64 {
        if self.handoff_migrations > 0 {
            self.handoff_migrations
        } else {
            self.space_migrations
        }
    }
}

/// Replays the `cpu` occupancy stream into [`MigrationStats`].
pub fn migration_stats(events: &[TimedEvent]) -> MigrationStats {
    fold::run(events, MigrationFold::default())
}

/// The fold behind [`migration_stats`]. Jobs appear by slot number, which
/// identifies a job as well as its id does.
#[derive(Debug, Default)]
pub(crate) struct MigrationFold {
    stats: MigrationStats,
    /// Reconstructed machine state: occupant slot per CPU.
    occupant: Vec<Option<usize>>,
    /// CPUs held per job slot.
    held: Vec<u64>,
    /// The open gain batch: (job slot, counts-as-migration), decided when
    /// the batch opened. Closed by any event that is not a further gain
    /// for the same job.
    batch: Option<(usize, bool)>,
}

impl MigrationFold {
    fn release(&mut self, slot: usize) {
        let n = &mut self.held[slot];
        *n = n.saturating_sub(1);
    }
}

impl Fold for MigrationFold {
    type Output = MigrationStats;

    fn push(&mut self, _at: f64, event: &ObsEvent, slot: Option<usize>) {
        let ObsEvent::CpuAssigned { cpu, .. } = event else {
            self.batch = None;
            return;
        };
        let idx = cpu.index();
        if idx >= self.occupant.len() {
            self.occupant.resize(idx + 1, None);
        }
        // `slot` is the new occupant's: `JobIndex::slot_of` maps exactly
        // the occupied grants.
        match (self.occupant[idx], slot) {
            (old, new) if old == new => {
                // Re-publication without a change (gang slots re-announce
                // the whole machine every quantum): no state to update.
            }
            (None, Some(j)) => {
                // A gain from a free CPU. Extend the open batch or open a
                // new one, deciding migration-vs-placement from the
                // holdings at the batch start.
                let held = slot_mut(&mut self.held, j);
                let counts_as_migration = match self.batch {
                    Some((bj, m)) if bj == j => m,
                    _ => {
                        let was_running = *held > 0;
                        self.batch = Some((j, was_running));
                        was_running
                    }
                };
                *held += 1;
                if counts_as_migration {
                    self.stats.space_migrations += 1;
                } else {
                    self.stats.initial_placements += 1;
                }
                self.occupant[idx] = Some(j);
            }
            (Some(k), Some(j)) => {
                // A direct hand-off: only the time-shared quantum placement
                // produces these.
                self.stats.handoff_migrations += 1;
                self.release(k);
                *slot_mut(&mut self.held, j) += 1;
                self.occupant[idx] = Some(j);
                self.batch = None;
            }
            (Some(k), None) => {
                self.stats.releases += 1;
                self.release(k);
                self.occupant[idx] = None;
                self.batch = None;
            }
            (None, None) => unreachable!("old == new handled above"),
        }
    }

    fn finish(self, _jobs: &JobIndex, _end: f64) -> MigrationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_sim::{CpuId, JobId, SimTime};

    fn cpu_ev(at: f64, seq: u64, cpu: u16, job: Option<u32>) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event: ObsEvent::CpuAssigned {
                cpu: CpuId(cpu),
                job: job.map(JobId),
            },
        }
    }

    fn other(at: f64, seq: u64) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event: ObsEvent::MplChanged {
                running: 1,
                total_alloc: 4,
            },
        }
    }

    #[test]
    fn initial_placement_is_not_a_migration() {
        // One resize grants 3 CPUs to a job holding nothing.
        let stream = vec![
            cpu_ev(0.0, 0, 0, Some(7)),
            cpu_ev(0.0, 1, 1, Some(7)),
            cpu_ev(0.0, 2, 2, Some(7)),
            other(0.0, 3),
        ];
        let s = migration_stats(&stream);
        assert_eq!(s.initial_placements, 3);
        assert_eq!(s.space_migrations, 0);
        assert_eq!(s.migrations(), 0);
    }

    #[test]
    fn growth_of_a_running_job_is_a_migration_per_cpu() {
        let stream = vec![
            // Initial placement: 2 CPUs.
            cpu_ev(0.0, 0, 0, Some(7)),
            cpu_ev(0.0, 1, 1, Some(7)),
            other(0.0, 2),
            // A later resize grants 2 more — the batch boundary (the
            // decision event between resizes) is what separates them.
            cpu_ev(5.0, 3, 2, Some(7)),
            cpu_ev(5.0, 4, 3, Some(7)),
            other(5.0, 5),
        ];
        let s = migration_stats(&stream);
        assert_eq!(s.initial_placements, 2);
        assert_eq!(s.space_migrations, 2);
        assert_eq!(s.handoff_migrations, 0);
        assert_eq!(s.migrations(), 2);
    }

    #[test]
    fn regrowth_after_shrink_to_zero_is_a_placement() {
        // Capacity loss can stall a job at zero CPUs; the engine's Machine
        // then treats a re-grant as a fresh placement (the owner entry was
        // dropped), and so must the replay.
        let stream = vec![
            cpu_ev(0.0, 0, 0, Some(3)),
            other(0.0, 1),
            cpu_ev(4.0, 2, 0, None),
            other(4.0, 3),
            cpu_ev(9.0, 4, 0, Some(3)),
            other(9.0, 5),
        ];
        let s = migration_stats(&stream);
        assert_eq!(s.initial_placements, 2);
        assert_eq!(s.space_migrations, 0);
        assert_eq!(s.releases, 1);
    }

    #[test]
    fn handoffs_select_the_timeshared_counter() {
        let stream = vec![
            // Quantum 1: both CPUs go to job 0 (placements, not counted).
            cpu_ev(0.0, 0, 0, Some(0)),
            cpu_ev(0.0, 1, 1, Some(0)),
            // Quantum 2: CPU 1 hands off to job 1 — one migration; CPU 0
            // re-announces its occupant — no change, no count.
            cpu_ev(1.0, 2, 1, Some(1)),
            cpu_ev(1.0, 3, 0, Some(0)),
            // Quantum 3: CPU 1 hands back.
            cpu_ev(2.0, 4, 1, Some(0)),
        ];
        let s = migration_stats(&stream);
        assert_eq!(s.handoff_migrations, 2);
        assert_eq!(s.migrations(), 2);
    }
}
