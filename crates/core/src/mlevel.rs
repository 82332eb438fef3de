//! The PDPA multiprogramming-level policy (§4.3).
//!
//! Traditional schedulers either fix the multiprogramming level (causing
//! fragmentation) or leave it uncontrolled (overloading the machine). PDPA
//! coordinates the two scheduling levels instead: "we leave the decision
//! about when to start a new application to the processor scheduling
//! policy, and we leave the selection of which application to start to the
//! queuing system".
//!
//! The decision itself is a pure function, [`ml_allows_start`], driven by a
//! snapshot of the system and, only when the cheaper tests leave the answer
//! open, by the settledness of the running jobs.

use crate::params::PdpaParams;

/// What the admission decision needs to know about the system up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MlSnapshot {
    /// Jobs currently running.
    pub running: usize,
    /// Processors not allocated to any job.
    pub free_cpus: usize,
}

/// Decides whether the queuing system may start one more job (§4.3 plus the
/// default multiprogramming level of §5).
///
/// A new job is admitted when a free processor exists for it, and either
///
/// - fewer than `base_ml` jobs are running (the default level), or
/// - coordination is enabled and the allocation of every running job is
///   settled: `STABLE`, at its full request, or showing bad performance
///   (`DEC` — "some applications show bad performance": a shrinking job only
///   *releases* processors, so it never competes with the newcomer).
///
/// Jobs still searching upward (`NO_REF`, `INC`) block admission: the free
/// processors they are waiting for must not be stolen by newcomers — that is
/// precisely the coordination the paper adds over uncontrolled admission.
///
/// `all_settled` reports whether every running job's allocation is settled.
/// It scans the running set, so it is called only when every other test
/// has passed.
pub fn ml_allows_start(
    params: &PdpaParams,
    snap: &MlSnapshot,
    all_settled: impl FnOnce() -> bool,
) -> bool {
    if snap.free_cpus == 0 {
        // Run-to-completion requires at least one processor for the
        // newcomer; nothing can start on a full machine.
        return false;
    }
    if snap.running < params.base_ml {
        return true;
    }
    if !params.coordinate_ml {
        return false;
    }
    // Above the default level, a newcomer must find at least `step` free
    // processors: starting a parallel application on a one-processor scrap
    // only adds churn, and the first allocation doubles as the search's
    // starting point.
    snap.free_cpus >= params.step && all_settled()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allows(p: &PdpaParams, running: usize, free: usize, all_settled: bool) -> bool {
        let snap = MlSnapshot {
            running,
            free_cpus: free,
        };
        ml_allows_start(p, &snap, || all_settled)
    }

    #[test]
    fn full_machine_admits_nobody() {
        let p = PdpaParams::default();
        assert!(!allows(&p, 1, 0, true));
    }

    #[test]
    fn below_base_ml_admits_freely() {
        let p = PdpaParams::default(); // base_ml 4
        assert!(allows(&p, 0, 60, true));
        assert!(allows(&p, 3, 1, false));
    }

    #[test]
    fn above_base_ml_requires_stability() {
        let p = PdpaParams::default();
        assert!(!allows(&p, 4, 10, false));
        assert!(allows(&p, 4, 10, true));
    }

    #[test]
    fn bad_performance_alone_does_not_bypass_searchers() {
        // A DEC job counts as settled, but another job still searching
        // upward (`all_settled` false) keeps the door closed: the searcher
        // gets first claim on freed processors.
        let p = PdpaParams::default();
        assert!(!allows(&p, 6, 4, false));
    }

    #[test]
    fn all_bad_performers_admit() {
        // Every running job is DEC (settled downward): their processors are
        // on the way back, so a newcomer may start.
        let p = PdpaParams::default();
        assert!(allows(&p, 6, 4, true));
    }

    #[test]
    fn ml_can_grow_far_beyond_base() {
        // Workload 3 reached a multiprogramming level of 34: admission only
        // depends on stability and free processors, not on a cap.
        let p = PdpaParams::default();
        assert!(allows(&p, 33, 4, true));
        // But above the default level a newcomer needs at least `step` free
        // processors to be worth starting.
        assert!(!allows(&p, 33, 2, true));
    }

    #[test]
    fn coordination_ablation_restores_fixed_ml() {
        let p = PdpaParams {
            coordinate_ml: false,
            ..PdpaParams::default()
        };
        assert!(!allows(&p, 4, 30, true));
        assert!(allows(&p, 3, 30, false));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::state::AppState;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Reference rule: every input, the scan's result included, computed
    /// before the decision.
    fn eager_rule(params: &PdpaParams, running: usize, free: usize, all_settled: bool) -> bool {
        if free == 0 {
            return false;
        }
        if running < params.base_ml {
            return true;
        }
        if !params.coordinate_ml {
            return false;
        }
        all_settled && free >= params.step
    }

    fn arb_state() -> impl Strategy<Value = AppState> {
        prop_oneof![
            Just(AppState::NoRef),
            Just(AppState::Inc),
            Just(AppState::Dec),
            Just(AppState::Stable),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lazy rule decides exactly as the eager one, and scans the
        /// running set only when the cheaper tests leave the answer open.
        #[test]
        fn lazy_rule_equals_the_eager_rule(
            jobs in proptest::collection::vec((arb_state(), 0usize..=8, 1usize..=8), 0..12),
            free in 0usize..=12,
            base_ml in 1usize..=6,
            step in 1usize..=6,
            coordinate_ml in proptest::bool::ANY,
        ) {
            let params = PdpaParams {
                base_ml,
                step,
                coordinate_ml,
                ..PdpaParams::default()
            };
            let settled = |&(state, alloc, request): &(AppState, usize, usize)| {
                state.is_settled() || alloc >= request
            };
            let all_settled = jobs.iter().all(settled);
            let running = jobs.len();
            let scans = Cell::new(0);
            let snap = MlSnapshot { running, free_cpus: free };
            let lazy = ml_allows_start(&params, &snap, || {
                scans.set(scans.get() + 1);
                jobs.iter().all(settled)
            });
            prop_assert_eq!(lazy, eager_rule(&params, running, free, all_settled));
            let open = free > 0 && running >= base_ml && coordinate_ml && free >= step;
            prop_assert_eq!(scans.get(), usize::from(open));
        }
    }
}
