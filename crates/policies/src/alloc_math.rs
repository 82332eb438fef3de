//! Allocation arithmetic shared by the policies.

/// Divides `total` processors equally among jobs with the given `requests`,
/// never exceeding a job's request (a job "can only benefit from" what it
/// asked for) and never allocating less than `min_each` to any job (space
/// sharers run-to-completion with at least one processor).
///
/// Leftover processors from capped jobs are redistributed among the
/// uncapped ones (classic water-filling), and any final remainder from
/// integer division goes to the earliest jobs, one each.
///
/// Returns one allocation per request, in order. The sum never exceeds
/// `total` (if even `min_each` per job does not fit, later jobs get what is
/// left, possibly zero).
pub fn equal_shares(total: usize, requests: &[usize], min_each: usize) -> Vec<usize> {
    let n = requests.len();
    if n == 0 {
        return Vec::new();
    }
    let mut alloc = vec![0usize; n];
    let mut remaining = total;

    // Guarantee the minimum first, in arrival order, while supply lasts.
    for (a, &req) in alloc.iter_mut().zip(requests) {
        let floor = min_each.min(req).min(remaining);
        *a = floor;
        remaining -= floor;
    }

    // Water-fill the rest: repeatedly split the remainder equally among jobs
    // that can still grow.
    loop {
        let growable: Vec<usize> = (0..n).filter(|&i| alloc[i] < requests[i]).collect();
        if growable.is_empty() || remaining == 0 {
            break;
        }
        let share = remaining / growable.len();
        if share == 0 {
            // Fewer processors than growable jobs: one each, front first.
            for &i in growable.iter().take(remaining) {
                alloc[i] += 1;
            }
            break;
        }
        let mut gave = 0;
        for &i in &growable {
            let headroom = requests[i] - alloc[i];
            let give = share.min(headroom);
            alloc[i] += give;
            gave += give;
        }
        if gave == 0 {
            break;
        }
        remaining -= gave;
    }
    alloc
}

/// Greedy water-filling by marginal gain: hands out `total` processors one
/// at a time, each to the job whose `gain(job_index, current_alloc)` is
/// highest, subject to per-job `requests` caps and a `min_each` floor.
///
/// `gain` is called with the job index and its current allocation and must
/// return the benefit of the *next* processor. It must depend on those two
/// arguments alone: each job's gain is computed once and recomputed only
/// after that job wins a processor. Ties break toward the latest job. This
/// is the allocation engine of Equal_efficiency and OptSplit.
pub fn marginal_fill<G>(
    total: usize,
    requests: &[usize],
    min_each: usize,
    mut gain: G,
) -> Vec<usize>
where
    G: FnMut(usize, usize) -> f64,
{
    let n = requests.len();
    if n == 0 {
        return Vec::new();
    }
    let mut alloc = vec![0usize; n];
    let mut remaining = total;

    for (a, &req) in alloc.iter_mut().zip(requests) {
        let floor = min_each.min(req).min(remaining);
        *a = floor;
        remaining -= floor;
    }

    // The gain of each job's next processor; a capped job's entry is
    // never read.
    let mut gains: Vec<f64> = (0..n)
        .map(|i| {
            if alloc[i] < requests[i] {
                gain(i, alloc[i])
            } else {
                0.0
            }
        })
        .collect();
    while remaining > 0 {
        let best = (0..n).filter(|&i| alloc[i] < requests[i]).max_by(|&a, &b| {
            gains[a]
                .partial_cmp(&gains[b])
                .expect("gains must not be NaN")
        });
        match best {
            Some(i) if gains[i] > 0.0 => {
                alloc[i] += 1;
                remaining -= 1;
                if alloc[i] < requests[i] {
                    gains[i] = gain(i, alloc[i]);
                }
            }
            // No job benefits from another processor: stop handing them out.
            _ => break,
        }
    }
    alloc
}

/// Proportional apportionment: divides `total` processors among jobs in
/// proportion to non-negative `weights`, respecting per-job `requests` caps
/// and a `min_each` floor.
///
/// Processors are handed out one at a time to the growable job furthest
/// below its ideal share `weight/Σweights × total` (largest-deficit, ties
/// toward the earliest job), so the result is work-conserving: when demand
/// covers the supply, every processor is assigned even if capped jobs force
/// others past their ideals. This is the integer-allocation engine of the
/// closed-form heSRPT policy.
pub fn weighted_fill(
    total: usize,
    requests: &[usize],
    min_each: usize,
    weights: &[f64],
) -> Vec<usize> {
    let n = requests.len();
    assert_eq!(n, weights.len(), "one weight per request");
    if n == 0 {
        return Vec::new();
    }
    let weight_sum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    let mut alloc = vec![0usize; n];
    let mut remaining = total;

    for (a, &req) in alloc.iter_mut().zip(requests) {
        let floor = min_each.min(req).min(remaining);
        *a = floor;
        remaining -= floor;
    }

    let ideal: Vec<f64> = weights
        .iter()
        .map(|w| {
            if weight_sum > 0.0 {
                w.max(0.0) / weight_sum * total as f64
            } else {
                total as f64 / n as f64
            }
        })
        .collect();
    while remaining > 0 {
        let best = (0..n)
            .filter(|&i| alloc[i] < requests[i])
            .map(|i| (i, ideal[i] - alloc[i] as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("weights must not be NaN"));
        match best {
            Some((i, _)) => {
                alloc[i] += 1;
                remaining -= 1;
            }
            None => break,
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shares_even_split() {
        assert_eq!(equal_shares(60, &[30, 30, 30, 30], 1), vec![15, 15, 15, 15]);
    }

    #[test]
    fn equal_shares_respects_requests() {
        // One small job: its leftover goes to the others.
        // The remainder of the three-way split lands on the earliest job.
        assert_eq!(equal_shares(60, &[30, 2, 30, 30], 1), vec![20, 2, 19, 19]);
    }

    #[test]
    fn equal_shares_light_load_gives_requests() {
        assert_eq!(equal_shares(60, &[30, 2], 1), vec![30, 2]);
    }

    #[test]
    fn equal_shares_remainder_goes_to_front() {
        assert_eq!(equal_shares(10, &[30, 30, 30], 1), vec![4, 3, 3]);
    }

    #[test]
    fn equal_shares_empty() {
        assert!(equal_shares(60, &[], 1).is_empty());
    }

    #[test]
    fn equal_shares_not_enough_for_minimums() {
        // Three jobs, two processors: front jobs get their floor.
        assert_eq!(equal_shares(2, &[8, 8, 8], 1), vec![1, 1, 0]);
    }

    #[test]
    fn equal_shares_never_oversubscribes() {
        for total in [0usize, 1, 7, 33, 60] {
            for reqs in [vec![30, 30], vec![2, 2, 2], vec![60], vec![5, 40, 17, 3]] {
                let alloc = equal_shares(total, &reqs, 1);
                assert!(alloc.iter().sum::<usize>() <= total);
                for (a, r) in alloc.iter().zip(&reqs) {
                    assert!(a <= r);
                }
            }
        }
    }

    #[test]
    fn marginal_fill_prefers_higher_gain() {
        // Job 0 gains 1.0 per cpu, job 1 gains 0.1: job 0 should saturate.
        let alloc = marginal_fill(10, &[8, 8], 1, |i, _| if i == 0 { 1.0 } else { 0.1 });
        assert_eq!(alloc, vec![8, 2]);
    }

    #[test]
    fn marginal_fill_stops_on_zero_gain() {
        let alloc = marginal_fill(10, &[8, 8], 1, |_, a| if a < 3 { 1.0 } else { 0.0 });
        assert_eq!(alloc, vec![3, 3], "no job benefits past 3 processors");
    }

    #[test]
    fn marginal_fill_guarantees_minimum() {
        let alloc = marginal_fill(4, &[8, 8, 8, 8], 1, |_, _| 0.0);
        assert_eq!(alloc, vec![1, 1, 1, 1]);
    }

    #[test]
    fn weighted_fill_tracks_weights() {
        let alloc = weighted_fill(60, &[60, 60, 60], 1, &[3.0, 2.0, 1.0]);
        assert_eq!(alloc, vec![30, 20, 10]);
    }

    #[test]
    fn weighted_fill_is_work_conserving_under_caps() {
        // The heavy job caps at 10; its surplus flows to the others even
        // though that pushes them past their ideal shares.
        let alloc = weighted_fill(60, &[10, 60, 60], 1, &[10.0, 1.0, 1.0]);
        assert_eq!(alloc.iter().sum::<usize>(), 60);
        assert_eq!(alloc[0], 10);
    }

    #[test]
    fn weighted_fill_zero_weights_fall_back_to_equal() {
        let alloc = weighted_fill(9, &[30, 30, 30], 1, &[0.0, 0.0, 0.0]);
        assert_eq!(alloc, vec![3, 3, 3]);
    }

    #[test]
    fn weighted_fill_empty() {
        assert!(weighted_fill(60, &[], 1, &[]).is_empty());
    }

    #[test]
    fn marginal_fill_ties_go_to_the_latest_job() {
        // Equal gains: each processor goes to the last job still below
        // its request.
        assert_eq!(marginal_fill(3, &[2, 2], 0, |_, _| 1.0), vec![1, 2]);
    }

    #[test]
    fn marginal_fill_diminishing_returns_balances() {
        // Identical concave gains: allocations should come out near equal.
        let alloc = marginal_fill(12, &[30, 30, 30], 1, |_, a| 1.0 / (a + 1) as f64);
        assert_eq!(alloc.iter().sum::<usize>(), 12);
        let max = alloc.iter().max().unwrap();
        let min = alloc.iter().min().unwrap();
        assert!(max - min <= 1, "balanced: {alloc:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `marginal_fill` as it was first written: every processor handed
    /// out re-evaluates every uncapped job's gain.
    fn reference_marginal_fill<G>(
        total: usize,
        requests: &[usize],
        min_each: usize,
        mut gain: G,
    ) -> Vec<usize>
    where
        G: FnMut(usize, usize) -> f64,
    {
        let n = requests.len();
        let mut alloc = vec![0usize; n];
        let mut remaining = total;
        for (a, &req) in alloc.iter_mut().zip(requests) {
            let floor = min_each.min(req).min(remaining);
            *a = floor;
            remaining -= floor;
        }
        while remaining > 0 {
            let best = (0..n)
                .filter(|&i| alloc[i] < requests[i])
                .map(|i| (i, gain(i, alloc[i])))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("gains must not be NaN"));
            match best {
                Some((i, g)) if g > 0.0 => {
                    alloc[i] += 1;
                    remaining -= 1;
                }
                _ => break,
            }
        }
        alloc
    }

    /// A per-job gain curve: `scale / (alloc + 1)^power`, zero from
    /// `cutoff` processors on. Coarse scales make ties common.
    fn curve(scale: u8, power: u8, cutoff: usize, alloc: usize) -> f64 {
        if alloc >= cutoff {
            0.0
        } else {
            f64::from(scale) / ((alloc + 1) as f64).powi(i32::from(power))
        }
    }

    proptest! {
        #[test]
        fn equal_shares_sum_and_caps(
            total in 0usize..200,
            requests in proptest::collection::vec(1usize..64, 0..12),
            min_each in 0usize..4,
        ) {
            let alloc = equal_shares(total, &requests, min_each);
            prop_assert_eq!(alloc.len(), requests.len());
            prop_assert!(alloc.iter().sum::<usize>() <= total);
            for (a, r) in alloc.iter().zip(&requests) {
                prop_assert!(a <= r);
            }
        }

        #[test]
        fn equal_shares_uses_all_supply_when_demand_exceeds_it(
            requests in proptest::collection::vec(1usize..64, 1..12),
        ) {
            let demand: usize = requests.iter().sum();
            if demand >= 10 {
                let alloc = equal_shares(10, &requests, 1);
                prop_assert_eq!(alloc.iter().sum::<usize>(), 10);
            }
        }

        #[test]
        fn equal_shares_is_fair_for_identical_requests(
            total in 1usize..200,
            n in 1usize..10,
        ) {
            let requests = vec![usize::MAX / 2; n];
            let alloc = equal_shares(total, &requests, 1);
            let max = *alloc.iter().max().unwrap();
            let min = *alloc.iter().min().unwrap();
            prop_assert!(max - min <= 1, "equal jobs differ by at most one: {:?}", alloc);
        }

        /// Recomputing only the winner's gain hands out exactly what
        /// re-evaluating every job's gain per processor does, ties and
        /// zero-gain stops included.
        #[test]
        fn marginal_fill_matches_the_full_rescan(
            total in 0usize..80,
            jobs in proptest::collection::vec((1usize..40, 0u8..4, 0u8..3, 0usize..50), 0..10),
            min_each in 0usize..3,
        ) {
            let requests: Vec<usize> = jobs.iter().map(|j| j.0).collect();
            let gain = |i: usize, a: usize| {
                let (_, scale, power, cutoff) = jobs[i];
                curve(scale, power, cutoff, a)
            };
            prop_assert_eq!(
                marginal_fill(total, &requests, min_each, gain),
                reference_marginal_fill(total, &requests, min_each, gain)
            );
        }

        #[test]
        fn marginal_fill_sum_and_caps(
            total in 0usize..200,
            requests in proptest::collection::vec(1usize..64, 0..12),
        ) {
            let alloc = marginal_fill(total, &requests, 1, |_, a| 1.0 / (a + 1) as f64);
            prop_assert!(alloc.iter().sum::<usize>() <= total);
            for (a, r) in alloc.iter().zip(&requests) {
                prop_assert!(a <= r);
            }
        }
    }
}
