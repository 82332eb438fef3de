//! CC-NUMA machine model.
//!
//! Models an SGI Origin 2000-like machine: `n_cpus` processors grouped into
//! nodes (two CPUs per node on the Origin), with space-shared partitions
//! handed out as *cpusets*. The model tracks which job owns each CPU,
//! performs affinity-preserving resizing (a job keeps the CPUs it already
//! has, grows onto CPUs close to its current nodes, and shrinks from its
//! most recently acquired CPUs), and counts thread migrations.
//!
//! A *migration* is counted whenever a job that is already running gains a
//! CPU — its threads must move onto the new processor, losing cache and
//! local-memory affinity. Initial placement is not a migration. This matches
//! how the paper's Table 2 statistics behave: Equipartition (which
//! redistributes on every arrival and completion) accumulates a few hundred
//! migrations over a workload, PDPA (which only moves processors during its
//! per-application search) a few tens, and the time-shared IRIX model — which
//! bypasses cpusets entirely — orders of magnitude more.

use crate::ids::{CpuId, JobId, JobMap};

/// An ordered set of CPUs owned by one job.
///
/// Kept sorted in *acquisition order* (not numeric order): the tail of the
/// list is the most recently acquired CPUs, which are the first to be given
/// back on shrink, preserving the job's oldest (warmest) processors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuSet(Vec<CpuId>);

impl CpuSet {
    /// Creates an empty cpuset.
    pub fn new() -> Self {
        CpuSet(Vec::new())
    }

    /// Number of CPUs in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if `cpu` is in the set.
    pub fn contains(&self, cpu: CpuId) -> bool {
        self.0.contains(&cpu)
    }

    /// The CPUs in acquisition order.
    pub fn cpus(&self) -> &[CpuId] {
        &self.0
    }

    /// Iterates over the CPUs.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        self.0.iter().copied()
    }

    fn push(&mut self, cpu: CpuId) {
        debug_assert!(!self.contains(cpu), "cpu already in set");
        self.0.push(cpu);
    }

    fn pop(&mut self) -> Option<CpuId> {
        self.0.pop()
    }

    /// Removes `cpu` wherever it sits in the acquisition order (used when a
    /// specific CPU fails rather than the most recent one being shrunk).
    fn remove(&mut self, cpu: CpuId) -> bool {
        match self.0.iter().position(|&c| c == cpu) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }
}

impl FromIterator<CpuId> for CpuSet {
    fn from_iter<T: IntoIterator<Item = CpuId>>(iter: T) -> Self {
        CpuSet(iter.into_iter().collect())
    }
}

/// The result of a [`Machine::resize`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResizeOutcome {
    /// CPUs newly assigned to the job.
    pub gained: Vec<CpuId>,
    /// CPUs taken away from the job.
    pub lost: Vec<CpuId>,
}

impl ResizeOutcome {
    /// True when the resize changed nothing.
    pub fn is_noop(&self) -> bool {
        self.gained.is_empty() && self.lost.is_empty()
    }
}

/// Lifetime counters for machine-level events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Thread migrations: CPUs gained by jobs that were already running.
    pub migrations: u64,
    /// Resize operations that changed at least one CPU.
    pub reallocations: u64,
    /// CPUs handed out on first placement of each job.
    pub initial_placements: u64,
}

/// A space-shared CC-NUMA machine.
///
/// # Examples
///
/// ```
/// use pdpa_sim::{JobId, Machine};
///
/// let mut machine = Machine::new(8);
/// machine.resize(JobId(1), 6);
/// assert_eq!(machine.allocation(JobId(1)), 6);
/// assert_eq!(machine.free_cpus(), 2);
///
/// machine.resize(JobId(1), 2); // shrink: most recent CPUs go back first
/// assert_eq!(machine.free_cpus(), 6);
/// machine.release(JobId(1));
/// assert_eq!(machine.free_cpus(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    /// Owner of each CPU, indexed by CPU id.
    owner: Vec<Option<JobId>>,
    /// Liveness of each CPU: failed CPUs stay in the topology but cannot be
    /// owned until they recover.
    alive: Vec<bool>,
    /// CPUs per NUMA node (2 on the Origin 2000).
    cpus_per_node: usize,
    /// Cpuset of each running job.
    owned: JobMap<CpuSet>,
    /// Alive, unowned CPUs — kept in step with `owner`/`alive` so the
    /// supply every policy context reads is O(1), not a topology scan.
    n_free: usize,
    /// Alive CPUs.
    n_alive: usize,
    stats: MachineStats,
}

impl Machine {
    /// Creates a machine with `n_cpus` CPUs and the Origin 2000 topology of
    /// two CPUs per node.
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` is 0.
    pub fn new(n_cpus: usize) -> Self {
        Self::with_topology(n_cpus, 2)
    }

    /// Creates a machine with an explicit `cpus_per_node`.
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` or `cpus_per_node` is 0.
    pub fn with_topology(n_cpus: usize, cpus_per_node: usize) -> Self {
        assert!(n_cpus > 0, "machine needs at least one CPU");
        assert!(cpus_per_node > 0, "nodes need at least one CPU");
        Machine {
            owner: vec![None; n_cpus],
            alive: vec![true; n_cpus],
            cpus_per_node,
            owned: JobMap::default(),
            n_free: n_cpus,
            n_alive: n_cpus,
            stats: MachineStats::default(),
        }
    }

    /// Total number of CPUs (alive or not).
    pub fn n_cpus(&self) -> usize {
        self.owner.len()
    }

    /// Number of alive, unowned CPUs — the supply available to allocate.
    pub fn free_cpus(&self) -> usize {
        self.n_free
    }

    /// Number of currently owned CPUs (dead CPUs are never owned).
    pub fn used_cpus(&self) -> usize {
        self.n_alive - self.n_free
    }

    /// Number of alive CPUs — the machine's current capacity.
    pub fn alive_cpus(&self) -> usize {
        self.n_alive
    }

    /// Number of failed CPUs.
    pub fn dead_cpus(&self) -> usize {
        self.n_cpus() - self.alive_cpus()
    }

    /// True if `cpu` has not failed (or has recovered).
    pub fn is_alive(&self, cpu: CpuId) -> bool {
        self.alive[cpu.index()]
    }

    /// Marks `cpu` failed. If a job owned it, the CPU is revoked from its
    /// cpuset and the dislodged owner is returned so the caller can react
    /// (recompute the job's rate, notify the policy). Failing an
    /// already-dead CPU is a no-op returning `None`.
    pub fn fail_cpu(&mut self, cpu: CpuId) -> Option<JobId> {
        if !self.alive[cpu.index()] {
            return None;
        }
        self.alive[cpu.index()] = false;
        self.n_alive -= 1;
        let victim = self.owner[cpu.index()].take();
        if victim.is_none() {
            self.n_free -= 1;
        }
        if let Some(job) = victim {
            let set = self.owned.get_mut(&job).expect("owner table has the job");
            set.remove(cpu);
            if set.is_empty() {
                self.owned.remove(&job);
            }
        }
        victim
    }

    /// Marks `cpu` alive again. Returns `true` if it was dead (i.e. the
    /// machine's capacity actually grew).
    pub fn recover_cpu(&mut self, cpu: CpuId) -> bool {
        let was_dead = !self.alive[cpu.index()];
        if was_dead {
            // Dead CPUs are never owned, so a recovered one is free.
            self.alive[cpu.index()] = true;
            self.n_alive += 1;
            self.n_free += 1;
        }
        was_dead
    }

    /// Number of jobs holding at least one CPU.
    pub fn running_jobs(&self) -> usize {
        self.owned.len()
    }

    /// The NUMA node of a CPU.
    pub fn node_of(&self, cpu: CpuId) -> usize {
        cpu.index() / self.cpus_per_node
    }

    /// The cpuset currently owned by `job`, if it holds any CPUs.
    pub fn cpuset(&self, job: JobId) -> Option<&CpuSet> {
        self.owned.get(&job)
    }

    /// Number of CPUs currently allocated to `job` (0 if not running).
    pub fn allocation(&self, job: JobId) -> usize {
        self.owned.get(&job).map_or(0, CpuSet::len)
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Resizes `job` to exactly `target` CPUs, preserving affinity.
    ///
    /// Growing prefers free CPUs on nodes where the job already has CPUs,
    /// then CPUs on entirely free nodes (to limit fragmentation), then any
    /// free CPU. Shrinking releases the most recently acquired CPUs first.
    /// If fewer than `target` CPUs are available the job receives as many as
    /// possible; the caller can inspect the outcome to see what happened.
    ///
    /// Returns the gained and lost CPUs.
    pub fn resize(&mut self, job: JobId, target: usize) -> ResizeOutcome {
        let was_running = self.owned.contains_key(&job);
        let mut outcome = ResizeOutcome::default();
        let current = self.allocation(job);

        if target > current {
            let want = target - current;
            let picks = self.pick_free_cpus(job, want);
            if !picks.is_empty() {
                let set = self.owned.entry(job).or_default();
                self.n_free -= picks.len();
                for cpu in picks {
                    set.push(cpu);
                    self.owner[cpu.index()] = Some(job);
                    outcome.gained.push(cpu);
                }
            }
        } else if target < current {
            let set = self
                .owned
                .get_mut(&job)
                .expect("job shrinks only if running");
            for _ in 0..(current - target) {
                let cpu = set.pop().expect("set has at least current CPUs");
                self.owner[cpu.index()] = None;
                outcome.lost.push(cpu);
            }
            self.n_free += outcome.lost.len();
            if set.is_empty() {
                self.owned.remove(&job);
            }
        }

        if !outcome.is_noop() {
            self.stats.reallocations += 1;
            if was_running {
                self.stats.migrations += outcome.gained.len() as u64;
            } else {
                self.stats.initial_placements += outcome.gained.len() as u64;
            }
        }
        outcome
    }

    /// Releases every CPU owned by `job` (at job completion).
    ///
    /// Returns the CPUs released.
    pub fn release(&mut self, job: JobId) -> Vec<CpuId> {
        match self.owned.remove(&job) {
            Some(set) => {
                let cpus: Vec<CpuId> = set.iter().collect();
                for cpu in &cpus {
                    self.owner[cpu.index()] = None;
                }
                self.n_free += cpus.len();
                cpus
            }
            None => Vec::new(),
        }
    }

    /// Chooses up to `want` free CPUs for `job`, best-affinity first.
    ///
    /// Free CPUs fall in three classes: on a node where the job already has
    /// CPUs (best), on an entirely free node (good: leaves partially used
    /// nodes for their owners), other (last). One pass over the nodes per
    /// class, each in CPU-id order, so placement is deterministic; the
    /// passes stop as soon as `want` CPUs are picked.
    fn pick_free_cpus(&self, job: JobId, want: usize) -> Vec<CpuId> {
        const SAME_NODE: u8 = 0;
        const FREE_NODE: u8 = 1;
        const OTHER: u8 = 2;
        let mut picks = Vec::with_capacity(want.min(self.n_free));
        if picks.capacity() == 0 {
            return picks;
        }
        let first = if self.owned.contains_key(&job) {
            SAME_NODE
        } else {
            FREE_NODE
        };
        let nodes = self
            .owner
            .chunks(self.cpus_per_node)
            .zip(self.alive.chunks(self.cpus_per_node));
        for class in first..=OTHER {
            for (node, (owners, alive)) in nodes.clone().enumerate() {
                let is_free = |i: usize| owners[i].is_none() && alive[i];
                let node_class = if owners.contains(&Some(job)) {
                    SAME_NODE
                } else if (0..owners.len()).all(is_free) {
                    FREE_NODE
                } else {
                    OTHER
                };
                if node_class != class {
                    continue;
                }
                let base = node * self.cpus_per_node;
                for i in (0..owners.len()).filter(|&i| is_free(i)) {
                    picks.push(CpuId((base + i) as u16));
                    if picks.len() == want {
                        return picks;
                    }
                }
            }
        }
        picks
    }

    /// Internal consistency check used by tests and debug assertions:
    /// the owner table and the per-job cpusets must agree, and the kept
    /// free/alive counts must equal a recount of the topology.
    pub fn check_invariants(&self) -> Result<(), String> {
        let alive = self.alive.iter().filter(|&&a| a).count();
        let free = self
            .owner
            .iter()
            .zip(&self.alive)
            .filter(|(o, &a)| o.is_none() && a)
            .count();
        if (self.n_alive, self.n_free) != (alive, free) {
            return Err(format!(
                "kept counts alive={} free={} disagree with recount alive={alive} free={free}",
                self.n_alive, self.n_free
            ));
        }
        let mut seen = vec![false; self.n_cpus()];
        for (job, set) in &self.owned {
            if set.is_empty() {
                return Err(format!("{job} holds an empty cpuset"));
            }
            for cpu in set.iter() {
                if seen[cpu.index()] {
                    return Err(format!("{cpu} appears in two cpusets"));
                }
                seen[cpu.index()] = true;
                if self.owner[cpu.index()] != Some(*job) {
                    return Err(format!("{cpu} owner table disagrees with {job}"));
                }
                if !self.alive[cpu.index()] {
                    return Err(format!("{cpu} is dead but owned by {job}"));
                }
            }
        }
        for (i, owner) in self.owner.iter().enumerate() {
            if owner.is_some() != seen[i] {
                return Err(format!("cpu{i} owned but in no cpuset"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(n: u32) -> JobId {
        JobId(n)
    }

    #[test]
    fn fresh_machine_is_all_free() {
        let m = Machine::new(60);
        assert_eq!(m.n_cpus(), 60);
        assert_eq!(m.free_cpus(), 60);
        assert_eq!(m.used_cpus(), 0);
        assert_eq!(m.running_jobs(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn grow_assigns_requested_cpus() {
        let mut m = Machine::new(8);
        let out = m.resize(job(1), 4);
        assert_eq!(out.gained.len(), 4);
        assert!(out.lost.is_empty());
        assert_eq!(m.allocation(job(1)), 4);
        assert_eq!(m.free_cpus(), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn grow_is_capped_by_free_cpus() {
        let mut m = Machine::new(4);
        m.resize(job(1), 3);
        let out = m.resize(job(2), 3);
        assert_eq!(out.gained.len(), 1, "only one CPU was free");
        assert_eq!(m.allocation(job(2)), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn shrink_releases_most_recent_cpus() {
        let mut m = Machine::new(8);
        let first = m.resize(job(1), 2).gained.clone();
        let second = m.resize(job(1), 4).gained.clone();
        let out = m.resize(job(1), 2);
        assert_eq!(out.lost.len(), 2);
        // The most recently acquired CPUs go back first.
        assert!(out.lost.iter().all(|c| second.contains(c)));
        assert!(first.iter().all(|c| m.cpuset(job(1)).unwrap().contains(*c)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn shrink_to_zero_removes_job() {
        let mut m = Machine::new(4);
        m.resize(job(1), 3);
        m.resize(job(1), 0);
        assert_eq!(m.allocation(job(1)), 0);
        assert_eq!(m.running_jobs(), 0);
        assert_eq!(m.free_cpus(), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn release_frees_everything() {
        let mut m = Machine::new(8);
        m.resize(job(1), 5);
        let released = m.release(job(1));
        assert_eq!(released.len(), 5);
        assert_eq!(m.free_cpus(), 8);
        assert!(m.cpuset(job(1)).is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn release_unknown_job_is_empty() {
        let mut m = Machine::new(4);
        assert!(m.release(job(9)).is_empty());
    }

    #[test]
    fn growth_prefers_own_nodes() {
        let mut m = Machine::new(8); // nodes: {0,1} {2,3} {4,5} {6,7}
        m.resize(job(1), 1); // takes cpu0 (node 0)
        m.resize(job(2), 4); // takes cpus from free nodes
                             // Job 1 grows by one: cpu1 (its own node) must be preferred if free.
        let out = m.resize(job(1), 2);
        assert_eq!(out.gained, vec![CpuId(1)]);
        m.check_invariants().unwrap();
    }

    #[test]
    fn growth_prefers_fully_free_nodes_over_fragmenting() {
        let mut m = Machine::new(8);
        m.resize(job(1), 1); // cpu0: node 0 now half used
                             // A new job wants 2: should land on a fully free node, not cpu1.
        let out = m.resize(job(2), 2);
        assert!(
            !out.gained.contains(&CpuId(1)),
            "should not fragment node 0: {:?}",
            out.gained
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn migrations_counted_only_for_running_jobs() {
        let mut m = Machine::new(16);
        m.resize(job(1), 4); // initial placement, not a migration
        assert_eq!(m.stats().migrations, 0);
        assert_eq!(m.stats().initial_placements, 4);
        m.resize(job(1), 8); // growth while running: 4 migrations
        assert_eq!(m.stats().migrations, 4);
        m.resize(job(1), 6); // shrink: no migration
        assert_eq!(m.stats().migrations, 4);
        assert_eq!(m.stats().reallocations, 3);
    }

    #[test]
    fn noop_resize_changes_nothing() {
        let mut m = Machine::new(8);
        m.resize(job(1), 4);
        let stats_before = m.stats();
        let out = m.resize(job(1), 4);
        assert!(out.is_noop());
        assert_eq!(m.stats(), stats_before);
    }

    #[test]
    fn node_of_matches_topology() {
        let m = Machine::with_topology(12, 4);
        assert_eq!(m.node_of(CpuId(0)), 0);
        assert_eq!(m.node_of(CpuId(3)), 0);
        assert_eq!(m.node_of(CpuId(4)), 1);
        assert_eq!(m.node_of(CpuId(11)), 2);
    }

    #[test]
    fn failing_a_free_cpu_shrinks_supply() {
        let mut m = Machine::new(8);
        assert_eq!(m.fail_cpu(CpuId(3)), None, "cpu3 was idle");
        assert_eq!(m.alive_cpus(), 7);
        assert_eq!(m.dead_cpus(), 1);
        assert_eq!(m.free_cpus(), 7);
        assert!(!m.is_alive(CpuId(3)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn failing_an_owned_cpu_dislodges_its_owner() {
        let mut m = Machine::new(8);
        let got = m.resize(job(1), 4).gained.clone();
        let victim_cpu = got[1]; // not the most recent: exercises mid-set removal
        assert_eq!(m.fail_cpu(victim_cpu), Some(job(1)));
        assert_eq!(m.allocation(job(1)), 3);
        assert!(!m.cpuset(job(1)).unwrap().contains(victim_cpu));
        m.check_invariants().unwrap();
    }

    #[test]
    fn dead_cpus_are_never_handed_out() {
        let mut m = Machine::new(4);
        m.fail_cpu(CpuId(0));
        m.fail_cpu(CpuId(1));
        let out = m.resize(job(1), 4);
        assert_eq!(out.gained.len(), 2, "only the two alive CPUs are supply");
        assert!(out.gained.iter().all(|&c| m.is_alive(c)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn recover_restores_capacity() {
        let mut m = Machine::new(4);
        m.fail_cpu(CpuId(2));
        assert!(m.recover_cpu(CpuId(2)));
        assert!(!m.recover_cpu(CpuId(2)), "second recover is a no-op");
        assert_eq!(m.alive_cpus(), 4);
        let out = m.resize(job(1), 4);
        assert_eq!(out.gained.len(), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn double_fail_is_a_noop() {
        let mut m = Machine::new(4);
        m.resize(job(1), 4);
        assert_eq!(m.fail_cpu(CpuId(0)), Some(job(1)));
        assert_eq!(m.fail_cpu(CpuId(0)), None);
        assert_eq!(m.allocation(job(1)), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn failing_a_jobs_last_cpu_removes_it() {
        let mut m = Machine::new(4);
        let got = m.resize(job(1), 1).gained.clone();
        assert_eq!(m.fail_cpu(got[0]), Some(job(1)));
        assert_eq!(m.running_jobs(), 0);
        assert!(m.cpuset(job(1)).is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn many_jobs_fill_machine_exactly() {
        let mut m = Machine::new(60);
        for j in 0..15 {
            m.resize(job(j), 4);
        }
        assert_eq!(m.free_cpus(), 0);
        assert_eq!(m.running_jobs(), 15);
        let extra = m.resize(job(99), 4);
        assert!(extra.gained.is_empty(), "no CPUs left to give");
        m.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One random scheduling action.
    #[derive(Clone, Debug)]
    enum Action {
        Resize { job: u32, target: usize },
        Release { job: u32 },
        Fail { cpu: u16 },
        Recover { cpu: u16 },
    }

    /// Reference placement: collect every free CPU, then stable-sort by
    /// class (same node, free node, other).
    fn sorted_placement(m: &Machine, job: JobId, want: usize) -> Vec<CpuId> {
        let my_nodes: Vec<usize> = m
            .owned
            .get(&job)
            .map(|set| set.iter().map(|c| m.node_of(c)).collect())
            .unwrap_or_default();
        let node_is_free = |node: usize| {
            let start = node * m.cpus_per_node;
            let end = (start + m.cpus_per_node).min(m.n_cpus());
            (start..end).all(|i| m.owner[i].is_none() && m.alive[i])
        };
        let mut free: Vec<CpuId> = (0..m.n_cpus() as u16)
            .map(CpuId)
            .filter(|c| m.owner[c.index()].is_none() && m.alive[c.index()])
            .collect();
        free.sort_by_key(|cpu| {
            let node = m.node_of(*cpu);
            if my_nodes.contains(&node) {
                0
            } else if node_is_free(node) {
                1
            } else {
                2
            }
        });
        free.truncate(want);
        free
    }

    fn arb_action() -> impl Strategy<Value = Action> {
        prop_oneof![
            (0u32..8, 0usize..70).prop_map(|(job, target)| Action::Resize { job, target }),
            (0u32..8).prop_map(|job| Action::Release { job }),
            (0u16..60).prop_map(|cpu| Action::Fail { cpu }),
            (0u16..60).prop_map(|cpu| Action::Recover { cpu }),
        ]
    }

    proptest! {
        /// Any sequence of resizes and releases preserves the machine's
        /// internal consistency: the owner table and the per-job cpusets
        /// always agree, no CPU is double-owned, and free/used counts add
        /// up.
        #[test]
        fn random_action_sequences_keep_invariants(
            actions in proptest::collection::vec(arb_action(), 1..60),
        ) {
            let mut m = Machine::new(60);
            for action in actions {
                match action {
                    Action::Resize { job, target } => {
                        let before_free = m.free_cpus();
                        let before_alloc = m.allocation(JobId(job));
                        let out = m.resize(JobId(job), target);
                        // The outcome is consistent with the state change.
                        let after_alloc = m.allocation(JobId(job));
                        prop_assert_eq!(
                            after_alloc as i64 - before_alloc as i64,
                            out.gained.len() as i64 - out.lost.len() as i64
                        );
                        prop_assert_eq!(
                            m.free_cpus() as i64,
                            before_free as i64 - out.gained.len() as i64
                                + out.lost.len() as i64
                        );
                        // Shrinks hit their target exactly; grows may be
                        // capped by supply but never overshoot.
                        if target <= before_alloc {
                            prop_assert_eq!(after_alloc, target);
                        } else {
                            prop_assert!(after_alloc <= target);
                            prop_assert!(after_alloc >= before_alloc);
                        }
                    }
                    Action::Release { job } => {
                        m.release(JobId(job));
                        prop_assert_eq!(m.allocation(JobId(job)), 0);
                    }
                    Action::Fail { cpu } => {
                        let was_owned = m.used_cpus();
                        let victim = m.fail_cpu(CpuId(cpu));
                        prop_assert!(!m.is_alive(CpuId(cpu)));
                        if victim.is_some() {
                            prop_assert_eq!(m.used_cpus(), was_owned - 1);
                        } else {
                            prop_assert_eq!(m.used_cpus(), was_owned);
                        }
                    }
                    Action::Recover { cpu } => {
                        m.recover_cpu(CpuId(cpu));
                        prop_assert!(m.is_alive(CpuId(cpu)));
                    }
                }
                prop_assert!(m.check_invariants().is_ok(), "{:?}", m.check_invariants());
                // Dead CPUs are never owned, so supply + usage + casualties
                // partition the topology.
                prop_assert_eq!(
                    m.free_cpus() + m.used_cpus() + m.dead_cpus(),
                    m.n_cpus()
                );
            }
        }

        /// The kept free/alive counts equal a recount through the public
        /// per-CPU and per-job views after every random resize, release,
        /// failure and recovery.
        #[test]
        fn kept_counts_match_a_recount(
            actions in proptest::collection::vec(arb_action(), 1..80),
        ) {
            let mut m = Machine::new(60);
            for action in actions {
                match action {
                    Action::Resize { job, target } => {
                        m.resize(JobId(job), target);
                    }
                    Action::Release { job } => {
                        m.release(JobId(job));
                    }
                    Action::Fail { cpu } => {
                        m.fail_cpu(CpuId(cpu));
                    }
                    Action::Recover { cpu } => {
                        m.recover_cpu(CpuId(cpu));
                    }
                }
                let alive = (0..60u16).filter(|&c| m.is_alive(CpuId(c))).count();
                let owned: usize = (0..8u32).map(|j| m.allocation(JobId(j))).sum();
                prop_assert_eq!(m.alive_cpus(), alive);
                prop_assert_eq!(m.free_cpus(), alive - owned);
                prop_assert_eq!(m.used_cpus(), owned);
            }
        }

        /// The pass-based placement picks the same CPUs, in the same order,
        /// as the collect-and-stable-sort reference, over random
        /// occupancy, dead CPUs and node sizes.
        #[test]
        fn placement_matches_the_sorting_oracle(
            cpus_per_node in 1usize..=4,
            actions in proptest::collection::vec(arb_action(), 0..40),
            job in 0u32..9,
            want in 0usize..24,
        ) {
            let mut m = Machine::with_topology(21, cpus_per_node);
            for action in actions {
                match action {
                    Action::Resize { job, target } => {
                        m.resize(JobId(job), target % 12);
                    }
                    Action::Release { job } => {
                        m.release(JobId(job));
                    }
                    Action::Fail { cpu } => {
                        m.fail_cpu(CpuId(cpu % 21));
                    }
                    Action::Recover { cpu } => {
                        m.recover_cpu(CpuId(cpu % 21));
                    }
                }
            }
            prop_assert_eq!(
                m.pick_free_cpus(JobId(job), want),
                sorted_placement(&m, JobId(job), want)
            );
        }

        /// Growth is exact whenever supply suffices.
        #[test]
        fn growth_is_exact_with_supply(
            first in 1usize..30,
            second in 1usize..30,
        ) {
            let mut m = Machine::new(60);
            m.resize(JobId(0), first);
            m.resize(JobId(1), second);
            prop_assert_eq!(m.allocation(JobId(0)), first);
            prop_assert_eq!(m.allocation(JobId(1)), second);
        }
    }
}
