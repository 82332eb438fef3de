//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a fully materialized, seeded schedule of machine and
//! job faults that the engine replays alongside the workload:
//!
//! - [`CpuFault`] — a CPU fails at an instant and (optionally) recovers at
//!   a later one. The engine revokes the CPU from whoever owns it and
//!   re-drives the active policy at the reduced capacity.
//! - [`JobFault`] — a running job crashes at an instant. Depending on the
//!   plan's [`RetryPolicy`] the job is retried with exponential backoff or
//!   fails terminally, freeing its resources either way.
//!
//! Plans are *data*, not callbacks: an MTBF-driven plan is sampled up front
//! from its own [`SimRng`] stream, so identical seeds produce identical
//! fault schedules regardless of what the engine does between faults. That
//! is what makes chaos runs byte-reproducible.
//!
//! # Plan grammar
//!
//! [`FaultPlan::parse`] accepts a compact text form used by the CLI's and
//! bench harness's `--faults` flag: `;`-separated elements, each one of
//!
//! ```text
//! cpu<N>@<secs>[:recover@<secs>]    one targeted CPU failure
//! job<N>@<secs>                     one job crash
//! mtbf=<secs>,horizon=<secs>[,repair=<secs>][,seed=<n>]
//!                                   sampled per-CPU failures
//! retry=<max>,backoff=<secs>[,factor=<f>]
//!                                   retry policy for job crashes
//! ```
//!
//! Example: `cpu3@100:recover@400;job2@250;retry=2,backoff=30`.
//!
//! A parsed plan holds at most [`MAX_PLAN_CPU_FAULTS`] CPU faults: an
//! `mtbf=` element that would sample more is rejected before it is
//! sampled, so no input makes the parser loop or allocate without bound.

use pdpa_sim::{CpuId, JobId, SimDuration, SimRng, SimTime};

/// The most CPU faults [`FaultPlan::parse`] lets a plan hold. An `mtbf=`
/// element samples about one fault per CPU and repair cycle, so
/// `mtbf=1e-6,horizon=1e15,repair=1e-6` would ask for about 10²¹ per CPU.
pub const MAX_PLAN_CPU_FAULTS: usize = 100_000;

/// One scheduled CPU failure, with an optional recovery instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuFault {
    /// The CPU that fails.
    pub cpu: CpuId,
    /// When it fails.
    pub at: SimTime,
    /// When it comes back, if it ever does.
    pub recover_at: Option<SimTime>,
}

/// One scheduled job crash.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobFault {
    /// The job that crashes (by submission rank).
    pub job: JobId,
    /// When it crashes. If the job is not running at this instant the
    /// fault is dropped (you cannot crash what is not there).
    pub at: SimTime,
}

/// Bounded retry with exponential backoff for crashed jobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first crash; the `max_retries + 1`-th
    /// crash is terminal.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff on each subsequent retry (≥ 1).
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: SimDuration::from_secs(30.0),
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt` (1-based): `base *
    /// factor^(attempt-1)`.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let factor = self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        SimDuration::from_secs(self.backoff_base.as_secs() * factor)
    }
}

/// A complete, deterministic fault schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// CPU failures, in no particular order (the engine's event queue
    /// orders them by time).
    pub cpu_faults: Vec<CpuFault>,
    /// Job crashes.
    pub job_faults: Vec<JobFault>,
    /// Retry policy for job crashes; `None` makes every crash terminal.
    pub retry: Option<RetryPolicy>,
}

impl FaultPlan {
    /// The empty plan: no faults, no retries.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.cpu_faults.is_empty() && self.job_faults.is_empty()
    }

    /// Adds a permanent CPU failure at `at` seconds.
    pub fn fail_cpu_at(mut self, cpu: CpuId, at: f64) -> Self {
        self.cpu_faults.push(CpuFault {
            cpu,
            at: SimTime::from_secs(at),
            recover_at: None,
        });
        self
    }

    /// Adds a transient CPU failure: down at `at`, back at `recover_at`.
    ///
    /// # Panics
    ///
    /// Panics if `recover_at <= at`.
    pub fn fail_cpu_between(mut self, cpu: CpuId, at: f64, recover_at: f64) -> Self {
        assert!(recover_at > at, "recovery must follow the failure");
        self.cpu_faults.push(CpuFault {
            cpu,
            at: SimTime::from_secs(at),
            recover_at: Some(SimTime::from_secs(recover_at)),
        });
        self
    }

    /// Adds a job crash at `at` seconds.
    pub fn fail_job_at(mut self, job: JobId, at: f64) -> Self {
        self.job_faults.push(JobFault {
            job,
            at: SimTime::from_secs(at),
        });
        self
    }

    /// Sets the retry policy for job crashes.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Samples an MTBF-driven failure schedule: each of `n_cpus` CPUs draws
    /// exponential inter-failure times with mean `mtbf_secs` until the
    /// `horizon_secs` bound; with `repair_secs > 0` every failure recovers
    /// after that fixed repair time (failures whose repair would overlap the
    /// next failure of the same CPU are skipped).
    ///
    /// The schedule depends only on the arguments — the sampler forks its
    /// own RNG stream per CPU — so the same seed always yields the same
    /// plan.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf_secs` or `horizon_secs` is not positive.
    pub fn mtbf(mut self, mtbf_secs: f64, horizon_secs: f64, n_cpus: usize, seed: u64) -> Self {
        self.sample_mtbf(mtbf_secs, horizon_secs, 0.0, n_cpus, seed, usize::MAX);
        self
    }

    /// Like [`FaultPlan::mtbf`] with a fixed repair time per failure.
    pub fn mtbf_with_repair(
        mut self,
        mtbf_secs: f64,
        horizon_secs: f64,
        repair_secs: f64,
        n_cpus: usize,
        seed: u64,
    ) -> Self {
        self.sample_mtbf(
            mtbf_secs,
            horizon_secs,
            repair_secs,
            n_cpus,
            seed,
            usize::MAX,
        );
        self
    }

    /// Samples the MTBF schedule into `cpu_faults` until it holds `limit`
    /// faults; returns false when the schedule did not fit.
    fn sample_mtbf(
        &mut self,
        mtbf_secs: f64,
        horizon_secs: f64,
        repair_secs: f64,
        n_cpus: usize,
        seed: u64,
        limit: usize,
    ) -> bool {
        assert!(mtbf_secs > 0.0, "MTBF must be positive");
        assert!(horizon_secs > 0.0, "horizon must be positive");
        let mut root = SimRng::new(seed ^ 0xFA17);
        for cpu in 0..n_cpus {
            let mut rng = root.fork(cpu as u64);
            let mut t = rng.exponential(mtbf_secs);
            while t < horizon_secs {
                if self.cpu_faults.len() >= limit {
                    return false;
                }
                let recover_at = if repair_secs > 0.0 {
                    Some(SimTime::from_secs(t + repair_secs))
                } else {
                    None
                };
                self.cpu_faults.push(CpuFault {
                    cpu: CpuId(cpu as u16),
                    at: SimTime::from_secs(t),
                    recover_at,
                });
                if repair_secs == 0.0 {
                    break; // permanent: one failure per CPU is all there is
                }
                // Next failure can only happen once the CPU is back.
                t = t + repair_secs + rng.exponential(mtbf_secs);
            }
        }
        true
    }

    /// Parses the `--faults` plan grammar (see the module docs).
    ///
    /// `n_cpus` bounds the CPU ids a plan may target and sizes MTBF
    /// sampling.
    ///
    /// # Errors
    ///
    /// Returns a human-readable diagnostic naming the offending element.
    pub fn parse(input: &str, n_cpus: usize) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for raw in input.split(';') {
            let element = raw.trim();
            if element.is_empty() {
                continue;
            }
            if let Some(rest) = element.strip_prefix("cpu") {
                plan = parse_cpu_fault(element, rest, n_cpus, plan)?;
            } else if let Some(rest) = element.strip_prefix("job") {
                plan = parse_job_fault(element, rest, plan)?;
            } else if element.starts_with("mtbf=") {
                plan = parse_mtbf(element, n_cpus, plan)?;
            } else if element.starts_with("retry=") {
                plan = parse_retry(element, plan)?;
            } else {
                return Err(format!(
                    "unknown fault element {element:?}; expected cpu<N>@<t>, job<N>@<t>, \
                     mtbf=..., or retry=..."
                ));
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for cf in &self.cpu_faults {
            match cf.recover_at {
                Some(r) => parts.push(format!(
                    "cpu{}@{}:recover@{}",
                    cf.cpu.index(),
                    cf.at.as_secs(),
                    r.as_secs()
                )),
                None => parts.push(format!("cpu{}@{}", cf.cpu.index(), cf.at.as_secs())),
            }
        }
        for jf in &self.job_faults {
            parts.push(format!("job{}@{}", jf.job.index(), jf.at.as_secs()));
        }
        if let Some(r) = &self.retry {
            parts.push(format!(
                "retry={},backoff={},factor={}",
                r.max_retries,
                r.backoff_base.as_secs(),
                r.backoff_factor
            ));
        }
        write!(f, "{}", parts.join(";"))
    }
}

fn parse_secs(element: &str, field: &str, value: &str) -> Result<f64, String> {
    let secs: f64 = value
        .parse()
        .map_err(|_| format!("{element:?}: {field} expects seconds, got {value:?}"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("{element:?}: {field} must be non-negative"));
    }
    Ok(secs)
}

fn parse_cpu_fault(
    element: &str,
    rest: &str,
    n_cpus: usize,
    mut plan: FaultPlan,
) -> Result<FaultPlan, String> {
    let (id_str, when) = rest
        .split_once('@')
        .ok_or_else(|| format!("{element:?}: expected cpu<N>@<secs>"))?;
    let id: usize = id_str
        .parse()
        .map_err(|_| format!("{element:?}: bad CPU id {id_str:?}"))?;
    if id >= n_cpus {
        return Err(format!(
            "{element:?}: cpu{id} out of range for a {n_cpus}-CPU machine"
        ));
    }
    let (at_str, recover) = match when.split_once(":recover@") {
        Some((a, r)) => (a, Some(r)),
        None => (when, None),
    };
    let at = parse_secs(element, "failure time", at_str)?;
    let fault = match recover {
        Some(r_str) => {
            let r = parse_secs(element, "recovery time", r_str)?;
            if r <= at {
                return Err(format!("{element:?}: recovery must follow the failure"));
            }
            CpuFault {
                cpu: CpuId(id as u16),
                at: SimTime::from_secs(at),
                recover_at: Some(SimTime::from_secs(r)),
            }
        }
        None => CpuFault {
            cpu: CpuId(id as u16),
            at: SimTime::from_secs(at),
            recover_at: None,
        },
    };
    plan.cpu_faults.push(fault);
    Ok(plan)
}

fn parse_job_fault(element: &str, rest: &str, mut plan: FaultPlan) -> Result<FaultPlan, String> {
    let (id_str, at_str) = rest
        .split_once('@')
        .ok_or_else(|| format!("{element:?}: expected job<N>@<secs>"))?;
    let id: u32 = id_str
        .parse()
        .map_err(|_| format!("{element:?}: bad job id {id_str:?}"))?;
    let at = parse_secs(element, "crash time", at_str)?;
    plan.job_faults.push(JobFault {
        job: JobId(id),
        at: SimTime::from_secs(at),
    });
    Ok(plan)
}

fn key_values(element: &str) -> impl Iterator<Item = (&str, &str)> {
    element
        .split(',')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
}

fn parse_mtbf(element: &str, n_cpus: usize, mut plan: FaultPlan) -> Result<FaultPlan, String> {
    let mut mtbf = None;
    let mut horizon = None;
    let mut repair = 0.0;
    let mut seed = 0u64;
    for (k, v) in key_values(element) {
        match k {
            "mtbf" => mtbf = Some(parse_secs(element, "mtbf", v)?),
            "horizon" => horizon = Some(parse_secs(element, "horizon", v)?),
            "repair" => repair = parse_secs(element, "repair", v)?,
            "seed" => {
                seed = v
                    .parse()
                    .map_err(|_| format!("{element:?}: seed expects an integer, got {v:?}"))?
            }
            other => return Err(format!("{element:?}: unknown mtbf field {other:?}")),
        }
    }
    let mtbf = mtbf
        .filter(|&m| m > 0.0)
        .ok_or_else(|| format!("{element:?}: mtbf=<secs> must be present and positive"))?;
    let horizon = horizon
        .filter(|&h| h > 0.0)
        .ok_or_else(|| format!("{element:?}: horizon=<secs> must be present and positive"))?;
    if !(horizon + repair).is_finite() {
        return Err(format!("{element:?}: horizon plus repair must be finite"));
    }
    // Each CPU fails about once per repair cycle (once at most without
    // repair). Refuse what would not fit before sampling any of it; the
    // sampler's own limit catches an unlucky draw past the estimate.
    let room = MAX_PLAN_CPU_FAULTS.saturating_sub(plan.cpu_faults.len());
    let per_cpu = if repair > 0.0 {
        horizon / (mtbf + repair) + 1.0
    } else {
        1.0
    };
    let expected = n_cpus as f64 * per_cpu;
    if expected > room as f64 {
        return Err(format!(
            "{element:?}: about {expected:.0} CPU faults expected, more than the {room} \
             left of a plan's {MAX_PLAN_CPU_FAULTS}"
        ));
    }
    if !plan.sample_mtbf(mtbf, horizon, repair, n_cpus, seed, MAX_PLAN_CPU_FAULTS) {
        return Err(format!(
            "{element:?}: sampled more than the {room} CPU faults left of a plan's \
             {MAX_PLAN_CPU_FAULTS}"
        ));
    }
    Ok(plan)
}

fn parse_retry(element: &str, mut plan: FaultPlan) -> Result<FaultPlan, String> {
    let mut retry = RetryPolicy::default();
    for (k, v) in key_values(element) {
        match k {
            "retry" => {
                retry.max_retries = v
                    .parse()
                    .map_err(|_| format!("{element:?}: retry expects an integer, got {v:?}"))?
            }
            "backoff" => {
                retry.backoff_base = SimDuration::from_secs(parse_secs(element, "backoff", v)?)
            }
            "factor" => {
                let f: f64 = v
                    .parse()
                    .map_err(|_| format!("{element:?}: factor expects a number, got {v:?}"))?;
                if !f.is_finite() || f < 1.0 {
                    return Err(format!("{element:?}: factor must be at least 1"));
                }
                retry.backoff_factor = f;
            }
            other => return Err(format!("{element:?}: unknown retry field {other:?}")),
        }
    }
    plan.retry = Some(retry);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.retry.is_none());
        assert_eq!(FaultPlan::parse("", 60).unwrap(), plan);
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::none()
            .fail_cpu_at(CpuId(3), 100.0)
            .fail_cpu_between(CpuId(5), 50.0, 250.0)
            .fail_job_at(JobId(2), 75.0)
            .with_retry(RetryPolicy::default());
        assert_eq!(plan.cpu_faults.len(), 2);
        assert_eq!(plan.job_faults.len(), 1);
        assert_eq!(
            plan.cpu_faults[1].recover_at,
            Some(SimTime::from_secs(250.0))
        );
        assert!(plan.retry.is_some());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_retries: 3,
            backoff_base: SimDuration::from_secs(10.0),
            backoff_factor: 2.0,
        };
        assert_eq!(r.backoff_for(1).as_secs(), 10.0);
        assert_eq!(r.backoff_for(2).as_secs(), 20.0);
        assert_eq!(r.backoff_for(3).as_secs(), 40.0);
    }

    #[test]
    fn mtbf_is_deterministic_and_bounded() {
        let a = FaultPlan::none().mtbf(500.0, 1000.0, 16, 7);
        let b = FaultPlan::none().mtbf(500.0, 1000.0, 16, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty(), "16 CPUs over 2 MTBFs should see failures");
        for f in &a.cpu_faults {
            assert!(f.at.as_secs() < 1000.0);
            assert!(f.recover_at.is_none());
            assert!(f.cpu.index() < 16);
        }
        let c = FaultPlan::none().mtbf(500.0, 1000.0, 16, 8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn mtbf_with_repair_recovers_and_can_refail() {
        let plan = FaultPlan::none().mtbf_with_repair(100.0, 2000.0, 50.0, 4, 3);
        assert!(!plan.is_empty());
        for f in &plan.cpu_faults {
            let r = f.recover_at.expect("repairing plan always recovers");
            assert!((r.since(f.at).as_secs() - 50.0).abs() < 1e-9);
        }
        // With MTBF far below the horizon some CPU fails more than once.
        let per_cpu_max = (0..4u16)
            .map(|c| plan.cpu_faults.iter().filter(|f| f.cpu == CpuId(c)).count())
            .max()
            .unwrap();
        assert!(per_cpu_max > 1, "expected repeat failures, got {plan:?}");
    }

    #[test]
    fn parse_targeted_elements() {
        let plan = FaultPlan::parse("cpu3@100:recover@400; job2@250 ;cpu7@10", 60).unwrap();
        assert_eq!(plan.cpu_faults.len(), 2);
        assert_eq!(plan.cpu_faults[0].cpu, CpuId(3));
        assert_eq!(
            plan.cpu_faults[0].recover_at,
            Some(SimTime::from_secs(400.0))
        );
        assert_eq!(plan.cpu_faults[1].recover_at, None);
        assert_eq!(
            plan.job_faults,
            vec![JobFault {
                job: JobId(2),
                at: SimTime::from_secs(250.0)
            }]
        );
    }

    #[test]
    fn parse_mtbf_and_retry() {
        let plan = FaultPlan::parse(
            "mtbf=400,horizon=1000,repair=150,seed=7;retry=2,backoff=30",
            8,
        )
        .unwrap();
        assert!(!plan.cpu_faults.is_empty());
        let retry = plan.retry.unwrap();
        assert_eq!(retry.max_retries, 2);
        assert_eq!(retry.backoff_base.as_secs(), 30.0);
        assert_eq!(retry.backoff_factor, 2.0);
        // Same string parses to the same plan (determinism end to end).
        let again = FaultPlan::parse(
            "mtbf=400,horizon=1000,repair=150,seed=7;retry=2,backoff=30",
            8,
        )
        .unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_diagnostics_name_the_element() {
        for (input, needle) in [
            ("cpu99@10", "out of range"),
            ("cpu3", "expected cpu<N>@<secs>"),
            ("cpuX@10", "bad CPU id"),
            ("cpu3@-5", "non-negative"),
            ("cpu3@100:recover@50", "recovery must follow"),
            ("jobX@10", "bad job id"),
            ("mtbf=0,horizon=10", "positive"),
            ("mtbf=10", "horizon"),
            ("retry=1,factor=0.5", "at least 1"),
            ("frob", "unknown fault element"),
            ("mtbf=5,horizon=10,bogus=1", "unknown mtbf field"),
        ] {
            let err = FaultPlan::parse(input, 60).unwrap_err();
            assert!(err.contains(needle), "{input:?} -> {err:?}");
        }
    }

    #[test]
    fn mtbf_elements_past_the_fault_bound_are_rejected() {
        // About 10^21 repair cycles per CPU, and cycles so short that
        // `t + repair + draw` rounds back onto `t`: the sampler would never
        // finish.
        for input in [
            "mtbf=1e-6,horizon=1e15,repair=1e-6",
            "cpu1@5;mtbf=1,horizon=2000000,repair=1",
            "mtbf=1e300,horizon=1e308,repair=1e308",
        ] {
            let err = FaultPlan::parse(input, 60).unwrap_err();
            let element = input.rsplit(';').next().unwrap();
            assert!(
                err.starts_with(&format!("{element:?}: ")),
                "{input:?} -> {err:?}"
            );
        }
        // Inside the bound: 60 CPUs with about 1,430 cycles each.
        let plan = FaultPlan::parse("mtbf=1,horizon=100000,repair=69", 60).unwrap();
        assert!(plan.cpu_faults.len() <= MAX_PLAN_CPU_FAULTS);
        assert!(plan.cpu_faults.len() > 60_000, "{}", plan.cpu_faults.len());
        // The bound counts the faults already in the plan.
        let err = FaultPlan::parse(
            "mtbf=1,horizon=100000,repair=59;mtbf=1,horizon=100000,repair=59",
            60,
        )
        .unwrap_err();
        assert!(err.contains("left of a plan's"), "{err}");
    }

    #[test]
    fn the_sampler_stops_at_its_limit() {
        let mut plan = FaultPlan::none();
        assert!(!plan.sample_mtbf(1.0, 1000.0, 1.0, 4, 3, 10));
        assert_eq!(plan.cpu_faults.len(), 10);
        let mut plan = FaultPlan::none();
        assert!(plan.sample_mtbf(1.0, 1000.0, 1.0, 4, 3, usize::MAX));
        assert!(plan.cpu_faults.len() > 10);
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::parse(
            "cpu3@100:recover@400;cpu7@10;job2@250;retry=3,backoff=15,factor=1.5",
            60,
        )
        .unwrap();
        let reparsed = FaultPlan::parse(&plan.to_string(), 60).unwrap();
        assert_eq!(plan, reparsed);
    }
}
