//! Poisson workload generation.
//!
//! "We generated workloads where applications are submitted to the system
//! following a Poison interarrival function during 300 seconds. These
//! workloads had an estimated processor demand of 60 percent, 80 percent,
//! and 100 percent of the total capacity of the system" (§5).
//!
//! *Demand* is defined as the sequential CPU-work submitted divided by the
//! machine capacity over the submission window: a workload at load `L`
//! submits `L × cpus × duration` CPU-seconds of work in expectation. Each
//! application class contributes its Table-1 share of that work, which
//! fixes its arrival rate; arrivals are then a Poisson process per class,
//! merged and sorted.
//!
//! # Example
//!
//! Generate a small all-swim workload at 80% demand and check the demand
//! math: expected job count = `load × cpus × duration / seq_work`, where
//! swim's sequential work is 50 iterations × 4 s = 200 CPU-seconds.
//!
//! ```
//! use pdpa_apps::AppClass;
//! use pdpa_qs::{generate, GeneratorConfig};
//!
//! let config = GeneratorConfig {
//!     composition: vec![(AppClass::Swim, 1.0)],
//!     load: 0.8,
//!     cpus: 60,
//!     duration_secs: 300.0,
//!     tuned: true,
//! };
//! config.validate().expect("valid configuration");
//!
//! let jobs = generate(&config, 42);
//! let expected = 0.8 * 60.0 * 300.0 / 200.0; // = 72 jobs
//! assert!((jobs.len() as f64 - expected).abs() < 0.5 * expected,
//!         "got {} jobs, expected about {expected:.0}", jobs.len());
//! // Submissions are sorted and fall inside the window.
//! assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
//! assert!(jobs.iter().all(|j| j.submit.as_secs() < 300.0));
//! // Same seed, same workload.
//! assert_eq!(jobs.len(), generate(&config, 42).len());
//! ```

use pdpa_apps::{paper_app, AppClass, ApplicationSpec};
use pdpa_sim::{SimRng, SimTime};

use crate::job::JobSpec;

/// Parameters of one generated workload.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// `(class, share)` pairs; shares must sum to 1.
    pub composition: Vec<(AppClass, f64)>,
    /// Demand as a fraction of machine capacity (0.6, 0.8, 1.0 in the
    /// paper).
    pub load: f64,
    /// Machine size in processors (60 in the paper).
    pub cpus: usize,
    /// Submission window in seconds (300 in the paper).
    pub duration_secs: f64,
    /// Use the tuned processor requests (apsi asks for 2) or the untuned
    /// ones (everything asks for 30).
    pub tuned: bool,
}

impl GeneratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.composition.is_empty() {
            return Err("composition is empty".to_owned());
        }
        let total: f64 = self.composition.iter().map(|&(_, s)| s).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("composition shares sum to {total}, not 1"));
        }
        if self.composition.iter().any(|&(_, s)| s <= 0.0) {
            return Err("composition shares must be positive".to_owned());
        }
        if !(self.load > 0.0 && self.load <= 2.0) {
            return Err(format!("load {} out of range (0, 2]", self.load));
        }
        if self.cpus == 0 {
            return Err("machine needs processors".to_owned());
        }
        if self.duration_secs.is_nan() || self.duration_secs <= 0.0 {
            return Err("duration must be positive".to_owned());
        }
        Ok(())
    }
}

/// The application spec for a class under this configuration's tuning.
fn app_for(class: AppClass, tuned: bool) -> ApplicationSpec {
    let app = paper_app(class);
    if tuned {
        app
    } else {
        let req = class.untuned_request();
        app.with_request(req)
    }
}

/// Generates a workload: Poisson arrivals per class over the submission
/// window, sorted by submission time. Deterministic for a given seed.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`GeneratorConfig::validate`]).
pub fn generate(config: &GeneratorConfig, seed: u64) -> Vec<JobSpec> {
    config.validate().expect("invalid generator configuration");
    let mut rng = SimRng::new(seed);
    let total_work = config.load * config.cpus as f64 * config.duration_secs;

    let mut jobs = Vec::new();
    for &(class, share) in &config.composition {
        let app = app_for(class, config.tuned);
        let seq_work = app.total_seq_time().as_secs();
        // Expected number of instances of this class.
        let expected = share * total_work / seq_work;
        let mean_gap = config.duration_secs / expected;
        let mut stream = rng.fork(class as u64 + 1);
        let mut t = stream.exponential(mean_gap);
        while t < config.duration_secs {
            jobs.push(JobSpec::new(SimTime::from_secs(t), app.clone()));
            t += stream.exponential(mean_gap);
        }
    }
    jobs.sort_by_key(|a| a.submit);
    jobs
}

/// Generates a workload with **exactly** `n_jobs` jobs at the requested
/// demand.
///
/// The open-ended Poisson process in [`generate`] only hits a target count
/// in expectation; benchmark harnesses that promise "a 1M-job trace" need
/// the count to be exact. This variant conditions the same process on its
/// count:
///
/// - each class receives the fraction of the jobs that [`generate`]
///   expects of it — its share of the *work* divided by its sequential
///   work per job — with largest remainders resolving the rounding;
/// - the submission window is derived from `load`: the jobs' total
///   sequential work over `load × cpus`, so the trace's demand is `load`;
/// - submissions are i.i.d. uniform draws over that window, the
///   conditional distribution of a Poisson process given its event count.
///
/// Deterministic for a given seed.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`GeneratorConfig::validate`]) or `n_jobs` is zero. `duration_secs` is
/// ignored (the count and the load fix the window).
pub fn generate_exact(config: &GeneratorConfig, seed: u64, n_jobs: usize) -> Vec<JobSpec> {
    config.validate().expect("invalid generator configuration");
    assert!(n_jobs > 0, "n_jobs must be positive");
    let mut rng = SimRng::new(seed);

    // `generate` expects `share × total_work / seq_work` jobs of a class,
    // so its job fractions are proportional to `share / seq_work`.
    let apps: Vec<(AppClass, ApplicationSpec)> = config
        .composition
        .iter()
        .map(|&(class, _)| (class, app_for(class, config.tuned)))
        .collect();
    let weights: Vec<f64> = config
        .composition
        .iter()
        .zip(&apps)
        .map(|(&(_, share), (_, app))| share / app.total_seq_time().as_secs())
        .collect();
    let total_weight: f64 = weights.iter().sum();

    // Apportion n_jobs across classes by those fractions, largest
    // remainder first.
    let mut counts: Vec<(usize, f64)> = weights
        .iter()
        .map(|w| {
            let exact = w / total_weight * n_jobs as f64;
            (exact as usize, exact - exact.floor())
        })
        .collect();
    let assigned: usize = counts.iter().map(|&(c, _)| c).sum();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| counts[b].1.partial_cmp(&counts[a].1).unwrap());
    for &i in order.iter().cycle().take(n_jobs - assigned) {
        counts[i].0 += 1;
    }

    // The window over which this much work is `load` of the machine.
    let work: f64 = counts
        .iter()
        .zip(&apps)
        .map(|(&(count, _), (_, app))| count as f64 * app.total_seq_time().as_secs())
        .sum();
    let window = work / (config.load * config.cpus as f64);

    let mut jobs = Vec::with_capacity(n_jobs);
    for ((count, _), (class, app)) in counts.into_iter().zip(apps) {
        let mut stream = rng.fork(class as u64 + 1);
        for _ in 0..count {
            let t = stream.uniform(0.0, window);
            jobs.push(JobSpec::new(SimTime::from_secs(t), app.clone()));
        }
    }
    jobs.sort_by_key(|a| a.submit);
    debug_assert_eq!(jobs.len(), n_jobs);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(load: f64) -> GeneratorConfig {
        GeneratorConfig {
            composition: vec![(AppClass::Swim, 0.5), (AppClass::BtA, 0.5)],
            load,
            cpus: 60,
            duration_secs: 300.0,
            tuned: true,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&config(1.0), 42);
        let b = generate(&config(1.0), 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.app.class, y.app.class);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&config(1.0), 1);
        let b = generate(&config(1.0), 2);
        let same_len = a.len() == b.len();
        let same_times = same_len && a.iter().zip(&b).all(|(x, y)| x.submit == y.submit);
        assert!(!same_times, "seeds should decorrelate arrivals");
    }

    #[test]
    fn submissions_are_sorted_and_in_window() {
        let jobs = generate(&config(1.0), 7);
        for w in jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        for j in &jobs {
            assert!(j.submit.as_secs() < 300.0);
        }
    }

    #[test]
    fn demand_tracks_load_roughly() {
        // Average submitted CPU-work over many seeds should land near
        // load × cpus × duration.
        let cfg = config(0.8);
        let target = 0.8 * 60.0 * 300.0;
        let mut total = 0.0;
        let n_seeds = 40;
        for seed in 0..n_seeds {
            let jobs = generate(&cfg, seed);
            total += jobs
                .iter()
                .map(|j| j.app.total_seq_time().as_secs())
                .sum::<f64>();
        }
        let mean = total / n_seeds as f64;
        let rel_err = (mean - target).abs() / target;
        assert!(rel_err < 0.15, "mean demand {mean} vs target {target}");
    }

    #[test]
    fn composition_shares_hold_roughly() {
        let cfg = config(1.0);
        let mut swim_work = 0.0;
        let mut bt_work = 0.0;
        for seed in 0..40 {
            for j in generate(&cfg, seed) {
                let w = j.app.total_seq_time().as_secs();
                match j.app.class {
                    AppClass::Swim => swim_work += w,
                    AppClass::BtA => bt_work += w,
                    _ => unreachable!(),
                }
            }
        }
        let frac = swim_work / (swim_work + bt_work);
        assert!((frac - 0.5).abs() < 0.1, "swim share {frac}");
    }

    #[test]
    fn untuned_requests_are_thirty() {
        let cfg = GeneratorConfig {
            composition: vec![(AppClass::Apsi, 1.0)],
            load: 0.6,
            cpus: 60,
            duration_secs: 300.0,
            tuned: false,
        };
        let jobs = generate(&cfg, 3);
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| j.app.request == 30));
    }

    #[test]
    fn tuned_requests_match_paper() {
        let cfg = GeneratorConfig {
            composition: vec![(AppClass::Apsi, 1.0)],
            load: 0.6,
            cpus: 60,
            duration_secs: 300.0,
            tuned: true,
        };
        let jobs = generate(&cfg, 3);
        assert!(jobs.iter().all(|j| j.app.request == 2));
    }

    /// Sequential work of all jobs over their machine capacity and
    /// submission window.
    fn demand_of(jobs: &[JobSpec]) -> f64 {
        let records = crate::swf::parse_swf_trace(&crate::swf::write_swf(jobs))
            .expect("round trip")
            .records;
        crate::shape::demand(&records, 60)
    }

    #[test]
    fn exact_count_is_exact() {
        for n in [1, 7, 100, 1234] {
            let jobs = generate_exact(&config(1.0), 42, n);
            assert_eq!(jobs.len(), n);
            assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        }
    }

    #[test]
    fn exact_count_is_deterministic() {
        let a = generate_exact(&config(0.8), 7, 500);
        let b = generate_exact(&config(0.8), 7, 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.app.class, y.app.class);
        }
        let c = generate_exact(&config(0.8), 8, 500);
        assert!(a.iter().zip(&c).any(|(x, y)| x.submit != y.submit));
    }

    #[test]
    fn exact_count_splits_jobs_by_work_share() {
        // Equal work shares: the class with half the sequential work per
        // job gets twice the jobs, exactly as `generate` expects them.
        let jobs = generate_exact(&config(1.0), 3, 1000);
        let swim = jobs
            .iter()
            .filter(|j| j.app.class == AppClass::Swim)
            .count() as f64;
        let swim_work = paper_app(AppClass::Swim).total_seq_time().as_secs();
        let bt_work = paper_app(AppClass::BtA).total_seq_time().as_secs();
        let expected = 1000.0 * (0.5 / swim_work) / (0.5 / swim_work + 0.5 / bt_work);
        assert!(
            (swim - expected).abs() <= 1.0,
            "{swim} swim jobs, expected {expected:.1}"
        );
    }

    #[test]
    fn exact_count_hits_the_requested_demand() {
        // The window follows from the load: the drawn work over the
        // window is `load` of the machine.
        for load in [0.6, 1.0] {
            let jobs = generate_exact(&config(load), 11, 5000);
            let work: f64 = jobs.iter().map(|j| j.app.total_seq_time().as_secs()).sum();
            let last = jobs.last().unwrap().submit.as_secs();
            let window = work / (load * 60.0);
            assert!(
                last < window && last > 0.99 * window,
                "last submit {last} of {window}"
            );
            let demand = demand_of(&jobs);
            assert!(
                (demand - load).abs() < 0.01 * load,
                "demand {demand} at load {load}"
            );
        }
    }

    #[test]
    fn exact_count_and_poisson_traces_agree_on_demand() {
        // The same load through `--jobs` and through the Poisson process:
        // `shape::demand` agrees within 5 % (the count-split bug put the
        // exact trace at about 2.6× the Poisson one on w4).
        for (workload, load) in [
            (crate::Workload::W4, 1.0),
            (crate::Workload::W4, 0.6),
            (crate::Workload::W2, 0.8),
        ] {
            let cfg = GeneratorConfig {
                composition: workload.composition(),
                load,
                cpus: 60,
                duration_secs: 60_000.0,
                tuned: true,
            };
            let poisson = generate(&cfg, 5);
            let exact = generate_exact(&cfg, 5, poisson.len());
            let (p, e) = (demand_of(&poisson), demand_of(&exact));
            assert!(
                (e - p).abs() <= 0.05 * p,
                "{workload:?} at {load}: --jobs demand {e:.3} vs Poisson {p:.3}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "n_jobs")]
    fn exact_count_rejects_zero() {
        let _ = generate_exact(&config(1.0), 3, 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = config(1.0);
        c.composition[0].1 = 0.7; // sums to 1.2
        assert!(c.validate().is_err());
        let mut c = config(1.0);
        c.load = 0.0;
        assert!(c.validate().is_err());
        let mut c = config(1.0);
        c.composition.clear();
        assert!(c.validate().is_err());
    }
}
