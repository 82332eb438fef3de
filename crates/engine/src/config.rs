//! Engine configuration.

use pdpa_faults::FaultPlan;
use pdpa_perf::SelfAnalyzerConfig;
use pdpa_sim::CostModel;

/// Configuration of one workload execution.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Processors in the machine (the paper uses 60 of the Origin 2000's
    /// 64).
    pub cpus: usize,
    /// Reallocation cost model.
    pub cost: CostModel,
    /// Relative standard deviation of iteration-time measurement noise.
    pub noise_sigma: f64,
    /// SelfAnalyzer configuration applied to every application.
    pub analyzer: SelfAnalyzerConfig,
    /// RNG seed (noise, time-shared placement).
    pub seed: u64,
    /// Run the time-shared and gang quantum clock (per-quantum placement
    /// and rotation). Placement draws from the run's RNG, so this changes
    /// time-shared results. The CPU trace (Fig. 5 / Table 2) comes from a
    /// `pdpa_trace::TraceObserver` chained as the run's observer.
    pub collect_trace: bool,
    /// Safety bound on simulated time; the run aborts (with
    /// `completed_all = false`) if the workload has not drained by then.
    pub max_sim_secs: f64,
    /// Reset each application's SelfAnalyzer when it crosses a working-set
    /// change (§3.1: with compiler-inserted instrumentation "this situation
    /// could be avoided by resetting data"). Disable to reproduce the
    /// binary-only failure mode where stale baselines corrupt estimates.
    pub reset_analyzer_on_phase_change: bool,
    /// Scan the whole queue for an admissible job instead of only the FCFS
    /// head (EASY-style backfilling without reservations). The paper's
    /// NANOS QS is strict FCFS — backfilling mainly rescues *rigid*
    /// policies, whose head job can block the queue behind a large request.
    pub backfill: bool,
    /// Deterministic fault-injection schedule replayed alongside the
    /// workload (CPU failures/recoveries, job crashes, retry policy).
    /// Empty by default.
    pub faults: FaultPlan,
}

impl Default for EngineConfig {
    /// The paper's setup: 60 processors, Origin-2000 reallocation costs,
    /// 2 % measurement noise, default SelfAnalyzer, no quantum clock.
    fn default() -> Self {
        EngineConfig {
            cpus: 60,
            cost: CostModel::origin2000(),
            noise_sigma: 0.02,
            analyzer: SelfAnalyzerConfig::default(),
            seed: 0x5EED,
            collect_trace: false,
            max_sim_secs: 100_000.0,
            reset_analyzer_on_phase_change: true,
            backfill: false,
            faults: FaultPlan::none(),
        }
    }
}

impl EngineConfig {
    /// Runs the quantum clock, changing time-shared runs' RNG draws; the CPU
    /// trace comes from a chained `TraceObserver`.
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the machine size.
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self
    }

    /// Enables queue backfilling.
    pub fn with_backfill(mut self) -> Self {
        self.backfill = true;
        self
    }

    /// Attaches a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpus == 0 {
            return Err("machine needs processors".into());
        }
        if !(0.0..0.5).contains(&self.noise_sigma) {
            return Err(format!("noise sigma {} out of [0, 0.5)", self.noise_sigma));
        }
        if self.max_sim_secs.is_nan() || self.max_sim_secs <= 0.0 {
            return Err("max_sim_secs must be positive".into());
        }
        for f in &self.faults.cpu_faults {
            if f.cpu.index() >= self.cpus {
                return Err(format!(
                    "fault plan targets cpu {} but the machine has {}",
                    f.cpu.index(),
                    self.cpus
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.cpus, 60);
        assert!(!c.collect_trace);
        c.validate().unwrap();
    }

    #[test]
    fn builders() {
        let c = EngineConfig::default()
            .with_trace()
            .with_seed(7)
            .with_cpus(8);
        assert!(c.collect_trace);
        assert_eq!(c.seed, 7);
        assert_eq!(c.cpus, 8);
    }

    #[test]
    fn validation() {
        let c = EngineConfig {
            cpus: 0,
            ..EngineConfig::default()
        };
        assert!(c.validate().is_err());
        let c = EngineConfig {
            noise_sigma: 0.9,
            ..EngineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_plan_must_fit_the_machine() {
        use pdpa_sim::CpuId;
        let c = EngineConfig::default()
            .with_cpus(8)
            .with_faults(FaultPlan::none().fail_cpu_at(CpuId(8), 10.0));
        assert!(c.validate().is_err(), "cpu 8 does not exist on 8 CPUs");
        let c = EngineConfig::default()
            .with_cpus(8)
            .with_faults(FaultPlan::none().fail_cpu_at(CpuId(7), 10.0));
        c.validate().unwrap();
    }
}
