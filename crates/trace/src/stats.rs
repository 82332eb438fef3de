//! Burst and migration statistics (Table 2).

use crate::record::Trace;

/// The Table-2 statistics of one traced run: migrations, average burst
/// duration per CPU, and average number of bursts per CPU.
///
/// # Examples
///
/// ```
/// use pdpa_sim::{CpuId, JobId, SimTime};
/// use pdpa_trace::{BurstStats, TraceObserver};
///
/// let mut tracer = TraceObserver::new(2);
/// tracer.assign(CpuId(0), Some(JobId(1)), SimTime::ZERO);
/// let trace = tracer.into_trace(SimTime::from_secs(10.0));
/// let stats = BurstStats::from_trace(&trace, 0);
/// assert_eq!(stats.total_bursts, 1);
/// assert_eq!(stats.avg_burst_secs, 10.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstStats {
    /// Total thread migrations during the run (supplied by the execution
    /// model — the machine's migration counter under space sharing, the
    /// per-quantum placement model under time sharing).
    pub migrations: u64,
    /// Mean burst duration in seconds, over all bursts.
    pub avg_burst_secs: f64,
    /// Mean number of bursts per CPU.
    pub avg_bursts_per_cpu: f64,
    /// Total bursts in the trace.
    pub total_bursts: usize,
}

impl BurstStats {
    /// Computes burst statistics from a finished trace, attaching the
    /// externally counted `migrations`.
    pub fn from_trace(trace: &Trace, migrations: u64) -> Self {
        let total_bursts = trace.records.len();
        let total_secs: f64 = trace.records.iter().map(|r| r.duration_secs()).sum();
        let avg_burst_secs = if total_bursts == 0 {
            0.0
        } else {
            total_secs / total_bursts as f64
        };
        let avg_bursts_per_cpu = if trace.n_cpus == 0 {
            0.0
        } else {
            total_bursts as f64 / trace.n_cpus as f64
        };
        BurstStats {
            migrations,
            avg_burst_secs,
            avg_bursts_per_cpu,
            total_bursts,
        }
    }

    /// Formats the stats as a Table-2 row: `migrations | avg burst (ms) |
    /// avg bursts/cpu`.
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{:<8} {:>12} {:>18.0} {:>16.0}",
            label,
            self.migrations,
            self.avg_burst_secs * 1_000.0,
            self.avg_bursts_per_cpu
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceObserver;
    use pdpa_sim::{CpuId, JobId, SimTime};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn stats_from_simple_trace() {
        let mut c = TraceObserver::new(2);
        c.assign(CpuId(0), Some(JobId(1)), t(0.0));
        c.assign(CpuId(0), Some(JobId(2)), t(4.0));
        c.assign(CpuId(1), Some(JobId(1)), t(0.0));
        let trace = c.into_trace(t(10.0));
        let s = BurstStats::from_trace(&trace, 7);
        assert_eq!(s.total_bursts, 3);
        assert_eq!(s.migrations, 7);
        // Bursts: 4 s, 6 s, 10 s → mean 20/3.
        assert!((s.avg_burst_secs - 20.0 / 3.0).abs() < 1e-12);
        assert!((s.avg_bursts_per_cpu - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zeroes() {
        let trace = TraceObserver::new(4).into_trace(t(1.0));
        let s = BurstStats::from_trace(&trace, 0);
        assert_eq!(s.total_bursts, 0);
        assert_eq!(s.avg_burst_secs, 0.0);
        assert_eq!(s.avg_bursts_per_cpu, 0.0);
    }

    #[test]
    fn table_row_contains_fields() {
        let s = BurstStats {
            migrations: 66,
            avg_burst_secs: 10.782,
            avg_bursts_per_cpu: 41.0,
            total_bursts: 2460,
        };
        let row = s.table_row("PDPA");
        assert!(row.contains("PDPA"));
        assert!(row.contains("66"));
        assert!(row.contains("10782"));
        assert!(row.contains("41"));
    }
}
