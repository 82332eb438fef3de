//! Execution-view rendering (Fig. 5) and CSV export.
//!
//! [`render_ascii`] draws the Paraver view as text: one row per CPU (or per
//! group of CPUs), one column per time bucket, one character per job. Idle
//! time renders as `.`. Jobs are lettered `a`–`z`, `A`–`Z`, then `#` — the
//! goal is exactly the paper's visual argument: under PDPA the picture shows
//! long solid blocks, under IRIX it is "chaotic".

use std::fmt::Write as _;

use pdpa_sim::CpuId;

use crate::record::Trace;

/// Options for [`render_ascii`].
#[derive(Clone, Copy, Debug)]
pub struct RenderOptions {
    /// Characters per row (time buckets).
    pub width: usize,
    /// Render every `cpu_stride`-th CPU (1 = all).
    pub cpu_stride: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width: 100,
            cpu_stride: 1,
        }
    }
}

/// The display character of a job.
fn job_char(job_index: usize) -> char {
    const LOWER: usize = 26;
    const UPPER: usize = 26;
    if job_index < LOWER {
        (b'a' + job_index as u8) as char
    } else if job_index < LOWER + UPPER {
        (b'A' + (job_index - LOWER) as u8) as char
    } else {
        '#'
    }
}

/// Renders the execution view as text. Each row is `cpuNN |` followed by
/// one character per time bucket: the job with the largest occupancy inside
/// the bucket, or `.` when the bucket is fully idle.
pub fn render_ascii(trace: &Trace, options: &RenderOptions) -> String {
    let width = options.width.max(1);
    let stride = options.cpu_stride.max(1);
    let horizon = trace.end.as_secs().max(f64::MIN_POSITIVE);
    let bucket = horizon / width as f64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "time: 0 .. {:.1}s  ({:.2}s per column, '.' = idle)",
        horizon, bucket
    );
    for cpu in (0..trace.n_cpus).step_by(stride) {
        // Occupancy per bucket: seconds of each job inside the bucket.
        let mut row = vec![('.', 0.0f64); width];
        for r in trace.bursts_of(CpuId(cpu as u16)) {
            let first = ((r.start.as_secs() / bucket) as usize).min(width - 1);
            let last = ((r.end.as_secs() / bucket) as usize).min(width - 1);
            for (b, cell) in row.iter_mut().enumerate().take(last + 1).skip(first) {
                let b_start = b as f64 * bucket;
                let b_end = b_start + bucket;
                let overlap =
                    (r.end.as_secs().min(b_end) - r.start.as_secs().max(b_start)).max(0.0);
                if overlap > cell.1 {
                    *cell = (job_char(r.job.index()), overlap);
                }
            }
        }
        let _ = write!(out, "cpu{cpu:<3}|");
        for (ch, _) in row {
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Exports the trace as CSV: `cpu,job,start_secs,end_secs`.
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::from("cpu,job,start_secs,end_secs\n");
    for r in &trace.records {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6}",
            r.cpu.index(),
            r.job.index(),
            r.start.as_secs(),
            r.end.as_secs()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceObserver;
    use pdpa_sim::{JobId, SimTime};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_trace() -> Trace {
        let mut c = TraceObserver::new(2);
        c.assign(CpuId(0), Some(JobId(0)), t(0.0));
        c.assign(CpuId(0), Some(JobId(1)), t(50.0));
        c.assign(CpuId(1), Some(JobId(0)), t(25.0));
        c.assign(CpuId(1), None, t(75.0));
        c.into_trace(t(100.0))
    }

    #[test]
    fn ascii_shape() {
        let trace = sample_trace();
        let s = render_ascii(
            &trace,
            &RenderOptions {
                width: 10,
                cpu_stride: 1,
            },
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 cpus");
        // CPU 0: first half job a, second half job b.
        assert!(lines[1].contains("aaaaabbbbb"), "got {:?}", lines[1]);
        // CPU 1: idle, then job a (25–75 s touches buckets 2..=7), idle.
        assert!(lines[2].contains("..aaaaaa.."), "got {:?}", lines[2]);
    }

    #[test]
    fn stride_skips_cpus() {
        let trace = sample_trace();
        let s = render_ascii(
            &trace,
            &RenderOptions {
                width: 10,
                cpu_stride: 2,
            },
        );
        assert_eq!(s.lines().count(), 2, "header + cpu0 only");
    }

    #[test]
    fn job_letters_wrap() {
        assert_eq!(job_char(0), 'a');
        assert_eq!(job_char(25), 'z');
        assert_eq!(job_char(26), 'A');
        assert_eq!(job_char(51), 'Z');
        assert_eq!(job_char(52), '#');
    }

    #[test]
    fn csv_round_shape() {
        let trace = sample_trace();
        let csv = to_csv(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cpu,job,start_secs,end_secs");
        assert_eq!(lines.len(), 1 + trace.records.len());
        assert!(lines[1].starts_with("0,0,0.000000,50.000000"));
    }
}
