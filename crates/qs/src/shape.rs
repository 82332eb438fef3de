//! Trace-shaping transforms: turn an arbitrary SWF trace into a workload
//! the engine can replay on a machine of any size, at any target demand.
//!
//! Published supercomputer logs differ from the paper's workloads in three
//! ways: they span weeks rather than 300 seconds, they were recorded on
//! machines of a different size, and their executable numbers do not map
//! to the paper's four applications. The transforms here bridge each gap:
//!
//! 1. [`slice_window`] — keep one time window of the trace, rebased to 0;
//! 2. [`remap_machine`] — rescale requested processor counts from the
//!    recorded machine size to the target machine;
//! 3. [`rescale_load`] — stretch or compress interarrival gaps so the
//!    submitted demand matches a target fraction of machine capacity
//!    (demand = sequential CPU-work / (cpus × submission span), the same
//!    definition the Poisson generator uses);
//! 4. [`jobs_from_records`] — materialize [`JobSpec`]s: known executable
//!    numbers (1–4) keep their calibrated paper applications; unknown
//!    executables get a deterministic fallback speedup curve from
//!    `pdpa-apps`, with iteration counts rescaled to match the record's
//!    measured CPU work when the trace carries one.
//!
//! Transforms operate on [`SwfRecord`]s so they compose in any order;
//! materialization is the last step.

use pdpa_apps::{paper_app, AppClass, ApplicationSpec};
use pdpa_sim::{SimDuration, SimTime};

use crate::job::JobSpec;
use crate::swf::SwfRecord;

/// Keeps the records submitted inside `[from, to)` seconds and rebases
/// their submit times so the window starts at 0. Record order is
/// preserved; outcome fields are untouched.
pub fn slice_window(records: &[SwfRecord], from: f64, to: f64) -> Vec<SwfRecord> {
    records
        .iter()
        .filter(|r| r.submit_secs >= from && r.submit_secs < to)
        .map(|r| {
            let mut r = r.clone();
            r.submit_secs -= from;
            r
        })
        .collect()
}

/// Rescales requested (and recorded allocated) processor counts from the
/// machine the trace was recorded on to a `to_cpus`-processor target,
/// clamping every request into `[1, to_cpus]`. With `from_cpus == to_cpus`
/// requests are only clamped.
pub fn remap_machine(records: &[SwfRecord], from_cpus: usize, to_cpus: usize) -> Vec<SwfRecord> {
    let ratio = if from_cpus > 0 {
        to_cpus as f64 / from_cpus as f64
    } else {
        1.0
    };
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if r.requested_procs > 0 {
                let scaled = (r.requested_procs as f64 * ratio).round() as i64;
                r.requested_procs = scaled.clamp(1, to_cpus as i64);
            }
            if r.allocated_procs > 0.0 {
                r.allocated_procs = (r.allocated_procs * ratio).clamp(1.0, to_cpus as f64);
            }
            r
        })
        .collect()
}

/// The trace's intrinsic demand: sequential CPU-work per machine
/// CPU-second over the submission span. Records without a usable work
/// estimate contribute the calibrated paper work of their (inferred)
/// class. Returns 0 for empty or zero-span traces.
pub fn demand(records: &[SwfRecord], cpus: usize) -> f64 {
    if records.is_empty() || cpus == 0 {
        return 0.0;
    }
    let span = records
        .iter()
        .map(|r| r.submit_secs)
        .fold(f64::NEG_INFINITY, f64::max)
        - records
            .iter()
            .map(|r| r.submit_secs)
            .fold(f64::INFINITY, f64::min);
    if span <= 0.0 {
        return 0.0;
    }
    let work: f64 = records.iter().map(record_seq_work).sum();
    work / (cpus as f64 * span)
}

/// Stretches or compresses every interarrival gap by one constant factor
/// so the trace's demand on a `cpus`-processor machine becomes
/// `target_load`. Job work is untouched — only submission instants move.
/// Traces whose demand cannot be computed (empty, single-instant, or work
/// that overflows) and traces whose last instant would overflow are
/// returned unchanged.
pub fn rescale_load(records: &[SwfRecord], target_load: f64, cpus: usize) -> Vec<SwfRecord> {
    let current = demand(records, cpus);
    if current <= 0.0 || target_load <= 0.0 {
        return records.to_vec();
    }
    // Demand ∝ 1/span: to raise demand to the target, shrink the span by
    // current/target (and vice versa).
    let factor = current / target_load;
    let origin = records
        .iter()
        .map(|r| r.submit_secs)
        .fold(f64::INFINITY, f64::min);
    let last = records
        .iter()
        .map(|r| r.submit_secs)
        .fold(f64::NEG_INFINITY, f64::max);
    if !(origin + (last - origin) * factor).is_finite() {
        return records.to_vec();
    }
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.submit_secs = origin + (r.submit_secs - origin) * factor;
            r
        })
        .collect()
}

/// The deterministic fallback class for an executable number outside the
/// paper's four applications: hash the executable (or, when unknown, the
/// job number) into the class table, so the same trace always maps to the
/// same mix of speedup curves.
pub fn fallback_class(record: &SwfRecord) -> AppClass {
    let key = if record.executable >= 0 {
        record.executable
    } else {
        record.job_number
    };
    AppClass::ALL[(key.unsigned_abs() as usize) % AppClass::ALL.len()]
}

/// The class a record replays as: its executable's paper application when
/// the number maps (1–4), else the deterministic fallback.
pub fn infer_class(record: &SwfRecord) -> AppClass {
    record.class().unwrap_or_else(|| fallback_class(record))
}

/// A record's sequential-work estimate: the measured `run × procs`
/// CPU-seconds when the trace carries outcomes, else the calibrated work
/// of its (inferred) class.
fn record_seq_work(record: &SwfRecord) -> f64 {
    record
        .cpu_work_estimate()
        .unwrap_or_else(|| paper_app(infer_class(record)).total_seq_time().as_secs())
}

/// Materializes shaped records into engine-ready jobs.
///
/// Class inference follows [`infer_class`]. For records whose executable
/// is *not* one of the paper's four applications but whose outcome fields
/// give a CPU-work estimate, the fallback application's iteration count is
/// rescaled so its sequential work matches the record — the replayed job
/// costs what the log says it cost, under the fallback speedup curve.
/// Positive requested-processor counts override the class default request.
/// Records are sorted by submission time (SWF logs usually are already).
pub fn jobs_from_records(records: &[SwfRecord]) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = records
        .iter()
        .map(|r| {
            let class = infer_class(r);
            let mut app = paper_app(class);
            if r.class().is_none() {
                if let Some(work) = r.cpu_work_estimate() {
                    app = scale_to_work(&app, work);
                }
            }
            if r.requested_procs > 0 {
                app = app.with_request(r.requested_procs as usize);
            }
            JobSpec::new(SimTime::from_secs(r.submit_secs.max(0.0)), app)
        })
        .collect();
    jobs.sort_by_key(|j| j.submit);
    jobs
}

/// The most iterations a replayed job can have.
const MAX_ITERATIONS: f64 = u32::MAX as f64;

/// True when `record`'s work estimate fits a replayed job. A record of an
/// executable outside the paper's four is rescaled to its estimated work
/// (see [`jobs_from_records`]), which must come to at most `u32::MAX`
/// iterations of its fallback application; the SWF reader rejects a
/// record that does not fit.
pub(crate) fn work_fits(record: &SwfRecord) -> bool {
    record.class().is_some()
        || record.cpu_work_estimate().is_none_or(|work| {
            let iter_secs = paper_app(fallback_class(record)).seq_iter_time.as_secs();
            (work / iter_secs).round() <= MAX_ITERATIONS
        })
}

/// Clones `app` with its iteration count rescaled so total sequential work
/// approximates `seq_work_secs` (at least one iteration). Work past
/// `u32::MAX` iterations, which only a machine remap can grow a record to
/// after the reader checked it, keeps its total by lengthening the
/// iterations instead of losing the excess.
fn scale_to_work(app: &ApplicationSpec, seq_work_secs: f64) -> ApplicationSpec {
    let mut iter_secs = app.seq_iter_time.as_secs();
    let mut iterations = (seq_work_secs / iter_secs).round();
    if iterations > MAX_ITERATIONS {
        iterations = MAX_ITERATIONS;
        iter_secs = seq_work_secs / MAX_ITERATIONS;
    }
    let iterations = (iterations as u32).max(1);
    ApplicationSpec::new(
        app.class,
        iterations,
        SimDuration::from_secs(iter_secs),
        app.request,
        app.speedup.clone(),
        app.measurement_overhead,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swf::parse_swf_trace;

    fn rec(job: i64, submit: f64, req: i64, exec: i64) -> SwfRecord {
        SwfRecord::parse_line(
            &format!("{job} {submit} -1 -1 -1 -1 -1 {req} -1 -1 -1 -1 -1 {exec} -1 -1 -1 -1"),
            1,
        )
        .unwrap()
    }

    #[test]
    fn window_slices_and_rebases() {
        let records = vec![rec(1, 10.0, 4, 1), rec(2, 50.0, 4, 2), rec(3, 90.0, 4, 3)];
        let sliced = slice_window(&records, 40.0, 90.0);
        assert_eq!(sliced.len(), 1);
        assert_eq!(sliced[0].job_number, 2);
        assert_eq!(sliced[0].submit_secs, 10.0);
        // [from, to): the upper bound is exclusive.
        assert!(slice_window(&records, 0.0, 10.0).is_empty());
        assert_eq!(slice_window(&records, 0.0, 1e9).len(), 3);
    }

    #[test]
    fn machine_remap_scales_and_clamps() {
        let records = vec![rec(1, 0.0, 128, 1), rec(2, 1.0, 2, 2), rec(3, 2.0, -1, 3)];
        let remapped = remap_machine(&records, 256, 64);
        assert_eq!(remapped[0].requested_procs, 32);
        assert_eq!(remapped[1].requested_procs, 1, "floor at one processor");
        assert_eq!(remapped[2].requested_procs, -1, "unknown stays unknown");
        // Same-size remap only clamps oversized requests.
        let clamped = remap_machine(&[rec(1, 0.0, 500, 1)], 60, 60);
        assert_eq!(clamped[0].requested_procs, 60);
    }

    #[test]
    fn load_rescaling_that_would_overflow_leaves_the_trace() {
        // Demand 0.7 rescaled to 1e-307 would stretch the span past
        // f64::MAX; an infinite demand has no finite factor at all.
        let records = vec![rec(1, 0.0, 30, 2), rec(2, 100.0, 30, 2)];
        assert_eq!(rescale_load(&records, 1e-307, 60), records);
        let mut huge = records.clone();
        huge[0].run_secs = f64::MAX;
        huge[0].allocated_procs = 2.0;
        assert!(demand(&huge, 60).is_infinite());
        assert_eq!(rescale_load(&huge, 1.0, 60), huge);
    }

    #[test]
    fn load_rescaling_hits_the_target_demand() {
        // Two bt.A jobs (2100 cpu-s each) over 100 s on 60 CPUs:
        // demand = 4200 / 6000 = 0.7.
        let records = vec![rec(1, 0.0, 30, 2), rec(2, 100.0, 30, 2)];
        assert!((demand(&records, 60) - 0.7).abs() < 1e-9);
        let rescaled = rescale_load(&records, 1.4, 60);
        assert!((demand(&rescaled, 60) - 1.4).abs() < 1e-9);
        assert!((rescaled[1].submit_secs - 50.0).abs() < 1e-9);
        // Downscaling stretches the window instead.
        let relaxed = rescale_load(&records, 0.35, 60);
        assert!((relaxed[1].submit_secs - 200.0).abs() < 1e-9);
        // Degenerate traces come back unchanged.
        assert_eq!(rescale_load(&[], 1.0, 60), vec![]);
        let single = vec![rec(1, 5.0, 4, 1)];
        assert_eq!(rescale_load(&single, 1.0, 60)[0].submit_secs, 5.0);
    }

    #[test]
    fn class_inference_maps_known_and_hashes_unknown() {
        assert_eq!(infer_class(&rec(1, 0.0, 4, 2)), AppClass::BtA);
        // Unknown executables hash deterministically into the table.
        let a = infer_class(&rec(1, 0.0, 4, 17));
        let b = infer_class(&rec(9, 3.0, 8, 17));
        assert_eq!(a, b, "same executable, same class");
        assert_eq!(a, AppClass::ALL[17 % 4]);
        // Missing executable falls back to the job number.
        assert_eq!(infer_class(&rec(6, 0.0, 4, -1)), AppClass::ALL[6 % 4]);
    }

    #[test]
    fn unknown_executables_with_outcomes_match_recorded_work() {
        // Executable 11 → fallback class; run 100 s on 8 procs → 800
        // cpu-s of sequential work.
        let line = "3 0.0 -1 100.0 8 -1 -1 8 -1 -1 1 -1 -1 11 -1 -1 -1 -1";
        let r = SwfRecord::parse_line(line, 1).unwrap();
        let jobs = jobs_from_records(&[r]);
        let work = jobs[0].app.total_seq_time().as_secs();
        let iter = jobs[0].app.seq_iter_time.as_secs();
        assert!(
            (work - 800.0).abs() <= iter,
            "seq work {work} should approximate 800 within one iteration"
        );
        assert_eq!(jobs[0].app.request, 8);
    }

    #[test]
    fn work_grown_past_the_iteration_bound_by_a_remap_keeps_its_total() {
        // The reader accepts 1e10 cpu-s on one processor of a 1-CPU trace
        // (4e9 iterations of 2.5 s); remapped to 60 CPUs it is 6e11 cpu-s,
        // which keeps its total in u32::MAX longer iterations.
        let line = "1 0.0 -1 1e10 1 -1 -1 1 -1 -1 1 -1 -1 7 -1 -1 -1 -1";
        let r = SwfRecord::parse_line(line, 1).unwrap();
        assert!(work_fits(&r));
        let remapped = remap_machine(&[r], 1, 60);
        assert!(!work_fits(&remapped[0]));
        let jobs = jobs_from_records(&remapped);
        assert_eq!(jobs[0].app.iterations, u32::MAX);
        let work = jobs[0].app.total_seq_time().as_secs();
        assert!((work / 6e11 - 1.0).abs() < 1e-9, "seq work {work}");
    }

    #[test]
    fn known_executables_keep_calibrated_applications() {
        // A known class keeps its paper iteration count even when the
        // record carries outcomes (determinism of the paper workloads).
        let line = "3 0.0 -1 100.0 8 -1 -1 16 -1 -1 1 -1 -1 2 -1 -1 -1 -1";
        let r = SwfRecord::parse_line(line, 1).unwrap();
        let jobs = jobs_from_records(&[r]);
        let paper = paper_app(AppClass::BtA);
        assert_eq!(
            jobs[0].app.total_seq_time(),
            paper.total_seq_time(),
            "calibrated work preserved"
        );
        assert_eq!(jobs[0].app.request, 16, "trace request wins");
    }

    #[test]
    fn materialized_jobs_are_sorted_and_nonnegative() {
        let records = vec![rec(2, 30.0, 4, 1), rec(1, 10.0, 4, 2), rec(3, -5.0, 4, 3)];
        let jobs = jobs_from_records(&records);
        assert_eq!(jobs.len(), 3);
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert_eq!(jobs[0].submit.as_secs(), 0.0, "negative submits clamp");
    }

    #[test]
    fn transforms_compose_over_a_parsed_trace() {
        let text = "; MaxNodes: 128\n\
                    1 0.0 -1 -1 -1 -1 -1 64 -1 -1 -1 -1 -1 2 -1 -1 -1 -1\n\
                    2 200.0 -1 -1 -1 -1 -1 64 -1 -1 -1 -1 -1 2 -1 -1 -1 -1\n\
                    3 900.0 -1 -1 -1 -1 -1 64 -1 -1 -1 -1 -1 2 -1 -1 -1 -1\n";
        let trace = parse_swf_trace(text).unwrap();
        let windowed = slice_window(&trace.records, 0.0, 500.0);
        let remapped = remap_machine(&windowed, trace.machine_size().unwrap(), 60);
        let shaped = rescale_load(&remapped, 1.0, 60);
        let jobs = jobs_from_records(&shaped);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].app.request, 30, "64/128 of a 60-CPU machine");
        assert!((demand(&shaped, 60) - 1.0).abs() < 1e-9);
    }
}
