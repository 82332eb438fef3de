//! Standard Workload Format (SWF) trace files.
//!
//! The paper's workload trace files "follow the specification proposed by
//! Feitelson" (§5) — the Standard Workload Format: one line per job with 18
//! whitespace-separated fields, `-1` for unknown values, and `;` comment
//! lines. This module writes SWF and parses the **full 18-field record**
//! ([`SwfRecord`]), streaming line by line with line-number diagnostics so
//! multi-megabyte published logs (CRLF line endings and tab separators
//! included) can be replayed through the engine.
//!
//! | field | SWF meaning | `SwfRecord` field |
//! |---|---|---|
//! | 1 | job number | `job_number` |
//! | 2 | submit time (s) | `submit_secs` |
//! | 3 | wait time (s) | `wait_secs` |
//! | 4 | run time (s) | `run_secs` |
//! | 5 | allocated processors | `allocated_procs` |
//! | 6 | average CPU time used (s) | `avg_cpu_secs` |
//! | 7 | used memory (KB) | `used_memory_kb` |
//! | 8 | requested processors | `requested_procs` |
//! | 9 | requested time (s) | `requested_secs` |
//! | 10 | requested memory (KB) | `requested_memory_kb` |
//! | 11 | status (1 = completed) | `status` |
//! | 12 | user id | `user` |
//! | 13 | group id | `group` |
//! | 14 | executable (application) number | `executable` (1 = swim, 2 = bt.A, 3 = hydro2d, 4 = apsi) |
//! | 15 | queue number | `queue` |
//! | 16 | partition number | `partition` |
//! | 17 | preceding job number | `preceding_job` |
//! | 18 | think time from preceding job (s) | `think_secs` |
//!
//! Unknown values are `-1`, which is valid SWF.
//!
//! # Examples
//!
//! A workload round-trips through SWF text (the doctest the docs can't
//! drift from):
//!
//! ```
//! use pdpa_apps::paper::{apsi, swim};
//! use pdpa_qs::{swf, JobSpec};
//! use pdpa_sim::SimTime;
//!
//! let jobs = vec![
//!     JobSpec::new(SimTime::from_secs(0.0), swim()),
//!     JobSpec::new(SimTime::from_secs(12.5), apsi()),
//! ];
//! let text = swf::write_swf(&jobs);
//! let back = swf::parse_swf(&text).unwrap();
//! assert_eq!(back.len(), 2);
//! assert_eq!(back[0].app.class, jobs[0].app.class);
//! assert_eq!(back[1].submit, jobs[1].submit);
//! ```

use std::fmt;
use std::io::BufRead;

use pdpa_apps::{paper_app, AppClass};
use pdpa_sim::SimTime;

use crate::job::JobSpec;

/// Errors from SWF parsing, each carrying the 1-based line it came from.
#[derive(Clone, Debug, PartialEq)]
pub enum SwfError {
    /// A data line has fewer than 18 fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
        /// Fields actually present.
        got: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// 1-based SWF field number.
        field: usize,
    },
    /// A numeric field parsed as infinite or NaN (`inf`, `nan`, `1e999`).
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// 1-based SWF field number.
        field: usize,
    },
    /// The record's executable is outside the paper's four, and its work
    /// estimate would need more than `u32::MAX` iterations of the fallback
    /// application [`crate::shape::jobs_from_records`] rescales it to.
    WorkTooLarge {
        /// 1-based line number.
        line: usize,
        /// 1-based SWF field number: 4, the run time.
        field: usize,
    },
    /// The executable number does not map to a known application class.
    UnknownExecutable {
        /// 1-based line number.
        line: usize,
        /// The offending executable number.
        executable: i64,
    },
    /// The submit time is negative.
    NegativeSubmit {
        /// 1-based line number.
        line: usize,
    },
    /// The underlying reader failed mid-stream.
    Io {
        /// 1-based line number at which the read failed.
        line: usize,
        /// The I/O error, rendered.
        message: String,
    },
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwfError::TooFewFields { line, got } => {
                write!(f, "line {line}: expected 18 SWF fields, got {got}")
            }
            SwfError::BadNumber { line, field } => {
                write!(f, "line {line}: field {field} is not a number")
            }
            SwfError::NonFinite { line, field } => {
                write!(f, "line {line}: field {field} is not a finite number")
            }
            SwfError::WorkTooLarge { line, field } => write!(
                f,
                "line {line}: field {field} is too large: the job's work would need more than \
                 {} iterations",
                u32::MAX
            ),
            SwfError::UnknownExecutable { line, executable } => {
                write!(f, "line {line}: unknown executable number {executable}")
            }
            SwfError::NegativeSubmit { line } => {
                write!(f, "line {line}: negative submit time")
            }
            SwfError::Io { line, message } => {
                write!(f, "line {line}: read failed: {message}")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// One fully-parsed 18-field SWF record. Integer-valued fields keep the
/// standard's `-1 = unknown` convention; durations are `f64` seconds
/// because this repo's own logs carry fractional times.
#[derive(Clone, Debug, PartialEq)]
pub struct SwfRecord {
    /// Field 1: job number.
    pub job_number: i64,
    /// Field 2: submission instant, seconds from the trace origin.
    pub submit_secs: f64,
    /// Field 3: queue wait, seconds (`-1` unknown).
    pub wait_secs: f64,
    /// Field 4: run time, seconds (`-1` unknown).
    pub run_secs: f64,
    /// Field 5: processors actually allocated (may be fractional in logs
    /// written by [`write_swf_log`]; `-1` unknown).
    pub allocated_procs: f64,
    /// Field 6: average CPU time used per processor, seconds.
    pub avg_cpu_secs: f64,
    /// Field 7: used memory, kilobytes.
    pub used_memory_kb: f64,
    /// Field 8: requested processors (`-1` unknown).
    pub requested_procs: i64,
    /// Field 9: requested (estimated) run time, seconds.
    pub requested_secs: f64,
    /// Field 10: requested memory, kilobytes.
    pub requested_memory_kb: f64,
    /// Field 11: completion status (1 completed, 0 failed, `-1` unknown).
    pub status: i64,
    /// Field 12: user id.
    pub user: i64,
    /// Field 13: group id.
    pub group: i64,
    /// Field 14: executable (application) number.
    pub executable: i64,
    /// Field 15: queue number.
    pub queue: i64,
    /// Field 16: partition number.
    pub partition: i64,
    /// Field 17: preceding job number.
    pub preceding_job: i64,
    /// Field 18: think time from the preceding job, seconds.
    pub think_secs: f64,
}

impl SwfRecord {
    /// Parses one whitespace-separated data line (tabs and repeated spaces
    /// both count as separators; a trailing `\r` from CRLF logs is
    /// stripped). `line_no` is 1-based and only used for diagnostics.
    ///
    /// # Errors
    ///
    /// [`SwfError::TooFewFields`], [`SwfError::BadNumber`] or
    /// [`SwfError::NonFinite`] with the offending line and field.
    pub fn parse_line(line: &str, line_no: usize) -> Result<SwfRecord, SwfError> {
        let mut cur = FieldCursor {
            fields: line.split_whitespace(),
            line: line_no,
            got: 0,
        };
        let record = SwfRecord {
            job_number: cur.int()?,
            submit_secs: cur.num()?,
            wait_secs: cur.num()?,
            run_secs: cur.num()?,
            allocated_procs: cur.num()?,
            avg_cpu_secs: cur.num()?,
            used_memory_kb: cur.num()?,
            requested_procs: cur.int()?,
            requested_secs: cur.num()?,
            requested_memory_kb: cur.num()?,
            status: cur.int()?,
            user: cur.int()?,
            group: cur.int()?,
            executable: cur.int()?,
            queue: cur.int()?,
            partition: cur.int()?,
            preceding_job: cur.int()?,
            think_secs: cur.num()?,
        };
        Ok(record)
    }

    /// The application class of this record's executable number, when it
    /// maps to one of the paper's four applications.
    pub fn class(&self) -> Option<AppClass> {
        class_of_executable(self.executable)
    }

    /// The job's sequential-work estimate in CPU-seconds, when the record
    /// carries enough outcome data: run time × allocated (else requested)
    /// processors. `None` when neither duration nor width is known.
    pub fn cpu_work_estimate(&self) -> Option<f64> {
        if self.run_secs <= 0.0 {
            return None;
        }
        let procs = if self.allocated_procs > 0.0 {
            self.allocated_procs
        } else if self.requested_procs > 0 {
            self.requested_procs as f64
        } else {
            return None;
        };
        Some(self.run_secs * procs)
    }
}

/// Walks one data line's whitespace-separated fields with 1-based
/// line/field diagnostics.
struct FieldCursor<'a> {
    fields: std::str::SplitWhitespace<'a>,
    line: usize,
    got: usize,
}

impl FieldCursor<'_> {
    fn num(&mut self) -> Result<f64, SwfError> {
        let field = self.got + 1;
        let raw = self.fields.next().ok_or(SwfError::TooFewFields {
            line: self.line,
            got: self.got,
        })?;
        self.got += 1;
        let v = raw.parse::<f64>().map_err(|_| SwfError::BadNumber {
            line: self.line,
            field,
        })?;
        if !v.is_finite() {
            return Err(SwfError::NonFinite {
                line: self.line,
                field,
            });
        }
        Ok(v)
    }

    /// Integer fields tolerate float spellings ("2.0") — some published
    /// logs carry them — by truncation.
    fn int(&mut self) -> Result<i64, SwfError> {
        self.num().map(|v| v as i64)
    }
}

/// A parsed SWF document: header machine size (when declared) plus every
/// data record in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwfTrace {
    /// `; MaxProcs:` header value, when present.
    pub max_procs: Option<usize>,
    /// `; MaxNodes:` header value, when present.
    pub max_nodes: Option<usize>,
    /// Every data record, in file order.
    pub records: Vec<SwfRecord>,
}

impl SwfTrace {
    /// The machine size the trace was recorded on: `MaxProcs` when
    /// declared, else `MaxNodes`, else the largest positive processor
    /// count observed in the records.
    pub fn machine_size(&self) -> Option<usize> {
        self.max_procs.or(self.max_nodes).or_else(|| {
            self.records
                .iter()
                .map(|r| r.requested_procs.max(r.allocated_procs.ceil() as i64))
                .max()
                .filter(|&m| m > 0)
                .map(|m| m as usize)
        })
    }

    /// Submission span `(first, last)` in seconds, `None` when empty.
    pub fn submit_span(&self) -> Option<(f64, f64)> {
        let first = self
            .records
            .iter()
            .map(|r| r.submit_secs)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .records
            .iter()
            .map(|r| r.submit_secs)
            .fold(f64::NEG_INFINITY, f64::max);
        (!self.records.is_empty()).then_some((first, last))
    }
}

/// Parses a header comment directive like `; MaxNodes: 60`.
fn header_directive(comment: &str, key: &str) -> Option<usize> {
    let rest = comment
        .trim_start_matches(';')
        .trim_start()
        .strip_prefix(key)?;
    rest.trim_start().strip_prefix(':')?.trim().parse().ok()
}

/// Streams an SWF document from any reader, line by line, without holding
/// the raw text in memory — the path for multi-megabyte published logs.
/// Comment (`;`) and blank lines are skipped; `MaxProcs`/`MaxNodes`
/// header directives are captured.
///
/// # Errors
///
/// The first malformed line aborts the parse with its line number, as
/// does a record whose work estimate no replayed job can hold
/// ([`SwfError::WorkTooLarge`]); reader failures surface as
/// [`SwfError::Io`].
pub fn read_swf(reader: impl BufRead) -> Result<SwfTrace, SwfError> {
    let mut trace = SwfTrace::default();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let raw = line.map_err(|e| SwfError::Io {
            line: line_no,
            message: e.to_string(),
        })?;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix(';') {
            if let Some(n) = header_directive(comment, "MaxProcs") {
                trace.max_procs.get_or_insert(n);
            }
            if let Some(n) = header_directive(comment, "MaxNodes") {
                trace.max_nodes.get_or_insert(n);
            }
            continue;
        }
        let record = SwfRecord::parse_line(line, line_no)?;
        if !crate::shape::work_fits(&record) {
            return Err(SwfError::WorkTooLarge {
                line: line_no,
                field: 4,
            });
        }
        trace.records.push(record);
    }
    Ok(trace)
}

/// Parses SWF text already in memory into the full record set.
///
/// # Errors
///
/// See [`read_swf`].
pub fn parse_swf_trace(text: &str) -> Result<SwfTrace, SwfError> {
    read_swf(text.as_bytes())
}

/// The SWF executable number of an application class.
pub fn executable_number(class: AppClass) -> i64 {
    match class {
        AppClass::Swim => 1,
        AppClass::BtA => 2,
        AppClass::Hydro2d => 3,
        AppClass::Apsi => 4,
    }
}

/// The application class of an SWF executable number.
pub fn class_of_executable(executable: i64) -> Option<AppClass> {
    match executable {
        1 => Some(AppClass::Swim),
        2 => Some(AppClass::BtA),
        3 => Some(AppClass::Hydro2d),
        4 => Some(AppClass::Apsi),
        _ => None,
    }
}

/// Serializes a workload to SWF text.
pub fn write_swf(jobs: &[JobSpec]) -> String {
    let mut out = String::new();
    out.push_str("; SWF workload trace — PDPA reproduction\n");
    out.push_str("; Executable numbers: 1=swim 2=bt.A 3=hydro2d 4=apsi\n");
    out.push_str("; MaxNodes: 60\n");
    for (i, job) in jobs.iter().enumerate() {
        // Fields:        1  2      3  4  5  6  7  8      9 10 11 12 13 14   15 16 17 18
        let line = format!(
            "{} {:.2} -1 -1 -1 -1 -1 {} -1 -1 -1 -1 -1 {} -1 -1 -1 -1\n",
            i + 1,
            job.submit.as_secs(),
            job.app.request,
            executable_number(job.app.class),
        );
        out.push_str(&line);
    }
    out
}

/// Serializes a *completed run* as a full SWF log: submit/wait/run times
/// and allocated processors filled in from the outcomes, in the field
/// positions the standard assigns (3 = wait, 4 = run, 5 = allocated
/// processors, 11 = status 1 for completed). `outcomes` holds, per job in
/// submission order, the wait time, run time, and mean allocated
/// processors.
///
/// # Panics
///
/// Panics if `outcomes` and `jobs` have different lengths.
pub fn write_swf_log(jobs: &[JobSpec], outcomes: &[(f64, f64, f64)]) -> String {
    assert_eq!(jobs.len(), outcomes.len(), "one outcome per submitted job");
    let mut out = String::new();
    out.push_str("; SWF workload log — PDPA reproduction (completed run)\n");
    out.push_str("; Executable numbers: 1=swim 2=bt.A 3=hydro2d 4=apsi\n");
    out.push_str("; MaxNodes: 60\n");
    for (i, (job, &(wait, run, procs))) in jobs.iter().zip(outcomes).enumerate() {
        let line = format!(
            "{} {:.2} {:.2} {:.2} {:.1} -1 -1 {} -1 -1 1 -1 -1 {} -1 -1 -1 -1\n",
            i + 1,
            job.submit.as_secs(),
            wait,
            run,
            procs,
            job.app.request,
            executable_number(job.app.class),
        );
        out.push_str(&line);
    }
    out
}

/// Parses SWF text into a workload. Applications are reconstructed from
/// their executable number using the calibrated paper models, with the
/// requested processor count from field 8. Executable numbers outside the
/// paper's four applications are an error here; the tolerant replay path
/// ([`crate::shape::jobs_from_records`]) assigns fallback classes instead.
///
/// # Errors
///
/// The first malformed line aborts the parse (see [`SwfError`]).
pub fn parse_swf(text: &str) -> Result<Vec<JobSpec>, SwfError> {
    let mut jobs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let record = SwfRecord::parse_line(line, line_no)?;
        if record.submit_secs < 0.0 {
            return Err(SwfError::NegativeSubmit { line: line_no });
        }
        let class = record.class().ok_or(SwfError::UnknownExecutable {
            line: line_no,
            executable: record.executable,
        })?;
        let mut app = paper_app(class);
        if record.requested_procs > 0 {
            app = app.with_request(record.requested_procs as usize);
        }
        jobs.push(JobSpec::new(SimTime::from_secs(record.submit_secs), app));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_apps::paper::{apsi, swim};

    #[test]
    fn executable_numbers_round_trip() {
        for class in AppClass::ALL {
            assert_eq!(class_of_executable(executable_number(class)), Some(class));
        }
        assert_eq!(class_of_executable(9), None);
    }

    #[test]
    fn write_then_parse_round_trips() {
        let jobs = vec![
            JobSpec::new(SimTime::from_secs(0.0), swim()),
            JobSpec::new(SimTime::from_secs(12.5), apsi().with_request(30)),
        ];
        let text = write_swf(&jobs);
        let parsed = parse_swf(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].app.class, AppClass::Swim);
        assert_eq!(parsed[0].app.request, 30);
        assert_eq!(parsed[1].app.class, AppClass::Apsi);
        assert_eq!(parsed[1].app.request, 30, "untuned request preserved");
        assert!((parsed[1].submit.as_secs() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "; header\n\n; more\n1 0.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        let jobs = parse_swf(text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].app.class, AppClass::Apsi);
        assert_eq!(jobs[0].app.request, 2);
    }

    #[test]
    fn short_lines_are_rejected() {
        let err = parse_swf("1 0.0 -1\n").unwrap_err();
        assert_eq!(err, SwfError::TooFewFields { line: 1, got: 3 });
    }

    #[test]
    fn bad_numbers_are_rejected() {
        let text = "1 zero -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        let err = parse_swf(text).unwrap_err();
        assert_eq!(err, SwfError::BadNumber { line: 1, field: 2 });
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for (field, bad) in [
            (2, "inf"),
            (2, "1e999"),
            (2, "nan"),
            (4, "-inf"),
            (14, "NaN"),
        ] {
            let mut fields = vec!["1", "0.0", "-1", "-1", "-1", "-1", "-1", "2", "-1"];
            fields.extend(["-1", "-1", "-1", "-1", "4", "-1", "-1", "-1", "-1"]);
            fields[field - 1] = bad;
            let err = read_swf(fields.join(" ").as_bytes()).unwrap_err();
            assert_eq!(err, SwfError::NonFinite { line: 1, field });
            assert_eq!(
                err.to_string(),
                format!("line 1: field {field} is not a finite number")
            );
        }
    }

    #[test]
    fn unknown_executables_are_rejected() {
        let text = "1 0.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 7 -1 -1 -1 -1\n";
        let err = parse_swf(text).unwrap_err();
        assert_eq!(
            err,
            SwfError::UnknownExecutable {
                line: 1,
                executable: 7
            }
        );
    }

    #[test]
    fn negative_submit_rejected() {
        let text = "1 -5.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        let err = parse_swf(text).unwrap_err();
        assert_eq!(err, SwfError::NegativeSubmit { line: 1 });
    }

    #[test]
    fn log_writer_round_trips_and_carries_outcomes() {
        let jobs = vec![
            JobSpec::new(SimTime::from_secs(0.0), swim()),
            JobSpec::new(SimTime::from_secs(9.5), apsi()),
        ];
        let outcomes = vec![(1.5, 12.0, 28.4), (0.0, 105.0, 2.0)];
        let text = write_swf_log(&jobs, &outcomes);
        // Still a valid SWF workload (outcome fields are extra info).
        let parsed = parse_swf(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].app.class, AppClass::Swim);
        // Wait/run/procs appear in the standard positions.
        let first: Vec<&str> = text
            .lines()
            .find(|l| !l.starts_with(';'))
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(first[2], "1.50", "wait time, field 3");
        assert_eq!(first[3], "12.00", "run time, field 4");
        assert_eq!(first[4], "28.4", "allocated processors, field 5");
        assert_eq!(first[10], "1", "status completed, field 11");
        // And the full-record parser sees the same outcome fields.
        let trace = parse_swf_trace(&text).unwrap();
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[0].wait_secs, 1.5);
        assert_eq!(trace.records[0].run_secs, 12.0);
        assert_eq!(trace.records[0].allocated_procs, 28.4);
        assert_eq!(trace.records[0].status, 1);
        assert_eq!(trace.records[1].executable, 4);
    }

    #[test]
    #[should_panic(expected = "one outcome per submitted job")]
    fn log_writer_length_mismatch_panics() {
        let jobs = vec![JobSpec::new(SimTime::from_secs(0.0), swim())];
        let _ = write_swf_log(&jobs, &[]);
    }

    #[test]
    fn unknown_request_falls_back_to_class_default() {
        // Request field -1: keep the calibrated default request.
        let text = "1 0.0 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        let jobs = parse_swf(text).unwrap();
        assert_eq!(jobs[0].app.request, 2, "apsi's tuned default");
    }

    // --- full-record / streaming parser ---

    #[test]
    fn full_record_parses_all_18_fields() {
        let line = "7 10.5 3.0 120.0 16 80.0 2048 32 600.0 4096 1 12 3 2 5 0 6 30.0";
        let r = SwfRecord::parse_line(line, 1).unwrap();
        assert_eq!(r.job_number, 7);
        assert_eq!(r.submit_secs, 10.5);
        assert_eq!(r.wait_secs, 3.0);
        assert_eq!(r.run_secs, 120.0);
        assert_eq!(r.allocated_procs, 16.0);
        assert_eq!(r.avg_cpu_secs, 80.0);
        assert_eq!(r.used_memory_kb, 2048.0);
        assert_eq!(r.requested_procs, 32);
        assert_eq!(r.requested_secs, 600.0);
        assert_eq!(r.requested_memory_kb, 4096.0);
        assert_eq!(r.status, 1);
        assert_eq!(r.user, 12);
        assert_eq!(r.group, 3);
        assert_eq!(r.executable, 2);
        assert_eq!(r.class(), Some(AppClass::BtA));
        assert_eq!(r.queue, 5);
        assert_eq!(r.partition, 0);
        assert_eq!(r.preceding_job, 6);
        assert_eq!(r.think_secs, 30.0);
    }

    #[test]
    fn bad_number_diagnostics_name_the_field() {
        let line = "7 10.5 3.0 120.0 16 80.0 2048 32 600.0 4096 1 12 3 2 5 0 six 30.0";
        let err = SwfRecord::parse_line(line, 41).unwrap_err();
        assert_eq!(
            err,
            SwfError::BadNumber {
                line: 41,
                field: 17
            }
        );
        assert!(err.to_string().contains("line 41"));
    }

    #[test]
    fn crlf_line_endings_are_tolerated() {
        // Published logs (CTC, SDSC, …) frequently ship with CRLF endings.
        let text = "; header\r\n1 0.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\r\n\
                    2 5.0 -1 -1 -1 -1 -1 4 -1 -1 -1 -1 -1 1 -1 -1 -1 -1\r\n";
        let jobs = parse_swf(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].app.class, AppClass::Swim);
        // The streaming reader tolerates them too.
        let trace = read_swf(text.as_bytes()).unwrap();
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[1].submit_secs, 5.0);
    }

    #[test]
    fn tab_separated_fields_are_tolerated() {
        let text = "1\t0.0\t-1\t-1\t-1\t-1\t-1\t2\t-1\t-1\t-1\t-1\t-1\t3\t-1\t-1\t-1\t-1\n";
        let jobs = parse_swf(text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].app.class, AppClass::Hydro2d);
        assert_eq!(jobs[0].app.request, 2);
        // Mixed tabs and spaces, with a CRLF for good measure.
        let mixed = "1\t0.0 -1\t-1 -1 -1 -1\t8 -1 -1 -1 -1 -1 2 -1 -1 -1 -1\r\n";
        let trace = parse_swf_trace(mixed).unwrap();
        assert_eq!(trace.records[0].requested_procs, 8);
    }

    #[test]
    fn header_directives_are_captured() {
        let text = "; Version: 2.2\n; MaxNodes: 128\n; MaxProcs: 256\n\
                    1 0.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        let trace = parse_swf_trace(text).unwrap();
        assert_eq!(trace.max_nodes, Some(128));
        assert_eq!(trace.max_procs, Some(256));
        assert_eq!(trace.machine_size(), Some(256), "MaxProcs wins");
        // Without header directives the observed maximum stands in.
        let bare = "1 0.0 -1 -1 -1 -1 -1 24 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        assert_eq!(parse_swf_trace(bare).unwrap().machine_size(), Some(24));
    }

    #[test]
    fn submit_span_covers_the_records() {
        let text = "1 4.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n\
                    2 90.0 -1 -1 -1 -1 -1 2 -1 -1 -1 -1 -1 4 -1 -1 -1 -1\n";
        let trace = parse_swf_trace(text).unwrap();
        assert_eq!(trace.submit_span(), Some((4.0, 90.0)));
        assert_eq!(SwfTrace::default().submit_span(), None);
    }

    #[test]
    fn cpu_work_estimate_prefers_allocated_procs() {
        let mut r =
            SwfRecord::parse_line("1 0.0 -1 100.0 8 -1 -1 16 -1 -1 1 -1 -1 2 -1 -1 -1 -1", 1)
                .unwrap();
        assert_eq!(r.cpu_work_estimate(), Some(800.0));
        r.allocated_procs = -1.0;
        assert_eq!(r.cpu_work_estimate(), Some(1600.0), "request fallback");
        r.run_secs = -1.0;
        assert_eq!(r.cpu_work_estimate(), None);
    }

    #[test]
    fn generated_traces_survive_the_streaming_reader() {
        let jobs = vec![
            JobSpec::new(SimTime::from_secs(0.0), swim()),
            JobSpec::new(SimTime::from_secs(2.0), apsi()),
        ];
        let text = write_swf(&jobs);
        let trace = read_swf(text.as_bytes()).unwrap();
        assert_eq!(trace.max_nodes, Some(60));
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[0].executable, 1);
        assert_eq!(trace.records[0].wait_secs, -1.0, "unknowns stay -1");
    }
}
