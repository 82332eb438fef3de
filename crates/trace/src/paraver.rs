//! Paraver trace export.
//!
//! The paper's traces were visualized with the Paraver tool (Labarta et
//! al.), whose `.prv` format is a text header plus one *state record* per
//! burst:
//!
//! ```text
//! #Paraver (dd/mm/yy at hh:mm):ftime:nNodes(cpu1,..):nAppl:appl1(...):...
//! 1:cpu:appl:task:thread:begin:end:state
//! ```
//!
//! [`to_paraver`] emits that shape for a finished [`Trace`]: each job maps
//! to one Paraver *application* with a single task/thread, each burst to a
//! state record with state 1 (running). Times are microseconds. The output
//! loads in Paraver/wxparaver for the same visual inspection the paper's
//! Fig. 5 performs.
//!
//! [`from_paraver`] reads the same shape back into a [`Trace`]. Malformed
//! input is a first-class case — every failure names the line and field
//! that broke instead of panicking, so truncated or hand-edited `.prv`
//! files produce a diagnosis, not a crash.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use pdpa_sim::{CpuId, JobId, SimTime};

use crate::record::{ActivityRecord, Trace};

/// Microseconds in a trace second.
const US: f64 = 1e6;

/// Serializes a trace as a Paraver `.prv` document.
pub fn to_paraver(trace: &Trace) -> String {
    let ftime = (trace.end.as_secs() * US).round() as u64;
    // Applications present, in first-appearance order of their ids.
    let jobs: BTreeSet<u32> = trace.records.iter().map(|r| r.job.0).collect();
    let n_appl = jobs.len();

    let mut out = String::new();
    // Header: one node containing all CPUs; every application has one task
    // with one thread on node 1.
    let _ = write!(
        out,
        "#Paraver (01/01/00 at 00:00):{ftime}:1({}):{n_appl}",
        trace.n_cpus
    );
    for _ in 0..n_appl {
        out.push_str(":1(1:1)");
    }
    out.push('\n');

    // Dense application numbering: Paraver applications are 1-based and
    // contiguous.
    let appl_of = |job: u32| -> usize { jobs.iter().position(|&j| j == job).expect("present") + 1 };

    // State records, ordered by begin time (stable for equal times).
    let mut records: Vec<_> = trace.records.iter().collect();
    records.sort_by(|a, b| a.start.cmp(&b.start).then_with(|| a.cpu.cmp(&b.cpu)));
    for r in records {
        let begin = (r.start.as_secs() * US).round() as u64;
        let end = (r.end.as_secs() * US).round() as u64;
        let _ = writeln!(
            out,
            "1:{}:{}:1:1:{}:{}:1",
            r.cpu.index() + 1,
            appl_of(r.job.0),
            begin,
            end
        );
    }
    out
}

/// A parse failure, located at a 1-based line of the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParaverError {
    /// The offending line (1-based; 0 for whole-document problems).
    pub line: usize,
    /// What went wrong, naming the field where possible.
    pub message: String,
}

impl std::fmt::Display for ParaverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParaverError {}

/// Builds a located error.
fn err(line: usize, message: impl Into<String>) -> ParaverError {
    ParaverError {
        line,
        message: message.into(),
    }
}

/// Parses an unsigned field, naming it in the failure.
fn parse_u64(raw: &str, line: usize, field: &str) -> Result<u64, ParaverError> {
    raw.trim()
        .parse()
        .map_err(|_| err(line, format!("{field} is not a number: {raw:?}")))
}

/// Parses a Paraver `.prv` document back into a [`Trace`].
///
/// Inverse of [`to_paraver`] up to the exporter's dense application
/// renumbering: record `appl` N becomes [`JobId`]`(N - 1)`, so a
/// round-trip preserves everything except the original job ids.
///
/// # Errors
///
/// Returns a [`ParaverError`] naming the 1-based line and the field that
/// is malformed: a missing or mangled header, a record with the wrong
/// field count, non-numeric fields, out-of-range CPU or application ids,
/// or a burst that ends before it begins.
pub fn from_paraver(input: &str) -> Result<Trace, ParaverError> {
    let mut lines = input.lines();
    let header = lines.next().ok_or_else(|| err(0, "empty document"))?;
    if !header.starts_with("#Paraver ") {
        return Err(err(1, "header must start with \"#Paraver \""));
    }
    // The date parenthetical contains a ':' ("(dd/mm/yy at hh:mm)"), so the
    // header is split on ':' only after the closing paren.
    let close = header
        .find(')')
        .ok_or_else(|| err(1, "header date parenthetical never closes"))?;
    let rest = header[close + 1..]
        .strip_prefix(':')
        .ok_or_else(|| err(1, "expected ':' after the header date"))?;
    let mut fields = rest.split(':');
    let ftime_us = parse_u64(fields.next().unwrap_or(""), 1, "header ftime")?;
    let nodes = fields
        .next()
        .ok_or_else(|| err(1, "header is missing the node list"))?;
    // Node list "n(c1,c2,..)": the machine size is the sum of per-node CPUs.
    let open = nodes
        .find('(')
        .ok_or_else(|| err(1, format!("node list has no '(': {nodes:?}")))?;
    let inner = nodes[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| err(1, format!("node list has no ')': {nodes:?}")))?;
    let mut n_cpus = 0usize;
    for part in inner.split(',') {
        n_cpus += parse_u64(part, 1, "node CPU count")? as usize;
    }
    let n_appl = parse_u64(
        fields
            .next()
            .ok_or_else(|| err(1, "header is missing the application count"))?,
        1,
        "header application count",
    )? as usize;

    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let lineno = i + 2; // 1-based, after the header
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(':').collect();
        if f.len() != 8 {
            return Err(err(
                lineno,
                format!("state record needs 8 ':'-fields, found {}", f.len()),
            ));
        }
        if f[0] != "1" {
            return Err(err(
                lineno,
                format!("unsupported record type {:?} (only state records)", f[0]),
            ));
        }
        let cpu = parse_u64(f[1], lineno, "cpu")? as usize;
        if cpu == 0 || cpu > n_cpus {
            return Err(err(lineno, format!("cpu {cpu} out of range 1..={n_cpus}")));
        }
        let appl = parse_u64(f[2], lineno, "application")? as usize;
        if appl == 0 || appl > n_appl {
            return Err(err(
                lineno,
                format!("application {appl} out of range 1..={n_appl}"),
            ));
        }
        let begin = parse_u64(f[5], lineno, "begin time")?;
        let end = parse_u64(f[6], lineno, "end time")?;
        if end < begin {
            return Err(err(
                lineno,
                format!("burst ends at {end} before it begins at {begin}"),
            ));
        }
        parse_u64(f[7], lineno, "state")?;
        records.push(ActivityRecord {
            cpu: CpuId((cpu - 1) as u16),
            job: JobId((appl - 1) as u32),
            start: SimTime::from_secs(begin as f64 / US),
            end: SimTime::from_secs(end as f64 / US),
        });
    }
    Ok(Trace {
        records,
        n_cpus,
        end: SimTime::from_secs(ftime_us as f64 / US),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceObserver;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_trace() -> Trace {
        let mut c = TraceObserver::new(4);
        c.assign(CpuId(0), Some(JobId(7)), t(0.0));
        c.assign(CpuId(1), Some(JobId(3)), t(1.0));
        c.assign(CpuId(0), Some(JobId(3)), t(2.0));
        c.into_trace(t(4.0))
    }

    #[test]
    fn header_declares_machine_and_applications() {
        let prv = to_paraver(&sample_trace());
        let header = prv.lines().next().unwrap();
        assert!(header.starts_with("#Paraver "));
        assert!(header.contains(":4000000:"), "ftime 4 s in µs: {header}");
        assert!(
            header.contains(":1(4):2"),
            "one node of 4 cpus, 2 applications"
        );
    }

    #[test]
    fn one_state_record_per_burst() {
        let trace = sample_trace();
        let prv = to_paraver(&trace);
        let records: Vec<&str> = prv.lines().skip(1).collect();
        assert_eq!(records.len(), trace.records.len());
        for r in &records {
            let fields: Vec<&str> = r.split(':').collect();
            assert_eq!(fields.len(), 8, "record shape: {r}");
            assert_eq!(fields[0], "1", "state record type");
            assert_eq!(fields[7], "1", "running state");
        }
    }

    #[test]
    fn records_are_time_ordered_with_dense_applications() {
        let prv = to_paraver(&sample_trace());
        let mut last_begin = 0u64;
        for line in prv.lines().skip(1) {
            let fields: Vec<&str> = line.split(':').collect();
            let appl: usize = fields[2].parse().unwrap();
            assert!((1..=2).contains(&appl), "dense 1-based application ids");
            let begin: u64 = fields[5].parse().unwrap();
            assert!(begin >= last_begin, "sorted by begin time");
            last_begin = begin;
            let end: u64 = fields[6].parse().unwrap();
            assert!(end >= begin);
        }
    }

    #[test]
    fn empty_trace_is_just_a_header() {
        let trace = TraceObserver::new(2).into_trace(t(1.0));
        let prv = to_paraver(&trace);
        assert_eq!(prv.lines().count(), 1);
        assert!(prv.contains(":1(2):0"));
    }

    #[test]
    fn round_trip_preserves_the_trace_shape() {
        let original = sample_trace();
        let parsed = from_paraver(&to_paraver(&original)).unwrap();
        assert_eq!(parsed.n_cpus, original.n_cpus);
        assert_eq!(parsed.end, original.end);
        assert_eq!(parsed.records.len(), original.records.len());
        // The exporter renumbers jobs densely, but burst geometry survives:
        // re-exporting the parsed trace is byte-identical.
        assert_eq!(to_paraver(&parsed), to_paraver(&original));
    }

    #[test]
    fn parsed_records_land_on_the_right_cpus() {
        let parsed = from_paraver(&to_paraver(&sample_trace())).unwrap();
        let cpus: BTreeSet<u16> = parsed.records.iter().map(|r| r.cpu.0).collect();
        assert_eq!(cpus, BTreeSet::from([0, 1]));
        for r in &parsed.records {
            assert!(r.end >= r.start);
        }
    }

    #[test]
    fn empty_document_is_an_error_not_a_panic() {
        let e = from_paraver("").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("empty"));
    }

    #[test]
    fn malformed_input_names_the_line_and_field() {
        let good = to_paraver(&sample_trace());
        // Table of mutations: (description, mangled document, expected
        // message fragment, expected line).
        let header = good.lines().next().unwrap();
        let cases: Vec<(&str, String, &str, usize)> = vec![
            (
                "missing #Paraver prefix",
                good.replacen("#Paraver ", "#Whatever ", 1),
                "#Paraver",
                1,
            ),
            (
                "date parenthetical never closes",
                good.replace(')', " "),
                "never closes",
                1,
            ),
            (
                "truncated record",
                format!("{header}\n1:1:1:1:1:0"),
                "8 ':'-fields",
                2,
            ),
            (
                "non-numeric begin",
                format!("{header}\n1:1:1:1:1:abc:100:1"),
                "begin time",
                2,
            ),
            (
                "cpu out of range",
                format!("{header}\n1:9:1:1:1:0:100:1"),
                "out of range",
                2,
            ),
            (
                "application out of range",
                format!("{header}\n1:1:7:1:1:0:100:1"),
                "out of range",
                2,
            ),
            (
                "burst ends before it begins",
                format!("{header}\n1:1:1:1:1:200:100:1"),
                "before it begins",
                2,
            ),
            (
                "event record type",
                format!("{header}\n2:1:1:1:1:0:100:1"),
                "record type",
                2,
            ),
        ];
        for (what, doc, fragment, line) in cases {
            let e = from_paraver(&doc).expect_err(what);
            assert_eq!(e.line, line, "{what}: {e}");
            assert!(
                e.message.contains(fragment),
                "{what}: message {:?} should mention {fragment:?}",
                e.message
            );
        }
    }

    #[test]
    fn error_on_a_deep_line_reports_that_line() {
        let good = to_paraver(&sample_trace());
        // Append a broken record after the three good ones.
        let doc = format!("{good}1:1:1:1:1:0:nope:1\n");
        let e = from_paraver(&doc).unwrap_err();
        assert_eq!(e.line, 5, "header + 3 records + the broken one");
        assert!(e.to_string().starts_with("line 5:"));
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let good = to_paraver(&sample_trace());
        let doc = good.replace('\n', "\n\n");
        let parsed = from_paraver(&doc).unwrap();
        assert_eq!(parsed.records.len(), 3);
    }
}
