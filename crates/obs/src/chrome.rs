//! Chrome `trace_event` JSON: the workspace's one `traceEvents` writer.
//!
//! Produces the JSON-object format (`{"traceEvents": [...]}`) understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev), one
//! event per line. Two documents share the framing:
//!
//! - [`chrome_trace`], the decision stream: one *process* per recorded
//!   run, one *track* (thread) per job, `B`/`E` span pairs for job
//!   lifetimes, instant events for decisions / state changes /
//!   reallocation charges, and a counter track for the multiprogramming
//!   level. Timestamps are simulated time in microseconds, so the
//!   viewer's timeline reads directly as simulated seconds.
//! - [`span_trace`], wall-clock spans (the self-profiler's export):
//!   complete (`"ph":"X"`) events, each carrying its own duration, on one
//!   named thread lane.

use crate::event::{ObsEvent, TimedEvent};
use crate::json::{push_f64, push_str_escaped};
use std::collections::BTreeMap;

/// Simulated seconds → trace microseconds.
fn us(secs: f64) -> f64 {
    secs * 1e6
}

/// `s` as a quoted, escaped JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_escaped(&mut out, s);
    out
}

struct EventWriter {
    out: String,
    first: bool,
}

impl EventWriter {
    fn new() -> Self {
        Self {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Appends one raw trace-event object (without braces).
    fn push(&mut self, body: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(&body);
        self.out.push('}');
    }

    /// Appends a `process_name` or `thread_name` metadata record.
    fn name_record(&mut self, record: &str, pid: usize, tid: u64, name: &str) {
        self.push(format!(
            "\"name\":\"{record}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}",
            quoted(name)
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Renders wall-clock spans as a Chrome trace: process `process` (pid 1)
/// with one thread lane `lane` (tid 0), and one complete (`"ph":"X"`)
/// event per `(name, start_ns, dur_ns)` span, in the order given.
/// Timestamps and durations are microseconds.
pub fn span_trace<'a>(
    process: &str,
    lane: &str,
    spans: impl IntoIterator<Item = (&'a str, u64, u64)>,
) -> String {
    let mut w = EventWriter::new();
    w.name_record("process_name", 1, 0, process);
    w.name_record("thread_name", 1, 0, lane);
    for (name, start_ns, dur_ns) in spans {
        let mut body = String::from("\"name\":");
        push_str_escaped(&mut body, name);
        body.push_str(",\"cat\":\"prof\",\"ph\":\"X\",\"ts\":");
        push_f64(&mut body, start_ns as f64 / 1e3);
        body.push_str(",\"dur\":");
        push_f64(&mut body, dur_ns as f64 / 1e3);
        body.push_str(",\"pid\":1,\"tid\":0");
        w.push(body);
    }
    w.finish()
}

/// Renders recorded runs as a Chrome trace. `runs` holds `(run key,
/// events)` pairs as drained from the collector; run keys become process
/// names, jobs become threads.
pub fn chrome_trace(runs: &[(String, Vec<TimedEvent>)]) -> String {
    let mut w = EventWriter::new();
    for (pid0, (key, events)) in runs.iter().enumerate() {
        let pid = pid0 + 1;
        w.name_record("process_name", pid, 0, key);
        // Open B spans per tid, so every span gets a matching E even when
        // a run ends with jobs still in flight.
        let mut open: BTreeMap<u64, ()> = BTreeMap::new();
        let mut last_ts = 0.0f64;
        for te in events {
            let ts = us(te.at.as_secs());
            last_ts = last_ts.max(ts);
            match &te.event {
                ObsEvent::JobStarted { job, request } => {
                    let tid = job.0 as u64 + 1;
                    w.push(format!(
                        "\"name\":\"job {}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\
                         \"tid\":{tid},\"args\":{{\"request\":{request}}}",
                        job.0
                    ));
                    open.insert(tid, ());
                }
                ObsEvent::JobFinished { job } => {
                    let tid = job.0 as u64 + 1;
                    if open.remove(&tid).is_some() {
                        w.push(format!(
                            "\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
                        ));
                    }
                }
                ObsEvent::Decision {
                    trigger,
                    job,
                    from_alloc,
                    to_alloc,
                    transition,
                } => {
                    let tid = job.0 as u64 + 1;
                    let tr = match transition {
                        Some((from, to)) => {
                            format!(",\"transition\":{}", quoted(&format!("{from}->{to}")))
                        }
                        None => String::new(),
                    };
                    w.push(format!(
                        "\"name\":\"decision {}->{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"trigger\":\"{}\",\
                         \"from\":{from_alloc},\"to\":{to_alloc}{tr}}}",
                        from_alloc,
                        to_alloc,
                        trigger.label()
                    ));
                }
                ObsEvent::StateChanged { job, from, to } => {
                    let tid = job.0 as u64 + 1;
                    w.push(format!(
                        "\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"from\":{},\"to\":{}}}",
                        quoted(&format!("state {from}->{to}")),
                        quoted(from.as_str()),
                        quoted(to.as_str()),
                    ));
                }
                ObsEvent::ReallocCost {
                    job,
                    penalty_secs,
                    gained,
                    lost,
                } => {
                    let tid = job.0 as u64 + 1;
                    w.push(format!(
                        "\"name\":\"realloc cost\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"penalty_secs\":{penalty_secs},\
                         \"gained\":{gained},\"lost\":{lost}}}"
                    ));
                }
                ObsEvent::MplChanged {
                    running,
                    total_alloc,
                } => {
                    w.push(format!(
                        "\"name\":\"mpl\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
                         \"args\":{{\"running\":{running},\"allocated\":{total_alloc}}}"
                    ));
                }
                ObsEvent::CpuFailed { cpu } => {
                    w.push(format!(
                        "\"name\":\"cpu{} failed\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":0,\"args\":{{\"cpu\":{}}}",
                        cpu.0, cpu.0
                    ));
                }
                ObsEvent::CpuRecovered { cpu } => {
                    w.push(format!(
                        "\"name\":\"cpu{} recovered\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":0,\"args\":{{\"cpu\":{}}}",
                        cpu.0, cpu.0
                    ));
                }
                ObsEvent::DegradedCapacity { alive, total } => {
                    w.push(format!(
                        "\"name\":\"capacity\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
                         \"args\":{{\"alive\":{alive},\"dead\":{}}}",
                        total - alive
                    ));
                }
                ObsEvent::JobRetried {
                    job,
                    attempt,
                    backoff_secs,
                } => {
                    // The crash ends the job's current span; the retry's
                    // JobStarted opens a fresh one.
                    let tid = job.0 as u64 + 1;
                    if open.remove(&tid).is_some() {
                        w.push(format!(
                            "\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
                        ));
                    }
                    w.push(format!(
                        "\"name\":\"retry {attempt}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"attempt\":{attempt},\
                         \"backoff_secs\":{backoff_secs}}}"
                    ));
                }
                ObsEvent::JobFailed { job, attempts } => {
                    let tid = job.0 as u64 + 1;
                    if open.remove(&tid).is_some() {
                        w.push(format!(
                            "\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
                        ));
                    }
                    w.push(format!(
                        "\"name\":\"job {} failed\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"attempts\":{attempts}}}",
                        job.0
                    ));
                }
                ObsEvent::ExperimentFailed(failure) => {
                    w.push(format!(
                        "\"name\":{},\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":0,\"args\":{{\"message\":{}}}",
                        quoted(&format!("FAILED {}", failure.name)),
                        quoted(&failure.message),
                    ));
                }
                // High-volume / low-value on a decision timeline: the CPU
                // map is pdpa-trace's job, iteration samples would dwarf
                // everything else, and queue-level events (submit/dequeue)
                // are pdpa-analyze's raw material.
                ObsEvent::CpuAssigned { .. }
                | ObsEvent::IterationMeasured { .. }
                | ObsEvent::JobSubmitted { .. }
                | ObsEvent::JobDequeued { .. } => {}
            }
        }
        // Close any span still open at the run's end so B/E always pair.
        for (tid, ()) in open {
            w.push(format!(
                "\"ph\":\"E\",\"ts\":{last_ts},\"pid\":{pid},\"tid\":{tid}"
            ));
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::ExperimentFailure;
    use crate::event::{DecisionTrigger, StateName};
    use crate::json::Json;
    use pdpa_sim::{JobId, SimTime};

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    fn sample_runs() -> Vec<(String, Vec<TimedEvent>)> {
        vec![(
            "fig5/PDPA".to_string(),
            vec![
                te(
                    0.0,
                    0,
                    ObsEvent::JobStarted {
                        job: JobId(0),
                        request: 32,
                    },
                ),
                te(
                    1.0,
                    1,
                    ObsEvent::Decision {
                        trigger: DecisionTrigger::Report,
                        job: JobId(0),
                        from_alloc: 32,
                        to_alloc: 28,
                        transition: Some((StateName::NO_REF, StateName::DEC)),
                    },
                ),
                te(
                    2.0,
                    2,
                    ObsEvent::MplChanged {
                        running: 1,
                        total_alloc: 28,
                    },
                ),
                te(3.0, 3, ObsEvent::JobFinished { job: JobId(0) }),
                // A job that never finishes: must still get a closing E.
                te(
                    4.0,
                    4,
                    ObsEvent::JobStarted {
                        job: JobId(1),
                        request: 16,
                    },
                ),
            ],
        )]
    }

    #[test]
    fn spans_pair_b_with_e() {
        let json = chrome_trace(&sample_runs());
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2);
        assert_eq!(b, e, "every B span must be closed:\n{json}");
    }

    #[test]
    fn output_is_structurally_sound_json() {
        let json = chrome_trace(&sample_runs());
        let doc = Json::parse(&json).expect("the trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // One line per event between the opening and closing lines.
        assert_eq!(json.lines().count(), events.len() + 2);
        assert_eq!(json.lines().next(), Some("{\"traceEvents\":["));
        assert_eq!(json.lines().last(), Some("]}"));
    }

    #[test]
    fn span_trace_names_its_one_lane() {
        let spans = [("policy_decision", 100, 4_000), ("replay", 0, 10_000)];
        let json = span_trace("pdpa replay profile", "coordinator", spans);
        let doc = Json::parse(&json).expect("the trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(json.lines().count(), events.len() + 2);
        assert_eq!(json.matches("\"thread_name\"").count(), 1);
        assert!(json.contains("\"args\":{\"name\":\"coordinator\"}"));
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("policy_decision")
        );
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[2].get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(events[2].get("dur").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn fault_events_render_and_keep_spans_paired() {
        use pdpa_sim::CpuId;
        let runs = vec![(
            "chaos/PDPA".to_string(),
            vec![
                te(
                    0.0,
                    0,
                    ObsEvent::JobStarted {
                        job: JobId(0),
                        request: 8,
                    },
                ),
                te(1.0, 1, ObsEvent::CpuFailed { cpu: CpuId(3) }),
                te(
                    1.0,
                    2,
                    ObsEvent::DegradedCapacity {
                        alive: 59,
                        total: 60,
                    },
                ),
                te(
                    2.0,
                    3,
                    ObsEvent::JobRetried {
                        job: JobId(0),
                        attempt: 1,
                        backoff_secs: 30.0,
                    },
                ),
                te(
                    32.0,
                    4,
                    ObsEvent::JobStarted {
                        job: JobId(0),
                        request: 8,
                    },
                ),
                te(
                    40.0,
                    5,
                    ObsEvent::JobFailed {
                        job: JobId(0),
                        attempts: 2,
                    },
                ),
                te(50.0, 6, ObsEvent::CpuRecovered { cpu: CpuId(3) }),
            ],
        )];
        let json = chrome_trace(&runs);
        assert!(json.contains("cpu3 failed"));
        assert!(json.contains("cpu3 recovered"));
        assert!(json.contains("\"name\":\"capacity\""));
        assert!(json.contains("\"name\":\"retry 1\""));
        assert!(json.contains("job 0 failed"));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2, "two starts (initial + retry)");
        assert_eq!(b, e, "retry/failure must close spans:\n{json}");
    }

    #[test]
    fn strings_are_escaped() {
        let runs = vec![(
            "evil\"key\n".to_string(),
            vec![te(
                0.0,
                0,
                ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
                    name: "x".to_string(),
                    message: "panicked: \"oh no\"\nline2".to_string(),
                })),
            )],
        )];
        let json = chrome_trace(&runs);
        assert!(json.contains("evil\\\"key\\n"));
        assert!(json.contains("\\\"oh no\\\"\\nline2"));
    }

    #[test]
    fn empty_input_is_valid() {
        let json = chrome_trace(&[]);
        assert_eq!(json, "{\"traceEvents\":[\n\n]}\n");
    }
}
