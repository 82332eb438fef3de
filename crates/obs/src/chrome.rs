//! Chrome `trace_event` JSON exporter.
//!
//! Produces the JSON-object format (`{"traceEvents": [...]}`) understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! *process* per recorded run, one *track* (thread) per job, `B`/`E` span
//! pairs for job lifetimes, instant events for decisions / state changes /
//! reallocation charges, and a counter track for the multiprogramming
//! level. Timestamps are simulated time in microseconds — the viewer's
//! timeline reads directly as simulated seconds.

use crate::event::{ObsEvent, TimedEvent};
use crate::json::push_str_escaped;
use std::collections::BTreeMap;

/// Simulated seconds → trace microseconds.
fn us(secs: f64) -> f64 {
    secs * 1e6
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

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Renders recorded runs as a Chrome trace. `runs` holds `(run key,
/// events)` pairs as drained from the collector; run keys become process
/// names, jobs become threads.
pub fn chrome_trace(runs: &[(String, Vec<TimedEvent>)]) -> String {
    let mut w = EventWriter::new();
    for (pid0, (key, events)) in runs.iter().enumerate() {
        let pid = pid0 + 1;
        let mut name = String::new();
        push_str_escaped(&mut name, key);
        w.push(format!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{name}}}"
        ));
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
                        Some((from, to)) => format!(",\"transition\":\"{from}->{to}\""),
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
                        "\"name\":\"state {from}->{to}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"from\":\"{from}\",\"to\":\"{to}\"}}"
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
                ObsEvent::ExperimentFailed { name, message } => {
                    let mut label = String::new();
                    push_str_escaped(&mut label, &format!("FAILED {name}"));
                    let mut text = String::new();
                    push_str_escaped(&mut text, message);
                    w.push(format!(
                        "\"name\":{label},\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":0,\"args\":{{\"message\":{text}}}"
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
    use crate::event::DecisionTrigger;
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
                        transition: Some(("NO_REF", "DEC")),
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
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Brace/bracket balance outside string literals.
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in json.chars() {
            if in_str {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0);
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
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
                ObsEvent::ExperimentFailed {
                    name: "x".to_string(),
                    message: "panicked: \"oh no\"\nline2".to_string(),
                },
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
