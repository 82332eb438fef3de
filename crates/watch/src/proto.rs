//! The status protocol: typed, correlation-ID'd, line-delimited JSON.
//!
//! One request per line, one response per line, over any ordered byte
//! stream (TCP here; the future `pdpad` daemon speaks the same frames).
//! Every request carries a client-chosen `id`; the response echoes it, so
//! a client may pipeline requests and correlate out-of-order handling —
//! though the bundled server answers strictly in order.
//!
//! ```text
//! → {"id":1,"type":"status"}
//! ← {"id":1,"type":"status","state":"running","policy":"PDPA",...}
//! → {"id":2,"type":"tail","n":5}
//! ← {"id":2,"type":"tail","events":["0.50 submit job=3", ...],"dropped":0}
//! ```
//!
//! **Query vocabulary** (protocol v1, served by `pdpa replay --serve` and
//! `pdpad` alike): `status`, `progress`, `health`, `metrics`, `tail`.
//!
//! **Control vocabulary** (protocol v2): `hello`, `submit`, `cancel`,
//! `drain`, `snapshot`, `shutdown`, `jobs`, `job`. Every v2 server
//! answers `hello` (identifying itself as `pdpad` or `replay`); the
//! mutating requests are served by `pdpad` only — the read-only replay
//! server rejects them with the stable `not_a_daemon` code. Control
//! requests are answered with `ack` / `reject` (explicit backpressure: a
//! full admission queue rejects with `retry_after_secs`) or a job-record
//! payload. A v1 server answers control requests with a plain `error` —
//! see [`PROTO_VERSION`] and OBSERVABILITY.md for the compatibility
//! policy.
//!
//! Malformed requests get a `type":"error"` response with `id` 0 (the id
//! could not be read). Both sides of every message round-trip through
//! [`Request::parse_line`] / [`Response::parse_line`], which is pinned by
//! proptest across all message types.

use std::fmt::Write as _;

use crate::json::Json;
use pdpa_obs::json::{fmt_f64, push_str_escaped};

/// The protocol generation this build speaks.
///
/// Version history: **1** — the query vocabulary (status, progress,
/// health, metrics, tail); **2** — adds the `proto` field to `status` and
/// `hello` frames plus the daemon control vocabulary (hello, submit,
/// cancel, drain, snapshot, shutdown, jobs, job).
///
/// Compatibility policy: the protocol evolves by *adding* message types
/// and *adding* object fields, never by renaming or removing them within
/// a major tool version. Clients parse responses by field lookup and must
/// ignore unknown fields; a `status` frame without `proto` parses as
/// version 0 (a pre-v2 server), which clients must treat as v1.
pub const PROTO_VERSION: u64 = 2;

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What is being asked.
    pub kind: RequestKind,
}

/// The request vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestKind {
    /// Run identity, job totals, terminal state.
    Status,
    /// Counters for rendering a progress line: clock, events/sec, ETA.
    Progress,
    /// Latest heartbeat/watchdog state and memory high-water mark.
    Health,
    /// The metrics registry in Prometheus text exposition format.
    Metrics,
    /// The most recent `n` observer events still in the ring.
    Tail {
        /// Maximum number of events to return.
        n: usize,
    },
    /// Identify the server: protocol version, server kind, policy, state.
    Hello,
    /// Submit one job for online admission (daemon only).
    Submit {
        /// Application class name (`swim`, `bt.A`, `hydro2d`, `apsi`).
        class: String,
        /// Processor request override; the class default when absent.
        request: Option<u64>,
        /// Total sequential work override in simulated seconds; the class
        /// default when absent.
        work_secs: Option<f64>,
    },
    /// Cancel a queued or running job (daemon only).
    Cancel {
        /// The job id returned by the submit `ack`.
        job: u64,
    },
    /// Stop pacing and run the workload to quiescence (daemon only).
    Drain,
    /// Write a snapshot of the scheduler state (daemon only).
    Snapshot {
        /// Target path; the daemon's configured default when absent.
        path: Option<String>,
    },
    /// Stop the daemon after the current slice (daemon only).
    Shutdown {
        /// Write a snapshot here before exiting, so a later
        /// `pdpa daemon --restore` continues the run deterministically.
        snapshot: Option<String>,
    },
    /// The most recent `n` job records from the run registry (daemon
    /// only).
    Jobs {
        /// Maximum number of records to return.
        n: usize,
    },
    /// One job record from the run registry (daemon only).
    Job {
        /// The job id to look up.
        job: u64,
    },
}

impl RequestKind {
    fn label(&self) -> &'static str {
        match self {
            RequestKind::Status => "status",
            RequestKind::Progress => "progress",
            RequestKind::Health => "health",
            RequestKind::Metrics => "metrics",
            RequestKind::Tail { .. } => "tail",
            RequestKind::Hello => "hello",
            RequestKind::Submit { .. } => "submit",
            RequestKind::Cancel { .. } => "cancel",
            RequestKind::Drain => "drain",
            RequestKind::Snapshot { .. } => "snapshot",
            RequestKind::Shutdown { .. } => "shutdown",
            RequestKind::Jobs { .. } => "jobs",
            RequestKind::Job { .. } => "job",
        }
    }

    /// True for the v2 control vocabulary only a daemon serves; false for
    /// the v1 query vocabulary every status server answers from its tap.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            RequestKind::Hello
                | RequestKind::Submit { .. }
                | RequestKind::Cancel { .. }
                | RequestKind::Drain
                | RequestKind::Snapshot { .. }
                | RequestKind::Shutdown { .. }
                | RequestKind::Jobs { .. }
                | RequestKind::Job { .. }
        )
    }
}

impl Request {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!("{{\"id\":{},\"type\":\"{}\"", self.id, self.kind.label());
        match &self.kind {
            RequestKind::Tail { n } | RequestKind::Jobs { n } => {
                let _ = write!(out, ",\"n\":{n}");
            }
            RequestKind::Submit {
                class,
                request,
                work_secs,
            } => {
                out.push_str(",\"class\":");
                push_str_escaped(&mut out, class);
                if let Some(r) = request {
                    let _ = write!(out, ",\"request\":{r}");
                }
                if let Some(w) = work_secs {
                    let _ = write!(out, ",\"work_secs\":{}", fmt_f64(*w));
                }
            }
            RequestKind::Cancel { job } | RequestKind::Job { job } => {
                let _ = write!(out, ",\"job\":{job}");
            }
            RequestKind::Snapshot { path } => {
                if let Some(p) = path {
                    out.push_str(",\"path\":");
                    push_str_escaped(&mut out, p);
                }
            }
            RequestKind::Shutdown { snapshot } => {
                if let Some(p) = snapshot {
                    out.push_str(",\"snapshot\":");
                    push_str_escaped(&mut out, p);
                }
            }
            RequestKind::Status
            | RequestKind::Progress
            | RequestKind::Health
            | RequestKind::Metrics
            | RequestKind::Hello
            | RequestKind::Drain => {}
        }
        out.push('}');
        out
    }

    /// Parses one protocol line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line)?;
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("request missing numeric 'id'")?;
        let need_n = |label: &str| -> Result<usize, String> {
            let n = doc
                .get("n")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{label} request missing numeric 'n'"))?;
            usize::try_from(n).map_err(|_| "'n' does not fit in usize".to_string())
        };
        let need_job = |label: &str| -> Result<u64, String> {
            doc.get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{label} request missing numeric 'job'"))
        };
        let opt_str = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        let kind = match doc.get("type").and_then(Json::as_str) {
            Some("status") => RequestKind::Status,
            Some("progress") => RequestKind::Progress,
            Some("health") => RequestKind::Health,
            Some("metrics") => RequestKind::Metrics,
            Some("tail") => RequestKind::Tail { n: need_n("tail")? },
            Some("hello") => RequestKind::Hello,
            Some("submit") => RequestKind::Submit {
                class: opt_str("class").ok_or("submit request missing string 'class'")?,
                request: doc.get("request").and_then(Json::as_u64),
                work_secs: doc.get("work_secs").and_then(Json::as_f64),
            },
            Some("cancel") => RequestKind::Cancel {
                job: need_job("cancel")?,
            },
            Some("drain") => RequestKind::Drain,
            Some("snapshot") => RequestKind::Snapshot {
                path: opt_str("path"),
            },
            Some("shutdown") => RequestKind::Shutdown {
                snapshot: opt_str("snapshot"),
            },
            Some("jobs") => RequestKind::Jobs { n: need_n("jobs")? },
            Some("job") => RequestKind::Job {
                job: need_job("job")?,
            },
            Some(other) => return Err(format!("unknown request type '{other}'")),
            None => return Err("request missing 'type'".to_string()),
        };
        Ok(Request { id, kind })
    }
}

/// Terminal state of the watched run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// The engine loop is still driving events.
    Running,
    /// The run completed and its result was computed.
    Done,
    /// The zero-progress watchdog aborted the run.
    Aborted,
}

impl RunState {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Done => "done",
            RunState::Aborted => "aborted",
        }
    }

    /// Parses a wire label.
    pub fn parse(label: &str) -> Result<Self, String> {
        match label {
            "running" => Ok(RunState::Running),
            "done" => Ok(RunState::Done),
            "aborted" => Ok(RunState::Aborted),
            other => Err(format!("unknown run state '{other}'")),
        }
    }
}

/// `status` payload: run identity and terminal state.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusBody {
    /// The protocol generation of the answering server. Absent on the
    /// wire from pre-v2 servers; parsed as 0 then (treat as v1).
    pub proto: u64,
    /// Where the run is in its lifecycle.
    pub state: RunState,
    /// The policy's display name.
    pub policy: String,
    /// The trace (or workload) being replayed.
    pub trace: String,
    /// Jobs in the workload.
    pub jobs_total: u64,
    /// Jobs submitted so far.
    pub jobs_submitted: u64,
    /// Jobs finished so far.
    pub jobs_finished: u64,
    /// Jobs terminally failed so far (fault injection).
    pub jobs_failed: u64,
    /// Observer events published through the tap so far.
    pub events_published: u64,
    /// Wall-clock seconds since the tap was created.
    pub elapsed_secs: f64,
    /// The watchdog diagnostic, when the run aborted.
    pub watchdog: Option<String>,
}

/// `progress` payload: the live counters a progress bar needs.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressBody {
    /// Simulated clock, seconds.
    pub sim_clock_secs: f64,
    /// Cumulative simulation events popped.
    pub events_popped: u64,
    /// Average events per wall-clock second since run start.
    pub events_per_sec: f64,
    /// Current event-queue backlog.
    pub queue_len: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Jobs waiting in the scheduler queue.
    pub waiting: u64,
    /// Jobs finished so far.
    pub jobs_finished: u64,
    /// Jobs in the workload.
    pub jobs_total: u64,
    /// Naive completion estimate (wall-clock seconds), once any job has
    /// finished.
    pub eta_secs: Option<f64>,
    /// Wall-clock seconds since the tap was created.
    pub elapsed_secs: f64,
}

/// `health` payload: the heartbeat/watchdog view.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthBody {
    /// The latest formatted heartbeat line, when heartbeats are enabled.
    pub heartbeat: Option<String>,
    /// The watchdog diagnostic, when the run aborted.
    pub watchdog: Option<String>,
    /// Peak resident set size in KiB, when /proc is readable.
    pub memory_hwm_kib: Option<u64>,
}

/// `tail` payload: recent observer events.
#[derive(Clone, Debug, PartialEq)]
pub struct TailBody {
    /// Most recent ring events, oldest first, in `TimedEvent::to_line`
    /// form.
    pub events: Vec<String>,
    /// Events that passed through the tap but are no longer in the ring
    /// (evicted by capacity or skipped under lock contention) — honest
    /// drop accounting, so `tail` never pretends to be a full stream.
    pub dropped: u64,
}

/// `hello` payload: server identity, for capability negotiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloBody {
    /// The protocol generation the server speaks ([`PROTO_VERSION`]).
    pub proto: u64,
    /// Server kind: `pdpad` for the daemon, `replay` for the read-only
    /// status server.
    pub server: String,
    /// The policy's display name.
    pub policy: String,
    /// Where the run is in its lifecycle.
    pub state: RunState,
}

/// `ack` payload: the control request was applied.
#[derive(Clone, Debug, PartialEq)]
pub struct AckBody {
    /// The job the ack concerns (submit returns the assigned id; cancel
    /// echoes the target).
    pub job: Option<u64>,
    /// The simulated instant the operation took effect, after the
    /// daemon's monotone-cursor clamp.
    pub at_secs: Option<f64>,
    /// Free-form detail (e.g. the snapshot path written).
    pub info: Option<String>,
}

/// `reject` payload: the control request was refused. `reason` is a
/// stable error code, not prose: `queue_full`, `busy`, `unknown_job`,
/// `not_a_daemon`, `draining`, `shutting_down`, `bad_request`.
#[derive(Clone, Debug, PartialEq)]
pub struct RejectBody {
    /// Stable machine-readable error code.
    pub reason: String,
    /// Backpressure hint: retry no sooner than this many wall seconds
    /// from now. Present on `queue_full`/`busy` rejections.
    pub retry_after_secs: Option<f64>,
}

/// One job record from the daemon's run registry.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRow {
    /// The dense job id.
    pub job: u64,
    /// Application class name.
    pub class: String,
    /// Processors requested.
    pub request: u64,
    /// Lifecycle state: `queued`, `running`, `done`, `failed`, or
    /// `cancelled`.
    pub state: String,
    /// Simulated submission instant, seconds.
    pub submit_secs: f64,
    /// Simulated completion/failure instant, when terminal.
    pub finish_secs: Option<f64>,
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Correlation id echoed from the request (0 when the request's id
    /// could not be read).
    pub id: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// The response vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Answer to `status`.
    Status(StatusBody),
    /// Answer to `progress`.
    Progress(ProgressBody),
    /// Answer to `health`.
    Health(HealthBody),
    /// Answer to `metrics`: the registry rendered in the named text
    /// format (`prometheus`).
    Metrics {
        /// Exposition format label.
        format: String,
        /// The rendered document.
        body: String,
    },
    /// Answer to `tail`.
    Tail(TailBody),
    /// Answer to `hello`.
    Hello(HelloBody),
    /// A control request was applied (submit, cancel, drain, snapshot,
    /// shutdown).
    Ack(AckBody),
    /// A control request was refused, with a stable error code and an
    /// optional backpressure hint.
    Reject(RejectBody),
    /// Answer to `jobs`: most recent registry records, oldest first.
    Jobs(Vec<JobRow>),
    /// Answer to `job`: one registry record.
    Job(JobRow),
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

fn push_opt_str(out: &mut String, key: &str, v: &Option<String>) {
    let _ = write!(out, ",\"{key}\":");
    match v {
        Some(s) => push_str_escaped(out, s),
        None => out.push_str("null"),
    }
}

fn push_job_row(out: &mut String, r: &JobRow) {
    let _ = write!(out, "{{\"job\":{},\"class\":", r.job);
    push_str_escaped(out, &r.class);
    let _ = write!(out, ",\"request\":{},\"state\":", r.request);
    push_str_escaped(out, &r.state);
    let _ = write!(
        out,
        ",\"submit_secs\":{},\"finish_secs\":{}}}",
        fmt_f64(r.submit_secs),
        r.finish_secs.map_or("null".to_string(), fmt_f64),
    );
}

fn parse_job_row(doc: &Json) -> Result<JobRow, String> {
    let num = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("job record missing numeric '{key}'"))
    };
    let text = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("job record missing string '{key}'"))
    };
    Ok(JobRow {
        job: num("job")?,
        class: text("class")?,
        request: num("request")?,
        state: text("state")?,
        submit_secs: doc
            .get("submit_secs")
            .and_then(Json::as_f64)
            .ok_or("job record missing numeric 'submit_secs'")?,
        finish_secs: doc.get("finish_secs").and_then(Json::as_f64),
    })
}

impl Response {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.push_line(&mut out);
        out
    }

    /// Appends this response's protocol line (no trailing newline) to
    /// `out`, so a server can batch replies in one reusable buffer.
    pub fn push_line(&self, out: &mut String) {
        let _ = write!(out, "{{\"id\":{}", self.id);
        match &self.body {
            ResponseBody::Status(s) => {
                let _ = write!(
                    out,
                    ",\"type\":\"status\",\"proto\":{},\"state\":\"{}\"",
                    s.proto,
                    s.state.label()
                );
                out.push_str(",\"policy\":");
                push_str_escaped(out, &s.policy);
                out.push_str(",\"trace\":");
                push_str_escaped(out, &s.trace);
                // `shards` is a constant kept for older clients, which
                // require the field.
                let _ = write!(
                    out,
                    ",\"shards\":1,\"jobs\":{{\"total\":{},\"submitted\":{},\
                     \"finished\":{},\"failed\":{}}},\"events_published\":{},\
                     \"elapsed_secs\":{}",
                    s.jobs_total,
                    s.jobs_submitted,
                    s.jobs_finished,
                    s.jobs_failed,
                    s.events_published,
                    fmt_f64(s.elapsed_secs),
                );
                push_opt_str(out, "watchdog", &s.watchdog);
            }
            ResponseBody::Progress(p) => {
                let _ = write!(
                    out,
                    ",\"type\":\"progress\",\"sim_clock_secs\":{},\"events_popped\":{},\
                     \"events_per_sec\":{},\"queue_len\":{},\"running\":{},\"waiting\":{},\
                     \"jobs_finished\":{},\"jobs_total\":{},\"eta_secs\":{},\"elapsed_secs\":{}",
                    fmt_f64(p.sim_clock_secs),
                    p.events_popped,
                    fmt_f64(p.events_per_sec),
                    p.queue_len,
                    p.running,
                    p.waiting,
                    p.jobs_finished,
                    p.jobs_total,
                    p.eta_secs.map_or("null".to_string(), fmt_f64),
                    fmt_f64(p.elapsed_secs),
                );
            }
            ResponseBody::Health(h) => {
                out.push_str(",\"type\":\"health\"");
                push_opt_str(out, "heartbeat", &h.heartbeat);
                push_opt_str(out, "watchdog", &h.watchdog);
                // `shard_events` and `imbalance` are constants kept for
                // older clients, which require the fields.
                let _ = write!(
                    out,
                    ",\"shard_events\":[],\"imbalance\":null,\"memory_hwm_kib\":{}",
                    h.memory_hwm_kib
                        .map_or("null".to_string(), |k| k.to_string()),
                );
            }
            ResponseBody::Metrics { format, body } => {
                out.push_str(",\"type\":\"metrics\",\"format\":");
                push_str_escaped(out, format);
                out.push_str(",\"body\":");
                push_str_escaped(out, body);
            }
            ResponseBody::Tail(t) => {
                out.push_str(",\"type\":\"tail\",\"events\":[");
                for (i, ev) in t.events.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_escaped(out, ev);
                }
                let _ = write!(out, "],\"dropped\":{}", t.dropped);
            }
            ResponseBody::Hello(h) => {
                let _ = write!(out, ",\"type\":\"hello\",\"proto\":{},\"server\":", h.proto);
                push_str_escaped(out, &h.server);
                out.push_str(",\"policy\":");
                push_str_escaped(out, &h.policy);
                let _ = write!(out, ",\"state\":\"{}\"", h.state.label());
            }
            ResponseBody::Ack(a) => {
                out.push_str(",\"type\":\"ack\"");
                if let Some(job) = a.job {
                    let _ = write!(out, ",\"job\":{job}");
                }
                if let Some(at) = a.at_secs {
                    let _ = write!(out, ",\"at_secs\":{}", fmt_f64(at));
                }
                if let Some(info) = &a.info {
                    out.push_str(",\"info\":");
                    push_str_escaped(out, info);
                }
            }
            ResponseBody::Reject(r) => {
                out.push_str(",\"type\":\"reject\",\"reason\":");
                push_str_escaped(out, &r.reason);
                if let Some(after) = r.retry_after_secs {
                    let _ = write!(out, ",\"retry_after_secs\":{}", fmt_f64(after));
                }
            }
            ResponseBody::Jobs(rows) => {
                out.push_str(",\"type\":\"jobs\",\"records\":[");
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_job_row(out, row);
                }
                out.push(']');
            }
            ResponseBody::Job(row) => {
                out.push_str(",\"type\":\"job\",\"record\":");
                push_job_row(out, row);
            }
            ResponseBody::Error { message } => {
                out.push_str(",\"type\":\"error\",\"message\":");
                push_str_escaped(out, message);
            }
        }
        out.push('}');
    }

    /// Parses one protocol line.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line)?;
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("response missing numeric 'id'")?;
        let get_u64 = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response missing numeric '{key}'"))
        };
        let get_f64 = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("response missing numeric '{key}'"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("response missing string '{key}'"))
        };
        let get_opt_str = |key: &str| -> Option<String> {
            doc.get(key).and_then(Json::as_str).map(str::to_string)
        };
        let body = match doc.get("type").and_then(Json::as_str) {
            Some("status") => {
                let jobs = doc.get("jobs").ok_or("status missing 'jobs'")?;
                let job = |key: &str| -> Result<u64, String> {
                    jobs.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("status missing jobs.{key}"))
                };
                ResponseBody::Status(StatusBody {
                    proto: doc.get("proto").and_then(Json::as_u64).unwrap_or(0),
                    state: RunState::parse(&get_str("state")?)?,
                    policy: get_str("policy")?,
                    trace: get_str("trace")?,
                    jobs_total: job("total")?,
                    jobs_submitted: job("submitted")?,
                    jobs_finished: job("finished")?,
                    jobs_failed: job("failed")?,
                    events_published: get_u64("events_published")?,
                    elapsed_secs: get_f64("elapsed_secs")?,
                    watchdog: get_opt_str("watchdog"),
                })
            }
            Some("progress") => ResponseBody::Progress(ProgressBody {
                sim_clock_secs: get_f64("sim_clock_secs")?,
                events_popped: get_u64("events_popped")?,
                events_per_sec: get_f64("events_per_sec")?,
                queue_len: get_u64("queue_len")?,
                running: get_u64("running")?,
                waiting: get_u64("waiting")?,
                jobs_finished: get_u64("jobs_finished")?,
                jobs_total: get_u64("jobs_total")?,
                eta_secs: doc.get("eta_secs").and_then(Json::as_f64),
                elapsed_secs: get_f64("elapsed_secs")?,
            }),
            Some("health") => ResponseBody::Health(HealthBody {
                heartbeat: get_opt_str("heartbeat"),
                watchdog: get_opt_str("watchdog"),
                memory_hwm_kib: doc.get("memory_hwm_kib").and_then(Json::as_u64),
            }),
            Some("metrics") => ResponseBody::Metrics {
                format: get_str("format")?,
                body: get_str("body")?,
            },
            Some("tail") => {
                let events = doc
                    .get("events")
                    .and_then(Json::as_arr)
                    .ok_or("tail missing 'events'")?
                    .iter()
                    .map(|v| v.as_str().map(str::to_string).ok_or("event not a string"))
                    .collect::<Result<Vec<_>, _>>()?;
                ResponseBody::Tail(TailBody {
                    events,
                    dropped: get_u64("dropped")?,
                })
            }
            Some("hello") => ResponseBody::Hello(HelloBody {
                proto: get_u64("proto")?,
                server: get_str("server")?,
                policy: get_str("policy")?,
                state: RunState::parse(&get_str("state")?)?,
            }),
            Some("ack") => ResponseBody::Ack(AckBody {
                job: doc.get("job").and_then(Json::as_u64),
                at_secs: doc.get("at_secs").and_then(Json::as_f64),
                info: get_opt_str("info"),
            }),
            Some("reject") => ResponseBody::Reject(RejectBody {
                reason: get_str("reason")?,
                retry_after_secs: doc.get("retry_after_secs").and_then(Json::as_f64),
            }),
            Some("jobs") => {
                let records = doc
                    .get("records")
                    .and_then(Json::as_arr)
                    .ok_or("jobs missing 'records'")?
                    .iter()
                    .map(parse_job_row)
                    .collect::<Result<Vec<_>, _>>()?;
                ResponseBody::Jobs(records)
            }
            Some("job") => {
                let record = doc.get("record").ok_or("job missing 'record'")?;
                ResponseBody::Job(parse_job_row(record)?)
            }
            Some("error") => ResponseBody::Error {
                message: get_str("message")?,
            },
            Some(other) => return Err(format!("unknown response type '{other}'")),
            None => return Err("response missing 'type'".to_string()),
        };
        Ok(Response { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_lines_round_trip() {
        for req in [
            Request {
                id: 0,
                kind: RequestKind::Status,
            },
            Request {
                id: 7,
                kind: RequestKind::Progress,
            },
            Request {
                id: 9,
                kind: RequestKind::Health,
            },
            Request {
                id: 11,
                kind: RequestKind::Metrics,
            },
            Request {
                id: u64::MAX >> 12,
                kind: RequestKind::Tail { n: 25 },
            },
            Request {
                id: 12,
                kind: RequestKind::Hello,
            },
            Request {
                id: 13,
                kind: RequestKind::Submit {
                    class: "bt.A".into(),
                    request: Some(32),
                    work_secs: Some(1200.5),
                },
            },
            Request {
                id: 14,
                kind: RequestKind::Submit {
                    class: "swim".into(),
                    request: None,
                    work_secs: None,
                },
            },
            Request {
                id: 15,
                kind: RequestKind::Cancel { job: 7 },
            },
            Request {
                id: 16,
                kind: RequestKind::Drain,
            },
            Request {
                id: 17,
                kind: RequestKind::Snapshot {
                    path: Some("/tmp/run.snap".into()),
                },
            },
            Request {
                id: 18,
                kind: RequestKind::Snapshot { path: None },
            },
            Request {
                id: 19,
                kind: RequestKind::Shutdown {
                    snapshot: Some("final.snap".into()),
                },
            },
            Request {
                id: 20,
                kind: RequestKind::Shutdown { snapshot: None },
            },
            Request {
                id: 21,
                kind: RequestKind::Jobs { n: 50 },
            },
            Request {
                id: 22,
                kind: RequestKind::Job { job: 3 },
            },
        ] {
            let line = req.to_line();
            assert_eq!(Request::parse_line(&line).expect("parses"), req);
        }
    }

    #[test]
    fn malformed_requests_are_diagnostics() {
        for bad in [
            "",
            "{}",
            "{\"id\":1}",
            "{\"id\":1,\"type\":\"nope\"}",
            "{\"id\":1,\"type\":\"tail\"}",
            "{\"type\":\"status\"}",
            "{\"id\":1,\"type\":\"submit\"}",
            "{\"id\":1,\"type\":\"cancel\"}",
            "{\"id\":1,\"type\":\"jobs\"}",
            "{\"id\":1,\"type\":\"job\"}",
        ] {
            assert!(Request::parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn query_and_control_vocabularies_are_disjoint() {
        let control = [
            RequestKind::Hello,
            RequestKind::Submit {
                class: "swim".into(),
                request: None,
                work_secs: None,
            },
            RequestKind::Cancel { job: 0 },
            RequestKind::Drain,
            RequestKind::Snapshot { path: None },
            RequestKind::Shutdown { snapshot: None },
            RequestKind::Jobs { n: 1 },
            RequestKind::Job { job: 0 },
        ];
        let query = [
            RequestKind::Status,
            RequestKind::Progress,
            RequestKind::Health,
            RequestKind::Metrics,
            RequestKind::Tail { n: 1 },
        ];
        assert!(control.iter().all(RequestKind::is_control));
        assert!(!query.iter().any(RequestKind::is_control));
    }

    #[test]
    fn status_without_proto_parses_as_version_zero() {
        // A frame from a pre-v2 server: no "proto" field at all.
        let line = "{\"id\":1,\"type\":\"status\",\"state\":\"running\",\
                    \"policy\":\"PDPA\",\"trace\":\"w3\",\"shards\":1,\
                    \"jobs\":{\"total\":4,\"submitted\":2,\"finished\":1,\"failed\":0},\
                    \"events_published\":10,\"elapsed_secs\":0.5,\"watchdog\":null}";
        let resp = Response::parse_line(line).expect("parses");
        match resp.body {
            ResponseBody::Status(s) => assert_eq!(s.proto, 0, "missing proto reads as 0"),
            other => panic!("expected status, got {other:?}"),
        }
    }

    #[test]
    fn frames_from_a_sharded_server_still_parse() {
        // Status and health frames as written before the sharded engine
        // was retired: their shard fields carry live values, which the
        // parser now ignores.
        let status = "{\"id\":1,\"type\":\"status\",\"proto\":2,\"state\":\"running\",\
                      \"policy\":\"PDPA\",\"trace\":\"big.swf\",\"shards\":4,\
                      \"jobs\":{\"total\":10430,\"submitted\":900,\"finished\":890,\"failed\":1},\
                      \"events_published\":123456,\"elapsed_secs\":2.75,\"watchdog\":null}";
        match Response::parse_line(status).expect("status parses").body {
            ResponseBody::Status(s) => {
                assert_eq!(s.proto, 2);
                assert_eq!(s.jobs_total, 10430);
                assert_eq!(s.jobs_finished, 890);
                assert_eq!(s.events_published, 123456);
            }
            other => panic!("expected status, got {other:?}"),
        }
        let health = "{\"id\":3,\"type\":\"health\",\
                      \"heartbeat\":\"heartbeat t+5s: clock=9.1s\",\"watchdog\":null,\
                      \"shard_events\":[100,120,90],\"imbalance\":0.161,\
                      \"memory_hwm_kib\":65536}";
        match Response::parse_line(health).expect("health parses").body {
            ResponseBody::Health(h) => {
                assert_eq!(h.heartbeat.as_deref(), Some("heartbeat t+5s: clock=9.1s"));
                assert_eq!(h.watchdog, None);
                assert_eq!(h.memory_hwm_kib, Some(65536));
            }
            other => panic!("expected health, got {other:?}"),
        }
    }

    #[test]
    fn written_frames_keep_the_shard_fields_as_constants() {
        // Older clients require these fields, so they stay on the wire.
        let responses = sample_responses();
        let status = responses[0].to_line();
        assert!(status.contains(",\"shards\":1,"), "{status}");
        let health = responses[2].to_line();
        assert!(
            health.contains(",\"shard_events\":[],\"imbalance\":null,"),
            "{health}"
        );
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response {
                id: 1,
                body: ResponseBody::Status(StatusBody {
                    proto: PROTO_VERSION,
                    state: RunState::Running,
                    policy: "PDPA".into(),
                    trace: "big.swf".into(),
                    jobs_total: 10430,
                    jobs_submitted: 900,
                    jobs_finished: 890,
                    jobs_failed: 1,
                    events_published: 123456,
                    elapsed_secs: 2.75,
                    watchdog: None,
                }),
            },
            Response {
                id: 2,
                body: ResponseBody::Progress(ProgressBody {
                    sim_clock_secs: 1234.5,
                    events_popped: 999_999,
                    events_per_sec: 350_000.25,
                    queue_len: 42,
                    running: 7,
                    waiting: 3,
                    jobs_finished: 890,
                    jobs_total: 10430,
                    eta_secs: Some(27.5),
                    elapsed_secs: 2.75,
                }),
            },
            Response {
                id: 3,
                body: ResponseBody::Health(HealthBody {
                    heartbeat: Some("heartbeat t+5s: clock=9.1s".into()),
                    watchdog: Some("watchdog: no sim-clock progress".into()),
                    memory_hwm_kib: Some(65536),
                }),
            },
            Response {
                id: 4,
                body: ResponseBody::Metrics {
                    format: "prometheus".into(),
                    body: "# TYPE pdpa_engine_runs_total counter\npdpa_engine_runs_total 3\n"
                        .into(),
                },
            },
            Response {
                id: 5,
                body: ResponseBody::Tail(TailBody {
                    events: vec![
                        "0.50 submit job=3".into(),
                        "1.00 decision trigger=report \"quote\"".into(),
                    ],
                    dropped: 17,
                }),
            },
            Response {
                id: 6,
                body: ResponseBody::Hello(HelloBody {
                    proto: PROTO_VERSION,
                    server: "pdpad".into(),
                    policy: "PDPA".into(),
                    state: RunState::Running,
                }),
            },
            Response {
                id: 7,
                body: ResponseBody::Ack(AckBody {
                    job: Some(42),
                    at_secs: Some(17.25),
                    info: None,
                }),
            },
            Response {
                id: 8,
                body: ResponseBody::Ack(AckBody {
                    job: None,
                    at_secs: None,
                    info: Some("snapshot written to /tmp/run.snap".into()),
                }),
            },
            Response {
                id: 9,
                body: ResponseBody::Reject(RejectBody {
                    reason: "queue_full".into(),
                    retry_after_secs: Some(0.5),
                }),
            },
            Response {
                id: 10,
                body: ResponseBody::Reject(RejectBody {
                    reason: "not_a_daemon".into(),
                    retry_after_secs: None,
                }),
            },
            Response {
                id: 11,
                body: ResponseBody::Jobs(vec![
                    JobRow {
                        job: 0,
                        class: "swim".into(),
                        request: 64,
                        state: "done".into(),
                        submit_secs: 0.0,
                        finish_secs: Some(812.5),
                    },
                    JobRow {
                        job: 1,
                        class: "bt.A".into(),
                        request: 25,
                        state: "running".into(),
                        submit_secs: 30.0,
                        finish_secs: None,
                    },
                ]),
            },
            Response {
                id: 12,
                body: ResponseBody::Job(JobRow {
                    job: 2,
                    class: "apsi".into(),
                    request: 16,
                    state: "cancelled".into(),
                    submit_secs: 60.0,
                    finish_secs: Some(75.0),
                }),
            },
            Response {
                id: 0,
                body: ResponseBody::Error {
                    message: "unknown request type 'bogus'".into(),
                },
            },
        ]
    }

    #[test]
    fn response_lines_round_trip() {
        for resp in sample_responses() {
            let line = resp.to_line();
            assert_eq!(
                Response::parse_line(&line).expect("parses"),
                resp,
                "line: {line}"
            );
        }
    }

    // Strategy helpers: printable strings (escaping is exercised by the
    // full printable-ASCII class plus the explicit cases above).
    proptest! {
        #[test]
        fn protocol_round_trips_all_message_types(
            id in 0u64..1 << 53,
            pick in 0usize..143, // lcm(13 request kinds, 11 response bodies)
            n in 0usize..10_000,
            s1 in "[ -~]{0,40}",
            s2 in "[ -~]{0,40}",
            counts in proptest::collection::vec(0u64..1 << 53, 0..6),
            f1 in 0.0f64..1e9,
            f2 in 0.0f64..1e9,
            some in proptest::bool::ANY,
        ) {
            // Requests: every kind, query and control vocabularies alike.
            // Submit class names are free-form strings on the wire (the
            // daemon validates them, not the protocol layer).
            let req = Request {
                id,
                kind: match pick % 13 {
                    0 => RequestKind::Status,
                    1 => RequestKind::Progress,
                    2 => RequestKind::Health,
                    3 => RequestKind::Metrics,
                    4 => RequestKind::Tail { n },
                    5 => RequestKind::Hello,
                    6 => RequestKind::Submit {
                        class: if s1.is_empty() { "swim".into() } else { s1.clone() },
                        request: some.then_some(id % 128),
                        work_secs: (!some).then_some(f1),
                    },
                    7 => RequestKind::Cancel { job: id },
                    8 => RequestKind::Drain,
                    9 => RequestKind::Snapshot { path: some.then(|| s2.clone()) },
                    10 => RequestKind::Shutdown { snapshot: some.then(|| s1.clone()) },
                    11 => RequestKind::Jobs { n },
                    _ => RequestKind::Job { job: id },
                },
            };
            let req_line = req.to_line();
            prop_assert!(nesting(&req_line) <= 3, "{}", req_line);
            prop_assert_eq!(Request::parse_line(&req_line).unwrap(), req);

            // Responses: every body shape, strings drawn from the full
            // printable class so quoting/escaping is exercised.
            let row = JobRow {
                job: id % 4096,
                class: s1.clone(),
                request: id % 128,
                state: ["queued", "running", "done", "failed", "cancelled"][pick % 5].into(),
                submit_secs: f1,
                finish_secs: some.then_some(f2),
            };
            let body = match pick % 11 {
                0 => ResponseBody::Status(StatusBody {
                    proto: id % 16,
                    state: [RunState::Running, RunState::Done, RunState::Aborted][pick % 3],
                    policy: s1.clone(),
                    trace: s2.clone(),
                    jobs_total: n as u64,
                    jobs_submitted: id % 1000,
                    jobs_finished: id % 999,
                    jobs_failed: id % 7,
                    events_published: id,
                    elapsed_secs: f1,
                    watchdog: some.then(|| s2.clone()),
                }),
                1 => ResponseBody::Progress(ProgressBody {
                    sim_clock_secs: f1,
                    events_popped: id,
                    events_per_sec: f2,
                    queue_len: n as u64,
                    running: id % 61,
                    waiting: id % 13,
                    jobs_finished: id % 999,
                    jobs_total: n as u64,
                    eta_secs: some.then_some(f2),
                    elapsed_secs: f1,
                }),
                2 => ResponseBody::Health(HealthBody {
                    heartbeat: some.then(|| s1.clone()),
                    watchdog: (!some).then(|| s2.clone()),
                    memory_hwm_kib: some.then_some(id),
                }),
                3 => ResponseBody::Metrics { format: "prometheus".into(), body: s1.clone() },
                4 => ResponseBody::Tail(TailBody {
                    events: vec![s1.clone(), s2.clone()],
                    dropped: id,
                }),
                5 => ResponseBody::Hello(HelloBody {
                    proto: id % 16,
                    server: s1.clone(),
                    policy: s2.clone(),
                    state: [RunState::Running, RunState::Done, RunState::Aborted][pick % 3],
                }),
                6 => ResponseBody::Ack(AckBody {
                    job: some.then_some(id),
                    at_secs: some.then_some(f1),
                    info: (!some).then(|| s2.clone()),
                }),
                7 => ResponseBody::Reject(RejectBody {
                    reason: if s1.is_empty() { "busy".into() } else { s1.clone() },
                    retry_after_secs: some.then_some(f2),
                }),
                8 => ResponseBody::Jobs(vec![row.clone(); counts.len()]),
                9 => ResponseBody::Job(row.clone()),
                _ => ResponseBody::Error { message: s1.clone() },
            };
            let resp = Response { id, body };
            let line = resp.to_line();
            // The retired engine's fields ride along as constants.
            match &resp.body {
                ResponseBody::Status(_) => prop_assert!(line.contains("\"shards\":1,")),
                ResponseBody::Health(_) => prop_assert!(
                    line.contains("\"shard_events\":[],\"imbalance\":null,")
                ),
                _ => {}
            }
            // Every written frame stays far inside the parser's nesting
            // cap, so the cap can never reject a well-formed peer.
            prop_assert!(nesting(&line) <= 3, "{}", line);
            prop_assert_eq!(Response::parse_line(&line).unwrap(), resp);
        }
    }

    /// Deepest `[`/`{` nesting of a JSON line, ignoring brackets inside
    /// strings.
    fn nesting(line: &str) -> usize {
        let (mut depth, mut deepest) = (0usize, 0usize);
        let (mut in_str, mut escaped) = (false, false);
        for c in line.chars() {
            match (in_str, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') => in_str = false,
                (true, false, _) => {}
                (false, _, '"') => in_str = true,
                (false, _, '[' | '{') => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                (false, _, ']' | '}') => depth -= 1,
                _ => {}
            }
        }
        deepest
    }
}
