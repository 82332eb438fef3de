//! The op journal and the `pdpa-snapshot/v1` file format.
//!
//! The daemon's whole persistence story rests on the `EngineSession`
//! determinism contract: every mutation carries a monotone *effective*
//! instant, and simulation state is a pure function of the op sequence
//! plus the furthest barrier. A snapshot therefore needs no serialized
//! heap — it is:
//!
//! - the engine **config** (machine size, seed, backfill, horizon, policy
//!   slug) that seeds an identical fresh session;
//! - the ordered **op journal** of accepted `submit`/`cancel` mutations,
//!   each with the effective instant the session assigned (replay is a
//!   fixed point: re-applying effective instants yields the same
//!   effective instants);
//! - the **barrier**: the furthest instant the session was driven to;
//! - a **check** block of counters (events published, queue traffic,
//!   job outcomes, sim clock) the restored session must reproduce
//!   exactly, or the restore refuses to serve.
//!
//! Rejected submissions are never journaled — backpressure leaves no
//! trace in the simulation, so it must leave none in the journal.
//!
//! The format is a single JSON document (one per file), written with the
//! workspace's hand-rolled escaping and parsed with
//! [`pdpa_obs::json::Json`]. Like the wire protocol it evolves
//! additively: readers ignore unknown fields, and `format`/`proto`
//! mismatches fail loudly instead of guessing.

use std::fmt::Write as _;

use pdpa_obs::json::{push_f64, push_str_escaped, Json};
use pdpa_watch::PROTO_VERSION;

/// Magic format tag; the first field of every snapshot file.
pub const SNAPSHOT_FORMAT: &str = "pdpa-snapshot/v1";

/// One journaled mutation, with the *effective* (cursor-clamped) instant
/// the session applied it at.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// An admitted job submission.
    Submit {
        /// Effective submission instant, sim seconds.
        at_secs: f64,
        /// Application class name (`swim`, `bt.A`, `hydro2d`, `apsi`).
        class: String,
        /// Processor request override, if the submitter set one.
        request: Option<u64>,
        /// Sequential-work override in sim seconds, if set.
        work_secs: Option<f64>,
    },
    /// An accepted cancellation.
    Cancel {
        /// Effective cancellation instant, sim seconds.
        at_secs: f64,
        /// The cancelled job.
        job: u64,
    },
}

impl Op {
    fn push_json(&self, out: &mut String) {
        match self {
            Op::Submit {
                at_secs,
                class,
                request,
                work_secs,
            } => {
                out.push_str("{\"op\":\"submit\",\"at_secs\":");
                push_f64(out, *at_secs);
                out.push_str(",\"class\":");
                push_str_escaped(out, class);
                if let Some(request) = request {
                    let _ = write!(out, ",\"request\":{request}");
                }
                if let Some(work) = work_secs {
                    out.push_str(",\"work_secs\":");
                    push_f64(out, *work);
                }
                out.push('}');
            }
            Op::Cancel { at_secs, job } => {
                out.push_str("{\"op\":\"cancel\",\"at_secs\":");
                push_f64(out, *at_secs);
                let _ = write!(out, ",\"job\":{job}}}");
            }
        }
    }

    fn parse(doc: &Json) -> Result<Op, String> {
        let kind = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("op entry missing 'op'")?;
        let at_secs = time_secs(doc, "at_secs", "op entry")?;
        match kind {
            "submit" => Ok(Op::Submit {
                at_secs,
                class: doc
                    .get("class")
                    .and_then(Json::as_str)
                    .ok_or("submit op missing 'class'")?
                    .to_string(),
                request: doc.get("request").and_then(Json::as_u64),
                work_secs: doc.get("work_secs").and_then(Json::as_f64),
            }),
            "cancel" => Ok(Op::Cancel {
                at_secs,
                job: doc
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or("cancel op missing 'job'")?,
            }),
            other => Err(format!("unknown op kind '{other}'")),
        }
    }
}

/// Reads the instant `key` of `doc`; `what` names `doc` in errors. The
/// session can only be driven to a finite, non-negative instant.
fn time_secs(doc: &Json, key: &str, what: &str) -> Result<f64, String> {
    let secs = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{what} missing '{key}'"))?;
    if secs.is_finite() && secs >= 0.0 {
        Ok(secs)
    } else {
        Err(format!(
            "{what} '{key}' must be finite and non-negative, got {secs}"
        ))
    }
}

/// The engine identity a snapshot carries: everything needed to open an
/// equivalent fresh session.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotConfig {
    /// Policy slug ([`pdpa_core::roster`] vocabulary).
    pub policy: String,
    /// Machine size.
    pub cpus: usize,
    /// Daemon-level seed (the engine derives its own from it, the same
    /// way the CLI does).
    pub seed: u64,
    /// Queue backfilling.
    pub backfill: bool,
    /// Simulation horizon, sim seconds.
    pub max_sim_secs: f64,
}

/// The integrity block: counters a restored session must reproduce.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SnapshotCheck {
    /// Observer events published since session start.
    pub events_published: u64,
    /// Event-queue pushes.
    pub pushed: u64,
    /// Event-queue pops (stale discards included).
    pub popped: u64,
    /// Stale keyed entries discarded.
    pub stale_drops: u64,
    /// Jobs ever submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_finished: u64,
    /// Jobs failed terminally (cancellations included).
    pub jobs_failed: u64,
    /// Sim clock at the snapshot, seconds.
    pub clock_secs: f64,
}

/// A complete `pdpa-snapshot/v1` document.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Protocol version of the writer (frames and vocabulary).
    pub proto: u64,
    /// Engine identity.
    pub config: SnapshotConfig,
    /// True when the daemon had stopped admitting (post-`drain`).
    pub draining: bool,
    /// Furthest instant the session was driven to, sim seconds.
    pub barrier_secs: f64,
    /// Ordered journal of accepted mutations.
    pub ops: Vec<Op>,
    /// Counters the restore must reproduce.
    pub check: SnapshotCheck,
}

impl Snapshot {
    /// Serializes the snapshot as one JSON document (plus trailing
    /// newline, so the file is a well-formed text file).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.ops.len() * 64);
        let _ = write!(
            out,
            "{{\"format\":\"{SNAPSHOT_FORMAT}\",\"proto\":{},",
            self.proto
        );
        out.push_str("\"config\":{\"policy\":");
        push_str_escaped(&mut out, &self.config.policy);
        let _ = write!(
            out,
            ",\"cpus\":{},\"seed\":{},\"backfill\":{},\"max_sim_secs\":",
            self.config.cpus, self.config.seed, self.config.backfill,
        );
        push_f64(&mut out, self.config.max_sim_secs);
        let _ = write!(out, "}},\"draining\":{},\"barrier_secs\":", self.draining);
        push_f64(&mut out, self.barrier_secs);
        out.push_str(",\"ops\":[");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            op.push_json(&mut out);
        }
        let c = &self.check;
        let _ = write!(
            out,
            "],\"check\":{{\"events_published\":{},\"pushed\":{},\"popped\":{},\
             \"stale_drops\":{},\"jobs_submitted\":{},\"jobs_finished\":{},\
             \"jobs_failed\":{},\"clock_secs\":",
            c.events_published,
            c.pushed,
            c.popped,
            c.stale_drops,
            c.jobs_submitted,
            c.jobs_finished,
            c.jobs_failed,
        );
        push_f64(&mut out, c.clock_secs);
        out.push_str("}}\n");
        out
    }

    /// Parses a snapshot document, refusing unknown formats and frames
    /// from a newer protocol than this build speaks.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text.trim_end())?;
        let format = doc
            .get("format")
            .and_then(Json::as_str)
            .ok_or("snapshot missing 'format'")?;
        if format != SNAPSHOT_FORMAT {
            return Err(format!(
                "unsupported snapshot format '{format}' (this build reads {SNAPSHOT_FORMAT})"
            ));
        }
        let proto = doc
            .get("proto")
            .and_then(Json::as_u64)
            .ok_or("snapshot missing 'proto'")?;
        if proto > PROTO_VERSION {
            return Err(format!(
                "snapshot written by proto v{proto}, this build speaks v{PROTO_VERSION}"
            ));
        }
        let cfg = doc.get("config").ok_or("snapshot missing 'config'")?;
        let config = SnapshotConfig {
            policy: cfg
                .get("policy")
                .and_then(Json::as_str)
                .ok_or("config missing 'policy'")?
                .to_string(),
            cpus: cfg
                .get("cpus")
                .and_then(Json::as_u64)
                .ok_or("config missing 'cpus'")? as usize,
            seed: cfg
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("config missing 'seed'")?,
            backfill: matches!(cfg.get("backfill"), Some(Json::Bool(true))),
            max_sim_secs: cfg
                .get("max_sim_secs")
                .and_then(Json::as_f64)
                .ok_or("config missing 'max_sim_secs'")?,
        };
        let barrier_secs = time_secs(&doc, "barrier_secs", "snapshot")?;
        let ops = doc
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("snapshot missing 'ops'")?
            .iter()
            .enumerate()
            .map(|(i, op)| Op::parse(op).map_err(|e| format!("op {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let chk = doc.get("check").ok_or("snapshot missing 'check'")?;
        let count = |key: &str| -> Result<u64, String> {
            chk.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("check missing '{key}'"))
        };
        let check = SnapshotCheck {
            events_published: count("events_published")?,
            pushed: count("pushed")?,
            popped: count("popped")?,
            stale_drops: count("stale_drops")?,
            jobs_submitted: count("jobs_submitted")?,
            jobs_finished: count("jobs_finished")?,
            jobs_failed: count("jobs_failed")?,
            clock_secs: chk
                .get("clock_secs")
                .and_then(Json::as_f64)
                .ok_or("check missing 'clock_secs'")?,
        };
        Ok(Snapshot {
            proto,
            config,
            draining: matches!(doc.get("draining"), Some(Json::Bool(true))),
            barrier_secs,
            ops,
            check,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            proto: PROTO_VERSION,
            config: SnapshotConfig {
                policy: "pdpa".to_string(),
                cpus: 32,
                seed: 42,
                backfill: true,
                max_sim_secs: 600_000.0,
            },
            draining: false,
            barrier_secs: 1234.5,
            ops: vec![
                Op::Submit {
                    at_secs: 0.0,
                    class: "swim".to_string(),
                    request: Some(16),
                    work_secs: None,
                },
                Op::Submit {
                    at_secs: 10.25,
                    class: "bt.A".to_string(),
                    request: None,
                    work_secs: Some(120.5),
                },
                Op::Cancel {
                    at_secs: 50.0,
                    job: 1,
                },
            ],
            check: SnapshotCheck {
                events_published: 999,
                pushed: 400,
                popped: 380,
                stale_drops: 3,
                jobs_submitted: 2,
                jobs_finished: 1,
                jobs_failed: 1,
                clock_secs: 1200.0,
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let text = snap.to_json();
        assert!(text.ends_with('\n'));
        let back = Snapshot::parse(&text).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_foreign_formats_and_future_protos() {
        assert!(Snapshot::parse("{\"format\":\"something-else\"}").is_err());
        let future = sample().to_json().replace(
            &format!("\"proto\":{PROTO_VERSION},"),
            &format!("\"proto\":{},", PROTO_VERSION + 1),
        );
        let err = Snapshot::parse(&future).expect_err("future proto refused");
        assert!(err.contains("proto"), "got: {err}");
    }

    #[test]
    fn unknown_fields_are_ignored() {
        // Additive evolution: a v1 reader skips fields it does not know.
        let text = sample().to_json().replace(
            "\"draining\":false",
            "\"draining\":false,\"future_field\":[1,2]",
        );
        assert_eq!(Snapshot::parse(&text).expect("parses"), sample());
    }

    #[test]
    fn malformed_ops_fail_loudly() {
        for (needle, replacement) in [
            ("\"op\":\"submit\",\"at_secs\":0,", "\"op\":\"submit\","),
            ("\"op\":\"cancel\"", "\"op\":\"explode\""),
        ] {
            let text = sample().to_json().replace(needle, replacement);
            assert!(Snapshot::parse(&text).is_err(), "accepted: {replacement}");
        }
    }

    /// A time the session cannot be driven to is refused at parse time;
    /// restoring one used to panic in `SimTime::from_secs`.
    #[test]
    fn bad_time_fields_are_errors() {
        for (needle, replacement, expect) in [
            (
                "\"at_secs\":10.25",
                "\"at_secs\":-1",
                "op 1: op entry 'at_secs'",
            ),
            (
                "\"at_secs\":50",
                "\"at_secs\":1e999",
                "out of range at offset",
            ),
            (
                "\"barrier_secs\":1234.5",
                "\"barrier_secs\":-3",
                "'barrier_secs'",
            ),
        ] {
            let text = sample().to_json().replace(needle, replacement);
            assert_ne!(text, sample().to_json());
            let err = Snapshot::parse(&text).expect_err(replacement);
            assert!(err.contains(expect), "{replacement}: {err}");
        }
    }
}
