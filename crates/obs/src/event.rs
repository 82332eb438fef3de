//! The typed decision-event taxonomy published by the engine.

use std::fmt;
use std::sync::{Mutex, OnceLock};

use pdpa_sim::{CpuId, JobId, SimTime};

use crate::collector::ExperimentFailure;

/// Which policy activation produced a decision (§4.1: the policy runs at
/// arrival, completion, and each performance report).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionTrigger {
    /// `on_job_arrival`.
    Arrival,
    /// `on_performance_report`.
    Report,
    /// `on_job_completion`.
    Completion,
    /// `on_capacity_change` — a CPU failed or recovered under the policy.
    Fault,
}

impl DecisionTrigger {
    /// Stable lowercase label used in serialized streams.
    pub fn label(self) -> &'static str {
        match self {
            DecisionTrigger::Arrival => "arrival",
            DecisionTrigger::Report => "report",
            DecisionTrigger::Completion => "completion",
            DecisionTrigger::Fault => "fault",
        }
    }
}

/// A policy state-machine state, interned: a one-byte index into one
/// process-wide name table.
///
/// PDPA's four states ([`StateName::NO_REF`], [`StateName::INC`],
/// [`StateName::DEC`], [`StateName::STABLE`]) hold indices 0–3. Any other
/// name a policy reports or a decoded stream carries takes the next free
/// index on first sight, up to [`StateName::CAP`] names per process; past
/// the cap [`StateName::intern`] is an error, so a hostile stream cannot
/// grow the table. Streams and exports always carry the name, never the
/// index, so the index is free to differ between processes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateName(u8);

/// The four PDPA states, at their fixed indices.
const FIXED_NAMES: [&str; 4] = ["NO_REF", "INC", "DEC", "STABLE"];

/// Names past the fixed four, filled in order and never cleared.
static EXTRA_NAMES: [OnceLock<Box<str>>; StateName::CAP - FIXED_NAMES.len()] =
    [const { OnceLock::new() }; StateName::CAP - FIXED_NAMES.len()];

/// Serializes insertions into [`EXTRA_NAMES`]; lookups never take it.
static EXTRA_INSERT: Mutex<()> = Mutex::new(());

impl StateName {
    /// `NO_REF`: no reference measurement yet.
    pub const NO_REF: StateName = StateName(0);
    /// `INC`: growing the allocation.
    pub const INC: StateName = StateName(1);
    /// `DEC`: shrinking the allocation.
    pub const DEC: StateName = StateName(2);
    /// `STABLE`: settled.
    pub const STABLE: StateName = StateName(3);
    /// The most distinct names one process can intern.
    pub const CAP: usize = 64;

    /// The name's index for `name`, adding it to the table on first sight.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when `name` is new and the table already holds
    /// [`StateName::CAP`] names.
    pub fn intern(name: &str) -> Result<StateName, String> {
        if let Some(i) = FIXED_NAMES.iter().position(|&n| n == name) {
            return Ok(StateName(i as u8));
        }
        if let Some(found) = Self::find_extra(name) {
            return Ok(found);
        }
        let _guard = EXTRA_INSERT.lock().unwrap_or_else(|e| e.into_inner());
        // Another thread may have added it between the scan and the lock.
        if let Some(found) = Self::find_extra(name) {
            return Ok(found);
        }
        let free = EXTRA_NAMES
            .iter()
            .position(|slot| slot.get().is_none())
            .ok_or_else(|| {
                format!(
                    "state name {name:?} would exceed the table of {} names",
                    Self::CAP
                )
            })?;
        // Cannot fail: the slot was empty and insertions hold the lock.
        let _ = EXTRA_NAMES[free].set(name.into());
        Ok(StateName((FIXED_NAMES.len() + free) as u8))
    }

    fn find_extra(name: &str) -> Option<StateName> {
        for (i, slot) in EXTRA_NAMES.iter().enumerate() {
            match slot.get() {
                Some(known) if **known == *name => {
                    return Some(StateName((FIXED_NAMES.len() + i) as u8))
                }
                Some(_) => {}
                None => return None,
            }
        }
        None
    }

    /// The name's index in the table, below [`StateName::CAP`].
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The name as text.
    pub fn as_str(self) -> &'static str {
        let i = self.index();
        match FIXED_NAMES.get(i) {
            Some(name) => name,
            None => EXTRA_NAMES[i - FIXED_NAMES.len()]
                .get()
                .expect("a StateName is only built for a filled slot"),
        }
    }
}

impl fmt::Display for StateName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for StateName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// One structured event on the observability bus.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsEvent {
    /// A job's submission instant passed: it joined the queue.
    JobSubmitted {
        /// The job.
        job: JobId,
    },
    /// The queuing system handed a waiting job to the engine: it left the
    /// queue and is about to start. The gap from [`ObsEvent::JobSubmitted`]
    /// (or from a retry's backoff expiry) to this instant is the job's
    /// queue wait, measurable from the stream even under faults/retries.
    JobDequeued {
        /// The job.
        job: JobId,
    },
    /// The queuing system started a job (it is running, allocation pending).
    JobStarted {
        /// The job.
        job: JobId,
        /// Processors the job requested at submission.
        request: usize,
    },
    /// A job completed its last iteration.
    JobFinished {
        /// The job.
        job: JobId,
    },
    /// The SelfAnalyzer timed one clean iteration.
    IterationMeasured {
        /// The job.
        job: JobId,
        /// Processors the iteration effectively used.
        procs: usize,
        /// Measured wall-clock seconds of the iteration (noise included).
        iter_secs: f64,
        /// Estimated speedup (0 while the analyzer is still baselining).
        speedup: f64,
        /// Estimated efficiency (0 while the analyzer is still baselining).
        efficiency: f64,
        /// True when the measurement produced a performance estimate that
        /// reached the policy (false during the baseline phase).
        estimated: bool,
    },
    /// The engine applied a policy decision that changed a job's
    /// allocation.
    Decision {
        /// The activation that produced the decision.
        trigger: DecisionTrigger,
        /// The job whose allocation changed.
        job: JobId,
        /// Processors held before the change.
        from_alloc: usize,
        /// Processors held after the change.
        to_alloc: usize,
        /// The PDPA state transition that caused the change, as
        /// `(from_state, to_state)`, when the policy reported one.
        transition: Option<(StateName, StateName)>,
    },
    /// A policy state machine moved without an allocation change (e.g.
    /// `NO_REF → STABLE` at the held allocation).
    StateChanged {
        /// The job whose state moved.
        job: JobId,
        /// State left.
        from: StateName,
        /// State entered.
        to: StateName,
    },
    /// The multiprogramming level changed (admission or completion).
    MplChanged {
        /// Running jobs after the change.
        running: usize,
        /// Sum of all running jobs' allocations after the change.
        total_alloc: usize,
    },
    /// A reallocation penalty was charged to a running job ("reallocations
    /// are not free", §5.1).
    ReallocCost {
        /// The job charged.
        job: JobId,
        /// Penalty in simulated seconds of progress debt.
        penalty_secs: f64,
        /// Processors gained by the resize.
        gained: usize,
        /// Processors lost by the resize.
        lost: usize,
    },
    /// A CPU's occupant changed (`None` = idle). This is the stream the
    /// Fig.-5 trace collector is built from.
    CpuAssigned {
        /// The CPU.
        cpu: CpuId,
        /// The new occupant.
        job: Option<JobId>,
    },
    /// A CPU failed (fault injection): it is out of the allocatable set
    /// until a matching [`ObsEvent::CpuRecovered`].
    CpuFailed {
        /// The failed CPU.
        cpu: CpuId,
    },
    /// A failed CPU came back.
    CpuRecovered {
        /// The recovered CPU.
        cpu: CpuId,
    },
    /// The machine's alive capacity changed (published alongside CPU
    /// failures and recoveries so capacity is plottable as a counter).
    DegradedCapacity {
        /// CPUs currently alive.
        alive: usize,
        /// CPUs in the topology.
        total: usize,
    },
    /// A crashed job was scheduled for a retry after its backoff.
    JobRetried {
        /// The job.
        job: JobId,
        /// Which retry this is (1 = first retry).
        attempt: u32,
        /// Backoff charged before the job rejoins the queue.
        backoff_secs: f64,
    },
    /// A crashed job exhausted its retries; its resources were freed and it
    /// will never complete.
    JobFailed {
        /// The job.
        job: JobId,
        /// Crashes the job suffered in total.
        attempts: u32,
    },
    /// A harness experiment panicked; the payload is preserved so failures
    /// are observable in the metrics export, not just a nonzero exit.
    /// Boxed, so the rare failure does not widen every other event.
    ExperimentFailed(Box<ExperimentFailure>),
}

impl ObsEvent {
    /// Every kind label, in declaration (= binary kind-code) order. The
    /// authoritative vocabulary for `--obs-filter` and other by-kind
    /// selections.
    pub const KINDS: [&'static str; 16] = [
        "submit",
        "dequeue",
        "start",
        "finish",
        "iter",
        "decision",
        "state",
        "mpl",
        "cost",
        "cpu",
        "cpu_failed",
        "cpu_recovered",
        "degraded",
        "retry",
        "job_failed",
        "failed",
    ];

    /// This event's index into [`ObsEvent::KINDS`] (its binary kind code).
    pub fn kind_index(&self) -> usize {
        match self {
            ObsEvent::JobSubmitted { .. } => 0,
            ObsEvent::JobDequeued { .. } => 1,
            ObsEvent::JobStarted { .. } => 2,
            ObsEvent::JobFinished { .. } => 3,
            ObsEvent::IterationMeasured { .. } => 4,
            ObsEvent::Decision { .. } => 5,
            ObsEvent::StateChanged { .. } => 6,
            ObsEvent::MplChanged { .. } => 7,
            ObsEvent::ReallocCost { .. } => 8,
            ObsEvent::CpuAssigned { .. } => 9,
            ObsEvent::CpuFailed { .. } => 10,
            ObsEvent::CpuRecovered { .. } => 11,
            ObsEvent::DegradedCapacity { .. } => 12,
            ObsEvent::JobRetried { .. } => 13,
            ObsEvent::JobFailed { .. } => 14,
            ObsEvent::ExperimentFailed(_) => 15,
        }
    }

    /// Stable kind label (the first token of [`TimedEvent::to_line`]).
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

/// An [`ObsEvent`] stamped with its simulated instant and a per-run
/// monotonic sequence number.
///
/// The `(at, seq)` pair is a total order: simulated time breaks ties by
/// publication order within the run, which is what makes recorded streams
/// byte-identical between sequential and parallel harness executions.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Simulated instant of publication.
    pub at: SimTime,
    /// Per-run monotonic sequence number (assigned by the recorder).
    pub seq: u64,
    /// The event.
    pub event: ObsEvent,
}

impl TimedEvent {
    /// Serializes the event as one stable text line. Floats use Rust's
    /// shortest round-trip formatting, so two bit-identical runs produce
    /// byte-identical lines.
    pub fn to_line(&self) -> String {
        line(self.at, self.seq, &self.event)
    }

    /// Parses a line produced by [`TimedEvent::to_line`] back into the
    /// event. Together they form an exact round trip: floats re-parse to
    /// the same bits (shortest formatting), and state names intern to the
    /// same [`StateName`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending token on malformed input.
    pub fn parse_line(line: &str) -> Result<TimedEvent, String> {
        parse::line(line)
    }
}

/// [`TimedEvent::to_line`] of `event` stamped `(at, seq)`, without
/// building the [`TimedEvent`].
pub(crate) fn line(at: SimTime, seq: u64, event: &ObsEvent) -> String {
    let t = at.as_secs();
    let body = match event {
        ObsEvent::JobSubmitted { job } => format!("job={}", job.0),
        ObsEvent::JobDequeued { job } => format!("job={}", job.0),
        ObsEvent::JobStarted { job, request } => {
            format!("job={} request={}", job.0, request)
        }
        ObsEvent::JobFinished { job } => format!("job={}", job.0),
        ObsEvent::IterationMeasured {
            job,
            procs,
            iter_secs,
            speedup,
            efficiency,
            estimated,
        } => format!(
            "job={} procs={} iter_secs={} speedup={} efficiency={} estimated={}",
            job.0, procs, iter_secs, speedup, efficiency, estimated
        ),
        ObsEvent::Decision {
            trigger,
            job,
            from_alloc,
            to_alloc,
            transition,
        } => {
            let tr = match transition {
                Some((from, to)) => format!(" transition={from}->{to}"),
                None => String::new(),
            };
            format!(
                "trigger={} job={} from={} to={}{}",
                trigger.label(),
                job.0,
                from_alloc,
                to_alloc,
                tr
            )
        }
        ObsEvent::StateChanged { job, from, to } => {
            format!("job={} from={} to={}", job.0, from, to)
        }
        ObsEvent::MplChanged {
            running,
            total_alloc,
        } => format!("running={running} total_alloc={total_alloc}"),
        ObsEvent::ReallocCost {
            job,
            penalty_secs,
            gained,
            lost,
        } => format!(
            "job={} penalty_secs={} gained={} lost={}",
            job.0, penalty_secs, gained, lost
        ),
        ObsEvent::CpuAssigned { cpu, job } => match job {
            Some(j) => format!("cpu={} job={}", cpu.0, j.0),
            None => format!("cpu={} job=idle", cpu.0),
        },
        ObsEvent::CpuFailed { cpu } => format!("cpu={}", cpu.0),
        ObsEvent::CpuRecovered { cpu } => format!("cpu={}", cpu.0),
        ObsEvent::DegradedCapacity { alive, total } => {
            format!("alive={alive} total={total}")
        }
        ObsEvent::JobRetried {
            job,
            attempt,
            backoff_secs,
        } => format!(
            "job={} attempt={} backoff_secs={}",
            job.0, attempt, backoff_secs
        ),
        ObsEvent::JobFailed { job, attempts } => {
            format!("job={} attempts={}", job.0, attempts)
        }
        ObsEvent::ExperimentFailed(failure) => {
            format!("name={} message={:?}", failure.name, failure.message)
        }
    };
    format!("{t} {seq} {} {body}", event.kind())
}

/// The [`TimedEvent::to_line`] inverse.
mod parse {
    use super::{DecisionTrigger, ObsEvent, StateName, TimedEvent};
    use crate::collector::ExperimentFailure;
    use pdpa_sim::{CpuId, JobId, SimTime};

    fn trigger(label: &str) -> Result<DecisionTrigger, String> {
        match label {
            "arrival" => Ok(DecisionTrigger::Arrival),
            "report" => Ok(DecisionTrigger::Report),
            "completion" => Ok(DecisionTrigger::Completion),
            "fault" => Ok(DecisionTrigger::Fault),
            other => Err(format!("unknown decision trigger {other:?}")),
        }
    }

    /// Splits a `key=value` token, checking the key.
    fn kv<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, String> {
        let token = token.ok_or_else(|| format!("missing field {key}"))?;
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| format!("malformed field {token:?}"))?;
        if k != key {
            return Err(format!("expected field {key}, got {k}"));
        }
        Ok(v)
    }

    fn num<T: std::str::FromStr>(v: &str, key: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("field {key} has unparseable value {v:?}"))
    }

    /// Undoes Rust's `{:?}` string escaping (the `ExperimentFailed`
    /// message encoding).
    fn unquote(v: &str) -> Result<String, String> {
        let inner = v
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("message {v:?} is not a quoted string"))?;
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('\'') => out.push('\''),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('0') => out.push('\0'),
                Some('u') => {
                    let hex: String = chars
                        .by_ref()
                        .skip(1) // the `{`
                        .take_while(|&c| c != '}')
                        .collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape in {v:?}"))?;
                    out.push(
                        char::from_u32(code).ok_or_else(|| format!("bad \\u escape in {v:?}"))?,
                    );
                }
                other => return Err(format!("bad escape \\{other:?} in {v:?}")),
            }
        }
        Ok(out)
    }

    fn job(v: &str) -> Result<JobId, String> {
        Ok(JobId(num(v, "job")?))
    }

    fn cpu(v: &str) -> Result<CpuId, String> {
        Ok(CpuId(num(v, "cpu")?))
    }

    pub(super) fn line(line: &str) -> Result<TimedEvent, String> {
        let mut tok = line.split(' ');
        let at: f64 = num(tok.next().ok_or("empty line")?, "time")?;
        if !(at.is_finite() && at >= 0.0) {
            return Err(format!("time {at} out of range"));
        }
        let seq: u64 = num(tok.next().ok_or("line has no sequence number")?, "seq")?;
        let kind = tok.next().ok_or("line has no event kind")?;
        let event = match kind {
            "submit" => ObsEvent::JobSubmitted {
                job: job(kv(tok.next(), "job")?)?,
            },
            "dequeue" => ObsEvent::JobDequeued {
                job: job(kv(tok.next(), "job")?)?,
            },
            "start" => ObsEvent::JobStarted {
                job: job(kv(tok.next(), "job")?)?,
                request: num(kv(tok.next(), "request")?, "request")?,
            },
            "finish" => ObsEvent::JobFinished {
                job: job(kv(tok.next(), "job")?)?,
            },
            "iter" => ObsEvent::IterationMeasured {
                job: job(kv(tok.next(), "job")?)?,
                procs: num(kv(tok.next(), "procs")?, "procs")?,
                iter_secs: num(kv(tok.next(), "iter_secs")?, "iter_secs")?,
                speedup: num(kv(tok.next(), "speedup")?, "speedup")?,
                efficiency: num(kv(tok.next(), "efficiency")?, "efficiency")?,
                estimated: num(kv(tok.next(), "estimated")?, "estimated")?,
            },
            "decision" => {
                let trigger = trigger(kv(tok.next(), "trigger")?)?;
                let job = job(kv(tok.next(), "job")?)?;
                let from_alloc = num(kv(tok.next(), "from")?, "from")?;
                let to_alloc = num(kv(tok.next(), "to")?, "to")?;
                let transition = match tok.next() {
                    None => None,
                    Some(t) => {
                        let v = kv(Some(t), "transition")?;
                        let (from, to) = v
                            .split_once("->")
                            .ok_or_else(|| format!("malformed transition {v:?}"))?;
                        Some((StateName::intern(from)?, StateName::intern(to)?))
                    }
                };
                ObsEvent::Decision {
                    trigger,
                    job,
                    from_alloc,
                    to_alloc,
                    transition,
                }
            }
            "state" => ObsEvent::StateChanged {
                job: job(kv(tok.next(), "job")?)?,
                from: StateName::intern(kv(tok.next(), "from")?)?,
                to: StateName::intern(kv(tok.next(), "to")?)?,
            },
            "mpl" => ObsEvent::MplChanged {
                running: num(kv(tok.next(), "running")?, "running")?,
                total_alloc: num(kv(tok.next(), "total_alloc")?, "total_alloc")?,
            },
            "cost" => ObsEvent::ReallocCost {
                job: job(kv(tok.next(), "job")?)?,
                penalty_secs: num(kv(tok.next(), "penalty_secs")?, "penalty_secs")?,
                gained: num(kv(tok.next(), "gained")?, "gained")?,
                lost: num(kv(tok.next(), "lost")?, "lost")?,
            },
            "cpu" => {
                let cpu = cpu(kv(tok.next(), "cpu")?)?;
                let occupant = kv(tok.next(), "job")?;
                let job = if occupant == "idle" {
                    None
                } else {
                    Some(job(occupant)?)
                };
                ObsEvent::CpuAssigned { cpu, job }
            }
            "cpu_failed" => ObsEvent::CpuFailed {
                cpu: cpu(kv(tok.next(), "cpu")?)?,
            },
            "cpu_recovered" => ObsEvent::CpuRecovered {
                cpu: cpu(kv(tok.next(), "cpu")?)?,
            },
            "degraded" => ObsEvent::DegradedCapacity {
                alive: num(kv(tok.next(), "alive")?, "alive")?,
                total: num(kv(tok.next(), "total")?, "total")?,
            },
            "retry" => ObsEvent::JobRetried {
                job: job(kv(tok.next(), "job")?)?,
                attempt: num(kv(tok.next(), "attempt")?, "attempt")?,
                backoff_secs: num(kv(tok.next(), "backoff_secs")?, "backoff_secs")?,
            },
            "job_failed" => ObsEvent::JobFailed {
                job: job(kv(tok.next(), "job")?)?,
                attempts: num(kv(tok.next(), "attempts")?, "attempts")?,
            },
            "failed" => {
                // The message is debug-quoted and may contain spaces, so the
                // body is split on the ` message=` marker, not on spaces.
                let body = tok.collect::<Vec<_>>().join(" ");
                let (name_part, message_part) = body
                    .split_once(" message=")
                    .ok_or_else(|| format!("malformed failure body {body:?}"))?;
                // The whole tail was the body; return directly, there can
                // be no trailing tokens left to check.
                return Ok(TimedEvent {
                    at: SimTime::from_secs(at),
                    seq,
                    event: ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
                        name: kv(Some(name_part), "name")?.to_string(),
                        message: unquote(message_part)?,
                    })),
                });
            }
            other => return Err(format!("unknown event kind {other:?}")),
        };
        if tok.next().is_some() {
            return Err(format!("trailing tokens on {kind} line"));
        }
        Ok(TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    #[test]
    fn lines_are_stable_and_distinct() {
        let a = te(1.5, 0, ObsEvent::JobSubmitted { job: JobId(3) });
        assert_eq!(a.to_line(), "1.5 0 submit job=3");
        let b = te(
            2.0,
            1,
            ObsEvent::Decision {
                trigger: DecisionTrigger::Report,
                job: JobId(3),
                from_alloc: 30,
                to_alloc: 26,
                transition: Some((StateName::NO_REF, StateName::DEC)),
            },
        );
        assert_eq!(
            b.to_line(),
            "2 1 decision trigger=report job=3 from=30 to=26 transition=NO_REF->DEC"
        );
        let c = te(
            2.0,
            2,
            ObsEvent::CpuAssigned {
                cpu: CpuId(5),
                job: None,
            },
        );
        assert_eq!(c.to_line(), "2 2 cpu cpu=5 job=idle");
    }

    #[test]
    fn fault_events_serialize() {
        let fail = te(10.0, 0, ObsEvent::CpuFailed { cpu: CpuId(7) });
        assert_eq!(fail.to_line(), "10 0 cpu_failed cpu=7");
        let recover = te(20.0, 1, ObsEvent::CpuRecovered { cpu: CpuId(7) });
        assert_eq!(recover.to_line(), "20 1 cpu_recovered cpu=7");
        let degraded = te(
            10.0,
            2,
            ObsEvent::DegradedCapacity {
                alive: 59,
                total: 60,
            },
        );
        assert_eq!(degraded.to_line(), "10 2 degraded alive=59 total=60");
        let retried = te(
            30.0,
            3,
            ObsEvent::JobRetried {
                job: JobId(2),
                attempt: 1,
                backoff_secs: 30.0,
            },
        );
        assert_eq!(
            retried.to_line(),
            "30 3 retry job=2 attempt=1 backoff_secs=30"
        );
        let failed = te(
            99.0,
            4,
            ObsEvent::JobFailed {
                job: JobId(2),
                attempts: 3,
            },
        );
        assert_eq!(failed.to_line(), "99 4 job_failed job=2 attempts=3");
        assert_eq!(DecisionTrigger::Fault.label(), "fault");
    }

    #[test]
    fn events_stay_small() {
        assert_eq!(std::mem::size_of::<ObsEvent>(), 40);
        assert_eq!(std::mem::size_of::<TimedEvent>(), 56);
    }

    #[test]
    fn state_names_intern_to_one_index() {
        for (name, fixed) in [
            ("NO_REF", StateName::NO_REF),
            ("INC", StateName::INC),
            ("DEC", StateName::DEC),
            ("STABLE", StateName::STABLE),
        ] {
            assert_eq!(StateName::intern(name), Ok(fixed));
            assert_eq!(fixed.as_str(), name);
        }
        let custom = StateName::intern("EVENT_UNIT_TEST_STATE").expect("fits the table");
        assert!(custom.index() >= 4 && custom.index() < StateName::CAP);
        assert_eq!(StateName::intern("EVENT_UNIT_TEST_STATE"), Ok(custom));
        assert_eq!(custom.to_string(), "EVENT_UNIT_TEST_STATE");
        assert_eq!(format!("{custom:?}"), "\"EVENT_UNIT_TEST_STATE\"");
    }

    #[test]
    fn every_kind_has_a_label() {
        let kinds = [
            ObsEvent::JobSubmitted { job: JobId(0) }.kind(),
            ObsEvent::MplChanged {
                running: 1,
                total_alloc: 2,
            }
            .kind(),
            ObsEvent::ExperimentFailed(Box::new(ExperimentFailure {
                name: "x".into(),
                message: "y".into(),
            }))
            .kind(),
        ];
        assert_eq!(kinds, ["submit", "mpl", "failed"]);
    }
}
