//! PDPA time-in-state reconstruction (§4.2, quantified).
//!
//! The engine publishes the state machine's moves two ways: a `decision`
//! event carries the transition that changed an allocation, and a bare
//! `state` event records a move that kept the allocation (e.g.
//! `INC → STABLE` at the held width). Replaying both yields, per job, how
//! long each application sat in every state — the time the policy spent
//! searching (`NO_REF`/`INC`/`DEC`) versus settled (`STABLE`).

use crate::fold::{self, slot_mut, Fold, JobIndex};
use pdpa_obs::{ObsEvent, StateName, TimedEvent};
use std::collections::BTreeMap;

/// Aggregate time-in-state over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateBreakdown {
    /// Seconds spent in each named state, summed over jobs.
    pub secs: BTreeMap<&'static str, f64>,
    /// State-machine moves observed (decisions with a transition plus
    /// bare state events).
    pub transitions: u64,
}

impl StateBreakdown {
    /// Total attributed seconds across all states.
    pub fn total_secs(&self) -> f64 {
        self.secs.values().sum()
    }

    /// Seconds attributed to one state (0 when never entered).
    pub fn in_state(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }
}

/// Replays a stream into the aggregate time-in-state breakdown.
///
/// A job's clock starts at its (most recent) `start` event: the span from
/// there to its first observed move is attributed to the move's *from*
/// state, later spans to the state currently held, and the span from the
/// last move to the job's finish (or the end of the stream) to the final
/// state.
pub fn time_in_state(events: &[TimedEvent]) -> StateBreakdown {
    fold::run(events, StateFold::default())
}

/// A started job's open span: the state it is in (`None` until the first
/// move names it, which attributes the span retroactively) and since when.
type OpenSpan = Option<(Option<StateName>, f64)>;

/// The fold behind [`time_in_state`].
#[derive(Debug)]
pub(crate) struct StateFold {
    /// Seconds per state, by [`StateName::index`]; `None` until the state
    /// is first charged, so the breakdown lists exactly the states seen.
    secs: [Option<(StateName, f64)>; StateName::CAP],
    transitions: u64,
    /// Open span per job slot.
    open: Vec<OpenSpan>,
}

impl Default for StateFold {
    fn default() -> Self {
        StateFold {
            secs: [None; StateName::CAP],
            transitions: 0,
            open: Vec::new(),
        }
    }
}

impl StateFold {
    fn charge(&mut self, state: StateName, secs: f64) {
        self.secs[state.index()].get_or_insert((state, 0.0)).1 += secs;
    }

    fn moved(&mut self, slot: usize, now: f64, from: StateName, to: StateName) {
        self.transitions += 1;
        let span = slot_mut(&mut self.open, slot);
        let (state, since) = span.take().unwrap_or((None, now));
        *span = Some((Some(to), now));
        // An unobserved stretch (job started, no move yet) belongs to the
        // state the machine is now leaving.
        self.charge(state.unwrap_or(from), (now - since).max(0.0));
    }

    fn close(&mut self, slot: usize, now: f64) {
        if let Some(Some((Some(state), since))) = self.open.get_mut(slot).map(Option::take) {
            self.charge(state, (now - since).max(0.0));
        }
    }
}

impl Fold for StateFold {
    type Output = StateBreakdown;

    fn push(&mut self, te: &TimedEvent, slot: Option<usize>) {
        let Some(slot) = slot else { return };
        let now = te.at.as_secs();
        match &te.event {
            ObsEvent::JobStarted { .. } => *slot_mut(&mut self.open, slot) = Some((None, now)),
            ObsEvent::Decision {
                transition: Some((from, to)),
                ..
            }
            | ObsEvent::StateChanged { from, to, .. } => self.moved(slot, now, *from, *to),
            ObsEvent::JobFinished { .. }
            | ObsEvent::JobFailed { .. }
            | ObsEvent::JobRetried { .. } => self.close(slot, now),
            _ => {}
        }
    }

    fn finish(mut self, jobs: &JobIndex, end: f64) -> StateBreakdown {
        // Jobs still in flight at the end of the stream, in id order.
        for (_, slot) in jobs.by_id() {
            self.close(slot, end);
        }
        StateBreakdown {
            secs: self
                .secs
                .iter()
                .flatten()
                .map(|&(state, secs)| (state.as_str(), secs))
                .collect(),
            transitions: self.transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdpa_obs::DecisionTrigger;
    use pdpa_sim::{JobId, SimTime};

    fn te(at: f64, seq: u64, event: ObsEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_secs(at),
            seq,
            event,
        }
    }

    #[test]
    fn spans_attribute_to_the_state_being_left() {
        let j = JobId(0);
        let stream = vec![
            te(
                0.0,
                0,
                ObsEvent::JobStarted {
                    job: j,
                    request: 16,
                },
            ),
            // 10 s unobserved → NO_REF (the state the first move leaves).
            te(
                10.0,
                1,
                ObsEvent::Decision {
                    trigger: DecisionTrigger::Report,
                    job: j,
                    from_alloc: 16,
                    to_alloc: 12,
                    transition: Some((StateName::NO_REF, StateName::DEC)),
                },
            ),
            // 5 s in DEC, then settle.
            te(
                15.0,
                2,
                ObsEvent::StateChanged {
                    job: j,
                    from: StateName::DEC,
                    to: StateName::STABLE,
                },
            ),
            // 20 s in STABLE until completion.
            te(35.0, 3, ObsEvent::JobFinished { job: j }),
        ];
        let b = time_in_state(&stream);
        assert_eq!(b.transitions, 2);
        assert_eq!(b.in_state("NO_REF"), 10.0);
        assert_eq!(b.in_state("DEC"), 5.0);
        assert_eq!(b.in_state("STABLE"), 20.0);
        assert_eq!(b.in_state("INC"), 0.0);
        assert!((b.total_secs() - 35.0).abs() < 1e-12);
    }

    #[test]
    fn open_states_close_at_stream_end() {
        let j = JobId(1);
        let stream = vec![
            te(0.0, 0, ObsEvent::JobStarted { job: j, request: 4 }),
            te(
                2.0,
                1,
                ObsEvent::StateChanged {
                    job: j,
                    from: StateName::NO_REF,
                    to: StateName::STABLE,
                },
            ),
            te(
                12.0,
                2,
                ObsEvent::MplChanged {
                    running: 1,
                    total_alloc: 4,
                },
            ),
        ];
        let b = time_in_state(&stream);
        assert_eq!(b.in_state("NO_REF"), 2.0);
        assert_eq!(b.in_state("STABLE"), 10.0);
    }
}
