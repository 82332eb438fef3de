//! The TCP front of `pdpad`: a [`Daemon`] couples the [`DaemonCore`],
//! behind one lock, to the multi-threaded `pdpa_watch::StatusServer`.
//!
//! Split of responsibilities:
//!
//! - **Queries** (`status`, `progress`, `health`, `metrics`, `tail`) are
//!   answered by the server threads straight from the [`LiveTap`] — the
//!   unmodified v1 vocabulary, so an old `pdpa watch` works against a
//!   daemon without knowing it is one.
//! - **Control** (`hello`, `submit`, `cancel`, `drain`, `snapshot`,
//!   `shutdown`, `jobs`, `job`) runs on the connection thread that read
//!   it: it takes the core's lock, applies the op, paces the clock and
//!   replies, with no hand-off to another thread. `hello` is the one
//!   exception: it never takes the lock, so liveness probes keep working
//!   even while the core is deep inside a long `drain`.
//! - **Pacing** between ops is [`Daemon::run`]'s job: it wakes every
//!   `TICK`, advances simulated time under the lock, and ends the serve
//!   once a `shutdown` is acked.
//!
//! The lock's waiting room is the daemon's second backpressure layer: at
//! most `MAX_WAITING` ops wait for the core at once, and one more gets an
//! explicit `busy` rejection with a retry hint before it touches anything
//! — the daemon never queues unboundedly, and an op is either rejected
//! before it runs or runs and gets its real reply. (The first layer,
//! `queue_full`, is about the *simulated* machine and lives in the core.)
//! The journal order is the order in which ops take the lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pdpa_watch::{ControlHandler, LiveTap, RequestKind, ResponseBody, StatusServer};

use crate::core::{hello, reject, DaemonConfig, DaemonCore};

/// Ops that may wait for the core at once before clients see `busy`.
const MAX_WAITING: usize = 64;
/// Pacer tick between ops: pacing and progress cadence.
const TICK: Duration = Duration::from_millis(20);

/// The core and whether it has acked a `shutdown`, behind one lock.
struct Locked {
    core: DaemonCore,
    stopped: bool,
}

/// What the connection threads and the pacer share; installed into the
/// status server as its [`ControlHandler`].
struct Service {
    locked: Mutex<Locked>,
    /// Connection threads that asked for the lock and do not hold it yet.
    waiting: AtomicUsize,
    /// Wakes the pacer once a `shutdown` is acked.
    stop: Condvar,
    started: Instant,
}

impl Service {
    fn new(core: DaemonCore) -> Service {
        Service {
            locked: Mutex::new(Locked {
                core,
                stopped: false,
            }),
            waiting: AtomicUsize::new(0),
            stop: Condvar::new(),
            started: Instant::now(),
        }
    }

    fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Takes the lock as one of at most `MAX_WAITING` waiters; `None`
    /// when the waiting room is full. The count publishes no other data
    /// (the lock orders the ops), so its accesses are `Relaxed`.
    fn lock_as_waiter(&self) -> Option<LockResult<MutexGuard<'_, Locked>>> {
        self.waiting
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < MAX_WAITING).then_some(n + 1)
            })
            .ok()?;
        let guard = self.locked.lock();
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        Some(guard)
    }

    /// The pacer: advances the clock every `TICK` until a `shutdown` is
    /// acked, and returns the lock still held. `None` if the lock was
    /// poisoned.
    fn pace_until_stopped(&self) -> Option<MutexGuard<'_, Locked>> {
        let mut locked = self.locked.lock().ok()?;
        while !locked.stopped {
            locked.core.pace(self.wall());
            locked = self.stop.wait_timeout(locked, TICK).ok()?.0;
        }
        Some(locked)
    }
}

impl ControlHandler for Service {
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody {
        if matches!(kind, RequestKind::Hello) {
            return hello(tap);
        }
        let Some(locked) = self.lock_as_waiter() else {
            return reject("busy", Some(0.5));
        };
        // A poisoned lock means the core panicked mid-op and the pacer is
        // ending the serve with an error.
        let Ok(mut locked) = locked else {
            return reject("shutting_down", None);
        };
        if locked.stopped {
            return reject("shutting_down", None);
        }
        let body = locked.core.handle(kind, self.wall());
        if matches!(kind, RequestKind::Shutdown { .. }) && !matches!(body, ResponseBody::Reject(_))
        {
            locked.stopped = true;
            self.stop.notify_one();
        } else {
            locked.core.pace(self.wall());
        }
        body
    }
}

/// A bound, running `pdpad` instance: call [`Daemon::run`] to serve.
pub struct Daemon {
    service: Arc<Service>,
    server: StatusServer,
    tap: Arc<LiveTap>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.server.local_addr())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds the daemon's TCP socket and installs the core behind its
    /// lock. The daemon is fully serving from the moment this returns:
    /// queries are answered and control ops retire on their connection
    /// threads. [`run`](Daemon::run) adds the pacing between ops and waits
    /// for `shutdown`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(core: DaemonCore, addr: &str) -> Result<Daemon, String> {
        let tap = core.tap();
        let service = Arc::new(Service::new(core));
        let handler: Arc<dyn ControlHandler> = service.clone();
        let server = StatusServer::bind_with_handler(addr, Arc::clone(&tap), handler)
            .map_err(|e| format!("pdpad: cannot bind {addr}: {e}"))?;
        Ok(Daemon {
            service,
            server,
            tap,
        })
    }

    /// The actual bound address (`:0` requests resolve at bind time).
    pub fn local_addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Paces the simulated clock every `TICK` until a `shutdown` request
    /// is acknowledged. Returns a one-paragraph closing summary.
    ///
    /// # Errors
    ///
    /// A panic inside the core (a poisoned lock) ends the serve with an
    /// error; connections still open get `shutting_down` from then on. A
    /// decision-stream file short of a failed write or flush ends it with
    /// an error too, naming the first failure, after the summary.
    pub fn run(self) -> Result<String, String> {
        let Some(mut locked) = self.service.pace_until_stopped() else {
            let message = "pdpad: the core panicked while applying an op";
            self.tap.mark_aborted(message);
            self.server.shutdown();
            return Err(message.to_string());
        };
        let stream_error = locked.core.flush_stream();
        let session = locked.core.session();
        let outcome = format!(
            "{} jobs ({} done, {} failed), sim clock {:.1}s, {} journal ops",
            session.total_jobs(),
            session.completed_count(),
            session.failed_count(),
            session.clock().as_secs(),
            locked.core.journal().len(),
        );
        drop(locked);
        self.tap.mark_done();
        // Give a polling watcher one window to observe the terminal
        // state before the socket goes away.
        self.server.wait_for_final_query(Duration::from_secs(1));
        let connections = self.server.connections();
        self.server.shutdown();
        let summary = format!(
            "pdpad: shut down after {:.1}s — {connections} connections, {outcome}",
            self.service.wall(),
        );
        match stream_error {
            None => Ok(summary),
            Some(e) => Err(format!("{summary}; the decision stream is short: {e}")),
        }
    }
}

/// Convenience constructor: open a fresh core from `config` (or restore
/// it from `restore_from`) and bind it on `addr`.
///
/// # Errors
///
/// Propagates core construction/restore and bind failures.
pub fn bind_daemon(
    config: DaemonConfig,
    restore_from: Option<&str>,
    addr: &str,
) -> Result<Daemon, String> {
    let core = match restore_from {
        Some(path) => DaemonCore::restore(path, config)?,
        None => DaemonCore::new(config)?,
    };
    Daemon::bind(core, addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Op;

    fn quiet_core() -> DaemonCore {
        DaemonCore::new(DaemonConfig {
            time_scale: 0.0,
            max_queue: 1 << 20,
            ..DaemonConfig::default()
        })
        .expect("core")
    }

    fn submit() -> RequestKind {
        RequestKind::Submit {
            class: "swim".to_string(),
            request: None,
            work_secs: None,
        }
    }

    fn reason(body: &ResponseBody) -> (&str, Option<f64>) {
        match body {
            ResponseBody::Reject(r) => (r.reason.as_str(), r.retry_after_secs),
            other => panic!("expected a reject, got {other:?}"),
        }
    }

    #[test]
    fn an_op_rejected_busy_is_never_applied() {
        let core = quiet_core();
        let tap = core.tap();
        let service = Arc::new(Service::new(core));
        let held = service.locked.lock().unwrap();
        let callers: Vec<_> = (0..MAX_WAITING)
            .map(|_| {
                let service = Arc::clone(&service);
                let tap = Arc::clone(&tap);
                std::thread::spawn(move || service.control(&submit(), &tap))
            })
            .collect();
        while service.waiting.load(Ordering::Relaxed) < MAX_WAITING {
            std::thread::yield_now();
        }
        // The 65th caller runs on a thread of its own too, so a broken
        // bound fails the test here rather than deadlocking on `held`.
        let (late_tx, late_rx) = std::sync::mpsc::channel();
        let late_caller = {
            let service = Arc::clone(&service);
            let tap = Arc::clone(&tap);
            std::thread::spawn(move || late_tx.send(service.control(&submit(), &tap)).is_ok())
        };
        let late = late_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the caller past the bound is answered without the lock");
        assert_eq!(reason(&late), ("busy", Some(0.5)));
        assert!(late_caller.join().expect("late caller"));
        drop(held);
        for caller in callers {
            let body = caller.join().expect("caller");
            assert!(matches!(body, ResponseBody::Ack(_)), "got {body:?}");
        }
        let locked = service.locked.lock().unwrap();
        let journal = locked.core.journal();
        assert_eq!(journal.len(), MAX_WAITING);
        assert!(journal.iter().all(|op| matches!(op, Op::Submit { .. })));
        assert_eq!(tap.jobs_total(), MAX_WAITING as u64);
    }

    #[test]
    fn an_op_after_an_acked_shutdown_is_not_applied() {
        let daemon = Daemon::bind(quiet_core(), "127.0.0.1:0").expect("bind");
        let service = Arc::clone(&daemon.service);
        let tap = Arc::clone(&daemon.tap);
        assert!(matches!(
            service.control(&submit(), &tap),
            ResponseBody::Ack(_)
        ));
        let shutdown = RequestKind::Shutdown { snapshot: None };
        assert!(matches!(
            service.control(&shutdown, &tap),
            ResponseBody::Ack(_)
        ));
        let late = service.control(&submit(), &tap);
        assert_eq!(reason(&late), ("shutting_down", None));
        assert_eq!(service.locked.lock().unwrap().core.journal().len(), 1);
        let summary = daemon.run().expect("summary");
        assert!(
            summary.contains("1 jobs") && summary.contains("1 journal ops"),
            "{summary}"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_short_stream_ends_run_with_an_error() {
        let core = DaemonCore::new(DaemonConfig {
            time_scale: 0.0,
            stream_path: Some("/dev/full".to_string()),
            ..DaemonConfig::default()
        })
        .expect("/dev/full opens for writing");
        let daemon = Daemon::bind(core, "127.0.0.1:0").expect("bind");
        let service = Arc::clone(&daemon.service);
        let tap = Arc::clone(&daemon.tap);
        assert!(matches!(
            service.control(&submit(), &tap),
            ResponseBody::Ack(_)
        ));
        let shutdown = RequestKind::Shutdown { snapshot: None };
        assert!(matches!(
            service.control(&shutdown, &tap),
            ResponseBody::Ack(_)
        ));
        let err = daemon.run().expect_err("a short stream fails the serve");
        assert!(
            err.contains("1 jobs") && err.contains("the decision stream is short: "),
            "{err}"
        );
    }

    #[test]
    fn a_panic_in_the_core_ends_run_with_an_error() {
        let daemon = Daemon::bind(quiet_core(), "127.0.0.1:0").expect("bind");
        let service = Arc::clone(&daemon.service);
        let tap = Arc::clone(&daemon.tap);
        let poisoner = Arc::clone(&service);
        let panicked = std::thread::spawn(move || {
            let _locked = poisoner.locked.lock().unwrap();
            panic!("a panic inside the core");
        })
        .join();
        assert!(panicked.is_err());
        let body = service.control(&submit(), &tap);
        assert_eq!(reason(&body), ("shutting_down", None));
        assert!(daemon.run().is_err());
    }
}
