//! `daemon-submit`: an in-process `pdpad` on loopback, driven open-loop.
//!
//! One load thread drives two connections on a fixed schedule: one
//! carries `submit` frames, the other one `status` frame for every ten
//! submits. Every request is timed from the instant it was due, so a
//! stall also charges the requests queued behind it. `time_scale` and the
//! job size are set so the simulated demand is 0.6 at every rate, and the
//! admission bound is far above what that demand queues: the result
//! measures the daemon, not the simulated machine.
//!
//! The untraced run measures latency at the reference rate, and
//! throughput as the ack rate of closed-loop bursts: submits pipelined on
//! one connection as fast as the daemon takes them. The traced run drives `DaemonCore` through a copy of the serve
//! loop that times `DaemonCore::handle` and `DaemonCore::pace` directly,
//! and searches the highest rate that meets the latency limit.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdpa_apps::{paper_app, AppClass};
use pdpa_daemon::{bind_daemon, DaemonConfig, DaemonCore};
use pdpa_sim::SimRng;
use pdpa_watch::{
    AckBody, ControlHandler, HelloBody, LiveTap, RejectBody, Request, RequestKind, Response,
    ResponseBody, RunState, StatusServer, PROTO_VERSION,
};

use crate::layers::Tracer;
use crate::stats::{allowed_cpus, median, peak_rss_mb, pin_to, Dist};
use crate::Report;

/// The rate latency is reported at, submits per second: a fifth of the
/// lowest rate the searched limit has come to on a quiet host. On a host
/// slowed down in phases, a rate nearer the limit flips the whole window
/// from microseconds of latency to a growing backlog.
const REFERENCE_RATE: f64 = 2_000.0;
/// The rate the traced run's rate search starts from, submits per second.
const SEARCH_FROM: f64 = 10_000.0;
/// Length of one reference-rate window, seconds; latency figures are
/// medians over a run's windows.
const WINDOW_SECS: f64 = 1.0;
/// Length of one rate-search probe, seconds.
const PROBE_SECS: f64 = 0.75;
/// Rate-search resolution: neighbouring probe rates differ by 5 %.
const RATE_STEP: f64 = 1.05;
/// The latency limit on a probe's tail percentile, milliseconds.
const LATENCY_LIMIT_MS: f64 = 5.0;
/// The most failed requests a passing probe may have.
const FAIL_LIMIT: f64 = 0.01;
/// Simulated demand the job sizes are chosen for.
const DEMAND: f64 = 0.6;
/// Machine size.
const CPUS: usize = 60;
/// Submits in one closed-loop burst.
const BURST: u64 = 20_000;
/// The rate a burst's time scale is set for: about what one pipelined
/// connection achieves with the daemon on a processor of its own, so a
/// burst's simulated demand is near 0.6 too.
const BURST_RATE: f64 = 100_000.0;
/// Set-ups before the first window. Every window and burst sets up a
/// daemon of its own too, and `setup_s` is the median of them all.
const SETUPS: usize = 5;
/// How long to wait for outstanding replies after the last request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Status requests on an idle daemon for the round-trip figure.
const IDLE_STATUS: usize = 1_000;

/// The fixed open-loop schedule of one window: submit `i` is due
/// `i / rate` seconds after the start, status `j` halfway between
/// submits `10 j + 4` and `10 j + 5`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Submits per second.
    pub rate: f64,
    /// Submits in the window.
    pub submits: u64,
}

impl Schedule {
    /// A window of `secs` seconds at `rate`.
    pub fn new(rate: f64, secs: f64) -> Schedule {
        Schedule {
            rate,
            submits: (rate * secs).round().max(1.0) as u64,
        }
    }

    /// Due offset of submit `i`, seconds.
    pub fn submit_due(&self, i: u64) -> f64 {
        i as f64 / self.rate
    }

    /// Status requests in the window.
    pub fn statuses(&self) -> u64 {
        self.submits / 10
    }

    /// Due offset of status `j`, seconds.
    pub fn status_due(&self, j: u64) -> f64 {
        (10 * j) as f64 / self.rate + 4.5 / self.rate
    }
}

/// The daemon configuration for a window at `rate`: one-iteration jobs
/// and a time scale that keeps the simulated demand at 0.6.
fn daemon_config(seed: u64, rate: f64) -> DaemonConfig {
    DaemonConfig {
        policy: "pdpa".to_string(),
        cpus: CPUS,
        seed,
        max_sim_secs: Some(1e12),
        max_queue: 1 << 30,
        time_scale: rate * mean_work_secs() / (DEMAND * CPUS as f64),
        ..DaemonConfig::default()
    }
}

/// One iteration of each class's sequential work: the job sizes submits
/// carry.
fn work_secs(class: AppClass) -> f64 {
    paper_app(class).seq_iter_time.as_secs()
}

/// Mean work of a submit, classes drawn uniformly.
fn mean_work_secs() -> f64 {
    AppClass::ALL.iter().map(|c| work_secs(*c)).sum::<f64>() / AppClass::ALL.len() as f64
}

/// The seeded class sequence of a window's submits.
fn submit_lines(seed: u64, n: u64) -> Vec<String> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            let class = AppClass::ALL[rng.below(AppClass::ALL.len())];
            Request {
                id: i,
                kind: RequestKind::Submit {
                    class: class.name().to_string(),
                    request: None,
                    work_secs: Some(work_secs(class)),
                },
            }
            .to_line()
                + "\n"
        })
        .collect()
}

/// What the traced serve loop measured inside the daemon.
#[derive(Debug, Default)]
struct CoreTally {
    handle_submit_ns: Vec<f64>,
    pace_ns: u64,
    pace_calls: u64,
    session_events: u64,
    tracer: Option<Tracer>,
}

/// A daemon serving on a loopback port from its own thread.
struct Server {
    addr: String,
    thread: JoinHandle<Result<CoreTally, String>>,
}

/// The control path of the traced serve loop: forwards ops to the core
/// thread through a bounded channel, as the daemon's own handler does.
struct Control {
    ops: SyncSender<(RequestKind, std::sync::mpsc::Sender<ResponseBody>)>,
}

impl ControlHandler for Control {
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody {
        if matches!(kind, RequestKind::Hello) {
            return ResponseBody::Hello(HelloBody {
                proto: PROTO_VERSION,
                server: "pdpad".to_string(),
                policy: tap.status_body().policy,
                state: tap.state(),
            });
        }
        let reject = |reason: &str| {
            ResponseBody::Reject(RejectBody {
                reason: reason.to_string(),
                retry_after_secs: None,
            })
        };
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        match self.ops.try_send((kind.clone(), reply_tx)) {
            Ok(()) => reply_rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| reject("busy")),
            Err(TrySendError::Full(_)) => reject("busy"),
            Err(TrySendError::Disconnected(_)) => reject("shutting_down"),
        }
    }
}

/// The serve loop of `pdpad` (same channel bound and tick), with
/// `DaemonCore::handle` and `DaemonCore::pace` timed.
fn traced_loop(
    mut core: DaemonCore,
    ops: Receiver<(RequestKind, std::sync::mpsc::Sender<ResponseBody>)>,
    server: StatusServer,
) -> CoreTally {
    let mut tally = CoreTally::default();
    let mut tracer = Tracer::default();
    let started = Instant::now();
    let mut seq = 0u64;
    loop {
        match ops.recv_timeout(Duration::from_millis(20)) {
            Ok((kind, reply)) => {
                let is_shutdown = matches!(kind, RequestKind::Shutdown { .. });
                let wall = started.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let body = core.handle(&kind, wall);
                let t1 = Instant::now();
                if matches!(kind, RequestKind::Submit { .. }) {
                    tally
                        .handle_submit_ns
                        .push(t1.duration_since(t0).as_nanos() as f64);
                }
                tracer.record("daemon.handle", t0, t1, None, seq);
                seq += 1;
                let accepted = !matches!(body, ResponseBody::Reject(_));
                let _ = reply.send(body);
                if is_shutdown && accepted {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let t0 = Instant::now();
        core.pace(started.elapsed().as_secs_f64());
        let t1 = Instant::now();
        tally.pace_ns += t1.duration_since(t0).as_nanos() as u64;
        tally.pace_calls += 1;
        tracer.record("daemon.pace", t0, t1, None, seq);
    }
    core.flush_stream();
    tally.session_events = core.session().queue_stats().popped;
    core.tap().mark_done();
    server.wait_for_final_query(Duration::from_secs(1));
    server.shutdown();
    tally.tracer = Some(tracer);
    tally
}

impl Server {
    /// Starts a daemon; `traced` swaps `pdpad`'s serve loop for the
    /// timed copy.
    fn start(config: DaemonConfig, traced: bool) -> Result<Server, String> {
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            if traced {
                let core = DaemonCore::new(config)?;
                let (ops_tx, ops_rx) = sync_channel(64);
                let server = StatusServer::bind_with_handler(
                    "127.0.0.1:0",
                    core.tap(),
                    Arc::new(Control { ops: ops_tx }),
                )
                .map_err(|e| format!("cannot bind: {e}"))?;
                let _ = addr_tx.send(server.local_addr().to_string());
                Ok(traced_loop(core, ops_rx, server))
            } else {
                let daemon = bind_daemon(config, None, "127.0.0.1:0")?;
                let _ = addr_tx.send(daemon.local_addr());
                daemon.run()?;
                Ok(CoreTally::default())
            }
        });
        match addr_rx.recv() {
            Ok(addr) => Ok(Server { addr, thread }),
            Err(_) => Err(thread
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?
                .err()
                .unwrap_or_else(|| "daemon exited before binding".to_string())),
        }
    }

    /// Sends `shutdown`, waits until a status reads `done`, hangs up and
    /// joins the daemon thread.
    fn stop(self, conn: &mut Conn) -> Result<CoreTally, String> {
        conn.call(&RequestKind::Shutdown { snapshot: None })?;
        for _ in 0..100 {
            match conn.call(&RequestKind::Status)? {
                ResponseBody::Status(s) if s.state != RunState::Running => break,
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// A client connection; blocking for closed-loop calls, non-blocking
/// while a window drives it.
struct Conn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            inbox: Vec::new(),
            outbox: Vec::new(),
        })
    }

    /// One closed-loop request.
    fn call(&mut self, kind: &RequestKind) -> Result<ResponseBody, String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        let line = Request {
            id: 0,
            kind: kind.clone(),
        }
        .to_line()
            + "\n";
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        loop {
            if let Some(pos) = self.inbox.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.inbox.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line);
                return Response::parse_line(text.trim_end()).map(|r| r.body);
            }
            let mut buf = [0u8; 4096];
            let n = self
                .stream
                .read(&mut buf)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("daemon hung up".to_string());
            }
            self.inbox.extend_from_slice(&buf[..n]);
        }
    }

    /// Writes as much queued output as the socket takes.
    fn flush(&mut self) -> Result<(), String> {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => return Err("daemon hung up".to_string()),
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Reads whatever replies have arrived, parsed.
    fn replies(&mut self, out: &mut Vec<Response>) -> Result<(), String> {
        let mut buf = [0u8; 65536];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("daemon hung up".to_string()),
                Ok(n) => self.inbox.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        self.parse(out)
    }

    /// Blocks until at least one more byte arrives, then parses the
    /// complete replies received so far.
    fn wait_replies(&mut self, out: &mut Vec<Response>) -> Result<(), String> {
        let mut buf = [0u8; 65536];
        match self.stream.read(&mut buf) {
            Ok(0) => return Err("daemon hung up".to_string()),
            Ok(n) => self.inbox.extend_from_slice(&buf[..n]),
            Err(e) => return Err(format!("recv: {e}")),
        }
        self.parse(out)
    }

    /// Moves the complete reply lines out of the inbox.
    fn parse(&mut self, out: &mut Vec<Response>) -> Result<(), String> {
        let mut start = 0;
        while let Some(pos) = self.inbox[start..].iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&self.inbox[start..start + pos]);
            out.push(Response::parse_line(text.trim_end())?);
            start += pos + 1;
        }
        self.inbox.drain(..start);
        Ok(())
    }
}

/// What one open-loop window measured.
#[derive(Debug, Default)]
struct Window {
    /// Submit→ack latencies from due time, seconds (acked submits only).
    ack_s: Vec<f64>,
    /// Status latencies from due time, seconds.
    status_s: Vec<f64>,
    /// How late the generator sent each request, seconds.
    lateness_s: Vec<f64>,
    /// First due to last reply, seconds.
    wall_s: f64,
    /// Starting the window's daemon up to its first `hello`, seconds.
    setup_s: f64,
    attempted: u64,
    failed: u64,
    busy: u64,
    queue_full: u64,
    /// Least-squares growth of the in-flight count over the window,
    /// requests.
    inflight_growth: f64,
    failures: Vec<String>,
}

impl Window {
    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The tail of the ack latencies with every failed submit counted
    /// as missing the limit.
    fn ack_tail_ms(&self) -> f64 {
        let mut samples = self.ack_s.clone();
        samples.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        Dist::of(&samples, 99.0).tail * 1e3
    }

    /// Whether the window met the latency limit without failures beyond
    /// 1 % or a growing backlog.
    fn meets_limit(&self, rate: f64) -> bool {
        self.ack_tail_ms() <= LATENCY_LIMIT_MS
            && self.fail_ratio() <= FAIL_LIMIT
            && self.inflight_growth <= rate * LATENCY_LIMIT_MS / 1e3
    }
}

/// Least-squares slope of `points`, times the span of their x values.
fn growth(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    if sxx <= 0.0 {
        return 0.0;
    }
    let span = points[points.len() - 1].0 - points[0].0;
    sxy / sxx * span
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Blocks until one of `streams` has input or `timeout` has passed.
fn wait_readable(streams: &[&TcpStream], timeout: Duration) {
    const POLLIN: i16 = 1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` and `timeout` outlive the call, which writes only the
    // `revents` fields of the `fds.len()` entries; a null mask keeps the
    // thread's signal mask. An interrupted or failed wait just returns
    // early, and the caller reads whatever has arrived.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &timeout, std::ptr::null());
    }
}

/// Drives one window against the daemon at `addr`, then drains it and
/// checks that every acked job finished.
fn drive(addr: &str, schedule: Schedule, lines: &[String]) -> Result<Window, String> {
    let mut sub = Conn::open(addr)?;
    let mut st = Conn::open(addr)?;
    for c in [&sub, &st] {
        c.stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    }
    let status_line = |j: u64| {
        Request {
            id: j,
            kind: RequestKind::Status,
        }
        .to_line()
            + "\n"
    };
    let n = schedule.submits;
    let ns = schedule.statuses();
    let mut w = Window {
        attempted: n + ns,
        ..Window::default()
    };
    let mut acked = vec![false; n as usize];
    let mut job_ids = Vec::with_capacity(n as usize);
    let (mut next_sub, mut next_st) = (0u64, 0u64);
    let (mut got_sub, mut got_st) = (0u64, 0u64);
    let mut inflight = Vec::with_capacity(n as usize);
    let mut replies = Vec::new();
    let start = Instant::now();
    let mut last_reply = 0.0f64;
    loop {
        let now = start.elapsed().as_secs_f64();
        while next_sub < n && schedule.submit_due(next_sub) <= now {
            sub.outbox
                .extend_from_slice(lines[next_sub as usize].as_bytes());
            w.lateness_s.push(now - schedule.submit_due(next_sub));
            inflight.push((now, (next_sub - got_sub) as f64));
            next_sub += 1;
        }
        while next_st < ns && schedule.status_due(next_st) <= now {
            st.outbox.extend_from_slice(status_line(next_st).as_bytes());
            w.lateness_s.push(now - schedule.status_due(next_st));
            next_st += 1;
        }
        sub.flush()?;
        st.flush()?;

        replies.clear();
        sub.replies(&mut replies)?;
        let now = start.elapsed().as_secs_f64();
        for r in replies.drain(..) {
            let i = r.id;
            got_sub += 1;
            last_reply = now;
            match r.body {
                ResponseBody::Ack(ack) if i < n && !acked[i as usize] => {
                    acked[i as usize] = true;
                    w.ack_s.push(now - schedule.submit_due(i));
                    match ack.job {
                        Some(job) => job_ids.push(job),
                        None => {
                            w.failed += 1;
                            w.failures
                                .push(format!("submit {i} acked without a job id"));
                        }
                    }
                }
                ResponseBody::Reject(rej) => {
                    w.failed += 1;
                    match rej.reason.as_str() {
                        "busy" => w.busy += 1,
                        "queue_full" => w.queue_full += 1,
                        _ => {}
                    }
                }
                other => {
                    w.failed += 1;
                    w.failures
                        .push(format!("submit {i}: unexpected reply {other:?}"));
                }
            }
        }
        st.replies(&mut replies)?;
        let now = start.elapsed().as_secs_f64();
        for r in replies.drain(..) {
            got_st += 1;
            last_reply = now;
            match r.body {
                ResponseBody::Status(_) if r.id < ns => {
                    w.status_s.push(now - schedule.status_due(r.id));
                }
                other => {
                    w.failed += 1;
                    w.failures
                        .push(format!("status {}: unexpected reply {other:?}", r.id));
                }
            }
        }

        if got_sub == n && got_st == ns {
            break;
        }
        let streams = [&sub.stream, &st.stream];
        if next_sub == n && next_st == ns {
            if start.elapsed() > Duration::from_secs_f64(schedule.submit_due(n)) + REPLY_TIMEOUT {
                let missing = (n - got_sub) + (ns - got_st);
                w.failed += missing;
                w.failures.push(format!("{missing} requests timed out"));
                break;
            }
            wait_readable(&streams, Duration::from_millis(1));
            continue;
        }
        let next_due = schedule.submit_due(next_sub).min(if next_st < ns {
            schedule.status_due(next_st)
        } else {
            f64::MAX
        });
        // Between requests the generator waits for replies, so each is
        // timed when it arrives, not when the next request falls due.
        // Waits overshoot by about 50 us. The generator never spins: at
        // high rates it sends the requests that fell due while it waited
        // in one batch, late, and the lateness is charged to them.
        let wait = next_due - start.elapsed().as_secs_f64();
        if wait > 60e-6 {
            wait_readable(&streams, Duration::from_secs_f64(wait - 50e-6));
        } else if wait > 0.0 {
            wait_readable(&streams, Duration::from_micros(1));
        }
    }
    w.wall_s = last_reply;
    w.inflight_growth = growth(&inflight);
    let acks = w.ack_s.len();
    check_drained(&mut sub, job_ids, acks, &mut w)?;
    Ok(w)
}

/// Two checks, each counted as an operation: the `acks` acks carry
/// distinct job ids, and after a drain every acked job is done or failed.
fn check_drained(
    conn: &mut Conn,
    mut job_ids: Vec<u64>,
    acks: usize,
    w: &mut Window,
) -> Result<(), String> {
    w.attempted += 2;
    job_ids.sort_unstable();
    job_ids.dedup();
    if job_ids.len() != acks {
        w.failed += 1;
        w.failures.push(format!(
            "{acks} acks carry only {} distinct job ids",
            job_ids.len()
        ));
    }
    conn.call(&RequestKind::Drain)?;
    match conn.call(&RequestKind::Status)? {
        ResponseBody::Status(s)
            if s.jobs_finished + s.jobs_failed == acks as u64
                && s.jobs_submitted == acks as u64 => {}
        other => {
            w.failed += 1;
            w.failures.push(format!(
                "after drain {acks} acked jobs, but status reads {other:?}"
            ));
        }
    }
    Ok(())
}

/// A closed-loop burst: every submit in `lines` pipelined on one
/// connection, written by a second thread as fast as the daemon reads
/// them. `wall_s` runs from the first send to the last reply, so the
/// burst's ack rate is the daemon's capacity, not a schedule's. Returns
/// the accounting and the acks per second.
fn burst(addr: &str, lines: &[String]) -> Result<(Window, f64), String> {
    let mut sub = Conn::open(addr)?;
    sub.stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = sub.stream.try_clone().map_err(|e| e.to_string())?;
    let payload = lines.concat();
    let n = lines.len() as u64;
    let mut w = Window {
        attempted: n,
        ..Window::default()
    };
    let mut job_ids = Vec::with_capacity(lines.len());
    let mut replies = Vec::new();
    let mut got = 0u64;
    let start = Instant::now();
    let sender = std::thread::spawn(move || writer.write_all(payload.as_bytes()));
    let mut received = Ok(());
    while got < n {
        replies.clear();
        if let Err(e) = sub.wait_replies(&mut replies) {
            received = Err(e);
            break;
        }
        for r in replies.drain(..) {
            got += 1;
            match r.body {
                ResponseBody::Ack(AckBody { job: Some(job), .. }) => job_ids.push(job),
                other => {
                    w.failed += 1;
                    w.failures
                        .push(format!("burst submit {}: unexpected reply {other:?}", r.id));
                }
            }
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    let sent = sender
        .join()
        .map_err(|_| "burst writer panicked".to_string())?;
    if let Err(e) = received {
        w.failed += n - got;
        w.failures
            .push(format!("{} burst replies missing: {e}", n - got));
    }
    sent.map_err(|e| format!("send: {e}"))?;
    let acks = job_ids.len();
    let rate = acks as f64 / w.wall_s;
    check_drained(&mut sub, job_ids, acks, &mut w)?;
    Ok((w, rate))
}

/// Starts a daemon for a window at `rate`, drives it and stops it.
fn window(seed: u64, rate: f64, secs: f64, traced: bool) -> Result<(Window, CoreTally), String> {
    let schedule = Schedule::new(rate, secs);
    let lines = submit_lines(seed, schedule.submits);
    let (server, mut ctl, setup_s) = open_session(daemon_config(seed, rate), traced)?;
    let mut w = drive(&server.addr, schedule, &lines)?;
    w.setup_s = setup_s;
    let tally = server.stop(&mut ctl)?;
    Ok((w, tally))
}

/// Starts a daemon, pipelines a burst of `BURST` submits into it and
/// stops it. Returns the burst's accounting and ack rate.
///
/// With more than one processor, the daemon's threads run on
/// `cpus[k % len]` and the client's on the others. A burst needs every
/// thread of the pipeline, so unpinned it runs at the pace of the slower
/// processor of a host whose processors slow down in phases of their
/// own; pinned, it runs at the pace of the daemon's processor, and the
/// run's bursts take the processors in turn.
fn burst_window(seed: u64, cpus: &[usize], k: usize) -> Result<(Window, f64), String> {
    let lines = submit_lines(seed, BURST);
    let split = cpus.len() > 1;
    let server_cpu = if split { cpus[k % cpus.len()] } else { 0 };
    let clients: Vec<usize> = cpus.iter().copied().filter(|&c| c != server_cpu).collect();
    if split {
        pin_to(&[server_cpu]);
    }
    let session = open_session(daemon_config(seed, BURST_RATE), false);
    if split {
        pin_to(&clients);
    }
    let result = session.and_then(|(server, mut ctl, setup_s)| {
        let (mut w, rate) = burst(&server.addr, &lines)?;
        w.setup_s = setup_s;
        server.stop(&mut ctl)?;
        Ok((w, rate))
    });
    if split {
        pin_to(cpus);
    }
    result
}

/// Set-up as a client sees it: start the daemon, connect, and get the
/// first `hello` answered. Returns the daemon, the control connection
/// and the seconds taken.
fn open_session(config: DaemonConfig, traced: bool) -> Result<(Server, Conn, f64), String> {
    let t = Instant::now();
    let server = Server::start(config, traced)?;
    let mut conn = Conn::open(&server.addr)?;
    match conn.call(&RequestKind::Hello)? {
        ResponseBody::Hello(_) => {}
        other => return Err(format!("hello answered with {other:?}")),
    }
    Ok((server, conn, t.elapsed().as_secs_f64()))
}

/// One rate-search probe: offered rate, whether it met the limit, and
/// the ack rate it achieved.
type Probe = (f64, bool, f64);

/// Searches the highest rate on the 5 % grid around [`SEARCH_FROM`]
/// that meets the limit. Returns the ack rate achieved at that rate and
/// every probe made.
fn max_rate(seed: u64) -> Result<(f64, Vec<Probe>), String> {
    let rate = |k: i32| SEARCH_FROM * RATE_STEP.powi(k);
    let mut probes: Vec<Probe> = Vec::new();
    // A rate fails only when three probes in a row miss the limit, so a
    // host stall cannot end the search early.
    let mut probe = |k: i32| -> Result<bool, String> {
        let r = rate(k);
        for _ in 0..3 {
            let seed = seed.wrapping_add(probes.len() as u64 + 1);
            let (w, _) = window(seed, r, PROBE_SECS, false)?;
            let ok = w.meets_limit(r);
            probes.push((r, ok, w.ack_s.len() as f64 / w.wall_s.max(1e-9)));
            if ok {
                return Ok(true);
            }
        }
        Ok(false)
    };
    // Bracket: step 8 grid points (about 1.5x) until the outcome flips.
    let (mut lo, mut hi) = if probe(0)? {
        let mut k = 0;
        loop {
            if k >= 48 || !probe(k + 8)? {
                break (k, k + 8);
            }
            k += 8;
        }
    } else {
        let mut k = 0;
        loop {
            if k <= -48 || probe(k - 8)? {
                break (k - 8, k);
            }
            k -= 8;
        }
    };
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if probe(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let achieved = probes
        .iter()
        .rev()
        .find(|(r, ok, _)| *ok && *r == rate(lo))
        .map_or(rate(lo), |p| p.2);
    Ok((achieved, probes))
}

/// Runs the workload for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<Report, String> {
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let config = daemon_config(seed.wrapping_add(i as u64), REFERENCE_RATE);
        let (server, mut conn, secs) = open_session(config, false)?;
        server.stop(&mut conn)?;
        setups.push(secs);
    }
    let mut report = Report::new(format!(
        "pdpa on {CPUS} CPUs, demand {DEMAND}, {} s of work a submit on average, \
         reference rate {REFERENCE_RATE}/s open-loop, 1 status per 10 submits",
        mean_work_secs()
    ));
    if trace {
        traced(seed, out, &mut report)?;
        return Ok(report);
    }

    // Each round is one open-loop window and one burst, each against a
    // fresh daemon.
    let started = Instant::now();
    let mut windows = Vec::new();
    let mut burst_rates = Vec::new();
    let cpus = allowed_cpus();
    while windows.is_empty() || started.elapsed().as_secs_f64() + WINDOW_SECS < seconds {
        let (w, _) = window(seed, REFERENCE_RATE, WINDOW_SECS, false)?;
        report.absorb(w.attempted, w.failed, &w.failures);
        setups.push(w.setup_s);
        windows.push(w);
        let (b, rate) = burst_window(
            seed.wrapping_add(windows.len() as u64),
            &cpus,
            burst_rates.len(),
        )?;
        report.absorb(b.attempted, b.failed, &b.failures);
        setups.push(b.setup_s);
        burst_rates.push(rate);
    }
    let acks: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.ack_s.iter().copied())
        .collect();
    let status: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.status_s.iter().copied())
        .collect();
    let late: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.lateness_s.iter().copied())
        .collect();
    if acks.is_empty() {
        return Err("no submit was acked".to_string());
    }
    let ack = Dist::of(&acks, 99.0);
    report.note(format!(
        "ack latency, all windows {}",
        ack.describe(1e3, "ms")
    ));
    let per_window: Vec<Dist> = windows.iter().map(|w| Dist::of(&w.ack_s, 99.0)).collect();
    report.note(format!(
        "ack latency by window (p50/p99 ms): {}",
        per_window
            .iter()
            .map(|d| format!("{:.3}/{:.3}", d.p50 * 1e3, d.tail * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !status.is_empty() {
        report.note(format!(
            "status latency under load {}",
            Dist::of(&status, 99.0).describe(1e3, "ms")
        ));
    }
    report.note(format!(
        "generator lateness {}",
        Dist::of(&late, 99.0).describe(1e3, "ms")
    ));
    report.note(format!(
        "burst ack rates (1/s): {}",
        burst_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "set-up {}",
        Dist::of(&setups, 99.0).describe(1e3, "ms")
    ));
    report.metric("setup_s", median(&setups), "s");
    // Pooled over the run: the daemon's replies wait for the client's
    // delayed ACK in most windows (about the request spacing) and go out
    // at once in a few, so a median over windows could take either mode.
    report.metric("latency_ms", ack.p50 * 1e3, "ms");
    // The best burst: the one whose processor was the least disturbed.
    let best_rate = burst_rates.iter().copied().fold(0.0, f64::max);
    report.metric("throughput_per_s", best_rate, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(report)
}

/// One untraced and one traced reference window plus the idle status
/// round trip: the per-layer metrics.
fn traced(seed: u64, out: &Path, report: &mut Report) -> Result<(), String> {
    // Idle status round trip.
    let server = Server::start(daemon_config(seed, REFERENCE_RATE), false)?;
    let mut conn = Conn::open(&server.addr)?;
    let mut rtt = Vec::with_capacity(IDLE_STATUS);
    for _ in 0..IDLE_STATUS {
        let t = Instant::now();
        conn.call(&RequestKind::Status)?;
        rtt.push(t.elapsed().as_secs_f64());
    }
    server.stop(&mut conn)?;

    let (plain, _) = window(seed, REFERENCE_RATE, WINDOW_SECS, false)?;
    let (timed, tally) = window(seed, REFERENCE_RATE, WINDOW_SECS, true)?;
    for w in [&plain, &timed] {
        report.absorb(w.attempted, w.failed, &w.failures);
    }
    if let Some(tracer) = &tally.tracer {
        crate::write_spans(out, "daemon-submit", seed, tracer)?;
    }
    let handle = Dist::of(&tally.handle_submit_ns, 99.0);
    report.note(format!(
        "DaemonCore::handle(submit) {}",
        handle.describe(1e-3, "us")
    ));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let status = Dist::of(&plain.status_s, 99.0);
    report.metric("daemon.handle_submit_p50_us", handle.p50 * 1e-3, "us");
    report.metric("daemon.handle_submit_p99_us", handle.tail * 1e-3, "us");
    report.metric("daemon.pace_busy_s", tally.pace_ns as f64 * 1e-9, "s");
    report.metric("daemon.pace_calls", tally.pace_calls as f64, "count");
    report.metric(
        "daemon.session_events",
        tally.session_events as f64,
        "count",
    );
    report.metric(
        "daemon.reject_busy",
        (plain.busy + timed.busy) as f64,
        "count",
    );
    report.metric(
        "daemon.reject_queue_full",
        (plain.queue_full + timed.queue_full) as f64,
        "count",
    );
    let (rate, probes) = max_rate(seed)?;
    report.note(format!(
        "rate search (limit: ack p99 <= {LATENCY_LIMIT_MS} ms, <= 1 % failed, no growing \
         backlog): {}",
        probes
            .iter()
            .map(|(r, ok, _)| format!("{r:.0}/s {}", if *ok { "ok" } else { "over" }))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.metric("daemon.max_rate_per_s", rate, "1/s");
    report.metric(
        "daemon.ack_p99_ms",
        Dist::of(&plain.ack_s, 99.0).tail * 1e3,
        "ms",
    );
    report.metric("watch.status_rtt_p50_us", median(&rtt) * 1e6, "us");
    report.metric("watch.status_p99_ms", status.tail * 1e3, "ms");
    report.metric(
        "gen.lateness_p99_ms",
        Dist::of(&plain.lateness_s, 99.0).tail * 1e3,
        "ms",
    );
    report.metric(
        "trace.overhead_ratio",
        ratio(median(&timed.ack_s), median(&plain.ack_s)) - 1.0,
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::new(10_000.0, 2.0);
        assert_eq!(s.submits, 20_000);
        assert_eq!(s.statuses(), 2_000);
        assert_eq!(s.submit_due(0), 0.0);
        assert!((s.submit_due(10_000) - 1.0).abs() < 1e-12);
        assert!((s.submit_due(19_999) - 1.9999).abs() < 1e-12);
        // Status j sits between submits 10j+4 and 10j+5.
        for j in [0, 1, 1_999] {
            assert!(s.status_due(j) > s.submit_due(10 * j + 4));
            assert!(s.status_due(j) < s.submit_due(10 * j + 5));
        }
        // A window never has zero submits.
        assert_eq!(Schedule::new(1.0, 0.1).submits, 1);
    }

    #[test]
    fn time_scale_keeps_demand_fixed() {
        for rate in [1_000.0, 10_000.0, 40_000.0] {
            let c = daemon_config(1, rate);
            // Sim work submitted per sim second over machine capacity.
            let demand = rate * mean_work_secs() / c.time_scale / CPUS as f64;
            assert!((demand - DEMAND).abs() < 1e-12, "{rate}: {demand}");
        }
    }

    #[test]
    fn backlog_growth_is_the_fitted_rise() {
        let flat: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i), 3.0)).collect();
        assert_eq!(growth(&flat), 0.0);
        let rising: Vec<(f64, f64)> = (0..=100)
            .map(|i| (f64::from(i), 2.0 * f64::from(i)))
            .collect();
        assert!((growth(&rising) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn failed_submits_miss_the_latency_limit() {
        let mut w = Window {
            ack_s: vec![0.001; 990],
            attempted: 1_000,
            ..Window::default()
        };
        assert!(w.meets_limit(1_000.0));
        // Failures sit at the top of the distribution. Ten of 1000 leave
        // p99 finite and the ratio at the 1 % limit; the eleventh pushes
        // both over.
        w.failed = 10;
        assert!(w.ack_tail_ms().is_finite());
        assert!(w.meets_limit(1_000.0));
        w.failed = 11;
        assert!(w.ack_tail_ms().is_infinite());
        assert!(!w.meets_limit(1_000.0));
    }

    #[test]
    fn a_burst_acks_every_submit() {
        let (server, mut ctl, setup_s) =
            open_session(daemon_config(5, BURST_RATE), false).expect("daemon starts");
        let (w, rate) = burst(&server.addr, &submit_lines(5, 2_000)).expect("burst runs");
        server.stop(&mut ctl).expect("daemon stops");
        assert!(w.failures.is_empty(), "{:?}", w.failures);
        assert_eq!((w.attempted, w.failed), (2_002, 0));
        assert!(setup_s > 0.0 && rate > 0.0 && w.wall_s > 0.0);
        assert!((rate * w.wall_s - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn a_window_acks_every_submit() {
        let (w, tally) = window(3, 2_000.0, 0.25, true).expect("window runs");
        assert!(w.failures.is_empty(), "{:?}", w.failures);
        assert_eq!(w.failed, 0);
        assert_eq!(w.ack_s.len(), 500);
        assert_eq!(w.status_s.len(), 50);
        assert_eq!(tally.handle_submit_ns.len(), 500);
        assert!(tally.pace_calls > 0 && tally.session_events > 0);
    }
}
