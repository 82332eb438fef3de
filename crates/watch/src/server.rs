//! The TCP status server behind `pdpa replay --serve`.
//!
//! A tiny thread-per-connection server over std::net, shared by
//! `pdpa replay --serve` and the `pdpad` daemon. Each connection speaks
//! the line-delimited protocol of [`proto`](crate::proto): one response
//! line per request line, in request order, until the client hangs up.
//! All answers come from the [`LiveTap`] mirror, the global metrics
//! registry, or the [`ControlHandler`]; server threads never touch engine
//! state, so a slow or misbehaving client cannot perturb the run.
//!
//! Connections:
//!
//! - Sockets run with `TCP_NODELAY`, so a reply is not held back by
//!   Nagle's algorithm until the client acknowledges the one before.
//! - Clients may pipeline. Replies collect in one per-connection buffer,
//!   written out in one call once no further complete request line is
//!   buffered (or the buffer passes `FLUSH_BYTES`), so a lone request is
//!   answered at once and a pipelined batch goes out in one syscall.
//! - A request line longer than `MAX_LINE_BYTES` is answered with an
//!   `error` frame (id 0) and the connection is closed; a line that is
//!   not UTF-8 gets an `error` frame and the connection keeps serving.
//! - At most `MAX_CONNECTIONS` connections are open at once; the excess
//!   gets one `error` frame and is closed without a thread.
//!
//! Lifecycle: the CLI binds before the run starts (printing the actual
//! bound address, so `--serve 127.0.0.1:0` works for CI), lets the run
//! drive, then calls [`StatusServer::wait_for_final_query`] so a polling
//! client can observe the terminal state before the process exits, and
//! finally [`StatusServer::shutdown`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdpa_obs::Registry;

use crate::prom::prometheus_text;
use crate::proto::{
    HelloBody, RejectBody, Request, RequestKind, Response, ResponseBody, RunState, PROTO_VERSION,
};
use crate::tap::LiveTap;

/// Longest request line, newline excluded, that a connection accepts; far
/// above any legal request.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// Buffered reply bytes that force a write even while further requests
/// are already buffered.
const FLUSH_BYTES: usize = 64 * 1024;
/// Connections served at once; the accept loop refuses the excess.
const MAX_CONNECTIONS: u64 = 256;
/// How long a connection may wait on its client, reading or writing.
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a connection closed for an over-long line keeps discarding
/// input, so its error frame is not lost to a reset.
const LINGER: Duration = Duration::from_secs(1);

/// Serves the v2 control vocabulary (`submit`, `cancel`, `drain`,
/// `snapshot`, `shutdown`, `jobs`, `job`, and the `hello` identity
/// exchange). The read-only replay server uses [`ReadOnlyControl`], which
/// answers `hello` and rejects everything else with `not_a_daemon`; the
/// `pdpad` daemon installs a handler that round-trips ops to the engine
/// loop. Handlers run on connection threads, so they must be thread-safe
/// and must never block on the engine.
pub trait ControlHandler: Send + Sync {
    /// Answers one control request. Query kinds never reach the handler.
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody;
}

/// The default [`ControlHandler`]: identifies the server as `replay` and
/// rejects every mutating request with the stable `not_a_daemon` code, so
/// a v2 client pointed at `pdpa replay --serve` gets a typed refusal, not
/// a protocol error.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadOnlyControl;

impl ControlHandler for ReadOnlyControl {
    fn control(&self, kind: &RequestKind, tap: &LiveTap) -> ResponseBody {
        match kind {
            RequestKind::Hello => ResponseBody::Hello(HelloBody {
                proto: PROTO_VERSION,
                server: "replay".to_string(),
                policy: tap.status_body().policy,
                state: tap.state(),
            }),
            _ => ResponseBody::Reject(RejectBody {
                reason: "not_a_daemon".to_string(),
                retry_after_secs: None,
            }),
        }
    }
}

/// Shared bookkeeping between the accept loop, connection handlers, and
/// the owning CLI thread.
#[derive(Debug, Default)]
struct ServerShared {
    stop: AtomicBool,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Currently open connections.
    active: AtomicU64,
    /// Set once any request has been answered while the tap was in a
    /// terminal state — a client has seen the final status.
    final_query_served: AtomicBool,
}

/// A running status server. Dropping it without [`StatusServer::shutdown`]
/// leaks the accept thread until process exit (harmless, but tests and the
/// CLI shut down explicitly).
#[derive(Debug)]
pub struct StatusServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `tap` read-only: queries from the tap, control requests
    /// politely rejected by [`ReadOnlyControl`].
    pub fn bind<A: ToSocketAddrs>(addr: A, tap: Arc<LiveTap>) -> std::io::Result<StatusServer> {
        Self::bind_with_handler(addr, tap, Arc::new(ReadOnlyControl))
    }

    /// Binds like [`bind`](Self::bind) but with a custom control handler —
    /// how `pdpad` turns the status server into a full service endpoint.
    pub fn bind_with_handler<A: ToSocketAddrs>(
        addr: A,
        tap: Arc<LiveTap>,
        handler: Arc<dyn ControlHandler>,
    ) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared::default());
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pdpa-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    accept_shared.accepted.fetch_add(1, Ordering::Relaxed);
                    if accept_shared.active.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                        refuse(
                            &stream,
                            &format!("too many connections (max {MAX_CONNECTIONS})"),
                        );
                        continue;
                    }
                    accept_shared.active.fetch_add(1, Ordering::Relaxed);
                    let tap = Arc::clone(&tap);
                    let shared = Arc::clone(&accept_shared);
                    let handler = Arc::clone(&handler);
                    let _ = std::thread::Builder::new()
                        .name("pdpa-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &tap, handler.as_ref(), &shared);
                            shared.active.fetch_sub(1, Ordering::Relaxed);
                        });
                }
            })?;
        Ok(StatusServer {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Gives a polling client a window to observe the terminal run state:
    /// returns once some request has been answered post-completion and no
    /// connection is still open — immediately if no client ever connected
    /// — or after `timeout`. Call after marking the tap done/aborted.
    pub fn wait_for_final_query(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.shared.accepted.load(Ordering::Relaxed) == 0 {
                return;
            }
            if self.shared.final_query_served.load(Ordering::Relaxed)
                && self.shared.active.load(Ordering::Relaxed) == 0
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops accepting and joins the accept thread. Open connections are
    /// abandoned (their threads end when the client hangs up or the
    /// process exits).
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Poke the blocking accept() so the loop observes the stop flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn error_frame(message: String) -> Response {
    Response {
        id: 0,
        body: ResponseBody::Error { message },
    }
}

/// Answers a connection the server will not serve with one `error` frame
/// and closes it.
fn refuse(mut stream: &TcpStream, message: &str) {
    let line = error_frame(message.to_string()).to_line() + "\n";
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
}

/// Outcome of reading one request line.
enum LineRead {
    /// A line is in the buffer, its terminator stripped.
    Line,
    /// The client hung up (or half-closed) with no partial line pending.
    Eof,
    /// The line passed `MAX_LINE_BYTES` before its newline.
    TooLong,
}

/// Reads one request line into `line`, never buffering more than
/// `MAX_LINE_BYTES` plus its newline.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<LineRead> {
    line.clear();
    let n = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_LINE_BYTES {
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

fn handle_connection(
    stream: TcpStream,
    tap: &LiveTap,
    handler: &dyn ControlHandler,
    shared: &ServerShared,
) {
    let _ = stream.set_nodelay(true);
    // A stuck client, silent or no longer reading its replies, should
    // not pin a handler thread (and a connection slot) forever.
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IDLE_TIMEOUT));
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    let mut line = Vec::new();
    let mut replies = String::new();
    // Whether a buffered reply shows the terminal state; it counts for
    // `wait_for_final_query` only once written.
    let mut terminal_reply_buffered = false;
    loop {
        let read = read_request_line(&mut reader, &mut line);
        let too_long = matches!(read, Ok(LineRead::TooLong));
        let hung_up = matches!(read, Ok(LineRead::Eof) | Err(_));
        let response = if hung_up {
            None
        } else if too_long {
            Some(error_frame(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            )))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => None,
                Ok(text) => {
                    // States only leave `Running`, so a reply computed
                    // after this check shows the terminal state.
                    let terminal = tap.state() != RunState::Running;
                    Some(match Request::parse_line(text) {
                        Ok(request) => {
                            terminal_reply_buffered |= terminal;
                            answer(&request, tap, handler)
                        }
                        Err(message) => error_frame(message),
                    })
                }
                Err(_) => Some(error_frame("request is not valid UTF-8".to_string())),
            }
        };
        if let Some(response) = response {
            response.push_line(&mut replies);
            replies.push('\n');
        }
        // Write once no further complete request is buffered: the next
        // read may block, and the client may be waiting on these replies.
        let input_drained = hung_up || too_long || !reader.buffer().contains(&b'\n');
        if input_drained || replies.len() >= FLUSH_BYTES {
            if writer.write_all(replies.as_bytes()).is_err() {
                return;
            }
            replies.clear();
            if terminal_reply_buffered {
                shared.final_query_served.store(true, Ordering::Relaxed);
            }
        }
        if hung_up {
            return;
        }
        if too_long {
            // Half-close so the client reads the error frame then EOF,
            // and drain its input for a moment so closing with unread
            // bytes does not reset the connection under that frame.
            let _ = stream.shutdown(Shutdown::Write);
            let _ = stream.set_read_timeout(Some(LINGER));
            let deadline = Instant::now() + LINGER;
            let mut scratch = [0u8; 8192];
            while Instant::now() < deadline {
                match reader.read(&mut scratch) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            return;
        }
    }
}

fn answer(request: &Request, tap: &LiveTap, handler: &dyn ControlHandler) -> Response {
    let body = match &request.kind {
        RequestKind::Status => ResponseBody::Status(tap.status_body()),
        RequestKind::Progress => ResponseBody::Progress(tap.progress_body()),
        RequestKind::Health => ResponseBody::Health(tap.health_body()),
        RequestKind::Metrics => ResponseBody::Metrics {
            format: "prometheus".to_string(),
            body: prometheus_text(Registry::global()),
        },
        RequestKind::Tail { n } => ResponseBody::Tail(tap.tail_body(*n)),
        control => handler.control(control, tap),
    };
    Response {
        id: request.id,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::RunMeta;
    use pdpa_obs::ObsEvent;
    use pdpa_sim::{JobId, SimTime};

    fn query(addr: SocketAddr, lines: &[String]) -> Vec<Response> {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for line in lines {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("writes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            out.push(Response::parse_line(reply.trim_end()).expect("parses"));
        }
        out
    }

    #[test]
    fn serves_all_query_types_over_one_connection() {
        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "t.swf".into(),
            jobs_total: 10,
        });
        tap.observe(
            SimTime::from_secs(1.0),
            &ObsEvent::JobSubmitted { job: JobId(0) },
        );
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let addr = server.local_addr();

        let requests: Vec<String> = [
            Request {
                id: 1,
                kind: RequestKind::Status,
            },
            Request {
                id: 2,
                kind: RequestKind::Progress,
            },
            Request {
                id: 3,
                kind: RequestKind::Health,
            },
            Request {
                id: 4,
                kind: RequestKind::Metrics,
            },
            Request {
                id: 5,
                kind: RequestKind::Tail { n: 5 },
            },
        ]
        .iter()
        .map(Request::to_line)
        .collect();
        let responses = query(addr, &requests);

        assert_eq!(responses.len(), 5);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.id, i as u64 + 1, "ids echo in order");
        }
        match &responses[0].body {
            ResponseBody::Status(s) => {
                assert_eq!(s.policy, "PDPA");
                assert_eq!(s.jobs_total, 10);
                assert_eq!(s.jobs_submitted, 1);
                assert_eq!(s.state, RunState::Running);
            }
            other => panic!("expected status, got {other:?}"),
        }
        match &responses[3].body {
            ResponseBody::Metrics { format, body } => {
                assert_eq!(format, "prometheus");
                assert!(body.contains("pdpa_engine_runs_total"));
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match &responses[4].body {
            ResponseBody::Tail(t) => {
                assert_eq!(t.events.len(), 1);
                assert!(t.events[0].contains("submit"));
            }
            other => panic!("expected tail, got {other:?}"),
        }

        assert_eq!(server.connections(), 1);
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_response() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let responses = query(server.local_addr(), &["not json at all".to_string()]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].id, 0);
        assert!(matches!(responses[0].body, ResponseBody::Error { .. }));
        server.shutdown();
    }

    fn request(id: u64, kind: RequestKind) -> String {
        Request { id, kind }.to_line() + "\n"
    }

    fn read_reply(reader: &mut impl BufRead) -> Response {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads a reply");
        Response::parse_line(reply.trim_end()).expect("parses")
    }

    fn assert_eof(reader: &mut impl BufRead) {
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).expect("reads EOF"),
            0,
            "got {rest:?}"
        );
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        (stream, reader)
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let (mut stream, mut reader) = connect(server.local_addr());

        // Five queries and a malformed line in one write; the trailing
        // blank line must not strand the buffered replies.
        let mut batch = String::new();
        batch += &request(1, RequestKind::Status);
        batch += &request(2, RequestKind::Progress);
        batch += &request(3, RequestKind::Health);
        batch += "not json at all\n";
        batch += &request(4, RequestKind::Tail { n: 2 });
        batch += &request(5, RequestKind::Hello);
        batch += "\n";
        stream.write_all(batch.as_bytes()).expect("writes");
        let replies: Vec<Response> = (0..6).map(|_| read_reply(&mut reader)).collect();
        let ids: Vec<u64> = replies.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3, 0, 4, 5], "ids echo in request order");
        assert!(matches!(replies[0].body, ResponseBody::Status(_)));
        assert!(matches!(replies[3].body, ResponseBody::Error { .. }));
        assert!(matches!(replies[5].body, ResponseBody::Hello(_)));

        // A lone request afterwards is answered without more input (the
        // clone shares the socket, so this timeout covers the reader).
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .expect("read timeout");
        stream
            .write_all(request(6, RequestKind::Status).as_bytes())
            .expect("writes");
        assert_eq!(read_reply(&mut reader).id, 6);
        server.shutdown();
    }

    #[test]
    fn non_utf8_line_gets_an_error_and_the_connection_keeps_serving() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let (mut stream, mut reader) = connect(server.local_addr());
        stream.write_all(b"{\"id\":1,\xff\xfe}\n").expect("writes");
        let reply = read_reply(&mut reader);
        assert_eq!(reply.id, 0);
        assert!(matches!(reply.body, ResponseBody::Error { .. }));
        stream
            .write_all(request(2, RequestKind::Status).as_bytes())
            .expect("writes");
        assert_eq!(read_reply(&mut reader).id, 2);
        server.shutdown();
    }

    /// Without the parser's nesting cap, this line overflows the
    /// connection thread's stack and aborts the process.
    #[test]
    fn deeply_nested_line_gets_an_error_and_the_server_keeps_serving() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let (mut stream, mut reader) = connect(server.local_addr());
        let line = "[".repeat(60_000) + "\n";
        stream.write_all(line.as_bytes()).expect("writes");
        let reply = read_reply(&mut reader);
        assert_eq!(reply.id, 0);
        match &reply.body {
            ResponseBody::Error { message } => assert!(message.contains("nesting"), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
        drop((stream, reader));

        let (mut stream, mut reader) = connect(server.local_addr());
        stream
            .write_all(request(1, RequestKind::Hello).as_bytes())
            .expect("writes");
        assert!(matches!(
            read_reply(&mut reader).body,
            ResponseBody::Hello(_)
        ));
        server.shutdown();
    }

    #[test]
    fn over_long_line_gets_an_error_then_eof() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let (stream, mut reader) = connect(server.local_addr());
        // 1 MiB with no newline, from a second thread: the server stops
        // reading it partway, so the write may end early.
        let mut writer = stream.try_clone().expect("clones");
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        });
        let reply = read_reply(&mut reader);
        assert_eq!(reply.id, 0);
        match reply.body {
            ResponseBody::Error { message } => assert!(message.contains("exceeds"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }
        assert_eof(&mut reader);
        flood.join().expect("flood thread");

        // The server itself is unharmed.
        let (mut stream, mut reader) = connect(server.local_addr());
        stream
            .write_all(request(1, RequestKind::Status).as_bytes())
            .expect("writes");
        assert_eq!(read_reply(&mut reader).id, 1);
        server.shutdown();
    }

    #[test]
    fn connections_over_the_cap_are_refused_with_an_error() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let addr = server.local_addr();
        // A round trip on each proves it is accepted and counted.
        let mut open: Vec<_> = (0..MAX_CONNECTIONS)
            .map(|i| {
                let (mut stream, mut reader) = connect(addr);
                stream
                    .write_all(request(i, RequestKind::Health).as_bytes())
                    .expect("writes");
                assert_eq!(read_reply(&mut reader).id, i);
                (stream, reader)
            })
            .collect();

        let (_over, mut reader) = connect(addr);
        match read_reply(&mut reader).body {
            ResponseBody::Error { message } => {
                assert!(message.contains("too many connections"), "{message}")
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eof(&mut reader);

        // Closing one frees a slot.
        drop(open.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (mut stream, mut reader) = connect(addr);
            let _ = stream.write_all(request(7, RequestKind::Status).as_bytes());
            let reply = read_reply(&mut reader);
            if reply.id == 7 {
                break;
            }
            assert!(Instant::now() < deadline, "no slot freed: {reply:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(open);
        server.shutdown();
    }

    #[test]
    fn read_only_server_answers_hello_and_rejects_control() {
        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "t.swf".into(),
            jobs_total: 1,
        });
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let responses = query(
            server.local_addr(),
            &[
                Request {
                    id: 1,
                    kind: RequestKind::Hello,
                }
                .to_line(),
                Request {
                    id: 2,
                    kind: RequestKind::Submit {
                        class: "swim".into(),
                        request: None,
                        work_secs: None,
                    },
                }
                .to_line(),
            ],
        );
        match &responses[0].body {
            ResponseBody::Hello(h) => {
                assert_eq!(h.proto, PROTO_VERSION);
                assert_eq!(h.server, "replay");
                assert_eq!(h.policy, "PDPA");
            }
            other => panic!("expected hello, got {other:?}"),
        }
        match &responses[1].body {
            ResponseBody::Reject(r) => {
                assert_eq!(r.reason, "not_a_daemon");
                assert!(r.retry_after_secs.is_none());
            }
            other => panic!("expected reject, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn wait_for_final_query_is_immediate_without_clients() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        tap.mark_done();
        let start = Instant::now();
        server.wait_for_final_query(Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "no client ever connected, wait must return immediately"
        );
        server.shutdown();
    }

    #[test]
    fn wait_for_final_query_returns_after_post_done_status() {
        let tap = LiveTap::new(RunMeta::default());
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let addr = server.local_addr();
        tap.mark_done();
        let responses = query(
            addr,
            &[Request {
                id: 1,
                kind: RequestKind::Status,
            }
            .to_line()],
        );
        match &responses[0].body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Done),
            other => panic!("expected status, got {other:?}"),
        }
        let start = Instant::now();
        server.wait_for_final_query(Duration::from_secs(10));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "final query already served"
        );
        server.shutdown();
    }
}
