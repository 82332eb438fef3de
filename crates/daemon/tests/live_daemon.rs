//! End-to-end: a real `pdpad` on a real socket.
//!
//! Covers the acceptance criterion that the *unmodified* v1 query
//! vocabulary (`status`, `progress`, `health`, `tail`) works against a
//! daemon — a pre-daemon `pdpa watch` client needs no changes — plus the
//! v2 control cycle over TCP: hello, submit, jobs/job, cancel, drain,
//! shutdown.
//!
//! Like the CLI, these tests run the serve loop on the current thread and
//! drive the client from a spawned one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use pdpa_daemon::{bind_daemon, DaemonConfig};
use pdpa_watch::{Request, RequestKind, Response, ResponseBody, RunState, PROTO_VERSION};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to pdpad");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
            next_id: 0,
        }
    }

    fn ask(&mut self, kind: RequestKind) -> ResponseBody {
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            kind,
        };
        self.writer
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        let response = Response::parse_line(line.trim_end()).expect("parse response");
        assert_eq!(response.id, request.id, "correlation id echoes");
        response.body
    }
}

/// Best-effort shutdown so a failed client assertion cannot leave the
/// serve loop (and the test) hanging.
fn try_shutdown(addr: &str) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let line = Request {
            id: u64::MAX,
            kind: RequestKind::Shutdown { snapshot: None },
        }
        .to_line();
        let _ = stream.write_all(format!("{line}\n").as_bytes());
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut buf = String::new();
        let _ = BufReader::new(stream).read_line(&mut buf);
    }
}

/// Binds a daemon, runs its serve loop here, and drives `script` against
/// it from a client thread. Returns the daemon's closing summary.
fn with_daemon(
    config: DaemonConfig,
    restore: Option<&str>,
    script: impl FnOnce(&mut Client) + Send + 'static,
) -> String {
    let daemon = bind_daemon(config, restore, "127.0.0.1:0").expect("bind pdpad");
    let addr = daemon.local_addr();
    let client_addr = addr.clone();
    let client = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut client = Client::connect(&client_addr);
            script(&mut client);
        }));
        if outcome.is_err() {
            try_shutdown(&client_addr);
        }
        outcome
    });
    let summary = daemon.run().expect("daemon serve loop");
    match client.join().expect("client thread") {
        Ok(()) => summary,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

fn quiet() -> DaemonConfig {
    DaemonConfig {
        time_scale: 0.0,
        ..DaemonConfig::default()
    }
}

fn submit(class: &str) -> RequestKind {
    RequestKind::Submit {
        class: class.to_string(),
        request: None,
        work_secs: Some(500.0),
    }
}

#[test]
fn daemon_serves_v1_queries_and_v2_control_over_tcp() {
    let summary = with_daemon(quiet(), None, |client| {
        // hello: the daemon identifies itself and its protocol.
        let ResponseBody::Hello(hello) = client.ask(RequestKind::Hello) else {
            panic!("expected hello body");
        };
        assert_eq!(hello.server, "pdpad");
        assert_eq!(hello.proto, PROTO_VERSION);
        assert_eq!(hello.state, RunState::Running);

        // Admit work, then interrogate it.
        let ResponseBody::Ack(ack) = client.ask(submit("swim")) else {
            panic!("expected submit ack");
        };
        assert_eq!(ack.job, Some(0));
        let ResponseBody::Ack(_) = client.ask(submit("apsi")) else {
            panic!("expected second ack");
        };

        // The unmodified v1 query subset, served on the same socket.
        let ResponseBody::Status(status) = client.ask(RequestKind::Status) else {
            panic!("expected status body");
        };
        assert_eq!(status.proto, PROTO_VERSION);
        assert_eq!(status.jobs_total, 2, "admissions grow the live total");
        assert_eq!(status.state, RunState::Running);
        let ResponseBody::Progress(_) = client.ask(RequestKind::Progress) else {
            panic!("expected progress body");
        };
        let ResponseBody::Health(_) = client.ask(RequestKind::Health) else {
            panic!("expected health body");
        };
        let ResponseBody::Tail(tail) = client.ask(RequestKind::Tail { n: 16 }) else {
            panic!("expected tail body");
        };
        assert!(
            !tail.events.is_empty(),
            "submissions published observer events into the ring"
        );

        // Registry queries.
        let ResponseBody::Jobs(rows) = client.ask(RequestKind::Jobs { n: 10 }) else {
            panic!("expected jobs body");
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].class, "swim");
        let ResponseBody::Job(row) = client.ask(RequestKind::Job { job: 1 }) else {
            panic!("expected job body");
        };
        assert_eq!(row.job, 1);
        let ResponseBody::Reject(reject) = client.ask(RequestKind::Job { job: 99 }) else {
            panic!("expected unknown_job reject");
        };
        assert_eq!(reject.reason, "unknown_job");

        // Cancel one, drain the rest.
        let ResponseBody::Ack(ack) = client.ask(RequestKind::Cancel { job: 1 }) else {
            panic!("expected cancel ack");
        };
        assert_eq!(ack.job, Some(1));
        let ResponseBody::Ack(_) = client.ask(RequestKind::Drain) else {
            panic!("expected drain ack");
        };
        let ResponseBody::Job(row) = client.ask(RequestKind::Job { job: 0 }) else {
            panic!("expected job row after drain");
        };
        assert_eq!(row.state, "done");
        let ResponseBody::Job(row) = client.ask(RequestKind::Job { job: 1 }) else {
            panic!("expected cancelled row");
        };
        assert_eq!(row.state, "cancelled");

        // A draining daemon refuses new work with the stable code.
        let ResponseBody::Reject(reject) = client.ask(submit("swim")) else {
            panic!("expected draining reject");
        };
        assert_eq!(reject.reason, "draining");

        // Shutdown: acknowledged, then the serve loop returns.
        let ResponseBody::Ack(_) = client.ask(RequestKind::Shutdown { snapshot: None }) else {
            panic!("expected shutdown ack");
        };
    });
    assert!(summary.contains("pdpad: shut down"), "got: {summary}");
    assert!(summary.contains("2 jobs"), "got: {summary}");
}

#[test]
fn snapshot_over_the_wire_restores_into_a_new_daemon() {
    let dir = std::env::temp_dir().join(format!("pdpa-daemon-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snap = dir.join("wire.snapshot");
    let snap_str = snap.to_string_lossy().into_owned();

    let script_snap = snap_str.clone();
    with_daemon(quiet(), None, move |client| {
        client.ask(submit("swim"));
        client.ask(submit("bt.A"));
        let ResponseBody::Ack(ack) = client.ask(RequestKind::Snapshot {
            path: Some(script_snap.clone()),
        }) else {
            panic!("expected snapshot ack");
        };
        assert_eq!(ack.info.as_deref(), Some(script_snap.as_str()));
        client.ask(RequestKind::Shutdown { snapshot: None });
    });

    // The snapshot file restores into a fresh daemon that still knows
    // both jobs and finishes them.
    with_daemon(quiet(), Some(&snap_str), |client| {
        let ResponseBody::Status(status) = client.ask(RequestKind::Status) else {
            panic!("expected status");
        };
        assert_eq!(status.jobs_total, 2, "restored daemon knows both jobs");
        let ResponseBody::Ack(_) = client.ask(RequestKind::Drain) else {
            panic!("expected drain ack");
        };
        let ResponseBody::Job(row) = client.ask(RequestKind::Job { job: 1 }) else {
            panic!("expected job row");
        };
        assert_eq!(row.state, "done");
        client.ask(RequestKind::Shutdown { snapshot: None });
    });

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_submits_are_acked_in_order() {
    const N: u64 = 2_000;
    let config = DaemonConfig {
        max_queue: N as usize,
        ..quiet()
    };
    with_daemon(config, None, |client| {
        // Every submit in one write, from a second thread so the acks
        // can flow back while the batch is still going out.
        let batch: String = (1..=N)
            .map(|id| {
                Request {
                    id,
                    kind: RequestKind::Submit {
                        class: "swim".to_string(),
                        request: None,
                        work_secs: Some(5.0),
                    },
                }
                .to_line()
                    + "\n"
            })
            .collect();
        let mut writer = client.writer.try_clone().expect("clone stream");
        let sender = std::thread::spawn(move || writer.write_all(batch.as_bytes()));
        let mut jobs = std::collections::HashSet::new();
        for id in 1..=N {
            let mut line = String::new();
            client.reader.read_line(&mut line).expect("read ack");
            let response = Response::parse_line(line.trim_end()).expect("parse ack");
            assert_eq!(response.id, id, "acks arrive in request order");
            let ResponseBody::Ack(ack) = response.body else {
                panic!("expected ack for submit {id}, got {:?}", response.body);
            };
            assert!(
                jobs.insert(ack.job.expect("job id")),
                "job ids are distinct"
            );
        }
        sender.join().expect("sender thread").expect("send batch");
        client.next_id = N;

        let ResponseBody::Ack(_) = client.ask(RequestKind::Drain) else {
            panic!("expected drain ack");
        };
        let ResponseBody::Status(status) = client.ask(RequestKind::Status) else {
            panic!("expected status");
        };
        assert_eq!(status.jobs_finished + status.jobs_failed, N);
        client.ask(RequestKind::Shutdown { snapshot: None });
    });
}

#[test]
fn hello_answers_even_without_a_serve_loop() {
    // `hello` is answered on the connection thread without the core's
    // lock, so liveness probes work even while the core is busy (here:
    // with no serve loop running at all).
    let daemon = bind_daemon(quiet(), None, "127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let mut client = Client::connect(&addr);
    let ResponseBody::Hello(hello) = client.ask(RequestKind::Hello) else {
        panic!("expected hello without a serve loop");
    };
    assert_eq!(hello.server, "pdpad");
    drop(client);
    drop(daemon);
}
