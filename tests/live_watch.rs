//! Live-observability contracts, end to end through the facade.
//!
//! Two guarantees the `pdpa replay --serve` stack rests on:
//!
//! 1. **Determinism**: teeing the stream into a [`LiveTap`] (the
//!    `--serve` chain) must not change the recorded decision-event stream by a single
//!    byte — the tap is a mirror, nothing feeds back into the engine.
//! 2. **Liveness**: a status server over a real engine run answers the
//!    protocol queries, and its terminal `status` totals agree with the
//!    engine's own `RunResult`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdpa_suite::core::Pdpa;
use pdpa_suite::engine::{Engine, EngineConfig, Instrumentation};
use pdpa_suite::obs::{write_text_stream, RecordingObserver, TeeObserver};
use pdpa_suite::prof::HeartbeatConfig;
use pdpa_suite::qs::{generate, GeneratorConfig, Workload};
use pdpa_suite::watch::{
    LiveTap, Request, RequestKind, Response, ResponseBody, RunMeta, RunState, StatusServer,
};

#[test]
fn decision_stream_is_bit_identical_with_and_without_the_tap() {
    let engine = Engine::new(EngineConfig::default().with_seed(42));
    // The w2 mix at full demand over 9,000 s, thirty times the paper's
    // window: long enough to reach a heartbeat check.
    let config = GeneratorConfig {
        composition: Workload::W2.composition(),
        load: 1.0,
        cpus: 60,
        duration_secs: 9_000.0,
        tuned: true,
    };
    let jobs = || generate(&config, 42);
    let policy = || Box::new(Pdpa::paper_default());

    let mut plain_rec = RecordingObserver::new();
    let plain = engine.run_observed(jobs(), policy(), &mut plain_rec);
    assert!(plain.completed_all);

    let tap = LiveTap::new(RunMeta {
        policy: "PDPA".into(),
        trace: "w2".into(),
        jobs_total: jobs().len() as u64,
    });
    let mut tapped_rec = RecordingObserver::new();
    let tapped = {
        let mut feed = &*tap;
        let mut observer = TeeObserver(&mut feed, &mut tapped_rec);
        engine.run_instrumented(
            jobs(),
            policy(),
            &mut observer,
            Instrumentation::none()
                .with_tap(Arc::clone(&tap) as _)
                .with_heartbeat(HeartbeatConfig {
                    every: Duration::ZERO,
                }),
        )
    };
    assert!(tapped.completed_all);
    // The engine checks for a due heartbeat every 65,536 events; a zero
    // interval makes the first check emit, to stderr and to the tap.
    assert!(
        tapped.events_popped >= 65_536,
        "too short to reach a heartbeat check: {} events",
        tapped.events_popped
    );
    let line = tap
        .health_body()
        .heartbeat
        .expect("a heartbeat reached the tap");
    assert!(line.starts_with("heartbeat t+"), "{line}");

    let plain_stream = write_text_stream(&plain_rec.take_events());
    let tapped_stream = write_text_stream(&tapped_rec.take_events());
    assert_eq!(
        plain_stream, tapped_stream,
        "the live tap perturbed the decision-event stream"
    );

    // And the tap's mirror agrees with the run it watched.
    let status = tap.status_body();
    assert_eq!(status.jobs_total, jobs().len() as u64);
    assert_eq!(status.jobs_submitted, jobs().len() as u64);
    assert_eq!(
        status.jobs_finished as usize,
        tapped.summary.outcomes().len()
    );
    assert_eq!(
        status.events_published as usize,
        plain_stream.lines().count()
    );
}

fn query(addr: std::net::SocketAddr, requests: &[Request]) -> Vec<Response> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    for request in requests {
        writer
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .expect("writes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        out.push(Response::parse_line(line.trim_end()).expect("parses"));
    }
    out
}

#[test]
fn status_server_over_a_real_run_reports_the_engine_totals() {
    let jobs = Workload::W2.build(1.0, 42);
    let n_jobs = jobs.len() as u64;
    let tap = LiveTap::new(RunMeta {
        policy: "PDPA".into(),
        trace: "w2".into(),
        jobs_total: n_jobs,
    });
    let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
    let addr = server.local_addr();

    // Drive the engine on another thread, exactly as the CLI wires it.
    let run_tap = Arc::clone(&tap);
    let run = std::thread::spawn(move || {
        let engine = Engine::new(EngineConfig::default().with_seed(42));
        let mut recorder = RecordingObserver::new();
        let result = {
            let mut feed = &*run_tap;
            let mut observer = TeeObserver(&mut feed, &mut recorder);
            engine.run_instrumented(
                jobs,
                Box::new(Pdpa::paper_default()),
                &mut observer,
                Instrumentation::none().with_tap(Arc::clone(&run_tap) as _),
            )
        };
        run_tap.mark_done();
        result
    });

    // Poll like `pdpa watch --follow` until the terminal state shows up.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = None;
    while Instant::now() < deadline {
        let responses = query(
            addr,
            &[
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
                    kind: RequestKind::Tail { n: 8 },
                },
            ],
        );
        assert_eq!(responses.len(), 3);
        let ResponseBody::Status(status) = &responses[0].body else {
            panic!("expected status, got {:?}", responses[0].body);
        };
        let done = status.state == RunState::Done;
        last = Some(responses);
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let result = run.join().expect("engine thread");
    assert!(result.completed_all);

    let responses = last.expect("polled at least once");
    let ResponseBody::Status(status) = &responses[0].body else {
        unreachable!()
    };
    assert_eq!(status.state, RunState::Done, "run never reached done");
    assert_eq!(status.jobs_total, n_jobs);
    assert_eq!(status.jobs_submitted, n_jobs);
    assert_eq!(
        status.jobs_finished as usize,
        result.summary.outcomes().len()
    );
    assert!(status.watchdog.is_none());
    let ResponseBody::Tail(tail) = &responses[2].body else {
        panic!("expected tail, got {:?}", responses[2].body);
    };
    assert!(!tail.events.is_empty(), "tail of a finished run is empty");

    server.wait_for_final_query(Duration::from_secs(10));
    server.shutdown();
}
