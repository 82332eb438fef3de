//! Hostile-input suite for the JSON boundary.
//!
//! Real documents of every kind the workspace reads back — a daemon
//! snapshot, every status-protocol request and response the daemon
//! answers, a `pdpa-analyze/v1` document, a tournament report and both
//! Chrome traces — are truncated, bit-flipped and padded with inserted
//! bytes, and every result is held to the parser's contract:
//!
//! - `Json::parse` and the typed readers on top of it never panic;
//! - every parse error names the byte offset it stopped at.
//!
//! The parser is also pinned to linear time on a snapshot-sized input,
//! names written into JSON are escaped wherever they appear, and the
//! parsed tree borrows every string and key that holds no escape.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pdpa_bench::experiments::tournament::{run_tournament, TournamentConfig};
use pdpa_daemon::{DaemonConfig, DaemonCore, Op, Snapshot, SnapshotCheck, SnapshotConfig};
use pdpa_suite::analyze::{analysis_json, RunAnalysis};
use pdpa_suite::obs::json::{push_str_escaped, Json};
use pdpa_suite::obs::{
    chrome_trace, span_trace, ObsEvent, RecordingObserver, StateName, TimedEvent,
};
use pdpa_suite::prelude::*;
use pdpa_suite::watch::{prometheus_text, Request, RequestKind, Response, ResponseBody};

/// What a document is, which decides the typed reader it also goes
/// through.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Snapshot,
    Request,
    Response,
    Other,
}

/// A snapshot-shaped document with `ops` journaled submits and cancels.
fn snapshot(ops: usize) -> Snapshot {
    Snapshot {
        proto: pdpa_suite::watch::PROTO_VERSION,
        config: SnapshotConfig {
            policy: "pdpa".to_string(),
            cpus: 60,
            seed: 7,
            backfill: true,
            max_sim_secs: 600_000.0,
        },
        draining: false,
        barrier_secs: ops as f64 * 3.5,
        ops: (0..ops)
            .map(|i| match i % 8 {
                7 => Op::Cancel {
                    at_secs: i as f64 * 3.25,
                    job: i as u64 / 2,
                },
                _ => Op::Submit {
                    at_secs: i as f64 * 3.25,
                    class: ["swim", "bt.A", "hydro2d", "apsi"][i % 4].to_string(),
                    request: (i % 3 == 0).then_some(16),
                    work_secs: (i % 2 == 0).then_some(120.5 + i as f64),
                },
            })
            .collect(),
        check: SnapshotCheck {
            events_published: 99_999,
            pushed: 40_000,
            popped: 38_000,
            stale_drops: 3,
            jobs_submitted: ops as u64,
            jobs_finished: ops as u64 / 2,
            jobs_failed: 1,
            clock_secs: 1200.25,
        },
    }
}

/// Every request kind the daemon answers without touching the file
/// system, and its response, driven through a real `DaemonCore`; plus
/// the tap's query bodies, a metrics frame and an error frame.
fn protocol_lines() -> Vec<(Kind, String)> {
    let mut core = DaemonCore::new(DaemonConfig {
        max_queue: 2,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let kinds = [
        RequestKind::Hello,
        RequestKind::Submit {
            class: "swim".into(),
            request: Some(16),
            work_secs: None,
        },
        RequestKind::Submit {
            class: "bt.A".into(),
            request: None,
            work_secs: Some(90.5),
        },
        RequestKind::Submit {
            class: "hydro2d".into(),
            request: None,
            work_secs: None,
        },
        RequestKind::Submit {
            class: "BT".into(),
            request: None,
            work_secs: None,
        },
        RequestKind::Cancel { job: 0 },
        RequestKind::Jobs { n: 10 },
        RequestKind::Job { job: 1 },
        RequestKind::Job { job: 77 },
        RequestKind::Drain,
        RequestKind::Submit {
            class: "apsi".into(),
            request: None,
            work_secs: None,
        },
        RequestKind::Status,
    ];
    let mut lines = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let body = core.handle(&kind, i as f64 * 2.5);
        let id = i as u64 + 1;
        lines.push((Kind::Request, Request { id, kind }.to_line()));
        lines.push((Kind::Response, Response { id, body }.to_line()));
    }
    let tap = core.tap();
    for body in [
        ResponseBody::Status(tap.status_body()),
        ResponseBody::Progress(tap.progress_body()),
        ResponseBody::Health(tap.health_body()),
        ResponseBody::Tail(tap.tail_body(8)),
        ResponseBody::Metrics {
            format: "prometheus".into(),
            body: prometheus_text(pdpa_suite::obs::Registry::global()),
        },
        ResponseBody::Error {
            message: "unknown request type \"bogus\"".into(),
        },
    ] {
        lines.push((Kind::Response, Response { id: 99, body }.to_line()));
    }
    lines
}

fn recorded_run() -> Vec<TimedEvent> {
    let mut rec = RecordingObserver::new();
    Engine::new(EngineConfig::default().with_seed(3)).run_observed(
        Workload::W3.build(0.6, 3).into_iter().take(12).collect(),
        Box::new(Pdpa::paper_default()),
        &mut rec,
    );
    rec.take_events()
}

/// The corpus, built once per test binary.
fn corpus() -> &'static [(Kind, String)] {
    static CORPUS: OnceLock<Vec<(Kind, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let events = recorded_run();
        let analysis = RunAnalysis::from_events(&events);
        let tournament = run_tournament(&TournamentConfig {
            duration_secs: 300.0,
            ..TournamentConfig::default()
        });
        let spans = [("replay", 0, 9_000), ("policy_decision", 150, 4_250)];
        let mut docs = vec![
            (Kind::Snapshot, snapshot(24).to_json()),
            (
                Kind::Other,
                analysis_json(&[("w3/PDPA".to_string(), analysis)]),
            ),
            (Kind::Other, tournament.render_json()),
            (
                Kind::Other,
                chrome_trace(&[("w3/PDPA".to_string(), events)]),
            ),
            (
                Kind::Other,
                span_trace("pdpa replay profile", "coordinator", spans),
            ),
        ];
        docs.extend(protocol_lines());
        docs
    })
}

/// One byte-level edit, at a position given as a fraction of the
/// document.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(f64),
    Flip(f64, u8),
    Insert(f64, u8),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Mutation::Truncate),
        (0.0f64..1.0, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (0.0f64..1.0, 0u8..=255).prop_map(|(at, byte)| Mutation::Insert(at, byte)),
    ]
}

fn apply(bytes: &mut Vec<u8>, mutation: &Mutation) {
    let pos = |at: f64| ((at * bytes.len() as f64) as usize).min(bytes.len());
    match *mutation {
        Mutation::Truncate(at) => bytes.truncate(pos(at)),
        Mutation::Flip(at, mask) => {
            let i = pos(at);
            if i < bytes.len() {
                bytes[i] ^= mask;
            }
        }
        Mutation::Insert(at, byte) => {
            let i = pos(at);
            bytes.insert(i, byte);
        }
    }
}

/// Parses `text` as `kind` and checks the contract.
fn check(kind: Kind, text: &str) -> Result<(), TestCaseError> {
    let parsed = catch_unwind(AssertUnwindSafe(|| Json::parse(text)));
    let Ok(parsed) = parsed else {
        return Err(TestCaseError::Fail(format!(
            "Json::parse panicked on {text:?}"
        )));
    };
    if let Err(e) = parsed {
        prop_assert!(e.contains(" at offset "), "unlocated error: {}", e);
    }
    let typed = catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Snapshot => Snapshot::parse(text).map(drop),
        Kind::Request => Request::parse_line(text).map(drop),
        Kind::Response => Response::parse_line(text).map(drop),
        Kind::Other => Ok(()),
    }));
    prop_assert!(typed.is_ok(), "{:?} reader panicked on {:?}", kind, text);
    Ok(())
}

#[test]
fn every_corpus_document_parses() {
    for (kind, text) in corpus() {
        Json::parse(text).unwrap_or_else(|e| panic!("{kind:?}: {e}\n{text}"));
        match kind {
            Kind::Snapshot => assert_eq!(Snapshot::parse(text).unwrap(), snapshot(24)),
            Kind::Request => assert!(Request::parse_line(text).is_ok(), "{text}"),
            Kind::Response => assert!(Response::parse_line(text).is_ok(), "{text}"),
            Kind::Other => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Every mutation of a real document either parses or fails with an
    /// error that names its offset, and never panics a reader.
    #[test]
    fn mutated_documents_fail_located_and_never_panic(
        pick in 0usize..1_000,
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let docs = corpus();
        let (kind, text) = &docs[pick % docs.len()];
        let mut bytes = text.clone().into_bytes();
        for m in &mutations {
            apply(&mut bytes, m);
        }
        // A reader sees text: a flipped byte that breaks UTF-8 decodes
        // to U+FFFD, which the parser must handle like any other input.
        check(*kind, &String::from_utf8_lossy(&bytes))?;
    }
}

/// Every prefix of a frame fails located: the end-of-input, string and
/// escape errors all carry an offset.
#[test]
fn every_truncation_of_a_frame_fails_located() {
    let line = Response {
        id: 5,
        body: ResponseBody::Error {
            message: "tab\there \"quoted\" \\ back é 😀 \u{1}".into(),
        },
    }
    .to_line();
    for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
        let err = Json::parse(&line[..cut]).expect_err("a strict prefix never parses");
        assert!(err.contains(" at offset "), "cut at {cut}: {err}");
    }
}

/// The parser used to re-validate the rest of the document once per
/// string character, so a 16k-op snapshot (about 1 MB) took seconds to
/// restore and doubling the ops nearly quadrupled the time.
#[test]
fn a_16k_op_snapshot_parses_in_linear_time() {
    let text = snapshot(16_384).to_json();
    assert!(text.len() > 1_000_000, "{} bytes", text.len());
    let started = Instant::now();
    let back = Snapshot::parse(&text).expect("parses");
    let took = started.elapsed();
    assert_eq!(back.ops.len(), 16_384);
    assert!(
        took < Duration::from_secs(2),
        "parsing {} bytes took {took:?}",
        text.len()
    );
}

/// A request line at the server's 64 KiB cap, nearly all one string.
#[test]
fn a_64_kib_single_string_request_line_parses() {
    let class = "x".repeat(64 * 1024 - 64);
    let line = Request {
        id: 1,
        kind: RequestKind::Submit {
            class: class.clone(),
            request: None,
            work_secs: None,
        },
    }
    .to_line();
    assert!(line.len() <= 64 * 1024, "{} bytes", line.len());
    let started = Instant::now();
    let parsed = Request::parse_line(&line).expect("parses");
    assert!(started.elapsed() < Duration::from_secs(2));
    assert!(matches!(parsed.kind, RequestKind::Submit { class: c, .. } if c == class));
}

/// A state name with a quote and a backslash (legal in a text stream)
/// is escaped as an analysis key and in every Chrome trace field.
#[test]
fn state_names_are_escaped_in_every_document() {
    let odd = StateName::intern("ST\"x\\y").expect("room in the name table");
    let te = |at: f64, seq: u64, event: ObsEvent| TimedEvent {
        at: SimTime::from_secs(at),
        seq,
        event,
    };
    let job = JobId(0);
    let events = vec![
        te(0.0, 0, ObsEvent::JobSubmitted { job }),
        te(0.0, 1, ObsEvent::JobStarted { job, request: 4 }),
        te(
            1.0,
            2,
            ObsEvent::StateChanged {
                job,
                from: StateName::NO_REF,
                to: odd,
            },
        ),
        te(
            2.0,
            3,
            ObsEvent::Decision {
                trigger: pdpa_suite::obs::DecisionTrigger::Report,
                job,
                from_alloc: 4,
                to_alloc: 2,
                transition: Some((odd, StateName::DEC)),
            },
        ),
        te(4.0, 4, ObsEvent::JobFinished { job }),
    ];
    let analysis = analysis_json(&[("odd".to_string(), RunAnalysis::from_events(&events))]);
    let analysis = Json::parse(&analysis).expect("the analysis parses");
    let states = analysis
        .get("runs")
        .and_then(|r| r.get("odd"))
        .and_then(|r| r.get("time_in_state_secs"))
        .expect("time_in_state_secs");
    // In the odd state from t=1 until the decision moves it to DEC at t=2.
    assert_eq!(states.get("ST\"x\\y").and_then(Json::as_f64), Some(1.0));

    let trace = chrome_trace(&[("odd".to_string(), events)]);
    let trace = Json::parse(&trace).expect("the trace parses");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let field = |name: &str, key: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get(key))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(
        field("state NO_REF->ST\"x\\y", "to").as_deref(),
        Some("ST\"x\\y")
    );
    assert_eq!(
        field("decision 4->2", "transition").as_deref(),
        Some("ST\"x\\y->DEC")
    );
}

/// Every string value and object key in `doc`, in document order.
fn strings<'t>(doc: &'t Json<'t>, out: &mut Vec<&'t Cow<'t, str>>) {
    match doc {
        Json::Str(s) => out.push(s),
        Json::Arr(items) => items.iter().for_each(|item| strings(item, out)),
        Json::Obj(fields) => {
            for (key, value) in fields {
                out.push(key);
                strings(value, out);
            }
        }
        Json::Null | Json::Bool(_) | Json::Num(_) => {}
    }
}

#[test]
fn unescaped_strings_and_keys_come_back_borrowed() {
    let text = r#"{"id":7,"type":"submit","class":"bt.A","path":"/tmp/a b/é😀",
                   "":"","xs":[{"k":"v"},"w",null,1.5]}"#;
    let doc = Json::parse(text).expect("parses");
    let mut all = Vec::new();
    strings(&doc, &mut all);
    let texts: Vec<&str> = all.iter().map(|s| s.as_ref()).collect();
    assert_eq!(
        texts,
        [
            "id",
            "type",
            "submit",
            "class",
            "bt.A",
            "path",
            "/tmp/a b/é😀",
            "",
            "",
            "xs",
            "k",
            "v",
            "w"
        ]
    );
    let input = text.as_bytes().as_ptr_range();
    for s in all {
        let Cow::Borrowed(slice) = s else {
            panic!("{s:?} holds no escape but was copied");
        };
        assert!(
            input.contains(&slice.as_ptr()) || slice.is_empty(),
            "{slice:?} is a slice of the input"
        );
    }
}

#[test]
fn escaped_strings_and_keys_come_back_owned_and_decoded() {
    for (literal, decoded) in [
        (r#""a\"b""#, "a\"b"),
        (r#""a\\b""#, "a\\b"),
        (r#""caf\u00e9""#, "café"),
        (r#""\ud83d\ude00!""#, "😀!"),
        (r#""\u00e9""#, "é"),
        (r#""x\/y\n\t\r\b\f""#, "x/y\n\t\r\u{8}\u{c}"),
        (
            r#""plain run, then \"quoted\" and é raw""#,
            "plain run, then \"quoted\" and é raw",
        ),
    ] {
        match Json::parse(literal).expect("parses") {
            Json::Str(Cow::Owned(s)) => assert_eq!(s, decoded, "{literal}"),
            other => panic!("{literal}: expected an owned string, got {other:?}"),
        }
        let object = format!("{{{literal}:{literal}}}");
        let Json::Obj(fields) = Json::parse(&object).expect("parses") else {
            panic!("{object}: not an object");
        };
        let (key, value) = &fields[0];
        assert!(
            matches!(key, Cow::Owned(k) if k == decoded),
            "{object}: key {key:?}"
        );
        assert_eq!(value.as_str(), Some(decoded), "{object}");
        let doc = Json::Obj(fields);
        assert_eq!(doc.get(decoded).and_then(Json::as_str), Some(decoded));
    }
}

/// In every document the workspace writes, a string comes back copied
/// exactly when its writer had to escape it.
#[test]
fn corpus_strings_are_copied_only_where_escaped() {
    let (mut borrowed, mut owned) = (0, 0);
    for (kind, text) in corpus() {
        let doc = Json::parse(text).expect("parses");
        let mut all = Vec::new();
        strings(&doc, &mut all);
        for s in all {
            let mut escaped = String::new();
            push_str_escaped(&mut escaped, s);
            let needs_escape = escaped.contains('\\');
            assert_eq!(
                matches!(s, Cow::Owned(_)),
                needs_escape,
                "{kind:?}: {s:?} in {text}"
            );
            if needs_escape {
                owned += 1;
            } else {
                borrowed += 1;
            }
        }
    }
    assert!(
        owned > 0 && borrowed > 100 * owned,
        "{owned} owned, {borrowed} borrowed"
    );
}
