//! The tentpole invariant of `pdpad`: a daemon killed mid-workload and
//! restored from its snapshot emits a decision-event stream *byte
//! identical* to a daemon that was never interrupted.
//!
//! The recipe: drive one daemon through a scripted op sequence to
//! completion (the reference stream), drive a second daemon through the
//! same prefix, snapshot-and-drop it, restore a third from the snapshot
//! file, drive it through the remaining ops, and require
//! `cat pre.stream continuation.stream == reference.stream` exactly. The
//! run registry must agree too: the restored daemon's `jobs` frame equals
//! the live daemon's at the snapshot and again after the remaining ops.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use pdpa_daemon::{DaemonConfig, DaemonCore, Op};
use pdpa_watch::{RequestKind, Response, ResponseBody};

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pdpa-daemon-{name}-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(stream: &std::path::Path) -> DaemonConfig {
    DaemonConfig {
        policy: "pdpa".to_string(),
        cpus: 16,
        seed: 7,
        time_scale: 0.0,
        stream_path: Some(stream.to_string_lossy().into_owned()),
        ..DaemonConfig::default()
    }
}

fn submit(core: &mut DaemonCore, class: &str, request: Option<u64>, work: Option<f64>) -> u64 {
    let body = core.handle(
        &RequestKind::Submit {
            class: class.to_string(),
            request,
            work_secs: work,
        },
        0.0,
    );
    match body {
        ResponseBody::Ack(ack) => ack.job.expect("submit ack carries the job id"),
        other => panic!("submit rejected: {other:?}"),
    }
}

/// The `jobs` frame over every job the daemon admitted, as it goes on the
/// wire.
fn jobs_frame(core: &mut DaemonCore) -> String {
    let body = core.handle(&RequestKind::Jobs { n: 400 }, 0.0);
    assert!(matches!(body, ResponseBody::Jobs(_)), "jobs: {body:?}");
    Response { id: 0, body }.to_line()
}

/// The scripted workload, split at the snapshot point. Phase one mixes
/// classes, request overrides, work rescaling, time movement, and a
/// cancellation; phase two admits more work on top of the restored state
/// and drains.
fn phase_one(core: &mut DaemonCore) {
    submit(core, "swim", None, None);
    submit(core, "bt.A", Some(8), None);
    core.advance_to(500.0);
    submit(core, "apsi", None, Some(4_000.0));
    // Long enough to still be alive at the cancellation instant.
    let hydro = submit(core, "hydro2d", Some(4), Some(50_000.0));
    core.advance_to(2_000.0);
    let body = core.handle(&RequestKind::Cancel { job: hydro }, 0.0);
    assert!(matches!(body, ResponseBody::Ack(_)), "cancel: {body:?}");
    core.advance_to(3_000.0);
}

fn phase_two(core: &mut DaemonCore) {
    submit(core, "swim", Some(2), Some(1_500.0));
    submit(core, "bt.A", None, None);
    core.advance_to(10_000.0);
    let body = core.handle(&RequestKind::Drain, 0.0);
    assert!(matches!(body, ResponseBody::Ack(_)), "drain: {body:?}");
}

#[test]
fn restored_daemon_reproduces_the_uninterrupted_stream_byte_for_byte() {
    let dir = scratch_dir("restore");
    let reference = dir.join("reference.stream");
    let pre = dir.join("pre.stream");
    let cont = dir.join("continuation.stream");
    let snap = dir.join("mid.snapshot");

    // Uninterrupted reference run.
    let mut full = DaemonCore::new(config(&reference)).expect("reference core");
    phase_one(&mut full);
    phase_two(&mut full);
    assert!(full.session().all_done(), "reference drained");
    full.flush_stream();
    let reference_jobs = jobs_frame(&mut full);

    // Interrupted run: phase one, snapshot, and "kill" (drop).
    let mut first = DaemonCore::new(config(&pre)).expect("first core");
    phase_one(&mut first);
    let body = first.handle(
        &RequestKind::Shutdown {
            snapshot: Some(snap.to_string_lossy().into_owned()),
        },
        0.0,
    );
    assert!(matches!(body, ResponseBody::Ack(_)), "shutdown: {body:?}");
    let ops_at_snapshot = first.journal().len();
    let jobs_at_snapshot = jobs_frame(&mut first);
    drop(first);

    // Restore and run the remainder.
    let mut second = DaemonCore::restore(&snap.to_string_lossy(), config(&cont))
        .expect("restore succeeds, integrity check included");
    assert_eq!(
        second.journal().len(),
        ops_at_snapshot,
        "the journal survives the restore"
    );
    assert_eq!(
        jobs_frame(&mut second),
        jobs_at_snapshot,
        "the restored registry reads as the live one did at the snapshot"
    );
    assert!(
        jobs_at_snapshot.contains(r#""state":"running""#),
        "a job runs at the snapshot: {jobs_at_snapshot}"
    );
    phase_two(&mut second);
    assert!(second.session().all_done(), "restored run drained");
    second.flush_stream();
    assert_eq!(
        jobs_frame(&mut second),
        reference_jobs,
        "the restored registry ends as the uninterrupted one"
    );

    let reference_bytes = std::fs::read(&reference).expect("reference stream");
    let pre_bytes = std::fs::read(&pre).expect("pre stream");
    let cont_bytes = std::fs::read(&cont).expect("continuation stream");
    assert!(!reference_bytes.is_empty(), "reference stream has events");
    assert!(
        !pre_bytes.is_empty() && !cont_bytes.is_empty(),
        "the snapshot point falls strictly inside the stream"
    );
    let stitched = [pre_bytes.as_slice(), cont_bytes.as_slice()].concat();
    assert_eq!(
        stitched, reference_bytes,
        "pre + continuation must equal the uninterrupted stream byte for byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_refuses_a_tampered_snapshot() {
    let dir = scratch_dir("tamper");
    let snap = dir.join("run.snapshot");

    let mut core = DaemonCore::new(DaemonConfig {
        policy: "equip".to_string(),
        cpus: 8,
        time_scale: 0.0,
        ..DaemonConfig::default()
    })
    .expect("core");
    submit(&mut core, "swim", None, Some(1_000.0));
    core.advance_to(400.0);
    core.snapshot_to(&snap.to_string_lossy()).expect("snapshot");

    // Flip a check counter: the rebuilt session can no longer match.
    let text = std::fs::read_to_string(&snap).expect("snapshot text");
    let needle = "\"jobs_submitted\":1";
    assert!(text.contains(needle), "snapshot shape changed: {text}");
    std::fs::write(&snap, text.replace(needle, "\"jobs_submitted\":2")).expect("tamper");

    let err = DaemonCore::restore(&snap.to_string_lossy(), DaemonConfig::default())
        .expect_err("tampered snapshot must fail the integrity check");
    assert!(err.contains("integrity"), "got: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_restores_draining_state_and_registry() {
    let dir = scratch_dir("drain-state");
    let snap = dir.join("drained.snapshot");

    let mut core = DaemonCore::new(DaemonConfig {
        time_scale: 0.0,
        ..DaemonConfig::default()
    })
    .expect("core");
    let job = submit(&mut core, "apsi", Some(6), Some(2_000.0));
    core.handle(&RequestKind::Drain, 0.0);
    core.snapshot_to(&snap.to_string_lossy()).expect("snapshot");
    drop(core);

    let mut restored =
        DaemonCore::restore(&snap.to_string_lossy(), DaemonConfig::default()).expect("restore");
    assert!(restored.draining(), "drain survives the snapshot");
    let body = restored.handle(&RequestKind::Job { job }, 0.0);
    let ResponseBody::Job(row) = body else {
        panic!("expected job row, got {body:?}");
    };
    assert_eq!(row.state, "done");
    assert_eq!(row.class, "apsi");
    assert_eq!(row.request, 6);
    // Matches the Op journal the snapshot carried.
    assert_eq!(
        restored.journal(),
        &[Op::Submit {
            at_secs: 0.0,
            class: "apsi".to_string(),
            request: Some(6),
            work_secs: Some(2_000.0),
        }]
    );

    let _ = std::fs::remove_dir_all(&dir);
}
