//! Guard: observability and profiling must be zero-cost when disabled.
//!
//! `Engine::run` is the production path (it hands a `NullObserver` to
//! `run_observed`); this pins the contract that calling `run_observed`
//! with a disabled observer costs the same as `run` — i.e. nobody later
//! adds per-run setup (event buffers, allocation, clock reads) that taxes
//! unobserved runs. The same ≤2% bound covers the disabled `pdpa-prof`
//! instrumentation path (`Instrumentation::none()`), whose touch points
//! are one branch each. Paired, interleaved,
//! median-of-N so machine noise cancels; a small absolute slack keeps
//! sub-millisecond jitter from flaking CI. The guards take [`TIMING`] so
//! each timed pair runs alone rather than against the other guards.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pdpa_suite::core::Pdpa;
use pdpa_suite::engine::{Engine, EngineConfig, Instrumentation};
use pdpa_suite::obs::{NullObserver, RecordingObserver, TeeObserver};
use pdpa_suite::qs::Workload;
use pdpa_suite::watch::{LiveTap, RunMeta, StatusServer};

/// Held for the whole of each guard: the test harness runs tests in
/// parallel, and a guard timed against another guard's engine runs
/// measures the contention, not the code.
static TIMING: Mutex<()> = Mutex::new(());

/// Takes [`TIMING`], ignoring poison so one failed guard does not fail
/// the others.
fn timing_alone() -> MutexGuard<'static, ()> {
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

#[test]
fn disabled_observer_costs_within_two_percent_of_plain_run() {
    let _alone = timing_alone();
    let engine = Engine::new(EngineConfig::default().with_seed(42));
    let jobs = || Workload::W2.build(1.0, 42);
    let policy = || Box::new(Pdpa::paper_default());

    // Warm up allocators and caches before timing anything.
    let warm = engine.run(jobs(), policy());
    assert!(warm.completed_all);

    let rounds = 15;
    let mut plain = Vec::with_capacity(rounds);
    let mut nulled = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        let r = engine.run(jobs(), policy());
        plain.push(t.elapsed().as_secs_f64());
        assert!(r.completed_all);

        let t = Instant::now();
        let r = engine.run_observed(jobs(), policy(), &mut NullObserver);
        nulled.push(t.elapsed().as_secs_f64());
        assert!(r.completed_all);
    }

    let (p, n) = (median(plain), median(nulled));
    assert!(
        n <= p * 1.02 + 2e-3,
        "disabled-observer run regressed: plain {p:.6}s vs NullObserver {n:.6}s"
    );
}

#[test]
fn disabled_instrumentation_costs_within_two_percent_of_plain_run() {
    let _alone = timing_alone();
    let engine = Engine::new(EngineConfig::default().with_seed(42));
    let jobs = || Workload::W2.build(1.0, 42);
    let policy = || Box::new(Pdpa::paper_default());

    let warm = engine.run(jobs(), policy());
    assert!(warm.completed_all);

    let rounds = 15;
    let mut plain = Vec::with_capacity(rounds);
    let mut instrumented = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        let r = engine.run(jobs(), policy());
        plain.push(t.elapsed().as_secs_f64());
        assert!(r.completed_all);

        let t = Instant::now();
        let r =
            engine.run_instrumented(jobs(), policy(), &mut NullObserver, Instrumentation::none());
        instrumented.push(t.elapsed().as_secs_f64());
        assert!(r.completed_all && r.profile.is_none() && r.watchdog.is_none());
    }

    let (p, n) = (median(plain), median(instrumented));
    assert!(
        n <= p * 1.02 + 2e-3,
        "disabled-instrumentation run regressed: plain {p:.6}s vs Instrumentation::none() {n:.6}s"
    );
}

/// The `--serve` bound: a recording run with the full live-observability
/// stack attached (tap mirror, observer tee, bound TCP server with no
/// clients) must stay within 2% of a plain recording run. This is the
/// realistic serving configuration — the tap's atomics and try-lock ring
/// are the only per-event cost, and the server threads idle in accept().
#[test]
fn live_tap_and_idle_server_cost_within_two_percent_of_recording_run() {
    let _alone = timing_alone();
    let engine = Engine::new(EngineConfig::default().with_seed(42));
    let jobs = || Workload::W2.build(1.0, 42);
    let policy = || Box::new(Pdpa::paper_default());

    let mut warm_rec = RecordingObserver::new();
    let warm = engine.run_observed(jobs(), policy(), &mut warm_rec);
    assert!(warm.completed_all);

    let rounds = 15;
    let mut plain = Vec::with_capacity(rounds);
    let mut tapped = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut recorder = RecordingObserver::new();
        let t = Instant::now();
        let r = engine.run_observed(jobs(), policy(), &mut recorder);
        plain.push(t.elapsed().as_secs_f64());
        assert!(r.completed_all);

        let tap = LiveTap::new(RunMeta {
            policy: "PDPA".into(),
            trace: "w2".into(),
            jobs_total: jobs().len() as u64,
        });
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&tap)).expect("binds");
        let mut recorder = RecordingObserver::new();
        let t = Instant::now();
        let r = {
            let mut feed = &*tap;
            let mut observer = TeeObserver(&mut feed, &mut recorder);
            engine.run_instrumented(
                jobs(),
                policy(),
                &mut observer,
                Instrumentation::none().with_tap(Arc::clone(&tap) as _),
            )
        };
        tapped.push(t.elapsed().as_secs_f64());
        assert!(r.completed_all);
        tap.mark_done();
        server.shutdown();
    }

    let (p, n) = (median(plain), median(tapped));
    assert!(
        n <= p * 1.02 + 2e-3,
        "--serve stack regressed the run: plain recording {p:.6}s vs tap+server {n:.6}s"
    );
}
