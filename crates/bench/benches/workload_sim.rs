//! End-to-end simulation throughput: one full paper workload per iteration.
//!
//! A complete workload-3 run (tens of jobs, thousands of events) should
//! cost single-digit milliseconds; this keeps the full experiment suite
//! under a minute even on one core.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pdpa_bench::PolicyKind;
use pdpa_engine::{Engine, EngineConfig};
use pdpa_qs::Workload;
use pdpa_sim::SimTime;
use pdpa_trace::TraceObserver;

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_run");
    group.sample_size(20);

    for policy in PolicyKind::ALL {
        group.bench_function(format!("w3_load60/{}", policy.label()), |b| {
            b.iter(|| {
                let jobs = Workload::W3.build(0.6, 42);
                let r = Engine::new(EngineConfig::default()).run(jobs, policy.build());
                assert!(r.completed_all);
                black_box(r.end_secs)
            });
        });
    }

    group.bench_function("w4_load100/PDPA", |b| {
        b.iter(|| {
            let jobs = Workload::W4.build(1.0, 42);
            let r = Engine::new(EngineConfig::default()).run(jobs, PolicyKind::Pdpa.build());
            assert!(r.completed_all);
            black_box(r.end_secs)
        });
    });

    group.bench_function("w1_load100_traced/IRIX", |b| {
        // The heaviest configuration: time sharing with per-quantum ticks,
        // every event folded into the CPU trace.
        b.iter(|| {
            let jobs = Workload::W1.build(1.0, 42);
            let config = EngineConfig::default().with_trace();
            let mut tracer = TraceObserver::new(config.cpus);
            let r = Engine::new(config).run_observed(jobs, PolicyKind::Irix.build(), &mut tracer);
            let trace = tracer.into_trace(SimTime::from_secs(r.end_secs));
            black_box((r.total_migrations(), trace.records.len()))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_full_runs);
criterion_main!(benches);
