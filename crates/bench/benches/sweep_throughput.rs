//! Sweep-level throughput: seed-averaged cells per second, sequential
//! versus the in-process parallel fan-out.
//!
//! This is the unit the experiment harness is built from — `run_cell` is
//! one (policy, load) point averaged over the paper's three seeds, and
//! `run_figure` is the full 4-policy × 3-load grid behind Figs. 4/6/9/10.
//! Comparing `seq` and `par` entries here shows the harness speedup
//! without the per-experiment rendering noise of a full `expt-all` pass.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pdpa_bench::{run_cell, run_cell_seq, run_figure, run_figure_seq, PolicyKind, SEEDS};
use pdpa_qs::Workload;

fn bench_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_cell");
    group.sample_size(10);

    group.bench_function("w1_pdpa_load60/seq", |b| {
        b.iter(|| {
            black_box(run_cell_seq(
                Workload::W1,
                true,
                PolicyKind::Pdpa,
                0.6,
                &SEEDS,
            ))
        })
    });
    group.bench_function("w1_pdpa_load60/par", |b| {
        b.iter(|| black_box(run_cell(Workload::W1, true, PolicyKind::Pdpa, 0.6, &SEEDS)))
    });
    group.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_figure");
    group.sample_size(10);

    group.bench_function("w1_grid/seq", |b| {
        b.iter(|| black_box(run_figure_seq(Workload::W1, true)))
    });
    group.bench_function("w1_grid/par", |b| {
        b.iter(|| black_box(run_figure(Workload::W1, true)))
    });
    group.finish();
}

criterion_group!(benches, bench_cells, bench_figures);
criterion_main!(benches);
