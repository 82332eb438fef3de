//! Integration tests pinning the paper's headline claims (§5).
//!
//! These run full workloads through the engine and assert the *shapes* the
//! paper reports — who wins, in which regime, by roughly what kind of
//! factor. They are the regression net for the whole reproduction: any
//! change to the policies, the machine model, or the calibration that
//! breaks a paper claim fails here.

use pdpa_suite::prelude::*;

fn run(workload: Workload, load: f64, tuned: bool, policy: Box<dyn SchedulingPolicy>) -> RunResult {
    let jobs = workload.build_with_tuning(load, 42, tuned);
    let result = Engine::new(EngineConfig::default()).run(jobs, policy);
    assert!(result.completed_all, "workload must drain");
    result
}

fn response(result: &RunResult, class: AppClass) -> f64 {
    result
        .summary
        .class_averages(class)
        .expect("class present")
        .avg_response_secs
}

/// §5.3: with half the load non-scalable, PDPA's coordination dominates —
/// "PDPA outperforms Equipartition in a 600 percent in both the response
/// time of bt and apsi". We assert a conservative ≥ 2× at 100 % load.
#[test]
fn w3_pdpa_crushes_fixed_ml_policies_on_response() {
    let pdpa = run(Workload::W3, 1.0, true, Box::new(Pdpa::paper_default()));
    let equip = run(Workload::W3, 1.0, true, Box::new(Equipartition::default()));
    for class in [AppClass::BtA, AppClass::Apsi] {
        let ratio = response(&equip, class) / response(&pdpa, class);
        assert!(
            ratio > 2.0,
            "{class}: PDPA {:.0}s vs Equip {:.0}s (ratio {ratio:.1})",
            response(&pdpa, class),
            response(&equip, class)
        );
    }
}

/// §5.3: "the multiprogramming level was set up to 34 jobs" under PDPA,
/// while the baselines stay pinned at 4.
#[test]
fn w3_pdpa_raises_the_multiprogramming_level() {
    let pdpa = run(Workload::W3, 1.0, true, Box::new(Pdpa::paper_default()));
    let equip = run(Workload::W3, 1.0, true, Box::new(Equipartition::default()));
    assert!(pdpa.max_ml >= 10, "PDPA ML reached only {}", pdpa.max_ml);
    assert_eq!(equip.max_ml, 4, "Equipartition is pinned at its level");
}

/// §5.1: workload 1 is PDPA's worst case ("there is nothing to improve") —
/// it may lose to Equipartition, but only mildly, and both must beat the
/// uncoordinated baselines.
#[test]
fn w1_pdpa_stays_close_to_equipartition() {
    let pdpa = run(Workload::W1, 1.0, true, Box::new(Pdpa::paper_default()));
    let equip = run(Workload::W1, 1.0, true, Box::new(Equipartition::default()));
    let irix = run(Workload::W1, 1.0, true, Box::new(IrixLike::paper_default()));
    for class in [AppClass::Swim, AppClass::BtA] {
        let p = response(&pdpa, class);
        let e = response(&equip, class);
        assert!(
            p < e * 4.0,
            "{class}: PDPA response {p:.0}s must stay within 4x of Equip {e:.0}s"
        );
        let i = response(&irix, class);
        assert!(
            p < i * 1.6,
            "{class}: PDPA {p:.0}s must not lose badly to IRIX {i:.0}s"
        );
    }
    // And the native scheduler is clearly worse than Equipartition.
    assert!(response(&irix, AppClass::BtA) > response(&equip, AppClass::BtA) * 1.2);
}

/// §5.1: Equal_efficiency's noisy extrapolation costs it dearly on the
/// all-scalable workload.
#[test]
fn w1_equal_efficiency_trails_equipartition() {
    let eq_eff = run(
        Workload::W1,
        1.0,
        true,
        Box::new(EqualEfficiency::paper_default()),
    );
    let equip = run(Workload::W1, 1.0, true, Box::new(Equipartition::default()));
    assert!(
        response(&eq_eff, AppClass::BtA) > response(&equip, AppClass::BtA) * 1.3,
        "Equal_eff {:.0}s vs Equip {:.0}s",
        response(&eq_eff, AppClass::BtA),
        response(&equip, AppClass::BtA)
    );
}

/// §5.2: on the high+medium mix, PDPA beats Equipartition on bt's response
/// while paying a bounded execution-time price on hydro2d.
#[test]
fn w2_pdpa_beats_equip_on_bt_and_pays_on_hydro() {
    let pdpa = run(Workload::W2, 1.0, true, Box::new(Pdpa::paper_default()));
    let equip = run(Workload::W2, 1.0, true, Box::new(Equipartition::default()));
    assert!(
        response(&pdpa, AppClass::BtA) < response(&equip, AppClass::BtA),
        "PDPA bt response {:.0}s vs Equip {:.0}s",
        response(&pdpa, AppClass::BtA),
        response(&equip, AppClass::BtA)
    );
    // hydro2d execution: PDPA runs it near its efficiency knee (~10 procs
    // vs Equip's ~15), so execution is worse — but boundedly so.
    let p_exec = pdpa
        .summary
        .class_averages(AppClass::Hydro2d)
        .unwrap()
        .avg_execution_secs;
    let e_exec = equip
        .summary
        .class_averages(AppClass::Hydro2d)
        .unwrap()
        .avg_execution_secs;
    assert!(
        p_exec > e_exec,
        "the efficiency target costs execution time"
    );
    assert!(
        p_exec < e_exec * 2.0,
        "but bounded: {p_exec:.0}s vs {e_exec:.0}s"
    );
}

/// §5.4: the paper's measured allocations for workload 4 at 80 % load were
/// swim 17, bt 20, hydro2d 10, apsi 2. We assert the ordering and ranges.
#[test]
fn w4_allocations_match_paper_structure() {
    let pdpa = run(Workload::W4, 0.8, true, Box::new(Pdpa::paper_default()));
    let alloc = |c: AppClass| pdpa.avg_alloc_by_class[&c];
    assert!(
        (1.5..=2.5).contains(&alloc(AppClass::Apsi)),
        "apsi at {:.1}",
        alloc(AppClass::Apsi)
    );
    assert!(
        (5.0..=14.0).contains(&alloc(AppClass::Hydro2d)),
        "hydro2d at {:.1}",
        alloc(AppClass::Hydro2d)
    );
    assert!(
        alloc(AppClass::BtA) > alloc(AppClass::Hydro2d),
        "bt above hydro2d"
    );
    assert!(
        alloc(AppClass::Swim) > alloc(AppClass::Hydro2d),
        "swim above hydro2d"
    );
}

/// Table 3: untuned apsi (requesting 30) — PDPA measures the flat speedup,
/// shrinks it, and the multiprogramming level explodes relative to
/// Equipartition's 4.
#[test]
fn table3_untuned_apsi_is_rescued_by_pdpa() {
    let pdpa = run(Workload::W3, 0.6, false, Box::new(Pdpa::paper_default()));
    let equip = run(Workload::W3, 0.6, false, Box::new(Equipartition::default()));
    assert!(
        pdpa.avg_alloc_by_class[&AppClass::Apsi] < 8.0,
        "PDPA shrinks untuned apsi, got {:.1}",
        pdpa.avg_alloc_by_class[&AppClass::Apsi]
    );
    assert!(
        equip.avg_alloc_by_class[&AppClass::Apsi] > 12.0,
        "Equip wastes processors on apsi, got {:.1}",
        equip.avg_alloc_by_class[&AppClass::Apsi]
    );
    assert!(pdpa.max_ml >= 3 * equip.max_ml);
    let ratio = response(&equip, AppClass::Apsi) / response(&pdpa, AppClass::Apsi);
    assert!(ratio > 1.5, "apsi response ratio {ratio:.1}");
}

/// Table 2 structure: IRIX migrates orders of magnitude more than the
/// space-sharing policies, with correspondingly shorter bursts.
#[test]
fn table2_migration_and_burst_structure() {
    let mut stats = Vec::new();
    for policy in [
        Box::new(IrixLike::paper_default()) as Box<dyn SchedulingPolicy>,
        Box::new(Pdpa::paper_default()),
        Box::new(Equipartition::default()),
    ] {
        let jobs = Workload::W1.build(1.0, 42);
        let config = EngineConfig::default().with_trace();
        let mut tracer = TraceObserver::new(config.cpus);
        let result = Engine::new(config).run_observed(jobs, policy, &mut tracer);
        let trace = tracer.into_trace(SimTime::from_secs(result.end_secs));
        stats.push(BurstStats::from_trace(&trace, result.total_migrations()));
    }
    let (irix, pdpa, equip) = (&stats[0], &stats[1], &stats[2]);
    assert!(
        irix.migrations > 100 * pdpa.migrations.max(1),
        "IRIX {} vs PDPA {}",
        irix.migrations,
        pdpa.migrations
    );
    assert!(irix.migrations > 20 * equip.migrations.max(1));
    assert!(
        pdpa.avg_burst_secs > 10.0 * irix.avg_burst_secs,
        "PDPA bursts {:.1}s vs IRIX {:.3}s",
        pdpa.avg_burst_secs,
        irix.avg_burst_secs
    );
    assert!(
        irix.avg_bursts_per_cpu > 10.0 * pdpa.avg_bursts_per_cpu,
        "IRIX {} bursts/cpu vs PDPA {}",
        irix.avg_bursts_per_cpu,
        pdpa.avg_bursts_per_cpu
    );
}

/// Fig. 8: PDPA's multiprogramming level moves over the run — it is a
/// dynamic series, not a constant. The series is folded from the recorded
/// stream, as the Fig. 8 experiment folds it.
#[test]
fn fig8_ml_series_is_dynamic() {
    let jobs = Workload::W2.build_with_tuning(1.0, 42, true);
    let mut rec = pdpa_suite::obs::RecordingObserver::new();
    let pdpa = Engine::new(EngineConfig::default()).run_observed(
        jobs,
        Box::new(Pdpa::paper_default()),
        &mut rec,
    );
    assert!(pdpa.completed_all, "workload must drain");
    let levels: std::collections::HashSet<usize> = pdpa_suite::obs::mpl_series(rec.events())
        .iter()
        .map(|p| p.running)
        .collect();
    assert!(
        levels.len() >= 4,
        "the level should visit several values, saw {levels:?}"
    );
    assert!(pdpa.max_ml > 4, "and exceed the default level");
}
