//! The four paper applications, calibrated to Fig. 3 and Tables 3–4.
//!
//! Control points are read off the speedup shapes of Fig. 3; sequential
//! times are chosen so that per-application execution times land in the
//! ranges the paper's tables report (e.g. bt ≈ 100 s under Equipartition
//! with ≈15 processors, apsi ≈ 100 s at its 1.4–1.5 speedup plateau).
//!
//! Calibration anchors:
//!
//! | app | shape | knee at `target_eff` 0.7 | `T1` (sequential) |
//! |---|---|---|---|
//! | swim | superlinear 8–16, flat ≥ 30 | > 30 (efficiency > 1) | 200 s |
//! | bt.A | progressive, eff 0.69 at 30 | ≈ 28 | 2100 s |
//! | hydro2d | saturates at S ≈ 10 | ≈ 10 | 300 s |
//! | apsi | flat at S ≈ 1.5 | 2 | 150 s |

use std::sync::{Arc, OnceLock};

use pdpa_sim::SimDuration;

use crate::app::ApplicationSpec;
use crate::class::AppClass;
use crate::speedup::PiecewiseLinear;

/// swim (SpecFP95): superlinear speedup in the 8–16 processor range, peak
/// around 30 processors, flat beyond.
pub fn swim() -> ApplicationSpec {
    let curve = PiecewiseLinear::new(vec![
        (1, 1.0),
        (2, 2.1),
        (4, 4.6),
        (8, 10.0),
        (12, 16.0),
        (16, 22.0),
        (20, 25.5),
        (24, 27.5),
        (28, 29.5),
        (30, 30.5),
        (34, 31.0),
        (40, 31.2),
        (60, 31.2),
    ]);
    ApplicationSpec::new(
        AppClass::Swim,
        50,
        SimDuration::from_secs(4.0),
        AppClass::Swim.tuned_request(),
        Arc::new(curve),
        0.01,
    )
}

/// bt.A (NAS Parallel Benchmarks): good, progressive scalability; the
/// 0.7-efficiency knee sits just below the tuned 30-processor request
/// (eff(30) = 0.69), so PDPA settles bt somewhat under its request — as the
/// paper observed ("bt received more processors [under Equal_efficiency]
/// than under PDPA", §5.3).
pub fn bt_a() -> ApplicationSpec {
    let curve = PiecewiseLinear::new(vec![
        (1, 1.0),
        (2, 1.95),
        (4, 3.8),
        (8, 7.5),
        (12, 11.1),
        (16, 14.5),
        (20, 17.2),
        (24, 19.4),
        (30, 20.7),
        (40, 23.0),
        (50, 25.0),
        (60, 26.5),
    ]);
    ApplicationSpec::new(
        AppClass::BtA,
        150,
        SimDuration::from_secs(14.0),
        AppClass::BtA.tuned_request(),
        Arc::new(curve),
        0.01,
    )
}

/// hydro2d (SpecFP95): medium scalability, saturating at a speedup of ≈ 10.
///
/// The paper notes hydro2d "suffers overhead due to the measurement
/// process" (§5.2); its instrumentation overhead is set higher than the
/// other applications'.
pub fn hydro2d() -> ApplicationSpec {
    let curve = PiecewiseLinear::new(vec![
        (1, 1.0),
        (2, 1.9),
        (4, 3.65),
        (6, 5.2),
        (8, 6.4),
        (10, 7.2),
        (12, 7.9),
        (16, 8.9),
        (20, 9.5),
        (30, 10.0),
        (60, 10.0),
    ]);
    ApplicationSpec::new(
        AppClass::Hydro2d,
        75,
        SimDuration::from_secs(4.0),
        AppClass::Hydro2d.tuned_request(),
        Arc::new(curve),
        0.04,
    )
}

/// apsi (SpecFP95): does not scale — the speedup plateaus at ≈ 1.5.
///
/// At 2 processors the efficiency is 0.71, just above the paper's default
/// `target_eff` of 0.7, which is why PDPA keeps the tuned 2-processor
/// allocation instead of shrinking it to 1 (§5.3).
pub fn apsi() -> ApplicationSpec {
    let curve = PiecewiseLinear::new(vec![(1, 1.0), (2, 1.42), (4, 1.48), (8, 1.5), (60, 1.5)]);
    ApplicationSpec::new(
        AppClass::Apsi,
        60,
        SimDuration::from_secs(2.5),
        AppClass::Apsi.tuned_request(),
        Arc::new(curve),
        0.01,
    )
}

/// The calibrated specification for any paper application class.
///
/// The four specifications are built once, on first use, and each call
/// returns a clone: the speedup curve is an [`Arc`], so a clone shares it
/// and allocates nothing.
pub fn paper_app(class: AppClass) -> ApplicationSpec {
    static PAPER: OnceLock<[ApplicationSpec; 4]> = OnceLock::new();
    let apps = PAPER.get_or_init(|| [swim(), bt_a(), hydro2d(), apsi()]);
    let index = match class {
        AppClass::Swim => 0,
        AppClass::BtA => 1,
        AppClass::Hydro2d => 2,
        AppClass::Apsi => 3,
    };
    apps[index].clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swim_is_superlinear_in_fig3_range() {
        let app = swim();
        for p in [10, 12, 16, 20, 24, 30] {
            assert!(
                app.speedup.efficiency(p) > 1.0,
                "swim eff({p}) = {}",
                app.speedup.efficiency(p)
            );
        }
        // Relative speedup flattens past 30: the superlinear bonus is spent.
        let rs = app.speedup.relative_speedup(30, 34);
        assert!(rs < 34.0 / 30.0 * 0.9, "swim relative speedup {rs}");
    }

    #[test]
    fn bt_has_progressive_scalability() {
        let app = bt_a();
        // The 0.7-efficiency knee sits just below the tuned request.
        let knee = app.speedup.max_procs_at_efficiency(0.7, 60);
        assert!((24..30).contains(&knee), "bt knee at {knee}");
        // And the curve keeps climbing — no early saturation.
        assert!(app.speedup.speedup(40) > app.speedup.speedup(30) + 2.0);
    }

    #[test]
    fn hydro2d_knee_is_near_ten_processors() {
        let app = hydro2d();
        let knee = app.speedup.max_procs_at_efficiency(0.7, 60);
        assert!(
            (9..=12).contains(&knee),
            "hydro2d knee at {knee}, efficiency {}",
            app.speedup.efficiency(knee)
        );
    }

    #[test]
    fn apsi_does_not_scale() {
        let app = apsi();
        assert!(app.speedup.speedup(30) < 1.6);
        // Efficiency at the tuned 2-processor request just clears 0.7.
        let eff2 = app.speedup.efficiency(2);
        assert!((0.70..0.75).contains(&eff2), "apsi eff(2) = {eff2}");
    }

    #[test]
    fn monotone_over_machine_range() {
        // None of the paper curves decreases (they saturate, not degrade).
        for class in AppClass::ALL {
            let app = paper_app(class);
            for p in 1..60 {
                assert!(
                    app.speedup.speedup(p + 1) >= app.speedup.speedup(p) - 1e-12,
                    "{class} S({}) < S({p})",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn execution_times_match_table_anchors() {
        // Under Equipartition with ML = 4 on 60 CPUs, jobs see ≈ 15–30
        // processors; the paper's tables put bt ≈ 100 s, apsi ≈ 100 s,
        // hydro2d ≈ 32 s, swim ≈ 6 s in that regime.
        let bt = bt_a();
        let t = bt.ideal_exec_time(28).as_secs();
        assert!((90.0..115.0).contains(&t), "bt exec at 28 procs: {t}");

        let s = swim();
        let t = s.ideal_exec_time(30).as_secs();
        assert!((5.0..9.0).contains(&t), "swim exec at 30 procs: {t}");

        let h = hydro2d();
        let t = h.ideal_exec_time(15).as_secs();
        assert!((28.0..40.0).contains(&t), "hydro exec at 15 procs: {t}");

        let a = apsi();
        let t = a.ideal_exec_time(15).as_secs();
        assert!((90.0..115.0).contains(&t), "apsi exec at 15 procs: {t}");
    }

    #[test]
    fn paper_app_clones_one_spec_per_class() {
        for (class, fresh) in [
            (AppClass::Swim, swim()),
            (AppClass::BtA, bt_a()),
            (AppClass::Hydro2d, hydro2d()),
            (AppClass::Apsi, apsi()),
        ] {
            let (a, b) = (paper_app(class), paper_app(class));
            assert!(Arc::ptr_eq(&a.speedup, &b.speedup), "{class}: one curve");
            assert_eq!(a.class, class);
            assert_eq!(a.iterations, fresh.iterations);
            assert_eq!(a.seq_iter_time, fresh.seq_iter_time);
            assert_eq!(a.request, fresh.request);
            assert_eq!(a.measurement_overhead, fresh.measurement_overhead);
            assert_eq!(a.phase_change, fresh.phase_change);
            for p in 0..=64 {
                assert_eq!(
                    a.speedup.speedup(p),
                    fresh.speedup.speedup(p),
                    "{class} S({p})"
                );
            }
        }
    }

    #[test]
    fn requests_are_tuned_by_default() {
        assert_eq!(swim().request, 30);
        assert_eq!(apsi().request, 2);
    }
}
