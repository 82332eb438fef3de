//! `replay-steady` and `replay-backlog`: the `pdpa replay` pipeline over a
//! generated w4 trace, from the SWF file on disk to the run analysis.
//!
//! One pass is `swf::read_swf` → `shape::remap_machine` /
//! `rescale_load` / `jobs_from_records` → `Engine::run_observed` with a
//! `RecordingObserver` → `pdpa_obs::write_stream` → `read_stream` →
//! `RunAnalysis::from_events`, each stage timed from outside.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pdpa_analyze::RunAnalysis;
use pdpa_core::Pdpa;
use pdpa_engine::{Engine, EngineConfig};
use pdpa_obs::RecordingObserver;
use pdpa_policies::{Equipartition, SchedulingPolicy};
use pdpa_qs::{generate, shape, swf, GeneratorConfig, Workload};

use crate::layers::{clock_cost_ns, PolicyTally, TimedObserver, TimedPolicy, Tracer};
use crate::stats::{allowed_cpus, digest, median, peak_rss_mb, pin_in_turn, rss_mb, Dist};
use crate::Report;

/// Machine size of both replays.
const CPUS: usize = 60;
/// Submission window of the generated traces, simulated seconds.
const WINDOW_SECS: f64 = 30_000.0;
/// Traces a run replays in turn: medians over several inputs keep one
/// trace's queue dynamics from deciding a run's figures.
const TRACES: usize = 4;
/// Trace seeds run `seed` may draw on: `seed × CANDIDATES + 0..CANDIDATES`.
/// Over a 30,000 s window about one generated trace in twenty misses the
/// demand guard by Poisson chance alone, so a run takes the first
/// [`TRACES`] candidates that pass it.
const CANDIDATES: u64 = 16;
/// Largest relative distance between measured and requested demand.
const DEMAND_TOLERANCE: f64 = 0.05;

/// One replay workload.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// Workload name.
    pub name: &'static str,
    /// Requested demand of the generated trace.
    pub load: f64,
    /// Replay under Equipartition instead of PDPA.
    pub equipartition: bool,
}

/// PDPA's steady regime: about 9 jobs running and 7 waiting.
pub const STEADY: Replay = Replay {
    name: "replay-steady",
    load: 0.6,
    equipartition: false,
};

/// A drowning queue: 4 jobs running and about 2,500 waiting.
pub const BACKLOG: Replay = Replay {
    name: "replay-backlog",
    load: 1.0,
    equipartition: true,
};

/// Fails unless `demand` is within 5 % of `load`.
pub fn demand_guard(demand: f64, load: f64) -> Result<(), String> {
    if (demand - load).abs() <= DEMAND_TOLERANCE * load {
        Ok(())
    } else {
        Err(format!(
            "demand guard: trace demand {demand:.4} is not within 5 % of load {load}"
        ))
    }
}

/// Timings, counts and check results of one pipeline pass.
#[derive(Debug, Default)]
struct Pass {
    parse_s: f64,
    shape_s: f64,
    engine_s: f64,
    encode_s: f64,
    decode_s: f64,
    analyze_s: f64,
    wall_s: f64,
    qs_rss_mb: f64,
    engine_rss_mb: f64,
    events_pushed: u64,
    events_popped: u64,
    stale: u64,
    memo_hits: u64,
    memo_misses: u64,
    stream_events: u64,
    stream_bytes: u64,
    digest: u64,
    obs_events: u64,
    obs_busy_s: f64,
    /// Time-weighted mean of running jobs.
    mean_running: f64,
    /// Mean of waiting jobs, by Little's law from the mean queue wait.
    mean_waiting: f64,
    failures: Vec<String>,
}

/// One generated trace on disk.
struct Input {
    path: PathBuf,
    seed: u64,
    jobs: usize,
}

/// Pipeline stages of a pass, in order; `rest` is the pass's time
/// outside the others (freeing the recorded events, memory probes).
const STAGES: [&str; 7] = [
    "parse", "shape", "engine", "encode", "decode", "analyze", "rest",
];

impl Pass {
    /// Seconds in each of [`STAGES`]; they sum to the pass's wall time.
    fn stages(&self) -> [f64; 7] {
        let timed = [
            self.parse_s,
            self.shape_s,
            self.engine_s,
            self.encode_s,
            self.decode_s,
            self.analyze_s,
        ];
        let rest = self.wall_s - timed.iter().sum::<f64>();
        let mut all = [0.0; 7];
        all[..6].copy_from_slice(&timed);
        all[6] = rest;
        all
    }
}

/// A `(start, end)` interval in seconds.
fn secs(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64()
}

impl Replay {
    fn policy(&self) -> Box<dyn SchedulingPolicy> {
        if self.equipartition {
            Box::new(Equipartition::default())
        } else {
            Box::new(Pdpa::paper_default())
        }
    }

    /// Generates the trace (apportioned by work share) as SWF text.
    /// Returns the text and the job count.
    fn trace_text(&self, seed: u64) -> (String, usize) {
        let config = GeneratorConfig {
            composition: Workload::W4.composition(),
            load: self.load,
            cpus: CPUS,
            duration_secs: WINDOW_SECS,
            tuned: true,
        };
        let jobs = generate(&config, seed);
        (swf::write_swf(&jobs), jobs.len())
    }

    /// The trace seeds of run `seed`: the first [`TRACES`] of its
    /// candidates whose generated trace passes the demand guard.
    fn trace_seeds(&self, seed: u64) -> Result<Vec<u64>, String> {
        let first = seed.wrapping_mul(CANDIDATES);
        let mut seeds = Vec::with_capacity(TRACES);
        for candidate in (0..CANDIDATES).map(|k| first.wrapping_add(k)) {
            let (text, _) = self.trace_text(candidate);
            let records = swf::parse_swf_trace(&text)
                .map_err(|e| e.to_string())?
                .records;
            if demand_guard(shape::demand(&records, CPUS), self.load).is_ok() {
                seeds.push(candidate);
                if seeds.len() == TRACES {
                    return Ok(seeds);
                }
            }
        }
        Err(format!(
            "only {} of trace seeds {first}..{} pass the demand guard",
            seeds.len(),
            first.wrapping_add(CANDIDATES)
        ))
    }

    /// Set-up: generates every trace and writes it to its path. Returns
    /// the seconds taken.
    fn set_up(&self, inputs: &mut [Input]) -> Result<f64, String> {
        let t = Instant::now();
        for input in inputs {
            let (text, n_jobs) = self.trace_text(input.seed);
            std::fs::write(&input.path, text)
                .map_err(|e| format!("cannot write {}: {e}", input.path.display()))?;
            input.jobs = n_jobs;
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// One pass over the trace at `path`; `tracer` is `Some` on traced
    /// passes, which also wrap the policy and observer in timing
    /// decorators and return the policy tally.
    fn pass(
        &self,
        path: &Path,
        seed: u64,
        n_jobs: usize,
        tracer: Option<(&mut Tracer, u64)>,
    ) -> Result<(Pass, Option<std::rc::Rc<PolicyTally>>), String> {
        let mut p = Pass::default();
        // The pass is timed on its own; the layer spans inside it leave
        // out the benchmark's bookkeeping, which shows in the coverage.
        let begin = Instant::now();
        let rss0 = rss_mb();
        let t0 = Instant::now();
        let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let trace = swf::read_swf(BufReader::new(file)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let from_cpus = trace.machine_size().unwrap_or(CPUS);
        let records = shape::remap_machine(&trace.records, from_cpus, CPUS);
        let records = shape::rescale_load(&records, self.load, CPUS);
        let (lo, hi) = records.iter().fold((f64::MAX, f64::MIN), |(lo, hi), r| {
            (lo.min(r.submit_secs), hi.max(r.submit_secs))
        });
        let jobs = shape::jobs_from_records(&records);
        let t2 = Instant::now();
        p.qs_rss_mb = rss_mb() - rss0;
        drop((trace, records));

        // The `pdpa replay` engine configuration.
        let mut config = EngineConfig::default()
            .with_seed(seed ^ 0xA5A5)
            .with_cpus(CPUS);
        config.max_sim_secs = config.max_sim_secs.max((hi - lo) * 20.0 + 10_000.0);
        let rss1 = rss_mb();
        let mut recorder = RecordingObserver::new();
        let traced = tracer.is_some();
        let t3 = Instant::now();
        let (result, tally) = if traced {
            let (policy, tally) = TimedPolicy::wrap(self.policy());
            let mut observer = TimedObserver::new(&mut recorder);
            let result = Engine::new(config).run_observed(jobs, policy, &mut observer);
            p.obs_events = observer.events;
            p.obs_busy_s = observer.busy_ns as f64 * 1e-9;
            (result, Some(tally))
        } else {
            let result = Engine::new(config).run_observed(jobs, self.policy(), &mut recorder);
            (result, None)
        };
        let t4 = Instant::now();
        p.engine_rss_mb = rss_mb() - rss1;
        let events = recorder.take_events();
        let bytes = pdpa_obs::write_stream(&events);
        let t5 = Instant::now();
        p.stream_events = events.len() as u64;
        // Holding the recorded and the decoded stream at once would double
        // the peak; the decoded one is checked by re-encoding it instead.
        drop(events);
        let t5b = Instant::now();
        let decoded = pdpa_obs::read_stream(&bytes)?;
        let t6 = Instant::now();
        let analysis = RunAnalysis::from_events(&decoded);
        let t7 = Instant::now();

        p.parse_s = secs(t0, t1);
        p.shape_s = secs(t1, t2);
        p.engine_s = secs(t3, t4);
        p.encode_s = secs(t4, t5);
        p.decode_s = secs(t5b, t6);
        p.analyze_s = secs(t6, t7);
        p.wall_s = secs(begin, t7);
        p.events_pushed = result.events_pushed;
        p.events_popped = result.events_popped;
        p.stale = result.events_stale_dropped;
        p.memo_hits = result.memo_hits;
        p.memo_misses = result.memo_misses;
        p.stream_bytes = bytes.len() as u64;
        p.digest = digest(&bytes);
        p.mean_running = analysis.mpl.mean_running;
        p.mean_waiting =
            analysis.timeline.avg_queue_wait_secs * n_jobs as f64 / analysis.span_secs.max(1.0);

        if let Some((tracer, request)) = tracer {
            let root = tracer.record("replay.pass", begin, t7, None, request);
            for (name, a, b) in [
                ("qs.parse", t0, t1),
                ("qs.shape", t1, t2),
                ("engine.run", t3, t4),
                ("obs.encode", t4, t5),
                ("obs.decode", t5b, t6),
                ("analyze", t6, t7),
            ] {
                tracer.record(name, a, b, Some(root), request);
            }
        }

        // Output checks; each failure fails the pass.
        if !result.completed_all || result.watchdog.is_some() {
            p.failures.push(format!(
                "run did not complete (watchdog: {:?})",
                result.watchdog
            ));
        }
        if analysis.timeline.jobs != n_jobs {
            p.failures.push(format!(
                "analyzer saw {} jobs, the trace has {n_jobs}",
                analysis.timeline.jobs
            ));
        }
        let engine_migrations = result.total_migrations() + result.quantum_rotations;
        if analysis.migrations.migrations() != engine_migrations {
            p.failures.push(format!(
                "analyzer replayed {} migrations, the engine counted {engine_migrations}",
                analysis.migrations.migrations()
            ));
        }
        if decoded.len() as u64 != p.stream_events
            || digest(&pdpa_obs::write_stream(&decoded)) != p.digest
        {
            p.failures
                .push("decoded PDPAOBS1 stream differs from the recorded one".into());
        }
        Ok((p, tally))
    }

    /// Runs the workload for about `seconds` and reports end-to-end
    /// metrics, or with `trace` the per-layer metrics of traced passes.
    pub fn run(&self, seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<Report, String> {
        let mut inputs: Vec<Input> = self
            .trace_seeds(seed)?
            .into_iter()
            .enumerate()
            .map(|(i, trace_seed)| Input {
                path: out.join(format!("{}-{seed}-{i}.swf", self.name)),
                seed: trace_seed,
                jobs: 0,
            })
            .collect();
        let setup_s = self.set_up(&mut inputs)?;
        let mut demands = Vec::new();
        for input in &inputs {
            let file = File::open(&input.path)
                .map_err(|e| format!("cannot open {}: {e}", input.path.display()))?;
            let records = swf::read_swf(BufReader::new(file))
                .map_err(|e| e.to_string())?
                .records;
            let demand = shape::demand(&records, CPUS);
            demand_guard(demand, self.load)?;
            demands.push(format!("{demand:.4}"));
        }

        let mut report = Report::new(format!(
            "w4 traces seeds {} ({} jobs, demand {}), {CPUS} CPUs, policy {}, window {WINDOW_SECS} s",
            inputs.iter().map(|i| i.seed.to_string()).collect::<Vec<_>>().join("/"),
            inputs.iter().map(|i| i.jobs.to_string()).collect::<Vec<_>>().join("/"),
            demands.join("/"),
            self.policy().name()
        ));
        let result = if trace {
            self.traced(&inputs[0], seconds, out, &mut report)
        } else {
            self.untraced(&mut inputs, seconds, setup_s, &mut report)
        };
        for input in &inputs {
            let _ = std::fs::remove_file(&input.path);
        }
        result.map(|()| report)
    }

    /// Replays the traces in turn for about `seconds`, setting up again
    /// before every pass: a set-up takes milliseconds, so its median is
    /// only steady when its samples span the run as the passes do.
    fn untraced(
        &self,
        inputs: &mut [Input],
        seconds: f64,
        first_setup_s: f64,
        report: &mut Report,
    ) -> Result<(), String> {
        let started = Instant::now();
        let mut setups = vec![first_setup_s];
        let mut walls = Vec::new();
        // Each stage's fastest time per job over the run's passes.
        let mut fastest = [f64::INFINITY; 7];
        // Peak memory once every trace has been replayed: later passes
        // only add allocator fragmentation, and how many fit in the run
        // depends on the host's speed.
        let mut peak_rss = 0.0;
        let mut digests: Vec<Option<u64>> = vec![None; inputs.len()];
        let cpus = allowed_cpus();
        for i in (0..inputs.len()).cycle() {
            pin_in_turn(&cpus, walls.len());
            if !walls.is_empty() {
                setups.push(self.set_up(inputs)?);
            }
            let input = &inputs[i];
            report.attempted += 1;
            match self.pass(&input.path, input.seed, input.jobs, None) {
                Ok((mut p, _)) => {
                    let reference = *digests[i].get_or_insert(p.digest);
                    let mut failures = std::mem::take(&mut p.failures);
                    if p.digest != reference {
                        failures.push(format!(
                            "trace {}: stream digest {:016x} differs from its first pass's \
                             {reference:016x}",
                            input.seed, p.digest
                        ));
                    }
                    report.fail_all(&failures);
                    walls.push(p.wall_s);
                    for (b, t) in fastest.iter_mut().zip(p.stages()) {
                        *b = b.min(t / input.jobs as f64);
                    }
                    if i + 1 == inputs.len() && peak_rss == 0.0 {
                        peak_rss = peak_rss_mb();
                    }
                    if started.elapsed().as_secs_f64() + p.wall_s > seconds {
                        break;
                    }
                }
                Err(e) => {
                    report.fail_all(&[e]);
                    break;
                }
            }
        }
        report.note(format!(
            "decision-stream digests {}",
            digests
                .iter()
                .flatten()
                .map(|d| format!("{d:016x}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if walls.is_empty() {
            return Ok(());
        }
        report.note(format!(
            "pass latency {}; passes {}",
            Dist::of(&walls, 99.0).describe(1e3, "ms"),
            walls
                .iter()
                .map(|w| format!("{:.0}", w * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        // The host's speed drifts in phases, within a pass too. Summing
        // each stage's fastest time per job over the run's passes gives the
        // pass the least disturbed by it. The metrics are that pass at the
        // traces' mean size, and the jobs it carries per second.
        let per_job_s: f64 = fastest.iter().sum();
        let mean_jobs = inputs.iter().map(|i| i.jobs as f64).sum::<f64>() / inputs.len() as f64;
        report.note(format!(
            "fastest stages at {mean_jobs:.0} jobs (ms): {}",
            STAGES
                .iter()
                .zip(fastest)
                .map(|(name, t)| format!("{name} {:.1}", t * mean_jobs * 1e3))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        report.note(format!(
            "set-up {}",
            Dist::of(&setups, 99.0).describe(1e3, "ms")
        ));
        report.metric("setup_s", median(&setups), "s");
        report.metric("latency_ms", per_job_s * mean_jobs * 1e3, "ms");
        report.metric("throughput_per_s", 1.0 / per_job_s, "1/s");
        if peak_rss == 0.0 {
            peak_rss = peak_rss_mb();
        }
        report.metric("peak_rss_mb", peak_rss, "MB");
        Ok(())
    }

    /// Untraced and traced passes over `input` in turn for about
    /// `seconds`. The per-layer figures come from the fastest traced pass,
    /// and the overhead compares it with the fastest untraced one: the
    /// host's speed drifts, and the fastest pass of each kind is the one
    /// the least disturbed by it.
    fn traced(
        &self,
        input: &Input,
        seconds: f64,
        out: &Path,
        report: &mut Report,
    ) -> Result<(), String> {
        let clock_ns = clock_cost_ns();
        let started = Instant::now();
        let mut tracer = Tracer::default();
        let mut reference = None;
        let mut plain_best = f64::INFINITY;
        let mut best: Option<(Pass, std::rc::Rc<PolicyTally>)> = None;
        let mut pairs = 0u64;
        let cpus = allowed_cpus();
        loop {
            pin_in_turn(&cpus, pairs as usize);
            let pair_start = Instant::now();
            report.attempted += 2;
            let (plain, _) = self.pass(&input.path, input.seed, input.jobs, None)?;
            let (p, tally) = self.pass(
                &input.path,
                input.seed,
                input.jobs,
                Some((&mut tracer, pairs)),
            )?;
            pairs += 1;
            let reference = *reference.get_or_insert(plain.digest);
            for (kind, pass) in [("untraced", &plain), ("traced", &p)] {
                let mut failures = pass.failures.clone();
                if pass.digest != reference {
                    failures.push(format!(
                        "{kind} stream digest {:016x} differs from the first untraced {reference:016x}",
                        pass.digest
                    ));
                }
                report.fail_all(&failures);
            }
            plain_best = plain_best.min(plain.wall_s);
            if best.as_ref().is_none_or(|(b, _)| p.wall_s < b.wall_s) {
                best = Some((p, tally.expect("traced passes tally the policy")));
            }
            let pair_s = pair_start.elapsed().as_secs_f64();
            if started.elapsed().as_secs_f64() + pair_s > seconds {
                break;
            }
        }
        let (p, tally) = best.expect("at least one traced pass");
        report.note(format!(
            "{pairs} untraced/traced pass pairs; fastest {:.1} / {:.1} ms",
            plain_best * 1e3,
            p.wall_s * 1e3
        ));
        report.note(format!("decision-stream digest {:016x}", p.digest));
        report.note(format!(
            "{:.1} jobs running and {:.0} waiting on average",
            p.mean_running, p.mean_waiting
        ));
        crate::write_spans(out, self.name, input.seed, &tracer)?;

        let policy_s = tally.busy_ns.get() as f64 * 1e-9;
        // Each decorated call reads the clock about once outside the
        // interval it charges; that time is the tracing's, not the engine's.
        let timer_s = clock_ns * (tally.calls() + p.obs_events) as f64 * 1e-9;
        let engine_self = p.engine_s - policy_s - p.obs_busy_s - timer_s;
        let layers_s = p.parse_s
            + p.shape_s
            + engine_self
            + policy_s
            + p.obs_busy_s
            + timer_s
            + p.encode_s
            + p.decode_s
            + p.analyze_s;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let jobs = input.jobs as f64;
        let calls = tally.calls() as f64;
        let decision_calls = tally.decision_calls() as f64;
        report.metric("qs.parse_s", p.parse_s, "s");
        report.metric("qs.shape_s", p.shape_s, "s");
        report.metric("qs.rss_delta_mb", p.qs_rss_mb, "MB");
        report.metric("engine.self_s", engine_self, "s");
        report.metric("engine.events", p.events_popped as f64, "count");
        report.metric(
            "engine.ns_per_event",
            ratio(engine_self * 1e9, p.events_popped as f64),
            "ns",
        );
        report.metric(
            "engine.stale_ratio",
            ratio(p.stale as f64, p.events_pushed as f64),
            "ratio",
        );
        report.metric(
            "engine.memo_hit_ratio",
            ratio(p.memo_hits as f64, (p.memo_hits + p.memo_misses) as f64),
            "ratio",
        );
        report.metric("engine.rss_delta_mb", p.engine_rss_mb, "MB");
        report.metric("policy.calls", calls, "count");
        report.metric("policy.arrival_calls", tally.arrival.get() as f64, "count");
        report.metric(
            "policy.completion_calls",
            tally.completion.get() as f64,
            "count",
        );
        report.metric("policy.report_calls", tally.report.get() as f64, "count");
        report.metric("policy.admit_calls", tally.admit.get() as f64, "count");
        report.metric("policy.busy_s", policy_s, "s");
        report.metric("policy.ns_per_call", ratio(policy_s * 1e9, calls), "ns");
        report.metric(
            "policy.nonempty_ratio",
            ratio(tally.nonempty.get() as f64, decision_calls),
            "ratio",
        );
        report.metric("obs.events", p.obs_events as f64, "count");
        report.metric("obs.publish_busy_s", p.obs_busy_s, "s");
        report.metric("obs.encode_s", p.encode_s, "s");
        report.metric("obs.decode_s", p.decode_s, "s");
        report.metric("obs.stream_bytes", p.stream_bytes as f64, "B");
        report.metric("obs.bytes_per_job", ratio(p.stream_bytes as f64, jobs), "B");
        report.metric("analyze.s", p.analyze_s, "s");
        report.metric(
            "analyze.ns_per_event",
            ratio(p.analyze_s * 1e9, p.stream_events as f64),
            "ns",
        );
        report.metric(
            "trace.overhead_ratio",
            ratio(p.wall_s, plain_best) - 1.0,
            "ratio",
        );
        report.metric("trace.timer_s", timer_s, "s");
        report.metric("trace.coverage", ratio(layers_s, p.wall_s), "ratio");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_guard_allows_five_percent() {
        assert!(demand_guard(0.6, 0.6).is_ok());
        assert!(demand_guard(0.629, 0.6).is_ok());
        assert!(demand_guard(0.571, 0.6).is_ok());
        assert!(demand_guard(0.631, 0.6).is_err());
        assert!(demand_guard(0.94, 1.0).is_err());
        // A `--jobs`-style trace at about 2.6x its stated demand fails.
        let err = demand_guard(2.66, 1.0).unwrap_err();
        assert!(err.contains("2.66"), "{err}");
    }

    #[test]
    fn stages_sum_to_the_pass_wall() {
        let p = Pass {
            parse_s: 0.01,
            shape_s: 0.02,
            engine_s: 0.5,
            encode_s: 0.04,
            decode_s: 0.05,
            analyze_s: 0.03,
            wall_s: 0.7,
            ..Pass::default()
        };
        let stages = p.stages();
        assert_eq!(stages.len(), STAGES.len());
        assert!((stages.iter().sum::<f64>() - p.wall_s).abs() < 1e-12);
        assert!(
            (stages[6] - 0.05).abs() < 1e-12,
            "rest is the untimed remainder"
        );
    }

    #[test]
    fn generated_traces_pass_the_guard() {
        for replay in [STEADY, BACKLOG] {
            let (text, n_jobs) = replay.trace_text(3);
            let records = swf::parse_swf_trace(&text).unwrap().records;
            assert_eq!(records.len(), n_jobs);
            demand_guard(shape::demand(&records, CPUS), replay.load).unwrap();
        }
    }

    #[test]
    fn runs_skip_traces_that_miss_the_guard() {
        // Traces 80 and 83 sit at demand 0.632 and 0.563, trace 1265 at 0.935.
        assert_eq!(STEADY.trace_seeds(5).unwrap(), vec![81, 82, 84, 85]);
        assert_eq!(BACKLOG.trace_seeds(79).unwrap(), vec![1264, 1266, 1267, 1268]);
        assert_eq!(STEADY.trace_seeds(0).unwrap(), vec![0, 1, 2, 3]);
    }
}
