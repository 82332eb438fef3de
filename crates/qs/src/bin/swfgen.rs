//! `swfgen` — generate and inspect Standard Workload Format traces.
//!
//! ```text
//! swfgen gen <w1|w2|w3|w4> <load> <seed> [--untuned] [--cpus N] [--duration S | --jobs N]
//! swfgen info < trace.swf                              # summarize stdin
//! ```
//!
//! `gen` writes SWF to stdout; `--duration` stretches the submission
//! window past the paper's 300 s (job count scales linearly with it, so
//! long windows produce the multi-thousand-job traces the replay engine
//! is benchmarked on) and `--cpus` sets the machine the demand math
//! targets. `--jobs N` pins the trace to **exactly** N jobs (the same
//! Poisson process conditioned on its count) at the requested demand; the
//! window then follows from the load, so it excludes `--duration`. Use it
//! when a benchmark promises a specific trace size.
//!
//! The paper distributes its workloads as SWF trace files so that every
//! scheduling policy replays the identical submission sequence; this tool
//! produces and summarizes such files.

use std::io::Read;
use std::process::ExitCode;

use pdpa_apps::AppClass;
use pdpa_qs::{
    generate, generate_exact, swf, GeneratorConfig, Workload, DEFAULT_DURATION_SECS,
    DEFAULT_MACHINE_CPUS,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  swfgen gen <w1|w2|w3|w4> <load> <seed> [--untuned] [--cpus N] [--duration S | --jobs N]\n  swfgen info < trace.swf"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("info") => info(),
        _ => usage(),
    }
}

fn gen(args: &[String]) -> ExitCode {
    let (Some(wl), Some(load), Some(seed)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    let workload = match wl.as_str() {
        "w1" => Workload::W1,
        "w2" => Workload::W2,
        "w3" => Workload::W3,
        "w4" => Workload::W4,
        other => {
            eprintln!("unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let Ok(load) = load.parse::<f64>() else {
        eprintln!("load must be a number, got {load:?}");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("seed must be an integer, got {seed:?}");
        return ExitCode::from(2);
    };
    let tuned = !args.iter().any(|a| a == "--untuned");
    let duration = match flag_value(args, "--duration") {
        Some(Ok(v)) if v > 0.0 => v,
        Some(_) => {
            eprintln!("--duration must be a positive number of seconds");
            return ExitCode::from(2);
        }
        None => DEFAULT_DURATION_SECS,
    };
    let cpus = match flag_value(args, "--cpus") {
        Some(Ok(v)) if v >= 1.0 => v as usize,
        Some(_) => {
            eprintln!("--cpus must be a positive integer");
            return ExitCode::from(2);
        }
        None => DEFAULT_MACHINE_CPUS,
    };
    let exact_jobs = match flag_value(args, "--jobs") {
        Some(Ok(v)) if v >= 1.0 && v.fract() == 0.0 => Some(v as usize),
        Some(_) => {
            eprintln!("--jobs must be a positive integer");
            return ExitCode::from(2);
        }
        None => None,
    };
    if exact_jobs.is_some() && flag_value(args, "--duration").is_some() {
        eprintln!("--jobs derives the submission window from the load; drop --duration");
        return ExitCode::from(2);
    }
    let config = GeneratorConfig {
        composition: workload.composition(),
        load,
        cpus,
        duration_secs: duration,
        tuned,
    };
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::from(2);
    }
    let jobs = match exact_jobs {
        Some(n) => generate_exact(&config, seed, n),
        None => generate(&config, seed),
    };
    print!("{}", swf::write_swf(&jobs));
    ExitCode::SUCCESS
}

/// The parsed value following `flag`, if the flag is present.
fn flag_value(args: &[String], flag: &str) -> Option<Result<f64, ()>> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1).and_then(|v| v.parse().ok()).ok_or(()))
}

fn info() -> ExitCode {
    let mut text = String::new();
    if std::io::stdin().read_to_string(&mut text).is_err() {
        eprintln!("could not read stdin");
        return ExitCode::FAILURE;
    }
    let jobs = match swf::parse_swf(&text) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{} jobs", jobs.len());
    if let (Some(first), Some(last)) = (jobs.first(), jobs.last()) {
        println!(
            "submissions: {:.1}s .. {:.1}s",
            first.submit.as_secs(),
            last.submit.as_secs()
        );
    }
    for class in AppClass::ALL {
        let of_class: Vec<_> = jobs.iter().filter(|j| j.app.class == class).collect();
        if of_class.is_empty() {
            continue;
        }
        let work: f64 = of_class
            .iter()
            .map(|j| j.app.total_seq_time().as_secs())
            .sum();
        let requests: std::collections::BTreeSet<usize> =
            of_class.iter().map(|j| j.app.request).collect();
        println!(
            "  {:<8} {:>4} jobs, {:>8.0} cpu-s, requests {:?}",
            class.name(),
            of_class.len(),
            work,
            requests
        );
    }
    ExitCode::SUCCESS
}
