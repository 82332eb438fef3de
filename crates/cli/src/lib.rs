//! The `pdpa` command-line driver.
//!
//! A thin, dependency-free front end over the workspace:
//!
//! ```text
//! pdpa run     --workload w3 --policy pdpa --load 0.8 [options]
//! pdpa compare --workload w3 --load 0.8 [options]
//! pdpa analyze --workload w3 --policy pdpa [options]
//! pdpa diff    --workload w3 --policy pdpa --policy-b equip [options]
//! pdpa replay  trace.swf --policy pdpa [--load 1.0 --cpus 60 --window 0:45000]
//! pdpa tournament [trace.swf] [--load 1.0 --cpus 60 --out report.json]
//! pdpa watch   127.0.0.1:7777 [--follow --json --tail 20]
//! pdpa daemon  [--addr 127.0.0.1:7777 --policy pdpa --cpus 32 --time-scale 60]
//! pdpa submit  127.0.0.1:7777 --class swim [--request 8 --work-secs 4000 --count 10]
//! pdpa ctl     127.0.0.1:7777 <hello|drain|snapshot|shutdown|cancel|jobs|job> [...]
//! pdpa curves
//! ```
//!
//! All commands are implemented as library functions returning their output
//! as a `String`, so the whole surface is unit-testable; the binary in
//! `src/bin/pdpa.rs` only forwards `std::env::args` and prints.

pub mod args;
pub mod commands;

pub use args::{parse, Command, Options, ReplayOptions};
pub use commands::dispatch;

/// Runs the CLI against an argument list (excluding the program name) and
/// returns the output text.
///
/// # Errors
///
/// Returns a usage/diagnostic message on invalid arguments or a failed run.
pub fn run(args: &[String]) -> Result<String, String> {
    let command = parse(args)?;
    dispatch(command)
}

/// The usage text.
pub const USAGE: &str = "\
pdpa — Performance-Driven Processor Allocation reproduction driver

USAGE:
  pdpa run     --workload <w1|w2|w3|w4>
               --policy <pdpa|equip|equal-eff|irix|rigid|gang|hesrpt|optsplit|learned>
               [--load <frac>] [--seed <n>] [--cpus <n>] [--untuned]
               [--backfill] [--trace] [--ascii] [--prv-out <file>] [--swf-log <file>]
               [--obs] [--trace-out <file>] [--metrics-out <file>] [--mpl-csv <file>]
               [--analyze-out <file>] [--faults <plan>]
  pdpa compare --workload <w1|w2|w3|w4> [--load <frac>] [--seed <n>] [--cpus <n>] [--untuned]
  pdpa analyze --workload <w1|w2|w3|w4> --policy <name>
               [--load <frac>] [--seed <n>] [--cpus <n>] [--analyze-out <file>] [run options]
  pdpa analyze --from-stream <file>   [--analyze-out <file>]
  pdpa diff    --workload <w1|w2|w3|w4> --policy <name>
               [--policy-b <name>] [--seed-b <n>] [--load <frac>] [--seed <n>] [--cpus <n>]
  pdpa diff    --from-stream <file> --from-stream-b <file>
  pdpa replay  <trace.swf> --policy <name>
               [--load <frac>] [--cpus <n>] [--window <start:end>] [--seed <n>]
               [--obs] [--trace-out <file>] [--analyze-out <file>]
               [--obs-out <file>] [--obs-format <text|binary>] [--profile-out <file>]
               [--no-watchdog] [--heartbeat <secs>] [--faults <plan>]
               [--serve <addr>] [--obs-filter <kind,...>]
  pdpa tournament [<trace.swf>] [--cpus <n>] [--seed <n>] [--load <frac>]
               [--duration <secs>] [--out <file>]
  pdpa watch   <host:port> [--follow] [--json] [--tail <n>] [--interval <secs>]
  pdpa daemon  [--addr <host:port>] [--policy <name>] [--cpus <n>] [--seed <n>]
               [--backfill] [--max-queue <n>] [--time-scale <x>]
               [--max-sim-secs <secs>] [--stream <file>] [--snapshot <file>]
               [--restore <file>]
  pdpa submit  <host:port> [--class <name>] [--request <n>] [--work-secs <secs>]
               [--count <n>] [--json]
  pdpa ctl     <host:port> hello | drain | snapshot [<file>]
               | shutdown [--snapshot <file>] | cancel <job> | jobs [<n>]
               | job <id>   [--json]
  pdpa curves

COMMANDS:
  run       execute one workload under one policy and print per-class metrics
  compare   execute one workload under every policy and print the comparison
  analyze   record one run and print derived analytics: per-job timelines,
            PDPA time-in-state, migration accounting, CPU/MPL series
  diff      record two runs and report the first divergent event (sim_time,
            seq, kind) plus per-metric deltas
  replay    replay a Standard Workload Format trace file through the engine:
            shape it (--window slice, --cpus remap, --load rescale), run it
            under one policy, and print makespan, utilization, and the
            per-job slowdown distribution
  tournament  race the whole policy zoo (PDPA, Equip, Equal_eff, Rigid,
            Gang, heSRPT, OptSplit, LearnedAlloc) over an SWF-replay leg
            (a given trace file, or a generated shaped one) and the fixed
            chaos fault plan, ranked by p50/p90/p99 per-job slowdown;
            --out writes the pdpa-tournament/v1 JSON report
  watch     query a live `replay --serve` run over TCP: status, progress
            with events/s and ETA, health, and (with --tail) the newest
            observer events; --follow polls until the run finishes and
            exits non-zero if it was aborted; --json prints the raw
            protocol response lines; in follow mode a lost connection is
            retried with bounded backoff instead of exiting
  daemon    run pdpad, the resident scheduler daemon: own a live engine,
            admit streaming submissions with explicit backpressure, serve
            the whole watch query vocabulary on one socket, and
            snapshot/restore full scheduler state (see DAEMON.md)
  submit    push one or more jobs into a running daemon and print each
            admission decision; exits non-zero on any rejection
  ctl       one control request against a running daemon: hello, drain,
            snapshot [PATH], shutdown [--snapshot PATH], cancel JOB,
            jobs [N], job ID
  curves    print the calibrated Fig. 3 speedup curves

OPTIONS:
  --workload   one of the paper's Table-1 workloads (required for run/compare)
  --policy     scheduling policy (required for run)
  --load       system load fraction, default 1.0
  --seed       workload/engine seed, default 42
  --cpus       machine size, default 60
  --untuned    every application requests 30 processors (Tables 3/4)
  --backfill   scan the whole queue for an admissible job (not just the head)
  --trace      collect the per-CPU activity trace
  --ascii      print the Fig. 5 ASCII execution view (implies --trace)
  --prv-out    write a Paraver .prv trace to a file (implies --trace)
  --swf-log    write the completed run as an SWF log to a file
  --obs        print a decision-event summary after the metrics
  --trace-out  write the decision-event stream as Chrome trace_event JSON
               (open in Perfetto or chrome://tracing)
  --metrics-out  write the metrics-registry snapshot as JSON
  --mpl-csv    write the multiprogramming-level history as CSV (Fig. 8 data)
  --analyze-out  write the pdpa-analyze/v1 analysis document as JSON
  --policy-b   diff only: the second run's policy (defaults to --policy)
  --seed-b     diff only: the second run's seed (defaults to --seed)
  --window     replay only: keep submissions inside [start, end) seconds
  --obs-out    replay only: write the decision-event stream to a file
  --obs-format replay only: --obs-out encoding, text (default) or the
               PDPAOBS1 length-prefixed binary framing
  --profile-out  replay only: enable the span profiler and write its Chrome
               trace_event JSON (one coordinator lane); also prints the text
               hot-path report
  --watchdog / --no-watchdog  replay only: abort with a structured
               diagnostic when the simulated clock stops advancing
               (default on)
  --heartbeat  replay only: print health snapshots (clock, events/s, queue
               depth, memory) to stderr every SECS seconds
  --serve      replay only: answer status/progress/health/metrics/tail
               queries on this TCP address while the run is live
               (127.0.0.1:0 picks an ephemeral port, printed to stderr)
  --obs-filter replay only: keep only these comma-separated event kinds in
               the recorded stream (e.g. decision,state,mpl) — tames
               event-flooding policies like the IRIX 250 ms quantum
  --follow     watch only: poll every --interval seconds (default 1) until
               the run reaches a terminal state, reconnecting with bounded
               backoff if the server restarts
  --addr       daemon only: TCP address to bind (default 127.0.0.1:0, an
               ephemeral port printed to stderr)
  --max-queue  daemon only: admission bound — submits beyond this many
               waiting jobs are rejected with queue_full (default 64)
  --time-scale daemon only: simulated seconds advanced per wall-clock
               second (default 1.0; 0 freezes time between requests)
  --stream     daemon only: append the decision-event stream to this file
               (restores continue it without repeating events)
  --snapshot   daemon only: default snapshot path for `ctl snapshot` and
               `ctl shutdown --snapshot`
  --restore    daemon only: start from a pdpa-snapshot/v1 file instead of
               an empty machine
  --class      submit only: application class (swim, bt.A, hydro2d, apsi;
               default swim)
  --request    submit only: override the job's processor request
  --work-secs  submit only: rescale the job to this much sequential work
  --count      submit only: submit this many identical jobs (default 1)
  --tail       watch only: also fetch the newest N observer events
  --duration   tournament only: submission window of the generated trace
               in seconds (conflicts with a trace file)
  --out        tournament only: write the ranked report as JSON
  --from-stream / --from-stream-b  analyze/diff only: read recorded
               decision-event streams (text or binary, auto-detected)
               instead of running the engine; a stream diff exits non-zero
               on divergence
  --faults     inject a deterministic fault plan, e.g.
               \"cpu3@120:recover@300;job0@70;retry=2,backoff=30\" or \"mtbf=4000\"
";
