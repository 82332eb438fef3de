//! Hand-rolled argument parsing (no external dependencies).

use std::str::FromStr;
use std::time::Duration;

use pdpa_core::roster::{self, Entry};
use pdpa_qs::Workload;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `pdpa run` — one workload, one policy.
    Run(Options),
    /// `pdpa compare` — one workload, every policy.
    Compare(Options),
    /// `pdpa analyze` — one recorded run, full derived analytics.
    Analyze(Options),
    /// `pdpa diff` — two recorded runs, first divergence + metric deltas.
    Diff(Options),
    /// `pdpa replay` — replay an SWF trace file through the engine.
    Replay(ReplayOptions),
    /// `pdpa tournament` — race the whole policy zoo and rank by slowdown.
    Tournament(TournamentOptions),
    /// `pdpa watch` — query a live `--serve` replay over TCP.
    Watch(WatchOptions),
    /// `pdpa daemon` — run `pdpad`, the resident scheduler daemon.
    Daemon(DaemonOptions),
    /// `pdpa submit` — submit jobs to a running `pdpad`.
    Submit(SubmitOptions),
    /// `pdpa ctl` — control a running `pdpad` (drain, snapshot, ...).
    Ctl(CtlOptions),
    /// `pdpa curves` — print the Fig. 3 speedup curves.
    Curves,
    /// `pdpa help` / `--help`.
    Help,
}

/// Options of `pdpa replay`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOptions {
    /// Path of the SWF trace to replay.
    pub trace_path: String,
    /// Scheduling policy to replay under.
    pub policy: &'static Entry,
    /// Rescale the trace to this demand fraction (omitted: replay the
    /// trace's intrinsic arrival rate).
    pub load: Option<f64>,
    /// Machine size to replay on; requests are remapped from the trace's
    /// recorded machine size.
    pub cpus: usize,
    /// Replay only the submissions inside `[start, end)` seconds.
    pub window: Option<(f64, f64)>,
    /// Engine seed (timing noise).
    pub seed: u64,
    /// Print a decision-event summary after the metrics.
    pub obs: bool,
    /// Write a Chrome `trace_event` JSON of the decision-event stream here.
    pub trace_out: Option<String>,
    /// Write the `pdpa-analyze/v1` analysis document here.
    pub analyze_out: Option<String>,
    /// Fault-injection plan (the `pdpa_faults::FaultPlan` grammar).
    pub faults: Option<String>,
    /// Enable the span profiler and write its Chrome `trace_event` JSON
    /// here; also prints the text hot-path report.
    pub profile_out: Option<String>,
    /// Write the recorded decision-event stream to this file.
    pub obs_out: Option<String>,
    /// Serialization of `--obs-out`: line-oriented text or the `PDPAOBS1`
    /// length-prefixed binary framing.
    pub obs_format: ObsFormat,
    /// Abort with a structured diagnostic when the simulated clock stops
    /// advancing (default on for replay; `--no-watchdog` disables).
    pub watchdog: bool,
    /// Emit periodic health snapshots to stderr at this wall-clock cadence
    /// (`--heartbeat SECS`; off when omitted).
    pub heartbeat: Option<Duration>,
    /// Serve live status/metrics queries on this TCP address while the
    /// replay runs (`--serve ADDR`; `127.0.0.1:0` picks an ephemeral port,
    /// printed to stderr at bind time).
    pub serve: Option<String>,
    /// Keep only these comma-separated event kinds in the recorded stream
    /// (`--obs-filter kind1,kind2`; validated against `ObsEvent::KINDS` at
    /// parse time).
    pub obs_filter: Option<String>,
}

/// Options of `pdpa tournament`.
#[derive(Clone, Debug, PartialEq)]
pub struct TournamentOptions {
    /// SWF trace file for the replay leg (omitted: a shaped trace is
    /// generated in process).
    pub trace_path: Option<String>,
    /// Machine size of the replay leg.
    pub cpus: usize,
    /// Seed for trace generation and both legs' engines.
    pub seed: u64,
    /// Rescale the replay leg to this demand fraction.
    pub load: Option<f64>,
    /// Submission window of the generated trace, seconds (only without a
    /// trace file).
    pub duration: Option<f64>,
    /// Write the `pdpa-tournament/v1` JSON report here.
    pub out: Option<String>,
}

impl Default for TournamentOptions {
    fn default() -> Self {
        TournamentOptions {
            trace_path: None,
            cpus: 60,
            seed: 42,
            load: None,
            duration: None,
            out: None,
        }
    }
}

/// On-disk encodings of a decision-event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsFormat {
    /// One event per line, the `TimedEvent::to_line` grammar.
    #[default]
    Text,
    /// `PDPAOBS1` magic + uvarint length-prefixed frames.
    Binary,
}

impl ObsFormat {
    /// Parses an `--obs-format` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(ObsFormat::Text),
            "binary" | "bin" => Some(ObsFormat::Binary),
            _ => None,
        }
    }
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            trace_path: String::new(),
            policy: roster::get("pdpa"),
            load: None,
            cpus: 60,
            window: None,
            seed: 42,
            obs: false,
            trace_out: None,
            analyze_out: None,
            faults: None,
            profile_out: None,
            obs_out: None,
            obs_format: ObsFormat::Text,
            watchdog: true,
            heartbeat: None,
            serve: None,
            obs_filter: None,
        }
    }
}

/// Options of `pdpa watch`.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchOptions {
    /// TCP address of the `--serve` replay to query.
    pub addr: String,
    /// Poll until the run reaches a terminal state instead of querying
    /// once.
    pub follow: bool,
    /// Print the raw protocol response lines (NDJSON) instead of the
    /// human rendering.
    pub json: bool,
    /// Also fetch the newest N observer events.
    pub tail: Option<usize>,
    /// Poll cadence for `--follow` (`--interval SECS`).
    pub interval: Duration,
}

impl Default for WatchOptions {
    fn default() -> Self {
        WatchOptions {
            addr: String::new(),
            follow: false,
            json: false,
            tail: None,
            interval: Duration::from_secs(1),
        }
    }
}

/// Options of `pdpa daemon`.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonOptions {
    /// TCP address to serve on (`127.0.0.1:0` picks an ephemeral port,
    /// printed to stderr at bind time).
    pub addr: String,
    /// Scheduling policy the daemon runs.
    pub policy: &'static Entry,
    /// Machine size.
    pub cpus: usize,
    /// Engine seed.
    pub seed: u64,
    /// Queue backfilling.
    pub backfill: bool,
    /// Admission bound: reject submissions with `queue_full` while this
    /// many jobs wait.
    pub max_queue: usize,
    /// Sim seconds advanced per wall second between ops (`0` disables
    /// pacing).
    pub time_scale: f64,
    /// Simulation horizon override.
    pub max_sim_secs: Option<f64>,
    /// Write the decision-event stream to this file.
    pub stream: Option<String>,
    /// Default snapshot target for `snapshot`/`shutdown` requests that
    /// name no path.
    pub snapshot: Option<String>,
    /// Restore state from this `pdpa-snapshot/v1` file before serving.
    pub restore: Option<String>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            addr: "127.0.0.1:0".to_string(),
            policy: roster::get("pdpa"),
            cpus: 32,
            seed: 42,
            backfill: false,
            max_queue: 64,
            time_scale: 1.0,
            max_sim_secs: None,
            stream: None,
            snapshot: None,
            restore: None,
        }
    }
}

/// Options of `pdpa submit`.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitOptions {
    /// TCP address of the daemon.
    pub addr: String,
    /// Application class (`swim`, `bt.A`, `hydro2d`, `apsi`).
    pub class: String,
    /// Processor request override.
    pub request: Option<u64>,
    /// Sequential-work override in sim seconds.
    pub work_secs: Option<f64>,
    /// Submit this many identical jobs.
    pub count: usize,
    /// Print raw protocol response lines instead of the human rendering.
    pub json: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            addr: String::new(),
            class: "swim".to_string(),
            request: None,
            work_secs: None,
            count: 1,
            json: false,
        }
    }
}

/// The control action of `pdpa ctl`.
#[derive(Clone, Debug, PartialEq)]
pub enum CtlAction {
    /// Identify the server (`hello`).
    Hello,
    /// Finish all admitted work and stop admitting.
    Drain,
    /// Write a snapshot (optionally to an explicit path).
    Snapshot(Option<String>),
    /// Shut the daemon down (optionally snapshotting first).
    Shutdown(Option<String>),
    /// Cancel one job.
    Cancel(u64),
    /// List the newest N jobs.
    Jobs(usize),
    /// Show one job.
    Job(u64),
}

/// Options of `pdpa ctl`.
#[derive(Clone, Debug, PartialEq)]
pub struct CtlOptions {
    /// TCP address of the daemon.
    pub addr: String,
    /// What to ask it.
    pub action: CtlAction,
    /// Print raw protocol response lines instead of the human rendering.
    pub json: bool,
}

/// Options shared by `run` and `compare`.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// The workload to execute.
    pub workload: Workload,
    /// Policy (meaningful for `run`; `compare` runs them all).
    pub policy: Option<&'static Entry>,
    /// System load fraction.
    pub load: f64,
    /// Seed for the generator and engine.
    pub seed: u64,
    /// Machine size.
    pub cpus: usize,
    /// Untuned requests (everything asks for 30).
    pub untuned: bool,
    /// Queue backfilling.
    pub backfill: bool,
    /// Per-CPU trace: a chained `TraceObserver`, quantum clock on.
    pub trace: bool,
    /// Print the ASCII execution view.
    pub ascii: bool,
    /// Write a Paraver trace here.
    pub prv_out: Option<String>,
    /// Write an SWF log here.
    pub swf_log: Option<String>,
    /// Print a decision-event summary after the metrics.
    pub obs: bool,
    /// Write a Chrome `trace_event` JSON of the decision-event stream here.
    pub trace_out: Option<String>,
    /// Write the metrics-registry snapshot as JSON here.
    pub metrics_out: Option<String>,
    /// Write the MPL/allocation time-series CSV here.
    pub mpl_csv: Option<String>,
    /// Write the `pdpa-analyze/v1` analysis document here.
    pub analyze_out: Option<String>,
    /// Fault-injection plan (the `pdpa_faults::FaultPlan` grammar),
    /// unparsed — validated against `cpus` when the engine is built.
    pub faults: Option<String>,
    /// Second policy for `pdpa diff` (defaults to `--policy`).
    pub policy_b: Option<&'static Entry>,
    /// Second seed for `pdpa diff` (defaults to `--seed`).
    pub seed_b: Option<u64>,
    /// `analyze`/`diff`: read this recorded decision-event stream (text or
    /// `PDPAOBS1` binary, auto-detected) instead of running the engine.
    pub from_stream: Option<String>,
    /// `diff`: the second recorded stream to compare against.
    pub from_stream_b: Option<String>,
}

impl Options {
    /// Whether the run exports what it published (the event summary, the
    /// stream's exports or the metrics), so it runs under a CLI scope.
    pub fn observing(&self) -> bool {
        self.obs
            || self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.mpl_csv.is_some()
            || self.analyze_out.is_some()
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: Workload::W3,
            policy: None,
            load: 1.0,
            seed: 42,
            cpus: 60,
            untuned: false,
            backfill: false,
            trace: false,
            ascii: false,
            prv_out: None,
            swf_log: None,
            obs: false,
            trace_out: None,
            metrics_out: None,
            mpl_csv: None,
            analyze_out: None,
            faults: None,
            policy_b: None,
            seed_b: None,
            from_stream: None,
            from_stream_b: None,
        }
    }
}

fn parse_workload(s: &str) -> Result<Workload, String> {
    match s.to_ascii_lowercase().as_str() {
        "w1" => Ok(Workload::W1),
        "w2" => Ok(Workload::W2),
        "w3" => Ok(Workload::W3),
        "w4" => Ok(Workload::W4),
        other => Err(format!("unknown workload {other:?}; expected w1..w4")),
    }
}

/// A cursor over one command's arguments. The typed readers take the
/// value of the flag [`next`](Cursor::next) returned last, and name that
/// flag in their diagnostics.
struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The next argument, unless it is a flag.
    fn positional(&mut self) -> Option<&'a str> {
        match self.args.as_slice().first() {
            Some(next) if !next.starts_with('-') => self.next(),
            _ => None,
        }
    }

    /// The flag's value.
    fn value_of(&mut self) -> Result<String, String> {
        let flag = self.flag;
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The flag's value parsed as a `T` (`what` names `T` in the
    /// diagnostic), with the text it was parsed from.
    fn parsed<T: FromStr>(&mut self, what: &str) -> Result<(T, String), String> {
        let v = self.value_of()?;
        match v.parse() {
            Ok(x) => Ok((x, v)),
            Err(_) => Err(format!("{} expects {what}, got {v:?}", self.flag)),
        }
    }

    /// A count, at least 1.
    fn count(&mut self) -> Result<usize, String> {
        match self.parsed("an integer")? {
            (0, _) => Err(format!("{} must be at least 1", self.flag)),
            (n, _) => Ok(n),
        }
    }

    fn seed(&mut self) -> Result<u64, String> {
        Ok(self.parsed("an integer")?.0)
    }

    /// A load fraction in (0, 2].
    fn load(&mut self) -> Result<f64, String> {
        let (load, v) = self.parsed::<f64>("a number")?;
        if !(load > 0.0 && load <= 2.0) {
            return Err(format!("{} {v} out of range (0, 2]", self.flag));
        }
        Ok(load)
    }

    /// A positive, finite number of seconds, with its text.
    fn positive_secs(&mut self) -> Result<(f64, String), String> {
        let (secs, v) = self.parsed::<f64>("seconds")?;
        if !(secs > 0.0 && secs.is_finite()) {
            return Err(format!(
                "{} {v} must be a positive number of seconds",
                self.flag
            ));
        }
        Ok((secs, v))
    }

    fn secs(&mut self) -> Result<f64, String> {
        Ok(self.positive_secs()?.0)
    }

    fn duration(&mut self) -> Result<Duration, String> {
        let (secs, v) = self.positive_secs()?;
        Duration::try_from_secs_f64(secs).map_err(|_| {
            format!(
                "{} {v} is out of range (more seconds than a duration holds)",
                self.flag
            )
        })
    }

    /// A policy named by a roster slug or alias.
    fn policy(&mut self) -> Result<&'static Entry, String> {
        roster::lookup(&self.value_of()?)
    }
}

fn unknown_option(arg: &str) -> String {
    format!("unknown option {arg:?}; try `pdpa help`")
}

/// Stores the one positional argument of a command in `slot`; `what`
/// names it in the diagnostic for a second one.
fn set_once(slot: &mut String, arg: &str, what: &str) -> Result<(), String> {
    if !slot.is_empty() {
        return Err(format!("{what}; got {slot:?} and {arg:?}"));
    }
    *slot = arg.to_string();
    Ok(())
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable diagnostic on any malformed input.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut args = Cursor {
        args: args.iter(),
        flag: "",
    };
    let Some(verb) = args.next() else {
        return Ok(Command::Help);
    };
    match verb {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "curves" => return Ok(Command::Curves),
        "replay" => return parse_replay(&mut args),
        "tournament" => return parse_tournament(&mut args),
        "watch" => return parse_watch(&mut args),
        "daemon" => return parse_daemon(&mut args),
        "submit" => return parse_submit(&mut args),
        "ctl" => return parse_ctl(&mut args),
        "run" | "compare" | "analyze" | "diff" => {}
        other => return Err(format!("unknown command {other:?}; try `pdpa help`")),
    }

    let mut opts = Options::default();
    let mut workload_set = false;
    while let Some(arg) = args.next() {
        match arg {
            "--workload" => {
                opts.workload = parse_workload(&args.value_of()?)?;
                workload_set = true;
            }
            "--policy" => opts.policy = Some(args.policy()?),
            "--load" => opts.load = args.load()?,
            "--seed" => opts.seed = args.seed()?,
            "--cpus" => opts.cpus = args.count()?,
            "--untuned" => opts.untuned = true,
            "--backfill" => opts.backfill = true,
            "--trace" => opts.trace = true,
            "--ascii" => {
                opts.ascii = true;
                opts.trace = true;
            }
            "--prv-out" => {
                opts.prv_out = Some(args.value_of()?);
                opts.trace = true;
            }
            "--swf-log" => opts.swf_log = Some(args.value_of()?),
            "--obs" => opts.obs = true,
            "--trace-out" => opts.trace_out = Some(args.value_of()?),
            "--metrics-out" => opts.metrics_out = Some(args.value_of()?),
            "--mpl-csv" => opts.mpl_csv = Some(args.value_of()?),
            "--analyze-out" => opts.analyze_out = Some(args.value_of()?),
            "--faults" => opts.faults = Some(args.value_of()?),
            "--policy-b" => opts.policy_b = Some(args.policy()?),
            "--seed-b" => opts.seed_b = Some(args.seed()?),
            "--from-stream" => opts.from_stream = Some(args.value_of()?),
            "--from-stream-b" => opts.from_stream_b = Some(args.value_of()?),
            other => return Err(unknown_option(other)),
        }
    }
    let from_stream = opts.from_stream.is_some();
    if from_stream && !matches!(verb, "analyze" | "diff") {
        return Err("--from-stream is only meaningful for `pdpa analyze`/`pdpa diff`".into());
    }
    if opts.from_stream_b.is_some() && verb != "diff" {
        return Err("--from-stream-b is only meaningful for `pdpa diff`".into());
    }
    if verb == "diff" && (from_stream != opts.from_stream_b.is_some()) {
        return Err(
            "`pdpa diff` compares two streams; give both --from-stream and --from-stream-b".into(),
        );
    }
    if !workload_set && !from_stream {
        return Err("--workload is required".into());
    }
    if verb != "diff" && (opts.policy_b.is_some() || opts.seed_b.is_some()) {
        return Err("--policy-b/--seed-b are only meaningful for `pdpa diff`".into());
    }
    match verb {
        "run" | "analyze" | "diff" => {
            if opts.policy.is_none() && !from_stream {
                return Err(format!("--policy is required for `pdpa {verb}`"));
            }
            Ok(match verb {
                "run" => Command::Run(opts),
                "analyze" => Command::Analyze(opts),
                _ => Command::Diff(opts),
            })
        }
        _ => Ok(Command::Compare(opts)),
    }
}

/// Parses `pdpa replay <trace.swf> [flags]`.
fn parse_replay(args: &mut Cursor) -> Result<Command, String> {
    let mut opts = ReplayOptions::default();
    let mut policy_set = false;
    while let Some(arg) = args.next() {
        match arg {
            "--policy" => {
                opts.policy = args.policy()?;
                policy_set = true;
            }
            "--load" => opts.load = Some(args.load()?),
            "--cpus" => opts.cpus = args.count()?,
            "--window" => opts.window = Some(parse_window(&args.value_of()?)?),
            "--seed" => opts.seed = args.seed()?,
            "--obs" => opts.obs = true,
            "--trace-out" => opts.trace_out = Some(args.value_of()?),
            "--analyze-out" => opts.analyze_out = Some(args.value_of()?),
            "--faults" => opts.faults = Some(args.value_of()?),
            "--profile-out" => opts.profile_out = Some(args.value_of()?),
            "--obs-out" => opts.obs_out = Some(args.value_of()?),
            "--obs-format" => {
                let v = args.value_of()?;
                opts.obs_format = ObsFormat::parse(&v)
                    .ok_or_else(|| format!("--obs-format expects text or binary, got {v:?}"))?;
            }
            "--watchdog" => opts.watchdog = true,
            "--no-watchdog" => opts.watchdog = false,
            "--heartbeat" => opts.heartbeat = Some(args.duration()?),
            "--serve" => opts.serve = Some(args.value_of()?),
            "--obs-filter" => {
                let v = args.value_of()?;
                // Validate the kind list now so typos fail before a long
                // replay starts; the filter is rebuilt from the spec later.
                pdpa_obs::KindFilter::parse(&v).map_err(|e| format!("--obs-filter: {e}"))?;
                opts.obs_filter = Some(v);
            }
            other if other.starts_with('-') => return Err(unknown_option(other)),
            path => set_once(&mut opts.trace_path, path, "replay takes one trace path")?,
        }
    }
    if opts.trace_path.is_empty() {
        return Err("replay needs a trace path: `pdpa replay <trace.swf> --policy <p>`".into());
    }
    if !policy_set {
        return Err("--policy is required for `pdpa replay`".into());
    }
    if opts.obs_format != ObsFormat::Text && opts.obs_out.is_none() {
        return Err("--obs-format chooses the --obs-out encoding; give --obs-out too".into());
    }
    Ok(Command::Replay(opts))
}

/// Parses `pdpa watch <addr> [flags]`.
fn parse_watch(args: &mut Cursor) -> Result<Command, String> {
    let mut opts = WatchOptions::default();
    while let Some(arg) = args.next() {
        match arg {
            "--follow" => opts.follow = true,
            "--json" => opts.json = true,
            "--tail" => opts.tail = Some(args.count()?),
            "--interval" => opts.interval = args.duration()?,
            other if other.starts_with('-') => return Err(unknown_option(other)),
            addr => set_once(&mut opts.addr, addr, "watch takes one address")?,
        }
    }
    if opts.addr.is_empty() {
        return Err("watch needs the server address: `pdpa watch HOST:PORT`".into());
    }
    Ok(Command::Watch(opts))
}

/// Parses `pdpa daemon [flags]`.
fn parse_daemon(args: &mut Cursor) -> Result<Command, String> {
    let mut opts = DaemonOptions::default();
    while let Some(arg) = args.next() {
        match arg {
            "--addr" => opts.addr = args.value_of()?,
            "--policy" => opts.policy = args.policy()?,
            "--cpus" => opts.cpus = args.count()?,
            "--seed" => opts.seed = args.seed()?,
            "--backfill" => opts.backfill = true,
            "--max-queue" => opts.max_queue = args.count()?,
            "--time-scale" => {
                let (scale, v) = args.parsed::<f64>("a number")?;
                if !(scale >= 0.0 && scale.is_finite()) {
                    return Err(format!("--time-scale {v} must be finite and >= 0"));
                }
                opts.time_scale = scale;
            }
            "--max-sim-secs" => opts.max_sim_secs = Some(args.secs()?),
            "--stream" => opts.stream = Some(args.value_of()?),
            "--snapshot" => opts.snapshot = Some(args.value_of()?),
            "--restore" => opts.restore = Some(args.value_of()?),
            other => return Err(unknown_option(other)),
        }
    }
    Ok(Command::Daemon(opts))
}

/// Parses `pdpa submit ADDR --class NAME [flags]`.
fn parse_submit(args: &mut Cursor) -> Result<Command, String> {
    let mut opts = SubmitOptions::default();
    while let Some(arg) = args.next() {
        match arg {
            "--class" => opts.class = args.value_of()?,
            "--request" => opts.request = Some(args.count()? as u64),
            "--work-secs" => opts.work_secs = Some(args.secs()?),
            "--count" => opts.count = args.count()?,
            "--json" => opts.json = true,
            other if other.starts_with('-') => return Err(unknown_option(other)),
            addr => set_once(&mut opts.addr, addr, "submit takes one address")?,
        }
    }
    if opts.addr.is_empty() {
        return Err("submit needs the daemon address: `pdpa submit HOST:PORT --class swim`".into());
    }
    Ok(Command::Submit(opts))
}

/// Parses `pdpa ctl ADDR ACTION [ARG] [flags]`.
fn parse_ctl(args: &mut Cursor) -> Result<Command, String> {
    let mut addr = String::new();
    let mut action: Option<CtlAction> = None;
    let mut json = false;
    let mut snapshot_flag: Option<String> = None;
    let job_id = |args: &mut Cursor, verb: &str| {
        let v = args
            .next()
            .ok_or_else(|| format!("ctl {verb} needs a job id"))?;
        v.parse::<u64>()
            .map_err(|_| format!("ctl {verb} expects a job id, got {v:?}"))
    };
    while let Some(arg) = args.next() {
        match arg {
            "--json" => json = true,
            "--snapshot" => snapshot_flag = Some(args.value_of()?),
            other if other.starts_with('-') => return Err(unknown_option(other)),
            word if addr.is_empty() => addr = word.to_string(),
            word if action.is_none() => {
                action = Some(match word {
                    "hello" => CtlAction::Hello,
                    "drain" => CtlAction::Drain,
                    "snapshot" => CtlAction::Snapshot(args.positional().map(String::from)),
                    "shutdown" => CtlAction::Shutdown(None),
                    "cancel" => CtlAction::Cancel(job_id(args, "cancel")?),
                    "jobs" => CtlAction::Jobs(match args.positional() {
                        Some(v) => v
                            .parse::<usize>()
                            .map_err(|_| format!("ctl jobs expects a count, got {v:?}"))?,
                        None => 20,
                    }),
                    "job" => CtlAction::Job(job_id(args, "job")?),
                    other => {
                        return Err(format!(
                            "unknown ctl action {other:?} (hello, drain, snapshot, shutdown, \
                             cancel, jobs, job)"
                        ))
                    }
                });
            }
            extra => {
                return Err(format!("unexpected ctl argument {extra:?}"));
            }
        }
    }
    if addr.is_empty() {
        return Err("ctl needs the daemon address: `pdpa ctl HOST:PORT ACTION`".into());
    }
    let mut action = action.ok_or("ctl needs an action: `pdpa ctl HOST:PORT drain`")?;
    if let Some(path) = snapshot_flag {
        match &mut action {
            CtlAction::Shutdown(snapshot) => *snapshot = Some(path),
            _ => return Err("--snapshot only applies to `ctl ... shutdown`".into()),
        }
    }
    Ok(Command::Ctl(CtlOptions { addr, action, json }))
}

/// Parses `pdpa tournament [trace.swf] [flags]`.
fn parse_tournament(args: &mut Cursor) -> Result<Command, String> {
    let mut opts = TournamentOptions::default();
    let mut trace_path = String::new();
    while let Some(arg) = args.next() {
        match arg {
            "--cpus" => opts.cpus = args.count()?,
            "--seed" => opts.seed = args.seed()?,
            "--load" => opts.load = Some(args.load()?),
            "--duration" => opts.duration = Some(args.secs()?),
            "--out" => opts.out = Some(args.value_of()?),
            other if other.starts_with('-') => return Err(unknown_option(other)),
            path => set_once(&mut trace_path, path, "tournament takes one trace path")?,
        }
    }
    opts.trace_path = (!trace_path.is_empty()).then_some(trace_path);
    if opts.duration.is_some() && opts.trace_path.is_some() {
        return Err("--duration shapes the generated trace; it conflicts with a trace file".into());
    }
    Ok(Command::Tournament(opts))
}

/// Parses a `--window A:B` value into a `[start, end)` pair of seconds.
fn parse_window(s: &str) -> Result<(f64, f64), String> {
    let (a, b) = s
        .split_once(':')
        .ok_or_else(|| format!("--window expects START:END, got {s:?}"))?;
    let from = a
        .parse::<f64>()
        .map_err(|_| format!("--window start is not a number: {a:?}"))?;
    let to = b
        .parse::<f64>()
        .map_err(|_| format!("--window end is not a number: {b:?}"))?;
    if !from.is_finite() || !to.is_finite() || from < 0.0 || to <= from {
        return Err(format!("--window {s} must satisfy 0 <= START < END"));
    }
    Ok((from, to))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn curves_has_no_options() {
        assert_eq!(parse(&argv("curves")).unwrap(), Command::Curves);
    }

    #[test]
    fn full_run_invocation() {
        let cmd = parse(&argv(
            "run --workload w2 --policy pdpa --load 0.8 --seed 7 --cpus 32 \
             --untuned --backfill --ascii --prv-out out.prv --swf-log log.swf",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(o.workload, Workload::W2);
        assert_eq!(o.policy.map(|p| p.slug), Some("pdpa"));
        assert_eq!(o.load, 0.8);
        assert_eq!(o.seed, 7);
        assert_eq!(o.cpus, 32);
        assert!(o.untuned && o.backfill && o.ascii && o.trace);
        assert_eq!(o.prv_out.as_deref(), Some("out.prv"));
        assert_eq!(o.swf_log.as_deref(), Some("log.swf"));
    }

    #[test]
    fn fault_plan_flag() {
        let cmd = parse(&argv(
            "run --workload w1 --policy pdpa --faults cpu3@120;retry=2,backoff=30",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(o.faults.as_deref(), Some("cpu3@120;retry=2,backoff=30"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --faults"))
            .unwrap_err()
            .contains("--faults"));
    }

    #[test]
    fn observability_flags() {
        let cmd = parse(&argv(
            "run --workload w1 --policy pdpa --obs --trace-out t.json \
             --metrics-out m.json --mpl-csv mpl.csv",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("expected Run")
        };
        assert!(o.obs && o.observing());
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.mpl_csv.as_deref(), Some("mpl.csv"));
        assert!(!Options::default().observing());
        assert!(parse(&argv("run --workload w1 --policy pdpa --trace-out"))
            .unwrap_err()
            .contains("--trace-out"));
    }

    #[test]
    fn run_requires_policy_and_workload() {
        assert!(parse(&argv("run --workload w1"))
            .unwrap_err()
            .contains("--policy"));
        assert!(parse(&argv("run --policy pdpa"))
            .unwrap_err()
            .contains("--workload"));
    }

    #[test]
    fn compare_needs_only_workload() {
        let cmd = parse(&argv("compare --workload w4")).unwrap();
        assert!(matches!(cmd, Command::Compare(_)));
    }

    #[test]
    fn analyze_parses_like_run() {
        let cmd = parse(&argv(
            "analyze --workload w1 --policy pdpa --analyze-out a.json",
        ))
        .unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("expected Analyze")
        };
        assert_eq!(o.policy.map(|p| p.slug), Some("pdpa"));
        assert_eq!(o.analyze_out.as_deref(), Some("a.json"));
        assert!(o.observing());
        assert!(parse(&argv("analyze --workload w1"))
            .unwrap_err()
            .contains("--policy"));
    }

    #[test]
    fn diff_accepts_a_second_policy_and_seed() {
        let cmd = parse(&argv(
            "diff --workload w1 --policy pdpa --policy-b equip --seed-b 7",
        ))
        .unwrap();
        let Command::Diff(o) = cmd else {
            panic!("expected Diff")
        };
        assert_eq!(o.policy.map(|p| p.slug), Some("pdpa"));
        assert_eq!(o.policy_b.map(|p| p.slug), Some("equip"));
        assert_eq!(o.seed_b, Some(7));
        // The B-side flags are rejected everywhere else.
        assert!(
            parse(&argv("run --workload w1 --policy pdpa --policy-b equip"))
                .unwrap_err()
                .contains("--policy-b")
        );
        assert!(parse(&argv("diff --workload w1 --policy pdpa --seed-b x"))
            .unwrap_err()
            .contains("--seed-b"));
    }

    #[test]
    fn every_policy_flag_reads_the_roster() {
        // Any slug or alias, in any case, names its policy; an unknown
        // name lists the slugs.
        for cmd in [
            "run --workload w1 --policy EQUAL-EFFICIENCY",
            "analyze --workload w1 --policy Equal_Eff",
            "diff --workload w1 --policy pdpa --policy-b equal-eff",
            "replay t.swf --policy equal_eff",
            "daemon --policy Equal-Eff",
        ] {
            let slug = match parse(&argv(cmd)).unwrap() {
                Command::Run(o) | Command::Analyze(o) => o.policy.unwrap().slug,
                Command::Diff(o) => o.policy_b.unwrap().slug,
                Command::Replay(o) => o.policy.slug,
                Command::Daemon(o) => o.policy.slug,
                other => panic!("{cmd}: {other:?}"),
            };
            assert_eq!(slug, "equal-eff", "{cmd}");
        }
        let err = parse(&argv("run --workload w1 --policy nonesuch")).unwrap_err();
        assert!(err.contains("nonesuch") && err.contains("hesrpt"), "{err}");
    }

    #[test]
    fn replay_full_invocation() {
        let cmd = parse(&argv(
            "replay trace.swf --policy equip --load 0.9 --cpus 128 \
             --window 100:5000 --seed 9 --obs --analyze-out a.json \
             --trace-out t.json",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.trace_path, "trace.swf");
        assert_eq!(o.policy.slug, "equip");
        assert_eq!(o.load, Some(0.9));
        assert_eq!(o.cpus, 128);
        assert_eq!(o.window, Some((100.0, 5000.0)));
        assert_eq!(o.seed, 9);
        assert!(o.obs);
        assert_eq!(o.analyze_out.as_deref(), Some("a.json"));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn replay_defaults_and_flag_order() {
        // The trace path may come after the flags.
        let cmd = parse(&argv("replay --policy pdpa trace.swf")).unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.trace_path, "trace.swf");
        assert_eq!(o.policy.slug, "pdpa");
        assert_eq!(o.load, None);
        assert_eq!(o.cpus, 60);
        assert_eq!(o.window, None);
        assert_eq!(o.seed, 42);
        assert!(!o.obs);
    }

    #[test]
    fn replay_requires_trace_and_policy() {
        assert!(parse(&argv("replay --policy pdpa"))
            .unwrap_err()
            .contains("trace path"));
        assert!(parse(&argv("replay trace.swf"))
            .unwrap_err()
            .contains("--policy"));
        assert!(parse(&argv("replay a.swf b.swf --policy pdpa"))
            .unwrap_err()
            .contains("one trace path"));
    }

    #[test]
    fn replay_window_diagnostics() {
        assert!(parse(&argv("replay t.swf --policy pdpa --window 100"))
            .unwrap_err()
            .contains("START:END"));
        assert!(parse(&argv("replay t.swf --policy pdpa --window x:5"))
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(&argv("replay t.swf --policy pdpa --window 9:4"))
            .unwrap_err()
            .contains("START < END"));
        assert!(parse(&argv("replay t.swf --policy pdpa --load 3"))
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn replay_rejects_the_retired_engine_flags() {
        // Flags of the retired epoch-parallel engine are rejected as
        // unknown options, not silently ignored.
        for flags in ["--shards 2", "--epoch 5", "--diff-shards 2"] {
            let err = parse(&argv(&format!("replay t.swf --policy pdpa {flags}"))).unwrap_err();
            let flag = flags.split(' ').next().unwrap();
            assert!(
                err.contains("unknown option") && err.contains(flag),
                "{flags}: {err}"
            );
        }
    }

    #[test]
    fn replay_and_tournament_reject_the_retired_trajectory_flag() {
        // The retired bench-trajectory flag is an unknown option, not
        // silently ignored.
        for cmd in ["replay t.swf --policy pdpa --json", "tournament --json"] {
            let err = parse(&argv(cmd)).unwrap_err();
            assert!(
                err.contains("unknown option") && err.contains("--json"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn replay_observability_flags() {
        let cmd = parse(&argv(
            "replay t.swf --policy pdpa --profile-out p.json \
             --obs-out s.bin --obs-format binary --heartbeat 2.5",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.profile_out.as_deref(), Some("p.json"));
        assert_eq!(o.obs_out.as_deref(), Some("s.bin"));
        assert_eq!(o.obs_format, ObsFormat::Binary);
        assert_eq!(o.heartbeat, Some(Duration::from_millis(2500)));
        assert!(o.watchdog, "watchdog must default on for replay");
        // The default encoding is text, and `bin` is accepted as an alias.
        assert_eq!(ReplayOptions::default().obs_format, ObsFormat::Text);
        assert_eq!(ObsFormat::parse("bin"), Some(ObsFormat::Binary));
        assert_eq!(ObsFormat::parse("csv"), None);
    }

    #[test]
    fn replay_watchdog_and_heartbeat_diagnostics() {
        let cmd = parse(&argv("replay t.swf --policy pdpa --no-watchdog")).unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert!(!o.watchdog);
        assert!(parse(&argv("replay t.swf --policy pdpa --heartbeat -3"))
            .unwrap_err()
            .contains("positive"));
        // Finite but past what a Duration holds: rejected, not a panic.
        assert!(parse(&argv("replay t.swf --policy pdpa --heartbeat 1e30"))
            .unwrap_err()
            .contains("--heartbeat 1e30"));
        assert!(parse(&argv("replay t.swf --policy pdpa --obs-format xml"))
            .unwrap_err()
            .contains("--obs-format"));
        // --obs-format binary is meaningless without a destination file.
        assert!(
            parse(&argv("replay t.swf --policy pdpa --obs-format binary"))
                .unwrap_err()
                .contains("--obs-out")
        );
    }

    #[test]
    fn replay_serve_and_obs_filter_flags() {
        let cmd = parse(&argv(
            "replay t.swf --policy pdpa --serve 127.0.0.1:0 --obs-filter decision,state",
        ))
        .unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected Replay")
        };
        assert_eq!(o.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.obs_filter.as_deref(), Some("decision,state"));
        // Bad kind names fail at parse time, before any replay starts.
        assert!(
            parse(&argv("replay t.swf --policy pdpa --obs-filter bogus"))
                .unwrap_err()
                .contains("bogus")
        );
    }

    #[test]
    fn watch_full_invocation_and_defaults() {
        let cmd = parse(&argv(
            "watch 127.0.0.1:7777 --follow --json --tail 5 --interval 0.5",
        ))
        .unwrap();
        let Command::Watch(o) = cmd else {
            panic!("expected Watch")
        };
        assert_eq!(o.addr, "127.0.0.1:7777");
        assert!(o.follow && o.json);
        assert_eq!(o.tail, Some(5));
        assert_eq!(o.interval, Duration::from_millis(500));
        let Command::Watch(o) = parse(&argv("watch localhost:9")).unwrap() else {
            panic!("expected Watch")
        };
        assert!(!o.follow && !o.json && o.tail.is_none());
        assert_eq!(o.interval, Duration::from_secs(1));
    }

    #[test]
    fn watch_diagnostics() {
        assert!(parse(&argv("watch")).unwrap_err().contains("address"));
        assert!(parse(&argv("watch a:1 b:2"))
            .unwrap_err()
            .contains("one address"));
        assert!(parse(&argv("watch a:1 --tail 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("watch a:1 --interval -2"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("watch a:1 --interval 1e30"))
            .unwrap_err()
            .contains("--interval 1e30"));
        assert!(parse(&argv("watch a:1 --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn from_stream_relaxes_workload_and_policy() {
        let cmd = parse(&argv("analyze --from-stream run.obs")).unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("expected Analyze")
        };
        assert_eq!(o.from_stream.as_deref(), Some("run.obs"));
        assert!(o.policy.is_none());
        let cmd = parse(&argv("diff --from-stream a.obs --from-stream-b b.obs")).unwrap();
        assert!(matches!(cmd, Command::Diff(_)));
        // A stream diff needs both sides, and the flags stay scoped to
        // analyze/diff.
        assert!(parse(&argv("diff --from-stream a.obs"))
            .unwrap_err()
            .contains("--from-stream-b"));
        assert!(
            parse(&argv("run --workload w1 --policy pdpa --from-stream a.obs"))
                .unwrap_err()
                .contains("--from-stream")
        );
        assert!(parse(&argv("analyze --from-stream-b b.obs"))
            .unwrap_err()
            .contains("--from-stream-b"));
    }

    #[test]
    fn tournament_defaults_and_full_invocation() {
        let cmd = parse(&argv("tournament")).unwrap();
        assert_eq!(cmd, Command::Tournament(TournamentOptions::default()));
        let cmd = parse(&argv(
            "tournament big.swf --cpus 50 --seed 7 --load 0.9 --out r.json",
        ))
        .unwrap();
        let Command::Tournament(o) = cmd else {
            panic!("expected Tournament")
        };
        assert_eq!(o.trace_path.as_deref(), Some("big.swf"));
        assert_eq!(o.cpus, 50);
        assert_eq!(o.seed, 7);
        assert_eq!(o.load, Some(0.9));
        assert_eq!(o.out.as_deref(), Some("r.json"));
        let cmd = parse(&argv("tournament --duration 600")).unwrap();
        let Command::Tournament(o) = cmd else {
            panic!("expected Tournament")
        };
        assert_eq!(o.duration, Some(600.0));
    }

    #[test]
    fn tournament_diagnostics() {
        assert!(parse(&argv("tournament a.swf b.swf"))
            .unwrap_err()
            .contains("one trace path"));
        assert!(parse(&argv("tournament a.swf --duration 600"))
            .unwrap_err()
            .contains("--duration"));
        assert!(parse(&argv("tournament --duration -5"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("tournament --load 3"))
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&argv("tournament --cpus 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("tournament --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn daemon_defaults_and_full_invocation() {
        let cmd = parse(&argv("daemon")).unwrap();
        assert_eq!(cmd, Command::Daemon(DaemonOptions::default()));
        let cmd = parse(&argv(
            "daemon --addr 127.0.0.1:7777 --policy rigid --cpus 8 --seed 9 \
             --backfill --max-queue 4 --time-scale 60 --max-sim-secs 5000 \
             --stream run.stream --snapshot run.snapshot --restore old.snapshot",
        ))
        .unwrap();
        let Command::Daemon(o) = cmd else {
            panic!("expected Daemon")
        };
        assert_eq!(o.addr, "127.0.0.1:7777");
        assert_eq!(o.policy.slug, "rigid");
        assert_eq!(o.cpus, 8);
        assert_eq!(o.seed, 9);
        assert!(o.backfill);
        assert_eq!(o.max_queue, 4);
        assert_eq!(o.time_scale, 60.0);
        assert_eq!(o.max_sim_secs, Some(5000.0));
        assert_eq!(o.stream.as_deref(), Some("run.stream"));
        assert_eq!(o.snapshot.as_deref(), Some("run.snapshot"));
        assert_eq!(o.restore.as_deref(), Some("old.snapshot"));
    }

    #[test]
    fn daemon_diagnostics() {
        assert!(parse(&argv("daemon --cpus 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("daemon --max-queue 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("daemon --time-scale -1"))
            .unwrap_err()
            .contains(">= 0"));
        assert!(parse(&argv("daemon --policy bogus"))
            .unwrap_err()
            .contains("bogus"));
        assert!(parse(&argv("daemon --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn submit_parses_and_validates() {
        let cmd = parse(&argv(
            "submit 127.0.0.1:7777 --class bt.A --request 8 --work-secs 4000 --count 3 --json",
        ))
        .unwrap();
        let Command::Submit(o) = cmd else {
            panic!("expected Submit")
        };
        assert_eq!(o.addr, "127.0.0.1:7777");
        assert_eq!(o.class, "bt.A");
        assert_eq!(o.request, Some(8));
        assert_eq!(o.work_secs, Some(4000.0));
        assert_eq!(o.count, 3);
        assert!(o.json);
        // Defaults: one swim job.
        let Command::Submit(o) = parse(&argv("submit 127.0.0.1:7777")).unwrap() else {
            panic!("expected Submit")
        };
        assert_eq!(o.class, "swim");
        assert_eq!(o.count, 1);
        assert_eq!(o.request, None);
        assert!(parse(&argv("submit")).unwrap_err().contains("address"));
        assert!(parse(&argv("submit 127.0.0.1:7777 --request 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("submit 127.0.0.1:7777 --work-secs -5"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("submit 127.0.0.1:7777 --count 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&argv("submit a:1 b:2"))
            .unwrap_err()
            .contains("one address"));
    }

    #[test]
    fn ctl_grammar() {
        let ctl = |s: &str| match parse(&argv(s)).unwrap() {
            Command::Ctl(o) => o,
            other => panic!("expected Ctl, got {other:?}"),
        };
        assert_eq!(ctl("ctl a:1 hello").action, CtlAction::Hello);
        assert_eq!(ctl("ctl a:1 drain").action, CtlAction::Drain);
        assert_eq!(ctl("ctl a:1 snapshot").action, CtlAction::Snapshot(None));
        assert_eq!(
            ctl("ctl a:1 snapshot mid.snapshot").action,
            CtlAction::Snapshot(Some("mid.snapshot".to_string()))
        );
        assert_eq!(ctl("ctl a:1 shutdown").action, CtlAction::Shutdown(None));
        assert_eq!(
            ctl("ctl a:1 shutdown --snapshot final.snapshot").action,
            CtlAction::Shutdown(Some("final.snapshot".to_string()))
        );
        assert_eq!(ctl("ctl a:1 cancel 3").action, CtlAction::Cancel(3));
        assert_eq!(ctl("ctl a:1 jobs").action, CtlAction::Jobs(20));
        assert_eq!(ctl("ctl a:1 jobs 5").action, CtlAction::Jobs(5));
        assert_eq!(ctl("ctl a:1 job 7").action, CtlAction::Job(7));
        let o = ctl("ctl a:1 hello --json");
        assert!(o.json);
        assert_eq!(o.addr, "a:1");
    }

    #[test]
    fn ctl_diagnostics() {
        assert!(parse(&argv("ctl")).unwrap_err().contains("address"));
        assert!(parse(&argv("ctl a:1")).unwrap_err().contains("action"));
        assert!(parse(&argv("ctl a:1 explode"))
            .unwrap_err()
            .contains("explode"));
        assert!(parse(&argv("ctl a:1 cancel"))
            .unwrap_err()
            .contains("job id"));
        assert!(parse(&argv("ctl a:1 cancel x"))
            .unwrap_err()
            .contains("job id"));
        assert!(parse(&argv("ctl a:1 drain --snapshot p"))
            .unwrap_err()
            .contains("--snapshot"));
        assert!(parse(&argv("ctl a:1 hello extra"))
            .unwrap_err()
            .contains("extra"));
    }

    #[test]
    fn diagnostics_are_specific() {
        assert!(parse(&argv("run --workload w9 --policy pdpa"))
            .unwrap_err()
            .contains("w9"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --load x"))
            .unwrap_err()
            .contains("--load"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --load 5"))
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&argv("frobnicate"))
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse(&argv("run --workload w1 --policy pdpa --bogus"))
            .unwrap_err()
            .contains("--bogus"));
    }
}
