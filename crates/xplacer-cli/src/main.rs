//! `xplacer` — command-line front end for the XPlacer reproduction.
//!
//! ```text
//! xplacer instrument <file.cu>      print the instrumented source
//! xplacer run <file.cu>             instrument + execute, show output
//! xplacer analyze <file.cu>         run traced and report anti-patterns
//!     both: --platform --plain --stats --heatmap --json --trace-out
//!           --metrics-out --events-out --timeseries-out
//! xplacer advise <file.cu>          placement advice: --platform
//! xplacer demo <workload>           run a built-in workload traced
//!     --platform --heatmap --json --trace-out --metrics-out --events-out
//!     --timeseries-out
//! xplacer profile <target>          cost-attribution profile of a run
//!     --platform --top --folded-out --json
//! xplacer top [<target>]            telemetry dashboard, live or --replay
//!     --platform --replay --frames --ascii --json --epoch-ns --buckets
//!     --timeseries-out
//! xplacer blame [<target>]          critical-path blame, live or --replay
//!     --platform --replay --top --folded-out --json
//! xplacer diff <a.json> <b.json>    compare two runs: --threshold --top --json
//! xplacer check <target>            sanitizer + race detector
//!     --platform --max-errors --no-bulk --json
//! xplacer optimize <target>         search placement plans, report the winner
//!     --platform --jobs --beam --smoke --json --out --bench-out
//! xplacer platforms                 list the simulated platforms
//! ```
//!
//! A `<target>` is a built-in workload (see `xplacer_workloads::WORKLOADS`;
//! `smith-waterman` is an alias of `sw`) or a MiniCU file. Every verb also
//! takes `--log-level <quiet|info|debug>`; `--json` puts the report on
//! stdout as JSON and human text on stderr; the `*-out` flags write
//! artifacts. Flags may come before or after positional arguments; an
//! undeclared flag, a value flag without its value, a repeated value flag
//! or a wrong number of positionals exits 2. `diff` exits 1 on a
//! regression and `check` on findings.

use std::cell::RefCell;
use std::io::Write;
use std::process::ExitCode;
use std::rc::Rc;

use hetsim::{platform, Addr, EventLog, Machine, MemHook, MeteredHook, Platform};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_core::{OnlineAnalyzer, OnlineConfig, Report, Tracer};
use xplacer_interp::{run_source, run_source_on, Outcome};
use xplacer_lang::parser::parse;
use xplacer_lang::unparse::unparse;
use xplacer_obs::flamegraph::folded_stacks;
use xplacer_obs::timeseries::timeseries_json;
use xplacer_obs::{
    chrome_trace_with_series, diff, events_json, metrics_report, replay, BlameReport, DashOpts,
    EventTrace, HeatmapRecorder, Json, ProfileReport, RunDigest, Telemetry, TelemetryConfig,
};
use xplacer_optimize::Target;
use xplacer_workloads::register_names;

/// Ring capacity for `xplacer profile`: attribution wants the complete
/// stream, so the profiler uses a much deeper ring than the default.
const PROFILE_RING_CAPACITY: usize = 1 << 21;

const WORKLOADS: &str = xplacer_workloads::WORKLOADS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xplacer: {msg}");
            // Usage/IO errors exit 2, so CI can tell them apart from the
            // deliberate exit-1 `diff` regression gate (bench convention).
            ExitCode::from(2)
        }
    }
}

/// One verb's command-line contract, written the way usage prints it.
/// `args` names the positionals (`[<x>]` is optional; the parser counts
/// them from here). `flags` lists what the verb accepts besides
/// [`COMMON_FLAGS`]: a flag followed by a `<placeholder>` takes a value, a
/// bare flag is a switch, and a newline only breaks the usage line.
struct Verb {
    name: &'static str,
    args: &'static str,
    about: &'static str,
    flags: &'static str,
    run: fn(&Args) -> Result<ExitCode, String>,
}

/// Flags every verb accepts.
const COMMON_FLAGS: &str = "--log-level <quiet|info|debug>";

const RUN_FLAGS: &str = "--platform <pf> --plain --stats --heatmap --json --trace-out <file>\n\
                         --metrics-out <file> --events-out <file> --timeseries-out <file>";

/// The single table both the parser and `usage()` read.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    Verb { name: "instrument", args: "<file.cu>", about: "print the instrumented source",
           flags: "", run: cmd_instrument },
    Verb { name: "run", args: "<file.cu>", about: "instrument + execute, show output",
           flags: RUN_FLAGS, run: |a| cmd_run(a, false) },
    Verb { name: "analyze", args: "<file.cu>", about: "run traced and report anti-patterns",
           flags: RUN_FLAGS, run: |a| cmd_run(a, true) },
    Verb { name: "advise", args: "<file.cu>", about: "run traced and print placement advice",
           flags: "--platform <pf>", run: cmd_advise },
    Verb { name: "demo", args: "<workload>", about: "run a built-in workload traced",
           flags: "--platform <pf> --heatmap --json --trace-out <file> --metrics-out <file>\n\
                   --events-out <file> --timeseries-out <file>", run: cmd_demo },
    Verb { name: "profile", args: "<target>", about: "cost-attribution profile of a run",
           flags: "--platform <pf> --top <n> --folded-out <file> --json", run: cmd_profile },
    Verb { name: "top", args: "[<target>]", about: "telemetry dashboard, live or --replay",
           flags: "--platform <pf> --replay <events.json> --frames <n> --ascii --json\n\
                   --epoch-ns <ns> --buckets <n> --timeseries-out <file>", run: cmd_top },
    Verb { name: "blame", args: "[<target>]", about: "critical-path blame, live or --replay",
           flags: "--platform <pf> --replay <events.json> --top <n> --folded-out <file> --json",
           run: cmd_blame },
    Verb { name: "diff", args: "<a.json> <b.json>", about: "compare two runs (exit 1: regressed)",
           flags: "--threshold <x> --top <n> --json", run: cmd_diff },
    Verb { name: "check", args: "<target>", about: "sanitizer + race detector (exit 1: findings)",
           flags: "--platform <pf> --max-errors <n> --no-bulk --json", run: cmd_check },
    Verb { name: "optimize", args: "<target>", about: "search placement plans, report the winner",
           flags: "--platform <pf> --jobs <n> --beam <n> --smoke --json\n\
                   --out <file> --bench-out <file>", run: cmd_optimize },
    Verb { name: "platforms", args: "", about: "list the simulated platforms",
           flags: "", run: cmd_platforms },
];

impl Verb {
    /// `Some(takes_value)` when the verb accepts `flag`.
    fn takes_value(&self, flag: &str) -> Option<bool> {
        let mut words = self
            .flags
            .split_whitespace()
            .chain(COMMON_FLAGS.split_whitespace());
        words.position(|w| w == flag)?;
        Some(words.next().is_some_and(|w| w.starts_with('<')))
    }

    /// Usage entry: synopsis and summary, then the flags as laid out above.
    fn help(&self) -> String {
        let synopsis = format!("{} {}", self.name, self.args);
        let mut out = format!("  {synopsis:<24} {}\n", self.about);
        for line in self.flags.lines() {
            out += &format!("      {line}\n");
        }
        out
    }
}

fn usage() -> String {
    let verbs: String = VERBS.iter().map(Verb::help).collect();
    format!(
        "usage: xplacer <verb> [args] [flags]\n{verbs}\
         every verb also takes {COMMON_FLAGS}; flags may come before or after args\n\
         <target>: a workload ({WORKLOADS}, or smith-waterman) or a MiniCU file\n\
         <pf>: pascal | volta | power9 (default pascal)\n\
         try `xplacer demo lulesh`, `xplacer profile pathfinder`, `xplacer top lulesh`,\n\
         `xplacer blame lulesh`, `xplacer diff a.json b.json`, `xplacer optimize lulesh --jobs 4`,\n\
         `xplacer check examples/mini/alternating.cu`, or `xplacer analyze examples/mini/alternating.cu`"
    )
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = argv.first() else {
        return Err(usage());
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let verb = VERBS
        .iter()
        .find(|v| v.name == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`\n{}", usage()))?;
    (verb.run)(&Args::parse(verb, &argv[1..])?)
}

/// A command line checked against its verb's [`Verb`] entry.
struct Args {
    verb: &'static Verb,
    /// Positional arguments, in order.
    pos: Vec<String>,
    /// Flags given, each with its value (`None` for a switch).
    flags: Vec<(String, Option<String>)>,
    ui: Ui,
}

impl Args {
    /// The one parse pass for every verb. Flags may come before or after
    /// positionals; an undeclared flag, a value flag with no value, a
    /// repeated value flag, or the wrong number of positionals is an error.
    fn parse(verb: &'static Verb, argv: &[String]) -> Result<Args, String> {
        let usage = || format!("usage:\n{}", verb.help());
        let (mut pos, mut flags) = (Vec::new(), Vec::<(String, Option<String>)>::new());
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                pos.push(arg.clone());
                continue;
            }
            let takes_value = verb
                .takes_value(arg)
                .ok_or_else(|| format!("unknown flag `{arg}` for `{}`\n{}", verb.name, usage()))?;
            let value = match takes_value {
                false => None,
                true => Some(it.next().ok_or_else(|| format!("{arg} needs a value"))?),
            };
            if value.is_some() && flags.iter().any(|(f, _)| f == arg) {
                return Err(format!("{arg} given more than once"));
            }
            flags.push((arg.clone(), value.cloned()));
        }
        let most = verb.args.matches('<').count();
        if !(most - verb.args.matches('[').count()..=most).contains(&pos.len()) {
            return Err(format!(
                "wrong number of arguments for `{}` (got {})\n{}",
                verb.name,
                pos.len(),
                usage()
            ));
        }
        let json = flags.iter().any(|(f, _)| f == "--json");
        let mut args = Args {
            verb,
            pos,
            flags,
            ui: Ui {
                level: LogLevel::Info,
                json,
            },
        };
        args.ui.level = match args.path("--log-level") {
            None | Some("info") => LogLevel::Info,
            Some("quiet") => LogLevel::Quiet,
            Some("debug") => LogLevel::Debug,
            Some(other) => {
                return Err(format!(
                    "unknown log level `{other}` (expected quiet|info|debug)"
                ))
            }
        };
        Ok(args)
    }

    /// A path-valued flag. Like every getter, only for declared flags.
    fn path(&self, flag: &str) -> Option<&str> {
        debug_assert_eq!(self.verb.takes_value(flag), Some(true), "{flag}");
        let given = self.flags.iter().find(|(f, _)| f == flag);
        given.and_then(|(_, v)| v.as_deref())
    }

    fn switch(&self, flag: &str) -> bool {
        debug_assert_eq!(self.verb.takes_value(flag), Some(false), "{flag}");
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// A count flag: at least `min`, `default` when absent.
    fn count(&self, flag: &str, default: usize, min: usize) -> Result<usize, String> {
        self.path(flag)
            .map_or(Ok(default), |v| match v.parse::<usize>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!("{flag} expects a number >= {min}, got `{v}`")),
            })
    }

    /// A finite, non-negative float flag; `positive` also rules out 0.
    fn float(&self, flag: &str, default: f64, positive: bool) -> Result<f64, String> {
        let what = if positive { "positive" } else { "non-negative" };
        self.path(flag)
            .map_or(Ok(default), |v| match v.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 && (x > 0.0 || !positive) => Ok(x),
                _ => Err(format!("{flag} expects a {what} number, got `{v}`")),
            })
    }

    /// `--platform`, pascal when absent.
    fn platform(&self) -> Result<Platform, String> {
        Ok(match self.path("--platform") {
            None | Some("pascal" | "intel-pascal") => platform::intel_pascal(),
            Some("volta" | "intel-volta") => platform::intel_volta(),
            Some("power9" | "ibm" | "nvlink") => platform::power9_volta(),
            Some(other) => return Err(format!("unknown platform `{other}`")),
        })
    }

    /// The MiniCU file a file-taking verb was given: (path, source).
    fn source(&self) -> Result<(&str, String), String> {
        let path = self.pos[0].as_str();
        Ok((path, read(path)?))
    }

    /// The verb's target, resolved; only `top` and `blame` may lack one.
    fn target(&self) -> Result<Target, String> {
        let verb = self.verb.name;
        let arg = self.pos.first().ok_or_else(|| {
            format!(
                "`{verb}` needs a workload ({WORKLOADS}), a .cu file, or --replay <events.json>"
            )
        })?;
        resolve_target(arg)
    }
}

/// The one map from a target argument to a [`Target`]: a built-in workload
/// when the workload driver knows the name or alias (the user's spelling
/// stays the display name), otherwise the MiniCU program at that path.
fn resolve_target(arg: &str) -> Result<Target, String> {
    if xplacer_workloads::canonical_name(arg).is_some() {
        return Ok(Target::Workload(arg.to_string()));
    }
    let source = std::fs::read_to_string(arg).map_err(|e| {
        format!("`{arg}` is neither a workload ({WORKLOADS}) nor a readable file: {e}")
    })?;
    Ok(Target::Program {
        name: arg.to_string(),
        source,
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// What a finished run of a [`Target`] leaves behind.
struct Ran {
    /// Simulated time and counters; for a program also its exit code and
    /// captured stdout (a workload reports exit 0 and no stdout).
    out: Outcome,
    /// The XPlacer tracer's final state.
    tracer: Tracer,
    /// Anti-pattern reports from a program's diagnostic points.
    reports: Vec<Report>,
    /// A workload's check value and the driver's (address, name) table;
    /// `None` for a program.
    workload: Option<(f64, Vec<(Addr, String)>)>,
}

/// Run `target` on a fresh machine for `pf`. `observe` attaches the
/// caller's hooks to the prepared machine — after the tracer for a
/// workload; a program's tracer lives in the interpreter, which runs the
/// source instrumented unless `instrumented` is false.
fn run_target(
    target: &Target,
    pf: &Platform,
    instrumented: bool,
    observe: impl FnOnce(&mut Machine),
) -> Result<Ran, String> {
    let mut m = Machine::new(pf.clone());
    let (out, tracer, reports, workload) = match target {
        Target::Workload(which) => {
            let tracer = xplacer_core::attach_tracer(&mut m);
            observe(&mut m);
            let (check, names) = xplacer_workloads::run_workload(&mut m, which, |_, names| {
                register_names(&tracer, names)
            })?;
            let out = Outcome {
                exit: 0,
                stdout: String::new(),
                elapsed_ns: m.elapsed_ns(),
                stats: m.stats.clone(),
            };
            let tracer = tracer.replace(Tracer::new());
            (out, tracer, Vec::new(), Some((check, names)))
        }
        Target::Program { name, source } => {
            observe(&mut m);
            let (out, interp) =
                run_source_on(source, m, instrumented).map_err(|e| format!("{name}: {e}"))?;
            (out, interp.tracer, interp.reports, None)
        }
    };
    Ok(Ran {
        out,
        tracer,
        reports,
        workload,
    })
}

/// (base, name) of every allocation the tracer saw.
fn summary_names(tracer: &Tracer) -> Vec<(Addr, String)> {
    xplacer_core::summarize(&tracer.smt, false)
        .into_iter()
        .map(|s| (s.base, s.name))
        .collect()
}

/// Progress-chatter verbosity, set with `--log-level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LogLevel {
    Quiet,
    Info,
    Debug,
}

/// Output routing for one invocation. All progress chatter goes through
/// here to stderr, gated by the log level; `human()` is the sink for
/// human-readable *results*, which move to stderr under `--json` so
/// stdout carries exactly one JSON document (`xplacer ... --json | jq`).
struct Ui {
    level: LogLevel,
    json: bool,
}

impl Ui {
    /// Sink for human-readable result text.
    fn human(&self) -> Box<dyn Write> {
        if self.json {
            Box::new(std::io::stderr())
        } else {
            Box::new(std::io::stdout())
        }
    }

    /// Progress line (stderr, suppressed by `--log-level quiet`).
    fn info(&self, msg: &str) {
        if self.level >= LogLevel::Info {
            eprintln!("{msg}");
        }
    }

    /// Verbose diagnostics (stderr, `--log-level debug` only).
    fn debug(&self, msg: &str) {
        if self.level >= LogLevel::Debug {
            eprintln!("xplacer[debug]: {msg}");
        }
    }

    /// Print a result: `json` (built only under `--json`) on stdout, then
    /// the human text on its sink.
    fn report(&self, json: impl FnOnce() -> Json, text: &str) {
        if self.json {
            println!("{}", json().to_string_pretty());
        }
        let _ = write!(self.human(), "{text}");
    }

    /// Write the document `doc` builds to `path` and print it on stdout
    /// under `--json`; build it only if either wants it.
    fn emit_doc(
        &self,
        path: Option<&str>,
        doc: impl FnOnce() -> Json,
        what: &str,
    ) -> Result<(), String> {
        if path.is_none() && !self.json {
            return Ok(());
        }
        let text = doc().to_string_pretty();
        if let Some(path) = path {
            write_file(path, &format!("{text}\n"))?;
            self.info(&format!("wrote {what} to {path}"));
        }
        if self.json {
            println!("{text}");
        }
        Ok(())
    }
}

/// Observer hooks attached for one run; the CLI keeps shared handles so it
/// can read them back after the program finishes.
#[derive(Default)]
struct Observers {
    log: Option<Shared<EventLog>>,
    heat: Option<Shared<HeatmapRecorder>>,
    /// Telemetry and the online episode detectors that ride on it.
    telemetry: Option<(Shared<Telemetry>, Shared<OnlineAnalyzer>)>,
}

type Shared<T> = Rc<RefCell<T>>;

/// Attach the observers the flags ask for *alongside* whatever hook the
/// machine already carries (the tracer keeps working).
fn attach_observers(m: &mut Machine, args: &Args) -> Observers {
    let mut obs = Observers::default();
    let any = |flags: &[&str]| flags.iter().any(|f| args.path(f).is_some());
    if args.ui.json || any(&["--trace-out", "--metrics-out", "--events-out"]) {
        let log = Rc::new(RefCell::new(EventLog::new()));
        m.add_hook(log.clone());
        obs.log = Some(log);
    }
    if any(&["--trace-out", "--timeseries-out"]) {
        let tele = Rc::new(RefCell::new(Telemetry::new(
            TelemetryConfig::default(),
            m.platform().link_bw,
        )));
        let online = Rc::new(RefCell::new(OnlineAnalyzer::new(OnlineConfig::default())));
        m.add_hook(tele.clone());
        m.add_hook(online.clone());
        obs.telemetry = Some((tele, online));
    }
    if args.switch("--heatmap") {
        let heat = Rc::new(RefCell::new(HeatmapRecorder::new(m.platform().page_size)));
        m.add_hook(heat.clone());
        obs.heat = Some(heat);
    }
    obs
}

/// Loud, unconditional notice when the event ring overflowed: every
/// exporter downstream of a truncated log silently undercounts.
fn warn_if_truncated(log: &EventLog) {
    if log.dropped() > 0 {
        eprintln!(
            "xplacer: WARNING: event ring truncated: {} of {} events dropped — \
             trace/metrics/profile outputs UNDERCOUNT this run",
            log.dropped(),
            log.total_recorded()
        );
    }
}

/// Write/print the requested artifacts after a run.
fn emit_observability(
    args: &Args,
    obs: &Observers,
    workload: &str,
    pf: &Platform,
    ran: &Ran,
    report: Option<&Report>,
) -> Result<(), String> {
    let ui = &args.ui;
    let allocs = xplacer_core::summarize(&ran.tracer.smt, false);
    let log = obs.log.as_ref().map(|l| l.borrow());
    let tele = obs.telemetry.as_ref().map(|(t, _)| t.borrow());
    if let Some(log) = &log {
        warn_if_truncated(log);
    }
    if let Some(path) = args.path("--trace-out") {
        let log = log.as_ref().expect("event log attached");
        let doc = chrome_trace_with_series(log, tele.as_deref());
        write_file(path, &doc.to_string_compact())?;
        ui.info(&format!(
            "wrote chrome trace to {path} ({} events; open in chrome://tracing)",
            log.len()
        ));
    }
    if let Some(path) = args.path("--events-out") {
        let log = log.as_ref().expect("event log attached");
        let doc = events_json(log, workload, ran.out.elapsed_ns, pf, &allocs);
        write_file(path, &format!("{}\n", doc.to_string_pretty()))?;
        ui.info(&format!(
            "wrote event stream to {path} ({} events; replay with `xplacer top --replay {path}`)",
            log.len()
        ));
    }
    if let (Some(path), Some((_, online))) = (args.path("--timeseries-out"), &obs.telemetry) {
        let tele = tele.as_ref().expect("telemetry attached");
        let mut online = online.borrow_mut();
        online.finish();
        let doc = timeseries_json(tele, workload, pf.name, online.episodes());
        write_file(path, &format!("{}\n", doc.to_string_pretty()))?;
        ui.info(&format!(
            "wrote timeseries telemetry to {path} ({} buckets, {} episodes)",
            tele.global().len(),
            online.episodes().len()
        ));
    }
    let metrics = || {
        metrics_report(
            workload,
            pf.name,
            ran.out.elapsed_ns,
            &ran.out.stats,
            &allocs,
            report,
            log.as_deref(),
        )
    };
    ui.emit_doc(args.path("--metrics-out"), metrics, "metrics report")?;
    if let Some(heat) = &obs.heat {
        let _ = write!(ui.human(), "{}", heat.borrow().render_ascii());
    }
    Ok(())
}

fn cmd_platforms(_: &Args) -> Result<ExitCode, String> {
    for pf in platform::all_platforms() {
        println!(
            "{:<14} {:?}  link {:>3.0} GB/s  fault {:>5.0} ns  gpu-mem {} GiB",
            pf.name,
            pf.interconnect,
            pf.link_bw,
            pf.fault_ns,
            pf.gpu_mem_bytes >> 30
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_instrument(args: &Args) -> Result<ExitCode, String> {
    let (_, src) = args.source()?;
    let prog = parse(&src).map_err(|e| e.to_string())?;
    let inst = xplacer_instrument::instrument(&prog);
    print!("{}", unparse(&inst.program));
    if !inst.replacements.is_empty() {
        eprintln!("replacements applied:");
        let mut reps: Vec<_> = inst.replacements.iter().collect();
        reps.sort();
        for (from, to) in reps {
            eprintln!("  {from} -> {to}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &Args, analyze_after: bool) -> Result<ExitCode, String> {
    let (path, source) = args.source()?;
    let pf = args.platform()?;
    let ui = &args.ui;
    let plain = args.switch("--plain");
    let target = Target::Program {
        name: path.to_string(),
        source,
    };
    let mut obs = Observers::default();
    ui.debug(&format!("running {path} on {}", pf.name));
    let ran = run_target(&target, &pf, !plain, |m| obs = attach_observers(m, args))?;
    let out = &ran.out;
    let mut h = ui.human();
    let _ = write!(h, "{}", out.stdout);
    ui.info(&format!(
        "exit {} | simulated {:.3} ms on {} | faults {} | migrations {}",
        out.exit,
        out.elapsed_ns / 1e6,
        pf.name,
        out.stats.faults(),
        out.stats.migrations()
    ));
    if args.switch("--stats") {
        eprintln!("{}", out.stats.summary());
    }
    let report = analyze_after.then(|| analyze(&ran.tracer.smt, &AnalysisConfig::default()));
    if let Some(report) = &report {
        if plain {
            return Err("analyze requires instrumentation (drop --plain)".into());
        }
        if ran.reports.is_empty() {
            // No diagnostic pragma in the program: analyze final state.
            let _ = write!(h, "--- anti-pattern report (end of program) ---\n{report}");
        }
        for (i, r) in ran.reports.iter().enumerate() {
            let _ = write!(
                h,
                "--- anti-pattern report (diagnostic point {}) ---\n{r}",
                i + 1
            );
        }
    }
    emit_observability(args, &obs, path, &pf, &ran, report.as_ref())?;
    Ok(ExitCode::SUCCESS)
}

/// Run a program traced and print the placement advisor's suggestions
/// (platform-aware) instead of the anti-pattern report.
fn cmd_advise(args: &Args) -> Result<ExitCode, String> {
    let (path, src) = args.source()?;
    let pf = args.platform()?;
    let (_, interp) = run_source(&src, pf.clone(), true).map_err(|e| format!("{path}: {e}"))?;
    let suggestions = xplacer_core::suggest_for(&interp.tracer.smt, &pf);
    if suggestions.is_empty() {
        println!(
            "no placement suggestions (nothing traced at end of program — \
                  note that each tracePrint resets the trace; advise works best \
                  on programs without diagnostic pragmas)"
        );
    } else {
        println!("placement suggestions for {}:", pf.name);
        for s in &suggestions {
            println!("  {s}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_demo(args: &Args) -> Result<ExitCode, String> {
    let target = args.target()?;
    let Target::Workload(which) = &target else {
        return Err(format!(
            "demo runs a built-in workload ({WORKLOADS}); use `analyze` for a MiniCU file"
        ));
    };
    let pf = args.platform()?;
    let ui = &args.ui;
    let mut obs = Observers::default();
    ui.debug(&format!("running demo workload {which} on {}", pf.name));
    let ran = run_target(&target, &pf, true, |m| obs = attach_observers(m, args))?;
    let (check, names) = ran.workload.as_ref().expect("workload runs report a check");

    let mut h = ui.human();
    let _ = writeln!(
        h,
        "{which} on {}: check={check:.4}, simulated {:.3} ms, faults {}, migrations {}",
        pf.name,
        ran.out.elapsed_ns / 1e6,
        ran.out.stats.faults(),
        ran.out.stats.migrations()
    );
    let summaries = xplacer_core::summarize(&ran.tracer.smt, true);
    let _ = writeln!(h, "\n--- diagnostic summary (named allocations) ---");
    let _ = write!(h, "{}", xplacer_core::format_fig4(&summaries));
    let report = analyze(&ran.tracer.smt, &AnalysisConfig::default());
    let _ = writeln!(h, "--- anti-pattern report ---");
    let _ = write!(h, "{report}");
    if let Some(heat) = &obs.heat {
        let mut h = heat.borrow_mut();
        for (addr, name) in names {
            h.name(*addr, name);
        }
    }
    emit_observability(args, &obs, which, &pf, &ran, Some(&report))?;
    Ok(ExitCode::SUCCESS)
}

/// `xplacer profile`: run a workload (or MiniCU program) with a deep
/// event ring and fold the attributed stream into per-kernel /
/// per-allocation cost tables, optionally exporting flamegraph stacks.
fn cmd_profile(args: &Args) -> Result<ExitCode, String> {
    let ui = &args.ui;
    let top = args.count("--top", 10, 0)?;
    let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
    let (target, pf, ran) = record(args, log.clone())?;
    let names = summary_names(&ran.tracer);

    let log = log.borrow();
    warn_if_truncated(&log);
    let report = ProfileReport::build(target.name(), pf.name, ran.out.elapsed_ns, &log, &names);
    debug_assert_eq!(report.totals.faults, ran.out.stats.faults());

    if let Some(path) = args.path("--folded-out") {
        let text = folded_stacks(pf.name, &log, &names);
        write_file(path, &text)?;
        ui.info(&format!(
            "wrote folded stacks to {path} ({} frames; render with flamegraph.pl/inferno)",
            text.lines().count()
        ));
    }

    ui.report(|| report.to_json(), &report.render_table(top));
    Ok(ExitCode::SUCCESS)
}

/// `xplacer optimize`: the closed loop. Trace a baseline, enumerate
/// candidate placement plans from the shadow state, beam-search plan
/// combinations on the deterministic evaluation pool, report the winner.
/// Output is byte-identical for any `--jobs` value.
fn cmd_optimize(args: &Args) -> Result<ExitCode, String> {
    let target = args.target()?;
    let pf = args.platform()?;
    let ui = &args.ui;
    let mut cfg = xplacer_optimize::OptimizeConfig::new(pf.clone());
    cfg.jobs = args.count("--jobs", 1, 1)?;
    cfg.beam = args.count("--beam", 2, 1)?;
    cfg.smoke = args.switch("--smoke");

    let (name, jobs) = (target.name(), cfg.jobs);
    ui.debug(&format!(
        "optimizing {name} on {} with {jobs} workers",
        pf.name
    ));
    let report = xplacer_optimize::optimize(&target, &cfg)?;

    let doc = report.to_json().to_string_pretty();
    if ui.json {
        println!("{doc}");
    } else {
        let _ = write!(ui.human(), "{}", report.render());
    }
    if let Some(path) = args.path("--out") {
        write_file(path, &doc)?;
        ui.info(&format!("wrote optimizer report to {path}"));
    }
    if let Some(path) = args.path("--bench-out") {
        write_file(path, &report.bench_record().to_json().to_string_pretty())?;
        ui.info(&format!("wrote bench record to {path}"));
    }
    Ok(ExitCode::SUCCESS)
}

/// `xplacer top`: the time-series telemetry dashboard. Live mode runs a
/// workload (or MiniCU program) with the full event ring recording, then
/// renders `--frames` evenly spaced dashboard frames over the simulated
/// timeline; `--replay <events.json>` drives the same pipeline from a
/// trace recorded earlier with `--events-out`. `--frames N --ascii` output
/// is byte-deterministic (golden-snapshot tested).
fn cmd_top(args: &Args) -> Result<ExitCode, String> {
    let ui = &args.ui;
    let frames = args.count("--frames", 3, 1)?;
    let mut cfg = TelemetryConfig::default();
    cfg.epoch_ns = args.float("--epoch-ns", cfg.epoch_ns, true)?;
    cfg.max_buckets = args.count("--buckets", cfg.max_buckets, 2)?;
    let opts = DashOpts {
        ascii: args.switch("--ascii"),
        ..DashOpts::default()
    };
    let trace = trace_of(args)?;

    let out = replay(&trace, cfg, OnlineConfig::default(), frames, &opts);
    let _ = write!(ui.human(), "{}", out.frames.join("\n"));
    let doc = || {
        timeseries_json(
            &out.telemetry,
            &trace.workload,
            &trace.platform_name,
            &out.episodes,
        )
    };
    ui.emit_doc(args.path("--timeseries-out"), doc, "timeseries telemetry")?;
    Ok(ExitCode::SUCCESS)
}

/// Run the target for `profile`, `top` or `blame` with `hook` (the deep
/// event ring, possibly wrapped) attached, reporting progress on stderr.
fn record(args: &Args, hook: Rc<RefCell<dyn MemHook>>) -> Result<(Target, Platform, Ran), String> {
    let (target, pf) = (args.target()?, args.platform()?);
    let name = target.name();
    args.ui.debug(&format!("recording {name} on {}", pf.name));
    let ran = run_target(&target, &pf, true, |m| m.add_hook(hook))?;
    if let Some((check, _)) = &ran.workload {
        let ms = ran.out.elapsed_ns / 1e6;
        args.ui.info(&format!(
            "{name} on {}: check={check:.4}, simulated {ms:.3} ms",
            pf.name
        ));
    }
    Ok((target, pf, ran))
}

/// The trace `top` and `blame` analyze: the `--events-out` artifact named
/// by `--replay`, or else a run of the target with a deep, wall-clock-metered
/// event ring — live mode is replay over a trace recorded seconds ago.
fn trace_of(args: &Args) -> Result<EventTrace, String> {
    if let Some(path) = args.path("--replay") {
        if let Some(arg) = args.pos.first() {
            let verb = args.verb.name;
            return Err(format!(
                "`{verb}` takes a target or --replay, not both (got `{arg}`)"
            ));
        }
        return EventTrace::parse(&read(path)?).map_err(|e| format!("{path}: {e}"));
    }
    let ui = &args.ui;
    let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
    let (metered, meter) = MeteredHook::new(log.clone());
    let (target, pf, ran) = record(args, Rc::new(RefCell::new(metered)))?;
    let names = match ran.workload {
        Some((_, names)) => names,
        None => summary_names(&ran.tracer),
    };

    let log = log.borrow();
    warn_if_truncated(&log);
    let mt = meter.borrow();
    // Wall-clock self-overhead goes to stderr only: it is nondeterministic
    // and must never contaminate the replayable artifacts.
    ui.info(&format!(
        "telemetry self-overhead: {} hook calls, {:.3} ms wall ({:.0} ns/call), {} events dropped",
        mt.calls,
        mt.wall_ns as f64 / 1e6,
        mt.mean_ns(),
        log.dropped()
    ));
    Ok(EventTrace::from_recording(
        target.name(),
        &pf,
        ran.out.elapsed_ns,
        &log,
        names,
    ))
}

/// `xplacer blame`: critical-path blame analysis. Runs a workload (or
/// MiniCU program) recording the full attributed stream — or replays an
/// `--events-out` artifact — reconstructs the dependency DAG, and charges
/// every nanosecond of elapsed time to a (kernel × allocation ×
/// event-kind) cell, with a per-allocation what-if ranking of the most
/// profitable placement fixes. Output is byte-deterministic.
fn cmd_blame(args: &Args) -> Result<ExitCode, String> {
    let ui = &args.ui;
    let top = args.count("--top", 10, 0)?;
    let trace = trace_of(args)?;
    let report = BlameReport::build(&trace);

    if let Some(path) = args.path("--folded-out") {
        let text = report.folded();
        write_file(path, &text)?;
        ui.info(&format!(
            "wrote folded blame stacks to {path} ({} frames; widths are critical-path ns)",
            text.lines().count()
        ));
    }
    ui.report(|| report.to_json(), &report.render(top));
    Ok(ExitCode::SUCCESS)
}

/// `xplacer check <workload|file.cu>`: memory sanitizer + cross-stream
/// race detector. Exit 0 when clean, 1 on findings, 2 on usage errors.
fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let ui = &args.ui;
    let opts = xplacer_check::CheckOptions {
        bulk: !args.switch("--no-bulk"),
        max_errors: args.count("--max-errors", 0, 0)?,
        platform: args.platform()?,
    };
    let out = match args.target()? {
        Target::Workload(which) => {
            ui.info(&format!("checking workload {which}"));
            xplacer_check::check_workload(&which, &opts)?
        }
        Target::Program { name, source } => {
            ui.info(&format!("checking {name}"));
            xplacer_check::check_source(&name, &source, &opts)?
        }
    };
    ui.report(|| out.report.to_json(), &out.report.render());
    if out.report.clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        ui.info("verdict: defects found — exiting 1 for CI gating");
        Ok(ExitCode::FAILURE)
    }
}

/// `xplacer diff`: compare two runs (two `--events-out` traces or two
/// `profile --json` reports), aligned by kernel name / allocation label.
/// Exits 0 on improved/neutral, 1 when the run regressed beyond
/// `--threshold` (so it doubles as a CI gate), 2 on usage/IO errors.
fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let ui = &args.ui;
    let threshold = args.float("--threshold", xplacer_obs::diff::DEFAULT_THRESHOLD, false)?;
    let top = args.count("--top", 10, 0)?;
    let load = |path: &str| -> Result<RunDigest, String> {
        let doc = Json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        RunDigest::from_json(&doc, path)
    };
    let d = diff(load(&args.pos[0])?, load(&args.pos[1])?, threshold)?;

    ui.report(|| d.to_json(top), &d.render(top));
    if d.regressed() {
        ui.info("verdict: regressed — exiting 1 for CI gating");
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
