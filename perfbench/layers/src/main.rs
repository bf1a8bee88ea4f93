//! Traced in-process run of one benchmark workload.
//!
//! `perfbench-layers <plan.json>` replays the sessions of one untraced
//! pass (the `argv` of each `xplacer` process, in the order they ran) by
//! calling the same public library functions the CLI calls, with a timed
//! span around each call into a layer. It then runs a fixed set of layer
//! probes that give per-access and per-call costs no session shows.
//!
//! It prints one JSON object: the replay's host wall time, the work it
//! did (which `run.py` compares with the untraced pass), and the
//! per-layer metrics. Spans are kept in memory and written to the plan's
//! `spans_out` file at the end. A per-layer metric is named after the
//! span it sums plus a unit suffix (span `lang.parse` → `lang.parse_s`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hetsim::{platform, AccessKind, Addr, AllocKind, CopyKind, Device, EventLog, Machine};
use hetsim::{MemHook, MeteredHook, Platform};
use xplacer_check::{check_source, CheckHook, CheckOptions};
use xplacer_core::antipattern::{analyze, AnalysisConfig};
use xplacer_core::{attach_tracer, summarize, OnlineAnalyzer, OnlineConfig, Plan, Tracer};
use xplacer_instrument::placement::{apply_plan, SitePlan};
use xplacer_interp::Interp;
use xplacer_lang::{parse, unparse};
use xplacer_obs::{
    diff, events_from_json, events_json, replay, BlameReport, DashOpts, EventTrace, Json,
    ProfileReport, RunDigest, Telemetry, TelemetryConfig,
};
use xplacer_optimize::{beam_search, eval, OptimizeReport, SearchConfig, Target};
use xplacer_workloads::{register_names, run_workload, WORKLOAD_NAMES};

/// Event ring depth the CLI uses for `profile`, `blame` and `top`.
const PROFILE_RING_CAPACITY: usize = 1 << 21;
/// Repetitions of each probe; probes report the median.
const REPS: usize = 3;

// ------------------------------------------------------------------ spans

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    session: u32,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static SESSION: Cell<u32> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("no thread panics while holding the span list")
}

fn open(name: &'static str) -> usize {
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_ns = now_ns();
    let mut v = spans();
    v.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        session: SESSION.get(),
    });
    let id = v.len() - 1;
    STACK.with(|s| s.borrow_mut().push(id));
    id
}

fn close(id: usize) {
    STACK.with(|s| s.borrow_mut().pop());
    spans()[id].end_ns = now_ns();
}

/// Run `f` inside a span named `name`.
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = open(name);
    let out = f();
    close(id);
    out
}

/// Seconds covered by spans named `name` (inclusive of their children).
fn total_s(name: &str) -> f64 {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

fn durations_ms(name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

// ------------------------------------------------------------------ helpers

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median host seconds of `REPS` runs of `f`, plus its last result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        last = Some(black_box(f()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(times), last.expect("REPS >= 1"))
}

fn platform_named(name: &str) -> Platform {
    match name {
        "power9" => platform::power9_volta(),
        "volta" => platform::intel_volta(),
        _ => platform::intel_pascal(),
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Work one traced run did; `run.py` compares it with the untraced pass.
#[derive(Default)]
struct Counts {
    accesses: u64,
    events: u64,
    evals: u64,
    findings: u64,
    bytes: u64,
    winners: Vec<String>,
}

/// Everything measured besides spans.
#[derive(Default)]
struct Run {
    counts: Counts,
    events_recorded: u64,
    events_dropped: u64,
    all_findings: u64,
    rejected: u64,
    eval_ms: Vec<f64>,
    search_busy_s: f64,
    search_capacity_s: f64,
    gains: Vec<f64>,
}

impl Run {
    fn note_trace(&mut self, recorded: u64, dropped: u64) {
        self.events_recorded += recorded;
        self.events_dropped += dropped;
    }
}

// ------------------------------------------------------------------ sessions

/// One session's command line, parsed the way the CLI reads it.
struct Cmd<'a> {
    verb: &'a str,
    inputs: Vec<&'a str>,
    platform: Platform,
    replay: Option<&'a str>,
    json: bool,
    jobs: usize,
}

impl<'a> Cmd<'a> {
    fn parse(argv: &'a [String]) -> Cmd<'a> {
        let mut cmd = Cmd {
            verb: &argv[0],
            inputs: Vec::new(),
            platform: platform::intel_pascal(),
            replay: None,
            json: false,
            jobs: 1,
        };
        let mut i = 1;
        while i < argv.len() {
            let value = argv.get(i + 1).map(String::as_str).unwrap_or("");
            match argv[i].as_str() {
                "--platform" => cmd.platform = platform_named(value),
                "--replay" => cmd.replay = Some(value),
                "--jobs" => cmd.jobs = value.parse().expect("--jobs takes a number"),
                "--frames" => {}
                "--json" => {
                    cmd.json = true;
                    i += 1;
                    continue;
                }
                flag if flag.starts_with("--") => {
                    i += 1;
                    continue;
                }
                input => {
                    cmd.inputs.push(input);
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        cmd
    }

    fn target(&self) -> &'a str {
        self.inputs[0]
    }
}

/// Run a built-in workload; `after_setup` sees the machine once the
/// workload's inputs are in place, as in `run_workload`.
fn run_builtin(
    m: &mut Machine,
    which: &str,
    mut after_setup: impl FnMut(&mut Machine, &[(Addr, String)]),
) -> Vec<(Addr, String)> {
    span("workloads.run", || {
        let mut setup = Some(open("workloads.setup"));
        let (_, names) = run_workload(m, which, |m, names| {
            if let Some(id) = setup.take() {
                close(id);
            }
            after_setup(m, names);
        })
        .expect("built-in workload runs");
        names
    })
}

fn alloc_names(tracer: &Tracer) -> Vec<(u64, String)> {
    summarize(&tracer.smt, false)
        .into_iter()
        .map(|s| (s.base, s.name))
        .collect()
}

/// What `record_trace_live` in the CLI does for `blame` and `top`.
fn record_live(cmd: &Cmd, run: &mut Run) -> EventTrace {
    let pf = cmd.platform.clone();
    let mut m = Machine::new(pf.clone());
    let tracer = attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
    let (metered, _meter) = MeteredHook::new(log.clone());
    m.add_hook(Rc::new(RefCell::new(metered)));
    let names = run_builtin(&mut m, cmd.target(), |_, n| register_names(&tracer, n));
    run.counts.accesses += m.stats.accesses();
    // `elapsed_ns` may still notify hooks, so read it before borrowing the log.
    let elapsed = m.elapsed_ns();
    let log = log.borrow();
    run.note_trace(log.total_recorded(), log.dropped());
    EventTrace::from_recording(cmd.target(), &pf, elapsed, &log, names)
}

fn load_trace(path: &str, run: &mut Run) -> EventTrace {
    let text = read(path);
    run.counts.bytes += text.len() as u64;
    let doc = span("obs.json_parse", || Json::parse(&text)).expect("trace parses");
    let trace = span("obs.events_decode", || events_from_json(&doc)).expect("trace decodes");
    run.note_trace(trace.recorded, trace.dropped);
    trace
}

/// `check <workload>`: the calls `xplacer_check::check_workload` makes
/// (with the CLI's default `--max-errors 0`), with the machine kept so
/// its access count can be read.
fn check_builtin(which: &str, pf: &Platform, bulk: bool, run: &mut Run) -> u64 {
    span("check", || {
        let mut m = Machine::new(pf.clone());
        m.set_bulk_enabled(bulk);
        let hook = Rc::new(RefCell::new(CheckHook::new()));
        m.attach_hook(hook.clone());
        run_builtin(&mut m, which, |m, names| {
            for (addr, name) in names {
                m.note_alloc_label(*addr, name);
            }
        });
        let mut h = hook.borrow_mut();
        let mut report = h.into_report(which);
        report.truncate(0);
        black_box(h.shadow_digest());
        black_box(report.render());
        run.all_findings += report.findings.len() as u64;
        run.counts.findings += report.findings.len() as u64;
        m.stats.accesses()
    })
}

fn optimize(target: Target, pf: &Platform, jobs: usize, run: &mut Run) {
    let empty = Plan::empty();
    let no_sites = BTreeMap::new();
    let evaluate_on = |plan: &Plan, want: bool, sites: &BTreeMap<u64, usize>| match &target {
        Target::Workload(w) => eval::eval_workload(w, pf, plan, want),
        Target::Program { name, source } => eval::eval_program(name, source, pf, plan, sites, want),
    };
    let (baseline, candidates) =
        span("optimize.baseline", || evaluate_on(&empty, true, &no_sites)).expect("baseline runs");
    let candidates = candidates.expect("baseline evaluation enumerates candidates");
    let scfg = SearchConfig {
        jobs,
        beam: 2,
        max_rounds: 3,
    };
    let evaluate = |plan: &Plan| {
        span("optimize.eval", || {
            evaluate_on(plan, false, &candidates.site_of_base).map(|(o, _)| o)
        })
    };
    let t0 = Instant::now();
    let result = span("optimize.search", || {
        beam_search(&baseline, &candidates.items, &scfg, evaluate)
    })
    .expect("search runs");
    let search_s = t0.elapsed().as_secs_f64();
    let report = OptimizeReport::build(
        target.name(),
        pf.name,
        scfg.beam,
        scfg.max_rounds,
        false,
        candidates.items.len(),
        candidates.skipped,
        &baseline,
        result,
    );
    black_box(report.render());
    let evals = durations_ms("optimize.eval");
    let new = &evals[run.eval_ms.len()..];
    run.search_busy_s += new.iter().sum::<f64>() / 1e3;
    run.search_capacity_s += search_s * jobs as f64;
    run.eval_ms.extend_from_slice(new);
    run.counts.evals += report.rows.len() as u64;
    run.rejected += report
        .rows
        .iter()
        .filter(|r| r.simulated_ns.is_none())
        .count() as u64;
    run.gains.push(report.baseline_ns / report.winner_ns);
    run.counts.winners.push(report.winner.clone());
}

/// Replay one `xplacer` session in-process.
fn run_session(argv: &[String], run: &mut Run) {
    let cmd = Cmd::parse(argv);
    let pf = cmd.platform.clone();
    match (cmd.verb, cmd.replay) {
        ("demo", _) => {
            let mut m = Machine::new(pf);
            let tracer = attach_tracer(&mut m);
            run_builtin(&mut m, cmd.target(), |_, n| register_names(&tracer, n));
            span("core.analyze", || {
                let t = tracer.borrow();
                black_box(xplacer_core::format_fig4(&summarize(&t.smt, true)));
                black_box(analyze(&t.smt, &AnalysisConfig::default()).to_string());
                black_box(summarize(&t.smt, false));
            });
            run.counts.accesses += m.stats.accesses();
        }
        ("profile", _) => {
            let mut m = Machine::new(pf.clone());
            let tracer = attach_tracer(&mut m);
            let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
            m.add_hook(log.clone());
            run_builtin(&mut m, cmd.target(), |_, n| register_names(&tracer, n));
            let names = alloc_names(&tracer.borrow());
            let elapsed = m.elapsed_ns();
            let log = log.borrow();
            span("obs.profile_build", || {
                let r = ProfileReport::build(cmd.target(), pf.name, elapsed, &log, &names);
                black_box(r.render_table(10));
            });
            run.counts.accesses += m.stats.accesses();
            run.note_trace(log.total_recorded(), log.dropped());
        }
        ("blame", replayed) => {
            let trace = match replayed {
                Some(path) => load_trace(path, run),
                None => record_live(&cmd, run),
            };
            let report = span("obs.blame_build", || BlameReport::build(&trace));
            if cmd.json {
                span("obs.json_write", || {
                    black_box(report.to_json().to_string_pretty())
                });
            }
            black_box(report.render(10));
            run.counts.events += trace.recorded;
        }
        ("top", replayed) => {
            let trace = match replayed {
                Some(path) => load_trace(path, run),
                None => record_live(&cmd, run),
            };
            let opts = DashOpts {
                ascii: true,
                ..DashOpts::default()
            };
            let out = span("obs.dashboard_replay", || {
                replay(
                    &trace,
                    TelemetryConfig::default(),
                    OnlineConfig::default(),
                    1,
                    &opts,
                )
            });
            if cmd.json {
                span("obs.json_write", || {
                    let doc = xplacer_obs::timeseries_json(
                        &out.telemetry,
                        &trace.workload,
                        &trace.platform_name,
                        &out.episodes,
                    );
                    black_box(doc.to_string_pretty())
                });
            }
        }
        ("diff", _) => {
            let d = span("obs.diff", || {
                let mut load = |path: &str| {
                    let text = read(path);
                    run.counts.bytes += text.len() as u64;
                    let doc =
                        span("obs.json_parse", || Json::parse(&text)).expect("diff input parses");
                    RunDigest::from_json(&doc, path).expect("diff input is a run")
                };
                let (a, b) = (load(cmd.inputs[0]), load(cmd.inputs[1]));
                diff(a, b, xplacer_obs::diff::DEFAULT_THRESHOLD).expect("runs are comparable")
            });
            if cmd.json {
                span("obs.json_write", || {
                    black_box(d.to_json(10).to_string_pretty())
                });
            }
            black_box(d.render(10));
        }
        ("check", _) if WORKLOAD_NAMES.contains(&cmd.target()) => {
            run.counts.accesses += check_builtin(cmd.target(), &pf, true, run);
        }
        ("check", _) => {
            let src = read(cmd.target());
            let out = span("check", || {
                check_source(
                    cmd.target(),
                    &src,
                    &CheckOptions {
                        platform: pf,
                        ..CheckOptions::default()
                    },
                )
            })
            .expect("check runs");
            black_box(out.report.render());
            run.all_findings += out.report.findings.len() as u64;
            run.counts.findings += out.report.findings.len() as u64;
        }
        ("analyze", _) | ("run", _) => {
            let src = read(cmd.target());
            let prog = span("lang.parse", || parse(&src)).expect("program parses");
            let (prog, name) = if cmd.verb == "analyze" {
                (
                    span("instrument", || xplacer_instrument::instrument(&prog)).program,
                    "interp.run",
                )
            } else {
                (prog, "interp.plain_run")
            };
            let mut it = Interp::new(prog, Machine::new(pf));
            let out = span(name, || it.run_main()).expect("program runs");
            span("core.analyze", || {
                if cmd.verb == "analyze" {
                    let config = AnalysisConfig::default();
                    if it.reports.is_empty() {
                        black_box(analyze(&it.tracer.smt, &config).to_string());
                    }
                    black_box(analyze(&it.tracer.smt, &config));
                }
                black_box(summarize(&it.tracer.smt, false));
            });
            run.counts.accesses += out.stats.accesses();
        }
        ("instrument", _) => {
            let src = read(cmd.target());
            let prog = span("lang.parse", || parse(&src)).expect("program parses");
            let inst = span("instrument", || xplacer_instrument::instrument(&prog));
            black_box(span("lang.unparse", || unparse(&inst.program)));
        }
        ("optimize", _) => {
            let t = cmd.target();
            let target = if t.ends_with(".cu") {
                Target::Program {
                    name: t.to_string(),
                    source: read(t),
                }
            } else {
                Target::Workload(t.to_string())
            };
            optimize(target, &pf, cmd.jobs, run);
        }
        (verb, _) => panic!("session verb `{verb}` has no in-process replay"),
    }
}

// ------------------------------------------------------------------ probes

/// Records every word address the machine touches.
#[derive(Default)]
struct AddrRecorder(Vec<Addr>);

impl MemHook for AddrRecorder {
    fn on_alloc(&mut self, _: Addr, _: u64, _: AllocKind) {}
    fn on_free(&mut self, _: Addr) {}
    fn on_read(&mut self, _: Device, addr: Addr, _: u32) {
        self.0.push(addr);
    }
    fn on_write(&mut self, _: Device, addr: Addr, _: u32) {
        self.0.push(addr);
    }
    fn on_access_range(&mut self, _: Device, addr: Addr, elem: u32, count: u64, _: AccessKind) {
        self.0.extend((0..count).map(|i| addr + i * elem as u64));
    }
    fn on_memcpy(&mut self, _: Addr, _: Addr, _: u64, _: CopyKind) {}
    fn on_kernel_launch(&mut self, _: &str) {}
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

/// Bare simulation (no hooks) of every workload on both platforms.
fn probe_hetsim(m: &mut Metrics) -> BTreeMap<&'static str, u64> {
    let (mut accesses, mut faults, mut migrations, mut remote) = (0, 0, 0, 0);
    let mut sim_s = 0.0;
    let mut pascal_accesses = BTreeMap::new();
    for w in WORKLOAD_NAMES {
        for pf in [platform::intel_pascal(), platform::power9_volta()] {
            let (secs, stats) = timed(|| {
                let mut mach = Machine::new(pf.clone());
                span("hetsim.sim", || run_workload(&mut mach, w, |_, _| {}))
                    .expect("workload runs");
                mach.stats
            });
            sim_s += secs;
            accesses += stats.accesses();
            faults += stats.faults();
            migrations += stats.migrations();
            remote += stats.remote_accesses;
            if pf.name == platform::intel_pascal().name {
                pascal_accesses.insert(w, stats.accesses());
                put(
                    m,
                    format!("hetsim.ns_per_access.{w}"),
                    secs * 1e9 / stats.accesses() as f64,
                    "ns",
                );
            }
        }
    }
    put(m, "hetsim.sim_s", sim_s, "s");
    put(m, "hetsim.accesses", accesses as f64, "count");
    put(m, "hetsim.faults", faults as f64, "count");
    put(m, "hetsim.migrations", migrations as f64, "count");
    put(m, "hetsim.remote_accesses", remote as f64, "count");
    pascal_accesses
}

/// Tracer cost per access, SMT lookup cost, and each observer hook's cost
/// per call, all on lulesh (53 allocations, gather-heavy) on pascal.
fn probe_core_and_hooks(m: &mut Metrics, accesses: u64) {
    let pf = platform::intel_pascal();
    // The difference of two noisy times: pair each traced run with a bare
    // run right before it and take the median difference.
    let diffs = (0..3 * REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut mach = Machine::new(pf.clone());
            run_workload(&mut mach, "lulesh", |_, _| {}).expect("lulesh runs");
            let bare = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let mut mach = Machine::new(pf.clone());
            let tracer = attach_tracer(&mut mach);
            run_workload(&mut mach, "lulesh", |_, n| register_names(&tracer, n))
                .expect("lulesh runs");
            t0.elapsed().as_secs_f64() - bare
        })
        .collect();
    put(
        m,
        "core.tracer_ns_per_access",
        median(diffs) * 1e9 / accesses as f64,
        "ns",
    );

    let mut mach = Machine::new(pf.clone());
    let tracer = attach_tracer(&mut mach);
    let rec = Rc::new(RefCell::new(AddrRecorder::default()));
    mach.add_hook(rec.clone());
    run_workload(&mut mach, "lulesh", |_, n| register_names(&tracer, n)).expect("lulesh runs");
    let addrs = std::mem::take(&mut rec.borrow_mut().0);
    let t = tracer.borrow();
    let (secs, _) = timed(|| {
        addrs
            .iter()
            .filter(|a| t.smt.lookup(black_box(**a)).is_some())
            .count()
    });
    put(
        m,
        "core.smt_lookup_ns",
        secs * 1e9 / addrs.len() as f64,
        "ns",
    );
    black_box(span("core.analyze", || {
        analyze(&t.smt, &AnalysisConfig::default())
    }));

    let mut mach = Machine::new(pf.clone());
    let tracer = Rc::new(RefCell::new(Tracer::new()));
    let hooks: Vec<(&str, Rc<RefCell<dyn MemHook>>)> = vec![
        ("tracer", tracer.clone()),
        (
            "eventlog",
            Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY))),
        ),
        (
            "telemetry",
            Rc::new(RefCell::new(Telemetry::new(
                TelemetryConfig::default(),
                pf.link_bw,
            ))),
        ),
        (
            "online",
            Rc::new(RefCell::new(OnlineAnalyzer::new(OnlineConfig::default()))),
        ),
    ];
    let mut meters = Vec::new();
    for (name, hook) in hooks {
        let (metered, meter) = MeteredHook::new(hook);
        mach.add_hook(Rc::new(RefCell::new(metered)));
        meters.push((name, meter));
    }
    run_workload(&mut mach, "lulesh", |_, n| register_names(&tracer, n)).expect("lulesh runs");
    let mut calls = 0;
    for (name, meter) in meters {
        let meter = meter.borrow();
        calls += meter.calls;
        put(m, format!("hook.{name}.ns_per_call"), meter.mean_ns(), "ns");
    }
    put(m, "hook.calls", calls as f64, "count");
}

/// `check` on pathfinder with the bulk range path and with per-word checks.
fn probe_check(m: &mut Metrics, run: &mut Run, accesses: u64) {
    let pf = platform::intel_pascal();
    let (bulk, _) = timed(|| check_builtin("pathfinder", &pf, true, run));
    let (per_word, _) = timed(|| check_builtin("pathfinder", &pf, false, run));
    put(m, "check.ns_per_access", bulk * 1e9 / accesses as f64, "ns");
    put(m, "check.bulk_over_per_word", bulk / per_word, "ratio");
}

/// The JSON codec and the trace analyses on the 157 KB lulesh pascal trace.
fn probe_obs(m: &mut Metrics, run: &mut Run) {
    let pf = platform::intel_pascal();
    let mut mach = Machine::new(pf.clone());
    let tracer = attach_tracer(&mut mach);
    let log = Rc::new(RefCell::new(EventLog::with_capacity(PROFILE_RING_CAPACITY)));
    mach.add_hook(log.clone());
    run_workload(&mut mach, "lulesh", |_, n| register_names(&tracer, n)).expect("lulesh runs");
    let allocs = summarize(&tracer.borrow().smt, false);
    let elapsed = mach.elapsed_ns();
    let log = log.borrow();
    run.note_trace(log.total_recorded(), log.dropped());
    let (write_s, text) = timed(|| {
        span("obs.json_write", || {
            events_json(&log, "lulesh", elapsed, &pf, &allocs).to_string_pretty()
        })
    });
    let (parse_s, doc) =
        timed(|| span("obs.json_parse", || Json::parse(&text)).expect("trace parses"));
    let mb = text.len() as f64 / 1e6;
    put(m, "obs.json_write_mb_per_s", mb / write_s, "MB/s");
    put(m, "obs.json_parse_mb_per_s", mb / parse_s, "MB/s");
    let trace = span("obs.events_decode", || events_from_json(&doc)).expect("trace decodes");
    run.note_trace(trace.recorded, trace.dropped);
    black_box(span("obs.profile_build", || {
        ProfileReport::from_trace(&trace)
    }));
    black_box(span("obs.blame_build", || BlameReport::build(&trace)));
    let opts = DashOpts {
        ascii: true,
        ..DashOpts::default()
    };
    black_box(span("obs.dashboard_replay", || {
        replay(
            &trace,
            TelemetryConfig::default(),
            OnlineConfig::default(),
            1,
            &opts,
        )
    }));
    black_box(span("obs.diff", || {
        let a = RunDigest::from_json(&doc, "a").expect("trace digests");
        let b = RunDigest::from_json(&doc, "b").expect("trace digests");
        diff(a, b, xplacer_obs::diff::DEFAULT_THRESHOLD).expect("runs compare")
    }));
}

/// Lexer+parser, instrument pass and unparser over the generated MiniCU
/// sources; the interpreter on the scalar loop and on one heap program.
fn probe_lang_interp(m: &mut Metrics, plan: &Json) {
    let sources: Vec<String> = strings(plan, "sources").iter().map(|p| read(p)).collect();
    let bytes: usize = sources.iter().map(String::len).sum();
    let (parse_s, progs) = timed(|| {
        sources
            .iter()
            .map(|s| span("lang.parse", || parse(s)).expect("source parses"))
            .collect::<Vec<_>>()
    });
    put(
        m,
        "lang.parse_mb_per_s",
        bytes as f64 / 1e6 / parse_s,
        "MB/s",
    );
    for prog in &progs {
        let inst = span("instrument", || xplacer_instrument::instrument(prog));
        black_box(span("lang.unparse", || unparse(&inst.program)));
    }

    let pf = platform::intel_pascal();
    let scalar = parse(&read(str_of(plan, "scalar_source"))).expect("scalar loop parses");
    let iters = plan
        .get("scalar_iters")
        .and_then(Json::as_f64)
        .expect("plan has scalar_iters");
    let (secs, _) = timed(|| {
        let mut it = Interp::new(scalar.clone(), Machine::new(pf.clone()));
        span("interp.plain_run", || it.run_main()).expect("scalar loop runs")
    });
    put(m, "interp.scalar_ns_per_iter", secs * 1e9 / iters, "ns");

    let heap = &progs[0];
    let inst = xplacer_instrument::instrument(heap).program;
    let (traced, _) = timed(|| {
        let mut it = Interp::new(inst.clone(), Machine::new(pf.clone()));
        span("interp.run", || it.run_main()).expect("program runs")
    });
    let (plain, _) = timed(|| {
        let mut it = Interp::new(heap.clone(), Machine::new(pf.clone()));
        span("interp.plain_run", || it.run_main()).expect("program runs")
    });
    put(m, "interp.trace_overhead", traced / plain, "ratio");
}

/// A full search on the generated Smith-Waterman program target, and the
/// source rewrite of each single-item plan its first round evaluates.
fn probe_optimize(m: &mut Metrics, plan: &Json, run: &mut Run) {
    let pf = platform::intel_pascal();
    let path = str_of(plan, "optimize_source");
    let source = read(path);
    let target = Target::Program {
        name: path.to_string(),
        source: source.clone(),
    };
    optimize(target, &pf, 2, run);
    let prog = parse(&source).expect("program parses");
    let (_, candidates) =
        eval::eval_program(path, &source, &pf, &Plan::empty(), &BTreeMap::new(), true)
            .expect("baseline runs");
    let candidates = candidates.expect("baseline enumerates candidates");
    let plans: Vec<Vec<SitePlan>> = candidates
        .items
        .iter()
        .map(|it| {
            vec![SitePlan {
                site: candidates.site_of_base[&it.base],
                action: it.action,
                size: it.size,
            }]
        })
        .collect();
    let (secs, _) = timed(|| {
        for p in &plans {
            black_box(
                span("instrument.apply_plan", || apply_plan(&prog, p)).expect("plan applies"),
            );
        }
    });
    put(
        m,
        "instrument.apply_plan_ms",
        secs * 1e3 / plans.len() as f64,
        "ms",
    );
}

fn str_of<'a>(plan: &'a Json, key: &str) -> &'a str {
    plan.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("plan has no `{key}`"))
}

fn strings<'a>(plan: &'a Json, key: &str) -> Vec<&'a str> {
    plan.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("plan has no `{key}` list"))
        .iter()
        .map(|v| v.as_str().expect("list of strings"))
        .collect()
}

// ------------------------------------------------------------------ output

/// Share of the sessions' wall time that their direct child spans cover.
fn coverage() -> f64 {
    let v = spans();
    let is_session = |i: usize| v[i].name == "session";
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64;
    let total: f64 = v.iter().filter(|s| s.name == "session").map(dur).sum();
    let covered: f64 = v
        .iter()
        .filter(|s| s.parent.is_some_and(is_session))
        .map(dur)
        .sum();
    covered / total
}

fn write_spans(path: &str) {
    let v = spans();
    let mut child_ns = vec![0u64; v.len()];
    for s in v.iter() {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut list = Vec::with_capacity(v.len());
    for (i, s) in v.iter().enumerate() {
        *self_ns.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        let mut j = Json::obj();
        j.set("name", s.name.into())
            .set("start_ns", s.start_ns.into())
            .set("end_ns", s.end_ns.into())
            .set("parent", s.parent.map_or(Json::Null, Json::from))
            .set("session", (s.session as u64).into());
        list.push(j);
    }
    let mut selfs = Json::obj();
    for (name, ns) in self_ns {
        selfs.set(name, ns.into());
    }
    let mut doc = Json::obj();
    doc.set("self_ns", selfs).set("spans", Json::Arr(list));
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    std::fs::write(path, doc.to_string_compact())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: perfbench-layers <plan.json>");
    let plan = Json::parse(&read(&path)).expect("plan is JSON");
    let sessions: Vec<Vec<String>> = plan
        .get("sessions")
        .and_then(Json::as_arr)
        .expect("plan has sessions")
        .iter()
        .map(|argv| {
            argv.as_arr()
                .expect("argv is a list")
                .iter()
                .map(|a| a.as_str().expect("argv holds strings").to_string())
                .collect()
        })
        .collect();

    let mut run = Run::default();
    now_ns();
    let t0 = Instant::now();
    for (i, argv) in sessions.iter().enumerate() {
        SESSION.set(i as u32 + 1);
        span("session", || run_session(argv, &mut run));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let coverage = coverage();
    let counts = std::mem::take(&mut run.counts);

    SESSION.set(0);
    let mut m = Metrics::new();
    let pascal_accesses = span("probe", || probe_hetsim(&mut m));
    span("probe", || {
        probe_core_and_hooks(&mut m, pascal_accesses["lulesh"])
    });
    span("probe", || {
        probe_check(&mut m, &mut run, pascal_accesses["pathfinder"])
    });
    span("probe", || probe_obs(&mut m, &mut run));
    span("probe", || probe_lang_interp(&mut m, &plan));
    span("probe", || probe_optimize(&mut m, &plan, &mut run));

    put(&mut m, "lang.parse_s", total_s("lang.parse"), "s");
    put(&mut m, "lang.unparse_s", total_s("lang.unparse"), "s");
    put(&mut m, "instrument.s", total_s("instrument"), "s");
    put(&mut m, "interp.run_s", total_s("interp.run"), "s");
    put(
        &mut m,
        "interp.plain_run_s",
        total_s("interp.plain_run"),
        "s",
    );
    put(
        &mut m,
        "workloads.setup_ms",
        median(durations_ms("workloads.setup")),
        "ms",
    );
    put(
        &mut m,
        "core.analyze_ms",
        total_s("core.analyze") * 1e3,
        "ms",
    );
    put(&mut m, "check.s", total_s("check"), "s");
    put(&mut m, "check.findings", run.all_findings as f64, "count");
    for name in [
        "events_decode",
        "profile_build",
        "blame_build",
        "dashboard_replay",
        "diff",
    ] {
        put(
            &mut m,
            format!("obs.{name}_ms"),
            total_s(&format!("obs.{name}")) * 1e3,
            "ms",
        );
    }
    put(
        &mut m,
        "obs.events_recorded",
        run.events_recorded as f64,
        "count",
    );
    put(
        &mut m,
        "obs.events_dropped",
        run.events_dropped as f64,
        "count",
    );
    put(
        &mut m,
        "optimize.baseline_ms",
        total_s("optimize.baseline") * 1e3,
        "ms",
    );
    put(
        &mut m,
        "optimize.eval_ms_p50",
        quantile(run.eval_ms.clone(), 0.5),
        "ms",
    );
    put(
        &mut m,
        "optimize.eval_ms_p90",
        quantile(run.eval_ms.clone(), 0.9),
        "ms",
    );
    put(&mut m, "optimize.evals", run.eval_ms.len() as f64, "count");
    put(&mut m, "optimize.rejected", run.rejected as f64, "count");
    let log_gain: f64 = run.gains.iter().map(|g| g.ln()).sum::<f64>() / run.gains.len() as f64;
    put(&mut m, "optimize.winner_gain", log_gain.exp(), "ratio");
    put(
        &mut m,
        "par.efficiency",
        run.search_busy_s / run.search_capacity_s,
        "1",
    );
    put(&mut m, "trace.coverage", coverage, "1");

    write_spans(str_of(&plan, "spans_out"));

    let mut c = Json::obj();
    c.set("accesses", counts.accesses.into())
        .set("events", counts.events.into())
        .set("evals", counts.evals.into())
        .set("findings", counts.findings.into())
        .set("bytes", counts.bytes.into());
    let mut winners = counts.winners;
    winners.sort();
    c.set(
        "winners",
        Json::Arr(winners.into_iter().map(Json::from).collect()),
    );
    let mut metrics = Json::obj();
    for (name, (value, unit)) in m {
        metrics.set(&name, Json::Arr(vec![value.into(), unit.into()]));
    }
    let mut out = Json::obj();
    out.set("wall_s", wall_s.into())
        .set("counts", c)
        .set("metrics", metrics);
    println!("{}", out.to_string_compact());
}
