//! Critical-path blame analysis (`xplacer blame`) and differential trace
//! diff (`xplacer diff`), end to end.
//!
//! Four properties pin the layer down:
//!
//! * **Conservation** — on every built-in workload, the blame rows
//!   partition the critical path *bit-exactly*: Σ `blame_ns` equals
//!   `path_ns` to the last ulp in any summation order, because blame is
//!   accounted in integer 1/1024-ns ticks.
//! * **Determinism** — identical runs produce byte-identical blame
//!   reports (human table, JSON, folded stacks) and diff reports.
//! * **Verdicts** — diffing a run against itself reports zero deltas and
//!   no regression; diffing a cheap run against an expensive one is a
//!   regression (the CI-gate signal behind `xplacer diff`'s exit code).
//! * **Validation** — every serialized workload trace round-trips through
//!   `EventTrace::parse`, which enforces per-stream timestamp monotonicity
//!   on the way in.
//!
//! The committed snapshots under `tests/golden/` are the byte-exact
//! contract of the blame/diff renderers; `blame_replay_lulesh.golden` is
//! additionally byte-compared by ci.sh against the real binary's
//! `xplacer blame --replay` output. Regenerate with `XPLACER_BLESS=1`.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use hetsim::{platform, EventLog, Machine};
use xplacer_conformance::snapshot::check_or_bless;
use xplacer_obs::crit_path::{BlameReport, TICKS_PER_NS};
use xplacer_obs::diff::{diff, RunDigest, Verdict, DEFAULT_THRESHOLD};
use xplacer_obs::events::{events_json, EventTrace};
use xplacer_obs::Json;
use xplacer_workloads::register_names;

type Tracer = Rc<RefCell<xplacer_core::Tracer>>;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}"))
}

/// Run `work` with tracer + event ring attached and serialize the stream
/// exactly as `--events-out` does. The returned trace is parsed back from
/// that text, so every trace used below has already passed the
/// stream-order validator.
fn record(
    name: &str,
    capacity: usize,
    work: impl FnOnce(&mut Machine, &Tracer),
) -> (EventTrace, String) {
    let mut m = Machine::new(platform::intel_pascal());
    let tracer = xplacer_core::attach_tracer(&mut m);
    let log = Rc::new(RefCell::new(EventLog::with_capacity(capacity)));
    m.add_hook(log.clone());
    work(&mut m, &tracer);
    let elapsed = m.elapsed_ns();
    let allocs = xplacer_core::summarize(&tracer.borrow().smt, false);
    let text = events_json(&log.borrow(), name, elapsed, m.platform(), &allocs).to_string_pretty();
    let trace =
        EventTrace::parse(&text).unwrap_or_else(|e| panic!("{name}: exported trace rejected: {e}"));
    (trace, text)
}

fn digest(text: &str, source: &str) -> RunDigest {
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("{source}: {e}"));
    RunDigest::from_json(&doc, source).unwrap_or_else(|e| panic!("{source}: {e}"))
}

const DEEP_RING: usize = 1 << 21;

fn lulesh_trace(variant: xplacer_workloads::lulesh::LuleshVariant) -> (EventTrace, String) {
    use xplacer_workloads::lulesh::{Lulesh, LuleshConfig};
    record("lulesh", DEEP_RING, |m, t| {
        let cfg = LuleshConfig::new(6, 4);
        let mut l = Lulesh::setup(m, cfg, variant);
        register_names(t, &l.names());
        l.run(m, cfg.steps, |_, _| {});
    })
}

/// All eight built-in workloads at integration-test sizes.
fn all_traces() -> Vec<EventTrace> {
    use xplacer_workloads as w;
    let mut traces = vec![lulesh_trace(w::lulesh::LuleshVariant::Baseline).0];
    traces.push(
        record("sw", DEEP_RING, |m, t| {
            use w::smith_waterman::*;
            let mut s = SmithWaterman::setup(m, SwConfig::square(64), SwVariant::Baseline);
            register_names(t, &s.names());
            s.run(m, |_, _| {});
        })
        .0,
    );
    traces.push(
        record("pathfinder", DEEP_RING, |m, t| {
            use w::rodinia::pathfinder::*;
            let mut p = Pathfinder::setup(
                m,
                PathfinderConfig::new(256, 51, 10),
                PathfinderVariant::Baseline,
            );
            register_names(t, &p.names());
            p.run(m, |_, _| {});
        })
        .0,
    );
    traces.push(
        record("backprop", DEEP_RING, |m, t| {
            use w::rodinia::backprop::*;
            let mut b = Backprop::setup(m, BackpropConfig::new(512));
            register_names(t, &b.names());
            b.run(m);
        })
        .0,
    );
    traces.push(
        record("gaussian", DEEP_RING, |m, t| {
            use w::rodinia::gaussian::*;
            let mut g = Gaussian::setup(m, GaussianConfig::new(24));
            register_names(t, &g.names());
            g.run(m);
        })
        .0,
    );
    traces.push(
        record("lud", DEEP_RING, |m, t| {
            use w::rodinia::lud::*;
            let mut l = Lud::setup(m, LudConfig::new(32));
            register_names(t, &l.names());
            l.run(m, |_, _| {});
        })
        .0,
    );
    traces.push(
        record("nn", DEEP_RING, |m, t| {
            use w::rodinia::nn::*;
            let mut n = Nn::setup(m, NnConfig::new(512));
            register_names(t, &n.names());
            n.run(m);
        })
        .0,
    );
    traces.push(
        record("cfd", DEEP_RING, |m, t| {
            use w::rodinia::cfd::*;
            let mut c = Cfd::setup(m, CfdConfig::new(256, 4));
            register_names(t, &c.names());
            c.run(m);
        })
        .0,
    );
    traces
}

/// The exact pipeline ci.sh drives through the real binary: `xplacer demo
/// lulesh --events-out` (default event ring, demo-sized config, final
/// check read included) followed by `xplacer blame --replay`.
fn demo_style_lulesh_trace() -> (EventTrace, String) {
    use xplacer_workloads::lulesh::{Lulesh, LuleshConfig, LuleshVariant};
    record("lulesh", EventLog::DEFAULT_CAPACITY, |m, t| {
        let cfg = LuleshConfig::new(8, 3);
        let mut l = Lulesh::setup(m, cfg, LuleshVariant::Baseline);
        register_names(t, &l.names());
        l.run(m, cfg.steps, |_, _| {});
        let _ = l.check(m);
    })
}

// ----------------------------------------------------------------------
// Conservation
// ----------------------------------------------------------------------

#[test]
fn blame_conserves_the_critical_path_bit_exactly_on_every_workload() {
    for trace in all_traces() {
        let r = BlameReport::build(&trace);
        assert_eq!(
            r.path_ticks,
            (trace.elapsed_ns * TICKS_PER_NS).round() as u64,
            "{}: path_ticks is not elapsed on the tick grid",
            trace.workload
        );
        assert!(
            (r.path_ns - trace.elapsed_ns).abs() * TICKS_PER_NS <= 0.5 + 1e-9,
            "{}: path_ns {} drifted from elapsed {}",
            trace.workload,
            r.path_ns,
            trace.elapsed_ns
        );
        let ticks: u64 = r.rows.iter().map(|row| row.blame_ticks).sum();
        assert_eq!(
            ticks, r.path_ticks,
            "{}: blame ticks do not partition the path",
            trace.workload
        );
        // Bit-exact in nanoseconds too, independent of summation order:
        // every blame_ns is ticks/1024, an exact binary fraction.
        let forward: f64 = r.rows.iter().map(|row| row.blame_ns).sum();
        let reverse: f64 = r.rows.iter().rev().map(|row| row.blame_ns).sum();
        assert_eq!(
            forward.to_bits(),
            r.path_ns.to_bits(),
            "{}: Σ blame_ns != path_ns bit-exactly",
            trace.workload
        );
        assert_eq!(
            reverse.to_bits(),
            r.path_ns.to_bits(),
            "{}: conservation must not depend on summation order",
            trace.workload
        );
        assert!(
            !r.rows.is_empty() && r.rows[0].blame_ticks > 0,
            "{}: a non-empty run must produce blame",
            trace.workload
        );
        // Rows are ranked largest-first; what-if bounds never exceed the
        // path and the residual is exactly path - savable.
        assert!(r
            .rows
            .windows(2)
            .all(|w| w[0].blame_ticks >= w[1].blame_ticks));
        for wi in &r.what_if {
            assert!(
                wi.savable_ticks <= r.path_ticks,
                "{}: what-if for {} exceeds the whole path",
                trace.workload,
                wi.label
            );
            assert_eq!(
                wi.path_if_fixed_ns.to_bits(),
                (r.path_ns - wi.savable_ns).to_bits(),
                "{}: what-if residual path is not path - savable",
                trace.workload
            );
        }
    }
}

// ----------------------------------------------------------------------
// Determinism
// ----------------------------------------------------------------------

#[test]
fn blame_and_diff_reports_are_byte_deterministic() {
    use xplacer_workloads::lulesh::LuleshVariant;
    let (a, ta) = lulesh_trace(LuleshVariant::Baseline);
    let (b, tb) = lulesh_trace(LuleshVariant::Baseline);
    assert_eq!(ta, tb, "serialized event traces diverged");
    let (ra, rb) = (BlameReport::build(&a), BlameReport::build(&b));
    assert_eq!(ra.render(10), rb.render(10), "blame table diverged");
    assert_eq!(
        ra.to_json().to_string_pretty(),
        rb.to_json().to_string_pretty(),
        "blame JSON diverged"
    );
    assert_eq!(ra.folded(), rb.folded(), "folded blame stacks diverged");

    let (_, after1) = lulesh_trace(LuleshVariant::ReadMostly);
    let (_, after2) = lulesh_trace(LuleshVariant::ReadMostly);
    let d1 = diff(
        digest(&ta, "before"),
        digest(&after1, "after"),
        DEFAULT_THRESHOLD,
    )
    .unwrap();
    let d2 = diff(
        digest(&tb, "before"),
        digest(&after2, "after"),
        DEFAULT_THRESHOLD,
    )
    .unwrap();
    assert_eq!(d1.render(10), d2.render(10), "diff report diverged");
    assert_eq!(
        d1.to_json(10).to_string_pretty(),
        d2.to_json(10).to_string_pretty(),
        "diff JSON diverged"
    );
}

// ----------------------------------------------------------------------
// Verdicts
// ----------------------------------------------------------------------

#[test]
fn self_diff_is_zero_and_not_a_regression() {
    let (_, text) = lulesh_trace(xplacer_workloads::lulesh::LuleshVariant::Baseline);
    let d = diff(digest(&text, "a"), digest(&text, "b"), DEFAULT_THRESHOLD).unwrap();
    assert!(d.is_zero(), "self-diff must report zero deltas");
    assert!(!d.regressed());
    assert_eq!(d.verdict, Verdict::Neutral);
    assert!(d.unchanged > 0, "aligned rows must be counted, not dropped");
}

#[test]
fn read_mostly_advice_improves_lulesh_and_the_reverse_diff_regresses() {
    use xplacer_workloads::lulesh::LuleshVariant;
    let (before, tb) = lulesh_trace(LuleshVariant::Baseline);
    let (after, ta) = lulesh_trace(LuleshVariant::ReadMostly);
    assert!(
        after.elapsed_ns < before.elapsed_ns,
        "ReadMostly must beat the fault-heavy baseline"
    );
    let fwd = diff(
        digest(&tb, "before"),
        digest(&ta, "after"),
        DEFAULT_THRESHOLD,
    )
    .unwrap();
    assert_eq!(fwd.verdict, Verdict::Improved);
    assert!(!fwd.regressed());
    // The same pair reversed is the synthetic regressed trace: the CI
    // gate must fire.
    let rev = diff(
        digest(&ta, "after"),
        digest(&tb, "before"),
        DEFAULT_THRESHOLD,
    )
    .unwrap();
    assert_eq!(rev.verdict, Verdict::Regressed);
    assert!(rev.regressed(), "reverse diff must trip the exit-1 gate");
}

// ----------------------------------------------------------------------
// Golden snapshots
// ----------------------------------------------------------------------

fn check_golden(name: &str, actual: &str) {
    if let Err(e) = check_or_bless(&golden_path(name), actual) {
        panic!("{e}");
    }
}

#[test]
fn golden_blame_lulesh() {
    let r = BlameReport::build(&lulesh_trace(xplacer_workloads::lulesh::LuleshVariant::Baseline).0);
    check_golden("blame_lulesh.golden", &r.render(10));
    check_golden("blame_lulesh_folded.golden", &r.folded());
}

#[test]
fn golden_blame_replay_lulesh_matches_the_cli_pipeline() {
    // ci.sh byte-compares `xplacer blame --replay` on the demo-recorded
    // events file against this same snapshot.
    let r = BlameReport::build(&demo_style_lulesh_trace().0);
    check_golden("blame_replay_lulesh.golden", &r.render(10));
}

#[test]
fn golden_diff_lulesh_read_mostly() {
    use xplacer_workloads::lulesh::LuleshVariant;
    let (_, tb) = lulesh_trace(LuleshVariant::Baseline);
    let (_, ta) = lulesh_trace(LuleshVariant::ReadMostly);
    let d = diff(
        digest(&tb, "lulesh-baseline"),
        digest(&ta, "lulesh-read-mostly"),
        DEFAULT_THRESHOLD,
    )
    .unwrap();
    check_golden("diff_lulesh_read_mostly.golden", &d.render(10));
}

// ----------------------------------------------------------------------
// Hostile replay input
// ----------------------------------------------------------------------

/// Every decoder a replay consumer calls returns `Ok` or `Err` on `text`;
/// none panics. `what` names the input in the failure message.
fn decode_everything(text: &str, what: &str) {
    let decoded = std::panic::catch_unwind(|| {
        let _ = EventTrace::parse(text);
        if let Ok(doc) = Json::parse(text) {
            let _ = RunDigest::from_json(&doc, what);
        }
    });
    assert!(decoded.is_ok(), "a decoder panicked on {what}");
}

/// Truncated and garbled copies of a committed JSON golden and of a
/// freshly recorded `--events-out` trace go through `Json::parse`,
/// `EventTrace::parse` and `RunDigest::from_json` without a panic.
#[test]
fn replay_decoders_never_panic_on_truncated_or_garbled_json() {
    let golden = std::fs::read_to_string(golden_path("optimize_lulesh.json.golden")).unwrap();
    let events = demo_style_lulesh_trace().1;
    // Bytes that steer a JSON parser into its other branches.
    const NOISE: &[u8] = b"{}[]\",:\\-+.0123456789eEtfnul \n\x01~";
    let mut rng = proptest::TestRng::deterministic("xplacer-json-garbles");
    for (name, doc) in [
        ("optimize_lulesh.json.golden", &golden),
        ("lulesh events", &events),
    ] {
        decode_everything(doc, name);
        for end in (0..doc.len())
            .step_by(997)
            .filter(|&i| doc.is_char_boundary(i))
        {
            decode_everything(&doc[..end], &format!("{name} cut at byte {end}"));
        }
        for _ in 0..200 {
            let mut bytes = doc.clone().into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = NOISE[rng.below(NOISE.len() as u64) as usize];
            let garbled = String::from_utf8_lossy(&bytes);
            decode_everything(&garbled, &format!("{name} garbled at byte {at}"));
        }
    }
}
