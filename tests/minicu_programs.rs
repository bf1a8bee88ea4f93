//! The shipped MiniCU example programs (examples/mini/*.cu) run
//! correctly through the full pipeline and are diagnosed as documented.

use xplacer_core::FindingKind;
use xplacer_integration_tests::run_traced;

fn load(name: &str) -> String {
    let path = format!("{}/../examples/mini/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Plain-Rust Smith-Waterman with the exact strings the MiniCU program
/// generates.
fn sw_reference(n: usize, m: usize) -> i32 {
    let a: Vec<i32> = (0..n).map(|i| ((i * 5 + 1) % 4) as i32).collect();
    let b: Vec<i32> = (0..m).map(|j| ((j * 7 + 3) % 4) as i32).collect();
    let w = m + 1;
    let mut h = vec![0i32; (n + 1) * (m + 1)];
    let mut best = 0;
    for i in 1..=n {
        for j in 1..=m {
            let s = if a[i - 1] == b[j - 1] { 3 } else { -3 };
            let v = 0
                .max(h[(i - 1) * w + (j - 1)] + s)
                .max(h[(i - 1) * w + j] - 2)
                .max(h[i * w + (j - 1)] - 2);
            h[i * w + j] = v;
            best = best.max(v);
        }
    }
    best
}

#[test]
fn smith_waterman_minicu_matches_reference() {
    let (out, interp) = run_traced(&load("smith_waterman.cu"));
    assert_eq!(out.exit, sw_reference(24, 16) as i64);
    assert!(out.stdout.starts_with("score="));
    // The diagnostic names all four data objects.
    for name in ["H", "P", "a", "b"] {
        assert!(out.stdout.contains(name), "{}", out.stdout);
    }
    // One kernel per computable diagonal.
    assert_eq!(out.stats.kernel_launches, (24 + 16 - 1) as u64);
    let _ = interp;
}

#[test]
fn smith_waterman_minicu_shows_low_density_reads_of_init() {
    let (_, interp) = run_traced(&load("smith_waterman.cu"));
    // The diagnostic point's report fires before the epoch reset.
    let report = &interp.reports[0];
    // H alternates: CPU zero-init + GPU writes/reads.
    assert!(
        report
            .for_alloc("H")
            .any(|f| f.kind() == FindingKind::Alternating),
        "{report}"
    );
}

/// Plain-Rust Pathfinder with the MiniCU program's wall.
fn pathfinder_reference(rows: usize, cols: usize) -> i64 {
    let wall: Vec<i32> = (0..rows * cols)
        .map(|k| ((k * 13 + 5) % 10) as i32)
        .collect();
    let mut prev: Vec<i32> = wall[..cols].to_vec();
    let mut cur = vec![0i32; cols];
    for r in 1..rows {
        for c in 0..cols {
            let mut best = prev[c];
            if c > 0 {
                best = best.min(prev[c - 1]);
            }
            if c + 1 < cols {
                best = best.min(prev[c + 1]);
            }
            cur[c] = best + wall[r * cols + c];
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.iter().map(|&v| v as i64).sum()
}

#[test]
fn pathfinder_minicu_matches_reference() {
    let (out, _) = run_traced(&load("pathfinder.cu"));
    let want = pathfinder_reference(11, 64);
    assert_eq!(out.exit, want % 251);
    assert!(
        out.stdout.contains(&format!("checksum={want}")),
        "{}",
        out.stdout
    );
    assert_eq!(out.stats.memcpy_h2d, 2);
    assert_eq!(out.stats.memcpy_d2h, 1);
}

#[test]
fn pathfinder_minicu_reports_partial_wall_use_per_epoch() {
    let (out, interp) = run_traced(&load("pathfinder.cu"));
    // Several diagnostic points fired (one per pyramid).
    assert!(interp.reports.len() >= 4, "{}", interp.reports.len());
    // Later epochs see only a slice of gpuWall: low density findings.
    let later = &interp.reports[interp.reports.len() - 1];
    assert!(
        later
            .for_alloc("gpuWall")
            .any(|f| f.kind() == FindingKind::LowDensity),
        "{later}"
    );
    let _ = out;
}

#[test]
fn alternating_minicu_example_detects_pattern_one() {
    let (_, interp) = run_traced(&load("alternating.cu"));
    assert!(interp.reports[0]
        .for_alloc("data")
        .any(|f| f.kind() == FindingKind::Alternating));
}

#[test]
fn unnecessary_transfer_minicu_example_detects_pattern_three() {
    let (_, interp) = run_traced(&load("unnecessary_transfer.cu"));
    let report = &interp.reports[0];
    assert!(report
        .for_alloc("dev")
        .any(|f| f.kind() == FindingKind::UnnecessaryTransfer));
}

/// Programs nested exactly as deep as the parser allows, one per kind of
/// nesting (see `xplacer_lang::parser::MAX_DEPTH`), with the expected
/// value of `main`.
fn programs_at_the_depth_limit() -> Vec<(&'static str, String, i64)> {
    use xplacer_lang::parser::parse;
    // Statements nested `n` deep, and the value they leave in `x`.
    type Nest = fn(usize) -> (String, i64);
    let kinds: [(&str, Nest); 4] = [
        ("parentheses", |n| {
            (format!("x = {}1{};", "(".repeat(n), ")".repeat(n)), 1)
        }),
        ("unary minus", |n| {
            (format!("x = {}1;", "- ".repeat(n)), 1 - 2 * (n % 2) as i64)
        }),
        ("sum chain", |n| {
            (format!("x = 1{};", " + 1".repeat(n)), n as i64 + 1)
        }),
        ("blocks", |n| {
            (format!("{}x = 7;{}", "{ ".repeat(n), " }".repeat(n)), 7)
        }),
    ];
    kinds
        .iter()
        .map(|&(kind, nest)| {
            let program = |n| format!("int main() {{ int x = 0; {} return x; }}", nest(n).0);
            // The deepest nesting that still parses...
            let mut n = 0;
            while parse(&program(n + 1)).is_ok() {
                n += 1;
            }
            // ...is cut off by the depth limit, not by anything else.
            let err = parse(&program(n + 1)).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than"), "{kind}: {err}");
            (kind, program(n), nest(n).1)
        })
        .collect()
}

/// Every verb that walks a MiniCU tree (run, analyze, check, instrument)
/// handles a program at the depth limit on a 2 MiB thread (the default
/// test-thread stack) in a debug build, so the limit leaves headroom for
/// all of them.
#[test]
fn programs_at_the_depth_limit_run_through_every_verb() {
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let handle = worker
        .spawn(|| {
            for (kind, src, value) in programs_at_the_depth_limit() {
                let (out, interp) = run_traced(&src);
                assert_eq!(out.exit, value, "{kind}");
                let cfg = xplacer_core::AnalysisConfig::default();
                let _ = xplacer_core::analyze(&interp.tracer.smt, &cfg);
                let opts = xplacer_check::CheckOptions::default();
                let checked = xplacer_check::check_source("deep.cu", &src, &opts)
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                assert!(checked.report.clean(), "{kind}");
                let prog = xplacer_lang::parser::parse(&src).unwrap();
                let inst = xplacer_instrument::instrument(&prog);
                assert!(!xplacer_lang::unparse::unparse(&inst.program).is_empty());
            }
        })
        .unwrap();
    handle.join().expect("a program at the depth limit ran");
}
