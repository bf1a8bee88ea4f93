//! The `xplacer` binary end to end: `check`'s exit-code contract
//! (0 clean / 1 findings / 2 usage), stdout purity under
//! `--log-level quiet`, `--json` stream separation, and the flag and
//! target rules every verb shares.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn xplacer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xplacer"))
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn run(args: &[&str]) -> Output {
    xplacer().args(args).output().expect("xplacer binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("stdout is UTF-8")
}

#[test]
fn clean_file_exits_zero() {
    // The mini examples deliberately leak (demo style), so a minimal
    // init-use-free program pins the clean path.
    let dir = std::env::temp_dir().join("xplacer_check_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("clean.cu");
    std::fs::write(
        &f,
        "int main() {\n\
         \x20   int* a;\n\
         \x20   cudaMallocManaged((void**)&a, 16 * sizeof(int));\n\
         \x20   for (int i = 0; i < 16; i++) { a[i] = i; }\n\
         \x20   printf(\"a0=%d\\n\", a[0]);\n\
         \x20   cudaFree(a);\n\
         \x20   return 0;\n\
         }\n",
    )
    .unwrap();
    let out = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("clean"));
}

#[test]
fn buggy_file_exits_one() {
    let f = repo_path("tests/corpus/buggy/double_free.cu");
    let out = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("double-free"));
}

#[test]
fn usage_errors_exit_two() {
    // No input at all.
    let out = run(&["check"]);
    assert_eq!(out.status.code(), Some(2));
    // Unreadable input.
    let out = run(&["check", "no_such_file.cu"]);
    assert_eq!(out.status.code(), Some(2));
    // A parse error is a usage-level failure, not a finding.
    let dir = std::env::temp_dir().join("xplacer_check_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let broken = dir.join("broken.cu");
    std::fs::write(&broken, "int main( {").unwrap();
    let out = run(&["check", broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn quiet_stdout_carries_exactly_the_report() {
    // Under --log-level quiet, stdout is the rendered report and nothing
    // else — repeat runs must be byte-identical (ci.sh cmp's this same
    // stream against the committed goldens).
    let f = repo_path("tests/corpus/buggy/leak.cu");
    let a = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    let b = run(&["check", f.to_str().unwrap(), "--log-level", "quiet"]);
    assert_eq!(a.stdout, b.stdout, "repeat runs differ");
    let text = stdout(&a);
    assert!(
        text.starts_with("== xplacer check:"),
        "chatter on stdout: {text}"
    );
    assert!(a.stderr.is_empty(), "quiet run wrote to stderr");
}

#[test]
fn json_mode_emits_one_document_on_stdout() {
    let f = repo_path("tests/corpus/buggy/uninit_read.cu");
    let out = run(&[
        "check",
        f.to_str().unwrap(),
        "--json",
        "--log-level",
        "quiet",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    // One JSON object, parseable, carrying the schema tag; the human
    // table moved to stderr.
    assert!(text.trim_start().starts_with('{'), "stdout: {text}");
    assert!(text.contains("\"schema\": \"xplacer-check/1\""));
    assert!(!text.contains("== xplacer check:"));
}

#[test]
fn workload_target_resolves_by_name() {
    let out = run(&["check", "gaussian", "--log-level", "quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("gaussian"));
}

/// Each verb with positionals that pass its argument count, and one of
/// its value flags.
const VERBS: [(&str, &[&str], &str); 12] = [
    (
        "instrument",
        &["examples/mini/alternating.cu"],
        "--log-level",
    ),
    ("run", &["examples/mini/alternating.cu"], "--trace-out"),
    (
        "analyze",
        &["examples/mini/alternating.cu"],
        "--metrics-out",
    ),
    ("advise", &["examples/mini/alternating.cu"], "--platform"),
    ("demo", &["gaussian"], "--events-out"),
    ("profile", &["gaussian"], "--top"),
    ("top", &["gaussian"], "--frames"),
    ("blame", &["gaussian"], "--folded-out"),
    ("diff", &["a.json", "b.json"], "--threshold"),
    ("check", &["gaussian"], "--max-errors"),
    ("optimize", &["gaussian"], "--jobs"),
    ("platforms", &[], "--log-level"),
];

/// `xplacer <verb> <positionals> <tail>`, run from the repository root.
fn run_verb(verb: &str, pos: &[&str], tail: &[&str]) -> Output {
    let mut args = vec![verb];
    args.extend(pos);
    args.extend(tail);
    xplacer()
        .args(&args)
        .current_dir(repo_path(""))
        .output()
        .expect("xplacer binary runs")
}

fn assert_usage_error(out: &Output, what: &str, mentions: &[&str]) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {err}");
    assert!(out.stdout.is_empty(), "{what}: stdout {}", stdout(out));
    for m in mentions {
        assert!(err.contains(m), "{what}: stderr lacks `{m}`: {err}");
    }
}

#[test]
fn every_verb_rejects_bad_flags_before_doing_any_work() {
    for (verb, pos, value_flag) in VERBS {
        let out = run_verb(verb, pos, &["--bogus"]);
        assert_usage_error(&out, &format!("{verb} --bogus"), &["--bogus", verb]);
        let out = run_verb(verb, pos, &[value_flag]);
        assert_usage_error(&out, &format!("{verb} {value_flag}"), &[value_flag]);
        // A flag in front of the positionals is judged the same way.
        let out = run_verb(verb, &["--bogus"], pos);
        assert_usage_error(&out, &format!("{verb} --bogus first"), &["--bogus"]);
    }
}

#[test]
fn repeated_value_flags_and_misspellings_exit_two() {
    let out = run_verb("demo", &["lulesh"], &["--plaform", "power9"]);
    assert_usage_error(&out, "demo --plaform", &["--plaform", "demo"]);
    let out = run_verb("profile", &["gaussian"], &["--top", "3", "--top", "4"]);
    assert_usage_error(&out, "profile --top twice", &["--top"]);
    let out = run_verb(
        "demo",
        &["gaussian"],
        &["--platform", "volta", "--platform", "power9"],
    );
    assert_usage_error(&out, "demo --platform twice", &["--platform"]);
    let out = run_verb("demo", &["gaussian", "lud"], &[]);
    assert_usage_error(&out, "demo with two workloads", &["demo"]);
}

#[test]
fn every_verb_accepts_log_level() {
    for (verb, pos) in [
        ("instrument", &["examples/mini/alternating.cu"][..]),
        ("advise", &["examples/mini/alternating.cu"]),
        ("platforms", &[]),
    ] {
        let out = run_verb(verb, pos, &["--log-level", "quiet"]);
        assert_eq!(out.status.code(), Some(0), "{verb}: {}", stdout(&out));
        assert!(!out.stdout.is_empty(), "{verb} printed nothing");
    }
}

#[test]
fn platform_flag_may_come_before_or_after_the_target() {
    for verb in ["demo", "profile", "blame", "check"] {
        let quiet = ["--log-level", "quiet"];
        let after = run_verb(verb, &["gaussian", "--platform", "power9"], &quiet);
        let before = run_verb(verb, &["--platform", "power9", "gaussian"], &quiet);
        assert_eq!(after.status.code(), Some(0), "{verb}: {}", stdout(&after));
        assert_eq!(before.status.code(), Some(0), "{verb}: {}", stdout(&before));
        assert_eq!(
            after.stdout, before.stdout,
            "{verb}: flag order changed stdout"
        );
        if verb == "demo" {
            // The flag is honoured, not silently dropped.
            assert!(stdout(&before).contains("IBM+Volta"), "{}", stdout(&before));
            let pascal = run_verb(verb, &["gaussian"], &quiet);
            assert_ne!(pascal.stdout, before.stdout);
        }
    }
}

#[test]
fn smith_waterman_alias_resolves_for_every_target_verb() {
    for (verb, extra) in [
        ("demo", &[][..]),
        ("profile", &[]),
        ("blame", &[]),
        ("top", &["--frames", "1", "--ascii"]),
        ("check", &[]),
    ] {
        let out = run_verb(
            verb,
            &["smith-waterman"],
            &[extra, &["--log-level", "quiet"]].concat(),
        );
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{verb}: {text}");
        // The user's spelling stays the display name.
        assert!(text.contains("smith-waterman"), "{verb}: {text}");
        if verb == "check" {
            assert!(text.contains("clean"), "{text}");
        }
    }
}

/// Deeply nested replay documents and MiniCU programs are input errors
/// (exit 2, nothing on stdout, the position on stderr), never a native
/// stack overflow.
#[test]
fn deep_nesting_exits_two_with_a_position() {
    let dir = std::env::temp_dir().join("xplacer_deep_nesting");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let brackets = file("brackets.json", "[".repeat(200_000));
    let members = file("members.json", r#"{"a":"#.repeat(100_000));
    let main = |body: String| format!("int main() {{\n  int x = {body};\n  return x;\n}}\n");
    let parens = file(
        "parens.cu",
        main(format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000))),
    );
    let sum = file("sum.cu", main(format!("1{}", " + 1".repeat(99_999))));
    let cases: [(&[&str], &str); 6] = [
        (
            &["blame", "--replay", &brackets],
            "JSON parse error at byte 128",
        ),
        (
            &["top", "--replay", &brackets],
            "JSON parse error at byte 128",
        ),
        (
            &["diff", &members, &members],
            "JSON parse error at byte 640",
        ),
        (&["run", &parens], "parse error at line 2:"),
        (&["check", &parens], "parse error at line 2:"),
        (&["run", &sum], "parse error at line 2:"),
    ];
    for (args, position) in cases {
        let out = run(args);
        assert_usage_error(&out, &args.join(" "), &[position, "nesting deeper than"]);
    }
}
