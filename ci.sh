#!/bin/sh
# Pre-PR gate: formatting, lints, release build, full test suite.
# Run from the repository root; exits non-zero on the first failure.
set -eu

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (bounded conformance smoke: 64 generated programs)"
# The differential conformance harness (tests/conformance.rs) generates
# its programs from fixed seeds, so this is deterministic; local runs
# without the variable use the fuller 256-case default.
XPLACER_CONFORMANCE_CASES=64 cargo test -q

echo "==> bench smoke + regression gate"
cargo run --release -q -p xplacer-bench --bin reproduce_all -- --smoke
cargo run --release -q -p xplacer-bench --bin bench -- compare \
    crates/bench/baselines/BENCH_smoke.json results/BENCH_smoke.json \
    --max-regress 0.10

echo "==> access-path microbench + throughput + telemetry-overhead gate"
cargo run --release -q -p xplacer-bench --bin access_path -- --smoke \
    --out results/BENCH_access_path.json
cargo run --release -q -p xplacer-bench --bin bench -- compare-access \
    crates/bench/baselines/BENCH_access_path.json results/BENCH_access_path.json \
    --max-regress 0.20

echo "==> xplacer top replay smoke + determinism"
# Record an event trace, replay the dashboard twice, and require the
# --frames/--ascii output to be byte-identical (the golden-snapshot
# contract, exercised through the real binary).
./target/release/xplacer demo lulesh --log-level quiet \
    --events-out results/top_events.json
./target/release/xplacer top --replay results/top_events.json \
    --frames 3 --ascii --log-level quiet > results/top_frames_a.txt
./target/release/xplacer top --replay results/top_events.json \
    --frames 3 --ascii --log-level quiet > results/top_frames_b.txt
cmp results/top_frames_a.txt results/top_frames_b.txt
grep -q "ping-pong" results/top_frames_a.txt

echo "==> xplacer blame golden + xplacer diff gate"
# Blame the demo-recorded trace through the real binary and byte-compare
# against the committed snapshot (the same bytes tests/blame.rs
# maintains; regenerate with XPLACER_BLESS=1).
./target/release/xplacer blame --replay results/top_events.json \
    --log-level quiet > results/blame_replay.txt
cmp results/blame_replay.txt tests/golden/blame_replay_lulesh.golden
# Hostile nesting is an input error (exit 2, empty stdout), not a native
# stack overflow: 200k `[` for the JSON codec, 20k parentheses for the
# MiniCU parser.
deep_input_exits_two() {
    set +e
    ./target/release/xplacer "$@" --log-level quiet > results/deep_stdout.txt 2>/dev/null
    code=$?
    set -e
    if [ "$code" -ne 2 ] || [ -s results/deep_stdout.txt ]; then
        echo "ci: xplacer $* exited $code on a deep input (want 2, empty stdout)" >&2
        exit 1
    fi
}
repeat() { head -c "$2" /dev/zero | tr '\0' "$1"; }
repeat '[' 200000 > results/deep_brackets.json
deep_input_exits_two blame --replay results/deep_brackets.json
{ printf 'int main() { int x = '; repeat '(' 20000; printf 1; repeat ')' 20000
  printf '; return x; }\n'; } > results/deep_parens.cu
deep_input_exits_two run results/deep_parens.cu
# Self-diff must report zero deltas and exit 0.
./target/release/xplacer diff results/top_events.json results/top_events.json \
    --log-level quiet > results/diff_self.txt
grep -q "no differences" results/diff_self.txt
# A genuinely slower "after" run must trip the nonzero-exit regression
# gate: diff a cheap pathfinder run against the expensive lulesh run.
./target/release/xplacer demo pathfinder --log-level quiet \
    --events-out results/pathfinder_events.json > /dev/null
if ./target/release/xplacer diff results/pathfinder_events.json \
    results/top_events.json --log-level quiet > results/diff_regressed.txt; then
    echo "ci: xplacer diff failed to flag a regression" >&2
    exit 1
fi
grep -q "verdict: regressed" results/diff_regressed.txt
# bench compare explains its gate with the same trace diff via --events.
cargo run --release -q -p xplacer-bench --bin bench -- compare \
    crates/bench/baselines/BENCH_smoke.json results/BENCH_smoke.json \
    --max-regress 0.10 --events results/top_events.json results/top_events.json \
    > results/bench_compare_events.txt
grep -q "no differences" results/bench_compare_events.txt

echo "==> xplacer optimize smoke + jobs-determinism + regression gate"
# The closed-loop optimizer must (a) find a plan strictly below the
# unhinted lulesh baseline, (b) produce byte-identical reports for any
# --jobs value (the ordered-merge pool contract, exercised through the
# real binary), and (c) match the committed golden and stay within the
# bench regression budget.
./target/release/xplacer optimize lulesh --jobs 2 --smoke --log-level quiet \
    --bench-out results/BENCH_optimize.json > results/optimize_j2.txt
./target/release/xplacer optimize lulesh --jobs 1 --smoke --log-level quiet \
    > results/optimize_j1.txt
./target/release/xplacer optimize lulesh --jobs 8 --smoke --log-level quiet \
    > results/optimize_j8.txt
cmp results/optimize_j1.txt results/optimize_j2.txt
cmp results/optimize_j1.txt results/optimize_j8.txt
cmp results/optimize_j2.txt tests/golden/optimize_lulesh.golden
grep -q "winner:" results/optimize_j2.txt
cargo run --release -q -p xplacer-bench --bin bench -- compare \
    crates/bench/baselines/BENCH_optimize.json results/BENCH_optimize.json \
    --max-regress 0.10

echo "==> xplacer check: buggy corpus gate + clean-workload gate"
# Every bug-injection program must exit 1 and reproduce its committed
# golden byte-for-byte through the real binary (table on stdout, then
# the --json document — the same layout tests/check.rs maintains;
# regenerate with XPLACER_BLESS=1).
for f in tests/corpus/buggy/*.cu; do
    name=$(basename "$f" .cu)
    # Run from inside the corpus dir so the report's target matches the
    # golden's bare "<name>.cu".
    if (cd tests/corpus/buggy && ../../../target/release/xplacer check \
        "$name.cu" --log-level quiet) > "results/check_$name.txt"; then
        echo "ci: xplacer check missed the defect in $name" >&2
        exit 1
    fi
    printf -- '---- json ----\n' >> "results/check_$name.txt"
    (cd tests/corpus/buggy && ../../../target/release/xplacer check \
        "$name.cu" --json --log-level quiet) \
        >> "results/check_$name.txt" 2>/dev/null || true
    cmp "results/check_$name.txt" "tests/corpus/buggy/$name.check.golden"
done
# A clean workload must exit 0 with an empty-findings report.
./target/release/xplacer check lulesh --log-level quiet \
    > results/check_lulesh.txt
grep -q "clean" results/check_lulesh.txt
# Workload aliases resolve like canonical names.
./target/release/xplacer check smith-waterman --log-level quiet \
    > results/check_smith_waterman.txt
grep -q "clean" results/check_smith_waterman.txt
# A misspelled flag is a usage error (exit 2), never silently ignored.
set +e
./target/release/xplacer demo lulesh --plaform power9 > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "ci: xplacer demo accepted a misspelled flag (exit $code)" >&2
    exit 1
fi

echo "ci: all checks passed"
