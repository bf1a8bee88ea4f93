"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

The last two classes build the release binaries and run every workload
briefly, so the whole file takes a few minutes.
"""

import json
import re
import resource
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def driver(*args, cwd=ROOT):
    """Run `run.py`; returns (exit code, parsed last stdout line or None)."""
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


class Names(unittest.TestCase):
    def test_metric_and_workload_names(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_workloads_match_the_driver(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.SETUPS))


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.minicu_sources(5), inputs.minicu_sources(5))
        self.assertEqual(inputs.optimize_program(5), inputs.optimize_program(5))

    def test_other_seed_other_inputs_of_similar_size(self):
        a, b = inputs.minicu_sources(run.DEFAULT_SEED), inputs.minicu_sources(run.HELD_OUT_SEED)
        self.assertNotEqual(a, b)
        self.assertEqual(len(a), len(b))
        for (name_a, _, exit_a), (name_b, _, exit_b) in zip(a, b):
            self.assertEqual(exit_a, exit_b)
            for x, y in zip(re.findall(r"\d+", name_a.split("_", 1)[-1]),
                            re.findall(r"\d+", name_b.split("_", 1)[-1])):
                self.assertLess(abs(int(x) - int(y)) / int(x), 0.05, (name_a, name_b))


class Reference(unittest.TestCase):
    def test_reference_chunk_checks_its_result_at_every_width(self):
        for width in (1, 2):
            self.assertGreater(run.reference_chunk(width), 0)


class PeakRss(unittest.TestCase):
    """`perfbench-rss` passes the session through and reads its own peak."""

    def test_reads_the_session_not_the_driver(self):
        xbin, _, rss_bin = run.build()
        out = ROOT / ".bench_work" / "rss-test"
        out.parent.mkdir(exist_ok=True)
        for argv in (["platforms"], ["no-such-verb"]):
            with self.subTest(argv=argv):
                direct = run.spawn([str(xbin)] + argv)
                wrapped = run.spawn([str(rss_bin), str(out), str(xbin)] + argv)
                self.assertEqual((wrapped.code, wrapped.out), (direct.code, direct.out))
                kb = int(out.read_text())
                out.unlink()
                self.assertGreater(kb, 0)
                self.assertLess(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class Driver(unittest.TestCase):
    """Every workload reports every metric, and the output parses."""

    def check_result(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in wanted}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_runs(self):
        for w in run.SETUPS:
            with self.subTest(workload=w):
                code, result, err = driver("--workload", w, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.assertEqual(code, 0, err)
                self.check_result(result, BENCH["end_to_end"])

    def test_traced_run(self):
        code, result, err = driver("--workload", "replay", "--seed", "3", "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0, err)
        self.check_result(result, BENCH["per_layer"])

    def test_fails_without_the_repository(self):
        bare = ROOT / ".bench_work" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, result, _ = driver("--workload", "live", "--seed", "1", "--seconds", "1", "--trace", "0",
                                     cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
