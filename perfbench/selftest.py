"""Self-tests of the benchmark, at toy size (N = 10^4, 2^17-point grids).

    python3 perfbench/selftest.py

They record a toy reference, then check that every metric BENCHMARK.json
names is emitted with its unit, that a corrupted reference turns a run into
a failed operation, that traced and untraced runs write byte-identical CLI
outputs, and that the benchmark refuses to run without the sources.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def corrupt(name: str, ops: dict) -> None:
    """Change one recorded fact of the workload's reference."""
    if name == "decompose-1e5":
        ops["cli"]["invariant"]["rows"][0][1] = "fail"
    elif name == "cusps-1e6":
        ops["cli"]["at_seed"]["arcs"][0]["peak_height"] *= 1.01
    else:  # a known-false estimate turning green must count as a failure
        for row in ops["explicit-estimate-report"]["invariant"]["rows"]:
            if row[0] == "primorial-log-growth":
                row[1] = "pass"


class ToyBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-selftest-")
        cls.reference = os.path.join(cls.tmp, "toy-reference.json")
        code, _ = bench("--record", cls.reference, "--scale", "toy")
        assert code == 0, "recording the toy reference failed"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def run_toy(self, name, trace=0, seed=0, reference=None):
        code, out = bench("--workload", name, "--seed", str(seed),
                          "--seconds", "0", "--trace", str(trace),
                          "--scale", "toy", "--reference", reference or self.reference)
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        return result

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in NAMES:
                with self.subTest(workload=name, trace=trace):
                    result = self.run_toy(name, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {m: v["unit"] for m, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_other_seed_checks_only_invariants(self):
        for name in NAMES:
            with self.subTest(workload=name):
                self.assertTrue(self.run_toy(name, seed=7)["correct"])

    def test_corrupted_reference_fails_an_op(self):
        with open(self.reference) as fh:
            good = json.load(fh)
        for name in NAMES:
            with self.subTest(workload=name):
                bad = copy.deepcopy(good)
                corrupt(name, bad["workloads"][name])
                path = os.path.join(self.tmp, f"bad-{name}.json")
                with open(path, "w") as fh:
                    json.dump(bad, fh)
                result = self.run_toy(name, reference=path)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_traced_and_untraced_outputs_are_identical(self):
        for name in ("decompose-1e5", "cusps-1e6"):
            with self.subTest(workload=name):
                self.run_toy(name, trace=1)
                work = os.path.join(HERE, ".out", "work", name)
                outputs = []
                for mode in ("trace0", "trace1"):
                    with open(os.path.join(work, mode, f"{name}.json"), "rb") as fh:
                        outputs.append(fh.read())
                self.assertEqual(outputs[0], outputs[1])

    def test_refuses_without_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, out = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare, script=SPEC["command"][1])
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main()
