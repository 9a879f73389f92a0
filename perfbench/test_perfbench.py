#!/usr/bin/env python3
"""Self-tests of the PACTree benchmark, at a reduced key count.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py

- A deliberately wrong expectation must be counted as a failed operation and
  turn the result incorrect, on every workload.
- The exact-count replay (one client, fixed op count) must print identical
  counts on two runs of every workload.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup-zipf-int", "scan-insert-str", "mget-value")
SMALL = ["--keys", "20000", "--rounds", "1", "--warmup", "0.1"]


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def result(workload, *extra):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", *SMALL, *extra)
    return json.loads(lines[-1])


def replay(workload):
    lines = bench("--workload", workload, "--seed", "5", "--replay", "--keys", "50000",
                  "--replay-ops", "20000")
    return [json.loads(line) for line in lines if line.startswith("{")]


class CorruptedExpectationTest(unittest.TestCase):
    def test_wrong_expectation_is_counted_as_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                clean = result(w)
                self.assertTrue(clean["correct"])
                self.assertEqual(clean["failed"], 0)
                self.assertGreater(clean["attempted"], 0)
                bad = result(w, "--corrupt", "3")
                self.assertFalse(bad["correct"])
                self.assertEqual(bad["failed"], 3)


class ExactReplayTest(unittest.TestCase):
    def test_replay_counts_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = replay(w)
                second = replay(w)
                self.assertEqual(first[-1]["failed"], 0)
                self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
