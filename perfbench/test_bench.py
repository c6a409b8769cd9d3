#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

Run from the root of a checkout:

    python3 perfbench/test_bench.py

For every workload it runs the benchmark once untraced and once traced
(one pass; detail-paper and server-mix at a small scale) and checks
that

  * every metric BENCHMARK.json names is printed with its unit and a
    finite value, and the run's own output checks passed;
  * the traced run's spans nest: each child lies inside its parent and
    every self time is >= 0;
  * the two runs print the same sim_digest.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# sampled-ckpt keeps its own scale: at a smaller one its sampled jobs
# see too few windows and fail the band checks.
SMOKE_SCALE = {"detail-paper": "0.05", "server-mix": "0.05"}
WORKLOAD_METRICS = ("setup_s", "wall_s", "sim_mips", "peak_rss_mb",
                    "fail_frac", "cgp_speedup", "srv_qpmc",
                    "srv_lat_p50_mcyc", "srv_lat_p95_mcyc",
                    "smp_cpi_err_pct", "smp_speedup")
METRIC_LINE = re.compile(
    r"^(metric|layer) (\S+) = (n/a|\S+) (\S+) \((.*)\)")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    if workload in SMOKE_SCALE:
        cmd += ["--scale", SMOKE_SCALE[workload]]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), done.returncode, done.stderr))
    lines = done.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def printed_metrics(lines):
    """name -> (value text, unit) of every metric/layer report line."""
    out = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            out[m.group(2)] = (m.group(3), m.group(4))
    return out


def digest(lines):
    for line in lines:
        if line.startswith("sim_digest "):
            return line.split()[2]
    raise AssertionError("no sim_digest line")


def spans_file(lines):
    for line in lines:
        m = re.match(r"^spans: \d+ written to (.+)$", line)
        if m:
            return m.group(1)
    raise AssertionError("no spans line")


class BenchmarkSmokeTest(unittest.TestCase):
    bench = load_benchmark()
    runs = {}

    @classmethod
    def result(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.runs:
            cls.runs[key] = run(workload, trace)
        return cls.runs[key]

    def check_json(self, result, specs):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(s["name"] for s in specs))
        for spec in specs:
            got = metrics[spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertTrue(math.isfinite(got["value"]), spec["name"])

    def check_printed(self, lines, names):
        printed = printed_metrics(lines)
        for name in names:
            self.assertIn(name, printed)
            value, unit = printed[name]
            self.assertTrue(unit, name)
            if value != "n/a":
                self.assertTrue(math.isfinite(float(value)), name)

    def check_spans(self, path):
        with open(path) as f:
            spans = json.load(f)
        self.assertTrue(spans)
        for s in spans:
            self.assertGreaterEqual(s["end"], s["start"], s)
            self.assertGreaterEqual(s["self"], 0.0, s)
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertLess(p["id"], s["id"])
                self.assertGreaterEqual(s["start"], p["start"], s)
                self.assertLessEqual(s["end"], p["end"], s)

    def check_workload(self, workload):
        lines0, res0 = self.result(workload, 0)
        lines1, res1 = self.result(workload, 1)
        self.check_json(res0, self.bench["end_to_end"])
        self.check_json(res1, self.bench["per_layer"])
        self.check_printed(lines0, WORKLOAD_METRICS)
        self.check_printed(lines1, WORKLOAD_METRICS +
                           tuple(s["name"] for s in self.bench["per_layer"]
                                 if "." in s["name"]))
        self.check_spans(spans_file(lines1))
        self.assertEqual(digest(lines0), digest(lines1))

    def test_detail_paper(self):
        self.check_workload("detail-paper")

    def test_server_mix(self):
        self.check_workload("server-mix")

    def test_sampled_ckpt(self):
        self.check_workload("sampled-ckpt")

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         ["detail-paper", "server-mix", "sampled-ckpt"])


if __name__ == "__main__":
    unittest.main()
