#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that
  1. every metric BENCHMARK.json names is emitted, with its unit, on
     every workload, and is labelled in perfbench/metrics.json;
  2. every S and count metric repeats bit-for-bit across two runs;
  3. cell-sweep's traced sim self time covers at least 95% of the
     untraced cell time;
  4. the guards hold: --jobs above nproc is refused without a result,
     and so is a directory holding only BENCHMARK.json and perfbench/.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cell-sweep", "dse-search")


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(workload, trace):
    r = run(["--workload", workload, "--seed", "7", "--seconds", "0.2",
             "--trace", str(trace), "--tiny"])
    if r.returncode != 0:
        fail("%s trace %d exited %d:\n%s" % (workload, trace, r.returncode,
                                             r.stderr[-2000:]))
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(res))
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        fail("%s trace %d incorrect: %s" % (workload, trace, r.stderr))
    return res["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        labels = json.load(f)

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for m in spec[kind]:
            if m["name"] not in labels[kind]:
                fail("%s has no label in metrics.json" % m["name"])
        exact = [m["name"] for m in spec[kind]
                 if labels[kind][m["name"]]["kind"] in ("S", "count")]
        for wl in WORKLOADS:
            a, b = result(wl, trace), result(wl, trace)
            for m in spec[kind]:
                got = a.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail("%s: %s missing or not in %s" % (wl, m["name"],
                                                          m["unit"]))
            for name in exact:
                if a[name]["value"] != b[name]["value"]:
                    fail("%s: exact metric %s differs: %r vs %r" % (
                        wl, name, a[name]["value"], b[name]["value"]))
            if wl == "cell-sweep" and trace:
                share = a["sim.self_share"]["value"]
                if share < 0.95:
                    fail("sim self time covers %.3f of cell time" % share)
            print("selftest: %s trace %d ok (%d metrics, %d exact)" % (
                wl, trace, len(spec[kind]), len(exact)))

    r = run(["--workload", "dse-search", "--tiny", "--jobs",
             str((os.cpu_count() or 1) + 1)])
    if r.returncode == 0 or r.stdout.strip():
        fail("--jobs above nproc was not refused")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        r = run(["--workload", "cell-sweep"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    if r.returncode == 0 or r.stdout.strip():
        fail("a bare benchmark directory was not refused")
    print("selftest: guards ok")


if __name__ == "__main__":
    main()
