#!/usr/bin/env python3
"""Repository benchmark for the LTRF reproduction.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cell-sweep --seed 2018 \
        --seconds 10 --trace 0

Builds perfbench_driver (and the library under it) from the checkout
into .bench_build/, sets the workload up several times, runs it, checks
its outputs, and prints one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (a separate pass with spans; the span file lands in
.bench_build/perfbench-traces/). Each result, with the machine and
build it was measured on, is also written to
.bench_build/perfbench-results/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cell-sweep", "dse-search")
# Set-ups per run, before and after the measured run; set-up time is
# their median. A set-up is a fresh driver process that builds the
# suite and simulates sixteen warm-up cells (about 0.8 s). The host
# moves between two speed levels 40% apart for seconds at a time, so
# set-ups bunched before the run all caught one level or the other,
# and their median moved by 30% from run to run.
SETUPS_BEFORE, SETUPS_AFTER = 3, 3


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(build_root):
    """Configure once, then build the driver; return its path."""
    bdir = os.path.join(build_root, "perfbench")
    try:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "--target",
                        "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)
    return os.path.join(bdir, "perfbench_driver")


def run_driver(cmd):
    """Run the driver; return (parsed last stdout line, peak RSS KB)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if p.returncode is None:
            p.kill()
            p.wait()
    if p.returncode != 0:
        die("driver %s exited with %d" % (" ".join(cmd[1:3]),
                                          p.returncode), 3)
    lines = out.decode().strip().splitlines()
    if not lines:
        die("driver printed no result", 3)
    return json.loads(lines[-1]), usage.ru_maxrss


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="explorer threads (default: nproc)")
    ap.add_argument("--tiny", action="store_true",
                    help="a small cell set, for the self-test")
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(bench_json)):
        die("%s is not an LTRF checkout (needs CMakeLists.txt, src/ "
            "and BENCHMARK.json)" % ROOT)
    spec = load_json(bench_json)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    driver = build(build_root)
    work = os.path.join(build_root, "perfbench-work",
                        "%s-%d" % (args.workload, os.getpid()))
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.jobs:
        common += ["--jobs", str(args.jobs)]
    if args.tiny:
        common.append("--tiny")

    setup_s, peak_kb = [], 0

    def setup(d):
        """One timed set-up: process start, suite build, warm-up."""
        nonlocal peak_kb
        t0 = time.perf_counter()
        _, kb = run_driver([driver, "setup", args.workload, "--dir", d]
                           + common)
        setup_s.append(time.perf_counter() - t0)
        peak_kb = max(peak_kb, kb)

    try:
        # The run uses the directory of the last set-up before it.
        for i in range(1 if args.trace else SETUPS_BEFORE):
            d = os.path.join(work, "setup-%d" % i)
            setup(d)

        trace_path = os.path.join(
            build_root, "perfbench-traces",
            "%s-seed%d.json" % (args.workload, args.seed))
        cmd = [driver, "run", args.workload, "--dir", d,
               "--trace", str(args.trace)] + common
        if args.trace:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            cmd += ["--trace-out", trace_path]
        raw, kb = run_driver(cmd)
        peak_kb = max(peak_kb, kb)
        for i in range(0 if args.trace else SETUPS_AFTER):
            setup(os.path.join(work, "setup-after-%d" % i))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    failures = list(raw["failures"])

    def check(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    # Pinned digests of this commit's outputs.
    if not args.tiny:
        pins = load_json(os.path.join(HERE, "pins.json"))
        if args.workload == "cell-sweep":
            pinned = pins["cell-sweep"].get(str(args.seed))
            if pinned is not None:
                for cell, d in raw["digests"].items():
                    check(pinned.get(cell) == d,
                          "cell %s differs from its pinned digest" % cell)
        else:
            check(raw["digests"]["report"] == pins["dse-report"],
                  "exploration report differs from its pinned digest")

    metrics = dict(raw["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_s),
                              "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die("metric %s missing or not in %s" % (m["name"], m["unit"]))
        out[m["name"]] = got

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": raw["machine"],
              "setup_runs_s": setup_s, "failures": failures,
              "samples": raw["extra"], "metrics": out}
    rdir = os.path.join(build_root, "perfbench-results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=2)
    print("perfbench: machine %s" % json.dumps(raw["machine"]),
          file=sys.stderr)
    for what in failures:
        print("perfbench: FAILED: " + what, file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
