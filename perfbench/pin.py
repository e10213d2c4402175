#!/usr/bin/env python3
"""Re-pin perfbench/pins.json from the current build's outputs.

    python3 perfbench/pin.py [--jobs 3]

Run only when a change is meant to alter simulation results or the
DSE report. Records, for each pinned seed, the digest of every
cell-sweep cell's numeric SimResult fields, and the digest of the
fixed dse exploration's report. Uses the driver run.py built.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(0, 21)) + [2018]


def driver_json(driver, args):
    out = subprocess.run([driver] + args, check=True, capture_output=True,
                         text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if res.get("failed"):
        sys.exit("pin: %s failed: %s" % (args, res["failures"]))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--jobs", type=int, default=3)
    args = ap.parse_args()
    driver = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"),
                          "perfbench", "perfbench_driver")
    if not os.path.exists(driver):
        sys.exit("pin: build the driver first (python3 perfbench/run.py "
                 "--workload dse-search)")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(driver)) as tmp:
        def sweep(seed):
            return driver_json(driver, [
                "run", "cell-sweep", "--dir", os.path.join(tmp, str(seed)),
                "--seed", str(seed), "--seconds", "0.001"])["digests"]

        with ThreadPoolExecutor(args.jobs) as pool:
            cells = dict(zip(map(str, SEEDS), pool.map(sweep, SEEDS)))
        report = driver_json(driver, ["run", "dse-search", "--dir",
                                      os.path.join(tmp, "dse"),
                                      "--seconds", "0.001"])
    pins = {"cell-sweep": cells, "dse-report": report["digests"]["report"]}
    with open(os.path.join(HERE, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
