#!/usr/bin/env python3
"""Builds afs_loadbench from this checkout's sources and runs one workload.

    python3 loadbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 loadbench/run.py --quick     # every workload, a few seconds each, all checks

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout root; the
store files of a run live there too and are removed afterwards. The last line of stdout is
the run's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found: %s/src is missing" % ROOT)
        sys.exit(2)
    out = os.path.join(build_dir(), "loadbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "afs_loadbench", "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(out, "afs_loadbench")


def run_one(binary, workload, seed, seconds, trace, setups=None):
    store = os.path.join(build_dir(), "store-%d" % os.getpid())
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--store", store]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return proc.returncode, proc.stdout


def quick(binary):
    """Smoke test: every workload, both modes, every check; metrics match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_one(binary, w["name"], 1, 2, trace, setups=1)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else None
            want = {m["name"] for m in spec[key]}
            if (result is None or not result["correct"] or result["failed"] != 0
                    or set(result["metrics"]) != want):
                ok = False
                log("FAIL %s trace=%d: exit %d, %s" % (w["name"], trace, code,
                                                     lines[-1] if lines else "no output"))
                continue
            if trace == 0:
                shown = ", ".join("%s %.4g %s" % (k, v["value"], v["unit"])
                                  for k, v in result["metrics"].items())
                print("%-22s attempted %d failed %d | %s" % (
                    w["name"], result["attempted"], result["failed"], shown))
            else:
                m = result["metrics"]
                print("%-22s traced: ledger coverage %.3f, overlap %.3f, tracing overhead %.3f" % (
                    w["name"], m["ledger.coverage"]["value"], m["ledger.overlap_share"]["value"],
                    m["trace.overhead_share"]["value"]))
    print("quick: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.quick:
        return quick(binary)
    code, out = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
