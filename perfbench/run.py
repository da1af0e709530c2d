#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench/perfbench.cc) is compiled together with the
simulator sources under src/ into .bench_build/perfbench (Release), then run
once. Its standard output is passed through; the last line is the JSON
result. Before printing anything, this wrapper checks that the result names
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1), with the same units.

Exit status: 0 when the run completed and every correctness check passed;
1 when a check failed (the result line, with "correct": false, is still
printed); 2 when the simulator sources are missing or do not build; 3 when
the result does not match BENCHMARK.json. Extra flags (--n, --corrupt) are passed to the program; the
self-test uses them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "overlay", "overlay.h")):
        sys.stderr.write("perfbench: simulator sources not found under %s\n"
                         % os.path.join(ROOT, "src"))
        sys.exit(2)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    """{name: unit} for the mode, from BENCHMARK.json (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "lookup_zipf", "churn_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    spans = os.path.join(out, "out")
    os.makedirs(spans, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", spans] + extra,
        stdout=subprocess.PIPE, universal_newlines=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        # Status 1 is a failed correctness check: its result line (with
        # "correct": false) is still printed. Anything else is a crash.
        (sys.stdout if proc.returncode == 1 else sys.stderr).write(
            proc.stdout)
        sys.stderr.write("perfbench: exited with status %d\n"
                         % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1

    want = expected_metrics(args.trace == 1)
    try:
        got = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: no result line\n")
        return 3
    if want is not None:
        have = {k: v["unit"] for k, v in got.items()}
        if have != want:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(
                "perfbench: metrics differ from BENCHMARK.json: missing %s, "
                "unexpected %s, unit mismatches %s\n" % (
                    sorted(set(want) - set(have)),
                    sorted(set(have) - set(want)),
                    sorted(k for k in want if k in have
                           and want[k] != have[k])))
            return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
