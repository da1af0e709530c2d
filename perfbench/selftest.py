#!/usr/bin/env python3
"""Toy-scale self-test of the repository benchmark (N=200, a few seconds).

    python3 perfbench/selftest.py

Checks, through perfbench/run.py exactly as the benchmark is invoked:
  1. every workload emits all end-to-end metrics of BENCHMARK.json, with
     their units, and the traced run all per-layer metrics;
  2. the deterministic metrics (msgs_per_op.*, sim_p99_ticks.*) and the
     failed/unsupported counts repeat exactly for the same seed and change
     for another seed;
  3. a deliberately corrupted answer (--corrupt) trips the correctness gate:
     non-zero exit and "correct": false;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exit status 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--n", "200"]
SECONDS = "2"
DETERMINISTIC = ("msgs_per_op.", "sim_p99_ticks.")

failures = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def run(workload, seed, trace=0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)] + TOY + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, cwd=cwd)
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    return proc.returncode, lines


def fingerprint(lines):
    """The values that must repeat exactly for a seed."""
    result = lines[-1]
    detail = next(l["detail"] for l in lines if "detail" in l)
    metrics = {k: v["value"] for k, v in result["metrics"].items()
               if k.startswith(DETERMINISTIC)}
    counts = {b: (v["failed"], v["unsupported"], v["skipped"])
              for b, v in detail["backends"].items()}
    return metrics, counts, result["failed"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in [x["name"] for x in spec["workloads"]]:
        rc, a = run(w, 7)
        check(rc == 0 and a and a[-1]["correct"], "%s runs correct" % w)
        if rc != 0 or not a:
            continue
        got = {k: v["unit"] for k, v in a[-1]["metrics"].items()}
        check(got == e2e, "%s emits every end-to-end metric with its unit"
              % w)
        rc, b = run(w, 7)
        check(rc == 0 and fingerprint(a) == fingerprint(b),
              "%s deterministic metrics repeat for the same seed" % w)
        rc, c = run(w, 8)
        check(rc == 0 and fingerprint(a)[0] != fingerprint(c)[0],
              "%s deterministic metrics change with the seed" % w)
        rc, t = run(w, 7, trace=1)
        got = {k: v["unit"] for k, v in t[-1]["metrics"].items()} if t else {}
        check(rc == 0 and got == layer,
              "%s traced run emits every per-layer metric" % w)
        rc, x = run(w, 7, extra=["--corrupt"])
        check(rc != 0 and x and not x[-1]["correct"],
              "%s corrupted answer trips the correctness gate" % w)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run("ingest", 7, cwd=bare)
    check(rc != 0 and not lines,
          "without the simulator sources it exits non-zero, printing "
          "no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("\n%d check(s) failed" % len(failures) if failures
          else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
