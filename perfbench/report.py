#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs perfbench/run.py on several seeds per workload (or re-reads the raw
results of an earlier invocation) and prints, per workload and end-to-end
metric, the median, quartiles, min and max across runs, and the quartile
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json. A
metric whose spread exceeds its bound is named as NOT HELD; one above a
third of its bound is marked "> bound/3". setup_s is listed but, like the
acceptance rule, held only to its median. Each run's steadiness evidence
(thread-CPU / wall per backend window, 1-minute load average) is
summarised, and with --traced one traced run per workload states the
tracing overhead (traced ops/s against the untraced median).

  python3 perfbench/report.py --runs 10 --raw .bench_build/steady.jsonl
  python3 perfbench/report.py --from .bench_build/steady.jsonl
  python3 perfbench/report.py --compare A.jsonl B.jsonl   # median drift
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    """Returns (result, detail) dicts of one run, or raises on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, universal_newlines=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    lines = [json.loads(l) for l in proc.stdout.splitlines()
             if l.startswith("{")]
    detail = next(l["detail"] for l in lines if "detail" in l)
    return lines[-1], detail


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records, spec, out):
    """Writes the per-workload tables; returns the names that did not hold."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failing = []
    for w in [x["name"] for x in spec["workloads"]]:
        runs = [r for r in records if r["workload"] == w and r["trace"] == 0]
        if not runs:
            continue
        out.write("\n## %s (%d runs, seeds %s)\n\n" % (
            w, len(runs), ",".join(str(r["seed"]) for r in runs)))
        out.write("| metric | unit | median | Q1 | Q3 | min | max | "
                  "spread | bound | status |\n")
        out.write("|---|---|---|---|---|---|---|---|---|---|\n")
        for name in [m["name"] for m in spec["end_to_end"]]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            if name == "setup_s":
                status = "median only"
            elif spread > bound:
                status = "NOT HELD"
                failing.append("%s/%s" % (w, name))
            elif spread > bound / 3:
                status = "> bound/3"
            else:
                status = "ok"
            out.write("| %s | %s | %.6g | %.6g | %.6g | %.6g | %.6g | "
                      "%.4f | %.2f | %s |\n" % (
                          name, units[name], med, q1, q3, min(vals),
                          max(vals), spread, bound, status))
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        out.write("\nAll runs correct: %s. Ops attempted %d, failed %d.\n"
                  % (correct, attempted, failed))
        out.write("\n| backend | ops/run | failed | unsupported | window s "
                  "(median) | CPU/wall min | load avg range |\n")
        out.write("|---|---|---|---|---|---|---|\n")
        for b in runs[0]["detail"]["backends"]:
            per = [r["detail"]["backends"][b] for r in runs]
            out.write("| %s | %d | %d | %d | %.3f | %.3f | %.2f-%.2f |\n" % (
                b, per[0]["ops"], sum(p["failed"] for p in per),
                sum(p["unsupported"] for p in per),
                statistics.median(p["window_s"] for p in per),
                min(p["cpu_over_wall"] for p in per),
                min(p["loadavg_lo"] for p in per),
                max(p["loadavg_hi"] for p in per)))
        traced = [r for r in records if r["workload"] == w and r["trace"] == 1]
        for t in traced:
            out.write("\nTraced run (seed %d): tracing overhead per backend, "
                      "traced ops/s vs untraced median:\n\n" % t["seed"])
            for b in runs[0]["detail"]["backends"]:
                untraced = statistics.median(
                    r["result"]["metrics"]["ops_per_s." + b]["value"]
                    for r in runs)
                tr = t["result"]["metrics"]["traced.ops_per_s." + b]["value"]
                out.write("- %s: %.6g vs %.6g ops/s (%+.1f%%)\n" % (
                    b, tr, untraced, 100.0 * (tr - untraced) / untraced))
    return failing


def compare(a, b, spec, out):
    """Median drift of B against A per workload and metric, vs bound."""
    worse = []
    out.write("| workload | metric | median A | median B | drift | bound |\n")
    out.write("|---|---|---|---|---|---|\n")
    for m in spec["end_to_end"]:
        for w in [x["name"] for x in spec["workloads"]]:
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a
                  if r["workload"] == w and r["trace"] == 0]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b
                  if r["workload"] == w and r["trace"] == 0]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            drift = (mb - ma) / ma if ma else 0.0
            bad = drift < -m["bound"] if m["better"] == "higher" \
                else drift > m["bound"]
            if bad:
                worse.append("%s/%s" % (w, m["name"]))
            out.write("| %s | %s | %.6g | %.6g | %+.4f | %.2f%s |\n" % (
                w, m["name"], ma, mb, drift, m["bound"],
                " WORSE" if bad else ""))
    return worse


def read_raw(path):
    with open(path) as fh:
        return [json.loads(l) for l in fh if l.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="",
                    help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1,
                    help="first seed; run i uses seed0 + i")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per workload")
    ap.add_argument("--raw", help="append every run's record to this file")
    ap.add_argument("--from", dest="from_", help="report on a raw file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        worse = compare(read_raw(args.compare[0]), read_raw(args.compare[1]),
                        spec, sys.stdout)
        print("\nworse than bound: %s" % (", ".join(worse) or "none"))
        return 1 if worse else 0

    if args.from_:
        records = read_raw(args.from_)
    else:
        workloads = [w for w in args.workloads.split(",") if w] or \
            [w["name"] for w in spec["workloads"]]
        records = []
        raw = open(args.raw, "a") if args.raw else None
        plan = [(w, args.seed0 + i, 0) for i in range(args.runs)
                for w in workloads]
        if args.traced:
            plan += [(w, args.seed0, 1) for w in workloads]
        for w, seed, trace in plan:
            result, detail = run_once(w, seed, spec["run_seconds"], trace)
            rec = {"workload": w, "seed": seed, "trace": trace,
                   "result": result, "detail": detail}
            records.append(rec)
            sys.stderr.write("done %s seed %d trace %d\n" % (w, seed, trace))
            if raw:
                raw.write(json.dumps(rec) + "\n")
                raw.flush()
    failing = summarize(records, spec, sys.stdout)
    print("\nMetrics that did not hold: %s" % (", ".join(failing) or "none"))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
