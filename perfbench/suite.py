#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/suite.py                      # every workload, seeds 1-10
    python3 perfbench/suite.py --trace 1 --runs 1   # per-layer metrics
    python3 perfbench/suite.py --first-seed 11      # a second set, seeds 11-20

Each run is ``perfbench/run.py`` in its own process, one after another,
for every workload of ``BENCHMARK.json`` and at its ``run_seconds``.
For every workload and metric the summary gives the median and quartiles
over runs (``statistics.quantiles(values, n=4)``), the number of runs, and
the quartile spread as a share of the median next to the bound fixed in
``BENCHMARK.json``.  The run record (Python version, nproc, git sha, seeds,
instances and latency samples per run) goes with it; ``--out`` writes
everything as JSON.  Exits 1 if any run fails or any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0].removeprefix("record ")), json.loads(lines[-1])


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the summary and run records as JSON")
    args = ap.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for name in names:
        records, results = [], []
        for seed in seeds:
            record, result = run_one(name, seed, seconds, args.trace)
            records.append(record)
            results.append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{name} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                      if not args.trace), flush=True)
        metrics = {}
        for key, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][key]["value"] for r in results])
            metrics[key] = {"unit": first["unit"], "runs": len(results), **stats}
        report["workloads"][name] = {
            "metrics": metrics,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "records": records,
        }
        print(f"\n{name}: {len(results)} runs, seeds {seeds[0]}-{seeds[-1]}")
        if not args.trace:
            lat = [r["latency_samples"] for r in records]
            beyond = [r["beyond_p99"] for r in records]
            print(f"  instances per run {min(lat)}-{max(lat)} (each one latency sample); "
                  f"samples beyond p99 {min(beyond)}-{max(beyond)}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {'failed_frac':38s} {failed / attempted:12.6g} ratio ({failed} of {attempted})")
        for key, m in metrics.items():
            bound = bounds.get(key)
            mark = "" if bound is None else (
                f"  spread {m['spread']:.3f} / bound {bound}"
                + ("  (over bound/3)" if m["spread"] > bound / 3 else ""))
            print(f"  {key:38s} {m['median']:12.6g} {m['unit']:6s} "
                  f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]{mark}")
        print(flush=True)
    first = report["workloads"][names[0]]["records"][0]
    report["python"], report["nproc"], report["git_sha"] = (
        first["python"], first["nproc"], first["git_sha"])
    print(f"python {report['python']}, nproc {report['nproc']}, git {report['git_sha']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
