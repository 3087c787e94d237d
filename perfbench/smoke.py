#!/usr/bin/env python3
"""Smoke check for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny size (one block), untraced and traced.
Each run must exit 0 and print every metric of BENCHMARK.json by name with
its unit, in the readable lines and in the final JSON object, with every
answer correct and ``failed_frac`` 0.  A copy of the benchmark without the
package must exit non-zero without printing a result.  Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".bench_out" / "smoke-bare"


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload, trace, expected) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{where}: last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')} attempted={result.get('attempted')}")
    got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in expected if k in got and got[k] != expected[k]]}")
    text = {(t[0], t[2]) for t in map(str.split, lines[1:-1]) if len(t) >= 3}
    for name, unit in list(expected.items()) + [("failed_frac", "ratio")]:
        if (name, unit) not in text:
            problems.append(f"{where}: no readable line for {name} in {unit}")
    if not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
        problems.append(f"{where}: failed_frac is not 0")
    return problems


def check_bare() -> list[str]:
    """The benchmark alone, without the package, must fail without a result."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    shutil.copytree(HERE, BARE / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(BARE, "--workload", "koszul-cli", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare()
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[key]}
            found = check_run(w["name"], trace, expected)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
