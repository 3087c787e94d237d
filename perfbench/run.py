#!/usr/bin/env python3
"""pairstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Each
workload is a closed loop with one client: the harness asks for one exact
verdict, waits for it, then asks for the next, timing each instance from
outside the package.  Instances run in whole blocks of fixed composition
until ``--seconds`` have passed.  Every answer is checked afterwards,
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
set of blocks repeatedly, alternating an untraced pass and a traced pass,
and reports the per-layer metrics of the traced passes plus the tracing
overhead (traced time over untraced time, minus one).  Spans are written to
``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the run
record and the metrics in readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 30
END_TO_END = (
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _load():
    """Import the package and the workloads; exit with an error if there is
    no package."""
    if not (SRC / "pairstab" / "__init__.py").is_file():
        sys.exit(f"run.py: no package at {SRC / 'pairstab'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import pairstab  # noqa: F401
    import pairstab.cli  # noqa: F401
    import workloads

    return workloads


def setup_probe(name: str, seed: int) -> None:
    """Fresh-interpreter set-up: import, generate inputs, build them."""
    t0 = time.perf_counter()
    workloads = _load()
    workloads.WORKLOADS[name](seed)
    print(time.perf_counter() - t0)


def measure_setup(name: str, seed: int) -> float:
    """One set-up probe in a fresh interpreter; the parent waits for it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_block(w, block) -> list[tuple]:
    """Answer each instance of the block in turn: (instance, output, error,
    wall seconds) per instance."""
    clock = time.perf_counter
    records = []
    for inst in block:
        t0 = clock()
        try:
            out, err = w.run(inst), None
        except Exception as e:  # an unexpected raise is a failed instance
            out, err = None, f"{type(e).__name__}: {e}"
        records.append((inst, out, err, clock() - t0))
    return records


def check_all(w, records) -> list[str]:
    failures = []
    for inst, out, err, _ in records:
        if err is None:
            try:
                err = w.check(inst, out)
            except Exception as e:
                err = f"check raised {type(e).__name__}: {e}"
        if err is not None:
            failures.append(err)
    return failures


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(w, seconds: float, tiny: bool, probe):
    # Each block's answers are checked, then dropped, before the next block
    # runs: the harness holds no growing heap of results, and the measured
    # time is the sum of instance times, which excludes the checks.  The
    # set-up probes run between blocks, spread evenly over the measured
    # time, so they sample the same stretch of host speed as the instances.
    probes = 1 if tiny else SETUP_PROBES
    setup_times = [probe()]
    lat: list[float] = []
    failures: list[str] = []
    loop_s = 0.0
    i = 0
    while True:
        records = run_block(w, w.blocks[i % len(w.blocks)])
        failures += check_all(w, records)
        lat += [r[3] * 1e3 for r in records]
        loop_s += sum(r[3] for r in records)
        i += 1
        while len(setup_times) < probes and loop_s >= len(setup_times) * seconds / probes:
            setup_times.append(probe())
        if tiny or loop_s >= seconds:
            break
    lat.sort()
    n = len(lat)
    if n >= 2:
        cuts = statistics.quantiles(lat, n=100, method="inclusive")
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = lat[0]
    values = {
        "instances_per_s": n / loop_s,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "blocks": i,
        "instances": n,
        "measured_s": loop_s,
        "latency_samples": n,
        "beyond_p50": sum(1 for x in lat if x > p50),
        "beyond_p99": sum(1 for x in lat if x > p99),
        "setup_probes": len(setup_times),
        "setup_samples_s": setup_times,
    }
    return values, record, n, failures


def traced(w, seconds: float, tiny: bool, spans_path: Path):
    import tracing

    blocks = w.blocks[: 1 if tiny else w.trace_blocks]
    tracer = tracing.Tracer()
    failures: list[str] = []
    attempted = 0
    plain_s = traced_s = 0.0
    passes = 0

    def one_pass(traced: bool) -> float:
        nonlocal attempted
        if traced:
            tracer.install()
        try:
            records = [r for b in blocks for r in run_block(w, b)]
        finally:
            tracer.uninstall()
        failures.extend(check_all(w, records))
        attempted += len(records)
        return sum(r[3] for r in records)

    # an untimed pass first, so lazily built caches favour neither side
    one_pass(False)
    while True:
        # alternate which pass goes first, so drift favours neither side
        for traced_pass in ((False, True) if passes % 2 == 0 else (True, False)):
            if traced_pass:
                traced_s += one_pass(True)
            else:
                plain_s += one_pass(False)
        passes += 1
        if tiny or plain_s + traced_s >= seconds:
            break
    values = {name: m["value"] for name, m in tracing.layer_metrics(tracer.spans, passes).items()}
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_path)
    record = {
        "trace_blocks": len(blocks),
        "instances_per_pass": sum(len(b) for b in blocks),
        "passes": passes,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, record, attempted, failures


def units(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END)
    import tracing

    return dict(tracing.metric_names()) | {"trace.overhead_frac": "ratio"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="measured time (required); BENCHMARK.json fixes it as run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one block, one set-up probe (the smoke check's size)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds is None:
        ap.error("--seconds is required")
    workloads = _load()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    w = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        values, record, attempted, failures = traced(w, args.seconds, args.tiny, spans_path)
    else:
        values, record, attempted, failures = end_to_end(
            w, args.seconds, args.tiny, lambda: measure_setup(args.workload, args.seed))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **record,
    }
    print("record " + json.dumps(record, sort_keys=True))
    unit = units(bool(args.trace))
    for name, value in values.items():
        print(f"{name:42s} {value:14.6g} {unit[name]}")
    print(f"{'failed_frac':42s} {len(failures) / attempted:14.6g} ratio"
          f"  ({len(failures)} of {attempted})")
    for msg in failures[:10]:
        print("FAILED " + msg)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
