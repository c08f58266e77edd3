"""Benchmark of the energy-transformer package.

    python3 bench/run.py --workload image-train --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each run starts bench/worker.py with BLAS pinned to one thread: a few
times for set-up alone, then once to measure.  Times are reported at the
reference speed of a fixed numpy probe timed alongside them.  It prints a table of the
metrics with units, one {"record": ...} line with the environment and the
sample counts, and last the result line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 its per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
PINNED_BLAS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up-only processes per untraced run; setup_s is the median over them
# and the measuring process.
N_SETUP = 5
# A run must end within 180 s; stop waiting for workers before that.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A worker failed or ran out of time; the run prints no result."""


def unit_of(name: str, declared: dict[str, str]) -> str:
    if name in declared:
        return declared[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MiB")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def start_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
                 deadline: float):
    """Start a worker; return it and the seconds until it reported ready."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_BLAS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if not line.startswith(b'{"ready"'):
            raise BenchError(f"{workload} worker did not finish set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s


def finish_worker(proc, deadline: float) -> bytes:
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Set-up samples (untraced runs only), then the measuring worker.

    Each set-up sample is scaled, like the op times, to the reference speed
    of the small-array probe, timed in the same process right after set-up.
    """
    setup, speed = [], []
    for setup_only in [True] * (0 if trace else N_SETUP) + [False]:
        proc, s = start_worker(workload, seed, seconds, trace, setup_only, deadline)
        lines = finish_worker(proc, deadline).decode().strip().splitlines()
        setup.append(s)
        speed.append(json.loads(lines[0])["setup_speed"])
    result = json.loads(lines[-1])["result"]
    result["setup_samples_s"] = setup
    result["setup_speed"] = speed
    return result


def end_to_end(r: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(
            s * v for s, v in zip(r["setup_samples_s"], r["setup_speed"])
        ),
        "op_ms_p50": r["op_ms_p50"],
        "op_ms_p90": r["op_ms_p90"],
        "ops_per_s": r["ops_per_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "fail_ratio": r["failed"] / r["attempted"],
    }


def reported(r: dict, trace: int, spec: dict, every: bool) -> dict[str, float]:
    """The BENCHMARK.json metrics of this mode by name; with `every`, the
    end-to-end ones it leaves out (fail_ratio, never 0 at a good commit)."""
    if not trace:
        values = end_to_end(r)
        return values if every else {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in r["layers"]:
            out[name] = r["layers"][name]
        elif name.endswith(("_ms", "_s")):
            out[name] = 0.0  # this workload never calls the layer
        else:
            raise BenchError(f"worker reported no {name}")
    return out


def print_table(r: dict, trace: int, units: dict[str, str]) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  trace {trace}  "
          f"scored ops {r['scored_ops']}  warm-up ops {r['warmup_ops']}  "
          f"attempted {r['attempted']}  failed {r['failed']}")
    values = r["layers"] if trace else end_to_end(r)
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {unit_of(name, units)}")
    if not trace:
        raw, probe = r["raw"], r["probe"]
        print(f"  measured, not scaled: op_ms_p50 {raw['op_ms_p50']:.6g} ms, "
              f"op_ms_p90 {raw['op_ms_p90']:.6g} ms, ops_per_s {raw['ops_per_s']:.6g} 1/s; "
              f"{probe['name']} probe {probe['ms_p50']:.4g} ms, reference {probe['ref_ms']:.4g} ms")
    for problem in r["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "energy_transformer").is_dir():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = args.workload == "all"
    metrics = {}
    try:
        for w, r in results.items():
            print_table(r, args.trace, units)
            prefix = f"{w}." if every else ""
            for name, value in reported(r, args.trace, spec, every).items():
                metrics[prefix + name] = {"value": value, "unit": unit_of(name, units)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": results}))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
