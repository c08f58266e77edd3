"""Run one benchmark workload in this process and print JSON lines.

run.py starts this script with BLAS pinned to one thread.  It prints
{"ready": true} as soon as set-up is done (run.py times set-up up to that
line), then {"setup_speed": ...} from the small-array speed probe timed
right after set-up, and with --setup-only stops there.  Otherwise it runs
the warm-up ops, measures for --seconds and prints {"result": {...}} as its
last line.  Op times are reported at the speed probe's reference speed
(see workloads.SpeedProbe); the measured ones are kept under "raw".
With --trace 1 every other measured op is traced; the untraced ones give
the end-to-end figures and the result adds the per-layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracing import NullTracer, Tracer, summarize_op, totals_s  # noqa: E402
from workloads import WORKLOADS, small_probe  # noqa: E402

REFERENCE = BENCH / "reference.json"
# A one-ulp change to the normalized tokens at every step moves the checked
# outputs by about 3e-16; the float32 casts fidelity_checks.py makes in
# the block move them by 1e-11 to 3e-9, a dropped attention "to" term by
# 7e-4 or more.
REF_RTOL = 1e-12
MAX_PROBLEMS = 5
# Share of the ops' time spent in the speed probe.
PROBE_SHARE = 0.2
# Small-array probes timed right after set-up, to scale the set-up time.
SETUP_PROBES = 15
# Probes around an op whose median gives the machine's speed at that op.
PROBE_WINDOW = 9
NULL_TRACER = NullTracer()


def load_reference(workload: str, seed: int) -> list | None:
    """The stored outputs of one period, or None for another seed."""
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return None
    return [np.asarray(v, dtype=np.float64) for v in ref["outputs"][workload]]


class Checker:
    """Checks an op's output: finite, the same as the first period's output
    at that position, and within REF_RTOL of the reference where there is
    one.  Returns a description of the first problem, or None."""

    def __init__(self, period: int, reference: list | None):
        self.first: list = [None] * period
        self.reference = reference

    def problem(self, pos: int, value, others) -> str | None:
        value = np.asarray(value, dtype=np.float64)
        if not (np.isfinite(value).all() and all(np.isfinite(o).all() for o in others)):
            return "non-finite output"
        if self.first[pos] is None:
            self.first[pos] = value.copy()
        elif not np.allclose(value, self.first[pos], rtol=REF_RTOL, atol=0.0):
            return "output differs from the same op in the first period"
        if self.reference is not None and not np.allclose(
            value, self.reference[pos], rtol=REF_RTOL, atol=0.0
        ):
            return "output misses the stored reference"
        return None


class Runner:
    """Closed loop, one client: the next op starts when the last one ends."""

    def __init__(self, workload, checker: Checker):
        self.wl = workload
        self.checker = checker
        self.k = self.attempted = self.failed = 0
        self.problems: list[str] = []

    def op(self, tr) -> float:
        """Run op k; return its latency in ms.  A failed op still counts."""
        pos = self.k % self.wl.period
        if pos == 0:
            self.wl.restart()
        self.k += 1
        self.attempted += 1
        problem = None
        t0 = perf_counter()
        try:
            with tr.span("op"):
                value, others = self.wl.op(pos, tr)
        except Exception:  # any raise fails the op; the run goes on and reports it
            problem = traceback.format_exc(limit=4)
        ms = (perf_counter() - t0) * 1e3
        if problem is None:
            problem = self.checker.problem(pos, value, others)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"op {self.k - 1}: {problem}")
        return ms

    def measure(self, seconds: float, probe, tracer=None):
        """Ops until `seconds` have passed.  With a tracer, every other op is
        traced, so both kinds see the same machine load.  After an op the
        speed probe runs whenever its total time is below PROBE_SHARE of the
        ops' total, so probe samples spread over the run like the ops.

        Returns (untraced latencies ms, the number of probes run before each
        of them, traced latencies ms, span summaries of the traced ops, probe
        times ms, wall seconds of the ops alone).
        """
        untraced, positions, traced, op_spans, probes = [], [], [], [], []
        ops_s = probe_s = 0.0
        start = perf_counter()
        end = start + seconds
        while True:
            t0 = perf_counter()
            if tracer is not None and self.k % 2:
                traced.append(self.op(tracer))
                op_spans.append(summarize_op(tracer.take()))
            else:
                untraced.append(self.op(NULL_TRACER))
                positions.append(len(probes))
            t1 = perf_counter()
            ops_s += t1 - t0
            if probe_s < PROBE_SHARE * ops_s:
                probe()
                probes.append((perf_counter() - t1) * 1e3)
                probe_s += probes[-1] / 1e3
            if perf_counter() >= end:
                wall = perf_counter() - start - probe_s
                return untraced, positions, traced, op_spans, probes, wall


def median_ms(fn, n: int) -> float:
    times = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def at_reference_speed(latencies, positions, probe_ms, ref_ms: float) -> np.ndarray:
    """Each latency times ref_ms / the median of the probes run nearest it,
    so a phase change within the run is followed too."""
    probes = np.asarray(probe_ms)
    h = PROBE_WINDOW // 2
    local = np.array([np.median(probes[max(0, p - h) : p + h + 1]) for p in range(len(probes) + 1)])
    return np.asarray(latencies) * ref_ms / local[np.asarray(positions)]


def layer_metrics(op_spans, untraced_ms, traced_ms, setup_spans, counts) -> dict:
    """Per-op medians of each layer's span time, plus the derived ratios."""
    names = sorted({name for _, layers, _ in op_spans for name in layers})
    med = statistics.median
    out = {
        f"{name}_ms": med(layers.get(name, 0.0) for _, layers, _ in op_spans)
        for name in names
    }
    out["core.energy_share"] = med(
        layers.get("core.total_energy", 0.0) / op_ms for op_ms, layers, _ in op_spans
    )
    out["trace.span_coverage"] = med(cov for _, _, cov in op_spans)
    out["trace.overhead_ratio"] = med(traced_ms) / med(untraced_ms)
    out.update({f"{name}_s": s for name, s in setup_spans.items()})
    out.update(counts)
    return out


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, where it is a wheel's."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()


def git_commit() -> str | None:
    """HEAD of the checkout read from .git; None where there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tr = Tracer() if args.trace else NULL_TRACER
    wl = WORKLOADS[args.workload](args.seed, tr)
    print(json.dumps({"ready": True}), flush=True)
    setup_probe = small_probe()
    speed = setup_probe.ref_ms / median_ms(setup_probe, SETUP_PROBES)
    print(json.dumps({"setup_speed": speed}), flush=True)
    if args.setup_only:
        return 0

    setup_spans = totals_s(tr.take()) if args.trace else {}
    runner = Runner(wl, Checker(wl.period, load_reference(wl.name, args.seed)))
    probe = wl.probe()
    for _ in range(wl.warmup):
        runner.op(NULL_TRACER)
        probe()
    latencies, positions, traced_ms, op_spans, probe_ms, wall = runner.measure(
        args.seconds, probe, tr if args.trace else None
    )
    layers = {}
    if args.trace:
        layers = layer_metrics(op_spans, latencies, traced_ms, setup_spans, wl.counts())

    # Op times at the probe's reference speed; the raw ones are kept too.
    probe_p50 = statistics.median(probe_ms)
    scaled = at_reference_speed(latencies, positions, probe_ms, probe.ref_ms)
    raw = {
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": float(np.percentile(latencies, 90)),
        "ops_per_s": (len(latencies) + len(traced_ms)) / wall,
    }
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "warmup_ops": wl.warmup,
        "scored_ops": len(latencies),
        "traced_ops": len(traced_ms),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "reference_checked": runner.checker.reference is not None,
        "op_ms_p50": float(np.median(scaled)),
        "op_ms_p90": float(np.percentile(scaled, 90)),
        "ops_per_s": raw["ops_per_s"] * sum(latencies) / scaled.sum(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": raw,
        "probe": {"name": probe.name, "ref_ms": probe.ref_ms, "ms_p50": probe_p50,
                  "samples": len(probe_ms)},
        "layers": layers,
        "env": environment(),
    }
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
