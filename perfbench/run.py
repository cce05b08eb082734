#!/usr/bin/env python3
"""qcrbsat benchmark: closed-loop CLI workloads, gated outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload qutrit-sweep --seed 1 --seconds 30 --trace 0

One caller issues `qcrbsat.cli.main([...])` requests in-process, each after
the previous one returns, for ``--seconds`` seconds, and checks every
report. With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with request times in units of a fixed reference computation
(perfbench/reference.py) so that the host's drifting speed cancels; with
``--trace 1`` untraced and traced cycles alternate and it carries the
per-layer metrics (see perfbench/README.md). The line before
it holds the details: environment, named per-workload metrics, failures.
"""

import os

# One BLAS/OpenMP thread, set before anything imports numpy.
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("qutrit-sweep", "certify-ladder", "mle-study")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def use_checkout_source() -> float:
    """Import qcrbsat.cli from this checkout's src/, or stop with a nonzero exit.

    Returns the import time in seconds.
    """
    if not (SRC / "qcrbsat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qcrbsat sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = perf_counter()
    import qcrbsat.cli

    import_s = perf_counter() - t0
    if Path(qcrbsat.__file__).resolve().parent != SRC / "qcrbsat":
        raise SystemExit(f"perfbench: imported qcrbsat from {qcrbsat.__file__}, not {SRC}")
    return import_s


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed plus a warm-up, timed in fresh interpreters.
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path):
    """Build the workload's inputs and warm every code path it runs."""
    import workloads as wl

    workload = wl.build(name, seed, workdir)
    warm = wl.build(name, seed, workdir / "warm-up", wl.TOY)
    for call in first_of_each_kind(warm.calls):
        wl.run_call(call)
    return workload


def first_of_each_kind(calls) -> list:
    firsts: dict = {}
    for call in calls:
        firsts.setdefault(call.kind, call)
    return list(firsts.values())


def setup_probe(name: str, seed: int, import_s: float) -> None:
    """Child side of a set-up sample: build, warm up, report when ready."""
    workdir = OUT / f"probe-{name}-{os.getpid()}"
    try:
        setup(name, seed, workdir)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "ready": ready}))


def measure_setups(name: str, seed: int, samples: int) -> tuple:
    """Interpreter start to ready, in `samples` fresh interpreters; also import times.

    CLOCK_MONOTONIC is system-wide, so the child's ready stamp and the
    parent's start stamp share one clock.
    """
    setup_s, import_s = [], []
    for _ in range(samples):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
             "--seed", str(seed)], stdout=subprocess.PIPE, cwd=ROOT, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        setup_s.append(sample["ready"] - start)
        import_s.append(sample["import_s"])
    return setup_s, import_s


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------


@dataclass
class Record:
    kind: str
    wall_s: float
    failures: list
    unit_s: float = 0.0  # one reference unit timed around the call; 0 when not gauged
    digest: str = ""
    extra: dict = field(default_factory=dict)


def timed_call(call, out: Path, keep_digest: bool = False, gauge=None) -> Record:
    """One request, checked; with a `gauge`, timed against reference units."""
    import workloads as wl

    t0 = perf_counter()
    try:
        if gauge is None:
            rc, unit_s = wl.run_call(call), 0.0
            wall = perf_counter() - t0
        else:
            rc, wall, unit_s = gauge.measure(lambda: wl.run_call(call))
    except Exception:  # a raise is a failed request; keep the loop running
        return Record(call.kind, perf_counter() - t0, [traceback.format_exc(limit=3)])
    data = out.read_bytes()
    report = json.loads(data)
    rec = Record(call.kind, wall, call.check(rc, report), unit_s)
    if keep_digest:
        rec.digest = hashlib.sha256(data).hexdigest()
    if call.kind == "simulate" and rc == 0:
        rec.extra = wl.mle_summary(report)
    return rec


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, seconds: float) -> tuple:
    """One ungauged call of each kind, then gauged calls: the whole first
    cycle, then on until `seconds` have passed.

    Returns the records and the peak RSS before the gauge starts, which
    its SIGALRM handler would otherwise move by allocating mid-request.
    """
    from reference import Gauge

    records = [timed_call(call, workload.out) for call in first_of_each_kind(workload.calls)]
    rss_mb = peak_rss_mb()
    gauge = Gauge(workload.name)
    gauged = 0
    start = perf_counter()
    while True:
        for call in workload.calls:
            if gauged >= len(workload.calls) and perf_counter() - start >= seconds:
                return records, rss_mb
            records.append(timed_call(call, workload.out, gauge=gauge))
            gauged += 1


def run_traced(workload, seconds: float, tracer) -> tuple:
    """Alternate untraced and traced cycles of the same calls until `seconds` pass.

    Each traced request must write the same bytes as its untraced twin.
    """
    from tracing import replay

    untraced, traced_fail = [], []
    cycles, untraced_s, traced_s = 0, 0.0, 0.0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        recs = [timed_call(call, workload.out, keep_digest=True) for call in workload.calls]
        untraced += recs
        untraced_s += sum(r.wall_s for r in recs)
        before = tracer.request_seconds()
        for call, rec in zip(workload.calls, recs):
            try:
                _, text = replay(call.argv, tracer)
            except Exception:  # a raise is a failed request; keep the loop running
                traced_fail.append([traceback.format_exc(limit=3)])
                continue
            same = hashlib.sha256(text.encode()).hexdigest() == rec.digest
            traced_fail.append([] if same else [f"traced {call.kind} report differs from untraced"])
        traced_s += tracer.request_seconds() - before
        cycles += 1
    return untraced, traced_fail, cycles, untraced_s, traced_s


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _by_kind(records, value=lambda r: r.wall_s) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r.kind, []).append(value(r))
    return out


def _cost_ref(r: Record) -> float:
    """The request's wall time in reference units."""
    return r.wall_s / r.unit_s


def tail(values: list):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1 - q / 100) >= 10:
            return q, statistics.quantiles(values, n=1000)[round(q * 10) - 1]
    return None


def items_per(workload, walls: dict) -> float:
    """Items per unit of `walls` time over one cycle of the rate calls, from per-kind medians.

    qutrit-sweep counts grid points in `sweep`, certify-ladder instances
    decided over the whole ladder, mle-study MLE fits in `simulate`.
    """
    rate_calls = [c for c in workload.calls if c.kind in workload.rate_kinds]
    medians = {k: statistics.median(v) for k, v in walls.items()}
    return sum(c.items for c in rate_calls) / sum(medians[c.kind] for c in rate_calls)


END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "call_ref_p50": "ref",
                    "items_per_kref": "1/kref"}


def end_to_end_metrics(workload, costs: dict, setup_s: list, rss_mb: float) -> dict:
    """The bounded metrics; `costs` are request times in reference units."""
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
        "call_ref_p50": statistics.median(costs[workload.main_kind]),
        "items_per_kref": 1e3 * items_per(workload, costs),
    }
    return {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def named_metrics(name: str, walls: dict, sizes) -> dict:
    """The per-workload figures by their own names (reported, not gated)."""
    med = {k: statistics.median(v) for k, v in walls.items()}
    n = {k: len(v) for k, v in walls.items()}
    if name == "qutrit-sweep":
        t = tail(walls["analyze"])
        return {
            "sweep_points_per_s": {"value": sizes.grid_n ** 2 / med["sweep"], "unit": "1/s",
                                   "samples": n["sweep"]},
            "analyze_ms_p50": {"value": med["analyze"] * 1e3, "unit": "ms", "samples": n["analyze"]},
            f"analyze_ms_p{t[0]:g}" if t else "analyze_ms_tail": {
                "value": t[1] * 1e3 if t else None, "unit": "ms", "samples": n["analyze"]},
        }
    if name == "certify-ladder":
        out = {}
        for n_s, *_ in sizes.ladder[:-1]:
            k = f"fisher_n{n_s}"
            out[f"certify_n{n_s}_ms"] = {"value": med[k] * 1e3, "unit": "ms", "samples": n[k]}
        k = f"fisher_n{sizes.ladder[-1][0]}"
        out[f"certify_n{sizes.ladder[-1][0]}_s"] = {"value": med[k], "unit": "s", "samples": n[k]}
        refutes = [w for k, v in walls.items() if k.startswith("refute") for w in v]
        out[f"refute_n{sizes.refute[0]}_ms"] = {"value": statistics.median(refutes) * 1e3,
                                                "unit": "ms", "samples": len(refutes)}
        return out
    return {"mle_fits_per_s": {"value": sizes.batches / med["simulate"], "unit": "1/s",
                               "samples": n["simulate"]}}


def per_layer_metrics(tracer, cycles: int, import_s: list, overhead_pct: float) -> dict:
    from tracing import SPANS

    summary = tracer.summary()
    counts = tracer.counts
    m = {"cli.import.calls": (len(import_s), "count"),
         "cli.import.ms_p50": (statistics.median(import_s) * 1e3, "ms")}
    for span in SPANS:
        s = summary.get(span, {"durations": [], "self_s": 0.0})
        d = s["durations"]
        m[f"{span}.calls"] = (len(d) / cycles, "count")
        m[f"{span}.ms_p50"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
        m[f"{span}.self_ms"] = (s["self_s"] * 1e3 / cycles, "ms")
    yes, no, unknown = (counts[f"w_search.{s}"] for s in ("CERTIFIED_YES", "CERTIFIED_NO", "UNKNOWN"))
    constructed = max(1, counts["povm.constructed"])
    fits = counts["mle.fits"]
    m.update({
        "cli.report_bytes": (counts["cli.report_bytes"] / cycles, "bytes"),
        "conditions.w_search.certified_yes": (yes / cycles, "count"),
        "conditions.w_search.certified_no": (no / cycles, "count"),
        "conditions.w_search.unknown": (unknown / cycles, "count"),
        "conditions.w_search.decided_ratio": ((yes + no) / max(1, yes + no + unknown), "ratio"),
        "povm.outcomes": (counts["povm.outcomes"] / constructed, "count"),
        "povm.chi": (counts["povm.chi"] / constructed, "count"),
        "fisher.prob_fn.calls_per_fit": (
            len(summary.get("fisher.prob_fn", {"durations": []})["durations"]) / fits if fits else 0.0,
            "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {"name": deps[k].get("name"), "version": deps[k].get("version")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {"note": "BLAS details unavailable from this numpy"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in PINNED_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description="qcrbsat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = use_checkout_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, import_s)
        return 0

    import workloads as wl
    from tracing import Tracer

    setup_s, import_s = measure_setups(args.workload, args.seed, SETUP_SAMPLES)
    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        workload = setup(args.workload, args.seed, workdir)
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "loop": "closed, one caller", "inputs": workload.info,
                   "environment": environment(), "setup_s_samples": setup_s}
        if args.trace:
            tracer = Tracer()
            records, traced_fail, cycles, untraced_s, traced_s = run_traced(
                workload, args.seconds, tracer)
            failures = [r.failures for r in records] + traced_fail
            overhead = 100.0 * (traced_s - untraced_s) / untraced_s
            metrics = per_layer_metrics(tracer, cycles, import_s, overhead)
            trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
            tracer.dump(trace_path)
            details.update({"traced_cycles": cycles, "untraced_s": untraced_s,
                            "traced_s": traced_s, "trace_file": str(trace_path.relative_to(ROOT))})
        else:
            records, rss_mb = run_untraced(workload, args.seconds)
            failures = [r.failures for r in records]
            timed = [r for r in records if r.unit_s]  # gauged requests that returned
            walls = _by_kind(timed)
            metrics = end_to_end_metrics(workload, _by_kind(timed, _cost_ref), setup_s, rss_mb)
            details["named_metrics"] = named_metrics(args.workload, walls, wl.FULL)
            details["items_per_s"] = items_per(workload, walls)
            units = [r.unit_s * 1e3 for r in timed]
            details["ref_unit_ms"] = {"p50": statistics.median(units), "min": min(units),
                                      "max": max(units)}
            details["calls"] = {k: len(v) for k, v in walls.items()}
            mle = [r.extra for r in records if r.extra]
            if mle:
                details["mle_bound_ratio"] = {
                    "ratio_per_command": [s["ratio"] for s in mle],
                    "below_bound_any": [any(s["below_bound"][i] for s in mle) for i in range(2)],
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for f in failures if f)
    details["failed_op_ratio"] = {"value": failed / len(failures), "attempted": len(failures)}
    details["failures"] = [f for f in failures if f][:10]
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
