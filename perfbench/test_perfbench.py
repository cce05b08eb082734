"""Smoke test of the benchmark at toy size.

Each workload's cycle passes its gates untraced and traced, the traced
replay writes the CLI's exact bytes, the generated inputs depend only on
the seed, and the metric names match BENCHMARK.json. Run from the
repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from qcrbsat import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Spans each workload must (or must never) produce, per the workload's design.
EXPECTED_SPANS = {
    "qutrit-sweep": ({"conditions.w_search", "conditions.cond2prime", "cli.json"},
                     {"povm.construct_optimal", "fisher.outcome_distribution"}),
    "certify-ladder": ({"model.parse_numeric_model", "povm.construct_optimal", "povm.validate",
                        "numkernel.joint_eigenprojectors", "fisher.compare"},
                       {"fisher.prob_fn"}),
    "mle-study": ({"fisher.estimator_study", "fisher.prob_fn", "model.evaluate"},
                  {"model.parse_numeric_model"}),
}


def _argv_without_dir(workload, workdir):
    return [[a.replace(str(workdir), "<dir>") for a in c.argv] for c in workload.calls]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_toy_cycle_passes_gates_untraced_and_traced(name, tmp_path):
    workload = wl.build(name, 5, tmp_path, wl.TOY)
    records = [run.timed_call(c, workload.out, keep_digest=True) for c in workload.calls]
    assert [r.failures for r in records] == [[] for _ in records]

    tracer = tracing.Tracer()
    for call, rec in zip(workload.calls, records):
        rc, text = tracing.replay(call.argv, tracer)
        assert rc == 0
        assert hashlib.sha256(text.encode()).hexdigest() == rec.digest
    ran = set(tracer.summary())
    present, absent = EXPECTED_SPANS[name]
    assert present <= ran
    assert not (absent & ran)

    metrics = run.per_layer_metrics(tracer, 1, [0.1], 0.0)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_gauged_calls_carry_a_reference_unit(tmp_path):
    from reference import Gauge

    workload = wl.build("qutrit-sweep", 3, tmp_path, wl.TOY)
    gauge = Gauge(workload.name)
    records = [run.timed_call(c, workload.out, gauge=gauge) for c in workload.calls[:3]]
    assert all(not r.failures and r.unit_s > 0 for r in records)
    costs = run._by_kind(records, run._cost_ref)
    metrics = run.end_to_end_metrics(workload, costs, [0.5], run.peak_rss_mb())
    assert all(m["value"] > 0 for m in metrics.values())


def test_inputs_are_deterministic_per_seed(tmp_path):
    for name in run.WORKLOADS:
        a, b, c = (wl.build(name, seed, tmp_path / f"{name}-{i}", wl.TOY)
                   for i, seed in enumerate((7, 7, 8)))
        assert _argv_without_dir(a, tmp_path / f"{name}-0") == \
            _argv_without_dir(b, tmp_path / f"{name}-1")
        assert _argv_without_dir(a, tmp_path / f"{name}-0") != \
            _argv_without_dir(c, tmp_path / f"{name}-2")
    files = sorted(p.name for p in (tmp_path / "certify-ladder-0").glob("refute_*.json"))
    assert files
    for f in files:
        assert (tmp_path / "certify-ladder-0" / f).read_bytes() == \
            (tmp_path / "certify-ladder-1" / f).read_bytes()


@pytest.mark.parametrize("kind", sorted(wl.REFUTE_KINDS))
def test_refuted_inputs_read_not_saturable_at_benchmark_size(kind, tmp_path):
    planting, status, refuting = wl.REFUTE_KINDS[kind]
    path = tmp_path / "model.json"
    wl.write_numeric_model(path, 11, *wl.FULL.refute, **planting)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--numeric-model", str(path), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "NOT_SATURABLE"
    assert report["conditions"]["condition4"]["status"] == status
    assert report["conditions"][refuting]["passed"] is False


def test_end_to_end_metric_names_match_benchmark_json():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mle-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
