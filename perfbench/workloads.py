"""The three benchmark workloads: inputs made from a seed, the CLI calls of
one cycle, and the gate each call's output must pass.

Every gate derives its expected result from how the input was built
(planted or unplanted instance, the all-certifiable qutrit grid), never
from recorded output.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qcrbsat import cli, fixtures
from qcrbsat import fisher as fish
from qcrbsat.conditions import COND4_NO, COND4_YES, VERDICT_NOT, VERDICT_SATURABLE
from qcrbsat.model import evaluate, state_to_numeric_model

QUTRIT_MODEL = "qutrit-phase-mixture"
QUTRIT_PARAMS = "d=0.6,c1=1,c2=0.7"
QUTRIT_THETA0 = (0.3, 0.5)
GRID_LO, GRID_HI = 0.05, 0.95
SWEEPS_PER_CYCLE = 4
MLE_COMMANDS_PER_CYCLE = 4
# The MLE gate checks estimates against the search radius the library uses.
MLE_RADIUS = inspect.signature(fish.estimator_study).parameters["radius"].default


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads; ``FULL`` is what the benchmark runs."""

    grid_n: int = 32
    # (n_s, r_plus, n_params, instances per cycle) per rung of planted `fisher` calls
    ladder: tuple = ((32, 16, 3, 3), (64, 32, 4, 3))
    refute: tuple = (64, 32, 4)  # unplanted instances for `analyze --numeric-model`
    refutes_per_kind: int = 2
    trials: int = 200_000
    batches: int = 40


FULL = Sizes()
TOY = Sizes(grid_n=3, ladder=((8, 4, 2, 2), (12, 6, 3, 1)), refute=(12, 6, 3),
            refutes_per_kind=1, trials=20_000, batches=4)


@dataclass
class Call:
    """One closed-loop request: a CLI argv, its metric group and its gate.

    ``check(rc, report)`` returns the list of gate failures (empty when the
    output is correct); ``items`` is the work the call completes (grid
    points, instances, MLE fits).
    """

    kind: str
    argv: list
    check: Callable[[int, dict], list]
    items: int = 1


@dataclass
class Workload:
    name: str
    calls: list  # one cycle of Calls, replayed in order
    out: Path  # every call writes its report here
    main_kind: str  # the per-item call whose median is `call_ref_p50`
    rate_kinds: tuple  # the calls whose items make `items_per_kref`
    info: dict = field(default_factory=dict)


def _argv(*args, out: Path) -> list:
    return [*args, "--output", str(out)]


def _fail_unless(cond: bool, what: str) -> list:
    return [] if cond else [what]


# ---------------------------------------------------------------------------
# qutrit-sweep
# ---------------------------------------------------------------------------


def grid_thetas(n: int) -> list:
    axis = np.linspace(GRID_LO, GRID_HI, n)
    return [(float(a), float(b)) for a in axis for b in axis]


def _qutrit_sweep(seed: int, out: Path, sizes: Sizes) -> Workload:
    rng = np.random.default_rng(seed)
    cli_seed = int(rng.integers(0, 2**31))
    thetas = grid_thetas(sizes.grid_n)
    order = rng.permutation(len(thetas))
    grid = f"{GRID_LO}:{GRID_HI}:{sizes.grid_n},{GRID_LO}:{GRID_HI}:{sizes.grid_n}"
    by_theta: dict = {}

    def check_sweep(rc, report):
        by_theta.clear()
        fails = _fail_unless(rc == 0, f"sweep exit code {rc}")
        points = report.get("sweep", [])
        fails += _fail_unless(len(points) == len(thetas), f"sweep returned {len(points)} points")
        for entry in points:
            if "error" in entry or entry.get("verdict") != VERDICT_SATURABLE:
                fails.append(f"sweep point {entry.get('theta') or entry['inputs']['theta']} "
                             f"not certified: {entry.get('error') or entry.get('verdict')}")
            else:
                by_theta[tuple(entry["inputs"]["theta"])] = entry
        return fails

    def check_analyze(rc, report):
        fails = _fail_unless(rc == 0, f"analyze exit code {rc}")
        fails += _fail_unless(report.get("verdict") == VERDICT_SATURABLE,
                              f"analyze verdict {report.get('verdict')}")
        theta = tuple(report.get("inputs", {}).get("theta") or ())
        # `analyze` at a grid point must reproduce the sweep's report bit for bit.
        if theta in by_theta:
            fails += _fail_unless(report == by_theta[theta], f"analyze at {theta} differs from sweep")
        return fails

    common = ["--model", QUTRIT_MODEL, "--params", QUTRIT_PARAMS, "--seed", str(cli_seed)]
    sweep = Call("sweep", _argv("sweep", *common, "--grid", grid, out=out), check_sweep,
                 items=len(thetas))
    analyze = [Call("analyze", _argv("analyze", *common, "--theta", f"{a!r},{b!r}", out=out),
                    check_analyze) for a, b in (thetas[k] for k in order)]
    # Each sweep is followed by a quarter of the grid's `analyze` calls, so a
    # cycle analyzes every point once and a run holds several sweeps to take
    # the median of.
    calls = []
    for part in np.array_split(np.arange(len(analyze)), SWEEPS_PER_CYCLE):
        calls += [sweep] + [analyze[i] for i in part]
    return Workload("qutrit-sweep", calls, out, "analyze", ("sweep",),
                    {"cli_seed": cli_seed, "grid": grid})


# ---------------------------------------------------------------------------
# certify-ladder
# ---------------------------------------------------------------------------


def _check_planted(rc, report):
    fails = _fail_unless(rc == 0, f"fisher exit code {rc}")
    fails += _fail_unless(report.get("verdict") == VERDICT_SATURABLE,
                          f"planted instance verdict {report.get('verdict')}")
    fails += _fail_unless(bool(report.get("saturation_certificate", {}).get("passed")),
                          "saturation certificate did not pass")
    fails += _fail_unless(bool(report.get("fisher", {}).get("saturated")),
                          "classical information does not saturate the QFIM")
    return fails


def _check_refuted(cond4_status: str, refuting: str):
    def check(rc, report):
        conds = report.get("conditions", {})
        fails = _fail_unless(rc == 0, f"analyze exit code {rc}")
        fails += _fail_unless(report.get("verdict") == VERDICT_NOT,
                              f"unplanted instance verdict {report.get('verdict')}")
        fails += _fail_unless(conds.get("condition4", {}).get("status") == cond4_status,
                              f"W search status {conds.get('condition4', {}).get('status')}")
        fails += _fail_unless(conds.get(refuting, {}).get("passed") is False,
                              f"{refuting} did not refute")
        return fails

    return check


# Unplanted kinds: which planting is switched off, the W-search outcome that
# construction implies, and the check that must refute.
REFUTE_KINDS = {
    "refute_cond1": ({"plant_cond1": False}, COND4_YES, "condition1"),
    "refute_cond4": ({"plant_cond4": False}, COND4_NO, "condition3"),
}


def write_numeric_model(path: Path, seed: int, n_s: int, r_plus: int, n_params: int,
                        **planting) -> None:
    """Unplanted `random-rank-r` at theta = 0 as numeric-model JSON.

    `--params plant_cond1=False` reaches the model as the truthy string
    "False" and silently builds a planted instance, so unplanted instances
    go to the CLI as numeric models instead.
    """
    model = fixtures.get("random-rank-r", seed=seed, n_s=n_s, r_plus=r_plus,
                         n_params=n_params, **planting)
    sp = evaluate(model, np.zeros(n_params))
    path.write_text(json.dumps(state_to_numeric_model(sp)), encoding="utf-8")


def _certify_ladder(seed: int, out: Path, sizes: Sizes) -> Workload:
    rng = np.random.default_rng(seed)
    cli_seed = int(rng.integers(0, 2**31))
    planted, refutes = [], []
    for n_s, r_plus, p, count in sizes.ladder:
        for inst in rng.integers(0, 2**31, size=count):
            params = f"seed={int(inst)},n_s={n_s},r_plus={r_plus},n_params={p}"
            planted.append(Call(f"fisher_n{n_s}", _argv(
                "fisher", "--model", "random-rank-r", "--params", params,
                "--theta", ",".join(["0"] * p), "--seed", str(cli_seed), out=out), _check_planted))
    n_s, r_plus, p = sizes.refute
    for kind, (planting, status, refuting) in REFUTE_KINDS.items():
        for inst in rng.integers(0, 2**31, size=sizes.refutes_per_kind):
            path = out.parent / f"{kind}-{int(inst)}.json"
            write_numeric_model(path, int(inst), n_s, r_plus, p, **planting)
            refutes.append(Call(kind, _argv("analyze", "--numeric-model", str(path),
                                            "--seed", str(cli_seed), out=out),
                                _check_refuted(status, refuting)))
    # Interleave the cheap refutations with the rungs so a time cut keeps the mix.
    calls = []
    for i in range(max(len(planted), len(refutes))):
        calls += planted[i:i + 1] + refutes[i:i + 1]
    kinds = tuple(dict.fromkeys(c.kind for c in calls))
    return Workload("certify-ladder", calls, out, f"fisher_n{sizes.ladder[-1][0]}", kinds,
                    {"cli_seed": cli_seed})


# ---------------------------------------------------------------------------
# mle-study
# ---------------------------------------------------------------------------


def mle_summary(report: dict) -> dict:
    """Per-parameter N Var / [F_Q^-1]_ll of the MLE study, reported, not gated.

    A ratio below one means the estimator beats the quantum bound, which
    only a flawed study can do; the flag keeps that visible.
    """
    est = report["monte_carlo"]["estimator"]
    f_q_inv = np.linalg.inv(np.array(report["qfim"]))
    ratio = est["batch_size"] * np.diag(np.array(est["covariance"])) / np.diag(f_q_inv)
    return {"ratio": ratio.tolist(), "below_bound": [bool(r < 1.0) for r in ratio]}


def _mle_study(seed: int, out: Path, sizes: Sizes) -> Workload:
    rng = np.random.default_rng(seed)
    base = int(rng.integers(0, 2**30))
    theta0 = np.array(QUTRIT_THETA0)

    def check(rc, report):
        fails = _fail_unless(rc == 0, f"simulate exit code {rc}")
        if rc != 0:
            return fails
        fails += _fail_unless(report.get("verdict") == VERDICT_SATURABLE,
                              f"verdict {report.get('verdict')}")
        fails += _fail_unless(bool(report["fisher"]["saturated"]), "F_c does not saturate F_Q")
        mc = report["monte_carlo"]
        fails += _fail_unless(sum(mc["counts"]) == sizes.trials, "counts do not sum to trials")
        est = np.array(mc["estimator"]["estimates"], dtype=float)
        fails += _fail_unless(est.shape == (sizes.batches, 2), f"estimates shape {est.shape}")
        fails += _fail_unless(bool(np.all(np.isfinite(est))), "non-finite estimate")
        fails += _fail_unless(bool(np.all(np.abs(est - theta0) <= MLE_RADIUS)),
                              f"estimate outside radius {MLE_RADIUS} of theta0")
        return fails

    calls = []
    for i in range(MLE_COMMANDS_PER_CYCLE):
        # estimator_study seeds batch b with seed + b, so commands stay disjoint.
        cmd_seed = base + i * (sizes.batches + 1)
        calls.append(Call("simulate", _argv(
            "simulate", "--model", QUTRIT_MODEL, "--params", QUTRIT_PARAMS,
            "--theta", ",".join(map(str, QUTRIT_THETA0)), "--trials", str(sizes.trials),
            "--batches", str(sizes.batches), "--estimator", "--seed", str(cmd_seed), out=out),
            check, items=sizes.batches))
    return Workload("mle-study", calls, out, "simulate", ("simulate",), {"seed_base": base})


BUILDERS = {
    "qutrit-sweep": _qutrit_sweep,
    "certify-ladder": _certify_ladder,
    "mle-study": _mle_study,
}


def build(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Workload:
    """Make the workload's inputs from ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir / "report.json", sizes)


def run_call(call: Call) -> int:
    """Run one request through the public CLI entry point."""
    return cli.main(call.argv)
