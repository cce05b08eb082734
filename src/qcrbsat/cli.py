"""Command-line front end.

Subcommands: ``analyze`` (support split, SLDs, quantum information,
condition checks, verdict), ``construct-povm`` (the optimal projective
measurement plus its structural certificate), ``fisher`` (classical vs
quantum information for a constructed or supplied measurement),
``simulate`` (seeded Monte Carlo with an empirical information estimate),
and ``sweep`` (analyze over a parameter grid). All output is JSON with
complex entries as [re, im] pairs; every tolerance, scheme, and seed that
influenced a number is part of the report, and rerunning with identical
inputs reproduces it bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from . import fisher as fish
from . import fixtures
from . import jsonio
from . import povm as povm_mod
from .conditions import VERDICT_SATURABLE, evaluate_conditions
from .errors import QcrbSatError
from .model import (
    StateAtPoint,
    evaluate,
    parse_numeric_model,
    state_at,
    support_decomposition,
)
from .sld import compute_sld, qfim

SCHEMA_VERSION = 1


class NotCertifiedError(QcrbSatError):
    pass


def _jsonable_params(params):
    if not params:
        return {}
    out = {}
    for k, v in params.items():
        out[k] = [v.real, v.imag] if isinstance(v, complex) else v
    return out


def parse_params(text: str) -> dict:
    """Parse "k=v,k=v" into typed values (bool, int, float, complex, or string).

    ``true`` and ``false``, in any case, are booleans.
    """
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise QcrbSatError(f"malformed parameter {chunk!r}, expected k=v")
        key, raw = chunk.split("=", 1)
        if raw.strip().lower() in ("true", "false"):
            out[key.strip()] = raw.strip().lower() == "true"
            continue
        for cast in (int, float, complex):
            try:
                out[key.strip()] = cast(raw)
                break
            except ValueError:
                continue
        else:
            out[key.strip()] = raw
    return out


def parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise QcrbSatError(f"malformed theta {text!r}, expected comma-separated floats")


def parse_grid(text: str):
    """Per-axis "start:stop:count" specs, comma separated."""
    axes = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise QcrbSatError(f"malformed grid axis {chunk!r}, expected start:stop:count")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise QcrbSatError(f"grid axis needs at least one point, got {count}")
        axes.append(np.linspace(start, stop, count))
    return axes


def _load_state(args):
    """Resolve the state source; returns (model_or_None, state_point, witness)."""
    if args.numeric_model:
        sp = parse_numeric_model(args.numeric_model)
        return None, sp, None
    if not args.model:
        raise QcrbSatError("either --model or --numeric-model is required")
    params = parse_params(args.params)
    model = fixtures.get(args.model, **params)
    witness = fixtures.get_witness(args.model, **params)
    if args.theta is None:
        raise QcrbSatError("--theta is required with --model")
    theta = parse_theta(args.theta)
    sp = evaluate(model, theta, scheme=args.scheme, h=args.fd_step)
    return model, sp, witness


def cond_tol(args, sp: StateAtPoint) -> float:
    """The condition tolerance: ``--cond-tol`` when given, else the derivative scheme's."""
    return args.cond_tol if args.cond_tol is not None else sp.deriv_tol


def run_analysis(args, sp: StateAtPoint, model=None, witness=None):
    """The core pipeline: decomposition, SLDs, information, conditions."""
    rng = np.random.default_rng(args.seed)
    tol = cond_tol(args, sp)
    dec = support_decomposition(sp, rank_tol=args.rank_tol)
    slds = compute_sld(dec, sp.drho, sld_tol=tol)
    f_q = qfim(dec, slds)
    report = evaluate_conditions(sp, dec, slds, model=model, witness=witness, tol=tol, rng=rng)
    return dec, slds, f_q, report


def base_report(args, sp: StateAtPoint, model, dec, f_q, report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "qcrbsat", "version": __version__},
        "inputs": {
            "model": model.name if model is not None else None,
            "params": _jsonable_params(model.params) if model is not None else None,
            "numeric_model": bool(args.numeric_model),
            "theta": None if sp.theta is None else [float(x) for x in sp.theta],
            "scheme": sp.scheme_label(),
            "rank_tol": args.rank_tol,
            "cond_tol": cond_tol(args, sp),
            "seed": args.seed,
        },
        "support": {
            "r_plus": dec.r_plus,
            "r_zero": dec.r_zero,
            "q": dec.q.tolist(),
        },
        "qfim": f_q.tolist(),
        "conditions": report.to_dict(),
        "verdict": report.verdict,
    }


def _emit(payload: dict, args) -> None:
    jsonio.write_json(payload, args.output or None)


def _construct_from_report(dec, slds, report, seed):
    if report.verdict != VERDICT_SATURABLE:
        raise NotCertifiedError(
            "refusing to construct a measurement: the saturability verdict is "
            f"{report.verdict}, not {VERDICT_SATURABLE}",
            verdict=report.verdict,
            reasoning=report.reasoning,
        )
    rng = np.random.default_rng(seed)
    return povm_mod.construct_optimal(
        dec, slds, W=report.cond4.W, lambdas=report.cond4.lambdas, rng=rng
    )


def _supplied_povm(args, sp: StateAtPoint):
    """The ``--povm`` measurement, checked against the state; None when not given."""
    if not args.povm:
        return None
    p = povm_mod.povm_from_json(args.povm)
    if p.dim != sp.dim:
        raise povm_mod.InvalidPOVMError(
            f"the measurement acts on dimension {p.dim}, the state on {sp.dim}",
            povm_dim=p.dim,
            state_dim=sp.dim,
        )
    povm_mod.require_valid(p)
    return p


def _cost_matrix(args, sp: StateAtPoint):
    """The ``--cost-matrix``: a finite real p x p array; None when not given."""
    if not args.cost_matrix:
        return None
    p = sp.n_params
    try:
        g = np.array(jsonio.load(args.cost_matrix))
    except ValueError:  # ragged nesting
        g = None
    if g is None or g.dtype.kind not in "iuf" or g.shape != (p, p) or not np.isfinite(g).all():
        raise jsonio.SchemaError(f"the cost matrix must be a finite real {p}x{p} array")
    return g.astype(float)


def cmd_analyze(args) -> dict:
    model, sp, witness = _load_state(args)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    return base_report(args, sp, model, dec, f_q, report)


def cmd_construct_povm(args) -> dict:
    model, sp, witness = _load_state(args)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    povm = _construct_from_report(dec, slds, report, args.seed)
    cert = povm_mod.verify_saturation_structural(povm, dec, slds, tol=cond_tol(args, sp))
    out = base_report(args, sp, model, dec, f_q, report)
    out["povm"] = povm_mod.povm_to_json(povm)
    out["saturation_certificate"] = cert.to_dict()
    if args.povm_output:
        jsonio.write_json(out["povm"], args.povm_output, sort_keys=False)
    return out


def cmd_fisher(args) -> dict:
    model, sp, witness = _load_state(args)
    povm = _supplied_povm(args, sp)
    g = _cost_matrix(args, sp)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    if povm is None:
        povm = _construct_from_report(dec, slds, report, args.seed)
    povm_mod.classify_elements(povm, sp.rho, dec)
    cert = povm_mod.verify_saturation_structural(povm, dec, slds, tol=cond_tol(args, sp))
    dist = fish.outcome_distribution(sp.rho, sp.drho, povm, dec)
    f_c = fish.classical_fim(dist)
    comparison = fish.compare(f_c, f_q, g=g, tol=cond_tol(args, sp))
    out = base_report(args, sp, model, dec, f_q, report)
    out["povm"] = povm_mod.povm_to_json(povm)
    out["saturation_certificate"] = cert.to_dict()
    out["fisher"] = comparison.to_dict()
    return out


def cmd_simulate(args) -> dict:
    model, sp, witness = _load_state(args)
    povm = _supplied_povm(args, sp)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    if povm is None:
        povm = _construct_from_report(dec, slds, report, args.seed)
    povm_mod.classify_elements(povm, sp.rho, dec)
    dist = fish.outcome_distribution(sp.rho, sp.drho, povm, dec)
    f_c = fish.classical_fim(dist)
    record = fish.simulate(dist, trials=args.trials, seed=args.seed)
    if args.estimator:
        if model is None:
            raise QcrbSatError("the estimator study needs a registry model")

        elements = np.stack(povm.elements)

        def prob_fn(theta):
            return fish.probabilities(state_at(model, theta), elements)

        record.estimator = fish.estimator_study(
            prob_fn, dist, sp.theta, batches=args.batches,
            batch_size=max(1, args.trials // max(1, args.batches)), seed=args.seed,
        )
    out = base_report(args, sp, model, dec, f_q, report)
    out["povm"] = povm_mod.povm_to_json(povm)
    out["fisher"] = fish.compare(f_c, f_q, tol=cond_tol(args, sp)).to_dict()
    out["monte_carlo"] = record.to_dict()
    return out


def cmd_sweep(args) -> dict:
    if not args.model:
        raise QcrbSatError("sweep requires --model (numeric models are single-point)")
    params = parse_params(args.params)
    model = fixtures.get(args.model, **params)
    witness = fixtures.get_witness(args.model, **params)
    axes = parse_grid(args.grid)
    if len(axes) != model.n_params:
        raise QcrbSatError(f"grid has {len(axes)} axes, model has {model.n_params} parameters")

    points = [np.array(t) for t in _cartesian(axes)]
    reports = []
    for theta in points:
        try:
            sp = evaluate(model, theta, scheme=args.scheme, h=args.fd_step)
            dec, slds, f_q, report = run_analysis(args, sp, model, witness)
            reports.append(base_report(args, sp, model, dec, f_q, report))
        except QcrbSatError as exc:
            reports.append({"theta": [float(x) for x in theta], "error": exc.to_dict()})
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "qcrbsat", "version": __version__},
        "sweep": reports,
        "grid": args.grid,
        "model": model.name,
    }


def _cartesian(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing keeps no state in the parser: every ``parse_args`` call starts
    from the declared defaults and returns a fresh namespace.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="registered model name")
    common.add_argument("--params", default="", help="model parameters, k=v,k=v")
    common.add_argument("--theta", help="parameter point, comma separated")
    common.add_argument("--numeric-model", help="single-point numeric model JSON file")
    common.add_argument("--scheme", default="auto",
                        choices=["auto", "analytic", "central_fd", "richardson"])
    common.add_argument("--fd-step", type=float, default=1e-5)
    common.add_argument("--rank-tol", type=float, default=1e-10)
    common.add_argument("--cond-tol", type=float, default=None,
                        help="condition tolerance (default: per derivative scheme)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output", help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="qcrbsat",
        description="Decide, certify, and demonstrate single-copy saturability "
        "of the multiparameter quantum Cramér-Rao bound.",
    )
    parser.add_argument("--version", action="version", version=f"qcrbsat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", parents=[common], help="run the condition pipeline")
    pc = sub.add_parser("construct-povm", parents=[common],
                        help="build the optimal projective measurement")
    pc.add_argument("--povm-output", help="also write the measurement JSON here")
    pf = sub.add_parser("fisher", parents=[common],
                        help="classical vs quantum information for a measurement")
    pf.add_argument("--povm", help="measurement JSON file (default: construct)")
    pf.add_argument("--cost-matrix", help="JSON file with a real p x p cost matrix")
    ps = sub.add_parser("simulate", parents=[common], help="seeded Monte Carlo sampling")
    ps.add_argument("--povm", help="measurement JSON file (default: construct)")
    ps.add_argument("--trials", type=int, default=1_000_000)
    ps.add_argument("--estimator", action="store_true", help="add a batched MLE study")
    ps.add_argument("--batches", type=int, default=20)
    pw = sub.add_parser("sweep", parents=[common], help="analyze over a parameter grid")
    pw.add_argument("--grid", required=True, help="per-axis start:stop:count, comma separated")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "construct-povm": cmd_construct_povm,
    "fisher": cmd_fisher,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _COMMANDS[args.command](args)
    except QcrbSatError as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": exc.to_dict()}, args)
        return 1
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
