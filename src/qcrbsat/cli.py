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
from .conditions import VERDICT_SATURABLE, condition_reports
from .errors import QcrbSatError, jsonable
from .model import (
    StateAtPoint,
    evaluate,
    evaluate_points,
    parse_numeric_model,
    split_support,
    state_at,
)
from .sld import compute_sld, qfim

SCHEMA_VERSION = 1
# Bound on the complex entries of any array a sweep stacks over one chunk of grid points.
SWEEP_ENTRIES = 1 << 16


class NotCertifiedError(QcrbSatError):
    pass


def _usage(message: str, option: str, value=None) -> QcrbSatError:
    """A refusal of a command-line value; its detail names the option and the value."""
    return QcrbSatError(message, option=option, value=value)


def parse_params(text: str) -> dict:
    """Parse "k=v,k=v" into typed values (bool, int, float, complex, or string).

    ``true`` and ``false``, in any case, are booleans.
    """
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise _usage(f"malformed parameter {chunk!r}, expected k=v", "--params", text)
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
        raise _usage(f"malformed theta {text!r}, expected comma-separated floats", "--theta", text)


def parse_grid(text: str):
    """Per-axis "start:stop:count" specs, comma separated, with finite ends."""
    axes = []
    for chunk in text.split(","):
        try:
            start, stop, count = chunk.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:  # not three fields, or not two reals and an integer
            raise _usage(f"malformed grid axis {chunk!r}, expected start:stop:count",
                         "--grid", text) from None
        if count < 1:
            raise _usage(f"grid axis needs at least one point, got {count}", "--grid", text)
        if not (np.isfinite(start) and np.isfinite(stop)):  # nan or inf would reach the report
            raise _usage(f"grid axis {chunk!r} needs a finite start and stop", "--grid", text)
        axes.append(np.linspace(start, stop, count))
    return axes


def _registry_model(args):
    """The ``--model`` built from ``--params``, and its condition-2' witness (None when it
    ships none or without ``--diagnostics``, which alone runs condition 2')."""
    params = parse_params(args.params)
    witness = fixtures.get_witness(args.model, **params) if args.diagnostics else None
    return fixtures.get(args.model, **params), witness


def _refuse_options(args, source: str, *options) -> None:
    """Refuse any of ``options`` given beside ``source``, which leaves them unread."""
    given = [o for o in options if getattr(args, o[2:].replace("-", "_")) not in (None, "")]
    if given:
        raise QcrbSatError(f"{source} does not read {', '.join(given)}", options=given)


def _load_state(args):
    """Resolve the state source; returns (model_or_None, state_point, witness)."""
    if args.numeric_model:
        _refuse_options(args, "--numeric-model", "--model", "--params", "--theta")
        sp = parse_numeric_model(args.numeric_model)
        return None, sp, None
    if not args.model:
        raise _usage("either --model or --numeric-model is required", "--model")
    model, witness = _registry_model(args)
    if args.theta is None:
        raise _usage("--theta is required with --model", "--theta")
    theta = parse_theta(args.theta)
    sp = evaluate(model, theta, scheme=args.scheme, h=args.fd_step)
    return model, sp, witness


def cond_tol(args, sp: StateAtPoint) -> float:
    """The condition tolerance: ``--cond-tol`` when given, else the derivative scheme's."""
    return args.cond_tol if args.cond_tol is not None else sp.deriv_tol


def run_analyses(args, points: StateAtPoint, model=None, witness=None) -> list:
    """The core pipeline at each point of a stack: decomposition, SLDs, information, conditions.

    ``points`` is a stack of state points (see
    :func:`~qcrbsat.model.evaluate_points`). The support split, the SLDs,
    the QFIM, the pairwise checks, the W search and, with ``--diagnostics``,
    condition 2' run once per group of points with equal (r+, r0); the
    verdict runs per point. The SLD solve is checked at the
    condition tolerance or the scheme's, whichever is looser. Returns
    ``(dec, slds, f_q, report)`` per point, each what the point gives
    alone. A stack holding a failing point raises a :class:`QcrbSatError`
    from one of its failing points.
    """
    tol = cond_tol(args, points)
    out = [None] * len(points.rho)
    for rows, dec in split_support(points.rho, points.drho, points.deriv_tol, args.rank_tol):
        group = points if len(rows) == len(out) else points.row(rows)
        slds = compute_sld(dec, group.drho, sld_tol=max(tol, points.deriv_tol))
        f_q = qfim(dec, slds)
        reports = condition_reports(group, dec, slds, model=model, witness=witness, tol=tol,
                                    diagnostics=args.diagnostics)
        for i, (k, report) in enumerate(zip(rows.tolist(), reports)):
            out[k] = (dec.row(i), slds.row(i), f_q[i], report)
    return out


def run_analysis(args, sp: StateAtPoint, model=None, witness=None):
    """:func:`run_analyses` at the one point ``sp``."""
    return run_analyses(args, sp.row(None), model, witness)[0]


def base_report(args, sp: StateAtPoint, model, dec, f_q, report) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "qcrbsat", "version": __version__},
        "inputs": {
            "model": model.name if model is not None else None,
            "params": jsonable(model.params) if model is not None else None,
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


def _construct_from_report(dec, slds, report):
    if report.verdict != VERDICT_SATURABLE:
        raise NotCertifiedError(
            "refusing to construct a measurement: the saturability verdict is "
            f"{report.verdict}, not {VERDICT_SATURABLE}",
            verdict=report.verdict,
            reasoning=report.reasoning,
        )
    return povm_mod.construct_optimal(dec, slds, W=report.cond4.W)


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
    """The ``--cost-matrix``: a finite real symmetric positive-semidefinite p x p array.

    None when not given. Symmetry is exact; an eigenvalue below
    ``-1e-12`` times the largest modulus is negative.
    """
    if not args.cost_matrix:
        return None
    p = sp.n_params
    try:
        g = np.array(jsonio.load(args.cost_matrix))
    except ValueError:  # ragged nesting
        g = None
    if g is None or g.dtype.kind not in "iuf" or g.shape != (p, p) or not np.isfinite(g).all():
        raise jsonio.SchemaError(f"the cost matrix must be a finite real {p}x{p} array")
    g = g.astype(float)
    w = np.linalg.eigvalsh(g)
    if not np.array_equal(g, g.T) or w[0] < -1e-12 * np.abs(w).max():
        # tr(G F^-1) of an indefinite G can fall below the quantum cost without beating any bound
        raise jsonio.SchemaError("the cost matrix must be symmetric positive semidefinite")
    return g


def _compare(dist, f_q, g, tol) -> fish.FisherComparison:
    """Classical against quantum information, with a note naming the null outcomes F_c drops."""
    comparison = fish.compare(fish.classical_fim(dist), f_q, g=g, tol=tol)
    if dist.dropped:
        comparison.notes.append(
            f"null outcome(s) {dist.dropped} have curvature of rank above one; "
            "their information is left out of F_c"
        )
    return comparison


def cmd_analyze(args) -> dict:
    model, sp, witness = _load_state(args)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    return base_report(args, sp, model, dec, f_q, report)


def cmd_construct_povm(args) -> dict:
    model, sp, witness = _load_state(args)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    povm = _construct_from_report(dec, slds, report)
    cert = povm_mod.verify_saturation_structural(povm, dec, slds, tol=cond_tol(args, sp))
    out = base_report(args, sp, model, dec, f_q, report)
    out["povm"] = povm_mod.povm_to_json(povm)
    out["saturation_certificate"] = cert.to_dict()
    if args.povm_output:
        _write(out["povm"], args.povm_output, "--povm-output", sort_keys=False)
    return out


def cmd_fisher(args) -> dict:
    model, sp, witness = _load_state(args)
    povm = _supplied_povm(args, sp)
    g = _cost_matrix(args, sp)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    if povm is None:
        povm = _construct_from_report(dec, slds, report)
    povm_mod.classify_elements(povm, sp.rho, dec)
    cert = povm_mod.verify_saturation_structural(povm, dec, slds, tol=cond_tol(args, sp))
    dist = fish.outcome_distribution(sp.rho, sp.drho, povm, dec, deriv_tol=sp.deriv_tol)
    comparison = _compare(dist, f_q, g, cond_tol(args, sp))
    out = base_report(args, sp, model, dec, f_q, report)
    out["povm"] = povm_mod.povm_to_json(povm)
    out["saturation_certificate"] = cert.to_dict()
    out["fisher"] = comparison.to_dict()
    return out


def cmd_simulate(args) -> dict:
    if args.estimator and args.trials < args.batches:
        # trials // batches would be 0, and each batch would draw a trial not asked for
        raise QcrbSatError(
            f"the estimator study needs at least one trial per batch: "
            f"--trials {args.trials} is below --batches {args.batches}",
            trials=args.trials,
            batches=args.batches,
        )
    model, sp, witness = _load_state(args)
    povm = _supplied_povm(args, sp)
    dec, slds, f_q, report = run_analysis(args, sp, model, witness)
    if povm is None:
        povm = _construct_from_report(dec, slds, report)
    povm_mod.classify_elements(povm, sp.rho, dec)
    dist = fish.outcome_distribution(sp.rho, sp.drho, povm, dec, deriv_tol=sp.deriv_tol)
    comparison = _compare(dist, f_q, None, cond_tol(args, sp))
    record = fish.simulate(dist, trials=args.trials, seed=args.seed)
    if args.estimator:
        if model is None:
            raise _usage("the estimator study needs a registry model", "--model")

        elements = np.stack(povm.elements)

        def likelihood(thetas):
            return fish.probabilities(state_at(model, thetas), elements)

        record.estimator = fish.estimator_study(
            likelihood, dist, sp.theta, batches=args.batches,
            batch_size=max(1, args.trials // max(1, args.batches)), seed=args.seed,
            stacked=True, domain=model.domain,
        )
    out = base_report(args, sp, model, dec, f_q, report)
    out["povm"] = povm_mod.povm_to_json(povm)
    out["fisher"] = comparison.to_dict()
    out["monte_carlo"] = record.to_dict()
    return out


def _sweep_entries(args, model, witness, thetas) -> list:
    """The sweep entries of a (B, p) stack of grid points.

    The stack is evaluated and analyzed in one pass (:func:`run_analyses`).
    If that raises, each half runs again on its own, down to single points:
    a failing point's entry is then the error it raises alone, what
    `analyze` reports there, and every other entry is its report.
    """
    try:
        points = evaluate_points(model, thetas, scheme=args.scheme, h=args.fd_step)
        analyses = run_analyses(args, points, model, witness)
        return [base_report(args, points.row(k), model, dec, f_q, report)
                for k, (dec, _, f_q, report) in enumerate(analyses)]
    except QcrbSatError as exc:
        if len(thetas) == 1:
            return [{"theta": [float(x) for x in thetas[0]], "error": exc.to_dict()}]
    half = len(thetas) // 2
    return (_sweep_entries(args, model, witness, thetas[:half])
            + _sweep_entries(args, model, witness, thetas[half:]))


def cmd_sweep(args) -> dict:
    """Analyze every point of the grid, in chunks of at most :data:`SWEEP_ENTRIES`
    stacked entries (see :func:`_sweep_entries`)."""
    if not args.model:
        raise _usage("sweep requires --model (numeric models are single-point)", "--model")
    _refuse_options(args, "sweep", "--theta", "--numeric-model")
    model, witness = _registry_model(args)
    axes = parse_grid(args.grid)
    if len(axes) != model.n_params:
        raise _usage(f"grid has {len(axes)} axes, model has {model.n_params} parameters",
                     "--grid", args.grid)

    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    # the largest per-point stacks: the Richardson stencil (4p states) and the pair products
    p, n = model.n_params, model.dim
    chunk = max(1, SWEEP_ENTRIES // ((4 + p) * p * n * n))
    reports = []
    for start in range(0, len(points), chunk):
        reports += _sweep_entries(args, model, witness, points[start:start + chunk])
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "qcrbsat", "version": __version__},
        "sweep": reports,
        "grid": args.grid,
        "model": model.name,
    }


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
    common.add_argument("--diagnostics", action="store_true",
                        help="also compute full and partial commutativity and condition 2', "
                        "which the verdict does not read (null otherwise)")
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


def _write(obj, path, option: str, **kw) -> None:
    """:func:`~qcrbsat.jsonio.write_json` to ``path``, the file ``option`` names; one that
    cannot be written raises a :class:`QcrbSatError` naming both."""
    try:
        jsonio.write_json(obj, path, **kw)
    except OSError as exc:
        raise QcrbSatError(f"cannot write {option} {path!r}: {exc.strerror or exc}",
                           option=option, path=path) from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # refused by every command, though simulate alone seeds a generator
            raise _usage(f"--seed must be a non-negative integer, got {args.seed}",
                         "--seed", args.seed)
        _write(_COMMANDS[args.command](args), args.output or None, "--output")
        return 0
    except QcrbSatError as exc:
        error = {"schema_version": SCHEMA_VERSION, "error": exc.to_dict()}
    try:
        _write(error, args.output or None, "--output")
    except QcrbSatError:  # to stdout when --output cannot be written
        jsonio.write_json(error, None)
    return 1


if __name__ == "__main__":
    sys.exit(main())
