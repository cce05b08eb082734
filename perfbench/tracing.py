"""Traced replay of the CLI commands, with spans recorded in the benchmark.

``replay(argv, tracer)`` runs the same command as ``qcrbsat.cli.main(argv)``
by calling each module's public functions in the order the CLI calls them,
and wraps every call in a span. It returns the report text the CLI would
write, so a traced request can be checked byte for byte against its
untraced twin. Probe spans time a function the library calls internally
(joint diagonalization of the ++ blocks, POVM validation) by calling it
once more, outside the request tree.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from qcrbsat import cli, fixtures
from qcrbsat import fisher as fish
from qcrbsat import numkernel as nk
from qcrbsat import povm as povm_mod
from qcrbsat.conditions import (
    ConditionReport,
    check_average_commutativity,
    check_condition1,
    check_condition3,
    check_full_commutativity,
    check_partial_commutativity,
    find_w_condition4,
    verdict,
    verify_condition2prime,
)
from qcrbsat.errors import QcrbSatError
from qcrbsat.model import evaluate, parse_numeric_model, support_decomposition
from qcrbsat.sld import compute_sld, qfim

# Spans reported as per-layer metrics (calls, ms_p50, self_ms each), by layer.
SPANS = (
    "cli.parse", "cli.report", "cli.json",
    "fixtures.get",
    "model.evaluate", "model.support_decomposition", "model.parse_numeric_model",
    "sld.compute_sld", "sld.qfim",
    "conditions.full", "conditions.average", "conditions.partial", "conditions.cond1",
    "conditions.cond3", "conditions.w_search", "conditions.cond2prime", "conditions.verdict",
    "numkernel.joint_eigenprojectors",
    "povm.construct_optimal", "povm.validate", "povm.classify_elements",
    "povm.verify_saturation_structural",
    "fisher.outcome_distribution", "fisher.classical_fim", "fisher.compare",
    "fisher.simulate", "fisher.estimator_study", "fisher.prob_fn",
)
PROBES = ("numkernel.joint_eigenprojectors", "povm.validate")


class _Span:
    __slots__ = ("tracer", "name", "parent", "index")

    def __init__(self, tracer, name, parent):
        self.tracer, self.name, self.parent = tracer, name, parent

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parent.append(self.parent if self.parent is not None else (t.stack[-1] if t.stack else -1))
        t.request_id.append(t.request)
        t.end.append(0.0)
        t.stack.append(self.index)
        t.start.append(perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.index] = perf_counter()
        t.stack.pop()
        return False


class Tracer:
    """Spans kept in memory as columns: name, start, end, parent index, request id.

    Flat arrays keep the spans out of the garbage collector's way, so
    recording them costs the traced program little.
    """

    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request_id = array("q")
        self.stack: list = []
        self.request = -1
        self.counts: Counter = Counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name, None)

    def probe(self, name: str) -> _Span:
        """A span outside the request tree (no parent), tagged with the request."""
        return _Span(self, name, -1)

    def new_request(self, name: str) -> _Span:
        self.request += 1
        return _Span(self, name, -1)

    def summary(self) -> dict:
        """Per span name: duration samples (s) and total self time (s)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict = defaultdict(lambda: {"durations": [], "self_s": 0.0})
        for name, d, c in zip(self.names, dur, child):
            out[name]["durations"].append(d)
            out[name]["self_s"] += d - c
        return dict(out)

    def request_seconds(self) -> float:
        """Wall time inside request roots (probes excluded)."""
        return sum(e - s for name, s, e, parent in zip(self.names, self.start, self.end, self.parent)
                   if parent < 0 and name not in PROBES)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.names, "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "request": self.request_id.tolist()},
                      fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The CLI pipeline, step by step (mirrors qcrbsat.cli).
# ---------------------------------------------------------------------------


def _load_state(args, tr: Tracer):
    if args.numeric_model:
        with tr.span("model.parse_numeric_model"):
            return None, parse_numeric_model(args.numeric_model), None
    if not args.model:
        raise QcrbSatError("either --model or --numeric-model is required")
    params = cli.parse_params(args.params)
    with tr.span("fixtures.get"):
        model = fixtures.get(args.model, **params)
        witness = fixtures.get_witness(args.model, **params)
    if args.theta is None:
        raise QcrbSatError("--theta is required with --model")
    theta = cli.parse_theta(args.theta)
    with tr.span("model.evaluate"):
        sp = evaluate(model, theta, scheme=args.scheme, h=args.fd_step)
    return model, sp, witness


def _conditions(sp, dec, slds, model, witness, tol, rng, tr: Tracer) -> ConditionReport:
    """`evaluate_conditions`, one check per span."""
    tol = tol if tol is not None else sp.deriv_tol
    sld_scale = max(nk.fro(full) for full in slds.full) if slds.n_params else 1.0
    with tr.span("conditions.full"):
        full = check_full_commutativity(slds, tol)
    with tr.span("conditions.average"):
        avg = check_average_commutativity(sp.rho, slds, tol)
    with tr.span("conditions.partial"):
        partial = check_partial_commutativity(dec, slds, tol)
    with tr.span("conditions.cond1"):
        c1 = check_condition1(slds, tol)
    with tr.span("conditions.cond3"):
        c3 = check_condition3(slds, tol)
    with tr.span("conditions.w_search"):
        c4 = find_w_condition4(slds.Lpz, tol, rng=rng, scale_floor=sld_scale)
    tr.counts[f"w_search.{c4.status}"] += 1
    report = ConditionReport(
        regime="pure" if dec.r_plus == 1 else ("full_rank" if dec.r_zero == 0 else "rank_deficient"),
        full_comm=full, avg_comm=avg, partial_comm=partial, cond1=c1, cond3=c3, cond4=c4,
        cond2prime=None, tol=tol,
    )
    if model is not None and sp.theta is not None:
        with tr.span("conditions.cond2prime"):
            report.cond2prime = verify_condition2prime(model, sp, witness, null_povm=None,
                                                       tol=max(tol, 1e-8))
    with tr.span("conditions.verdict"):
        report.verdict, report.reasoning = verdict(report, dec.r_plus, dec.r_zero)
    return report


def _analysis(args, sp, model, witness, tr: Tracer):
    rng = np.random.default_rng(args.seed)
    with tr.span("model.support_decomposition"):
        dec = support_decomposition(sp, rank_tol=args.rank_tol)
    sld_tol = args.cond_tol if args.cond_tol is not None else sp.deriv_tol
    with tr.span("sld.compute_sld"):
        slds = compute_sld(dec, sp.drho, sld_tol=sld_tol)
    with tr.span("sld.qfim"):
        f_q = qfim(dec, slds)
    report = _conditions(sp, dec, slds, model, witness, args.cond_tol, rng, tr)
    return dec, slds, f_q, report


def _construct(args, dec, slds, report, tr: Tracer):
    if report.verdict != cli.VERDICT_SATURABLE:
        raise cli.NotCertifiedError(
            "refusing to construct a measurement: the saturability verdict is "
            f"{report.verdict}, not {cli.VERDICT_SATURABLE}",
            verdict=report.verdict, reasoning=report.reasoning,
        )
    rng = np.random.default_rng(args.seed)
    with tr.span("povm.construct_optimal"):
        povm = povm_mod.construct_optimal(dec, slds, W=report.cond4.W,
                                          lambdas=report.cond4.lambdas, rng=rng)
    # Probes: the two costly steps construct_optimal runs internally.
    with tr.probe("numkernel.joint_eigenprojectors"):
        nk.joint_eigenprojectors(slds.Lpp, tol=1e-8, rng=np.random.default_rng(args.seed))
    with tr.probe("povm.validate"):
        povm_mod.validate(povm_mod.POVM(elements=povm.elements), tol=1e-10)
    tr.counts["povm.constructed"] += 1
    tr.counts["povm.outcomes"] += povm.n_outcomes
    tr.counts["povm.chi"] += povm.meta["chi"]
    return povm


def _analyze(args, tr):
    model, sp, witness = _load_state(args, tr)
    dec, slds, f_q, report = _analysis(args, sp, model, witness, tr)
    with tr.span("cli.report"):
        return cli.base_report(args, sp, model, dec, f_q, report)


def _fisher(args, tr):
    model, sp, witness = _load_state(args, tr)
    dec, slds, f_q, report = _analysis(args, sp, model, witness, tr)
    povm = _construct(args, dec, slds, report, tr)
    with tr.span("povm.classify_elements"):
        povm_mod.classify_elements(povm, sp.rho, dec)
    with tr.span("povm.verify_saturation_structural"):
        cert = povm_mod.verify_saturation_structural(
            povm, dec, slds, tol=args.cond_tol if args.cond_tol is not None else sp.deriv_tol)
    with tr.span("fisher.outcome_distribution"):
        dist = fish.outcome_distribution(sp.rho, sp.drho, povm, dec)
    with tr.span("fisher.classical_fim"):
        f_c = fish.classical_fim(dist)
    with tr.span("fisher.compare"):
        comparison = fish.compare(f_c, f_q, g=None,
                                  tol=args.cond_tol if args.cond_tol else sp.deriv_tol)
    with tr.span("cli.report"):
        out = cli.base_report(args, sp, model, dec, f_q, report)
        out["povm"] = povm_mod.povm_to_json(povm)
        out["saturation_certificate"] = cert.to_dict()
        out["fisher"] = comparison.to_dict()
    return out


def _simulate(args, tr):
    model, sp, witness = _load_state(args, tr)
    dec, slds, f_q, report = _analysis(args, sp, model, witness, tr)
    povm = _construct(args, dec, slds, report, tr)
    with tr.span("povm.classify_elements"):
        povm_mod.classify_elements(povm, sp.rho, dec)
    with tr.span("fisher.outcome_distribution"):
        dist = fish.outcome_distribution(sp.rho, sp.drho, povm, dec)
    with tr.span("fisher.classical_fim"):
        f_c = fish.classical_fim(dist)
    with tr.span("fisher.simulate"):
        record = fish.simulate(dist, trials=args.trials, seed=args.seed)
    if args.estimator:
        if model is None:
            raise QcrbSatError("the estimator study needs a registry model")
        scheme = sp.scheme if sp.scheme != "richardson" else "central_fd"

        def prob_fn(theta):
            with tr.span("fisher.prob_fn"):
                with tr.span("model.evaluate"):
                    s = evaluate(model, theta, scheme=scheme, h=args.fd_step)
                return np.array([float(np.trace(s.rho @ e).real) for e in povm.elements])

        with tr.span("fisher.estimator_study"):
            record.estimator = fish.estimator_study(
                prob_fn, dist, sp.theta, batches=args.batches,
                batch_size=max(1, args.trials // args.batches), seed=args.seed,
            )
        tr.counts["mle.fits"] += args.batches
    with tr.span("fisher.compare"):
        comparison = fish.compare(f_c, f_q, tol=args.cond_tol if args.cond_tol else sp.deriv_tol)
    with tr.span("cli.report"):
        out = cli.base_report(args, sp, model, dec, f_q, report)
        out["povm"] = povm_mod.povm_to_json(povm)
        out["fisher"] = comparison.to_dict()
        out["monte_carlo"] = record.to_dict()
    return out


def _sweep(args, tr):
    if not args.model:
        raise QcrbSatError("sweep requires --model (numeric models are single-point)")
    params = cli.parse_params(args.params)
    with tr.span("fixtures.get"):
        model = fixtures.get(args.model, **params)
        witness = fixtures.get_witness(args.model, **params)
    axes = cli.parse_grid(args.grid)
    if len(axes) != model.n_params:
        raise QcrbSatError(f"grid has {len(axes)} axes, model has {model.n_params} parameters")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = [np.array(t) for t in np.stack([m.ravel() for m in mesh], axis=1)]
    reports = []
    for theta in points:
        try:
            with tr.span("model.evaluate"):
                sp = evaluate(model, theta, scheme=args.scheme, h=args.fd_step)
            dec, slds, f_q, report = _analysis(args, sp, model, witness, tr)
            with tr.span("cli.report"):
                reports.append(cli.base_report(args, sp, model, dec, f_q, report))
        except QcrbSatError as exc:
            reports.append({"theta": [float(x) for x in theta], "error": exc.to_dict()})
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "tool": {"name": "qcrbsat", "version": cli.__version__},
        "sweep": reports,
        "grid": args.grid,
        "model": model.name,
    }


_COMMANDS = {"analyze": _analyze, "fisher": _fisher, "simulate": _simulate, "sweep": _sweep}


def replay(argv: list, tr: Tracer) -> tuple:
    """Run ``argv`` like ``cli.main`` under spans; returns (exit code, text written)."""
    with tr.new_request(f"cli.{argv[0]}"):
        with tr.span("cli.parse"):
            args = cli.build_parser().parse_args(argv)
        try:
            payload, rc = _COMMANDS[args.command](args, tr), 0
        except QcrbSatError as exc:
            payload, rc = {"schema_version": cli.SCHEMA_VERSION, "error": exc.to_dict()}, 1
        with tr.span("cli.json"):
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        tr.counts["cli.report_bytes"] += len(text)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return rc, text
