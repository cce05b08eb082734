"""The stacked pipeline against single-point calls, bit for bit.

A stack of B points through `evaluate_points`, `split_support`, `compute_sld`,
`qfim`, the five pairwise checks, `verify_condition2prime` and
`condition_reports`, with diagnostics off and on, gives, row by row, exactly
what B single-point calls give; so does the stacked W search against
`find_w_condition4`. A stack that holds a failing point raises, and a sweep
run in chunks gives each point the entry `analyze` gives it.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qcrbsat as qs
from qcrbsat import cli, jsonio
from qcrbsat import conditions as cond
from qcrbsat import model as md
from qcrbsat import numkernel as nk
from qcrbsat.errors import QcrbSatError
from test_conditions import (_mixed_blocks, _planted_blocks, crafted_cond3_pass_cond4_fail,
                             pure_real_multinomial_point)

CASES = [
    ("qutrit-phase-mixture", {"d": 0.6, "c1": 1.0, "c2": 0.7}),
    ("qutrit-phase-mixture", {"d": 0.3 + 0.4j, "c1": 1.0, "c2": 0.7}),
    ("paper-qutrit", {}),
    ("pure-qubit-amp-phase", {}),
    ("stationary-basis", {}),
    ("theta-independent-support", {}),
    ("diag-multinomial", {"dims": 2}),
    ("diag-multinomial", {"dims": 3}),
    ("diag-multinomial", {"dims": 4}),
    ("random-rank-r", {"seed": 1, "n_s": 4, "r_plus": 2, "n_params": 2}),
    ("random-rank-r", {"seed": 2, "n_s": 8, "r_plus": 4, "n_params": 3}),
    ("random-rank-r", {"seed": 3, "n_s": 6, "r_plus": 2, "n_params": 2, "plant_cond4": False}),
    ("random-rank-r", {"seed": 4, "n_s": 5, "r_plus": 5, "n_params": 2, "plant_cond1": False}),
    ("random-rank-r", {"seed": 5, "n_s": 7, "r_plus": 1, "n_params": 2, "plant_cond4": False}),
]
SCHEMES = ["analytic", "central_fd", "richardson"]


def _rank_switch():
    """diag(1 - s_1 - s_2, s_1, s_2) with s_l = max(0, theta_l - 1/2)^2: the rank is 1, 2
    or 3 by quadrant, so a stack of points splits into several (r+, r0) groups."""
    def state(theta):
        s = np.maximum(0.0, theta - 0.5) ** 2
        out = np.zeros(theta.shape[:-1] + (3, 3), dtype=complex)
        out[..., 0, 0] = 1.0 - s[..., 0] - s[..., 1]
        out[..., 1, 1], out[..., 2, 2] = s[..., 0], s[..., 1]
        return out

    def derivative(theta):
        ds = 2.0 * np.maximum(0.0, theta - 0.5)
        out = np.zeros(theta.shape[:-1] + (2, 3, 3), dtype=complex)
        out[..., 0, 0, 0], out[..., 0, 1, 1] = -ds[..., 0], ds[..., 0]
        out[..., 1, 0, 0], out[..., 1, 2, 2] = -ds[..., 1], ds[..., 1]
        return out

    return md.StateModel(name="rank-switch", dim=3, n_params=2, state_fn=state,
                         derivative_fn=derivative, domain=md.box([0.0, 0.0], [1.0, 1.0]))


def _points(model, name, size, seed):
    rng = np.random.default_rng(seed)
    p = model.n_params
    if name == "random-rank-r":
        # consistent at the center only: nearby points pass, farther ones fail alone
        return rng.choice([0.0, 1e-13, -1e-13, 1e-3, -0.05], size=(size, p))
    lo, hi = model.domain.lo, model.domain.hi
    thetas = lo + (hi - lo) * rng.uniform(0.02, 0.98, size=(size, p))
    if name == "diag-multinomial":  # keep the last probability positive
        thetas *= 0.9 / max(1.0, thetas.sum(axis=1).max())
    return thetas


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _text(report):
    out = []
    jsonio.dump(report.to_dict(), out.append)
    return "".join(out)


def _witnesses(model):
    """No witness, and the model's own witness when it ships one."""
    return [None] if model.witness is None else [None, model.witness]


def _single(model, theta, scheme):
    sp = qs.evaluate(model, theta, scheme=scheme)
    dec = qs.support_decomposition(sp)
    slds = qs.compute_sld(dec, sp.drho, sld_tol=sp.deriv_tol)
    tol = sp.deriv_tol
    checks = (qs.check_full_commutativity(slds, tol),
              qs.check_average_commutativity(sp.rho, slds, tol),
              qs.check_partial_commutativity(dec, slds, tol), qs.check_condition1(slds, tol),
              qs.check_condition3(slds, tol))
    c2p = [qs.verify_condition2prime(model, sp, w, tol=max(tol, 1e-8)) for w in _witnesses(model)]
    reports = [qs.evaluate_conditions(sp, dec, slds, model=model, diagnostics=diagnostics)
               for diagnostics in (False, True)]
    return sp, dec, slds, qs.qfim(dec, slds), checks, c2p, reports


def _stacked(model, thetas, scheme):
    """Per point, what `_single` returns, from one stacked pass per group."""
    points = md.evaluate_points(model, thetas, scheme=scheme)
    out = [None] * len(thetas)
    for rows, dec in md.split_support(points.rho, points.drho, points.deriv_tol):
        group = points.row(rows)
        slds = qs.compute_sld(dec, group.drho, sld_tol=points.deriv_tol)
        f_q = qs.qfim(dec, slds)
        tol = points.deriv_tol
        checks = (qs.check_full_commutativity(slds, tol),
                  qs.check_average_commutativity(group.rho, slds, tol),
                  qs.check_partial_commutativity(dec, slds, tol), qs.check_condition1(slds, tol),
                  qs.check_condition3(slds, tol))
        c2p = [qs.verify_condition2prime(model, group, w, tol=max(tol, 1e-8))
               for w in _witnesses(model)]
        reports = [cond.condition_reports(group, dec, slds, model=model, diagnostics=diagnostics)
                   for diagnostics in (False, True)]
        for i, k in enumerate(rows.tolist()):
            out[k] = (group.row(i), dec.row(i),
                      qs.SLDSet(slds.Lpp[i], slds.Lpz[i], slds.full[i], slds.q[i]), f_q[i],
                      [c[i] for c in checks], [c[i] for c in c2p], [r[i] for r in reports])
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CASES), st.sampled_from(SCHEMES), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_stacked_rows_equal_single_point_calls(case, scheme, size, seed):
    name, params = case
    model = qs.get(name, **params)
    _rows_equal_single_calls(model, _points(model, name, size, seed), scheme)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SCHEMES), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_stacks_split_into_rank_groups(scheme, size, seed):
    model = _rank_switch()
    _rows_equal_single_calls(model, _points(model, model.name, size, seed), scheme)


def _rows_equal_single_calls(model, thetas, scheme):
    singles = []
    for theta in thetas:
        try:
            singles.append(_single(model, theta, scheme))
        except QcrbSatError as exc:
            singles.append(exc)
    ok = [i for i, s in enumerate(singles) if not isinstance(s, QcrbSatError)]
    if len(ok) < len(thetas):
        with pytest.raises(QcrbSatError):
            _stacked(model, thetas, scheme)
    if not ok:
        return
    for i, got in zip(ok, _stacked(model, thetas[ok], scheme)):
        sp, dec, slds, f_q, checks, c2p, reports = singles[i]
        g_sp, g_dec, g_slds, g_f_q, g_checks, g_c2p, g_reports = got
        for a, b in ((sp.theta, g_sp.theta), (sp.rho, g_sp.rho), (sp.drho, g_sp.drho),
                     (dec.q, g_dec.q), (dec.V, g_dec.V), (dec.Y, g_dec.Y),
                     (dec.P_plus, g_dec.P_plus), (slds.Lpp, g_slds.Lpp),
                     (slds.Lpz, g_slds.Lpz), (slds.full, g_slds.full), (f_q, g_f_q)):
            _same(a, b)
        assert list(checks) == g_checks
        assert [dataclasses.asdict(r) for r in c2p] == [dataclasses.asdict(r) for r in g_c2p]
        assert [_text(r) for r in reports] == [_text(r) for r in g_reports]
        off, on = g_reports
        assert (off.full_comm, off.partial_comm, off.cond2prime) == (None, None, None)
        assert (on.full_comm, on.avg_comm, on.partial_comm, on.cond1, on.cond3) == tuple(checks)
        # the switch adds the three diagnostics and moves nothing else
        assert _text(dataclasses.replace(on, diagnostics=False)) == _text(off)


def _report(argv):
    args = cli.build_parser().parse_args(argv)
    try:
        out = cli._COMMANDS[args.command](args)
    except QcrbSatError as exc:
        out = {"error": exc.to_dict()}
    text = []
    jsonio.dump(out, text.append)
    return json.loads("".join(text))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 7),
       st.sampled_from(["analytic", "central_fd", "richardson"]))
def test_chunked_sweep_entries_are_the_analyze_reports(n1, n2, chunk, scheme):
    # chunks of `chunk` points; theta_1 = 0 fails and theta_1 = 5e-6 leaves condition 2' unchecked
    base = ["--model", "qutrit-phase-mixture", "--params", "d=0.3+0.4j,c1=1,c2=0.7",
            "--scheme", scheme, "--seed", "3"]
    grid = f"0.0:0.8:{n1},5e-6:0.9:{n2}"
    old = cli.SWEEP_ENTRIES
    try:
        cli.SWEEP_ENTRIES = chunk * (4 + 2) * 2 * 3 * 3
        sweep = _report(["sweep", *base, "--grid", grid])["sweep"]
    finally:
        cli.SWEEP_ENTRIES = old
    thetas = [(float(a), float(b)) for a in np.linspace(0.0, 0.8, n1)
              for b in np.linspace(5e-6, 0.9, n2)]
    assert len(sweep) == len(thetas)
    for (a, b), entry in zip(thetas, sweep):
        direct = _report(["analyze", *base, "--theta", f"{a!r},{b!r}"])
        if "error" in direct:
            assert entry == {"theta": [a, b], "error": direct["error"]}
        else:
            assert entry == direct


def _same_cond4(got, want):
    assert (got.status, got.column_status, repr(got.residual), got.tol, got.notes) == (
        want.status, want.column_status, repr(want.residual), want.tol, want.notes)
    for a, b in ((got.W, want.W), (got.lambdas, want.lambdas)):
        assert (a is None) == (b is None)
        if a is not None:
            _same(a, b)


def _stacked_cond4(lpz, floors, tol=1e-8):
    """The stacked W search of ``lpz``, each row checked against `find_w_condition4` alone."""
    lpz, floors = np.array(lpz, dtype=complex), np.array(floors, dtype=float)
    got = cond._find_w_stack(lpz, tol, floors)
    for block, floor, res in zip(lpz, floors, got):
        _same_cond4(res, cond.find_w_condition4(block, tol, scale_floor=floor))
    return [r.status for r in got]


def _model_blocks(name, params, thetas):
    """The +0 blocks and SLD scales of a registry model at each point, one point at a time."""
    model = qs.get(name, **params)
    blocks, floors = [], []
    for theta in thetas:
        sp = qs.evaluate(model, theta)
        slds = qs.compute_sld(qs.support_decomposition(sp), sp.drho, sld_tol=sp.deriv_tol)
        blocks.append(slds.Lpz)
        floors.append(max(nk.fro(f) for f in slds.full))
    return blocks, floors


def _pure_qutrit_blocks(theta):
    sp = pure_real_multinomial_point(theta)
    return qs.compute_sld(qs.support_decomposition(sp), sp.drho).Lpz


@pytest.mark.parametrize("name, params, statuses", [
    ("diag-multinomial", {"dims": 3}, {cond.COND4_YES}),  # r0 = 0
    ("qutrit-phase-mixture", {"d": 0.6, "c1": 1.0, "c2": 0.7}, {cond.COND4_YES}),  # r0 = 1
    ("qutrit-phase-mixture", {"d": 0.3 + 0.4j, "c1": 1.0, "c2": 0.7}, {cond.COND4_YES}),
    ("pure-qubit-amp-phase", {}, {cond.COND4_UNKNOWN}),  # r+ = r0 = 1
])
def test_stacked_w_search_on_model_points(name, params, statuses):
    model = qs.get(name, **params)
    thetas = _points(model, name, 12, seed=4)
    assert set(_stacked_cond4(*_model_blocks(name, params, thetas))) == statuses


@pytest.mark.parametrize("planted", [True, False])
def test_stacked_w_search_on_random_rank_r(planted):
    # r0 > 1: one instance per seed at its consistent center, all of one shape
    blocks, floors = [], []
    for seed in range(1, 6):
        b, f = _model_blocks("random-rank-r", {"seed": seed, "n_s": 8, "r_plus": 4,
                                               "n_params": 3, "plant_cond4": planted},
                             [np.zeros(3)])
        blocks += b
        floors += f
    want = cond.COND4_YES if planted else cond.COND4_UNKNOWN
    assert set(_stacked_cond4(blocks, floors)) == {want}


def test_stacked_w_search_mixes_candidates():
    rng = np.random.default_rng(2)
    # r+ = 1, r0 = 2, the real-rows candidate: it aligns one live column, the pure qutrit and
    # the planted rows; random rows get UNKNOWN; zeros are vacuous
    phase = np.exp(0.7j)
    one_column = np.array([[[0.3 * phase, 0.0]], [[-0.7 * phase, 0.0]]])
    random_rows = rng.standard_normal((2, 1, 2)) + 1j * rng.standard_normal((2, 1, 2))
    rows = [one_column, _pure_qutrit_blocks((0.3, 0.45)), random_rows,
            _planted_blocks(rng, 2, 1, 2)[0], np.zeros((2, 1, 2)),
            _pure_qutrit_blocks((0.1, 0.6))]
    statuses = _stacked_cond4(rows, [0.0, 0.0, 1.0, 0.0, 1.0, 0.5])
    assert statuses == ["CERTIFIED_YES", "CERTIFIED_YES", "UNKNOWN", "CERTIFIED_YES",
                        "CERTIFIED_YES", "CERTIFIED_YES"]
    # r+ = r0 = 2: planted (pinv), crafted and a mixed column (UNKNOWN), zero and roundoff
    # blocks (vacuous)
    blocks = [_planted_blocks(rng, 2, 2, 2)[0], crafted_cond3_pass_cond4_fail(),
              _planted_blocks(rng, 2, 2, 2, vanish=1)[0], np.zeros((2, 2, 2)),
              _mixed_blocks(rng)[0][:2, :2, :2], 1e-12 * _planted_blocks(rng, 2, 2, 2)[0]]
    statuses = _stacked_cond4(blocks, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    assert statuses == ["CERTIFIED_YES", "UNKNOWN", "CERTIFIED_YES", "CERTIFIED_YES", "UNKNOWN",
                        "CERTIFIED_YES"]
    # r+ = r0 = 1, the identity alone: real rows, complex rows (UNKNOWN)
    z = rng.standard_normal((3, 2, 1, 1)) + 1j * rng.standard_normal((3, 2, 1, 1))
    assert _stacked_cond4([z[0].real, z[1], z[2]], [0.0] * 3) == [
        "CERTIFIED_YES", "UNKNOWN", "UNKNOWN"]


def test_stacked_w_search_all_vacuous():
    assert _stacked_cond4(np.zeros((4, 2, 2, 3)), [0.0, 1.0, 2.0, 0.0]) == ["CERTIFIED_YES"] * 4
    tiny = 1e-12 * np.ones((3, 2, 2, 2))
    assert _stacked_cond4(tiny, [1.0] * 3) == ["CERTIFIED_YES"] * 3


@pytest.mark.parametrize("name, params", [
    ("qutrit-phase-mixture", {"d": 0.6, "c1": 1.0, "c2": 0.7}),  # r0 = 1
    ("pure-qubit-amp-phase", {}),  # r+ = r0 = 1
    ("diag-multinomial", {"dims": 3}),  # r0 = 0
])
def test_w_search_below_two_null_directions_tries_the_identity_alone(monkeypatch, name, params):
    model = qs.get(name, **params)
    blocks, floors = _model_blocks(name, params, _points(model, name, 6, seed=8))

    def refused(*args):
        raise AssertionError("the pinv construction ran at r0 <= 1")

    monkeypatch.setattr(cond, "_candidate_w_pinv", refused)
    got = cond._find_w_stack(np.array(blocks), 1e-8, np.array(floors))
    assert all(r.W is None or np.array_equal(r.W, np.eye(r.W.shape[0])) for r in got)
