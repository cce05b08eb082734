"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing
one PASS or FAIL line per criterion (run with ``pytest -s`` to see them).
Expected values come from the independent oracles in ``oracles.py`` or
closed forms, never from the code paths under test.
"""

import functools
import time

import numpy as np
import pytest

import qcrbsat as qs
from qcrbsat import conditions as cond
from qcrbsat import fisher as fi
from qcrbsat import numkernel as nk
from qcrbsat import povm as pv
from qcrbsat.conditions import verify_condition2prime
from oracles import cond4_grid_oracle, multinomial_fisher

D, C1, C2 = 0.6, 1.0, 0.7
GRID = np.linspace(0.1, 0.9, 5)


def criterion(n, desc):
    """Print one PASS/FAIL line per criterion (visible with pytest -s)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {n} FAIL: {desc}")
                raise
            print(f"\nACCEPTANCE {n} PASS: {desc}")

        return wrapper

    return deco


def _pipeline(model, theta, scheme="auto", tol=None):
    sp = qs.evaluate(model, theta, scheme=scheme)
    tol = tol if tol is not None else sp.deriv_tol
    dec = qs.support_decomposition(sp)
    slds = qs.compute_sld(dec, sp.drho, sld_tol=tol)
    f_q = qs.qfim(dec, slds)
    rep = qs.evaluate_conditions(sp, dec, slds, tol=tol)
    return sp, dec, slds, f_q, rep


@criterion(1, "5x5 grid certified; 3-element projective POVM saturates "
              "(<=1e-8 analytic, <=1e-4 central FD), <=1s per point")
def test_criterion_1_qutrit_grid_end_to_end():
    model = qs.get("paper-qutrit", d=D, c1=C1, c2=C2)
    for scheme, tol in (("analytic", 1e-8), ("central_fd", 1e-4)):
        for t1 in GRID:
            for t2 in GRID:
                start = time.perf_counter()
                sp, dec, slds, f_q, rep = _pipeline(model, [t1, t2], scheme=scheme, tol=tol)
                assert rep.verdict == "SATURABLE_CERTIFIED", (scheme, t1, t2)
                povm = pv.construct_optimal(dec, slds, W=rep.cond4.W, tol=tol)
                assert povm.n_outcomes == 3
                assert pv.validate(povm)["projective"]
                dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)
                f_c = fi.classical_fim(dist)
                gap = np.linalg.norm(f_q - f_c, 2)
                assert gap <= tol * np.linalg.norm(f_q, 2), (scheme, t1, t2, gap)
                assert time.perf_counter() - start <= 1.0


@criterion(2, "||L2_pp|| <= 1e-10 and the +0 blocks are proportional with "
              "real ratio c1/c2 to 1e-10 across the grid")
def test_criterion_2_structural_identities():
    # The proportionality direction follows the verified block computation:
    # L_{theta1,+0} = (c1/c2) L_{theta2,+0}, equivalently
    # L_{theta2,+0} = (c2/c1) L_{theta1,+0}.
    model = qs.get("paper-qutrit", d=D, c1=C1, c2=C2)
    for t1 in GRID:
        for t2 in GRID:
            _, _, slds, _, _ = _pipeline(model, [t1, t2])
            lpz1, lpz2 = slds.Lpz
            assert nk.fro(slds.Lpp[1]) <= 1e-10
            assert nk.fro(lpz2 - (C2 / C1) * lpz1) <= 1e-10 * nk.fro(lpz2)
            ratio = np.vdot(lpz2.ravel(), lpz1.ravel()).real / np.vdot(
                lpz2.ravel(), lpz2.ravel()
            ).real
            assert abs(ratio - C1 / C2) <= 1e-10


@criterion(3, "diag-multinomial at (1/3,1/3): F_Q = F_c = [[6,3],[3,6]] "
              "to 1e-10 against the multinomial oracle")
def test_criterion_3_full_rank_oracle():
    model = qs.get("diag-multinomial", dims=3)
    theta = [1 / 3, 1 / 3]
    sp, dec, slds, f_q, rep = _pipeline(model, theta)
    povm = pv.construct_optimal(dec, slds, W=rep.cond4.W)
    dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)
    f_c = fi.classical_fim(dist)
    oracle = multinomial_fisher(theta)
    assert np.abs(oracle - [[6, 3], [3, 6]]).max() <= 1e-12
    assert np.abs(f_q - oracle).max() <= 1e-10
    assert np.abs(f_c - oracle).max() <= 1e-10


@criterion(4, "pure qubit: NOT_SATURABLE, |tr(rho[L1,L2])| = 8 sin(t1)cos(t1) "
              "to 1e-8, and all 20 random projective POVMs fail the certificate")
def test_criterion_4_negative_control():
    model = qs.get("pure-qubit-amp-phase")
    for t1 in np.linspace(0.15, 1.35, 5):
        sp, dec, slds, _, rep = _pipeline(model, [t1, 0.4])
        assert rep.verdict == "NOT_SATURABLE"
        closed_form = 8.0 * np.sin(t1) * np.cos(t1)
        assert rep.avg_comm.residual * rep.avg_comm.scale == pytest.approx(closed_form, abs=1e-8)
    sp, dec, slds, _, _ = _pipeline(model, [0.7, 0.2])
    failures = 0
    for seed in range(20):
        povm = pv.random_projective_povm(2, np.random.default_rng(100 + seed))
        cert = pv.verify_saturation_structural(povm, dec, slds)
        failures += 0 if cert.passed else 1
    assert failures == 20


@criterion(5, "200 seeded instances: cond4=YES => cond3, and cond1 & cond3 => "
              "partial commutativity; zero violations")
def test_criterion_5_implication_metamorphics():
    checked = 0
    violations = 0
    for seed in range(200):
        kind = seed % 3
        m = qs.get(
            "random-rank-r",
            seed=seed,
            n_s=4 + (seed % 2),
            r_plus=2 + (seed % 2),
            n_params=2 + (seed % 2),
            plant_cond1=kind != 1,
            plant_cond4=kind != 2,
        )
        sp = qs.evaluate(m, np.zeros(m.n_params))
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds, diagnostics=True)
        if rep.cond4.status == "CERTIFIED_YES" and not rep.cond3.passed:
            violations += 1
        if rep.cond1.passed and rep.cond3.passed and not rep.partial_comm.passed:
            violations += 1
        checked += 1
    assert checked == 200
    assert violations == 0


def _criterion6_pairs():
    """Every fixture x measurement pair exercised by the suite."""
    pairs = []
    fixtures_at = [
        ("paper-qutrit", dict(d=D, c1=C1, c2=C2), [0.3, 0.5]),
        ("paper-qutrit", dict(d=D, c1=C1, c2=C2), [0.62, 0.41]),
        ("diag-multinomial", dict(dims=3), [1 / 3, 1 / 3]),
        ("diag-multinomial", dict(dims=3), [0.2, 0.5]),
        ("pure-qubit-amp-phase", {}, [0.7, 0.2]),
        ("theta-independent-support", {}, [0.3, 0.45]),
        ("stationary-basis", {}, [0.4, 0.25]),
        ("random-rank-r", dict(seed=2), [0.0, 0.0]),
        ("random-rank-r", dict(seed=8, n_s=5, r_plus=3), [0.0, 0.0]),
    ]
    for name, params, theta in fixtures_at:
        model = qs.get(name, **params)
        sp, dec, slds, f_q, rep = _pipeline(model, theta)
        n = sp.dim
        povms = []
        if rep.verdict == "SATURABLE_CERTIFIED":
            povms.append(
                pv.construct_optimal(dec, slds, W=rep.cond4.W)
            )
        povms.append(pv.POVM(elements=[np.diag(r).astype(complex) for r in np.eye(n)]))
        povms.append(pv.POVM(elements=[np.eye(n)]))
        povms.append(pv.random_projective_povm(n, np.random.default_rng(5)))
        povms.append(pv.random_projective_povm(n, np.random.default_rng(6)))
        povms.append(pv.random_povm(n, n + 1, np.random.default_rng(7)))
        for povm in povms:
            pairs.append((name, theta, sp, dec, slds, f_q, povm))
    return pairs


@criterion(6, "structural certificate and Fisher-equality verdicts agree on "
              "every fixture x measurement pair")
def test_criterion_6_structural_iff_fisher_equality():
    disagreements = []
    total = 0
    for name, theta, sp, dec, slds, f_q, povm in _criterion6_pairs():
        pv.classify_elements(povm, sp.rho, dec)
        cert = pv.verify_saturation_structural(povm, dec, slds)
        dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)
        f_c = fi.classical_fim(dist)
        cmp_ = fi.compare(f_c, f_q, tol=1e-8)
        total += 1
        if cert.passed != cmp_.saturated:
            disagreements.append((name, theta, cert.passed, cmp_.saturated))
    assert not disagreements, disagreements


@criterion(7, "PDE witness and null-rotation residuals <= 1e-8; "
              "L_{+0} = 2 dV^dag Y holds to 1e-8 on every basis-map fixture")
def test_criterion_7_basis_map_identities():
    # witness check on the qutrit family
    model = qs.get("corrigendum-lcss", d=D, c1=C1, c2=C2)
    sp = qs.evaluate(model, [0.3, 0.5])
    res = verify_condition2prime(model, sp, model.witness)
    assert res.status == "PASSED"
    assert res.pde_residual <= 1e-8
    assert res.stationarity_residual <= 1e-8

    # cross identity L_{+0} = 2 dV^dag Y on every fixture exposing a basis map
    h = 1e-5
    for name, params, theta in [
        ("paper-qutrit", dict(d=D, c1=C1, c2=C2), [0.3, 0.5]),
        ("paper-qutrit", dict(d=0.3 + 0.4j, c1=0.8, c2=-1.2), [0.55, 0.25]),
        ("theta-independent-support", {}, [0.3, 0.45]),
        ("stationary-basis", {}, [0.4, 0.25]),
    ]:
        model = qs.get(name, **params)
        theta = np.asarray(theta, float)
        sp = qs.evaluate(model, theta)
        v_fn = model.support_basis_fn
        dec = qs.decomposition_from_basis(sp, v_fn(theta))
        slds = qs.compute_sld(dec, sp.drho)
        for l in range(sp.n_params):
            e = np.zeros_like(theta)
            e[l] = h
            dv = (v_fn(theta + e) - v_fn(theta - e)) / (2 * h)
            ident = 2.0 * dv.conj().T @ dec.Y
            assert nk.fro(slds.Lpz[l] - ident) <= 1e-8 * max(1.0, nk.fro(slds.Lpz[l])), (
                name, l,
            )


@criterion(8, "10^6 samples in <=10s: every empirical entry within 5 standard "
              "errors of F_c; counts reproduce under the fixed seed")
def test_criterion_8_monte_carlo():
    start = time.perf_counter()
    model = qs.get("paper-qutrit", d=D, c1=C1, c2=C2)
    sp, dec, slds, f_q, rep = _pipeline(model, [0.3, 0.5])
    povm = pv.construct_optimal(dec, slds, W=rep.cond4.W)
    dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)
    f_c = fi.classical_fim(dist)
    rec = fi.simulate(dist, trials=1_000_000, seed=42)
    assert np.all(np.abs(rec.fim_estimate - f_c) <= 5.0 * rec.fim_stderr + 1e-12)
    rec2 = fi.simulate(dist, trials=1_000_000, seed=42)
    assert np.array_equal(rec.counts, rec2.counts)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0


@criterion(9, "50 planted r0=2 instances: CERTIFIED_YES with W verified to "
              "1e-8 and grid-oracle agreement; CERTIFIED_NO only with a "
              "failed condition 3")
def test_criterion_9_condition4_solver_soundness():
    oracle_threshold = 0.05  # grid-resolution limited; calibrated margin >5x
    for seed in range(50):
        m = qs.get("random-rank-r", seed=seed, n_s=4, r_plus=2, n_params=2)
        sp = qs.evaluate(m, [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        assert dec.r_zero == 2
        slds = qs.compute_sld(dec, sp.drho)
        res = cond.find_w_condition4(slds.Lpz)
        assert res.status == "CERTIFIED_YES", seed
        ok, _, _, worst = cond.verify_condition4_with_w(slds.Lpz, res.W)
        assert ok and worst <= 1e-8
        oracle_res, _ = cond4_grid_oracle(slds.Lpz)
        assert oracle_res <= oracle_threshold, (seed, oracle_res)

    # refutations stay sound: NO appears only with a failed condition 3,
    # and the exhaustive oracle finds no W either
    no_count = 0
    for seed in range(20):
        m = qs.get("random-rank-r", seed=1000 + seed, n_s=4, r_plus=2,
                   plant_cond1=False, plant_cond4=False)
        sp = qs.evaluate(m, [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        if rep.cond4.status == "CERTIFIED_NO":
            no_count += 1
            assert not rep.cond3.passed
            oracle_res, _ = cond4_grid_oracle(slds.Lpz)
            assert oracle_res > oracle_threshold
    assert no_count > 0
