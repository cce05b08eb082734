import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcrbsat as qs
from qcrbsat import conditions as cond
from qcrbsat import model as md
from qcrbsat import numkernel as nk
from qcrbsat.errors import InvalidToleranceError, QcrbSatError
from qcrbsat.sld import SLDSet
from oracles import (
    average_commutativity_loop,
    cond4_grid_oracle,
    condition1_loop,
    condition3_loop,
    full_commutativity_loop,
    partial_commutativity_loop,
    pure_state_avg_comm,
    qfim_loop,
    support_norms_loop,
    verify_condition2prime_loop,
    verify_condition4_with_w_loop,
)


def pure_real_multinomial_point(theta=(0.3, 0.45)):
    """Pure state with real sqrt-probability amplitudes; saturable, r+ = 1."""
    theta = np.asarray(theta, dtype=float)
    amp = np.sqrt(np.concatenate([theta, [1.0 - theta.sum()]]))
    rho = np.outer(amp, amp).astype(complex)

    def damp(l):
        d = np.zeros(3)
        d[l] = 0.5 / amp[l]
        d[2] = -0.5 / amp[2]
        return d

    drho = np.array(
        [np.outer(damp(l), amp) + np.outer(amp, damp(l)) for l in range(2)], dtype=complex
    )
    return md.StateAtPoint(theta=theta, rho=rho, drho=drho, scheme="analytic")


def crafted_cond3_pass_cond4_fail():
    """+0 blocks with orthogonal images: condition 3 holds, no W can exist."""
    return [
        np.array([[-2j, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [0, -2j]], dtype=complex),
    ]


class TestElementaryChecks:
    def test_single_parameter_all_pass(self):
        m = qs.get("diag-multinomial", dims=2)
        sp = qs.evaluate(m, [0.4])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds, diagnostics=True)
        assert rep.full_comm.passed and rep.avg_comm.passed and rep.partial_comm.passed
        assert rep.verdict == cond.VERDICT_SATURABLE

    def test_diagonal_family_full_commutativity(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.2, 0.5])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        assert cond.check_full_commutativity(slds).passed

    def test_pure_qubit_fails_full_and_average(self, pure_qubit_model):
        theta = np.array([np.pi / 4, 0.3])
        sp = qs.evaluate(pure_qubit_model, theta)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        assert not cond.check_full_commutativity(slds).passed
        avg = cond.check_average_commutativity(sp.rho, slds)
        assert not avg.passed
        assert avg.worst_pair == (0, 1)  # the only pair
        assert avg.residual * avg.scale == pytest.approx(4.0, abs=1e-10)
        psi = np.array([np.cos(theta[0]), np.exp(1j * theta[1]) * np.sin(theta[0])])
        dpsi = [
            np.array([-np.sin(theta[0]), np.exp(1j * theta[1]) * np.cos(theta[0])]),
            np.array([0.0, 1j * np.exp(1j * theta[1]) * np.sin(theta[0])]),
        ]
        assert avg.residual * avg.scale == pytest.approx(
            pure_state_avg_comm(psi, dpsi[0], dpsi[1]), abs=1e-10
        )

    def test_qutrit_passes_everything(self, qutrit_point, qutrit_dec, qutrit_slds):
        rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds, diagnostics=True)
        assert rep.partial_comm.residual <= 1e-10
        assert rep.cond1.passed and rep.cond3.passed
        assert rep.cond4.status == cond.COND4_YES
        assert rep.cond4.W.shape == (1, 1)
        assert rep.cond4.lambdas[0, 1, 0] == pytest.approx(1.0 / 0.7, abs=1e-10)
        assert rep.verdict == cond.VERDICT_SATURABLE

    def test_full_rank_partial_equals_full(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.2, 0.3])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        full = cond.check_full_commutativity(slds)
        part = cond.check_partial_commutativity(dec, slds)
        assert abs(full.residual - part.residual) <= 1e-12

    def test_ties_keep_the_first_pair(self):
        # L = (sigma_z, sigma_z, sigma_x) on a full-rank qubit: pair (0, 1) commutes, and
        # (0, 2) and (1, 2) have the same commutator and the same scale s_l s_m = 2
        z, x = np.diag([1.0, -1.0]).astype(complex), np.array([[0, 1], [1, 0]], dtype=complex)
        lpp = np.array([z, z, x])
        slds = SLDSet(Lpp=lpp, Lpz=np.zeros((3, 2, 0), dtype=complex), full=lpp,
                      q=np.array([0.5, 0.5]))
        for check in (cond.check_condition1(slds), cond.check_full_commutativity(slds),
                      cond.check_partial_commutativity(None, slds)):
            assert check.worst_pair == (0, 2)
            assert check.scale == pytest.approx(2.0, rel=1e-15)
            assert check.residual == pytest.approx(np.sqrt(8.0) / 2.0, rel=1e-15)


def test_constructor_built_report_writes_the_diagnostics_null(
        qutrit_model, qutrit_point, qutrit_dec, qutrit_slds):
    # a caller that runs each check itself and builds the report from them, with no flag
    sp, dec, slds = qutrit_point, qutrit_dec, qutrit_slds
    witness = qutrit_model.witness
    scale = max(nk.fro(full) for full in slds.full)
    rep = cond.ConditionReport(
        regime="rank_deficient", full_comm=cond.check_full_commutativity(slds),
        avg_comm=cond.check_average_commutativity(sp.rho, slds),
        partial_comm=cond.check_partial_commutativity(dec, slds),
        cond1=cond.check_condition1(slds), cond3=cond.check_condition3(slds),
        cond4=cond.find_w_condition4(slds.Lpz, scale_floor=scale),
        cond2prime=cond.verify_condition2prime(qutrit_model, sp, witness, null_povm=None))
    rep.verdict, rep.reasoning = cond.verdict(rep, dec.r_plus, dec.r_zero)
    written = rep.to_dict()
    assert [written[k] for k in ("full_commutativity", "partial_commutativity",
                                 "condition2prime")] == [None] * 3
    kw = dict(model=qutrit_model)
    assert written == qs.evaluate_conditions(sp, dec, slds, **kw).to_dict()
    on = dataclasses.replace(rep, diagnostics=True).to_dict()
    assert on == qs.evaluate_conditions(sp, dec, slds, **kw, diagnostics=True).to_dict()
    assert on["condition2prime"] == rep.cond2prime.to_dict()


@pytest.mark.parametrize("diagnostics", [False, True])
def test_commutators_only_for_the_full_diagnostic(qutrit_point, qutrit_dec, diagnostics):
    # the default path reads average commutativity off the weighted trace, not a commutator
    sp, dec = qutrit_point.row(None), qutrit_dec.row(None)
    slds = qs.compute_sld(dec, sp.drho)
    cond.condition_reports(sp, dec, slds, diagnostics=diagnostics)
    assert ("commutators" in slds.__dict__) == diagnostics


class TestPartialCommutativityImplied:
    """Partial commutativity adds no decision to conditions 1 and 3.

    Its matrix ``A_lm - A_ml + B_lm - B_ml`` is the sum of condition 1's and
    condition 3's, so by the triangle inequality its worst normalized
    residual is at most the sum of theirs. It is also the ++ block of the
    full commutator ``[L_l, L_m]``, so its Frobenius norm is at most the
    full one. Both hold in exact arithmetic; the test allows
    ``SLACK_PER_DIM * n_s * eps`` on the residuals, which are in units of
    ``s_l s_m``. The full SLDs are assembled from the blocks in the
    n_s-dimensional basis and have Frobenius norm at most sqrt(2) s_l, so
    each of the matrix products a residual sums is off by at most
    gamma_{n_s} ||X|| ||Y|| <= n_s eps s_l s_m (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.5), and a
    residual sums four of them besides the assembly and the norm's own
    rounding. Equal-in-exact-arithmetic residuals were seen 7 eps apart at
    n_s <= 8.
    """

    SLACK_PER_DIM = 8

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 8), st.data())
    def test_partial_residual_bounded(self, seed, n_s, data):
        r_plus = data.draw(st.integers(1, n_s), label="r_plus")
        p = data.draw(st.integers(2, 4), label="n_params")
        m = qs.get("random-rank-r", seed=seed, n_s=n_s, r_plus=r_plus, n_params=p,
                   plant_cond1=data.draw(st.booleans(), label="plant_cond1"), plant_cond4=False)
        sp = qs.evaluate(m, np.zeros(p))
        dec = qs.support_decomposition(sp)
        rep = qs.evaluate_conditions(sp, dec, qs.compute_sld(dec, sp.drho), diagnostics=True)
        slack = self.SLACK_PER_DIM * n_s * np.finfo(float).eps
        partial = rep.partial_comm.residual
        assert partial <= rep.cond1.residual + rep.cond3.residual + slack
        assert partial <= rep.full_comm.residual + slack


class TestCondition4:
    def test_all_zero_blocks_vacuous_yes(self):
        lpz = [np.zeros((2, 2), dtype=complex) for _ in range(2)]
        res = cond.find_w_condition4(lpz)
        assert res.status == cond.COND4_YES
        assert res.column_status == ["vacuous", "vacuous"]

    def test_planted_roundtrip(self):
        rng = np.random.default_rng(17)
        frame = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
        w0 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        mu = np.array([[0.7, -0.4], [0.3, 0.9], [-0.5, 0.6]])
        lpz = [(frame * mu[l]) @ w0.conj().T for l in range(3)]
        res = cond.find_w_condition4(lpz)
        assert res.status == cond.COND4_YES
        ok, lam, _, worst = cond.verify_condition4_with_w(lpz, res.W)
        assert ok and worst <= 1e-10
        assert lam[0, 1, 0] == pytest.approx(lam[0, 1, 0].real)

    def test_certified_no_only_on_cond3_failure(self):
        # the W search alone never refutes; the report reads CERTIFIED_NO
        # off a failed condition 3, with condition 3's residual
        sp, dec, slds = _random_family(2, 5, 3, False, seed=23)
        assert cond.find_w_condition4(slds.Lpz).status == cond.COND4_UNKNOWN
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert not rep.cond3.passed
        assert rep.cond4.status == cond.COND4_NO
        assert rep.cond4.residual == rep.cond3.residual
        assert rep.cond4.W is None and "cross-product condition" in rep.cond4.notes[0]
        # and the refutation is sound: condition 3 really fails
        a = slds.Lpz[0] @ slds.Lpz[1].conj().T - slds.Lpz[1] @ slds.Lpz[0].conj().T
        assert nk.fro(a) > 1e-3 * slds.scales[0] * slds.scales[1]

    def test_unknown_when_cond3_passes_but_no_w(self):
        res = cond.find_w_condition4(crafted_cond3_pass_cond4_fail())
        assert res.status == cond.COND4_UNKNOWN

    def test_unknown_keeps_the_smallest_residual(self):
        # a mixed column refuses every candidate; the pinv one comes closest, ahead of the identity
        lpz = _mixed_blocks(np.random.default_rng(2))[0]
        ref = np.argmax(np.linalg.norm(lpz, axis=(1, 2)))
        ws, found = cond._candidate_w_pinv(lpz[None], ref[None], 1e-8)
        tried = [cond.verify_condition4_with_w(lpz, w)[3] for w in (ws[0], np.eye(2))]
        assert found[0] and tried[0] < tried[1]
        res = cond.find_w_condition4(lpz)
        assert res.status == cond.COND4_UNKNOWN and res.residual == min(tried)

    def test_vanishing_columns(self):
        lpz = _planted_blocks(np.random.default_rng(9), 3, 3, 2, vanish=1)[0]
        sp = _point_from_plus_null(lpz, np.random.default_rng(9))
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.cond4.status == cond.COND4_YES
        assert "vacuous" in rep.cond4.column_status

    def test_totally_real_path_on_pure_family(self):
        sp = pure_real_multinomial_point()
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.regime == "pure"
        assert rep.cond4.status == cond.COND4_YES
        assert rep.verdict == cond.VERDICT_SATURABLE

    def test_scaling_invariance(self, qutrit_slds):
        res1 = cond.find_w_condition4(qutrit_slds.Lpz)
        res2 = cond.find_w_condition4([3.0 * L for L in qutrit_slds.Lpz])
        assert res1.status == res2.status == cond.COND4_YES
        assert np.allclose(res1.lambdas, res2.lambdas, equal_nan=True)


# The scale corpus: saturable points (qutrit, planted), and the pure qubit and
# unplanted points, which a 1.0 scale floor certified once their SLDs were small.
CORPUS = {
    "pure-qubit": ("pure-qubit-amp-phase", {}, [0.7, 0.3]),
    "qutrit": ("qutrit-phase-mixture", {"d": 0.6, "c1": 1.0, "c2": 0.7}, [0.3, 0.5]),
    "planted-p2": ("random-rank-r", {"seed": 0, "n_s": 8, "r_plus": 4, "n_params": 2}, [0, 0]),
    "planted-p3": ("random-rank-r", {"seed": 0, "n_s": 8, "r_plus": 4, "n_params": 3}, [0, 0, 0]),
    "unplanted-p2": ("random-rank-r", {"seed": 3, "n_s": 6, "r_plus": 3, "n_params": 2,
                                       "plant_cond1": False}, [0, 0]),
    "unplanted-p3": ("random-rank-r", {"seed": 3, "n_s": 6, "r_plus": 3, "n_params": 3,
                                       "plant_cond1": False}, [0, 0, 0]),
}


def _corpus_point(name):
    model, params, theta = CORPUS[name]
    return qs.evaluate(qs.get(model, **params), np.array(theta, dtype=float))


def _with_drho(sp, drho):
    return md.StateAtPoint(theta=None, rho=sp.rho, drho=np.asarray(drho), scheme=sp.scheme)


def _analyze(sp, dec=None, slds=None):
    """The condition report; a certified point must also obey Gill–Massar.

    A saturating measurement has F_c = F_Q, and Gill–Massar bounds
    tr(F_Q^+ F_c) by d - 1, so no certified point has rank F_Q > d - 1.
    """
    dec = dec if dec is not None else qs.support_decomposition(sp)
    slds = slds if slds is not None else qs.compute_sld(dec, sp.drho)
    rep = qs.evaluate_conditions(sp, dec, slds)
    if rep.verdict == cond.VERDICT_SATURABLE:
        assert np.linalg.matrix_rank(qs.qfim(dec, slds)) <= sp.dim - 1
    return rep


def _scalings(p):
    """Uniform scalings of every SLD, then per-parameter ones spread over 1e6."""
    yield from (np.full(p, s) for s in (1e-6, 1e-3, 1e3, 1e6))
    yield np.logspace(-3, 3, p)
    yield np.logspace(3, -3, p)
    yield 10.0 ** np.random.default_rng(p).uniform(-3, 3, p)


class TestScaleNormalization:
    """Conditions 1, 3 and 4 are properties of the span of the SLDs: neither a
    reparametrization, nor a basis of the support or null space, nor the free
    00 block may move a verdict."""

    def test_flags_invariant_under_sld_scaling(self, qutrit_point, qutrit_dec, qutrit_slds):
        # residual thresholds scale with the operator norms, so rescaling
        # every SLD-derived quantity leaves all flags unchanged
        scaled = dataclasses.replace(
            qutrit_slds,
            Lpp=50.0 * qutrit_slds.Lpp,
            Lpz=50.0 * qutrit_slds.Lpz,
            full=50.0 * qutrit_slds.full,
        )
        for check in (cond.check_full_commutativity, cond.check_condition1, cond.check_condition3):
            assert check(scaled).passed == check(qutrit_slds).passed
        assert (
            cond.check_partial_commutativity(qutrit_dec, scaled).passed
            == cond.check_partial_commutativity(qutrit_dec, qutrit_slds).passed
        )

    @pytest.mark.parametrize("name", CORPUS)
    def test_diagonal_scalings_keep_verdict_and_residuals(self, name):
        sp = _corpus_point(name)
        base = _analyze(sp)
        for d in _scalings(sp.n_params):
            rep = _analyze(_with_drho(sp, d[:, None, None] * sp.drho))
            assert (rep.verdict, rep.cond4.status) == (base.verdict, base.cond4.status), d
            # residuals are already relative to s_l s_m, so 1e-12 is relative
            for got, ref in ((rep.cond1, base.cond1), (rep.cond3, base.cond3)):
                assert got.residual == pytest.approx(ref.residual, rel=1e-12, abs=1e-12), d

    @pytest.mark.xfail(strict=True, reason="the W verifier cuts vanishing +0 columns at tol "
                       "times one scale for all parameters, so a spread of SLD norms beyond "
                       "1/tol loses the condition-4 certificate")
    def test_condition4_under_wide_per_parameter_spread(self):
        sp = _corpus_point("planted-p2")
        rep = _analyze(_with_drho(sp, np.array([1.0, 1e8])[:, None, None] * sp.drho))
        assert rep.cond4.status == cond.COND4_YES

    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("seed", range(2))
    def test_verdict_invariant_under_bases_and_mixing(self, name, seed):
        sp = _corpus_point(name)
        base = _analyze(sp).verdict
        rng = np.random.default_rng(seed)
        p, n = sp.n_params, sp.dim
        a = rng.standard_normal((p, p)) + 2.0 * np.eye(p)
        assert _analyze(_with_drho(sp, np.einsum("lk,kij->lij", a, sp.drho))).verdict == base

        dec = qs.support_decomposition(sp)
        u = nk.haar_unitary(dec.r_zero, rng)
        rotated = dataclasses.replace(dec, Y=dec.Y @ u)
        assert _analyze(sp, dec=rotated).verdict == base

        w = nk.haar_unitary(n, rng)
        conj = md.StateAtPoint(theta=None, rho=w @ sp.rho @ w.conj().T,
                               drho=w @ sp.drho @ w.conj().T, scheme=sp.scheme)
        assert _analyze(conj).verdict == base


class TestGillMassar:
    """tr(F_Q^+ F_c) <= d - 1 for every single-copy measurement (Gill & Massar, PRA 61, 042312)."""

    @staticmethod
    def _gill_massar(sp, dec, slds, povm):
        from qcrbsat import fisher as fi

        f_c = fi.classical_fim(fi.outcome_distribution(sp.rho, sp.drho, povm, dec))
        return float(np.trace(np.linalg.pinv(qs.qfim(dec, slds)) @ f_c))

    @pytest.mark.parametrize("name", CORPUS)
    def test_random_and_constructed_measurements(self, name):
        from qcrbsat import povm as pv

        sp = _corpus_point(name)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        bound = (sp.dim - 1) * (1 + 1e-9)
        rng = np.random.default_rng(7)
        for _ in range(5):
            for povm in (pv.random_povm(sp.dim, sp.dim + 2, rng),
                         pv.random_projective_povm(sp.dim, rng)):
                assert self._gill_massar(sp, dec, slds, povm) <= bound
        rep = _analyze(sp, dec, slds)
        if rep.verdict == cond.VERDICT_SATURABLE:
            povm = pv.construct_optimal(dec, slds, W=rep.cond4.W, lambdas=rep.cond4.lambdas)
            assert self._gill_massar(sp, dec, slds, povm) <= bound


def _random_family(p, n_s, r_plus, planted, seed):
    model = qs.get("random-rank-r", seed=seed, n_s=n_s, r_plus=r_plus, n_params=p,
                   plant_cond1=planted, plant_cond4=planted and n_s - r_plus <= r_plus)
    sp = qs.evaluate(model, np.zeros(p))
    dec = qs.support_decomposition(sp)
    return sp, dec, qs.compute_sld(dec, sp.drho)


# (p, n_s, r_plus, planted): p = 1 has no pairs; r_plus = n_s has no null space.
FAMILIES = [
    (1, 5, 3, False), (2, 4, 4, False), (2, 6, 3, False), (2, 6, 3, True),
    (4, 6, 6, False), (4, 8, 4, False), (4, 8, 4, True),
]


class TestStackedAgainstReference:
    """The checks and the QFIM read off the pair-product stack equal the per-pair loops bit for bit."""

    @staticmethod
    def _variants(slds):
        yield slds
        yield dataclasses.replace(slds, Lpp=3.0 * slds.Lpp, Lpz=3.0 * slds.Lpz, full=3.0 * slds.full)

    @staticmethod
    def _same(check, ref, tol):
        residual, worst_pair, scale = ref[:3]
        assert check.passed == (residual <= tol)
        assert check.worst_pair == worst_pair
        assert check.scale == scale
        assert check.residual == residual

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_checks_equal_loop_reference(self, family, seed):
        sp, dec, slds = _random_family(*family, seed=seed)
        tol = 1e-8
        for s in self._variants(slds):
            p, n = family[:2]
            assert s.full.shape == (p, n, n) and s.commutators.shape == (p * (p - 1) // 2, n, n)
            scales = s.scales
            assert np.allclose(scales, support_norms_loop(s.Lpp, s.Lpz), rtol=1e-14, atol=0)
            ref = full_commutativity_loop(s.full, scales)
            self._same(cond.check_full_commutativity(s, tol), ref, tol)
            avg = cond.check_average_commutativity(sp.rho, s, tol)
            ref = average_commutativity_loop(sp.rho, dec.q, s.Lpp, s.Lpz, s.full, scales)
            self._same(avg, ref, tol)
            if avg.worst_pair is not None:
                assert avg.residual * avg.scale == pytest.approx(ref[3][avg.worst_pair], rel=1e-12)
            ref = partial_commutativity_loop(dec.P_plus, s.Lpp, s.Lpz, s.full, scales)
            assert ref[3] <= 1e-10
            self._same(cond.check_partial_commutativity(dec, s, tol), ref, tol)
            self._same(cond.check_condition1(s, tol), condition1_loop(s.Lpp, scales), tol)
            self._same(cond.check_condition3(s, tol), condition3_loop(s.Lpz, scales), tol)
            assert qs.qfim(dec, s).tobytes() == qfim_loop(dec.q, s.Lpp, s.Lpz).tobytes()
        if family[0] == 1:
            assert cond.check_full_commutativity(slds).worst_pair is None
            assert cond.check_condition3(slds).residual == 0.0

    @pytest.mark.parametrize("name, theta, checks", [
        ("diag-multinomial", [0.3, 0.45], ("full_commutativity", "average_commutativity",
                                           "partial_commutativity", "condition1", "condition3")),
        ("qutrit-phase-mixture", [0.3, 0.5], ("condition1",)),
    ])
    def test_no_worst_pair_no_scale(self, name, theta, checks):
        # with no pair of positive ratio, no s_l s_m is the worst one: the scale is null
        sp = qs.evaluate(qs.get(name), theta)
        dec = qs.support_decomposition(sp)
        report = qs.evaluate_conditions(sp, dec, qs.compute_sld(dec, sp.drho),
                                        diagnostics=True).to_dict()
        for key in checks:
            assert report[key]["worst_pair"] is None and report[key]["scale"] is None, key

    @pytest.mark.parametrize("seed", range(3))
    def test_w_search_refutation_reports_condition3(self, seed):
        sp, dec, slds = _random_family(3, 8, 4, False, seed)
        assert cond.find_w_condition4(slds.Lpz).status == cond.COND4_UNKNOWN
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.cond4.status == cond.COND4_NO
        assert rep.cond4.residual == rep.cond3.residual == cond.check_condition3(slds).residual


class TestImplicationChain:
    @pytest.mark.parametrize("seed", range(12))
    def test_metamorphic_implications(self, seed):
        plant1 = seed % 3 != 0
        plant4 = seed % 2 == 0
        m = qs.get(
            "random-rank-r", seed=seed, n_s=4, r_plus=2, n_params=2,
            plant_cond1=plant1, plant_cond4=plant4,
        )
        sp = qs.evaluate(m, [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds, diagnostics=True)
        if rep.cond4.status == cond.COND4_YES:
            assert rep.cond3.passed
        if rep.cond1.passed and rep.cond3.passed:
            assert rep.partial_comm.passed
        if rep.full_comm.passed:
            assert rep.partial_comm.passed


def _planted_blocks(rng, p, r_plus, r0, vanish=0, spread=0.0):
    """+0 blocks ``L_l = C Λ_l W0^dag`` and the planted ratios ``Λ_l / Λ_m``.

    C is a complex r+ x r0 matrix and Λ_l real diagonal with entries of
    modulus 0.2-1. The first ``vanish`` columns of every Λ_l vanish, and
    parameter l is scaled by ``10**e_l`` with the e_l spread over
    ``spread`` decades.
    """
    c = rng.standard_normal((r_plus, r0)) + 1j * rng.standard_normal((r_plus, r0))
    w0 = nk.haar_unitary(r0, rng)
    mu = rng.uniform(0.2, 1.0, (p, r0)) * rng.choice([-1.0, 1.0], (p, r0))
    mu[:, :vanish] = 0.0
    mu *= 10.0 ** rng.uniform(-spread / 2, spread / 2, (p, 1))
    lpz = np.array([(c * mu[l]) @ w0.conj().T for l in range(p)])
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = mu[:, None] / mu[None]
    lam[:, :, :vanish] = np.nan
    return lpz, w0, lam


def _point_from_plus_null(lpz, rng):
    """A state point at a random support of dimension r+ whose SLDs have the
    +0 blocks ``lpz`` (p, r+, r0) up to the gauge, and vanishing ++ blocks."""
    p, r_plus, r0 = lpz.shape
    u = nk.haar_unitary(r_plus + r0, rng)
    v, y = u[:, :r_plus], u[:, r_plus:]
    q = rng.uniform(0.5, 1.5, r_plus)
    q /= q.sum()
    cross = v @ (0.5 * q[:, None] * lpz) @ y.conj().T
    return md.StateAtPoint(theta=np.zeros(p), rho=(v * q) @ v.conj().T,
                           drho=cross + cross.conj().swapaxes(1, 2), scheme="analytic")


def _same_columns(got, planted, rtol):
    """The (p, p) ratio columns of ``got`` are those of ``planted`` up to column order."""
    unused = list(range(planted.shape[-1]))
    for s in range(got.shape[-1]):
        match = [t for t in unused if np.allclose(got[..., s], planted[..., t], rtol=rtol,
                                                  atol=0, equal_nan=True)]
        assert match, (s, got[..., s])
        unused.remove(match[0])


def _mixed_blocks(rng):
    """Planted blocks whose first column vanishes for parameter 0 only: no W aligns them."""
    lpz, w0, _ = _planted_blocks(rng, 3, 3, 2)
    c0 = lpz[0] @ w0
    c0[:, 0] = 0.0
    lpz[0] = c0 @ w0.conj().T
    return lpz, w0


class TestCondition4Verifier:
    """The stacked verifier against the per-column loop it replaced, and its unitarity check."""

    @staticmethod
    def _same(lpz, w, tol=1e-8, scale_floor=0.0):
        ok, lam, status, worst = cond.verify_condition4_with_w(lpz, w, tol, scale_floor)
        ok_ref, lam_ref, status_ref, worst_ref = verify_condition4_with_w_loop(
            list(lpz), w, tol, scale_floor)
        assert (ok, status) == (ok_ref, status_ref)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-14, atol=0)
        assert worst == pytest.approx(worst_ref, rel=1e-14, abs=1e-14)
        return ok, status

    @staticmethod
    def _cases():
        rng = np.random.default_rng(5)
        for family in FAMILIES:
            yield f"family{family}", _random_family(*family, seed=1)[2].Lpz
        for vanish in (1, 2):
            yield f"vanish{vanish}", _planted_blocks(np.random.default_rng(9), 3, 3, 3, vanish)[0]
        yield "mixed", _mixed_blocks(rng)[0]
        yield "crafted", np.array(crafted_cond3_pass_cond4_fail())
        yield "planted-spread", _planted_blocks(rng, 3, 4, 3, vanish=1, spread=6.0)[0]

    def test_equals_loop_reference(self):
        rng = np.random.default_rng(11)
        seen = set()
        for name, lpz in self._cases():
            r0 = lpz.shape[-1]
            if r0 == 0:
                continue
            ws = [np.eye(r0), nk.haar_unitary(r0, rng)]
            found = cond.find_w_condition4(lpz)
            if found.W is not None:
                ws.append(found.W)
            for w in ws:
                for scale_floor in (0.0, 10.0 * nk.fro(lpz)):
                    ok, status = self._same(lpz, w, scale_floor=scale_floor)
                    seen.update(status)
                    seen.add(ok)
        assert seen == {True, False, "proportional", "vacuous", "mixed"}

    def test_mixed_column_fails_with_its_norm(self):
        lpz, w0 = _mixed_blocks(np.random.default_rng(2))
        ok, lam, status, worst = cond.verify_condition4_with_w(lpz, w0)
        assert not ok and status == ["mixed", "proportional"]
        norms = np.linalg.norm(lpz @ w0, axis=1)
        assert worst == pytest.approx(norms[:, 0].max() / norms.max(), rel=1e-12)
        assert np.isnan(lam[..., 0]).all() and not np.isnan(lam[..., 1]).any()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["planted", "random", "mixed"]), st.booleans(),
           st.sampled_from([0.0, 1e-10, 1e-8, 1e-6]), st.sampled_from([0.0, 1.0, 1e3]))
    def test_equals_loop_reference_on_draws(self, seed, p, r_plus, r0, kind, planted_w, tol,
                                            floor):
        rng = np.random.default_rng(seed)
        if kind == "random":
            shape = (p, r_plus, r0)
            lpz = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            w = nk.haar_unitary(r0, rng)
        else:
            lpz, w, _ = _planted_blocks(rng, p, r_plus, r0, vanish=int(rng.integers(0, r0 + 1)),
                                        spread=float(rng.uniform(0, 6)))
            if kind == "mixed":
                lpz[0] = lpz[0] @ w @ np.diag(rng.integers(0, 2, r0)) @ w.conj().T
            if not planted_w:
                w = nk.haar_unitary(r0, rng)
        self._same(lpz, w, tol, floor * nk.fro(lpz))

    @pytest.mark.parametrize("case", ["zero", "tiny", "rank-1", "rank-1 planted", "stretched"])
    def test_non_unitary_w_is_refused(self, case):
        # the search finds no W here and condition 3 fails; a zero or tiny W
        # once read every column vacuous, and on planted blocks a projector
        # onto one aligning column or a stretched W0 reads every column
        # proportional
        m = qs.get("random-rank-r", seed=3, n_s=6, r_plus=3, n_params=2, plant_cond4=False)
        sp = qs.evaluate(m, np.zeros(2))
        lpz = qs.compute_sld(qs.support_decomposition(sp), sp.drho).Lpz
        rng = np.random.default_rng(4)
        v = nk.haar_unitary(3, rng)[:, :1]
        floor = 0.0
        if case == "zero":
            w = np.zeros((3, 3))
        elif case == "tiny":
            w, floor = 1e-9 * np.eye(3), 1.0
        elif case == "rank-1":
            w = v @ v.conj().T
        else:
            lpz, w0, _ = _planted_blocks(rng, 2, 3, 3)
            w = w0[:, :1] @ w0[:, :1].conj().T if case == "rank-1 planted" else (1 + 1e-6) * w0
            assert verify_condition4_with_w_loop(list(lpz), w)[0]
        ok, _, _, worst = cond.verify_condition4_with_w(lpz, w, scale_floor=floor)
        assert not ok
        assert worst >= nk.fro(w.conj().T @ w - np.eye(3)) > 1e-8


class TestWSearchProperties:
    """Planted ``C Λ_l W0^dag`` families are certified through each construction."""

    @staticmethod
    def _certified(lpz):
        res = cond.find_w_condition4(lpz)
        assert res.status == cond.COND4_YES
        r0 = lpz.shape[-1]
        assert nk.fro(res.W.conj().T @ res.W - np.eye(r0)) <= 1e-10
        ok, _, _, worst = verify_condition4_with_w_loop(list(lpz), res.W)
        assert ok and worst <= 1e-8
        return res

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2),
           st.integers(0, 6))
    def test_pinv_construction(self, seed, p, r0, extra, spread):
        # r+ >= r0: C is injective, so pinv(Lpz_ref) Lpz_l is diagonal in W0
        rng = np.random.default_rng(seed)
        vanish = int(rng.integers(0, r0))
        lpz, _, lam = _planted_blocks(rng, p, r0 + extra, r0, vanish, float(spread))
        ref = np.argmax(np.linalg.norm(lpz, axis=(1, 2)))
        w, found = cond._candidate_w_pinv(lpz[None], ref[None], 1e-8)
        assert found[0] and cond.verify_condition4_with_w(lpz, w[0])[0]
        res = self._certified(lpz)
        _same_columns(res.lambdas, lam, rtol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6), st.integers(0, 6))
    def test_real_rows_construction(self, seed, p, r0, spread):
        # r+ = 1: the rows are real under W0 up to one phase per column
        rng = np.random.default_rng(seed)
        vanish = int(rng.integers(0, r0))
        lpz, _, _ = _planted_blocks(rng, p, 1, r0, vanish, float(spread))
        w = cond._candidate_w_totally_real(lpz[:, 0], 1e-8)
        assert w is not None and cond.verify_condition4_with_w(lpz, w)[0]
        res = self._certified(lpz)
        # any real rotation of the real columns aligns the rows, so only the
        # vanishing columns are fixed: the rows' real rank is r0 - vanish
        assert res.column_status.count("vacuous") >= vanish

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["planted", "random", "one_vanishing", "zero"]),
           st.floats(-np.pi, np.pi))
    def test_a_phase_decides_as_the_identity_at_one_null_direction(self, seed, p, r_plus, kind,
                                                                    phi):
        # at r0 = 1 every unitary W is a phase, so the search tries the identity alone
        rng = np.random.default_rng(seed)
        if kind == "random":
            lpz = rng.standard_normal((p, r_plus, 1)) + 1j * rng.standard_normal((p, r_plus, 1))
        else:
            lpz = _planted_blocks(rng, p, r_plus, 1, vanish=int(kind == "zero"))[0]
        if kind == "one_vanishing":  # mixed for p >= 2
            lpz[0] = 0.0
        phase = cond.verify_condition4_with_w(lpz, [[np.exp(1j * phi)]])
        one = cond.verify_condition4_with_w(lpz, [[1.0]])
        assert (phase[0], phase[2]) == (one[0], one[2])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
           st.sampled_from(["proportional", "planted", "random"]))
    def test_real_rows_verify_wherever_pinv_does_at_one_support_direction(self, seed, p, r0,
                                                                          vanish, kind):
        # at r+ = 1 the search runs the real-rows construction in place of the pinv one
        rng = np.random.default_rng(seed)
        vanish = min(vanish, r0 - 1)
        if kind == "proportional":  # real multiples of one row, `vanish` of its entries zero
            row = rng.standard_normal(r0) + 1j * rng.standard_normal(r0)
            row[rng.permutation(r0)[:vanish]] = 0.0
            scales = rng.uniform(0.2, 1.0, p) * rng.choice([-1.0, 1.0], p)
            lpz = scales[:, None, None] * row
        elif kind == "planted":
            lpz = _planted_blocks(rng, p, 1, r0, vanish)[0]
        else:
            lpz = rng.standard_normal((p, 1, r0)) + 1j * rng.standard_normal((p, 1, r0))
        ref = np.argmax(np.linalg.norm(lpz, axis=(1, 2)))
        ws, found = cond._candidate_w_pinv(lpz[None], ref[None], 1e-8)
        pinv_verifies = found[0] and cond.verify_condition4_with_w(lpz, ws[0])[0]
        w = cond._candidate_w_totally_real(lpz[:, 0], 1e-8)
        if pinv_verifies:
            assert w is not None and cond.verify_condition4_with_w(lpz, w)[0]
        if kind == "proportional":  # where the pinv W verifies, so the claim is not vacuous
            assert pinv_verifies

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.booleans())
    def test_agrees_with_grid_oracle(self, seed, p, r_plus, planted):
        rng = np.random.default_rng(seed)
        if planted:
            lpz = _planted_blocks(rng, p, r_plus, 2, int(rng.integers(0, 2)))[0]
        else:
            shape = (p, r_plus, 2)
            lpz = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        certified = cond.find_w_condition4(lpz).status == cond.COND4_YES
        oracle_res, _ = cond4_grid_oracle(lpz)
        if certified:
            assert oracle_res <= 0.05
        if oracle_res > 0.05:
            assert not certified
        if planted and r_plus >= 2:
            assert certified

    def test_crafted_case_stays_unknown(self):
        lpz = crafted_cond3_pass_cond4_fail()
        assert cond4_grid_oracle(lpz)[0] > 0.05
        assert cond.find_w_condition4(lpz).status == cond.COND4_UNKNOWN


def constant_basis_model():
    """A p = 1 family on a fixed support basis: V^dag dV = 0, so U = I with D = 0 is a witness."""
    b = np.eye(3, dtype=complex)[:, :2]

    def state(theta):
        q = np.stack([theta[..., 0], 1.0 - theta[..., 0]], axis=-1)
        return (b * q[..., None, :]) @ b.conj().T

    drho = b @ np.diag([1.0, -1.0]).astype(complex) @ b.conj().T

    return md.StateModel(
        name="fixed-basis", dim=3, n_params=1, state_fn=state,
        derivative_fn=lambda theta: np.broadcast_to(drho, np.shape(theta)[:-1] + (1, 3, 3)),
        domain=md.box([0.0], [1.0]),
        support_basis_fn=lambda theta: np.broadcast_to(b, np.shape(theta)[:-1] + b.shape),
    )


class TestCondition2Prime:
    def test_lcss_witness(self, qutrit_model, qutrit_point):
        witness = qs.get("corrigendum-lcss", d=0.6, c1=1.0, c2=0.7).witness
        res = cond.verify_condition2prime(qutrit_model, qutrit_point, witness)
        assert res.status == "PASSED"
        assert res.path == "zero_generators"
        assert res.pde_residual <= 1e-8
        assert res.stationarity_residual <= 1e-8
        assert res.cross_identity_residual <= 1e-8

    def test_constant_basis_trivial(self):
        m = constant_basis_model()
        sp = qs.evaluate(m, [0.3])
        witness = cond.Cond2PrimeWitness(unitary_fn=lambda theta: cond.identity_path(theta, 2))
        res = cond.verify_condition2prime(m, sp, witness)
        assert res.status == "PASSED"
        assert res.path == "zero_generators"
        assert res.pde_residual <= 1e-12

    def test_no_witness_is_not_checked_and_runs_no_map(self, qutrit_model, qutrit_point):
        counts = {"V": 0}
        counted = TestCondition2PrimeStencil._counted(qutrit_model.support_basis_fn, counts, "V")
        model = dataclasses.replace(qutrit_model, support_basis_fn=counted)
        res = cond.verify_condition2prime(model, qutrit_point, None)
        assert res.status == "NOT_CHECKED" and res.path == "not_checked"
        assert res.notes == ["no witness supplied; existence undecided"]
        assert res.pde_residual is None and counts == {"V": 0}

    def test_null_measurement_is_left_to_the_certificate(self, qutrit_model, qutrit_point):
        with pytest.raises(QcrbSatError, match="povm.verify_saturation_structural"):
            cond.verify_condition2prime(qutrit_model, qutrit_point, qutrit_model.witness,
                                        null_povm=[np.eye(3)])

    def test_missing_support_basis(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.3])
        res = cond.verify_condition2prime(multinomial_model, sp, None)
        assert res.status == "NOT_CHECKED"
        assert res.path == "not_checked"

    def test_non_unitary_witness_rejected(self, qutrit_model, qutrit_point):
        bad = cond.Cond2PrimeWitness(unitary_fn=lambda theta: np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(cond.InvalidWitnessError):
            cond.verify_condition2prime(qutrit_model, qutrit_point, bad)

    @pytest.mark.parametrize("generators", [
        np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((2, 2, 2)),
        [np.eye(2), np.eye(2)], np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=bool),
        np.full((2, 2), np.nan),
    ])
    def test_generators_of_another_form_rejected(self, qutrit_model, qutrit_point, generators):
        # the one form is a real (p, r+) array of the diagonals of D_l; here p = r+ = 2
        witness = dataclasses.replace(qutrit_model.witness, generators=generators)
        with pytest.raises(cond.InvalidWitnessError, match=r"real \(2, 2\) array"):
            cond.verify_condition2prime(qutrit_model, qutrit_point, witness)

    def test_real_generators_enter_the_pde(self, qutrit_model, qutrit_point):
        base = qutrit_model.witness
        zero = cond.verify_condition2prime(qutrit_model, qutrit_point, base)
        shifted = cond.verify_condition2prime(
            qutrit_model, qutrit_point, dataclasses.replace(base, generators=np.ones((2, 2))))
        assert zero.status == "PASSED" and zero.path == "zero_generators"
        assert shifted.status == "FAILED" and shifted.path == "user_supplied_U"
        assert shifted.stationarity_residual is None and shifted.pde_residual > 0.1


class TestVerdict:
    def test_inconclusive_branch(self):
        # condition 3 and partial hold, condition 1 holds (zero ++ blocks),
        # but no W exists: the verdict must stay open
        lpz = crafted_cond3_pass_cond4_fail()
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        v, y = u[:, :2], u[:, 2:]
        q = np.array([0.6, 0.4])
        drho = []
        for l in range(2):
            cross = 0.5 * np.diag(q).astype(complex) @ lpz[l]
            d = v @ cross @ y.conj().T + y @ cross.conj().T @ v.conj().T
            drho.append(d)
        sp = md.StateAtPoint(
            theta=np.zeros(2),
            rho=v @ np.diag(q).astype(complex) @ v.conj().T,
            drho=np.array(drho),
            scheme="analytic",
        )
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds, diagnostics=True)
        assert rep.cond1.passed and rep.cond3.passed and rep.partial_comm.passed
        assert rep.cond4.status == cond.COND4_UNKNOWN
        assert rep.verdict == cond.VERDICT_INCONCLUSIVE
        failed = dataclasses.replace(rep.partial_comm, passed=False)
        flipped = dataclasses.replace(rep, partial_comm=failed)
        assert cond.verdict(flipped, dec.r_plus, dec.r_zero)[0] == cond.VERDICT_INCONCLUSIVE

    def test_not_saturable_on_necessary_failure(self):
        m = qs.get("random-rank-r", seed=31, n_s=4, r_plus=2, plant_cond1=False, plant_cond4=False)
        sp = qs.evaluate(m, [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.verdict == cond.VERDICT_NOT

    def test_reasoning_trace_present(self, qutrit_point, qutrit_dec, qutrit_slds):
        rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds)
        assert any("condition 4" in line for line in rep.reasoning)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_malformed_tolerance_refused(self, qutrit_point, qutrit_dec, qutrit_slds, tol):
        with pytest.raises(InvalidToleranceError) as exc:
            qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds, tol=tol)
        assert exc.value.detail == {"tolerance": "cond_tol", "value": repr(tol)}

    def test_zero_tolerance_accepted(self, qutrit_point, qutrit_dec, qutrit_slds):
        assert qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds, tol=0.0).tol == 0.0


def _flagged(passed: bool) -> cond.CommCheck:
    return cond.CommCheck(residual=0.0 if passed else 1.0, scale=None, tol=1e-8, passed=passed)


def _report(c1, c3, c4, diagnostics=(True, True, True)) -> cond.ConditionReport:
    """A hand-built report: condition flags, condition-4 status, and full/average/partial flags."""
    full, avg, partial = (_flagged(d) for d in diagnostics)
    return cond.ConditionReport(
        regime="rank_deficient", full_comm=full, avg_comm=avg, partial_comm=partial,
        cond1=_flagged(c1), cond3=_flagged(c3),
        cond4=cond.Cond4Result(status=c4, W=None, lambdas=None, column_status=None,
                               residual=0.0, tol=1e-8),
        cond2prime=None,
    )


class TestVerdictFold:
    """The verdict reads conditions 1, 3 and 4 and nothing else."""

    STATUSES = (cond.COND4_YES, cond.COND4_NO, cond.COND4_UNKNOWN)

    @pytest.mark.parametrize("r_plus, r_zero", [(1, 2), (2, 1), (3, 0)])
    def test_diagnostics_never_change_the_verdict(self, r_plus, r_zero):
        for c1, c3, c4 in product((True, False), (True, False), self.STATUSES):
            base = cond.verdict(_report(c1, c3, c4), r_plus, r_zero)
            for diagnostics in product((True, False), repeat=3):
                assert cond.verdict(_report(c1, c3, c4, diagnostics), r_plus, r_zero) == base

    def test_one_dimensional_support_decided_by_conditions_1_and_3(self):
        for c1, c3, c4 in product((True, False), (True, False), self.STATUSES):
            expected = cond.VERDICT_SATURABLE if c1 and c3 else cond.VERDICT_NOT
            assert cond.verdict(_report(c1, c3, c4), 1, 2)[0] == expected

    def test_rank_deficient_fold(self):
        for c1, c3, c4 in product((True, False), (True, False), self.STATUSES):
            if c1 and c4 == cond.COND4_YES:
                # a verified W beside a failing condition 3 is a rounding contradiction
                expected = cond.VERDICT_SATURABLE if c3 else cond.VERDICT_INCONCLUSIVE
            elif not (c1 and c3):
                expected = cond.VERDICT_NOT
            else:
                expected = cond.VERDICT_INCONCLUSIVE
            assert cond.verdict(_report(c1, c3, c4), 2, 1)[0] == expected

    def test_partial_failure_alone_is_inconclusive(self):
        rep = _report(True, True, cond.COND4_UNKNOWN, diagnostics=(True, True, False))
        assert cond.verdict(rep, 2, 1)[0] == cond.VERDICT_INCONCLUSIVE

    @pytest.mark.parametrize("c1", [True, False])
    def test_full_rank_decided_by_condition1(self, c1):
        # no null space: condition 4 holds vacuously and condition 3 is empty
        for diagnostics in product((True, False), repeat=3):
            rep = _report(c1, True, cond.COND4_YES, diagnostics)
            expected = cond.VERDICT_SATURABLE if c1 else cond.VERDICT_NOT
            verdict, trace = cond.verdict(rep, 3, 0)
            assert verdict == expected
            assert trace[0] == "full-rank state: certifying through conditions 1 and 4"


class TestVerdictSoundness:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 19), st.integers(1, 19), st.floats(-16.0, -6.0))
    def test_certified_implies_condition3(self, qutrit_model, i, j, log_tol):
        # condition 4 implies condition 3 only in exact arithmetic; below the checks'
        # rounding a verified W can sit beside a failing condition 3
        tol = 10.0 ** log_tol
        sp = qs.evaluate(qutrit_model, [i / 20, j / 20])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho, sld_tol=max(tol, sp.deriv_tol))
        rep = qs.evaluate_conditions(sp, dec, slds, tol=tol)
        assert rep.verdict != cond.VERDICT_SATURABLE or rep.cond3.passed


class TestGaugeInvariance:
    def test_verdict_invariant_under_rebasing(self, qutrit_point):
        dec = qs.support_decomposition(qutrit_point)
        slds = qs.compute_sld(dec, qutrit_point.drho)
        rep = qs.evaluate_conditions(qutrit_point, dec, slds, diagnostics=True)

        rng = np.random.default_rng(13)
        t = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(1)
        dec2 = qs.SupportDecomposition(
            q=dec.q, V=dec.V, Y=dec.Y @ t, P_plus=dec.P_plus,
            r_plus=dec.r_plus, r_zero=dec.r_zero,
        )
        slds2 = qs.compute_sld(dec2, qutrit_point.drho)
        rep2 = qs.evaluate_conditions(qutrit_point, dec2, slds2, diagnostics=True)
        assert rep2.verdict == rep.verdict
        for name in ("full_comm", "avg_comm", "partial_comm", "cond1", "cond3"):
            assert getattr(rep2, name).passed == getattr(rep, name).passed
        assert rep2.cond4.status == rep.cond4.status
        # the alignment unitary transforms contravariantly: T^dag W verifies
        ok, _, _, worst = cond.verify_condition4_with_w(
            slds2.Lpz, t.conj().T @ rep.cond4.W
        )
        assert ok and worst <= 1e-10

    POINTS = {
        **CORPUS,
        "diag-multinomial": ("diag-multinomial", {"dims": 4}, [0.2, 0.3, 0.1]),
        "stationary-basis": ("stationary-basis", {}, [0.3, -0.4]),
        "theta-independent-support": ("theta-independent-support", {}, [0.3, 0.4]),
    }

    @pytest.mark.parametrize("name", POINTS)
    def test_support_rephasing_through_a_supplied_basis(self, name):
        # split_support fixes every column's phase, so only a supplied basis
        # V diag(e^{i phi}) moves the support gauge (and the completed null basis)
        model, params, theta = self.POINTS[name]
        sp = qs.evaluate(qs.get(model, **params), np.array(theta, dtype=float))
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        base, f_q = _analyze(sp, dec, slds), qs.qfim(dec, slds)
        for seed in range(5):
            phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, dec.r_plus)
            dec2 = qs.decomposition_from_basis(sp, dec.V * np.exp(1j * phi))
            slds2 = qs.compute_sld(dec2, sp.drho)
            rep = _analyze(sp, dec2, slds2)
            assert rep.verdict == base.verdict, seed
            assert (rep.cond1.passed, rep.cond3.passed) == (base.cond1.passed, base.cond3.passed)
            assert rep.cond4.status == base.cond4.status, seed
            assert np.abs(qs.qfim(dec2, slds2) - f_q).max() <= 1e-12, seed
            for got, ref in ((rep.cond1, base.cond1), (rep.cond3, base.cond3),
                             (rep.avg_comm, base.avg_comm)):
                assert abs(got.residual - ref.residual) <= 1e-12, seed


class TestCondition2PrimeStencil:
    """One evaluation of each map at the point and one on its whole stencil, and the
    same result as before."""

    @staticmethod
    def _counted(fn, counts, key):
        def wrapped(theta):
            counts[key] += 1
            return fn(theta)

        return wrapped

    @pytest.mark.parametrize("with_witness", [False, True])
    def test_each_map_runs_once_per_stencil_point(self, qutrit_model, qutrit_point, with_witness):
        counts = {"V": 0, "U": 0}
        model = dataclasses.replace(
            qutrit_model, support_basis_fn=self._counted(qutrit_model.support_basis_fn, counts, "V"))
        witness = None
        if with_witness:
            w = qutrit_model.witness
            witness = dataclasses.replace(w, unitary_fn=self._counted(w.unitary_fn, counts, "U"))
        res = cond.verify_condition2prime(model, qutrit_point, witness)
        assert res.status == ("PASSED" if with_witness else "NOT_CHECKED")
        # one call at the point, and one on the (2, p, p) stack of stencil points theta +/- h e_l;
        # without a witness, none
        assert counts == ({"V": 2, "U": 2} if with_witness else {"V": 0, "U": 0})

    def test_support_basis_that_ignores_the_stack(self, qutrit_model, qutrit_point):
        fixed = qutrit_model.support_basis_fn(qutrit_point.theta)
        model = dataclasses.replace(qutrit_model, support_basis_fn=lambda theta: fixed)
        with pytest.raises(md.InvalidStateError, match=r"support basis map returned shape \(3, 2\)"):
            cond.verify_condition2prime(model, qutrit_point, model.witness)

    def test_support_basis_of_another_shape_at_the_point(self, qutrit_model, qutrit_point):
        model = dataclasses.replace(qutrit_model, support_basis_fn=lambda theta: np.ones(3))
        with pytest.raises(md.InvalidStateError, match=r"basis has shape \(3,\)"):
            cond.verify_condition2prime(model, qutrit_point, model.witness)

    def test_support_basis_failing_at_the_point_is_typed(self, qutrit_model, qutrit_point,
                                                          qutrit_dec, qutrit_slds):
        def basis(theta):  # works on the stencil stacks, fails at the point alone
            if np.ndim(theta) == 1:
                raise ValueError("boom")
            return qutrit_model.support_basis_fn(theta)

        model = dataclasses.replace(qutrit_model, support_basis_fn=basis)
        with pytest.raises(md.InvalidStateError, match="support basis map failed") as exc:
            qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds, model=model,
                                   diagnostics=True)
        assert isinstance(exc.value.__cause__, ValueError) and str(exc.value.__cause__) == "boom"

    @pytest.mark.parametrize("where", ["point", "stencil"])
    @pytest.mark.parametrize("which, error, message", [
        ("support basis", md.InvalidStateError, "support basis"),
        ("witness", cond.InvalidWitnessError, "witness map"),
    ])
    def test_non_finite_map_values_refused(self, qutrit_model, qutrit_point, which, error,
                                           message, where):
        # a single point reaches a map as (p,), its stencil as a (2, 1, p, p) stack
        def poisoned(fn):
            def wrapped(theta):
                hit = where == "point" or np.ndim(theta) > 1
                return fn(theta) * (np.nan if hit else 1.0)

            return wrapped

        model, witness = qutrit_model, qutrit_model.witness
        if which == "support basis":
            model = dataclasses.replace(model, support_basis_fn=poisoned(model.support_basis_fn))
        else:
            witness = dataclasses.replace(witness, unitary_fn=poisoned(witness.unitary_fn))
        with pytest.raises(error, match=message):
            cond.verify_condition2prime(model, qutrit_point, witness)

    def test_witness_written_for_one_point(self, qutrit_model, qutrit_point):
        # the witness as a per-point map: on the (p, p) stencil stack np.diag gets rows
        def u(theta):
            return np.diag([1.0, np.exp(1j * 0.36 * (theta[0] + 0.7 * theta[1]))]).astype(complex)

        witness = cond.Cond2PrimeWitness(unitary_fn=u)
        with pytest.raises(cond.InvalidWitnessError, match="witness map failed") as exc:
            cond.verify_condition2prime(qutrit_model, qutrit_point, witness)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_to_dict_copies_the_notes_only(self, qutrit_model, qutrit_point):
        res = cond.verify_condition2prime(qutrit_model, qutrit_point)
        d = res.to_dict()
        assert d == dataclasses.asdict(res) and d["notes"]
        d["notes"].append("edited")
        assert "edited" not in res.notes

    @pytest.mark.parametrize("name, theta", [
        ("qutrit-phase-mixture", [0.3, 0.5]),
        ("theta-independent-support", [0.3, 0.6]),
        ("stationary-basis", [0.3, -0.4]),
        ("fixed-basis", [0.3]),
    ])
    def test_matches_per_derivative_oracle(self, name, theta):
        model = constant_basis_model() if name == "fixed-basis" else qs.get(name)
        sp = qs.evaluate(model, theta)
        witness = model.witness if name != "fixed-basis" else cond.Cond2PrimeWitness(
            unitary_fn=lambda theta: cond.identity_path(theta, 2))
        new = cond.verify_condition2prime(model, sp, witness)
        old = verify_condition2prime_loop(model, sp, witness)
        assert new.status == "PASSED"
        assert dataclasses.asdict(new) == dataclasses.asdict(old)

    def test_stencil_at_the_boundary_is_not_checked(self, qutrit_model):
        # theta - h e_0 would leave the box (0, 1)^2; no map may be called there
        theta = [5e-6, 0.5]
        seen = []

        def recorded(fn):
            return lambda th: seen.append(np.array(th)) or fn(th)

        w = qutrit_model.witness
        model = dataclasses.replace(
            qutrit_model, support_basis_fn=recorded(qutrit_model.support_basis_fn),
            witness=dataclasses.replace(w, unitary_fn=recorded(w.unitary_fn)))
        sp = qs.evaluate(model, theta)
        dec = qs.support_decomposition(sp)
        rep = qs.evaluate_conditions(sp, dec, qs.compute_sld(dec, sp.drho), model=model,
                                     diagnostics=True)
        res = rep.cond2prime
        assert res.status == "NOT_CHECKED" and res.path == "not_checked"
        assert "h = 1e-05" in res.notes[0] and res.pde_residual is None
        assert seen and all(np.all((t > 0.0) & (t < 1.0)) for t in seen)
        assert rep.verdict == "SATURABLE_CERTIFIED"

    def test_not_checked_exactly_where_the_stencil_is_refused(self):
        # on (1e11, 1e13), theta +/- 1e-5 moves theta only below 2^37 ~ 1.37e11, and the
        # point one float above 1e11 has its stencil on the boundary
        lo, hi = 1e11, 1e13
        b = np.eye(3, dtype=complex)[:, :2]
        flip = b @ np.diag([1.0, -1.0]).astype(complex) @ b.conj().T

        def state(theta):
            q = theta[..., 0] / (2.0 * hi)
            return (b * np.stack([q, 1.0 - q], axis=-1)[..., None, :]) @ b.conj().T

        model = md.StateModel(
            name="wide-box", dim=3, n_params=1, state_fn=state,
            derivative_fn=lambda theta: np.broadcast_to(
                flip / (2.0 * hi), np.shape(theta)[:-1] + (1, 3, 3)),
            domain=md.box([lo], [hi]),
            support_basis_fn=lambda theta: np.broadcast_to(b, np.shape(theta)[:-1] + b.shape),
        )
        witness = cond.Cond2PrimeWitness(unitary_fn=lambda theta: cond.identity_path(theta, 2))
        up = np.nextafter(lo, hi)
        thetas = np.array([[1.2e11], [up], [5e12], [np.nextafter(np.nextafter(up, hi), hi)],
                           [2e11], [np.nextafter(hi, lo)], [1.3e11]])
        stacked = cond.verify_condition2prime(model, md.evaluate_points(model, thetas), witness)
        kinds = []
        for theta, res in zip(thetas, stacked):
            single = cond.verify_condition2prime(model, md.evaluate(model, theta), witness)
            assert dataclasses.asdict(res) == dataclasses.asdict(single)
            try:
                md.stencil_points(model, theta, 1e-5)
            except md.DomainError as exc:
                assert res.status == "NOT_CHECKED" and res.pde_residual is None
                kind = "rounds" if "rounds to theta" in str(exc) else "leaves"
                # the note names the reason the refusal gives for that point
                why = "rounds to theta" if kind == "rounds" else "leaves the domain of wide-box"
                assert why in str(exc)
                assert res.notes == [f"the stencil theta +/- h with h = 1e-05 {why}; "
                                     "existence undecided"]
                assert md.stencil_refusals(model, theta[None], 1e-5) == [why]
                kinds.append(kind)
            else:
                assert res.status == "PASSED" and res.path == "zero_generators"
                kinds.append("fits")
        assert kinds == ["fits", "leaves", "rounds", "fits", "rounds", "rounds", "fits"]


def test_w_of_another_shape_refused():
    lpz = np.ones((2, 2, 2), dtype=complex)
    with pytest.raises(nk.ShapeError, match=r"W has shape \(3, 3\), expected \(2, 2\)"):
        cond.verify_condition4_with_w(lpz, np.eye(3))
