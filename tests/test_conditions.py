import dataclasses

import numpy as np
import pytest

import qcrbsat as qs
from qcrbsat import conditions as cond
from qcrbsat import model as md
from qcrbsat import numkernel as nk
from oracles import (
    average_commutativity_loop,
    condition1_loop,
    condition3_loop,
    full_commutativity_loop,
    partial_commutativity_loop,
    pure_state_avg_comm,
    verify_condition2prime_loop,
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
        rep = qs.evaluate_conditions(sp, dec, slds)
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
        assert avg.values[0, 1] == pytest.approx(4.0, abs=1e-10)
        psi = np.array([np.cos(theta[0]), np.exp(1j * theta[1]) * np.sin(theta[0])])
        dpsi = [
            np.array([-np.sin(theta[0]), np.exp(1j * theta[1]) * np.cos(theta[0])]),
            np.array([0.0, 1j * np.exp(1j * theta[1]) * np.sin(theta[0])]),
        ]
        assert avg.values[0, 1] == pytest.approx(
            pure_state_avg_comm(psi, dpsi[0], dpsi[1]), abs=1e-10
        )

    def test_qutrit_passes_everything(self, qutrit_point, qutrit_dec, qutrit_slds):
        rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds)
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
        rng = np.random.default_rng(23)
        lpz = [
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(2)
        ]
        res = cond.find_w_condition4(lpz)
        assert res.status == cond.COND4_NO
        # and the refutation is sound: condition 3 really fails
        a = lpz[0] @ lpz[1].conj().T - lpz[1] @ lpz[0].conj().T
        assert nk.fro(a) > 1e-3

    def test_unknown_when_cond3_passes_but_no_w(self):
        res = cond.find_w_condition4(crafted_cond3_pass_cond4_fail())
        assert res.status == cond.COND4_UNKNOWN

    def test_vanishing_columns(self):
        m = qs.get("random-rank-r", seed=9, n_s=5, r_plus=3, n_params=3, vanish_columns=1)
        sp = qs.evaluate(m, [0.0, 0.0, 0.0])
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


class TestScaleNormalization:
    def test_flags_invariant_under_sld_scaling(self, qutrit_point, qutrit_dec, qutrit_slds):
        # residual thresholds scale with the operator norms, so rescaling
        # every SLD-derived quantity leaves all flags unchanged
        import dataclasses

        scaled = dataclasses.replace(
            qutrit_slds,
            Lpp=tuple(50.0 * L for L in qutrit_slds.Lpp),
            Lpz=tuple(50.0 * L for L in qutrit_slds.Lpz),
            full=tuple(50.0 * L for L in qutrit_slds.full),
        )
        for check in (cond.check_full_commutativity, cond.check_condition1, cond.check_condition3):
            assert check(scaled).passed == check(qutrit_slds).passed
        assert (
            cond.check_partial_commutativity(qutrit_dec, scaled).passed
            == cond.check_partial_commutativity(qutrit_dec, qutrit_slds).passed
        )


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
    """The checks on stacked SLDs decide like the per-pair loops they replaced."""

    @staticmethod
    def _variants(dec, slds, rng):
        p, r0 = slds.n_params, dec.r_zero
        z = rng.standard_normal((p, r0, r0)) + 1j * rng.standard_normal((p, r0, r0))
        yield slds
        yield slds.with_lzz([nk.hermitize(m) for m in z], dec)
        yield dataclasses.replace(
            slds,
            Lpp=tuple(3.0 * L for L in slds.Lpp),
            Lpz=tuple(3.0 * L for L in slds.Lpz),
            full=tuple(3.0 * L for L in slds.full),
        )

    @staticmethod
    def _same(check, ref, tol):
        residual, worst_pair, scale = ref[:3]
        assert check.passed == (residual <= tol)
        assert check.worst_pair == worst_pair
        assert check.scale == scale
        assert abs(check.residual - residual) <= 1e-12 * max(1.0, abs(residual))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_checks_equal_loop_reference(self, family, seed):
        sp, dec, slds = _random_family(*family, seed=seed)
        tol = 1e-8
        for s in self._variants(dec, slds, np.random.default_rng(seed)):
            p, n = family[:2]
            assert s.full.shape == (p, n, n) and s.commutators.shape == (p * (p - 1) // 2, n, n)
            self._same(cond.check_full_commutativity(s, tol), full_commutativity_loop(s.full), tol)
            avg = cond.check_average_commutativity(sp.rho, s, tol)
            ref = average_commutativity_loop(sp.rho, s.full)
            self._same(avg, ref, tol)
            assert np.allclose(avg.values, ref[3], rtol=1e-12, atol=1e-12)
            ref = partial_commutativity_loop(dec.P_plus, s.Lpp, s.Lpz, s.full)
            assert ref[3] <= 1e-10
            self._same(cond.check_partial_commutativity(dec, s, tol), ref, tol)
            self._same(cond.check_condition1(s, tol), condition1_loop(s.Lpp), tol)
            self._same(cond.check_condition3(s, tol), condition3_loop(s.Lpz), tol)
        if family[0] == 1:
            assert cond.check_full_commutativity(slds).worst_pair is None
            assert cond.check_condition3(slds).residual == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_w_search_refutation_reports_condition3(self, seed):
        sp, dec, slds = _random_family(3, 8, 4, False, seed)
        res = cond.find_w_condition4(slds.Lpz)
        assert res.status == cond.COND4_NO
        assert res.residual == cond.check_condition3(slds).residual


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
        rep = qs.evaluate_conditions(sp, dec, slds)
        if rep.cond4.status == cond.COND4_YES:
            assert rep.cond3.passed
        if rep.cond1.passed and rep.cond3.passed:
            assert rep.partial_comm.passed
        if rep.full_comm.passed:
            assert rep.partial_comm.passed


class TestCondition2Prime:
    def test_lcss_witness(self, qutrit_model, qutrit_point):
        witness = qs.get_witness("corrigendum-lcss", d=0.6, c1=1.0, c2=0.7)
        res = cond.verify_condition2prime(qutrit_model, qutrit_point, witness)
        assert res.status == "PASSED"
        assert res.path == "zero_generators"
        assert res.pde_residual <= 1e-8
        assert res.stationarity_residual <= 1e-8
        assert res.cross_identity_residual <= 1e-8

    def test_constant_basis_trivial(self):
        b = np.eye(3, dtype=complex)[:, :2]

        def state(theta):
            q = np.array([theta[0], 1.0 - theta[0]])
            return b @ np.diag(q).astype(complex) @ b.conj().T

        def deriv(theta, l):
            return b @ np.diag([1.0, -1.0]).astype(complex) @ b.conj().T

        m = md.StateModel(
            name="fixed-basis", dim=3, n_params=1, state_fn=state, derivative_fn=deriv,
            domain=md.box([0.0], [1.0]), support_basis_fn=lambda theta: b,
        )
        sp = qs.evaluate(m, [0.3])
        res = cond.verify_condition2prime(m, sp, None)
        assert res.status == "PASSED"
        assert res.path == "diagonal_VdV"
        assert res.pde_residual <= 1e-12

    def test_canonical_diagonal_path_on_qutrit(self, qutrit_model, qutrit_point):
        res = cond.verify_condition2prime(qutrit_model, qutrit_point, None)
        assert res.status == "PASSED"
        assert res.path == "diagonal_VdV"

    def test_null_povm_compatibility(self, qutrit_model, qutrit_point, qutrit_dec, qutrit_slds):
        from qcrbsat import povm as pv

        rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds)
        popt = pv.construct_optimal(
            qutrit_dec, qutrit_slds, W=rep.cond4.W, rng=np.random.default_rng(0)
        )
        nulls = [e for e, k in zip(popt.elements, popt.classification) if k == "null"]
        res = cond.verify_condition2prime(
            qutrit_model, qutrit_point, qs.get_witness("paper-qutrit"), null_povm=nulls
        )
        assert res.status == "PASSED"
        assert res.null_compat_residual <= 1e-8

    def test_missing_support_basis(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.3])
        res = cond.verify_condition2prime(multinomial_model, sp, None)
        assert res.status == "NOT_CHECKED"
        assert res.path == "not_checked"

    def test_non_unitary_witness_rejected(self, qutrit_model, qutrit_point):
        bad = cond.Cond2PrimeWitness(unitary_fn=lambda theta: np.diag([1.0, 2.0]).astype(complex))
        with pytest.raises(cond.InvalidWitnessError):
            cond.verify_condition2prime(qutrit_model, qutrit_point, bad)


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
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.cond1.passed and rep.cond3.passed and rep.partial_comm.passed
        assert rep.cond4.status == cond.COND4_UNKNOWN
        assert rep.verdict == cond.VERDICT_INCONCLUSIVE

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


class TestGaugeInvariance:
    def test_verdict_invariant_under_rebasing(self, qutrit_point):
        dec = qs.support_decomposition(qutrit_point)
        slds = qs.compute_sld(dec, qutrit_point.drho)
        rep = qs.evaluate_conditions(qutrit_point, dec, slds)

        rng = np.random.default_rng(13)
        t = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(1)
        dec2 = qs.SupportDecomposition(
            q=dec.q, V=dec.V, Y=dec.Y @ t, P_plus=dec.P_plus, P_zero=dec.P_zero,
            r_plus=dec.r_plus, r_zero=dec.r_zero, rank_tol=dec.rank_tol,
        )
        slds2 = qs.compute_sld(dec2, qutrit_point.drho)
        rep2 = qs.evaluate_conditions(qutrit_point, dec2, slds2)
        assert rep2.verdict == rep.verdict
        for name in ("full_comm", "avg_comm", "partial_comm", "cond1", "cond3"):
            assert getattr(rep2, name).passed == getattr(rep, name).passed
        assert rep2.cond4.status == rep.cond4.status
        # the alignment unitary transforms contravariantly: T^dag W verifies
        ok, _, _, worst = cond.verify_condition4_with_w(
            slds2.Lpz, t.conj().T @ rep.cond4.W
        )
        assert ok and worst <= 1e-10


class TestCondition2PrimeStencil:
    """One evaluation of each map per stencil point, and the same result as before."""

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
            w = qs.get_witness("qutrit-phase-mixture", d=0.6, c1=1.0, c2=0.7)
            witness = dataclasses.replace(w, unitary_fn=self._counted(w.unitary_fn, counts, "U"))
        res = cond.verify_condition2prime(model, qutrit_point, witness)
        assert res.status == "PASSED"
        p = qutrit_point.n_params
        assert counts == {"V": 1 + 2 * p, "U": 1 + 2 * p if with_witness else 0}

    @pytest.mark.parametrize("case", ["canonical", "witness", "witness+null"])
    def test_matches_per_derivative_oracle(self, qutrit_model, qutrit_point, qutrit_dec,
                                           qutrit_slds, case):
        from qcrbsat import povm as pv

        witness, nulls = None, None
        if case != "canonical":
            witness = qs.get_witness("qutrit-phase-mixture", d=0.6, c1=1.0, c2=0.7)
        if case == "witness+null":
            rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds)
            popt = pv.construct_optimal(qutrit_dec, qutrit_slds, W=rep.cond4.W,
                                        rng=np.random.default_rng(0))
            nulls = [e for e, k in zip(popt.elements, popt.classification) if k == "null"]
        new = cond.verify_condition2prime(qutrit_model, qutrit_point, witness, null_povm=nulls)
        old = verify_condition2prime_loop(qutrit_model, qutrit_point, witness, null_povm=nulls)
        assert dataclasses.asdict(new) == dataclasses.asdict(old)
        assert (new.null_compat_residual is not None) == (case == "witness+null")
