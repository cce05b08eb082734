import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qcrbsat as qs
from qcrbsat import numkernel as nk
from qcrbsat import sld as sldmod
from oracles import multinomial_fisher, pure_state_qfim, sld_kron_oracle


class TestBlocks:
    def test_state_blocks(self, qutrit_point, qutrit_dec):
        v, y, rho = qutrit_dec.V, qutrit_dec.Y, qutrit_point.rho
        assert np.allclose(v.conj().T @ rho @ v, np.diag(qutrit_dec.q), atol=1e-12)
        assert nk.fro(v.conj().T @ rho @ y) <= 1e-12
        assert nk.fro(y.conj().T @ rho @ y) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        re=arrays(float, (3, 3), elements=st.floats(-1, 1)),
        im=arrays(float, (3, 3), elements=st.floats(-1, 1)),
    )
    def test_reassembly(self, qutrit_dec, re, im):
        # any derivative without a 00 block has an SLD; its full-space
        # observable reads back the stored ++ and +0 blocks and has a zero 00 block
        v, y = qutrit_dec.V, qutrit_dec.Y
        op = nk.hermitize(re + 1j * im)
        p0 = y @ y.conj().T
        slds = qs.compute_sld(qutrit_dec, (op - p0 @ op @ p0)[None])
        full = slds.full[0]
        scale = max(1.0, nk.fro(full))
        assert nk.fro(v.conj().T @ full @ v - slds.Lpp[0]) <= 1e-12 * scale
        assert nk.fro(v.conj().T @ full @ y - slds.Lpz[0]) <= 1e-12 * scale
        assert nk.fro(y.conj().T @ full @ y) <= 1e-12 * scale


class TestComputeSLD:
    def test_diagonal_family_closed_form(self, multinomial_model):
        theta = np.array([0.25, 0.35])
        sp = qs.evaluate(multinomial_model, theta)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        expected = np.diag([1.0 / 0.25, 0.0, -1.0 / 0.4]).astype(complex)
        assert nk.fro(slds.full[0] - expected) <= 1e-10

    def test_qutrit_block_structure(self, qutrit_slds):
        assert nk.fro(qutrit_slds.Lpp[1]) <= 1e-10
        lpz1, lpz2 = qutrit_slds.Lpz
        assert nk.fro(lpz1) > 0.1
        # fitted real ratio between the +0 blocks is c1/c2
        ratio = np.vdot(lpz2.ravel(), lpz1.ravel()).real / np.vdot(lpz2.ravel(), lpz2.ravel()).real
        assert ratio == pytest.approx(1.0 / 0.7, abs=1e-10)
        assert nk.fro(lpz1 - ratio * lpz2) <= 1e-10 * nk.fro(lpz1)

    def test_pure_state_matches_two_drho(self, pure_qubit_model):
        sp = qs.evaluate(pure_qubit_model, [0.6, 0.3])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        for l in range(2):
            cand = 2.0 * sp.drho[l]
            # 2 d(rho) solves the defining equation for pure states
            resid = nk.fro((cand @ sp.rho + sp.rho @ cand) / 2.0 - sp.drho[l])
            assert resid <= 1e-12
            v, y = dec.V, dec.Y
            assert nk.fro(v.conj().T @ cand @ v - slds.Lpp[l]) <= 1e-10
            assert nk.fro(v.conj().T @ cand @ y - slds.Lpz[l]) <= 1e-10

    def test_defining_equation_residuals(self, qutrit_point, qutrit_dec):
        # the SLDs reproduce every derivative to 1e-12 relative, or the solve raises
        qs.compute_sld(qutrit_dec, qutrit_point.drho, sld_tol=1e-12)

    def test_inconsistent_derivatives_raise(self, qutrit_point, qutrit_dec):
        bad = qutrit_point.drho.copy()
        y = qutrit_dec.Y
        bad[0] = bad[0] + 0.5 * (y @ y.conj().T)  # put weight in the null block
        with pytest.raises(sldmod.SLDInconsistentError):
            qs.compute_sld(qutrit_dec, bad)

    @pytest.mark.parametrize(
        "name,params,theta",
        [
            ("diag-multinomial", dict(dims=3), [0.25, 0.35]),
            ("paper-qutrit", dict(d=0.6, c1=1.0, c2=0.7), [0.3, 0.5]),
            ("stationary-basis", {}, [0.4, 0.25]),
        ],
    )
    def test_against_linear_solve_oracle(self, name, params, theta):
        # independent route: vectorize the defining equation and take the
        # minimum-norm solution, which also carries a vanishing null block
        m = qs.get(name, **params)
        sp = qs.evaluate(m, theta)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        for l in range(sp.n_params):
            oracle = sld_kron_oracle(sp.rho, sp.drho[l])
            assert nk.fro(slds.full[l] - oracle) <= 1e-10 * max(1.0, nk.fro(oracle))


class TestQFIM:
    def test_multinomial_oracle(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [1 / 3, 1 / 3])
        dec = qs.support_decomposition(sp)
        f = qs.qfim(dec, qs.compute_sld(dec, sp.drho))
        assert np.allclose(f, [[6, 3], [3, 6]], atol=1e-10)
        assert np.allclose(f, multinomial_fisher([1 / 3, 1 / 3]), atol=1e-10)

    def test_pure_qubit_oracle(self, pure_qubit_model):
        theta = np.array([0.7, 0.2])
        sp = qs.evaluate(pure_qubit_model, theta)
        dec = qs.support_decomposition(sp)
        f = qs.qfim(dec, qs.compute_sld(dec, sp.drho))
        psi = np.array([np.cos(theta[0]), np.exp(1j * theta[1]) * np.sin(theta[0])])
        dpsi = [
            np.array([-np.sin(theta[0]), np.exp(1j * theta[1]) * np.cos(theta[0])]),
            np.array([0.0, 1j * np.exp(1j * theta[1]) * np.sin(theta[0])]),
        ]
        assert np.allclose(f, pure_state_qfim(psi, dpsi), atol=1e-10)
        assert np.allclose(f, np.diag([4.0, np.sin(2 * theta[0]) ** 2]), atol=1e-10)

    def test_single_parameter_scalar(self):
        m = qs.get("diag-multinomial", dims=2)
        sp = qs.evaluate(m, [0.3])
        dec = qs.support_decomposition(sp)
        f = qs.qfim(dec, qs.compute_sld(dec, sp.drho))
        assert f.shape == (1, 1)
        assert f[0, 0] == pytest.approx(1.0 / (0.3 * 0.7), abs=1e-10)

    def test_psd(self, qutrit_dec, qutrit_slds):
        f = qs.qfim(qutrit_dec, qutrit_slds)
        assert np.linalg.eigvalsh(f)[0] >= -1e-10


class TestGaugeProperties:
    def test_qfim_invariant_under_null_rotation(self, qutrit_point, qutrit_dec, qutrit_slds):
        t = np.exp(0.4j) * np.eye(1)
        dec2 = qs.SupportDecomposition(
            q=qutrit_dec.q,
            V=qutrit_dec.V,
            Y=qutrit_dec.Y @ t,
            P_plus=qutrit_dec.P_plus,
            r_plus=qutrit_dec.r_plus,
            r_zero=qutrit_dec.r_zero,
        )
        slds2 = qs.compute_sld(dec2, qutrit_point.drho)
        assert np.abs(qs.qfim(dec2, slds2) - qs.qfim(qutrit_dec, qutrit_slds)).max() <= 1e-12

    def test_block_covariance_under_degenerate_mixing(self, qutrit_model):
        # theta1 = 0.5 makes q = (0.5, 0.5): any support rotation is allowed
        sp = qs.evaluate(qutrit_model, [0.5, 0.4])
        dec = qs.support_decomposition(sp)
        assert np.allclose(dec.q, [0.5, 0.5], atol=1e-12)
        slds = qs.compute_sld(dec, sp.drho)
        rng = np.random.default_rng(8)
        s = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        dec2 = qs.SupportDecomposition(
            q=dec.q, V=dec.V @ s, Y=dec.Y, P_plus=dec.P_plus,
            r_plus=dec.r_plus, r_zero=dec.r_zero,
        )
        slds2 = qs.compute_sld(dec2, sp.drho)
        for l in range(2):
            assert nk.fro(slds2.Lpp[l] - s.conj().T @ slds.Lpp[l] @ s) <= 1e-10
            assert nk.fro(slds2.Lpz[l] - s.conj().T @ slds.Lpz[l]) <= 1e-10
            # full-space observable (with zero 00 block) is gauge independent
            assert nk.fro(slds2.full[l] - slds.full[l]) <= 1e-10
        assert np.abs(qs.qfim(dec2, slds2) - qs.qfim(dec, slds)).max() <= 1e-10
