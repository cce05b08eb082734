import dataclasses
import json
import re

import numpy as np
import pytest

import qcrbsat as qs
from qcrbsat import model as md
from qcrbsat import numkernel as nk
from qcrbsat.errors import InvalidToleranceError
from qcrbsat.jsonio import ComplexMatrix
from oracles import central_difference_loop


def constant(state):
    """A state map with the value ``state`` at every point of a stack, as maps broadcast."""
    state = np.asarray(state, dtype=complex)
    return lambda theta: np.broadcast_to(state, np.shape(theta)[:-1] + state.shape)


class TestEvaluate:
    def test_qutrit_frozen_values(self, qutrit_point):
        rho = qutrit_point.rho
        assert np.allclose(np.diag(rho).real, [0.252, 0.3, 0.448], atol=1e-15)
        assert rho[0, 2] == pytest.approx(0.336 * np.exp(0.65j), abs=1e-15)

    def test_constant_model_zero_derivatives(self):
        m = md.StateModel(
            name="constant",
            dim=3,
            n_params=2,
            state_fn=constant(np.eye(3) / 3.0),
            domain=md.box([-1, -1], [1, 1]),
        )
        sp = qs.evaluate(m, [0.1, 0.2])
        assert sp.scheme == "central_fd"
        assert np.abs(sp.drho).max() == 0.0

    def test_central_fd_exact_on_affine_family(self):
        delta = np.diag([1.0, -1.0]).astype(complex)
        m = md.StateModel(
            name="affine",
            dim=2,
            n_params=1,
            state_fn=lambda theta: (np.diag([0.5, 0.5]).astype(complex)
                                    + theta[..., 0, None, None] * delta),
            domain=md.box([-0.2], [0.2]),
        )
        sp = qs.evaluate(m, [0.05])
        assert np.allclose(sp.drho[0], delta, atol=1e-12)

    def test_domain_violation(self, qutrit_model):
        with pytest.raises(md.DomainError):
            qs.evaluate(qutrit_model, [1.2, 0.5])

    @pytest.mark.parametrize("rows", [2, 1])
    def test_stack_refused(self, qutrit_model, rows):
        # evaluate takes one (p,) point; a stack, even of one point, is evaluate_points'
        theta = np.array([[0.3, 0.5], [0.4, 0.6]])[:rows]
        message = f"theta has shape {theta.shape}, expected (2,)"
        with pytest.raises(md.DomainError, match=re.escape(message)):
            qs.evaluate(qutrit_model, theta)

    @pytest.mark.parametrize("scheme", ["analytic", "central_fd", "richardson"])
    def test_stack_rows_equal_points(self, qutrit_model, scheme):
        thetas = np.array([[0.3, 0.5], [0.4, 0.6]])
        stacked = md.evaluate_points(qutrit_model, thetas, scheme=scheme)
        for i, theta in enumerate(thetas):
            one = qs.evaluate(qutrit_model, theta, scheme=scheme)
            assert stacked.rho[i].tobytes() == one.rho.tobytes()
            assert stacked.drho[i].tobytes() == one.drho.tobytes()

    def test_fd_needs_margin(self, qutrit_model):
        with pytest.raises(md.DomainError):
            qs.evaluate(qutrit_model, [1 - 1e-7, 0.5], scheme="central_fd", h=1e-5)

    def test_invalid_state_caught(self):
        m = md.StateModel(
            name="broken",
            dim=2,
            n_params=1,
            state_fn=constant(np.diag([0.7, 0.7])),
            domain=md.box([0], [1]),
        )
        with pytest.raises(md.TraceNotOneError):
            qs.evaluate(m, [0.5])

    @pytest.mark.parametrize("scheme", ["analytic", "central_fd"])
    def test_state_map_error_typed(self, qutrit_model, scheme):
        def state(theta):
            raise ValueError("operands could not be broadcast together")

        model = dataclasses.replace(qutrit_model, state_fn=state)
        with pytest.raises(md.InvalidStateError, match="state map failed") as exc:
            qs.evaluate(model, [0.3, 0.5], scheme=scheme)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_derivative_map_error_typed(self, qutrit_model):
        model = dataclasses.replace(qutrit_model, derivative_fn=lambda theta: theta[2])
        with pytest.raises(md.InvalidStateError, match="derivative map failed") as exc:
            qs.evaluate(model, [0.3, 0.5])
        assert isinstance(exc.value.__cause__, IndexError)

    def test_one_call_of_each_map(self, qutrit_model):
        # the analytic scheme reads the state and all p derivatives from one call each
        calls = {"state": 0, "derivative": 0}

        def counted(what, fn):
            return lambda theta: calls.__setitem__(what, calls[what] + 1) or fn(theta)

        model = dataclasses.replace(
            qutrit_model, state_fn=counted("state", qutrit_model.state_fn),
            derivative_fn=counted("derivative", qutrit_model.derivative_fn))
        qs.evaluate(model, [0.3, 0.5], scheme="analytic")
        assert calls == {"state": 1, "derivative": 1}

    def test_non_finite_derivative_refused(self, pure_qubit_model):
        # the pure qubit cannot saturate; a NaN tangent must not let it through
        def derivative(theta):
            drho = pure_qubit_model.derivative_fn(theta).copy()
            drho[..., 1, :, :] = np.nan
            return drho

        model = dataclasses.replace(pure_qubit_model, derivative_fn=derivative)
        with pytest.raises(md.InvalidStateError, match="derivative 1 has non-finite entries"):
            qs.evaluate(model, [0.7, 0.3])

    @pytest.mark.parametrize("bump, message, key", [
        (np.array([[0.0, 0.1], [0.0, 0.0]]), "derivative 1 is not Hermitian", "defect"),
        (0.1 * np.eye(2), "derivative 1 is not traceless", "trace"),
    ], ids=["non-hermitian", "trace"])
    def test_bad_derivative_named(self, bump, message, key):
        sigma_z = np.diag([0.1, -0.1])
        m = md.StateModel(
            name="bumped",
            dim=2,
            n_params=2,
            state_fn=constant(np.eye(2) / 2.0),
            domain=md.box([0, 0], [1, 1]),
            derivative_fn=constant(np.stack([sigma_z, sigma_z + bump])),
        )
        with pytest.raises(md.InvalidStateError, match=message) as exc:
            qs.evaluate(m, [0.5, 0.5])
        assert type(exc.value) is md.InvalidStateError
        assert set(exc.value.detail) == {key}


class TestStateAt:
    """`state_at` is `evaluate` without the derivatives: same state, same checks."""

    def test_equals_evaluate_rho(self, qutrit_model, multinomial_model, pure_qubit_model):
        planted = qs.get("random-rank-r", seed=3, n_s=8, r_plus=4, n_params=2)
        for model, theta in [
            (qutrit_model, [0.3, 0.5]),
            (qutrit_model, [0.71, 0.9]),
            (multinomial_model, [0.3, 0.45]),
            (pure_qubit_model, [0.7, 0.3]),
            (planted, [0.0, 0.0]),
        ]:
            rho = md.state_at(model, theta)
            assert np.array_equal(rho, qs.evaluate(model, theta).rho)
            assert np.array_equal(rho, qs.evaluate(model, theta, scheme="central_fd").rho)

    @pytest.mark.parametrize("theta", [[0.3], [0.3, 0.5, 0.1], [1.2, 0.5], [0.0, 0.5]])
    def test_domain_errors_match_evaluate(self, qutrit_model, theta):
        with pytest.raises(md.DomainError) as lean:
            md.state_at(qutrit_model, theta)
        with pytest.raises(md.DomainError) as full:
            qs.evaluate(qutrit_model, theta)
        assert lean.value.to_dict() == full.value.to_dict()

    @staticmethod
    def _model(state):
        return md.StateModel(name="broken", dim=2, n_params=1,
                             state_fn=constant(state), domain=md.box([0], [1]))

    def test_non_hermitian_state_refused(self):
        state = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(md.InvalidStateError, match="not Hermitian"):
            md.state_at(self._model(state), [0.5])

    def test_trace_not_one_refused(self):
        with pytest.raises(md.TraceNotOneError):
            md.state_at(self._model(np.diag([0.7, 0.7]).astype(complex)), [0.5])

    def test_non_psd_state_refused(self):
        with pytest.raises(md.InvalidStateError, match="positive semidefinite"):
            md.state_at(self._model(np.diag([1.2, -0.2]).astype(complex)), [0.5])


class TestStateAtStack:
    """A (B, p) stack of points gives the stack of the single-point states, and
    a stack with one bad row raises that row's own error."""

    def test_rows_equal_single_points(self, qutrit_model, multinomial_model, pure_qubit_model):
        planted = qs.get("random-rank-r", seed=3, n_s=8, r_plus=4, n_params=2)
        rng = np.random.default_rng(5)
        for model, theta, spread in [
            (qutrit_model, [0.3, 0.5], 0.05),
            (qutrit_model, [0.71, 0.9], 0.05),
            (multinomial_model, [0.3, 0.45], 0.05),
            (pure_qubit_model, [0.7, 0.3], 0.05),
            (planted, [0.0, 0.0], 0.0),  # linear family, PSD only at 0
        ]:
            thetas = np.asarray(theta) + rng.uniform(-spread, spread, size=(4, 2))
            rho = md.state_at(model, thetas)
            assert rho.shape == (4, model.dim, model.dim)
            for t, r in zip(thetas, rho):
                assert np.array_equal(r, md.state_at(model, t))
                assert np.array_equal(r, qs.evaluate(model, t).rho)

    @staticmethod
    def _model(bad_state):
        """A qubit that is maximally mixed for theta < 0.5 and ``bad_state`` above; a
        ``bad_state`` of another shape makes the map return that shape at every point
        (maximally mixed below 0.5)."""
        good = np.eye(len(bad_state), dtype=complex) / len(bad_state)
        return md.StateModel(name="half-broken", dim=2, n_params=1, domain=md.box([0], [1]),
                             state_fn=lambda theta: np.where(theta[..., None] < 0.5, good, bad_state))

    @pytest.mark.parametrize("bad_state, error", [
        (np.eye(3, dtype=complex) / 3.0, md.InvalidStateError),
        (np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex), md.InvalidStateError),
        (np.diag([0.7, 0.7]).astype(complex), md.TraceNotOneError),
        (np.diag([1.2, -0.2]).astype(complex), md.InvalidStateError),
        (np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex), md.InvalidStateError),
    ], ids=["shape", "non-hermitian", "trace", "non-psd", "nan"])
    def test_one_bad_state_raises_its_own_error(self, bad_state, error):
        model = self._model(bad_state)
        with pytest.raises(error) as alone:
            md.state_at(model, [0.7])
        with pytest.raises(error) as stacked:
            md.state_at(model, [[0.2], [0.7], [0.3]])
        assert stacked.value.to_dict() == alone.value.to_dict()

    def test_one_point_outside_the_domain(self, qutrit_model):
        with pytest.raises(md.DomainError) as alone:
            md.state_at(qutrit_model, [1.2, 0.5])
        with pytest.raises(md.DomainError) as stacked:
            md.state_at(qutrit_model, [[0.3, 0.5], [1.2, 0.5]])
        assert stacked.value.to_dict() == alone.value.to_dict()

    @pytest.mark.parametrize("thetas", [np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((0, 2))])
    def test_bad_stack_shape(self, qutrit_model, thetas):
        with pytest.raises(md.DomainError, match="theta stack has shape"):
            md.state_at(qutrit_model, thetas)


class TestMapsThatIgnoreTheStack:
    """A state map must broadcast over the leading axes of theta; one that does not
    is refused with a typed error naming what it returned, never a bare numpy error."""

    @staticmethod
    def _model(state_fn):
        return md.StateModel(name="per-point", dim=2, n_params=1, state_fn=state_fn,
                             domain=md.box([0], [1]))

    def test_constant_value(self):
        model = self._model(lambda theta: np.eye(2, dtype=complex) / 2.0)
        with pytest.raises(md.InvalidStateError, match=r"returned shape \(2, 2\)") as exc:
            md.state_at(model, [[0.2], [0.3], [0.4]])
        assert exc.value.detail == {"shape": [2, 2]}
        with pytest.raises(md.InvalidStateError, match=r"returned shape \(2, 2\)"):
            qs.evaluate(model, [0.5], scheme="central_fd")  # the (1, 1) stencil stacks

    def test_numpy_error_on_a_stack(self):
        # written for one point: on a stack, theta[0] is a row and np.array raises
        model = self._model(
            lambda theta: np.array([[theta[0], 0.0], [0.0, 1.0 - theta[0]]], dtype=complex))
        with pytest.raises(md.InvalidStateError, match="must broadcast") as exc:
            md.state_at(model, [[0.2], [0.3], [0.4]])
        assert isinstance(exc.value.__cause__, ValueError)

    def test_derivative_map_that_ignores_the_stack(self):
        # written for one point: theta[0] of the bare point is a number, and np.diag
        # makes the one (2, 2) derivative where the map owes the (1, 2, 2) stack
        model = dataclasses.replace(self._model(constant(np.eye(2) / 2.0)),
                                    derivative_fn=lambda theta: np.diag([1.0, -1.0]) * theta[0])
        with pytest.raises(md.InvalidStateError, match=r"derivative has shape \(2, 2\)") as exc:
            qs.evaluate(model, [0.5])
        assert exc.value.detail == {"shape": [2, 2]}


class TestFiniteDifferences:
    @pytest.mark.parametrize("scheme", ["central_fd", "richardson"])
    @pytest.mark.parametrize("name, params, theta", [
        ("qutrit-phase-mixture", {"d": 0.6, "c1": 1.0, "c2": 0.7}, [0.3, 0.5]),
        ("stationary-basis", {}, [0.3, -0.4]),
        ("theta-independent-support", {}, [0.3, 0.6]),
        ("diag-multinomial", {"dims": 4}, [0.2, 0.3, 0.25]),
    ])
    def test_equals_per_parameter_loop(self, name, params, theta, scheme):
        model = qs.get(name, **params)
        for h in (1e-5, 1e-3):
            got = qs.evaluate(model, theta, scheme=scheme, h=h).drho
            ref = central_difference_loop(model, theta, h, richardson=scheme == "richardson")
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("scheme, stencil_calls", [("central_fd", 1), ("richardson", 1)])
    def test_state_map_runs_once_per_stencil_point(self, qutrit_model, scheme, stencil_calls):
        # one call at the point, and one on the stack of every stencil point theta +/- s e_l,
        # both steps s of "richardson" included
        calls = []
        model = dataclasses.replace(
            qutrit_model, state_fn=lambda theta: calls.append(1) or qutrit_model.state_fn(theta))
        qs.evaluate(model, [0.3, 0.5], scheme=scheme)
        assert len(calls) == 1 + stencil_calls

    @pytest.mark.parametrize("scheme, h, refused", [
        ("central_fd", 1e-300, 1e-300), ("central_fd", 1e-17, 1e-17),
        # 0.3 +/- 4e-17 rounds to a neighbour of 0.3, but richardson's h/2 rounds back to 0.3
        ("richardson", 4e-17, 2e-17),
    ])
    def test_step_that_does_not_move_theta_refused(self, qutrit_model, scheme, h, refused):
        with pytest.raises(md.DomainError, match="^finite-difference step") as exc:
            qs.evaluate(qutrit_model, [0.3, 0.3], scheme=scheme, h=h)
        assert exc.value.detail["step"] == refused
        assert "does not move theta [0.3, 0.3]" in str(exc.value)

    @pytest.mark.parametrize("scheme", ["analytic", "central_fd", "richardson"])
    def test_each_check_runs_once(self, monkeypatch, qutrit_model, scheme):
        counts = {"_validate_densities": 0, "_validate_drho": 0}
        for name in counts:
            check = getattr(md, name)

            def counted(*args, _name=name, _check=check):
                counts[_name] += 1
                return _check(*args)

            monkeypatch.setattr(md, name, counted)
        qs.evaluate(qutrit_model, [0.3, 0.5], scheme=scheme)
        assert counts == {"_validate_densities": 1, "_validate_drho": 1}

    def test_qutrit_phase_derivative_structure(self, qutrit_model):
        theta = np.array([0.3, 0.5])
        d = qs.evaluate(qutrit_model, theta, scheme="central_fd", h=1e-5).drho[1]
        expected = 1j * 0.7 * 0.7 * 0.6 * 0.8 * np.exp(0.65j)  # i c2 (1-t1) d s e^{i phi}
        mask = np.zeros((3, 3), bool)
        mask[0, 2] = mask[2, 0] = True
        assert np.abs(d[~mask]).max() <= 1e-11
        assert d[0, 2] == pytest.approx(expected, abs=1e-9)

    def test_fd_second_order_convergence(self):
        # central differences are exact on quadratics, so use a smooth
        # trigonometric family to see the O(h^2) error drop
        def state(theta):
            c, s = np.cos(theta[..., 0]), np.sin(theta[..., 0])
            return np.stack([np.stack([c**2, c * s], -1), np.stack([c * s, s**2], -1)], -2)

        m = md.StateModel(name="trig", dim=2, n_params=1, state_fn=state, domain=md.box([-2], [2]))

        def fd(h):
            return qs.evaluate(m, [0.4], scheme="central_fd", h=h).drho[0]

        exact = fd(1e-8)
        err_h = nk.fro(fd(1e-3) - exact)
        err_h2 = nk.fro(fd(5e-4) - exact)
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.15)

    def test_richardson_beats_plain_fd(self, qutrit_model):
        theta = np.array([0.3, 0.5])
        analytic = qs.evaluate(qutrit_model, theta).drho
        fd = qs.evaluate(qutrit_model, theta, scheme="central_fd", h=1e-4).drho
        rich = qs.evaluate(qutrit_model, theta, scheme="richardson", h=1e-4).drho
        assert np.abs(rich - analytic).max() < np.abs(fd - analytic).max() / 10

    def test_fd_vs_analytic_h_squared(self, qutrit_model):
        theta = np.array([0.3, 0.5])
        analytic = qs.evaluate(qutrit_model, theta).drho
        errs = []
        for h in (1e-3, 5e-4):
            fd = qs.evaluate(qutrit_model, theta, scheme="central_fd", h=h).drho
            errs.append(np.abs(fd - analytic).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestSupportDecomposition:
    def test_qutrit_split(self, qutrit_dec):
        assert qutrit_dec.r_plus == 2
        assert qutrit_dec.r_zero == 1
        assert np.allclose(qutrit_dec.q, [0.3, 0.7], atol=1e-12)

    def test_qutrit_null_direction(self, qutrit_dec):
        y_expected = np.array([0.8, 0.0, -0.6 * np.exp(-0.65j)])
        overlap = abs(np.vdot(qutrit_dec.Y[:, 0], y_expected))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_projector_algebra(self, qutrit_dec):
        d = qutrit_dec
        assert nk.fro(d.P_plus + d.Y @ d.Y.conj().T - np.eye(3)) <= 1e-12
        assert nk.fro(d.V.conj().T @ d.V - np.eye(2)) <= 1e-12
        assert nk.fro(d.Y.conj().T @ d.Y - np.eye(1)) <= 1e-12
        assert nk.fro(d.V.conj().T @ d.Y) <= 1e-12

    def test_reconstruction(self, qutrit_point, qutrit_dec):
        d = qutrit_dec
        rebuilt = d.V @ np.diag(d.q).astype(complex) @ d.V.conj().T
        assert nk.fro(rebuilt - qutrit_point.rho) <= 1e-10

    def test_full_rank(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [1 / 3, 1 / 3])
        dec = qs.support_decomposition(sp)
        assert dec.r_zero == 0
        assert nk.fro(dec.P_plus - np.eye(3)) <= 1e-12

    def test_pure_state(self, pure_qubit_model):
        sp = qs.evaluate(pure_qubit_model, [0.7, 0.2])
        dec = qs.support_decomposition(sp)
        assert dec.r_plus == 1
        assert dec.q == pytest.approx([1.0], abs=1e-12)

    @pytest.mark.parametrize("rank_tol", [float("inf"), float("nan"), -1.0])
    def test_malformed_rank_tol_refused(self, qutrit_point, rank_tol):
        with pytest.raises(InvalidToleranceError) as exc:
            qs.support_decomposition(qutrit_point, rank_tol=rank_tol)
        assert exc.value.detail == {"tolerance": "rank_tol", "value": repr(rank_tol)}

    def test_zero_rank_tol_accepted(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.2, 0.3])
        assert qs.support_decomposition(sp, rank_tol=0.0).r_zero == 0

    def test_rank_ambiguity_band(self):
        lam = 3e-10  # inside (1e-10, 1e-9) relative to the top eigenvalue ~ 1
        rho = np.diag([0.6, 0.4 - lam, lam]).astype(complex)
        sp = md.StateAtPoint(theta=np.zeros(1), rho=rho, drho=np.zeros((1, 3, 3)), scheme="analytic")
        with pytest.raises(md.RankAmbiguousError):
            qs.support_decomposition(sp)

    def test_rank_not_locally_constant(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        drho = np.diag([-0.5, -0.5, 1.0]).astype(complex)[None]
        sp = md.StateAtPoint(theta=np.zeros(1), rho=rho, drho=drho, scheme="analytic")
        with pytest.raises(md.RankNotLocallyConstantError):
            qs.support_decomposition(sp)

    def test_phase_fixing_deterministic(self, qutrit_dec):
        for mat in (qutrit_dec.V, qutrit_dec.Y):
            for j in range(mat.shape[1]):
                top = mat[np.argmax(np.abs(mat[:, j])), j]
                assert top.imag == pytest.approx(0.0, abs=1e-14)
                assert top.real > 0

    def test_from_basis_matches_map_order(self, qutrit_model, qutrit_point):
        v = qutrit_model.support_basis_fn(qutrit_point.theta)
        dec = qs.decomposition_from_basis(qutrit_point, v)
        assert np.allclose(dec.q, [0.3, 0.7], atol=1e-12)  # map column order
        assert nk.fro(dec.V - v) == 0.0

    @pytest.mark.parametrize("basis, message", [
        (lambda v, y: 2.0 * v, "support basis is not an isometry"),
        (lambda v, y: np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1) / np.sqrt(2),
         "supplied basis does not diagonalize the state"),
        (lambda v, y: np.stack([v[:, 0], y[:, 0]], axis=1), "supplied basis includes null directions"),
        (lambda v, y: v[:, :1], "completed null basis is not annihilated by the state"),
    ], ids=["not-isometry", "not-diagonalizing", "null-direction", "null-completion"])
    def test_from_basis_refusals(self, qutrit_model, qutrit_point, qutrit_dec, basis, message):
        v = qutrit_model.support_basis_fn(qutrit_point.theta)
        with pytest.raises(md.InvalidStateError) as exc:
            qs.decomposition_from_basis(qutrit_point, basis(v, qutrit_dec.Y))
        assert str(exc.value).startswith(message)


# Edits of the qutrit point that make it invalid, with the error each one raises.
INVALID_POINTS = pytest.mark.parametrize("edit, error, message, keys", [
    (lambda rho, drho: (rho + 0.3 * np.eye(3, k=1), drho),
     md.InvalidStateError, "state is not Hermitian", {"defect", "tol"}),
    (lambda rho, drho: (rho - np.diag([0.1, 0, 0]), drho),
     md.TraceNotOneError, "state trace is", {"trace"}),
    (lambda rho, drho: (np.diag([0.6, 0.5, -0.1]), drho),
     md.InvalidStateError, "state is not positive semidefinite", {"min_eig"}),
    (lambda rho, drho: (rho, drho + 1e-3 * np.array([0, 1])[:, None, None] * np.eye(3)),
     md.InvalidStateError, "derivative 1 is not traceless", {"trace"}),
], ids=["non-hermitian", "trace", "non-psd", "derivative-trace"])


class TestStateAtPoint:
    """A state point is validated where it is made, with the errors the loaders raise."""

    @INVALID_POINTS
    def test_invalid_point_refused(self, qutrit_point, edit, error, message, keys):
        rho, drho = edit(qutrit_point.rho, qutrit_point.drho)
        with pytest.raises(error, match=message) as exc:
            md.StateAtPoint(theta=None, rho=rho, drho=drho, scheme="analytic")
        assert type(exc.value) is error
        assert set(exc.value.detail) == keys

    def test_stores_the_hermitized_arrays(self, qutrit_point):
        skew = 1e-14 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        sp = md.StateAtPoint(theta=None, rho=qutrit_point.rho + skew,
                             drho=qutrit_point.drho + skew, scheme="analytic")
        assert np.array_equal(sp.rho, nk.hermitize(qutrit_point.rho + skew))
        assert np.array_equal(sp.drho, nk.hermitize(qutrit_point.drho + skew))

    @pytest.mark.parametrize("rho, drho, message", [
        (np.eye(2) / 2, np.zeros((1, 3, 3)), "derivatives have shape"),
        (np.eye(2) / 2, np.zeros((2, 2)), "derivatives have shape"),
        (np.full((2, 2), np.inf), np.zeros((1, 2, 2)), "state has non-finite entries"),
        (np.eye(2) / 2, [np.zeros((2, 2)), np.full((2, 2), np.nan)],
         "derivative 1 has non-finite entries"),
    ], ids=["dimension", "unstacked", "inf-state", "nan-derivative"])
    def test_malformed_point_refused(self, rho, drho, message):
        with pytest.raises(md.InvalidStateError, match=message):
            md.StateAtPoint(theta=None, rho=rho, drho=drho, scheme="analytic")


class TestNumericModel:
    def test_roundtrip_bit_for_bit(self, qutrit_point, tmp_path):
        payload = md.state_to_numeric_model(qutrit_point)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        sp = qs.parse_numeric_model(str(path))
        assert np.array_equal(sp.rho, qutrit_point.rho)
        assert np.array_equal(sp.drho, qutrit_point.drho)

    def test_ragged_rows(self, qutrit_point):
        payload = md.state_to_numeric_model(qutrit_point)
        payload["rho"][1] = payload["rho"][1][:2]
        with pytest.raises(md.SchemaError):
            qs.parse_numeric_model(payload)

    @INVALID_POINTS
    def test_invalid_payload_typed(self, qutrit_point, edit, error, message, keys):
        rho, drho = edit(qutrit_point.rho, qutrit_point.drho)
        bad = {"n_s": 3, "p": 2, "rho": ComplexMatrix(rho), "drho": ComplexMatrix(drho)}
        with pytest.raises(error, match=message) as exc:
            qs.parse_numeric_model(bad)
        assert type(exc.value) is error
        assert set(exc.value.detail) == keys

    def test_missing_key(self):
        with pytest.raises(md.SchemaError):
            qs.parse_numeric_model({"n_s": 2, "p": 1, "rho": []})
