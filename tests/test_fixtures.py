import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcrbsat as qs
from qcrbsat import conditions as cond
from qcrbsat import fixtures as fx
from qcrbsat import model as md
from qcrbsat import numkernel as nk

# Every registry model (aliases included), at its defaults and at the sizes the
# CLI tests run, with a complex d for the qutrit and p > 4 for the planted family.
MAP_CASES = [
    ("qutrit-phase-mixture", {}), ("paper-qutrit", {}), ("corrigendum-lcss", {}),
    ("qutrit-phase-mixture", {"d": 0.5 - 0.4j, "c1": -1.3, "c2": 0.2}),
    ("qutrit-phase-mixture", {"d": -0.6}),
    ("diag-multinomial", {}), ("diag-multinomial", {"dims": 24}),
    ("pure-qubit-amp-phase", {}), ("theta-independent-support", {}), ("stationary-basis", {}),
    ("random-rank-r", {}), ("random-rank-r", {"seed": 3, "n_s": 8, "r_plus": 4, "n_params": 5}),
]


def _maps(name, params):
    """The model and its maps that take stacks: the state, the derivatives, the support
    basis and the shipped witness where the model has them, and the identity path U = I."""
    model = qs.get(name, **params)
    maps = {"state": model.state_fn, "derivative": model.derivative_fn,
            "identity path": lambda t: cond.identity_path(t, 3)}
    if model.support_basis_fn is not None:
        maps["support basis"] = model.support_basis_fn
    if model.witness is not None:
        maps["witness"] = model.witness.unitary_fn
    return model, maps


class TestMapsBroadcast:
    """A (B, p) stack of points maps to the stack of the single-point values, bit for bit,
    and a bare (p,) point to one value."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(MAP_CASES), st.sampled_from([1, 2, 7]), st.integers(0, 2**32 - 1))
    def test_stack_equals_points(self, case, size, seed):
        model, maps = _maps(*case)
        lo, hi = model.domain.lo, model.domain.hi
        thetas = lo + (hi - lo) * np.random.default_rng(seed).uniform(
            0.01, 0.99, size=(size, model.n_params))
        for what, fn in maps.items():
            stacked = np.asarray(fn(thetas))
            points = np.array([fn(t) for t in thetas])
            assert stacked.shape == points.shape and stacked.dtype == complex, what
            assert stacked.tobytes() == points.tobytes(), what
            one = np.asarray(fn(thetas[0]))
            assert one.shape == points.shape[1:] and one.tobytes() == points[0].tobytes(), what

    @pytest.mark.parametrize("case", MAP_CASES)
    def test_stencil_stacks_equal_points(self, case):
        # the (p, p) stencil stacks each map is handed, against one call per point
        model, maps = _maps(*case)
        theta = (model.domain.lo + model.domain.hi) / 2.0
        h = 1e-3 * np.min(model.domain.hi - model.domain.lo)
        for what, fn in maps.items():
            shape = np.shape(fn(theta))
            plus, minus = md.values_at(fn, md.stencil_points(model, theta, h), shape)
            for stack, sign in ((plus, 1.0), (minus, -1.0)):
                points = np.array([fn(t) for t in theta + sign * h * np.eye(len(theta))])
                assert stack.tobytes() == points.astype(complex).tobytes(), what


class TestRegistry:
    def test_names(self):
        names = qs.registry_names()
        for expected in (
            "qutrit-phase-mixture",
            "diag-multinomial",
            "pure-qubit-amp-phase",
            "theta-independent-support",
            "stationary-basis",
            "random-rank-r",
        ):
            assert expected in names

    def test_aliases_resolve(self):
        a = qs.get("paper-qutrit", d=0.6, c1=1.0, c2=0.7)
        b = qs.get("corrigendum-lcss", d=0.6, c1=1.0, c2=0.7)
        assert a.name == b.name == "qutrit-phase-mixture"

    def test_unknown_name(self):
        with pytest.raises(fx.UnknownModelError):
            qs.get("no-such-model")

    def test_parameter_validation(self):
        with pytest.raises(fx.ParameterError):
            qs.get("qutrit-phase-mixture", d=1.2)
        with pytest.raises(fx.ParameterError):
            qs.get("qutrit-phase-mixture", c1=0.0)
        with pytest.raises(fx.ParameterError):
            qs.get("diag-multinomial", dims=1)

    @pytest.mark.parametrize("name, params", [
        ("diag-multinomial", {"dims": 2.5}), ("diag-multinomial", {"dims": True}),
        ("diag-multinomial", {"dims": "3"}), ("random-rank-r", {"seed": float("nan")}),
        ("random-rank-r", {"seed": -1}), ("random-rank-r", {"n_s": 1j}),
        ("stationary-basis", {"c1": "x"}),
        ("qutrit-phase-mixture", {"c2": False}), ("qutrit-phase-mixture", {"d": None}),
        ("qutrit-phase-mixture", {"dims": 3}), ("theta-independent-support", {"seed": 1}),
    ])
    def test_parameter_type_and_name(self, name, params):
        with pytest.raises(fx.ParameterError) as exc:
            qs.get(name, **params)
        assert exc.value.detail == {"parameter": next(iter(params))}

    @pytest.mark.parametrize("flag", ["plant_cond1", "plant_cond4"])
    @pytest.mark.parametrize("value", ["no", "False", "true", 0, 1, 2, None, 1.0])
    def test_plant_flags_must_be_booleans(self, flag, value):
        with pytest.raises(fx.ParameterError) as exc:
            qs.get("random-rank-r", seed=3, n_s=6, r_plus=3, **{flag: value})
        assert exc.value.detail == {"parameter": flag}

    def test_plant_flags_take_booleans(self):
        for value in (False, np.False_):
            m = qs.get("random-rank-r", seed=3, n_s=6, r_plus=3, plant_cond1=value)
            assert m.params["plant_cond1"] is False

    def test_integral_values_convert(self):
        a = qs.get("diag-multinomial", dims=3)
        for dims in (3.0, np.int64(3), np.float64(3.0)):
            m = qs.get("diag-multinomial", dims=dims)
            assert m.params == a.params and type(m.params["dims"]) is int
        b = qs.get("stationary-basis", c1=np.float32(0.5), c2=2)
        assert b.params == {"c1": 0.5, "c2": 2.0}

    def test_witnesses_exposed(self):
        for name in ("paper-qutrit", "theta-independent-support", "stationary-basis"):
            assert qs.get(name).witness is not None
            assert qs.get_witness(name) is not None
        assert qs.get("diag-multinomial").witness is None
        assert qs.get_witness("diag-multinomial") is None

    @pytest.mark.parametrize("case", MAP_CASES)
    def test_every_support_basis_map_ships_a_witness(self, case):
        # condition 2' checks only a supplied witness, so without one the CLI reports would
        # read NOT_CHECKED where a support-basis map could be checked
        name, params = case
        model = qs.get(name, **params)
        if model.support_basis_fn is not None:
            assert model.witness is not None


class TestQutritFamily:
    def test_rank_two_on_grid(self, qutrit_model):
        for t1 in np.linspace(0.1, 0.9, 5):
            for t2 in np.linspace(0.1, 0.9, 5):
                sp = qs.evaluate(qutrit_model, [t1, t2])
                dec = qs.support_decomposition(sp)
                assert dec.r_plus == 2

    def test_complex_d_supported(self):
        m = qs.get("qutrit-phase-mixture", d=0.3 + 0.4j, c1=0.5, c2=-1.1)
        sp = qs.evaluate(m, [0.4, 0.6])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.verdict == "SATURABLE_CERTIFIED"


class TestSyntheticFamilies:
    @pytest.mark.parametrize("seed", range(20))
    def test_planted_instances_certify(self, seed):
        m = qs.get("random-rank-r", seed=seed, n_s=4 + seed % 2, r_plus=2 + seed % 2)
        sp = qs.evaluate(m, np.zeros(2))
        dec = qs.support_decomposition(sp)
        assert dec.r_plus == 2 + seed % 2
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.cond1.passed
        assert rep.cond4.status == "CERTIFIED_YES"
        assert rep.verdict == "SATURABLE_CERTIFIED"

    def test_planting_requires_room(self):
        with pytest.raises(fx.ParameterError):
            qs.get("random-rank-r", seed=0, n_s=5, r_plus=2)  # r_zero=3 > r_plus

    def test_fd_matches_analytic_on_affine_family(self):
        m = qs.get("random-rank-r", seed=3)
        sp_a = qs.evaluate(m, np.zeros(2))
        sp_fd = qs.evaluate(m, np.zeros(2), scheme="central_fd")
        assert np.abs(sp_a.drho - sp_fd.drho).max() <= 1e-10

    def test_theta_independent_support_structure(self):
        m = qs.get("theta-independent-support")
        sp = qs.evaluate(m, [0.3, 0.45])
        dec = qs.support_decomposition(sp)
        assert (dec.r_plus, dec.r_zero) == (3, 1)
        slds = qs.compute_sld(dec, sp.drho)
        assert max(nk.fro(L) for L in slds.Lpz) <= 1e-10

    def test_stationary_basis_structure(self):
        m = qs.get("stationary-basis", c1=1.0, c2=0.7)
        sp = qs.evaluate(m, [0.4, 0.25])
        dec = qs.support_decomposition(sp)
        assert (dec.r_plus, dec.r_zero) == (2, 2)
        slds = qs.compute_sld(dec, sp.drho)
        assert max(nk.fro(L) for L in slds.Lpp) <= 1e-10
        assert min(nk.fro(L) for L in slds.Lpz) > 0.1
        # the basis map is stationary: dV^dag V = 0
        v_fn = m.support_basis_fn
        theta = np.array([0.4, 0.25])
        h = 1e-6
        for l in range(2):
            e = np.zeros(2)
            e[l] = h
            dv = (v_fn(theta + e) - v_fn(theta - e)) / (2 * h)
            assert nk.fro(dv.conj().T @ v_fn(theta)) <= 1e-8
