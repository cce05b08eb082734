"""Built-in model registry.

Each entry wires a :class:`~qcrbsat.model.StateModel` with analytic
derivatives where closed forms exist, plus (when the family admits one) a
smooth support-basis map and, as ``StateModel.witness``, a PDE witness for
the condition-2' checks, built from the parameters the builder has checked.
The planted synthetic generator produces rank-deficient instances whose
block structure satisfies the certifiable conditions by construction,
without integrating a family: the state and its derivatives are consistent
at the center point only.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import numkernel as nk
from .conditions import Cond2PrimeWitness, identity_path
from .errors import QcrbSatError
from .model import StateModel, box


class UnknownModelError(QcrbSatError):
    pass


class ParameterError(QcrbSatError):
    pass


def _convert(name: str, value, cast, kind: str):
    """``cast(value)`` for a model parameter; refused for booleans, or if it changes the value."""
    try:
        out = None if isinstance(value, bool) else cast(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:  # 2.5 as an int, a string, NaN
        raise ParameterError(f"parameter {name!r} must be {kind}, got {value!r}", parameter=name)
    return out


def _as_int(name: str, value) -> int:
    return _convert(name, value, int, "an integer")


def _as_real(name: str, value) -> float:
    return _convert(name, value, float, "a real number")


def _as_complex(name: str, value) -> complex:
    return _convert(name, value, complex, "a complex number")


def _as_bool(name: str, value) -> bool:
    """A flag; only a boolean is one (``"no"``, ``"False"``, 0 and 2 are refused)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ParameterError(f"parameter {name!r} must be a boolean, got {value!r}", parameter=name)
    return bool(value)


def _require(ok: bool, name: str, need: str) -> None:
    """Refuse the parameter ``name`` unless ``ok``; ``need`` says what it must be."""
    if not ok:
        raise ParameterError(f"parameter {name!r} {need}", parameter=name)


def _constant(values: np.ndarray):
    """A map with the value ``values`` at every point of a stack of points."""
    return lambda theta: np.broadcast_to(values, np.shape(theta)[:-1] + values.shape)


# ---------------------------------------------------------------------------
# Rank-2 qutrit: a mixture of a basis state with a phase-carrying pure state.
# The support rotates with theta only through the relative phase
# phi = c1 theta1 + c2 theta2, which makes every saturability condition
# verifiable in closed form.
# ---------------------------------------------------------------------------


def qutrit_phase_mixture(d=0.6, c1=1.0, c2=0.7) -> StateModel:
    d = _as_complex("d", d)
    c1, c2 = _as_real("c1", c1), _as_real("c2", c2)
    _require(0.0 < abs(d) < 1.0, "d", f"needs 0 < |d| < 1, got |d| = {abs(d)}")
    _require(c1 != 0.0, "c1", "must be nonzero")
    _require(c2 != 0.0, "c2", "must be nonzero")
    s = np.sqrt(1.0 - abs(d) ** 2)
    arg = float(np.angle(d))

    def phi(theta):
        return c1 * theta[..., 0] + c2 * theta[..., 1]

    def phase(theta):
        # d e^{i phi} = |d| e^{i (phi + arg d)}, so the maps multiply complex numbers by real
        # ones only: numpy's vectorized complex-by-complex product can round differently from
        # its scalar one, which would make a stacked value differ from its single-point value
        return np.exp(1j * (phi(theta) + arg))

    def state(theta):
        t1 = theta[..., 0]
        e = phase(theta)
        rho = np.zeros(t1.shape + (3, 3), dtype=complex)
        rho[..., 0, 0] = abs(d) ** 2 * (1 - t1)
        rho[..., 0, 2] = (1 - t1) * abs(d) * s * e
        rho[..., 1, 1] = t1
        rho[..., 2, 0] = (1 - t1) * abs(d) * s * np.conj(e)
        rho[..., 2, 2] = (1 - t1) * (1 - abs(d) ** 2)
        return rho

    def derivative(theta):
        t1 = theta[..., 0]
        e = phase(theta)
        ds = abs(d) * s
        top0 = -ds * e + ds * (c1 * (1 - t1)) * (1j * e)
        top1 = ((c2 * (1 - t1)) * abs(d)) * s * (1j * e)
        out = np.zeros(t1.shape + (2, 3, 3), dtype=complex)
        out[..., 0, 0, 0] = -abs(d) ** 2
        out[..., 0, 1, 1] = 1.0
        out[..., 0, 2, 2] = -(1 - abs(d) ** 2)
        out[..., 0, 0, 2], out[..., 0, 2, 0] = top0, np.conj(top0)
        out[..., 1, 0, 2], out[..., 1, 2, 0] = top1, np.conj(top1)
        return out

    def support_basis(theta):
        e = phase(theta)
        v = np.zeros(e.shape + (3, 2), dtype=complex)
        v[..., 0, 1] = abs(d) * e
        v[..., 1, 0] = 1.0
        v[..., 2, 1] = s
        return v

    def witness_path(theta):
        phase = np.exp(1j * abs(d) ** 2 * phi(theta))
        out = np.zeros(phase.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = phase
        return out

    return StateModel(
        name="qutrit-phase-mixture",
        dim=3,
        n_params=2,
        state_fn=state,
        derivative_fn=derivative,
        support_basis_fn=support_basis,
        domain=box([0.0, 0.0], [1.0, 1.0]),
        params={"d": d, "c1": c1, "c2": c2},
        witness=Cond2PrimeWitness(unitary_fn=witness_path),
    )


# ---------------------------------------------------------------------------
# Classical full-rank family: diagonal multinomial probabilities.
# ---------------------------------------------------------------------------


def diag_multinomial(dims=3) -> StateModel:
    dims = _as_int("dims", dims)
    _require(dims >= 2, "dims", f"must be at least 2, got {dims}")
    p = dims - 1

    def state(theta):
        rho = np.zeros(theta.shape[:-1] + (dims, dims), dtype=complex)
        rho[..., np.arange(p), np.arange(p)] = theta
        rho[..., p, p] = 1.0 - np.sum(theta, axis=-1)
        return rho

    drho = np.zeros((p, dims, dims), dtype=complex)
    drho[np.arange(p), np.arange(p), np.arange(p)] = 1.0
    drho[:, p, p] = -1.0

    return StateModel(
        name="diag-multinomial",
        dim=dims,
        n_params=p,
        state_fn=state,
        derivative_fn=_constant(drho),
        domain=box([0.0] * p, [1.0] * p),
        params={"dims": dims},
    )


# ---------------------------------------------------------------------------
# Pure qubit with amplitude and phase parameters: the standard negative
# control (average commutativity fails, so no single-copy measurement
# saturates the bound).
# ---------------------------------------------------------------------------


def pure_qubit_amp_phase() -> StateModel:
    def psi(theta):
        return np.stack(
            [np.cos(theta[..., 0]), np.exp(1j * theta[..., 1]) * np.sin(theta[..., 0])], axis=-1
        )

    def state(theta):
        v = psi(theta)
        return v[..., :, None] * v.conj()[..., None, :]

    def derivative(theta):
        # row l of dv is d_l psi; d_l rho = d_l psi psi^dag + psi d_l psi^dag
        t0, e = theta[..., 0], np.exp(1j * theta[..., 1])
        dv = np.zeros(t0.shape + (2, 2), dtype=complex)
        dv[..., 0, 0] = -np.sin(t0)
        dv[..., 0, 1] = e * np.cos(t0)
        dv[..., 1, 1] = 1j * e * np.sin(t0)
        v = psi(theta)[..., None, :]
        return dv[..., :, None] * v.conj()[..., None, :] + v[..., :, None] * dv.conj()[..., None, :]

    return StateModel(
        name="pure-qubit-amp-phase",
        dim=2,
        n_params=2,
        state_fn=state,
        derivative_fn=derivative,
        domain=box([0.01, -3.2], [1.55, 3.2]),
        params={},
    )


# ---------------------------------------------------------------------------
# Theta-independent support: a fixed support subspace carrying classical
# probabilities, with gauge phases on the basis map. The unitary path of
# the basis map itself witnesses the PDE condition.
# ---------------------------------------------------------------------------


def _diag(entries) -> np.ndarray:
    """The ``(..., k, k)`` complex diagonal matrices of a ``(..., k)`` stack of diagonals."""
    k = entries.shape[-1]
    out = np.zeros(entries.shape + (k,), dtype=complex)
    out[..., np.arange(k), np.arange(k)] = entries
    return out


def _ti_gauge_path(theta):
    return _diag(np.exp(1j * np.stack([theta[..., 0], theta[..., 1], np.zeros(theta.shape[:-1])],
                                      axis=-1)))


def theta_independent_support() -> StateModel:
    b = nk.haar_unitary(4, np.random.default_rng(71))[:, :3]

    def q_of(theta):
        return np.stack([theta[..., 0], theta[..., 1], 1.0 - theta[..., 0] - theta[..., 1]], axis=-1)

    def state(theta):
        return b @ _diag(q_of(theta)) @ b.conj().T

    drho = b @ _diag(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])) @ b.conj().T

    def support_basis(theta):
        return b @ _ti_gauge_path(theta)

    return StateModel(
        name="theta-independent-support",
        dim=4,
        n_params=2,
        state_fn=state,
        derivative_fn=_constant(drho),
        support_basis_fn=support_basis,
        domain=box([0.0, 0.0], [1.0, 1.0]),
        params={},
        witness=Cond2PrimeWitness(unitary_fn=_ti_gauge_path),
    )


# ---------------------------------------------------------------------------
# Stationary basis map: the support rotates under a fixed off-block
# generator, but the map satisfies dV^dag V = 0, so the identity path
# witnesses the PDE condition and all information sits in the +0 blocks.
# ---------------------------------------------------------------------------


def stationary_basis(c1=1.0, c2=0.7) -> StateModel:
    c1, c2 = _as_real("c1", c1), _as_real("c2", c2)
    _require(c1 != 0.0, "c1", "must be nonzero")
    _require(c2 != 0.0, "c2", "must be nonzero")
    g = np.zeros((4, 4), dtype=complex)
    g[:2, 2:] = np.array([[1.0, 0.5], [0.3, -0.2]])
    g[2:, :2] = g[:2, 2:].conj().T
    gw, gv = np.linalg.eigh(g)
    v0 = np.eye(4, dtype=complex)[:, :2]
    q0 = np.array([0.65, 0.35])

    def rot(theta):
        phase = c1 * theta[..., 0] + c2 * theta[..., 1]
        return gv @ _diag(np.exp(1j * phase[..., None] * gw)) @ gv.conj().T

    def support_basis(theta):
        return rot(theta) @ v0

    def state(theta):
        v = support_basis(theta)
        return v @ np.diag(q0).astype(complex) @ v.conj().swapaxes(-1, -2)

    ic = 1j * np.array([c1, c2])[:, None, None]

    def derivative(theta):
        rho = state(theta)[..., None, :, :]
        return ic * (g @ rho - rho @ g)

    return StateModel(
        name="stationary-basis",
        dim=4,
        n_params=2,
        state_fn=state,
        derivative_fn=derivative,
        support_basis_fn=support_basis,
        domain=box([-2.0, -2.0], [2.0, 2.0]),
        params={"c1": c1, "c2": c2},
        witness=Cond2PrimeWitness(unitary_fn=lambda theta: identity_path(theta, 2)),
    )


# ---------------------------------------------------------------------------
# Seeded synthetic instances with planted block structure. The family is
# affine around the center point, so the derivatives are exact there; tests
# analyze the center only.
# ---------------------------------------------------------------------------


def random_rank_r(
    seed=0,
    n_s=4,
    r_plus=2,
    n_params=2,
    plant_cond1=True,
    plant_cond4=True,
) -> StateModel:
    seed, n_s, r_plus = _as_int("seed", seed), _as_int("n_s", n_s), _as_int("r_plus", r_plus)
    n_params = _as_int("n_params", n_params)
    _require(seed >= 0, "seed", f"must be non-negative, got {seed}")
    _require(n_s >= 1, "n_s", f"must be at least 1, got {n_s}")
    plant_cond1 = _as_bool("plant_cond1", plant_cond1)
    plant_cond4 = _as_bool("plant_cond4", plant_cond4)
    r_zero = n_s - r_plus
    _require(1 <= r_plus <= n_s, "r_plus", f"must be between 1 and n_s = {n_s}, got {r_plus}")
    _require(n_params >= 1, "n_params", f"must be at least 1, got {n_params}")
    _require(not plant_cond4 or r_zero <= r_plus, "plant_cond4", "needs r_zero <= r_plus to "
             f"plant column alignment, got r_zero = {r_zero}, r_plus = {r_plus}")
    rng = np.random.default_rng(seed)

    u = nk.haar_unitary(n_s, rng)
    v, y = u[:, :r_plus], u[:, r_plus:]
    q = rng.uniform(0.5, 1.5, r_plus)
    q = q / q.sum()

    lpp = []
    if plant_cond1:
        qb = nk.haar_unitary(r_plus, rng)
        for _ in range(n_params):
            lam = rng.normal(size=r_plus)
            m = qb @ np.diag(lam).astype(complex) @ qb.conj().T
            lpp.append(m - np.trace(np.diag(q) @ m).real * np.eye(r_plus))
    else:
        for _ in range(n_params):
            z = rng.standard_normal((r_plus, r_plus)) + 1j * rng.standard_normal(
                (r_plus, r_plus)
            )
            m = (z + z.conj().T) / 2.0
            lpp.append(m - np.trace(np.diag(q) @ m).real * np.eye(r_plus))

    lpz = []
    if r_zero == 0:
        lpz = [np.zeros((r_plus, 0), dtype=complex) for _ in range(n_params)]
    elif plant_cond4:
        z = rng.standard_normal((r_plus, r_zero)) + 1j * rng.standard_normal((r_plus, r_zero))
        frame = np.linalg.qr(z)[0]
        w0 = nk.haar_unitary(r_zero, rng)
        mu = rng.uniform(0.2, 1.0, size=(n_params, r_zero)) * rng.choice(
            [-1.0, 1.0], size=(n_params, r_zero)
        )
        for l in range(n_params):
            lpz.append((frame * mu[l]) @ w0.conj().T)
    else:
        for _ in range(n_params):
            lpz.append(
                rng.standard_normal((r_plus, r_zero)) + 1j * rng.standard_normal((r_plus, r_zero))
            )

    rho0 = v @ np.diag(q).astype(complex) @ v.conj().T
    drho = []
    for l in range(n_params):
        sym = lpp[l] * (q[:, None] + q[None, :]) / 2.0
        cross = 0.5 * (np.diag(q).astype(complex) @ lpz[l])
        d = v @ sym @ v.conj().T + v @ cross @ y.conj().T + y @ cross.conj().T @ v.conj().T
        drho.append((d + d.conj().T) / 2.0)

    def state(theta):
        return rho0 + sum(theta[..., l, None, None] * drho[l] for l in range(n_params))

    return StateModel(
        name=f"random-rank-r(seed={seed})",
        dim=n_s,
        n_params=n_params,
        state_fn=state,
        derivative_fn=_constant(np.array(drho)),
        domain=box([-0.1] * n_params, [0.1] * n_params),
        params={
            "seed": seed,
            "n_s": n_s,
            "r_plus": r_plus,
            "plant_cond1": plant_cond1,
            "plant_cond4": plant_cond4,
        },
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {
    "qutrit-phase-mixture": qutrit_phase_mixture,
    "diag-multinomial": diag_multinomial,
    "pure-qubit-amp-phase": pure_qubit_amp_phase,
    "theta-independent-support": theta_independent_support,
    "stationary-basis": stationary_basis,
    "random-rank-r": random_rank_r,
}

_ALIASES = {
    "paper-qutrit": "qutrit-phase-mixture",
    "corrigendum-lcss": "qutrit-phase-mixture",
}

_PARAMETERS = {key: frozenset(inspect.signature(b).parameters) for key, b in _REGISTRY.items()}


def registry_names() -> list:
    return sorted(_REGISTRY)


def get(name: str, **params) -> StateModel:
    """Instantiate a registered model; parameters are validated by the builder."""
    key = _ALIASES.get(name, name)
    if key not in _REGISTRY:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(registry_names())}"
        )
    unknown = sorted(params.keys() - _PARAMETERS[key])
    if unknown:
        raise ParameterError(
            f"model {key!r} takes no parameter {unknown[0]!r}; "
            f"accepted: {', '.join(sorted(_PARAMETERS[key])) or 'none'}",
            parameter=unknown[0],
        )
    return _REGISTRY[key](**params)


def get_witness(name: str, **params):
    """The PDE witness of a registered model, ``get(name, **params).witness``; None
    when it ships none."""
    return get(name, **params).witness
