"""Parameterized density-matrix families and their support/null decomposition.

A :class:`StateModel` maps a real parameter vector, or a stack of them, to
a density matrix and optionally provides analytic parameter derivatives and
a smooth isometry whose columns track the support eigenbasis.
:func:`evaluate` produces the state and its derivatives at a point, and
:func:`state_at` the validated state alone at a point or at each point of a
stack (what a likelihood reads); :func:`support_decomposition` splits
the Hilbert space into the support (positive eigenvalues) and the null
space, which is the coordinate system every downstream check works in.

Each layer is one kernel on a stack of points: :func:`evaluate_points` and
:func:`split_support` take a whole stack, and :func:`evaluate` and
:func:`support_decomposition` are those kernels on a stack of one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jsonio
from . import numkernel as nk
from .errors import QcrbSatError, require_tolerance
from .jsonio import ComplexMatrix, SchemaError, parse_complex_matrix

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = 1e-12
DEFAULT_FD_STEP = 1e-5
DEFAULT_RANK_TOL = 1e-10
AMBIGUITY_FACTOR = 10.0


def derivative_tol(scheme: str) -> float:
    """Residual tolerance of a derivative scheme: 1e-8 analytic, 1e-4 finite differences."""
    return 1e-8 if scheme == "analytic" else 1e-4


class DomainError(QcrbSatError):
    pass


class InvalidStateError(QcrbSatError):
    pass


class TraceNotOneError(InvalidStateError):
    pass


class RankAmbiguousError(QcrbSatError):
    pass


class RankNotLocallyConstantError(QcrbSatError):
    pass


@dataclass(frozen=True)
class Box:
    """Open axis-aligned parameter domain."""

    lo: np.ndarray
    hi: np.ndarray


def box(lo, hi) -> Box:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise DomainError(f"invalid box lo={lo} hi={hi}")
    return Box(lo=lo, hi=hi)


@dataclass
class StateModel:
    """A smooth family theta -> rho(theta) of density matrices.

    Every map takes a stack of points: ``state_fn``, ``derivative_fn`` and
    ``support_basis_fn`` broadcast over the leading axes of theta, so a
    ``(..., p)`` array of points maps to the ``(..., n, n)`` states, the
    ``(..., p, n, n)`` derivatives (row l wrt the l-th parameter) and the
    ``(..., n, r+)`` support bases, and a bare ``(p,)`` point to one value.
    A map written with ``theta[..., l]`` for parameter l, and with stacked
    entries filled by index (``out[..., i, j] = ...``), broadcasts; each
    stacked value must equal the single-point value bit for bit.
    :func:`evaluate_points` and :func:`state_at` call the maps through
    :func:`values_at`, which refuses another shape or a bare numpy
    error with an :class:`InvalidStateError` naming the map.

    ``derivative_fn`` is optional; finite differences of ``state_fn`` stand in
    for it. ``support_basis_fn`` returns a smooth isometry whose columns are
    support eigenvectors; its derivatives are always central differences of
    the map itself, never from per-point eigenvectors (whose gauge is arbitrary).
    """

    name: str
    dim: int
    n_params: int
    state_fn: Callable[[np.ndarray], np.ndarray]
    domain: Box
    derivative_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_basis_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    params: dict | None = None


def _row(value, i, fields: tuple):
    """``value`` with each of its array ``fields`` indexed by ``i``: point i of a
    stack, or the sub-stack at an index array. Nothing is judged again, since
    a row of a checked stack is checked; ``value`` holds nothing but its
    dataclass fields."""
    out = object.__new__(type(value))
    state = value.__dict__
    out.__dict__.update(state)
    out.__dict__.update({name: state[name][i] for name in fields if state[name] is not None})
    return out


@dataclass
class StateAtPoint:
    """The state, its parameter derivatives, and how they were obtained.

    A state point is valid by construction: ``rho`` must be a finite, square,
    Hermitian, unit-trace, positive semidefinite matrix and ``drho`` a finite
    ``(p, n, n)`` stack of Hermitian, traceless matrices, judged at the
    scheme's :func:`derivative_tol`. Both are stored hermitized; an invalid
    input raises :class:`InvalidStateError` (or :class:`TraceNotOneError`).

    A stack of B points (what :func:`evaluate_points` returns) has one more
    leading axis on every array: ``theta`` ``(B, p)``, ``rho`` ``(B, n, n)``
    and ``drho`` ``(B, p, n, n)``, checked as one stack: a stack holding an
    invalid point raises an error of one of its invalid points.
    :meth:`row` gives point i.
    """

    theta: Optional[np.ndarray]
    rho: np.ndarray
    drho: np.ndarray  # (p, n, n)
    scheme: str  # "analytic" | "central_fd" | "richardson"
    fd_step: Optional[float] = None

    def __post_init__(self):
        rho = np.asarray(self.rho)
        n = rho.shape[-1] if rho.ndim else 0
        lead = rho.shape[:1] if rho.ndim == 3 else ()
        rho = _require_shape(rho, lead, (n, n), InvalidStateError, "state")
        rho = _validate_densities(rho.reshape(-1, n, n))
        drho = np.asarray(self.drho, dtype=complex)
        if drho.shape[:len(lead)] != lead or drho.ndim != len(lead) + 3 \
                or drho.shape[-2:] != (n, n):
            raise InvalidStateError(f"derivatives have shape {drho.shape[len(lead):]}, "
                                    f"expected (p, {n}, {n})")
        drho = _validate_drho(drho.reshape(-1, *drho.shape[-3:]), derivative_tol(self.scheme))
        self.rho, self.drho = (rho, drho) if lead else (rho[0], drho[0])

    @property
    def dim(self) -> int:
        return self.rho.shape[-1]

    @property
    def n_params(self) -> int:
        return self.drho.shape[-3]

    def row(self, i) -> "StateAtPoint":
        """Point ``i`` of a stack (an index array gives a sub-stack, and ``None``
        a single point as a stack of one)."""
        return _row(self, i, ("theta", "rho", "drho"))

    @property
    def deriv_tol(self) -> float:
        """Residual tolerance appropriate for the derivative scheme."""
        return derivative_tol(self.scheme)

    def scheme_label(self) -> str:
        if self.scheme == "analytic":
            return "analytic"
        return f"{self.scheme}(h={self.fd_step:g})"


@dataclass(frozen=True)
class SupportDecomposition:
    """Eigendata of rho split into support and null space.

    ``V`` (n x r_plus) holds the support eigenvectors with eigenvalues ``q``
    (ascending), ``Y`` (n x r_zero) an orthonormal basis of the null space.
    Operators are expressed in this split as ++, +0, 0+, 00 blocks. The
    split of a stack of points with equal ``(r_plus, r_zero)`` (see
    :func:`split_support`) has one more leading axis on every array, and
    :meth:`row` gives point i.
    """

    q: np.ndarray
    V: np.ndarray
    Y: np.ndarray
    P_plus: np.ndarray
    r_plus: int
    r_zero: int

    def row(self, i) -> "SupportDecomposition":
        """Point ``i`` of a stack (an index array gives a sub-stack)."""
        return _row(self, i, ("q", "V", "Y", "P_plus"))


def _require_shape(values, lead: tuple, shape: tuple, error: type, what: str) -> np.ndarray:
    """``values`` as a complex array of shape ``lead + shape``: the value of a map
    at a stack of points whose leading shape is ``lead`` (``()`` for one point).

    Any other shape raises ``error`` naming it: the shape of each value when
    the leading axes match, else the whole shape, as a map returns it when it
    does not broadcast over the stack.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape == lead + shape:
        return values
    k = len(lead)
    if values.shape[:k] == lead:
        got = values.shape[k:]
        raise error(f"{what} has shape {got}, expected {shape}", shape=list(got))
    raise error(
        f"{what} map returned shape {values.shape} for points of leading shape {lead}, "
        f"expected {lead + shape}: the map must broadcast over the leading axes of theta",
        shape=list(values.shape),
    )


def values_at(fn, points: np.ndarray, shape: Optional[tuple], error: type = InvalidStateError,
              what: str = "state") -> np.ndarray:
    """``fn(points)`` from one call, as a complex ``points.shape[:-1] + shape`` array.

    ``points`` is one ``(p,)`` point or a ``(..., p)`` stack of them; a ``(1, p)``
    stack is handed to the map as its one point, so a single point reaches a
    map the same way whether or not it comes as a stack. A map that fails with
    a bare numpy error (``ValueError``, ``IndexError``, ``TypeError``), or
    returns another shape, raises ``error`` naming it; ``shape=None`` leaves
    the shape to the caller.
    """
    one = points.ndim == 2 and len(points) == 1
    arg = points[0] if one else points
    try:
        values = fn(arg)
    except (ValueError, IndexError, TypeError) as exc:
        raise error(f"{what} map failed on points of shape {arg.shape} ({exc}): the map "
                    "must broadcast over the leading axes of theta") from exc
    if shape is None:
        values = np.asarray(values, dtype=complex)
    else:
        values = _require_shape(values, arg.shape[:-1], shape, error, what)
    return values[None] if one else values


def _validate_densities(rho: np.ndarray) -> np.ndarray:
    """The complex (B, n, n) stack of states hermitized, each checked as a density matrix.

    Each state must be finite, Hermitian to ``HERM_TOL`` times
    ``max(1, ||rho||)``, of unit trace and positive semidefinite. The
    residuals of the whole stack are computed once (one ``eigvalsh``), and
    the first failing state raises the error of its first failing check from
    those same numbers; a single state is a stack of one. The caller has
    checked the shape (:func:`_require_shape`).
    """
    finite = np.isfinite(rho).all(axis=(1, 2))
    if not finite.all():
        rho = np.where(finite[:, None, None], rho, 0.0)  # the finite states are judged below
    adj = rho.conj().swapaxes(1, 2)
    defect, norm = nk.fro_stack(np.array([rho - adj, rho]))
    not_herm = defect > HERM_TOL * np.maximum(1.0, norm)
    herm = (rho + adj) / 2.0
    trace = herm.trace(axis1=1, axis2=2).real
    off_trace = np.abs(trace - 1.0) > TRACE_TOL
    wmin = np.linalg.eigvalsh(herm)[:, 0]
    bad = ~finite | not_herm | off_trace | (wmin < -PSD_FLOOR)
    if bad.any():
        k = int(bad.argmax())
        if not finite[k]:
            raise InvalidStateError("state has non-finite entries")
        if not_herm[k]:
            raise InvalidStateError("state is not Hermitian", defect=float(defect[k]), tol=HERM_TOL)
        if off_trace[k]:
            tr = float(trace[k])
            raise TraceNotOneError(f"state trace is {tr!r}, expected 1", trace=tr)
        raise InvalidStateError(
            f"state is not positive semidefinite: min eigenvalue {wmin[k]:.3e}",
            min_eig=float(wmin[k]),
        )
    return herm


def _validate_drho(drho: np.ndarray, tol: float) -> np.ndarray:
    """The hermitized (B, p, n, n) derivatives of a stack of points, each judged as
    :func:`_validate_densities` judges the states: every ``d_l rho`` must be
    finite, and its Hermitian defect and trace are judged against
    ``tol * ||d_l rho||``. The first failing point raises for its first
    failing derivative."""
    finite = np.isfinite(drho).all(axis=(-2, -1))
    if not finite.all():
        drho = np.where(finite[..., None, None], drho, 0.0)  # the finite ones are judged below
    adj = drho.conj().swapaxes(-1, -2)
    norm, defect = nk.fro_stack(np.array([drho, drho - adj]))
    bound = tol * norm
    herm = (drho + adj) / 2.0
    trace = np.abs(herm.trace(axis1=-2, axis2=-1))
    not_herm = defect > bound
    bad = ~finite | not_herm | (trace > bound)
    if bad.any():
        k, l = np.unravel_index(int(bad.argmax()), bad.shape)
        if not finite[k, l]:
            raise InvalidStateError(f"derivative {l} has non-finite entries")
        if not_herm[k, l]:
            raise InvalidStateError(
                f"derivative {l} is not Hermitian to tolerance", defect=float(defect[k, l])
            )
        raise InvalidStateError(
            f"derivative {l} is not traceless: |tr| = {trace[k, l]:.3e}", trace=float(trace[k, l])
        )
    return herm


def stencil_refusals(model: StateModel, theta: np.ndarray, h: float) -> list:
    """Why the stencil ``theta +/- h e_l`` may not be taken, per point of one ``(p,)``
    point or a ``(..., p)`` stack, in flat point order: None where the step ``h``
    moves every coordinate and the stencil lies inside the open domain of
    ``model``, else ``"rounds to theta"`` where the step does not move the point,
    else ``"leaves the domain of <model name>"``."""
    theta = np.asarray(theta, dtype=float)
    flat = theta.reshape(-1, theta.shape[-1])
    moves = ((flat + h != flat) & (flat - h != flat)).all(axis=1).tolist()
    inside = ((flat > model.domain.lo + h) & (flat < model.domain.hi - h)).all(axis=1).tolist()
    leaves = f"leaves the domain of {model.name}"
    return [None if m and i else leaves if m else "rounds to theta" for m, i in zip(moves, inside)]


def stencil_points(model: StateModel, theta: np.ndarray, h) -> np.ndarray:
    """The points ``theta + s e_l`` and ``theta - s e_l``, l = 0..p-1, for every step ``s``
    of ``h``, as one ``(2,) + h.shape + theta.shape[:-1] + (p, p)`` array.

    ``theta`` is one ``(p,)`` point or a ``(..., p)`` stack of them and ``h`` one
    step or an array of steps. First, step by step, each ``s`` must be a finite
    positive number whose stencil every point may take; otherwise
    :class:`DomainError` is raised, naming the first point that
    :func:`stencil_refusals` refuses and its reason.
    """
    theta = np.asarray(theta, dtype=float)
    steps = np.asarray(h, dtype=float)
    for s in steps.reshape(-1).tolist():
        if not (math.isfinite(s) and s > 0):
            raise DomainError(f"finite-difference step must be a finite positive number, got {s}")
        for k, why in enumerate(stencil_refusals(model, theta, s)):
            if why:
                t = theta.reshape(-1, theta.shape[-1])[k]
                if why == "rounds to theta":
                    raise DomainError(f"finite-difference step {s:g} does not move theta "
                                      f"{t.tolist()}: theta +/- h {why}", theta=t, step=s)
                raise DomainError(f"theta {t.tolist()} +/- {s} {why}", theta=t)
    p = theta.shape[-1]
    offsets = (steps[..., None, None] * nk.identity(p)).reshape(
        steps.shape + (1,) * (theta.ndim - 1) + (p, p))
    base = theta[..., None, :]
    return np.array([base + offsets, base - offsets])


def _check_points(model: StateModel, theta) -> np.ndarray:
    """The (B, p) stack of points, each inside the open domain.

    A point of shape (p,) is a stack of one. The domain test runs once over
    the stack, and the first point outside raises.
    """
    theta = np.asarray(theta, dtype=float)
    p = model.n_params
    if theta.ndim == 2:
        if theta.shape[0] == 0 or theta.shape[1] != p:
            raise DomainError(f"theta stack has shape {theta.shape}, expected (B, {p})",
                              theta=theta)
    elif theta.shape != (p,):
        raise DomainError(f"theta has shape {theta.shape}, expected ({p},)", theta=theta)
    stack = theta if theta.ndim == 2 else theta[None]
    inside = ((stack > model.domain.lo) & (stack < model.domain.hi)).all(axis=1)
    if not inside.all():
        raise DomainError(
            f"theta {stack[inside.argmin()].tolist()} outside the domain of {model.name}"
        )
    return stack


def state_at(model: StateModel, theta) -> np.ndarray:
    """The validated density matrix at a point of the open domain, without derivatives.

    Checks the shape of ``theta`` and that it lies inside the domain, and that
    the state is a Hermitian, unit-trace, positive semidefinite matrix of the
    model's dimension; returns it hermitized. A (B, p) stack of points gives
    the (B, n, n) stack of states from one call of ``state_fn`` on the stack,
    each equal bit for bit to its single-point value; the checks run once
    over the stack, and a stack holding a failing point raises an error of
    one of its failing points.
    """
    theta = np.asarray(theta, dtype=float)
    stack = _check_points(model, theta)
    rho = _validate_densities(values_at(model.state_fn, stack, (model.dim, model.dim)))
    return rho if theta.ndim == 2 else rho[0]


def evaluate_points(
    model: StateModel,
    thetas,
    scheme: str = "auto",
    h: float = DEFAULT_FD_STEP,
) -> StateAtPoint:
    """The state points at a (B, p) stack of points, as one stacked :class:`StateAtPoint`.

    Row i equals ``evaluate(model, thetas[i], scheme, h)`` bit for bit. Each
    map runs once on the stack: ``state_fn`` and ``derivative_fn``, or
    ``state_fn`` once more on the :func:`stencil_points` that hold every
    finite-difference point (both steps of "richardson"); the states and
    derivatives are checked as one stack. A stack holding a failing point
    raises an error of one of its failing points; the error a point raises
    alone comes from evaluating it alone.
    """
    thetas = _check_points(model, thetas)
    if scheme == "auto":
        scheme = "analytic" if model.derivative_fn is not None else "central_fd"
    if scheme == "analytic" and model.derivative_fn is None:
        raise DomainError(f"model {model.name} has no analytic derivatives")
    if scheme not in ("analytic", "central_fd", "richardson"):
        raise DomainError(f"unknown derivative scheme {scheme!r}")

    n = model.dim
    rho = values_at(model.state_fn, thetas, (n, n))
    if scheme == "analytic":
        drho = values_at(model.derivative_fn, thetas, (model.n_params, n, n), what="derivative")
    else:
        steps = np.array([h] if scheme == "central_fd" else [h, h / 2.0])
        plus, minus = values_at(model.state_fn, stencil_points(model, thetas, steps), (n, n))
        central = nk.hermitize((plus - minus) / (2.0 * steps)[:, None, None, None, None])
        drho = central[0] if scheme == "central_fd" else (4.0 * central[1] - central[0]) / 3.0

    return StateAtPoint(
        theta=thetas,
        rho=rho,
        drho=drho,
        scheme=scheme,
        fd_step=None if scheme == "analytic" else h,
    )


def evaluate(
    model: StateModel,
    theta,
    scheme: str = "auto",
    h: float = DEFAULT_FD_STEP,
) -> StateAtPoint:
    """Evaluate rho and all parameter derivatives at one ``(p,)`` point.

    ``scheme`` is one of "auto", "analytic", "central_fd", "richardson";
    "auto" uses analytic derivatives when the model provides them. The
    state and the analytic derivatives come from one call each of
    ``state_fn`` and ``derivative_fn`` through :func:`values_at`, which
    refuses a value of another shape or a bare numpy error with an
    :class:`InvalidStateError` naming the map. The finite-difference schemes
    take every central difference
    ``(rho(theta + h e_l) - rho(theta - h e_l)) / 2h`` from one call of
    ``state_fn`` on the :func:`stencil_points`, which first check the step
    and that ``theta +/- h`` stays inside the open domain; "richardson"
    takes the steps ``h`` and ``h / 2`` in that one call and combines them
    into ``(4 D(h/2) - D(h)) / 3``. The state and its derivatives are
    validated where the returned :class:`StateAtPoint` is made. This is
    :func:`evaluate_points` on a stack of one point; a theta of any other
    shape, a stack of one point included, raises :class:`DomainError`.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise DomainError(f"theta has shape {theta.shape}, expected ({model.n_params},)",
                          theta=theta)
    return evaluate_points(model, theta, scheme, h).row(0)


def _rotate_columns(m: np.ndarray) -> np.ndarray:
    """Rotate each column of the complex array ``m``, one matrix or a stack of them,
    in place so that its largest-modulus entry is real positive; returns ``m``.

    Each phase ``|z| / z`` is taken in numpy's complex scalar arithmetic, one
    column at a time: the array division and modulus round differently, and
    the rotated columns feed every later bit of the split.
    """
    if not m.size:
        return m
    cols = m.swapaxes(-1, -2).reshape(-1, m.shape[-2])  # every column of every matrix
    top = cols[np.arange(len(cols)), np.abs(cols).argmax(axis=1)]
    phase = np.array([a / z if (a := abs(z)) > 0 else 1.0 for z in top], dtype=complex)
    m *= phase.reshape(m.shape[:-2] + (1, m.shape[-1]))
    return m


def _columns(m: np.ndarray) -> np.ndarray:
    """Phase-fixed columns of each matrix of a stack (see :func:`_rotate_columns`),
    each matrix stored column by column, as numpy stores the columns it picks
    from a matrix by a mask: the products downstream read that layout, and
    their bits depend on it."""
    return _rotate_columns(np.array(m.swapaxes(-1, -2), dtype=complex, order="C").swapaxes(-1, -2))


def _split(drho, tol: float, q, V, Y) -> SupportDecomposition:
    """The decompositions of a stack with support bases V and null bases Y, after
    checking that every derivative vanishes on the null block (the rank is
    locally constant), at the scheme tolerance ``tol``."""
    _check_fixed_rank(drho, Y, tol)
    return SupportDecomposition(
        q=q,
        V=V,
        Y=Y,
        P_plus=nk.hermitize(V @ V.conj().swapaxes(-1, -2)),
        r_plus=V.shape[-1],
        r_zero=Y.shape[-1],
    )


def _check_fixed_rank(drho: np.ndarray, Y: np.ndarray, tol: float) -> None:
    """Refuse a derivative whose null block ``Y^dag d_l rho Y`` exceeds ``tol``
    times ``||d_l rho||``; the blocks of all points and parameters form one stack."""
    residual = nk.fro_stack(Y.conj().swapaxes(-1, -2)[:, None] @ drho @ Y[:, None])
    scale = nk.fro_stack(drho)
    bad = residual > tol * scale
    if bad.any():
        k, l = np.unravel_index(int(bad.argmax()), bad.shape)
        raise RankNotLocallyConstantError(
            f"null-block of derivative {l} is nonzero "
            f"({residual[k, l]:.3e} > {tol:.1e} * {scale[k, l]:.3e}); "
            "the rank of the family is not locally constant at this point",
            param=int(l),
            residual=float(residual[k, l]),
        )


def split_support(rho: np.ndarray, drho: np.ndarray, deriv_tol: float,
                  rank_tol: float = DEFAULT_RANK_TOL) -> list:
    """The support split of a (B, n, n) stack of states with (B, p, n, n) derivatives.

    One stacked ``eigh`` diagonalizes every state, and the points are grouped
    by ``(r_plus, r_zero)``: returns a list of ``(rows, dec)``, ``rows`` the
    ascending indices of a group's points and ``dec`` their stacked
    :class:`SupportDecomposition`, whose row i equals
    ``support_decomposition`` at point ``rows[i]`` bit for bit. A stack
    holding a failing point raises a :class:`QcrbSatError` from one of its
    failing points (see :func:`support_decomposition`).
    """
    require_tolerance("rank_tol", rank_tol)
    w, vecs = np.linalg.eigh(rho)
    cut = rank_tol * w[:, -1:]
    # eigenvalues ascend, so the null space takes the first r0 columns and the support the last r+
    null = w <= cut
    ambiguous = ~(null | (w >= AMBIGUITY_FACTOR * cut))
    if ambiguous.any():
        k = int(ambiguous.any(axis=1).argmax())
        c = float(cut[k, 0])
        amb = w[k][ambiguous[k]]
        raise RankAmbiguousError(
            "eigenvalue(s) inside the rank ambiguity band "
            f"({c:.3e}, {AMBIGUITY_FACTOR * c:.3e}): {amb.tolist()}",
            eigenvalues=amb,
            band=[c, AMBIGUITY_FACTOR * c],
        )

    # every column is a null or a support one, so the columns of all are fixed at once
    r0 = null.sum(axis=1)
    keys, cols = sorted(set(r0.tolist())), _columns(vecs)
    groups = []
    for z in keys:
        if len(keys) == 1:  # the whole stack
            rows, w_g, cols_g, drho_g = np.arange(len(r0)), w, cols, drho
        else:
            rows = np.flatnonzero(r0 == z)
            w_g, cols_g, drho_g = w[rows], cols[rows], drho[rows]
        groups.append((rows, _split(drho_g, deriv_tol, w_g[:, z:], cols_g[..., z:],
                                    cols_g[..., :z])))
    return groups


def support_decomposition(sp: StateAtPoint, rank_tol: float = DEFAULT_RANK_TOL) -> SupportDecomposition:
    """Split the space into the support and null space of rho.

    Eigenvalues at or below ``rank_tol`` (relative to the largest one) are
    assigned to the null space and those above ``10 * rank_tol`` to the
    support; anything in between is refused as ambiguous rather than decided
    silently. The fixed-rank consistency P0 (d rho) P0 = 0 is verified for
    every parameter. ``sp.rho`` is diagonalized as stored: a
    :class:`StateAtPoint` is a validated, hermitized state, so nothing here
    judges it again. A non-finite or negative ``rank_tol`` raises
    ``InvalidToleranceError``. This is :func:`split_support` on a stack of
    one point.
    """
    (_, dec), = split_support(sp.rho[None], sp.drho[None], sp.deriv_tol, rank_tol)
    return dec.row(0)


def _basis_split(rho, drho, deriv_tol: float, V, rank_tol: float) -> SupportDecomposition:
    """:func:`decomposition_from_basis` for a (B, n, n) stack of states and a
    (B, n, r) stack of bases, checked as one stack: a stack holding a failing
    point raises an error of one of its failing points."""
    V = np.asarray(V, dtype=complex)
    B, n = rho.shape[:2]
    if V.ndim != 3 or V.shape[0] != B or V.shape[1] != n or V.shape[2] > n:
        raise InvalidStateError(f"basis has shape {V.shape[1:]}, expected ({n}, r<= {n})")
    r = V.shape[-1]
    vh = V.conj().swapaxes(-1, -2)
    m = vh @ rho @ V
    q = m.diagonal(axis1=-2, axis2=-1).real.copy()
    eye = nk.identity(r)
    defect, off = nk.fro_stack(np.array([vh @ V - eye, m - q[..., None] * eye]))
    if not (defect <= 1e-10 * max(1.0, r)).all():  # a non-finite basis fails here too
        raise InvalidStateError("support basis is not an isometry")
    rho_scale = 1e-8 * np.maximum(1.0, nk.fro_stack(rho))
    bad = off > rho_scale
    if bad.any():
        k = int(bad.argmax())
        raise InvalidStateError(
            f"supplied basis does not diagonalize the state (residual {off[k]:.3e})",
            residual=float(off[k]),
        )
    nulls = (q <= rank_tol * q.max(axis=-1, initial=-np.inf)[:, None]).any(axis=-1)
    if nulls.any():
        raise InvalidStateError("supplied basis includes null directions", q=q[nulls.argmax()])

    # the completion I - V V^dag is a projector: its eigenvalues near 1 (above 0.5) come last
    _, vecs = np.linalg.eigh(nk.hermitize(nk.identity(n) - V @ vh))
    Y = _columns(vecs[..., r:])
    if (nk.fro_stack(rho @ Y) > rho_scale).any():
        raise InvalidStateError("completed null basis is not annihilated by the state")
    return _split(drho, deriv_tol, q, V, Y)


def decomposition_from_basis(
    sp: StateAtPoint,
    V: np.ndarray,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SupportDecomposition:
    """Support decomposition in the gauge of a supplied support eigenbasis.

    ``V`` must be an isometry whose columns are eigenvectors of rho (for
    instance from a model's smooth support-basis map); the eigenvalues are
    read off the diagonal of V^dag rho V in column order. The null basis is
    completed orthonormally.
    """
    V = np.asarray(V, dtype=complex)
    return _basis_split(sp.rho[None], sp.drho[None], sp.deriv_tol, V[None], rank_tol).row(0)


# ---------------------------------------------------------------------------
# Numeric-model ingestion: a single point (rho, drho) supplied as JSON.
# Complex entries are [re, im] pairs; all matrices are n_s x n_s.
# ---------------------------------------------------------------------------


def parse_numeric_model(source) -> StateAtPoint:
    """Parse a single-point numeric model from JSON.

    Schema: ``{"n_s": int, "p": int, "rho": [[[re, im], ...]], "drho":
    [matrix, ...]}`` with p derivative matrices. The result is validated,
    as every :class:`StateAtPoint` is, as a density matrix with Hermitian
    traceless derivatives; it can feed every downstream check but supports
    no re-evaluation at other parameter values.
    """
    data = jsonio.load(source)
    jsonio.require_keys(data, ("n_s", "p", "rho", "drho"))
    n = data["n_s"]
    p = data["p"]
    if not jsonio.is_count(n):
        raise SchemaError("n_s must be a positive integer")
    if not jsonio.is_count(p):
        raise SchemaError("p must be a positive integer")

    rho = parse_complex_matrix(data["rho"], n, "rho")
    if not isinstance(data["drho"], list) or len(data["drho"]) != p:
        raise SchemaError(f"drho must hold {p} matrices")
    drho = [parse_complex_matrix(m, n, f"drho[{l}]") for l, m in enumerate(data["drho"])]
    return StateAtPoint(theta=None, rho=rho, drho=drho, scheme="analytic")


def state_to_numeric_model(sp: StateAtPoint) -> dict:
    """Serialize a state point to the numeric-model JSON schema."""
    return {
        "n_s": sp.dim,
        "p": sp.n_params,
        "rho": ComplexMatrix(sp.rho),
        "drho": ComplexMatrix(sp.drho),
    }
