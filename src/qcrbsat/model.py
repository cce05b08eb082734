"""Parameterized density-matrix families and their support/null decomposition.

A :class:`StateModel` maps a real parameter vector, or a stack of them, to
a density matrix and optionally provides analytic parameter derivatives and
a smooth isometry whose columns track the support eigenbasis.
:func:`evaluate` produces the state and its derivatives at a point, and
:func:`state_at` the validated state alone at a point or at each point of a
stack (what a likelihood reads); :func:`support_decomposition` splits
the Hilbert space into the support (positive eigenvalues) and the null
space, which is the coordinate system every downstream check works in.
"""

from __future__ import annotations

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
    :func:`evaluate`, :func:`state_at` and :func:`stencil` call the maps
    through :func:`values_at`, which refuses another shape or a bare numpy
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


@dataclass
class StateAtPoint:
    """The state, its parameter derivatives, and how they were obtained.

    A state point is valid by construction: ``rho`` must be a finite, square,
    Hermitian, unit-trace, positive semidefinite matrix and ``drho`` a finite
    ``(p, n, n)`` stack of Hermitian, traceless matrices, judged at the
    scheme's :func:`derivative_tol`. Both are stored hermitized; an invalid
    input raises :class:`InvalidStateError` (or :class:`TraceNotOneError`).
    """

    theta: Optional[np.ndarray]
    rho: np.ndarray
    drho: np.ndarray  # (p, n, n)
    scheme: str  # "analytic" | "central_fd" | "richardson"
    fd_step: Optional[float] = None

    def __post_init__(self):
        rho = np.asarray(self.rho)
        n = rho.shape[-1] if rho.ndim else 0
        self.rho = _validate_densities(_require_shape(rho, (), (n, n), InvalidStateError,
                                                     "state")[None])[0]
        self.drho = _validate_drho(self.drho, self.dim, derivative_tol(self.scheme))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n_params(self) -> int:
        return self.drho.shape[0]

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
    Operators are expressed in this split as ++, +0, 0+, 00 blocks.
    """

    q: np.ndarray
    V: np.ndarray
    Y: np.ndarray
    P_plus: np.ndarray
    r_plus: int
    r_zero: int


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

    ``points`` is one ``(p,)`` point or a ``(..., p)`` stack of them. A map that
    fails on the stack with a bare numpy error (``ValueError``, ``IndexError``,
    ``TypeError``), or returns another shape, raises ``error`` naming it;
    ``shape=None`` leaves the shape to the caller.
    """
    try:
        values = fn(points)
    except (ValueError, IndexError, TypeError) as exc:
        raise error(f"{what} map failed on points of shape {points.shape} ({exc}): the map "
                    "must broadcast over the leading axes of theta") from exc
    if shape is None:
        return np.asarray(values, dtype=complex)
    return _require_shape(values, points.shape[:-1], shape, error, what)


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
    defect = nk.fro_stack(rho - adj)
    not_herm = defect > HERM_TOL * np.maximum(1.0, nk.fro_stack(rho))
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


def _validate_drho(drho, dim: int, tol: float) -> np.ndarray:
    """The hermitized (p, n, n) derivatives, ``n = dim``; each must be finite, and
    its Hermitian defect and trace are judged against ``tol * ||d_l rho||``, for
    the whole stack at once."""
    drho = np.asarray(drho, dtype=complex)
    if drho.ndim != 3 or drho.shape[1:] != (dim, dim):
        raise InvalidStateError(f"derivatives have shape {drho.shape}, expected (p, {dim}, {dim})")
    finite = np.isfinite(drho).all(axis=(1, 2))
    if not finite.all():
        drho = np.where(finite[:, None, None], drho, 0.0)  # the finite ones are judged below
    adj = drho.conj().swapaxes(1, 2)
    bound = tol * nk.fro_stack(drho)
    defect = nk.fro_stack(drho - adj)
    herm = (drho + adj) / 2.0
    trace = np.abs(herm.trace(axis1=1, axis2=2))
    not_herm = defect > bound
    bad = ~finite | not_herm | (trace > bound)
    if bad.any():
        l = int(bad.argmax())
        if not finite[l]:
            raise InvalidStateError(f"derivative {l} has non-finite entries")
        if not_herm[l]:
            raise InvalidStateError(
                f"derivative {l} is not Hermitian to tolerance", defect=float(defect[l])
            )
        raise InvalidStateError(
            f"derivative {l} is not traceless: |tr| = {trace[l]:.3e}", trace=float(trace[l])
        )
    return herm


def stencil(model: StateModel, fn, theta: np.ndarray, h: float, shape: tuple,
            error: type = InvalidStateError, what: str = "state") -> tuple:
    """The ``(p, *shape)`` stacks of ``fn(theta + h e_l)`` and of ``fn(theta - h e_l)``,
    l = 0..p-1, each from one call of ``fn`` on the ``(p, p)`` stack of points.

    ``fn`` is a map on the parameters of ``model`` that broadcasts over the
    leading axes of theta (see :func:`values_at`, which checks what it returns
    and raises ``error`` otherwise). Before any call, ``h`` must be a finite
    positive step that moves every parameter both ways (``theta_l +/- h``
    differs from ``theta_l`` in floating point), and every stencil point must
    lie inside the open domain of ``model``; otherwise :class:`DomainError`
    is raised.
    """
    if not (np.isfinite(h) and h > 0):
        raise DomainError(f"finite-difference step must be a finite positive number, got {h}")
    if ((theta + h == theta) | (theta - h == theta)).any():
        raise DomainError(f"finite-difference step {h:g} does not move theta {theta.tolist()}: "
                          "theta +/- h rounds to theta", theta=theta, step=h)
    if not ((theta > model.domain.lo + h) & (theta < model.domain.hi - h)).all():
        raise DomainError(
            f"theta {theta.tolist()} +/- {h} leaves the domain of {model.name}", theta=theta
        )
    steps = h * np.eye(len(theta))
    return (values_at(fn, theta + steps, shape, error, what),
            values_at(fn, theta - steps, shape, error, what))


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
    over the stack, and a failing point raises the error it raises alone.
    """
    theta = np.asarray(theta, dtype=float)
    stack = _check_points(model, theta)
    rho = _validate_densities(values_at(model.state_fn, stack, (model.dim, model.dim)))
    return rho if theta.ndim == 2 else rho[0]


def evaluate(
    model: StateModel,
    theta,
    scheme: str = "auto",
    h: float = DEFAULT_FD_STEP,
) -> StateAtPoint:
    """Evaluate rho and all parameter derivatives at a point.

    ``scheme`` is one of "auto", "analytic", "central_fd", "richardson";
    "auto" uses analytic derivatives when the model provides them. The
    state and the analytic derivatives come from one call each of
    ``state_fn`` and ``derivative_fn`` through :func:`values_at`, which
    refuses a value of another shape or a bare numpy error with an
    :class:`InvalidStateError` naming the map. The finite-difference schemes
    take every central difference
    ``(rho(theta + h e_l) - rho(theta - h e_l)) / 2h`` from one
    :func:`stencil`, which first checks the step and that ``theta +/- h``
    stays inside the open domain; "richardson" combines the stencils at
    ``h`` and ``h / 2`` into ``(4 D(h/2) - D(h)) / 3``. The state and its
    derivatives are validated where the returned :class:`StateAtPoint` is made.
    """
    theta = _check_points(model, theta)[0]

    if scheme == "auto":
        scheme = "analytic" if model.derivative_fn is not None else "central_fd"
    if scheme == "analytic" and model.derivative_fn is None:
        raise DomainError(f"model {model.name} has no analytic derivatives")
    if scheme not in ("analytic", "central_fd", "richardson"):
        raise DomainError(f"unknown derivative scheme {scheme!r}")

    n = model.dim
    rho = values_at(model.state_fn, theta, (n, n))
    if scheme == "analytic":
        drho = values_at(model.derivative_fn, theta, (model.n_params, n, n), what="derivative")
    else:
        def central(step):
            plus, minus = stencil(model, model.state_fn, theta, step, (n, n))
            return nk.hermitize((plus - minus) / (2.0 * step))

        drho = central(h)
        if scheme == "richardson":
            drho = (4.0 * central(h / 2.0) - drho) / 3.0

    return StateAtPoint(
        theta=theta,
        rho=rho,
        drho=drho,
        scheme=scheme,
        fd_step=None if scheme == "analytic" else h,
    )


def fix_phases(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    m = np.array(m, dtype=complex)
    for j in range(m.shape[1]):
        col = m[:, j]
        i = int(np.argmax(np.abs(col)))
        z = col[i]
        if abs(z) > 0:
            m[:, j] = col * (abs(z) / z)
    return m


def _split(sp: StateAtPoint, q, V, Y) -> SupportDecomposition:
    """The decomposition with support basis V and null basis Y, after checking
    that every derivative vanishes on the null block (the rank is locally constant)."""
    _check_fixed_rank(sp, Y)
    return SupportDecomposition(
        q=q,
        V=V,
        Y=Y,
        P_plus=nk.hermitize(V @ V.conj().T),
        r_plus=V.shape[1],
        r_zero=Y.shape[1],
    )


def _check_fixed_rank(sp: StateAtPoint, Y: np.ndarray) -> None:
    """Refuse a derivative whose null block ``Y^dag d_l rho Y`` exceeds the scheme's
    tolerance times ``||d_l rho||``; the blocks of all parameters form one stack."""
    tol = sp.deriv_tol
    residual = nk.fro_stack(Y.conj().T @ sp.drho @ Y)
    scale = nk.fro_stack(sp.drho)
    bad = residual > tol * scale
    if bad.any():
        l = int(bad.argmax())
        raise RankNotLocallyConstantError(
            f"null-block of derivative {l} is nonzero "
            f"({residual[l]:.3e} > {tol:.1e} * {scale[l]:.3e}); "
            "the rank of the family is not locally constant at this point",
            param=l,
            residual=float(residual[l]),
        )


def support_decomposition(sp: StateAtPoint, rank_tol: float = DEFAULT_RANK_TOL) -> SupportDecomposition:
    """Split the space into the support and null space of rho.

    Eigenvalues at or below ``rank_tol`` (relative to the largest one) are
    assigned to the null space and those above ``10 * rank_tol`` to the
    support; anything in between is refused as ambiguous rather than decided
    silently. The fixed-rank consistency P0 (d rho) P0 = 0 is verified for
    every parameter. ``sp.rho`` is diagonalized as stored: a
    :class:`StateAtPoint` is a validated, hermitized state, so nothing here
    judges it again. A non-finite or negative ``rank_tol`` raises
    ``InvalidToleranceError``.
    """
    require_tolerance("rank_tol", rank_tol)
    w, q_vecs = np.linalg.eigh(sp.rho)
    lam_max = float(w[-1])
    cut = rank_tol * lam_max
    null_mask = w <= cut
    support_mask = w >= AMBIGUITY_FACTOR * cut
    amb = ~(null_mask | support_mask)
    if np.any(amb):
        raise RankAmbiguousError(
            "eigenvalue(s) inside the rank ambiguity band "
            f"({cut:.3e}, {AMBIGUITY_FACTOR * cut:.3e}): {w[amb].tolist()}",
            eigenvalues=w[amb],
            band=[cut, AMBIGUITY_FACTOR * cut],
        )

    V = fix_phases(q_vecs[:, support_mask])
    Y = fix_phases(q_vecs[:, null_mask])
    return _split(sp, np.asarray(w[support_mask], dtype=float), V, Y)


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
    n = sp.dim
    if V.ndim != 2 or V.shape[0] != n or V.shape[1] > n:
        raise InvalidStateError(f"basis has shape {V.shape}, expected ({n}, r<= {n})")
    gram = V.conj().T @ V
    if nk.fro(gram - np.eye(V.shape[1])) > 1e-10 * max(1.0, V.shape[1]):
        raise InvalidStateError("support basis is not an isometry")

    m = V.conj().T @ sp.rho @ V
    q = np.diag(m).real.copy()
    off = nk.fro(m - np.diag(q))
    if off > 1e-8 * max(1.0, nk.fro(sp.rho)):
        raise InvalidStateError(
            f"supplied basis does not diagonalize the state (residual {off:.3e})",
            residual=off,
        )
    lam_max = float(np.max(q))
    if np.any(q <= rank_tol * lam_max):
        raise InvalidStateError("supplied basis includes null directions", q=q)

    comp = np.eye(n) - V @ V.conj().T
    w, vecs = np.linalg.eigh(nk.hermitize(comp))
    Y = fix_phases(vecs[:, w > 0.5])
    if nk.fro(sp.rho @ Y) > 1e-8 * max(1.0, nk.fro(sp.rho)):
        raise InvalidStateError("completed null basis is not annihilated by the state")
    return _split(sp, q, V, Y)


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
