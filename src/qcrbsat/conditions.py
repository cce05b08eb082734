"""Saturability conditions and the certified verdict.

For a single copy of a rank-deficient state, saturating the multiparameter
quantum Cramér-Rao bound hinges on the structure of the SLD blocks:

* commutativity of the ++ blocks on the support ("condition 1"),
* a Hermiticity constraint on cross products of the +0 blocks
  ("condition 3", necessary),
* existence of a unitary ``W`` aligning the +0 block columns up to real
  scalar ratios ("condition 4"; together with condition 1 it is sufficient
  and yields an explicit projective measurement),
* and, for a complete characterization, a unitary path ``U(theta)`` solving
  a first-order PDE system tied to a smooth support-basis map
  ("condition 2'", verified here for a supplied witness only).

Every check reports a scale-normalized residual next to its tolerance; the
pairwise checks read pair (l, m) relative to ``s_l s_m`` of
:attr:`~qcrbsat.sld.SLDSet.scales`. Conditions 1 and 3 and partial
commutativity read the SLD pair products; average commutativity reads
``|tr(rho [L_l, L_m])| = 2 |Im tr(rho L_l L_m)|`` off the same weighted
trace whose real part is the QFIM (see
:attr:`~qcrbsat.sld.SLDSet.weighted_traces`), and only full commutativity
forms the full-space commutators. The verdict (see :func:`verdict`) reads
conditions 1, 3 and 4 only, and average (weak) commutativity is reported
beside them. Full and partial (support-projected) commutativity and
condition 2' decide nothing, so they run only on request (``diagnostics``
of :func:`condition_reports`, the CLI's ``--diagnostics``) and read null
otherwise: partial commutativity's matrix is the sum of condition 1's and
condition 3's, and condition 2' is not checked against the corrected
theorem. The search for ``W``
is heuristic; only the verifier's residuals certify anything, so a failed
search degrades to UNKNOWN, and condition 4 is refuted only through a
failed condition 3. The W search tries one construction on the +0
blocks, chosen by their shape, and then the identity: none at r0 <= 1,
the real-rows one at r+ = 1 and the pseudo-inverse one otherwise; every
candidate, unitarity included, goes through the verifier. It runs on a
``(B, p, r+, r0)`` stack of points (see :func:`_find_w_stack`): the block
norms, the pseudo-inverses and each round of verification are one pass
over the stack, while the joint diagonalization and the real-rows
construction run per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import numkernel as nk
from .errors import QcrbSatError, require_tolerance
from .jsonio import ComplexMatrix
from .model import (DEFAULT_FD_STEP, DEFAULT_RANK_TOL, InvalidStateError, StateAtPoint,
                    StateModel, SupportDecomposition, _basis_split, stencil_points,
                    stencil_refusals, values_at)
from .sld import SLDSet, pair_index, pairs, plus_null_blocks

VERDICT_SATURABLE = "SATURABLE_CERTIFIED"
VERDICT_NOT = "NOT_SATURABLE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

COND4_YES = "CERTIFIED_YES"
COND4_NO = "CERTIFIED_NO"
COND4_UNKNOWN = "UNKNOWN"


class InvalidWitnessError(QcrbSatError):
    pass


@dataclass(frozen=True)
class CommCheck:
    """A residual-based pass/fail record for one commutativity-type check."""

    residual: float  # worst normalized residual
    scale: Optional[float]  # the worst pair's s_l s_m; None when there is no worst pair
    tol: float
    passed: bool
    worst_pair: Optional[tuple] = None

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "scale": self.scale,
            "tol": self.tol,
            "passed": self.passed,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
        }


def _checks(slds: SLDSet, residuals: np.ndarray, tol: float):
    """The worst pair of ``residuals[..., (l, m)] / (s_l s_m)``, with ``s`` = :attr:`SLDSet.scales`.

    ``residuals`` follow :func:`~qcrbsat.sld.pairs` on the last axis, and
    their leading axes are those of the SLDs. A pair with ``s_l s_m = 0``
    has vanishing support rows and reads 0. Ties keep the first pair; with
    no positive ratio the worst pair and the scale are None. Returns one
    :class:`CommCheck`, or for a stack of points the list of them.
    """
    s = slds.scales[..., pair_index(slds.n_params)]
    n_pairs = s.shape[-1]
    n_rows = math.prod(residuals.shape[:-1])
    pair_scales = (s[..., 0, :] * s[..., 1, :]).reshape(n_rows, n_pairs).tolist()
    pair = pairs(slds.n_params)
    checks = []
    for row, scales in zip(residuals.reshape(n_rows, n_pairs).tolist(), pair_scales):
        worst, worst_pair, worst_scale = 0.0, None, None
        for k, (r, scale) in enumerate(zip(row, scales)):
            if scale and r / scale > worst:
                worst, worst_pair, worst_scale = r / scale, pair[k], scale
        checks.append(CommCheck(residual=worst, scale=worst_scale, tol=tol, passed=worst <= tol,
                                worst_pair=worst_pair))
    return checks if residuals.ndim > 1 else checks[0]


def _imbalances(slds: SLDSet) -> tuple:
    """``A_lm - A_ml``, ``B_lm`` and ``B_ml`` of the pair products, for every pair."""
    a, b = slds.pair_products
    lm = pair_index(slds.n_params)
    a, b = a[..., lm, lm[::-1], :, :], b[..., lm, lm[::-1], :, :]  # (..., 2, pairs, r+, r+)
    return a[..., 0, :, :, :] - a[..., 1, :, :, :], b[..., 0, :, :, :], b[..., 1, :, :, :]


def check_full_commutativity(slds: SLDSet, tol: float = 1e-8):
    """Pairwise commutators of the full-space SLDs (00 blocks set to zero)."""
    return _checks(slds, nk.fro_stack(slds.commutators), tol)


def check_average_commutativity(rho: np.ndarray, slds: SLDSet, tol: float = 1e-8):
    """|tr(rho [L_l, L_m])| for every pair, read as ``2 |Im Z_lm|`` of
    :attr:`~qcrbsat.sld.SLDSet.weighted_traces`.

    ``rho`` is not read, since ``slds`` carries the support weights; it
    stays for the callers that pass it, the benchmark's replay among them.
    """
    ls, ms = pair_index(slds.n_params)
    return _checks(slds, 2.0 * np.abs(slds.weighted_traces[1][..., ls, ms]), tol)


def check_condition1(slds: SLDSet, tol: float = 1e-8):
    """Commutators of the ++ blocks, ``A_lm - A_ml`` of the pair products."""
    return _checks(slds, nk.fro_stack(_imbalances(slds)[0]), tol)


def check_condition3(slds: SLDSet, tol: float = 1e-8):
    """Anti-Hermitian part of the +0 cross products, ``B_lm - B_ml``."""
    _, b_lm, b_ml = _imbalances(slds)
    return _checks(slds, nk.fro_stack(b_lm - b_ml), tol)


def check_partial_commutativity(dec: SupportDecomposition, slds: SLDSet, tol: float = 1e-8):
    """Support-projected commutators P+ [L_l, L_m] P+, as ``A_lm - A_ml + B_lm - B_ml``.

    The identity holds by construction, since ``full`` is assembled from
    the same blocks. ``dec`` is not read; it stays for the callers that
    pass it, the benchmark's replay among them.
    """
    a_diff, b_lm, b_ml = _imbalances(slds)
    return _checks(slds, nk.fro_stack(a_diff + b_lm - b_ml), tol)


# ---------------------------------------------------------------------------
# Condition 4: existence of a unitary W with real-proportional +0 columns.
# ---------------------------------------------------------------------------


@dataclass
class Cond4Result:
    status: str  # CERTIFIED_YES | CERTIFIED_NO | UNKNOWN
    W: Optional[np.ndarray]
    lambdas: Optional[np.ndarray]  # (p, p, r0); nan on vacuous columns
    column_status: Optional[list]  # per column: "proportional" | "vacuous"
    residual: float
    tol: float
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "W": ComplexMatrix(self.W) if self.W is not None else None,
            "lambdas": None
            if self.lambdas is None
            else np.where(np.isnan(self.lambdas), None, self.lambdas).tolist(),
            "column_status": self.column_status,
            "residual": self.residual,
            "tol": self.tol,
            "notes": list(self.notes),
        }


def verify_condition4_with_w(
    lpz: Sequence[np.ndarray], w: np.ndarray, tol: float = 1e-8, scale_floor: float = 0.0
):
    """Check the column-proportionality condition for a candidate W.

    Returns ``(ok, lambdas, column_status, worst_residual)``. ``W`` must be
    unitary, ``||W^dag W - I|| <= 1e-8``; otherwise ``ok`` is False and the
    residual is at least that defect. Per column the rotated blocks must
    either vanish simultaneously (below ``tol`` times the overall scale) or
    be real multiples of the block with the largest column norm; a column
    that vanishes for some parameters but not others is mixed, fails, and
    reads its largest norm as residual. ``scale_floor`` lets callers anchor
    the scale to the full SLD norms so that +0 blocks consisting of pure
    roundoff count as vanished. This is :func:`_verify_stack` on a stack of
    one.
    """
    lpz = np.asarray(lpz, dtype=complex)
    r0 = lpz.shape[-1]
    w = np.asarray(w, dtype=complex)
    if w.shape != (r0, r0):
        raise nk.ShapeError(f"W has shape {w.shape}, expected ({r0}, {r0})")
    ok, lam, column_status, worst = _verify_stack(lpz[None], w[None], tol,
                                                  np.array([scale_floor], dtype=float))
    return ok[0], lam[0], column_status[0], worst[0]


_COLUMN_STATUS = ("vacuous", "mixed", "proportional")


def _verify_stack(lpz: np.ndarray, w: np.ndarray, tol: float, scale_floor: np.ndarray):
    """:func:`verify_condition4_with_w` at every point of a stack, in one pass.

    ``lpz`` is the ``(B, p, r+, r0)`` stack of +0 blocks, ``w`` the
    ``(B, r0, r0)`` candidates and ``scale_floor`` the ``(B,)`` floors.
    Every column of every block of every point is checked at once, on the
    stack ``lpz @ W``. Returns the list of ``ok`` flags, the ``(B, p, p,
    r0)`` ratios, the lists of column statuses and the list of residuals,
    each row what its point gives alone.
    """
    cols = lpz @ w[:, None]  # column s of block l at point b is cols[b, l, :, s]
    norms = nk.norm_stack(cols, axis=2)  # (B, p, r0)
    # all-zero blocks read every column vacuous against any positive scale
    scale = np.maximum(norms.max(axis=(1, 2), initial=0.0), scale_floor)
    scale[scale == 0.0] = 1.0

    live = norms > tol * scale[:, None, None]
    proportional = live.all(axis=1)
    mixed = live.any(axis=1) & ~proportional
    point, column = np.arange(len(cols))[:, None], np.arange(cols.shape[-1])
    ref_index = norms.argmax(axis=1)  # (B, r0)
    # (B, r0, r+): column s of its block with the largest norm, as row s
    ref = cols[point, ref_index, :, column]
    # Re <ref_s, column s of block l>, one BLAS dot product per column as
    # np.vdot takes it: a summation of its own would move the ratios' digits
    # wherever the inner product cancels
    inner = (ref.conj()[:, None, :, None, :] @ cols.swapaxes(2, 3)[..., None])[..., 0, 0].real
    # ratios vanish off the proportional columns, so there a residual is the column's norm
    top = inner[point, ref_index, column][:, None]
    ratios = inner / np.where(proportional[:, None], top, np.inf)  # (B, p, r0)
    residuals = nk.norm_stack(cols - ratios[:, :, None] * ref.swapaxes(1, 2)[:, None], axis=2)
    residuals /= scale[:, None, None]
    worst = (residuals * live).max(axis=(1, 2), initial=0.0)  # a mixed column's is its largest norm
    lam = ratios[:, :, None] / np.where(ratios != 0, ratios, np.nan)[:, None]
    column_status = [[_COLUMN_STATUS[k] for k in row]
                     for row in (2 * proportional + mixed).tolist()]
    r0 = w.shape[-1]
    defect = nk.fro_stack(w.conj().swapaxes(1, 2) @ w - nk.identity(r0))
    not_unitary = defect > 1e-8
    ok = ~not_unitary & (worst <= tol) & ~mixed.any(axis=1)
    return (ok.tolist(), lam, column_status,
            np.where(not_unitary, np.maximum(worst, defect), worst).tolist())


def _candidate_w_pinv(lpz: np.ndarray, ref: np.ndarray, tol: float) -> tuple:
    """Joint eigenbases of ``M_l = pinv(Lpz_ref) Lpz_l`` on all of C^{r0}, at each point of a
    ``(B, p, r+, r0)`` stack whose reference blocks are ``ref``.

    Suppose ``L_l = C Λ_l W^dag`` with every Λ_l real diagonal, no mixed
    column (one that vanishes for some parameters but not all) and C
    injective on the columns where Λ_ref is nonzero. Then ker ``Lpz_ref``
    is the joint kernel, and ``M_l = W Λ_ref^+ Λ_l W^dag``: a commuting
    Hermitian family, diagonal in W, whose all-zero cluster is the joint
    kernel. Any joint eigenbasis then groups columns with equal ratio tuples
    (the kernel among them) and is a valid W. When the family does not
    commute or is not scalar on a cluster, the joint diagonalization
    refuses and there is no candidate.

    The pseudo-inverses and the ``M_l`` are one stacked computation; each
    family is diagonalized on its own. Returns the ``(B, r0, r0)`` stack of
    bases and the ``(B,)`` flags of the points that have one.
    """
    b, p, _, r0 = lpz.shape
    m = np.linalg.pinv(lpz[np.arange(b), ref], rcond=1e-10)[:, None] @ lpz
    # each M_l enters as its Hermitian and anti-Hermitian parts, in turn
    family = np.stack([nk.hermitize(m), (m - m.conj().swapaxes(-1, -2)) / 2j], axis=2)
    bases = np.ones((b, r0, r0), dtype=complex)
    found = np.ones(b, dtype=bool)
    for k, family_k in enumerate(family.reshape(b, 2 * p, r0, r0)):
        try:
            bases[k] = nk.joint_eigenprojectors(family_k, tol=max(tol, 1e-10)).basis
        except (nk.NotCommutingError, nk.JointDiagonalizationError):
            found[k] = False
    return bases, found


def _candidate_w_totally_real(rows: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """For a one-dimensional support, a W that makes every row real.

    ``rows`` is the ``(p, r0)`` stack R of the blocks. Condition 3 for
    r+ = 1 says ``R R^dag`` is real; then ``R R^dag = X X^T`` with
    ``X = [Re R, Im R]``, and for ``X = U Σ V^T`` the columns
    ``R^dag u_j / σ_j = a_j - i b_j``, with ``(a_j, b_j) = v_j``, are
    orthonormal and ``R R^dag u_j / σ_j = σ_j u_j`` is real. Their
    orthogonal complement is ker R, so the rows vanish there. A generic real
    rotation of the real columns (the Q factor of ``k x k`` mixing weights)
    avoids accidental zero entries, which the verifier reads as mixed columns.
    """
    r0 = rows.shape[1]
    gram = rows @ rows.conj().T
    d = np.sqrt(gram.diagonal().real)
    if np.any(np.abs(gram.imag) > 1e-8 * np.outer(d, d)):
        return None  # the rows' inner products are not real: condition 3 fails
    _, sigma, vt = np.linalg.svd(np.concatenate([rows.real, rows.imag], axis=1))
    k = int(np.clip(np.sum(sigma > max(tol, 1e-10) * sigma[0]), 1, r0))
    real = (vt[:k, :r0] - 1j * vt[:k, r0:]).T  # (r0, k)
    complement = np.linalg.svd(real.conj().T)[2][k:].conj().T  # (r0, r0 - k)
    rotation = np.linalg.qr(nk.mixing_weights(k * k).reshape(k, k))[0]
    return np.concatenate([real @ rotation, complement], axis=1)


def find_w_condition4(
    lpz: Sequence[np.ndarray],
    tol: float = 1e-8,
    *,
    rng: np.random.Generator | None = None,
    scale_floor: float = 0.0,
) -> Cond4Result:
    """Decide the column-alignment condition on the +0 blocks.

    One construction runs, chosen by the shape, and then the identity is
    tried: at r0 <= 1 none, since every unitary W is then a phase and
    decides as the identity does; at r+ = 1 the real-rows construction (see
    :func:`_candidate_w_totally_real`); otherwise the pinv construction (see
    :func:`_candidate_w_pinv`). When every block is below
    ``tol * scale_floor`` the identity alone is tried. CERTIFIED_YES comes
    with the first candidate :func:`verify_condition4_with_w` accepts,
    unitarity included, and its fitted real ratios; everything else is
    UNKNOWN. The refutation (CERTIFIED_NO) is condition 3's:
    :class:`ConditionReport` reads it off a failed condition 3.

    This is :func:`_find_w_stack` on a stack of one. ``rng`` is not read; it
    stays for the callers that pass it, the benchmark's replay among them.
    """
    lpz = np.asarray(lpz, dtype=complex)
    return _find_w_stack(lpz[None], tol, np.array([scale_floor], dtype=float))[0]


def _find_w_stack(lpz: np.ndarray, tol: float, scale_floor: np.ndarray) -> list:
    """:func:`find_w_condition4` at every point of a ``(B, p, r+, r0)`` stack of +0 blocks.

    The stack's shape picks one construction: none at r0 <= 1, the
    real-rows one at r+ = 1, the pinv one otherwise. It runs at the points
    whose blocks are not all below ``tol * scale_floor``, and the identity
    then goes on to the points it left undecided. The block norms, the
    vacuous test, the pseudo-inverses and each round of verification run
    once on the stack; the joint diagonalization and the real-rows
    construction run per point. Returns the :class:`Cond4Result` of every
    point, each what the point gives alone.
    """
    b, _, r_plus, r0 = lpz.shape
    norms = nk.norm_stack(lpz)  # (B, p)
    live = np.flatnonzero(norms.max(axis=1) > tol * scale_floor) if r0 > 1 else np.arange(0)
    results: list = [None] * b
    tried = [[] for _ in range(b)]  # the residuals of the refused candidates, in turn

    def attempt(rows, ws):
        """Verify the candidates ``ws`` at the points ``rows`` that have none accepted yet."""
        oks, lams, statuses, residuals = _verify_stack(lpz[rows], ws, tol, scale_floor[rows])
        for k, (i, ok, res) in enumerate(zip(rows, oks, residuals)):
            if ok:  # W and the ratios are copied, so no result holds on to the group's stacks
                results[i] = Cond4Result(status=COND4_YES, W=ws[k].copy(), lambdas=lams[k].copy(),
                                         column_status=statuses[k], residual=res, tol=tol,
                                         notes=[] if r0 else ["no null directions"])
            else:
                tried[i].append(res)

    if live.size and r_plus == 1:
        ws = {i: _candidate_w_totally_real(lpz[i, :, 0], tol) for i in live.tolist()}
        rows = [i for i, w in ws.items() if w is not None]
        if rows:
            attempt(rows, np.array([ws[i] for i in rows]))
    elif live.size:
        ws, found = _candidate_w_pinv(lpz[live], norms[live].argmax(axis=1), tol)
        if found.any():
            attempt(live[found].tolist(), ws[found])
    rows = [i for i, r in enumerate(results) if r is None]
    if rows:
        attempt(rows, np.tile(np.eye(r0, dtype=complex), (len(rows), 1, 1)))

    for i, r in enumerate(results):
        if r is None:
            results[i] = Cond4Result(
                status=COND4_UNKNOWN, W=None, lambdas=None, column_status=None,
                residual=min(tried[i]), tol=tol,
                notes=["search exhausted without a verified W; existence undecided"])
    return results


# ---------------------------------------------------------------------------
# Condition 2': PDE witness verification on a smooth support-basis map.
# ---------------------------------------------------------------------------


@dataclass
class Cond2PrimeWitness:
    """A candidate solution of the support-basis PDE system.

    ``unitary_fn(theta)`` is the unitary path U(theta); like the model's maps it
    broadcasts over the leading axes of theta, a ``(..., p)`` stack of points
    mapping to the ``(..., r+, r+)`` unitaries (see
    :class:`~qcrbsat.model.StateModel`). ``generators`` holds
    the real diagonal matrices D_l at the point checked as one real
    ``(p, r+)`` array, row l the diagonal of D_l; ``None`` means all zero.
    :func:`verify_condition2prime` refuses any other form with
    :class:`InvalidWitnessError`.
    """

    unitary_fn: Callable[[np.ndarray], np.ndarray]
    generators: Optional[np.ndarray] = None


def identity_path(theta, r: int) -> np.ndarray:
    """The constant path U = I (r x r) at a point or a ``(..., p)`` stack of points."""
    u = np.zeros(np.shape(theta)[:-1] + (r, r), dtype=complex)
    u[..., np.arange(r), np.arange(r)] = 1.0
    return u


@dataclass
class Cond2PrimeResult:
    """Condition 2' residuals; the defaults record it undecided, with the reason in ``notes``."""

    status: str = "NOT_CHECKED"  # PASSED | FAILED | NOT_CHECKED
    path: str = "not_checked"  # user_supplied_U | zero_generators | not_checked
    pde_residual: Optional[float] = None
    stationarity_residual: Optional[float] = None
    cross_identity_residual: Optional[float] = None
    tol: float = 1e-8
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**vars(self), "notes": list(self.notes)}


def verify_condition2prime(
    model: StateModel,
    sp: StateAtPoint,
    witness: Optional[Cond2PrimeWitness] = None,
    *,
    null_povm: None = None,
    tol: float = 1e-8,
):
    """Verify a witness for the support-basis PDE condition at one point.

    Checks, each reported as a normalized residual: (a) the PDE
    ``dU_l = U (V^dag dV_l + i D_l)``; (b) when every D_l vanishes, the
    consequence ``P+ d(V U^dag)_l = 0``; (c) the cross identity between
    the +0 SLD blocks and ``2 dV_l^dag Y``. Without a witness the
    condition is NOT_CHECKED and no map runs. Null measurements are not
    checked here: :func:`~qcrbsat.povm.verify_saturation_structural`
    decides them, so a ``null_povm`` other than None is refused.

    All map derivatives are central differences with step
    :data:`~qcrbsat.model.DEFAULT_FD_STEP` on the smooth maps, each map run
    once on the one :func:`~qcrbsat.model.stencil_points`;
    where :func:`~qcrbsat.model.stencil_refusals` refuses that stencil (it
    would round to theta or leave the model's domain), the condition is
    NOT_CHECKED, and its note gives that reason. A non-finite value of
    either map is refused, an
    :class:`~qcrbsat.model.InvalidStateError` for the support basis and an
    :class:`InvalidWitnessError` for the witness. Every per-parameter
    quantity is one ``(p, ...)`` stack, normed by
    :func:`~qcrbsat.numkernel.fro_stack`.

    On a stack of points (``sp`` from :func:`~qcrbsat.model.evaluate_points`)
    it returns the list of results, one per point and each equal to the
    single-point result: the support basis runs once at the points, the
    witness once at the points whose stencil fits, and each once on one
    stencil of those. A stack holding a failing point raises a
    :class:`~qcrbsat.errors.QcrbSatError` from one of its failing points.
    """
    if null_povm is not None:
        raise QcrbSatError("condition 2' checks no null measurement; "
                           "povm.verify_saturation_structural decides it")
    theta = np.asarray(sp.theta, dtype=float)
    if theta.ndim == 1:
        return _condition2prime(model, theta[None], sp.rho[None], sp.drho[None], sp.deriv_tol,
                                witness, tol)[0]
    return _condition2prime(model, theta, sp.rho, sp.drho, sp.deriv_tol, witness, tol)


def _stencil_values(fn, points: np.ndarray, shape: tuple, error: type, what: str) -> tuple:
    """The values of ``fn`` at the ``(2, ...)`` stencil ``points``, ``theta + h e_l`` and
    ``theta - h e_l`` (see :func:`~qcrbsat.model.values_at`); a non-finite one raises."""
    values = values_at(fn, points, shape, error, what)
    if not np.isfinite(values).all():
        raise error(f"{what} map has non-finite values on the stencil theta +/- h")
    return values[0], values[1]


def _condition2prime(model, theta, rho, drho, deriv_tol, witness, tol) -> list:
    """:func:`verify_condition2prime` at the (B, p) stack ``theta``, whose states and
    derivatives are ``rho`` and ``drho``."""
    if model.support_basis_fn is None or witness is None:
        note = ("model exposes no smooth support-basis map" if model.support_basis_fn is None
                else "no witness supplied; existence undecided")
        return [Cond2PrimeResult(tol=tol, notes=[note]) for _ in theta]

    fro = nk.fro_stack
    p, h = drho.shape[-3], DEFAULT_FD_STEP
    v = values_at(model.support_basis_fn, theta, None, what="support basis")
    dec = _basis_split(rho, drho, deriv_tol, v, DEFAULT_RANK_TOL)
    r_plus = dec.r_plus
    refusals = stencil_refusals(model, theta, h)
    results = [None if why is None else Cond2PrimeResult(
        tol=tol, notes=[f"the stencil theta +/- h with h = {h:g} {why}; existence undecided"])
        for why in refusals]
    fits = np.array([why is None for why in refusals])
    if not fits.any():
        return results
    rows = np.flatnonzero(fits)
    if rows.size < len(theta):  # the stencil and the witness take the points whose stencil fits
        theta, v, drho, dec = theta[rows], v[rows], drho[rows], dec.row(rows)
    points = stencil_points(model, theta, h)
    # both maps run on the one checked stencil: the support basis here, the witness below
    v_plus, v_minus = _stencil_values(model.support_basis_fn, points, v.shape[1:],
                                      InvalidStateError, "support basis")
    dv = (v_plus - v_minus) / (2.0 * h)
    a = v[:, None].conj().swapaxes(-1, -2) @ dv  # V^dag dV_l, skew-Hermitian

    u = values_at(witness.unitary_fn, theta, (r_plus, r_plus), InvalidWitnessError, "witness")
    defect = fro(u.conj().swapaxes(-1, -2) @ u - nk.identity(r_plus))
    not_unitary = ~(defect <= 1e-10 * max(1.0, r_plus))  # a non-finite defect is refused too
    if not_unitary.any():
        raise InvalidWitnessError("witness map is not unitary at this point",
                                  defect=float(defect[not_unitary.argmax()]))
    gens = np.zeros((p, r_plus)) if witness.generators is None else np.asarray(witness.generators)
    if gens.shape != (p, r_plus) or gens.dtype.kind not in "fiu" or not np.isfinite(gens).all():
        raise InvalidWitnessError(f"generators must be a finite real ({p}, {r_plus}) array of "
                                  f"the diagonals of D_l, got {gens.dtype} of shape {gens.shape}")
    d = gens[:, :, None] * nk.identity(r_plus)  # the (p, r+, r+) D_l, the same at every point
    u_plus, u_minus = _stencil_values(witness.unitary_fn, points, (r_plus, r_plus),
                                      InvalidWitnessError, "witness")
    du = (u_plus - u_minus) / (2.0 * h)

    pde, du_norm, a_norm = fro(np.array([du - u[:, None] @ (a + 1j * d), du, a]))
    d_norm = fro(d)
    pde_res = (pde / np.maximum(1.0, du_norm + a_norm + d_norm)).max(axis=-1, initial=0.0)
    zero = bool((d_norm <= 1e-12).all())
    path = "zero_generators" if zero else "user_supplied_U"

    stationarity = [None] * len(rows)
    if zero:  # every D_l vanishes, so P+ d(V U^dag)_l = 0
        dvt = (v_plus @ u_plus.conj().swapaxes(-1, -2)
               - v_minus @ u_minus.conj().swapaxes(-1, -2)) / (2.0 * h)  # d(V U^dag)_l
        projected, dvt_norm = fro(np.array([dec.P_plus[:, None] @ dvt, dvt]))
        stationarity = (projected / np.maximum(1.0, dvt_norm)).max(axis=-1, initial=0.0).tolist()

    lpz = plus_null_blocks(dec, drho)
    ident = 2.0 * dv.conj().swapaxes(-1, -2) @ dec.Y[:, None]
    cross, lpz_norm, ident_norm = fro(np.array([lpz - ident, lpz, ident]))
    cross_res = (cross / np.maximum(1.0, lpz_norm + ident_norm)).max(axis=-1, initial=0.0)

    for k, pde_r, cross_r, stat_r in zip(rows.tolist(), pde_res.tolist(), cross_res.tolist(),
                                         stationarity):
        checked = (pde_r, cross_r, stat_r)
        results[k] = Cond2PrimeResult(
            status="PASSED" if all(r <= tol for r in checked if r is not None) else "FAILED",
            path=path, pde_residual=pde_r, stationarity_residual=stat_r,
            cross_identity_residual=cross_r, tol=tol)
    return results


# ---------------------------------------------------------------------------
# Report assembly and verdict.
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """The checks of one point and its verdict.

    ``full_comm``, ``partial_comm`` and ``cond2prime`` are diagnostics the
    verdict does not read. :meth:`to_dict` writes them only when
    ``diagnostics`` is set, and null otherwise, whatever the fields hold.
    """

    regime: str  # pure | full_rank | rank_deficient
    full_comm: Optional[CommCheck]
    avg_comm: CommCheck
    partial_comm: Optional[CommCheck]
    cond1: CommCheck
    cond3: CommCheck
    cond4: Cond4Result
    cond2prime: Optional[Cond2PrimeResult]
    verdict: str = ""
    reasoning: list = field(default_factory=list)
    tol: float = 1e-8
    diagnostics: bool = False

    def __post_init__(self):
        # Condition 3 is necessary for condition 4, so its failure refutes an undecided search.
        if self.cond4.status == COND4_UNKNOWN and not self.cond3.passed:
            self.cond4 = replace(
                self.cond4,
                status=COND4_NO,
                residual=self.cond3.residual,
                notes=["refuted through the necessary cross-product condition "
                       f"(residual {self.cond3.residual:.3e} > {self.cond3.tol:.1e})"],
            )

    def to_dict(self) -> dict:
        def diagnostic(check):
            return check.to_dict() if self.diagnostics and check is not None else None

        return {
            "regime": self.regime,
            "full_commutativity": diagnostic(self.full_comm),
            "average_commutativity": self.avg_comm.to_dict(),
            "partial_commutativity": diagnostic(self.partial_comm),
            "condition1": self.cond1.to_dict(),
            "condition3": self.cond3.to_dict(),
            "condition4": self.cond4.to_dict(),
            "condition2prime": diagnostic(self.cond2prime),
            "verdict": self.verdict,
            "reasoning": list(self.reasoning),
            "tol": self.tol,
        }


def verdict(report: ConditionReport, r_plus: int, r_zero: int):
    """Fold conditions 1, 3 and 4 into a certified verdict.

    One-dimensional support: conditions 1 and 3 decide saturability both
    ways. Otherwise conditions 1, 3 and 4 together certify it, and a failed
    condition 1 or 3 refutes it. Condition 4 implies condition 3, so a
    verified W beside a failing condition 3 is a rounding contradiction and
    reads inconclusive, as does anything else undecided (the PDE condition
    stays open). At full rank condition 4 holds vacuously and condition 1 is
    full commutativity. The commutativity diagnostics are not read:
    conditions 1 and 3 imply partial commutativity.
    """
    c1, c3 = report.cond1.passed, report.cond3.passed
    c4 = report.cond4.status == COND4_YES
    line1 = f"condition 1 {'pass' if c1 else 'fail'} (residual {report.cond1.residual:.3e})"
    line3 = f"condition 3 {'pass' if c3 else 'fail'} (residual {report.cond3.residual:.3e})"
    if r_plus == 1:
        trace = ["support is one-dimensional: conditions 1 and 3 are decisive", line1, line3]
        return (VERDICT_SATURABLE if (c1 and c3) else VERDICT_NOT), trace

    state = "rank-deficient" if r_zero else "full-rank"
    trace = [f"{state} state: certifying through conditions 1 and 4", line1,
             f"condition 4 status {report.cond4.status}"]
    if c1 and c3 and c4:
        return VERDICT_SATURABLE, trace
    trace.append(line3)
    if c1 and c4:
        trace.append("condition 4 holds but its necessary condition 3 fails: "
                     "a rounding contradiction, so nothing is certified")
        return VERDICT_INCONCLUSIVE, trace
    if not (c1 and c3):
        trace.append("a necessary condition fails")
        return VERDICT_NOT, trace
    trace.append("necessary conditions hold but no sufficiency certificate was found "
                 "(PDE condition undetermined)")
    return VERDICT_INCONCLUSIVE, trace


def evaluate_conditions(
    sp: StateAtPoint,
    dec: SupportDecomposition,
    slds: SLDSet,
    *,
    model: Optional[StateModel] = None,
    tol: Optional[float] = None,
    diagnostics: bool = False,
) -> ConditionReport:
    """Run the saturability checks and assemble the verdict (``tol`` must be finite and >= 0).

    This is :func:`condition_reports` on the point as a stack of one. Full
    and partial commutativity and condition 2' run only with ``diagnostics``.
    """
    return condition_reports(sp.row(None), dec.row(None), slds.row(None), model=model, tol=tol,
                             diagnostics=diagnostics)[0]


def condition_reports(
    sp: StateAtPoint,
    dec: SupportDecomposition,
    slds: SLDSet,
    *,
    model: Optional[StateModel] = None,
    tol: Optional[float] = None,
    diagnostics: bool = False,
) -> list:
    """The condition report of each point of a stack.

    ``sp``, ``dec`` and ``slds`` hold a stack of points with equal
    ``(r_plus, r_zero)`` (see :func:`~qcrbsat.model.split_support`). The
    pairwise checks are the ``check_*`` functions, each called once on the
    stack, and the W search (see :func:`_find_w_stack`) runs once on it;
    the reports and the verdict are per point. By default
    the pairwise checks are the ones the verdict reads, conditions 1 and 3,
    and average commutativity; the report's full and partial commutativity
    and condition 2' are None and write null. With ``diagnostics`` those
    three are computed too, condition 2' once on the stack against
    ``model.witness`` (when ``model`` is given and the points have a theta).
    Each report equals the one :func:`evaluate_conditions` gives at that point.
    A stack holding a failing point raises a
    :class:`~qcrbsat.errors.QcrbSatError` from one of its failing points.
    """
    tol = tol if tol is not None else sp.deriv_tol
    require_tolerance("cond_tol", tol)
    n = len(slds.full)
    full = check_full_commutativity(slds, tol) if diagnostics else [None] * n
    partial = check_partial_commutativity(dec, slds, tol) if diagnostics else [None] * n
    sld_scales = nk.fro_stack(slds.full).max(axis=-1) if slds.n_params else np.ones(n)
    checks = zip(full, check_average_commutativity(sp.rho, slds, tol), partial,
                 check_condition1(slds, tol), check_condition3(slds, tol),
                 _find_w_stack(slds.Lpz, tol, sld_scales))
    regime = "pure" if dec.r_plus == 1 else ("full_rank" if dec.r_zero == 0 else "rank_deficient")
    reports = [ConditionReport(regime=regime, full_comm=full_c, avg_comm=avg, partial_comm=part,
                               cond1=c1, cond3=c3, cond4=c4, cond2prime=None, tol=tol,
                               diagnostics=diagnostics)
               for full_c, avg, part, c1, c3, c4 in checks]
    if diagnostics and model is not None and sp.theta is not None:
        for report, result in zip(reports, verify_condition2prime(model, sp, model.witness,
                                                                  tol=max(tol, 1e-8))):
            report.cond2prime = result
    for report in reports:
        report.verdict, report.reasoning = verdict(report, dec.r_plus, dec.r_zero)
    return reports
