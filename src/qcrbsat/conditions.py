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
  ("condition 2'", verified here for supplied or canonical witnesses only).

Every check reports a scale-normalized residual next to its tolerance; the
pairwise checks read pair (l, m) relative to ``s_l s_m`` of
:attr:`~qcrbsat.sld.SLDSet.scales`. The verdict (see :func:`verdict`) reads
conditions 1, 3 and 4 only; full, average and partial (support-projected)
commutativity of the SLDs are reported diagnostics. The searches (for
``W``, for canonical witnesses) are heuristic; only the verifier's residuals
certify anything, so a failed search degrades to UNKNOWN, and condition 4
is refuted only through a failed condition 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import numkernel as nk
from .errors import QcrbSatError, require_tolerance
from .jsonio import ComplexMatrix
from .model import StateAtPoint, StateModel, SupportDecomposition, decomposition_from_basis
from .sld import SLDSet, pairs, plus_null_blocks

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
    scale: float
    tol: float
    passed: bool
    worst_pair: Optional[tuple] = None
    values: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "scale": self.scale,
            "tol": self.tol,
            "passed": self.passed,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
        }


def _pair_check(slds: SLDSet, residuals, tol: float, values=None) -> CommCheck:
    """The worst pair of ``residuals[l, m] / (s_l s_m)``, with ``s`` = :attr:`SLDSet.scales`.

    ``residuals`` follow :func:`~qcrbsat.sld.pairs`. A pair with
    ``s_l s_m = 0`` has vanishing support rows and reads 0. Ties keep the
    first pair; with no positive ratio the worst pair is None and the
    scale 1.0.
    """
    s = slds.scales
    worst, worst_pair, worst_scale = 0.0, None, 1.0
    for (l, m), r in zip(pairs(slds.n_params), residuals):
        scale = float(s[l] * s[m])
        if scale and r / scale > worst:
            worst, worst_pair, worst_scale = r / scale, (l, m), scale
    return CommCheck(residual=worst, scale=worst_scale, tol=tol, passed=worst <= tol,
                     worst_pair=worst_pair, values=values)


def _imbalance(products) -> list:
    """``||products[l, m] - products[m, l]||`` for every pair l < m."""
    return [nk.fro(products[l, m] - products[m, l]) for l, m in pairs(len(products))]


def check_full_commutativity(slds: SLDSet, tol: float = 1e-8) -> CommCheck:
    """Pairwise commutators of the full-space SLDs (00 blocks set to zero)."""
    return _pair_check(slds, [nk.fro(c) for c in slds.commutators], tol)


def check_average_commutativity(rho: np.ndarray, slds: SLDSet, tol: float = 1e-8) -> CommCheck:
    """|tr(rho [L_l, L_m])| for every pair."""
    p = slds.n_params
    traces = [abs(complex(np.trace(rho @ c))) for c in slds.commutators]
    vals = np.zeros((p, p))
    for (l, m), v in zip(pairs(p), traces):
        vals[l, m] = vals[m, l] = v
    return _pair_check(slds, traces, tol, vals)


def check_condition1(slds: SLDSet, tol: float = 1e-8) -> CommCheck:
    """Commutators of the ++ blocks, ``A_lm - A_ml`` of the pair products."""
    return _pair_check(slds, _imbalance(slds.pair_products[0]), tol)


def check_condition3(slds: SLDSet, tol: float = 1e-8) -> CommCheck:
    """Anti-Hermitian part of the +0 cross products, ``B_lm - B_ml``."""
    return _pair_check(slds, _imbalance(slds.pair_products[1]), tol)


def check_partial_commutativity(
    dec: SupportDecomposition, slds: SLDSet, tol: float = 1e-8
) -> CommCheck:
    """Support-projected commutators P+ [L_l, L_m] P+, as ``A_lm - A_ml + B_lm - B_ml``.

    The identity holds by construction, since ``full`` is assembled from
    the same blocks. ``dec`` is not read.
    """
    a, b = slds.pair_products
    residuals = [nk.fro(a[l, m] - a[m, l] + b[l, m] - b[m, l]) for l, m in pairs(slds.n_params)]
    return _pair_check(slds, residuals, tol)


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

    Returns ``(ok, lambdas, column_status, worst_residual)``. Per column the
    rotated blocks must either vanish simultaneously (below ``tol`` times
    the overall scale) or be real scalar multiples of one another; a column
    that vanishes for some parameters but not others fails. ``scale_floor``
    lets callers anchor the scale to the full SLD norms so that +0 blocks
    consisting of pure roundoff count as vanished.
    """
    p = len(lpz)
    r0 = lpz[0].shape[1]
    w = np.asarray(w, dtype=complex)
    if w.shape != (r0, r0):
        raise nk.ShapeError(f"W has shape {w.shape}, expected ({r0}, {r0})")
    rotated = [np.asarray(L, dtype=complex) @ w for L in lpz]

    norms = np.array([[np.linalg.norm(rotated[l][:, s]) for s in range(r0)] for l in range(p)])
    scale = max(float(norms.max(initial=0.0)), float(scale_floor))
    if scale == 0.0 or float(norms.max(initial=0.0)) <= tol * scale:
        lam = np.full((p, p, r0), np.nan)
        return True, lam, ["vacuous"] * r0, 0.0

    zero_cut = tol * scale
    lam = np.full((p, p, r0), np.nan)
    column_status = []
    worst = 0.0
    ok = True
    for s in range(r0):
        live = [l for l in range(p) if norms[l, s] > zero_cut]
        if not live:
            column_status.append("vacuous")
            continue
        if len(live) < p:
            # mixed zero / nonzero column: no real constant can relate them
            column_status.append("mixed")
            worst = max(worst, float(norms[:, s].max()) / scale)
            ok = False
            continue
        ref = int(np.argmax(norms[:, s]))
        ref_col = rotated[ref][:, s]
        ratios = np.zeros(p)
        for l in range(p):
            col = rotated[l][:, s]
            ratios[l] = float(np.vdot(ref_col, col).real) / float(np.vdot(ref_col, ref_col).real)
            res = float(np.linalg.norm(col - ratios[l] * ref_col)) / scale
            worst = max(worst, res)
            if res > tol:
                ok = False
        for l in range(p):
            for m in range(p):
                lam[l, m, s] = ratios[l] / ratios[m] if ratios[m] != 0 else np.nan
        column_status.append("proportional")
    return ok, lam, column_status, worst


def _joint_kernel(lpz: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """Orthonormal basis of the common kernel of the +0 blocks."""
    stacked = np.concatenate([np.asarray(L, dtype=complex) for L in lpz], axis=0)
    if stacked.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    u, s, vh = np.linalg.svd(stacked)
    cut = tol * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s > cut))
    return vh[rank:].conj().T  # (r0, r0 - rank)


def _candidate_w_pinv(lpz, tol, rng) -> Optional[np.ndarray]:
    """Search a W via joint diagonalization of pinv(Lpz_ref) Lpz_l.

    When the condition holds these matrices form a commuting Hermitian
    family whose common eigenbasis (padded with the joint kernel) is a valid
    W; when it does not, the joint diagonalization refuses and the search
    reports no candidate.
    """
    r0 = lpz[0].shape[1]
    norms = [nk.fro(L) for L in lpz]
    ref = int(np.argmax(norms))
    if norms[ref] == 0:
        return np.eye(r0, dtype=complex)

    kernel = _joint_kernel(lpz, tol=1e-10)
    k0 = kernel.shape[1]
    if k0 == r0:
        return np.eye(r0, dtype=complex)
    if k0:
        comp = np.linalg.svd(np.eye(r0) - kernel @ kernel.conj().T)[0][:, : r0 - k0]
    else:
        comp = np.eye(r0, dtype=complex)
    reduced = [np.asarray(L, dtype=complex) @ comp for L in lpz]

    pinv_ref = np.linalg.pinv(reduced[ref], rcond=1e-12)
    herm_family = []
    for L in reduced:
        m = pinv_ref @ L
        herm_family.append(nk.hermitize(m))
        herm_family.append((m - m.conj().T) / 2j)
    try:
        spectrum = nk.joint_eigenprojectors(herm_family, tol=max(tol, 1e-10), rng=rng)
    except (nk.NotCommutingError, nk.JointDiagonalizationError):
        return None
    w_comp = comp @ spectrum.basis
    if k0:
        return np.concatenate([w_comp, kernel], axis=1)
    return w_comp


def _candidate_w_totally_real(lpz, tol, rng) -> Optional[np.ndarray]:
    """For a one-dimensional support the rows can be rotated entrywise real.

    Works whenever the rows have pairwise real inner products (exactly
    condition 3 for r+ = 1): real-orthonormalizing their real span yields a
    complex-orthonormal set, and the conjugate of any unitary completion
    maps every row to a real vector. A generic real rotation afterwards
    avoids accidental zero entries, which the verifier treats as mixed
    columns.
    """
    r0 = lpz[0].shape[1]
    vecs = [np.asarray(L, dtype=complex).ravel() for L in lpz]
    basis: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for e in basis:
            w = w - np.vdot(e, w).real * e
        nrm = np.linalg.norm(w)
        if nrm > tol * np.linalg.norm(v):
            basis.append(w / nrm)
    k = len(basis)
    if k == 0:
        return np.eye(r0, dtype=complex)
    e_mat = np.stack(basis, axis=1)  # (r0, k)
    gram = e_mat.conj().T @ e_mat
    if nk.fro(gram - np.eye(k)) > 1e-8:
        return None  # real span is not totally real: condition 3 fails here
    full, _ = np.linalg.qr(
        np.concatenate([e_mat, rng.standard_normal((r0, r0)) + 1j * rng.standard_normal((r0, r0))], axis=1)
    )
    q = full[:, :r0]
    # Align the leading columns with e_mat (qr may re-phase them).
    for j in range(k):
        z = np.vdot(q[:, j], e_mat[:, j])
        if abs(z) > 0:
            q[:, j] = q[:, j] * (z / abs(z))
    rot = np.eye(r0)
    if k > 1:
        sub, _ = np.linalg.qr(rng.standard_normal((k, k)))
        rot[:k, :k] = sub
    return q.conj() @ rot


def find_w_condition4(
    lpz: Sequence[np.ndarray],
    tol: float = 1e-8,
    *,
    rng: np.random.Generator | None = None,
    scale_floor: float = 0.0,
) -> Cond4Result:
    """Decide the column-alignment condition on the +0 blocks.

    CERTIFIED_YES comes with a unitary ``W`` and the fitted real ratios,
    verified directly; everything else is UNKNOWN. The refutation
    (CERTIFIED_NO) is condition 3's: :class:`ConditionReport` reads it off
    a failed condition 3.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    lpz = [np.asarray(L, dtype=complex) for L in lpz]
    p = len(lpz)
    r0 = lpz[0].shape[1]
    notes = []

    if r0 == 0:
        lam = np.full((p, p, 0), np.nan)
        return Cond4Result(
            status=COND4_YES,
            W=np.zeros((0, 0), dtype=complex),
            lambdas=lam,
            column_status=[],
            residual=0.0,
            tol=tol,
            notes=["no null directions"],
        )

    candidates = []
    if max(nk.fro(L) for L in lpz) <= tol * scale_floor:
        candidates.append(np.eye(r0, dtype=complex))
    else:
        c = _candidate_w_pinv(lpz, tol, rng)
        if c is not None:
            candidates.append(c)
        if lpz[0].shape[0] == 1:
            c = _candidate_w_totally_real(lpz, tol, rng)
            if c is not None:
                candidates.append(c)
        candidates.append(np.eye(r0, dtype=complex))

    best_res = np.inf
    for w in candidates:
        if nk.fro(w.conj().T @ w - np.eye(r0)) > 1e-8:
            continue
        ok, lam, column_status, res = verify_condition4_with_w(lpz, w, tol, scale_floor)
        best_res = min(best_res, res)
        if ok:
            return Cond4Result(
                status=COND4_YES,
                W=w,
                lambdas=lam,
                column_status=column_status,
                residual=res,
                tol=tol,
                notes=notes,
            )

    notes.append("search exhausted without a verified W; existence undecided")
    return Cond4Result(
        status=COND4_UNKNOWN,
        W=None,
        lambdas=None,
        column_status=None,
        residual=float(best_res if np.isfinite(best_res) else 0.0),
        tol=tol,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Condition 2': PDE witness verification on a smooth support-basis map.
# ---------------------------------------------------------------------------


@dataclass
class Cond2PrimeWitness:
    """A candidate solution of the support-basis PDE system.

    ``unitary_fn(theta)`` is the unitary path U(theta); ``generators`` gives
    the real diagonal matrices D_l (one per parameter), either as a static
    sequence or as a function of theta. ``None`` means all zero.
    """

    unitary_fn: Callable[[np.ndarray], np.ndarray]
    generators: object = None
    label: str = "user_supplied_U"

    def d_matrices(self, theta: np.ndarray, p: int, r_plus: int) -> list:
        if self.generators is None:
            return [np.zeros((r_plus, r_plus)) for _ in range(p)]
        gens = self.generators(theta) if callable(self.generators) else self.generators
        out = []
        for l, d in enumerate(gens):
            d = np.asarray(d, dtype=float)
            if d.ndim == 1:
                d = np.diag(d)
            if d.shape != (r_plus, r_plus) or nk.fro(d - np.diag(np.diag(d))) > 1e-12:
                raise InvalidWitnessError(f"generator {l} is not a real diagonal matrix")
            out.append(d)
        return out


@dataclass
class Cond2PrimeResult:
    status: str  # PASSED | FAILED | NOT_CHECKED
    path: str  # diagonal_VdV | user_supplied_U | zero_generators | not_checked
    pde_residual: Optional[float]
    stationarity_residual: Optional[float]
    null_compat_residual: Optional[float]
    cross_identity_residual: Optional[float]
    tol: float
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "path": self.path,
            "pde_residual": self.pde_residual,
            "stationarity_residual": self.stationarity_residual,
            "null_compat_residual": self.null_compat_residual,
            "cross_identity_residual": self.cross_identity_residual,
            "tol": self.tol,
            "notes": list(self.notes),
        }


def _stencil(fn, theta: np.ndarray, h: float) -> list:
    """``fn`` at ``theta ± h e_l``, one ``(plus, minus)`` pair of complex arrays per parameter."""
    out = []
    for l in range(len(theta)):
        e = np.zeros_like(theta)
        e[l] = h
        out.append((np.asarray(fn(theta + e), dtype=complex), np.asarray(fn(theta - e), dtype=complex)))
    return out


def verify_condition2prime(
    model: StateModel,
    sp: StateAtPoint,
    witness: Optional[Cond2PrimeWitness] = None,
    *,
    null_povm: Optional[Sequence[np.ndarray]] = None,
    tol: float = 1e-8,
) -> Cond2PrimeResult:
    """Verify a witness for the support-basis PDE condition at one point.

    Checks, each reported as a normalized residual: (a) the PDE
    ``dU_l = U (V^dag dV_l + i D_l)``; (b) when every D_l vanishes, the
    consequence ``P+ d(V U^dag)_l = 0``; (c) when no witness is supplied but
    every ``V^dag dV_l`` is diagonal, the canonical witness ``U = I``,
    ``D_l = i V^dag dV_l`` is generated and checked; (d) compatibility of a
    supplied null measurement with the rotated basis derivatives; (e) the
    cross identity between the +0 SLD blocks and ``2 dV_l^dag Y``.

    All map derivatives are central differences with step 1e-5 on the smooth
    maps, from one evaluation of each map per stencil point.
    """
    if model.support_basis_fn is None:
        return Cond2PrimeResult(
            status="NOT_CHECKED",
            path="not_checked",
            pde_residual=None,
            stationarity_residual=None,
            null_compat_residual=None,
            cross_identity_residual=None,
            tol=tol,
            notes=["model exposes no smooth support-basis map"],
        )

    theta = np.asarray(sp.theta, dtype=float)
    p = sp.n_params
    v_fn = model.support_basis_fn
    v = np.asarray(v_fn(theta), dtype=complex)
    dec = decomposition_from_basis(sp, v)
    r_plus = dec.r_plus
    h = 1e-5
    v_st = _stencil(v_fn, theta, h)
    dv = [(vp - vm) / (2.0 * h) for vp, vm in v_st]
    a = [v.conj().T @ dv[l] for l in range(p)]  # V^dag dV_l, skew-Hermitian

    notes = []
    path = "not_checked"
    if witness is None:
        diag_res = max(nk.fro(x - np.diag(np.diag(x))) / max(1.0, nk.fro(x)) for x in a) if p else 0.0
        if diag_res <= max(tol, 1e-6):
            d_canon = [np.diag((1j * np.diag(x)).real) for x in a]
            witness = Cond2PrimeWitness(
                unitary_fn=lambda _theta: np.eye(r_plus, dtype=complex),
                generators=d_canon,
                label="diagonal_VdV",
            )
            notes.append("canonical witness generated from diagonal V^dag dV")
        else:
            return Cond2PrimeResult(
                status="NOT_CHECKED",
                path="not_checked",
                pde_residual=None,
                stationarity_residual=None,
                null_compat_residual=None,
                cross_identity_residual=None,
                tol=tol,
                notes=[
                    "no witness supplied and V^dag dV is not diagonal "
                    f"(residual {diag_res:.3e}); existence undecided"
                ],
            )

    u = np.asarray(witness.unitary_fn(theta), dtype=complex)
    if u.shape != (r_plus, r_plus) or nk.fro(u.conj().T @ u - np.eye(r_plus)) > 1e-10 * max(
        1.0, r_plus
    ):
        raise InvalidWitnessError(
            "witness map is not unitary at this point",
            defect=nk.fro(u.conj().T @ u - np.eye(r_plus)),
        )
    d_mats = witness.d_matrices(theta, p, r_plus)
    u_st = _stencil(witness.unitary_fn, theta, h)
    du = [(up - um) / (2.0 * h) for up, um in u_st]

    pde_res = 0.0
    for l in range(p):
        rhs = u @ (a[l] + 1j * d_mats[l])
        scale = max(1.0, nk.fro(du[l]) + nk.fro(a[l]) + nk.fro(d_mats[l]))
        pde_res = max(pde_res, nk.fro(du[l] - rhs) / scale)

    d_all_zero = all(nk.fro(d) <= 1e-12 for d in d_mats)
    path = witness.label
    if witness.label == "user_supplied_U" and d_all_zero:
        path = "zero_generators"

    stationarity_res = None
    dvt = [
        (vp @ up.conj().T - vm @ um.conj().T) / (2.0 * h)
        for (vp, vm), (up, um) in zip(v_st, u_st)
    ]
    if d_all_zero:
        stationarity_res = 0.0
        for l in range(p):
            scale = max(1.0, nk.fro(dvt[l]))
            stationarity_res = max(stationarity_res, nk.fro(dec.P_plus @ dvt[l]) / scale)

    null_compat_res = None
    if null_povm is not None and len(null_povm) and dec.r_zero > 0:
        null_compat_res = 0.0
        y = dec.Y
        blocks = [y.conj().T @ dvt[l] for l in range(p)]
        for e in null_povm:
            e00 = y.conj().T @ np.asarray(e, dtype=complex) @ y
            for l in range(p):
                for m in range(p):
                    if l == m:
                        continue
                    lhs = e00 @ blocks[l]
                    rhs = e00 @ blocks[m]
                    scale = max(1.0, nk.fro(e00) * max(nk.fro(blocks[l]), nk.fro(blocks[m])))
                    if nk.fro(rhs) <= tol * scale:
                        res = 0.0 if nk.fro(lhs) <= tol * scale else nk.fro(lhs) / scale
                    else:
                        c = float(np.vdot(rhs.ravel(), lhs.ravel()).real) / float(
                            np.vdot(rhs.ravel(), rhs.ravel()).real
                        )
                        res = nk.fro(lhs - c * rhs) / scale
                    null_compat_res = max(null_compat_res, res)

    lpz = plus_null_blocks(dec, sp.drho)
    cross_res = 0.0
    for l in range(p):
        ident = 2.0 * dv[l].conj().T @ dec.Y
        scale = max(1.0, nk.fro(lpz[l]) + nk.fro(ident))
        cross_res = max(cross_res, nk.fro(lpz[l] - ident) / scale)

    checked = [pde_res, cross_res]
    if stationarity_res is not None:
        checked.append(stationarity_res)
    if null_compat_res is not None:
        checked.append(null_compat_res)
    status = "PASSED" if all(r <= tol for r in checked) else "FAILED"
    return Cond2PrimeResult(
        status=status,
        path=path,
        pde_residual=pde_res,
        stationarity_residual=stationarity_res,
        null_compat_residual=null_compat_res,
        cross_identity_residual=cross_res,
        tol=tol,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Report assembly and verdict.
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    regime: str  # pure | full_rank | rank_deficient
    full_comm: CommCheck
    avg_comm: CommCheck
    partial_comm: CommCheck
    cond1: CommCheck
    cond3: CommCheck
    cond4: Cond4Result
    cond2prime: Optional[Cond2PrimeResult]
    verdict: str = ""
    reasoning: list = field(default_factory=list)
    tol: float = 1e-8

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
        return {
            "regime": self.regime,
            "full_commutativity": self.full_comm.to_dict(),
            "average_commutativity": self.avg_comm.to_dict(),
            "partial_commutativity": self.partial_comm.to_dict(),
            "condition1": self.cond1.to_dict(),
            "condition3": self.cond3.to_dict(),
            "condition4": self.cond4.to_dict(),
            "condition2prime": self.cond2prime.to_dict() if self.cond2prime else None,
            "verdict": self.verdict,
            "reasoning": list(self.reasoning),
            "tol": self.tol,
        }


def verdict(report: ConditionReport, r_plus: int, r_zero: int):
    """Fold conditions 1, 3 and 4 into a certified verdict.

    One-dimensional support: conditions 1 and 3 decide saturability both
    ways. Otherwise conditions 1 + 4 certify it, a failed condition 1 or 3
    refutes it, and anything else is inconclusive (the PDE condition stays
    undecided). At full rank condition 4 holds vacuously and condition 1 is
    full commutativity. The commutativity diagnostics are not read:
    conditions 1 and 3 imply partial commutativity.
    """
    c1, c3 = report.cond1.passed, report.cond3.passed
    line1 = f"condition 1 {'pass' if c1 else 'fail'} (residual {report.cond1.residual:.3e})"
    line3 = f"condition 3 {'pass' if c3 else 'fail'} (residual {report.cond3.residual:.3e})"
    if r_plus == 1:
        trace = ["support is one-dimensional: conditions 1 and 3 are decisive", line1, line3]
        return (VERDICT_SATURABLE if (c1 and c3) else VERDICT_NOT), trace

    state = "rank-deficient" if r_zero else "full-rank"
    trace = [f"{state} state: certifying through conditions 1 and 4", line1,
             f"condition 4 status {report.cond4.status}"]
    if c1 and report.cond4.status == COND4_YES:
        return VERDICT_SATURABLE, trace
    trace.append(line3)
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
    witness: Optional[Cond2PrimeWitness] = None,
    tol: Optional[float] = None,
    rng: np.random.Generator | None = None,
) -> ConditionReport:
    """Run every saturability check and assemble the verdict (``tol`` must be finite and >= 0)."""
    tol = tol if tol is not None else sp.deriv_tol
    require_tolerance("cond_tol", tol)
    sld_scale = max(nk.fro(full) for full in slds.full) if slds.n_params else 1.0
    report = ConditionReport(
        regime="pure" if dec.r_plus == 1 else ("full_rank" if dec.r_zero == 0 else "rank_deficient"),
        full_comm=check_full_commutativity(slds, tol),
        avg_comm=check_average_commutativity(sp.rho, slds, tol),
        partial_comm=check_partial_commutativity(dec, slds, tol),
        cond1=check_condition1(slds, tol),
        cond3=check_condition3(slds, tol),
        cond4=find_w_condition4(slds.Lpz, tol, rng=rng, scale_floor=sld_scale),
        cond2prime=None,
        tol=tol,
    )
    if model is not None and sp.theta is not None:
        report.cond2prime = verify_condition2prime(model, sp, witness, tol=max(tol, 1e-8))
    report.verdict, report.reasoning = verdict(report, dec.r_plus, dec.r_zero)
    return report
