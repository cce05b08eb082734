"""Independent oracles used by the tests.

Everything here is deliberately written from first principles (closed
forms, brute-force grids) or kept as the plain code a faster library path
replaced, so that expected values stay independent of the code paths they
check.
"""

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from qcrbsat import conditions as cond
from qcrbsat import numkernel as nk
from qcrbsat import povm as pv
from qcrbsat.jsonio import SchemaError
from qcrbsat.model import decomposition_from_basis, evaluate
from qcrbsat.sld import plus_null_blocks


def multinomial_fisher(theta):
    """Fisher information of (theta_1, ..., theta_p, 1 - sum theta)."""
    theta = np.asarray(theta, dtype=float)
    p = len(theta)
    last = 1.0 - theta.sum()
    f = np.full((p, p), 1.0 / last)
    f[np.diag_indices(p)] += 1.0 / theta
    return f


def pure_state_qfim(psi, dpsi_list):
    """4 Re(<dpsi_l|dpsi_m> - <dpsi_l|psi><psi|dpsi_m>)."""
    p = len(dpsi_list)
    f = np.zeros((p, p))
    for l in range(p):
        for m in range(p):
            term = np.vdot(dpsi_list[l], dpsi_list[m]) - np.vdot(dpsi_list[l], psi) * np.vdot(
                psi, dpsi_list[m]
            )
            f[l, m] = 4.0 * term.real
    return f


def pure_state_avg_comm(psi, dpsi_l, dpsi_m):
    """|tr(rho [L_l, L_m])| = 8 |Im(<dpsi_l|dpsi_m> - <dpsi_l|psi><psi|dpsi_m>)|."""
    term = np.vdot(dpsi_l, dpsi_m) - np.vdot(dpsi_l, psi) * np.vdot(psi, dpsi_m)
    return 8.0 * abs(term.imag)


def qutrit_qfim(theta, d=0.6, c1=1.0, c2=0.7):
    """Closed-form quantum Fisher information of the qutrit fixture."""
    t1 = theta[0]
    kappa = 4.0 * abs(d) ** 2 * (1.0 - abs(d) ** 2) * (1.0 - t1)
    return np.array(
        [
            [1.0 / (t1 * (1.0 - t1)) + kappa * c1**2, kappa * c1 * c2],
            [kappa * c1 * c2, kappa * c2**2],
        ]
    )


def classical_fim_bruteforce(probs, dprobs, prob_tol=1e-12):
    """Score-only classical Fisher information, zero-probability outcomes dropped."""
    p = dprobs.shape[0]
    f = np.zeros((p, p))
    for k in range(len(probs)):
        if probs[k] > prob_tol:
            s = dprobs[:, k]
            f += np.outer(s, s) / probs[k]
    return f


def sld_kron_oracle(rho, drho_l):
    """Minimum-norm solution of (L rho + rho L)/2 = drho via a linear solve.

    Uses column-major vectorization: vec(L rho) = (rho^T kron I) vec(L).
    The minimum-norm solution has a vanishing block on the kernel of rho,
    matching the zero-00-block convention.
    """
    n = rho.shape[0]
    ident = np.eye(n)
    a = 0.5 * (np.kron(rho.T, ident) + np.kron(ident, rho))
    vec_l, *_ = np.linalg.lstsq(a, drho_l.reshape(-1, order="F"), rcond=1e-12)
    return vec_l.reshape(n, n, order="F")


def cond4_grid_oracle(lpz, step=0.01, zero_frac=1e-6):
    """Exhaustive search over 2x2 unitaries (mod column phases).

    Parameterizes W = [[cos t, -sin t e^{-ig}], [sin t e^{ig}, cos t]] on a
    (t, g) grid and reports the smallest worst-case column-proportionality
    residual (normalized by the largest block norm) together with the
    minimizing W. Column phases drop out of the condition, so this covers
    all of U(2) at the grid resolution.
    """
    lpz = [np.asarray(L, dtype=complex) for L in lpz]
    p = len(lpz)
    scale = max(np.linalg.norm(L) for L in lpz)
    taus = np.arange(0.0, np.pi / 2 + step, step)
    gammas = np.arange(0.0, 2 * np.pi, step)
    tt, gg = np.meshgrid(taus, gammas, indexing="ij")
    c = np.cos(tt).ravel()
    s = np.sin(tt).ravel()
    e = np.exp(1j * gg.ravel())
    n_grid = len(c)

    stack = np.stack(lpz)  # (p, r, 2)
    # columns of L W over the whole grid: (grid, p, r)
    col1 = c[:, None, None] * stack[None, :, :, 0] + (s * e)[:, None, None] * stack[None, :, :, 1]
    col2 = (-s * np.conj(e))[:, None, None] * stack[None, :, :, 0] + c[:, None, None] * stack[
        None, :, :, 1
    ]

    worst = np.zeros(n_grid)
    zcut = max(zero_frac, 1e-12) * scale
    for cols in (col1, col2):
        n2 = np.einsum("gpr,gpr->gp", cols.conj(), cols).real  # squared norms
        inner = np.einsum("gmr,glr->gml", cols.conj(), cols).real
        for l in range(p):
            for m in range(p):
                if l == m:
                    continue
                cfit = inner[:, m, l] / np.maximum(n2[:, m], 1e-300)
                res2 = n2[:, l] - 2 * cfit * inner[:, m, l] + cfit**2 * n2[:, m]
                res = np.sqrt(np.maximum(res2, 0.0))
                dead = n2[:, m] <= zcut**2
                res = np.where(dead, np.where(n2[:, l] <= zcut**2, 0.0, np.sqrt(n2[:, l])), res)
                worst = np.maximum(worst, res)
    worst /= scale
    best = int(np.argmin(worst))
    w_best = np.array(
        [[c[best], -s[best] * np.conj(e[best])], [s[best] * e[best], c[best]]], dtype=complex
    )
    return float(worst[best]), w_best


# ---------------------------------------------------------------------------
# The condition-4 verifier as it was before it checked every column at once:
# one Python pass per column and parameter.
# ---------------------------------------------------------------------------


def verify_condition4_with_w_loop(
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


# ---------------------------------------------------------------------------
# Per-pair loop versions of the commutativity-type checks and of the QFIM,
# each computing its own products from the SLD matrices. The checks divide
# pair (l, m) by scales[l] * scales[m] and return (residual, worst_pair,
# scale) as the library's CommCheck reports them: with no positive ratio, the
# worst pair and the scale are None.
# ---------------------------------------------------------------------------


def _fro(a):
    return float(np.linalg.norm(a))


def _loop_pairs(p):
    return [(l, m) for l in range(p) for m in range(l + 1, p)]


def support_norms_loop(lpp, lpz):
    """(||Lpp_l||^2 + ||Lpz_l||^2)^(1/2) per parameter."""
    return np.array([np.sqrt(_fro(a) ** 2 + _fro(b) ** 2) for a, b in zip(lpp, lpz)])


def full_commutativity_loop(full, scales):
    worst, worst_pair, scale = 0.0, None, None
    for l, m in _loop_pairs(len(full)):
        s = scales[l] * scales[m]
        r = _fro(full[l] @ full[m] - full[m] @ full[l]) / s
        if r > worst:
            worst, worst_pair, scale = r, (l, m), s
    return worst, worst_pair, scale


def average_commutativity_loop(rho, q, lpp, lpz, full, scales):
    """|tr(rho [L_l, L_m])| as 2 |Im sum_i q_i (Lpp_l Lpp_m + Lpz_l Lpz_m^dag)_ii|.

    Each value is asserted to equal the commutator form |tr(rho [L_l, L_m])|
    of the full-space observables to 1e-12 s_l s_m. Also returns the (p, p)
    matrix of the values.
    """
    p = len(full)
    vals = np.zeros((p, p))
    worst, worst_pair, scale = 0.0, None, None
    for l, m in _loop_pairs(p):
        product = lpp[l] @ lpp[m] + lpz[l] @ lpz[m].conj().T
        v = 2.0 * abs(float(np.sum(q * np.diag(product).imag)))
        s = scales[l] * scales[m]
        comm = full[l] @ full[m] - full[m] @ full[l]
        assert abs(v - abs(complex(np.trace(rho @ comm)))) <= 1e-12 * s
        vals[l, m] = vals[m, l] = v
        if v / s > worst:
            worst, worst_pair, scale = v / s, (l, m), s
    return worst, worst_pair, scale, vals


def partial_commutativity_loop(p_plus, lpp, lpz, full, scales):
    """Block form, with the largest gap to the direct projection P+ [L_l, L_m] P+."""
    worst, worst_pair, scale, crosscheck = 0.0, None, None, 0.0
    for l, m in _loop_pairs(len(full)):
        block = (
            lpp[l] @ lpp[m]
            - lpp[m] @ lpp[l]
            + lpz[l] @ lpz[m].conj().T
            - lpz[m] @ lpz[l].conj().T
        )
        s = scales[l] * scales[m]
        r = _fro(block) / s
        comm = full[l] @ full[m] - full[m] @ full[l]
        crosscheck = max(crosscheck, abs(_fro(p_plus @ comm @ p_plus) / s - r))
        if r > worst:
            worst, worst_pair, scale = r, (l, m), s
    return worst, worst_pair, scale, crosscheck


def condition1_loop(lpp, scales):
    worst, worst_pair, scale = 0.0, None, None
    for l, m in _loop_pairs(len(lpp)):
        s = scales[l] * scales[m]
        r = _fro(lpp[l] @ lpp[m] - lpp[m] @ lpp[l]) / s
        if r > worst:
            worst, worst_pair, scale = r, (l, m), s
    return worst, worst_pair, scale


def condition3_loop(lpz, scales):
    worst, worst_pair, scale = 0.0, None, None
    for l, m in _loop_pairs(len(lpz)):
        a = lpz[l] @ lpz[m].conj().T
        b = lpz[m] @ lpz[l].conj().T
        s = scales[l] * scales[m]
        r = _fro(a - b) / s
        if r > worst:
            worst, worst_pair, scale = r, (l, m), s
    return worst, worst_pair, scale


def qfim_loop(q, lpp, lpz):
    """F_jk = Re sum_i q_i (Lpp_j Lpp_k + Lpz_j Lpz_k^dag)_ii for j <= k, mirrored."""
    p = len(lpp)
    f = np.zeros((p, p))
    for j in range(p):
        for k in range(j, p):
            m = lpp[j] @ lpp[k] + lpz[j] @ lpz[k].conj().T
            val = float(np.sum(q * np.diag(m).real))
            f[j, k] = f[k, j] = val
    return (f + f.T) / 2.0


# ---------------------------------------------------------------------------
# The MLE study's likelihood callback as it was before the lean path: a full
# `evaluate` (state and derivatives, all validated) per call, then one trace
# per measurement element.
# ---------------------------------------------------------------------------


def evaluate_prob_fn(model, povm, scheme, h):
    def prob_fn(theta):
        s = evaluate(model, theta, scheme=scheme if scheme != "richardson" else "central_fd", h=h)
        return np.array([float(np.trace(s.rho @ e).real) for e in povm.elements])

    return prob_fn


# ---------------------------------------------------------------------------
# Finite-difference derivatives as `evaluate` took them before the shared
# stencil: one central difference per parameter, each hermitized, and
# Richardson's (4 D(h/2) - D(h)) / 3 built from two of them; the stack is
# hermitized once more, as the state point's validation stores it.
# ---------------------------------------------------------------------------


def central_difference_loop(model, theta, h, richardson=False):
    theta = np.asarray(theta, dtype=float)

    def one(l, step):
        e = np.zeros_like(theta)
        e[l] = step
        d = (model.state_fn(theta + e) - model.state_fn(theta - e)) / (2.0 * step)
        return nk.hermitize(np.asarray(d, dtype=complex))

    out = []
    for l in range(len(theta)):
        d = one(l, h)
        out.append((4.0 * one(l, h / 2.0) - d) / 3.0 if richardson else d)
    return nk.hermitize(np.array(out, dtype=complex))


# ---------------------------------------------------------------------------
# The maximum-likelihood fit one batch at a time: one scalar line search per
# coordinate and sweep, the likelihood called point by point. `brent_loop` is
# the lock-step search's scalar form; `golden_section_loop` is the 40-step
# golden-section search it replaced, kept as the accuracy reference.
# ---------------------------------------------------------------------------


def golden_section_loop(f, lo, hi):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def brent_loop(f, x, lo, hi):
    """Brent's minimization of f over (lo, hi) from x, written with scalars
    (Brent 1973, ch. 5, procedure localmin), with the tolerance
    t = sqrt(eps) (|x| + hi - lo) and at most 100 steps."""
    gold = (3.0 - np.sqrt(5.0)) / 2.0
    sqrt_eps = float(np.sqrt(np.finfo(float).eps))
    a, b = lo, hi
    fx = f(x)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    for _ in range(100):
        m = 0.5 * (a + b)
        tol = sqrt_eps * (abs(x) + (hi - lo))
        tol2 = 2.0 * tol
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and p > q * (a - x) and p < q * (b - x):
                parabolic = True
                e, d = d, p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol if x < m else -tol
        if not parabolic:
            e = a - x if x >= m else b - x
            d = gold * e
        if abs(d) >= tol:
            u = x + d
        else:
            u = x + tol if d > 0.0 else x - tol
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def negative_log_likelihood_loop(counts, probs):
    """The lock-step fit's negative log-likelihood as it was taken: one ``np.dot`` per row."""
    logp = np.log(np.clip(np.asarray(probs, dtype=float), 1e-300, None))
    return -np.array([np.dot(c, lp) for c, lp in zip(counts, logp)])


def max_likelihood_estimate_loop(prob_fn, counts, theta0, radius=0.05, golden=False):
    """One batch's fit by Brent search, or by golden-section search when ``golden``."""
    counts = np.asarray(counts, dtype=float)

    def nll(theta):
        p = np.clip(np.asarray(prob_fn(theta), dtype=float), 1e-300, None)
        return -float(np.dot(counts, np.log(p)))

    theta = np.asarray(theta0, dtype=float).copy()
    for _ in range(4):
        for i in range(len(theta)):

            def f1(x, i=i):
                t = theta.copy()
                t[i] = x
                return nll(t)

            lo, hi = theta[i] - radius, theta[i] + radius
            theta[i] = golden_section_loop(f1, lo, hi) if golden else brent_loop(f1, theta[i], lo, hi)
    return theta


# ---------------------------------------------------------------------------
# Joint diagonalization as it was before the small-family shortcuts and the
# stacked passes: every cluster, one column or more, is refined with its own
# `eigh`, 1x1 families go through the mixture like any other, each member is
# checked and labelled on its own, and the projectors are made eagerly and
# rebuild each member.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopSpectrum:
    """What the loop returns: its projectors are made eagerly, here."""

    projectors: tuple
    labels: np.ndarray
    basis: np.ndarray
    block_dims: tuple


def joint_eigenprojectors_loop(family, tol=1e-8):
    if len(family) == 0:
        raise nk.ShapeError("empty family")
    mats = [nk.hermitize(nk._require_square(a, f"family[{i}]")) for i, a in enumerate(family)]
    n = mats[0].shape[0]
    for i, a in enumerate(mats):
        if a.shape[0] != n:
            raise nk.ShapeError(f"family[{i}] has shape {a.shape}, expected ({n}, {n})")

    residuals = np.zeros((len(mats), len(mats)))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            r = _fro(mats[i] @ mats[j] - mats[j] @ mats[i])
            residuals[i, j] = residuals[j, i] = r
            scale = max(1.0, _fro(mats[i]) * _fro(mats[j]))
            if r > tol * scale:
                raise nk.NotCommutingError(
                    f"family members {i} and {j} do not commute: "
                    f"residual {r:.3e} > {tol:.1e} * {scale:.3e}",
                    pair=[i, j],
                    residual=r,
                    residuals=residuals,
                )

    scales = np.array([max(1.0, float(np.linalg.norm(a, 2))) for a in mats])

    # the fixed mixing weights: the first draws of a generator seeded with 0
    coeffs = np.random.default_rng(0).standard_normal(len(mats))
    mixture = sum(c * a for c, a in zip(coeffs, mats))

    w, basis = np.linalg.eigh(nk.hermitize(mixture))
    mix_scale = max(1.0, float(np.max(np.abs(w))))
    clusters = nk._split_by_gaps(w, tol * mix_scale)

    basis = np.array(basis)
    for a, scale_a in zip(mats, scales):
        refined = []
        for sl in clusters:
            qk = basis[:, sl]
            s = nk.hermitize(qk.conj().T @ a @ qk)
            w2, r = np.linalg.eigh(s)
            basis[:, sl] = qk @ r
            offset = sl.start
            for sub in nk._split_by_gaps(w2, tol * scale_a):
                refined.append(slice(offset + sub.start, offset + sub.stop))
        clusters = refined

    labels = np.zeros((len(clusters), len(mats)))
    for k, sl in enumerate(clusters):
        qk = basis[:, sl]
        for l, a in enumerate(mats):
            s = qk.conj().T @ a @ qk
            lam = float(np.mean(np.diag(s).real))
            off = _fro(s - lam * np.eye(sl.stop - sl.start))
            if off > 10 * tol * scales[l]:
                raise nk.JointDiagonalizationError(
                    f"family member {l} is not scalar on cluster {k}: residual {off:.3e}",
                    member=l,
                    cluster=k,
                    residual=off,
                )
            labels[k, l] = lam

    merged = []
    for k in range(len(clusters)):
        for group in merged:
            if np.all(np.abs(labels[group[0]] - labels[k]) <= tol * scales):
                group.append(k)
                break
        else:
            merged.append([k])

    projectors, out_labels, col_groups = [], [], []
    for group in merged:
        cols = np.concatenate([np.arange(clusters[k].start, clusters[k].stop) for k in group])
        qk = basis[:, cols]
        projectors.append(nk.hermitize(qk @ qk.conj().T))
        out_labels.append(np.mean(labels[group], axis=0))
        col_groups.append(cols)

    order = sorted(range(len(projectors)), key=lambda k: tuple(out_labels[k]))
    projectors = [projectors[k] for k in order]
    out_labels = np.array([out_labels[k] for k in order])
    basis = np.concatenate([basis[:, col_groups[k]] for k in order], axis=1)
    block_dims = tuple(len(col_groups[k]) for k in order)

    for l, a in enumerate(mats):
        rebuilt = sum(out_labels[k, l] * projectors[k] for k in range(len(projectors)))
        err = _fro(a - rebuilt)
        if err > 100 * tol * max(1.0, _fro(a)):
            raise nk.JointDiagonalizationError(
                f"reconstruction of member {l} failed: residual {err:.3e}",
                member=l,
                residual=err,
            )

    return LoopSpectrum(
        projectors=tuple(projectors), labels=out_labels, basis=basis, block_dims=block_dims
    )


# ---------------------------------------------------------------------------
# Condition 2' as it was before the shared stencil: every central difference
# evaluates its map again, and d(V U^dag) re-evaluates both maps.
# ---------------------------------------------------------------------------


def _map_derivative_loop(fn, theta: np.ndarray, l: int, h: float) -> np.ndarray:
    e = np.zeros_like(theta)
    e[l] = h
    return (np.asarray(fn(theta + e), dtype=complex) - np.asarray(fn(theta - e), dtype=complex)) / (
        2.0 * h
    )


def verify_condition2prime_loop(
    model,
    sp,
    witness=None,
    *,
    null_povm=None,
    h: float = 1e-5,
    tol: float = 1e-8,
    rank_tol: float = 1e-10,
):
    """The condition-2' verifier with one map evaluation per difference quotient."""
    if model.support_basis_fn is None or witness is None:
        note = ("model exposes no smooth support-basis map" if model.support_basis_fn is None
                else "no witness supplied; existence undecided")
        return cond.Cond2PrimeResult(
            status="NOT_CHECKED",
            path="not_checked",
            pde_residual=None,
            stationarity_residual=None,
            null_compat_residual=None,
            cross_identity_residual=None,
            tol=tol,
            notes=[note],
        )

    theta = np.asarray(sp.theta, dtype=float)
    p = sp.n_params
    v_fn = model.support_basis_fn
    v = np.asarray(v_fn(theta), dtype=complex)
    dec = decomposition_from_basis(sp, v, rank_tol=rank_tol)
    r_plus = dec.r_plus
    dv = [_map_derivative_loop(v_fn, theta, l, h) for l in range(p)]
    a = [v.conj().T @ dv[l] for l in range(p)]  # V^dag dV_l, skew-Hermitian

    u = np.asarray(witness.unitary_fn(theta), dtype=complex)
    if u.shape != (r_plus, r_plus) or _fro(u.conj().T @ u - np.eye(r_plus)) > 1e-10 * max(
        1.0, r_plus
    ):
        raise cond.InvalidWitnessError(
            "witness map is not unitary at this point",
            defect=_fro(u.conj().T @ u - np.eye(r_plus)),
        )
    gens = np.zeros((p, r_plus)) if witness.generators is None else witness.generators
    d_mats = [np.diag(np.asarray(g, dtype=float)) for g in gens]
    du = [_map_derivative_loop(witness.unitary_fn, theta, l, h) for l in range(p)]

    pde_res = 0.0
    for l in range(p):
        rhs = u @ (a[l] + 1j * d_mats[l])
        scale = max(1.0, _fro(du[l]) + _fro(a[l]) + _fro(d_mats[l]))
        pde_res = max(pde_res, _fro(du[l] - rhs) / scale)

    d_all_zero = all(_fro(d) <= 1e-12 for d in d_mats)
    path = "zero_generators" if d_all_zero else "user_supplied_U"

    stationarity_res = None
    vt_fn = lambda th: np.asarray(v_fn(th), dtype=complex) @ np.asarray(
        witness.unitary_fn(th), dtype=complex
    ).conj().T
    dvt = [_map_derivative_loop(vt_fn, theta, l, h) for l in range(p)]
    if d_all_zero:
        stationarity_res = 0.0
        for l in range(p):
            scale = max(1.0, _fro(dvt[l]))
            stationarity_res = max(stationarity_res, _fro(dec.P_plus @ dvt[l]) / scale)

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
                    scale = max(1.0, _fro(e00) * max(_fro(blocks[l]), _fro(blocks[m])))
                    if _fro(rhs) <= tol * scale:
                        res = 0.0 if _fro(lhs) <= tol * scale else _fro(lhs) / scale
                    else:
                        c = float(np.vdot(rhs.ravel(), lhs.ravel()).real) / float(
                            np.vdot(rhs.ravel(), rhs.ravel()).real
                        )
                        res = _fro(lhs - c * rhs) / scale
                    null_compat_res = max(null_compat_res, res)

    lpz = plus_null_blocks(dec, sp.drho)
    cross_res = 0.0
    for l in range(p):
        ident = 2.0 * dv[l].conj().T @ dec.Y
        scale = max(1.0, _fro(lpz[l]) + _fro(ident))
        cross_res = max(cross_res, _fro(lpz[l] - ident) / scale)

    checked = [pde_res, cross_res]
    if stationarity_res is not None:
        checked.append(stationarity_res)
    if null_compat_res is not None:
        checked.append(null_compat_res)
    status = "PASSED" if all(r <= tol for r in checked) else "FAILED"
    return cond.Cond2PrimeResult(
        status=status,
        path=path,
        pde_residual=pde_res,
        stationarity_residual=stationarity_res,
        null_compat_residual=null_compat_res,
        cross_identity_residual=cross_res,
        tol=tol,
        notes=[],
    )



# ---------------------------------------------------------------------------
# The complex-matrix reader as it was before one path replaced it: a bulk
# array path, and a per-entry loop for every input that path declines.
# ---------------------------------------------------------------------------


def _pairs_array_loop(obj, n: int):
    if not isinstance(obj, list) or len(obj) != n:
        return None
    if not all(isinstance(row, list) and len(row) == n for row in obj):
        return None
    entries = list(chain.from_iterable(obj))
    if not all(map(isinstance, entries, repeat(list))) or set(map(len, entries)) != {2}:
        return None
    if not all(map(isinstance, chain.from_iterable(entries), repeat((int, float)))):
        return None
    try:
        return np.array(entries, dtype=float).reshape(n, n, 2)
    except OverflowError:
        return None


def parse_complex_matrix_loop(obj, n: int, what: str) -> np.ndarray:
    pairs = _pairs_array_loop(obj, n)
    if pairs is not None:
        out = np.empty((n, n), dtype=complex)
        out.real = pairs[..., 0]
        out.imag = pairs[..., 1]
    else:
        if not isinstance(obj, list) or len(obj) != n:
            raise SchemaError(f"{what}: expected {n} rows")
        out = np.zeros((n, n), dtype=complex)
        for i, row in enumerate(obj):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"{what}: row {i} must have {n} entries")
            for j, entry in enumerate(row):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, (int, float)) for x in entry)
                ):
                    raise SchemaError(f"{what}: entry ({i},{j}) must be an [re, im] pair")
                out[i, j] = complex(entry[0], entry[1])
    if not np.all(np.isfinite(out.view(float))):
        raise SchemaError(f"{what}: non-finite entries")
    return out


# ---------------------------------------------------------------------------
# The measurement checks as they were before basis measurements were read
# through their basis: every one works on the M dense elements, whatever
# form the measurement has.
# ---------------------------------------------------------------------------


def validate_loop(povm, tol=1e-10):
    n = povm.dim
    total = sum(povm.elements)
    completeness = nk.fro(total - np.eye(n))
    stack = np.array(povm.elements)
    herm_defects = [nk.herm_defect(e) for e in povm.elements]
    hermitian = [d <= tol * nk.fro(e) for d, e in zip(herm_defects, povm.elements)]
    w, v = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2.0)
    min_eigs = [float(x) for x in w[:, 0]]
    psd_ok = all(m >= -tol for m in min_eigs)
    complete = completeness <= tol * max(1.0, n)
    proj_res = float(np.max(np.linalg.norm(stack @ stack - stack, axis=(1, 2))))
    upper = w > 0.5
    if upper.sum() == n:
        proj_res = max(proj_res, pv._commutator_bound(w, v, upper, np.array(herm_defects)))
    else:
        for i, e in enumerate(povm.elements):
            for f in povm.elements[i + 1:]:
                proj_res = max(proj_res, nk.fro(e @ f - f @ e))
    projective = proj_res <= tol * max(1.0, n)
    return {
        "complete": complete,
        "completeness_residual": completeness,
        "psd_ok": psd_ok,
        "min_eigenvalues": min_eigs,
        "herm_defects": herm_defects,
        "hermitian": hermitian,
        "projective": projective,
        "projectivity_residual": proj_res,
        "valid": complete and psd_ok and all(hermitian),
        "tol": tol,
    }


def classify_elements_loop(povm, rho, dec):
    labels = []
    for k, e in enumerate(povm.elements):
        prob = float(np.trace(rho @ e).real)
        if prob > pv.PROB_TOL:
            labels.append("regular")
            continue
        scale = max(1.0, nk.fro(e))
        epp = dec.V.conj().T @ e @ dec.V
        epz = dec.V.conj().T @ e @ dec.Y
        if nk.fro(epp) > 1e-8 * scale or nk.fro(epz) > 1e-8 * scale:
            raise pv.StructureViolationError(f"element {k}", element=k)
        labels.append("null")
    return labels


def _fit_real_loop(a, b):
    denom = float(np.vdot(b.ravel(), b.ravel()).real)
    c = float(np.vdot(b.ravel(), a.ravel()).real) / denom
    return c, float(np.linalg.norm(a - c * b))


def verify_saturation_structural_loop(povm, classification, dec, slds, tol=1e-8):
    """Per element: (kind, constants, residuals, vacuous, passed).

    Residuals are relative to ||E|| s_l (regular) and ||E_00|| s_l (null),
    a vanishing null right-hand side to ||E_00|| s_m, with s_l the SLD
    support norms; a zero scale reads as a zero residual.
    """
    p = slds.n_params
    s = slds.scales.tolist()
    records = []
    for k, e in enumerate(povm.elements):
        kind = classification[k]
        constants, residuals, vacuous = {}, {}, []
        passed = True
        if kind == "regular":
            b = e @ dec.P_plus
            for l in range(p):
                a = e @ slds.full[l] @ dec.P_plus
                scale = nk.fro(e) * s[l]
                if nk.fro(b) <= tol * nk.fro(e):
                    vacuous.append(l)
                    continue
                c, res = _fit_real_loop(a, b)
                constants[l] = c
                residuals[l] = res / scale if scale else 0.0
                if residuals[l] > tol:
                    passed = False
        else:
            e00 = dec.Y.conj().T @ e @ dec.Y
            for l in range(p):
                for m in range(p):
                    if l == m:
                        continue
                    a = e00 @ slds.Lpz[l].conj().T
                    b = e00 @ slds.Lpz[m].conj().T
                    scale = nk.fro(e00) * s[l]
                    if nk.fro(b) <= tol * nk.fro(e00) * s[m]:
                        ra = nk.fro(a) / scale if scale else 0.0
                        if ra <= tol:
                            vacuous.append((l, m))
                        else:
                            residuals[(l, m)] = ra
                            passed = False
                        continue
                    c, res = _fit_real_loop(a, b)
                    constants[(l, m)] = c
                    residuals[(l, m)] = res / scale if scale else 0.0
                    if residuals[(l, m)] > tol:
                        passed = False
        records.append((kind, constants, residuals, vacuous, passed))
    return records


def outcome_distribution_loop(rho, drho, povm, dec):
    """(probs, dprobs, singular, {outcome: (info, rank1)}) element by element.

    An outcome is singular when some |d_l p| exceeds 1e-8 ||d_l rho||; a null
    outcome's curvature is rank one when its second eigenvalue is at most
    1e-8 times its largest.
    """
    p = len(drho)
    probs = np.array([float(np.trace(rho @ e).real) for e in povm.elements])
    dprobs = np.array([[float(np.trace(d @ e).real) for e in povm.elements] for d in drho])
    probs[(probs < 0.0) & (probs > -pv.PROB_TOL)] = 0.0
    deriv_tol = [1e-8 * nk.fro(d) for d in drho]
    support = probs > pv.PROB_TOL
    singular = [k for k in range(len(probs))
                if not support[k] and any(abs(dprobs[l, k]) > deriv_tol[l] for l in range(p))]
    lpz = plus_null_blocks(dec, drho)
    q_lpz = dec.q[:, None] * lpz
    null_info = {}
    for k, e in enumerate(povm.elements):
        if support[k] or k in singular:
            continue
        e00 = dec.Y.conj().T @ e @ dec.Y
        info = np.zeros((p, p))
        for l in range(p):
            for m in range(l, p):
                info[l, m] = info[m, l] = float(np.trace(lpz[l].conj().T @ q_lpz[m] @ e00).real)
        w = np.linalg.eigvalsh(info)
        rank1 = bool(w[-2] <= 1e-8 * max(w[-1], 0.0)) if p > 1 else True
        null_info[k] = (info, rank1)
    return probs, dprobs, singular, null_info


def classical_fim_loop(probs, dprobs, null_info):
    f = classical_fim_bruteforce(probs, dprobs, pv.PROB_TOL)
    for info, rank1 in null_info.values():
        if rank1:
            f = f + info
    return (f + f.T) / 2.0
