"""Independent oracles used by the tests.

Everything here is deliberately written from first principles (closed
forms, brute-force grids) or kept as the plain code a faster library path
replaced, so that expected values stay independent of the code paths they
check.
"""

import numpy as np

from qcrbsat import conditions as cond
from qcrbsat import numkernel as nk
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
# Per-pair loop versions of the commutativity-type checks, each computing its
# own products from the SLD matrices. Each returns (residual, worst_pair,
# scale) as the library's CommCheck reports them.
# ---------------------------------------------------------------------------


def _fro(a):
    return float(np.linalg.norm(a))


def _loop_pairs(p):
    return [(l, m) for l in range(p) for m in range(l + 1, p)]


def full_commutativity_loop(full):
    worst, worst_pair, scale = 0.0, None, 1.0
    for l, m in _loop_pairs(len(full)):
        s = max(1.0, _fro(full[l]) * _fro(full[m]))
        r = _fro(full[l] @ full[m] - full[m] @ full[l]) / s
        if r > worst:
            worst, worst_pair, scale = r, (l, m), s
    return worst, worst_pair, scale


def average_commutativity_loop(rho, full):
    """Also returns the (p, p) matrix of |tr(rho [L_l, L_m])|."""
    p = len(full)
    vals = np.zeros((p, p))
    worst, worst_pair = 0.0, None
    for l, m in _loop_pairs(p):
        comm = full[l] @ full[m] - full[m] @ full[l]
        v = abs(complex(np.trace(rho @ comm)))
        vals[l, m] = vals[m, l] = v
        s = max(1.0, _fro(full[l]) * _fro(full[m]))
        if v / s > worst:
            worst, worst_pair = v / s, (l, m)
    return worst, worst_pair, 1.0, vals


def partial_commutativity_loop(p_plus, lpp, lpz, full):
    """Block form, with the largest gap to the direct projection P+ [L_l, L_m] P+."""
    worst, worst_pair, crosscheck = 0.0, None, 0.0
    for l, m in _loop_pairs(len(full)):
        block = (
            lpp[l] @ lpp[m]
            - lpp[m] @ lpp[l]
            + lpz[l] @ lpz[m].conj().T
            - lpz[m] @ lpz[l].conj().T
        )
        s = max(1.0, _fro(full[l]) * _fro(full[m]))
        r = _fro(block) / s
        comm = full[l] @ full[m] - full[m] @ full[l]
        crosscheck = max(crosscheck, abs(_fro(p_plus @ comm @ p_plus) / s - r))
        if r > worst:
            worst, worst_pair = r, (l, m)
    return worst, worst_pair, 1.0, crosscheck


def condition1_loop(lpp):
    worst, worst_pair = 0.0, None
    for l, m in _loop_pairs(len(lpp)):
        s = max(1.0, _fro(lpp[l]) * _fro(lpp[m]))
        r = _fro(lpp[l] @ lpp[m] - lpp[m] @ lpp[l]) / s
        if r > worst:
            worst, worst_pair = r, (l, m)
    return worst, worst_pair, 1.0


def condition3_loop(lpz):
    worst, worst_pair = 0.0, None
    for l, m in _loop_pairs(len(lpz)):
        a = lpz[l] @ lpz[m].conj().T
        b = lpz[m] @ lpz[l].conj().T
        s = max(1.0, _fro(lpz[l]) * _fro(lpz[m]))
        r = _fro(a - b) / s
        if r > worst:
            worst, worst_pair = r, (l, m)
    return worst, worst_pair, 1.0


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
# Joint diagonalization as it was before the small-family shortcuts: every
# cluster, one column or more, is refined with its own `eigh`, and 1x1
# families go through the mixture like any other.
# ---------------------------------------------------------------------------


def joint_eigenprojectors_loop(family, tol=1e-8, *, rng=None):
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

    rng = rng if rng is not None else np.random.default_rng(0)
    coeffs = rng.standard_normal(len(mats))
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

    return nk.JointSpectrum(
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
    if model.support_basis_fn is None:
        return cond.Cond2PrimeResult(
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
    dec = decomposition_from_basis(sp, v, rank_tol=rank_tol)
    r_plus = dec.r_plus
    dv = [_map_derivative_loop(v_fn, theta, l, h) for l in range(p)]
    a = [v.conj().T @ dv[l] for l in range(p)]  # V^dag dV_l, skew-Hermitian

    notes = []
    path = "not_checked"
    if witness is None:
        diag_res = max(_fro(x - np.diag(np.diag(x))) / max(1.0, _fro(x)) for x in a) if p else 0.0
        if diag_res <= max(tol, 1e-6):
            d_canon = [np.diag((1j * np.diag(x)).real) for x in a]
            witness = cond.Cond2PrimeWitness(
                unitary_fn=lambda _theta: np.eye(r_plus, dtype=complex),
                generators=d_canon,
                label="diagonal_VdV",
            )
            notes.append("canonical witness generated from diagonal V^dag dV")
        else:
            return cond.Cond2PrimeResult(
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
    if u.shape != (r_plus, r_plus) or _fro(u.conj().T @ u - np.eye(r_plus)) > 1e-10 * max(
        1.0, r_plus
    ):
        raise cond.InvalidWitnessError(
            "witness map is not unitary at this point",
            defect=_fro(u.conj().T @ u - np.eye(r_plus)),
        )
    d_mats = witness.d_matrices(theta, p, r_plus)
    du = [_map_derivative_loop(witness.unitary_fn, theta, l, h) for l in range(p)]

    pde_res = 0.0
    for l in range(p):
        rhs = u @ (a[l] + 1j * d_mats[l])
        scale = max(1.0, _fro(du[l]) + _fro(a[l]) + _fro(d_mats[l]))
        pde_res = max(pde_res, _fro(du[l] - rhs) / scale)

    d_all_zero = all(_fro(d) <= 1e-12 for d in d_mats)
    path = witness.label
    if witness.label == "user_supplied_U" and d_all_zero:
        path = "zero_generators"

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
        notes=notes,
    )

