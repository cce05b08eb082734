"""Independent oracles used by the tests.

Everything here is deliberately written from first principles (closed
forms, brute-force grids) or kept as the plain code a faster library path
replaced, so that expected values stay independent of the code paths they
check.
"""

import numpy as np

from qcrbsat.model import evaluate


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
