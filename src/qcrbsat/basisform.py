"""Checks of a measurement, read from its factor.

Every measurement (see :class:`povm.POVM`) holds a factor ``F``, ``n x R``,
whose k-th column block ``B_k`` (``r_k`` columns wide) gives the element
``E_k = B_k B_k^dag``. A projective measurement built from one basis has
that basis as its factor (``R = n``); a list of elements is factored on
load. Every check :mod:`povm` and :mod:`fisher` run on a measurement is
computed here from ``F`` itself, through three identities that hold for
any n x n operator X:

- ``E_k X = B_k (B_k^dag X)``, and all the row blocks ``B_k^dag X`` come
  from one product ``F^dag X``;
- ``tr(X E_k)`` is the block sum of ``Re diag(F^dag X F)``;
- ``||B_k R||_F^2 = Re tr(R^dag G_kk R)`` with ``G = F^dag F``, so no
  orthonormality is assumed inside a residual.

The work stays on the ``r_k x n`` row blocks, grouped by width: no stack of
the M dense elements is formed, and each check costs ``O(p n^2 R)``. The
functions here take ``F`` and the block ranks and return numbers, and
:mod:`povm` makes the decisions.
"""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .model import SupportDecomposition
from .sld import SLDSet


def _rank_groups(ranks, keep=None):
    """The column blocks grouped by width: ``(elements, columns)`` per width r.

    ``elements`` are the indices of the blocks r columns wide (only those
    ``keep`` marks, when given) and ``columns`` their ``(count, r)`` column
    indices, so ``A[columns]`` stacks the row blocks of an ``n x .`` array.
    """
    ranks = np.asarray(ranks)
    starts = np.cumsum(ranks) - ranks
    groups = []
    for r in sorted(set(ranks.tolist())):
        idx = np.flatnonzero((ranks == r) if keep is None else (ranks == r) & keep)
        if idx.size:
            groups.append((idx, starts[idx, None] + np.arange(r)))
    return groups


def _relative(residual, scale):
    """``residual / scale`` elementwise; a zero scale reads as a vanishing residual."""
    return np.divide(residual, scale, out=np.zeros(np.broadcast(residual, scale).shape),
                     where=scale > 0)


def _block_inner(g, a, b):
    """``Re tr(a^dag g b)`` over stacked blocks: ``g`` (..., r, r), ``a``, ``b`` (..., r, x)."""
    gb = g @ b
    return np.sum(a.real * gb.real + a.imag * gb.imag, axis=(-2, -1))


def validate(f: np.ndarray, ranks):
    """Completeness, minimum eigenvalues, Hermitian defects and projectivity of a basis measurement.

    ``f`` is the measurement's basis, its ``n x n`` factor. All four come
    from ``G = F^dag F`` and ``F F^dag``. Completeness is
    ``||herm(F F^dag) - I||``. ``E_k`` has the eigenvalues of ``G_kk`` and,
    when ``r_k < n``, zeros. ``E_k^2 - E_k = B_k (G_kk - I) B_k^dag`` and
    ``[E_i, E_j] = B_i G_ij B_j^dag - B_j G_ji B_i^dag`` give
    ``||E_k^2 - E_k|| <= ||B_k||^2 ||G_kk - I||`` and
    ``||[E_i, E_j]|| <= 2 ||B_i|| ||B_j|| ||G_ij||``, with operator norms
    ``||B_k||^2 = max eig G_kk``. Each residual adds a bound on the rounding
    of the stored (hermitized) elements, of their own products and sums and
    of ``G`` itself, so it bounds from above the residual computed on those
    elements pair by pair. The stored elements are Hermitian exactly.
    """
    n, m = f.shape[0], len(ranks)
    eps = np.finfo(float).eps
    g = f.conj().T @ f
    width = np.asarray(ranks, dtype=float)
    edges = np.cumsum(ranks) - ranks
    sq = np.abs(g - np.eye(n)) ** 2  # off the diagonal, |G|^2
    block_sq = np.add.reduceat(np.add.reduceat(sq, edges, axis=0), edges, axis=1)
    norms_sq = np.add.reduceat(g.diagonal().real, edges)  # ||B_k||_F^2
    lam_min, lam_max = np.empty(m), np.empty(m)
    for idx, cols in _rank_groups(ranks):
        w = np.linalg.eigvalsh(g[cols[:, :, None], cols[:, None, :]])
        lam_min[idx], lam_max[idx] = w[:, 0], np.maximum(w[:, -1], 0.0)
    op = np.sqrt(lam_max)
    bound = (2.0 - np.eye(m)) * np.outer(op, op) * np.sqrt(block_sq)
    rounding = ((2 * n + 18) + 2 * (width[:, None] + width[None, :])) * eps \
        * np.outer(1.0 + norms_sq, 1.0 + norms_sq)
    proj_res = float(np.max(bound + rounding))

    completeness = nk.fro(nk.hermitize(f @ f.conj().T) - np.eye(n))
    completeness += (3 * n + 9) * eps * (1.0 + float(norms_sq.sum()))
    min_eigs = np.where(width < n, 0.0, lam_min).tolist()
    return completeness, min_eigs, [0.0] * m, proj_res


def traces(f: np.ndarray, ranks, ops: np.ndarray) -> np.ndarray:
    """``Re tr(X E_k)`` for a ``(B, n, n)`` stack of operators X: the ``(B, M)`` array.

    The block sums of ``Re diag(F^dag X F)``, one product ``X F`` per
    operator; an element of rank 0 reads 0.
    """
    xf = ops @ f
    diag = np.sum(f.real * xf.real + f.imag * xf.imag, axis=-2)
    ranks = np.asarray(ranks)
    out = np.zeros(diag.shape[:-1] + ranks.shape)
    wide = ranks > 0  # np.add.reduceat would read an empty block as its next entry
    out[..., wide] = np.add.reduceat(diag, (np.cumsum(ranks) - ranks)[wide], axis=-1)
    return out


def null_terms(f: np.ndarray, ranks, dec: SupportDecomposition, lpz: np.ndarray, keep):
    """The null-space blocks of the elements ``keep`` marks, grouped by width.

    Yields ``(elements, gram, rows)`` per width r. With ``C = Y^dag B_k``
    the null block is ``E_00 = Y^dag E_k Y = C C^dag``; ``gram`` stacks
    ``C^dag C`` (``(count, r, r)``, and ``||E_00|| = ||C^dag C||``) and
    ``rows`` the row blocks ``Z_l = C^dag Lpz_l^dag`` of
    ``F^dag Y Lpz_l^dag`` (``(p, count, r, r+)``), so that
    ``E_00 Lpz_l^dag = C Z_l``. Both come from one product ``F^dag Y``.
    """
    fy = f.conj().T @ dec.Y
    z = fy @ lpz.conj().swapaxes(-1, -2)
    for idx, cols in _rank_groups(ranks, keep):
        c_adj = fy[cols]  # (count, r, r0): the rows of C^dag
        yield idx, c_adj @ c_adj.conj().swapaxes(-1, -2), z[:, cols]


def support_block_norms(f: np.ndarray, ranks, dec: SupportDecomposition, keep) -> list:
    """``(k, ||V^dag E_k V||, ||V^dag E_k Y||, max(1, ||E_k||))`` of each element ``keep`` marks.

    From ``V^dag F`` and ``Y^dag F``: with ``A = V^dag B_k`` and
    ``C = Y^dag B_k``, ``||V^dag E_k V|| = ||A^dag A||``,
    ``||V^dag E_k Y||^2 = Re tr(A^dag A C^dag C)`` and ``||E_k|| = ||G_kk||``.
    Listed in element order.
    """
    vf, yf = dec.V.conj().T @ f, dec.Y.conj().T @ f
    out = []
    for idx, cols in _rank_groups(ranks, keep):
        a, c, b = vf[:, cols], yf[:, cols], f[:, cols]  # (., count, r)
        aa = np.einsum("ikr,iks->krs", a.conj(), a)
        cc = np.einsum("ikr,iks->krs", c.conj(), c)
        gkk = np.einsum("ikr,iks->krs", b.conj(), b)
        pp = np.linalg.norm(aa, axis=(1, 2))
        pz = np.sqrt(np.maximum(np.sum(aa * cc.swapaxes(1, 2), axis=(1, 2)).real, 0.0))
        scale = np.maximum(1.0, np.linalg.norm(gkk, axis=(1, 2)))
        out += zip(idx.tolist(), pp.tolist(), pz.tolist(), scale.tolist())
    return sorted(out)


def fits(f: np.ndarray, ranks, classification, dec: SupportDecomposition, slds: SLDSet,
         tol: float) -> list:
    """Every element's certificate ``(constants, residuals, vacuous, passed)``.

    With ``R = B_k^dag P+`` and ``S_l = B_k^dag L_l P+``, the row blocks of
    ``F^dag P+`` and ``F^dag (L_l P+)``, a regular element has ``E P+ = B_k R``
    and ``E L_l P+ = B_k S_l``; inner products and residuals are
    ``Re tr(X^dag G_kk X')``. A null element has ``E_00 Lpz_l^dag = C Z_l``
    with ``Z_l`` the rows of :func:`null_terms`, and inner products
    ``Re tr(Z_l^dag C^dag C Z_m)``. Each residual is formed from the
    difference ``S_l - c R`` (``Z_l - c Z_m``), never from a difference of
    squared norms. Residuals are relative to ``||E|| s_l`` (regular) and
    ``||E_00|| s_l`` (null), with ``s`` = :attr:`SLDSet.scales`, the bounds
    on ``||E L_l P+||`` and ``||E_00 Lpz_l^dag||``.
    """
    p = slds.n_params
    s = slds.scales
    out = [None] * len(ranks)
    regular = np.array(classification) == "regular"
    if regular.any():
        g = f.conj().T @ f if f.shape[1] <= f.shape[0] else None  # R > n: G_kk alone
        fp = f.conj().T @ dec.P_plus
        fl = f.conj().T @ (slds.full @ dec.P_plus)
        for idx, cols in _rank_groups(ranks, regular):
            gkk = (f.T[cols].conj() @ f.T[cols].swapaxes(1, 2) if g is None
                   else g[cols[:, :, None], cols[:, None, :]])
            rr, ss = fp[cols], fl[:, cols]  # (count, r, n), (p, count, r, n)
            e_norm = np.linalg.norm(gkk, axis=(1, 2))
            bb = _block_inner(gkk, rr, rr)  # ||E P+||^2
            vac = np.sqrt(np.maximum(bb, 0.0)) <= tol * e_norm
            c = _block_inner(gkk, rr, ss) / np.where(vac, 1.0, bb)  # (p, count)
            d = ss - c[..., None, None] * rr
            res = np.sqrt(np.maximum(_block_inner(gkk, d, d), 0.0))
            res = _relative(res, e_norm[None, :] * s[:, None])
            failed = (res > tol).any(axis=0)
            for j, k in enumerate(idx.tolist()):
                if vac[j]:
                    out[k] = ({}, {}, list(range(p)), True)
                else:
                    out[k] = (dict(enumerate(c[:, j].tolist())),
                              dict(enumerate(res[:, j].tolist())), [], not failed[j].item())
    null = ~regular
    if null.any():
        pairs = [(l, mm) for l in range(p) for mm in range(p) if l != mm]
        li, mi = (np.array([x[i] for x in pairs], dtype=int) for i in (0, 1))
        for idx, gram, z in null_terms(f, ranks, dec, slds.Lpz, null):
            e00_norm = np.linalg.norm(gram, axis=(1, 2))[:, None]
            zt = z.swapaxes(0, 1)  # (count, p, r, r+)
            q = np.einsum("klij,kmij->klm", zt.conj(), gram[:, None] @ zt).real
            norms = np.sqrt(np.maximum(np.diagonal(q, axis1=1, axis2=2), 0.0))  # ||E_00 Lpz_l^dag||
            na, nb = norms[:, li], norms[:, mi]
            fit = nb > tol * e00_norm * s[mi]
            c = q[:, li, mi] / np.where(fit, q[:, mi, mi], 1.0)
            d = zt[:, li] - c[..., None, None] * zt[:, mi]
            res = np.sqrt(np.maximum(_block_inner(gram[:, None], d, d), 0.0))
            res = _relative(np.where(fit, res, na), e00_norm * s[li])
            vac = ~fit & (res <= tol)
            failed = (~vac & (~fit | (res > tol))).any(axis=1)
            for j, k in enumerate(idx.tolist()):
                constants, residuals, vacuous = {}, {}, []
                for pair, v, fitted, cj, rj in zip(pairs, vac[j].tolist(), fit[j].tolist(),
                                                   c[j].tolist(), res[j].tolist()):
                    if v:
                        vacuous.append(pair)
                        continue
                    if fitted:
                        constants[pair] = cj
                    residuals[pair] = rj
                out[k] = (constants, residuals, vacuous, not failed[j].item())
    return out
