"""Symmetric logarithmic derivatives in block form, and the quantum Fisher
information matrix.

With the support split of the state, the defining equation
``(L rho + rho L) / 2 = d rho`` decouples: the ++ block is solved entrywise
in the support eigenbasis (denominators q_j + q_k stay away from zero by
construction), the +0 block is ``2 diag(q)^-1 V^dag (d rho) Y`` (see
:func:`plus_null_blocks`), and the 00 block is unconstrained. An SLD is
represented by its support rows alone, the ++ and +0 blocks (the projected
SLDs the saturation conditions are stated in); its full-space observable has
a zero 00 block by construction, which minimizes the operator norm.

An :class:`SLDSet` holds the p SLDs stacked, each block and the full-space
observables one complex ``(p, ., .)`` array solved in one pass, and the
state's support weights ``q``. Computed once on first use, it carries the
pair products ``A[j, k] = Lpp_j Lpp_k`` and ``B[j, k] = Lpz_j Lpz_k^dag``
that conditions 1 and 3 and partial commutativity read, their weighted
trace ``Z_jk = tr(rho L_j L_k)`` (Re Z is the QFIM, and
``tr(rho [L_j, L_k]) = 2i Im Z_jk``), the per-parameter scales every
pairwise check divides by, and, for the full-commutativity diagnostic
alone, the full-space commutators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations

import numpy as np

from . import numkernel as nk
from .errors import QcrbSatError
from .model import SupportDecomposition


class SLDInconsistentError(QcrbSatError):
    pass


def _assemble(lpp: np.ndarray, lpz: np.ndarray, v: np.ndarray, vh: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """Full-space observables ``V Lpp V^dag + V Lpz Y^dag + Y Lpz^dag V^dag`` of
    stacked ++ and +0 blocks, hermitized; their 00 block is zero."""
    return nk.hermitize(v @ lpp @ vh + v @ lpz @ y.conj().swapaxes(-1, -2)
                        + y @ lpz.conj().swapaxes(-1, -2) @ vh)


@cache
def pairs(p: int) -> tuple:
    """Parameter pairs (l, m), l < m, in the order every pairwise quantity uses."""
    return tuple(combinations(range(p), 2))


@cache
def pair_index(p: int) -> np.ndarray:
    """The (2, pairs) array of the first and of the second parameter of every pair, in
    :func:`pairs` order: ``x[..., pair_index(p), :, :]`` stacks both members of every pair
    of a ``(..., p, m, n)`` stack in one gather."""
    index = np.array(np.triu_indices(p, 1))
    index.flags.writeable = False  # shared by every caller
    return index


def plus_null_blocks(dec: SupportDecomposition, drho) -> np.ndarray:
    """The +0 SLD blocks ``2 diag(q)^-1 V^dag (d rho) Y``, one per derivative."""
    vh = dec.V.conj().swapaxes(-1, -2)[..., None, :, :]
    return _plus_null(vh, np.asarray(drho, dtype=complex), dec.Y[..., None, :, :], dec.q)


def _plus_null(vh: np.ndarray, d: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`plus_null_blocks` from ``V^dag`` and ``Y`` with their parameter axis."""
    return 2.0 * (vh @ d @ y) / q[..., None, :, None]


@dataclass(frozen=True)
class SLDSet:
    """SLD observables for every parameter: their support rows and full space.

    ``Lpp`` and ``Lpz`` stack the ++ and +0 blocks and ``full`` the
    full-space observables, whose 00 blocks are zero: complex arrays of shape
    ``(p, r+, r+)``, ``(p, r+, r0)`` and ``(p, n, n)``, indexed by parameter
    first. ``q`` holds the state's ``(r+,)`` support weights. The SLDs of a
    stack of points (what :func:`compute_sld` returns for a stacked split)
    have one more leading axis on every array, and so does every quantity
    read off them.
    """

    Lpp: np.ndarray  # ++ blocks
    Lpz: np.ndarray  # +0 blocks
    full: np.ndarray  # full-space observables, 00 blocks zero
    q: np.ndarray  # support weights of the state

    @property
    def n_params(self) -> int:
        return self.full.shape[-3]

    def row(self, i) -> "SLDSet":
        """The SLDs of point ``i`` of a stack."""
        return SLDSet(Lpp=self.Lpp[i], Lpz=self.Lpz[i], full=self.full[i], q=self.q[i])

    @cached_property
    def commutators(self) -> np.ndarray:
        """``[L_l, L_m]`` of the full-space observables, stacked in :func:`pairs` order."""
        f = self.full[..., pair_index(self.n_params), :, :]
        f_l, f_m = f[..., 0, :, :, :], f[..., 1, :, :, :]
        return f_l @ f_m - f_m @ f_l

    @cached_property
    def pair_products(self) -> tuple:
        """``(A, B)`` with ``A[j, k] = Lpp_j Lpp_k`` and ``B[j, k] = Lpz_j Lpz_k^dag``."""
        lpp, lpz = self.Lpp, self.Lpz
        return (lpp[..., :, None, :, :] @ lpp[..., None, :, :, :],
                lpz[..., :, None, :, :] @ lpz.conj().swapaxes(-1, -2)[..., None, :, :, :])

    @cached_property
    def weighted_traces(self) -> tuple:
        """``(Re Z, Im Z)``, ``Z[j, k] = tr(rho L_j L_k) = sum_i q_i (A_jk + B_jk)_ii``: rho
        vanishes off the support. Each part is a real sum; a complex one rounds differently."""
        a, b = self.pair_products
        diag = a.diagonal(axis1=-2, axis2=-1) + b.diagonal(axis1=-2, axis2=-1)
        q = self.q[..., None, None, :]
        return np.sum(q * diag.real, axis=-1), np.sum(q * diag.imag, axis=-1)

    @cached_property
    def scales(self) -> np.ndarray:
        """``s_l = (||Lpp_l||^2 + ||Lpz_l||^2)^(1/2)``, the norm of each SLD's support rows.

        A change of support or null basis does not move it, and it vanishes
        only where ``d_l rho = 0``.
        """
        return nk.norm_stack(np.concatenate([self.Lpp, self.Lpz], axis=-1))


def compute_sld(
    dec: SupportDecomposition, drho: np.ndarray, sld_tol: float = 1e-8
) -> SLDSet:
    """Solve the SLD defining equation for every parameter.

    Raises :class:`SLDInconsistentError` when the assembled observable does
    not reproduce the derivative to ``sld_tol`` relative to ``||d_l rho||``
    (a vanishing derivative has a vanishing SLD and residual 0); that
    typically signals bad derivatives or a misdetected rank. A stacked split
    (see :func:`~qcrbsat.model.split_support`) with its ``(B, p, n, n)``
    derivatives gives the stacked SLDs, row i equal to the single-point solve
    bit for bit; a failing point raises for its first failing parameter.
    """
    q = dec.q
    v, y = dec.V[..., None, :, :], dec.Y[..., None, :, :]  # with a parameter axis
    vh = v.conj().swapaxes(-1, -2)
    d = np.asarray(drho, dtype=complex)
    lpp = nk.hermitize(2.0 * (vh @ d @ v) / (q[..., :, None] + q[..., None, :])[..., None, :, :])
    lpz = _plus_null(vh, d, y, q)
    full = _assemble(lpp, lpz, v, vh, y)

    # V diag(q) V^dag, with V diag(q) taken as the column scaling it equals
    rho = (v * q[..., None, None, :]) @ vh
    defect = (full @ rho + rho @ full) / 2.0 - d
    scales = nk.norm_stack(d)
    residuals = nk.norm_stack(defect) / np.where(scales > 0, scales, 1.0)
    bad = residuals > sld_tol
    if bad.any():
        l = int(bad.argmax()) % residuals.shape[-1]
        r = float(residuals.reshape(-1)[bad.argmax()])
        raise SLDInconsistentError(
            f"SLD defining equation violated for parameter {l}: "
            f"residual {r:.3e} > {sld_tol:.1e}",
            param=l,
            residual=r,
        )
    return SLDSet(Lpp=lpp, Lpz=lpz, full=full, q=q)


def qfim(dec: SupportDecomposition, slds: SLDSet) -> np.ndarray:
    """Quantum Fisher information matrix F_jk = Re tr(rho L_j L_k).

    This is ``Re Z`` of :attr:`SLDSet.weighted_traces`, its entries j <= k
    mirrored below the diagonal. A stack of points gives the ``(B, p, p)``
    stack of matrices. ``dec`` is not read, since ``slds`` carries the
    support weights; it stays for the callers that pass it, the benchmark's
    replay among them.
    """
    f = slds.weighted_traces[0].copy()
    ls, ms = pair_index(slds.n_params)
    f[..., ms, ls] = f[..., ls, ms]  # the lower triangle mirrors the upper
    return f
