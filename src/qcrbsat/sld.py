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

An :class:`SLDSet` holds the p SLDs stacked: each block and the full-space
observables are one complex ``(p, ., .)`` array, and every parameter is
solved in one pass. Computed once on first use, it carries the pair products
``A[j, k] = Lpp_j Lpp_k`` and ``B[j, k] = Lpz_j Lpz_k^dag`` that the QFIM,
conditions 1 and 3 and partial commutativity read, the full-space
commutators that the full and average commutativity checks read, and the
per-parameter scales that every pairwise check divides by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import numkernel as nk
from .errors import QcrbSatError
from .model import SupportDecomposition


class SLDInconsistentError(QcrbSatError):
    pass


def _assemble(lpp: np.ndarray, lpz: np.ndarray, dec: SupportDecomposition) -> np.ndarray:
    """Full-space observables ``V Lpp V^dag + V Lpz Y^dag + Y Lpz^dag V^dag`` of
    stacked ++ and +0 blocks, hermitized; their 00 block is zero."""
    v, y = dec.V, dec.Y
    vh = v.conj().T
    return nk.hermitize(v @ lpp @ vh + v @ lpz @ y.conj().T + y @ lpz.conj().swapaxes(-1, -2) @ vh)


def pairs(p: int):
    """Parameter pairs (l, m), l < m, in the order every pairwise quantity uses."""
    return combinations(range(p), 2)


def plus_null_blocks(dec: SupportDecomposition, drho) -> np.ndarray:
    """The +0 SLD blocks ``2 diag(q)^-1 V^dag (d rho) Y``, one per derivative."""
    return 2.0 * (dec.V.conj().T @ np.asarray(drho, dtype=complex) @ dec.Y) / dec.q[:, None]


@dataclass(frozen=True)
class SLDSet:
    """SLD observables for every parameter: their support rows and full space.

    ``Lpp`` and ``Lpz`` stack the ++ and +0 blocks and ``full`` the
    full-space observables, whose 00 blocks are zero: complex arrays of shape
    ``(p, r+, r+)``, ``(p, r+, r0)`` and ``(p, n, n)``, indexed by parameter
    first.
    """

    Lpp: np.ndarray  # ++ blocks
    Lpz: np.ndarray  # +0 blocks
    full: np.ndarray  # full-space observables, 00 blocks zero

    @property
    def n_params(self) -> int:
        return len(self.full)

    @cached_property
    def commutators(self) -> np.ndarray:
        """``[L_l, L_m]`` of the full-space observables, stacked in :func:`pairs` order."""
        f, n = self.full, self.full.shape[-1]
        comms = [f[l] @ f[m] - f[m] @ f[l] for l, m in pairs(self.n_params)]
        return np.array(comms).reshape(len(comms), n, n)

    @cached_property
    def pair_products(self) -> tuple:
        """``(A, B)`` with ``A[j, k] = Lpp_j Lpp_k`` and ``B[j, k] = Lpz_j Lpz_k^dag``."""
        lpp, lpz = self.Lpp, self.Lpz
        return lpp[:, None] @ lpp[None, :], lpz[:, None] @ lpz.conj().swapaxes(-1, -2)[None, :]

    @cached_property
    def scales(self) -> np.ndarray:
        """``s_l = (||Lpp_l||^2 + ||Lpz_l||^2)^(1/2)``, the norm of each SLD's support rows.

        A change of support or null basis does not move it, and it vanishes
        only where ``d_l rho = 0``.
        """
        return np.linalg.norm(np.concatenate([self.Lpp, self.Lpz], axis=-1), axis=(-2, -1))


def compute_sld(
    dec: SupportDecomposition, drho: np.ndarray, sld_tol: float = 1e-8
) -> SLDSet:
    """Solve the SLD defining equation for every parameter.

    Raises :class:`SLDInconsistentError` when the assembled observable does
    not reproduce the derivative to ``sld_tol`` relative to ``||d_l rho||``
    (a vanishing derivative has a vanishing SLD and residual 0); that
    typically signals bad derivatives or a misdetected rank.
    """
    q = dec.q
    v = dec.V
    d = np.asarray(drho, dtype=complex)
    lpp = nk.hermitize(2.0 * (v.conj().T @ d @ v) / (q[:, None] + q[None, :]))
    lpz = plus_null_blocks(dec, d)
    full = _assemble(lpp, lpz, dec)

    rho = v @ np.diag(q).astype(complex) @ v.conj().T
    defect = (full @ rho + rho @ full) / 2.0 - d
    scales = np.linalg.norm(d, axis=(1, 2))
    residuals = np.linalg.norm(defect, axis=(1, 2)) / np.where(scales > 0, scales, 1.0)
    bad = np.flatnonzero(residuals > sld_tol)
    if bad.size:
        l = int(bad[0])
        raise SLDInconsistentError(
            f"SLD defining equation violated for parameter {l}: "
            f"residual {residuals[l]:.3e} > {sld_tol:.1e}",
            param=l,
            residual=float(residuals[l]),
        )
    return SLDSet(Lpp=lpp, Lpz=lpz, full=full)


def qfim(dec: SupportDecomposition, slds: SLDSet) -> np.ndarray:
    """Quantum Fisher information matrix F_jk = Re tr(rho L_j L_k).

    Read off the pair products, ``F_jk = Re sum_i q_i (A_jk + B_jk)_ii``;
    only the support rows enter because rho vanishes outside the support.
    The entries j <= k are mirrored below the diagonal.
    """
    a, b = slds.pair_products
    diag = np.diagonal(a, axis1=-2, axis2=-1) + np.diagonal(b, axis1=-2, axis2=-1)
    f = np.sum(dec.q * diag.real, axis=-1)
    return np.where(np.triu(np.ones(f.shape, dtype=bool)), f, f.T)
