"""Dense complex matrix kernel.

Hermitian eigendecompositions, joint eigenprojectors of commuting Hermitian
families, and the residual metrics the saturability checks are built on.
Everything here is a pure function of its arguments; randomness (the mixing
coefficients used for joint diagonalization) comes from a generator supplied
by the caller so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import QcrbSatError


class ShapeError(QcrbSatError):
    pass


class NonHermitianError(QcrbSatError):
    pass


class NotCommutingError(QcrbSatError):
    pass


class JointDiagonalizationError(QcrbSatError):
    pass


def fro(a: np.ndarray) -> float:
    """Frobenius norm, equal bit for bit to ``float(np.linalg.norm(a))``.

    complex128 and float64 arrays take numpy's own arithmetic (ravel in
    memory order, sum of squares through ``dot``, square root) without the
    dispatch of ``np.linalg.norm``; other dtypes go through it.
    """
    x = np.asarray(a).ravel(order="K")
    if x.dtype.char == "D":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype.char == "d":
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


def opnorm(a: np.ndarray) -> float:
    """Spectral (2-) norm."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dag) / 2 of a matrix, or of each matrix of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def herm_defect(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - a.conj().T))


def _require_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}", shape=list(a.shape))
    if not np.all(np.isfinite(a.view(float))):
        raise ShapeError(f"{what} has non-finite entries")
    return a


def commutator_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the commutator [a, b]."""
    a = _require_square(a, "first operand")
    b = _require_square(b, "second operand")
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return fro(a @ b - b @ a)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian matrix, phases fixed by R."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary; columns are eigenvectors


def eig_hermitian(a: np.ndarray, herm_tol: float = 1e-8) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized before decomposition; inputs whose Hermitian
    defect exceeds ``herm_tol`` relative to the matrix norm are refused.
    """
    a = _require_square(a, "input")
    scale = max(1.0, fro(a))
    defect = herm_defect(a)
    if defect > herm_tol * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} > {herm_tol:.1e} * {scale:.3e}",
            defect=defect,
            tol=herm_tol,
        )
    w, q = np.linalg.eigh(hermitize(a))
    return HermitianEigen(eigenvalues=w, eigenvectors=q)


@dataclass(frozen=True)
class JointSpectrum:
    """Common spectral data of a commuting Hermitian family.

    ``projectors[k]`` is the orthogonal projector onto the k-th joint
    eigenspace and ``labels[k, l]`` the eigenvalue of family member ``l`` on
    it, so every member equals ``sum_k labels[k, l] * projectors[k]``.
    """

    projectors: tuple
    labels: np.ndarray  # (chi, n_members)
    basis: np.ndarray  # unitary; column blocks span the projectors
    block_dims: tuple

    @property
    def chi(self) -> int:
        return len(self.projectors)


_ONE = np.ones((1, 1), dtype=complex)


def _split_by_gaps(values: np.ndarray, tol_abs: float) -> list:
    """Slice sorted values into clusters at gaps larger than tol_abs."""
    n = len(values)
    bounds = [0]
    for i in range(1, n):
        if values[i] - values[i - 1] > tol_abs:
            bounds.append(i)
    bounds.append(n)
    return [slice(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def joint_eigenprojectors(
    family: Sequence[np.ndarray],
    tol: float = 1e-8,
    *,
    rng: np.random.Generator | None = None,
) -> JointSpectrum:
    """Joint eigenprojectors of a family of commuting Hermitian matrices.

    A random real mixture of the family is diagonalized first; its eigenvalue
    clusters are then refined member by member, which keeps already-resolved
    members scalar on every block. Pairwise commutator residuals above
    ``tol`` (relative to the product of norms) are refused.
    """
    if len(family) == 0:
        raise ShapeError("empty family")
    mats = [hermitize(_require_square(a, f"family[{i}]")) for i, a in enumerate(family)]
    n = mats[0].shape[0]
    for i, a in enumerate(mats):
        if a.shape[0] != n:
            raise ShapeError(f"family[{i}] has shape {a.shape}, expected ({n}, {n})")

    rng = rng if rng is not None else np.random.default_rng(0)
    if n == 1:
        # Scalars are jointly diagonal. The mixture coefficients are still
        # drawn, so the caller's later draws from rng stay the same.
        rng.standard_normal(len(mats))
        return JointSpectrum(
            projectors=(_ONE.copy(),),
            labels=np.array([[a[0, 0].real for a in mats]]),
            basis=_ONE.copy(),
            block_dims=(1,),
        )

    norms = [fro(a) for a in mats]
    residuals = np.zeros((len(mats), len(mats)))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            r = fro(mats[i] @ mats[j] - mats[j] @ mats[i])
            residuals[i, j] = residuals[j, i] = r
            scale = max(1.0, norms[i] * norms[j])
            if r > tol * scale:
                raise NotCommutingError(
                    f"family members {i} and {j} do not commute: "
                    f"residual {r:.3e} > {tol:.1e} * {scale:.3e}",
                    pair=[i, j],
                    residual=r,
                    residuals=residuals,
                )

    scales = np.array([max(1.0, opnorm(a)) for a in mats])

    coeffs = rng.standard_normal(len(mats))
    mixture = sum(c * a for c, a in zip(coeffs, mats))

    w, basis = np.linalg.eigh(hermitize(mixture))
    mix_scale = max(1.0, float(np.max(np.abs(w))))
    clusters = _split_by_gaps(w, tol * mix_scale)

    # Refine each mixture cluster member by member. Rotations inside a
    # cluster that is degenerate for the members processed so far leave
    # those members scalar, so the final basis diagonalizes everyone.
    basis = np.array(basis)
    for a, scale_a in zip(mats, scales):
        refined = []
        for sl in clusters:
            if sl.stop - sl.start == 1:
                # One column is an eigenvector already, and eigh of a 1x1
                # matrix returns exactly [[1]]. Multiplying by that keeps the
                # column's bits, signed zeros included, as the eigh path set them.
                basis[:, sl] = basis[:, sl] @ _ONE
                refined.append(sl)
                continue
            qk = basis[:, sl]
            s = hermitize(qk.conj().T @ a @ qk)
            w2, r = np.linalg.eigh(s)
            basis[:, sl] = qk @ r
            offset = sl.start
            for sub in _split_by_gaps(w2, tol * scale_a):
                refined.append(slice(offset + sub.start, offset + sub.stop))
        clusters = refined

    labels = np.zeros((len(clusters), len(mats)))
    for k, sl in enumerate(clusters):
        qk = basis[:, sl]
        for l, a in enumerate(mats):
            s = qk.conj().T @ a @ qk
            lam = float(np.mean(np.diag(s).real))
            off = fro(s - lam * np.eye(sl.stop - sl.start))
            if off > 10 * tol * scales[l]:
                raise JointDiagonalizationError(
                    f"family member {l} is not scalar on cluster {k}: residual {off:.3e}",
                    member=l,
                    cluster=k,
                    residual=off,
                )
            labels[k, l] = lam

    # Merge clusters whose label tuples coincide (a mixture collision that
    # survived refinement), then order deterministically by label tuple.
    merged: list[list[int]] = []
    for k in range(len(clusters)):
        for group in merged:
            if np.all(np.abs(labels[group[0]] - labels[k]) <= tol * scales):
                group.append(k)
                break
        else:
            merged.append([k])

    projectors = []
    out_labels = []
    col_groups = []
    for group in merged:
        cols = np.concatenate([np.arange(clusters[k].start, clusters[k].stop) for k in group])
        qk = basis[:, cols]
        projectors.append(hermitize(qk @ qk.conj().T))
        out_labels.append(np.mean(labels[group], axis=0))
        col_groups.append(cols)

    order = sorted(range(len(projectors)), key=lambda k: tuple(out_labels[k]))
    projectors = [projectors[k] for k in order]
    out_labels = np.array([out_labels[k] for k in order])
    basis = np.concatenate([basis[:, col_groups[k]] for k in order], axis=1)
    block_dims = tuple(len(col_groups[k]) for k in order)

    for l, a in enumerate(mats):
        rebuilt = sum(out_labels[k, l] * projectors[k] for k in range(len(projectors)))
        err = fro(a - rebuilt)
        if err > 100 * tol * max(1.0, fro(a)):
            raise JointDiagonalizationError(
                f"reconstruction of member {l} failed: residual {err:.3e}",
                member=l,
                residual=err,
            )

    return JointSpectrum(
        projectors=tuple(projectors),
        labels=out_labels,
        basis=basis,
        block_dims=block_dims,
    )
