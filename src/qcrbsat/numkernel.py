"""Dense complex matrix kernel.

Joint eigenprojectors of commuting Hermitian families, and the norms and
residual metrics the saturability checks are built on.
Everything here is a pure function of its arguments: the joint
diagonalization mixes its family with the fixed weights of
:func:`mixing_weights`, so no generator enters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import QcrbSatError


class ShapeError(QcrbSatError):
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


def fro_stack(a: np.ndarray) -> np.ndarray:
    """:func:`fro` of every matrix of a stack ``(..., m, n)``, bit for bit, in one pass.

    The stack is read C-contiguous, so each norm equals ``fro`` of the
    C-contiguous copy of its matrix: its sum of squares is ``np.vecdot`` of
    the real parts plus that of the imaginary parts, one BLAS dot each with
    the strides ``fro`` takes. Returns the ``(...)`` array of norms.
    """
    x = np.ascontiguousarray(a)
    x = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def norm_stack(a: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """``np.linalg.norm(a, axis=axis)`` bit for bit, for one axis or two: the 2-norm of
    every vector or the Frobenius norm of every matrix of a stack, summed as numpy sums,
    without the dispatch of ``np.linalg.norm``."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=axis))


@functools.cache
def identity(n: int) -> np.ndarray:
    """The real ``n x n`` identity, one read-only array shared by every caller."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.cache
def mixing_weights(count: int) -> np.ndarray:
    """The first ``count`` values of ``np.random.default_rng(0).standard_normal``: fixed real
    weights as generic as a random draw, one read-only array shared by every caller."""
    weights = np.random.default_rng(0).standard_normal(count)
    weights.flags.writeable = False
    return weights


def opnorm(a: np.ndarray):
    """Spectral (2-) norm of a matrix, or the array of them for a stack of matrices."""
    if a.ndim > 2:
        return np.linalg.norm(a, 2, axis=(-2, -1))
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
    if not np.isfinite(a.view(float)).all():
        raise ShapeError(f"{what} has non-finite entries")
    return a


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n x n unitary: QR of a complex Gaussian matrix, phases fixed by R."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True)
class JointSpectrum:
    """Common spectral data of a commuting Hermitian family.

    ``basis`` is unitary, and its consecutive column blocks, ``block_dims[k]``
    wide, span the joint eigenspaces; ``labels[k, l]`` is the eigenvalue of
    family member ``l`` on the k-th one. ``projectors[k]``, the orthogonal
    projector onto it, is made from its block on first read, so every member
    equals ``sum_k labels[k, l] * projectors[k]``.
    """

    labels: np.ndarray  # (chi, n_members)
    basis: np.ndarray
    block_dims: tuple

    @property
    def chi(self) -> int:
        return len(self.block_dims)

    @functools.cached_property
    def projectors(self) -> tuple:
        edges = np.cumsum([0, *self.block_dims]).tolist()
        blocks = (self.basis[:, np.arange(a, b)] for a, b in zip(edges[:-1], edges[1:]))
        return tuple(hermitize(qk @ qk.conj().T) for qk in blocks)


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
    """Joint eigenspaces of a family of commuting Hermitian matrices.

    A fixed real mixture of the family (:func:`mixing_weights`) is
    diagonalized first; its eigenvalue clusters are then refined member by
    member, which keeps already-resolved members scalar on every block.
    Pairwise commutator residuals above ``tol`` (relative to the product of
    norms) are refused, and so is a member that is not scalar on a block or
    that its labels do not rebuild.

    Every threshold is ``tol`` times a norm of the family floored at 1, so
    the family is expected at unit scale: ``tol`` is relative for members
    of norm about 1 and absolute for smaller ones. A caller whose family
    carries a scale of its own divides it out first, as
    :func:`~qcrbsat.povm.construct_optimal` does with the SLD support norms.

    The family is handled as one ``(m, n, n)`` stack: one product stack for
    the commutators, one stacked spectral norm for the scales, one stacked
    ``q^dag S q`` per cluster for the labels and the scalar check, and one
    ``Q diag(labels) Q^dag`` per member for the reconstruction check. Basis,
    labels, refusals and their residuals are those of the member-by-member
    loop, bit for bit. The projectors are made on first read (see
    :class:`JointSpectrum`). ``rng`` is not read; it stays for the callers
    that pass it, the benchmark's replay among them.
    """
    if len(family) == 0:
        raise ShapeError("empty family")
    squares = [_require_square(a, f"family[{i}]") for i, a in enumerate(family)]
    n = squares[0].shape[0]
    if n == 0:
        raise ShapeError("family members are 0 x 0 matrices")
    for i, a in enumerate(squares):
        if a.shape[0] != n:
            raise ShapeError(f"family[{i}] has shape {a.shape}, expected ({n}, {n})")
    stack = hermitize(np.array(squares))
    m = len(stack)

    norms = [fro(a) for a in stack]
    products = stack[:, None] @ stack[None, :]
    residuals = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            r = fro(products[i, j] - products[j, i])
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

    scales = np.maximum(1.0, opnorm(stack))

    mixture = sum(c * a for c, a in zip(mixing_weights(m), stack))

    w, basis = np.linalg.eigh(hermitize(mixture))
    mix_scale = max(1.0, float(np.max(np.abs(w))))
    clusters = _split_by_gaps(w, tol * mix_scale)

    # Refine each mixture cluster member by member. Rotations inside a
    # cluster that is degenerate for the members processed so far leave
    # those members scalar, so the final basis diagonalizes everyone.
    basis = np.array(basis)
    for a, scale_a in zip(stack, scales):
        # One column is an eigenvector already, and eigh of a 1x1 matrix
        # returns exactly [[1]]. Multiplying every such column by that, all
        # at once, keeps its bits, signed zeros included, as the eigh path set them.
        ones = [sl.start for sl in clusters if sl.stop - sl.start == 1]
        basis[:, ones] = (basis[:, ones, None] @ _ONE)[..., 0]
        refined = []
        for sl in clusters:
            if sl.stop - sl.start == 1:
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

    # Each member's label on a cluster is the mean of the diagonal of
    # S = q^dag a q, and S minus that times I must vanish.
    labels = np.empty((len(clusters), m))
    off_bound = 10 * tol * scales
    for k, sl in enumerate(clusters):
        qk = basis[:, sl]
        s = qk.conj().T @ stack @ qk
        if sl.stop - sl.start == 1:
            # the mean of one value is that value, and the residual |Im S| (as fro forms it)
            lam, off = s[:, 0, 0].real, np.sqrt(s[:, 0, 0].imag ** 2)
        else:
            lam = np.array([np.mean(np.diag(x).real) for x in s])
            off = np.array([fro(x - v * np.eye(len(x))) for x, v in zip(s, lam)])
        bad = np.flatnonzero(off > off_bound)
        if bad.size:
            l = int(bad[0])
            raise JointDiagonalizationError(
                f"family member {l} is not scalar on cluster {k}: residual {off[l]:.3e}",
                member=l,
                cluster=k,
                residual=float(off[l]),
            )
        labels[k] = lam

    # Merge clusters whose label tuples coincide (a mixture collision that
    # survived refinement), then order deterministically by label tuple.
    close = np.all(np.abs(labels[:, None] - labels[None]) <= tol * scales, axis=-1).tolist()
    merged: list[list[int]] = []
    for k in range(len(clusters)):
        for group in merged:
            if close[group[0]][k]:
                group.append(k)
                break
        else:
            merged.append([k])

    col_groups = [np.concatenate([np.arange(clusters[k].start, clusters[k].stop) for k in group])
                  for group in merged]
    out_labels = [labels[group[0]] if len(group) == 1 else np.mean(labels[group], axis=0)
                  for group in merged]
    keys = [row.tolist() for row in out_labels]
    order = sorted(range(len(merged)), key=keys.__getitem__)
    spectrum = JointSpectrum(
        labels=np.array([out_labels[k] for k in order]),
        # in C order: the bits of products with the basis depend on its layout
        basis=np.ascontiguousarray(basis[:, np.concatenate([col_groups[k] for k in order])]),
        block_dims=tuple(len(col_groups[k]) for k in order),
    )

    # Reconstruction: each member against Q diag(its labels) Q^dag. Its
    # residual and the one against the projector sum sum_k labels[k, l] P_k
    # differ by rounding, O(n eps ||a||), far below half the bound for any
    # tol well above eps. So a member within half the bound here is within
    # it there too; any other member is decided by the projector sum.
    basis, out_labels = spectrum.basis, spectrum.labels
    per_column = np.repeat(out_labels, spectrum.block_dims, axis=0).T  # (m, n)
    rebuilt = hermitize((basis * per_column[:, None, :]) @ basis.conj().T)
    bound = 100 * tol * np.maximum(1.0, norms)
    for l in np.flatnonzero(np.linalg.norm(stack - rebuilt, axis=(1, 2)) > bound / 2).tolist():
        err = fro(stack[l] - sum(out_labels[k, l] * p for k, p in enumerate(spectrum.projectors)))
        if err > bound[l]:
            raise JointDiagonalizationError(
                f"reconstruction of member {l} failed: residual {err:.3e}",
                member=l,
                residual=err,
            )
    return spectrum
