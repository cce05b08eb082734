"""POVMs: validation, regular/null classification, the optimal projective
construction, and structural saturation certificates.

A measurement saturates the quantum bound exactly when every element
satisfies an eigenvalue-type identity on the support: regular elements
(positive probability) must satisfy ``E L_l P+ = c E P+`` with real
constants, and null elements (zero probability) must relate the SLDs
pairwise, ``E_00 (Lpz_l^dag - c Lpz_m^dag) = 0`` with real constants. The
certificate below fits those constants by least squares and treats any
imaginary residue as part of the failure residual.

A measurement comes in one of two forms. A projective measurement built
from one basis keeps it, and every check reads that basis through
:mod:`basisform`; any other measurement is checked element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import basisform
from . import numkernel as nk
from .errors import QcrbSatError
from . import jsonio
from .jsonio import ComplexMatrix, SchemaError, parse_complex_matrix
from .model import SupportDecomposition
from .sld import SLDSet


# Outcomes with probability at most this are zero-probability (null) outcomes.
PROB_TOL = 1e-12

# A valid measurement is complete to VALID_TOL max(1, n) and its elements'
# eigenvalues are at least -VALID_TOL (see :func:`validate`).
VALID_TOL = 1e-10


class InvalidPOVMError(QcrbSatError):
    pass


class StructureViolationError(QcrbSatError):
    pass


class MissingAlignmentError(QcrbSatError):
    pass


class _Elements:
    """The ``elements`` field of :class:`POVM`: a basis measurement makes them on first read."""

    def __get__(self, povm, owner=None):
        if povm is None:
            return None  # the field's default
        if povm._elements is None and povm.basis is not None:
            povm._elements = elements_from_basis(povm.basis, povm.ranks)
        return povm._elements

    def __set__(self, povm, value):
        povm._elements = value


@dataclass
class POVM:
    """A finite measurement: PSD elements summing to the identity.

    A projective measurement built from one basis also keeps that ``basis``
    (an ``n x n`` matrix, unitary when the measurement is valid) and the
    widths ``ranks`` of the column blocks its elements project onto, and is
    given by those alone: its ``elements``, the blocks' projectors (see
    :func:`elements_from_basis`), are made on first read. Validation,
    classification, the certificate and the outcome distribution of such a
    measurement read the basis, and reports write it instead of the
    elements, so none of them makes the elements.
    A measurement without a basis is read element by element.
    """

    elements: Optional[list] = _Elements()
    classification: Optional[list] = None  # per element: "regular" | "null"
    meta: dict = field(default_factory=dict)
    basis: Optional[np.ndarray] = None
    ranks: Optional[tuple] = None

    def __post_init__(self):
        if self.basis is not None:
            if self._elements is not None:
                raise InvalidPOVMError("a measurement is given by its elements or by a basis, not both")
            self.basis = np.asarray(self.basis, dtype=complex)
            self.ranks = tuple(int(r) for r in self.ranks)
            n = len(self.basis)
            if self.basis.shape != (n, n) or sum(self.ranks) != n or min(self.ranks) < 1:
                raise InvalidPOVMError(
                    f"a basis of shape {self.basis.shape} with blocks {self.ranks} "
                    "does not describe a measurement"
                )
        else:
            self.elements = [np.asarray(e, dtype=complex) for e in self.elements or ()]
            if not self.elements:
                raise InvalidPOVMError("a measurement needs at least one element")
            n = self.elements[0].shape[0]
            for k, e in enumerate(self.elements):
                if e.shape != (n, n):
                    raise InvalidPOVMError(
                        f"element {k} has shape {e.shape}, expected ({n}, {n})", element=k
                    )

    @property
    def n_outcomes(self) -> int:
        return len(self.ranks) if self.basis is not None else len(self.elements)

    @property
    def dim(self) -> int:
        return len(self.basis) if self.basis is not None else self.elements[0].shape[0]


def validate(povm: POVM, tol: float = VALID_TOL) -> dict:
    """Completeness, Hermiticity, positivity and projectivity diagnostics.

    Returns a diagnostics dict and leaves ``povm`` as it is; it never
    raises, so callers can report violations per element. Element k counts
    as Hermitian when ``||E_k - E_k^dag|| <= tol ||E_k||``, and a valid
    measurement is complete, Hermitian and positive semidefinite.
    ``projectivity_residual`` bounds from above every ``||E_i^2 - E_i||``
    and ``||[E_i, E_j]||`` (Frobenius). A basis measurement is read from its
    Gram matrix (see :func:`basisform.validate`). Otherwise, when the elements'
    eigenvalues above 1/2 number n in total, the commutators are bounded
    through one Gram matrix of those eigenvectors (see
    :func:`_commutator_bound`); failing that each pair's commutator is
    computed.
    """
    n = povm.dim
    if povm.basis is not None:
        completeness, min_eigs, herm_defects, proj_res = basisform.validate(povm.basis, povm.ranks)
        hermitian = [True] * len(herm_defects)  # B_k B_k^dag is stored hermitized
    else:
        total = sum(povm.elements)
        completeness = nk.fro(total - np.eye(n))
        stack = np.array(povm.elements)
        herm_defects = [nk.herm_defect(e) for e in povm.elements]
        hermitian = (np.array(herm_defects) <= tol * nk.fro_stack(stack)).tolist()
        w, v = np.linalg.eigh((stack + stack.conj().transpose(0, 2, 1)) / 2.0)
        min_eigs = [float(x) for x in w[:, 0]]
        proj_res = float(np.max(np.linalg.norm(stack @ stack - stack, axis=(1, 2))))
        upper = w > 0.5
        if upper.sum() == n:
            proj_res = max(proj_res, _commutator_bound(w, v, upper, np.array(herm_defects)))
        else:
            for i, e in enumerate(povm.elements):
                for f in povm.elements[i + 1:]:
                    proj_res = max(proj_res, nk.fro(e @ f - f @ e))
    psd_ok = all(m >= -tol for m in min_eigs)
    complete = completeness <= tol * max(1.0, n)
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


def _commutator_bound(w, v, upper, herm_defects) -> float:
    """Upper bound on ``max_{i<j} ||[E_i, E_j]||_F`` from the elements' eigendata.

    ``w, v`` are the eigenvalues and eigenvectors of the Hermitian parts of
    the elements, ``upper`` marks eigenvalues above 1/2. Write
    ``E_i = P_i + D_i`` with ``P_i = B_i B_i^dag`` the projector onto those
    eigenvectors; ``D_i`` holds the eigenvalues' distance to 0 or 1 plus the
    anti-Hermitian part. Then
    ``||[E_i, E_j]|| <= 2||B_i^dag B_j|| + 2||D_i|| + 2||D_j|| + 2||D_i||_op ||D_j||``,
    and all blocks ``B_i^dag B_j`` come from one product ``B^dag B``.
    """
    m = len(w)
    dev = np.abs(w - upper)
    d_fro = np.sqrt(np.sum(dev**2, axis=1)) + herm_defects / 2.0
    d_op = np.max(dev, axis=1) + herm_defects / 2.0
    b = v.transpose(0, 2, 1)[upper]  # rows: the kept eigenvectors, element by element
    owner = np.repeat(np.arange(m), upper.sum(axis=1))
    pair = (owner[:, None] * m + owner[None, :]).ravel()
    gram_sq = np.abs(b.conj() @ b.T) ** 2
    overlap = np.sqrt(np.bincount(pair, weights=gram_sq.ravel(), minlength=m * m)).reshape(m, m)
    cross = d_op[:, None] * d_fro[None, :]
    bound = 2 * overlap + 2 * (d_fro[:, None] + d_fro[None, :]) + 2 * np.minimum(cross, cross.T)
    np.fill_diagonal(bound, 0.0)  # symmetric: the largest entry off the diagonal is over i < j
    return float(bound.max())


def require_valid(povm: POVM) -> dict:
    diag = validate(povm)
    if not all(diag["hermitian"]):
        k = diag["hermitian"].index(False)
        defect = diag["herm_defects"][k]
        raise InvalidPOVMError(
            f"POVM element {k} is not Hermitian: ||E - E^dag|| = {defect:.3e} "
            f"exceeds {diag['tol']:g} ||E||",
            element=k,
            herm_defect=defect,
        )
    if not diag["valid"]:
        raise InvalidPOVMError(
            "POVM violates completeness or positivity",
            completeness_residual=diag["completeness_residual"],
            min_eigenvalues=diag["min_eigenvalues"],
        )
    return diag


def elements_from_basis(basis: np.ndarray, ranks) -> list:
    """Projectors ``E_k = B_k B_k^dag`` onto consecutive column blocks of ``basis``.

    ``B_k`` is the k-th block of ``ranks[k]`` columns. This is the one place
    the elements of a basis measurement are made, so a measurement rebuilt
    from its ``basis``/``ranks`` report equals the one that wrote it bit for bit.
    """
    edges = np.cumsum([0, *ranks])
    return [
        nk.hermitize(basis[:, a:b] @ basis[:, a:b].conj().T)
        for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())
    ]


def classify_elements(povm: POVM, rho: np.ndarray, dec: SupportDecomposition) -> list:
    """Label elements regular (probability above :data:`PROB_TOL`) or null.

    Null elements must vanish on the ++ and +0 blocks (anything else is
    incompatible with positivity at zero probability); the first violation
    raises :class:`StructureViolationError`. A basis measurement takes its
    probabilities and blocks from :mod:`basisform`.
    """
    if povm.basis is not None:
        null = basisform.traces(povm.basis, povm.ranks, rho[None])[0] <= PROB_TOL
        blocks = basisform.support_block_norms(povm.basis, povm.ranks, dec, null)
    else:
        null, blocks = [], []
        for k, e in enumerate(povm.elements):
            null.append(float(np.trace(rho @ e).real) <= PROB_TOL)
            if null[-1]:
                epp = dec.V.conj().T @ e @ dec.V
                epz = dec.V.conj().T @ e @ dec.Y
                blocks.append((k, nk.fro(epp), nk.fro(epz), max(1.0, nk.fro(e))))
    for k, pp, pz, scale in blocks:
        if pp > 1e-8 * scale or pz > 1e-8 * scale:
            raise StructureViolationError(
                f"element {k} has zero probability but support blocks "
                f"(++ {pp:.3e}, +0 {pz:.3e}); "
                "not a positive semidefinite null element",
                element=k,
                pp_residual=pp,
                pz_residual=pz,
            )
    labels = ["null" if z else "regular" for z in null]
    povm.classification = labels
    return labels


def construct_optimal(
    dec: SupportDecomposition,
    slds: SLDSet,
    W: Optional[np.ndarray] = None,
    lambdas: Optional[np.ndarray] = None,
    *,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> POVM:
    """Build the optimal projective measurement from certified structure.

    Regular elements project onto the joint eigenspaces of the ++ SLD
    blocks, pushed forward with the support isometry; null elements are the
    rank-one projectors onto the columns of ``Y W``. Together they are the
    column blocks of one unitary ``[V Q, Y W]``, with ``Q`` the joint
    eigenbasis of the ++ blocks. Requires commuting ++ blocks, and ``W``
    whenever the null space is nontrivial.

    The ++ blocks are joint-diagonalized as ``Lpp_l / s_l``, with ``s`` the
    SLD support norms of :attr:`~qcrbsat.sld.SLDSet.scales` (1 where
    ``s_l = 0``), and the labels are multiplied back by ``s_l``. That family
    has unit scale, where :func:`~qcrbsat.numkernel.joint_eigenprojectors`
    reads ``tol`` as relative, so commutation is tested as condition 1 tests
    it, and the clusters do not depend on how the parameters are scaled.
    Each block is divided by its parameter's ``s_l``, not by its own norm:
    a ++ block that is rounding noise next to ``s_l`` stays noise.
    ``lambdas`` and ``rng`` are not read; they stay for the callers that
    pass them, the benchmark's replay among them.
    """
    s = np.where(slds.scales > 0, slds.scales, 1.0)
    spectrum = nk.joint_eigenprojectors(slds.Lpp / s[:, None, None], tol=tol)
    columns = [dec.V @ spectrum.basis]
    if dec.r_zero > 0:
        if W is None:
            raise MissingAlignmentError(
                "null directions present: an alignment unitary W is required "
                "to build the null elements"
            )
        W = np.asarray(W, dtype=complex)
        if W.shape != (dec.r_zero, dec.r_zero):
            raise nk.ShapeError(f"W has shape {W.shape}, expected ({dec.r_zero}, {dec.r_zero})")
        columns.append(dec.Y @ W)
    basis = np.hstack(columns)
    ranks = spectrum.block_dims + (1,) * dec.r_zero

    povm = POVM(
        classification=["regular"] * spectrum.chi + ["null"] * dec.r_zero,
        basis=basis,
        ranks=ranks,
        meta={
            "regular_labels": spectrum.labels * s,
            "chi": spectrum.chi,
        },
    )
    diag = validate(povm)
    if not (diag["valid"] and diag["projective"]):
        raise InvalidPOVMError("constructed measurement failed validation", diagnostics=diag)
    return povm


@dataclass
class ElementCertificate:
    index: int
    kind: str  # regular | null
    constants: dict  # regular: {l: c}; null: {(l, m): c}
    residuals: dict
    vacuous: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "constants": {str(k): v for k, v in self.constants.items()},
            "residuals": {str(k): v for k, v in self.residuals.items()},
            "vacuous": [str(k) for k in self.vacuous],
            "passed": self.passed,
        }


@dataclass
class SaturationCertificate:
    records: list
    passed: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "elements": [r.to_dict() for r in self.records],
        }


def _fit_real(a: np.ndarray, b: np.ndarray):
    """Least-squares real constant c minimizing ||a - c b||; returns (c, resid)."""
    denom = float(np.vdot(b.ravel(), b.ravel()).real)
    c = float(np.vdot(b.ravel(), a.ravel()).real) / denom
    return c, float(np.linalg.norm(a - c * b))


def verify_saturation_structural(
    povm: POVM,
    dec: SupportDecomposition,
    slds: SLDSet,
    tol: float = 1e-8,
) -> SaturationCertificate:
    """Certify (or refute) saturation element by element.

    Regular elements are tested in full space against
    ``E L_l P+ = c E P+``; null elements against the reduced pairwise
    relation on the +0 blocks. Constraints whose right-hand side vanishes
    are recorded as vacuous rather than pass/fail. A basis measurement is
    fitted on row blocks (see :func:`basisform.fits`).
    """
    if povm.classification is None:
        rho = dec.V @ np.diag(dec.q).astype(complex) @ dec.V.conj().T
        classify_elements(povm, rho, dec)

    if povm.basis is not None:
        fits = basisform.fits(povm.basis, povm.ranks, povm.classification, dec, slds, tol)
    else:
        fits = [_element_fit(e, kind, dec, slds, tol)
                for e, kind in zip(povm.elements, povm.classification)]
    records = [
        ElementCertificate(index=k, kind=kind, constants=constants, residuals=residuals,
                           vacuous=vacuous, passed=passed)
        for k, (kind, (constants, residuals, vacuous, passed))
        in enumerate(zip(povm.classification, fits))
    ]
    return SaturationCertificate(records=records, passed=all(r.passed for r in records), tol=tol)


def _relative(residual: float, scale: float) -> float:
    """``residual / scale``; a zero scale reads as a vanishing residual."""
    return residual / scale if scale else 0.0


def _element_fit(e, kind, dec, slds, tol):
    """One element's ``(constants, residuals, vacuous, passed)``, from the dense element.

    Scales are the element's norm times the SLD support norms ``s_l`` of
    :attr:`~qcrbsat.sld.SLDSet.scales`: ``||E L_l P+|| <= ||E|| s_l`` for a
    regular element, and ``||E_00 Lpz_l^dag|| <= ||E_00|| s_l`` for a null one.
    """
    p = slds.n_params
    s = slds.scales.tolist()
    constants, residuals, vacuous = {}, {}, []
    passed = True
    if kind == "regular":
        b = e @ dec.P_plus
        e_norm = nk.fro(e)
        if nk.fro(b) <= tol * e_norm:
            return constants, residuals, list(range(p)), passed
        for l in range(p):
            c, res = _fit_real(e @ slds.full[l] @ dec.P_plus, b)
            constants[l] = c
            residuals[l] = _relative(res, e_norm * s[l])
            passed = passed and residuals[l] <= tol
    else:
        e00 = dec.Y.conj().T @ e @ dec.Y
        e00_norm = nk.fro(e00)
        for l in range(p):
            for m in range(p):
                if l == m:
                    continue
                a = e00 @ slds.Lpz[l].conj().T
                b = e00 @ slds.Lpz[m].conj().T
                if nk.fro(b) <= tol * e00_norm * s[m]:
                    res = _relative(nk.fro(a), e00_norm * s[l])
                    if res <= tol:
                        vacuous.append((l, m))
                    else:
                        residuals[(l, m)] = res
                        passed = False
                    continue
                c, res = _fit_real(a, b)
                constants[(l, m)] = c
                residuals[(l, m)] = _relative(res, e00_norm * s[l])
                passed = passed and residuals[(l, m)] <= tol
    return constants, residuals, vacuous, passed


# ---------------------------------------------------------------------------
# Random measurement generators (tests, negative controls).
# ---------------------------------------------------------------------------


def random_projective_povm(n: int, rng: np.random.Generator) -> POVM:
    return POVM(basis=nk.haar_unitary(n, rng), ranks=(1,) * n)


def random_povm(n: int, m: int, rng: np.random.Generator) -> POVM:
    mats = []
    for _ in range(m):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(z @ z.conj().T)
    w, v = np.linalg.eigh(nk.hermitize(sum(mats)))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return POVM(elements=[nk.hermitize(inv_sqrt @ a @ inv_sqrt) for a in mats])


# ---------------------------------------------------------------------------
# JSON serialization (complex entries as [re, im] pairs).
#
# A measurement with a basis is written as that basis and its block widths,
# ``{"n_s", "basis", "ranks", "classification"}``: n^2 numbers instead of
# M n^2. Any other measurement is written element by element,
# ``{"n_s", "elements", "classification"}``. The reader takes both and
# ignores any other key.
# ---------------------------------------------------------------------------


def povm_to_json(povm: POVM) -> dict:
    if povm.basis is None:
        body = {"elements": ComplexMatrix(povm.elements)}
    else:
        body = {"basis": ComplexMatrix(povm.basis), "ranks": list(povm.ranks)}
    return {
        "n_s": povm.dim,
        **body,
        "classification": povm.classification,
    }


def povm_from_json(source) -> POVM:
    """Read a measurement from a dict, a stream or a path (see :func:`jsonio.load`).

    A file that breaks the schema raises :class:`SchemaError`. Whether the
    elements form a valid POVM is left to :func:`require_valid`.
    """
    data = jsonio.load(source)
    jsonio.require_keys(data, ("n_s",))
    n = data["n_s"]
    if not jsonio.is_count(n):
        raise SchemaError(f"n_s must be a positive integer, got {n!r}")
    if ("elements" in data) == ("basis" in data):
        raise SchemaError("a measurement holds exactly one of 'elements' and 'basis'")
    if "basis" in data:
        jsonio.require_keys(data, ("ranks",))
        basis = parse_complex_matrix(data["basis"], n, "basis")
        ranks = data["ranks"]
        if not (isinstance(ranks, list) and ranks and all(map(jsonio.is_count, ranks))
                and sum(ranks) == n):
            raise SchemaError(f"ranks must be positive integers summing to n_s = {n}")
        elements = None
        m = len(ranks)
    else:
        basis = ranks = None
        if not isinstance(data["elements"], list):
            raise SchemaError("elements must be a list of matrices")
        elements = [
            parse_complex_matrix(e, n, f"elements[{k}]") for k, e in enumerate(data["elements"])
        ]
        m = len(elements)
    classification = data.get("classification")
    if classification is not None and not (
        isinstance(classification, list) and len(classification) == m
        and all(c in ("regular", "null") for c in classification)
    ):
        raise SchemaError(f"classification must hold {m} entries, each 'regular' or 'null'")
    return POVM(
        elements=elements,
        classification=classification,
        basis=basis,
        ranks=ranks,
    )
