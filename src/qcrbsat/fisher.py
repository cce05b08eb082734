"""Classical Fisher information of a measurement, comparison against the
quantum Fisher information, and Monte Carlo evidence.

Outcomes with positive probability contribute the usual score terms
``(d_l p)(d_m p) / p``. Structurally null outcomes (zero probability and
zero first derivative, as every null element of a fixed-rank family has)
still carry information: their probability grows quadratically away from
the point, and when that quadratic form has rank one the outcome's Fisher
contribution has a direction-independent limit equal to twice the Hessian,

    lim F_lm = Re tr(Lpz_l^dag diag(q) Lpz_m E_00),

which is computable from first-order data alone. Measurements built from
the saturation certificates have exactly rank-one null curvature, and this
term is what closes the gap to the quantum Fisher information. Null
outcomes whose curvature is not rank one have no direction-independent
limit; they contribute nothing (which can only underestimate the
information, keeping the quantum bound valid), and the ``fisher`` and
``simulate`` reports name them (:attr:`MeasurementDistribution.dropped`).

Every cut reads the problem's own scale, never an absolute floor: the
derivative sums and the singular-outcome cut read ``||d_l rho||`` per
parameter, the rank-one cut is relative to the outcome's largest
curvature, and invertibility is read on the information matrix's
correlation form. The completeness cuts (probability sums, derivative sums,
negative probabilities) are the ones a valid measurement meets
(:data:`~qcrbsat.povm.VALID_TOL`, scaled as :func:`~qcrbsat.povm.validate`
scales it), so a measurement that passes validation passes them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import basisform
from . import numkernel as nk
from .errors import QcrbSatError
from .model import Box, SupportDecomposition
from .povm import POVM, PROB_TOL, VALID_TOL
from .sld import plus_null_blocks


class SingularOutcomeError(QcrbSatError):
    pass


class ModelMismatchError(QcrbSatError):
    pass


@dataclass
class NullOutcomeInfo:
    index: int
    info: np.ndarray  # (p, p) limiting Fisher contribution (4x curvature form)
    rank1: bool


@dataclass
class MeasurementDistribution:
    """Outcome probabilities, their parameter derivatives, and null data."""

    probs: np.ndarray  # (M,)
    dprobs: np.ndarray  # (p, M)
    support_mask: np.ndarray  # probs > PROB_TOL
    singular: list  # outcomes with p ~ 0 but dp != 0 (information undefined)
    null_info: list  # NullOutcomeInfo for structurally null outcomes

    @property
    def n_params(self) -> int:
        return self.dprobs.shape[0]

    @property
    def dropped(self) -> list:
        """Null outcomes whose curvature is not rank one: :func:`classical_fim` leaves them out."""
        return [rec.index for rec in self.null_info if not rec.rank1]


# Entries of the largest (rows, M, n, n) product a stack of states is traced
# through at once (1 MB); longer stacks go in chunks of rows.
STACK_ENTRIES = 1 << 16


def probabilities(rho: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Re tr(rho E_k) for every element of a stacked (M, n, n) measurement.

    A (B, n, n) stack of states gives the (B, M) probabilities, row b equal
    bit for bit to the single-state call on rho_b. Also gives the
    derivatives tr(d_l rho E_k) when passed d_l rho.
    """
    step = max(1, STACK_ENTRIES // elements.size)
    if rho.ndim == 3 and len(rho) > step:
        return np.concatenate(
            [probabilities(rho[i:i + step], elements) for i in range(0, len(rho), step)]
        )
    return np.trace(rho[..., None, :, :] @ elements, axis1=-2, axis2=-1).real


def outcome_distribution(
    rho: np.ndarray,
    drho: np.ndarray,
    povm: POVM,
    dec: SupportDecomposition,
    deriv_tol: float = 1e-8,
) -> MeasurementDistribution:
    """Probabilities p_k = tr(rho E_k) and derivatives tr(drho_l E_k).

    The support decomposition ``dec`` of rho gives the limiting information
    of structurally null outcomes as well (see module docstring). A null
    outcome is singular when some ``|d_l p_k|`` exceeds ``deriv_tol`` times
    ``||d_l rho||``: the derivative scheme's tolerance, the cut every other
    layer judges derivatives at.
    A basis measurement is read through its basis (:mod:`basisform`); any
    other element by element.
    """
    p = len(drho)
    states = np.concatenate([rho[None], drho])
    if povm.basis is not None:
        traces = basisform.traces(povm.basis, povm.ranks, states)
    else:
        traces = probabilities(states, np.stack(povm.elements))
    probs, dprobs = traces[0], traces[1:]
    # |tr(X (sum_k E_k - I))| <= ||X|| ||sum_k E_k - I||, and tr(rho E_k) >= min eig(E_k)
    sum_tol = VALID_TOL * max(1.0, len(rho))
    if np.any(probs < -VALID_TOL):
        k = int(probs.argmin())
        raise QcrbSatError(f"negative outcome probability {float(probs[k]):.3e} of outcome {k}",
                           outcome=k, probability=float(probs[k]), tol=VALID_TOL)
    probs[probs < 0.0] = 0.0
    total = float(probs.sum())
    if abs(total - 1.0) > sum_tol:
        raise QcrbSatError(f"probabilities sum to {total!r}, not 1 to {sum_tol:g}",
                           probability_sum=total, tol=sum_tol)
    d_norms = np.linalg.norm(np.asarray(drho), axis=(1, 2))
    # completeness: sum_k d_l p_k = tr d_l rho, whose own size the state's validation judged
    dp_defects = np.abs(dprobs.sum(axis=1) - np.trace(drho, axis1=1, axis2=2).real)
    if np.any(dp_defects > sum_tol * d_norms):
        raise QcrbSatError(
            f"probability derivatives do not sum to the derivative traces: {dp_defects.tolist()}",
            defects=dp_defects, tol=sum_tol,
        )

    cut = deriv_tol * d_norms
    support_mask = probs > PROB_TOL
    singular = np.flatnonzero(
        ~support_mask & np.any(np.abs(dprobs) > cut[:, None], axis=0)
    ).tolist()

    lpz = plus_null_blocks(dec, drho)
    structural = ~support_mask
    structural[singular] = False
    if povm.basis is not None:
        infos = _basis_null_infos(povm, dec, lpz, structural)
    else:
        q_lpz = dec.q[:, None] * lpz
        infos = (_element_null_info(povm.elements[k], dec, lpz, q_lpz)
                 for k in np.flatnonzero(structural).tolist())
    null_info = []
    for k, info in zip(np.flatnonzero(structural).tolist(), infos):
        w = np.linalg.eigvalsh(info)
        rank1 = bool(w[-2] <= 1e-8 * max(w[-1], 0.0)) if p > 1 else True
        null_info.append(NullOutcomeInfo(index=k, info=info, rank1=rank1))

    return MeasurementDistribution(
        probs=probs,
        dprobs=dprobs,
        support_mask=support_mask,
        singular=singular,
        null_info=null_info,
    )


def _element_null_info(e, dec: SupportDecomposition, lpz, q_lpz) -> np.ndarray:
    """``Re tr(Lpz_l^dag diag(q) Lpz_m E_00)`` of one dense element; ``q_lpz = diag(q) Lpz``."""
    p = len(lpz)
    e00 = dec.Y.conj().T @ e @ dec.Y
    info = np.zeros((p, p))
    for l in range(p):
        for mm in range(l, p):
            val = float(np.trace(lpz[l].conj().T @ q_lpz[mm] @ e00).real)
            info[l, mm] = info[mm, l] = val
    return info


def _basis_null_infos(povm: POVM, dec: SupportDecomposition, lpz: np.ndarray, keep) -> np.ndarray:
    """The null information of the basis elements ``keep`` marks, in element order.

    With ``Z_l = C^dag Lpz_l^dag`` the rows of :func:`basisform.null_terms`,
    ``tr(Lpz_l^dag diag(q) Lpz_m C C^dag) = sum_ij Z_l[i, j] q_j conj(Z_m[i, j])``;
    the upper triangle is mirrored, as on the element path.
    """
    infos = np.zeros((povm.n_outcomes, len(lpz), len(lpz)))
    for idx, _, z in basisform.null_terms(povm.basis, povm.ranks, dec, lpz, keep):
        full = np.einsum("lkij,mkij->klm", z * dec.q, z.conj()).real
        infos[idx] = np.triu(full) + np.triu(full, 1).swapaxes(1, 2)
    return infos[keep]


def classical_fim(dist: MeasurementDistribution) -> np.ndarray:
    """Classical Fisher information matrix of the outcome distribution.

    Sums score terms over outcomes with positive probability plus the
    limiting contributions of rank-one null outcomes. Refuses distributions
    with singular outcomes (zero probability, nonzero derivative), where the
    information is genuinely undefined.
    """
    if dist.singular:
        raise SingularOutcomeError(
            f"outcome(s) {dist.singular} have zero probability but nonzero "
            "probability derivative; the classical Fisher information is undefined",
            outcomes=dist.singular,
        )
    p = dist.n_params
    f = np.zeros((p, p))
    for k in np.nonzero(dist.support_mask)[0]:
        s = dist.dprobs[:, k]
        f += np.outer(s, s) / dist.probs[k]
    for rec in dist.null_info:
        if rec.rank1:
            f += rec.info
    return (f + f.T) / 2.0


@dataclass
class FisherComparison:
    F_c: np.ndarray
    F_Q: np.ndarray
    gap: float  # operator norm of F_Q - F_c
    psd_violation: float  # how far F_Q - F_c dips below zero
    saturated: bool
    tol: float
    cost_classical: Optional[float] = None
    cost_quantum: Optional[float] = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "F_c": self.F_c.tolist(),
            "F_Q": self.F_Q.tolist(),
            "gap_opnorm": self.gap,
            "psd_violation": self.psd_violation,
            "saturated": self.saturated,
            "tol": self.tol,
            "cost_classical": self.cost_classical,
            "cost_quantum": self.cost_quantum,
            "notes": list(self.notes),
        }


def _singular(m: np.ndarray) -> bool:
    """Whether a symmetric information matrix is too close to singular to invert.

    Read on its correlation form ``D^-1/2 m D^-1/2``, ``D = diag(m)``, so that
    neither a common nor a per-parameter scale moves the decision; a
    parameter without information makes the matrix singular.
    """
    d = np.diag(m)
    if np.any(d <= 0.0):
        return True
    r = np.sqrt(d)
    return bool(np.linalg.eigvalsh(m / np.outer(r, r))[0] <= 1e-12)


def compare(
    f_c: np.ndarray,
    f_q: np.ndarray,
    g: Optional[np.ndarray] = None,
    tol: float = 1e-8,
) -> FisherComparison:
    """Compare classical against quantum information.

    ``saturated`` means the operator-norm gap is below ``tol`` relative to
    the quantum matrix. Scalar costs tr(G F^-1) are reported for a supplied
    cost matrix when the respective information matrix is invertible,
    otherwise omitted with a note.
    """
    f_c = np.asarray(f_c, dtype=float)
    f_q = np.asarray(f_q, dtype=float)
    for name, m in (("classical", f_c), ("quantum", f_q)):
        if m.shape != f_c.shape or np.linalg.norm(m - m.T) > 1e-8 * np.linalg.norm(m):
            raise QcrbSatError(f"{name} information matrix is not symmetric")
    diff = f_q - f_c
    gap = nk.opnorm(diff)
    scale = nk.opnorm(f_q)
    saturated = gap <= tol * scale
    wmin = float(np.linalg.eigvalsh((diff + diff.T) / 2.0)[0])
    psd_violation = max(0.0, -wmin)

    notes = []
    cost_c = cost_q = None
    if g is not None:
        g = np.asarray(g, dtype=float)

        def inv_cost(m, name):
            if _singular(m):
                notes.append(f"{name} information matrix is singular; scalar cost omitted")
                return None
            return float(np.trace(g @ np.linalg.inv(m)))

        cost_q = inv_cost(f_q, "quantum")
        cost_c = inv_cost(f_c, "classical") if cost_q is not None else None

    return FisherComparison(
        F_c=f_c,
        F_Q=f_q,
        gap=gap,
        psd_violation=psd_violation,
        saturated=bool(saturated),
        tol=tol,
        cost_classical=cost_c,
        cost_quantum=cost_q,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Sampling and the empirical information estimate.
# ---------------------------------------------------------------------------


def sample_outcomes(dist: MeasurementDistribution, n: int, seed: int) -> np.ndarray:
    """Draw n outcomes; deterministic for a fixed seed."""
    if n < 1:
        raise QcrbSatError(f"need at least one trial, got {n}", trials=n)
    p = np.clip(dist.probs, 0.0, None)
    p = p / p.sum()
    return np.random.default_rng(seed).multinomial(n, p)


def empirical_fim(counts: np.ndarray, dist: MeasurementDistribution):
    """Plug-in Fisher estimate from observed counts, with standard errors.

    Scores use the analytic probability derivatives; sampled outcomes enter
    through their empirical frequencies while the deterministic null-outcome
    contribution is added exactly (those outcomes are never observed).
    Observing an outcome the model says has zero probability is a model
    mismatch and raises.
    """
    counts = np.asarray(counts)
    if counts.shape != dist.probs.shape:
        raise QcrbSatError(f"counts shape {counts.shape} does not match {dist.probs.shape}")
    n = int(counts.sum())
    bad = [int(k) for k in np.nonzero((counts > 0) & ~dist.support_mask)[0]]
    if bad:
        raise ModelMismatchError(
            f"outcome(s) {bad} observed but the model assigns them zero probability",
            outcomes=bad,
        )

    p = dist.n_params
    null_part = np.zeros((p, p))
    for rec in dist.null_info:
        if rec.rank1:
            null_part += rec.info

    support = np.nonzero(dist.support_mask)[0]
    scores = np.zeros((p, len(support)))
    for i, k in enumerate(support):
        scores[:, i] = dist.dprobs[:, k] / dist.probs[k]
    freqs = counts[support] / n

    f_hat = null_part.copy()
    stderr = np.zeros((p, p))
    for l in range(p):
        for m in range(l, p):
            g = scores[l] * scores[m]
            mean = float(np.dot(freqs, g))
            var = float(np.dot(freqs, (g - mean) ** 2))
            f_hat[l, m] = f_hat[m, l] = f_hat[l, m] + mean
            stderr[l, m] = stderr[m, l] = np.sqrt(var / n)
    return f_hat, stderr


@dataclass
class MonteCarloRecord:
    seed: int
    trials: int
    counts: np.ndarray
    fim_estimate: np.ndarray
    fim_stderr: np.ndarray
    estimator: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "counts": self.counts.tolist(),
            "fim_estimate": self.fim_estimate.tolist(),
            "fim_stderr": self.fim_stderr.tolist(),
            "estimator": self.estimator,
        }


def simulate(dist: MeasurementDistribution, trials: int, seed: int) -> MonteCarloRecord:
    counts = sample_outcomes(dist, trials, seed)
    f_hat, stderr = empirical_fim(counts, dist)
    return MonteCarloRecord(
        seed=seed, trials=trials, counts=counts, fim_estimate=f_hat, fim_stderr=stderr
    )


# ---------------------------------------------------------------------------
# Optional estimator study: batched maximum likelihood, every batch fitted at
# once. A likelihood maps a (B, p) stack of points to the (B, M) outcome
# probabilities, so each step of the search is one call on a stack of the
# batches still searching.
# ---------------------------------------------------------------------------

# Brent's golden-section fraction (3 - sqrt 5)/2; the square root of the
# double's machine epsilon, which scales each search's tolerance; and the
# bound on a search's steps, above the ~40 golden steps a bracket needs.
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)
BRENT_STEPS = 100


def _brent(f: Callable[[np.ndarray, np.ndarray], np.ndarray], x, fx, lo, hi):
    """Brent minimum of each row's function over its bracket (lo_b, hi_b).

    Row b starts at x_b, strictly inside its bracket, with ``fx_b`` its value.
    Each step is a golden-section step or, where it is safe, the minimum of
    the parabola through the row's three best points (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5). A row
    stops once ``|x - m| <= 2t - (b - a)/2``, with [a, b] its current bracket,
    m its middle and ``t = sqrt(eps) (|x| + hi - lo)``, or after
    ``BRENT_STEPS`` steps. ``f(u, rows)`` maps the abscissae of the rows
    still searching (their indices ``rows``) to their values; each step calls
    it once, at points strictly inside each row's (a, b). Every update is
    elementwise, so row b follows exactly the scalar search on its own
    bracket. Returns the (B,) minima and their values.
    """
    x, fx = np.asarray(x, dtype=float), np.asarray(fx, dtype=float)
    x_out, f_out = x.copy(), fx.copy()
    rows, a, b, span = np.arange(len(x)), lo, hi, hi - lo
    v = w = x
    fv = fw = fx
    d = e = np.zeros_like(x)
    for _ in range(BRENT_STEPS):
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * (np.abs(x) + span)
        tol2 = 2.0 * tol
        going = np.abs(x - m) > tol2 - 0.5 * (b - a)
        if not going.all():  # finished rows are written out and leave the stack
            x_out[rows[~going]], f_out[rows[~going]] = x[~going], fx[~going]
            rows, a, b, span, m, tol, tol2, x, fx, v, fv, w, fw, d, e = (
                s[going] for s in (rows, a, b, span, m, tol, tol2, x, fx, v, fv, w, fw, d, e)
            )
            if not len(rows):
                break
        # the parabola through (x, fx), (w, fw), (v, fv) has its minimum at x + p/q;
        # where q = 0 the step is not taken
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (p > q * (a - x)) & (p < q * (b - x)))
            step = p / q
            u = x + step
        step = np.where((u - a < tol2) | (b - u < tol2), np.where(x < m, tol, -tol), step)
        golden = np.where(x >= m, a - x, b - x)
        d, e = np.where(parabolic, step, _GOLD * golden), np.where(parabolic, d, golden)
        u = np.where(np.abs(d) >= tol, x + d, np.where(d > 0.0, x + tol, x - tol))
        fu = f(u, rows)
        better = fu <= fx
        # u better: the bracket's side beyond x goes; u worse: the side beyond u
        cut_b = better == (u < x)
        edge = np.where(better, x, u)
        a, b = np.where(cut_b, a, edge), np.where(cut_b, edge, b)
        shift_w = better | (fu <= fw) | (w == x)
        new_v = ~shift_w & ((fu <= fv) | (v == x) | (v == w))
        v = np.where(shift_w, w, np.where(new_v, u, v))
        fv = np.where(shift_w, fw, np.where(new_v, fu, fv))
        w = np.where(better, x, np.where(shift_w, u, w))
        fw = np.where(better, fx, np.where(shift_w, fu, fw))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    x_out[rows], f_out[rows] = x, fx
    return x_out, f_out


def negative_log_likelihood(counts: np.ndarray, probs) -> np.ndarray:
    """-sum_k n_bk log p_bk for each row b of (B, M) counts and probabilities.

    Probabilities are cut at 1e-300 below. Each row is one BLAS dot product,
    all taken by one stacked ``(B, 1, M) @ (B, M, 1)`` matmul, so a row equals
    its own ``np.dot`` bit for bit.
    """
    logp = np.log(np.clip(np.asarray(probs, dtype=float), 1e-300, None))
    return -(counts[:, None, :] @ logp[:, :, None])[:, 0, 0]


def max_likelihood_estimate(
    likelihood: Callable[[np.ndarray], np.ndarray],
    counts: np.ndarray,
    theta0: np.ndarray,
    radius: float = 0.05,
    domain: Optional[Box] = None,
) -> np.ndarray:
    """Local maximum-likelihood fits of a (B, M) counts stack, one per row.

    Four sweeps of Brent search (``_brent``) per coordinate, every row
    started at ``theta0``; returns the (B, p) estimates. Each search starts
    at the row's current coordinate with the bracket that coordinate +/-
    ``radius``, cut to the ``domain`` box when one is given, and evaluates
    only points strictly inside it, so it never leaves the open box. A row
    stops at Brent's rule, relative to its own bracket, and drops out of the
    stack the likelihood is called on. Each row's negative log-likelihood is
    its own dot product (see ``negative_log_likelihood``), so the fits equal
    one-batch fits bit for bit.
    """
    counts = np.asarray(counts, dtype=float)
    theta = np.tile(np.asarray(theta0, dtype=float), (len(counts), 1))
    fx = negative_log_likelihood(counts, likelihood(theta))
    for _ in range(4):
        for i in range(theta.shape[1]):

            def f1(x, rows, i=i):
                t = theta[rows]
                t[:, i] = x
                return negative_log_likelihood(counts[rows], likelihood(t))

            lo, hi = theta[:, i] - radius, theta[:, i] + radius
            if domain is not None:
                lo, hi = np.maximum(lo, domain.lo[i]), np.minimum(hi, domain.hi[i])
            theta[:, i], fx = _brent(f1, theta[:, i], fx, lo, hi)
    return theta


def estimator_study(
    prob_fn: Callable[[np.ndarray], np.ndarray],
    dist: MeasurementDistribution,
    theta0: np.ndarray,
    batches: int,
    batch_size: int,
    seed: int,
    radius: float = 0.05,
    *,
    stacked: bool = False,
    domain: Optional[Box] = None,
) -> dict:
    """Covariance of batched maximum-likelihood estimates around theta0.

    All batches are fitted together (``max_likelihood_estimate``), and each
    likelihood call carries only the batches whose search is still running.
    ``prob_fn`` maps one (p,) point to its (M,) outcome probabilities, and
    is called point by point; with ``stacked=True`` it already maps a stack
    of points to its (rows, M) probabilities, which is how the CLI calls it
    (``state_at`` and ``probabilities`` on stacks). The per-point form
    remains for callers that time the likelihood call by call. ``domain``,
    the model's parameter box, cuts each search bracket (see
    ``max_likelihood_estimate``).

    Needs at least two batches: one estimate has no covariance. Each
    parameter's ``bound_ratio`` is N Var / [F_c^-1]_ll with N the batch size
    and F_c the classical information of ``dist``; since F_c^-1 >= F_Q^-1, a
    ratio below one also means beating the quantum bound. With B batches the
    ratio scatters like chi^2_{B-1}/(B-1), so ``below_bound`` flags only a
    ratio under that law's lower 1% point, ``bound_floor`` (Wilson-Hilferty).
    """
    if batches < 2:
        raise QcrbSatError(f"the estimator study needs at least 2 batches, got {batches}",
                           batches=batches)
    likelihood = prob_fn if stacked else (lambda ts: np.stack([prob_fn(t) for t in ts]))
    counts = np.stack([sample_outcomes(dist, batch_size, seed + b) for b in range(batches)])
    est = max_likelihood_estimate(likelihood, counts, theta0, radius=radius, domain=domain)
    cov = np.cov(est.T, bias=False).reshape(len(theta0), len(theta0))
    # Wilson-Hilferty with z = 2.326, the standard normal lower 1% point.
    a = 2.0 / (9.0 * (batches - 1))
    floor = (1.0 - a - 2.326 * np.sqrt(a)) ** 3
    f_c = classical_fim(dist)
    ratio = below = None
    notes = []
    if _singular(f_c):
        notes.append("classical information matrix is singular; bound ratio omitted")
    else:
        r = batch_size * np.diag(cov) / np.diag(np.linalg.inv(f_c))
        ratio, below = r.tolist(), (r < floor).tolist()
    return {
        "batches": batches,
        "batch_size": batch_size,
        "estimates": est.tolist(),
        "estimates_mean": est.mean(axis=0).tolist(),
        "covariance": cov.tolist(),
        "bound_ratio": ratio,
        "bound_floor": float(floor),
        "below_bound": below,
        "notes": notes,
    }
