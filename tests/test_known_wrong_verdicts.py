"""Known wrong verdicts, pinned as strict xfails.

Each test asserts what a sound certifier reads on one probe, through the
pipeline every command runs (`cli.run_analysis`). Today each fails, for the
reason its marker states (ROADMAP items 1, 2 and 17). A fix shows as an
XPASS, which strict mode counts as a failure, so the marker goes with the fix.
"""

import numpy as np
import pytest

import qcrbsat as qs
from qcrbsat import cli
from qcrbsat import conditions as cond
from qcrbsat import model as md

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
# the 3-site path adjacency, which generates the rotation of the dropped-term model
PATH = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)


def _verdict(sp, model=None, *options):
    """The verdict `analyze` reads at ``sp`` under the command-line ``options``."""
    args = cli.build_parser().parse_args(["analyze", *options])
    return cli.run_analysis(args, sp, model)[3].verdict


def _rotation(t):
    """exp(-i t PATH) at a point or a stack of points."""
    w, v = np.linalg.eigh(PATH)
    return (v * np.exp(-1j * np.asarray(t)[..., None, None] * w)) @ v.conj().T


def _dropped_rotation_model():
    """rho(theta) = U(theta_1) diag(0.5 + theta_0, 0.3 - theta_0, 0.2) U(theta_1)^dag with
    U = exp(-i theta_1 PATH), whose ``derivative_fn`` drops the rotation term of d_1 rho,
    -i [PATH, rho], and so returns d_1 rho = 0."""
    def state(theta):
        d = np.zeros(theta.shape[:-1] + (3, 3), dtype=complex)
        d[..., 0, 0], d[..., 1, 1], d[..., 2, 2] = 0.5 + theta[..., 0], 0.3 - theta[..., 0], 0.2
        u = _rotation(theta[..., 1])
        return u @ d @ u.conj().swapaxes(-1, -2)

    def derivative(theta):
        u = _rotation(theta[..., 1])
        out = np.zeros(theta.shape[:-1] + (2, 3, 3), dtype=complex)
        out[..., 0, :, :] = u @ np.diag([1.0, -1.0, 0.0]) @ u.conj().swapaxes(-1, -2)
        return out

    return md.StateModel(name="dropped-rotation", dim=3, n_params=2, state_fn=state,
                         derivative_fn=derivative, domain=md.box([-0.1, -1.0], [0.1, 1.0]))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the qubit (I + 0.4 sx + 0.2 sy + 0.3 sz)/2 with d rho = A (sx/2, sy/2), "
    "A = [[1, 0], [1, 1e-8]], reads SATURABLE_CERTIFIED: the checks' residuals scale with eps "
    "= 1e-8 under theta -> A theta and fall below tol (NOT_SATURABLE at eps >= 1e-6)"))
def test_reparameterized_qubit_is_not_certified():
    rho = (np.eye(2) + 0.4 * SX + 0.2 * SY + 0.3 * SZ) / 2
    a = np.array([[1.0, 0.0], [1.0, 1e-8]])
    drho = np.einsum("lk,kij->lij", a, np.array([SX / 2, SY / 2]))
    sp = md.StateAtPoint(theta=None, rho=rho, drho=drho, scheme="analytic")
    assert _verdict(sp) != cond.VERDICT_SATURABLE


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the saturable qutrit (d=0.6, c1=1, c2=0.7) at theta = (0.5, 0.5) reads "
    "NOT_SATURABLE at --cond-tol 1e-16, below the rounding of its own checks: the "
    "condition-3 residual is 2.2e-16"))
def test_qutrit_at_a_tolerance_below_rounding_is_not_refuted():
    model = qs.get("qutrit-phase-mixture", d=0.6, c1=1.0, c2=0.7)
    sp = qs.evaluate(model, np.array([0.5, 0.5]))
    assert _verdict(sp, model, "--cond-tol", "1e-16") != cond.VERDICT_NOT


def test_the_dropped_rotation_is_refuted_from_the_state_map():
    # what the analytic scheme should agree with: the state map's differences refute the point
    model = _dropped_rotation_model()
    for scheme in ("central_fd", "richardson"):
        sp = qs.evaluate(model, np.array([0.0, 0.3]), scheme=scheme)
        assert _verdict(sp, model) == cond.VERDICT_NOT


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 17: a derivative_fn that drops the rotation term of d_1 rho (0 in place of "
    "-i[H, rho], 0.316 apart in Frobenius norm at theta = (0, 0.3)) reads SATURABLE_CERTIFIED; "
    "nothing checks it against the state map, whose central_fd and richardson read NOT_SATURABLE"))
def test_a_wrong_analytic_derivative_is_not_certified():
    model = _dropped_rotation_model()
    sp = qs.evaluate(model, np.array([0.0, 0.3]), scheme="analytic")
    assert _verdict(sp, model) != cond.VERDICT_SATURABLE
