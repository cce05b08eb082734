import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

import qcrbsat as qs
from qcrbsat import conditions as cond
from qcrbsat import numkernel as nk
from qcrbsat import povm as pv
from oracles import joint_eigenprojectors_loop

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def hermitian_matrices(max_dim=6):
    def build(draw):
        n = draw(st.integers(2, max_dim))
        re = draw(arrays(float, (n, n), elements=st.floats(-1, 1)))
        im = draw(arrays(float, (n, n), elements=st.floats(-1, 1)))
        return nk.hermitize(re + 1j * im)

    return st.composite(build)()


class TestEigHermitian:
    def test_identity(self):
        res = nk.eig_hermitian(np.eye(3))
        assert np.allclose(res.eigenvalues, [1, 1, 1])
        q = res.eigenvectors
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)

    def test_pauli_x(self):
        res = nk.eig_hermitian(X)
        assert np.allclose(res.eigenvalues, [-1, 1])

    @settings(max_examples=60, deadline=None)
    @given(hermitian_matrices())
    def test_reconstruction(self, a):
        res = nk.eig_hermitian(a)
        rebuilt = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.conj().T
        assert nk.fro(a - rebuilt) <= 1e-12 * max(1.0, nk.fro(a))
        q = res.eigenvectors
        assert nk.fro(q.conj().T @ q - np.eye(a.shape[0])) <= 1e-12 * a.shape[0]

    def test_rejects_non_square(self):
        with pytest.raises(nk.ShapeError):
            nk.eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(nk.NonHermitianError):
            nk.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_symmetrizes_small_defects(self):
        a = nk.hermitize(np.random.default_rng(1).standard_normal((4, 4)))
        res = nk.eig_hermitian(a + 1e-10 * np.array([[0, 1], [0, 0]]).repeat(2, 0).repeat(2, 1))
        assert np.all(np.imag(res.eigenvalues) == 0)


class TestCommutatorResidual:
    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert nk.commutator_residual(np.eye(4), a) == 0.0

    def test_diagonal_matrices_commute(self):
        assert nk.commutator_residual(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_pauli_pair(self):
        assert nk.commutator_residual(X, Z) == pytest.approx(2 * np.sqrt(2), abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(nk.ShapeError):
            nk.commutator_residual(np.eye(2), np.eye(3))


class TestJointEigenprojectors:
    def test_single_diagonal(self):
        spec = nk.joint_eigenprojectors([np.diag([1.0, 1.0, 2.0])])
        assert spec.chi == 2
        assert sorted(tuple(l) for l in spec.labels) == [(1.0,), (2.0,)]
        for proj in spec.projectors:
            assert nk.fro(proj @ proj - proj) <= 1e-10

    def test_pair_splits_degeneracy(self):
        spec = nk.joint_eigenprojectors([np.diag([1.0, 1.0]), np.diag([2.0, 3.0])])
        assert spec.chi == 2
        assert [tuple(np.round(l, 12)) for l in spec.labels] == [(1.0, 2.0), (1.0, 3.0)]
        for proj in spec.projectors:
            assert np.linalg.matrix_rank(proj) == 1

    def test_refuses_non_commuting(self):
        with pytest.raises(nk.NotCommutingError) as exc:
            nk.joint_eigenprojectors([X, Z])
        assert exc.value.detail["residual"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_partition_of_identity_and_reconstruction(self):
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        lab = np.array([[1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.5, 1.5, 1.5]])
        family = [q @ np.diag(lab[i]) @ q.conj().T for i in range(2)]
        spec = nk.joint_eigenprojectors(family, rng=np.random.default_rng(11))
        assert spec.chi == 4  # joint tuples (1,.5), (2,.5), (2,1.5), (3,1.5)
        total = sum(spec.projectors)
        assert nk.fro(total - np.eye(5)) <= 1e-10
        for i, a in enumerate(family):
            rebuilt = sum(spec.labels[k, i] * spec.projectors[k] for k in range(spec.chi))
            assert nk.fro(a - rebuilt) <= 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        fam = [
            q @ np.diag([1.0, 2.0, 2.0, 3.0]) @ q.conj().T,
            q @ np.diag([5.0, 5.0, 6.0, 6.0]) @ q.conj().T,
        ]
        s1 = nk.joint_eigenprojectors(fam, rng=np.random.default_rng(0))
        s2 = nk.joint_eigenprojectors(fam[::-1], rng=np.random.default_rng(0))
        assert s1.chi == s2.chi
        # match blocks through their label tuples (order of members swaps)
        for k in range(s1.chi):
            lab = (s1.labels[k, 1], s1.labels[k, 0])
            j = next(
                i for i in range(s2.chi) if np.allclose(s2.labels[i], lab, atol=1e-9)
            )
            assert nk.fro(s1.projectors[k] - s2.projectors[j]) <= 1e-9

    def test_near_degenerate_merging(self):
        a = np.diag([1.0, 1.0 + 1e-12, 5.0])
        spec = nk.joint_eigenprojectors([a], tol=1e-8)
        assert spec.chi == 2
        for proj in spec.projectors:
            assert nk.fro(proj @ proj - proj) <= 1e-10

    def test_seeded_mixture_reproducible(self):
        fam = [np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 2.0])]
        s1 = nk.joint_eigenprojectors(fam, rng=np.random.default_rng(42))
        s2 = nk.joint_eigenprojectors(fam, rng=np.random.default_rng(42))
        assert np.array_equal(s1.labels, s2.labels)
        for p1, p2 in zip(s1.projectors, s2.projectors):
            assert np.array_equal(p1, p2)

    def test_zero_family_single_projector(self):
        spec = nk.joint_eigenprojectors([np.zeros((3, 3))])
        assert spec.chi == 1
        assert nk.fro(spec.projectors[0] - np.eye(3)) <= 1e-12

    def test_rank_sum_equals_dimension(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        fam = [q @ np.diag(rng.integers(0, 3, 6).astype(float)) @ q.conj().T for _ in range(3)]
        spec = nk.joint_eigenprojectors(fam, rng=rng)
        assert sum(spec.block_dims) == 6

    def test_one_spectral_norm_per_member(self, monkeypatch):
        calls = []
        opnorm = nk.opnorm
        monkeypatch.setattr(nk, "opnorm", lambda a: calls.append(1) or opnorm(a))
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        lab = np.array([[1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.5, 1.5, 1.5]])
        spec = nk.joint_eigenprojectors([q @ np.diag(l) @ q.conj().T for l in lab])
        assert spec.chi == 4
        assert len(calls) == 2


class TestFro:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_norm_bit_for_bit(self, data):
        dtype = np.dtype(data.draw(st.sampled_from(
            [np.complex128, np.float64, np.complex64, np.float32])))
        a = data.draw(arrays(dtype, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                             elements=from_dtype(dtype, allow_nan=False)))
        layout = data.draw(st.sampled_from(["C", "F", "step", "reversed", "transposed"]))
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "step" and a.ndim:
            a = a[::2]
        elif layout == "reversed" and a.ndim:
            a = a[..., ::-1]
        elif layout == "transposed":
            a = a.T
        with np.errstate(over="ignore"):  # huge entries: both sides overflow to inf alike
            assert nk.fro(a) == float(np.linalg.norm(a))

    def test_empty_and_stacked(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        for a in (np.zeros((0, 0), dtype=complex), np.zeros(0), stack, stack[:, ::2, 1:],
                  np.asfortranarray(stack), stack.real.copy()):
            assert nk.fro(a) == float(np.linalg.norm(a))


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_matches_loop(family, tol=1e-8, rng=None):
    """Projectors, labels, basis, block sizes and the generator's next draw, bit for bit."""
    rng = rng if rng is not None else np.random.default_rng(0)
    rng_new, rng_old = copy.deepcopy(rng), copy.deepcopy(rng)
    new = nk.joint_eigenprojectors(family, tol, rng=rng_new)
    old = joint_eigenprojectors_loop(family, tol, rng=rng_old)
    assert [_bits(p) for p in new.projectors] == [_bits(p) for p in old.projectors]
    assert _bits(new.labels) == _bits(old.labels)
    assert _bits(new.basis) == _bits(old.basis)
    assert new.block_dims == old.block_dims
    assert _bits(rng_new.standard_normal(3)) == _bits(rng_old.standard_normal(3))
    return new


def _same_error(exc_type, family, tol=1e-8):
    with pytest.raises(exc_type) as new:
        nk.joint_eigenprojectors(family, tol, rng=np.random.default_rng(0))
    with pytest.raises(exc_type) as old:
        joint_eigenprojectors_loop(family, tol, rng=np.random.default_rng(0))
    assert str(new.value) == str(old.value)
    assert new.value.to_dict() == old.value.to_dict()


def _rotated(labels, seed):
    """Hermitian family ``Q diag(labels[i]) Q^dag`` in a seeded random unitary basis."""
    labels = np.asarray(labels, dtype=float)
    q = nk.haar_unitary(labels.shape[1], np.random.default_rng(seed))
    return [q @ np.diag(row) @ q.conj().T for row in labels]


class TestJointEigenprojectorsMatchLoop:
    """The small-family shortcuts return what the per-cluster `eigh` loop returned."""

    @pytest.mark.parametrize("values", [
        [2.5], [0.0, -0.0], [1.0, -2.0, 0.0, 3.5],
        [complex(-0.0, 3.0), complex(0.0, -3.0), complex(-1.0, -0.0), -0.0],
    ])
    def test_one_by_one(self, values):
        spec = _assert_matches_loop([np.array([[v]], dtype=complex) for v in values])
        assert spec.chi == 1 and spec.block_dims == (1,)

    @pytest.mark.parametrize("family", [
        [np.diag([1.0, 2.0, 3.0, 4.0])],
        [np.diag([0.5, -1.0, 2.0]), np.diag([3.0, 1.0, 1.0])],
        _rotated([[1.0, 2.0, 3.0, 4.0, 5.0]], seed=1),
        _rotated([[1.0, 1.0, 2.0, 2.0], [3.0, 4.0, 3.0, 4.0]], seed=2),
    ], ids=["diag", "diag-pair", "rotated", "rotated-pair"])
    def test_all_singleton_clusters(self, family):
        assert _assert_matches_loop(family, rng=np.random.default_rng(5)).block_dims == (1,) * len(family[0])

    @pytest.mark.parametrize("family", [
        [np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])],
        [np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 2.0, 3.0])],
        _rotated([[1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.5, 1.5, 1.5]], seed=3),
        _rotated([[1.0, 2.0, 2.0, 3.0, 3.0, 3.0], [0.0, 0.0, 1.0, 1.0, 1.0, 2.0],
                  [4.0, 4.0, 4.0, 4.0, 4.0, 4.0]], seed=4),
    ], ids=["diag", "diag-pair", "rotated-pair", "rotated-triple"])
    def test_mixed_degenerate_clusters(self, family):
        spec = _assert_matches_loop(family, rng=np.random.default_rng(6))
        assert 1 in spec.block_dims and max(spec.block_dims) > 1

    @pytest.mark.parametrize("name, params, theta, n_w", [
        ("qutrit-phase-mixture", dict(d=0.6, c1=1.0, c2=0.7), [0.3, 0.5], 1),
        ("qutrit-phase-mixture", dict(d=0.6, c1=1.0, c2=0.7), [0.8, 0.1], 1),
        ("random-rank-r", dict(seed=3, n_s=8, r_plus=4, n_params=3), [0.0] * 3, 4),
        ("random-rank-r", dict(seed=3, n_s=32, r_plus=16, n_params=3), [0.0] * 3, 16),
    ])
    def test_w_search_and_plus_plus_families(self, monkeypatch, name, params, theta, n_w):
        calls = []
        loop = nk.joint_eigenprojectors

        def record(family, tol=1e-8, *, rng=None):
            calls.append(([np.array(a) for a in family], tol, copy.deepcopy(rng)))
            return loop(family, tol, rng=rng)

        monkeypatch.setattr(nk, "joint_eigenprojectors", record)
        sp = qs.evaluate(qs.get(name, **params), theta)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds, rng=np.random.default_rng(0))
        assert rep.verdict == cond.VERDICT_SATURABLE
        pv.construct_optimal(dec, slds, W=rep.cond4.W, lambdas=rep.cond4.lambdas,
                             rng=np.random.default_rng(0))
        monkeypatch.undo()
        # the W search's pinv family, then the ++ blocks of the construction
        assert [c[0][0].shape for c in calls] == [(n_w, n_w), (dec.r_plus, dec.r_plus)]
        for family, tol, rng in calls:
            _assert_matches_loop(family, tol, rng)

    def test_same_refusals(self):
        _same_error(nk.NotCommutingError, [X, Z])
        _same_error(nk.NotCommutingError, _rotated([[1.0, 2.0, 3.0]], seed=7) + [np.kron(X, X)[:3, :3]])
        # eigenvalues closer than tol never split, yet spread far beyond it
        chain = [np.diag(0.9e-3 * np.arange(40))]
        _same_error(nk.JointDiagonalizationError, chain, tol=1e-3)
        with pytest.raises(nk.JointDiagonalizationError) as exc:
            nk.joint_eigenprojectors(chain, 1e-3)
        assert exc.value.detail["cluster"] == 0

    @pytest.mark.parametrize("family", [
        [np.array([[np.nan]])],
        [np.array([[1.0]]), np.eye(2)],
        [np.array([[1.0, 2.0]])],
        [np.array([[np.inf + 0j]]), np.array([[1.0]])],
    ])
    def test_one_by_one_still_checks_its_input(self, family):
        _same_error(nk.ShapeError, family)
