import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qcrbsat import numkernel as nk

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
