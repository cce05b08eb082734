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
        spec = nk.joint_eigenprojectors(family)
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
        s1 = nk.joint_eigenprojectors(fam)
        s2 = nk.joint_eigenprojectors(fam[::-1])
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
        s1 = nk.joint_eigenprojectors(fam)
        s2 = nk.joint_eigenprojectors(fam)
        assert np.array_equal(s1.labels, s2.labels)
        for p1, p2 in zip(s1.projectors, s2.projectors):
            assert np.array_equal(p1, p2)

    def test_family_of_empty_matrices(self):
        with pytest.raises(nk.ShapeError, match="0 x 0"):
            nk.joint_eigenprojectors([np.zeros((0, 0))])

    def test_zero_family_single_projector(self):
        spec = nk.joint_eigenprojectors([np.zeros((3, 3))])
        assert spec.chi == 1
        assert nk.fro(spec.projectors[0] - np.eye(3)) <= 1e-12

    def test_rank_sum_equals_dimension(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        fam = [q @ np.diag(rng.integers(0, 3, 6).astype(float)) @ q.conj().T for _ in range(3)]
        spec = nk.joint_eigenprojectors(fam)
        assert sum(spec.block_dims) == 6

    def test_one_spectral_norm_per_member(self, monkeypatch):
        calls = []
        opnorm = nk.opnorm

        def record(a):
            calls.append((np.array(a), opnorm(a)))
            return calls[-1][1]

        monkeypatch.setattr(nk, "opnorm", record)
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        lab = np.array([[1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.5, 1.5, 1.5], [0.0] * 5])
        family = [q @ np.diag(l) @ q.conj().T for l in lab]
        spec = nk.joint_eigenprojectors(family)
        monkeypatch.undo()
        assert spec.chi == 4
        [(stack, norms)] = calls  # one stacked call for the whole family
        assert stack.shape == (3, 5, 5)
        for a, member, norm in zip(family, stack, norms):
            assert _bits(member) == _bits(nk.hermitize(a))
            assert _bits(norm) == _bits(np.float64(nk.opnorm(member)))


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


class TestFroStack:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_fro_of_each_matrix_bit_for_bit(self, data):
        dtype = np.dtype(data.draw(st.sampled_from([np.complex128, np.float64])))
        a = data.draw(arrays(dtype, array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=6),
                             elements=from_dtype(dtype, allow_nan=False)))
        layout = data.draw(st.sampled_from(["C", "F", "step", "transposed"]))
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "step":
            a = a[..., ::2, :]
        elif layout == "transposed":
            a = a.swapaxes(-1, -2)
        with np.errstate(over="ignore"):  # huge entries: both sides overflow to inf alike
            got = nk.fro_stack(a)
            assert got.shape == a.shape[:-2]
            for index in np.ndindex(*a.shape[:-2]):
                assert got[index] == nk.fro(np.ascontiguousarray(a[index]))

    def test_long_rows_bit_for_bit(self):
        # rows long enough for the BLAS dot to block its sums
        rng = np.random.default_rng(5)
        for shape in ((2, 64, 64), (3, 17, 33), (1, 128, 96)):
            a = rng.standard_normal(shape) * 1e3 + 1j * rng.standard_normal(shape)
            for x in (a, a.swapaxes(-1, -2), a.real.copy()):
                got = nk.fro_stack(x)
                assert [float(g) for g in got] == [nk.fro(np.ascontiguousarray(m)) for m in x]


class TestNormStack:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_numpy_norm_bit_for_bit(self, data):
        dtype = np.dtype(data.draw(st.sampled_from([np.complex128, np.float64])))
        a = data.draw(arrays(dtype, array_shapes(min_dims=2, max_dims=4, min_side=0, max_side=6),
                             elements=from_dtype(dtype, allow_nan=False)))
        axis = data.draw(st.sampled_from([(-2, -1), -1, 1]))
        # huge entries: both sides overflow to inf (and inf * 0 to nan) alike
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(nk.norm_stack(a, axis=axis)) == _bits(np.linalg.norm(a, axis=axis))

    def test_identity_is_shared_and_read_only(self):
        eye = nk.identity(3)
        assert eye is nk.identity(3) and _bits(eye) == _bits(np.eye(3))
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_mixing_weights_are_shared_read_only_seed_zero_draws(self, count):
        weights = nk.mixing_weights(count)
        assert weights is nk.mixing_weights(count)
        assert _bits(weights) == _bits(np.random.default_rng(0).standard_normal(count))
        with pytest.raises(ValueError):
            weights[0] = 2.0


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_matches_loop(family, tol=1e-8):
    """Projectors, labels, basis and block sizes, bit for bit."""
    new = nk.joint_eigenprojectors(family, tol)
    old = joint_eigenprojectors_loop(family, tol)
    assert [_bits(p) for p in new.projectors] == [_bits(p) for p in old.projectors]
    assert _bits(new.labels) == _bits(old.labels)
    assert _bits(new.basis) == _bits(old.basis)
    assert new.block_dims == old.block_dims
    return new


def _same_error(exc_type, family, tol=1e-8):
    with pytest.raises(exc_type) as new:
        nk.joint_eigenprojectors(family, tol)
    with pytest.raises(exc_type) as old:
        joint_eigenprojectors_loop(family, tol)
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
        assert _assert_matches_loop(family).block_dims == (1,) * len(family[0])

    @pytest.mark.parametrize("family", [
        [np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])],
        [np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 2.0, 3.0])],
        _rotated([[1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.5, 1.5, 1.5]], seed=3),
        _rotated([[1.0, 2.0, 2.0, 3.0, 3.0, 3.0], [0.0, 0.0, 1.0, 1.0, 1.0, 2.0],
                  [4.0, 4.0, 4.0, 4.0, 4.0, 4.0]], seed=4),
    ], ids=["diag", "diag-pair", "rotated-pair", "rotated-triple"])
    def test_mixed_degenerate_clusters(self, family):
        spec = _assert_matches_loop(family)
        assert 1 in spec.block_dims and max(spec.block_dims) > 1

    def test_clusters_the_mixture_splits_merge_on_equal_labels(self):
        # the large labels cancel in the fixed mixture, which so splits the last two
        # directions by L tol c_0 ~ 1.3e-6 > tol; every member's labels there agree within
        # tol times its scale, so the two clusters merge into one block
        c = nk.mixing_weights(2)
        k, big, tol = -c[0] / c[1], 1e3, 1e-8
        family = [np.diag([0.0, big, big * (1 + tol / 2)]),
                  np.diag([0.0, k * big, k * big * (1 - tol / 2)])]
        w = np.linalg.eigvalsh(c[0] * family[0] + c[1] * family[1])
        assert w[2] - w[1] > tol
        assert _assert_matches_loop(family, tol).block_dims == (1, 2)

    @pytest.mark.parametrize("name, params, theta, n_w", [
        ("qutrit-phase-mixture", dict(d=0.6, c1=1.0, c2=0.7), [0.3, 0.5], 1),
        ("qutrit-phase-mixture", dict(d=0.6, c1=1.0, c2=0.7), [0.8, 0.1], 1),
        ("random-rank-r", dict(seed=3, n_s=8, r_plus=4, n_params=3), [0.0] * 3, 4),
        ("random-rank-r", dict(seed=3, n_s=32, r_plus=16, n_params=3), [0.0] * 3, 16),
        ("random-rank-r", dict(seed=3, n_s=64, r_plus=32, n_params=4), [0.0] * 4, 32),
    ])
    def test_w_search_and_plus_plus_families(self, monkeypatch, name, params, theta, n_w):
        calls = []
        loop = nk.joint_eigenprojectors

        def record(family, tol=1e-8):
            calls.append(([np.array(a) for a in family], tol))
            return loop(family, tol)

        monkeypatch.setattr(nk, "joint_eigenprojectors", record)
        sp = qs.evaluate(qs.get(name, **params), theta)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        assert rep.verdict == cond.VERDICT_SATURABLE
        pv.construct_optimal(dec, slds, W=rep.cond4.W, lambdas=rep.cond4.lambdas)
        monkeypatch.undo()
        # the W search's pinv family (none at r0 = 1, whose joint eigenbasis is [[1]]), then
        # the ++ blocks of the construction
        w_search = [(n_w, n_w)] if n_w > 1 else []
        assert [c[0][0].shape for c in calls] == w_search + [(dec.r_plus, dec.r_plus)]
        for family, tol in calls:
            _assert_matches_loop(family, tol)

    def test_same_refusals(self):
        _same_error(nk.NotCommutingError, [X, Z])
        _same_error(nk.NotCommutingError, _rotated([[1.0, 2.0, 3.0]], seed=7) + [np.kron(X, X)[:3, :3]])
        # eigenvalues closer than tol never split, yet spread far beyond it
        chain = [np.diag(0.9e-3 * np.arange(40))]
        _same_error(nk.JointDiagonalizationError, chain, tol=1e-3)
        with pytest.raises(nk.JointDiagonalizationError) as exc:
            nk.joint_eigenprojectors(chain, 1e-3)
        assert exc.value.detail["cluster"] == 0

    def test_same_scalar_refusal_on_a_later_member_and_cluster(self):
        # member 1 spreads on the second block only, in steps below tol
        steps = 0.9e-3 * np.arange(20)
        family = [np.diag(np.repeat([0.0, 5.0], 20)), np.diag(np.concatenate([0 * steps, steps]))]
        _same_error(nk.JointDiagonalizationError, family, tol=1e-3)
        with pytest.raises(nk.JointDiagonalizationError) as exc:
            nk.joint_eigenprojectors(family, 1e-3)
        assert (exc.value.detail["member"], exc.value.detail["cluster"]) == (1, 1)

    def test_same_reconstruction_refusal(self):
        # I + 1e-5 (I x Z) passes the commutator check against 5e-5 (D x X)
        # under the max(1, .) floor, yet the mixture's eigenbasis is mostly the
        # second member's, so the first is scalar on each one-column cluster
        # but its labels do not rebuild it. Its residual against the projector
        # sum differs in the last bits from the one against Q diag(labels) Q^dag.
        u = nk.haar_unitary(6, np.random.default_rng(0))
        family = [u @ (np.eye(6) + 1e-5 * np.kron(np.eye(3), Z)) @ u.conj().T,
                  5e-5 * u @ np.kron(np.diag([1.0, 2.0, 3.0]), X) @ u.conj().T]
        _same_error(nk.JointDiagonalizationError, family)
        with pytest.raises(nk.JointDiagonalizationError, match="reconstruction") as exc:
            nk.joint_eigenprojectors(family)
        assert exc.value.detail["member"] == 0

    @pytest.mark.parametrize("family", [
        [np.array([[np.nan]])],
        [np.array([[1.0]]), np.eye(2)],
        [np.array([[1.0, 2.0]])],
        [np.array([[np.inf + 0j]]), np.array([[1.0]])],
    ])
    def test_one_by_one_still_checks_its_input(self, family):
        _same_error(nk.ShapeError, family)


@st.composite
def commuting_families(draw):
    """Commuting Hermitian families shaped like the ones the certifier diagonalizes.

    Members share a Haar-random eigenbasis and are constant on planted blocks
    of 1-3 columns, with labels from a short list so that blocks coincide and
    clusters merge. As in the W search's pinv family, a member may be the
    identity or zero up to rounding-size Hermitian noise.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6)
                 .filter(lambda s: sum(s) <= 12))
    n = sum(sizes)
    kinds = draw(st.lists(st.sampled_from(["labels", "labels", "identity", "zero"]),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = nk.haar_unitary(n, rng)
    family = []
    for kind in kinds:
        noise = 1e-15 * nk.hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if kind == "labels":
            values = draw(st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.0, 2.0]),
                                   min_size=len(sizes), max_size=len(sizes)))
            family.append(q @ np.diag(np.repeat(values, sizes)) @ q.conj().T)
        else:
            family.append((np.eye(n) if kind == "identity" else 0.0) + noise)
    return family


class TestJointEigenprojectorsProperty:
    @settings(max_examples=150, deadline=None)
    @given(family=commuting_families(), tol=st.sampled_from([1e-8, 1e-10]))
    def test_matches_loop(self, family, tol):
        spec = _assert_matches_loop(family, tol)
        assert sum(spec.block_dims) == len(family[0])


def test_empty_family_refused():
    with pytest.raises(nk.ShapeError, match="empty family"):
        nk.joint_eigenprojectors([])
