import json

import numpy as np
import pytest

import qcrbsat as qs
from qcrbsat import cli
from qcrbsat import fisher as fi
from qcrbsat import numkernel as nk
from qcrbsat import povm as pv
from qcrbsat.jsonio import SchemaError


def optimal_for(sp, dec, slds):
    rep = qs.evaluate_conditions(sp, dec, slds)
    assert rep.verdict == "SATURABLE_CERTIFIED"
    return pv.construct_optimal(dec, slds, W=rep.cond4.W)


class TestValidate:
    def test_identity_povm(self):
        p = pv.POVM(elements=[np.eye(2)])
        diag = pv.validate(p)
        assert diag["valid"] and diag["projective"]

    def test_basis_projectors(self):
        p = pv.POVM(elements=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        diag = pv.validate(p)
        assert diag["valid"] and diag["projective"]

    def test_completeness_failure(self):
        p = pv.POVM(elements=[0.6 * np.eye(2), 0.6 * np.eye(2)])
        diag = pv.validate(p)
        assert not diag["complete"]
        with pytest.raises(pv.InvalidPOVMError):
            pv.require_valid(p)

    def test_non_hermitian_elements_are_invalid(self):
        # complete, with a positive semidefinite Hermitian part, and ||E_k - E_k^dag|| = 0.85
        skew = 0.3j * np.array([[0.0, 1.0], [1.0, 0.0]])
        p = pv.POVM(elements=[np.diag([1.0, 0.0]) + skew, np.diag([0.0, 1.0]) - skew])
        diag = pv.validate(p)
        assert diag["complete"] and diag["psd_ok"]
        assert diag["hermitian"] == [False, False] and not diag["valid"]
        with pytest.raises(pv.InvalidPOVMError, match="element 0 is not Hermitian") as err:
            pv.require_valid(p)
        assert err.value.detail == {"element": 0, "herm_defect": diag["herm_defects"][0]}
        assert diag["herm_defects"][0] == pytest.approx(0.6 * np.sqrt(2))

    def test_non_projective_but_valid(self):
        p = pv.POVM(elements=[0.5 * np.eye(2), 0.5 * np.eye(2)])
        diag = pv.validate(p)
        assert diag["valid"] and not diag["projective"]


def pairwise_projectivity(povm):
    """The per-pair commutator residual that validate's Gram bound replaces."""
    res = max(nk.fro(e @ e - e) for e in povm.elements)
    for i, e in enumerate(povm.elements):
        for f in povm.elements[i + 1:]:
            res = max(res, nk.fro(e @ f - f @ e))
    return res


def projectivity_cases(qutrit_point, qutrit_dec, qutrit_slds, multinomial_model):
    rng = np.random.default_rng(11)
    cases = [
        pv.POVM(elements=[np.eye(2)]),
        pv.POVM(elements=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
        pv.POVM(elements=[0.6 * np.eye(2), 0.6 * np.eye(2)]),
        pv.POVM(elements=[0.5 * np.eye(2), 0.5 * np.eye(2)]),
        pv.POVM(elements=[np.diag(r).astype(complex) for r in np.eye(3)]),
        pv.random_projective_povm(3, rng),
        pv.random_projective_povm(8, rng),
        pv.random_povm(3, 4, rng),
        optimal_for(qutrit_point, qutrit_dec, qutrit_slds),
    ]
    sp = qs.evaluate(multinomial_model, multinomial_model.domain.lo + 0.1)
    dec = qs.support_decomposition(sp)
    cases.append(optimal_for(sp, dec, qs.compute_sld(dec, sp.drho)))
    m = qs.get("random-rank-r", seed=2, n_s=8, r_plus=4, n_params=3)
    sp = qs.evaluate(m, [0.0, 0.0, 0.0])
    dec = qs.support_decomposition(sp)
    cases.append(optimal_for(sp, dec, qs.compute_sld(dec, sp.drho)))
    # Perturbed projective measurements, Hermitian and not, far on either side of tol.
    base = pv.random_projective_povm(5, rng)
    for eps in (1e-14, 1e-6):
        for hermitian in (True, False):
            noisy = []
            for e in base.elements:
                z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                noisy.append(e + eps * (nk.hermitize(z) if hermitian else z))
            cases.append(pv.POVM(elements=noisy))
    return cases


class TestProjectivity:
    def test_overlapping_idempotents_are_not_projective(self):
        plus = np.full((2, 2), 0.5)
        for elements in ([np.diag([1.0, 0.0]), plus],
                         [np.diag([1.0, 0.0, 0.0]), np.pad(plus, (0, 1)), np.diag([0.0, 0.0, 1.0])]):
            p = pv.POVM(elements=elements)
            before = dict(vars(p))
            diag = pv.validate(p)
            assert not diag["projective"]
            assert vars(p).keys() == before.keys()  # validation leaves its argument as it is
            assert all(vars(p)[k] is v for k, v in before.items())
            assert diag["projectivity_residual"] >= pairwise_projectivity(p) > 0.1

    def test_decision_matches_pairwise_and_bound_is_never_looser(
        self, qutrit_point, qutrit_dec, qutrit_slds, multinomial_model
    ):
        for p in projectivity_cases(qutrit_point, qutrit_dec, qutrit_slds, multinomial_model):
            diag = pv.validate(p)
            ref = pairwise_projectivity(p)
            assert diag["projective"] == (ref <= 1e-10 * max(1.0, p.dim))
            assert diag["projectivity_residual"] >= ref - 1e-15

    def test_construct_refuses_non_projective(self):
        m = qs.get("random-rank-r", seed=1, n_s=6, r_plus=3, n_params=2)
        sp = qs.evaluate(m, [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        w = qs.evaluate_conditions(sp, dec, slds).cond4.W
        skewed = w @ np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(pv.InvalidPOVMError) as err:
            pv.construct_optimal(dec, slds, W=skewed / np.linalg.norm(skewed, axis=0))
        assert err.value.detail["diagnostics"]["projective"] is False


class TestClassify:
    def test_qutrit_optimal_classification(self, qutrit_point, qutrit_dec, qutrit_slds):
        povm = optimal_for(qutrit_point, qutrit_dec, qutrit_slds)
        labels = pv.classify_elements(povm, qutrit_point.rho, qutrit_dec)
        assert sorted(labels) == ["null", "regular", "regular"]

    def test_full_rank_all_regular(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.3])
        dec = qs.support_decomposition(sp)
        p = pv.POVM(elements=[np.diag(row).astype(complex) for row in np.eye(3)])
        assert pv.classify_elements(p, sp.rho, dec) == ["regular"] * 3

    def test_null_projector(self, qutrit_point, qutrit_dec):
        y = qutrit_dec.Y
        p = pv.POVM(elements=[y @ y.conj().T, np.eye(3) - y @ y.conj().T])
        labels = pv.classify_elements(p, qutrit_point.rho, qutrit_dec)
        assert labels == ["null", "regular"]

    def test_structure_violation(self, qutrit_point, qutrit_dec):
        # zero probability but a nonzero +0 block: impossible for a PSD element
        x = qutrit_dec.V[:, 0]
        y = qutrit_dec.Y[:, 0]
        bad = np.outer(x, y.conj()) + np.outer(y, x.conj())
        p = pv.POVM(elements=[bad, np.eye(3) - bad])
        with pytest.raises(pv.StructureViolationError):
            pv.classify_elements(p, qutrit_point.rho, qutrit_dec)


class TestConstructOptimal:
    def test_qutrit_elements(self, qutrit_point, qutrit_dec, qutrit_slds):
        povm = optimal_for(qutrit_point, qutrit_dec, qutrit_slds)
        assert povm.n_outcomes == 3
        assert povm.classification.count("regular") == 2
        assert povm.classification.count("null") == 1
        assert pv.validate(povm)["projective"]
        # regular elements are the support eigenprojectors, null is P0
        v, y = qutrit_dec.V, qutrit_dec.Y
        expected = [np.outer(v[:, k], v[:, k].conj()) for k in range(2)]
        expected.append(y @ y.conj().T)
        for e in povm.elements:
            assert min(nk.fro(e - x) for x in expected) <= 1e-10

    def test_multinomial_basis_projectors(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.2, 0.5])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        povm = optimal_for(sp, dec, slds)
        assert povm.n_outcomes == 3
        basis = [np.diag(row).astype(complex) for row in np.eye(3)]
        for e in povm.elements:
            assert min(nk.fro(e - b) for b in basis) <= 1e-10

    def test_zero_pp_blocks_single_regular(self):
        m = qs.get("stationary-basis")
        sp = qs.evaluate(m, [0.4, 0.25])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        assert max(nk.fro(L) for L in slds.Lpp) <= 1e-10
        povm = optimal_for(sp, dec, slds)
        assert povm.classification.count("regular") == 1
        assert nk.fro(povm.elements[0] - dec.P_plus) <= 1e-10
        assert povm.classification.count("null") == 2

    def test_elements_are_made_from_the_basis(self, qutrit_point, qutrit_dec, qutrit_slds):
        m = qs.get("random-rank-r", seed=4, n_s=8, r_plus=4, n_params=3)
        sp = qs.evaluate(m, np.zeros(3))
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        for povm in (optimal_for(qutrit_point, qutrit_dec, qutrit_slds), optimal_for(sp, dec, slds)):
            n = povm.dim
            assert nk.fro(povm.basis.conj().T @ povm.basis - np.eye(n)) <= 1e-10
            assert sum(povm.ranks) == n and len(povm.ranks) == povm.n_outcomes
            rebuilt = pv.elements_from_basis(povm.basis, povm.ranks)
            assert all(np.array_equal(a, b) for a, b in zip(povm.elements, rebuilt))

    def test_missing_w_refused(self, qutrit_dec, qutrit_slds):
        with pytest.raises(pv.MissingAlignmentError):
            pv.construct_optimal(qutrit_dec, qutrit_slds, W=None)

    def test_noncommuting_pp_refused(self, pure_qubit_model):
        # rank-1 support never triggers this; craft 2x2 ++ blocks that clash
        m = qs.get("random-rank-r", seed=5, n_s=4, r_plus=2, plant_cond1=False)
        sp = qs.evaluate(m, [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        with pytest.raises(nk.NotCommutingError):
            pv.construct_optimal(dec, slds, W=np.eye(2))


class TestElementsOnDemand:
    """A basis measurement makes its dense elements on first read, and only then."""

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        build = pv.elements_from_basis
        monkeypatch.setattr(pv, "elements_from_basis",
                            lambda basis, ranks: builds.append(1) or build(basis, ranks))
        return builds

    def test_fisher_never_builds_them(self, monkeypatch, capsys):
        builds = self._count_builds(monkeypatch)
        code = cli.main(["fisher", "--model", "random-rank-r",
                         "--params", "seed=3,n_s=32,r_plus=16,n_params=3", "--theta", "0,0,0"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0 and rep["verdict"] == "SATURABLE_CERTIFIED"
        assert rep["saturation_certificate"]["passed"] and rep["fisher"]["saturated"]
        assert len(rep["povm"]["ranks"]) == 32
        assert builds == []

    def test_first_read_builds_them_once(self, monkeypatch, qutrit_point, qutrit_dec,
                                         qutrit_slds):
        povm = optimal_for(qutrit_point, qutrit_dec, qutrit_slds)
        builds = self._count_builds(monkeypatch)
        assert (povm.dim, povm.n_outcomes) == (3, 3)
        assert builds == []
        first = povm.elements
        assert builds == [1] and povm.elements is first
        expected = pv.elements_from_basis(povm.basis, povm.ranks)
        assert [(e.dtype, e.shape, e.tobytes()) for e in first] == \
            [(e.dtype, e.shape, e.tobytes()) for e in expected]

    def test_basis_file_reads_without_them(self, monkeypatch, qutrit_point, qutrit_dec,
                                           qutrit_slds):
        data = pv.povm_to_json(optimal_for(qutrit_point, qutrit_dec, qutrit_slds))
        builds = self._count_builds(monkeypatch)
        povm = pv.povm_from_json(json.loads(json.dumps(data)))
        assert pv.require_valid(povm)["valid"] and povm.dim == 3
        assert "elements" not in pv.povm_to_json(povm)
        assert builds == []


class TestStructuralCertificate:
    def test_constructed_povm_certifies(self, qutrit_point, qutrit_dec, qutrit_slds):
        rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds)
        povm = pv.construct_optimal(qutrit_dec, qutrit_slds, W=rep.cond4.W)
        cert = pv.verify_saturation_structural(povm, qutrit_dec, qutrit_slds)
        assert cert.passed
        # regular constants equal the joint eigenvalue labels
        labels = povm.meta["regular_labels"]
        for rec in cert.records:
            if rec.kind == "regular":
                k = rec.index
                for l, c in rec.constants.items():
                    assert c == pytest.approx(labels[k, l], abs=1e-9)
            else:
                # null constants equal the condition-4 ratios
                for (l, m), c in rec.constants.items():
                    assert c == pytest.approx(
                        rep.cond4.lambdas[l, m, rec.index - 2], abs=1e-9
                    )

    def test_basis_measurement_fails_on_unsaturable_state(self, pure_qubit_model):
        sp = qs.evaluate(pure_qubit_model, [0.8, 0.5])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        povm = pv.POVM(elements=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        cert = pv.verify_saturation_structural(povm, dec, slds)
        assert not cert.passed

    def test_identity_povm_fails_for_nonscalar_slds(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.3])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        cert = pv.verify_saturation_structural(pv.POVM(elements=[np.eye(3)]), dec, slds)
        assert not cert.passed

    def test_structural_pass_implies_fisher_equality(self, qutrit_point, qutrit_dec, qutrit_slds):
        povm = optimal_for(qutrit_point, qutrit_dec, qutrit_slds)
        cert = pv.verify_saturation_structural(povm, qutrit_dec, qutrit_slds)
        assert cert.passed
        dist = fi.outcome_distribution(qutrit_point.rho, qutrit_point.drho, povm, qutrit_dec)
        f_c = fi.classical_fim(dist)
        f_q = qs.qfim(qutrit_dec, qutrit_slds)
        assert np.linalg.norm(f_c - f_q, 2) <= 1e-8 * np.linalg.norm(f_q, 2)

    def test_null_elements_carry_no_probability(self, qutrit_point, qutrit_dec, qutrit_slds):
        povm = optimal_for(qutrit_point, qutrit_dec, qutrit_slds)
        for e, kind in zip(povm.elements, povm.classification):
            if kind == "null":
                assert abs(np.trace(qutrit_point.rho @ e)) <= 1e-12
                for d in qutrit_point.drho:
                    assert abs(np.trace(d @ e)) <= 1e-12


def roundtrip(povm, form, tmp_path):
    """Write ``povm`` to a file, check it took ``form``, and read it back unchanged."""
    payload = pv.povm_to_json(povm)
    assert form in payload and ("basis" in payload) != ("elements" in payload)
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(payload))
    loaded = pv.povm_from_json(str(path))
    assert loaded.n_outcomes == povm.n_outcomes
    for a, b in zip(loaded.elements, povm.elements):
        assert np.array_equal(a, b)
    assert loaded.classification == povm.classification
    return loaded


class TestSerialization:
    def test_json_roundtrip(self, qutrit_point, qutrit_dec, qutrit_slds, tmp_path):
        povm = optimal_for(qutrit_point, qutrit_dec, qutrit_slds)
        loaded = roundtrip(povm, "basis", tmp_path)
        assert np.array_equal(loaded.basis, povm.basis) and loaded.ranks == povm.ranks

    def test_json_roundtrip_element_form(self, tmp_path):
        povm = pv.random_povm(3, 4, np.random.default_rng(5))
        assert roundtrip(povm, "elements", tmp_path).basis is None

    @pytest.mark.parametrize("labels", [[0.0, 1.0, 2.0], ["a"], None])
    def test_outcome_labels_key_is_ignored(self, labels):
        povm = pv.random_projective_povm(3, np.random.default_rng(1))
        payload = json.loads(json.dumps(pv.povm_to_json(povm)))
        assert set(payload) == {"n_s", "basis", "ranks", "classification"}
        loaded = pv.povm_from_json({**payload, "outcome_labels": labels})
        assert np.array_equal(loaded.basis, povm.basis) and loaded.ranks == povm.ranks
        assert pv.povm_to_json(loaded).keys() == payload.keys()

    @pytest.mark.parametrize("edit", [
        {"n_s": True}, {"n_s": 0}, {"n_s": 3.0},
        {"classification": ["regular", "null"]}, {"classification": ["regular", "null", "x"]},
        {"elements": []}, {"basis": None},
        {"ranks": [1, 1]}, {"ranks": [True, 1, 1]}, {"ranks": [0, 1, 2]}, {"ranks": "111"},
        {"ranks": None},
    ])
    def test_malformed_file_is_a_schema_error(self, edit):
        payload = json.loads(json.dumps(pv.povm_to_json(
            pv.random_projective_povm(3, np.random.default_rng(1)))))
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        with pytest.raises(SchemaError):
            pv.povm_from_json(payload)

    def test_basis_must_describe_the_elements(self):
        with pytest.raises(pv.InvalidPOVMError):
            pv.POVM(elements=[np.eye(2)], basis=np.eye(2), ranks=(1, 1))

    @pytest.mark.parametrize("basis, ranks", [
        (np.eye(2), (1,)), (np.eye(2), (2, 0)), (np.ones((2, 3)), (1, 1)), (np.ones(2), (1, 1)),
    ])
    def test_basis_must_describe_a_measurement(self, basis, ranks):
        with pytest.raises(pv.InvalidPOVMError):
            pv.POVM(basis=basis, ranks=ranks)

    def test_dense_elements_must_be_a_list(self):
        with pytest.raises(SchemaError):
            pv.povm_from_json({"n_s": 2, "elements": 5})

    def test_non_unitary_basis_fails_completeness(self):
        payload = json.loads(json.dumps(pv.povm_to_json(
            pv.random_projective_povm(3, np.random.default_rng(1)))))
        payload["basis"][0][0] = [2.0, 0.0]
        povm = pv.povm_from_json(payload)
        with pytest.raises(pv.InvalidPOVMError):
            pv.require_valid(povm)


class TestRandomGenerators:
    def test_random_projective_is_valid(self):
        rng = np.random.default_rng(0)
        p = pv.random_projective_povm(3, rng)
        diag = pv.validate(p)
        assert diag["valid"] and diag["projective"]

    def test_random_povm_is_valid(self):
        rng = np.random.default_rng(0)
        p = pv.random_povm(3, 4, rng)
        diag = pv.validate(p)
        assert diag["valid"]
