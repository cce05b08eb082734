"""A basis measurement is checked through its basis; the checks must agree
with the element-by-element loops of ``oracles.py``.

Every measurement is given twice: in basis form (the checks read ``U``) and
in element form (the checks read the dense elements, as the loops do).
Decisions must be equal in both forms; numbers must agree within 1e-12 in
basis form and exactly in element form.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcrbsat as qs
from qcrbsat import fisher as fi
from qcrbsat import numkernel as nk
from qcrbsat import povm as pv
from qcrbsat.cli import main
from oracles import (
    classical_fim_loop,
    classify_elements_loop,
    outcome_distribution_loop,
    validate_loop,
    verify_saturation_structural_loop,
)

AGREE = 1e-12

INSTANCES = {
    "qutrit": ("qutrit-phase-mixture", dict(d=0.6, c1=1.0, c2=0.7), [0.3, 0.5]),
    "diag-multinomial": ("diag-multinomial", dict(dims=3), [0.2, 0.5]),
    "zero-pp-blocks": ("stationary-basis", {}, [0.4, 0.25]),
    "planted-8": ("random-rank-r", dict(seed=2, n_s=8, r_plus=4, n_params=3), [0.0] * 3),
    "planted-32": ("random-rank-r", dict(seed=3, n_s=32, r_plus=16, n_params=3), [0.0] * 3),
    "planted-64": ("random-rank-r", dict(seed=5, n_s=64, r_plus=32, n_params=4), [0.0] * 4),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    name, params, theta = INSTANCES[request.param]
    sp = qs.evaluate(qs.get(name, **params), theta)
    dec = qs.support_decomposition(sp)
    slds = qs.compute_sld(dec, sp.drho)
    rep = qs.evaluate_conditions(sp, dec, slds)
    assert rep.verdict == "SATURABLE_CERTIFIED"
    optimal = pv.construct_optimal(dec, slds, W=rep.cond4.W, rng=np.random.default_rng(0))
    if request.param == "zero-pp-blocks":
        assert max(optimal.ranks) > 1  # the one regular element spans the support
    return request.param, sp, dec, slds, optimal


def measurements(optimal):
    """The constructed measurement and two random projective ones, in basis form."""
    n = optimal.dim
    rng = np.random.default_rng(n)
    blocks = [2, 1, 3][:2 if n < 6 else 3]
    blocks += [1] * (n - sum(blocks))
    return [
        optimal,
        pv.random_projective_povm(n, rng),
        pv.POVM(basis=nk.haar_unitary(n, rng), ranks=tuple(blocks)),
    ]


def element_form(povm):
    return pv.POVM(elements=povm.elements)


def test_validate_agrees(instance):
    _, _, _, _, optimal = instance
    for povm in measurements(optimal):
        ref = validate_loop(element_form(povm))
        assert pv.validate(element_form(povm)) == ref
        diag = pv.validate(povm)
        for key in ("complete", "psd_ok", "valid", "projective"):
            assert diag[key] == ref[key], key
        assert np.allclose(diag["min_eigenvalues"], ref["min_eigenvalues"], rtol=0, atol=AGREE)
        assert diag["herm_defects"] == ref["herm_defects"] == [0.0] * povm.n_outcomes
        for key in ("completeness_residual", "projectivity_residual"):
            assert diag[key] <= 1e-10  # these are tiny residuals with a rounding allowance
        assert diag["completeness_residual"] >= ref["completeness_residual"]


def test_classification_agrees(instance):
    _, sp, dec, _, optimal = instance
    for povm in measurements(optimal):
        ref = classify_elements_loop(povm, sp.rho, dec)
        assert pv.classify_elements(element_form(povm), sp.rho, dec) == ref
        assert pv.classify_elements(povm, sp.rho, dec) == ref


def _assert_records_agree(cert, ref, exact):
    assert len(cert.records) == len(ref)
    for rec, (kind, constants, residuals, vacuous, passed) in zip(cert.records, ref):
        assert (rec.kind, rec.vacuous, rec.passed) == (kind, vacuous, passed)
        for got, want in ((rec.constants, constants), (rec.residuals, residuals)):
            assert list(got) == list(want)
            if exact:
                assert got == want
            else:
                assert all(abs(got[key] - want[key]) <= AGREE for key in want)
    assert cert.passed == all(r[-1] for r in ref)


def test_certificate_agrees(instance):
    _, sp, dec, slds, optimal = instance
    for povm in measurements(optimal):
        labels = classify_elements_loop(povm, sp.rho, dec)
        ref = verify_saturation_structural_loop(povm, labels, dec, slds, tol=sp.deriv_tol)
        for form, exact in ((element_form(povm), True), (povm, False)):
            form.classification = labels
            cert = pv.verify_saturation_structural(form, dec, slds, tol=sp.deriv_tol)
            _assert_records_agree(cert, ref, exact)
    assert pv.verify_saturation_structural(optimal, dec, slds, tol=sp.deriv_tol).passed


def test_distribution_and_fisher_agree(instance):
    _, sp, dec, slds, optimal = instance
    f_q = qs.qfim(dec, slds)
    for povm in measurements(optimal):
        probs, dprobs, singular, null_info = outcome_distribution_loop(sp.rho, sp.drho, povm, dec)
        ref_cmp = fi.compare(classical_fim_loop(probs, dprobs, null_info), f_q, tol=sp.deriv_tol) \
            if not singular else None
        for form, tol in ((element_form(povm), 0.0), (povm, AGREE)):
            dist = fi.outcome_distribution(sp.rho, sp.drho, form, dec)
            assert np.max(np.abs(dist.probs - probs)) <= tol
            assert np.max(np.abs(dist.dprobs - dprobs)) <= tol
            assert dist.singular == singular
            assert [r.index for r in dist.null_info] == list(null_info)
            for rec in dist.null_info:
                info, rank1 = null_info[rec.index]
                assert rec.rank1 == rank1
                assert np.max(np.abs(rec.info - info)) <= tol
            if singular:
                continue
            cmp = fi.compare(fi.classical_fim(dist), f_q, tol=sp.deriv_tol)
            assert cmp.saturated == ref_cmp.saturated
            assert np.max(np.abs(cmp.F_c - ref_cmp.F_c)) <= tol
            assert abs(cmp.gap - ref_cmp.gap) <= tol
            assert abs(cmp.psd_violation - ref_cmp.psd_violation) <= tol
    dist = fi.outcome_distribution(sp.rho, sp.drho, optimal, dec)
    assert fi.compare(fi.classical_fim(dist), f_q, tol=sp.deriv_tol).saturated


@pytest.mark.parametrize("name", ["qutrit", "planted-8"])
def test_fisher_reports_agree_in_both_forms(capsys, tmp_path, name):
    model, params, theta = INSTANCES[name]
    args = ["--model", model, "--params", ",".join(f"{k}={v}" for k, v in params.items()),
            "--theta", ",".join(map(str, theta))]
    basis_file, element_file = tmp_path / "basis.json", tmp_path / "elements.json"
    assert main(["construct-povm", *args, "--povm-output", str(basis_file),
                 "--output", str(tmp_path / "c.json")]) == 0
    povm = pv.povm_from_json(str(basis_file))
    dense = pv.POVM(elements=povm.elements, classification=povm.classification)
    element_file.write_text(json.dumps(pv.povm_to_json(dense)))
    reports = []
    for path in (basis_file, element_file):
        capsys.readouterr()
        assert main(["fisher", *args, "--povm", str(path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    a, b = reports
    assert "basis" in a["povm"] and "elements" in b["povm"]
    assert a["verdict"] == b["verdict"]
    assert a["saturation_certificate"]["passed"] == b["saturation_certificate"]["passed"] is True
    assert a["fisher"]["saturated"] == b["fisher"]["saturated"] is True
    assert np.max(np.abs(np.array(a["fisher"]["F_c"]) - np.array(b["fisher"]["F_c"]))) <= AGREE


# ---------------------------------------------------------------------------
# Soundness of the Gram bound on perturbed bases: a scaled column or two
# columns mixed non-orthogonally.
# ---------------------------------------------------------------------------


def _stored_residuals(povm):
    """Completeness and projectivity of the stored elements, pair by pair."""
    elements = povm.elements
    completeness = nk.fro(sum(elements) - np.eye(povm.dim))
    proj = max(nk.fro(e @ e - e) for e in elements)
    for i, e in enumerate(elements):
        for f in elements[i + 1:]:
            proj = max(proj, nk.fro(e @ f - f @ e))
    return completeness, proj


def _bases():
    rng = np.random.default_rng(17)
    out = [(pv.random_projective_povm(5, rng).basis, (1,) * 5),
           (nk.haar_unitary(6, rng), (2, 1, 3))]
    for name in ("qutrit", "zero-pp-blocks", "planted-8"):
        model, params, theta = INSTANCES[name]
        sp = qs.evaluate(qs.get(model, **params), theta)
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        rep = qs.evaluate_conditions(sp, dec, slds)
        povm = pv.construct_optimal(dec, slds, W=rep.cond4.W, rng=np.random.default_rng(0))
        out.append((povm.basis, povm.ranks))
    return out


BASES = _bases()


def _perturb(u, mix, i, j, k):
    u = u.copy()
    n = u.shape[1]
    i, j = i % n, j % n
    if mix and i != j:
        u[:, i] = u[:, i] + 10.0 ** -k * u[:, j]
    else:
        u[:, i] = u[:, i] * (1 + 10.0 ** -k)
    return u


perturbations = st.tuples(st.integers(0, len(BASES) - 1), st.booleans(),
                          st.integers(0, 63), st.integers(0, 63), st.integers(1, 16))


@settings(max_examples=150, deadline=None)
@given(perturbations)
def test_gram_bound_covers_the_stored_elements(case):
    b, mix, i, j, k = case
    basis, ranks = BASES[b]
    povm = pv.POVM(basis=_perturb(basis, mix, i, j, k), ranks=ranks)
    diag = pv.validate(povm)
    completeness, proj = _stored_residuals(povm)
    assert diag["completeness_residual"] >= completeness
    assert diag["projectivity_residual"] >= proj
    ref = validate_loop(element_form(povm))
    threshold = 1e-10 * povm.dim
    for key, flag in (("completeness_residual", "complete"), ("projectivity_residual", "projective")):
        far = not (threshold / 100 <= ref[key] <= threshold * 100)
        if far:
            assert diag[flag] == ref[flag], key
    if not (threshold / 100 <= ref["completeness_residual"] <= threshold * 100):
        assert diag["valid"] == ref["valid"]


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.integers(0, 2), st.integers(0, 2), st.integers(1, 6))
def test_non_unitary_basis_file_is_refused(tmp_path_factory, mix, i, j, k):
    model, params, theta = INSTANCES["qutrit"]
    args = ["--model", model, "--params", ",".join(f"{a}={v}" for a, v in params.items()),
            "--theta", ",".join(map(str, theta))]
    basis, ranks = BASES[2]
    if mix and i == j:
        j = (i + 1) % 3
    povm = pv.POVM(basis=_perturb(basis, mix, i, j, k), ranks=ranks)
    path = tmp_path_factory.mktemp("povm") / "p.json"
    path.write_text(json.dumps(pv.povm_to_json(povm)))
    out = path.with_name("f.json")
    assert main(["fisher", *args, "--povm", str(path), "--output", str(out)]) == 1
    assert json.loads(out.read_text())["error"]["type"] == "InvalidPOVMError"
