import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcrbsat as qs
from qcrbsat import fisher as fi
from qcrbsat import model as md
from qcrbsat import povm as pv
from qcrbsat.cli import main
from qcrbsat.model import DomainError
from oracles import (
    brent_loop,
    classical_fim_bruteforce,
    evaluate_prob_fn,
    max_likelihood_estimate_loop,
    multinomial_fisher,
    negative_log_likelihood_loop,
)


@pytest.fixture()
def qutrit_optimal(qutrit_point, qutrit_dec, qutrit_slds):
    rep = qs.evaluate_conditions(qutrit_point, qutrit_dec, qutrit_slds)
    povm = pv.construct_optimal(qutrit_dec, qutrit_slds, W=rep.cond4.W)
    dist = fi.outcome_distribution(qutrit_point.rho, qutrit_point.drho, povm, qutrit_dec)
    return povm, dist


class TestOutcomeDistribution:
    def test_qutrit_probabilities(self, qutrit_optimal):
        _, dist = qutrit_optimal
        assert sorted(np.round(dist.probs, 12)) == [0.0, 0.3, 0.7]
        assert not dist.singular
        assert len(dist.null_info) == 1
        assert dist.null_info[0].rank1

    def test_identity_povm(self, qutrit_point, qutrit_dec):
        dist = fi.outcome_distribution(
            qutrit_point.rho, qutrit_point.drho, pv.POVM(elements=[np.eye(3)]), qutrit_dec
        )
        assert dist.probs == pytest.approx([1.0])
        assert np.abs(dist.dprobs).max() <= 1e-12
        assert np.abs(fi.classical_fim(dist)).max() == 0.0

    def test_null_outcome_not_singular(self, qutrit_optimal):
        _, dist = qutrit_optimal
        null_idx = dist.null_info[0].index
        assert not dist.support_mask[null_idx]
        assert null_idx not in dist.singular

    def test_derivative_trace_judged_once(self, tmp_path, qutrit_point):
        # a trace of 1e-9 ||d_0 rho|| passes the state's validation, so the derivative
        # sums reproduce it instead of refusing the measurement
        drho = qutrit_point.drho.copy()
        drho[0] += 1e-9 * np.linalg.norm(drho[0]) * np.eye(3) / np.sqrt(3)
        sp = md.StateAtPoint(theta=None, rho=qutrit_point.rho, drho=drho, scheme="analytic")
        code, rep = _fisher_report(tmp_path, sp)
        assert code == 0
        key = (rep["verdict"], rep["saturation_certificate"]["passed"], rep["fisher"]["saturated"])
        assert key == ("SATURABLE_CERTIFIED", True, True)

    def test_measurement_complete_to_its_tolerance_is_read(self, tmp_path):
        # E_0 scaled by 1 + 2.5e-10: validation accepts the completeness residual 2.5e-10
        # (<= 1e-10 * 3), so the outcome distribution's sums accept it too
        q = ["--model", "qutrit-phase-mixture", "--params", "d=0.6,c1=1,c2=0.7",
             "--theta", "0.3,0.5"]
        basis_file, element_file, out = (tmp_path / n for n in ("p.json", "pe.json", "f.json"))
        assert main(["construct-povm", *q, "--povm-output", str(basis_file),
                     "--output", str(tmp_path / "c.json")]) == 0
        elements = pv.povm_from_json(str(basis_file)).elements
        elements[0] = elements[0] * (1 + 2.5e-10)
        povm = pv.POVM(elements=elements)
        diag = pv.validate(povm)
        assert diag["valid"] and diag["completeness_residual"] > 1e-10
        element_file.write_text(json.dumps(pv.povm_to_json(povm)))
        assert main(["fisher", *q, "--povm", str(element_file), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        key = (rep["verdict"], rep["saturation_certificate"]["passed"], rep["fisher"]["saturated"])
        assert key == ("SATURABLE_CERTIFIED", True, True)
        assert rep["fisher"]["gap_opnorm"] <= 1e-9

    def test_incomplete_measurement_refused_with_plain_numbers(self, qutrit_point, qutrit_dec):
        povm = pv.POVM(elements=[(1 + 1e-9) * np.eye(3)])
        with pytest.raises(qs.QcrbSatError, match=r"^probabilities sum to 1\.0000000") as exc:
            fi.outcome_distribution(qutrit_point.rho, qutrit_point.drho, povm, qutrit_dec)
        assert "np." not in str(exc.value)
        detail = exc.value.to_dict()["detail"]
        assert type(detail["probability_sum"]) is float
        assert detail["tol"] == pytest.approx(3e-10)

    def test_singular_outcome_detected_and_refused(self):
        dist = fi.MeasurementDistribution(
            probs=np.array([1.0, 0.0]),
            dprobs=np.array([[0.0, 1.0]]),
            support_mask=np.array([True, False]),
            singular=[1],
            null_info=[],
        )
        with pytest.raises(fi.SingularOutcomeError):
            fi.classical_fim(dist)


class TestClassicalFIM:
    def test_multinomial_oracle(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [1 / 3, 1 / 3])
        dec = qs.support_decomposition(sp)
        povm = pv.POVM(elements=[np.diag(r).astype(complex) for r in np.eye(3)])
        dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)
        f = fi.classical_fim(dist)
        assert np.allclose(f, [[6, 3], [3, 6]], atol=1e-10)
        assert np.allclose(f, multinomial_fisher([1 / 3, 1 / 3]), atol=1e-10)
        assert np.allclose(f, classical_fim_bruteforce(dist.probs, dist.dprobs), atol=1e-12)

    def test_qutrit_optimal_saturates(self, qutrit_optimal, qutrit_dec, qutrit_slds):
        _, dist = qutrit_optimal
        f_c = fi.classical_fim(dist)
        f_q = qs.qfim(qutrit_dec, qutrit_slds)
        assert np.linalg.norm(f_c - f_q, 2) <= 1e-8 * np.linalg.norm(f_q, 2)

    def test_null_limit_term_is_the_difference(self, qutrit_optimal):
        _, dist = qutrit_optimal
        score_only = classical_fim_bruteforce(dist.probs, dist.dprobs)
        full = fi.classical_fim(dist)
        assert np.allclose(full - score_only, dist.null_info[0].info, atol=1e-12)
        assert np.linalg.norm(dist.null_info[0].info) > 0.1

    @pytest.mark.parametrize("direction", [[1.0, 0.3], [0.0, 1.0], [-0.5, 0.8]])
    def test_null_term_is_the_directional_limit(
        self, direction, qutrit_model, qutrit_optimal
    ):
        # independent check of the zero-probability-outcome information:
        # away from theta0 every outcome has positive probability, so the
        # plain score formula applies; letting theta -> theta0 from any
        # direction must reproduce classical_fim at theta0 (direction
        # independence is exactly the rank-one curvature property)
        povm, dist0 = qutrit_optimal
        f_c0 = fi.classical_fim(dist0)
        theta0 = np.array([0.3, 0.5])
        d = np.asarray(direction, dtype=float)
        d /= np.linalg.norm(d)
        gaps = []
        for t in (1e-2, 1e-3, 1e-4):
            sp = qs.evaluate(qutrit_model, theta0 + t * d)
            probs = np.array([np.trace(sp.rho @ e).real for e in povm.elements])
            dprobs = np.array(
                [[np.trace(dr @ e).real for e in povm.elements] for dr in sp.drho]
            )
            assert np.all(probs > 0)
            gaps.append(
                np.linalg.norm(classical_fim_bruteforce(probs, dprobs) - f_c0, 2)
            )
        assert gaps[-1] <= 2e-3 * np.linalg.norm(f_c0, 2)
        assert gaps[2] <= gaps[0] + 1e-12  # shrinking with t


class TestCompare:
    def test_identical_matrices(self):
        f = np.array([[2.0, 0.3], [0.3, 1.0]])
        cmp_ = fi.compare(f, f)
        assert cmp_.saturated and cmp_.gap == 0.0

    def test_basis_measurement_on_pure_qubit(self, pure_qubit_model):
        sp = qs.evaluate(pure_qubit_model, [0.7, 0.2])
        dec = qs.support_decomposition(sp)
        slds = qs.compute_sld(dec, sp.drho)
        povm = pv.POVM(elements=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)
        cmp_ = fi.compare(fi.classical_fim(dist), qs.qfim(dec, slds))
        assert not cmp_.saturated
        assert cmp_.psd_violation <= 1e-10

    def test_scalar_costs_match_on_saturated(self, qutrit_optimal, qutrit_dec, qutrit_slds):
        _, dist = qutrit_optimal
        cmp_ = fi.compare(
            fi.classical_fim(dist), qs.qfim(qutrit_dec, qutrit_slds), g=np.eye(2)
        )
        assert cmp_.cost_classical == pytest.approx(cmp_.cost_quantum, rel=1e-10)

    def test_singular_quantum_matrix_omits_costs(self):
        f_q = np.diag([1.0, 0.0])
        cmp_ = fi.compare(np.diag([1.0, 0.0]), f_q, g=np.eye(2))
        assert cmp_.cost_quantum is None
        assert any("singular" in n for n in cmp_.notes)


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_povms_never_beat_quantum(self, seed, qutrit_point, qutrit_dec, qutrit_slds):
        rng = np.random.default_rng(seed)
        povm = pv.random_projective_povm(3, rng) if seed % 2 else pv.random_povm(3, 4, rng)
        dist = fi.outcome_distribution(qutrit_point.rho, qutrit_point.drho, povm, qutrit_dec)
        f_c = fi.classical_fim(dist)
        f_q = qs.qfim(qutrit_dec, qutrit_slds)
        assert np.linalg.eigvalsh(f_q - f_c)[0] >= -1e-8 * np.linalg.norm(f_q, 2)

    def test_coarse_graining_never_gains(self, qutrit_point, qutrit_dec, qutrit_slds, qutrit_optimal):
        povm, dist = qutrit_optimal
        base = fi.classical_fim(dist)
        for i in range(povm.n_outcomes):
            for j in range(i + 1, povm.n_outcomes):
                merged_elements = [
                    e for k, e in enumerate(povm.elements) if k not in (i, j)
                ] + [povm.elements[i] + povm.elements[j]]
                merged = pv.POVM(elements=merged_elements)
                dist2 = fi.outcome_distribution(
                    qutrit_point.rho, qutrit_point.drho, merged, qutrit_dec
                )
                f2 = fi.classical_fim(dist2)
                assert np.linalg.eigvalsh(base - f2)[0] >= -1e-9

    def test_scalar_bound_consistency(self, qutrit_point, qutrit_dec, qutrit_slds):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 2))
        g = z @ z.T + 0.1 * np.eye(2)
        povm = pv.random_projective_povm(3, rng)
        dist = fi.outcome_distribution(qutrit_point.rho, qutrit_point.drho, povm, qutrit_dec)
        cmp_ = fi.compare(fi.classical_fim(dist), qs.qfim(qutrit_dec, qutrit_slds), g=g)
        if cmp_.cost_classical is not None and cmp_.cost_quantum is not None:
            assert cmp_.cost_classical >= cmp_.cost_quantum - 1e-8


class TestSampling:
    def test_deterministic_outcome(self):
        dist = fi.MeasurementDistribution(
            probs=np.array([1.0]),
            dprobs=np.zeros((1, 1)),
            support_mask=np.array([True]),
            singular=[],
            null_info=[],
        )
        assert fi.sample_outcomes(dist, 500, seed=1).tolist() == [500]

    def test_binomial_concentration(self):
        dist = fi.MeasurementDistribution(
            probs=np.array([0.5, 0.5]),
            dprobs=np.zeros((1, 2)),
            support_mask=np.array([True, True]),
            singular=[],
            null_info=[],
        )
        n = 1_000_000
        counts = fi.sample_outcomes(dist, n, seed=7)
        sigma = np.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) <= 5 * sigma

    def test_seed_reproducibility(self, qutrit_optimal):
        _, dist = qutrit_optimal
        c1 = fi.sample_outcomes(dist, 10_000, seed=42)
        c2 = fi.sample_outcomes(dist, 10_000, seed=42)
        assert np.array_equal(c1, c2)


class TestEmpiricalFIM:
    def test_exact_expected_counts_reproduce_fim(self, qutrit_optimal):
        _, dist = qutrit_optimal
        n = 10_000_000
        counts = np.round(dist.probs * n).astype(int)
        f_hat, _ = fi.empirical_fim(counts, dist)
        assert np.allclose(f_hat, fi.classical_fim(dist), atol=1e-9)

    def test_monte_carlo_within_five_sigma(self, qutrit_optimal):
        _, dist = qutrit_optimal
        rec = fi.simulate(dist, trials=1_000_000, seed=42)
        f_c = fi.classical_fim(dist)
        assert np.all(np.abs(rec.fim_estimate - f_c) <= 5 * rec.fim_stderr + 1e-12)

    def test_model_mismatch(self, qutrit_optimal):
        _, dist = qutrit_optimal
        counts = np.zeros(3, dtype=int)
        counts[~dist.support_mask] = 5
        counts[dist.support_mask] = 100
        with pytest.raises(fi.ModelMismatchError):
            fi.empirical_fim(counts, dist)


class TestEstimatorStudy:
    def test_mle_recovers_multinomial_parameters(self, multinomial_model):
        theta = np.array([0.3, 0.45])
        sp = qs.evaluate(multinomial_model, theta)
        dec = qs.support_decomposition(sp)
        povm = pv.POVM(elements=[np.diag(r).astype(complex) for r in np.eye(3)])
        dist = fi.outcome_distribution(sp.rho, sp.drho, povm, dec)

        def prob_fn(t):
            return np.array([t[0], t[1], 1.0 - t[0] - t[1]])

        study = fi.estimator_study(prob_fn, dist, theta, batches=12, batch_size=20_000, seed=5)
        est = np.array(study["estimates_mean"])
        f = multinomial_fisher(theta)
        sigma = np.sqrt(np.diag(np.linalg.inv(f)) / 20_000 / 12)
        assert np.all(np.abs(est - theta) <= 5 * sigma)
        cov = np.array(study["covariance"])
        crb = np.linalg.inv(f) / 20_000
        # loose agreement: a dozen batches only pins the scale
        assert cov[0, 0] == pytest.approx(crb[0, 0], rel=1.5)


def _optimal(sp):
    dec = qs.support_decomposition(sp)
    slds = qs.compute_sld(dec, sp.drho)
    rep = qs.evaluate_conditions(sp, dec, slds)
    assert rep.verdict == "SATURABLE_CERTIFIED"
    povm = pv.construct_optimal(dec, slds, W=rep.cond4.W)
    return povm, fi.outcome_distribution(sp.rho, sp.drho, povm, dec)


def _lean_prob_fn(model, povm):
    elements = np.stack(povm.elements)
    return lambda theta: fi.probabilities(qs.state_at(model, theta), elements)


def _basis_povm(n):
    return pv.POVM(elements=[np.diag(r).astype(complex) for r in np.eye(n)])


class TestLeanLikelihood:
    """The likelihood reads `state_at` and one stacked trace; it must give the
    old `evaluate`-based callback's numbers exactly."""

    def _assert_equal_on(self, model, theta0, povm, scheme, offsets):
        lean = _lean_prob_fn(model, povm)
        old = evaluate_prob_fn(model, povm, scheme, 1e-5)
        for off in offsets:
            theta = np.asarray(theta0) + off
            assert np.array_equal(lean(theta), old(theta))

    def test_qutrit_analytic(self, qutrit_model, qutrit_point):
        povm, _ = _optimal(qutrit_point)
        offsets = np.random.default_rng(1).uniform(-0.05, 0.05, size=(8, 2))
        self._assert_equal_on(qutrit_model, [0.3, 0.5], povm, "analytic", offsets)

    @pytest.mark.parametrize("scheme", ["central_fd", "richardson"])
    def test_multinomial_finite_differences(self, multinomial_model, scheme):
        offsets = np.random.default_rng(2).uniform(-0.05, 0.05, size=(8, 2))
        self._assert_equal_on(multinomial_model, [0.3, 0.45], _basis_povm(3), scheme, offsets)

    def test_planted_n32(self):
        # The family is linear in theta and leaves the PSD cone off theta = 0,
        # so the likelihood is compared there and the traces on drho as well.
        model = qs.get("random-rank-r", seed=3, n_s=32, r_plus=16, n_params=3)
        sp = qs.evaluate(model, np.zeros(3))
        povm, dist = _optimal(sp)
        self._assert_equal_on(model, np.zeros(3), povm, "analytic", np.zeros((1, 3)))
        self._assert_distribution_is_the_loop(sp, povm, dist)

    def test_outcome_distribution_traces(self, qutrit_point):
        povm, dist = _optimal(qutrit_point)
        self._assert_distribution_is_the_loop(qutrit_point, povm, dist)

    @staticmethod
    def _assert_distribution_is_the_loop(sp, povm, dist):
        """The element form traces each element exactly as the loop does; the
        basis form (``dist``, read through the basis) agrees to rounding."""
        probs = np.array([float(np.trace(sp.rho @ e).real) for e in povm.elements])
        probs[(probs < 0.0) & (probs > -1e-12)] = 0.0
        dprobs = np.array([[float(np.trace(d @ e).real) for e in povm.elements] for d in sp.drho])
        dense = fi.outcome_distribution(sp.rho, sp.drho, pv.POVM(elements=povm.elements),
                                        qs.support_decomposition(sp))
        assert np.array_equal(dense.probs, probs)
        assert np.array_equal(dense.dprobs, dprobs)
        assert povm.basis is not None
        assert np.max(np.abs(dist.probs - probs)) <= 1e-15
        assert np.max(np.abs(dist.dprobs - dprobs)) <= 1e-14

    def test_study_estimates_equal_the_old_callback(self, qutrit_model, qutrit_point):
        povm, dist = _optimal(qutrit_point)
        theta = qutrit_point.theta
        old = evaluate_prob_fn(qutrit_model, povm, "analytic", 1e-5)
        lean = _lean_prob_fn(qutrit_model, povm)
        kw = dict(batches=3, batch_size=2000, seed=11)
        a = fi.estimator_study(lean, dist, theta, **kw)
        b = fi.estimator_study(old, dist, theta, **kw)
        assert a["estimates"] == b["estimates"]
        assert a == b


def _stacked_likelihood(model, povm):
    elements = np.stack(povm.elements)
    return lambda thetas: fi.probabilities(qs.state_at(model, thetas), elements)


class TestNegativeLogLikelihood:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50), st.integers(1, 80),
           st.sampled_from([0.0, 1e-320, 1e-12]))
    def test_equals_one_dot_per_row(self, seed, rows, outcomes, floor):
        # the likelihood rows come from a (B, M) probability stack, some entries at or
        # below the 1e-300 cut; every row must be the loop's np.dot bit for bit
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(rng.integers(1, 10**5), np.full(outcomes, 1 / outcomes),
                                 size=rows).astype(float)
        probs = rng.dirichlet(np.full(outcomes, 0.5), size=rows)
        probs[rng.uniform(size=probs.shape) < 0.05] = floor
        got = fi.negative_log_likelihood(counts, probs)
        assert got.tobytes() == negative_log_likelihood_loop(counts, probs).tobytes()


class TestLockStepFit:
    """All batches are fitted at once; each estimate must equal the one-batch
    scalar fit of the oracle exactly, on the stacked and the per-point path,
    and lie within 1e-6 of the one-batch golden-section fit."""

    @staticmethod
    def _assert_study_is_the_loop(model, povm, dist, theta0, batches, batch_size, seed):
        per_point = _lean_prob_fn(model, povm)
        counts = [fi.sample_outcomes(dist, batch_size, seed + b) for b in range(batches)]
        expected = [max_likelihood_estimate_loop(per_point, c, theta0).tolist() for c in counts]
        golden = [max_likelihood_estimate_loop(per_point, c, theta0, golden=True) for c in counts]
        kw = dict(batches=batches, batch_size=batch_size, seed=seed)
        stacked = fi.estimator_study(_stacked_likelihood(model, povm), dist, theta0,
                                     stacked=True, **kw)
        adapted = fi.estimator_study(per_point, dist, theta0, **kw)
        assert stacked["estimates"] == expected
        assert stacked == adapted
        assert np.max(np.abs(np.array(expected) - golden)) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 7])
    def test_qutrit_forty_batches(self, qutrit_model, qutrit_point, seed):
        povm, dist = _optimal(qutrit_point)
        self._assert_study_is_the_loop(qutrit_model, povm, dist, qutrit_point.theta,
                                       40, 5000, seed)

    def test_qutrit_two_batches(self, qutrit_model, qutrit_point):
        povm, dist = _optimal(qutrit_point)
        self._assert_study_is_the_loop(qutrit_model, povm, dist, qutrit_point.theta,
                                       2, 1000, 0)

    def test_multinomial(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.45])
        povm = _basis_povm(3)
        dist = fi.outcome_distribution(sp.rho, sp.drho, povm, qs.support_decomposition(sp))
        self._assert_study_is_the_loop(multinomial_model, povm, dist, sp.theta, 6, 10_000, 3)

    def test_forty_batch_fit_halves_the_likelihood_calls(self, qutrit_model, qutrit_point):
        # the 40-step golden-section search took 4 sweeps x 2 coordinates x 42 calls = 336,
        # each on all 40 batches (13,440 points)
        povm, dist = _optimal(qutrit_point)
        likelihood = _stacked_likelihood(qutrit_model, povm)
        rows = []

        def counted(thetas):
            rows.append(len(thetas))
            return likelihood(thetas)

        fi.estimator_study(counted, dist, qutrit_point.theta, batches=40, batch_size=5000, seed=1,
                           stacked=True, domain=qutrit_model.domain)
        assert len(rows) < 168
        assert sum(rows) < 13_440 // 2

    def test_fit_leaving_the_domain_raises_on_both_paths(self, qutrit_model, qutrit_point):
        povm, dist = _optimal(qutrit_point)
        kw = dict(batches=3, batch_size=1000, seed=0, radius=2.0)  # first step to 0.3 - 0.76
        with pytest.raises(DomainError):
            fi.estimator_study(_stacked_likelihood(qutrit_model, povm), dist,
                               qutrit_point.theta, stacked=True, **kw)
        with pytest.raises(DomainError):
            fi.estimator_study(_lean_prob_fn(qutrit_model, povm), dist,
                               qutrit_point.theta, **kw)

    def test_brackets_inside_the_domain_are_unchanged(self, qutrit_model, qutrit_point):
        povm, dist = _optimal(qutrit_point)
        kw = dict(batches=4, batch_size=2000, seed=3, stacked=True)
        likelihood = _stacked_likelihood(qutrit_model, povm)
        assert fi.estimator_study(likelihood, dist, qutrit_point.theta,
                                  domain=qutrit_model.domain, **kw) == \
            fi.estimator_study(likelihood, dist, qutrit_point.theta, **kw)

    def test_bracket_is_cut_to_the_domain(self, multinomial_model):
        theta0 = np.array([0.02, 0.5])  # theta0 - radius leaves the box
        sp = qs.evaluate(multinomial_model, theta0)
        povm = _basis_povm(3)
        dist = fi.outcome_distribution(sp.rho, sp.drho, povm, qs.support_decomposition(sp))
        kw = dict(batches=4, batch_size=1000, seed=0, stacked=True)
        likelihood = _stacked_likelihood(multinomial_model, povm)
        with pytest.raises(DomainError):
            fi.estimator_study(likelihood, dist, theta0, **kw)
        study = fi.estimator_study(likelihood, dist, theta0, domain=multinomial_model.domain, **kw)
        est = np.array(study["estimates"])
        assert np.all(est > multinomial_model.domain.lo) and np.all(est < multinomial_model.domain.hi)
        assert np.all(np.abs(est - theta0) <= 0.05)

    @pytest.mark.parametrize("stack_entries", [fi.STACK_ENTRIES, 54, 1])
    def test_stacked_probabilities_are_the_rows(self, qutrit_model, qutrit_point,
                                                stack_entries, monkeypatch):
        monkeypatch.setattr(fi, "STACK_ENTRIES", stack_entries)  # 54: chunks of 2 rows
        povm, _ = _optimal(qutrit_point)
        elements = np.stack(povm.elements)
        thetas = qutrit_point.theta + np.random.default_rng(4).uniform(-0.05, 0.05, (5, 2))
        probs = fi.probabilities(qs.state_at(qutrit_model, thetas), elements)
        assert probs.shape == (5, 3)
        for theta, row in zip(thetas, probs):
            assert np.array_equal(row, fi.probabilities(qs.state_at(qutrit_model, theta), elements))


class TestBrentSearch:
    """The lock-step Brent search on random brackets, some cut to a domain box:
    every abscissa lies strictly inside its row's bracket, each row is the
    scalar search bit for bit, and a finished row is no longer evaluated."""

    @staticmethod
    def _values(u, kind, c):
        """Row functions by kind: 0 a parabola with its minimum inside the bracket,
        1 at its lower edge, 2 beyond its upper edge; 3 a kink; 4 a constant."""
        return np.select([kind == 4, kind == 3], [np.ones_like(u), np.abs(u - c)], (u - c) * (u - c))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_abscissae_inside_the_bracket_and_rows_are_the_scalar_search(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, n)
        radius = 10.0 ** rng.uniform(-6.0, 1.0, n)
        lo, hi = x - radius, x + radius
        cut = rng.uniform(size=n) < 0.5  # cut to a box whose edges lie between x and x +/- radius
        lo = np.where(cut, x - radius * rng.uniform(0.01, 1.0, n), lo)
        hi = np.where(cut, x + radius * rng.uniform(0.01, 1.0, n), hi)
        kind = rng.integers(0, 5, n)
        c = np.select([kind == 1, kind == 2], [lo, hi + radius], rng.uniform(lo, hi))
        asked = []

        def f(u, rows):
            asked.extend(zip(rows.tolist(), u.tolist()))
            return self._values(u, kind[rows], c[rows])

        got, f_got = fi._brent(f, x, self._values(x, kind, c), lo, hi)
        for b, u in asked:
            assert lo[b] < u < hi[b]
        assert np.array_equal(f_got, self._values(got, kind, c))
        for b in range(n):
            scalar_asked = []

            def f_b(u, b=b):
                scalar_asked.append(u)
                return float(self._values(np.array([u]), kind[b:b + 1], c[b:b + 1])[0])

            assert got[b] == brent_loop(f_b, x[b], lo[b], hi[b])
            # the scalar search also evaluates its start, which the lock-step search is given
            assert [u for r, u in asked if r == b] == scalar_asked[1:]


class TestBelowBoundFlag:
    """The study flags a variance below the classical (hence quantum) bound by
    more than 40-batch sampling noise explains."""

    def test_floor_is_the_chi2_lower_percentile(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.45])
        dist = fi.outcome_distribution(sp.rho, sp.drho, _basis_povm(3), qs.support_decomposition(sp))
        study = fi.estimator_study(
            lambda t: np.array([t[0], t[1], 1.0 - t[0] - t[1]]), dist, sp.theta,
            batches=40, batch_size=5000, seed=1,
        )
        assert study["bound_floor"] == pytest.approx(0.5488, abs=1e-4)
        assert study["below_bound"] == [False, False]
        assert study["notes"] == []
        cov = np.array(study["covariance"])
        expected = 5000 * np.diag(cov) / np.diag(np.linalg.inv(multinomial_fisher(sp.theta)))
        assert np.allclose(study["bound_ratio"], expected, rtol=1e-9)

    def test_qutrit_theta2_flagged(self, qutrit_model, qutrit_point):
        povm, dist = _optimal(qutrit_point)
        study = fi.estimator_study(_lean_prob_fn(qutrit_model, povm), dist,
                                   qutrit_point.theta, batches=40, batch_size=5000, seed=1)
        ratio = study["bound_ratio"]
        assert study["below_bound"] == [False, True]
        assert ratio[1] < 0.3 and ratio[0] > study["bound_floor"]

    def test_singular_classical_information_gives_null(self, multinomial_model):
        sp = qs.evaluate(multinomial_model, [0.3, 0.45])
        trivial = pv.POVM(elements=[np.eye(3, dtype=complex)])
        dist = fi.outcome_distribution(sp.rho, sp.drho, trivial, qs.support_decomposition(sp))
        study = fi.estimator_study(lambda t: np.ones(1), dist, sp.theta,
                                   batches=2, batch_size=10, seed=0)
        assert study["bound_ratio"] is None and study["below_bound"] is None
        assert study["notes"] == ["classical information matrix is singular; bound ratio omitted"]


SCALES = [1e-9, 1e-7, 1e-6, 1e-3, 1.0, 1e3, 1e6]


def _scaled(sp, factors):
    """``sp`` with each ``d_l rho`` multiplied by ``factors[l]``: theta_l -> theta_l / factors[l]."""
    drho = np.asarray(factors, dtype=float)[:, None, None] * sp.drho
    return md.StateAtPoint(theta=None, rho=sp.rho, drho=drho, scheme="analytic")


def _fisher_report(tmp_path, sp, *flags):
    """Exit code and report of ``fisher --numeric-model`` on ``sp``."""
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    model.write_text(json.dumps(md.state_to_numeric_model(sp)))
    code = main(["fisher", "--numeric-model", str(model), *flags, "--output", str(report)])
    return code, json.loads(report.read_text())


class TestScaleInvariance:
    """theta -> theta / s multiplies every d_l rho by s. The constructed measurement,
    its certificate and F_c = F_Q must not depend on s, and a measurement that does
    not saturate must not pass at any s."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        g, haar = d / "g.json", d / "haar.json"
        g.write_text(json.dumps(np.eye(2).tolist()))
        haar.write_text(json.dumps(pv.povm_to_json(
            pv.random_projective_povm(3, np.random.default_rng(5)))))
        return {"g": str(g), "haar": str(haar)}

    @pytest.mark.parametrize("s", SCALES)
    def test_qutrit_measurement_saturates(self, tmp_path, files, qutrit_point, qutrit_dec,
                                          qutrit_slds, s):
        code, rep = _fisher_report(tmp_path, _scaled(qutrit_point, [s, s]),
                                   "--cost-matrix", files["g"])
        assert code == 0
        key = (rep["verdict"], rep["saturation_certificate"]["passed"], rep["fisher"]["saturated"])
        assert key == ("SATURABLE_CERTIFIED", True, True)
        assert len(rep["povm"]["ranks"]) == 3
        fisher = rep["fisher"]
        assert fisher["notes"] == []
        assert fisher["cost_classical"] == pytest.approx(fisher["cost_quantum"], rel=1e-6)
        f_q = qs.qfim(qutrit_dec, qutrit_slds)
        assert np.abs(np.array(fisher["F_c"]) / s**2 - f_q).max() <= 1e-8 * np.abs(f_q).max()

    @pytest.mark.parametrize("s", SCALES)
    def test_haar_measurement_fails(self, tmp_path, files, qutrit_point, s):
        code, rep = _fisher_report(tmp_path, _scaled(qutrit_point, [s, s]), "--povm", files["haar"])
        assert code == 0
        assert rep["saturation_certificate"]["passed"] is False
        assert rep["fisher"]["saturated"] is False

    @pytest.mark.parametrize("s", SCALES)
    def test_rank_change_refused(self, tmp_path, qutrit_point, qutrit_dec, s):
        """d_0 rho gains a null block of 6.7e-4 ||d_0 rho|| (traceless on the support)."""
        drho = qutrit_point.drho.copy()
        c = 6.7e-4 * np.linalg.norm(drho[0])
        y = qutrit_dec.Y
        drho[0] += c * (y @ y.conj().T - qutrit_dec.P_plus / qutrit_dec.r_plus)
        sp = md.StateAtPoint(theta=None, rho=qutrit_point.rho, drho=drho, scheme="analytic")
        code, rep = _fisher_report(tmp_path, _scaled(sp, [s, s]))
        assert code == 1
        assert rep["error"]["type"] == "RankNotLocallyConstantError"

    @pytest.mark.parametrize("factors", [(1e3, 1e-3), (1e-3, 1e3)])
    def test_planted_per_parameter_scaling(self, tmp_path, files, factors):
        sp = qs.evaluate(qs.get("random-rank-r", seed=0, n_s=8, r_plus=4, n_params=2), [0.0, 0.0])
        code, rep = _fisher_report(tmp_path, _scaled(sp, factors), "--cost-matrix", files["g"])
        assert code == 0
        key = (rep["verdict"], rep["saturation_certificate"]["passed"], rep["fisher"]["saturated"])
        assert key == ("SATURABLE_CERTIFIED", True, True)
        assert len(rep["povm"]["ranks"]) == 8
        fisher = rep["fisher"]
        assert fisher["notes"] == []
        assert fisher["cost_classical"] == pytest.approx(fisher["cost_quantum"], rel=1e-6)
