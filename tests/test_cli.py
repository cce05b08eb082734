import json

import numpy as np
import pytest

from qcrbsat import cli
from qcrbsat import fisher as fi
from qcrbsat import model as md
from qcrbsat import povm as pv
from qcrbsat.cli import main, parse_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


QUTRIT = ["--model", "paper-qutrit", "--params", "d=0.6,c1=1,c2=0.7", "--theta", "0.3,0.5"]


class TestAnalyze:
    def test_qutrit_certified(self, capsys):
        code, rep = run(capsys, "analyze", *QUTRIT)
        assert code == 0
        assert rep["verdict"] == "SATURABLE_CERTIFIED"
        assert rep["support"] == {"r_plus": 2, "r_zero": 1, "q": rep["support"]["q"]}
        assert rep["conditions"]["condition4"]["status"] == "CERTIFIED_YES"
        assert rep["conditions"]["condition2prime"]["status"] == "PASSED"

    def test_pure_qubit_not_saturable(self, capsys):
        code, rep = run(capsys, "analyze", "--model", "pure-qubit-amp-phase",
                        "--theta", "0.7,0.2")
        assert code == 0  # the verdict is data, not an exit status
        assert rep["verdict"] == "NOT_SATURABLE"
        assert rep["conditions"]["average_commutativity"]["residual"] > 1e-4

    def test_numeric_model_path(self, capsys, tmp_path, qutrit_point):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(md.state_to_numeric_model(qutrit_point)))
        code, rep = run(capsys, "analyze", "--numeric-model", str(path))
        assert code == 0
        assert rep["verdict"] == "SATURABLE_CERTIFIED"
        assert "monte_carlo" not in rep
        assert rep["conditions"]["condition2prime"] is None

    def test_bad_numeric_model_is_machine_readable(self, capsys, tmp_path, qutrit_point):
        payload = md.state_to_numeric_model(qutrit_point)
        payload["rho"][0][0][0] -= 0.1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, rep = run(capsys, "analyze", "--numeric-model", str(path))
        assert code == 1
        assert rep["error"]["type"] == "TraceNotOneError"

    def test_report_is_self_contained_and_reproducible(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["analyze", *QUTRIT, "--seed", "7", "--output", str(out1)]) == 0
        assert main(["analyze", *QUTRIT, "--seed", "7", "--output", str(out2)]) == 0
        capsys.readouterr()
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert r1 == r2
        assert r1["inputs"]["seed"] == 7
        assert r1["inputs"]["rank_tol"] == 1e-10
        assert r1["inputs"]["scheme"] == "analytic"
        assert r1["tool"]["name"] == "qcrbsat"


class TestConstructPovm:
    def test_qutrit_three_elements(self, capsys, tmp_path):
        povm_path = tmp_path / "povm.json"
        code, rep = run(capsys, "construct-povm", *QUTRIT, "--povm-output", str(povm_path))
        assert code == 0
        assert len(rep["povm"]["ranks"]) == 3
        assert rep["povm"]["classification"].count("regular") == 2
        assert rep["saturation_certificate"]["passed"] is True
        loaded = pv.povm_from_json(str(povm_path))
        assert loaded.n_outcomes == 3

    def test_multinomial_basis(self, capsys):
        code, rep = run(capsys, "construct-povm", "--model", "diag-multinomial",
                        "--params", "dims=3", "--theta", "0.2,0.5")
        assert code == 0
        assert len(rep["povm"]["ranks"]) == 3

    def test_refusal_on_unsaturable_state(self, capsys):
        code, rep = run(capsys, "construct-povm", "--model", "pure-qubit-amp-phase",
                        "--theta", "0.7,0.2")
        assert code == 1
        assert rep["error"]["type"] == "NotCertifiedError"
        assert rep["error"]["detail"]["verdict"] == "NOT_SATURABLE"


class TestFisher:
    def test_constructed_povm_saturates(self, capsys):
        code, rep = run(capsys, "fisher", *QUTRIT)
        assert code == 0
        assert rep["fisher"]["saturated"] is True
        f_q = np.array(rep["fisher"]["F_Q"])
        f_c = np.array(rep["fisher"]["F_c"])
        assert np.linalg.norm(f_q - f_c, 2) <= 1e-8 * np.linalg.norm(f_q, 2)

    def test_supplied_random_povm_does_not_saturate(self, capsys, tmp_path):
        povm = pv.random_projective_povm(3, np.random.default_rng(11))
        path = tmp_path / "rand.json"
        path.write_text(json.dumps(pv.povm_to_json(povm)))
        code, rep = run(capsys, "fisher", *QUTRIT, "--povm", str(path))
        assert code == 0
        assert rep["fisher"]["saturated"] is False
        assert rep["fisher"]["psd_violation"] <= 1e-8

    @pytest.mark.parametrize("state", [
        QUTRIT,
        ["--model", "random-rank-r", "--params", "seed=2,n_s=32,r_plus=16,n_params=3",
         "--theta", "0,0,0"],
    ], ids=["qutrit", "rank-r-32"])
    def test_constructed_file_reproduces_the_report(self, capsys, tmp_path, state):
        povm_path, plain, supplied = (tmp_path / n for n in ("p.json", "a.json", "b.json"))
        assert main(["construct-povm", *state, "--povm-output", str(povm_path)]) == 0
        assert "basis" in json.loads(povm_path.read_text())
        assert main(["fisher", *state, "--output", str(plain)]) == 0
        assert main(["fisher", *state, "--povm", str(povm_path), "--output", str(supplied)]) == 0
        capsys.readouterr()
        assert supplied.read_bytes() == plain.read_bytes()

    def test_dense_file_reads(self, capsys, tmp_path, qutrit_point):
        povm = pv.random_povm(3, 4, np.random.default_rng(2))
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(pv.povm_to_json(povm)))
        code, rep = run(capsys, "fisher", *QUTRIT, "--povm", str(path))
        assert code == 0
        assert len(rep["povm"]["elements"]) == 4 and "basis" not in rep["povm"]
        dec = md.support_decomposition(qutrit_point)
        dist = fi.outcome_distribution(qutrit_point.rho, qutrit_point.drho, povm, dec)
        assert np.array_equal(np.array(rep["fisher"]["F_c"]), fi.classical_fim(dist))

    def test_cost_matrix(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        code, rep = run(capsys, "fisher", *QUTRIT, "--cost-matrix", str(g))
        assert code == 0
        assert rep["fisher"]["cost_classical"] == pytest.approx(
            rep["fisher"]["cost_quantum"], rel=1e-9
        )


class TestSimulate:
    def test_deterministic_records(self, capsys):
        code1, rep1 = run(capsys, "simulate", *QUTRIT, "--trials", "200000", "--seed", "42")
        code2, rep2 = run(capsys, "simulate", *QUTRIT, "--trials", "200000", "--seed", "42")
        assert code1 == code2 == 0
        assert rep1["monte_carlo"] == rep2["monte_carlo"]
        assert sum(rep1["monte_carlo"]["counts"]) == 200000

    def test_estimator_study_on_multinomial(self, capsys):
        code, rep = run(
            capsys, "simulate", "--model", "diag-multinomial", "--params", "dims=3",
            "--theta", "0.3,0.45", "--trials", "60000", "--batches", "6", "--estimator",
        )
        assert code == 0
        est = rep["monte_carlo"]["estimator"]
        assert est["batches"] == 6
        assert np.allclose(est["estimates_mean"], [0.3, 0.45], atol=0.02)

    def test_qutrit_study_flags_theta2_below_bound(self, capsys):
        # A zero count of the null outcome pins theta_2, so its variance sits
        # far below the bound; the report must say so.
        code, rep = run(capsys, "simulate", *QUTRIT, "--trials", "200000", "--batches", "40",
                        "--estimator", "--seed", "7")
        assert code == 0
        est = rep["monte_carlo"]["estimator"]
        assert est["below_bound"] == [False, True]
        assert est["bound_ratio"][1] < 0.3 < est["bound_floor"] < est["bound_ratio"][0]


class TestSweep:
    def test_grid_all_certified(self, capsys):
        code, rep = run(capsys, "sweep", "--model", "paper-qutrit",
                        "--params", "d=0.6,c1=1,c2=0.7", "--grid", "0.2:0.8:3,0.2:0.8:3")
        assert code == 0
        assert len(rep["sweep"]) == 9
        assert all(r["verdict"] == "SATURABLE_CERTIFIED" for r in rep["sweep"])

    def test_boundary_points_recorded_as_errors(self, capsys):
        code, rep = run(capsys, "sweep", "--model", "paper-qutrit",
                        "--grid", "0.0:0.5:2,0.5:0.5:1")
        assert code == 0
        errors = [r for r in rep["sweep"] if "error" in r]
        good = [r for r in rep["sweep"] if "error" not in r]
        assert len(errors) == 1 and errors[0]["theta"][0] == 0.0
        assert len(good) == 1

    def test_single_point_grid_matches_analyze(self, capsys):
        code, rep = run(capsys, "sweep", "--model", "paper-qutrit",
                        "--params", "d=0.6,c1=1,c2=0.7", "--grid", "0.3:0.3:1,0.5:0.5:1")
        assert code == 0
        point = rep["sweep"][0]
        code2, direct = run(capsys, "analyze", *QUTRIT)
        assert point["verdict"] == direct["verdict"]
        assert point["qfim"] == direct["qfim"]


class TestSchemes:
    def test_central_fd_pipeline(self, capsys):
        code, rep = run(capsys, "fisher", *QUTRIT[:-2], "--theta", "0.3,0.5",
                        "--scheme", "central_fd", "--fd-step", "1e-5")
        assert code == 0
        assert rep["inputs"]["scheme"] == "central_fd(h=1e-05)"
        assert rep["inputs"]["cond_tol"] == 1e-4  # FD default tolerance
        assert rep["verdict"] == "SATURABLE_CERTIFIED"
        assert rep["fisher"]["saturated"] is True

    def test_numeric_model_construct_and_fisher(self, capsys, tmp_path, qutrit_point):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(md.state_to_numeric_model(qutrit_point)))
        code, rep = run(capsys, "construct-povm", "--numeric-model", str(path))
        assert code == 0
        assert rep["saturation_certificate"]["passed"] is True
        code, rep = run(capsys, "fisher", "--numeric-model", str(path))
        assert code == 0
        assert rep["fisher"]["saturated"] is True


class TestUsageErrors:
    def test_missing_state_source(self, capsys):
        code, rep = run(capsys, "analyze", "--theta", "0.3,0.5")
        assert code == 1
        assert "error" in rep

    def test_unknown_model(self, capsys):
        code, rep = run(capsys, "analyze", "--model", "nope", "--theta", "0.1")
        assert code == 1
        assert rep["error"]["type"] == "UnknownModelError"

    def test_malformed_theta(self, capsys):
        code, rep = run(capsys, "analyze", "--model", "paper-qutrit", "--theta", "x,y")
        assert code == 1


class TestInputFiles:
    """Malformed or mismatched input files give a typed error report and exit code 1."""

    @pytest.fixture
    def files(self, tmp_path, qutrit_point):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(md.state_to_numeric_model(qutrit_point)))
        povm = tmp_path / "povm.json"
        trine = pv.random_projective_povm(3, np.random.default_rng(1))
        povm.write_text(json.dumps(pv.povm_to_json(trine)))
        cost = tmp_path / "g.json"
        cost.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        return {"--numeric-model": model, "--povm": povm, "--cost-matrix": cost}

    @pytest.mark.parametrize("flag", ["--numeric-model", "--povm", "--cost-matrix"])
    def test_truncated_file(self, capsys, tmp_path, files, flag):
        text = files[flag].read_text()
        files[flag].write_text(text[: len(text) // 2])
        state = ["--numeric-model", str(files["--numeric-model"])]
        extra = [] if flag == "--numeric-model" else [flag, str(files[flag])]
        code, rep = run(capsys, "fisher", *state, *extra)
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("flag", ["--numeric-model", "--povm"])
    def test_not_a_json_object(self, capsys, files, flag):
        files[flag].write_text("5")
        code, rep = run(capsys, "fisher", "--numeric-model", str(files["--numeric-model"]),
                        *([] if flag == "--numeric-model" else [flag, str(files[flag])]))
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"

    def test_missing_file(self, capsys, tmp_path):
        code, rep = run(capsys, "fisher", *QUTRIT, "--povm", str(tmp_path / "absent.json"))
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("command", [["fisher"], ["simulate", "--trials", "100"]])
    def test_povm_of_another_dimension(self, capsys, tmp_path, command):
        qubit = pv.random_projective_povm(2, np.random.default_rng(3))
        path = tmp_path / "qubit.json"
        path.write_text(json.dumps(pv.povm_to_json(qubit)))
        code, rep = run(capsys, *command, *QUTRIT, "--povm", str(path))
        assert code == 1
        assert rep["error"]["type"] == "InvalidPOVMError"
        assert rep["error"]["detail"] == {"povm_dim": 2, "state_dim": 3}

    @pytest.mark.parametrize("edit", [
        {"n_s": True}, {"outcome_labels": [0.0]}, {"outcome_labels": ["a", "b", "c"]},
        {"classification": ["regular", "other", "null"]}, {"basis": None},
        {"elements": [[[[1, 0]]]]}, {"ranks": [2, 2]}, {"ranks": [1, False, 2]},
    ])
    def test_malformed_measurement(self, capsys, files, edit):
        payload = json.loads(files["--povm"].read_text())
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        files["--povm"].write_text(json.dumps(payload))
        code, rep = run(capsys, "fisher", *QUTRIT, "--povm", str(files["--povm"]))
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"
        assert all(key in rep["error"]["message"] for key in edit)  # names what is wrong

    def test_non_unitary_basis(self, capsys, files):
        payload = json.loads(files["--povm"].read_text())
        payload["basis"][1][1] = [0.5, 0.0]
        files["--povm"].write_text(json.dumps(payload))
        code, rep = run(capsys, "fisher", *QUTRIT, "--povm", str(files["--povm"]))
        assert code == 1
        assert rep["error"]["type"] == "InvalidPOVMError"
        assert rep["error"]["detail"]["completeness_residual"] > 0.1

    @pytest.mark.parametrize("matrix", [
        [[1.0]], [[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.0, float("nan")]],
        [["1", 0], [0, 1]], [[True, False], [False, True]], {"g": 1},
    ])
    def test_cost_matrix_not_a_finite_p_by_p_array(self, capsys, tmp_path, matrix):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(matrix))
        code, rep = run(capsys, "fisher", *QUTRIT, "--cost-matrix", str(path))
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("batches", ["0", "-2", "1"])
    def test_estimator_needs_two_batches(self, capsys, batches):
        code, rep = run(capsys, "simulate", "--model", "diag-multinomial", "--params", "dims=3",
                        "--theta", "0.3,0.45", "--trials", "1000", "--estimator",
                        "--batches", batches)
        assert code == 1
        assert rep["error"]["type"] == "QcrbSatError"
        assert "at least 2 batches" in rep["error"]["message"]


class TestOptions:
    def test_cond_tol_zero_is_used(self, capsys, tmp_path):
        base = ["--model", "diag-multinomial", "--params", "dims=3", "--theta", "0.2,0.3"]
        povm_path = tmp_path / "povm.json"
        assert main(["construct-povm", *base, "--povm-output", str(povm_path)]) == 0
        capsys.readouterr()
        for extra in ([], ["--povm", str(povm_path)]):
            code, rep = run(capsys, "fisher", *base, "--cond-tol", "0", *extra)
            assert code == 0
            assert rep["inputs"]["cond_tol"] == 0.0
            assert rep["conditions"]["tol"] == 0.0
            assert rep["saturation_certificate"]["tol"] == 0.0
            assert rep["fisher"]["tol"] == 0.0
        code, rep = run(capsys, "simulate", *base, "--cond-tol", "0", "--trials", "1000")
        assert code == 0
        assert rep["fisher"]["tol"] == 0.0

    def test_boolean_params(self, capsys):
        assert parse_params("a=true,b=False,c=TRUE,d=1,e=x") == {
            "a": True, "b": False, "c": True, "d": 1, "e": "x"}
        sizes = "seed=3,n_s=6,r_plus=3,n_params=2"
        code, rep = run(capsys, "analyze", "--model", "random-rank-r", "--theta", "0,0",
                        "--params", f"{sizes},plant_cond1=False")
        assert code == 0
        assert rep["inputs"]["params"]["plant_cond1"] is False
        assert rep["verdict"] == "NOT_SATURABLE"
        assert rep["conditions"]["condition1"]["passed"] is False
        code, rep = run(capsys, "analyze", "--model", "random-rank-r", "--theta", "0,0",
                        "--params", f"{sizes},plant_cond1=true")
        assert rep["verdict"] == "SATURABLE_CERTIFIED"


class TestParserReuse:
    def test_reused_parser_leaks_no_state(self, capsys, tmp_path, monkeypatch):
        base = ["analyze", "--model", "diag-multinomial", "--params", "dims=3", "--theta", "0.2,0.3"]
        assert cli.build_parser() is cli.build_parser()
        first = tmp_path / "a.json"
        assert main([*base, "--seed", "5", "--cond-tol", "0", "--output", str(first)]) == 0
        assert json.loads(first.read_text())["inputs"]["seed"] == 5
        assert json.loads(first.read_text())["inputs"]["cond_tol"] == 0.0
        assert main(base) == 0
        reused = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main([*base, "--scheme", "bogus"])
        capsys.readouterr()
        assert main(base) == 0
        after_error = capsys.readouterr().out

        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert main(base) == 0
        fresh = capsys.readouterr().out
        assert reused == fresh
        assert after_error == fresh
        rep = json.loads(fresh)
        assert rep["inputs"]["seed"] == 0
        assert rep["inputs"]["cond_tol"] == md.derivative_tol("analytic") > 0
