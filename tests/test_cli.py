import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcrbsat as qs
from qcrbsat import cli
from qcrbsat import fisher as fi
from qcrbsat import model as md
from qcrbsat import povm as pv
from qcrbsat.cli import main, parse_params
from test_conditions import pure_real_multinomial_point


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


QUTRIT = ["--model", "paper-qutrit", "--params", "d=0.6,c1=1,c2=0.7", "--theta", "0.3,0.5"]
PURE_QUBIT = ["--model", "pure-qubit-amp-phase", "--theta", "0.7,0.3"]


class TestAnalyze:
    def test_qutrit_certified(self, capsys):
        code, rep = run(capsys, "analyze", *QUTRIT, "--diagnostics")
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

    def test_dropped_null_outcomes_are_noted(self, capsys, tmp_path):
        """W = I does not align the null basis of this certified point: four null
        outcomes have curvature of rank two, and F_c leaves their information out."""
        params = "seed=0,n_s=8,r_plus=4,n_params=2"
        sp = qs.evaluate(qs.get("random-rank-r", seed=0, n_s=8, r_plus=4, n_params=2), [0.0, 0.0])
        dec = qs.support_decomposition(sp)
        povm = pv.construct_optimal(dec, qs.compute_sld(dec, sp.drho), W=np.eye(4))
        path = tmp_path / "unaligned.json"
        path.write_text(json.dumps(pv.povm_to_json(povm)))
        state = ["--model", "random-rank-r", "--params", params, "--theta", "0,0", "--povm", str(path)]
        for command in (["fisher"], ["simulate", "--trials", "1000"]):
            code, rep = run(capsys, *command, *state)
            assert code == 0
            assert rep["fisher"]["notes"] == [
                "null outcome(s) [4, 5, 6, 7] have curvature of rank above one; "
                "their information is left out of F_c"
            ]
            assert rep["fisher"]["saturated"] is False


PLANTED = ["--model", "random-rank-r", "--params", "seed=3,n_s=8,r_plus=4,n_params=3"]


class TestSeedIndependence:
    """``--seed`` seeds only simulate's sampling: every other report is a function of the
    state that records the seed, equal at every seed but for ``inputs.seed``."""

    @staticmethod
    def _pure_qutrit(tmp_path, n_params):
        # real amplitudes, r+ = 1 and r0 = 2: the W search takes the real-rows construction
        sp = pure_real_multinomial_point()
        sp = md.StateAtPoint(theta=None, rho=sp.rho, drho=sp.drho[:n_params], scheme="analytic")
        path = tmp_path / f"pure{n_params}.json"
        path.write_text(json.dumps(md.state_to_numeric_model(sp)))
        return ["--numeric-model", str(path)]

    @staticmethod
    def _reports(tmp_path, argv, extra=()):
        """The report of ``argv`` (and the files ``extra`` names) at seeds 0 and 7."""
        out = []
        for seed in (0, 7):
            named = {flag: tmp_path / f"{flag[2:]}{seed}.json" for flag in ("--output", *extra)}
            assert main([*argv, "--seed", str(seed),
                         *(x for flag, path in named.items() for x in (flag, str(path)))]) == 0
            out.append({flag: path.read_bytes() for flag, path in named.items()})
        return out

    @staticmethod
    def _without_seed(report):
        entries = report["sweep"] if "sweep" in report else [report]
        for entry in entries:
            assert entry.get("inputs", {}).pop("seed", 0) in (0, 7)
        return report

    @pytest.mark.parametrize("state", ["planted", "pure1", "pure2"])
    @pytest.mark.parametrize("command", ["analyze", "construct-povm", "fisher"])
    def test_reports_equal_but_for_the_seed(self, tmp_path, state, command):
        argv = ([*PLANTED, "--theta", "0,0,0"] if state == "planted"
                else self._pure_qutrit(tmp_path, int(state[-1])))
        extra = ("--povm-output",) if command == "construct-povm" else ()
        a, b = self._reports(tmp_path, [command, *argv], extra)
        assert json.loads(a["--output"])["verdict"] == "SATURABLE_CERTIFIED"
        assert a["--output"] != b["--output"]  # the seed is recorded
        assert (self._without_seed(json.loads(a["--output"]))
                == self._without_seed(json.loads(b["--output"])))
        if extra:
            assert a["--povm-output"] == b["--povm-output"]

    def test_sweep_equal_but_for_the_seed(self, tmp_path):
        # a certified point and one whose state is not positive semidefinite
        a, b = self._reports(tmp_path, ["sweep", *PLANTED, "--grid", "0:0.001:2,0:0:1,0:0:1"])
        a, b = (self._without_seed(json.loads(r["--output"])) for r in (a, b))
        assert [e.get("verdict") for e in a["sweep"]] == ["SATURABLE_CERTIFIED", None]
        assert a == b

    def test_simulate_samples_by_the_seed(self, tmp_path):
        a, b = self._reports(tmp_path, ["simulate", *PLANTED, "--theta", "0,0,0",
                                        "--trials", "1000"])
        a, b = (self._without_seed(json.loads(r["--output"])) for r in (a, b))
        assert a["monte_carlo"]["counts"] != b["monte_carlo"]["counts"]
        del a["monte_carlo"], b["monte_carlo"]
        assert a == b


class TestSimulate:
    def test_deterministic_records(self, capsys):
        code1, rep1 = run(capsys, "simulate", *QUTRIT, "--trials", "200000", "--seed", "42")
        code2, rep2 = run(capsys, "simulate", *QUTRIT, "--trials", "200000", "--seed", "42")
        assert code1 == code2 == 0
        assert rep1["monte_carlo"] == rep2["monte_carlo"]
        assert sum(rep1["monte_carlo"]["counts"]) == 200000

    def test_estimator_study_at_the_domain_boundary(self, capsys):
        code, rep = run(
            capsys, "simulate", "--model", "diag-multinomial", "--params", "dims=3",
            "--theta", "0.02,0.5", "--trials", "4000", "--batches", "4", "--estimator",
        )
        assert code == 0
        est = np.array(rep["monte_carlo"]["estimator"]["estimates"])
        assert np.all(est > 0.0) and np.all(np.abs(est - [0.02, 0.5]) <= 0.05)

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

    @staticmethod
    def _entries_are_analyze_reports(capsys, base, grid):
        """Each sweep entry is the `analyze` report at its point, or the error it raises."""
        code, rep = run(capsys, "sweep", *base, "--grid", grid)
        assert code == 0
        axes = [np.linspace(*map(float, ax.split(":")[:2]), int(ax.split(":")[2]))
                for ax in grid.split(",")]
        thetas = [(float(a), float(b)) for a in axes[0] for b in axes[1]]
        assert len(rep["sweep"]) == len(thetas)
        for (a, b), entry in zip(thetas, rep["sweep"]):
            code, direct = run(capsys, "analyze", *base, "--theta", f"{a!r},{b!r}")
            if code:
                assert entry == {"theta": [a, b], "error": direct["error"]}
            else:
                assert entry == direct
        return rep["sweep"]

    @pytest.mark.parametrize("scheme", ["analytic", "central_fd", "richardson"])
    def test_entries_are_the_analyze_reports(self, capsys, scheme):
        base = ["--model", "qutrit-phase-mixture", "--params", "d=0.3+0.4j,c1=1,c2=0.7",
                "--scheme", scheme]
        entries = self._entries_are_analyze_reports(capsys, base, "0.1:0.8:4,0.2:0.9:3")
        assert all(e["verdict"] == "SATURABLE_CERTIFIED" for e in entries)

    def test_error_entries_are_the_analyze_errors(self, capsys):
        # theta_1 = 0 lies on the edge of the domain: those points fail alone, the rest certify
        base = ["--model", "qutrit-phase-mixture", "--params", "d=0.6,c1=1,c2=0.7"]
        entries = self._entries_are_analyze_reports(capsys, base, "0.0:0.6:3,0.2:0.8:3")
        assert [e["error"]["type"] for e in entries[:3]] == ["DomainError"] * 3
        assert all(e["verdict"] == "SATURABLE_CERTIFIED" for e in entries[3:])

    def test_condition2prime_unchecked_beside_checked_points(self, capsys):
        # theta_1 = 5e-6 puts condition 2's stencil outside the domain; theta_1 = 0.4 does not
        base = ["--model", "qutrit-phase-mixture", "--params", "d=0.6,c1=1,c2=0.7",
                "--diagnostics"]
        entries = self._entries_are_analyze_reports(capsys, base, "5e-6:0.4:2,0.3:0.6:2")
        status = [e["conditions"]["condition2prime"]["status"] for e in entries]
        assert status == ["NOT_CHECKED"] * 2 + ["PASSED"] * 2
        assert all(e["verdict"] == "SATURABLE_CERTIFIED" for e in entries)


DIAGNOSTICS = ("full_commutativity", "partial_commutativity", "condition2prime")


class TestDiagnostics:
    """Without --diagnostics a report is the --diagnostics one with its three diagnostics null."""

    @pytest.mark.parametrize("argv", [
        ["analyze", *QUTRIT],
        ["analyze", *PURE_QUBIT],
        ["analyze", "--model", "qutrit-phase-mixture", "--params", "d=0.3+0.4j,c1=1,c2=0.7",
         "--theta", "5e-6,0.5"],  # condition 2' reads NOT_CHECKED with --diagnostics
        ["analyze", "--model", "random-rank-r", "--params", "seed=3,n_s=6,plant_cond4=false",
         "--theta", "0,0"],
        ["fisher", *QUTRIT],
        ["fisher", "--model", "diag-multinomial", "--theta", "0.2,0.3", "--scheme", "central_fd"],
        ["construct-povm", *QUTRIT],
        ["simulate", *QUTRIT, "--trials", "2000"],
        # error entries, entries whose condition 2' reads NOT_CHECKED and checked ones
        ["sweep", "--model", "qutrit-phase-mixture", "--params", "d=0.6,c1=1,c2=0.7",
         "--grid", "0.0:0.6:3,5e-6:0.8:3"],
    ])
    def test_default_is_the_diagnostics_report_with_three_nulls(self, capsys, argv):
        code, default = run(capsys, *argv)
        code_on, on = run(capsys, *argv, "--diagnostics")
        assert code == code_on == 0
        entries, entries_on = default.get("sweep", [default]), on.get("sweep", [on])
        assert any("conditions" in e for e in entries)
        for entry, entry_on in zip(entries, entries_on):
            if "error" in entry:
                continue
            for key in DIAGNOSTICS:
                assert entry["conditions"][key] is None
                assert entry_on["conditions"][key] is not None  # registry models only
                entry_on["conditions"][key] = None
        assert default == on

    def test_numeric_model_has_no_condition2prime_either_way(self, capsys, tmp_path,
                                                              qutrit_point):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(md.state_to_numeric_model(qutrit_point)))
        _, default = run(capsys, "analyze", "--numeric-model", str(path))
        _, on = run(capsys, "analyze", "--numeric-model", str(path), "--diagnostics")
        assert on["conditions"]["condition2prime"] is None
        assert on["conditions"]["partial_commutativity"]["passed"]
        for key in DIAGNOSTICS:
            assert default["conditions"][key] is None
            on["conditions"][key] = None
        assert default == on

    def test_default_run_calls_no_witness_map(self, capsys, monkeypatch):
        asked, get = [], cli.fixtures.get

        def get_counted(name, **params):
            model = get(name, **params)
            u = model.witness.unitary_fn
            return dataclasses.replace(model, witness=dataclasses.replace(
                model.witness, unitary_fn=lambda theta: asked.append(theta) or u(theta)))

        monkeypatch.setattr(cli.fixtures, "get", get_counted)
        assert run(capsys, "analyze", *QUTRIT)[0] == 0
        assert asked == []
        assert run(capsys, "analyze", *QUTRIT, "--diagnostics")[0] == 0
        assert asked

    @pytest.mark.parametrize("argv", [["analyze", "--theta", "0.3,0.5"],
                                      ["sweep", "--grid", "0.1:0.9:2,0.1:0.9:2"]])
    def test_unknown_parameter_is_refused_by_name(self, capsys, argv):
        # the witness comes with the model, so --params is read once, by the model's builder
        code = main([*argv, "--model", "qutrit-phase-mixture", "--params", "foo=1",
                     "--diagnostics"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "ParameterError" and error["detail"] == {"parameter": "foo"}


class TestSchemes:
    def test_central_fd_pipeline(self, capsys):
        code, rep = run(capsys, "fisher", *QUTRIT[:-2], "--theta", "0.3,0.5",
                        "--scheme", "central_fd", "--fd-step", "1e-5")
        assert code == 0
        assert rep["inputs"]["scheme"] == "central_fd(h=1e-05)"
        assert rep["inputs"]["cond_tol"] == 1e-4  # FD default tolerance
        assert rep["verdict"] == "SATURABLE_CERTIFIED"
        assert rep["fisher"]["saturated"] is True

    def test_fd_null_outcome_judged_at_the_scheme_tolerance(self, capsys):
        # the null outcome's derivative is O(h^2) from the stencil, not 1e-8 small, so it is
        # judged at the scheme's 1e-4 like every other derivative, as analyze judges it
        argv = [*QUTRIT, "--scheme", "central_fd", "--fd-step", "1e-3"]
        code, rep = run(capsys, "analyze", *argv)
        assert code == 0 and rep["verdict"] == "SATURABLE_CERTIFIED"
        code, rep = run(capsys, "fisher", *argv)
        assert code == 0
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

    @pytest.mark.parametrize("extra, given", [
        (["--model", "qutrit-phase-mixture", "--theta", "0.3,0.5"], ["--model", "--theta"]),
        (["--params", "d=0.6"], ["--params"]),
        (["--theta", "0.3,0.5"], ["--theta"]),
    ])
    def test_numeric_model_refuses_the_registry_options(self, capsys, tmp_path, qutrit_point,
                                                        extra, given):
        # the file holds the whole state: the options would be dropped unread
        path = tmp_path / "m.json"
        path.write_text(json.dumps(md.state_to_numeric_model(qutrit_point)))
        code, rep = run(capsys, "analyze", "--numeric-model", str(path), *extra)
        assert code == 1
        assert rep["error"]["type"] == "QcrbSatError"
        assert rep["error"]["detail"] == {"options": given}
        assert rep["error"]["message"] == f"--numeric-model does not read {', '.join(given)}"

    def test_sweep_refuses_theta(self, capsys):
        code, rep = run(capsys, "sweep", *QUTRIT[:-2], "--grid", "0.1:0.9:3,0.1:0.9:3",
                        "--theta", "9,9")
        assert code == 1
        assert rep["error"]["type"] == "QcrbSatError"
        assert rep["error"]["detail"] == {"options": ["--theta"]}
        assert "--theta" in rep["error"]["message"]

    @pytest.mark.parametrize("grid", ["0.1:0.9:x,0.1:0.9:3", "0.1:0.9:2.5,0.1:0.9:3",
                                      "a:0.9:3,0.1:0.9:3"])
    def test_malformed_grid(self, capsys, grid):
        code, rep = run(capsys, "sweep", "--model", "paper-qutrit", "--grid", grid)
        assert code == 1
        assert rep["error"]["type"] == "QcrbSatError"
        assert "malformed grid axis" in rep["error"]["message"]

    def test_map_error_is_a_report(self, capsys, monkeypatch, qutrit_model):
        # a derivative map that fails with a bare numpy error ends in a typed report,
        # and a sweep records it per point
        def derivative(theta):
            raise IndexError("index 2 is out of bounds for axis 0 with size 2")

        broken = dataclasses.replace(qutrit_model, derivative_fn=derivative)
        monkeypatch.setattr(cli.fixtures, "get", lambda name, **params: broken)
        code, rep = run(capsys, "analyze", *QUTRIT)
        assert code == 1
        assert rep["error"]["type"] == "InvalidStateError"
        assert rep["error"]["message"].startswith("derivative map failed")
        code, rep = run(capsys, "sweep", *QUTRIT[:-2], "--grid", "0.3:0.3:1,0.5:0.5:1")
        assert code == 0
        assert rep["sweep"][0]["error"]["type"] == "InvalidStateError"

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-1"])
    def test_bad_fd_step_blames_the_step(self, capsys, step):
        code, rep = run(capsys, "analyze", "--model", "paper-qutrit", "--theta", "0.3,0.5",
                        "--scheme", "central_fd", f"--fd-step={step}")
        assert code == 1
        assert rep["error"]["type"] == "DomainError"
        assert rep["error"]["message"].startswith("finite-difference step must be")
        assert "theta" not in rep["error"]["message"]

    @pytest.mark.parametrize("step", ["1e-300", "1e-17"])
    def test_fd_step_that_does_not_move_theta(self, capsys, step):
        # theta +/- h rounds to theta: every difference would be 0 and the QFIM the zero matrix
        code, rep = run(capsys, "analyze", *QUTRIT, "--scheme", "central_fd", f"--fd-step={step}")
        assert code == 1
        assert rep["error"]["type"] == "DomainError"
        assert rep["error"]["message"].startswith(f"finite-difference step {float(step):g} ")
        assert "does not move theta [0.3, 0.5]" in rep["error"]["message"]
        assert rep["error"]["detail"] == {"theta": [0.3, 0.5], "step": float(step)}

    @pytest.mark.parametrize("model, params, theta, name", [
        ("random-rank-r", "seed=abc", "0,0", "seed"),
        ("random-rank-r", "seed=-1", "0,0", "seed"),
        ("paper-qutrit", "c1=x", "0.3,0.5", "c1"),
        ("paper-qutrit", "d=x", "0.3,0.5", "d"),
        ("paper-qutrit", "bogus=1", "0.3,0.5", "bogus"),
        ("pure-qubit-amp-phase", "bogus=1", "0.7,0.2", "bogus"),
        ("diag-multinomial", "dims=2.5", "0.3", "dims"),
        ("diag-multinomial", "dims=true", "0.3", "dims"),
        ("random-rank-r", "seed=3,n_s=6,r_plus=3,plant_cond1=no", "0,0", "plant_cond1"),
        ("random-rank-r", "seed=3,n_s=6,r_plus=3,plant_cond4=0", "0,0", "plant_cond4"),
        # out of range
        ("paper-qutrit", "d=1.5", "0.3,0.5", "d"),
        ("paper-qutrit", "c1=0", "0.3,0.5", "c1"),
        ("stationary-basis", "c2=0", "0.3,-0.4", "c2"),
        ("diag-multinomial", "dims=1", "0.3", "dims"),
        ("random-rank-r", "seed=1,n_s=0,r_plus=0", "0,0", "n_s"),
        ("random-rank-r", "seed=1,n_s=-2,r_plus=1", "0,0", "n_s"),
        ("random-rank-r", "seed=1,n_s=4,r_plus=0", "0,0", "r_plus"),
        ("random-rank-r", "seed=1,n_s=4,r_plus=5", "0,0", "r_plus"),
        ("random-rank-r", "seed=1,n_s=4,r_plus=2,n_params=0", "0", "n_params"),
        ("random-rank-r", "seed=1,n_s=4,r_plus=2,n_params=-1", "0", "n_params"),
        ("random-rank-r", "seed=1,n_s=6,r_plus=2", "0,0", "plant_cond4"),
    ])
    def test_malformed_model_parameter(self, capsys, model, params, theta, name):
        code, rep = run(capsys, "analyze", "--model", model, "--params", params, "--theta", theta)
        assert code == 1
        assert rep["error"]["type"] == "ParameterError"
        assert rep["error"]["detail"] == {"parameter": name}
        assert repr(name) in rep["error"]["message"]


class TestTypedRefusals:
    """Each refusal writes its typed error report to --output, exits 1 and prints nothing."""

    @pytest.mark.parametrize("argv, message, detail", [
        (["analyze", "--model", "paper-qutrit", "--params", "d=0.6,,c1=1", "--theta", "0.3,0.5"],
         "malformed parameter '', expected k=v", {"option": "--params", "value": "d=0.6,,c1=1"}),
        (["analyze", "--model", "paper-qutrit", "--theta", "0.3,x"],
         "malformed theta '0.3,x', expected comma-separated floats",
         {"option": "--theta", "value": "0.3,x"}),
        (["sweep", "--model", "paper-qutrit", "--grid", "0.1:0.9:x,0.1:0.9:3"],
         "malformed grid axis '0.1:0.9:x', expected start:stop:count",
         {"option": "--grid", "value": "0.1:0.9:x,0.1:0.9:3"}),
        (["sweep", "--model", "paper-qutrit", "--grid", "0.1:0.5:0,0.1:0.9:3"],
         "grid axis needs at least one point, got 0",
         {"option": "--grid", "value": "0.1:0.5:0,0.1:0.9:3"}),
        # a non-finite end would write nan or inf into the report's theta, which is not JSON
        (["sweep", "--model", "paper-qutrit", "--grid", "nan:0.9:2,0.1:0.9:1"],
         "grid axis 'nan:0.9:2' needs a finite start and stop",
         {"option": "--grid", "value": "nan:0.9:2,0.1:0.9:1"}),
        (["sweep", "--model", "paper-qutrit", "--grid", "0.1:0.9:1,0.1:inf:2"],
         "grid axis '0.1:inf:2' needs a finite start and stop",
         {"option": "--grid", "value": "0.1:0.9:1,0.1:inf:2"}),
        (["sweep", "--model", "paper-qutrit", "--grid", "0.1:0.9:1,-inf:0.9:1"],
         "grid axis '-inf:0.9:1' needs a finite start and stop",
         {"option": "--grid", "value": "0.1:0.9:1,-inf:0.9:1"}),
        (["analyze", "--theta", "0.3,0.5"], "either --model or --numeric-model is required",
         {"option": "--model", "value": None}),
        (["analyze", "--model", "paper-qutrit"], "--theta is required with --model",
         {"option": "--theta", "value": None}),
        (["sweep", "--grid", "0.1:0.9:3,0.1:0.9:3"],
         "sweep requires --model (numeric models are single-point)",
         {"option": "--model", "value": None}),
        (["sweep", "--model", "paper-qutrit", "--grid", "0.1:0.9:3"],
         "grid has 1 axes, model has 2 parameters", {"option": "--grid", "value": "0.1:0.9:3"}),
        (["simulate", *QUTRIT, "--trials", "0"], "need at least one trial, got 0", {"trials": 0}),
        (["simulate", *QUTRIT, "--trials", "1000", "--batches", "1", "--estimator"],
         "the estimator study needs at least 2 batches, got 1", {"batches": 1}),
        (["simulate", "--numeric-model", "{qutrit}", "--trials", "1000", "--estimator"],
         "the estimator study needs a registry model", {"option": "--model", "value": None}),
    ])
    def test_refusal_is_a_report(self, capsys, tmp_path, qutrit_point, argv, message, detail):
        qutrit = tmp_path / "qutrit.json"
        qutrit.write_text(json.dumps(md.state_to_numeric_model(qutrit_point)))
        out = tmp_path / "out.json"
        code = main([a.format(qutrit=qutrit) for a in argv] + ["--output", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "")
        rep = json.loads(out.read_text())
        assert rep["error"]["type"] == "QcrbSatError"
        assert rep["error"]["message"] == message
        assert rep["error"]["detail"] == detail


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

    @pytest.mark.parametrize("state, edit, error", [
        *((QUTRIT, edit, "SchemaError") for edit in (
            {"n_s": True}, {"classification": ["regular", "other", "null"]}, {"basis": None},
            {"elements": [[[[1, 0]]]]}, {"ranks": [2, 2]}, {"ranks": [1, False, 2]},
        )),
        # a qubit pair |0><0| + 0.3i sigma_x, |1><1| - 0.3i sigma_x: complete and with a
        # positive Hermitian part, but element 0 is not Hermitian
        (PURE_QUBIT, {"n_s": 2, "basis": None, "ranks": None, "classification": None,
                      "elements": [[[[1, 0], [0, 0.3]], [[0, 0.3], [0, 0]]],
                                   [[[0, 0], [0, -0.3]], [[0, -0.3], [1, 0]]]]},
         "InvalidPOVMError"),
    ])
    def test_malformed_measurement(self, capsys, files, state, edit, error):
        payload = json.loads(files["--povm"].read_text())
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        files["--povm"].write_text(json.dumps(payload))
        code, rep = run(capsys, "fisher", *state, "--povm", str(files["--povm"]))
        assert code == 1
        assert rep["error"]["type"] == error
        if error == "SchemaError":
            assert all(key in rep["error"]["message"] for key in edit)  # names what is wrong
        else:
            assert rep["error"]["message"].startswith("POVM element 0 is not Hermitian")
            assert rep["error"]["detail"]["element"] == 0
            assert rep["error"]["detail"]["herm_defect"] == pytest.approx(0.6 * np.sqrt(2))

    @pytest.mark.parametrize("key", ["n_s", "p"])
    def test_boolean_count_in_numeric_model(self, capsys, files, key):
        payload = json.loads(files["--numeric-model"].read_text())
        payload[key] = True
        files["--numeric-model"].write_text(json.dumps(payload))
        code, rep = run(capsys, "analyze", "--numeric-model", str(files["--numeric-model"]))
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"
        assert rep["error"]["message"] == f"{key} must be a positive integer"

    @pytest.mark.parametrize("flag, key", [
        ("--numeric-model", "rho"), ("--numeric-model", "drho"), ("--povm", "basis"),
    ])
    def test_number_beyond_the_float_range(self, capsys, files, flag, key):
        payload = json.loads(files[flag].read_text())
        matrix = payload[key][0] if key == "drho" else payload[key]
        matrix[0][0][0] = 10**400
        files[flag].write_text(json.dumps(payload))
        extra = [flag, str(files[flag])] if flag == "--povm" else []
        code, rep = run(capsys, "fisher", "--numeric-model", str(files["--numeric-model"]), *extra)
        assert code == 1
        assert rep["error"]["type"] == "SchemaError"
        assert rep["error"]["message"].endswith("entries beyond the float range")

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
        [[1, 0], [0, -1]], [[1, 5], [-5, 1]],
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
        assert rep["error"]["detail"] == {"batches": int(batches)}

    def test_estimator_needs_a_trial_per_batch(self, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(fi, "sample_outcomes", lambda *a: drawn.append(a))
        code, rep = run(capsys, "simulate", *QUTRIT, "--trials", "10", "--batches", "20",
                        "--estimator")
        assert code == 1
        assert rep["error"]["type"] == "QcrbSatError"
        assert rep["error"]["detail"] == {"trials": 10, "batches": 20}
        assert drawn == []


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

    def test_cond_tol_below_the_scheme_tolerance(self, capsys):
        code, rep = run(capsys, "analyze", *QUTRIT, "--cond-tol", "0")
        assert code == 0
        assert rep["inputs"]["cond_tol"] == 0.0
        assert rep["conditions"]["tol"] == 0.0
        # the SLD solve is checked at the scheme's tolerance, so nothing else moves
        code, base = run(capsys, "analyze", *QUTRIT)
        assert code == 0
        assert rep["qfim"] == base["qfim"]
        assert rep["support"] == base["support"]

    def test_rounding_contradiction_certifies_nothing(self, capsys):
        # condition 3's residual 1.8e-16 exceeds the tolerance beside a verified W
        code, rep = run(capsys, "analyze", *QUTRIT, "--cond-tol", "1e-16")
        assert code == 0
        conditions = rep["conditions"]
        assert conditions["condition3"]["passed"] is False
        assert conditions["condition4"]["status"] == "CERTIFIED_YES"
        assert rep["verdict"] == "INCONCLUSIVE"
        assert "rounding contradiction" in conditions["reasoning"][-1]
        code, rep = run(capsys, "fisher", *QUTRIT, "--cond-tol", "1e-16")
        assert code == 1
        assert rep["error"]["type"] == "NotCertifiedError"

    @pytest.mark.parametrize("command", ["analyze", "fisher"])
    @pytest.mark.parametrize("flag, value", [
        ("--cond-tol", "inf"), ("--cond-tol", "nan"), ("--cond-tol", "-1"),
        ("--rank-tol", "nan"), ("--rank-tol", "-1"),
    ])
    def test_malformed_tolerance(self, capsys, command, flag, value):
        # unrefused, inf would certify the pure qubit and nan or -1 refute the certified qutrit
        for state in (QUTRIT, ["--model", "pure-qubit-amp-phase", "--theta", "0.7,0.3"]):
            code = main([command, *state, flag, value])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == ""
            error = json.loads(captured.out)["error"]
            assert error["type"] == "InvalidToleranceError"
            assert error["detail"] == {"tolerance": flag[2:].replace("-", "_"),
                                       "value": repr(float(value))}

    @pytest.mark.parametrize("command, extra", [
        ("analyze", QUTRIT), ("construct-povm", QUTRIT), ("fisher", QUTRIT),
        ("simulate", [*QUTRIT, "--trials", "100"]),
        ("sweep", ["--model", "paper-qutrit", "--grid", "0.1:0.9:2,0.1:0.9:2"]),
    ])
    def test_negative_seed_refused(self, capsys, command, extra):
        code = main([command, *extra, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "QcrbSatError"
        assert error["detail"] == {"option": "--seed", "value": -1}
        assert "--seed" in error["message"]

    @pytest.mark.parametrize("case", ["missing directory", "a directory", "povm-output"])
    def test_unwritable_output_file(self, capsys, tmp_path, case):
        # the error report goes to --output when it can be written, else to stdout
        report, missing = tmp_path / "report.json", str(tmp_path / "nowhere" / "x.json")
        argv, option, path = {
            "missing directory": (["analyze", *QUTRIT, "--output", missing], "--output", missing),
            "a directory": (["analyze", *QUTRIT, "--output", str(tmp_path)], "--output",
                            str(tmp_path)),
            "povm-output": (["construct-povm", *QUTRIT, "--povm-output", missing, "--output",
                             str(report)], "--povm-output", missing),
        }[case]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        text = report.read_text() if option == "--povm-output" else captured.out
        error = json.loads(text)["error"]
        assert error["type"] == "QcrbSatError"
        assert error["detail"] == {"option": option, "path": path}
        assert option in error["message"] and path in error["message"]

    def test_output_to_a_device(self, capsys):
        assert main(["analyze", *QUTRIT, "--output", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_short_report_over_a_long_one(self, tmp_path):
        # the file is rewritten in place and cut: no tail of the sweep is left
        fresh, reused = tmp_path / "a.json", tmp_path / "r.json"
        grid = ["--grid", "0.1:0.9:3,0.1:0.9:3"]
        assert main(["analyze", *QUTRIT, "--output", str(fresh)]) == 0
        assert main(["sweep", *QUTRIT[:4], *grid, "--output", str(reused)]) == 0
        assert reused.stat().st_size > fresh.stat().st_size
        assert main(["analyze", *QUTRIT, "--output", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert main(["sweep", *QUTRIT[:4], *grid, "--output", str(fresh)]) == 0
        assert main(["sweep", *QUTRIT[:4], *grid, "--output", str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()

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


class TestClosedStdout:
    def test_reader_closing_early_leaves_no_traceback(self):
        # the 9x9 sweep writes about 0.2 MB, more than a pipe holds, so the writer meets
        # the closed pipe: it exits 1 and writes nothing more, to stderr either
        src = str(Path(qs.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "qcrbsat.cli", "sweep", "--model", "qutrit-phase-mixture",
                "--params", "d=0.6,c1=1,c2=0.7", "--grid", "0.1:0.9:9,0.1:0.9:9"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in err
        assert err == b""
