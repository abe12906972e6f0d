import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from thermops import majorization, thermo
from thermops.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "ctx": write("ctx.json", {"energies": [0, 1, 2], "beta": 1.2}),
        "ctx2": write("ctx2.json", {"energies": [0, 1], "beta": 1.0}),
        "x": write("x.json", {"diag": [1 / 3, 1 / 3, 1 / 3]}),
        "y": write("y.json", {"diag": [2 / 3, 1 / 3, 0]}),
        "g": write("g.json", {"diag": [0.5, 0.375, 0.125]}),
        "rho": write("rho.json", {"re": [[0.5, 0.3], [0.3, 0.5]]}),
        "bad": write("bad.json", "not a dict"),
        "tmp": tmp_path,
    }


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestCheck:
    def test_worked_pair(self, runner, files):
        doc = run_json(
            runner, ["check", "--context", files["ctx"], "--x", files["x"], "--y", files["y"]]
        )
        assert doc["thermo_majorizes"] is False
        assert doc["reverse"] is False
        assert doc["alpha_laws"]["passed"] is False

    def test_laws_table(self, runner, files):
        doc = run_json(
            runner,
            ["check", "--context", files["ctx"], "--x", files["x"], "--y", files["y"], "--laws"],
        )
        table = doc["alpha_laws"]["violations"]
        assert table and all(len(row) == 2 for row in table)
        violated = {row[0] for row in table}
        assert 1.0 not in violated

    def test_lp_cross_check(self, runner, files):
        doc = run_json(
            runner,
            [
                "check",
                "--context",
                files["ctx"],
                "--x",
                files["x"],
                "--y",
                files["y"],
                "--lp-cross-check",
            ],
        )
        assert doc["lp_feasible"] is False

    def test_beta_flag_overrides_file(self, runner, files):
        doc = run_json(
            runner,
            [
                "check",
                "--context",
                files["ctx"],
                "--x",
                files["x"],
                "--y",
                files["y"],
                "--beta",
                "0",
            ],
        )
        # at infinite temperature the pair is comparable (plain majorisation)
        assert doc["thermo_majorizes"] is False
        assert doc["reverse"] is True
        assert doc["alpha_laws"] is None

    def test_determinism(self, runner, files):
        args = ["check", "--context", files["ctx"], "--x", files["x"], "--y", files["y"], "--laws"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2


class TestCurve:
    def test_csv_round_trip(self, runner, files):
        out = files["tmp"] / "curve.csv"
        doc = run_json(
            runner,
            ["curve", "--context", files["ctx"], "--state", files["x"], "--out", str(out)],
        )
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y"]
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
        assert doc["end"][1] == pytest.approx(1.0)

    def test_thermal_state_two_points(self, runner, files, tmp_path):
        gpath = tmp_path / "gstate.json"
        ctx_doc = json.load(open(files["ctx"]))
        e = np.array(ctx_doc["energies"], dtype=float)
        w = np.exp(-ctx_doc["beta"] * e)
        gpath.write_text(json.dumps({"diag": (w / w.sum()).tolist()}))
        out = tmp_path / "gcurve.csv"
        run_json(
            runner, ["curve", "--context", files["ctx"], "--state", str(gpath), "--out", str(out)]
        )
        rows = list(csv.reader(open(out)))[1:]
        ys = np.array([float(r[1]) for r in rows])
        xs = np.array([float(r[0]) for r in rows])
        np.testing.assert_allclose(ys, xs / xs[-1], atol=1e-9)


class TestConstruct:
    def test_residuals_reported(self, runner, files, tmp_path):
        xpath = tmp_path / "cx.json"
        ypath = tmp_path / "cy.json"
        xpath.write_text(json.dumps({"diag": [0.7, 0.2, 0.1]}))
        g = [0.5, 0.375, 0.125]
        lam = 0.6
        y = [(1 - lam) * xi + lam * gi for xi, gi in zip([0.7, 0.2, 0.1], g)]
        ypath.write_text(json.dumps({"diag": y}))
        ctx = tmp_path / "cctx.json"
        ctx.write_text(
            json.dumps({"energies": [0, math.log(4 / 3), math.log(4)], "beta": 1.0})
        )
        doc = run_json(
            runner,
            ["construct", "--context", str(ctx), "--x", str(xpath), "--y", str(ypath), "--d-max", "8"],
        )
        assert doc["approx_error"] == 0.0
        assert doc["map_residual"] <= 1e-9
        assert doc["fixed_point_residual"] <= 1e-10
        m = np.array(doc["matrix"])
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)

    def test_huge_d_max_is_input_error(self, runner, files):
        start = time.perf_counter()
        result = runner.invoke(
            main,
            ["construct", "--context", files["ctx"], "--x", files["x"], "--y", files["x"], "--d-max", "1000000000"],
        )
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        doc = json.loads(result.output)
        assert doc["error"] == "InvalidInputError"
        assert "at most" in doc["message"]

    def test_infeasible_is_domain_error(self, runner, files):
        result = runner.invoke(
            main, ["construct", "--context", files["ctx"], "--x", files["y"], "--y", files["x"]]
        )
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["error"] == "OrderingError"

    def test_huge_d_max_precedes_ordering_error(self, runner, files):
        # the pair of test_infeasible_is_domain_error, with an invalid cap
        result = runner.invoke(
            main,
            ["construct", "--context", files["ctx"], "--x", files["y"], "--y", files["x"], "--d-max", "1000000000"],
        )
        assert result.exit_code == 2
        assert "at most" in json.loads(result.output)["message"]

    def test_rationalizes_once_and_never_checks_embedded_pair(self, runner, files, monkeypatch, tmp_path):
        # the map is built on the true g; one rationalize call fills the
        # reported d, D and approx_error
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(majorization, "majorizes", counted(majorization.majorizes))
        monkeypatch.setattr(thermo, "rationalize", counted(thermo.rationalize))
        ctx = tmp_path / "cctx.json"
        ctx.write_text(json.dumps({"energies": [0, math.log(4 / 3), math.log(4)], "beta": 1.0}))
        doc = run_json(runner, ["construct", "--context", str(ctx), "--x", files["x"], "--y", files["g"]])
        assert doc["D"] == 8
        assert calls == ["rationalize"]

    def test_fixed_point_residual_is_against_the_true_gibbs_vector(self, runner, files, tmp_path):
        # beta = 1.2 on levels 0, 1, 2: g is irrational, so d/D misses it by
        # approx_error while the map fixes g itself
        w = np.exp(-1.2 * np.arange(3.0))
        y = 0.5 * np.array([2 / 3, 1 / 3, 0.0]) + 0.5 * w / w.sum()
        ypath = tmp_path / "half.json"
        ypath.write_text(json.dumps({"diag": y.tolist()}))
        doc = run_json(runner, ["construct", "--context", files["ctx"], "--x", files["y"], "--y", str(ypath)])
        assert doc["approx_error"] > 1e-3
        assert doc["map_residual"] <= 1e-12
        assert doc["fixed_point_residual"] <= 1e-12
        m = np.array(doc["matrix"])
        assert np.max(np.abs(m @ (w / w.sum()) - w / w.sum())) <= 1e-12


class TestWork:
    def test_full_support_zero(self, runner, files):
        doc = run_json(runner, ["work", "det", "--context", files["ctx"], "--state", files["x"]])
        assert doc["work"] == 0.0

    def test_oracle_gap(self, runner, files):
        doc = run_json(
            runner,
            ["work", "for", "--context", files["ctx"], "--state", files["y"], "--oracle"],
        )
        assert doc["oracle_gap"] <= 1e-12


class TestQuantumCommands:
    def test_asymmetry(self, runner, files):
        doc = run_json(
            runner,
            ["asymmetry", "--context", files["ctx2"], "--state", files["rho"], "--alpha", "2"],
        )
        assert doc["asymmetry"] > 0
        assert doc["asymmetry_alpha"] >= doc["asymmetry"] - 1e-9

    def test_split_identity(self, runner, files):
        doc = run_json(runner, ["split", "--context", files["ctx2"], "--state", files["rho"]])
        assert doc["identity_residual"] <= 1e-10

    def test_modes_reparse(self, runner, files):
        doc = run_json(runner, ["modes", "--context", files["ctx"], "--state", files["x"]])
        assert doc["omegas"] == [0.0]

    def test_qubit_region(self, runner, files, tmp_path):
        out = tmp_path / "region.csv"
        doc = run_json(
            runner,
            [
                "qubit-region",
                "--context",
                files["ctx2"],
                "--p",
                "0.3",
                "--c",
                "0.2",
                "--samples",
                "11",
                "--out",
                str(out),
                "--verify",
            ],
        )
        assert doc["verify_residual"] <= 1e-10
        rows = list(csv.reader(open(out)))[1:]
        assert len(rows) == 11

    def test_ladder(self, runner, files, tmp_path):
        rho = np.eye(3) / 3
        rho[2, 1] = rho[1, 2] = 0.2
        spath = tmp_path / "lrho.json"
        spath.write_text(json.dumps({"re": rho.tolist()}))
        doc = run_json(
            runner,
            ["ladder", "--state", str(spath), "--beta", "1", "--n-trunc", "40", "--direction", "down"],
        )
        moved = doc["state"]["re"][1][0]
        assert moved == pytest.approx(0.2, abs=1e-9)

    def test_simulate_bath(self, runner, files, tmp_path):
        ctx = tmp_path / "bctx.json"
        ctx.write_text(json.dumps({"energies": [0, math.log(2)], "beta": 1.0}))
        target = tmp_path / "target.json"
        g = [2 / 3, 1 / 3]
        lam = 0.5
        m = [
            [1 - lam + lam * g[0], lam * g[0]],
            [lam * g[1], 1 - lam + lam * g[1]],
        ]
        target.write_text(json.dumps({"entries": m}))
        doc = run_json(
            runner, ["simulate-bath", "--context", str(ctx), "--target", str(target), "--ge", "600"]
        )
        assert doc["residual"] <= 1e-12

    def test_simulate_bath_huge_ge(self, runner, tmp_path):
        ctx = tmp_path / "bctx.json"
        ctx.write_text(json.dumps({"energies": [0, 1], "beta": 1.0}))
        target = tmp_path / "target.json"
        g = [1 / (1 + math.exp(-1)), math.exp(-1) / (1 + math.exp(-1))]
        m = [[0.5 + 0.5 * g[0], 0.5 * g[0]], [0.5 * g[1], 0.5 + 0.5 * g[1]]]
        target.write_text(json.dumps({"entries": m}))
        args = ["simulate-bath", "--context", str(ctx), "--target", str(target), "--ge"]
        start = time.perf_counter()
        doc = run_json(runner, args + ["1000000000"])
        assert time.perf_counter() - start < 1.0
        assert doc["residual"] <= 2 / 1e9  # criterion 14's n / gE
        result = runner.invoke(main, args + [str(10**17)])
        assert result.exit_code == 2
        doc = json.loads(result.output)
        assert doc["error"] == "InvalidInputError"
        assert "2**53" in doc["message"]


class TestErrorPaths:
    def test_missing_file_exit_two(self, runner, files):
        result = runner.invoke(
            main, ["check", "--context", "/nonexistent.json", "--x", files["x"], "--y", files["y"]]
        )
        assert result.exit_code == 2

    def test_malformed_json_diagnostics(self, runner, files, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"energies": [0, 1,')
        result = runner.invoke(
            main, ["check", "--context", str(bad), "--x", files["x"], "--y", files["y"]]
        )
        assert result.exit_code == 2
        doc = json.loads(result.output)
        assert "line" in doc["message"]

    def test_wrong_schema_exit_two(self, runner, files):
        result = runner.invoke(
            main, ["check", "--context", files["bad"], "--x", files["x"], "--y", files["y"]]
        )
        assert result.exit_code == 2

    def test_unreachable_qubit_exit_one(self, runner, files, tmp_path):
        out = tmp_path / "r.csv"
        result = runner.invoke(
            main,
            [
                "qubit-region",
                "--context",
                files["ctx"],  # three levels: invalid for qubit ops
                "--p",
                "0.3",
                "--c",
                "0.1",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 2  # dimension problem is an input error


def test_cli_import_leaves_scipy_unloaded():
    """Only the LP oracle needs scipy; it imports scipy.optimize when called."""
    path = [str(pathlib.Path(thermo.__file__).parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, thermops.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "False"
