"""End-to-end exercises of the command-line interface."""

import csv
import json
import re

import numpy as np
import pytest

from iterlace.cli import main
from shared import toy_config, write_csv


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def toy_dir(tmp_path):
    """Poisson counts with an exponential-marginal rate: iterates to converge."""
    rng = np.random.default_rng(7)
    y = rng.poisson(2.0, size=30)
    write_csv(tmp_path / "counts.csv", ["y"], [[int(v)] for v in y])
    cfg = dict(toy_config("counts.csv"), options={"seed": 42})
    (tmp_path / "model.json").write_text(json.dumps(cfg))
    return tmp_path, y


@pytest.fixture
def gls_dir(tmp_path):
    """Gaussian regression with fixed precision: one linearisation pass."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=40)
    y = 1.5 - 0.7 * x + 0.3 * rng.standard_normal(40)
    write_csv(tmp_path / "d.csv", ["x", "y"], [[a, b] for a, b in zip(x, y)])
    cfg = {
        "components": [
            {"name": "b0", "model": "constant"},
            {"name": "b1", "model": "linear",
             "input": {"kind": "column", "column": "x"}},
        ],
        "likelihoods": [{
            "family": "gaussian", "response": "y", "formula": "~ b0 + b1",
            "data": "d.csv",
            "hyper": {"prec": {"initial": 11.1, "fixed": True}},
        }],
        "options": {"seed": 1},
    }
    (tmp_path / "model.json").write_text(json.dumps(cfg))
    return tmp_path


def fit_toy(toy_dir, capsys, extra=()):
    tmp_path, y = toy_dir
    out = tmp_path / "out"
    code, stdout = run_cli(
        list(extra) + ["fit", "-m", tmp_path / "model.json", "-o", out], capsys)
    assert code == 0
    return out, y, stdout


LOG_PATTERNS = [
    r"iinla: Iteration \d+ \[max:\d+\] \(level 1\)",
    r"iinla: Step rescaling: \d+(?:\.\d+)?",
    r"iinla: Max deviation from previous: \d+(?:\.\d+)?",
    r"       \[stop if: <\d+(?:\.\d+)?",
    r"iinla: Convergence criterion met\.",
    r"(?:iinla: |       )Running final INLA integration step with known theta mode\. \(level 1\)",
]


class TestFit:
    def test_outputs_and_convergence(self, toy_dir, capsys):
        out, y, stdout = fit_toy(toy_dir, capsys)
        assert (out / "fit.json").exists()
        assert (out / "convergence.csv").exists()
        assert (out / "log.txt").exists()
        assert str(out / "fit.json") in stdout

        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"] is True
        assert 2 <= len(doc["convergence"]) <= 10
        assert set(doc["components"]) == {"lam"}
        assert len(doc["components"]["lam"]["mean"]) == 1
        assert doc["theta_grid"]["names"] == []
        assert doc["inputs"]["seed"] == 42

    def test_log_grammar(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys)
        lines = (out / "log.txt").read_text().splitlines()
        assert lines, "log should not be empty"
        for line in lines:
            assert any(re.fullmatch(p, line) for p in LOG_PATTERNS), line
        assert lines[0].startswith("iinla: Iteration 1 ")
        assert "iinla: Convergence criterion met." in lines
        joined = "\n".join(lines)
        assert "Running final INLA integration step" in joined

    def test_linear_model_single_pass(self, gls_dir, capsys):
        out = gls_dir / "out"
        code, _ = run_cli(["fit", "-m", gls_dir / "model.json", "-o", out], capsys)
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"] is True
        assert len(doc["convergence"]) == 1
        lines = (out / "log.txt").read_text().splitlines()
        assert lines == ["iinla: Iteration 1 [max:10] (level 1)"]

    def test_repeat_runs_identical(self, toy_dir, capsys):
        out1, _, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        out2 = tmp_path / "out2"
        code, _ = run_cli(["fit", "-m", tmp_path / "model.json", "-o", out2], capsys)
        assert code == 0
        assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()

    def test_seed_flag_overrides_config(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys, extra=["--seed", "99"])
        doc = json.loads((out / "fit.json").read_text())
        assert doc["inputs"]["seed"] == 99

    def test_convergence_csv_columns(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys)
        header, rows = read_csv(out / "convergence.csv")
        assert header[:5] == ["iter", "alpha", "step_rescaling_pct",
                              "max_dev_over_sd", "mean_dev_over_sd"]
        assert [r[0] for r in rows] == [str(i + 1) for i in range(len(rows))]

    def test_runtime_failure_reports_json(self, tmp_path, capsys):
        write_csv(tmp_path / "d.csv", ["y"], [[1], [2]])
        cfg = {
            "components": [{
                "name": "u", "model": "iid", "n": 1,
                "input": {"kind": "const"},
                "hyper": {"prec": {"initial": -1.0, "fixed": True}},
            }],
            "likelihoods": [{
                "family": "poisson", "response": "y", "formula": "~ u",
                "data": "d.csv",
            }],
        }
        (tmp_path / "model.json").write_text(json.dumps(cfg))
        code, stdout = run_cli(
            ["fit", "-m", tmp_path / "model.json", "-o", tmp_path / "out"], capsys)
        assert code == 2
        err = json.loads(stdout)["error"]
        assert err["type"] == "runtime"

    def test_config_error_reports_pointer(self, tmp_path, capsys):
        cfg = {"components": [], "likelihoods": []}
        (tmp_path / "model.json").write_text(json.dumps(cfg))
        code, stdout = run_cli(
            ["fit", "-m", tmp_path / "model.json", "-o", tmp_path / "out"], capsys)
        assert code == 2
        err = json.loads(stdout)["error"]
        assert err["type"] == "config"
        assert err["where"] == "/components"

    def test_missing_config_file(self, tmp_path, capsys):
        code, stdout = run_cli(
            ["fit", "-m", tmp_path / "nope.json", "-o", tmp_path / "out"], capsys)
        assert code == 2
        assert json.loads(stdout)["error"]["type"] == "runtime"


class TestPredict:
    def test_effect_rows_match_data(self, toy_dir, capsys):
        out, y, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        pred = tmp_path / "pred.csv"
        code, _ = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ lam", "-o", pred], capsys)
        assert code == 0
        header, rows = read_csv(pred)
        assert header == ["mean", "sd", "q0.025", "q0.5", "q0.975"]
        assert len(rows) == len(y)
        means = np.array([float(r[0]) for r in rows])
        assert np.all(means > 0)
        # exact conjugate posterior mean for the rate
        n = len(y)
        exact = (1.0 + y.sum()) / (0.5 + n)
        assert abs(means[0] - exact) < 0.05

    def test_latent_suffix_single_row(self, gls_dir, capsys):
        out = gls_dir / "out"
        run_cli(["fit", "-m", gls_dir / "model.json", "-o", out], capsys)
        doc = json.loads((out / "fit.json").read_text())
        fitted_b0 = doc["components"]["b0"]["mean"][0]
        pred = gls_dir / "pred.csv"
        code, _ = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ b0_latent", "-o", pred],
            capsys)
        assert code == 0
        _, rows = read_csv(pred)
        assert len(rows) == 1
        assert abs(float(rows[0][0]) - fitted_b0) < 0.05

    def test_expression_arithmetic(self, gls_dir, capsys):
        out = gls_dir / "out"
        run_cli(["fit", "-m", gls_dir / "model.json", "-o", out], capsys)
        pred = gls_dir / "pred.csv"
        code, _ = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ exp(b0 + b1)", "-o", pred],
            capsys)
        assert code == 0
        _, rows = read_csv(pred)
        assert len(rows) == 40
        assert all(float(r[0]) > 0 for r in rows)

    def test_eval_call_picks_latent_entries(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        idx = rng.integers(1, 5, size=40)
        y = rng.poisson(np.exp(0.3 * idx))
        write_csv(tmp_path / "d.csv", ["y", "idx"],
                  [[int(a), int(b)] for a, b in zip(y, idx)])
        cfg = {
            "components": [{
                "name": "u", "model": "iid",
                "input": {"kind": "index_column", "column": "idx"},
                "hyper": {"prec": {"initial": 1.0, "fixed": True}},
            }],
            "likelihoods": [{
                "family": "poisson", "response": "y", "formula": "~ u",
                "data": "d.csv",
            }],
            "options": {"seed": 9},
        }
        (tmp_path / "model.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        run_cli(["fit", "-m", tmp_path / "model.json", "-o", out], capsys)
        pred = tmp_path / "pred.csv"
        code, _ = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ u_eval(c(1, 2))",
             "-o", pred], capsys)
        assert code == 0
        _, rows = read_csv(pred)
        assert len(rows) == 2

    def test_unknown_component_is_runtime_error(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        code, stdout = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ zap",
             "-o", tmp_path / "pred.csv"], capsys)
        assert code == 2
        err = json.loads(stdout)["error"]
        assert err["type"] == "runtime"
        assert "'zap'" in err["message"]

    def test_new_data_controls_row_count(self, gls_dir, capsys):
        out = gls_dir / "out"
        run_cli(["fit", "-m", gls_dir / "model.json", "-o", out], capsys)
        write_csv(gls_dir / "new.csv", ["x"], [[-1.0], [0.0], [1.0]])
        pred = gls_dir / "pred.csv"
        code, _ = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ b0 + b1",
             "-d", gls_dir / "new.csv", "-o", pred], capsys)
        assert code == 0
        _, rows = read_csv(pred)
        assert len(rows) == 3
        # means should be ordered with the slope's sign (negative here)
        means = [float(r[0]) for r in rows]
        assert means[0] > means[1] > means[2]

    def test_seed_controls_sampling(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        paths = [tmp_path / f"p{i}.csv" for i in range(3)]
        for path, seed in zip(paths, [5, 5, 6]):
            code, _ = run_cli(
                ["--seed", str(seed), "predict", "-f", out / "fit.json",
                 "-e", "~ lam", "-o", path], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_custom_quantiles(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        pred = tmp_path / "pred.csv"
        code, _ = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ lam",
             "-q", "0.1,0.9", "-o", pred], capsys)
        assert code == 0
        header, rows = read_csv(pred)
        assert header == ["mean", "sd", "q0.1", "q0.9"]
        assert float(rows[0][2]) < float(rows[0][3])

    def test_single_draw_is_a_runtime_error(self, toy_dir, capsys):
        # a standard deviation needs at least two draws
        out, _, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        code, stdout = run_cli(
            ["predict", "-f", out / "fit.json", "-e", "~ lam", "-n", "1",
             "-o", tmp_path / "pred.csv"], capsys)
        assert code == 2
        assert "at least 2 samples" in json.loads(stdout)["error"]["message"]

    def test_not_a_fit_file(self, toy_dir, capsys):
        tmp_path, _ = toy_dir
        code, stdout = run_cli(
            ["predict", "-f", tmp_path / "model.json", "-e", "~ lam",
             "-o", tmp_path / "pred.csv"], capsys)
        assert code == 2
        assert "not a fit file" in json.loads(stdout)["error"]["message"]


class TestSbc:
    def test_single_replicate(self, toy_dir, capsys):
        tmp_path, _ = toy_dir
        out = tmp_path / "sbc"
        code, _ = run_cli(
            ["sbc", "-m", tmp_path / "model.json", "-K", "1", "-J", "20",
             "-o", out], capsys)
        assert code == 0
        doc = json.loads((out / "sbc.json").read_text())
        assert doc["K"] == 1
        assert doc["J"] == 20

    def test_outputs_consistent(self, toy_dir, capsys):
        tmp_path, _ = toy_dir
        out = tmp_path / "sbc"
        code, _ = run_cli(
            ["sbc", "-m", tmp_path / "model.json", "-K", "8", "-J", "25",
             "-o", out], capsys)
        assert code == 0
        doc = json.loads((out / "sbc.json").read_text())
        assert set(doc) == {"K", "J", "failures", "ks_statistic", "ks_pvalue"}
        header, wrows = read_csv(out / "w_values.csv")
        assert header == ["w"]
        assert len(wrows) == doc["K"] - doc["failures"]
        assert all(0.0 <= float(r[0]) <= 1.0 for r in wrows)
        hheader, hrows = read_csv(out / "histogram.csv")
        assert hheader == ["bin_low", "bin_high", "count"]
        assert len(hrows) == 20
        assert sum(int(r[2]) for r in hrows) == doc["K"] - doc["failures"]


class TestDiagnose:
    def test_linear_fit_has_zero_divergence(self, gls_dir, capsys):
        out = gls_dir / "out"
        run_cli(["fit", "-m", gls_dir / "model.json", "-o", out], capsys)
        diag = gls_dir / "diag.json"
        code, _ = run_cli(
            ["diagnose", "-f", out / "fit.json", "-o", diag], capsys)
        assert code == 0
        doc = json.loads(diag.read_text())
        assert set(doc) == {"linearisation_deviation", "kl_lin_to_nonlin",
                            "kl_nonlin_to_lin"}
        assert doc["linearisation_deviation"] <= 1e-12
        assert doc["kl_lin_to_nonlin"] <= 1e-12
        assert doc["kl_nonlin_to_lin"] <= 1e-12

    def test_iterative_fit_reports_positive_deviation(self, toy_dir, capsys):
        out, _, _ = fit_toy(toy_dir, capsys)
        tmp_path, _ = toy_dir
        diag = tmp_path / "diag.json"
        code, _ = run_cli(
            ["diagnose", "-f", out / "fit.json", "-o", diag], capsys)
        assert code == 0
        doc = json.loads(diag.read_text())
        assert doc["kl_lin_to_nonlin"] > 0


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["fit", "-m", "model.json"],          # missing -o
            ["fit", "-o", "out"],                  # missing -m
            ["--seed", "-3", "fit", "-m", "m", "-o", "o"],
            ["--seed", "pi", "fit", "-m", "m", "-o", "o"],
            ["predict", "-f", "fit.json", "-o", "p.csv"],  # missing -e
            ["predict", "-f", "f", "-e", "~ x", "-q", "1.5", "-o", "p"],
            ["sbc", "-m", "m", "-K", "0", "-o", "s"],
        ],
    )
    def test_usage_errors_exit_one(self, argv, capsys):
        code, stdout = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(stdout)["error"]["type"] == "usage"
