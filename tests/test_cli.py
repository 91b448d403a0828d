"""End-to-end tests of the command line surface, run in process via main()."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smooth_threshold import cli, tuning
from smooth_threshold.cli import ColumnRoles, load_csv, main
from smooth_threshold.errors import InputError
from smooth_threshold.kernels import get_kernel
from smooth_threshold.simulate import SimSpec, generate
from smooth_threshold.tuning import (TuningSchedule, cross_validate_lambda,
                                     default_lambda_grid, target_lambda,
                                     theoretical_bandwidth)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line[len(key) + 3:]
    raise AssertionError(f"{key!r} not found in document:\n{text}")


def parse_theta(text):
    raw = doc_value(text, "result theta").strip("[]")
    return np.array([float(v) for v in raw.split(",")])


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def sim_csv(tmp_path, capsys):
    path = tmp_path / "sim.csv"
    code, _, err = run_cli(["simulate", "--model", "conditional_mean",
                            "--n", "150", "--d", "8", "--s", "2",
                            "--noise-sd", "1.0", "--seed", "9",
                            "--out", str(path)], capsys)
    assert code == 0, err
    return str(path)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "z1", "z2"],
                  [[1, 0.5, 0.1, 0.2], [-1, 0.2, 0.3, 0.4], [1, 0.9, 0.5, 0.6]])
        data, weights, notes = load_csv(str(path))
        assert data.n == 3 and data.d == 2
        assert weights is None and notes == []
        assert np.array_equal(data.y, [1.0, -1.0, 1.0])

    def test_zero_one_response_is_mapped(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "z1"], [[0, 0.5, 0.1], [1, 0.2, 0.3]])
        data, _, notes = load_csv(str(path))
        assert np.array_equal(data.y, [-1.0, 1.0])
        assert any("0 mapped to -1" in n for n in notes)

    def test_all_positive_response_leaves_no_note(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "z1"], [[1, 0.5, 0.1], [1, 0.2, 0.3]])
        data, _, notes = load_csv(str(path))
        assert np.array_equal(data.y, [1.0, 1.0]) and notes == []

    def test_na_cell_lists_row_number(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "z1"],
                  [[1, 0.5, "NA"], [-1, 0.2, 0.3], [1, 0.1, ""]])
        with pytest.raises(InputError, match=r"\[1, 3\]"):
            load_csv(str(path))

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "z1"], [[1, 0.5, 0.1]])
        with pytest.raises(InputError, match="'q' not found"):
            load_csv(str(path), ColumnRoles(response="q"))

    def test_empty_and_headeronly_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(InputError, match="no header"):
            load_csv(str(empty))
        headeronly = tmp_path / "h.csv"
        headeronly.write_text("y,x,z1\n")
        with pytest.raises(InputError, match="no data rows"):
            load_csv(str(headeronly))

    def test_non_binary_response_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "z1"], [[2, 0.5, 0.1], [-1, 0.2, 0.3]])
        with pytest.raises(InputError, match="must be coded"):
            load_csv(str(path))

    def test_explicit_covariates_and_weight(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "w", "x", "z2", "z1"],
                  [[1, 2.0, 0.5, 0.1, 0.9], [-1, 1.0, 0.2, 0.3, 0.8]])
        roles = ColumnRoles(covariates=("z1", "z2"), weight="w")
        data, weights, _ = load_csv(str(path), roles)
        assert data.d == 2
        assert np.array_equal(data.z[:, 0], [0.9, 0.8])  # order as requested
        assert weights.kind == "per_sample"
        assert np.array_equal(weights.per_sample, [2.0, 1.0])

    def test_weight_column_excluded_from_default_covariates(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, ["y", "x", "w", "z1"],
                  [[1, 0.5, 2.0, 0.1], [-1, 0.2, 1.0, 0.3]])
        data, weights, _ = load_csv(str(path), ColumnRoles(weight="w"))
        assert data.d == 1
        assert np.array_equal(data.z[:, 0], [0.1, 0.3])

    def test_semicolon_delimiter(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("y;x;z1\n1;0.5;0.1\n-1;0.2;0.3\n")
        data, _, _ = load_csv(str(path), delimiter=";")
        assert data.n == 2 and data.d == 1

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("y,x,z1,z1\n1,0.5,0.1,0.2\n")
        with pytest.raises(InputError, match="duplicate"):
            load_csv(str(path))


class TestSimulate:
    def test_round_trip_is_bit_exact(self, sim_csv):
        data, _, notes = load_csv(sim_csv)
        spec = SimSpec(model="conditional_mean", n=150, d=8, s=2,
                       noise_sd=1.0, seed=9)
        original, theta_star = generate(spec)
        assert np.array_equal(data.x, original.x)
        assert np.array_equal(data.y, original.y)
        assert np.array_equal(data.z, original.z)
        assert notes == []

    def test_theta_and_run_files(self, sim_csv):
        rows = list(csv.reader(open(sim_csv + ".theta.csv")))
        assert rows[0] == ["coordinate", "value"]
        assert len(rows) == 9
        assert float(rows[1][1]) == pytest.approx(1 / math.sqrt(2))
        run_doc = open(sim_csv + ".run.txt").read()
        assert doc_value(run_doc, "config seed") == "9"
        assert doc_value(run_doc, "config model") == "conditional_mean"

    def test_out_required(self, capsys):
        code, _, err = run_cli(["simulate", "--n", "10", "--d", "3",
                                "--s", "1"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "input"


class TestFit:
    def test_fixed_fit_document_schema(self, sim_csv, tmp_path, capsys):
        out = tmp_path / "fit.txt"
        code, _, err = run_cli(["fit", "--input", sim_csv, "--delta", "0.5",
                                "--lambda-tgt", "0.05", "--out", str(out)],
                               capsys)
        assert code == 0, err
        doc = out.read_text()
        assert doc_value(doc, "config tune") == "fixed"
        assert doc_value(doc, "config kernel") == "gaussian"
        assert float(doc_value(doc, "result lambda_tgt")) == 0.05
        assert float(doc_value(doc, "result exit_omega")) >= 0.0
        nnz = int(doc_value(doc, "result nnz"))
        theta = parse_theta(doc)
        assert theta.shape == (8,)
        assert np.count_nonzero(theta) == nnz

    def test_theory_mode_echoes_closed_forms(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                  "theory", "--s", "2", "--beta", "1.0",
                                  "--c-lambda", "0.5"], capsys)
        assert code == 0, err
        sched = TuningSchedule(n=150, d=8, s=2, beta=1.0, c_lambda=0.5)
        delta = theoretical_bandwidth(sched)
        lam = target_lambda(150, 8, delta, 0.5)
        assert float(doc_value(out, "result delta")) == delta
        assert float(doc_value(out, "result lambda_tgt")) == lam

    def test_theory_mode_rejects_explicit_delta(self, sim_csv, capsys):
        code, _, err = run_cli(["fit", "--input", sim_csv, "--tune", "theory",
                                "--s", "2", "--beta", "1.0",
                                "--delta", "0.5"], capsys)
        assert code == 2
        assert "do not pass --delta" in json.loads(err)["message"]

    def test_cv_mode_reports_selection(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune", "cv",
                                  "--delta", "0.5", "--folds", "4",
                                  "--seed", "3"], capsys)
        assert code == 0, err
        lam_min = float(doc_value(out, "result lambda_min"))
        lam_1se = float(doc_value(out, "result lambda_1se"))
        assert lam_1se >= lam_min > 0
        assert float(doc_value(out, "result lambda_tgt")) == lam_1se

    def test_missing_required_flag(self, sim_csv, capsys):
        code, _, err = run_cli(["fit", "--input", sim_csv,
                                "--delta", "0.5"], capsys)
        assert code == 2
        assert "--lambda-tgt" in json.loads(err)["message"]

    def test_standardize_rescales_back(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(key=8))
        n, d = 120, 4
        z = rng.normal(size=(n, d)) * np.array([1.0, 10.0, 0.1, 5.0])
        x = rng.normal(size=n)
        y = np.sign(x - z[:, 0] * 0.4 + rng.normal(scale=0.5, size=n))
        y[y == 0] = 1.0
        raw = tmp_path / "raw.csv"
        write_csv(raw, ["y", "x", "z1", "z2", "z3", "z4"],
                  [[repr(float(y[i])), repr(float(x[i]))]
                   + [repr(float(v)) for v in z[i]] for i in range(n)])
        scales = z.std(axis=0)
        pre = tmp_path / "pre.csv"
        write_csv(pre, ["y", "x", "z1", "z2", "z3", "z4"],
                  [[repr(float(y[i])), repr(float(x[i]))]
                   + [repr(float(v)) for v in z[i] / scales]
                   for i in range(n)])

        code, out_std, err = run_cli(["fit", "--input", str(raw),
                                      "--standardize", "--delta", "0.5",
                                      "--lambda-tgt", "0.05"], capsys)
        assert code == 0, err
        code, out_pre, err = run_cli(["fit", "--input", str(pre),
                                      "--delta", "0.5",
                                      "--lambda-tgt", "0.05"], capsys)
        assert code == 0, err
        theta_std = parse_theta(out_std)
        theta_pre = parse_theta(out_pre)
        assert np.array_equal(theta_std, theta_pre / scales)
        assert "original scale" in out_std

    def test_lepski_beta_mode(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                  "lepski-beta", "--s", "2",
                                  "--c-lambda", "0.5"], capsys)
        assert code == 0, err
        assert float(doc_value(out, "result delta_hat")) > 0
        assert any(line.startswith("row fits = ")
                   for line in out.splitlines())


    @pytest.mark.parametrize("tune", [
        ["cv", "--delta", "0.5", "--folds", "3"],
        ["lepski-beta", "--s", "2", "--c-sel", "3.0"],
        ["lepski-s", "--beta", "1.0", "--c-bar", "1.5"],
    ], ids=["cv", "lepski-beta", "lepski-s"])
    def test_solver_flags_reach_every_fit(self, sim_csv, capsys, monkeypatch,
                                          tune):
        configs = []

        def recording(real):
            def record(spec, cfg, **kw):
                configs.append(cfg)
                return real(spec, cfg, **kw)
            return record

        monkeypatch.setattr(tuning, "path_following",
                            recording(tuning.path_following))
        monkeypatch.setattr(cli, "path_following",
                            recording(cli.path_following))
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune"] + tune
                                 + ["--nu", "0.3", "--eta", "0.5",
                                    "--radius", "8.0", "--stages", "4"],
                                 capsys)
        assert code == 0, err
        assert len(configs) > 1
        for cfg in configs:
            assert (cfg.nu, cfg.eta, cfg.omega_radius, cfg.num_stages) \
                == (0.3, 0.5, 8.0, 4)
        echo = {key: doc_value(out, f"config {key}")
                for key in ("lambda0", "stages", "phi", "nu", "eta",
                            "eps_tgt", "radius")}
        assert echo == {"lambda0": "none", "stages": "4", "phi": "none",
                        "nu": "0.3", "eta": "0.5", "eps_tgt": "none",
                        "radius": "8.0"}
        if tune[0] == "lepski-beta":
            assert doc_value(out, "config c_sel") == "3.0"
        if tune[0] == "lepski-s":
            assert doc_value(out, "config c_bar") == "1.5"

    @pytest.mark.parametrize("tune", [
        ["fixed", "--delta", "0.5", "--lambda-tgt", "0.1"],
        ["theory", "--s", "2", "--beta", "1.0"],
        ["cv", "--delta", "0.5"],
        ["lepski-beta", "--s", "2"],
        ["lepski-s", "--beta", "1.0"],
    ], ids=["fixed", "theory", "cv", "lepski-beta", "lepski-s"])
    def test_rejects_flags_the_mode_ignores(self, sim_csv, capsys, tune):
        values = {"--delta": "0.5", "--lambda-tgt": "0.1", "--s": "2",
                  "--beta": "1.0"}
        for flag in set(values) - set(tune):
            code, out, err = run_cli(["fit", "--input", sim_csv, "--tune"]
                                     + tune + [flag, values[flag]], capsys)
            assert code == 2, flag
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert json.loads(err)["message"] == \
                f"fit --tune {tune[0]} does not use {flag}; do not pass {flag}"


class TestPath:
    def test_stage_table_schema_and_monotonicity(self, sim_csv, tmp_path,
                                                 capsys):
        out = tmp_path / "path.csv"
        code, _, err = run_cli(["path", "--input", sim_csv, "--delta", "0.5",
                                "--lambda-tgt", "0.02", "--out", str(out)],
                               capsys)
        assert code == 0, err
        rows = list(csv.reader(open(out)))
        header = rows[0]
        assert header[:7] == ["stage", "lambda", "iterations", "nnz",
                              "objective", "exit_omega", "status"]
        assert header[7:] == [f"theta_{j}" for j in range(1, 9)]
        body = rows[1:]
        lams = [float(r[1]) for r in body]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        nnz = [int(r[3]) for r in body]
        steps = [b >= a for a, b in zip(nnz, nnz[1:])]
        assert sum(steps) >= 0.9 * len(steps)
        run_doc = open(str(out) + ".run.txt").read()
        assert doc_value(run_doc, "config lambda_tgt") == "0.02"

    def test_out_required(self, sim_csv, capsys):
        code, _, err = run_cli(["path", "--input", sim_csv, "--delta", "0.5",
                                "--lambda-tgt", "0.02"], capsys)
        assert code == 2
        assert "required" in json.loads(err)["message"]


class TestCv:
    def test_curve_document(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune", "cv",
                                  "--delta", "0.5", "--folds", "4",
                                  "--seed", "3"], capsys)
        assert code == 0, err
        rows = [l for l in out.splitlines() if l.startswith("row cv = ")]
        assert len(rows) == 20  # default geometric grid size
        grid = doc_value(out, "config lambda_grid")
        assert grid.startswith("[") and len(grid.split(",")) == 20
        lam_min = float(doc_value(out, "result lambda_min"))
        lam_1se = float(doc_value(out, "result lambda_1se"))
        assert lam_1se >= lam_min

    def test_curve_rows_match_library(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune", "cv",
                                  "--delta", "0.5", "--folds", "4",
                                  "--seed", "3"], capsys)
        assert code == 0, err
        data, _, _ = load_csv(sim_csv)
        kernel = get_kernel("gaussian")
        grid = default_lambda_grid(data, kernel, 0.5)
        result = cross_validate_lambda(data, kernel, 0.5, 4, grid, 3)
        rows = np.array([[float(v) for v in l[len("row cv = "):].split()]
                         for l in out.splitlines() if l.startswith("row cv = ")])
        assert np.array_equal(rows[:, 0], result.lambda_grid)
        assert np.array_equal(rows[:, 1], result.mean_cv_loss)
        assert np.array_equal(rows[:, 2], result.se_cv_loss)


class TestAdapt:
    def test_adapt_beta_document(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                  "lepski-beta", "--s", "2",
                                  "--c-lambda", "0.5"], capsys)
        assert code == 0, err
        delta_hat = float(doc_value(out, "result delta_hat"))
        assert 0 < delta_hat <= 1.0
        fits = [l for l in out.splitlines() if l.startswith("row fits = ")]
        assert len(fits) == 9  # dyadic grid 2**0 .. 2**-8 for n = 150

    def test_adapt_s_document(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                  "lepski-s", "--beta", "1.0"], capsys)
        assert code == 0, err
        s_hat = int(doc_value(out, "result s_hat"))
        assert s_hat >= 1
        fits = [l for l in out.splitlines() if l.startswith("row fits = ")]
        assert len(fits) == 3  # levels 1, 2, 4 for d = 8

    def test_adapt_s_constant_precondition(self, sim_csv, capsys):
        code, _, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                "lepski-s", "--beta", "1.0",
                                "--c-lambda", "0.7"], capsys)
        assert code == 2
        assert "must not exceed" in json.loads(err)["message"]


class TestBench:
    def test_table_schema_and_determinism(self, tmp_path, capsys):
        argv = ["bench", "--model", "conditional_mean", "--n", "120",
                "--d", "6", "--s", "2", "--noise-sd", "1.0", "--tune",
                "fixed", "--delta", "0.5", "--lambda-tgt", "0.05",
                "--reps", "3", "--seed", "4"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code, _, err = run_cli(argv + ["--out", str(out_a)], capsys)
        assert code == 0, err
        code, _, err = run_cli(argv + ["--out", str(out_b)], capsys)
        assert code == 0, err

        rows_a = list(csv.reader(open(out_a)))
        rows_b = list(csv.reader(open(out_b)))
        assert rows_a[0] == ["repetition", "l1", "l2", "linf", "nnz",
                             "runtime", "lambda_used", "delta_used",
                             "messages"]
        assert len(rows_a) == 4
        drop_runtime = lambda rows: [r[:5] + r[6:] for r in rows]  # noqa: E731
        assert drop_runtime(rows_a) == drop_runtime(rows_b)
        run_doc = open(str(out_a) + ".run.txt").read()
        assert float(doc_value(run_doc, "result l2_mean")) > 0

    def test_rejects_lepski_tuning(self, tmp_path, capsys):
        code, _, err = run_cli(["bench", "--tune", "lepski-beta", "--out",
                                str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "fixed, cv, or theory" in json.loads(err)["message"]


class TestToyRisks:
    def test_hinge_derivative_matches_population_slope(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        code, _, err = run_cli(["toy-risks", "--out", str(out)], capsys)
        assert code == 0, err
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["theta", "risk01", "risk_hinge", "risk_exp",
                           "hinge_derivative", "exp_derivative"]
        assert len(rows) == 202  # 201 grid points on [0, 2] at step 0.01
        at_one = next(r for r in rows[1:] if float(r[0]) == 1.0)
        hinge_slope = float(at_one[4])
        assert hinge_slope < 0
        assert abs(hinge_slope - (-0.035)) < 1e-3
        assert float(at_one[1]) == 0.0  # 0-1 risk vanishes at theta = 1

    def test_numeric_overflow_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(["toy-risks", "--grid-start", "400",
                                "--grid-stop", "400", "--grid-step", "1",
                                "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "numeric"

    def test_step_validation(self, tmp_path, capsys):
        code, _, err = run_cli(["toy-risks", "--grid-step", "0",
                                "--out", str(tmp_path / "t.csv")], capsys)
        assert code == 2


class TestDiagnose:
    def test_gradient_probe_on_csv(self, sim_csv, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "gradient",
                                  "--input", sim_csv, "--delta", "0.5"],
                                 capsys)
        assert code == 0, err
        assert "checked: pass" in out
        assert float(doc_value(out, "value max_relative_deviation")) < 1e-6

    def test_gradient_probe_requires_input(self, capsys):
        code, _, err = run_cli(["diagnose", "--probe", "gradient",
                                "--delta", "0.5"], capsys)
        assert code == 2
        assert "--input" in json.loads(err)["message"]

    def test_bias_probe_document(self, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "bias", "--model",
                                  "conditional_mean", "--n", "200", "--d",
                                  "8", "--s", "2", "--noise-sd", "1.0",
                                  "--seed", "2"], capsys)
        assert code == 0, err
        assert 1.8 < float(doc_value(out, "value loglog_slope")) < 2.2

    def test_variance_probe_document(self, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "variance",
                                  "--model", "conditional_mean", "--n", "100",
                                  "--d", "6", "--s", "2", "--noise-sd", "1.0",
                                  "--delta-grid", "0.5,0.25",
                                  "--repetitions", "5", "--n-pop", "50000",
                                  "--seed", "2"], capsys)
        assert code == 0, err
        devs = doc_value(out, "value mean_sup_deviation")
        assert len(devs.strip("[]").split(",")) == 2

    def test_curvature_probe_on_simulated_data(self, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "curvature",
                                  "--model", "conditional_mean", "--n", "200",
                                  "--d", "10", "--s", "3", "--noise-sd",
                                  "1.0", "--delta", "1.0", "--support-size",
                                  "3", "--num-directions", "50",
                                  "--seed", "2"], capsys)
        assert code == 0, err
        rho_minus = float(doc_value(out, "value rho_minus"))
        rho_plus = float(doc_value(out, "value rho_plus"))
        assert rho_plus >= rho_minus

    def test_bad_delta_grid(self, capsys):
        code, _, err = run_cli(["diagnose", "--probe", "variance",
                                "--delta-grid", "a,b"], capsys)
        assert code == 2
        assert "comma-separated" in json.loads(err)["message"]


class TestErrorRecords:
    def test_single_json_line_on_stderr(self, tmp_path, capsys):
        code, out, err = run_cli(["fit", "--input",
                                  str(tmp_path / "missing.csv"),
                                  "--delta", "0.5", "--lambda-tgt", "0.1"],
                                 capsys)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "input"
        assert "missing.csv" in record["message"]

    @pytest.mark.parametrize("argv", [["fit", "--threads", "2"],
                                      ["fit", "--folds", "x"],
                                      ["nosuch"]],
                             ids=["unknown-flag", "bad-value", "bad-subcommand"])
    def test_bad_arguments_are_input_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "input"

    def test_subcommand_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_unwritable_document_out(self, sim_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "fit.txt"
        code, _, err = run_cli(["fit", "--input", sim_csv, "--delta", "0.5",
                                "--lambda-tgt", "0.1", "--out", str(out)],
                               capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "input"
        assert record["message"].startswith(f"cannot write {out}: ")

    def test_unwritable_csv_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        code, _, err = run_cli(["toy-risks", "--out", str(out)], capsys)
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "input"
        assert record["message"].startswith(f"cannot write {out}: ")


def test_module_entry_point_runs_without_runtime_warning():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "smooth_threshold.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
