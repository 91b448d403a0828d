"""End-to-end tests of the command line surface, run in process via main()."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import log_call, logged, src_env
from smooth_threshold import cli, tuning
from smooth_threshold.cli import ColumnRoles, load_csv, main
from smooth_threshold.diagnostics import PROBE_DEFAULTS, PROBES
from smooth_threshold.errors import InputError, NumericError
from smooth_threshold.kernels import SurrogateLoss, get_kernel
from smooth_threshold.optimizer import PathConfig, path_following
from smooth_threshold.risk import SmoothedRiskSpec
from smooth_threshold.simulate import (SIM_MODELS, SimSpec, derive_seed,
                                       estimation_error, generate, run_benchmark)
from smooth_threshold.tuning import (build_lepski_grid, cross_validate_lambda,
                                     default_lambda_grid, lepski_bandwidth,
                                     lepski_sparsity, target_lambda,
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


def read_rows(path, reader=csv.reader):
    with open(path, newline="") as handle:
        return list(reader(handle))


def run_table(rows, out, capsys, monkeypatch, lines=()):
    """Run toy-risks with its handler replaced by one returning ``lines`` and
    one table of ``rows`` under the header ``a`` at ``out``."""
    monkeypatch.setitem(cli._SUBCOMMANDS, "toy-risks", (
        lambda args, config: (list(lines), [(args.out, ["a"], rows)]), "help"))
    return run_cli(["toy-risks", "--out", str(out)], capsys)


def read_run_doc(out):
    """The document written beside the table ``out``."""
    return Path(str(out) + ".run.txt").read_text()


def flag(name):
    return "--" + name.replace("_", "-")


def argv_of(sub, given):
    argv = [sub]
    for name, value in given.items():
        argv += [flag(name)] + ([] if value is None else [str(value)])
    return argv


# every kind of run, from the tables: a subcommand with the values of its
# --tune, --model and --probe, and --input for a probe that takes a CSV
RUNS = ([("fit", {"tune": t}) for t in cli._MODES["fit"]]
        + [("path", {})]
        + [("simulate", {"model": m}) for m in SIM_MODELS]
        + [("bench", {"model": m, "tune": t}) for m in SIM_MODELS
           for t in cli._MODES["bench"]]
        + [("toy-risks", {})]
        + [("diagnose", {"probe": p, **source}) for p, reads in PROBES.items()
           for source in ([{"input": "in.csv"}] if "input" in reads else [])
           + ([{"model": m} for m in SIM_MODELS] if "model" in reads else [])])
# the runs that succeed: the bias probe refuses every --model but its
# default, so it runs on that model, once named and once left unset
VALID_RUNS = [(sub, axes) for sub, axes in RUNS if axes.get("probe") != "bias"
              or axes["model"] == PROBE_DEFAULTS["bias"]["model"]]
VALID_RUNS.append(("diagnose", {"probe": "bias"}))


def run_id(sub, axes):
    return "-".join([sub, *map(str, axes.values())])

# a valid value of every flag (None: a switch)
VALUES = {
    "input": "in.csv", "response": "y", "threshold": "x", "covariates": "z1",
    "weight": "w", "delimiter": ";", "standardize": None, "kernel": "gaussian",
    "delta": 0.5, "lambda_tgt": 0.1, "lambda0": 1.0, "stages": 3, "phi": 0.5,
    "nu": 0.25, "eta": 1.0, "eps_tgt": 0.001, "radius": 10.0, "folds": 3,
    "s": 2, "beta": 1.0, "c_delta": 1.0, "c_lambda": 1.0, "c_sel": 2.0,
    "c_bar": 2.0, "model": "conditional_mean", "n": 60, "d": 4, "mu": 2.0, "noise_sd": 0.5,
    "noise": "gaussian", "theta_out": "t.csv", "reps": 1, "seed": 3,
    "out": "o.csv", "grid_start": 0.0, "grid_stop": 1.0, "grid_step": 0.1,
    "delta_grid": "0.5,0.25", "repetitions": 2, "n_pop": 2000,
    "num_directions": 3, "support_size": 2, "ball_radius": 1.0, "step": 0.001,
}


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

    def test_missing_data_rows_reported_before_column_checks(self, tmp_path):
        headeronly = tmp_path / "h.csv"
        headeronly.write_text("a,a\n")
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
        assert np.array_equal(weights, [2.0, 1.0])

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
        rows = read_rows(sim_csv + ".theta.csv")
        assert rows[0] == ["coordinate", "value"]
        assert len(rows) == 9
        assert float(rows[1][1]) == pytest.approx(1 / math.sqrt(2))
        run_doc = read_run_doc(sim_csv)
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
        delta = theoretical_bandwidth(150, 8, 2, beta=1.0, c_delta=1.0)
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
                                          tmp_path, forked_grid, tune):
        log = tmp_path / "configs"   # forked Lepski workers record here too

        def recording(real):
            def record(spec, cfg, **kw):
                log_call(log, repr((cfg.nu, cfg.eta, cfg.omega_radius,
                                    cfg.num_stages)))
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
        configs = logged(log)
        assert len(configs) > 1
        if tune[0] != "cv":   # one fit per grid point, whichever process
            kind, size = {"lepski-beta": ("bandwidth", 150),
                          "lepski-s": ("sparsity", 8)}[tune[0]]
            assert len(configs) == len(build_lepski_grid(kind, size))
        assert set(configs) == {repr((0.3, 0.5, 8.0, 4))}
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

    @pytest.mark.parametrize("tune,used", [
        (["fixed", "--delta", "0.5", "--lambda-tgt", "0.1"], {}),
        (["theory", "--s", "2", "--beta", "1.0"],
         {"c_delta": "1.0", "c_lambda": "1.0"}),
        (["cv", "--delta", "0.5"], {"folds": "5"}),
        (["lepski-beta", "--s", "2"], {"c_sel": "2.0", "c_lambda": "1.0"}),
        (["lepski-s", "--beta", "1.0"],
         {"c_delta": "1.0", "c_lambda": "1.0", "c_bar": "2.0"}),
    ], ids=["fixed", "theory", "cv", "lepski-beta", "lepski-s"])
    def test_rejects_constants_the_mode_ignores(self, sim_csv, capsys, tune,
                                                used):
        # unset constants resolve to their defaults only where they are read
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune"] + tune,
                                 capsys)
        assert code == 0, err
        constants = {"folds": "4", "c_delta": "1.0", "c_lambda": "1.0",
                     "c_sel": "2.0", "c_bar": "2.0"}
        for key in constants:
            if key in used:
                assert doc_value(out, f"config {key}") == used[key]
            else:
                assert f"config {key} = " not in out
        for key, value in constants.items():
            if key in used:
                continue
            flag = "--" + key.replace("_", "-")
            code, out, err = run_cli(["fit", "--input", sim_csv, "--tune"]
                                     + tune + [flag, value], capsys)
            assert code == 2, flag
            assert out == ""
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
        rows = read_rows(out)
        header = rows[0]
        assert header[:9] == ["stage", "lambda", "iterations", "nnz",
                              "objective", "exit_omega", "status", "step",
                              "halvings"]
        assert header[9:] == [f"theta_{j}" for j in range(1, 9)]
        body = rows[1:]
        lams = [float(r[1]) for r in body]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert float(body[0][7]) == 1.0  # the --eta default, carried into stage 1
        assert all(0 < float(r[7]) <= 1024 for r in body)
        assert body[0][8] == "0" and all(int(r[8]) >= 0 for r in body)
        nnz = [int(r[3]) for r in body]
        steps = [b >= a for a, b in zip(nnz, nnz[1:])]
        assert sum(steps) >= 0.9 * len(steps)
        run_doc = read_run_doc(out)
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

    def test_curve_rows_match_library(self, sim_csv, tmp_path, capsys):
        # the simulated table plus a column of positive random weights
        rows = read_rows(sim_csv)
        w = np.random.Generator(np.random.Philox(key=5)).uniform(
            0.2, 3.0, size=len(rows) - 1)
        weighted_csv = str(tmp_path / "weighted.csv")
        write_csv(weighted_csv, rows[0] + ["w"],
                  [r + [repr(float(v))] for r, v in zip(rows[1:], w)])
        for path, weight in ((sim_csv, None), (weighted_csv, "w")):
            flags = [] if weight is None else ["--weight", weight]
            code, out, err = run_cli(["fit", "--input", path, "--tune", "cv",
                                      "--delta", "0.5", "--folds", "4",
                                      "--seed", "3"] + flags, capsys)
            assert code == 0, err
            data, weights, _ = load_csv(path, ColumnRoles(weight=weight))
            assert (weights is None) == (weight is None)
            kernel = get_kernel("gaussian")
            grid = default_lambda_grid(data, kernel, 0.5, weights=weights)
            result = cross_validate_lambda(data, kernel, 0.5, 4, grid, 3,
                                           weights=weights)
            cv_rows = np.array([[float(v) for v in l[len("row cv = "):].split()]
                                for l in out.splitlines()
                                if l.startswith("row cv = ")])
            assert np.array_equal(cv_rows[:, 0], result.lambda_grid)
            assert np.array_equal(cv_rows[:, 1], result.mean_cv_loss)
            assert np.array_equal(cv_rows[:, 2], result.se_cv_loss)


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

    @pytest.mark.parametrize("tune", [
        ["lepski-beta", "--s", "2", "--c-lambda", "0.5"],
        ["lepski-s", "--beta", "1.0"],
    ], ids=["lepski-beta", "lepski-s"])
    def test_document_carries_the_chosen_fits_certificate(self, sim_csv, capsys,
                                                          tune):
        # after the grid and the selected value, the chosen fit's path prints
        # what every other mode prints: its penalty, stages and certificate
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune"] + tune,
                                 capsys)
        assert code == 0, err
        hat = "result delta_hat" if tune[0] == "lepski-beta" else "result s_hat"
        keys = [line.split(" = ")[0] for line in out.splitlines()
                if line.startswith("result ")]
        assert keys == [hat, "result lambda_tgt", "result stages",
                        "result status", "result exit_omega", "result nnz",
                        "result theta"]
        assert doc_value(out, "result status") == "converged"
        lam = float(doc_value(out, "result lambda_tgt"))
        [chosen] = [line.split()[3:] for line in out.splitlines()
                    if line.startswith("row fits = ")
                    and line.split()[3] == doc_value(out, hat)]
        assert float(chosen[2]) == lam and chosen[3] == "ok"
        # the default final-stage tolerance is 0.1 * nu * lambda_tgt, nu = 0.25
        assert float(doc_value(out, "result exit_omega")) <= 0.1 * 0.25 * lam
        assert int(doc_value(out, "result stages")) >= 1

    def test_adapt_s_constant_precondition(self, sim_csv, capsys):
        code, _, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                "lepski-s", "--beta", "1.0",
                                "--c-lambda", "0.7"], capsys)
        assert code == 2
        assert "must not exceed" in json.loads(err)["message"]

    def test_adapt_s_precondition_whose_power_overflows(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--tune",
                                  "lepski-s", "--beta", "400", "--c-delta",
                                  "10"], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line) == {
            "error": "input", "message": "c_delta**(beta + 1/2) must not "
                                         "exceed c_lambda (inf > 1)"}


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

        rows_a = read_rows(out_a)
        rows_b = read_rows(out_b)
        assert rows_a[0] == ["repetition", "l1", "l2", "linf", "nnz",
                             "runtime", "lambda_used", "delta_used",
                             "messages"]
        assert len(rows_a) == 4
        drop_runtime = lambda rows: [r[:5] + r[6:] for r in rows]  # noqa: E731
        assert drop_runtime(rows_a) == drop_runtime(rows_b)
        run_doc = read_run_doc(out_a)
        assert float(doc_value(run_doc, "result l2_mean")) > 0

    def test_solver_warnings_land_in_messages_not_stderr(self, tmp_path):
        # a fresh interpreter, since pytest itself records warnings
        argv = ("bench --model conditional_mean --n 200 --d 8 --s 2 "
                "--noise-sd 1.0 --tune theory --beta 1.0 --reps 2 "
                "--out bth.csv").split()
        done = subprocess.run([sys.executable, "-m", "smooth_threshold.cli",
                               *argv], env=src_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        rows = read_rows(tmp_path / "bth.csv", csv.DictReader)
        assert len(rows) == 2
        for row in rows:
            assert "exceeds the zero-solution penalty" in row["messages"]

    def test_each_unconverged_stage_listed_once(self):
        sim = SimSpec(model="conditional_mean", n=200, d=8, s=2, seed=3)
        kernel = get_kernel("gaussian")
        cfg = PathConfig(lambda_tgt=1.0, max_inner_iters=1)
        result = run_benchmark(sim, kernel, tune="fixed", delta=1.0,
                               lambda_tgt=0.01, path_cfg=cfg, repetitions=2,
                               seed=1)
        for i, row in enumerate(result.rows):
            # the repetition's final fit, redone with its warnings recorded
            data, _ = generate(replace(sim, seed=derive_seed(1, i, 0)))
            spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, 1.0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                path = path_following(spec, replace(cfg, lambda_tgt=0.01))
            stopped = [s.lam for s in path.stages if s.status == "max_iter"]
            assert stopped
            assert row.messages == path.notes + tuple(str(w.message)
                                                      for w in caught)
            budget = [re.match(r"proximal loop at lambda=(\S+) stopped", m)
                      for m in row.messages]
            assert [b[1] for b in budget if b] == [f"{lam:.6g}" for lam in stopped]
            assert not [m for m in row.messages if m.endswith(": max_iter")]

    @pytest.mark.parametrize("tune,flags,select", [
        ("lepski-beta", ["--c-lambda", "0.5"],
         lambda data, kernel: lepski_bandwidth(data, kernel, s=2, c_lambda=0.5)),
        ("lepski-s", ["--beta", "1.0"],
         lambda data, kernel: lepski_sparsity(data, kernel, beta=1.0)),
    ], ids=["lepski-beta", "lepski-s"])
    def test_lepski_rows_are_the_selectors_choice(self, tmp_path, capsys, tune,
                                                  flags, select):
        # each repetition runs the selector on its own data; lepski-beta
        # reads the simulated --s as its s
        out = tmp_path / "b.csv"
        code, _, err = run_cli(["bench", "--model", "conditional_mean",
                                "--n", "120", "--d", "6", "--s", "2",
                                "--noise-sd", "1.0", "--tune", tune] + flags
                               + ["--reps", "2", "--seed", "4", "--out", str(out)],
                               capsys)
        assert code == 0, err
        rows = read_rows(out, csv.DictReader)
        assert len(rows) == 2
        sim = SimSpec(model="conditional_mean", n=120, d=6, s=2, noise_sd=1.0)
        for i, row in enumerate(rows):
            data, theta_star = generate(replace(sim, seed=derive_seed(4, i, 0)))
            value, theta, fits = select(data, get_kernel("gaussian"))
            chosen = next(fit for fit in fits if fit.grid_value == value)
            assert (row["delta_used"], row["lambda_used"]) == \
                (repr(chosen.delta), repr(chosen.lam))
            assert row["l2"] == repr(estimation_error(theta, theta_star))
        run_doc = read_run_doc(out)
        assert doc_value(run_doc, "config delta") == "none"
        assert doc_value(run_doc, "config lambda_tgt") == "none"

    @pytest.mark.parametrize("tune,flags", [
        ("fixed", ["--lambda-tgt", "0.05"]),
        ("cv", ["--folds", "3"]),
        ("theory", ["--beta", "1.0"]),
    ])
    def test_config_echoes_settings_used(self, tmp_path, capsys, tune, flags):
        # without --delta the repetitions run at delta = 1, and theory
        # computes both delta and lambda; the echo reports what was used
        out = tmp_path / "b.csv"
        code, _, err = run_cli(["bench", "--model", "conditional_mean",
                                "--n", "120", "--d", "6", "--s", "2",
                                "--noise-sd", "1.0", "--tune", tune] + flags
                               + ["--reps", "2", "--out", str(out)], capsys)
        assert code == 0, err
        rows = read_rows(out, csv.DictReader)
        run_doc = read_run_doc(out)
        assert {r["delta_used"] for r in rows} == {doc_value(run_doc, "config delta")}
        lambda_echo = doc_value(run_doc, "config lambda_tgt")
        if tune == "cv":
            assert lambda_echo == "none"
        else:
            assert {r["lambda_used"] for r in rows} == {lambda_echo}

    @pytest.mark.parametrize("tune,flags,used", [
        ("fixed", ["--lambda-tgt", "0.05"], {}),
        ("cv", [], {"folds": "5"}),
        ("theory", ["--beta", "1.0"], {"c_delta": "1.0", "c_lambda": "1.0"}),
    ], ids=["fixed", "cv", "theory"])
    def test_rejects_constants_the_mode_ignores(self, tmp_path, capsys, tune,
                                                flags, used):
        out = tmp_path / "b.csv"
        argv = ["bench", "--model", "conditional_mean", "--n", "120",
                "--d", "6", "--s", "2", "--noise-sd", "1.0", "--tune", tune,
                "--reps", "1", "--out", str(out)] + flags
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        run_doc = read_run_doc(out)
        for key in ("folds", "c_delta", "c_lambda"):
            if key in used:
                assert doc_value(run_doc, f"config {key}") == used[key]
            else:
                assert f"config {key} = " not in run_doc
                flag = "--" + key.replace("_", "-")
                code, stdout, err = run_cli(argv + [flag, "3"], capsys)
                assert code == 2, flag
                assert stdout == ""
                assert json.loads(err)["message"] == \
                    f"bench --model conditional_mean --tune {tune} does not use {flag}; do not pass {flag}"


    @pytest.mark.parametrize("tune,flags,flag,value", [
        ("theory", ["--beta", "1.0"], "--delta", "0.5"),
        ("cv", [], "--lambda-tgt", "0.05"),
        ("fixed", ["--lambda-tgt", "0.05"], "--beta", "1.0"),
    ], ids=["delta-under-theory", "lambda-tgt-outside-fixed",
            "beta-outside-theory"])
    def test_rejects_flags_the_mode_ignores(self, tmp_path, capsys, tune,
                                            flags, flag, value):
        code, out, err = run_cli(["bench", "--n", "60", "--d", "4",
                                  "--tune", tune, "--reps", "1", "--out",
                                  str(tmp_path / "b.csv")] + flags
                                 + [flag, value], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["message"] == \
            f"bench --model binary_response --tune {tune} does not use {flag}; do not pass {flag}"
        assert not (tmp_path / "b.csv").exists()


class TestToyRisks:
    def test_hinge_derivative_matches_population_slope(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        code, _, err = run_cli(["toy-risks", "--out", str(out)], capsys)
        assert code == 0, err
        rows = read_rows(out)
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
        # a step that is not positive and any flag that is not finite are
        # bad input: one JSON line, no file written
        for flags in (["--grid-step", "0"], ["--grid-step", "nan"],
                      ["--grid-stop", "inf"], ["--grid-start=-inf"],
                      # grids past the point cap, refused before allocation
                      ["--grid-step", "1e-300"],
                      ["--grid-stop", "1e9", "--grid-step", "1e-3"]):
            code, _, err = run_cli(["toy-risks", *flags,
                                    "--out", str(tmp_path / "t.csv")], capsys)
            assert code == 2, flags
            [line] = err.splitlines()
            assert json.loads(line)["error"] == "input"
            assert list(tmp_path.iterdir()) == []


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

    def test_bias_probe_runs_on_its_defaults(self, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "bias", "--seed",
                                  "1"], capsys)
        assert code == 0, err
        assert doc_value(out, "config model") == "conditional_mean"
        code, out, err = run_cli(["diagnose", "--probe", "bias", "--model",
                                  "binary_response", "--seed", "1"], capsys)
        assert code == 2
        assert json.loads(err)["message"] == (
            "bias_probe requires the conditional_mean model; got "
            "'binary_response'")

    def test_bias_probe_shows_its_scaling_law_at_its_defaults(self, capsys):
        # the default noise_sd is 1.0: at 0.1 the probe would read the far
        # tail of the density, with a slope near 50
        code, out, err = run_cli(["diagnose", "--probe", "bias", "--seed",
                                  "1"], capsys)
        assert code == 0, err
        assert "config noise_sd = 1.0" in out.splitlines()
        assert 1.8 <= float(doc_value(out, "value loglog_slope")) <= 2.2

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

    def test_repeated_bandwidths_are_bad_input(self, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "bias",
                                  "--delta-grid", "0.5,0.5", "--n", "200",
                                  "--d", "8", "--s", "2",
                                  "--num-directions", "3"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "input",
            "message": "delta_grid repeats a bandwidth: [0.5, 0.5]"}

    def test_bad_delta_grid(self, capsys):
        code, _, err = run_cli(["diagnose", "--probe", "variance",
                                "--delta-grid", "a,b"], capsys)
        assert code == 2
        assert "comma-separated" in json.loads(err)["message"]


    @pytest.mark.parametrize("probe", [
        ["--probe", "gradient", "--input", "INPUT"],
        ["--probe", "curvature", "--n", "60", "--d", "4", "--s", "2",
         "--support-size", "2"],
    ], ids=["gradient", "curvature"])
    def test_zero_step_is_bad_input(self, sim_csv, capsys, probe):
        argv = ["diagnose"] + [sim_csv if a == "INPUT" else a for a in probe]
        code, out, err = run_cli(argv + ["--delta", "0.5", "--step", "0"],
                                 capsys)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "input", "message": "step must be a positive real, got 0.0"}

    def test_curvature_step_whose_square_overflows(self, capsys):
        code, out, err = run_cli(["diagnose", "--probe", "curvature", "--n",
                                  "50", "--d", "3", "--s", "1", "--delta", "1",
                                  "--support-size", "3", "--step", "1e300"],
                                 capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line) == {
            "error": "input", "message": "step**2 must be a positive finite "
                                         "float; step 1e+300 squares to inf"}


class TestFlagsCheckedBeforeWork:
    """Missing and unused flags are refused before any data is read or
    generated."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")
        monkeypatch.setattr(cli, "load_csv", refuse)
        monkeypatch.setattr(cli, "generate", refuse)
        monkeypatch.setattr(cli, "run_benchmark", refuse)

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--n", "10", "--d", "3", "--s", "1"],
         "simulate writes CSV files; --out is required"),
        (["fit", "--input", "in.csv", "--tune", "fixed", "--delta", "0.5"],
         "fit --tune fixed requires --lambda-tgt"),
        (["fit", "--input", "in.csv", "--tune", "cv", "--delta", "0.5",
          "--s", "3"],
         "fit --tune cv does not use --s; do not pass --s"),
        (["fit", "--input", "in.csv", "--tune", "lepski-s", "--beta", "2",
          "--c-sel", "1"],
         "fit --tune lepski-s does not use --c-sel; do not pass --c-sel"),
        (["path", "--input", "in.csv", "--delta", "0.5"],
         "path requires --lambda-tgt"),
        (["path", "--input", "in.csv", "--delta", "0.5", "--lambda-tgt",
          "0.1"],
         "path writes a CSV table; --out is required"),
        (["bench", "--tune", "cv"],
         "bench writes a CSV table; --out is required"),
        (["bench", "--tune", "theory", "--out", "b.csv"],
         "bench --model binary_response --tune theory requires --beta"),
        (["diagnose", "--probe", "curvature"],
         "diagnose --probe curvature --model binary_response requires --delta"),
        ("diagnose --probe bias --model conditional_mean --n 100 --d 4 --s 2 "
         "--num-directions 3 --delta 0.5 --step 7 --support-size 9 "
         "--input nosuch.csv".split(),
         "diagnose --probe bias --model conditional_mean does not use "
         "--delta; do not pass --delta"),
        ("fit --input data.csv --tune theory --s 3 --beta 2 --seed 99".split(),
         "fit --tune theory does not use --seed; do not pass --seed"),
        ("path --input data.csv --delta 0.5 --lambda-tgt 0.1 --out p.csv "
         "--seed 77".split(),
         "smooth-threshold: unrecognized arguments: --seed 77"),
        ("toy-risks --seed 5".split(),
         "smooth-threshold: unrecognized arguments: --seed 5"),
        ("diagnose --probe variance --standardize --response q".split(),
         "diagnose --probe variance --model binary_response does not use "
         "--standardize; do not pass --standardize"),
        ("simulate --model conditional_mean --noise logistic".split(),
         "simulate --model conditional_mean does not use --noise; do not "
         "pass --noise"),
    ], ids=["simulate-out", "fit-missing", "fit-unused", "fit-unused-constant",
            "path-missing", "path-out", "bench-out", "bench-missing",
            "diagnose-missing", "diagnose-bias-unused", "fit-theory-seed",
            "path-seed", "toy-risks-seed", "diagnose-variance-data-flags",
            "simulate-noise"])
    def test_refused_without_work(self, tmp_path, monkeypatch, capsys, argv,
                                  message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "input", "message": message}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sub,axes", RUNS, ids=[run_id(*run) for run in RUNS])
    def test_every_unread_flag_refused(self, tmp_path, monkeypatch, capsys,
                                       sub, axes):
        # every flag the subcommand takes outside this run's read set
        monkeypatch.chdir(tmp_path)
        who, names, defaults = cli._reads(sub, axes)
        given = {**axes, **{name: VALUES[name] for name in names
                            if name not in defaults and name not in axes}}
        for name in cli._reads(sub)[1]:
            if name in names or (name == "input" and "probe" in axes):
                continue  # read, or picks the probe's CSV run
            code, out, err = run_cli(argv_of(sub, {**given, name: VALUES[name]}),
                                     capsys)
            assert code == 2, name
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0]) == {
                "error": "input",
                "message": f"{who} does not use {flag(name)}; do not pass "
                           f"{flag(name)}"}
        assert list(tmp_path.iterdir()) == []


class TestConfigEcho:
    """A document's config block lists exactly the settings its run read,
    then the ones the run derived."""

    @pytest.mark.parametrize("sub,axes", VALID_RUNS,
                             ids=[run_id(*run) for run in VALID_RUNS])
    def test_config_keys_are_the_settings_read(self, sim_csv, tmp_path, capsys,
                                               sub, axes):
        _, names, defaults = cli._reads(sub, axes)
        fast = ("n", "d", "reps", "repetitions", "n_pop", "num_directions",
                "support_size")
        given = {**axes, **{name: VALUES[name] for name in names
                            if name not in axes
                            and (name not in defaults or name in fast)}}
        if "input" in names:
            given["input"] = sim_csv
        out = tmp_path / "out.csv"
        if sub in cli._WRITES:
            given["out"] = str(out)
        code, stdout, err = run_cli(argv_of(sub, given), capsys)
        assert code == 0, err
        doc = read_run_doc(out) if sub in cli._WRITES else stdout
        keys = [line.split(" = ")[0][len("config "):]
                for line in doc.splitlines() if line.startswith("config ")]
        derived = {"fit": {"theory": ["delta", "lambda_tgt"],
                           "cv": ["lambda_grid"]}.get(axes.get("tune"), []),
                   "bench": ["delta", "lambda_tgt"],
                   "toy-risks": ["rows"]}.get(sub, [])
        assert keys == ["subcommand"] + names + [name for name in derived
                                                 if name not in names]


# a callee each subcommand reaches, and a run of it
CALLEES = {
    "fit": ("tuned_fit", ["fit", "--input", "INPUT", "--delta", "0.5",
                          "--lambda-tgt", "0.05"]),
    "path": ("path_following", ["path", "--input", "INPUT", "--delta", "0.5",
                                "--lambda-tgt", "0.05", "--out", "OUT"]),
    "simulate": ("generate", ["simulate", "--n", "20", "--d", "3", "--s", "1",
                              "--out", "OUT"]),
    "bench": ("run_benchmark", ["bench", "--n", "60", "--d", "4", "--s", "2",
                                "--delta", "0.5", "--lambda-tgt", "0.05",
                                "--out", "OUT"]),
    "toy-risks": ("toy_population_risks", ["toy-risks", "--out", "OUT"]),
    "diagnose": ("gradient_check", ["diagnose", "--probe", "gradient",
                                    "--input", "INPUT", "--delta", "0.5"]),
}


class TestOneReportPerEvent:
    """Every warning a run raises is one ``warning:`` line at the end of its
    document, never stderr; an event the solver notes is not warned too."""

    def test_every_subcommand_is_covered(self):
        assert sorted(CALLEES) == sorted(cli._SUBCOMMANDS)

    @pytest.mark.parametrize("sub", sorted(CALLEES))
    def test_warning_ends_the_document(self, sub, sim_csv, tmp_path, capsys,
                                       monkeypatch):
        callee, argv = CALLEES[sub]
        real = getattr(cli, callee)

        def warn_then_call(*args, **kwargs):
            warnings.warn(f"synthetic warning from {callee}", RuntimeWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, callee, warn_then_call)
        out = tmp_path / "out.csv"
        argv = [{"INPUT": sim_csv, "OUT": str(out)}.get(a, a) for a in argv]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        doc = (read_run_doc(out) if sub in cli._WRITES else stdout).splitlines()
        assert doc[0] == f"document = smooth-threshold {sub}"
        assert [line for line in doc if line.startswith("warning:")] == [
            f"warning: synthetic warning from {callee}"]
        assert doc[-1] == f"warning: synthetic warning from {callee}"

    @pytest.mark.parametrize("sub", ["fit", "path"])
    def test_target_above_lambda0_is_one_note(self, sub, sim_csv, tmp_path,
                                              capsys):
        out = tmp_path / "p.csv"
        argv = [sub, "--input", sim_csv, "--delta", "1", "--lambda-tgt", "5"]
        code, stdout, err = run_cli(argv + (["--out", str(out)]
                                            if sub == "path" else []), capsys)
        assert code == 0, err
        assert err == ""
        doc = read_run_doc(out) if sub == "path" else stdout
        said = [line for line in doc.splitlines()
                if "exceeds the zero-solution penalty" in line]
        assert len(said) == 1
        assert said[0].startswith("note: lambda_tgt=5 exceeds")
        assert "warning:" not in doc


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

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 71.1 PiB"), "Unable to allocate 71.1 PiB"),
        (MemoryError(), "out of memory")], ids=["numpy", "bare"])
    def test_memory_error_is_one_json_line(self, error, message, tmp_path,
                                           capsys, monkeypatch):
        def exhausted(spec):
            raise error
        monkeypatch.setattr(cli, "generate", exhausted)
        code, out, err = run_cli(["simulate", "--n", "5", "--d", "2", "--s", "1",
                                  "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert json.loads(line) == {"error": "memory", "message": message}
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_csv_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        # simulate names --out, which is opened before the theta_out beside it
        for argv in (["toy-risks"], ["simulate", "--n", "5", "--d", "2", "--s", "1"]):
            code, _, err = run_cli(argv + ["--out", str(out)], capsys)
            assert code == 2
            record = json.loads(err)
            assert record["error"] == "input"
            assert record["message"].startswith(f"cannot write {out}: ")


    @pytest.mark.parametrize("theta_out", ["s.csv", "./s.csv", "s.csv.run.txt"])
    def test_outputs_sharing_a_file_are_refused(self, theta_out, tmp_path,
                                                capsys, monkeypatch):
        # the table at --out, or the document beside it, would overwrite theta*
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["simulate", "--n", "5", "--d", "2", "--s", "1",
                                  "--out", "s.csv", "--theta-out", theta_out],
                                 capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        shared = tmp_path.resolve() / Path(theta_out).name
        assert json.loads(line) == {
            "error": "input", "message": f"two outputs of the run name one "
                                         f"file, {shared}; give each its own path"}
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_theta_out_leaves_no_file(self, tmp_path, capsys):
        theta_out = tmp_path / "missing" / "t.csv"
        code, out, err = run_cli(["simulate", "--n", "5", "--d", "2", "--s", "1",
                                  "--out", str(tmp_path / "s.csv"),
                                  "--theta-out", str(theta_out)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith(f"cannot write {theta_out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_a_file_it_did_not_create(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        out.write_text("kept\n")
        code, _, _ = run_cli(["simulate", "--n", "5", "--d", "2", "--s", "1",
                              "--out", str(out), "--theta-out",
                              str(tmp_path / "missing" / "t.csv")], capsys)
        assert code == 2
        assert [path.name for path in tmp_path.iterdir()] == ["s.csv"]

    def test_failed_run_leaves_an_existing_file_as_it_was(self, tmp_path, capsys):
        # --out opens, then --theta-out cannot: s.csv keeps every byte
        out = tmp_path / "s.csv"
        out.write_text("y,x,z1\n" + "1.0,0.5,0.25\n" * 300)
        before = out.read_bytes()
        code, _, err = run_cli(["simulate", "--n", "5", "--d", "2", "--s", "1",
                                "--out", str(out), "--theta-out",
                                str(tmp_path / "missing" / "t.csv")], capsys)
        assert code == 2 and json.loads(err)["error"] == "input"
        assert out.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["s.csv"]

    def test_failure_while_rows_are_written_keeps_the_old_files(
            self, tmp_path, capsys, monkeypatch):
        def rows():
            yield [1.0]
            raise NumericError("synthetic failure in a row")

        out = tmp_path / "t.csv"
        out.write_text("a\n7.0\n")
        Path(str(out) + ".run.txt").write_text("old document\n")
        code, _, _ = run_table(rows(), out, capsys, monkeypatch)
        assert code == 1
        assert out.read_text() == "a\n7.0\n"
        assert read_run_doc(out) == "old document\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "t.csv", "t.csv.run.txt"]

    def test_symlinked_output_is_written_through(self, tmp_path, capsys,
                                                 monkeypatch):
        # the file the link points to is replaced; the link stays a link
        target = tmp_path / "data" / "t.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "t.csv"
        link.symlink_to(target)
        code, _, err = run_table([[1.0], [2.0]], link, capsys, monkeypatch)
        assert code == 0, err
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == "a\n1.0\n2.0\n"
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "data", "t.csv", "t.csv", "t.csv.run.txt"]

    @pytest.mark.parametrize("schedule", [["--stages", "100000000"],
                                          ["--phi", "0.9999999999"]])
    def test_stage_schedule_too_long_is_bad_input(self, schedule, sim_csv,
                                                  capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--delta", "0.5",
                                  "--lambda-tgt", "0.01", *schedule], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "input"
        assert "at most 10000" in record["message"]

    @pytest.mark.parametrize("flags, message", [
        (["--delta", "0.5", "--lambda-tgt", "0.01", "--eps-tgt", "inf"],
         "eps_tgt must be a positive real, got inf"),
        (["--delta", "0.5", "--lambda-tgt", "inf"],
         "lambda_tgt must be a positive real, got inf"),
        (["--delta", "0.5", "--lambda-tgt", "0.01", "--lambda0", "nan"],
         "lambda0 must be a nonnegative real, got nan"),
        (["--tune", "lepski-s", "--beta", "2", "--c-delta", "1e-322"],
         "the penalty target c_lambda * sqrt(log(d) / (n delta)) overflows at delta = "),
        (["--delta", "inf", "--lambda-tgt", "0.1"],
         "bandwidth must be a positive real, got inf"),
        (["--delta", "nan", "--lambda-tgt", "0.1"],
         "bandwidth must be a positive real, got nan"),
    ], ids=["eps_tgt", "lambda_tgt", "lambda0", "lepski_penalty", "delta_inf",
            "delta_nan"])
    def test_penalty_or_tolerance_not_finite_is_bad_input(self, flags, message,
                                                          sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, *flags], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        record = json.loads(line)
        assert record["error"] == "input"
        assert record["message"].startswith(message)

    def test_device_output_is_written_in_place(self, sim_csv, capsys):
        code, out, err = run_cli(["fit", "--input", sim_csv, "--delta", "0.5",
                                  "--lambda-tgt", "0.1", "--out", os.devnull],
                                 capsys)
        assert (code, out, err) == (0, "", "")
        assert not Path(os.devnull).is_file()

    def test_failure_while_rows_are_written_leaves_no_file(self, tmp_path,
                                                           capsys, monkeypatch):
        def rows():
            yield [1.0]
            raise NumericError("synthetic failure in a row")

        code, out, err = run_table(rows(), tmp_path / "t.csv", capsys, monkeypatch)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "numeric",
                                   "message": "synthetic failure in a row"}
        assert list(tmp_path.iterdir()) == []


class TestTables:
    """Handlers return rows of plain values; ``main`` writes them one at a
    time, after every output of the run is open."""

    def test_numpy_float_cells_read_as_their_float_repr(self, tmp_path, capsys,
                                                        monkeypatch):
        values = [0.1, -0.0, 5e-324, 1e308, math.nan]
        out = tmp_path / "t.csv"
        code, _, err = run_table(([np.float64(v)] for v in values), out, capsys,
                                 monkeypatch)
        assert code == 0, err
        cells = out.read_text().splitlines()[1:]
        assert cells == [repr(float(np.float64(v))) for v in values]
        assert cells == ["0.1", "-0.0", "5e-324", "1e+308", "nan"]

    def test_warning_while_rows_are_written_ends_the_document(
            self, tmp_path, capsys, monkeypatch):
        def rows():
            yield [1.0]
            warnings.warn("synthetic warning from a row", RuntimeWarning)
            yield [2.0]

        out = tmp_path / "t.csv"
        code, stdout, err = run_table(rows(), out, capsys, monkeypatch,
                                      lines=["result rows = 2"])
        assert (code, stdout, err) == (0, "", "")
        assert out.read_text() == "a\n1.0\n2.0\n"
        assert read_run_doc(out).splitlines()[-2:] == [
            "result rows = 2", "warning: synthetic warning from a row"]


def test_module_entry_point_runs_without_runtime_warning():
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "smooth_threshold.cli", "--help"], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_flag_table_matches_the_code_tables():
    """README's table of the flags each run reads shows the flags and
    defaults of cli._READS, tuning.TUNING_MODES, simulate.SIM_MODELS and
    diagnostics.PROBES."""
    groups = {"input": "data flags", "model": "simulation flags"}
    solver = ", ".join(map(flag, cli._SOLVER))

    def read(names):
        text = ", ".join(groups.get(n, flag(n)) for n in names) or "none"
        return text.replace(solver, "solver flags")

    def shown(names, defaults):  # the defaults a group's row does not show
        return [(flag(n), cli._fmt(defaults[n])) for n in names
                if n in defaults and n not in cli._SOLVER
                and (n not in groups or defaults[n] != cli._DEFAULTS[n])]

    sim = ("model", *cli._GROUPS["model"])
    expected = {
        "data flags": (", ".join(map(flag, cli._DATA)),
                       shown(cli._DATA, cli._DEFAULTS)),
        "solver flags": (solver, [(flag(n), cli._fmt(cli._DEFAULTS[n]))
                                  for n in cli._SOLVER]),
        "simulation flags": (", ".join(map(flag, sim)),
                             [(flag("model"), cli._DEFAULTS["model"])]
                             + shown(sim, cli._reads("simulate", {})[2])),
    }
    for model, names in SIM_MODELS.items():
        expected[f"`--model {model}`"] = (read(names), shown(names, cli._DEFAULTS))
    for sub, parts in cli._READS.items():
        axes = {"probe": "gradient"} if sub == "diagnose" else {}
        expected[f"`{sub}`"] = (read(parts), shown(parts, cli._reads(sub, axes)[2]))
        for mode, names in cli._MODES.get(sub, {}).items():
            expected[f"`{sub} --tune {mode}`"] = (
                read(names), shown(names, cli._reads(sub, {"tune": mode})[2]))
    for probe, names in PROBES.items():
        # a probe's row also shows its defaults of flags read through a group
        reads = cli._reads("diagnose", {"probe": probe})
        own = [n for n in reads[1] if n in names or n in PROBE_DEFAULTS[probe]]
        expected[f"`diagnose --probe {probe}`"] = (read(names), shown(own, reads[2]))

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| run | flags read | defaults |\n|---|---|---|\n")[1]
    found = {}
    for line in table.split("\n\n")[0].splitlines():
        run, names, defaults = line.strip("|").split(" | ")
        found[run.strip()] = (names.replace("`", ""),
                              re.findall(r"`(--[\w-]+)` `([^`]*)`", defaults))
    assert found == expected
