"""Command line surface: CSV in, structured text documents and CSV tables out.

Subcommands cover the whole workflow: ``fit`` (one penalized fit), ``path``
(per-stage solution path as CSV), ``simulate`` (write a synthetic dataset),
``bench`` (repeated generate/tune/fit/score table), ``toy-risks``
(closed-form scalar risk curves), and ``diagnose`` (numerical probes).

``fit --tune`` picks the penalty and bandwidth: ``fixed`` (given), ``theory``
(closed-form schedules), ``cv`` (cross-validation curve, then the fit at
lambda_1se), ``lepski-beta`` / ``lepski-s`` (dyadic-grid adaptation of the
bandwidth or the sparsity level, with constants ``--c-sel`` / ``--c-bar``).
One solver config, built from the solver flags, drives every fit a command
makes: CV folds and Lepski grid points included.

Results and probe reports are single ``key = value`` text documents; tables
(path, bench, toy-risks, simulate) are RFC-4180 CSV.  Floats are written with
``repr`` so a written dataset reloads bit-exactly.  Every run records a
config-echo block with all resolved settings.  Errors, among them bad
command-line arguments and unwritable ``--out`` paths, are reported as one
machine-readable JSON line on stderr; exit status is 2 for input errors,
1 for numeric failures, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

import numpy as np

from .diagnostics import (bias_probe, gradient_check,
                          restricted_curvature_probe, variance_probe)
from .errors import InputError, NumericError
from .kernels import BUILTIN_KERNELS, SurrogateLoss, get_kernel
from .optimizer import PathConfig, path_following
from .risk import Dataset, SmoothedRiskSpec
from .simulate import SimSpec, generate, run_benchmark, toy_population_risks
from .tuning import (TUNING_DEFAULTS, TUNING_MODES, lepski_bandwidth,
                     lepski_sparsity, mode_parameters, tuned_penalty)

__all__ = ["ColumnRoles", "load_csv", "main"]


@dataclass(frozen=True)
class ColumnRoles:
    """Which CSV columns play which part in the model.

    ``covariates = None`` takes every column not claimed by another role.
    """

    response: str = "y"
    threshold: str = "x"
    covariates: tuple | None = None
    weight: str | None = None


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(repr(float(v)) for v in value.ravel()) + "]"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def load_csv(path, roles: ColumnRoles | None = None, delimiter: str = ","):
    """Read a header-first UTF-8 CSV into a Dataset.

    Returns ``(dataset, weights, notes)``; ``weights`` is the weight column
    as an array, or None when ``roles.weight`` is unset.  The response
    column must be coded {-1,+1} or {0,1}; in the latter case 0 is mapped to
    -1 and a note records the recoding.  Rows with a missing or non-numeric
    value in any used column, blank lines among them, abort the load with
    their row numbers (1 = first data row) listed.

    A seekable file whose every cell is a plain number is parsed in one pass
    of numpy's C text reader.  Any other file (quoted cells, blank lines,
    ``1_000`` cells, text in unused columns, a pipe) is parsed row by row by
    the ``csv`` module; both give the same arrays, notes and errors.
    """
    roles = roles or ColumnRoles()
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        with handle:
            parsed, d = _read_columns(path, handle, roles, delimiter)
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8 (byte "
                         f"0x{exc.object[exc.start]:02x}: {exc.reason})") from None
    except csv.Error as exc:  # e.g. a stray quote runs past the field limit
        raise InputError(f"cannot parse {path} as CSV: {exc}") from None

    y = parsed[:, 0]
    notes = []
    values = set(np.unique(y).tolist())
    if values <= {0.0, 1.0} and 0.0 in values:
        y = np.where(y == 0.0, -1.0, 1.0)
        notes.append(f"response column {roles.response!r} coded {{0,1}}: "
                     f"0 mapped to -1")
    elif not values <= {-1.0, 1.0}:
        raise InputError(f"response column {roles.response!r} must be coded "
                         f"{{-1,+1}} or {{0,1}}; saw {sorted(values)[:6]}")

    data = Dataset(x=parsed[:, 1], y=y, z=parsed[:, 2:2 + d])
    weights = None if roles.weight is None else parsed[:, -1]
    return data, weights, notes


def _read_columns(path, handle, roles, delimiter):
    """The used columns ``[response, threshold, covariates..., weight]`` of
    every data row as one float table, and the number of covariates."""
    # readline, not iteration, so that tell() still works after the header
    reader = csv.reader(iter(handle.readline, ""), delimiter=delimiter)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise InputError(f"{path} is empty: no header row") from None
    start = handle.tell() if handle.seekable() else None
    first = handle.readline()
    if not first:
        raise InputError(f"{path} has a header but no data rows")
    columns, d = _used_columns(path, header, roles)

    lines = chain([first], handle)
    if start is not None:
        table = _read_table(path, lines, len(header), reader.line_num,
                            delimiter)
        if table is not None:
            return table[:, columns], d
        handle.seek(start)
        lines = handle
    return _parse_rows(csv.reader(lines, delimiter=delimiter), len(header),
                       columns), d


def _used_columns(path, header, roles):
    """Check ``header`` against ``roles``; return the header indices of the
    used columns and the number of covariates."""
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise InputError(f"duplicate column names in {path}: {dupes}")

    index = {name: i for i, name in enumerate(header)}
    named = {"response": roles.response, "threshold": roles.threshold}
    if roles.weight is not None:
        named["weight"] = roles.weight
    for role, name in named.items():
        if name not in index:
            raise InputError(f"{role} column {name!r} not found; file has "
                             f"columns {header}")

    if roles.covariates is None:
        claimed = set(named.values())
        covariates = [h for h in header if h not in claimed]
        if not covariates:
            raise InputError("no covariate columns remain after assigning "
                             "response/threshold/weight roles")
    else:
        covariates = [c.strip() for c in roles.covariates]
        if not covariates:
            raise InputError("covariate list is empty")
        for name in covariates:
            if name not in index:
                raise InputError(f"covariate column {name!r} not found; file "
                                 f"has columns {header}")
        overlap = set(covariates) & set(named.values())
        if overlap or len(set(covariates)) != len(covariates):
            raise InputError(f"covariate columns overlap another role or "
                             f"repeat: {sorted(overlap) or covariates}")

    used = [roles.response, roles.threshold] + covariates
    if roles.weight is not None:
        used.append(roles.weight)
    return [index[name] for name in used], len(covariates)


def _read_table(path, lines, width, header_lines, delimiter):
    """Every cell of the data ``lines`` of ``path`` as an ``(n, width)``
    float table read by numpy's C reader, or None when the row parser has to
    read them: some cell is not a plain number, or numpy saw other rows than
    ``csv`` would (it skips blank lines)."""
    try:
        with warnings.catch_warnings():
            # a data section of blank lines only warns "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, dtype=float, delimiter=delimiter,
                               comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (_line_count(path) - header_lines, width):
        return None
    return table


_CHUNK_BYTES = 1 << 20


def _line_count(path) -> int:
    """Lines of ``path`` as a text handle opened with ``newline=""`` yields
    them (ended by ``\\n``, ``\\r\\n`` or a lone ``\\r``), counted in
    binary chunks."""
    ends, tail = 0, b""
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(_CHUNK_BYTES), b""):
            ends += chunk.count(b"\n")
            if b"\r" in chunk:  # spares plain files two more scans
                ends += chunk.count(b"\r") - chunk.count(b"\r\n")
            ends -= tail == b"\r" and chunk[:1] == b"\n"
            tail = chunk[-1:]
    return ends + (tail not in (b"", b"\n", b"\r"))


def _parse_rows(rows, width, columns):
    """Parse the ``columns`` cells of ``csv`` records ``rows`` one row at a
    time into one flat float buffer; name every row that is not ``width``
    cells long or has a non-numeric used cell."""
    pick = itemgetter(*columns)
    flat = array("d")
    bad_rows = []
    for r, row in enumerate(rows, start=1):
        if len(row) == width:
            try:
                flat.extend([float(cell.strip()) for cell in pick(row)])
                continue
            except ValueError:
                pass
        bad_rows.append(r)
    if bad_rows:
        shown = bad_rows[:20]
        suffix = "" if len(bad_rows) <= 20 else f" (and {len(bad_rows) - 20} more)"
        raise InputError(f"rows with missing or non-numeric values in used "
                         f"columns: {shown}{suffix}")
    return np.frombuffer(flat).reshape(-1, len(columns))


def _roles_from_args(args) -> ColumnRoles:
    covariates = None
    if args.covariates:
        covariates = tuple(c.strip() for c in args.covariates.split(",")
                           if c.strip())
        if not covariates:
            raise InputError("--covariates was given but names no columns")
    return ColumnRoles(response=args.response, threshold=args.threshold,
                       covariates=covariates, weight=args.weight)


def _load_input(args):
    """Dataset + weights + notes + inverse scale factors for the run."""
    if args.input is None:
        raise InputError(f"{args.subcommand} requires --input")
    data, weights, notes = load_csv(args.input, _roles_from_args(args),
                                    delimiter=args.delimiter)
    scales = np.ones(data.d)
    if args.standardize:
        observed = data.z.std(axis=0)
        flat = np.flatnonzero(observed == 0)
        if flat.size:
            notes = notes + [f"standardize: zero-variance covariate "
                             f"column(s) {flat.tolist()} left unscaled"]
        scales = np.where(observed > 0, observed, 1.0)
        data = Dataset(x=data.x, y=data.y, z=data.z / scales)
        notes = notes + ["standardize: covariates divided by their standard "
                         "deviation; reported theta is on the original scale"]
    return data, weights, notes, scales


def _path_config(args, lambda_tgt: float = 1.0) -> PathConfig:
    return PathConfig(lambda_tgt=lambda_tgt, lambda0=args.lambda0,
                      num_stages=args.stages, phi=args.phi, nu=args.nu,
                      eta=args.eta, eps_tgt=args.eps_tgt,
                      omega_radius=args.radius)


def _solver_echo(args) -> dict:
    return {"lambda0": args.lambda0, "stages": args.stages, "phi": args.phi,
            "nu": args.nu, "eta": args.eta, "eps_tgt": args.eps_tgt,
            "radius": args.radius}


def _config_lines(pairs: dict) -> list:
    return [f"config {key} = {_fmt(val)}" for key, val in pairs.items()]


def _open_out(out, newline=None):
    try:
        return open(out, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _write_doc(lines, out) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with _open_out(out) as handle:
            handle.write(text)


def _require_out(args, what: str = "a CSV table") -> None:
    if args.out is None:
        raise InputError(f"{args.subcommand} writes {what}; --out is required")


def _write_csv(out, header, rows) -> None:
    with _open_out(out, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _run_doc_path(out: str) -> str:
    return out + ".run.txt"


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.stderr.flush()


def _sim_from_args(args, s=None) -> SimSpec:
    return SimSpec(model=args.model, n=args.n, d=args.d,
                   s=args.s if s is None else s, mu=args.mu,
                   noise_sd=args.noise_sd, noise=args.noise, seed=args.seed)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise InputError(f"{args.subcommand} requires {_flag(name)}")


def _tuning_params(args, skip=(), defaults=None) -> dict:
    """The parameters ``--tune`` reads (``tuning.mode_parameters``), checked
    against the tuning flags of the subcommand other than ``skip``."""
    names = dict.fromkeys(chain.from_iterable(TUNING_MODES.values()))
    given = {name: getattr(args, name, None) for name in names
             if name not in skip}
    return mode_parameters(args.tune, given,
                           f"{args.subcommand} --tune {args.tune}", _flag,
                           defaults)


def _delta_grid_from_arg(text: str) -> list:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputError(f"--delta-grid must be comma-separated numbers, "
                         f"got {text!r}") from None
    if not grid:
        raise InputError("--delta-grid names no values")
    return grid


def _fit_lines(path, scales) -> list:
    """Result block shared by fit-like subcommands."""
    last = path.stages[-1]
    theta = path.theta_final / scales
    lines = []
    for note in path.notes:
        lines.append(f"note: {note}")
    lines.append(f"result lambda_tgt = {_fmt(path.config_echo.lambda_tgt)}")
    lines.append(f"result stages = {len(path.stages)}")
    lines.append(f"result status = {last.status}")
    lines.append(f"result exit_omega = {_fmt(last.exit_omega)}")
    lines.append(f"result nnz = {int(np.count_nonzero(theta))}")
    lines.append(f"result theta = {_fmt(theta)}")
    return lines


def _warning_lines(caught) -> list:
    return [f"warning: {w.message}" for w in caught]


def _cmd_fit(args) -> None:
    params = _tuning_params(args)
    data, weights, notes, scales = _load_input(args)
    kernel = get_kernel(args.kernel)
    cfg = _path_config(args)

    echo = {"subcommand": "fit", "input": args.input,
            "response": args.response, "threshold": args.threshold,
            "covariates": args.covariates or "rest",
            "weight": args.weight, "standardize": args.standardize,
            "kernel": args.kernel, "tune": args.tune, "seed": args.seed,
            **_solver_echo(args), **params}
    lines = ["document = smooth-threshold fit"]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.tune == "lepski-beta":
            delta_hat, theta, fits = lepski_bandwidth(
                data, kernel, **params, path_cfg=cfg, weights=weights)
            extra = _lepski_lines(fits, scales,
                                  selected=f"result delta_hat = {_fmt(delta_hat)}",
                                  theta=theta)
        elif args.tune == "lepski-s":
            s_hat, theta, fits = lepski_sparsity(
                data, kernel, **params, path_cfg=cfg, weights=weights)
            extra = _lepski_lines(fits, scales,
                                  selected=f"result s_hat = {s_hat}",
                                  theta=theta)
        else:
            delta, lam, cv = tuned_penalty(data, kernel, args.tune, params,
                                           args.seed, weights, cfg)
            spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, delta), weights)
            path = path_following(spec, replace(cfg, lambda_tgt=lam))
            extra = _fit_lines(path, scales)
            if args.tune == "theory":
                extra = [f"result delta = {_fmt(delta)}"] + extra
            if cv is None:
                echo.update(delta=delta, lambda_tgt=lam)
            else:
                echo["lambda_grid"] = cv.lambda_grid
                extra = _cv_lines(cv) + extra

    lines += _config_lines(echo)
    lines += [f"note: {n}" for n in notes]
    lines += extra
    lines += _warning_lines(caught)
    _write_doc(lines, args.out)


def _cv_lines(cv) -> list:
    lines = ["table cv: lambda mean_cv_loss se_cv_loss"]
    for lam, mean, se in zip(cv.lambda_grid, cv.mean_cv_loss, cv.se_cv_loss):
        lines.append(f"row cv = {_fmt(lam)} {_fmt(mean)} {_fmt(se)}")
    return lines + [f"result lambda_min = {_fmt(cv.lambda_min)}",
                    f"result lambda_1se = {_fmt(cv.lambda_1se)}"]


def _lepski_lines(fits, scales, selected: str, theta) -> list:
    lines = ["table fits: grid_value delta lambda status nnz"]
    for fit in fits:
        nnz = "" if fit.theta is None else int(np.count_nonzero(fit.theta))
        lines.append(f"row fits = {_fmt(fit.grid_value)} {_fmt(fit.delta)} "
                     f"{_fmt(fit.lam)} {fit.status} {nnz}")
    rescaled = theta / scales
    lines.append(selected)
    lines.append(f"result nnz = {int(np.count_nonzero(rescaled))}")
    lines.append(f"result theta = {_fmt(rescaled)}")
    return lines


def _cmd_path(args) -> None:
    _require(args, ["delta", "lambda_tgt"])
    _require_out(args)
    data, weights, notes, scales = _load_input(args)
    kernel = get_kernel(args.kernel)
    spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, args.delta), weights)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = path_following(spec, _path_config(args, args.lambda_tgt))

    header = ["stage", "lambda", "iterations", "nnz", "objective",
              "exit_omega", "status", "step"] + [f"theta_{j + 1}"
                                                 for j in range(data.d)]
    rows = []
    for stage in path.stages:
        theta = stage.theta / scales
        rows.append([stage.stage_index, repr(float(stage.lam)),
                     stage.iterations, stage.nnz,
                     repr(float(stage.objective_trace[-1])),
                     repr(float(stage.exit_omega)), stage.status,
                     repr(float(stage.step))]
                    + [repr(float(v)) for v in theta])
    _write_csv(args.out, header, rows)

    echo = {"subcommand": "path", "input": args.input,
            "kernel": args.kernel, "delta": args.delta,
            "lambda_tgt": args.lambda_tgt, **_solver_echo(args),
            "standardize": args.standardize, "seed": args.seed,
            "out": args.out}
    doc = ["document = smooth-threshold path"] + _config_lines(echo)
    doc += [f"note: {n}" for n in notes]
    doc += [f"note: {n}" for n in path.notes]
    doc += _warning_lines(caught)
    doc.append(f"result stages = {len(path.stages)}")
    doc.append(f"result table = {args.out}")
    _write_doc(doc, _run_doc_path(args.out))


def _cmd_simulate(args) -> None:
    _require_out(args, "CSV files")
    sim = _sim_from_args(args)
    data, theta_star = generate(sim)

    header = ["y", "x"] + [f"z{j + 1}" for j in range(sim.d)]
    rows = [[repr(float(data.y[i])), repr(float(data.x[i]))]
            + [repr(float(v)) for v in data.z[i]]
            for i in range(sim.n)]
    _write_csv(args.out, header, rows)

    theta_out = args.theta_out or args.out + ".theta.csv"
    _write_csv(theta_out, ["coordinate", "value"],
               [[j + 1, repr(float(v))] for j, v in enumerate(theta_star)])

    echo = {"subcommand": "simulate", "model": sim.model, "n": sim.n,
            "d": sim.d, "s": sim.s, "mu": sim.mu, "noise_sd": sim.noise_sd,
            "noise": sim.noise, "seed": sim.seed, "out": args.out,
            "theta_out": theta_out}
    doc = ["document = smooth-threshold simulate"] + _config_lines(echo)
    doc.append(f"result rows = {sim.n}")
    _write_doc(doc, _run_doc_path(args.out))


def _cmd_bench(args) -> None:
    _require_out(args)
    sim = _sim_from_args(args, s=3 if args.s is None else args.s)
    kernel = get_kernel(args.kernel)
    # --s is the simulated sparsity, read by theory tuning as its s
    params = _tuning_params(args, skip=("s",),
                            defaults={"delta": 1.0, "s": sim.s})
    params.pop("s", None)
    constants = {name: value for name, value in params.items()
                 if name in TUNING_DEFAULTS}

    result = run_benchmark(sim, kernel, tune=args.tune, **params,
                           path_cfg=_path_config(args),
                           repetitions=args.reps, seed=args.seed)

    header = ["repetition", "l1", "l2", "linf", "nnz", "runtime",
              "lambda_used", "delta_used", "messages"]
    rows = [[row.repetition, repr(row.l1), repr(row.l2), repr(row.linf),
             row.nnz, repr(row.runtime), repr(row.lambda_used),
             repr(row.delta_used), "; ".join(row.messages)]
            for row in result.rows]
    _write_csv(args.out, header, rows)

    # echo the delta and lambda the repetitions ran with (theory computes both)
    first = result.rows[0]
    echo = {"subcommand": "bench", "model": sim.model, "n": sim.n,
            "d": sim.d, "s": sim.s, "mu": sim.mu, "noise_sd": sim.noise_sd,
            "noise": sim.noise, "kernel": args.kernel, "tune": args.tune,
            "delta": first.delta_used,
            "lambda_tgt": None if args.tune == "cv" else first.lambda_used,
            **_solver_echo(args), "beta": args.beta, **constants,
            "reps": args.reps, "seed": args.seed, "out": args.out}
    doc = ["document = smooth-threshold bench"] + _config_lines(echo)
    for norm, stats in result.summary().items():
        doc.append(f"result {norm}_mean = {_fmt(stats['mean'])}")
        doc.append(f"result {norm}_sd = {_fmt(stats['sd'])}")
    _write_doc(doc, _run_doc_path(args.out))


def _cmd_toy_risks(args) -> None:
    _require_out(args)
    if args.grid_step <= 0:
        raise InputError(f"--grid-step must be positive, got {args.grid_step}")
    if args.grid_stop < args.grid_start:
        raise InputError("--grid-stop must be >= --grid-start")
    count = int(round((args.grid_stop - args.grid_start) / args.grid_step)) + 1
    thetas = args.grid_start + args.grid_step * np.arange(count)
    table = toy_population_risks(thetas)
    hinge_slope = np.gradient(table.risk_hinge, thetas)
    exp_slope = np.gradient(table.risk_exp, thetas)

    header = ["theta", "risk01", "risk_hinge", "risk_exp",
              "hinge_derivative", "exp_derivative"]
    rows = [[repr(float(thetas[i])), repr(float(table.risk01[i])),
             repr(float(table.risk_hinge[i])), repr(float(table.risk_exp[i])),
             repr(float(hinge_slope[i])), repr(float(exp_slope[i]))]
            for i in range(count)]
    _write_csv(args.out, header, rows)

    echo = {"subcommand": "toy-risks", "grid_start": args.grid_start,
            "grid_stop": args.grid_stop, "grid_step": args.grid_step,
            "rows": count, "out": args.out}
    _write_doc(["document = smooth-threshold toy-risks"]
               + _config_lines(echo), _run_doc_path(args.out))


def _cmd_diagnose(args) -> None:
    kernel = get_kernel(args.kernel)
    echo = {"subcommand": "diagnose", "probe": args.probe,
            "kernel": args.kernel, "seed": args.seed}
    notes = []

    if args.probe == "gradient":
        _require(args, ["delta"])
        step = 1e-5 if args.step is None else args.step
        data, weights, notes, _ = _load_input(args)
        spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, args.delta),
                                weights)
        echo.update(input=args.input, delta=args.delta, step=step)
        report = gradient_check(spec, np.zeros(data.d), step=step)
    elif args.probe == "variance":
        sim = _sim_from_args(args)
        grid = _delta_grid_from_arg(args.delta_grid)
        echo.update(model=sim.model, n=sim.n, d=sim.d, s=sim.s,
                    delta_grid=np.asarray(grid),
                    repetitions=args.repetitions, n_pop=args.n_pop)
        report = variance_probe(sim, kernel, grid,
                                repetitions=args.repetitions,
                                seed=args.seed, n_pop=args.n_pop)
    elif args.probe == "bias":
        sim = _sim_from_args(args)
        grid = _delta_grid_from_arg(args.delta_grid)
        echo.update(model=sim.model, n=sim.n, d=sim.d, s=sim.s,
                    delta_grid=np.asarray(grid),
                    num_directions=args.num_directions)
        report = bias_probe(sim, kernel, grid,
                            num_directions=args.num_directions,
                            seed=args.seed)
    else:  # curvature
        _require(args, ["delta"])
        step = 1e-3 if args.step is None else args.step
        if args.input is not None:
            data, weights, notes, _ = _load_input(args)
            spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, args.delta),
                                    weights)
            echo.update(input=args.input, delta=args.delta)
        else:
            sim = _sim_from_args(args)
            data, _ = generate(sim)
            spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, args.delta))
            echo.update(model=sim.model, n=sim.n, d=sim.d, s=sim.s,
                        delta=args.delta)
        echo.update(support_size=args.support_size,
                    num_directions=args.num_directions,
                    ball_radius=args.ball_radius, step=step)
        _, _, report = restricted_curvature_probe(
            spec, args.support_size, num_directions=args.num_directions,
            ball_radius=args.ball_radius, seed=args.seed, step=step)

    lines = ["document = smooth-threshold diagnose"] + _config_lines(echo)
    lines += [f"note: {n}" for n in notes]
    lines += report.lines()
    _write_doc(lines, args.out)


def _add_data_flags(parser) -> None:
    parser.add_argument("--input", default=None,
                        help="input CSV with a header row")
    parser.add_argument("--response", default="y",
                        help="response column name (values in {-1,+1} or {0,1})")
    parser.add_argument("--threshold", default="x",
                        help="threshold-variable column name")
    parser.add_argument("--covariates", default=None,
                        help="comma-separated covariate columns "
                             "(default: every remaining column)")
    parser.add_argument("--weight", default=None,
                        help="optional per-sample weight column")
    parser.add_argument("--delimiter", default=",",
                        help="CSV delimiter (default comma)")
    parser.add_argument("--standardize", action="store_true",
                        help="scale covariates to unit standard deviation; "
                             "theta is reported on the original scale")


def _add_solver_flags(parser) -> None:
    parser.add_argument("--kernel", default="gaussian",
                        choices=BUILTIN_KERNELS)
    parser.add_argument("--delta", type=float, default=None,
                        help="smoothing bandwidth")
    parser.add_argument("--lambda-tgt", dest="lambda_tgt", type=float,
                        default=None, help="target penalty level")
    parser.add_argument("--lambda0", type=float, default=None,
                        help="starting penalty (default: gradient sup-norm "
                             "at zero)")
    parser.add_argument("--stages", type=int, default=None,
                        help="number of penalty stages")
    parser.add_argument("--phi", type=float, default=None,
                        help="per-stage penalty decay in (0,1)")
    parser.add_argument("--nu", type=float, default=0.25,
                        help="stage tolerance multiplier")
    parser.add_argument("--eta", type=float, default=1.0,
                        help="initial proximal step size")
    parser.add_argument("--eps-tgt", dest="eps_tgt", type=float, default=None,
                        help="final stage tolerance")
    parser.add_argument("--radius", type=float, default=10.0,
                        help="radius of the feasible l2 ball")


def _add_tuning_flags(parser, modes) -> None:
    parser.add_argument("--tune", default="fixed", choices=modes)
    parser.add_argument("--folds", type=int, default=None,
                        help="cross-validation folds for cv tuning (default "
                             f"{TUNING_DEFAULTS['folds']})")
    parser.add_argument("--s", type=int, default=None,
                        help="sparsity level for theory/lepski-beta tuning")
    parser.add_argument("--beta", type=float, default=None,
                        help="smoothness level for theory/lepski-s tuning")
    parser.add_argument("--c-delta", dest="c_delta", type=float, default=None,
                        help="bandwidth constant for theory/lepski-s tuning "
                             f"(default {TUNING_DEFAULTS['c_delta']})")
    parser.add_argument("--c-lambda", dest="c_lambda", type=float,
                        default=None,
                        help="penalty constant for theory/lepski tuning "
                             f"(default {TUNING_DEFAULTS['c_lambda']})")


def _add_sim_flags(parser) -> None:
    parser.add_argument("--model", default="binary_response",
                        choices=("binary_response", "conditional_mean",
                                 "one_bit_noiseless"))
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--mu", type=float, default=2.0)
    parser.add_argument("--noise-sd", dest="noise_sd", type=float,
                        default=0.1)
    parser.add_argument("--noise", default="gaussian",
                        choices=("gaussian", "logistic"))


def _add_common_flags(parser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="output path (documents default to stdout; "
                             "CSV subcommands require it)")


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InputError, so they follow the error contract;
    subparsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="smooth-threshold",
        description="Sparse individualized thresholds by penalized "
                    "kernel-smoothed classification.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="one tuned or fixed penalized fit")
    _add_data_flags(fit)
    _add_solver_flags(fit)
    _add_tuning_flags(fit, ("fixed", "cv", "theory", "lepski-beta",
                            "lepski-s"))
    fit.add_argument("--c-sel", dest="c_sel", type=float, default=None,
                     help="selection constant for --tune lepski-beta "
                          f"(default {TUNING_DEFAULTS['c_sel']})")
    fit.add_argument("--c-bar", dest="c_bar", type=float, default=None,
                     help="selection constant for --tune lepski-s "
                          f"(default {TUNING_DEFAULTS['c_bar']})")
    _add_common_flags(fit)

    path = sub.add_parser("path", help="per-stage solution path as CSV")
    _add_data_flags(path)
    _add_solver_flags(path)
    _add_common_flags(path)

    sim = sub.add_parser("simulate", help="write a synthetic dataset as CSV")
    _add_sim_flags(sim)
    sim.add_argument("--s", type=int, default=3)
    sim.add_argument("--theta-out", dest="theta_out", default=None,
                     help="path for the true coefficient table "
                          "(default: OUT.theta.csv)")
    _add_common_flags(sim)

    bench = sub.add_parser("bench", help="repeated generate/tune/fit table")
    _add_sim_flags(bench)
    _add_solver_flags(bench)
    _add_tuning_flags(bench, ("fixed", "cv", "theory"))
    bench.add_argument("--reps", type=int, default=1)
    _add_common_flags(bench)

    toy = sub.add_parser("toy-risks",
                         help="closed-form scalar risk curves as CSV")
    toy.add_argument("--grid-start", dest="grid_start", type=float,
                     default=0.0)
    toy.add_argument("--grid-stop", dest="grid_stop", type=float, default=2.0)
    toy.add_argument("--grid-step", dest="grid_step", type=float,
                     default=0.01)
    _add_common_flags(toy)

    diag = sub.add_parser("diagnose", help="numerical probe reports")
    _add_data_flags(diag)
    _add_sim_flags(diag)
    diag.add_argument("--probe", required=True,
                      choices=("gradient", "variance", "bias", "curvature"))
    diag.add_argument("--kernel", default="gaussian", choices=BUILTIN_KERNELS)
    diag.add_argument("--delta", type=float, default=None)
    diag.add_argument("--delta-grid", dest="delta_grid",
                      default="0.5,0.25,0.125")
    diag.add_argument("--s", type=int, default=3)
    diag.add_argument("--repetitions", type=int, default=20)
    diag.add_argument("--n-pop", dest="n_pop", type=int, default=1_000_000)
    diag.add_argument("--num-directions", dest="num_directions", type=int,
                      default=20)
    diag.add_argument("--support-size", dest="support_size", type=int,
                      default=5)
    diag.add_argument("--ball-radius", dest="ball_radius", type=float,
                      default=1.0)
    diag.add_argument("--step", type=float, default=None,
                      help="probe step size (default: 1e-5 gradient, "
                           "1e-3 curvature)")
    _add_common_flags(diag)

    return top


_HANDLERS = {
    "fit": _cmd_fit,
    "path": _cmd_path,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "toy-risks": _cmd_toy_risks,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _HANDLERS[args.subcommand](args)
    except InputError as exc:
        _emit_error("input", str(exc))
        return 2
    except NumericError as exc:
        _emit_error("numeric", str(exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
