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

Which flags a run reads, and their defaults, comes from one table per axis:
``_READS`` for each subcommand (with its data, solver, simulation and output
flags), ``tuning.TUNING_MODES`` for each ``--tune`` mode,
``simulate.SIM_MODELS`` for each ``--model`` and ``diagnostics.PROBES`` for
each ``--probe``.  Each subcommand takes only flags that some run of it
reads, and a flag not given stays unset.  ``errors.read_settings`` then
fills in the defaults and refuses, as bad input and before any data are read
or generated, a missing flag and a given one that the run does not read.

Each handler returns its document lines and its tables, each a path, a
header and rows of plain values made one at a time; no handler opens a file.
``main`` opens every output before it writes any (``--out``, the other
tables, then the document) and refuses two outputs naming one file.  It
writes each file under a new name beside it and renames them into place
only once the whole run has succeeded, so a failed run changes no file.
Results and probe reports are single ``key = value`` text documents;
tables are RFC-4180 CSV, with the document as ``<out>.run.txt``.  Floats are written as the ``repr`` of their Python
float, so a written dataset reloads bit-exactly.  Every document opens with
a config-echo block: exactly the settings the run read, then the few it
derived (fit's and bench's delta and lambda_tgt, the cv lambda_grid,
simulate's theta_out, toy-risks' rows).  It ends with one ``warning:`` line
per warning the run raised, rows included.  Errors, among them bad
command-line arguments and unwritable ``--out`` paths, are the only output
on stderr, as one machine-readable JSON line; exit status is 2 for input
errors, 1 for numeric failures and exhausted memory, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

import numpy as np

from .diagnostics import (PROBE_DEFAULTS, PROBES, bias_probe, gradient_check,
                          restricted_curvature_probe, variance_probe)
from .errors import InputError, NumericError, _fmt, read_settings
from .kernels import BUILTIN_KERNELS, SurrogateLoss, get_kernel
from .optimizer import PathConfig, _DEFAULT_CONFIG, path_following
from .risk import Dataset, SmoothedRiskSpec
from .simulate import (BENCH_DEFAULTS, BENCH_MODES, SIM_DEFAULTS, SIM_MODELS,
                       SimSpec, generate, run_benchmark, toy_population_risks)
from .tuning import (TUNING_DEFAULTS, TUNING_MODES, lepski_bandwidth,
                     lepski_sparsity, tuned_penalty)

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
    header_text = []

    def readline():  # not iteration, so that tell() still works after the header
        header_text.append(handle.readline())
        return header_text[-1]

    reader = csv.reader(iter(readline, ""), delimiter=delimiter)
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
                            "".join(header_text).count('"'), delimiter)
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


def _read_table(path, lines, width, header_lines, header_quotes, delimiter):
    """Every cell of the data ``lines`` of ``path`` as an ``(n, width)``
    float table read by numpy's C reader, or None when the row parser has to
    read them: a data row holds a quote (checked before numpy parses
    anything), some cell is not a plain number, or numpy saw other rows than
    ``csv`` would (it skips blank lines)."""
    line_count, quotes = _line_and_quote_count(path)
    if quotes > header_quotes:
        return None
    try:
        with warnings.catch_warnings():
            # a data section of blank lines only warns "input contained no data"
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(lines, dtype=float, delimiter=delimiter,
                               comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (line_count - header_lines, width):
        return None
    return table


_CHUNK_BYTES = 1 << 20


def _line_and_quote_count(path):
    """The lines of ``path`` as a text handle opened with ``newline=""``
    yields them (ended by ``\\n``, ``\\r\\n`` or a lone ``\\r``), and its
    ``"`` characters, counted in binary chunks."""
    ends, quotes, tail = 0, 0, b""
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(_CHUNK_BYTES), b""):
            ends += chunk.count(b"\n")
            if b"\r" in chunk:  # spares plain files two more scans
                ends += chunk.count(b"\r") - chunk.count(b"\r\n")
            if b'"' in chunk:  # spares plain files a second scan
                quotes += chunk.count(b'"')
            ends -= tail == b"\r" and chunk[:1] == b"\n"
            tail = chunk[-1:]
    return ends + (tail not in (b"", b"\n", b"\r")), quotes


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
    return PathConfig(lambda_tgt=lambda_tgt, **{field: getattr(args, flag)
                                                for flag, field in _SOLVER.items()})


def _open_outputs(paths, stack, renames) -> list:
    """Open every output of a run (None is stdout) before any is written;
    one that cannot be opened or names the file of another is bad input.
    A path that names a regular file or nothing yet is written through any
    link under a new name beside its file, and ``renames`` gets the pair
    (new name, file) to move into place once the run succeeds; any other
    path (a device, a FIFO) is written in place.  ``stack`` gets the
    handles."""
    real = [os.path.realpath(path) for path in filter(None, paths)]
    for i, path in enumerate(real):
        if path in real[:i]:
            raise InputError(f"two outputs of the run name one file, {path}; "
                             f"give each its own path")
    handles = []
    for path in paths:
        if path is None:
            handles.append(sys.stdout)
            continue
        name = target = os.path.realpath(path)
        if os.path.isfile(target) or not os.path.lexists(target):
            name = f"{target}.{os.getpid()}.partial"
        try:
            handles.append(stack.enter_context(open(
                name, "x" if name != target else "w", encoding="utf-8", newline="")))
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        if name != target:
            renames.append((name, target))
    return handles


def _sim_from_args(args) -> SimSpec:
    return SimSpec(model=args.model, n=args.n, d=args.d, s=args.s,
                   seed=args.seed, **{name: getattr(args, name)
                                      for name in SIM_MODELS[args.model]})


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _delta_grid_from_arg(text: str) -> list:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InputError(f"--delta-grid must be comma-separated numbers, "
                         f"got {text!r}") from None
    if not grid:
        raise InputError("--delta-grid names no values")
    return grid


def _cmd_fit(args, config):
    data, weights, notes, scales = _load_input(args)
    kernel = get_kernel(args.kernel)
    cfg = _path_config(args)
    params = {name: getattr(args, name) for name in TUNING_MODES[args.tune]}
    if args.tune in _LEPSKI:
        select, result = _LEPSKI[args.tune]
        chosen, theta, fits = select(data, kernel, **params, path_cfg=cfg, weights=weights)
        extra = ["table fits: grid_value delta lambda status nnz"]
        for fit in fits:
            nnz = "" if fit.theta is None else int(np.count_nonzero(fit.theta))
            extra.append(f"row fits = {_fmt(fit.grid_value)} {_fmt(fit.delta)} "
                         f"{_fmt(fit.lam)} {fit.status} {nnz}")
        extra.append(f"result {result} = {_fmt(chosen)}")
    else:
        delta, lam, cv = tuned_penalty(data, kernel, args.tune, params,
                                       config.get("seed"), weights, cfg)
        spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, delta), weights)
        path = path_following(spec, replace(cfg, lambda_tgt=lam))
        theta, last = path.theta_final, path.stages[-1]
        extra = [f"note: {note}" for note in path.notes] + [
            f"result lambda_tgt = {_fmt(path.config_echo.lambda_tgt)}",
            f"result stages = {len(path.stages)}",
            f"result status = {last.status}",
            f"result exit_omega = {_fmt(last.exit_omega)}"]
        if args.tune == "theory":
            extra = [f"result delta = {_fmt(delta)}"] + extra
        if cv is None:
            config.update(delta=delta, lambda_tgt=lam)
        else:
            config["lambda_grid"] = cv.lambda_grid
            extra = _cv_lines(cv) + extra
    theta = theta / scales  # on the original scale
    return [f"note: {n}" for n in notes] + extra + [
        f"result nnz = {int(np.count_nonzero(theta))}",
        f"result theta = {_fmt(theta)}"], []


def _cv_lines(cv) -> list:
    lines = ["table cv: lambda mean_cv_loss se_cv_loss"]
    for lam, mean, se in zip(cv.lambda_grid, cv.mean_cv_loss, cv.se_cv_loss):
        lines.append(f"row cv = {_fmt(lam)} {_fmt(mean)} {_fmt(se)}")
    return lines + [f"result lambda_min = {_fmt(cv.lambda_min)}",
                    f"result lambda_1se = {_fmt(cv.lambda_1se)}"]


def _cmd_path(args, config):
    data, weights, notes, scales = _load_input(args)
    kernel = get_kernel(args.kernel)
    spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, args.delta), weights)
    path = path_following(spec, _path_config(args, args.lambda_tgt))

    header = ["stage", "lambda", "iterations", "nnz", "objective",
              "exit_omega", "status", "step", "halvings"] + [
                  f"theta_{j + 1}" for j in range(data.d)]
    rows = ([stage.stage_index, stage.lam, stage.iterations, stage.nnz,
             stage.objective_trace[-1], stage.exit_omega, stage.status,
             stage.step, stage.halvings] + (stage.theta / scales).tolist()
            for stage in path.stages)
    lines = [f"note: {n}" for n in notes + list(path.notes)]
    lines += [f"result stages = {len(path.stages)}", f"result table = {args.out}"]
    return lines, [(args.out, header, rows)]


def _cmd_simulate(args, config):
    sim = _sim_from_args(args)
    data, theta_star = generate(sim)
    config["theta_out"] = args.theta_out or args.out + ".theta.csv"
    header = ["y", "x"] + [f"z{j + 1}" for j in range(sim.d)]
    rows = ([y, x] + z.tolist()
            for y, x, z in zip(data.y.tolist(), data.x.tolist(), data.z))
    return [f"result rows = {sim.n}"], [
        (args.out, header, rows),
        (config["theta_out"], ["coordinate", "value"],
         enumerate(theta_star.tolist(), start=1))]


def _cmd_bench(args, config):
    params = {name: getattr(args, name) for name in _BENCH_MODES[args.tune]}
    result = run_benchmark(_sim_from_args(args), get_kernel(args.kernel),
                           tune=args.tune, **params, path_cfg=_path_config(args),
                           repetitions=args.reps, seed=args.seed)

    header = ["repetition", "l1", "l2", "linf", "nnz", "runtime",
              "lambda_used", "delta_used", "messages"]
    rows = ([row.repetition, row.l1, row.l2, row.linf, row.nnz, row.runtime,
             row.lambda_used, row.delta_used, "; ".join(row.messages)]
            for row in result.rows)

    # the delta and lambda the repetitions ran with (theory computes both)
    first = result.rows[0]
    config.update(delta=first.delta_used,
                  lambda_tgt=None if args.tune == "cv" else first.lambda_used)
    lines = []
    for norm, stats in result.summary().items():
        lines.append(f"result {norm}_mean = {_fmt(stats['mean'])}")
        lines.append(f"result {norm}_sd = {_fmt(stats['sd'])}")
    return lines, [(args.out, header, rows)]


def _cmd_toy_risks(args, config):
    for name in ("grid_start", "grid_stop", "grid_step"):
        if not np.isfinite(getattr(args, name)):
            raise InputError(f"{_flag(name)} must be finite, got {getattr(args, name)!r}")
    if args.grid_step <= 0:
        raise InputError(f"--grid-step must be positive, got {args.grid_step}")
    if args.grid_stop < args.grid_start:
        raise InputError("--grid-stop must be >= --grid-start")
    span = (args.grid_stop - args.grid_start) / args.grid_step
    count = round(min(span, _TOY_POINTS)) + 1  # span may overflow to inf
    if count > _TOY_POINTS:  # refused before np.arange allocates the grid
        raise InputError(f"--grid-start, --grid-stop and --grid-step give "
                         f"{span + 1:g} points; toy-risks takes at most {_TOY_POINTS}")
    thetas = args.grid_start + args.grid_step * np.arange(count)
    table = toy_population_risks(thetas)
    columns = {"theta": thetas, "risk01": table.risk01,
               "risk_hinge": table.risk_hinge, "risk_exp": table.risk_exp,
               "hinge_derivative": np.gradient(table.risk_hinge, thetas),
               "exp_derivative": np.gradient(table.risk_exp, thetas)}
    config["rows"] = count
    return [], [(args.out, list(columns),
                 zip(*(column.tolist() for column in columns.values())))]


def _cmd_diagnose(args, config):
    kernel = get_kernel(args.kernel)
    notes = []
    if "delta_grid" in config:
        grid = _delta_grid_from_arg(args.delta_grid)
        config["delta_grid"] = np.asarray(grid)
    if args.probe == "variance":
        report = variance_probe(_sim_from_args(args), kernel, grid,
                                repetitions=args.repetitions,
                                seed=args.seed, n_pop=args.n_pop)
    elif args.probe == "bias":
        report = bias_probe(_sim_from_args(args), kernel, grid,
                            num_directions=args.num_directions,
                            seed=args.seed)
    else:
        if "input" in config:
            data, weights, notes, _ = _load_input(args)
        else:
            data, weights = generate(_sim_from_args(args))[0], None
        spec = SmoothedRiskSpec(data, SurrogateLoss(kernel, args.delta), weights)
        if args.probe == "gradient":
            report = gradient_check(spec, np.zeros(data.d), step=args.step)
        else:
            _, _, report = restricted_curvature_probe(
                spec, args.support_size, num_directions=args.num_directions,
                ball_radius=args.ball_radius, seed=args.seed, step=args.step)
    return [f"note: {n}" for n in notes] + report.lines(), []


# the flags that describe a CSV dataset and the solver; "input" and "model"
# stand for a CSV and a simulated dataset, each with its describing flags
_DATA = ("input", "response", "threshold", "covariates", "weight",
         "delimiter", "standardize")
# the solver flags, in config-echo order, and the PathConfig fields they set
_SOLVER = {"lambda0": "lambda0", "stages": "num_stages", "phi": "phi", "nu": "nu",
           "eta": "eta", "eps_tgt": "eps_tgt", "radius": "omega_radius"}
_GROUPS = {"input": _DATA[1:], "model": ("n", "d", "s")}

# fit's cross-validation draws its folds from --seed
_FIT_MODES = {mode: TUNING_MODES[mode] + ("seed",) * (mode == "cv")
              for mode in ("fixed", "cv", "theory", "lepski-beta", "lepski-s")}
# fit's Lepski modes: the selector and the name of the value it selects
_LEPSKI = {"lepski-beta": (lepski_bandwidth, "delta_hat"),
           "lepski-s": (lepski_sparsity, "s_hat")}
# bench's theory tuning reads the simulated sparsity --s as its s
_BENCH_MODES = {mode: tuple(name for name in TUNING_MODES[mode] if name != "s")
                for mode in BENCH_MODES}

# what each subcommand reads, in config-echo order: "tune", "model" and
# "probe" add what their value reads, "input" and "model" their groups
_READS = {
    "fit": ("input", "kernel", "tune", *_SOLVER, "out"),
    "path": ("input", "kernel", "delta", "lambda_tgt", *_SOLVER, "out"),
    "simulate": ("model", "seed", "out", "theta_out"),
    "bench": ("model", "kernel", "tune", *_SOLVER, "reps", "seed", "out"),
    "toy-risks": ("grid_start", "grid_stop", "grid_step", "out"),
    "diagnose": ("probe", "kernel", "out"),
}
_MODES = {"fit": _FIT_MODES, "bench": _BENCH_MODES}

# defaults of the flags outside the tables of tuning, models and probes, the
# roles' and solver's from the library; a flag without one must be given
_DEFAULTS = {
    **vars(ColumnRoles()),
    **{flag: getattr(_DEFAULT_CONFIG, field) for flag, field in _SOLVER.items()},
    "delimiter": ",", "standardize": False, "kernel": "gaussian", "tune": "fixed",
    "model": "binary_response", "n": 200, "d": 10, **SIM_DEFAULTS,
    "theta_out": None, "reps": 1, "seed": 0, "out": None,
    "grid_start": 0.0, "grid_stop": 2.0, "grid_step": 0.01,
}
# the JSON error kind and exit status of each failure a run reports
_FAILURES = {InputError: ("input", 2), NumericError: ("numeric", 1),
             MemoryError: ("memory", 1)}
_TOY_POINTS = 1_000_000  # most points of a toy-risks grid, one CSV row each
# subcommands that write tables, and what they write
_WRITES = {"path": "a CSV table", "simulate": "CSV files",
           "bench": "a CSV table", "toy-risks": "a CSV table"}


def _axes(sub: str) -> dict:
    """The flags of ``sub`` whose value adds flags, with their tables."""
    return {"tune": _MODES.get(sub), "model": SIM_MODELS, "probe": PROBES}


def _reads(sub: str, given: dict | None = None):
    """The name of the run of ``sub`` with the flags ``given``, the flags it
    reads in config-echo order, and their defaults.  With ``given`` None,
    the names are every flag that some run of ``sub`` reads."""
    axes = _axes(sub)
    who, names = [sub], []
    defaults = {**_DEFAULTS, **TUNING_DEFAULTS,
                **(BENCH_DEFAULTS if sub == "bench" else {})}

    def walk(parts):
        if given is not None and {"input", "model"} <= set(parts):
            # a probe reading either dataset takes the CSV when one is given
            parts = [p for p in parts
                     if p != ("model" if "input" in given else "input")]
        for name in parts:
            if name in names:
                continue
            names.append(name)
            walk(_GROUPS.get(name, ()))
            if name == "model":
                defaults["s"] = 3  # simulated sparsity; tuning's s has none
            if name not in axes:
                continue
            values = (axes[name] if given is None
                      else [given.get(name, defaults.get(name))])
            for value in values:
                if given is not None:
                    who.append(f"{_flag(name)} {value}")
                if name == "probe":
                    defaults.update(PROBE_DEFAULTS[value])
                walk(axes[name][value])

    walk(_READS[sub])
    return " ".join(who), names, defaults


# argparse keywords of every flag
_FLAGS = {
    "input": dict(help="input CSV with a header row"),
    "response": dict(help="response column name (values in {-1,+1} or {0,1})"),
    "threshold": dict(help="threshold-variable column name"),
    "covariates": dict(help="comma-separated covariate columns "
                            "(default: every remaining column)"),
    "weight": dict(help="optional per-sample weight column"),
    "delimiter": dict(help="CSV delimiter (default comma)"),
    "standardize": dict(action="store_true",
                        help="scale covariates to unit standard deviation; "
                             "theta is reported on the original scale"),
    "kernel": dict(choices=BUILTIN_KERNELS),
    "tune": dict(),
    "delta": dict(type=float, help="smoothing bandwidth"),
    "lambda_tgt": dict(type=float, help="target penalty level"),
    "lambda0": dict(type=float, help="starting penalty (default: gradient "
                                     "sup-norm at zero)"),
    "stages": dict(type=int, help="number of penalty stages"),
    "phi": dict(type=float, help="per-stage penalty decay in (0,1)"),
    "nu": dict(type=float, help="stage tolerance multiplier"),
    "eta": dict(type=float, help="initial proximal step size"),
    "eps_tgt": dict(type=float, help="final stage tolerance"),
    "radius": dict(type=float, help="radius of the feasible l2 ball"),
    "folds": dict(type=int, help="cross-validation folds for cv tuning"),
    "s": dict(type=int, help="sparsity level (simulated, or for "
                             "theory/lepski-beta tuning)"),
    "beta": dict(type=float, help="smoothness level for theory/lepski-s tuning"),
    "c_delta": dict(type=float, help="bandwidth constant for theory/lepski-s tuning"),
    "c_lambda": dict(type=float, help="penalty constant for theory/lepski tuning"),
    "c_sel": dict(type=float, help="selection constant for --tune lepski-beta"),
    "c_bar": dict(type=float, help="selection constant for --tune lepski-s"),
    "model": dict(),
    "n": dict(type=int),
    "d": dict(type=int),
    "mu": dict(type=float),
    "noise_sd": dict(type=float),
    "noise": dict(choices=("gaussian", "logistic")),
    "theta_out": dict(help="path for the true coefficient table "
                           "(default: OUT.theta.csv)"),
    "reps": dict(type=int),
    "seed": dict(type=int),
    "out": dict(help="output path (documents default to stdout; "
                     "CSV subcommands require it)"),
    "grid_start": dict(type=float),
    "grid_stop": dict(type=float),
    "grid_step": dict(type=float),
    "probe": dict(required=True),
    "delta_grid": dict(),
    "repetitions": dict(type=int),
    "n_pop": dict(type=int),
    "num_directions": dict(type=int),
    "support_size": dict(type=int),
    "ball_radius": dict(type=float),
    "step": dict(type=float, help="probe step size"),
}

# each subcommand's handler and help line
_SUBCOMMANDS = {
    "fit": (_cmd_fit, "one tuned or fixed penalized fit"),
    "path": (_cmd_path, "per-stage solution path as CSV"),
    "simulate": (_cmd_simulate, "write a synthetic dataset as CSV"),
    "bench": (_cmd_bench, "repeated generate/tune/fit table"),
    "toy-risks": (_cmd_toy_risks, "closed-form scalar risk curves as CSV"),
    "diagnose": (_cmd_diagnose, "numerical probe reports"),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InputError, so they follow the error contract;
    subparsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes the flags some run of it reads; a flag not
    given is left unset, so its default comes from the tables."""
    top = _Parser(
        prog="smooth-threshold",
        description="Sparse individualized thresholds by penalized "
                    "kernel-smoothed classification.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _SUBCOMMANDS.items():
        parser = sub.add_parser(name, help=help_text,
                                argument_default=argparse.SUPPRESS)
        axes = _axes(name)
        for flag in _reads(name)[1]:
            choices = {"choices": tuple(axes[flag])} if flag in axes else {}
            parser.add_argument(_flag(flag), **_FLAGS[flag], **choices)
    return top


def main(argv=None) -> int:
    renames, code = [], None  # (partial file, its output), moved on success
    try:
        given = vars(build_parser().parse_args(argv))
        sub = given.pop("subcommand")
        who, names, defaults = _reads(sub, given)
        settings = read_settings(names, given, who, _flag, defaults)
        if sub in _WRITES and settings["out"] is None:
            raise InputError(f"{sub} writes {_WRITES[sub]}; --out is required")
        config = {"subcommand": sub, **settings}
        if "covariates" in config:  # unset: every column no role claims
            config["covariates"] = config["covariates"] or "rest"
        # rows are made as they are written, so their warnings are caught too
        with ExitStack() as stack, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lines, tables = _SUBCOMMANDS[sub][0](argparse.Namespace(**settings),
                                                 config)
            out = settings["out"]
            *sheets, doc_handle = _open_outputs(
                [path for path, _, _ in tables]
                + [out + ".run.txt" if tables else out], stack, renames)
            for handle, (_, header, rows) in zip(sheets, tables):
                # the csv module writes a float, numpy's too, as its shortest repr
                csv.writer(handle, lineterminator="\n").writerows(chain([header], rows))
            doc = [f"document = smooth-threshold {sub}"]
            doc += [f"config {key} = {_fmt(val)}" for key, val in config.items()]
            doc += lines + [f"warning: {w.message}" for w in caught]
            doc_handle.write("\n".join(doc) + "\n")
        while renames:  # every file is written and closed; the document last
            os.replace(*renames[0])
            del renames[0]
        code = 0
    except tuple(_FAILURES) as exc:
        kind, code = next(failure for error, failure in _FAILURES.items()
                          if isinstance(exc, error))
        # numpy's MemoryError names the allocation it refused
        message = str(exc) or "out of memory"
        sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
        sys.stderr.flush()
    finally:
        for partial, _ in renames:
            os.remove(partial)
    return code


if __name__ == "__main__":
    sys.exit(main())
