"""Experiment harness: config parsing, matrix construction, benchmark runs.

A run configuration is a small YAML document (``schema_version: 1``) naming
one experiment family, a solver list, an N grid, and parameters.  One
private table, ``_FAMILIES``, says what each family is: a mapping from
every ``params`` key it reads to that key's default and converter, the key
it sweeps into the ``param`` column, its builder, its largest N, and
whether the swept value caps the solvers' rank.  A ``RunConfig`` is checked
whole against it on construction and converts every key once, so a bad N
or ``params`` value, or a solver, N or swept value listed twice, fails
before the first solve; ``run_experiment`` then builds each grid point's
first matrix and puts it to every solver's own checks before it solves
any cell.  Results are written as two CSVs with a stable column order
plus JSON reports:

* ``results.csv``   - experiment,solver,N,K,param,rep,seed,sweeps,
                      relative_residual,spectrum_rel_error,max_v_rank,
                      u_defect,termination
* ``timings.csv``   - experiment,solver,N,K,param,rep,seed,wall_time_s,
                      construction_s
* ``metadata.json`` - timestamps and environment info (kept out of the
                      CSVs so identical configs produce identical CSVs)
* ``report.json``   - aggregate statistics and linear time-vs-N fits
* ``plotdata/*.tsv`` - one plot-ready table per (experiment, solver)

Each cell's repetition rows are followed by a ``mean`` and a ``std`` row,
summarized by one rule: every number column (a ``ResultRow`` field whose
metadata says ``number``) takes the mean and the population std of its
repetitions' values, a blank column stays blank, and a column that holds
``inf`` gives ``inf``.  The mean row's termination is the repetitions'
common one or "mixed"; the std row's is empty.  ``report.json``'s
aggregates take ``mean_<column>`` from the mean rows.

Repetition r of a grid point (N, param) builds its matrix once, with seed
``base_seed + r`` where the generator is random, and every solver solves
that one matrix with the same seed, so runs are deterministic end to end.
``construction_s`` is that build's time, on every solver's timing row.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import platform
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
import yaml

from . import solver as solver_mod
from .dense import _integer, _real
from .generators import (
    _EXPSUM_MAX_N,
    full_toeplitz_tt,
    hilbert_submatrix_tt,
    prescribed_svd_matrix,
    random_vector_tt,
    tridiagonal_tt,
)
from .serialization import load_tt
from .tt import MatrixTT, VectorTT, tt_scale


class ConfigError(ValueError):
    """Anything wrong with a run configuration, or input a generator rejects."""


SOLVERS = {
    "als_svd": solver_mod.als_svd,
    "mals_svd": solver_mod.mals_svd,
    "als_eig": solver_mod.als_eig_baseline,
    "mals_eig": solver_mod.mals_eig_baseline,
}

RESULT_COLUMNS = ("experiment", "solver", "N", "K", "param", "rep", "seed",
                  "sweeps", "relative_residual", "spectrum_rel_error",
                  "max_v_rank", "u_defect", "termination")
TIMING_COLUMNS = ("experiment", "solver", "N", "K", "param", "rep", "seed",
                  "wall_time_s", "construction_s")


# ---------------------------------------------------------------------------
# experiment families


# An integer >= 1 under SolverConfig's rule, as a converter (see _Family).
_positive_int = functools.partial(_integer, low=1)


def _rank_cap(name: str, c):
    """A Toeplitz rank cap: None (uncapped) or a positive integer."""
    return None if c is None else _positive_int(name, c)


def _parsed(v):
    """``v``, or the float that the string ``v`` spells: YAML reads 1e-8 (no
    dot) as a string.  Other text stays text, which ``_real`` refuses."""
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            pass
    return v


def _unit(name: str, v) -> float:
    """A real strictly between 0 and 1 under ``dense._real``'s rule."""
    return _real(name, _parsed(v), 0, 1)


def _path(name: str, v) -> str:
    """A TT container path; None (absent) or a non-string is an error."""
    if not isinstance(v, str):
        raise ValueError(f"{name} must be a string, got {v!r}")
    return v


def _build_prescribed(cfg: RunConfig, n: int, beta: float, seed: int):
    a, _, _, spectrum = prescribed_svd_matrix(n, beta, seed=seed,
                                              **cfg.fixed_params)
    return a, spectrum[:cfg.k]


def _build_hilbert(cfg: RunConfig, n: int, delta: float, seed: int):
    return hilbert_submatrix_tt(n, delta), None


def _build_tridiagonal(cfg: RunConfig, n: int, value, seed: int):
    # second-difference matrix: eigenvalues 2 - 2 cos(j*pi/(M+1)) are a
    # closed-form ground truth, evaluated in floats
    m = 2 ** n
    ones = VectorTT([np.ones((1, 2, 1))] * n)  # rank 1, no dense 2^N vector
    neg = tt_scale(ones, -1.0)
    a = tridiagonal_tt(neg, tt_scale(ones, 2.0), neg)
    j = m - np.arange(cfg.k, dtype=float)  # floats, also past 2^63
    truth = 2.0 - 2.0 * np.cos(j * math.pi / (m + 1))
    return a, truth


def _build_toeplitz(cfg: RunConfig, n: int, cap, seed: int):
    x = random_vector_tt([2] * (n + 1), cfg.fixed_params["rank"], seed)
    return full_toeplitz_tt(x), None


def _build_custom(cfg: RunConfig, n, value, seed: int):
    path = cfg.fixed_params["path"]
    try:
        a = load_tt(path)
    except OSError as exc:
        raise ConfigError(f"cannot read TT container: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"corrupt TT container {path}: {exc}") from exc
    if not isinstance(a, MatrixTT):
        raise ConfigError("custom experiment needs a serialized MatrixTT")
    return a, None


@dataclass(frozen=True)
class _Family:
    """What one experiment family is.

    ``params`` maps every ``params`` key the family reads to (default,
    converter), the converter called as ``convert(key, value)``; a key left
    out of the config takes its default, and a default the converter
    rejects (None for ``custom``'s ``path``) makes the key required.
    ``swept`` names the key, if any, whose values (a scalar or a list, its
    default a tuple) are converted one by one and fill the ``param``
    column, one cell each; every other key is converted whole into one
    value.  ``build(cfg, n, value, seed)`` returns the
    MatrixTT and its top-K truth or None.  ``max_n`` is the largest N, for
    the reason ``why``; None means the family takes no N.  ``caps_rank``
    makes the swept value the solvers' ``max_rank``.
    """

    build: Callable
    params: dict
    swept: str | None = None
    max_n: float | None = math.inf
    why: str = ""
    caps_rank: bool = False


# The tridiagonal truth 2 - 2 cos(j*pi/(M+1)) forms j*pi with j near
# M = 2^N, a finite float up to N = 1022 (1.4e308).  The solve itself no
# longer limits N: block_tt_residual_norm takes ||A||_F (1.6e154 at
# N = 1022, whose square is past the float range) on a scaled core.
_TRIDIAGONAL_MAX_N = 1022

_FAMILIES = {
    "prescribed_svd": _Family(_build_prescribed, {
        "beta": ((0.3, 0.5), _unit),
        "k0": (25, _positive_int), "rank": (5, _positive_int)}, "beta"),
    "hilbert": _Family(_build_hilbert, {
        "delta": ((1e-8,), _unit)}, "delta",
        max_n=_EXPSUM_MAX_N,
        why="the Hilbert quadrature covers 1 <= x < 2^(N+1), which "
            "overflows a float from N = 1023 on"),
    "tridiagonal": _Family(_build_tridiagonal, {}, max_n=_TRIDIAGONAL_MAX_N,
                           why="the truth's j*pi, j near 2^N, overflows a "
                               "float from N = 1023 on"),
    "toeplitz": _Family(_build_toeplitz, {
        "max_rank": ((5, 10, 15, None), _rank_cap),
        "rank": (3, _positive_int)}, "max_rank", caps_rank=True),
    "custom": _Family(_build_custom, {"path": (None, _path)}, max_n=None),
}


def _checked(prefix: str, convert, /, *args, **kwargs):
    """``convert(*args, **kwargs)``; a TypeError or ValueError becomes a
    ConfigError, its message after ``prefix``, and a ConfigError passes."""
    try:
        return convert(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _distinct(axis: str, values: list) -> list:
    """``values``; a value listed twice is a ConfigError naming ``axis``."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{axis} lists {v!r} twice")
    return values


@dataclass
class RunConfig:
    """One run's configuration, checked whole on construction.

    Construction converts every ``params`` key once, through its family's
    converter: the swept key into the non-empty list ``swept_values``
    ([None] for a family that sweeps none), each other key into
    ``fixed_params``, which the builders read.  It also builds
    ``solver_config``, the ``SolverConfig`` that checks ``k``, ``seed``,
    ``epsilon`` (text parsed by ``float()`` first, as for ``params``) and
    ``solver_options`` and that every repetition copies with its own seed
    (and cap); ``epsilon`` is then its checked float.
    """

    experiment: str
    solvers: list
    n_values: list = field(default_factory=list)
    k: int = 10
    epsilon: float = 1e-8
    reps: int = 5
    seed: int = 0
    params: dict = field(default_factory=dict)
    solver_options: dict = field(default_factory=dict)
    out_dir: str = "results"

    def __post_init__(self):
        if (not isinstance(self.experiment, str)
                or self.experiment not in _FAMILIES):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        fam = _FAMILIES[self.experiment]
        for name in ("solvers", "n_values"):
            if not isinstance(getattr(self, name), list):
                raise ConfigError(f"{name} must be a list, got "
                                  f"{getattr(self, name)!r}")
        if not self.solvers:
            raise ConfigError("solver list must not be empty")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ConfigError(f"unknown solver {s!r}")
        _distinct("solvers", self.solvers)
        self.reps = _checked("", _integer, "reps", self.reps, 1)
        for name in ("params", "solver_options"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a mapping")
        self.solver_config = _checked(
            "bad solver configuration: ", solver_mod.SolverConfig, k=self.k,
            epsilon=_parsed(self.epsilon), seed=self.seed,
            **self.solver_options)
        self.epsilon = self.solver_config.epsilon
        if fam.caps_rank and "max_rank" in self.solver_options:
            raise ConfigError(f"solver_options.max_rank is not allowed on "
                              f"{self.experiment}, whose params.{fam.swept} "
                              f"sets the cap")
        if fam.max_n is not None:
            if not self.n_values:
                raise ConfigError("n_values must not be empty")
            self.n_values = _distinct("n_values", [
                _checked("", _integer, "N", n, 2) for n in self.n_values])
            for n in self.n_values:
                if n > fam.max_n:
                    raise ConfigError(f"{self.experiment} needs N <= "
                                      f"{fam.max_n}: {fam.why}")
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        for key in self.params:
            if key not in fam.params:
                raise ConfigError(
                    f"unknown params key {key!r} for {self.experiment}; it "
                    f"reads {', '.join(fam.params) or 'none'}")
        self.swept_values, self.fixed_params = [None], {}
        for key, (default, convert) in fam.params.items():
            value = self.params.get(key, default)
            prefix = f"bad params.{key} value: "
            if key != fam.swept:
                self.fixed_params[key] = _checked(prefix, convert, key, value)
                continue
            values = value if isinstance(value, (list, tuple)) else [value]
            if not values:
                raise ConfigError(f"params.{key} must not be empty")
            self.swept_values = _distinct(f"params.{key}", [
                _checked(prefix, convert, key, v) for v in values])
        if self.k > self.fixed_params.get("k0", self.k):
            raise ConfigError("k exceeds the prescribed spectrum length k0")

    def to_dict(self) -> dict:
        return {"schema_version": 1, **dataclasses.asdict(self)}


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    version = doc.pop("schema_version", None)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r} (expected 1)")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return _checked("", RunConfig, **doc)


# A text cell that holds a number; "blank" also allows "".  Such cells stay
# text so a CSV rewrites byte for byte ("3" in a repetition row, "3.0" in a
# mean row).  These fields are the columns a cell's mean and std rows and
# build_report's aggregates summarize.
_NUMBER = {"number": True}
_NUMBER_OR_BLANK = {"number": True, "blank": True}


@dataclass
class RowKey:
    """The key columns that a result row and a timing row share."""

    experiment: str
    solver: str
    n: int
    k: int
    param: str
    rep: str
    seed: str

    def is_repetition(self) -> bool:
        """False for a cell's ``mean`` and ``std`` rows."""
        return self.rep not in ("mean", "std")


@dataclass
class ResultRow(RowKey):
    sweeps: str = field(metadata=_NUMBER)
    relative_residual: str = field(metadata=_NUMBER)
    spectrum_rel_error: str = field(metadata=_NUMBER_OR_BLANK)
    max_v_rank: str = field(metadata=_NUMBER)
    # ||U^T U - I||_F of the Gram route's recovered U; blank on the SVD route
    u_defect: str = field(metadata=_NUMBER_OR_BLANK)
    termination: str


@dataclass
class TimingRow(RowKey):
    wall_time_s: float
    construction_s: float


def _numbers(row) -> dict:
    """The text of each number field of ``row``, by field name."""
    return {f.name: getattr(row, f.name) for f in fields(row)
            if f.metadata.get("number")}


def _build_matrix(cfg: RunConfig, n, value, seed: int):
    """Return (MatrixTT, ground-truth top-K spectrum or None)."""
    return _checked(f"generator rejected N={n}: ",
                    _FAMILIES[cfg.experiment].build, cfg, n, value, seed)


def run_experiment(cfg: RunConfig):
    """Run the full grid; returns (result_rows, timing_rows).

    Each grid point (N, param) builds repetition r's matrix once and every
    solver in ``cfg.solvers`` solves it.  Every point's repetition-0 matrix
    is built and put to each solver's own checks (``solver.check_problem``)
    before the first solve, so a point some solver cannot take fails the
    run with a ConfigError and nothing solved; each such matrix is kept for
    its repetition 0.  Rows come out cell by cell, in (N, param, solver)
    order: a cell's per-repetition rows, then its mean and population-std
    aggregate rows (rep = "mean" / "std", empty seed).
    """
    takes_n = _FAMILIES[cfg.experiment].max_n is not None
    points = [(n, value) for n in (cfg.n_values if takes_n else [None])
              for value in cfg.swept_values]
    firsts = [_prepare(cfg, n, value, 0) for n, value in points]
    results, timings = [], []
    for (n, value), first in zip(points, firsts):
        solved = {name: [] for name in cfg.solvers}
        for rep in range(cfg.reps):
            problem = first if rep == 0 else _prepare(cfg, n, value, rep)
            for name, pairs in solved.items():
                pairs.append(_solve(cfg, n, value, name, rep, *problem))
        for pairs in solved.values():
            rows, times = map(list, zip(*pairs))
            results += rows + _summary_rows(rows)
            timings += times
    return results, timings


def _prepare(cfg: RunConfig, n, value, rep: int):
    """Repetition ``rep`` of a grid point, checked as each solver would
    check it: (matrix, truth, construction seconds, solver config)."""
    seed = cfg.seed + rep
    t0 = time.perf_counter()
    a, truth = _build_matrix(cfg, n, value, seed)
    construction = time.perf_counter() - t0
    cap = {"max_rank": value} if _FAMILIES[cfg.experiment].caps_rank else {}
    scfg = dataclasses.replace(cfg.solver_config, seed=seed, **cap)
    for name in cfg.solvers:
        _checked(f"solver {name} rejected the problem: ",
                 solver_mod.check_problem, a, scfg, name)
    return a, truth, construction, scfg


def _solve(cfg: RunConfig, n, value, name: str, rep: int, a, truth,
           construction: float, scfg):
    """Solver ``name``'s solve of repetition ``rep``'s matrix ``a``, as its
    (ResultRow, TimingRow)."""
    sigma, u, v, report = _checked(f"solver {name} rejected the problem: ",
                                   SOLVERS[name], a, scfg)
    if value is None:
        param = "none" if _FAMILIES[cfg.experiment].swept else ""
    else:
        param = str(value)
    spec_err = "" if truth is None else repr(float(
        np.linalg.norm(sigma - truth) / np.linalg.norm(truth)))
    defect = "" if report.u_defect is None else repr(report.u_defect)
    key = (cfg.experiment, name, a.n_cores if n is None else n, cfg.k,
           param, str(rep), str(scfg.seed))
    return (ResultRow(*key, str(report.sweeps_used), repr(report.residual),
                      spec_err, str(max(v.ranks)), defect,
                      report.termination),
            TimingRow(*key, float(report.wall_time_s), float(construction)))


def _summary_rows(reps: list) -> list:
    """A cell's ``mean`` and ``std`` rows by the module's summary rule; each
    value is read back from the repetitions' text, which ``repr`` and
    ``str`` round-trip exactly."""
    terms = {r.termination for r in reps}
    columns = {name: [getattr(r, name) for r in reps]
               for name in _numbers(reps[0])}
    out = []
    for rep, stat, term in (
            ("mean", np.mean, terms.pop() if len(terms) == 1 else "mixed"),
            ("std", _std, "")):
        numbers = {name: "" if "" in texts else
                   repr(float(stat([float(t) for t in texts])))
                   for name, texts in columns.items()}
        out.append(dataclasses.replace(reps[0], rep=rep, seed="",
                                       termination=term, **numbers))
    return out


def _std(values) -> float:
    """Population std; ``inf`` if a value is infinite (a solve with no sweep)."""
    if any(math.isinf(x) for x in values):
        return math.inf
    return float(np.std(values))


# ---------------------------------------------------------------------------
# output files


def rows_to_csv(rows, columns) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow(dataclasses.astuple(r))
    return buf.getvalue()


def _cell(f: dataclasses.Field, text: str):
    """One CSV cell as the value of field ``f``; ValueError if it is not one."""
    if f.type == "int":
        return int(text)
    if f.type == "float":
        return float(text)
    if f.metadata.get("number") and not (text == "" and f.metadata.get("blank")):
        float(text)
    return text


def parse_rows_csv(text: str, row_type, columns) -> list:
    """Read CSV text written by ``rows_to_csv`` back into ``row_type`` rows.

    The header must be ``columns``, every row must have one cell per field
    and every numeric cell must parse; otherwise ``ConfigError`` names the
    line.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ConfigError("empty file: no header line")
    if tuple(header) != columns:
        raise ConfigError(f"unexpected columns: {header}")
    row_fields = fields(row_type)
    out = []
    for rec in reader:
        where = f"line {reader.line_num}"
        if len(rec) != len(row_fields):
            raise ConfigError(f"{where}: {len(rec)} cells, expected "
                              f"{len(row_fields)}")
        values = []
        for name, f, cell in zip(columns, row_fields, rec):
            try:
                values.append(_cell(f, cell))
            except ValueError:
                raise ConfigError(f"{where}: bad {name} value {cell!r}") from None
        out.append(row_type(*values))
    return out


def scaling_report(timing_rows) -> dict:
    """Least-squares fit wall_time = a*N + b per solver over mean rep times.

    Solvers with fewer than 3 distinct N values are skipped.  A constant
    time profile (all means equal) fits perfectly, so R^2 reports 1.0 there,
    whatever rounding the fit and the mean leave.
    """
    per = {}
    for row in filter(RowKey.is_repetition, timing_rows):
        per.setdefault(row.solver, {}).setdefault(row.n, []).append(
            row.wall_time_s)
    fits = {}
    for solver_name, by_n in per.items():
        if len(by_n) < 3:
            continue
        ns = np.array(sorted(by_n), dtype=float)
        means = np.array([float(np.mean(by_n[int(n)])) for n in ns])
        a, b = np.polyfit(ns, means, 1)
        if np.ptp(means) == 0.0:
            r2 = 1.0
        else:
            ss_res = float(np.sum((means - (a * ns + b)) ** 2))
            r2 = 1.0 - ss_res / float(np.sum((means - means.mean()) ** 2))
        fits[solver_name] = {
            "slope": float(a),
            "intercept": float(b),
            "r_squared": float(r2),
            "n_values": [int(x) for x in ns],
            "mean_times": [float(x) for x in means],
        }
    return fits


def build_report(result_rows, timing_rows, config_dict=None) -> dict:
    terminations = Counter(row.termination for row in
                           filter(RowKey.is_repetition, result_rows))
    aggregates = [{
        "experiment": row.experiment, "solver": row.solver, "N": row.n,
        "K": row.k, "param": row.param, "termination": row.termination,
        **{f"mean_{name}": None if text == "" else float(text)
           for name, text in _numbers(row).items()},
    } for row in result_rows if row.rep == "mean"]
    report = {
        "aggregates": aggregates,
        "termination_counts": dict(terminations),
        "scaling_fits": scaling_report(timing_rows),
    }
    if config_dict is not None:
        report["config"] = config_dict
    return report


def write_plotdata(out_dir: str, result_rows, timing_rows) -> list:
    """One TSV per (experiment, solver) with mean quantities by (N, param)."""
    plot_dir = os.path.join(out_dir, "plotdata")
    os.makedirs(plot_dir, exist_ok=True)
    times = {}
    for t in filter(RowKey.is_repetition, timing_rows):
        times.setdefault((t.experiment, t.solver, t.n, t.param),
                         []).append(t.wall_time_s)
    groups = {}
    for row in result_rows:
        if row.rep == "mean":
            groups.setdefault((row.experiment, row.solver), []).append(row)
    written = []
    for (experiment, solver_name), rows in sorted(groups.items()):
        path = os.path.join(plot_dir, f"{experiment}_{solver_name}.tsv")
        with open(path, "w") as fh:
            fh.write("N\tparam\tmean_relative_residual\t"
                     "mean_spectrum_rel_error\tmean_sweeps\t"
                     "mean_max_v_rank\tmean_wall_time_s\n")
            for row in sorted(rows, key=lambda r: (r.n, r.param)):
                tkey = (experiment, solver_name, row.n, row.param)
                wall = times.get(tkey)
                wall_s = repr(float(np.mean(wall))) if wall else ""
                fh.write("\t".join([
                    str(row.n), row.param, row.relative_residual,
                    row.spectrum_rel_error, row.sweeps, row.max_v_rank,
                    wall_s]) + "\n")
        written.append(path)
    return written


def write_report(out_dir: str, result_rows, timing_rows,
                 config_dict=None) -> tuple:
    """Write report.json and plotdata/; returns (report path, plot paths)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(build_report(result_rows, timing_rows, config_dict), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return path, write_plotdata(out_dir, result_rows, timing_rows)


def write_results(out_dir: str, result_rows, timing_rows,
                  config_dict=None) -> dict:
    """Write all output files; returns the paths that were written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    paths["results"] = os.path.join(out_dir, "results.csv")
    with open(paths["results"], "w") as fh:
        fh.write(rows_to_csv(result_rows, RESULT_COLUMNS))
    paths["timings"] = os.path.join(out_dir, "timings.csv")
    with open(paths["timings"], "w") as fh:
        fh.write(rows_to_csv(timing_rows, TIMING_COLUMNS))
    meta = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "numpy_version": np.__version__,
    }
    paths["metadata"] = os.path.join(out_dir, "metadata.json")
    with open(paths["metadata"], "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["report"], paths["plotdata"] = write_report(
        out_dir, result_rows, timing_rows, config_dict)
    return paths
