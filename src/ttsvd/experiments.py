"""Experiment harness: config parsing, matrix construction, benchmark runs.

A run configuration is a small YAML document (``schema_version: 1``) naming
one experiment family, a solver list, an N grid, and parameters.  One
private table, ``_FAMILIES``, says what each family is: the ``params`` keys
it reads, the key it sweeps into the ``param`` column, its builder, its
largest N, and whether the swept value caps the solvers' rank.  A
``RunConfig`` is checked whole against it on construction, so a bad N or
swept value fails before the first solve.  Results are written as two CSVs
with a stable column order plus JSON reports:

* ``results.csv``   - experiment,solver,N,K,param,rep,seed,sweeps,
                      relative_residual,spectrum_rel_error,max_v_rank,
                      termination
* ``timings.csv``   - experiment,solver,N,K,param,rep,seed,wall_time_s,
                      construction_s
* ``metadata.json`` - timestamps and environment info (kept out of the
                      CSVs so identical configs produce identical CSVs)
* ``report.json``   - aggregate statistics and linear time-vs-N fits
* ``plotdata/*.tsv`` - one plot-ready table per (experiment, solver)

Repetition r of any cell uses seed ``base_seed + r`` for both the matrix
generator (where randomness applies) and the solver, so runs are
deterministic end to end.
"""

from __future__ import annotations

import csv
import dataclasses
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
                  "max_v_rank", "termination")
TIMING_COLUMNS = ("experiment", "solver", "N", "K", "param", "rep", "seed",
                  "wall_time_s", "construction_s")


# ---------------------------------------------------------------------------
# experiment families


def _param_values(params: dict, key: str, default: tuple, convert) -> list:
    """``params[key]`` (a scalar or a list, else ``default``) converted item-wise."""
    values = params.get(key, default)
    if not isinstance(values, (list, tuple)):
        values = [values]
    try:
        return [convert(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params.{key} value: {exc}") from exc


def _positive_int(v) -> int:
    """An integer >= 1; a bool, a fraction or a smaller value is an error."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ValueError(f"{v!r} is not a positive integer")
    return int(v)


def _rank_cap(c):
    """A Toeplitz rank cap: None (uncapped) or a positive integer."""
    return None if c is None else _positive_int(c)


def _between(name: str, low: float, high: float):
    """A converter to a float strictly between ``low`` and ``high``."""
    def convert(v) -> float:
        x = float(v)
        if not low < x < high:
            raise ValueError(f"{name} must lie strictly between {low} and "
                             f"{high}, got {x!r}")
        return x
    return convert


def _check_path(params: dict) -> None:
    if "path" not in params:
        raise ConfigError("custom experiment needs params.path")
    if not isinstance(params["path"], str):
        raise ConfigError("params.path must be a string")


def _int_param(params: dict, key: str, default: int) -> int:
    """``params[key]`` (else ``default``), which must be a positive integer."""
    try:
        return _positive_int(params.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"bad params.{key} value: {exc}") from exc


def _build_prescribed(cfg: RunConfig, n: int, beta: float, seed: int):
    p = cfg.params
    k0 = _int_param(p, "k0", 25)
    rank = _int_param(p, "rank", 5)
    if cfg.k > k0:
        raise ConfigError("k exceeds the prescribed spectrum length k0")
    a, _, _, spectrum = prescribed_svd_matrix(n, beta, k0=k0, rank=rank,
                                              seed=seed)
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
    rank = _int_param(cfg.params, "rank", 3)
    x = random_vector_tt([2] * (n + 1), rank, seed)
    return full_toeplitz_tt(x), None


def _build_custom(cfg: RunConfig, n, value, seed: int):
    path = cfg.params["path"]
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

    ``reads`` are the ``params`` keys it reads.  ``swept`` is the key whose
    values (``default`` if absent, each passed through ``convert``) fill
    the ``param`` column, one cell each, or None.  ``build(cfg, n, value,
    seed)`` returns the MatrixTT and its top-K truth or None.  ``max_n`` is
    the largest N, for the reason ``why``; None means the family takes no
    N.  ``caps_rank`` makes the swept value the solvers' ``max_rank``, and
    ``check`` vets ``params`` further.
    """

    reads: tuple
    build: Callable
    swept: str | None = None
    default: tuple = ()
    convert: Callable | None = None
    max_n: float | None = math.inf
    why: str = ""
    caps_rank: bool = False
    check: Callable | None = None


# The tridiagonal truth 2 - 2 cos(j*pi/(M+1)) forms j*pi with j near
# M = 2^N, a finite float up to N = 1022 (1.4e308).  The solve itself no
# longer limits N: block_tt_residual_norm takes ||A||_F (1.6e154 at
# N = 1022, whose square is past the float range) on a scaled core.
_TRIDIAGONAL_MAX_N = 1022

_FAMILIES = {
    "prescribed_svd": _Family(("beta", "k0", "rank"), _build_prescribed,
                              "beta", (0.3, 0.5), _between("beta", 0, 1)),
    "hilbert": _Family(("delta",), _build_hilbert, "delta", (1e-8,),
                       _between("delta", 0, math.inf),
                       max_n=_EXPSUM_MAX_N,
                       why="the Hilbert quadrature covers 1 <= x < "
                           "2^(N+1), which overflows a float from N = 1023 on"),
    "tridiagonal": _Family((), _build_tridiagonal, max_n=_TRIDIAGONAL_MAX_N,
                           why="the truth's j*pi, j near 2^N, overflows a "
                               "float from N = 1023 on"),
    "toeplitz": _Family(("max_rank", "rank"), _build_toeplitz, "max_rank",
                        (5, 10, 15, None), _rank_cap, caps_rank=True),
    "custom": _Family(("path",), _build_custom, max_n=None,
                      check=_check_path),
}


@dataclass
class RunConfig:
    """One run's configuration, checked whole on construction.

    Construction also converts the swept ``params`` values into
    ``swept_values`` and builds ``solver_config``, the ``SolverConfig``
    that every repetition copies with its own seed (and cap).
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
        for name, low in (("k", 1), ("reps", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer")
            if value < low:
                raise ConfigError(f"{name} must be >= {low}")
        for name in ("params", "solver_options"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a mapping")
        for key in self.params:
            if key not in fam.reads:
                raise ConfigError(
                    f"unknown params key {key!r} for {self.experiment}; it "
                    f"reads {', '.join(fam.reads) if fam.reads else 'none'}")
        if fam.caps_rank and "max_rank" in self.solver_options:
            raise ConfigError(f"solver_options.max_rank is not allowed on "
                              f"{self.experiment}, whose params.{fam.swept} "
                              f"sets the cap")
        # YAML reads 1e-8 (no dot) as a string; float() parses it, as for params.delta
        bad_epsilon = ConfigError(f"epsilon must be a number, got {self.epsilon!r}")
        if isinstance(self.epsilon, bool):
            raise bad_epsilon
        try:
            self.epsilon = float(self.epsilon)
        except (TypeError, ValueError):
            raise bad_epsilon from None
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite")
        if fam.max_n is not None:
            if not self.n_values:
                raise ConfigError("n_values must not be empty")
            for n in self.n_values:
                if not isinstance(n, int) or n < 2:
                    raise ConfigError("every N must be an integer >= 2")
                if n > fam.max_n:
                    raise ConfigError(f"{self.experiment} needs N <= "
                                      f"{fam.max_n}: {fam.why}")
        if fam.check is not None:
            fam.check(self.params)
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        self.swept_values = [None] if fam.swept is None else _param_values(
            self.params, fam.swept, fam.default, fam.convert)
        try:
            self.solver_config = solver_mod.SolverConfig(
                k=self.k, epsilon=self.epsilon, seed=self.seed,
                **self.solver_options)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad solver options: {exc}") from exc

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
    try:
        return RunConfig(**doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# A text cell that build_report reads as a number; "blank" also allows "".
# Such cells stay text so a CSV rewrites byte for byte ("3" in a
# repetition row, "3.0" in a mean row).
_NUMBER = {"number": True}
_NUMBER_OR_BLANK = {"number": True, "blank": True}


@dataclass
class ResultRow:
    experiment: str
    solver: str
    n: int
    k: int
    param: str
    rep: str
    seed: str
    sweeps: str = field(metadata=_NUMBER)
    relative_residual: str = field(metadata=_NUMBER)
    spectrum_rel_error: str = field(metadata=_NUMBER_OR_BLANK)
    max_v_rank: str = field(metadata=_NUMBER)
    termination: str


@dataclass
class TimingRow:
    experiment: str
    solver: str
    n: int
    k: int
    param: str
    rep: str
    seed: str
    wall_time_s: float
    construction_s: float


def _build_matrix(cfg: RunConfig, n, value, seed: int):
    """Return (MatrixTT, ground-truth top-K spectrum or None)."""
    try:
        return _FAMILIES[cfg.experiment].build(cfg, n, value, seed)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator rejected N={n}: {exc}") from exc


def run_experiment(cfg: RunConfig):
    """Run the full grid; returns (result_rows, timing_rows).

    Per-repetition rows come first within each cell, followed by mean and
    population-std aggregate rows (rep = "mean" / "std", empty seed).
    """
    takes_n = _FAMILIES[cfg.experiment].max_n is not None
    results, timings = [], []
    for n in (cfg.n_values if takes_n else [None]):
        for value in cfg.swept_values:
            for solver_name in cfg.solvers:
                cell_res, cell_tim = _run_cell(cfg, n, value, solver_name)
                results.extend(cell_res)
                timings.extend(cell_tim)
    return results, timings


def _run_cell(cfg: RunConfig, n, value, solver_name: str):
    fam = _FAMILIES[cfg.experiment]
    if value is None:
        param_str = "none" if fam.swept else ""
    else:
        param_str = str(value)
    cap = {"max_rank": value} if fam.caps_rank else {}
    run = SOLVERS[solver_name]
    rows, times = [], []
    numeric = []
    for rep in range(cfg.reps):
        rep_seed = cfg.seed + rep
        t0 = time.perf_counter()
        a, truth = _build_matrix(cfg, n, value, rep_seed)
        construction = time.perf_counter() - t0
        scfg = dataclasses.replace(cfg.solver_config, seed=rep_seed, **cap)
        try:
            sigma, u, v, report = run(a, scfg)
        except ValueError as exc:
            raise ConfigError(f"solver {solver_name} rejected the problem: "
                              f"{exc}") from exc
        if truth is not None:
            spec_err = float(np.linalg.norm(sigma - truth)
                             / np.linalg.norm(truth))
        else:
            spec_err = None
        n_out = a.n_cores if n is None else n
        max_v = max(v.ranks)
        rows.append(ResultRow(
            cfg.experiment, solver_name, n_out, cfg.k, param_str, str(rep),
            str(rep_seed), str(report.sweeps_used), repr(report.residual),
            "" if spec_err is None else repr(spec_err), str(max_v),
            report.termination))
        times.append(TimingRow(
            cfg.experiment, solver_name, n_out, cfg.k, param_str, str(rep),
            str(rep_seed), float(report.wall_time_s), float(construction)))
        numeric.append((report.sweeps_used, report.residual, spec_err, max_v,
                        report.termination))
    sweeps, resids, specs, vranks, terms = zip(*numeric)
    agg_term = "converged" if all(t == "converged" for t in terms) else "mixed"
    spec_mean = "" if specs[0] is None else repr(float(np.mean(specs)))
    spec_std = "" if specs[0] is None else repr(_std(specs))
    rows.append(ResultRow(
        cfg.experiment, solver_name, n_out, cfg.k, param_str, "mean", "",
        repr(float(np.mean(sweeps))), repr(float(np.mean(resids))), spec_mean,
        repr(float(np.mean(vranks))), agg_term))
    rows.append(ResultRow(
        cfg.experiment, solver_name, n_out, cfg.k, param_str, "std", "",
        repr(_std(sweeps)), repr(_std(resids)), spec_std, repr(_std(vranks)),
        ""))
    return rows, times


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
    time profile (zero variance) fits perfectly, so R^2 reports 1.0 there.
    """
    per = {}
    for row in timing_rows:
        if row.rep in ("mean", "std"):
            continue
        per.setdefault(row.solver, {}).setdefault(row.n, []).append(
            row.wall_time_s)
    fits = {}
    for solver_name, by_n in per.items():
        if len(by_n) < 3:
            continue
        ns = np.array(sorted(by_n), dtype=float)
        means = np.array([float(np.mean(by_n[int(n)])) for n in ns])
        a, b = np.polyfit(ns, means, 1)
        pred = a * ns + b
        ss_res = float(np.sum((means - pred) ** 2))
        ss_tot = float(np.sum((means - means.mean()) ** 2))
        if ss_tot == 0.0:
            r2 = 1.0 if ss_res <= 1e-30 else 0.0
        else:
            r2 = 1.0 - ss_res / ss_tot
        fits[solver_name] = {
            "slope": float(a),
            "intercept": float(b),
            "r_squared": float(r2),
            "n_values": [int(x) for x in ns],
            "mean_times": [float(x) for x in means],
        }
    return fits


def build_report(result_rows, timing_rows, config_dict=None) -> dict:
    terminations = Counter(row.termination for row in result_rows
                           if row.rep not in ("mean", "std"))
    aggregates = []
    for row in result_rows:
        if row.rep != "mean":
            continue
        aggregates.append({
            "experiment": row.experiment,
            "solver": row.solver,
            "N": row.n,
            "K": row.k,
            "param": row.param,
            "mean_sweeps": float(row.sweeps),
            "mean_relative_residual": float(row.relative_residual),
            "mean_spectrum_rel_error": (None if row.spectrum_rel_error == ""
                                        else float(row.spectrum_rel_error)),
            "mean_max_v_rank": float(row.max_v_rank),
            "termination": row.termination,
        })
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
    for t in timing_rows:
        if t.rep not in ("mean", "std"):
            times.setdefault((t.experiment, t.solver, t.n, t.param),
                             []).append(t.wall_time_s)
    groups = {}
    for row in result_rows:
        if row.rep != "mean":
            continue
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
