"""Experiment harness: configs, determinism, CSV contracts, CLI verbs."""

import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from conftest import (check_micro_records, random_matrix_tt,
                      zero_or_overflowing_tt)
from ttsvd import MatrixTT, save_tt, solver, verify
from ttsvd.cli import main as cli_main
from ttsvd.experiments import (
    _FAMILIES,
    RESULT_COLUMNS,
    SOLVERS,
    TIMING_COLUMNS,
    ConfigError,
    ResultRow,
    RunConfig,
    TimingRow,
    _build_matrix,
    _std,
    build_report,
    load_run_config,
    parse_rows_csv,
    rows_to_csv,
    run_experiment,
    scaling_report,
    write_results,
)
from ttsvd.generators import random_vector_tt


def _write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def _small_cfg(**over):
    base = dict(experiment="prescribed_svd", solvers=["als_svd"],
                n_values=[4], k=2, epsilon=1e-8, reps=2, seed=0,
                params={"beta": [0.5], "k0": 6, "rank": 2})
    base.update(over)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# configuration parsing


def test_load_good_config(tmp_path):
    path = _write_yaml(tmp_path / "run.yaml", {
        "schema_version": 1,
        "experiment": "prescribed_svd",
        "solvers": ["als_svd", "mals_eig"],
        "n_values": [4, 6],
        "k": 3,
        "epsilon": 1e-7,
        "reps": 2,
        "seed": 5,
        "params": {"beta": [0.3]},
    })
    cfg = load_run_config(path)
    assert cfg.experiment == "prescribed_svd"
    assert cfg.solvers == ["als_svd", "mals_eig"]
    assert cfg.n_values == [4, 6]
    assert cfg.k == 3 and cfg.reps == 2 and cfg.seed == 5
    assert cfg.params == {"beta": [0.3]}
    assert cfg.out_dir == "results"


def test_load_reads_exponent_only_epsilon(tmp_path):
    # YAML 1.1 reads 1e-8 (no dot) as the string "1e-8"
    path = tmp_path / "run.yaml"
    path.write_text("schema_version: 1\nexperiment: hilbert\n"
                    "solvers: [als_svd]\nn_values: [6]\nepsilon: 1e-8\n")
    assert yaml.safe_load(path.read_text())["epsilon"] == "1e-8"
    cfg = load_run_config(str(path))
    assert cfg.epsilon == 1e-8 and isinstance(cfg.epsilon, float)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.update(surprise=1), "unknown config keys"),
    (lambda d: d.update(experiment="fourier"), "unknown experiment"),
    (lambda d: d.update(experiment=["hilbert"]),
     r"unknown experiment \['hilbert'\]"),
    (lambda d: d.update(solvers=[]), "must not be empty"),
    (lambda d: d.update(solvers=["als_svd", "qr"]), "unknown solver"),
    (lambda d: d.update(reps=0), "reps must be at least 1"),
    (lambda d: d.update(k=0), "k must be at least 1"),
    (lambda d: d.update(epsilon=0.0), "positive"),
    (lambda d: d.update(epsilon=float("nan")), "finite"),
    (lambda d: d.update(epsilon=float("inf")), "finite"),
    (lambda d: d.update(epsilon="abc"), "epsilon must be a number"),
    (lambda d: d.update(epsilon=True), "epsilon must be a number"),
    (lambda d: d.update(k=2.5), "k must be an integer"),
    (lambda d: d.update(k=True), "k must be an integer"),
    (lambda d: d.update(reps=1.5), "reps must be an integer"),
    (lambda d: d.update(seed=0.5), "seed must be an integer"),
    (lambda d: d.update(seed=-1), "seed must be at least 0"),
    (lambda d: d.update(n_values=[1]), "N must be at least 2"),
    (lambda d: d.update(n_values=[]), "must not be empty"),
    (lambda d: d.update(params=[1]), "params must be a mapping"),
    (lambda d: d.update(solver_options=[1]), "solver_options must be a mapping"),
    (lambda d: d.update(solvers="als_svd"), "solvers must be a list"),
    (lambda d: d.update(n_values=4), "n_values must be a list"),
    (lambda d: d.update(params={"betta": 0.9}),
     r"unknown params key 'betta' for prescribed_svd; it reads beta, k0, rank"),
    (lambda d: d.update(experiment="tridiagonal", params={"beta": 0.3}),
     "unknown params key 'beta' for tridiagonal; it reads none"),
    (lambda d: d.update(experiment="hilbert", params={"rank": 2}),
     "unknown params key 'rank' for hilbert; it reads delta"),
    (lambda d: d.update(experiment="toeplitz", params={"k0": 6}),
     "unknown params key 'k0' for toeplitz; it reads max_rank, rank"),
    (lambda d: d.update(experiment="custom", params={"path": "a.ttc",
                                                     "delta": 1e-8}),
     "unknown params key 'delta' for custom; it reads path"),
    (lambda d: d.update(experiment="toeplitz", params={"max_rank": [None]},
                        solver_options={"max_rank": 3}),
     "solver_options.max_rank is not allowed on toeplitz"),
    # every params key is converted on load: an empty swept list once ran
    # no cell and exited 0, and a non-swept key was converted only when a
    # cell was built
    (lambda d: d.update(params={"beta": []}), "params.beta must not be empty"),
    (lambda d: d.update(experiment="hilbert", params={"delta": []}),
     "params.delta must not be empty"),
    (lambda d: d.update(params={"k0": [16, 25]}), "bad params.k0 value"),
    # delta 10 once failed in the generator ("math domain error"), and a
    # bool once ran as the float 0 or 1
    (lambda d: d.update(experiment="hilbert", params={"delta": [10]}),
     "bad params.delta value: delta must lie strictly between 0 and 1"),
    (lambda d: d.update(experiment="hilbert", params={"delta": [True]}),
     "bad params.delta value: delta must be a number, got True"),
    (lambda d: d.update(params={"beta": [False]}),
     "bad params.beta value: beta must be a number, got False"),
    # text that spells no number once gave float()'s own message
    (lambda d: d.update(params={"beta": ["abc"]}),
     "bad params.beta value: beta must be a number, got 'abc'"),
    (lambda d: d.update(params={"beta": [None]}),
     "bad params.beta value: beta must be a number, got None"),
    (lambda d: d.update(experiment="custom", params={"path": 5}),
     "bad params.path value"),
    # a value listed twice once ran its cells twice and wrote every row twice
    (lambda d: d.update(solvers=["als_svd", "mals_svd", "als_svd"]),
     "solvers lists 'als_svd' twice"),
    (lambda d: d.update(n_values=[4, 6, 4]), "n_values lists 4 twice"),
    (lambda d: d.update(params={"beta": [0.3, 0.5, 0.3]}),
     r"params.beta lists 0.3 twice"),
    # values are compared once converted: YAML's text "1e-8" is 1e-8
    (lambda d: d.update(experiment="hilbert",
                        params={"delta": ["1e-8", 1e-8]}),
     r"params.delta lists 1e-08 twice"),
    (lambda d: d.update(experiment="toeplitz",
                        params={"max_rank": [None, 4, None]}),
     r"params.max_rank lists None twice"),
])
def test_load_rejects_bad_configs(tmp_path, mutate, fragment):
    doc = {
        "schema_version": 1,
        "experiment": "prescribed_svd",
        "solvers": ["als_svd"],
        "n_values": [4],
    }
    mutate(doc)
    path = _write_yaml(tmp_path / "bad.yaml", doc)
    with pytest.raises(ConfigError, match=fragment):
        load_run_config(path)


def test_every_read_params_key_loads(tmp_path):
    # every key is converted on load, so each gets its default (a list for
    # the swept key), and custom's required path a string
    for experiment, family in _FAMILIES.items():
        values = {key: "a.ttc" if key == "path" else
                  list(default) if key == family.swept else default
                  for key, (default, _) in family.params.items()}
        doc = {"schema_version": 1, "experiment": experiment,
               "solvers": ["als_svd"], "n_values": [4], "params": values}
        cfg = load_run_config(_write_yaml(tmp_path / "ok.yaml", doc))
        assert sorted(cfg.params) == sorted(family.params)
        assert len(cfg.swept_values) == len(values.get(family.swept, [None]))
        assert sorted(cfg.fixed_params) == sorted(
            set(family.params) - {family.swept})


@pytest.mark.parametrize("name, over, read", [
    ("k", lambda v: dict(k=v), lambda c: c.solver_config.k),
    ("max_full_sweeps", lambda v: dict(solver_options={"max_full_sweeps": v}),
     lambda c: c.solver_config.max_full_sweeps),
    ("max_restarts", lambda v: dict(solver_options={"max_restarts": v}),
     lambda c: c.solver_config.max_restarts),
    ("seed", lambda v: dict(seed=v), lambda c: c.solver_config.seed),
    ("max_rank", lambda v: dict(solver_options={"max_rank": v}),
     lambda c: c.solver_config.max_rank),
    ("reps", lambda v: dict(reps=v), lambda c: c.reps),
    ("N", lambda v: dict(n_values=[v]), lambda c: c.n_values[0]),
    ("k0", lambda v: dict(params={"k0": v}), lambda c: c.fixed_params["k0"]),
    ("rank", lambda v: dict(params={"rank": v}),
     lambda c: c.fixed_params["rank"]),
    ("rank", lambda v: dict(experiment="toeplitz", params={"rank": v}),
     lambda c: c.fixed_params["rank"]),
    ("max_rank", lambda v: dict(experiment="toeplitz",
                                params={"max_rank": [v]}),
     lambda c: c.swept_values[0]),
])
def test_every_integer_takes_one_rule(name, over, read):
    # one converter: a numpy integer is taken as an int, and a bool or a
    # fraction is refused with SolverConfig's words.  N once refused a numpy
    # integer and took True for 1, reps and the family params had words of
    # their own
    base = dict(experiment="prescribed_svd", solvers=["als_svd"],
                n_values=[4], k=2)
    cfg = RunConfig(**{**base, **over(np.int64(3))})
    assert read(cfg) == 3 and type(read(cfg)) is int
    for bad in (True, 2.5):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            RunConfig(**{**base, **over(bad)})
    with pytest.raises(ConfigError, match=f"{name} must be at least"):
        RunConfig(**{**base, **over(-1)})


def test_load_rejects_non_mapping_and_missing_file(tmp_path):
    path = tmp_path / "scalar.yaml"
    path.write_text("3\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_run_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(str(tmp_path / "nope.yaml"))


def test_custom_experiment_requires_path():
    with pytest.raises(ConfigError, match="params.path"):
        RunConfig(experiment="custom", solvers=["als_svd"], n_values=[])


def test_only_custom_may_omit_n_values(tmp_path):
    # custom reads N from its container; every other experiment needs N
    doc = {"schema_version": 1, "experiment": "custom",
           "solvers": ["als_svd"], "params": {"path": "a.ttc"}}
    cfg = load_run_config(_write_yaml(tmp_path / "custom.yaml", doc))
    assert cfg.n_values == []
    doc.update(experiment="prescribed_svd", params={"beta": [0.5]})
    with pytest.raises(ConfigError, match="n_values must not be empty"):
        load_run_config(_write_yaml(tmp_path / "prescribed.yaml", doc))


# ---------------------------------------------------------------------------
# runs, rows, and aggregates


def test_results_csv_is_seed_deterministic():
    cfg = _small_cfg()
    r1, t1 = run_experiment(cfg)
    r2, t2 = run_experiment(cfg)
    assert rows_to_csv(r1, RESULT_COLUMNS) == rows_to_csv(r2, RESULT_COLUMNS)
    # timing rows share everything except the measured wall times
    for a, b in zip(t1, t2):
        assert (a.experiment, a.solver, a.n, a.param, a.rep, a.seed) == \
               (b.experiment, b.solver, b.n, b.param, b.rep, b.seed)


def test_cell_layout_and_aggregate_math():
    cfg = _small_cfg(reps=3, seed=7)
    rows, times = run_experiment(cfg)
    assert len(rows) == 5  # 3 reps + mean + std
    reps = rows[:3]
    mean_row, std_row = rows[3], rows[4]
    assert [r.rep for r in reps] == ["0", "1", "2"]
    assert [r.seed for r in reps] == ["7", "8", "9"]
    assert mean_row.rep == "mean" and mean_row.seed == ""
    assert std_row.rep == "std" and std_row.seed == ""
    sweeps = np.array([float(r.sweeps) for r in reps])
    resids = np.array([float(r.relative_residual) for r in reps])
    specs = np.array([float(r.spectrum_rel_error) for r in reps])
    assert float(mean_row.sweeps) == pytest.approx(sweeps.mean(), rel=0, abs=0)
    assert float(std_row.sweeps) == pytest.approx(sweeps.std(), rel=0, abs=0)
    assert float(mean_row.relative_residual) == resids.mean()
    assert float(std_row.relative_residual) == resids.std()  # ddof = 0
    assert float(mean_row.spectrum_rel_error) == specs.mean()
    assert all(r.termination == "converged" for r in reps)
    assert mean_row.termination == "converged"
    assert len(times) == 3
    assert all(t.construction_s >= 0.0 for t in times)



def test_every_number_column_is_summarized_by_one_rule():
    # Hilbert has no truth, so spectrum_rel_error is blank, and u_defect is
    # blank on the SVD route; at epsilon 1e-14 and two sweeps the Gram
    # repetitions differ in their sweep counts
    cfg = RunConfig(experiment="hilbert", solvers=list(SOLVERS),
                    n_values=[5], k=3, epsilon=1e-14, reps=3,
                    solver_options={"max_full_sweeps": 2, "max_restarts": 0})
    rows, times = run_experiment(cfg)
    numbers = [f.name for f in dataclasses.fields(ResultRow)
               if f.metadata.get("number")]
    assert numbers == ["sweeps", "relative_residual", "spectrum_rel_error",
                       "max_v_rank", "u_defect"]
    aggregates = build_report(rows, times)["aggregates"]
    assert len(rows) == 5 * len(SOLVERS) == 5 * len(aggregates)
    spread = set()
    for at, agg in zip(range(0, len(rows), 5), aggregates):
        reps, (mean, std) = rows[at:at + 3], rows[at + 3:at + 5]
        assert (mean.rep, std.rep, mean.seed, std.seed) == ("mean", "std",
                                                            "", "")
        for name in numbers:
            texts = [getattr(r, name) for r in reps]
            if name == "spectrum_rel_error" or (
                    name == "u_defect" and mean.solver.endswith("svd")):
                assert texts == [""] * 3
                assert getattr(mean, name) == getattr(std, name) == ""
                assert agg[f"mean_{name}"] is None
                continue
            values = [float(t) for t in texts]
            assert getattr(mean, name) == repr(float(np.mean(values)))
            assert getattr(std, name) == repr(_std(values))
            assert agg[f"mean_{name}"] == float(getattr(mean, name))
            spread.add((name, getattr(std, name) != "0.0"))
        assert agg["termination"] == mean.termination
    # the rule is checked on a non-zero std too
    assert ("sweeps", True) in spread and ("relative_residual", True) in spread

def test_csv_round_trip():
    cfg = _small_cfg()
    rows, times = run_experiment(cfg)
    for got, row_type, columns in ((rows, ResultRow, RESULT_COLUMNS),
                                   (times, TimingRow, TIMING_COLUMNS)):
        text = rows_to_csv(got, columns)
        back = parse_rows_csv(text, row_type, columns)
        assert back == got
        assert rows_to_csv(back, columns) == text
        with pytest.raises(ConfigError, match="columns"):
            parse_rows_csv("a,b\n1,2\n", row_type, columns)


def test_tridiagonal_cell_has_closed_form_truth():
    # N=64 indexes past int64: the truth must still be computed in floats
    cfg = RunConfig(experiment="tridiagonal", solvers=["mals_svd"],
                    n_values=[4, 64], k=2, epsilon=1e-9, reps=1, seed=0)
    rows, _ = run_experiment(cfg)
    reps = [r for r in rows if r.rep == "0"]
    assert [r.n for r in reps] == [4, 64]
    for rep in reps:
        assert rep.termination == "converged"
        assert float(rep.spectrum_rel_error) <= 1e-10
        assert rep.param == ""


@pytest.mark.filterwarnings("error")
def test_tridiagonal_build_holds_no_dense_vector():
    # the three diagonals are built as rank-1 chains: at N=20 one dense 2^N
    # vector alone would take 8 MiB, and at N=50 none could be held
    cfg = RunConfig(experiment="tridiagonal", solvers=["mals_svd"],
                    n_values=[20], k=3)
    tracemalloc.start()
    try:
        a, truth = _build_matrix(cfg, 20, None, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert a.ranks == [1] + [3] * 19 + [1]
    # 2^64 and beyond overflow an int64 index; from N = 1023 on the truth's
    # j*pi overflows a float
    for n in (50, 64, 100, 1022):
        a, truth = _build_matrix(cfg, n, None, 0)
        assert a.n_cores == n and truth.shape == (3,)
        assert truth.dtype == float and np.all((truth > 0) & (truth <= 4))


@pytest.mark.filterwarnings("error")
def test_tridiagonal_solves_at_the_largest_n(monkeypatch):
    # ||A||_F = 1.6e154 at N = 1022: squaring it in the residual once
    # overflowed, and the solve raised after 0.85 s.  Its micro records do
    # not grow with N: they once held both chains' rank profiles, 35 MiB
    # here, and copying them took half the solve
    reports = []

    def kept(a, scfg):
        out = solver.mals_svd(a, scfg)
        reports.append(out[3])
        return out
    monkeypatch.setitem(SOLVERS, "mals_svd", kept)
    cfg = RunConfig(experiment="tridiagonal", solvers=["mals_svd"],
                    n_values=[1022], k=2, epsilon=1e-6, reps=1, seed=0)
    rows, _ = run_experiment(cfg)
    row = next(r for r in rows if r.rep == "0")
    assert row.termination == "converged"
    assert float(row.relative_residual) < 1e-6
    assert float(row.spectrum_rel_error) <= 1e-10
    (report,) = reports
    check_micro_records(report, 2)


def test_hilbert_cell_and_generator_budget():
    cfg = RunConfig(experiment="hilbert", solvers=["mals_svd"], n_values=[6],
                    k=2, epsilon=1e-6, reps=1, seed=0,
                    params={"delta": [1e-8]})
    rows, _ = run_experiment(cfg)
    assert rows[0].termination == "converged"
    assert rows[0].spectrum_rel_error == ""  # no analytic truth recorded
    assert rows[0].param == "1e-08"
    # the generating vector is an exponential sum, so N=40 needs no 2^40 array
    big = RunConfig(experiment="hilbert", solvers=["mals_svd"], n_values=[40],
                    k=2, epsilon=1e-6, reps=1, seed=0)
    rows, _ = run_experiment(big)
    assert rows[0].termination == "converged"
    assert float(rows[0].relative_residual) < 1e-6


def test_prescribed_rejects_k_beyond_spectrum():
    with pytest.raises(ConfigError, match="k0"):
        _small_cfg(k=8)  # k0 = 6 in _small_cfg
    with pytest.raises(ConfigError, match="k0"):
        _small_cfg(k=26, params={"beta": [0.5]})  # the default k0 is 25
    assert _small_cfg(k=6).fixed_params == {"k0": 6, "rank": 2}


def test_toeplitz_rank_cap_grid():
    cfg = RunConfig(experiment="toeplitz", solvers=["mals_svd"], n_values=[5],
                    k=2, epsilon=1e-8, reps=2, seed=3,
                    params={"max_rank": [2, 64, None], "rank": 2})
    rows, _ = run_experiment(cfg)
    by_param = {}
    for r in rows:
        if r.rep in ("mean", "std"):
            continue
        by_param.setdefault(r.param, []).append(r)
    assert set(by_param) == {"2", "64", "none"}
    for r in by_param["2"]:
        assert int(r.max_v_rank) <= 2
    # a cap far above the attainable ranks reproduces the uncapped runs
    for capped, free in zip(by_param["64"], by_param["none"]):
        assert capped.sweeps == free.sweeps
        assert capped.relative_residual == free.relative_residual
        assert capped.max_v_rank == free.max_v_rank
        assert capped.termination == free.termination


def test_custom_experiment_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    a = random_matrix_tt(4, 2, rng)
    path = str(tmp_path / "a.ttc")
    save_tt(a, path)
    cfg = RunConfig(experiment="custom", solvers=["als_svd"], n_values=[],
                    k=2, epsilon=1e-8, reps=1, seed=0,
                    params={"path": path})
    rows, times = run_experiment(cfg)
    assert rows[0].n == 4  # read back from the container
    assert rows[0].termination == "converged"

    vec = random_vector_tt([2] * 4, 2, 0)
    vpath = str(tmp_path / "x.ttc")
    save_tt(vec, vpath)
    bad = RunConfig(experiment="custom", solvers=["als_svd"], n_values=[],
                    k=2, epsilon=1e-8, reps=1, seed=0,
                    params={"path": vpath})
    with pytest.raises(ConfigError, match="MatrixTT"):
        run_experiment(bad)

    a.cores[1][0, 0, 0, 0] = np.nan
    save_tt(a, path)
    with pytest.raises(ConfigError, match="core 1 "):
        run_experiment(cfg)


def _e1_container(tmp_path):
    """A = e_1 e_1^T at N=5 saved as a container: the SVD solvers converge
    and the Gram baselines, whose U = A V Sigma^+ keeps a zero column, end
    "sweep-limit" at a residual of 0.0."""
    path = str(tmp_path / "e1.ttc")
    save_tt(MatrixTT([np.diag([1.0, 0.0])[None, :, :, None]] * 5), path)
    return path


def test_a_cell_whose_repetitions_end_alike_keeps_their_termination(
        tmp_path, monkeypatch):
    # a mean row once read "mixed" unless every repetition converged
    cfg = RunConfig(experiment="custom", solvers=list(SOLVERS), n_values=[],
                    k=2, reps=2, params={"path": _e1_container(tmp_path)})
    means = {r.solver: r.termination for r in run_experiment(cfg)[0]
             if r.rep == "mean"}
    assert means == {"als_svd": "converged", "mals_svd": "converged",
                     "als_eig": "sweep-limit", "mals_eig": "sweep-limit"}
    # repetitions that differ still read "mixed"
    solve = SOLVERS["als_eig"]

    def restarted_at_seed_1(a, scfg):
        sigma, u, v, report = solve(a, scfg)
        if scfg.seed == 1:
            report.termination = "restarted"
        return sigma, u, v, report
    monkeypatch.setitem(SOLVERS, "als_eig", restarted_at_seed_1)
    rows = run_experiment(dataclasses.replace(cfg, solvers=["als_eig"]))[0]
    assert [r.termination for r in rows] == ["sweep-limit", "restarted",
                                             "mixed", ""]


@pytest.mark.parametrize("which", ["zero", "overflowing"])
def test_cli_run_refuses_a_zero_or_overflowing_matrix(tmp_path, which):
    # its norm is read before the first sweep: exit 2 and no results.csv
    path = str(tmp_path / "a.ttc")
    save_tt(zero_or_overflowing_tt(which), path)
    cfg = _cli_config(tmp_path, experiment="custom", n_values=[],
                      solvers=list(SOLVERS), params={"path": path})
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, ["run", cfg, "--strict", "--out-dir",
                                        str(out)])
    assert res.exit_code == 2
    assert ("solver als_svd rejected the problem: the matrix's Frobenius "
            "norm is zero or not finite") in res.output
    assert not (out / "results.csv").exists()


def test_scaling_report_fits_exact_lines():
    rows = []
    for n in (4, 6, 8):
        for rep in range(2):
            rows.append(TimingRow("prescribed_svd", "als_svd", n, 2, "0.5",
                                  str(rep), str(rep), 0.5 * n + 0.1, 0.0))
    # aggregate rows and a short-grid solver must both be ignored
    rows.append(TimingRow("prescribed_svd", "als_svd", 99, 2, "0.5", "mean",
                          "", 1e9, 0.0))
    rows.append(TimingRow("prescribed_svd", "mals_svd", 4, 2, "0.5", "0", "0",
                          1.0, 0.0))
    rows.append(TimingRow("prescribed_svd", "mals_svd", 6, 2, "0.5", "0", "0",
                          2.0, 0.0))
    fits = scaling_report(rows)
    assert set(fits) == {"als_svd"}
    fit = fits["als_svd"]
    assert fit["slope"] == pytest.approx(0.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(0.1, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert fit["n_values"] == [4, 6, 8]


@pytest.mark.parametrize("seconds", [0.01, 3.3, 100.0, 1234.5])
def test_scaling_report_flat_profile_fits_exactly(seconds):
    # the mean of three 3.3s is 3.2999999999999994, and the fit at 100 s
    # leaves a residual of 2.8e-27: neither may read as a poor fit
    rows = [TimingRow("prescribed_svd", "als_svd", n, 2, "0.5", "0", "0",
                      seconds, 0.0) for n in (4, 6, 8)]
    assert scaling_report(rows)["als_svd"]["r_squared"] == 1.0


def test_build_report_and_write_results(tmp_path):
    cfg = _small_cfg(out_dir=str(tmp_path / "out"))
    rows, times = run_experiment(cfg)
    report = build_report(rows, times, config_dict=cfg.to_dict())
    assert report["termination_counts"] == {"converged": 2}
    assert len(report["aggregates"]) == 1
    agg = report["aggregates"][0]
    assert agg["solver"] == "als_svd" and agg["N"] == 4
    assert agg["mean_relative_residual"] < 1e-8
    assert report["config"]["schema_version"] == 1

    paths = write_results(cfg.out_dir, rows, times, config_dict=cfg.to_dict())
    with open(paths["results"]) as fh:
        assert fh.readline().strip() == ",".join(RESULT_COLUMNS)
    with open(paths["timings"]) as fh:
        assert fh.readline().strip() == ",".join(TIMING_COLUMNS)
    with open(paths["metadata"]) as fh:
        meta = json.load(fh)
    assert "numpy_version" in meta and "platform" in meta
    with open(paths["report"]) as fh:
        assert json.load(fh)["termination_counts"] == {"converged": 2}
    assert paths["plotdata"]
    with open(paths["plotdata"][0]) as fh:
        header = fh.readline()
    assert header.startswith("N\tparam\t")
    assert os.path.basename(paths["plotdata"][0]) == "prescribed_svd_als_svd.tsv"


# ---------------------------------------------------------------------------
# command line


def _cli_config(tmp_path, **over):
    doc = {
        "schema_version": 1,
        "experiment": "prescribed_svd",
        "solvers": ["als_svd"],
        "n_values": [4],
        "k": 2,
        "epsilon": 1e-8,
        "reps": 1,
        "seed": 0,
        "params": {"beta": [0.5], "k0": 6, "rank": 2},
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(over)
    return _write_yaml(tmp_path / "cfg.yaml", doc)


def test_cli_run_writes_outputs(tmp_path):
    runner = CliRunner()
    cfg_path = _cli_config(tmp_path)
    res = runner.invoke(cli_main, ["run", cfg_path])
    assert res.exit_code == 0, res.output
    assert "wrote" in res.output and "1 converged" in res.output
    out = tmp_path / "out"
    for name in ("results.csv", "timings.csv", "metadata.json", "report.json"):
        assert (out / name).exists()
    assert (out / "plotdata" / "prescribed_svd_als_svd.tsv").exists()


def test_cli_run_overrides(tmp_path):
    runner = CliRunner()
    cfg_path = _cli_config(tmp_path, n_values=[4, 11])
    out2 = str(tmp_path / "other")
    res = runner.invoke(cli_main, ["run", cfg_path, "--seed", "9", "--reps",
                                   "2", "--max-n", "5", "--out-dir", out2])
    assert res.exit_code == 0, res.output
    with open(os.path.join(out2, "results.csv")) as fh:
        rows = parse_rows_csv(fh.read(), ResultRow, RESULT_COLUMNS)
    rep_rows = [r for r in rows if r.rep not in ("mean", "std")]
    assert {r.n for r in rep_rows} == {4}  # N=11 dropped by --max-n
    assert {r.seed for r in rep_rows} == {"9", "10"}


def test_cli_run_rejects_bad_inputs(tmp_path):
    runner = CliRunner()
    bad = _write_yaml(tmp_path / "bad.yaml", {"schema_version": 1,
                                              "experiment": "prescribed_svd",
                                              "solvers": ["als_svd"],
                                              "n_values": [4],
                                              "typo_key": True})
    res = runner.invoke(cli_main, ["run", bad])
    assert res.exit_code == 2
    assert "configuration error" in res.output

    cfg_path = _cli_config(tmp_path)
    res = runner.invoke(cli_main, ["run", cfg_path, "--solvers", "qr"])
    assert res.exit_code == 2
    res = runner.invoke(cli_main, ["run", cfg_path, "--reps", "0"])
    assert res.exit_code == 2
    for over in (dict(epsilon=float("nan")), dict(k=2.5),
                 dict(solver_options={"max_full_sweeps": 1.5}),
                 dict(solver_options={"max_restarts": 0.5}),
                 dict(solver_options={"max_rank": 0}),
                 dict(solver_options={"dense_crossover": 8}),
                 dict(solver_options={"on_micro_iteration": 5}),
                 dict(out_dir=5),
                 dict(out_dir=["out"]),
                 dict(experiment="custom", params={"path": 5}),
                 dict(experiment="toeplitz", params={"max_rank": [0]}),
                 dict(experiment="toeplitz", params={"max_rank": [-3]}),
                 dict(experiment="toeplitz", params={"max_rank": ["abc"]}),
                 dict(experiment="toeplitz", params={"max_rank": [2.5]}),
                 dict(params={"beta": [0.5], "k0": None}),
                 dict(params={"beta": [0.5], "k0": 6.7, "rank": 2.9}),
                 dict(params={"beta": [0.5], "k0": 6, "rank": 2.9}),
                 dict(params={"beta": [0.5], "k0": True}),
                 dict(params={"beta": [0.5], "k0": 0}),
                 dict(params={"beta": [0.5], "k0": 6, "rank": 0}),
                 dict(params={"beta": [0.5], "k0": 6, "rank": -2}),
                 dict(params={"beta": [0.5], "k0": [6]}),
                 dict(experiment="toeplitz", params={"max_rank": [2], "rank": 2.5}),
                 dict(experiment="toeplitz", params={"max_rank": [2], "rank": True}),
                 dict(experiment="toeplitz", params={"max_rank": [2], "rank": 0}),
                 dict(params={"beta": "abc"}),
                 dict(params={"beta": []}),
                 dict(experiment="hilbert", params={"delta": []}),
                 dict(experiment="hilbert", params={"delta": ["abc"]}),
                 dict(experiment="hilbert", params={"delta": [float("nan")]}),
                 dict(solvers="als_svd"),
                 dict(n_values=4),
                 dict(experiment="tridiagonal", params={"beta": 0.3}),
                 dict(params={"betta": 0.9}),
                 dict(experiment="toeplitz", params={"max_rank": [None]},
                      solver_options={"max_rank": 3})):
        res = runner.invoke(cli_main, ["run", _cli_config(tmp_path, **over)])
        assert res.exit_code == 2, (over, res.output)
        assert "configuration error" in res.output
    res = runner.invoke(cli_main, ["run", cfg_path, "--max-n", "2"])
    assert res.exit_code == 2
    res = runner.invoke(cli_main, ["run", str(tmp_path / "missing.yaml")])
    assert res.exit_code == 2


@pytest.mark.parametrize("experiment, limit",
                         [("hilbert", "hilbert needs N <= 1022"),
                          ("tridiagonal", "tridiagonal needs N <= 1022")],
                         ids=["hilbert", "tridiagonal"])
def test_cli_run_names_the_largest_n(tmp_path, experiment, limit):
    # past the limit a float overflows: once a raw OverflowError and exit 1
    cfg = _cli_config(tmp_path, experiment=experiment, n_values=[1030],
                      params={})
    res = CliRunner().invoke(cli_main, ["run", cfg])
    assert res.exit_code == 2, res.output
    assert limit in res.output


def _count_solves(monkeypatch) -> list:
    """Every solver the harness calls from now on, by name, in order."""
    calls = []
    for name, run in list(SOLVERS.items()):
        def counted(a, scfg, name=name, run=run):
            calls.append(name)
            return run(a, scfg)
        monkeypatch.setitem(SOLVERS, name, counted)
    return calls


@pytest.mark.parametrize("over, fragment", [
    (dict(experiment="tridiagonal", n_values=[6, 1030], params={}),
     "tridiagonal needs N <= 1022"),
    (dict(experiment="hilbert", n_values=[6], params={"delta": [1e-8, -1.0]}),
     "bad params.delta value"),
    # these load, but a later cell is one its solver (or generator) refuses
    (dict(experiment="hilbert", n_values=[40, 2], k=10, reps=2, params={},
          solvers=["mals_svd"]),
     "sweep solvers need at least two cores"),
    (dict(experiment="hilbert", n_values=[30], k=1, params={},
          solvers=["mals_svd", "als_svd"]),
     "als_svd sweeps single cores"),
    (dict(experiment="tridiagonal", n_values=[8, 2], k=5, params={},
          solvers=["mals_svd"]),
     "block size k exceeds the matrix dimensions"),
    (dict(n_values=[8, 3], params={"k0": 16, "beta": [0.5]},
          solvers=["mals_svd"]),
     "k0 out of range"),
    (dict(experiment="toeplitz", n_values=[8], k=10,
          params={"max_rank": [15, 4]}, solvers=["als_svd"]),
     "max_rank 4 is too small for k=10"),
], ids=["tridiagonal-n", "hilbert-delta", "hilbert-one-core", "als-k1",
        "tridiagonal-k", "prescribed-k0", "toeplitz-cap"])
def test_cli_run_rejects_a_bad_grid_before_any_solve(tmp_path, monkeypatch,
                                                     over, fragment):
    # the whole grid is checked before its first solve: once the good first
    # cells solved (for 1.7 s on tridiagonal-n) before a bad one stopped the
    # run with no results.csv
    calls = _count_solves(monkeypatch)
    cfg_path = _cli_config(tmp_path, **over)
    with pytest.raises(ConfigError, match=fragment):
        run_experiment(load_run_config(cfg_path))
    res = CliRunner().invoke(cli_main, ["run", cfg_path])
    assert res.exit_code == 2, res.output
    assert fragment in res.output
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_cli_run_refuses_a_solver_listed_twice(tmp_path, monkeypatch):
    calls = _count_solves(monkeypatch)
    res = CliRunner().invoke(cli_main, ["run", _cli_config(tmp_path),
                                        "--solvers", "als_svd,als_svd"])
    assert res.exit_code == 2, res.output
    assert "solvers lists 'als_svd' twice" in res.output
    assert calls == []
    assert not (tmp_path / "out").exists()


def _count_builds(monkeypatch, experiment: str) -> list:
    """The (N, param, seed) of every matrix that ``experiment``'s builder
    makes from now on, in order."""
    calls = []
    family = _FAMILIES[experiment]

    def counted(cfg, n, value, seed):
        calls.append((n, value, seed))
        return family.build(cfg, n, value, seed)
    monkeypatch.setitem(_FAMILIES, experiment,
                        dataclasses.replace(family, build=counted))
    return calls


def test_each_grid_point_builds_each_repetition_once(monkeypatch):
    # P = 2 points, R = 2 repetitions, S = 3 solvers: P * R builds, where
    # one build per cell and repetition once made P * R * S = 12
    builds = _count_builds(monkeypatch, "prescribed_svd")
    solves = _count_solves(monkeypatch)
    cfg = _small_cfg(solvers=["als_svd", "mals_svd", "als_eig"],
                     params={"beta": [0.3, 0.5], "k0": 6, "rank": 2})
    rows, _ = run_experiment(cfg)
    # every repetition-0 matrix is built before the first solve
    assert builds == [(4, 0.3, 0), (4, 0.5, 0), (4, 0.3, 1), (4, 0.5, 1)]
    assert len(solves) == 2 * 2 * 3
    assert [(r.param, r.solver) for r in rows[::4]] == [
        (beta, name) for beta in ("0.3", "0.5") for name in cfg.solvers]


def test_a_grid_of_all_solvers_rows_as_one_solver_runs():
    cfg = _small_cfg(solvers=list(SOLVERS), n_values=[4, 5])
    rows, _ = run_experiment(cfg)
    alone = {name: run_experiment(dataclasses.replace(cfg, solvers=[name]))[0]
             for name in SOLVERS}
    expected = [row for n in cfg.n_values for name in SOLVERS
                for row in alone[name] if row.n == n]
    assert rows == expected


def test_every_solver_gets_the_one_matrix_and_leaves_it_unchanged(
        monkeypatch):
    handed = []
    for name, run in list(SOLVERS.items()):
        def checked(a, scfg, name=name, run=run):
            before = [c.copy() for c in a.cores]
            out = run(a, scfg)
            handed.append((name, scfg.seed, a))
            assert len(a.cores) == len(before)
            for c, kept in zip(a.cores, before):
                assert c.dtype == kept.dtype and c.shape == kept.shape
                assert c.tobytes() == kept.tobytes(), name
            return out
        monkeypatch.setitem(SOLVERS, name, checked)
    run_experiment(_small_cfg(solvers=list(SOLVERS)))
    assert sorted((name, seed) for name, seed, _ in handed) == sorted(
        (name, seed) for name in SOLVERS for seed in (0, 1))
    for seed in (0, 1):
        first, *others = [a for _, s, a in handed if s == seed]
        assert all(a is first for a in others)


def test_cli_run_max_n_keeps_a_custom_run(tmp_path, monkeypatch):
    # custom reads N from its container, so --max-n has no N to drop
    path = tmp_path / "a.ttc"
    save_tt(random_matrix_tt(4, 2, np.random.default_rng(3)), str(path))
    cfg = _cli_config(tmp_path, experiment="custom", n_values=[],
                      params={"path": str(path)})
    calls = _count_solves(monkeypatch)
    res = CliRunner().invoke(cli_main, ["run", cfg, "--max-n", "2"])
    assert res.exit_code == 0, res.output
    assert calls == ["als_svd"]
    rows = parse_rows_csv((tmp_path / "out" / "results.csv").read_text(),
                          ResultRow, RESULT_COLUMNS)
    assert rows[0].n == 4


def test_cli_run_names_a_corrupt_custom_container(tmp_path):
    runner = CliRunner()
    good = tmp_path / "good.ttc"
    save_tt(random_matrix_tt(4, 2, np.random.default_rng(3)), str(good))
    data = good.read_bytes()
    for name, payload in (("garbage.ttc", b"not a container at all"),
                          ("half.ttc", data[:len(data) // 2])):
        path = tmp_path / name
        path.write_bytes(payload)
        cfg = _cli_config(tmp_path, experiment="custom",
                          params={"path": str(path)})
        res = runner.invoke(cli_main, ["run", cfg])
        assert res.exit_code == 2, res.output
        assert f"corrupt TT container {path}" in res.output
        assert "generator rejected" not in res.output


@pytest.mark.parametrize("fault, message", [
    ("missing container", "cannot read TT container"),
    ("malformed yaml", "malformed config"),
])
def test_cli_run_rejects_an_unreadable_input(tmp_path, fault, message):
    if fault == "missing container":
        cfg = _cli_config(tmp_path, experiment="custom", n_values=[],
                          params={"path": str(tmp_path / "absent.ttc")})
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("schema_version: 1\nexperiment: [hilbert\n")
    out = tmp_path / "out"
    res = CliRunner().invoke(cli_main, ["run", str(cfg), "--out-dir",
                                        str(out)])
    assert res.exit_code == 2, res.output
    assert "configuration error:" in res.output
    assert message in res.output
    assert not (out / "results.csv").exists()


def test_cli_run_strict_flags_non_convergence(tmp_path):
    runner = CliRunner()
    cfg_path = _cli_config(
        tmp_path, epsilon=1e-16,
        solver_options={"max_full_sweeps": 1, "max_restarts": 0})
    res = runner.invoke(cli_main, ["run", cfg_path, "--strict"])
    assert res.exit_code == 3
    assert "did not converge" in res.output


def test_cli_run_strict_flags_a_residual_above_epsilon(tmp_path):
    # the Gram baselines stop on the residual of A^T A (about 3e-13 here),
    # but every solver is judged on A, where theirs is 0.037: their rows
    # read not converged, a plain run exits 0 and --strict exits 3
    cfg_path = _cli_config(tmp_path, experiment="hilbert",
                           solvers=["als_svd", "mals_svd", "als_eig",
                                    "mals_eig"], n_values=[6],
                           k=10, epsilon=1e-3, params={})
    res = CliRunner().invoke(cli_main, ["run", cfg_path])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(cli_main, ["run", cfg_path, "--strict"])
    assert res.exit_code == 3, res.output
    rows = parse_rows_csv((tmp_path / "out" / "results.csv").read_text(),
                          ResultRow, RESULT_COLUMNS)
    reps = [r for r in rows if r.rep == "0"]
    assert [r.solver for r in reps] == ["als_svd", "mals_svd", "als_eig",
                                        "mals_eig"]
    for r in reps:
        named = (f"hilbert {r.solver} N=6 param {r.param} rep 0 did not "
                 f"converge" in res.output)
        assert (r.termination == "converged") == (not named)
        assert (r.termination == "converged") == (
            float(r.relative_residual) < 1e-3)
        assert (r.termination == "converged") == r.solver.endswith("svd")
    # above epsilon a failure needs no cause beyond the residual
    assert "recovered U" not in res.output


def test_cli_run_strict_says_why_a_gram_repetition_below_epsilon_failed(
        tmp_path):
    # the Gram baselines end at a residual of 0.0 on A = e_1 e_1^T, refused
    # by the orthonormality check of their recovered U, which the strict
    # line names; the SVD solvers converge and are not named
    cfg = _cli_config(tmp_path, experiment="custom", n_values=[],
                      solvers=list(SOLVERS), reps=2,
                      params={"path": _e1_container(tmp_path)})
    res = CliRunner().invoke(cli_main, ["run", cfg, "--strict"])
    assert res.exit_code == 3, res.output
    named = [line for line in res.output.splitlines()
             if line.startswith("strict mode:")]
    assert [line.split()[3:5] for line in named] == [
        ["als_eig", "N=5"], ["als_eig", "N=5"],
        ["mals_eig", "N=5"], ["mals_eig", "N=5"]]
    # U's second column is zero (sigma_2 = 0), so U^T U - I = -e_2 e_2^T
    for line in named:
        assert line.endswith(
            "termination sweep-limit, relative_residual 0.0, epsilon 1e-08; "
            "below epsilon, so the Gram route's recovered U failed its check "
            "||U^T U - I||_F <= sqrt(epsilon): u_defect 1.0")
    with open(tmp_path / "out" / "results.csv") as fh:
        rows = parse_rows_csv(fh.read(), ResultRow, RESULT_COLUMNS)
    assert {(r.solver, r.u_defect) for r in rows if r.rep != "std"} == {
        ("als_svd", ""), ("mals_svd", ""), ("als_eig", "1.0"),
        ("mals_eig", "1.0")}

def test_run_evaluates_one_residual_per_stop_test(monkeypatch):
    # the written relative_residual is the solver's own: an SVD repetition
    # evaluates one residual per completed sweep, a Gram repetition one
    # after recovering U, and the harness none
    evaluate, calls, per_rep = solver.residual, [], []

    def counted(*args, **kwargs):
        calls.append(None)
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(solver, "residual", counted)
    for name, run in list(SOLVERS.items()):
        def recorded(a, scfg, run=run):
            before = len(calls)
            out = run(a, scfg)
            per_rep.append((out[3], len(calls) - before))
            return out
        monkeypatch.setitem(SOLVERS, name, recorded)
    run_experiment(_small_cfg(solvers=list(SOLVERS), n_values=[6],
                              epsilon=1e-10))
    assert len(per_rep) == 8
    for rep, n_calls in per_rep:
        gram = rep.solver.endswith("eig")
        assert n_calls == (1 if gram else rep.total_sweeps) >= 1
    assert len(calls) == sum(n for _, n in per_rep)


@pytest.mark.filterwarnings("error")
def test_cli_run_strict_flags_a_solve_with_no_completed_sweep(tmp_path,
                                                              monkeypatch):
    # every window runs matrix-free block Krylov with no dense fallback and
    # fails after one step, so no sweep completes and Sigma stays zero
    estimate = solver.local_solve_macs

    def matrix_free(*args):
        build, _, _, free_step = estimate(*args)
        return build, math.inf, free_step, free_step
    monkeypatch.setattr(solver, "local_solve_macs", matrix_free)
    monkeypatch.setattr(solver, "_LOCAL_MAX_ITER", 1)
    cfg_path = _cli_config(tmp_path, experiment="hilbert", n_values=[6],
                           params={})
    res = CliRunner().invoke(cli_main, ["run", cfg_path, "--strict"])
    assert res.exit_code == 3, res.output
    assert "did not converge" in res.output
    text = (tmp_path / "out" / "results.csv").read_text()
    row, mean, std = parse_rows_csv(text, ResultRow, RESULT_COLUMNS)
    assert row.sweeps == "0" and row.relative_residual == "inf"
    assert row.termination == "restarted"
    # an infinite residual aggregates to an infinite mean and std, not NaN
    assert (mean.rep, mean.relative_residual) == ("mean", "inf")
    assert (std.rep, std.relative_residual) == ("std", "inf")


def test_cli_report_rebuilds_from_csv(tmp_path):
    runner = CliRunner()
    cfg_path = _cli_config(tmp_path)
    assert runner.invoke(cli_main, ["run", cfg_path]).exit_code == 0
    results_csv = str(tmp_path / "out" / "results.csv")
    target = str(tmp_path / "rebuilt")
    res = runner.invoke(cli_main, ["report", results_csv, "--out-dir", target])
    assert res.exit_code == 0, res.output
    with open(os.path.join(target, "report.json")) as fh:
        report = json.load(fh)
    assert report["termination_counts"] == {"converged": 1}
    # scaling fits feed off the timings.csv sitting next to the results file
    assert "scaling_fits" in report
    res = runner.invoke(cli_main, ["report", str(tmp_path / "nope.csv")])
    assert res.exit_code == 2


def test_cli_report_matches_the_run_outputs(tmp_path):
    # report rebuilds plotdata byte for byte, and report.json up to the
    # config, which a results.csv does not carry; Hilbert's cells have a
    # blank spectrum_rel_error column
    runner = CliRunner()
    for experiment, params in (("prescribed_svd", {"beta": [0.5], "k0": 6,
                                                   "rank": 2}),
                               ("hilbert", {})):
        cfg_path = _cli_config(tmp_path, experiment=experiment,
                               n_values=[4, 5], reps=2, params=params,
                               out_dir=str(tmp_path / experiment))
        assert runner.invoke(cli_main, ["run", cfg_path]).exit_code == 0
        out, target = tmp_path / experiment, tmp_path / f"{experiment}-rebuilt"
        res = runner.invoke(cli_main, ["report", str(out / "results.csv"),
                                       "--out-dir", str(target)])
        assert res.exit_code == 0, res.output
        plots = sorted(p.name for p in (out / "plotdata").iterdir())
        assert plots == sorted(p.name for p in (target / "plotdata").iterdir())
        for name in plots:
            assert ((out / "plotdata" / name).read_bytes()
                    == (target / "plotdata" / name).read_bytes())
        run_report = json.loads((out / "report.json").read_text())
        assert "config" in run_report
        del run_report["config"]
        assert run_report == json.loads((target / "report.json").read_text())
        blank = {agg["mean_spectrum_rel_error"] is None
                 for agg in run_report["aggregates"]}
        assert blank == {experiment == "hilbert"}


def test_cli_report_rejects_malformed_csv(tmp_path):
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run", _cli_config(tmp_path)]).exit_code == 0
    out = tmp_path / "out"
    with open(out / "results.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[2].split(",")[5] == "mean"  # header, one repetition, mean

    def cells(line, col, value):
        row = line.split(",")
        row[col] = value
        return ",".join(row)

    bad_results = {
        "N": [lines[0], cells(lines[1], 2, "4.5")] + lines[2:],
        "short row": [lines[0], lines[1].rsplit(",", 1)[0]] + lines[2:],
        "mean sweeps": lines[:2] + [cells(lines[2], 7, "many")] + lines[3:],
        "empty": [],
    }
    for what, doc in bad_results.items():
        path = out / "results.csv"
        path.write_text("".join(line + "\n" for line in doc))
        res = runner.invoke(cli_main, ["report", str(path)])
        assert res.exit_code == 2, (what, res.output)
        assert "configuration error" in res.output, what
        assert "line" in res.output or what == "empty", (what, res.output)


def test_cli_verify_passes():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["verify"])
    assert res.exit_code == 0, res.output
    assert "all checks passed" in res.output


def test_cli_verify_refuses_a_negative_seed():
    # once a numpy traceback and exit 1, the code of a failed verification
    res = CliRunner().invoke(cli_main, ["verify", "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--seed'" in res.output


def test_cli_verify_counts_a_failing_and_a_raising_check(monkeypatch):
    def raises(rng):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "_CHECKS", [
        ("fails", lambda rng: (False, "wrong")), ("raises", raises),
        ("passes", lambda rng: (True, "ok"))])
    res = CliRunner().invoke(cli_main, ["verify"])
    assert res.exit_code == 1, res.output
    assert "FAIL fails: wrong" in res.output
    assert "FAIL raises: raised RuntimeError: boom" in res.output
    assert "PASS passes: ok" in res.output  # a raise does not abort the run
    assert "2 check(s) failed" in res.output


@pytest.mark.parametrize("name", ["round-structural-ranks", "gram-round"])
@pytest.mark.parametrize("seed", range(1, 13))
def test_rounding_checks_pass_on_every_seed(name, seed):
    # the structural rank oracle must carry each bond's cap to its
    # neighbours (seed 3 draws a product whose bond 2 is capped only by
    # mode * r_3); each check gets the rng that ``ttsvd verify --seed`` gives it
    idx = [n for n, _ in verify._CHECKS].index(name)
    ok, detail = dict(verify._CHECKS)[name](np.random.default_rng([seed, idx]))
    assert ok, detail
