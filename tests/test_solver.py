"""Sweep drivers against dense decompositions of small reconstructed matrices."""

import collections
import importlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_matrix_tt
from ttsvd import (
    BlockTT,
    SolverConfig,
    als_eig_baseline,
    als_svd,
    hilbert_submatrix_tt,
    identity_matrix_tt,
    mals_eig_baseline,
    mals_svd,
    prescribed_svd_matrix,
    matrix_tt_matmul,
    matrix_tt_transpose,
    random_block_tt,
    residual,
    tt_reconstruct,
)
from ttsvd.solver import _driver, _gram_residual

ALL_DRIVERS = [als_svd, mals_svd, als_eig_baseline, mals_eig_baseline]


def _dense_reference(a, k):
    ad = tt_reconstruct(a)
    u, s, vt = np.linalg.svd(ad)
    return ad, s[:k]


def test_identity_matrix_spectrum():
    a = identity_matrix_tt(4)
    for drv in (als_svd, mals_svd):
        sig, u, v, rep = drv(a, SolverConfig(k=3, epsilon=1e-8, seed=1))
        assert rep.termination == "converged"
        assert np.allclose(sig, np.ones(3), atol=1e-9)


@pytest.mark.parametrize("driver", ALL_DRIVERS)
def test_drivers_match_dense_svd(driver):
    a, _, _, spectrum = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=2)
    k = 4
    cfg = SolverConfig(k=k, epsilon=1e-9, seed=3)
    sig, u, v, rep = driver(a, cfg)
    ad, s_ref = _dense_reference(a, k)
    assert rep.termination == "converged"
    assert np.max(np.abs(sig - s_ref) / s_ref) < 1e-7
    ud = tt_reconstruct(u)
    vd = tt_reconstruct(v)
    assert np.linalg.norm(ud.T @ ud - np.eye(k)) < 1e-8
    assert np.linalg.norm(vd.T @ vd - np.eye(k)) < 1e-8
    # converged runs satisfy the reported stopping rule against dense math
    r_dense = np.linalg.norm(ad.T @ ud - vd * sig[np.newaxis, :]) / np.linalg.norm(sig)
    assert r_dense < cfg.epsilon * 10


@pytest.mark.parametrize("driver", ALL_DRIVERS)
def test_drivers_on_generic_random_matrix(driver):
    rng = np.random.default_rng(4)
    a = random_matrix_tt(5, 2, rng)
    k = 3
    sig, u, v, rep = driver(a, SolverConfig(k=k, epsilon=1e-9, seed=5))
    _, s_ref = _dense_reference(a, k)
    assert rep.termination == "converged"
    assert np.max(np.abs(sig - s_ref) / s_ref) < 1e-7


@pytest.mark.parametrize("driver", ALL_DRIVERS)
def test_drivers_reject_non_finite_cores(driver):
    rng = np.random.default_rng(12)
    for bad in (np.nan, np.inf, -np.inf):
        a = random_matrix_tt(4, 2, rng)
        a.cores[2][0, 1, 0, 1] = bad
        with pytest.raises(ValueError, match="core 2 "):
            driver(a, SolverConfig(k=2))


def test_tt_residual_tracks_dense_residual():
    a, _, _, _ = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=6)
    cfg = SolverConfig(k=4, epsilon=1e-9, seed=7)
    sig, u, v, rep = als_svd(a, cfg)
    rdelta = cfg.epsilon / 10
    r_tt = residual(a, u, v, sig, rdelta)
    assert r_tt < cfg.epsilon
    ad = tt_reconstruct(a)
    ud = tt_reconstruct(u)
    vd = tt_reconstruct(v)
    r_dense = np.linalg.norm(ad.T @ ud - vd * sig[np.newaxis, :]) / np.linalg.norm(sig)
    slack = rdelta * np.sqrt(a.n_cores - 1) * np.linalg.norm(ad.T @ ud) / np.linalg.norm(sig)
    assert abs(r_tt - r_dense) <= 1e-8 + slack


def _dense_residual(ad, u, v, sig):
    ud, vd = tt_reconstruct(u), tt_reconstruct(v)
    return np.linalg.norm(ad.T @ ud - vd * sig) / np.linalg.norm(sig)


def test_residual_is_exact_on_exact_triplets():
    """A = U0 Sigma V0^T holds exactly: the residual sits at rounding level
    and a perturbed Sigma reads ||dSigma|| / ||Sigma||, with no rounding
    slack."""
    a, u0, v0, spectrum = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=6)
    ad = tt_reconstruct(a)
    assert residual(a, u0, v0, spectrum) <= 1e-14
    rng = np.random.default_rng(13)
    for eta in (1e-9, 1e-4):
        sig = spectrum + eta * rng.standard_normal(spectrum.size)
        r_dense = _dense_residual(ad, u0, v0, sig)
        assert abs(residual(a, u0, v0, sig) - r_dense) <= 1e-14
        assert abs(r_dense - np.linalg.norm(sig - spectrum)
                   / np.linalg.norm(sig)) <= 1e-14


@pytest.mark.parametrize("a, k", [
    # Hilbert at eps 1e-3: the converged residual is far above rounding
    # level, where rounding A^T U at eps/10 used to shift the value visibly.
    (hilbert_submatrix_tt(8, 1e-8), 10),
    (prescribed_svd_matrix(2, 0.5, k0=3, rank=2, seed=17)[0], 1),
])
def test_residual_matches_dense_on_solver_output(a, k):
    sig, u, v, rep = mals_svd(a, SolverConfig(k=k, epsilon=1e-3, seed=0))
    r_dense = _dense_residual(tt_reconstruct(a), u, v, sig)
    assert abs(residual(a, u, v, sig, 1e-4) - r_dense) <= 1e-12 * r_dense + 1e-14


def test_gram_residual_matches_dense():
    rng = np.random.default_rng(14)
    a = random_matrix_tt(5, 2, rng)
    bmat = matrix_tt_matmul(matrix_tt_transpose(a), a)
    bd = tt_reconstruct(bmat)
    v = random_block_tt([2] * 5, 3, 2, 15)
    vd = tt_reconstruct(v)
    # the last value falls under the pseudo-inverse cutoff and counts as zero
    sigma = np.array([3.0, 0.5, 1e-15])
    pinv = np.array([1 / 3.0, 2.0, 0.0])
    want = np.linalg.norm(bd @ vd * pinv - vd * sigma) / np.linalg.norm(sigma)
    assert abs(_gram_residual(bmat, v, sigma) - want) <= 1e-13 * want
    sig, _, v, rep = mals_eig_baseline(a, SolverConfig(k=3, epsilon=1e-9, seed=16))
    vd = tt_reconstruct(v)
    want = np.linalg.norm(bd @ vd / sig - vd * sig) / np.linalg.norm(sig)
    assert abs(_gram_residual(bmat, v, sig) - want) <= 1e-14


def test_residual_rejects_zero_spectrum():
    rng = np.random.default_rng(8)
    a = random_matrix_tt(4, 2, rng)
    u = random_block_tt([2] * 4, 2, 1, 0)
    v = random_block_tt([2] * 4, 2, 1, 1)
    with pytest.raises(ValueError):
        residual(a, u, v, np.zeros(2), 1e-10)


def test_k1_merged_core_converges_single_core_freezes():
    rng = np.random.default_rng(9)
    a = random_matrix_tt(6, 2, rng)
    s_ref = np.linalg.svd(tt_reconstruct(a), compute_uv=False)

    sig, u, v, rep = mals_svd(a, SolverConfig(k=1, epsilon=1e-10, seed=10))
    assert rep.termination == "converged"
    assert abs(sig[0] - s_ref[0]) < 1e-7 * s_ref[0]

    with pytest.raises(ValueError):
        als_svd(a, SolverConfig(k=1))
    with pytest.raises(ValueError):
        als_eig_baseline(a, SolverConfig(k=1))

    # pushed through anyway, the single-core splits can never grow a bond
    cfg = SolverConfig(k=1, epsilon=1e-10, seed=11, max_full_sweeps=3,
                       max_restarts=0)
    _, _, _, rep1 = _driver(a, cfg, pair=False, gram=False, name="als_svd")
    for record in rep1.micro:
        assert all(r == 1 for r in record["ranks_u"])
        assert all(r == 1 for r in record["ranks_v"])

    sig2, _, _, rep2 = mals_eig_baseline(a, SolverConfig(k=1, epsilon=1e-10, seed=12))
    assert abs(sig2[0] - s_ref[0]) < 1e-6 * s_ref[0]


def test_micro_sigma_never_exceeds_the_variational_optimum():
    # every micro-iteration reports singular values of an orthogonally
    # projected matrix, so each one is bounded by its dense counterpart
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=13)
    k = 3
    s_ref = np.linalg.svd(tt_reconstruct(a), compute_uv=False)[:k]
    for driver in (als_svd, mals_svd):
        sig, _, _, rep = driver(a, SolverConfig(k=k, epsilon=1e-9, seed=14))
        for record in rep.micro:
            got = np.asarray(record["sigma"])
            assert np.all(got <= s_ref + 1e-8), record
        assert abs(np.sum(rep.micro[-1]["sigma"]) - np.sum(s_ref)) < 1e-8


def test_single_core_callback_is_sigma_consistent():
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=15)
    ad = tt_reconstruct(a)
    seen = []

    def probe(record, u_cb, v_cb):
        ud = tt_reconstruct(u_cb)
        vd = tt_reconstruct(v_cb)
        seen.append((np.asarray(record["sigma"]), ud, vd))

    cfg = SolverConfig(k=3, epsilon=1e-9, seed=16, on_micro_iteration=probe)
    als_svd(a, cfg)
    assert seen
    for sig, ud, vd in seen:
        # pre-split iterates carry exactly orthonormal columns
        assert np.linalg.norm(ud.T @ ud - np.eye(3)) < 1e-9
        proj = ud.T @ ad @ vd
        assert np.linalg.norm(proj - np.diag(sig)) < 1e-8


def test_merged_core_callback_is_sigma_consistent():
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=17)
    ad = tt_reconstruct(a)
    seen = []

    def probe(record, u_cb, v_cb):
        seen.append((np.asarray(record["sigma"]),
                     tt_reconstruct(u_cb), tt_reconstruct(v_cb)))

    cfg = SolverConfig(k=3, epsilon=1e-9, seed=18, delta0=1e-13,
                       on_micro_iteration=probe)
    mals_svd(a, cfg)
    assert seen
    for sig, ud, vd in seen:
        # post-split iterates are rounded at delta0, hence the looser bound
        proj = ud.T @ ad @ vd
        assert np.linalg.norm(proj - np.diag(sig)) < 1e-8


@pytest.mark.parametrize("driver", [als_eig_baseline, mals_eig_baseline])
def test_gram_callback_fires_once_per_micro_iteration(driver):
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=15)
    seen = []

    def probe(record, *chains):
        seen.append((record, chains))

    cfg = SolverConfig(k=3, epsilon=1e-9, seed=16, on_micro_iteration=probe)
    _, _, _, rep = driver(a, cfg)
    assert len(seen) == len(rep.micro) > 0
    for record, chains in seen:
        assert len(chains) == 1 and isinstance(chains[0], BlockTT)
        assert chains[0].mode_sizes == a.col_sizes


@pytest.mark.parametrize("driver", [als_eig_baseline, mals_eig_baseline])
def test_gram_wall_time_includes_forming_the_gram_matrix(driver, monkeypatch):
    import ttsvd.solver as solver

    round_ = solver.matrix_tt_round

    def slow_round(*args, **kwargs):
        time.sleep(0.3)
        return round_(*args, **kwargs)

    monkeypatch.setattr(solver, "matrix_tt_round", slow_round)
    a, _, _, _ = prescribed_svd_matrix(4, 0.5, k0=6, rank=2, seed=15)
    _, _, _, rep = driver(a, SolverConfig(k=3, epsilon=1e-9, seed=16))
    assert rep.wall_time_s >= 0.3


def test_init_block_tt_is_the_minimal_random_chain():
    # the sweep starts from random_block_tt at requested rank 1; the
    # feasibility floor alone sets the ranks
    u = random_block_tt([2] * 6, 4, 1, 42)
    assert u.ranks == [1, 1, 1, 1, 1, 2, 1]


def test_restart_path_reports_failed_attempts():
    rng = np.random.default_rng(19)
    a = random_matrix_tt(5, 2, rng)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=20, local_max_iter=1,
                       dense_crossover=0, max_restarts=2, max_full_sweeps=2)
    sig, u, v, rep = als_svd(a, cfg)
    assert rep.termination == "restarted"
    assert rep.restarts_used == 2
    assert rep.total_sweeps == 0
    assert rep.residual_history == []
    assert np.array_equal(sig, np.zeros(2))
    # the shrink factor was applied once per restart
    assert rep.delta_final == pytest.approx(
        (1e-9 / np.sqrt(4)) * cfg.restart_delta_shrink**2
    )


def test_sweep_limit_path_returns_best_iterate():
    rng = np.random.default_rng(21)
    a = random_matrix_tt(5, 2, rng)
    cfg = SolverConfig(k=2, epsilon=1e-300, seed=22, max_full_sweeps=2,
                       max_restarts=0)
    sig, u, v, rep = mals_svd(a, cfg)
    assert rep.termination == "sweep-limit"
    assert rep.total_sweeps == 2
    assert rep.sweeps_used >= 1
    assert len(rep.residual_history) == 2
    s_ref = np.linalg.svd(tt_reconstruct(a), compute_uv=False)[:2]
    assert np.max(np.abs(sig - s_ref) / s_ref) < 1e-7


def test_env_consistency_tracking():
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=23)
    cfg = SolverConfig(k=3, epsilon=1e-9, seed=24, track_env_consistency=True)
    _, _, _, rep = mals_svd(a, cfg)
    assert rep.env_consistency_max is not None
    assert rep.env_consistency_max < 1e-8


def test_recorded_local_path_is_the_one_solved():
    # a crossover of 8 puts the windows of every solver on both sides of it:
    # dense windows are solved directly, the others run block Krylov
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=13)
    for driver in ALL_DRIVERS:
        _, _, _, rep = driver(a, SolverConfig(k=3, epsilon=1e-9, seed=14,
                                              dense_crossover=8))
        assert rep.termination == "converged"
        paths = [record["local_path"] for record in rep.micro]
        assert "dense" in paths and set(paths) - {"dense"}, driver
        for record in rep.micro:
            assert ((record["local_iterations"] == 0)
                    == (record["local_path"] == "dense")), (driver, record)


def test_gram_route_rejects_singular_spectra():
    # starve the local solver so every attempt fails and Sigma stays zero:
    # the Gram route cannot recover U from an all-zero spectrum estimate
    rng = np.random.default_rng(25)
    a = random_matrix_tt(5, 2, rng)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=26, local_max_iter=1,
                       dense_crossover=0, max_restarts=1, max_full_sweeps=2)
    with pytest.raises(ValueError, match="singular"):
        als_eig_baseline(a, cfg)


def test_report_is_json_serializable():
    a, _, _, _ = prescribed_svd_matrix(4, 0.5, k0=4, rank=2, seed=27)
    sig, _, _, rep = als_svd(a, SolverConfig(k=2, epsilon=1e-9, seed=28))
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["solver"] == "als_svd"
    assert back["termination"] == "converged"
    assert back["k"] == 2
    assert len(back["micro_iterations"]) == len(rep.micro)
    first = back["micro_iterations"][0]
    assert set(first) == {"position", "direction", "ranks_u", "ranks_v",
                          "sigma", "local_iterations", "local_path"}
    paths = {"dense", "krylov-dense-op", "krylov-matrix-free"}
    for record, sent in zip(rep.micro, back["micro_iterations"]):
        assert sent["local_path"] == record["local_path"] in paths
        assert (sent["local_path"] == "dense") == (sent["local_iterations"] == 0)


def test_max_rank_cap_is_enforced_per_micro_iteration():
    a, _, _, _ = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=29)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=30, max_rank=2,
                       max_full_sweeps=2, max_restarts=0)
    _, u, v, rep = mals_svd(a, cfg)
    assert rep.micro
    for record in rep.micro:
        assert max(record["ranks_u"]) <= 2
        assert max(record["ranks_v"]) <= 2
    assert max(u.ranks) <= 2 and max(v.ranks) <= 2


def test_driver_validation():
    a = identity_matrix_tt(3)
    with pytest.raises(ValueError):
        als_svd(a, SolverConfig(k=9))  # more columns than the matrix has
    one_core = identity_matrix_tt(1)
    with pytest.raises(ValueError):
        mals_svd(one_core, SolverConfig(k=1))
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, restart_delta_shrink=0.0)


def test_runs_are_seed_deterministic():
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=31)
    cfg = SolverConfig(k=3, epsilon=1e-9, seed=32)
    out1 = als_svd(a, cfg)
    out2 = als_svd(a, cfg)
    assert np.array_equal(out1[0], out2[0])
    assert out1[3].residual_history == out2[3].residual_history
    for c1, c2 in zip(out1[1].cores, out2[1].cores):
        assert np.array_equal(c1, c2)


def test_traced_names_are_all_called(monkeypatch):
    # the benchmark's tracer wraps these ttsvd.solver attributes by name; a
    # renamed or bypassed one would silently drop its layer from a trace
    import ttsvd.solver as solver

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    tracing = importlib.import_module("tracing")
    calls = collections.Counter()

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {attr: getattr(solver, attr) for attr in tracing.WRAPPED}
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=13)
    tracer = tracing.Tracer()
    tracer.install(solver)
    try:
        for attr in tracing.WRAPPED:
            setattr(solver, attr, counted(attr, getattr(solver, attr)))
        for driver in ALL_DRIVERS:
            driver(a, SolverConfig(k=3, epsilon=1e-9, seed=14,
                                   dense_crossover=8))
    finally:
        tracer.uninstall()
    assert all(getattr(solver, attr) is fn for attr, fn in originals.items())
    totals = tracer.totals()
    for span in set(tracing.WRAPPED.values()):
        assert totals.get(span, {}).get("calls", 0) > 0, span
    assert [attr for attr in tracing.WRAPPED if not calls[attr]] == []
