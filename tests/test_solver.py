"""Sweep drivers against dense decompositions of small reconstructed matrices."""

import collections
import dataclasses
import importlib
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    MICRO_KEYS,
    check_micro_records,
    identity_tt,
    random_matrix_tt,
    zero_or_overflowing_tt,
)
from ttsvd import (
    MatrixTT,
    SolverConfig,
    als_eig_baseline,
    als_svd,
    block_tt_gram,
    environment_deviation,
    gram_r_factors,
    hilbert_submatrix_tt,
    mals_eig_baseline,
    mals_svd,
    prescribed_svd_matrix,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    random_block_tt,
    residual,
    tt_norm,
    tt_reconstruct,
)
from ttsvd import solver
from ttsvd.experiments import RunConfig, _build_matrix
from ttsvd.generators import _block_rank_profile
from ttsvd.solver import _driver, _gram_residual
from ttsvd.tt import _bond_reversed

ALL_DRIVERS = [als_svd, mals_svd, als_eig_baseline, mals_eig_baseline]


def _force_dense_up_to(monkeypatch, macs):
    """Solve a window dense exactly when its dense decomposition costs <= macs.

    Every other window runs block Krylov to _LOCAL_MAX_ITER steps, with no
    dense fallback: its dense cost reads as infinite.
    """
    estimate = solver.local_solve_macs

    def forced(*args):
        build, decompose, gemm_step, free_step = estimate(*args)
        return (build, 0 if decompose <= macs else math.inf, gemm_step,
                free_step)
    monkeypatch.setattr(solver, "local_solve_macs", forced)


def _dense_reference(a, k):
    ad = tt_reconstruct(a)
    u, s, vt = np.linalg.svd(ad)
    return ad, s[:k]


def test_identity_matrix_spectrum():
    a = identity_tt(4)
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
    assert rep1.residual_history
    for record in rep1.micro:
        assert record["rank_u"] == record["rank_v"] == 1
    for entry in rep1.residual_history:
        assert set(entry["ranks_u"]) == set(entry["ranks_v"]) == {1}

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


def _probe_advance(monkeypatch, pair):
    """Dense (U, V) of every window, in micro-iteration order.

    Wraps ``solver._advance``, which splits each window's local solution
    into its chain.  A one-core window yields the pre-split iterate, the
    local solution written into the block core; a merged window yields the
    post-split iterate.
    """
    advance = solver._advance
    seen = []

    def probed(env, a, chains, locals_, q, *args):
        if not pair:
            trial = [c.copy() for c in chains]
            for chain, local in zip(trial, locals_):
                chain.cores[q] = local.transpose(0, 3, 1, 2)
        splits = advance(env, a, chains, locals_, q, *args)
        if pair:
            trial = chains
        seen.append(tuple(tt_reconstruct(c) for c in trial))
        return splits

    monkeypatch.setattr(solver, "_advance", probed)
    return seen


def test_single_core_callback_is_sigma_consistent(monkeypatch):
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=15)
    ad = tt_reconstruct(a)
    seen = _probe_advance(monkeypatch, pair=False)
    _, _, _, rep = als_svd(a, SolverConfig(k=3, epsilon=1e-9, seed=16))
    assert len(seen) == len(rep.micro) > 0
    for record, (ud, vd) in zip(rep.micro, seen):
        # pre-split iterates carry exactly orthonormal columns
        assert np.linalg.norm(ud.T @ ud - np.eye(3)) < 1e-9
        proj = ud.T @ ad @ vd
        assert np.linalg.norm(proj - np.diag(record["sigma"])) < 1e-8


def test_merged_core_callback_is_sigma_consistent(monkeypatch):
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=17)
    ad = tt_reconstruct(a)
    seen = _probe_advance(monkeypatch, pair=True)
    _, _, _, rep = mals_svd(a, SolverConfig(k=3, epsilon=1e-9, seed=18))
    assert len(seen) == len(rep.micro) > 0
    for record, (ud, vd) in zip(rep.micro, seen):
        proj = ud.T @ ad @ vd
        assert np.linalg.norm(proj - np.diag(record["sigma"])) < 1e-8


@pytest.mark.parametrize("driver", [als_eig_baseline, mals_eig_baseline])
def test_gram_wall_time_includes_forming_the_gram_matrix(driver, monkeypatch):
    round_ = solver.matrix_tt_round

    def slow_round(*args, **kwargs):
        time.sleep(0.3)
        return round_(*args, **kwargs)

    monkeypatch.setattr(solver, "matrix_tt_round", slow_round)
    a, _, _, _ = prescribed_svd_matrix(4, 0.5, k0=6, rank=2, seed=15)
    _, _, _, rep = driver(a, SolverConfig(k=3, epsilon=1e-9, seed=16))
    assert rep.wall_time_s >= 0.3


@pytest.mark.parametrize("n", [6, 8])
def test_gram_operator_is_the_rounded_gram_matrix(n, monkeypatch):
    # the driver reduces A exactly before forming A^T A, so the product sees
    # no bond above its structural bound, and the operator it sweeps over
    # must be A^T A within the rounding bound, at the ranks that rounding
    # the product of the unreduced A gives
    seen, factors = [], []
    init, matmul = solver.env_init, solver.matrix_tt_matmul

    def spy(*args):
        seen.append(args[1])
        return init(*args)

    def spy_matmul(x, y):
        factors.append(y)
        return matmul(x, y)

    monkeypatch.setattr(solver, "env_init", spy)
    monkeypatch.setattr(solver, "matrix_tt_matmul", spy_matmul)
    a, _, _, _ = prescribed_svd_matrix(n, 0.5, k0=16, rank=5, seed=n)
    assert a.ranks[-2] > 4
    eps = 1e-8
    mals_eig_baseline(a, SolverConfig(k=3, epsilon=eps, seed=1,
                                      max_full_sweeps=1, max_restarts=0))
    # the product is taken of the bond-reversed chain, so its ranks read
    # from the last bond to the first
    assert factors[0].ranks[::-1] == [min(r, 4 ** m, 4 ** (n - m))
                                      for m, r in enumerate(a.ranks)]
    op = seen[0]
    delta = eps / solver._GRAM_DELTA_DIVISOR
    ad = tt_reconstruct(a)
    # the driver sweeps over (A / 2^e)^T (A / 2^e), e the binary exponent of
    # ||A||_F
    bd = np.ldexp(ad.T @ ad, -2 * math.frexp(np.linalg.norm(ad))[1])
    err = np.linalg.norm(tt_reconstruct(op) - bd)
    assert err <= delta * np.sqrt(n - 1) * np.linalg.norm(bd)
    unreduced = matrix_tt_round(matrix_tt_matmul(matrix_tt_transpose(a), a),
                                delta)
    assert op.ranks == unreduced.ranks


def test_gram_route_peak_is_the_product_and_its_r_factors():
    # the Gram solve writes each core of B once, so at its peak it holds
    # B's cores, the R factors (of the bond-reversed chain, as the solve
    # computes them) and no more than a few MiB of temporaries
    a = prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=1)[0]
    a0 = _bond_reversed(matrix_tt_round(a, 0.0))
    b_bytes = sum(c.nbytes for c in
                  matrix_tt_matmul(matrix_tt_transpose(a0), a0).cores)
    rs_bytes = sum(r.nbytes for r in gram_r_factors(a0))
    tracemalloc.start()
    try:
        mals_eig_baseline(a, SolverConfig(k=10, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= b_bytes + rs_bytes + 4 * 2**20


def test_init_block_tt_is_the_minimal_random_chain():
    # the sweep starts from random_block_tt at requested rank 1; the
    # feasibility floor alone sets the ranks
    u = random_block_tt([2] * 6, 4, 1, 42)
    assert u.ranks == [1, 1, 1, 1, 1, 2, 1]


def _check_outcome_rule(rep, cfg, n_cores):
    """The report's counters and termination, recomputed from its history."""
    hist = rep.residual_history
    assert rep.total_sweeps == len(hist)
    lowest = min((h["residual"] for h in hist), default=math.inf)
    first = next((h for h in hist if h["residual"] == lowest), None)
    assert rep.sweeps_used == (0 if first is None else first["sweep"] + 1)
    converged = lowest < cfg.epsilon
    if converged:  # the solve stops at the first residual below epsilon
        assert hist[-1] is first
    last_attempt = hist[-1]["attempt"] if converged else cfg.max_restarts
    assert rep.restarts_used == last_attempt
    assert all(h["attempt"] <= last_attempt for h in hist)
    assert rep.termination == ("converged" if converged else "restarted"
                               if rep.restarts_used else "sweep-limit")
    assert rep.delta_final == pytest.approx(
        cfg.epsilon / math.sqrt(n_cores - 1)
        * solver._RESTART_DELTA_SHRINK**last_attempt)
    return rep.termination


def test_restart_path_reports_failed_attempts(monkeypatch):
    # every window runs block Krylov, which fails after one step
    monkeypatch.setattr(solver, "_LOCAL_MAX_ITER", 1)
    _force_dense_up_to(monkeypatch, -1)
    rng = np.random.default_rng(19)
    a = random_matrix_tt(5, 2, rng)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=20, max_restarts=2,
                       max_full_sweeps=2)
    sig, u, v, rep = als_svd(a, cfg)
    assert rep.termination == "restarted"
    assert rep.restarts_used == 2
    assert rep.total_sweeps == 0
    assert _check_outcome_rule(rep, cfg, a.n_cores) == "restarted"
    assert rep.residual_history == []
    assert np.array_equal(sig, np.zeros(2))
    # the shrink factor was applied once per restart
    assert rep.delta_final == pytest.approx(
        (1e-9 / np.sqrt(4)) * solver._RESTART_DELTA_SHRINK**2
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
    assert _check_outcome_rule(rep, cfg, a.n_cores) == "sweep-limit"
    assert len(rep.residual_history) == 2
    s_ref = np.linalg.svd(tt_reconstruct(a), compute_uv=False)[:2]
    assert np.max(np.abs(sig - s_ref) / s_ref) < 1e-7


@pytest.mark.parametrize("driver", ALL_DRIVERS)
@pytest.mark.parametrize("opts, termination", [
    (dict(epsilon=1e-8, seed=3), "converged"),
    (dict(epsilon=1e-300, seed=22, max_full_sweeps=2, max_restarts=0),
     "sweep-limit"),
    (dict(epsilon=1e-300, seed=22, max_full_sweeps=2, max_restarts=2),
     "restarted"),
])
def test_report_counters_follow_the_history(driver, opts, termination):
    a = random_matrix_tt(5, 2, np.random.default_rng(21))
    cfg = SolverConfig(k=2, **opts)
    _, _, _, rep = driver(a, cfg)
    assert _check_outcome_rule(rep, cfg, a.n_cores) == termination


def test_env_consistency_tracking(monkeypatch):
    # after every half sweep the incrementally updated environments match
    # the ones rebuilt from the chains at the block position
    half_sweep = solver._half_sweep
    deviations = []

    def checked(op, chains, env, *args):
        sigma = half_sweep(op, chains, env, *args)
        u, v = chains[0], chains[-1]
        deviations.append(environment_deviation(env, u, op, v,
                                                u.block_position))
        return sigma

    monkeypatch.setattr(solver, "_half_sweep", checked)
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=23)
    _, _, _, rep = mals_svd(a, SolverConfig(k=3, epsilon=1e-9, seed=24))
    assert len(deviations) == 2 * rep.total_sweeps > 0
    assert max(deviations) < 1e-8


def test_recorded_local_path_is_the_one_solved(monkeypatch):
    # a dense cost of at most 64 MACs (4 x 4 for the SVD) puts the windows of
    # every solver on both paths: dense windows are solved directly, the
    # others run block Krylov
    _force_dense_up_to(monkeypatch, 64)
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=13)
    for driver in ALL_DRIVERS:
        _, _, _, rep = driver(a, SolverConfig(k=3, epsilon=1e-9, seed=14))
        assert rep.termination == "converged"
        paths = [record["local_path"] for record in rep.micro]
        assert "dense" in paths and set(paths) - {"dense"}, driver
        for record in rep.micro:
            assert ((record["local_iterations"] == 0)
                    == (record["local_path"] == "dense")), (driver, record)


def test_krylov_past_its_steps_falls_back_to_dense(monkeypatch):
    # every window runs block Krylov on the built matrix with one step; the
    # windows it does not solve in that step are solved dense and recorded
    # as "dense-fallback", with the one step they spent, and the result is
    # the all-dense one
    a, _, _, spectrum = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=2)
    cfg = SolverConfig(k=4, epsilon=1e-9, seed=3)
    _force_dense_up_to(monkeypatch, math.inf)
    sig_dense, _, _, _ = mals_svd(a, cfg)
    monkeypatch.setattr(solver, "local_solve_macs",
                        lambda *args: (0, 2, 1, 1))
    monkeypatch.setattr(solver, "_KRYLOV_STEPS", 1)
    calls = collections.Counter()
    krylov = solver.krylov_block_svd

    def counted(*args, **kwargs):
        calls["krylov"] += 1
        assert kwargs["max_iter"] == 1
        return krylov(*args, **kwargs)
    monkeypatch.setattr(solver, "krylov_block_svd", counted)
    sig, _, _, rep = mals_svd(a, cfg)
    assert rep.termination == "converged"
    assert calls["krylov"] == len(rep.micro)
    paths = collections.Counter(m["local_path"] for m in rep.micro)
    assert set(paths) == {"dense-fallback", "krylov-dense-op"}
    for record in rep.micro:
        assert record["local_iterations"] == 1, record
    assert np.max(np.abs(sig - sig_dense) / sig_dense) <= 1e-10


@pytest.mark.parametrize("driver, n, eps", [
    ("als_svd", 18, 1e-3), ("mals_svd", 18, 1e-3), ("mals_svd", 20, 1e-8)])
def test_cost_test_agrees_with_all_dense_solves(driver, n, eps, monkeypatch):
    # Hilbert at N=18 and the prescribed family at N=20: the windows the
    # cost test sends to block Krylov change no sigma beyond 1e-8 at the
    # prescribed eps.  At eps 1e-3 block Krylov stops at eps / 100 on
    # separated windows, so both paths are only as accurate as that eps
    # (about 5e-7 from an eps 1e-10 solve, which is within 2e-14 of an
    # eps 1e-12 one); the Krylov path may be no further from that
    # reference than 1.5 times the dense path.
    if eps == 1e-3:
        a = hilbert_submatrix_tt(n, 1e-8)
    else:
        a = prescribed_svd_matrix(n, 0.5, k0=25, rank=5, seed=1)[0]
    solve = {"als_svd": als_svd, "mals_svd": mals_svd}[driver]
    cfg = SolverConfig(k=10, epsilon=eps, seed=0)
    sig, _, _, rep = solve(a, cfg)
    assert {m["local_path"] for m in rep.micro} - {"dense"}
    if eps == 1e-3:
        ref, _, _, rep_ref = solve(a, dataclasses.replace(cfg, epsilon=1e-10))
        assert rep_ref.termination == "converged"
    _force_dense_up_to(monkeypatch, math.inf)
    sig_dense, _, _, rep_dense = solve(a, cfg)
    assert {m["local_path"] for m in rep_dense.micro} == {"dense"}
    assert rep.termination == rep_dense.termination == "converged"
    if eps == 1e-3:
        err = np.max(np.abs(sig - ref) / ref)
        err_dense = np.max(np.abs(sig_dense - ref) / ref)
        assert err <= 1.5 * err_dense
    else:
        assert np.max(np.abs(sig - sig_dense) / sig_dense) <= 1e-8


def test_gram_route_judges_a_singular_spectrum():
    # A = e_1 e_1^T has rank 1, so sweeps complete with an exactly zero
    # second singular value: U = A V Sigma^+ keeps a zero second column,
    # and the verdict, not an exception, says the solve did not converge
    core = np.array([[1.0, 0.0], [0.0, 0.0]])[np.newaxis, :, :, np.newaxis]
    a = MatrixTT([core] * 5)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=26, max_restarts=1,
                       max_full_sweeps=2)
    for baseline in (als_eig_baseline, mals_eig_baseline):
        sig, u, _, rep = baseline(a, cfg)
        assert np.max(np.abs(sig - [1.0, 0.0])) <= 1e-12
        assert rep.termination != "converged"
        defect = block_tt_gram(u, u) - np.diag([1.0, 0.0])
        assert np.linalg.norm(defect) <= 1e-12


@pytest.mark.parametrize("which", ["zero", "overflowing"])
@pytest.mark.parametrize("driver", ALL_DRIVERS)
def test_a_zero_or_overflowing_matrix_is_refused_before_the_first_sweep(
        driver, which, monkeypatch):
    # a zero A once raised "residual is undefined for an all-zero spectrum"
    # after its first sweep, and the overflowing one a LinAlgError from the
    # first local SVD (SVD route) or "truncated_svd requires finite
    # entries" (Gram route)
    swept = []
    monkeypatch.setattr(solver, "_half_sweep", lambda *args: swept.append(1))
    with pytest.raises(ValueError,
                       match="Frobenius norm is zero or not finite") as info:
        driver(zero_or_overflowing_tt(which), SolverConfig(k=2))
    assert not isinstance(info.value, np.linalg.LinAlgError)
    assert swept == []


def _same_cores(x, y):
    return all(np.array_equal(c, d) for c, d in zip(x.cores, y.cores))


def test_a_solve_scaled_past_the_float_range_keeps_its_verdict():
    # every core times 2^100: A and Sigma by 2^800, so ||Sigma||_F^2
    # overflows.  Its stop residual once read 0.0, a false "converged", or
    # raised an overflow RuntimeWarning, and the iterate moved by rounding;
    # the sweeps run on A / 2^e, so the solve is the unscaled one, bit for bit
    a = prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=3)[0]
    cfg = SolverConfig(k=4, epsilon=1e-16, seed=1, max_full_sweeps=1,
                       max_restarts=0)
    big = MatrixTT([c * 2.0**100 for c in a.cores])
    for driver in (als_svd, mals_svd):
        sig, u, v, rep = driver(a, cfg)
        big_sig, big_u, big_v, big_rep = driver(big, cfg)
        assert np.array_equal(big_sig, np.ldexp(sig, 800))
        assert _same_cores(big_u, u) and _same_cores(big_v, v)
        assert rep.termination == big_rep.termination == "sweep-limit"
        assert big_rep.residual == rep.residual
        assert 5e-15 <= big_rep.residual <= 1e-14


# (matrix, power of two per core, solvers, SolverConfig arguments).  Before
# the driver swept A / 2^e, every scaled solve but the last raised an
# overflow RuntimeWarning (block Krylov's residual test squares sigma-sized
# values, and the Gram route formed A^T A at A's own scale), and the last
# returned residual 3.852e-15 where the unscaled solve returns 5.410e-15
_ONE_SWEEP = dict(max_full_sweeps=1, max_restarts=0)
_SCALED_SOLVES = {
    "hilbert12-x2^66": (lambda: hilbert_submatrix_tt(12, 1e-8), 66,
                        [mals_svd], dict(k=4, epsilon=1e-12, **_ONE_SWEEP)),
    "prescribed8-x2^100": (
        lambda: prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=3)[0], 100,
        [mals_svd], dict(k=4, epsilon=1e-16, seed=1, **_ONE_SWEEP)),
    "hilbert8-x2^80": (lambda: hilbert_submatrix_tt(8, 1e-8), 80, ALL_DRIVERS,
                       dict(k=2, epsilon=1e-8)),
    "prescribed8-x2^-90": (
        lambda: prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=3)[0], -90,
        [als_svd], dict(k=4, epsilon=1e-10, seed=1)),
}


@pytest.mark.parametrize("case, driver", [
    (case, driver) for case, (_, _, drivers, _) in _SCALED_SOLVES.items()
    for driver in drivers])
def test_a_solve_of_a_power_of_two_times_a_is_the_solve_of_a(case, driver):
    make, power, _, kwargs = _SCALED_SOLVES[case]
    a = make()
    big = MatrixTT([np.ldexp(c, power) for c in a.cores])
    cfg = SolverConfig(**kwargs)
    sig, u, v, rep = driver(a, cfg)
    big_sig, big_u, big_v, big_rep = driver(big, cfg)
    scale = power * a.n_cores
    assert big_rep.termination == rep.termination
    if driver in (als_svd, mals_svd):
        assert np.array_equal(big_sig, np.ldexp(sig, scale))
        assert _same_cores(big_u, u) and _same_cores(big_v, v)
        assert big_rep.residual == rep.residual
        assert ([m["local_path"] for m in big_rep.micro]
                == [m["local_path"] for m in rep.micro])
        assert all(np.array_equal(m["sigma"], np.ldexp(n["sigma"], scale))
                   for m, n in zip(big_rep.micro, rep.micro))
    else:
        # the reduction's LAPACK SVDs rescale out-of-range input, so the
        # Gram route keeps its verdict but not its bits
        assert np.max(np.abs(np.ldexp(big_sig, -scale) - sig) / sig) <= 1e-13


def test_gram_route_ends_as_the_svd_route_when_no_sweep_completed(
        monkeypatch):
    # starve the local solver so every attempt fails and Sigma stays zero
    monkeypatch.setattr(solver, "_LOCAL_MAX_ITER", 1)
    _force_dense_up_to(monkeypatch, -1)
    rng = np.random.default_rng(25)
    a = random_matrix_tt(5, 2, rng)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=26, max_restarts=1,
                       max_full_sweeps=2)
    for driver in (als_svd, als_eig_baseline, mals_eig_baseline):
        sig, u, _, rep = driver(a, cfg)
        assert np.array_equal(sig, np.zeros(2))
        assert rep.residual == math.inf
        assert rep.total_sweeps == 0
        assert rep.termination == "restarted"
        if driver is not als_svd:
            # U = A V Sigma^+ with Sigma^+ = 0
            assert np.array_equal(tt_reconstruct(u), np.zeros((32, 2)))


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
    assert set(first) == MICRO_KEYS
    paths = {"dense", "dense-fallback", "krylov-dense-op",
             "krylov-matrix-free"}
    for record, sent in zip(rep.micro, back["micro_iterations"]):
        assert sent == record
        assert sent["local_path"] in paths
        assert (sent["local_path"] == "dense") == (sent["local_iterations"] == 0)
    assert back["residual_history"] == rep.residual_history
    for entry in back["residual_history"]:
        assert set(entry) == {"attempt", "sweep", "residual", "ranks_u",
                              "ranks_v"}
        assert len(entry["ranks_u"]) == len(entry["ranks_v"]) == a.n_cores + 1


def test_max_rank_cap_is_enforced_per_micro_iteration():
    a, _, _, _ = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=29)
    cfg = SolverConfig(k=2, epsilon=1e-9, seed=30, max_rank=2,
                       max_full_sweeps=2, max_restarts=0)
    _, u, v, rep = mals_svd(a, cfg)
    assert rep.micro and rep.residual_history
    for record in rep.micro:
        assert record["rank_u"] <= 2 and record["rank_v"] <= 2
    for entry in rep.residual_history:
        assert max(entry["ranks_u"]) <= 2 and max(entry["ranks_v"]) <= 2
    assert max(u.ranks) <= 2 and max(v.ranks) <= 2


def test_warmup_half_sweep_keeps_at_most_k_plus_five():
    # from the rank-1 start a merged-pair split of the warm-up (the first
    # N-1 records) could keep 2K per bond, a one-core split K; the bound
    # K + 5 binds only for merged pairs at K > 5
    n = 12
    a, _, _, _ = prescribed_svd_matrix(n, 0.5, k0=25, rank=5, seed=0)

    def warmup_max_rank(driver, k):
        _, _, _, rep = driver(a, SolverConfig(k=k, epsilon=1e-8, seed=0))
        warmup = rep.micro[:n - 1]
        assert {m["direction"] for m in warmup} == {"right_to_left"}
        return max(max(m["rank_u"], m["rank_v"]) for m in warmup)

    assert warmup_max_rank(mals_svd, 10) <= 15  # 20 without the bound
    assert warmup_max_rank(mals_svd, 4) == 8
    assert warmup_max_rank(als_svd, 10) <= 10


def test_later_right_to_left_half_sweeps_keep_twice_the_bond_rank():
    # with K on the left of a bond an exact split needs up to K times its
    # rank r; unbounded, this case's second right-to-left half sweep grew U
    # and V to 50 where the bound is 26, the left-to-right half sweep cut
    # them back to 13, and the attempt restarted.  A bond whose r is the
    # product of the mode sizes left of it is not bounded.
    n = 30
    a, _, _, _ = prescribed_svd_matrix(n, 0.5, k0=25, rank=5, seed=50)
    cfg = SolverConfig(k=10, epsilon=1e-8, seed=50, max_full_sweeps=2)
    _, _, _, rep = als_svd(a, cfg)
    modes = {"u": a.row_sizes, "v": a.col_sizes}
    per_sweep = 2 * (n - 1)
    bounded = 0
    for i, before in enumerate(rep.residual_history[:-1]):
        r2l = rep.micro[(i + 1) * per_sweep:(i + 1) * per_sweep + n - 1]
        assert {m["direction"] for m in r2l} == {"right_to_left"}
        for m in r2l:
            for side in ("u", "v"):
                r = before["ranks_" + side][m["bond"]]
                if r < math.prod(modes[side][:m["bond"]]):
                    bounded += 1
                    bound = max(cfg.k + 5, 2 * r)
                    assert m["rank_" + side] <= bound, (i + 1, m, bound)
    assert bounded > 40
    assert rep.restarts_used == 0 and rep.total_sweeps == 2


def test_records_replay_the_rank_profiles():
    # an attempt starts from _block_rank_profile(modes, K, 1), each micro
    # record sets one bond of each chain, and each history entry holds the
    # profiles its sweep ends with; no residual reaches this epsilon, so both
    # attempts run both sweeps
    a = hilbert_submatrix_tt(6, 1e-10)
    cfg = SolverConfig(k=3, epsilon=1e-20, seed=31, max_full_sweeps=2,
                       max_restarts=1)
    per_sweep = 2 * (a.n_cores - 1)
    for driver in ALL_DRIVERS:
        _, _, _, rep = driver(a, cfg)
        assert rep.restarts_used == 1 and rep.total_sweeps == 4, driver
        assert len(rep.micro) == per_sweep * rep.total_sweeps, driver
        gram = driver in (als_eig_baseline, mals_eig_baseline)
        sides = ("v",) if gram else ("u", "v")
        for i, entry in enumerate(rep.residual_history):
            if entry["sweep"] == 0:
                ranks = {"u": _block_rank_profile(a.row_sizes, cfg.k, 1),
                         "v": _block_rank_profile(a.col_sizes, cfg.k, 1)}
            for record in rep.micro[i * per_sweep:(i + 1) * per_sweep]:
                assert (record["rank_u"] is None) == gram
                for side in sides:
                    ranks[side][record["bond"]] = record["rank_" + side]
            assert entry["ranks_v"] == ranks["v"], driver
            assert entry["ranks_u"] == (None if gram else ranks["u"]), driver


def test_dense_fallback_has_its_own_path():
    # tridiagonal windows whose block Krylov does not converge in
    # _KRYLOV_STEPS steps are solved dense; they read "dense-fallback" with
    # the steps spent, so "dense" always means no Krylov step
    cfg = RunConfig(experiment="tridiagonal", solvers=["als_svd"],
                    n_values=[10], k=4, epsilon=1e-6)
    a, _ = _build_matrix(cfg, 10, None, 0)
    _, _, _, rep = als_svd(a, SolverConfig(k=4, epsilon=1e-6, seed=0))
    fallbacks = [m for m in rep.micro if m["local_path"] == "dense-fallback"]
    assert len(fallbacks) == 7
    assert {m["local_iterations"] for m in fallbacks} == {solver._KRYLOV_STEPS}
    for record in rep.micro:
        assert ((record["local_path"] == "dense")
                == (record["local_iterations"] == 0)), record


def test_only_krylov_windows_read_a_start_block(monkeypatch):
    # the plan reads V's block core as block Krylov's start, so a "dense"
    # window builds no start block; this solve takes three paths
    read, calls = solver._block_as_local, []

    def counted(*args):
        calls.append(None)
        return read(*args)
    monkeypatch.setattr(solver, "_block_as_local", counted)
    _, _, _, rep = mals_svd(hilbert_submatrix_tt(10, 1e-8),
                            SolverConfig(k=10, epsilon=1e-8, seed=0))
    paths = collections.Counter(m["local_path"] for m in rep.micro)
    assert set(paths) == {"dense", "krylov-dense-op", "krylov-matrix-free"}
    assert len(calls) == len(rep.micro) - paths["dense"]


def test_tridiagonal_als_svd_takes_all_four_local_paths():
    # the benchmark's workloads take only "dense" and "krylov-dense-op";
    # this cell (56 dense, 2 krylov-dense-op, 2 krylov-matrix-free and 16
    # dense-fallback windows) keeps the other two paths under test
    cfg = RunConfig(experiment="tridiagonal", solvers=["als_svd"],
                    n_values=[20], k=2, epsilon=1e-6)
    a, truth = _build_matrix(cfg, 20, None, 0)
    sig, _, _, rep = als_svd(a, SolverConfig(k=2, epsilon=1e-6, seed=0))
    assert rep.termination == "converged"
    assert np.max(np.abs(sig - truth)) <= 1e-12 * truth[0]
    assert {m["local_path"] for m in rep.micro} == {
        "dense", "krylov-dense-op", "krylov-matrix-free", "dense-fallback"}


def test_micro_records_do_not_grow_with_n():
    # a record holds the bond its splits set, not the chains' rank profiles
    # (N+1 entries each, over about 2N records a sweep)
    for n in (64, 512):
        cfg = RunConfig(experiment="tridiagonal", solvers=["mals_svd"],
                        n_values=[n], k=2, epsilon=1e-6)
        a, _ = _build_matrix(cfg, n, None, 0)
        _, _, _, rep = mals_svd(a, SolverConfig(k=2, epsilon=1e-6, seed=0))
        assert rep.termination == "converged"
        check_micro_records(rep, 2)


def test_driver_validation():
    a = identity_tt(3)
    with pytest.raises(ValueError):
        als_svd(a, SolverConfig(k=9))  # more columns than the matrix has
    one_core = identity_tt(1)
    with pytest.raises(ValueError):
        mals_svd(one_core, SolverConfig(k=1))
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, epsilon=0.0)
    for bad in (dict(epsilon=float("nan")), dict(epsilon=float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(k=2, **bad)
    for bad in (True, False, "1e-8", None, 1e-8j):
        with pytest.raises(ValueError, match="epsilon must be a number"):
            SolverConfig(k=2, epsilon=bad)
    assert SolverConfig(k=2, epsilon=np.float32(1e-3)).epsilon == np.float32(1e-3)
    for name in ("k", "max_full_sweeps", "max_restarts", "seed", "max_rank"):
        for value in (2.5, 0.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SolverConfig(**{"k": 2, name: value})
    for bad in (dict(max_full_sweeps=0), dict(max_restarts=-1),
                dict(seed=-1), dict(max_rank=0), dict(max_rank=-3)):
        with pytest.raises(ValueError, match="must be at least"):
            SolverConfig(k=2, **bad)
    assert SolverConfig(k=np.int64(2)).k == 2
    assert SolverConfig(k=2, max_rank=np.int64(1), max_restarts=0).max_rank == 1


def test_epsilon_is_kept_as_a_python_float():
    # a float32 epsilon once stayed float32, and under NumPy 2's promotion
    # every working delta of the solve with it: 3.3333337e-05 where the
    # float64 value is 3.333333491658171e-05
    eps = SolverConfig(k=2, epsilon=np.float32(1e-3)).epsilon
    assert type(eps) is float and eps == float(np.float32(1e-3))


@pytest.mark.parametrize("driver, cap, k, runs", [
    (als_svd, 4, 10, False), (als_svd, 5, 10, True),
    (als_eig_baseline, 3, 10, False), (als_eig_baseline, 5, 10, True),
    (mals_svd, 2, 9, False), (mals_svd, 2, 8, True),
    (mals_svd, 3, 13, False), (mals_svd, 3, 12, True),
])
def test_rank_cap_must_leave_room_for_k(driver, cap, k, runs):
    # a window at an end of the chain holds the mode sizes of its one core
    # (two for a merged pair) times one capped bond: 2 x cap or 4 x cap
    # columns here.  A cap too small for K once failed mid-sweep with
    # "cannot take 10 triplets from a 8 x 8 problem".
    a, _, _, _ = prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=0)
    cfg = SolverConfig(k=k, epsilon=1e-6, seed=1, max_rank=cap,
                       max_full_sweeps=2, max_restarts=0)
    if runs:
        _, _, v, rep = driver(a, cfg)
        assert rep.total_sweeps >= 1 and max(v.ranks) <= cap
    else:
        with pytest.raises(ValueError, match=f"max_rank {cap} .* k={k}"):
            driver(a, cfg)


@pytest.mark.parametrize("driver", [als_svd, mals_svd])
def test_solve_gauges_its_operator_once(driver, monkeypatch):
    # the stop residual needs the operator right-orthogonal; a solve gauges
    # it once, so A's last core is factorized once over three sweeps that
    # do not converge, not once per sweep
    a, _, _, _ = prescribed_svd_matrix(6, 0.5, k0=8, rank=2, seed=5)
    last = np.sort(a.cores[-1].ravel())
    qr, factorized = np.linalg.qr, []

    def recording(m, *args, **kwargs):
        m = np.asarray(m)
        factorized.append(m.size == last.size
                          and np.array_equal(np.sort(m.ravel()), last))
        return qr(m, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", recording)
    _, _, _, rep = driver(a, SolverConfig(k=3, epsilon=1e-300, seed=6,
                                          max_full_sweeps=3, max_restarts=0))
    assert len(rep.residual_history) == 3
    assert sum(factorized) == 1


@pytest.mark.parametrize("driver", [als_svd, mals_svd])
def test_one_gauged_operator_reaches_every_layer(driver, monkeypatch):
    # the environments, both half sweeps and the stop residual read the one
    # chain the solve gauges; on the prescribed family the gauge cuts the
    # product form's last two bonds, 49 and 169, to 16 and 4
    a, _, _, _ = prescribed_svd_matrix(10, 0.5, k0=25, rank=5, seed=3)
    seen = collections.defaultdict(list)

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen[name].append(args[1] if name == "env_init" else args[0])
            return fn(*args, **kwargs)
        return wrapper
    for name in ("env_init", "_half_sweep", "residual"):
        monkeypatch.setattr(solver, name,
                            recording(name, getattr(solver, name)))
    driver(a, SolverConfig(k=10, epsilon=1e-8, seed=3))
    assert set(seen) == {"env_init", "_half_sweep", "residual"}
    ops = [op for calls in seen.values() for op in calls]
    assert all(op is ops[0] for op in ops)
    op = ops[0]
    assert op.orth[1:] == ["R"] * (a.n_cores - 1)
    assert a.ranks[-3:-1] == [49, 169]
    assert op.ranks[-3:-1] == [16, 4]


def test_runs_are_seed_deterministic():
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=31)
    cfg = SolverConfig(k=3, epsilon=1e-9, seed=32)
    out1 = als_svd(a, cfg)
    out2 = als_svd(a, cfg)
    assert np.array_equal(out1[0], out2[0])
    assert out1[3].residual_history == out2[3].residual_history
    for c1, c2 in zip(out1[1].cores, out2[1].cores):
        assert np.array_equal(c1, c2)


def test_hilbert_krylov_windows_do_not_stall():
    # Hilbert N=18, seed 2 once took 64 block Krylov steps in one window
    # (87 in all) when the basis lost orthogonality on rank-deficient blocks
    a = hilbert_submatrix_tt(18, 1e-8)
    _, _, _, rep = mals_svd(a, SolverConfig(k=10, epsilon=1e-3, seed=2))
    assert rep.termination == "converged"
    assert max(m["local_iterations"] for m in rep.micro) <= 10


def test_hilbert_mals_svd_converges_at_n100():
    # a 2^100 x 2^99 matrix; Hilbert's inequality bounds its norm by pi
    a = hilbert_submatrix_tt(100, 1e-8)
    sig, u, v, rep = mals_svd(a, SolverConfig(k=4, epsilon=1e-3, seed=0))
    assert rep.termination == "converged"
    assert residual(a, u, v, sig) < 1e-3
    assert 0 < sig[-1] <= sig[0] < math.pi


def test_prescribed_mals_svd_converges_at_n100():
    a, _, _, spectrum = prescribed_svd_matrix(100, 0.5, k0=25, rank=5, seed=0)
    sig, _, _, rep = mals_svd(a, SolverConfig(k=10, epsilon=1e-8, seed=0))
    truth = spectrum[:10]
    assert rep.termination == "converged"
    assert np.linalg.norm(sig - truth) / np.linalg.norm(truth) <= 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 2 and 4: als_svd at K=2 stalls on prescribed matrices "
    "at large N, its residuals plateauing at 0.04-0.65 in every attempt; "
    "the right-to-left bound max(K + 5, 2r) is idle at K=2, where it is at "
    "least the exact K r of a one-core split, while at K >= 3 als_svd no "
    "longer stalls (test_acceptance.py::test_als_svd_later_sweeps_hold_past_n50)"))
def test_als_svd_converges_on_prescribed_n64():
    # measured: 60 sweeps, "restarted", spectrum error 3.2e-2
    a, _, _, spectrum = prescribed_svd_matrix(64, 0.5, k0=25, rank=5, seed=0)
    sig, _, _, rep = als_svd(a, SolverConfig(k=2, epsilon=1e-8, seed=0))
    truth = spectrum[:2]
    assert rep.termination == "converged"
    assert np.linalg.norm(sig - truth) / np.linalg.norm(truth) <= 1e-6


@pytest.mark.parametrize("n", [63, 255])
def test_hilbert_spectra_interlace_from_n_to_n_plus_1(n):
    # the Hilbert block at N is the leading block of the one at N + 1, so
    # sigma_k(N) <= sigma_k(N + 1), and Hilbert's inequality bounds sigma_1
    # by pi; a result that skips a singular value at N + 1 reads below
    # sigma_k(N) by nearly a gap (ROADMAP item 21)
    delta, eps = 1e-8, 1e-6
    cfg = SolverConfig(k=6, epsilon=eps, seed=0)
    mats = [hilbert_submatrix_tt(m, delta) for m in (n, n + 1)]
    outs = [mals_svd(a, cfg) for a in mats]
    assert all(out[3].termination == "converged" for out in outs)
    small, large = (out[0] for out in outs)
    # each sigma_k moves by at most delta ||H||_F in the build (Weyl) and by
    # at most eps ||Sigma||_F at the residual the solve stopped below
    tol = (eps * (np.linalg.norm(small) + np.linalg.norm(large))
           + delta * sum(tt_norm(a) for a in mats))

    def margin(small, large):
        return float(np.min(large[:5] + tol - small[:5]))
    assert margin(small, large) >= 0
    assert large[0] < math.pi
    assert margin(small, np.delete(large, 2)) < 0


def test_no_measurement_is_left_unfilled():
    # a measurement comment written before its numbers were taken keeps
    # placeholder words in the shipped source
    src = Path(__file__).resolve().parents[1] / "src" / "ttsvd"
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for word in ("PASS_OLD", "PASS_NEW", "WINS of"):
            assert word not in text, f"{path.name} holds {word!r}"


def test_tridiagonal_als_svd_n30_converges():
    # once ended "restarted" after 2113 Krylov steps at residual 1.4e-4
    cfg = RunConfig(experiment="tridiagonal", solvers=["als_svd"],
                    n_values=[30], k=4, epsilon=1e-6)
    a, _ = _build_matrix(cfg, 30, None, 0)
    _, _, _, rep = als_svd(a, SolverConfig(k=4, epsilon=1e-6, seed=0))
    assert rep.termination == "converged"
    assert rep.residual_history[-1]["residual"] < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loose_local_stop_keeps_tridiagonal_ranks(seed):
    # the top of a tridiagonal spectrum is clustered, so block Krylov keeps
    # the 1e-10 stop: stopping at eps / 100 regardless raised seed 0 to
    # rank 56 (they are 11, 6 and 6 with the gap gate)
    cfg = RunConfig(experiment="tridiagonal", solvers=["als_svd"],
                    n_values=[20], k=4, epsilon=1e-4)
    a, _ = _build_matrix(cfg, 20, None, 0)
    _, u, v, rep = als_svd(a, SolverConfig(k=4, epsilon=1e-4, seed=seed))
    assert rep.termination == "converged"
    assert rep.total_sweeps <= 2
    assert max(*u.ranks, *v.ranks) <= 12


@pytest.mark.xfail(strict=True, reason=(
    "the stop checks only ||A^T U - V Sigma||; U can keep a component in the "
    "null space of A^T, so Sigma comes out scaled down under 'converged'"))
@pytest.mark.parametrize("n, seed", [(40, 4), (40, 5), (30, 3551041201),
                                     (30, 3829854379)])
def test_converged_als_svd_has_the_dominant_spectrum(n, seed):
    # measured spectrum errors: 7.6e-3, 1.0e-2, 1.0e-3 and 5.7e-6
    a, _, _, spectrum = prescribed_svd_matrix(n, 0.5, k0=25, rank=5, seed=seed)
    sigma, _, _, rep = als_svd(a, SolverConfig(k=10, epsilon=1e-8,
                                               max_full_sweeps=5, seed=seed))
    truth = spectrum[:10]
    assert rep.termination == "converged"
    assert np.linalg.norm(sigma - truth) / np.linalg.norm(truth) <= 1e-6


def test_traced_names_are_all_called(monkeypatch):
    # the benchmark's tracer wraps these ttsvd.solver attributes by name; a
    # renamed or bypassed one would silently drop its layer from a trace
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
        _force_dense_up_to(monkeypatch, 64)
        for driver in ALL_DRIVERS:
            driver(a, SolverConfig(k=3, epsilon=1e-9, seed=14))
    finally:
        tracer.uninstall()
    assert all(getattr(solver, attr) is fn for attr, fn in originals.items())
    totals = tracer.totals()
    for span in set(tracing.WRAPPED.values()):
        assert totals.get(span, {}).get("calls", 0) > 0, span
    assert [attr for attr in tracing.WRAPPED if not calls[attr]] == []


@pytest.mark.parametrize("driver", ALL_DRIVERS)
@pytest.mark.parametrize("family", ["prescribed", "hilbert"])
def test_report_residual_is_the_returned_residual_on_a(driver, family):
    # every solver judges its verdict on A, computed once inside the solve
    if family == "prescribed":
        a = prescribed_svd_matrix(10, 0.5, k0=16, rank=5, seed=1)[0]
        eps = 1e-8
    else:
        a, eps = hilbert_submatrix_tt(12, 1e-8), 1e-3
    sig, u, v, rep = driver(a, SolverConfig(k=10, epsilon=eps, seed=0))
    assert abs(rep.residual - residual(a, u, v, sig)) <= 1e-15
    assert (rep.termination == "converged") == (rep.residual < eps)
    if driver in (als_svd, mals_svd):
        assert rep.residual == min(h["residual"] for h in rep.residual_history)


@pytest.mark.parametrize("driver", [als_eig_baseline, mals_eig_baseline])
def test_gram_solve_stops_on_b_and_is_judged_on_a(driver):
    # B = A^T A's residual falls to about 3e-13 in one sweep, but the
    # recovered triplets leave 0.037 on A, so the solve is not "converged"
    a = hilbert_submatrix_tt(6, 1e-8)
    _, _, _, rep = driver(a, SolverConfig(k=10, epsilon=1e-3, seed=0))
    assert rep.residual_history[-1]["residual"] < 1e-3
    assert rep.residual >= 1e-3
    assert rep.termination == "sweep-limit"


@pytest.mark.parametrize("driver", [als_eig_baseline, mals_eig_baseline])
@pytest.mark.parametrize("seed", range(30))
def test_converged_gram_solve_of_a_rank_one_matrix_has_orthonormal_u(driver,
                                                                    seed):
    # on a rank-1 A the Gram route takes sigma_2 from the eigenvalue noise
    # floor and U = A V Sigma^+ loses its second column in the final
    # rounding: diag(U^T U) = (1, 0) with a residual on A of at most 2.2e-5,
    # which once read "converged"; the verdict now refuses such a U.  Where
    # sigma_2 clips to 0 (als_eig seeds 9 and 15, mals_eig seeds 6, 7, 13,
    # 15, 23, 26 and 27) the solve once raised instead of ending on a verdict
    rng = np.random.default_rng(seed)
    a = MatrixTT([np.outer(rng.standard_normal(2), rng.standard_normal(2))
                  [None, :, :, None] for _ in range(5)])
    _, u, _, rep = driver(a, SolverConfig(k=2, epsilon=1e-3, seed=seed))
    assert (rep.termination != "converged"
            or np.linalg.norm(block_tt_gram(u, u) - np.eye(2)) <= 1e-6)
