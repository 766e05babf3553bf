"""Dense and matrix-free local solvers for the projected subproblems."""

import numpy as np
import pytest

from ttsvd import (BlockTT, Environment, LocalSolverError, MatrixTT,
                   count_macs, local_operator_macs, local_solve_macs, solver)
from ttsvd.solver import (
    _gemm,
    _sign_fix,
    _local_operator,
    _LocalOperator,
    _orthonormalize_block,
    dense_block_eig,
    dense_block_svd,
    krylov_block_eig,
    krylov_block_svd,
    local_block_eig,
    local_block_svd,
)


def _ops(m):
    return (lambda y: m @ y), (lambda x: m.T @ x)


def _op(m, path):
    """A local operator of the built matrix m on the given path; block
    Krylov gets every step from a seeded random start."""
    steps = 0 if path == "dense" else solver._LOCAL_MAX_ITER
    return _LocalOperator(*_ops(m), lambda: m, (m.shape[0],), (m.shape[1],),
                          path, steps)


def test_dense_block_svd_matches_numpy_with_sign_convention():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((9, 6))
    u, s, v = dense_block_svd(m, 4)
    s_ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(s, s_ref[:4], atol=1e-12)
    assert np.allclose(u @ np.diag(s) @ v.T @ v, m @ v, atol=1e-10)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)
    for col in range(4):
        assert u[np.argmax(np.abs(u[:, col])), col] > 0


def _sign_fix_by_column(lead, *others):
    """Column-by-column reference for ``_sign_fix``."""
    for i in range(lead.shape[1]):
        j = int(np.argmax(np.abs(lead[:, i])))
        if lead[j, i] < 0:
            for m in (lead, *others):
                m[:, i] *= -1.0


def test_sign_fix_matches_the_column_loop():
    # bit-identical, ties included: argmax takes the first maximum either way
    rng = np.random.default_rng(3)
    for trial in range(60):
        n, k = rng.integers(1, 12, size=2)
        lead = rng.standard_normal((n, k))
        if trial % 2:
            lead = np.round(lead)  # exact ties in |lead|, and zero columns
        other = rng.standard_normal((n + 2, k))
        want = [lead.copy(), other.copy()]
        _sign_fix_by_column(*want)
        _sign_fix(lead, other)
        assert np.array_equal(lead, want[0]) and np.array_equal(other, want[1])


def test_dense_block_eig_sorts_descending():
    rng = np.random.default_rng(1)
    c = rng.standard_normal((7, 7))
    b = c + c.T
    lam, v = dense_block_eig(b, 3)
    lam_ref = np.sort(np.linalg.eigvalsh(b))[::-1]
    assert np.allclose(lam, lam_ref[:3], atol=1e-12)
    assert np.allclose(b @ v, v * lam[np.newaxis, :], atol=1e-10)
    # asymmetric input is symmetrized, not rejected
    lam2, _ = dense_block_eig(b + 0.0 * c, 3)
    assert np.allclose(lam2, lam, atol=1e-12)


@pytest.mark.parametrize("shape", [(30, 12), (12, 30), (16, 16)])
def test_krylov_svd_matches_dense(shape):
    rng = np.random.default_rng(2)
    m = rng.standard_normal(shape)
    k = 4
    mv, rmv = _ops(m)
    u, s, v, iters = krylov_block_svd(mv, rmv, shape[0], shape[1], k, seed=5)
    u_ref, s_ref, v_ref = dense_block_svd(m, k)
    assert iters >= 1
    assert np.allclose(s, s_ref, atol=1e-8)
    assert np.allclose(np.abs(np.sum(u * u_ref, axis=0)), np.ones(k), atol=1e-6)
    assert np.allclose(np.abs(np.sum(v * v_ref, axis=0)), np.ones(k), atol=1e-6)
    assert np.allclose(m @ v, u * s[np.newaxis, :], atol=1e-7)


def test_krylov_svd_is_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((20, 15))
    mv, rmv = _ops(m)
    out1 = krylov_block_svd(mv, rmv, 20, 15, 3, seed=7)
    out2 = krylov_block_svd(mv, rmv, 20, 15, 3, seed=7)
    for a, b in zip(out1[:3], out2[:3]):
        assert np.array_equal(a, b)


def test_krylov_svd_warm_start_converges():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((25, 10))
    mv, rmv = _ops(m)
    u0, s0, v0 = dense_block_svd(m, 3)
    u, s, v, iters = krylov_block_svd(mv, rmv, 25, 10, 3, seed=0, start=v0)
    s_ref = np.linalg.svd(m, compute_uv=False)[:3]
    assert np.allclose(s, s_ref, atol=1e-9)
    assert iters == 1


def test_krylov_svd_pads_rank_deficient_spectra():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 10))  # rank 2
    mv, rmv = _ops(m)
    u, s, v, _ = krylov_block_svd(mv, rmv, 12, 10, 4, seed=1)
    s_ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(s[:2], s_ref[:2], atol=1e-8)
    assert np.all(s[2:] <= 1e-8)
    assert np.allclose(u.T @ u, np.eye(4), atol=1e-8)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-8)


def test_krylov_eig_matches_dense():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((24, 24))
    b = c @ c.T  # positive semidefinite, like the Gram route uses
    lam, v, _ = krylov_block_eig(lambda y: b @ y, 24, 3, seed=2)
    lam_ref = np.sort(np.linalg.eigvalsh(b))[::-1][:3]
    assert np.allclose(lam, lam_ref, atol=1e-7)
    assert np.allclose(b @ v, v * lam[np.newaxis, :], atol=1e-6)


def test_krylov_eig_extracts_at_every_step():
    # from an invariant start block the first step's Ritz pairs are exact;
    # a solver that waited for a 2K+4 basis took 4 steps here
    b = np.diag(np.arange(40.0, 0.0, -1.0))
    lam, v, iters = krylov_block_eig(lambda y: b @ y, 40, 3,
                                     start=np.eye(40)[:, :3])
    assert iters == 1
    assert np.array_equal(lam, [40.0, 39.0, 38.0])
    assert np.array_equal(np.abs(v), np.eye(40)[:, :3])


def _krylov_steps_at(sigma, k, tol, gram):
    """Steps of the SVD (or Gram) block Krylov solve of a matrix with the
    given singular values, at the loose stop ``tol``, and its top K values."""
    rng = np.random.default_rng(14)
    u, _ = np.linalg.qr(rng.standard_normal((150, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((120, len(sigma))))
    m = (u * sigma) @ v.T
    if gram:
        lam, _, iters = krylov_block_eig(lambda y: m.T @ (m @ y), 120, k,
                                         seed=1, tol=tol)
        return iters, np.sqrt(lam)
    _, s, _, iters = krylov_block_svd(*_ops(m), 150, 120, k, seed=1, tol=tol)
    return iters, s


@pytest.mark.parametrize("gram", [False, True])
def test_krylov_stops_early_only_on_a_separated_spectrum(gram):
    # K=4 kept values 10, 9, 8, 7 over a tail from 3 (gap 0.57 of sigma_K):
    # the stop at eps / 100 = 1e-5 takes fewer steps than at 1e-10, and
    # Sigma stays accurate to far better than eps
    tail = np.linspace(3.0, 0.01, 116)
    sigma = np.concatenate([[10.0, 9.0, 8.0, 7.0], tail])
    tight, _ = _krylov_steps_at(sigma, 4, solver._LOCAL_TOL, gram)
    loose, s_loose = _krylov_steps_at(sigma, 4, 1e-5, gram)
    assert loose < tight
    assert np.max(np.abs(s_loose - sigma[:4]) / sigma[:4]) < 1e-8
    # sigma_5 = 6.99 next to sigma_4 = 7: the kept block is not separated,
    # so the loose stop takes exactly the steps and values of the tight one
    sigma[4] = 6.99
    tight, s_tight = _krylov_steps_at(sigma, 4, solver._LOCAL_TOL, gram)
    loose, s_loose = _krylov_steps_at(sigma, 4, 1e-5, gram)
    assert loose == tight
    assert np.array_equal(s_loose, s_tight)


def test_krylov_reports_nonconvergence():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((60, 50))
    mv, rmv = _ops(m)
    with pytest.raises(LocalSolverError):
        krylov_block_svd(mv, rmv, 60, 50, 4, max_iter=2, seed=0)


def test_block_size_validation():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 4))
    mv, rmv = _ops(m)
    with pytest.raises(ValueError):
        krylov_block_svd(mv, rmv, 6, 4, 5)
    with pytest.raises(ValueError):
        dense_block_svd(m, 5)
    with pytest.raises(ValueError):
        krylov_block_eig(mv, 4, 5)
    with pytest.raises(ValueError):
        dense_block_eig(m.T @ m, 5)
    # a start block of the wrong shape is an error, not a silent random start
    with pytest.raises(ValueError):
        krylov_block_svd(mv, rmv, 6, 4, 2, start=np.ones((10, 2)))
    with pytest.raises(ValueError):
        krylov_block_eig(mv, 4, 2, start=np.ones((4, 3)))


def test_dispatch_crossover_routes_to_dense():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((14, 11))
    s, (u, v), iters = local_block_svd(_op(m, "dense"), 3, 0)
    assert iters == 0  # direct dense solve
    assert u.shape == (14, 3) and v.shape == (11, 3)
    # on a Krylov path block Krylov runs on the operator's maps
    s2, _, iters2 = local_block_svd(_op(m, "krylov-matrix-free"), 3, 3)
    assert iters2 >= 1
    assert np.allclose(s, s2, atol=1e-8)


def test_dispatch_crossover_eig():
    rng = np.random.default_rng(10)
    c = rng.standard_normal((10, 10))
    b = c @ c.T
    sigma, (v,), iters = local_block_eig(_op(b, "dense"), 2, 0)
    assert iters == 0 and v.shape == (10, 2)
    sigma2, _, iters2 = local_block_eig(_op(b, "krylov-dense-op"), 2, 4)
    assert iters2 >= 1
    # the Gram problem's Sigma is the square root of its eigenvalues
    lam = np.linalg.eigvalsh(b)[::-1][:2]
    assert np.allclose(sigma ** 2, lam, atol=1e-10)
    assert np.allclose(sigma2 ** 2, lam, atol=1e-7)


def test_krylov_handles_saturated_subspaces():
    # operator with tiny effective rank: the Krylov space saturates almost
    # immediately and the basis extension must survive on new directions
    # (the Householder QR's columns for a basis of one block, random
    # replacements beyond)
    rng = np.random.default_rng(11)
    m = np.zeros((18, 14))
    m[:, :2] = rng.standard_normal((18, 2))
    mv, rmv = _ops(m)
    u, s, v, _ = krylov_block_svd(mv, rmv, 18, 14, 5, seed=6, max_iter=400)
    s_ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(s[:2], s_ref[:2], atol=1e-8)
    assert np.allclose(u.T @ u, np.eye(5), atol=1e-8)
    # Ritz values must never overshoot the true extremes
    assert s[0] <= s_ref[0] + 1e-8


def test_orthonormalize_nearly_rank_deficient_block():
    # a block mostly inside the basis, with a rank-2 new part and 1e-8 noise:
    # QR alone brings basis components back through R^-1 (about 1e-8 here)
    rng = np.random.default_rng(14)
    basis, _ = np.linalg.qr(rng.standard_normal((400, 30)))
    w = (basis @ rng.standard_normal((30, 8))
         + rng.standard_normal((400, 2)) @ rng.standard_normal((2, 8))
         + 1e-8 * rng.standard_normal((400, 8)))
    q = _orthonormalize_block(w, basis, np.random.default_rng(15))
    assert q.shape == (400, 8)
    assert np.max(np.abs(basis.T @ q)) <= 1e-12
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("b", [0, 6, 7])
def test_orthonormalize_paths_span_the_projected_subspace(b):
    # K = 6: b <= K takes the Householder QR of [basis | w], b = K+1 the
    # projections; on a well-conditioned w both span w with the basis
    # projected out
    rng = np.random.default_rng(b)
    basis, _ = np.linalg.qr(rng.standard_normal((120, b)))
    w = rng.standard_normal((120, 6))
    want, _ = np.linalg.qr(w - basis @ (basis.T @ w))
    q = _orthonormalize_block(w, basis, np.random.default_rng(1))
    assert q.shape == (120, 6)
    assert np.max(np.abs(q @ q.T - want @ want.T)) <= 1e-12


def test_orthonormalize_block_inside_a_one_block_basis():
    # every column of w lies in the basis: the Householder path still
    # returns new orthonormal directions orthogonal to it
    rng = np.random.default_rng(16)
    basis, _ = np.linalg.qr(rng.standard_normal((50, 5)))
    w = basis @ rng.standard_normal((5, 5))
    q = _orthonormalize_block(w, basis, np.random.default_rng(17))
    assert q.shape == (50, 5)
    assert np.max(np.abs(basis.T @ q)) <= 1e-12
    assert np.allclose(q.T @ q, np.eye(5), atol=1e-12)


def test_materialized_krylov_counts_its_gemm_applies():
    # the built matrix stands in for the operator; the GEMM applies still
    # run through the MAC counter
    rng = np.random.default_rng(12)
    m = rng.standard_normal((30, 12))
    p, q, k = 30, 12, 3
    with count_macs() as c:
        u, s, v, iters = krylov_block_svd(_gemm(m, 1), _gemm(m, 0), p, q, k,
                                          seed=3)
    assert iters >= 1
    assert 2 * p * q * iters <= c.macs <= 2 * p * q * k * iters
    assert np.allclose(s, np.linalg.svd(m, compute_uv=False)[:k], atol=1e-8)

    b = m.T @ m
    with count_macs() as c:
        lam, _, iters = krylov_block_eig(_gemm(b, 1), q, k, seed=3)
    assert iters >= 1 and q * q * iters <= c.macs <= q * q * k * iters
    assert np.allclose(lam, np.linalg.eigvalsh(b)[::-1][:k], atol=1e-7)


def _operator_at(rng, left, cores, right, k, gram=False):
    n = 1
    env = Environment(len(cores) + 2)
    env.lefts[n] = rng.standard_normal(left)
    env.rights[n + len(cores) - 1] = rng.standard_normal(right)
    a = MatrixTT([rng.standard_normal((1, 2, 2, cores[0][0]))]
                 + [rng.standard_normal(c) for c in cores]
                 + [rng.standard_normal((cores[-1][3], 2, 2, 1))])
    # V with its block core at n, on the environments' V-side bonds
    lv, rv, modes = left[2], right[2], [c[2] for c in cores]
    v = BlockTT([rng.standard_normal((1, 2, lv)),
                 rng.standard_normal((lv, k, modes[0], rv)),
                 *(rng.standard_normal((rv, m, rv)) for m in modes[1:]),
                 rng.standard_normal((rv, 2, 1))], n)
    return _local_operator(env, a, v, n, len(cores) == 2, k, gram)


def _shape_macs(shape, k):
    left, cores, right = shape
    return local_operator_macs(np.empty(left), [np.empty(c) for c in cores],
                               np.empty(right), k)


def _solve_macs(shape, k, gram=False):
    left, cores, right = shape
    return local_solve_macs(np.empty(left), [np.empty(c) for c in cores],
                            np.empty(right), k, gram)


def test_local_path_follows_the_mac_cost_model():
    rng = np.random.default_rng(13)
    k = 10
    assert solver._KRYLOV_STEPS == 6
    # the merged pair of a typical mals_svd position: building (4.3M MACs)
    # plus 6 GEMM block applies (19.2M) is cheaper than 6 matrix-free block
    # applies (150M), and the 400 x 400 SVD (64M) costs more than the
    # build plus 6 GEMM steps (23.5M)
    shape = ((5, 25, 5), [(25, 2, 2, 25), (25, 2, 2, 25)], (20, 25, 20))
    build, mv, rmv = _shape_macs(shape, k)
    assert (build, mv + rmv) == (4_312_500, 25_000_000)
    assert _solve_macs(shape, k) == (build, 400 ** 3, 3_200_000, mv + rmv)
    op = _operator_at(rng, *shape, k)
    assert op.path == "krylov-dense-op" and op.steps == solver._KRYLOV_STEPS
    # block Krylov starts from V's block core, laid out as the local matrix
    assert op.start.shape == (400, k)
    # its operator is the built matrix, applied by a counted GEMM
    abar = op.build()
    y, x = rng.standard_normal((400, k)), rng.standard_normal((400, k))
    with count_macs() as c:
        ay, atx = op.matvec(y), op.rmatvec(x)
    assert c.macs == 2 * 400 * 400 * k == 3_200_000
    assert np.allclose(ay, abar @ y) and np.allclose(atx, abar.T @ x)
    # a GEMM step grows with K and the dense SVD does not: at K=40 the
    # build plus 6 steps (81.1M) costs more than the SVD
    assert _solve_macs(shape, 30)[2] * 6 + build < 400 ** 3
    assert _operator_at(rng, *shape, 30).path == "krylov-dense-op"
    assert _solve_macs(shape, 40)[2] * 6 + build >= 400 ** 3
    assert _operator_at(rng, *shape, 40).path == "dense"

    # Hilbert-shaped mals_svd windows (A ranks 8): 280 x 280 takes block
    # Krylov on the built matrix (its build of 0.755M MACs plus 6 GEMM
    # steps of 1.568M beat 6 matrix-free steps of 2.195M, and the SVD's
    # 22.0M MACs cost more than either), 40 x 40 stays dense (64K against
    # 6 GEMM steps of 32K plus 45K)
    shape = ((10, 8, 10), [(8, 2, 2, 8), (8, 2, 2, 8)], (7, 8, 7))
    assert _solve_macs(shape, k) == (755_200, 280 ** 3, 1_568_000, 2_195_200)
    assert 755_200 + 6 * 1_568_000 <= 6 * 2_195_200
    assert _operator_at(rng, *shape, k).path == "krylov-dense-op"
    assert _operator_at(rng, *shape, 30).path == "dense"
    shape = ((5, 8, 5), [(8, 2, 2, 8), (8, 2, 2, 8)], (2, 8, 2))
    assert _solve_macs(shape, k)[:3] == (44_800, 40 ** 3, 32_000)
    op = _operator_at(rng, *shape, k)
    # a dense window plans no Krylov step and reads no start block
    assert (op.path, op.steps, op.start) == ("dense", 0, None)

    # A rank 3 (a tridiagonal operator) with U, V ranks 10: building
    # (0.50M) is cheaper than one matrix-free block apply (0.91M), but
    # each GEMM step (3.2M) is not, so the operator stays matrix-free
    shape = ((10, 3, 10), [(3, 2, 2, 3), (3, 2, 2, 3)], (10, 3, 10))
    build, mv, rmv = _shape_macs(shape, k)
    assert build <= mv + rmv < 2 * 400 * 400 * k
    op = _operator_at(rng, *shape, k)
    assert op.path == "krylov-matrix-free"
    y = rng.standard_normal((400, k))
    with count_macs() as c:
        op.matvec(y)
    assert c.macs == mv

    # A rank 1 and wide environments: the dense matrix costs more to build
    # than 6 block applies, so the operator stays matrix-free, and a dense
    # solve (1800^3 MACs) costs more than the longest Krylov solve, so
    # block Krylov gets every step
    shape = ((30, 1, 30), [(1, 2, 2, 1)], (30, 1, 30))
    build, mv, rmv = _shape_macs(shape, 2)
    assert build > mv + rmv and build > mv
    assert 1800 ** 3 > solver._LOCAL_MAX_ITER * (mv + rmv)
    op = _operator_at(rng, *shape, 2)
    assert op.path == "krylov-matrix-free"
    assert op.steps == solver._LOCAL_MAX_ITER
    assert _operator_at(rng, *shape, 2, gram=True).path == "krylov-matrix-free"
