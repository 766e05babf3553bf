"""The left-to-right residual sweep against a right-to-left QR-only sweep.

``block_tt_residual_norm`` cuts wide carries to their numerical rank, which
is safe only in a canonical gauge.  ``_qr_residual_norm`` is the reference:
it reduces every carry by an R-only QR and never cuts, so it is exact in
any gauge.  The tests compare the two on solver outputs, on re-gauged
copies of them and on chains without orthogonality tags, and bound the
size of the matrices the sweep factorizes.
"""

import functools

import numpy as np
import pytest

from ttsvd import (
    BlockTT,
    MatrixTT,
    SolverConfig,
    als_svd,
    block_tt_residual_norm,
    canonicalize,
    gram_tt_round,
    hilbert_submatrix_tt,
    mals_eig_baseline,
    mals_svd,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    prescribed_svd_matrix,
    residual,
)
from ttsvd import tt
from ttsvd.solver import _gram_residual
from ttsvd.tt import _bond_reversed


def _qr_residual_norm(op, x, xs, y, ys):
    """||op X diag(xs) - Y diag(ys)||_F by one right-to-left R-only QR sweep.

    The carry is the R factor of the difference chain's part right of the
    current bond; at core 0 both parts have the boundary rank 1, so their
    sum is the whole difference.
    """
    p = x.block_position
    cx = np.ones((1, 1, 1))  # carry into the op X part: (s, R^X, R^op)
    cy = np.ones((1, 1))  # carry into the Y part: (s, R^Y)
    for m in range(op.n_cores - 1, -1, -1):
        if m == p:
            xc = x.cores[m] * xs[np.newaxis, :, np.newaxis, np.newaxis]
            yc = y.cores[m] * -ys[np.newaxis, :, np.newaxis, np.newaxis]
        else:
            xc, yc = x.cores[m][:, np.newaxis], y.cores[m][:, np.newaxis]
        gx = np.tensordot(cx, xc, axes=(1, 3))  # (s, R^op, R^X, K, J)
        gx = np.tensordot(gx, op.cores[m], axes=((1, 4), (3, 2)))
        gx = gx.transpose(0, 2, 4, 1, 3)  # (s, K, I, R^X, R^op)
        gy = np.tensordot(cy, yc, axes=(1, 3)).transpose(0, 2, 3, 1)
        s, nx = gx.shape[0], gx.shape[3] * gx.shape[4]
        if m == 0:
            return float(np.linalg.norm(gx.reshape(-1) + gy.reshape(-1)))
        stacked = np.concatenate([gx.reshape(s, -1, nx),
                                  gy.reshape(s, -1, gy.shape[3])], axis=2)
        r = np.linalg.qr(stacked.reshape(-1, stacked.shape[2]), mode="r")
        cx = r[:, :nx].reshape(r.shape[0], gx.shape[3], gx.shape[4])
        cy = r[:, nx:]


@functools.lru_cache(maxsize=None)
def _solved(family, n, solver):
    """(A, Sigma, U, V) of one K=10 solve, as the benchmark runs it."""
    if family == "prescribed":
        a = prescribed_svd_matrix(n, 0.5, k0=25, rank=5, seed=n)[0]
        cfg = SolverConfig(k=10, epsilon=1e-8, seed=n, max_full_sweeps=5)
    else:
        a = hilbert_submatrix_tt(n, 1e-8)
        cfg = SolverConfig(k=10, epsilon=1e-3, seed=0)
    sig, u, v, _ = solver(a, cfg)
    return a, sig, u, v


def _both(a, u, v, sig):
    """(new, reference) ||A^T U - V Sigma||_F."""
    at, ones = matrix_tt_transpose(a), np.ones(sig.shape)
    return (block_tt_residual_norm(at, u, ones, v, sig),
            _qr_residual_norm(at, u, ones, v, sig))


@pytest.mark.parametrize("family, n", [
    ("prescribed", 20), ("prescribed", 30), ("prescribed", 40),
    ("hilbert", 16), ("hilbert", 18), ("hilbert", 20),
])
@pytest.mark.parametrize("solver", [als_svd, mals_svd])
def test_residual_matches_the_qr_sweep_on_solver_output(family, n, solver):
    a, sig, u, v = _solved(family, n, solver)
    got, want = _both(a, u, v, sig)
    assert abs(got - want) <= 1e-14 * np.linalg.norm(sig)
    assert residual(a, u, v, sig) == got / np.linalg.norm(sig)


def test_gram_residual_matches_the_qr_sweep():
    a = prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=3)[0]
    cfg = SolverConfig(k=10, epsilon=1e-8, seed=3, max_full_sweeps=3)
    sig, _, v, _ = mals_eig_baseline(a, cfg)
    # the operator the Gram driver sweeps, rounded as it rounds it
    a0 = _bond_reversed(matrix_tt_round(a, 0.0))
    b = _bond_reversed(gram_tt_round(
        matrix_tt_matmul(matrix_tt_transpose(a0), a0), a0, cfg.epsilon / 10))
    signorm = np.linalg.norm(sig)
    want = _qr_residual_norm(b, v, 1.0 / sig, v, sig)
    for op in (b, canonicalize(b, 0)):
        assert abs(_gram_residual(op, v, sig) * signorm - want) <= 1e-14 * signorm


def test_residual_reads_sigma_past_the_float_range():
    """A and Sigma scaled by one power of two leave the value unchanged.

    ||Sigma||_F once came from np.linalg.norm, whose square overflows above
    1.3e154: at 2^600 and 2^1000 the residual read 0.0.
    """
    a = prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=3)[0]
    sig, u, v, _ = als_svd(a, SolverConfig(k=4, epsilon=1e-16, seed=1,
                                           max_full_sweeps=1, max_restarts=0))
    want = residual(a, u, v, sig)
    assert 5e-15 <= want <= 1e-14
    for e in (600, 1000):
        scaled = MatrixTT([a.cores[0] * 2.0**e, *a.cores[1:]])
        assert residual(scaled, u, v, sig * 2.0**e) == want


@pytest.mark.parametrize("family, n, solver", [
    ("prescribed", 30, als_svd), ("prescribed", 40, mals_svd),
    ("hilbert", 18, mals_svd),
])
def test_residual_of_a_gauged_operator(family, n, solver, monkeypatch):
    """A right-gauged, tagged A gives the untagged value and runs no QR."""
    a, sig, u, v = _solved(family, n, solver)
    gauged = canonicalize(a, 0)
    assert gauged.orth[1:] == ["R"] * (a.n_cores - 1)
    want = residual(a, u, v, sig)
    calls = []
    dense_qr = tt.dense_qr
    monkeypatch.setattr(tt, "dense_qr", lambda m: calls.append(m) or dense_qr(m))
    assert abs(residual(gauged, u, v, sig) - want) <= 1e-15
    assert calls == []


def _move_block(chain, q):
    """An equal BlockTT with the block core moved left to core q by exact LQs."""
    cores = list(chain.cores)
    for m in range(chain.block_position, q, -1):
        r, k, i, r2 = cores[m].shape
        # rows (r, K), columns (I, r2): block = l @ w with w's rows orthonormal
        qf, rf = np.linalg.qr(cores[m].reshape(r * k, i * r2).T)
        cores[m] = qf.T.reshape(-1, i, r2)
        l = rf.T.reshape(r, k, -1)
        cores[m - 1] = np.einsum("aib,bkc->akic", cores[m - 1], l)
    return BlockTT(cores, q)


def _regauge(chain, pairs, f):
    """Core i times f and core i+1 over f for each i in ``pairs``; no tags."""
    cores = [c.copy() for c in chain.cores]
    for i in pairs:
        cores[i] = cores[i] * f
        cores[i + 1] = cores[i + 1] / f
    if isinstance(chain, MatrixTT):
        return MatrixTT(cores)
    return BlockTT(cores, chain.block_position)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_residual_is_gauge_invariant(where):
    """Re-scaled neighbouring cores leave the value at the reference.

    A rank cut made without the canonical gauge loses the residual on such
    chains: here it reads about 5e-15 for 7.7e-13 when U's or V's cores are
    re-scaled, a false "converged".
    """
    a, sig, u, v = _solved("prescribed", 20, als_svd)
    q = {"first": 0, "middle": 9, "last": 19}[where]
    u, v = _move_block(u, q), _move_block(v, q)
    at, ones = matrix_tt_transpose(a), np.ones(sig.shape)
    want = _qr_residual_norm(at, u, ones, v, sig)
    tol = 1e-14 * np.linalg.norm(sig)
    pairs = [3, 10, 16]
    for f in (1e4, 1e-4, 1e8, 1e-8):
        for which in ("a", "u", "v", "all"):
            aa = _regauge(at, pairs[:1], f) if which in ("a", "all") else at
            uu = _regauge(u, pairs, f) if which in ("u", "all") else u
            vv = _regauge(v, pairs, f) if which in ("v", "all") else v
            got = block_tt_residual_norm(aa, uu, ones, vv, sig)
            assert abs(got - want) <= tol, (f, which, got, want)


def test_residual_of_untagged_chains():
    """Chains without orthogonality tags are brought to the canonical gauge."""
    a, sig, u, v = _solved("prescribed", 30, als_svd)
    assert u.orth[:-1] == ["L"] * (u.n_cores - 1)
    bare = [BlockTT(c.cores, c.block_position) for c in (u, v)]
    got, want = _both(a, *bare, sig)
    assert abs(got - want) <= 1e-14 * np.linalg.norm(sig)


def test_residual_factorizes_only_small_matrices(monkeypatch):
    """On the prescribed family the carry stays at the numerical rank.

    The left parts of A^T U span only a few directions, so no matrix the
    sweep factorizes has more than 64 rows; a QR-only sweep factorizes
    260 x 130 matrices there.
    """
    a, sig, u, v = _solved("prescribed", 30, als_svd)
    shapes = []
    reduce_carry = tt._reduce_carry

    def recording(stacked):
        shapes.append(stacked.shape)
        return reduce_carry(stacked)
    monkeypatch.setattr(tt, "_reduce_carry", recording)
    residual(a, u, v, sig)
    assert shapes and max(rows for rows, _ in shapes) <= 64


def test_residual_of_zero_and_non_finite_terms():
    a, sig, u, v = _solved("prescribed", 20, als_svd)
    at, ones = matrix_tt_transpose(a), np.ones(sig.shape)
    zero = MatrixTT([0.0 * c for c in at.cores])  # no operator gauge exists
    want = _qr_residual_norm(zero, u, ones, v, sig)
    assert abs(block_tt_residual_norm(zero, u, ones, v, sig) - want) <= 1e-14 * want
    for bad in (np.nan, np.inf):
        for which in ("op", "x", "y", "xs", "ys"):
            args = [at, u, ones, v, sig.copy()]
            if which in ("xs", "ys"):
                w = args[2 if which == "xs" else 4] = ones.copy()
                w[1] = bad
            else:
                i = {"op": 0, "x": 1, "y": 3}[which]
                cores = [c.copy() for c in args[i].cores]
                cores[5].flat[0] = bad
                args[i] = (MatrixTT(cores) if which == "op"
                           else BlockTT(cores, args[i].block_position))
            with pytest.raises(ValueError, match="NaN or inf"):
                block_tt_residual_norm(*args)


def _failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_reduce_carry_keeps_a_carry_whose_svd_fails(monkeypatch):
    """A LAPACK failure keeps the wide carry unreduced, which is exact."""
    stacked = np.random.default_rng(0).standard_normal((3, 7))
    monkeypatch.setattr(np.linalg, "svd", _failing_svd)
    assert tt._reduce_carry(stacked) is stacked


def test_residual_survives_a_failing_carry_svd(monkeypatch):
    """With every carry SVD failing, the residual keeps its value."""
    a, sig, u, v = _solved("prescribed", 20, als_svd)
    at, ones = matrix_tt_transpose(a), np.ones(sig.shape)
    want = block_tt_residual_norm(at, u, ones, v, sig)
    failed = []

    def failing(*args, **kwargs):
        failed.append(True)
        return _failing_svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", failing)
    got = block_tt_residual_norm(at, u, ones, v, sig)
    assert failed
    assert abs(got - want) <= 1e-15 * np.linalg.norm(sig)
