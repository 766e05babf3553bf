"""TT containers and arithmetic against dense oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_local_matrix,
    identity_tt,
    random_block_tt_at,
    random_matrix_tt,
    random_vector_tt_raw,
)
from ttsvd import (
    BlockTT,
    MatrixTT,
    VectorTT,
    block_tt_gram,
    block_tt_matvec,
    block_tt_residual_norm,
    block_tt_scale_columns,
    canonicalize,
    diag_embed,
    gram_r_factors,
    gram_tt_round,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    merge_cores,
    split_block_core,
    tt_add,
    tt_norm,
    tt_reconstruct,
    tt_round,
    tt_scale,
    tt_svd_compress,
    tt_to_vector,
    truncated_svd,
)
from ttsvd.generators import prescribed_svd_matrix, random_vector_tt
from ttsvd.tt import _bond_reversed, _fuse, _right_r_factors


# ---------------------------------------------------------------------------
# container validation


def test_vector_tt_validation():
    with pytest.raises(ValueError):
        VectorTT([])
    with pytest.raises(ValueError):
        VectorTT([np.zeros((1, 2, 2)), np.zeros((2, 2, 2))])  # boundary rank
    with pytest.raises(ValueError):
        VectorTT([np.zeros((1, 2, 3)), np.zeros((2, 2, 1))])  # bond mismatch
    with pytest.raises(ValueError):
        VectorTT([np.zeros((1, 2, 2, 1))])  # wrong order


def test_matrix_tt_validation():
    with pytest.raises(ValueError):
        MatrixTT([np.zeros((1, 2, 2))])
    a = identity_tt(3)
    assert a.row_sizes == [2, 2, 2]
    assert a.col_sizes == [2, 2, 2]
    assert a.n_rows == 8 and a.n_cols == 8


def test_block_tt_validation():
    cores = [np.zeros((1, 2, 2)), np.zeros((2, 3, 2, 1))]
    u = BlockTT(cores, 1)
    assert u.k == 3 and u.mode_sizes == [2, 2]
    with pytest.raises(ValueError):
        BlockTT(cores, 2)  # position out of range
    with pytest.raises(ValueError):
        BlockTT(cores, 0)  # fourth-order core not at the block position


# ---------------------------------------------------------------------------
# compression, rounding, entries


def test_compress_exact_at_zero_delta():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((2, 2, 2, 2, 2))
    x = tt_svd_compress(t, 0.0)
    assert np.allclose(tt_reconstruct(x), t, atol=1e-13)
    assert x.orth[:-1] == ["L"] * 4


def test_tt_to_vector_is_column_major():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((2, 2, 3))
    x = tt_svd_compress(t, 0.0)
    assert np.allclose(tt_to_vector(x), t.ravel(order="F"), atol=1e-13)


def test_compress_error_bound_across_deltas():
    rng = np.random.default_rng(3)
    for delta in (1e-2, 1e-4, 1e-8):
        for _ in range(5):
            n = int(rng.integers(3, 7))
            t = rng.standard_normal((2,) * n)
            x = tt_svd_compress(t, delta)
            err = np.linalg.norm(tt_reconstruct(x) - t)
            assert err <= delta * np.sqrt(n - 1) * np.linalg.norm(t) + 1e-14


def test_round_bound_and_rank_monotonicity():
    rng = np.random.default_rng(5)
    for delta in (1e-2, 1e-4, 1e-8):
        for _ in range(5):
            n = int(rng.integers(3, 7))
            x = random_vector_tt_raw(n, 4, rng)
            y = tt_round(x, delta)
            nrm = np.linalg.norm(tt_reconstruct(x))
            err = np.linalg.norm(tt_reconstruct(y) - tt_reconstruct(x))
            assert err <= delta * np.sqrt(n - 1) * nrm + 1e-12
            assert all(ry <= rx for rx, ry in zip(x.ranks, y.ranks))
    with pytest.raises(ValueError):
        tt_round(random_vector_tt_raw(3, 2, rng), -1.0)


def test_round_recompresses_artificial_rank():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((2, 2, 2, 2))
    x = tt_svd_compress(t, 0.0)
    z = tt_add(x, x)
    assert any(rz > rx for rz, rx in zip(z.ranks, x.ranks))
    y = tt_round(z, 1e-12)
    assert y.ranks == x.ranks
    assert np.allclose(tt_reconstruct(y), 2 * t, atol=1e-11)


def test_round_at_zero_reaches_the_structural_ranks():
    # the prescribed family's last bond is r_U r_V (64 here), while a 2x2
    # last core can carry at most 4; rounding at 0 applies orthogonal
    # transforms only and brings every bond to min(rank, 4^n, 4^(N-n))
    a, _, _, _ = prescribed_svd_matrix(5, 0.5, k0=16, rank=5, seed=7)
    assert a.ranks[-2] > 4
    b = tt_round(a, 0.0)
    assert b.ranks == [min(r, 4 ** n, 4 ** (5 - n))
                       for n, r in enumerate(a.ranks)]
    ad = tt_reconstruct(a)
    assert np.linalg.norm(tt_reconstruct(b) - ad) <= 1e-13 * np.linalg.norm(ad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, delta", [(1e-200, 0.0), (1e300, 1e-3)])
def test_round_keeps_the_ranks_of_a_far_scaled_chain(scale, delta):
    # squared singular values near 1e-200 underflowed, so every rank fell
    # to 1; near 1e300 squaring the threshold raised OverflowError
    x = random_vector_tt(6, 3, 0)
    assert x.ranks == [1, 2, 3, 3, 3, 2, 1]
    assert tt_round(tt_scale(x, scale), delta).ranks == x.ranks
    assert tt_round(x, delta).ranks == x.ranks


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_round_and_norm_reject_non_finite_cores(bad, where):
    rng = np.random.default_rng(41)
    for x in (random_vector_tt_raw(5, 3, rng), random_matrix_tt(5, 2, rng),
              random_block_tt_at([2] * 5, 3, 2, 2, rng)):
        x.cores[where].flat[1] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            tt_round(x, 1e-8)
        with pytest.raises(ValueError, match="NaN or inf"):
            tt_norm(x)


# ---------------------------------------------------------------------------
# rounding of a Gram product


def _gram_pair(n, rows, cols, rng):
    # A with (rows, cols) modes and random ranks up to 4, one interior bond
    # of rank 1, and B = A^T A as the Gram baselines form it
    ranks = [1] + [int(rng.integers(1, 5)) for _ in range(n - 1)] + [1]
    ranks[n // 2] = 1
    a = MatrixTT([rng.standard_normal((ranks[m], rows, cols, ranks[m + 1]))
                  for m in range(n)])
    return a, matrix_tt_matmul(matrix_tt_transpose(a), a)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3), (1, 2), (2, 1)])
def test_gram_round_matches_round_of_the_product(n, rows, cols):
    rng = np.random.default_rng([n, rows, cols])
    a, b = _gram_pair(n, rows, cols, rng)
    bd = tt_reconstruct(b)
    nb = np.linalg.norm(bd)
    # the parity-split R factors differ from the plain ones by an orthogonal
    # transform on the left: the same Gram matrix of every right part
    rs = gram_r_factors(a)
    for x, y in zip(rs, _right_r_factors(_fuse(b).cores)):
        assert np.linalg.norm(x.T @ x - y.T @ y) <= 1e-12 * np.linalg.norm(y.T @ y)
    for delta in (0.0, 1e-9, 1e-2, 0.2):
        g, ref = gram_tt_round(b, a, delta), tt_round(b, delta)
        assert isinstance(g, MatrixTT) and g.ranks == ref.ranks
        err = np.linalg.norm(tt_reconstruct(g) - bd)
        assert err <= delta * np.sqrt(n - 1) * nb + 1e-13 * nb
        assert g.orth == ["L"] * (n - 1) + [None]
        for c in g.cores[:-1]:
            q = c.reshape(-1, c.shape[-1], order="F")
            assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)


def test_gram_round_of_zero_and_non_finite_chains():
    rng = np.random.default_rng(43)
    a, _ = _gram_pair(4, 3, 2, rng)
    zero = MatrixTT([np.zeros_like(c) for c in a.cores])
    g = gram_tt_round(matrix_tt_matmul(matrix_tt_transpose(zero), zero),
                      zero, 1e-9)
    assert g.ranks == [1] * 5 and not np.any(tt_reconstruct(g))
    # finite cores whose Gram norm overflows must not round at an inf
    # threshold
    huge = MatrixTT([c * 1e110 for c in a.cores])
    # the reversed prescribed chain has wide parity inputs, which are kept
    # as they are once they hold inf, so the overflow still reaches the norm
    p = matrix_tt_round(prescribed_svd_matrix(8, 0.5, k0=16, rank=5,
                                              seed=1)[0], 0.0)
    wide_huge = _bond_reversed(MatrixTT([c * 1e110 for c in p.cores]))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (huge, wide_huge):
            with pytest.raises(ValueError, match="overflows"):
                gram_r_factors(x)
    a.cores[2].flat[1] = np.nan
    with pytest.raises(ValueError, match="NaN or inf"):
        gram_r_factors(a)
    # b must carry the squares of a's bonds and a's column modes
    with pytest.raises(ValueError, match="a\\^T a"):
        gram_tt_round(zero, zero, 1e-9)
    b = matrix_tt_matmul(matrix_tt_transpose(zero), zero)
    with pytest.raises(ValueError, match="a\\^T a"):
        gram_tt_round(b, tt_add(zero, zero), 1e-9)  # twice a's bonds
    with pytest.raises(ValueError, match="a\\^T a"):
        gram_tt_round(b, matrix_tt_transpose(zero), 1e-9)  # 3 x 2 modes
    wide = MatrixTT([c[:, :1] for c in b.cores])  # b's bonds, 1 x 2 modes
    with pytest.raises(ValueError, match="a\\^T a"):
        gram_tt_round(wide, zero, 1e-9)


def test_bond_reversal_is_a_symmetric_permutation():
    # reversing the cores reverses the mode order of rows and columns alike,
    # swaps the tags, and undoes itself
    rng = np.random.default_rng(5)
    a, _ = _gram_pair(4, 3, 2, rng)
    a = matrix_tt_round(a, 0.0)
    r = _bond_reversed(a)
    assert r.ranks == a.ranks[::-1] and r.orth == [None] + ["R"] * 3
    rows = np.arange(3 ** 4).reshape([3] * 4, order="F").transpose(3, 2, 1, 0)
    cols = np.arange(2 ** 4).reshape([2] * 4, order="F").transpose(3, 2, 1, 0)
    ad = tt_reconstruct(a)
    assert np.allclose(tt_reconstruct(r), ad[np.ix_(rows.ravel(order="F"),
                                                    cols.ravel(order="F"))])
    back = _bond_reversed(r)
    assert back.orth == a.orth
    assert all(np.array_equal(x, y) for x, y in zip(back.cores, a.cores))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gram_factors_from_the_left_are_thin(seed):
    # a prescribed A = U diag(sigma) V^T has left-orthogonal factor chains:
    # B = A^T A's left parts have rank at most r_V^2 = 25, its right parts
    # r_U^2 r_V^2 = 625.  Wide parity inputs are cut to their numerical
    # rank, so the factors of the bond-reversed chain stay thin
    a = matrix_tt_round(prescribed_svd_matrix(10, 0.5, k0=16, rank=5,
                                              seed=seed)[0], 0.0)
    assert max(r.shape[0] for r in gram_r_factors(_bond_reversed(a))) <= 25
    assert max(r.shape[0] for r in gram_r_factors(a)) == 625


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gram_round_at_zero_may_keep_fewer_ranks(seed):
    # the numerical-rank cut drops directions tt_round keeps at delta = 0
    # (25 against 64 at the middle bond here), at an error of the same size
    a = matrix_tt_round(prescribed_svd_matrix(6, 0.5, k0=16, rank=5,
                                              seed=seed)[0], 0.0)
    x = _bond_reversed(a)
    b = matrix_tt_matmul(matrix_tt_transpose(x), x)
    g, ref = gram_tt_round(b, x, 0.0), tt_round(b, 0.0)
    assert all(p <= q for p, q in zip(g.ranks, ref.ranks))
    assert g.ranks != ref.ranks
    bd = tt_reconstruct(b)
    assert np.linalg.norm(tt_reconstruct(g) - bd) <= 1e-13 * np.linalg.norm(bd)


def test_gram_round_peak_memory_is_within_one_core_of_tt_round():
    # the parity split must build its QR inputs without holding the
    # contraction temporaries at once: on the Gram baselines' N=8 product
    # its peak may exceed tt_round's by at most one core of B
    a = matrix_tt_round(prescribed_svd_matrix(8, 0.5, k0=16, rank=5, seed=1)[0], 0.0)
    b = matrix_tt_matmul(matrix_tt_transpose(a), a)
    peaks = []
    for run in (lambda: tt_round(b, 1e-9),
                lambda: gram_tt_round(b, a, 1e-9)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + max(c.nbytes for c in b.cores)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -0.1])
def test_truncations_reject_bad_delta(delta):
    # a NaN or infinite delta must not read as "no truncation"
    rng = np.random.default_rng(42)
    for x in (random_vector_tt_raw(5, 3, rng), random_matrix_tt(5, 2, rng),
              random_block_tt_at([2] * 5, 3, 2, 2, rng)):
        with pytest.raises(ValueError, match="delta"):
            tt_round(x, delta)
    with pytest.raises(ValueError, match="delta"):
        tt_svd_compress(rng.standard_normal((2, 3, 4)), delta)
    with pytest.raises(ValueError, match="delta"):
        truncated_svd(rng.standard_normal((4, 3)), delta)
    for direction in ("right_to_left", "left_to_right"):
        with pytest.raises(ValueError, match="delta"):
            split_block_core(_local4(rng), direction, delta)


# ---------------------------------------------------------------------------
# vector arithmetic


def test_vector_arithmetic_matches_dense():
    rng = np.random.default_rng(7)
    x = random_vector_tt_raw(4, 3, rng)
    y = random_vector_tt_raw(4, 2, rng)
    xd = tt_reconstruct(x)
    yd = tt_reconstruct(y)
    assert np.allclose(tt_reconstruct(tt_add(x, y)), xd + yd, atol=1e-12)
    assert np.allclose(tt_reconstruct(tt_scale(x, -2.5)), -2.5 * xd, atol=1e-12)
    assert abs(tt_norm(x) - np.linalg.norm(xd)) < 1e-11
    with pytest.raises(ValueError):
        tt_add(x, random_vector_tt_raw(3, 2, rng))


def test_tt_norm_resolves_tiny_differences():
    # exact cancellation must come out near machine epsilon relative to the
    # operand scale, not near its square root
    rng = np.random.default_rng(8)
    x = random_vector_tt_raw(10, 3, rng)
    d = tt_add(x, tt_scale(x, -1.0))
    assert tt_norm(d) <= 1e-12 * tt_norm(x)


# ---------------------------------------------------------------------------
# orthogonalization


def _assert_canonical(y, p):
    """Cores before p left-orthogonal, after p right-orthogonal, as tagged."""
    assert y.orth[:p] == ["L"] * p
    assert y.orth[p + 1:] == ["R"] * (y.n_cores - p - 1)
    for m, c in enumerate(y.cores):
        if m != p:
            mat = (c.reshape(-1, c.shape[-1], order="F") if m < p
                   else c.reshape(c.shape[0], -1, order="F").T)
            assert np.allclose(mat.T @ mat, np.eye(mat.shape[1]), atol=1e-12)


def test_canonicalize():
    rng = np.random.default_rng(10)
    x = random_vector_tt_raw(5, 3, rng)
    xd = tt_reconstruct(x)
    for p in range(5):
        y = canonicalize(x, p)
        assert x.orth == [None] * 5  # input untouched
        _assert_canonical(y, p)
        assert np.allclose(tt_reconstruct(y), xd, atol=1e-11)
        # a chain already canonical at p comes back with the same cores
        z = canonicalize(y, p)
        assert all(cz is cy for cz, cy in zip(z.cores, y.cores))
    a = random_matrix_tt(4, 3, rng)
    for p in (0, 2):
        b = canonicalize(a, p)
        _assert_canonical(b, p)
        assert np.allclose(tt_reconstruct(b), tt_reconstruct(a), atol=1e-11)
    with pytest.raises(ValueError, match="NaN or inf"):
        canonicalize(MatrixTT([c * np.nan for c in a.cores]), 0)


def test_norm_migrates_to_boundary_core():
    # the R factors of the norm and rounding sweep: rs[n]^T rs[n] is the
    # Gram matrix of the unfolding of cores n..N-1 with bond n-1 as rows, so
    # the norm of the whole chain ends up in the 1 x 1 factor rs[0]
    rng = np.random.default_rng(12)
    x = random_vector_tt_raw(5, 3, rng)
    rs = _right_r_factors(x.cores)
    assert abs(abs(rs[0][0, 0]) - np.linalg.norm(tt_reconstruct(x))) < 1e-11
    for n in range(1, 5):
        w = x.cores[n]
        for c in x.cores[n + 1:]:
            w = np.tensordot(w, c, axes=(-1, 0))
        w = w.reshape(w.shape[0], -1)
        assert np.allclose(rs[n].T @ rs[n], w @ w.T, atol=1e-10)
        assert np.allclose(np.tril(rs[n], -1), 0.0)


def test_orthogonalization_respects_block_core():
    rng = np.random.default_rng(13)
    u = random_block_tt_at([2, 2, 2, 2], 3, 2, 2, rng)
    for p in (1, 3):
        with pytest.raises(ValueError):
            canonicalize(u, p)  # would QR the block core
    z = canonicalize(u, 2)
    _assert_canonical(z, 2)
    assert np.allclose(tt_reconstruct(z), tt_reconstruct(u), atol=1e-11)


def test_matrix_tags_survive_transpose_and_rounding():
    rng = np.random.default_rng(14)
    a = random_matrix_tt(5, 3, rng)
    r = tt_round(a, 0.0)
    assert isinstance(r, MatrixTT) and r.orth == ["L"] * 4 + [None]
    for b in (r, canonicalize(a, 0)):
        t = matrix_tt_transpose(b)
        assert t.orth == b.orth
        _assert_canonical(t, b.orth.index(None))


# ---------------------------------------------------------------------------
# matrix chains


def test_identity_and_diag_embed():
    assert np.allclose(tt_reconstruct(identity_tt(3)), np.eye(8))
    rng = np.random.default_rng(14)
    x = random_vector_tt_raw(3, 2, rng)
    d = diag_embed(x)
    assert np.allclose(
        tt_reconstruct(d), np.diag(tt_to_vector(x)), atol=1e-12
    )


def test_matrix_ops_match_dense():
    rng = np.random.default_rng(15)
    a = random_matrix_tt(4, 2, rng)
    b = random_matrix_tt(4, 2, rng)
    u = random_block_tt_at([2] * 4, 3, 2, 1, rng)
    ad = tt_reconstruct(a)
    bd = tt_reconstruct(b)
    ud = np.column_stack([tt_to_vector(_block_column(u, j)) for j in range(3)])
    assert np.allclose(tt_reconstruct(block_tt_matvec(a, u)), ad @ ud,
                       atol=1e-10)
    assert np.allclose(
        tt_reconstruct(matrix_tt_matmul(a, b)), ad @ bd, atol=1e-10
    )
    assert np.allclose(tt_reconstruct(tt_add(a, b)), ad + bd, atol=1e-11)
    assert np.allclose(tt_reconstruct(matrix_tt_transpose(a)), ad.T, atol=1e-12)
    assert abs(tt_norm(a) - np.linalg.norm(ad)) < 1e-9
    with pytest.raises(ValueError):
        block_tt_matvec(a, random_block_tt_at([2] * 3, 3, 2, 1, rng))


def _einsum_matmul_cores(a, b):
    # the product's cores by one einsum and a column-major reshape
    out = []
    for ca, cb in zip(a.cores, b.cores):
        g = np.einsum("aijb,cjmd->acimbd", ca, cb, optimize=True)
        out.append(g.reshape((ca.shape[0] * cb.shape[0], ca.shape[1],
                              cb.shape[2], ca.shape[3] * cb.shape[3]),
                             order="F"))
    return out


@pytest.mark.parametrize("modes", [(1, 2, 3), (3, 1, 2), (2, 3, 1), (2, 2, 2)])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_matmul_cores_are_the_contraction_in_place(modes, rank):
    # each core is the contraction over the shared mode, written straight
    # into the column-major layout, so the fused view shares its memory
    rng = np.random.default_rng([rank, *modes])
    i, j, m = modes
    ra = [1, rank, max(rank - 1, 1), 1]
    rb = [1, max(rank - 2, 1), rank, 1]
    a = MatrixTT([rng.standard_normal((ra[n], i, j, ra[n + 1])) for n in range(3)])
    b = MatrixTT([rng.standard_normal((rb[n], j, m, rb[n + 1])) for n in range(3)])
    c = matrix_tt_matmul(a, b)
    for got, want in zip(c.cores, _einsum_matmul_cores(a, b)):
        assert got.shape == want.shape and got.flags.f_contiguous
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    for core, fused in zip(c.cores, _fuse(c).cores):
        assert np.shares_memory(core, fused)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_gram_product_cores_are_bit_identical_to_the_contraction(n):
    a = prescribed_svd_matrix(n, 0.5, k0=16, rank=5, seed=1)[0]
    at = matrix_tt_transpose(a)
    got = matrix_tt_matmul(at, a).cores
    assert all(np.array_equal(x, y)
               for x, y in zip(got, _einsum_matmul_cores(at, a)))


def test_matrix_round_bound():
    rng = np.random.default_rng(16)
    a = random_matrix_tt(5, 3, rng)
    ad = tt_reconstruct(a)
    for delta in (1e-2, 1e-6):
        b = matrix_tt_round(a, delta)
        err = np.linalg.norm(tt_reconstruct(b) - ad)
        assert err <= delta * np.sqrt(4) * np.linalg.norm(ad) + 1e-12
        assert all(rb <= ra for ra, rb in zip(a.ranks, b.ranks))


def _matrix_tt_of_shape(rows, cols, rng):
    # three cores with (row, col) modes (rows, cols) and interior ranks 3
    ranks = [1, 3, 3, 1]
    return MatrixTT([rng.standard_normal((ranks[m], rows, cols, ranks[m + 1]))
                     for m in range(3)])


def test_fused_ops_keep_the_unfused_middle_modes():
    # (2, 3) and (3, 2) cores fuse to the same size 6; the fused operations
    # must still tell them apart and restore each layout
    rng = np.random.default_rng(40)
    a = _matrix_tt_of_shape(2, 3, rng)
    b = _matrix_tt_of_shape(3, 2, rng)
    with pytest.raises(ValueError, match="shape mismatch"):
        tt_add(a, b)
    with pytest.raises(ValueError, match="shape mismatch"):
        tt_add(a, random_vector_tt_raw(3, 3, rng, mode=6))
    u = random_block_tt_at([2, 2, 2], 3, 2, 0, rng)
    with pytest.raises(ValueError, match="shape mismatch"):
        tt_add(u, random_block_tt_at([2, 2, 2], 3, 2, 1, rng))
    for m in (a, b):
        md = tt_reconstruct(m)
        for y in (tt_round(m, 1e-2), tt_round(tt_add(m, m), 0.0)):
            assert isinstance(y, MatrixTT)
            assert [c.shape[1:3] for c in y.cores] == [c.shape[1:3]
                                                      for c in m.cores]
        err = np.linalg.norm(tt_reconstruct(tt_round(m, 1e-2)) - md)
        assert err <= 1e-2 * np.sqrt(2) * np.linalg.norm(md) + 1e-12
        assert abs(tt_norm(m) - np.linalg.norm(md)) < 1e-10
        assert np.allclose(tt_reconstruct(tt_round(tt_add(m, m), 1e-12)),
                           2 * md, atol=1e-10)
    w = random_block_tt_at([2, 2, 2], 3, 3, 0, rng)
    s = tt_add(u, w)
    assert s.block_position == 0 and s.k == 3
    assert np.allclose(tt_reconstruct(s), tt_reconstruct(u) + tt_reconstruct(w),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# block chains


def test_block_reconstruct_column_oracle():
    rng = np.random.default_rng(17)
    for pos in (0, 2, 3):
        u = random_block_tt_at([2, 2, 2, 2], 3, 2, pos, rng)
        ud = tt_reconstruct(u)
        assert ud.shape == (16, 3)
        for k in range(3):
            cores = [c.copy() for c in u.cores]
            cores[pos] = cores[pos][:, k, :, :]
            col = tt_to_vector(VectorTT(cores))
            assert np.allclose(ud[:, k], col, atol=1e-12)


def _block_column(u, j):
    """Column j of a BlockTT as a VectorTT: its block core sliced at j."""
    cores = list(u.cores)
    cores[u.block_position] = cores[u.block_position][:, j]
    return VectorTT(cores)


@pytest.mark.parametrize("rows", [2, 3], ids=["square", "rows3"])
@pytest.mark.parametrize("k", [1, 3], ids=["k1", "k3"])
@pytest.mark.parametrize("pos", [0, 1, 3], ids=["first", "middle", "last"])
def test_block_ops_match_dense(pos, k, rows):
    # each column is reconstructed as a VectorTT, so the dense oracle of a
    # BlockTT does not go through the block reconstruction under test
    rng = np.random.default_rng(18 + 10 * pos + k + 100 * rows)
    a = _rect_matrix_tt(4, 2, rows, 2, rng)  # (rows^4) x 2^4
    u = random_block_tt_at([2] * 4, k, 2, pos, rng)
    w = random_block_tt_at([2] * 4, k, 3, pos, rng)
    ad = tt_reconstruct(a)
    ud, wd = (np.column_stack([tt_to_vector(_block_column(x, j))
                               for j in range(k)]) for x in (u, w))
    assert np.allclose(tt_reconstruct(u), ud, atol=1e-12)
    au = block_tt_matvec(a, u)
    assert au.block_position == pos and au.ranks == [
        ra * rb for ra, rb in zip(a.ranks, u.ranks)]
    assert np.allclose(tt_reconstruct(au), ad @ ud, atol=1e-10)
    for j in range(k):
        assert np.allclose(tt_to_vector(_block_column(au, j)),
                           ad @ ud[:, j], atol=1e-10)
    assert np.allclose(block_tt_gram(u, w), ud.T @ wd, atol=1e-10)
    weights = np.array([2.0, -1.0, 0.5])[:k]
    assert np.allclose(
        tt_reconstruct(block_tt_scale_columns(u, weights)),
        ud * weights[np.newaxis, :],
        atol=1e-11,
    )
    assert abs(tt_norm(u) - np.linalg.norm(ud)) < 1e-11
    with pytest.raises(ValueError):
        block_tt_scale_columns(u, np.ones(2))


def _rect_matrix_tt(n, rank, rows, cols, rng):
    ranks = [1] + [rank] * (n - 1) + [1]
    return MatrixTT([rng.standard_normal((ranks[m], rows, cols, ranks[m + 1]))
                     for m in range(n)])


@pytest.mark.parametrize("n, k, pos, rows", [
    (5, 3, 0, 2), (5, 3, 2, 2), (5, 3, 4, 2), (4, 2, 1, 3),
    (2, 1, 0, 2), (2, 1, 1, 2), (2, 3, 1, 3),
])
def test_block_residual_norm_matches_dense(n, k, pos, rows):
    rng = np.random.default_rng(600 + 10 * n + pos)
    op = _rect_matrix_tt(n, 3, rows, 2, rng)
    x = random_block_tt_at([2] * n, k, 2, pos, rng)
    y = random_block_tt_at([rows] * n, k, 3, pos, rng)
    xs, ys = rng.standard_normal(k), rng.standard_normal(k)
    want = np.linalg.norm(tt_reconstruct(op) @ tt_reconstruct(x) * xs
                          - tt_reconstruct(y) * ys)
    got = block_tt_residual_norm(op, x, xs, y, ys)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("pos", [0, 2, 4])
def test_block_residual_norm_resolves_tiny_residuals(pos):
    """Y = op X exactly: the residual sits at rounding level, and perturbing
    the Y weights by eta gives ||Y diag(dy)|| with no rounding slack."""
    rng = np.random.default_rng(700 + pos)
    op = random_matrix_tt(5, 3, rng)
    x = random_block_tt_at([2] * 5, 3, 2, pos, rng)
    y = block_tt_matvec(op, x)
    yd = tt_reconstruct(y)
    scale = np.linalg.norm(yd)
    ones = np.ones(3)
    assert block_tt_residual_norm(op, x, ones, y, ones) <= 1e-14 * scale
    for eta in (1e-9, 1e-4):
        ys = ones + eta * rng.standard_normal(3)
        want = np.linalg.norm(yd * (ys - ones))
        got = block_tt_residual_norm(op, x, ones, y, ys)
        assert abs(got - want) <= 1e-14 * scale


def test_block_residual_norm_of_an_operator_past_the_squared_float_range():
    # ||op||_F near 2^600 = 4e180 has a square past the float range; the
    # residual scales with op and ys exactly, not overflowing on the way
    rng = np.random.default_rng(650)
    op = random_matrix_tt(4, 3, rng)
    x = random_block_tt_at([2] * 4, 3, 2, 1, rng)
    y = random_block_tt_at([2] * 4, 3, 3, 1, rng)
    xs, ys = rng.standard_normal(3), rng.standard_normal(3)
    big = MatrixTT([np.ldexp(op.cores[0], 600), *op.cores[1:]])
    want = block_tt_residual_norm(op, x, xs, y, ys)
    got = block_tt_residual_norm(big, x, xs, y, np.ldexp(ys, 600))
    assert abs(math.ldexp(got, -600) - want) <= 1e-13 * want


def test_block_residual_norm_rejects_mismatches():
    rng = np.random.default_rng(800)
    op = random_matrix_tt(4, 2, rng)
    x = random_block_tt_at([2] * 4, 3, 2, 1, rng)
    ones = np.ones(3)
    bad = [
        (op, x, ones, random_block_tt_at([2] * 4, 3, 2, 2, rng), ones),
        (op, x, ones, random_block_tt_at([3] * 4, 3, 2, 1, rng), ones),
        (op, random_block_tt_at([3] * 4, 3, 2, 1, rng), ones, x, ones),
        (op, x, ones, random_block_tt_at([2] * 4, 2, 2, 1, rng), np.ones(2)),
        (op, x, np.ones(2), x, ones),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            block_tt_residual_norm(*args)


def test_block_round_bound_and_cap():
    # the dense oracle is the (prod I, K) matrix, so the bound holds only if
    # rounding leaves the K columns unmixed, wherever the block core sits
    rng = np.random.default_rng(19)
    for position in (0, 2, 4):
        u = random_block_tt_at([2] * 5, 4, 4, position, rng)
        ud = tt_reconstruct(u)
        for delta in (1e-2, 1e-8):
            v = tt_round(u, delta)
            err = np.linalg.norm(tt_reconstruct(v) - ud)
            assert err <= delta * np.sqrt(4) * np.linalg.norm(ud) + 1e-12
            assert v.block_position == u.block_position
            assert v.k == u.k
            assert v.orth == ["L"] * 4 + [None]
        # at delta 0 every bond is capped at the structural bound of the
        # fused view, where the block core's mode is K * I
        sizes = [int(np.prod(c.shape[1:-1])) for c in u.cores]
        capped = tt_round(u, 0.0)
        assert capped.ranks == [min(r, int(np.prod(sizes[:m])),
                                    int(np.prod(sizes[m:])))
                                for m, r in enumerate(u.ranks)]
        assert capped.block_position == position and capped.k == 4


# ---------------------------------------------------------------------------
# merge / split mechanics


def test_merge_cores_oracle():
    rng = np.random.default_rng(20)
    u = random_block_tt_at([2, 3, 2, 2], 4, 2, 1, rng)
    # block left of the merge point
    g = merge_cores(u, 2)
    bc, nxt = u.cores[1], u.cores[2]
    ref = np.einsum("akib,bjc->aijck", bc, nxt)
    assert g.shape == (2, 3, 2, 2, 4)
    assert np.allclose(g, ref, atol=1e-13)
    # block right of the merge point
    g2 = merge_cores(u, 1)
    prv = u.cores[0]
    ref2 = np.einsum("aib,bkjc->aijck", prv, bc)
    assert np.allclose(g2, ref2, atol=1e-13)
    with pytest.raises(ValueError):
        merge_cores(u, 0)
    with pytest.raises(ValueError):
        merge_cores(u, 3)  # block not adjacent


def _local4(rng, shape=(3, 2, 4, 5)):
    return rng.standard_normal(shape)


def test_split_single_core_round_trips():
    rng = np.random.default_rng(21)
    local = _local4(rng)
    r_l, i, r_r, k = local.shape

    carry, core, rank, tail = split_block_core(local, "right_to_left", 0.0)
    assert tail == 0.0
    # carry (r_l, K, rank) x core (rank, i, r_r) recontracts the local tensor
    back = np.einsum("akr,rib->aibk", carry, core)
    assert np.allclose(back, local, atol=1e-12)
    mat = core.reshape(rank, i * r_r, order="F")
    assert np.allclose(mat @ mat.T, np.eye(rank), atol=1e-12)

    core2, carry2, rank2, _ = split_block_core(local, "left_to_right", 0.0)
    back2 = np.einsum("air,rkb->aibk", core2, carry2)
    assert np.allclose(back2, local, atol=1e-12)
    mat2 = core2.reshape(r_l * i, rank2, order="F")
    assert np.allclose(mat2.T @ mat2, np.eye(rank2), atol=1e-12)

    with pytest.raises(ValueError):
        split_block_core(local, "sideways", 0.0)


def test_split_merged_core_round_trips():
    rng = np.random.default_rng(22)
    local = rng.standard_normal((3, 2, 2, 4, 5))
    r_l, ia, ib, r_r, k = local.shape

    block, core, rank, _ = split_block_core(local, "right_to_left", 0.0)
    assert block.shape == (r_l, k, ia, rank)
    back = np.einsum("akir,rjb->aijbk", block, core)
    assert np.allclose(back, local, atol=1e-12)
    mat = core.reshape(rank, ib * r_r, order="F")
    assert np.allclose(mat @ mat.T, np.eye(rank), atol=1e-12)

    core2, block2, rank2, _ = split_block_core(local, "left_to_right", 0.0)
    assert block2.shape == (rank2, k, ib, r_r)
    back2 = np.einsum("air,rkjb->aijbk", core2, block2)
    assert np.allclose(back2, local, atol=1e-12)
    mat2 = core2.reshape(r_l * ia, rank2, order="F")
    assert np.allclose(mat2.T @ mat2, np.eye(rank2), atol=1e-12)

    with pytest.raises(ValueError):
        split_block_core(local, "diagonal", 0.0)


def test_split_truncation_bound_and_rank_controls():
    rng = np.random.default_rng(23)
    local = _local4(rng, (4, 2, 4, 3))
    nrm = np.linalg.norm(local)
    delta = 0.3
    carry, core, rank, tail = split_block_core(local, "right_to_left", delta)
    back = np.einsum("akr,rib->aibk", carry, core)
    assert np.linalg.norm(back - local) <= delta * nrm + 1e-12
    # the tail is the squared error of the split
    assert tail > 0.0
    assert abs(tail - np.linalg.norm(back - local) ** 2) <= 1e-12 * nrm ** 2

    core, carry, rank_cap, tail = split_block_core(local, "left_to_right", 0.0,
                                                   max_rank=2)
    assert rank_cap == 2
    back = np.einsum("air,rkb->aibk", core, carry)
    assert abs(tail - np.linalg.norm(back - local) ** 2) <= 1e-12 * nrm ** 2
    _, _, rank_floor, _ = split_block_core(
        local, "left_to_right", 0.99, min_keep=4
    )
    assert rank_floor >= 4

    local5 = rng.standard_normal((3, 2, 2, 3, 4))
    _, _, r5, _ = split_block_core(local5, "right_to_left", 0.0, max_rank=3)
    assert r5 == 3


def test_block_local_matrix_layout():
    # the (r*i*r2, k) unfolding used by the sweeps matches per-column frames
    rng = np.random.default_rng(24)
    u = random_block_tt_at([2, 2, 2], 2, 2, 1, rng)
    mat = block_local_matrix(u, 1)
    bc = u.cores[1]
    for k in range(2):
        ref = bc[:, k, :, :].ravel(order="F")
        assert np.allclose(mat[:, k], ref, atol=1e-14)


# ---------------------------------------------------------------------------
# property sweeps


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 6),
    delta=st.sampled_from([1e-2, 1e-4, 1e-8]),
    seed=st.integers(0, 2**31),
)
def test_compress_round_bound_property(n, delta, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((2,) * n)
    nrm = np.linalg.norm(t)
    x = tt_svd_compress(t, delta)
    assert np.linalg.norm(tt_reconstruct(x) - t) <= delta * np.sqrt(n - 1) * nrm + 1e-13
    y = tt_round(tt_add(x, x), delta)
    assert (
        np.linalg.norm(tt_reconstruct(y) - 2 * tt_reconstruct(x))
        <= delta * np.sqrt(n - 1) * 2 * nrm + 1e-12
    )
