"""TT containers and arithmetic against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    block_local_matrix,
    random_block_tt_at,
    random_matrix_tt,
    random_vector_tt_raw,
)
from ttsvd import (
    BlockTT,
    MatrixTT,
    VectorTT,
    block_tt_column,
    block_tt_gram,
    block_tt_matvec,
    block_tt_residual_norm,
    block_tt_round,
    block_tt_scale_columns,
    diag_embed,
    identity_matrix_tt,
    left_orthogonalize_through,
    matrix_tt_add,
    matrix_tt_matmul,
    matrix_tt_norm,
    matrix_tt_round,
    matrix_tt_transpose,
    matvec_tt,
    merge_cores,
    right_orthogonalize_through,
    split_block_core,
    tt_add,
    tt_entry,
    tt_inner,
    tt_norm,
    tt_reconstruct,
    tt_round,
    tt_scale,
    tt_svd_compress,
    tt_to_vector,
)
from ttsvd.tt import tt_last_mode_slice, tt_reverse


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
    a = identity_matrix_tt(3)
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


def test_tt_entry_index_oracle():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 3, 2, 2))
    x = tt_svd_compress(t, 0.0)
    for idx in np.ndindex(*t.shape):
        assert abs(tt_entry(x, idx) - t[idx]) < 1e-12


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


def test_compress_max_rank_cap():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((2, 2, 2, 2, 2, 2))
    x = tt_svd_compress(t, 0.0, max_rank=3)
    assert max(x.ranks) <= 3


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
    assert abs(tt_inner(x, y) - np.sum(xd * yd)) < 1e-10
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


def test_tt_reverse_and_last_mode_slice():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((2, 3, 4))
    x = tt_svd_compress(t, 0.0)
    assert np.allclose(
        tt_to_vector(tt_reverse(x)), tt_to_vector(x)[::-1], atol=1e-12
    )
    for j in range(4):
        assert np.allclose(
            tt_reconstruct(tt_last_mode_slice(x, j)), t[:, :, j], atol=1e-12
        )


# ---------------------------------------------------------------------------
# orthogonalization


def test_left_orthogonalize_through():
    rng = np.random.default_rng(10)
    x = random_vector_tt_raw(5, 3, rng)
    xd = tt_reconstruct(x)
    y = left_orthogonalize_through(x, 3)
    assert x.orth == [None] * 5  # input untouched
    assert y.orth[:3] == ["L"] * 3
    assert np.allclose(tt_reconstruct(y), xd, atol=1e-11)
    for m in range(3):
        c = y.cores[m]
        mat = c.reshape(c.shape[0] * c.shape[1], c.shape[2], order="F")
        assert np.allclose(mat.T @ mat, np.eye(mat.shape[1]), atol=1e-12)


def test_right_orthogonalize_through():
    rng = np.random.default_rng(11)
    x = random_vector_tt_raw(5, 3, rng)
    xd = tt_reconstruct(x)
    y = right_orthogonalize_through(x, 1)
    assert y.orth[2:] == ["R"] * 3
    assert np.allclose(tt_reconstruct(y), xd, atol=1e-11)
    for m in range(2, 5):
        c = y.cores[m]
        mat = c.reshape(c.shape[0], c.shape[1] * c.shape[2], order="F")
        assert np.allclose(mat @ mat.T, np.eye(mat.shape[0]), atol=1e-12)


def test_norm_migrates_to_boundary_core():
    rng = np.random.default_rng(12)
    x = random_vector_tt_raw(5, 3, rng)
    y = right_orthogonalize_through(x, 0)
    assert abs(
        np.linalg.norm(y.cores[0]) - np.linalg.norm(tt_reconstruct(x))
    ) < 1e-11


def test_orthogonalization_respects_block_core():
    rng = np.random.default_rng(13)
    u = random_block_tt_at([2, 2, 2, 2], 3, 2, 2, rng)
    with pytest.raises(ValueError):
        right_orthogonalize_through(u, 1)  # would QR the block core
    with pytest.raises(ValueError):
        left_orthogonalize_through(u, 3)
    y = right_orthogonalize_through(u, 2)
    assert np.allclose(tt_reconstruct(y), tt_reconstruct(u), atol=1e-11)
    z = left_orthogonalize_through(u, 2)
    assert np.allclose(tt_reconstruct(z), tt_reconstruct(u), atol=1e-11)


# ---------------------------------------------------------------------------
# matrix chains


def test_identity_and_diag_embed():
    assert np.allclose(tt_reconstruct(identity_matrix_tt(3)), np.eye(8))
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
    x = random_vector_tt_raw(4, 2, rng)
    ad = tt_reconstruct(a)
    bd = tt_reconstruct(b)
    xd = tt_to_vector(x)
    assert np.allclose(tt_to_vector(matvec_tt(a, x)), ad @ xd, atol=1e-10)
    assert np.allclose(
        tt_reconstruct(matrix_tt_matmul(a, b)), ad @ bd, atol=1e-10
    )
    assert np.allclose(tt_reconstruct(matrix_tt_add(a, b)), ad + bd, atol=1e-11)
    assert np.allclose(tt_reconstruct(matrix_tt_transpose(a)), ad.T, atol=1e-12)
    assert abs(matrix_tt_norm(a) - np.linalg.norm(ad)) < 1e-9
    with pytest.raises(ValueError):
        matvec_tt(a, random_vector_tt_raw(3, 2, rng))


def test_matrix_round_bound():
    rng = np.random.default_rng(16)
    a = random_matrix_tt(5, 3, rng)
    ad = tt_reconstruct(a)
    for delta in (1e-2, 1e-6):
        b = matrix_tt_round(a, delta)
        err = np.linalg.norm(tt_reconstruct(b) - ad)
        assert err <= delta * np.sqrt(4) * np.linalg.norm(ad) + 1e-12
        assert all(rb <= ra for ra, rb in zip(a.ranks, b.ranks))


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
            assert np.allclose(
                tt_to_vector(block_tt_column(u, k)), col, atol=1e-12
            )


def test_block_ops_match_dense():
    rng = np.random.default_rng(18)
    a = random_matrix_tt(4, 2, rng)
    u = random_block_tt_at([2, 2, 2, 2], 3, 2, 1, rng)
    w = random_block_tt_at([2, 2, 2, 2], 3, 3, 1, rng)
    ad = tt_reconstruct(a)
    ud = tt_reconstruct(u)
    wd = tt_reconstruct(w)
    assert np.allclose(
        tt_reconstruct(block_tt_matvec(a, u)), ad @ ud, atol=1e-10
    )
    assert np.allclose(block_tt_gram(u, w), ud.T @ wd, atol=1e-10)
    weights = np.array([2.0, -1.0, 0.5])
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
    rng = np.random.default_rng(19)
    u = random_block_tt_at([2] * 5, 4, 4, 2, rng)
    ud = tt_reconstruct(u)
    for delta in (1e-2, 1e-8):
        v = block_tt_round(u, delta)
        err = np.linalg.norm(tt_reconstruct(v) - ud)
        assert err <= delta * np.sqrt(4) * np.linalg.norm(ud) + 1e-12
        assert v.block_position == u.block_position
        assert v.k == u.k
    capped = block_tt_round(u, 0.0, max_rank=2)
    assert max(capped.ranks) <= 2


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

    carry, core, rank = split_block_core(local, "right_to_left", 0.0)
    # carry (r_l, K, rank) x core (rank, i, r_r) recontracts the local tensor
    back = np.einsum("akr,rib->aibk", carry, core)
    assert np.allclose(back, local, atol=1e-12)
    mat = core.reshape(rank, i * r_r, order="F")
    assert np.allclose(mat @ mat.T, np.eye(rank), atol=1e-12)

    core2, carry2, rank2 = split_block_core(local, "left_to_right", 0.0)
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

    block, core, rank = split_block_core(local, "right_to_left", 0.0)
    assert block.shape == (r_l, k, ia, rank)
    back = np.einsum("akir,rjb->aijbk", block, core)
    assert np.allclose(back, local, atol=1e-12)
    mat = core.reshape(rank, ib * r_r, order="F")
    assert np.allclose(mat @ mat.T, np.eye(rank), atol=1e-12)

    core2, block2, rank2 = split_block_core(local, "left_to_right", 0.0)
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
    carry, core, rank = split_block_core(local, "right_to_left", delta)
    back = np.einsum("akr,rib->aibk", carry, core)
    assert np.linalg.norm(back - local) <= delta * nrm + 1e-12

    _, _, rank_cap = split_block_core(local, "left_to_right", 0.0, max_rank=2)
    assert rank_cap == 2
    _, _, rank_floor = split_block_core(
        local, "left_to_right", 0.99, min_keep=4
    )
    assert rank_floor >= 4

    local5 = rng.standard_normal((3, 2, 2, 3, 4))
    _, _, r5 = split_block_core(local5, "right_to_left", 0.0, max_rank=3)
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
