"""Environment caches and projected local operators against dense frames."""

import numpy as np
import pytest

from conftest import (
    block_local_matrix,
    frame_matrix,
    pair_frame_matrix,
    random_block_tt_at,
    random_matrix_tt,
    z_transfer_matrix,
)
from ttsvd import (
    Environment,
    count_macs,
    dense_local_matrix,
    env_init,
    env_update_left,
    env_update_right,
    environment_deviation,
    local_block_svd,
    local_operator_macs,
    projected_matvec,
    projected_rmatvec,
    random_block_tt,
    recompute_environment,
    tt_reconstruct,
)


def _triple(rng, n=4, pos=None, k=3, rank=2):
    if pos is None:
        pos = n - 1
    a = random_matrix_tt(n, rank, rng)
    u = random_block_tt_at([2] * n, k, rank, pos, rng)
    v = random_block_tt_at([2] * n, k, rank, pos, rng)
    return u, a, v


def test_left_environments_follow_transfer_recursion():
    rng = np.random.default_rng(0)
    u, a, v = _triple(rng, n=5, pos=4)
    env = recompute_environment(u, a, v, 4)
    acc = np.ones((1, 1, 1)).ravel()
    for m in range(4):
        z = z_transfer_matrix(u.cores[m], a.cores[m], v.cores[m])
        acc = acc @ z
        assert np.allclose(env.lefts[m + 1].ravel(), acc, atol=1e-10), (
            f"left environment {m + 1} deviates from the transfer product"
        )


def test_right_environments_follow_transfer_recursion():
    rng = np.random.default_rng(1)
    u, a, v = _triple(rng, n=5, pos=0)
    env = recompute_environment(u, a, v, 0)
    acc = np.ones((1, 1, 1)).ravel()
    for m in range(4, 0, -1):
        z = z_transfer_matrix(u.cores[m], a.cores[m], v.cores[m])
        acc = z @ acc
        assert np.allclose(env.rights[m - 1].ravel(), acc, atol=1e-10), (
            f"right environment {m - 1} deviates from the transfer product"
        )


def test_projected_matrix_equals_dense_frame_projection():
    rng = np.random.default_rng(2)
    n = 4
    a_dense_tol = 1e-10
    for pos in range(n):
        u, a, v = _triple(rng, n=n, pos=pos)
        env = recompute_environment(u, a, v, pos)
        abar = dense_local_matrix(env, [a.cores[pos]], pos)
        fu = frame_matrix(u, pos)
        fv = frame_matrix(v, pos)
        ref = fu.T @ tt_reconstruct(a) @ fv
        assert np.allclose(abar, ref, atol=a_dense_tol), f"position {pos}"


def test_projected_matvec_pair_matches_dense_matrix():
    rng = np.random.default_rng(3)
    n = 4
    pos = 2
    u, a, v = _triple(rng, n=n, pos=pos)
    env = recompute_environment(u, a, v, pos)
    abar = dense_local_matrix(env, [a.cores[pos]], pos)
    p, q = abar.shape
    for _ in range(3):
        y = rng.standard_normal(q)
        x = rng.standard_normal(p)
        assert np.allclose(
            projected_matvec(env, [a.cores[pos]], pos, y), abar @ y, atol=1e-10
        )
        assert np.allclose(
            projected_rmatvec(env, [a.cores[pos]], pos, x), abar.T @ x, atol=1e-10
        )


def test_merged_projected_matrix_equals_dense_frame_projection():
    rng = np.random.default_rng(4)
    n = 5
    for p in (0, 2, 3):
        u, a, v = _triple(rng, n=n, pos=p + 1)
        env = recompute_environment(u, a, v, p + 1)
        abar = dense_local_matrix(env, a.cores[p:p + 2], p)
        fu = pair_frame_matrix(u, p)
        fv = pair_frame_matrix(v, p)
        ref = fu.T @ tt_reconstruct(a) @ fv
        assert np.allclose(abar, ref, atol=1e-10), f"pair at {p}"
        rows, cols = abar.shape
        y = rng.standard_normal(cols)
        x = rng.standard_normal(rows)
        assert np.allclose(
            projected_matvec(env, a.cores[p:p + 2], p, y),
            abar @ y,
            atol=1e-10,
        )
        assert np.allclose(
            projected_rmatvec(env, a.cores[p:p + 2], p, x),
            abar.T @ x,
            atol=1e-10,
        )


def test_projection_of_own_block_recovers_gram_structure():
    # with orthonormal columns U = F_U @ W, the projected matrix satisfies
    # W^T Abar W = U^T A V at the block position
    rng = np.random.default_rng(5)
    n = 4
    pos = n - 1
    a = random_matrix_tt(n, 2, rng)
    u = random_block_tt([2] * n, 3, 2, 10)
    v = random_block_tt([2] * n, 3, 2, 11)
    env = env_init(u, a, v)
    abar = dense_local_matrix(env, [a.cores[pos]], pos)
    wu = block_local_matrix(u, pos)
    wv = block_local_matrix(v, pos)
    small = wu.T @ abar @ wv
    ud, ad, vd = tt_reconstruct(u), tt_reconstruct(a), tt_reconstruct(v)
    assert np.allclose(small, ud.T @ ad @ vd, atol=1e-10)


def test_env_init_requires_canonical_start():
    rng = np.random.default_rng(6)
    n = 4
    a = random_matrix_tt(n, 2, rng)
    u = random_block_tt([2] * n, 3, 2, 1)
    v = random_block_tt([2] * n, 3, 2, 2)
    env = env_init(u, a, v)
    assert env.lefts[n - 1] is not None
    assert environment_deviation(env, u, a, v, n - 1) < 1e-12

    moved = random_block_tt_at([2] * n, 3, 2, 1, rng)
    with pytest.raises(ValueError):
        env_init(moved, a, v)
    stale = u.copy()
    stale.orth[0] = None
    with pytest.raises(ValueError):
        env_init(stale, a, v)


def test_update_order_and_block_guards():
    rng = np.random.default_rng(7)
    n = 4
    u, a, v = _triple(rng, n=n, pos=2)
    env = Environment(n)
    with pytest.raises(ValueError):
        env_update_left(env, u, a, v, 1)  # lefts[1] not built yet
    env_update_left(env, u, a, v, 0)
    with pytest.raises(ValueError):
        env_update_left(env, u, a, v, 2)  # would read the block core
    with pytest.raises(ValueError):
        env_update_right(env, u, a, v, 2)
    env_update_right(env, u, a, v, 3)
    assert env.rights[2] is not None
    with pytest.raises(ValueError):
        env_update_right(Environment(n), u, a, v, 0)  # past the chain start


def test_environment_deviation_detects_corruption():
    rng = np.random.default_rng(8)
    a = random_matrix_tt(4, 2, rng)
    u = random_block_tt([2] * 4, 3, 2, 20)
    v = random_block_tt([2] * 4, 3, 2, 21)
    env = env_init(u, a, v)
    assert environment_deviation(env, u, a, v, 3) < 1e-12
    env.lefts[2] = env.lefts[2] + 0.01
    assert environment_deviation(env, u, a, v, 3) > 0.009


def test_mac_costs_stay_within_twice_the_model():
    rng = np.random.default_rng(9)
    for r, ra, i, k in [(2, 2, 2, 2), (3, 2, 2, 4), (4, 3, 2, 3), (5, 5, 2, 10)]:
        env = Environment(3)
        env.lefts[1] = rng.standard_normal((r, ra, r))
        env.rights[1] = rng.standard_normal((r, ra, r))
        a_core = rng.standard_normal((ra, i, i, ra))
        model_matvec = k * i * ra * (r + i * ra) * r * r
        with count_macs() as c:
            for _ in range(k):
                projected_matvec(env, [a_core], 1, rng.standard_normal(r * i * r))
        assert model_matvec < c.macs <= 2 * model_matvec, (
            f"matvec macs {c.macs} vs model {model_matvec} at {(r, ra, i, k)}"
        )

    # environment update: one core absorbed into the running left tensor
    for r, ra, i in [(2, 2, 2), (4, 3, 2), (6, 4, 2)]:
        n = 3
        u2, a2, v2 = _triple(rng, n=n, pos=n - 1, k=2, rank=r)
        a2 = random_matrix_tt(n, ra, rng)
        env2 = Environment(n)
        env2.lefts[1] = rng.standard_normal((r, ra, r))
        # overwrite core shapes so the middle bond carries exactly (r, ra, r)
        u2.cores[1] = rng.standard_normal((r, i, r))
        v2.cores[1] = rng.standard_normal((r, i, r))
        a2.cores[1] = rng.standard_normal((ra, i, i, ra))
        model_update = i * ra * (r + i * ra) * r * r
        with count_macs() as c:
            env_update_left(env2, u2, a2, v2, 1)
        assert model_update < c.macs <= 2 * model_update, (
            f"update macs {c.macs} vs model {model_update} at {(r, ra, i)}"
        )


def _window_env(rng, left_shape, right_shape, n, pair):
    """Environment with random tensors at position n (and n+1 for a pair)."""
    env = Environment(n + (3 if pair else 2))
    env.lefts[n] = rng.standard_normal(left_shape)
    env.rights[n + 1 if pair else n] = rng.standard_normal(right_shape)
    return env


# (left, A cores, right): every window has p != q and rectangular A modes
_NON_SQUARE = [
    ("als", (3, 2, 4), [(2, 2, 3, 3)], (5, 3, 2)),
    ("mals", (3, 2, 4), [(2, 2, 3, 4), (4, 3, 2, 3)], (5, 3, 2)),
    ("mals", (1, 1, 2), [(1, 3, 2, 2), (2, 2, 2, 1)], (1, 1, 1)),
]


def _window_ops(env, cores, n):
    return (lambda y: projected_matvec(env, cores, n, y),
            lambda x: projected_rmatvec(env, cores, n, x),
            lambda: dense_local_matrix(env, cores, n))


@pytest.mark.parametrize("kind,left,cores,right", _NON_SQUARE)
def test_block_apply_on_non_square_windows(kind, left, cores, right):
    rng = np.random.default_rng(10)
    n = 1
    env = _window_env(rng, left, right, n, kind == "mals")
    a_cores = [rng.standard_normal(c) for c in cores]
    mv, rmv, build = _window_ops(env, a_cores, n)
    abar = build()
    p, q = abar.shape
    assert p != q
    for m in (3, 5):
        y = rng.standard_normal((q, m))
        x = rng.standard_normal((p, m))
        ay, atx = mv(y), rmv(x)
        assert ay.shape == (p, m) and atx.shape == (q, m)
        assert np.allclose(ay, abar @ y, atol=1e-10)
        assert np.allclose(atx, abar.T @ x, atol=1e-10)
        # the block apply is the vector apply column by column
        for c in range(m):
            assert np.allclose(mv(y[:, c]), ay[:, c], atol=1e-12)
            assert np.allclose(rmv(x[:, c]), atx[:, c], atol=1e-12)
    # block Krylov solves the window on the matrix-free and the built operator
    s_ref = np.linalg.svd(abar, compute_uv=False)[:3]
    for ops in ((mv, rmv), (lambda y: abar @ y, lambda x: abar.T @ x)):
        _, s, _, iters = local_block_svd(*ops, p, q, 3, seed=1)
        assert iters >= 1
        assert np.allclose(s, s_ref, atol=1e-8 * s_ref[0])


@pytest.mark.parametrize("kind,left,cores,right", _NON_SQUARE + [
    ("als", (5, 25, 5), [(25, 2, 2, 25)], (20, 25, 20)),
    ("mals", (5, 25, 5), [(25, 2, 2, 25), (25, 2, 2, 25)], (20, 25, 20)),
])
@pytest.mark.parametrize("m", [1, 10])
def test_local_operator_macs_match_count_macs(kind, left, cores, right, m):
    rng = np.random.default_rng(11)
    n = 2
    env = _window_env(rng, left, right, n, kind == "mals")
    a_cores = [rng.standard_normal(c) for c in cores]
    mv, rmv, build = _window_ops(env, a_cores, n)
    with count_macs() as c_build:
        abar = build()
    p, q = abar.shape
    with count_macs() as c_mv:
        mv(rng.standard_normal((q, m)))
    with count_macs() as c_rmv:
        rmv(rng.standard_normal((p, m)))
    model = local_operator_macs(env.lefts[n], a_cores,
                                env.rights[n + len(cores) - 1], m)
    assert model == (c_build.macs, c_mv.macs, c_rmv.macs)
    if m == 1:
        # a flat vector costs what a one-column block does
        with count_macs() as c_vec:
            mv(rng.standard_normal(q))
            rmv(rng.standard_normal(p))
        assert c_vec.macs == model[1] + model[2]
