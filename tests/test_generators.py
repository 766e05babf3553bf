"""Structured matrix constructions against raw index formulas."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from ttsvd import (
    VectorTT,
    full_toeplitz_tt,
    generators,
    hankel_submatrix_tt,
    hankel_tt,
    hilbert_submatrix_tt,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    prescribed_svd_matrix,
    random_block_tt,
    random_vector_tt,
    shift_tt,
    toeplitz_tt,
    tridiagonal_tt,
    tt_norm,
    tt_reconstruct,
    tt_svd_compress,
    tt_to_vector,
)


def _dense_upper_toeplitz(s_vec):
    m = len(s_vec)
    t = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            t[i, j] = s_vec[j - i - 1]
    return t


def _dense_hankel(s_vec):
    m = len(s_vec)
    h = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i + j <= m - 2:
                h[i, j] = s_vec[m - 2 - i - j]
    return h


def test_toeplitz_entries_and_preround_ranks():
    for seed in range(20):
        n = 4
        rank = 2 + seed % 2
        s = random_vector_tt(n, rank, seed)
        t = toeplitz_tt(s)
        ref = _dense_upper_toeplitz(tt_to_vector(s))
        got = tt_reconstruct(t)
        assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1)
        r = max(s.ranks)
        assert t.ranks[1:-1] == [2 * rs for rs in s.ranks[1:-1]], (
            f"seed {seed}: expected doubled bond ranks, got {t.ranks}"
        )
        assert r <= rank


def test_hankel_entries_and_preround_ranks():
    for seed in range(20):
        n = 4
        s = random_vector_tt(n, 2, seed + 100)
        h = hankel_tt(s)
        ref = _dense_hankel(tt_to_vector(s))
        got = tt_reconstruct(h)
        assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1)
        assert h.ranks[1:-1] == [2 * rs for rs in s.ranks[1:-1]]


def test_hankel_submatrix_keeps_first_half_columns():
    s = random_vector_tt(4, 2, 3)
    full = tt_reconstruct(hankel_tt(s))
    sub = hankel_submatrix_tt(s)
    assert sub.n_rows == 16 and sub.n_cols == 8
    assert np.allclose(tt_reconstruct(sub), full[:, :8], atol=1e-12)


def test_shift_matrices():
    n = 4
    m = 2**n
    s = tt_reconstruct(shift_tt(n))
    ref = np.diag(np.ones(m - 1), k=1)
    assert np.array_equal(s, ref)
    assert np.array_equal(tt_reconstruct(matrix_tt_transpose(shift_tt(n))), ref.T)
    # nilpotent of order 2^n, checked in TT arithmetic by repeated squaring
    p = shift_tt(n)
    for _ in range(n):
        p = matrix_tt_round(matrix_tt_matmul(p, p), 1e-14)
    assert tt_norm(p) < 1e-12


def test_tridiagonal_entries():
    n = 4
    m = 2**n
    rng = np.random.default_rng(7)
    diags = [tt_svd_compress(rng.standard_normal((2,) * n), 0.0) for _ in range(3)]
    a, b, c = diags
    t = tridiagonal_tt(a, b, c)
    av, bv, cv = (tt_to_vector(x) for x in diags)
    ref = np.diag(bv)
    for i in range(m - 1):
        ref[i + 1, i] = av[i]
        ref[i, i + 1] = cv[i + 1]
    assert np.linalg.norm(tt_reconstruct(t) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_tridiagonal_ignores_unused_boundary_entries():
    n = 3
    rng = np.random.default_rng(8)
    base = rng.standard_normal((2,) * n)
    a = tt_svd_compress(base, 0.0)
    b = tt_svd_compress(rng.standard_normal((2,) * n), 0.0)
    c1 = rng.standard_normal((2,) * n)
    c2 = c1.copy()
    c2[0, 0, 0] += 10.0  # first entry of the superdiagonal vector is never read
    t1 = tridiagonal_tt(a, b, tt_svd_compress(c1, 0.0))
    t2 = tridiagonal_tt(a, b, tt_svd_compress(c2, 0.0))
    assert np.allclose(tt_reconstruct(t1), tt_reconstruct(t2), atol=1e-10)


def test_full_toeplitz_entries():
    for n, rank in itertools.product(range(2, 7), range(1, 4)):
        m = 2**n
        x = random_vector_tt(n + 1, rank, 5 + n)
        xv = tt_to_vector(x)
        t = full_toeplitz_tt(x)
        i, j = np.indices((m, m))
        ref = xv[m - 1 + i - j]
        err = np.linalg.norm(tt_reconstruct(t) - ref)
        assert err <= 1e-10 * np.linalg.norm(ref), (n, rank, err)
        assert all(r <= 2 * q for r, q in zip(t.ranks[1:-1], x.ranks[1:-1]))


def test_full_toeplitz_last_entry_unused():
    n = 3
    rng = np.random.default_rng(9)
    base = rng.standard_normal(2 ** (n + 1))
    other = base.copy()
    other[-1] = 99.0
    t1 = full_toeplitz_tt(tt_svd_compress(base.reshape((2,) * (n + 1), order="F"), 0.0))
    t2 = full_toeplitz_tt(tt_svd_compress(other.reshape((2,) * (n + 1), order="F"), 0.0))
    assert np.allclose(tt_reconstruct(t1), tt_reconstruct(t2), atol=1e-10)


def test_generators_reject_mode_sizes_other_than_2():
    for bad in range(3):  # the last core of x is read too
        x = VectorTT([np.ones((1, 3 if m == bad else 2, 1)) for m in range(3)])
        for build in (toeplitz_tt, hankel_tt, full_toeplitz_tt):
            with pytest.raises(ValueError, match="mode sizes 2"):
                build(x)


def test_hilbert_submatrix_entries_and_budget():
    n = 6
    rows, cols = 2**n, 2 ** (n - 1)
    h = hilbert_submatrix_tt(n, 1e-10)
    assert h.n_rows == rows and h.n_cols == cols
    ref = 1.0 / (np.arange(rows)[:, None] + np.arange(cols)[None, :] + 1.0)
    err = np.linalg.norm(tt_reconstruct(h) - ref)
    assert err <= 1e-10 * np.linalg.norm(ref)
    for delta in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hilbert_submatrix_tt(6, delta)
    # 2^(n+1) is no finite float from n = 1023 on; once a raw OverflowError
    with pytest.raises(ValueError, match="need n <= 1022"):
        hilbert_submatrix_tt(1030, 1e-8)


def test_hilbert_quadrature_is_sized_to_delta(monkeypatch):
    # a quadrature fixed at 1e-13 took 169 terms at N=20 for every delta
    terms = []
    build = generators._exponential_sum_tt

    def counting(t, w, n):
        terms.append(len(t))
        return build(t, w, n)

    monkeypatch.setattr(generators, "_exponential_sum_tt", counting)
    for delta, want in ((1e-8, 91), (1e-4, 41)):
        terms.clear()
        hilbert_submatrix_tt(20, delta)
        assert sum(terms) == want, (delta, terms)


@pytest.mark.parametrize("n", [6, 10, 12])
def test_hilbert_submatrix_meets_its_delta(n):
    # delta bounds the error of the whole matrix, not of a factor it is built
    # from: an error repeated over many entries still counts in full
    rows, cols = 2**n, 2 ** (n - 1)
    ref = 1.0 / (np.arange(rows)[:, None] + np.arange(cols)[None, :] + 1.0)
    for delta in (1e-2, 1e-4, 1e-8, 1e-10, 1e-12):
        err = np.linalg.norm(tt_reconstruct(hilbert_submatrix_tt(n, delta))
                             - ref)
        assert err <= delta * np.linalg.norm(ref), (delta, err)


def _matrix_tt_entry(a, i, j):
    # bit m of i and j picks core m; the last core of a Hilbert chain takes
    # the two slowest row bits as one mode of size 4, faster first
    v = np.ones(1)
    for m, core in enumerate(a.cores):
        v = v @ core[:, (i >> m) % core.shape[1], (j >> m) % core.shape[2], :]
    return float(v[0])


@pytest.mark.parametrize("n", [30, 50, 100])
def test_hilbert_entries_at_large_n(n):
    # no dense oracle fits here; the corners reach the widest quadrature
    # range, whose lower cut moves with delta
    rows, cols = 2**n, 2 ** (n - 1)
    rng = random.Random(n)  # numpy draws stop at 2^64
    pairs = [(0, 0), (rows - 1, 0), (0, cols - 1), (rows - 1, cols - 1),
             (rows - 1, cols // 3), (rows // 5, cols - 1), (1, 2), (7, 3)]
    pairs += [(rng.randrange(rows), rng.randrange(cols)) for _ in range(12)]
    for delta in (1e-4, 1e-10):
        h = hilbert_submatrix_tt(n, delta)
        bound = delta * tt_norm(h)
        for i, j in pairs:
            err = abs(_matrix_tt_entry(h, i, j) - 1.0 / (i + j + 1))
            assert err <= bound, (delta, i, j, err)


@pytest.mark.parametrize("n", [30, 64, 100])
def test_full_toeplitz_entries_at_large_n(n):
    # no dense oracle fits here: bits of the Python-int indices pick the
    # cores, and entry (i, j) must read x at 2^N - 1 + i - j
    x = random_vector_tt(n + 1, 3, n)
    t = full_toeplitz_tt(x)
    m = 2**n
    rng = random.Random(n)  # numpy draws stop at 2^64
    pairs = [(0, 0), (m - 1, 0), (0, m - 1), (m - 1, m - 1), (1, 0), (0, 1)]
    pairs += [(rng.randrange(m), rng.randrange(m)) for _ in range(14)]
    got = [_matrix_tt_entry(t, i, j) for i, j in pairs]
    want = [_vector_tt_entry(x, m - 1 + i - j) for i, j in pairs]
    bound = 1e-12 * max(abs(w) for w in want)
    for (i, j), g, w in zip(pairs, got, want):
        assert abs(g - w) <= bound, (i, j, g, w)


def _vector_tt_entry(x, k):
    v = np.ones(1)
    for m, core in enumerate(x.cores):
        v = v @ core[:, (k >> m) % 2, :]
    return float(v[0])


def test_hilbert_builds_at_the_largest_n():
    # core b scales by 2^b: at n = 1022 some t_k 2^b overflow to inf, and
    # exp(-inf * 0) must still give the entry 1, not nan
    n, delta = 1022, 1e-2
    h = hilbert_submatrix_tt(n, delta)
    rows, cols = 2**n, 2 ** (n - 1)
    bound = delta * tt_norm(h)
    for i, j in [(0, 0), (1, 2), (rows - 1, 0), (rows - 1, cols - 1)]:
        err = abs(_matrix_tt_entry(h, i, j) - 1.0 / (i + j + 1))
        assert err <= bound, (i, j, err)


def test_hilbert_build_holds_no_dense_vector():
    # at N=20 one dense 2^(N+1) generating vector alone would take 16 MiB,
    # and at N=50 none could be held
    tracemalloc.start()
    try:
        hilbert_submatrix_tt(20, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    h = hilbert_submatrix_tt(50, 1e-8)
    assert h.n_cores == 49 and max(h.ranks) <= 16


def test_prescribed_svd_matrix_exact_construction():
    n = 8
    beta = 0.5
    a, u0, v0, spectrum = prescribed_svd_matrix(n, beta, k0=12, rank=3, seed=4)
    assert np.allclose(spectrum, beta ** np.arange(12), atol=0)
    ud = tt_reconstruct(u0)
    vd = tt_reconstruct(v0)
    assert np.allclose(ud.T @ ud, np.eye(12), atol=1e-12)
    assert np.allclose(vd.T @ vd, np.eye(12), atol=1e-12)
    ad = tt_reconstruct(a)
    assert np.allclose(ad, ud @ np.diag(spectrum) @ vd.T, atol=1e-12)
    s = np.linalg.svd(ad, compute_uv=False)
    assert np.max(np.abs(s[:12] - spectrum)) < 1e-9
    with pytest.raises(ValueError):
        prescribed_svd_matrix(4, 1.5)
    with pytest.raises(ValueError):
        prescribed_svd_matrix(3, 0.5, k0=100)


def test_random_vector_tt_profile_and_determinism():
    x = random_vector_tt([2] * 4, 5, 11)
    y = random_vector_tt([2] * 4, 5, 11)
    for cx, cy in zip(x.cores, y.cores):
        assert np.array_equal(cx, cy)
    assert x.ranks == [1, 2, 4, 2, 1]  # clipped at the mode-product caps
    assert abs(np.linalg.norm(tt_to_vector(x)) - 1.0) < 1e-12


def test_block_rank_profile_matches_the_product_formula():
    # the capped running products give the profile of the full products
    def full(modes, k, rank):
        n = len(modes)
        prof = [max(1, min(max(rank, math.ceil(k / math.prod(modes[b:]))),
                           math.prod(modes[:b]), k * math.prod(modes[b:])))
                for b in range(1, n)]
        return [1] + prof + [1]

    for n in range(1, 71):
        for modes in ([2] * n, [3] * n, [2 + m % 2 for m in range(n)]):
            for k in range(1, 13):
                for rank in range(1, 7):
                    assert (generators._block_rank_profile(modes, k, rank)
                            == full(modes, k, rank))


def test_random_block_tt_minimal_feasible_profile():
    u = random_block_tt([2] * 10, 10, 1, 0)
    assert u.block_position == 9
    assert u.ranks == [1, 1, 1, 1, 1, 1, 1, 2, 3, 5, 1]
    ud = tt_reconstruct(u)
    assert np.allclose(ud.T @ ud, np.eye(10), atol=1e-12)
    assert u.orth[:9] == ["L"] * 9
    v = random_block_tt([2] * 10, 10, 1, 0)
    for cu, cv in zip(u.cores, v.cores):
        assert np.array_equal(cu, cv)
    with pytest.raises(ValueError):
        random_block_tt([2] * 3, 9, 1, 0)  # k exceeds the full dimension
