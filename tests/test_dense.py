"""Dense kernels: the counted tensordot and the QR/SVD contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttsvd import count_macs, dense_qr, truncated_svd
from ttsvd.counting import tdot


def test_tdot_counts_only_under_a_counter():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 3, 5))
    cases = [(1, 360), ((2, 0), 360), ((-1, 0), 360),
             (((1, 2), (1, 0)), 120), (((-2, 2), (1, -3)), 120)]
    for axes, macs in cases:
        free = tdot(a, b, axes)
        with count_macs() as c:
            counted = tdot(a, b, axes)
        assert np.array_equal(free, counted)
        assert np.array_equal(free, np.tensordot(a, b, axes=axes))
        assert c.macs == macs


def test_dense_svd_reconstructs_and_validates():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((7, 4))
    f = truncated_svd(m, 0.0)
    assert np.allclose(f.u @ np.diag(f.s) @ f.v.T, m, atol=1e-12)
    assert f.discarded_energy == 0.0
    with pytest.raises(ValueError):
        truncated_svd(np.array([[1.0, np.nan]]), 0.0)


def test_truncated_svd_diagonal_example():
    m = np.diag([3.0, 1.0])
    f = truncated_svd(m, 0.0)
    assert np.allclose(f.s, [3.0, 1.0], atol=1e-14)
    # tail 1 vs delta * sqrt(10): 0.4 admits rank 1, 0.25 does not
    assert len(truncated_svd(m, 0.4).s) == 1
    assert len(truncated_svd(m, 0.25).s) == 2


def test_truncated_svd_rank_one_product():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(9)
    y = rng.standard_normal(6)
    f = truncated_svd(np.outer(x, y), 1e-12)
    assert len(f.s) == 1
    assert abs(f.s[0] - np.linalg.norm(x) * np.linalg.norm(y)) < 1e-12


def test_truncated_svd_hilbert_top_value():
    n = 4
    h = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    # power iteration on H^T H as an independent reference for sigma_1
    g = h.T @ h
    v = np.ones(n) / np.sqrt(n)
    for _ in range(200):
        w = g @ v
        v = w / np.linalg.norm(w)
    sigma1 = np.sqrt(v @ g @ v)
    f = truncated_svd(h, 0.0)
    assert abs(f.s[0] - sigma1) < 1e-10


def test_truncated_svd_bound_and_minimality():
    rng = np.random.default_rng(8)
    for trial in range(30):
        m = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
        delta = float(rng.uniform(0.05, 0.9))
        f = truncated_svd(m, delta)
        approx = f.u @ np.diag(f.s) @ f.v.T
        err = np.linalg.norm(m - approx)
        nrm = np.linalg.norm(m)
        assert err <= delta * nrm + 1e-12
        assert abs(f.discarded_energy - err**2) < 1e-10 * max(nrm**2, 1.0)
        if len(f.s) > 1:
            s_all = np.linalg.svd(m, compute_uv=False)
            tail = np.sqrt(np.sum(s_all[len(f.s) - 1 :] ** 2))
            assert tail > delta * nrm - 1e-12


def test_truncated_svd_rank_controls():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((6, 5))
    assert len(truncated_svd(m, 0.9, min_rank=4).s) >= 4
    assert len(truncated_svd(m, 0.0, max_rank=2).s) == 2
    # the cap wins on conflict, the floor clips to what exists
    assert len(truncated_svd(m, 0.5, min_rank=5, max_rank=2).s) == 2
    assert len(truncated_svd(m, 0.9, min_rank=50).s) == 5


def test_truncated_svd_absolute_threshold_overrides_delta():
    m = np.diag([3.0, 1.0])
    f = truncated_svd(m, 0.0, frob_threshold=1.5)
    assert len(f.s) == 1
    f = truncated_svd(m, 0.9, frob_threshold=0.0)
    assert len(f.s) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s, delta, kept", [
    ([3e200, 2e200, 1e190], 1e-6, 2),  # s**2 overflowed: kept 1
    ([1e-200, 5e-201, 1e-201], 0.0, 3),  # s**2 underflowed to 0: kept 1
], ids=["huge", "tiny"])
def test_truncated_svd_keeps_rank_at_any_scale(s, delta, kept):
    f = truncated_svd(np.diag(s), delta)
    assert len(f.s) == kept
    assert np.array_equal(f.s, s[:kept])
    # the same decision as on the matrix divided by s[0]
    assert len(truncated_svd(np.diag(s) / s[0], delta).s) == kept


def test_truncated_svd_rejects_negative_delta():
    with pytest.raises(ValueError):
        truncated_svd(np.eye(2), -0.1)


def test_dense_qr_contract():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((6, 4))
    q, r = dense_qr(m)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
    assert np.allclose(q @ r, m, atol=1e-12)
    assert np.all(np.diagonal(r) >= 0)
    m[:, 2] = 0.0
    q, r = dense_qr(m)
    assert np.allclose(q @ r, m, atol=1e-12)
    assert np.all(np.diagonal(r) >= 0)
    with pytest.raises(ValueError):
        dense_qr(np.array([[np.inf, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(2, 8),
    cols=st.integers(2, 8),
    delta=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**31),
)
def test_truncated_svd_error_bound_property(rows, cols, delta, seed):
    m = np.random.default_rng(seed).standard_normal((rows, cols))
    f = truncated_svd(m, delta)
    err = np.linalg.norm(m - f.u @ np.diag(f.s) @ f.v.T)
    assert err <= delta * np.linalg.norm(m) + 1e-10
    assert 1 <= len(f.s) <= min(rows, cols)
