"""Shared dense oracles for the test suite.

Everything here goes through explicit basis expansions, raw index formulas or
np.kron, deliberately avoiding the contraction kernels under test, so each
test compares two independent routes to the same value.
"""

import numpy as np

from ttsvd import (BlockTT, MatrixTT, VectorTT, hilbert_submatrix_tt, solver,
                   tt_reconstruct, tt_to_vector)


def random_matrix_tt(n, rank, rng, mode=2, scale=1.0):
    """Random matrix chain with square mode sizes and a flat interior rank."""
    ranks = [1] + [rank] * (n - 1) + [1]
    cores = [
        scale * rng.standard_normal((ranks[m], mode, mode, ranks[m + 1]))
        for m in range(n)
    ]
    return MatrixTT(cores)


def identity_tt(n):
    """The 2^n x 2^n identity as a rank-1 matrix chain."""
    return MatrixTT([np.eye(2)[np.newaxis, :, :, np.newaxis]] * n)


def count_gram_set_ups(monkeypatch) -> list:
    """One entry per Gram set-up that the solvers make from now on: each
    rounds its B = A^T A once, through ``ttsvd.solver.gram_tt_round``."""
    calls = []
    round_ = solver.gram_tt_round

    def counted(*args, **kwargs):
        calls.append(None)
        return round_(*args, **kwargs)
    monkeypatch.setattr(solver, "gram_tt_round", counted)
    return calls


def zero_or_overflowing_tt(which):
    """Five zero cores, or Hilbert N=8 with every core times 2^150: its
    ||A||_F, 2^1200 ||H||_F, is past the float range though every core is
    finite."""
    if which == "zero":
        return MatrixTT([np.zeros((1, 2, 2, 1))] * 5)
    return MatrixTT([c * 2.0**150 for c in hilbert_submatrix_tt(8, 1e-8).cores])


def random_vector_tt_raw(n, rank, rng, mode=2):
    ranks = [1] + [rank] * (n - 1) + [1]
    cores = [
        rng.standard_normal((ranks[m], mode, ranks[m + 1])) for m in range(n)
    ]
    return VectorTT(cores)


def random_block_tt_at(modes, k, rank, position, rng):
    """Random block chain with the extra mode stored at ``position``."""
    n = len(modes)
    ranks = [1] + [rank] * (n - 1) + [1]
    cores = []
    for m in range(n):
        if m == position:
            cores.append(
                rng.standard_normal((ranks[m], k, modes[m], ranks[m + 1]))
            )
        else:
            cores.append(
                rng.standard_normal((ranks[m], modes[m], ranks[m + 1]))
            )
    return BlockTT(cores, position)


def frame_matrix(chain, p):
    """Frame at position p, column by basis core.

    Column (r1, i, r2) of the result (column-major order within the triple)
    is the full vector obtained by planting the matching unit core at
    position p, so ``full = frame @ vec_F(local core)`` by linearity.  Works
    for a VectorTT, or a BlockTT whose block sits exactly at p (the block
    mode is handled outside the frame).
    """
    cores = list(chain.cores)
    r1 = cores[p].shape[0]
    r2 = cores[p].shape[-1]
    ip = chain.mode_sizes[p]
    cols = []
    for idx in range(r1 * ip * r2):
        e = np.zeros(r1 * ip * r2)
        e[idx] = 1.0
        core = e.reshape((r1, ip, r2), order="F")
        probe = VectorTT(cores[:p] + [core] + cores[p + 1 :])
        cols.append(tt_to_vector(probe))
    return np.column_stack(cols)


def pair_frame_matrix(chain, p):
    """Frame with both cores p and p+1 removed (merged local space).

    Columns are ordered column-major over (r1, i_p, i_{p+1}, r2).  The chain
    may hold its block core at p or p+1; every other core must be
    third-order.
    """
    cores = list(chain.cores)
    r1 = cores[p].shape[0]
    r2 = cores[p + 1].shape[-1]
    ia = chain.mode_sizes[p]
    ib = chain.mode_sizes[p + 1]
    cols = []
    for idx in range(r1 * ia * ib * r2):
        e = np.zeros(r1 * ia * ib * r2)
        e[idx] = 1.0
        m = e.reshape((r1 * ia, ib * r2), order="F")
        row, col = np.argwhere(m)[0]
        u0 = np.zeros((r1 * ia, 1))
        u0[row, 0] = 1.0
        v0 = np.zeros((1, ib * r2))
        v0[0, col] = 1.0
        c1 = u0.reshape((r1, ia, 1), order="F")
        c2 = v0.reshape((1, ib, r2), order="F")
        probe = VectorTT(cores[:p] + [c1, c2] + cores[p + 2 :])
        cols.append(tt_to_vector(probe))
    return np.column_stack(cols)


def block_local_matrix(u, p):
    """Block core at p as a (r1*I*r2, K) matrix, rows column-major."""
    bc = u.cores[p]
    r1, k, i, r2 = bc.shape
    return bc.transpose(0, 2, 3, 1).reshape((r1 * i * r2, k), order="F")


def z_transfer_matrix(cu, ca, cv):
    """Transfer matrix of one (U, A, V) core triple.

    Row index is the C-order ravel of (r_u, r_a, r_v), column index the same
    for the next bond, so chaining left environments reads
    ravel_C(L_next) = ravel_C(L_prev) @ Z.
    """
    ia = ca.shape[1]
    ja = ca.shape[2]
    rows = cu.shape[0] * ca.shape[0] * cv.shape[0]
    cols = cu.shape[2] * ca.shape[3] * cv.shape[2]
    z = np.zeros((rows, cols))
    for i in range(ia):
        for j in range(ja):
            z += np.kron(cu[:, i, :], np.kron(ca[:, i, j, :], cv[:, j, :]))
    return z


def dense_of(x):
    return tt_reconstruct(x)


def second_difference_singular_values(n_modes, k):
    """Top-k singular values of the 2^n x 2^n matrix with stencil (-1, 2, -1)."""
    m = 2**n_modes
    j = np.arange(m, m - k, -1)
    return 2.0 - 2.0 * np.cos(j * np.pi / (m + 1))


# The keys of a solve report's micro-iteration record.
MICRO_KEYS = {"position", "direction", "bond", "rank_u", "rank_v",
              "discarded_u", "discarded_v", "sigma", "local_iterations",
              "local_path"}


def check_micro_records(report, k):
    """Every micro record has the keys MICRO_KEYS and no list longer than K,
    so a record does not grow with N."""
    assert report.micro
    for record in report.micro:
        assert set(record) == MICRO_KEYS, record
        assert all(len(value) <= k for value in record.values()
                   if isinstance(value, list)), record
