"""Built-in self-checks for the library, exposed via the CLI ``verify`` verb.

Each check is small enough to run in well under a second and compares an
implementation against an independent oracle: dense linear algebra on
reconstructed tensors, definitional index formulas for the structured
generators, or closed-form identities.  ``run_verification`` prints one
PASS/FAIL line per check and returns the number of failures.
"""

from __future__ import annotations

import math

import numpy as np

from . import solver as solver_mod
from .counting import count_macs
from .dense import dense_qr, truncated_svd
from .environments import Environment, env_init, environment_deviation, \
    dense_local_matrix, projected_matvec
from .generators import (
    hankel_submatrix_tt,
    hankel_tt,
    hilbert_submatrix_tt,
    prescribed_svd_matrix,
    random_block_tt,
    random_vector_tt,
    shift_tt,
    toeplitz_tt,
    tridiagonal_tt,
)
from .serialization import load_tt, save_tt
from .tt import (
    MatrixTT,
    VectorTT,
    _rf,
    matrix_tt_matmul,
    matrix_tt_transpose,
    matvec_tt,
    tt_add,
    tt_inner,
    tt_norm,
    tt_reconstruct,
    tt_round,
    tt_svd_compress,
    tt_to_vector,
)


def _random_matrix_tt(n, rmax, rng):
    ranks = [1] + [int(rng.integers(1, rmax + 1)) for _ in range(n - 1)] + [1]
    return MatrixTT([rng.standard_normal((ranks[m], 2, 2, ranks[m + 1]))
                     for m in range(n)])


def _check_reshape_convention(rng):
    t = rng.standard_normal((3, 4, 5))
    flat = t.ravel(order="F")
    i, j, k = 2, 1, 3
    ok = flat[i + 3 * j + 12 * k] == t[i, j, k]
    m = _rf(t, (12, 5))
    ok = ok and m[i + 3 * j, k] == t[i, j, k]
    return ok, "column-major flattening puts earlier indices fastest"


def _check_truncated_svd(rng):
    m = rng.standard_normal((18, 12))
    f = truncated_svd(m, 0.3)
    err = np.linalg.norm(m - (f.u * f.s) @ f.v.T)
    bound = 0.3 * np.linalg.norm(m)
    s_full = np.linalg.svd(m, compute_uv=False)
    tails = np.sqrt(np.cumsum(s_full[::-1] ** 2))[::-1]
    minimal = int(np.searchsorted(-tails, -bound))
    minimal = max(minimal, 1)
    ok = err <= bound + 1e-12 and len(f.s) == minimal
    return ok, f"error {err:.3e} <= {bound:.3e} at minimal rank {len(f.s)}"


def _check_dense_qr(rng):
    m = rng.standard_normal((9, 5))
    q, r = dense_qr(m)
    ok = (np.allclose(q.T @ q, np.eye(5), atol=1e-12)
          and np.allclose(q @ r, m, atol=1e-12)
          and np.all(np.diagonal(r) >= 0))
    return ok, "Q orthonormal, QR = M, nonnegative R diagonal"


def _check_compress_round(rng):
    t = rng.standard_normal((2,) * 5)
    delta = 1e-3
    x = tt_svd_compress(t, delta)
    nrm = np.linalg.norm(t)
    err = np.linalg.norm(t - tt_reconstruct(x))
    bound = delta * math.sqrt(4) * nrm
    y = tt_round(x, delta)
    err2 = np.linalg.norm(t - tt_reconstruct(y))
    ok = err <= bound and err2 <= 2 * bound
    return ok, f"compress {err:.2e} and round {err2:.2e} within delta*sqrt(N-1)*|x|"


def _check_vector_algebra(rng):
    x = random_vector_tt([2] * 4, 3, rng.integers(1 << 16))
    y = random_vector_tt([2] * 4, 2, rng.integers(1 << 16))
    xd, yd = tt_to_vector(x), tt_to_vector(y)
    ok = abs(float(tt_inner(x, y)) - float(xd @ yd)) < 1e-12
    ok = ok and np.allclose(tt_to_vector(tt_add(x, y)), xd + yd, atol=1e-12)
    ok = ok and abs(tt_norm(x) - np.linalg.norm(xd)) < 1e-12
    return ok, "inner products, sums and norms match dense vectors"


def _check_matrix_algebra(rng):
    a = _random_matrix_tt(4, 3, rng)
    b = _random_matrix_tt(4, 2, rng)
    x = random_vector_tt([2] * 4, 2, rng.integers(1 << 16))
    ad, bd, xd = tt_reconstruct(a), tt_reconstruct(b), tt_to_vector(x)
    ok = np.allclose(tt_to_vector(matvec_tt(a, x)), ad @ xd, atol=1e-10)
    ok = ok and np.allclose(tt_reconstruct(matrix_tt_matmul(a, b)), ad @ bd,
                            atol=1e-10)
    ok = ok and np.allclose(tt_reconstruct(matrix_tt_transpose(a)), ad.T,
                            atol=1e-12)
    return ok, "matvec, matmul and transpose match dense matrices"


def _check_toeplitz(rng):
    n = 4
    s = random_vector_tt([2] * n, 2, rng.integers(1 << 16))
    t = toeplitz_tt(s)
    sd = tt_to_vector(s)
    m = 2 ** n
    ref = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            ref[i, j] = sd[j - i - 1]
    got = tt_reconstruct(t)
    ok = np.allclose(got, ref, atol=1e-12)
    interior = t.ranks[1:-1]
    expect = [2 * r for r in s.ranks[1:-1]]
    ok = ok and interior == expect
    return ok, "strictly upper triangular entries s_(j-i), interior ranks 2R"


def _check_hankel(rng):
    n = 4
    s = random_vector_tt([2] * n, 2, rng.integers(1 << 16))
    h = hankel_tt(s)
    sd = tt_to_vector(s)
    m = 2 ** n
    ref = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i + j <= m - 2:
                ref[i, j] = sd[m - 2 - i - j]
    ok = np.allclose(tt_reconstruct(h), ref, atol=1e-12)
    sub = hankel_submatrix_tt(s)
    ok = ok and np.allclose(tt_reconstruct(sub), ref[:, : m // 2], atol=1e-12)
    return ok, "anti-triangular entries and the half-column restriction"


def _check_shift(rng):
    n = 4
    f = shift_tt(n)
    m = 2 ** n
    fd = tt_reconstruct(f)
    ref = np.diag(np.ones(m - 1), k=1)
    ok = np.allclose(fd, ref, atol=1e-13)
    ok = ok and np.allclose(np.linalg.matrix_power(fd, m), 0.0, atol=1e-13)
    return ok, "ones on the first superdiagonal; nilpotent of order 2^N"


def _check_tridiagonal(rng):
    n = 3
    m = 2 ** n
    a = rng.standard_normal(m)
    b = rng.standard_normal(m)
    c = rng.standard_normal(m)
    t = tridiagonal_tt(tt_svd_compress(_rf(a, (2,) * n), 0.0),
                       tt_svd_compress(_rf(b, (2,) * n), 0.0),
                       tt_svd_compress(_rf(c, (2,) * n), 0.0))
    ref = np.diag(b) + np.diag(a[:-1], k=-1) + np.diag(c[1:], k=1)
    ok = np.allclose(tt_reconstruct(t), ref, atol=1e-12)
    return ok, "sub/main/super diagonals land on the displayed positions"


def _check_hilbert(rng):
    n = 4
    h = hilbert_submatrix_tt(n, 1e-10)
    rows, cols = 2 ** n, 2 ** (n - 1)
    ref = 1.0 / (np.add.outer(np.arange(rows), np.arange(cols)) + 1.0)
    got = tt_reconstruct(h)
    err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    return err < 1e-8, f"entries (i+j-1)^-1, relative error {err:.2e}"


def _check_prescribed(rng):
    a, u0, v0, spectrum = prescribed_svd_matrix(6, 0.5, k0=8, rank=3, seed=7)
    sd = np.linalg.svd(tt_reconstruct(a), compute_uv=False)
    ok = np.allclose(sd[:8], spectrum, atol=1e-9) and np.allclose(sd[8:], 0.0,
                                                                  atol=1e-9)
    return ok, "dense SVD of the construction recovers beta^k exactly"


def _check_embedding_eigs(rng):
    a = rng.standard_normal((9, 6))
    s = np.linalg.svd(a, compute_uv=False)
    big = np.zeros((15, 15))
    big[:9, 9:] = a
    big[9:, :9] = a.T
    ev = np.sort(np.linalg.eigvalsh(big))
    expect = np.sort(np.concatenate([-s, s, np.zeros(3)]))
    ok = np.allclose(ev, expect, atol=1e-10)
    return ok, "symmetric embedding spectrum is {+-sigma} plus zero padding"


def _frame_matrix(chain, p):
    left = np.ones((1, 1))
    for m in range(p):
        c = chain.cores[m]
        left = _rf(np.tensordot(left, c, axes=(1, 0)),
                   (left.shape[0] * c.shape[1], c.shape[2]))
    right = np.ones((1, 1))
    for m in range(chain.n_cores - 1, p, -1):
        c = chain.cores[m]
        t = np.tensordot(c, right, axes=(2, 0))
        right = _rf(t.transpose(1, 2, 0), (c.shape[1] * right.shape[1],
                                           c.shape[0]))
    i_p = chain.cores[p].shape[2] if chain.block_position == p else \
        chain.cores[p].shape[1]
    f = np.einsum("aA,iI,bB->aibAIB", left, np.eye(i_p), right)
    rows = left.shape[0] * i_p * right.shape[0]
    cols = left.shape[1] * i_p * right.shape[1]
    return _rf(f, (rows, cols))


def _check_environments(rng):
    n = 4
    a = _random_matrix_tt(n, 2, rng)
    u = random_block_tt([2] * n, 3, 2, rng.integers(1 << 16))
    v = random_block_tt([2] * n, 3, 2, rng.integers(1 << 16))
    env = env_init(u, a, v)
    ok = environment_deviation(env, u, a, v, n - 1) < 1e-12
    p = n - 1
    abar = dense_local_matrix(env, [a.cores[p]], p)
    fu = _frame_matrix(u, p)
    fv = _frame_matrix(v, p)
    ref = fu.T @ tt_reconstruct(a) @ fv
    ok = ok and np.allclose(abar, ref, atol=1e-10)
    y = rng.standard_normal(abar.shape[1])
    ok = ok and np.allclose(projected_matvec(env, [a.cores[p]], p, y),
                            abar @ y, atol=1e-10)
    return ok, "left/right environments match the dense frame projection"


def _check_local_solver(rng):
    m = rng.standard_normal((40, 25))
    u_ref, s_ref, vt_ref = np.linalg.svd(m, full_matrices=False)
    u, s, v, iters = solver_mod.krylov_block_svd(
        lambda y: m @ y, lambda x: m.T @ x, 40, 25, 4, tol=1e-12,
        max_iter=300, seed=3)
    ok = np.allclose(s, s_ref[:4], atol=1e-9)
    ok = ok and np.allclose(np.abs(u.T @ u_ref[:, :4]), np.eye(4), atol=1e-7)
    return ok, f"matrix-free Krylov matches dense SVD in {iters} iterations"


def _check_solver_roundtrip(rng):
    a = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=4)[0]
    cfg = solver_mod.SolverConfig(k=3, epsilon=1e-8, seed=1)
    sig, u, v, rep = solver_mod.mals_svd(a, cfg)
    truth = 0.5 ** np.arange(3)
    err = np.linalg.norm(sig - truth) / np.linalg.norm(truth)
    ok = err <= 1e-7 and rep.termination == "converged"
    return ok, f"merged-core sweeps recover the spectrum, error {err:.2e}"


def _check_serialization(rng, tmp_path=None):
    import tempfile, os
    a = _random_matrix_tt(4, 3, rng)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.tt")
        save_tt(a, path)
        b = load_tt(path)
    ok = isinstance(b, MatrixTT) and all(
        np.array_equal(x, y) for x, y in zip(a.cores, b.cores))
    return ok, "bit-exact container round trip"


def _check_mac_counts(rng):
    r, ra, i, = 4, 3, 2
    env = Environment(3)
    env.lefts[1] = rng.standard_normal((r, ra, r))
    env.rights[1] = rng.standard_normal((r, ra, r))
    acore = rng.standard_normal((ra, i, i, ra))
    y = rng.standard_normal(r * i * r)
    with count_macs() as counter:
        projected_matvec(env, [acore], 1, y)
    formula = i * ra * (r + i * ra) * r ** 2
    ratio = counter.macs / formula
    ok = 0.5 <= ratio <= 2.0
    return ok, f"projected matvec cost is {ratio:.2f}x the model"


_CHECKS = [
    ("reshape-convention", _check_reshape_convention),
    ("truncated-svd", _check_truncated_svd),
    ("dense-qr", _check_dense_qr),
    ("compress-round-bound", _check_compress_round),
    ("vector-algebra", _check_vector_algebra),
    ("matrix-algebra", _check_matrix_algebra),
    ("toeplitz-generator", _check_toeplitz),
    ("hankel-generator", _check_hankel),
    ("shift-generator", _check_shift),
    ("tridiagonal-generator", _check_tridiagonal),
    ("hilbert-generator", _check_hilbert),
    ("prescribed-spectrum", _check_prescribed),
    ("embedding-eigenvalues", _check_embedding_eigs),
    ("environment-frames", _check_environments),
    ("local-krylov-solver", _check_local_solver),
    ("solver-roundtrip", _check_solver_roundtrip),
    ("serialization", _check_serialization),
    ("mac-counters", _check_mac_counts),
]


def run_verification(seed: int = 0, echo=print) -> int:
    """Run every check; print one line each; return the failure count."""
    failures = 0
    for idx, (name, fn) in enumerate(_CHECKS):
        rng = np.random.default_rng([seed, idx])
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        echo(f"{status} {name}: {detail}")
    return failures
