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
    full_toeplitz_tt,
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
    BlockTT,
    MatrixTT,
    VectorTT,
    _rf,
    block_tt_matvec,
    canonicalize,
    gram_tt_round,
    matrix_tt_matmul,
    matrix_tt_transpose,
    tt_add,
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


def _structural_ranks(ranks, mode):
    # bond m can hold at most r_m, and at most mode times either neighbour's
    # cap; propagated from both ends until no cap changes (the boundary
    # ranks 1 give the mode-size products mode^m and mode^(N-m))
    want = list(ranks)
    changed = True
    while changed:
        changed = False
        for m in range(1, len(want) - 1):
            cap = min(want[m], mode * want[m - 1], mode * want[m + 1])
            changed = changed or cap < want[m]
            want[m] = cap
    return want


def _check_round_structural(rng):
    # oversized bonds: a rank-6 chain of mode-2 cores and a product of two
    # 2x2-mode matrix chains; rounding at 0 must shrink every bond to its
    # structural cap, within the bound
    x = VectorTT([rng.standard_normal((r, 2, r2)) for r, r2 in
                  zip([1, 6, 6, 6, 6], [6, 6, 6, 6, 1])])
    ab = matrix_tt_matmul(_random_matrix_tt(4, 3, rng), _random_matrix_tt(4, 3, rng))
    ok, worst = True, 0.0
    for z, mode in ((x, 2), (ab, 4)):
        n = z.n_cores
        zd = tt_reconstruct(z)
        want = _structural_ranks(z.ranks, mode)
        for delta in (0.0, 1e-3):
            y = tt_round(z, delta)
            err = np.linalg.norm(tt_reconstruct(y) - zd) / np.linalg.norm(zd)
            worst = max(worst, err)
            ok = ok and err <= delta * math.sqrt(n - 1) + 1e-13
            ok = ok and all(r <= w for r, w in zip(y.ranks, want))
            ok = ok and (delta > 0 or y.ranks == want)
    return ok, f"ranks reach the structural bound, error {worst:.2e} within bound"


def _check_gram_round(rng):
    # the Gram rounding of a^T a must match tt_round of the formed product:
    # the same ranks and the same error within the rounding bound
    a = _random_matrix_tt(4, 3, rng)
    b = matrix_tt_matmul(matrix_tt_transpose(a), a)
    bd = tt_reconstruct(b)
    nrm = np.linalg.norm(bd)
    ok, worst = True, 0.0
    for delta in (0.0, 1e-2):
        y, z = gram_tt_round(b, a, delta), tt_round(b, delta)
        err = np.linalg.norm(tt_reconstruct(y) - bd) / nrm
        ref = np.linalg.norm(tt_reconstruct(z) - bd) / nrm
        worst = max(worst, abs(err - ref))
        ok = ok and y.ranks == z.ranks and err <= delta * math.sqrt(3) + 1e-13
        ok = ok and abs(err - ref) <= 1e-12 + 1e-6 * ref
    return ok, f"same ranks as tt_round of the product, errors differ by {worst:.1e}"


def _check_vector_algebra(rng):
    x = random_vector_tt([2] * 4, 3, rng.integers(1 << 16))
    y = random_vector_tt([2] * 4, 2, rng.integers(1 << 16))
    xd, yd = tt_to_vector(x), tt_to_vector(y)
    ok = np.allclose(tt_to_vector(tt_add(x, y)), xd + yd, atol=1e-12)
    ok = ok and abs(tt_norm(x) - np.linalg.norm(xd)) < 1e-12
    return ok, "sums and norms match dense vectors"


def _check_matrix_algebra(rng):
    a = _random_matrix_tt(4, 3, rng)
    b = _random_matrix_tt(4, 2, rng)
    u = random_block_tt([2] * 4, 3, 2, rng.integers(1 << 16))
    ad, bd, ud = tt_reconstruct(a), tt_reconstruct(b), tt_reconstruct(u)
    ok = np.allclose(tt_reconstruct(block_tt_matvec(a, u)), ad @ ud,
                     atol=1e-10)
    ok = ok and np.allclose(tt_reconstruct(matrix_tt_matmul(a, b)), ad @ bd,
                            atol=1e-10)
    ok = ok and np.allclose(tt_reconstruct(matrix_tt_transpose(a)), ad.T,
                            atol=1e-12)
    ok = ok and np.allclose(tt_reconstruct(tt_add(a, b)), ad + bd, atol=1e-12)
    return ok, "block matvec, matmul, transpose and sums match dense matrices"


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
    # a_ij = x_(2^N+i-j) also reads x's last core, through the final borrow
    x = random_vector_tt([2] * (n + 1), 2, rng.integers(1 << 16))
    a = full_toeplitz_tt(x)
    i, j = np.indices((m, m))
    ref = tt_to_vector(x)[m - 1 + i - j]
    ok = ok and np.allclose(tt_reconstruct(a), ref, atol=1e-12)
    ok = ok and all(r <= 2 * q for r, q in zip(a.ranks[1:-1], x.ranks[1:-1]))
    return ok, "upper entries s_(j-i) ranks 2R; full x_(2^N+i-j) ranks <= 2R"


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
    delta = 1e-10
    errs = []
    for n in (4, 10):
        rows, cols = 2 ** n, 2 ** (n - 1)
        ref = 1.0 / (np.add.outer(np.arange(rows), np.arange(cols)) + 1.0)
        got = tt_reconstruct(hilbert_submatrix_tt(n, delta))
        errs.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return max(errs) <= delta, (f"entries (i+j-1)^-1 at N=4/10, relative "
                                f"error {errs[0]:.2e}/{errs[1]:.2e} "
                                f"(<= delta {delta:g})")


def _check_prescribed(rng):
    a, u0, v0, spectrum = prescribed_svd_matrix(6, 0.5, k0=8, rank=3, seed=7)
    sd = np.linalg.svd(tt_reconstruct(a), compute_uv=False)
    ok = np.allclose(sd[:8], spectrum, atol=1e-9) and np.allclose(sd[8:], 0.0,
                                                                  atol=1e-9)
    return ok, "dense SVD of the construction recovers beta^k exactly"


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
        lambda y: m @ y, lambda x: m.T @ x, 40, 25, 4, max_iter=300, seed=3)
    ok = np.allclose(s, s_ref[:4], atol=1e-9)
    ok = ok and np.allclose(np.abs(u.T @ u_ref[:, :4]), np.eye(4), atol=1e-7)
    return ok, f"matrix-free Krylov matches dense SVD in {iters} iterations"


def _check_local_paths_agree(rng):
    # the merged-pair window at the end of a prescribed N=8 chain, solved by
    # a dense SVD and by block Krylov on the built local matrix
    n, k = 8, 4
    a = prescribed_svd_matrix(n, 0.5, k0=8, rank=3, seed=5)[0]
    u = random_block_tt([2] * n, k, 8, rng.integers(1 << 16))
    v = random_block_tt([2] * n, k, 8, rng.integers(1 << 16))
    env = env_init(u, a, v)
    abar = dense_local_matrix(env, a.cores[n - 2:], n - 2)
    _, s_dense, _ = solver_mod.dense_block_svd(abar, k)
    _, s_krylov, _, iters = solver_mod.krylov_block_svd(
        lambda y: abar @ y, lambda x: abar.T @ x, *abar.shape, k, seed=3)
    err = float(np.max(np.abs(s_krylov - s_dense) / s_dense))
    return err <= 1e-10, (f"{abar.shape[0]} x {abar.shape[1]} window: dense "
                          f"and block Krylov ({iters} steps) sigma agree to "
                          f"{err:.1e}")


def _check_orthonormalize(rng):
    # both paths of the Krylov block orthonormalization: a basis of at most
    # one block takes one Householder QR, a wider one the projections
    def case(n, b, k, inside, rank):
        basis, _ = np.linalg.qr(rng.standard_normal((n, b)))
        w = (basis @ rng.standard_normal((b, k)) if inside
             else rng.standard_normal((n, k)))
        if rank:  # nearly dependent: a rank-deficient new part and noise
            new = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
            w = w + new + 1e-8 * rng.standard_normal((n, k))
        return basis, w

    leak = defect = 0.0
    for basis, w in (case(60, 5, 5, True, 0),     # inside a one-block basis
                     case(200, 8, 8, True, 2),    # nearly dependent, b <= K
                     case(200, 30, 8, True, 2),   # nearly dependent, b > K
                     case(200, 40, 5, False, 0)):  # wide basis
        q = solver_mod._orthonormalize_block(w, basis, rng)
        leak = max(leak, float(np.max(np.abs(basis.T @ q))))
        defect = max(defect, float(np.linalg.norm(
            q.T @ q - np.eye(q.shape[1]), 2)))
    return leak <= 1e-12 and defect <= 1e-12, (
        f"max |B^T q| {leak:.1e}, ||q^T q - I|| {defect:.1e} on both paths")


def _check_solver_roundtrip(rng):
    a = prescribed_svd_matrix(5, 0.5, k0=6, rank=2, seed=4)[0]
    cfg = solver_mod.SolverConfig(k=3, epsilon=1e-8, seed=1)
    sig, u, v, rep = solver_mod.mals_svd(a, cfg)
    truth = 0.5 ** np.arange(3)
    err = np.linalg.norm(sig - truth) / np.linalg.norm(truth)
    ok = err <= 1e-7 and rep.termination == "converged"
    return ok, f"merged-core sweeps recover the spectrum, error {err:.2e}"


def _check_serialization(rng):
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


def _check_residual_gauge(rng):
    # exact triplets of a prescribed N=6 matrix, one core of V nudged by
    # 1e-12: the residual lies in directions the sweep's rank cut drops
    # unless the chains are in the canonical gauge.  Every chain gets two
    # core pairs re-scaled by 1e+-6 and no orthogonality tags; the operator
    # also goes in as a solve passes it, gauged and tagged by canonicalize.
    n = 6
    a, u, v, sigma = prescribed_svd_matrix(n, 0.5, k0=8, rank=3,
                                           seed=int(rng.integers(1 << 16)))
    cores = list(v.cores)
    cores[3] = cores[3] + 1e-12 * rng.standard_normal(cores[3].shape)
    v = BlockTT(cores, v.block_position)
    ad, ud, vd = tt_reconstruct(a), tt_reconstruct(u), tt_reconstruct(v)
    want = np.linalg.norm(ad.T @ ud - vd * sigma) / np.linalg.norm(sigma)

    def regauged(chain, f):
        cores = [c.copy() for c in chain.cores]
        for m, g in ((1, f), (n - 3, 1.0 / f)):
            cores[m], cores[m + 1] = cores[m] * g, cores[m + 1] / g
        return chain._with(cores)  # no tags
    err = max(abs(solver_mod.residual(op, regauged(u, f), regauged(v, f),
                                      sigma) - want)
              for f in (1e6, 1e-6)
              for op in (regauged(a, f), canonicalize(regauged(a, f), 0)))
    return err <= 1e-14, (f"re-gauged residual of {want:.3e} differs from "
                          f"dense by {err:.1e}")


_CHECKS = [
    ("reshape-convention", _check_reshape_convention),
    ("truncated-svd", _check_truncated_svd),
    ("dense-qr", _check_dense_qr),
    ("compress-round-bound", _check_compress_round),
    ("round-structural-ranks", _check_round_structural),
    ("vector-algebra", _check_vector_algebra),
    ("matrix-algebra", _check_matrix_algebra),
    ("toeplitz-generator", _check_toeplitz),
    ("hankel-generator", _check_hankel),
    ("shift-generator", _check_shift),
    ("tridiagonal-generator", _check_tridiagonal),
    ("hilbert-generator", _check_hilbert),
    ("prescribed-spectrum", _check_prescribed),
    ("environment-frames", _check_environments),
    ("local-krylov-solver", _check_local_solver),
    ("local-paths-agree", _check_local_paths_agree),
    ("krylov-orthonormalize", _check_orthonormalize),
    ("solver-roundtrip", _check_solver_roundtrip),
    ("serialization", _check_serialization),
    ("mac-counters", _check_mac_counts),
    ("gram-round", _check_gram_round),
    ("residual-gauge", _check_residual_gauge),
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
