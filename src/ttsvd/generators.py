"""Explicit TT constructions for structured test matrices.

All generators work on quantized chains (every mode size 2) and return exact
TT representations wherever the structure permits: triangular Toeplitz,
Hankel and full Toeplitz matrices from a generating vector by one
borrow-channel core mixing (Kazeev, Khoromskij & Tyrtyshnikov, SIAM J. Sci.
Comput. 35, 2013), shift and tridiagonal matrices, a Hilbert-like submatrix
as an exponential sum of rank-1 matrix chains, and random matrices with a
prescribed singular spectrum.

Index conventions (1-based in the formulas, 0-based in code):

* upper-triangular Toeplitz   t_{ij} = s_{j-i}            for j > i
* upper anti-triangular Hankel h_{ij} = s_{2^N+1-i-j}     for i + j <= 2^N
* full Toeplitz               a_{ij} = x_{2^N+i-j}
* Hilbert submatrix           h_{ij} = 1 / (i+j-1),       2^N x 2^{N-1}
"""

from __future__ import annotations

import math

import numpy as np

from .dense import _integer, _real, dense_qr
from .tt import (
    BlockTT,
    MatrixTT,
    VectorTT,
    _as_matrix,
    _fuse,
    _rf,
    block_tt_scale_columns,
    canonicalize,
    diag_embed,
    matrix_tt_matmul,
    matrix_tt_transpose,
    tt_add,
    tt_round,
)

# Tridiagonal sums and full Toeplitz mixings are rounded at _ASSEMBLY_DELTA.
_ASSEMBLY_DELTA = 1e-13
# The Hilbert matrix is a sum of exponentials (hilbert_submatrix_tt): the
# floor of the quadrature target, terms per rounded chunk, the floor of the
# chunk rounding delta, and the largest N.  The sinc step and both cut-offs
# follow from one target max(delta/10, _EXPSUM_TARGET_FLOOR), so the term
# count shrinks with delta: 91 at delta 1e-8, 41 at 1e-4 and 158 at 1e-12
# for N=20.  Chunks are rounded relative to the target delta, so the
# running sum keeps the matrix's own rank (8 at delta 1e-8, N=16..100); a
# fixed 1e-16 would keep rounding noise as rank (169 at N=100).  The chunk
# size sets the largest unrounded sum: 24 terms keep the N=20 build's
# tracemalloc peak at 1.0 MiB (32 terms: 1.7 MiB).  The quadrature covers
# 1 <= x < 2^(N+1), which must be a finite float, so N stops at 1022.
_EXPSUM_TARGET_FLOOR = 1e-14
_EXPSUM_CHUNK = 24
_EXPSUM_DELTA = 1e-16
_EXPSUM_MAX_N = 1022


# ---------------------------------------------------------------------------
# borrow-channel mixing for Toeplitz-type matrices


def _borrow_table() -> np.ndarray:
    """Entry (k, c_out, c_in, i, j) is 1 where j - i - c_in has low bit k and
    borrow c_out; Hankel mixing flips the column bit ([..., ::-1])."""
    k, c_out, c_in, i, j = np.indices((2,) * 5)
    d = j - i - c_in
    return ((d % 2 == k) & ((d < 0) == c_out)).astype(float)


_BORROW_TABLE = _borrow_table()
_NO_BORROW = np.array([[1.0, 0.0]])


def _mixed_matrix_tt(cores, table: np.ndarray, last: np.ndarray) -> MatrixTT:
    """Mix generating cores, least significant bit first, with ``table``.

    A channel c carries the borrow of j - i over the bits of i and j seen so
    far, so every interior rank is twice the core's.  The first core gets
    borrow c_in = 1, and ``last`` (R_N, 2) weighs the last core's right bond
    b and final borrow c_out by last[b, c_out]; ``_NO_BORROW`` selects
    t_{ij} = s_{j-i} for j > i.
    """
    if any(c.shape[1] != 2 for c in cores) or last.shape[1] != 2:
        raise ValueError("generating vector must have mode sizes 2")
    out = []
    for c in cores:
        r, _, r2 = c.shape
        g = np.einsum("akb,kpqij->aqijbp", c, table, optimize=True)
        out.append(_rf(g, (r * 2, 2, 2, r2 * 2)))
    out[0] = out[0][1:]  # inject borrow c_in = 1
    g = _rf(out[-1], out[-1].shape[:3] + last.shape)
    out[-1] = np.tensordot(g, last, axes=([3, 4], [0, 1]))[..., np.newaxis]
    return MatrixTT(out)


def toeplitz_tt(s: VectorTT) -> MatrixTT:
    """Strictly upper-triangular Toeplitz matrix t_{ij} = s_{j-i} (j > i).

    Exact; interior output ranks are exactly twice the ranks of ``s``.  The
    last entry of ``s`` is never referenced by the matrix.
    """
    return _mixed_matrix_tt(s.cores, _BORROW_TABLE, _NO_BORROW)


def hankel_tt(s: VectorTT) -> MatrixTT:
    """Upper anti-triangular Hankel matrix h_{ij} = s_{2^N+1-i-j} (i+j <= 2^N).

    Exact; interior output ranks are exactly twice the ranks of ``s``.
    """
    return _mixed_matrix_tt(s.cores, _BORROW_TABLE[..., ::-1], _NO_BORROW)


def _restrict_first_half_columns(a: MatrixTT) -> MatrixTT:
    """Keep columns 1..2^{N-1} and fold the freed row mode into core N-1.

    The first half of the column range is exactly the slice where the slowest
    column bit is 0, so the last core loses its column mode and its row mode
    is merged (faster-first) into the previous core's row mode.
    """
    if a.n_cores < 2:
        raise ValueError("need at least two cores to restrict and fold")
    cores = [c.copy() for c in a.cores]
    last = cores[-1][:, :, 0, :]  # (r, i_N, 1)
    g = np.tensordot(cores[-2], last, axes=(3, 0))  # (r, i, j, i_N, 1)
    g = g.transpose(0, 1, 3, 2, 4)
    r, i, i2, j, _ = g.shape
    cores = cores[:-2] + [_rf(g, (r, i * i2, j, 1))]
    return MatrixTT(cores)


def hankel_submatrix_tt(s: VectorTT) -> MatrixTT:
    """The 2^N x 2^{N-1} left-column block of the Hankel matrix of ``s``."""
    return _restrict_first_half_columns(hankel_tt(s))


def shift_tt(n: int) -> MatrixTT:
    """2^n x 2^n shift matrix F with ones on the first superdiagonal; ranks <= 2."""
    e1 = np.array([1.0, 0.0]).reshape(1, 2, 1)
    return toeplitz_tt(VectorTT([e1] * n))


def tridiagonal_tt(a: VectorTT, b: VectorTT, c: VectorTT) -> MatrixTT:
    """Tridiagonal matrix with subdiagonal a, diagonal b, superdiagonal c.

    Entry (m+1, m) = a_m, entry (m, m) = b_m, entry (m, m+1) = c_{m+1};
    assembled as F^T diag(a) + diag(b) + F diag(c) and rounded at
    ``_ASSEMBLY_DELTA``.
    """
    if not (a.mode_sizes == b.mode_sizes == c.mode_sizes):
        raise ValueError("tridiagonal diagonals must share mode sizes")
    n = a.n_cores
    shift = shift_tt(n)
    lower = matrix_tt_matmul(matrix_tt_transpose(shift), diag_embed(a))
    upper = matrix_tt_matmul(shift, diag_embed(c))
    total = tt_add(tt_add(lower, diag_embed(b)), upper)
    return tt_round(total, _ASSEMBLY_DELTA)


def full_toeplitz_tt(x: VectorTT) -> MatrixTT:
    """Full (two-sided) Toeplitz matrix a_{ij} = x_{2^N + i - j}.

    ``x`` must have N+1 cores (length 2^{N+1}); its very last entry is never
    referenced.  The 0-based entry x[2^N + (i - j - 1)] is one subtraction
    with borrow: the first N cores of ``x`` are mixed with the borrow table,
    and the top bit of the index, 1 - borrow, reads x's last core with its
    mode reversed.  That is the transpose of a Toeplitz mixing, with bond
    ranks 2R before the one rounding at ``_ASSEMBLY_DELTA``.
    """
    if x.n_cores < 2:
        raise ValueError("need length >= 4 (at least two cores)")
    t = _mixed_matrix_tt(x.cores[:-1], _BORROW_TABLE, x.cores[-1][:, ::-1, 0])
    return tt_round(matrix_tt_transpose(t), _ASSEMBLY_DELTA)


def _exponential_sum_tt(t: np.ndarray, w: np.ndarray, n: int) -> MatrixTT:
    """sum_k w_k exp(-t_k (i+j+1)) on the 2^n x 2^(n-1) grid, rank len(t).

    Term k is rank 1: core b holds exp(-t_k 2^b (r + c)) for row bit r and
    column bit c, so the product over the bits of i and j is
    exp(-t_k (i + j)).  The last core takes row bits n-2 and n-1 as one
    mode r = 0..3 (faster first) and column bit n-2.  Core 0 also carries
    w_k exp(-t_k), the +1 of x = i+j+1.
    """
    k = len(t)
    diag = np.arange(k)
    cores = []
    for b, rows in enumerate([2] * (n - 2) + [4]):
        x = np.add.outer(np.arange(rows), np.arange(2))  # r + c
        c = np.zeros((k, rows, 2, k))
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the entry
            c[diag, :, :, diag] = np.exp(-np.ldexp(np.multiply.outer(t, x), b))
        cores.append(c)
    cores[0] = np.tensordot(w * np.exp(-t), cores[0], axes=(0, 0))[np.newaxis]
    cores[-1] = cores[-1].sum(axis=3, keepdims=True)
    return MatrixTT(cores)


def hilbert_submatrix_tt(n: int, delta: float) -> MatrixTT:
    """2^n x 2^{n-1} matrix with entries 1/(i+j-1), as an exponential sum.

    Sinc quadrature of 1/x = integral of exp(s - x e^s) ds, sized to the
    target q = max(delta/10, _EXPSUM_TARGET_FLOOR).  The integrand is
    analytic for |Im s| < pi/2, so the trapezoid rule with step
    h = pi^2 / ln(10/q) errs by about exp(-pi^2/h) = q/10 relative, uniformly
    in x.  Cutting s below ln q - (n+1) ln 2 drops at most e^s < q/2^(n+1),
    and cutting above ln ln(1/q) drops exp(-x ln(1/q))/x <= q/x, both at most
    q relative on 1 <= x < 2^(n+1).  The nodes s_k run from the lower cut in
    steps of h until one passes the upper cut, and give
    1/x ~ sum_k w_k exp(-t_k x) with t_k = e^(s_k), w_k = h t_k (91 terms
    at N=20, delta 1e-8; 41 at delta 1e-4).  With x = i+j+1 (0-based) every
    term is a rank-1 matrix chain (Braess & Hackbusch, IMA J. Numer. Anal.
    25, 2005), so no array of length 2^n is formed.  Chunks of
    _EXPSUM_CHUNK terms are added, and each of the first m - 1 of the
    m = ceil(terms / _EXPSUM_CHUNK) running sums is rounded at
    c = max(_EXPSUM_DELTA, delta / (10 m sqrt(n-2))).  Every term is positive
    entrywise, so no partial sum has a larger norm than the full sum H_q, and
    with tt_round's bound of c sqrt(n-2) ||x|| per rounding on the chain's
    n-1 cores, these roundings move the sum by at most
    max(delta/10, m sqrt(n-2) _EXPSUM_DELTA) ||H_q||_F to first order.  The
    last running sum, the full sum, is rounded at delta/10, so
    ||H_tt - H||_F <= delta ||H||_F down to an error floor of about 1e-13
    relative.  The build takes about 4/5/22/74 ms at N=16/20/50/100 and
    delta 1e-8 (one BLAS thread, AMD EPYC); each chunk rounding sweeps all
    n cores, so it grows as O(n^2).  n may not exceed _EXPSUM_MAX_N, and
    delta must be a real in (0, 1) (``dense._real``): from delta = 1 on,
    the bound asks for nothing (the zero matrix meets it), and from
    delta = 10 on the cut-off ln ln(1/q) is undefined.
    """
    n = _integer("n", n, 2)
    if n > _EXPSUM_MAX_N:
        raise ValueError(f"need n <= {_EXPSUM_MAX_N}: the Hilbert quadrature "
                         f"covers 1 <= x < 2^(n+1), which overflows a float "
                         f"from n = 1023 on")
    delta = _real("delta", delta, 0, 1)
    q = max(delta / 10, _EXPSUM_TARGET_FLOOR)
    h = math.pi ** 2 / math.log(10 / q)
    first = math.log(q) - (n + 1) * math.log(2.0)
    last = math.log(-math.log(q))
    t = np.exp(first + h * np.arange(math.ceil((last - first) / h) + 1))
    chunks = -(-len(t) // _EXPSUM_CHUNK)
    # n = 2 is one core with no bond to round
    bonds = max(n - 2, 1)
    cdelta = max(_EXPSUM_DELTA, delta / (10 * chunks * math.sqrt(bonds)))
    total = None
    for lo in range(0, len(t), _EXPSUM_CHUNK):
        tk = t[lo:lo + _EXPSUM_CHUNK]
        part = _exponential_sum_tt(tk, h * tk, n)
        total = part if total is None else tt_add(total, part)
        final = lo + _EXPSUM_CHUNK >= len(t)
        total = tt_round(total, delta * 0.1 if final else cdelta)
    return total


# ---------------------------------------------------------------------------
# random chains


def _as_modes(modes) -> list[int]:
    if np.isscalar(modes):
        return [2] * _integer("n", modes, 1)
    return [_integer("mode size", m, 1) for m in modes]


def random_vector_tt(modes, rank: int, seed) -> VectorTT:
    """Unit-norm, left-orthogonal VectorTT: ``random_block_tt`` at K = 1.

    ``modes`` is either the chain length (all mode sizes 2) or an explicit
    list of mode sizes; every interior bond gets ``rank``, clipped to what
    the mode sizes can support.
    """
    return _fuse(random_block_tt(modes, 1, rank, seed))


def _block_rank_profile(modes: list[int], k: int, rank: int) -> list[int]:
    """Feasible bond ranks for K orthonormal columns with the block core last.

    At K = 1 these are the ranks of a single vector.

    Each bond gets ``rank``, raised to at least ceil(K / prod of later mode
    sizes) and clipped to min(prod of earlier mode sizes, K * prod of later
    sizes).  The products run from both ends, capped at max(rank, K): no
    bond gets more than that, and past it ceil(K / later) is 1, so the cap
    changes no bond and no integer grows toward prod(modes).
    """
    n = len(modes)
    bound = max(rank, k)
    earlier, later = [1] * (n + 1), [1] * (n + 1)
    for m in range(n):
        earlier[m + 1] = min(earlier[m] * modes[m], bound)
        later[n - 1 - m] = min(later[n - m] * modes[n - 1 - m], bound)
    prof = []
    for bond in range(1, n):
        floor = math.ceil(k / later[bond])
        cap = min(earlier[bond], k * later[bond])
        r = max(rank, floor)
        prof.append(max(1, min(r, cap)))
    return [1] + prof + [1]


def random_block_tt(modes, k: int, rank: int, seed) -> BlockTT:
    """BlockTT with K dense-orthonormal columns, block core at the last position.

    Cores are drawn standard-normal at the feasibility-clipped rank profile,
    the chain is left-orthogonalized, and the block core is orthonormalized
    column-wise by a QR factorization.  ``seed`` is a
    ``np.random.SeedSequence`` or an integer of at least 0 (``dense._integer``);
    None, which would draw fresh OS entropy, is refused.
    """
    modes = _as_modes(modes)
    n = len(modes)
    k, rank = _integer("k", k, 1), _integer("rank", rank, 1)
    if k > math.prod(modes):
        raise ValueError("block size k out of range")
    rng = np.random.default_rng(seed if isinstance(seed, np.random.SeedSequence)
                                else _integer("seed", seed, 0))
    prof = _block_rank_profile(modes, k, rank)
    cores = [
        rng.standard_normal((prof[m], modes[m], prof[m + 1]))
        for m in range(n - 1)
    ]
    block = rng.standard_normal((prof[n - 1], k, modes[n - 1], 1))
    chain = BlockTT(cores + [block], n - 1)
    chain = canonicalize(chain, n - 1)
    bc = chain.cores[-1]
    r, _, i, _ = bc.shape
    m = _rf(bc.transpose(0, 2, 3, 1), (r * i, k))
    q, _ = dense_qr(m)
    chain.cores[-1] = _rf(q, (r, i, 1, k)).transpose(0, 3, 1, 2)
    chain.orth[-1] = None
    return chain


# ---------------------------------------------------------------------------
# prescribed-spectrum random matrices


def prescribed_svd_matrix(n: int, beta: float, k0: int = 25, rank: int = 5,
                          seed=0):
    """Random 2^n x 2^n matrix with singular values beta**(k-1), k = 1..k0.

    Returns ``(a, u0, v0, spectrum)``: the matrix in TT form, the two random
    orthonormal factors as BlockTTs, and the spectrum array.  ``a`` is the
    product u0 diag(spectrum) v0^T of the factors' matrix views
    (``matrix_tt_matmul``), so its bond ranks are the products of theirs
    and its reconstruction equals u0 @ diag(spectrum) @ v0.T exactly.
    ``beta`` is a real in (0, 1) (``dense._real``) and ``seed`` an integer
    of at least 0.
    """
    beta = _real("beta", beta, 0, 1)
    n, k0 = _integer("n", n, 1), _integer("k0", k0, 1)
    if k0 > 2 ** n:
        raise ValueError("k0 out of range")
    ss = np.random.SeedSequence(_integer("seed", seed, 0)).spawn(2)
    u0 = random_block_tt(n, k0, rank, ss[0])
    v0 = random_block_tt(n, k0, rank, ss[1])
    spectrum = beta ** np.arange(k0, dtype=float)
    a = matrix_tt_matmul(_as_matrix(block_tt_scale_columns(u0, spectrum)),
                         matrix_tt_transpose(_as_matrix(v0)))
    return a, u0, v0, spectrum
