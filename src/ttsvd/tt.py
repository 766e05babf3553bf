"""Tensor-train formats and arithmetic.

Three chain formats share one bond convention (boundary ranks 1, adjacent
bonds equal):

* ``VectorTT``   - N third-order cores (R_{n-1}, I_n, R_n).
* ``MatrixTT``   - N fourth-order cores (R_{n-1}, I_n, J_n, R_n) carrying a
  row mode and a column mode each.
* ``BlockTT``    - N cores, exactly one of which (the *block core*, at a
  movable position) is fourth-order (R_{n-1}, K, I_n, R_n) and carries the
  shared extra mode of size K; the chain represents K vectors on one TT basis.

Operations that touch only the bonds (rounding, norm, sum) are written once,
for a VectorTT; the other formats run them on their *fused view*, a VectorTT
whose cores fuse their middle modes into one (row mode fastest, K fastest).
Products with an operator and reconstructions are written once, for a
MatrixTT; a VectorTT or BlockTT runs them on its *matrix view*, whose cores
take a column mode of size 1, or K at the block core.

All unfoldings and mode fusions are column-major (``order="F"``, first axis
fastest), matching the package-wide multi-index convention; the realized
vector of a chain puts mode 1 fastest.  Orthogonality is tracked per core as
"L" / "R" / None tags, one convention for all three formats on the fused
view: "L" means the unfolding with the right bond as columns has
orthonormal columns, "R" that the unfolding with the left bond as rows has
orthonormal rows.  The operations that establish or destroy it maintain
them (``canonicalize`` sets both kinds), transposing a MatrixTT keeps them,
and tests verify them against dense reconstructions.
"""

from __future__ import annotations

import math

import numpy as np

from .dense import _check_delta, dense_qr, truncated_svd


def _rf(a: np.ndarray, shape) -> np.ndarray:
    return np.reshape(a, tuple(shape), order="F")


class _Chain:
    """Cores of one chain format: order, boundary-rank and bond checks."""

    def __init__(self, cores, orth=None):
        self.cores = [np.asarray(c, dtype=float) for c in cores]
        what = type(self).__name__
        if not self.cores:
            raise ValueError(f"{what} needs at least one core")
        for n, c in enumerate(self.cores):
            if c.ndim != self._order(n):
                raise ValueError(
                    f"{what} core {n} must be order {self._order(n)}, got {c.ndim}"
                )
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[-1] != 1:
            raise ValueError(f"{what} boundary ranks must be 1")
        for n in range(len(self.cores) - 1):
            if self.cores[n].shape[-1] != self.cores[n + 1].shape[0]:
                raise ValueError(
                    f"{what} bond mismatch between cores {n} and {n + 1}: "
                    f"{self.cores[n].shape[-1]} vs {self.cores[n + 1].shape[0]}"
                )
        self.orth = list(orth) if orth is not None else [None] * len(self.cores)

    def _order(self, n: int) -> int:
        return 3

    def _with(self, cores, orth=None):  # same format and block position
        return type(self)(cores, orth)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> list[int]:
        return [self.cores[0].shape[0]] + [c.shape[-1] for c in self.cores]

    def copy(self):
        return self._with([c.copy() for c in self.cores], self.orth)


class VectorTT(_Chain):
    @property
    def mode_sizes(self) -> list[int]:
        return [c.shape[1] for c in self.cores]


class MatrixTT(_Chain):
    """Chain of (R, I, J, R) cores."""

    def _order(self, n: int) -> int:
        return 4

    @property
    def row_sizes(self) -> list[int]:
        return [c.shape[1] for c in self.cores]

    @property
    def col_sizes(self) -> list[int]:
        return [c.shape[2] for c in self.cores]

    @property
    def n_rows(self) -> int:
        return math.prod(self.row_sizes)

    @property
    def n_cols(self) -> int:
        return math.prod(self.col_sizes)


class BlockTT(_Chain):
    """TT chain with one fourth-order core (R_{n-1}, K, I_n, R_n) of block size K."""

    def __init__(self, cores, block_position: int, orth=None):
        self.block_position = int(block_position)
        if not 0 <= self.block_position < len(cores):
            raise ValueError("block position out of range")
        super().__init__(cores, orth)

    def _order(self, n: int) -> int:
        return 4 if n == self.block_position else 3

    def _with(self, cores, orth=None):
        return BlockTT(cores, self.block_position, orth)

    @property
    def k(self) -> int:
        return self.cores[self.block_position].shape[1]

    @property
    def mode_sizes(self) -> list[int]:
        return [
            c.shape[2] if n == self.block_position else c.shape[1]
            for n, c in enumerate(self.cores)
        ]


def _fuse(x) -> VectorTT:
    """The fused view of a chain; a VectorTT is its own, tags included."""
    if isinstance(x, VectorTT):
        return x
    return VectorTT([_rf(c, (c.shape[0], -1, c.shape[-1])) for c in x.cores])


def _restore(y: VectorTT, like):
    """Inverse of ``_fuse``: ``y``'s cores unfused to the middle modes of ``like``."""
    if isinstance(like, VectorTT):
        return y
    cores = [_rf(c, (c.shape[0], *o.shape[1:-1], c.shape[-1]))
             for c, o in zip(y.cores, like.cores)]
    return like._with(cores, y.orth)


def _as_matrix(x) -> MatrixTT:
    """The columns of a VectorTT (one) or a BlockTT (K) as a MatrixTT of views.

    A third-order core (R, I, R') becomes (R, I, 1, R'), the block core
    (R, K, I, R') becomes (R, I, K, R'), so products and reconstructions of
    vector and block chains run on the matrix code.
    """
    return MatrixTT([c[:, :, np.newaxis] if c.ndim == 3 else c.transpose(0, 2, 1, 3)
                     for c in x.cores])


# ---------------------------------------------------------------------------
# reconstruction


def tt_reconstruct(x):
    """Materialize a chain densely.

    VectorTT -> N-way array of shape (I_1, ..., I_N); MatrixTT -> matrix of
    shape (prod I, prod J); BlockTT -> matrix of shape (prod I, K).  Caller is
    responsible for keeping the result small enough to hold.
    """
    if not isinstance(x, _Chain):
        raise TypeError(f"cannot reconstruct {type(x)!r}")
    if isinstance(x, BlockTT):
        return tt_reconstruct(_as_matrix(x))
    g = x.cores[0]
    for c in x.cores[1:]:
        g = np.tensordot(g, c, axes=(-1, 0))
    g = g[0, ..., 0]  # every core's middle modes, in chain order
    if isinstance(x, MatrixTT):  # axes (I1, J1, I2, J2, ...)
        n = x.n_cores
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return _rf(g.transpose(perm), (x.n_rows, x.n_cols))
    return g


def tt_to_vector(x: VectorTT) -> np.ndarray:
    return tt_reconstruct(x).ravel(order="F")


# ---------------------------------------------------------------------------
# compression / rounding / orthogonalization


def tt_svd_compress(t: np.ndarray, delta: float) -> VectorTT:
    """Compress a dense tensor into a VectorTT by successive truncated SVDs.

    Each sequential unfolding is truncated so the discarded tail stays below
    delta * ||t||_F, giving a total reconstruction error bounded by
    delta * sqrt(N-1) * ||t||_F.  Cores come out left-orthogonal except the
    last one.
    """
    _check_delta(delta)
    t = np.asarray(t, dtype=float)
    shape = t.shape
    n_modes = t.ndim
    norm = float(np.linalg.norm(t))
    thr = delta * norm
    cores = []
    r_prev = 1
    mat = _rf(t.ravel(order="F"), (shape[0], -1))
    for n in range(n_modes - 1):
        f = truncated_svd(mat, 0.0, frob_threshold=thr)
        r_new = len(f.s)
        cores.append(_rf(f.u, (r_prev, shape[n], r_new)))
        mat = f.s[:, None] * f.v.T
        mat = _rf(mat.ravel(order="F"), (r_new * shape[n + 1], -1))
        r_prev = r_new
    cores.append(_rf(mat, (r_prev, shape[-1], 1)))
    orth = ["L"] * (n_modes - 1) + [None]
    return VectorTT(cores, orth)


def canonicalize(x, p: int):
    """An equal chain, left-orthogonal before core p and right-orthogonal after it.

    ``x`` is not changed; the result shares the cores that need no QR with
    it.  A core whose ``orth`` tag already says so is kept as it is; any
    other gets a QR (``dense_qr`` of its column-major unfolding) whose R
    factor moves into its neighbour toward core p, which then counts as
    untagged.  Cores before p come out tagged "L", cores after it "R".
    Core p itself is never factorized, so a BlockTT is canonicalized at its
    block core and nowhere else.  A non-finite core that needs a QR raises
    ``ValueError``.
    """
    if not 0 <= p < x.n_cores or (isinstance(x, BlockTT)
                                   and p != x.block_position):
        raise ValueError(f"cannot canonicalize at core {p}")
    cores, orth = list(x.cores), list(x.orth)
    for m in range(p):
        if orth[m] == "L":
            continue
        c = cores[m]
        q, r = dense_qr(_rf(c, (-1, c.shape[-1])))
        cores[m] = _rf(q, (*c.shape[:-1], q.shape[1]))
        cores[m + 1] = np.tensordot(r, cores[m + 1], axes=(1, 0))
        orth[m], orth[m + 1] = "L", None
    for m in range(x.n_cores - 1, p, -1):
        if orth[m] == "R":
            continue
        c = cores[m]
        q, r = dense_qr(_rf(c, (c.shape[0], -1)).T)
        cores[m] = _rf(q.T, (q.shape[1], *c.shape[1:]))
        prv = cores[m - 1]
        cores[m - 1] = _rf(_rf(prv, (-1, prv.shape[-1])) @ r.T,
                           (*prv.shape[:-1], -1))
        orth[m], orth[m - 1] = "R", None
    return x._with(cores, orth)


def _check_finite(cores) -> None:
    for n, c in enumerate(cores):
        if not np.all(np.isfinite(c)):
            raise ValueError(f"core {n} of the chain holds NaN or inf")


def _right_r_factors(cores) -> list:
    """R factors of the right parts of a chain, for its norm and its rounding.

    ``rs[n]`` (n = 0..N-1) is an upper-triangular (s_n, R_{n-1}) matrix such
    that the unfolding of cores n..N-1 with bond n-1 as rows equals
    ``rs[n].T @ Q^T`` for some Q with orthonormal columns; ``rs[N]`` is the
    1 x 1 identity, and ``rs[0]`` is 1 x 1 with |rs[0]| = ||x||.  Each comes
    from an R-only QR of core n times ``rs[n+1].T``, so no Q core is ever
    built.  The rounding sweep reads only rs^T rs, the Gram matrix of each
    right part, so ``gram_r_factors`` may hand it factors that are not
    triangular.  A non-finite core raises ``ValueError``.
    """
    _check_finite(cores)
    rs = [None] * len(cores) + [np.ones((1, 1))]
    for n in range(len(cores) - 1, -1, -1):
        g = np.tensordot(cores[n], rs[n + 1], axes=(2, 1))  # (R_{n-1}, I_n, s)
        rs[n] = np.linalg.qr(_rf(g, (g.shape[0], -1)).T, mode="r")
    return rs


def gram_r_factors(a: MatrixTT) -> list:
    """``_right_r_factors`` of B = A^T A, computed from the cores of A.

    ``matrix_tt_matmul(matrix_tt_transpose(a), a)`` gives B the cores
    C[(a,c), j, m, (b,d)] = sum_i A[a,i,j,b] A[c,i,m,d], with bond index
    a + p c, which the swap (a, j, b) <-> (c, m, d) leaves unchanged.  The
    Gram matrix of every right part of B therefore commutes with the swap
    of its bond pair, and in the orthogonal pair basis e_aa,
    (e_ac + e_ca)/sqrt(2) (even) and (e_ac - e_ca)/sqrt(2) (odd) its R
    factor is block diagonal.  So each core runs two R-only QRs, over the
    p(p+1)/2 even and the p(p-1)/2 odd columns, instead of one over all p^2.

    A row of core n's QR input is indexed by the mode pair x = (j, m) and a
    row mu of ``rs[n+1]``, whose parity under the swap is known: even rows
    come first.  Within a block of parity e, row (Px, mu) is e * parity(mu)
    times row (x, mu).  So each mode pair j < m enters once, scaled by
    sqrt(2), and a diagonal pair j = m only with the rows mu of parity e
    (with the others it cancels); the Gram matrix, and with it the R
    factor, is unchanged.  The input comes straight from A's cores and
    ``rs[n+1]`` by two matrix products,
    sum_{b,d,i} A[a,i,j,b] A[c,i,m,d] R[mu, b + q d], so B's cores are never
    read.  Each factor is mapped back to the natural bond columns, even rows
    first: it is not triangular, but rs^T rs is the Gram matrix of the right
    part, which is all the rounding sweep needs.

    A tall parity input gets an R-only QR.  A wide one, which a QR cannot
    shrink, is cut to its numerical rank by ``_reduce_carry``: it keeps the
    singular values above sigma_1 * max(rows, columns) * eps, the default
    tolerance of ``numpy.linalg.matrix_rank``, and a non-finite input is
    kept as it is.  A right part can have a numerical rank far below its
    bond pair's count: on the prescribed family, run on the bond-reversed
    chain (so on B's left parts), no factor has more than r_V^2 = 25 rows,
    where the right parts give 625.

    A non-finite core of A raises ``ValueError``, and so does a norm of
    A^T A that overflows.
    """
    cores = a.cores
    _check_finite(cores)
    h = math.sqrt(0.5)
    eps = np.finfo(float).eps
    rs = [None] * len(cores) + [np.ones((1, 1))]
    n_even = 1  # leading rows of rs[n + 1] that the swap leaves unchanged
    for n in range(len(cores) - 1, -1, -1):
        core = cores[n]
        p, ni, nj, q = core.shape
        r = rs[n + 1]
        s = r.shape[0]
        # t[mu, (d, i), (j, a)] = sum_b R[mu, b + q d] A[a, i, j, b]
        t = r.reshape(s * q, q) @ core.transpose(3, 1, 2, 0).reshape(q, -1)
        # g[mu, (m, c), (j, a)] = sum_{d, i} A[c, i, m, d] t[mu, (d, i), (j, a)]
        g = core.transpose(2, 0, 3, 1).reshape(nj * p, q * ni) @ t.reshape(
            s, q * ni, nj * p)
        del t
        even, odd = _parity_qr_inputs(g.reshape(s, -1), p, nj, n_even)
        del g
        r_even = _reduce_carry(even, max(even.shape) * eps)
        del even
        r_odd = _reduce_carry(odd, max(odd.shape) * eps)
        del odd
        n_even = r_even.shape[0]
        u, v = np.triu_indices(p, 1)
        dg = np.arange(p)
        out = np.zeros((n_even + r_odd.shape[0], p, p))  # (mu, c, a)
        out[:n_even, dg, dg] = r_even[:, :p]
        out[:n_even, u, v] = out[:n_even, v, u] = r_even[:, p:] * h
        out[n_even:, u, v] = r_odd * h
        out[n_even:, v, u] = r_odd * -h
        rs[n] = out.reshape(out.shape[0], p * p)
    if not math.isfinite(rs[0][0, 0]):
        raise ValueError("the norm of a^T a overflows")
    return rs


def _parity_qr_inputs(g, p, nj, n_even):
    """The even and the odd QR input of ``gram_r_factors`` at one core.

    ``g`` is (s, (m, c, j, a)), a fastest.  Even columns: e_aa, then
    (e_uv + e_vu)/sqrt(2) for u < v; odd columns (e_uv - e_vu)/sqrt(2).
    Rows: for each mode pair j < m all s rows, times sqrt(2); for each j = m
    the first ``n_even`` rows in the even block and the rest in the odd one.
    """
    s = g.shape[0]
    h = math.sqrt(0.5)
    u, v = np.triu_indices(p, 1)
    dg = np.arange(p)
    n_pairs = nj * (nj - 1) // 2
    even = np.empty((n_pairs * s + nj * n_even, p + len(u)))
    odd = np.empty((n_pairs * s + nj * (s - n_even), len(u)))
    at_even = at_odd = 0
    for j in range(nj):
        for m in range(j, nj):
            col = (m * p * nj + j) * p + dg[:, None] * (nj * p) + dg  # (c, a)
            upper = np.take(g, col[u, v], axis=1)
            lower = np.take(g, col[v, u], axis=1)
            diag = np.take(g, col[dg, dg], axis=1)
            if j < m:
                ev = od = slice(None)
                w_diag, w_pair = math.sqrt(2.0), 1.0
            else:
                ev, od = slice(None, n_even), slice(n_even, None)
                w_diag, w_pair = 1.0, h
            blk = even[at_even:at_even + len(diag[ev])]
            np.multiply(diag[ev], w_diag, out=blk[:, :p])
            np.add(upper[ev], lower[ev], out=blk[:, p:])
            blk[:, p:] *= w_pair
            at_even += len(blk)
            blk = odd[at_odd:at_odd + len(upper[od])]
            np.subtract(upper[od], lower[od], out=blk)
            blk *= w_pair
            at_odd += len(blk)
    return even, odd


def tt_norm(x) -> float:
    """Frobenius norm of a chain (all K columns of a BlockTT), on its fused view.

    Read off the R factors of one right-to-left R-only QR sweep, which
    builds no Q cores, rather than a Gram contraction: for difference chains
    whose cores stay O(1) while the represented tensor is tiny, the Gram
    route cannot resolve norms below sqrt(machine epsilon) relative to the
    core scale, whereas the QR route degrades only linearly.  A non-finite
    core raises ``ValueError``.
    """
    return abs(float(_right_r_factors(_fuse(x).cores)[0][0, 0]))


def _round_sweep(cores, rs, delta: float) -> VectorTT:
    """Left-to-right truncation of ``tt_round``, given the chain's R factors.

    ``rs`` is as ``_right_r_factors`` returns it; only rs[n]^T rs[n] is
    used, so any factor with that product (triangular or not) gives the
    same singular values and left vectors at every bond.
    """
    norm = abs(float(rs[0][0, 0]))
    if norm == 0.0:
        # a zero chain collapses to minimal all-one ranks
        return VectorTT([np.zeros((1, c.shape[1], 1)) for c in cores])
    thr = delta * norm
    out = []
    carry = np.ones((1, 1))
    for n, c in enumerate(cores):
        r, i, r2 = c.shape
        xm = _rf(carry @ _rf(c, (r, i * r2)), (-1, r2))  # X = carry * core n
        if n == len(cores) - 1:
            out.append(_rf(xm, (-1, i, r2)))
            break
        f = truncated_svd(xm @ rs[n + 1].T, 0.0, frob_threshold=thr)
        out.append(_rf(f.u, (-1, i, len(f.s))))
        carry = f.u.T @ xm
    orth = ["L"] * (len(cores) - 1) + [None]
    return VectorTT(out, orth)


def tt_round(x, delta: float):
    """TT-rounding: error <= delta * sqrt(N-1) * ||x||, output ranks <= input ranks.

    An R-factor sweep that builds no Q cores.  The right-to-left sweep keeps
    only the R factors R_n of the right parts (``_right_r_factors``).  The
    left-to-right sweep (``_round_sweep``) forms X = carry * core_n,
    truncates the SVD of X R_{n+1}^T at delta * ||x|| (the singular values
    of the whole chain at bond n, since the left part is orthonormal and the
    right part is R_{n+1}^T times orthonormal rows; R_{n+1} need not be
    triangular), writes the kept left vectors U as the left-orthogonal core
    n and carries U^T X into core n+1.  At delta = 0 only orthogonal
    transforms act, and each bond shrinks to at most the row or the column
    count of X R_{n+1}^T, whichever is smaller.  Cores 0..N-2 come out
    tagged "L"; a zero chain collapses to all-one ranks; a non-finite core
    raises ``ValueError``.

    Any chain format rounds on its fused view, so only bond ranks change:
    the K columns of a BlockTT are not mixed.
    """
    _check_delta(delta)
    cores = _fuse(x).cores
    return _restore(_round_sweep(cores, _right_r_factors(cores), delta), x)


def gram_tt_round(b: MatrixTT, a: MatrixTT, delta: float) -> MatrixTT:
    """``tt_round(b, delta)`` of b = ``matrix_tt_matmul(matrix_tt_transpose(a), a)``.

    The same left-to-right truncation (``_round_sweep``) runs on b's cores,
    but the R factors of b's right parts come from a's cores
    (``gram_r_factors(a)``): the swap symmetry of A^T A splits each of
    their QRs into an even and an odd half, and no QR runs on b's cores,
    whose bonds are the squares of a's.  This is the block sparsity that a
    global symmetry gives a tensor network (Singh, Pfeifer & Vidal, Phys.
    Rev. A 82, 050301, 2010): each core's R-only QR over r^2 columns splits
    into one over the r(r+1)/2 even and one over the r(r-1)/2 odd columns,
    about a quarter of the work, and their inputs come from two matrix
    products with a's cores, about r^5 work against r^6 for b's cores.  A
    wide input, which a QR cannot shrink, is cut to its numerical rank, so
    the factors have the Gram matrices of ``_right_r_factors``' up to
    directions below rounding, and the rounding is the same up to
    floating-point rounding: the same error bound, the same ranks unless a
    singular value sits at the threshold, cores 0..N-2 left-orthogonal.
    At delta = 0 the cut can keep fewer ranks than ``tt_round`` does (on
    the bond-reversed prescribed N=6 product, 25 against 64 at the middle
    bond, both at an error of 2.3e-15 ||b||).  A zero a collapses to
    all-one ranks.  The Gram solvers call it on the bond-reversed chain,
    so that the factors are those of B's thin left parts.  b must have
    a's column modes as its rows and columns and the squares of a's bonds,
    or ``ValueError`` is raised.
    """
    _check_delta(delta)
    if (b.ranks != [r * r for r in a.ranks] or b.row_sizes != a.col_sizes
            or b.col_sizes != a.col_sizes):
        raise ValueError("gram_tt_round needs b = a^T a")
    return _restore(_round_sweep(_fuse(b).cores, gram_r_factors(a), delta), b)


def _bond_reversed(a: MatrixTT) -> MatrixTT:
    """A with its core order reversed, each core (R, I, J, R') as (R', I, J, R).

    It is A with the modes of its rows and of its columns in reverse order,
    a symmetric permutation of A, so it rounds with the same errors; its own
    reversal is A again.  Tags "L" and "R" trade places.
    """
    swap = {"L": "R", "R": "L", None: None}
    return MatrixTT([c.transpose(3, 1, 2, 0) for c in reversed(a.cores)],
                    [swap[t] for t in reversed(a.orth)])


def matrix_tt_round(a: MatrixTT, delta: float) -> MatrixTT:
    return tt_round(a, delta)


# ---------------------------------------------------------------------------
# linear-algebra operations


def tt_scale(x: VectorTT, alpha: float) -> VectorTT:
    cores = [c.copy() for c in x.cores]
    cores[0] = cores[0] * float(alpha)
    return VectorTT(cores)


def tt_add(x, y):
    """Exact addition by block-diagonal core concatenation (interior ranks add).

    Both chains must have one format and the same middle modes, core by
    core; they add on their fused views.
    """
    if type(x) is not type(y) or ([c.shape[1:-1] for c in x.cores]
                                  != [c.shape[1:-1] for c in y.cores]):
        raise ValueError("tt_add shape mismatch")
    fx, fy = _fuse(x), _fuse(y)
    n = x.n_cores
    if n == 1:
        return _restore(VectorTT([fx.cores[0] + fy.cores[0]]), x)
    cores = []
    for m in range(n):
        cx, cy = fx.cores[m], fy.cores[m]
        if m == 0:
            cores.append(np.concatenate([cx, cy], axis=2))
        elif m == n - 1:
            cores.append(np.concatenate([cx, cy], axis=0))
        else:
            rx, i, rx2 = cx.shape
            ry, _, ry2 = cy.shape
            c = np.zeros((rx + ry, i, rx2 + ry2))
            c[:rx, :, :rx2] = cx
            c[rx:, :, rx2:] = cy
            cores.append(c)
    return _restore(VectorTT(cores), x)


def matrix_tt_transpose(a: MatrixTT) -> MatrixTT:
    """A^T; the tags stay, since each bond unfolding only permutes its rows."""
    return MatrixTT([c.transpose(0, 2, 1, 3) for c in a.cores], a.orth)


def matrix_tt_matmul(a: MatrixTT, b: MatrixTT) -> MatrixTT:
    """Exact matrix-matrix product in TT form (bond ranks multiply).

    Core n is C[(a,c), i, m, (b,d)] = sum_j A[a,i,j,b] B[c,j,m,d], with
    bond indices a + p c and b + q d for A's core of bonds (p, q).  It is
    written once, column-major: for each d, one GEMM over j forms the slab
    ((a,i,b), (c,m)), which is copied into C[..., d].  One slab is the only
    temporary, and ``_fuse`` of the product returns views.
    """
    if a.col_sizes != b.row_sizes:
        raise ValueError(f"shape mismatch: column modes {a.col_sizes} against "
                         f"row modes {b.row_sizes}")
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        ra, i, nj, ra2 = ca.shape
        rb, _, m, rb2 = cb.shape
        left = _rf(ca.transpose(0, 1, 3, 2), (ra * i * ra2, nj))
        right = _rf(cb.transpose(1, 0, 2, 3), (nj, rb * m, rb2))
        out = np.empty((ra, rb, i, m, ra2, rb2), order="F")
        slab = np.empty((ra * i * ra2, rb * m), order="F")
        for d in range(rb2):
            np.matmul(left, right[:, :, d], out=slab)
            out[..., d] = _rf(slab, (ra, i, ra2, rb, m)).transpose(0, 3, 1, 4, 2)
        cores.append(_rf(out, (ra * rb, i, m, ra2 * rb2)))
    return MatrixTT(cores)


def diag_embed(x: VectorTT) -> MatrixTT:
    """MatrixTT reconstructing to diag(vec x); ranks equal x's ranks exactly."""
    cores = []
    for c in x.cores:
        i = c.shape[1]
        cores.append(np.einsum("rik,ij->rijk", c, np.eye(i)))
    return MatrixTT(cores)


# ---------------------------------------------------------------------------
# block-TT operations


def block_tt_matvec(a: MatrixTT, u: BlockTT) -> BlockTT:
    """Apply a MatrixTT to all K columns of a BlockTT at once.

    ``matrix_tt_matmul`` with u as a K-column matrix: the block core comes
    back transposed to (R, K, I, R') and the other cores drop their unit
    column modes; it rejects a mode mismatch.
    """
    p = u.block_position
    cores = matrix_tt_matmul(a, _as_matrix(u)).cores
    return BlockTT([c.transpose(0, 2, 1, 3) if n == p else c[:, :, 0]
                    for n, c in enumerate(cores)], p)


def block_tt_scale_columns(u: BlockTT, weights) -> BlockTT:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (u.k,):
        raise ValueError("need one weight per block column")
    cores = [c.copy() for c in u.cores]
    p = u.block_position
    cores[p] = cores[p] * weights[np.newaxis, :, np.newaxis, np.newaxis]
    return BlockTT(cores, p)


def block_tt_gram(x: BlockTT, y: BlockTT) -> np.ndarray:
    """K x K matrix of inner products between the columns of two BlockTTs.

    One left-to-right carry over the cores of their matrix views, (k, K,
    R^x, R^y); the column modes are 1 except at the block core, where they
    grow the carry to (K, K).  The product chain X^T Y, whose interior
    bonds would be R^x R^y wide on both sides, is never formed.
    """
    if x.mode_sizes != y.mode_sizes or x.k != y.k:
        raise ValueError("block_tt_gram shape mismatch")
    if x.block_position != y.block_position:
        raise ValueError("block_tt_gram requires matching block positions")
    t = np.ones((1, 1, 1, 1))
    for cx, cy in zip(_as_matrix(x).cores, _as_matrix(y).cores):
        g = np.tensordot(t, cx, axes=(2, 0))  # (k, K, R^y, I, k', R^x')
        # (k, k', K, K', R^x', R^y'), of which k or k' is 1, and K or K'
        g = np.tensordot(g, cy, axes=([2, 3], [0, 1])).transpose(0, 2, 1, 4, 3, 5)
        t = g.reshape(g.shape[0] * g.shape[1], g.shape[2] * g.shape[3], *g.shape[4:])
    return t[:, :, 0, 0]


def _reduce_carry(stacked: np.ndarray, rtol: float = np.finfo(float).eps):
    """A carry C with ``stacked`` = Q C for some Q with orthonormal columns.

    A tall matrix (or one without rows) gives its R factor, by an R-only
    QR.  A wide one, which a QR cannot shrink, keeps the rows of U^T stacked
    for its singular values above rtol * sigma_1; at full numerical rank it
    is kept as it is.  The residual's carry uses rtol = eps, below which a
    direction is lost in the rounding of the carry anyway.  A wide matrix
    with a NaN or inf is kept as it is.
    """
    rows, cols = stacked.shape
    if rows >= cols or rows == 0:
        return np.linalg.qr(stacked, mode="r")
    r = np.linalg.qr(stacked.T, mode="r")  # stacked = r^T Q^T
    if not np.isfinite(r).all():  # the norm comes out NaN or inf
        return stacked
    u, sv, _ = np.linalg.svd(r.T)
    keep = int(np.count_nonzero(sv > rtol * sv[0]))
    if keep == rows:
        return stacked
    return u[:, :max(keep, 1)].T @ stacked


def _norm(a: np.ndarray) -> float:
    """||a||_F, also where its square is past the float range (above 1.3e154).

    Taken on ``a`` scaled by the power of two 2^-e that puts its largest
    entry in [0.5, 1), as ``truncated_svd`` scales its singular values: the
    scaling is exact, so it changes no norm whose square is in range.
    """
    e = int(np.frexp(np.max(np.abs(a)))[1])
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, -e))), e)


def _residual_sweep(ops, xc, yc, p: int) -> float:
    """The left-to-right sweep of ``block_tt_residual_norm`` over prepared cores.

    ``ops`` are the operator's cores as (R^op, J, I, R^op'), ``xc`` and
    ``yc`` the cores of X and Y with the weights in their block core p.
    """
    cx = np.ones((1, 1))  # carry into the op X part: (s * R^op, R^X)
    cy = np.ones((1, 1))  # carry into the Y part: (s, R^Y)
    for m, om in enumerate(ops):
        xm, ym = xc[m], yc[m]
        if m != p:  # a unit K axis lets every core take the block-core path
            xm, ym = xm[:, np.newaxis], ym[:, np.newaxis]
        ro, nj, ni, ro2 = om.shape
        rx, k, _, rx2 = xm.shape
        s, ry2 = cy.shape[0], ym.shape[3]
        # carry . X core, then . op core: gx is (s, K, R^X', I, R^op')
        t = (cx @ xm.reshape(rx, -1)).reshape(s, ro, k, nj, rx2)
        gx = t.transpose(0, 2, 4, 1, 3).reshape(-1, ro * nj) @ om.reshape(ro * nj, -1)
        gy = cy @ ym.reshape(ym.shape[0], -1)  # (s, K, I, R^Y')
        if m == len(ops) - 1:  # every bond is 1: the two parts add up
            break
        nx = ro2 * rx2
        stacked = np.empty((s * k * ni, nx + ry2))  # rows (s, K, I)
        np.copyto(stacked[:, :nx].reshape(s, k, ni, ro2, rx2),
                  gx.reshape(s, k, rx2, ni, ro2).transpose(0, 1, 3, 4, 2))
        stacked[:, nx:] = gy.reshape(-1, ry2)
        carry = _reduce_carry(stacked)
        cx = np.ascontiguousarray(carry[:, :nx]).reshape(-1, rx2)
        cy = carry[:, nx:]
    return _norm(gx.reshape(-1) + gy.reshape(-1))


def block_tt_residual_norm(op: MatrixTT, x: BlockTT, xs, y: BlockTT, ys) -> float:
    """Exact ||op X diag(xs) - Y diag(ys)||_F, without forming op X.

    One left-to-right sweep toward the block core over the unrounded
    difference chain [op X | Y] (bond ranks R^op R^X + R^Y), without
    building its cores.  The carry C factors the chain's part left of the
    current bond as Q C, Q with orthonormal columns.  At core m it enters
    the op X part through the X core and then the op core, and the Y part
    through the Y core; both results sit side by side over the shared rows
    (s, K, I_m), K only at the block core, and ``_reduce_carry`` shrinks
    them: a tall matrix to its R factor, a wide one to its numerical rank.
    At the last core every bond is 1 and the two parts add up to the whole
    difference.  The block cores carry ``xs`` and ``-ys`` on their K axis.

    The rank cut is safe only in a canonical gauge.  ``canonicalize``
    makes X and Y left-orthogonal before their block core and
    right-orthogonal after it, and the operator right-orthogonal, skipping
    cores whose ``orth`` tags already say so: the solver's chains, tagged
    up to their block core at the end, cost nothing, and K enters the carry
    only at the last core; an operator tagged "R" on cores 1..N-1 (the
    solver gauges it once per solve) costs no QR either.  The operator is
    divided by its Frobenius norm, which moves into ``xs``.  Then the parts
    right of every bond are bounded by the two terms, so a cut drops no
    more than the rounding the carry already holds.  Without the gauge,
    re-scaled neighbouring cores can move the whole residual into the
    directions a cut drops.

    The value agrees with a right-to-left QR-only sweep to about
    1e-16 ||ys|| on the SVD solvers' outputs, with the block core first, in
    the middle or last and with core pairs re-scaled by up to 1e8 (1.4e-15
    on a Gram baseline's, whose weights 1/sigma reach 500), so residuals
    far below sqrt(machine epsilon) stay resolvable.  On the prescribed
    family (N=20..40) no matrix the sweep factorizes has more than 30 rows,
    where a QR-only sweep reduces 260 x 130 matrices.  A NaN or inf in a
    core or weight, or an overflow, raises ``ValueError``.
    """
    if op.col_sizes != x.mode_sizes or op.row_sizes != y.mode_sizes or x.k != y.k:
        raise ValueError("block_tt_residual_norm shape mismatch")
    if x.block_position != y.block_position:
        raise ValueError("block_tt_residual_norm requires matching block positions")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != (x.k,) or ys.shape != (x.k,):
        raise ValueError("need one weight per block column")
    p = x.block_position
    xc = canonicalize(x, p).cores
    yc = canonicalize(y, p).cores
    xc[p] = xc[p] * xs[np.newaxis, :, np.newaxis, np.newaxis]
    yc[p] = yc[p] * -ys[np.newaxis, :, np.newaxis, np.newaxis]
    ops = [np.ascontiguousarray(c.transpose(0, 2, 1, 3))
           for c in canonicalize(op, 0).cores]
    nu = _norm(ops[0])
    if nu > 0.0:
        ops[0] = ops[0] / nu
        xc[p] = xc[p] * nu
    norm = _residual_sweep(ops, xc, yc, p)
    if not math.isfinite(norm):
        raise ValueError("a core or weight of the residual holds NaN or inf, "
                         "or the residual overflows")
    return norm


# ---------------------------------------------------------------------------
# merge / split mechanics for the sweep algorithms


def merge_cores(u: BlockTT, n: int) -> np.ndarray:
    """Contract cores n-1 and n of a BlockTT into one fifth-order tensor.

    The block must sit at position n-1 or n.  The result is returned in the
    normalized local layout (R_{n-2}, I_{n-1}, I_n, R_n, K) with the block
    mode last, which is the layout the local solvers and split routines use.
    """
    if n < 1:
        raise ValueError("merge_cores needs n >= 1")
    p = u.block_position
    if p not in (n - 1, n):
        raise ValueError("block core must be adjacent to the merge point")
    left, right = u.cores[n - 1], u.cores[n]
    if p == n:
        # left (r, i, b) x right (b, k, j, r2) -> (r, i, k, j, r2)
        g = np.tensordot(left, right, axes=(2, 0))
        return g.transpose(0, 1, 3, 4, 2)
    # left (r, k, i, b) x right (b, j, r2) -> (r, k, i, j, r2)
    g = np.tensordot(left, right, axes=(3, 0))
    return g.transpose(0, 2, 3, 4, 1)


def split_block_core(local: np.ndarray, direction: str, delta: float,
                     max_rank: int | None = None,
                     min_keep: int | None = None):
    """Truncated split of a local solution (r_l, I_1..I_w, r_r, K), w = 1 or 2.

    Returns ``(left, right, rank, discarded)``, ``discarded`` being the
    squared Frobenius norm of the truncated tail
    (``SvdFactors.discarded_energy``).  The factor that carries K, with K on
    axis 1, absorbs the singular values; the other one is an orthogonal TT
    core.

    direction "right_to_left": rows (r_l, i_1..i_{w-1}, k) vs columns
    (i_w, r_r); ``left`` is (r_l, K, I_1..I_{w-1}, rank) (the block core in
    storage layout for w = 2, a carry into the left neighbour for w = 1) and
    ``right`` (rank, I_w, r_r) is right-orthogonal.

    direction "left_to_right": rows (r_l, i_1) vs columns (i_2..i_w, r_r, k);
    ``left`` (r_l, I_1, rank) is left-orthogonal and ``right`` is
    (rank, K, I_2..I_w, r_r) (the block core for w = 2, a carry into the
    right neighbour for w = 1).
    """
    r_l, *modes, r_r, k = local.shape
    w = len(modes)
    if direction == "right_to_left":
        m = _rf(local.transpose(0, *range(1, w), w + 2, w, w + 1),
                (-1, modes[-1] * r_r))
        f = truncated_svd(m, delta, max_rank=max_rank, min_rank=min_keep)
        rank = len(f.s)
        carry = _rf(f.u * f.s[np.newaxis, :], (r_l, *modes[:-1], k, rank))
        core = _rf(f.v.T, (rank, modes[-1], r_r))
        return (carry.transpose(0, w, *range(1, w), w + 1), core, rank,
                f.discarded_energy)
    if direction == "left_to_right":
        m = _rf(local, (r_l * modes[0], -1))
        f = truncated_svd(m, delta, max_rank=max_rank, min_rank=min_keep)
        rank = len(f.s)
        core = _rf(f.u, (r_l, modes[0], rank))
        carry = _rf(f.s[:, np.newaxis] * f.v.T, (rank, *modes[1:], r_r, k))
        return (core, carry.transpose(0, w + 1, *range(1, w + 1)), rank,
                f.discarded_energy)
    raise ValueError(f"unknown direction {direction!r}")
