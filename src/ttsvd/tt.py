"""Tensor-train formats and arithmetic.

Three chain formats share one bond convention (boundary ranks 1, adjacent
bonds equal):

* ``VectorTT``   - N third-order cores (R_{n-1}, I_n, R_n).
* ``MatrixTT``   - N fourth-order cores (R_{n-1}, I_n, J_n, R_n) carrying a
  row mode and a column mode each.
* ``BlockTT``    - N cores, exactly one of which (the *block core*, at a
  movable position) is fourth-order (R_{n-1}, K, I_n, R_n) and carries the
  shared extra mode of size K; the chain represents K vectors on one TT basis.

All unfoldings and mode fusions are column-major (``order="F"``, first axis
fastest), matching the package-wide multi-index convention; the realized
vector of a chain puts mode 1 fastest.  Orthogonality is tracked per core as
"L" / "R" / None tags maintained by the operations that establish or destroy
it; tests verify the tags against dense reconstructions.
"""

from __future__ import annotations

import math

import numpy as np

from .dense import dense_qr, truncated_svd


def _rf(a: np.ndarray, shape) -> np.ndarray:
    return np.reshape(a, tuple(shape), order="F")


def _check_bonds(cores, what: str) -> None:
    if not cores:
        raise ValueError(f"{what} needs at least one core")
    if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
        raise ValueError(f"{what} boundary ranks must be 1")
    for n in range(len(cores) - 1):
        if cores[n].shape[-1] != cores[n + 1].shape[0]:
            raise ValueError(
                f"{what} bond mismatch between cores {n} and {n + 1}: "
                f"{cores[n].shape[-1]} vs {cores[n + 1].shape[0]}"
            )


class VectorTT:
    def __init__(self, cores, orth=None):
        self.cores = [np.asarray(c, dtype=float) for c in cores]
        if any(c.ndim != 3 for c in self.cores):
            raise ValueError("VectorTT cores must be third-order")
        _check_bonds(self.cores, "VectorTT")
        self.orth = list(orth) if orth is not None else [None] * len(self.cores)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def mode_sizes(self) -> list[int]:
        return [c.shape[1] for c in self.cores]

    @property
    def ranks(self) -> list[int]:
        return [self.cores[0].shape[0]] + [c.shape[-1] for c in self.cores]

    def copy(self) -> "VectorTT":
        return VectorTT([c.copy() for c in self.cores], self.orth)


class MatrixTT:
    def __init__(self, cores):
        self.cores = [np.asarray(c, dtype=float) for c in cores]
        if any(c.ndim != 4 for c in self.cores):
            raise ValueError("MatrixTT cores must be fourth-order")
        _check_bonds(self.cores, "MatrixTT")

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def row_sizes(self) -> list[int]:
        return [c.shape[1] for c in self.cores]

    @property
    def col_sizes(self) -> list[int]:
        return [c.shape[2] for c in self.cores]

    @property
    def ranks(self) -> list[int]:
        return [self.cores[0].shape[0]] + [c.shape[-1] for c in self.cores]

    @property
    def n_rows(self) -> int:
        return math.prod(self.row_sizes)

    @property
    def n_cols(self) -> int:
        return math.prod(self.col_sizes)

    def copy(self) -> "MatrixTT":
        return MatrixTT([c.copy() for c in self.cores])


class BlockTT:
    """TT chain with one fourth-order core (R_{n-1}, K, I_n, R_n) of block size K."""

    def __init__(self, cores, block_position: int, orth=None):
        self.cores = [np.asarray(c, dtype=float) for c in cores]
        self.block_position = int(block_position)
        if not 0 <= self.block_position < len(self.cores):
            raise ValueError("block position out of range")
        for n, c in enumerate(self.cores):
            want = 4 if n == self.block_position else 3
            if c.ndim != want:
                raise ValueError(
                    f"BlockTT core {n} must be order {want}, got {c.ndim}"
                )
        _check_bonds(self.cores, "BlockTT")
        self.orth = list(orth) if orth is not None else [None] * len(self.cores)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def k(self) -> int:
        return self.cores[self.block_position].shape[1]

    @property
    def mode_sizes(self) -> list[int]:
        return [
            c.shape[2] if n == self.block_position else c.shape[1]
            for n, c in enumerate(self.cores)
        ]

    @property
    def ranks(self) -> list[int]:
        return [self.cores[0].shape[0]] + [c.shape[-1] for c in self.cores]

    def copy(self) -> "BlockTT":
        return BlockTT([c.copy() for c in self.cores], self.block_position, self.orth)


# ---------------------------------------------------------------------------
# reconstruction


def tt_reconstruct(x):
    """Materialize a chain densely.

    VectorTT -> N-way array of shape (I_1, ..., I_N); MatrixTT -> matrix of
    shape (prod I, prod J); BlockTT -> matrix of shape (prod I, K).  Caller is
    responsible for keeping the result small enough to hold.
    """
    if isinstance(x, VectorTT):
        g = x.cores[0]
        for c in x.cores[1:]:
            g = np.tensordot(g, c, axes=(-1, 0))
        return g[0, ..., 0]
    if isinstance(x, MatrixTT):
        g = x.cores[0]
        for c in x.cores[1:]:
            g = np.tensordot(g, c, axes=(-1, 0))
        g = g[0, ..., 0]  # axes (I1, J1, I2, J2, ...)
        n = x.n_cores
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        g = g.transpose(perm)
        return _rf(g, (x.n_rows, x.n_cols))
    if isinstance(x, BlockTT):
        g = x.cores[0]
        for c in x.cores[1:]:
            g = np.tensordot(g, c, axes=(-1, 0))
        g = g[0, ..., 0]  # modes in chain order with K inserted at block position
        k_axis = x.block_position
        g = np.moveaxis(g, k_axis, -1)
        return _rf(g, (math.prod(x.mode_sizes), x.k))
    raise TypeError(f"cannot reconstruct {type(x)!r}")


def tt_to_vector(x: VectorTT) -> np.ndarray:
    return tt_reconstruct(x).ravel(order="F")


def tt_entry(x: VectorTT, idx) -> float:
    """Evaluate one entry of a VectorTT at the 0-based multi-index ``idx``."""
    v = x.cores[0][:, idx[0], :]
    for n in range(1, x.n_cores):
        v = v @ x.cores[n][:, idx[n], :]
    return float(v[0, 0])


def tt_reverse(x: VectorTT) -> VectorTT:
    """Reverse the realized vector: entry i maps to entry (len - 1 - i).

    Flipping every mode index flips every digit of the column-major
    multi-index, which reverses the linear index exactly.
    """
    return VectorTT([c[:, ::-1, :].copy() for c in x.cores])


def tt_last_mode_slice(x: VectorTT, j: int) -> VectorTT:
    """Fix the last mode at index ``j`` and fold it away (one core fewer)."""
    if x.n_cores < 2:
        raise ValueError("need at least two cores to slice the last mode away")
    cores = [c.copy() for c in x.cores[:-1]]
    tail = x.cores[-1][:, j, :]  # (r, 1)
    cores[-1] = np.tensordot(cores[-1], tail, axes=(2, 0))
    return VectorTT(cores)


# ---------------------------------------------------------------------------
# compression / rounding / orthogonalization


def tt_svd_compress(t: np.ndarray, delta: float, max_rank: int | None = None) -> VectorTT:
    """Compress a dense tensor into a VectorTT by successive truncated SVDs.

    Each sequential unfolding is truncated so the discarded tail stays below
    delta * ||t||_F, giving a total reconstruction error bounded by
    delta * sqrt(N-1) * ||t||_F.  Cores come out left-orthogonal except the
    last one.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    t = np.asarray(t, dtype=float)
    shape = t.shape
    n_modes = t.ndim
    norm = float(np.linalg.norm(t))
    thr = delta * norm
    cores = []
    r_prev = 1
    mat = _rf(t.ravel(order="F"), (shape[0], -1))
    for n in range(n_modes - 1):
        f = truncated_svd(mat, 0.0, max_rank=max_rank, frob_threshold=thr)
        r_new = len(f.s)
        cores.append(_rf(f.u, (r_prev, shape[n], r_new)))
        mat = f.s[:, None] * f.v.T
        mat = _rf(mat.ravel(order="F"), (r_new * shape[n + 1], -1))
        r_prev = r_new
    cores.append(_rf(mat, (r_prev, shape[-1], 1)))
    orth = ["L"] * (n_modes - 1) + [None]
    return VectorTT(cores, orth)


def _bond_contract_into(core: np.ndarray, carry: np.ndarray, side: str) -> np.ndarray:
    """Absorb a bond factor into a neighboring core (3rd or 4th order)."""
    if side == "left":  # carry @ core along core axis 0
        return np.tensordot(carry, core, axes=(1, 0))
    # core @ carry along core's last axis
    return np.tensordot(core, carry, axes=(core.ndim - 1, 0))


def left_orthogonalize_through(x, n: int):
    """Return a copy with cores 0..n-1 left-orthogonal (value unchanged).

    For a BlockTT the block core must sit at position >= n.
    """
    if isinstance(x, BlockTT) and x.block_position < n:
        raise ValueError("cannot left-orthogonalize past the block core")
    cores = [c.copy() for c in x.cores]
    orth = list(x.orth)
    for m in range(n):
        if orth[m] == "L":
            continue
        c = cores[m]
        r, i, r2 = c.shape
        q, rr = dense_qr(_rf(c, (r * i, r2)))
        cores[m] = _rf(q, (r, i, q.shape[1]))
        orth[m] = "L"
        cores[m + 1] = _bond_contract_into(cores[m + 1], rr, "left")
        orth[m + 1] = None
    if isinstance(x, BlockTT):
        return BlockTT(cores, x.block_position, orth)
    return VectorTT(cores, orth)


def right_orthogonalize_through(x, n: int):
    """Return a copy with cores n+1..N-1 right-orthogonal (value unchanged)."""
    if isinstance(x, BlockTT) and x.block_position > n:
        raise ValueError("cannot right-orthogonalize past the block core")
    cores = [c.copy() for c in x.cores]
    orth = list(x.orth)
    for m in range(len(cores) - 1, n, -1):
        if orth[m] == "R":
            continue
        c = cores[m]
        r = c.shape[0]
        q, rr = dense_qr(_rf(c, (r, -1)).T)
        r_new = q.shape[1]
        cores[m] = _rf(q.T, (r_new,) + c.shape[1:])
        orth[m] = "R"
        cores[m - 1] = _bond_contract_into(cores[m - 1], rr.T, "right")
        orth[m - 1] = None
    if isinstance(x, BlockTT):
        return BlockTT(cores, x.block_position, orth)
    return VectorTT(cores, orth)


def tt_norm(x) -> float:
    """Frobenius norm of the represented tensor (all K columns of a BlockTT).

    Computed by a right-orthogonalization pass rather than a Gram
    contraction: for difference chains whose cores stay O(1) while the
    represented tensor is tiny, the Gram route cannot resolve norms below
    sqrt(machine epsilon) relative to the core scale, whereas the QR route
    degrades only linearly.
    """
    if isinstance(x, BlockTT):
        p = x.block_position
        cores = [c.copy() for c in x.cores]
        bc = cores[p]
        cores[p] = _rf(bc, (bc.shape[0], bc.shape[1] * bc.shape[2],
                            bc.shape[3]))
        x = VectorTT(cores)
    y = right_orthogonalize_through(x, 0)
    return float(np.linalg.norm(y.cores[0]))


def tt_round(x: VectorTT, delta: float, max_rank: int | None = None) -> VectorTT:
    """TT-rounding: error <= delta * sqrt(N-1) * ||x||, output ranks <= input ranks."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    n_cores = x.n_cores
    if n_cores == 1:
        return x.copy()
    y = right_orthogonalize_through(x, 0)
    cores = y.cores
    norm = float(np.linalg.norm(cores[0]))
    if norm == 0.0:
        # a zero chain collapses to minimal all-one ranks
        return VectorTT([np.zeros((1, c.shape[1], 1)) for c in x.cores])
    thr = delta * norm
    orth = [None] * n_cores
    for n in range(n_cores - 1):
        c = cores[n]
        r, i, r2 = c.shape
        f = truncated_svd(_rf(c, (r * i, r2)), 0.0, max_rank=max_rank, frob_threshold=thr)
        r_new = len(f.s)
        cores[n] = _rf(f.u, (r, i, r_new))
        orth[n] = "L"
        carry = f.s[:, None] * f.v.T
        cores[n + 1] = _bond_contract_into(cores[n + 1], carry, "left")
    return VectorTT(cores, orth)


def block_tt_round(u: BlockTT, delta: float, max_rank: int | None = None) -> BlockTT:
    """Round a BlockTT without mixing its K columns.

    The block core's (K, I) modes are fused into one mode (K fastest) so the
    chain rounds like a plain VectorTT, then unfused; only bond ranks change.
    """
    p = u.block_position
    cores = [c.copy() for c in u.cores]
    bc = cores[p]
    r, k, i, r2 = bc.shape
    cores[p] = _rf(bc, (r, k * i, r2))
    rounded = tt_round(VectorTT(cores), delta, max_rank=max_rank)
    out = [c.copy() for c in rounded.cores]
    bc2 = out[p]
    out[p] = _rf(bc2, (bc2.shape[0], k, i, bc2.shape[2]))
    return BlockTT(out, p, rounded.orth)


# ---------------------------------------------------------------------------
# linear-algebra operations


def tt_scale(x: VectorTT, alpha: float) -> VectorTT:
    cores = [c.copy() for c in x.cores]
    cores[0] = cores[0] * float(alpha)
    return VectorTT(cores)


def tt_add(x: VectorTT, y: VectorTT) -> VectorTT:
    """Exact addition by block-diagonal core concatenation (interior ranks add)."""
    if x.mode_sizes != y.mode_sizes:
        raise ValueError("tt_add shape mismatch")
    n = x.n_cores
    if n == 1:
        return VectorTT([x.cores[0] + y.cores[0]])
    cores = []
    for m in range(n):
        cx, cy = x.cores[m], y.cores[m]
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
    return VectorTT(cores)


def tt_inner(x: VectorTT, y: VectorTT) -> float:
    if x.mode_sizes != y.mode_sizes:
        raise ValueError("tt_inner shape mismatch")
    m = np.ones((1, 1))
    for cx, cy in zip(x.cores, y.cores):
        m = np.einsum("ab,aic,bid->cd", m, cx, cy, optimize=True)
    return float(m[0, 0])


def matvec_tt(a: MatrixTT, x: VectorTT) -> VectorTT:
    """Exact matrix-by-vector product; output bond ranks are the products R^A_n R^x_n."""
    if a.col_sizes != x.mode_sizes:
        raise ValueError("matvec_tt shape mismatch")
    cores = []
    for ca, cx in zip(a.cores, x.cores):
        ra, i, _, rb = ca.shape
        rc, _, rd = cx.shape
        g = np.einsum("aijb,cjd->acibd", ca, cx, optimize=True)
        cores.append(_rf(g, (ra * rc, i, rb * rd)))
    return VectorTT(cores)


def matrix_tt_transpose(a: MatrixTT) -> MatrixTT:
    return MatrixTT([c.transpose(0, 2, 1, 3) for c in a.cores])


def matrix_tt_add(a: MatrixTT, b: MatrixTT) -> MatrixTT:
    if a.row_sizes != b.row_sizes or a.col_sizes != b.col_sizes:
        raise ValueError("matrix_tt_add shape mismatch")
    n = a.n_cores
    if n == 1:
        return MatrixTT([a.cores[0] + b.cores[0]])
    cores = []
    for m in range(n):
        ca, cb = a.cores[m], b.cores[m]
        if m == 0:
            cores.append(np.concatenate([ca, cb], axis=3))
        elif m == n - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            ra, i, j, ra2 = ca.shape
            rb, _, _, rb2 = cb.shape
            c = np.zeros((ra + rb, i, j, ra2 + rb2))
            c[:ra, :, :, :ra2] = ca
            c[ra:, :, :, ra2:] = cb
            cores.append(c)
    return MatrixTT(cores)


def matrix_tt_matmul(a: MatrixTT, b: MatrixTT) -> MatrixTT:
    """Exact matrix-matrix product in TT form (bond ranks multiply)."""
    if a.col_sizes != b.row_sizes:
        raise ValueError("matrix_tt_matmul shape mismatch")
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        ra, i, _, ra2 = ca.shape
        rb, _, m, rb2 = cb.shape
        g = np.einsum("aijb,cjmd->acimbd", ca, cb, optimize=True)
        cores.append(_rf(g, (ra * rb, i, m, ra2 * rb2)))
    return MatrixTT(cores)


def matrix_tt_round(a: MatrixTT, delta: float, max_rank: int | None = None) -> MatrixTT:
    """Round a MatrixTT by fusing each core's (row, col) modes and TT-rounding."""
    fused = [
        _rf(c, (c.shape[0], c.shape[1] * c.shape[2], c.shape[3])) for c in a.cores
    ]
    rounded = tt_round(VectorTT(fused), delta, max_rank=max_rank)
    cores = []
    for c, orig in zip(rounded.cores, a.cores):
        cores.append(_rf(c, (c.shape[0], orig.shape[1], orig.shape[2], c.shape[2])))
    return MatrixTT(cores)


def matrix_tt_norm(a: MatrixTT) -> float:
    fused = [
        _rf(c, (c.shape[0], c.shape[1] * c.shape[2], c.shape[3])) for c in a.cores
    ]
    v = VectorTT(fused)
    return tt_norm(v)


def diag_embed(x: VectorTT) -> MatrixTT:
    """MatrixTT reconstructing to diag(vec x); ranks equal x's ranks exactly."""
    cores = []
    for c in x.cores:
        i = c.shape[1]
        cores.append(np.einsum("rik,ij->rijk", c, np.eye(i)))
    return MatrixTT(cores)


def identity_matrix_tt(n_cores: int, mode_size: int = 2) -> MatrixTT:
    core = np.eye(mode_size)[np.newaxis, :, :, np.newaxis]
    return MatrixTT([core.copy() for _ in range(n_cores)])


# ---------------------------------------------------------------------------
# block-TT operations


def block_tt_matvec(a: MatrixTT, u: BlockTT) -> BlockTT:
    """Apply a MatrixTT to all K columns of a BlockTT at once."""
    if a.col_sizes != u.mode_sizes:
        raise ValueError("block_tt_matvec shape mismatch")
    p = u.block_position
    cores = []
    for n, (ca, cu) in enumerate(zip(a.cores, u.cores)):
        ra, i, _, rb = ca.shape
        if n == p:
            rc, k, _, rd = cu.shape
            g = np.einsum("aijb,ckjd->ackibd", ca, cu, optimize=True)
            cores.append(_rf(g, (ra * rc, k, i, rb * rd)))
        else:
            rc, _, rd = cu.shape
            g = np.einsum("aijb,cjd->acibd", ca, cu, optimize=True)
            cores.append(_rf(g, (ra * rc, i, rb * rd)))
    return BlockTT(cores, p)


def block_tt_scale_columns(u: BlockTT, weights) -> BlockTT:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (u.k,):
        raise ValueError("need one weight per block column")
    cores = [c.copy() for c in u.cores]
    p = u.block_position
    cores[p] = cores[p] * weights[np.newaxis, :, np.newaxis, np.newaxis]
    return BlockTT(cores, p)


def block_tt_gram(x: BlockTT, y: BlockTT) -> np.ndarray:
    """K x K matrix of inner products between the columns of two BlockTTs."""
    if x.mode_sizes != y.mode_sizes or x.k != y.k:
        raise ValueError("block_tt_gram shape mismatch")
    if x.block_position != y.block_position:
        raise ValueError("block_tt_gram requires matching block positions")
    p = x.block_position
    m = np.ones((1, 1))
    for n in range(p):
        m = np.einsum("ab,aic,bid->cd", m, x.cores[n], y.cores[n], optimize=True)
    t = np.einsum("ab,akic,bKid->kKcd", m, x.cores[p], y.cores[p], optimize=True)
    for n in range(p + 1, x.n_cores):
        t = np.einsum("kKab,aic,bid->kKcd", t, x.cores[n], y.cores[n], optimize=True)
    return t[:, :, 0, 0]


def block_tt_residual_norm(op: MatrixTT, x: BlockTT, xs, y: BlockTT, ys) -> float:
    """Exact ||op X diag(xs) - Y diag(ys)||_F, without forming op X.

    One right-to-left sweep over the unrounded difference chain
    [op X | Y], whose bond ranks are R^op R^X + R^Y, without building its
    cores.  The carry is the R factor (s x bond) of the part of the chain
    right of the current bond: at core m it enters the op X part through
    the X core and then the op core, and the Y part through the Y core; the
    two results are stacked over the shared rows and reduced to R by an
    R-only QR.  At core 0 both parts have the boundary rank 1, so their sum
    is the whole difference and its norm is returned.  The block cores
    carry ``xs`` and ``-ys`` on their K axis.

    Orthogonal reductions keep the value accurate to a few units of
    rounding relative to the norms of the two terms, so residuals far
    below sqrt(machine epsilon) stay resolvable; a Gram-trace norm of the
    same chain would bottom out there.
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
    cx = np.ones((1, 1, 1))  # carry into the op X part: (s, R^X, R^op)
    cy = np.ones((1, 1))  # carry into the Y part: (s, R^Y)
    for m in range(op.n_cores - 1, -1, -1):  # returns at core 0
        if m == p:
            xc = x.cores[m] * xs[np.newaxis, :, np.newaxis, np.newaxis]
            yc = y.cores[m] * -ys[np.newaxis, :, np.newaxis, np.newaxis]
        else:  # a unit K axis lets every core take the block-core path
            xc, yc = x.cores[m][:, np.newaxis], y.cores[m][:, np.newaxis]
        gx = np.tensordot(cx, xc, axes=(1, 3))  # (s, R^op, R^X, K, J)
        gx = np.tensordot(gx, op.cores[m], axes=((1, 4), (3, 2)))
        gx = gx.transpose(0, 2, 4, 1, 3)  # (s, K, I, R^X, R^op)
        gy = np.tensordot(cy, yc, axes=(1, 3)).transpose(0, 2, 3, 1)  # (s, K, I, R^Y)
        s, nx = gx.shape[0], gx.shape[3] * gx.shape[4]
        if m == 0:
            return float(np.linalg.norm(gx.reshape(-1) + gy.reshape(-1)))
        stacked = np.concatenate([gx.reshape(s, -1, nx),
                                  gy.reshape(s, -1, gy.shape[3])], axis=2)
        r = np.linalg.qr(stacked.reshape(-1, stacked.shape[2]), mode="r")
        cx = r[:, :nx].reshape(r.shape[0], gx.shape[3], gx.shape[4])
        cy = r[:, nx:]


def block_tt_column(u: BlockTT, k: int) -> VectorTT:
    cores = []
    for n, c in enumerate(u.cores):
        if n == u.block_position:
            cores.append(c[:, k, :, :])
        else:
            cores.append(c.copy())
    return VectorTT(cores)


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


def split_block_core_als(local: np.ndarray, direction: str, delta: float,
                         max_rank: int | None = None,
                         min_keep: int | None = None):
    """Truncated split of a one-core local solution (r_l, I, r_r, K).

    direction "right_to_left": rows (r_l, k), columns (i, r_r); returns
    ``(carry, core, rank)`` where ``carry`` has shape (r_l, K, rank) and
    absorbs the singular values (to be contracted into the left neighbor,
    which becomes the block core) and ``core`` (rank, I, r_r) is
    right-orthogonal.

    direction "left_to_right": rows (r_l, i), columns (r_r, k); returns
    ``(core, carry, rank)`` with ``core`` (r_l, I, rank) left-orthogonal and
    ``carry`` of shape (rank, r_r, K) to be contracted into the right
    neighbor.
    """
    r_l, i, r_r, k = local.shape
    if direction == "right_to_left":
        m = _rf(local.transpose(0, 3, 1, 2), (r_l * k, i * r_r))
        f = truncated_svd(m, delta, max_rank=max_rank, min_rank=min_keep)
        rank = len(f.s)
        carry = _rf(f.u * f.s[np.newaxis, :], (r_l, k, rank))
        core = _rf(f.v.T, (rank, i, r_r))
        return carry, core, rank
    if direction == "left_to_right":
        m = _rf(local, (r_l * i, r_r * k))
        f = truncated_svd(m, delta, max_rank=max_rank, min_rank=min_keep)
        rank = len(f.s)
        core = _rf(f.u, (r_l, i, rank))
        carry = _rf(f.s[:, np.newaxis] * f.v.T, (rank, r_r, k))
        return core, carry, rank
    raise ValueError(f"unknown direction {direction!r}")


def split_block_core_mals(local: np.ndarray, direction: str, delta: float,
                          max_rank: int | None = None,
                          min_keep: int | None = None):
    """Truncated split of a merged-core local solution (r_l, I_a, I_b, r_r, K).

    direction "right_to_left": rows (r_l, i_a, k) vs columns (i_b, r_r);
    returns ``(block_core, core, rank)`` with ``block_core`` in storage
    layout (r_l, K, I_a, rank) and ``core`` (rank, I_b, r_r) right-orthogonal.

    direction "left_to_right": rows (r_l, i_a) vs columns (i_b, r_r, k);
    returns ``(core, block_core, rank)`` with ``core`` (r_l, I_a, rank)
    left-orthogonal and ``block_core`` in storage layout (rank, K, I_b, r_r).
    """
    r_l, ia, ib, r_r, k = local.shape
    if direction == "right_to_left":
        m = _rf(local.transpose(0, 1, 4, 2, 3), (r_l * ia * k, ib * r_r))
        f = truncated_svd(m, delta, max_rank=max_rank, min_rank=min_keep)
        rank = len(f.s)
        block = _rf(f.u * f.s[np.newaxis, :], (r_l, ia, k, rank)).transpose(0, 2, 1, 3)
        core = _rf(f.v.T, (rank, ib, r_r))
        return block, core, rank
    if direction == "left_to_right":
        m = _rf(local, (r_l * ia, ib * r_r * k))
        f = truncated_svd(m, delta, max_rank=max_rank, min_rank=min_keep)
        rank = len(f.s)
        core = _rf(f.u, (r_l, ia, rank))
        block = _rf(f.s[:, np.newaxis] * f.v.T, (rank, ib, r_r, k)).transpose(0, 3, 1, 2)
        return core, block, rank
    raise ValueError(f"unknown direction {direction!r}")
