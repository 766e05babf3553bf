"""Environment tensors and projected local operators for the sweep solvers.

For chains U, A, V the left environment L^{<n} contracts everything strictly
left of position n into a third-order tensor of shape (R^U, R^A, R^V), and
R^{>n} does the same strictly to the right.  ``lefts[n]`` stores L^{<n}
(``lefts[0]`` is the scalar 1 as a (1,1,1) tensor) and ``rights[n]`` stores
R^{>n} (``rights[N-1]`` is the boundary 1).

The projected local matrix at position n,

    A_bar_n = (frame of U without core n)^T  A  (frame of V without core n),

acts on a block of local vectors by contracting (L^{<n}, Y, A-core, R^{>n})
in that order, and the transpose map by the mirror order; it can also be
materialized, and ``local_operator_macs`` gives the cost of both forms from
the operand shapes.  All kernels here run through the multiply-accumulate
counting wrapper so complexity claims are testable.
"""

from __future__ import annotations

import math

import numpy as np

from .counting import tdot
from .tt import BlockTT, MatrixTT, _rf


class Environment:
    """Holds the per-position left/right environment tensors of one triple."""

    def __init__(self, n_cores: int):
        self.n_cores = n_cores
        self.lefts = [None] * n_cores
        self.rights = [None] * n_cores
        self.lefts[0] = np.ones((1, 1, 1))
        self.rights[n_cores - 1] = np.ones((1, 1, 1))


def _core3(chain, n: int) -> np.ndarray:
    c = chain.cores[n]
    if c.ndim != 3:
        raise ValueError(
            f"core {n} is the block core; environments need third-order cores"
        )
    return c


def env_update_left(env: Environment, u, a: MatrixTT, v, n: int) -> Environment:
    """Absorb core n into the left environment, adding L^{<n+1}.

    Contraction order (L^{<n}, U-core, A-core, V-core), each step touching
    the smallest intermediate.
    """
    left = env.lefts[n]
    if left is None:
        raise ValueError(f"L^<{n} missing; update environments in order")
    cu, ca, cv = _core3(u, n), a.cores[n], _core3(v, n)
    t = tdot(left, cu, axes=(0, 0))              # (ra, rv, i, ru2)
    t = tdot(t, ca, axes=((0, 2), (0, 1)))       # (rv, ru2, j, ra2)
    t = tdot(t, cv, axes=((0, 2), (0, 1)))       # (ru2, ra2, rv2)
    if n + 1 < env.n_cores:
        env.lefts[n + 1] = t
    else:
        raise ValueError("cannot extend the left environment past the chain")
    return env


def env_update_right(env: Environment, u, a: MatrixTT, v, n: int) -> Environment:
    """Absorb core n into the right environment, adding R^{>n-1}.

    Contraction order (R^{>n}, V-core, A-core, U-core).
    """
    right = env.rights[n]
    if right is None:
        raise ValueError(f"R^>{n} missing; update environments in order")
    cu, ca, cv = _core3(u, n), a.cores[n], _core3(v, n)
    t = tdot(cv, right, axes=(2, 2))             # (rv, j, ru_n, ra_n)
    t = tdot(t, ca, axes=((1, 3), (2, 3)))       # (rv, ru_n, ra, i)
    t = tdot(t, cu, axes=((1, 3), (2, 1)))       # (rv, ra, ru)
    if n - 1 >= 0:
        env.rights[n - 1] = t.transpose(2, 1, 0)
    else:
        raise ValueError("cannot extend the right environment past the chain")
    return env


def env_init(u: BlockTT, a: MatrixTT, v: BlockTT) -> Environment:
    """Build all left environments for chains with the block core at the end.

    Requires cores 0..N-2 of u and v to be left-orthogonal (the usual state
    after initialization); the right side starts as just its boundary.
    """
    n = a.n_cores
    if u.block_position != n - 1 or v.block_position != n - 1:
        raise ValueError("env_init expects the block core at the last position")
    for chain, name in ((u, "u"), (v, "v")):
        if any(tag != "L" for tag in chain.orth[: n - 1]):
            raise ValueError(f"{name} cores left of the block must be left-orthogonal")
    env = Environment(n)
    for m in range(n - 1):
        env_update_left(env, u, a, v, m)
    return env


# ---------------------------------------------------------------------------
# projected operators
#
# The kernels take the local tensor with a trailing column axis of width m,
# so one contraction chain applies the operator to a whole block; the
# ``projected_*`` wrappers accept a flat local vector or a (size, m) block
# in the same column-major local layout.


def _apply_flat(kernel, operands, in_shape, y):
    """Run ``kernel`` on a flat vector or a (size, m) block of them."""
    y = np.asarray(y)
    out = kernel(*operands, _rf(y, in_shape + (-1,)))
    return _rf(out, (-1,) + y.shape[1:])


def local_operator_macs(left, a_cores, right, m: int):
    """MACs of the projected operator on one core or a merged pair.

    ``a_cores`` holds the A cores of the window.  Returns ``(build, matvec,
    rmatvec)``: materializing the dense local matrix with
    ``dense_local_matrix_*``, and applying the operator and its transpose
    matrix-free to an m-column block with the ``_matvec_*``/``_rmatvec_*``
    kernels.  Each equals what ``count_macs`` charges for that call.
    """
    ru, _, rv = left.shape
    ru_r, _, rv_r = right.shape
    ra = [c.shape[0] for c in a_cores] + [a_cores[-1].shape[3]]
    rows = [c.shape[1] for c in a_cores]
    cols = [c.shape[2] for c in a_cores]

    build, size = 0, ru * rv
    for t in range(len(a_cores)):
        size *= rows[t] * cols[t]
        build += size * ra[t + 1] * ra[t]
    build += size * ru_r * rv_r * ra[-1]

    def apply(r_out, r_in, n_out, n_in, rr_out, rr_in):
        # left env, then one A core per step, then the right env
        macs = r_out * ra[0] * r_in * math.prod(n_in) * rr_in * m
        for t in range(len(a_cores)):
            macs += (r_out * rr_in * m * math.prod(n_out[:t])
                     * math.prod(n_in[t:]) * ra[t] * n_out[t] * ra[t + 1])
        return macs + r_out * m * math.prod(n_out) * rr_out * rr_in * ra[-1]

    return (build, apply(ru, rv, rows, cols, ru_r, rv_r),
            apply(rv, ru, cols, rows, rv_r, ru_r))


# single core (one local position)


def _matvec_als(left, a_core, right, y):
    """(rv, j, rv_r, m) -> (ru, i, ru_r, m)."""
    t = tdot(left, y, axes=(2, 0))               # (ru, ra, j, rv_r, m)
    t = tdot(t, a_core, axes=((1, 2), (0, 2)))   # (ru, rv_r, m, i, ra_r)
    t = tdot(t, right, axes=((1, 4), (2, 1)))    # (ru, m, i, ru_r)
    return t.transpose(0, 2, 3, 1)


def _rmatvec_als(left, a_core, right, x):
    """(ru, i, ru_r, m) -> (rv, j, rv_r, m)."""
    t = tdot(left, x, axes=(0, 0))               # (ra, rv, i, ru_r, m)
    t = tdot(t, a_core, axes=((0, 2), (0, 1)))   # (rv, ru_r, m, j, ra_r)
    t = tdot(t, right, axes=((1, 4), (0, 1)))    # (rv, m, j, rv_r)
    return t.transpose(0, 2, 3, 1)


def projected_matvec_als(env: Environment, a_core: np.ndarray, n: int,
                         y: np.ndarray) -> np.ndarray:
    """Apply the projected matrix at position n to a local vector or block."""
    left, right = env.lefts[n], env.rights[n]
    return _apply_flat(_matvec_als, (left, a_core, right),
                       (left.shape[2], a_core.shape[2], right.shape[2]), y)


def projected_rmatvec_als(env: Environment, a_core: np.ndarray, n: int,
                          x: np.ndarray) -> np.ndarray:
    """Apply the transpose of the projected matrix at position n."""
    left, right = env.lefts[n], env.rights[n]
    return _apply_flat(_rmatvec_als, (left, a_core, right),
                       (left.shape[0], a_core.shape[1], right.shape[0]), x)


def dense_local_matrix_als(env: Environment, a_core: np.ndarray,
                           n: int) -> np.ndarray:
    """Materialize the projected matrix at position n."""
    left, right = env.lefts[n], env.rights[n]
    t = tdot(left, a_core, axes=(1, 0))          # (ru, rv, i, j, ra_r)
    t = tdot(t, right, axes=(4, 1))              # (ru, rv, i, j, ru_r, rv_r)
    t = t.transpose(0, 2, 4, 1, 3, 5)
    ru, i, ru_r, rv, j, rv_r = t.shape
    return _rf(t, (ru * i * ru_r, rv * j * rv_r))


# merged two-core (pair at positions n, n+1)


def _matvec_mals(left, a1, a2, right, y):
    """(rv, ja, jb, rv_r, m) -> (ru, ia, ib, ru_r, m)."""
    t = tdot(left, y, axes=(2, 0))               # (ru, ra, ja, jb, rv_r, m)
    t = tdot(t, a1, axes=((1, 2), (0, 2)))       # (ru, jb, rv_r, m, ia, ra_m)
    t = tdot(t, a2, axes=((5, 1), (0, 2)))       # (ru, rv_r, m, ia, ib, ra_r)
    t = tdot(t, right, axes=((1, 5), (2, 1)))    # (ru, m, ia, ib, ru_r)
    return t.transpose(0, 2, 3, 4, 1)


def _rmatvec_mals(left, a1, a2, right, x):
    """(ru, ia, ib, ru_r, m) -> (rv, ja, jb, rv_r, m)."""
    t = tdot(left, x, axes=(0, 0))               # (ra, rv, ia, ib, ru_r, m)
    t = tdot(t, a1, axes=((0, 2), (0, 1)))       # (rv, ib, ru_r, m, ja, ra_m)
    t = tdot(t, a2, axes=((5, 1), (0, 1)))       # (rv, ru_r, m, ja, jb, ra_r)
    t = tdot(t, right, axes=((1, 5), (0, 1)))    # (rv, m, ja, jb, rv_r)
    return t.transpose(0, 2, 3, 4, 1)


def projected_matvec_mals(env: Environment, a1: np.ndarray, a2: np.ndarray,
                          n: int, y: np.ndarray) -> np.ndarray:
    """Apply the merged projected matrix at (n, n+1) to a vector or block."""
    left, right = env.lefts[n], env.rights[n + 1]
    return _apply_flat(_matvec_mals, (left, a1, a2, right),
                       (left.shape[2], a1.shape[2], a2.shape[2],
                        right.shape[2]), y)


def projected_rmatvec_mals(env: Environment, a1: np.ndarray, a2: np.ndarray,
                           n: int, x: np.ndarray) -> np.ndarray:
    """Apply the transpose of the merged projected matrix."""
    left, right = env.lefts[n], env.rights[n + 1]
    return _apply_flat(_rmatvec_mals, (left, a1, a2, right),
                       (left.shape[0], a1.shape[1], a2.shape[1],
                        right.shape[0]), x)


def dense_local_matrix_mals(env: Environment, a1: np.ndarray, a2: np.ndarray,
                            n: int) -> np.ndarray:
    """Materialize the merged projected matrix for the pair (n, n+1)."""
    left, right = env.lefts[n], env.rights[n + 1]
    t = tdot(left, a1, axes=(1, 0))              # (ru, rv, ia, ja, ra_m)
    t = tdot(t, a2, axes=(4, 0))                 # (ru, rv, ia, ja, ib, jb, ra_r)
    t = tdot(t, right, axes=(6, 1))              # (ru, rv, ia, ja, ib, jb, ru_r, rv_r)
    t = t.transpose(0, 2, 4, 6, 1, 3, 5, 7)
    ru, ia, ib, ru_r, rv, ja, jb, rv_r = t.shape
    return _rf(t, (ru * ia * ib * ru_r, rv * ja * jb * rv_r))


# ---------------------------------------------------------------------------
# consistency checking


def recompute_environment(u, a: MatrixTT, v, position: int) -> Environment:
    """Environments rebuilt from scratch for chains with the block at ``position``.

    Fills lefts[0..position] and rights[position..N-1]; the other entries stay
    None because the corresponding side would have to cross the block core.
    """
    n = a.n_cores
    env = Environment(n)
    for m in range(position):
        env_update_left(env, u, a, v, m)
    for m in range(n - 1, position, -1):
        env_update_right(env, u, a, v, m)
    return env


def environment_deviation(env: Environment, u, a: MatrixTT, v,
                          position: int) -> float:
    """Max abs difference between maintained and freshly recomputed tensors."""
    fresh = recompute_environment(u, a, v, position)
    dev = 0.0
    for m in range(position + 1):
        if env.lefts[m] is not None and fresh.lefts[m] is not None:
            dev = max(dev, float(np.max(np.abs(env.lefts[m] - fresh.lefts[m]))))
    for m in range(position, a.n_cores):
        if env.rights[m] is not None and fresh.rights[m] is not None:
            dev = max(dev, float(np.max(np.abs(env.rights[m] - fresh.rights[m]))))
    return dev
