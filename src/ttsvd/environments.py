"""Environment tensors and projected local operators for the sweep solvers.

For chains U, A, V the left environment L^{<n} contracts everything strictly
left of position n into a third-order tensor of shape (R^U, R^A, R^V), and
R^{>n} does the same strictly to the right.  ``lefts[n]`` stores L^{<n}
(``lefts[0]`` is the scalar 1 as a (1,1,1) tensor) and ``rights[n]`` stores
R^{>n} (``rights[N-1]`` is the boundary 1).

The projected local matrix of a window of w = 1 or 2 cores starting at n,

    A_bar_n = (frame of U without the window)^T  A  (frame of V without it),

acts on a block of local vectors by contracting (L^{<n}, Y, the window's A
cores, R^{>n+w-1}) in that order, and the transpose map by the mirror
order; it can also be materialized, and ``local_operator_macs`` gives the
cost of both forms from the operand shapes.  One code path serves every
window width, so ALS (w = 1) and MALS (w = 2) share the same kernels.  All
kernels here run through the multiply-accumulate counting wrapper so
complexity claims are testable.
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
# ``a_cores`` holds the A cores of the window and ``n`` its first position.
# The ``projected_*`` maps accept a flat local vector or a (size, m) block in
# the column-major local layout, and one contraction chain applies the
# operator to the whole block.


def local_operator_macs(left, a_cores, right, m: int):
    """MACs of the projected operator of a window.

    ``a_cores`` holds the A cores of the window.  Returns ``(build, matvec,
    rmatvec)``: materializing the dense local matrix with
    ``dense_local_matrix``, and applying the operator and its transpose
    matrix-free to an m-column block with ``projected_matvec``/
    ``projected_rmatvec``.  Each equals what ``count_macs`` charges for that
    call.
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


def _window(env: Environment, a_cores, n: int):
    """Left and right environments of the window of ``a_cores`` at n."""
    return env.lefts[n], env.rights[n + len(a_cores) - 1]


def _apply(env: Environment, a_cores, n: int, y, transpose: bool):
    """Apply the projected operator, or its transpose, to a vector or block.

    The local tensor is (rv, j_1..j_w, rv_r, m) -> (ru, i_1..i_w, ru_r, m),
    or the mirror for the transpose.  The order is the left environment,
    one A core per window position, then the right environment.
    """
    left, right = _window(env, a_cores, n)
    side, mode = (0, 1) if transpose else (2, 2)
    shape = (left.shape[side], *(c.shape[mode] for c in a_cores),
             right.shape[side])
    y = np.asarray(y)
    # (r_out, ra, n_1..n_w, rr_in, m); ra comes first for the transpose
    t = tdot(left, _rf(y, shape + (-1,)), axes=(side, 0))
    ra, n_in = (0, 2) if transpose else (1, 2)
    for core in a_cores:     # each step appends (n_out, ra_next)
        t = tdot(t, core, axes=((ra, n_in), (0, mode)))
        ra, n_in = t.ndim - 1, 1
    t = tdot(t, right, axes=((1, ra), (side, 1)))  # (r_out, m, n_out.., rr_out)
    return _rf(t.transpose(0, *range(2, t.ndim), 1), (-1,) + y.shape[1:])


def projected_matvec(env: Environment, a_cores, n: int,
                     y: np.ndarray) -> np.ndarray:
    """Apply the projected matrix of the window at n to a vector or block."""
    return _apply(env, a_cores, n, y, transpose=False)


def projected_rmatvec(env: Environment, a_cores, n: int,
                      x: np.ndarray) -> np.ndarray:
    """Apply the transpose of the projected matrix of the window at n."""
    return _apply(env, a_cores, n, x, transpose=True)


def dense_local_matrix(env: Environment, a_cores, n: int) -> np.ndarray:
    """Materialize the projected matrix of the window at n."""
    left, right = _window(env, a_cores, n)
    t, ra = left, 1
    for core in a_cores:     # each step appends (i, j, ra_next)
        t = tdot(t, core, axes=(ra, 0))
        ra = t.ndim - 1
    t = tdot(t, right, axes=(ra, 1))  # (ru, rv, i_1, j_1, .., ru_r, rv_r)
    t = t.transpose(*range(0, t.ndim, 2), *range(1, t.ndim, 2))
    nrow = math.prod(t.shape[: t.ndim // 2])
    return _rf(t, (nrow, -1))


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
