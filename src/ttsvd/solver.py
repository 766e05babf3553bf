"""Sweep solvers for the K dominant singular triplets of a TT matrix.

One sweep engine (``_driver`` with its ``_half_sweep``) serves four entry
points.  They differ only in the window (a single core for ALS, a merged
core pair for MALS) and in the local problem.  Every layer under the sweep
is written once for a window of either width: the projected operator
(``_local_operator`` over ``environments.projected_matvec`` and friends),
the truncated split (``tt.split_block_core``, through ``_split_into``) and
the rank floor (``_min_keep``).  The only width-specific step is that a
one-core split's K factor is contracted into the neighbouring core.

* ``als_svd`` / ``mals_svd`` sweep the left and right singular chains
  (U, V) over A.  Each micro-iteration solves a local SVD of the projected
  matrix A_bar, writes the solution into the block core, splits it with a
  truncated SVD that adapts the bond rank, and updates the environments
  incrementally.
* ``als_eig_baseline`` / ``mals_eig_baseline`` sweep a single chain (V,)
  over the Gram matrix B = A^T A with a local eigenproblem, then recover
  U = A V Sigma^{-1}.

Restarts, the best-iterate fallback and termination are the same for all
four.  Each local problem takes one of three paths, chosen in
``_local_operator`` alone and recorded per micro-iteration as
``local_path``:

* ``"dense"``: at most ``dense_crossover`` rows plus columns (columns alone
  for the Gram problem), the local matrix is built and decomposed directly.
* ``"krylov-dense-op"``: above the crossover, when building the local
  matrix plus one GEMM apply of it to the K-column block costs no more
  multiply-accumulates than one matrix-free apply to that block, it is
  built once and block Krylov applies it by GEMM.
* ``"krylov-matrix-free"``: otherwise block Krylov applies the contraction
  chain of the environments to the whole block.

Block Krylov runs on the symmetric embedding [[0, A], [A^T, 0]] (or on the
projected Gram matrix directly), with full reorthogonalization,
deterministic seeded starts warm-started from the current block core, and
Rayleigh-Ritz extraction of the K largest (positive) pairs.

Rank floors: truncated splits keep at least enough rank that the next
window's local problem can still hold K orthonormal columns (mirroring the
minimal-rank initialization rule); without this, aggressive first-sweep
truncation could make an end-of-chain local problem infeasible.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .counting import tdot
from .environments import (
    Environment,
    dense_local_matrix,
    env_init,
    env_update_left,
    env_update_right,
    environment_deviation,
    local_operator_macs,
    projected_matvec,
    projected_rmatvec,
)
from .generators import random_block_tt
from .tt import (
    BlockTT,
    MatrixTT,
    _rf,
    block_tt_matvec,
    block_tt_residual_norm,
    block_tt_round,
    block_tt_scale_columns,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    merge_cores,
    split_block_core,
)

# The benchmark's outside-in tracer (perfbench/tracing.py) wraps these module
# attributes by name, one per window width, so they stay bound as aliases of
# the one windowed implementation.  The sweep calls the ``_als`` name for a
# one-core window and the ``_mals`` name for a merged pair, looked up here at
# call time, so a trace still sees every call.
dense_local_matrix_als = dense_local_matrix_mals = dense_local_matrix
split_block_core_als = split_block_core_mals = split_block_core

# The first half sweep of every attempt truncates at this multiple of the
# working delta; the Gram baselines round A^T A and the recovered U at
# epsilon divided by _GRAM_DELTA_DIVISOR.
_FIRST_HALFSWEEP_DELTA_FACTOR = 100.0
_GRAM_DELTA_DIVISOR = 10


class LocalSolverError(RuntimeError):
    """The iterative local solver failed; the sweep driver may restart."""


@dataclass
class SolverConfig:
    """Knobs for the sweep drivers.

    ``delta0`` defaults to epsilon / sqrt(N-1) at run time; the first half
    sweep of every attempt truncates at 100 times the working delta, and
    each restart shrinks the working delta by ``restart_delta_shrink`` and
    reseeds the initial chains.  The Gram baselines round A^T A and the
    recovered U at epsilon / 10; the stopping residual is exact.

    ``on_micro_iteration``, if set, is called once per micro-iteration of
    every solver as ``callback(record, *chains)``, where ``record`` holds
    the position, direction and Sigma estimate and ``chains`` is (U, V)
    for the SVD solvers and (V,) for the Gram baselines.  For one-core
    windows the chains are copies of the pre-split iterate (the local
    solution written into the block core); for merged windows, copies of
    the post-split iterate.
    """

    k: int
    epsilon: float = 1e-8
    delta0: float | None = None
    max_full_sweeps: int = 20
    max_restarts: int = 2
    restart_delta_shrink: float = 0.1
    seed: int = 0
    local_tol: float = 1e-10
    local_max_iter: int = 400
    dense_crossover: int = 600
    max_rank: int | None = None
    track_env_consistency: bool = False
    on_micro_iteration: Callable | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("block size k must be at least 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.delta0 is not None and self.delta0 < 0:
            raise ValueError("delta0 must be nonnegative")
        if self.max_full_sweeps < 1:
            raise ValueError("need at least one sweep")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be nonnegative")
        if not 0 < self.restart_delta_shrink <= 1:
            raise ValueError("restart_delta_shrink must lie in (0, 1]")
        if self.dense_crossover < 0:
            raise ValueError("dense_crossover must be nonnegative")


@dataclass
class SweepReport:
    """Execution trace of one solver run (all attempts included).

    ``micro`` holds one record per micro-iteration: position, direction,
    bond ranks after the split, the current Sigma estimate, the local
    solver's iteration count (0 = dense direct solve) and its
    ``local_path`` (see the module docstring).  ``residual_history`` has
    one entry per completed full sweep.  ``sweeps_used`` counts sweeps
    of the attempt that produced the returned iterate; ``total_sweeps``
    counts across restarts.
    """

    solver: str = ""
    k: int = 0
    micro: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    sweeps_used: int = 0
    total_sweeps: int = 0
    restarts_used: int = 0
    wall_time_s: float = 0.0
    termination: str = ""
    delta_final: float = 0.0
    env_consistency_max: float | None = None

    def to_json(self) -> dict:
        return {
            "solver": self.solver,
            "k": self.k,
            "micro_iterations": self.micro,
            "residual_history": self.residual_history,
            "sweeps_used": self.sweeps_used,
            "total_sweeps": self.total_sweeps,
            "restarts_used": self.restarts_used,
            "wall_time_s": self.wall_time_s,
            "termination": self.termination,
            "delta_final": self.delta_final,
            "env_consistency_max": self.env_consistency_max,
        }


# ---------------------------------------------------------------------------
# local solvers


def _sign_fix_pair(u_loc: np.ndarray, v_loc: np.ndarray) -> None:
    for i in range(u_loc.shape[1]):
        j = int(np.argmax(np.abs(u_loc[:, i])))
        if u_loc[j, i] < 0:
            u_loc[:, i] *= -1.0
            v_loc[:, i] *= -1.0


def _sign_fix_single(v_loc: np.ndarray) -> None:
    for i in range(v_loc.shape[1]):
        j = int(np.argmax(np.abs(v_loc[:, i])))
        if v_loc[j, i] < 0:
            v_loc[:, i] *= -1.0


def dense_block_svd(abar: np.ndarray, k: int):
    """Top-K singular triplets of a dense matrix, sign-fixed."""
    u, s, vt = np.linalg.svd(np.asarray(abar, dtype=float), full_matrices=False)
    u = u[:, :k].copy()
    v = vt[:k].T.copy()
    s = s[:k].copy()
    _sign_fix_pair(u, v)
    return u, s, v


def dense_block_eig(bbar: np.ndarray, k: int):
    """K algebraically largest eigenpairs of a (symmetrized) dense matrix."""
    h = 0.5 * (bbar + bbar.T)
    lam, vecs = np.linalg.eigh(h)
    order = np.argsort(-lam, kind="stable")[:k]
    lam = lam[order].copy()
    v = vecs[:, order].copy()
    _sign_fix_single(v)
    return lam, v


def _orthonormalize_block(w: np.ndarray, basis: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize w against the basis (twice) and internally.

    Columns swallowed by the basis (their norm collapses relative to what
    they came in with, the usual sign of Krylov saturation) and columns
    that collapse during the QR step are replaced with fresh random
    directions orthogonal to everything kept so far, so the returned block
    always spans new orthonormal directions.
    """
    dim = w.shape[0]
    w = np.array(w, dtype=float)
    orig = np.linalg.norm(w, axis=0)
    for _ in range(2):
        if basis.shape[1]:
            w -= basis @ (basis.T @ w)
    norms = np.linalg.norm(w, axis=0)
    for idx in np.nonzero(norms <= 1e-10 * np.maximum(orig, 1e-300))[0]:
        vec = rng.standard_normal(dim)
        for _ in range(2):
            if basis.shape[1]:
                vec -= basis @ (basis.T @ vec)
        w[:, idx] = vec
    q, r = np.linalg.qr(w)
    d = np.abs(np.diagonal(r))
    ref = float(d.max()) if d.size else 0.0
    bad = d <= 1e-10 * max(ref, 1e-300)
    if np.any(bad):
        for idx in np.nonzero(bad)[0]:
            vec = rng.standard_normal(dim)
            if basis.shape[1]:
                vec -= basis @ (basis.T @ vec)
            vec -= q @ (q.T @ vec)
            nrm = float(np.linalg.norm(vec))
            if nrm > 0:
                q[:, idx] = vec / nrm
        q, _ = np.linalg.qr(q)
        if basis.shape[1]:
            q -= basis @ (basis.T @ q)
            q, _ = np.linalg.qr(q)
    return q


def _krylov_symmetric(apply_op, dim: int, k: int, tol: float, max_iter: int,
                      seed, start, positive_only: bool):
    """Block Krylov + Rayleigh-Ritz for a symmetric operator.

    Extraction starts once the basis holds at least min(2k+4, dim) vectors;
    the K kept pairs are the largest positive Ritz values (falling back to
    the largest remaining ones if fewer than K are positive), with ties
    broken by Ritz index order.  Returns (theta, vectors, iterations).
    """
    rng = np.random.default_rng(seed)
    block = min(k, dim)
    if start is not None and start.shape == (dim, block):
        w = np.asarray(start, dtype=float)
    else:
        w = rng.standard_normal((dim, block))
    basis = np.empty((dim, 0))
    bbasis = np.empty((dim, 0))
    ritz_target = min(2 * k + 4, dim)
    for it in range(1, max_iter + 1):
        width = min(w.shape[1], dim - basis.shape[1])
        if width > 0:
            qblk = _orthonormalize_block(w[:, :width], basis, rng)
            bq = apply_op(qblk)
            basis = np.hstack([basis, qblk])
            bbasis = np.hstack([bbasis, bq])
        full = basis.shape[1] >= dim
        if full or basis.shape[1] >= ritz_target:
            h = basis.T @ bbasis
            h = 0.5 * (h + h.T)
            theta, y = np.linalg.eigh(h)
            order = np.argsort(-theta, kind="stable")
            if positive_only:
                sel = [i for i in order if theta[i] > 0][:k]
                if len(sel) < k:
                    chosen = set(sel)
                    sel += [i for i in order if i not in chosen][: k - len(sel)]
            else:
                sel = list(order[:k])
            theta_k = theta[sel]
            z = basis @ y[:, sel]
            bz = bbasis @ y[:, sel]
            resid = np.linalg.norm(bz - z * theta_k[np.newaxis, :], axis=0)
            scale = max(float(np.max(np.abs(theta_k))), 1e-300)
            if full or bool(np.all(resid <= tol * scale)):
                return theta_k, z, it
        w = bq
    raise LocalSolverError(
        f"block Krylov solver did not converge in {max_iter} iterations"
    )


def krylov_block_svd(matvec, rmatvec, p: int, q: int, k: int, tol: float = 1e-10,
                     max_iter: int = 400, seed=0, start=None):
    """Matrix-free top-K singular triplets via the symmetric embedding.

    ``matvec`` maps a (q, m) block to the (p, m) block A Y and ``rmatvec`` a
    (p, m) block to A^T X; each is called once per Krylov step on the whole
    block.  The operator [[0, A], [A^T, 0]] has eigenvalues {+-sigma_i}
    plus zeros, so the K largest positive Ritz values approximate the
    dominant singular values and each Ritz vector carries (u_i, v_i)/sqrt(2)
    in its halves.
    """
    if k > min(p, q):
        raise ValueError(f"cannot take {k} triplets from a {p} x {q} problem")
    dim = p + q

    def apply_b(blockm):
        return np.vstack([matvec(blockm[p:]), rmatvec(blockm[:p])])

    theta, z, iters = _krylov_symmetric(apply_b, dim, k, tol, max_iter, seed,
                                        start, positive_only=True)
    rng = np.random.default_rng(seed)
    u = z[:p].copy() * math.sqrt(2.0)
    v = z[p:].copy() * math.sqrt(2.0)
    sigma = np.maximum(theta, 0.0)
    scale = float(sigma[0]) if sigma.size and sigma[0] > 0 else 1.0
    # Halves of positive-sigma Ritz pairs come out orthonormal on their own
    # (u_i . u_j = v_i . v_j must cancel in the embedding); zero-sigma columns
    # mix the two null spaces arbitrarily, so those are re-orthogonalized
    # against every earlier column (sigma is nonincreasing, so all columns
    # after the first zero one are zero too).
    for arr in (u, v):
        for c in range(k):
            if sigma[c] <= 1e-10 * scale:
                for _ in range(2):
                    arr[:, c] -= arr[:, :c] @ (arr[:, :c].T @ arr[:, c])
            nrm = float(np.linalg.norm(arr[:, c]))
            if nrm < 1e-8:
                vec = rng.standard_normal(arr.shape[0])
                for _ in range(2):
                    vec -= arr[:, :c] @ (arr[:, :c].T @ vec)
                arr[:, c] = vec / float(np.linalg.norm(vec))
            else:
                arr[:, c] /= nrm
    _sign_fix_pair(u, v)
    return u, sigma, v, iters


def krylov_block_eig(matvec, dim: int, k: int, tol: float = 1e-10,
                     max_iter: int = 400, seed=0, start=None):
    """Matrix-free K algebraically largest eigenpairs of a symmetric map.

    ``matvec`` maps a (dim, m) block to its image, once per Krylov step.
    """
    if k > dim:
        raise ValueError(f"cannot take {k} eigenpairs from dimension {dim}")
    theta, z, iters = _krylov_symmetric(matvec, dim, k, tol, max_iter, seed,
                                        start, positive_only=False)
    z = z.copy()
    _sign_fix_single(z)
    return theta, z, iters


def _gemm(mat: np.ndarray, axis: int):
    """Block apply of a built local matrix (axis 1) or its transpose (axis 0).

    Goes through ``tdot`` so MAC counters still see the work.
    """
    return lambda y: tdot(mat, y, axes=(axis, 0))


def local_block_svd(matvec, rmatvec, p: int, q: int, k: int, tol: float = 1e-10,
                    max_iter: int = 400, seed=0, start=None, dense_builder=None):
    """K dominant singular triplets of the projected local matrix.

    With ``dense_builder`` the local matrix it returns is decomposed
    directly (the sweep passes one only on the dense path chosen by
    ``_local_operator``); otherwise block Krylov runs on ``matvec``/
    ``rmatvec`` (block maps, see krylov_block_svd).
    Returns (U_loc, Sigma, V_loc, iterations).
    """
    if k > min(p, q):
        raise ValueError(f"cannot take {k} triplets from a {p} x {q} problem")
    if dense_builder is not None:
        u, s, v = dense_block_svd(dense_builder(), k)
        return u, s, v, 0
    return krylov_block_svd(matvec, rmatvec, p, q, k, tol=tol,
                            max_iter=max_iter, seed=seed, start=start)


def local_block_eig(matvec, dim: int, k: int, tol: float = 1e-10,
                    max_iter: int = 400, seed=0, start=None, dense_builder=None):
    """K largest eigenpairs of the projected Gram matrix; see local_block_svd."""
    if k > dim:
        raise ValueError(f"cannot take {k} eigenpairs from dimension {dim}")
    if dense_builder is not None:
        lam, v = dense_block_eig(dense_builder(), k)
        return lam, v, 0
    return krylov_block_eig(matvec, dim, k, tol=tol, max_iter=max_iter,
                            seed=seed, start=start)


# ---------------------------------------------------------------------------
# residuals


def residual(a: MatrixTT, u: BlockTT, v: BlockTT, sigma,
             delta: float | None = None) -> float:
    """Relative residual ||A^T U - V Sigma||_F / ||Sigma||_F in TT arithmetic.

    Exact up to floating-point rounding (about 1e-15 relative to the terms):
    ``block_tt_residual_norm`` sweeps the unrounded chain, never forming or
    rounding A^T U.  Its QR reductions keep tiny residuals resolvable, where
    a Gram-trace norm bottoms out near sqrt(machine epsilon) times ||Sigma||.
    ``delta`` is ignored, kept so five-argument calls keep working.
    """
    sig = np.asarray(sigma, dtype=float)
    signorm = float(np.linalg.norm(sig))
    if signorm == 0.0:
        raise ValueError("residual is undefined for an all-zero spectrum")
    return block_tt_residual_norm(matrix_tt_transpose(a), u, np.ones(sig.shape),
                                  v, sig) / signorm


def _gram_residual(bmat: MatrixTT, v: BlockTT, sigma: np.ndarray) -> float:
    """Stopping metric ||B V pinv(Sigma) - V Sigma||_F / ||Sigma||_F for B = A^T A."""
    signorm = float(np.linalg.norm(sigma))
    if signorm == 0.0:
        raise ValueError("residual is undefined for an all-zero spectrum")
    smax = float(sigma.max())
    pinv = np.where(sigma > 1e-14 * smax, 1.0 / np.where(sigma > 0, sigma, 1.0), 0.0)
    return block_tt_residual_norm(bmat, v, pinv, v, sigma) / signorm


# ---------------------------------------------------------------------------
# the sweep engine


def _block_as_local(chain: BlockTT, q: int, pair: bool) -> np.ndarray:
    """Block core at q, or the merged pair (q, q+1), as a (local size, K) matrix."""
    if pair:
        t = merge_cores(chain, q + 1)
    else:
        t = chain.cores[q].transpose(0, 2, 3, 1)
    return _rf(t, (-1, t.shape[-1]))


@dataclass(frozen=True)
class _LocalOperator:
    matvec: Callable
    rmatvec: Callable
    build: Callable
    rows: tuple  # local tensor shape of the row (U) side
    cols: tuple  # local tensor shape of the column (V) side
    path: str


def _local_operator(env: Environment, a: MatrixTT, q: int, pair: bool,
                    k: int, crossover: int, gram: bool) -> _LocalOperator:
    """Projected operator at core q, or on the merged pair (q, q+1).

    The only place that picks the local path.  At most ``crossover`` rows
    plus columns for the SVD (columns for the Gram problem) it is
    ``"dense"``, and the sweep hands ``build`` to the local solver.  Above
    the crossover the local matrix is built here, for block Krylov to apply
    by GEMM, when building it plus one GEMM block apply costs no more MACs
    than one matrix-free block apply (both directions for the SVD); the
    built path then never costs more, however few Krylov steps it takes.
    """
    cores = tuple(a.cores[q:q + 1 + pair])
    left, right = env.lefts[q], env.rights[q + pair]
    matvec = functools.partial(projected_matvec, env, cores, q)
    rmatvec = functools.partial(projected_rmatvec, env, cores, q)

    def build():
        return (dense_local_matrix_mals if pair
                else dense_local_matrix_als)(env, cores, q)
    rows = (left.shape[0], *(c.shape[1] for c in cores), right.shape[0])
    cols = (left.shape[2], *(c.shape[2] for c in cores), right.shape[2])
    nrow, ncol = math.prod(rows), math.prod(cols)
    build_macs, mv_macs, rmv_macs = local_operator_macs(left, cores, right, k)
    if gram:
        size, free_macs, gemm_macs = ncol, mv_macs, nrow * ncol * k
    else:
        size, free_macs, gemm_macs = (nrow + ncol, mv_macs + rmv_macs,
                                      2 * nrow * ncol * k)
    if size <= crossover:
        path = "dense"
    elif build_macs + gemm_macs <= free_macs:
        path = "krylov-dense-op"
        mat = build()
        matvec, rmatvec = _gemm(mat, 1), _gemm(mat, 0)
    else:
        path = "krylov-matrix-free"
    return _LocalOperator(matvec, rmatvec, build, rows, cols, path)


def _min_keep(chain: BlockTT, q: int, pair: bool, k: int, r2l: bool) -> int:
    """Rank floor so the next window of the sweep can still hold K columns.

    The window at q moves one core left (right to left) or right; the new
    bond's rank times the rest of the next window's local size must reach K.
    There is no next window at the end of a merged-pair sweep.
    """
    nxt = range(q - 1, q + pair) if r2l else range(q + 1, q + 2 + pair)
    if nxt.start < 0 or nxt.stop > chain.n_cores:
        return 1
    cores = [chain.cores[m] for m in nxt]
    cap = (cores[0].shape[0] if r2l else cores[-1].shape[2]) * math.prod(
        c.shape[1] for c in cores)
    return max(1, math.ceil(k / max(cap, 1)))


def _split_into(chain: BlockTT, q: int, local: np.ndarray, delta: float,
                cfg: SolverConfig, pair: bool, r2l: bool) -> None:
    """Truncated split of a local solution; the block core moves one step.

    The window is core q, or the pair (q, q+1).  Splitting right to left
    leaves its rightmost core right-orthogonal, left to right its leftmost
    core left-orthogonal.  A one-core split's K factor is contracted into
    the neighbouring core, which becomes the block core.
    """
    direction = "right_to_left" if r2l else "left_to_right"
    keep = _min_keep(chain, q, pair, cfg.k, r2l)
    split = split_block_core_mals if pair else split_block_core_als
    left, right, _ = split(local, direction, delta, max_rank=cfg.max_rank,
                           min_keep=keep)
    m = q + pair - 1 if r2l else q  # the split writes cores m and m + 1
    if not pair and r2l:
        nb = np.tensordot(chain.cores[m], left, axes=(2, 0))
        left = nb.transpose(0, 2, 1, 3)
    elif not pair:
        right = np.tensordot(right, chain.cores[m + 1], axes=(2, 0))
    chain.cores[m], chain.cores[m + 1] = left, right
    chain.orth[m], chain.orth[m + 1] = (None, "R") if r2l else ("L", None)
    chain.block_position = m if r2l else m + 1


def _advance(env: Environment, a: MatrixTT, chains, locals_, q: int,
             delta: float, cfg: SolverConfig, pair: bool, r2l: bool) -> None:
    """Split each local solution into its chain and move the environment.

    ``chains`` is (U, V) for the SVD problem and (V,) for the Gram problem.
    """
    for chain, local in zip(chains, locals_):
        _split_into(chain, q, local, delta, cfg, pair, r2l)
    u, v = chains[0], chains[-1]
    if r2l:
        env_update_right(env, u, a, v, q + pair)
    else:
        env_update_left(env, u, a, v, q)


def _micro_record(p: int, direction: str, chains, sigma, iters: int,
                  path: str) -> dict:
    return {
        "position": int(p),
        "direction": direction,
        "ranks_u": (None if len(chains) == 1
                    else [int(r) for r in chains[0].ranks]),
        "ranks_v": [int(r) for r in chains[-1].ranks],
        "sigma": [float(s) for s in sigma],
        "local_iterations": int(iters),
        "local_path": path,
    }


def _half_sweep(a: MatrixTT, chains, env: Environment, cfg: SolverConfig,
                delta: float, rng: np.random.Generator, report: SweepReport,
                pair: bool, direction: str) -> np.ndarray:
    """One half sweep over ``a``; returns the Sigma of its last window.

    ``chains`` is (U, V) for the SVD problem over A, or (V,) for the Gram
    problem over B = A^T A, whose local eigenvalues lambda give
    Sigma = sqrt(max(lambda, 0)).
    """
    gram = len(chains) == 1
    r2l = direction == "right_to_left"
    positions = range(a.n_cores - 1, 0, -1) if r2l else range(0, a.n_cores - 1)
    callback = cfg.on_micro_iteration
    sigma = None
    for p in positions:
        q = p - 1 if pair and r2l else p
        op = _local_operator(env, a, q, pair, cfg.k, cfg.dense_crossover, gram)
        start = np.vstack([_block_as_local(c, q, pair) for c in chains])
        kw = dict(tol=cfg.local_tol, max_iter=cfg.local_max_iter,
                  seed=int(rng.integers(0, 2**63 - 1)),
                  dense_builder=op.build if op.path == "dense" else None)
        if gram:
            lam, v_loc, iters = local_block_eig(
                op.matvec, math.prod(op.cols), cfg.k, start=start, **kw)
            sigma = np.sqrt(np.maximum(np.asarray(lam, dtype=float), 0.0))
            locals_ = (_rf(v_loc, op.cols + (cfg.k,)),)
        else:
            u_loc, sig, v_loc, iters = local_block_svd(
                op.matvec, op.rmatvec, math.prod(op.rows), math.prod(op.cols),
                cfg.k, start=start / math.sqrt(2.0), **kw)
            sigma = np.asarray(sig, dtype=float)
            locals_ = (_rf(u_loc, op.rows + (cfg.k,)),
                       _rf(v_loc, op.cols + (cfg.k,)))
        info = {"position": p, "direction": direction,
                "sigma": [float(s) for s in sigma]}
        if callback is not None and not pair:
            trial = [c.copy() for c in chains]
            for chain, local in zip(trial, locals_):
                chain.cores[p] = local.transpose(0, 3, 1, 2)
            callback(info, *trial)
        _advance(env, a, chains, locals_, q, delta, cfg, pair, r2l)
        if callback is not None and pair:
            callback(info, *(c.copy() for c in chains))
        report.micro.append(_micro_record(p, direction, chains, sigma, iters,
                                          op.path))
    return sigma


def _track_env(report: SweepReport, cfg: SolverConfig, env: Environment,
               u: BlockTT, a: MatrixTT, v: BlockTT) -> None:
    if not cfg.track_env_consistency:
        return
    dev = environment_deviation(env, u, a, v, u.block_position)
    report.env_consistency_max = max(report.env_consistency_max or 0.0, dev)


def _check_problem(a: MatrixTT, cfg: SolverConfig) -> None:
    if a.n_cores < 2:
        raise ValueError("sweep solvers need at least two cores")
    if cfg.k > min(a.n_rows, a.n_cols):
        raise ValueError("block size k exceeds the matrix dimensions")
    for m, core in enumerate(a.cores):
        if not np.isfinite(core).all():
            raise ValueError(f"core {m} of the matrix holds NaN or inf")


def _driver(a: MatrixTT, cfg: SolverConfig, pair: bool, gram: bool, name: str):
    """Restarted sweeps with a best-iterate fallback; returns (Sigma, U, V, report).

    The SVD problem sweeps (U, V) over A.  The Gram problem sweeps (V,) over
    B = A^T A rounded at epsilon / 10, then recovers U = A V Sigma^{-1}
    from the returned iterate.  Sigma is only taken from a completed
    left-to-right half sweep.
    """
    _check_problem(a, cfg)
    n = a.n_cores
    t0 = time.perf_counter()
    if gram:
        rdelta = cfg.epsilon / _GRAM_DELTA_DIVISOR
        op = matrix_tt_round(matrix_tt_matmul(matrix_tt_transpose(a), a), rdelta)
        sizes = (a.col_sizes,)
    else:
        op, sizes = a, (a.row_sizes, a.col_sizes)
    delta0 = cfg.delta0 if cfg.delta0 is not None else cfg.epsilon / math.sqrt(n - 1)
    report = SweepReport(solver=name, k=cfg.k)
    if cfg.track_env_consistency:
        report.env_consistency_max = 0.0
    best = None
    termination = "sweep-limit"
    sigma = np.zeros(cfg.k)

    for attempt in range(cfg.max_restarts + 1):
        delta = delta0 * (cfg.restart_delta_shrink ** attempt)
        report.delta_final = delta
        ss = np.random.SeedSequence([int(cfg.seed), attempt]).spawn(len(sizes) + 1)
        chains = tuple(random_block_tt(m, cfg.k, 1, s) for m, s in zip(sizes, ss))
        rng = np.random.default_rng(ss[-1])
        env = env_init(chains[0], op, chains[-1])
        converged = False
        sweeps_this = 0
        for sweep in range(cfg.max_full_sweeps):
            d_first = delta * (_FIRST_HALFSWEEP_DELTA_FACTOR if sweep == 0 else 1.0)
            try:
                _half_sweep(op, chains, env, cfg, d_first, rng, report, pair,
                            "right_to_left")
                _track_env(report, cfg, env, chains[0], op, chains[-1])
                sigma = _half_sweep(op, chains, env, cfg, delta, rng, report,
                                    pair, "left_to_right")
                _track_env(report, cfg, env, chains[0], op, chains[-1])
            except LocalSolverError:
                break
            sweeps_this += 1
            report.total_sweeps += 1
            if gram:
                r = _gram_residual(op, chains[0], sigma)
            else:
                r = residual(a, *chains, sigma)
            report.residual_history.append(
                {"attempt": int(attempt), "sweep": int(sweep),
                 "residual": float(r)})
            if best is None or r < best[0]:
                best = (r, sigma.copy(), tuple(c.copy() for c in chains),
                        sweeps_this)
            if r < cfg.epsilon:
                converged = True
                break
        report.sweeps_used = sweeps_this
        if converged:
            termination = "converged"
            break
        if attempt < cfg.max_restarts:
            report.restarts_used += 1
            continue
        termination = "restarted" if report.restarts_used else "sweep-limit"

    if termination != "converged" and best is not None:
        _, sigma, chains, report.sweeps_used = best
    report.termination = termination
    if gram:
        smax = float(sigma.max()) if sigma.size else 0.0
        if smax == 0.0 or float(sigma.min()) < 1e-13 * smax:
            raise ValueError(
                "spectrum estimate is numerically singular; recovering left "
                "vectors from the Gram route needs an invertible Sigma, and the "
                "transposed-Gram recovery is not implemented"
            )
        u = block_tt_scale_columns(block_tt_matvec(a, chains[0]), 1.0 / sigma)
        chains = (block_tt_round(u, rdelta), *chains)
    report.wall_time_s = time.perf_counter() - t0
    return sigma, *chains, report


def als_svd(a: MatrixTT, cfg: SolverConfig):
    """Single-core sweeps over (U, V); returns (Sigma, U, V, report).

    Requires k >= 2: with a single column the truncated splits can never
    grow a bond past its current value, so ranks would stay frozen.
    """
    if cfg.k < 2:
        raise ValueError(
            "single-core sweeps cannot adapt ranks at k=1; use k >= 2 "
            "or the merged-core solver"
        )
    return _driver(a, cfg, pair=False, gram=False, name="als_svd")


def mals_svd(a: MatrixTT, cfg: SolverConfig):
    """Merged-core sweeps over (U, V); rank-adaptive even at k=1."""
    return _driver(a, cfg, pair=True, gram=False, name="mals_svd")


def als_eig_baseline(a: MatrixTT, cfg: SolverConfig):
    """Gram-matrix baseline with single-core sweeps; returns (Sigma, U, V, report)."""
    if cfg.k < 2:
        raise ValueError("the single-core Gram baseline needs k >= 2")
    return _driver(a, cfg, pair=False, gram=True, name="als_eig")


def mals_eig_baseline(a: MatrixTT, cfg: SolverConfig):
    """Gram-matrix baseline with merged-core sweeps; rank-adaptive at k=1."""
    return _driver(a, cfg, pair=True, gram=True, name="mals_eig")
