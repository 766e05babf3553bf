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
  U = A V Sigma^+ (``_pinv``).

Restarts and the outcome rule (see ``SweepReport``) are the same for all
four.  ``_local_operator`` builds each window's projected operator and
chooses its path, the only place that does; ``local_block_svd`` or
``local_block_eig`` takes that operator and solves it on that path, one
call per window.  The path is recorded per micro-iteration as
``local_path``:

* ``"dense"``: the local matrix is built and decomposed directly, when
  that decomposition costs no more multiply-accumulates than
  ``_KRYLOV_STEPS`` block Krylov steps on the cheaper Krylov operator below,
  plus its build if it is built (``environments.local_solve_macs`` gives
  both estimates).  Small windows stay dense; at K=10 a square window
  takes block Krylov from about 130 x 130 up, and a larger K moves the
  break-even up.
* ``"krylov-dense-op"``: when building the local matrix plus
  ``_KRYLOV_STEPS`` GEMM applies of it to the K-column block costs no more
  multiply-accumulates than ``_KRYLOV_STEPS`` matrix-free applies to that
  block, it is built once and block Krylov applies it by GEMM.
* ``"krylov-matrix-free"``: otherwise block Krylov applies the contraction
  chain of the environments to the whole block.
* ``"dense-fallback"``: block Krylov gets the ``_KRYLOV_STEPS`` steps the
  cost test assumed, and a window it has not solved by then is solved again
  on the dense path and recorded so, with the steps it spent.  So
  ``"dense"`` always means no Krylov step.

Where a dense solve would cost more than ``_LOCAL_MAX_ITER`` Krylov steps,
block Krylov gets those steps instead, with no fallback.  It stops at
residuals of 1e-10 sigma_1, or of epsilon/100 sigma_1 once the Ritz values
show the kept block separated (sigma_K - sigma_K+1 >= sigma_K / 10; a
clustered spectrum would grow the ranks).  At a loose epsilon Sigma is then
as accurate as the sweep's stop can check, not accurate to 1e-10.

Block Krylov for the SVD is block Golub-Kahan-Lanczos on A and A^T
directly: a right basis V and a left basis U, with Ritz triplets from the
SVD of U^T A V.  The Gram eigenproblem runs block Lanczos with
Rayleigh-Ritz extraction of the K largest pairs.  Both extract at every
step, reorthogonalize fully and start from the block core's V side (seeded
random if absent).
A new block takes one Householder QR of [basis | block] while the basis
holds at most one block, and projections against a wider basis
(``_orthonormalize_block``).

Every attempt starts from random rank-1 chains.  A right-to-left split
leaves the block index K on the left of the bond it sets, so an exact split
needs up to K times that bond's rank r, which the next left-to-right half
sweep, with K on the right, cuts back.  So a right-to-left split keeps at
most max(K + ``_OVERSAMPLE``, ``_RANK_GROWTH`` r) = max(K + 5, 2r) per bond
(``max_rank`` if that is smaller), r read before the split.  A bond whose r
is the product of the mode sizes left of it (2, 4, 8, ... at the left end
of a chain of 2s) is not bounded: there a left-to-right split kept all it
could, so r says nothing about what the block needs.  A left-to-right split
keeps at most ``max_rank``.  The first right-to-left half sweep of an
attempt, the warm-up, also truncates at ``_FIRST_HALFSWEEP_DELTA_FACTOR``
times the working delta.  Its start holds at most ceil(K/2) per bond, so
there the bound is K + 5: the warm-up acts as a randomized range finder,
for which K samples and a small oversampling suffice (Halko, Martinsson &
Tropp, SIAM Rev. 53 (2011)).  From the rank-1 start a one-core split keeps
at most K and a merged-pair split at most 2K, so in the warm-up the bound
binds only for the merged-pair solvers at K > 5.  A one-core split at
K <= 2 keeps at most K r <= 2r, so the bound never binds there.

Rank floors: truncated splits keep at least enough rank that the next
window's local problem can still hold K orthonormal columns (mirroring the
minimal-rank initialization rule); without this, aggressive first-sweep
truncation could make an end-of-chain local problem infeasible.
"""

from __future__ import annotations

import dataclasses
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
    local_solve_macs,
    projected_matvec,
    projected_rmatvec,
)
from .generators import random_block_tt
from .tt import (
    BlockTT,
    MatrixTT,
    _bond_reversed,
    _rf,
    block_tt_gram,
    block_tt_matvec,
    block_tt_residual_norm,
    block_tt_scale_columns,
    canonicalize,
    gram_tt_round,
    matrix_tt_matmul,
    matrix_tt_round,
    matrix_tt_transpose,
    merge_cores,
    split_block_core,
    tt_round,
)

# The benchmark's outside-in tracer (perfbench/tracing.py) wraps these module
# attributes by name, one per window width, so they stay bound as aliases of
# the one windowed implementation.  The sweep calls the ``_als`` name for a
# one-core window and the ``_mals`` name for a merged pair, looked up here at
# call time, so a trace still sees every call.
dense_local_matrix_als = dense_local_matrix_mals = dense_local_matrix
split_block_core_als = split_block_core_mals = split_block_core

# Every attempt starts from the working delta epsilon / sqrt(N-1), shrunk by
# _RESTART_DELTA_SHRINK per restart; its first half sweep truncates at
# _FIRST_HALFSWEEP_DELTA_FACTOR times that.  The coarse first half sweep buys
# wall time on Hilbert matrices: with a factor of 1 instead, perfbench/run.py
# (30 s runs, seeds 1-6, alternating pairs, one BLAS thread, 2-vCPU x86-64)
# took 7.5-17% longer per pass on hilbert-krylov (median solve +10-21%, all
# six pairs), while prescribed-svd and gram-baseline solved bit-identically
# with no resolved change in time.
_FIRST_HALFSWEEP_DELTA_FACTOR = 100.0
_RESTART_DELTA_SHRINK = 0.1
# The right-to-left bound max(K + _OVERSAMPLE, _RANK_GROWTH r) (see the module
# docstring) is K + 5 in the warm-up, which buys a first sweep that holds at
# large N: where the merged-pair warm-up kept 2K, prescribed mals_svd (beta
# 0.5, k0 25, rank 5, K=10, epsilon 1e-8, seed 0) took
# 213/455/711/9130/11850 M MACs at N=20/40/60/80/100, its first sweep failing
# from N=80 on (residual 0.70 at N=80); at K + 5 it takes 131/268/414/559/702
# M, one sweep each.  At K + 0, 5 of 120 prescribed mals_svd solves (K 6-12,
# N 10-50, seeds 0-5) took a second sweep.  In later sweeps, unbounded, every
# right-to-left half sweep of prescribed als_svd (same family, K=10) regrew U
# and V K-fold (13 -> 50) only for the next left-to-right half sweep to cut
# them back to 13: at N=50 seeds 1-3 it took 42/22/23 sweeps with 2/1/1
# restarts (3.6-6.8 s), and at N=64 seeds 0-2 it ended "restarted" after 60
# sweeps (13-15 s, sigma error up to 0.10); with the bound each converges in
# 2 sweeps (0.10-0.13 s, sigma error <= 6e-15).  perfbench/run.py
# prescribed-svd (30 s runs, seed 47, 10 alternating pairs, one BLAS thread,
# 2-vCPU AMD EPYC) read pass_s 0.4245 -> 0.3222 s, better in 10 of 10 pairs,
# as its fixed restart case (als_svd N=30, seed 50) went from 3 sweeps and a
# restart to 2 sweeps; every other solve there is bit-identical.  Bounding
# the bonds at the mode limit too made Hilbert N=12 (delta 1e-8) als_svd at
# K=10, epsilon 1e-12 take 60 sweeps and end "restarted" where it converged
# in 22 (seed 0), or 41 sweeps instead of 2 (seed 1): at the left end the
# exact split kept 20/37/52 where the bound allowed 15/15/16.  A factor of 1, max(K + 5, r), made Hilbert N=16 mals_svd
# K=2 at epsilon 1e-10 take 22 sweeps and a restart instead of 2.
_OVERSAMPLE = 5
_RANK_GROWTH = 2
# The Gram baselines round A^T A and the recovered U at epsilon divided by
# _GRAM_DELTA_DIVISOR.  It buys verdicts, not time: on Hilbert N=6-8 (delta
# 1e-10), K=4 and 10, epsilon 1e-3/1e-6/1e-9, both baselines, 5 sweeps, seed
# 0, 16 of 36 solves end "converged" at 10, 14 at 3 and 4 at 1.
# perfbench/run.py gram-baseline (seeds 1-3) solves bit-identically at 1, 3
# and 10, so it cannot time the constant.
_GRAM_DELTA_DIVISOR = 10
# The cost test of _local_operator solves a window dense when its dense
# decomposition costs no more MACs than _KRYLOV_STEPS block Krylov steps (plus
# the build of a built operator).  6 was calibrated against wall time on the
# local matrices of real sweeps (Hilbert and prescribed at K=10, Hilbert and
# tridiagonal at K=4; 2-vCPU x86-64 VM, one BLAS thread): it puts the
# break-even of a square window at about 130 x 130 at K=10 and 60 x 60 at K=4.
# Block Krylov stops once every kept Ritz residual is at most _stop_tol
# times the largest kept Ritz value, and fails after _LOCAL_MAX_ITER steps,
# or after _KRYLOV_STEPS where a dense solve can take over (see the module
# docstring).  A triplet's residual is
# sqrt((||A v - sigma u||^2 + ||A^T u - sigma v||^2) / 2), an eigenpair's
# ||B z - theta z||.  The sweep reads these at call time.  _EPS_TOL_FACTOR
# loosens the stop on a clear gap, which buys wall time: at 0 (the stop
# fixed at _LOCAL_TOL), perfbench/run.py hilbert-krylov (seeds 1-3,
# alternating pairs, one BLAS thread, 2-vCPU x86-64) took 13.6-15.9% longer
# per pass, with 44% more Krylov steps (104 -> 150 per pass, seed 1);
# prescribed-svd solved bit-identically, its epsilon 1e-8 giving the same
# 1e-10 stop.
_KRYLOV_STEPS = 6
_LOCAL_TOL = 1e-10
_EPS_TOL_FACTOR = 1e-2
_KEPT_GAP = 0.1
_LOCAL_MAX_ITER = 400


class LocalSolverError(RuntimeError):
    """The iterative local solver failed; the sweep driver may restart."""


@dataclass
class SolverConfig:
    """What a caller sets for the sweep drivers.

    ``k`` is the block size, ``epsilon`` the threshold that the relative
    residual on A must fall below for a "converged" verdict (the SVD solvers
    also stop on it; the Gram baselines stop on B = A^T A's residual instead,
    see ``SweepReport``), ``max_full_sweeps`` the sweep budget of one attempt
    and ``max_restarts`` the number of further attempts, each reseeded from
    ``seed``; ``max_rank``, if set, caps every bond rank.  The truncation delta
    is derived: epsilon / sqrt(N-1), shrunk 10x per restart, with the first
    half sweep of every attempt at 100 times that.  A right-to-left split also
    keeps at most max(K + 5, 2r) per bond, r its bond's rank before the split
    (the module docstring states the rule).  The Gram baselines round A^T A
    and the recovered U at epsilon / 10.  For B = A^T A that is relative to
    ||B||_F ~ sigma_1^2, so any sigma_k below about sqrt(epsilon / 10)
    sigma_1 is lost before the sweep starts: Hilbert N=6 (delta 1e-8),
    K=10, epsilon 1e-3 gives sigma_5..sigma_10 off by 0.89 to 3.7e4
    relative.
    """

    k: int
    epsilon: float = 1e-8
    max_full_sweeps: int = 20
    max_restarts: int = 2
    seed: int = 0
    max_rank: int | None = None

    def __post_init__(self):
        for name, low in (("k", 1), ("max_full_sweeps", 1), ("max_restarts", 0),
                          ("seed", 0), ("max_rank", 1)):
            value = getattr(self, name)
            if value is None and name == "max_rank":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if value < low:
                raise ValueError(f"{name} must be at least {low}")
        if (isinstance(self.epsilon, bool) or not isinstance(
                self.epsilon, (int, float, np.integer, np.floating))
                or not 0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be a positive and finite real number")


@dataclass
class SweepReport:
    """Execution trace of one solver run (all attempts included).

    ``micro`` holds one record per micro-iteration, of a size that does
    not grow with N: ``position``, ``direction``, the ``bond`` its splits
    set (an index into ``chain.ranks``), that bond's new rank in U and V
    (``rank_u``, ``rank_v``) and the energy each split discarded
    (``discarded_u``, ``discarded_v``; the U fields are ``None`` on the
    Gram route), the current Sigma estimate, the block Krylov steps spent
    (0 exactly on the ``"dense"`` path) and its ``local_path`` (see the
    module docstring).  ``residual_history`` has one entry (attempt, sweep,
    stop residual, and the rank profiles ``ranks_u`` and ``ranks_v`` the
    sweep ends with) per completed full sweep.  An attempt's chains start
    from ``generators._block_rank_profile(modes, K, 1)``, so a profile in
    mid-sweep is the previous profile (or that start) with the sweep's
    records so far applied, bond by bond.  A right-to-left record keeps at
    most max(K + 5, 2r) per chain, r its bond's rank in that profile before
    the record (the module docstring states the rule).  An attempt ends at
    its sweep budget, on a failed local solve or on a stop residual below
    epsilon, which ends the solve.  The solve returns the
    first iterate with the lowest stop residual.  If no sweep completed,
    every solver returns a zero Sigma, the last attempt's V, and U from the
    last attempt on the SVD route or the zero chain A V Sigma^+ on the Gram
    route, with ``residual`` ``inf``.
    ``sweeps_used`` counts its attempt's sweeps up to it (0 if none),
    ``total_sweeps`` is the length of the history, ``restarts_used`` the
    index of the last attempt and ``delta_final`` its truncation delta.

    ``residual`` is the returned iterate's relative residual
    ||A^T U - V Sigma||_F / ||Sigma||_F on A, ``inf`` if no sweep completed:
    on the SVD route its stop residual, on the Gram route one evaluation
    after U is recovered and rounded.  ``termination`` is
    ``"converged"`` if ``residual`` is below epsilon, else ``"restarted"``
    if a restart ran, else ``"sweep-limit"``.  The Gram route stops on the
    residual of B = A^T A but is judged on A, so it can stop on B and still
    end ``"sweep-limit"``.  On the Gram route "converged" also needs
    ||U^T U - I||_F <= sqrt(epsilon) for the recovered U: where a sigma sits
    at the eigenvalue noise floor of B, U = A V Sigma^+ can lose a column
    while the residual on A stays below epsilon, and a sigma at or below
    1e-14 sigma_1 leaves its column of U zero.  So a singular spectrum ends
    ``"sweep-limit"`` or ``"restarted"`` on the Gram route too, not in an
    exception.
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
    residual: float = math.inf

    def to_json(self) -> dict:
        return {("micro_iterations" if key == "micro" else key): value
                for key, value in dataclasses.asdict(self).items()}


# ---------------------------------------------------------------------------
# local solvers


def _sign_fix(lead: np.ndarray, *others: np.ndarray) -> None:
    """Flip each column whose largest-magnitude entry in ``lead`` is negative.

    The same column of every array in ``others`` flips with it, in place.
    """
    j = np.argmax(np.abs(lead), axis=0)
    flip = lead[j, np.arange(lead.shape[1])] < 0
    for m in (lead, *others):
        m[:, flip] *= -1.0


def dense_block_svd(abar: np.ndarray, k: int):
    """Top-K singular triplets of a dense matrix, sign-fixed."""
    abar = np.asarray(abar, dtype=float)
    if k > min(abar.shape):
        raise ValueError(f"cannot take {k} triplets from a "
                         f"{abar.shape[0]} x {abar.shape[1]} problem")
    u, s, vt = np.linalg.svd(abar, full_matrices=False)
    u = u[:, :k].copy()
    v = vt[:k].T.copy()
    s = s[:k].copy()
    _sign_fix(u, v)
    return u, s, v


def dense_block_eig(bbar: np.ndarray, k: int):
    """K algebraically largest eigenpairs of a (symmetrized) dense matrix."""
    if k > bbar.shape[0]:
        raise ValueError(f"cannot take {k} eigenpairs from dimension "
                         f"{bbar.shape[0]}")
    h = 0.5 * (bbar + bbar.T)
    lam, vecs = np.linalg.eigh(h)
    order = np.argsort(-lam, kind="stable")[:k]
    lam = lam[order].copy()
    v = vecs[:, order].copy()
    _sign_fix(v)
    return lam, v


def _orthonormalize_block(w: np.ndarray, basis: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Orthonormalize w against the basis and internally.

    The returned block always spans new orthonormal directions.  A basis
    of at most one block (the first two Krylov steps) takes one Householder
    QR of [basis | w]: its trailing columns are orthonormal to working
    precision and orthogonal to the basis, whatever w's conditioning, and a
    column swallowed by the basis comes out as some new direction.  A wider
    basis is projected out twice, which costs less than a QR of its width:
    columns swallowed by the basis (their norm collapses relative to what
    they came in with, the usual sign of Krylov saturation) and columns
    that collapse in the QR step are replaced with fresh random directions,
    and a last projection against the basis and QR removes what R^-1 brings
    back of the basis when the block is nearly rank-deficient.
    """
    if basis.shape[1] <= w.shape[1]:
        return np.linalg.qr(np.hstack([basis, w]))[0][:, basis.shape[1]:]
    w = np.array(w, dtype=float)
    orig = np.linalg.norm(w, axis=0)
    for _ in range(2):
        w -= basis @ (basis.T @ w)
    q, r = np.linalg.qr(w)
    d = np.abs(np.diagonal(r))
    bad = ((np.linalg.norm(w, axis=0) <= 1e-10 * np.maximum(orig, 1e-300))
           | (d <= 1e-10 * max(float(d.max()), 1e-300)))
    q[:, bad] = rng.standard_normal((w.shape[0], int(bad.sum())))
    q -= basis @ (basis.T @ q)
    q, _ = np.linalg.qr(q)
    return q


def _start_block(start, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """The start block, checked against ``shape``, or a seeded random one."""
    if start is None:
        return rng.standard_normal(shape)
    if np.shape(start) != shape:
        raise ValueError(f"start block has shape {np.shape(start)}, "
                         f"expected {shape}")
    return np.asarray(start, dtype=float)


def _stop_tol(ritz: np.ndarray, k: int, tol: float) -> float:
    """``tol`` (from the sweep, epsilon * ``_EPS_TOL_FACTOR``), at least
    ``_LOCAL_TOL``, once the K kept of the descending Ritz values lead the
    next by ``_KEPT_GAP`` of the K-th; otherwise ``_LOCAL_TOL``."""
    if len(ritz) > k and ritz[k - 1] - ritz[k] >= _KEPT_GAP * abs(ritz[k - 1]):
        return max(_LOCAL_TOL, tol)
    return _LOCAL_TOL


def krylov_block_svd(matvec, rmatvec, p: int, q: int, k: int,
                     max_iter: int = _LOCAL_MAX_ITER, seed=0, start=None,
                     tol: float = _LOCAL_TOL):
    """Matrix-free top-K singular triplets by block Golub-Kahan-Lanczos.

    ``matvec`` maps a (q, m) block to the (p, m) block A Y and ``rmatvec`` a
    (p, m) block to A^T X; each step calls each at most once, on the newest
    block.  ``start`` is the (q, K) block of right vectors the right basis V
    starts from.  Each step extends V by the newest A^T U block and the left
    basis U by the newest A V block, and takes the Ritz triplets
    (U x, sigma, V y) from the SVD of U^T A V; they come out orthonormal
    with sigma >= 0.  It stops on the residual test (``_stop_tol``) or
    once the bases hold the whole problem: V spans R^q, or U spans R^p and
    this step's V block took in the last of A^T U.  Returns
    (U, Sigma, V, iterations).
    """
    if k > min(p, q):
        raise ValueError(f"cannot take {k} triplets from a {p} x {q} problem")
    rng = np.random.default_rng(seed)
    w = _start_block(start, (q, k), rng)
    vb, av = np.empty((q, 0)), np.empty((p, 0))
    ub, atu = np.empty((p, 0)), np.empty((q, 0))
    for it in range(1, max_iter + 1):
        u_full = ub.shape[1] == p
        blk = _orthonormalize_block(w[:, :q - vb.shape[1]], vb, rng)
        w = matvec(blk)
        vb, av = np.hstack([vb, blk]), np.hstack([av, w])
        if not u_full:
            blk = _orthonormalize_block(w[:, :p - ub.shape[1]], ub, rng)
            w = rmatvec(blk)
            ub, atu = np.hstack([ub, blk]), np.hstack([atu, w])
        x, ritz, yt = np.linalg.svd(ub.T @ av, full_matrices=False)
        x, sigma, y = x[:, :k], ritz[:k], yt[:k].T
        u, v = ub @ x, vb @ y
        resid = np.sqrt(0.5 * (np.sum((av @ y - u * sigma) ** 2, axis=0)
                               + np.sum((atu @ x - v * sigma) ** 2, axis=0)))
        if u_full or vb.shape[1] == q or bool(np.all(resid <= _stop_tol(
                ritz, k, tol) * max(float(sigma[0]), 1e-300))):
            _sign_fix(u, v)
            return u, sigma, v, it
    raise LocalSolverError(
        f"block Krylov solver did not converge in {max_iter} iterations"
    )


def krylov_block_eig(matvec, dim: int, k: int, max_iter: int = _LOCAL_MAX_ITER,
                     seed=0, start=None, tol: float = _LOCAL_TOL):
    """Matrix-free K algebraically largest eigenpairs of a symmetric map.

    Block Lanczos: ``matvec`` maps a (dim, m) block to its image, once per
    step on the newest block, and ``start`` is the (dim, K) start block.
    Each step takes the Ritz pairs by Rayleigh-Ritz extraction, as
    ``krylov_block_svd`` takes its triplets at every step; ties among Ritz
    values keep Ritz index order.  It stops as ``krylov_block_svd`` does,
    on the eigenvalues, or once the basis spans R^dim.  Returns (theta,
    vectors, iterations).
    """
    if k > dim:
        raise ValueError(f"cannot take {k} eigenpairs from dimension {dim}")
    rng = np.random.default_rng(seed)
    w = _start_block(start, (dim, k), rng)
    basis, bbasis = np.empty((dim, 0)), np.empty((dim, 0))
    for it in range(1, max_iter + 1):
        qblk = _orthonormalize_block(w[:, :dim - basis.shape[1]], basis, rng)
        w = matvec(qblk)
        basis, bbasis = np.hstack([basis, qblk]), np.hstack([bbasis, w])
        h = basis.T @ bbasis
        ritz, y = np.linalg.eigh(0.5 * (h + h.T))
        sel = np.argsort(-ritz, kind="stable")
        ritz, y = ritz[sel], y[:, sel[:k]]
        theta, z = ritz[:k], basis @ y
        resid = np.linalg.norm(bbasis @ y - z * theta, axis=0)
        if basis.shape[1] == dim or bool(np.all(resid <= _stop_tol(
                ritz, k, tol) * max(float(np.max(np.abs(theta))), 1e-300))):
            _sign_fix(z)
            return theta, z, it
    raise LocalSolverError(
        f"block Krylov solver did not converge in {max_iter} iterations"
    )


def _gemm(mat: np.ndarray, axis: int):
    """Block apply of a built local matrix (axis 1) or its transpose (axis 0).

    Goes through ``tdot`` so MAC counters still see the work.
    """
    return lambda y: tdot(mat, y, axes=(axis, 0))


# ---------------------------------------------------------------------------
# residuals


def residual(a: MatrixTT, u: BlockTT, v: BlockTT, sigma,
             delta: float | None = None) -> float:
    """Relative residual ||A^T U - V Sigma||_F / ||Sigma||_F in TT arithmetic.

    Exact to about 1e-16 ||Sigma|| on solver outputs: the left-to-right
    sweep of ``block_tt_residual_norm`` never forms A^T U and cuts each
    carry to its numerical rank only in a canonical gauge.  Residuals far
    below sqrt(machine epsilon) ||Sigma|| stay resolvable.  An A gauged by
    ``canonicalize(a, 0)`` is not gauged again.  ``delta`` is ignored,
    kept so five-argument calls keep working.
    """
    sig = np.asarray(sigma, dtype=float)
    signorm = float(np.linalg.norm(sig))
    if signorm == 0.0:
        raise ValueError("residual is undefined for an all-zero spectrum")
    return block_tt_residual_norm(matrix_tt_transpose(a), u, np.ones(sig.shape),
                                  v, sig) / signorm


def _pinv(sigma: np.ndarray) -> np.ndarray:
    """Sigma^+: 1 / sigma, and 0 where sigma <= 1e-14 sigma_max (so all of an
    all-zero Sigma)."""
    cut = 1e-14 * float(sigma.max())
    return np.where(sigma > cut, 1.0 / np.where(sigma > cut, sigma, 1.0), 0.0)


def _gram_residual(bmat: MatrixTT, v: BlockTT, sigma: np.ndarray) -> float:
    """Stopping metric ||B V Sigma^+ - V Sigma||_F / ||Sigma||_F for B = A^T A."""
    signorm = float(np.linalg.norm(sigma))
    if signorm == 0.0:
        raise ValueError("residual is undefined for an all-zero spectrum")
    return block_tt_residual_norm(bmat, v, _pinv(sigma), v, sigma) / signorm


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
    dense_fallback: bool


def _local_operator(env: Environment, a: MatrixTT, q: int, pair: bool,
                    k: int, gram: bool) -> _LocalOperator:
    """Projected operator at core q, or on the merged pair (q, q+1).

    The only place that picks the local path (see the module docstring),
    by the MAC estimates of ``local_solve_macs``.  On the dense path the
    local solver decomposes ``build()``.  ``dense_fallback`` is set when
    that costs no more than ``_LOCAL_MAX_ITER`` Krylov steps.
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
    build_macs, decompose, gemm_step, free_step = local_solve_macs(
        left, cores, right, k, gram)
    built = build_macs + _KRYLOV_STEPS * gemm_step <= _KRYLOV_STEPS * free_step
    step = gemm_step if built else free_step
    if decompose <= _KRYLOV_STEPS * step + build_macs * built:
        path = "dense"
    elif built:
        path = "krylov-dense-op"
        mat = build()
        matvec, rmatvec, build = _gemm(mat, 1), _gemm(mat, 0), lambda: mat
    else:
        path = "krylov-matrix-free"
    return _LocalOperator(matvec, rmatvec, build, rows, cols, path,
                          decompose <= _LOCAL_MAX_ITER * step)


def _krylov_steps(op: _LocalOperator) -> int:
    """Block Krylov's step budget: short where a dense solve can take over."""
    return _KRYLOV_STEPS if op.dense_fallback else _LOCAL_MAX_ITER


def local_block_svd(op: _LocalOperator, k: int, start: np.ndarray, seed: int,
                    tol: float = _LOCAL_TOL):
    """K dominant singular triplets of the local matrix of ``op``.

    On the dense path the built matrix is decomposed (0 iterations);
    otherwise block Krylov runs on the operator from ``start``, the
    (local size, K) V side of the block core.  Returns (Sigma, (U, V),
    iterations), U and V shaped ``op.rows`` and ``op.cols`` + (K,).
    """
    if op.path == "dense":
        u, sigma, v = dense_block_svd(op.build(), k)
        iters = 0
    else:
        u, sigma, v, iters = krylov_block_svd(
            op.matvec, op.rmatvec, math.prod(op.rows), math.prod(op.cols), k,
            max_iter=_krylov_steps(op), seed=seed, start=start, tol=tol)
    return sigma, (_rf(u, op.rows + (k,)), _rf(v, op.cols + (k,))), iters


def local_block_eig(op: _LocalOperator, k: int, start: np.ndarray, seed: int,
                    tol: float = _LOCAL_TOL):
    """K largest eigenpairs of the local Gram matrix of ``op``.

    As ``local_block_svd``, for the Gram problem: its eigenvalues lambda
    give Sigma = sqrt(max(lambda, 0)).  Returns (Sigma, (V,), iterations).
    """
    if op.path == "dense":
        lam, v = dense_block_eig(op.build(), k)
        iters = 0
    else:
        lam, v, iters = krylov_block_eig(
            op.matvec, math.prod(op.cols), k, max_iter=_krylov_steps(op),
            seed=seed, start=start, tol=tol)
    return np.sqrt(np.maximum(lam, 0.0)), (_rf(v, op.cols + (k,)),), iters


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


def _at_mode_limit(chain: BlockTT, m: int, r: int) -> bool:
    """Whether rank r of the bond right of core m is the product of the
    mode sizes of cores 0..m, the most a left-to-right split can keep."""
    left = 1
    for n in range(m + 1):  # stops within log2(r) + 1 cores
        left *= chain.cores[n].shape[-2]
        if left > r:
            return False
    return True


def _split_into(chain: BlockTT, q: int, local: np.ndarray, delta: float,
                cfg: SolverConfig, pair: bool, r2l: bool) -> tuple:
    """Truncated split of a local solution; the block core moves one step.

    The window is core q, or the pair (q, q+1).  Splitting right to left
    leaves its rightmost core right-orthogonal, left to right its leftmost
    core left-orthogonal.  A one-core split's K factor is contracted into
    the neighbouring core, which becomes the block core.  The split sets one
    bond and no other; returns (bond, rank, discarded energy), ``bond``
    indexing ``chain.ranks``.  Every split keeps at most ``cfg.max_rank``;
    a right-to-left split also keeps at most max(K + 5, 2r), r its bond's
    rank before the split (the module docstring states the rule).
    """
    direction = "right_to_left" if r2l else "left_to_right"
    m = q + pair - 1 if r2l else q  # the split writes cores m and m + 1
    cap = cfg.max_rank
    r = chain.cores[m].shape[-1]
    if r2l and not _at_mode_limit(chain, m, r):
        bound = max(cfg.k + _OVERSAMPLE, _RANK_GROWTH * r)
        cap = bound if cap is None else min(bound, cap)
    keep = _min_keep(chain, q, pair, cfg.k, r2l)
    split = split_block_core_mals if pair else split_block_core_als
    left, right, rank, tail = split(local, direction, delta,
                                    max_rank=cap, min_keep=keep)
    if not pair and r2l:
        nb = np.tensordot(chain.cores[m], left, axes=(2, 0))
        left = nb.transpose(0, 2, 1, 3)
    elif not pair:
        right = np.tensordot(right, chain.cores[m + 1], axes=(2, 0))
    chain.cores[m], chain.cores[m + 1] = left, right
    chain.orth[m], chain.orth[m + 1] = (None, "R") if r2l else ("L", None)
    chain.block_position = m if r2l else m + 1
    return m + 1, rank, tail


def _advance(env: Environment, a: MatrixTT, chains, locals_, q: int,
             delta: float, cfg: SolverConfig, pair: bool, r2l: bool) -> list:
    """Split each local solution into its chain and move the environment.

    ``chains`` is (U, V) for the SVD problem and (V,) for the Gram problem.
    Returns each chain's (bond, rank, discarded energy) from ``_split_into``.
    """
    splits = [_split_into(chain, q, local, delta, cfg, pair, r2l)
              for chain, local in zip(chains, locals_)]
    u, v = chains[0], chains[-1]
    if r2l:
        env_update_right(env, u, a, v, q + pair)
    else:
        env_update_left(env, u, a, v, q)
    return splits


def _micro_record(p: int, direction: str, splits, sigma, iters: int,
                  path: str) -> dict:
    """One micro-iteration's record, O(1) in N: the bond its splits set,
    not the chains' rank profiles."""
    bond, rank_v, tail_v = splits[-1]
    _, rank_u, tail_u = splits[0] if len(splits) == 2 else (None,) * 3
    return {
        "position": int(p),
        "direction": direction,
        "bond": bond,
        "rank_u": rank_u,
        "rank_v": rank_v,
        "discarded_u": tail_u,
        "discarded_v": tail_v,
        "sigma": [float(s) for s in sigma],
        "local_iterations": int(iters),
        "local_path": path,
    }


def _half_sweep(a: MatrixTT, chains, env: Environment, cfg: SolverConfig,
                delta: float, rng: np.random.Generator, report: SweepReport,
                pair: bool, direction: str) -> np.ndarray:
    """One half sweep over ``a``; returns the Sigma of its last window.

    ``chains`` is (U, V) for the SVD problem over A, or (V,) for the Gram
    problem over B = A^T A.  Every split truncates at ``delta`` and keeps at
    most ``cfg.max_rank`` (no cap if ``None``); a right-to-left split is
    bounded besides (see ``_split_into``).
    """
    gram = len(chains) == 1
    r2l = direction == "right_to_left"
    positions = range(a.n_cores - 1, 0, -1) if r2l else range(0, a.n_cores - 1)
    sigma = None
    for p in positions:
        q = p - 1 if pair and r2l else p
        op = _local_operator(env, a, q, pair, cfg.k, gram)
        start = _block_as_local(chains[-1], q, pair)
        seed = int(rng.integers(0, 2**63 - 1))
        solve = local_block_eig if gram else local_block_svd
        path = op.path
        try:
            sigma, locals_, iters = solve(op, cfg.k, start, seed,
                                          cfg.epsilon * _EPS_TOL_FACTOR)
        except LocalSolverError:
            if not op.dense_fallback:
                raise
            sigma, locals_, _ = solve(dataclasses.replace(op, path="dense"),
                                      cfg.k, start, seed)
            iters, path = _krylov_steps(op), "dense-fallback"
        splits = _advance(env, a, chains, locals_, q, delta, cfg, pair, r2l)
        report.micro.append(_micro_record(p, direction, splits, sigma, iters,
                                          path))
    return sigma


def check_problem(a: MatrixTT, cfg: SolverConfig, name: str) -> None:
    """Raise ValueError for what the solver ``name`` cannot solve.

    ``name`` is ``als_svd``, ``mals_svd``, ``als_eig`` or ``mals_eig``.  A
    single-core solver needs k >= 2: with one column its truncated splits
    can never grow a bond past its current value, so ranks would stay
    frozen.  An end window of a swept chain holds at most ``max_rank``
    times its modes' product columns.  Each entry point calls this before
    it sweeps; ``_driver`` does not.
    """
    pair = name.startswith("mals")
    if not pair and cfg.k < 2:
        raise ValueError(f"{name} sweeps single cores, which cannot adapt "
                         f"ranks at k=1; use k >= 2 or a merged-core solver")
    if a.n_cores < 2:
        raise ValueError("sweep solvers need at least two cores")
    if cfg.k > min(a.n_rows, a.n_cols):
        raise ValueError("block size k exceeds the matrix dimensions")
    if cfg.max_rank is not None:
        sizes = ((a.col_sizes,) if name.endswith("eig")
                 else (a.row_sizes, a.col_sizes))
        w = 1 + pair
        room = cfg.max_rank * min(min(math.prod(m[:w]), math.prod(m[-w:]))
                                  for m in sizes)
        if cfg.k > room:
            raise ValueError(
                f"max_rank {cfg.max_rank} is too small for k={cfg.k}: a "
                f"window at an end of the chain holds at most {room} columns")
    for m, core in enumerate(a.cores):
        if not np.isfinite(core).all():
            raise ValueError(f"core {m} of the matrix holds NaN or inf")


def _driver(a: MatrixTT, cfg: SolverConfig, pair: bool, gram: bool, name: str):
    """Restarted sweeps; returns (Sigma, U, V, report) of the best iterate.

    The SVD problem sweeps (U, V) over A.  The Gram problem first reduces A
    exactly, by rounding it at 0, which applies orthogonal transforms only:
    no bond of A then exceeds the mode-size product on either side of it,
    so a prescribed A whose last bond carries r_U r_V = 64 enters the
    product with 4 there.  The reduced A also serves the recovery of U.  It
    then works on the bond-reversed chain (``_bond_reversed``): it forms
    that chain's B = A^T A (``matrix_tt_matmul``), rounds it at epsilon / 10
    (``gram_tt_round``) and reverses the result back.  So B is rounded from
    right to left, from the R factors of its left parts, which are its thin
    side on the prescribed family: its A = U diag(sigma) V^T has
    left-orthogonal factor chains, and summing over the row modes turns U's
    left part into the identity, so B's left parts have numerical rank at
    most r_V^2 = 25, against r_U^2 r_V^2 = 625 on the right.  There the
    set-up at N=10 (reduction, factors, product and rounding) took 60 -> 19
    ms, and the factors have at most 25 rows instead of 625 (2-vCPU AMD
    EPYC, one BLAS thread, best of 3, seeds 1-3).  The Hilbert, tridiagonal
    and Toeplitz families have about the same numerical rank on both sides
    at N=10 (64 against 58, 7 and 7, 36 and 36), and their set-up time did
    not change.  The solve then sweeps (V,) over the rounded B, recovers
    U = A V Sigma^+ from the returned iterate, and, if a sweep completed,
    evaluates the verdict's residual on the reduced A and U's orthogonality
    defect (``block_tt_gram``).  ``matrix_tt_matmul`` writes each core of B
    once, with one slab (about 0.5 MB at N=10) as its only temporary, and
    forms B at N=10 in 6 ms.  The unrounded B is held only during its
    rounding, so a Gram solve peaks at B plus its R factors plus a few MiB
    (tracemalloc, prescribed k0 16, rank 5, K=10: 36.0/60.1/84.3/108.4/301.7
    MiB at N=8/10/12/14/30, of which B is 33.9/57.7/81.5/105.4/296.1 and the
    R factors 0.4/0.7/0.9/1.2/3.1).  B is still formed because the
    truncation reads its cores, and the benchmark times its product as a
    layer of its own; forming each core of B inside the truncation would
    remove it.  The rounded B comes out right-orthogonal, so gauging it
    costs no QR.  Sigma is only taken from a completed left-to-right half
    sweep; ``SweepReport`` states the outcome rule.  Either route gauges its
    operator once per solve, right-orthogonal on cores 1..N-1, and the
    environments, both half sweeps and the stop residual all read that one
    chain.  On the SVD route the gauge also cuts every bond of A wider than
    the mode product to its right: the prescribed family's last two bonds,
    49 and 169, reach the sweeps as 16 and 4.
    """
    sizes = (a.col_sizes,) if gram else (a.row_sizes, a.col_sizes)
    t0 = time.perf_counter()
    op = a
    if gram:
        # B's ranks are the squares of the reduced A's
        a = matrix_tt_round(a, 0.0)
        rdelta = cfg.epsilon / _GRAM_DELTA_DIVISOR
        rev = _bond_reversed(a)
        op = _bond_reversed(gram_tt_round(
            matrix_tt_matmul(matrix_tt_transpose(rev), rev), rev, rdelta))
    op = canonicalize(op, 0)
    report = SweepReport(solver=name, k=cfg.k)
    # (stop residual, Sigma, chain copies, sweeps of its attempt) of the
    # first iterate with the lowest stop residual
    best = (math.inf, np.zeros(cfg.k), None, 0)
    for attempt in range(cfg.max_restarts + 1):
        delta = cfg.epsilon / math.sqrt(a.n_cores - 1) * (
            _RESTART_DELTA_SHRINK ** attempt)
        ss = np.random.SeedSequence([int(cfg.seed), attempt]).spawn(len(sizes) + 1)
        chains = tuple(random_block_tt(m, cfg.k, 1, s) for m, s in zip(sizes, ss))
        rng = np.random.default_rng(ss[-1])
        env = env_init(chains[0], op, chains[-1])
        for sweep in range(cfg.max_full_sweeps):
            first = delta * (_FIRST_HALFSWEEP_DELTA_FACTOR if sweep == 0
                             else 1.0)
            try:
                _half_sweep(op, chains, env, cfg, first, rng, report, pair,
                            "right_to_left")
                sigma = _half_sweep(op, chains, env, cfg, delta, rng, report,
                                    pair, "left_to_right")
            except LocalSolverError:
                break
            r = (_gram_residual(op, chains[0], sigma) if gram
                 else residual(op, *chains, sigma))
            report.residual_history.append(
                {"attempt": int(attempt), "sweep": int(sweep),
                 "residual": float(r),
                 "ranks_u": None if gram else chains[0].ranks,
                 "ranks_v": chains[-1].ranks})
            if r < best[0]:
                best = (r, sigma.copy(), tuple(c.copy() for c in chains),
                        sweep + 1)
            if r < cfg.epsilon:
                break
        if best[0] < cfg.epsilon:
            break

    r, sigma, kept, report.sweeps_used = best
    chains = kept or chains
    report.total_sweeps = len(report.residual_history)
    report.restarts_used = attempt
    report.delta_final = delta
    orthonormal = True
    if gram:
        u = block_tt_scale_columns(block_tt_matvec(a, chains[0]), _pinv(sigma))
        chains = (tt_round(u, rdelta), *chains)
        if kept:
            r = residual(a, *chains, sigma)
            # a column of U lost in the recovery leaves the residual on A small
            defect = block_tt_gram(chains[0], chains[0]) - np.eye(cfg.k)
            orthonormal = np.linalg.norm(defect) <= math.sqrt(cfg.epsilon)
    report.residual = float(r)
    report.termination = ("converged" if r < cfg.epsilon and orthonormal
                          else "restarted" if attempt else "sweep-limit")
    report.wall_time_s = time.perf_counter() - t0
    return sigma, *chains, report


def als_svd(a: MatrixTT, cfg: SolverConfig):
    """Single-core sweeps over (U, V); returns (Sigma, U, V, report).

    Requires k >= 2 (see ``check_problem``).
    """
    check_problem(a, cfg, "als_svd")
    return _driver(a, cfg, pair=False, gram=False, name="als_svd")


def mals_svd(a: MatrixTT, cfg: SolverConfig):
    """Merged-core sweeps over (U, V); rank-adaptive even at k=1."""
    check_problem(a, cfg, "mals_svd")
    return _driver(a, cfg, pair=True, gram=False, name="mals_svd")


def als_eig_baseline(a: MatrixTT, cfg: SolverConfig):
    """Gram-matrix baseline with single-core sweeps; returns (Sigma, U, V, report)."""
    check_problem(a, cfg, "als_eig")
    return _driver(a, cfg, pair=False, gram=True, name="als_eig")


def mals_eig_baseline(a: MatrixTT, cfg: SolverConfig):
    """Gram-matrix baseline with merged-core sweeps; rank-adaptive at k=1."""
    check_problem(a, cfg, "mals_eig")
    return _driver(a, cfg, pair=True, gram=True, name="mals_eig")
