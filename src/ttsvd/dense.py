"""Dense kernels: QR and (truncated) SVD with fixed conventions.

Index convention used throughout the package: a tensor entry (i_1, ..., i_N)
sits at flat position i_1 + (i_2 - 1) I_1 + ... + (i_N - 1) I_1 ... I_{N-1}
(1-based), i.e. the first axis runs fastest.  In numpy terms every flattening
and reshaping is done with ``order="F"``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class SvdFactors(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray  # columns are right singular vectors, so m ~ u @ diag(s) @ v.T
    discarded_energy: float


def dense_svd(m: np.ndarray) -> SvdFactors:
    """Full (economy) SVD with validation; deterministic for a fixed input."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("dense_svd requires finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdFactors(u, s, vt.T, 0.0)


def truncated_svd(
    m: np.ndarray,
    delta: float,
    max_rank: int | None = None,
    frob_threshold: float | None = None,
    min_rank: int | None = None,
) -> SvdFactors:
    """SVD truncated to the smallest rank whose discarded tail has Frobenius
    norm <= delta * ||m||_F (or <= frob_threshold when given as an absolute
    bound).  Never keeps fewer than one column; exact ties resolve to the
    smaller rank.  ``min_rank`` floors the kept rank (clipped to what the
    matrix has available) and ``max_rank`` caps it; the cap wins when both
    are given and conflict.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    u, s, v, _ = dense_svd(m)
    energies = s**2
    # suffix[r] = energy discarded when keeping the first r values
    suffix = np.concatenate([np.cumsum(energies[::-1])[::-1], [0.0]])
    if frob_threshold is not None:
        thr2 = float(frob_threshold) ** 2
    else:
        thr2 = (float(delta) ** 2) * float(energies.sum())
    keep = len(s)
    for r in range(1, len(s) + 1):
        if suffix[r] <= thr2:
            keep = r
            break
    if min_rank is not None:
        keep = max(keep, min(int(min_rank), len(s)))
    if max_rank is not None:
        keep = min(keep, int(max_rank))
    keep = max(keep, 1) if len(s) else 1
    if len(s) == 0:
        raise ValueError("empty matrix has no singular values")
    return SvdFactors(u[:, :keep], s[:keep], v[:, :keep], float(suffix[keep]))


def dense_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the sign convention that R has a nonnegative diagonal."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("dense_qr requires finite entries")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r).copy()
    signs = np.where(d < 0, -1.0, 1.0)
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    return q, r
