"""Dense kernels: QR and (truncated) SVD with fixed conventions.

Index convention used throughout the package: a tensor entry (i_1, ..., i_N)
sits at flat position i_1 + (i_2 - 1) I_1 + ... + (i_N - 1) I_1 ... I_{N-1}
(1-based), i.e. the first axis runs fastest.  In numpy terms every flattening
and reshaping is done with ``order="F"``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class SvdFactors(NamedTuple):
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray  # columns are right singular vectors, so m ~ u @ diag(s) @ v.T
    discarded_energy: float


def truncated_svd(
    m: np.ndarray,
    delta: float,
    max_rank: int | None = None,
    frob_threshold: float | None = None,
    min_rank: int | None = None,
) -> SvdFactors:
    """Economy SVD truncated to the smallest rank whose discarded tail has
    Frobenius norm <= delta * ||m||_F (or <= frob_threshold when given as an
    absolute bound).  Never keeps fewer than one column; exact ties resolve
    to the smaller rank.  ``min_rank`` floors the kept rank (clipped to what
    the matrix has available) and ``max_rank`` caps it; the cap wins when
    both are given and conflict.  The rank is chosen right at any scale of
    the singular values; ``discarded_energy`` is inf where the discarded
    energy itself exceeds the float range.  Deterministic for a fixed
    input; an empty matrix, a non-finite entry or a negative or non-finite
    delta raises ``ValueError``.
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        raise ValueError("empty matrix has no singular values")
    _check_delta(delta)
    if not np.all(np.isfinite(m)):
        raise ValueError("truncated_svd requires finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    # s**2 overflows above about 1e154 and underflows below 1e-154, so s
    # and the threshold are first scaled by the power of two 2^-e that puts
    # s[0] in [0.5, 1).  That scaling is exact, so it changes no decision
    # where the squares were in range.
    e = int(np.frexp(s[0])[1])
    energies = np.ldexp(s, -e) ** 2
    # suffix[r] = energy discarded when keeping the first r values
    suffix = np.concatenate([np.cumsum(energies[::-1])[::-1], [0.0]])
    if frob_threshold is not None:
        thr2 = np.ldexp(float(frob_threshold), -e) ** 2
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
    keep = max(keep, 1)
    with np.errstate(over="ignore"):  # an energy past the float range is inf
        discarded = float(np.ldexp(suffix[keep], 2 * e))
    return SvdFactors(u[:, :keep], s[:keep], vt.T[:, :keep], discarded)


def _check_delta(delta: float) -> None:
    """A truncation delta must be a finite nonnegative number."""
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be nonnegative and finite, got {delta}")


def dense_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the sign convention that R has a nonnegative diagonal."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("dense_qr requires finite entries, got NaN or inf")
    q, r = np.linalg.qr(m)
    d = np.diagonal(r).copy()
    signs = np.where(d < 0, -1.0, 1.0)
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    return q, r
