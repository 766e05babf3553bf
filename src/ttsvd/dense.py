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
    input; an empty matrix or a non-finite entry raises ``ValueError``, as
    does a delta that is not a finite nonnegative real (``_real``).
    """
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        raise ValueError("empty matrix has no singular values")
    delta = _real("delta", delta, 0, low_closed=True)
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
        thr2 = delta ** 2 * float(energies.sum())
    # the first r >= 1 that meets the bound; suffix[len(s)] = 0 always does
    keep = 1 + int(np.argmax(suffix[1:] <= thr2))
    if min_rank is not None:
        keep = max(keep, min(int(min_rank), len(s)))
    if max_rank is not None:
        keep = min(keep, int(max_rank))
    keep = max(keep, 1)
    with np.errstate(over="ignore"):  # an energy past the float range is inf
        discarded = float(np.ldexp(suffix[keep], 2 * e))
    return SvdFactors(u[:, :keep], s[:keep], vt.T[:, :keep], discarded)


def _integer(name: str, value, low: int) -> int:
    """``value`` as an int of at least ``low``; a bool or a non-integer
    (a float such as 2.0 included) raises ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


def _real(name: str, value, low, high=math.inf, *, low_closed=False) -> float:
    """``value`` as a float in (low, high), or in [low, high) with
    ``low_closed``.  A bool or a non-real (a str, None or a complex), NaN
    or a value out of range raises ``ValueError`` naming ``name``.  Below
    an infinite ``high``, ``low`` is 0 or -inf; below a finite one it is
    open."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not (low <= x if low_closed else low < x) or not x < high:
        sign = "nonnegative" if low_closed else "positive"
        rule = (f"lie strictly between {low:g} and {high:g}" if high < math.inf
                else "be finite" if low == -math.inf
                else f"be {sign} and finite")
        raise ValueError(f"{name} must {rule}, got {x!r}")
    return x


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
