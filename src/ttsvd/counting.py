"""Multiply-accumulate accounting for pairwise tensor contractions.

Every contraction kernel in the solver goes through :func:`tdot`, a thin
``np.tensordot`` wrapper that charges ``(output size) * (contracted size)``
multiply-accumulate operations to all currently active counters.  Tests wrap
individual kernel calls in :func:`count_macs` and compare the observed totals
against closed-form cost expressions.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class MacCounter:
    __slots__ = ("macs",)

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)


_ACTIVE: list[MacCounter] = []


@contextmanager
def count_macs():
    """Context manager yielding a fresh MacCounter fed by every tdot inside."""
    c = MacCounter()
    _ACTIVE.append(c)
    try:
        yield c
    finally:
        _ACTIVE.remove(c)


def _normalize_axes(a, b, axes):
    if isinstance(axes, int):
        ax_a = tuple(range(a.ndim - axes, a.ndim))
        ax_b = tuple(range(axes))
        return ax_a, ax_b
    ax_a, ax_b = axes
    if np.isscalar(ax_a):
        ax_a = (ax_a,)
    if np.isscalar(ax_b):
        ax_b = (ax_b,)
    ax_a = tuple(int(x) % a.ndim for x in ax_a)
    ax_b = tuple(int(x) % b.ndim for x in ax_b)
    return ax_a, ax_b


def tdot(a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """np.tensordot with MAC accounting on the active counters.

    With no counter active it is np.tensordot itself: the axis bookkeeping
    is skipped.
    """
    if not _ACTIVE:
        return np.tensordot(a, b, axes=axes)
    a = np.asarray(a)
    b = np.asarray(b)
    ax_a, ax_b = _normalize_axes(a, b, axes)
    contracted = 1
    for ax in ax_a:
        contracted *= a.shape[ax]
    out_size = (a.size // max(contracted, 1)) * (b.size // max(contracted, 1))
    n = out_size * contracted
    for c in _ACTIVE:
        c.add(n)
    return np.tensordot(a, b, axes=(ax_a, ax_b))
