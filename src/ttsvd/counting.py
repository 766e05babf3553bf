"""Multiply-accumulate accounting for pairwise tensor contractions.

Every contraction kernel in the solver goes through :func:`tdot`, a thin
``np.tensordot`` wrapper that charges ``(output size) * (contracted size)``
multiply-accumulate operations to all currently active counters.  Tests wrap
individual kernel calls in :func:`count_macs` and compare the observed totals
against closed-form cost expressions.
"""

from __future__ import annotations

import math
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


def tdot(a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """np.tensordot with MAC accounting on the active counters.

    The output size times the contracted size is the square root of
    a.size * b.size * out.size, whatever the axes.
    """
    out = np.tensordot(a, b, axes=axes)
    if _ACTIVE:
        n = math.isqrt(np.size(a) * np.size(b) * out.size)
        for c in _ACTIVE:
            c.add(n)
    return out
