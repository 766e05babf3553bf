"""Binary container for TT chains.

Layout (all integers little-endian):

    magic   4 bytes  b"TTC1"
    kind    u8       0 = VectorTT, 1 = MatrixTT, 2 = BlockTT
    N       u32      number of cores
    K       u32      block size (0 unless kind = 2)
    pos     i32      block core position (-1 unless kind = 2)
    modes   N x u32  mode sizes; for MatrixTT 2N x u32 as (I_1, J_1, I_2, ...)
    ranks   (N+1) x u32
    cores   float64 LE, each core raveled column-major, concatenated in order

Orthogonality tags are volatile bookkeeping and are not stored; loaded chains
come back untagged.  The float payload is written verbatim, so a save/load
round trip is bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .tt import BlockTT, MatrixTT, VectorTT

MAGIC = b"TTC1"
_HEADER = "<BIIi"  # kind, N, K, pos
_KIND_CODE = {VectorTT: 0, MatrixTT: 1, BlockTT: 2}


def save_tt(x, path) -> None:
    """Write a VectorTT / MatrixTT / BlockTT to ``path``."""
    kind = _KIND_CODE.get(type(x))
    if kind is None:
        raise TypeError(f"cannot serialize {type(x)!r}")
    n = x.n_cores
    k = x.k if kind == 2 else 0
    pos = x.block_position if kind == 2 else -1
    if kind == 1:
        modes = [s for pair in zip(x.row_sizes, x.col_sizes) for s in pair]
    else:
        modes = list(x.mode_sizes)
    ranks = list(x.ranks)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(_HEADER, kind, n, k, pos))
        fh.write(np.asarray(modes, dtype="<u4").tobytes())
        fh.write(np.asarray(ranks, dtype="<u4").tobytes())
        for c in x.cores:
            fh.write(np.asarray(c, dtype="<f8").ravel(order="F").tobytes())


def load_tt(path):
    """Read a chain written by save_tt; the inverse, bit-exactly.

    The header is checked before any payload is read: the kind code, the
    block fields (K >= 1 and 0 <= pos < N for a BlockTT, K = 0 and pos = -1
    otherwise) and the length of every section.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise ValueError("not a TT container (bad magic)")
    off = 4 + struct.calcsize(_HEADER)
    if len(data) < off:
        raise ValueError("truncated TT container: incomplete header")
    kind, n, k, pos = struct.unpack_from(_HEADER, data, 4)
    if kind not in _KIND_CODE.values():
        raise ValueError(f"unknown TT container kind code {kind}")
    if kind == 2 and (k < 1 or not 0 <= pos < n):
        raise ValueError(f"bad BlockTT header: K={k}, pos={pos}, N={n}")
    if kind != 2 and (k != 0 or pos != -1):
        raise ValueError(f"K={k}, pos={pos} in a header of kind {kind}; "
                         "only a BlockTT (kind 2) has a block")

    def take(dtype, shape):
        nonlocal off
        count = math.prod(shape)
        end = off + np.dtype(dtype).itemsize * count
        if end > len(data):
            raise ValueError("truncated TT container: payload ends early")
        out = np.frombuffer(data, dtype=dtype, count=count, offset=off)
        off = end
        return np.reshape(out, shape, order="F")

    modes = take("<u4", (2 * n if kind == 1 else n,))
    ranks = take("<u4", (n + 1,))
    cores = []
    for m in range(n):
        r, r2 = int(ranks[m]), int(ranks[m + 1])
        if kind == 0:
            shape = (r, int(modes[m]), r2)
        elif kind == 1:
            shape = (r, int(modes[2 * m]), int(modes[2 * m + 1]), r2)
        else:
            shape = ((r, k, int(modes[m]), r2) if m == pos
                     else (r, int(modes[m]), r2))
        cores.append(take("<f8", shape))
    if off != len(data):
        raise ValueError("trailing bytes in TT container")
    if kind == 0:
        return VectorTT(cores)
    if kind == 1:
        return MatrixTT(cores)
    return BlockTT(cores, pos)
