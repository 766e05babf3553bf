"""Binary container round trips."""

import struct

import numpy as np
import pytest

from conftest import random_block_tt_at, random_matrix_tt, random_vector_tt_raw
from ttsvd import load_tt, save_tt, tt_round
from ttsvd.tt import BlockTT, MatrixTT, VectorTT


def test_vector_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = random_vector_tt_raw(5, 3, rng)
    path = tmp_path / "x.ttc"
    save_tt(x, path)
    y = load_tt(path)
    assert isinstance(y, VectorTT)
    assert y.mode_sizes == x.mode_sizes
    assert y.ranks == x.ranks
    for cx, cy in zip(x.cores, y.cores):
        assert np.array_equal(cx, cy)  # exact, not allclose


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    a = random_matrix_tt(4, 2, rng)
    path = tmp_path / "a.ttc"
    save_tt(a, path)
    b = load_tt(path)
    assert isinstance(b, MatrixTT)
    assert b.row_sizes == a.row_sizes and b.col_sizes == a.col_sizes
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)


def test_block_round_trip_keeps_position(tmp_path):
    rng = np.random.default_rng(2)
    for pos in (0, 2, 4):
        u = random_block_tt_at([2] * 5, 3, 2, pos, rng)
        path = tmp_path / f"u{pos}.ttc"
        save_tt(u, path)
        w = load_tt(path)
        assert isinstance(w, BlockTT)
        assert w.block_position == pos and w.k == 3
        for cu, cw in zip(u.cores, w.cores):
            assert np.array_equal(cu, cw)


def test_orth_tags_are_not_persisted(tmp_path):
    rng = np.random.default_rng(3)
    x = random_vector_tt_raw(3, 2, rng)
    x.orth[0] = "L"
    a = tt_round(random_matrix_tt(3, 2, rng), 0.0)
    assert a.orth == ["L", "L", None]
    for chain in (x, a):
        path = tmp_path / "x.ttc"
        save_tt(chain, path)
        assert load_tt(path).orth == [None, None, None]


def test_special_float_payload_survives(tmp_path):
    core0 = np.array([[[1.0, -0.0], [np.inf, 5e-324]]])  # (1, 2, 2)
    core1 = np.array([[[2.0], [3.0]], [[4.0], [5.0]]])  # (2, 2, 1)
    x = VectorTT([core0, core1])
    path = tmp_path / "f.ttc"
    save_tt(x, path)
    y = load_tt(path)
    raw_in = x.cores[0].ravel(order="F").tobytes()
    raw_out = y.cores[0].ravel(order="F").tobytes()
    assert raw_in == raw_out


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ttc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_tt(path)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(4)
    x = random_vector_tt_raw(3, 2, rng)
    path = tmp_path / "x.ttc"
    save_tt(x, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_tt(path)


# header byte offsets: magic 0..3, kind 4, N 5..8, K 9..12, pos 13..16
@pytest.mark.parametrize("chain, offset, fmt, value, match", [
    ("vector", 4, "<B", 7, "kind code 7"),
    ("block", 4, "<B", 7, "kind code 7"),
    ("block", 13, "<i", 9, "pos=9"),
    ("block", 13, "<i", -1, "pos=-1"),
    ("block", 9, "<I", 0, "K=0"),
    ("vector", 9, "<I", 1, "kind 0"),
    ("vector", 13, "<i", 0, "kind 0"),
    ("matrix", 13, "<i", 2, "kind 1"),
])
def test_bad_header_rejected(tmp_path, chain, offset, fmt, value, match):
    rng = np.random.default_rng(5)
    x = {"vector": random_vector_tt_raw(5, 2, rng),
         "matrix": random_matrix_tt(5, 2, rng),
         "block": random_block_tt_at([2] * 5, 3, 2, 1, rng)}[chain]
    path = tmp_path / "x.ttc"
    save_tt(x, path)
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=match):
        load_tt(path)


@pytest.mark.parametrize("keep", [10, 17, 30, -8, -1])
def test_truncated_container_rejected(tmp_path, keep):
    rng = np.random.default_rng(6)
    path = tmp_path / "u.ttc"
    save_tt(random_block_tt_at([2] * 4, 3, 2, 2, rng), path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated"):
        load_tt(path)


def test_unserializable_type_rejected(tmp_path):
    with pytest.raises(TypeError):
        save_tt(np.zeros(3), tmp_path / "z.ttc")
