"""Binary container format: layout, bit-exact round trips, error handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreg.checkpoint import MAGIC_MODEL, read_container, write_container
from qreg.errors import DataError
from qreg.layers import build_mlp_small, forward
from qreg.quantization import QuantConfig, wrap_model


def test_container_byte_layout_is_the_documented_one():
    path = "/tmp/qreg_ckpt_layout.bin"
    arr = np.array([[1.5, -2.0]])
    write_container(path, {"ab": arr}, MAGIC_MODEL)
    blob = open(path, "rb").read()
    assert blob[:5] == b"QREG1"
    pos = 5
    (name_len,) = struct.unpack_from("<Q", blob, pos); pos += 8
    assert name_len == 2 and blob[pos : pos + 2] == b"ab"; pos += 2
    (rank,) = struct.unpack_from("<Q", blob, pos); pos += 8
    assert rank == 2
    dims = struct.unpack_from("<QQ", blob, pos); pos += 16
    assert dims == (1, 2)
    vals = struct.unpack_from("<2d", blob, pos); pos += 16
    assert vals == (1.5, -2.0)
    assert pos == len(blob)


def test_container_round_trip_preserves_bits_and_order():
    path = "/tmp/qreg_ckpt_rt.bin"
    rng = np.random.default_rng(80)
    arrays = {
        "w": rng.standard_normal((3, 4)),
        "scalar": np.asarray(2.5),
        "nasty": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
        "empty_name_ok": np.zeros((2,)),
    }
    write_container(path, arrays, MAGIC_MODEL)
    back = read_container(path, MAGIC_MODEL)
    assert list(back) == list(arrays)
    for k in arrays:
        a, b = np.asarray(arrays[k]), back[k]
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))  # bit-for-bit


def test_container_wrong_magic_and_truncation():
    path = "/tmp/qreg_ckpt_bad.bin"
    with open(path, "wb") as fh:
        fh.write(b"WRONG" + b"\x00" * 8)
    with pytest.raises(DataError):
        read_container(path, MAGIC_MODEL)
    write_container(path, {"x": np.ones(4)}, MAGIC_MODEL)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-5])
    with pytest.raises(DataError):
        read_container(path, MAGIC_MODEL)
    with open(path, "wb") as fh:  # a 2-byte name that is not utf-8
        fh.write(MAGIC_MODEL + struct.pack("<Q", 2) + b"\xff\xfe" + struct.pack("<Qd", 0, 1.0))
    with pytest.raises(DataError, match="utf-8"):
        read_container(path, MAGIC_MODEL)


@settings(max_examples=300, deadline=None)
@given(
    cut=st.integers(0, 150),  # the container below is 144 bytes long
    edits=st.lists(st.tuples(st.integers(0, 143), st.integers(0, 255)), max_size=6),
)
def test_container_truncated_or_mutated_raises_only_data_error(tmp_path_factory, cut, edits):
    path = tmp_path_factory.mktemp("fuzz") / "container.qreg"
    write_container(path, {"w": np.arange(6.0).reshape(2, 3), "s": np.asarray(1.5), "e": np.zeros((0, 2))})
    blob = bytearray(path.read_bytes())
    for pos, byte in edits:
        blob[pos] = byte
    bad = path.with_name("bad.qreg")
    bad.write_bytes(bytes(blob[:cut]))
    try:
        back = read_container(bad, MAGIC_MODEL)
    except DataError:
        return
    assert all(isinstance(a, np.ndarray) for a in back.values())


def test_model_checkpoint_round_trip_restores_predictions(tmp_path):
    rng = np.random.default_rng(81)
    model = build_mlp_small(12, 4, rng)
    path = tmp_path / "model.qreg"
    write_container(path, model.state_dict())  # as cmd_train writes its checkpoints
    other = build_mlp_small(12, 4, np.random.default_rng(999))
    other.load_state_dict(read_container(path))
    x = rng.standard_normal((5, 12))
    assert np.array_equal(forward(model, x).value, forward(other, x).value)


def test_quantized_model_checkpoint_includes_scales(tmp_path):
    rng = np.random.default_rng(82)
    model = wrap_model(build_mlp_small(8, 3, rng), QuantConfig())
    model.train_mode = True
    forward(model, rng.uniform(-1, 1, (4, 8)))
    model.train_mode = False
    path = tmp_path / "quant.qreg"
    write_container(path, model.state_dict())
    stored = read_container(path)
    assert any(k.endswith("act_scale") for k in stored)
    clone = wrap_model(build_mlp_small(8, 3, np.random.default_rng(5)), QuantConfig())
    clone.load_state_dict(stored)
    x = rng.uniform(-1, 1, (6, 8))
    assert np.array_equal(forward(model, x).value, forward(clone, x).value)
