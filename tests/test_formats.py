import hashlib
import struct

import numpy as np
import pytest

from latecut.errors import ConfigError, FormatError
from latecut.formats import (
    CACHE_MAGIC,
    cache_bytes,
    checkpoint_bytes,
    load_cache_file,
    load_checkpoint,
    load_samples,
    network_fingerprint,
    save_cache_file,
    save_checkpoint,
    save_samples,
)
from latecut.network import random_network


def test_checkpoint_roundtrip_bitwise(tmp_path):
    net = random_network(7, 5, 3, 4, seed=13)
    net.blocks[1].bias2[:] = np.random.default_rng(1).standard_normal(5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.input_dim == 7 and loaded.width == 5
    assert loaded.n_blocks == 3 and loaded.num_classes == 4
    for original, restored in zip(net.parameter_arrays(), loaded.parameter_arrays()):
        assert np.array_equal(original, restored)
        assert original.dtype == restored.dtype == np.float64
    # save -> load -> save is byte-identical
    assert checkpoint_bytes(loaded) == checkpoint_bytes(net)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    net = random_network(3, 2, 1, 2, seed=0)
    data = checkpoint_bytes(net)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)
    short = tmp_path / "short.ckpt"
    short.write_bytes(data[:-8])
    with pytest.raises(FormatError):
        load_checkpoint(short)


def test_checkpoint_rejects_rectangular_blocks():
    net = random_network(3, 4, 2, 2, seed=0, hidden_widths=[4, 8])
    with pytest.raises(ConfigError):
        checkpoint_bytes(net)


def test_fingerprint_sensitive_to_any_parameter():
    net = random_network(3, 3, 2, 2, seed=5)
    base = network_fingerprint(net)
    twin = random_network(3, 3, 2, 2, seed=5)
    assert network_fingerprint(twin) == base
    twin.blocks[0].weight2[0, 0] += 1e-9
    assert network_fingerprint(twin) != base


@pytest.mark.parametrize("hidden_widths", [None, [4, 8]], ids=["square", "non_square"])
def test_fingerprint_is_blake2b_of_shapes_and_parameters(hidden_widths):
    # Square and non-square networks hash on one path: rank, shape, f64 bytes.
    net = random_network(3, 4, 2, 2, seed=0, hidden_widths=hidden_widths)
    digest = hashlib.blake2b(digest_size=8)
    for p in net.parameter_arrays():
        digest.update(struct.pack("<I", p.ndim) + struct.pack(f"<{p.ndim}I", *p.shape))
        digest.update(p.astype("<f8").tobytes())
    assert network_fingerprint(net) == int.from_bytes(digest.digest(), "little")


def _filled(input_dim, width, num_classes, hidden, values):
    net = random_network(input_dim, width, 1, num_classes, hidden_widths=[hidden])
    pos = 0
    for p in net.parameter_arrays():
        p.reshape(-1)[:] = values[pos : pos + p.size]
        pos += p.size
    assert pos == len(values)
    return net


def test_fingerprint_covers_shapes_not_just_bytes():
    values = np.random.default_rng(0).standard_normal(24)
    a = _filled(2, 2, 2, 2, values)
    b = _filled(1, 3, 2, 1, values)
    stream = lambda net: b"".join(p.tobytes() for p in net.parameter_arrays())
    assert stream(a) == stream(b)
    assert network_fingerprint(a) != network_fingerprint(b)


def test_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    inputs = rng.standard_normal((6, 4))
    labels = rng.standard_normal((6, 3))
    path = tmp_path / "cache.bin"
    save_cache_file(path, inputs, labels, 0xDEADBEEF12345678)
    got_inputs, got_labels, fingerprint = load_cache_file(path)
    assert np.array_equal(got_inputs, inputs)
    assert np.array_equal(got_labels, labels)
    assert fingerprint == 0xDEADBEEF12345678


def test_cache_bytes_pinned_to_layout():
    inputs = np.array([[1.0, -2.0], [3.5, 4.0]])
    labels = np.array([[5.0, 6.0, 7.0], [8.0, 9.0, -0.5]])
    expected = (
        struct.pack("<4sIIII", b"LCCH", 2, 2, 2, 3)
        + struct.pack("<5d", 1.0, -2.0, 5.0, 6.0, 7.0)
        + struct.pack("<5d", 3.5, 4.0, 8.0, 9.0, -0.5)
        + struct.pack("<Q", 0x0123456789ABCDEF)
    )
    assert cache_bytes(inputs, labels, 0x0123456789ABCDEF) == expected


def test_cache_version_1_rejected(tmp_path):
    path = tmp_path / "cache.bin"
    save_cache_file(path, np.zeros((2, 2)), np.zeros((2, 1)), 1)
    data = path.read_bytes()
    assert struct.unpack_from("<4sI", data) == (CACHE_MAGIC, 2)
    path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
    with pytest.raises(FormatError, match="version 1"):
        load_cache_file(path)


def test_cache_truncation(tmp_path):
    path = tmp_path / "cache.bin"
    save_cache_file(path, np.zeros((2, 2)), np.zeros((2, 1)), 1)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_cache_file(path)


@pytest.mark.parametrize("with_labels", [True, False])
def test_samples_roundtrip(tmp_path, with_labels):
    rng = np.random.default_rng(3)
    inputs = rng.standard_normal((9, 5))
    labels = rng.integers(0, 4, 9) if with_labels else None
    path = tmp_path / "data.bin"
    save_samples(path, inputs, labels)
    got_inputs, got_labels = load_samples(path)
    assert np.array_equal(got_inputs, inputs)
    if with_labels:
        assert np.array_equal(got_labels, labels)
    else:
        assert got_labels is None


def test_atomic_write_leaves_no_temp_files(tmp_path):
    net = random_network(2, 2, 1, 2, seed=0)
    save_checkpoint(net, tmp_path / "m.ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
