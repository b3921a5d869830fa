import hashlib
import os
import struct
import sys

import numpy as np
import pytest

from latecut import network
from latecut.errors import ConfigError, FormatError
from latecut.formats import (
    CACHE_MAGIC,
    atomic_write_bytes,
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
from latecut.network import ResidualNetwork, random_network

from oracles import assert_packed


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


def test_loaded_checkpoint_is_one_aligned_writable_buffer(tmp_path):
    net = random_network(7, 5, 3, 4, seed=14)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert_packed(loaded)
    loaded.blocks[0].weight1[0, 0] += 1.0
    assert loaded.blocks[0].weight1[0, 0] != net.blocks[0].weight1[0, 0]


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


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_checkpoint_header_sizes_checked_before_allocation(tmp_path, monkeypatch, source):
    # 24 bytes whose header claims 100000 blocks of width 1: the payload is
    # read and found short before any block is built from the claim.  A
    # claim of 2**32 - 1 blocks is sized arithmetically, so it fails at once
    # (no buffer that large exists, or the read finds it short) instead of
    # first building a list of its shapes.
    def no_block(*args, **kwargs):
        raise AssertionError("built a block from a header the payload does not back")

    monkeypatch.setattr(network, "ResidualBlock", no_block)
    for n_blocks, message in [(100000, "expected"),
                              (2**32 - 1, "cannot be allocated|expected")]:
        data = struct.pack("<4sIIIII", b"LCUT", 1, 1, 1, n_blocks, 1)
        path = tmp_path / "claims.ckpt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path) if source == "file" else _load_piped(load_checkpoint, data)


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_checkpoint_loads_into_an_unfilled_buffer(tmp_path, nan_unfilled, source):
    net = random_network(7, 5, 3, 4, seed=15)
    data = checkpoint_bytes(net)
    path = tmp_path / "model.ckpt"
    path.write_bytes(data)
    nan_unfilled.clear()
    loaded = load_checkpoint(path) if source == "file" else _load_piped(load_checkpoint, data)
    assert len(nan_unfilled) == 1
    assert checkpoint_bytes(loaded) == data
    assert all(np.isfinite(p).all() for p in loaded.parameter_arrays())
    assert_packed(loaded)


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_short_payload_into_an_unfilled_buffer_raises(tmp_path, nan_unfilled, source):
    data = checkpoint_bytes(random_network(7, 5, 3, 4, seed=16))[:-8]
    path = tmp_path / "short.ckpt"
    path.write_bytes(data)
    nan_unfilled.clear()
    with pytest.raises(FormatError, match="expected"):
        load_checkpoint(path) if source == "file" else _load_piped(load_checkpoint, data)
    assert len(nan_unfilled) == 1


def test_checkpoint_bytes_pinned_to_layout():
    values = np.arange(1.0, 28.0) / 8  # exact in f64
    expected = struct.pack("<4sIIIII", b"LCUT", 1, 2, 2, 1, 3) + struct.pack("<27d", *values)
    assert checkpoint_bytes(_filled(2, 2, 3, 2, values)) == expected


def _cast(net, dtype):
    cast = lambda a: a.astype(dtype)
    blocks = [network.ResidualBlock(cast(b.weight1), cast(b.bias1), cast(b.weight2),
                                    cast(b.bias2), b.block_id) for b in net.blocks]
    return ResidualNetwork(cast(net.stem_weight), cast(net.stem_bias), blocks,
                           cast(net.classifier_weight), cast(net.classifier_bias))


def test_float32_network_writes_the_float64_checkpoint():
    narrow = _cast(random_network(5, 4, 2, 3, seed=3), np.float32)
    assert narrow.stem_weight.dtype == np.float32
    assert checkpoint_bytes(narrow) == checkpoint_bytes(_cast(narrow, np.float64))


@pytest.mark.parametrize("shape", [(7, 5, 3, 4), (1, 1, 0, 1), (3, 2, 0, 5), (2, 6, 8, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_square_parameter_count_is_the_networks_count(shape):
    assert network.square_parameter_count(*shape) == network.parameter_count(
        random_network(*shape, seed=0))


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
    assert got_inputs.dtype == np.float64 and got_inputs.flags.c_contiguous
    if with_labels:
        assert np.array_equal(got_labels, labels)
        assert got_labels.dtype == np.int64 and got_labels.flags.c_contiguous
    else:
        assert got_labels is None


@pytest.mark.parametrize("with_labels", [True, False])
def test_samples_bytes_pinned_to_layout(tmp_path, with_labels):
    inputs = np.array([[1.0, -2.0, 0.25], [3.5, 4.0, -0.5]])
    path = tmp_path / "data.bin"
    save_samples(path, inputs, [0, 2**32 - 1] if with_labels else None)
    expected = (struct.pack("<4sIIII", b"LCDT", 1, 2, 3, int(with_labels))
                + struct.pack("<6d", 1.0, -2.0, 0.25, 3.5, 4.0, -0.5)
                + (struct.pack("<2I", 0, 2**32 - 1) if with_labels else b""))
    assert path.read_bytes() == expected


@pytest.mark.parametrize("labels", [[-1, 5], [0, 2**32], [1.7, 2.2], [1.0, 2.0], [True, False],
                                    ["1", "2"], [None, 1]],
                         ids=["negative", "2**32", "fractional", "integral_floats", "bools",
                              "strings", "none"])
def test_save_samples_rejects_labels_outside_u32_integers(tmp_path, labels):
    path = tmp_path / "data.bin"
    with pytest.raises(FormatError, match="integers in 0..4294967295"):
        save_samples(path, np.ones((2, 3)), labels)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_no_temp_files(tmp_path):
    net = random_network(2, 2, 1, 2, seed=0)
    save_checkpoint(net, tmp_path / "m.ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_atomic_write_creates_its_directory_and_removes_its_temp_file_on_failure(
        tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(tmp_path / "new" / "f.bin", b"payload")
    assert list((tmp_path / "new").iterdir()) == []


# One valid small file per format: (writer, loader, header size in bytes).
FORMATS = {
    "checkpoint": (lambda path: save_checkpoint(random_network(3, 2, 1, 2, seed=0), path),
                   load_checkpoint, 24),
    "cache": (lambda path: save_cache_file(path, np.ones((2, 3)), np.ones((2, 1)), 7),
              load_cache_file, 20),
    "samples": (lambda path: save_samples(path, np.ones((2, 3)), [0, 1]), load_samples, 20),
}

CORRUPTIONS = {
    "header_short": lambda data, n: data[: n - 1],
    "header_only": lambda data, n: data[:n],
    "payload_one_byte_short": lambda data, n: data[:-1],
    "one_trailing_byte": lambda data, n: data + b"\0",
    "bad_magic": lambda data, n: b"XXXX" + data[4:],
    "bad_version": lambda data, n: data[:4] + struct.pack("<I", 99) + data[8:],
    # the first two size fields at 2**32 - 1: no array of that many elements exists
    "unallocatable_sizes": lambda data, n: data[:8] + b"\xff" * 8 + data[16:],
    # the last size field at 7: a sample file's has_labels, which must be 0 or 1
    "last_size_field_7": lambda data, n: data[: n - 4] + struct.pack("<I", 7) + data[n:],
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("kind", FORMATS)
def test_malformed_file_raises_format_error(tmp_path, kind, corruption):
    write, load, header_size = FORMATS[kind]
    path = tmp_path / kind
    write(path)
    load(path)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes(), header_size))
    with pytest.raises(FormatError):
        load(path)


@pytest.mark.parametrize("kind", FORMATS)
def test_loads_from_a_pipe(tmp_path, kind):
    # Sizes come from the bytes read, not from the file's size on disk.
    write, load, _ = FORMATS[kind]
    write(tmp_path / kind)
    piped = _load_piped(load, (tmp_path / kind).read_bytes())
    assert _payload(piped) == _payload(load(tmp_path / kind))


def _load_piped(load, data: bytes):
    """``load`` run on ``data`` written into a pipe (``/dev/fd/N``)."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)  # far below a pipe's capacity
        os.close(write_end)
        write_end = None
        return load(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


def _payload(loaded) -> bytes:
    """The bytes of every array a loader returned."""
    arrays = loaded.parameter_arrays() if isinstance(loaded, ResidualNetwork) else loaded
    return b"".join(np.asarray(a).tobytes() for a in arrays if a is not None)


def test_big_endian_host_swaps_every_payload_array(tmp_path, monkeypatch):
    net = random_network(3, 2, 2, 2, seed=0)
    save_checkpoint(net, tmp_path / "m.ckpt")
    save_cache_file(tmp_path / "c.bin", np.ones((2, 3)), np.ones((2, 1)), 7)
    save_samples(tmp_path / "d.bin", np.ones((2, 3)), [0, 1])
    monkeypatch.setattr(sys, "byteorder", "big")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    for original, swapped in zip(net.parameter_arrays(), loaded.parameter_arrays()):
        assert swapped.tobytes() == original.byteswap().tobytes()
    inputs, labels, fingerprint = load_cache_file(tmp_path / "c.bin")
    assert inputs.tobytes() == np.ones((2, 3)).byteswap().tobytes()
    assert fingerprint == 7 << 56
    inputs, labels = load_samples(tmp_path / "d.bin")
    assert labels.tolist() == [0, 1 << 24]
