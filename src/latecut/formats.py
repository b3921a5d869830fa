"""Binary file layouts and atomic file writing.

All integers are little-endian; all floats are little-endian IEEE-754
float64.  Three formats live here:

Checkpoint (magic ``LCUT``, version 1)
    magic[4] | version u32 | input_dim u32 | width u32 | n_blocks u32 |
    num_classes u32 | parameter tensors in declaration order as f64:
    stem weight (input_dim*width, row-major), stem bias (width), then per
    block weight1 (width*width), bias1 (width), weight2 (width*width),
    bias2 (width), then classifier weight (width*num_classes), classifier
    bias (num_classes).  Only square-block networks (hidden width equal to
    feature width) are representable.  Round-trips are bitwise.

Pseudo-label cache (magic ``LCCH``, version 2)
    magic[4] | version u32 | count u32 | input_dim u32 | pixels_per_label
    u32 | count interleaved records, each input f64[input_dim] followed by
    label f64[pixels_per_label] | teacher fingerprint u64 (see
    :func:`network_fingerprint`).  Version 1 stored an FNV-1a hash of the
    teacher checkpoint bytes instead and is rejected.

Sample set (magic ``LCDT``, version 1)
    magic[4] | version u32 | count u32 | input_dim u32 | has_labels u32 |
    inputs f64[count*input_dim] row-major | labels u32[count] if
    has_labels is 1.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile

import numpy as np

from .errors import ConfigError, FormatError
from .network import ResidualNetwork, packed_network

CHECKPOINT_MAGIC = b"LCUT"
CACHE_MAGIC = b"LCCH"
SAMPLES_MAGIC = b"LCDT"
FORMAT_VERSION = 1  # checkpoint and sample set
CACHE_VERSION = 2


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never observe a
    truncated file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _f64_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def checkpoint_bytes(network: ResidualNetwork) -> bytes:
    width = network.width
    for block in network.blocks:
        if block.weight1.shape != (width, width):
            raise ConfigError(
                f"block {block.block_id} hidden width {block.weight1.shape[1]} != network "
                f"width {width}; the checkpoint layout only covers square blocks"
            )
    header = struct.pack(
        "<4sIIIII",
        CHECKPOINT_MAGIC,
        FORMAT_VERSION,
        network.input_dim,
        width,
        network.n_blocks,
        network.num_classes,
    )
    body = b"".join(_f64_bytes(p) for p in network.parameter_arrays())
    return header + body


def save_checkpoint(network: ResidualNetwork, path) -> None:
    atomic_write_bytes(path, checkpoint_bytes(network))


def load_checkpoint(path) -> ResidualNetwork:
    with open(path, "rb") as fh:
        data = fh.read()
    return network_from_bytes(data, source=os.fspath(path))


def network_from_bytes(data: bytes, source="<bytes>") -> ResidualNetwork:
    header_size = struct.calcsize("<4sIIIII")
    if len(data) < header_size:
        raise FormatError(f"{source}: truncated checkpoint header")
    magic, version, input_dim, width, n_blocks, num_classes = struct.unpack_from(
        "<4sIIIII", data
    )
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{source}: unsupported checkpoint version {version}")
    shapes = [(input_dim, width), (width,)]
    for _ in range(n_blocks):
        shapes += [(width, width), (width,), (width, width), (width,)]
    shapes += [(width, num_classes), (num_classes,)]
    expected = header_size + 8 * sum(math.prod(s) for s in shapes)
    if len(data) != expected:
        raise FormatError(f"{source}: expected {expected} bytes, found {len(data)}")
    # One copy of the payload, into the network's own buffer.
    return packed_network([np.frombuffer(data, dtype="<f8", offset=header_size)], shapes)


def network_fingerprint(network: ResidualNetwork) -> int:
    """64-bit BLAKE2b digest of the network's parameters: each array's
    rank and shape (u32s) followed by its little-endian f64 bytes, in
    declaration order.  Any block shape hashes the same way."""
    digest = hashlib.blake2b(digest_size=8)
    for p in network.parameter_arrays():
        digest.update(struct.pack(f"<{p.ndim + 1}I", p.ndim, *p.shape))
        digest.update(np.ascontiguousarray(p, dtype="<f8"))
    return int.from_bytes(digest.digest(), "little")


def cache_bytes(inputs: np.ndarray, labels: np.ndarray, teacher_fingerprint: int) -> bytes:
    count, input_dim = inputs.shape
    pixels = labels.shape[1]
    header = struct.pack("<4sIIII", CACHE_MAGIC, CACHE_VERSION, count, input_dim, pixels)
    records = np.concatenate((inputs, labels), axis=1)  # one input+label row per record
    return header + _f64_bytes(records) + struct.pack("<Q", teacher_fingerprint)


def save_cache_file(path, inputs, labels, teacher_fingerprint) -> None:
    atomic_write_bytes(path, cache_bytes(np.asarray(inputs), np.asarray(labels), teacher_fingerprint))


def load_cache_file(path):
    """Returns ``(inputs, labels, teacher_fingerprint)``."""
    with open(path, "rb") as fh:
        data = fh.read()
    header_size = struct.calcsize("<4sIIII")
    if len(data) < header_size + 8:
        raise FormatError(f"{path}: truncated cache file")
    magic, version, count, input_dim, pixels = struct.unpack_from("<4sIIII", data)
    if magic != CACHE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CACHE_MAGIC!r}")
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    expected = header_size + 8 * count * (input_dim + pixels) + 8
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    interleaved = np.frombuffer(data, dtype="<f8", offset=header_size, count=count * (input_dim + pixels))
    interleaved = interleaved.reshape(count, input_dim + pixels)
    inputs = interleaved[:, :input_dim].astype(np.float64)
    labels = interleaved[:, input_dim:].astype(np.float64)
    (fingerprint,) = struct.unpack_from("<Q", data, len(data) - 8)
    return inputs, labels, fingerprint


def save_samples(path, inputs, labels=None) -> None:
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise FormatError(f"sample inputs must be 2-D, got shape {inputs.shape}")
    count, input_dim = inputs.shape
    has_labels = labels is not None
    header = struct.pack(
        "<4sIIII", SAMPLES_MAGIC, FORMAT_VERSION, count, input_dim, 1 if has_labels else 0
    )
    parts = [header, _f64_bytes(inputs)]
    if has_labels:
        labels = np.ascontiguousarray(labels, dtype="<u4")
        if labels.shape != (count,):
            raise FormatError(f"labels must have shape ({count},), got {labels.shape}")
        parts.append(labels.tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_samples(path):
    """Returns ``(inputs, labels_or_None)``."""
    with open(path, "rb") as fh:
        data = fh.read()
    header_size = struct.calcsize("<4sIIII")
    if len(data) < header_size:
        raise FormatError(f"{path}: truncated sample file")
    magic, version, count, input_dim, has_labels = struct.unpack_from("<4sIIII", data)
    if magic != SAMPLES_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {SAMPLES_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported sample-file version {version}")
    expected = header_size + 8 * count * input_dim + (4 * count if has_labels else 0)
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    inputs = (
        np.frombuffer(data, dtype="<f8", offset=header_size, count=count * input_dim)
        .reshape(count, input_dim)
        .astype(np.float64)
    )
    labels = None
    if has_labels:
        labels = np.frombuffer(
            data, dtype="<u4", offset=header_size + 8 * count * input_dim, count=count
        ).astype(np.int64)
    return inputs, labels
