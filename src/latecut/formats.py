"""Binary file layouts and atomic file writing.

All integers are little-endian; all floats are little-endian IEEE-754
float64, on any host.  Every layout is a header (magic, version, u32 size
fields) then arrays, written by one encoder, ``_encode``, and read by one
decoder, ``_decode``, which checks the header, reads the payload once,
straight into the arrays the size fields allocate, and returns them; each
loader then builds its result on them.  A checkpoint's network is cut from
the one aligned buffer its payload filled, sized by
:func:`~latecut.network.square_parameter_count` as experiment sizing is; a
cache's inputs and labels are the columns of one array of records; a
sample set's inputs are the array they were read into.  No loader holds
its payload twice or zero-fills what it reads into: every element is
written by the read before anything is built on it, a short read raises
first, and alignment padding is never read (at width 128 x 8 blocks the
fill cost 0.1 ms of a 0.5 ms checkpoint load).  A short header or payload,
a trailing byte, a bad magic or version, or sizes no array can hold raise
:class:`~latecut.errors.FormatError`.  Sizes are counted on the bytes
read, so a pipe loads like a file, and a false header fails after one
allocation and one short read.  Three formats live here:

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
    has_labels is 1 (any has_labels but 0 or 1 is rejected).
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import tempfile

import numpy as np

from .errors import ConfigError, FormatError
from .network import ResidualNetwork, aligned_empty, packed_network, square_parameter_count

CHECKPOINT_MAGIC = b"LCUT"
CACHE_MAGIC = b"LCCH"
SAMPLES_MAGIC = b"LCDT"
FORMAT_VERSION = 1  # checkpoint and sample set
CACHE_VERSION = 2
# magic, version, then the u32 size fields listed in the module docstring
_CHECKPOINT_HEADER = struct.Struct("<4sIIIII")
_RECORDS_HEADER = struct.Struct("<4sIIII")  # cache and sample set
_U32_MAX = 2**32 - 1


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never observe a
    truncated file; a missing directory is created first."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
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


def _encode(header, magic, version, fields, arrays) -> bytes:
    """``header`` packed from ``magic``, ``version`` and the size ``fields``,
    then each of ``arrays``' bytes in order; callers give every array an
    explicit little-endian dtype."""
    return b"".join([header.pack(magic, version, *fields), *(a.tobytes() for a in arrays)])


def _decode(path, kind, header, magic, version, allocate):
    """``(fields, arrays)`` of the ``kind`` file at ``path``: its
    ``header``'s size fields, and the arrays ``allocate(*fields)`` made,
    filled with the payload by one in-place read each.  Sizes are counted on
    the bytes read, plus a one-byte probe for a trailing byte, so a pipe
    loads like a file, and a header that claims more than its file holds
    fails before anything is built from the claim."""
    source = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read(header.size)
        if len(data) < header.size:
            raise FormatError(f"{source}: truncated {kind} header")
        found_magic, found_version, *fields = header.unpack(data)
        if found_magic != magic:
            raise FormatError(f"{source}: bad magic {found_magic!r}, expected {magic!r}")
        if found_version != version:
            raise FormatError(f"{source}: unsupported {kind} version {found_version}")
        try:
            arrays = allocate(*fields)
        except (MemoryError, ValueError) as exc:
            raise FormatError(f"{source}: header sizes {fields} cannot be allocated") from exc
        expected = header.size + sum(a.nbytes for a in arrays)
        found = header.size + sum(fh.readinto(a) for a in arrays)
        if found < expected:
            raise FormatError(f"{source}: expected {expected} bytes, found {found}")
        if fh.read(1):
            raise FormatError(f"{source}: expected {expected} bytes, found more")
    if sys.byteorder == "big":
        for array in arrays:
            array.byteswap(inplace=True)
    return fields, arrays


def checkpoint_bytes(network: ResidualNetwork) -> bytes:
    width = network.width
    for block in network.blocks:
        if block.weight1.shape != (width, width):
            raise ConfigError(
                f"block {block.block_id} hidden width {block.weight1.shape[1]} != network "
                f"width {width}; the checkpoint layout only covers square blocks"
            )
    fields = (network.input_dim, width, network.n_blocks, network.num_classes)
    arrays = [np.asarray(p, "<f8") for p in network.parameter_arrays()]
    return _encode(_CHECKPOINT_HEADER, CHECKPOINT_MAGIC, FORMAT_VERSION, fields, arrays)


def save_checkpoint(network: ResidualNetwork, path) -> None:
    atomic_write_bytes(path, checkpoint_bytes(network))


def load_checkpoint(path) -> ResidualNetwork:
    (input_dim, width, n_blocks, num_classes), [buffer] = _decode(
        path, "checkpoint", _CHECKPOINT_HEADER, CHECKPOINT_MAGIC, FORMAT_VERSION,
        lambda *shape: [aligned_empty(square_parameter_count(*shape))])
    shapes = [(input_dim, width), (width,), *[(width, width), (width,)] * 2 * n_blocks,
              (width, num_classes), (num_classes,)]
    return packed_network(shapes, buffer)


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
    records = np.concatenate((inputs, labels), axis=1, dtype="<f8")  # one row per record
    fingerprint = np.array([teacher_fingerprint], "<u8")
    return _encode(_RECORDS_HEADER, CACHE_MAGIC, CACHE_VERSION, (count, input_dim, labels.shape[1]),
                   [records, fingerprint])


def save_cache_file(path, inputs, labels, teacher_fingerprint) -> None:
    atomic_write_bytes(path, cache_bytes(np.asarray(inputs), np.asarray(labels), teacher_fingerprint))


def load_cache_file(path):
    """Returns ``(inputs, labels, teacher_fingerprint)``; ``inputs`` and
    ``labels`` are column views of the one array the records were read into."""
    (count, input_dim, pixels), (records, fingerprint) = _decode(
        path, "cache", _RECORDS_HEADER, CACHE_MAGIC, CACHE_VERSION,
        lambda count, input_dim, pixels: [np.empty((count, input_dim + pixels)),
                                          np.empty(1, np.uint64)])
    return records[:, :input_dim], records[:, input_dim:], int(fingerprint[0])


def save_samples(path, inputs, labels=None) -> None:
    """Labels, if given, must be integers in 0..2**32 - 1 (they are stored
    as u32); anything else raises :class:`FormatError` and writes nothing."""
    inputs = np.ascontiguousarray(inputs, dtype="<f8")
    if inputs.ndim != 2:
        raise FormatError(f"sample inputs must be 2-D, got shape {inputs.shape}")
    count, input_dim = inputs.shape
    arrays = [inputs]
    if labels is not None:
        labels = np.ascontiguousarray(labels)
        if labels.shape != (count,):
            raise FormatError(f"labels must have shape ({count},), got {labels.shape}")
        if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0
                            or labels.max() > _U32_MAX):
            raise FormatError(f"labels must be integers in 0..{_U32_MAX}")
        arrays.append(labels.astype("<u4"))
    atomic_write_bytes(path, _encode(_RECORDS_HEADER, SAMPLES_MAGIC, FORMAT_VERSION,
                                     (count, input_dim, int(labels is not None)), arrays))


def load_samples(path):
    """Returns ``(inputs, labels_or_None)``: C-contiguous float64 inputs and
    int64 labels."""
    def allocate(count, input_dim, has_labels):
        if has_labels not in (0, 1):
            raise FormatError(f"{os.fspath(path)}: has_labels is {has_labels}, not 0 or 1")
        return [np.empty((count, input_dim))] + ([np.empty(count, np.uint32)] if has_labels else [])

    _, (inputs, *labels) = _decode(path, "sample file", _RECORDS_HEADER, SAMPLES_MAGIC,
                                   FORMAT_VERSION, allocate)
    return inputs, labels[0].astype(np.int64) if labels else None
