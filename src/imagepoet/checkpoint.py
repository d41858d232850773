"""Binary checkpoint format (all integers and floats little-endian).

    offset 0: magic, 8 bytes: b"IPOETCK\\0"
    u32   format version (currently 1)
    u32   config length; that many bytes of UTF-8 JSON (sorted keys)
    u32   parameter count
    per parameter, in the model's canonical order:
      u16  name length; that many bytes of UTF-8 path-style name
      u8   rank; rank * u32 extents
      product(extents) * f64 row-major values

Round-trips are bitwise exact: values are stored as raw IEEE-754 doubles.
"""

import io
import json
import struct

import numpy as np

from .errors import (CheckpointShapeError, CheckpointTruncatedError,
                     CheckpointVersionError)
from .model import ModelConfig, init_params

MAGIC = b"IPOETCK\x00"
VERSION = 1


def _read_exact(fh, n):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(
            "checkpoint ended early: wanted %d bytes, got %d" % (n, len(data)))
    return data


def _parts(model):
    """The checkpoint as header bytes and a memoryview of each parameter.

    Parameters are referenced, not copied: writing or joining the parts
    moves each value once.
    """
    config_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    params = model.parameters()
    parts = [MAGIC + struct.pack("<II", VERSION, len(config_blob))
             + config_blob + struct.pack("<I", len(params))]
    for name, tensor in params:
        blob = name.encode()
        shape = tensor.data.shape
        parts.append(struct.pack("<H", len(blob)) + blob
                     + struct.pack("<B%dI" % len(shape), len(shape), *shape))
        parts.append(memoryview(np.ascontiguousarray(tensor.data,
                                                     dtype="<f8")))
    return parts


def write_checkpoint(model, fh):
    """Serialize a model to a binary stream."""
    fh.writelines(_parts(model))


def read_checkpoint(fh):
    """Deserialize a model from a binary stream."""
    if _read_exact(fh, len(MAGIC)) != MAGIC:
        raise CheckpointVersionError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version != VERSION:
        raise CheckpointVersionError("unsupported checkpoint version %d "
                                     "(expected %d)" % (version, VERSION))
    (config_len,) = struct.unpack("<I", _read_exact(fh, 4))
    try:
        config = ModelConfig.from_dict(json.loads(_read_exact(fh, config_len)))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, CheckpointTruncatedError):
            raise
        raise CheckpointVersionError("corrupted checkpoint config: %s" % exc)

    model = init_params(config)
    expected = dict(model.parameters())
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    if count != len(expected):
        raise CheckpointShapeError("checkpoint stores %d parameters, the "
                                   "config implies %d" % (count, len(expected)))
    seen = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
        name = _read_exact(fh, name_len).decode()
        (rank,) = struct.unpack("<B", _read_exact(fh, 1))
        shape = tuple(struct.unpack("<I", _read_exact(fh, 4))[0]
                      for _ in range(rank))
        if name not in expected:
            raise CheckpointShapeError("unknown parameter %r" % name)
        if name in seen:
            raise CheckpointShapeError("duplicate parameter %r" % name)
        target = expected[name]
        if shape != target.data.shape:
            raise CheckpointShapeError("parameter %r has shape %s, expected %s"
                                       % (name, shape, target.data.shape))
        values = np.frombuffer(_read_exact(fh, 8 * target.size), dtype="<f8")
        target.data[...] = values.reshape(shape)
        seen.add(name)
    return model


def save_checkpoint(model, path):
    with open(path, "wb") as fh:
        write_checkpoint(model, fh)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        return read_checkpoint(fh)


def checkpoint_bytes(model):
    """The checkpoint as one bytes object, allocated once at its final size."""
    return b"".join(_parts(model))


def model_from_bytes(data):
    return read_checkpoint(io.BytesIO(data))


__all__ = ["MAGIC", "VERSION", "write_checkpoint", "read_checkpoint",
           "save_checkpoint", "load_checkpoint", "checkpoint_bytes",
           "model_from_bytes"]
