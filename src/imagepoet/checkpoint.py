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
A reader accepts only the names and extents, in the order, that the
stored config implies: each stored parameter header must equal the one
the writer makes for that parameter.  It also rejects a non-finite value
and any byte after the last parameter.
"""

import io
import json
import struct
import sys

import numpy as np

from .errors import (CheckpointError, CheckpointShapeError,
                     CheckpointTruncatedError, CheckpointValueError,
                     CheckpointVersionError)
from .model import ModelConfig, init_params

MAGIC = b"IPOETCK\x00"
VERSION = 1


def _truncated(wanted, got):
    return CheckpointTruncatedError(
        "checkpoint ended early: wanted %d bytes, got %d" % (wanted, got))


def _read_exact(fh, n):
    data = fh.read(n)
    if len(data) != n:
        raise _truncated(n, len(data))
    return data


def _read_into(fh, array):
    """Fill a C-contiguous array with the stream's next bytes."""
    view = memoryview(array).cast("B")
    got = fh.readinto(view)
    if got != view.nbytes:
        raise _truncated(view.nbytes, got)


def _param_header(name, shape):
    """A parameter's name and extents as the checkpoint stores them."""
    blob = name.encode()
    return (struct.pack("<H", len(blob)) + blob
            + struct.pack("<B%dI" % len(shape), len(shape), *shape))


def _parts(model):
    """The checkpoint as header bytes and a memoryview of each parameter.

    Parameters are referenced, not copied: writing or joining the parts
    moves each value once.  The config is validated first, so no
    checkpoint is made that the reader would reject.
    """
    model.config.validate()
    config_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    params = model.parameters()
    parts = [MAGIC + struct.pack("<II", VERSION, len(config_blob))
             + config_blob + struct.pack("<I", len(params))]
    for name, tensor in params:
        parts.append(_param_header(name, tensor.data.shape))
        parts.append(memoryview(np.ascontiguousarray(tensor.data,
                                                     dtype="<f8")))
    return parts


def write_checkpoint(model, fh):
    """Serialize a model to a binary stream."""
    fh.writelines(_parts(model))


def read_checkpoint(fh):
    """Deserialize a model from a buffered binary stream.

    fh is a file opened for binary reading, or a BytesIO: a read comes up
    short only at the end of the stream.  A seekable stream too short for
    the values its config declares is rejected before they are allocated;
    a pipe cannot tell its length, so it is rejected at its first short
    read.  Values are read straight into the parameters' buffers.
    """
    if _read_exact(fh, len(MAGIC)) != MAGIC:
        raise CheckpointVersionError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version != VERSION:
        raise CheckpointVersionError("unsupported checkpoint version %d "
                                     "(expected %d)" % (version, VERSION))
    (config_len,) = struct.unpack("<I", _read_exact(fh, 4))
    config_blob = _read_exact(fh, config_len)
    try:
        config = ModelConfig.from_dict(json.loads(config_blob))
    except (ValueError, TypeError) as exc:
        raise CheckpointVersionError("corrupted checkpoint config: %s" % exc)
    if fh.seekable():
        here = fh.tell()
        left = fh.seek(0, io.SEEK_END) - here
        fh.seek(here)
        wanted = 8 * config.param_count()
        if left < wanted:
            raise _truncated(wanted, left)

    model = init_params(config)
    params = model.parameters()
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    if count != len(params):
        raise CheckpointShapeError("checkpoint stores %d parameters, the "
                                   "config implies %d" % (count, len(params)))
    for index, (name, target) in enumerate(params):
        header = _param_header(name, target.data.shape)
        if _read_exact(fh, len(header)) != header:
            raise CheckpointShapeError(
                "parameter %d is not %r of shape %s, which the config "
                "implies" % (index, name, target.data.shape))
        _read_into(fh, target.data)
        if sys.byteorder != "little":
            target.data.byteswap(inplace=True)
        if not np.isfinite(target.data).all():
            raise CheckpointValueError("parameter %r holds a non-finite "
                                       "value" % name)
    if fh.read(1):
        raise CheckpointShapeError("bytes follow the last parameter")
    return model


def save_checkpoint(model, path):
    """Write a checkpoint file; an invalid model leaves path untouched."""
    parts = _parts(model)
    with open(path, "wb") as fh:
        fh.writelines(parts)


def load_checkpoint(path):
    """The model in a checkpoint file; every error names the file."""
    with open(path, "rb") as fh:
        try:
            return read_checkpoint(fh)
        except CheckpointError as exc:
            raise type(exc)("%s: %s" % (path, exc)) from None


def checkpoint_bytes(model):
    """The checkpoint as one bytes object, allocated once at its final size."""
    return b"".join(_parts(model))


def model_from_bytes(data):
    return read_checkpoint(io.BytesIO(data))


__all__ = ["MAGIC", "VERSION", "write_checkpoint", "read_checkpoint",
           "save_checkpoint", "load_checkpoint", "checkpoint_bytes",
           "model_from_bytes"]
