import hashlib
import os

import numpy as np
import pytest

from imagepoet import checkpoint
from imagepoet.checkpoint import (MAGIC, checkpoint_bytes, load_checkpoint,
                                  model_from_bytes, read_checkpoint,
                                  save_checkpoint)
from imagepoet.errors import (CheckpointShapeError, CheckpointTruncatedError,
                              CheckpointValueError, CheckpointVersionError,
                              ConfigError)
from imagepoet.model import ModelConfig, generate_poem, init_params
from imagepoet.rng import SeededRng
from imagepoet.training import TrainSample, evaluate_loss

from conftest import toy_config, with_config


def test_round_trip_is_bitwise_exact(model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (name, a), (_, b) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data), name
        assert a.data.tobytes() == b.data.tobytes(), name


def test_a_loaded_model_that_generates_and_scores_holds_no_gradient(
        model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    config = loaded.config
    grid = np.ones((config.visual_count, config.visual_dim))
    generate_poem(loaded, grid, [(3, 4)])
    evaluate_loss(loaded, [TrainSample(features=grid, keywords=[(3, 4)],
                                       preceding=(2,),
                                       target=(5,) * config.chars_per_line)])
    assert all(p.grad is None for _, p in loaded.parameters())


def test_bytes_round_trip_matches_file_round_trip(model, tmp_path):
    blob = checkpoint_bytes(model)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert blob == path.read_bytes()
    loaded = model_from_bytes(blob)
    for (name, a), (_, b) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data), name


def test_same_seed_means_byte_identical_checkpoints(config):
    a = checkpoint_bytes(init_params(config, SeededRng(33)))
    b = checkpoint_bytes(init_params(config, SeededRng(33)))
    assert a == b


def test_seeded_parameters_are_pinned(config):
    # Pins which parameter draws which numbers: a change to the draw order
    # or to the initializer changes this digest.
    blob = checkpoint_bytes(init_params(config, SeededRng(33)))
    assert hashlib.sha256(blob).hexdigest() == (
        "191da10cd974466f87f8a96e265562e28b742b5ac6b925882e53253a4cc0c3aa")


def test_seeded_parameters_across_sweep_blocks_are_pinned(tmp_path):
    # The largest parameter (1100 x 64 = 70,400 values) spans two whole
    # blocks of seeded draws and part of a third.
    config = ModelConfig(vocab_size=1100, hidden_dim=64, memory_dim=64,
                         visual_count=3, visual_dim=5)
    model = init_params(config, SeededRng(33))
    blob = checkpoint_bytes(model)
    assert hashlib.sha256(blob).hexdigest() == (
        "900a3adda6a0392a3dcdc7f06e92348b950f35ebc857002dc083458785c515aa")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert path.read_bytes() == blob


def test_toy_checkpoint_is_small(model):
    # 3.5k doubles plus names and header: comfortably under a megabyte.
    assert len(checkpoint_bytes(model)) < 1 << 20


def test_bad_magic_is_a_version_error(model):
    blob = bytearray(checkpoint_bytes(model))
    blob[:4] = b"XXXX"
    with pytest.raises(CheckpointVersionError):
        model_from_bytes(bytes(blob))


def test_unsupported_version_rejected(model):
    blob = bytearray(checkpoint_bytes(model))
    blob[len(MAGIC):len(MAGIC) + 4] = (99).to_bytes(4, "little")
    with pytest.raises(CheckpointVersionError):
        model_from_bytes(bytes(blob))


def test_corrupted_config_is_a_version_error(model):
    blob = bytearray(checkpoint_bytes(model))
    config_start = len(MAGIC) + 8
    blob[config_start] = ord("!")
    with pytest.raises(CheckpointVersionError):
        model_from_bytes(bytes(blob))


@pytest.mark.parametrize("field, value", [("hidden_dim", 8.0),
                                          ("lines_per_poem", True),
                                          ("topic_weight", True)])
def test_non_integer_size_is_a_corrupted_config(model, field, value):
    blob = with_config(checkpoint_bytes(model), **{field: value})
    with pytest.raises(CheckpointVersionError, match="corrupted checkpoint "
                       "config: %s must be a" % field):
        model_from_bytes(blob)


@pytest.mark.parametrize("field, value", [("hidden_dim", 8.0),
                                          ("topic_weight", True)])
def test_writer_rejects_an_invalid_config(model, tmp_path, field, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    saved = path.read_bytes()
    setattr(model.config, field, value)
    with pytest.raises(ConfigError, match=field):
        checkpoint_bytes(model)
    with pytest.raises(ConfigError, match=field):
        save_checkpoint(model, path)
    assert path.read_bytes() == saved


def test_a_write_that_fails_partway_keeps_the_old_file(model, tmp_path,
                                                      monkeypatch):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"old checkpoint")
    parts = checkpoint._parts

    def failing(model):
        whole = parts(model)
        return whole[:3] + [None] + whole[3:]  # not bytes-like: raises

    monkeypatch.setattr(checkpoint, "_parts", failing)
    with pytest.raises(TypeError):
        save_checkpoint(model, path)
    assert path.read_bytes() == b"old checkpoint"
    assert os.listdir(tmp_path) == ["model.ckpt"]
    monkeypatch.undo()
    save_checkpoint(model, path)
    assert path.read_bytes() == checkpoint_bytes(model)
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_truncation_detected(model):
    blob = checkpoint_bytes(model)
    for cut in (4, len(MAGIC) + 2, len(blob) // 2, len(blob) - 3):
        with pytest.raises(CheckpointTruncatedError):
            model_from_bytes(blob[:cut])


def test_config_larger_than_the_stream_is_rejected_before_allocation(model):
    # 10^12 embedding rows would be terabytes; the stream holds kilobytes.
    blob = with_config(checkpoint_bytes(model), vocab_size=10**12)
    with pytest.raises(CheckpointTruncatedError, match="ended early"):
        model_from_bytes(blob)


def test_a_pipe_is_read_without_seeking(model):
    blob = checkpoint_bytes(model)
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(blob)  # within the pipe's buffer: a toy model is small
    with os.fdopen(read_end, "rb") as fh:
        assert not fh.seekable()
        assert checkpoint_bytes(read_checkpoint(fh)) == blob


def test_shape_mismatch_detected(model):
    # Re-declare a parameter's extent without changing anything else: the
    # loader must flag the disagreement with the config-derived model.
    blob = checkpoint_bytes(model)
    first_name = model.parameters()[0][0].encode()
    at = blob.index(b"\x00" + first_name) + 1 + len(first_name)
    rank = blob[at]
    extent_start = at + 1
    tampered = bytearray(blob)
    original = int.from_bytes(blob[extent_start:extent_start + 4], "little")
    tampered[extent_start:extent_start + 4] = (original + 1).to_bytes(
        4, "little")
    with pytest.raises((CheckpointShapeError, CheckpointTruncatedError)):
        model_from_bytes(bytes(tampered))
    assert rank >= 1


def test_wrong_parameter_count_detected(model):
    blob = bytearray(checkpoint_bytes(model))
    config_len = int.from_bytes(blob[len(MAGIC) + 4:len(MAGIC) + 8], "little")
    count_at = len(MAGIC) + 8 + config_len
    count = int.from_bytes(blob[count_at:count_at + 4], "little")
    blob[count_at:count_at + 4] = (count - 1).to_bytes(4, "little")
    with pytest.raises(CheckpointShapeError):
        model_from_bytes(bytes(blob))


def test_checkpoint_respects_custom_config(tmp_path):
    config = toy_config(vocab_size=9, hidden_dim=4, memory_dim=4,
                        visual_count=2, visual_dim=3, chars_per_line=3)
    model = init_params(config, SeededRng(5))
    path = tmp_path / "small.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.param_count() == config.param_count()


def test_swapped_parameters_are_rejected(model):
    # encoder.fw.w_z and encoder.fw.u_z have one shape, so a file storing
    # each in the other's place has only well-formed headers.
    blob = checkpoint_bytes(model)
    first, second, end = (
        blob.index(len(name).to_bytes(2, "little") + name.encode())
        for name in ("encoder.fw.w_z", "encoder.fw.u_z", "encoder.fw.b_z"))
    swapped = (blob[:first] + blob[second:end] + blob[first:second]
               + blob[end:])
    assert len(swapped) == len(blob)
    with pytest.raises(CheckpointShapeError,
                       match=r"parameter 1 .*'encoder\.fw\.w_z'"):
        model_from_bytes(swapped)


@pytest.mark.parametrize("name", ["head.generic.w_out", "embedding.weights",
                                  "attention.visual.key_proj"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_values_are_rejected(model, name, value):
    dict(model.parameters())[name].data.flat[3] = value
    blob = checkpoint_bytes(model)
    with pytest.raises(CheckpointValueError, match=name.replace(".", r"\.")):
        model_from_bytes(blob)


@pytest.mark.parametrize("tail", [b"junk", b"\x00", bytes(8)])
def test_trailing_bytes_are_rejected(model, tail):
    with pytest.raises(CheckpointShapeError, match="follow the last"):
        model_from_bytes(checkpoint_bytes(model) + tail)


def test_file_errors_name_the_file(model, tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(checkpoint_bytes(model)[:-5])
    with pytest.raises(CheckpointTruncatedError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert "ended early" in str(info.value)
