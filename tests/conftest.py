import json
import struct
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
# bench/ holds the whole-model reference the tests score against.
sys.path[:0] = [str(TESTS), str(TESTS.parent / "bench")]

from imagepoet.checkpoint import MAGIC
from imagepoet.model import ModelConfig, init_params
from imagepoet.rng import SeededRng


def toy_config(**overrides):
    base = dict(vocab_size=20, hidden_dim=8, memory_dim=8, topic_weight=0.5,
                visual_count=4, visual_dim=6, lines_per_poem=4,
                chars_per_line=5)
    base.update(overrides)
    return ModelConfig(**base).validate()


def with_config(blob, **fields):
    """Checkpoint bytes whose stored config has fields replaced: a file
    the writer, which validates its config, never makes."""
    at = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", blob, at)
    config = json.loads(blob[at + 4:at + 4 + length])
    config.update(fields)
    patched = json.dumps(config, sort_keys=True).encode()
    return (blob[:at] + struct.pack("<I", len(patched)) + patched
            + blob[at + 4 + length:])


@pytest.fixture
def config():
    return toy_config()


@pytest.fixture
def model(config):
    return init_params(config, SeededRng(42))


@pytest.fixture
def rng():
    return SeededRng(1234)
