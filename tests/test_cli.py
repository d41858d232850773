import io
import json
import os
import struct

import numpy as np
import pytest

from imagepoet import numerics as nm
from imagepoet.cli import main
from imagepoet.datapipe import (keyword_recall, load_concept_lexicon,
                                load_feature_file, image_keywords,
                                load_corpus)
from imagepoet.checkpoint import (MAGIC, checkpoint_bytes, load_checkpoint,
                                  save_checkpoint)
from imagepoet.model import generate_poem, init_params
from imagepoet.rng import SeededRng

from conftest import toy_config, with_config
from corpus_helpers import write_keyword_file, write_toy_corpus


TRAIN_FLAGS = ["--vocab", "16", "--hidden", "4", "--lines", "2",
               "--chars", "3", "--batch", "4", "--epochs", "3",
               "--valid-frac", "0.2"]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


@pytest.fixture
def corpus(tmp_path):
    return write_toy_corpus(tmp_path, seed=5)


def train_once(corpus, tmp_path, name="model.ckpt", seed="3", extra=()):
    ckpt = str(tmp_path / name)
    code, out = run_cli("train", "--corpus", corpus["corpus"],
                        "--lexicon", corpus["lexicon"], "--out", ckpt,
                        "--seed", seed, *TRAIN_FLAGS, *extra)
    assert code == 0, out
    return ckpt


class TestTrain:
    def test_writes_checkpoint_and_log(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        assert os.path.exists(ckpt)
        log_lines = [l for l in open(ckpt + ".log", encoding="utf-8")
                     if l.strip()]
        assert len(log_lines) == 3  # one validation entry per epoch
        for line in log_lines:
            parts = line.split()
            assert parts[0] == "epoch" and parts[2] == "train" \
                and parts[4] == "valid"

    def test_same_seed_byte_identical_checkpoints(self, corpus, tmp_path):
        a = train_once(corpus, tmp_path, name="a.ckpt", seed="11")
        b = train_once(corpus, tmp_path, name="b.ckpt", seed="11")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_lambda_zero_trains_the_unbiased_path(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path, name="nolambda.ckpt",
                          extra=("--lambda", "0.0"))
        assert load_checkpoint(ckpt).config.topic_weight == 0.0

    def test_missing_corpus_is_a_data_error(self, corpus, tmp_path):
        code, _ = run_cli("train", "--corpus", str(tmp_path / "nope.jsonl"),
                          "--lexicon", corpus["lexicon"],
                          "--out", str(tmp_path / "x.ckpt"), *TRAIN_FLAGS)
        assert code == 2

    @pytest.mark.parametrize("record", [
        {"poem_id": "p"},
        {"poem_id": "p", "lines": [["a"]]},
        {"image_id": "i", "concepts": 5},
    ])
    def test_malformed_corpus_record_names_the_line(self, corpus, tmp_path,
                                                    capsys, record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, _ = run_cli("train", "--corpus", str(bad),
                          "--lexicon", corpus["lexicon"],
                          "--out", str(tmp_path / "x.ckpt"), *TRAIN_FLAGS)
        assert code == 2
        assert str(bad) + ":1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--valid-frac", "--clip"])
    def test_nan_setting_is_a_config_error(self, corpus, tmp_path, capsys,
                                           flag):
        code, _ = run_cli("train", "--corpus", corpus["corpus"],
                          "--lexicon", corpus["lexicon"],
                          "--out", str(tmp_path / "x.ckpt"), *TRAIN_FLAGS,
                          flag, "nan")
        assert code == 2
        assert "nan" in capsys.readouterr().err


class TestGenerate:
    def test_emits_one_row_per_line(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,), (3, 4)])
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", corpus["features"],
                            "--keywords", keywords)
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert all(len(row.split()) == 4 for row in rows)  # "line:" + 3 ids

    def test_machine_mode_is_bare_ids(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", corpus["features"],
                            "--keywords", keywords, "--machine")
        assert code == 0
        poem = [[int(c) for c in row.split()] for row in out.strip().splitlines()]
        assert len(poem) == 2 and all(len(line) == 3 for line in poem)
        model = load_checkpoint(ckpt)
        features = load_feature_file(corpus["features"])
        assert poem == generate_poem(model, features, [(2,)])

    def test_lambda_override_changes_the_mixture(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,), (3,)])
        _, biased = run_cli("generate", "--checkpoint", ckpt,
                            "--features", corpus["features"],
                            "--keywords", keywords, "--machine")
        code, unbiased = run_cli("generate", "--checkpoint", ckpt,
                                 "--features", corpus["features"],
                                 "--keywords", keywords, "--machine",
                                 "--lambda", "0.0")
        assert code == 0
        model = load_checkpoint(ckpt)
        model.config.topic_weight = 0.0
        features = load_feature_file(corpus["features"])
        expected = generate_poem(model, features, [(2,), (3,)])
        got = [[int(c) for c in row.split()]
               for row in unbiased.strip().splitlines()]
        assert got == expected

    def test_validate_appends_a_form_report(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        lex = tmp_path / "tones.tsv"
        lex.write_text("".join("%d\tE\t1\n" % c for c in range(16)),
                       encoding="utf-8")
        pattern = tmp_path / "pattern.txt"
        pattern.write_text("***\n***\n", encoding="utf-8")
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", corpus["features"],
                            "--keywords", keywords, "--validate",
                            "--lexicon", str(lex), "--pattern", str(pattern))
        assert code == 0
        assert "structure ok" in out and "tones ok" in out and "rhyme ok" in out

    @pytest.mark.parametrize("tones, rows", [
        ("%d\tE\t1\n", "***\n**X\n"), ("%d\tQ\t1\n", "***\n***\n")])
    def test_validate_rejects_bad_files_before_the_poem(
            self, corpus, tmp_path, tones, rows):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        lex = tmp_path / "tones.tsv"
        lex.write_text("".join(tones % c for c in range(16)),
                       encoding="utf-8")
        pattern = tmp_path / "pattern.txt"
        pattern.write_text(rows, encoding="utf-8")
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", corpus["features"],
                            "--keywords", keywords, "--validate",
                            "--lexicon", str(lex), "--pattern", str(pattern))
        assert code == 2 and out == ""

    def test_validate_without_lexicon_is_usage_error(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        code, _ = run_cli("generate", "--checkpoint", ckpt,
                          "--features", corpus["features"],
                          "--keywords", keywords, "--validate")
        assert code == 1

    def test_missing_feature_file_names_the_path(self, corpus, tmp_path,
                                                 capsys):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        missing = str(tmp_path / "absent.vfgr")
        code, _ = run_cli("generate", "--checkpoint", ckpt,
                          "--features", missing, "--keywords", keywords)
        assert code == 2
        assert "absent.vfgr" in capsys.readouterr().err

    def test_non_finite_features_name_the_path(self, corpus, tmp_path,
                                               capsys):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        from imagepoet.datapipe import write_feature_file
        nan = str(tmp_path / "nan.vfgr")
        write_feature_file(nan, np.full((2, 3), np.nan))
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", nan, "--keywords", keywords)
        assert code == 2 and out == ""
        assert nan in capsys.readouterr().err

    @pytest.mark.parametrize("rows, cols", [(0xFFFFFFFF, 0xFFFFFFFF),
                                            (60000, 60000)])
    def test_oversized_feature_header_names_the_path(self, corpus, tmp_path,
                                                     capsys, rows, cols):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        big = str(tmp_path / "big.vfgr")
        with open(big, "wb") as fh:
            fh.write(b"VFGR" + struct.pack("<III", 1, rows, cols))
            fh.write(bytes(4 * 6))
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", big, "--keywords", keywords)
        assert code == 2 and out == ""
        assert big in capsys.readouterr().err

    @pytest.mark.parametrize("extent", [0xFFFFFFFF, 100000])
    def test_oversized_checkpoint_extents_are_input_errors(self, corpus,
                                                           tmp_path, extent):
        ckpt = str(tmp_path / "model.ckpt")
        save_checkpoint(init_params(toy_config(), SeededRng(2)), ckpt)
        blob = bytearray(open(ckpt, "rb").read())
        config_len = int.from_bytes(blob[len(MAGIC) + 4:len(MAGIC) + 8],
                                    "little")
        name_at = len(MAGIC) + 8 + config_len + 4
        name_len = int.from_bytes(blob[name_at:name_at + 2], "little")
        extents_at = name_at + 2 + name_len + 1
        blob[extents_at:extents_at + 8] = struct.pack("<II", extent, extent)
        with open(ckpt, "wb") as fh:
            fh.write(blob)
        keywords = write_keyword_file(tmp_path, [(2,)])
        code, _ = run_cli("generate", "--checkpoint", ckpt,
                          "--features", corpus["features"],
                          "--keywords", keywords)
        assert code == 2

    def test_non_integer_config_size_is_an_input_error(self, corpus,
                                                       tmp_path, capsys):
        blob = checkpoint_bytes(init_params(toy_config(), SeededRng(2)))
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(with_config(blob, hidden_dim=8.0))
        keywords = write_keyword_file(tmp_path, [(2,)])
        code, out = run_cli("generate", "--checkpoint", str(ckpt),
                            "--features", corpus["features"],
                            "--keywords", keywords)
        assert (code, out) == (2, "")
        assert "hidden_dim must be an integer" in capsys.readouterr().err

    def test_feature_shape_mismatch_is_an_input_error(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        from imagepoet.datapipe import write_feature_file
        bad = str(tmp_path / "bad.vfgr")
        write_feature_file(bad, np.zeros((5, 5)))
        code, _ = run_cli("generate", "--checkpoint", ckpt,
                          "--features", bad, "--keywords", keywords)
        assert code == 2

    def test_feature_shape_mismatch_names_the_path(self, corpus, tmp_path,
                                                   capsys):
        ckpt = train_once(corpus, tmp_path)
        keywords = write_keyword_file(tmp_path, [(2,)])
        from imagepoet.datapipe import write_feature_file
        bad = str(tmp_path / "wide.vfgr")
        write_feature_file(bad, np.zeros((2, 4)))
        code, out = run_cli("generate", "--checkpoint", ckpt,
                            "--features", bad, "--keywords", keywords)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert bad in err and "(2, 4)" in err and "(2, 3)" in err


class TestEval:
    def test_mean_recall_matches_hand_scoring(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        code, out = run_cli("eval", "--checkpoint", ckpt,
                            "--corpus", corpus["corpus"],
                            "--lexicon", corpus["lexicon"])
        assert code == 0
        lines = out.strip().splitlines()
        per_sample = [l for l in lines if l.startswith("recall ")]
        summary = [l for l in lines if l.startswith("mean_recall ")]
        assert len(per_sample) == 2 and len(summary) == 1
        values = [float(l.split()[2]) for l in per_sample]
        assert all(0.0 <= v <= 1.0 for v in values)

        model = load_checkpoint(ckpt)
        lexicon = load_concept_lexicon(corpus["lexicon"])
        images, _ = load_corpus(corpus["corpus"])
        expected = []
        for image in images:
            poem = generate_poem(model, load_feature_file(image.feature_path),
                                 image_keywords(image, lexicon))
            expected.append(keyword_recall(poem, image.concepts, lexicon))
        assert values == pytest.approx(expected, abs=1e-6)
        mean = float(summary[0].split()[1])
        assert mean == pytest.approx(sum(expected) / len(expected), abs=1e-6)

    def test_empty_pool_is_an_error(self, corpus, tmp_path):
        ckpt = train_once(corpus, tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text(json.dumps({"poem_id": "p",
                                     "lines": [[2, 3, 4], [5, 6, 7]]}) + "\n",
                         encoding="utf-8")
        code, _ = run_cli("eval", "--checkpoint", ckpt,
                          "--corpus", str(empty),
                          "--lexicon", corpus["lexicon"])
        assert code == 2

    def test_feature_shape_mismatch_names_the_path(self, corpus, tmp_path,
                                                   capsys):
        ckpt = train_once(corpus, tmp_path)
        from imagepoet.datapipe import write_feature_file
        write_feature_file(str(tmp_path / "feat1.vfgr"), np.zeros((3, 3)))
        code, _ = run_cli("eval", "--checkpoint", ckpt,
                          "--corpus", corpus["corpus"],
                          "--lexicon", corpus["lexicon"])
        assert code == 2
        err = capsys.readouterr().err
        assert "feat1.vfgr" in err and "(3, 3)" in err

    def test_bad_second_grid_fails_before_any_output(self, corpus, tmp_path,
                                                     capsys):
        ckpt = train_once(corpus, tmp_path)
        images, _ = load_corpus(corpus["corpus"])
        from imagepoet.datapipe import write_feature_file
        write_feature_file(images[1].feature_path, np.zeros((3, 3)))
        code, out = run_cli("eval", "--checkpoint", ckpt,
                            "--corpus", corpus["corpus"],
                            "--lexicon", corpus["lexicon"])
        assert code == 2 and out == ""
        assert images[1].feature_path in capsys.readouterr().err


class TestCheck:
    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_non_positive_steps_are_a_config_error(self, steps, capsys):
        code, out = run_cli("check", "--steps", steps)
        assert code == 2 and out == ""
        assert "got %s" % steps in capsys.readouterr().err

    def test_passes_on_a_fresh_model(self):
        code, out = run_cli("check", "--steps", "60")
        assert code == 0
        assert "max relative error" in out
        assert "all checks passed" in out

    def test_nan_gradient_fails(self, monkeypatch):
        gradients = nm.Tape.gradients

        def poisoned(tape, loss, accumulate=False):
            grads = gradients(tape, loss, accumulate)
            for grad in grads.values():
                grad.flat[0] = np.nan
            return grads

        monkeypatch.setattr(nm.Tape, "gradients", poisoned)
        code, out = run_cli("check", "--steps", "20")
        assert code == 3
        assert "max relative error nan" in out and "FAIL" in out

    def test_corrupted_gradient_hook_fails(self):
        code, out = run_cli("check", "--steps", "20", "--inject-grad-error")
        assert code == 3
        assert "FAIL" in out


class TestUsage:
    def test_unknown_flag(self):
        code, _ = run_cli("check", "--no-such-flag")
        assert code == 1

    def test_missing_required_flag(self):
        code, _ = run_cli("train", "--corpus", "x")
        assert code == 1

    def test_unknown_subcommand(self):
        code, _ = run_cli("frobnicate")
        assert code == 1
