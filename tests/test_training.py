import hashlib
import math
import sys
import weakref

import numpy as np
import pytest

from imagepoet import layers
from imagepoet import model as mdl
from imagepoet import numerics as nm
from imagepoet import topic_memory as tmem
from imagepoet import training
from imagepoet.checkpoint import model_from_bytes
from imagepoet.datapipe import split_pool
from imagepoet.errors import (ConfigError, DimensionError, DomainError,
                              NumericalError, VocabularyError)
from imagepoet.layers import gru_step
from imagepoet.model import init_params
from imagepoet.numerics import SWEEP_BLOCK, Tape, Tensor
from imagepoet.rng import SeededRng
from imagepoet.training import (AdaDeltaState, TrainConfig, TrainSample,
                                accumulate_gradients, adadelta_update,
                                clip_gradients, cross_entropy_loss,
                                evaluate_loss, train)
from imagepoet.verify import full_model_grad_check

from conftest import flat_base, toy_config
from oracles import batch_loss_ref


def make_sample(config, rng, keywords=((3, 4), (9,)), preceding_len=5):
    n = config.visual_count * config.visual_dim
    return TrainSample(
        features=rng.uniform_array(n, -1.0, 1.0).reshape(
            config.visual_count, config.visual_dim),
        keywords=list(keywords),
        preceding=tuple(rng.below(config.vocab_size)
                        for _ in range(preceding_len)),
        target=tuple(rng.below(config.vocab_size)
                     for _ in range(config.chars_per_line)))


def make_pool(config, rng, n, **kw):
    return [make_sample(config, rng, **kw) for _ in range(n)]


def nested_pool(config, rng, images, seed):
    """The samples of one poem per image, as build_samples makes them (one
    grid array per image, every line's true preceding lines), shuffled by
    SeededRng(seed)."""
    samples = []
    g = config.chars_per_line
    for i in range(images):
        grid = rng.uniform_array(config.visual_count * config.visual_dim,
                                 -1.0, 1.0).reshape(config.visual_count,
                                                    config.visual_dim)
        keywords = [(2 + i, 3), (4,)][:1 + i % 2]
        lines = [tuple(2 + rng.below(config.vocab_size - 2)
                       for _ in range(g))
                 for _ in range(config.lines_per_poem)]
        samples += [TrainSample(features=grid, keywords=keywords,
                                preceding=sum(lines[:j], ()),
                                target=lines[j])
                    for j in range(config.lines_per_poem)]
    order = list(range(len(samples)))
    SeededRng(seed).shuffle(order)
    return [samples[i] for i in order]


def record_images(monkeypatch):
    """The grids that model.prepare_image is called with from now on."""
    grids = []
    prepare = mdl.prepare_image

    def recording(model, features, keywords):
        grids.append(features)
        return prepare(model, features, keywords)

    monkeypatch.setattr(mdl, "prepare_image", recording)
    return grids


def record_decoder_steps(model, monkeypatch):
    """The state shapes of the scorer's decoder gru_step calls from now
    on."""
    shapes = []
    step = mdl.gru_step

    def recording(cell, h, x):
        if cell is model.decoder:
            shapes.append(h.shape)
        return step(cell, h, x)

    monkeypatch.setattr(mdl, "gru_step", recording)
    return shapes


def record_row_steps(model, monkeypatch):
    """The row counts of model.step_rows calls from now on, and whether
    each decoder gru_step call, from any module of the package, ran
    inside one."""
    rows, inside, decoder = [], [], []
    step_rows, gru = mdl.step_rows, layers.gru_step

    def stepping(model, ctxs, matrix, y_prev):
        rows.append(len(ctxs))
        inside.append(True)
        try:
            return step_rows(model, ctxs, matrix, y_prev)
        finally:
            inside.pop()

    def gru_stepping(cell, h, x):
        if cell is model.decoder:
            decoder.append(bool(inside))
        return gru(cell, h, x)

    monkeypatch.setattr(mdl, "step_rows", stepping)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "imagepoet"
                and getattr(module, "gru_step", None) is gru):
            monkeypatch.setattr(module, "gru_step", gru_stepping)
    return rows, decoder


def per_sample_grads(model, batch):
    """Gradient sums of each sample scored alone on its own tape."""
    want = {p: np.zeros(p.shape) for _, p in model.parameters()}
    for sample in batch:
        with Tape() as tape:
            loss_sum = training._batch_loss_sum(model, [sample])
        for p, g in tape.gradients(loss_sum).items():
            want[p] += g
    return want


class TestCrossEntropy:
    def test_certain_model_has_zero_loss(self, rng):
        # One-character vocabulary: every distribution is [1.0], so the
        # model is certain and the loss is exactly zero.
        config = toy_config(vocab_size=1, topic_weight=0.5)
        model = init_params(config, SeededRng(3))
        sample = TrainSample(features=np.zeros((config.visual_count,
                                                config.visual_dim)),
                             keywords=[(0,)], preceding=(0,),
                             target=(0,) * config.chars_per_line)
        assert cross_entropy_loss(model, [sample]).item() == 0.0

    def test_uniform_model_loss_is_log_vocab(self, config, rng):
        # All-zero parameters give uniform generic probabilities; with no
        # keywords the mixture is the generic distribution itself.
        model = init_params(config)
        sample = make_sample(config, rng, keywords=())
        loss = cross_entropy_loss(model, [sample]).item()
        assert abs(loss - math.log(config.vocab_size)) < 1e-12

    @pytest.mark.parametrize("keywords", [(), ((3, 4), (9,))])
    def test_matches_a_per_step_decode_composition(self, model, rng,
                                                   keywords):
        # The loss and its gradients against the same sample scored one
        # decode_step at a time.
        sample = make_sample(model.config, rng, keywords=keywords)
        params = model.parameters()
        with Tape() as tape:
            image = mdl.prepare_image(model, sample.features,
                                      sample.keywords)
            ctx = mdl.prepare_context(model, image, sample.preceding, {})
            s, y_prev, want = ctx.state, mdl.LINE_START_ID, None
            for target_id in reversed(sample.target):
                step = mdl.decode_step(model, ctx, s, y_prev)
                term = nm.log(nm.take(step.p, target_id))
                want = term if want is None else nm.add(want, term)
                s, y_prev = step.state, target_id
            want = nm.scale(want, -1.0)
        want_grads = tape.gradients(want)
        with Tape() as tape:
            got = training._batch_loss_sum(model, [sample])
        got_grads = tape.gradients(got)
        assert abs(got.item() - want.item()) <= 1e-12 * abs(want.item())
        # Relative to the largest gradient: some parameters' gradients are
        # pure cancellation residue, near 1e-11, differing in their bits.
        assert set(got_grads) == set(want_grads)
        scale = max(np.max(np.abs(g)) for g in want_grads.values())
        for name, p in params:
            if p not in want_grads:
                continue
            assert (np.max(np.abs(got_grads[p] - want_grads[p]))
                    <= 1e-12 * scale), name

    def test_matches_per_sample_oracle(self, model, rng):
        batch = make_pool(model.config, rng, 4)
        loss = cross_entropy_loss(model, batch).item()
        assert abs(loss - batch_loss_ref(model, batch)) < 1e-10

    def test_sample_order_invariance(self, model, rng):
        batch = make_pool(model.config, rng, 5)
        a = cross_entropy_loss(model, batch).item()
        b = cross_entropy_loss(model, list(reversed(batch))).item()
        assert abs(a - b) < 1e-10

    def test_underflowed_target_probability_is_a_numerical_error(self,
                                                                  config):
        model = init_params(config, SeededRng(3))
        model.head_generic.b_out.data[5] = -1e4
        sample = TrainSample(features=np.zeros((config.visual_count,
                                                config.visual_dim)),
                             keywords=[(3,)], preceding=(),
                             target=(5,) * config.chars_per_line)
        with pytest.raises(NumericalError) as info:
            cross_entropy_loss(model, [sample])
        assert "underflowed" in str(info.value)

    @pytest.mark.parametrize("score", [evaluate_loss, cross_entropy_loss,
                                       accumulate_gradients])
    def test_empty_pool_is_a_domain_error(self, model, score):
        with pytest.raises(DomainError, match="empty batch"):
            score(model, [])

    @pytest.mark.parametrize("score", [evaluate_loss, cross_entropy_loss,
                                       accumulate_gradients])
    @pytest.mark.parametrize("length", [3, 6])
    def test_a_target_of_another_length_is_a_domain_error(self, model, rng,
                                                          score, length):
        pool = make_pool(model.config, rng, 3)
        other = pool[1]
        pool[1] = TrainSample(features=other.features,
                              keywords=other.keywords,
                              preceding=other.preceding,
                              target=(7,) * length)
        with pytest.raises(DomainError, match=r"target has %d characters, "
                           r"but a line has chars_per_line = 5" % length):
            score(model, pool)

    def test_target_outside_vocab_rejected(self, model, rng):
        sample = make_sample(model.config, rng)
        bad = TrainSample(features=sample.features, keywords=sample.keywords,
                          preceding=sample.preceding,
                          target=(model.config.vocab_size,) * 5)
        with pytest.raises(VocabularyError):
            cross_entropy_loss(model, [bad])


    @pytest.mark.parametrize("field, value", [
        ("keywords", [(2.7,)]), ("keywords", [(3, True)]),
        ("preceding", (2, 1.0)), ("target", (1.9, True)),
        ("target", (4, 4, 4, 4, np.float64(4.0)))])
    def test_an_id_that_is_not_an_integer_is_a_domain_error(
            self, config, field, value):
        fields = dict(features=np.zeros((config.visual_count,
                                         config.visual_dim)),
                      keywords=[(3,)], preceding=(2,), target=(4,) * 5)
        fields[field] = value
        with pytest.raises(DomainError, match=field):
            TrainSample(**fields)

    def test_numpy_integer_ids_are_accepted(self, config):
        sample = TrainSample(
            features=np.zeros((config.visual_count, config.visual_dim)),
            keywords=[np.array([3, 4])], preceding=np.arange(2, 4),
            target=tuple(np.int32(5) for _ in range(5)))
        assert (sample.keywords, sample.preceding, sample.target) == (
            [(3, 4)], (2, 3), (5,) * 5)
        assert all(type(c) is int for c in sample.target)


class TestSharedScoring:
    def test_shuffled_pool_matches_per_sample_sum_and_reference(self, model,
                                                                rng):
        pool = nested_pool(model.config, rng, 3, seed=4)
        assert [len(s.preceding) for s in pool] != sorted(
            len(s.preceding) for s in pool)
        got = evaluate_loss(model, pool)
        chars = sum(len(s.target) for s in pool)
        alone = sum(cross_entropy_loss(model, [s]).item() * len(s.target)
                    for s in pool) / chars
        assert abs(got - alone) <= 1e-12 * abs(alone)
        want = batch_loss_ref(model, pool)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_one_bank_and_projection_per_image(self, model, rng,
                                               monkeypatch):
        pool = nested_pool(model.config, rng, 3, seed=5)
        banks = []
        encode = tmem.encode_keywords

        def counting_bank(*args):
            banks.append(encode(*args))
            return banks[-1]

        monkeypatch.setattr(tmem, "encode_keywords", counting_bank)
        grids = record_images(monkeypatch)
        evaluate_loss(model, pool)
        assert (len(banks), len(grids)) == (3, 3)

    def test_a_copied_grid_is_another_image_of_equal_loss(self, model, rng,
                                                          monkeypatch):
        pool = nested_pool(model.config, rng, 3, seed=9)
        shared = evaluate_loss(model, pool)
        pool[0] = TrainSample(features=pool[0].features.copy(),
                              keywords=pool[0].keywords,
                              preceding=pool[0].preceding,
                              target=pool[0].target)
        grids = record_images(monkeypatch)
        copied = evaluate_loss(model, pool)
        assert len(grids) == 4
        assert abs(copied - shared) <= 1e-12 * abs(shared)
        want = batch_loss_ref(model, pool)
        assert abs(copied - want) <= 1e-12 * abs(want)

    def test_a_split_pool_prepares_each_grid_array_once(self, model, rng,
                                                        monkeypatch):
        pool = nested_pool(model.config, rng, 4, seed=11)
        grids = record_images(monkeypatch)
        evaluate_loss(model, pool)
        arrays = {id(s.features) for s in pool}
        assert len(arrays) == 4
        assert sorted(map(id, grids)) == sorted(arrays)

    def test_a_batch_is_scored_image_by_image(self, model, rng, monkeypatch):
        # [A0, B0, C0, D0, A5]: image A's second line comes after three
        # other images, yet joins A's first in the batch's one wave, which
        # prepares A's grid once.
        g = model.config.chars_per_line
        images = {}
        for s in nested_pool(model.config, rng, 4, seed=12):
            images.setdefault(id(s.features), {})[len(s.preceding)] = s
        a, b, c, d = images.values()
        batch = [a[0], b[0], c[0], d[0], a[g]]
        alone = sum(cross_entropy_loss(model, [s]).item()
                    for s in batch) / len(batch)
        grids = record_images(monkeypatch)
        model.zero_grads()
        loss = accumulate_gradients(model, batch)
        assert list(map(id, grids)) == [id(s.features) for s in batch[:4]]
        assert abs(loss - alone) <= 1e-12 * abs(alone)

    def test_equal_grids_with_other_keywords_are_not_shared(self, model,
                                                            rng):
        sample = make_sample(model.config, rng)
        other = TrainSample(features=sample.features, keywords=[(5,)],
                            preceding=sample.preceding, target=sample.target)
        alone = [cross_entropy_loss(model, [s]).item() for s in (sample,
                                                                  other)]
        both = cross_entropy_loss(model, [sample, other]).item()
        assert abs(both - sum(alone) / 2) <= 1e-12 * abs(both)

    def test_chunked_gradients_match_per_sample_tapes(self, rng,
                                                      monkeypatch):
        # Two images of three nested contexts each: six samples, so waves
        # of four split them, and the second image straddles both tapes.
        monkeypatch.setattr(training, "WAVE_SAMPLES", 4)
        config = toy_config(lines_per_poem=3)
        model = init_params(config, SeededRng(8))
        batch = nested_pool(config, rng, 2, seed=6)
        assert len(batch) > training.WAVE_SAMPLES
        want = per_sample_grads(model, batch)
        inv = 1.0 / sum(len(s.target) for s in batch)
        model.zero_grads()
        accumulate_gradients(model, batch)
        scale = max(np.max(np.abs(g)) for g in want.values()) * inv
        for name, p in model.parameters():
            assert (np.max(np.abs(want[p] * inv - p.grad))
                    <= 1e-12 * scale), name

    def test_finite_differences_pass_on_a_shared_batch(self, rng):
        config = toy_config(vocab_size=6, hidden_dim=2, memory_dim=2,
                            visual_count=2, visual_dim=2, lines_per_poem=3,
                            chars_per_line=2)
        model = init_params(config, SeededRng(12))
        batch = nested_pool(config, rng, 2, seed=7)
        grad = full_model_grad_check(model, batch, h=1e-5)
        assert grad.max_error < 1e-5, grad.worst_param


class TestBatchedRecurrence:
    def test_mixed_lengths_match_per_sample_scoring_and_reference(
            self, model, rng, monkeypatch):
        pool = nested_pool(model.config, rng, 3, seed=4)
        assert len({len(s.preceding) for s in pool}) == 4
        alone = sum(cross_entropy_loss(model, [s]).item()
                    for s in pool) / len(pool)
        steps = record_decoder_steps(model, monkeypatch)
        got = evaluate_loss(model, pool)
        # One recurrence of all twelve samples, whatever their contexts.
        assert steps == ([(12, model.config.hidden_dim)]
                         * model.config.chars_per_line)
        assert abs(got - alone) <= 1e-12 * abs(alone)
        want = batch_loss_ref(model, pool)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_twelve_samples_step_the_decoder_once_per_step(self, model, rng,
                                                           monkeypatch):
        pool = nested_pool(model.config, rng, 3, seed=5)
        assert len(pool) == 12
        steps = record_decoder_steps(model, monkeypatch)
        evaluate_loss(model, pool)
        assert steps == [(12, model.config.hidden_dim)] * len(pool[0].target)

    def test_a_wave_steps_each_encoder_depth_and_the_generic_head_once(
            self, rng, monkeypatch):
        # The pool shape of three poems: contexts of 0, 7, 14 and 21
        # characters from each of three images, one wave.  Encoded one by
        # one, the forward encoder would step 3 * 22 prefixes and the
        # backward one 3 * 43 suffixes, and the generic head run twelve
        # times.
        config = toy_config(chars_per_line=7)
        model = init_params(config, SeededRng(8))
        pool = nested_pool(config, rng, 3, seed=5)
        assert sorted(len(s.preceding) for s in pool) == [0, 0, 0, 7, 7, 7,
                                                          14, 14, 14,
                                                          21, 21, 21]
        cells = []
        heads = []
        gru = gru_step
        logits = layers.OutputHead.logits

        def stepping(cell, h, x):
            cells.append(cell)
            return gru(cell, h, x)

        def scoring(head, hidden, rows=None):
            if head is model.head_generic:
                heads.append(hidden.shape)
            return logits(head, hidden, rows)

        monkeypatch.setattr("imagepoet.layers.gru_step", stepping)
        monkeypatch.setattr(layers.OutputHead, "logits", scoring)
        got = evaluate_loss(model, pool)
        assert cells.count(model.encoder_fw) == 21
        assert cells.count(model.encoder_bw) == 21
        assert heads == [(12 * 7, config.hidden_dim)]
        want = batch_loss_ref(model, pool)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_the_topic_head_reads_each_row_as_a_one_row_block(
            self, model, rng, monkeypatch):
        # Each sample's topic hidden rows are split by one nm.blocks
        # record into (1, h) blocks, one topic-head logits call each, and
        # nm.take reads parameters only.
        pool = nested_pool(model.config, rng, 3, seed=5)
        params = {id(p) for _, p in model.parameters()}
        taken, split, hidden, heads = [], [], [], []
        take, blocks = nm.take, nm.blocks
        output_probs = mdl.output_probs
        logits = layers.OutputHead.logits

        def taking(t, index):
            taken.append(id(t) in params)
            return take(t, index)

        def splitting(m, sizes):
            split.append((m, list(sizes)))
            return blocks(m, sizes)

        def probs(model, ctx, topic_hidden, p_generic):
            hidden.append(topic_hidden)
            return output_probs(model, ctx, topic_hidden, p_generic)

        def scoring(head, rows_in, rows=None):
            if head is model.head_topic:
                heads.append(rows_in.shape)
            return logits(head, rows_in, rows)

        monkeypatch.setattr(nm, "take", taking)
        monkeypatch.setattr(nm, "blocks", splitting)
        monkeypatch.setattr(mdl, "output_probs", probs)
        monkeypatch.setattr(layers.OutputHead, "logits", scoring)
        evaluate_loss(model, pool)
        g, h = model.config.chars_per_line, model.config.hidden_dim
        assert taken and all(taken)
        assert len(hidden) == len(pool)
        assert [sizes for m, sizes in split
                if any(m is t for t in hidden)] == [[1] * g] * len(pool)
        assert heads == [(1, h)] * (len(pool) * g)

    def test_a_larger_pool_is_scored_in_waves_of_whole_images(
            self, model, rng, monkeypatch):
        # Five images of four samples: four images fill the first wave.
        pool = nested_pool(model.config, rng, 5, seed=6)
        assert len(pool) > training.WAVE_SAMPLES
        steps = record_decoder_steps(model, monkeypatch)
        waves = evaluate_loss(model, pool)
        g, h = model.config.chars_per_line, model.config.hidden_dim
        assert steps == [(16, h)] * g + [(4, h)] * g
        # An image larger than a wave spans two: the 20 samples image by
        # image, in runs of at most three.
        steps.clear()
        monkeypatch.setattr(training, "WAVE_SAMPLES", 3)
        alone = evaluate_loss(model, pool)
        assert steps == [(3, h)] * g * 6 + [(2, h)] * g
        assert abs(alone - waves) <= 1e-12 * abs(waves)
        want = batch_loss_ref(model, pool)
        assert abs(waves - want) <= 1e-12 * abs(want)

    def test_a_mixed_chunk_has_the_per_sample_gradients(self, rng):
        # Two images of two lines, two context lengths: one wave, one
        # tape.
        config = toy_config(lines_per_poem=2)
        model = init_params(config, SeededRng(8))
        batch = nested_pool(config, rng, 2, seed=6)
        assert len(batch) <= training.WAVE_SAMPLES
        want = per_sample_grads(model, batch)
        inv = 1.0 / (len(batch) * config.chars_per_line)
        model.zero_grads()
        loss = accumulate_gradients(model, batch)
        alone = sum(cross_entropy_loss(model, [s]).item()
                    for s in batch) / len(batch)
        assert abs(loss - alone) <= 1e-12 * abs(alone)
        scale = max(np.max(np.abs(g)) for g in want.values()) * inv
        for name, p in model.parameters():
            assert (np.max(np.abs(want[p] * inv - p.grad))
                    <= 1e-12 * scale), name

    def test_finite_differences_pass_on_a_mixed_two_image_batch(self, rng):
        config = toy_config(vocab_size=6, hidden_dim=2, memory_dim=2,
                            visual_count=2, visual_dim=2, lines_per_poem=3,
                            chars_per_line=3)
        model = init_params(config, SeededRng(13))
        batch = nested_pool(config, rng, 2, seed=8)
        grad = full_model_grad_check(model, batch, h=1e-5)
        assert grad.max_error < 1e-5, grad.worst_param


class TestSharedWeights:
    """A weight that every row of a wave multiplies is read once per wave,
    or once per step of its recurrence, as a GEMM over the rows."""

    def test_a_wave_reads_each_shared_weight_once(self, rng, monkeypatch):
        config = toy_config(chars_per_line=7)
        model = init_params(config, SeededRng(42))
        pool = nested_pool(config, rng, 3, seed=5)
        assert len(pool) == 12
        names = {id(p): name for name, p in model.parameters()}
        reads = []
        linear, matmul = nm.linear, nm.matmul

        def reading_linear(x, w, b=None):
            reads.append((names.get(id(w)), x.shape))
            return linear(x, w, b)

        def reading_matmul(a, b):
            reads.append((names.get(id(b)), a.shape))
            return matmul(a, b)

        monkeypatch.setattr(nm, "linear", reading_linear)
        monkeypatch.setattr(nm, "matmul", reading_matmul)
        evaluate_loss(model, pool)

        def rows(name):
            return [shape[0] if len(shape) == 2 else 1
                    for read, shape in reads if read == name]

        g = config.chars_per_line
        assert rows("head.topic.w_hidden") == [12 * g]
        assert rows("head.generic.w_hidden") == [12 * g]
        assert rows("attention.text.query_proj") == [12] * g
        assert rows("attention.visual.query_proj") == [12] * g
        assert rows("init_state.w") == [12]
        assert len(rows("attention.text.key_proj")) == 1

    # Written against per-row products of these weights: reading them
    # once per wave keeps every loss to the bit.  A change that moves
    # them says so.
    @pytest.mark.parametrize("images, want", [
        (3, "6.110046981078186"),
        (1, "6.101646171129236"),
    ])
    def test_wave_losses_are_pinned(self, images, want):
        config = toy_config(vocab_size=300, hidden_dim=32, memory_dim=32,
                            visual_count=10, visual_dim=24,
                            chars_per_line=7)
        model = init_params(config, SeededRng(71))
        pool = nested_pool(config, SeededRng(72), images, seed=73)
        assert len(pool) == 4 * images
        assert repr(evaluate_loss(model, pool)) == want


class TestOneDecoderStep:
    def test_a_generated_line_steps_one_row_per_character(self, model, rng,
                                                          monkeypatch):
        g = model.config.chars_per_line
        sample = nested_pool(model.config, rng, 1, seed=3)[0]
        image = mdl.prepare_image(model, sample.features, sample.keywords)
        ctx = mdl.prepare_context(model, image, sample.preceding, {})
        rows, decoder = record_row_steps(model, monkeypatch)
        mdl.generate_line(model, ctx)
        assert rows == [1] * g
        assert decoder == [True] * g
        rows.clear()
        decoder.clear()
        mdl.generate_poem(model, sample.features, sample.keywords)
        assert rows == [1] * g * model.config.lines_per_poem
        assert decoder == [True] * len(rows)

    def test_scoring_twelve_samples_steps_twelve_rows_per_character(
            self, model, rng, monkeypatch):
        g = model.config.chars_per_line
        pool = nested_pool(model.config, rng, 3, seed=5)
        assert len(pool) == 12
        rows, decoder = record_row_steps(model, monkeypatch)
        evaluate_loss(model, pool)
        assert rows == [12] * g
        assert decoder == [True] * g
        rows.clear()
        decoder.clear()
        accumulate_gradients(model, pool)
        assert rows == [12] * g
        assert decoder == [True] * len(rows)

    def test_each_row_of_a_step_is_that_row_stepped_alone(self, model, rng):
        pool = nested_pool(model.config, rng, 3, seed=7)
        images = {}
        lines = [(images.setdefault(id(s.features), mdl.prepare_image(
            model, s.features, s.keywords)), s.preceding) for s in pool]
        ctxs = mdl.prepare_contexts(model, lines, {})
        queries = [ctx.state for ctx in ctxs]
        # Rows that read one id, and rows that read others.
        y_prev = [s.target[-1] if i % 3 else 4 for i, s in enumerate(pool)]
        together = mdl.step_rows(model, ctxs, nm.stack(queries), y_prev)
        assert together[0].shape == (12, model.config.hidden_dim)
        for b, (ctx, s, y) in enumerate(zip(ctxs, queries, y_prev)):
            matrix, (state,), text, visual = mdl.step_rows(
                model, [ctx], nm.stack([s]), [y])
            assert matrix.shape == (1, model.config.hidden_dim)
            pairs = [(together[0].data[b], matrix.data[0]),
                     (together[1][b].data, state.data)]
            pairs += [(got.data, want.data) for got, want in zip(
                together[2][b] + together[3][b], text[0] + visual[0])]
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_a_vector_state_is_a_dimension_error(self, model):
        x = Tensor(np.zeros(model.decoder.input_dim))
        with pytest.raises(DimensionError, match="gru_step: state"):
            gru_step(model.decoder, model.decoder.zero_state(), x)


class TestAdaDelta:
    def test_zero_gradient_is_a_no_op(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        params = [("x", x)]
        state = AdaDeltaState(params)
        before = x.data.copy()
        adadelta_update(state, params)
        assert np.array_equal(x.data, before)

    def test_fresh_state_scalar_step(self):
        rho, eps, g = 0.95, 1e-6, 0.3
        x = Tensor(np.array([2.0]), requires_grad=True)
        params = [("x", x)]
        state = AdaDeltaState(params, rho=rho, eps=eps)
        x.grad = np.array([g])
        adadelta_update(state, params)
        expected_delta = -math.sqrt(eps) / math.sqrt((1 - rho) * g * g + eps) * g
        assert abs(float(x.data[0]) - (2.0 + expected_delta)) < 1e-15
        assert abs(float(state.sq_grad["x"][0]) - (1 - rho) * g * g) < 1e-18
        assert abs(float(state.sq_delta["x"][0])
                   - (1 - rho) * expected_delta ** 2) < 1e-18

    def test_converges_on_quadratic(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        params = [("x", x)]
        state = AdaDeltaState(params, rho=0.95, eps=1e-6)
        window_ends = []
        for step in range(200):
            x.grad = 2.0 * x.data
            adadelta_update(state, params)
            if step % 20 == 19:
                window_ends.append(abs(float(x.data[0])))
        assert all(b < a for a, b in zip(window_ends, window_ends[1:]))

    def test_nonzero_gradient_changes_parameters(self, model, rng):
        batch = [make_sample(model.config, rng)]
        model.zero_grads()
        accumulate_gradients(model, batch)
        params = model.parameters()
        state = AdaDeltaState(params)
        before = {name: p.data.copy() for name, p in params}
        adadelta_update(state, params)
        changed = any(not np.array_equal(before[name], p.data)
                      for name, p in params)
        assert changed

    def test_nan_gradient_aborts(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        params = [("x", x)]
        state = AdaDeltaState(params)
        x.grad = np.array([float("nan")])
        with pytest.raises(NumericalError) as info:
            adadelta_update(state, params)
        assert "x" in str(info.value)

    def test_blocked_steps_equal_the_whole_array_formula(self):
        rho, eps = 0.95, 1e-6
        rng = SeededRng(8)
        n = SWEEP_BLOCK + 3  # one whole block and a 3-element remainder
        x = Tensor(rng.uniform_array(n, -1.0, 1.0), requires_grad=True)
        params = [("x", x)]
        state = AdaDeltaState(params, rho=rho, eps=eps)
        want = x.data.copy()
        sq_g = np.zeros(n)
        sq_d = np.zeros(n)
        for _ in range(2):
            g = rng.uniform_array(n, -2.0, 2.0)
            x.grad = g.copy()
            adadelta_update(state, params)
            sq_g = rho * sq_g + (1.0 - rho) * g * g
            delta = -np.sqrt(sq_d + eps) / np.sqrt(sq_g + eps) * g
            sq_d = rho * sq_d + (1.0 - rho) * delta * delta
            want = want + delta
        assert state.sq_grad["x"].tobytes() == sq_g.tobytes()
        assert state.sq_delta["x"].tobytes() == sq_d.tobytes()
        assert x.data.tobytes() == want.tobytes()

    def test_a_zero_gradient_block_equals_the_whole_array_formula(self):
        # Three blocks whose middle one gets a zero gradient, as embedding
        # rows no sample read do; that block only decays both averages.
        rho, eps = 0.95, 1e-6
        rng = SeededRng(9)
        n = 3 * SWEEP_BLOCK
        x = Tensor(rng.uniform_array(n, -1.0, 1.0), requires_grad=True)
        params = [("x", x)]
        state = AdaDeltaState(params, rho=rho, eps=eps)
        want = x.data.copy()
        sq_g = np.zeros(n)
        sq_d = np.zeros(n)
        for _ in range(2):
            g = rng.uniform_array(n, -2.0, 2.0)
            g[SWEEP_BLOCK:2 * SWEEP_BLOCK] = 0.0
            x.grad = g.copy()
            adadelta_update(state, params)
            sq_g = rho * sq_g + (1.0 - rho) * g * g
            delta = -np.sqrt(sq_d + eps) / np.sqrt(sq_g + eps) * g
            sq_d = rho * sq_d + (1.0 - rho) * delta * delta
            want = want + delta
        assert state.sq_grad["x"].tobytes() == sq_g.tobytes()
        assert state.sq_delta["x"].tobytes() == sq_d.tobytes()
        assert x.data.tobytes() == want.tobytes()
        x.grad = np.zeros(n)
        x.grad[2 * SWEEP_BLOCK + 5] = float("nan")
        with pytest.raises(NumericalError, match="'x'"):
            adadelta_update(state, params)

    def test_non_finite_gradient_in_a_later_block_names_the_parameter(self):
        x = Tensor(np.zeros(SWEEP_BLOCK + 3), requires_grad=True)
        params = [("late", x)]
        state = AdaDeltaState(params)
        x.grad = np.zeros(x.shape)
        x.grad[SWEEP_BLOCK + 1] = float("inf")
        with pytest.raises(NumericalError, match="'late'"):
            adadelta_update(state, params)

    def test_a_split_step_equals_the_whole_array_formula(self,
                                                         monkeypatch):
        # Six blocks: "a" (blocks 0, 1) lands on both threads, "b" is a
        # 3-value block 2, "c" blocks 3 to 5; blocks 1 and 4 hold zero
        # gradients, one on each thread.
        rho, eps = 0.95, 1e-6
        rng = SeededRng(10)
        sizes = {"a": SWEEP_BLOCK + 5, "b": 3, "c": 2 * SWEEP_BLOCK + 7}
        zero = {"a": slice(SWEEP_BLOCK, None),
                "c": slice(SWEEP_BLOCK, 2 * SWEEP_BLOCK)}
        params = [(name, Tensor(rng.uniform_array(n, -1.0, 1.0),
                                requires_grad=True))
                  for name, n in sizes.items()]
        # Drawn before threads are counted: a draw of over two blocks
        # splits too.
        steps = [{name: rng.uniform_array(p.size, -2.0, 2.0)
                  for name, p in params} for _ in range(2)]
        threads = []

        class Recording(nm.threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(nm.threading, "Thread", Recording)
        state = AdaDeltaState(params, rho=rho, eps=eps)
        want = {name: (p.data.copy(), np.zeros(p.size), np.zeros(p.size))
                for name, p in params}
        for grads in steps:
            for name, p in params:
                g = grads[name]
                g[zero.get(name, slice(0))] = 0.0
                p.grad = g.copy()
                x, sq_g, sq_d = want[name]
                sq_g = rho * sq_g + (1.0 - rho) * g * g
                delta = -np.sqrt(sq_d + eps) / np.sqrt(sq_g + eps) * g
                sq_d = rho * sq_d + (1.0 - rho) * delta * delta
                want[name] = (x + delta, sq_g, sq_d)
            adadelta_update(state, params)
        assert len(threads) == 3  # the state's zero fill and two steps
        assert not any(t.is_alive() for t in threads)
        for name, p in params:
            x, sq_g, sq_d = want[name]
            assert state.sq_grad[name].tobytes() == sq_g.tobytes()
            assert state.sq_delta[name].tobytes() == sq_d.tobytes()
            assert p.data.tobytes() == x.tobytes()

    def test_a_split_step_names_the_earliest_non_finite_parameter(self):
        # "early" holds blocks 0 and 1, "late" blocks 2 and 3.  The worker
        # meets the inf in block 1, the caller the NaN in block 2.
        early = Tensor(np.zeros(2 * SWEEP_BLOCK), requires_grad=True)
        late = Tensor(np.zeros(SWEEP_BLOCK + 1), requires_grad=True)
        params = [("early", early), ("late", late)]
        state = AdaDeltaState(params)
        early.grad = np.zeros(early.shape)
        late.grad = np.zeros(late.shape)
        early.grad[SWEEP_BLOCK + 7] = float("inf")
        late.grad[3] = float("nan")
        with pytest.raises(NumericalError, match="'early'"):
            adadelta_update(state, params)

    def test_a_step_of_at_most_two_blocks_starts_no_thread(self, model, rng,
                                                           monkeypatch):
        x = Tensor(np.ones(2 * SWEEP_BLOCK), requires_grad=True)
        x.grad = np.full(x.shape, 0.5)
        x_state = AdaDeltaState([("x", x)])  # fills four blocks: split

        class Refused(nm.threading.Thread):
            def start(self):
                raise AssertionError("a toy step started a thread")

        monkeypatch.setattr(nm.threading, "Thread", Refused)
        adadelta_update(x_state, [("x", x)])
        assert not np.array_equal(x.data, np.ones(x.shape))
        model.zero_grads()
        accumulate_gradients(model, [make_sample(model.config, rng)])
        params = model.parameters()
        adadelta_update(AdaDeltaState(params), params)

    def test_averages_are_views_of_two_arrays_in_the_parameter_layout(
            self, model):
        params = model.parameters()
        state = AdaDeltaState(params)
        bases = [flat_base([averages[name] for name, _ in params])
                 for averages in (state.sq_grad, state.sq_delta)]
        model_base = flat_base([p.data for _, p in params])
        for averages, base in zip((state.sq_grad, state.sq_delta), bases):
            assert base.size == model.config.param_count()
            assert not base.any()
            assert not np.shares_memory(base, model_base)
            for name, p in params:
                assert averages[name].shape == p.shape
        assert not np.shares_memory(*bases)

    def test_a_parameter_the_batch_never_read_gets_no_gradient_buffer(
            self, rng):
        # At lambda = 0 the topic head is never read: its step only decays
        # both averages, as a zero gradient would, and allocates nothing.
        config = toy_config(topic_weight=0.0)
        model = init_params(config, SeededRng(42))
        params = model.parameters()
        state = AdaDeltaState(params)
        for name, _ in params:
            sq_g = state.sq_grad[name]
            sq_g[...] = rng.uniform_array(sq_g.size, 0.0, 1.0).reshape(
                sq_g.shape)
            state.sq_delta[name][...] = sq_g / 3.0
        topic = [(name, p) for name, p in params
                 if name.startswith("head.topic.")]
        before = {name: (p.data.copy(), state.sq_grad[name].copy(),
                         state.sq_delta[name].copy())
                  for name, p in topic}
        model.zero_grads()
        accumulate_gradients(model, make_pool(config, rng, 2))
        clip_gradients(params, 1e-3)
        adadelta_update(state, params)
        for name, p in topic:
            x, sq_g, sq_d = before[name]
            assert p.grad is None
            assert p.data.tobytes() == x.tobytes()
            assert state.sq_grad[name].tobytes() == (state.rho
                                                     * sq_g).tobytes()
            assert state.sq_delta[name].tobytes() == (state.rho
                                                      * sq_d).tobytes()


class TestGradientAccumulation:
    def test_matches_per_sample_reduction(self, model, rng):
        # The oracle sums per-sample tapes' gradients, then scales by
        # 1/chars, independently of the batch tape.
        batch = make_pool(model.config, rng, 3)
        want = {name: np.zeros(p.shape) for name, p in model.parameters()}
        chars = 0
        for sample in batch:
            with Tape() as tape:
                loss_sum = training._batch_loss_sum(model, [sample])
            grads = tape.gradients(loss_sum)
            chars += len(sample.target)
            for name, p in model.parameters():
                if p in grads:
                    want[name] += grads[p]
        model.zero_grads()
        accumulate_gradients(model, batch)
        inv = 1.0 / chars
        for name, p in model.parameters():
            assert np.max(np.abs(want[name] * inv - p.grad)) < 1e-12, name

    def test_a_pool_of_one_wave_is_one_tape(self, model, rng, monkeypatch):
        # Three images of four samples: twelve rows, one wave, one
        # backward pass.
        pool = nested_pool(model.config, rng, 3, seed=5)
        assert len(pool) == 12
        passes = []
        gradients = Tape.gradients

        def counting(tape, loss, **kwargs):
            passes.append(loss)
            return gradients(tape, loss, **kwargs)

        monkeypatch.setattr(Tape, "gradients", counting)
        rows, _ = record_row_steps(model, monkeypatch)
        model.zero_grads()
        accumulate_gradients(model, pool)
        assert len(passes) == 1
        assert rows == [12] * model.config.chars_per_line

    def test_an_image_larger_than_a_wave_straddles_two_tapes(
            self, model, rng, monkeypatch):
        # Two images of four samples in waves of three: A A A | A B B | B B.
        monkeypatch.setattr(training, "WAVE_SAMPLES", 3)
        g = model.config.chars_per_line
        batch = nested_pool(model.config, rng, 2, seed=9)
        a, b = dict.fromkeys(id(s.features) for s in batch)
        want = per_sample_grads(model, batch)
        alone = sum(cross_entropy_loss(model, [s]).item()
                    for s in batch) / len(batch)
        rows, _ = record_row_steps(model, monkeypatch)
        grids = record_images(monkeypatch)
        tapes = []
        gradients = Tape.gradients

        def splitting(tape, loss, **kwargs):
            tapes.append((rows[:], list(map(id, grids))))
            rows.clear()
            grids.clear()
            return gradients(tape, loss, **kwargs)

        monkeypatch.setattr(Tape, "gradients", splitting)
        model.zero_grads()
        loss = accumulate_gradients(model, batch)
        assert tapes == [([3] * g, [a]), ([3] * g, [a, b]), ([2] * g, [b])]
        assert abs(loss - alone) <= 1e-12 * abs(alone)
        inv = 1.0 / (len(batch) * g)
        scale = max(np.max(np.abs(w)) for w in want.values()) * inv
        for name, p in model.parameters():
            assert (np.max(np.abs(want[p] * inv - p.grad))
                    <= 1e-12 * scale), name

    def test_grad_is_the_array_the_batch_tape_returned(self, model, rng,
                                                         monkeypatch):
        returned = []
        gradients = Tape.gradients

        def recording(tape, loss, **kwargs):
            returned.append(gradients(tape, loss, **kwargs))
            return returned[-1]

        monkeypatch.setattr(Tape, "gradients", recording)
        model.zero_grads()
        accumulate_gradients(model, make_pool(model.config, rng, 3))
        assert len(returned) == 1
        grads = returned[0]
        params = model.parameters()
        assert set(grads) == {p for _, p in params}
        for name, p in params:
            assert p.grad is grads[p], name

    def test_chunked_batch_matches_per_sample_reduction(self, model, rng,
                                                        monkeypatch):
        # Five samples in waves of two: three tapes of 2, 2 and 1 samples,
        # each pass adding into the arrays the first one returned.
        monkeypatch.setattr(training, "WAVE_SAMPLES", 2)
        batch = make_pool(model.config, rng, 5)
        want = {name: np.zeros(p.shape) for name, p in model.parameters()}
        chars = 0
        for sample in batch:
            with Tape() as tape:
                loss_sum = training._batch_loss_sum(model, [sample])
            grads = tape.gradients(loss_sum)
            chars += len(sample.target)
            for name, p in model.parameters():
                if p in grads:
                    want[name] += grads[p]
        returned = []
        taped = []
        gradients = Tape.gradients

        def recording(tape, loss, **kwargs):
            taped.append(len(tape._records))
            returned.append(gradients(tape, loss, **kwargs))
            return returned[-1]

        monkeypatch.setattr(Tape, "gradients", recording)
        model.zero_grads()
        loss = accumulate_gradients(model, batch)
        assert len(returned) == 3
        with Tape() as tape:
            training.cross_entropy_loss(model, batch[:2])
        assert max(taped) == len(tape._records)
        assert abs(loss - cross_entropy_loss(model, batch).item()) < 1e-12
        inv = 1.0 / chars
        for name, p in model.parameters():
            assert all(grads[p] is p.grad for grads in returned), name
            assert np.max(np.abs(want[name] * inv - p.grad)) < 1e-12, name

    def test_rows_reading_one_id_keep_pinned_gradient_bits(self):
        # Two images of four nested samples (0, 5, 10 and 15 preceding
        # characters), interleaved, on one tape.  Every reversed target
        # begins with the same two ids, so at each of the first three
        # steps all rows read one embedding row.  Pinned with
        # each step's embedding lookups made row by row, in row order, and
        # each shared weight (attention queries, head hidden layers, the
        # state map) read once per step or wave: batching a step's
        # lookups keeps the losses but moves gradient bits.
        config = toy_config(vocab_size=12)
        model = init_params(config, SeededRng(61))
        for _, p in model.parameters():
            p.data *= 5.0
        rng = SeededRng(62)
        g = config.chars_per_line
        samples = []
        for image in range(2):
            grid = rng.uniform_array(config.visual_count * config.visual_dim,
                                     -1.0, 1.0).reshape(config.visual_count,
                                                        config.visual_dim)
            keywords = [(3 + image, 5), (7,)]
            lines = [tuple(2 + rng.below(config.vocab_size - 2)
                           for _ in range(g - 2)) + (9, 4)
                     for _ in range(config.lines_per_poem)]
            samples.append([TrainSample(features=grid, keywords=keywords,
                                        preceding=sum(lines[:j], ()),
                                        target=lines[j])
                            for j in range(config.lines_per_poem)])
        batch = [samples[j % 2][(j * 3) % 4] for j in range(4)] + [
            samples[j % 2][(j * 3 + 1) % 4] for j in range(4)]
        assert sorted(len(s.preceding) for s in batch) == [0, 0, 5, 5, 10,
                                                           10, 15, 15]
        model.zero_grads()
        loss = accumulate_gradients(model, batch)
        digest = hashlib.sha256(repr(loss).encode())
        for name, p in model.parameters():
            digest.update(name.encode())
            digest.update(p.grad.tobytes())
        assert digest.hexdigest() == (
            "89ddaffa19d02b87afe97078b8b11753a9b292c1210d4c9cc2dd8923abc9d013")

    def test_bitwise_identical_across_thread_counts(self, model, rng):
        batch = make_pool(model.config, rng, 4)
        model.zero_grads()
        loss1 = accumulate_gradients(model, batch, worker_threads=1)
        grads1 = {name: p.grad.copy() for name, p in model.parameters()}
        model.zero_grads()
        loss2 = accumulate_gradients(model, batch, worker_threads=3)
        assert loss1 == loss2
        for name, p in model.parameters():
            assert np.array_equal(grads1[name], p.grad), name

    def test_clip_rescales_to_the_norm_budget(self, model, rng):
        batch = [make_sample(model.config, rng)]
        model.zero_grads()
        accumulate_gradients(model, batch)
        params = model.parameters()
        clip_gradients(params, 1e-3)
        norm = math.sqrt(sum(float(np.sum(p.grad * p.grad))
                             for _, p in params))
        assert norm <= 1e-3 + 1e-12

    def test_clip_leaves_small_gradients_alone(self, model, rng):
        batch = [make_sample(model.config, rng)]
        model.zero_grads()
        accumulate_gradients(model, batch)
        params = model.parameters()
        before = {name: p.grad.copy() for name, p in params}
        assert clip_gradients(params, 1e9) == 1.0
        for name, p in params:
            assert np.array_equal(before[name], p.grad)

    @pytest.mark.parametrize("max_norm", [5.0, 0.0])
    def test_overflowing_global_norm_is_a_numerical_error(self, max_norm):
        # Finite gradients whose squares overflow: the norm is inf.  Scaled
        # by max_norm / inf every gradient would become 0; unclipped, E[g^2]
        # would become inf and freeze the parameter.
        small = Tensor(np.array([1.0]), requires_grad=True)
        big = Tensor(np.array([1e200, 1.0]), requires_grad=True)
        params = [("small", small), ("big", big)]
        small.grad = np.array([0.5])
        big.grad = np.array([1e200, 1.0])
        with pytest.raises(NumericalError, match="'big'"):
            clip_gradients(params, max_norm)


class TestMakeBatches:
    def test_batches_are_the_seeded_shuffle_in_slices(self, config, rng):
        pool = (make_pool(config, rng, 7, preceding_len=0)
                + make_pool(config, rng, 5, preceding_len=5)
                + make_pool(config, rng, 3, preceding_len=10))
        batches = training._make_batches(pool, 4, SeededRng(4))
        order = list(range(len(pool)))
        SeededRng(4).shuffle(order)
        assert [[id(s) for s in batch] for batch in batches] == [
            [id(pool[i]) for i in order[start:start + 4]]
            for start in (0, 4, 8, 12)]
        placed = sorted(id(s) for batch in batches for s in batch)
        assert placed == sorted(id(s) for s in pool)
        # Context lengths no longer sort samples into batches.
        assert any(len({len(s.preceding) for s in batch}) > 1
                   for batch in batches)
        again = training._make_batches(pool, 4, SeededRng(4))
        assert ([[id(s) for s in batch] for batch in again]
                == [[id(s) for s in batch] for batch in batches])


class TestTrainLoop:
    def test_empty_pools_rejected(self, model):
        with pytest.raises(ConfigError):
            train(model, [], [], TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("field, value", [
        ("clip_norm", math.nan), ("eps", math.nan), ("eps", math.inf),
        ("batch_size", 1.5), ("max_epochs", 2.5), ("validate_every", True),
        ("seed", 1.0), ("seed", True)])
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value}).validate()

    def test_infinite_clip_is_legal(self):
        TrainConfig(clip_norm=math.inf).validate()

    def test_loss_curves_reproducible(self, config, rng):
        pool = make_pool(config, rng, 6, preceding_len=0)
        valid = make_pool(config, rng, 2, preceding_len=0)
        tconfig = TrainConfig(batch_size=3, max_epochs=3, seed=11)

        def run():
            model = init_params(config, SeededRng(21))
            return train(model, pool, valid, tconfig).history

        assert run() == run()

    def test_best_checkpoint_minimizes_validation_loss(self, config, rng):
        pool = make_pool(config, rng, 6, preceding_len=0)
        valid = make_pool(config, rng, 2, preceding_len=0)
        model = init_params(config, SeededRng(22))
        result = train(model, pool, valid,
                       TrainConfig(batch_size=3, max_epochs=4, seed=1))
        recorded = [v for _, _, v in result.history if v is not None]
        assert result.best_valid <= min(recorded)
        best = model_from_bytes(result.best_checkpoint)
        assert abs(evaluate_loss(best, valid) - result.best_valid) < 1e-12

    def test_nan_validation_loss_is_a_numerical_error(self, config, rng):
        # Only the validation sample reads character c, whose embedding
        # row is NaN: a non-finite feature grid is rejected up front.
        c = config.vocab_size - 1
        pool = [TrainSample(features=s.features, keywords=s.keywords,
                            preceding=(),
                            target=tuple(min(t, c - 1) for t in s.target))
                for s in make_pool(config, rng, 4, preceding_len=0)]
        valid = [TrainSample(features=pool[0].features, keywords=[(3,)],
                             preceding=(),
                             target=(c,) * config.chars_per_line)]
        model = init_params(config, SeededRng(24))
        model.embedding.weights.data[c] = np.nan
        with pytest.raises(NumericalError):
            train(model, pool, valid,
                  TrainConfig(batch_size=2, max_epochs=2, seed=1))

    @pytest.mark.parametrize("bad, error", [("nan", DomainError),
                                            ("shape", DimensionError)])
    def test_a_bad_validation_grid_is_rejected_before_the_first_batch(
            self, config, rng, monkeypatch, bad, error):
        pool = make_pool(config, rng, 8, preceding_len=0)
        valid = make_pool(config, rng, 1, preceding_len=0)
        if bad == "nan":
            valid[0].features[1, 2] = np.nan
        else:
            valid[0].features = valid[0].features[:, 1:]
        calls = []
        inner = training.accumulate_gradients

        def counting(*args):
            calls.append(len(args[1]))
            return inner(*args)

        monkeypatch.setattr(training, "accumulate_gradients", counting)
        model = init_params(config, SeededRng(25))
        with pytest.raises(error):
            train(model, pool, valid, TrainConfig(
                batch_size=2, max_epochs=2, validate_every=2, seed=1))
        assert calls == []

    def test_log_lines_have_the_documented_shape(self, config, rng):
        pool = make_pool(config, rng, 4, preceding_len=0)
        valid = make_pool(config, rng, 2, preceding_len=0)
        model = init_params(config, SeededRng(23))
        lines = []
        train(model, pool, valid,
              TrainConfig(batch_size=2, max_epochs=3, seed=1),
              log=lines.append)
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            parts = line.split()
            assert parts[0] == "epoch" and int(parts[1]) == i
            assert parts[2] == "train" and parts[4] == "valid"
            float(parts[3]), float(parts[5])

    def test_previous_best_checkpoint_is_freed_before_the_next(
            self, config, rng, monkeypatch):
        class Blob:
            pass

        alive = weakref.WeakSet()
        leftovers = []

        def recording(model):
            leftovers.append(len(alive))  # earlier blobs train still holds
            blob = Blob()
            alive.add(blob)
            return blob

        monkeypatch.setattr(training, "checkpoint_bytes", recording)
        pool = make_pool(config, rng, 4, preceding_len=0)
        model = init_params(config, SeededRng(26))
        result = train(model, pool, pool,
                       TrainConfig(batch_size=2, max_epochs=3, seed=1))
        assert len(leftovers) >= 2
        assert leftovers == [0] * len(leftovers)
        assert set(alive) == {result.best_checkpoint}

    def test_no_gradient_buffer_alive_at_checkpoint_writes(
            self, config, rng, monkeypatch):
        holding = []

        def recording(model):
            holding.append([name for name, p in model.parameters()
                            if p.grad is not None])
            return b""

        monkeypatch.setattr(training, "checkpoint_bytes", recording)
        pool = make_pool(config, rng, 4, preceding_len=0)
        model = init_params(config, SeededRng(26))
        train(model, pool, pool, TrainConfig(batch_size=2, max_epochs=3,
                                             seed=1))
        assert holding and holding == [[]] * len(holding)

    def test_training_reduces_loss(self, config, rng):
        pool = make_pool(config, rng, 6, preceding_len=0)
        model = init_params(config, SeededRng(24))
        before = evaluate_loss(model, pool)
        train(model, pool, pool, TrainConfig(batch_size=2, max_epochs=20,
                                             seed=2))
        assert evaluate_loss(model, pool) < before

    def test_a_model_whose_step_is_split_trains_to_pinned_bytes(self, rng):
        # 382,296 values: each AdaDelta step and state fill is split
        # between two threads, which must not move a bit.
        config = toy_config(vocab_size=1100, hidden_dim=64, memory_dim=64,
                            visual_count=3, visual_dim=5)
        pool = make_pool(config, rng, 4, preceding_len=0)
        valid = make_pool(config, rng, 2, preceding_len=0)
        model = init_params(config, SeededRng(33))
        result = train(model, pool, valid,
                       TrainConfig(batch_size=2, max_epochs=2, seed=5))
        assert hashlib.sha256(result.best_checkpoint).hexdigest() == (
            "5be999c1882c819d6e35ac7c4b339edc65b31350455c98b4551dfd198af1bf87")

    def test_mixed_preceding_lengths_batch_cleanly(self, config, rng):
        pool = (make_pool(config, rng, 3, preceding_len=0)
                + make_pool(config, rng, 3, preceding_len=5)
                + make_pool(config, rng, 2, preceding_len=10))
        model = init_params(config, SeededRng(25))
        result = train(model, pool, pool[:2],
                       TrainConfig(batch_size=4, max_epochs=2, seed=3))
        assert len(result.history) == 2
