import hashlib
import json

import numpy as np
import pytest

from imagepoet import model as mdl
from imagepoet import numerics as nm
from imagepoet import topic_memory as tmem
from imagepoet.errors import ConfigError, DimensionError, VocabularyError
from imagepoet.layers import attend, bigru_encode, gru_step
from imagepoet.model import (LINE_START_ID, ModelConfig, decode_step,
                             generate_line, generate_poem,
                             greedy_decode_reversed, init_params,
                             output_probs, prepare_context, prepare_contexts,
                             prepare_image)
from imagepoet.numerics import Tensor, grad_check
from imagepoet.rng import SeededRng

from conftest import toy_config
from oracles import bigru_ref


def features_for(config, rng):
    n = config.visual_count * config.visual_dim
    return rng.uniform_array(n, -1.0, 1.0).reshape(config.visual_count,
                                                   config.visual_dim)


class TestConfig:
    def test_defaults_are_full_scale(self):
        config = ModelConfig()
        assert (config.vocab_size, config.hidden_dim, config.memory_dim,
                config.topic_weight) == (6000, 512, 512, 0.5)
        assert (config.visual_count, config.visual_dim) == (196, 512)
        assert (config.lines_per_poem, config.chars_per_line) == (4, 7)

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            toy_config(vocab_size=0)
        with pytest.raises(ConfigError):
            toy_config(topic_weight=1.5)
        with pytest.raises(ConfigError):
            toy_config(hidden_dim=7, memory_dim=7)
        with pytest.raises(ConfigError):
            toy_config(memory_dim=16)

    def test_param_count_matches_actual(self, config, model):
        assert config.param_count() == model.param_count()

    def test_from_dict_rejects_unknown_fields(self, config):
        bad = dict(config.to_dict(), extra=1)
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(bad)


class TestInitParams:
    def test_all_values_in_range(self, model):
        for name, p in model.parameters():
            assert np.all(p.data >= -0.08), name
            assert np.all(p.data <= 0.08), name

    def test_same_seed_identical(self, config):
        a = init_params(config, SeededRng(5))
        b = init_params(config, SeededRng(5))
        for (name_a, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data), name_a

    def test_mean_near_zero(self, config):
        model = init_params(config, SeededRng(6))
        values = np.concatenate([p.data.reshape(-1)
                                 for _, p in model.parameters()])
        assert values.size > 3000
        assert abs(values.mean()) < 0.002

    def test_parameter_names_unique(self, model):
        names = [name for name, _ in model.parameters()]
        assert len(names) == len(set(names))


def encoded(model, *contexts, image=None):
    """The context Bi-GRU matrices of contexts prepared in one call."""
    if image is None:
        image = prepare_image(model, np.zeros((model.config.visual_count,
                                               model.config.visual_dim)), [])
    return [ctx.text[0]
            for ctx in prepare_contexts(model, [(image, c) for c in contexts])]


class TestEncodeContext:
    def test_one_state_per_character(self, model, rng):
        ids = [rng.below(model.config.vocab_size) for _ in range(14)]
        states, = encoded(model, ids)
        assert states.shape == (14, 2 * model.config.hidden_dim)

    def test_empty_context_is_single_marker(self, model):
        states, = encoded(model, [])
        assert states.shape[0] == 1
        expected, = bigru_encode(model.encoder_fw, model.encoder_bw,
                                 model.embedding, [(mdl.POEM_START_ID,)], {})
        assert np.array_equal(states.data[0], expected.data[0])

    def test_matches_bigru_over_embeddings(self, model):
        ids = [3, 7]
        states, = encoded(model, ids)
        embs = model.embedding.lookup(ids)
        expected = bigru_ref(model.encoder_fw, model.encoder_bw, embs.data)
        for got, want in zip(states.data, expected):
            assert np.max(np.abs(got - want)) < 1e-15

    def test_out_of_vocab_rejected(self, model):
        with pytest.raises(VocabularyError):
            encoded(model, [model.config.vocab_size])

    def test_returns_the_encoded_ids_and_forward_states(self, model, rng):
        # The image keeps the forward state of every prefix it encoded.
        image = prepare_image(model, features_for(model.config, rng), [])
        states, = encoded(model, [], image=image)
        assert list(image.forward) == [(mdl.POEM_START_ID,)]
        h = model.config.hidden_dim
        assert np.array_equal(image.forward[(mdl.POEM_START_ID,)].data,
                              states.data[0, :h])
        encoded(model, [5, 6], image=image)
        assert list(image.forward) == [(mdl.POEM_START_ID,), (5,), (5, 6)]

    def test_extends_the_longest_shared_prefix(self, model, rng,
                                               monkeypatch):
        ids = [2 + rng.below(model.config.vocab_size - 2) for _ in range(12)]
        other = list(ids[:9])
        other[6] = ids[6] + 1 if ids[6] + 1 < model.config.vocab_size else 2
        image = prepare_image(model, features_for(model.config, rng), [])
        encoded(model, ids[:4], other, image=image)
        earlier = dict(image.forward)
        fresh, = encoded(model, ids)
        steps = []
        gru = gru_step

        def counting(cell, h, x):
            steps.append(cell)
            return gru(cell, h, x)

        monkeypatch.setattr("imagepoet.layers.gru_step", counting)
        extended, = encoded(model, ids, image=image)
        # Six of the other context's states are shared; twelve backward.
        assert steps.count(model.encoder_fw) == 6
        assert steps.count(model.encoder_bw) == 12
        assert all(image.forward[p] is s for p, s in earlier.items())
        assert extended.data.tobytes() == fresh.data.tobytes()


class TestDecodeStep:
    def test_empty_keywords_leave_state_untouched(self, model, rng):
        image = prepare_image(model, features_for(model.config, rng), [])
        ctx = prepare_context(model, image, [2])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        assert step.topic_state is step.state
        assert step.address is None

    def test_single_visual_vector_is_always_the_context(self, rng):
        config = toy_config(visual_count=1)
        model = init_params(config, SeededRng(8))
        features = features_for(config, rng)
        ctx = prepare_context(model, prepare_image(model, features, [(3,)]),
                              [1, 2])
        s = ctx.state
        for _ in range(4):
            step = decode_step(model, ctx, s, 3)
            s = step.state
            assert np.array_equal(step.visual_context.data, features[0])

    def test_zeroed_features_zero_the_visual_context(self, model, rng):
        features = np.zeros((model.config.visual_count,
                             model.config.visual_dim))
        ctx = prepare_context(model, prepare_image(model, features, [(3,)]),
                              [1, 2])
        s = ctx.state
        for _ in range(4):
            step = decode_step(model, ctx, s, 3)
            s = step.state
            assert np.array_equal(step.visual_context.data,
                                  np.zeros(model.config.visual_dim))

    def test_step_matches_hand_composition(self, model, rng):
        image = prepare_image(model, features_for(model.config, rng),
                              [(3, 4), (9,)])
        ctx = prepare_context(model, image, [1, 2, 3])
        s_prev = ctx.state
        y_prev = 7
        step = decode_step(model, ctx, s_prev, y_prev)

        want_h, want_hw = attend(
            model.text_attention,
            nm.linear(s_prev, model.text_attention.query_proj), ctx.text[0])
        want_v, want_vw = attend(
            model.visual_attention,
            nm.linear(s_prev, model.visual_attention.query_proj),
            ctx.visual[0])
        x = nm.concat([model.embedding.lookup(y_prev), want_h, want_v])
        want_s = nm.take(gru_step(model.decoder, nm.stack([s_prev]),
                                  nm.stack([x])), 0)
        want_z = tmem.address(ctx.bank, want_s)
        want_o = tmem.fuse(tmem.read(ctx.bank, want_z), want_s)
        features = nm.concat([want_o, want_v, want_h])
        want_g = nm.softmax(model.head_generic.logits(
            model.head_generic.hidden(features))).data
        topic = list(ctx.topic_ids)
        want_t = np.zeros(model.config.vocab_size)
        want_t[topic] = nm.softmax(Tensor(
            model.head_topic.logits(model.head_topic.hidden(
                features)).data[topic])).data
        lam = model.config.topic_weight
        want_p = (lam * want_t + want_g) * (1.0 / (1.0 + lam))

        for got, want in ((step.text_context, want_h.data),
                          (step.visual_context, want_v.data),
                          (step.text_weights, want_hw.data),
                          (step.visual_weights, want_vw.data),
                          (step.state, want_s.data),
                          (step.address, want_z.data),
                          (step.topic_state, want_o.data),
                          (step.p_generic, want_g),
                          (step.p_topic, want_t),
                          (step.p, want_p)):
            assert np.max(np.abs(got.data - want)) < 1e-12


class TestOutputProbs:
    def test_lambda_zero_returns_generic_exactly(self, rng):
        config = toy_config(topic_weight=0.0)
        model = init_params(config, SeededRng(9))
        image = prepare_image(model, features_for(config, rng), [(3, 4)])
        ctx = prepare_context(model, image, [1])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        p_g = nm.softmax(model.head_generic.logits(model.head_generic.hidden(
            nm.concat([step.topic_state, step.visual_context,
                       step.text_context]))))
        assert np.max(np.abs(step.p.data - p_g.data)) < 1e-15
        assert step.p_topic is None

    def test_no_keywords_disable_the_bias(self, model, rng):
        image = prepare_image(model, features_for(model.config, rng), [])
        ctx = prepare_context(model, image, [1])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        p_g = nm.softmax(model.head_generic.logits(model.head_generic.hidden(
            nm.concat([step.topic_state, step.visual_context,
                       step.text_context]))))
        assert np.array_equal(step.p.data, p_g.data)
        assert step.p_topic is None

    def test_probability_vector_and_offtopic_scaling(self, model, rng):
        lam = model.config.topic_weight
        for _ in range(20):
            keywords = [(rng.below(20), rng.below(20))]
            image = prepare_image(model, features_for(model.config, rng),
                                  keywords)
            ctx = prepare_context(model, image, [rng.below(20)])
            s = ctx.state
            step = decode_step(model, ctx, s, LINE_START_ID)
            p, p_g, p_t = step.p, step.p_generic, step.p_topic
            assert np.all(p.data >= 0.0)
            assert abs(p.data.sum() - 1.0) < 1e-9
            outside = np.ones(20, dtype=bool)
            outside[list(ctx.topic_ids)] = False
            # off-topic characters carry exactly the scaled generic mass
            assert np.max(np.abs(p.data[outside]
                                 - p_g.data[outside] / (1 + lam))) < 1e-15
            assert np.all(p_t.data[outside] == 0.0)
            # normalization divides by 1 + lambda and never moves the argmax
            unnormalized = lam * p_t.data + p_g.data
            assert np.max(np.abs(p.data * (1 + lam) - unnormalized)) < 1e-15
            assert int(np.argmax(p.data)) == int(np.argmax(unnormalized))


class TestHoistedWork:
    def test_keys_are_projected_once_per_context(self, model, rng,
                                                 monkeypatch):
        from imagepoet.training import TrainSample, cross_entropy_loss
        sample = TrainSample(features=features_for(model.config, rng),
                             keywords=[(3, 4)], preceding=(1, 2, 3),
                             target=(5, 6, 7, 8, 9))
        projections = []
        matmul = nm.matmul

        def counting(a, b):
            if b is model.visual_attention.key_proj:
                projections.append(("visual", a.shape))
            if b is model.text_attention.key_proj:
                projections.append(("text", a.shape))
            return matmul(a, b)

        monkeypatch.setattr(nm, "matmul", counting)
        cross_entropy_loss(model, [sample])
        assert projections == [
            ("visual", (model.config.visual_count, model.config.visual_dim)),
            ("text", (3, 2 * model.config.hidden_dim))]

    def test_matmul_applies_no_parameter_matrix_but_the_key_projections(
            self, model, rng, monkeypatch):
        from imagepoet.training import TrainSample, cross_entropy_loss
        sample = TrainSample(features=features_for(model.config, rng),
                             keywords=[(3, 4), (9,)], preceding=(1, 2, 3),
                             target=(5, 6, 7, 8, 9))
        matrices = {id(p): name for name, p in model.parameters()
                    if p.data.ndim == 2}
        operands = set()
        matmul = nm.matmul

        def recording(a, b):
            operands.update(matrices[id(t)] for t in (a, b)
                            if id(t) in matrices)
            return matmul(a, b)

        monkeypatch.setattr(nm, "matmul", recording)
        with nm.Tape() as tape:
            loss = cross_entropy_loss(model, [sample])
        tape.gradients(loss)
        generate_poem(model, sample.features, sample.keywords)
        assert operands == {"attention.text.key_proj",
                            "attention.visual.key_proj"}

    def test_each_sequence_is_stacked_once(self, model, rng, monkeypatch):
        from imagepoet.training import TrainSample, cross_entropy_loss
        features = features_for(model.config, rng)
        keywords = [(3, 4), (9,)]
        stacks = []
        stack = nm.stack
        depths = []
        gru = gru_step

        def counting(parts):
            stacks.append(parts)
            return stack(parts)

        def stepping(cell, h, x):
            depths.append(cell)
            return gru(cell, h, x)

        monkeypatch.setattr(nm, "stack", counting)
        monkeypatch.setattr("imagepoet.layers.gru_step", stepping)
        # Beyond one stack of the parent states per depth that a Bi-GRU
        # direction steps: context Bi-GRU: forward and backward states,
        # then the contexts' means; bank: keys, contents; scored steps:
        # states, visual and text contexts, topic logits; the recurrence:
        # the initial states, then one stack of the rows' decoder inputs
        # per step.  A decode step
        # stacks its one row's state, decoder input, visual and text
        # contexts, and topic logits.
        counts = []
        for target in ((5,), (5, 6, 7, 8, 9)):
            scorer = init_params(toy_config(chars_per_line=len(target)),
                                 SeededRng(42))
            stacks.clear()
            depths.clear()
            cross_entropy_loss(scorer, [TrainSample(
                features=features, keywords=keywords, preceding=(1, 2, 3),
                target=target)])
            counts.append(len(stacks) - len(target) - len(depths))
        assert counts == [5 + 4 + 1] * 2
        ctx = prepare_context(model, prepare_image(model, features, keywords),
                              [1, 2])
        stacks.clear()
        decode_step(model, ctx, ctx.state, LINE_START_ID)
        assert len(stacks) == 5
        stacks.clear()
        depths.clear()
        generate_poem(model, features, keywords)
        config = model.config
        assert len(stacks) - len(depths) == (
            2 + 3 * config.lines_per_poem
            + 5 * config.lines_per_poem * config.chars_per_line)

    @pytest.mark.parametrize("length", [1, 5])
    def test_scoring_reads_the_generic_head_and_memory_once(
            self, rng, length, monkeypatch):
        from imagepoet.training import TrainSample, cross_entropy_loss
        model = init_params(toy_config(chars_per_line=length), SeededRng(42))
        sample = TrainSample(features=features_for(model.config, rng),
                             keywords=[(3, 4), (9,)], preceding=(1, 2, 3),
                             target=tuple(range(5, 5 + length)))
        head = model.head_generic
        products = []
        addresses = []
        linear = nm.linear
        address = tmem.address

        def recording(x, w, b=None):
            if w is head.w_hidden or w is head.w_out:
                products.append((w.shape, x.shape))
            return linear(x, w, b)

        def addressing(bank, state):
            addresses.append(state.shape)
            return address(bank, state)

        monkeypatch.setattr(nm, "linear", recording)
        monkeypatch.setattr(tmem, "address", addressing)
        cross_entropy_loss(model, [sample])
        h, v = model.config.hidden_dim, model.config.vocab_size
        head_in = 3 * h + model.config.visual_dim
        assert products == [((h, head_in), (length, head_in)),
                            ((v, h), (length, h))]
        assert addresses == [(length, h)]

    def test_topic_head_scores_only_the_topic_rows(self, model, rng,
                                                   monkeypatch):
        image = prepare_image(model, features_for(model.config, rng),
                              [(3, 4), (9,)])
        ctx = prepare_context(model, image, [1])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        vector = nm.concat([step.topic_state, step.visual_context,
                            step.text_context])
        features = nm.stack([vector])
        rows = []
        linear = nm.linear

        def recording(x, w, b=None):
            rows.append(w.shape[0])
            return linear(x, w, b)

        monkeypatch.setattr(nm, "linear", recording)
        p_topic, _ = output_probs(model, ctx,
                                  model.head_topic.hidden(features),
                                  nm.stack([step.p_generic]))
        monkeypatch.undo()
        h = model.config.hidden_dim
        assert rows == [h, len(ctx.topic_ids)]
        full = nm.take(model.head_topic.logits(
            model.head_topic.hidden(vector)), ctx.topic_ids)
        want = nm.softmax(full).data
        assert np.max(np.abs(p_topic.data[0, list(ctx.topic_ids)]
                             - want)) < 1e-15


class TestGeneration:
    def test_line_is_reversed_emission(self, model, rng):
        image = prepare_image(model, features_for(model.config, rng), [(3,)])
        ctx = prepare_context(model, image, [])
        emitted = greedy_decode_reversed(model, ctx)
        line = generate_line(model, ctx)
        assert line == list(reversed(emitted))

    @pytest.mark.parametrize("chars", [5, 7])
    def test_line_length(self, chars, rng):
        config = toy_config(chars_per_line=chars)
        model = init_params(config, SeededRng(10))
        image = prepare_image(model, features_for(config, rng), [(3,)])
        ctx = prepare_context(model, image, [])
        assert len(generate_line(model, ctx)) == chars

    def test_poem_shape_and_determinism(self, model, rng):
        features = features_for(model.config, rng)
        keywords = [(3, 4), (5,)]
        poem = generate_poem(model, features, keywords)
        assert len(poem) == model.config.lines_per_poem
        assert all(len(line) == model.config.chars_per_line for line in poem)
        assert generate_poem(model, features, keywords) == poem

    def test_poem_reencodes_all_preceding_lines(self, model, rng):
        features = features_for(model.config, rng)
        keywords = [(3, 4)]
        poem = generate_poem(model, features, keywords)
        lines = []
        g = model.config.chars_per_line
        for i in range(model.config.lines_per_poem):
            preceding = [c for line in lines for c in line]
            assert len(preceding) == i * g
            image = prepare_image(model, features, keywords)
            ctx = prepare_context(model, image, preceding)
            assert ctx.text[0].shape[0] == (i * g if i else 1)
            lines.append(generate_line(model, ctx))
        assert lines == poem

    def test_forward_encoder_reads_each_line_once(self, model, rng,
                                                 monkeypatch):
        # One image per poem, and each new line read once from it.
        steps = []
        images = []
        gru, prepare = gru_step, mdl.prepare_image

        def counting(cell, h, x):
            steps.append(cell)
            return gru(cell, h, x)

        def preparing(*args, **kwargs):
            images.append(prepare(*args, **kwargs))
            return images[-1]

        monkeypatch.setattr("imagepoet.layers.gru_step", counting)
        monkeypatch.setattr(mdl, "prepare_image", preparing)
        poem = generate_poem(model, features_for(model.config, rng), [(3,)])
        assert len(images) == 1
        g, lines = model.config.chars_per_line, model.config.lines_per_poem
        # The marker context, then each new line once; the first line's
        # context extends the marker's state only if it begins with it.
        shared = int(poem[0][0] == mdl.POEM_START_ID)
        assert steps.count(model.encoder_fw) == 1 + (lines - 1) * g - shared
        assert len(images[0].forward) == steps.count(model.encoder_fw)
        assert steps.count(model.encoder_bw) == 1 + sum(
            i * g for i in range(lines))

    def test_bad_feature_shape_rejected(self, model):
        with pytest.raises(DimensionError):
            generate_poem(model, np.zeros((2, 2)), [])


def pinned_poem(config, seed, keywords, spread):
    """The poem of a seeded model whose parameters are scaled by spread,
    and the SHA-256 of its JSON."""
    model = init_params(config, SeededRng(seed))
    for _, p in model.parameters():
        p.data *= spread
    features = SeededRng(seed + 100).uniform_array(
        config.visual_count * config.visual_dim, -1.0, 1.0).reshape(
            config.visual_count, config.visual_dim)
    poem = generate_poem(model, features, keywords)
    return poem, hashlib.sha256(json.dumps(poem).encode()).hexdigest()


class TestPinnedPoems:
    """Poems fixed to the bit: a change to how contexts, keywords or heads
    are computed may move scored losses in their last bits, but must not
    move a greedy poem."""

    # Parameters spread 20 times wider than at initialisation, so that the
    # toy poems vary from line to line and depend on their contexts.
    @pytest.mark.parametrize("seed, digest", [
        (1, "7e72be1e7271c4f568182e41e206e948"
            "a79f54c0be6c6e28f66e49c5fb226ede"),
        (2, "847a7a12f7a14a3735f0a0665b77e81f"
            "479d3c5519d8e4878cd33d3a5c7809b1"),
        (3, "8558e5edb30e418e8e2881e0df63767b"
            "f3dd00fbca96168273a6f56a7d8bf0c7"),
    ])
    def test_toy_poem(self, seed, digest):
        poem, got = pinned_poem(toy_config(), seed,
                                [(3, 4), (9,), (2, 11, 5)], 20.0)
        assert got == digest, poem

    def test_paper_poem(self):
        poem, got = pinned_poem(ModelConfig(), 1,
                                [(17, 250), (3000,), (42, 43, 44)], 1.0)
        assert got == ("f0338d597def0c38298c60365f53815f"
                       "a2bebe39bc87e5c91f0bee163eafa55a"), poem


class TestModelGradients:
    def test_spot_check_parameters_through_full_loss(self, model, rng):
        from imagepoet.training import TrainSample, cross_entropy_loss
        sample = TrainSample(features=features_for(model.config, rng),
                             keywords=[(3, 4), (9,)],
                             preceding=(1, 2, 3, 4, 5),
                             target=(5, 6, 7, 8, 9))

        def loss():
            return cross_entropy_loss(model, [sample])

        spot = {"embedding.weights", "attention.visual.score",
                "head.topic.b_out", "keyword.bw.b_h", "init_state.w"}
        for name, p in model.parameters():
            if name in spot:
                err = grad_check(lambda _: loss(), p, h=1e-5)
                assert err < 1e-5, "%s gradient off by %.3e" % (name, err)
