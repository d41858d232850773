import numpy as np
import pytest

from imagepoet import model as mdl
from imagepoet import numerics as nm
from imagepoet import topic_memory as tmem
from imagepoet.errors import ConfigError, DimensionError, VocabularyError
from imagepoet.layers import attend, bigru_encode, gru_step
from imagepoet.model import (LINE_START_ID, ModelConfig, decode_step,
                             encode_context, generate_line, generate_poem,
                             greedy_decode_reversed, init_params,
                             output_probs, prepare_context)
from imagepoet.numerics import Tensor, grad_check
from imagepoet.rng import SeededRng

from conftest import toy_config


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


class TestEncodeContext:
    def test_one_state_per_character(self, model, rng):
        ids = [rng.below(model.config.vocab_size) for _ in range(14)]
        assert encode_context(model, ids).shape == (14, 2 * model.config.hidden_dim)

    def test_empty_context_is_single_marker(self, model):
        states = encode_context(model, [])
        assert states.shape[0] == 1
        marker = [model.embedding.lookup(mdl.POEM_START_ID)]
        expected = bigru_encode(model.encoder_fw, model.encoder_bw, marker)
        assert np.array_equal(states.data[0], expected.data[0])

    def test_matches_bigru_over_embeddings(self, model):
        ids = [3, 7]
        states = encode_context(model, ids)
        embs = [model.embedding.lookup(c) for c in ids]
        expected = bigru_encode(model.encoder_fw, model.encoder_bw, embs)
        for got, want in zip(states.data, expected.data):
            assert np.array_equal(got, want)

    def test_out_of_vocab_rejected(self, model):
        with pytest.raises(VocabularyError):
            encode_context(model, [model.config.vocab_size])


class TestDecodeStep:
    def test_empty_keywords_leave_state_untouched(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng), [], [2])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        assert step.topic_state is step.state
        assert step.address is None

    def test_single_visual_vector_is_always_the_context(self, rng):
        config = toy_config(visual_count=1)
        model = init_params(config, SeededRng(8))
        features = features_for(config, rng)
        ctx = prepare_context(model, features, [(3,)], [1, 2])
        s = ctx.state
        for _ in range(4):
            step = decode_step(model, ctx, s, 3)
            s = step.state
            assert np.array_equal(step.visual_context.data, features[0])

    def test_zeroed_features_zero_the_visual_context(self, model, rng):
        features = np.zeros((model.config.visual_count,
                             model.config.visual_dim))
        ctx = prepare_context(model, features, [(3,)], [1, 2])
        s = ctx.state
        for _ in range(4):
            step = decode_step(model, ctx, s, 3)
            s = step.state
            assert np.array_equal(step.visual_context.data,
                                  np.zeros(model.config.visual_dim))

    def test_step_matches_hand_composition(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng),
                              [(3, 4), (9,)], [1, 2, 3])
        s_prev = ctx.state
        y_prev = 7
        step = decode_step(model, ctx, s_prev, y_prev)

        want_h, want_hw = attend(model.text_attention, s_prev, ctx.text[0])
        want_v, want_vw = attend(model.visual_attention, s_prev,
                                 ctx.visual[0])
        x = nm.concat([model.embedding.lookup(y_prev), want_h, want_v])
        want_s = gru_step(model.decoder, s_prev, x)
        want_z = tmem.address(ctx.bank, want_s)
        want_o = tmem.fuse(tmem.read(ctx.bank, want_z), want_s)
        features = nm.concat([want_o, want_v, want_h])
        want_g = nm.softmax(model.head_generic.logits(features)).data
        topic = list(ctx.topic_ids)
        want_t = np.zeros(model.config.vocab_size)
        want_t[topic] = nm.softmax(Tensor(
            model.head_topic.logits(features).data[topic])).data
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
        ctx = prepare_context(model, features_for(config, rng), [(3, 4)], [1])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        p_g = nm.softmax(model.head_generic.logits(nm.concat(
            [step.topic_state, step.visual_context, step.text_context])))
        assert np.max(np.abs(step.p.data - p_g.data)) < 1e-15
        assert step.p_topic is None

    def test_no_keywords_disable_the_bias(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng), [], [1])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        p_g = nm.softmax(model.head_generic.logits(nm.concat(
            [step.topic_state, step.visual_context, step.text_context])))
        assert np.array_equal(step.p.data, p_g.data)
        assert step.p_topic is None

    def test_probability_vector_and_offtopic_scaling(self, model, rng):
        lam = model.config.topic_weight
        for _ in range(20):
            keywords = [(rng.below(20), rng.below(20))]
            ctx = prepare_context(model, features_for(model.config, rng),
                                  keywords, [rng.below(20)])
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

    def test_each_sequence_is_stacked_once(self, model, rng, monkeypatch):
        from imagepoet.training import TrainSample, cross_entropy_loss
        features = features_for(model.config, rng)
        keywords = [(3, 4), (9,)]
        stacks = []
        stack = nm.stack

        def counting(parts):
            stacks.append(parts)
            return stack(parts)

        monkeypatch.setattr(nm, "stack", counting)
        # Context Bi-GRU: forward and backward states; bank: keys, contents;
        # scored steps: states, visual and text contexts, topic logits.
        counts = []
        for target in ((5,), (5, 6, 7, 8, 9)):
            stacks.clear()
            cross_entropy_loss(model, [TrainSample(
                features=features, keywords=keywords, preceding=(1, 2, 3),
                target=target)])
            counts.append(len(stacks))
        assert counts == [4 + 4] * 2
        ctx = prepare_context(model, features, keywords, [1, 2])
        stacks.clear()
        decode_step(model, ctx, ctx.state, LINE_START_ID)
        assert stacks == []
        generate_poem(model, features, keywords)
        assert len(stacks) == 2 + 2 * model.config.lines_per_poem

    @pytest.mark.parametrize("length", [1, 5])
    def test_scoring_reads_the_generic_head_and_memory_once(
            self, model, rng, length, monkeypatch):
        from imagepoet.training import TrainSample, cross_entropy_loss
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
        ctx = prepare_context(model, features_for(model.config, rng),
                              [(3, 4), (9,)], [1])
        s = ctx.state
        step = decode_step(model, ctx, s, LINE_START_ID)
        features = nm.concat([step.topic_state, step.visual_context,
                              step.text_context])
        rows = []
        linear = nm.linear

        def recording(x, w, b=None):
            rows.append(w.shape[0])
            return linear(x, w, b)

        monkeypatch.setattr(nm, "linear", recording)
        _, p_topic, _ = output_probs(model, ctx, features)
        monkeypatch.undo()
        h = model.config.hidden_dim
        assert rows == [h, model.config.vocab_size, h, len(ctx.topic_ids)]
        full = nm.take(model.head_topic.logits(features), ctx.topic_ids)
        want = nm.softmax(full).data
        assert np.max(np.abs(p_topic.data[list(ctx.topic_ids)] - want)) < 1e-15


class TestGeneration:
    def test_line_is_reversed_emission(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng),
                              [(3,)], [])
        emitted = greedy_decode_reversed(model, ctx)
        line = generate_line(model, ctx)
        assert line == list(reversed(emitted))

    @pytest.mark.parametrize("chars", [5, 7])
    def test_line_length(self, chars, rng):
        config = toy_config(chars_per_line=chars)
        model = init_params(config, SeededRng(10))
        ctx = prepare_context(model, features_for(config, rng), [(3,)], [])
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
            ctx = prepare_context(model, features, keywords, preceding)
            assert ctx.text[0].shape[0] == (i * g if i else 1)
            lines.append(generate_line(model, ctx))
        assert lines == poem

    def test_bad_feature_shape_rejected(self, model):
        with pytest.raises(DimensionError):
            generate_poem(model, np.zeros((2, 2)), [])


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
