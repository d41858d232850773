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
                             mix_distributions, output_probs, prepare_context,
                             topic_distribution)
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
        assert len(encode_context(model, ids)) == 14

    def test_empty_context_is_single_marker(self, model):
        states = encode_context(model, [])
        assert len(states) == 1
        marker = [model.embedding.lookup(mdl.POEM_START_ID)]
        expected = bigru_encode(model.encoder_fw, model.encoder_bw, marker)
        assert np.array_equal(states[0].data, expected[0].data)

    def test_matches_bigru_over_embeddings(self, model):
        ids = [3, 7]
        states = encode_context(model, ids)
        embs = [model.embedding.lookup(c) for c in ids]
        expected = bigru_encode(model.encoder_fw, model.encoder_bw, embs)
        for got, want in zip(states, expected):
            assert np.array_equal(got.data, want.data)

    def test_out_of_vocab_rejected(self, model):
        with pytest.raises(VocabularyError):
            encode_context(model, [model.config.vocab_size])


class TestDecodeStep:
    def test_empty_keywords_leave_state_untouched(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng), [], [2])
        s = mdl.init_state(model, ctx.h_states)
        s_t, o_t, _, _ = decode_step(model, ctx, s, LINE_START_ID)
        assert o_t is s_t

    def test_single_visual_vector_is_always_the_context(self, rng):
        config = toy_config(visual_count=1)
        model = init_params(config, SeededRng(8))
        features = features_for(config, rng)
        ctx = prepare_context(model, features, [(3,)], [1, 2])
        s = mdl.init_state(model, ctx.h_states)
        for _ in range(4):
            s, _, _, v_hat = decode_step(model, ctx, s, 3)
            assert np.array_equal(v_hat.data, features[0])

    def test_zeroed_features_zero_the_visual_context(self, model, rng):
        features = np.zeros((model.config.visual_count,
                             model.config.visual_dim))
        ctx = prepare_context(model, features, [(3,)], [1, 2])
        s = mdl.init_state(model, ctx.h_states)
        for _ in range(4):
            s, _, _, v_hat = decode_step(model, ctx, s, 3)
            assert np.array_equal(v_hat.data, np.zeros(model.config.visual_dim))

    def test_step_matches_hand_composition(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng),
                              [(3, 4), (9,)], [1, 2, 3])
        s_prev = mdl.init_state(model, ctx.h_states)
        y_prev = 7
        s_t, o_t, h_hat, v_hat = decode_step(model, ctx, s_prev, y_prev)

        want_h, _ = attend(model.text_attention, s_prev, ctx.h_states)
        want_v, _ = attend(model.visual_attention, s_prev, ctx.visual[0])
        x = nm.concat([model.embedding.lookup(y_prev), want_h, want_v])
        want_s = gru_step(model.decoder, s_prev, x)
        z = tmem.address(ctx.bank, want_s)
        want_o = tmem.fuse(tmem.read(ctx.bank, z), want_s)

        for got, want in ((h_hat, want_h), (v_hat, want_v),
                          (s_t, want_s), (o_t, want_o)):
            assert np.max(np.abs(got.data - want.data)) < 1e-12


class TestOutputProbs:
    def test_mixture_arithmetic_from_fixed_inputs(self):
        p_g = Tensor(np.array([0.1, 0.2, 0.3, 0.4]))
        p_t = Tensor(np.array([0.5, 0.5, 0.0, 0.0]))
        mixed = mix_distributions(p_g, p_t, 0.5)
        unnormalized = np.array([0.35, 0.45, 0.3, 0.4])
        assert np.max(np.abs(mixed.data * 1.5 - unnormalized)) < 1e-15
        assert int(np.argmax(mixed.data)) == 1
        assert int(np.argmax(mixed.data)) == int(np.argmax(unnormalized))

    def test_lambda_zero_returns_generic_exactly(self, rng):
        config = toy_config(topic_weight=0.0)
        model = init_params(config, SeededRng(9))
        ctx = prepare_context(model, features_for(config, rng), [(3, 4)], [1])
        s = mdl.init_state(model, ctx.h_states)
        s, o_t, h_hat, v_hat = decode_step(model, ctx, s, LINE_START_ID)
        p = output_probs(model, ctx, o_t, v_hat, h_hat)
        p_g = mdl.generic_distribution(model, o_t, v_hat, h_hat)
        assert np.max(np.abs(p.data - p_g.data)) < 1e-15

    def test_no_keywords_disable_the_bias(self, model, rng):
        ctx = prepare_context(model, features_for(model.config, rng), [], [1])
        s = mdl.init_state(model, ctx.h_states)
        s, o_t, h_hat, v_hat = decode_step(model, ctx, s, LINE_START_ID)
        p = output_probs(model, ctx, o_t, v_hat, h_hat)
        p_g = mdl.generic_distribution(model, o_t, v_hat, h_hat)
        assert np.array_equal(p.data, p_g.data)
        assert topic_distribution(model, ctx, o_t, v_hat, h_hat) is None

    def test_probability_vector_and_offtopic_scaling(self, model, rng):
        lam = model.config.topic_weight
        for _ in range(20):
            keywords = [(rng.below(20), rng.below(20))]
            ctx = prepare_context(model, features_for(model.config, rng),
                                  keywords, [rng.below(20)])
            s = mdl.init_state(model, ctx.h_states)
            s, o_t, h_hat, v_hat = decode_step(model, ctx, s, LINE_START_ID)
            p = output_probs(model, ctx, o_t, v_hat, h_hat)
            p_g = mdl.generic_distribution(model, o_t, v_hat, h_hat)
            p_t = topic_distribution(model, ctx, o_t, v_hat, h_hat)
            assert np.all(p.data >= 0.0)
            assert abs(p.data.sum() - 1.0) < 1e-9
            outside = np.ones(20, dtype=bool)
            outside[list(ctx.topic_ids)] = False
            # off-topic characters carry exactly the scaled generic mass
            assert np.max(np.abs(p.data[outside]
                                 - p_g.data[outside] / (1 + lam))) < 1e-15
            assert np.all(p_t.data[outside] == 0.0)
            # normalization never moves the argmax
            unnormalized = lam * p_t.data + p_g.data
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

    def test_topic_head_scores_only_the_topic_rows(self, model, rng,
                                                   monkeypatch):
        ctx = prepare_context(model, features_for(model.config, rng),
                              [(3, 4), (9,)], [1])
        s = mdl.init_state(model, ctx.h_states)
        s, o_t, h_hat, v_hat = decode_step(model, ctx, s, LINE_START_ID)
        rows = []
        matmul = nm.matmul

        def recording(a, b):
            if a.data.ndim == 2:
                rows.append(a.shape[0])
            return matmul(a, b)

        monkeypatch.setattr(nm, "matmul", recording)
        p_topic = topic_distribution(model, ctx, o_t, v_hat, h_hat)
        monkeypatch.undo()
        assert rows == [model.config.hidden_dim, len(ctx.topic_ids)]
        features = nm.concat([o_t, v_hat, h_hat])
        full = nm.gather(model.head_topic.logits(features), ctx.topic_ids)
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
            assert len(ctx.h_states) == (i * g if i else 1)
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
