import math
import weakref

import numpy as np
import pytest

from imagepoet import model as mdl
from imagepoet import numerics as nm
from imagepoet import training
from imagepoet.errors import ConfigError, NumericalError, VocabularyError
from imagepoet.model import init_params
from imagepoet.numerics import SWEEP_BLOCK, Tape, Tensor
from imagepoet.rng import SeededRng
from imagepoet.training import (AdaDeltaState, TrainConfig, TrainSample,
                                accumulate_gradients, adadelta_update,
                                clip_gradients, cross_entropy_loss,
                                evaluate_loss, train)

from conftest import toy_config
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
            ctx = mdl.prepare_context(model, sample.features,
                                      sample.keywords, sample.preceding)
            s, y_prev, want = ctx.state, mdl.LINE_START_ID, None
            for target_id in reversed(sample.target):
                step = mdl.decode_step(model, ctx, s, y_prev)
                term = nm.log(nm.take(step.p, target_id))
                want = term if want is None else nm.add(want, term)
                s, y_prev = step.state, target_id
            want = nm.scale(want, -1.0)
        want_grads = tape.gradients(want)
        with Tape() as tape:
            got, n = training._sample_loss_sum(model, sample)
        got_grads = tape.gradients(got)
        assert n == len(sample.target)
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

    def test_target_outside_vocab_rejected(self, model, rng):
        sample = make_sample(model.config, rng)
        bad = TrainSample(features=sample.features, keywords=sample.keywords,
                          preceding=sample.preceding,
                          target=(model.config.vocab_size,) * 5)
        with pytest.raises(VocabularyError):
            cross_entropy_loss(model, [bad])


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
        x.grad[SWEEP_BLOCK + 1] = float("inf")
        with pytest.raises(NumericalError, match="'late'"):
            adadelta_update(state, params)


class TestGradientAccumulation:
    def test_matches_per_sample_reduction(self, model, rng):
        # The oracle sums per-sample tapes' gradients, then scales by
        # 1/chars, independently of the batch tape.
        batch = make_pool(model.config, rng, 3)
        want = {name: np.zeros(p.shape) for name, p in model.parameters()}
        chars = 0
        for sample in batch:
            with Tape() as tape:
                loss_sum, n = training._sample_loss_sum(model, sample)
            grads = tape.gradients(loss_sum)
            chars += n
            for name, p in model.parameters():
                if p in grads:
                    want[name] += grads[p]
        model.zero_grads()
        accumulate_gradients(model, batch)
        inv = 1.0 / chars
        for name, p in model.parameters():
            assert np.max(np.abs(want[name] * inv - p.grad)) < 1e-12, name

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
        # Five samples in chunks of two: three tapes of 2, 2 and 1 samples,
        # each pass adding into the arrays the first one returned.
        monkeypatch.setattr(training, "GRADIENT_CHUNK", 2)
        batch = make_pool(model.config, rng, 5)
        want = {name: np.zeros(p.shape) for name, p in model.parameters()}
        chars = 0
        for sample in batch:
            with Tape() as tape:
                loss_sum, n = training._sample_loss_sum(model, sample)
            grads = tape.gradients(loss_sum)
            chars += n
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
        best = result.load_model()
        assert abs(evaluate_loss(best, valid) - result.best_valid) < 1e-12

    def test_nan_validation_loss_is_a_numerical_error(self, config, rng):
        pool = make_pool(config, rng, 4, preceding_len=0)
        valid = make_pool(config, rng, 1, preceding_len=0)
        valid[0].features[0, 0] = np.nan
        model = init_params(config, SeededRng(24))
        with pytest.raises(NumericalError):
            train(model, pool, valid,
                  TrainConfig(batch_size=2, max_epochs=2, seed=1))

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
                            if p._grad is not None])
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

    def test_mixed_preceding_lengths_batch_cleanly(self, config, rng):
        pool = (make_pool(config, rng, 3, preceding_len=0)
                + make_pool(config, rng, 3, preceding_len=5)
                + make_pool(config, rng, 2, preceding_len=10))
        model = init_params(config, SeededRng(25))
        result = train(model, pool, pool[:2],
                       TrainConfig(batch_size=4, max_epochs=2, seed=3))
        assert len(result.history) == 2
