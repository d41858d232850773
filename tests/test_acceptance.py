"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np

from imagepoet import numerics as nm
from imagepoet import topic_memory as tmem
from imagepoet.checkpoint import checkpoint_bytes, model_from_bytes
from imagepoet.datapipe import ConceptLexicon, keyword_recall
from imagepoet.layers import AttentionParams, GRUCell, attend, bigru_encode, gru_step
from imagepoet.model import (LINE_START_ID, ModelConfig, decode_step,
                             generate_line, generate_poem, init_params,
                             prepare_context)
from imagepoet.numerics import Tensor
from imagepoet.rng import SeededRng
from imagepoet.training import (TrainConfig, TrainSample, cross_entropy_loss,
                                evaluate_loss, train)
from imagepoet.verify import (distribution_invariants, full_model_grad_check,
                              toy_sample)

from conftest import toy_config
from oracles import (address_ref, attend_ref, batch_loss_ref, bigru_ref,
                     gru_step_ref, read_ref)
from poetics_cases import CASES, lexicon as poetics_lexicon
from imagepoet.poetics import validate_form

ACCEPT_CONFIG = toy_config()


def report(line):
    print("\n" + line)


def test_criterion_1_gradient_correctness():
    rng = SeededRng(71)
    model = init_params(ACCEPT_CONFIG, rng)
    sample = toy_sample(ACCEPT_CONFIG, rng, with_preceding=True,
                        keyword_count=2)
    started = time.time()
    grad = full_model_grad_check(model, sample, h=1e-5)
    elapsed = time.time() - started
    assert grad.max_error < 1e-5, grad.worst_param
    assert elapsed < 60.0
    report("PASS criterion 1: gradient check on %d parameters, max relative "
           "error %.3e (worst %s), %.1fs"
           % (model.param_count(), grad.max_error, grad.worst_param, elapsed))


def test_criterion_2_distribution_invariants():
    model = init_params(ACCEPT_CONFIG, SeededRng(72))
    dist = distribution_invariants(model, seed=172, steps=1000)
    assert dist.steps == 1000
    assert dist.max_weight_error <= 1e-9
    assert dist.max_address_error <= 1e-9
    assert dist.max_output_error <= 1e-9
    assert dist.topic_support_exact
    report("PASS criterion 2: 1000 decode steps; attention %.2e, "
           "addressing %.2e, output %.2e, topic support exact"
           % (dist.max_weight_error, dist.max_address_error,
              dist.max_output_error))


def test_criterion_3_ablation_identities():
    rng = SeededRng(73)
    model = init_params(ACCEPT_CONFIG, rng)
    n = ACCEPT_CONFIG.visual_count * ACCEPT_CONFIG.visual_dim
    features = rng.uniform_array(n, -1.0, 1.0).reshape(
        ACCEPT_CONFIG.visual_count, ACCEPT_CONFIG.visual_dim)
    keywords = [(3, 4), (9,)]
    steps = ACCEPT_CONFIG.chars_per_line

    # (a) zeroed memory vectors: the topic-aware state equals the state,
    # bitwise, at every step.
    ctx = prepare_context(model, features, keywords, [1, 2])
    ctx.bank = ctx.bank.zeroed()
    s = ctx.state
    y = LINE_START_ID
    for _ in range(steps):
        step = decode_step(model, ctx, s, y)
        s = step.state
        assert step.topic_state.data.tobytes() == s.data.tobytes()
        y = int(np.argmax(step.p.data))

    # (b) zeroed visual features: the visual context is exactly zero.
    ctx = prepare_context(model, np.zeros_like(features), keywords, [1, 2])
    s = ctx.state
    for _ in range(steps):
        step = decode_step(model, ctx, s, LINE_START_ID)
        s = step.state
        assert np.all(step.visual_context.data == 0.0)

    # (c) zero topic weight: the mixture is the generic distribution.
    model.config.topic_weight = 0.0
    ctx = prepare_context(model, features, keywords, [1, 2])
    s = ctx.state
    worst = 0.0
    for _ in range(steps):
        step = decode_step(model, ctx, s, LINE_START_ID)
        s = step.state
        p_g = nm.softmax(model.head_generic.logits(nm.concat(
            [step.topic_state, step.visual_context, step.text_context])))
        worst = max(worst, float(np.max(np.abs(step.p.data - p_g.data))))
    model.config.topic_weight = 0.5
    assert worst <= 1e-15
    report("PASS criterion 3: zeroed memory keeps o_t == s_t bitwise; "
           "zeroed features give v_hat == 0; lambda=0 mixture error %.1e"
           % worst)


def test_criterion_4_overfit_memorization():
    # Toy dims chosen for this criterion: topic_weight 0 keeps the output
    # path single-headed (any positive weight bounds the reachable
    # per-character likelihood through the untrainable-in-budget generic
    # mass requirement); the keyword memory itself stays active.
    config = ModelConfig(vocab_size=12, hidden_dim=8, memory_dim=8,
                         topic_weight=0.0, visual_count=4, visual_dim=6,
                         lines_per_poem=4, chars_per_line=4)
    rng = SeededRng(100)
    samples = []
    for _ in range(10):
        feats = rng.uniform_array(24, -1.0, 1.0).reshape(4, 6)
        target = tuple(rng.below(12) for _ in range(4))
        keywords = [tuple(rng.below(12) for _ in range(2)) for _ in range(2)]
        preceding = tuple(rng.below(12) for _ in range(4))
        samples.append(TrainSample(features=feats, keywords=keywords,
                                   preceding=preceding, target=target))
    model = init_params(config, SeededRng(200))
    started = time.time()
    tconfig = TrainConfig(batch_size=2, max_epochs=300, seed=7,
                          validate_every=300, eps=1e-4)
    train(model, samples, samples, tconfig)
    elapsed = time.time() - started
    loss = evaluate_loss(model, samples)
    reproduced = 0
    for sample in samples:
        ctx = prepare_context(model, sample.features, sample.keywords,
                              sample.preceding)
        if tuple(generate_line(model, ctx)) == sample.target:
            reproduced += 1
    assert elapsed < 600.0
    assert tconfig.max_epochs <= 500
    assert loss < 0.05
    assert reproduced == 10
    report("PASS criterion 4: %d epochs, per-character loss %.4f, "
           "%d/10 lines reproduced exactly, %.0fs"
           % (tconfig.max_epochs, loss, reproduced, elapsed))


def _efficacy_corpus(seed, vocab, chars):
    rng = SeededRng(seed)
    lexicon = ConceptLexicon({"k%d" % c: {(c,)} for c in range(2, vocab)})
    images, samples = [], []
    for _ in range(20):
        feats = rng.uniform_array(8, -1.0, 1.0).reshape(2, 4)
        a = 2 + rng.below(vocab - 2)
        b = 2 + rng.below(vocab - 2)
        while b == a:
            b = 2 + rng.below(vocab - 2)
        keywords = [(a,), (b,)]
        concepts = ["k%d" % a, "k%d" % b]
        images.append((feats, keywords, concepts))
        for _ in range(10):
            line = [a, b] + [2 + rng.below(vocab - 2)
                             for _ in range(chars - 2)]
            rng.shuffle(line)
            samples.append(TrainSample(features=feats, keywords=keywords,
                                       preceding=(), target=tuple(line)))
    return lexicon, images, samples


def test_criterion_5_topic_bias_efficacy():
    vocab, chars = 24, 5

    def mean_recall(seed, weight):
        config = ModelConfig(vocab_size=vocab, hidden_dim=8, memory_dim=8,
                             topic_weight=weight, visual_count=2,
                             visual_dim=4, lines_per_poem=1,
                             chars_per_line=chars)
        lexicon, images, samples = _efficacy_corpus(seed, vocab, chars)
        assert len(samples) == 200
        assert all(len(set(s.target) & {kw[0] for kw in s.keywords}) >= 2
                   for s in samples)
        model = init_params(config, SeededRng(seed + 1000))
        tconfig = TrainConfig(batch_size=16, max_epochs=3, seed=seed,
                              validate_every=3, eps=1e-4)
        train(model, samples, samples[:20], tconfig)
        total = 0.0
        for feats, keywords, concepts in images:
            poem = generate_poem(model, feats, keywords)
            total += keyword_recall(poem, concepts, lexicon)
        return total / len(images)

    biased = [mean_recall(seed, 0.5) for seed in range(5)]
    plain = [mean_recall(seed, 0.0) for seed in range(5)]
    mean_biased = sum(biased) / 5
    mean_plain = sum(plain) / 5
    assert mean_biased >= mean_plain
    report("PASS criterion 5: mean keyword recall over 5 seeds, "
           "lambda=0.5 %.3f >= lambda=0 %.3f" % (mean_biased, mean_plain))


def test_criterion_6_oracle_equivalence():
    rng = SeededRng(76)
    worst = {"gru_step": 0.0, "bigru": 0.0, "attend": 0.0,
             "address/read": 0.0, "loss": 0.0}

    for _ in range(100):
        cell = GRUCell.create(3, 4, rng)
        h = rng.uniform_array(4, -1.0, 1.0)
        x = rng.uniform_array(3, -1.0, 1.0)
        got = gru_step(cell, Tensor(h), Tensor(x)).data
        worst["gru_step"] = max(worst["gru_step"],
                                float(np.max(np.abs(got - gru_step_ref(cell, h, x)))))

    for _ in range(100):
        fw = GRUCell.create(3, 3, rng)
        bw = GRUCell.create(3, 3, rng)
        xs = [rng.uniform_array(3, -1.0, 1.0)
              for _ in range(1 + rng.below(4))]
        got = bigru_encode(fw, bw, [Tensor(x) for x in xs])
        ref = bigru_ref(fw, bw, xs)
        err = max(float(np.max(np.abs(g - r))) for g, r in zip(got.data, ref))
        worst["bigru"] = max(worst["bigru"], err)

    for _ in range(100):
        params = AttentionParams.create(4, 3, 4, rng)
        query = rng.uniform_array(4, -1.0, 1.0)
        keys = [rng.uniform_array(3, -1.0, 1.0)
                for _ in range(1 + rng.below(5))]
        ctx_got, w_got = attend(params, Tensor(query), Tensor(keys))
        ctx_ref, w_ref = attend_ref(params, query, keys)
        err = max(float(np.max(np.abs(w_got.data - w_ref))),
                  float(np.max(np.abs(ctx_got.data - ctx_ref))))
        worst["attend"] = max(worst["attend"], err)

    for _ in range(100):
        n = 1 + rng.below(5)
        keys = [rng.uniform_array(4, -1.0, 1.0) for _ in range(n)]
        contents = [rng.uniform_array(4, -1.0, 1.0) for _ in range(n)]
        bank = tmem.MemoryBank(Tensor(keys), Tensor(contents))
        state = rng.uniform_array(4, -1.0, 1.0)
        z = tmem.address(bank, Tensor(state))
        d = tmem.read(bank, z)
        err = max(float(np.max(np.abs(z.data - address_ref(keys, state)))),
                  float(np.max(np.abs(d.data - read_ref(contents, z.data)))))
        worst["address/read"] = max(worst["address/read"], err)

    model = init_params(ACCEPT_CONFIG, SeededRng(176))
    sample_rng = SeededRng(276)
    for _ in range(100):
        batch = [toy_sample(ACCEPT_CONFIG, sample_rng,
                            with_preceding=bool(sample_rng.below(2)),
                            keyword_count=sample_rng.below(3))
                 for _ in range(2)]
        got = cross_entropy_loss(model, batch).item()
        worst["loss"] = max(worst["loss"], abs(got - batch_loss_ref(model, batch)))

    for name, err in worst.items():
        assert err < 1e-10, "%s deviates from its oracle by %.3e" % (name, err)
    report("PASS criterion 6: oracle deviations over 100 instances each: "
           + ", ".join("%s %.1e" % (k, v) for k, v in worst.items()))


def test_criterion_7_poetics_truth_table():
    failures = []
    for case in CASES:
        result = validate_form(case.poem, case.pattern,
                               poetics_lexicon(case.tones_extra), 4, 3,
                               first_line_optional=case.first_optional)
        got_flags = (result.structure_ok, result.tone_ok, result.rhyme_ok)
        got_violations = {(v.rule, v.line, v.position)
                          for v in result.violations}
        if got_flags != case.flags or got_violations != case.violations:
            failures.append(case.name)
    assert not failures, failures
    report("PASS criterion 7: %d/30 poetics truth-table cases exact"
           % len(CASES))


def test_criterion_8_determinism_and_persistence():
    config = ModelConfig(vocab_size=16, hidden_dim=8, memory_dim=8,
                         topic_weight=0.5, visual_count=2, visual_dim=4,
                         lines_per_poem=2, chars_per_line=3)

    def train_once():
        rng = SeededRng(88)
        samples = [toy_sample(config, rng, with_preceding=False,
                              keyword_count=2) for _ in range(6)]
        model = init_params(config, SeededRng(888))
        result = train(model, samples, samples[:2],
                       TrainConfig(batch_size=3, max_epochs=3, seed=42))
        return result.best_checkpoint

    blob_a = train_once()
    blob_b = train_once()
    assert blob_a == blob_b

    model_a = model_from_bytes(blob_a)
    model_b = model_from_bytes(blob_b)
    rng = SeededRng(99)
    features = rng.uniform_array(8, -1.0, 1.0).reshape(2, 4)
    poem_a = generate_poem(model_a, features, [(3,), (4, 5)])
    poem_b = generate_poem(model_b, features, [(3,), (4, 5)])
    assert poem_a == poem_b

    round_trip = model_from_bytes(checkpoint_bytes(model_a))
    for (name, p), (_, q) in zip(model_a.parameters(),
                                 round_trip.parameters()):
        assert p.data.tobytes() == q.data.tobytes(), name
    report("PASS criterion 8: byte-identical checkpoints, identical poems, "
           "bitwise round-trip")


def test_criterion_9_paper_scale_shapes():
    config = ModelConfig()  # (6000, 512, 512, 196x512, lambda 0.5)
    assert (config.vocab_size, config.hidden_dim, config.memory_dim,
            config.visual_count, config.visual_dim,
            config.topic_weight) == (6000, 512, 512, 196, 512, 0.5)
    rng = SeededRng(79)
    model = init_params(config, rng)
    assert model.param_count() == config.param_count()

    features = rng.uniform_array(196 * 512, -1.0, 1.0).reshape(196, 512)
    ctx = prepare_context(model, features, [(3, 4), (5, 6, 7)], [2] * 7)
    s = ctx.state
    step = decode_step(model, ctx, s, LINE_START_ID)
    assert step.state.shape == (512,) and step.topic_state.shape == (512,)
    assert (step.text_context.shape == (1024,)
            and step.visual_context.shape == (512,))
    assert step.p.shape == (6000,)
    assert abs(float(step.p.data.sum()) - 1.0) < 1e-9
    report("PASS criterion 9: paper-scale config constructs %d parameters "
           "(closed form matches) and decodes one step" % model.param_count())
