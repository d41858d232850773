"""Self-test of the benchmark's own pieces at toy sizes (a few seconds).

The reference decoder and scorer must agree with the package, the
benchmark's recall scoring with ``keyword_recall``, and the tracer must
put every wrapped function back and account for its time.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import imagepoet as ip  # noqa: E402
from imagepoet import datapipe, layers, model as mdl  # noqa: E402
from imagepoet.verify import toy_sample  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

TOY = dict(vocab_size=20, hidden_dim=8, memory_dim=8, topic_weight=0.5,
           visual_count=4, visual_dim=6, lines_per_poem=4, chars_per_line=5)


@pytest.fixture
def toy():
    config = ip.ModelConfig(**TOY)
    m = ip.init_params(config, ip.SeededRng(5))
    ref = reference.Reference({n: t.data for n, t in m.parameters()},
                              config.topic_weight, config.chars_per_line,
                              config.lines_per_poem)
    return config, m, ref


def test_reference_matches_package(toy):
    config, m, ref = toy
    rng = ip.SeededRng(11)
    for i in range(12):
        s = toy_sample(config, rng, with_preceding=bool(i % 2),
                       keyword_count=i % 3)
        program = ip.cross_entropy_loss(m, [s]).item() * len(s.target)
        assert abs(ref.loss_sum(s.features, s.keywords, s.preceding,
                                s.target) - program) < 1e-10
        assert ref.poem(s.features, s.keywords) == ip.generate_poem(
            m, s.features, s.keywords)


def test_reference_catches_a_changed_parameter(toy):
    config, m, ref = toy
    s = toy_sample(config, ip.SeededRng(3), with_preceding=True,
                   keyword_count=2)
    before = ref.loss_sum(s.features, s.keywords, s.preceding, s.target)
    ref.p["head.generic.w_out"] = ref.p["head.generic.w_out"] * 1.01
    assert abs(ref.loss_sum(s.features, s.keywords, s.preceding, s.target)
               - before) > 1e-6


def test_recall_scoring_matches_package(tmp_path):
    corpus = inputs.paper_corpus(str(tmp_path), 3, 40, (2, 3), 2, 4,
                                 n_images=4, n_poems=2)
    lexicon = datapipe.load_concept_lexicon(corpus.lexicon)
    rng = np.random.default_rng(0)
    for image in corpus.images:
        reals = [corpus.realization[c] for c in image["concepts"]]
        pool = [c for r in reals for c in r] + [2, 3]
        for _ in range(20):
            poem = [[int(c) for c in rng.choice(pool, 4)] for _ in range(2)]
            assert reference.recall(poem, [[r] for r in reals]) == \
                ip.keyword_recall(poem, image["concepts"], lexicon)


def test_tracer_accounts_and_restores(toy):
    config, m, _ = toy
    originals = (mdl.decode_step, layers.attend, ip.generate_poem,
                 ip.numerics.Tape.gradients, layers.OutputHead.logits)
    tracer = tracing.Tracer()
    tracer.install(ip)
    try:
        assert mdl.decode_step is not originals[0]
        tracer.enabled = True
        tracer.run_id = 1
        s = toy_sample(config, ip.SeededRng(4), with_preceding=False,
                       keyword_count=2)
        ip.generate_poem(m, s.features, s.keywords)
        with ip.Tape() as tape:
            loss = ip.cross_entropy_loss(m, [s])
        tape.gradients(loss)
        tracer.enabled = False
    finally:
        tracer.remove()
    assert (mdl.decode_step, layers.attend, ip.generate_poem,
            ip.numerics.Tape.gradients, layers.OutputHead.logits) == originals
    table = tracer.self_times()
    steps = config.lines_per_poem * config.chars_per_line
    assert table["model.generate_poem"][1] == 1
    assert table["layers.attend.visual"][1] == steps + len(s.target)
    assert table["layers.head.topic"][1] == steps + len(s.target)
    assert table["numerics.backward"][1] == 1
    assert tracer.counts["visual_key_projections"] == steps
    assert sum(row[2] for row in table.values()) == pytest.approx(
        tracer.covered_time(), rel=1e-9)
    start = min(span[1] for span in tracer.spans)
    end = max(span[2] for span in tracer.spans)
    assert tracer.span_problems({1: (start, end)}) == []
    assert tracer.span_problems({1: (start, end - 1e-3)}) != []
    assert tracer.span_problems({2: (start, end)}) != []
    child = next(span for span in tracer.spans if span[3] >= 0)
    child[2] = tracer.spans[child[3]][2] + 1e-3
    assert any("parent" in p
               for p in tracer.span_problems({1: (start, end + 1e-3)}))
