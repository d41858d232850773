"""The full image-to-poem generator.

A poem is produced line by line.  For each line the preceding lines are
re-encoded with a Bi-GRU, then characters are decoded greedily: at each
step the previous state queries attention over both the encoded context
and the visual feature rows, a GRU updates the state, the keyword memory
turns the state topic-aware, and two softmax heads are mixed into the
output distribution with extra mass on keyword characters.

Lines are decoded in reverse (rhyme-bearing character first) and flipped
back before they are returned, mirroring the training-time inversion of
target lines.
"""

import dataclasses

import numpy as np

from . import numerics as nm
from . import topic_memory as tmem
from .errors import ConfigError, DimensionError, VocabularyError
from .layers import (AttentionParams, EmbeddingTable, GRUCell, OutputHead,
                     attend, gru_step, bigru_encode, param, project_keys)
from .numerics import Tensor

# Reserved vocabulary ids.
LINE_START_ID = 0   # fed as y_0 of every line
POEM_START_ID = 1   # stands in for the empty preceding context


def _gru_count(input_dim, hidden_dim):
    return 3 * (hidden_dim * input_dim + hidden_dim * hidden_dim + hidden_dim)


@dataclasses.dataclass
class ModelConfig:
    """Hyperparameters; defaults are the full-scale settings."""

    vocab_size: int = 6000
    hidden_dim: int = 512
    memory_dim: int = 512
    topic_weight: float = 0.5
    visual_count: int = 196
    visual_dim: int = 512
    lines_per_poem: int = 4
    chars_per_line: int = 7

    def validate(self):
        for name in ("vocab_size", "hidden_dim", "memory_dim", "visual_count",
                     "visual_dim", "lines_per_poem", "chars_per_line"):
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be positive" % name)
        if not 0.0 <= self.topic_weight <= 1.0:
            raise ConfigError("topic_weight must lie in [0, 1]")
        if self.hidden_dim % 2 != 0:
            raise ConfigError("hidden_dim must be even (keyword Bi-GRU "
                              "uses half width per direction)")
        if self.memory_dim != self.hidden_dim:
            raise ConfigError("memory_dim must equal hidden_dim so the "
                              "memory read can be added onto the state")
        return self

    def param_count(self):
        """Closed-form number of learned scalars."""
        v, h, dv = self.vocab_size, self.hidden_dim, self.visual_dim
        head_in = h + dv + 2 * h
        return (v * h                      # embedding
                + 2 * _gru_count(h, h)     # context encoder fw/bw
                + 2 * _gru_count(h, h // 2)  # keyword encoder fw/bw
                + _gru_count(h + 2 * h + dv, h)  # decoder cell
                + (h + h * h + h * 2 * h)  # text attention u/W/U
                + (h + h * h + h * dv)     # visual attention u/W/U
                + (h * 2 * h + h)          # initial-state map
                + 2 * (h * head_in + h + v * h + v))  # two output heads

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError("unknown config fields: %s" % sorted(unknown))
        return cls(**d).validate()


class PoemModel:
    """All learned parameters plus the config that shaped them."""

    def __init__(self, config, embedding, encoder_fw, encoder_bw,
                 keyword_fw, keyword_bw, decoder, text_attention,
                 visual_attention, init_w, init_b, head_generic, head_topic):
        self.config = config
        self.embedding = embedding
        self.encoder_fw = encoder_fw
        self.encoder_bw = encoder_bw
        self.keyword_fw = keyword_fw
        self.keyword_bw = keyword_bw
        self.decoder = decoder
        self.text_attention = text_attention
        self.visual_attention = visual_attention
        self.init_w = init_w
        self.init_b = init_b
        self.head_generic = head_generic
        self.head_topic = head_topic

    _CHILDREN = (
        ("embedding", "embedding"),
        ("encoder.fw", "encoder_fw"),
        ("encoder.bw", "encoder_bw"),
        ("keyword.fw", "keyword_fw"),
        ("keyword.bw", "keyword_bw"),
        ("decoder", "decoder"),
        ("attention.text", "text_attention"),
        ("attention.visual", "visual_attention"),
        ("head.generic", "head_generic"),
        ("head.topic", "head_topic"),
    )

    def parameters(self):
        """(path, tensor) pairs in a fixed canonical order."""
        out = []
        for prefix, attr in self._CHILDREN:
            for name, tensor in getattr(self, attr).parameters():
                out.append((prefix + "." + name, tensor))
        out.append(("init_state.w", self.init_w))
        out.append(("init_state.b", self.init_b))
        return out

    def zero_grads(self):
        for _, p in self.parameters():
            p.zero_grad()

    def param_count(self):
        return sum(p.size for _, p in self.parameters())


def init_params(config, rng=None):
    """Fresh model, every parameter uniform on [-0.08, 0.08] from rng.

    With rng None every parameter is zero; checkpoint loading fills such
    a model in.
    """
    config.validate()
    h, v, dv = config.hidden_dim, config.vocab_size, config.visual_dim
    embedding = EmbeddingTable.create(v, h, rng)
    encoder_fw = GRUCell.create(h, h, rng)
    encoder_bw = GRUCell.create(h, h, rng)
    keyword_fw = GRUCell.create(h, h // 2, rng)
    keyword_bw = GRUCell.create(h, h // 2, rng)
    decoder = GRUCell.create(h + 2 * h + dv, h, rng)
    text_attention = AttentionParams.create(h, 2 * h, h, rng)
    visual_attention = AttentionParams.create(h, dv, h, rng)
    head_in = h + dv + 2 * h
    head_generic = OutputHead.create(head_in, h, v, rng)
    head_topic = OutputHead.create(head_in, h, v, rng)
    init_w = param(rng, h, 2 * h)
    init_b = param(rng, h)
    return PoemModel(config, embedding, encoder_fw, encoder_bw, keyword_fw,
                     keyword_bw, decoder, text_attention, visual_attention,
                     init_w, init_b, head_generic, head_topic)


@dataclasses.dataclass
class GenerationContext:
    """Per-sample inputs prepared for decoding one line.

    visual and text are the (key matrix, projection) pairs of project_keys
    for the two attention streams, so the keys are projected once per
    context rather than at every decode step.  A projection of None leaves
    attend to project the keys at each step.
    """

    visual: tuple
    bank: tmem.MemoryBank
    topic_ids: tuple
    h_states: list
    text: tuple


def encode_context(model, preceding):
    """Bi-GRU states over the preceding characters (one per character).

    An empty context encodes the single poem-start marker instead, so the
    first line still has something to attend over.
    """
    ids = list(preceding)
    if not ids:
        ids = [POEM_START_ID]
    embs = [model.embedding.lookup(c) for c in ids]
    return bigru_encode(model.encoder_fw, model.encoder_bw, embs)


def visual_keys(model, features):
    """The feature grid as the visual attention's key matrix."""
    config = model.config
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape != (config.visual_count, config.visual_dim):
        raise DimensionError("visual features %s, expected (%d, %d)"
                             % (feats.shape, config.visual_count,
                                config.visual_dim))
    return Tensor(feats)


def project_visual(model, features):
    """The feature grid and its visual key projection (see project_keys)."""
    return project_keys(model.visual_attention, visual_keys(model, features))


def topic_vocabulary(keywords, vocab_size):
    """Sorted ids of every character appearing in the keywords."""
    ids = sorted({int(c) for kw in keywords for c in kw})
    for c in ids:
        if not 0 <= c < vocab_size:
            raise VocabularyError("keyword character id %d outside "
                                  "vocabulary of %d" % (c, vocab_size))
    return tuple(ids)


def prepare_context(model, features, keywords, preceding, bank=None,
                    visual=None):
    """Encode everything one line generation needs.

    bank and visual, when given, are the keyword bank and the (key matrix,
    projection) pair of these keywords and features, shared by a poem's
    lines.
    """
    if bank is None:
        bank = tmem.encode_keywords(model.embedding, model.keyword_fw,
                                    model.keyword_bw, keywords)
    if visual is None:
        visual = project_visual(model, features)
    h_states = encode_context(model, preceding)
    return GenerationContext(
        visual=visual,
        bank=bank,
        topic_ids=topic_vocabulary(keywords, model.config.vocab_size),
        h_states=h_states,
        text=project_keys(model.text_attention, h_states))


def init_state(model, h_states):
    """Initial decoder state: tanh of a learned map of the mean context."""
    mean = nm.mean_of(h_states)
    return nm.tanh(nm.add(nm.matmul(model.init_w, mean), model.init_b))


def decode_step(model, ctx, s_prev, y_prev):
    """One decoder step; returns (state, topic_state, text_ctx, visual_ctx).

    Both attention streams are queried with the previous state; the new
    state then addresses the keyword memory.  An empty bank degrades to
    topic_state == state (the no-keywords variant).
    """
    h_hat, _ = attend(model.text_attention, s_prev, *ctx.text)
    v_hat, _ = attend(model.visual_attention, s_prev, *ctx.visual)
    x = nm.concat([model.embedding.lookup(y_prev), h_hat, v_hat])
    s_t = gru_step(model.decoder, s_prev, x)
    if ctx.bank.size == 0:
        o_t = s_t
    else:
        z = tmem.address(ctx.bank, s_t)
        o_t = tmem.fuse(tmem.read(ctx.bank, z), s_t)
    return s_t, o_t, h_hat, v_hat


def generic_distribution(model, o_t, v_hat, h_hat):
    """Softmax over the whole vocabulary from the generic head."""
    features = nm.concat([o_t, v_hat, h_hat])
    return nm.softmax(model.head_generic.logits(features))


def topic_distribution(model, ctx, o_t, v_hat, h_hat):
    """Distribution restricted to the topic vocabulary; zero elsewhere.

    Only the topic vocabulary's rows of the head are evaluated.  Returns
    None when the topic vocabulary is empty (bias disabled).
    """
    if not ctx.topic_ids:
        return None
    features = nm.concat([o_t, v_hat, h_hat])
    restricted = nm.softmax(model.head_topic.logits(features,
                                                    rows=ctx.topic_ids))
    return nm.scatter(restricted, ctx.topic_ids, model.config.vocab_size)


def mix_distributions(p_generic, p_topic, weight):
    """Normalized topic-biased mixture (weight * p_topic + p_generic) / (1 + weight).

    Dividing by (1 + weight) makes the mixture a proper distribution; the
    argmax is unchanged because the divisor is a positive constant.
    """
    return nm.scale(nm.add(nm.scale(p_topic, weight), p_generic),
                    1.0 / (1.0 + weight))


def output_probs(model, ctx, o_t, v_hat, h_hat):
    """Next-character distribution over the whole vocabulary."""
    p_generic = generic_distribution(model, o_t, v_hat, h_hat)
    weight = model.config.topic_weight
    if weight == 0.0 or not ctx.topic_ids:
        return p_generic
    p_topic = topic_distribution(model, ctx, o_t, v_hat, h_hat)
    return mix_distributions(p_generic, p_topic, weight)


def greedy_decode_reversed(model, ctx):
    """Greedy character ids in emission order (reversed reading order)."""
    s = init_state(model, ctx.h_states)
    y_prev = LINE_START_ID
    emitted = []
    for _ in range(model.config.chars_per_line):
        s, o_t, h_hat, v_hat = decode_step(model, ctx, s, y_prev)
        p = output_probs(model, ctx, o_t, v_hat, h_hat)
        y = int(np.argmax(p.data))
        emitted.append(y)
        y_prev = y
    return emitted


def generate_line(model, ctx):
    """One line in natural reading order."""
    return list(reversed(greedy_decode_reversed(model, ctx)))


def generate_poem(model, features, keywords):
    """Full poem; each line is conditioned on all previously generated ones.

    The keyword bank and the visual key matrix are built once per poem;
    only the preceding lines change from line to line.  The visual keys
    are still projected at every decode step, the figure the benchmark's
    tracer self-test pins (ROADMAP open item 5).
    """
    bank = tmem.encode_keywords(model.embedding, model.keyword_fw,
                                model.keyword_bw, keywords)
    visual = (visual_keys(model, features), None)
    lines = []
    for _ in range(model.config.lines_per_poem):
        preceding = [c for line in lines for c in line]
        ctx = prepare_context(model, features, keywords, preceding, bank=bank,
                              visual=visual)
        lines.append(generate_line(model, ctx))
    return lines
