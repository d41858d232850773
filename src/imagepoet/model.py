"""The full image-to-poem generator.

A poem is produced line by line from one image: its keyword memory and
visual feature rows are prepared once (prepare_image) and shared by
every line.  For each line the preceding lines are encoded with a
Bi-GRU, whose forward pass goes on from the previous line's forward
states (prepare_context), then characters are decoded greedily: at each
step the previous state queries attention over both the encoded context
and the visual feature rows, a GRU updates the state, the keyword memory
turns the state topic-aware, and two softmax heads are mixed into the
output distribution with extra mass on keyword characters.

Lines are decoded in reverse (rhyme-bearing character first) and flipped
back before they are returned, mirroring the training-time inversion of
target lines.

A decode step is three parts: decoder_input (both attention streams),
the decoder GRU and output_side.  Teacher-forced scoring runs the same
parts, but steps the states of many samples through the GRU as one
matrix and scores each sample's states afterwards (training._loss_sums).
"""

import dataclasses

import numpy as np

from . import numerics as nm
from . import topic_memory as tmem
from .errors import ConfigError, DimensionError
from .layers import (AttentionParams, EmbeddingTable, GRUCell, OutputHead,
                     ParamGroup, attend, gru_step, bigru_encode, check_ids,
                     param, project_keys)
from .numerics import Tensor

# Reserved vocabulary ids.
LINE_START_ID = 0   # fed as y_0 of every line
POEM_START_ID = 1   # stands in for the empty preceding context


def require_integer(name, value, low=None):
    """Raise ConfigError unless value is an int, not a bool, and >= low."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    if low is not None and value < low:
        raise ConfigError("%s must be >= %d, got %d" % (name, low, value))


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
            require_integer(name, getattr(self, name), 1)
        weight = self.topic_weight
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ConfigError("topic_weight must be a number, got %r"
                              % (weight,))
        if not 0.0 <= weight <= 1.0:
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


class StateMap(ParamGroup):
    """The initial decoder state's map of the mean context: tanh(w m + b)."""

    _FIELDS = ("w", "b")


class PoemModel:
    """All learned parameters plus the config that shaped them.

    parts lists (checkpoint prefix, attribute, part) in the canonical
    order; each part is set as the named attribute.
    """

    def __init__(self, config, parts):
        self.config = config
        self.parts = parts
        for _, attr, part in parts:
            setattr(self, attr, part)

    def parameters(self):
        """(path, tensor) pairs in a fixed canonical order."""
        return [(prefix + "." + name, tensor)
                for prefix, _, part in self.parts
                for name, tensor in part.parameters()]

    def zero_grads(self):
        for _, p in self.parameters():
            p.zero_grad()

    def param_count(self):
        return sum(p.size for _, p in self.parameters())


def init_params(config, rng=None):
    """Fresh model, every parameter uniform on [-0.08, 0.08] from rng.

    With rng None every parameter is zero; checkpoint loading fills such
    a model in.  Parameters are drawn in checkpoint order.
    """
    config.validate()
    h, v, dv = config.hidden_dim, config.vocab_size, config.visual_dim
    head_in = h + dv + 2 * h
    return PoemModel(config, [
        ("embedding", "embedding", EmbeddingTable.create(v, h, rng)),
        ("encoder.fw", "encoder_fw", GRUCell.create(h, h, rng)),
        ("encoder.bw", "encoder_bw", GRUCell.create(h, h, rng)),
        ("keyword.fw", "keyword_fw", GRUCell.create(h, h // 2, rng)),
        ("keyword.bw", "keyword_bw", GRUCell.create(h, h // 2, rng)),
        ("decoder", "decoder", GRUCell.create(h + 2 * h + dv, h, rng)),
        ("attention.text", "text_attention",
         AttentionParams.create(h, 2 * h, h, rng)),
        ("attention.visual", "visual_attention",
         AttentionParams.create(h, dv, h, rng)),
        ("head.generic", "head_generic", OutputHead.create(head_in, h, v, rng)),
        ("head.topic", "head_topic", OutputHead.create(head_in, h, v, rng)),
        ("init_state", "state_map",
         StateMap(param(rng, h, 2 * h), param(rng, h))),
    ])


@dataclasses.dataclass
class ImageContext:
    """What every line conditioned on one image shares (prepare_image).

    bank is the keyword memory of the image's keywords, and topic_ids the
    sorted ids of every character in them.  visual is the (key matrix, projection) pair of
    project_keys for its feature grid; a projection of None leaves attend
    to project the keys at each decode step.  forward lists the (ids,
    forward states) pair of each context prepared from this image so far
    (encode_context), which a later context that begins with the same
    characters extends.
    """

    bank: tmem.MemoryBank
    topic_ids: tuple
    visual: tuple
    forward: list


@dataclasses.dataclass
class GenerationContext:
    """Per-line inputs prepared for decoding (prepare_context).

    visual, bank and topic_ids are the image's (ImageContext).  text is
    the (key matrix, projection) pair of project_keys for the (n, 2h)
    matrix of context Bi-GRU states, projected once per context rather
    than at every decode step.  state is the initial decoder state.
    """

    visual: tuple
    bank: tmem.MemoryBank
    topic_ids: tuple
    state: Tensor
    text: tuple


def encode_context(model, preceding, earlier=()):
    """Bi-GRU states of a context, and the pair that lets a later one reuse
    its forward pass.

    Returns the (n, 2h) matrix of states, one row per preceding character,
    and the pair (ids, forward states).  An empty context encodes the
    single poem-start marker instead, so the first line still has
    something to attend over.  earlier holds such pairs from earlier
    calls.  A forward state depends only on the characters read so far,
    so the states of the longest prefix this context shares with any of
    them are reused, and the forward pass runs over the rest only; the
    backward pass runs in full.  A reused state equals a recomputed one
    to the bit when both input GEMMs have at least three rows: BLAS may
    round a one- or two-row product differently.
    """
    ids = tuple(int(c) for c in preceding) or (POEM_START_ID,)
    reused = ()
    for old_ids, states in earlier:
        shared = 0
        for a, b in zip(old_ids, ids):
            if a != b:
                break
            shared += 1
        if shared > len(reused):
            reused = states[:shared]
    h, forward = bigru_encode(model.encoder_fw, model.encoder_bw,
                              model.embedding.lookup(ids), reused)
    return h, (ids, forward)


def prepare_image(model, features, keywords, project=True):
    """The keyword bank, topic vocabulary and visual keys of one image.

    Built once and shared by every line prepared from it (prepare_context).
    project=False leaves the visual keys unprojected, so attend projects
    them at each decode step (generate_poem).
    """
    bank = tmem.encode_keywords(model.embedding, model.keyword_fw,
                                model.keyword_bw, keywords)
    config = model.config
    feats = np.asarray(features, dtype=np.float64)
    if feats.shape != (config.visual_count, config.visual_dim):
        raise DimensionError("visual features %s, expected (%d, %d)"
                             % (feats.shape, config.visual_count,
                                config.visual_dim))
    keys = Tensor(feats)
    return ImageContext(
        bank=bank,
        topic_ids=check_ids(
            tuple(sorted({int(c) for kw in keywords for c in kw})),
            config.vocab_size, "keyword"),
        visual=(project_keys(model.visual_attention, keys) if project
                else (keys, None)),
        forward=[])


def prepare_context(model, image, preceding):
    """Encode everything one line of an image needs.

    The context extends the forward encoder states of the image's earlier
    context that shares the longest prefix with it (encode_context), and
    its own pair joins image.forward.
    """
    h, forward = encode_context(model, preceding, image.forward)
    image.forward.append(forward)
    # The initial state, tanh of a learned map of the mean context, is
    # recorded before the key projection, so the backward pass adds the
    # mean's adjoint into h last.
    mean = nm.matmul(Tensor(np.full(h.shape[0], 1.0 / h.shape[0])), h)
    state = nm.tanh(nm.linear(mean, model.state_map.w, model.state_map.b))
    return GenerationContext(
        visual=image.visual,
        bank=image.bank,
        topic_ids=image.topic_ids,
        state=state,
        text=project_keys(model.text_attention, h))


@dataclasses.dataclass
class Step:
    """Everything one decoder step computed.

    address is None for an empty bank; p_topic is None with the topic
    bias off, and p is then p_generic.
    """

    state: Tensor
    topic_state: Tensor
    text_context: Tensor
    visual_context: Tensor
    text_weights: Tensor
    visual_weights: Tensor
    address: Tensor
    p_generic: Tensor
    p_topic: Tensor
    p: Tensor


def decoder_input(model, ctx, s_prev, y_prev):
    """The decoder GRU's input for one state, and both attention streams'
    (context, weights) pairs.

    Both streams are queried with the previous state; the input is the
    previous character's embedding and both contexts.  Nothing here
    depends on the output side (see output_side), so a teacher-forced
    pass runs the recurrence alone, the rows of several samples stepping
    through one gru_step together, and scores its states afterwards.
    """
    text = attend(model.text_attention, s_prev, *ctx.text)
    visual = attend(model.visual_attention, s_prev, *ctx.visual)
    x = nm.concat([model.embedding.lookup(y_prev), text[0], visual[0]])
    return x, text, visual


def output_side(model, ctx, state, visual_context, text_context):
    """(topic_state, address, p_generic, p_topic, p) of decoder states.

    state is one state or a (T, h) matrix of them, and the contexts are
    the matching vectors or matrices; a matrix scores every row in one
    pass and each result has one row per state.  The state addresses the
    keyword memory; an empty bank degrades to topic_state == state and no
    address (the no-keywords variant).  The head input [topic_state;
    visual_context; text_context] is built once for both output heads.
    """
    z = None
    o = state
    if ctx.bank.size:
        z = tmem.address(ctx.bank, state)
        o = tmem.fuse(tmem.read(ctx.bank, z), state)
    features = nm.concat([o, visual_context, text_context],
                         axis=state.data.ndim - 1)
    return (o, z) + output_probs(model, ctx, features)


def decode_step(model, ctx, s_prev, y_prev):
    """One decoder step: the decoder GRU over decoder_input, then the
    output side of its state."""
    x, (h_hat, text_weights), (v_hat, visual_weights) = decoder_input(
        model, ctx, s_prev, y_prev)
    s_t = gru_step(model.decoder, s_prev, x)
    o_t, z, p_generic, p_topic, p = output_side(model, ctx, s_t, v_hat, h_hat)
    return Step(state=s_t, topic_state=o_t, text_context=h_hat,
                visual_context=v_hat, text_weights=text_weights,
                visual_weights=visual_weights, address=z,
                p_generic=p_generic, p_topic=p_topic, p=p)


def output_probs(model, ctx, features):
    """(p_generic, p_topic, p) from the head input features.

    features is one head input or a matrix of them, one per row.  p_topic
    scores only the topic vocabulary's columns and is zero elsewhere;
    p = (weight * p_topic + p_generic) / (1 + weight).  Zero weight or an
    empty topic vocabulary turns the bias off (see Step).
    """
    p_generic = nm.softmax(model.head_generic.logits(features))
    weight = model.config.topic_weight
    if weight == 0.0 or not ctx.topic_ids:
        return p_generic, None, p_generic
    restricted = nm.softmax(_topic_logits(model, ctx, features))
    p_topic = nm.scatter(restricted, ctx.topic_ids, model.config.vocab_size)
    p = nm.scale(nm.add(nm.scale(p_topic, weight), p_generic),
                 1.0 / (1.0 + weight))
    return p_generic, p_topic, p


def _topic_logits(model, ctx, features):
    """The topic head's logits of the topic vocabulary, one call per row.

    Each row of a matrix of features is its own head call: the benchmark's
    tracer self-test (bench/test_selftest.py) counts one topic-head call
    per teacher-forced step.  The generic head, whose 6000-row output
    layer costs most, scores a matrix in one call.
    """
    head = model.head_topic
    if features.data.ndim == 1:
        return head.logits(features, rows=ctx.topic_ids)
    return nm.stack([head.logits(nm.take(features, t), rows=ctx.topic_ids)
                     for t in range(features.shape[0])])


def greedy_decode_reversed(model, ctx):
    """Greedy character ids in emission order (reversed reading order)."""
    s = ctx.state
    y_prev = LINE_START_ID
    emitted = []
    for _ in range(model.config.chars_per_line):
        step = decode_step(model, ctx, s, y_prev)
        s = step.state
        y_prev = int(np.argmax(step.p.data))
        emitted.append(y_prev)
    return emitted


def generate_line(model, ctx):
    """One line in natural reading order."""
    return list(reversed(greedy_decode_reversed(model, ctx)))


def generate_poem(model, features, keywords):
    """Full poem; each line is conditioned on all previously generated ones.

    The poem's lines share one image (prepare_image).  Each line's context
    is the previous line's context plus that line, so its forward encoder
    pass goes on from the previous context's forward states and reads the
    new line only.  The visual keys are still projected at every decode
    step, the figure the benchmark's tracer self-test pins (ROADMAP open
    item 1).
    """
    image = prepare_image(model, features, keywords, project=False)
    lines = []
    for _ in range(model.config.lines_per_poem):
        preceding = [c for line in lines for c in line]
        lines.append(generate_line(model,
                                   prepare_context(model, image, preceding)))
    return lines
