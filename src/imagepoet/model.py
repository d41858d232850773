"""The full image-to-poem generator.

A poem is produced line by line from one image: its keyword memory and
visual feature rows are prepared once (prepare_image) and shared by
every line.  For each line the preceding lines are encoded with a
Bi-GRU, whose forward pass reads the forward states of the previous
lines' contexts from the image and steps the new line only
(prepare_contexts), then characters are decoded greedily: at each step
the previous state queries attention over both the encoded context and
the visual feature rows, a GRU updates the state, the keyword memory
turns the state topic-aware, and two softmax heads are mixed into the
output distribution with extra mass on keyword characters.

Lines are decoded in reverse (rhyme-bearing character first) and flipped
back before they are returned, mirroring the training-time inversion of
target lines.

A decode step is step_rows, which advances a (B, h) matrix of decoder
states by one character, each row attending with its own state and
context, then head_input (the keyword memory read) and head_probs (both
heads and their mixture).  Greedy decoding steps one row (decode_step);
teacher-forced scoring (training._loss_sums) steps many samples' rows at
once.  Either way a weight that every row multiplies is read once for
all of them, as one GEMM:
* prepare_contexts maps the stacked means of all its contexts to their
  initial states with one state-map linear, and projects the text keys
  of all of them with one matmul over their concatenation;
* step_rows projects every row's query with one linear per attention
  stream, and steps the rows' states with one decoder gru_step;
* head_probs runs each head's hidden layer once over all the rows, and
  the generic head's output layer too.
What stays per row: each row's attention over its own keys (attend),
its embedding lookup, and the topic head's output layer over its own
topic vocabulary.  The benchmark's tracer self-test
(bench/test_selftest.py) counts one attend call per stream and one
topic-head logits call per decode or scored step, and rows that read one
embedding row add into it in row order, which fixes gradient bits.
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
    sorted ids of every character in them.  visual is the (key matrix,
    projection) pair of project_keys for its feature grid; a projection of
    None leaves attend to project the keys at each decode step.  forward
    maps each id prefix of the contexts prepared from this image so far
    to its forward encoder state (layers.bigru_encode), which a later
    context that begins with the same ids reads instead of stepping.
    """

    bank: tmem.MemoryBank
    topic_ids: tuple
    visual: tuple
    forward: dict


@dataclasses.dataclass
class GenerationContext:
    """Per-line inputs prepared for decoding (prepare_contexts).

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


def prepare_image(model, features, keywords, project=True):
    """The keyword bank, topic vocabulary and visual keys of one image.

    Built once and shared by every line prepared from it (prepare_contexts).
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
        forward={})


def prepare_contexts(model, lines):
    """Encode everything each of many lines needs, one GenerationContext
    per (image, preceding ids) pair of lines.

    All the contexts are encoded by one bigru_encode call, so a prefix
    that several share is stepped once.  An empty context encodes the
    single poem-start marker instead, so the first line still has
    something to attend over.  The call reads and extends the forward
    states of every image in lines; afterwards the images share one map,
    since a forward state depends on the ids alone.
    """
    forward = {}
    for image, _ in lines:
        forward.update(image.forward)
        image.forward = forward
    encoded = bigru_encode(
        model.encoder_fw, model.encoder_bw, model.embedding,
        [tuple(int(c) for c in preceding) or (POEM_START_ID,)
         for _, preceding in lines], forward)
    sizes = [h.shape[0] for h in encoded]
    # Each initial state is tanh of a learned map of its context's mean;
    # the means are stacked, so the map reads its weight once for all.
    means = nm.stack([nm.matmul(Tensor(np.full(n, 1.0 / n)), h)
                      for n, h in zip(sizes, encoded)])
    states = nm.rows(nm.tanh(nm.linear(means, model.state_map.w,
                                       model.state_map.b)))
    _, projected = project_keys(model.text_attention, nm.concat(encoded))
    return [GenerationContext(visual=image.visual, bank=image.bank,
                              topic_ids=image.topic_ids, state=state,
                              text=(h, keys))
            for (image, _), h, state, keys in zip(
                lines, encoded, states, nm.blocks(projected, sizes))]


def prepare_context(model, image, preceding):
    """The GenerationContext of one line (prepare_contexts)."""
    return prepare_contexts(model, [(image, preceding)])[0]


@dataclasses.dataclass
class Step:
    """Everything one decoder step of one state computed, as vectors.

    address is None for an empty bank, and topic_state is then state;
    p_topic is None with the topic bias off, and p then equals p_generic.
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


def step_rows(model, ctxs, matrix, y_prev):
    """One decoder step of B rows: (matrix, states, text, visual).

    matrix is the (B, h) matrix of the rows' states; row b decodes with
    ctxs[b] after the id y_prev[b].  Each attention stream projects all
    the rows' queries with one linear, split into rows by one nm.rows.
    Each row in turn then attends over its text, then its visual keys;
    its decoder input is the previous id's embedding and both contexts.
    One nm.stack, one gru_step and one nm.rows step them all, and states
    is the new matrix's rows.  text and visual hold each row's attention
    (context, weights) pair.  Rows that read one id add into one
    embedding row, so this per-row order fixes gradient bits.
    """
    streams = (model.text_attention, model.visual_attention)
    text_q, visual_q = (nm.rows(nm.linear(matrix, params.query_proj))
                        for params in streams)
    inputs, text, visual = [], [], []
    for ctx, tq, vq, y in zip(ctxs, text_q, visual_q, y_prev, strict=True):
        text.append(attend(model.text_attention, tq, *ctx.text))
        visual.append(attend(model.visual_attention, vq, *ctx.visual))
        inputs.append(nm.concat([model.embedding.lookup(y), text[-1][0],
                                 visual[-1][0]]))
    matrix = gru_step(model.decoder, matrix, nm.stack(inputs))
    return matrix, nm.rows(matrix), text, visual


def head_input(model, ctx, states, visual_contexts, text_contexts):
    """(features, topic_state, address) of a (T, h) matrix of decoder
    states and the matching matrices of their contexts, one row each.

    The states address the keyword memory; an empty bank degrades to
    topic_state == states and no address (the no-keywords variant).
    features, the head input [topic_state; visual_context; text_context],
    is built once for both output heads.
    """
    z = None
    o = states
    if ctx.bank.size:
        z = tmem.address(ctx.bank, states)
        o = tmem.fuse(tmem.read(ctx.bank, z), states)
    features = nm.concat([o, visual_contexts, text_contexts], axis=1)
    return features, o, z


def decode_step(model, ctx, s_prev, y_prev):
    """One decoder step of one state: step_rows on a one-row matrix, then
    the keyword memory and both heads on (1, .) matrices, returned as a
    Step of their row-0 vectors."""
    matrix, (s_t,), [(h_hat, text_weights)], [(v_hat, visual_weights)] = (
        step_rows(model, [ctx], nm.stack([s_prev]), [y_prev]))
    features, o_t, z = head_input(model, ctx, matrix, nm.stack([v_hat]),
                                  nm.stack([h_hat]))
    [(p_generic, p_topic, p)] = head_probs(model, [ctx], [features])

    def row(t):
        return None if t is None else nm.take(t, 0)

    return Step(state=s_t, topic_state=s_t if z is None else row(o_t),
                text_context=h_hat, visual_context=v_hat,
                text_weights=text_weights, visual_weights=visual_weights,
                address=row(z), p_generic=row(p_generic),
                p_topic=row(p_topic), p=row(p))


def _topic_on(model, ctx):
    """Whether the topic bias applies to ctx: a nonzero weight and a
    nonempty topic vocabulary."""
    return model.config.topic_weight != 0.0 and bool(ctx.topic_ids)


def head_probs(model, ctxs, features):
    """Yield (p_generic, p_topic, p) of each context's (T, .) matrix of
    head inputs in turn, features[i] for ctxs[i].

    The rows of all the contexts are joined, so each head's hidden layer
    reads its weight once for all of them, as does the generic head's
    output layer; one nm.blocks record per head hands each context its
    rows.  The topic head's hidden layer runs only when the topic bias
    applies to some context (output_probs).  Each context's mixture is
    made when it is asked for, so a caller that lets one go before the
    next holds one context's (T, vocab) arrays at a time.
    """
    sizes = [f.shape[0] for f in features]
    joined = nm.concat(features)
    head = model.head_generic
    generic = nm.blocks(nm.softmax(head.logits(head.hidden(joined))), sizes)
    topic = [None] * len(ctxs)
    if any(_topic_on(model, ctx) for ctx in ctxs):
        topic = nm.blocks(model.head_topic.hidden(joined), sizes)
    for ctx, hidden, p_generic in zip(ctxs, topic, generic):
        yield (p_generic,) + output_probs(model, ctx, hidden, p_generic)


def output_probs(model, ctx, topic_hidden, p_generic):
    """(p_topic, p) from the (T, .) matrix of the topic head's hidden rows
    for one context and their generic distributions p_generic, the
    generic head's softmax.

    p_topic scores only the topic vocabulary's columns and is zero
    elsewhere; p = (weight * p_topic + p_generic) / (1 + weight).  Zero
    weight or an empty topic vocabulary turns the bias off: p_topic is
    None, p is p_generic and topic_hidden is not read (see Step).
    """
    if not _topic_on(model, ctx):
        return None, p_generic
    weight = model.config.topic_weight
    restricted = nm.softmax(_topic_logits(model, ctx, topic_hidden))
    p_topic = nm.scatter(restricted, ctx.topic_ids, model.config.vocab_size)
    p = nm.scale(nm.add(nm.scale(p_topic, weight), p_generic),
                 1.0 / (1.0 + weight))
    return p_topic, p


def _topic_logits(model, ctx, hidden):
    """The topic head's logits of the topic vocabulary, one output-layer
    call per row of its hidden layer.

    The hidden layer, whose weight every row shares, ran once for the
    rows of all contexts (head_probs).  The output layer reads only the
    rows of ctx's topic vocabulary, a different set per image, and stays
    one call per row: the benchmark's tracer self-test
    (bench/test_selftest.py) counts one topic-head logits call per
    decode or scored step.
    """
    return nm.stack([model.head_topic.logits(nm.take(hidden, t),
                                             rows=ctx.topic_ids)
                     for t in range(hidden.shape[0])])


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
    pass reads the previous context's forward states from the image and
    steps the new line only.  The visual keys are still projected at every
    decode step, the figure the benchmark's tracer self-test pins (ROADMAP
    open item 1).
    """
    image = prepare_image(model, features, keywords, project=False)
    lines = []
    for _ in range(model.config.lines_per_poem):
        preceding = [c for line in lines for c in line]
        lines.append(generate_line(model,
                                   prepare_context(model, image, preceding)))
    return lines
