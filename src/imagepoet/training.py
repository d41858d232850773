"""Supervised training: teacher-forced cross entropy and AdaDelta.

Target lines are reversed before scoring so the model learns to emit the
rhyme-bearing final character first; generation undoes the reversal.
Teacher forcing feeds each step the previous target character, so the
decoder recurrence runs over whole targets first and the states are
scored afterwards.  The scorer's wave is the one unit of work: _waves
orders a batch's samples image by image and cuts them into runs of at
most WAVE_SAMPLES, and evaluation, cross_entropy_loss and
accumulate_gradients all score those runs (_wave_loss_sum).  The samples
of one image (the same grid array and keywords) in a wave share one
model.ImageContext, so its keyword bank and visual projection are built
once per wave; an image of more samples than a wave spans several.
Within a wave everything that reads one weight matrix for each sample or
row reads it once for the whole wave, as a GEMM rather than as one GEMV
per sample or row:
* one model.prepare_contexts call encodes all the wave's contexts, each
  Bi-GRU direction stepping the distinct prefixes of all of them depth
  by depth (layers.bigru_encode), maps their means to initial states
  with one state-map linear and projects their text keys in one matmul;
* every target is one line of chars_per_line characters, so one
  model.step_rows call per character steps all the wave's rows as one
  (B, h) matrix of states, and projects their attention queries with
  one linear per stream;
* both heads' hidden layers, and the generic head's output layer, read
  the (B * chars_per_line) head inputs of the whole wave in one call
  each (model.head_probs).
What stays per row or per sample, and why: each row's attention over
its own keys, and the topic head's output layer over its image's topic
vocabulary, are one call per row, the counts the benchmark's tracer
self-test pins (bench/test_selftest.py); each row's embedding lookup,
whose row order fixes gradient bits; and each sample's keyword memory
read, over its own bank.  A GEMM of many rows may round the adjoints
differently from one product per row, so gradients may differ from the
per-row products' in their last bits; the losses keep theirs
(tests/test_training.py::TestSharedWeights pins two).
No padding or masking is needed: targets share one length and contexts
are stepped as a tree of prefixes (layers.gru_run), so a batch mixes
context lengths freely.  accumulate_gradients records each wave on one
tape and runs its backward pass, which writes its gradients straight
into .grad on the calling thread, before it records the next wave; so
no tape holds more than WAVE_SAMPLES samples, whatever the batch size.

AdaDelta's two running averages are one flat array each, in the layout
of the parameters (AdaDeltaState), as the model's parameters are views
of one array.  The AdaDelta step and the zero fill of its averages are
elementwise sweeps over blocks of numerics.SWEEP_BLOCK values, which
past two blocks run on the calling thread and one worker thread
(numerics.sweep); each block's arithmetic is the same on either thread,
so the split changes no bit.  Every BLAS call (the clip's norm among
them) stays on the calling thread.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import model as mdl
from . import numerics as nm
from .checkpoint import checkpoint_bytes
from .errors import ConfigError, DomainError, NumericalError
from .layers import int_ids
from .numerics import Tape
from .rng import SeededRng

# Samples per wave (_waves).  One GEMM of B rows beats B GEMVs from about
# B = 3.  A wave's contexts are alive together, and accumulate_gradients
# holds one wave's records on its tape until its backward pass, about
# 22 MiB per paper-scale sample, so this bounds that memory whatever the
# batch size.
WAVE_SAMPLES = 16


@dataclasses.dataclass
class TrainSample:
    """One supervised instance: feature grid, keywords, context, target.

    poem names the poem whose line the target is (the corpus poem id that
    datapipe.build_samples gives it); datapipe.split_pool keeps the
    samples of one poem in one pool.
    """

    features: np.ndarray
    keywords: list
    preceding: tuple
    target: tuple
    poem: object = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.keywords = [int_ids(kw, "TrainSample keywords")
                         for kw in self.keywords]
        self.preceding = int_ids(self.preceding, "TrainSample preceding")
        self.target = int_ids(self.target, "TrainSample target")


@dataclasses.dataclass
class TrainConfig:
    batch_size: int = 128
    max_epochs: int = 10
    validate_every: int = 1   # epochs between validation passes
    rho: float = 0.95
    eps: float = 1e-6
    clip_norm: float = 5.0    # global-norm gradient clip; <= 0 disables
    seed: int = 1

    def validate(self):
        for name in ("batch_size", "max_epochs", "validate_every"):
            mdl.require_integer(name, getattr(self, name), 1)
        mdl.require_integer("seed", self.seed)
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must lie in [0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError("eps must lie in (0, inf), got %r" % self.eps)
        if math.isnan(self.clip_norm):
            raise ConfigError("clip_norm must not be nan")
        return self


def _image_key(sample):
    """Samples holding the same grid array and equal keywords are one
    image: build_samples gives every line of an image the same array."""
    return id(sample.features), tuple(sample.keywords)


def _waves(batch):
    """The batch's sample indices image by image, images in order of first
    appearance and each image's samples in batch order, cut into runs of
    at most WAVE_SAMPLES.  An empty batch is a DomainError."""
    if not batch:
        raise DomainError("cannot score an empty batch")
    images = {}
    for i, sample in enumerate(batch):
        images.setdefault(_image_key(sample), []).append(i)
    order = [i for group in images.values() for i in group]
    return [order[start:start + WAVE_SAMPLES]
            for start in range(0, len(order), WAVE_SAMPLES)]


def _wave_loss_sum(model, batch, wave):
    """Teacher-forced -log p summed over the reversed targets of the
    samples batch[i], i in wave (one run of _waves), added in batch order.

    Each image of the wave is prepared once (model.prepare_image), and
    all the samples' contexts in one model.prepare_contexts call with a
    fresh map of forward states, so nothing is shared across waves.  Every
    target is one line of chars_per_line characters, and each step's
    input is the previous target character, so the recurrence runs
    alone, one model.step_rows call per character advancing the (B, h)
    matrix of the whole wave's states, each row with its own context.
    Each sample then reads its keyword memory with all of its states as
    one matrix (model.head_input), and model.head_probs scores the head
    inputs of the whole wave: each head's hidden layer in one call, the
    generic head's output layer too, then each sample's topic output
    layer and mixture (model.output_probs).
    """
    g = model.config.chars_per_line
    targets = [mdl.check_ids(batch[i].target, model.config.vocab_size,
                             "target")[::-1] for i in wave]
    for target in targets:
        if len(target) != g:
            raise DomainError("target has %d characters, but a line has "
                              "chars_per_line = %d" % (len(target), g))
    lines = []
    for _, run in itertools.groupby(wave, lambda i: _image_key(batch[i])):
        run = list(run)
        first = batch[run[0]]
        image = mdl.prepare_image(model, first.features, first.keywords)
        lines += [(image, batch[i].preceding) for i in run]
    ctxs = mdl.prepare_contexts(model, lines, {})
    matrix = nm.stack([ctx.state for ctx in ctxs])
    y_prev = [mdl.LINE_START_ID] * len(wave)
    states, visual, text = ([[] for _ in wave] for _ in range(3))
    for t in range(g):
        matrix, step_states, text_t, visual_t = mdl.step_rows(
            model, ctxs, matrix, y_prev)
        for b, s in enumerate(step_states):
            states[b].append(s)
            text[b].append(text_t[b][0])
            visual[b].append(visual_t[b][0])
        y_prev = [target[t] for target in targets]
    features = [mdl.head_input(model, ctx, nm.stack(states[b]),
                               nm.stack(visual[b]), nm.stack(text[b]))[0]
                for b, ctx in enumerate(ctxs)]
    sums = {}
    for i, (_, _, p), target in zip(
            wave, mdl.head_probs(model, ctxs, features), targets):
        picked = nm.pick(p, target)
        bad = np.flatnonzero(~(picked.data > 0.0))  # also catches NaN
        if bad.size:
            raise NumericalError("probability of target character %d "
                                 "underflowed to 0" % target[bad[0]])
        sums[i] = nm.scale(nm.sum_all(nm.log(picked)), -1.0)
    return functools.reduce(nm.add, (sums[i] for i in sorted(wave)))


def _batch_loss_sum(model, batch):
    """Summed -log p over a batch's target characters: the loss sums of
    its waves (_waves), added in order.  Each wave's contexts are let go
    before the next is prepared, and nothing outlives the call, so no
    shared tensor crosses a tape.  A batch of one wave sums its samples
    in batch order."""
    return functools.reduce(nm.add, (_wave_loss_sum(model, batch, wave)
                                     for wave in _waves(batch)))


def cross_entropy_loss(model, batch):
    """Mean per-character negative log likelihood over a batch."""
    total = _batch_loss_sum(model, batch)
    return nm.scale(total, 1.0 / (len(batch) * model.config.chars_per_line))


def evaluate_loss(model, pool):
    """Forward-only mean per-character loss over a sample pool."""
    return cross_entropy_loss(model, pool).item()


def accumulate_gradients(model, batch, worker_threads=1):
    """Backward passes over the batch, one per wave, added into .grad.

    Returns the batch's mean per-character loss.  Each wave of _waves is
    recorded on one tape, and its loss sum scaled by 1/chars of the whole
    batch seeds its backward pass, which runs before the next wave is
    recorded.  A parameter whose .grad is None adopts the first pass's
    array, and later passes add into it.  A batch of one wave is
    one tape, as cross_entropy_loss records it.  worker_threads is
    ignored.
    """
    chars = len(batch) * model.config.chars_per_line
    total = 0.0
    for wave in _waves(batch):
        with Tape() as tape:
            loss_sum = _wave_loss_sum(model, batch, wave)
            loss = nm.scale(loss_sum, 1.0 / chars)
        tape.backward(loss)
        total += loss_sum.item()
    return total * (1.0 / chars)


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm.

    The norm is computed even when clipping is off (max_norm <= 0).  A
    non-finite norm raises NumericalError: scaling by it would zero every
    gradient, and unscaled its squares would freeze AdaDelta's E[g^2].
    A parameter whose .grad is None (one the batch never read) has a zero
    gradient and is skipped.
    """
    grads = [(name, p.grad) for name, p in params if p.grad is not None]
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for name, grad in grads:
            g = grad.reshape(-1)
            total += float(np.dot(g, g))
            if not math.isfinite(total):
                raise NumericalError("gradient norm is not finite at "
                                     "parameter %r" % name)
    norm = math.sqrt(total)
    if max_norm <= 0 or norm <= max_norm:
        return 1.0
    factor = max_norm / norm
    for _, grad in grads:
        grad *= factor
    return factor


def _fill_zeros(block, scratch):
    flat, start = block
    flat[start:start + nm.SWEEP_BLOCK].fill(0.0)


class AdaDeltaState:
    """Running averages E[g^2] and E[dx^2] per parameter, and the step's
    scratch: two block-sized arrays for each of its two threads.

    Each average is one float64 array in the layout of params:
    sq_grad[name] and sq_delta[name] are views at the parameter's offset
    in params order, as a model's parameters are views of its one array
    (model.init_params).
    """

    def __init__(self, params, rho=0.95, eps=1e-6):
        self.rho = rho
        self.eps = eps
        starts = list(itertools.accumulate((p.size for _, p in params),
                                           initial=0))
        arrays = [np.empty(starts[-1]) for _ in range(2)]
        self.sq_grad, self.sq_delta = (
            {name: flat[start:start + p.size].reshape(p.shape)
             for (name, p), start in zip(params, starts)}
            for flat in arrays)
        # Made once: block-sized arrays made at every step land in freed
        # heap holes, which measured train-paper peak_rss_mb 25 MiB higher.
        self.scratch = [(np.empty(nm.SWEEP_BLOCK), np.empty(nm.SWEEP_BLOCK))
                        for _ in range(2)]
        # Zeroed here, by both threads in one sweep, so the first step
        # finds the pages mapped.
        nm.sweep(_fill_zeros,
                 [(flat, start) for flat in arrays
                  for start in range(0, flat.size, nm.SWEEP_BLOCK)],
                 2 * starts[-1], [None, None])


def _step_block(block, scratch, rho, eps):
    """One AdaDelta step over the SWEEP_BLOCK values from start of one
    parameter's flat arrays: block is (name, g, E[g^2], E[dx^2], x,
    start), g None for a zero gradient.  The thread that runs it slices
    the block: made up front, every block's views were alive at once,
    which measured train-paper peak_rss_mb 8 MiB higher."""
    name, grad, sq_grad, sq_delta, data, start = block
    part = slice(start, start + nm.SWEEP_BLOCK)
    g = None if grad is None else grad[part]
    sq_g, sq_d, x = sq_grad[part], sq_delta[part], data[part]
    if g is not None:
        span = nm.finite_range(g)
        if span is None:
            raise NumericalError("non-finite gradient in parameter %r"
                                 % name)
    if g is None or span == (0.0, 0.0):
        sq_g *= rho
        sq_d *= rho
        return
    a = scratch[0][:g.size]
    step = scratch[1][:g.size]
    sq_g *= rho
    sq_g += np.multiply(np.multiply(1.0 - rho, g, out=a), g, out=a)
    np.sqrt(np.add(sq_d, eps, out=step), out=step)
    step /= np.sqrt(np.add(sq_g, eps, out=a), out=a)
    step *= g
    sq_d *= rho
    sq_d += np.multiply(np.multiply(1.0 - rho, step, out=a), step, out=a)
    x -= step


def adadelta_update(state, params):
    """One AdaDelta step over (name, tensor) pairs using their .grad.

        E[g^2]  <- rho E[g^2] + (1 - rho) g^2
        dx       = -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
        E[dx^2] <- rho E[dx^2] + (1 - rho) dx^2
        x       <- x + dx

    Each parameter is swept in blocks of SWEEP_BLOCK elements through two
    block-sized scratch arrays of the state, so the temporaries stay in
    cache.  A block computes the step s = -dx and subtracts it; negation
    is exact, so every element gets the whole-array formula's bits.  A block whose
    gradient is all zero (embedding and topic-head rows a batch never
    read), and every block of a parameter whose .grad is None (one the
    batch never read), only decays both averages by rho: for g = +0
    that is the formula's exact result, and x is left as it is.
    The blocks of all parameters are split between the calling thread
    and one worker thread (numerics.sweep); a block's arithmetic is the
    same on either, so the split changes no bit.  A non-finite gradient
    raises NumericalError naming the first parameter, in order, that
    holds one; the step is then partly done.  Parameters and accumulators are
    C-contiguous, so their flat reshapes are views.
    """
    blocks = []
    for name, p in params:
        grad = None if p.grad is None else p.grad.reshape(-1)
        sq_g = state.sq_grad[name].reshape(-1)
        sq_d = state.sq_delta[name].reshape(-1)
        x = p.data.reshape(-1)
        blocks += [(name, grad, sq_g, sq_d, x, start)
                   for start in range(0, x.size, nm.SWEEP_BLOCK)]
    nm.sweep(functools.partial(_step_block, rho=state.rho, eps=state.eps),
             blocks, sum(p.size for _, p in params), state.scratch)


def _make_batches(pool, batch_size, rng):
    """The pool in a seeded shuffle, cut into batches of batch_size
    samples; the last holds the rest."""
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [[pool[i] for i in order[start:start + batch_size]]
            for start in range(0, len(order), batch_size)]


@dataclasses.dataclass
class TrainResult:
    history: list                 # (epoch, train_loss, valid_loss or None)
    best_epoch: int
    best_valid: float
    best_checkpoint: bytes


def train(model, train_pool, valid_pool, config, log=None):
    """Train in place; return the best-validation checkpoint.

    Emits one log line per validation pass:
    ``epoch <n> train <x> valid <y>``.
    """
    config.validate()
    if not train_pool or not valid_pool:
        raise ConfigError("training needs nonempty train and validation pools")
    # Every grid is checked before the first batch, so a bad validation
    # grid does not wait for the first validation pass.
    grids = {id(s.features): s.features for s in (*train_pool, *valid_pool)}
    for features in grids.values():
        mdl.check_grid(model.config, features)
    rng = SeededRng(config.seed)
    params = model.parameters()
    state = AdaDeltaState(params, rho=config.rho, eps=config.eps)
    history = []
    best_valid = math.inf
    best_epoch = -1
    best_blob = None  # every validation loss is finite, so the first sets it
    for epoch in range(1, config.max_epochs + 1):
        epoch_loss = 0.0
        epoch_samples = 0
        for batch in _make_batches(train_pool, config.batch_size, rng):
            model.zero_grads()
            batch_loss = accumulate_gradients(model, batch)
            if not math.isfinite(batch_loss):
                raise NumericalError("non-finite training loss at epoch %d"
                                     % epoch)
            clip_gradients(params, config.clip_norm)
            adadelta_update(state, params)
            epoch_loss += batch_loss * len(batch)
            epoch_samples += len(batch)
        # Not held through validation and the checkpoint write.
        model.zero_grads()
        train_loss = epoch_loss / epoch_samples
        valid_loss = None
        if epoch % config.validate_every == 0 or epoch == config.max_epochs:
            valid_loss = evaluate_loss(model, valid_pool)
            if log is not None:
                log("epoch %d train %.6f valid %.6f"
                    % (epoch, train_loss, valid_loss))
            if valid_loss < best_valid:
                best_valid = valid_loss
                best_epoch = epoch
                # Freed first: at paper scale each blob is 163 MiB, and two
                # alive at once set the run's peak memory.
                best_blob = None
                best_blob = checkpoint_bytes(model)
        history.append((epoch, train_loss, valid_loss))
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_valid=best_valid, best_checkpoint=best_blob)
