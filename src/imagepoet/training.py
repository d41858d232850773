"""Supervised training: teacher-forced cross entropy and AdaDelta.

Target lines are reversed before scoring so the model learns to emit the
rhyme-bearing final character first; generation undoes the reversal.
Teacher forcing feeds each step the previous target character, so a
sample runs the decoder recurrence over its whole target first and then
scores all of its states in one output-side pass (model.output_side).
Batches group samples of equal preceding length, so no padding or masking
is ever needed.  A batch is recorded on one tape per chunk of
GRADIENT_CHUNK samples, and each chunk's backward pass writes its
gradients straight into .grad.
"""

import dataclasses
import math

import numpy as np

from . import model as mdl
from . import numerics as nm
from .checkpoint import checkpoint_bytes, model_from_bytes
from .errors import ConfigError, NumericalError, VocabularyError
from .numerics import Tape
from .rng import SeededRng

# Samples per tape in accumulate_gradients.  A tape holds its samples'
# records until its backward pass, about 22 MiB per paper-scale sample,
# so this bounds that memory whatever the batch size.
GRADIENT_CHUNK = 4


@dataclasses.dataclass
class TrainSample:
    """One supervised instance: feature grid, keywords, context, target."""

    features: np.ndarray
    keywords: list
    preceding: tuple
    target: tuple

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.keywords = [tuple(int(c) for c in kw) for kw in self.keywords]
        self.preceding = tuple(int(c) for c in self.preceding)
        self.target = tuple(int(c) for c in self.target)


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


def _check_ids(ids, vocab_size, what):
    for c in ids:
        if not 0 <= int(c) < vocab_size:
            raise VocabularyError("%s character id %d outside vocabulary "
                                  "of %d" % (what, int(c), vocab_size))


def _sample_loss_sum(model, sample):
    """Teacher-forced -log p summed over the reversed target characters.

    Each step's input is the previous target character, so the recurrence
    runs alone over the whole target, and the output side then scores
    all of its states as one matrix.
    """
    vocab = model.config.vocab_size
    _check_ids(sample.preceding, vocab, "preceding")
    _check_ids(sample.target, vocab, "target")
    ctx = mdl.prepare_context(model, sample.features, sample.keywords,
                              sample.preceding)
    targets = sample.target[::-1]
    states, visual, text = [], [], []
    s = ctx.state
    y_prev = mdl.LINE_START_ID
    for target_id in targets:
        s, (h_hat, _), (v_hat, _) = mdl.recurrence(model, ctx, s, y_prev)
        states.append(s)
        visual.append(v_hat)
        text.append(h_hat)
        y_prev = target_id
    p = mdl.output_side(model, ctx, nm.stack(states), nm.stack(visual),
                        nm.stack(text))[-1]
    picked = nm.pick(p, targets)
    bad = np.flatnonzero(~(picked.data > 0.0))  # also catches NaN
    if bad.size:
        raise NumericalError("probability of target character %d "
                             "underflowed to 0" % targets[bad[0]])
    return nm.scale(nm.sum_all(nm.log(picked)), -1.0), len(targets)


def _batch_loss_sum(model, batch):
    """Summed -log p over a batch's target characters, and their count."""
    total = None
    chars = 0
    for sample in batch:
        loss_sum, n = _sample_loss_sum(model, sample)
        total = loss_sum if total is None else nm.add(total, loss_sum)
        chars += n
    return total, chars


def cross_entropy_loss(model, batch):
    """Mean per-character negative log likelihood over a batch."""
    total, chars = _batch_loss_sum(model, batch)
    return nm.scale(total, 1.0 / chars)


def evaluate_loss(model, pool):
    """Forward-only mean per-character loss over a sample pool."""
    return cross_entropy_loss(model, pool).item()


def accumulate_gradients(model, batch, worker_threads=1):
    """Backward passes over the batch, one per chunk, added into .grad.

    Returns the batch's mean per-character loss.  Each chunk of up to
    GRADIENT_CHUNK samples is recorded on one tape, and its loss sum
    scaled by 1/chars of the whole batch seeds its backward pass.  A
    parameter holding no gradient buffer adopts the first pass's array,
    and later passes add into it.  A batch within one chunk is one tape,
    as cross_entropy_loss records it.  worker_threads is ignored.
    """
    inv = 1.0 / sum(len(sample.target) for sample in batch)
    total = 0.0
    for start in range(0, len(batch), GRADIENT_CHUNK):
        with Tape() as tape:
            loss_sum, _ = _batch_loss_sum(
                model, batch[start:start + GRADIENT_CHUNK])
            loss = nm.scale(loss_sum, inv)
        tape.backward(loss)
        total += loss_sum.item()
    return total * inv


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm.

    The norm is computed even when clipping is off (max_norm <= 0).  A
    non-finite norm raises NumericalError: scaling by it would zero every
    gradient, and unscaled its squares would freeze AdaDelta's E[g^2].
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params:
            g = p.grad.reshape(-1)
            total += float(np.dot(g, g))
            if not math.isfinite(total):
                raise NumericalError("gradient norm is not finite at "
                                     "parameter %r" % name)
    norm = math.sqrt(total)
    if max_norm <= 0 or norm <= max_norm:
        return 1.0
    factor = max_norm / norm
    for _, p in params:
        p.grad *= factor
    return factor


class AdaDeltaState:
    """Running averages E[g^2] and E[dx^2] per parameter."""

    def __init__(self, params, rho=0.95, eps=1e-6):
        self.rho = rho
        self.eps = eps
        # zeros_like writes its zeros here.  np.zeros would leave the pages
        # unmapped for the first step to fault in, reading each before
        # writing it, which measured slower in total.
        self.sq_grad = {name: np.zeros_like(p.data) for name, p in params}
        self.sq_delta = {name: np.zeros_like(p.data) for name, p in params}


def adadelta_update(state, params):
    """One AdaDelta step over (name, tensor) pairs using their .grad.

        E[g^2]  <- rho E[g^2] + (1 - rho) g^2
        dx       = -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
        E[dx^2] <- rho E[dx^2] + (1 - rho) dx^2
        x       <- x + dx

    Each parameter is swept in blocks of SWEEP_BLOCK elements through two
    block-sized scratch arrays, so the temporaries stay in cache; every
    element sees the same operations in the same order as the whole-array
    formula.  A block whose gradient is all zero (embedding and topic-head
    rows a batch never read) only decays both averages by rho: for g = +0
    that is the formula's exact result, and x is left as it is.
    Parameters and accumulators are C-contiguous, so their flat reshapes
    are views.
    """
    rho, eps = state.rho, state.eps
    scratch = np.empty(nm.SWEEP_BLOCK)
    step = np.empty(nm.SWEEP_BLOCK)
    for name, p in params:
        grad = p.grad.reshape(-1)
        sq_grad = state.sq_grad[name].reshape(-1)
        sq_delta = state.sq_delta[name].reshape(-1)
        data = p.data.reshape(-1)
        for start in range(0, grad.size, nm.SWEEP_BLOCK):
            stop = min(start + nm.SWEEP_BLOCK, grad.size)
            g = grad[start:stop]
            if not np.isfinite(g).all():
                raise NumericalError("non-finite gradient in parameter %r"
                                     % name)
            sq_g = sq_grad[start:stop]
            sq_d = sq_delta[start:stop]
            if not g.any():
                sq_g *= rho
                sq_d *= rho
                continue
            a = scratch[:stop - start]
            delta = step[:stop - start]
            sq_g *= rho
            sq_g += np.multiply(np.multiply(1.0 - rho, g, out=a), g, out=a)
            np.negative(np.sqrt(np.add(sq_d, eps, out=delta), out=delta),
                        out=delta)
            delta /= np.sqrt(np.add(sq_g, eps, out=a), out=a)
            delta *= g
            sq_d *= rho
            sq_d += np.multiply(np.multiply(1.0 - rho, delta, out=a), delta,
                                out=a)
            data[start:stop] += delta


def _make_batches(pool, batch_size, rng):
    """Shuffled batches whose samples share (preceding length, target length)."""
    order = list(range(len(pool)))
    rng.shuffle(order)
    buckets = {}
    batches = []
    for idx in order:
        sample = pool[idx]
        key = (len(sample.preceding), len(sample.target))
        bucket = buckets.setdefault(key, [])
        bucket.append(sample)
        if len(bucket) == batch_size:
            batches.append(bucket)
            buckets[key] = []
    for key in sorted(buckets):
        if buckets[key]:
            batches.append(buckets[key])
    return batches


@dataclasses.dataclass
class TrainResult:
    history: list                 # (epoch, train_loss, valid_loss or None)
    best_epoch: int
    best_valid: float
    best_checkpoint: bytes

    def load_model(self):
        return model_from_bytes(self.best_checkpoint)


def train(model, train_pool, valid_pool, config, log=None):
    """Train in place; return the best-validation checkpoint.

    Emits one log line per validation pass:
    ``epoch <n> train <x> valid <y>``.
    """
    config.validate()
    if not train_pool or not valid_pool:
        raise ConfigError("training needs nonempty train and validation pools")
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
