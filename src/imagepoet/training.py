"""Supervised training: teacher-forced cross entropy and AdaDelta.

Target lines are reversed before scoring so the model learns to emit the
rhyme-bearing final character first; generation undoes the reversal.
Batches group samples of equal preceding length, so no padding or masking
is ever needed.  Gradients are computed per sample on a private tape and
reduced in sample-index order, which keeps results bitwise reproducible
for any worker-thread count.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import model as mdl
from . import numerics as nm
from .checkpoint import checkpoint_bytes, model_from_bytes
from .errors import ConfigError, NumericalError, VocabularyError
from .numerics import Tape
from .rng import SeededRng


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
    worker_threads: int = 1

    def validate(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.validate_every < 1:
            raise ConfigError("validate_every must be >= 1")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        if self.worker_threads < 1:
            raise ConfigError("worker_threads must be >= 1")
        return self


def _check_ids(ids, vocab_size, what):
    for c in ids:
        if not 0 <= int(c) < vocab_size:
            raise VocabularyError("%s character id %d outside vocabulary "
                                  "of %d" % (what, int(c), vocab_size))


def _sample_loss_sum(model, sample):
    """Teacher-forced -log p summed over the reversed target characters."""
    vocab = model.config.vocab_size
    _check_ids(sample.preceding, vocab, "preceding")
    _check_ids(sample.target, vocab, "target")
    ctx = mdl.prepare_context(model, sample.features, sample.keywords,
                              sample.preceding)
    s = mdl.init_state(model, ctx.h_states)
    y_prev = mdl.LINE_START_ID
    total = None
    for target_id in reversed(sample.target):
        s, o_t, h_hat, v_hat = mdl.decode_step(model, ctx, s, y_prev)
        p = mdl.output_probs(model, ctx, o_t, v_hat, h_hat)
        if p.data[target_id] <= 0.0:
            raise NumericalError("probability of target character %d "
                                 "underflowed to 0" % target_id)
        term = nm.neg(nm.log(nm.pick(p, target_id)))
        total = term if total is None else nm.add(total, term)
        y_prev = target_id
    return total, len(sample.target)


def cross_entropy_loss(model, batch):
    """Mean per-character negative log likelihood over a batch."""
    total = None
    chars = 0
    for sample in batch:
        loss_sum, n = _sample_loss_sum(model, sample)
        total = loss_sum if total is None else nm.add(total, loss_sum)
        chars += n
    return nm.scale(total, 1.0 / chars)


def evaluate_loss(model, pool):
    """Forward-only mean per-character loss over a sample pool."""
    return cross_entropy_loss(model, pool).item()


def accumulate_gradients(model, batch, worker_threads=1):
    """Per-sample backward passes reduced in index order into .grad.

    Returns the batch's mean per-character loss.  Each sample runs on its
    own tape (one tape per thread at a time); the reduction order is the
    batch order, so results do not depend on worker_threads.
    """
    def one(sample):
        with Tape() as tape:
            loss_sum, n = _sample_loss_sum(model, sample)
        return loss_sum.item(), n, tape.gradients(loss_sum)

    if worker_threads > 1 and len(batch) > 1:
        with ThreadPoolExecutor(max_workers=worker_threads) as pool:
            return _reduce_gradients(model, pool.map(one, batch))
    return _reduce_gradients(model, map(one, batch))


def _reduce_gradients(model, results):
    """Add each (loss, chars, gradients) result into .grad as it arrives."""
    total = 0.0
    chars = 0
    for value, n, grads in results:
        total += value
        chars += n
        for tensor in grads:
            tensor.grad += grads[tensor]
        del grads  # one sample's gradients alive at a time, not the batch's
    inv = 1.0 / chars
    for _, p in model.parameters():
        p.grad *= inv
    return total * inv


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    if max_norm <= 0:
        return 1.0
    total = 0.0
    for _, p in params:
        total += float(np.dot(p.grad.reshape(-1), p.grad.reshape(-1)))
    norm = math.sqrt(total)
    if norm <= max_norm:
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
        self.sq_grad = {name: np.zeros_like(p.data) for name, p in params}
        self.sq_delta = {name: np.zeros_like(p.data) for name, p in params}


def adadelta_update(state, params):
    """One AdaDelta step over (name, tensor) pairs using their .grad.

        E[g^2]  <- rho E[g^2] + (1 - rho) g^2
        dx       = -sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g
        E[dx^2] <- rho E[dx^2] + (1 - rho) dx^2
        x       <- x + dx
    """
    rho, eps = state.rho, state.eps
    for name, p in params:
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericalError("non-finite gradient in parameter %r" % name)
        sq_g = state.sq_grad[name]
        sq_d = state.sq_delta[name]
        sq_g *= rho
        sq_g += (1.0 - rho) * g * g
        delta = -np.sqrt(sq_d + eps) / np.sqrt(sq_g + eps) * g
        sq_d *= rho
        sq_d += (1.0 - rho) * delta * delta
        p.data += delta


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
    best_blob = checkpoint_bytes(model)
    for epoch in range(1, config.max_epochs + 1):
        epoch_loss = 0.0
        epoch_samples = 0
        for batch in _make_batches(train_pool, config.batch_size, rng):
            model.zero_grads()
            batch_loss = accumulate_gradients(model, batch,
                                              config.worker_threads)
            if not math.isfinite(batch_loss):
                raise NumericalError("non-finite training loss at epoch %d"
                                     % epoch)
            clip_gradients(params, config.clip_norm)
            adadelta_update(state, params)
            epoch_loss += batch_loss * len(batch)
            epoch_samples += len(batch)
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
                best_blob = checkpoint_bytes(model)
        history.append((epoch, train_loss, valid_loss))
    return TrainResult(history=history, best_epoch=best_epoch,
                       best_valid=best_valid, best_checkpoint=best_blob)
