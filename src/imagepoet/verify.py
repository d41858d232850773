"""Self-checks: full-model gradient verification and distribution invariants.

Used by the ``check`` CLI subcommand and reused by the test suite.  The
gradient check differentiates a complete training loss at small dims and
compares every parameter against central finite differences; the
distribution checks decode random steps and confirm that attention
weights, memory addressing and the output mixture are probability
vectors, with the topic distribution exactly zero off the topic
vocabulary.
"""

import dataclasses

import numpy as np

from . import model as mdl
from . import numerics as nm
from .errors import ConfigError
from .model import ModelConfig, init_params
from .rng import SeededRng
from .training import TrainSample, cross_entropy_loss

# Small enough that the full-parameter finite-difference sweep stays fast.
CHECK_CONFIG = ModelConfig(vocab_size=8, hidden_dim=4, memory_dim=4,
                           topic_weight=0.5, visual_count=2, visual_dim=3,
                           lines_per_poem=4, chars_per_line=3)


def toy_sample(config, rng, with_preceding=True, keyword_count=2):
    """Random but deterministic training sample for the given config."""
    g = config.chars_per_line
    features = rng.uniform_array(config.visual_count * config.visual_dim,
                                 -1.0, 1.0).reshape(config.visual_count,
                                                    config.visual_dim)
    keywords = []
    for _ in range(keyword_count):
        length = 1 + rng.below(3)
        keywords.append(tuple(rng.below(config.vocab_size)
                              for _ in range(length)))
    preceding = tuple(rng.below(config.vocab_size)
                      for _ in range(g if with_preceding else 0))
    target = tuple(rng.below(config.vocab_size) for _ in range(g))
    return TrainSample(features=features, keywords=keywords,
                       preceding=preceding, target=target)


@dataclasses.dataclass
class GradReport:
    max_error: float
    worst_param: str
    per_param: dict


def full_model_grad_check(model, batch, h=1e-5):
    """Central-difference check of a batch's training loss over every
    parameter."""
    def loss():
        return cross_entropy_loss(model, batch)

    model.zero_grads()
    with nm.Tape() as tape:
        tape.backward(loss())
    per_param = {}
    for name, p in model.parameters():
        per_param[name] = nm.difference_error(loss, p, p.grad, h)
    # A NaN error ranks above every number.
    worst = max(per_param, key=lambda n: (np.isnan(per_param[n]),
                                          per_param[n]))
    return GradReport(max_error=per_param[worst], worst_param=worst,
                      per_param=per_param)


@dataclasses.dataclass
class DistributionReport:
    steps: int
    max_weight_error: float     # worst |sum - 1| / negativity over streams
    max_address_error: float
    max_output_error: float
    topic_support_exact: bool   # p_topic exactly 0 outside the topic vocab

    @property
    def passed(self):
        tol = 1e-9
        return (self.max_weight_error <= tol
                and self.max_address_error <= tol
                and self.max_output_error <= tol
                and self.topic_support_exact)


def _prob_vector_error(p):
    return max(abs(float(p.sum()) - 1.0), float(max(0.0, -p.min())))


def distribution_invariants(model, seed, steps=1000):
    """Randomized decode steps checking every distribution the model emits."""
    rng = SeededRng(seed)
    config = model.config
    weight_err = addr_err = out_err = 0.0
    support_exact = True
    for i in range(steps):
        if i % config.chars_per_line == 0:
            sample = toy_sample(config, rng,
                                with_preceding=bool(rng.below(2)),
                                keyword_count=rng.below(4))
            image = mdl.prepare_image(model, sample.features,
                                      sample.keywords)
            ctx = mdl.prepare_context(model, image, sample.preceding)
            s = ctx.state
            y_prev = mdl.LINE_START_ID
        step = mdl.decode_step(model, ctx, s, y_prev)
        weight_err = max(weight_err,
                         _prob_vector_error(step.text_weights.data),
                         _prob_vector_error(step.visual_weights.data))
        if step.address is not None:
            addr_err = max(addr_err, _prob_vector_error(step.address.data))
        out_err = max(out_err, _prob_vector_error(step.p.data))
        if step.p_topic is not None:
            outside = np.ones(config.vocab_size, dtype=bool)
            outside[list(ctx.topic_ids)] = False
            if np.any(step.p_topic.data[outside] != 0.0):
                support_exact = False
        s = step.state
        y_prev = int(np.argmax(step.p.data))
    return DistributionReport(steps=steps, max_weight_error=weight_err,
                              max_address_error=addr_err,
                              max_output_error=out_err,
                              topic_support_exact=support_exact)


def run_checks(seed=7, dist_steps=1000, report_line=print):
    """Full verification pass; returns True when everything is in budget."""
    if dist_steps < 1:
        raise ConfigError("distribution check needs at least 1 decode step, "
                          "got %d" % dist_steps)
    rng = SeededRng(seed)
    model = init_params(CHECK_CONFIG, rng)
    ok = True

    grad = full_model_grad_check(model, [toy_sample(CHECK_CONFIG, rng)])
    grad_ok = grad.max_error < 1e-5
    ok = ok and grad_ok
    report_line("gradient check: max relative error %.3e (worst %s) %s"
                % (grad.max_error, grad.worst_param,
                   "ok" if grad_ok else "FAIL"))

    dist = distribution_invariants(model, seed=seed + 1, steps=dist_steps)
    ok = ok and dist.passed
    report_line("distribution check over %d steps: attention %.3e, "
                "addressing %.3e, output %.3e, topic support %s %s"
                % (dist.steps, dist.max_weight_error, dist.max_address_error,
                   dist.max_output_error,
                   "exact" if dist.topic_support_exact else "VIOLATED",
                   "ok" if dist.passed else "FAIL"))
    return ok
