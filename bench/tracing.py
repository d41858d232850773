"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
namespace of the package that holds it (a name imported with
``from .layers import attend`` lives on in ``imagepoet.model`` too), and
``Tracer.remove`` puts the originals back.  While ``Tracer.enabled`` is
true a wrapper records one span (name, start, end, parent, run id) in
memory; while it is false the wrapper only calls through, so rounds run
without tracing can be timed in the same process to state the overhead.

Besides spans the tracer keeps counts that need no timing: ops emitted
by the tensor library, matmul multiply-accumulates and operand bytes
(from operand shapes), bytes returned by ``Tape.gradients``, visual key
projections, the share of topic-head rows in use, and checkpoint bytes.
"""

import collections
import time


# Span name -> metric name.  Metric names ending in ``.self_s`` report self
# time per call (the span minus its traced children); the others report
# the whole time of a call.
SPAN_METRICS = [
    ("model.init_params", "model.init_params_s"),
    ("model.generate_poem", "model.generate_poem.self_s"),
    ("model.prepare_context", "model.prepare_context.self_s"),
    ("model.decode_step", "model.decode_step.self_s"),
    ("model.output_probs", "model.output_probs.self_s"),
    ("layers.attend.visual", "layers.attend.visual_s"),
    ("layers.attend.text", "layers.attend.text_s"),
    ("layers.gru_step.decoder", "layers.gru_step.decoder_s"),
    ("layers.head.generic", "layers.head.generic_s"),
    ("layers.head.topic", "layers.head.topic_s"),
    ("layers.bigru_encode", "layers.bigru_encode_s"),
    ("topic_memory.encode_keywords", "topic_memory.encode_keywords_s"),
    ("topic_memory.address_read", "topic_memory.address_read_s"),
    ("numerics.backward", "numerics.backward_s"),
    ("training.train", "training.train.self_s"),
    ("training.accumulate_gradients", "training.accumulate_gradients.self_s"),
    ("training.clip_gradients", "training.clip_gradients_s"),
    ("training.adadelta_update", "training.adadelta_update_s"),
    ("training.evaluate_loss", "training.evaluate_loss_s"),
    ("checkpoint.write", "checkpoint.write_s"),
    ("checkpoint.load", "checkpoint.load_s"),
    ("datapipe.load_corpus", "datapipe.load_corpus_s"),
    ("datapipe.match_pairs", "datapipe.match_pairs_s"),
    ("datapipe.build_samples", "datapipe.build_samples_s"),
    ("datapipe.load_feature_file", "datapipe.load_feature_file_s"),
]

# Per-layer metrics that are counts, with their units.
COUNT_METRICS = [
    ("layers.attend.visual.key_projections", "1/poem"),
    ("layers.head.topic.rows_used", "fraction"),
    ("numerics.grad_mb", "MiB"),
    ("numerics.ops_per_poem", "1/poem"),
    ("numerics.ops_per_sample", "1/sample"),
    ("numerics.matmul_gmac_per_poem", "GMAC/poem"),
    ("numerics.matmul_gmac_per_sample", "GMAC/sample"),
    ("numerics.matmul_gb_per_poem", "GB/poem"),
    ("numerics.matmul_gb_per_sample", "GB/sample"),
    ("checkpoint.mb", "MiB"),
    ("datapipe.keyword_recall", "fraction"),
]

TRACE_METRICS = [
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_pct", "%"),
]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, metric in SPAN_METRICS:
        units[metric] = "s"
        units[span + ".calls"] = "1/round"
    units.update(COUNT_METRICS)
    units.update(TRACE_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = 0
        self.spans = []        # [name, start, end, parent, run, counted]
        self._stack = []
        self._patches = []     # (owner, attribute, original)
        self.model = None      # model of the decode step in progress
        self._root = None      # "poem" or "sample": where op counts go
        self.counts = collections.Counter()

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, root=None,
              count_call=True):
        """Span wrapper; ``name`` is a string or a function of the args."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            span = name(*args) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [span, 0.0, 0.0,
                      tracer._stack[-1] if tracer._stack else -1,
                      tracer.run_id, count_call]
            tracer.spans.append(record)
            tracer._stack.append(index)
            saved_root = tracer._root
            if root is not None:
                tracer._root = root
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._root = saved_root
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _counter(self, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled and tracer._root is not None:
                count(result, *args)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self, ip):
        """Wrap the traced functions of the package ``ip`` (imported)."""
        from imagepoet import (checkpoint, datapipe, layers, model,
                               numerics, topic_memory, training)
        modules = [ip, checkpoint, datapipe, layers, model, numerics,
                   topic_memory, training]
        counts = self.counts

        def role(obj, attr):
            m = self.model
            return m is not None and obj is getattr(m, attr)

        def set_model(m, *_):
            self.model = m

        def topic_rows(m, ctx, *_):
            self.model = m
            if m.config.topic_weight != 0.0 and ctx.topic_ids:
                counts["topic_rows"] += len(ctx.topic_ids) / m.config.vocab_size
                counts["topic_heads"] += 1

        def count_samples(_model, batch, *_):
            counts["samples"] += len(batch)

        def poem_done(*_):
            counts["poems"] += 1

        def grad_bytes(grads, *_):
            counts["grad_bytes"] += sum(g.nbytes for g in grads.values())
            counts["gradients"] += 1

        spans = {
            model.init_params: self._wrap("model.init_params",
                                          model.init_params),
            model.generate_poem: self._wrap(
                "model.generate_poem", model.generate_poem, root="poem",
                after=poem_done),
            model.prepare_context: self._wrap("model.prepare_context",
                                              model.prepare_context),
            model.decode_step: self._wrap("model.decode_step",
                                          model.decode_step, before=set_model),
            model.output_probs: self._wrap("model.output_probs",
                                           model.output_probs,
                                           before=topic_rows),
            layers.attend: self._wrap(
                lambda params, *_: ("layers.attend.visual"
                                    if role(params, "visual_attention") else
                                    "layers.attend.text"
                                    if role(params, "text_attention") else
                                    None),
                layers.attend),
            layers.gru_step: self._wrap(
                lambda cell, *_: ("layers.gru_step.decoder"
                                  if role(cell, "decoder") else None),
                layers.gru_step),
            layers.bigru_encode: self._wrap("layers.bigru_encode",
                                            layers.bigru_encode),
            topic_memory.encode_keywords: self._wrap(
                "topic_memory.encode_keywords", topic_memory.encode_keywords),
            topic_memory.address: self._wrap("topic_memory.address_read",
                                             topic_memory.address),
            topic_memory.read: self._wrap("topic_memory.address_read",
                                          topic_memory.read,
                                          count_call=False),
            training.train: self._wrap("training.train", training.train),
            training.accumulate_gradients: self._wrap(
                "training.accumulate_gradients",
                training.accumulate_gradients, root="sample",
                before=count_samples),
            training.clip_gradients: self._wrap("training.clip_gradients",
                                                training.clip_gradients),
            training.adadelta_update: self._wrap("training.adadelta_update",
                                                 training.adadelta_update),
            training.evaluate_loss: self._wrap("training.evaluate_loss",
                                               training.evaluate_loss),
            checkpoint.write_checkpoint: self._wrap(
                "checkpoint.write", self._sized(checkpoint.write_checkpoint)),
            checkpoint.read_checkpoint: self._wrap("checkpoint.load",
                                                   checkpoint.read_checkpoint),
            datapipe.load_corpus: self._wrap("datapipe.load_corpus",
                                             datapipe.load_corpus),
            datapipe.match_pairs: self._wrap("datapipe.match_pairs",
                                             datapipe.match_pairs),
            datapipe.build_samples: self._wrap("datapipe.build_samples",
                                               datapipe.build_samples),
            datapipe.load_feature_file: self._wrap(
                "datapipe.load_feature_file", datapipe.load_feature_file),
        }
        for original, wrapper in spans.items():
            self._replace(modules, original, wrapper)
        self._replace_method(numerics.Tape, "gradients", self._wrap(
            "numerics.backward", numerics.Tape.gradients, after=grad_bytes))
        self._replace_method(layers.OutputHead, "logits", self._wrap(
            lambda head, *_: ("layers.head.generic"
                              if role(head, "head_generic") else
                              "layers.head.topic"
                              if role(head, "head_topic") else None),
            layers.OutputHead.logits))

        def count_op(_result, *_):
            counts[self._root + ".ops"] += 1

        def count_matmul(out, a, b):
            ad, bd = a.data, b.data
            counts[self._root + ".macs"] += ad.size * (
                bd.shape[1] if bd.ndim == 2 else 1)
            counts[self._root + ".bytes"] += 8 * (ad.size + bd.size
                                                  + out.data.size)
            # The visual key projection: rows @ the visual key_proj tensor.
            if (self._root == "poem" and ad.ndim == 2
                    and self.model is not None
                    and b is self.model.visual_attention.key_proj):
                counts["visual_key_projections"] += 1

        self._replace(modules, numerics._emit,
                      self._counter(numerics._emit, count_op))
        self._replace(modules, numerics.matmul,
                      self._counter(numerics.matmul, count_matmul))

    def _sized(self, write):
        counts = self.counts

        def sized(model, fh):
            start = fh.tell()
            write(model, fh)
            if self.enabled:
                counts["checkpoint_bytes"] += fh.tell() - start
                counts["checkpoints"] += 1

        return sized

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.model = None

    # -- reporting -------------------------------------------------------

    def self_times(self):
        """Per span name: [calls in rounds, calls, self seconds, total seconds].

        Run id 0 is the preparation before the rounds, which count from 1.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = collections.defaultdict(lambda: [0, 0, 0.0, 0.0])
        for (name, start, end, _, run, counted), child in zip(self.spans,
                                                               child_time):
            row = table[name]
            if counted:
                row[1] += 1
                row[0] += run > 0
            row[2] += end - start - child
            row[3] += end - start
        return table

    def covered_time(self):
        """Seconds covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent < 0)

    def span_problems(self, intervals):
        """Spans outside their parent, or outside their run's interval.

        ``intervals`` maps each traced run id to its (start, end).
        """
        problems = []
        for name, start, end, parent, run, _ in self.spans:
            if run not in intervals:
                problems.append("%s in run %d, which was not traced"
                                % (name, run))
                continue
            lo, hi = intervals[run]
            if not lo <= start <= end <= hi:
                problems.append("%s outside run %d" % (name, run))
            if parent >= 0:
                outer = self.spans[parent]
                if not outer[1] <= start <= end <= outer[2] or outer[4] != run:
                    problems.append("%s outside its parent %s"
                                    % (name, outer[0]))
        return problems

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run, _ in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (name, start, end, parent, run))
