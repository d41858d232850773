"""The three benchmark workloads and the checks on their outputs.

Each workload writes its seeded inputs, then repeats whole rounds of the
same operations (set-up, the workload's work, poems) until the run
length has passed and at least ``MIN_POEMS`` poems were timed.  Set-up
and rates are timed per round and poems per poem, so every metric
samples the whole run; set-up reports the median over the set-ups,
which leaves out the first one's fresh-memory cost.  The host switches
between a fast and a slow state, so short timings are bimodal: means
and the 75th percentile move little with the share of time spent in
each state, while a median jumps between the two.  Checks run outside
the timed rounds: between them when they need a round's model, after
them otherwise.
"""

import contextlib
import ctypes
import hashlib
import multiprocessing
import os
import resource
import statistics
import time

import numpy as np

import imagepoet as ip
from imagepoet import datapipe

import inputs
import reference
import tracing

PAPER = dict(vocab_size=6000, hidden_dim=512, memory_dim=512,
             topic_weight=0.5, visual_count=196, visual_dim=512,
             lines_per_poem=4, chars_per_line=7)

TAIL_PERCENTILE = 75   # with >= 40 poems, at least ten lie beyond it
MIN_POEMS = 40
GENERATE_IMAGES = 10   # poems per generate-paper round
TRAIN_IMAGES = 20      # poems per train-paper round
TRAIN_SETUPS = 3       # init_params calls per train-paper round
LOSS_TOLERANCE = 1e-10
FD_STEP = 1e-6
FD_TOLERANCE = 1e-5    # relative, on the directional derivative

UNITS = {"setup_s": "s", "poem_s.mean": "s", "poem_s.tail": "s",
         "samples_per_s": "1/s", "peak_rss_mb": "MiB", "valid_loss": "nats"}


class Run:
    """Operation ledger, round loop and optional tracer of one run."""

    def __init__(self, seconds, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.ops = {}          # operation key -> passed its checks
        self.problems = []
        self.round_s = {True: [], False: []}   # traced -> round seconds
        self.traced_wall = 0.0
        self.intervals = {}    # traced run id -> (start, end)

    def op(self, key, ok=True, problem=None):
        """Record an attempted operation; a failed check fails it."""
        self.ops[key] = self.ops.get(key, True) and bool(ok)
        if not ok:
            self.problems.append("%s: %s" % (key, problem))

    def _trace(self, run_id, on):
        if self.tracer is not None:
            self.tracer.run_id = run_id
            self.tracer.enabled = on
        return self.tracer is not None and on

    def begin_prepare(self):
        """Start the preparation before the rounds; it is traced as run 0."""
        self._trace(0, True)
        self._prepare_start = time.perf_counter()

    def end_prepare(self):
        if self.tracer is not None:
            self.tracer.enabled = False
            end = time.perf_counter()
            self.intervals[0] = (self._prepare_start, end)
            self.traced_wall += end - self._prepare_start

    def rounds(self, body, poems_per_round, check=None):
        """Repeat body(round) for the run length and MIN_POEMS poems.

        ``check(round)``, when given, runs after each round, untimed and
        untraced.  When tracing, odd rounds are traced and even rounds are
        not, so the two kinds interleave over the run and their medians
        give the tracing overhead.
        """
        start = time.perf_counter()
        r = 0
        while (r * poems_per_round < MIN_POEMS
               or time.perf_counter() - start < self.seconds):
            r += 1
            traced = self._trace(r, r % 2 == 1)
            t0 = time.perf_counter()
            body(r)
            t1 = time.perf_counter()
            self._trace(r, False)
            self.round_s[traced].append(t1 - t0)
            if traced:
                self.traced_wall += t1 - t0
                self.intervals[r] = (t0, t1)
            if check is not None:
                check(r)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim   # glibc
except (OSError, AttributeError):
    _malloc_trim = None


def release_free_memory():
    """Hand the allocator's free memory back to the OS (glibc only).

    Without this a checkpoint load sometimes reused the pages that the
    previous round's model left in the heap and took about 0.11 s, against
    0.2 s on fresh pages, as in a new ``imagepoet generate`` process.
    Which of the two a round got depended on the heap's layout, and runs
    switched between them part way.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digests(model):
    """SHA-256 of every parameter's bytes, with its shape."""
    return {name: (t.data.shape,
                   hashlib.sha256(np.ascontiguousarray(t.data)).digest())
            for name, t in model.parameters()}


def _arrays(model):
    return {name: t.data.copy() for name, t in model.parameters()}


def _reference(arrays, config):
    return reference.Reference(arrays, config.topic_weight,
                               config.chars_per_line, config.lines_per_poem)


def _as_tuples(samples):
    return [(s.features, s.keywords, s.preceding, s.target) for s in samples]


class Poems:
    """Times one poem per image, the way ``imagepoet generate`` makes one."""

    def __init__(self, run, corpus):
        self.run = run
        self.corpus = corpus
        self.times = []
        self.first = []        # poems of round 1, in image order

    def round(self, r, model):
        for i, image in enumerate(self.corpus.images):
            t0 = time.perf_counter()
            features = ip.load_feature_file(image["features"])
            keywords = inputs.read_keywords(image["keywords"])
            poem = ip.generate_poem(model, features, keywords)
            self.times.append(time.perf_counter() - t0)
            if r == 1:
                self.first.append(poem)
                self.run.op(("poem", r, i))
            else:
                self.run.op(("poem", r, i), poem == self.first[i],
                            "poem differs from round 1")

    def check_reference(self, ref, count):
        """The plain-numpy decoder reproduces the first ``count`` poems."""
        for i, image in enumerate(self.corpus.images[:count]):
            features = ip.load_feature_file(image["features"])
            keywords = inputs.read_keywords(image["keywords"])
            expected = ref.poem(features, keywords)
            self.run.op(("poem", 1, i), expected == self.first[i],
                        "reference decoder gives %s, program %s"
                        % (expected, self.first[i]))

    def recall(self):
        """Mean concept recall of round 1, scored here and by the package."""
        lexicon = datapipe.load_concept_lexicon(self.corpus.lexicon)
        total = 0.0
        for i, (image, poem) in enumerate(zip(self.corpus.images, self.first)):
            ours = reference.recall(
                poem, [[self.corpus.realization[c]] for c in image["concepts"]])
            theirs = ip.keyword_recall(poem, image["concepts"], lexicon)
            self.run.op(("recall", i), ours == theirs,
                        "keyword_recall %r, benchmark scoring %r"
                        % (theirs, ours))
            total += ours
        mean = total / len(self.first)
        self.run.op(("recall",), mean > 0.0, "mean keyword recall is 0")
        return mean

    def metrics(self):
        return {"poem_s.mean": statistics.fmean(self.times),
                "poem_s.tail": float(np.percentile(self.times,
                                                   TAIL_PERCENTILE))}


@contextlib.contextmanager
def _recording_batches(batches):
    """Append (batch, loss) for every batch train() accumulates."""
    inner = ip.training.accumulate_gradients

    def recording(model, batch, worker_threads=1):
        loss = inner(model, batch, worker_threads)
        batches.append((list(batch), loss))
        return loss

    ip.training.accumulate_gradients = recording
    try:
        yield
    finally:
        ip.training.accumulate_gradients = inner


def _check_batches(run, batches, history, pool, ref):
    """The first batch's loss, and the epoch loss ``history`` reports.

    ``ref`` holds the initial parameters, at which the first batch is
    scored; the later batches follow parameter updates, so they are
    checked through the epoch loss they sum to.
    """
    first, loss = batches[0]
    expected = ref.mean_loss(_as_tuples(first))
    run.op(("first-batch",), abs(loss - expected) <= LOSS_TOLERANCE,
           "train() reports %.17g, plain-numpy scorer %.17g"
           % (loss, expected))
    total, count = 0.0, 0
    for batch, loss in batches:
        total += loss * len(batch)
        count += len(batch)
    covered = sorted(id(s) for batch, _ in batches for s in batch)
    run.op(("epoch-loss",),
           covered == sorted(id(s) for s in pool)
           and history[0][1] == total / count,
           "epoch loss %.17g from batches of %d samples, history %.17g"
           % (total / count, count, history[0][1]))


def _check_gradient(run, model, arrays, batch, seed):
    """Central difference of the batch loss along a random direction.

    ``model`` holds ``arrays`` on entry and is left shifted.
    """
    with ip.Tape() as tape:
        loss = ip.cross_entropy_loss(model, batch)
    grads = tape.gradients(loss)
    rng = np.random.default_rng([seed, 7])
    params = model.parameters()
    direction = {name: rng.standard_normal(t.shape) for name, t in params}
    analytic = sum(float(np.vdot(grads[t], direction[name]))
                   for name, t in params if t in grads)
    del grads, tape

    def shifted(step):
        for name, t in params:
            np.copyto(t.data, arrays[name] + step * direction[name])
        return ip.cross_entropy_loss(model, batch).item()

    numeric = (shifted(FD_STEP) - shifted(-FD_STEP)) / (2.0 * FD_STEP)
    err = abs(numeric - analytic) / max(1.0, abs(analytic))
    run.op(("gradient",), err <= FD_TOLERANCE,
           "directional derivative: tape %.12g, central difference %.12g"
           % (analytic, numeric))


def _pipeline(corpus, config):
    """Corpus files to samples, the way ``imagepoet train`` builds them."""
    lexicon = datapipe.load_concept_lexicon(corpus.lexicon)
    images, poems = ip.load_corpus(corpus.corpus,
                                   lines_per_poem=config.lines_per_poem,
                                   chars_per_line=config.chars_per_line)
    matches = ip.match_pairs(images, poems, lexicon)
    return matches, ip.build_samples(matches, images, poems, lexicon)


def _write_checkpoint(config, seed, path, conn):
    """Initialise the model, write its checkpoint, send its digests."""
    model = ip.init_params(config, ip.SeededRng(seed))
    ip.save_checkpoint(model, path)
    conn.send(_digests(model))
    conn.close()


def generate_paper(run, seed, work):
    config = ip.ModelConfig(**PAPER)
    corpus = inputs.paper_corpus(work, seed, config.vocab_size,
                                 (config.visual_count, config.visual_dim),
                                 config.lines_per_poem, config.chars_per_line,
                                 n_images=GENERATE_IMAGES)
    path = os.path.join(work, "model.ckpt")
    # A child process writes the checkpoint, so this process only ever
    # holds models that load_checkpoint built and peak_rss_mb covers
    # loading and generation alone.
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    writer = context.Process(target=_write_checkpoint,
                             args=(config, seed, path, sender))
    writer.start()
    sender.close()
    try:
        written = receiver.recv()
    finally:
        writer.join()
    if writer.exitcode != 0:
        raise RuntimeError("checkpoint writer exited %d" % writer.exitcode)
    run.begin_prepare()
    # Scored set: the 12 samples of the three matched poems.
    _, scored = _pipeline(corpus, config)
    run.end_prepare()

    poems = Poems(run, corpus)
    setup, rates, losses = [], [], []
    last = {}

    def one_round(r):
        last.clear()   # a user holds one model at a time
        release_free_memory()
        t0 = time.perf_counter()
        model = ip.load_checkpoint(path)
        setup.append(time.perf_counter() - t0)
        run.op(("load", r))
        poems.round(r, model)
        # Forward-only scoring, as in train()'s validation pass.
        t0 = time.perf_counter()
        losses.append(ip.training.evaluate_loss(model, scored))
        rates.append(len(scored) / (time.perf_counter() - t0))
        run.op(("score", r), losses[-1] == losses[0],
               "scored loss differs from round 1")
        last["model"] = model

    def check_load(r):
        run.op(("load", r), _digests(last["model"]) == written,
               "loaded parameters differ from the written ones")

    run.rounds(one_round, len(corpus.images), check_load)
    rss = peak_rss_mib()
    ref = _reference(_arrays(last.pop("model")), config)
    expected = ref.mean_loss(_as_tuples(scored))
    run.op(("score", 1), abs(losses[0] - expected) <= LOSS_TOLERANCE,
           "evaluate_loss %.17g, plain-numpy scorer %.17g"
           % (losses[0], expected))
    poems.check_reference(ref, 3)
    return dict(poems.metrics(), setup_s=statistics.median(setup),
                samples_per_s=statistics.fmean(rates), peak_rss_mb=rss,
                valid_loss=losses[0], keyword_recall=poems.recall())


def train_paper(run, seed, work):
    config = ip.ModelConfig(**PAPER)
    corpus = inputs.paper_corpus(work, seed, config.vocab_size,
                                 (config.visual_count, config.visual_dim),
                                 config.lines_per_poem, config.chars_per_line,
                                 n_images=TRAIN_IMAGES)
    run.begin_prepare()
    matches, samples = _pipeline(corpus, config)
    run.end_prepare()
    if [m[1] for m in matches] != ["poem0", "poem1", "poem2"]:
        raise RuntimeError("unexpected matches %r" % (matches,))
    # The 0/7/14/21 contexts of poems 0 and 1 train, in four batches of
    # two (train() batches samples of equal context length); the 0/7/14
    # contexts of the third poem validate.
    train_pool = samples[:8]
    valid_pool = [s for s in samples[8:] if len(s.preceding) < 21]
    tconfig = ip.TrainConfig(batch_size=2, max_epochs=1, seed=seed)

    poems = Poems(run, corpus)
    setup, rates = [], []
    first = {}
    last = {}

    def one_round(r):
        last.clear()
        for _ in range(TRAIN_SETUPS):
            model = None   # a user holds one model at a time
            t0 = time.perf_counter()
            model = ip.init_params(config, ip.SeededRng(seed))
            setup.append(time.perf_counter() - t0)
        batches = []
        t0 = time.perf_counter()
        with _recording_batches(batches):
            result = ip.train(model, train_pool, valid_pool, tconfig)
        rates.append(len(train_pool) / (time.perf_counter() - t0))
        del model
        if r == 1:
            first.update(history=result.history, best_valid=result.best_valid,
                         batches=batches)
        best = ip.model_from_bytes(result.best_checkpoint)
        del result
        poems.round(r, best)
        last["best"] = best

    def check_train(r):
        digests = _digests(last["best"])
        if r == 1:
            first["digests"] = digests
        run.op(("train", r), digests == first["digests"],
               "best checkpoint differs from round 1")

    run.rounds(one_round, len(corpus.images), check_train)
    rss = peak_rss_mib()
    # The last round's best parameters are round 1's, as checked above.
    best = _reference(_arrays(last.pop("best")), config)
    expected = best.mean_loss(_as_tuples(valid_pool))
    run.op(("valid-loss",),
           abs(first["best_valid"] - expected) <= LOSS_TOLERANCE,
           "train() best_valid %.17g, plain-numpy scorer %.17g"
           % (first["best_valid"], expected))
    poems.check_reference(best, 1)
    del best
    model = ip.init_params(config, ip.SeededRng(seed))
    init = _arrays(model)
    _check_batches(run, first["batches"], first["history"], train_pool,
                   _reference(init, config))
    _check_gradient(run, model, init, first["batches"][0][0], seed)
    return dict(poems.metrics(), setup_s=statistics.median(setup),
                samples_per_s=statistics.fmean(rates), peak_rss_mb=rss,
                valid_loss=first["best_valid"],
                keyword_recall=poems.recall())


WORKLOADS = {"generate-paper": generate_paper, "train-paper": train_paper}


def trace_metrics(run, values):
    """Per-layer metrics from the traced preparation and rounds.

    ``values`` are the workload's own results; the keyword recall of its
    poems is reported here, as the scoring of the datapipe layer.
    """
    tracer = run.tracer
    table = tracer.self_times()
    traced_rounds = len(run.round_s[True])
    metrics = {}
    for span, metric in tracing.SPAN_METRICS:
        in_rounds, calls, self_s, total_s = table.get(span, (0, 0, 0.0, 0.0))
        seconds = self_s if metric.endswith(".self_s") else total_s
        metrics[metric] = seconds / calls if calls else 0.0
        metrics[span + ".calls"] = in_rounds / traced_rounds
    c = tracer.counts

    def ratio(num, den, scale=1.0):
        return c[num] / c[den] / scale if c[den] else 0.0

    metrics.update({
        "layers.attend.visual.key_projections":
            ratio("visual_key_projections", "poems"),
        "layers.head.topic.rows_used": ratio("topic_rows", "topic_heads"),
        "numerics.grad_mb": ratio("grad_bytes", "gradients", 2.0 ** 20),
        "numerics.ops_per_poem": ratio("poem.ops", "poems"),
        "numerics.ops_per_sample": ratio("sample.ops", "samples"),
        "numerics.matmul_gmac_per_poem": ratio("poem.macs", "poems", 1e9),
        "numerics.matmul_gmac_per_sample": ratio("sample.macs", "samples",
                                                 1e9),
        "numerics.matmul_gb_per_poem": ratio("poem.bytes", "poems", 1e9),
        "numerics.matmul_gb_per_sample": ratio("sample.bytes", "samples",
                                               1e9),
        "checkpoint.mb": ratio("checkpoint_bytes", "checkpoints", 2.0 ** 20),
        "datapipe.keyword_recall": values["keyword_recall"],
    })
    # Every run has at least 4 rounds, so both kinds are present.
    metrics["trace.wall_s"] = run.traced_wall
    metrics["trace.untraced_s"] = run.traced_wall - tracer.covered_time()
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(run.round_s[True])
        / statistics.median(run.round_s[False]) - 1.0)
    return metrics, table
