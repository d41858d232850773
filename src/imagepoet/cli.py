"""Command-line entry point: train, generate, eval, check.

Exit codes: 0 success, 1 usage error, 2 input/data error, 3 numerical
failure.  Every subcommand is deterministic given its flags, files and
seed.
"""

import argparse
import os
import sys

from . import datapipe, poetics, verify
from .checkpoint import load_checkpoint
from .errors import (CheckpointError, ConfigError, DataError, DimensionError,
                     DomainError, NumericalError, UsageError, VocabularyError)
from .model import ModelConfig, generate_poem, init_params
from .rng import SeededRng
from .training import TrainConfig, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_model_flags(p):
    p.add_argument("--vocab", type=int, default=6000,
                   help="vocabulary size (default 6000)")
    p.add_argument("--hidden", type=int, default=512,
                   help="hidden width for encoder and decoder (default 512)")
    p.add_argument("--lambda", dest="topic_weight", type=float, default=0.5,
                   help="topic bias weight in [0, 1] (default 0.5)")
    p.add_argument("--lines", type=int, default=4,
                   help="lines per poem (default 4)")
    p.add_argument("--chars", type=int, default=7,
                   help="characters per line (default 7)")


def build_parser():
    parser = _Parser(prog="imagepoet",
                     description="Train and run the image-to-poem generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p.add_argument("--lexicon", required=True, help="concept lexicon file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", default=None,
                   help="loss log path (default: <out>.log)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--valid-frac", type=float, default=0.1,
                   help="fraction of samples held out for validation")
    p.add_argument("--cadence", type=int, default=1,
                   help="epochs between validation passes")
    p.add_argument("--clip", type=float, default=5.0,
                   help="global-norm gradient clip, <= 0 disables")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored; kept so older command lines parse")
    _add_model_flags(p)

    p = sub.add_parser("generate", help="generate a poem from feature files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True, help="visual feature file")
    p.add_argument("--keywords", required=True,
                   help="keyword file: one +-joined id sequence per line")
    p.add_argument("--lambda", dest="topic_weight", type=float, default=None,
                   help="override the checkpoint's topic bias weight")
    p.add_argument("--validate", action="store_true",
                   help="append a form report (needs --lexicon and --pattern)")
    p.add_argument("--lexicon", default=None, help="tone/rhyme lexicon file")
    p.add_argument("--pattern", default=None, help="tonal pattern file")
    p.add_argument("--machine", action="store_true",
                   help="emit bare character ids, one poem line per row")

    p = sub.add_parser("eval", help="mean keyword recall over a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--lambda", dest="topic_weight", type=float, default=None)

    p = sub.add_parser("check", help="run gradient and distribution checks")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--steps", type=int, default=200,
                   help="randomized decode steps for distribution checks")
    p.add_argument("--inject-grad-error", action="store_true",
                   help=argparse.SUPPRESS)  # negative-control test hook
    return parser


def cmd_train(args, stdout):
    config = ModelConfig(vocab_size=args.vocab, hidden_dim=args.hidden,
                         memory_dim=args.hidden,
                         topic_weight=args.topic_weight,
                         lines_per_poem=args.lines,
                         chars_per_line=args.chars)
    lexicon = datapipe.load_concept_lexicon(args.lexicon)
    images, poems = datapipe.load_corpus(args.corpus,
                                         lines_per_poem=args.lines,
                                         chars_per_line=args.chars)
    matches = datapipe.match_pairs(images, poems, lexicon)
    samples = datapipe.build_samples(matches, images, poems, lexicon)
    if not samples:
        raise DataError("corpus produced no training samples")
    # Feature grids fix the visual dims.
    config.visual_count, config.visual_dim = samples[0].features.shape
    config.validate()

    train_pool, valid_pool, _ = datapipe.split_pool(
        samples, (1.0 - args.valid_frac, args.valid_frac, 0.0), args.seed)
    if not valid_pool:
        raise ConfigError("validation pool is empty; raise --valid-frac "
                          "or provide more samples")
    tconfig = TrainConfig(batch_size=args.batch, max_epochs=args.epochs,
                          validate_every=args.cadence, clip_norm=args.clip,
                          seed=args.seed)
    model = init_params(config, SeededRng(args.seed))

    log_path = args.log if args.log is not None else args.out + ".log"
    with open(log_path, "w", encoding="utf-8") as log_fh:
        def log(line):
            log_fh.write(line + "\n")
            stdout.write(line + "\n")

        result = train(model, train_pool, valid_pool, tconfig, log=log)
    with open(args.out, "wb") as fh:
        fh.write(result.best_checkpoint)
    stdout.write("best epoch %d valid %.6f -> %s\n"
                 % (result.best_epoch, result.best_valid, args.out))
    return 0


def _load_keyword_file(path):
    keywords = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                keywords.append(tuple(int(c) for c in line.split("+")))
            except ValueError:
                raise DataError("%s:%d: bad keyword %r" % (path, number, line))
    return keywords


def _load_model(args):
    """The checkpoint's model, with --lambda applied when given."""
    model = load_checkpoint(args.checkpoint)
    if args.topic_weight is not None:
        model.config.topic_weight = args.topic_weight
        model.config.validate()
    return model


def _load_grid(path, config):
    """The feature grid in path, of the shape the model's config expects."""
    features = datapipe.load_feature_file(path)
    expected = (config.visual_count, config.visual_dim)
    if features.shape != expected:
        raise DataError("%s: visual features %s, expected %s"
                        % (path, features.shape, expected))
    return features


def _image_grid(image, config):
    """The feature grid of a corpus image (see _load_grid)."""
    if not image.feature_path or not os.path.exists(image.feature_path):
        raise DataError("feature file missing for image %r" % image.image_id)
    return _load_grid(image.feature_path, config)


def _format_line(line, machine):
    ids = " ".join(str(c) for c in line)
    return ids if machine else "line: " + ids


def cmd_generate(args, stdout):
    if args.validate and (args.lexicon is None or args.pattern is None):
        raise UsageError("--validate requires --lexicon and --pattern")
    model = _load_model(args)
    features = _load_grid(args.features, model.config)
    keywords = _load_keyword_file(args.keywords)
    poem = generate_poem(model, features, keywords)
    for line in poem:
        stdout.write(_format_line(line, args.machine) + "\n")
    if args.validate:
        lexicon = poetics.load_lexicon(args.lexicon)
        pattern = poetics.load_pattern(args.pattern,
                                       model.config.lines_per_poem,
                                       model.config.chars_per_line)
        report = poetics.validate_form(poem, pattern, lexicon,
                                       model.config.lines_per_poem,
                                       model.config.chars_per_line)
        for line in report.lines():
            stdout.write(line + "\n")
    return 0


def cmd_eval(args, stdout):
    model = _load_model(args)
    lexicon = datapipe.load_concept_lexicon(args.lexicon)
    images, _ = datapipe.load_corpus(args.corpus)
    images = [img for img in images if img.concepts]
    if not images:
        raise DataError("evaluation pool is empty")
    # Every grid is checked before the first poem, so a bad file late in
    # the pool fails before any work or output.  Grids are read again per
    # poem rather than held: at paper sizes each is 0.8 MB.
    for image in images:
        _image_grid(image, model.config)
    total = 0.0
    for image in images:
        features = _image_grid(image, model.config)
        keywords = datapipe.image_keywords(image, lexicon)
        poem = generate_poem(model, features, keywords)
        recall = datapipe.keyword_recall(poem, image.concepts, lexicon)
        total += recall
        stdout.write("recall %s %.6f\n" % (image.image_id, recall))
    stdout.write("mean_recall %.6f\n" % (total / len(images)))
    return 0


def cmd_check(args, stdout):
    ok = verify.run_checks(seed=args.seed, dist_steps=args.steps,
                           inject_error=args.inject_grad_error,
                           report_line=lambda s: stdout.write(s + "\n"))
    if not ok:
        raise NumericalError("verification checks failed")
    stdout.write("all checks passed\n")
    return 0


_COMMANDS = {"train": cmd_train, "generate": cmd_generate,
             "eval": cmd_eval, "check": cmd_check}


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, stdout)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (DataError, ConfigError, CheckpointError, VocabularyError,
            DimensionError, DomainError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
