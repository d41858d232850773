"""Corpus construction and the keyword-recall metric.

File formats:

* Feature file (binary, little-endian): magic b"VFGR", u32 version (1),
  u32 row count, u32 column count, then rows*cols f32 values row-major.
* Corpus file: one JSON object per line, either
  ``{"image_id": ..., "feature_path": ..., "concepts": [...]}`` or
  ``{"poem_id": ..., "lines": [[char ids], ...]}``.  Feature paths are
  resolved relative to the corpus file; image ids and poem ids are each
  unique.
* Concept lexicon: ``label<TAB>real1,real2,...`` with each realization a
  ``+``-joined sequence of character ids; labels are unique.

Matching pairs an image with every poem line sharing at least one
concept; each match then yields one training sample per poem line.
"""

import dataclasses
import json
import os
import struct

import numpy as np

from .errors import ConfigError, DataError, DomainError
from .poetics import claim_key, content_lines
from .rng import SeededRng
from .training import TrainSample

FEATURE_MAGIC = b"VFGR"
FEATURE_VERSION = 1


@dataclasses.dataclass
class ImageRecord:
    image_id: str
    feature_path: str
    concepts: list


@dataclasses.dataclass
class PoemRecord:
    poem_id: str
    lines: list


class ConceptLexicon:
    """Concept label -> set of character-id sequences realizing it."""

    def __init__(self, realizations=None):
        self.realizations = {label: {tuple(r) for r in reals}
                             for label, reals in (realizations or {}).items()}

    def labels(self):
        return sorted(self.realizations)

    def of(self, label):
        return self.realizations.get(label, set())


def parse_ids(text, path, number, what):
    """The ids of a ``+``-joined sequence such as ``12+7``, read from
    line number of path; what names it in the error."""
    try:
        return tuple(int(c) for c in text.split("+"))
    except ValueError:
        raise DataError("%s:%d: bad %s %r" % (path, number, what, text))


def load_concept_lexicon(path):
    lexicon, first_lines = {}, {}
    for number, line in content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError("%s:%d: expected label<TAB>realizations"
                            % (path, number))
        label, blob = parts
        claim_key(first_lines, label, path, number, "label")
        reals = {parse_ids(chunk, path, number, "realization")
                 for chunk in map(str.strip, blob.split(",")) if chunk}
        if not reals:
            raise DataError("%s:%d: label %r has no realizations"
                            % (path, number, label))
        lexicon[label] = reals
    return ConceptLexicon(lexicon)


def save_concept_lexicon(lexicon, path):
    with open(path, "w", encoding="utf-8") as fh:
        for label in lexicon.labels():
            reals = sorted(lexicon.of(label))
            blob = ",".join("+".join(str(c) for c in r) for r in reals)
            fh.write("%s\t%s\n" % (label, blob))


def write_feature_file(path, features):
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise DataError("feature grid must be 2-d, got shape %s"
                        % (features.shape,))
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION,
                             features.shape[0], features.shape[1]))
        fh.write(np.ascontiguousarray(features, dtype="<f4").tobytes())


def load_feature_file(path):
    """Feature grid as float64, shape (rows, cols)."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(4 + 12)
            if len(header) != 16:
                raise DataError("%s: truncated feature header" % path)
            if header[:4] != FEATURE_MAGIC:
                raise DataError("%s: not a feature file (bad magic)" % path)
            version, rows, cols = struct.unpack("<III", header[4:])
            if version != FEATURE_VERSION:
                raise DataError("%s: unsupported feature version %d"
                                % (path, version))
            size = os.fstat(fh.fileno()).st_size - len(header)
            if size != 4 * rows * cols:
                raise DataError("%s: expected %d feature values, file holds "
                                "%d bytes" % (path, rows * cols, size))
            blob = fh.read(size)
    except OSError as exc:
        raise DataError("%s: %s" % (path, exc))
    values = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataError("%s: non-finite feature values" % path)
    return values.reshape(rows, cols)


def _not_str(value, what):
    """value, unless it is a string, which list() would split per character."""
    if isinstance(value, str):
        raise TypeError("%s must be a list, not a string" % what)
    return value


def load_corpus(path, lines_per_poem=None, chars_per_line=None):
    """Image and poem records from a JSON-lines corpus file."""
    images, poems = [], []
    image_lines, poem_lines = {}, {}
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise DataError("%s:%d: bad JSON: %s" % (path, number, exc))
            try:
                if "image_id" in record:
                    feature_path = record.get("feature_path", "")
                    if feature_path and not os.path.isabs(feature_path):
                        feature_path = os.path.join(base, feature_path)
                    image = ImageRecord(
                        str(record["image_id"]), feature_path,
                        list(_not_str(record.get("concepts", []),
                                      "concepts")))
                elif "poem_id" in record:
                    poem_id = str(record["poem_id"])
                    lines = [tuple(int(c) for c in _not_str(l, "a line"))
                             for l in _not_str(record["lines"], "lines")]
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise DataError("%s:%d: malformed record: %s: %s"
                                % (path, number, type(exc).__name__, exc))
            if "image_id" in record:
                claim_key(image_lines, image.image_id, path, number,
                          "image id")
                images.append(image)
            elif "poem_id" in record:
                claim_key(poem_lines, poem_id, path, number, "poem id")
                if lines_per_poem is not None and len(lines) != lines_per_poem:
                    raise DataError("%s:%d: poem has %d lines, expected %d"
                                    % (path, number, len(lines),
                                       lines_per_poem))
                if chars_per_line is not None:
                    for i, l in enumerate(lines, start=1):
                        if len(l) != chars_per_line:
                            raise DataError(
                                "%s:%d: line %d has %d chars, expected %d"
                                % (path, number, i, len(l), chars_per_line))
                poems.append(PoemRecord(poem_id, lines))
            else:
                raise DataError("%s:%d: record is neither an image nor a poem"
                                % (path, number))
    return images, poems


def _contains(haystack, needle):
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(tuple(haystack[i:i + n]) == needle
               for i in range(len(haystack) - n + 1))


def extract_concepts(line, lexicon):
    """Labels with at least one realization contiguous in the line."""
    line = tuple(line)
    found = set()
    for label in lexicon.labels():
        if any(_contains(line, real) for real in lexicon.of(label)):
            found.add(label)
    return found


def match_pairs(images, poems, lexicon):
    """(image_id, poem_id, line_index) for every concept overlap.

    Sorted by (image id, poem id, line index); line indices are 0-based.
    """
    line_concepts = {}
    for poem in poems:
        for idx, line in enumerate(poem.lines):
            line_concepts[(poem.poem_id, idx)] = extract_concepts(line,
                                                                  lexicon)
    matches = []
    for image in images:
        concepts = set(image.concepts)
        for poem in poems:
            for idx in range(len(poem.lines)):
                if concepts & line_concepts[(poem.poem_id, idx)]:
                    matches.append((image.image_id, poem.poem_id, idx))
    matches.sort()
    return matches


def image_keywords(image, lexicon):
    """All realizations of an image's concept labels, sorted for determinism."""
    keywords = set()
    for label in image.concepts:
        keywords |= lexicon.of(label)
    return sorted(keywords)


def build_samples(matches, images, poems, lexicon):
    """One TrainSample per (match, poem line).

    Match entry (image, poem, j) contributes every line of the poem as a
    target with its true preceding lines, paired with the image's feature
    grid and keyword realizations.  Every feature grid must have the
    shape of the first one loaded.
    """
    image_by_id = {img.image_id: img for img in images}
    poem_by_id = {p.poem_id: p for p in poems}
    cache = {}
    first = None   # (path, shape) of the first feature grid
    samples = []
    for image_id, poem_id, _ in matches:
        if image_id not in image_by_id:
            raise DataError("match references unknown image %r" % image_id)
        if poem_id not in poem_by_id:
            raise DataError("match references unknown poem %r" % poem_id)
        image = image_by_id[image_id]
        poem = poem_by_id[poem_id]
        if image_id not in cache:
            if not image.feature_path or not os.path.exists(image.feature_path):
                raise DataError("feature file missing for image %r (%s)"
                                % (image_id, image.feature_path or "no path"))
            grid = load_feature_file(image.feature_path)
            if first is None:
                first = (image.feature_path, grid.shape)
            elif grid.shape != first[1]:
                raise DataError("feature file %s holds a %s grid, but %s "
                                "holds %s" % ((image.feature_path, grid.shape)
                                              + first))
            cache[image_id] = grid
        keywords = image_keywords(image, lexicon)
        for i in range(len(poem.lines)):
            preceding = tuple(c for line in poem.lines[:i] for c in line)
            samples.append(TrainSample(features=cache[image_id],
                                       keywords=keywords,
                                       preceding=preceding,
                                       target=poem.lines[i]))
    return samples


def keyword_recall(poem_lines, concepts, lexicon):
    """Fraction of concept labels realized contiguously in the poem."""
    concepts = sorted(set(concepts))
    if not concepts:
        raise DomainError("keyword_recall needs a nonempty concept set")
    flat = tuple(c for line in poem_lines for c in line)
    hits = 0
    for label in concepts:
        if any(_contains(flat, real) for real in lexicon.of(label)):
            hits += 1
    return hits / len(concepts)


def split_pool(samples, fractions, seed):
    """Deterministic (train, valid, test) partition.

    Validation and test sizes are floors of their fractions; the train
    pool takes the remainder.
    """
    if len(fractions) != 3:
        raise ConfigError("fractions must be (train, valid, test)")
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in [0, 1], got %r"
                          % (fractions,))
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("fractions must sum to 1, got %r" % (fractions,))
    n = len(samples)
    n_valid = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_valid - n_test
    order = list(range(n))
    SeededRng(seed).shuffle(order)
    train = [samples[i] for i in order[:n_train]]
    valid = [samples[i] for i in order[n_train:n_train + n_valid]]
    test = [samples[i] for i in order[n_train + n_valid:]]
    return train, valid, test
