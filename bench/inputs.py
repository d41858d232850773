"""Seeded benchmark inputs, written as files in the package's formats.

Every input is drawn from ``numpy.random.default_rng(seed)``; the package
sees only the files.  The shape of the inputs is fixed and only the
drawn values depend on the seed, so runs with different seeds do the
same amount of work:

* Images: a VFGR feature grid, a keyword file (the realizations of the
  image's concepts) and a concept list.  Each concept has one realization,
  and the characters of different concepts are distinct.
* Poems: lines of filler characters (characters that realize no concept),
  with concept realizations planted at seeded positions.
"""

import json
import os
import struct

import numpy as np


def write_features(path, grid):
    """VFGR file: magic, u32 version 1, u32 rows, u32 cols, f32 row-major."""
    grid = np.ascontiguousarray(grid, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"VFGR" + struct.pack("<III", 1, *grid.shape))
        fh.write(grid.tobytes())


class Corpus:
    """Paths and ground truth of one written corpus."""

    def __init__(self, directory):
        self.directory = directory
        self.corpus = os.path.join(directory, "corpus.jsonl")
        self.lexicon = os.path.join(directory, "concepts.tsv")
        self.images = []   # dicts: id, features, keywords, concepts
        self.poems = []    # dicts: id, lines
        self.realization = {}  # concept label -> character tuple


def _write(corpus, grids):
    with open(corpus.lexicon, "w", encoding="utf-8") as fh:
        for label, real in sorted(corpus.realization.items()):
            fh.write("%s\t%s\n" % (label, "+".join(map(str, real))))
    with open(corpus.corpus, "w", encoding="utf-8") as fh:
        for image, grid in zip(corpus.images, grids):
            write_features(image["features"], grid)
            reals = sorted(corpus.realization[c] for c in image["concepts"])
            with open(image["keywords"], "w", encoding="utf-8") as kw:
                kw.writelines("+".join(map(str, r)) + "\n" for r in reals)
            fh.write(json.dumps({
                "image_id": image["id"],
                "feature_path": os.path.basename(image["features"]),
                "concepts": image["concepts"]}) + "\n")
        for poem in corpus.poems:
            fh.write(json.dumps({"poem_id": poem["id"],
                                 "lines": poem["lines"]}) + "\n")


def _image(corpus, index, concepts):
    stem = os.path.join(corpus.directory, "img%02d" % index)
    corpus.images.append({"id": "img%02d" % index,
                          "features": stem + ".vfgr",
                          "keywords": stem + ".kw",
                          "concepts": concepts})


def _line(rng, filler, chars, planted=()):
    """Filler line with the planted realizations at non-overlapping places."""
    line = [int(c) for c in rng.choice(filler, size=chars)]
    planted = [planted[i] for i in rng.permutation(len(planted))]
    free = chars - sum(len(real) for real in planted)
    offset = 0
    for gap, real in zip(sorted(rng.integers(0, free + 1, len(planted))),
                         planted):
        line[gap + offset:gap + offset + len(real)] = real
        offset += len(real)
    return line


def paper_corpus(directory, seed, vocab, grid_shape, lines, chars,
                 n_images=10, n_poems=3):
    """Paper-scale corpus.

    Image i has 1 + i % 6 concepts; concept j of image i has 1 character
    when i + j is even and 2 otherwise.  Poem k plants the first concept
    of image k in its first line, so it matches image k alone.
    """
    rng = np.random.default_rng(seed)
    corpus = Corpus(directory)
    pool = [int(c) for c in rng.permutation(np.arange(2, vocab))]
    grids = []
    for i in range(n_images):
        labels = []
        for j in range(1 + i % 6):
            label = "k%02d_%d" % (i, j)
            width = 1 if (i + j) % 2 == 0 else 2
            corpus.realization[label] = tuple(pool[:width])
            del pool[:width]
            labels.append(label)
        _image(corpus, i, labels)
        grids.append(rng.uniform(-1.0, 1.0, grid_shape))
    filler = np.array(pool)
    for k in range(n_poems):
        planted = corpus.realization[corpus.images[k]["concepts"][0]]
        poem_lines = [_line(rng, filler, chars, [planted] if l == 0 else ())
                      for l in range(lines)]
        corpus.poems.append({"id": "poem%d" % k, "lines": poem_lines})
    _write(corpus, grids)
    return corpus


def read_keywords(path):
    """Keyword file: one ``+``-joined character-id sequence per line."""
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(int(c) for c in line.split("+"))
                for line in fh if line.strip()]
