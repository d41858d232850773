"""Print five paper-scale values that a change meant to keep bits must keep.

The model is init_params(ModelConfig(), SeededRng(1)).  numpy's
default_rng(2) then draws three images, each a uniform(-1, 1) 196x512
feature grid, three 2-id keywords and four 7-id lines; line k of an image
is a sample whose context is lines 0..k-1, which gives 12 samples.  The
five printed lines are:

    the first 16 hex digits of sha256 of repr of image 0's poem
    the 12 samples' evaluate_loss
    accumulate_gradients of image 0's four samples, after zero_grads
    the first 16 hex digits of sha256 over each parameter's name and
        gradient bytes ("-" for no buffer), in parameters() order
    the same digest over each parameter's name and initial data bytes

Run from anywhere, with the BLAS pinned to one thread, since the
gradient bits depend on the thread count:

    OPENBLAS_NUM_THREADS=1 python tools/paper_bits.py

Uses the standard library, numpy and this checkout's src/ only.
"""

import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import imagepoet as ip  # noqa: E402
from imagepoet import training  # noqa: E402

IMAGES = 3
KEYWORDS = 3
LINES = 4


def pool(config):
    """The 12 samples, image by image; an image's samples share its grid
    array, so the scorer prepares it once per wave."""
    rng = np.random.default_rng(2)
    samples = []
    for _ in range(IMAGES):
        grid = rng.uniform(-1, 1, (config.visual_count, config.visual_dim))
        keywords = [tuple(rng.integers(2, config.vocab_size, 2).tolist())
                    for _ in range(KEYWORDS)]
        lines = [tuple(rng.integers(2, config.vocab_size,
                                    config.chars_per_line).tolist())
                 for _ in range(LINES)]
        samples += [ip.TrainSample(features=grid, keywords=keywords,
                                   preceding=sum(lines[:k], ()),
                                   target=lines[k])
                    for k in range(LINES)]
    return samples


def digest(model, field):
    """The first 16 hex digits of sha256 over each parameter's name and
    the bytes of its field ("data" or "grad"; "-" for no buffer), in
    parameters() order."""
    h = hashlib.sha256()
    for name, p in model.parameters():
        h.update(name.encode())
        value = getattr(p, field)
        h.update(b"-" if value is None else value.tobytes())
    return h.hexdigest()[:16]


def main():
    model = ip.init_params(ip.ModelConfig(), ip.SeededRng(1))
    init = digest(model, "data")
    samples = pool(model.config)
    poem = ip.generate_poem(model, samples[0].features, samples[0].keywords)
    print(hashlib.sha256(repr(poem).encode()).hexdigest()[:16])
    print(repr(training.evaluate_loss(model, samples)))
    model.zero_grads()
    print(repr(training.accumulate_gradients(model, samples[:LINES])))
    print(digest(model, "grad"))
    print(init)
    return 0


if __name__ == "__main__":
    sys.exit(main())
