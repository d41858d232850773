"""Plain-numpy forward pass of the image-to-poem model.

This module shares no code with the package: it recomputes greedy poems
and teacher-forced losses from raw parameter arrays, keyed by the
checkpoint's parameter names, so the benchmark can check the program's
outputs against an independent computation.  The formulas are the ones
the package documents (GRU with update gate z, additive attention
``u . tanh(W q + U k)``, keyword memory read added onto the state, and the
normalized topic/generic output mixture).

The visual key projection ``rows @ U`` depends only on the image, so it
is computed once per image here; the package recomputes it at every step.
Both give the same numbers.
"""

import math

import numpy as np

LINE_START = 0   # previous character fed to the first decode step
POEM_START = 1   # stands in for an empty preceding context


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


class Reference:
    """Forward pass over a {name: ndarray} parameter dict."""

    def __init__(self, params, topic_weight, chars_per_line, lines_per_poem):
        self.p = params
        self.topic_weight = float(topic_weight)
        self.chars = int(chars_per_line)
        self.lines = int(lines_per_poem)
        self.vocab = params["embedding.weights"].shape[0]

    def _gru(self, prefix, h, x):
        p = self.p
        z = _sigmoid(p[prefix + ".w_z"] @ x + p[prefix + ".u_z"] @ h
                     + p[prefix + ".b_z"])
        r = _sigmoid(p[prefix + ".w_r"] @ x + p[prefix + ".u_r"] @ h
                     + p[prefix + ".b_r"])
        cand = np.tanh(p[prefix + ".w_h"] @ x + p[prefix + ".u_h"] @ (r * h)
                       + p[prefix + ".b_h"])
        return (1.0 - z) * h + z * cand

    def _run(self, prefix, xs):
        h = np.zeros(self.p[prefix + ".b_z"].shape)
        out = []
        for x in xs:
            h = self._gru(prefix, h, x)
            out.append(h)
        return out

    def _context(self, preceding):
        emb = self.p["embedding.weights"]
        xs = [emb[c] for c in (list(preceding) or [POEM_START])]
        fw = self._run("encoder.fw", xs)
        bw = self._run("encoder.bw", xs[::-1])[::-1]
        return np.stack([np.concatenate(pair) for pair in zip(fw, bw)])

    def _bank(self, keywords):
        emb = self.p["embedding.weights"]
        keys, contents = [], []
        for kw in keywords:
            xs = [emb[c] for c in kw]
            keys.append(np.concatenate([self._run("keyword.fw", xs)[-1],
                                        self._run("keyword.bw", xs[::-1])[-1]]))
            contents.append(sum(xs) / len(xs))
        if not keys:
            return None
        return np.stack(keys), np.stack(contents)

    def _attend(self, prefix, projected_keys, keys, query):
        p = self.p
        pre = projected_keys + p[prefix + ".query_proj"] @ query
        weights = _softmax(np.tanh(pre) @ p[prefix + ".score"])
        return weights @ keys

    def _head(self, prefix, features):
        p = self.p
        hidden = np.tanh(p[prefix + ".w_hidden"] @ features
                         + p[prefix + ".b_hidden"])
        return p[prefix + ".w_out"] @ hidden + p[prefix + ".b_out"]

    def _line_steps(self, rows, rows_proj, bank, topic_ids, preceding):
        """Yield the output distribution of each decode step of one line.

        The caller sends back the character to feed as the previous one at
        the next step.
        """
        p = self.p
        emb = p["embedding.weights"]
        h_states = self._context(preceding)
        text_proj = h_states @ p["attention.text.key_proj"]
        s = np.tanh(p["init_state.w"] @ (h_states.sum(axis=0) / len(h_states))
                    + p["init_state.b"])
        y_prev = LINE_START
        lam = self.topic_weight
        for _ in range(self.chars):
            h_hat = self._attend("attention.text", text_proj, h_states, s)
            v_hat = self._attend("attention.visual", rows_proj, rows, s)
            s = self._gru("decoder", s,
                          np.concatenate([emb[y_prev], h_hat, v_hat]))
            o = s
            if bank is not None:
                o = _softmax(bank[0] @ s) @ bank[1] + s
            features = np.concatenate([o, v_hat, h_hat])
            prob = _softmax(self._head("head.generic", features))
            if lam > 0.0 and topic_ids:
                logits = self._head("head.topic", features)
                p_topic = np.zeros(self.vocab)
                p_topic[topic_ids] = _softmax(logits[topic_ids])
                prob = (lam * p_topic + prob) / (1.0 + lam)
            y_prev = yield prob

    def _image(self, features, keywords):
        rows = np.asarray(features, dtype=np.float64)
        rows_proj = rows @ self.p["attention.visual.key_proj"]
        topic_ids = sorted({int(c) for kw in keywords for c in kw})
        return rows, rows_proj, self._bank(keywords), topic_ids

    def poem(self, features, keywords):
        """Greedy poem, lines in reading order."""
        image = self._image(features, keywords)
        lines = []
        for _ in range(self.lines):
            preceding = [c for line in lines for c in line]
            steps = self._line_steps(*image, preceding)
            emitted = []
            prob = next(steps)
            while True:
                emitted.append(int(np.argmax(prob)))
                try:
                    prob = steps.send(emitted[-1])
                except StopIteration:
                    break
            lines.append(emitted[::-1])
        return lines

    def loss_sum(self, features, keywords, preceding, target):
        """Teacher-forced -log p summed over the reversed target line."""
        steps = self._line_steps(*self._image(features, keywords), preceding)
        total = 0.0
        prob = next(steps)
        for i, tgt in enumerate(reversed(target)):
            total += -math.log(prob[tgt])
            if i + 1 < len(target):
                prob = steps.send(tgt)
        steps.close()
        return total

    def mean_loss(self, samples):
        """Mean per-character loss over (features, keywords, preceding, target)."""
        total, chars = 0.0, 0
        for features, keywords, preceding, target in samples:
            total += self.loss_sum(features, keywords, preceding, target)
            chars += len(target)
        return total / chars


def contains(haystack, needle):
    """True when needle occurs contiguously in haystack."""
    n = len(needle)
    return 0 < n <= len(haystack) and any(
        tuple(haystack[i:i + n]) == tuple(needle)
        for i in range(len(haystack) - n + 1))


def recall(poem_lines, realizations):
    """Share of concepts with at least one realization in the flat poem.

    ``realizations`` holds one collection of character-id tuples per concept.
    """
    flat = [c for line in poem_lines for c in line]
    hits = sum(1 for reals in realizations
               if any(contains(flat, r) for r in reals))
    return hits / len(realizations)
