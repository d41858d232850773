"""Op-level scalar oracles used to cross-check the package's layers.

Each oracle recomputes one op (matrix product, GRU step, Bi-GRU, additive
attention, memory addressing and read) with scalar Python loops and
math.*, never through the package's numerics module, so an op and its
check share no code path.  The whole-model reference is
bench/reference.py, shared with the benchmark; ``batch_loss_ref`` only
adapts a model and a batch to it.
"""

import math

import numpy as np

import reference


def matmul_3loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax_ref(v):
    shift = max(v)
    e = [math.exp(x - shift) for x in v]
    s = sum(e)
    return np.array([x / s for x in e])


def _matvec_loop(m, v):
    out = np.zeros(m.shape[0])
    for i in range(m.shape[0]):
        acc = 0.0
        for j in range(m.shape[1]):
            acc += m[i, j] * v[j]
        out[i] = acc
    return out


def gru_step_ref(cell, h_prev, x):
    """Per-element GRU transition from a package GRUCell's raw arrays."""
    w_z, u_z, b_z = cell.w_z.data, cell.u_z.data, cell.b_z.data
    w_r, u_r, b_r = cell.w_r.data, cell.u_r.data, cell.b_r.data
    w_h, u_h, b_h = cell.w_h.data, cell.u_h.data, cell.b_h.data
    hid = cell.hidden_dim
    out = np.zeros(hid)
    z_pre = _matvec_loop(w_z, x) + _matvec_loop(u_z, h_prev) + b_z
    r_pre = _matvec_loop(w_r, x) + _matvec_loop(u_r, h_prev) + b_r
    for i in range(hid):
        z = sigmoid_scalar(z_pre[i])
        r_h = np.array([sigmoid_scalar(r_pre[j]) * h_prev[j]
                        for j in range(hid)])
        cand = math.tanh(_matvec_loop(w_h, x)[i]
                         + _matvec_loop(u_h, r_h)[i] + b_h[i])
        out[i] = (1.0 - z) * h_prev[i] + z * cand
    return out


def bigru_ref(cell_fw, cell_bw, xs):
    """Manually unrolled bidirectional encoding."""
    n = len(xs)
    fw = []
    h = np.zeros(cell_fw.hidden_dim)
    for x in xs:
        h = gru_step_ref(cell_fw, h, x)
        fw.append(h)
    bw = [None] * n
    h = np.zeros(cell_bw.hidden_dim)
    for j in range(n - 1, -1, -1):
        h = gru_step_ref(cell_bw, h, xs[j])
        bw[j] = h
    return [np.concatenate([fw[j], bw[j]]) for j in range(n)]


def attend_ref(params, query, keys):
    """Direct evaluation of the additive attention formula, key by key."""
    u = params.score.data
    w = params.query_proj.data
    key_proj = params.key_proj.data  # stored (key_dim, proj_dim)
    wq = _matvec_loop(w, query)
    scores = []
    for k in keys:
        pre = wq + _matvec_loop(key_proj.T, k)
        scores.append(sum(u[i] * math.tanh(pre[i]) for i in range(len(u))))
    weights = softmax_ref(scores)
    context = np.zeros(len(keys[0]))
    for wgt, k in zip(weights, keys):
        context += wgt * k
    return context, weights


def address_ref(keys, state):
    return softmax_ref([float(np.dot(state, q)) for q in keys])


def read_ref(contents, weights):
    out = np.zeros(len(contents[0]))
    for w, m in zip(weights, contents):
        out += w * m
    return out


def batch_loss_ref(model, batch):
    """Mean per-character loss of the batch from bench/reference.py."""
    c = model.config
    ref = reference.Reference({name: t.data for name, t in model.parameters()},
                              c.topic_weight, c.chars_per_line,
                              c.lines_per_poem)
    return ref.mean_loss([(s.features, s.keywords, s.preceding, s.target)
                          for s in batch])
