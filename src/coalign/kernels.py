"""Row-wise numeric kernels in numpy.

Matrix products go through BLAS in the callers; everything that is per-row
arithmetic (softmax, cross-entropy, entropy, row normalization, the
momentum update) lives here.
"""

from __future__ import annotations

import numpy as np

# normalize_rows divides rows whose norm is at most NORM_EPS by it instead
NORM_EPS = 1e-12


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def xent(probs, labels, weights):
    # loss = sum over weighted rows of -log p[row, label] / max(1, sum(weights))
    # dlogits[row] = weights[row] * (p - onehot) / max(1, sum(weights))
    denom = max(1.0, float(weights.sum()))
    picked = probs[np.arange(probs.shape[0]), labels]
    active = weights > 0.0
    logp = np.zeros_like(picked)
    logp[active] = np.log(picked[active])
    loss = float(-(weights * logp).sum() / denom)
    dlogits = probs * (weights / denom)[:, None]
    dlogits[np.arange(probs.shape[0]), labels] -= weights / denom
    return loss, dlogits


def entropy(probs):
    # H = -(1/R) sum_r sum_i p log p, with 0 log 0 := 0.
    # dH/dlogits[r,i] = -(1/R) p_i (log p_i + H_r)
    rows = probs.shape[0]
    logp = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    plogp = probs * logp
    row_h = -plogp.sum(axis=1)
    h = float(row_h.sum() / rows)
    dlogits = -(probs * (logp + row_h[:, None])) / rows
    return h, dlogits


def normalize_rows(x):
    norms = np.sqrt((x * x).sum(axis=1))
    denom = np.where(norms > NORM_EPS, norms, NORM_EPS)
    return x / denom[:, None], norms


def normalize_rows_bwd(g, y, norms):
    # rows with norm > NORM_EPS: d = (g - y (y.g)) / norm; others: d = g / NORM_EPS
    denom = np.where(norms > NORM_EPS, norms, NORM_EPS)
    proj = (y * g).sum(axis=1)
    dx = (g - y * proj[:, None]) / denom[:, None]
    small = norms <= NORM_EPS
    if small.any():
        dx[small] = g[small] / NORM_EPS
    return dx


def sgd_update(value, grad, buf, lr, momentum):
    buf *= momentum
    buf += grad
    value -= lr * buf
