"""Reference implementations the tests compare the package against.

None of these run in training or tagging: they are exhaustive,
closed-form or stepwise oracles (CRF enumeration, the CRF forward-backward
recursion in log space, per-token softmax and cross-entropy, rendering
spans back to IOB labels, one LSTM cell update built from tape
primitives, the dense AdaDelta update).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from seqtag.autodiff import Tensor, add, matmul, multiply, narrow, sigmoid, tanh
from seqtag.crf import TagLattice
from seqtag.layers import LstmParams

ENUMERATION_LIMIT = 10**6


def softmax_predict(d, w_o) -> np.ndarray:
    """Probability distribution over labels for one token."""
    d = np.asarray(getattr(d, "values", d))
    w_o = np.asarray(getattr(w_o, "values", w_o))
    if w_o.ndim != 2 or d.ndim != 1 or w_o.shape[1] != d.shape[0]:
        raise ValueError(f"softmax_predict: weight {w_o.shape} does not apply to {d.shape}")
    logits = w_o @ d
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def crossentropy_loss(probs_seq, gold) -> float:
    """Negative log-probability of the gold labels under given distributions.

    Probabilities are floored at 1e-12 before the log so a confidently
    wrong model yields a large finite loss instead of an overflow.
    """
    probs_seq = list(probs_seq)
    gold = list(gold)
    if len(probs_seq) != len(gold):
        raise ValueError(f"crossentropy_loss: {len(probs_seq)} distributions vs {len(gold)} labels")
    total = 0.0
    for probs, y in zip(probs_seq, gold):
        probs = np.asarray(getattr(probs, "values", probs))
        if not 0 <= y < probs.shape[0]:
            raise ValueError(f"crossentropy_loss: gold id {y} outside [0, {probs.shape[0]})")
        total -= math.log(max(float(probs[y]), 1e-12))
    return total


def brute_force_oracle(lat: TagLattice):
    """Exhaustive enumeration of all K**T sequences.

    Returns (log partition, argmax sequence). Among equal-scoring
    sequences the one whose reversed tuple is smallest wins, matching
    the lowest-index backpointer preference of the Viterbi recursion.
    """
    t_len, k = lat.seq_len, lat.num_labels
    count = k**t_len
    if count > ENUMERATION_LIMIT:
        raise ValueError(
            f"brute_force_oracle: {k}^{t_len} sequences exceed the {ENUMERATION_LIMIT} limit"
        )
    a = lat.emissions.values
    b = lat.transitions.values
    start, end = lat.start_index, lat.end_index

    scores = np.empty(count, dtype=np.float64)
    best_seq = None
    best_key = None
    for idx, seq in enumerate(itertools.product(range(k), repeat=t_len)):
        s = b[start, seq[0]] + a[0, seq[0]]
        for t in range(1, t_len):
            s = s + b[seq[t - 1], seq[t]]
            s = s + a[t, seq[t]]
        s = s + b[seq[-1], end]
        scores[idx] = s
        key = (-s, tuple(reversed(seq)))
        if best_key is None or key < best_key:
            best_key = key
            best_seq = seq
    m = scores.max()
    log_z = float(m + np.log(np.exp(scores - m).sum()))
    return log_z, list(best_seq)


def _logsumexp(v, axis=None):
    m = v.max(axis=axis)
    return m + np.log(np.exp(v - m).sum(axis=axis))


def crf_log_space(emissions, transitions):
    """(log Z, d log Z / d emissions, d log Z / d transitions) of one lattice.

    The per-sentence forward-backward recursion in log space, in float64:
    one K x K log-sum-exp per position and direction, with no scaling to
    underflow. ``transitions`` is laid out as in ``TagLattice``.
    """
    a = np.asarray(emissions, dtype=np.float64)
    b = np.asarray(transitions, dtype=np.float64)
    steps, k = a.shape
    trans = b[:k, :k]
    # alpha[t, j] / beta[t, i]: log of the summed scores of all prefixes
    # ending in label j at t / of all suffixes after label i at t
    alpha = np.empty_like(a)
    alpha[0] = b[k, :k] + a[0]
    for t in range(1, steps):
        alpha[t] = _logsumexp(alpha[t - 1][:, None] + trans, axis=0) + a[t]
    log_z = float(_logsumexp(alpha[-1] + b[:k, k + 1]))
    beta = np.empty_like(a)
    beta[-1] = b[:k, k + 1]
    for t in range(steps - 1, 0, -1):
        beta[t - 1] = _logsumexp((trans + (a[t] + beta[t])).T, axis=0)
    unary = np.exp(alpha + beta - log_z)
    pairs = np.exp(alpha[:-1, :, None] + trans + (a[1:] + beta[1:])[:, None, :] - log_z)
    d_trans = np.zeros_like(b)
    d_trans[:k, :k] = pairs.sum(axis=0)
    d_trans[k, :k] = unary[0]
    d_trans[:k, k + 1] = unary[-1]
    return log_z, unary, d_trans


def render_labels(spans, length: int) -> list:
    """Inverse of extract_spans for well-formed, non-overlapping spans."""
    labels = ["O"] * length
    occupied = [False] * length
    for span in spans:
        if not 0 <= span.start < span.end <= length:
            raise ValueError(f"render_labels: span {span} outside [0, {length})")
        for i in range(span.start, span.end):
            if occupied[i]:
                raise ValueError(f"render_labels: overlapping span {span}")
            occupied[i] = True
        labels[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end):
            labels[i] = f"I-{span.label}"
    return labels


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, p: LstmParams):
    """One cell update; returns (h, c)."""
    h = p.hidden_size
    if x.shape != (p.input_dim,) or h_prev.shape != (h,) or c_prev.shape != (h,):
        raise ValueError(
            f"lstm_step: got x {x.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"for cell expecting x ({p.input_dim},), state ({h},)"
        )
    pre = add(add(matmul(x, p.w_x), matmul(h_prev, p.w_h)), p.b)
    gate_i = sigmoid(narrow(pre, 0, h))
    gate_f = sigmoid(narrow(pre, h, 2 * h))
    gate_g = tanh(narrow(pre, 2 * h, 3 * h))
    gate_o = sigmoid(narrow(pre, 3 * h, 4 * h))
    c = add(multiply(gate_f, c_prev), multiply(gate_i, gate_g))
    new_h = multiply(gate_o, tanh(c))
    return new_h, c


def adadelta_dense_step(values, sq_grad, sq_step, g, rho, eps, lr):
    """One AdaDelta update of every entry by the documented formulas; returns
    the new (values, Eg2, Ed2) and leaves its arguments alone."""
    sq_grad = rho * sq_grad + (1.0 - rho) * g * g
    step = -np.sqrt(sq_step + eps) / np.sqrt(sq_grad + eps) * g
    sq_step = rho * sq_step + (1.0 - rho) * step * step
    return values + lr * step, sq_grad, sq_step
