"""Reference implementations the tests compare the package against.

None of these run in training or tagging: they are exhaustive,
closed-form or stepwise oracles (CRF enumeration, the CRF forward-backward
recursion in log space, per-token softmax and cross-entropy, rendering
spans back to IOB labels, one LSTM cell update in plain numpy, a ragged
LSTM run with its gradients over whole arrays, the dense AdaDelta update,
vocabulary building and encoding token by token).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from seqtag.autodiff import _run_layout, _sigmoid
from seqtag.corpus import OOV_CHAR, OOV_TOKEN
from seqtag.crf import TagLattice

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


def lstm_step(x, h_prev, c_prev, p):
    """One cell update of vectors, by the equations in ``seqtag.layers``,
    with ``p`` a ``(w_x, w_h, b)`` triple of tensors; returns (h, c)."""
    w_x, w_h, b = (t.values for t in p)
    h = w_h.shape[0]
    if x.shape != (w_x.shape[0],) or h_prev.shape != (h,) or c_prev.shape != (h,):
        raise ValueError(
            f"lstm_step: got x {x.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"for cell expecting x ({w_x.shape[0]},), state ({h},)"
        )
    pre = x @ w_x + h_prev @ w_h + b
    gate_i, gate_f, gate_o = (1.0 / (1.0 + np.exp(-pre[j * h : (j + 1) * h])) for j in (0, 1, 3))
    gate_g = np.tanh(pre[2 * h : 3 * h])
    c = gate_f * c_prev + gate_i * gate_g
    return gate_o * np.tanh(c), c


def adadelta_dense_step(values, sq_grad, sq_step, g, rho, eps, lr):
    """One AdaDelta update of every entry by the documented formulas; returns
    the new (values, Eg2, Ed2) and leaves its arguments alone."""
    sq_grad = rho * sq_grad + (1.0 - rho) * g * g
    step = -np.sqrt(sq_step + eps) / np.sqrt(sq_grad + eps) * g
    sq_step = rho * sq_step + (1.0 - rho) * step * step
    return values + lr * step, sq_grad, sq_step


def vocab_oracle(train_sentences, min_count: int = 2) -> dict:
    """``build_vocab(...).to_dict()``, counting every token and character one by one."""
    word_counts: Counter = Counter()
    char_counts: Counter = Counter()
    labels: list = []
    seen_labels = set()
    for sent in train_sentences:
        for norm in sent.normalized:
            word_counts[norm] += 1
            char_counts.update(norm)
        for lab in sent.labels:
            if lab not in seen_labels:
                seen_labels.add(lab)
                labels.append(lab)
    words = [OOV_TOKEN] + [w for w, n in word_counts.items() if n >= min_count and w != OOV_TOKEN]
    return {"words": words, "chars": [OOV_CHAR] + list(char_counts), "labels": labels}


def encode_oracle(vocab, sent) -> tuple:
    """(word_ids, char_ids, gold) of one sentence, looked up token by token
    and character by character; gold is None unless every label is known."""
    word_ids = [vocab.word_id(t) for t in sent.normalized]
    char_ids = [[vocab.char_id(c) for c in t] for t in sent.normalized]
    gold = None
    if all(lab in vocab.label_set for lab in sent.labels):
        gold = [vocab.label_set.id(lab) for lab in sent.labels]
    return word_ids, char_ids, gold


def lstm_sequence_oracle(x, w_x, w_h, b, g, reverse=False, lengths=None):
    """States and gradients of ``lstm_sequence`` in its whole-array form.

    ``x``, the weights and the output gradient ``g`` are arrays. The
    forward keeps the packed inputs and hidden states; the backward builds
    the entering states, ``tanh(c)``, ``dh/dc`` and the four local products
    over all N rows before the recursion through time. Returns (states,
    (dx, dw_x, dw_h, db)), which the node's must equal bit for bit.
    """
    hid = w_h.shape[0]
    steps, perm = _run_layout(x.shape[0], lengths, reverse)
    xs = x[perm]
    gates = xs @ w_x
    cells = np.empty((x.shape[0], hid), dtype=gates.dtype)
    hidden = np.empty_like(cells)
    h = c = np.zeros((steps[0][1], hid), dtype=gates.dtype)
    with np.errstate(over="ignore"):
        for rows, k in steps:
            h, c = h[:k], c[:k]
            a = h @ w_h
            a += gates[rows]
            a += b
            act = gates[rows]
            act[...] = _sigmoid(a)
            act[:, 2 * hid : 3 * hid] = np.tanh(a[:, 2 * hid : 3 * hid])
            c = act[:, hid : 2 * hid] * c + act[:, :hid] * act[:, 2 * hid : 3 * hid]
            h = act[:, 3 * hid :] * np.tanh(c)
            cells[rows] = c
            hidden[rows] = h
    states = np.empty_like(hidden)
    states[perm] = hidden

    g = g[perm]
    h_prev = np.zeros_like(hidden)
    c_prev = np.zeros_like(cells)
    for (prev, _), (rows, k) in zip(steps, steps[1:]):
        h_prev[rows] = hidden[prev][:k]
        c_prev[rows] = cells[prev][:k]
    gi, gf, gg, go = (gates[:, j * hid : (j + 1) * hid] for j in range(4))
    tanh_c = np.tanh(cells)
    dh_dc = go * (1.0 - tanh_c * tanh_c)
    d_pre = np.empty_like(gates)
    local = d_pre.reshape(-1, 4, hid)
    np.multiply(gg * gi, 1.0 - gi, out=local[:, 0])
    np.multiply(c_prev * gf, 1.0 - gf, out=local[:, 1])
    np.multiply(gi, 1.0 - gg * gg, out=local[:, 2])
    np.multiply(tanh_c * go, 1.0 - go, out=local[:, 3])
    dh_next = np.zeros((steps[0][1], hid), dtype=g.dtype)
    dc_next = np.zeros_like(dh_next)
    for rows, k in reversed(steps):
        dh = g[rows] + dh_next[:k]
        dc = dc_next[:k] + dh * dh_dc[rows]
        d = local[rows]
        d[:, :3] *= dc[:, None]
        d[:, 3] *= dh
        np.multiply(dc, gf[rows], out=dc_next[:k])
        np.matmul(d_pre[rows], w_h.T, out=dh_next[:k])
    dx = np.zeros_like(x)
    dx[perm] += d_pre @ w_x.T
    return states, (dx, xs.T @ d_pre, h_prev.T @ d_pre, d_pre.sum(axis=0))
