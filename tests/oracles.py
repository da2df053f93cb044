"""Reference implementations the tests compare the package against.

None of these run in training or tagging: they are exhaustive or
closed-form oracles (CRF enumeration, per-token softmax and
cross-entropy, rendering spans back to IOB labels).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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
