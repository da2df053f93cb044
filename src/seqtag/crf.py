"""Output layer: per-token emission scores and a linear-chain CRF.

A sentence's scores live in a ``TagLattice``: an emission matrix with
one row per token and a square transition matrix over the label set
plus two boundary states (index K is the virtual start state, K + 1 the
virtual end state). The score of a label sequence is the sum of its
emissions, the transition from start into its first label, the
transitions between consecutive labels, and the transition from its
last label into end. Transitions into start and out of end are never
read by any scoring routine, which is equivalent to holding them at
minus infinity.

The negative log-likelihood is log Z, one tape node whose backward
pass sends the forward-backward marginals to the scores, minus the
gold path's score, gathered by one indexed read per score matrix. A
lattice may hold the emission rows of several sentences back to back;
``crf_nll`` with their ``lengths`` then gives the summed loss of all of
them from the same fixed handful of nodes.
Decoding is plain numeric Viterbi with ties broken toward the
lowest label index at every backpointer decision; the exhaustive oracle
in the tests applies the same preference, which for enumeration order
means keeping the candidate whose reversed sequence compares lowest.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    const_like,
    log_partition,
    matmul,
    multiply,
    pick_row,
    reduce_sum,
    transpose,
)


class LabelSet:
    """Ordered, unique label strings with a stable index."""

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("LabelSet: duplicate labels")
        if not labels:
            raise ValueError("LabelSet: empty label set")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"LabelSet: unknown label {label!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._index

    def __iter__(self):
        return iter(self.labels)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return Tensor(arr)


class TagLattice:
    """Emission scores for one sentence plus the shared transition matrix."""

    def __init__(self, emissions, transitions):
        self.emissions = _as_tensor(emissions)
        self.transitions = _as_tensor(transitions)
        if self.emissions.values.ndim != 2 or self.emissions.shape[0] < 1:
            raise ValueError(f"TagLattice: emissions must be (T, K), got {self.emissions.shape}")
        t, k = self.emissions.shape
        if self.transitions.shape != (k + 2, k + 2):
            raise ValueError(
                f"TagLattice: transitions {self.transitions.shape} does not match "
                f"{k} labels plus start/end states"
            )
        self.seq_len = t
        self.num_labels = k

    @property
    def start_index(self) -> int:
        return self.num_labels

    @property
    def end_index(self) -> int:
        return self.num_labels + 1


def _check_sequence(lat: TagLattice, y) -> list:
    y = list(y)
    if len(y) != lat.seq_len:
        raise ValueError(f"label sequence length {len(y)} != lattice length {lat.seq_len}")
    for lab in y:
        if not 0 <= lab < lat.num_labels:
            raise ValueError(f"label id {lab} outside [0, {lat.num_labels})")
    return y


def emission_scores(d: Tensor, w_o: Tensor) -> Tensor:
    """Emission rows W_o @ d_t for a (T, d) matrix of token states, as one (T, K) tensor."""
    if d.values.ndim != 2 or d.shape[0] == 0:
        raise ValueError(f"emission_scores: expected a non-empty (T, d) sequence, got {d.shape}")
    return matmul(d, transpose(w_o))


# ---------------------------------------------------------------------------
# CRF scoring and loss
# ---------------------------------------------------------------------------

def crf_sequence_score(lat: TagLattice, y) -> float:
    """Unnormalized score of one label sequence.

    Accumulation order matches the Viterbi recursion exactly, so the
    decoded path's score compares bit-for-bit equal.
    """
    y = _check_sequence(lat, y)
    a = lat.emissions.values
    b = lat.transitions.values
    s = b[lat.start_index, y[0]] + a[0, y[0]]
    for t in range(1, lat.seq_len):
        s = s + b[y[t - 1], y[t]]
        s = s + a[t, y[t]]
    s = s + b[y[-1], lat.end_index]
    return float(s)


def crf_log_partition(lat: TagLattice) -> Tensor:
    """Log of the summed exponentiated scores of all label sequences."""
    return log_partition(lat.emissions, lat.transitions)


def crf_nll(lat: TagLattice, y, lengths=None) -> Tensor:
    """Negative log-likelihood of the gold sequence; never below zero.

    With ``lengths`` the lattice's rows are several sentences back to
    back, ``y`` holds their gold labels in the same order, and the
    result is the sum of the sentences' losses.
    """
    y = np.asarray(_check_sequence(lat, y), dtype=np.int64)
    log_z = log_partition(lat.emissions, lat.transitions, lengths)  # also checks lengths
    lens = np.array([lat.seq_len] if lengths is None else lengths)
    ends = np.cumsum(lens)
    # each token's transition comes from the label before it, or from start at a
    # sentence's first token; each sentence's last label then moves to end
    before = np.roll(y, 1)
    before[ends - lens] = lat.start_index
    gold_score = reduce_sum(concat((
        pick_row(lat.emissions, (np.arange(lat.seq_len), y)),
        pick_row(lat.transitions, (np.concatenate((before, y[ends - 1])),
                                   np.concatenate((y, np.full(len(ends), lat.end_index))))),
    )))
    return add(log_z, multiply(gold_score, const_like(-1.0, gold_score)))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _viterbi(emissions, transitions):
    """Highest-scoring label path through a (T, K) lattice and its score.

    ``np.argmax`` keeps the first maximum, so ties go to the lowest label
    index. Score accumulation order matches ``crf_sequence_score`` bit for
    bit, so exact score comparisons are meaningful.
    """
    T, K = emissions.shape
    start, end = K, K + 1
    alpha = transitions[start, :K] + emissions[0]
    backptr = np.zeros((T, K), dtype=np.int64)
    for t in range(1, T):
        cand = alpha[:, None] + transitions[:K, :K]
        best = np.argmax(cand, axis=0)
        alpha = cand[best, np.arange(K)] + emissions[t]
        backptr[t] = best
    final = alpha + transitions[:K, end]
    last = int(np.argmax(final))
    score = float(final[last])
    path = np.empty(T, dtype=np.int64)
    path[T - 1] = last
    for t in range(T - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path, score


def viterbi_decode(lat: TagLattice):
    """Best label sequence and its score (exactly crf_sequence_score of it)."""
    path, score = _viterbi(lat.emissions.values, lat.transitions.values)
    return [int(p) for p in path], score
