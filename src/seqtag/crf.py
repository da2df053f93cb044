"""Decoding: the CRF lattice, the score of one label path, and Viterbi.

Labels are ids here; ``corpus.LabelSet`` maps them to their strings.

Scores live in a ``TagLattice``: an emission matrix with one row per
token and a square transition matrix over the label set plus two
boundary states (index K is the virtual start state, K + 1 the virtual
end state). The score of a label sequence is the sum of its emissions,
the transition from start into its first label, the transitions between
consecutive labels, and the transition from its last label into end.
Transitions into start and out of end are never read by any scoring
routine, which is equivalent to holding them at minus infinity.

The module only decodes. The emission rows come from
``model.emission_scores``; the training loss, log Z minus the gold
path's score, is the ``autodiff.crf_nll`` node, which takes the
emission and transition tensors in this layout and the sentences'
``lengths``, and whose backward pass sends the forward-backward
marginals minus the gold counts to the scores.
Decoding is plain numeric Viterbi with ties broken toward the
lowest label index at every backpointer decision; the exhaustive oracle
in the tests applies the same preference, which for enumeration order
means keeping the candidate whose reversed sequence compares lowest.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return Tensor(arr)


class TagLattice:
    """Emission rows of one sentence and the transitions."""

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


def crf_sequence_score(lat: TagLattice, y) -> float:
    """Unnormalized score of one label sequence.

    Accumulation order matches the Viterbi recursion exactly, so the
    decoded path's score compares bit-for-bit equal.
    """
    y = list(y)
    if len(y) != lat.seq_len:
        raise ValueError(f"label sequence length {len(y)} != lattice length {lat.seq_len}")
    for lab in y:
        if not 0 <= lab < lat.num_labels:
            raise ValueError(f"label id {lab} outside [0, {lat.num_labels})")
    a = lat.emissions.values
    b = lat.transitions.values
    s = b[lat.start_index, y[0]] + a[0, y[0]]
    for t in range(1, lat.seq_len):
        s = s + b[y[t - 1], y[t]]
        s = s + a[t, y[t]]
    s = s + b[y[-1], lat.end_index]
    return float(s)


def viterbi_decode(lat: TagLattice):
    """Highest-scoring label path through the lattice and its score.

    ``np.argmax`` keeps the first maximum, so ties go to the lowest label
    index. Score accumulation order matches ``crf_sequence_score`` bit for
    bit, so the returned score equals the path's ``crf_sequence_score``.
    """
    emissions, transitions = lat.emissions.values, lat.transitions.values
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
    return [int(p) for p in path], score
