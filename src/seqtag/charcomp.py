"""Character-level word representations and word/char combination.

A word's characters run through their own bidirectional LSTM; the final
state of each direction is concatenated and projected through tanh into
a vector ``m`` the same length as the word embedding. Two ways to merge
``m`` with the word embedding ``x``:

* concatenation, doubling the representation fed to the word-level LSTM
* a sigmoid gate ``z`` predicted from both vectors, combining them as
  ``z * x + (1 - z) * m`` feature by feature, in one ``mix`` node

The gated variant comes with an auxiliary objective that pulls ``m``
toward ``x`` for in-vocabulary tokens, summing ``1 - cos(m, x)`` over
them: one ``cosine_distance`` node and its sum. The word-embedding side
enters through ``stop_gradient``, so the pull acts on the character
composer only, and tokens mapped to the OOV row are skipped entirely.

``compose_words`` composes a list of character sequences with one ragged
``lstm_sequence`` node per direction, whatever their lengths. The
combiners and the auxiliary loss take (N, dim) matrices with one token
per row, a whole batch of sentences at once. Parameters come in as
plain tensors: the composer takes the character table, a
``(w_x, w_h, b)`` triple per direction and the projection ``w_m``; the
gate takes its three square matrices.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    cosine_distance,
    linear,
    lstm_sequence,
    mix,
    pick_row,
    reduce_sum,
    sigmoid,
    stop_gradient,
    tanh,
)


def compose_words(char_seqs, char_emb: Tensor, fwd, bwd, w_m: Tensor) -> Tensor:
    """Character-level word vectors m, one row per character sequence.

    All sequences' characters, stored back to back, run through the
    character BiLSTM as one ragged ``lstm_sequence`` per direction; a
    word's final states are its last row forward and its first row
    backward, so a call costs eight tape nodes whatever its lengths. Row
    i of the (len(char_seqs), word_dim) result is the vector of
    ``char_seqs[i]``.
    """
    seqs = [list(s) for s in char_seqs]
    if not seqs:
        raise ValueError("compose_words: no character sequences")
    lengths = np.array([len(s) for s in seqs])
    if not lengths.all():
        raise ValueError("compose_words: empty character sequence")
    ends = np.cumsum(lengths)
    chars = pick_row(char_emb, np.concatenate(seqs))
    forward = lstm_sequence(chars, *fwd, lengths=lengths)
    backward = lstm_sequence(chars, *bwd, reverse=True, lengths=lengths)
    h_star = concat((pick_row(forward, ends - 1), pick_row(backward, ends - lengths)), axis=1)
    return tanh(linear(h_star, w_m))


def combine_concat(x: Tensor, m: Tensor) -> Tensor:
    """Join (N, dim) matrices x and m feature-wise, row by row."""
    if x.shape != m.shape:
        raise ValueError(f"combine_concat: length mismatch {x.shape} vs {m.shape}")
    return concat((x, m), axis=1)


def combine_attention(x: Tensor, m: Tensor, w_z1: Tensor, w_z2: Tensor, w_z3: Tensor):
    """Gate the two word representations; returns (combined, z).

    x and m are (N, dim) matrices with one token per row.
    Every entry of z lies strictly inside (0, 1), so the combination is
    a per-feature convex mix of x and m. z is returned so callers can
    export and inspect it.
    """
    if x.shape != m.shape or x.values.ndim != 2 or x.shape[1] != w_z1.shape[0]:
        raise ValueError(
            f"combine_attention: got x {x.shape}, m {m.shape} for gate weights {w_z1.shape}"
        )
    # row-vector form of z = sigmoid(W3 tanh(W1 x + W2 m)), one row per token
    hidden = tanh(add(linear(x, w_z1), linear(m, w_z2)))
    z = sigmoid(linear(hidden, w_z3))
    return mix(z, x, m), z


def char_aux_loss(m: Tensor, x: Tensor, oov_mask) -> Tensor:
    """Cosine pull of m toward x, summed over non-OOV positions.

    m and x are (N, dim) matrices, one token per row. Each kept row
    contributes 1 - cos(m_t, x_t). x passes through stop_gradient, so
    minimizing this term never moves word embeddings.
    """
    oov_mask = np.asarray(oov_mask, dtype=bool)
    if m.values.ndim != 2 or m.shape != x.shape or oov_mask.shape != m.shape[:1]:
        raise ValueError(
            f"char_aux_loss: length mismatch {m.shape}/{x.shape}/{oov_mask.shape}"
        )
    kept = np.flatnonzero(~oov_mask)
    if not kept.size:
        return Tensor(np.zeros((), dtype=m.values.dtype), constant=True)
    return reduce_sum(cosine_distance(pick_row(m, kept), stop_gradient(Tensor(x.values[kept]))))
