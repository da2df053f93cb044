"""Neural building blocks: embeddings, LSTM parameters, bidirectional runs.

The LSTM is the standard forget-gate cell without peepholes. Gates are
packed into one pre-activation vector ``x @ w_x + h_prev @ w_h + b`` in
the order input, forget, candidate, output:

    i = sigmoid(.)   f = sigmoid(.)   g = tanh(.)   o = sigmoid(.)
    c = f * c_prev + i * g
    h = o * tanh(c)

All runs of one direction are one ``lstm_sequence`` tape node (see
``seqtag.autodiff``): ``bilstm_run`` runs it once per direction over an
(N, D) matrix holding one sequence, or a batch of them back to back, and
joins the two (N, H) results column-wise.

Weights are initialized Glorot-uniform; the forget-gate bias starts at
1.0 and all other biases at 0, which keeps early gradients flowing.
Initial hidden and cell states are zero vectors and are not learned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, linear, lstm_sequence, pick_row, tanh


@dataclass
class EmbeddingTable:
    """Lookup table of row vectors with a designated OOV row."""

    matrix: Tensor
    oov_row: int

    def __post_init__(self):
        if self.matrix.values.ndim != 2:
            raise ValueError(f"EmbeddingTable: matrix must be 2-D, got {self.matrix.shape}")
        rows = self.matrix.shape[0]
        if not 0 <= self.oov_row < rows:
            raise ValueError(f"EmbeddingTable: oov_row {self.oov_row} outside [0, {rows})")

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def embedding_lookup(table: EmbeddingTable, token_ids) -> Tensor:
    """The rows of an integer array of N ids, as an (N, dim) matrix."""
    ids = np.asarray(token_ids)
    if ids.size and not (ids.min() >= 0 and ids.max() < table.vocab_size):
        raise ValueError(
            f"embedding_lookup: id {token_ids} outside [0, {table.vocab_size})"
        )
    return pick_row(table.matrix, token_ids)


@dataclass
class LstmParams:
    """Packed cell parameters; see the module docstring for gate order."""

    w_x: Tensor  # [input_dim, 4*hidden]
    w_h: Tensor  # [hidden, 4*hidden]
    b: Tensor    # [4*hidden]
    hidden_size: int

    def __post_init__(self):
        h = self.hidden_size
        if h <= 0:
            raise ValueError("LstmParams: hidden_size must be positive")
        if self.w_x.values.ndim != 2 or self.w_x.shape[1] != 4 * h:
            raise ValueError(f"LstmParams: w_x shape {self.w_x.shape} != (input_dim, {4 * h})")
        if self.w_h.shape != (h, 4 * h):
            raise ValueError(f"LstmParams: w_h shape {self.w_h.shape} != ({h}, {4 * h})")
        if self.b.shape != (4 * h,):
            raise ValueError(f"LstmParams: b shape {self.b.shape} != ({4 * h},)")

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[0]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def init_lstm_params(rng: np.random.Generator, input_dim: int, hidden_size: int, dtype) -> LstmParams:
    w_x = Tensor(glorot_uniform(rng, input_dim, 4 * hidden_size, dtype))
    w_h = Tensor(glorot_uniform(rng, hidden_size, 4 * hidden_size, dtype))
    b = np.zeros(4 * hidden_size, dtype=dtype)
    b[hidden_size : 2 * hidden_size] = 1.0
    return LstmParams(w_x, w_h, Tensor(b), hidden_size)


def bilstm_run(inputs: Tensor, fwd: LstmParams, bwd: LstmParams, lengths=None) -> Tensor:
    """Run both directions over sequences from zero initial states.

    ``inputs`` is (N, D): one sequence, or with ``lengths`` several
    stored back to back, each run on its own. Row i of the (N, 2H)
    result joins the forward state after position i of its sequence
    with the backward state after scanning back to it.
    """
    if inputs.values.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError(f"bilstm_run: expected a non-empty (N, D) matrix, got {inputs.shape}")
    if fwd.hidden_size != bwd.hidden_size:
        raise ValueError(
            f"bilstm_run: hidden sizes differ ({fwd.hidden_size} vs {bwd.hidden_size})"
        )
    forward = lstm_sequence(inputs, fwd.w_x, fwd.w_h, fwd.b, lengths=lengths)
    backward = lstm_sequence(inputs, bwd.w_x, bwd.w_h, bwd.b, reverse=True, lengths=lengths)
    return concat((forward, backward), axis=1)


def dense_tanh(h: Tensor, w_d: Tensor) -> Tensor:
    """Narrow nonlinear layer on top of the recurrent states: an (N, n)
    matrix of them, one row per token."""
    if h.values.ndim != 2 or w_d.values.ndim != 2 or w_d.shape[1] != h.shape[1]:
        raise ValueError(f"dense_tanh: weight {w_d.shape} does not apply to {h.shape}")
    return tanh(linear(h, w_d))
