"""Neural building blocks: bidirectional LSTM runs and the narrow tanh layer.

The LSTM is the standard forget-gate cell without peepholes. One
direction's parameters are a ``(w_x, w_h, b)`` triple of tensors, shaped
(D, 4H), (H, 4H) and (4H,). Gates are packed into one pre-activation
vector ``x @ w_x + h_prev @ w_h + b`` in the order input, forget,
candidate, output:

    i = sigmoid(.)   f = sigmoid(.)   g = tanh(.)   o = sigmoid(.)
    c = f * c_prev + i * g
    h = o * tanh(c)

All runs of one direction are one ``lstm_sequence`` tape node (see
``seqtag.autodiff``, which checks the shapes): ``bilstm_run`` runs it
once per direction over an (N, D) matrix holding one sequence, or a
batch of them back to back, and joins the two (N, H) results
column-wise.

Initial hidden and cell states are zero vectors and are not learned.
How the weights start is part of the parameter table in
``seqtag.model``.
"""

from __future__ import annotations

from .autodiff import Tensor, concat, linear, lstm_sequence, tanh


def bilstm_run(inputs: Tensor, fwd, bwd, lengths=None) -> Tensor:
    """Run both directions, each a ``(w_x, w_h, b)`` triple, from zero initial states.

    ``inputs`` is (N, D): one sequence, or with ``lengths`` several
    stored back to back, each run on its own. Row i of the (N, 2H)
    result joins the forward state after position i of its sequence
    with the backward state after scanning back to it.
    """
    if inputs.values.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError(f"bilstm_run: expected a non-empty (N, D) matrix, got {inputs.shape}")
    forward = lstm_sequence(inputs, *fwd, lengths=lengths)
    backward = lstm_sequence(inputs, *bwd, reverse=True, lengths=lengths)
    return concat((forward, backward), axis=1)


def dense_tanh(h: Tensor, w_d: Tensor) -> Tensor:
    """Narrow nonlinear layer on top of the recurrent states: an (N, n)
    matrix of them, one row per token."""
    if h.values.ndim != 2 or w_d.values.ndim != 2 or w_d.shape[1] != h.shape[1]:
        raise ValueError(f"dense_tanh: weight {w_d.shape} does not apply to {h.shape}")
    return tanh(linear(h, w_d))
