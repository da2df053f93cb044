"""Reverse-mode automatic differentiation on a flat tape.

The engine is deliberately small: eleven primitive kinds, picked as
the minimal set the tagging models in this package need. Each
primitive takes the one shape form the models use, mostly matrices.
Values are dense numpy arrays of zero to two dimensions. float32 is the
training precision; float64 is the verification precision
(finite-difference checks are unreliable in float32).

Shape rules per primitive kind::

    linear(x, w)           (m,n) and (p,n) -> (m,p): x @ w.T, the product
                           of every weighted layer with its weight matrix
    add(a, b)              elementwise on equal shapes
    mix(z, x, m)           z * x + (1 - z) * m elementwise on three equal
                           shapes: the attention gate's convex mix
    tanh(t), sigmoid(t)    elementwise, any shape
    concat(ts)             matrices with equal row counts joined
                           column-wise
    reduce_sum(t)          every entry summed to a scalar     (kind "sum")
    cosine_distance(a, b)  (n,d) matrices -> (n,) row by row: 1 - cos;
                           each norm is guarded with +1e-8 so zero rows
                           stay finite
    pick_row(m, i)         m[i] of a matrix, copied: i is an int or an
                           integer array, rows gathered into shape
                           i.shape + (n,); repeated rows accumulate
                           gradient; a leaf whose one gradient comes
                           from a pick gets it as a ``RowGrad``
    lstm_sequence(x, w_x, w_h, b, lengths, reverse)
                           (N,D) -> (N,H) for sequences of the given
                           lengths stored back to back: the hidden state
                           after every position of whole LSTM runs, their
                           inputs projected in one GEMM, as one node with
                           a hand-written backward pass through time
    crf_nll(a, b, y, lengths)
                           (N,K) emissions of sentences of the given
                           lengths stored back to back,
                           (K+2,K+2) transitions and N gold label ids ->
                           the summed CRF negative log-likelihood, log Z
                           minus the gold paths' score, as one node: its
                           forward runs forward-backward, scaled or, past
                           a bound on the scores' spread, in log space,
                           and its backward sends the marginals minus the
                           gold counts

Recording is scoped by a ``Tape`` used as a context manager; outside any
tape the same functions run forward-only. A tape is a list of nodes, and
each node holds the tensors it read and the one it made. A constant
tensor takes no gradient; ``stop_gradient`` returns its input's values as
a constant, so it records nothing. The finite-difference checker in the
test suite relies on forward-only runs for its many loss evaluations, and
swaps ``_stop_gradient_values`` to freeze every ``stop_gradient`` input
at its baseline value while perturbing, so that the numeric derivative
measures exactly the quantity the analytic backward pass computes.

``backward`` walks the tape once, from the last node to the first. Every
gradient accumulates in the ``grad`` of its tensor. The pass frees memory
as it goes: once a node's backward has run, its output's gradient is
dropped and the node lets go of its tensors and saved arrays. A training
step's working set is thus about its forward tape. Only the gradients of
the leaves the loss reached survive the pass.
"""

from __future__ import annotations

import operator
import threading
from contextlib import contextmanager

import numpy as np

NORM_EPS = 1e-8

class Tensor:
    """Dense numeric array with an optional gradient.

    ``grad`` is None, an array of the tensor's shape, or a ``RowGrad``;
    ``backward`` accumulates into it. A ``constant`` tensor never takes one.
    """

    __slots__ = ("values", "grad", "constant")

    def __init__(self, values, constant: bool = False):
        self.values = np.asarray(values)
        self.grad = None
        self.constant = constant

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype})"


class RowGrad:
    """A matrix gradient that is zero outside a few rows, stored as those rows.

    Row ``rows[j]`` of the gradient is ``values[j]``; ``rows`` is sorted
    and holds each row once. A step over a large embedding table touches
    a few hundred of its rows, so this form spares building, zero-filling
    and scanning the dense gradient.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape):
        self.rows = rows
        self.values = values
        self.shape = shape

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.rows] = self.values
        return out


def dense_grad(grad):
    """A gradient as a dense array: a ``RowGrad`` filled out with zeros, anything else as it is."""
    return grad.dense() if isinstance(grad, RowGrad) else grad


def tensor(values, dtype=None) -> Tensor:
    return Tensor(np.asarray(values, dtype=dtype))


class Node:
    """One primitive application: its kind, its input tensors, its output
    tensor and the arrays its backward reads."""

    __slots__ = ("op", "inputs", "out", "saved")

    def __init__(self, op, inputs, out, saved):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.saved = saved


class Tape:
    """Append-only record of primitive applications, in ``nodes``.

    Nodes are topologically ordered by construction. Use as a context
    manager; tapes may be nested, the innermost one records. ``backward``
    consumes the tape: afterwards each node keeps only its ``op``.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._consumed = False

    def __len__(self):
        return len(self.nodes)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False


_TLS = threading.local()


def _tape_stack():
    stack = getattr(_TLS, "tapes", None)
    if stack is None:
        stack = []
        _TLS.tapes = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextmanager
def no_tape():
    """Run a block forward-only even if a tape is currently active."""
    _tape_stack().append(None)
    try:
        yield
    finally:
        _tape_stack().pop()


def _emit(op, inputs, out_values, saved=()):
    out = Tensor(out_values)
    tape = active_tape()
    if tape is not None:
        tape.nodes.append(Node(op, inputs, out, saved))
    return out


def _shape_error(op, *shapes):
    listed = " vs ".join(str(tuple(s)) for s in shapes)
    return ValueError(f"{op}: incompatible shapes {listed}")


def _ids_error(what, ids, bound, count=None):
    """Why ``ids`` are not integer ids in [0, bound), ``count`` of them in a
    vector if given, in a message that names the first bad value, not the array."""
    if count is not None and ids.shape != (count,):
        got = f"got shape {ids.shape}"
    elif ids.dtype.kind not in "iu":
        got = f"got dtype {ids.dtype}"
    else:
        got = f"first bad value {ids[(ids < 0) | (ids >= bound)].flat[0]}"
    return ValueError(f"{what}: expected {ids.size if count is None else count} integer ids in [0, {bound}), {got}")


# ---------------------------------------------------------------------------
# primitive forwards
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor) -> Tensor:
    """Each row of ``x`` times the transposed weight matrix ``w``."""
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise _shape_error("linear", xv.shape, wv.shape)
    return _emit("linear", (x, w), xv @ wv.T, (xv, wv))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise _shape_error("add", a.shape, b.shape)
    return _emit("add", (a, b), a.values + b.values)


def mix(z: Tensor, x: Tensor, m: Tensor) -> Tensor:
    """``z * x + (1 - z) * m`` entry by entry: with every z in (0, 1), a convex mix of x and m."""
    zv, xv, mv = z.values, x.values, m.values
    if not zv.shape == xv.shape == mv.shape:
        raise _shape_error("mix", zv.shape, xv.shape, mv.shape)
    return _emit("mix", (z, x, m), zv * xv + (1 - zv) * mv, (zv, xv, mv))


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.values)
    return _emit("tanh", (t,), out, (out,))


def _sigmoid(x):
    # exp overflows to inf below about -88 in float32, which gives the right 0; callers
    # silence that warning once per call, since entering np.errstate costs microseconds
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(t: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = _sigmoid(t.values)
    return _emit("sigmoid", (t,), out, (out,))


def concat(ts) -> Tensor:
    """Matrices with equal row counts joined column-wise."""
    ts = tuple(ts)
    shapes = tuple(t.shape for t in ts)
    if not ts or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise _shape_error("concat", *shapes)
    out = np.concatenate([t.values for t in ts], axis=1)
    return _emit("concat", ts, out, tuple(s[1] for s in shapes))


def reduce_sum(t: Tensor) -> Tensor:
    return _emit("sum", (t,), np.asarray(t.values.sum()), ())


def _logsumexp(v, axis):
    """Max-shifted log-sum-exp of ``v`` along one axis.

    Entries may be -inf, as long as each reduction has a finite one.
    """
    m = v.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(v - m).sum(axis=axis, keepdims=True)), axis=axis)


def cosine_distance(a: Tensor, b: Tensor) -> Tensor:
    """One minus the cosine of each row of ``a`` with the same row of ``b``."""
    av, bv = a.values, b.values
    if av.ndim != 2 or av.shape != bv.shape:
        raise _shape_error("cosine_distance", av.shape, bv.shape)
    na = np.linalg.norm(av, axis=1)
    nb = np.linalg.norm(bv, axis=1)
    dot = (av * bv).sum(axis=1)
    cos = np.asarray(dot / ((na + NORM_EPS) * (nb + NORM_EPS)), dtype=np.result_type(av, bv))
    return _emit("cosine_distance", (a, b), 1 - cos, (av, bv, na, nb, dot))


def pick_row(m: Tensor, i) -> Tensor:
    v = m.values
    if v.ndim != 2:
        raise _shape_error("pick_row", v.shape)
    rows = np.asarray(i)
    if rows.dtype.kind not in "iu" or (rows.size and not (rows.min() >= 0 and rows.max() < v.shape[0])):
        raise _ids_error("pick_row: index out of range", rows, v.shape[0])
    return _emit("pick_row", (m,), np.array(v[rows]), (rows,))


def _run_layout(n_rows: int, lengths, reverse: bool, op: str = "lstm_sequence"):
    """How a recurrence walks sequences stored back to back as rows of one matrix.

    Returns (steps, perm). ``steps`` lists, in run order, (rows, count):
    the slice of the state buffers that step updates and how many
    sequences it advances. ``perm`` gives the input row each buffer row
    holds. The buffers are packed step-major with the longest sequence
    first, so step t is a contiguous block of the sequences still
    running and no padded position exists.
    """
    lens = [operator.index(v) for v in lengths]
    if not lens or min(lens) < 1 or sum(lens) != n_rows:
        raise ValueError(f"{op}: lengths {lens} do not split {n_rows} rows")
    lens = np.array(lens)
    rank = np.argsort(-lens, kind="stable")
    ranked = lens[rank]
    running = ranked > np.arange(ranked[0])[:, None]  # (step, sequence), a prefix per row
    step, seq = np.nonzero(running)
    position = ranked[seq] - 1 - step if reverse else step
    perm = (np.cumsum(lens) - lens)[rank][seq] + position
    counts = running.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    return [(slice(e - k, e), k) for e, k in zip(ends, counts)], perm


def lstm_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, lengths, reverse: bool = False) -> Tensor:
    """Hidden states of LSTM runs over whole sequences from zero states.

    ``x`` is (N, D): sequences of the given ``lengths`` stored back to
    back (``lengths`` sums to N; ``[N]`` is one sequence). The result is
    (N, H), row for row with ``x``: the state after that position of its
    own sequence. With ``reverse`` each run starts at its sequence's last
    position. The cell is the standard forget-gate LSTM without
    peepholes. ``w_x``, ``w_h`` and ``b`` are (D, 4H), (H, 4H) and (4H,),
    and the gates are packed into one pre-activation ``x @ w_x + h_prev
    @ w_h + b`` in the order input, forget, candidate, output::

        i = sigmoid(.)   f = sigmoid(.)   g = tanh(.)   o = sigmoid(.)
        c = f * c_prev + i * g
        h = o * tanh(c)

    The inputs of every call are projected in one GEMM, ``xs @ w_x``;
    then all runs advance together, one ``h @ w_h`` product per step over
    the sequences still running (see ``_run_layout``).

    The node keeps the post-activation gates and the cell states. Its
    backward gathers the packed inputs and hidden states back from the
    values of ``x`` and of the result, and takes the local derivatives
    one step at a time on (k, H) blocks.
    """
    xv, wx, wh, bv = x.values, w_x.values, w_h.values, b.values
    hid = wh.shape[0]
    if (
        xv.ndim != 2
        or xv.shape[0] == 0
        or wx.shape != (xv.shape[1], 4 * hid)
        or wh.shape != (hid, 4 * hid)
        or bv.shape != (4 * hid,)
    ):
        raise _shape_error("lstm_sequence", xv.shape, wx.shape, wh.shape, bv.shape)
    steps, perm = _run_layout(xv.shape[0], lengths, reverse)
    xs = xv[perm]
    gates = xs @ wx
    # the projections turn into the post-activation gates i, f, g, o step by step
    cells = np.empty((xv.shape[0], hid), dtype=gates.dtype)
    out = np.empty_like(cells)
    h = np.zeros((steps[0][1], hid), dtype=gates.dtype)
    c = h
    cand = slice(2 * hid, 3 * hid)
    with np.errstate(over="ignore"):
        for rows, k in steps:
            if k != len(h):
                h, c = h[:k], c[:k]
            a = h @ wh
            a += gates[rows]
            a += bv
            act = gates[rows]
            act[...] = _sigmoid(a)
            act[:, cand] = np.tanh(a[:, cand])
            c = act[:, hid : 2 * hid] * c + act[:, :hid] * act[:, cand]
            h = act[:, 3 * hid :] * np.tanh(c)
            cells[rows] = c
            out[perm[rows]] = h
    return _emit("lstm_sequence", (x, w_x, w_h, b), out, (wx, wh, gates, cells, steps, perm))


# The scaled recursions are exact to rounding while every scaled entry is a
# normal float64. Take S as the spread (max - min) of the transition, start and
# end scores plus the largest spread of one emission row. A scaled forward
# vector sums to 1, so its largest entry is at least 1 / K, and a step's terms
# are at most 1: so each entry is at least exp(-S) / K**2 of its row's sum, and
# each scaled backward entry at most K**2 * exp(S). For S below 600 both stay
# within float64's normal range, exp(+-708), for any K up to e**54.
MAX_SCALED_SPREAD = 600.0


def crf_nll(a: Tensor, b: Tensor, y, lengths) -> Tensor:
    """Summed CRF negative log-likelihood of one or several sentences, as one node.

    ``a`` is (N, K): the emission scores of sentences of the given
    ``lengths`` stored back to back; ``b`` holds the shared
    transitions laid out as in ``seqtag.crf.TagLattice``; ``y`` holds the
    N gold label ids in the same order. The result is log Z minus the
    gold paths' summed score.

    The gold score is one array, summed in the scores' dtype: the gold
    emissions, then each token's transition from the label before it (from
    start at a sentence's first token), then each sentence's move from
    its last label to end.

    Forward-backward runs over all sentences at once in ``_run_layout``'s
    packing, in float64 whatever the input dtype, and the node saves its
    gradient, the marginals minus the gold counts. One bound on the scores
    picks the algorithm for the whole call: the scaled recursions below
    ``MAX_SCALED_SPREAD``, else the log-space ones. So the result is exact
    to rounding at any score range; non-finite scores give a non-finite
    loss and gradient.
    """
    av, bv = a.values, b.values
    if av.ndim != 2 or av.shape[0] == 0 or bv.shape != (av.shape[1] + 2,) * 2:
        raise _shape_error("crf_nll", av.shape, bv.shape)
    steps, perm = _run_layout(av.shape[0], lengths, False, "crf_nll")
    n_rows, k = av.shape
    y = np.asarray(y)
    if y.shape != (n_rows,) or y.dtype.kind not in "iu" or not (y.min() >= 0 and y.max() < k):
        raise _ids_error("crf_nll: gold labels", y, k, n_rows)
    lens = np.array(lengths)
    ends = np.cumsum(lens)
    before = np.roll(y, 1)
    before[ends - lens] = k
    gold_pairs = (np.concatenate((before, y[ends - 1])), np.concatenate((y, np.full(len(ends), k + 1))))
    gold = np.concatenate((av[np.arange(n_rows), y], bv[gold_pairs])).sum()
    em = np.asarray(av[perm], dtype=np.float64)
    b64 = np.asarray(bv, dtype=np.float64)
    trans, start, end = b64[:k, :k], b64[k, :k], b64[:k, k + 1]
    spread = np.ptp(np.concatenate((trans.ravel(), start, end))) + (em.max(axis=1) - em.min(axis=1)).max()
    run = _crf_scaled if spread < MAX_SCALED_SPREAD else _crf_log_space
    log_z, unary, pairs, d_end = run(em, trans, start, end, steps)
    d_em = unary[np.argsort(perm)]
    d_em[np.arange(n_rows), y] -= 1.0
    db = np.zeros_like(b64)
    db[:k, :k], db[k, :k], db[:k, k + 1] = pairs, unary[steps[0][0]].sum(axis=0), d_end
    db -= np.bincount(np.ravel_multi_index(gold_pairs, db.shape), minlength=db.size).reshape(db.shape)
    return _emit("crf_nll", (a, b), np.asarray(log_z.astype(np.result_type(av, bv)) - gold), (d_em, db))


def _crf_scaled(em, trans, start, end, steps):
    """log Z and the label, transition and end marginals, by scaling (Rabiner 1989).

    A forward step is one (n, K) @ (K, K) product with ``T = exp(transitions
    - max)``, times ``exp(emissions - row max)``, its rows then divided by
    their sums, the scales. ``beta`` is scaled by the same factors, so
    ``alpha * beta`` is the label marginal; with ``w = beta * exp(emissions
    - row max) / scale``, a backward step is ``w @ T.T``.
    """
    top = trans.max()
    trans_exp = np.exp(trans - top)
    row_max = em.max(axis=1)
    em_exp = np.exp(em - row_max[:, None])
    alpha = np.empty_like(em)
    scale = np.empty(len(em))
    log_scale = np.empty(len(em))
    end_log_scale = np.empty(steps[0][1])  # per sentence, longest first
    for t, (rows, n) in enumerate(steps):
        if t == 0:
            shift = start.max()
            hat = np.exp(start - shift) * em_exp[rows]
        else:
            shift = top
            hat = (alpha[steps[t - 1][0]][:n] @ trans_exp) * em_exp[rows]
        sums = hat.sum(axis=1)
        hat /= sums[:, None]
        alpha[rows], scale[rows] = hat, sums
        log_scale[rows] = shift + row_max[rows] + np.log(sums)
        # sentences whose last step this is: the rows past those still running
        done = steps[t + 1][1] if t + 1 < len(steps) else 0
        end_log_scale[done:n] = _logsumexp(np.log(hat[done:]) + end, axis=-1)
    beta = np.empty_like(alpha)
    pairs = np.zeros_like(trans)  # sum of alpha_{t-1}.T @ w_t
    d_end = np.zeros_like(end)
    for t in range(len(steps) - 1, -1, -1):
        rows, n = steps[t]
        done = steps[t + 1][1] if t + 1 < len(steps) else 0
        b_t = beta[rows]
        b_t[done:] = np.exp(end - end_log_scale[done:n, None])
        d_end += (alpha[rows][done:] * b_t[done:]).sum(axis=0)
        if t == 0:
            break
        w = b_t * em_exp[rows]
        w /= scale[rows][:, None]
        pairs += alpha[steps[t - 1][0]][:n].T @ w
        beta[steps[t - 1][0]][:n] = w @ trans_exp.T
    return log_scale.sum() + end_log_scale.sum(), alpha * beta, pairs * trans_exp, d_end


def _crf_log_space(em, trans, start, end, steps):
    """``_crf_scaled``'s results by log-space recursions, exact at any score range.

    A step in either direction is one (n, K, K) log-sum-exp, and a
    marginal is ``exp(log alpha + log beta - log Z)`` of its sentence.
    """
    la = np.empty_like(em)
    log_z = np.empty(steps[0][1])  # per sentence, longest first
    for t, (rows, n) in enumerate(steps):
        if t == 0:
            la[rows] = start + em[rows]
        else:
            la[rows] = _logsumexp(la[steps[t - 1][0]][:n, :, None] + trans, axis=1) + em[rows]
        done = steps[t + 1][1] if t + 1 < len(steps) else 0
        log_z[done:n] = _logsumexp(la[rows][done:] + end, axis=-1)
    lb = np.empty_like(em)
    pairs = np.zeros_like(trans)
    d_end = np.zeros_like(end)
    for t in range(len(steps) - 1, -1, -1):
        rows, n = steps[t]
        done = steps[t + 1][1] if t + 1 < len(steps) else 0
        lb[rows][done:] = end
        d_end += np.exp(la[rows][done:] + end - log_z[done:n, None]).sum(axis=0)
        if t == 0:
            break
        w = em[rows] + lb[rows]
        pairs += np.exp(la[steps[t - 1][0]][:n, :, None] + trans + (w - log_z[:n, None])[:, None, :]).sum(axis=0)
        lb[steps[t - 1][0]][:n] = _logsumexp(trans + w[:, None, :], axis=-1)
    row_log_z = np.concatenate([log_z[:n] for _, n in steps])
    return log_z.sum(), np.exp(la + lb - row_log_z[:, None]), pairs, d_end


def _stop_gradient_values(values):
    """The values ``stop_gradient`` passes on; a test may swap this hook to freeze them."""
    return values


def stop_gradient(t: Tensor) -> Tensor:
    """The values of ``t`` as a constant: no node is recorded, so no gradient flows back."""
    return Tensor(_stop_gradient_values(t.values), constant=True)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _grad_buffer(t: Tensor):
    """The dense array that gradients of ``t`` accumulate in, None for a constant."""
    if t.constant:
        return None
    buf = t.grad
    if buf is None:
        # C order whatever the values' layout, so that _scatter can work on a flat view
        buf = t.grad = np.zeros(t.shape, dtype=t.dtype)
    elif isinstance(buf, RowGrad):
        buf = t.grad = buf.dense()
    return buf


def _acc(t: Tensor, contribution):
    buf = _grad_buffer(t)
    if buf is not None:
        buf += contribution


def _bwd_linear(node, g):
    x, w = node.inputs
    xv, wv = node.saved
    _acc(x, g @ wv)
    # as (x.T @ g).T: g.T @ x may round differently, which would move trained weights in the last bits
    _acc(w, (xv.T @ g).T)


def _bwd_add(node, g):
    for t in node.inputs:
        _acc(t, g)


def _bwd_mix(node, g):
    zv, xv, mv = node.saved
    z, x, m = node.inputs
    dz = g * xv
    dz -= g * mv
    _acc(z, dz)
    _acc(x, g * zv)
    _acc(m, g * (1 - zv))


def _bwd_tanh(node, g):
    (y,) = node.saved
    _acc(node.inputs[0], g * (1.0 - y * y))


def _bwd_sigmoid(node, g):
    (y,) = node.saved
    _acc(node.inputs[0], g * (y * (1.0 - y)))


def _bwd_concat(node, g):
    pieces = np.split(g, np.cumsum(node.saved)[:-1], axis=1)
    for t, piece in zip(node.inputs, pieces):
        _acc(t, piece)


def _bwd_sum(node, g):
    _acc(node.inputs[0], g)


def _bwd_cosine_distance(node, g):
    av, bv, na, nb, dot = node.saved
    ea = (na + NORM_EPS)[:, None]
    eb = (nb + NORM_EPS)[:, None]
    c = dot[:, None] / (ea * eb)
    # a zero row has zero entries, so dividing it by 1 instead of its norm gives 0
    unit_a = av / np.where(na > 0.0, na, 1.0)[:, None]
    unit_b = bv / np.where(nb > 0.0, nb, 1.0)[:, None]
    gd = -g[:, None]  # the distance falls as the cosine rises
    _acc(node.inputs[0], gd * (bv / (ea * eb) - (c / ea) * unit_a))
    _acc(node.inputs[1], gd * (av / (ea * eb) - (c / eb) * unit_b))


def _scatter(buf, rows, g):
    """``buf[rows] += g`` for a C-ordered matrix ``buf``, repeated rows accumulating.

    The rows are raveled into flat positions for one 1-D ``np.add.at``,
    several times faster than its n-D form. Both add each element's
    contributions one at a time in index order, so the sums are the same
    bit for bit.
    """
    width = buf.shape[1]
    flat = rows.astype(np.intp)[..., None] * width + np.arange(width)
    np.add.at(buf.reshape(-1), flat.reshape(-1), g.reshape(-1))


def _bwd_pick_row(node, g):
    """Scatter ``g`` back; a first gradient stays in row form.

    The row form holds each picked row's gradient summed in index order,
    as the dense scatter would. ``backward`` densifies it where a node
    reads it, so only a leaf keeps it, and ``_grad_buffer`` does when a
    second gradient arrives.
    """
    (index,) = node.saved
    (m,) = node.inputs
    if m.constant:
        return
    if m.grad is None:
        rows, inverse = np.unique(index, return_inverse=True)
        values = np.zeros((len(rows), m.shape[1]), dtype=m.dtype)
        _scatter(values, inverse.reshape(index.shape), g)
        m.grad = RowGrad(rows, values, m.shape)
    else:
        _scatter(_grad_buffer(m), index, g)


def _bwd_lstm_sequence(node, g):
    """Backpropagation through time, then one GEMM per weight gradient.

    The packed inputs and hidden states are gathered back through
    ``perm`` from the values of the node's input and output, which the
    node still holds. The local derivatives are taken step by step on
    (k, H) blocks, so the only (N, H) array besides the gradients is the
    hidden state entering each step, which the ``w_h`` gradient needs.
    """
    wx, wh, gates, cells, steps, perm = node.saved
    x, w_x, w_h, b = node.inputs
    hid = wh.shape[0]
    d_pre = np.empty_like(gates)
    dh_next = np.zeros((steps[0][1], hid), dtype=g.dtype)
    dc_next = np.zeros_like(dh_next)
    wh_t = wh.T
    for t in range(len(steps) - 1, -1, -1):
        rows, k = steps[t]
        c_prev = cells[steps[t - 1][0]][:k] if t else 0.0  # the cell state entering the step
        gi, gf, gg, go = (gates[rows, j * hid : (j + 1) * hid] for j in range(4))
        tanh_c = np.tanh(cells[rows])
        dh = g[perm[rows]] + dh_next[:k]
        dc = dc_next[:k] + dh * (go * (1.0 - tanh_c * tanh_c))
        # local derivative of c (gates i, f, g) or h (gate o) by each pre-activation, times dc or dh
        d = d_pre[rows].reshape(k, 4, hid)
        np.multiply(gg * gi, 1.0 - gi, out=d[:, 0])
        np.multiply(c_prev * gf, 1.0 - gf, out=d[:, 1])
        np.multiply(gi, 1.0 - gg * gg, out=d[:, 2])
        np.multiply(tanh_c * go, 1.0 - go, out=d[:, 3])
        d[:, :3] *= dc[:, None]
        d[:, 3] *= dh
        np.multiply(dc, gf, out=dc_next[:k])
        np.matmul(d_pre[rows], wh_t, out=dh_next[:k])
    buf = _grad_buffer(x)
    if buf is not None:
        buf[perm] += d_pre @ wx.T
    _acc(w_x, x.values[perm].T @ d_pre)
    # the hidden states entering each step: a prefix of the previous step's, zero at the start
    out = node.out.values
    h_prev = np.zeros_like(cells)
    for (prev, _), (rows, k) in zip(steps, steps[1:]):
        h_prev[rows] = out[perm[prev][:k]]
    _acc(w_h, h_prev.T @ d_pre)
    _acc(b, d_pre.sum(axis=0))


def _bwd_crf_nll(node, g):
    """Each score gets g times its saved gradient, the marginals minus the gold counts."""
    d_em, db = node.saved
    _acc(node.inputs[0], d_em * g)
    _acc(node.inputs[1], db * g)


_BACKWARD = {
    "linear": _bwd_linear,
    "add": _bwd_add,
    "mix": _bwd_mix,
    "tanh": _bwd_tanh,
    "sigmoid": _bwd_sigmoid,
    "concat": _bwd_concat,
    "sum": _bwd_sum,
    "cosine_distance": _bwd_cosine_distance,
    "pick_row": _bwd_pick_row,
    "lstm_sequence": _bwd_lstm_sequence,
    "crf_nll": _bwd_crf_nll,
}
OP_KINDS = tuple(_BACKWARD)  # every kind a node may record, in the table's order


def backward(loss: Tensor, tape: Tape) -> None:
    """Propagate gradients of a scalar loss back through the tape.

    Every gradient lives in the ``grad`` of its tensor. The pass first
    clears ``grad`` on each output of the tape, so a gradient another
    tape's backward left on one is not carried in, then seeds the loss
    with ones and walks the nodes from last to first, handing each output's
    gradient to its node. It releases memory as it goes: once a node's
    backward has run, the output's gradient is dropped and the node lets
    go of its input, output and saved arrays, keeping only its ``op``.
    So a step's working set is about its forward tape.

    Afterwards a tensor holds a gradient only if it is a leaf the loss
    reached and not a constant: an array, or a ``RowGrad`` for a leaf
    whose one gradient came from ``pick_row``. A leaf that already held
    a gradient has this pass's added to it. The tape is consumed: a
    second call on it raises ``ValueError``.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if tape._consumed:
        raise ValueError("backward: this tape was already backpropagated")
    if not any(node.out is loss for node in tape.nodes):
        raise ValueError("backward: loss is not recorded on this tape")
    tape._consumed = True
    for node in tape.nodes:
        node.out.grad = None
    loss.grad = np.ones_like(loss.values)
    for node in reversed(tape.nodes):
        out = node.out
        g = out.grad
        if g is not None:
            out.grad = None
            _BACKWARD[node.op](node, dense_grad(g))  # a node reads its output's gradient whole
        node.inputs = node.out = node.saved = None
