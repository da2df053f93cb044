"""Reverse-mode automatic differentiation on a flat tape.

The engine is deliberately small: fourteen primitive kinds, picked as
the minimal set the tagging models in this package need, plus a
gradient blocking marker. Values are dense numpy arrays of zero to two
dimensions. float32 is the training precision; float64 is the
verification precision (finite-difference checks are unreliable in
float32).

Shape rules per primitive kind::

    matmul(a, b)           (m,n)@(n,)->(m,)  (n,)@(n,p)->(p,)  (m,n)@(n,p)->(m,p)
    add(a, b)              elementwise on equal shapes; either side may
                           instead hold a single element, which is
                           broadcast against the other
    multiply(a, b)         same rule as add
    tanh(t), sigmoid(t)    elementwise, any shape
    concat(ts)             scalar or vector inputs joined into one vector
    concat(ts, axis=k)     equal-rank inputs joined along axis k; all
                           other dimensions must agree
    narrow(t, i, j)        contiguous vector slice [i, j)     (kind "slice")
    reduce_sum(t)          every entry summed to a scalar     (kind "sum")
    log_sum_exp(t)         vector -> scalar, max-shifted so large inputs
                           cannot overflow
    log_sum_exp(t, axis=0) matrix -> vector of per-column reductions
    cosine_similarity(a,b) vectors -> scalar, or (n,d) matrices -> (n,)
                           row by row; each norm is guarded with +1e-8
                           so zero vectors stay finite
    pick_row(m, i)         m[i] of a matrix, copied: i is an int (one
                           row), an integer array (rows gathered into
                           shape i.shape + (n,)) or a pair of them
                           indexing rows and columns; repeated indices
                           accumulate gradient
    transpose(m)           (m,n) -> (n,m)
    lstm_sequence(x, w_x, w_h, b, reverse, lengths)
                           (N,D) -> (N,H) for one sequence, or several of
                           the given lengths stored back to back: the
                           hidden state after every position of whole
                           LSTM runs, as one node with a hand-written
                           backward pass through time
    log_partition(a, b, lengths)
                           (N,K) emissions of one sentence, or several of
                           the given lengths stored back to back, and
                           (K+2,K+2) transitions -> their summed CRF log Z,
                           as one node; its backward sends the marginals

Recording is scoped by a ``Tape`` used as a context manager; outside any
tape the same functions run forward-only. The finite-difference checker
relies on that for its many loss evaluations, and additionally freezes
every ``stop_gradient`` input at its baseline value while perturbing, so
that the numeric derivative measures exactly the quantity the analytic
backward pass computes.
"""

from __future__ import annotations

import operator
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

NORM_EPS = 1e-8

OP_KINDS = (
    "matmul",
    "add",
    "multiply",
    "tanh",
    "sigmoid",
    "concat",
    "slice",
    "sum",
    "log_sum_exp",
    "cosine_similarity",
    "pick_row",
    "transpose",
    "lstm_sequence",
    "log_partition",
)


class Tensor:
    """Dense numeric array with an optional gradient and tape linkage."""

    __slots__ = ("values", "grad", "node_id", "constant")

    def __init__(self, values, constant: bool = False):
        self.values = np.asarray(values)
        self.grad = None
        self.node_id = None
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

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype})"


def tensor(values, dtype=None) -> Tensor:
    return Tensor(np.asarray(values, dtype=dtype))


def const_like(value, ref: Tensor, shape=()) -> Tensor:
    """Non-trainable filler tensor matching the dtype of ``ref``."""
    return Tensor(np.full(shape, value, dtype=ref.values.dtype), constant=True)


class Node:
    __slots__ = ("op", "input_ids", "out_id", "saved")

    def __init__(self, op, input_ids, out_id, saved):
        self.op = op
        self.input_ids = input_ids
        self.out_id = out_id
        self.saved = saved


class Tape:
    """Append-only record of primitive applications.

    Nodes are topologically ordered by construction and ids are dense:
    every tensor touched while the tape is active gets one. Use as a
    context manager; tapes may be nested, the innermost one records.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._tensors: list[Tensor] = []
        self._produced: list[bool] = []
        self._consumed = False

    def __len__(self):
        return len(self.nodes)

    def _ensure_id(self, t: Tensor) -> int:
        nid = t.node_id
        if nid is not None and nid < len(self._tensors) and self._tensors[nid] is t:
            return nid
        nid = len(self._tensors)
        self._tensors.append(t)
        self._produced.append(False)
        t.node_id = nid
        return nid

    def _record(self, op, inputs, out, saved):
        ids = tuple(self._ensure_id(t) for t in inputs)
        out_id = self._ensure_id(out)
        self._produced[out_id] = True
        self.nodes.append(Node(op, ids, out_id, saved))

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
        tape._record(op, inputs, out, saved)
    return out


def _shape_error(op, *shapes):
    listed = " vs ".join(str(tuple(s)) for s in shapes)
    return ValueError(f"{op}: incompatible shapes {listed}")


# ---------------------------------------------------------------------------
# primitive forwards
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim == 2 and bv.ndim == 1:
        ok = av.shape[1] == bv.shape[0]
    elif av.ndim == 1 and bv.ndim == 2:
        ok = av.shape[0] == bv.shape[0]
    elif av.ndim == 2 and bv.ndim == 2:
        ok = av.shape[1] == bv.shape[0]
    else:
        ok = False
    if not ok:
        raise _shape_error("matmul", av.shape, bv.shape)
    return _emit("matmul", (a, b), av @ bv, (av, bv))


def _binary_check(op, a, b):
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise _shape_error(op, a.shape, b.shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_check("add", a, b)
    return _emit("add", (a, b), a.values + b.values, (a.shape, b.shape))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _binary_check("multiply", a, b)
    return _emit(
        "multiply", (a, b), a.values * b.values, (a.values, b.values, a.shape, b.shape)
    )


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


def concat(ts, axis: int | None = None) -> Tensor:
    ts = tuple(ts)
    if not ts:
        raise ValueError("concat: need at least one input")
    shapes = tuple(t.shape for t in ts)
    if axis is None:
        for t in ts:
            if t.values.ndim > 1:
                raise _shape_error("concat", t.shape)
        parts = [np.atleast_1d(t.values) for t in ts]
        axis = 0
    else:
        ndim = len(shapes[0])
        rest = [s[:axis] + s[axis + 1 :] for s in shapes]
        if not 0 <= axis < ndim or any(len(s) != ndim or r != rest[0] for s, r in zip(shapes, rest)):
            raise _shape_error(f"concat(axis={axis})", *shapes)
        parts = [t.values for t in ts]
    out = np.concatenate(parts, axis=axis)
    return _emit("concat", ts, out, (axis, shapes))


def narrow(t: Tensor, start: int, stop: int) -> Tensor:
    v = t.values
    if v.ndim != 1:
        raise _shape_error("slice", v.shape)
    if not 0 <= start < stop <= v.shape[0]:
        raise ValueError(f"slice: bad range [{start}, {stop}) for length {v.shape[0]}")
    return _emit("slice", (t,), v[start:stop].copy(), (start, stop))


def reduce_sum(t: Tensor) -> Tensor:
    return _emit("sum", (t,), np.asarray(t.values.sum()), ())


def _logsumexp(v, axis=None):
    """Max-shifted log-sum-exp of all of ``v`` (axis None) or along one axis.

    Entries may be -inf, as long as each reduction has a finite one.
    """
    m = v.max(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.exp(v - m).sum(axis=axis, keepdims=True)), axis=axis)


def log_sum_exp(t: Tensor, axis=None) -> Tensor:
    v = t.values
    if not (axis is None and v.ndim == 1 and v.size or axis == 0 and v.ndim == 2 and v.shape[0]):
        raise _shape_error("log_sum_exp", v.shape)
    out = np.asarray(_logsumexp(v, axis), dtype=v.dtype)
    return _emit("log_sum_exp", (t,), out, (v, out))


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim not in (1, 2) or av.shape != bv.shape:
        raise _shape_error("cosine_similarity", av.shape, bv.shape)
    na = np.linalg.norm(av, axis=-1)
    nb = np.linalg.norm(bv, axis=-1)
    dot = (av * bv).sum(axis=-1)
    out = np.asarray(dot / ((na + NORM_EPS) * (nb + NORM_EPS)), dtype=np.result_type(av, bv))
    return _emit("cosine_similarity", (a, b), out, (av, bv, na, nb, dot))


def pick_row(m: Tensor, i) -> Tensor:
    v = m.values
    if v.ndim != 2:
        raise _shape_error("pick_row", v.shape)
    if isinstance(i, (int, np.integer)):
        if not 0 <= i < v.shape[0]:
            raise ValueError(f"pick_row: row {i} out of range for shape {v.shape}")
        return _emit("pick_row", (m,), v[i].copy(), (int(i),))
    index = tuple(np.asarray(ix) for ix in (i if isinstance(i, tuple) else (i,)))
    if len(index) > v.ndim:
        raise ValueError(f"pick_row: {len(index)} indices for shape {v.shape}")
    for ix, n in zip(index, v.shape):
        if ix.dtype.kind not in "iu" or (ix.size and not (ix.min() >= 0 and ix.max() < n)):
            raise ValueError(f"pick_row: index {ix.tolist()} out of range for shape {v.shape}")
    return _emit("pick_row", (m,), np.array(v[index]), (index,))


def transpose(t: Tensor) -> Tensor:
    """Matrix transpose; the result is a view of the input's values."""
    v = t.values
    if v.ndim != 2:
        raise _shape_error("transpose", v.shape)
    return _emit("transpose", (t,), v.T, ())


def _run_layout(n_rows: int, lengths, reverse: bool, op: str = "lstm_sequence"):
    """How a recurrence walks sequences stored back to back as rows of one matrix.

    Returns (steps, perm). ``steps`` lists, in run order, (rows, count):
    the slice of the state buffers that step updates and how many
    sequences it advances. ``perm`` is None when the buffers are laid
    out like the input, else the input row each buffer row holds.

    Sequences of one length keep the input's layout: step t is rows
    t, t + L, t + 2L, ..., a strided slice, so nothing is sorted or
    copied. Ragged sequences are packed step-major with the longest
    first, so step t is a contiguous block of the sequences still
    running and no padded position exists.
    """
    lens = [n_rows] if lengths is None else [operator.index(v) for v in lengths]
    if not lens or min(lens) < 1 or sum(lens) != n_rows:
        raise ValueError(f"{op}: lengths {lens} do not split {n_rows} rows")
    longest = max(lens)
    if min(lens) == longest:
        order = range(longest - 1, -1, -1) if reverse else range(longest)
        return [(slice(t, None, longest), len(lens)) for t in order], None
    lens = np.array(lens)
    rank = np.argsort(-lens, kind="stable")
    ranked = lens[rank]
    running = ranked > np.arange(longest)[:, None]  # (step, sequence), a prefix per row
    step, seq = np.nonzero(running)
    position = ranked[seq] - 1 - step if reverse else step
    perm = (np.cumsum(lens) - lens)[rank][seq] + position
    counts = running.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    return [(slice(e - k, e), k) for e, k in zip(ends, counts)], perm


def lstm_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, reverse: bool = False,
                  lengths=None) -> Tensor:
    """Hidden states of LSTM runs over whole sequences from zero states.

    ``x`` is (N, D): one sequence, or with ``lengths`` several stored
    back to back (``lengths`` sums to N). The result is (N, H), row for
    row with ``x``: the state after that position of its own sequence.
    With ``reverse`` each run starts at its sequence's last position.
    Gate order and cell equations are those documented in
    ``seqtag.layers``. All runs advance together, one ``h @ w_h``
    product per step over the sequences still running (see
    ``_run_layout``). For sequences of one length the input projection
    takes each position as its own vector-matrix product, the kernel a
    single cell update uses, so one sequence's states equal those of the
    stepwise cell bit for bit; ragged runs project in one GEMM.
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
    if perm is None:
        xs = xv
        gates = np.matmul(xv[:, None, :], wx)[:, 0]
    else:
        xs = xv[perm]
        gates = xs @ wx
    # the projections turn into the post-activation gates i, f, g, o step by step
    cells = np.empty((xv.shape[0], hid), dtype=gates.dtype)
    hidden = np.empty_like(cells)
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
            hidden[rows] = h
    out = hidden
    if perm is not None:
        out = np.empty_like(hidden)
        out[perm] = hidden
    return _emit("lstm_sequence", (x, w_x, w_h, b), out, (xs, wx, wh, gates, cells, hidden, steps, perm))


# A forward step whose row scale falls below this is redone in log space for
# that row: no scale that float64 cannot hold to full precision reaches log.
MIN_SCALE = 1e-250


def log_partition(a: Tensor, b: Tensor, lengths=None) -> Tensor:
    """Summed CRF log partition of one or several sentences, as one node.

    ``a`` is (N, K): the emission scores of one sentence, or with
    ``lengths`` of several stored back to back; ``b`` holds the shared
    transitions laid out as in ``seqtag.crf.TagLattice``.

    The scaled forward algorithm (Rabiner 1989) runs over all sentences
    at once in ``_run_layout``'s step-major packing, longest first, in
    float64 whatever the input dtype. With ``exp(transitions - max)`` and
    ``exp(emissions - row max)`` taken once, a step is one (k, K) @ (K, K)
    product whose rows are then divided by their sums, the scales; log Z
    is the sum of the logs of the scales and of the shifts, plus each
    sentence's move to the end state, taken in log space. A row whose
    scale falls below ``MIN_SCALE`` is redone in log space for that step.
    The result is exact to rounding as long as no label that matters
    later is less likely than the best one at its position by a factor
    float64 cannot hold (about exp(-700)).
    """
    av, bv = a.values, b.values
    if av.ndim != 2 or av.shape[0] == 0 or bv.shape != (av.shape[1] + 2,) * 2:
        raise _shape_error("log_partition", av.shape, bv.shape)
    steps, perm = _run_layout(av.shape[0], lengths, False, "log_partition")
    k = av.shape[1]
    em = np.asarray(av if perm is None else av[perm], dtype=np.float64)
    b64 = np.asarray(bv, dtype=np.float64)
    trans, start, end = b64[:k, :k], b64[k, :k], b64[:k, k + 1]
    top = trans.max()
    trans_exp = np.exp(trans - top)
    row_max = em.max(axis=1)
    em_exp = np.exp(em - row_max[:, None])
    # per packed row: the forward vector divided by its sum, that sum (the
    # scale), the log of everything divided out, and whether log space was used
    alpha = np.empty_like(em)
    scale = np.empty(len(em))
    log_scale = np.empty(len(em))
    redo = np.zeros(len(em), dtype=bool)
    end_log_scale = np.empty(steps[0][1])  # per sentence, longest first
    prev = None
    with np.errstate(divide="ignore"):
        for t, (rows, n) in enumerate(steps):
            if prev is None:
                shift = start.max()
                hat = np.exp(start - shift) * em_exp[rows]
            else:
                shift = top
                hat = (prev[:n] @ trans_exp) * em_exp[rows]
            sums = hat.sum(axis=1)
            low = sums < MIN_SCALE
            np.maximum(sums, MIN_SCALE, out=sums)
            hat /= sums[:, None]
            logs = shift + row_max[rows] + np.log(sums)
            if low.any():
                if prev is None:
                    log_hat = start + em[rows][low]
                else:
                    log_hat = _logsumexp(np.log(prev[:n][low])[:, None, :] + trans.T, axis=-1)
                    log_hat += em[rows][low]
                logs[low] = _logsumexp(log_hat, axis=-1)
                hat[low] = np.exp(log_hat - logs[low][:, None])
                redo[rows] = low
            alpha[rows], scale[rows], log_scale[rows] = hat, sums, logs
            # sentences whose last step this is: the rows past those still running
            done = steps[t + 1][1] if t + 1 < len(steps) else 0
            if done < n:
                end_log_scale[done:n] = _logsumexp(np.log(hat[done:]) + end, axis=-1)
            prev = hat
    out = np.asarray(log_scale.sum() + end_log_scale.sum(), dtype=np.result_type(av, bv))
    saved = (em, b64, trans_exp, em_exp, alpha, scale, log_scale, redo, end_log_scale, steps, perm)
    return _emit("log_partition", (a, b), out, saved)


def stop_gradient(t: Tensor) -> Tensor:
    """Identity forward; the backward pass sends nothing through here."""
    return _emit("stop_gradient", (t,), _sg_value(t.values), ())


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _grad_buffer(grads, tensors, nid):
    t = tensors[nid]
    if t.constant:
        return None
    buf = grads[nid]
    if buf is None:
        buf = np.zeros_like(t.values)
        grads[nid] = buf
    return buf


def _acc(grads, tensors, nid, contribution):
    buf = _grad_buffer(grads, tensors, nid)
    if buf is not None:
        buf += contribution


def _acc_bcast(grads, tensors, nid, g, in_shape):
    if g.shape == in_shape:
        _acc(grads, tensors, nid, g)
    else:
        _acc(grads, tensors, nid, np.asarray(g.sum()).reshape(in_shape))


def _bwd_matmul(node, g, grads, tensors):
    a_id, b_id = node.input_ids
    av, bv = node.saved
    if av.ndim == 2 and bv.ndim == 1:
        _acc(grads, tensors, a_id, np.outer(g, bv))
        _acc(grads, tensors, b_id, av.T @ g)
    elif av.ndim == 1 and bv.ndim == 2:
        _acc(grads, tensors, a_id, bv @ g)
        _acc(grads, tensors, b_id, np.outer(av, g))
    else:
        _acc(grads, tensors, a_id, g @ bv.T)
        _acc(grads, tensors, b_id, av.T @ g)


def _bwd_add(node, g, grads, tensors):
    a_shape, b_shape = node.saved
    _acc_bcast(grads, tensors, node.input_ids[0], g, a_shape)
    _acc_bcast(grads, tensors, node.input_ids[1], g, b_shape)


def _bwd_multiply(node, g, grads, tensors):
    av, bv, a_shape, b_shape = node.saved
    _acc_bcast(grads, tensors, node.input_ids[0], g * bv, a_shape)
    _acc_bcast(grads, tensors, node.input_ids[1], g * av, b_shape)


def _bwd_tanh(node, g, grads, tensors):
    (y,) = node.saved
    _acc(grads, tensors, node.input_ids[0], g * (1.0 - y * y))


def _bwd_sigmoid(node, g, grads, tensors):
    (y,) = node.saved
    _acc(grads, tensors, node.input_ids[0], g * (y * (1.0 - y)))


def _bwd_concat(node, g, grads, tensors):
    axis, shapes = node.saved
    sizes = [s[axis] if s else 1 for s in shapes]
    pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
    for nid, piece, shape in zip(node.input_ids, pieces, shapes):
        _acc(grads, tensors, nid, piece.reshape(shape))


def _bwd_slice(node, g, grads, tensors):
    start, stop = node.saved
    buf = _grad_buffer(grads, tensors, node.input_ids[0])
    if buf is not None:
        buf[start:stop] += g


def _bwd_sum(node, g, grads, tensors):
    buf = _grad_buffer(grads, tensors, node.input_ids[0])
    if buf is not None:
        buf += g


def _bwd_log_sum_exp(node, g, grads, tensors):
    x, out = node.saved
    _acc(grads, tensors, node.input_ids[0], np.exp(x - out) * g)


def _bwd_cosine(node, g, grads, tensors):
    av, bv, na, nb, dot = node.saved
    ea = (na + NORM_EPS)[..., None]
    eb = (nb + NORM_EPS)[..., None]
    c = dot[..., None] / (ea * eb)
    # a zero vector has zero entries, so dividing it by 1 instead of its norm gives 0
    unit_a = av / np.where(na > 0.0, na, 1.0)[..., None]
    unit_b = bv / np.where(nb > 0.0, nb, 1.0)[..., None]
    gd = np.asarray(g)[..., None]
    _acc(grads, tensors, node.input_ids[0], gd * (bv / (ea * eb) - (c / ea) * unit_a))
    _acc(grads, tensors, node.input_ids[1], gd * (av / (ea * eb) - (c / eb) * unit_b))


def _bwd_pick_row(node, g, grads, tensors):
    (i,) = node.saved
    buf = _grad_buffer(grads, tensors, node.input_ids[0])
    if buf is None:
        return
    if isinstance(i, int):
        buf[i] += g
    else:
        np.add.at(buf, i, g)


def _bwd_transpose(node, g, grads, tensors):
    _acc(grads, tensors, node.input_ids[0], g.T)


def _bwd_lstm_sequence(node, g, grads, tensors):
    """Backpropagation through time, then one GEMM per weight gradient."""
    xs, wx, wh, gates, cells, hidden, steps, perm = node.saved
    hid = wh.shape[0]
    if perm is not None:
        g = g[perm]
    # states entering each step: a prefix of the previous step's, zero at the start
    h_prev = np.zeros_like(hidden)
    c_prev = np.zeros_like(cells)
    for (prev, _), (rows, k) in zip(steps, steps[1:]):
        h_prev[rows] = hidden[prev][:k]
        c_prev[rows] = cells[prev][:k]
    gi, gf, gg, go = (gates[:, j * hid : (j + 1) * hid] for j in range(4))
    tanh_c = np.tanh(cells)
    dh_dc = go * (1.0 - tanh_c * tanh_c)
    # local derivative of c (gates i, f, g) or h (gate o) by each pre-activation,
    # scaled in place by dc or dh once the recursion reaches its step
    d_pre = np.empty_like(gates)
    local = d_pre.reshape(-1, 4, hid)
    np.multiply(gg * gi, 1.0 - gi, out=local[:, 0])
    np.multiply(c_prev * gf, 1.0 - gf, out=local[:, 1])
    np.multiply(gi, 1.0 - gg * gg, out=local[:, 2])
    np.multiply(tanh_c * go, 1.0 - go, out=local[:, 3])
    dh_next = np.zeros((steps[0][1], hid), dtype=g.dtype)
    dc_next = np.zeros_like(dh_next)
    wh_t = wh.T
    for rows, k in reversed(steps):
        dh = g[rows] + dh_next[:k]
        dc = dc_next[:k] + dh * dh_dc[rows]
        d = local[rows]
        d[:, :3] *= dc[:, None]
        d[:, 3] *= dh
        np.multiply(dc, gf[rows], out=dc_next[:k])
        np.matmul(d_pre[rows], wh_t, out=dh_next[:k])
    x_id, wx_id, wh_id, b_id = node.input_ids
    buf = _grad_buffer(grads, tensors, x_id)
    if buf is not None:
        if perm is None:
            buf += d_pre @ wx.T
        else:
            buf[perm] += d_pre @ wx.T
    _acc(grads, tensors, wx_id, xs.T @ d_pre)
    _acc(grads, tensors, wh_id, h_prev.T @ d_pre)
    _acc(grads, tensors, b_id, d_pre.sum(axis=0))


def _bwd_log_partition(node, g, grads, tensors):
    """The scaled backward recursion, then g times the marginals to each score.

    ``beta`` is scaled by the forward pass's factors, so ``alpha * beta``
    is each position's label marginal. With ``w`` the next step's
    ``beta * exp(emissions - row max) / scale``, a step is ``w @ T.T``
    and the transition gradient is ``T * sum(alpha.T @ w)``, for
    ``T = exp(transitions - max)``. Rows the forward pass redid in log
    space are redone in log space here too.
    """
    em, b64, trans_exp, em_exp, alpha, scale, log_scale, redo, end_log_scale, steps, perm = node.saved
    k = em.shape[1]
    trans, end = b64[:k, :k], b64[:k, k + 1]
    beta = np.empty_like(alpha)
    pairs = np.zeros((k, k))  # sum of alpha_{t-1}.T @ w_t over the scaled rows
    d_trans = np.zeros((k, k))  # pair marginals of the rows redone in log space
    d_end = np.zeros(k)
    carried = None  # beta of the previous position, for the sentences still running
    # w may overflow in a row redone in log space; that row's w is then discarded
    with np.errstate(divide="ignore", over="ignore"):
        for t in range(len(steps) - 1, -1, -1):
            rows, n = steps[t]
            done = steps[t + 1][1] if t + 1 < len(steps) else 0
            b_t = np.empty((n, k))
            b_t[:done] = carried
            b_t[done:] = np.exp(end - end_log_scale[done:n, None])
            d_end += (alpha[rows][done:] * b_t[done:]).sum(axis=0)
            beta[rows] = b_t
            if t == 0:
                break
            a_prev = alpha[steps[t - 1][0]][:n]
            low = redo[rows]
            w = b_t * em_exp[rows]
            w /= scale[rows][:, None]
            w[low] = 0.0
            pairs += a_prev.T @ w
            carried = w @ trans_exp.T
            if low.any():
                log_w = np.log(b_t[low]) + em[rows][low] - log_scale[rows][low][:, None]
                log_pair = np.log(a_prev[low])[:, :, None] + trans + log_w[:, None, :]
                d_trans += np.exp(log_pair).sum(axis=0)
                carried[low] = np.exp(_logsumexp(trans + log_w[:, None, :], axis=-1))
    unary = alpha * beta
    unary *= g
    d_em = unary if perm is None else np.empty_like(unary)
    if perm is not None:
        d_em[perm] = unary
    db = np.zeros_like(b64)
    db[:k, :k] = (pairs * trans_exp + d_trans) * g
    db[k, :k] = unary[steps[0][0]].sum(axis=0)
    db[:k, k + 1] = d_end * g
    _acc(grads, tensors, node.input_ids[0], d_em)
    _acc(grads, tensors, node.input_ids[1], db)


def _bwd_stop_gradient(node, g, grads, tensors):
    pass


_BACKWARD = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "multiply": _bwd_multiply,
    "tanh": _bwd_tanh,
    "sigmoid": _bwd_sigmoid,
    "concat": _bwd_concat,
    "slice": _bwd_slice,
    "sum": _bwd_sum,
    "log_sum_exp": _bwd_log_sum_exp,
    "cosine_similarity": _bwd_cosine,
    "pick_row": _bwd_pick_row,
    "transpose": _bwd_transpose,
    "lstm_sequence": _bwd_lstm_sequence,
    "log_partition": _bwd_log_partition,
    "stop_gradient": _bwd_stop_gradient,
}


def backward(loss: Tensor, tape: Tape) -> dict[int, np.ndarray]:
    """Propagate gradients of a scalar loss back through the tape.

    Returns the gradient for every reached node keyed by node id.
    Non-constant leaf tensors (parameters) also get the result
    accumulated into their ``grad`` slot. The tape is consumed: each
    node's saved arrays are released as soon as the pass leaves it, so
    a second call on the same tape raises ``ValueError``.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    nid = loss.node_id
    if nid is None or nid >= len(tape._tensors) or tape._tensors[nid] is not loss:
        raise ValueError("backward: loss is not recorded on this tape")
    if tape._consumed:
        raise ValueError("backward: this tape was already backpropagated")
    tape._consumed = True
    grads: list = [None] * len(tape._tensors)
    grads[nid] = np.ones_like(loss.values)
    for node in reversed(tape.nodes):
        g = grads[node.out_id]
        if g is not None:
            _BACKWARD[node.op](node, g, grads, tape._tensors)
        node.saved = None
    result = {}
    for i, g in enumerate(grads):
        if g is None:
            continue
        result[i] = g
        t = tape._tensors[i]
        if not tape._produced[i] and not t.constant:
            t.grad = g if t.grad is None else t.grad + g
    return result


# ---------------------------------------------------------------------------
# stop_gradient freezing for numeric checks
# ---------------------------------------------------------------------------

def _sg_state():
    st = getattr(_TLS, "sg", None)
    if st is None:
        st = {"mode": None, "store": None, "index": 0}
        _TLS.sg = st
    return st


def _sg_value(vals):
    st = _sg_state()
    mode = st["mode"]
    if mode is None:
        return vals
    if mode == "record":
        st["store"].append(vals.copy())
        return vals
    store = st["store"]
    if st["index"] >= len(store):
        raise ValueError(
            "stop_gradient: call count grew between evaluations; "
            "the loss builder is not deterministic"
        )
    frozen = store[st["index"]]
    st["index"] += 1
    if frozen.shape != vals.shape:
        raise ValueError("stop_gradient: input shape changed between evaluations")
    return frozen


@contextmanager
def sg_recording(store: list):
    st = _sg_state()
    prev = dict(st)
    st.update(mode="record", store=store, index=0)
    try:
        yield
    finally:
        st.update(prev)


@contextmanager
def sg_replaying(store: list):
    st = _sg_state()
    prev = dict(st)
    st.update(mode="replay", store=store, index=0)
    try:
        yield
        if st["index"] != len(store):
            raise ValueError(
                "stop_gradient: call count shrank between evaluations; "
                "the loss builder is not deterministic"
            )
    finally:
        st.update(prev)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    worst_index: int = -1
    analytic: float = 0.0
    numeric: float = 0.0


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def __str__(self):
        lines = [
            f"{e.name}: max rel err {e.max_rel_error:.3e} "
            f"(analytic {e.analytic:.6e}, numeric {e.numeric:.6e})"
            for e in self.entries
        ]
        lines.append(f"overall: {self.max_rel_error:.3e}")
        return "\n".join(lines)


def _eval_scalar(loss_builder) -> float:
    out = loss_builder()
    if not isinstance(out, Tensor) or out.values.size != 1:
        raise ValueError("finite_difference_check: loss builder must return a scalar Tensor")
    return float(out.values)


def finite_difference_check(loss_builder, params, eps: float = 1e-5, names=None) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_builder`` must deterministically rebuild the scalar loss from
    the current parameter values; determinism is verified by evaluating
    the baseline twice and requiring bit-identical results. Inputs of
    ``stop_gradient`` are frozen at their baseline values for the whole
    check, so parameters whose only influence passes through the marker
    show a numeric derivative of exactly zero, matching the analytic
    contract. Relative error uses ``|a - n| / max(|a|, |n|, 1)``.
    """
    if eps <= 0:
        raise ValueError("finite_difference_check: eps must be positive")
    params = list(params)
    if names is None:
        names = [f"param{i}" for i in range(len(params))]

    store: list = []
    with sg_recording(store):
        base = _eval_scalar(loss_builder)
    with sg_replaying(store):
        again = _eval_scalar(loss_builder)
    if base != again:
        raise ValueError(
            f"finite_difference_check: loss builder is not deterministic "
            f"({base!r} vs {again!r})"
        )

    saved_grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    tape = Tape()
    with tape, sg_replaying(store):
        loss = loss_builder()
    grad_map = backward(loss, tape)
    analytic = []
    for p in params:
        nid = p.node_id
        if (
            nid is not None
            and nid < len(tape._tensors)
            and tape._tensors[nid] is p
            and nid in grad_map
        ):
            analytic.append(grad_map[nid].copy())
        else:
            analytic.append(np.zeros_like(p.values))
    for p, g in zip(params, saved_grads):
        p.grad = g

    report = GradCheckReport()
    for p, name, a in zip(params, names, analytic):
        flat = p.values.reshape(-1)
        if not np.shares_memory(flat, p.values):
            raise ValueError("finite_difference_check: parameter values must be contiguous")
        a_flat = a.reshape(-1)
        entry = GradCheckEntry(name=name, max_rel_error=0.0)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with sg_replaying(store):
                f_plus = _eval_scalar(loss_builder)
            flat[i] = orig - eps
            with sg_replaying(store):
                f_minus = _eval_scalar(loss_builder)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a_i = float(a_flat[i])
            rel = abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1.0)
            if rel > entry.max_rel_error:
                entry.max_rel_error = rel
                entry.worst_index = i
                entry.analytic = a_i
                entry.numeric = numeric
        report.entries.append(entry)
    return report
