"""Reverse-mode automatic differentiation on a flat tape.

The engine is deliberately small: eleven primitive kinds, picked as the
minimal set the tagging models in this package need, plus a gradient
blocking marker. Values are dense numpy arrays of zero, one or two
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
    concat(ts, rows=True)  equal-length vectors stacked into a matrix
    narrow(t, i, j)        contiguous vector slice [i, j)     (kind "slice")
    reduce_sum(t)          every entry summed to a scalar     (kind "sum")
    log_sum_exp(t)         vector -> scalar, max-shifted so large inputs
                           cannot overflow
    log_sum_exp(t, axis=0) matrix -> vector of per-column reductions
    cosine_similarity(a,b) vectors -> scalar; each norm is guarded with
                           +1e-8 so zero vectors stay finite
    pick_row(m, i)         matrix -> copy of row i

Recording is scoped by a ``Tape`` used as a context manager; outside any
tape the same functions run forward-only. The finite-difference checker
relies on that for its many loss evaluations, and additionally freezes
every ``stop_gradient`` input at its baseline value while perturbing, so
that the numeric derivative measures exactly the quantity the analytic
backward pass computes.
"""

from __future__ import annotations

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


def sigmoid(t: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-t.values))
    return _emit("sigmoid", (t,), out, (out,))


def concat(ts, rows: bool = False) -> Tensor:
    ts = tuple(ts)
    if not ts:
        raise ValueError("concat: need at least one input")
    if rows:
        width = None
        for t in ts:
            if t.values.ndim != 1:
                raise _shape_error("concat(rows)", t.shape)
            if width is None:
                width = t.shape[0]
            elif t.shape[0] != width:
                raise _shape_error("concat(rows)", (width,), t.shape)
        out = np.stack([t.values for t in ts])
        return _emit("concat", ts, out, ("rows", None))
    shapes = []
    for t in ts:
        if t.values.ndim > 1:
            raise _shape_error("concat", t.shape)
        shapes.append(t.shape)
    out = np.concatenate([np.atleast_1d(t.values) for t in ts])
    return _emit("concat", ts, out, ("flat", tuple(shapes)))


def narrow(t: Tensor, start: int, stop: int) -> Tensor:
    v = t.values
    if v.ndim != 1:
        raise _shape_error("slice", v.shape)
    if not 0 <= start < stop <= v.shape[0]:
        raise ValueError(f"slice: bad range [{start}, {stop}) for length {v.shape[0]}")
    return _emit("slice", (t,), v[start:stop].copy(), (start, stop))


def reduce_sum(t: Tensor) -> Tensor:
    return _emit("sum", (t,), np.asarray(t.values.sum()), ())


def log_sum_exp(t: Tensor, axis=None) -> Tensor:
    v = t.values
    if axis is None and v.ndim == 1 and v.size:
        m = v.max()
        out = np.asarray(float(m + np.log(np.exp(v - m).sum())), dtype=v.dtype)
    elif axis == 0 and v.ndim == 2 and v.shape[0]:
        mx = v.max(axis=0)
        out = np.asarray(mx + np.log(np.exp(v - mx).sum(axis=0)), dtype=v.dtype)
    else:
        raise _shape_error("log_sum_exp", v.shape)
    return _emit("log_sum_exp", (t,), out, (v, out, axis))


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 1 or av.shape != bv.shape:
        raise _shape_error("cosine_similarity", av.shape, bv.shape)
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    dot = float(av @ bv)
    out = dot / ((na + NORM_EPS) * (nb + NORM_EPS))
    out = np.asarray(out, dtype=np.result_type(av, bv))
    return _emit("cosine_similarity", (a, b), out, (av, bv, na, nb, dot))


def pick_row(m: Tensor, i: int) -> Tensor:
    v = m.values
    if v.ndim != 2:
        raise _shape_error("pick_row", v.shape)
    if not 0 <= i < v.shape[0]:
        raise ValueError(f"pick_row: row {i} out of range for shape {v.shape}")
    return _emit("pick_row", (m,), v[i].copy(), (int(i),))


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
    mode, shapes = node.saved
    if mode == "rows":
        for i, nid in enumerate(node.input_ids):
            _acc(grads, tensors, nid, g[i])
        return
    offset = 0
    for nid, shape in zip(node.input_ids, shapes):
        n = 1 if shape == () else shape[0]
        piece = g[offset : offset + n]
        _acc(grads, tensors, nid, piece.reshape(shape))
        offset += n


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
    x, out, axis = node.saved
    if axis is None:
        _acc(grads, tensors, node.input_ids[0], np.exp(x - float(out)) * float(g))
    else:
        _acc(grads, tensors, node.input_ids[0], np.exp(x - out) * g)


def _bwd_cosine(node, g, grads, tensors):
    av, bv, na, nb, dot = node.saved
    ea = na + NORM_EPS
    eb = nb + NORM_EPS
    gd = float(g)
    c = dot / (ea * eb)
    ga = bv / (ea * eb)
    if na > 0.0:
        ga = ga - (c / ea) * (av / na)
    gb = av / (ea * eb)
    if nb > 0.0:
        gb = gb - (c / eb) * (bv / nb)
    _acc(grads, tensors, node.input_ids[0], gd * ga)
    _acc(grads, tensors, node.input_ids[1], gd * gb)


def _bwd_pick_row(node, g, grads, tensors):
    (i,) = node.saved
    buf = _grad_buffer(grads, tensors, node.input_ids[0])
    if buf is not None:
        buf[i] += g


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
    "stop_gradient": _bwd_stop_gradient,
}


def backward(loss: Tensor, tape: Tape) -> dict[int, np.ndarray]:
    """Propagate gradients of a scalar loss back through the tape.

    Returns the gradient for every reached node keyed by node id.
    Non-constant leaf tensors (parameters) also get the result
    accumulated into their ``grad`` slot.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    nid = loss.node_id
    if nid is None or nid >= len(tape._tensors) or tape._tensors[nid] is not loss:
        raise ValueError("backward: loss is not recorded on this tape")
    grads: list = [None] * len(tape._tensors)
    grads[nid] = np.ones_like(loss.values)
    for node in reversed(tape.nodes):
        g = grads[node.out_id]
        if g is None:
            continue
        _BACKWARD[node.op](node, g, grads, tape._tensors)
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
