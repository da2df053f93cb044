import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import (
    OP_KINDS,
    RowGrad,
    Tape,
    _scatter,
    add,
    backward,
    concat,
    cosine_distance,
    crf_nll,
    dense_grad,
    linear,
    lstm_sequence,
    mix,
    pick_row,
    reduce_sum,
    sigmoid,
    stop_gradient,
    tanh,
    tensor,
)

from gradcheck import finite_difference_check, weighted_sum


def t64(values):
    return tensor(values, dtype=np.float64)


def check_grads(builder, params, tol=1e-6, eps=1e-5):
    report = finite_difference_check(builder, params, eps=eps)
    assert report.max_rel_error < tol, str(report)
    return report


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_tanh_at_zero():
    out = tanh(t64([0.0, 0.0]))
    assert np.array_equal(out.values, [0.0, 0.0])


def test_sigmoid_at_zero():
    out = sigmoid(t64([0.0]))
    assert np.array_equal(out.values, [0.5])


def test_saturated_sigmoid_is_zero_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(tensor(np.full(3, -1000.0), dtype=np.float32))
        x = tensor(np.full((2, 1), -1000.0), dtype=np.float32)
        w_x = tensor(np.ones((1, 4)), dtype=np.float32)
        w_h = tensor(np.zeros((1, 4)), dtype=np.float32)
        states = lstm_sequence(x, w_x, w_h, tensor(np.zeros(4), dtype=np.float32), [2])
    assert out.dtype == np.float32 and np.array_equal(out.values, np.zeros(3))
    assert states.dtype == np.float32 and np.array_equal(states.values, np.zeros((2, 1)))


def test_backward_sum_is_ones():
    x = t64([1.0, -2.0, 3.0])
    tape = Tape()
    with tape:
        loss = reduce_sum(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_tanh_prime_at_zero():
    x = t64([0.0])
    tape = Tape()
    with tape:
        loss = reduce_sum(tanh(x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [1.0])


def test_backward_loss_grad_wrt_itself_is_one():
    """The seed of one reaches a leaf through a sum unchanged, and is dropped once used."""
    x = t64([2.0])
    tape = Tape()
    with tape:
        loss = reduce_sum(x)
    backward(loss, tape)
    assert float(x.grad[0]) == 1.0
    assert loss.grad is None


def test_backward_unreachable_tensor_gets_no_entry():
    x = t64([1.0, 2.0])
    y = t64([3.0])
    tape = Tape()
    with tape:
        hidden = tanh(x)
        loss = reduce_sum(hidden)
        off_path = reduce_sum(y)  # on the tape but not feeding the loss
    backward(loss, tape)
    assert y.grad is None and off_path.grad is None
    assert hidden.grad is None  # only leaves keep a gradient
    assert x.grad is not None


def test_nested_tapes_give_the_outer_pass_its_own_gradients():
    """An inner tape's backward leaves a gradient on a tensor the outer tape
    made; the outer backward over that tensor does not carry it in."""
    rng = np.random.default_rng(19)
    w_vals, x_vals = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))

    def outer_pass(inner):
        w, x = t64(w_vals), t64(x_vals)
        outer = Tape()
        with outer:
            h = tanh(linear(x, w))  # shared: made on the outer tape
            if inner:
                tape = Tape()
                with tape:
                    inner_loss = reduce_sum(sigmoid(h))
                backward(inner_loss, tape)
                assert h.grad is not None and w.grad is None
            loss = reduce_sum(tanh(h))
        backward(loss, outer)
        return w.grad, x.grad

    for got, want in zip(outer_pass(inner=True), outer_pass(inner=False)):
        assert got.tobytes() == want.tobytes()


def test_linear_gradient_random_2x2():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(1, 2)))
    w = t64(rng.normal(size=(2, 2)))
    check_grads(lambda: reduce_sum(linear(x, w)), [x, w])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mix_is_the_numpy_expression_bit_for_bit(dtype):
    """Forward ``z*x + (1-z)*m``; backward ``g*x - g*m`` to z, ``g*z`` to x and
    ``g*(1-z)`` to m, each as numpy computes it in the inputs' dtype."""
    rng = np.random.default_rng(31)
    z, x, m, g = (rng.normal(size=(4, 5)).astype(dtype) for _ in range(4))
    z = 1.0 / (1.0 + np.exp(-z))  # a gate's values, strictly inside (0, 1)
    leaves = [tensor(v) for v in (z, x, m)]
    tape = Tape()
    with tape:
        out = mix(*leaves)
        loss = weighted_sum(out, tensor(g))  # sends exactly g back to the mix
    backward(loss, tape)
    assert out.dtype == dtype and out.values.tobytes() == (z * x + (1 - z) * m).tobytes()
    for leaf, want in zip(leaves, (g * x - g * m, g * z, g * (1 - z))):
        assert leaf.grad.dtype == dtype and np.array_equal(leaf.grad, want)


def test_add_and_mix_take_equal_shapes_only():
    for a, b in [((3,), ()), ((), (3,)), ((2, 3), (3,)), ((2, 3), (3, 2))]:
        with pytest.raises(ValueError, match="add"):
            add(t64(np.ones(a)), t64(np.ones(b)))
        for shapes in ((a, b, b), (b, a, b), (b, b, a)):
            with pytest.raises(ValueError, match="mix"):
                mix(*(t64(np.ones(s)) for s in shapes))


# ---------------------------------------------------------------------------
# stop_gradient
# ---------------------------------------------------------------------------

def test_stop_gradient_forward_identity():
    x = t64([1.5, -2.0])
    tape = Tape()
    with tape:
        out = stop_gradient(x)
    assert np.array_equal(out.values, x.values)
    assert out.constant and len(tape) == 0  # a constant, not a node


def test_stop_gradient_blocks_one_side():
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=3))
    y = t64(rng.normal(size=3))
    tape = Tape()
    with tape:
        loss = weighted_sum(stop_gradient(x), y)
    backward(loss, tape)
    assert x.grad is None
    assert np.allclose(y.grad, x.values)


def test_fd_quadratic_exact():
    x = t64([1.0, 2.0])
    report = check_grads(lambda: weighted_sum(x, x), [x], tol=1e-9)
    tape = Tape()
    with tape:
        loss = weighted_sum(x, x)
    backward(loss, tape)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)
    assert report.max_rel_error < 1e-9


def test_fd_blocked_path_numeric_and_analytic_zero():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=3))
    y = t64(rng.normal(size=3))
    report = finite_difference_check(
        lambda: weighted_sum(stop_gradient(x), y), [x], eps=1e-5
    )
    assert report.max_rel_error <= 1e-9


def test_fd_rejects_nondeterministic_builder():
    calls = []

    def builder():
        calls.append(None)
        return reduce_sum(t64([float(len(calls))]))

    with pytest.raises(ValueError, match="not deterministic"):
        finite_difference_check(builder, [t64([1.0])])


def test_fd_rejects_bad_eps():
    x = t64([1.0])
    with pytest.raises(ValueError, match="eps"):
        finite_difference_check(lambda: reduce_sum(x), [x], eps=0.0)


# ---------------------------------------------------------------------------
# per-primitive random gradient checks (>= 100 instances each)
# ---------------------------------------------------------------------------

def _random_case(kind, rng, i):
    """Build (loss builder, params) for one random instance of a primitive."""
    if kind == "linear":
        m, n, p = (int(rng.integers(1, 5)) for _ in range(3))
        if i % 3 < 2:  # w a single row, or x a single row, in turn
            m, p = (m, 1) if i % 3 == 0 else (1, p)
        x, w = t64(rng.normal(size=(m, n))), t64(rng.normal(size=(p, n)))
        return lambda: reduce_sum(linear(x, w)), [x, w]
    if kind == "add":  # vectors, scalars (the loss plus its auxiliary term), matrices
        shape = ((int(rng.integers(1, 6)),), (), (2, int(rng.integers(1, 6))))[i % 3]
        a, b = t64(rng.normal(size=shape)), t64(rng.normal(size=shape))
        return lambda: reduce_sum(add(a, b)), [a, b]
    if kind == "mix":  # vectors; _random_array_case takes matrices
        n = int(rng.integers(1, 6))
        z, x, m = (t64(rng.normal(size=n)) for _ in range(3))
        weights = t64(rng.normal(size=z.shape))
        return lambda: weighted_sum(mix(z, x, m), weights), [z, x, m]
    if kind in ("tanh", "sigmoid"):
        op = tanh if kind == "tanh" else sigmoid
        shape = (int(rng.integers(1, 6)),) if i % 2 else (2, int(rng.integers(1, 4)))
        a = t64(rng.normal(size=shape))
        return lambda: reduce_sum(op(a)), [a]
    if kind == "concat":  # one row; _random_array_case takes several
        parts = [t64(rng.normal(size=(1, int(rng.integers(1, 4))))) for _ in range(1 + i % 4)]
        weights = t64(rng.normal(size=(1, sum(p.size for p in parts))))
        return lambda: weighted_sum(concat(parts), weights), parts
    if kind == "sum":
        a = t64(rng.normal(size=(2, 3)) if i % 2 else rng.normal(size=4))
        return lambda: reduce_sum(a), [a]
    if kind == "cosine_distance":  # one row; _random_array_case takes several
        n = int(rng.integers(2, 6))
        a = t64(rng.normal(size=(1, n)) + 0.5)
        b = t64(rng.normal(size=(1, n)) - 0.5)
        return lambda: reduce_sum(cosine_distance(a, b)), [a, b]
    if kind == "pick_row":
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = t64(rng.normal(size=(rows, cols)))
        row = int(rng.integers(0, rows))
        return lambda: reduce_sum(pick_row(a, row)), [a]
    if kind == "lstm_sequence":
        dim, hid, steps = (int(rng.integers(1, 4)) for _ in range(3))
        batch = 1 if i % 2 else int(rng.integers(1, 4))  # one run, or equal-length runs back to back
        lengths = [steps] * batch
        x = t64(rng.normal(size=(batch * steps, dim)))
        w_x = t64(rng.normal(size=(dim, 4 * hid)) * 0.7)
        w_h = t64(rng.normal(size=(hid, 4 * hid)) * 0.7)
        b = t64(rng.normal(size=4 * hid) * 0.5)
        weights = t64(rng.normal(size=(x.shape[0], hid)))
        reverse = i % 4 >= 2
        return (
            lambda: weighted_sum(lstm_sequence(x, w_x, w_h, b, lengths, reverse), weights),
            [x, w_x, w_h, b],
        )
    if kind == "crf_nll":
        steps, labels = 1 + i % 5, 1 + (i // 5) % 4  # every T in 1-5 with every K in 1-4
        a = t64(rng.normal(size=(steps, labels)))
        b = t64(rng.normal(size=(labels + 2, labels + 2)))
        y = rng.integers(0, labels, size=steps)
        return lambda: crf_nll(a, b, y, [steps]), [a, b]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", OP_KINDS)
def test_primitive_gradients_random(kind):
    rng = np.random.default_rng(1000 + OP_KINDS.index(kind))
    for i in range(100):
        builder, params = _random_case(kind, rng, i)
        check_grads(builder, params)


def _random_array_case(kind, rng, i):
    """Build (loss builder, params) for one instance of a form of a
    primitive that ``_random_case`` does not build: several rows, gathers
    by index arrays, ragged runs."""
    if kind == "concat":  # the word BiLSTM's two directions, or the concat model's x and m
        rows = int(rng.integers(1, 4))
        parts = [t64(rng.normal(size=(rows, int(rng.integers(1, 4))))) for _ in range(2 + i % 2)]
        weights = t64(rng.normal(size=(rows, sum(p.shape[1] for p in parts))))
        return lambda: weighted_sum(concat(parts), weights), parts
    if kind == "mix":  # (tokens, features), the attention gate's form
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        z, x, m = (t64(rng.normal(size=shape)) for _ in range(3))
        weights = t64(rng.normal(size=shape))
        return lambda: weighted_sum(mix(z, x, m), weights), [z, x, m]
    if kind == "cosine_distance":
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
        a = t64(rng.normal(size=shape) + 0.5)
        b = t64(rng.normal(size=shape) - 0.5)
        weights = t64(rng.normal(size=shape[0]))
        return lambda: weighted_sum(cosine_distance(a, b), weights), [a, b]
    if kind == "pick_row":  # repeated rows accumulate
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = t64(rng.normal(size=(rows, cols)))
        row = rng.integers(0, rows, size=(2, 3) if i % 2 else 5)
        weights = t64(rng.normal(size=a.values[row].shape))
        return lambda: weighted_sum(pick_row(a, row), weights), [a]
    if kind == "lstm_sequence":  # ragged: sequences of different lengths back to back
        dim, hid = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        lengths = rng.integers(1, 5, size=int(rng.integers(2, 5)))
        lengths[i % len(lengths)] = 1 + (i % 2) * 4  # a length-1 or the longest run, in turn
        x = t64(rng.normal(size=(int(lengths.sum()), dim)))
        w_x = t64(rng.normal(size=(dim, 4 * hid)) * 0.7)
        w_h = t64(rng.normal(size=(hid, 4 * hid)) * 0.7)
        b = t64(rng.normal(size=4 * hid) * 0.5)
        weights = t64(rng.normal(size=(x.shape[0], hid)))
        reverse = i % 4 >= 2
        return (
            lambda: weighted_sum(lstm_sequence(x, w_x, w_h, b, lengths, reverse), weights),
            [x, w_x, w_h, b],
        )
    if kind == "crf_nll":  # ragged: 2-4 sentences of 1-6 tokens back to back
        labels = 1 + i % 4
        lengths = rng.integers(1, 7, size=2 + i % 3)
        lengths[i % len(lengths)] = 1 + (i % 2) * 5  # a length-1 or the longest sentence, in turn
        a = t64(rng.normal(size=(int(lengths.sum()), labels)))
        b = t64(rng.normal(size=(labels + 2, labels + 2)))
        y = rng.integers(0, labels, size=int(lengths.sum()))
        return lambda: crf_nll(a, b, y, lengths), [a, b]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["mix", "concat", "cosine_distance", "pick_row", "lstm_sequence", "crf_nll"])
def test_primitive_gradients_random_array_forms(kind):
    rng = np.random.default_rng(2000 + OP_KINDS.index(kind))
    for i in range(100):
        builder, params = _random_array_case(kind, rng, i)
        check_grads(builder, params)


# entries whose sums show any change of order: signed zeros, and magnitudes
# that absorb or cancel one another
_SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e30, -1e30, 1e-30, -1e-30, 3.0, -3.0]),
    st.floats(-1e3, 1e3, width=32),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       rows=st.integers(1, 4), cols=st.integers(1, 4), picks=st.integers(0, 12))
def test_flat_scatter_matches_add_at(data, dtype, rows, cols, picks):
    """``_scatter`` is ``np.add.at`` on the dense buffer, byte for byte, for
    row arrays with repeats, onto a buffer that may already hold a gradient."""
    def draw_values(shape, label):
        flat = data.draw(st.lists(_SCATTER_VALUES, min_size=math.prod(shape), max_size=math.prod(shape)),
                         label=label)
        return np.array(flat, dtype=dtype).reshape(shape)

    index = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=picks, max_size=picks),
                               label="rows"), dtype=np.int64)
    g = draw_values((picks, cols), "g")
    start = draw_values((rows, cols), "start")
    want = start.copy()
    np.add.at(want, index, g)
    got = start.copy()
    _scatter(got, index, g)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("other", ["none", "pick_first", "pick_last", "matmul_first", "matmul_last"])
def test_row_form_gradient_densifies_to_the_dense_gradient(other):
    """A leaf picked once keeps its gradient in row form; a second pick or a
    matrix product (``linear``), recorded before or after, makes it the dense
    gradient, bit for bit: contributions are added from zero in backward order."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = t64(rng.normal(size=(5, 3)) * rng.choice([1e-8, 1.0, 1e8], size=(5, 1)))
        picks = [rng.integers(0, 5, size=int(rng.integers(1, 7))) for _ in range(2)]
        weights = [rng.normal(size=(len(ix), 3)) for ix in picks]
        b, w_mm = rng.normal(size=(2, 3)), rng.normal(size=(5, 2))
        parts = [("pick", picks[0], weights[0])]
        if other != "none":
            second = ("pick", picks[1], weights[1]) if other.startswith("pick") else ("matmul", b, w_mm)
            parts = [second] + parts if other.endswith("first") else parts + [second]
        tape = Tape()
        with tape:
            terms = [linear(m, t64(v)) if kind == "matmul" else pick_row(m, v) for kind, v, _ in parts]
            sums = [weighted_sum(t, t64(w)) for t, (_, _, w) in zip(terms, parts)]
            loss = sums[0] if len(sums) == 1 else add(*sums)
        backward(loss, tape)
        want = np.zeros_like(m.values)
        for kind, v, w in reversed(parts):  # the order backward reaches them
            if kind == "matmul":
                want += w @ v
            else:
                np.add.at(want, v, w)
        if other == "none":
            assert isinstance(m.grad, RowGrad)
            assert np.array_equal(m.grad.rows, np.unique(picks[0]))
        else:
            assert isinstance(m.grad, np.ndarray)
        assert dense_grad(m.grad).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_tape_replay_determinism():
    rng = np.random.default_rng(3)
    x_vals = rng.normal(size=(1, 4))
    w_vals = rng.normal(size=(4, 4))

    def run():
        x, w = t64(x_vals), t64(w_vals)
        tape = Tape()
        with tape:
            loss = reduce_sum(sigmoid(tanh(linear(x, w))))
        backward(loss, tape)
        return float(loss.values), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_stop_gradient_preserves_bits():
    vals = np.nextafter(np.array([1.0, -1.0, 3.7e-200]), 2.0)
    out = stop_gradient(tensor(vals))
    assert out.values.tobytes() == vals.tobytes()


def test_tape_nodes_topologically_ordered():
    """Each node reads leaves or outputs of earlier nodes; the loss is the last output."""
    x = t64([[1.0, 2.0]])
    w = t64(np.eye(2))
    tape = Tape()
    with tape:
        loss = reduce_sum(tanh(linear(x, w)))
    made = []
    for node in tape.nodes:
        assert all(any(t is s for s in (x, w, *made)) for t in node.inputs)
        made.append(node.out)
    assert [n.op for n in tape.nodes] == ["linear", "tanh", "sum"]
    assert made[-1] is loss


def test_distinct_tapes_on_distinct_threads():
    import threading

    results = {}

    def work(key, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=(1, 64)))
        for _ in range(50):
            tape = Tape()
            with tape:
                loss = reduce_sum(sigmoid(tanh(x)))
            backward(loss, tape)
            x.grad = None
        tape = Tape()
        with tape:
            loss = reduce_sum(sigmoid(tanh(x)))
        backward(loss, tape)
        results[key] = (float(loss.values), x.grad.copy())

    threads = [threading.Thread(target=work, args=(k, s)) for k, s in (("a", 1), ("b", 2))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for key, seed in (("a", 1), ("b", 2)):
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=(1, 64)))
        tape = Tape()
        with tape:
            loss = reduce_sum(sigmoid(tanh(x)))
        backward(loss, tape)
        assert results[key][0] == float(loss.values)
        assert np.array_equal(results[key][1], x.grad)


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------

def test_linear_shape_error_names_op_and_shapes():
    with pytest.raises(ValueError, match=r"linear.*\(2, 3\).*\(3,\)"):
        linear(t64(np.zeros((2, 3))), t64(np.zeros(3)))
    for x, w in [((3,), (2, 3)), ((2, 3), (3, 2)), ((2, 3), (1, 2, 3))]:  # matrices of matching width only
        with pytest.raises(ValueError, match="linear"):
            linear(t64(np.zeros(x)), t64(np.zeros(w)))


def test_pick_row_range_error():
    with pytest.raises(ValueError, match="pick_row"):
        pick_row(t64(np.zeros((2, 2))), 2)
    rows = np.zeros(5000, dtype=np.int64)
    rows[-1] = 2
    with pytest.raises(ValueError, match=r"expected 5000 integer ids in \[0, 2\), first bad value 2") as err:
        pick_row(t64(np.zeros((2, 2))), rows)
    assert len(str(err.value)) < 120  # the index array is not printed


def test_pick_row_takes_only_matrices():
    for bad in (np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="pick_row"):
            pick_row(t64(bad), 0)


def test_backward_rejects_non_scalar():
    x = t64([1.0, 2.0])
    tape = Tape()
    with tape:
        y = tanh(x)
    with pytest.raises(ValueError, match="scalar"):
        backward(y, tape)


def test_backward_consumes_the_tape():
    x = t64([1.0, 2.0])
    tape = Tape()
    with tape:
        loss = reduce_sum(tanh(x))
    backward(loss, tape)
    assert [n.op for n in tape.nodes] == ["tanh", "sum"]
    assert all(n.saved is None for n in tape.nodes)
    with pytest.raises(ValueError, match="already backpropagated"):
        backward(loss, tape)


def test_backward_rejects_foreign_loss():
    x = t64([1.0])
    tape = Tape()
    with tape:
        reduce_sum(x)
    other = reduce_sum(x)  # built off-tape
    with pytest.raises(ValueError, match="not recorded"):
        backward(other, tape)


def test_concat_rejects_inputs_that_do_not_join():
    for parts in [
        [],
        [np.zeros(2)],
        [np.zeros((2, 2, 2))],
        [np.zeros((2, 2)), np.zeros((3, 2))],
        [np.zeros((2, 2)), np.zeros(2)],
        [np.zeros(()), np.zeros(())],
    ]:
        with pytest.raises(ValueError, match="concat"):
            concat([t64(p) for p in parts])


def test_crf_nll_input_errors():
    for a, b in [((2, 3), (4, 4)), ((0, 2), (4, 4)), ((3,), (3, 3))]:
        with pytest.raises(ValueError, match="crf_nll"):
            crf_nll(t64(np.zeros(a)), t64(np.zeros(b)), np.zeros(a[0], dtype=np.int64), [a[0]])
    for lengths in ([], [2, 3], [4, 0], [5, -1]):
        with pytest.raises(ValueError, match="crf_nll: lengths"):
            crf_nll(t64(np.zeros((4, 2))), t64(np.zeros((4, 4))), [0, 1, 0, 1], lengths)
    for y in ([0, 1, 0], [0, 1, 0, 1, 0], [0, 1, 2, 1], [0, -1, 0, 1], [0.0, 1.0, 0.0, 1.0], [[0, 1, 0, 1]]):
        with pytest.raises(ValueError, match="crf_nll: gold labels"):
            crf_nll(t64(np.zeros((4, 2))), t64(np.zeros((4, 4))), y, [3, 1])


def test_cosine_distance_takes_only_matrices():
    for a, b in [((3,), (3,)), ((2, 3), (2, 4)), ((1, 2, 3), (1, 2, 3))]:
        with pytest.raises(ValueError, match="cosine_distance"):
            cosine_distance(t64(np.ones(a)), t64(np.ones(b)))


def test_every_op_kind_has_one_backward_and_no_other():
    """Each primitive records one node whose kind has a backward; together they record every kind once."""
    m = t64(np.ones((1, 2)))
    w = t64(np.ones((1, 4)))
    with Tape() as tape:
        linear(m, m)
        add(m, m)
        mix(m, m, m)
        tanh(m)
        sigmoid(m)
        concat([m, m])
        reduce_sum(m)
        cosine_distance(m, m)
        pick_row(m, 0)
        lstm_sequence(t64(np.ones((1, 1))), w, w, t64(np.ones(4)), [1])
        crf_nll(m, t64(np.zeros((4, 4))), [0], [1])
    assert sorted(node.op for node in tape.nodes) == sorted(OP_KINDS)
