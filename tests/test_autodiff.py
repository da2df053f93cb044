import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import (
    OP_KINDS,
    Tape,
    add,
    backward,
    concat,
    cosine_similarity,
    finite_difference_check,
    log_partition,
    log_sum_exp,
    lstm_sequence,
    matmul,
    multiply,
    narrow,
    pick_row,
    reduce_sum,
    sigmoid,
    stop_gradient,
    tanh,
    tensor,
    transpose,
)


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
        states = lstm_sequence(x, w_x, w_h, tensor(np.zeros(4), dtype=np.float32))
    assert out.dtype == np.float32 and np.array_equal(out.values, np.zeros(3))
    assert states.dtype == np.float32 and np.array_equal(states.values, np.zeros((2, 1)))


def test_log_sum_exp_equal_entries():
    out = log_sum_exp(t64([0.0, 0.0, 0.0]))
    assert float(out.values) == pytest.approx(math.log(3.0), abs=1e-12)


def test_log_sum_exp_against_scipy():
    from scipy.special import logsumexp as scipy_lse

    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.normal(size=int(rng.integers(1, 12))) * 20
        assert float(log_sum_exp(t64(x)).values) == pytest.approx(scipy_lse(x), abs=1e-12)
        m = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6)))) * 20
        assert np.allclose(log_sum_exp(t64(m), axis=0).values, scipy_lse(m, axis=0), atol=1e-12)


def test_log_sum_exp_preserves_float32():
    x32 = tensor(np.ones(3), dtype=np.float32)
    assert log_sum_exp(x32).dtype == np.float32
    m32 = tensor(np.ones((2, 3)), dtype=np.float32)
    assert log_sum_exp(m32, axis=0).dtype == np.float32


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
    x = t64([2.0])
    tape = Tape()
    with tape:
        loss = reduce_sum(x)
    grads = backward(loss, tape)
    assert float(grads[loss.node_id]) == 1.0


def test_backward_unreachable_tensor_gets_no_entry():
    x = t64([1.0, 2.0])
    y = t64([3.0])
    tape = Tape()
    with tape:
        loss = reduce_sum(x)
        reduce_sum(y)  # on the tape but not feeding the loss
    grads = backward(loss, tape)
    assert y.grad is None
    assert y.node_id not in grads


def test_matmul_gradient_random_2x2():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=2))
    w = t64(rng.normal(size=(2, 2)))
    check_grads(lambda: reduce_sum(matmul(x, w)), [x, w])


# ---------------------------------------------------------------------------
# stop_gradient
# ---------------------------------------------------------------------------

def test_stop_gradient_forward_identity():
    x = t64([1.5, -2.0])
    out = stop_gradient(x)
    assert np.array_equal(out.values, x.values)


def test_stop_gradient_blocks_one_side():
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=3))
    y = t64(rng.normal(size=3))
    tape = Tape()
    with tape:
        loss = reduce_sum(multiply(stop_gradient(x), y))
    backward(loss, tape)
    assert x.grad is None
    assert np.allclose(y.grad, x.values)


def test_fd_quadratic_exact():
    x = t64([1.0, 2.0])
    report = check_grads(lambda: reduce_sum(multiply(x, x)), [x], tol=1e-9)
    tape = Tape()
    with tape:
        loss = reduce_sum(multiply(x, x))
    backward(loss, tape)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-12)
    assert report.max_rel_error < 1e-9


def test_fd_blocked_path_numeric_and_analytic_zero():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=3))
    y = t64(rng.normal(size=3))
    report = finite_difference_check(
        lambda: reduce_sum(multiply(stop_gradient(x), y)), [x], eps=1e-5
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
    if kind == "matmul":
        m, n, p = (int(rng.integers(1, 5)) for _ in range(3))
        case = i % 3
        if case == 0:
            a, b = t64(rng.normal(size=(m, n))), t64(rng.normal(size=n))
        elif case == 1:
            a, b = t64(rng.normal(size=n)), t64(rng.normal(size=(n, p)))
        else:
            a, b = t64(rng.normal(size=(m, n))), t64(rng.normal(size=(n, p)))
        return lambda: reduce_sum(matmul(a, b)), [a, b]
    if kind in ("add", "multiply"):
        op = add if kind == "add" else multiply
        n = int(rng.integers(1, 6))
        case = i % 3
        if case == 0:
            a, b = t64(rng.normal(size=n)), t64(rng.normal(size=n))
        elif case == 1:
            a, b = t64(rng.normal(size=n)), t64(rng.normal())
        else:
            a, b = t64(rng.normal(size=(2, n))), t64(rng.normal(size=(2, n)))
        return lambda: reduce_sum(op(a, b)), [a, b]
    if kind in ("tanh", "sigmoid"):
        op = tanh if kind == "tanh" else sigmoid
        shape = (int(rng.integers(1, 6)),) if i % 2 else (2, int(rng.integers(1, 4)))
        a = t64(rng.normal(size=shape))
        return lambda: reduce_sum(op(a)), [a]
    if kind == "concat":
        parts = [t64(rng.normal(size=int(rng.integers(1, 4)))) for _ in range(3)]
        parts.insert(i % 4, t64(rng.normal()))  # the scalar takes each position in turn
        weights = t64(rng.normal(size=sum(p.size for p in parts)))
        return lambda: reduce_sum(multiply(concat(parts), weights)), parts
    if kind == "slice":
        n = int(rng.integers(3, 8))
        start = int(rng.integers(0, n - 1))
        stop = int(rng.integers(start + 1, n + 1))
        a = t64(rng.normal(size=n))
        return lambda: reduce_sum(narrow(a, start, stop)), [a]
    if kind == "sum":
        a = t64(rng.normal(size=(2, 3)) if i % 2 else rng.normal(size=4))
        return lambda: reduce_sum(a), [a]
    if kind == "log_sum_exp":
        if i % 2:
            a = t64(rng.normal(size=int(rng.integers(1, 6))))
            return lambda: log_sum_exp(a), [a]
        a = t64(rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 4)))))
        return lambda: reduce_sum(log_sum_exp(a, axis=0)), [a]
    if kind == "cosine_similarity":
        n = int(rng.integers(2, 6))
        a = t64(rng.normal(size=n) + 0.5)
        b = t64(rng.normal(size=n) - 0.5)
        return lambda: cosine_similarity(a, b), [a, b]
    if kind == "pick_row":
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = t64(rng.normal(size=(rows, cols)))
        row = int(rng.integers(0, rows))
        return lambda: reduce_sum(pick_row(a, row)), [a]
    if kind == "transpose":
        a = t64(rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)))))
        b = t64(rng.normal(size=(a.shape[0], int(rng.integers(1, 4)))))
        return lambda: reduce_sum(matmul(transpose(a), b)), [a, b]
    if kind == "lstm_sequence":
        dim, hid, steps = (int(rng.integers(1, 4)) for _ in range(3))
        batch = None if i % 2 else int(rng.integers(1, 4))  # equal-length runs back to back
        lengths = None if batch is None else [steps] * batch
        x = t64(rng.normal(size=((batch or 1) * steps, dim)))
        w_x = t64(rng.normal(size=(dim, 4 * hid)) * 0.7)
        w_h = t64(rng.normal(size=(hid, 4 * hid)) * 0.7)
        b = t64(rng.normal(size=4 * hid) * 0.5)
        weights = t64(rng.normal(size=(x.shape[0], hid)))
        reverse = i % 4 >= 2
        return (
            lambda: reduce_sum(multiply(lstm_sequence(x, w_x, w_h, b, reverse, lengths), weights)),
            [x, w_x, w_h, b],
        )
    if kind == "log_partition":
        steps, labels = 1 + i % 5, 1 + (i // 5) % 4  # every T in 1-5 with every K in 1-4
        a = t64(rng.normal(size=(steps, labels)))
        b = t64(rng.normal(size=(labels + 2, labels + 2)))
        return lambda: log_partition(a, b), [a, b]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", OP_KINDS)
def test_primitive_gradients_random(kind):
    rng = np.random.default_rng(1000 + OP_KINDS.index(kind))
    for i in range(100):
        builder, params = _random_case(kind, rng, i)
        check_grads(builder, params)


def _random_array_case(kind, rng, i):
    """Build (loss builder, params) for one instance of a matrix form of a
    primitive whose vector form ``_random_case`` covers."""
    if kind == "concat":
        axis, fixed = i % 2, int(rng.integers(1, 4))
        shapes = [(int(rng.integers(1, 4)), fixed)[:: 1 if axis == 0 else -1] for _ in range(3)]
        parts = [t64(rng.normal(size=shape)) for shape in shapes]
        weights = t64(rng.normal(size=np.concatenate([p.values for p in parts], axis=axis).shape))
        return lambda: reduce_sum(multiply(concat(parts, axis=axis), weights)), parts
    if kind == "cosine_similarity":
        shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
        a = t64(rng.normal(size=shape) + 0.5)
        b = t64(rng.normal(size=shape) - 0.5)
        weights = t64(rng.normal(size=shape[0]))
        return lambda: reduce_sum(multiply(cosine_similarity(a, b), weights)), [a, b]
    if kind == "pick_row":
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if i % 3 == 0:  # repeated rows accumulate
            a = t64(rng.normal(size=(rows, cols)))
            row = rng.integers(0, rows, size=(2, 3))
        elif i % 3 == 1:
            a = t64(rng.normal(size=(rows, cols)))
            row = (rng.integers(0, rows, size=4), rng.integers(0, cols, size=4))
        else:  # one column of several rows
            a = t64(rng.normal(size=(rows, cols)))
            row = (rng.integers(0, rows, size=4), int(rng.integers(0, cols)))
        weights = t64(rng.normal(size=a.values[row].shape))
        return lambda: reduce_sum(multiply(pick_row(a, row), weights)), [a]
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
            lambda: reduce_sum(multiply(lstm_sequence(x, w_x, w_h, b, reverse, lengths), weights)),
            [x, w_x, w_h, b],
        )
    if kind == "log_partition":  # ragged: 2-4 sentences of 1-6 tokens back to back
        labels = 1 + i % 4
        lengths = rng.integers(1, 7, size=2 + i % 3)
        lengths[i % len(lengths)] = 1 + (i % 2) * 5  # a length-1 or the longest sentence, in turn
        a = t64(rng.normal(size=(int(lengths.sum()), labels)))
        b = t64(rng.normal(size=(labels + 2, labels + 2)))
        return lambda: log_partition(a, b, lengths), [a, b]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["concat", "cosine_similarity", "pick_row", "lstm_sequence", "log_partition"])
def test_primitive_gradients_random_array_forms(kind):
    rng = np.random.default_rng(2000 + OP_KINDS.index(kind))
    for i in range(100):
        builder, params = _random_array_case(kind, rng, i)
        check_grads(builder, params)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_tape_replay_determinism():
    rng = np.random.default_rng(3)
    x_vals = rng.normal(size=4)
    w_vals = rng.normal(size=(4, 4))

    def run():
        x, w = t64(x_vals), t64(w_vals)
        tape = Tape()
        with tape:
            loss = log_sum_exp(tanh(matmul(w, x)))
        backward(loss, tape)
        return float(loss.values), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8)
)
def test_log_sum_exp_shift_stability(values):
    base = float(log_sum_exp(t64(values)).values)
    shifted = float(log_sum_exp(t64([v + 1000.0 for v in values])).values)
    assert shifted == pytest.approx(base + 1000.0, abs=1e-9)


def test_stop_gradient_preserves_bits():
    vals = np.nextafter(np.array([1.0, -1.0, 3.7e-200]), 2.0)
    out = stop_gradient(tensor(vals))
    assert out.values.tobytes() == vals.tobytes()


def test_tape_ids_dense_and_topologically_ordered():
    x = t64([1.0, 2.0])
    w = t64(np.eye(2))
    tape = Tape()
    with tape:
        loss = reduce_sum(tanh(matmul(w, x)))
    ids = [t.node_id for t in tape._tensors]
    assert ids == list(range(len(ids)))
    for node in tape.nodes:
        assert all(i < node.out_id for i in node.input_ids)
    assert loss.node_id == len(ids) - 1


def test_distinct_tapes_on_distinct_threads():
    import threading

    results = {}

    def work(key, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=64))
        for _ in range(50):
            tape = Tape()
            with tape:
                loss = log_sum_exp(tanh(x))
            backward(loss, tape)
            x.grad = None
        tape = Tape()
        with tape:
            loss = log_sum_exp(tanh(x))
        backward(loss, tape)
        results[key] = (float(loss.values), x.grad.copy())

    threads = [threading.Thread(target=work, args=(k, s)) for k, s in (("a", 1), ("b", 2))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for key, seed in (("a", 1), ("b", 2)):
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=64))
        tape = Tape()
        with tape:
            loss = log_sum_exp(tanh(x))
        backward(loss, tape)
        assert results[key][0] == float(loss.values)
        assert np.array_equal(results[key][1], x.grad)


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------

def test_matmul_shape_error_names_op_and_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(2,\)"):
        matmul(t64(np.zeros((2, 3))), t64(np.zeros(2)))


def test_slice_range_error():
    with pytest.raises(ValueError, match="slice"):
        narrow(t64([1.0, 2.0]), 1, 5)


def test_pick_row_range_error():
    with pytest.raises(ValueError, match="pick_row"):
        pick_row(t64(np.zeros((2, 2))), 2)


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


def test_concat_rejects_matrix_inputs():
    with pytest.raises(ValueError, match="concat"):
        concat([t64(np.zeros((2, 2)))])


def test_log_partition_shape_errors():
    for a, b in [((2, 3), (4, 4)), ((0, 2), (4, 4)), ((3,), (3, 3))]:
        with pytest.raises(ValueError, match="log_partition"):
            log_partition(t64(np.zeros(a)), t64(np.zeros(b)))
    for lengths in ([], [2, 3], [4, 0], [5, -1]):
        with pytest.raises(ValueError, match="log_partition: lengths"):
            log_partition(t64(np.zeros((4, 2))), t64(np.zeros((4, 4))), lengths)


def test_log_sum_exp_rejects_bad_axis():
    with pytest.raises(ValueError, match="log_sum_exp"):
        log_sum_exp(t64(np.zeros((2, 2))), axis=1)
