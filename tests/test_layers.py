import math
import tracemalloc

import numpy as np
import pytest

from seqtag import autodiff
from seqtag.autodiff import (
    Tape,
    add,
    backward,
    dense_grad,
    linear,
    lstm_sequence,
    pick_row,
    reduce_sum,
    tanh,
    tensor,
)
from seqtag.model import bilstm_run, glorot_uniform, lstm_bias

from gradcheck import finite_difference_check, weighted_sum
from oracles import lstm_sequence_oracle, lstm_step


def t64(values):
    return tensor(values, dtype=np.float64)


def zero_lstm(input_dim, hidden):
    return t64(np.zeros((input_dim, 4 * hidden))), t64(np.zeros((hidden, 4 * hidden))), t64(np.zeros(4 * hidden))


def random_lstm(rng, input_dim, hidden, scale=1.0):
    """(w_x, w_h, b) as a model starts them, the weights times ``scale``."""
    w_x = glorot_uniform(rng, (input_dim, 4 * hidden), np.float64)
    w_h = glorot_uniform(rng, (hidden, 4 * hidden), np.float64)
    return t64(w_x * scale), t64(w_h * scale), t64(lstm_bias(rng, (4 * hidden,), np.float64))


def rows(vectors):
    return t64(np.stack(vectors))


def stepwise_states(xs, p, reverse=False):
    """Hidden state after each position, from the lstm_step oracle."""
    h = c = np.zeros(p[1].shape[0])
    states = [None] * len(xs)
    for t in (range(len(xs) - 1, -1, -1) if reverse else range(len(xs))):
        h, c = lstm_step(xs[t], h, c, p)
        states[t] = h
    return np.stack(states)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_lookup_identity_table():
    table = t64(np.eye(3))
    assert np.array_equal(pick_row(table, [1, 0]).values, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_lookup_shared_row_accumulates_gradient():
    table = t64(np.eye(3))
    tape = Tape()
    with tape:
        a = pick_row(table, [1])
        b = pick_row(table, [1])
        loss = reduce_sum(add(a, b))
    backward(loss, tape)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(dense_grad(table.grad)[1], [2.0, 2.0, 2.0])


def test_lookup_gradient_is_row_indicator():
    table = t64(np.ones((3, 2)))
    tape = Tape()
    with tape:
        loss = reduce_sum(pick_row(table, [0]))
    backward(loss, tape)
    expected = np.zeros((3, 2))
    expected[0] = 1.0
    assert np.array_equal(dense_grad(table.grad), expected)


def test_lookup_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        pick_row(t64(np.eye(3)), [0, 3])


# ---------------------------------------------------------------------------
# lstm cell
# ---------------------------------------------------------------------------

def test_lstm_all_zero_gives_zero_state():
    p = zero_lstm(2, 3)
    h, c = lstm_step(np.zeros(2), np.zeros(3), np.zeros(3), p)
    assert np.array_equal(h, np.zeros(3))
    assert np.array_equal(c, np.zeros(3))


def test_lstm_forget_bias_hand_evaluation():
    # zero input and weights, c_prev = 1, forget bias 1: the cell keeps
    # sigmoid(1) of the old memory and emits 0.5 * tanh of it
    p = zero_lstm(1, 1)
    p[2].values[1] = 1.0
    h, c = lstm_step(np.zeros(1), np.zeros(1), np.ones(1), p)
    sig1 = 1.0 / (1.0 + math.exp(-1.0))
    assert c[0] == pytest.approx(sig1, abs=1e-12)
    assert h[0] == pytest.approx(0.5 * math.tanh(sig1), abs=1e-12)
    assert h[0] == pytest.approx(0.3118, abs=1e-4)


def test_lstm_dimension_mismatch_rejected():
    p = zero_lstm(2, 3)
    with pytest.raises(ValueError, match="lstm_step"):
        lstm_step(np.zeros(5), np.zeros(3), np.zeros(3), p)


def test_lstm_output_bounded():
    rng = np.random.default_rng(8)
    p = random_lstm(rng, 3, 4, scale=5.0)
    for _ in range(20):
        h, _ = lstm_step(rng.normal(size=3) * 10, rng.uniform(-1, 1, size=4), rng.normal(size=4) * 3, p)
        assert np.all(np.abs(h) < 1.0)


# ---------------------------------------------------------------------------
# whole-sequence op
# ---------------------------------------------------------------------------

SEQUENCE_SHAPES = [(1, None), (5, None), (1, 1), (5, 1), (1, 3), (5, 3)]  # (T, batch or None)


def sequence_inputs(rng, length, batch, input_dim=3):
    """(inputs, lengths): one sequence, or ``batch`` of them back to back."""
    x = t64(rng.normal(size=((batch or 1) * length, input_dim)))
    return x, [length] * (batch or 1)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("length,batch", SEQUENCE_SHAPES)
def test_lstm_sequence_matches_stepwise_oracle(length, batch, reverse):
    rng = np.random.default_rng(31 + length + 7 * (batch or 0))
    p = random_lstm(rng, 3, 4)
    x, lengths = sequence_inputs(rng, length, batch)
    out = lstm_sequence(x, *p, reverse=reverse, lengths=lengths)
    assert out.shape == (x.shape[0], 4)
    for seq, states in zip(x.values.reshape(-1, length, 3), out.values.reshape(-1, length, 4)):
        want = stepwise_states(seq, p, reverse=reverse)
        if length == 1 and (batch or 1) == 1:
            assert np.array_equal(states, want)
        else:  # the input projection and h @ w_h of several rows are GEMMs, which round differently
            assert np.allclose(states, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("length,batch", SEQUENCE_SHAPES)
def test_lstm_sequence_gradient_all_inputs(length, batch, reverse):
    rng = np.random.default_rng(47 + length + 7 * (batch or 0))
    p = random_lstm(rng, 3, 4)
    x, lengths = sequence_inputs(rng, length, batch)
    weights = t64(rng.normal(size=(x.shape[0], 4)))

    def builder():
        states = lstm_sequence(x, *p, reverse=reverse, lengths=lengths)
        return weighted_sum(states, weights)

    report = finite_difference_check(builder, [x, *p], eps=1e-5,
                                     names=["x", "w_x", "w_h", "b"])
    assert report.max_rel_error < 1e-6, str(report)


def test_lstm_sequence_shape_errors():
    p = zero_lstm(2, 3)
    for bad in (np.zeros(2), np.zeros((0, 2)), np.zeros((4, 5)), np.zeros((1, 2, 2, 2))):
        with pytest.raises(ValueError, match="lstm_sequence"):
            lstm_sequence(t64(bad), *p, [len(bad)])


def test_lstm_sequence_takes_matrices_and_lengths_that_split_them():
    p = zero_lstm(2, 3)
    with pytest.raises(ValueError, match="lstm_sequence"):
        lstm_sequence(t64(np.zeros((2, 3, 2))), *p, [2])
    for lengths in ([], [2, 3], [4, 0], [5, -1]):
        with pytest.raises(ValueError, match="lstm_sequence: lengths"):
            lstm_sequence(t64(np.zeros((4, 2))), *p, lengths=lengths)
    with pytest.raises(TypeError, match="integer"):
        lstm_sequence(t64(np.zeros((4, 2))), *p, lengths=[2.0, 2.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("lengths", [None, [6], [1, 1, 1], [4, 4, 4], [5, 1, 3, 7, 2], [1, 9, 1, 2]])
def test_lstm_sequence_matches_whole_array_oracle_bit_for_bit(lengths, reverse, dtype):
    """The stepwise backward computes each entry by the same expression as
    the whole-array form, so states and all four gradients are equal."""
    rng = np.random.default_rng(71 + (len(lengths) if lengths else 0) + 13 * reverse)
    n = sum(lengths) if lengths else 5
    lengths = lengths or [n]  # None: one sequence of 5
    x = rng.normal(size=(n, 3)).astype(dtype)
    p = [w.values.astype(dtype) for w in random_lstm(rng, 3, 4, scale=2.0)]
    g = rng.normal(size=(n, 4)).astype(dtype)
    leaves = [tensor(v) for v in (x, *p)]
    tape = Tape()
    with tape:
        out = lstm_sequence(*leaves, reverse=reverse, lengths=lengths)
        loss = weighted_sum(out, tensor(g))  # sends exactly g back to the node
    backward(loss, tape)
    states, want = lstm_sequence_oracle(x, *p, g, lengths, reverse=reverse)
    assert out.dtype == dtype and np.array_equal(out.values, states)
    for leaf, w in zip(leaves, want):
        assert leaf.grad.dtype == dtype and np.array_equal(leaf.grad, w)


def _lstm_backward_peak_and_bound():
    """One ragged LSTM backward's ``tracemalloc`` peak, the bound of the
    test below and the size of one (N, 4H) array, in bytes."""
    rng = np.random.default_rng(67)
    lengths = [300, 40, 260, 90, 1, 180, 60, 230, 120, 20]  # ragged, N·H far above every other term
    n, d, hid, k0 = sum(lengths), 2, 32, len(lengths)
    x = t64(rng.normal(size=(n, d)))
    tape = Tape()
    with tape:
        lstm_sequence(x, *random_lstm(rng, d, hid), lengths=lengths)
    (node,) = tape.nodes
    g = rng.normal(size=(n, hid))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        autodiff._BACKWARD["lstm_sequence"](node, g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    item = g.itemsize
    returned = sum(t.grad.nbytes for t in node.inputs)
    assert returned == item * (n * d + d * 4 * hid + hid * 4 * hid + 4 * hid)
    kept = item * (n * 4 * hid + n * hid)  # the gate gradients and the entering hidden states
    # the gathered inputs and the x-gradient product, a weight-gradient product
    # before it is added, and a few (k, H) blocks of one step
    transient = item * (2 * n * d + (d + hid + 1) * 4 * hid + 16 * k0 * hid)
    assert transient < item * n * hid / 2
    return peak, kept + returned + transient, item * n * 4 * hid


def test_lstm_backward_allocates_no_other_n_by_h_array():
    """Beside the gate gradients (N, 4H), the hidden states entering each
    step (N, H) and the gradients it returns, the backward allocates only
    (N, D) products and (k, H) blocks per step: less than one more (N, H)."""
    peak, bound, _ = _lstm_backward_peak_and_bound()
    assert peak <= bound


def test_lstm_backward_allocates_no_n_by_4h_array():
    """The gate gradients are written over the node's saved gates, so the
    backward stays a whole (N, 4H) array below the bound above."""
    peak, bound, gate_bytes = _lstm_backward_peak_and_bound()
    assert peak <= bound - gate_bytes


@pytest.mark.parametrize("reverse", [False, True])
def test_ragged_lstm_sequence_matches_one_run_per_sequence(reverse):
    rng = np.random.default_rng(53 + reverse)
    for trial in range(20):
        p = random_lstm(rng, 3, 4)
        lengths = [int(n) for n in rng.integers(1, 9, size=int(rng.integers(2, 8)))]
        lengths[trial % len(lengths)] = 1
        x = t64(rng.normal(size=(sum(lengths), 3)))
        weights = rng.normal(size=(sum(lengths), 4))
        params = [x, *p]

        def run(inputs, lens, rows):
            tape = Tape()
            with tape:
                out = lstm_sequence(inputs, *p, reverse=reverse, lengths=lens)
                loss = weighted_sum(out, t64(weights[rows]))
            leaves = (inputs, *params[1:])
            for t in leaves:
                t.grad = None
            backward(loss, tape)
            return out.values, [t.grad for t in leaves]

        states, grads = run(x, lengths, slice(None))
        want_weights = [np.zeros_like(t.values) for t in params[1:]]
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            alone, alone_grads = run(t64(x.values[rows]), [n], rows)
            assert np.allclose(states[rows], alone, rtol=0.0, atol=1e-12)
            assert np.allclose(grads[0][rows], alone_grads[0], rtol=0.0, atol=1e-12)
            for acc, g in zip(want_weights, alone_grads[1:]):
                acc += g
            start += n
        for got, want in zip(grads[1:], want_weights):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# bidirectional runs
# ---------------------------------------------------------------------------

def test_bilstm_length_one():
    rng = np.random.default_rng(4)
    fwd = random_lstm(rng, 2, 3)
    bwd = random_lstm(rng, 2, 3)
    x = rng.normal(size=2)
    out = bilstm_run(rows([x]), fwd, bwd, [1])
    zeros = np.zeros(3)
    hf, _ = lstm_step(x, zeros, zeros, fwd)
    hb, _ = lstm_step(x, zeros, zeros, bwd)
    assert np.array_equal(out.values[0], np.concatenate([hf, hb]))
    assert np.array_equal(out.values[-1, :3], hf)
    assert np.array_equal(out.values[0, 3:], hb)


def test_bilstm_reversal_symmetry():
    rng = np.random.default_rng(9)
    fwd = random_lstm(rng, 2, 3)
    bwd = random_lstm(rng, 2, 3)
    xs = [rng.normal(size=2) for _ in range(4)]
    out = bilstm_run(rows(xs), fwd, bwd, [4])
    rev = bilstm_run(rows(xs[::-1]), bwd, fwd, [4])
    n, h = len(xs), 3
    for t in range(n):
        # forward half of the reversed run equals the backward half of the
        # original at the mirrored position, bit for bit
        assert np.array_equal(rev.values[t, :h], out.values[n - 1 - t, h:])
    assert np.array_equal(rev.values[-1, :h], out.values[0, h:])


def test_bilstm_matches_reference_loop():
    rng = np.random.default_rng(14)
    fwd = random_lstm(rng, 2, 3)
    bwd = random_lstm(rng, 2, 3)
    xs = [rng.normal(size=2) for _ in range(3)]
    out = bilstm_run(rows(xs), fwd, bwd, [3])

    h = c = np.zeros(3)
    fwd_states = []
    for x in xs:
        h, c = lstm_step(x, h, c, fwd)
        fwd_states.append(h)
    h = c = np.zeros(3)
    bwd_states = [None] * 3
    for t in (2, 1, 0):
        h, c = lstm_step(xs[t], h, c, bwd)
        bwd_states[t] = h
    for t in range(3):  # the input projection is a GEMM, which rounds differently from the cell's
        assert np.allclose(
            out.values[t], np.concatenate([fwd_states[t], bwd_states[t]]), rtol=0.0, atol=1e-12
        )


def test_bilstm_empty_rejected():
    rng = np.random.default_rng(0)
    p = random_lstm(rng, 2, 3)
    with pytest.raises(ValueError, match=r"lstm_sequence: incompatible shapes \(0, 2\)"):
        bilstm_run(t64(np.zeros((0, 2))), p, p, [0])


def test_bilstm_per_step_length_1_through_50():
    rng = np.random.default_rng(2)
    fwd = random_lstm(rng, 2, 2)
    bwd = random_lstm(rng, 2, 2)
    for length in range(1, 51):
        xs = [rng.normal(size=2) for _ in range(length)]
        out = bilstm_run(rows(xs), fwd, bwd, [length])
        assert len(out.values) == length
        assert all(s.shape == (4,) for s in out.values)


# ---------------------------------------------------------------------------
# dense tanh layer: tanh(linear(h, w_d)), as the model builds it
# ---------------------------------------------------------------------------

def test_dense_tanh_zero_weights():
    assert np.array_equal(tanh(linear(t64([[1.0, 2.0]]), t64(np.zeros((3, 2))))).values, np.zeros((1, 3)))


def test_dense_tanh_range():
    rng = np.random.default_rng(6)
    out = tanh(linear(t64(rng.normal(size=(1, 4))), t64(rng.normal(size=(3, 4)) * 3)))
    assert np.all(np.abs(out.values) < 1.0)


def test_dense_tanh_matches_numpy():
    rng = np.random.default_rng(17)
    h = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    out = tanh(linear(t64(h), t64(w)))
    assert np.allclose(out.values, np.tanh(h @ w.T), atol=1e-15)


def test_dense_tanh_shape_error():
    for h in ([[1.0, 2.0]], [1.0, 2.0, 3.0, 4.0, 5.0]):
        with pytest.raises(ValueError, match="linear"):
            tanh(linear(t64(h), t64(np.zeros((3, 5)))))


def test_full_stack_gradient_check():
    rng = np.random.default_rng(23)
    table = t64(rng.normal(size=(4, 3)) * 0.5)
    fwd = random_lstm(rng, 3, 2)
    bwd = random_lstm(rng, 3, 2)
    w_d = t64(rng.normal(size=(2, 4)))
    ids = [0, 2, 3, 2]

    def builder():
        out = bilstm_run(pick_row(table, np.array(ids)), fwd, bwd, [len(ids)])
        return reduce_sum(tanh(linear(out, w_d)))

    params = [table, *fwd, *bwd, w_d]
    report = finite_difference_check(builder, params, eps=1e-5)
    assert report.max_rel_error < 1e-4, str(report)


def test_init_determinism():
    def draw():
        rng = np.random.default_rng(42)
        return [init(rng, shape, np.float32)
                for init, shape in ((glorot_uniform, (3, 16)), (glorot_uniform, (4, 16)), (lstm_bias, (16,)))]

    a, b = draw(), draw()
    for x, y in zip(a, b):
        assert x.dtype == np.float32 and np.array_equal(x, y)
    assert np.array_equal(a[2], np.repeat([0.0, 1.0, 0.0, 0.0], 4))  # forget slice starts at 1


def test_glorot_limits():
    w = glorot_uniform(np.random.default_rng(1), (30, 20), np.float64)
    limit = math.sqrt(6.0 / 50)
    assert np.all(np.abs(w) <= limit)
