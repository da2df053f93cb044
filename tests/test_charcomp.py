from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import (
    Tape,
    backward,
    concat,
    dense_grad,
    pick_row,
    tensor,
)
from seqtag.charcomp import (
    char_aux_loss,
    combine_attention,
    compose_words,
)
from seqtag.corpus import Sentence, build_vocab
from seqtag.model import ModelConfig, assemble_model, glorot_uniform, lstm_bias

from gradcheck import finite_difference_check, weighted_sum
from oracles import lstm_step


def t64(values):
    return tensor(values, dtype=np.float64)


# compose_words' parameters after the sequences, in its argument order
Composer = namedtuple("Composer", "char_emb fwd bwd w_m")


def lstm_params(rng, input_dim, hidden):
    """(w_x, w_h, b) as a model starts them."""
    return (t64(glorot_uniform(rng, (input_dim, 4 * hidden), np.float64)),
            t64(glorot_uniform(rng, (hidden, 4 * hidden), np.float64)),
            t64(lstm_bias(rng, (4 * hidden,), np.float64)))


def make_composer(rng, word_dim=4, char_dim=3, hidden=3, n_chars=6, zero_proj=False):
    emb = t64(rng.normal(size=(n_chars, char_dim)) * 0.5)
    fwd = lstm_params(rng, char_dim, hidden)
    bwd = lstm_params(rng, char_dim, hidden)
    w_m = t64(np.zeros((word_dim, 2 * hidden)) if zero_proj else rng.normal(size=(word_dim, 2 * hidden)))
    return Composer(emb, fwd, bwd, w_m)


def compose_one(char_ids, p):
    """m for a single character sequence, through the batched composer."""
    return pick_row(compose_words([char_ids], *p), 0)


def rows(vectors):
    return t64(np.stack([v.values for v in vectors]))


def make_attention(rng, dim=3, zero=False):
    def mat():
        return t64(np.zeros((dim, dim)) if zero else rng.normal(size=(dim, dim)))

    return mat(), mat(), mat()


# ---------------------------------------------------------------------------
# composer
# ---------------------------------------------------------------------------

def test_compose_zero_projection_gives_zero():
    rng = np.random.default_rng(0)
    p = make_composer(rng, zero_proj=True)
    m = compose_one([1, 2, 3], p)
    assert np.array_equal(m.values, np.zeros(4))


def test_compose_single_char_matches_reference():
    rng = np.random.default_rng(1)
    p = make_composer(rng)
    m = compose_one([2], p)
    zeros = np.zeros(3)
    x = p.char_emb.values[2]
    hf, _ = lstm_step(x, zeros, zeros, p.fwd)
    hb, _ = lstm_step(x, zeros, zeros, p.bwd)
    h_star = np.concatenate([hf, hb])
    assert np.allclose(m.values, np.tanh(p.w_m.values @ h_star), atol=1e-15)


def test_compose_is_pure():
    rng = np.random.default_rng(2)
    p = make_composer(rng)
    a = compose_one([1, 4, 4, 2], p)
    b = compose_one([1, 4, 4, 2], p)
    assert np.array_equal(a.values, b.values)


def test_compose_bounded_and_rejects_empty():
    rng = np.random.default_rng(3)
    p = make_composer(rng)
    m = compose_one([0, 1], p)
    assert np.all(np.abs(m.values) < 1.0)
    with pytest.raises(ValueError, match="empty"):
        compose_one([], p)
    with pytest.raises(ValueError, match="no character sequences"):
        compose_words([], *p)


def test_batched_composer_matches_one_at_a_time():
    rng = np.random.default_rng(20)
    p = make_composer(rng)
    seqs = [[1, 2, 3], [4], [2, 2], [1, 2, 3], [5, 0, 1, 4, 3], [4], [3, 1]]
    batched = compose_words(seqs, *p).values
    assert batched.shape == (len(seqs), 4)
    for row, cids in zip(batched, seqs):
        assert np.allclose(row, compose_words([cids], *p).values[0], rtol=0.0, atol=1e-12)


def test_batched_composer_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    p = make_composer(rng)
    seqs = [[1, 2], [3], [2, 4], [5, 1, 0]]
    weights = t64(rng.normal(size=(len(seqs), 4)))

    def builder():
        return weighted_sum(compose_words(seqs, *p), weights)

    params = [p.char_emb, *p.fwd, *p.bwd, p.w_m]
    report = finite_difference_check(builder, params, eps=1e-5)
    assert report.max_rel_error < 1e-6, str(report)


def test_repeated_types_add_no_composer_nodes():
    words = [["ab", "cd", "ab"], ["cd", "efg", "ab"], ["efg"]]
    sents = [Sentence(w, w, ["O"] * len(w)) for w in words]
    vocab = build_vocab(sents, min_count=1)
    model = assemble_model(
        ModelConfig(architecture="attention", word_dim=4, char_dim=3, word_lstm_hidden=3,
                    char_lstm_hidden=3, d_size=2, dtype="float64"),
        vocab,
    )
    enc = vocab.encode_corpus(sents)

    def composer_nodes(batch):
        tape = Tape()
        with tape:
            m_all, token_rows = model._compose(batch)
        return len(tape), m_all, token_rows

    once, m_once, _ = composer_nodes(enc[:2])
    again, m_again, token_rows = composer_nodes(enc[:2] + enc)
    assert again == once
    assert np.array_equal(m_again.values, m_once.values)
    # every occurrence of a type reads the one row composed for it
    assert token_rows[0].tolist() == [0, 1, 0]
    assert token_rows[1].tolist() == [1, 2, 0]
    assert token_rows[4].tolist() == [2]


@pytest.mark.parametrize("n_lengths", [1, 3, 8])
def test_composer_is_one_run_per_direction_whatever_the_lengths(n_lengths):
    rng = np.random.default_rng(22)
    p = make_composer(rng)
    seqs = [rng.integers(0, 6, size=1 + i % n_lengths).tolist() for i in range(12)]
    assert len({len(s) for s in seqs}) == n_lengths
    tape = Tape()
    with tape:
        compose_words(seqs, *p)
    assert [n.op for n in tape.nodes].count("lstm_sequence") == 2
    assert len(tape) == 8


# ---------------------------------------------------------------------------
# combiners: the concat model's concat((x, m)), and the attention gate
# ---------------------------------------------------------------------------

def test_concat_combiner_definition():
    out = concat((t64([[1.0, 2.0], [5.0, 6.0]]), t64([[3.0, 4.0], [7.0, 8.0]])))
    assert np.array_equal(out.values, [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])


def test_concat_combiner_zero_char_half():
    x = t64([[1.0, -1.0]])
    out = concat((x, t64(np.zeros((1, 2)))))
    assert np.array_equal(out.values, [[1.0, -1.0, 0.0, 0.0]])


def test_concat_combiner_doubles_standard_width():
    x = t64(np.ones((4, 300)))
    m = t64(np.zeros((4, 300)))
    assert concat((x, m)).shape == (4, 600)


def test_concat_combiner_rejects_mismatch():
    with pytest.raises(ValueError, match="concat"):
        concat((t64([[1.0]]), t64([[1.0], [2.0]])))
    with pytest.raises(ValueError, match="concat"):
        concat((t64([1.0, 2.0]), t64([3.0, 4.0])))


def test_attention_zero_weights_averages():
    rng = np.random.default_rng(4)
    p = make_attention(rng, zero=True)
    x, m = t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(2, 3)))
    combined, z = combine_attention(x, m, *p)
    assert np.allclose(z.values, 0.5, atol=1e-15)
    assert np.allclose(combined.values, (x.values + m.values) / 2, atol=1e-15)


def test_attention_equal_inputs_pass_through():
    rng = np.random.default_rng(5)
    p = make_attention(rng)
    x = t64(rng.normal(size=(2, 3)))
    combined, _ = combine_attention(x, t64(x.values.copy()), *p)
    assert np.allclose(combined.values, x.values, atol=1e-12)


def test_attention_matches_hand_formula():
    rng = np.random.default_rng(6)
    w_z1, w_z2, w_z3 = make_attention(rng)
    x, m = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    combined, z = combine_attention(t64(x), t64(m), w_z1, w_z2, w_z3)
    pre = np.tanh(x @ w_z1.values.T + m @ w_z2.values.T) @ w_z3.values.T
    z_ref = 1.0 / (1.0 + np.exp(-pre))
    assert np.allclose(z.values, z_ref, atol=1e-15)
    assert np.allclose(combined.values, z_ref * x + (1 - z_ref) * m, atol=1e-15)


def test_attention_gate_strictly_inside_unit_interval():
    rng = np.random.default_rng(7)
    p = make_attention(rng)
    for _ in range(25):
        _, z = combine_attention(t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(2, 3))), *p)
        assert np.all(z.values > 0.0) and np.all(z.values < 1.0)


def test_attention_rejects_mismatch():
    rng = np.random.default_rng(8)
    p = make_attention(rng, dim=3)
    for bad in (np.zeros((2, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="linear"):
            combine_attention(t64(bad), t64(bad), *p)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_attention_output_is_convex_combination(x_vals, m_vals):
    rng = np.random.default_rng(9)
    p = make_attention(rng)
    combined, _ = combine_attention(t64([x_vals]), t64([m_vals]), *p)
    lo = np.minimum(x_vals, m_vals) - 1e-12
    hi = np.maximum(x_vals, m_vals) + 1e-12
    assert np.all(combined.values >= lo) and np.all(combined.values <= hi)


# ---------------------------------------------------------------------------
# auxiliary loss
# ---------------------------------------------------------------------------

def test_aux_loss_zero_when_vectors_agree():
    rng = np.random.default_rng(10)
    xs = [t64(rng.normal(size=4)) for _ in range(3)]
    ms = [t64(x.values.copy()) for x in xs]
    loss = char_aux_loss(rows(ms), rows(xs), [False, False, False])
    assert abs(float(loss.values)) < 1e-6  # epsilon-guarded norms keep cos just under 1


def test_aux_loss_zero_when_everything_oov():
    rng = np.random.default_rng(11)
    ms = [t64(rng.normal(size=4)) for _ in range(3)]
    xs = [t64(rng.normal(size=4)) for _ in range(3)]
    assert float(char_aux_loss(rows(ms), rows(xs), [True, True, True]).values) == 0.0


def test_aux_loss_opposed_vector_scores_two():
    rng = np.random.default_rng(12)
    x = t64(rng.normal(size=4))
    m = t64(-x.values)
    filler = t64(rng.normal(size=4))
    loss = char_aux_loss(rows([m, filler]), rows([x, filler]), [False, True])
    assert float(loss.values) == pytest.approx(2.0, abs=1e-6)


def test_aux_loss_blocks_word_embedding_gradient():
    rng = np.random.default_rng(13)
    p = make_composer(rng)
    word_emb = t64(rng.normal(size=(3, 4)))

    char_ids = [[1, 2], [3], [2, 4]]
    oov = [False, True, False]

    tape = Tape()
    with tape:
        ms = compose_words(char_ids, *p)
        xs = pick_row(word_emb, np.array([0, 1, 2]))
        loss = char_aux_loss(ms, xs, oov)
    backward(loss, tape)
    assert word_emb.grad is None or not dense_grad(word_emb.grad).any()
    composer_grads = [dense_grad(t.grad) for t in (p.char_emb, p.fwd[0], p.w_m)]
    assert all(g is not None and g.any() for g in composer_grads)


def test_aux_loss_ignores_oov_perturbation():
    rng = np.random.default_rng(14)
    ms = t64(rng.normal(size=(3, 4)))
    xs = t64(rng.normal(size=(3, 4)))
    mask = [False, True, False]
    before = float(char_aux_loss(ms, xs, mask).values)
    ms.values[1] += 17.3
    after = float(char_aux_loss(ms, xs, mask).values)
    assert before == after


def test_aux_loss_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        char_aux_loss(t64([[1.0]]), t64(np.zeros((0, 1))), [])


def test_aux_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    p = make_composer(rng)
    word_emb = t64(rng.normal(size=(3, 4)))
    char_ids = [[1, 2], [3, 5, 2]]

    def builder():
        ms = compose_words(char_ids, *p)
        xs = pick_row(word_emb, np.array([0, 2]))
        return char_aux_loss(ms, xs, [False, False])

    params = [word_emb, p.char_emb, *p.fwd, *p.bwd, p.w_m]
    report = finite_difference_check(builder, params, eps=1e-5)
    assert report.max_rel_error < 1e-6, str(report)
