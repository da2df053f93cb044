import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.autodiff import Tape, Tensor, backward, crf_nll, linear, no_tape, tanh, tensor
from seqtag.corpus import LabelSet, Sentence, build_vocab
from seqtag.crf import (
    TagLattice,
    crf_sequence_score,
    viterbi_decode,
)
from seqtag.model import ModelConfig, assemble_model, bilstm_run, emission_scores
from seqtag.training import AdaDelta

from gradcheck import finite_difference_check
from oracles import brute_force_oracle, crf_log_space, crossentropy_loss, softmax_predict


def t64(values):
    return tensor(values, dtype=np.float64)


def random_lattice(rng, t_len, k, integer=False):
    if integer:
        em = rng.integers(0, 3, size=(t_len, k)).astype(np.float64)
        tr = rng.integers(0, 3, size=(k + 2, k + 2)).astype(np.float64)
    else:
        em = rng.normal(size=(t_len, k))
        tr = rng.normal(size=(k + 2, k + 2))
    return TagLattice(em, tr)


# ---------------------------------------------------------------------------
# label set and lattice shapes
# ---------------------------------------------------------------------------

def test_label_set_roundtrip_and_errors():
    ls = LabelSet(["O", "B-PER", "I-PER"])
    assert len(ls) == 3
    assert ls.id("B-PER") == 1
    assert ls.label(2) == "I-PER"
    assert "O" in ls and "B-LOC" not in ls
    with pytest.raises(ValueError, match="unknown label"):
        ls.id("B-LOC")
    with pytest.raises(ValueError, match="duplicate"):
        LabelSet(["O", "O"])


@pytest.mark.parametrize("emissions", [np.zeros(3), np.zeros((0, 3))], ids=["1-d", "no-rows"])
def test_lattice_needs_a_matrix_of_at_least_one_row(emissions):
    with pytest.raises(ValueError, match=r"^TagLattice: emissions must be \(T, K\), got "):
        TagLattice(emissions, np.zeros((5, 5)))


def test_lattice_shape_validation():
    with pytest.raises(ValueError, match="transitions"):
        TagLattice(np.zeros((2, 3)), np.zeros((4, 4)))
    lat = TagLattice(np.zeros((2, 3)), np.zeros((5, 5)))
    assert (lat.seq_len, lat.num_labels) == (2, 3)
    assert (lat.start_index, lat.end_index) == (3, 4)


# ---------------------------------------------------------------------------
# softmax output
# ---------------------------------------------------------------------------

def test_softmax_uniform_on_zero_logits():
    probs = softmax_predict(np.zeros(4), np.zeros((3, 4)))
    assert np.allclose(probs, 1.0 / 3, atol=1e-12)


def test_softmax_closed_form():
    # logits [ln 2, 0] through an identity weight
    probs = softmax_predict(np.array([math.log(2.0), 0.0]), np.eye(2))
    assert np.allclose(probs, [2.0 / 3, 1.0 / 3], atol=1e-12)


def test_softmax_shift_invariance():
    # adding a constant to every logit leaves the distribution alone
    rng = np.random.default_rng(0)
    logits = rng.normal(size=4)
    base = softmax_predict(logits, np.eye(4))
    shifted = softmax_predict(logits + 123.456, np.eye(4))
    assert np.allclose(base, shifted, atol=1e-9)
    assert base.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(base > 0)


def test_softmax_rejects_bad_shapes():
    with pytest.raises(ValueError, match="softmax_predict"):
        softmax_predict(np.zeros(3), np.zeros((2, 4)))


def test_crossentropy_perfect_prediction():
    probs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert crossentropy_loss(probs, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_crossentropy_uniform_closed_form():
    probs = [np.full(4, 0.25)] * 2
    assert crossentropy_loss(probs, [1, 3]) == pytest.approx(2 * math.log(4.0), abs=1e-12)


def test_crossentropy_floors_zero_probability():
    val = crossentropy_loss([np.array([0.0, 1.0])], [0])
    assert val == pytest.approx(-math.log(1e-12), abs=1e-9)


def test_crossentropy_alignment_errors():
    with pytest.raises(ValueError, match="crossentropy_loss"):
        crossentropy_loss([np.array([1.0])], [0, 1])
    with pytest.raises(ValueError, match="gold id"):
        crossentropy_loss([np.array([0.5, 0.5])], [2])


def test_softmax_gradient_is_probs_minus_onehot():
    """A softmax model's batch loss is the per-token cross-entropy of its
    hidden states, and the gradient of its emission scores is probs - onehot.

    The backward pass keeps only leaves' gradients, so the identity is read
    on a leaf copy of the scores through the softmax's one-token lattice,
    and through the model in the output weights' gradient, its chain-rule
    image ``(probs - onehot).T @ d``."""
    words = [["aa", "bb", "cc", "aa"], ["dd"], ["bb", "aa", "zz"], ["cc", "dd", "aa", "bb", "cc"]]
    labels = [["O", "B-X", "I-X", "O"], ["B-X"], ["O", "O", "B-X"], ["O", "B-X", "I-X", "O", "O"]]
    sents = [Sentence(w, w, lab) for w, lab in zip(words, labels)]
    vocab = build_vocab(sents, min_count=2)
    sents = vocab.encode_corpus(sents)
    config = ModelConfig(architecture="word", output="softmax", word_dim=6, word_lstm_hidden=5, d_size=4,
                         dtype="float64", seed=5)
    model = assemble_model(config, vocab)
    w_o = model.params["output.w_o"]
    gold = np.concatenate([sent.gold for sent in sents])
    k = len(vocab.label_set)
    with no_tape():
        x = model.params["word_embeddings"].values[np.concatenate([sent.word_ids for sent in sents])]
        states = bilstm_run(t64(x), model._lstm("word_lstm.fwd"), model._lstm("word_lstm.bwd"),
                            [len(sent.word_ids) for sent in sents])
        d = tanh(linear(states, model.params["hidden.w_d"])).values
        scores = t64(emission_scores(t64(d), w_o).values)
    probs = [softmax_predict(row, w_o) for row in d]
    want = np.stack(probs) - np.eye(k)[gold]

    tape = Tape()
    with tape:
        loss, _ = model.batch_loss_parts(sents)
    backward(loss, tape)
    assert float(loss.values) == pytest.approx(crossentropy_loss(probs, gold), rel=1e-12)
    assert np.allclose(w_o.grad, want.T @ d, rtol=0.0, atol=1e-12)

    tape = Tape()
    with tape:
        zero = Tensor(np.zeros((k + 2, k + 2)), constant=True)
        nll = crf_nll(scores, zero, gold, [1] * len(gold))
    backward(nll, tape)
    assert float(nll.values) == float(loss.values)
    assert np.allclose(scores.grad, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# emissions
# ---------------------------------------------------------------------------

def test_emission_scores_zero_weights():
    out = emission_scores(t64(np.ones((2, 3))), t64(np.zeros((2, 3))))
    assert np.array_equal(out.values, np.zeros((2, 2)))


def test_emission_scores_basis_vectors():
    w_o = np.arange(6.0).reshape(2, 3)
    d = np.zeros(3)
    d[1] = 1.0
    out = emission_scores(t64(d[None, :]), t64(w_o))
    assert np.array_equal(out.values, w_o[:, 1][None, :])


def test_emission_scores_matches_numpy():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 2))
    ds = [rng.normal(size=2) for _ in range(3)]
    out = emission_scores(t64(np.stack(ds)), t64(w))
    assert np.allclose(out.values, np.stack([w @ d for d in ds]), atol=1e-15)


# ---------------------------------------------------------------------------
# sequence scoring
# ---------------------------------------------------------------------------

def test_sequence_score_zero_lattice():
    lat = TagLattice(np.zeros((3, 2)), np.zeros((4, 4)))
    for y in ([0, 0, 0], [1, 0, 1]):
        assert crf_sequence_score(lat, y) == 0.0


def test_sequence_score_single_token():
    rng = np.random.default_rng(3)
    lat = random_lattice(rng, 1, 3)
    a, b = lat.emissions.values, lat.transitions.values
    for y in range(3):
        expected = b[3, y] + a[0, y] + b[y, 4]
        assert crf_sequence_score(lat, [y]) == pytest.approx(expected, abs=1e-12)


def test_sequence_score_hand_summed():
    rng = np.random.default_rng(4)
    lat = random_lattice(rng, 2, 2, integer=True)
    a, b = lat.emissions.values, lat.transitions.values
    y = [1, 0]
    expected = b[2, 1] + a[0, 1] + b[1, 0] + a[1, 0] + b[0, 3]
    assert crf_sequence_score(lat, y) == expected


def test_sequence_score_validates_input():
    lat = TagLattice(np.zeros((2, 2)), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="length"):
        crf_sequence_score(lat, [0])
    with pytest.raises(ValueError, match="label id"):
        crf_sequence_score(lat, [0, 2])


def test_nll_rejects_bad_gold_labels_in_a_short_message():
    """The node checks the ids once; its message names the first bad value,
    never the whole label array, however long the batch."""
    n, k = 5000, 3
    lat = TagLattice(np.zeros((n, k)), np.zeros((k + 2, k + 2)))
    good = np.zeros(n, dtype=np.int64)
    wrong_length, too_high, negative = good[1:], good.copy(), good.copy()
    too_high[7] = k
    negative[9] = -2
    for y, detail in ((wrong_length, "shape"), (too_high, f"first bad value {k}"),
                      (negative, "first bad value -2"), (good.astype(np.float64), "dtype")):
        with pytest.raises(ValueError, match=f"crf_nll: gold labels: expected {n} .*{detail}") as err:
            crf_nll(lat.emissions, lat.transitions, y, [n])
        assert len(str(err.value)) < 120


# ---------------------------------------------------------------------------
# negative log-likelihood
# ---------------------------------------------------------------------------

def test_nll_uniform_zero_lattice():
    lat = TagLattice(np.zeros((3, 2)), np.zeros((4, 4)))
    val = float(crf_nll(lat.emissions, lat.transitions, [0, 1, 0], [3]).values)
    assert val == pytest.approx(math.log(8.0), abs=1e-12)


def test_nll_single_token_reduces_to_crossentropy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        em = rng.normal(size=(1, k))
        lat = TagLattice(em, np.zeros((k + 2, k + 2)))
        y = int(rng.integers(0, k))
        probs = softmax_predict(em[0], np.eye(k))
        assert float(crf_nll(lat.emissions, lat.transitions, [y], [1]).values) == pytest.approx(
            crossentropy_loss([probs], [y]), abs=1e-9
        )


def test_nll_partition_matches_brute_force():
    rng = np.random.default_rng(6)
    lat = random_lattice(rng, 4, 3)
    log_z, _ = brute_force_oracle(lat)
    y = [2, 0, 1, 1]
    nll = float(crf_nll(lat.emissions, lat.transitions, y, [4]).values)
    assert nll == pytest.approx(log_z - crf_sequence_score(lat, y), abs=1e-8)


def test_nll_nonnegative_and_row_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lat = random_lattice(rng, int(rng.integers(1, 5)), int(rng.integers(2, 4)))
        y = [int(rng.integers(0, lat.num_labels)) for _ in range(lat.seq_len)]
        base = float(crf_nll(lat.emissions, lat.transitions, y, [lat.seq_len]).values)
        assert base >= -1e-12
        shifted_em = lat.emissions.values.copy()
        shifted_em[0] += 3.7
        shifted = TagLattice(shifted_em, lat.transitions.values)
        assert float(crf_nll(shifted.emissions, shifted.transitions, y, [lat.seq_len]).values) == pytest.approx(
            base, abs=1e-9
        )
        assert viterbi_decode(shifted)[0] == viterbi_decode(lat)[0]


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    em = t64(rng.normal(size=(3, 3)))
    tr = t64(rng.normal(size=(5, 5)))
    y = [0, 2, 1]

    def builder():
        return crf_nll(em, tr, y, [3])

    report = finite_difference_check(builder, [em, tr], eps=1e-5)
    assert report.max_rel_error < 1e-4, str(report)


def test_nll_adds_a_fixed_number_of_tape_nodes():
    rng = np.random.default_rng(13)
    counts = set()
    for t_len, k in [(1, 1), (1, 4), (5, 1), (7, 3), (20, 9), (30, 45)]:
        lat = random_lattice(rng, t_len, k)
        tape = Tape()
        with tape:
            crf_nll(lat.emissions, lat.transitions, rng.integers(0, k, size=t_len), [t_len])
        counts.add(len(tape))
    assert len(counts) == 1, counts


def _value_and_grads(lat, y, lengths):
    tape = Tape()
    with tape:
        loss = crf_nll(lat.emissions, lat.transitions, y, lengths)
    backward(loss, tape)
    return float(loss.values), lat.emissions.grad, lat.transitions.grad


def test_batched_nll_is_the_sum_of_sentence_nlls():
    rng = np.random.default_rng(14)
    for trial in range(20):
        k = int(rng.integers(1, 6))
        lengths = [int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 7)))]
        em = rng.normal(size=(sum(lengths), k))
        tr = rng.normal(size=(k + 2, k + 2))
        y = rng.integers(0, k, size=sum(lengths))
        total, d_em, d_tr = _value_and_grads(TagLattice(em, tr), y, lengths)
        want, want_em, want_tr = 0.0, np.zeros_like(em), np.zeros_like(tr)
        for end, n in zip(np.cumsum(lengths), lengths):
            lat = TagLattice(em[end - n:end], tr)
            value, g_em, g_tr = _value_and_grads(lat, y[end - n:end], [n])
            want += value
            want_em[end - n:end] = g_em
            want_tr += g_tr
        assert total == pytest.approx(want, rel=0.0, abs=1e-12)
        assert np.allclose(d_em, want_em, rtol=0.0, atol=1e-12)
        assert np.allclose(d_tr, want_tr, rtol=0.0, atol=1e-12)


def test_batched_nll_adds_a_fixed_number_of_tape_nodes():
    rng = np.random.default_rng(15)
    counts = set()
    for lengths in ([1], [3, 1], [7, 7, 7], [20, 2, 9, 1, 14]):
        lat = random_lattice(rng, sum(lengths), 4)
        tape = Tape()
        with tape:
            crf_nll(lat.emissions, lat.transitions, rng.integers(0, 4, size=sum(lengths)), lengths)
        counts.add(len(tape))
    assert len(counts) == 1, counts


def _log_space_nll(em, tr, y, lengths):
    """Summed NLL and its gradients, one oracle call per sentence: log Z, the
    marginals and the pair marginals in log space, less the gold path's
    score and its counts, all in float64. Also returns the summed log Z, and
    the sentences' summed magnitudes of log Z and of the gold score, the
    scale the NLL's rounding error grows with."""
    em, tr = np.asarray(em, dtype=np.float64), np.asarray(tr, dtype=np.float64)
    nll, log_z, scale, d_em, d_tr = 0.0, 0.0, 0.0, np.zeros(em.shape), np.zeros(tr.shape)
    k = em.shape[1]
    for end, n in zip(np.cumsum(lengths), lengths):
        gold = [int(v) for v in y[end - n:end]]
        value, unary, pairs = crf_log_space(em[end - n:end], tr)
        score = crf_sequence_score(TagLattice(em[end - n:end], tr), gold)
        nll += value - score
        log_z += value
        scale += abs(value) + abs(score)
        d_em[end - n:end] = unary
        d_em[np.arange(end - n, end), gold] -= 1.0
        d_tr += pairs
        for before, after in zip([k] + gold, gold + [k + 1]):
            d_tr[before, after] -= 1.0
    return nll, log_z, scale, d_em, d_tr


def _nll_and_grads(em, tr, y, lengths):
    a, b = tensor(em), tensor(tr)
    tape = Tape()
    with tape:
        nll = crf_nll(a, b, y, lengths)
    backward(nll, tape)
    return float(nll.values), a.grad, b.grad


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_crf_nll_node_matches_the_log_space_oracle(data, k, lengths):
    """The node is the sentences' summed log Z less their gold scores, and its
    gradients the marginals less the gold counts, for any float64 scores in ±50."""
    n = sum(lengths)
    scores = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    em = np.array(data.draw(st.lists(scores, min_size=n * k, max_size=n * k), label="em")).reshape(n, k)
    tr = np.array(data.draw(st.lists(scores, min_size=(k + 2) ** 2, max_size=(k + 2) ** 2), label="tr"))
    tr = tr.reshape(k + 2, k + 2)
    y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="y"))
    nll, d_em, d_tr = _nll_and_grads(em, tr, y, lengths)
    want, _, scale, want_em, want_tr = _log_space_nll(em, tr, y, lengths)
    # the +1 floors the bound at the rounding of log Z's log(sum of scaled terms near 1)
    assert abs(nll - want) <= 1e-12 * (scale + 1.0)
    assert np.allclose(d_em, want_em, rtol=0.0, atol=1e-12)
    assert np.allclose(d_tr, want_tr, rtol=0.0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       log_spread=st.floats(math.log(50.0), math.log(1e4)))
def test_crf_nll_node_matches_the_log_space_oracle_at_any_spread(data, k, lengths, log_spread):
    """As above, for float64 scores in ±s with s log-uniform in [50, 1e4]: both the
    scaled and the log-space regime of the node are drawn. The NLL and every
    gradient entry must lie within 1e-12 * (scale + 1) of the oracle's, where
    scale is the sentences' summed |log Z| + |gold score|: an exponent off by
    one rounding of a term that large moves a marginal by about that much."""
    n, s = sum(lengths), math.exp(log_spread)
    scores = st.floats(-s, s, allow_nan=False, allow_infinity=False)
    em = np.array(data.draw(st.lists(scores, min_size=n * k, max_size=n * k), label="em")).reshape(n, k)
    tr = np.array(data.draw(st.lists(scores, min_size=(k + 2) ** 2, max_size=(k + 2) ** 2), label="tr"))
    tr = tr.reshape(k + 2, k + 2)
    y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="y"))
    nll, d_em, d_tr = _nll_and_grads(em, tr, y, lengths)
    want, _, scale, want_em, want_tr = _log_space_nll(em, tr, y, lengths)
    tol = 1e-12 * (scale + 1.0)
    assert abs(nll - want) <= tol
    assert np.isfinite(d_em).all() and np.isfinite(d_tr).all()
    assert np.allclose(d_em, want_em, rtol=0.0, atol=tol)
    assert np.allclose(d_tr, want_tr, rtol=0.0, atol=tol)


def test_crf_nll_matches_brute_force_enumeration_at_any_spread():
    """Against the max-shifted enumeration of every path, which shares no
    recursion with either regime of the node."""
    rng = np.random.default_rng(17)
    for spread in (1.0, 50.0, 350.0, 1e3, 1e4):
        for _ in range(40):
            k, t_len = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            lat = TagLattice(rng.uniform(-spread, spread, size=(t_len, k)),
                             rng.uniform(-spread, spread, size=(k + 2, k + 2)))
            y = rng.integers(0, k, size=t_len)
            log_z, _ = brute_force_oracle(lat)
            score = crf_sequence_score(lat, y)
            nll = float(crf_nll(lat.emissions, lat.transitions, y, [t_len]).values)
            assert abs(nll - (log_z - score)) <= 1e-12 * (abs(log_z) + abs(score) + 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_crf_nll_of_a_nan_or_inf_score_is_non_finite_and_the_step_is_rejected(bad, dtype):
    rng = np.random.default_rng(18)
    em = rng.normal(size=(5, 3)).astype(dtype)
    em[1, 0] = bad
    a, b = Tensor(em), Tensor(rng.normal(size=(5, 5)).astype(dtype))
    tape = Tape()
    with tape, np.errstate(invalid="ignore"):  # inf - inf in the log-sum-exps
        nll = crf_nll(a, b, np.array([0, 1, 2, 0, 1]), [3, 2])
        backward(nll, tape)
    assert not np.isfinite(nll.values)
    assert not (np.isfinite(a.grad).all() and np.isfinite(b.grad).all())
    assert not AdaDelta({"a": a, "b": b}).step()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_crf_nll_of_a_minus_inf_score_is_finite_and_gives_its_label_no_mass(dtype):
    rng = np.random.default_rng(19)
    em = rng.normal(size=(5, 3)).astype(dtype)
    em[1, 0] = -np.inf
    tr = rng.normal(size=(5, 5)).astype(dtype)
    y = np.array([0, 1, 2, 0, 1])
    nll, d_em, d_tr = _nll_and_grads(em, tr, y, [3, 2])
    assert np.isfinite(nll) and np.isfinite(d_em).all() and np.isfinite(d_tr).all()
    assert d_em[1, 0] == 0.0  # not gold there, and its marginal is exactly 0
    finite = em.copy()
    finite[1, 0] = -1e3  # exp(-1e3) is 0 in float64: the same lattice
    want, _, _, want_em, _ = _log_space_nll(finite, tr, y, [3, 2])
    assert nll == pytest.approx(want, rel=1e-6)
    assert np.allclose(d_em, want_em, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("spread", [1.0, 2000.0], ids=["scaled", "log-space"])
def test_crf_nll_forward_holds_three_n_by_k_arrays(spread):
    """Forward-backward in the forward holds the float64 emissions, alpha and
    beta; ``exp(emissions)`` and the marginals take the memory of the first and
    of alpha. With the float32 gather and the O(N) index arrays that stays under
    4.5 float64 (N, K) arrays; a new array for either would add one each."""
    rng = np.random.default_rng(23)
    lengths = [400, 300, 350, 200]
    n, k = sum(lengths), 20
    a = Tensor((rng.normal(size=(n, k)) * spread).astype(np.float32))
    b = Tensor(rng.normal(size=(k + 2, k + 2)).astype(np.float32))
    y = rng.integers(0, k, size=n)
    tape = Tape()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with tape:
            crf_nll(a, b, y, lengths)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * n * k * 8


def test_crf_nll_float32_scores_spread_across_100_stay_exact():
    rng = np.random.default_rng(16)
    for trial in range(40):
        k = int(rng.integers(1, 10))
        lengths = [int(n) for n in rng.integers(1, 12, size=int(rng.integers(1, 6)))]
        em = rng.uniform(-100.0, 100.0, size=(sum(lengths), k)).astype(np.float32)
        tr = rng.uniform(-100.0, 100.0, size=(k + 2, k + 2)).astype(np.float32)
        y = rng.integers(0, k, size=sum(lengths))
        nll, d_em, d_tr = _nll_and_grads(em, tr, y, lengths)
        want, log_z, _, want_em, want_tr = _log_space_nll(em, tr, y, lengths)
        assert np.isfinite(nll) and np.isfinite(d_em).all() and np.isfinite(d_tr).all()
        assert d_em.dtype == d_tr.dtype == np.float32
        assert abs(nll - want) <= 1e-6 * abs(log_z)
        assert np.allclose(d_em, want_em, rtol=0.0, atol=1e-5)
        assert np.allclose(d_tr, want_tr, rtol=0.0, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_crf_nll_is_exact_where_a_scaled_step_would_underflow(dtype):
    # the second sentence starts in label 0 (label 1 is exp(-700) as likely), and
    # every way on from label 0 scores 800 below the best transition, every way on
    # from label 1 another 50: the scaled sum of its second step would be
    # exp(-750), zero in float64
    tr = np.zeros((4, 4))
    tr[:2, :2] = [[-800.0, -800.0], [-50.0, 0.0]]
    tr[2, :2] = [0.0, -700.0]
    em = np.array([[0.3, -1.0], [2.0, 0.5], [1.5, 0.0], [0.0, 0.0], [0.0, -50.0]])
    lengths = [3, 2]
    y = np.array([0, 1, 1, 0, 1])
    nll, d_em, d_tr = _nll_and_grads(em.astype(dtype), tr.astype(dtype), y, lengths)
    want, log_z, _, want_em, want_tr = _log_space_nll(em, tr, y, lengths)
    tol = 1e-12 if dtype == np.float64 else 1e-6
    assert abs(nll - want) <= tol * abs(log_z)
    assert np.allclose(d_em, want_em, rtol=0.0, atol=tol)
    assert np.allclose(d_tr, want_tr, rtol=0.0, atol=tol)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_viterbi_zero_transitions_is_per_token_argmax():
    rng = np.random.default_rng(9)
    em = rng.normal(size=(5, 4))
    lat = TagLattice(em, np.zeros((6, 6)))
    path, _ = viterbi_decode(lat)
    assert path == [int(i) for i in em.argmax(axis=1)]


def test_viterbi_small_example():
    lat = TagLattice(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((4, 4)))
    path, score = viterbi_decode(lat)
    assert path == [0, 1]
    assert score == 2.0


def test_viterbi_matches_brute_force_on_random_lattices():
    rng = np.random.default_rng(10)
    for _ in range(100):
        lat = random_lattice(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        path, score = viterbi_decode(lat)
        _, oracle_path = brute_force_oracle(lat)
        assert path == oracle_path
        assert score == crf_sequence_score(lat, path)


def test_viterbi_tie_breaking_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lat = random_lattice(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)), integer=True)
        path, score = viterbi_decode(lat)
        _, oracle_path = brute_force_oracle(lat)
        assert path == oracle_path
        assert score == crf_sequence_score(lat, path)


def test_brute_force_degenerate_cases():
    rng = np.random.default_rng(12)
    lat = random_lattice(rng, 3, 1)
    log_z, path = brute_force_oracle(lat)
    assert path == [0, 0, 0]
    assert log_z == pytest.approx(crf_sequence_score(lat, path), abs=1e-12)

    zero = TagLattice(np.zeros((4, 3)), np.zeros((5, 5)))
    log_z, _ = brute_force_oracle(zero)
    assert log_z == pytest.approx(4 * math.log(3.0), abs=1e-12)


def test_brute_force_size_limit():
    lat = TagLattice(np.zeros((30, 4)), np.zeros((6, 6)))
    with pytest.raises(ValueError, match="exceed"):
        brute_force_oracle(lat)
