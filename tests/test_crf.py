import math

import numpy as np
import pytest

from seqtag.autodiff import Tape, backward, finite_difference_check, log_partition, log_sum_exp, narrow, reduce_sum, tensor
from seqtag.crf import (
    LabelSet,
    TagLattice,
    crf_log_partition,
    crf_nll,
    crf_sequence_score,
    emission_scores,
    viterbi_decode,
)

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
    # the differentiable path trains on logits: loss = lse(logits) - logits[y]
    from seqtag.autodiff import add, const_like, multiply

    rng = np.random.default_rng(1)
    logits = t64(rng.normal(size=4))
    gold = 2

    def builder():
        picked = reduce_sum(narrow(logits, gold, gold + 1))
        return add(log_sum_exp(logits), multiply(picked, const_like(-1.0, picked)))

    tape = Tape()
    with tape:
        loss = builder()
    backward(loss, tape)
    probs = softmax_predict(logits.values, np.eye(4))
    onehot = np.zeros(4)
    onehot[gold] = 1.0
    assert np.allclose(logits.grad, probs - onehot, atol=1e-12)
    report = finite_difference_check(builder, [logits], eps=1e-5)
    assert report.max_rel_error < 1e-6, str(report)


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


# ---------------------------------------------------------------------------
# negative log-likelihood
# ---------------------------------------------------------------------------

def test_nll_uniform_zero_lattice():
    lat = TagLattice(np.zeros((3, 2)), np.zeros((4, 4)))
    val = float(crf_nll(lat, [0, 1, 0]).values)
    assert val == pytest.approx(math.log(8.0), abs=1e-12)


def test_nll_single_token_reduces_to_crossentropy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        em = rng.normal(size=(1, k))
        lat = TagLattice(em, np.zeros((k + 2, k + 2)))
        y = int(rng.integers(0, k))
        probs = softmax_predict(em[0], np.eye(k))
        assert float(crf_nll(lat, [y]).values) == pytest.approx(
            crossentropy_loss([probs], [y]), abs=1e-9
        )


def test_nll_partition_matches_brute_force():
    rng = np.random.default_rng(6)
    lat = random_lattice(rng, 4, 3)
    log_z, _ = brute_force_oracle(lat)
    assert float(crf_log_partition(lat).values) == pytest.approx(log_z, abs=1e-8)
    y = [2, 0, 1, 1]
    nll = float(crf_nll(lat, y).values)
    assert nll == pytest.approx(log_z - crf_sequence_score(lat, y), abs=1e-8)


def test_nll_nonnegative_and_row_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lat = random_lattice(rng, int(rng.integers(1, 5)), int(rng.integers(2, 4)))
        y = [int(rng.integers(0, lat.num_labels)) for _ in range(lat.seq_len)]
        base = float(crf_nll(lat, y).values)
        assert base >= -1e-12
        shifted_em = lat.emissions.values.copy()
        shifted_em[0] += 3.7
        shifted = TagLattice(shifted_em, lat.transitions.values)
        assert float(crf_nll(shifted, y).values) == pytest.approx(base, abs=1e-9)
        assert viterbi_decode(shifted)[0] == viterbi_decode(lat)[0]


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    em = t64(rng.normal(size=(3, 3)))
    tr = t64(rng.normal(size=(5, 5)))
    y = [0, 2, 1]

    def builder():
        return crf_nll(TagLattice(em, tr), y)

    report = finite_difference_check(builder, [em, tr], eps=1e-5)
    assert report.max_rel_error < 1e-4, str(report)


def test_nll_adds_a_fixed_number_of_tape_nodes():
    rng = np.random.default_rng(13)
    counts = set()
    for t_len, k in [(1, 1), (1, 4), (5, 1), (7, 3), (20, 9), (30, 45)]:
        lat = random_lattice(rng, t_len, k)
        tape = Tape()
        with tape:
            crf_nll(lat, rng.integers(0, k, size=t_len))
        counts.add(len(tape))
    assert len(counts) == 1, counts


def _value_and_grads(lat, y, lengths=None):
    tape = Tape()
    with tape:
        loss = crf_nll(lat, y, lengths)
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
            value, g_em, g_tr = _value_and_grads(lat, y[end - n:end])
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
            crf_nll(lat, rng.integers(0, 4, size=sum(lengths)), lengths)
        counts.add(len(tape))
    assert len(counts) == 1, counts


def _log_space_sum(em, tr, lengths):
    """Summed log Z and its gradients, one oracle call per sentence."""
    log_z, d_em, d_tr = 0.0, np.zeros(em.shape), np.zeros(tr.shape)
    for end, n in zip(np.cumsum(lengths), lengths):
        value, unary, pairs = crf_log_space(em[end - n:end], tr)
        log_z += value
        d_em[end - n:end] = unary
        d_tr += pairs
    return log_z, d_em, d_tr


def _log_partition_and_grads(em, tr, lengths):
    a, b = tensor(em), tensor(tr)
    tape = Tape()
    with tape:
        log_z = log_partition(a, b, lengths)
    backward(log_z, tape)
    return float(log_z.values), a.grad, b.grad


def test_log_partition_float32_scores_spread_across_100_stay_exact():
    rng = np.random.default_rng(16)
    for trial in range(40):
        k = int(rng.integers(1, 10))
        lengths = [int(n) for n in rng.integers(1, 12, size=int(rng.integers(1, 6)))]
        em = rng.uniform(-100.0, 100.0, size=(sum(lengths), k)).astype(np.float32)
        tr = rng.uniform(-100.0, 100.0, size=(k + 2, k + 2)).astype(np.float32)
        log_z, d_em, d_tr = _log_partition_and_grads(em, tr, lengths)
        want, want_em, want_tr = _log_space_sum(em, tr, lengths)
        assert np.isfinite(log_z) and np.isfinite(d_em).all() and np.isfinite(d_tr).all()
        assert d_em.dtype == d_tr.dtype == np.float32
        assert log_z == pytest.approx(want, rel=1e-6)
        assert np.allclose(d_em, want_em, rtol=0.0, atol=1e-5)
        assert np.allclose(d_tr, want_tr, rtol=0.0, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_partition_redoes_an_underflowing_step_in_log_space(dtype):
    # the second sentence starts in label 0 (label 1 is exp(-700) as likely), and
    # every way on from label 0 scores 800 below the best transition, every way on
    # from label 1 another 50: the scaled sum of its second step is exp(-750),
    # zero in float64, so that step must be recomputed in log space
    tr = np.zeros((4, 4))
    tr[:2, :2] = [[-800.0, -800.0], [-50.0, 0.0]]
    tr[2, :2] = [0.0, -700.0]
    em = np.array([[0.3, -1.0], [2.0, 0.5], [1.5, 0.0], [0.0, 0.0], [0.0, -50.0]])
    lengths = [3, 2]
    log_z, d_em, d_tr = _log_partition_and_grads(em.astype(dtype), tr.astype(dtype), lengths)
    want, want_em, want_tr = _log_space_sum(em, tr, lengths)
    tol = 1e-12 if dtype == np.float64 else 1e-6
    assert log_z == pytest.approx(want, rel=tol)
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
