import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag.metrics import (
    Span,
    extract_spans,
    f_beta_binary,
    span_f1,
    token_accuracy,
)

from oracles import render_labels


# ---------------------------------------------------------------------------
# token accuracy
# ---------------------------------------------------------------------------

def test_accuracy_perfect():
    gold = [["A", "B"], ["C"]]
    assert token_accuracy(gold, gold).value == 1.0


def test_accuracy_three_of_four():
    gold = [["A", "B"], ["C", "D"]]
    pred = [["A", "B"], ["C", "X"]]
    result = token_accuracy(gold, pred)
    assert result.value == 0.75
    assert result.components == {"correct": 3, "total": 4}


def test_accuracy_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        token_accuracy([], [])


def test_accuracy_misaligned_rejected():
    with pytest.raises(ValueError, match="token_accuracy"):
        token_accuracy([["A"]], [["A", "B"]])


def test_accuracy_sentence_count_mismatch_rejected():
    with pytest.raises(ValueError, match="^token_accuracy: 1 gold sequences vs 0 predicted$"):
        token_accuracy([["A"]], [])


# ---------------------------------------------------------------------------
# span extraction
# ---------------------------------------------------------------------------

def test_spans_basic():
    assert extract_spans(["B-PER", "I-PER", "O"]) == [Span(0, 2, "PER")]


def test_spans_lenient_bare_inside():
    assert extract_spans(["I-LOC", "O", "B-LOC"]) == [Span(0, 1, "LOC"), Span(2, 3, "LOC")]


def test_spans_none():
    assert extract_spans(["O", "O"]) == []


def test_spans_adjacent_b_tags_split():
    assert extract_spans(["B-X", "B-X"]) == [Span(0, 1, "X"), Span(1, 2, "X")]


def test_spans_type_change_splits():
    assert extract_spans(["B-PER", "I-LOC"]) == [Span(0, 1, "PER"), Span(1, 2, "LOC")]


def test_spans_run_to_end():
    assert extract_spans(["O", "B-ORG", "I-ORG"]) == [Span(1, 3, "ORG")]


def test_spans_unknown_label_rejected():
    with pytest.raises(ValueError, match="X-PER"):
        extract_spans(["X-PER"])
    with pytest.raises(ValueError, match="'B'"):
        extract_spans(["B"])


def test_render_labels_inverse():
    spans = [Span(1, 3, "PER"), Span(4, 5, "LOC")]
    labels = render_labels(spans, 6)
    assert labels == ["O", "B-PER", "I-PER", "O", "B-LOC", "O"]
    assert extract_spans(labels) == spans


def test_render_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        render_labels([Span(0, 2, "A"), Span(1, 3, "B")], 4)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 3), st.sampled_from("PQR")), max_size=4))
def test_render_extract_roundtrip(raw):
    spans = []
    cursor = 0
    for gap, width, label in raw:
        start = cursor + gap + (1 if spans else 0)  # keep spans separated
        spans.append(Span(start, start + width, label))
        cursor = start + width
    length = (spans[-1].end if spans else 0) + 2
    assert extract_spans(render_labels(spans, length)) == spans


# ---------------------------------------------------------------------------
# span F1
# ---------------------------------------------------------------------------

def test_span_f1_perfect():
    gold = [
        [Span(0, 2, "A")],
        [Span(1, 2, "B"), Span(3, 5, "A")],
        [],
        [Span(0, 1, "C"), Span(2, 3, "C")],
        [],
    ]
    result = span_f1(gold, gold)
    assert result.value == 1.0
    assert result.components["tp"] == 5


def test_span_f1_half():
    gold = [[Span(0, 1, "A"), Span(2, 3, "A")]]
    pred = [[Span(0, 1, "A"), Span(4, 5, "A")]]
    result = span_f1(gold, pred)
    assert result.components["precision"] == 0.5
    assert result.components["recall"] == 0.5
    assert result.value == 0.5


def test_span_f1_zero_predictions():
    gold = [[Span(0, 1, "A")]]
    result = span_f1(gold, [[]])
    assert result.value == 0.0
    assert result.components["precision"] == 0.0


def test_span_f1_sentence_count_mismatch_rejected():
    with pytest.raises(ValueError, match="^span_f1: 1 gold sentences vs 0 predicted$"):
        span_f1([[Span(0, 1, "A")]], [])


def test_span_f1_permutation_invariant():
    s1 = [[Span(0, 1, "A")], [Span(2, 4, "B")]]
    s2 = [[Span(0, 2, "A")], []]
    a = span_f1(s1, s2)
    b = span_f1(s1[::-1], s2[::-1])
    assert a.value == b.value
    assert a.components == b.components


# ---------------------------------------------------------------------------
# F-beta over a binary labeling
# ---------------------------------------------------------------------------

def test_f_beta_equal_precision_recall():
    # P = R = 0.5: one true positive, one false positive, one false negative
    gold = [True, False, True, False]
    pred = [True, True, False, False]
    result = f_beta_binary(gold, pred, beta=0.5)
    assert result.value == pytest.approx(0.5, abs=1e-12)


def test_f_beta_precision_weighted():
    # P = 1, R = 0.5, beta = 0.5 favors precision
    gold = [True, True, False]
    pred = [True, False, False]
    result = f_beta_binary(gold, pred, beta=0.5)
    assert result.value == pytest.approx(1.25 * 0.5 / (0.25 + 0.5), abs=1e-12)
    assert result.value == pytest.approx(0.8333, abs=1e-4)


def test_f_beta_degenerate_case_flagged():
    result = f_beta_binary([False, False], [False, False], beta=0.5)
    assert result.value == 0.0
    assert result.degenerate


def test_f_beta_validation():
    with pytest.raises(ValueError, match="beta"):
        f_beta_binary([True], [True], beta=0.0)
    with pytest.raises(ValueError, match="f_beta_binary"):
        f_beta_binary([True], [True, False], beta=1.0)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=30))
def test_f_beta_one_is_harmonic_mean(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    result = f_beta_binary(gold, pred, beta=1.0)
    p = result.components["precision"]
    r = result.components["recall"]
    expected = 2 * p * r / (p + r) if p + r else 0.0
    assert result.value == pytest.approx(expected, abs=1e-12)


def test_metrics_all_within_unit_interval():
    gold = [["B-A", "O", "I-A"], ["O"]]
    pred = [["B-A", "B-A", "O"], ["B-A"]]
    acc = token_accuracy(gold, pred)
    f1 = span_f1([extract_spans(g) for g in gold], [extract_spans(p) for p in pred])
    fb = f_beta_binary([True, False], [False, False], beta=0.5)
    for m in (acc, f1, fb):
        assert 0.0 <= m.value <= 1.0
    p, r = f1.components["precision"], f1.components["recall"]
    if p and r:
        assert min(p, r) <= f1.value <= max(p, r)
