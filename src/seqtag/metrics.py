"""Evaluation measures: token accuracy, mention-level F1, binary F-beta.

Span extraction follows the lenient reading of IOB: a bare I-X with no
compatible open span starts a new one, so both IOB1 and IOB2 output are
consumed without complaint. Precision and recall fall back to 0 when
their denominators are empty, mirroring the usual chunking evaluation
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MetricResult:
    name: str
    value: float
    components: dict = field(default_factory=dict)
    degenerate: bool = False

    def __str__(self):
        parts = "".join(f"\t{k}={v}" for k, v in self.components.items())
        return f"{self.name}\t{self.value:.6f}{parts}"


def _flatten_aligned(gold, pred, what):
    gold = list(gold)
    pred = list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"{what}: {len(gold)} gold sequences vs {len(pred)} predicted")
    pairs = []
    for i, (g, p) in enumerate(zip(gold, pred)):
        g, p = list(g), list(p)
        if len(g) != len(p):
            raise ValueError(f"{what}: sentence {i} has {len(g)} gold vs {len(p)} predicted tokens")
        pairs.extend(zip(g, p))
    return pairs


def token_accuracy(gold, pred) -> MetricResult:
    """Fraction of tokens labeled correctly, pooled over all sentences."""
    pairs = _flatten_aligned(gold, pred, "token_accuracy")
    if not pairs:
        raise ValueError("token_accuracy: empty corpus")
    correct = sum(1 for g, p in pairs if g == p)
    total = len(pairs)
    return MetricResult("accuracy", correct / total, {"correct": correct, "total": total})


@dataclass(frozen=True)
class Span:
    start: int  # inclusive token index
    end: int    # exclusive token index
    label: str


def _split_tag(tag: str):
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in ("B", "I"):
        return tag[0], tag[2:]
    raise ValueError(f"extract_spans: malformed label {tag!r}")


def check_iob_labels(labels, what: str):
    """Raise ``ValueError`` naming ``what`` and the first label ``extract_spans`` cannot read."""
    for tag in dict.fromkeys(labels):
        try:
            _split_tag(tag)
        except ValueError:
            raise ValueError(f"{what}: span-f1 needs IOB labels (O, B-X, I-X), got {tag!r}") from None


def extract_spans(labels) -> list:
    """Maximal typed segments from an IOB label sequence."""
    labels = list(labels)
    spans = []
    start = None
    current = None
    for i, tag in enumerate(labels):
        prefix, kind = _split_tag(tag)
        if current is not None and (prefix in ("O", "B") or kind != current):
            spans.append(Span(start, i, current))
            current = None
        if prefix in ("B", "I") and current is None:
            start, current = i, kind
    if current is not None:
        spans.append(Span(start, len(labels), current))
    return spans


def _f_beta(name, tp, fp, fn, beta, degenerate=False) -> MetricResult:
    """Precision, recall and F-beta from match counts; F1 is the beta = 1 case."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    b2 = beta * beta
    denom = b2 * precision + recall
    value = (1 + b2) * precision * recall / denom if denom else 0.0
    return MetricResult(
        name,
        value,
        {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall},
        degenerate=degenerate,
    )


def span_f1(gold_spans, pred_spans) -> MetricResult:
    """Micro-averaged F1 over exact (start, end, type) span matches."""
    gold_spans = list(gold_spans)
    pred_spans = list(pred_spans)
    if len(gold_spans) != len(pred_spans):
        raise ValueError(
            f"span_f1: {len(gold_spans)} gold sentences vs {len(pred_spans)} predicted"
        )
    tp = fp = fn = 0
    for g, p in zip(gold_spans, pred_spans):
        g, p = set(g), set(p)
        tp += len(g & p)
        fp += len(p - g)
        fn += len(g - p)
    return _f_beta("span_f1", tp, fp, fn, beta=1)


def f_beta_binary(gold, pred, beta: float) -> MetricResult:
    """F-beta over the positive class of aligned binary sequences."""
    if beta <= 0:
        raise ValueError("f_beta_binary: beta must be positive")
    gold = [bool(g) for g in gold]
    pred = [bool(p) for p in pred]
    if len(gold) != len(pred):
        raise ValueError(f"f_beta_binary: {len(gold)} gold vs {len(pred)} predicted")
    tp = sum(1 for g, p in zip(gold, pred) if g and p)
    fp = sum(1 for g, p in zip(gold, pred) if not g and p)
    fn = sum(1 for g, p in zip(gold, pred) if g and not p)
    return _f_beta(f"f{beta:g}", tp, fp, fn, beta, degenerate=tp + fp + fn == 0)
