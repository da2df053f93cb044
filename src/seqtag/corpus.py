"""Data ingestion, preprocessing and vocabulary construction.

Tokens are digit-normalized (every digit becomes '0') before any id
assignment, for words and characters alike; the surface form is kept
untouched so output files reproduce the input exactly. Casing is
preserved: capitalization is a useful character-level signal.

Word types below the frequency cutoff share the OOV row for embedding
lookup but their characters still feed the character-level components.
The character inventory carries its own OOV entry for characters first
seen at test time.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor
from .crf import LabelSet
from .layers import EmbeddingTable

OOV_TOKEN = "<unk>"
OOV_CHAR = "<unk>"

_DIGITS = re.compile(r"\d")


def preprocess_token(token: str) -> str:
    """Replace every digit with '0'; all other characters pass through."""
    if not token:
        raise ValueError("preprocess_token: empty token")
    return _DIGITS.sub("0", token)


@dataclass
class Sentence:
    surface: list
    normalized: list
    labels: list
    word_ids: list | None = None
    char_ids: list | None = None
    gold: list | None = None

    def __post_init__(self):
        n = len(self.surface)
        if len(self.normalized) != n or len(self.labels) != n:
            raise ValueError("Sentence: token, normalized and label sequences must align")

    def __len__(self):
        return len(self.surface)


def split_row(line: str, path, lineno: int, token_column: int, label_column: int | None = None):
    """Whitespace-split one data row.

    Columns may be negative (counted from the right). A row too short
    for the requested columns is rejected with its line number.
    """
    cols = line.split()
    needed = token_column + 1 if token_column >= 0 else -token_column
    if label_column is not None:
        needed = max(needed, label_column + 1 if label_column >= 0 else -label_column)
    if len(cols) < needed:
        raise ValueError(f"{path}:{lineno}: expected at least {needed} columns, got {len(cols)}")
    return cols


def load_conll(path, token_column: int = 0, label_column: int | None = -1):
    """Read whitespace-separated columns, one token per line.

    Blank lines separate sentences. ``label_column`` may be negative
    (counted from the right) or None for unlabeled input. A row too
    short for the requested columns is rejected with its line number.
    """
    sentences = []
    tokens: list = []
    labels: list = []

    def flush():
        if tokens:
            sentences.append(
                Sentence(
                    surface=list(tokens),
                    normalized=[preprocess_token(t) for t in tokens],
                    labels=list(labels),
                )
            )
            tokens.clear()
            labels.clear()

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                flush()
                continue
            cols = split_row(line, path, lineno, token_column, label_column)
            tokens.append(cols[token_column])
            labels.append(cols[label_column] if label_column is not None else "")
    flush()
    return sentences


def write_conll(path, sentences, predictions=None):
    """Write token/label pairs, one sentence per blank-separated block."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, sent in enumerate(sentences):
            labels = predictions[i] if predictions is not None else sent.labels
            for tok, lab in zip(sent.surface, labels):
                fh.write(f"{tok}\t{lab}\n")
            fh.write("\n")


class Vocabulary:
    """Bidirectional word/char id maps with OOV entries at index 0."""

    def __init__(self, words, chars, label_set: LabelSet):
        self.words = list(words)
        self.chars = list(chars)
        if not self.words or self.words[0] != OOV_TOKEN:
            raise ValueError("Vocabulary: words must start with the OOV entry")
        if not self.chars or self.chars[0] != OOV_CHAR:
            raise ValueError("Vocabulary: chars must start with the OOV entry")
        self.label_set = label_set
        self._w2i = {w: i for i, w in enumerate(self.words)}
        self._c2i = {c: i for i, c in enumerate(self.chars)}

    oov_word_id = 0
    oov_char_id = 0

    @property
    def n_words(self) -> int:
        return len(self.words)

    @property
    def n_chars(self) -> int:
        return len(self.chars)

    def word_id(self, normalized_token: str) -> int:
        return self._w2i.get(normalized_token, self.oov_word_id)

    def char_id(self, ch: str) -> int:
        return self._c2i.get(ch, self.oov_char_id)

    def encode(self, sent: Sentence) -> Sentence:
        """Fill id fields; gold ids only when every label is known."""
        word_ids = [self.word_id(t) for t in sent.normalized]
        char_ids = [[self.char_id(c) for c in t] for t in sent.normalized]
        gold = None
        if all(lab in self.label_set for lab in sent.labels):
            gold = [self.label_set.id(lab) for lab in sent.labels]
        return replace(sent, word_ids=word_ids, char_ids=char_ids, gold=gold)

    def encode_corpus(self, sentences):
        return [self.encode(s) for s in sentences]

    def to_dict(self) -> dict:
        return {
            "words": self.words,
            "chars": self.chars,
            "labels": list(self.label_set.labels),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return cls(d["words"], d["chars"], LabelSet(d["labels"]))


def build_vocab(train_sentences, min_count: int = 2) -> Vocabulary:
    """Frequency-threshold vocabulary from the training split.

    Word types seen fewer than ``min_count`` times fall back to the OOV
    row; every character from every token is kept regardless. Ids follow
    first occurrence, so the same corpus always yields the same maps.
    """
    train_sentences = list(train_sentences)
    if not train_sentences:
        raise ValueError("build_vocab: empty training set")
    word_counts: Counter = Counter()
    char_counts: Counter = Counter()
    labels: list = []
    seen_labels = set()
    for sent in train_sentences:
        for norm in sent.normalized:
            word_counts[norm] += 1
            char_counts.update(norm)
        for lab in sent.labels:
            if lab not in seen_labels:
                seen_labels.add(lab)
                labels.append(lab)
    words = [OOV_TOKEN] + [w for w, n in word_counts.items() if n >= min_count]
    chars = [OOV_CHAR] + list(char_counts)
    return Vocabulary(words, chars, LabelSet(labels))


def random_embeddings(
    n_rows: int, dim: int, rng: np.random.Generator, dtype=np.float32, scale: float = 0.05
) -> EmbeddingTable:
    matrix = rng.uniform(-scale, scale, size=(n_rows, dim)).astype(dtype)
    return EmbeddingTable(Tensor(matrix), oov_row=0, trainable=True)


def load_pretrained_embeddings(
    path,
    vocab: Vocabulary,
    dim: int,
    rng: np.random.Generator | None = None,
    dtype=np.float32,
    scale: float = 0.05,
) -> EmbeddingTable:
    """Text-format vectors: one word then ``dim`` reals per line.

    An optional first line of two integers (count and width) is treated
    as a header. Vocabulary words found in the file take their stored
    row; everything else, including the OOV row, starts uniform in
    [-scale, scale]. The table is trainable so rows keep adapting.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matrix = rng.uniform(-scale, scale, size=(vocab.n_words, dim)).astype(dtype)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    _, header_dim = int(parts[0]), int(parts[1])
                except ValueError:
                    header_dim = None
                if header_dim is not None:
                    if header_dim != dim:
                        raise ValueError(
                            f"{path}:{lineno}: header dimension {header_dim} != expected {dim}"
                        )
                    continue
            word, *fields = parts
            if len(fields) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values for {word!r}, got {len(fields)}"
                )
            wid = vocab._w2i.get(word)
            if wid is None:
                continue
            try:
                matrix[wid] = np.asarray([float(v) for v in fields], dtype=dtype)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed value ({exc})") from None
    return EmbeddingTable(Tensor(matrix), oov_row=vocab.oov_word_id, trainable=True)


@dataclass
class DatasetStats:
    label_count: int
    token_counts: dict


def dataset_stats(splits: dict) -> DatasetStats:
    """Token counts per split and the distinct-label count across them."""
    labels = set()
    token_counts = {}
    for split, sentences in splits.items():
        total = 0
        for sent in sentences:
            total += len(sent)
            labels.update(sent.labels)
        token_counts[split] = total
    return DatasetStats(label_count=len(labels), token_counts=token_counts)
