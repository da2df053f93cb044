"""Data ingestion, preprocessing and vocabulary construction.

Tokens are digit-normalized (every digit becomes '0') before any id
assignment, for words and characters alike; the surface form is kept
untouched so output files reproduce the input exactly. Casing is
preserved: capitalization is a useful character-level signal.

Word types below the frequency cutoff share the OOV row for embedding
lookup but their characters still feed the character-level components.
The character inventory carries its own OOV entry for characters first
seen at test time.

Every command reads its data through ``read_conll``, a generator that
streams the file and yields each sentence together with its rows as
read, and a marker for each blank line; ``load_conll`` keeps the
sentences, and ``seqtag tag`` writes each row back with its label.

Counting and encoding work per word type, not per token: ``build_vocab``
counts the normalized tokens and takes the characters from the counted
types, and ``Vocabulary.encode_corpus`` looks each distinct normalized
token up once per call. Every token of a type then holds the type's
word id and the same read-only tuple of char ids in
``Sentence.char_ids``.

The label set (``LabelSet``) sits beside the vocabulary, which holds
it, and ``encode_corpus`` reads gold ids from its index.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

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
    char_ids: list | None = None  # per token, its type's one shared tuple
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
    for the requested columns, or whose label column is its token
    column, is rejected with its line number.
    """
    cols = line.split()
    needed = token_column + 1 if token_column >= 0 else -token_column
    if label_column is not None:
        needed = max(needed, label_column + 1 if label_column >= 0 else -label_column)
    if len(cols) < needed:
        raise ValueError(f"{path}:{lineno}: expected at least {needed} columns, got {len(cols)}")
    if label_column is not None and token_column % len(cols) == label_column % len(cols):
        raise ValueError(f"{path}:{lineno}: the label column is the token column ({len(cols)} columns)")
    return cols


def read_conll(path, token_column: int = 0, label_column: int | None = -1):
    """Stream a file of whitespace-separated columns, one token per line.

    Yields ``(rows, sentence)`` for each run of data rows, with the rows
    as read less their line ends, and ``(None, None)`` for each blank
    (or whitespace-only) line, in file order. ``label_column`` may be
    negative (counted from the right) or None for unlabeled input, whose
    labels are then empty strings. A row too short for the requested
    columns, or one whose label column resolves to its token column, is
    rejected with its line number before its sentence is yielded.
    """
    with open(path, encoding="utf-8") as fh:
        for is_data, lines in groupby(enumerate(fh, start=1), key=lambda item: bool(item[1].strip())):
            if not is_data:
                for _ in lines:
                    yield None, None
                continue
            rows, tokens, labels = [], [], []
            for lineno, line in lines:
                cols = split_row(line, path, lineno, token_column, label_column)
                rows.append(line.rstrip("\n"))
                tokens.append(cols[token_column])
                labels.append(cols[label_column] if label_column is not None else "")
            yield rows, Sentence(tokens, [preprocess_token(t) for t in tokens], labels)


def load_conll(path, token_column: int = 0, label_column: int | None = -1):
    """The sentences ``read_conll`` yields, as a list."""
    return [sent for rows, sent in read_conll(path, token_column, label_column) if rows]


class LabelSet:
    """Ordered, unique label strings with a stable index."""

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("LabelSet: duplicate labels")
        if not labels:
            raise ValueError("LabelSet: empty label set")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"LabelSet: unknown label {label!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def __len__(self):
        return len(self.labels)

    def __contains__(self, label):
        return label in self._index


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
        if len(self._w2i) != len(self.words):
            raise ValueError("Vocabulary: duplicate words")
        if len(self._c2i) != len(self.chars):
            raise ValueError("Vocabulary: duplicate chars")

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
        """One sentence's ``encode_corpus``."""
        return self.encode_corpus([sent])[0]

    def encode_corpus(self, sentences) -> list:
        """Copies of ``sentences`` with their id fields filled, each
        distinct normalized token looked up once per call; gold ids only
        when every label is known."""
        c2i, oov_char, label_ids = self._c2i, self.oov_char_id, self.label_set._index
        types: dict = {}

        def entry(token):
            types[token] = (self.word_id(token), tuple([c2i.get(c, oov_char) for c in token]))
            return types[token]

        out = []
        for sent in sentences:
            entries = [types.get(t) or entry(t) for t in sent.normalized]
            gold = [label_ids.get(lab) for lab in sent.labels]
            out.append(Sentence(sent.surface, sent.normalized, sent.labels,
                                word_ids=[e[0] for e in entries], char_ids=[e[1] for e in entries],
                                gold=None if None in gold else gold))
        return out

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
    row, as does a literal ``OOV_TOKEN`` in the data; every character
    from every token is kept regardless. Ids follow first occurrence, so
    the same corpus always yields the same maps. Characters are read
    from the counted types, once per type: a character's first token is
    its type's first occurrence, so the order is the tokens' order.
    """
    train_sentences = list(train_sentences)
    if not train_sentences:
        raise ValueError("build_vocab: empty training set")
    word_counts = Counter(chain.from_iterable(s.normalized for s in train_sentences))
    labels = dict.fromkeys(chain.from_iterable(s.labels for s in train_sentences))
    words = [OOV_TOKEN] + [w for w, n in word_counts.items() if n >= min_count and w != OOV_TOKEN]
    chars = [OOV_CHAR] + list(dict.fromkeys(chain.from_iterable(word_counts)))
    return Vocabulary(words, chars, LabelSet(labels))


def random_embeddings(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """An embedding table's rows drawn uniform in [-0.05, 0.05]."""
    return rng.uniform(-0.05, 0.05, size=shape).astype(dtype)


def load_pretrained_embeddings(
    path,
    vocab: Vocabulary,
    dim: int,
    rng: np.random.Generator,
    dtype=np.float32,
) -> np.ndarray:
    """Text-format vectors: one word then ``dim`` reals per line.

    An optional first line of two integers (count and width) is treated
    as a header. Vocabulary words found in the file take their stored
    row; everything else, including the OOV row, is drawn from ``rng``
    as in ``random_embeddings``. Returns the (n_words, dim) matrix, which
    replaces the model's word-embedding draw and keeps training. A
    vocabulary word's value that is not a finite number of ``dtype``
    (``nan``, ``inf`` or out of range) is an error naming its line.
    """
    matrix = random_embeddings(rng, (vocab.n_words, dim), dtype)
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
                with np.errstate(over="ignore"):  # a value too large for dtype becomes inf
                    row = np.asarray([float(v) for v in fields], dtype=dtype)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed value ({exc})") from None
            if not np.isfinite(row).all():
                raise ValueError(
                    f"{path}:{lineno}: non-finite value for {word!r} "
                    f"(nan, inf or beyond the {np.dtype(dtype).name} range)"
                )
            matrix[wid] = row
    return matrix
