"""Synthetic suffix-classification corpus for desk-scale experiments, and a CoNLL writer.

Every word is a random stem plus one of a fixed set of two-character
suffixes, and the token label is fully determined by the suffix. The
test split reuses the suffixes but draws its stems from a disjoint
pool, so every test word type is unseen: a model without access to
characters can only fall back to the shared OOV representation there,
while a character-aware model can keep reading the suffix.

A slice of the training word types occurs only once, which (with the
usual frequency cutoff of 2) puts genuine OOV tokens into the training
stream as well; the gating architecture needs to see some of those to
learn when to distrust the word embedding.
"""

from __future__ import annotations

import numpy as np

from seqtag.corpus import Sentence, preprocess_token

DEFAULT_SUFFIXES = ("an", "eb", "ic", "od", "us", "yl", "em", "ot")
_STEM_LETTERS = "bcdfghjklmnpqrstvwz"


def _make_sentences(words, labels_by_word, sentence_len):
    sentences = []
    for i in range(0, len(words) - len(words) % sentence_len, sentence_len):
        chunk = words[i : i + sentence_len]
        sentences.append(
            Sentence(
                surface=list(chunk),
                normalized=[preprocess_token(w) for w in chunk],
                labels=[labels_by_word[w] for w in chunk],
            )
        )
    return sentences


def make_suffix_corpus(
    n_train_types: int = 500,
    n_test_types: int = 100,
    sentence_len: int = 5,
    n_dev_sentences: int = 40,
    singleton_fraction: float = 0.16,
    seed: int = 0,
    suffixes=DEFAULT_SUFFIXES,
):
    """Build (train, dev, test) sentence lists.

    Train word types are balanced over the suffixes; all but the
    singleton fraction appear exactly twice so they stay in vocabulary.
    Dev sentences resample the repeated train types. Test sentences use
    ``n_test_types`` fresh-stem word types, one occurrence each.
    """
    if len(set(suffixes)) != len(suffixes):
        raise ValueError("make_suffix_corpus: suffixes must be distinct")
    rng = np.random.default_rng(seed)

    def new_stem(taken):
        while True:
            length = int(rng.integers(2, 5))
            stem = "".join(
                _STEM_LETTERS[int(rng.integers(len(_STEM_LETTERS)))] for _ in range(length)
            )
            if stem not in taken:
                taken.add(stem)
                return stem

    taken: set = set()
    train_stems = [new_stem(taken) for _ in range(n_train_types)]
    test_stems = [new_stem(taken) for _ in range(n_test_types)]

    labels_by_word = {}

    def make_types(stems):
        words = []
        for i, stem in enumerate(stems):
            suffix_index = i % len(suffixes)
            word = stem + suffixes[suffix_index]
            labels_by_word[word] = f"C{suffix_index}"
            words.append(word)
        return words

    train_types = make_types(train_stems)
    test_types = make_types(test_stems)

    n_singletons = int(round(n_train_types * singleton_fraction))
    singleton_types = train_types[:n_singletons]
    repeated_types = train_types[n_singletons:]

    stream = list(repeated_types) * 2 + list(singleton_types)
    perm = rng.permutation(len(stream))
    stream = [stream[i] for i in perm]
    train = _make_sentences(stream, labels_by_word, sentence_len)

    dev_tokens = [
        repeated_types[int(rng.integers(len(repeated_types)))]
        for _ in range(n_dev_sentences * sentence_len)
    ]
    dev = _make_sentences(dev_tokens, labels_by_word, sentence_len)

    test_stream = list(test_types)
    perm = rng.permutation(len(test_stream))
    test_stream = [test_stream[i] for i in perm]
    test = _make_sentences(test_stream, labels_by_word, sentence_len)

    return train, dev, test


def write_conll(path, sentences, predictions=None):
    """Write token/label pairs, one sentence per blank-separated block."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, sent in enumerate(sentences):
            labels = predictions[i] if predictions is not None else sent.labels
            for tok, lab in zip(sent.surface, labels):
                fh.write(f"{tok}\t{lab}\n")
            fh.write("\n")
