"""Seeded synthetic inputs for the seqtag benchmark.

No corpus ships with the repository and nothing can be fetched, so every
workload's sentences are drawn here from the run's seed: the same seed
gives the same sentences. The program under test only ever sees the
generated token and label lists.

Three shapes of text are made:

* ``ner_corpus``: CoNLL03-like. Sentences of about 14 tokens, Zipfian
  word frequencies (frequent types are short), 9 BIO labels, entity
  spans drawn from a separate capitalized name lexicon.
* ``pos_corpus``: PTB-POS-like. Sentences of about 24 tokens, near-uniform
  frequencies over ~24k types (about 20k survive the vocabulary's
  frequency cutoff), 45 tags, each type with a preferred tag.
* ``tag_text``: unlabeled NER-like text in which a share of the tokens are
  types never seen in training, some of them with unseen characters.
"""

from __future__ import annotations

import numpy as np

NER_LABELS = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG", "B-MISC", "I-MISC")
PTB_TAGS = (
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD", "NN", "NNS",
    "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR", "RBS", "RP", "SYM", "TO",
    "UH", "VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "WDT", "WP", "WP$", "WRB", "#", "$",
    ".", ",", ":", "(", ")", "``", "''",
)
PUNCTUATION = (".", ",", "-", "(", ")", "'s", '"', ":", ";", "$")

_LETTERS = np.array(list("etaoinshrdlcumwfgypbvkjxqz"))
_LETTER_P = 1.0 / np.arange(1, 27) ** 0.8
_LETTER_P /= _LETTER_P.sum()
_UNSEEN_CHARS = np.array(list("éüßøñçå"))


def _lexicon(rng, n, mean_extra, capitalize, taken):
    """``n`` distinct new word types, shortest first (frequent = short)."""
    out = []
    while len(out) < n:
        want = n - len(out)
        lengths = 2 + rng.poisson(mean_extra, size=2 * want)
        letters = rng.choice(_LETTERS, size=int(lengths.sum()), p=_LETTER_P)
        ends = np.cumsum(lengths)
        for start, end in zip(ends - lengths, ends):
            w = "".join(letters[start:end])
            if capitalize:
                w = w.capitalize()
            if w not in taken:
                taken.add(w)
                out.append(w)
                if len(out) == n:
                    break
    out.sort(key=len)
    return out


def _numbers(rng, n, taken):
    out = []
    for v in rng.integers(0, 100000, size=4 * n):
        w = str(v) if v % 3 else f"{v / 100:.2f}"
        if w not in taken:
            taken.add(w)
            out.append(w)
            if len(out) == n:
                break
    return out


def _zipf(n, exponent=1.0, shift=2.7):
    p = 1.0 / (np.arange(n) + shift) ** exponent
    return p / p.sum()


class NerLexicon:
    """General words (with punctuation and numbers) and entity names."""

    def __init__(self, rng, n_words=20000, n_names=3000):
        taken = set(PUNCTUATION)
        words = _lexicon(rng, n_words - 300 - len(PUNCTUATION), 5.5, False, taken)
        numbers = _numbers(rng, 300, taken)
        # punctuation and numbers slot in among the frequent ranks
        self.words = list(PUNCTUATION) + words[:200] + numbers + words[200:]
        self.names = _lexicon(rng, n_names, 4.5, True, taken)
        self.word_p = _zipf(len(self.words))
        self.name_p = _zipf(len(self.names), exponent=0.9)
        self.taken = taken


BLOCK = 64  # sentences per training batch at the paper's settings


def _lengths(rng, n, shape, scale, lo, hi):
    """Sentence lengths with a gamma(shape, scale) distribution, stratified.

    Every run of ``BLOCK`` consecutive sentences holds the same 64 lengths,
    the distribution's quantiles at (i + 0.5) / 64, in a seeded order. So
    every training batch has the same token count and the spread of step
    times between seeds comes from the words, not from batch sizes.
    """
    sample = np.random.default_rng(0).gamma(shape, scale, size=100_000)
    block = np.clip(np.rint(np.quantile(sample, (np.arange(BLOCK) + 0.5) / BLOCK)), lo, hi)
    blocks = [rng.permutation(block) for _ in range(-(-n // BLOCK))]
    return np.concatenate(blocks)[:n].astype(int)


def ner_corpus(rng, lex: NerLexicon, n_sentences, labeled=True):
    """(tokens, labels) pairs; about 16% of tokens are inside an entity."""
    lengths = _lengths(rng, n_sentences, 4.0, 3.5, 2, 60)
    total = int(lengths.sum())
    word_draw = iter(rng.choice(len(lex.words), size=total, p=lex.word_p))
    name_draw = iter(rng.choice(len(lex.names), size=total, p=lex.name_p))
    starts = iter(rng.random(total))
    kinds = iter(rng.integers(0, 4, size=total))
    spans = iter(1 + rng.binomial(2, 0.35, size=total))
    out = []
    for n in lengths:
        tokens, labels = [], []
        while len(tokens) < n:
            if next(starts) < 0.10:
                kind = NER_LABELS[1 + 2 * next(kinds)][2:]
                for j in range(min(next(spans), n - len(tokens))):
                    tokens.append(lex.names[next(name_draw)])
                    labels.append(("B-" if j == 0 else "I-") + kind)
            else:
                tokens.append(lex.words[next(word_draw)])
                labels.append("O")
        out.append((tokens, labels if labeled else [""] * len(tokens)))
    return out


def tag_text(rng, lex: NerLexicon, n_sentences, unseen_share=0.08):
    """Unlabeled NER-like text with never-seen types mixed in."""
    sentences = ner_corpus(rng, lex, n_sentences, labeled=False)
    total = sum(len(t) for t, _ in sentences)
    fresh = _lexicon(rng, max(1, int(total * unseen_share)), 5.5, False, set(lex.taken))
    marks = iter(rng.random(total))
    exotic = iter(rng.choice(_UNSEEN_CHARS, size=total))
    k = 0
    for tokens, _ in sentences:
        for i in range(len(tokens)):
            if next(marks) < unseen_share:
                w = fresh[k % len(fresh)]
                k += 1
                # one in four unseen types also carries an unseen character
                tokens[i] = w + next(exotic) if k % 4 == 0 else w
    return sentences


def pos_corpus(rng, n_sentences, n_types=24000):
    """(tokens, tags) pairs over near-uniform type frequencies."""
    taken = set(PUNCTUATION)
    words = list(PUNCTUATION) + _lexicon(rng, n_types - len(PUNCTUATION), 4.5, False, taken)
    p = 1.0 / (np.arange(len(words)) + 5000.0)
    p /= p.sum()
    preferred = rng.integers(0, len(PTB_TAGS), size=len(words))
    lengths = _lengths(rng, n_sentences, 6.0, 4.0, 3, 80)
    total = int(lengths.sum())
    ids = rng.choice(len(words), size=total, p=p)
    noise = rng.random(total) < 0.1
    tags = np.where(noise, rng.integers(0, len(PTB_TAGS), size=total), preferred[ids])
    out = []
    pos = 0
    for n in lengths:
        out.append(([words[i] for i in ids[pos:pos + n]], [PTB_TAGS[t] for t in tags[pos:pos + n]]))
        pos += n
    return out
