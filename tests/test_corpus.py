import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqtag.corpus import (
    OOV_TOKEN,
    LabelSet,
    Sentence,
    Vocabulary,
    build_vocab,
    load_conll,
    load_pretrained_embeddings,
    preprocess_token,
)

from oracles import encode_oracle, vocab_oracle
from synthdata import write_conll


def make_sentences(token_label_pairs):
    out = []
    for pairs in token_label_pairs:
        tokens = [t for t, _ in pairs]
        out.append(
            Sentence(tokens, [preprocess_token(t) for t in tokens], [l for _, l in pairs])
        )
    return out


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_digits_become_zero():
    assert preprocess_token("1993") == "0000"


def test_no_digits_unchanged():
    assert preprocess_token("cabinets") == "cabinets"


def test_mixed_content():
    assert preprocess_token("B-52s") == "B-00s"


def test_empty_token_rejected():
    with pytest.raises(ValueError, match="empty"):
        preprocess_token("")


def test_case_is_preserved():
    assert preprocess_token("London") == "London"


# ---------------------------------------------------------------------------
# conll reader
# ---------------------------------------------------------------------------

def test_load_two_token_sentence(tmp_path):
    path = tmp_path / "a.conll"
    path.write_text("dogs NNS\nrun VBP\n\n")
    sents = load_conll(path)
    assert len(sents) == 1
    assert sents[0].surface == ["dogs", "run"]
    assert sents[0].labels == ["NNS", "VBP"]


def test_load_two_blocks(tmp_path):
    path = tmp_path / "b.conll"
    path.write_text("a X\n\nb Y\nc Z\n\n")
    sents = load_conll(path)
    assert [len(s) for s in sents] == [1, 2]


def test_load_ragged_row_names_line(tmp_path):
    path = tmp_path / "c.conll"
    path.write_text("ok LAB\nbroken\n")
    with pytest.raises(ValueError, match=r"c\.conll:2"):
        load_conll(path, token_column=0, label_column=1)


def test_load_rejects_a_row_whose_label_is_its_token(tmp_path):
    path = tmp_path / "one.conll"
    path.write_text("ok LAB\nlonely\n")
    with pytest.raises(ValueError, match=r"one\.conll:2: the label column is the token column"):
        load_conll(path)
    assert load_conll(path, label_column=None)[0].surface == ["ok", "lonely"]


def test_load_empty_file(tmp_path):
    path = tmp_path / "d.conll"
    path.write_text("")
    assert load_conll(path) == []


def test_load_missing_trailing_blank_line(tmp_path):
    path = tmp_path / "e.conll"
    path.write_text("x A\ny B")
    assert len(load_conll(path)) == 1


def test_load_column_selection(tmp_path):
    path = tmp_path / "f.conll"
    path.write_text("tok POS CHUNK\n\n")
    sents = load_conll(path, token_column=0, label_column=1)
    assert sents[0].labels == ["POS"]


def test_load_unlabeled(tmp_path):
    path = tmp_path / "g.conll"
    path.write_text("one\ntwo\n\n")
    sents = load_conll(path, label_column=None)
    assert sents[0].labels == ["", ""]


def test_surface_roundtrip(tmp_path):
    src = tmp_path / "h.conll"
    src.write_text("Bond 007 B-PER\nis 11a O\n\n")
    sents = load_conll(src, token_column=0, label_column=-1)
    assert sents[0].surface == ["Bond", "is"]
    assert sents[0].normalized == ["Bond", "is"]
    out = tmp_path / "h.out"
    write_conll(out, sents)
    again = load_conll(out)
    assert again[0].surface == sents[0].surface
    assert again[0].labels == sents[0].labels


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_singleton_words_map_to_oov():
    sents = make_sentences([
        [("a", "X"), ("a", "X"), ("a", "X")],
        [("b", "Y")],
    ])
    vocab = build_vocab(sents, min_count=2)
    assert vocab.word_id("a") != vocab.oov_word_id
    assert vocab.word_id("b") == vocab.oov_word_id
    assert vocab.char_id("a") != vocab.oov_char_id
    assert vocab.char_id("b") != vocab.oov_char_id  # singleton chars are kept


def test_min_count_one_keeps_everything():
    sents = make_sentences([[("a", "X"), ("b", "Y")]])
    vocab = build_vocab(sents, min_count=1)
    assert vocab.word_id("a") != vocab.oov_word_id
    assert vocab.word_id("b") != vocab.oov_word_id


def test_unseen_word_encodes_to_oov():
    sents = make_sentences([[("aa", "X"), ("aa", "X")]])
    vocab = build_vocab(sents)
    dev = make_sentences([[("zz", "X")]])
    enc = vocab.encode(dev[0])
    assert enc.word_ids == [vocab.oov_word_id]


def test_unseen_char_encodes_to_oov_char():
    sents = make_sentences([[("ab", "X"), ("ab", "X")]])
    vocab = build_vocab(sents)
    enc = vocab.encode(make_sentences([[("aq", "X")]])[0])
    assert enc.char_ids[0][0] == vocab.char_id("a")
    assert enc.char_ids[0][1] == vocab.oov_char_id


def test_vocab_determinism_and_density():
    sents = make_sentences([
        [("w1", "A"), ("w2", "B")],
        [("w2", "B"), ("w3", "A"), ("w1", "A")],
    ])
    v1 = build_vocab(sents, min_count=1)
    v2 = build_vocab(sents, min_count=1)
    assert v1.words == v2.words
    assert v1.chars == v2.chars
    assert list(v1.label_set.labels) == list(v2.label_set.labels)
    assert v1.words[0] == OOV_TOKEN
    assert sorted(v1._w2i.values()) == list(range(v1.n_words))


def test_encode_ids_in_range():
    sents = make_sentences([
        [("alpha", "A"), ("beta", "B")],
        [("alpha", "A"), ("gamma9", "B")],
    ])
    vocab = build_vocab(sents, min_count=1)
    for s in vocab.encode_corpus(sents):
        assert all(0 <= w < vocab.n_words for w in s.word_ids)
        assert all(0 <= c < vocab.n_chars for cs in s.char_ids for c in cs)
        assert s.gold is not None


def test_literal_oov_tokens_read_the_oov_row():
    sents = make_sentences([[(t, "X") for t in ("the", OOV_TOKEN, "cat", OOV_TOKEN, "the")]] * 2)
    vocab = build_vocab(sents)
    assert vocab.words == [OOV_TOKEN, "the", "cat"]
    enc = vocab.encode(sents[0])
    assert enc.word_ids == [1, 0, 2, 0, 1]
    assert enc.char_ids[1] == tuple(vocab.char_id(c) for c in OOV_TOKEN)


@pytest.mark.parametrize("words,chars", [
    ([OOV_TOKEN, "a", "b", "a"], ["<unk>", "a", "b"]),
    ([OOV_TOKEN, "a", "b"], ["<unk>", "a", "b", "a"]),
    ([OOV_TOKEN, "a", OOV_TOKEN], ["<unk>", "a"]),
])
def test_vocabulary_rejects_repeated_entries(words, chars):
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(words, chars, LabelSet(["X"]))


def _token(alphabet):
    return st.one_of(st.sampled_from(["the", "The", "1999", "2001", OOV_TOKEN]),
                     st.text(st.sampled_from(alphabet), min_size=1, max_size=4))


@st.composite
def _corpus(draw, alphabet):
    """Sentences over few types, so types repeat; some unlabeled, some
    with labels that a vocabulary built elsewhere may lack."""
    sents = []
    for tokens in draw(st.lists(st.lists(_token(alphabet), min_size=1, max_size=6),
                                min_size=1, max_size=6)):
        if draw(st.booleans()):
            labels = [""] * len(tokens)
        else:
            labels = draw(st.lists(st.sampled_from("XYZ"), min_size=len(tokens), max_size=len(tokens)))
        sents.append(Sentence(tokens, [preprocess_token(t) for t in tokens], labels))
    return sents


@settings(max_examples=200, deadline=None)
@given(train=_corpus("abAB01-"), other=_corpus("abAB01-éq"), min_count=st.integers(1, 3))
def test_type_level_vocab_and_encoding_match_the_per_token_oracle(train, other, min_count):
    vocab = build_vocab(train, min_count)
    assert vocab.to_dict() == vocab_oracle(train, min_count)
    corpus = train + other  # characters and labels unseen in training, too
    encoded = vocab.encode_corpus(corpus)
    assert len(encoded) == len(corpus)
    shared = {}
    for sent, enc in zip(corpus, encoded):
        word_ids, char_ids, gold = encode_oracle(vocab, sent)
        assert (enc.word_ids, [list(c) for c in enc.char_ids], enc.gold) == (word_ids, char_ids, gold)
        assert (enc.surface, enc.normalized, enc.labels) == (sent.surface, sent.normalized, sent.labels)
        for token, cids in zip(sent.normalized, enc.char_ids):
            assert type(cids) is tuple
            assert shared.setdefault(token, cids) is cids  # one object per type
        assert vocab.encode(sent) == enc


@pytest.mark.parametrize("surface,normalized,labels", [
    (["a", "b"], ["a"], ["X", "Y"]),
    (["a"], ["a"], []),
], ids=["normalized", "labels"])
def test_misaligned_sentence_rejected(surface, normalized, labels):
    with pytest.raises(ValueError, match="^Sentence: token, normalized and label sequences must align$"):
        Sentence(surface, normalized, labels)


def test_empty_label_set_rejected():
    with pytest.raises(ValueError, match="^LabelSet: empty label set$"):
        LabelSet([])


@pytest.mark.parametrize("words,chars,field", [
    (["a", OOV_TOKEN], [OOV_TOKEN, "a"], "words"),
    ([], [OOV_TOKEN, "a"], "words"),
    ([OOV_TOKEN, "a"], ["a", OOV_TOKEN], "chars"),
    ([OOV_TOKEN, "a"], [], "chars"),
])
def test_vocabulary_must_start_with_the_oov_entry(words, chars, field):
    with pytest.raises(ValueError, match=f"^Vocabulary: {field} must start with the OOV entry$"):
        Vocabulary(words, chars, LabelSet(["X"]))


def test_build_vocab_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        build_vocab([])


def test_vocab_dict_roundtrip():
    sents = make_sentences([[("x", "L"), ("x", "L")]])
    vocab = build_vocab(sents)
    again = Vocabulary.from_dict(vocab.to_dict())
    assert again.words == vocab.words
    assert again.chars == vocab.chars
    assert list(again.label_set.labels) == list(vocab.label_set.labels)


# ---------------------------------------------------------------------------
# pretrained embeddings
# ---------------------------------------------------------------------------

def _tiny_vocab():
    sents = make_sentences([[("dog", "X"), ("dog", "X"), ("cat", "Y"), ("cat", "Y")]])
    return build_vocab(sents)


def test_pretrained_direct_read(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 0.1 0.2\n")
    vocab = _tiny_vocab()
    table = load_pretrained_embeddings(path, vocab, dim=2, rng=np.random.default_rng(0))
    assert np.allclose(table[vocab.word_id("dog")], [0.1, 0.2], atol=1e-7)
    assert table.shape == (vocab.n_words, 2)


def test_pretrained_missing_word_random_in_range(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 0.1 0.2\n")
    vocab = _tiny_vocab()
    table = load_pretrained_embeddings(path, vocab, dim=2, rng=np.random.default_rng(0))
    cat = table[vocab.word_id("cat")]
    assert np.all(np.abs(cat) <= 0.05)
    oov = table[vocab.oov_word_id]
    assert np.all(np.abs(oov) <= 0.05)


def test_pretrained_header_dimension_mismatch(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 300\ndog " + " ".join(["0.0"] * 200) + "\n")
    with pytest.raises(ValueError, match="header dimension"):
        load_pretrained_embeddings(path, _tiny_vocab(), dim=200, rng=np.random.default_rng(0))


def test_pretrained_header_accepted(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("1 2\ndog 0.5 0.6\n")
    vocab = _tiny_vocab()
    table = load_pretrained_embeddings(path, vocab, dim=2, rng=np.random.default_rng(0))
    assert np.allclose(table[vocab.word_id("dog")], [0.5, 0.6], atol=1e-7)


def test_pretrained_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 0.1 0.2\n\n  \ncat 0.3 0.4\n")
    vocab = _tiny_vocab()
    table = load_pretrained_embeddings(path, vocab, dim=2, rng=np.random.default_rng(0))
    assert np.allclose(table[vocab.word_id("dog")], [0.1, 0.2], atol=1e-7)
    assert np.allclose(table[vocab.word_id("cat")], [0.3, 0.4], atol=1e-7)


def test_pretrained_two_field_first_line_of_a_word_is_a_vector(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 0.5\ncat 0.25\n")
    vocab = _tiny_vocab()
    table = load_pretrained_embeddings(path, vocab, dim=1, rng=np.random.default_rng(0))
    assert table[vocab.word_id("dog")].tolist() == [0.5]
    assert table[vocab.word_id("cat")].tolist() == [0.25]


def test_pretrained_entry_width_error_names_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 0.1 0.2\ncat 0.3\n")
    with pytest.raises(ValueError, match=r"vec\.txt:2"):
        load_pretrained_embeddings(path, _tiny_vocab(), dim=2, rng=np.random.default_rng(0))


def test_pretrained_malformed_value_names_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("dog 0.1 oops\n")
    with pytest.raises(ValueError, match=r"vec\.txt:1"):
        load_pretrained_embeddings(path, _tiny_vocab(), dim=2, rng=np.random.default_rng(0))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
def test_pretrained_non_finite_value_names_line(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"cat 0.3 0.4\ndog 0.1 {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"vec\.txt:2: non-finite"):
            load_pretrained_embeddings(path, _tiny_vocab(), dim=2, rng=np.random.default_rng(0))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=16), max_size=8),
       token_column=st.integers(-3, 2), label_column=st.one_of(st.none(), st.integers(-3, 2)))
def test_any_row_text_loads_or_names_its_line(tmp_path_factory, rows, token_column, label_column):
    path = tmp_path_factory.mktemp("rows") / "random.conll"
    path.write_text("\n".join(rows), encoding="utf-8")
    try:
        assert all(s.surface for s in load_conll(path, token_column, label_column))
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(exc)), str(exc)
