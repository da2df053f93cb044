import hashlib
import json
import os
import stat
import struct
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag import model as model_module
from seqtag.autodiff import Tape, backward, dense_grad
from seqtag.corpus import Sentence, build_vocab, load_pretrained_embeddings, random_embeddings
from seqtag.model import (
    ModelConfig,
    ModelFormatError,
    assemble_model,
    count_parameters,
    load_model,
    save_model,
)


def tiny_vocab():
    sents = [
        Sentence(["aa", "bb", "cc"], ["aa", "bb", "cc"], ["O", "B-X", "I-X"]),
        Sentence(["aa", "bb", "dd"], ["aa", "bb", "dd"], ["O", "O", "B-X"]),
    ]
    return build_vocab(sents, min_count=2), sents


def toy_config(**overrides):
    base = dict(
        word_dim=6,
        char_dim=3,
        word_lstm_hidden=5,
        char_lstm_hidden=5,
        d_size=4,
        dtype="float64",
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_word_architecture_has_no_character_parameters():
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(architecture="word"), vocab)
    names = set(model.params)
    assert not any(n.startswith(("char", "attn")) for n in names)


def test_concat_architecture_doubles_lstm_input():
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(architecture="concat"), vocab)
    assert model.params["word_lstm.fwd.w_x"].shape == (12, 20)
    assert "char_proj.w_m" in model.params


def test_attention_architecture_keeps_width_and_adds_gates():
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(architecture="attention"), vocab)
    assert model.params["word_lstm.fwd.w_x"].shape == (6, 20)
    names = set(model.params)
    assert {"attn.w_z1", "attn.w_z2", "attn.w_z3"} <= names


def test_softmax_model_has_no_transition_matrix():
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(output="softmax"), vocab)
    assert "crf.transitions" not in model.all_tensors()


def test_assembly_is_deterministic():
    vocab, _ = tiny_vocab()
    a = assemble_model(toy_config(architecture="attention"), vocab)
    b = assemble_model(toy_config(architecture="attention"), vocab)
    for name, t in a.all_tensors().items():
        assert np.array_equal(t.values, b.all_tensors()[name].values), name


def test_pretrained_dim_mismatch_rejected():
    vocab, _ = tiny_vocab()
    table = random_embeddings(np.random.default_rng(0), (vocab.n_words, 5))
    with pytest.raises(ValueError, match="word_dim"):
        assemble_model(toy_config(), vocab, pretrained=table)


def test_pretrained_rows_used():
    vocab, _ = tiny_vocab()
    table = random_embeddings(np.random.default_rng(0), (vocab.n_words, 6), dtype=np.float64)
    table[1] = 7.0
    model = assemble_model(toy_config(), vocab, pretrained=table)
    assert np.allclose(model.params["word_embeddings"].values[1], 7.0)


def test_config_validation():
    with pytest.raises(ValueError, match="architecture"):
        ModelConfig(architecture="rnn").validate()
    with pytest.raises(ValueError, match="output"):
        ModelConfig(output="mlp").validate()
    with pytest.raises(ValueError, match="patience"):
        ModelConfig(patience=0).validate()
    with pytest.raises(ValueError, match="dtype"):
        ModelConfig(dtype="float16").validate()
    with pytest.raises(ValueError, match="unknown config keys"):
        ModelConfig.from_dict({"worddim": 3})


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("epsilon", float("nan")),
    ("epsilon", float("inf")),
])
def test_config_rejects_non_finite_optimizer_settings(field, value):
    with pytest.raises(ValueError, match="finite"):
        ModelConfig(**{field: value}).validate()


# ---------------------------------------------------------------------------
# prediction plumbing
# ---------------------------------------------------------------------------

def test_predict_and_loss_run_for_every_configuration():
    vocab, sents = tiny_vocab()
    enc = vocab.encode_corpus(sents)
    for arch in ("word", "concat", "attention"):
        for output in ("softmax", "crf"):
            model = assemble_model(toy_config(architecture=arch, output=output), vocab)
            loss, aux = model.batch_loss_parts(enc[:1])
            assert loss.shape == ()
            assert (aux is not None) == (arch == "attention")
            pred = model.predict(enc[0])
            assert len(pred) == len(enc[0])
            assert all(0 <= p < len(vocab.label_set) for p in pred)


def batch_sentences():
    words = [["aa", "bb", "cc", "aa"], ["dd"], ["bb", "aa", "zz"], ["cc", "dd", "aa", "bb", "cc"]]
    labels = [["O", "B-X", "I-X", "O"], ["B-X"], ["O", "O", "B-X"], ["O", "B-X", "I-X", "O", "O"]]
    return [Sentence(w, w, lab) for w, lab in zip(words, labels)]


@pytest.mark.parametrize("output", ["softmax", "crf"])
@pytest.mark.parametrize("arch", ["word", "concat", "attention"])
def test_batch_loss_is_the_sum_of_sentence_losses(arch, output):
    vocab, _ = tiny_vocab()
    enc = vocab.encode_corpus(batch_sentences())
    model = assemble_model(toy_config(architecture=arch, output=output), vocab)
    params = model.params

    def value_and_grads(sents):
        tape = Tape()
        with tape:
            loss, aux = model.batch_loss_parts(sents)
        backward(loss, tape)
        grads = {n: np.zeros_like(p.values) if p.grad is None else dense_grad(p.grad)
                 for n, p in params.items()}
        model.zero_grad()
        return float(loss.values), aux, grads

    total, aux, grads = value_and_grads(enc)
    parts = [value_and_grads([sent]) for sent in enc]
    assert total == pytest.approx(sum(p[0] for p in parts), rel=0.0, abs=1e-12)
    if arch == "attention":
        assert aux == pytest.approx(sum(p[1] for p in parts), rel=0.0, abs=1e-12)
    else:
        assert aux is None
    for name in params:
        want = sum(p[2][name] for p in parts)
        assert np.allclose(grads[name], want, rtol=0.0, atol=1e-12), name


@pytest.mark.parametrize("arch", ["word", "concat", "attention"])
def test_word_bilstm_is_two_nodes_per_batch(arch):
    vocab, _ = tiny_vocab()
    enc = vocab.encode_corpus(batch_sentences())
    model = assemble_model(toy_config(architecture=arch), vocab)
    for size in (1, 2, 4, 12):
        tape = Tape()
        with tape:
            model.batch_loss_parts((enc * 3)[:size])
        word_weights = [model.params[f"word_lstm.{d}.w_x"] for d in ("fwd", "bwd")]
        runs = [n for n in tape.nodes if n.op == "lstm_sequence" and any(n.inputs[1] is w for w in word_weights)]
        assert len(runs) == 2, size


# node kinds on the tape of one batch: the word path (lookup, BiLSTM, hidden and
# output layers), the loss of each output, and per architecture the character
# composer, the combiner and the auxiliary term
_WORD_OPS = Counter(pick_row=1, lstm_sequence=2, concat=1, linear=2, tanh=1)
_OUTPUT_OPS = Counter(crf_nll=1)  # softmax and CRF alike
_COMPOSER_OPS = Counter(pick_row=4, lstm_sequence=2, concat=1, linear=1, tanh=1)
_ARCH_OPS = {
    "word": Counter(),
    "concat": _COMPOSER_OPS + Counter(concat=1),
    "attention": _COMPOSER_OPS + Counter(linear=3, add=2, tanh=1, sigmoid=1, mix=1, cosine_distance=1, sum=1,
                                         pick_row=1),
}


@pytest.mark.parametrize("output", ["softmax", "crf"])
@pytest.mark.parametrize("arch", ["word", "concat", "attention"])
def test_batch_tape_op_mix(arch, output):
    """A batch's tape holds a fixed mix of node kinds, so a change in tape
    nodes per token shows here."""
    vocab, _ = tiny_vocab()
    enc = vocab.encode_corpus(batch_sentences())
    model = assemble_model(toy_config(architecture=arch, output=output), vocab)
    tape = Tape()
    with tape:
        model.batch_loss_parts(enc)
    assert Counter(n.op for n in tape.nodes) == _WORD_OPS + _OUTPUT_OPS + _ARCH_OPS[arch]


def test_each_layer_is_called_once_under_its_model_level_name(monkeypatch):
    """The benchmark times the layers by wrapping these names in
    ``seqtag.model``: one attention/CRF batch reaches each once, and tagging
    a sentence reaches ``viterbi_decode`` once. A layer imported under
    another name, or called around its name, shows here."""
    calls = Counter()

    def counting(name, fn):
        def shim(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return shim

    for name in ("bilstm_run", "emission_scores", "crf_nll", "compose_words", "combine_attention",
                 "char_aux_loss", "viterbi_decode"):
        monkeypatch.setattr(model_module, name, counting(name, getattr(model_module, name)))
    vocab, _ = tiny_vocab()
    enc = vocab.encode_corpus(batch_sentences())
    model = assemble_model(toy_config(architecture="attention", output="crf"), vocab)
    with Tape():
        model.batch_loss_parts(enc)
    assert calls == Counter(bilstm_run=1, emission_scores=1, crf_nll=1, compose_words=1, combine_attention=1,
                            char_aux_loss=1)
    calls.clear()
    model.predict_labels(enc[0])
    assert calls == Counter(bilstm_run=1, emission_scores=1, compose_words=1, combine_attention=1,
                            viterbi_decode=1)


def test_backward_frees_every_intermediate_tensor():
    """Once ``backward`` returns, the values of every tensor a node produced
    but the loss are freed; the caller's loss and every parameter's
    gradient remain."""
    vocab, _ = tiny_vocab()
    enc = vocab.encode_corpus(batch_sentences())
    model = assemble_model(toy_config(architecture="attention"), vocab)
    tape = Tape()
    with tape:
        loss, _ = model.batch_loss_parts(enc)
    assert tape.nodes[-1].out is loss
    refs = [weakref.ref(n.out.values) for n in tape.nodes[:-1]]
    backward(loss, tape)
    assert len(refs) == len(tape.nodes) - 1
    assert all(r() is None for r in refs)
    assert np.isfinite(loss.values)
    assert all(p.grad is not None for p in model.params.values())


def test_gates_require_attention_model():
    vocab, sents = tiny_vocab()
    enc = vocab.encode(sents[0])
    model = assemble_model(toy_config(architecture="word"), vocab)
    with pytest.raises(ValueError, match="attention"):
        model.gates(enc)
    model = assemble_model(toy_config(architecture="attention"), vocab)
    gates = model.gates(enc)
    assert len(gates) == len(enc)
    for z in gates:
        assert z.shape == (6,)
        assert np.all(z > 0) and np.all(z < 1)


def test_unencoded_sentence_rejected():
    vocab, sents = tiny_vocab()
    model = assemble_model(toy_config(), vocab)
    with pytest.raises(ValueError, match="encoded"):
        model.predict(sents[0])


def test_batch_loss_parts_needs_sentences_with_gold_ids():
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(), vocab)
    with pytest.raises(ValueError, match="^batch_loss_parts: empty batch$"):
        model.batch_loss_parts([])
    unknown_label = vocab.encode(Sentence(["aa"], ["aa"], ["B-Y"]))
    assert unknown_label.gold is None
    with pytest.raises(ValueError, match="^sentence has no gold label ids$"):
        model.batch_loss_parts([unknown_label])


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

def test_count_matches_independent_walker():
    vocab, _ = tiny_vocab()
    for arch in ("word", "concat", "attention"):
        for output in ("softmax", "crf"):
            config = toy_config(architecture=arch, output=output)
            total, noemb = count_parameters(config, vocab)
            walker = sum(
                int(np.prod(t.values.shape)) for t in assemble_model(config, vocab).all_tensors().values()
            )
            assert total == walker
            assert total - noemb == vocab.n_words * 6  # the word-embedding block


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_bitexact(tmp_path):
    vocab, sents = tiny_vocab()
    enc = vocab.encode_corpus(sents)
    model = assemble_model(toy_config(architecture="attention", dtype="float32"), vocab)
    path = tmp_path / "model.bin"
    save_model(model, path)
    again = load_model(path)
    for s in enc:
        assert model.predict(s) == again.predict(s)
    for name, t in model.all_tensors().items():
        assert np.array_equal(t.values, again.all_tensors()[name].values), name


def test_float64_save_load_roundtrip_is_exact(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(architecture="attention", output="crf"), vocab)
    rng = np.random.default_rng(5)
    for t in model.all_tensors().values():
        t.values[...] = rng.normal(size=t.shape)  # not representable in float32
    path = tmp_path / "model.bin"
    save_model(model, path)
    again = load_model(path)
    for name, t in model.all_tensors().items():
        assert again.all_tensors()[name].dtype == np.float64
        assert np.array_equal(t.values, again.all_tensors()[name].values), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_version_1_file_loads_as_float32_data(tmp_path, dtype):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype=dtype), vocab)
    header = {
        "format": "seqtag-model",
        "format_version": 1,
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in model.all_tensors().items()],
    }
    blob = json.dumps(header).encode("utf-8")
    data = b"".join(t.values.astype("<f4").tobytes() for t in model.all_tensors().values())
    path = tmp_path / "model.bin"
    path.write_bytes(b"SQTG" + struct.pack("<Q", len(blob)) + blob + data)
    again = load_model(path)
    for name, t in model.all_tensors().items():
        expected = t.values.astype(np.float32).astype(dtype)
        assert np.array_equal(again.all_tensors()[name].values, expected), name


# sha256 of the file a freshly assembled model saves to, keyed by (architecture,
# output, dtype, pretrained word table): pins the draw order, every initializer
# and the file layout
_FRESH_MODEL_DIGESTS = {
    ("word", "softmax", "float32", False): "ac0975d00afc6ecf834c01bb54394d59b9d6829d38be131b7b22eb8e3a6d3294",
    ("word", "crf", "float32", False): "943089b8cc255fba48e50dd1fd44a8221453efe7ed90f27577397fbafb2b9a03",
    ("concat", "softmax", "float32", False): "38571709a6914c0f283e1531805b51407524e1860042015633ecee76ce1e8bd8",
    ("concat", "crf", "float32", False): "5a200bfb46732fbf65b37a2c50354130a88384b21f53ccbe525bf83fd05f2122",
    ("attention", "softmax", "float32", False): "8b554aa1fb7855dba8171abb60e3a8dcd7d8acd58f54ed968ba117aea993120c",
    ("attention", "crf", "float32", False): "71e729211ba31db73f4be64aca8c293d5989789328d3d9ea1c7fa86bb455698e",
    ("attention", "crf", "float64", False): "5f8321eefaf872cf3958b06c6da41306cb3d27b173a35295fa3a9c676b19daa1",
    ("concat", "crf", "float32", True): "0990c3260fbdb2c2a1db48cf2c4ebd8ecd52161fc2840b091d0571a163ad449d",
}


@pytest.mark.parametrize("arch,output,dtype,pretrained", list(_FRESH_MODEL_DIGESTS))
def test_fresh_model_bytes_are_pinned(tmp_path, arch, output, dtype, pretrained):
    vocab, _ = tiny_vocab()
    config = toy_config(architecture=arch, output=output, dtype=dtype)
    table = None
    if pretrained:
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("aa 0.5 -0.25 1 2 3 4\nbb 0.125 0 0 0 0 -1\n")
        table = load_pretrained_embeddings(vectors, vocab, 6, np.random.default_rng(7), config.np_dtype())
    path = tmp_path / "model.bin"
    save_model(assemble_model(config, vocab, pretrained=table), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _FRESH_MODEL_DIGESTS[arch, output, dtype, pretrained]


def test_save_is_byte_deterministic(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype="float32"), vocab)
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype="float32"), vocab)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)


def test_load_rejects_version_mismatch(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype="float32"), vocab)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes().replace(b'"format_version":2', b'"format_version":9', 1)
    path.write_bytes(data)
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


@pytest.mark.parametrize("field", ["words", "chars"])
def test_load_rejects_a_repeated_vocabulary_entry(tmp_path, field):
    vocab, _ = tiny_vocab()
    path = tmp_path / "model.bin"
    save_model(assemble_model(toy_config(dtype="float32"), vocab), path)
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + n])
    entries = header["vocab"][field]
    entries[-1] = entries[-2]  # the count, and so the tensor shapes, stay right
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + raw[12 + n:])
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(path)


def test_load_rejects_trailing_data(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype="float32"), vocab)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(path)


def test_failed_save_leaves_existing_file_intact(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype="float32"), vocab)
    path = tmp_path / "model.bin"
    save_model(model, path)
    before = path.read_bytes()
    # the last tensor cannot be converted, so the save fails after writing the others
    last = list(model.all_tensors().values())[-1]
    last.values = np.array([object()])
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_save_over_existing_file_keeps_its_mode(tmp_path):
    vocab, _ = tiny_vocab()
    model = assemble_model(toy_config(dtype="float32"), vocab)
    path = tmp_path / "model.bin"
    save_model(model, path)
    os.chmod(path, 0o640)
    save_model(model, path)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


@pytest.fixture(scope="module")
def saved_model_bytes(tmp_path_factory):
    vocab, _ = tiny_vocab()
    path = tmp_path_factory.mktemp("mutations") / "model.bin"
    save_model(assemble_model(toy_config(architecture="attention", dtype="float32"), vocab), path)
    return path.read_bytes()


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_byte_mutations_raise_only_model_format_error(saved_model_bytes, tmp_path_factory, data):
    raw = bytearray(saved_model_bytes)
    (header_len,) = struct.unpack("<Q", raw[4:12])
    # half of the positions fall in the magic, length and JSON header, a few percent of the file
    position = st.one_of(st.integers(0, 12 + header_len - 1), st.integers(0, len(raw) - 1))
    for _ in range(data.draw(st.integers(1, 4))):
        raw[data.draw(position)] = data.draw(st.integers(0, 255))
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    path.write_bytes(bytes(raw))
    try:
        load_model(path)
    except ModelFormatError:
        pass
