"""Model assembly, parameter accounting and persistence.

Three architectures share one word-level pipeline (embedding lookup,
bidirectional LSTM, narrow tanh layer, output scores):

* ``word``       feeds word embeddings straight in
* ``concat``     appends the character-composed vector, doubling the
                 width of the word-level LSTM input
* ``attention``  gates the two vectors together, keeping the input
                 width unchanged, and adds the auxiliary cosine term
                 to the training loss

The output layer is either a per-token softmax or a linear-chain CRF.

Sentences flow through the pipeline as one (N, ·) matrix, one token per
row, with a batch's sentences back to back. ``Model.batch_loss_parts``
is the one loss path: it composes each distinct word type of the batch
once, lets every occurrence read its row, and runs the word BiLSTM once
per direction over all the batch's sentences; a single sentence's loss
is the batch-of-one case, and so are prediction and gate inspection.

Saved models are a single binary container: a short magic, a JSON
header (format version, configuration, vocabulary, tensor manifest)
and the raw parameter data as little-endian floats of the configured
dtype, so a model reloads to exactly its trained values. Version 1
files, which stored every model as 32-bit floats, still load. Loading
checks that the file holds as much parameter data as its configuration
implies before it allocates any of it.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import (
    Tensor,
    add,
    const_like,
    log_sum_exp,
    multiply,
    no_tape,
    pick_row,
    reduce_sum,
    transpose,
)
from .charcomp import (
    AttentionParams,
    CharComposerParams,
    char_aux_loss,
    combine_attention,
    combine_concat,
    compose_words,
)
from .corpus import Sentence, Vocabulary, random_embeddings
from .crf import TagLattice, crf_nll, emission_scores, viterbi_decode
from .layers import (
    EmbeddingTable,
    LstmParams,
    bilstm_run,
    dense_tanh,
    embedding_lookup,
    glorot_uniform,
    init_lstm_params,
)

ARCHITECTURES = ("word", "concat", "attention")
OUTPUTS = ("softmax", "crf")

MODEL_MAGIC = b"SQTG"
MODEL_FORMAT_VERSION = 2

# accepted Python types per declared field type; bool is an int but no int field takes one
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass
class ModelConfig:
    architecture: str = "word"
    output: str = "crf"
    word_dim: int = 300
    char_dim: int = 50
    word_lstm_hidden: int = 200
    char_lstm_hidden: int = 200
    d_size: int = 50
    batch_size: int = 64
    patience: int = 7
    learning_rate: float = 1.0
    rho: float = 0.95
    epsilon: float = 1e-6
    seed: int = 1
    max_epochs: int = 100
    shuffle: bool = False
    dev_metric: str = "acc"
    positive_label: str = ""
    dtype: str = "float32"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}")
        if self.output not in OUTPUTS:
            raise ValueError(f"output must be one of {OUTPUTS}, got {self.output!r}")
        for name in ("word_dim", "char_dim", "word_lstm_hidden", "char_lstm_hidden",
                     "d_size", "batch_size", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not (0 < self.epsilon < math.inf and 0 < self.learning_rate < math.inf):
            raise ValueError("epsilon and learning_rate must be positive and finite")
        if self.dev_metric not in ("acc", "span-f1", "f0.5"):
            raise ValueError(f"dev_metric must be acc, span-f1 or f0.5, got {self.dev_metric!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        return self

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d).validate()


class Model:
    """Named parameter collection plus the batch loss and per-sentence prediction."""

    def __init__(self, config, vocab, word_emb, word_fwd, word_bwd, w_d, w_o,
                 transitions=None, char=None, attn=None):
        self.config = config
        self.vocab = vocab
        self.word_emb: EmbeddingTable = word_emb
        self.word_fwd: LstmParams = word_fwd
        self.word_bwd: LstmParams = word_bwd
        self.w_d: Tensor = w_d
        self.w_o: Tensor = w_o
        self.transitions: Tensor | None = transitions
        self.char: CharComposerParams | None = char
        self.attn: AttentionParams | None = attn
        self._registry = self._build_registry()

    def _build_registry(self) -> dict:
        reg = {"word_embeddings": self.word_emb.matrix}
        for tag, p in (("fwd", self.word_fwd), ("bwd", self.word_bwd)):
            reg[f"word_lstm.{tag}.w_x"] = p.w_x
            reg[f"word_lstm.{tag}.w_h"] = p.w_h
            reg[f"word_lstm.{tag}.b"] = p.b
        reg["hidden.w_d"] = self.w_d
        reg["output.w_o"] = self.w_o
        if self.transitions is not None:
            reg["crf.transitions"] = self.transitions
        if self.char is not None:
            reg["char_embeddings"] = self.char.char_embeddings.matrix
            for tag, p in (("fwd", self.char.fwd), ("bwd", self.char.bwd)):
                reg[f"char_lstm.{tag}.w_x"] = p.w_x
                reg[f"char_lstm.{tag}.w_h"] = p.w_h
                reg[f"char_lstm.{tag}.b"] = p.b
            reg["char_proj.w_m"] = self.char.w_m
        if self.attn is not None:
            reg["attn.w_z1"] = self.attn.w_z1
            reg["attn.w_z2"] = self.attn.w_z2
            reg["attn.w_z3"] = self.attn.w_z3
        return reg

    # -- parameter access ---------------------------------------------------

    def all_tensors(self) -> dict:
        return dict(self._registry)

    def named_parameters(self) -> dict:
        """Trainable tensors only, in stable registry order."""
        return {n: t for n, t in self._registry.items() if not t.constant}

    def zero_grad(self):
        for t in self._registry.values():
            t.grad = None

    def state_arrays(self) -> dict:
        return {n: t.values.copy() for n, t in self._registry.items()}

    def load_state_arrays(self, state: dict):
        for name, values in state.items():
            self._registry[name].values[...] = values

    # -- forward ------------------------------------------------------------

    def _require_encoded(self, sent: Sentence, need_gold: bool):
        if sent.word_ids is None or sent.char_ids is None:
            raise ValueError("sentence has not been encoded against the vocabulary")
        if need_gold and sent.gold is None:
            raise ValueError("sentence has no gold label ids")

    def oov_flags(self, sent: Sentence) -> list:
        return [wid == self.vocab.oov_word_id for wid in sent.word_ids]

    def _compose(self, sents):
        """Character vectors for the distinct word types of ``sents``, each
        composed once, and per sentence the row each of its tokens reads."""
        rows: dict = {}
        token_rows = [
            np.array([rows.setdefault(tuple(cids), len(rows)) for cids in sent.char_ids])
            for sent in sents
        ]
        return compose_words(list(rows), self.char), token_rows

    def _token_inputs(self, sents):
        """(word-LSTM input, x, m, z) for sentences stacked one token per row."""
        x = embedding_lookup(self.word_emb, np.concatenate([sent.word_ids for sent in sents]))
        arch = self.config.architecture
        if arch == "word":
            return x, x, None, None
        m_all, token_rows = self._compose(sents)
        m = pick_row(m_all, np.concatenate(token_rows))
        if arch == "concat":
            return combine_concat(x, m), x, m, None
        combined, z = combine_attention(x, m, self.attn)
        return combined, x, m, z

    def _emissions(self, inputs, lengths) -> Tensor:
        states = bilstm_run(inputs, self.word_fwd, self.word_bwd, lengths)
        return emission_scores(dense_tanh(states, self.w_d), self.w_o)

    def batch_loss_parts(self, sents):
        """(summed loss, summed auxiliary term or None) over a batch of sentences.

        The loss is the sum of the per-sentence losses. The batch runs
        through the word level as one token matrix: one lookup, one
        composer pass, one BiLSTM run per direction over the sentences
        back to back, one hidden and output layer, and one CRF loss over
        all the sentences' score rows. The auxiliary term is a float,
        already included in the loss.
        """
        sents = list(sents)
        if not sents:
            raise ValueError("batch_loss_parts: empty batch")
        for sent in sents:
            self._require_encoded(sent, need_gold=True)
        lengths = [len(sent.word_ids) for sent in sents]
        inputs, x, m, _ = self._token_inputs(sents)
        scores = self._emissions(inputs, lengths)
        gold = np.concatenate([sent.gold for sent in sents])
        if self.config.output == "crf":
            total = crf_nll(TagLattice(scores, self.transitions), gold, lengths)
        else:
            total = _softmax_nll(scores, gold)
        if self.config.architecture != "attention":
            return total, None
        aux = char_aux_loss(m, x, [flag for sent in sents for flag in self.oov_flags(sent)])
        return add(total, aux), float(aux.values)

    def sentence_loss_parts(self, sent: Sentence):
        """(total loss, auxiliary term or None) for one sentence."""
        return self.batch_loss_parts([sent])

    def sentence_loss(self, sent: Sentence) -> Tensor:
        total, _ = self.sentence_loss_parts(sent)
        return total

    def predict(self, sent: Sentence) -> list:
        """Label ids for one sentence; never records on a tape."""
        self._require_encoded(sent, need_gold=False)
        with no_tape():
            scores = self._emissions(self._token_inputs([sent])[0], None)
            if self.config.output == "crf":
                path, _ = viterbi_decode(TagLattice(scores, self.transitions))
                return path
            return [int(k) for k in np.argmax(scores.values, axis=1)]

    def predict_labels(self, sent: Sentence) -> list:
        return [self.vocab.label_set.label(i) for i in self.predict(sent)]

    def gates(self, sent: Sentence) -> list:
        """Per-token gate vectors z; attention models only."""
        if self.config.architecture != "attention":
            raise ValueError(
                f"gates: model architecture is {self.config.architecture!r}, "
                "gate inspection needs an attention model"
            )
        self._require_encoded(sent, need_gold=False)
        with no_tape():
            z = self._token_inputs([sent])[3]
        return [row.copy() for row in z.values]


def _softmax_nll(scores: Tensor, gold) -> Tensor:
    """Summed per-token cross-entropy of (T, K) label scores."""
    log_norm = reduce_sum(log_sum_exp(transpose(scores), axis=0))
    gold_score = reduce_sum(pick_row(scores, (np.arange(scores.shape[0]), np.asarray(gold))))
    return add(log_norm, multiply(gold_score, const_like(-1.0, gold_score)))


def assemble_model(config: ModelConfig, vocab: Vocabulary,
                   pretrained: EmbeddingTable | None = None) -> Model:
    """Instantiate all parameters for the configured architecture.

    Creation order is fixed, so a given seed always produces the same
    initialization. A supplied pretrained table replaces the random
    word embeddings and must match word_dim.
    """
    config.validate()
    dtype = config.np_dtype()
    rng = np.random.default_rng(config.seed)
    n_labels = len(vocab.label_set)

    if pretrained is not None:
        if pretrained.dim != config.word_dim:
            raise ValueError(
                f"pretrained embedding dim {pretrained.dim} != word_dim {config.word_dim}"
            )
        if pretrained.vocab_size != vocab.n_words:
            raise ValueError(
                f"pretrained table has {pretrained.vocab_size} rows, vocabulary has {vocab.n_words}"
            )
        word_emb = EmbeddingTable(
            Tensor(pretrained.matrix.values.astype(dtype)),
            oov_row=pretrained.oov_row,
            trainable=pretrained.trainable,
        )
    else:
        word_emb = random_embeddings(vocab.n_words, config.word_dim, rng, dtype)

    word_input = 2 * config.word_dim if config.architecture == "concat" else config.word_dim
    word_fwd = init_lstm_params(rng, word_input, config.word_lstm_hidden, dtype)
    word_bwd = init_lstm_params(rng, word_input, config.word_lstm_hidden, dtype)
    w_d = Tensor(glorot_uniform(rng, config.d_size, 2 * config.word_lstm_hidden, dtype))
    w_o = Tensor(glorot_uniform(rng, n_labels, config.d_size, dtype))
    transitions = None
    if config.output == "crf":
        transitions = Tensor(np.zeros((n_labels + 2, n_labels + 2), dtype=dtype))

    char = None
    attn = None
    if config.architecture in ("concat", "attention"):
        char_emb = random_embeddings(vocab.n_chars, config.char_dim, rng, dtype)
        char_fwd = init_lstm_params(rng, config.char_dim, config.char_lstm_hidden, dtype)
        char_bwd = init_lstm_params(rng, config.char_dim, config.char_lstm_hidden, dtype)
        w_m = Tensor(glorot_uniform(rng, config.word_dim, 2 * config.char_lstm_hidden, dtype))
        char = CharComposerParams(char_emb, char_fwd, char_bwd, w_m)
    if config.architecture == "attention":
        attn = AttentionParams(
            Tensor(glorot_uniform(rng, config.word_dim, config.word_dim, dtype)),
            Tensor(glorot_uniform(rng, config.word_dim, config.word_dim, dtype)),
            Tensor(glorot_uniform(rng, config.word_dim, config.word_dim, dtype)),
        )

    return Model(config, vocab, word_emb, word_fwd, word_bwd, w_d, w_o,
                 transitions=transitions, char=char, attn=attn)


def _stored_scalars(config: ModelConfig, vocab: Vocabulary) -> int:
    """Entries of every tensor ``assemble_model`` would build, counted without building them."""
    def lstm(inputs, hidden):
        return 4 * hidden * (inputs + hidden + 1)

    words, labels = config.word_dim, len(vocab.label_set)
    total = vocab.n_words * words
    total += 2 * lstm(2 * words if config.architecture == "concat" else words, config.word_lstm_hidden)
    total += config.d_size * (2 * config.word_lstm_hidden + labels)
    if config.output == "crf":
        total += (labels + 2) ** 2
    if config.architecture != "word":
        total += vocab.n_chars * config.char_dim + 2 * lstm(config.char_dim, config.char_lstm_hidden)
        total += words * 2 * config.char_lstm_hidden
    if config.architecture == "attention":
        total += 3 * words * words
    return total


def count_parameters(model: Model):
    """(total trainable scalars, total excluding the word-embedding table)."""
    total = sum(t.size for t in model.named_parameters().values())
    emb = model.word_emb.matrix
    noemb = total - (emb.size if not emb.constant else 0)
    return total, noemb


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

class ModelFormatError(ValueError):
    pass


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Write to a temporary file beside ``path`` that replaces it on success.

    If the block raises, the temporary file is removed and whatever was
    at ``path`` before is left untouched. A file that is replaced keeps
    its permission bits (not its owner). The data and then the directory
    entry are synced, so after a crash ``path`` holds either the old or
    the new content in full.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            if path.exists():
                os.chmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _stored_dtype(config: ModelConfig, version: int = MODEL_FORMAT_VERSION) -> str:
    """Dtype of the tensor data in a file: float32 in version 1, the model's own after."""
    return "<f4" if version == 1 or config.dtype == "float32" else "<f8"


def save_model(model: Model, path):
    header = {
        "format": "seqtag-model",
        "format_version": MODEL_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "tensors": [
            {"name": name, "shape": list(t.shape)}
            for name, t in model.all_tensors().items()
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    stored = _stored_dtype(model.config)
    with atomic_open(path) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, t in model.all_tensors().items():
            fh.write(np.ascontiguousarray(t.values, dtype=stored).tobytes())


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"{path}: not a seqtag model file (bad magic)")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ModelFormatError(f"{path}: truncated model file (missing header length)")
        (header_len,) = struct.unpack("<Q", raw_len)
        if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ModelFormatError(
                f"{path}: header length {header_len} exceeds the file size"
            )
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ModelFormatError(f"{path}: truncated model file (incomplete header)")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"{path}: corrupt header ({exc})") from None
        if not isinstance(header, dict):
            raise ModelFormatError(f"{path}: corrupt header (not a JSON object)")
        version = header.get("format_version")
        if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
            raise ModelFormatError(
                f"{path}: unsupported format version {version!r}, "
                f"expected 1 or {MODEL_FORMAT_VERSION}"
            )
        for key, kind in (("config", dict), ("vocab", dict), ("tensors", list)):
            if not isinstance(header.get(key), kind):
                raise ModelFormatError(
                    f"{path}: header field {key!r} is missing or not a {kind.__name__}"
                )
        try:
            config = ModelConfig.from_dict(header["config"])
            vocab = Vocabulary.from_dict(header["vocab"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"{path}: bad header ({type(exc).__name__}: {exc})") from None
        manifest = header["tensors"]
        for entry in manifest:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
            ):
                raise ModelFormatError(f"{path}: bad tensor manifest entry {entry!r}")
        stored = np.dtype(_stored_dtype(config, version))
        # checked before assembly, so a forged size cannot allocate more than the file holds
        needed = _stored_scalars(config, vocab) * stored.itemsize
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if needed > held:
            raise ModelFormatError(
                f"{path}: truncated model file (the configuration needs {needed} bytes "
                f"of tensor data, the file holds {held})"
            )
        model = assemble_model(config, vocab)
        registry = model.all_tensors()
        if {e["name"] for e in manifest} != set(registry):
            raise ModelFormatError(f"{path}: tensor names do not match the configuration")
        dtype = config.np_dtype()
        for entry in manifest:
            name, shape = entry["name"], tuple(entry["shape"])
            target = registry[name]
            if target.shape != shape:
                raise ModelFormatError(
                    f"{path}: shape mismatch for {name}: file {shape}, model {target.shape}"
                )
            nbytes = int(np.prod(shape, dtype=np.int64)) * stored.itemsize
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ModelFormatError(f"{path}: truncated model file (tensor {name})")
            target.values[...] = np.frombuffer(raw, dtype=stored).reshape(shape).astype(dtype)
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing data after last tensor")
    return model
