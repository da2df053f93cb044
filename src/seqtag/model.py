"""The network's layers, model assembly, parameter accounting and persistence.

Three architectures share one word-level pipeline (embedding lookup,
bidirectional LSTM, narrow tanh layer, output scores), built here from
the tape primitives of ``seqtag.autodiff``:

* ``word``       feeds word embeddings straight in
* ``concat``     appends the character-composed vector, doubling the
                 width of the word-level LSTM input
* ``attention``  gates the two vectors together, keeping the input
                 width unchanged, and adds the auxiliary cosine term
                 to the training loss

The character-composed vector ``m`` of a word comes from its characters'
own bidirectional LSTM: ``compose_words`` joins the final state of each
direction and projects it through tanh to the word-embedding width, for
a list of character sequences at once, with one ragged ``lstm_sequence``
node per direction whatever their lengths. ``combine_attention``
predicts a sigmoid gate ``z`` from the word embedding ``x`` and ``m``
and returns ``z * x + (1 - z) * m``, a per-feature convex mix, in one
``mix`` node. ``char_aux_loss`` is the attention model's auxiliary term:
``1 - cos(m, x)`` summed over the tokens, one ``cosine_distance`` node
and its sum. ``x`` enters through ``stop_gradient``, so the pull moves
the character composer only, and tokens mapped to the OOV row are
skipped entirely.

The output layer is either a per-token softmax or a linear-chain CRF.
Both train through the one CRF loss node, ``autodiff.crf_nll``: a
softmax is the CRF of one-token sentences with zero transitions (Sutton
& McCallum, arXiv:1011.4088).

Sentences flow through the pipeline as one (N, ·) matrix, one token per
row, with a batch's sentences back to back. ``Model.batch_loss_parts``
is the one loss path: it composes each distinct word type of the batch
once, lets every occurrence read its row, and runs the word BiLSTM once
per direction over all the batch's sentences; a single sentence's loss
is the batch-of-one case, and so are prediction and gate inspection.

``parameter_table`` lists every tensor of a configuration: its name,
shape and starting values. ``assemble_model`` creates the tensors in
that order from the seed, a ``Model`` holds them as one dict of named
tensors, ``count_parameters`` sums their sizes, and a saved file stores
them in the same order.

Saved models are a single binary container: a short magic, a JSON
header (format version, configuration, vocabulary, tensor manifest)
and the raw parameter data as little-endian floats of the configured
dtype, so a model reloads to exactly its trained values. Version 1
files, which stored every model as 32-bit floats, still load. Before it
allocates anything, loading checks that the file holds as much parameter
data as the configuration's table implies and that the manifest lists
each of the table's tensors once, with its shape.
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

from .autodiff import (Tensor, add, concat, cosine_distance, crf_nll, linear, lstm_sequence, mix, no_tape,
                       pick_row, reduce_sum, sigmoid, stop_gradient, tanh)
from .corpus import Sentence, Vocabulary, random_embeddings
from .crf import TagLattice, viterbi_decode

ARCHITECTURES = ("word", "concat", "attention")
OUTPUTS = ("softmax", "crf")
METRICS = ("acc", "span-f1", "f0.5")

MODEL_MAGIC = b"SQTG"
MODEL_FORMAT_VERSION = 2

# per declared field type: the Python types a value may have (bool is an int, but no int field
# takes one), how a config file's string is read, and what an error says was expected
FIELD_TYPES = {
    "int": (int, int, "an int"),
    "float": ((int, float), float, "a float"),
    "bool": (bool, lambda value: {"true": True, "false": False, "1": True, "0": False,
                                  "yes": True, "no": False}[str(value).lower()], "a boolean"),
    "str": (str, str, "a string"),
}


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
            if not isinstance(value, FIELD_TYPES[f.type][0]) or (isinstance(value, bool) and f.type != "bool"):
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
        if self.dev_metric not in METRICS:
            raise ValueError(f"dev_metric must be one of {METRICS}, got {self.dev_metric!r}")
        if self.dev_metric == "f0.5" and not self.positive_label:
            raise ValueError("dev_metric f0.5 needs a positive label: set positive_label")
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


def bilstm_run(inputs: Tensor, fwd, bwd, lengths) -> Tensor:
    """Both directions of an LSTM, each a ``(w_x, w_h, b)`` triple, from zero states.

    ``inputs`` is (N, D): sequences of the given ``lengths`` stored back
    to back, each run on its own. Row i of the (N, 2H) result joins the
    forward state after position i of its sequence with the backward
    state after scanning back to it.
    """
    forward = lstm_sequence(inputs, *fwd, lengths)
    backward = lstm_sequence(inputs, *bwd, lengths, reverse=True)
    return concat((forward, backward))


def compose_words(char_seqs, char_emb: Tensor, fwd, bwd, w_m: Tensor) -> Tensor:
    """Character-level word vectors m, one row per character sequence.

    All sequences' characters, stored back to back, run through the
    character BiLSTM as one ragged ``lstm_sequence`` per direction; a
    word's final states are its last row forward and its first row
    backward, so a call costs eight tape nodes whatever its lengths. Row
    i of the (len(char_seqs), word_dim) result is the vector of
    ``char_seqs[i]``.
    """
    seqs = [list(s) for s in char_seqs]
    if not seqs:
        raise ValueError("compose_words: no character sequences")
    lengths = np.array([len(s) for s in seqs])
    if not lengths.all():
        raise ValueError("compose_words: empty character sequence")
    ends = np.cumsum(lengths)
    chars = pick_row(char_emb, np.concatenate(seqs))
    forward = lstm_sequence(chars, *fwd, lengths)
    backward = lstm_sequence(chars, *bwd, lengths, reverse=True)
    h_star = concat((pick_row(forward, ends - 1), pick_row(backward, ends - lengths)))
    return tanh(linear(h_star, w_m))


def combine_attention(x: Tensor, m: Tensor, w_z1: Tensor, w_z2: Tensor, w_z3: Tensor):
    """Gate the two word representations; returns (combined, z).

    x and m are (N, dim) matrices with one token per row.
    Every entry of z lies strictly inside (0, 1), so the combination is
    a per-feature convex mix of x and m. z is returned so callers can
    export and inspect it.
    """
    # row-vector form of z = sigmoid(W3 tanh(W1 x + W2 m)), one row per token
    hidden = tanh(add(linear(x, w_z1), linear(m, w_z2)))
    z = sigmoid(linear(hidden, w_z3))
    return mix(z, x, m), z


def char_aux_loss(m: Tensor, x: Tensor, oov_mask) -> Tensor:
    """Cosine pull of m toward x, summed over non-OOV positions.

    m and x are (N, dim) matrices, one token per row. Each kept row
    contributes 1 - cos(m_t, x_t). x passes through stop_gradient, so
    minimizing this term never moves word embeddings.
    """
    oov_mask = np.asarray(oov_mask, dtype=bool)
    if m.values.ndim != 2 or m.shape != x.shape or oov_mask.shape != m.shape[:1]:
        raise ValueError(
            f"char_aux_loss: length mismatch {m.shape}/{x.shape}/{oov_mask.shape}"
        )
    kept = np.flatnonzero(~oov_mask)
    if not kept.size:
        return Tensor(np.zeros((), dtype=m.values.dtype), constant=True)
    return reduce_sum(cosine_distance(pick_row(m, kept), stop_gradient(Tensor(x.values[kept]))))


def emission_scores(d: Tensor, w_o: Tensor) -> Tensor:
    """Emission rows W_o @ d_t for a (T, d) matrix of token states, as one (T, K) tensor."""
    return linear(d, w_o)


class Model:
    """The parameter tensors by name, plus the batch loss and per-sentence prediction."""

    def __init__(self, config, vocab, params: dict):
        self.config = config
        self.vocab = vocab
        self.params = params  # name -> Tensor, in ``parameter_table`` order

    @property
    def transitions(self) -> Tensor | None:
        """The CRF's transition scores; None for a softmax model."""
        return self.params.get("crf.transitions")

    def _lstm(self, prefix: str) -> tuple:
        return tuple(self.params[f"{prefix}.{w}"] for w in ("w_x", "w_h", "b"))

    # -- parameter access ---------------------------------------------------

    def all_tensors(self) -> dict:
        return dict(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def state_arrays(self) -> dict:
        return {n: t.values.copy() for n, t in self.params.items()}

    def load_state_arrays(self, state: dict):
        for name, values in state.items():
            self.params[name].values[...] = values

    # -- forward ------------------------------------------------------------

    def _require_encoded(self, sent: Sentence, need_gold: bool):
        if sent.word_ids is None or sent.char_ids is None:
            raise ValueError("sentence has not been encoded against the vocabulary")
        if need_gold and sent.gold is None:
            raise ValueError("sentence has no gold label ids")

    def _compose(self, sents):
        """Character vectors for the distinct word types of ``sents``, each
        composed once, and per sentence the row each of its tokens reads."""
        rows: dict = {}
        token_rows = [
            np.array([rows.setdefault(tuple(cids), len(rows)) for cids in sent.char_ids])
            for sent in sents
        ]
        m = compose_words(list(rows), self.params["char_embeddings"], self._lstm("char_lstm.fwd"),
                          self._lstm("char_lstm.bwd"), self.params["char_proj.w_m"])
        return m, token_rows

    def _token_inputs(self, sents):
        """(word-LSTM input, word ids, x, m, z) for sentences stacked one token per row."""
        ids = np.concatenate([sent.word_ids for sent in sents])
        x = pick_row(self.params["word_embeddings"], ids)
        arch = self.config.architecture
        if arch == "word":
            return x, ids, x, None, None
        m_all, token_rows = self._compose(sents)
        m = pick_row(m_all, np.concatenate(token_rows))
        if arch == "concat":
            return concat((x, m)), ids, x, m, None
        combined, z = combine_attention(x, m, *(self.params[f"attn.w_z{i}"] for i in (1, 2, 3)))
        return combined, ids, x, m, z

    def _emissions(self, inputs, lengths) -> Tensor:
        states = bilstm_run(inputs, self._lstm("word_lstm.fwd"), self._lstm("word_lstm.bwd"), lengths)
        return emission_scores(tanh(linear(states, self.params["hidden.w_d"])), self.params["output.w_o"])

    def batch_loss_parts(self, sents):
        """(summed loss, summed auxiliary term or None) over a batch of sentences.

        The loss is the sum of the per-sentence losses. The batch runs
        through the word level as one token matrix: one lookup, one
        composer pass, one BiLSTM run per direction over the sentences
        back to back, one hidden and output layer, and one CRF loss node
        over all the sentences' score rows. The auxiliary term is a float,
        already included in the loss.
        """
        sents = list(sents)
        if not sents:
            raise ValueError("batch_loss_parts: empty batch")
        for sent in sents:
            self._require_encoded(sent, need_gold=True)
        lengths = [len(sent.word_ids) for sent in sents]
        inputs, ids, x, m, _ = self._token_inputs(sents)
        scores = self._emissions(inputs, lengths)
        gold = np.concatenate([sent.gold for sent in sents])
        transitions = self.transitions
        if transitions is None:
            k = scores.shape[1]
            transitions = Tensor(np.zeros((k + 2, k + 2), dtype=scores.dtype), constant=True)
            lengths = [1] * len(gold)
        total = crf_nll(scores, transitions, gold, lengths)
        if self.config.architecture != "attention":
            return total, None
        aux = char_aux_loss(m, x, ids == self.vocab.oov_word_id)
        return add(total, aux), float(aux.values)

    def predict(self, sent: Sentence) -> list:
        """Label ids for one sentence; never records on a tape."""
        self._require_encoded(sent, need_gold=False)
        with no_tape():
            scores = self._emissions(self._token_inputs([sent])[0], [len(sent)])
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
            z = self._token_inputs([sent])[4]
        return [row.copy() for row in z.values]


def glorot_uniform(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Uniform in ±sqrt(6 / (fan_in + fan_out)), the two dimensions of ``shape``."""
    limit = math.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def lstm_bias(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """A packed (4H,) LSTM bias: 1.0 for the forget gate, 0 for the others."""
    b = np.zeros(shape, dtype=dtype)
    hidden = shape[0] // 4
    b[hidden : 2 * hidden] = 1.0
    return b


def zeros(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


def parameter_table(config: ModelConfig, vocab: Vocabulary) -> list:
    """(name, shape, init) of every tensor of a configuration.

    The list order is the creation order, so a given seed always draws
    the same values, and it is also the order of ``Model.params`` and of
    the tensors in a saved file. ``init(rng, shape, dtype)`` returns a
    tensor's starting values. Shapes are Python ints, so a model too
    large to build still has its table.
    """
    words, labels = config.word_dim, len(vocab.label_set)

    def lstm(prefix, inputs, hidden):
        return [(f"{prefix}.{direction}.{name}", shape, init)
                for direction in ("fwd", "bwd")
                for name, shape, init in (("w_x", (inputs, 4 * hidden), glorot_uniform),
                                          ("w_h", (hidden, 4 * hidden), glorot_uniform),
                                          ("b", (4 * hidden,), lstm_bias))]

    word_input = 2 * words if config.architecture == "concat" else words
    table = [("word_embeddings", (vocab.n_words, words), random_embeddings)]
    table += lstm("word_lstm", word_input, config.word_lstm_hidden)
    table += [("hidden.w_d", (config.d_size, 2 * config.word_lstm_hidden), glorot_uniform),
              ("output.w_o", (labels, config.d_size), glorot_uniform)]
    if config.output == "crf":
        table.append(("crf.transitions", (labels + 2, labels + 2), zeros))
    if config.architecture != "word":
        table.append(("char_embeddings", (vocab.n_chars, config.char_dim), random_embeddings))
        table += lstm("char_lstm", config.char_dim, config.char_lstm_hidden)
        table.append(("char_proj.w_m", (words, 2 * config.char_lstm_hidden), glorot_uniform))
    if config.architecture == "attention":
        table += [(f"attn.w_z{i}", (words, words), glorot_uniform) for i in (1, 2, 3)]
    return table


def assemble_model(config: ModelConfig, vocab: Vocabulary, pretrained=None) -> Model:
    """Create every tensor of ``parameter_table`` in its order, from the seed.

    A supplied pretrained (n_words, word_dim) matrix takes the place of
    the word-embedding draw.
    """
    config.validate()
    dtype = config.np_dtype()
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape, init in parameter_table(config, vocab):
        if name == "word_embeddings" and pretrained is not None:
            if np.shape(pretrained) != shape:
                raise ValueError(
                    f"pretrained table shape {np.shape(pretrained)} != (vocabulary words, word_dim) {shape}"
                )
            params[name] = Tensor(np.asarray(pretrained).astype(dtype))
        else:
            params[name] = Tensor(init(rng, shape, dtype))
    return Model(config, vocab, params)


def count_parameters(config: ModelConfig, vocab: Vocabulary):
    """(total scalars, total excluding the word-embedding table), without building the model."""
    sizes = {name: math.prod(shape) for name, shape, _ in parameter_table(config, vocab)}
    total = sum(sizes.values())
    return total, total - sizes["word_embeddings"]


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
        # checked before anything is allocated, so a forged size cannot allocate more than the file holds
        needed = count_parameters(config, vocab)[0] * stored.itemsize
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if needed > held:
            raise ModelFormatError(
                f"{path}: truncated model file (the configuration needs {needed} bytes "
                f"of tensor data, the file holds {held})"
            )
        table = parameter_table(config, vocab)
        shapes = {name: shape for name, shape, _ in table}
        if (sorted(e["name"] for e in manifest) != sorted(shapes)
                or any(tuple(e["shape"]) != shapes[e["name"]] for e in manifest)):
            raise ModelFormatError(
                f"{path}: the tensor manifest does not list each tensor of the configuration "
                "once with its shape"
            )
        dtype = config.np_dtype()
        loaded = {}
        for entry in manifest:
            name = entry["name"]
            shape = shapes[name]
            nbytes = math.prod(shape) * stored.itemsize
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ModelFormatError(f"{path}: truncated model file (tensor {name})")
            loaded[name] = Tensor(np.frombuffer(raw, dtype=stored).reshape(shape).astype(dtype))
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing data after last tensor")
    return Model(config, vocab, {name: loaded[name] for name, _, _ in table})
