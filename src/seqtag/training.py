"""AdaDelta optimization, the training loop and early stopping.

``train`` encodes the sentences it is given unencoded with one
``Vocabulary.encode_corpus`` call per split, which works per word type:
each distinct normalized token is looked up once, and all its tokens
share one read-only tuple of char ids.

Batches are formed by sentence count in corpus order (a shuffle flag
reshuffles per epoch from the run seed). The batch loss is the sum of
the per-sentence losses, built in one pass over the batch
(``Model.batch_loss_parts``): each distinct word type's characters are
composed once per batch and shared by all of its tokens, the word
BiLSTM runs once per direction over all the batch's sentences, and the
CRF loss is one node over all of them, which changes how much work a
step does but not the sum it computes. An embedding table's gradient
arrives as the rows the batch picked (``autodiff.RowGrad``), and the
AdaDelta step updates only those rows, in place on gathered copies
(see ``AdaDelta``), with the same result as updating every row.
``train`` first has glibc keep freed memory mapped (``_retain_heap``),
since each step would otherwise fault in again the tens of MB of
temporaries the step before it freed.
Development decoding still predicts one sentence at a time. Training
stops once the development metric has not improved for ``patience``
epochs, and the parameters from the best development epoch are what the
caller gets back.

Optimizer steps rejected for non-finite gradients or updates are
counted per epoch. An epoch whose every step was rejected, or whose
training loss is not finite, ends the run with ``TrainingFailed``.
"""

from __future__ import annotations

import ctypes
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from .autodiff import RowGrad, Tape, backward
from .corpus import Vocabulary
from .metrics import MetricResult, check_iob_labels, extract_spans, f_beta_binary, span_f1, token_accuracy
from .model import Model, ModelConfig, assemble_model

log = logging.getLogger(__name__)


class AdaDelta:
    """Adaptive steps from running averages of squared gradients/updates.

    Per parameter entry, with decay rho and stabilizer eps:

        Eg2 <- rho * Eg2 + (1 - rho) * g^2
        step = -sqrt(Ed2 + eps) / sqrt(Eg2 + eps) * g
        Ed2 <- rho * Ed2 + (1 - rho) * step^2
        theta <- theta + lr * step

    A step updates only the rows of a parameter whose gradient has a
    nonzero entry (a vector is one row): a batch touches a few hundred
    rows of a large embedding table, whose gradient comes as those rows
    (a ``RowGrad``). The formulas run in place on the gathered rows, in
    the order written above. This is exact up to rounding. For a
    row whose gradient is zero the update multiplies Eg2 and Ed2 by rho
    and leaves theta unchanged bit for bit, since its step is zero. So
    each row records the parameter's step count at its last update, and
    a row skipped for k steps has both accumulators multiplied by rho**k
    when it is next touched. No catch-up is ever owed to theta, so the
    parameters can be copied or saved at any time. A row touched on
    consecutive steps is multiplied by rho**0 == 1, which leaves a
    dense gradient's update bit-identical to the formulas above.
    """

    def __init__(self, params: dict, rho: float = 0.95, epsilon: float = 1e-6,
                 learning_rate: float = 1.0):
        if not 0.0 <= rho < 1.0:
            raise ValueError("AdaDelta: rho must lie in [0, 1)")
        if not 0 < epsilon < math.inf:
            raise ValueError("AdaDelta: epsilon must be positive and finite")
        if not 0 < learning_rate < math.inf:
            raise ValueError("AdaDelta: learning_rate must be positive and finite")
        self.params = dict(params)
        self.rho = rho
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        self._sq_grad = {n: np.zeros_like(p.values) for n, p in self.params.items()}
        self._sq_step = {n: np.zeros_like(p.values) for n, p in self.params.items()}
        # per parameter: the steps that carried its gradient, and per row that
        # count at the row's last update
        self._steps = dict.fromkeys(self.params, 0)
        self._updated = {n: np.zeros(len(_rows(p.values)), dtype=np.int64)
                         for n, p in self.params.items()}

    def step(self) -> bool:
        """Apply one update from the accumulated gradients.

        Every touched row's new values and accumulators are computed
        beside the stored ones first. A non-finite gradient, or an update
        that would store a non-finite number, rejects the whole step:
        nothing is mutated and the incident is logged. Parameters
        without a gradient are left alone.
        """
        rho, eps, lr = self.rho, self.epsilon, self.learning_rate
        updates = []
        # overflow and invalid arithmetic show up as non-finite results, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in self.params.items():
                if p.grad is None:
                    continue
                rows, g = _touched(p.grad)
                if not np.isfinite(g).all():
                    log.warning("adadelta: non-finite gradient for %s, step rejected", name)
                    return False
                count = self._steps[name] + 1
                sq_grad = _rows(self._sq_grad[name])[rows]
                sq_step = _rows(self._sq_step[name])[rows]
                lag = count - 1 - self._updated[name][rows]
                if lag.any():  # a row skipped for k steps decays by rho**k first
                    decay = np.power(rho, lag)[:, None].astype(g.dtype)
                    sq_grad = sq_grad * decay
                    sq_step = sq_step * decay
                # in place on new arrays only: with every row touched the gathers are views
                eg2 = g * (1.0 - rho)
                eg2 *= g
                eg2 += sq_grad * rho
                step = sq_step + eps
                np.sqrt(step, out=step)
                np.negative(step, out=step)
                ed2 = eg2 + eps
                np.sqrt(ed2, out=ed2)
                step /= ed2
                step *= g
                np.multiply(step, 1.0 - rho, out=ed2)
                ed2 *= step
                ed2 += sq_step * rho
                step *= lr
                theta = _rows(p.values)[rows] + step
                if not (np.isfinite(theta).all() and np.isfinite(eg2).all() and np.isfinite(ed2).all()):
                    log.warning("adadelta: non-finite update for %s, step rejected", name)
                    return False
                updates.append((name, rows, count, theta, eg2, ed2))
        for name, rows, count, theta, eg2, ed2 in updates:
            _rows(self.params[name].values)[rows] = theta
            _rows(self._sq_grad[name])[rows] = eg2
            _rows(self._sq_step[name])[rows] = ed2
            self._updated[name][rows] = count
            self._steps[name] = count
        return True


def _rows(a):
    """A parameter-shaped array as a matrix of rows, sharing its memory: a vector is one row."""
    return a if a.ndim == 2 else a.reshape(1, -1)


def _touched(grad):
    """(rows, their gradient) for the rows with a nonzero entry; a slice when that is every row."""
    if isinstance(grad, RowGrad):
        live = grad.values.any(axis=1)
        if live.all():
            return grad.rows, grad.values
        return grad.rows[live], grad.values[live]
    grad = _rows(grad)
    rows = np.flatnonzero(grad.any(axis=1))
    if len(rows) == len(grad):
        return slice(None), grad
    return rows, grad[rows]


# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_heap():
    """Have glibc keep the memory a train step frees for the next step.

    By default glibc maps large blocks afresh and unmaps them on free, and
    returns free heap beyond 128 kB, so each step would fault in again the
    tens of MB its predecessor freed. Here blocks up to 32 MB come from the
    heap and up to 256 MB of it stays mapped. The trim setting alone would
    stop the mmap threshold's self-tuning and map more. Numbers do not
    change. Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt, or (Windows) no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20)):
        if mallopt(param, value) != 1:
            log.warning("mallopt(%d, %d) failed: freed memory goes back to the system", param, value)


@dataclass
class EpochStats:
    """One epoch's row of the report; each field is a column of ``report.json`` and
    ``report.tsv``, written in the TSV with its ``tsv`` format."""

    epoch: int
    train_loss: float
    aux_loss: float
    dev_metric: float
    seconds: float = field(metadata={"tsv": "{:.3f}"})
    rejected_steps: int = 0


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def best_dev_metric(self) -> float:
        return max(e.dev_metric for e in self.epochs)

    def to_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        columns = fields(EpochStats)
        lines = ["\t".join(f.name for f in columns)]
        for e in self.epochs:
            lines.append("\t".join(f.metadata.get("tsv", "{!r}").format(getattr(e, f.name)) for f in columns))
        return "\n".join(lines) + "\n"


class TrainingFailed(ValueError):
    """Training stopped learning; ``report`` holds the epochs up to the failed one."""

    def __init__(self, message: str, report: TrainReport):
        super().__init__(message)
        self.report = report


def evaluate(model: Model, sentences, metric: str, positive_label: str | None = None) -> MetricResult:
    """Decode every sentence and score it under the chosen measure."""
    if metric == "f0.5":
        if not positive_label:
            raise ValueError("evaluate: f0.5 needs a positive label")
        if positive_label not in model.vocab.label_set:
            raise ValueError(f"evaluate: positive_label {positive_label!r} is not a training label")
    gold = [s.labels for s in sentences]
    if metric == "span-f1":
        check_iob_labels(chain(model.vocab.label_set.labels, *gold), "evaluate")
    pred = [model.predict_labels(s) for s in sentences]
    if metric == "acc":
        return token_accuracy(gold, pred)
    if metric == "span-f1":
        return span_f1([extract_spans(g) for g in gold], [extract_spans(p) for p in pred])
    if metric == "f0.5":
        flat_gold = [lab == positive_label for labs in gold for lab in labs]
        flat_pred = [lab == positive_label for labs in pred for lab in labs]
        return f_beta_binary(flat_gold, flat_pred, beta=0.5)
    raise ValueError(f"evaluate: unknown metric {metric!r}")


def _encoded(vocab: Vocabulary, sentences) -> list:
    """``sentences`` with the unencoded ones encoded, in one ``encode_corpus`` call."""
    fresh = iter(vocab.encode_corpus([s for s in sentences if s.word_ids is None]))
    return [s if s.word_ids is not None else next(fresh) for s in sentences]


def _batches(n: int, batch_size: int):
    return [list(range(i, min(i + batch_size, n))) for i in range(0, n, batch_size)]


def train(config: ModelConfig, train_sentences, dev_sentences, vocab: Vocabulary,
          pretrained=None):
    """Fit a model and return (best model, per-epoch report)."""
    config.validate()
    train_sentences = list(train_sentences)
    dev_sentences = list(dev_sentences)
    if not train_sentences or not dev_sentences:
        raise ValueError("train: empty training or development split")
    train_enc = _encoded(vocab, train_sentences)
    dev_enc = _encoded(vocab, dev_sentences)
    for s in train_enc:
        if s.gold is None:
            raise ValueError("train: training sentence has labels outside the vocabulary")
    if config.positive_label and config.positive_label not in vocab.label_set:
        raise ValueError(f"train: positive_label {config.positive_label!r} is not a training label")
    if config.dev_metric == "span-f1":
        check_iob_labels(chain(vocab.label_set.labels, *(s.labels for s in dev_enc)), "train")

    _retain_heap()
    model = assemble_model(config, vocab, pretrained)
    opt = AdaDelta(model.params, rho=config.rho, epsilon=config.epsilon,
                   learning_rate=config.learning_rate)
    shuffle_rng = np.random.default_rng([config.seed, 1])

    report = TrainReport()
    best_metric = -np.inf
    best_state = None
    epochs_since_best = 0

    order = np.arange(len(train_enc))
    batches = _batches(len(train_enc), config.batch_size)
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        if config.shuffle:
            shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        epoch_aux = 0.0
        rejected = 0
        for batch in batches:
            tape = Tape()
            with tape:
                total, aux = model.batch_loss_parts([train_enc[order[i]] for i in batch])
            if aux is not None:
                epoch_aux += aux
            backward(total, tape)
            del tape  # backward freed each node's values and gradients; this drops the node records
            if not opt.step():
                rejected += 1
            model.zero_grad()
            epoch_loss += float(total.values)

        failure = None
        if not np.isfinite(epoch_loss):
            failure = f"train loss is {epoch_loss}"
        elif rejected == len(batches):
            failure = f"all {rejected} optimizer steps were rejected"
        dev_value = float("nan") if failure else evaluate(
            model, dev_enc, config.dev_metric, positive_label=config.positive_label or None,
        ).value
        report.epochs.append(
            EpochStats(epoch, epoch_loss, epoch_aux, dev_value,
                       time.perf_counter() - started, rejected)
        )
        report.stopped_epoch = epoch
        if failure:
            raise TrainingFailed(f"training failed in epoch {epoch}: {failure}", report)
        if dev_value > best_metric:
            best_metric = dev_value
            best_state = model.state_arrays()
            report.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    if best_state is not None:
        model.load_state_arrays(best_state)
    return model, report
