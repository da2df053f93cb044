"""AdaDelta optimization, the training loop and early stopping.

Batches are formed by sentence count in corpus order (a shuffle flag
reshuffles per epoch from the run seed). The batch loss is the sum of
the per-sentence losses, built in one pass over the batch
(``Model.batch_loss_parts``): each distinct word type's characters are
composed once per batch and shared by all of its tokens, the word
BiLSTM runs once per direction over all the batch's sentences, and the
CRF loss is one node over all of them, which changes how much work a
step does but not the sum it computes. The AdaDelta step then touches
only the parameter rows the batch reached (see ``AdaDelta``), with the
same result as updating every row.
Development decoding still predicts one sentence at a time. Training
stops once the development metric has not improved for ``patience``
epochs, and the parameters from the best development epoch are what the
caller gets back.

Optimizer steps rejected for non-finite gradients or updates are
counted per epoch. An epoch whose every step was rejected, or whose
training loss is not finite, ends the run with ``TrainingFailed``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward
from .corpus import Vocabulary
from .metrics import MetricResult, extract_spans, f_beta_binary, span_f1, token_accuracy
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
    rows of a large embedding table. This is exact up to rounding. For a
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
        if not math.isfinite(learning_rate):
            raise ValueError("AdaDelta: learning_rate must be finite")
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
        into scratch arrays first. A non-finite gradient, or an update
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
                grad = _rows(p.grad)
                rows = np.flatnonzero(grad.any(axis=1))
                if len(rows) == len(grad):
                    rows = slice(None)  # every row: views instead of gathered copies
                g = grad[rows]
                if not np.isfinite(g).all():
                    log.warning("adadelta: non-finite gradient for %s, step rejected", name)
                    return False
                count = self._steps[name] + 1
                missed = count - 1 - self._updated[name][rows]
                eg2 = _rows(self._sq_grad[name])[rows]
                ed2 = _rows(self._sq_step[name])[rows]
                if missed.any():
                    decay = np.power(rho, missed)[:, None].astype(g.dtype)
                    eg2 = eg2 * decay
                    ed2 = ed2 * decay
                # the docstring's expressions, each evaluated into a new array or one
                # of two scratch arrays: eg2 and ed2 may still be views of the stored rows
                step = np.multiply(1.0 - rho, g)
                step *= g
                eg2 = eg2 * rho
                eg2 += step
                np.add(ed2, eps, out=step)
                np.sqrt(step, out=step)
                np.negative(step, out=step)
                denom = np.add(eg2, eps)
                np.sqrt(denom, out=denom)
                step /= denom
                step *= g
                np.multiply(1.0 - rho, step, out=denom)
                denom *= step
                ed2 = ed2 * rho
                ed2 += denom
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


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    aux_loss: float
    dev_metric: float
    seconds: float
    rejected_steps: int = 0


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def best_dev_metric(self) -> float:
        return max(e.dev_metric for e in self.epochs)

    def to_dict(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "stopped_epoch": self.stopped_epoch,
            "epochs": [
                {
                    "epoch": e.epoch,
                    "train_loss": e.train_loss,
                    "aux_loss": e.aux_loss,
                    "dev_metric": e.dev_metric,
                    "seconds": e.seconds,
                    "rejected_steps": e.rejected_steps,
                }
                for e in self.epochs
            ],
        }

    def table(self) -> str:
        lines = ["epoch\ttrain_loss\taux_loss\tdev_metric\tseconds\trejected_steps"]
        for e in self.epochs:
            lines.append(
                f"{e.epoch}\t{e.train_loss!r}\t{e.aux_loss!r}\t{e.dev_metric!r}\t{e.seconds:.3f}"
                f"\t{e.rejected_steps}"
            )
        return "\n".join(lines) + "\n"


class TrainingFailed(ValueError):
    """Training stopped learning; ``report`` holds the epochs up to the failed one."""

    def __init__(self, message: str, report: TrainReport):
        super().__init__(message)
        self.report = report


def evaluate(model: Model, sentences, metric: str, positive_label: str | None = None) -> MetricResult:
    """Decode every sentence and score it under the chosen measure."""
    gold = [s.labels for s in sentences]
    pred = [model.predict_labels(s) for s in sentences]
    if metric == "acc":
        return token_accuracy(gold, pred)
    if metric == "span-f1":
        return span_f1([extract_spans(g) for g in gold], [extract_spans(p) for p in pred])
    if metric == "f0.5":
        if not positive_label:
            raise ValueError("evaluate_metric: f0.5 needs a positive label")
        flat_gold = [lab == positive_label for labs in gold for lab in labs]
        flat_pred = [lab == positive_label for labs in pred for lab in labs]
        return f_beta_binary(flat_gold, flat_pred, beta=0.5)
    raise ValueError(f"evaluate_metric: unknown metric {metric!r}")


def evaluate_metric(model: Model, sentences, metric: str, positive_label: str | None = None) -> float:
    """The value of ``evaluate``: the number training selects epochs by."""
    return evaluate(model, sentences, metric, positive_label).value


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
    train_enc = [s if s.word_ids is not None else vocab.encode(s) for s in train_sentences]
    dev_enc = [s if s.word_ids is not None else vocab.encode(s) for s in dev_sentences]
    for s in train_enc:
        if s.gold is None:
            raise ValueError("train: training sentence has labels outside the vocabulary")

    model = assemble_model(config, vocab, pretrained)
    opt = AdaDelta(model.named_parameters(), rho=config.rho, epsilon=config.epsilon,
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
            del tape  # frees the recorded values before the optimizer step
            if not opt.step():
                rejected += 1
            model.zero_grad()
            epoch_loss += float(total.values)

        failure = None
        if not np.isfinite(epoch_loss):
            failure = f"train loss is {epoch_loss}"
        elif rejected == len(batches):
            failure = f"all {rejected} optimizer steps were rejected"
        dev_value = float("nan") if failure else evaluate_metric(
            model, dev_enc, config.dev_metric,
            positive_label=config.positive_label or None,
        )
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
