"""AdaDelta optimization, the training loop and early stopping.

Batches are formed by sentence count in corpus order (a shuffle flag
reshuffles per epoch from the run seed); the batch loss is the sum of
per-sentence losses, and every sentence is processed individually, so
batching changes nothing but how often the optimizer steps. Training
stops once the development metric has not improved for ``patience``
epochs, and the parameters from the best development epoch are what
the caller gets back.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, add, backward
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
    """

    def __init__(self, params: dict, rho: float = 0.95, epsilon: float = 1e-6,
                 learning_rate: float = 1.0):
        if not 0.0 <= rho < 1.0:
            raise ValueError("AdaDelta: rho must lie in [0, 1)")
        if epsilon <= 0:
            raise ValueError("AdaDelta: epsilon must be positive")
        self.params = dict(params)
        self.rho = rho
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        self._sq_grad = {n: np.zeros_like(p.values) for n, p in self.params.items()}
        self._sq_step = {n: np.zeros_like(p.values) for n, p in self.params.items()}

    def step(self) -> bool:
        """Apply one update from the accumulated gradients.

        A non-finite gradient anywhere rejects the whole step (nothing
        is mutated) and logs the incident. Parameters without a gradient
        are left alone.
        """
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                log.warning("adadelta: non-finite gradient for %s, step rejected", name)
                return False
        rho, eps, lr = self.rho, self.epsilon, self.learning_rate
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            eg2 = self._sq_grad[name]
            ed2 = self._sq_step[name]
            eg2 *= rho
            eg2 += (1.0 - rho) * g * g
            step = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
            ed2 *= rho
            ed2 += (1.0 - rho) * step * step
            p.values += lr * step
        return True


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    aux_loss: float
    dev_metric: float
    seconds: float


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
                }
                for e in self.epochs
            ],
        }

    def table(self) -> str:
        lines = ["epoch\ttrain_loss\taux_loss\tdev_metric\tseconds"]
        for e in self.epochs:
            lines.append(
                f"{e.epoch}\t{e.train_loss!r}\t{e.aux_loss!r}\t{e.dev_metric!r}\t{e.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


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


def train_multi_seed(config: ModelConfig, train_sentences, dev_sentences,
                     vocab: Vocabulary, seeds, pretrained=None):
    """Re-run training once per seed; returns (runs, summary).

    ``runs`` is a list of (seed, model, report); ``summary`` holds the
    mean and spread of the best dev metrics, which is how multi-seed
    results should be reported instead of cherry-picking one run.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("train_multi_seed: need at least one seed")
    runs = []
    for seed in seeds:
        cfg = ModelConfig.from_dict({**config.to_dict(), "seed": int(seed)})
        model, report = train(cfg, train_sentences, dev_sentences, vocab,
                              pretrained=pretrained)
        runs.append((int(seed), model, report))
    best = np.array([report.best_dev_metric() for _, _, report in runs])
    summary = {
        "seeds": seeds,
        "dev_mean": float(best.mean()),
        "dev_std": float(best.std()),
        "dev_min": float(best.min()),
        "dev_max": float(best.max()),
    }
    return runs, summary


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
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        if config.shuffle:
            shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        epoch_aux = 0.0
        for batch in _batches(len(train_enc), config.batch_size):
            tape = Tape()
            with tape:
                total = None
                for i in batch:
                    loss, aux = model.sentence_loss_parts(train_enc[order[i]])
                    total = loss if total is None else add(total, loss)
                    if aux is not None:
                        epoch_aux += float(aux.values)
            backward(total, tape)
            opt.step()
            model.zero_grad()
            epoch_loss += float(total.values)

        dev_value = evaluate_metric(
            model, dev_enc, config.dev_metric,
            positive_label=config.positive_label or None,
        )
        report.epochs.append(
            EpochStats(epoch, epoch_loss, epoch_aux, dev_value,
                       time.perf_counter() - started)
        )
        report.stopped_epoch = epoch
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
