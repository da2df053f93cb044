import json
import logging
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqtag
import seqtag.training as train_mod
from seqtag.autodiff import RowGrad, tensor
from seqtag.corpus import build_vocab
from seqtag.metrics import MetricResult
from seqtag.model import ModelConfig, assemble_model, save_model
from seqtag.training import AdaDelta, evaluate, train

from oracles import adadelta_dense_step
from synthdata import make_suffix_corpus, write_conll


def t32(values):
    return tensor(values, dtype=np.float32)


def tiny_task(seed=1):
    tr, dev, te = make_suffix_corpus(
        n_train_types=24, n_test_types=8, sentence_len=4, n_dev_sentences=4,
        singleton_fraction=0.25, seed=seed,
    )
    vocab = build_vocab(tr)
    return tr, dev, te, vocab


def tiny_config(**overrides):
    base = dict(
        architecture="word",
        output="crf",
        word_dim=6,
        char_dim=4,
        word_lstm_hidden=5,
        char_lstm_hidden=5,
        d_size=4,
        batch_size=8,
        patience=3,
        max_epochs=3,
        seed=5,
        dtype="float32",
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# AdaDelta
# ---------------------------------------------------------------------------

def test_adadelta_zero_gradient_is_fixed_point():
    p = tensor(np.array([1.0, -2.0]))
    opt = AdaDelta({"p": p})
    p.grad = np.zeros(2)
    before = p.values.copy()
    assert opt.step()
    assert np.array_equal(p.values, before)
    p.grad = None
    assert opt.step()
    assert np.array_equal(p.values, before)


def test_adadelta_first_step_hand_value():
    rho, eps = 0.95, 1e-6
    p = tensor(np.array([0.0]))
    p.grad = np.array([1.0])
    opt = AdaDelta({"p": p}, rho=rho, epsilon=eps, learning_rate=1.0)
    opt.step()
    expected = -math.sqrt(eps) / math.sqrt((1 - rho) + eps)
    assert p.values[0] == pytest.approx(expected, rel=1e-12)
    assert p.values[0] == pytest.approx(-4.47e-3, abs=2e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adadelta_matches_the_documented_update(dtype):
    rng = np.random.default_rng(5)
    for rho, eps, lr in ((0.95, 1e-6, 1.0), (0.9, 1e-3, 0.5), (0.0, 1e-8, 2.0)):
        values = rng.normal(size=(6, 4)).astype(dtype)
        p = tensor(values.copy())
        opt = AdaDelta({"p": p}, rho=rho, epsilon=eps, learning_rate=lr)
        eg2, ed2 = np.zeros_like(values), np.zeros_like(values)
        for _ in range(10):
            g = (rng.normal(size=values.shape) * rng.choice([1e-3, 1.0, 1e3])).astype(dtype)
            p.grad = g.copy()
            assert opt.step()
            eg2 = rho * eg2 + (1.0 - rho) * g * g
            step = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
            ed2 = rho * ed2 + (1.0 - rho) * step * step
            values = values + lr * step
            assert p.values.dtype == dtype
            assert np.array_equal(p.values, values)


def test_adadelta_equal_gradients_update_identically():
    p = tensor(np.array([3.0, 3.0]))
    q = tensor(np.array([5.0]))
    p.grad = np.array([0.7, 0.7])
    q.grad = np.array([0.7])
    opt = AdaDelta({"p": p, "q": q})
    opt.step()
    assert p.values[0] == p.values[1]
    assert p.values[0] - 3.0 == pytest.approx(q.values[0] - 5.0, rel=1e-12)


def test_adadelta_rejects_non_finite_gradient(caplog):
    p = tensor(np.array([1.0]))
    q = tensor(np.array([2.0]))
    p.grad = np.array([np.nan])
    q.grad = np.array([1.0])
    opt = AdaDelta({"p": p, "q": q})
    with caplog.at_level(logging.WARNING):
        assert not opt.step()
    assert np.array_equal(p.values, [1.0])
    assert np.array_equal(q.values, [2.0])  # whole step rejected
    assert "non-finite" in caplog.text


def test_adadelta_rejects_a_non_finite_update(caplog):
    p = t32([1.0, -2.0, 3.0])
    p.grad = np.ones(3, dtype=np.float32)
    opt = AdaDelta({"p": p}, learning_rate=1e300)
    with caplog.at_level(logging.WARNING):
        assert not opt.step()
    assert np.array_equal(p.values, [1.0, -2.0, 3.0])
    assert not opt._sq_grad["p"].any() and not opt._sq_step["p"].any()
    assert "non-finite update" in caplog.text


def _current(opt, name, acc):
    """An accumulator as the dense update would hold it: rows the lazy update
    skipped get the decay of the steps they missed."""
    missed = opt._steps[name] - opt._updated[name]
    return acc.reshape(len(missed), -1) * (opt.rho ** missed)[:, None]


def _state(opt):
    """Everything an AdaDelta step may change, as bytes."""
    arrays = [a for n, p in opt.params.items()
              for a in (p.values, opt._sq_grad[n], opt._sq_step[n], opt._updated[n])]
    return [a.tobytes() for a in arrays], dict(opt._steps)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       rho=st.sampled_from([0.0, 0.5, 0.95]), eps=st.sampled_from([1e-6, 1e-3]),
       lr=st.sampled_from([1.0, 0.3]), rows=st.integers(1, 6), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_lazy_adadelta_matches_the_dense_update(data, dtype, rho, eps, lr, rows, cols, seed):
    """Random rows of a matrix and a whole vector get zero gradients, or none.

    The matrix gradient reaches one optimizer as an array and a twin as a
    ``RowGrad`` that lists every nonzero row and some rows whose gradient
    is exactly zero; the twin must skip those rows and end bit-identical.
    A step with a non-finite row is rejected by both and changes nothing.
    """
    rng = np.random.default_rng(seed)
    shapes = {"m": (rows, cols), "v": (cols,)}
    params = {n: tensor(rng.normal(size=shape).astype(dtype)) for n, shape in shapes.items()}
    twins = {n: tensor(p.values.copy()) for n, p in params.items()}
    opt, twin = (AdaDelta(ps, rho=rho, epsilon=eps, learning_rate=lr) for ps in (params, twins))
    dense = {n: (p.values.copy(), np.zeros_like(p.values), np.zeros_like(p.values))
             for n, p in params.items()}
    tol = dict(rtol=1e-4, atol=1e-6) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-12)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        live = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows), label="live rows"))
        listed = live | data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows), label="zero rows listed")
        g = (rng.normal(size=(rows, cols)) * live[:, None]).astype(dtype)
        bad = data.draw(st.sampled_from([None, None, None, np.nan, np.inf]), label="non-finite entry")
        if bad is not None:
            row = data.draw(st.integers(0, rows - 1), label="non-finite row")
            g[row, 0], listed[row] = bad, True
        grads = {"m": g, "v": data.draw(st.sampled_from([None, "zero", "dense"]), label="vector")}
        if grads["v"] is not None:
            scale = 0.0 if grads["v"] == "zero" else 1.0
            grads["v"] = (rng.normal(size=cols) * scale).astype(dtype)
        for n, p in params.items():
            p.grad = None if grads[n] is None else grads[n].copy()
            twins[n].grad = None if grads[n] is None else grads[n].copy()
        twins["m"].grad = RowGrad(np.flatnonzero(listed), g[listed], g.shape)
        before, m_before = (_state(opt), _state(twin)), params["m"].values.copy()
        if bad is not None:
            assert not opt.step() and not twin.step()
            assert (_state(opt), _state(twin)) == before
            continue
        assert opt.step() and twin.step()
        assert _state(twin) == _state(opt)
        # rows with a zero gradient, listed or not, keep their values and wait for their decay
        assert np.array_equal(params["m"].values[~live], m_before[~live])
        assert (opt._updated["m"][~live] < opt._steps["m"]).all()
        for n, p in params.items():
            if grads[n] is not None:
                dense[n] = adadelta_dense_step(*dense[n], grads[n], rho, eps, lr)
            values, sq_grad, sq_step = dense[n]
            assert p.values.dtype == dtype
            np.testing.assert_allclose(p.values, values, **tol)
            np.testing.assert_allclose(_current(opt, n, opt._sq_grad[n]), sq_grad.reshape(len(opt._updated[n]), -1), **tol)
            np.testing.assert_allclose(_current(opt, n, opt._sq_step[n]), sq_step.reshape(len(opt._updated[n]), -1), **tol)


def test_adadelta_validates_hyperparameters():
    p = tensor(np.array([1.0]))
    with pytest.raises(ValueError, match="rho"):
        AdaDelta({"p": p}, rho=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        AdaDelta({"p": p}, epsilon=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_adadelta_rejects_non_finite_settings(value):
    p = tensor(np.array([1.0]))
    with pytest.raises(ValueError, match="epsilon"):
        AdaDelta({"p": p}, epsilon=value)
    with pytest.raises(ValueError, match="learning_rate"):
        AdaDelta({"p": p}, learning_rate=value)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_early_stopping_patience_one(monkeypatch):
    tr, dev, _, vocab = tiny_task()
    series = iter([1.0, 0.5, 0.4, 0.3, 0.2])
    monkeypatch.setattr(train_mod, "evaluate", lambda *a, **k: MetricResult("acc", next(series)))
    model, report = train(tiny_config(patience=1, max_epochs=5), tr, dev, vocab)
    assert report.stopped_epoch == 2
    assert report.best_epoch == 1


def test_training_determinism():
    tr, dev, _, vocab = tiny_task()
    cfg = tiny_config(max_epochs=2)
    _, r1 = train(cfg, tr, dev, vocab)
    _, r2 = train(cfg, tr, dev, vocab)
    losses1 = [e.train_loss for e in r1.epochs]
    losses2 = [e.train_loss for e in r2.epochs]
    assert losses1 == losses2  # bit-identical floats


def test_train_encodes_raw_sentences_as_encode_corpus_does(tmp_path):
    tr, dev, _, vocab = tiny_task()
    cfg = tiny_config(architecture="attention", max_epochs=2)
    for name, (train_split, dev_split) in {
        "raw": (tr, dev),
        "encoded": (vocab.encode_corpus(tr), vocab.encode_corpus(dev)),
    }.items():
        model, _ = train(cfg, train_split, dev_split, vocab)
        save_model(model, tmp_path / f"{name}.bin")
    assert (tmp_path / "raw.bin").read_bytes() == (tmp_path / "encoded.bin").read_bytes()


_TRAIN_IN_A_NEW_PROCESS = """
import sys
import seqtag.training
from seqtag.cli import main
heap, config, train, dev, out = sys.argv[1:]
if heap == "untouched":
    seqtag.training._retain_heap = lambda: None
sys.exit(main(["train", "--config", config, "--train", train, "--dev", dev, "--out", out]))
"""


def test_heap_retention_changes_no_numbers(tmp_path):
    """C8's run, each time in a new process: with glibc's malloc settings
    left alone, and with the ones ``train`` sets."""
    tr, dev, _ = make_suffix_corpus(
        n_train_types=24, n_test_types=8, sentence_len=4, n_dev_sentences=4,
        singleton_fraction=0.25, seed=6,
    )
    write_conll(tmp_path / "train.conll", tr)
    write_conll(tmp_path / "dev.conll", dev)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "architecture = attention\noutput = crf\nword_dim = 6\nchar_dim = 4\n"
        "word_lstm_hidden = 5\nchar_lstm_hidden = 5\nd_size = 4\nbatch_size = 8\n"
        "patience = 9\nmax_epochs = 3\nseed = 13\ndtype = float32\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(seqtag.__file__))}
    runs = {}
    for heap in ("untouched", "retained"):
        out = tmp_path / heap
        subprocess.run([sys.executable, "-c", _TRAIN_IN_A_NEW_PROCESS, heap, str(cfg),
                        str(tmp_path / "train.conll"), str(tmp_path / "dev.conll"), str(out)],
                       env=env, check=True, timeout=300)
        losses = [e["train_loss"] for e in json.loads((out / "report.json").read_text())["epochs"]]
        runs[heap] = (losses, (out / "model.bin").read_bytes())
    assert len(runs["retained"][0]) == 3
    assert runs["untouched"] == runs["retained"]


def test_train_runs_where_there_is_no_mallopt(monkeypatch):
    monkeypatch.setattr(train_mod.ctypes, "CDLL", lambda name: object())
    tr, dev, _, vocab = tiny_task()
    _, report = train(tiny_config(max_epochs=1), tr, dev, vocab)
    assert len(report.epochs) == 1


def test_shuffle_changes_batch_order_but_stays_deterministic():
    tr, dev, _, vocab = tiny_task()
    cfg = tiny_config(max_epochs=2, shuffle=True)
    _, r1 = train(cfg, tr, dev, vocab)
    _, r2 = train(cfg, tr, dev, vocab)
    assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]


def test_best_model_is_restored():
    tr, dev, _, vocab = tiny_task()
    cfg = tiny_config(max_epochs=4, patience=4)
    model, report = train(cfg, tr, dev, vocab)
    restored_dev = evaluate(model, vocab.encode_corpus(dev), "acc").value
    assert restored_dev == pytest.approx(report.best_dev_metric(), abs=1e-12)
    assert report.best_epoch <= report.stopped_epoch


def _checkpointed_evaluate(series, tmp_path, seen):
    """An ``evaluate`` that returns the next value of ``series``; before it does, it
    records the temp dir's file count and a copy of the parameters it was given."""
    series = iter(series)

    def evaluate(model, *args, **kwargs):
        seen.append((len(os.listdir(tmp_path)), {n: t.values.copy() for n, t in model.params.items()}))
        value = next(series)
        if isinstance(value, BaseException):
            raise value
        return MetricResult("acc", value)

    return evaluate


def test_best_epoch_comes_back_from_its_checkpoint_file(monkeypatch, tmp_path):
    tr, dev, _, vocab = tiny_task()
    seen = []
    monkeypatch.setattr(train_mod, "evaluate", _checkpointed_evaluate([0.5, 0.9, 0.4, 0.3], tmp_path, seen))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    model, report = train(tiny_config(patience=2, max_epochs=10), tr, dev, vocab)
    assert (report.best_epoch, report.stopped_epoch) == (2, 4)
    # no file before the first epoch ends, then one
    assert [files for files, _ in seen] == [0, 1, 1, 1]
    best, last = seen[1][1], seen[3][1]
    assert list(model.params) == list(best)
    for name, t in model.params.items():
        assert t.values.dtype == best[name].dtype
        assert t.values.tobytes() == best[name].tobytes(), name
    assert any(not np.array_equal(last[n], best[n]) for n in best)
    assert os.listdir(tmp_path) == []


def test_a_best_last_epoch_is_not_read_back(monkeypatch, tmp_path):
    """When the last epoch run is the best, the model already holds its
    parameters: ``train`` reads no checkpoint back, returns those parameters
    bit for bit and still removes the file."""
    tr, dev, _, vocab = tiny_task()
    seen = []
    monkeypatch.setattr(train_mod, "evaluate", _checkpointed_evaluate([0.5, 0.9], tmp_path, seen))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    loads = []
    monkeypatch.setattr(train_mod, "load_model", lambda path: loads.append(path))
    model, report = train(tiny_config(patience=2, max_epochs=2), tr, dev, vocab)
    assert (report.best_epoch, report.stopped_epoch) == (2, 2)
    assert [files for files, _ in seen] == [0, 1] and loads == []
    best = seen[1][1]
    assert list(model.params) == list(best)
    for name, t in model.params.items():
        assert t.values.dtype == best[name].dtype
        assert t.values.tobytes() == best[name].tobytes(), name
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("epoch_three", [RuntimeError("dev set unreadable"), KeyboardInterrupt()],
                         ids=["exception", "keyboard-interrupt"])
def test_the_checkpoint_file_goes_when_evaluate_raises(monkeypatch, tmp_path, epoch_three):
    tr, dev, _, vocab = tiny_task()
    seen = []
    monkeypatch.setattr(train_mod, "evaluate",
                        _checkpointed_evaluate([0.5, 0.9, epoch_three], tmp_path, seen))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(type(epoch_three)):
        train(tiny_config(patience=2, max_epochs=10), tr, dev, vocab)
    assert [files for files, _ in seen] == [0, 1, 1]
    assert os.listdir(tmp_path) == []


def test_the_checkpoint_file_goes_when_training_fails(monkeypatch, tmp_path):
    tr, dev, _, vocab = tiny_task()
    cfg = tiny_config(patience=2, max_epochs=10)
    batches = math.ceil(len(tr) / cfg.batch_size)
    accepted = train_mod.AdaDelta.step
    calls = []

    def step(opt):  # every step of epoch 2 is rejected
        calls.append(None)
        return accepted(opt) if len(calls) <= batches else False

    monkeypatch.setattr(train_mod.AdaDelta, "step", step)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(train_mod.TrainingFailed,
                       match=f"^training failed in epoch 2: all {batches} optimizer steps were rejected$") as info:
        train(cfg, tr, dev, vocab)
    assert info.value.report.best_epoch == 1
    assert os.listdir(tmp_path) == []


def test_train_rejects_empty_split():
    tr, dev, _, vocab = tiny_task()
    with pytest.raises(ValueError, match="empty"):
        train(tiny_config(), [], dev, vocab)


def test_f05_dev_metric_needs_positive_label():
    tr, dev, _, vocab = tiny_task()
    with pytest.raises(ValueError, match="positive label"):
        train(tiny_config(dev_metric="f0.5"), tr, dev, vocab)


def test_a_nan_word_table_fails_epoch_one_with_every_step_rejected():
    tr, _, _, vocab = tiny_task()
    cfg = tiny_config()
    nan_table = np.full((vocab.n_words, cfg.word_dim), np.nan)
    with pytest.raises(train_mod.TrainingFailed, match=r"^training failed in epoch 1: train loss is nan$") as info:
        train(cfg, tr, tr, vocab, pretrained=nan_table)
    (epoch,) = info.value.report.epochs
    assert epoch.rejected_steps == math.ceil(len(tr) / cfg.batch_size)
    assert math.isnan(epoch.dev_metric)


def test_train_rejects_a_training_label_outside_the_vocabulary():
    tr, dev, _, _ = tiny_task()
    missing = tr[0].labels[0]
    narrow = build_vocab([s for s in tr if missing not in s.labels])
    assert missing not in narrow.label_set
    with pytest.raises(ValueError, match="^train: training sentence has labels outside the vocabulary$"):
        train(tiny_config(), tr, dev, narrow)


def test_evaluate_f05_needs_a_positive_label():
    _, dev, _, vocab = tiny_task()
    model = assemble_model(tiny_config(), vocab)
    with pytest.raises(ValueError, match=r"^evaluate: f0\.5 needs a positive label$"):
        evaluate(model, vocab.encode_corpus(dev), "f0.5")


def test_report_table_has_aux_column():
    tr, dev, _, vocab = tiny_task()
    cfg = tiny_config(architecture="attention", max_epochs=1)
    _, report = train(cfg, tr, dev, vocab)
    header = report.table().splitlines()[0].split("\t")
    assert "aux_loss" in header
    assert report.epochs[0].aux_loss > 0.0


def test_attention_overfits_training_set(suffix_models, suffix_task):
    entry = suffix_models["attention"]
    assert entry["report"].stopped_epoch <= 50
    train_acc = evaluate(entry["model"], suffix_task["train"], "acc").value
    assert train_acc >= 0.99


def train_multi_seed(config, train_sentences, dev_sentences, vocab, seeds, pretrained=None):
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
        model, report = train(cfg, train_sentences, dev_sentences, vocab, pretrained=pretrained)
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


def test_multi_seed_driver():
    tr, dev, _, vocab = tiny_task()
    runs, summary = train_multi_seed(
        tiny_config(max_epochs=1), tr, dev, vocab, seeds=[3, 4]
    )
    assert [seed for seed, _, _ in runs] == [3, 4]
    best = [report.best_dev_metric() for _, _, report in runs]
    assert summary["dev_mean"] == pytest.approx(sum(best) / 2, abs=1e-12)
    assert summary["dev_min"] <= summary["dev_mean"] <= summary["dev_max"]
    with pytest.raises(ValueError, match="seed"):
        train_multi_seed(tiny_config(), tr, dev, vocab, seeds=[])


def test_evaluate_metric_variants():
    tr, dev, _, vocab = tiny_task()
    model, _ = train(tiny_config(max_epochs=1), tr, dev, vocab)
    enc = vocab.encode_corpus(dev)
    acc = evaluate(model, enc, "acc").value
    assert 0.0 <= acc <= 1.0
    f05 = evaluate(model, enc, "f0.5", positive_label="C0").value
    assert 0.0 <= f05 <= 1.0
    with pytest.raises(ValueError, match="evaluate: unknown metric"):
        evaluate(model, enc, "bleu")
