import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqtag.training as train_mod
from seqtag.autodiff import tensor
from seqtag.corpus import build_vocab
from seqtag.model import ModelConfig
from seqtag.synthdata import make_suffix_corpus
from seqtag.training import AdaDelta, evaluate_metric, train

from oracles import adadelta_dense_step


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       rho=st.sampled_from([0.0, 0.5, 0.95]), eps=st.sampled_from([1e-6, 1e-3]),
       lr=st.sampled_from([1.0, 0.3]), rows=st.integers(1, 6), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_lazy_adadelta_matches_the_dense_update(data, dtype, rho, eps, lr, rows, cols, seed):
    """Random rows of a matrix and a whole vector get zero gradients, or none."""
    rng = np.random.default_rng(seed)
    shapes = {"m": (rows, cols), "v": (cols,)}
    params = {n: tensor(rng.normal(size=shape).astype(dtype)) for n, shape in shapes.items()}
    opt = AdaDelta(params, rho=rho, epsilon=eps, learning_rate=lr)
    dense = {n: (p.values.copy(), np.zeros_like(p.values), np.zeros_like(p.values))
             for n, p in params.items()}
    tol = dict(rtol=1e-4, atol=1e-6) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-12)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        live = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows), label="live rows")
        g = (rng.normal(size=(rows, cols)) * np.array(live)[:, None]).astype(dtype)
        grads = {"m": g, "v": data.draw(st.sampled_from([None, "zero", "dense"]), label="vector")}
        if grads["v"] is not None:
            scale = 0.0 if grads["v"] == "zero" else 1.0
            grads["v"] = (rng.normal(size=cols) * scale).astype(dtype)
        for n, p in params.items():
            p.grad = None if grads[n] is None else grads[n].copy()
        assert opt.step()
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
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
    monkeypatch.setattr(train_mod, "evaluate_metric", lambda *a, **k: next(series))
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
    restored_dev = evaluate_metric(model, vocab.encode_corpus(dev), "acc")
    assert restored_dev == pytest.approx(report.best_dev_metric(), abs=1e-12)
    assert report.best_epoch <= report.stopped_epoch


def test_train_rejects_empty_split():
    tr, dev, _, vocab = tiny_task()
    with pytest.raises(ValueError, match="empty"):
        train(tiny_config(), [], dev, vocab)


def test_f05_dev_metric_needs_positive_label():
    tr, dev, _, vocab = tiny_task()
    with pytest.raises(ValueError, match="positive label"):
        train(tiny_config(dev_metric="f0.5"), tr, dev, vocab)


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
    train_acc = evaluate_metric(entry["model"], suffix_task["train"], "acc")
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
    acc = evaluate_metric(model, enc, "acc")
    assert 0.0 <= acc <= 1.0
    f05 = evaluate_metric(model, enc, "f0.5", positive_label="C0")
    assert 0.0 <= f05 <= 1.0
    with pytest.raises(ValueError, match="unknown metric"):
        evaluate_metric(model, enc, "bleu")
