"""Shared fixtures: the synthetic suffix task and models trained on it."""

import time

import pytest

from seqtag.corpus import build_vocab
from seqtag.model import ModelConfig
from seqtag.training import train

from synthdata import make_suffix_corpus


SUFFIX_CONFIG = dict(
    output="crf",
    word_dim=16,
    char_dim=8,
    word_lstm_hidden=14,
    char_lstm_hidden=14,
    d_size=10,
    batch_size=16,
    patience=7,
    max_epochs=100,
    seed=7,
    dtype="float32",
    dev_metric="acc",
)


@pytest.fixture(scope="session")
def suffix_task():
    train_sents, dev_sents, test_sents = make_suffix_corpus(seed=0)
    vocab = build_vocab(train_sents)
    return {
        "train": vocab.encode_corpus(train_sents),
        "dev": vocab.encode_corpus(dev_sents),
        "test": vocab.encode_corpus(test_sents),
        "vocab": vocab,
    }


@pytest.fixture(scope="session")
def suffix_models(suffix_task):
    """One trained model per architecture, with wall-clock per run."""
    out = {}
    for arch in ("word", "concat", "attention"):
        config = ModelConfig(architecture=arch, **SUFFIX_CONFIG)
        started = time.perf_counter()
        model, report = train(
            config, suffix_task["train"], suffix_task["dev"], suffix_task["vocab"]
        )
        out[arch] = {
            "model": model,
            "report": report,
            "seconds": time.perf_counter() - started,
        }
    return out
