"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured quantity. Run with ``pytest -s`` to see the
lines as they complete.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from seqtag.autodiff import Tape, add, backward, finite_difference_check, tensor
from seqtag.charcomp import char_aux_loss, compose_word
from seqtag.cli import main
from seqtag.corpus import Sentence, build_vocab, write_conll
from seqtag.crf import (
    TagLattice,
    crf_log_partition,
    crf_nll,
    crf_sequence_score,
    viterbi_decode,
)
from seqtag.layers import embedding_lookup
from seqtag.metrics import extract_spans, f_beta_binary, span_f1, token_accuracy
from seqtag.model import ModelConfig, assemble_model, count_parameters, save_model
from seqtag.synthdata import make_suffix_corpus
from seqtag.training import evaluate_metric

from oracles import brute_force_oracle, crossentropy_loss, softmax_predict


def _toy_corpus():
    sents = [
        Sentence(["aa", "bb", "cc"], ["aa", "bb", "cc"], ["O", "B-X", "I-X"]),
        Sentence(["bb", "aa", "dd"], ["bb", "aa", "dd"], ["I-X", "O", "B-X"]),
    ]
    vocab = build_vocab(sents, min_count=2)  # cc and dd become OOV tokens
    return vocab, vocab.encode_corpus(sents)


def _toy_config(arch, output):
    return ModelConfig(
        architecture=arch,
        output=output,
        word_dim=6,
        char_dim=3,
        word_lstm_hidden=5,
        char_lstm_hidden=5,
        d_size=4,
        dtype="float64",
        seed=9,
    )


def test_c01_crf_oracle_equivalence():
    rng = np.random.default_rng(100)
    started = time.perf_counter()
    checked = 0
    worst = 0.0
    for i in range(200):
        t_len = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        if i % 3 == 0:  # integer lattices force score ties
            em = rng.integers(0, 2, size=(t_len, k)).astype(np.float64)
            tr = rng.integers(0, 2, size=(k + 2, k + 2)).astype(np.float64)
        else:
            em = rng.normal(size=(t_len, k))
            tr = rng.normal(size=(k + 2, k + 2))
        lat = TagLattice(em, tr)
        oracle_log_z, oracle_path = brute_force_oracle(lat)
        log_z = float(crf_log_partition(lat).values)
        worst = max(worst, abs(log_z - oracle_log_z))
        path, score = viterbi_decode(lat)
        assert abs(log_z - oracle_log_z) < 1e-8
        assert path == oracle_path
        assert score == crf_sequence_score(lat, path)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 200
    assert elapsed < 10.0
    print(f"\n[PASS] C1 oracle equivalence: 200 lattices, worst |dlogZ| {worst:.2e}, {elapsed:.1f}s")


def test_c02_end_to_end_gradient_check():
    vocab, sents = _toy_corpus()
    started = time.perf_counter()
    worst = {}
    for arch in ("word", "concat", "attention"):
        for output in ("softmax", "crf"):
            model = assemble_model(_toy_config(arch, output), vocab)

            def builder():
                return add(model.sentence_loss(sents[0]), model.sentence_loss(sents[1]))

            params = model.named_parameters()
            report = finite_difference_check(
                builder, list(params.values()), eps=1e-5, names=list(params)
            )
            worst[(arch, output)] = report.max_rel_error
            assert report.max_rel_error < 1e-4, f"{arch}/{output}:\n{report}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    top = max(worst.values())
    print(f"\n[PASS] C2 gradient check: 6 configurations, worst rel err {top:.2e}, {elapsed:.1f}s")


def test_c03_one_directional_auxiliary_loss():
    vocab, sents = _toy_corpus()
    model = assemble_model(_toy_config("attention", "crf"), vocab)
    sent = sents[0]

    tape = Tape()
    with tape:
        ms = [compose_word(cids, model.char) for cids in sent.char_ids]
        xs = [embedding_lookup(model.word_emb, wid) for wid in sent.word_ids]
        aux = char_aux_loss(ms, xs, model.oov_flags(sent))
    grads = backward(aux, tape)

    emb = model.word_emb.matrix
    assert emb.grad is None or not emb.grad.any()
    assert emb.node_id not in grads or not grads[emb.node_id].any()
    for name in ("char_embeddings", "char_lstm.fwd.w_x", "char_proj.w_m"):
        g = model.all_tensors()[name].grad
        assert g is not None and g.any(), name

    # perturbing the character vector of an OOV token is invisible to the loss
    rng = np.random.default_rng(0)
    ms_raw = [tensor(rng.normal(size=6)) for _ in range(3)]
    xs_raw = [tensor(rng.normal(size=6)) for _ in range(3)]
    mask = [False, True, False]
    before = float(char_aux_loss(ms_raw, xs_raw, mask).values)
    ms_raw[1].values += 5.0
    after = float(char_aux_loss(ms_raw, xs_raw, mask).values)
    assert before == after
    print("\n[PASS] C3 auxiliary loss: embeddings blocked, composer live, OOV inert")


def test_c04_softmax_crf_reduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        em = rng.normal(size=(1, k))
        lat = TagLattice(em, np.zeros((k + 2, k + 2)))
        y = int(rng.integers(0, k))
        nll = float(crf_nll(lat, [y]).values)
        ce = crossentropy_loss([softmax_predict(em[0], np.eye(k))], [y])
        worst = max(worst, abs(nll - ce))
        assert abs(nll - ce) < 1e-9
    print(f"\n[PASS] C4 single-token reduction: 100 instances, worst gap {worst:.2e}")


def test_c05_synthetic_oov_generalization(suffix_models, suffix_task):
    total_seconds = sum(entry["seconds"] for entry in suffix_models.values())
    accs = {
        arch: evaluate_metric(entry["model"], suffix_task["test"], "acc")
        for arch, entry in suffix_models.items()
    }
    assert all(e["report"].stopped_epoch <= 100 for e in suffix_models.values())
    assert accs["concat"] >= 0.90, accs
    assert accs["attention"] >= 0.90, accs
    assert accs["word"] <= 0.40, accs
    assert total_seconds < 600.0
    print(
        f"\n[PASS] C5 unseen-stem generalization: word {accs['word']:.2f}, "
        f"concat {accs['concat']:.2f}, attention {accs['attention']:.2f}, "
        f"{total_seconds:.0f}s total"
    )


def test_c06_parameter_count_audit():
    labels = [f"L{i}" for i in range(8)]
    words = [f"w{i}{i%3}" for i in range(10)]
    sents = [Sentence(words, words, [labels[i % 8] for i in range(10)])] * 2
    vocab = build_vocab(sents, min_count=1)
    counts = {}
    models = {}
    for arch in ("word", "concat", "attention"):
        config = ModelConfig(
            architecture=arch, output="crf", word_dim=300, char_dim=50,
            word_lstm_hidden=200, char_lstm_hidden=200, d_size=50, seed=0,
        )
        models[arch] = assemble_model(config, vocab)
        counts[arch] = count_parameters(models[arch])

    totals = {a: c[0] for a, c in counts.items()}
    noembs = {a: c[1] for a, c in counts.items()}
    assert totals["word"] < totals["attention"] < totals["concat"], totals
    assert noembs["word"] < noembs["attention"] < noembs["concat"], noembs

    def input_weight_count(model):
        return model.word_fwd.w_x.size + model.word_bwd.w_x.size

    widened = input_weight_count(models["concat"]) - input_weight_count(models["word"])
    assert widened == 2 * 4 * 300 * 200 == 480_000
    # reference noemb figures for the two architectures differ by exactly this term
    assert 1_710_158 - 1_230_158 == widened
    print(
        f"\n[PASS] C6 parameter audit: noemb word {noembs['word']:,} < "
        f"attention {noembs['attention']:,} < concat {noembs['concat']:,}; "
        f"widened-input term {widened:,}"
    )


def test_c07_dataset_stats_audit(tmp_path, capsys):
    tr, _, _ = make_suffix_corpus(n_train_types=30, n_test_types=5, seed=4)
    path = tmp_path / "audit.conll"
    write_conll(path, tr)
    assert main(["dataset-stats", "--data", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    _, n_sents, n_tokens, n_labels = out[1].split("\t")

    sents = 0
    tokens = 0
    labels = set()
    in_block = False
    for line in path.read_text().splitlines():
        if not line.strip():
            sents += in_block
            in_block = False
            continue
        in_block = True
        tokens += 1
        labels.add(line.split()[-1])
    sents += in_block
    assert (int(n_sents), int(n_tokens), int(n_labels)) == (sents, tokens, len(labels))

    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    for expected in ("158,795", "203,621", "912,344"):
        assert expected in text, f"README must document the reference corpus sizes ({expected})"
    print(f"\n[PASS] C7 dataset stats: exact recount over {tokens} tokens; reference sizes documented")


def test_c08_training_determinism(tmp_path):
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
    reports = []
    blobs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main([
            "train", "--config", str(cfg),
            "--train", str(tmp_path / "train.conll"),
            "--dev", str(tmp_path / "dev.conll"),
            "--out", str(out),
        ]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
        blobs.append((out / "model.bin").read_bytes())
    losses = [[e["train_loss"] for e in r["epochs"][:3]] for r in reports]
    assert len(losses[0]) == 3
    assert losses[0] == losses[1]  # bit-identical floats through JSON round trip
    assert blobs[0] == blobs[1]
    print(f"\n[PASS] C8 determinism: epochs 1-3 losses {losses[0][0]:.3f}.. identical, model bytes identical")


def test_c09_gate_discrimination(suffix_models, suffix_task, tmp_path):
    model = suffix_models["attention"]["model"]
    model_path = tmp_path / "attn.bin"
    save_model(model, model_path)

    raw_train, _, raw_test = make_suffix_corpus(seed=0)
    mixed = tmp_path / "mixed.conll"
    write_conll(mixed, raw_test + raw_train[:20])

    gates_path = tmp_path / "gates.tsv"
    assert main([
        "inspect-gates", "--model", str(model_path),
        "--input", str(mixed), "--out", str(gates_path),
    ]) == 0

    oov_means = []
    invocab_means = []
    for row in gates_path.read_text().splitlines()[1:]:
        cells = row.split("\t")
        zs = np.array([float(v) for v in cells[3:]])
        assert np.all(zs > 0.0) and np.all(zs < 1.0)
        (oov_means if cells[1] == "1" else invocab_means).append(float(cells[2]))
    assert oov_means and invocab_means
    gap = abs(np.mean(oov_means) - np.mean(invocab_means))
    assert gap > 0.02
    print(f"\n[PASS] C9 gate discrimination: OOV/in-vocab mean gate gap {gap:.3f}")


def test_c10_metric_oracles():
    gold = [
        ["B-PER", "I-PER", "O"],
        ["O", "B-LOC"],
        ["B-ORG", "I-ORG", "I-ORG", "O"],
        ["O", "O"],
        ["I-LOC", "O", "B-LOC"],
        ["B-PER", "O"],
        ["O"],
        ["B-A", "I-A", "B-A"],
        ["O", "B-B", "I-B", "O", "B-B"],
        ["B-C"],
    ]
    pred = [
        ["B-PER", "I-PER", "O"],
        ["O", "O"],
        ["B-ORG", "I-ORG", "O", "O"],
        ["O", "O"],
        ["B-LOC", "O", "B-LOC"],
        ["O", "B-PER"],
        ["O"],
        ["B-A", "I-A", "I-A"],
        ["O", "B-B", "I-B", "O", "O"],
        ["B-C"],
    ]
    # hand count: 19 of 26 tokens agree
    acc = token_accuracy(gold, pred)
    assert acc.components == {"correct": 19, "total": 26}
    assert acc.value == 19 / 26

    # hand-enumerated spans give TP=5 FP=3 FN=6, so P=5/8, R=5/11, F1=10/19
    f1 = span_f1([extract_spans(g) for g in gold], [extract_spans(p) for p in pred])
    assert f1.components["tp"] == 5
    assert f1.components["fp"] == 3
    assert f1.components["fn"] == 6
    assert f1.value == pytest.approx(10 / 19, abs=1e-15)

    # degenerate: no predicted spans at all
    empty = span_f1([extract_spans(g) for g in gold], [[] for _ in gold])
    assert empty.value == 0.0 and empty.components["precision"] == 0.0

    # binary error detection: TP=2 FP=1 FN=2 -> P=2/3, R=1/2, F0.5=0.625
    b_gold = [1, 0, 1, 1, 0, 0, 1, 0]
    b_pred = [1, 0, 0, 1, 1, 0, 0, 0]
    fb = f_beta_binary(b_gold, b_pred, beta=0.5)
    assert fb.components["tp"] == 2 and fb.components["fp"] == 1 and fb.components["fn"] == 2
    assert fb.value == pytest.approx(0.625, abs=1e-15)

    degen = f_beta_binary([0, 0], [0, 0], beta=0.5)
    assert degen.value == 0.0 and degen.degenerate
    print("\n[PASS] C10 metric oracles: accuracy 19/26, span F1 10/19, F0.5 0.625, degenerate cases flagged")
