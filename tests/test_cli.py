import json
import struct

import numpy as np
import pytest

from seqtag.cli import config_from_mapping, main, read_config_file
from seqtag.corpus import build_vocab, load_conll, write_conll
from seqtag.metrics import token_accuracy
from seqtag.model import load_model
from seqtag.synthdata import make_suffix_corpus

TINY_CONFIG = """\
# desk-scale settings
architecture = word
output = crf
word_dim = 6
char_dim = 4
word_lstm_hidden = 5
char_lstm_hidden = 5
d_size = 4
batch_size = 8
patience = 3
max_epochs = 2
seed = 11
dtype = float32
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    tr, dev, te = make_suffix_corpus(
        n_train_types=24, n_test_types=8, sentence_len=4, n_dev_sentences=4,
        singleton_fraction=0.25, seed=2,
    )
    write_conll(root / "train.conll", tr)
    write_conll(root / "dev.conll", dev)
    write_conll(root / "test.conll", te)
    (root / "tiny.cfg").write_text(TINY_CONFIG)
    (root / "attn.cfg").write_text(TINY_CONFIG.replace("= word", "= attention"))
    return root


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run")
    code = main([
        "train", "--config", str(data_dir / "tiny.cfg"),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out / "word"),
    ])
    assert code == 0
    code = main([
        "train", "--config", str(data_dir / "attn.cfg"),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out / "attn"),
    ])
    assert code == 0
    return out


def test_train_writes_expected_artifacts(trained_dir):
    for run in ("word", "attn"):
        base = trained_dir / run
        for name in ("manifest.json", "model.bin", "report.tsv", "report.json"):
            assert (base / name).exists(), name
        manifest = json.loads((base / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert "config" in manifest and "data" in manifest


def test_train_report_has_aux_column(trained_dir):
    lines = (trained_dir / "attn" / "report.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    assert "aux_loss" in header
    aux = float(lines[1].split("\t")[header.index("aux_loss")])
    assert aux > 0.0


def test_train_missing_file_fails_with_path(tmp_path, capsys):
    code = main([
        "train", "--train", str(tmp_path / "absent.conll"),
        "--dev", str(tmp_path / "absent.conll"), "--out", str(tmp_path / "o"),
    ])
    assert code != 0
    assert "absent.conll" in capsys.readouterr().err


def test_cli_flags_override_config(data_dir, tmp_path):
    out = tmp_path / "override"
    code = main([
        "train", "--config", str(data_dir / "tiny.cfg"),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out), "--arch", "concat", "--seed", "99",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["architecture"] == "concat"
    assert manifest["config"]["seed"] == 99


def test_train_with_pretrained_embeddings(data_dir, tmp_path):
    words = {w for s in load_conll(data_dir / "train.conll") for w in s.normalized}
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(
        "".join(f"{w} " + " ".join(["0.01"] * 6) + "\n" for w in sorted(words)[:5])
    )
    out = tmp_path / "pre"
    code = main([
        "train", "--config", str(data_dir / "tiny.cfg"),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out), "--embeddings", str(vectors),
    ])
    assert code == 0
    assert (out / "model.bin").exists()

    # a mismatched width is refused before any training happens
    bad = tmp_path / "bad_vectors.txt"
    bad.write_text("word 0.1 0.2\n")
    code = main([
        "train", "--config", str(data_dir / "tiny.cfg"),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(tmp_path / "pre2"), "--embeddings", str(bad),
    ])
    assert code == 1


def test_evaluate_matches_library(trained_dir, data_dir, capsys):
    model_path = trained_dir / "word" / "model.bin"
    code = main([
        "evaluate", "--model", str(model_path),
        "--data", str(data_dir / "test.conll"), "--metric", "acc",
    ])
    assert code == 0
    line = capsys.readouterr().out.strip()
    reported = float(line.split("\t")[1])

    model = load_model(model_path)
    sents = model.vocab.encode_corpus(load_conll(data_dir / "test.conll"))
    gold = [s.labels for s in sents]
    pred = [model.predict_labels(s) for s in sents]
    assert reported == pytest.approx(token_accuracy(gold, pred).value, abs=1e-6)


def test_evaluate_span_f1_on_iob_data(tmp_path, capsys):
    sentences = "\n".join([
        "john B-PER", "smith I-PER", "went O", "home O", "",
        "acme B-ORG", "hired O", "john B-PER", "",
        "nothing O", "here O", "",
    ]) + "\n"
    (tmp_path / "train.conll").write_text(sentences * 2)
    (tmp_path / "dev.conll").write_text(sentences)
    cfg = tmp_path / "iob.cfg"
    cfg.write_text(TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1"))
    out = tmp_path / "run"
    assert main([
        "train", "--config", str(cfg), "--train", str(tmp_path / "train.conll"),
        "--dev", str(tmp_path / "dev.conll"), "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert main([
        "evaluate", "--model", str(out / "model.bin"),
        "--data", str(tmp_path / "dev.conll"), "--metric", "span-f1",
    ]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("span_f1\t")
    assert 0.0 <= float(line.split("\t")[1]) <= 1.0


def test_evaluate_f05_needs_positive_label(trained_dir, data_dir, capsys):
    code = main([
        "evaluate", "--model", str(trained_dir / "word" / "model.bin"),
        "--data", str(data_dir / "test.conll"), "--metric", "f0.5",
    ])
    assert code == 1
    assert "positive-label" in capsys.readouterr().err


def test_tag_preserves_input_columns(trained_dir, tmp_path, capsys):
    src = tmp_path / "in.conll"
    src.write_text("alphaan X extra1\nbetaeb Y extra2\n\ngammaic Z extra3\n\n")
    code = main([
        "tag", "--model", str(trained_dir / "word" / "model.bin"), "--input", str(src),
    ])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0].startswith("alphaan X extra1\t")
    assert out_lines[1].startswith("betaeb Y extra2\t")
    assert out_lines[2] == ""
    assert out_lines[3].startswith("gammaic Z extra3\t")
    labels = [l.rsplit("\t", 1)[1] for l in out_lines if l]
    assert all(lab.startswith("C") for lab in labels)


def test_tag_short_row_names_file_and_line(trained_dir, tmp_path, capsys):
    src = tmp_path / "in.conll"
    src.write_text("alphaan X\nbetaeb\n\n")
    code = main([
        "tag", "--model", str(trained_dir / "word" / "model.bin"), "--input", str(src),
        "--token-column", "1",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{src}:2: expected at least 2 columns" in err


@pytest.mark.parametrize("mutate", [
    lambda h: h.pop("config"),
    lambda h: h.update(config=[]),
    lambda h: h.pop("vocab"),
    lambda h: h["vocab"].pop("words"),
    lambda h: h.pop("tensors"),
    lambda h: h["tensors"][0].pop("name"),
    lambda h: h["tensors"][0].update(shape=7),
], ids=["no-config", "list-config", "no-vocab", "no-words", "no-tensors", "no-name", "int-shape"])
def test_malformed_model_header_is_an_error(trained_dir, data_dir, tmp_path, capsys, mutate):
    raw = (trained_dir / "word" / "model.bin").read_bytes()
    (n,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + n])
    mutate(header)
    blob = json.dumps(header).encode("utf-8")
    bad = tmp_path / "model.bin"
    bad.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + raw[12 + n:])
    code = main([
        "evaluate", "--model", str(bad), "--data", str(data_dir / "test.conll"), "--metric", "acc",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err


def test_inspect_gates_output(trained_dir, data_dir, tmp_path):
    out1 = tmp_path / "gates1.tsv"
    out2 = tmp_path / "gates2.tsv"
    for out in (out1, out2):
        code = main([
            "inspect-gates", "--model", str(trained_dir / "attn" / "model.bin"),
            "--input", str(data_dir / "test.conll"), "--out", str(out),
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["token", "oov", "mean_z"]
    n_tokens = sum(1 for s in load_conll(data_dir / "test.conll") for _ in s.surface)
    assert len(lines) == 1 + n_tokens
    for row in lines[1:]:
        cells = row.split("\t")
        assert cells[1] in ("0", "1")
        zs = np.array([float(v) for v in cells[3:]])
        assert np.all(zs > 0.0) and np.all(zs < 1.0)


def test_inspect_gates_rejects_word_model(trained_dir, data_dir, tmp_path, capsys):
    code = main([
        "inspect-gates", "--model", str(trained_dir / "word" / "model.bin"),
        "--input", str(data_dir / "test.conll"), "--out", str(tmp_path / "g.tsv"),
    ])
    assert code == 1
    assert "attention" in capsys.readouterr().err


def test_count_params_matches_library(data_dir, capsys):
    code = main([
        "count-params", "--config", str(data_dir / "tiny.cfg"),
        "--vocab-from", str(data_dir / "train.conll"),
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "total\tnoemb"
    total, noemb = (int(v) for v in out[1].split("\t"))

    from seqtag.model import assemble_model, count_parameters

    config = config_from_mapping(read_config_file(data_dir / "tiny.cfg"))
    vocab = build_vocab(load_conll(data_dir / "train.conll"))
    expect_total, expect_noemb = count_parameters(assemble_model(config, vocab))
    assert (total, noemb) == (expect_total, expect_noemb)


def test_dataset_stats_matches_independent_count(data_dir, capsys):
    code = main(["dataset-stats", "--data", str(data_dir / "train.conll")])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "split\tsentences\ttokens\tlabels"
    _, n_sents, n_tokens, n_labels = out[1].split("\t")

    # independent line-based recount
    sents = 0
    tokens = 0
    labels = set()
    in_block = False
    for line in (data_dir / "train.conll").read_text().splitlines():
        if not line.strip():
            if in_block:
                sents += 1
            in_block = False
            continue
        in_block = True
        tokens += 1
        labels.add(line.split()[-1])
    if in_block:
        sents += 1
    assert (int(n_sents), int(n_tokens), int(n_labels)) == (sents, tokens, len(labels))


def test_config_parsing_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("word_dim 6\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config_file(bad)
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"depth": "3"})
    with pytest.raises(ValueError, match="boolean"):
        config_from_mapping({"shuffle": "maybe"})
