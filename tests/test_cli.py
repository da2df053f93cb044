import dataclasses
import json
import os
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from seqtag import cli
from seqtag.cli import config_from_mapping, main, read_config_file
from seqtag.corpus import build_vocab, load_conll
from seqtag.metrics import token_accuracy
from seqtag.model import Model, ModelConfig, ModelFormatError, assemble_model, load_model

from synthdata import make_suffix_corpus, write_conll

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


def test_pretrained_table_draws_apart_from_the_model(data_dir, tmp_path, monkeypatch):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("zebra " + " ".join(["0.5"] * 6) + "\n")  # no vocabulary word: every row is drawn
    seen = {}

    class Stop(Exception):
        pass

    def capture(config, train_sents, dev_sents, vocab, pretrained=None):
        seen.update(config=config, vocab=vocab, pretrained=pretrained)
        raise Stop

    monkeypatch.setattr(cli, "train", capture)
    with pytest.raises(Stop):
        main(["train", "--config", str(data_dir / "tiny.cfg"), "--train", str(data_dir / "train.conll"),
              "--dev", str(data_dir / "dev.conll"), "--out", str(tmp_path / "run"),
              "--embeddings", str(vectors)])
    model = assemble_model(seen["config"], seen["vocab"], seen["pretrained"])
    table = seen["pretrained"].ravel()
    w_x = model.params["word_lstm.fwd.w_x"].values.ravel()  # the first tensor drawn after the table
    k = min(table.size, w_x.size)
    assert k > 50
    assert abs(np.corrcoef(table[:k], w_x[:k])[0, 1]) < 0.5


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
    # gold labels that are not IOB fail before any sentence is decoded
    (tmp_path / "pos.conll").write_text("the DT\ncat NN\n")
    with mock.patch.object(Model, "predict_labels", autospec=True, side_effect=Model.predict_labels) as decode:
        assert main([
            "evaluate", "--model", str(out / "model.bin"),
            "--data", str(tmp_path / "pos.conll"), "--metric", "span-f1",
        ]) == 1
    assert decode.call_count == 0
    assert capsys.readouterr().err == "error: evaluate: span-f1 needs IOB labels (O, B-X, I-X), got 'DT'\n"


def test_evaluate_span_f1_with_a_non_iob_model_fails_before_decoding(trained_dir, data_dir, capsys):
    with mock.patch.object(Model, "predict_labels", autospec=True, side_effect=Model.predict_labels) as decode:
        code = main([
            "evaluate", "--model", str(trained_dir / "word" / "model.bin"),
            "--data", str(data_dir / "test.conll"), "--metric", "span-f1",
        ])
    assert code == 1
    assert decode.call_count == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: evaluate: span-f1 needs IOB labels")
    assert err[0].endswith(f"got {load_model(trained_dir / 'word' / 'model.bin').vocab.label_set.labels[0]!r}")


def test_evaluate_f05_needs_positive_label(trained_dir, data_dir, capsys):
    args = ["evaluate", "--model", str(trained_dir / "word" / "model.bin"),
            "--data", str(data_dir / "test.conll"), "--metric", "f0.5"]
    assert main(args) == 1
    assert "positive-label" in capsys.readouterr().err
    assert main(args + ["--positive-label", "nosuch"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evaluate: positive_label 'nosuch' is not a training label\n"


def test_tag_preserves_input_columns(trained_dir, tmp_path, capsys):
    """Every input row comes back in order as the first tab field, and every
    blank line (leading, repeated or whitespace-only) as an empty line, also
    when the last row has no line end."""
    rows = ["", "", "alphaan X extra1", "betaeb Y extra2", " \t ", "", "", "gammaic Z extra3"]
    src = tmp_path / "in.conll"
    src.write_text("\n".join(rows))
    code = main([
        "tag", "--model", str(trained_dir / "word" / "model.bin"), "--input", str(src),
    ])
    assert code == 0
    out_lines = capsys.readouterr().out.split("\n")
    assert out_lines.pop() == ""  # the last row's line gets its line end
    assert [line.split("\t")[0] for line in out_lines] == [row if row.strip() else "" for row in rows]
    tagged = [line.split("\t") for line in out_lines if line]
    assert len(tagged) == 3 and all(len(cells) == 2 and cells[1].startswith("C") for cells in tagged)


def test_tag_into_a_closed_pipe_exits_quietly(trained_dir, tmp_path):
    """A reader that stops after one line, as `seqtag tag ... | head -n 1` does,
    ends the command with status 0 and nothing on stderr."""
    src = tmp_path / "big.conll"
    src.write_text("alphaan X\nbetaeb Y\n\n" * 6000)  # about 130 KiB of output, past a pipe's buffer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with subprocess.Popen(
        [sys.executable, "-m", "seqtag.cli", "tag", "--model", str(trained_dir / "word" / "model.bin"),
         "--input", str(src)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"alphaan X\t")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


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


def test_tag_failure_keeps_existing_out_file(trained_dir, tmp_path, capsys):
    src = tmp_path / "in.conll"
    src.write_text("alphaan X\nbetaeb Y\n\ngammaic\n\n")  # the second sentence's row is short
    out = tmp_path / "tagged.conll"
    out.write_bytes(b"earlier output\n")
    code = main([
        "tag", "--model", str(trained_dir / "word" / "model.bin"), "--input", str(src),
        "--token-column", "1", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.conll", "tagged.conll"]


def test_inspect_gates_failure_keeps_existing_out_file(trained_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "gates.tsv"
    out.write_bytes(b"earlier gates\n")
    code = main([
        "inspect-gates", "--model", str(trained_dir / "word" / "model.bin"),
        "--input", str(data_dir / "test.conll"), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_bytes() == b"earlier gates\n"
    assert [p.name for p in tmp_path.iterdir()] == ["gates.tsv"]


def test_oversized_header_length_is_an_error(trained_dir, data_dir, tmp_path, capsys):
    raw = (trained_dir / "word" / "model.bin").read_bytes()
    bad = tmp_path / "model.bin"
    bad.write_bytes(raw[:4] + struct.pack("<Q", 2**62) + raw[12:])
    code = main([
        "evaluate", "--model", str(bad), "--data", str(data_dir / "test.conll"), "--metric", "acc",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err and "header length" in err


@pytest.mark.parametrize("mutate", [
    lambda h: h.pop("config"),
    lambda h: h.update(config=[]),
    lambda h: h.pop("vocab"),
    lambda h: h["vocab"].pop("words"),
    lambda h: h.pop("tensors"),
    lambda h: h["tensors"][0].pop("name"),
    lambda h: h["tensors"][0].update(shape=7),
    lambda h: h["config"].update(word_dim=4.0),
    lambda h: h["config"].update(d_size=True),
    lambda h: h["config"].update(seed=1.5),
    lambda h: h["config"].update(seed=-1),
], ids=["no-config", "list-config", "no-vocab", "no-words", "no-tensors", "no-name", "int-shape",
        "float-word-dim", "bool-d-size", "float-seed", "negative-seed"])
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


@pytest.mark.parametrize("raw,message", [
    (b"SQTG\x00\x00\x00", "truncated model file (missing header length)"),
    (b"SQTG" + struct.pack("<Q", 2) + b"[]", "corrupt header (not a JSON object)"),
], ids=["three-length-bytes", "list-header"])
def test_tag_rejects_a_cut_length_or_a_header_that_is_no_object(data_dir, tmp_path, capsys, raw, message):
    bad = tmp_path / "model.bin"
    bad.write_bytes(raw)
    with pytest.raises(ModelFormatError) as info:
        load_model(bad)
    assert str(info.value) == f"{bad}: {message}"
    code = main(["tag", "--model", str(bad), "--input", str(data_dir / "test.conll")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


def test_manifest_listing_a_tensor_twice_is_an_error(trained_dir, data_dir, tmp_path, capsys):
    raw = (trained_dir / "word" / "model.bin").read_bytes()
    (n,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + n])
    entry = next(e for e in header["tensors"] if e["name"] == "output.w_o")
    header["tensors"].append(dict(entry))
    blob = json.dumps(header).encode("utf-8")
    # the second copy's data, appended after the rest, would overwrite the first
    again = np.full(entry["shape"], 9.0, dtype="<f4").tobytes()
    bad = tmp_path / "model.bin"
    bad.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + raw[12 + n:] + again)
    code = main([
        "evaluate", "--model", str(bad), "--data", str(data_dir / "test.conll"), "--metric", "acc",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err and "manifest" in err


def test_header_config_larger_than_the_file_is_an_error(trained_dir, data_dir, tmp_path, capsys):
    raw = (trained_dir / "word" / "model.bin").read_bytes()
    (n,) = struct.unpack("<Q", raw[4:12])
    header = json.loads(raw[12:12 + n])
    header["config"]["word_dim"] = 10**15
    blob = json.dumps(header).encode("utf-8")
    bad = tmp_path / "model.bin"
    bad.write_bytes(raw[:4] + struct.pack("<Q", len(blob)) + blob + raw[12 + n:])
    code = main([
        "evaluate", "--model", str(bad), "--data", str(data_dir / "test.conll"), "--metric", "acc",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err and "bytes of tensor data" in err


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


def test_inspect_gates_reads_one_column_input(trained_dir, data_dir, tmp_path):
    tokens = tmp_path / "tokens.conll"
    tokens.write_text("".join(
        "".join(f"{w}\n" for w in s.surface) + "\n" for s in load_conll(data_dir / "test.conll")
    ))
    out = tmp_path / "gates.tsv"
    code = main([
        "inspect-gates", "--model", str(trained_dir / "attn" / "model.bin"),
        "--input", str(tokens), "--out", str(out),
    ])
    assert code == 0
    n_tokens = sum(1 for line in tokens.read_text().splitlines() if line)
    assert len(out.read_text().splitlines()) == 1 + n_tokens


def test_inspect_gates_rejects_word_model(trained_dir, data_dir, tmp_path, capsys):
    empty = tmp_path / "empty.conll"
    empty.write_text("")
    for source in (data_dir / "test.conll", empty):
        code = main([
            "inspect-gates", "--model", str(trained_dir / "word" / "model.bin"),
            "--input", str(source), "--out", str(tmp_path / "g.tsv"),
        ])
        assert code == 1, source
        assert "attention" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.conll"]


def test_count_params_matches_library(data_dir, capsys):
    code = main([
        "count-params", "--config", str(data_dir / "tiny.cfg"),
        "--vocab-from", str(data_dir / "train.conll"),
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "total\tnoemb"
    total, noemb = (int(v) for v in out[1].split("\t"))

    from seqtag.model import assemble_model

    config = config_from_mapping(read_config_file(data_dir / "tiny.cfg"))
    vocab = build_vocab(load_conll(data_dir / "train.conll"))
    tensors = assemble_model(config, vocab).all_tensors()
    assert total == sum(t.size for t in tensors.values())
    assert total - noemb == tensors["word_embeddings"].size


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


@pytest.mark.parametrize("content", ["", "\n\n  \n"])
def test_dataset_stats_of_a_file_without_sentences(tmp_path, capsys, content):
    (tmp_path / "empty.conll").write_text(content)
    assert main(["dataset-stats", "--data", str(tmp_path / "empty.conll")]) == 0
    assert capsys.readouterr().out == "split\tsentences\ttokens\tlabels\ndata\t0\t0\t0\n"


def test_config_parsing_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("word_dim 6\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config_file(bad)
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"depth": "3"})
    with pytest.raises(ValueError, match="boolean"):
        config_from_mapping({"shuffle": "maybe"})


def test_train_rejects_one_column_rows(data_dir, tmp_path, capsys):
    train_file = tmp_path / "tokens.conll"
    train_file.write_text("the\ncat\n\n")
    out = tmp_path / "run"
    code = main([
        "train", "--config", str(data_dir / "tiny.cfg"),
        "--train", str(train_file), "--dev", str(data_dir / "dev.conll"), "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{train_file}:1" in err
    assert not (out / "model.bin").exists()


def test_config_value_errors_name_the_key(data_dir, tmp_path, capsys):
    bad_int = tmp_path / "bad-int.cfg"
    bad_int.write_text(TINY_CONFIG + "word_dim = abc\n")
    code = main([
        "train", "--config", str(bad_int), "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"), "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: config key 'word_dim': expected an int, got 'abc'\n"
    bad_float = tmp_path / "bad-float.cfg"
    bad_float.write_text(TINY_CONFIG + "learning_rate = fast\n")
    code = main(["count-params", "--config", str(bad_float), "--vocab-from", str(data_dir / "train.conll")])
    assert code == 1
    assert capsys.readouterr().err == "error: config key 'learning_rate': expected a float, got 'fast'\n"


def test_train_with_non_finite_loss_fails(data_dir, tmp_path, capsys):
    config = tmp_path / "huge-step.cfg"
    config.write_text(TINY_CONFIG + "learning_rate = 1e300\n")
    out = tmp_path / "run"
    code = main([
        "train", "--config", str(config),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epoch 1" in err
    assert (out / "FAILED").exists()
    assert not (out / "model.bin").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["epochs"][0]["rejected_steps"] > 0
    assert "rejected_steps" in (out / "report.tsv").read_text().splitlines()[0].split("\t")


def test_train_with_nan_learning_rate_fails_before_training(data_dir, tmp_path, capsys):
    config = tmp_path / "nan-step.cfg"
    config.write_text(TINY_CONFIG + "learning_rate = nan\n")
    out = tmp_path / "run"
    code = main([
        "train", "--config", str(config),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning_rate" in err
    assert not out.exists()


def test_train_with_f05_and_no_positive_label_fails_before_training(data_dir, tmp_path, capsys):
    with pytest.raises(ValueError, match="positive_label"):
        config_from_mapping({"dev_metric": "f0.5"})
    config = tmp_path / "f05.cfg"
    config.write_text(TINY_CONFIG + "dev_metric = f0.5\n")
    out = tmp_path / "run"
    code = main([
        "train", "--config", str(config),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: dev_metric f0.5 needs a positive label: set positive_label\n"
    assert not (out / "manifest.json").exists()


def test_train_with_an_unknown_positive_label_fails_before_training(data_dir, tmp_path, capsys):
    config = tmp_path / "nosuch.cfg"
    config.write_text(TINY_CONFIG + "dev_metric = f0.5\npositive_label = nosuch\n")
    out = tmp_path / "run"
    code = main([
        "train", "--config", str(config),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'nosuch'" in err[0]
    assert not (out / "model.bin").exists() and not (out / "report.json").exists()


def test_train_with_span_f1_on_non_iob_labels_fails_before_training(tmp_path, capsys):
    (tmp_path / "pos.conll").write_text("the DT\ncat NN\nsat VBD\n\na DT\ndog NN\n")
    config = tmp_path / "span.cfg"
    config.write_text(TINY_CONFIG + "dev_metric = span-f1\n")
    out = tmp_path / "run"
    with mock.patch.object(Model, "batch_loss_parts", autospec=True, side_effect=Model.batch_loss_parts) as step:
        code = main([
            "train", "--config", str(config),
            "--train", str(tmp_path / "pos.conll"),
            "--dev", str(tmp_path / "pos.conll"),
            "--out", str(out),
        ])
    assert code == 1
    assert step.call_count == 0
    assert capsys.readouterr().err == "error: train: span-f1 needs IOB labels (O, B-X, I-X), got 'DT'\n"
    assert not (out / "model.bin").exists() and not (out / "report.json").exists()




def test_a_successful_run_removes_an_earlier_failed_marker(data_dir, tmp_path):
    (tmp_path / "huge-step.cfg").write_text(TINY_CONFIG + "learning_rate = 1e300\n")
    for config, code in ((tmp_path / "huge-step.cfg", 1), (data_dir / "tiny.cfg", 0)):
        assert main(["train", "--config", str(config), "--train", str(data_dir / "train.conll"),
                     "--dev", str(data_dir / "dev.conll"), "--out", str(tmp_path / "run")]) == code
        assert (tmp_path / "run" / "FAILED").exists() == bool(code)


def test_a_failed_rerun_removes_the_earlier_runs_model(data_dir, tmp_path):
    (tmp_path / "huge-step.cfg").write_text(TINY_CONFIG + "learning_rate = 1e300\n")
    out = tmp_path / "run"
    for config, code in ((data_dir / "tiny.cfg", 0), (tmp_path / "huge-step.cfg", 1)):
        assert main(["train", "--config", str(config), "--train", str(data_dir / "train.conll"),
                     "--dev", str(data_dir / "dev.conll"), "--out", str(out)]) == code
    assert not (out / "model.bin").exists()
    assert (out / "FAILED").exists()
    assert len(json.loads((out / "report.json").read_text())["epochs"]) == 1


def test_count_params_counts_a_model_too_large_to_build(data_dir, tmp_path, capsys):
    (tmp_path / "huge.cfg").write_text(TINY_CONFIG.replace("word_dim = 6", "word_dim = 100000000000"))
    train = str(data_dir / "train.conll")
    assert main(["count-params", "--config", str(tmp_path / "huge.cfg"), "--vocab-from", train]) == 0
    vocab = build_vocab(load_conll(train))
    dim, labels = 10**11, len(vocab.label_set)
    # word/CRF: two word LSTMs (hidden 5), the hidden (d_size 4) and output layers, transitions
    noemb = 2 * 4 * 5 * (dim + 5 + 1) + 4 * (2 * 5 + labels) + (labels + 2) ** 2
    assert capsys.readouterr().out == f"total\tnoemb\n{vocab.n_words * dim + noemb}\t{noemb}\n"


def test_main_reports_running_out_of_memory(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_train", mock.Mock(side_effect=MemoryError("Unable to allocate 745. GiB")))
    assert main(["train", "--train", "t", "--dev", "d", "--out", "o"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=16)
_CONFIG_LINE = st.builds("{} = {}".format, st.sampled_from([f.name for f in dataclasses.fields(ModelConfig)]),
                         st.text("0123456789.-+eEnaftrugsolwdcp_ ", max_size=8))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(_TEXT, _CONFIG_LINE), max_size=8))
def test_any_config_text_is_a_valid_config_or_a_value_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("config") / "random.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        assert config_from_mapping(read_config_file(path)).validate()
    except ValueError:
        pass


_ROW = st.one_of(st.just(""), _TEXT, st.builds("{} {}".format, st.sampled_from(["the", "Ab1", "é"]),
                                               st.sampled_from(["O", "B-X", "I-X", "C1"])))
_FILE = st.one_of(st.lists(_ROW, max_size=10).map("\n".join).map(str.encode), st.binary(max_size=40))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=st.tuples(_FILE, _FILE),
       command=st.sampled_from(["train", "evaluate", "tag", "inspect-gates", "dataset-stats"]))
def test_any_input_file_succeeds_or_is_an_error_line(trained_dir, data_dir, tmp_path_factory, capsys, files,
                                                     command):
    root = tmp_path_factory.mktemp("random-input")
    a, b, model = root / "a.conll", root / "b.conll", str(trained_dir / "attn" / "model.bin")
    a.write_bytes(files[0])
    b.write_bytes(files[1])
    capsys.readouterr()
    code = main([command] + {
        "train": ["--config", str(data_dir / "attn.cfg"), "--train", str(a), "--dev", str(b),
                  "--out", str(root / "o")],
        "evaluate": ["--model", model, "--data", str(a), "--metric", "span-f1"],
        "tag": ["--model", model, "--input", str(a)],
        "inspect-gates": ["--model", model, "--input", str(a), "--out", str(root / "gates.tsv")],
        "dataset-stats": ["--data", str(a)],
    }[command])
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or code == 1 and err.startswith("error:") and err.count("\n") == 1
