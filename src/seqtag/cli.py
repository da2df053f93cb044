"""Command-line surface.

Subcommands::

    train          fit a model, writing manifest, model container and
                   per-epoch report (TSV plus JSON twin) to an output dir
    evaluate       score a saved model on a labeled file
    tag            append a predicted-label column to a CoNLL-style file
    inspect-gates  dump per-token gate vectors of an attention model
    count-params   print total and no-embedding parameter counts
    dataset-stats  print sentence/token/label counts for a data file

Config files are flat ``key = value`` lines mirroring the model
configuration fields; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import build_vocab, load_conll, load_pretrained_embeddings, read_conll
from .model import (ARCHITECTURES, FIELD_TYPES, METRICS, OUTPUTS, ModelConfig, atomic_open, count_parameters,
                    load_model, save_model)
from .training import TrainingFailed, evaluate, train


def read_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def config_from_mapping(raw: dict) -> ModelConfig:
    """Coerce string values to the declared field types."""
    types = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    coerced = {}
    for key, value in raw.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        _, parse, expected = FIELD_TYPES[types[key]]
        try:
            coerced[key] = parse(value)
        except (KeyError, ValueError):
            raise ValueError(f"config key {key!r}: expected {expected}, got {value!r}") from None
    return ModelConfig.from_dict(coerced)


def _load_split(path, args):
    return load_conll(path, token_column=args.token_column, label_column=args.label_column)


def _write_json(path, payload):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(out_dir: Path, report):
    with atomic_open(out_dir / "report.tsv", "w", encoding="utf-8") as fh:
        fh.write(report.table())
    _write_json(out_dir / "report.json", report.to_dict())


def cmd_train(args) -> int:
    raw = read_config_file(args.config) if args.config else {}
    if args.arch:
        raw["architecture"] = args.arch
    if args.output_layer:
        raw["output"] = args.output_layer
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    config = config_from_mapping(raw)

    train_sents = _load_split(args.train, args)
    dev_sents = _load_split(args.dev, args)
    vocab = build_vocab(train_sents)
    pretrained = None
    if args.embeddings:
        # a stream of its own: assemble_model draws the other tensors from default_rng(seed)
        pretrained = load_pretrained_embeddings(
            args.embeddings, vocab, config.word_dim,
            rng=np.random.default_rng([config.seed, 2]),
            dtype=config.np_dtype(),
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's outputs go before the new manifest, so no model sits beside a manifest that did not make it
    for stale in ("FAILED", "model.bin", "report.tsv", "report.json"):
        (out_dir / stale).unlink(missing_ok=True)
    manifest = {
        "version": __version__,
        "config": config.to_dict(),
        "data": {"train": str(args.train), "dev": str(args.dev)},
        "seed": config.seed,
        "out_dir": str(out_dir),
    }
    _write_json(out_dir / "manifest.json", manifest)

    try:
        model, report = train(config, train_sents, dev_sents, vocab, pretrained=pretrained)
    except Exception as exc:
        if isinstance(exc, TrainingFailed):
            _write_report(out_dir, exc.report)
        (out_dir / "FAILED").write_text("training did not complete; outputs are partial\n")
        raise
    save_model(model, out_dir / "model.bin")
    _write_report(out_dir, report)
    best = report.epochs[report.best_epoch - 1]
    print(
        f"trained {config.architecture}/{config.output}: best epoch {report.best_epoch} "
        f"(dev {config.dev_metric} {best.dev_metric:.4f}), stopped after {report.stopped_epoch}"
    )
    return 0


def cmd_evaluate(args) -> int:
    if args.metric == "f0.5" and not args.positive_label:
        raise ValueError("evaluate: --metric f0.5 needs --positive-label")
    model = load_model(args.model)
    sentences = model.vocab.encode_corpus(_load_split(args.data, args))
    print(evaluate(model, sentences, args.metric, args.positive_label))
    return 0


def cmd_tag(args) -> int:
    model = load_model(args.model)
    # a file is replaced only once every sentence is tagged
    with atomic_open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for rows, sent in read_conll(args.input, args.token_column, label_column=None):
            if rows is None:
                out.write("\n")
                continue
            labels = model.predict_labels(model.vocab.encode(sent))
            out.writelines(f"{row}\t{label}\n" for row, label in zip(rows, labels))
    return 0


def cmd_inspect_gates(args) -> int:
    model = load_model(args.model)
    if model.config.architecture != "attention":  # before --out is opened, so also for an empty input
        raise ValueError(f"inspect-gates: model architecture is {model.config.architecture!r}, not 'attention'")
    sentences = model.vocab.encode_corpus(load_conll(args.input, args.token_column, label_column=None))
    dim = model.config.word_dim
    with atomic_open(args.out, "w", encoding="utf-8") as fh:
        header = ["token", "oov", "mean_z"] + [f"z{i}" for i in range(dim)]
        fh.write("\t".join(header) + "\n")
        for sent in sentences:
            gates = model.gates(sent)
            flags = np.equal(sent.word_ids, model.vocab.oov_word_id)
            for token, oov, z in zip(sent.surface, flags, gates):
                cells = [token, str(int(oov)), f"{z.mean():.8f}"]
                cells.extend(f"{v:.8f}" for v in z)
                fh.write("\t".join(cells) + "\n")
    return 0


def cmd_count_params(args) -> int:
    config = config_from_mapping(read_config_file(args.config))
    vocab = build_vocab(_load_split(args.vocab_from, args))
    # counted from the configuration, so a model too large to build still gets its numbers
    total, noemb = count_parameters(config, vocab)
    print("total\tnoemb")
    print(f"{total}\t{noemb}")
    return 0


def cmd_dataset_stats(args) -> int:
    sentences = _load_split(args.data, args)
    tokens = sum(len(sent) for sent in sentences)
    labels = {lab for sent in sentences for lab in sent.labels}
    print("split\tsentences\ttokens\tlabels")
    print(f"data\t{len(sentences)}\t{tokens}\t{len(labels)}")
    return 0


def _add_column_args(p):
    p.add_argument("--token-column", type=int, default=0)
    p.add_argument("--label-column", type=int, default=-1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqtag", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"seqtag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagger")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", choices=ARCHITECTURES)
    p.add_argument("--output", dest="output_layer", choices=OUTPUTS)
    p.add_argument("--seed", type=int)
    p.add_argument("--embeddings", help="pretrained word vectors, text format")
    _add_column_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--positive-label", default="")
    _add_column_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tag", help="append a predicted-label column")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--token-column", type=int, default=0)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("inspect-gates", help="export attention gate values")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--token-column", type=int, default=0)
    p.set_defaults(func=cmd_inspect_gates)

    p = sub.add_parser("count-params", help="print parameter counts")
    p.add_argument("--config", required=True)
    p.add_argument("--vocab-from", required=True, help="CoNLL file to size the vocabulary")
    _add_column_args(p)
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("dataset-stats", help="print corpus statistics")
    p.add_argument("--data", required=True)
    _add_column_args(p)
    p.set_defaults(func=cmd_dataset_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does): end quietly, with stdout on
        # the null device so that the flush at interpreter exit fails neither
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
