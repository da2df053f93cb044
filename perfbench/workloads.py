"""The three benchmark workloads and the metrics built from their steps.

Each workload is a closed loop: one caller, and the next step starts only
after the previous one has finished. A train step is one batch of 64
sentences through ``seqtag.training.train`` (forward on a tape, backward,
AdaDelta step); a tag step is one sentence through ``Vocabulary.encode``
and ``Model.predict_labels``, the path ``seqtag tag`` takes.

All models use the paper's dimensions, which are ``ModelConfig``'s
defaults: word 300, char 50, LSTM 200/200, d 50, batch 64, float32, CRF
output. The first step of a run is warm-up and is left out of the timings
(but not out of the output checks).
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import gen
import probe as tracing
from seqtag import autodiff, corpus, crf, model, training
from seqtag.corpus import Sentence, preprocess_token

SETUP_REPEATS = 5
FOREVER = 10**9  # patience and epoch cap: train() runs until the budget stops it


@dataclass
class Workload:
    name: str
    kind: str           # "train" or "tag"
    architecture: str
    sentences: int      # generated training sentences (the vocabulary's source)


WORKLOADS = {
    w.name: w for w in (
        Workload("train-attention-ner", "train", "attention", 3000),
        Workload("train-word-pos", "train", "word", 4200),
        Workload("tag-attention-ner", "tag", "attention", 3000),
    )
}


@dataclass
class Step:
    id: int
    seconds: float
    tokens: int
    traced: bool
    ok: bool


class _Stop(Exception):
    """Raised from a hook to leave ``train()``: after a set-up repeat, or once the budget is spent."""


class Run:
    """Outcome of one workload run, before it is turned into metrics."""

    def __init__(self):
        self.steps: list[Step] = []
        self.setup_seconds: list[float] = []
        self.build_vocab_seconds: list[float] = []
        self.load_seconds: list[float] = []
        self.failures = {}  # reason -> count; one failed operation may have several
        self.failed_setups = 0
        self.attempted = 0
        self.inputs = {}
        self.distinct_types = None  # traced steps -> distinct word types they cover

    def fail(self, reason):
        self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self):
        """Failed operations: steps that failed a check, and failed set-ups."""
        return sum(not s.ok for s in self.steps) + self.failed_setups


def _sentences(pairs):
    return [Sentence(t, [preprocess_token(w) for w in t], labels) for t, labels in pairs]


def _tape_length():
    tape = autodiff.active_tape()
    return len(tape) if tape is not None else 0


class _Budget:
    """Step boundaries and the time budget, shared by both loop kinds."""

    def __init__(self, run: Run, probe: tracing.Probe, seconds: float, traced: bool):
        self.run, self.probe, self.seconds, self.traced = run, probe, seconds, traced
        self.timed = 0.0  # seconds in timed steps: all but the warm-up
        self._begin_step(0)
        self.last = time.perf_counter()

    def _begin_step(self, i):
        # a traced run alternates untraced and traced steps, so the traced
        # run can state its own overhead
        self.probe.step = i
        self.probe.enabled = self.traced and i % 2 == 1

    def end_step(self, tokens, ok, end=None) -> bool:
        """Close the current step at ``end`` (default: now); False once the budget is spent.

        The checks and book-keeping between ``end`` and the return are left
        out of every step, so their cost never grows into the timings.
        """
        end = time.perf_counter() if end is None else end
        i = len(self.run.steps)
        self.run.steps.append(Step(i, end - self.last, tokens, self.probe.enabled, ok))
        self.run.attempted += 1
        if i > 0:
            self.timed += end - self.last
        self._begin_step(i + 1)
        # warm-up plus one timed step, or one of each kind when traced; then
        # stop when the next step would end more than half a step late
        more = i + 1 < (3 if self.traced else 2) or self.timed * (1 + 0.5 / i) < self.seconds
        self.last = time.perf_counter()
        return more


def run_train(w: Workload, seed: int, seconds: float, traced: bool, out_dir) -> tuple[Run, tracing.Probe]:
    rng = np.random.default_rng(seed)
    if w.architecture == "attention":
        pairs = gen.ner_corpus(rng, gen.NerLexicon(rng), w.sentences)
    else:
        pairs = gen.pos_corpus(rng, w.sentences)
    sentences = _sentences(pairs)
    config = model.ModelConfig(architecture=w.architecture, output="crf", seed=seed,
                               patience=FOREVER, max_epochs=FOREVER)
    size = config.batch_size
    batches = [sentences[i:i + size] for i in range(0, len(sentences), size)]
    batch_tokens = [sum(len(s) for s in b) for b in batches]

    run = Run()
    probe = tracing.Probe(_tape_length)
    state = {"budget": None, "final": False, "t0": 0.0, "loss_ok": True}

    def on_optimizer_ready(args, result):
        run.setup_seconds.append(time.perf_counter() - state["t0"])
        if not state["final"]:
            raise _Stop
        state["budget"] = _Budget(run, probe, seconds, traced)

    def on_backward(args, result):
        loss, tape = args[0], args[1]
        state["loss_ok"] = bool(np.isfinite(loss.values).all())
        if not state["loss_ok"]:
            run.fail("non-finite loss")
        probe.count_tape(tape)

    def on_step(args, accepted):
        if not accepted:
            run.fail("rejected AdaDelta step")
        budget = state["budget"]
        tokens = batch_tokens[len(run.steps) % len(batches)]
        if not budget.end_step(tokens, accepted and state["loss_ok"]):
            raise _Stop

    probe.hook("seqtag.training", "AdaDelta.__init__", on_optimizer_ready)
    probe.hook("seqtag.training", "backward", on_backward)
    probe.hook("seqtag.training", "AdaDelta.step", on_step)
    probe.install(traced)
    try:
        for rep in range(SETUP_REPEATS):
            state["final"] = rep == SETUP_REPEATS - 1
            state["t0"] = time.perf_counter()
            vocab = corpus.build_vocab(sentences)
            run.build_vocab_seconds.append(time.perf_counter() - state["t0"])
            encoded = vocab.encode_corpus(sentences)
            try:
                training.train(config, encoded, encoded[:1], vocab)
            except _Stop:
                pass
            else:
                raise RuntimeError("train() returned before the time budget was spent")
    finally:
        probe.close()

    distinct = [len({t for s in b for t in s.normalized}) for b in batches]
    oov = sum(wid == vocab.oov_word_id for s in encoded for wid in s.word_ids)
    run.inputs = _inputs(sentences, len(vocab.label_set), vocab.n_words, oov,
                         distinct_types_per_batch=statistics.fmean(distinct))
    run.distinct_types = lambda steps: sum(distinct[s.id % len(batches)] for s in steps)
    return run, probe


def run_tag(w: Workload, seed: int, seconds: float, traced: bool, out_dir) -> tuple[Run, tracing.Probe]:
    rng = np.random.default_rng(seed)
    lex = gen.NerLexicon(rng)
    train_sentences = _sentences(gen.ner_corpus(rng, lex, w.sentences))
    text = _sentences(gen.tag_text(rng, lex, 2 * w.sentences))

    config = model.ModelConfig(architecture=w.architecture, output="crf", seed=seed)
    vocab = corpus.build_vocab(train_sentences)
    saved = model.assemble_model(config, vocab)
    # a trained CRF has non-zero transitions; zeros would make Viterbi a per-token argmax
    trans = saved.transitions.values
    trans[...] = rng.normal(0.0, 1.0, size=trans.shape).astype(trans.dtype)
    reference = saved.state_arrays()
    path = os.path.join(out_dir, f"{w.name}-s{seed}-{os.getpid()}.bin")
    model.save_model(saved, path)
    del saved

    run = Run()
    probe = tracing.Probe(_tape_length)
    decoded = []
    probe.hook("seqtag.model", "viterbi_decode", lambda args, result: decoded.append((args[0], result)))
    probe.install(traced)
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            tagger = model.load_model(path)
            run.load_seconds.append(time.perf_counter() - t0)
            run.setup_seconds.append(run.load_seconds[-1])
            run.attempted += 1
            if not _same_parameters(tagger, reference):
                run.fail("load_model round trip changed parameters")
                run.failed_setups += 1

        labels_of = tagger.vocab.label_set.label
        budget = _Budget(run, probe, seconds, traced)
        running = True
        while running:
            sent = text[len(run.steps) % len(text)]
            decoded.clear()
            enc = tagger.vocab.encode(sent)
            labels = tagger.predict_labels(enc)
            done = time.perf_counter()
            ok = _decode_ok(sent, labels, decoded, labels_of)
            if not ok:
                run.fail("decode check")
            running = budget.end_step(len(sent), ok, done)
    finally:
        probe.close()
        os.remove(path)

    encoded = [tagger.vocab.encode(s) for s in text]
    oov = sum(wid == tagger.vocab.oov_word_id for s in encoded for wid in s.word_ids)
    n_types = len({t for s in text for t in s.normalized})
    run.inputs = _inputs(text, len(tagger.vocab.label_set), tagger.vocab.n_words, oov,
                         distinct_types_per_file=n_types)
    run.distinct_types = lambda steps: len({t for s in steps for t in text[s.id % len(text)].normalized})
    return run, probe


def _decode_ok(sent, labels, decoded, labels_of) -> bool:
    """The labels come from one Viterbi path whose score re-scores exactly."""
    if len(decoded) != 1 or len(labels) != len(sent):
        return False
    lattice, (path, score) = decoded[0]
    return [labels_of(p) for p in path] == list(labels) and crf.crf_sequence_score(lattice, path) == score


def _same_parameters(loaded, reference) -> bool:
    tensors = loaded.all_tensors()
    if set(tensors) != set(reference):
        return False
    return all(
        tensors[n].values.dtype == np.float32 and np.array_equal(tensors[n].values, v)
        for n, v in reference.items()
    )


def _inputs(sentences, labels, rows, oov_tokens, **distinct):
    tokens = sum(len(s) for s in sentences)
    return {
        "sentences": len(sentences),
        "tokens": tokens,
        "mean_length": tokens / len(sentences),
        "label_count": labels,
        "vocabulary_rows": rows,
        **distinct,
        "oov_share": oov_tokens / tokens,
    }


RUNNERS = {"train": run_train, "tag": run_tag}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile, samples) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported and the percentile given as 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run: Run, peak_rss_mb: float) -> dict:
    timed = [s for s in run.steps[1:] if not s.traced]
    seconds = [s.seconds for s in timed]
    tail_ms, pct, n = tail([1000.0 * s for s in seconds])
    return {
        "tokens_per_s": sum(s.tokens for s in timed) / sum(seconds),
        "step_ms_p50": 1000.0 * statistics.median(seconds),
        "step_ms_tail": tail_ms,
        "setup_s": statistics.median(run.setup_seconds),
        "peak_rss_mb": peak_rss_mb,
    }, {"tail_percentile": pct, "timed_steps": n}


SECONDS_PER_TOKEN = {
    "charcomp.compose_s_per_token": ("charcomp.compose",),
    "charcomp.gate_s_per_token": ("charcomp.gate",),
    "charcomp.aux_s_per_token": ("charcomp.aux",),
    "layers.bilstm_s_per_token": ("layers.bilstm",),
    "crf.nll_s_per_token": ("crf.nll",),
    "crf.emission_s_per_token": ("crf.emission",),
    "crf.viterbi_s_per_token": ("crf.viterbi",),
    "autodiff.backward_s_per_token": ("autodiff.backward",),
    "model.forward_self_s_per_token": ("model.forward",),
    "corpus.encode_s_per_token": ("corpus.encode",),
}
NODES_PER_TOKEN = {
    "charcomp.tape_nodes_per_token": ("charcomp.compose", "charcomp.gate", "charcomp.aux"),
    "layers.tape_nodes_per_token": ("layers.bilstm",),
    "crf.tape_nodes_per_token": ("crf.emission", "crf.nll"),
}


def per_layer(run: Run, probe: tracing.Probe) -> tuple[dict, list, dict]:
    """Per-layer metrics from the traced steps, the names reported absent,
    and each traced step's unattributed seconds (outside every top-level span)."""
    traced = [s for s in run.steps if s.traced]
    ids = {s.id for s in traced}
    tokens = sum(s.tokens for s in traced)
    # Tape-node counts come from the first traced step alone: how many steps
    # fit in the budget varies, and the counts must repeat exactly for a seed.
    first = traced[0]
    by_step = tracing.self_totals(probe.spans)
    totals = {}
    for (name, step), (calls, secs, nodes) in by_step.items():
        if step in ids:
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += secs

    gone = {name for *_, name in tracing.CALL_SITES} - probe.traced_names
    if tracing.TAPE_NODES in probe.absent:
        gone.add("autodiff.tape")
    absent = []
    metrics = {}

    def put(metric, value, needs=()):
        if any(n in gone for n in needs):
            absent.append(metric)
            value = 0.0
        metrics[metric] = value

    for metric, names in SECONDS_PER_TOKEN.items():
        put(metric, sum(totals.get(n, (0, 0.0))[1] for n in names) / tokens, names)
    for metric, names in NODES_PER_TOKEN.items():
        nodes = sum(by_step.get((n, first.id), (0, 0.0, 0))[2] for n in names)
        put(metric, nodes / first.tokens, names)

    calls = totals.get("charcomp.compose", (0, 0.0))[0]
    put("charcomp.compose_calls_per_distinct_type", calls / run.distinct_types(traced),
        ("charcomp.compose",))

    counts = [c for c in probe.tape_counts if c[0] == first.id]
    ops = sum((c[2] for c in counts), Counter())
    tape = ("autodiff.tape",)
    put("autodiff.tape_nodes_per_token", sum(c[1] for c in counts) / first.tokens, tape)
    for op in tracing.OP_KINDS:
        put(f"autodiff.nodes_per_token.{op}", ops.pop(op, 0) / first.tokens, tape)
    put("autodiff.nodes_per_token.other", sum(ops.values()) / first.tokens, tape)
    put("autodiff.peak_tape_nodes", max((c[1] for c in counts), default=0), tape)

    adadelta = totals.get("training.adadelta", (0, 0.0))[1]
    put("training.adadelta_s_per_step", adadelta / len(traced), ("training.adadelta",))
    put("training.rejected_steps", run.failures.get("rejected AdaDelta step", 0))
    put("model.load_s", statistics.median(run.load_seconds) if run.load_seconds else 0.0)
    put("corpus.build_vocab_s",
        statistics.median(run.build_vocab_seconds) if run.build_vocab_seconds else 0.0)

    untraced = [s for s in run.steps[1:] if not s.traced]
    rate = lambda steps: sum(s.tokens for s in steps) / sum(s.seconds for s in steps)
    put("trace.overhead_share", 1.0 - rate(traced) / rate(untraced))
    covered = tracing.top_level_seconds(probe.spans)
    remainder = {s.id: s.seconds - covered.get(s.id, 0.0) for s in traced}
    put("trace.unattributed_share", statistics.median(remainder[s.id] / s.seconds for s in traced))
    return metrics, absent, remainder
