"""Spans and counts recorded around seqtag's public call sites, from outside.

The benchmark never edits ``src/seqtag``. It replaces a few module and
class attributes with wrappers for the length of a run and puts the
originals back afterwards. A wrapper can do two things:

* record a span (name, start, end, parent span, step id, tape length
  before and after) while the probe is enabled, which only a traced run
  does;
* call a hook with the call's arguments and result, which the workloads
  use for their output checks and step boundaries, traced or not.

``CALL_SITES`` is the one table of traced call sites. A site that no
longer exists (a refactor renamed or removed it) is skipped and listed
in ``Probe.absent``; the metrics built from it are reported as absent.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute path, span name). Model methods and module-level
# names are patched where the caller looks them up: ``seqtag.model``
# imports the layer functions into its own namespace.
CALL_SITES = (
    ("seqtag.corpus", "Vocabulary.encode", "corpus.encode"),
    ("seqtag.model", "Model.sentence_loss_parts", "model.forward"),
    ("seqtag.model", "Model.predict", "model.forward"),
    ("seqtag.model", "compose_word", "charcomp.compose"),
    ("seqtag.model", "combine_attention", "charcomp.gate"),
    ("seqtag.model", "char_aux_loss", "charcomp.aux"),
    ("seqtag.model", "bilstm_run", "layers.bilstm"),
    ("seqtag.model", "emission_scores", "crf.emission"),
    ("seqtag.model", "crf_nll", "crf.nll"),
    ("seqtag.model", "viterbi_decode", "crf.viterbi"),
    ("seqtag.training", "backward", "autodiff.backward"),
    ("seqtag.training", "AdaDelta.step", "training.adadelta"),
)

# the op mix of a tape is read from its public ``nodes`` list
TAPE_NODES = "seqtag.autodiff.Tape.nodes"

OP_KINDS = (
    "matmul", "add", "multiply", "tanh", "sigmoid", "concat", "slice", "sum",
    "log_sum_exp", "cosine_similarity", "pick_row", "stop_gradient",
)


def _owner(module, path):
    """(object holding the attribute, attribute name), or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Probe:
    """Installs the wrappers, holds the spans, and restores on close."""

    def __init__(self, tape_length):
        self.enabled = False
        self.step = -1
        self.spans = []  # (name, start, end, parent, step, nodes_before, nodes_after)
        self.absent = []  # call sites that no longer exist
        self.traced_names = set()  # span names with at least one wrapped site
        self.tape_counts = []  # (step, tape length, Counter of op kinds) per backward
        self._stack = []
        self._hooks = defaultdict(list)
        self._restore = []
        self._tape_length = tape_length  # () -> length of the active tape, 0 without one

    def hook(self, module, path, fn):
        """Call ``fn(args, result)`` after every call of a required site."""
        if _owner(module, path) is None:
            raise RuntimeError(f"benchmark hook target {module}.{path} does not exist")
        self._hooks[(module, path)].append(fn)

    def install(self, traced: bool):
        """Wrap every hooked site, and every traced site when ``traced``."""
        names = {}
        if traced:
            for module, path, name in CALL_SITES:
                if _owner(module, path) is None:
                    self.absent.append(f"{module}.{path}")
                else:
                    names[(module, path)] = name
                    self.traced_names.add(name)
        for key in dict.fromkeys([*self._hooks, *names]):
            owner, attr = _owner(*key)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, names.get(key), self._hooks.get(key, ())))
            self._restore.append((owner, attr, original))

    def close(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hooks):
        spans, stack, clock, tape_length = self.spans, self._stack, time.perf_counter, self._tape_length

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None or not self.enabled:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                n0 = tape_length()
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[sid] = (name, t0, t1, parent, self.step, n0, tape_length())
            for h in hooks:
                h(args, result)
            return result

        return wrapper

    def count_tape(self, tape):
        """Record the length and op mix of a finished tape (traced steps only)."""
        if not self.enabled:
            return
        nodes = getattr(tape, "nodes", None)
        if nodes is None:
            if TAPE_NODES not in self.absent:
                self.absent.append(TAPE_NODES)
            return
        self.tape_counts.append((self.step, len(nodes), Counter(getattr(n, "op", "?") for n in nodes)))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, step, n0, n1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "step": step, "tape_nodes": n1 - n0}))
                fh.write("\n")


def self_totals(spans):
    """Per span name: (calls, self seconds, self tape nodes), per step.

    Self time is a span's duration minus its direct children's; spans of
    one thread nest without overlap, so that is the uncovered time.
    """
    child_time = [0.0] * len(spans)
    child_nodes = [0] * len(spans)
    for name, t0, t1, parent, step, n0, n1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            child_nodes[parent] += n1 - n0
    out = defaultdict(lambda: [0, 0.0, 0])
    for i, (name, t0, t1, parent, step, n0, n1) in enumerate(spans):
        acc = out[name, step]
        acc[0] += 1
        acc[1] += t1 - t0 - child_time[i]
        acc[2] += n1 - n0 - child_nodes[i]
    return out


def top_level_seconds(spans):
    """Per step: the summed duration of spans that have no parent."""
    out = defaultdict(float)
    for name, t0, t1, parent, step, n0, n1 in spans:
        if parent < 0:
            out[step] += t1 - t0
    return out
