"""Central finite-difference checks of the autodiff's analytic gradients.

The checker swaps the hook ``seqtag.autodiff._stop_gradient_values``: its
first loss evaluation records every ``stop_gradient`` input, and every
later one replays them, so a parameter whose only influence passes
through the marker shows a numeric derivative of exactly zero, as the
analytic backward pass does.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from seqtag import autodiff
from seqtag.autodiff import Tape, Tensor, backward, dense_grad, mix, reduce_sum

_NOT_DETERMINISTIC = "the loss builder is not deterministic"

@contextmanager
def _stop_gradient_inputs(store: list, record: bool):
    """Record every ``stop_gradient`` input into ``store``, or replay them in order."""
    index = 0

    def hook(values):
        nonlocal index
        if record:
            store.append(values.copy())
            return values
        if index >= len(store):
            raise ValueError(f"stop_gradient: call count grew between evaluations; {_NOT_DETERMINISTIC}")
        frozen = store[index]
        index += 1
        if frozen.shape != values.shape:
            raise ValueError("stop_gradient: input shape changed between evaluations")
        return frozen

    saved, autodiff._stop_gradient_values = autodiff._stop_gradient_values, hook
    try:
        yield
        if not record and index != len(store):
            raise ValueError(f"stop_gradient: call count shrank between evaluations; {_NOT_DETERMINISTIC}")
    finally:
        autodiff._stop_gradient_values = saved


def weighted_sum(t: Tensor, w: Tensor) -> Tensor:
    """The sum of ``t * w`` entry by entry, as ``mix(w, t, 0)``: a scalar loss
    that reaches every entry of ``t`` with its own weight."""
    return reduce_sum(mix(w, t, Tensor(np.zeros_like(t.values), constant=True)))


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    analytic: float = 0.0
    numeric: float = 0.0


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def __str__(self):
        lines = [
            f"{e.name}: max rel err {e.max_rel_error:.3e} "
            f"(analytic {e.analytic:.6e}, numeric {e.numeric:.6e})"
            for e in self.entries
        ]
        lines.append(f"overall: {self.max_rel_error:.3e}")
        return "\n".join(lines)


def _eval_scalar(loss_builder, store: list, record: bool = False) -> float:
    with _stop_gradient_inputs(store, record):
        out = loss_builder()
    if not isinstance(out, Tensor) or out.values.size != 1:
        raise ValueError("finite_difference_check: loss builder must return a scalar Tensor")
    return float(out.values)


def finite_difference_check(loss_builder, params, eps: float = 1e-5, names=None) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_builder`` must deterministically rebuild the scalar loss from
    the current parameter values; determinism is verified by evaluating
    the baseline twice and requiring bit-identical results. Inputs of
    ``stop_gradient`` are frozen at their baseline values for the whole
    check. Relative error uses ``|a - n| / max(|a|, |n|, 1)``.
    """
    if eps <= 0:
        raise ValueError("finite_difference_check: eps must be positive")
    params = list(params)
    if names is None:
        names = [f"param{i}" for i in range(len(params))]

    store: list = []
    base = _eval_scalar(loss_builder, store, record=True)
    again = _eval_scalar(loss_builder, store)
    if base != again:
        raise ValueError(f"finite_difference_check: {_NOT_DETERMINISTIC} ({base!r} vs {again!r})")

    saved_grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    tape = Tape()
    with tape, _stop_gradient_inputs(store, record=False):
        loss = loss_builder()
    backward(loss, tape)
    # a parameter the loss does not reach has no gradient
    analytic = [np.zeros_like(p.values) if p.grad is None else dense_grad(p.grad).copy() for p in params]
    for p, g in zip(params, saved_grads):
        p.grad = g

    report = GradCheckReport()
    for p, name, a in zip(params, names, analytic):
        flat = p.values.reshape(-1)
        if not np.shares_memory(flat, p.values):
            raise ValueError("finite_difference_check: parameter values must be contiguous")
        a_flat = a.reshape(-1)
        entry = GradCheckEntry(name=name, max_rel_error=0.0)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = _eval_scalar(loss_builder, store)
            flat[i] = orig - eps
            f_minus = _eval_scalar(loss_builder, store)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a_i = float(a_flat[i])
            rel = abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1.0)
            if rel > entry.max_rel_error:
                entry.max_rel_error = rel
                entry.analytic = a_i
                entry.numeric = numeric
        report.entries.append(entry)
    return report
