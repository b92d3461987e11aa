"""Span recording around condadapt's entry points, installed from outside.

The package modules import each other's functions by name, so a function is
wrapped in every namespace that calls it (for example both
``condadapt.kernels.pairwise_sq_dists`` and
``condadapt.gradients.pairwise_sq_dists``).  Wrappers only time and count;
they pass arguments and results through untouched, so traced numerics are
bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.linalg

from condadapt import cli, data, gradients, kernels, measures, model, trainer


def _cholesky_attrs(a, *args, **kwargs) -> dict:
    n = a.shape[0]
    return {"flops": n ** 3 / 3.0}


def _solve_attrs(factor, b, *args, **kwargs) -> dict:
    n = b.shape[0]
    cols = 1 if b.ndim == 1 else b.shape[1]
    return {"rhs_cols": cols, "flops": 2.0 * n * n * cols}


def _cond_attrs(*args, permutations: int = 0, **kwargs) -> dict:
    # the replicate loop runs once per requested permutation
    return {"replicates": permutations}


# (module, attribute, span name, attrs from the call's arguments).  An entry
# point a module no longer has is skipped, so its layer reads 0.
ENTRY_POINTS = [
    (scipy.linalg, "cho_factor", "solver.cholesky", _cholesky_attrs),
    (scipy.linalg, "cho_solve", "solver.solve", _solve_attrs),
    (kernels, "pairwise_sq_dists", "kernels.dist", None),
    (gradients, "pairwise_sq_dists", "kernels.dist", None),
    (kernels, "mean_sq_dist_bandwidth", "kernels.bandwidth", None),
    (kernels, "gram", "kernels.gram", None),
    (gradients, "gram", "kernels.gram", None),
    (measures, "gram", "kernels.gram", None),
    (kernels, "label_gram", "kernels.label_gram", None),
    (measures, "label_gram", "kernels.label_gram", None),
    (kernels, "product_gram", "kernels.product_gram", None),
    (measures, "product_gram", "kernels.product_gram", None),
    (kernels, "center", "kernels.center", None),
    (gradients, "center", "kernels.center", None),
    (measures, "center", "kernels.center", None),
    (kernels, "normalize", "kernels.normalize", None),
    (measures, "normalize", "kernels.normalize", None),
    (gradients, "cond_objective", "gradients.cond_objective", None),
    (trainer, "cond_objective", "gradients.cond_objective", None),
    (model, "cond_objective", "gradients.cond_objective", None),
    (measures, "cond", "measures.cond", _cond_attrs),
    (model, "forward_pass", "model.forward", None),
    (trainer, "forward_pass", "model.forward", None),
    (trainer, "backward_pass", "model.backward", None),
    (trainer, "adam_step", "trainer.adam_step", None),
    (trainer, "target_accuracy", "trainer.target_accuracy", None),
    (trainer, "adapt_epoch", "trainer.adapt_epoch", None),
    (trainer, "pretrain", "trainer.pretrain", None),
    (trainer, "init_pseudo_labels", "trainer.init_pseudo_labels", None),
    (data, "make_shifted_blobs", "data.generate", None),
    (data, "make_conditional_chain", "data.generate", None),
    (cli, "main", "cli", None),
]


class Tracer:
    """In-memory spans: [name, start, end, parent index, attrs].

    Use as a context manager to install the wrappers for its duration;
    ``skipped`` names the entry points that were not found.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.skipped: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, attrs(*args, **kwargs) if attrs else None):
                return fn(*args, **kwargs)
        return traced

    def __enter__(self) -> "Tracer":
        self.skipped = []
        for module, attr, name, attrs in ENTRY_POINTS:
            original = getattr(module, attr, None)
            if original is None:
                self.skipped.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, attrs))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write(self, path, **header):
        with open(path, "w") as fh:
            json.dump({**header, "skipped": self.skipped,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def unit_totals(spans: list[list], unit: str) -> tuple[int, dict]:
    """Per-name totals over spans nested inside spans named ``unit``.

    Returns (number of unit spans, {name: {"calls", "ms", "self_ms", attr
    sums}}).  Self time is a span's duration minus its direct children's;
    the program is single-threaded, so children never overlap.
    """
    child_s = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    owner = []  # index of the enclosing unit span, or -1
    units = 0
    totals: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == unit:
            owner.append(i)
            units += 1
            continue
        owner.append(owner[parent] if parent >= 0 else -1)
        if owner[i] < 0:
            continue
        t = totals[name]
        t["calls"] += 1
        t["ms"] += 1e3 * (end - start)
        t["self_ms"] += 1e3 * (end - start - child_s[i])
        for key, value in attrs.items():
            t[key] += value
    return units, totals


def span_ms(spans: list[list], name: str) -> list[float]:
    """Durations in ms of every span with this name."""
    return [1e3 * (end - start) for n, start, end, _, _ in spans if n == name]
