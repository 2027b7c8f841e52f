"""Span tracing of clembed's public functions, installed from outside.

`Tracer.install` wraps every public function defined in a clembed module
and rebinds the wrapper under every module-level name that refers to the
original (so `clembed.evaluation.csls_hubness` is traced as well as
`clembed.similarity.csls_hubness`). No file under `src/` changes. Spans
(name, start, end, parent) and work counts are kept in memory and written
out once, when the run ends. `uninstall` restores the original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("embeddings", "lexicon", "linalg", "similarity", "projection",
          "supervised", "unsupervised", "evaluation", "clir", "cli")


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _text_mb(path, rows: int) -> float:
    """MiB of a word2vec text file taken up by its first `rows` rows."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    total = int(header[0]) if len(header) == 2 else rows
    return os.path.getsize(path) * min(1.0, rows / total) / 2 ** 20


# Work counts recorded beside the time of a span: name -> f(args, kwargs, result).
COUNTERS = {
    "similarity.csls_hubness": {
        "cells": lambda a, k, r: _rows(a[0]) * _rows(a[1])},
    "similarity.similarity_matrix": {
        "cells": lambda a, k, r: _rows(a[0]) * _rows(a[1])},
    "similarity.unit_rows": {"rows": lambda a, k, r: _rows(a[0])},
    "unsupervised.self_learn": {
        "rounds": lambda a, k, r: r.metadata["rounds"]},
    "unsupervised.icp_restart": {"iters": lambda a, k, r: len(r[4])},
    "embeddings.load_text_embeddings": {
        "mb": lambda a, k, r: _text_mb(a[0], len(r))},
    "embeddings.save_text_embeddings": {
        "mb": lambda a, k, r: _text_mb(a[1], len(a[0]))},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1]))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, self._stack[-1])
            for stat, count in counters.items():
                self.counts[f"{name}.{stat}"] += count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"clembed.{layer}")
                   for layer in LAYERS}
        bindings = [importlib.import_module("clembed"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in bindings:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._saved.append((owner, key, fn))
                            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Per-function and per-module totals of the spans recorded so far.

        `<fn>.s` is total span time, `<fn>.calls` the call count and
        `<fn>.self_s` the span time not covered by child spans;
        `<module>.self_s` sums the self time of the module's spans.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own = end - start - child_time[index]
            out[f"{name}.s"] += end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        out.update(self.counts)
        return dict(out)

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end (seconds), parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
