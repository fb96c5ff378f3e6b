"""In-memory span tracing installed from outside the program.

A :class:`Tracer` replaces selected module attributes of ``pvdispatch``
with timing wrappers. Each wrapper sits on the attribute that the caller
looks up: ``pipeline.solve_da`` for the pipeline (it imports the name),
``dispatch.solve_da`` for code that calls through the module, and module
globals such as ``lstm.sigmoid`` for calls made inside the package. Spans
are kept in a list (name, start, end, parent, count, tag) and written out
when the run ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name, how to count the work a call did)
WRAPS: tuple[tuple[str, str, str, str | None], ...] = (
    ("synth", "synth_year", "synth.synth_year", None),
    ("data", "load_csv", "data.load_csv", "rows"),
    ("pipeline", "load_csv", "data.load_csv", "rows"),
    ("data", "window_arrays", "data.window_arrays", None),
    ("pipeline", "window_arrays", "data.window_arrays", None),
    ("lstm", "train", "lstm.train", None),
    ("pipeline", "train", "lstm.train", None),
    ("lstm", "forward_batch", "lstm.forward_batch", None),
    ("lstm", "backward", "lstm.backward", None),
    ("lstm", "adam_step", "lstm.adam_step", None),
    ("lstm", "sigmoid", "lstm.sigmoid", None),
    ("lstm", "predict_series", "lstm.predict_series", "rows"),
    ("pipeline", "predict_series", "lstm.predict_series", "rows"),
    ("baselines", "kmeans_fit", "baselines.kmeans_fit", "kmeans_iterations"),
    ("pipeline", "kmeans_fit", "baselines.kmeans_fit", "kmeans_iterations"),
    ("baselines", "monthly_hour_fit", "baselines.monthly_hour_fit", None),
    ("pipeline", "monthly_hour_fit", "baselines.monthly_hour_fit", None),
    ("dispatch", "solve_da", "dispatch.solve_da", None),
    ("pipeline", "solve_da", "dispatch.solve_da", None),
    ("dispatch", "solve_rt", "dispatch.solve_rt", None),
    ("pipeline", "solve_rt", "dispatch.solve_rt", None),
    ("dispatch", "build_da_lp", "dispatch.build_da_lp", None),
    ("dispatch", "build_rt_lp", "dispatch.build_rt_lp", None),
    ("dispatch", "solve_lp", "lp.solve_lp", "iterations"),
    ("dispatch", "check_solution", "lp.check_solution", None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "emit_report", "pipeline.emit_report", None),
    ("checkpoint", "save_lstm", "checkpoint.save", None),
    ("checkpoint", "save_kmeans", "checkpoint.save", None),
    ("checkpoint", "save_monthly", "checkpoint.save", None),
    ("checkpoint", "load_lstm", "checkpoint.load", None),
    ("checkpoint", "load_kmeans", "checkpoint.load", None),
    ("checkpoint", "load_monthly", "checkpoint.load", None),
)

_COUNTERS = {
    "rows": lambda result: int(result.n),
    "kmeans_iterations": lambda result: int(result.n_iterations),
    "iterations": lambda result: int(result.iterations),
}

# An lp span is tagged by the market of the dispatch call that made it.
_MARKET_OF_PARENT = {"dispatch.solve_da": "da", "dispatch.solve_rt": "rt"}

NAME, START, END, PARENT, COUNT, TAG = range(6)


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(f"pvdispatch.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def open(self, name: str) -> int:
        """Start a span that is closed by :meth:`close` (used for roots)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counter: str | None):
        count = _COUNTERS[counter] if counter else None
        spans, stack = self.spans, self._stack
        lp_span = name.startswith("lp.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            tag = None
            if lp_span and parent >= 0:
                tag = _MARKET_OF_PARENT.get(spans[parent][NAME])
            span = [name, 0.0, 0.0, parent, 0, tag]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write one JSON object per span, in start order."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, count, tag) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "count": count, "tag": tag}
                    )
                    + "\n"
                )


class SpanView:
    """Queries over a finished span list: durations, self time, counts."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                self.child_time[span[PARENT]] += span[END] - span[START]

    def within(self, name: str, ancestor: str | None = None, tag: str | None = None):
        """Indices of spans called ``name`` below an ``ancestor`` span."""
        out = []
        for i, span in enumerate(self.spans):
            if span[NAME] != name or (tag is not None and span[TAG] != tag):
                continue
            if ancestor is None or self._has_ancestor(i, ancestor):
                out.append(i)
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def durations(self, idx: list[int]) -> np.ndarray:
        return np.array([self.spans[i][END] - self.spans[i][START] for i in idx])

    def self_time(self, idx: list[int]) -> float:
        """Summed duration minus the time covered by direct children.

        Calls are sequential in one thread, so children never overlap and
        their durations add up to the covered time.
        """
        return float(sum(self.spans[i][END] - self.spans[i][START]
                         - self.child_time[i] for i in idx))

    def counts(self, idx: list[int]) -> int:
        return int(sum(self.spans[i][COUNT] for i in idx))


def median(values) -> float:
    """Median of a sample, 0.0 for a layer that did no work."""
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else 0.0


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0
