"""Spans around the public functions that ``crashcast.pipeline`` calls.

The traced run patches the names ``crashcast.pipeline`` imported from the
other modules (and its own stage functions) with wrappers that record a
span per call, then calls ``run_all`` as usual, so every call happens in
``run_all``'s order on that run's inputs and the outputs stay the same.
The backend object that ``predict_stage`` receives is wrapped the same
way. Spans stay in memory until the run ends. Nothing under ``src/``
changes; the wrappers exist only in the benchmark's child process.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 98.0)
ERROR_CLASSES = ("TransportError", "Timeout", "RateLimited", "ProtocolError")
STATUSES = ("both", "time-only", "cause-only", "none")
STAGES = ("synth", "ingest", "sequence", "split", "predict", "evaluate")

# attribute of crashcast.pipeline -> span name (module.function)
TRACED_FUNCTIONS = {
    **{f"{stage}_stage": f"pipeline.{stage}_stage" for stage in STAGES},
    "load_events": "pipeline.load_events",
    "load_sequences": "pipeline.load_sequences",
    "split_pairs": "pipeline.split_pairs",
    "generate_corpus": "synthgen.generate_corpus",
    "parse_lines": "ingest.parse_lines",
    "filter_critical": "ingest.filter_critical",
    "build_corpus": "ingest.build_corpus",
    "build_sequences": "sequencer.build_sequences",
    "partition_windows": "sequencer.partition_windows",
    "windows_to_lines": "sequencer.windows_to_lines",
    "enumerate_pairs": "sequencer.enumerate_pairs",
    "shots_from_pairs": "prompt.shots_from_pairs",
    "build_bundle": "prompt.build_bundle",
    "baseline_answer": "predictor.baseline_answer",
    "extract_prediction": "postprocess.extract_prediction",
    "merge_extractions": "postprocess.merge_extractions",
    "score_item": "metrics.score_item",
    "aggregate": "metrics.aggregate",
}

OUTPUT_FILES = {
    "events": "events.jsonl",
    "windows": "windows.jsonl",
    "split": "split.json",
    "predictions": "predictions.jsonl",
    "report": "report.json",
}


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile (0 <= p <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float | None:
    """Highest percentile in TAIL_CANDIDATES with at least ten of n samples beyond it.

    TAIL_CANDIDATES stops at 98, the highest such percentile at the 800
    calls of remote-kshot, so the reported tail is p98 from 500 calls up.
    """
    eligible = [p for p in TAIL_CANDIDATES if n * (100.0 - p) / 100.0 >= 10]
    return eligible[-1] if eligible else None


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    error: str | None


class Tracer:
    """Records spans and counts; safe to call from the predictor's worker threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.pairs_peak_bytes: int | None = None
        self.prompt_chars: list[int] = []
        self.backends: list[Any] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[Any], None] | None = None,
        parent_id: int | None = None,
    ) -> Callable:
        """fn with a span per call; a call from a fresh thread hangs under parent_id."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else parent_id
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                error = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, error))
            if observe is not None:
                observe(result)
            return result

        return traced

    def _peak_memory(self, fn: Callable) -> Callable:
        """fn with tracemalloc around its first call only.

        run_all counts the pairs before split_pairs enumerates them again on
        the same sequences, so the first call gives the peak and the second,
        untraced call gives sequencer.pairs_s and pipeline.split_s.
        """

        def measured(*args, **kwargs):
            if self.pairs_peak_bytes is not None:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.pairs_peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return measured

    def install(self, pipeline) -> None:
        """Replace the traced names in the crashcast.pipeline module namespace."""
        observers: dict[str, Callable[[Any], None]] = {
            "generate_corpus": lambda lines: self.count("synthgen.lines", len(lines)),
            "parse_lines": lambda records: self.count("ingest.records", len(records)),
            "build_corpus": self._observe_corpus,
            "partition_windows": lambda windows: self.count("sequencer.windows", len(windows)),
            "enumerate_pairs": lambda pairs: self.count("sequencer.pairs_seen", len(pairs)),
            "split_pairs": self._observe_split,
            "build_bundle": lambda bundle: self.prompt_chars.append(
                len(bundle.rendered_time_prompt)
            ),
            "merge_extractions": lambda merged: self.count(
                f"postprocess.status.{merged.extraction_status}"
            ),
        }
        for attr, name in TRACED_FUNCTIONS.items():
            setattr(pipeline, attr, self.wrap(name, getattr(pipeline, attr), observers.get(attr)))
        pipeline.enumerate_pairs = self._peak_memory(pipeline.enumerate_pairs)
        pipeline.make_backend = self._traced_make_backend(pipeline.make_backend)

    def _observe_corpus(self, corpus) -> None:
        self.count("ingest.events", len(corpus.events))
        self.count("ingest.duplicates", corpus.duplicates)
        self.count("ingest.dropped_before_floor", corpus.dropped_before_floor)

    def _observe_split(self, split) -> None:
        train, validation = split
        self.count("pipeline.train", len(train))
        self.count("pipeline.validation", len(validation))

    def _traced_make_backend(self, make_backend: Callable) -> Callable:
        def make(config):
            backend = make_backend(config)
            self.backends.append(backend)
            stack = self._stack()
            return _TracedBackend(backend, self, stack[-1] if stack else None)

        return make

    def durations(self, name: str) -> list[float]:
        return [span.end - span.start for span in self.spans if span.name == name]

    def layer_metrics(self, out_dir: Path, max_in_flight: int) -> dict[str, float]:
        """Per-layer metrics this process can see; the stub's counts are added by run.py."""

        def total(name: str) -> float:
            return sum(self.durations(name))

        calls = [s for s in self.spans if s.name == "predictor.complete"]
        call_ms = [(s.end - s.start) * 1000.0 for s in calls]
        shot_s = self.durations("prompt.shots_from_pairs")
        bundle_s = self.durations("prompt.build_bundle")
        bundle_ms = [(a + b) * 1000.0 for a, b in zip(shot_s, bundle_s)]
        predict_wall = total("pipeline.predict_stage")
        split_ids = {s.span_id for s in self.spans if s.name == "pipeline.split_pairs"}
        pairs_calls = [s for s in self.spans if s.name == "sequencer.enumerate_pairs"]
        tail = tail_percentile(len(call_ms))

        metrics: dict[str, float] = {
            "synthgen.generate_s": total("synthgen.generate_corpus"),
            "synthgen.lines": self.counts["synthgen.lines"],
            "ingest.parse_s": total("ingest.parse_lines"),
            "ingest.build_corpus_s": total("ingest.build_corpus"),
            "ingest.records": self.counts["ingest.records"],
            "ingest.events": self.counts["ingest.events"],
            "ingest.duplicates": self.counts["ingest.duplicates"],
            "ingest.dropped_before_floor": self.counts["ingest.dropped_before_floor"],
            "sequencer.build_s": total("sequencer.build_sequences"),
            "sequencer.windows_s": total("sequencer.partition_windows")
            + total("sequencer.windows_to_lines"),
            "sequencer.windows": self.counts["sequencer.windows"],
            "sequencer.pairs_s": sum(
                s.end - s.start for s in pairs_calls if s.parent_id in split_ids
            ),
            "sequencer.pairs": self.counts["sequencer.pairs_seen"] // max(len(pairs_calls), 1),
            "sequencer.pairs_peak_mb": (self.pairs_peak_bytes or 0) / 2**20,
            "pipeline.load_events_s": total("pipeline.load_events"),
            "pipeline.load_sequences_s": total("pipeline.load_sequences"),
            "pipeline.split_s": total("pipeline.split_pairs"),
            "pipeline.train": self.counts["pipeline.train"],
            "pipeline.validation": self.counts["pipeline.validation"],
            "prompt.bundle_s": sum(shot_s) + sum(bundle_s),
            "prompt.bundle_ms.p50": statistics.median(bundle_ms) if bundle_ms else 0.0,
            "prompt.bundles": len(bundle_s),
            "prompt.time_prompt_chars.mean": statistics.fmean(self.prompt_chars)
            if self.prompt_chars
            else 0.0,
            "predictor.baseline_s": total("predictor.baseline_answer"),
            "predictor.baseline_calls": len(self.durations("predictor.baseline_answer")),
            "predictor.call_ms.p50": percentile(call_ms, 50) if call_ms else 0.0,
            "predictor.call_ms.p98": percentile(call_ms, tail) if tail else 0.0,
            "predictor.calls": len(calls),
            "predictor.retries": sum(getattr(b, "total_retries", 0) for b in self.backends),
            "predictor.busy_share": sum(call_ms) / 1000.0 / (predict_wall * max_in_flight)
            if calls and predict_wall
            else 0.0,
            "postprocess.extract_s": total("postprocess.extract_prediction"),
            "metrics.score_s": total("metrics.score_item"),
            "metrics.aggregate_s": total("metrics.aggregate"),
            "metrics.items": len(self.durations("metrics.score_item")),
        }
        for cls in ERROR_CLASSES:
            metrics[f"predictor.errors.{cls}"] = sum(1 for s in calls if s.error == cls)
        for status in STATUSES:
            metrics[f"postprocess.status.{status}"] = self.counts[f"postprocess.status.{status}"]
        for key, filename in OUTPUT_FILES.items():
            path = out_dir / filename
            metrics[f"pipeline.bytes.{key}"] = path.stat().st_size if path.is_file() else 0
        return metrics

    def write_spans(self, path: Path) -> None:
        lines = [
            json.dumps({"run_id": self.run_id, **span._asdict()}) for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _TracedBackend:
    """The backend predict_stage uses, with a span around every complete() call."""

    def __init__(self, inner, tracer: Tracer, parent_id: int | None):
        self.backend_id = inner.backend_id
        self.complete = tracer.wrap("predictor.complete", inner.complete, parent_id=parent_id)
