"""Span tracing for the benchmark's traced runs (``--trace 1``).

Every span is recorded from the benchmark's own files, never from inside
the program: a :class:`TraceCallback` passed to ``fit_model`` splits a
training step into phases, and :func:`instrument` wraps public names of
each layer (class attributes, and the names ``simulation/month.py``
imports) for the duration of a traced window.  Spans live in memory as
``(name, start, end, parent, tag)`` and are written out once, when the
run ends; self times are computed from them afterwards.

A layer's *self time* is its span's duration minus the time its child
spans cover.  ``covered_frac`` is the share of the traced wall time that
named layer spans cover, i.e. everything except the self time of the
grouping spans the benchmark opens itself (the window, a fit, a month)
and except the load generator's idle waits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from repro.training.callbacks.base import Callback

#: Span of the load generator waiting for a request's due time.
IDLE = "loadgen.idle"
#: Span around one traced unit of work.
ROOT = "bench.window"

T = TypeVar("T")


class Tracer:
    """In-memory span recorder for one single-threaded traced window."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: List[Optional[str]] = []
        self._stack: List[int] = []
        #: Tag inherited by every span opened while it is set (the
        #: serving load generator marks narrow and wide pages).
        self.tag: Optional[str] = None

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tags.append(self.tag)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End span ``index`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == index:
                return
        raise RuntimeError(f"span {self.names[index]!r} was not open")

    def is_open(self, index: int) -> bool:
        return index in self._stack

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- analysis -------------------------------------------------------
    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        own = self.durations()
        out = list(own)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[index]
        return out

    def covered_frac(self, containers: Iterable[str]) -> float:
        """Share of the traced wall time under named layer spans.

        The wall time is that of every :data:`ROOT` span, less the load
        generator's idle waits; what is not covered is the self time of
        the roots and of the grouping spans named in ``containers``.
        """
        grouping = set(containers) | {ROOT}
        own = self.durations()
        selfs = self.self_times()
        wall = uncovered = 0.0
        for index, name in enumerate(self.names):
            if name == ROOT:
                wall += own[index]
            if name == IDLE:
                wall -= own[index]
            elif name in grouping:
                uncovered += selfs[index]
        if wall <= 0:
            return 0.0
        return 1.0 - uncovered / wall

    def children(self, parent: int) -> List[int]:
        return [i for i, p in enumerate(self.parents) if p == parent]

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent, tag]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, tag]
            for name, start, end, parent, tag in zip(
                self.names, self.starts, self.ends, self.parents, self.tags
            )
        ]
        path.write_text(
            json.dumps({"columns": ["name", "start_s", "end_s", "parent", "tag"],
                        "spans": rows})
        )


def interleave(plain: Callable[[int], T], traced: Callable[[int], T],
               seconds: float, min_pairs: int) -> Tuple[List[T], List[T]]:
    """Run untraced/traced unit pairs in ABBA order until ``seconds`` pass.

    Alternating which side runs first cancels slow drift in the
    machine's speed out of the traced-over-untraced overhead.
    """
    a: List[T] = []
    b: List[T] = []
    start = time.perf_counter()
    while len(a) < min_pairs or time.perf_counter() - start < seconds:
        i = len(a)
        if i % 2 == 0:
            a.append(plain(i))
            b.append(traced(i))
        else:
            b.append(traced(i))
            a.append(plain(i))
    return a, b


class TraceCallback(Callback):
    """Splits each training step into data / forward / backward / optimizer.

    ``fit_model`` appends this after its default callbacks, so the step
    boundaries are hook times: data runs from the previous step's end
    (or the fit start) to ``on_batch_start``, forward to
    ``on_loss_computed``, backward to ``on_backward_end`` and the
    optimizer (clip and step) to ``on_batch_end``.  Epoch-end work is the
    wrapped ``ValidationCallback.on_epoch_end`` span, which nests inside
    the open data span and so drops out of data's self time.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._phase = -1
        self.steps = 0
        self.skipped_steps = 0
        self.rows = 0

    def _switch(self, name: Optional[str]) -> None:
        if self._phase >= 0 and self.tracer.is_open(self._phase):
            self.tracer.close(self._phase)
        self._phase = -1 if name is None else self.tracer.open(name)

    def on_fit_start(self, ctx) -> None:
        self._switch("training.data")

    def on_batch_start(self, ctx) -> None:
        self.rows += len(ctx.batch.clicks)
        self._switch("training.forward")

    def on_loss_computed(self, ctx) -> None:
        if ctx.skip_step:
            self.skipped_steps += 1
            self._switch("training.data")
        else:
            self._switch("training.backward")

    def on_backward_end(self, ctx) -> None:
        self._switch("training.optimizer")

    def on_batch_end(self, ctx) -> None:
        self.steps += 1
        self._switch("training.data")

    def on_epoch_end(self, ctx) -> None:
        self._switch("training.data")

    def on_fit_end(self, ctx) -> None:
        self._switch(None)


def _instrument_table():
    """``(owner, attribute, span name)`` for every wrapped public name."""
    from repro.data.dataset import InteractionDataset
    from repro.data.synthetic import SyntheticScenario
    from repro.lifecycle.canary import CanaryRollout
    from repro.lifecycle.manager import ModelLifecycleManager
    from repro.lifecycle.registry import ModelRegistry
    from repro.models.base import MultiTaskModel
    from repro.nn.embedding import Embedding
    from repro.nn.module import Module
    from repro.reliability.drift import (
        CalibrationMonitor,
        DriftReference,
        DriftSentinel,
    )
    from repro.simulation import month
    from repro.simulation.behavior import BehaviorSimulator
    from repro.simulation.fleet import ServingFleet
    from repro.simulation.serving import RankingService
    from repro.training.callbacks.validation import ValidationCallback

    table = [
        (ServingFleet, "serve_page", "fleet.route"),
        (ServingFleet, "from_registry", "fleet.build"),
        (CanaryRollout, "serve_page", "canary.route"),
        (RankingService, "serve_page", "serving.replica"),
        (RankingService, "score_candidates", "serving.score"),
        (RankingService, "swap_model", "serving.swap"),
        (SyntheticScenario, "features_for", "world.features"),
        (SyntheticScenario, "__init__", "world.build"),
        (BehaviorSimulator, "__init__", "world.build_behavior"),
        (BehaviorSimulator, "roll_out", "behavior.roll_out"),
        (MultiTaskModel, "predict", "models.predict"),
        (Module, "eval", "nn.mode_switch"),
        (Module, "train", "nn.mode_switch"),
        (Embedding, "grow", "nn.embedding_grow"),
        (ValidationCallback, "on_epoch_end", "training.epoch_end"),
        (InteractionDataset, "__init__", "ingest.dataset"),
        (ModelRegistry, "__init__", "registry.open"),
        (ModelRegistry, "load_model", "registry.load_model"),
        (DriftReference, "capture", "monitor.reference"),
        (DriftSentinel, "__init__", "monitor.sentinel"),
        (DriftSentinel, "observe", "monitor.sentinel"),
        (DriftSentinel, "status", "monitor.sentinel"),
    ]
    for attr in ("sample_hidden", "true_ctr", "true_cvr", "sample_conversion_delays"):
        table.append((SyntheticScenario, attr, "world.truth"))
    for attr in ("__init__", "submit", "adopt", "build_canary",
                 "conclude_canary", "rollback", "champion_model",
                 "champion_reference"):
        table.append((ModelLifecycleManager, attr, f"lifecycle.{attr.strip('_')}"))
    for attr in ("observe", "status", "gap", "drift", "reset", "rebase"):
        table.append((CalibrationMonitor, attr, "monitor.calibration"))
    # Module-level names simulation/month.py imports and calls.
    for attr, name in (
        ("fit_model", "training.fit"),
        ("lifecycle_retrain_view", "training.view"),
        ("build_model", "models.build"),
        ("quarantine_oov_rows", "ingest.quarantine"),
        ("build_drift_schedule", "world.drift"),
        ("config_for_day", "world.drift"),
        ("auc", "eval.auc"),
    ):
        table.append((month, attr, name))
    return table


def _with_callbacks(fn: Callable, extra: Callable[[], List[Callback]]) -> Callable:
    """``fit_model`` with ``extra()`` appended to its ``callbacks``."""

    @functools.wraps(fn)
    def fit(*args, **kwargs):
        kwargs["callbacks"] = list(kwargs.get("callbacks", ())) + extra()
        return fn(*args, **kwargs)

    return fit


@contextlib.contextmanager
def instrument(
    tracer: Tracer,
    fit_callbacks: Optional[Callable[[], List[Callback]]] = None,
):
    """Wrap every name in the table for the duration of the block.

    ``fit_callbacks``, when given, is called once per ``fit_model`` call
    made through ``simulation/month.py`` and its callbacks ride along,
    so the month's own fits get the same phase split as the fit
    workloads.
    """
    restore = []
    try:
        for owner, attr, name in _instrument_table():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(name, original.__func__))
            elif attr == "fit_model" and fit_callbacks is not None:
                patched = tracer.wrap(name, _with_callbacks(original, fit_callbacks))
            else:
                patched = tracer.wrap(name, original)
            setattr(owner, attr, patched)
            restore.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
