"""``fit-wide-vocab`` and ``fit-csv``: ``fit_model`` as users call it.

Both fit DCMT with the default ``TrainConfig`` and the default callback
stack plus a validation split, repeating the same seeded fit for the
whole window.  ``fit-wide-vocab`` trains in memory on an ``ae_es`` world
with 20k users and 50k items, so whole-table optimizer work dominates.
``fit-csv`` streams the exported bench-vocabulary world (2.2k users, 5k
items) through a ``ChunkedCSVSource`` with the dense and wide columns
declared, so CSV parsing and chunk materialisation dominate.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.data.loaders import ColumnSpec, export_csv_dataset, load_csv_dataset
from repro.data.scenarios import scenario_config
from repro.data.stream import ChunkedCSVSource
from repro.data.synthetic import SyntheticScenario
from repro.models import ModelConfig, build_model
from repro.perf import OpProfiler
from repro.training import TrainConfig, fit_model
from repro.training.callbacks.base import Callback
from repro.training.evaluation import evaluate_model

from catalog import OPS, TRAINING_PHASES
from harness import (
    COLD_INTERP_REF_S, Checks, IdleProbe, median, percentile,
)
from tracing import ROOT, TraceCallback, Tracer, instrument, interleave

TRAIN_ROWS = 20_000
#: Held-out rows: the first :data:`VALIDATION_ROWS` validate every epoch,
#: the rest score the final model (oracle CVR AUC).
TEST_ROWS = 20_000
VALIDATION_ROWS = 2_000
#: Four batches per chunk, so a quarter of the steps parse a chunk: the
#: median step is a plain one and the p99 step a parsing one.  (With two
#: batches per chunk the median sat between the two kinds of step.)
CHUNK_ROWS = 4_096
VOCAB = {
    "fit-wide-vocab": {"n_users": 20_000, "n_items": 50_000},
    "fit-csv": {"n_users": 2_200, "n_items": 5_000},
}
#: A one-epoch fit per set-up: the first one in the process is the cold
#: fit, paid in ``setup_s`` instead of the timed window.
WARMUP = TrainConfig(epochs=1)
CONFIG = TrainConfig()


#: Idle-probe readings taken after every step; the step's scale is their
#: median.
STEP_PROBES = 3


class StepClock(Callback):
    """Wall time of every optimizer step, data fetch included.

    After each step it takes :data:`STEP_PROBES` ``interp`` readings of
    an :class:`~harness.IdleProbe` (outside the step's time), so each
    step is scaled to reference host speed by a reading taken within
    microseconds of it: on a shared box the host's speed switches within
    a second, faster than readings between whole fits can follow.
    """

    def __init__(self, probe: IdleProbe) -> None:
        self.probe = probe
        self.step_s: List[float] = []
        #: Per step: reading over its reference value (1 = reference speed).
        self.scales: List[float] = []
        #: Time spent taking readings, which is not the fit's.
        self.probe_s = 0.0
        self.attempted = 0
        self.skipped = 0
        self.rows = 0
        self._mark = 0.0

    def on_epoch_start(self, ctx) -> None:
        self._mark = time.perf_counter()

    def on_batch_start(self, ctx) -> None:
        self.attempted += 1

    def on_loss_computed(self, ctx) -> None:
        if ctx.skip_step:
            self.skipped += 1

    def on_batch_end(self, ctx) -> None:
        now = time.perf_counter()
        self.step_s.append(now - self._mark)
        self.rows += len(ctx.batch.clicks)
        readings = [self.probe.interp() for _ in range(STEP_PROBES)]
        self.scales.append(median(readings) / COLD_INTERP_REF_S)
        self._mark = time.perf_counter()
        self.probe_s += self._mark - now

    def scaled_steps(self) -> List[float]:
        return [s / f for s, f in zip(self.step_s, self.scales)]

    def scaled_fit_s(self, elapsed: float) -> float:
        """The fit's wall time at reference host speed, readings excluded.

        Time outside the steps (model build, epoch-end validation) is
        scaled by the fit's median step scale.
        """
        rest = elapsed - sum(self.step_s) - self.probe_s
        return sum(self.scaled_steps()) + rest / median(self.scales)


@dataclasses.dataclass
class FitInputs:
    data: object  # InteractionDataset or ChunkedCSVSource
    validation: object
    evaluation: object
    schema: object
    memory_schema: object


def _csv_split(dataset, path: Path, spec: ColumnSpec, source: ChunkedCSVSource):
    """A held-out split mapped through the training CSV's vocabulary.

    The oracle columns do not survive CSV, so they are re-attached from
    the in-memory split (rows keep their order through the round trip).
    """
    export_csv_dataset(dataset, path)
    loaded, _, _ = load_csv_dataset(
        path,
        spec,
        vocabularies=source.vocabularies,
        freeze_vocabulary=True,
        dense_stats=source.dense_stats,
    )
    return dataclasses.replace(
        loaded,
        oracle_ctr=dataset.oracle_ctr,
        oracle_cvr=dataset.oracle_cvr,
        oracle_conversion=dataset.oracle_conversion,
    )


def layer_mismatches(memory_model, csv_model) -> List[str]:
    """Differences between two models beyond embedding-table row counts."""
    a = [(n, p.data.shape) for n, p in memory_model.named_parameters()]
    b = [(n, p.data.shape) for n, p in csv_model.named_parameters()]
    if [n for n, _ in a] != [n for n, _ in b]:
        return [f"parameter names differ: {[n for n, _ in a]} vs {[n for n, _ in b]}"]
    out = []
    for (name, shape_a), (_, shape_b) in zip(a, b):
        if shape_a == shape_b:
            continue
        if name.startswith("embedding.tables.") and shape_a[1:] == shape_b[1:]:
            continue
        out.append(f"{name}: {shape_a} vs {shape_b}")
    return out


class FitWorkload:
    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.model_config = ModelConfig(
            embedding_dim=8, hidden_sizes=(32, 16), seed=seed
        )
        self.inputs: Optional[FitInputs] = None
        self.checks = Checks()
        self.source: Optional[ChunkedCSVSource] = None
        self.probe = IdleProbe()

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        world = SyntheticScenario(
            scenario_config(
                "ae_es",
                n_train=TRAIN_ROWS,
                n_test=TEST_ROWS,
                seed=self.seed,
                **VOCAB[self.name],
            )
        )
        train, test = world.generate()
        validation = test.subset(np.arange(VALIDATION_ROWS))
        evaluation = test.subset(np.arange(VALIDATION_ROWS, TEST_ROWS))
        if self.name == "fit-csv":
            spec = ColumnSpec(
                dense_features=tuple(train.dense),
                wide_features=tuple(
                    f.name for f in train.schema.sparse if f.kind == "wide"
                ),
            )
            self.workdir.mkdir(parents=True, exist_ok=True)
            path = export_csv_dataset(train, self.workdir / "train.csv")
            source = ChunkedCSVSource(path, chunk_rows=CHUNK_ROWS, spec=spec)
            self.source = source
            self.inputs = FitInputs(
                data=source,
                validation=_csv_split(
                    validation, self.workdir / "validation.csv", spec, source
                ),
                evaluation=_csv_split(
                    evaluation, self.workdir / "evaluation.csv", spec, source
                ),
                schema=source.schema,
                memory_schema=train.schema,
            )
        else:
            self.inputs = FitInputs(
                train, validation, evaluation, train.schema, train.schema
            )
        fit_model(
            self._model(), self.inputs.data, WARMUP,
            validation=self.inputs.validation,
        )

    def _model(self):
        return build_model("dcmt", self.inputs.schema, self.model_config)

    # -- one unit of work -------------------------------------------------
    def fit(self, callbacks=()):
        model = self._model()
        history = fit_model(
            model, self.inputs.data, CONFIG,
            validation=self.inputs.validation, callbacks=list(callbacks),
        )
        return model, history

    def _check_fit(self, history, reference: Optional[float]) -> float:
        losses = history.epoch_losses
        self.checks.require(
            len(losses) == CONFIG.epochs, f"{len(losses)} epochs ran"
        )
        self.checks.require(
            bool(np.all(np.isfinite(losses))), f"non-finite loss {losses}"
        )
        final = losses[-1]
        if reference is not None:
            self.checks.require(
                final == reference,
                f"same-seed final loss differs: {final!r} vs {reference!r}",
            )
        return final

    def _check_model(self, model) -> Dict[str, float]:
        """Range checks on the final model; its CTCVR and oracle CVR AUCs."""
        result = evaluate_model(model, self.inputs.evaluation)
        preds = model.predict(self.inputs.evaluation.full_batch())
        for field in ("ctr", "cvr", "ctcvr"):
            values = getattr(preds, field)
            self.checks.require(
                bool(np.all(np.isfinite(values)))
                and bool(np.all((values >= 0.0) & (values <= 1.0))),
                f"{field} predictions outside [0, 1]",
            )
        if self.name == "fit-csv":
            memory_model = build_model(
                "dcmt", self.inputs.memory_schema, self.model_config
            )
            for problem in layer_mismatches(memory_model, model):
                self.checks.require(False, f"CSV model layers: {problem}")
        self.checks.require(
            result.ctcvr_auc is not None and result.cvr_auc_d is not None,
            "held-out split has no conversions",
        )
        return {
            "quality": float(result.ctcvr_auc or 0.0),
            "model.cvr_auc": float(result.cvr_auc_d or 0.0),
        }

    # -- windows ----------------------------------------------------------
    def measure(self, seconds: float) -> Dict[str, object]:
        """Repeat the seeded fit until ``seconds`` pass (at least 3 fits)."""
        fit_s: List[float] = []
        rates: List[float] = []
        steps: List[float] = []
        clocks: List[StepClock] = []
        reference = None
        rows = len(self.inputs.data) * CONFIG.epochs
        start = time.perf_counter()
        while len(fit_s) < 3 or time.perf_counter() - start < seconds:
            clock = StepClock(self.probe)
            began = time.perf_counter()
            model, history = self.fit([clock])
            elapsed = time.perf_counter() - began
            fit_s.append(elapsed)
            rates.append(rows / clock.scaled_fit_s(elapsed))
            steps.extend(clock.scaled_steps())
            clocks.append(clock)
            reference = self._check_fit(history, reference)
        for clock in clocks:
            self.checks.require(
                clock.rows == rows, f"fit trained {clock.rows} rows, not {rows}"
            )
        attempted = sum(clock.attempted for clock in clocks)
        skipped = sum(clock.skipped for clock in clocks)
        return {
            "metrics": {
                "throughput_per_s": median(rates),
                "latency_p50_ms": 1e3 * percentile(steps, 50),
                "latency_p99_ms": 1e3 * percentile(steps, 99),
                "quality": self._check_model(model)["quality"],
                "ok_frac": (attempted - skipped) / attempted,
            },
            "attempted": attempted,
            "failed": skipped,
            "detail": {
                "fits": len(fit_s),
                "steps": len(steps),
                "fit_s": [round(s, 6) for s in fit_s],
                "step_scale_median": [median(c.scales) for c in clocks],
                "rows_per_fit": rows,
            },
        }

    def trace(self, seconds: float, out: Path) -> Dict[str, object]:
        """Per-layer split: untraced and traced fits in ABBA order, then
        one fit under the op profiler."""
        tracer = Tracer()
        callbacks: List[TraceCallback] = []

        def plain(_):
            start = time.perf_counter()
            _, history = self.fit()
            self._check_fit(history, None)
            return time.perf_counter() - start

        def traced(_):
            callback = TraceCallback(tracer)
            callbacks.append(callback)
            with instrument(tracer), tracer.span(ROOT):
                start = time.perf_counter()
                with tracer.span("models.build"):
                    model = self._model()
                with tracer.span("training.fit"):
                    history = fit_model(
                        model, self.inputs.data, CONFIG,
                        validation=self.inputs.validation,
                        callbacks=[callback],
                    )
                elapsed = time.perf_counter() - start
            self._check_fit(history, None)
            return elapsed

        plain_s, traced_s = interleave(plain, traced, seconds, 2)
        n = len(traced_s)
        tracer.dump(out)
        profiler = OpProfiler()
        model = self._model()
        with profiler:
            fit_model(model, self.inputs.data, CONFIG,
                      validation=self.inputs.validation)
        cvr_auc = self._check_model(model)["model.cvr_auc"]
        metrics = training_layers(tracer, fits=n)
        steps = sum(cb.steps for cb in callbacks)
        skipped = sum(cb.skipped_steps for cb in callbacks)
        rows = sum(cb.rows for cb in callbacks)
        data_s = metrics["training.data_s"] * n
        metrics.update({
            "training.steps": steps / n,
            "training.skipped_steps": skipped / n,
            "data.rows_per_busy_s": rows / data_s if data_s > 0 else 0.0,
            "fail_frac": skipped / max(steps + skipped, 1),
            "degraded_frac": 0.0,
            "model.cvr_auc": cvr_auc,
            "trace.covered_frac": tracer.covered_frac(("training.fit",)),
            "trace.overhead_frac": median(traced_s) / median(plain_s) - 1.0,
        })
        if self.source is not None:
            metrics["data.peak_resident_chunks"] = float(
                self.source.gauge.peak_resident_chunks
            )
            metrics["data.peak_chunk_bytes"] = float(
                self.source.gauge.peak_resident_bytes
            )
        metrics.update(op_metrics(profiler, units=1))
        return {"metrics": metrics, "attempted": steps + skipped, "failed": skipped}


def training_layers(tracer: Tracer, fits: int) -> Dict[str, float]:
    """Seconds per fit in each training phase.

    A phase span's time counts less any phase span nested in it: the
    epoch-end span opens inside the data span that is open when the
    epoch's batches run out.
    """
    names = {f"training.{phase}" for phase in TRAINING_PHASES}
    durations = tracer.durations()
    own = {name: 0.0 for name in names}
    for name, parent, value in zip(tracer.names, tracer.parents, durations):
        if name in names:
            own[name] += value
            if parent >= 0 and tracer.names[parent] in names:
                own[tracer.names[parent]] -= value
    return {f"{name}_s": value / fits for name, value in own.items()}


def op_metrics(profiler: OpProfiler, units: int) -> Dict[str, float]:
    """Seconds and calls per unit of work for each op in :data:`OPS`."""
    out = {}
    for op in OPS:
        stat = profiler.stats.get(op)
        out[f"autograd.{op}_s"] = (stat.seconds / units) if stat else 0.0
        out[f"autograd.{op}_calls"] = (stat.calls / units) if stat else 0.0
    return out
