"""``month-smoke``: the managed production month at smoke scale.

Runs ``MonthSimulation(config).run()`` -- the body of ``run_month`` --
with the smoke ``MONTH_CONFIG`` (2 tenants x 8 days, managed mode).  The
window runs whole months with seeds ``seed, seed + 1, ...`` so each run
averages over a few drift schedules; set-up runs a one-day month of the
workload seed three times, which warms every path and pins that a
same-seed month reproduces its regret exactly.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.perf import OpProfiler
from repro.simulation.month import MonthConfig, MonthSimulation

from catalog import MONTH_PHASES
from harness import Checks, IdleProbe, SegmentClock, median, percentile
from tracing import ROOT, TraceCallback, Tracer, instrument, interleave
from workload_fit import op_metrics, training_layers
from workload_serve import ROUTES, serving_layers

#: The smoke month the repository's month test lane and month bench use.
MONTH_CONFIG = MonthConfig(
    tenants=("ae_es", "alipay_search"),
    days=8,
    seed=7,
    n_users=160,
    n_items=220,
    bootstrap_rows=1500,
    pages_per_day=40,
    candidates_per_page=16,
    page_size=5,
    eval_rows=400,
    canary_pages=40,
    epochs=3,
    retrain_every_days=4,
    train_window_days=6,
    exploration_rows_per_day=120,
    reference_rows=400,
    calibration_min_samples=150,
    calibration_window=600,
)

#: Top-level span name -> month phase.  A top-level ``models.predict``
#: has no phase of its own: it belongs to the phase of the call that
#: consumes its output, which is the next top-level span.
PHASE_OF = {name: phase for phase, names in MONTH_PHASES.items() for name in names}


@dataclasses.dataclass
class MonthRun:
    seconds: float
    regret: float
    model_auc: float
    sim: MonthSimulation
    #: Tenant-days the month should run, and how many it did run.
    expected_days: int
    ran_days: int


class MonthWorkload:
    name = "month-smoke"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self._months = 0
        self._setup_regret: Optional[float] = None
        self.clock = SegmentClock(IdleProbe())

    def _month(self, config: MonthConfig) -> MonthRun:
        self._months += 1
        sim = MonthSimulation(config, workdir=self.workdir / f"m{self._months}")
        start = time.perf_counter()
        report = sim.run()
        elapsed = time.perf_counter() - start
        expected = config.days * len(config.tenants)
        self.checks.require(
            len(report.daily) == expected,
            f"month ran {len(report.daily)} tenant-days, not {expected}",
        )
        self.checks.require(
            sorted({row["day"] for row in report.daily}) == list(range(config.days)),
            "a month day is missing",
        )
        regret = float(report.total_regret)
        self.checks.require(np.isfinite(regret), f"regret {regret}")
        auc = float(np.mean([row["model_auc"] for row in report.daily]))
        return MonthRun(elapsed, regret, auc, sim, expected, len(report.daily))

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        run = self._month(dataclasses.replace(MONTH_CONFIG, seed=self.seed, days=1))
        if self._setup_regret is not None:
            self.checks.require(
                run.regret == self._setup_regret,
                f"same-seed month regret differs: {run.regret!r} vs "
                f"{self._setup_regret!r}",
            )
        self._setup_regret = run.regret

    def measure(self, seconds: float) -> Dict[str, object]:
        runs: List[MonthRun] = []
        month_ms: List[float] = []
        start = time.perf_counter()
        while len(runs) < 3 or time.perf_counter() - start < seconds:
            config = dataclasses.replace(MONTH_CONFIG, seed=self.seed + len(runs))
            # Each month is scaled to reference host speed segment by
            # segment: the clock reads the host at program call exits.
            with instrument(self.clock):
                self.clock.start()
                run = self._month(config)
                month_ms.append(1e3 * self.clock.stop())
            runs.append(run)
        tenant_days = MONTH_CONFIG.days * len(MONTH_CONFIG.tenants)
        totals = fleet_totals([r.sim for r in runs])
        return {
            "metrics": {
                "throughput_per_s": tenant_days * len(runs) / (1e-3 * sum(month_ms)),
                "latency_p50_ms": median(month_ms),
                "latency_p99_ms": percentile(month_ms, 99),
                "quality": float(np.mean([r.model_auc for r in runs])),
                "ok_frac": totals["served"] / totals["requests"],
            },
            **days_attempted(runs),
            "detail": {
                "months": len(runs),
                "month_s": [round(r.seconds, 6) for r in runs],
                "regret": [r.regret for r in runs],
                "degraded_frac": 1.0 - totals["primary"] / max(totals["served"], 1),
                "retries": totals["retries"],
                "breaker_opens": totals["breaker_opens"],
            },
        }

    def trace(self, seconds: float, out: Path) -> Dict[str, object]:
        """Per-layer split: untraced and traced months in ABBA order (the
        same seed in each pair), then one month under the op profiler."""
        tracer = Tracer()
        callbacks: List[TraceCallback] = []

        def config(i: int) -> MonthConfig:
            return dataclasses.replace(MONTH_CONFIG, seed=self.seed + i)

        def fit_callbacks() -> List[TraceCallback]:
            callbacks.append(TraceCallback(tracer))
            return [callbacks[-1]]

        def traced(i: int) -> MonthRun:
            with instrument(tracer, fit_callbacks=fit_callbacks):
                with tracer.span(ROOT), tracer.span("month.run"):
                    return self._month(config(i))

        plain, traced_runs = interleave(
            lambda i: self._month(config(i)), traced, seconds, 1
        )
        n = len(traced_runs)
        tracer.dump(out)
        for a, b in zip(plain, traced_runs):
            self.checks.require(
                a.regret == b.regret, "traced month changed the month's regret"
            )
        profiler = OpProfiler()
        with profiler:
            self._month(dataclasses.replace(MONTH_CONFIG, seed=self.seed))
        totals = fleet_totals([r.sim for r in traced_runs])
        metrics = month_phases(tracer, months=n)
        metrics.update(training_layers(tracer, fits=max(1, len(callbacks))))
        pages = sum(
            1 for name, parent in zip(tracer.names, tracer.parents)
            if name in ROUTES and parent >= 0
            and tracer.names[parent] == "month.run"
        )
        metrics.update(serving_layers(tracer, {"narrow": pages, "wide": 0}))
        counters = month_counters([r.sim for r in traced_runs])
        metrics.update({
            "month.world_builds": tracer.names.count("world.build") / n,
            "month.fits": len(callbacks) / n,
            "month.retries": totals["retries"] / n,
            "month.breaker_opens": totals["breaker_opens"] / n,
            "month.promotions": counters["promotions"] / n,
            "month.rollbacks": counters["rollbacks"] / n,
            "month.regret": float(np.mean([r.regret for r in traced_runs])),
            "model.cvr_auc": float(np.mean([r.model_auc for r in traced_runs])),
            "training.steps": sum(c.steps for c in callbacks) / max(1, len(callbacks)),
            "training.skipped_steps": (
                sum(c.skipped_steps for c in callbacks) / max(1, len(callbacks))
            ),
            "fleet.hedges": totals["hedges"] / n,
            "fleet.fallback_pages": totals["fallback_pages"] / n,
            "serving.retries": totals["retries"] / n,
            "serving.breaker_opens": totals["breaker_opens"] / n,
            "serving.primary_frac": totals["primary"] / max(totals["served"], 1),
            "fail_frac": 1.0 - totals["served"] / totals["requests"],
            "degraded_frac": 1.0 - totals["primary"] / max(totals["served"], 1),
            "trace.covered_frac": tracer.covered_frac(("month.run",)),
            "trace.overhead_frac": (
                median([r.seconds for r in traced_runs])
                / median([r.seconds for r in plain]) - 1.0
            ),
        })
        metrics.update(op_metrics(profiler, units=1))
        return {"metrics": metrics, **days_attempted(traced_runs)}


def days_attempted(runs: List[MonthRun]) -> Dict[str, int]:
    """The run's operations are tenant-days: one fails when it does not run.

    Pages the month's fleets shed (lost-quorum shedding after the
    breaker opens that OOV retries cause, ROADMAP item 4) are an outcome
    the month simulates, the same for a seed on every run; they are
    reported as ``ok_frac`` and ``fail_frac``, not as failed operations.
    """
    expected = sum(r.expected_days for r in runs)
    return {"attempted": expected, "failed": expected - sum(r.ran_days for r in runs)}


def fleet_totals(sims: List[MonthSimulation]) -> Dict[str, int]:
    """Serving counters summed over every tenant fleet of every month."""
    out = dict.fromkeys(
        ("requests", "served", "primary", "hedges", "fallback_pages",
         "retries", "breaker_opens"), 0,
    )
    for sim in sims:
        for tenant in sim.tenants:
            stats = tenant.fleet.stats
            out["requests"] += stats.requests
            out["served"] += stats.served
            out["primary"] += stats.by_source.get("primary", 0)
            out["hedges"] += stats.hedges
            out["fallback_pages"] += stats.fleet_fallback_pages
            for replica in tenant.fleet.replicas:
                out["retries"] += replica.service.stats.retries
                out["breaker_opens"] += replica.service.breaker.times_opened
    return out


def month_counters(sims: List[MonthSimulation]) -> Dict[str, int]:
    out = {"promotions": 0, "rollbacks": 0}
    for sim in sims:
        for tenant in sim.tenants:
            for key in out:
                out[key] += tenant.counters.get(key, 0)
    return out


def month_phases(tracer: Tracer, months: int) -> Dict[str, float]:
    """Seconds per month in each phase, from the months' top-level spans."""
    durations = tracer.durations()
    totals = {phase: 0.0 for phase in MONTH_PHASES}
    roots = [i for i, name in enumerate(tracer.names) if name == "month.run"]
    for root in roots:
        pending = 0.0
        for child in tracer.children(root):
            name = tracer.names[child]
            if name == "models.predict":
                pending += durations[child]
                continue
            phase = PHASE_OF.get(name)
            if phase is not None:
                totals[phase] += durations[child] + pending
            pending = 0.0
    return {f"month.{phase}_s": value / months for phase, value in totals.items()}
