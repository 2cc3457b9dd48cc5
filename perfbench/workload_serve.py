"""``serve-mixed``: an open loop of page requests to a 2-replica fleet.

One thread sends Poisson page requests at a few fixed offered rates to
a fleet built by ``ServingFleet.from_registry``, on the wall clock.  It
sends on schedule whatever the fleet's state: a request that finds the
thread busy waits, and its latency is timed from the moment it was due,
so a stall also charges the requests queued behind it.  Most pages carry
:data:`NARROW` candidates (per-call overhead dominates); a fixed share
carry :data:`WIDE` (scoring compute dominates).  Closed-loop blocks,
where pages go back to back, measure the fleet's capacity.  Waits for
due times run :class:`~harness.IdleProbe` readings, which scale each
page to reference host speed.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.scenarios import scenario_config
from repro.data.synthetic import SyntheticScenario
from repro.lifecycle.registry import ModelRegistry
from repro.models import ModelConfig, build_model
from repro.perf import OpProfiler
from repro.reliability.errors import RequestShedError
from repro.simulation.fleet import ServingFleet
from repro.training import TrainConfig, fit_model
from repro.training.evaluation import evaluate_model

from catalog import PAGE_LAYERS
from harness import (
    IDLE_REF_S, Checks, IdleProbe, median, percentile,
)
from tracing import IDLE, ROOT, Tracer, instrument, interleave
from workload_fit import op_metrics

USERS = 2_200
ITEMS = 5_000
N_REPLICAS = 2
PAGE_SIZE = 10
NARROW = 16
WIDE = 512
#: Share of wide pages.  Small enough that p99 falls near the middle of
#: the wide pages' latencies, so it tracks scoring compute instead of
#: the luck of a few queued-up wide pages.
WIDE_SHARE = 0.02
#: Offered rates (pages/s), low to high.  The first is the reference
#: rate, where p50/p99 are reported; the rest step through the capacity
#: range of a 2-CPU box for the goodput estimate.
RATES = (300, 900, 1100, 1300, 1500)
#: A closed-loop block: :data:`CLOSED_PAGES` pages sent back to back,
#: where the fleet's capacity (``throughput_per_s``) is measured.
CLOSED = 0
CLOSED_PAGES = 1000
#: The window runs :data:`BLOCK_S`-second blocks in cycles of these
#: rates, so every rate samples the whole window and the reference rate
#: gets every other block.
CYCLE = (300, 900, 300, 1100, 300, 1300, 300, 1500, 300, CLOSED)
BLOCK_S = 1.0
#: Latency limit on each rate's p99 (ms, timed from the due time).
LIMIT_MS = 25.0
#: Pages that warm every replica before any window.
WARM_PAGES = 200
#: The generator stops running idle probes this long before a due time
#: (one pair of probes takes 35-50 us).
IDLE_GUARD_S = 1e-4
#: Idle-probe readings a page's scale is the median of (the last wait's,
#: or the last few waits' when waits are short).
IDLE_READINGS = 32


@dataclasses.dataclass
class Request:
    due_s: float
    user: int
    candidates: np.ndarray

    @property
    def wide(self) -> bool:
        return len(self.candidates) == WIDE


@dataclasses.dataclass
class Phase:
    rate: float
    latency_s: List[float]
    #: The same latencies at reference host speed: each divided by the
    #: idle-probe reading of its page's kind taken in the wait before it.
    scaled_s: List[float]
    service_s: List[float]
    #: Each page's CPU time (the generator thread's ``thread_time``) at
    #: reference host speed, scaled the same way.  A stall that
    #: deschedules the thread is not the page's work and does not count.
    scaled_cpu_s: List[float]
    #: Per page: the ``interp`` scale its latency was divided by (narrow)
    #: or would have been (wide).
    interp_scales: List[float]
    late_s: List[float]
    failed: int
    pages: List[Tuple[Request, np.ndarray, np.ndarray]]
    #: Per block: median lateness over the block's last tenth of
    #: requests -- how far behind schedule the block ended.
    backlogs_s: List[float]
    #: Per block: p99 of ``latency_s``.  A rate's p99 is the median over
    #: its blocks, so a host stall of a few milliseconds, which queues
    #: every page behind it, moves one block and not the rate.
    p99s_s: List[float]

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    def p(self, q: float) -> float:
        return percentile(self.latency_s, q)

    def p99(self) -> float:
        return median(self.p99s_s)

    def backlog_s(self) -> float:
        return median(self.backlogs_s)

    @classmethod
    def merge(cls, blocks: List["Phase"]) -> "Phase":
        """Pool the blocks run at one rate."""
        return cls(
            blocks[0].rate,
            [x for b in blocks for x in b.latency_s],
            [x for b in blocks for x in b.scaled_s],
            [x for b in blocks for x in b.service_s],
            [x for b in blocks for x in b.scaled_cpu_s],
            [x for b in blocks for x in b.interp_scales],
            [x for b in blocks for x in b.late_s],
            sum(b.failed for b in blocks),
            [x for b in blocks for x in b.pages],
            [x for b in blocks for x in b.backlogs_s],
            [x for b in blocks for x in b.p99s_s],
        )


def schedule(rate: float, seconds: float,
             rng: np.random.Generator) -> List[Request]:
    """Poisson arrivals at ``rate`` over ``seconds``, candidates drawn now."""
    out: List[Request] = []
    t = float(rng.exponential(1.0 / rate))
    while t < seconds:
        width = WIDE if rng.random() < WIDE_SHARE else NARROW
        out.append(
            Request(
                t,
                int(rng.integers(0, USERS)),
                rng.choice(ITEMS, size=width, replace=False),
            )
        )
        t += float(rng.exponential(1.0 / rate))
    return out


def goodput(phases: List[Phase], limit_s: float) -> float:
    """Highest offered rate whose p99 meets the limit with no backlog.

    Between the last passing and the first failing rate the answer is
    interpolated on log p99, so it moves smoothly with the latency curve
    instead of jumping between the fixed rates.
    """
    best = 0.0
    previous: Optional[Phase] = None
    for phase in phases:
        p99 = phase.p99()
        ok = p99 <= limit_s and phase.backlog_s() <= limit_s and not phase.failed
        if not ok:
            if previous is None:
                return phase.rate * min(1.0, limit_s / p99)
            lo, hi = math.log(previous.p99()), math.log(max(p99, limit_s))
            share = 1.0 if hi <= lo else (math.log(limit_s) - lo) / (hi - lo)
            return previous.rate + (phase.rate - previous.rate) * share
        best = phase.rate
        previous = phase
    return best


class ServeWorkload:
    name = "serve-mixed"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.fleet: Optional[ServingFleet] = None
        self.test = None
        self._setups = 0
        self.idle = IdleProbe()
        self._idle = {
            kind: collections.deque([IDLE_REF_S[kind]], maxlen=IDLE_READINGS)
            for kind in IdleProbe.KINDS
        }
        self._scale = dict.fromkeys(IdleProbe.KINDS, 1.0)

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        world = SyntheticScenario(
            scenario_config(
                "ae_es", n_users=USERS, n_items=ITEMS, n_train=20_000,
                n_test=20_000, seed=self.seed,
            )
        )
        train, test = world.generate()
        config = ModelConfig(embedding_dim=8, hidden_sizes=(32, 16), seed=self.seed)

        def factory():
            return build_model("dcmt", train.schema, config)

        model = factory()
        # The experiments' tuned learning rate: a converged champion
        # keeps the served model's AUC steady across seeds.
        fit_model(model, train, TrainConfig(learning_rate=0.003, seed=self.seed))
        self._setups += 1
        registry = ModelRegistry(self.workdir / f"registry{self._setups}")
        version = registry.publish(model, note="serve-mixed").version
        registry.promote(version, reason="benchmark champion")
        fleet = ServingFleet.from_registry(
            registry, factory, world, N_REPLICAS, page_size=PAGE_SIZE,
            seed=self.seed,
        )
        rng = np.random.default_rng([self.seed, 1])
        for request in schedule(1e4, WARM_PAGES / 1e4, rng):
            fleet.serve_page(request.user, request.candidates, rng)
        self.fleet, self.test = fleet, test

    # -- the open loop ----------------------------------------------------
    def run_phase(self, rate: float, requests: List[Request],
                  rng: np.random.Generator,
                  tracer: Optional[Tracer] = None) -> Phase:
        fleet = self.fleet
        phase = Phase(rate, [], [], [], [], [], [], 0, [], [], [])
        t0 = time.perf_counter() + 0.001
        for request in requests:
            due = t0 + request.due_s
            idle = tracer.open(IDLE) if tracer is not None else -1
            # Busy-wait: a sleeping thread lets the CPU idle, and the
            # wake-up latency would land in the next request's timing.
            # The wait runs idle probes until just before the due time.
            if time.perf_counter() < due - IDLE_GUARD_S:
                self._probe_until(due - IDLE_GUARD_S)
            while time.perf_counter() < due:
                pass
            if tracer is not None:
                tracer.close(idle)
                tracer.tag = "wide" if request.wide else "narrow"
            start = time.perf_counter()
            cpu = time.thread_time()
            try:
                page, cvr = fleet.serve_page(request.user, request.candidates, rng)
            except RequestShedError:
                page = cvr = None
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            if tracer is not None:
                tracer.tag = None
            phase.late_s.append(start - due)
            phase.service_s.append(end - start)
            phase.interp_scales.append(self._scale["interp"])
            if page is None:
                phase.failed += 1
                phase.latency_s.append(math.inf)
                phase.scaled_s.append(math.inf)
            else:
                phase.latency_s.append(end - due)
                kind = "compute" if request.wide else "interp"
                phase.scaled_s.append((end - due) / self._scale[kind])
                phase.scaled_cpu_s.append(cpu / self._scale[kind])
                phase.pages.append((request, page, cvr))
        tail = phase.late_s[-max(1, len(phase.late_s) // 10):]
        phase.backlogs_s.append(median(tail))
        phase.p99s_s.append(percentile(phase.latency_s, 99))
        return phase

    def run_closed(self, requests: List[Request],
                   rng: np.random.Generator) -> Tuple[Phase, List[float]]:
        """Serve ``requests`` back to back; return them and each page's
        CPU time at reference host speed.

        After each page the generator takes idle-probe readings of the
        page's kind (outside its time) and scales the page by them.
        """
        phase = Phase(CLOSED, [], [], [], [], [], [], 0, [], [], [])
        scaled: List[float] = []
        for request in requests:
            start = time.thread_time()
            try:
                page, cvr = self.fleet.serve_page(
                    request.user, request.candidates, rng
                )
            except RequestShedError:
                phase.failed += 1
                continue
            elapsed = time.thread_time() - start
            kind = "compute" if request.wide else "interp"
            probe = getattr(self.idle, kind)
            scale = median([probe() for _ in range(3)]) / IDLE_REF_S[kind]
            scaled.append(elapsed / scale)
            phase.pages.append((request, page, cvr))
        return phase, scaled

    def _probe_until(self, until: float) -> None:
        """Take idle-probe readings until ``until``; update the scales."""
        interp, compute = self._idle["interp"], self._idle["compute"]
        while time.perf_counter() < until:
            interp.append(self.idle.interp())
            compute.append(self.idle.compute())
        for kind, readings in self._idle.items():
            self._scale[kind] = median(readings) / IDLE_REF_S[kind]

    def _check_pages(self, phase: Phase) -> None:
        for request, page, cvr in phase.pages:
            candidates = set(request.candidates.tolist())
            ids = page.tolist()
            self.checks.require(
                len(ids) == PAGE_SIZE and len(set(ids)) == PAGE_SIZE
                and candidates.issuperset(ids),
                f"page {ids} is not {PAGE_SIZE} distinct candidates",
            )
            self.checks.require(
                bool(np.all(np.isfinite(cvr)))
                and bool(np.all((cvr >= 0.0) & (cvr <= 1.0))),
                "page CVR outside [0, 1]",
            )

    def _quality(self) -> Dict[str, float]:
        """CTCVR and oracle CVR AUC of the model a replica actually serves."""
        model = self.fleet.replicas[0].service.model
        result = evaluate_model(model, self.test)
        self.checks.require(
            result.ctcvr_auc is not None and result.cvr_auc_d is not None,
            "held-out split has no conversions",
        )
        return {
            "quality": float(result.ctcvr_auc or 0.0),
            "model.cvr_auc": float(result.cvr_auc_d or 0.0),
        }

    def _counts(self) -> Dict[str, float]:
        stats = self.fleet.stats
        services = [r.service for r in self.fleet.replicas]
        primary = stats.by_source.get("primary", 0)
        return {
            "fleet.hedges": stats.hedges,
            "fleet.fallback_pages": stats.fleet_fallback_pages,
            "serving.retries": sum(s.stats.retries for s in services),
            "serving.breaker_opens": sum(s.breaker.times_opened for s in services),
            "primary": primary,
            "served": stats.served,
        }

    def measure(self, seconds: float) -> Dict[str, object]:
        rng = np.random.default_rng([self.seed, 2])
        cycles = max(1, round(seconds / (len(CYCLE) * BLOCK_S)))
        plan = [
            (rate, schedule(rate or 1e4, CLOSED_PAGES / 1e4 if rate == CLOSED
                            else BLOCK_S, rng))
            for _ in range(cycles)
            for rate in CYCLE
        ]
        blocks: Dict[float, List[Phase]] = {rate: [] for rate in RATES}
        closed_s: List[float] = []
        closed_failed = 0
        for rate, requests in plan:
            if rate == CLOSED:
                phase, scaled = self.run_closed(requests, rng)
                self._check_pages(phase)
                closed_s.extend(scaled)
                closed_failed += phase.failed
            else:
                blocks[rate].append(self.run_phase(rate, requests, rng))
        phases = [Phase.merge(blocks[rate]) for rate in RATES]
        # Goodput is scaled for the window as a whole, multiplied by the
        # median ``interp`` scale of its pages: near capacity the
        # generator has few waits to take readings in, and queueing does
        # not scale page by page.  Reference-rate latencies carry their
        # own per-page scale (``Phase.scaled_s``).
        factor = median([x for phase in phases for x in phase.interp_scales])
        for phase in phases:
            self._check_pages(phase)
        reference = phases[0]
        attempted = sum(p.attempted for p in phases) + len(closed_s) + closed_failed
        failed = sum(p.failed for p in phases) + closed_failed
        counts = self._counts()
        return {
            "metrics": {
                "throughput_per_s": len(closed_s) / sum(closed_s),
                "latency_p50_ms": 1e3 * percentile(reference.scaled_cpu_s, 50),
                "latency_p99_ms": 1e3 * percentile(reference.scaled_cpu_s, 99),
                "quality": self._quality()["quality"],
                "ok_frac": (attempted - failed) / attempted,
            },
            "attempted": attempted,
            "failed": failed,
            "detail": {
                "rates": {
                    str(p.rate): {
                        "pages": p.attempted,
                        "p50_ms": 1e3 * p.p(50),
                        "p99_ms": 1e3 * p.p99(),
                        "backlog_ms": 1e3 * p.backlog_s(),
                        "late_p99_ms": 1e3 * percentile(p.late_s, 99),
                    }
                    for p in phases
                },
                "reference_p50_from_due_ms": 1e3 * percentile(reference.scaled_s, 50),
                "reference_p99_from_due_ms": 1e3 * percentile(reference.scaled_s, 99),
                "goodput_per_s": goodput(phases, LIMIT_MS / 1e3) * factor,
                "limit_ms": LIMIT_MS,
                "host_factor": factor,
                "idle_probe_us": {
                    kind: [1e6 * x for x in readings]
                    for kind, readings in self._idle.items()
                },
                "degraded_frac": 1.0 - counts["primary"] / max(counts["served"], 1),
            },
        }

    def trace(self, seconds: float, out: Path) -> Dict[str, object]:
        """Per-layer split at the reference rate.

        The same one-second request blocks run untraced and traced in
        ABBA order; then the first :data:`WARM_PAGES` pages run once
        more under the op profiler.
        """
        plan = np.random.default_rng([self.seed, 3])
        blocks = [
            schedule(RATES[0], BLOCK_S, plan)
            for _ in range(max(2, int(seconds / (2 * BLOCK_S))))
        ]
        tracer = Tracer()
        delta = dict.fromkeys(self._counts(), 0)

        def plain(i):
            return self.run_phase(
                RATES[0], blocks[i], np.random.default_rng([self.seed, 4, i])
            )

        def traced(i):
            before = self._counts()
            with instrument(tracer), tracer.span(ROOT):
                phase = self.run_phase(
                    RATES[0], blocks[i],
                    np.random.default_rng([self.seed, 4, i]), tracer,
                )
            for key, value in self._counts().items():
                delta[key] += value - before[key]
            return phase

        plain_p, traced_p = interleave(plain, traced, 0.0, len(blocks))
        tracer.dump(out)
        for phase in plain_p + traced_p:
            self._check_pages(phase)
        profiler = OpProfiler()
        rng = np.random.default_rng([self.seed, 5])
        pages = [r for block in blocks for r in block][:WARM_PAGES]
        with profiler:
            for request in pages:
                self.fleet.serve_page(request.user, request.candidates, rng)
        served = [r for phase in traced_p for r, _, _ in phase.pages]
        metrics = serving_layers(tracer, {
            "narrow": sum(1 for r in served if not r.wide),
            "wide": sum(1 for r in served if r.wide),
        })
        attempted = sum(p.attempted for p in traced_p)
        failed = sum(p.failed for p in traced_p)
        primary_frac = delta["primary"] / max(delta["served"], 1)
        metrics.update({
            "fleet.hedges": float(delta["fleet.hedges"]),
            "fleet.fallback_pages": float(delta["fleet.fallback_pages"]),
            "serving.retries": float(delta["serving.retries"]),
            "serving.breaker_opens": float(delta["serving.breaker_opens"]),
            "serving.primary_frac": primary_frac,
            "loadgen.late_ms_p99": 1e3 * percentile(
                [s for p in plain_p for s in p.late_s], 99
            ),
            "fail_frac": failed / attempted,
            "degraded_frac": 1.0 - primary_frac,
            "model.cvr_auc": self._quality()["model.cvr_auc"],
            "trace.covered_frac": tracer.covered_frac(()),
            "trace.overhead_frac": (
                sum(sum(p.service_s) for p in traced_p)
                / sum(sum(p.service_s) for p in plain_p) - 1.0
            ),
        })
        metrics.update(op_metrics(profiler, units=len(pages)))
        return {"metrics": metrics, "attempted": attempted, "failed": failed}


#: Spans that start a page request.
ROUTES = ("fleet.route", "canary.route")


def serving_layers(tracer: Tracer, pages: Dict[str, int]) -> Dict[str, float]:
    """Self time per page (us) of every serving layer, narrow and wide.

    Only spans inside a page request count, so a ``predict`` made for
    monitoring or evaluation is not charged to serving.  Untagged pages
    (the month's, 16 candidates each) count as narrow.
    """
    wanted = {span for span, _ in PAGE_LAYERS}
    inside = [False] * len(tracer.names)
    totals: Dict[Tuple[str, str], float] = {}
    for index, (name, parent, tag, value) in enumerate(
        zip(tracer.names, tracer.parents, tracer.tags, tracer.self_times())
    ):
        inside[index] = name in ROUTES or (parent >= 0 and inside[parent])
        if inside[index] and name in wanted:
            key = (name, tag or "narrow")
            totals[key] = totals.get(key, 0.0) + value
    out = {}
    for span, metric in PAGE_LAYERS:
        for tag, n in pages.items():
            value = totals.get((span, tag), 0.0)
            out[f"{metric}.{tag}"] = 1e6 * value / n if n else 0.0
    return out
