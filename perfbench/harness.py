"""Shared plumbing: thread pinning, fingerprint, host-speed probe, checks.

Nothing here imports the program under test, so ``run.py`` can pin the
BLAS thread pool (which must happen before numpy is first imported) and
fail cleanly when the program's sources are missing.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Sequence

#: Environment variables that size the BLAS / OpenMP thread pools.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cpu_count() -> int:
    """CPUs this process may run on (the affinity mask, not the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Run every BLAS/OpenMP pool with one thread.

    The benchmark generates its load from one thread.  A second BLAS
    thread on a small shared box spins for its partner, so a neighbour
    that takes a CPU for a moment stalls every threaded matmul: on 2
    CPUs that is what a run measured, not the program.  One thread is
    at most ``nproc`` on any box.  Must run before numpy is imported:
    OpenBLAS sizes its pool once, at load time.
    """
    for name in THREAD_ENV:
        os.environ[name] = "1"


def fingerprint() -> Dict[str, object]:
    """The machine and library facts a result is only valid for."""
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": cpu_count(),
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


#: The host probe's median time on the 2-CPU reference box when no
#: other tenant loads it (numpy 2.4.6, OpenBLAS 0.3.31).  Timing
#: metrics are reported at this host speed; see :class:`HostSpeed`.
PROBE_REF_S = 0.012


class HostSpeed:
    """Tracks the machine's speed with a fixed, program-independent probe.

    On a shared box, other tenants slow every CPU-bound loop by up to
    half for minutes at a time, far more than the changes this benchmark
    must resolve.  The probe -- small matmuls, an Adam-like elementwise
    update over a 0.5M-float table, a scattered row update and a Python
    dict loop, the same kinds of work the program does -- is read
    between units of work.  A unit's *factor* is the mean of the probe
    readings on either side of it over :data:`PROBE_REF_S`: its times
    are divided by the factor and its rates multiplied, so they read as
    if measured at reference speed.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((1024, 66))
        self._b = rng.random((66, 32))
        self._table = rng.random((65_536, 8))
        self._m = np.zeros_like(self._table)
        self._rows = rng.integers(0, 65_536, 1024)
        self._probe_once()  # first touch of the arrays, not host speed
        self.samples: List[float] = []

    def _probe_once(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(20):
            out = self._a @ self._b
            np.maximum(out, 0.0, out=out)
            self._table[self._rows] += 1e-6
        for _ in range(4):
            self._m *= 0.9
            self._m += 0.1 * self._table
            np.sqrt(self._m, out=self._m)
        counts: Dict[int, int] = {}
        for k in range(20_000):
            counts[k & 1023] = counts.get(k & 1023, 0) + k
        return time.perf_counter() - start

    def sample(self) -> float:
        """One probe reading (s): the median of five short probes."""
        reading = median([self._probe_once() for _ in range(5)])
        self.samples.append(reading)
        return reading

    def timed(self, unit):
        """Run ``unit()``; return (its result, wall s, factor for it).

        The previous unit's closing reading opens this one, so units
        run back to back cost one probe each.
        """
        before = self.samples[-1] if self.samples else self.sample()
        start = time.perf_counter()
        result = unit()
        elapsed = time.perf_counter() - start
        after = self.sample()
        return result, elapsed, (before + after) / 2 / PROBE_REF_S


#: :class:`IdleProbe` medians on the quiet reference box, per kind.
IDLE_REF_S = {"interp": 6.2e-6, "compute": 2.55e-5}
#: The median ``interp`` reading right after a piece of program work (a
#: training step, a month's call) on the reference box.  The work leaves
#: the caches cold, so it reads about twice the hot-loop value.
COLD_INTERP_REF_S = 1.6e-5


class IdleProbe:
    """Host-speed readings taken in the load generator's idle waits.

    On a shared box the host's speed switches between a fast and a slow
    state within a second, too fast for :class:`HostSpeed` readings
    between units.  A generator that has to wait for a request's due
    time runs these two fixed micro-units instead of spinning, so the
    reading a page is scaled by was taken within milliseconds of it:
    ``interp`` (dict updates and numpy calls on 16-element arrays, like
    a narrow page's per-call overhead) and ``compute`` (a 256x66 @ 66x32
    matmul with a ReLU and a column sum, like a wide page's scoring).
    Neither touches the program.
    """

    KINDS = ("interp", "compute")

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._keys = rng.random(16)
        self._rows = rng.random((16, 8))
        self._a = rng.random((256, 66))
        self._b = rng.random((66, 32))
        self._np = np
        self.interp()
        self.compute()

    def interp(self) -> float:
        np = self._np
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        for k in range(40):
            counts[k] = counts.get(k, 0) + k
        top = self._rows[self._keys.argsort()[:8]]
        np.maximum(top.sum(axis=1), 0.0)
        return time.perf_counter() - start

    def compute(self) -> float:
        np = self._np
        start = time.perf_counter()
        out = self._a @ self._b
        np.maximum(out, 0.0, out=out)
        out.sum(axis=0)
        return time.perf_counter() - start


class SegmentClock:
    """Scales a long unit of work piece by piece, at program call exits.

    Passed to ``tracing.instrument`` in place of a tracer: every wrapped
    call, on return, ends a segment once :attr:`every_s` has passed
    since the last one, and takes three ``interp`` readings of an
    :class:`IdleProbe`.  The segment is scaled by them; the readings'
    own time is left out.
    """

    def __init__(self, probe: IdleProbe, every_s: float = 0.01) -> None:
        self.probe = probe
        self.every_s = every_s
        self.start()

    def start(self) -> None:
        self.segments: List[float] = []
        self.scales: List[float] = []
        self._mark = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if time.perf_counter() - self._mark >= self.every_s:
                    self._read()

        return timed

    def _read(self) -> None:
        now = time.perf_counter()
        readings = [self.probe.interp() for _ in range(3)]
        self.segments.append(now - self._mark)
        self.scales.append(median(readings) / COLD_INTERP_REF_S)
        self._mark = time.perf_counter()

    def stop(self) -> float:
        """Seconds since :meth:`start` at reference speed, readings excluded."""
        self._read()
        return sum(s / f for s, f in zip(self.segments, self.scales))


class Checks:
    """Collects output-check failures; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self) -> None:
        for message in self.failures:
            print(f"check failed: {message}", file=sys.stderr)
