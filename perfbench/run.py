"""Run one benchmark workload; print its result as the last stdout line.

    python3 perfbench/run.py --workload fit-csv --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` as it stands, nothing is installed.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` measures the
per-layer split (untraced and traced units of work in ABBA order, then
one op-profiled unit).  Spans, the machine fingerprint and the per-run
detail are written under ``.perfbench-out/``; perfbench/README.md says
what each workload and metric is.

The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` and exits 1; a checkout without the program's
sources exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

from catalog import END_TO_END, PER_LAYER
from harness import HostSpeed, fingerprint, median, peak_rss_mb, pin_blas_threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("fit-wide-vocab", "fit-csv", "serve-mixed", "month-smoke")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _workload(name: str, seed: int, workdir: Path):
    if name in ("fit-wide-vocab", "fit-csv"):
        from workload_fit import FitWorkload

        return FitWorkload(name, seed, workdir)
    if name == "serve-mixed":
        from workload_serve import ServeWorkload

        return ServeWorkload(seed, workdir)
    from workload_month import MonthWorkload

    return MonthWorkload(seed, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(src))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        speed = HostSpeed()
        workload = _workload(args.workload, args.seed, workdir)
        # The first set-up pays every cold start in the process (imports,
        # allocator growth, first-call paths); the median is what one
        # set-up costs, and the last leaves the state the run measures.
        setups = []
        for _ in range(SETUP_REPEATS):
            _, elapsed, factor = speed.timed(workload.setup)
            setups.append(elapsed / factor)
        if args.trace:
            values = dict.fromkeys(PER_LAYER, 0.0)
            result = workload.trace(args.seconds, OUT / f"trace-{tag}.json")
            values.update(result["metrics"])
            units = PER_LAYER
        else:
            result = workload.measure(args.seconds)
            values = dict(result["metrics"])
            values["setup_s"] = median(setups)
            values["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
        attempted, failed = result["attempted"], result["failed"]
        detail = dict(result.get("detail", {}))
        detail["probe_s"] = speed.samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = workload.checks
    unknown = sorted(set(values) ^ set(units))
    checks.require(not unknown, f"metric names outside the catalog: {unknown}")
    for name, value in values.items():
        checks.require(math.isfinite(value), f"{name} is {value}")
    checks.report()
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
        if math.isfinite(values.get(name, math.nan))
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "setup_runs_s": setups,
        "detail": detail,
        "check_failures": checks.failures,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({k: record[k] for k in ("fingerprint", "detail")}))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
