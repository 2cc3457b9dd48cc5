"""Names and units of every metric the benchmark reports.

Kept free of program imports so ``run.py`` can list it before the
program is on the path; ``BENCHMARK.json`` at the repository root lists
the same names.
"""

from __future__ import annotations

from typing import Dict

#: End-to-end metrics (``--trace 0``) and their units.  Every workload
#: reports each one for its own unit of work; see README.md.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "quality": "auc",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
}

#: Training phases split by the trace callback.
TRAINING_PHASES = ("data", "forward", "backward", "optimizer", "epoch_end")

#: Autograd ops reported from the op-profiled pass.
OPS = (
    "optimizer.step",
    "backward",
    "backward.affine",
    "backward.take_rows",
    "affine",
    "take_rows",
    "concat",
    "relu",
)

#: Span name -> per-page metric stem, reported for narrow and wide pages.
PAGE_LAYERS = (
    ("fleet.route", "fleet.route_us"),
    ("serving.replica", "serving.replica_us"),
    ("serving.score", "serving.score_us"),
    ("world.features", "serving.features_us"),
    ("models.predict", "models.predict_us"),
    ("nn.mode_switch", "nn.mode_switch_us"),
)
PAGE_WIDTHS = ("narrow", "wide")

#: Month phase -> the top-level spans of a month that belong to it.
MONTH_PHASES = {
    "world": ("world.build", "world.build_behavior", "world.features",
              "world.truth", "world.drift"),
    "train": ("training.fit", "training.view", "models.build"),
    "serve": ("fleet.route", "canary.route", "fleet.build"),
    "lifecycle": ("lifecycle.init", "lifecycle.submit", "lifecycle.adopt",
                  "lifecycle.build_canary", "lifecycle.conclude_canary",
                  "lifecycle.rollback", "lifecycle.champion_model",
                  "lifecycle.champion_reference", "registry.open",
                  "registry.load_model", "serving.swap", "nn.embedding_grow"),
    "behavior": ("behavior.roll_out",),
    "monitor": ("monitor.calibration", "monitor.sentinel", "monitor.reference"),
    "ingest": ("ingest.quarantine", "ingest.dataset"),
    "eval": ("eval.auc",),
}
MONTH_COUNTS = ("world_builds", "fits", "retries", "breaker_opens",
                "promotions", "rollbacks")


def _per_layer() -> Dict[str, str]:
    units = {f"training.{phase}_s": "s/fit" for phase in TRAINING_PHASES}
    units.update({
        "training.steps": "count",
        "training.skipped_steps": "count",
        "data.rows_per_busy_s": "1/s",
        "data.peak_resident_chunks": "count",
        "data.peak_chunk_bytes": "B",
    })
    for op in OPS:
        units[f"autograd.{op}_s"] = "s/unit"
        units[f"autograd.{op}_calls"] = "count"
    for _, stem in PAGE_LAYERS:
        for width in PAGE_WIDTHS:
            units[f"{stem}.{width}"] = "us/page"
    units.update({
        "fleet.hedges": "count",
        "fleet.fallback_pages": "count",
        "serving.retries": "count",
        "serving.breaker_opens": "count",
        "serving.primary_frac": "frac",
        "loadgen.late_ms_p99": "ms",
    })
    for phase in MONTH_PHASES:
        units[f"month.{phase}_s"] = "s/month"
    for count in MONTH_COUNTS:
        units[f"month.{count}"] = "count"
    units.update({
        "month.regret": "auc",
        "model.cvr_auc": "auc",
        "fail_frac": "frac",
        "degraded_frac": "frac",
        "trace.covered_frac": "frac",
        "trace.overhead_frac": "frac",
    })
    return units


#: Per-layer metrics (``--trace 1``) and their units.  A layer that is
#: not on a workload's path reports 0 there.
PER_LAYER: Dict[str, str] = _per_layer()
