"""Same-run relative gate: the frozen scorer against ``model.predict``.

Both arms run in one process on the same 16-candidate DCMT page (the
narrow page of the serving benchmark, with its model shape), in
interleaved repetitions whose order alternates, and are compared by
their medians.  No absolute floor: a slow or busy host slows both arms
alike, so only the ratio is gated.
"""

import time

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, build_model
from repro.models.frozen import freeze

pytestmark = pytest.mark.perf

REPETITIONS = 21
CALLS = 40
MIN_SPEEDUP = 3.0


def _seconds_per_call(fn, batch) -> float:
    started = time.perf_counter()
    for _ in range(CALLS):
        fn(batch)
    return (time.perf_counter() - started) / CALLS


def test_frozen_scorer_is_three_times_faster_than_predict():
    train, test, _ = load_scenario(
        "ae_es", n_users=60, n_items=80, n_train=400, n_test=200
    )
    config = ModelConfig(embedding_dim=8, hidden_sizes=(32, 16), seed=0)
    model = build_model("dcmt", train.schema, config)
    scorer = freeze(model)
    batch = test.subset(np.arange(16)).full_batch()
    arms = {"predict": model.predict, "frozen": scorer}
    for fn in arms.values():
        _seconds_per_call(fn, batch)  # warm caches and lazy set-up
    samples = {name: [] for name in arms}
    order = list(arms)
    for rep in range(REPETITIONS):
        for name in order if rep % 2 == 0 else reversed(order):
            samples[name].append(_seconds_per_call(arms[name], batch))
    predict_s = float(np.median(samples["predict"]))
    frozen_s = float(np.median(samples["frozen"]))
    speedup = predict_s / frozen_s
    assert speedup >= MIN_SPEEDUP, (
        f"frozen scorer {frozen_s * 1e6:.0f} us vs predict "
        f"{predict_s * 1e6:.0f} us per 16-row page: {speedup:.2f}x < "
        f"{MIN_SPEEDUP}x"
    )
