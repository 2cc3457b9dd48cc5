"""Baseline CVR models (Table III of the paper).

Three groups:

* **Parallel MTL**: :class:`~repro.models.esmm.ESMM` (and the naive
  click-space model :class:`~repro.models.naive.NaiveCVR` as the
  pre-MTL reference).
* **Multi-gate MTL**: :class:`~repro.models.cross_stitch.CrossStitch`,
  :class:`~repro.models.mmoe.MMOE`, :class:`~repro.models.ple.PLE`,
  :class:`~repro.models.aitm.AITM`.
* **Causal**: :class:`~repro.models.escm2.ESCM2` with ``variant="ipw"``
  or ``variant="dr"``.

The DCMT family lives in :mod:`repro.core`.  All models share the
:class:`~repro.models.base.MultiTaskModel` interface: ``loss(batch)``
for training and ``predict(batch)`` for inference; :func:`freeze` lowers
a model to a :class:`~repro.models.frozen.FrozenScorer` for serving.
"""

from repro.models.base import ModelConfig, MultiTaskModel, Predictions
from repro.models.components import FeatureEmbedding, WideDeepTower
from repro.models.naive import NaiveCVR
from repro.models.esmm import ESMM
from repro.models.esm2 import ESM2
from repro.models.cross_stitch import CrossStitch
from repro.models.mmoe import MMOE
from repro.models.ple import PLE
from repro.models.aitm import AITM
from repro.models.escm2 import ESCM2
from repro.models.registry import MODEL_REGISTRY, ModelInfo, build_model
from repro.models.frozen import FrozenScorer, freeze

__all__ = [
    "ModelConfig",
    "MultiTaskModel",
    "Predictions",
    "FeatureEmbedding",
    "WideDeepTower",
    "NaiveCVR",
    "ESMM",
    "ESM2",
    "CrossStitch",
    "MMOE",
    "PLE",
    "AITM",
    "ESCM2",
    "MODEL_REGISTRY",
    "ModelInfo",
    "build_model",
    "FrozenScorer",
    "freeze",
]
