"""Sparse-id embedding table.

The shared Embedding Layer of Fig. 3 maps every sparse feature id to a
dense vector; per-feature tables are concatenated downstream (see
:class:`repro.models.components.FeatureEmbedding`).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

_TRUSTED_INDICES = False


@contextlib.contextmanager
def trusted_indices() -> Iterator[None]:
    """Skip embedding bounds checks for pre-validated index arrays.

    The trainer wraps its inner loop in this context after the dataset's
    schema validation has already proven every sparse id in range
    (``schema.validate_batch_arrays``); re-checking per lookup per batch
    is pure overhead.  Note numpy's fancy indexing still raises on
    positive out-of-range ids -- what this skips is the defensive
    pre-scan (and with it, rejection of negative ids, which numpy would
    silently wrap).
    """
    global _TRUSTED_INDICES
    previous = _TRUSTED_INDICES
    _TRUSTED_INDICES = True
    try:
        yield
    finally:
        _TRUSTED_INDICES = previous


class Embedding(Module):
    """A ``(num_embeddings, dim)`` lookup table.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size.
    dim:
        Embedding dimension (the paper sweeps {4,...,128}; defaults are
        set by the experiment configs, not here).
    rng:
        Generator for the Gaussian initialization.
    std:
        Initialization standard deviation.
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: np.random.Generator,
        std: float = 0.01,
    ) -> None:
        super().__init__()
        if num_embeddings < 1 or dim < 1:
            raise ValueError(
                f"embedding shape must be positive, got ({num_embeddings}, {dim})"
            )
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(
            init.normal((num_embeddings, dim), rng, std=std), name="embedding"
        )

    def grow(self, extra_rows: int) -> None:
        """Extend the vocabulary by ``extra_rows`` zero-initialised rows.

        This is the catalog-churn path: newly quarantined OOV ids are
        admitted by appending rows, never by touching existing ones, so
        every old id keeps its exact learned vector.  The append rebinds
        ``weight.data``, which a compiled execution plan detects as a
        parameter rebind and answers with invalidate + re-trace (see
        ``repro.autograd.plan``); zero init means a grown model scores
        unseen items from the shared towers alone until a retrain fills
        the rows in.
        """
        if extra_rows < 1:
            raise ValueError(f"extra_rows must be >= 1, got {extra_rows}")
        extra = np.zeros(
            (extra_rows,) + self.weight.data.shape[1:],
            dtype=self.weight.data.dtype,
        )
        self.weight.data = np.concatenate([self.weight.data, extra])
        self.num_embeddings += extra_rows

    def forward(self, indices: np.ndarray) -> Tensor:
        """Gather embedding rows for integer ``indices`` of any shape."""
        idx = np.asarray(indices)
        if not _TRUSTED_INDICES:
            check_indices(idx, self.num_embeddings)
        return ops.take_rows(self.weight, idx)


def check_indices(idx: np.ndarray, num_embeddings: int) -> None:
    """Raise ``IndexError`` unless every id is in ``[0, num_embeddings)``.

    The one bounds check of every embedding lookup, shared by
    :meth:`Embedding.forward` and the frozen inference program so both
    reject a bad id with the same message.
    """
    if not idx.size:
        return
    if idx.dtype == np.int64 and idx.flags.c_contiguous:
        # Single pass: reinterpreting as uint64 maps negatives to huge
        # values, so one comparison catches both bounds.
        bad = (idx.view(np.uint64) >= num_embeddings).any()
    else:
        bad = idx.min() < 0 or idx.max() >= num_embeddings
    if bad:
        raise IndexError(
            f"index out of range for vocabulary of size {num_embeddings}"
        )
