"""Streaming data sources: the out-of-core data path.

Everything upstream of this module materialises the entire exposure
log ``D`` as RAM-resident arrays -- fine for the reduced-scale
synthetic presets, wrong for the production-scale logs DCMT targets.
This module inverts the contract: a :class:`DataSource` is *iterated*
in ``Batch``-shaped shards, with only the cheap global facts (row
count, schema, vocabularies, dense statistics) known up front.

The sources:

* :class:`InMemorySource` wraps an :class:`InteractionDataset` and
  delegates to :func:`repro.data.batching.batch_iterator`, so it is
  bit-exact with the historical in-memory path at a fixed RNG state --
  the property that lets :class:`~repro.training.engine.TrainingEngine`
  accept sources without perturbing a single golden test.
* :class:`ChunkedCSVSource` drives the one CSV reader,
  :func:`repro.data.loaders.parse_csv_rows`, over bounded chunks of a
  CSV exposure log (strict, or under an ingest policy).  Peak memory is
  ~2 chunks -- the one being trained on plus the row buffer being
  parsed -- no matter how large the file; a :class:`ChunkMemoryGauge`
  proves it.
* :class:`ReplaySource` replays a timestamped dataset in event-time
  order (the shape of a production click log), for delayed-feedback
  experiments.

Design notes
------------
**Chunk boundary is a batch boundary.**  ``ChunkedCSVSource`` shuffles
*within* a chunk (a bounded-memory approximation of a global shuffle)
and never forms a batch across two chunks, so each chunk's arrays can
be freed before the next is read.  The final batch of each chunk may
therefore be short; ``drop_last`` drops those per-chunk tails.

**Resume = skip without desynchronising.**  ``iter_batches`` takes a
``start_batch`` cursor (what
:class:`~repro.reliability.checkpoint.TrainingSnapshot` records as
``batch_in_epoch``).  Skipped chunks are read past but not parsed --
crucially each skipped chunk still draws its ``rng.permutation``, so
the RNG stream stays aligned and the batches that *are* yielded are
bit-identical to an uninterrupted epoch.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.batching import batch_iterator, n_batches, slice_batch
from repro.data.dataset import Batch, InteractionDataset
from repro.data.ingest import IngestPolicy, QuarantineStore, ingest_report
from repro.data.loaders import (
    ColumnSpec,
    CsvLayout,
    DenseMoments,
    ParsedRows,
    VocabularyMaps,
    iter_csv_rows,
    parse_csv_rows,
    standardise,
)
from repro.data.schema import FeatureSchema
from repro.utils.logging import get_logger, log_event

logger = get_logger("data.stream")


class DataSource(abc.ABC):
    """Chunked iteration over ``Batch``-shaped shards of an exposure log.

    The global facts -- ``len``, ``schema`` -- are known up front (one
    cheap metadata pass at most); the rows themselves are only ever
    materialised a bounded window at a time by :meth:`iter_batches`.
    """

    name: str
    schema: FeatureSchema

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of rows one epoch yields (before ``drop_last``)."""

    @abc.abstractmethod
    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        """One epoch of mini-batches, skipping the first ``start_batch``.

        Misconfiguration (``drop_last`` that would yield zero batches,
        missing ``rng``) raises eagerly at call time.  The skip must be
        RNG-transparent: batches ``start_batch..`` are bit-identical to
        the same positions of an uninterrupted epoch at the same RNG
        state.
        """

    @abc.abstractmethod
    def validate(self) -> None:
        """Prove schema invariants (sparse ids in range) for the epoch.

        The engine calls this once per ``fit`` to arm the
        ``trusted_indices`` fast path.
        """

    @abc.abstractmethod
    def sample_batch(self, n: int) -> Batch:
        """A small deterministic probe batch (monitor callbacks).

        Returns at most ``n`` rows; no RNG involved.
        """

    def n_batches_per_epoch(self, batch_size: int, drop_last: bool) -> int:
        """Batches one epoch yields (sources with tails may override)."""
        return n_batches(len(self), batch_size, drop_last)


# ----------------------------------------------------------------------
class InMemorySource(DataSource):
    """A :class:`DataSource` view of a RAM-resident dataset.

    Pure delegation to :func:`batch_iterator`: same permutation draw,
    same slicing, same batches, bit-exact.
    """

    def __init__(self, dataset: InteractionDataset) -> None:
        self.dataset = dataset
        self.name = dataset.name
        self.schema = dataset.schema

    def __len__(self) -> int:
        return len(self.dataset)

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        return batch_iterator(
            self.dataset,
            batch_size,
            rng=rng,
            shuffle=shuffle,
            drop_last=drop_last,
            start_batch=start_batch,
        )

    def validate(self) -> None:
        self.dataset.validate()

    def sample_batch(self, n: int) -> Batch:
        idx = np.arange(min(n, len(self.dataset)))
        return slice_batch(self.dataset, idx)


# ----------------------------------------------------------------------
@dataclass
class ChunkMemoryGauge:
    """Accounting proof that the chunked reader is bounded-memory.

    ``resident_chunks`` counts materialised array-chunks plus a
    partially filled raw-row buffer; the invariant the acceptance test
    pins is ``peak_resident_chunks <= 2`` regardless of file size.
    """

    resident_chunks: int = 0
    peak_resident_chunks: int = 0
    resident_bytes: int = 0
    peak_resident_bytes: int = 0
    chunks_materialized: int = 0
    rows_materialized: int = 0

    def acquire(self, n_chunks: int, nbytes: int) -> None:
        self.resident_chunks += n_chunks
        self.resident_bytes += nbytes
        self.peak_resident_chunks = max(
            self.peak_resident_chunks, self.resident_chunks
        )
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )

    def release(self, n_chunks: int, nbytes: int) -> None:
        self.resident_chunks -= n_chunks
        self.resident_bytes -= nbytes


@dataclass
class _ChunkPlan:
    """Deterministic epoch geometry, fixed by the metadata pass."""

    #: Kept rows per chunk.
    sizes: List[int] = field(default_factory=list)
    #: Raw rows per chunk: its kept rows and the dropped rows among them.
    spans: List[int] = field(default_factory=list)


def _blocks(
    rows: Iterable[List[str]], size: int, first_line: int = 2
) -> Iterator[Tuple[int, List[List[str]]]]:
    """``(first_line, rows)`` blocks of at most ``size`` raw rows."""
    rows = iter(rows)
    while True:
        block = list(islice(rows, size))
        if not block:
            return
        yield first_line, block
        first_line += len(block)


class ChunkedCSVSource(DataSource):
    """Bounded-memory chunked reader over a CSV exposure log.

    One metadata pass at construction parses the whole file,
    ``chunk_rows`` raw rows at a time, to build the vocabulary
    (identical id assignment to a full in-memory load), dense
    statistics (per-chunk moments merged), the quarantine report, and
    the chunk geometry: every chunk holds ``chunk_rows`` kept rows, the
    last one the rest.  Every epoch then re-reads the file chunk by
    chunk; at no point do more than ``~2 * chunk_rows`` rows live in
    memory.

    Parameters
    ----------
    path:
        CSV file in the loader format.
    chunk_rows:
        Kept rows per materialised chunk (the memory budget).
    policy:
        ``None`` selects *strict* mode: any malformed row raises with
        the same file:line:column provenance the strict loader reports.
        An :class:`IngestPolicy` selects quarantine mode: rows are
        classified/repaired/dropped per chunk, with the error budget
        enforced over the whole file at construction.
    vocabularies / freeze_vocabulary / dense_stats:
        Train-split state for loading further splits consistently,
        exactly as in :func:`~repro.data.loaders.load_csv_dataset`.
    quarantine_max_rows:
        Retention cap for quarantined-row provenance (counts are exact
        regardless; retention is bounded so dirty files cannot grow
        memory).
    """

    def __init__(
        self,
        path: "Path | str",
        chunk_rows: int,
        spec: Optional[ColumnSpec] = None,
        policy: Optional[IngestPolicy] = None,
        vocabularies: Optional[VocabularyMaps] = None,
        freeze_vocabulary: bool = False,
        dense_stats: Optional[Dict[str, Tuple[float, float]]] = None,
        name: Optional[str] = None,
        quarantine_max_rows: int = 64,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.path = Path(path)
        self.chunk_rows = chunk_rows
        self.spec = spec or ColumnSpec()
        self.policy = policy
        self.strict = policy is None
        self.vocabularies = vocabularies or VocabularyMaps()
        self.freeze_vocabulary = freeze_vocabulary
        self.name = name or self.path.stem
        self.gauge = ChunkMemoryGauge()
        self._layout = CsvLayout.read(self.path, self.spec)

        # -- metadata pass: vocabulary, dense stats, quarantine, geometry.
        self.quarantine = QuarantineStore(max_rows=quarantine_max_rows)
        moments = {c: DenseMoments() for c in self._layout.dense}
        plan = _ChunkPlan()
        # Raw rows read so far; kept rows in, and first raw row of, the
        # chunk being filled.
        total = fill = start = 0
        for line, rows in _blocks(iter_csv_rows(self.path), chunk_rows):
            parsed = self._parse(rows, line)
            for entry in parsed.quarantined:
                self.quarantine.add(*entry)
            for c, values in parsed.batch.dense.items():
                moments[c].add(values)
            # A chunk closes after every chunk_rows-th kept row.
            closing = parsed.kept[chunk_rows - fill - 1 :: chunk_rows]
            for end in (total + closing + 1).tolist():
                plan.sizes.append(chunk_rows)
                plan.spans.append(end - start)
                start = end
            fill = (fill + len(parsed.kept)) % chunk_rows
            total += len(rows)
        if fill:
            plan.sizes.append(fill)
            plan.spans.append(total - start)
        self._n_rows = sum(plan.sizes)
        self._plan = plan
        log_event(logger, "stream_metadata_pass", path=str(self.path),
                  chunks=len(plan.sizes), chunk_rows=chunk_rows)
        self.report = ingest_report(self.path, total, self.quarantine, policy)
        if dense_stats is None:
            dense_stats = {c: m.stats() for c, m in moments.items()}
        self.dense_stats = dense_stats
        self.schema = self._layout.schema(self.vocabularies)

    # -- row plumbing ---------------------------------------------------
    def _parse(self, rows: List[List[str]], line: int) -> ParsedRows:
        return parse_csv_rows(rows, line, self._layout, self.vocabularies,
                              self.freeze_vocabulary, self.policy)

    def _read_chunk(self, rows: Iterator[List[str]], span: int, line: int) -> Batch:
        """Parse the next ``span`` raw rows, ``chunk_rows`` at a time, into
        standardised columns."""
        parts = [
            self._parse(block, first).batch
            for first, block in _blocks(islice(rows, span), self.chunk_rows, line)
        ] or [self._parse([], line).batch]
        chunk = parts[0]
        if len(parts) > 1:  # dropped rows stretched the span
            chunk = Batch(
                {c: np.concatenate([p.sparse[c] for p in parts]) for c in chunk.sparse},
                {c: np.concatenate([p.dense[c] for p in parts]) for c in chunk.dense},
                np.concatenate([p.clicks for p in parts]),
                np.concatenate([p.conversions for p in parts]),
            )
        chunk.dense = standardise(chunk.dense, self.dense_stats)
        return chunk

    @staticmethod
    def _chunk_batch(chunk: Batch, idx: np.ndarray) -> Batch:
        return Batch(
            sparse={k: v[idx] for k, v in chunk.sparse.items()},
            dense={k: v[idx] for k, v in chunk.dense.items()},
            clicks=chunk.clicks[idx],
            conversions=chunk.conversions[idx],
        )

    # -- DataSource interface ------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def n_batches_per_epoch(self, batch_size: int, drop_last: bool) -> int:
        return sum(n_batches(s, batch_size, drop_last) for s in self._plan.sizes)

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if start_batch < 0:
            raise ValueError(f"start_batch must be >= 0, got {start_batch}")
        if shuffle and rng is None:
            raise ValueError("shuffle=True requires an rng")
        if drop_last and self._plan.sizes and batch_size > min(self._plan.sizes):
            raise ValueError(
                f"drop_last=True with batch_size={batch_size} > smallest "
                f"chunk ({min(self._plan.sizes)} rows) would yield zero "
                f"batches for that chunk; lower the batch size, raise "
                f"chunk_rows, or set drop_last=False"
            )
        return self._iterate(batch_size, rng, shuffle, drop_last, start_batch)

    def _iterate(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator],
        shuffle: bool,
        drop_last: bool,
        start_batch: int,
    ) -> Iterator[Batch]:
        rows = iter_csv_rows(self.path)
        line = 2
        batch_cursor = 0
        for size, span in zip(self._plan.sizes, self._plan.spans):
            n_chunk_batches = n_batches(size, batch_size, drop_last)
            if shuffle:
                assert rng is not None
                # Drawn even for skipped chunks: the RNG stream must
                # advance identically whether or not we materialise.
                order = rng.permutation(size)
            else:
                order = np.arange(size)
            if batch_cursor + n_chunk_batches <= start_batch:
                deque(islice(rows, span), maxlen=0)
                line += span
                batch_cursor += n_chunk_batches
                continue
            # While a chunk is parsed its raw-row buffer and its arrays
            # coexist -- the "2 resident chunks" moment the gauge (and
            # the acceptance test) bound.
            self.gauge.acquire(1, 0)
            chunk = self._read_chunk(rows, span, line)
            line += span
            arrays = [chunk.clicks, chunk.conversions, *chunk.sparse.values()]
            nbytes = sum(v.nbytes for v in arrays + list(chunk.dense.values()))
            self.gauge.acquire(1, nbytes)
            self.gauge.release(1, 0)
            self.gauge.chunks_materialized += 1
            self.gauge.rows_materialized += size
            try:
                for start in range(0, size, batch_size):
                    idx = order[start : start + batch_size]
                    if drop_last and len(idx) < batch_size:
                        break
                    if batch_cursor >= start_batch:
                        yield self._chunk_batch(chunk, idx)
                    batch_cursor += 1
            finally:
                self.gauge.release(1, nbytes)

    def validate(self) -> None:
        """No-op: the metadata pass constructed every sparse id in
        range (dense re-indexing / bounded feature hashing), which is
        the invariant ``trusted_indices`` relies on."""

    def sample_batch(self, n: int) -> Batch:
        # The first n kept rows: parse only the chunks that hold them.
        chunks = int(np.searchsorted(np.cumsum(self._plan.sizes), n)) + 1
        span = sum(self._plan.spans[:chunks])
        chunk = self._read_chunk(iter_csv_rows(self.path), span, 2)
        return self._chunk_batch(chunk, np.arange(min(n, chunk.size)))


# ----------------------------------------------------------------------
class ReplaySource(DataSource):
    """Replay a timestamped dataset in event-time order.

    The shape of a production training stream: exposures arrive ordered
    by ``exposure_times``, never shuffled.  ``iter_batches`` therefore
    rejects ``shuffle=True`` -- time order *is* the contract.
    """

    def __init__(self, dataset: InteractionDataset, name: Optional[str] = None):
        if dataset.exposure_times is None:
            raise ValueError(
                "ReplaySource needs exposure_times; generate the dataset "
                "with conversion delays enabled"
            )
        self.dataset = dataset
        self.name = name or f"{dataset.name}-replay"
        self.schema = dataset.schema
        #: Stable sort: ties replay in log order, deterministically.
        self.order = np.argsort(dataset.exposure_times, kind="stable")

    def __len__(self) -> int:
        return len(self.dataset)

    def iter_batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
        start_batch: int = 0,
    ) -> Iterator[Batch]:
        if shuffle:
            raise ValueError(
                "ReplaySource is time-ordered; pass shuffle=False "
                "(TrainConfig(shuffle=False) when training)"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if drop_last and batch_size > len(self.dataset):
            raise ValueError(
                f"drop_last=True with batch_size={batch_size} > "
                f"len(dataset)={len(self.dataset)} would yield zero batches"
            )
        return self._iterate(batch_size, drop_last, start_batch)

    def _iterate(
        self, batch_size: int, drop_last: bool, start_batch: int
    ) -> Iterator[Batch]:
        n = len(self.dataset)
        for batch_index, start in enumerate(range(0, n, batch_size)):
            idx = self.order[start : start + batch_size]
            if drop_last and len(idx) < batch_size:
                break
            if batch_index < start_batch:
                continue
            yield slice_batch(self.dataset, idx)

    def validate(self) -> None:
        self.dataset.validate()

    def sample_batch(self, n: int) -> Batch:
        return slice_batch(self.dataset, self.order[: min(n, len(self.dataset))])


# ----------------------------------------------------------------------
def shard_sizes(n_rows: int, n_shards: int) -> List[int]:
    """Row counts of a contiguous ``n_shards``-way split of ``n_rows``.

    The first ``n_rows % n_shards`` shards carry one extra row (the
    ``np.array_split`` convention).  When there are fewer rows than
    shards the empty tails are dropped, so every returned size is
    positive -- a ragged final batch simply fans out to fewer workers.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    base, extra = divmod(n_rows, n_shards)
    sizes = [base + 1] * extra + [base] * (n_shards - extra)
    return [s for s in sizes if s > 0]


def shard_batch(batch: Batch, n_shards: int) -> List[Batch]:
    """Split one batch into contiguous row shards for parallel workers.

    The split is pure arithmetic over the row count (see
    :func:`shard_sizes`), so the shard a row lands in depends only on
    ``(batch.size, n_shards)`` -- the property that makes the parallel
    engine's seeded aggregation order reproducible, and the serial
    replay of the same split bit-exact.  Slices are views; workers in a
    forked process copy on pickle anyway.
    """
    sizes = shard_sizes(batch.size, n_shards)
    shards: List[Batch] = []
    start = 0
    for size in sizes:
        rows = slice(start, start + size)
        shards.append(
            Batch(
                sparse={k: v[rows] for k, v in batch.sparse.items()},
                dense={k: v[rows] for k, v in batch.dense.items()},
                clicks=batch.clicks[rows],
                conversions=batch.conversions[rows],
                actions=None if batch.actions is None else batch.actions[rows],
                weights=None if batch.weights is None else batch.weights[rows],
            )
        )
        start += size
    return shards


def as_source(data: "InteractionDataset | DataSource") -> DataSource:
    """Adapt ``data`` to the source protocol (datasets get wrapped)."""
    if isinstance(data, DataSource):
        return data
    if isinstance(data, InteractionDataset):
        return InMemorySource(data)
    raise TypeError(
        f"expected an InteractionDataset or DataSource, got {type(data).__name__}"
    )
