"""Loaders for real exposure logs (Ali-CCP / AliExpress-style CSVs).

The synthetic scenarios make the repository self-contained, but
downstream users who have downloaded the public benchmarks can load
them here.  The expected format is one CSV row per exposure::

    user_id,item_id,<feature columns...>,click,conversion

* ``click`` and ``conversion`` must be 0/1 integers;
* sparse feature columns hold non-negative integer ids (re-indexed
  densely on load);
* columns listed in ``dense_features`` are parsed as floats and
  standardised (zero mean, unit variance, computed on the training
  split).

``load_csv_dataset`` returns an :class:`InteractionDataset` without
oracle columns -- entire-space (do) metrics are unavailable on real
logs, exactly as in the paper.

Every CSV loader -- this strict one, the quarantine loader in
:mod:`repro.data.ingest` and the chunked source in
:mod:`repro.data.stream` -- turns rows into arrays through the one
reader, :func:`parse_csv_rows`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Batch, InteractionDataset
from repro.data.schema import DenseFeature, FeatureSchema, SparseFeature

if TYPE_CHECKING:
    from repro.data.ingest import IngestPolicy


@dataclass
class ColumnSpec:
    """How to interpret the CSV columns.

    ``wide_features`` names the sparse columns routed to the wide part
    of the models (interaction/combination features); everything else
    is deep.

    ``hash_buckets`` maps column names to a fixed bucket count: those
    columns are *feature-hashed* instead of densely re-indexed.  This
    is how production systems handle Ali-CCP-scale vocabularies
    (millions of ids): memory is bounded by the bucket count, unseen
    ids need no OOV handling, and train/test consistency is automatic.
    Collisions are the accepted trade-off.
    """

    click_column: str = "click"
    conversion_column: str = "conversion"
    dense_features: Tuple[str, ...] = ()
    wide_features: Tuple[str, ...] = ()
    user_column: str = "user_id"
    item_column: str = "item_id"
    hash_buckets: Dict[str, int] = field(default_factory=dict)


@dataclass
class VocabularyMaps:
    """Dense re-indexing of raw ids, shared between train/test loads."""

    maps: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def index(self, column: str, raw: str, frozen: bool) -> int:
        table = self.maps.setdefault(column, {})
        if raw not in table:
            if frozen:
                return 0  # out-of-vocabulary bucket
            table[raw] = len(table) + 1  # 0 is reserved for OOV
        return table.get(raw, 0)

    def vocab_size(self, column: str) -> int:
        return len(self.maps.get(column, {})) + 1  # + OOV bucket


def hash_feature(raw: str, n_buckets: int) -> int:
    """Deterministic string -> bucket id (stable across processes).

    Uses FNV-1a rather than Python's builtin ``hash`` (which is salted
    per process and would break train/test consistency).
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    value = 0xCBF29CE484222325
    for byte in raw.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value % n_buckets


#: Quarantine reasons: the row defects :func:`parse_csv_rows` detects.
#: Row has the wrong number of cells (truncated/overlong record).
MALFORMED_ROW = "malformed_row"
#: Click or conversion label is not a literal "0"/"1".
BAD_LABEL = "bad_label"
#: Conversion recorded without a click (violates exposure->click->buy).
LABEL_INCONSISTENCY = "label_inconsistency"
#: Dense value is unparseable, NaN, or infinite.
BAD_DENSE = "bad_dense"
#: Sparse id unseen by a frozen vocabulary.
OOV_ID = "oov_id"
#: The reasons a kept (repaired) row can carry, in detection order.
_REPAIRABLE = (LABEL_INCONSISTENCY, BAD_DENSE, OOV_ID)


def _validate_header(path: Path, header: List[str]) -> None:
    seen: Dict[str, int] = {}
    for position, column in enumerate(header):
        if not column:
            raise ValueError(
                f"{path}: header has an empty column name at position {position}"
            )
        if column in seen:
            raise ValueError(
                f"{path}: duplicate column {column!r} "
                f"(positions {seen[column]} and {position})"
            )
        seen[column] = position


def _csv_lines(path: Path) -> Iterator[List[str]]:
    """The validated header row, then the non-empty data rows."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file (no header row)")
        _validate_header(path, header)
        yield header
        yield from filter(None, reader)


def read_csv_header(path: "Path | str") -> List[str]:
    """Read and validate only the header row."""
    return next(_csv_lines(Path(path)))


def iter_csv_rows(path: "Path | str") -> "Iterator[List[str]]":
    """Stream the non-empty data rows of ``path`` in file order.

    Validates the header (empty/duplicate column names) before yielding
    anything.  Row ``i`` of this stream sits on file line ``i + 2`` --
    the provenance convention every loader error message uses.
    """
    lines = _csv_lines(Path(path))
    next(lines)
    yield from lines


@dataclass
class CsvLayout:
    """One file's header resolved under a :class:`ColumnSpec`.

    ``dense`` follows ``spec.dense_features``; every other non-label
    column is ``sparse``, in header order.
    """

    path: Path
    header: List[str]
    spec: ColumnSpec
    dense: List[str]
    sparse: List[str]

    @classmethod
    def read(cls, path: Path, spec: ColumnSpec) -> "CsvLayout":
        """Read ``path``'s header; raise on missing label/dense columns."""
        header = read_csv_header(path)
        for required in (spec.click_column, spec.conversion_column):
            if required not in header:
                raise ValueError(f"{path}: missing required column {required!r}")
        missing_dense = set(spec.dense_features) - set(header)
        if missing_dense:
            raise ValueError(f"{path}: missing dense columns {sorted(missing_dense)}")
        labels = {spec.click_column, spec.conversion_column}
        dense = [c for c in spec.dense_features if c in header]
        sparse = [c for c in header if c not in labels and c not in dense]
        return cls(path, header, spec, dense, sparse)

    def schema(self, vocabularies: VocabularyMaps) -> FeatureSchema:
        spec = self.spec
        return FeatureSchema(
            sparse=[
                SparseFeature(
                    c,
                    spec.hash_buckets.get(c, vocabularies.vocab_size(c)),
                    group=_guess_group(c, spec),
                    kind="wide" if c in spec.wide_features else "deep",
                )
                for c in self.sparse
            ],
            dense=[DenseFeature(c, dim=1) for c in self.dense],
        )

    def row_error(self, row: Sequence[str], line: int) -> ValueError:
        """The strict error for the first defect of one bad row."""
        where, header = f"{self.path}:{line}", self.header
        if len(row) != len(header):
            detail = (
                f"missing columns {header[len(row):]}"
                if len(row) < len(header)
                else f"{len(row) - len(header)} cells beyond column {header[-1]!r}"
            )
            return ValueError(
                f"{where}: expected {len(header)} cells, got {len(row)}; {detail}"
            )
        cell = dict(zip(header, row))
        click, conversion = self.spec.click_column, self.spec.conversion_column
        for column in (click, conversion):
            if cell[column] not in ("0", "1"):
                return ValueError(
                    f"{where}: column {column!r}: labels must be 0/1, "
                    f"got {cell[column]!r}"
                )
        if cell[conversion] == "1" and cell[click] == "0":
            return ValueError(
                f"{where}: column {conversion!r}: conversion recorded on an "
                f"unclicked exposure; the behaviour path "
                f"exposure->click->conversion is violated"
            )
        column = next(c for c in self.dense if _float_or_none(cell[c]) is None)
        return ValueError(
            f"{where}: column {column!r}: could not parse dense value "
            f"{cell[column]!r}"
        )


@dataclass
class ParsedRows:
    """What :func:`parse_csv_rows` makes of one chunk of raw rows."""

    #: The kept rows as columns; dense values are raw, not standardised.
    batch: Batch
    #: Positions of the kept rows in the chunk.
    kept: np.ndarray
    #: ``(line, reasons, action, raw)`` per quarantined row, in file order.
    quarantined: List[Tuple[int, Tuple[str, ...], str, Sequence[str]]]


def parse_csv_rows(
    rows: Sequence[Sequence[str]],
    first_line: int,
    layout: CsvLayout,
    vocabularies: VocabularyMaps,
    freeze_vocabulary: bool = False,
    policy: "Optional[IngestPolicy]" = None,
) -> ParsedRows:
    """Turn raw CSV rows into column arrays: the one CSV reader.

    ``rows[0]`` sits on file line ``first_line``.  Every CSV loader is a
    driver over this function: the in-memory loaders pass the whole file
    as one chunk, :class:`~repro.data.stream.ChunkedCSVSource` passes
    bounded chunks.  The work goes a column at a time: labels by a
    vectorised 0/1 test, dense cells by one ``np.asarray`` call (a
    per-cell loop runs only when that call fails), sparse and hashed ids
    once per distinct value.

    ``policy=None`` is strict mode: the first defect in file order raises
    with ``file:line: column`` provenance (NaN and inf dense values are
    accepted).  Under an :class:`~repro.data.ingest.IngestPolicy`,
    defective rows are repaired or dropped and listed in
    ``quarantined``.  Rows are triaged before any vocabulary indexing, so
    dropped rows never claim ids, and ids go out in first-seen order: a
    file split into consecutive chunks reads exactly as one chunk.
    """
    spec = layout.spec
    ragged = np.fromiter(map(len, rows), np.int64, len(rows)) != len(layout.header)
    good = np.flatnonzero(~ragged)
    columns = dict(
        zip(layout.header, zip(*([rows[i] for i in good] if ragged.any() else rows)))
    )
    click = np.array(columns.get(spec.click_column, ()), dtype=object)
    conversion = np.array(columns.get(spec.conversion_column, ()), dtype=object)
    bad_label = ~(
        ((click == "0") | (click == "1")) & ((conversion == "0") | (conversion == "1"))
    )
    inconsistent = (conversion == "1") & (click == "0")
    clicks = (click == "1").astype(np.int64)
    conversions = ((conversion == "1") & ~inconsistent).astype(np.int64)
    dense: Dict[str, np.ndarray] = {}
    unparseable = np.zeros(len(good), dtype=bool)
    for c in layout.dense:
        dense[c], bad = _parse_dense(columns.get(c, ()))
        unparseable |= bad
    drop = np.zeros(len(good), dtype=bool)
    quarantined: List[Tuple[int, Tuple[str, ...], str, Sequence[str]]] = []

    if policy is None:
        defects = np.flatnonzero(ragged).tolist()
        defects += good[bad_label | inconsistent | unparseable].tolist()
        if defects:
            raise layout.row_error(rows[min(defects)], first_line + min(defects))
    else:
        dense_bad = np.zeros(len(good), dtype=bool)
        for c, values in dense.items():
            bad = ~np.isfinite(values)
            dense_bad |= bad
            fill = policy.dense_default
            if policy.on_bad_dense == "clip":
                clipped = np.copysign(policy.dense_clip, values)
                fill = np.where(np.isinf(values), clipped, fill)
            dense[c] = np.where(bad, fill, values)
        oov = np.zeros(len(good), dtype=bool)
        for c in layout.sparse if freeze_vocabulary else ():
            cells, table = columns.get(c, ()), vocabularies.maps.get(c, {})
            unseen = {raw for raw in set(cells) if raw not in table}
            if unseen and c not in spec.hash_buckets:
                oov |= np.fromiter(map(unseen.__contains__, cells), bool, len(cells))
        # Drop decisions in detection order: a dropped row's later
        # defects go unreported.
        label_drop = bad_label | (
            inconsistent & (policy.on_label_inconsistency == "drop")
        )
        dense_drop = dense_bad & ~label_drop & (policy.on_bad_dense == "drop")
        oov &= ~label_drop & ~dense_drop
        drop = label_drop | dense_drop | (oov & (policy.on_oov_id == "drop"))
        flagged = {i: ((MALFORMED_ROW,), "dropped") for i in np.flatnonzero(ragged)}
        for j in np.flatnonzero(bad_label | inconsistent | dense_bad | oov):
            if label_drop[j]:
                reasons = (BAD_LABEL if bad_label[j] else LABEL_INCONSISTENCY,)
            else:
                found = (inconsistent[j], dense_bad[j], oov[j])
                reasons = tuple(r for r, hit in zip(_REPAIRABLE, found) if hit)
            flagged[good[j]] = (reasons, "dropped" if drop[j] else "repaired")
        quarantined = [
            (first_line + int(i), *flagged[i], rows[i]) for i in sorted(flagged)
        ]

    keep = ~drop
    mask = keep.tolist() if drop.any() else None
    sparse = {}
    for c in layout.sparse:
        cells = columns.get(c, ())
        if mask is not None:
            cells = tuple(compress(cells, mask))
        # Each distinct value resolves once, in first-seen order.
        ids = dict.fromkeys(cells)
        for raw in ids:
            ids[raw] = (
                hash_feature(raw, spec.hash_buckets[c])
                if c in spec.hash_buckets
                else vocabularies.index(c, raw, frozen=freeze_vocabulary)
            )
        sparse[c] = np.fromiter(map(ids.__getitem__, cells), np.int64, len(cells))
    dense = {c: v[keep] for c, v in dense.items()}
    batch = Batch(sparse, dense, clicks[keep], conversions[keep])
    return ParsedRows(batch, good[keep], quarantined)


def _float_or_none(raw: str) -> Optional[float]:
    try:
        return float(raw)
    except ValueError:
        return None


def _parse_dense(cells: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """``(values, unparseable)`` for one dense column; bad cells are NaN."""
    try:
        values = np.asarray(cells, dtype=np.float64)
        return values, np.zeros(len(values), dtype=bool)
    except ValueError:
        parsed = [_float_or_none(raw) for raw in cells]
        values = np.array([np.nan if v is None else v for v in parsed], dtype=float)
        return values, np.array([v is None for v in parsed], dtype=bool)


class DenseMoments:
    """Count, mean and ``M2`` of one dense column, fed chunk by chunk.

    Chunks merge pairwise (Chan, Golub and LeVeque) in coordinates
    shifted by the first chunk's mean, so a large common offset does not
    cancel; the mean itself comes from the running sum.  A single chunk
    gives exactly ``(v.mean(), v.std())``.
    """

    def __init__(self) -> None:
        self.n, self.total, self.shift, self.m2 = 0, 0.0, 0.0, 0.0
        self.shifted_mean = 0.0

    def add(self, values: np.ndarray) -> "DenseMoments":
        size = len(values)
        if size and not self.n:
            self.shift = values.mean()
            shifted = values - self.shift
            self.n, self.m2 = size, np.square(shifted).sum()
            self.shifted_mean = shifted.mean()
            self.total = values.sum()
        elif size:
            shifted = values - self.shift
            mean = shifted.mean()
            delta, n = mean - self.shifted_mean, self.n + size
            self.m2 += np.square(shifted - mean).sum() + delta * delta * self.n * size / n
            self.shifted_mean += delta * size / n
            self.n, self.total = n, self.total + values.sum()
        return self

    def stats(self) -> Tuple[float, float]:
        """``(mean, std)``; ``(0.0, 1.0)`` without rows, std 0 reads as 1."""
        if not self.n:
            return 0.0, 1.0
        return float(self.total / self.n), float(np.sqrt(self.m2 / self.n)) or 1.0


def standardise(
    dense: Dict[str, np.ndarray], stats: Dict[str, Tuple[float, float]]
) -> Dict[str, np.ndarray]:
    return {c: (v - stats[c][0]) / stats[c][1] for c, v in dense.items()}


def csv_dataset(
    name: str,
    layout: CsvLayout,
    vocabularies: VocabularyMaps,
    batch: Batch,
    dense_stats: Optional[Dict[str, Tuple[float, float]]],
) -> Tuple[InteractionDataset, Dict[str, Tuple[float, float]]]:
    """A whole file's parsed rows as a standardised dataset.

    ``dense_stats`` (training-split statistics) are computed from
    ``batch`` when absent.
    """
    if dense_stats is None:
        dense_stats = {c: DenseMoments().add(v).stats() for c, v in batch.dense.items()}
    dataset = InteractionDataset(
        name=name,
        schema=layout.schema(vocabularies),
        sparse=batch.sparse,
        dense=standardise(batch.dense, dense_stats),
        clicks=batch.clicks,
        conversions=batch.conversions,
    )
    return dataset, dense_stats


def load_csv_dataset(
    path: "Path | str",
    spec: Optional[ColumnSpec] = None,
    vocabularies: Optional[VocabularyMaps] = None,
    freeze_vocabulary: bool = False,
    name: Optional[str] = None,
    dense_stats: Optional[Dict[str, Tuple[float, float]]] = None,
) -> Tuple[InteractionDataset, VocabularyMaps, Dict[str, Tuple[float, float]]]:
    """Load one CSV exposure log strictly: any defective row raises.

    Parameters
    ----------
    path:
        CSV file with a header row.
    spec:
        Column interpretation (defaults to Ali-CCP-style names).
    vocabularies:
        Id maps from a previous (training) load; pass them together
        with ``freeze_vocabulary=True`` when loading the test split so
        unseen ids fall into the shared OOV bucket.
    dense_stats:
        ``{column: (mean, std)}`` from the training split; computed
        when absent.

    Returns
    -------
    (dataset, vocabularies, dense_stats)
        The loaded dataset plus the state needed to load further splits
        consistently.
    """
    path = Path(path)
    spec = spec or ColumnSpec()
    vocabularies = vocabularies or VocabularyMaps()
    layout = CsvLayout.read(path, spec)
    parsed = parse_csv_rows(
        list(iter_csv_rows(path)), 2, layout, vocabularies, freeze_vocabulary
    )
    dataset, dense_stats = csv_dataset(
        name or path.stem, layout, vocabularies, parsed.batch, dense_stats
    )
    return dataset, vocabularies, dense_stats


def load_csv_split(
    train_path: "Path | str",
    test_path: "Path | str",
    spec: Optional[ColumnSpec] = None,
) -> Tuple[InteractionDataset, InteractionDataset]:
    """Load a train/test pair with shared vocabularies and dense stats.

    The test split reuses the training vocabularies (unseen ids map to
    the OOV bucket) and the training dense statistics -- the standard
    leakage-free protocol.
    """
    train, vocabularies, stats = load_csv_dataset(train_path, spec=spec)
    test, _, _ = load_csv_dataset(
        test_path,
        spec=spec,
        vocabularies=vocabularies,
        freeze_vocabulary=True,
        dense_stats=stats,
    )
    # The schemas must agree for one model to serve both splits; the
    # test schema is rebuilt from the (frozen) vocabularies, so simply
    # share the training schema.
    test.schema = train.schema
    return train, test


def export_csv_dataset(dataset: InteractionDataset, path: "Path | str") -> Path:
    """Write an :class:`InteractionDataset` in the loader's CSV format.

    Round-trips with :func:`load_csv_dataset` (modulo dense
    standardisation and id re-indexing).  Useful for handing synthetic
    worlds to external tools and for tests.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(dataset.sparse) + list(dataset.dense)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns + ["click", "conversion"])
        for i in range(len(dataset)):
            row = [dataset.sparse[c][i] for c in dataset.sparse]
            row += [f"{float(dataset.dense[c][i]):.6f}" for c in dataset.dense]
            row += [int(dataset.clicks[i]), int(dataset.conversions[i])]
            writer.writerow(row)
    return path


def _guess_group(column: str, spec: ColumnSpec) -> str:
    if column == spec.user_column or column.startswith("user"):
        return "user"
    if column == spec.item_column or column.startswith("item"):
        return "item"
    if column in spec.wide_features:
        return "combination"
    return "context"
