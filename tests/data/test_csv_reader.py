"""One CSV reader, three drivers: they must agree on every file.

``load_csv_dataset`` (strict, one chunk), ``load_csv_dataset_quarantined``
(policy, one chunk) and ``ChunkedCSVSource`` (either, ``chunk_rows``
chunks) all drive :func:`repro.data.loaders.parse_csv_rows`.  The
differential property test feeds them small dirty files and checks
that the unshuffled stream reproduces the in-memory load exactly --
arrays, vocabularies, report and quarantine provenance -- and that in
strict mode both raise the same first error.
"""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.ingest import (
    BAD_DENSE,
    BAD_LABEL,
    LABEL_INCONSISTENCY,
    MALFORMED_ROW,
    OOV_ID,
    IngestPolicy,
    load_csv_dataset_quarantined,
)
from repro.data.loaders import (
    ColumnSpec,
    CsvLayout,
    VocabularyMaps,
    hash_feature,
    load_csv_dataset,
    parse_csv_rows,
)
from repro.data.stream import ChunkedCSVSource

pytestmark = [pytest.mark.stream, pytest.mark.ingest]

HEADER = ["user_id", "item_id", "shop_id", "score", "click", "conversion"]
SPEC = ColumnSpec(dense_features=("score",), hash_buckets={"shop_id": 5})

POLICIES = {
    "strict": None,
    "drop": IngestPolicy(
        error_budget=1.0,
        on_bad_dense="drop",
        on_label_inconsistency="drop",
        on_oov_id="drop",
    ),
    "repair": IngestPolicy(
        error_budget=1.0,
        on_bad_dense="impute",
        on_label_inconsistency="repair",
        on_oov_id="impute",
        dense_default=-1.5,
    ),
    "clip": IngestPolicy(error_budget=1.0, on_bad_dense="clip", dense_clip=7.0),
}


def write_csv(path, rows):
    path.write_text("\n".join(",".join(row) for row in [HEADER] + rows) + "\n")
    return path


# -- dirty rows ---------------------------------------------------------
ids = st.sampled_from(["1", "2", "3", "4"]) | st.sampled_from(["7", "8", "9"])
dense_cells = st.one_of(
    st.floats(-100, 100, allow_nan=False).map(lambda v: f"{v:.4f}"),
    st.sampled_from(["nan", "inf", "-inf", "garbage", "", "1e400"]),
)
labels = st.sampled_from(["0", "1"]) | st.sampled_from(["2", "", "yes"])


@st.composite
def dirty_row(draw):
    row = [
        "u" + draw(ids),
        "i" + draw(ids),
        "s" + draw(ids),
        draw(dense_cells),
        draw(labels),
        draw(labels),
    ]
    shape = draw(st.sampled_from(["ok"] * 8 + ["short", "long"]))
    if shape == "short":
        return row[: draw(st.integers(1, len(row) - 1))]
    return row + ["extra"] if shape == "long" else row


dirty_files = st.lists(dirty_row(), min_size=0, max_size=24)


def training_vocabulary(tmp_path):
    """Ids 1-4 seen in training; the frozen loads treat 7-9 as OOV."""
    rows = [[f"u{i}", f"i{i}", f"s{i}", "0.5", "1", "0"] for i in range(1, 5)]
    _, vocab, _ = load_csv_dataset(write_csv(tmp_path / "train.csv", rows), SPEC)
    return vocab


def load_in_memory(path, policy, vocab, frozen):
    if policy is None:
        dataset, vocab, stats = load_csv_dataset(
            path, SPEC, vocabularies=vocab, freeze_vocabulary=frozen
        )
        return dataset, vocab, stats, None, None
    result = load_csv_dataset_quarantined(
        path, SPEC, policy, vocabularies=vocab, freeze_vocabulary=frozen
    )
    report = result.report.to_dict()
    return result.dataset, result.vocabularies, result.dense_stats, report, [
        (row.line, row.reasons, row.action, row.raw) for row in result.quarantine.rows
    ]


def raised(fn):
    try:
        return None, fn()
    except ValueError as error:
        return f"{type(error).__name__}: {error}", None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_reader")


# Strict mode accepts inf cells, so inf - inf in the statistics warns.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("chunk_rows", [1, 3, 7, "n"])
@pytest.mark.parametrize("policy_name", list(POLICIES))
@settings(max_examples=25, deadline=None)
@given(rows=dirty_files, frozen=st.booleans())
def test_stream_matches_in_memory_load(workdir, policy_name, chunk_rows, rows, frozen):
    policy = POLICIES[policy_name]
    path = write_csv(workdir / "log.csv", rows)
    base = training_vocabulary(workdir) if frozen else VocabularyMaps()
    chunk_rows = max(len(rows), 1) if chunk_rows == "n" else chunk_rows

    error, loaded = raised(
        lambda: load_in_memory(path, policy, copy.deepcopy(base), frozen)
    )
    stream_error, source = raised(
        lambda: ChunkedCSVSource(
            path,
            chunk_rows,
            SPEC,
            policy,
            vocabularies=copy.deepcopy(base),
            freeze_vocabulary=frozen,
            dense_stats=None if error else loaded[2],
        )
    )
    assert stream_error == error
    if error:
        assert policy is None  # the policies here never exceed the budget
        return

    dataset, vocab, stats, report, quarantined = loaded
    assert len(source) == len(dataset)
    assert source.vocabularies.maps == vocab.maps
    assert source.schema.vocab_sizes() == dataset.schema.vocab_sizes()
    if policy is not None:
        assert source.report.to_dict() == report
        assert [
            (row.line, row.reasons, row.action, row.raw)
            for row in source.quarantine.rows
        ] == quarantined[:64]

    batches = list(source.iter_batches(4, shuffle=False))

    def streamed(field):
        parts = [field(b) for b in batches]
        return np.concatenate(parts) if parts else np.zeros(0)

    np.testing.assert_array_equal(streamed(lambda b: b.clicks), dataset.clicks)
    np.testing.assert_array_equal(
        streamed(lambda b: b.conversions), dataset.conversions
    )
    for column, values in dataset.sparse.items():
        np.testing.assert_array_equal(
            streamed(lambda b: b.sparse[column]), values
        )
    for column, values in dataset.dense.items():
        np.testing.assert_array_equal(streamed(lambda b: b.dense[column]), values)

    own_stats = ChunkedCSVSource(
        path,
        chunk_rows,
        SPEC,
        policy,
        vocabularies=copy.deepcopy(base),
        freeze_vocabulary=frozen,
    ).dense_stats
    np.testing.assert_allclose(own_stats["score"], stats["score"], rtol=1e-12)


def reference_parse(rows, policy, vocab, frozen):
    """Row-at-a-time reference for one chunk: classify, repair or drop
    each row in turn, then index the kept rows' ids row by row.

    Returns the first defect's line in strict mode, else
    ``(clicks, conversions, scores, ids, quarantined)``.
    """
    kept, quarantined = [], []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(HEADER):
            if policy is None:
                return line
            quarantined.append((line, (MALFORMED_ROW,), "dropped", row))
            continue
        cell = dict(zip(HEADER, row))
        if not {cell["click"], cell["conversion"]} <= {"0", "1"}:
            if policy is None:
                return line
            quarantined.append((line, (BAD_LABEL,), "dropped", row))
            continue
        click, conversion = int(cell["click"]), int(cell["conversion"])
        reasons = []
        if conversion and not click:
            if policy is None:
                return line
            if policy.on_label_inconsistency == "drop":
                quarantined.append((line, (LABEL_INCONSISTENCY,), "dropped", row))
                continue
            conversion = 0
            reasons.append(LABEL_INCONSISTENCY)
        try:
            score = float(cell["score"])
        except ValueError:
            if policy is None:
                return line
            score = math.nan
        if policy is not None and not math.isfinite(score):
            reasons.append(BAD_DENSE)
            if policy.on_bad_dense == "drop":
                quarantined.append((line, tuple(reasons), "dropped", row))
                continue
            clip = policy.on_bad_dense == "clip" and math.isinf(score)
            score = math.copysign(policy.dense_clip, score) if clip else policy.dense_default
        if policy is not None and frozen and any(
            cell[c] not in vocab.maps.get(c, {}) for c in ("user_id", "item_id")
        ):
            reasons.append(OOV_ID)
            if policy.on_oov_id == "drop":
                quarantined.append((line, tuple(reasons), "dropped", row))
                continue
        if reasons:
            quarantined.append((line, tuple(reasons), "repaired", row))
        kept.append((click, conversion, score, cell))
    ids = {
        c: [
            hash_feature(cell[c], 5)
            if c == "shop_id"
            else vocab.index(c, cell[c], frozen=frozen)
            for *_, cell in kept
        ]
        for c in ("user_id", "item_id", "shop_id")
    }
    columns = [[k[i] for k in kept] for i in range(3)]
    return (*columns, ids, quarantined)


# Strict mode accepts inf cells, so inf - inf in the statistics warns.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("policy_name", list(POLICIES))
@settings(max_examples=50, deadline=None)
@given(rows=dirty_files, frozen=st.booleans())
def test_columnar_reader_matches_row_reference(workdir, policy_name, rows, frozen):
    policy = POLICIES[policy_name]
    path = write_csv(workdir / "log.csv", rows)
    base = training_vocabulary(workdir) if frozen else VocabularyMaps()
    layout, vocab = CsvLayout.read(path, SPEC), copy.deepcopy(base)
    expected = reference_parse(rows, policy, copy.deepcopy(base), frozen)
    if isinstance(expected, int):
        with pytest.raises(ValueError, match=rf"^{path}:{expected}: "):
            parse_csv_rows(rows, 2, layout, vocab, frozen, policy)
        return
    parsed = parse_csv_rows(rows, 2, layout, vocab, frozen, policy)
    clicks, conversions, scores, ids, quarantined = expected
    assert parsed.batch.clicks.tolist() == clicks
    assert parsed.batch.conversions.tolist() == conversions
    np.testing.assert_array_equal(parsed.batch.dense["score"], scores)
    assert {c: v.tolist() for c, v in parsed.batch.sparse.items()} == ids
    assert parsed.quarantined == quarantined


# -- the three drivers on named files -------------------------------------
def test_empty_file_gives_unit_stats_everywhere(tmp_path):
    """A header-only file standardises by (0, 1) through every entry
    point, without NaN or RuntimeWarnings."""
    path = write_csv(tmp_path / "header_only.csv", [])
    spec = ColumnSpec(dense_features=("score",))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = [
            load_csv_dataset(path, spec)[2],
            load_csv_dataset_quarantined(path, spec).dense_stats,
            ChunkedCSVSource(path, 512, spec).dense_stats,
        ]
    assert stats == [{"score": (0.0, 1.0)}] * 3


@pytest.fixture(scope="module")
def offset_column(tmp_path_factory):
    """5,000 values of ``1e8 + U(0, 1)``: the naive streamed variance
    ``sumsq/n - mean**2`` cancels to zero here."""
    values = 1e8 + np.random.default_rng(0).uniform(0.0, 1.0, 5_000)
    rows = [["u1", "i1", "s1", repr(float(v)), "1", "0"] for v in values]
    path = write_csv(tmp_path_factory.mktemp("offset") / "offset.csv", rows)
    return path, np.array([float(row[3]) for row in rows])


def test_whole_file_stats_are_numpy_mean_and_std(offset_column):
    path, values = offset_column
    spec = ColumnSpec(dense_features=("score",))
    expected = (float(values.mean()), float(values.std()))
    _, _, stats = load_csv_dataset(path, spec)
    assert stats["score"] == expected
    one_chunk = ChunkedCSVSource(path, len(values), spec)
    assert one_chunk.dense_stats["score"] == expected


@pytest.mark.parametrize("chunk_rows", [1, 512, 5_000])
def test_streamed_stats_keep_precision(offset_column, chunk_rows):
    path, _ = offset_column
    spec = ColumnSpec(dense_features=("score",))
    _, _, full = load_csv_dataset(path, spec)
    streamed = ChunkedCSVSource(path, chunk_rows, spec).dense_stats
    np.testing.assert_allclose(streamed["score"], full["score"], rtol=1e-12)
    assert 0.28 < streamed["score"][1] < 0.30


def test_strict_readers_report_the_same_first_error(tmp_path):
    """Conversion-without-click on line 3 precedes a bad dense cell on
    line 4, whichever reader finds them."""
    path = write_csv(
        tmp_path / "two_defects.csv",
        [
            ["u1", "i1", "s1", "0.5", "1", "1"],
            ["u2", "i2", "s2", "0.5", "0", "1"],
            ["u3", "i3", "s3", "oops", "1", "0"],
        ],
    )
    spec = ColumnSpec(dense_features=("score",))
    messages = []
    for load in (
        lambda: load_csv_dataset(path, spec),
        lambda: ChunkedCSVSource(path, 10, spec),
        lambda: ChunkedCSVSource(path, 1, spec),
    ):
        with pytest.raises(ValueError, match=rf"{path}:3: column 'conversion'"):
            load()
        messages.append(raised(load)[0])
    assert len(set(messages)) == 1
    assert "behaviour path" in messages[0]
