"""Differential tests: every zoo model's FrozenScorer against ``predict``.

``model.predict`` is the reference.  The frozen program must agree with
it bit for bit on every output, for every registry model, at every page
width, and must fail on bad input exactly the way it does.
"""

import numpy as np
import pytest

from repro.autograd.plan import PlanUnsupported
from repro.core.dcmt import DCMT
from repro.data import load_scenario
from repro.models import MODEL_REGISTRY, ModelConfig, MultiTaskModel, build_model
from repro.models.esmm import ESMM
from repro.models.frozen import OUTPUTS, FrozenScorer, freeze
from repro.nn.module import Module

ALL_MODELS = sorted(MODEL_REGISTRY)
CONFIG = ModelConfig(embedding_dim=8, hidden_sizes=(32, 16), seed=3)


@pytest.fixture(scope="module")
def world():
    train, test, _ = load_scenario(
        "ae_es", n_users=60, n_items=80, n_train=600, n_test=600
    )
    return train, test


def rows(test, n):
    return test.subset(np.arange(n)).full_batch()


def assert_bit_exact(reference, frozen):
    for key in OUTPUTS:
        want, got = getattr(reference, key), getattr(frozen, key)
        assert (want is None) == (got is None), key
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert np.array_equal(got, want, equal_nan=True), key
            assert np.array_equal(np.isnan(got), np.isnan(want)), key


def training_flags(model):
    return [m.training for m in model.modules()]


class TestBitExact:
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_matches_predict_at_every_width(self, world, name, dropout):
        train, test = world
        model = build_model(name, train.schema, CONFIG.with_overrides(dropout=dropout))
        scorer = freeze(model)
        assert isinstance(scorer, FrozenScorer)
        for n in (1, 16, 512):
            batch = rows(test, n)
            assert_bit_exact(model.predict(batch), scorer(batch))

    def test_dcmt_hard_constraint(self, world):
        train, test = world
        model = DCMT(train.schema, CONFIG, constraint="hard")
        scorer = freeze(model)
        for n in (1, 16, 512):
            batch = rows(test, n)
            assert_bit_exact(model.predict(batch), scorer(batch))

    def test_nan_dense_features_give_the_same_nan_pattern(self, world):
        train, test = world
        model = build_model("dcmt", train.schema, CONFIG)
        scorer = freeze(model)
        batch = rows(test, 16)
        name = next(iter(batch.dense))
        column = np.array(batch.dense[name], dtype=float)
        column[[1, 5, 11]] = np.nan
        batch.dense[name] = column
        reference = model.predict(batch)
        assert np.isnan(reference.cvr).sum() == 3
        assert_bit_exact(reference, scorer(batch))


class TestBadIds:
    @pytest.mark.parametrize("bad", [10_000, -1, -10_000])
    def test_out_of_range_ids_raise_the_same_error(self, world, bad):
        train, test = world
        model = build_model("dcmt", train.schema, CONFIG)
        scorer = freeze(model)
        batch = rows(test, 16)
        ids = np.array(batch.sparse["item_id"])
        ids[7] = bad
        batch.sparse["item_id"] = ids
        with pytest.raises(IndexError) as eager:
            model.predict(batch)
        with pytest.raises(IndexError) as frozen:
            scorer(batch)
        assert str(frozen.value) == str(eager.value)
        assert "vocabulary of size" in str(frozen.value)

    def test_first_bad_column_in_schema_order_wins(self, world):
        train, test = world
        model = build_model("esmm", train.schema, CONFIG)
        scorer = freeze(model)
        batch = rows(test, 16)
        user, hour = np.array(batch.sparse["user_id"]), np.array(batch.sparse["hour"])
        user[0] = 10_000  # past the end of the first column
        hour[3] = -2  # negative in a later column
        batch.sparse["user_id"], batch.sparse["hour"] = user, hour
        with pytest.raises(IndexError) as eager:
            model.predict(batch)
        with pytest.raises(IndexError) as frozen:
            scorer(batch)
        assert str(frozen.value) == str(eager.value)

    @pytest.mark.parametrize("bad", [10_000, 2**64 - 1])
    def test_unsigned_ids_are_bounds_checked(self, world, bad):
        train, test = world
        model = build_model("dcmt", train.schema, CONFIG)
        scorer = freeze(model)
        batch = rows(test, 16)
        batch.sparse["item_id"] = batch.sparse["item_id"].astype(np.uint64)
        assert_bit_exact(model.predict(batch), scorer(batch))
        batch.sparse["item_id"][4] = bad
        with pytest.raises(IndexError) as eager:
            model.predict(batch)
        with pytest.raises(IndexError) as frozen:
            scorer(batch)
        assert str(frozen.value) == str(eager.value)

    def test_float_ids_raise_the_same_type_error(self, world):
        train, test = world
        model = build_model("naive", train.schema, CONFIG)
        scorer = freeze(model)
        batch = rows(test, 4)
        batch.sparse["hour"] = batch.sparse["hour"].astype(float)
        with pytest.raises(TypeError) as eager:
            model.predict(batch)
        with pytest.raises(TypeError) as frozen:
            scorer(batch)
        assert str(frozen.value) == str(eager.value)


class TestWeightsByReference:
    def test_follows_in_place_embedding_grow(self, world):
        train, test = world
        model = build_model("dcmt", train.schema, CONFIG)
        scorer = freeze(model)
        table = model.embedding.tables["item_id"]
        old_vocab = table.num_embeddings
        batch = rows(test, 16)
        batch.sparse["item_id"] = np.array(batch.sparse["item_id"])
        batch.sparse["item_id"][2] = old_vocab + 3
        with pytest.raises(IndexError):
            scorer(batch)
        table.grow(5)
        table.weight.data[old_vocab + 3] = 0.25
        assert_bit_exact(model.predict(batch), scorer(batch))

    def test_follows_load_state_dict(self, world):
        train, test = world
        model = build_model("mmoe", train.schema, CONFIG)
        other = build_model("mmoe", train.schema, CONFIG.with_overrides(seed=11))
        scorer = freeze(model)
        batch = rows(test, 16)
        before = scorer(batch)
        model.load_state_dict(other.state_dict())
        after = scorer(batch)
        assert not np.array_equal(before.cvr, after.cvr)
        assert_bit_exact(other.predict(batch), after)


class TestNoModeMutation:
    @pytest.mark.parametrize("name", ["dcmt", "ple", "cross_stitch"])
    def test_build_and_call_leave_training_flags_alone(self, world, name):
        train, test = world
        model = build_model(name, train.schema, CONFIG.with_overrides(dropout=0.1))
        # A mixed pattern: predict's eval()/train() round trip would
        # flatten it, freeze and the scorer must not.
        model.train()
        for i, module in enumerate(model.modules()):
            module.training = i % 3 != 0
        flags = training_flags(model)
        scorer = freeze(model)
        assert training_flags(model) == flags
        scorer(rows(test, 16))
        assert training_flags(model) == flags

    def test_call_runs_no_module_code(self, world, monkeypatch):
        train, test = world
        model = build_model("dcmt", train.schema, CONFIG)
        scorer = freeze(model)
        batch = rows(test, 16)
        expected = model.predict(batch)

        def forbidden(*args, **kwargs):
            raise AssertionError("the frozen scorer ran module code")

        for owner, attr in (
            (Module, "eval"),
            (Module, "train"),
            (Module, "__call__"),
            (MultiTaskModel, "predict"),
            (DCMT, "forward_tensors"),
        ):
            monkeypatch.setattr(owner, attr, forbidden)
        assert_bit_exact(expected, scorer(batch))


class _IndexesAPage(ESMM):
    """Picks rows of a batch-shaped value: no frozen lowering."""

    def forward_tensors(self, batch):
        outputs = super().forward_tensors(batch)
        outputs["ctr"] = outputs["ctr"][np.arange(len(batch.clicks))]
        return outputs


def test_unlowerable_op_makes_freeze_raise(world):
    train, _ = world
    model = _IndexesAPage(train.schema, CONFIG)
    flags = training_flags(model)
    with pytest.raises(PlanUnsupported, match="getitem"):
        freeze(model)
    assert training_flags(model) == flags
