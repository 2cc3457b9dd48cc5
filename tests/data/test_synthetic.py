"""Tests for the synthetic behaviour-model generator."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.scenarios import SCENARIO_PRESETS, load_scenario, scenario_config
from repro.data.stats import dataset_statistics, selection_bias_summary
from repro.data.synthetic import (
    DRAW_FIELDS,
    ScenarioConfig,
    SyntheticScenario,
    _sigmoid,
    calibrate_intercept,
)


def small_config(**overrides):
    base = dict(
        name="unit",
        n_users=80,
        n_items=60,
        n_train=6000,
        n_test=2000,
        target_ctr=0.05,
        target_cvr_given_click=0.2,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_bad_ctr(self):
        with pytest.raises(ValueError):
            small_config(target_ctr=0.0)

    def test_bad_cvr(self):
        with pytest.raises(ValueError):
            small_config(target_cvr_given_click=1.0)

    def test_bad_bias(self):
        with pytest.raises(ValueError):
            small_config(bias_strength=1.5)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            small_config(n_train=0)

    def test_with_overrides(self):
        cfg = small_config().with_overrides(n_train=123)
        assert cfg.n_train == 123
        assert cfg.n_users == 80


class TestCalibration:
    def test_calibrate_intercept_hits_target(self, rng):
        logits = rng.normal(size=50_000)
        b = calibrate_intercept(logits, 0.03)
        achieved = (1.0 / (1.0 + np.exp(-(logits + b)))).mean()
        assert abs(achieved - 0.03) < 1e-4

    def test_calibrate_with_weights(self, rng):
        logits = rng.normal(size=50_000)
        weights = rng.random(50_000)
        b = calibrate_intercept(logits, 0.4, weights=weights)
        probs = 1.0 / (1.0 + np.exp(-(logits + b)))
        achieved = (weights * probs).sum() / weights.sum()
        assert abs(achieved - 0.4) < 1e-4

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            calibrate_intercept(np.zeros(5), 0.1, weights=np.zeros(5))

    def test_generated_ctr_near_target(self):
        scenario = SyntheticScenario(small_config(n_train=30_000))
        train, _ = scenario.generate()
        assert abs(train.ctr - 0.05) < 0.01

    def test_generated_cvr_near_target(self):
        scenario = SyntheticScenario(small_config(n_train=30_000))
        train, _ = scenario.generate()
        assert abs(train.cvr_given_click - 0.2) < 0.06


class TestGeneratedStructure:
    def test_invariant_conversion_inside_clicks(self):
        train, test, _ = _generate_small()
        for ds in (train, test):
            assert not np.any((ds.conversions == 1) & (ds.clicks == 0))

    def test_oracle_columns_present(self):
        train, _, _ = _generate_small()
        assert train.has_oracle
        assert np.all((train.oracle_ctr > 0) & (train.oracle_ctr < 1))
        assert np.all((train.oracle_cvr > 0) & (train.oracle_cvr < 1))

    def test_schema_matches_columns(self):
        train, _, _ = _generate_small()
        train.validate()  # raises on schema violations

    def test_deterministic_given_seed(self):
        a_train, _, _ = _generate_small(seed=9)
        b_train, _, _ = _generate_small(seed=9)
        assert np.array_equal(a_train.clicks, b_train.clicks)
        assert np.array_equal(
            a_train.sparse["user_id"], b_train.sparse["user_id"]
        )

    def test_different_seeds_differ(self):
        a_train, _, _ = _generate_small(seed=1)
        b_train, _, _ = _generate_small(seed=2)
        assert not np.array_equal(a_train.clicks, b_train.clicks)

    def test_train_test_sizes(self):
        train, test, _ = _generate_small()
        assert len(train) == 6000
        assert len(test) == 2000


class TestSelectionBias:
    def test_bias_increases_with_rho(self):
        """With the hidden confounder off, the O/D CVR gap must grow
        with bias_strength -- that knob *is* the affinity-level MNAR
        mechanism."""
        gaps = []
        for rho in (0.0, 0.5, 0.95):
            scenario = SyntheticScenario(
                small_config(
                    bias_strength=rho,
                    n_train=30_000,
                    hidden_confounder_click=0.0,
                    hidden_confounder_conversion=0.0,
                )
            )
            train, _ = scenario.generate()
            summary = selection_bias_summary(train)
            gaps.append(summary["avg_cvr_O"] - summary["avg_cvr_D"])
        assert gaps[0] < gaps[1] < gaps[2]
        assert abs(gaps[0]) < 0.03  # rho=0 is (nearly) missing at random

    def test_hidden_confounder_creates_conditional_bias(self):
        """The hidden confounder shifts the O/D gap even at rho=0: the
        missingness depends on the (unobserved) outcome driver, which is
        what makes p(r|x,o=1) != p(r|do(o=1),x)."""
        base = dict(bias_strength=0.0, n_train=30_000)
        off = SyntheticScenario(
            small_config(
                hidden_confounder_click=0.0,
                hidden_confounder_conversion=0.0,
                **base,
            )
        )
        on = SyntheticScenario(
            small_config(
                hidden_confounder_click=2.5,
                hidden_confounder_conversion=2.5,
                **base,
            )
        )
        gap_off = _od_gap(off)
        gap_on = _od_gap(on)
        assert gap_on > gap_off + 0.02

    def test_position_is_instrument(self):
        """Positions shift CTR but not the conversion logit."""
        scenario = SyntheticScenario(small_config())
        users = np.arange(50) % scenario.config.n_users
        items = np.arange(50) % scenario.config.n_items
        front = scenario.true_ctr(users, items, np.zeros(50, dtype=int))
        back = scenario.true_ctr(users, items, np.full(50, 9))
        assert np.all(front > back)
        assert np.allclose(
            scenario.true_cvr(users, items), scenario.true_cvr(users, items)
        )


class TestPresets:
    def test_all_presets_construct(self):
        for name in SCENARIO_PRESETS:
            cfg = scenario_config(name, n_train=2000, n_test=500)
            SyntheticScenario(cfg)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="ae_es"):
            scenario_config("nope")

    def test_load_scenario_ctr_matches_paper_rate(self):
        train, _, _ = load_scenario("ae_es", n_train=20_000, n_test=1000)
        target = SCENARIO_PRESETS["ae_es"].target_ctr
        assert abs(train.ctr - target) < 0.01

    def test_alipay_extreme_bias(self):
        train, _, _ = load_scenario("alipay_search", n_train=20_000, n_test=1000)
        summary = selection_bias_summary(train)
        # Fig. 7 phenomenon: posterior CVR over O far above over D.
        assert summary["avg_cvr_O"] > 2.5 * summary["avg_cvr_D"]


@settings(max_examples=10, deadline=None)
@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    ctr=st.floats(min_value=0.02, max_value=0.3),
)
def test_property_calibration_and_invariants(rho, ctr):
    """Any (rho, ctr) combination calibrates and respects invariants."""
    scenario = SyntheticScenario(
        ScenarioConfig(
            name="prop",
            n_users=50,
            n_items=40,
            n_train=8000,
            n_test=500,
            target_ctr=ctr,
            target_cvr_given_click=0.15,
            bias_strength=rho,
            seed=3,
        )
    )
    train, _ = scenario.generate()
    assert abs(train.ctr - ctr) < 0.05
    assert not np.any((train.conversions == 1) & (train.clicks == 0))
    clicked = train.clicks == 1
    assert np.array_equal(
        train.oracle_conversion[clicked], train.conversions[clicked]
    )


def _od_gap(scenario):
    train, _ = scenario.generate()
    summary = selection_bias_summary(train)
    return summary["avg_cvr_O"] - summary["avg_cvr_D"]


def _generate_small(seed=5):
    scenario = SyntheticScenario(small_config(seed=seed))
    train, test = scenario.generate()
    return train, test, scenario


# ---------------------------------------------------------------------------
# Drift rebuilds: ``drifted`` shares the draws and only recalibrates
# ---------------------------------------------------------------------------
def _drift_config(**overrides):
    delays = dict(conversion_delay_mean_hours=24.0, conversion_delay_item_spread=0.6)
    return small_config(**{**delays, **overrides})


@functools.lru_cache(maxsize=1)
def _drift_parent():
    return SyntheticScenario(_drift_config())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _dataset_arrays(ds):
    out = {f"sparse.{k}": v for k, v in ds.sparse.items()}
    out.update({f"dense.{k}": v for k, v in ds.dense.items()})
    for name in (
        "clicks", "conversions", "oracle_ctr", "oracle_cvr",
        "oracle_conversion", "actions", "exposure_times", "conversion_times",
    ):
        out[name] = getattr(ds, name)
    return out


def _assert_same_world(a, b):
    """``a`` and ``b`` agree bit for bit on everything a world exposes."""
    for name in ("_ctr_intercept", "_cvr_intercept", "_action_intercept"):
        assert getattr(a, name) == getattr(b, name), name
    assert a._bucket_edges.keys() == b._bucket_edges.keys()
    for key in a._bucket_edges:
        assert _same_bits(a._bucket_edges[key], b._bucket_edges[key]), key
    assert _same_bits(a.item_delay_scale, b.item_delay_scale)
    assert a.schema == b.schema
    for part_a, part_b in zip(a.generate(), b.generate()):
        cols_a, cols_b = _dataset_arrays(part_a), _dataset_arrays(part_b)
        assert cols_a.keys() == cols_b.keys()
        for key in cols_a:
            if cols_a[key] is None:
                assert cols_b[key] is None, key
            else:
                assert _same_bits(cols_a[key], cols_b[key]), key
    rng = np.random.default_rng(11)
    cfg = a.config
    users = rng.integers(0, cfg.n_users, size=300)
    items = rng.integers(0, cfg.n_items, size=300)
    positions = rng.integers(0, cfg.position_count, size=300)
    hidden = rng.normal(size=300)
    feats_a = a.features_for(users, items, positions, np.random.default_rng(4))
    feats_b = b.features_for(users, items, positions, np.random.default_rng(4))
    for cols_a, cols_b in zip(feats_a, feats_b):
        assert cols_a.keys() == cols_b.keys()
        for key in cols_a:
            assert _same_bits(cols_a[key], cols_b[key]), key
    for fn, args in (
        ("true_ctr", (users, items, positions, hidden)),
        ("true_ctr", (users, items, positions)),
        ("true_cvr", (users, items, hidden)),
        ("true_action_rate", (users, items, hidden)),
    ):
        assert _same_bits(getattr(a, fn)(*args), getattr(b, fn)(*args)), fn


class TestDriftedWorld:
    """A drift rebuild equals a fresh build of the drifted config."""

    @settings(max_examples=6, deadline=None)
    @given(target=st.floats(min_value=0.005, max_value=0.6))
    def test_ctr_season(self, target):
        cfg = _drift_config(target_ctr=target)
        _assert_same_world(_drift_parent().drifted(cfg), SyntheticScenario(cfg))

    @settings(max_examples=6, deadline=None)
    @given(bias=st.floats(min_value=0.0, max_value=3.0))
    def test_position_bias_shift(self, bias):
        cfg = _drift_config(position_bias=bias)
        _assert_same_world(_drift_parent().drifted(cfg), SyntheticScenario(cfg))

    @settings(max_examples=6, deadline=None)
    @given(factor=st.floats(min_value=0.0, max_value=3.0))
    def test_confounder_shift(self, factor):
        cfg = _drift_config(
            hidden_confounder_click=1.5 * factor,
            hidden_confounder_conversion=1.5 * factor,
        )
        _assert_same_world(_drift_parent().drifted(cfg), SyntheticScenario(cfg))

    @pytest.mark.parametrize(
        "field",
        [
            f.name
            for f in dataclasses.fields(ScenarioConfig)
            if f.name not in DRAW_FIELDS
        ],
    )
    def test_every_other_field_only_recalibrates(self, field):
        """Any field outside DRAW_FIELDS may move; the rebuild still
        equals a fresh build (pins that DRAW_FIELDS is complete)."""
        value = getattr(_drift_config(), field)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, str):
            changed = value + "-drifted"
        elif isinstance(value, int):
            changed = value + 1
        else:
            changed = value * 1.1
        cfg = _drift_config(**{field: changed})
        _assert_same_world(_drift_parent().drifted(cfg), SyntheticScenario(cfg))

    def test_shares_the_parent_draws(self):
        parent = _drift_parent()
        child = parent.drifted(_drift_config(target_ctr=0.07, position_bias=1.1))
        grandchild = child.drifted(_drift_config(hidden_confounder_click=3.3))
        for world in (child, grandchild):
            assert world.draws is parent.draws
            for name in (
                "user_click", "item_click", "user_indep", "item_indep",
                "user_conv", "item_conv", "user_click_base",
                "item_click_base", "user_conv_base", "item_conv_base",
                "item_popularity", "item_delay_scale", "_bucket_edges",
            ):
                assert getattr(world, name) is getattr(parent, name), name
        assert child._ctr_intercept != parent._ctr_intercept

    @pytest.mark.parametrize("field", DRAW_FIELDS)
    def test_draw_shaping_field_is_refused(self, field):
        value = getattr(_drift_config(), field)
        changed = value + 1 if isinstance(value, int) else value * 0.9
        with pytest.raises(ValueError, match=field):
            _drift_parent().drifted(_drift_config(**{field: changed}))

    def test_mismatched_draws_are_refused_at_construction(self):
        with pytest.raises(ValueError, match="seed"):
            SyntheticScenario(_drift_config(seed=6), _drift_parent().draws)


# ---------------------------------------------------------------------------
# Sigmoid and calibration bit identity
# ---------------------------------------------------------------------------
def _masked_sigmoid(x):
    """The boolean-mask gather/scatter sigmoid ``_sigmoid`` replaced."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _assert_sigmoid_matches(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _sigmoid(x)
        want = _masked_sigmoid(x)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestSigmoid:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=0, max_value=64),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_matches_masked_formula(self, x):
        _assert_sigmoid_matches(x)

    def test_special_values(self):
        _assert_sigmoid_matches(
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.5, -709.5,
                      745.2, -745.2, 1e300, -1e300, 5e-324, -5e-324])
        )
        assert _sigmoid(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_integer_input(self, dtype):
        _assert_sigmoid_matches(np.arange(-800, 801, 7).astype(dtype))

    @pytest.mark.parametrize("width", [16, 512, 50_000])
    def test_widths(self, width):
        x = np.random.default_rng(width).normal(scale=30.0, size=width)
        _assert_sigmoid_matches(x)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        target=st.floats(min_value=1e-4, max_value=0.999),
    )
    def test_unweighted_calibration_equals_unit_weights(self, seed, target):
        logits = np.random.default_rng(seed).normal(scale=3.0, size=4096)
        assert calibrate_intercept(logits, target) == calibrate_intercept(
            logits, target, weights=np.ones_like(logits)
        )
