"""Serving scores pages through frozen scorers that never go stale.

``RankingService`` lowers ``model`` and ``ctr_provider`` to
:class:`~repro.models.frozen.FrozenScorer` programs.  These tests pin
that every way of changing what a service serves (``swap_model``,
assigning either attribute, in-place weight updates) is what the next
page is ranked by, and that a fleet built on the same services agrees.
"""

import numpy as np
import pytest

from repro.data import load_scenario
from repro.models import ModelConfig, MultiTaskModel, build_model
from repro.reliability.config import ServingPolicy
from repro.reliability.errors import ScoringUnavailableError
from repro.simulation import ServingFleet
from repro.simulation.serving import RankingService, _check_probabilities

pytestmark = pytest.mark.fleet

MODEL_CONFIG = ModelConfig(embedding_dim=4, hidden_sizes=(8,), seed=0)
CANDIDATES = np.arange(30)


@pytest.fixture(scope="module")
def world():
    train, _, scenario = load_scenario(
        "ae_es", n_users=40, n_items=50, n_train=1500, n_test=200
    )

    def model(name="dcmt", seed=0):
        return build_model(name, train.schema, MODEL_CONFIG.with_overrides(seed=seed))

    return scenario, model


def expected_scores(service, primary, ctr_model, user, seed):
    """``score_candidates`` recomputed through the reference ``predict``."""
    batch = service._features(user, CANDIDATES, np.random.default_rng(seed))
    preds = primary.predict(batch)
    ctr = preds.ctr if ctr_model is None else ctr_model.predict(batch).ctr
    return ctr * preds.cvr, preds.cvr


def assert_scores(service, primary, ctr_model=None, user=3, seed=5):
    scores, cvr = service.score_candidates(user, CANDIDATES, np.random.default_rng(seed))
    want_scores, want_cvr = expected_scores(service, primary, ctr_model, user, seed)
    assert np.array_equal(scores, want_scores)
    assert np.array_equal(cvr, want_cvr)


class TestScorerFreshness:
    def test_swap_model_ranks_by_the_new_model(self, world):
        scenario, model = world
        old, new = model(seed=0), model(seed=1)
        service = RankingService(old, scenario, page_size=8)
        assert_scores(service, old)
        service.swap_model(new)
        assert service.model is new
        assert_scores(service, new)
        reference = RankingService(new, scenario, page_size=8)
        page, _ = service.serve_page(2, CANDIDATES, np.random.default_rng(9))
        want, _ = reference.serve_page(2, CANDIDATES, np.random.default_rng(9))
        assert np.array_equal(page, want)

    def test_assigning_model_or_ctr_provider_relowers(self, world):
        scenario, model = world
        primary, ctr_a, ctr_b = model(seed=0), model("esmm", 1), model("esmm", 2)
        service = RankingService(primary, scenario, ctr_provider=ctr_a)
        assert_scores(service, primary, ctr_a)
        service.ctr_provider = ctr_b
        assert_scores(service, primary, ctr_b)
        replacement = model("mmoe", 4)
        service.model = replacement
        assert_scores(service, replacement, ctr_b)

    def test_in_place_weight_updates_are_served(self, world):
        scenario, model = world
        primary, donor = model(seed=0), model(seed=6)
        service = RankingService(primary, scenario)
        primary.load_state_dict(donor.state_dict())
        assert_scores(service, donor)

    def test_ctr_provider_scores_through_its_own_scorer(self, world, monkeypatch):
        scenario, model = world
        primary, ctr = model(seed=0), model("esmm", 1)
        service = RankingService(
            primary, scenario, page_size=8, ctr_provider=ctr,
            policy=ServingPolicy(max_retries=0),
        )
        want = expected_scores(service, primary, ctr, user=3, seed=5)
        batch = service._features(3, CANDIDATES, np.random.default_rng(5))
        fallback_page = CANDIDATES[np.argsort(-ctr.predict(batch).ctr)[:8]]

        def forbidden(self, batch):
            raise AssertionError("serving called predict")

        monkeypatch.setattr(MultiTaskModel, "predict", forbidden)
        scores, cvr = service.score_candidates(3, CANDIDATES, np.random.default_rng(5))
        assert np.array_equal(scores, want[0]) and np.array_equal(cvr, want[1])

        # The fallback chain's CTR rung runs the same scorer.
        def down(user, candidates, rng):
            raise RuntimeError("primary down")

        service.score_candidates = down
        page, _ = service.serve_page(3, CANDIDATES, np.random.default_rng(5))
        assert service.stats.last_source == "ctr_provider"
        assert np.array_equal(page, fallback_page)

    def test_fleet_replicas_serve_the_swapped_model(self, world):
        scenario, model = world
        services = [RankingService(model(seed=0), scenario, page_size=8) for _ in range(2)]
        fleet = ServingFleet(services, seed=3)
        new = model(seed=8)
        for replica in fleet.replicas:
            replica.service.swap_model(new)
        reference = RankingService(new, scenario, page_size=8)
        for request in range(6):
            page, cvr = fleet.serve_page(
                request, CANDIDATES, np.random.default_rng(request)
            )
            want, want_cvr = reference.serve_page(
                request, CANDIDATES, np.random.default_rng(request)
            )
            assert np.array_equal(page, want) and np.array_equal(cvr, want_cvr)


class TestSanitizer:
    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.0, 0.5, 1.0], None),
            ([-0.0, 1.0], None),
            ([0.2, np.nan], "sanitizer: non-finite scores"),
            ([0.2, np.inf], "sanitizer: non-finite scores"),
            ([0.2, -np.inf], "sanitizer: non-finite scores"),
            ([0.2, 1.5], "sanitizer: scores outside [0, 1]"),
            ([-1e-12, 0.5], "sanitizer: scores outside [0, 1]"),
            ([np.nan, 1.5], "sanitizer: non-finite scores"),
        ],
    )
    def test_one_pass_keeps_the_diagnosis(self, values, message):
        values = np.array(values)
        if message is None:
            _check_probabilities(values, "scores")
            return
        with pytest.raises(ScoringUnavailableError) as err:
            _check_probabilities(values, "scores")
        assert str(err.value) == message
