"""Synthetic exposure -> click -> conversion behaviour model.

The generator implements the causal data-generation process that the
paper's debiasing machinery targets:

1. Every user has a latent *click-affinity* vector and a latent
   *conversion-affinity* vector.  The two are correlated with
   coefficient ``bias_strength`` (rho); this correlation is exactly the
   not-missing-at-random mechanism: users click what they like, and
   what they like converts better, so conversion labels are missing
   systematically -- not at random -- in the non-click space.
2. Exposures sample users uniformly and items from a Zipf popularity
   distribution; each exposure gets a display position with a position
   bias on the click logit (one of the paper's motivations for fake
   negatives: lower positions are simply not *seen*).
3. Click labels ``o ~ Bernoulli(sigmoid(click_logit))`` with the
   intercept calibrated so the marginal CTR matches the scenario
   target (Table II rates).
4. Potential-outcome conversions ``r(do(o=1)) ~ Bernoulli(cvr)`` exist
   for *every* exposure; the observed label is ``o * r(do(o=1))``.
   The CVR intercept is calibrated on the click space so the observed
   conversion-per-click rate matches the target.

Because the generator stores true propensities and potential outcomes,
entire-space metrics (the paper's real object of interest) can be
computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.schema import FeatureSchema, paper_like_schema


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of a synthetic scenario.

    The defaults produce an AE-like dataset at ~1/1000 of the paper's
    row counts.  ``target_cvr_given_click`` is deliberately a few times
    larger than the paper's raw rate so that reduced-scale datasets
    still contain hundreds of positive conversions (see ``DESIGN.md``,
    substitutions table); the *geometry* of the selection bias is
    governed by ``bias_strength`` and is unaffected by this scaling.
    """

    name: str = "synthetic"
    n_users: int = 600
    n_items: int = 400
    n_train: int = 40_000
    n_test: int = 16_000
    latent_dim: int = 8
    target_ctr: float = 0.04
    target_cvr_given_click: float = 0.06
    bias_strength: float = 0.65
    position_count: int = 10
    position_bias: float = 0.35
    logit_scale: float = 2.2
    zipf_exponent: float = 1.1
    affinity_noise: float = 0.35
    #: Strength of the per-exposure *hidden* confounder ``h`` on the
    #: click logit and the conversion logit.  ``h`` models unobserved
    #: attention/awareness ("users have not been aware of these
    #: unclicked items because of exposure position, display style, and
    #: other factors" -- Section I-C): it raises both the probability of
    #: clicking and of converting, and it is NOT exposed as a feature.
    #: This is what makes ``p(r | x, o=1) != p(r | do(o=1), x)`` and
    #: creates genuine fake negatives that only entire-space causal
    #: methods can correct.
    hidden_confounder_click: float = 1.5
    hidden_confounder_conversion: float = 1.5
    #: Generate post-click micro-behaviour labels ("cart"/"favourite";
    #: the intermediate node of ESM2's click -> action -> buy path) and
    #: the target marginal action rate among clicked exposures.
    include_micro_actions: bool = True
    target_action_given_click: float = 0.35
    include_wide_features: bool = True
    #: Mean conversion delay in hours (0 disables the delayed-feedback
    #: machinery entirely: no timestamps are emitted and datasets are
    #: bit-identical to pre-delay builds).  When enabled, every
    #: converting click draws an exponential attribution delay whose
    #: scale is *item-dependent* (see ``conversion_delay_item_spread``),
    #: and :meth:`SyntheticScenario.generate` emits per-row
    #: ``exposure_times`` / ``conversion_times``.
    conversion_delay_mean_hours: float = 0.0
    #: Spread of the per-item log-delay-scale.  Crucially the per-item
    #: factor is *correlated with the item's conversion base rate*:
    #: high-CVR items attribute slowly (think considered purchases vs
    #: impulse buys).  That makes censoring missing-not-at-random in
    #: feature space -- a naive model trained on the censored view
    #: learns "slow items convert poorly", which is exactly backwards,
    #: so the delayed-feedback correction has something real to fix.
    conversion_delay_item_spread: float = 0.0
    #: Length of the exposure log's clock in hours; exposures land
    #: uniformly on ``[0, log_span_hours)``.
    log_span_hours: float = 72.0
    seed: int = 2023

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ctr < 1.0:
            raise ValueError("target_ctr must be in (0, 1)")
        if not 0.0 < self.target_cvr_given_click < 1.0:
            raise ValueError("target_cvr_given_click must be in (0, 1)")
        if not 0.0 <= self.bias_strength <= 1.0:
            raise ValueError("bias_strength must be in [0, 1]")
        if min(self.n_users, self.n_items, self.n_train, self.n_test) < 1:
            raise ValueError("population and sample sizes must be positive")
        if self.conversion_delay_mean_hours < 0:
            raise ValueError("conversion_delay_mean_hours must be >= 0")
        if self.conversion_delay_item_spread < 0:
            raise ValueError("conversion_delay_item_spread must be >= 0")
        if not self.log_span_hours > 0:
            raise ValueError("log_span_hours must be > 0")

    @property
    def has_delays(self) -> bool:
        """Whether conversion-delay modelling is enabled."""
        return self.conversion_delay_mean_hours > 0

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-free on both tails.

    Each sign keeps its own formula -- ``1 / (1 + e^-x)`` for ``x >= 0``
    and ``e^x / (1 + e^x)`` below -- and both read ``e = exp(-|x|)``, so
    one ``where`` selects between them without masked gathers.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def calibrate_intercept(
    logits: np.ndarray,
    target_rate: float,
    weights: Optional[np.ndarray] = None,
    tolerance: float = 1e-6,
) -> float:
    """Find ``b`` such that ``mean_w sigmoid(logits + b) == target_rate``.

    Monotone in ``b``, so plain bisection converges quickly.  ``weights``
    (optional) restrict the average to a subpopulation, e.g. the click
    space when calibrating conversion rates.
    """
    total = logits.size if weights is None else weights.sum()
    if total <= 0:
        raise ValueError("calibration weights sum to zero")

    def rate(b: float) -> float:
        probs = _sigmoid(logits + b)
        if weights is not None:
            probs = weights * probs
        return float(probs.sum() / total)

    low, high = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if rate(mid) < target_rate:
            low = mid
        else:
            high = mid
        if high - low < tolerance:
            break
    return 0.5 * (low + high)


def _quantile_edges(values: np.ndarray, n_buckets: int) -> np.ndarray:
    """Bucket edges at empirical quantiles (n_buckets - 1 cut points)."""
    return np.quantile(values, np.linspace(0, 1, n_buckets + 1)[1:-1])


def _bucketize(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Map values to bucket ids using precomputed ``edges``."""
    return np.searchsorted(edges, values, side="right").astype(np.int64)


#: :class:`ScenarioConfig` fields that shape a world's random draws.  A
#: world rebuilt under drift (:meth:`SyntheticScenario.drifted`) shares
#: its parent's draws, so these must match; every other field (target
#: rates, ``position_bias``, ``logit_scale``, the hidden-confounder
#: strengths, ...) only moves the calibrated intercepts.
DRAW_FIELDS = (
    "seed",
    "n_users",
    "n_items",
    "n_train",
    "latent_dim",
    "bias_strength",
    "position_count",
    "zipf_exponent",
    "affinity_noise",
    "conversion_delay_mean_hours",
    "conversion_delay_item_spread",
)


class _Probe(NamedTuple):
    """A large exposure sample (seed + 101) that intercepts are
    calibrated on, with the per-row terms the bisections read."""

    users: np.ndarray
    items: np.ndarray
    positions: np.ndarray
    hidden: np.ndarray
    click_affinity: np.ndarray
    conversion_affinity: np.ndarray
    click_base: np.ndarray
    conv_base: np.ndarray


class WorldDraws:
    """Everything a world draws from its seed, made once per seed.

    Latent factors, base rates, item popularity, per-item delay scales
    and the feature-bucket edges frozen on the calibration probe.  None
    of it depends on the target rates, ``position_bias``,
    ``logit_scale`` or the hidden-confounder strengths, so every world
    rebuilt under drift shares one instance and only recalibrates its
    intercepts on :meth:`probe`.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.latent_dim
        # Entry scale d**-0.25 makes dot-product affinities ~N(0, 1), so
        # ``logit_scale`` directly controls logit spread (and therefore
        # achievable AUC and bias magnitude).
        scale = d ** (-0.25)

        # Latent click-affinity factors and an independent second set;
        # conversion affinity mixes the two at the *logit* level with
        # coefficient rho = bias_strength.  rho=0 -> conversions missing
        # completely at random; rho->1 -> users click exactly what they
        # would buy, the strongest possible MNAR selection bias.
        rho = config.bias_strength
        self.user_click = rng.normal(size=(config.n_users, d)) * scale
        self.item_click = rng.normal(size=(config.n_items, d)) * scale
        self.user_indep = rng.normal(size=(config.n_users, d)) * scale
        self.item_indep = rng.normal(size=(config.n_items, d)) * scale
        # Kept for feature engineering: an approximate per-user/item
        # conversion factor (the exact conversion affinity is pairwise).
        self.user_conv = rho * self.user_click + np.sqrt(1 - rho**2) * self.user_indep
        self.item_conv = rho * self.item_click + np.sqrt(1 - rho**2) * self.item_indep

        # Per-user / per-item base rates (heterogeneous activity), with
        # the conversion base rates correlated the same way.
        self.user_click_base = rng.normal(scale=0.5, size=config.n_users)
        self.item_click_base = rng.normal(scale=0.5, size=config.n_items)
        user_base_noise = rng.normal(scale=0.5, size=config.n_users)
        item_base_noise = rng.normal(scale=0.5, size=config.n_items)
        self.user_conv_base = (
            rho * self.user_click_base + np.sqrt(1 - rho**2) * user_base_noise
        ) * 0.8
        self.item_conv_base = (
            rho * self.item_click_base + np.sqrt(1 - rho**2) * item_base_noise
        ) * 0.8

        # Zipf item popularity for exposure sampling.
        ranks = np.arange(1, config.n_items + 1, dtype=np.float64)
        popularity = ranks ** (-config.zipf_exponent)
        self.item_popularity = popularity / popularity.sum()

        # Feature-bucket edges are frozen on the calibration probe, so
        # training and online-serving features share one discretisation.
        probe = self._sample_probe()
        self.bucket_edges = self._freeze_edges(probe)
        self._unclaimed_probe: Optional[_Probe] = probe

        # Per-item conversion-delay scales (hours), drawn on a separate
        # RNG stream (seed + 303) so enabling delays never perturbs the
        # main generator stream -- delay-free datasets stay bit-exact.
        # The log-scale mixes the item's conversion base rate (dominant:
        # considered purchases attribute slowly) with independent noise,
        # recentred so the geometric-mean scale equals the configured
        # mean.  With delays disabled the scales are all zero.
        delay_rng = np.random.default_rng(config.seed + 303)
        noise_z = delay_rng.normal(size=config.n_items)
        if config.has_delays:
            base = self.item_conv_base / max(float(self.item_conv_base.std()), 1e-12)
            log_factor = config.conversion_delay_item_spread * (
                0.8 * base + 0.6 * noise_z
            )
            log_factor -= log_factor.mean()
            self.item_delay_scale = config.conversion_delay_mean_hours * np.exp(
                log_factor
            )
        else:
            self.item_delay_scale = np.zeros(config.n_items)

    def _sample_probe(self) -> _Probe:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 101)
        n = max(50_000, cfg.n_train)
        users, items, positions = _sample_exposures(
            cfg, self.item_popularity, n, rng
        )
        hidden = rng.normal(size=n)
        click = _click_affinity(self, users, items)
        return _Probe(
            users=users,
            items=items,
            positions=positions,
            hidden=hidden,
            click_affinity=click,
            conversion_affinity=_conversion_affinity(self, users, items, click),
            click_base=self.user_click_base[users] + self.item_click_base[items],
            conv_base=self.user_conv_base[users] + self.item_conv_base[items],
        )

    def _freeze_edges(self, probe: _Probe) -> Dict[str, np.ndarray]:
        users, items = probe.users, probe.items
        rng = np.random.default_rng(self.config.seed + 202)
        noise = self.config.affinity_noise
        return {
            "user_segment": _quantile_edges(self.user_click[users, 0], 16),
            "user_activity": _quantile_edges(self.user_click_base[users], 8),
            "item_category": _quantile_edges(self.item_conv[items, 0], 12),
            "item_popularity": _quantile_edges(
                self.item_popularity[items] + 1e-12 * items, 8
            ),
            "click_affinity_bucket": _quantile_edges(
                probe.click_affinity + noise * rng.normal(size=len(users)), 20
            ),
            "conv_affinity_bucket": _quantile_edges(
                probe.conversion_affinity + noise * rng.normal(size=len(users)),
                20,
            ),
        }

    def probe(self) -> _Probe:
        """The calibration probe, with its affinities computed once.

        The probe sampled with the draws serves the first calibration;
        later ones (drift rebuilds) sample it again from its own seeded
        stream.  Keeping 50k probe rows on every world would make each
        retained world megabytes heavier for a few milliseconds saved.
        """
        probe, self._unclaimed_probe = self._unclaimed_probe, None
        return probe if probe is not None else self._sample_probe()

    def check(self, config: ScenarioConfig) -> None:
        """Raise ``ValueError`` unless ``config`` shapes these draws."""
        for name in DRAW_FIELDS:
            mine, theirs = getattr(self.config, name), getattr(config, name)
            if mine != theirs:
                raise ValueError(
                    f"{name} shapes the world's draws ({mine!r} != {theirs!r}); "
                    "build a new SyntheticScenario instead"
                )


def _sample_exposures(
    config: ScenarioConfig, popularity: np.ndarray, n: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    users = rng.integers(0, config.n_users, size=n)
    items = rng.choice(config.n_items, size=n, p=popularity)
    positions = rng.integers(0, config.position_count, size=n)
    return users, items, positions


def _click_affinity(draws, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    return np.sum(draws.user_click[users] * draws.item_click[items], axis=1)


def _conversion_affinity(
    draws, users: np.ndarray, items: np.ndarray, click_affinity: np.ndarray
) -> np.ndarray:
    rho = draws.config.bias_strength
    indep = np.sum(draws.user_indep[users] * draws.item_indep[items], axis=1)
    return rho * click_affinity + np.sqrt(1 - rho**2) * indep


class SyntheticScenario:
    """A fully specified behaviour model; call :meth:`generate`.

    The scenario object itself is the "world": the online simulator
    (:mod:`repro.simulation`) queries :meth:`true_ctr` / :meth:`true_cvr`
    to roll out user sessions against models under test.

    A world is its :class:`WorldDraws` plus the intercepts calibrated on
    them for ``config``'s target rates.  ``draws`` (normally reached
    through :meth:`drifted`) reuses another world's draws, which must
    have been made for a config agreeing on every :data:`DRAW_FIELDS`
    field.
    """

    def __init__(
        self, config: ScenarioConfig, draws: Optional[WorldDraws] = None
    ) -> None:
        if draws is None:
            draws = WorldDraws(config)
        else:
            draws.check(config)
        self.config = config
        self.draws = draws
        self.user_click = draws.user_click
        self.item_click = draws.item_click
        self.user_indep = draws.user_indep
        self.item_indep = draws.item_indep
        self.user_conv = draws.user_conv
        self.item_conv = draws.item_conv
        self.user_click_base = draws.user_click_base
        self.item_click_base = draws.item_click_base
        self.user_conv_base = draws.user_conv_base
        self.item_conv_base = draws.item_conv_base
        self.item_popularity = draws.item_popularity
        self.item_delay_scale = draws.item_delay_scale
        self._bucket_edges = draws.bucket_edges
        self._calibrate()
        self.schema: FeatureSchema = paper_like_schema(
            n_users=config.n_users,
            n_items=config.n_items,
            n_positions=config.position_count,
            include_wide=config.include_wide_features,
        )

    def drifted(self, config: ScenarioConfig) -> "SyntheticScenario":
        """This world under ``config``: same draws, recalibrated intercepts.

        Bit-identical to ``SyntheticScenario(config)`` at a fraction of
        the cost -- only the intercept bisections re-run.  Raises
        ``ValueError`` naming the field when ``config`` differs from
        this world's in a field that shapes the draws (see
        :data:`DRAW_FIELDS`).
        """
        return SyntheticScenario(config, self.draws)

    # ------------------------------------------------------------------
    # True behaviour model (oracle)
    # ------------------------------------------------------------------
    def click_affinity(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Latent click affinity (the signal behind the CTR logit)."""
        return _click_affinity(self, users, items)

    def conversion_affinity(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Latent conversion affinity: a rho-mix of click affinity and an
        independent component -- the MNAR correlation, pairwise exact."""
        return _conversion_affinity(
            self, users, items, self.click_affinity(users, items)
        )

    def sample_hidden(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the per-exposure hidden confounder ``h ~ N(0, 1)``."""
        return rng.normal(size=n)

    def click_logit(
        self,
        users: np.ndarray,
        items: np.ndarray,
        positions: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Raw (uncalibrated) click logit for user-item-position triples.

        ``hidden`` is the unobserved attention confounder; ``None``
        evaluates at ``h = 0`` (the feature-conditional median).
        """
        base = self.user_click_base[users] + self.item_click_base[items]
        return self._click_logit(
            self.click_affinity(users, items), base, positions, hidden
        )

    def _click_logit(self, affinity, base, positions, hidden):
        pos_term = -self.config.position_bias * positions
        logit = self.config.logit_scale * affinity + base + pos_term
        if hidden is not None:
            logit = logit + self.config.hidden_confounder_click * hidden
        return logit

    def conversion_logit(
        self,
        users: np.ndarray,
        items: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Raw (uncalibrated) post-click conversion logit.

        Positions do not enter (conversion happens on the detail page,
        after the click), but the hidden attention confounder does --
        an attentive user both clicks more and converts more.
        """
        base = self.user_conv_base[users] + self.item_conv_base[items]
        return self._conversion_logit(
            self.conversion_affinity(users, items), base, hidden
        )

    def _conversion_logit(self, affinity, base, hidden):
        logit = self.config.logit_scale * affinity + base
        if hidden is not None:
            logit = logit + self.config.hidden_confounder_conversion * hidden
        return logit

    def action_logit(
        self,
        users: np.ndarray,
        items: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Raw micro-action (cart/favourite) logit, post-click.

        Actions sit between click and conversion on the behaviour path,
        so their affinity mixes conversion affinity (dominant -- users
        cart what they will buy) with click affinity.
        """
        click = self.click_affinity(users, items)
        conversion = _conversion_affinity(self, users, items, click)
        base = self.user_conv_base[users] + self.item_conv_base[items]
        return self._action_logit(conversion, click, base, hidden)

    def _action_logit(self, conversion_affinity, click_affinity, conv_base, hidden):
        affinity = 0.7 * conversion_affinity + 0.3 * click_affinity
        logit = self.config.logit_scale * affinity + 0.5 * conv_base
        if hidden is not None:
            logit = logit + 0.5 * self.config.hidden_confounder_conversion * hidden
        return logit

    def true_action_rate(
        self,
        users: np.ndarray,
        items: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True post-click micro-action probability."""
        return _sigmoid(self.action_logit(users, items, hidden) + self._action_intercept)

    def true_ctr(
        self,
        users: np.ndarray,
        items: np.ndarray,
        positions: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True click propensity ``p(o=1 | x, h)`` (``h=0`` when omitted)."""
        return _sigmoid(
            self.click_logit(users, items, positions, hidden) + self._ctr_intercept
        )

    def true_cvr(
        self,
        users: np.ndarray,
        items: np.ndarray,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """True post-click conversion probability ``p(r=1 | do(o=1), x, h)``."""
        return _sigmoid(
            self.conversion_logit(users, items, hidden) + self._cvr_intercept
        )

    # ------------------------------------------------------------------
    # Delayed conversion feedback (oracle delay model)
    # ------------------------------------------------------------------
    def sample_conversion_delays(
        self, items: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw click->attribution delays (hours), exponential per item."""
        if not self.config.has_delays:
            raise ValueError(
                "conversion delays are disabled "
                "(conversion_delay_mean_hours == 0)"
            )
        return rng.exponential(scale=self.item_delay_scale[items])

    def conversion_delay_cdf(
        self, items: np.ndarray, elapsed: np.ndarray
    ) -> np.ndarray:
        """``P(delay <= elapsed)`` per exposure -- the maturation
        probability that the importance-weighting delayed-feedback
        correction divides by (``w = 1 / P(delay <= elapsed)`` on
        observed positives)."""
        if not self.config.has_delays:
            raise ValueError(
                "conversion delays are disabled "
                "(conversion_delay_mean_hours == 0)"
            )
        elapsed = np.maximum(np.asarray(elapsed, dtype=np.float64), 0.0)
        return 1.0 - np.exp(-elapsed / self.item_delay_scale[items])

    # ------------------------------------------------------------------
    def _calibrate(self) -> None:
        """Calibrate the CTR, CVR and action intercepts on the probe."""
        probe = self.draws.probe()
        hidden = probe.hidden
        ctr_logits = self._click_logit(
            probe.click_affinity, probe.click_base, probe.positions, hidden
        )
        self._ctr_intercept = calibrate_intercept(ctr_logits, self.config.target_ctr)
        # Calibrate CVR *inside the click space*: weight each probe
        # exposure by its click propensity, which is the expected
        # click-space composition (this is where the hidden confounder
        # enters -- attentive exposures are over-represented in O).
        click_propensity = _sigmoid(ctr_logits + self._ctr_intercept)
        cvr_logits = self._conversion_logit(
            probe.conversion_affinity, probe.conv_base, hidden
        )
        self._cvr_intercept = calibrate_intercept(
            cvr_logits, self.config.target_cvr_given_click, weights=click_propensity
        )
        self._action_intercept = 0.0
        if self.config.include_micro_actions:
            action_logits = self._action_logit(
                probe.conversion_affinity,
                probe.click_affinity,
                probe.conv_base,
                hidden,
            )
            self._action_intercept = calibrate_intercept(
                action_logits,
                self.config.target_action_given_click,
                weights=click_propensity,
            )

    # ------------------------------------------------------------------
    # Feature engineering (what the models are allowed to see)
    # ------------------------------------------------------------------
    def features_for(
        self,
        users: np.ndarray,
        items: np.ndarray,
        positions: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Observable features for arbitrary exposure triples.

        Used both by :meth:`generate` and by the online simulator when
        serving candidate lists; bucket edges are frozen at scenario
        construction so both paths share one discretisation.
        """
        cfg = self.config
        noise = cfg.affinity_noise
        edges = self._bucket_edges
        sparse = {
            "user_id": users.astype(np.int64),
            "user_segment": _bucketize(
                self.user_click[users, 0], edges["user_segment"]
            ),
            "user_activity": _bucketize(
                self.user_click_base[users], edges["user_activity"]
            ),
            "item_id": items.astype(np.int64),
            "item_category": _bucketize(
                self.item_conv[items, 0], edges["item_category"]
            ),
            "item_popularity": _bucketize(
                self.item_popularity[items] + 1e-12 * items,
                edges["item_popularity"],
            ),
            "position": positions.astype(np.int64),
            "hour": rng.integers(0, 24, size=len(users)),
        }
        if cfg.include_wide_features:
            sparse["click_affinity_bucket"] = _bucketize(
                self.click_affinity(users, items)
                + noise * rng.normal(size=len(users)),
                edges["click_affinity_bucket"],
            )
            sparse["conv_affinity_bucket"] = _bucketize(
                self.conversion_affinity(users, items)
                + noise * rng.normal(size=len(users)),
                edges["conv_affinity_bucket"],
            )
        dense = {
            "user_hist_ctr": (
                _sigmoid(self.user_click_base[users])
                + 0.05 * rng.normal(size=len(users))
            ),
            "item_hist_cvr": (
                _sigmoid(self.item_conv_base[items])
                + 0.05 * rng.normal(size=len(users))
            ),
        }
        return sparse, dense

    # ------------------------------------------------------------------
    def generate(self) -> Tuple[InteractionDataset, InteractionDataset]:
        """Materialise the (train, test) exposure logs."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 7)
        total = cfg.n_train + cfg.n_test
        users, items, positions = _sample_exposures(
            cfg, self.item_popularity, total, rng
        )
        hidden = self.sample_hidden(total, rng)

        ctr = self.true_ctr(users, items, positions, hidden)
        cvr = self.true_cvr(users, items, hidden)
        clicks = (rng.random(total) < ctr).astype(np.int64)
        potential = (rng.random(total) < cvr).astype(np.int64)
        observed = clicks * potential

        actions = None
        if cfg.include_micro_actions:
            action_rate = self.true_action_rate(users, items, hidden)
            actions = clicks * (rng.random(total) < action_rate).astype(np.int64)

        sparse, dense = self.features_for(users, items, positions, rng)

        # Event timestamps ride a separate RNG stream (seed + 404) so
        # enabling delays leaves every other column bit-identical.
        exposure_times = conversion_times = None
        if cfg.has_delays:
            time_rng = np.random.default_rng(cfg.seed + 404)
            exposure_times = time_rng.uniform(0.0, cfg.log_span_hours, size=total)
            delays = self.sample_conversion_delays(items, time_rng)
            conversion_times = np.where(
                observed == 1, exposure_times + delays, np.nan
            )

        def build(slice_: slice) -> InteractionDataset:
            return InteractionDataset(
                name=cfg.name,
                schema=self.schema,
                sparse={k: v[slice_] for k, v in sparse.items()},
                dense={k: v[slice_] for k, v in dense.items()},
                clicks=clicks[slice_],
                conversions=observed[slice_],
                oracle_ctr=ctr[slice_],
                oracle_cvr=cvr[slice_],
                oracle_conversion=potential[slice_],
                actions=None if actions is None else actions[slice_],
                exposure_times=(
                    None if exposure_times is None else exposure_times[slice_]
                ),
                conversion_times=(
                    None if conversion_times is None else conversion_times[slice_]
                ),
            )

        train = build(slice(0, cfg.n_train))
        test = build(slice(cfg.n_train, total))
        return train, test
