"""Latent interest and sensitivity recovery under a randomized recommender.

Each user has a static latent interest vector and a scalar satisfaction
that stochastically rises or falls with the trend in slate quality: the
shift is the per-user sensitivity times the (clipped) change in best
affinity between consecutive slates.  Choices mix item affinity with
satisfaction as a boost against a constant no-choice logit, so a
sufficiently dissatisfied user effectively drops out.

The ground-truth model bakes in sensitivities drawn uniformly from
(0, 1); the learning model holds interest out as the E-step latent and
exposes sensitivity as a trainable M-step parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..behaviors import AffinityModel, ChoiceModel, ParameterRegistry, story_with_trainable_variables
from ..core import FieldSpec, Network, Value, ValueSpec, Variable
from ..dist import Normal
from ..tensor import Tensor


@dataclass(frozen=True)
class LatentSatConfig:
    population: int = 50
    interest_dim: int = 3
    slate_size: int = 4            # randomized recommender slate
    horizon: int = 40
    satisfaction_noise: float = 0.15
    no_choice_logit: float = 0.0
    item_scale: float = 1.0        # spread of the randomized slates
    interest_prior_scale: float = 1.0
    initial_satisfaction: float = 1.0
    alpha_init: float = 0.5        # learning model's starting sensitivity

    def __post_init__(self):
        if self.population < 1 or self.interest_dim < 1 or self.slate_size < 1:
            raise ValueError("population, interest_dim, slate_size must be >= 1")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.satisfaction_noise <= 0:
            raise ValueError("satisfaction_noise must be positive")
        if not 0.0 < self.alpha_init < 1.0:
            raise ValueError("alpha_init must lie in (0, 1)")


HELD_OUT = ("user_interest", "state")


def sample_true_alpha(cfg: LatentSatConfig, seed: int) -> np.ndarray:
    """Ground-truth per-user sensitivities, drawn once from Uniform(0, 1)."""
    return np.random.default_rng(seed).uniform(0.02, 0.98, cfg.population)


def build_latent_sat_story(cfg: LatentSatConfig, true_alpha: np.ndarray | None = None):
    """Returns (network, registry, held-out spec).

    With ``true_alpha`` given this is the data-generating model; without
    it, sensitivity becomes the trainable parameter "alpha" and interest
    is meant to be held out for posterior inference.
    """

    def story(registry: ParameterRegistry):
        B, d, m = cfg.population, cfg.interest_dim, cfg.slate_size
        if true_alpha is None:
            registry.create("alpha", np.full(B, cfg.alpha_init))

            def alpha():
                return registry.get("alpha")
        else:
            if np.shape(true_alpha) != (B,):
                raise ValueError(f"true_alpha must have shape ({B},)")
            fixed = Tensor(np.asarray(true_alpha, np.float64))

            def alpha():
                return fixed

        affinity = AffinityModel()
        chooser = ChoiceModel(no_choice_logit=cfg.no_choice_logit)

        user_interest = Variable("user_interest", ValueSpec(state=FieldSpec((d,))))
        slate = Variable("slate", ValueSpec(items=FieldSpec((m, d))))
        satisfaction = Variable("satisfaction", ValueSpec(value=FieldSpec(())))
        choice = Variable("choice", ValueSpec(choice=FieldSpec((), "integer")))

        def initial_interest():
            return Value(state=Normal(Tensor(np.zeros((B, d))), cfg.interest_prior_scale))

        def carry_interest(prev):
            return Value(state=prev.get("state"))

        def sample_slate():
            return Value(items=Normal(Tensor(np.zeros((B, m, d))), cfg.item_scale))

        def initial_satisfaction():
            return Value(value=Tensor(np.full(B, cfg.initial_satisfaction)))

        def next_satisfaction(sat_prev, interest_v, slate_v, slate_prev):
            interest = interest_v.get("state")
            best_now = T.reduce_max(affinity.affinities(interest, slate_v.get("items")))
            best_before = T.reduce_max(affinity.affinities(interest, slate_prev.get("items")))
            shift = T.mul(alpha(), T.clip(T.sub(best_now, best_before), -1.0, 1.0))
            return Value(value=Normal(T.add(sat_prev.get("value"), shift),
                                      cfg.satisfaction_noise))

        def make_choice(interest_v, slate_v, sat_v):
            aff = affinity.affinities(interest_v.get("state"), slate_v.get("items"))
            return Value(choice=chooser.choice(aff, extra_logit_boost=sat_v.get("value")))

        user_interest.bind_initial(initial_interest)
        user_interest.bind_kernel(carry_interest, deps=(user_interest.previous,))
        slate.bind_initial(sample_slate)
        slate.bind_kernel(sample_slate)
        satisfaction.bind_initial(initial_satisfaction)
        satisfaction.bind_kernel(next_satisfaction,
                                 deps=(satisfaction.previous, user_interest,
                                       slate, slate.previous))
        choice.bind_initial(make_choice, deps=(user_interest, slate, satisfaction))
        choice.bind_kernel(make_choice, deps=(user_interest, slate, satisfaction))

        return [user_interest, slate, satisfaction, choice]

    variables, registry = story_with_trainable_variables(story)
    return Network(variables), registry, HELD_OUT
