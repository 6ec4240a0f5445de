"""Provider-feedback ecosystem with an exposure-balancing boost policy.

Providers sit in communities; users cluster around providers.  Each
period every provider publishes items near its interest vector, with the
item count an increasing (affine-then-clipped, min 1) function of its
discounted cumulative engagement, renormalized so the period total is
fixed.  A myopic recommender serves each user its top-k items by
affinity; the boosted policy adds a per-provider score adjustment,
capped at magnitude L, that redistributes exposure toward under-served
providers (plus a small uniform jitter proportional to the boost).
Welfare is the population-mean cumulative utility.

A batch row is one (boost cap, run) pair: R rows execute as one
vectorized population, each clipping its boost at its own cap and
drawing its numbers under its run id (:class:`ecosim.rng.RngStream`).
Every cap's copy of run r thus samples the same ecosystem, and however
the rows are split across tasks and workers, or stacked across caps,
each row's result is bit-identical to running it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..behaviors import AffinityModel, ChoiceModel
from ..core import FieldSpec, Network, Value, ValueSpec, Variable
from ..dist import GaussianMixture, Normal, Uniform, top_k
from ..tensor import Tensor


@dataclass(frozen=True)
class EcosystemConfig:
    num_users: int = 200
    num_providers: int = 20
    num_items: int = 100           # items per period, fixed total
    horizon: int = 100
    num_runs: int = 10
    interest_dim: int = 10
    num_communities: int = 4
    community_sizes: tuple[float, ...] = (4.0, 3.0, 2.0, 1.0)  # relative
    center_scale: float = 4.0      # spread of community centers
    provider_scale: float = 1.1    # provider spread within a community
    user_scale: float = 0.3        # user spread around their core provider
    item_scale: float = 0.25       # item spread around the provider vector
    utility_noise: float = 0.3
    choice_sharpness: float = 0.8  # MNL temperature: choices discriminate less
                                   # finely than utility values them
    engagement_discount: float = 0.92  # gamma
    slate_size: int = 8
    boost_cap: float = 0.0         # L; 0 recovers the myopic policy
    boost_gain: float = 8.0        # beta = gain / steady-state mean engagement
    jitter_scale: float = 0.1      # jitter ~ U(0, jitter_scale * |boost|)
    items_engagement_rate: float | None = None  # kappa; None = auto

    def __post_init__(self):
        if self.boost_cap < 0:
            raise ValueError("boost_cap must be >= 0")
        if not 0.0 < self.engagement_discount < 1.0:
            raise ValueError("engagement_discount must lie in (0, 1)")
        if self.num_items < self.num_providers:
            raise ValueError("need at least one item per provider")
        if self.num_providers < self.num_communities:
            raise ValueError("need at least one provider per community")
        if len(self.community_sizes) != self.num_communities:
            raise ValueError("community_sizes must have num_communities entries")
        if not 1 <= self.slate_size <= self.num_items:
            raise ValueError("slate_size must be in [1, num_items]")
        if self.horizon < 1 or self.num_runs < 1:
            raise ValueError("horizon and num_runs must be >= 1")

    @property
    def steady_engagement(self) -> float:
        # Each user consumes one item per period, so total discounted
        # engagement settles near num_users / (1 - gamma) across providers.
        return self.num_users / (self.num_providers * (1.0 - self.engagement_discount))

    @property
    def kappa(self) -> float:
        if self.items_engagement_rate is not None:
            return self.items_engagement_rate
        return self.num_items / (self.num_providers * self.steady_engagement)


METRIC_PATHS = {"welfare": "metrics.welfare"}


def _community_assignment(cfg: EcosystemConfig) -> np.ndarray:
    sizes = np.asarray(cfg.community_sizes, np.float64)
    counts = _apportion(sizes, cfg.num_providers)
    return np.repeat(np.arange(cfg.num_communities), counts)


def _apportion(raw: np.ndarray, total: int) -> np.ndarray:
    """Integer counts proportional to each row of ``raw`` (..., n), each
    >= 1, each row summing to ``total`` (>= n).

    Largest-remainder apportionment with deterministic lowest-index
    tie-breaking, then bounded fixups to restore the exact total: while a
    row has too many, its first largest count gives one back.  That count
    is above 1, since a row of n ones would sum to at most ``total``.
    """
    raw = np.maximum(np.asarray(raw, np.float64), 1e-12)
    n = raw.shape[-1]
    quota = raw * total / raw.sum(axis=-1, keepdims=True)
    floor = np.floor(quota)
    counts = np.maximum(1, floor.astype(np.int64)).reshape(-1, n)
    # Rank of each entry by descending remainder, ties to the lower index.
    order = np.argsort(-(quota - floor).reshape(-1, n), axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(n), axis=-1)
    deficit = np.maximum(total - counts.sum(axis=-1, keepdims=True), 0)
    # As a loop over ``order[i % n]`` would: each gets deficit // n, and the
    # first deficit % n by rank (all of the deficit, which is below n) one more.
    counts += deficit // n + (ranks < deficit % n)
    excess = counts.sum(axis=-1) - total
    while (over := np.flatnonzero(excess > 0)).size:
        counts[over, np.argmax(counts[over], axis=-1)] -= 1
        excess[over] -= 1
    return counts.reshape(raw.shape)


def _item_counts(engagement: np.ndarray, cfg: EcosystemConfig) -> np.ndarray:
    """Per-provider item counts for each run, (..., providers)."""
    return _apportion(np.maximum(1.0, np.rint(cfg.kappa * engagement)), cfg.num_items)


def build_ecosystem_story(cfg: EcosystemConfig, boost_caps=None):
    """Returns (network, metric paths).

    The slate ranks items by affinity plus the capped engagement-balancing
    boost; at cap 0 it is the myopic pure-affinity top-k.  Every row's cap
    is ``cfg.boost_cap`` unless ``boost_caps`` gives one per row
    (``cfg.num_runs`` of them).
    """
    R, U, P, M = cfg.num_runs, cfg.num_users, cfg.num_providers, cfg.num_items
    caps = np.full(R, cfg.boost_cap) if boost_caps is None else np.asarray(
        boost_caps, np.float64)
    if caps.shape != (R,) or not (caps >= 0).all():  # NaN fails too
        raise ValueError(f"boost_caps must be {R} caps >= 0, got {caps!r}")
    row_caps = caps[:, None]
    C, d, k = cfg.num_communities, cfg.interest_dim, cfg.slate_size
    gamma = cfg.engagement_discount
    beta = cfg.boost_gain / cfg.steady_engagement
    community = _community_assignment(cfg)
    affinity = AffinityModel()
    choice_affinity = AffinityModel(scale=cfg.choice_sharpness)
    chooser = ChoiceModel()

    centers = Variable("centers", ValueSpec(value=FieldSpec((C, d))))
    providers = Variable("providers", ValueSpec(interest=FieldSpec((P, d))))
    users = Variable("users", ValueSpec(interest=FieldSpec((U, d))))
    engagement = Variable("engagement", ValueSpec(value=FieldSpec((P,))))
    items = Variable("items", ValueSpec(
        provider=FieldSpec((M,), "integer"), features=FieldSpec((M, d))))
    jitter = Variable("jitter", ValueSpec(u=FieldSpec((M,))))
    slate = Variable("slate", ValueSpec(ranks=FieldSpec((U, k), "integer")))
    choice = Variable("choice", ValueSpec(choice=FieldSpec((U,), "integer")))
    utility = Variable("utility", ValueSpec(value=FieldSpec((U,))))
    metrics = Variable("metrics", ValueSpec(welfare=FieldSpec(())))

    def sample_centers():
        return Value(value=Normal(Tensor(np.zeros((R, C, d))), cfg.center_scale))

    def carry(field):
        return lambda prev: Value(**{field: prev.get(field)})

    def sample_providers(centers_v):
        loc = centers_v.get("value").data[:, community, :]
        return Value(interest=Normal(Tensor(loc), cfg.provider_scale))

    def sample_users(providers_v):
        cores = providers_v.get("interest").data
        locs = np.broadcast_to(cores[:, None, :, :], (R, U, P, d))
        weights = np.full((R, U, P), 1.0 / P)
        scales = np.full((R, U, P, d), cfg.user_scale)
        return Value(interest=GaussianMixture(weights, locs, scales))

    def publish_items(providers_v, counts: np.ndarray):
        # Each row's counts sum to M, so one repeat lays out every row.
        providers_of = np.tile(np.arange(P, dtype=np.int64), counts.size // P)
        assignment = np.repeat(providers_of, counts.ravel()).reshape(
            counts.shape[:-1] + (M,))
        cores = providers_v.get("interest").data
        loc = np.take_along_axis(cores, assignment[..., None], axis=-2)
        return Value(provider=assignment,
                     features=Normal(Tensor(loc), cfg.item_scale))

    def initial_items(providers_v):
        counts = np.tile(_apportion(np.ones(P), M), (R, 1))
        return publish_items(providers_v, counts)

    def next_items(providers_v, engagement_v):
        counts = _item_counts(engagement_v.get("value").data, cfg)
        return publish_items(providers_v, counts)

    def sample_jitter():
        return Value(u=Uniform((R, M)))

    def _boost_per_item(engagement_prev: np.ndarray | None,
                        assignment: np.ndarray, u: np.ndarray) -> np.ndarray:
        # A cap-0 row clips to -0.0 or 0.0 and adds the +0.0 jitter, so its
        # adjustments are the +0.0 of the unboosted shortcut.
        if not caps.any() or engagement_prev is None:
            return np.zeros(assignment.shape)
        gap = engagement_prev.mean(axis=-1, keepdims=True) - engagement_prev
        boost = np.clip(beta * gap, -row_caps, row_caps)
        per_item = np.take_along_axis(boost, assignment, axis=-1)
        return per_item + u * cfg.jitter_scale * np.abs(per_item)

    def _top_k_slate(users_v, items_v, adjust: np.ndarray):
        u = users_v.get("interest").data
        f = items_v.get("features").data
        # adjust - sqrt(max((|u|^2 + |f|^2) - 2 u.f, 0)) in one buffer.
        score = np.add(np.sum(u * u, axis=-1)[..., :, None],
                       np.sum(f * f, axis=-1)[..., None, :])
        cross = np.matmul(u, np.swapaxes(f, -1, -2))
        cross *= 2.0
        score -= cross
        np.maximum(score, 0.0, out=score)
        np.sqrt(score, out=score)
        np.subtract(adjust[..., None, :], score, out=score)
        return Value(ranks=top_k(score, k))

    def initial_slate(users_v, items_v, jitter_v):
        adjust = _boost_per_item(None, np.asarray(items_v.get("provider")),
                                 jitter_v.get("u").data)
        return _top_k_slate(users_v, items_v, adjust)

    def next_slate(users_v, items_v, jitter_v, engagement_prev):
        adjust = _boost_per_item(engagement_prev.get("value").data,
                                 np.asarray(items_v.get("provider")),
                                 jitter_v.get("u").data)
        return _top_k_slate(users_v, items_v, adjust)

    def _chosen_item(slate_v, choice_v) -> np.ndarray:
        """The item id each user consumed, (..., U)."""
        ranks = np.asarray(slate_v.get("ranks"))
        return np.take_along_axis(
            ranks, np.asarray(choice_v.get("choice"))[..., None], axis=-1)[..., 0]

    def make_choice(users_v, items_v, slate_v):
        # One flat row gather for the whole slate, (..., U*k, d), viewed as
        # (..., U, k, d).
        ranks = np.asarray(slate_v.get("ranks"))
        flat = T.take_rows(items_v.get("features"), ranks.reshape(ranks.shape[:-2] + (-1,)))
        feats = T.reshape(flat, ranks.shape + flat.shape[-1:])
        aff = choice_affinity.affinities(users_v.get("interest"), feats)
        return Value(choice=chooser.choice(aff))

    def consume_utility(users_v, items_v, slate_v, choice_v):
        # Only the chosen item's distance: the same sub/mul/sum over one
        # d-vector as the full-slate affinity, so bit-identical to taking
        # the chosen column of it, at 1/k of the work.
        feats = T.take_rows(items_v.get("features"), _chosen_item(slate_v, choice_v))
        mean = T.squeeze(affinity.affinities(users_v.get("interest"),
                                             T.expand_dims(feats, -2)), -1)
        return Value(value=Normal(mean, cfg.utility_noise))

    def _consumption_counts(items_v, slate_v, choice_v) -> np.ndarray:
        assignment = np.asarray(items_v.get("provider"))
        chosen_provider = np.take_along_axis(assignment, _chosen_item(slate_v, choice_v),
                                             axis=-1)
        rows = chosen_provider.reshape(-1, chosen_provider.shape[-1])
        counts = np.zeros((rows.shape[0], P))
        np.add.at(counts, (np.arange(rows.shape[0])[:, None], rows), 1.0)
        return counts.reshape(chosen_provider.shape[:-1] + (P,))

    def initial_engagement(items_v, slate_v, choice_v):
        return Value(value=Tensor(_consumption_counts(items_v, slate_v, choice_v)))

    def next_engagement(engagement_prev, items_v, slate_v, choice_v):
        counts = _consumption_counts(items_v, slate_v, choice_v)
        return Value(value=Tensor(gamma * engagement_prev.get("value").data + counts))

    def initial_metric(utility_v):
        return Value(welfare=T.reduce_mean(utility_v.get("value"), axis=-1))

    def accumulate_metric(metrics_v, utility_v):
        return Value(welfare=T.add(metrics_v.get("welfare"),
                                   T.reduce_mean(utility_v.get("value"), axis=-1)))

    centers.bind_initial(sample_centers)
    centers.bind_kernel(carry("value"), deps=(centers.previous,))
    providers.bind_initial(sample_providers, deps=(centers,))
    providers.bind_kernel(carry("interest"), deps=(providers.previous,))
    users.bind_initial(sample_users, deps=(providers,))
    users.bind_kernel(carry("interest"), deps=(users.previous,))
    items.bind_initial(initial_items, deps=(providers,))
    items.bind_kernel(next_items, deps=(providers, engagement.previous))
    jitter.bind_initial(sample_jitter)
    jitter.bind_kernel(sample_jitter)
    slate.bind_initial(initial_slate, deps=(users, items, jitter))
    slate.bind_kernel(next_slate, deps=(users, items, jitter, engagement.previous))
    choice.bind_initial(make_choice, deps=(users, items, slate))
    choice.bind_kernel(make_choice, deps=(users, items, slate))
    utility.bind_initial(consume_utility, deps=(users, items, slate, choice))
    utility.bind_kernel(consume_utility, deps=(users, items, slate, choice))
    engagement.bind_initial(initial_engagement, deps=(items, slate, choice))
    engagement.bind_kernel(next_engagement,
                           deps=(engagement.previous, items, slate, choice))
    metrics.bind_initial(initial_metric, deps=(utility,))
    metrics.bind_kernel(accumulate_metric, deps=(metrics.previous, utility))

    net = Network([centers, providers, users, engagement, items, jitter,
                   slate, choice, utility, metrics])
    return net, dict(METRIC_PATHS)
