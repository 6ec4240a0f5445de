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
each row's result is bit-identical to running it alone.  The sweep lays
its rows out run-major, (run, cap), so a batch holds every cap's copy of
a few runs, and each draw computes a run's numbers once and copies them
to the run's other rows.

The slate and the choice, whose (users, items) distances and (users,
slate, dim) features are a step's largest temporaries, compute them a
group of rows at a time (``_SLATE_SCORES``, ``_CHOICE_ELEMENTS``).  Each
value is computed per element, so a group's bits are those of the whole
batch, and those temporaries do not grow with the batch.  A choice whose
inputs are on a gradient tape is computed as one batch.
"""

from __future__ import annotations

import math
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
        for name in ("num_users", "num_providers", "num_items", "interest_dim",
                     "num_communities"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("center_scale", "provider_scale", "user_scale", "item_scale",
                     "utility_noise"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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
        if not all(math.isfinite(x) and x > 0 for x in self.community_sizes):
            raise ValueError("community_sizes must be finite and positive")
        if not self.jitter_scale >= 0:
            raise ValueError("jitter_scale must be >= 0")
        # kappa = 0 gives every provider the same item count.
        if self.items_engagement_rate is not None and not self.items_engagement_rate >= 0:
            raise ValueError("items_engagement_rate must be >= 0")
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


METRIC_PATHS = {"welfare": ("metrics", "welfare")}


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


def _flat(idx: np.ndarray, m: int) -> np.ndarray:
    """Flat positions of ``idx`` (..., n) in the rows of an (..., m) array
    with the same leading shape: ``a.take(_flat(idx, m))`` is
    ``np.take_along_axis(a, idx, -1)``, as one flat take."""
    rows = idx.size // idx.shape[-1]
    return idx + np.arange(0, rows * m, m).reshape(idx.shape[:-1] + (1,))


# The (users, items) scores the slate ranks per group of rows, about 0.5 MB:
# each pass over a group's scores, and each of top-k's, then stays in
# cache instead of streaming the whole batch's scores through memory.
_SLATE_SCORES = 2**16


# The (users, slate, dim) features the choice gathers per group of rows,
# about 0.5 MB: the gathered features, their differences from the users
# and the squares are each that large, however many rows the batch holds.
_CHOICE_ELEMENTS = 2**16


def _slate_ranks(u: np.ndarray, f: np.ndarray, adjust: np.ndarray, k: int) -> np.ndarray:
    """The top-k items of ``adjust - |u - f|`` for users (n, U, d), items
    (n, M, d) and per-item adjustments (n, M), as (n, U, k) indices."""
    # adjust - sqrt(max((|u|^2 + |f|^2) - 2 u.f, 0)) in one buffer.
    score = np.add(np.sum(u * u, axis=-1)[..., :, None],
                   np.sum(f * f, axis=-1)[..., None, :])
    cross = np.matmul(u, np.swapaxes(f, -1, -2))
    cross *= 2.0
    score -= cross
    np.maximum(score, 0.0, out=score)
    np.sqrt(score, out=score)
    np.subtract(adjust[..., None, :], score, out=score)
    return top_k(score, k)


def build_ecosystem_story(cfg: EcosystemConfig, boost_caps=None):
    """Returns (network, metric (variable, path) pairs).

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
        # Constant weights and scales are read-only views of one scalar,
        # with the same bits as filled arrays.  No builder's speed should
        # rest on which arrays it frees: ``cli.main`` pins the allocator's
        # thresholds, so step temporaries reuse the heap either way.
        weights = np.broadcast_to(1.0 / P, (R, U, P))
        scales = np.broadcast_to(cfg.user_scale, (R, U, P, d))
        return Value(interest=GaussianMixture(weights, locs, scales))

    def publish_items(providers_v, counts: np.ndarray):
        # Each row's counts sum to M, so one repeat lays out every row.
        providers_of = np.tile(np.arange(P, dtype=np.int64), counts.size // P)
        assignment = np.repeat(providers_of, counts.ravel()).reshape(
            counts.shape[:-1] + (M,))
        cores = providers_v.get("interest").data
        loc = cores.reshape(-1, d).take(_flat(assignment, P), axis=0)
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
        per_item = boost.take(_flat(assignment, P))
        return per_item + u * cfg.jitter_scale * np.abs(per_item)

    def _top_k_slate(users_v, items_v, adjust: np.ndarray):
        u = users_v.get("interest").data
        f = items_v.get("features").data
        lead = np.broadcast_shapes(u.shape[:-2], f.shape[:-2], adjust.shape[:-1])
        rows = math.prod(lead)
        u = np.broadcast_to(u, lead + (U, d)).reshape(rows, U, d)
        f = np.broadcast_to(f, lead + (M, d)).reshape(rows, M, d)
        adjust = np.broadcast_to(adjust, lead + (M,)).reshape(rows, M)
        step = max(1, _SLATE_SCORES // (U * M))
        ranks = np.concatenate([_slate_ranks(u[i:i + step], f[i:i + step],
                                             adjust[i:i + step], k)
                                for i in range(0, rows, step)])
        return Value(ranks=ranks.reshape(lead + (U, k)))

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
        """The item id each user consumed, (..., U); a choice off the slate raises."""
        slot = T.check_index(choice_v.get("choice"), k, "choice")
        return np.asarray(slate_v.get("ranks")).take(_flat(slot[..., None], k))[..., 0]

    def _slate_affinities(targets, features, ranks: np.ndarray) -> Tensor:
        # One flat row gather for the slate, (..., U*k, d), viewed as
        # (..., U, k, d).
        flat = T.take_rows(features, ranks.reshape(ranks.shape[:-2] + (-1,)))
        feats = T.reshape(flat, ranks.shape + flat.shape[-1:])
        return choice_affinity.affinities(targets, feats)

    def make_choice(users_v, items_v, slate_v):
        targets, features = users_v.get("interest"), items_v.get("features")
        ranks = np.asarray(slate_v.get("ranks"))
        if targets.tape is not None or features.tape is not None:
            # A gradient flows through: one batch, one tape node per op.
            return Value(choice=chooser.choice(_slate_affinities(targets, features, ranks)))
        lead = ranks.shape[:-2]
        rows = math.prod(lead)
        u = np.broadcast_to(targets.data, lead + (U, d)).reshape(rows, U, d)
        f = features.data.reshape(rows, M, d)
        ranks = ranks.reshape(rows, U, k)
        aff = np.empty((rows, U, k))
        step = max(1, _CHOICE_ELEMENTS // (U * k * d))
        for i in range(0, rows, step):
            aff[i:i + step] = _slate_affinities(Tensor(u[i:i + step]), Tensor(f[i:i + step]),
                                                ranks[i:i + step]).data
        return Value(choice=chooser.choice(Tensor(aff.reshape(lead + (U, k)))))

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
        chosen_provider = assignment.take(_flat(_chosen_item(slate_v, choice_v), M))
        lead = chosen_provider.shape[:-1]
        # Integer counts per (row, provider), so exact in float64.
        counts = np.bincount(_flat(chosen_provider, P).reshape(-1),
                             minlength=math.prod(lead) * P)
        return counts.reshape(lead + (P,)).astype(np.float64)

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
