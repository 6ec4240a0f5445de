"""Partially observable slate recommendation with a trainable policy.

Users carry a latent topic-interest vector that drifts toward the topics
of high-quality consumed items and away from low-quality ones.  The
recommender sees only a finite history of consumed items and their
engagement; it embeds that history, maps it through one hidden layer to
a belief state, scores the current corpus, and emits a Plackett-Luce
slate whose log-probability drives REINFORCE training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..behaviors import (AffinityModel, ChoiceModel,
                         ControlledLinearGaussianStateModel,
                         FiniteHistoryEstimator, ParameterRegistry)
from ..core import FieldSpec, Network, Value, ValueSpec, Variable
from ..dist import Categorical, Normal, PlackettLuce
from ..rng import RngStream
from ..tensor import Tensor


@dataclass(frozen=True)
class PorlConfig:
    population: int = 100          # users simulated in parallel (= trajectories)
    interest_dim: int = 20         # number of topics, d
    corpus_size: int = 50          # items resampled each period
    slate_size: int = 2
    horizon: int = 20
    history_length: int = 15
    sensitivity: float = 0.05      # pull of consumed items on interest
    noise_scale: float = 0.03      # interest dynamics noise
    choice_sharpness: float = 0.7  # affinity scale inside the user choice model
    feature_scale: float = 4.0     # magnitude of topic feature vectors
    quality_spread: float = 0.5    # per-topic quality means span [-spread, +spread]
    quality_scale: float = 0.3     # per-item quality noise around the topic mean
    reward_base: float = 4.0
    reward_quality_gain: float = 2.0
    reward_affinity_gain: float = 2.0   # lift: gain * (affinity + sqrt(d + feature_scale^2))
    reward_noise: float = 1.0
    record_scale: float = 0.5      # history weight of a consumed topic: centered engagement * this
    hidden_width: int = 32         # at least interest_dim, the item embedding's width

    def __post_init__(self):
        for name in ("population", "interest_dim", "corpus_size", "history_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("quality_scale", "reward_noise"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.noise_scale < 0:  # 0: noise-free interest dynamics
            raise ValueError("noise_scale must be >= 0")
        if self.hidden_width < self.interest_dim:
            raise ValueError("hidden_width must be >= interest_dim")
        if not 1 <= self.slate_size <= self.corpus_size:
            raise ValueError("slate_size must be in [1, corpus_size]")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")


METRIC_PATHS = {
    "reward": ("metrics", "cumulative_reward"),
    "policy_log_prob": ("slate", "doc_ranks"),
}


def _topic_quality_means(cfg: PorlConfig) -> np.ndarray:
    # Two topic groups: the first half skews high quality, the rest low.
    means = np.full(cfg.interest_dim, -cfg.quality_spread)
    means[: cfg.interest_dim // 2] = cfg.quality_spread
    return means


def build_porl_story(cfg: PorlConfig, param_seed: int = 0):
    """Returns (network, parameter registry, metric (variable, path) pairs).

    The recommender is the trainable policy.  Its initial weights are
    scaled normals from keyed streams, ``RngStream(param_seed, "init",
    <parameter name>)``, so each parameter depends only on ``param_seed``
    and its own name and shape: widening ``hidden_width`` adds columns to
    ``policy_w1`` and leaves ``item_embedding`` as it was.
    """
    registry = ParameterRegistry()
    B, d, n, k = cfg.population, cfg.interest_dim, cfg.corpus_size, cfg.slate_size
    hidden = cfg.hidden_width

    def normals(name: str, scale: float, shape: tuple[int, int]) -> np.ndarray:
        # Keyed by the parameter's name; entry (r, c) depends on (r, c) only.
        return scale * RngStream(param_seed, "init", name).normals(shape)

    # Identity-pathway initialization: the item embedding is d wide and
    # starts near the identity, and the tanh layer starts in its
    # near-linear regime with proj(h) ~ pooled history embedding, so
    # consumption histograms influence scores from the first step.
    emb_init = normals("item_embedding", 0.1, (d, d))
    emb_init += np.eye(d) / max(cfg.feature_scale, 1.0)
    w1_init = normals("policy_w1", 0.05, (d + 1, hidden))
    w1_init[:d, :d] += 0.5 * np.eye(d)
    w2_init = normals("policy_w2", 0.05, (hidden, d))
    w2_init[:d, :d] += 2.0 * np.eye(d)
    registry.create("item_embedding", emb_init)
    registry.create("policy_w1", w1_init)
    registry.create("policy_b1", np.zeros(hidden))
    registry.create("policy_w2", w2_init)
    registry.create("policy_b2", np.zeros(d))

    topic_means = _topic_quality_means(cfg)
    affinity = AffinityModel()
    choice_affinity = AffinityModel(scale=cfg.choice_sharpness)
    user_choice = ChoiceModel()
    interest_model = ControlledLinearGaussianStateModel(cfg.sensitivity, cfg.noise_scale)
    history_buf = FiniteHistoryEstimator(cfg.history_length)

    corpus_topics = Variable("corpus_topics", ValueSpec(topic=FieldSpec((n,), "integer")))
    corpus = Variable("corpus", ValueSpec(quality=FieldSpec((n,))))
    user_state = Variable("user_state", ValueSpec(interest=FieldSpec((d,))))
    history = Variable("history", ValueSpec(
        topic=FieldSpec((cfg.history_length,), "integer"),
        engagement=FieldSpec((cfg.history_length,)),
        mask=FieldSpec((cfg.history_length,))))
    slate = Variable("slate", ValueSpec(doc_ranks=FieldSpec((k,), "integer")))
    choice = Variable("choice", ValueSpec(choice=FieldSpec((), "integer")))
    engagement = Variable("engagement", ValueSpec(value=FieldSpec(())))
    consumed = Variable("consumed", ValueSpec(
        topic=FieldSpec((), "integer"), engagement=FieldSpec(())))
    metrics = Variable("metrics", ValueSpec(cumulative_reward=FieldSpec(())))

    def sample_topics():
        return Value(topic=Categorical(Tensor(np.zeros(d)), (B, n)))

    feature_rows = cfg.feature_scale * np.eye(d)

    def topic_of(value, docs=None) -> np.ndarray:
        """``value``'s topics, each checked to lie in [0, d), at the
        corpus indices ``docs`` (checked to lie in [0, n)) if given."""
        topic = T.check_index(value.get("topic"), d, "topic")
        if docs is None:
            return topic
        return T._take_last(topic, T.check_index(docs, n, "doc_ranks"))

    def item_features(topics_v, docs) -> Tensor:
        """``feature_scale · one_hot(topic)`` of the items ``docs`` (..., m)
        indexes, (..., m, d): derived, never recorded."""
        return Tensor(feature_rows[topic_of(topics_v, docs)])

    def build_corpus(topics_v):
        return Value(quality=Normal(Tensor(topic_means[topic_of(topics_v)]),
                                    cfg.quality_scale))

    def initial_interest():
        return Value(interest=Normal(Tensor(np.zeros((B, d))), 1.0))

    def learned_slate(history_v, topics_v):
        # Σ feature_scale · one_hot(topic) · weight over the history: one
        # topic histogram per row, times item_embedding
        eng, mask = history_v.get("engagement").data, history_v.get("mask").data
        lead = mask.shape[:-1]
        denom = np.maximum(mask.sum(axis=-1), 1.0)
        weight = cfg.feature_scale * ((eng - cfg.reward_base) * cfg.record_scale) * mask
        cells = T._flat_index(topic_of(history_v), lead + (d,), len(lead))
        hist = np.bincount(cells.ravel(), weights=weight.ravel(),
                           minlength=math.prod(lead) * d)
        embedding = registry.get("item_embedding")
        pooled_feats = T.div(T.matmul(Tensor(hist.reshape(lead + (d,))), embedding),
                             Tensor(denom[..., None]))
        pooled_eng = (eng * mask).sum(axis=-1) / denom
        policy_in = T.concat([pooled_feats, Tensor(pooled_eng[..., None])], axis=-1)
        belief = T.tanh(T.add(T.matmul(policy_in, registry.get("policy_w1")),
                              registry.get("policy_b1")))
        projection = T.add(T.matmul(belief, registry.get("policy_w2")),
                           registry.get("policy_b2"))
        # (feature_scale · item_embedding) · projection, at each item's topic
        topic_scores = T.squeeze(T.matmul(T.mul(embedding, cfg.feature_scale),
                                          T.expand_dims(projection, -1)), -1)
        scores = T.take_along(topic_scores, topic_of(topics_v), -1)
        return Value(doc_ranks=PlackettLuce(scores, k))

    def make_choice(state_v, slate_v, topics_v):
        slate_feats = item_features(topics_v, np.asarray(slate_v.get("doc_ranks")))
        aff = choice_affinity.affinities(state_v.get("interest"), slate_feats)
        return Value(choice=user_choice.choice(aff))

    def _chosen(choice_v, slate_v):
        """The chosen item's corpus index, (..., 1); a choice outside the
        slate raises rather than wrapping to another slot."""
        slot = T.check_index(choice_v.get("choice"), k, "choice")
        return T._take_last(np.asarray(slate_v.get("doc_ranks")), slot[..., None])

    offset = np.sqrt(d + cfg.feature_scale**2)

    def engage(choice_v, slate_v, topics_v, corpus_v, state_v):
        doc = _chosen(choice_v, slate_v)
        feats = item_features(topics_v, doc)
        q = T.squeeze(T.take_along(corpus_v.get("quality"), doc, -1), -1)
        match = T.add(T.squeeze(affinity.affinities(state_v.get("interest"), feats), -1),
                      offset)
        mean = T.add(T.add(T.mul(q, cfg.reward_quality_gain),
                           T.mul(match, cfg.reward_affinity_gain)),
                     cfg.reward_base)
        return Value(value=Normal(mean, cfg.reward_noise))

    def consume(choice_v, slate_v, topics_v, engagement_v):
        # the learned policy weights each history topic by its centered
        # engagement: a per-topic engagement estimate, not a bare count
        return Value(topic=topic_of(topics_v, _chosen(choice_v, slate_v))[..., 0],
                     engagement=engagement_v.get("value"))

    def next_interest(state_v, choice_v, slate_v, topics_v, corpus_v):
        doc = _chosen(choice_v, slate_v)
        feats = item_features(topics_v, doc)
        q = T.take_along(corpus_v.get("quality"), doc, -1)
        prev = state_v.get("interest")
        control = T.mul(q, T.sub(T.squeeze(feats, -2), prev))
        return Value(interest=interest_model.next_state(prev, control))

    def initial_history():
        return history_buf.initial_state(consumed.spec, B)

    def initial_metric(engagement_v):
        return Value(cumulative_reward=T.relu(engagement_v.get("value")))

    def accumulate_metric(metrics_v, engagement_v):
        return Value(cumulative_reward=T.add(metrics_v.get("cumulative_reward"),
                                             T.relu(engagement_v.get("value"))))

    corpus_topics.bind_initial(sample_topics)
    corpus_topics.bind_kernel(sample_topics)
    corpus.bind_initial(build_corpus, deps=(corpus_topics,))
    corpus.bind_kernel(build_corpus, deps=(corpus_topics,))
    user_state.bind_initial(initial_interest)
    user_state.bind_kernel(next_interest, deps=(user_state.previous, choice, slate,
                                                corpus_topics, corpus))
    history.bind_initial(initial_history)
    history.bind_kernel(history_buf.push, deps=(history.previous, consumed.previous))
    slate.bind_initial(learned_slate, deps=(history, corpus_topics))
    slate.bind_kernel(learned_slate, deps=(history, corpus_topics))
    choice.bind_initial(make_choice, deps=(user_state, slate, corpus_topics))
    choice.bind_kernel(make_choice, deps=(user_state.previous, slate, corpus_topics))
    engagement.bind_initial(engage, deps=(choice, slate, corpus_topics, corpus,
                                          user_state))
    engagement.bind_kernel(engage, deps=(choice, slate, corpus_topics, corpus,
                                         user_state.previous))
    consumed.bind_initial(consume, deps=(choice, slate, corpus_topics, engagement))
    consumed.bind_kernel(consume, deps=(choice, slate, corpus_topics, engagement))
    metrics.bind_initial(initial_metric, deps=(engagement,))
    metrics.bind_kernel(accumulate_metric, deps=(metrics.previous, engagement))

    return Network([corpus_topics, corpus, user_state, history, slate, choice,
                    engagement, consumed, metrics]), registry, dict(METRIC_PATHS)
