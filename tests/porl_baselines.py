"""porl with a baseline recommender in place of the learned policy, for tests.

``"random"`` draws uniform Plackett-Luce slates from the history and the
corpus topics, which it ignores.  ``"oracle"`` cheats: it ranks the
corpus by affinity plus quality against the latent interest and takes the
top k, a dominance baseline with no learning.  Both rebind ``slate`` on
the learned story's network and rebuild the network, so the evaluation
orders follow the new dependencies.
"""

import numpy as np

import ecosim.tensor as T
from ecosim.behaviors import AffinityModel, ParameterRegistry
from ecosim.core import Network, Value
from ecosim.dist import PlackettLuce, top_k
from ecosim.scenarios import PorlConfig, build_porl_story
from ecosim.tensor import Tensor


def porl_story(cfg: PorlConfig, policy: str = "learned"):
    """``build_porl_story(cfg)`` with ``policy``'s slate: (network,
    registry, metric paths).  A baseline trains nothing, so its registry
    is empty."""
    net, registry, metrics = build_porl_story(cfg)
    if policy == "learned":
        return net, registry, metrics
    B, d, n, k = cfg.population, cfg.interest_dim, cfg.corpus_size, cfg.slate_size
    v = net.by_name
    slate = v["slate"]
    if policy == "random":
        def random_slate(history_v, topics_v):
            return Value(doc_ranks=PlackettLuce(Tensor(np.zeros((B, n))), k))

        slate.bind_initial(random_slate, deps=(v["history"], v["corpus_topics"]))
        slate.bind_kernel(random_slate, deps=(v["history"], v["corpus_topics"]))
    elif policy == "oracle":
        feature_rows = cfg.feature_scale * np.eye(d)

        def oracle_slate_from(interest_v, topics_v, corpus_v):
            topic = T.check_index(topics_v.get("topic"), d, "topic")
            aff = AffinityModel().affinities(interest_v.get("interest"),
                                             Tensor(feature_rows[topic]))
            return Value(doc_ranks=top_k(aff.data + corpus_v.get("quality").data, k))

        user_state, topics, corpus = v["user_state"], v["corpus_topics"], v["corpus"]
        slate.bind_initial(oracle_slate_from, deps=(user_state, topics, corpus))
        slate.bind_kernel(oracle_slate_from, deps=(user_state.previous, topics, corpus))
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return Network(net.variables), ParameterRegistry(), metrics
