import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ecosim.tensor as T
from ecosim.behaviors import AffinityModel
from ecosim.core import Value
from ecosim.dist import NEG_INF, PlackettLuce, top_k
from ecosim.logprob import (LogProbError, log_probability_from_value_trajectory, observe,
                            trajectory_log_prob_rows)
from ecosim.runtime import Trajectory, execute, trajectory
from ecosim.scenarios import (CountConfig, EcosystemConfig, LatentSatConfig, PorlConfig,
                              build_count_story, build_ecosystem_story,
                              build_latent_sat_story, build_porl_story,
                              sample_true_alpha)
from ecosim.scenarios import ecosystem
from ecosim.scenarios.ecosystem import _apportion, _item_counts
from ecosim.tensor import Tape, Tensor

from stepwise_oracle import replay_slice


SMALL_PORL = dict(population=12, horizon=5, corpus_size=10, slate_size=2,
                  interest_dim=6, history_length=4)


def story_network(story: str):
    if story == "count":
        return build_count_story(CountConfig())
    if story == "porl":
        return build_porl_story(PorlConfig(**SMALL_PORL))[0]
    if story == "latent-sat":
        return build_latent_sat_story(LatentSatConfig())[0]
    return build_ecosystem_story(EcosystemConfig())[0]


@pytest.mark.parametrize("story, name, readers", [
    ("count", "count", ("count",)),
    ("porl", "user_state", ("user_state", "choice", "engagement")),
    ("porl", "consumed", ("history",)),
    ("latent-sat", "user_interest", ("user_interest", "satisfaction", "choice")),
    ("latent-sat", "choice", ()),
    ("ecosystem", "users", ("users", "slate", "choice", "utility")),
    ("ecosystem", "engagement", ("engagement", "items", "slate")),
])
def test_network_readers_of_each_story(story, name, readers):
    # a builder reads a variable in the current or the previous slice
    net = story_network(story)
    assert tuple(v.name for v in net.readers(name)) == readers


class TestPorlStory:
    def test_frozen_dynamics_keeps_interest_constant(self):
        cfg = PorlConfig(sensitivity=0.0, noise_scale=0.0, **SMALL_PORL)
        net, _, _ = build_porl_story(cfg)
        traj = trajectory(net, cfg.horizon, seed=1)
        first = traj.value("user_state", 0).get("interest").data
        for t in range(1, cfg.horizon):
            np.testing.assert_array_equal(
                traj.value("user_state", t).get("interest").data, first)

    def test_corrupted_noise_free_interest_raises(self):
        # Without noise the next interest is deterministic: a corrupted value
        # is bad data, not a low score.
        cfg = PorlConfig(noise_scale=0.0, **SMALL_PORL)
        net, _, _ = build_porl_story(cfg)
        traj = trajectory(net, cfg.horizon, 0)
        slices = [{name: traj.value(name, t) for name in traj.specs}
                  for t in range(cfg.horizon)]
        assert np.isfinite(trajectory_log_prob_rows(net, observe(net, slices),
                                                    cfg.horizon - 1).data).all()
        interest = slices[2]["user_state"].get("interest").data.copy()
        interest[1, 0] += 0.5
        slices[2]["user_state"] = Value(interest=interest)
        with pytest.raises(LogProbError, match=r"'user_state' at steps 1\.\.4: "
                                               r"deterministic field 'interest'"):
            trajectory_log_prob_rows(net, observe(net, slices), cfg.horizon - 1)

    def test_sampled_trajectory_scores_without_sentinel(self):
        cfg = PorlConfig(**SMALL_PORL)
        net, _, _ = build_porl_story(cfg)
        obs = Trajectory.from_trajectory(net, trajectory(net, cfg.horizon, 3))
        lp = float(log_probability_from_value_trajectory(net, obs, cfg.horizon - 1).data)
        assert lp > NEG_INF / 2 and np.isfinite(lp)

    def test_recorded_slate_log_prob_matches_plackett_luce(self):
        # cross-module consistency: the replayed policy distribution's score
        # of the sampled slate equals an independent sequential-softmax
        # evaluation
        cfg = PorlConfig(**SMALL_PORL)
        net, _, metrics = build_porl_story(cfg)
        obs = Trajectory.from_trajectory(net, trajectory(net, cfg.horizon, seed=5))
        var, path = metrics["policy_log_prob"]
        for t in range(cfg.horizon):
            dist = replay_slice(net, obs, t)[var].get(path)
            assert isinstance(dist, PlackettLuce)
            ranks = np.asarray(obs.value(var, t).get(path))
            recorded = dist.log_prob(ranks).data
            assert recorded.shape == (cfg.population,)
            logits = dist.logits.data
            manual = np.zeros(cfg.population)
            for b in range(cfg.population):
                remaining = list(range(cfg.corpus_size))
                for i in ranks[b]:
                    row = logits[b]
                    mx = max(row[j] for j in remaining)
                    manual[b] += row[i] - (mx + math.log(
                        sum(math.exp(row[j] - mx) for j in remaining)))
                    remaining.remove(i)
            np.testing.assert_allclose(recorded, manual, atol=1e-12, rtol=0)

    def test_oracle_policy_dominates_random(self):
        results = []
        for seed in range(5):
            cfg = PorlConfig(population=100, horizon=20)
            oracle_net, _, _ = build_porl_story(cfg, policy="oracle")
            random_net, _, _ = build_porl_story(cfg, policy="random")
            r_oracle = trajectory(oracle_net, cfg.horizon, seed).value(
                "metrics", -1).get("cumulative_reward").data.mean()
            r_random = trajectory(random_net, cfg.horizon, seed).value(
                "metrics", -1).get("cumulative_reward").data.mean()
            results.append(r_oracle >= r_random)
        assert all(results)

    def _oracle_inputs(self, lead, seed):
        # three topics and two quality levels: many exactly tied scores
        cfg = PorlConfig(**SMALL_PORL)
        rng = np.random.default_rng(seed)
        n, d = cfg.corpus_size, cfg.interest_dim
        topics = rng.integers(0, 3, size=lead + (n,))
        quality = rng.integers(0, 2, size=lead + (n,)) * 0.5
        interest = rng.normal(size=lead + (d,))
        return cfg, topics, quality, interest

    @pytest.mark.parametrize("lead", [(12,), (3, 12)])
    def test_oracle_ranks_equal_stable_argsort_with_ties(self, lead):
        cfg, topics, quality, interest = self._oracle_inputs(lead, seed=len(lead))
        net, _, _ = build_porl_story(cfg, policy="oracle")
        oracle = net.by_name["slate"].initial_fn
        got = np.asarray(oracle(Value(interest=interest), Value(topic=topics),
                                Value(quality=quality)).get("doc_ranks"))
        features = cfg.feature_scale * np.eye(cfg.interest_dim)[topics]
        score = -np.linalg.norm(features - interest[..., None, :], axis=-1) + quality
        expected = np.argsort(-score, axis=-1, kind="stable")[..., :cfg.slate_size]
        rows = score.reshape(-1, cfg.corpus_size)
        assert all(len(np.unique(row)) <= 6 for row in rows)  # ties are exercised
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_oracle_nan_score_raises(self):
        cfg, topics, quality, interest = self._oracle_inputs((12,), seed=0)
        quality[4, 2] = np.nan
        net, _, _ = build_porl_story(cfg, policy="oracle")
        with pytest.raises(ValueError, match="non-finite"):
            net.by_name["slate"].initial_fn(Value(interest=interest), Value(topic=topics),
                                            Value(quality=quality))

    def test_oracle_trajectory_digest_unchanged(self):
        # sha256 over every field of a seed-3 oracle trajectory, pinned
        # under stream layout v3 and re-pinned when the derivable
        # corpus.features field was dropped, then when history and consumed
        # began recording topics and engagement (each time, the other
        # fields' bytes did not move)
        cfg = PorlConfig(**SMALL_PORL)
        net, _, _ = build_porl_story(cfg, policy="oracle")
        traj = trajectory(net, cfg.horizon, 3)
        h = hashlib.sha256()
        for name in sorted(traj.specs):
            for t in range(traj.steps):
                value = traj.value(name, t)
                for path in value.paths:
                    payload = value.get(path)
                    arr = payload.data if isinstance(payload, Tensor) else np.asarray(payload)
                    h.update(f"{name}|{path}|{t}|{arr.dtype.str}|{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == \
            "90b345b21c8b581003a39782c4d7fdc7daa63bb07cc20b03da08277138a394d9"

    def test_learned_policy_equals_the_one_hot_formulas(self, monkeypatch):
        # The policy pools its history as a topic histogram and scores
        # topics with one matmul.  Both equal the one-hot formulas they
        # replace, to 1e-12, on one step and on the time-batched window of a
        # sampled trajectory whose history has filled and evicted.
        cfg = PorlConfig(**{**SMALL_PORL, "horizon": 8})
        net, registry, _ = build_porl_story(cfg)
        obs = Trajectory.from_trajectory(net, trajectory(net, cfg.horizon, seed=2))
        p, d = registry.as_arrays(), cfg.interest_dim
        pooled_seen, concat = [], T.concat

        def spy(tensors, axis=-1):  # the policy's input: [pooled history, pooled engagement]
            pooled_seen.append(tensors[0].data)
            return concat(tensors, axis)

        monkeypatch.setattr(T, "concat", spy)
        for steps in (cfg.horizon - 1, slice(None)):
            history = obs.window("history", steps)
            topics = np.asarray(obs.window("corpus_topics", steps).get("topic"))
            logits = net.by_name["slate"].kernel_fn(
                history, Value(topic=topics)).get("doc_ranks").logits.data
            topic = np.asarray(history.get("topic"))
            eng, mask = history.get("engagement").data, history.get("mask").data
            weight = (eng - cfg.reward_base) * cfg.record_scale
            records = cfg.feature_scale * np.eye(d)[topic] * weight[..., None]
            denom = np.maximum(mask.sum(axis=-1), 1.0)[..., None]
            pooled = ((records * mask[..., None]) @ p["item_embedding"]).sum(axis=-2) / denom
            np.testing.assert_allclose(pooled_seen.pop(), pooled, rtol=0, atol=1e-12)
            pooled_eng = (eng * mask).sum(axis=-1, keepdims=True) / denom
            belief = np.tanh(np.concatenate([pooled, pooled_eng], axis=-1) @ p["policy_w1"]
                             + p["policy_b1"])
            projection = belief @ p["policy_w2"] + p["policy_b2"]
            topic_scores = (cfg.feature_scale * p["item_embedding"]
                            * projection[..., None, :]).sum(axis=-1)
            np.testing.assert_allclose(
                logits, np.take_along_axis(topic_scores, topics, -1), rtol=0, atol=1e-12)
        assert (np.asarray(obs.value("history", -1).get("mask").data) == 1).all()

    @pytest.mark.parametrize("only", [None, [("slate", "doc_ranks")]], ids=["all", "slate"])
    @pytest.mark.parametrize("field", ["corpus_topics", "history"])
    def test_out_of_range_observed_topic_raises(self, field, only):
        # A topic of -1 must not wrap to the last topic, in a corpus lookup
        # or in the history's topic histogram.
        cfg = PorlConfig(population=4, horizon=3, corpus_size=8, interest_dim=4,
                         history_length=2)
        net, _, _ = build_porl_story(cfg)
        traj = trajectory(net, cfg.horizon, 0)
        slices = [{name: traj.value(name, t) for name in traj.specs} for t in range(3)]
        if field == "corpus_topics":
            topic = np.array(slices[2]["corpus_topics"].get("topic"))
            topic[1, 3] = -1
            slices[2]["corpus_topics"] = Value(topic=topic)
        else:  # consumed at step 1 enters the history at step 2
            for t, name, at in ((1, "consumed", np.s_[1]), (2, "history", np.s_[1, -1])):
                value = slices[t][name]
                topic = np.array(value.get("topic"))
                topic[at] = -1
                slices[t][name] = Value.of({**dict(value.items()), "topic": topic})
        with pytest.raises(LogProbError, match=r"at steps 1\.\.2: .*out of range") as err:
            trajectory_log_prob_rows(net, observe(net, slices), 2, only=only)
        assert "leading axes" not in str(err.value)

    @pytest.mark.parametrize("bad", [-1, 8], ids=["negative", "corpus_size"])
    def test_out_of_range_observed_doc_raises(self, bad):
        # A slate item outside the corpus must not wrap to another item's
        # topic when a builder other than the slate's reads it.
        cfg = PorlConfig(population=4, horizon=3, corpus_size=8, interest_dim=4,
                         slate_size=2, history_length=2)
        net, _, _ = build_porl_story(cfg)
        traj = trajectory(net, cfg.horizon, 0)
        slices = [{name: traj.value(name, t) for name in traj.specs} for t in range(3)]
        ranks = np.array(slices[2]["slate"].get("doc_ranks"))
        ranks[1, 0] = bad
        slices[2]["slate"] = Value(doc_ranks=ranks)
        with pytest.raises(LogProbError, match=r"at steps 1\.\.2: .*out of range") as err:
            trajectory_log_prob_rows(net, observe(net, slices), 2, only=[("choice", "choice")])
        message = str(err.value)
        assert f"doc_ranks: index {bad} out of range" in message
        assert "leading axes" not in message

    @pytest.mark.parametrize("only", [None, [("slate", "doc_ranks")]], ids=["all", "slate"])
    @pytest.mark.parametrize("bad", [-1, 2], ids=["negative", "slate_size"])
    def test_out_of_range_observed_choice_raises(self, bad, only):
        # A choice of -1 must not wrap to the last slate slot, and a choice
        # of k is bad data, not a builder that fails to broadcast.  The
        # choice's own Categorical (all) and a builder reading the choice
        # (slate) both report it as out-of-range data.
        cfg = PorlConfig(population=4, horizon=3, corpus_size=8, interest_dim=4,
                         slate_size=2, history_length=2)
        net, _, _ = build_porl_story(cfg)
        traj = trajectory(net, cfg.horizon, 0)
        slices = [{name: traj.value(name, t) for name in traj.specs} for t in range(3)]
        choice = np.array(slices[2]["choice"].get("choice"))
        choice[1] = bad
        slices[2]["choice"] = Value(choice=choice)
        with pytest.raises(LogProbError,
                           match=r"at steps 1\.\.2: .*observed data out of range") as err:
            trajectory_log_prob_rows(net, observe(net, slices), 2, only=only)
        message = str(err.value)
        assert "choice" in message and f"index {bad} out of range" in message
        assert "leading axes" not in message

    def test_paper_footnote_scale_smoke(self):
        # k=2, d=20, B=1000, T=100: one trajectory runs and its slates score
        # finite at every step.  A slate's log-prob is at most 0, so the sum
        # over steps is finite exactly when every step's term is.
        cfg = PorlConfig(population=1000, horizon=100, slate_size=2,
                         interest_dim=20)
        net, _, metrics = build_porl_story(cfg)
        obs = Trajectory.from_trajectory(net, trajectory(net, cfg.horizon, seed=0))
        policy = metrics["policy_log_prob"]
        lp = trajectory_log_prob_rows(net, obs, cfg.horizon - 1, only=[policy]).data
        assert lp.shape == (1000,)
        assert np.isfinite(lp).all()

    def test_slate_size_validation(self):
        with pytest.raises(ValueError, match="slate_size"):
            PorlConfig(corpus_size=3, slate_size=4)


class TestLatentSatStory:
    def _nets(self, cfg, seed=0):
        alpha = sample_true_alpha(cfg, seed)
        net, _, held = build_latent_sat_story(cfg, true_alpha=alpha)
        return net, alpha, held

    def test_identical_consecutive_slates_leave_satisfaction_mean_unchanged(self):
        cfg = LatentSatConfig(population=6, horizon=4, interest_dim=2)
        net, alpha, _ = self._nets(cfg)
        # freeze the slate variable: same items every step
        items = np.random.default_rng(0).normal(size=(6, cfg.slate_size, 2))
        slate = net.by_name["slate"]
        slate.bind_initial(lambda: __import__("ecosim").core.Value(items=items))
        slate.bind_kernel(lambda prev: __import__("ecosim").core.Value(
            items=prev.get("items")), deps=(slate.previous,))
        from ecosim.core import Network
        net2 = Network(list(net.variables))
        obs = Trajectory.from_trajectory(net2, trajectory(net2, cfg.horizon, seed=1))
        for t in range(1, cfg.horizon):
            dist = replay_slice(net2, obs, t)["satisfaction"].get("value")
            prev = obs.value("satisfaction", t - 1).get("value").data
            np.testing.assert_allclose(dist.loc.data, prev, atol=1e-12, rtol=0)

    def test_strictly_improving_slates_raise_satisfaction(self):
        # interest pinned at the origin, slate items halving toward it, alpha=1,
        # zero-ish noise: best affinity strictly improves, satisfaction climbs
        cfg = LatentSatConfig(population=4, horizon=6, interest_dim=2,
                              satisfaction_noise=1e-9)
        net, _, _ = self._nets(cfg)
        from ecosim.core import Network, Value
        interest = net.by_name["user_interest"]
        interest.bind_initial(lambda: Value(state=np.zeros((4, 2))))
        slate = net.by_name["slate"]
        start = np.random.default_rng(1).normal(size=(4, cfg.slate_size, 2)) + 3.0
        slate.bind_initial(lambda: Value(items=start))
        slate.bind_kernel(lambda prev: Value(items=prev.get("items").data * 0.5),
                          deps=(slate.previous,))
        sat = net.by_name["satisfaction"]
        alpha_one = np.ones(4)
        net2, _, _ = build_latent_sat_story(cfg, true_alpha=alpha_one)
        sat2 = net2.by_name["satisfaction"]
        vars2 = [interest, slate, sat2, net2.by_name["choice"]]
        # rebind satisfaction deps onto the overridden interest/slate variables
        sat2.bind_kernel(sat2.kernel_fn.__wrapped__ if hasattr(sat2.kernel_fn, "__wrapped__")
                         else sat2.kernel_fn,
                         deps=(sat2.previous, interest, slate, slate.previous))
        choice2 = net2.by_name["choice"]
        choice2.bind_initial(choice2.initial_fn, deps=(interest, slate, sat2))
        choice2.bind_kernel(choice2.kernel_fn, deps=(interest, slate, sat2))
        traj = trajectory(Network(vars2), cfg.horizon, seed=2)
        sats = np.stack([traj.value("satisfaction", t).get("value").data
                         for t in range(cfg.horizon)])
        assert np.all(np.diff(sats, axis=0) > 0)

    def test_low_satisfaction_user_drops_out(self):
        # satisfaction -10 with zero-affinity items: choosing any item has
        # negligible probability against the no-choice logit
        from ecosim.behaviors import ChoiceModel
        from ecosim.tensor import Tensor
        chooser = ChoiceModel(no_choice_logit=0.0)
        m = 4
        d = chooser.choice(Tensor(np.zeros((1, m))),
                           extra_logit_boost=Tensor(np.array([-10.0])))
        p_items = sum(np.exp(d.log_prob(np.array([i])).data[0]) for i in range(m))
        assert p_items < 1e-3

    def test_alpha_prior_within_unit_interval(self):
        cfg = LatentSatConfig(population=64)
        alpha = sample_true_alpha(cfg, seed=3)
        assert np.all((alpha > 0) & (alpha < 1))

    def test_sampled_trajectory_scores_and_holdout_round_trip(self):
        cfg = LatentSatConfig(population=8, horizon=6, interest_dim=2)
        net, alpha, held = self._nets(cfg)
        traj = trajectory(net, cfg.horizon, seed=4)
        full = Trajectory.from_trajectory(net, traj)
        lp = float(log_probability_from_value_trajectory(net, full, cfg.horizon - 1).data)
        assert lp > NEG_INF / 2
        partial = Trajectory.from_trajectory(net, traj, hold_out=[held])
        z = traj.value("user_interest", 0).get("state").data
        filled = partial.inject(*held, [z] * cfg.horizon)
        lp2 = float(log_probability_from_value_trajectory(net, filled, cfg.horizon - 1).data)
        assert abs(lp - lp2) < 1e-9


SMALL_ECO = dict(num_users=30, num_providers=6, num_items=18, horizon=8,
                 num_runs=3, interest_dim=4, num_communities=2,
                 community_sizes=(2.0, 1.0))


class TestEcosystemStory:
    def test_item_counts_sum_exactly_to_budget(self):
        cfg = EcosystemConfig(**SMALL_ECO)
        net, _ = build_ecosystem_story(cfg)
        traj = trajectory(net, cfg.horizon, seed=0)
        for t in range(cfg.horizon):
            prov = np.asarray(traj.value("items", t).get("provider"))
            assert prov.shape == (3, 18)
            counts = np.stack([np.bincount(p, minlength=6) for p in prov])
            assert np.all(counts.sum(axis=1) == 18)
            assert np.all(counts >= 1)

    def test_engagement_nonnegative_always(self):
        cfg = EcosystemConfig(**SMALL_ECO)
        net, _ = build_ecosystem_story(cfg)
        traj = trajectory(net, cfg.horizon, seed=1)
        for t in range(cfg.horizon):
            assert np.all(traj.value("engagement", t).get("value").data >= 0)

    def test_memoryless_discount_equals_last_period_consumption(self):
        cfg = dataclasses.replace(EcosystemConfig(**SMALL_ECO),
                                  engagement_discount=1e-12, boost_cap=0.0)
        net, _ = build_ecosystem_story(cfg)
        traj = trajectory(net, cfg.horizon, seed=2)
        t = cfg.horizon - 1
        ranks = np.asarray(traj.value("slate", t).get("ranks"))
        ch = np.asarray(traj.value("choice", t).get("choice"))
        prov = np.asarray(traj.value("items", t).get("provider"))
        counts = np.zeros((3, 6))
        for r in range(3):
            chosen_items = ranks[r, np.arange(30), ch[r]]
            np.add.at(counts[r], prov[r, chosen_items], 1.0)
        np.testing.assert_allclose(
            traj.value("engagement", t).get("value").data, counts, atol=1e-9)

    def test_zero_cap_slate_is_the_affinity_top_k(self):
        # With cap 0 the boost and its jitter vanish: every slate holds the
        # k items nearest each user, nearest first.
        cfg = dataclasses.replace(EcosystemConfig(**SMALL_ECO), boost_cap=0.0)
        net, _ = build_ecosystem_story(cfg)
        traj = trajectory(net, cfg.horizon, seed=3)
        for t in range(cfg.horizon):
            u = traj.value("users", t).get("interest").data
            f = traj.value("items", t).get("features").data
            aff = -np.linalg.norm(u[:, :, None, :] - f[:, None, :, :], axis=-1)
            ranks = np.asarray(traj.value("slate", t).get("ranks"))
            served = np.take_along_axis(aff, ranks, axis=-1)
            assert np.all(np.diff(served, axis=-1) <= 1e-9)
            rest = aff.copy()
            np.put_along_axis(rest, ranks, -np.inf, axis=-1)
            assert np.all(served[..., -1] >= rest.max(axis=-1) - 1e-9)

    def test_single_provider_policies_identical_welfare(self):
        cfg = EcosystemConfig(num_users=20, num_providers=1, num_items=10,
                              horizon=6, num_runs=2, interest_dim=3,
                              num_communities=1, community_sizes=(1.0,),
                              slate_size=4, boost_cap=1.2)
        net_b, _ = build_ecosystem_story(cfg)
        net_m, _ = build_ecosystem_story(dataclasses.replace(cfg, boost_cap=0.0))
        wb = trajectory(net_b, cfg.horizon, seed=4).value(
            "metrics", cfg.horizon - 1).get("welfare").data
        wm = trajectory(net_m, cfg.horizon, seed=4).value(
            "metrics", cfg.horizon - 1).get("welfare").data
        np.testing.assert_array_equal(wb, wm)

    def test_sampled_trajectory_scores_without_sentinel(self):
        cfg = EcosystemConfig(**SMALL_ECO)
        net, _ = build_ecosystem_story(cfg)
        obs = Trajectory.from_trajectory(net, trajectory(net, cfg.horizon, 5))
        lp = float(log_probability_from_value_trajectory(net, obs, cfg.horizon - 1).data)
        assert lp > NEG_INF / 2 and np.isfinite(lp)

    @pytest.mark.parametrize("bad", [-1, 8], ids=["negative", "slate_size"])
    def test_out_of_range_observed_choice_raises(self, bad):
        # A choice of -1 must not wrap to the last slate slot and read as a
        # mismatch of a deterministic field; the first builder that reads
        # the choice reports it as out-of-range data.
        cfg = EcosystemConfig(**dict(SMALL_ECO, horizon=3))
        net, _ = build_ecosystem_story(cfg)
        traj = trajectory(net, cfg.horizon, seed=0)
        slices = [{name: traj.value(name, t) for name in traj.specs} for t in range(3)]
        choice = np.array(slices[2]["choice"].get("choice"))
        choice[1, 4] = bad
        slices[2]["choice"] = Value(choice=choice)
        with pytest.raises(LogProbError, match=re.escape(
                f"at steps 1..2: observed data out of range "
                f"(choice: index {bad} out of range [0, 8))")):
            trajectory_log_prob_rows(net, observe(net, slices), 2, only=[("utility", "value")])

    def test_run_batching_equals_split_runs(self):
        cfg = EcosystemConfig(**SMALL_ECO)
        net, _ = build_ecosystem_story(cfg)
        batched = execute(net, cfg.horizon - 1, seed=6)
        welfare = batched["metrics"].get("welfare").data
        for row in range(3):
            solo_cfg = dataclasses.replace(cfg, num_runs=1)
            solo_net, _ = build_ecosystem_story(solo_cfg)
            solo = execute(solo_net, cfg.horizon - 1, seed=6, row_offset=row)
            np.testing.assert_array_equal(solo["metrics"].get("welfare").data,
                                          welfare[row:row + 1])

    def test_stacked_caps_equal_each_cap_run_alone(self):
        # One batch of (cap, run id) rows: each row's final slice is bit-
        # identical to its cap's story run alone at that run's row offset.
        cfg = EcosystemConfig(**SMALL_ECO)
        caps, ids = [0.0, 1.2, 0.0, 0.6, 1.2], [2, 0, 0, 2, 1]
        net, _ = build_ecosystem_story(dataclasses.replace(cfg, num_runs=5), boost_caps=caps)
        stacked = execute(net, cfg.horizon - 1, seed=6, row_offset=np.array(ids))
        for row, (cap, run_id) in enumerate(zip(caps, ids)):
            solo_net, _ = build_ecosystem_story(
                dataclasses.replace(cfg, num_runs=1, boost_cap=cap))
            solo = execute(solo_net, cfg.horizon - 1, seed=6, row_offset=run_id)
            for name, value in solo.items():
                for path, payload in value.items():
                    got = stacked[name].get(path)
                    np.testing.assert_array_equal(
                        np.asarray(getattr(got, "data", got))[row:row + 1],
                        np.asarray(getattr(payload, "data", payload)), err_msg=name)

    def test_slate_ranked_a_row_at_a_time_equals_the_whole_batch(self, monkeypatch):
        # The default sizes rank the slate in groups of rows; groups of one
        # row give the same bytes when sampled, and when the time-batched
        # scorer replays the builder on broadcast (carried) users.
        cfg = dataclasses.replace(EcosystemConfig(**SMALL_ECO), boost_cap=1.2)
        net, _ = build_ecosystem_story(cfg)
        whole = trajectory(net, cfg.horizon, seed=7)
        lp = log_probability_from_value_trajectory(
            net, Trajectory.from_trajectory(net, whole), cfg.horizon - 1).data
        monkeypatch.setattr(ecosystem, "_SLATE_SCORES", 1)
        net, _ = build_ecosystem_story(cfg)
        grouped = trajectory(net, cfg.horizon, seed=7)
        for t in range(cfg.horizon):
            for name, path in (("slate", "ranks"), ("metrics", "welfare")):
                got, want = (np.asarray(T.as_array(traj.value(name, t).get(path)))
                             for traj in (grouped, whole))
                assert got.tobytes() == want.tobytes(), (name, t)
        assert lp.tobytes() == log_probability_from_value_trajectory(
            net, Trajectory.from_trajectory(net, grouped), cfg.horizon - 1).data.tobytes()

    @pytest.mark.parametrize("caps", [[0.0, 1.2], [0.0, -1.0, 1.2], [0.0, np.nan, 1.2]])
    def test_bad_per_row_caps_raise(self, caps):
        cfg = EcosystemConfig(**SMALL_ECO)
        with pytest.raises(ValueError, match="boost_caps must be 3 caps >= 0"):
            build_ecosystem_story(cfg, boost_caps=caps)


def full_slate_utility_mean(u, f, ranks, choice):
    """The utility mean as the full-slate affinity's chosen column."""
    idx = ranks.reshape(ranks.shape[:-2] + (-1, 1))
    idx = np.broadcast_to(idx, idx.shape[:-1] + f.shape[-1:])
    feats = T.reshape(T.take_along(Tensor(f), idx, axis=-2), ranks.shape + f.shape[-1:])
    aff = AffinityModel().affinities(Tensor(u), feats)
    return T.squeeze(T.take_along(aff, choice[..., None], -1), -1).data


class TestChosenItemUtility:
    """``consume_utility`` computes only the chosen item's distance; it must
    equal, bit for bit, the chosen column of the full-slate affinity."""

    @pytest.mark.parametrize("d", [1, 3, 8, 10, 17, 130])
    @pytest.mark.parametrize("lead", [(3,), (4, 3)], ids=["R", "T,R"])
    def test_bit_identical_to_full_slate_formula(self, d, lead):
        U, M, k = 9, 12, 5
        cfg = EcosystemConfig(num_users=U, num_providers=3, num_items=M, num_runs=3,
                              interest_dim=d, num_communities=1, community_sizes=(1.0,),
                              slate_size=k, horizon=2)
        net, _ = build_ecosystem_story(cfg)
        rng = np.random.default_rng(d)
        u = rng.normal(size=lead + (U, d)) * 3.0
        f = rng.normal(size=lead + (M, d)) * 3.0
        ranks = np.argsort(rng.uniform(size=lead + (U, M)), axis=-1)[..., :k]
        choice = rng.integers(0, k, size=lead + (U,))
        consume_utility = net.by_name["utility"].kernel_fn
        out = consume_utility(Value(interest=Tensor(u)), Value(features=Tensor(f)),
                              Value(ranks=ranks), Value(choice=choice))
        mean = out.get("value").loc.data
        assert mean.shape == lead + (U,)
        assert np.array_equal(mean, full_slate_utility_mean(u, f, ranks, choice))


def one_batch_choice_logits(u, f, ranks, scale):
    """The choice's logits as one batch: one gather and one distance op."""
    flat = T.take_rows(f, ranks.reshape(ranks.shape[:-2] + (-1,)))
    feats = T.reshape(flat, ranks.shape + f.shape[-1:])
    return AffinityModel(scale=scale).affinities(u, feats)


class TestGroupedChoice:
    """``make_choice`` gathers and scores the slate a group of rows at a
    time; every logit has the bits of the one-batch computation."""

    U, M, k = 9, 12, 5

    def inputs(self, lead, d, broadcast_users=False):
        cfg = EcosystemConfig(num_users=self.U, num_providers=3, num_items=self.M,
                              num_runs=lead[-1], interest_dim=d, num_communities=1,
                              community_sizes=(1.0,), slate_size=self.k, horizon=2)
        rng = np.random.default_rng(d)
        u = rng.normal(size=lead[-1:] + (self.U, d)) * 3.0
        u = np.broadcast_to(u, lead + u.shape[1:]) if broadcast_users else rng.normal(
            size=lead + (self.U, d)) * 3.0
        f = rng.normal(size=lead + (self.M, d)) * 3.0
        ranks = np.argsort(rng.uniform(size=lead + (self.U, self.M)), axis=-1)[..., :self.k]
        return cfg, u, f, ranks

    @pytest.mark.parametrize("d", [3, 10, 17])
    @pytest.mark.parametrize("lead, broadcast_users", [
        ((1,), False), ((4,), False), ((5,), False), ((13,), False),
        ((3, 5), True)], ids=["1", "4", "5", "13", "T,R-carried-users"])
    def test_groups_of_4_rows_equal_one_batch(self, lead, broadcast_users, d, monkeypatch):
        cfg, u, f, ranks = self.inputs(lead, d, broadcast_users)
        monkeypatch.setattr(ecosystem, "_CHOICE_ELEMENTS", 4 * self.U * self.k * d)
        make_choice = build_ecosystem_story(cfg)[0].by_name["choice"].kernel_fn
        got = make_choice(Value(interest=Tensor(u)), Value(features=Tensor(f)),
                          Value(ranks=ranks)).get("choice").logits
        want = one_batch_choice_logits(Tensor(u), Tensor(f), ranks, cfg.choice_sharpness)
        assert got.shape == lead + (self.U, self.k)
        assert got.data.tobytes() == want.data.tobytes()

    def test_taped_users_take_one_batch_with_their_gradient(self):
        cfg, u, f, ranks = self.inputs((5,), 10)
        make_choice = build_ecosystem_story(cfg)[0].by_name["choice"].kernel_fn
        grads = []
        for choice_of in (make_choice, None):
            tape = Tape()
            users = tape.watch(u)
            if choice_of is None:
                logits = one_batch_choice_logits(users, Tensor(f), ranks, cfg.choice_sharpness)
            else:
                logits = choice_of(Value(interest=users), Value(features=Tensor(f)),
                                   Value(ranks=ranks)).get("choice").logits
            grads.append((logits.data, tape.backward(T.reduce_sum(logits))[users].data))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*grads))

    def test_choice_grouped_a_row_at_a_time_equals_the_whole_batch(self, monkeypatch):
        # Sampled, and replayed by the time-batched scorer on carried users.
        cfg = dataclasses.replace(EcosystemConfig(**SMALL_ECO), boost_cap=1.2)
        results = []
        for elements in (1, 2**62):
            monkeypatch.setattr(ecosystem, "_CHOICE_ELEMENTS", elements)
            net, _ = build_ecosystem_story(cfg)
            traj = trajectory(net, cfg.horizon, seed=7)
            lp = trajectory_log_prob_rows(net, Trajectory.from_trajectory(net, traj),
                                          cfg.horizon - 1)
            results.append([lp.data.tobytes()] + [
                np.asarray(T.as_array(traj.value(name, t).get(path))).tobytes()
                for t in range(cfg.horizon)
                for name, path in (("choice", "choice"), ("metrics", "welfare"))])
        assert results[0] == results[1]


def stable_top_k(score, k):
    return np.argsort(-score, axis=-1, kind="stable")[..., :k]


class TestTopK:
    """``top_k`` against the stable full sort it replaces."""

    def check(self, score, k):
        expected = stable_top_k(score, k)
        got = top_k(score.copy(), k)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_random_scores(self):
        rng = np.random.default_rng(0)
        for k in (1, 3, 8):
            self.check(rng.normal(size=(50, 20)), k)

    def test_strided_scores(self):
        rng = np.random.default_rng(3)
        for score in (rng.normal(size=(50, 40))[:, ::2], rng.normal(size=(8, 6, 20))[::2],
                      rng.normal(size=(20, 30)).T):
            self.check(score, 3)

    def test_exact_ties_take_lowest_index(self):
        rng = np.random.default_rng(1)
        score = rng.integers(0, 4, size=(40, 12)).astype(np.float64)
        for k in (1, 2, 5, 12):
            self.check(score, k)

    def test_duplicated_columns_and_ties_at_the_kth_place(self):
        base = np.random.default_rng(2).normal(size=(6, 5))
        score = base[:, [0, 1, 1, 2, 3, 1, 4, 2]]  # column 1 three times, 2 twice
        for k in range(1, 9):
            self.check(score, k)
        # Four candidates tie for the 3rd place.
        row = np.array([[1.0, 5.0, 1.0, 3.0, 1.0, 1.0]])
        np.testing.assert_array_equal(top_k(row.copy(), 3), [[1, 3, 0]])
        self.check(row, 3)

    def test_signed_zeros_tie(self):
        score = np.array([[-0.0, 0.0, -1.0, 0.0, -0.0],
                          [0.0, -0.0, -0.0, 0.0, -2.0]])
        for k in range(1, 6):
            self.check(score, k)
        np.testing.assert_array_equal(top_k(score.copy(), 2), [[0, 1], [0, 1]])

    def test_k_of_one_and_k_of_all(self):
        score = np.random.default_rng(3).integers(-2, 3, size=(9, 7)).astype(np.float64)
        self.check(score, 1)
        self.check(score, 7)

    def test_leading_batch_shape(self):
        rng = np.random.default_rng(4)
        score = np.round(rng.normal(size=(3, 10, 16)), 1)  # (R, U, M), with ties
        got = top_k(score.copy(), 4)
        assert got.shape == (3, 10, 4)
        np.testing.assert_array_equal(got, stable_top_k(score, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, bad):
        score = np.zeros((2, 3, 4))
        score[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            top_k(score, 2)


def apportion_one_row(raw: np.ndarray, total: int) -> np.ndarray:
    """The per-row largest-remainder rule the vectorized ``_apportion``
    must reproduce: remainders fill the deficit in descending order, ties
    to the lower index; then the first largest count above 1 gives one
    back until the row sums to ``total``."""
    raw = np.maximum(np.asarray(raw, np.float64), 1e-12)
    n = raw.size
    quota = raw * total / raw.sum()
    counts = np.maximum(1, np.floor(quota).astype(np.int64))
    remainder = quota - np.floor(quota)
    order = np.lexsort((np.arange(n), -remainder))
    i = 0
    while counts.sum() < total:
        counts[order[i % n]] += 1
        i += 1
    while counts.sum() > total:
        candidates = np.flatnonzero(counts > 1)
        j = candidates[np.argmax(counts[candidates])]
        counts[j] -= 1
    return counts


@st.composite
def engagement_cases(draw):
    providers = draw(st.integers(1, 24))
    items = draw(st.integers(providers, 4 * providers))
    runs = draw(st.integers(1, 5))
    engagement = draw(arrays(np.float64, (runs, providers),
                             elements=st.floats(0.0, 1e4, allow_subnormal=False)))
    kappa = draw(st.floats(1e-3, 10.0))
    return engagement, items, kappa


class TestApportionment:
    @settings(max_examples=200, deadline=None)
    @given(engagement_cases())
    # Clamping the three small providers to 1 leaves an excess of 2.
    @example((np.array([[300.0, 0.0, 0.0, 0.0]]), 4, 1.0))
    def test_item_counts_match_the_per_row_rule(self, case):
        engagement, items, kappa = case
        providers = engagement.shape[-1]
        cfg = EcosystemConfig(num_providers=providers, num_items=items, num_communities=1,
                              community_sizes=(1.0,), slate_size=1,
                              items_engagement_rate=kappa)
        raw = np.maximum(1.0, np.rint(kappa * engagement))
        expected = np.stack([apportion_one_row(row, items) for row in raw])
        got = _item_counts(engagement, cfg)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        # Stacked on a leading time axis, each row apportions the same.
        np.testing.assert_array_equal(
            _item_counts(np.stack([engagement, engagement[::-1]]), cfg),
            np.stack([expected, expected[::-1]]))

    def test_exact_total_and_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(2, 12)
            total = int(rng.integers(n, 60))
            raw = rng.uniform(0.0, 10.0, n)
            counts = _apportion(raw, total)
            assert counts.sum() == total
            assert counts.min() >= 1

    def test_proportionality_on_easy_case(self):
        counts = _apportion(np.array([4.0, 3.0, 2.0, 1.0]), 20)
        np.testing.assert_array_equal(counts, [8, 6, 4, 2])

    def test_zero_engagement_rate_gives_equal_item_counts(self):
        cfg = EcosystemConfig(**{**SMALL_ECO, "items_engagement_rate": 0.0})
        e = np.random.default_rng(1).uniform(0, 50, (3, cfg.num_providers))
        counts = _item_counts(e, cfg)
        np.testing.assert_array_equal(
            counts, np.tile(_apportion(np.ones(cfg.num_providers), cfg.num_items), (3, 1)))

    def test_item_counts_deterministic(self):
        cfg = EcosystemConfig(**SMALL_ECO)
        e = np.random.default_rng(1).uniform(0, 50, (3, 6))
        np.testing.assert_array_equal(_item_counts(e, cfg), _item_counts(e, cfg))
