import itertools
import math

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.behaviors import ParameterRegistry
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import NEG_INF, Categorical, Normal
from ecosim.logprob import (LogProbError, ObservedTrajectory,
                            log_probability_from_value_trajectory,
                            trajectory_log_prob_rows)
from ecosim.runtime import trajectory
from ecosim.tensor import Tape, Tensor

from conftest import relative_error


def count_network():
    count = Variable("count", ValueSpec(n=FieldSpec((), "integer")))
    count.bind_initial(lambda: Value(n=np.zeros(1, np.int64)))
    count.bind_kernel(lambda prev: Value(n=prev.get("n") + 1),
                      deps=(count.previous,))
    return Network([count])


def iid_normal_network(batch=1):
    x = Variable("x", ValueSpec(v=FieldSpec(())))
    x.bind_initial(lambda: Value(v=Normal(Tensor(np.zeros(batch)), 1.0)))
    x.bind_kernel(lambda prev: Value(v=Normal(Tensor(np.zeros(batch)), 1.0)),
                  deps=(x.previous,))
    return Network([x])


def observed(net, steps, data):
    specs = {v.name: v.spec for v in net.variables}
    return ObservedTrajectory(specs, steps, data)


class TestLogProbability:
    def test_all_deterministic_count_scores_zero(self):
        net = count_network()
        obs = ObservedTrajectory.from_trajectory(net, trajectory(net, 3, seed=0))
        lp = log_probability_from_value_trajectory(net, obs, 2)
        assert float(lp.data) == 0.0

    def test_iid_standard_normal_closed_form(self):
        net = iid_normal_network()
        data = {"x": [Value(v=np.zeros(1)) for _ in range(3)]}
        lp = log_probability_from_value_trajectory(net, observed(net, 3, data), 2)
        assert abs(float(lp.data) - 3 * (-0.9189385332046727)) < 1e-12

    def test_two_variable_discrete_dbn_matches_enumeration(self):
        rng = np.random.default_rng(42)
        a_init, b_init = rng.normal(size=2), rng.normal(size=2)
        a_trans = rng.normal(size=(2, 2))        # a_t | a_{t-1}
        b_trans = rng.normal(size=(2, 2, 2))     # b_t | a_t, b_{t-1}
        a = Variable("a", ValueSpec(s=FieldSpec((), "integer")))
        b = Variable("b", ValueSpec(s=FieldSpec((), "integer")))
        a.bind_initial(lambda: Value(s=Categorical(Tensor(a_init[None]))))
        a.bind_kernel(lambda pa: Value(
            s=Categorical(Tensor(a_trans[np.asarray(pa.get("s"))]))),
            deps=(a.previous,))
        b.bind_initial(lambda: Value(s=Categorical(Tensor(b_init[None]))))
        b.bind_kernel(lambda ca, pb: Value(
            s=Categorical(Tensor(b_trans[np.asarray(ca.get("s")),
                                         np.asarray(pb.get("s"))]))),
            deps=(a, b.previous))
        net = Network([a, b])

        def softmax(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        total = 0.0
        for a0, b0, a1, b1 in itertools.product(range(2), repeat=4):
            data = {"a": [Value(s=np.array([a0])), Value(s=np.array([a1]))],
                    "b": [Value(s=np.array([b0])), Value(s=np.array([b1]))]}
            lp = float(log_probability_from_value_trajectory(
                net, observed(net, 2, data), 1).data)
            brute = (math.log(softmax(a_init)[a0]) + math.log(softmax(b_init)[b0])
                     + math.log(softmax(a_trans[a0])[a1])
                     + math.log(softmax(b_trans[a1, b0])[b1]))
            assert abs(lp - brute) < 1e-12
            total += math.exp(lp)
        assert abs(total - 1.0) < 1e-9

    def test_scoring_a_sampled_trajectory_never_hits_sentinel(self):
        net = iid_normal_network(batch=16)
        traj = trajectory(net, 5, seed=9)
        obs = ObservedTrajectory.from_trajectory(net, traj)
        rows = trajectory_log_prob_rows(net, obs, 4)
        assert np.all(rows.data > NEG_INF / 2)

    def test_deterministic_mismatch_is_an_error(self):
        net = count_network()
        data = {"count": [Value(n=np.zeros(1, np.int64)),
                          Value(n=np.array([7], np.int64))]}
        with pytest.raises(LogProbError, match="deterministic"):
            log_probability_from_value_trajectory(net, observed(net, 2, data), 1)

    def test_num_steps_bounds_checked(self):
        net = count_network()
        obs = ObservedTrajectory.from_trajectory(net, trajectory(net, 3, seed=0))
        with pytest.raises(LogProbError, match="num_steps"):
            log_probability_from_value_trajectory(net, obs, 3)

    def test_gradient_wrt_trainable_drift_matches_finite_differences(self):
        registry = ParameterRegistry()
        registry.create("drift", np.array(0.3))
        batch = 6

        def build():
            walk = Variable("walk", ValueSpec(x=FieldSpec(())))
            walk.bind_initial(lambda: Value(x=Normal(Tensor(np.zeros(batch)), 1.0)))
            walk.bind_kernel(
                lambda prev: Value(x=Normal(T.add(prev.get("x"), registry.get("drift")), 1.0)),
                deps=(walk.previous,))
            return Network([walk])

        net = build()
        obs = ObservedTrajectory.from_trajectory(net, trajectory(net, 5, seed=3))

        def lp_at(drift_value):
            registry._params["drift"].assign(drift_value)
            return float(log_probability_from_value_trajectory(net, obs, 4).data)

        tape = Tape()
        registry.bind(tape)
        lp = log_probability_from_value_trajectory(net, obs, 4)
        grad = tape.backward(lp)[registry._params["drift"].leaf].data
        registry.unbind()
        h = 1e-5
        fd = (lp_at(0.3 + h) - lp_at(0.3 - h)) / (2 * h)
        assert relative_error(grad, fd) < 1e-4


class TestObservedTrajectory:
    def test_partial_observation_rejected(self):
        net = iid_normal_network()
        data = {"x": [Value(v=np.zeros(1)), Value()]}
        with pytest.raises(LogProbError, match="partially observed"):
            observed(net, 2, data)

    def test_held_out_field_detected(self):
        net = iid_normal_network(4)
        obs = ObservedTrajectory.from_trajectory(
            net, trajectory(net, 3, seed=1), hold_out=[("x", "v")])
        assert obs.held_out() == {("x", "v")}

    def test_scoring_held_out_field_requires_injection(self):
        net = iid_normal_network(4)
        obs = ObservedTrajectory.from_trajectory(
            net, trajectory(net, 3, seed=1), hold_out=[("x", "v")])
        with pytest.raises(LogProbError, match="held out"):
            log_probability_from_value_trajectory(net, obs, 2)
        filled = obs.inject("x", "v", [np.zeros(4)] * 3)
        lp = log_probability_from_value_trajectory(net, filled, 2)
        assert np.isfinite(float(lp.data))

    def test_inject_round_trip(self):
        net = iid_normal_network(4)
        obs = ObservedTrajectory.from_trajectory(
            net, trajectory(net, 3, seed=1), hold_out=[("x", "v")])
        values = [np.full(4, float(t)) for t in range(3)]
        filled = obs.inject("x", "v", values)
        for t in range(3):
            np.testing.assert_array_equal(filled.value("x", t).get("v").data,
                                          values[t])
        # original unmodified
        assert not obs.value("x", 0).has("v")

    def test_injected_steps_read_like_a_list(self):
        net = iid_normal_network(4)
        obs = ObservedTrajectory.from_trajectory(
            net, trajectory(net, 3, seed=1), hold_out=[("x", "v")])
        values = [np.full(4, float(t)) for t in range(3)]
        steps = obs.inject("x", "v", values).data["x"]
        assert len(steps) == 3
        assert steps[0] is steps[0]  # built once, on first read
        np.testing.assert_array_equal(steps[-1].get("v").data, values[2])
        assert [v.get("v").data[0] for v in steps[1:]] == [1.0, 2.0]
        assert [v.get("v").data[0] for v in steps] == [0.0, 1.0, 2.0]
        with pytest.raises(IndexError):
            steps[3]

    def test_injecting_observed_field_rejected(self):
        net = iid_normal_network(4)
        obs = ObservedTrajectory.from_trajectory(net, trajectory(net, 3, seed=1))
        with pytest.raises(LogProbError, match="already observed"):
            obs.inject("x", "v", [np.zeros(4)] * 3)

    def test_inject_shape_mismatch_rejected(self):
        # an observed companion field pins the batch, so a wrong-extent
        # injection is detectable
        x = Variable("x", ValueSpec(v=FieldSpec(()), w=FieldSpec(())))
        x.bind_initial(lambda: Value(v=Normal(Tensor(np.zeros(4)), 1.0),
                                     w=Normal(Tensor(np.zeros(4)), 1.0)))
        x.bind_kernel(lambda prev: Value(v=Normal(Tensor(np.zeros(4)), 1.0),
                                         w=Normal(Tensor(np.zeros(4)), 1.0)),
                      deps=(x.previous,))
        net = Network([x])
        obs = ObservedTrajectory.from_trajectory(
            net, trajectory(net, 3, seed=1), hold_out=[("x", "v")])
        with pytest.raises(Exception, match="batch"):
            obs.inject("x", "v", [np.zeros(5)] * 3)
        with pytest.raises(Exception, match="shape"):
            obs.inject("x", "v", [np.zeros((4, 2))] * 3)
