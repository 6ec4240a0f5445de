import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.behaviors import (AffinityModel, ChoiceModel,
                              ControlledLinearGaussianStateModel,
                              FiniteHistoryEstimator,
                              ParameterRegistry)
from ecosim.core import CoreError, FieldSpec, Value, ValueSpec, Variable
from ecosim.dist import Normal
from ecosim.rng import RngStream
from ecosim.tensor import Tensor


class TestAffinityModel:
    def test_zero_distance_gives_zero_affinity(self):
        m = AffinityModel()
        target = np.array([[1.0, 2.0]])
        items = np.array([[[1.0, 2.0]]])
        assert m.affinities(Tensor(target), Tensor(items)).data[0, 0] == 0.0

    def test_hand_computed_euclidean_norms(self):
        m = AffinityModel()
        aff = m.affinities(Tensor(np.zeros((1, 2))),
                           Tensor(np.array([[[3.0, 4.0], [0.0, 1.0]]])))
        np.testing.assert_allclose(aff.data, [[-5.0, -1.0]], atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        m = AffinityModel()
        target = rng.normal(size=(4, 3))
        items = rng.normal(size=(4, 6, 3))
        perm = rng.permutation(6)
        base = m.affinities(Tensor(target), Tensor(items)).data
        permuted = m.affinities(Tensor(target), Tensor(items[:, perm])).data
        np.testing.assert_array_equal(permuted, base[:, perm])

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        m = AffinityModel()
        target = rng.normal(size=(5, 4))
        items = rng.normal(size=(5, 3, 4))
        shift = rng.normal(size=4)
        base = m.affinities(Tensor(target), Tensor(items)).data
        shifted = m.affinities(Tensor(target + shift), Tensor(items + shift)).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = AffinityModel()
        with pytest.raises(CoreError, match="dims differ"):
            m.affinities(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2, 4))))


class TestChoiceModel:
    def test_equal_affinities_uniform_over_slate(self):
        d = ChoiceModel().choice(Tensor(np.zeros((1, 4))))
        probs = np.exp([d.log_prob(np.array([i])).data[0] for i in range(4)])
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_no_choice_logit_adds_abstention_option(self):
        d = ChoiceModel(no_choice_logit=0.0).choice(
            Tensor(np.zeros((1, 2))))
        probs = np.exp([d.log_prob(np.array([i])).data[0] for i in range(3)])
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_boost_not_applied_to_no_choice_logit(self):
        d = ChoiceModel(no_choice_logit=0.0).choice(
            Tensor(np.zeros((1, 2))), extra_logit_boost=Tensor(np.array([10.0])))
        p_abstain = np.exp(d.log_prob(np.array([2])).data[0])
        assert p_abstain < 1e-3

    def test_mnl_frequencies_match_softmax_three_sigma(self):
        rng = np.random.default_rng(7)
        n = 100_000
        logits = rng.normal(size=5)
        d = ChoiceModel().choice(
            Tensor(np.tile(logits, (n, 1))))
        draws = d.sample(RngStream(3, "c", "x", 0))
        p = np.exp(logits) / np.exp(logits).sum()
        for i in range(5):
            band = 3 * np.sqrt(p[i] * (1 - p[i]) / n)
            assert abs((draws == i).mean() - p[i]) < band


class TestControlledLinearGaussian:
    def test_zero_noise_full_pull_reaches_item_exactly(self):
        m = ControlledLinearGaussianStateModel(2, sensitivity=1.0, noise_scale=0.0)
        state = Tensor(np.array([[0.5, -1.0]]))
        item = np.array([[2.0, 3.0]])
        control = T.sub(Tensor(item), state)  # q = 1
        mean = m.next_state(state, control)
        assert isinstance(mean, Tensor)
        np.testing.assert_allclose(mean.data, item, atol=1e-15)

    def test_zero_control_is_identity(self):
        m = ControlledLinearGaussianStateModel(3, sensitivity=0.7, noise_scale=0.0)
        state = np.random.default_rng(0).normal(size=(4, 3))
        mean = m.next_state(Tensor(state), Tensor(np.zeros((4, 3))))
        np.testing.assert_array_equal(mean.data, state)

    def test_hand_computed_half_sensitivity(self):
        # lambda=0.5, S=[0], F=[2], q=-1 -> loc = 0 + 0.5 * (-1) * (2 - 0) = -1
        m = ControlledLinearGaussianStateModel(1, sensitivity=0.5, noise_scale=0.0)
        control = Tensor(np.array([[-1.0 * (2.0 - 0.0)]]))
        mean = m.next_state(Tensor(np.zeros((1, 1))), control)
        np.testing.assert_allclose(mean.data, [[-1.0]])

    def test_positive_noise_yields_normal_with_same_loc(self):
        m = ControlledLinearGaussianStateModel(2, sensitivity=1.0, noise_scale=0.3)
        d = m.next_state(Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2))))
        assert isinstance(d, Normal)
        np.testing.assert_array_equal(d.loc.data, np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        m = ControlledLinearGaussianStateModel(2)
        with pytest.raises(CoreError, match="differ"):
            m.next_state(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))))


class TestFiniteHistory:
    SPEC = ValueSpec(x=FieldSpec((2,)))

    def test_fresh_buffer_mask_all_invalid(self):
        state = FiniteHistoryEstimator(5).initial_state(self.SPEC, 3)
        np.testing.assert_array_equal(state.get("mask").data, np.zeros((3, 5)))
        np.testing.assert_array_equal(state.get("x").data, np.zeros((3, 5, 2)))

    def test_fifo_eviction(self):
        est = FiniteHistoryEstimator(15)
        state = est.initial_state(ValueSpec(x=FieldSpec(())), 1)
        for i in range(1, 17):
            state = est.push(state, Value(x=Tensor(np.array([float(i)]))))
        np.testing.assert_array_equal(state.get("x").data[0], np.arange(2.0, 17.0))
        np.testing.assert_array_equal(state.get("mask").data, np.ones((1, 15)))

    def test_push_is_batch_independent(self):
        # batched pushes equal a per-row scalar oracle
        est = FiniteHistoryEstimator(3)
        rng = np.random.default_rng(5)
        records = rng.normal(size=(6, 4, 2))  # 6 pushes, 4 rows, dim 2
        state = est.initial_state(self.SPEC, 4)
        for i in range(6):
            state = est.push(state, Value(x=Tensor(records[i])))
        for row in range(4):
            solo = est.initial_state(self.SPEC, 1)
            for i in range(6):
                solo = est.push(solo, Value(x=Tensor(records[i, row:row + 1])))
            np.testing.assert_array_equal(state.get("x").data[row], solo.get("x").data[0])

    def test_integer_field_keeps_its_kind_under_leading_axes(self):
        # a time-batched push, (steps, batch) in front, as the scorer makes
        est = FiniteHistoryEstimator(2)
        spec = ValueSpec(topic=FieldSpec((), "integer"), w=FieldSpec(()))
        assert est.initial_state(spec, 3).get("topic").dtype == np.int64
        state = Value(topic=np.zeros((4, 3, 2), np.int64), w=np.zeros((4, 3, 2)),
                      mask=np.zeros((4, 3, 2)))
        topics = np.arange(12).reshape(4, 3)
        for i in range(3):
            state = est.push(state, Value(topic=topics + i, w=Tensor(np.full((4, 3), i / 2))))
        assert state.get("topic").dtype == np.int64
        np.testing.assert_array_equal(state.get("topic"),
                                      np.stack([topics + 1, topics + 2], axis=-1))
        np.testing.assert_array_equal(state.get("w").data, np.full((4, 3, 2), [0.5, 1.0]))
        np.testing.assert_array_equal(state.get("mask").data, np.ones((4, 3, 2)))

    def test_record_shape_mismatch_rejected(self):
        est = FiniteHistoryEstimator(3)
        state = est.initial_state(self.SPEC, 4)
        with pytest.raises(CoreError, match=r"record field 'x' has shape \(4, 3\)"):
            est.push(state, Value(x=Tensor(np.zeros((4, 3)))))


class TestParameterCapture:
    def _story(self, registry: ParameterRegistry):
        registry.create("embedding", np.zeros((10, 20)))
        v = Variable("v", ValueSpec(x=FieldSpec(())))
        v.bind_initial(lambda: Value(x=np.zeros(1)))
        v.bind_kernel(lambda: Value(x=np.zeros(1)))
        return [v]

    def test_registration_round_trip(self):
        registry = ParameterRegistry()
        variables = self._story(registry)
        assert len(variables) == 1
        assert registry.names() == ("embedding",)
        assert registry.as_arrays()["embedding"].shape == (10, 20)

    def test_duplicate_parameter_name_rejected(self):
        registry = ParameterRegistry()
        registry.create("w", np.zeros(2))
        with pytest.raises(CoreError, match="duplicate parameter"):
            registry.create("w", np.zeros(2))

    def test_bound_registry_hands_out_taped_leaves(self):
        from ecosim.tensor import Tape
        registry = ParameterRegistry()
        registry.create("w", np.array([1.0, 2.0]))
        assert registry.get("w").tape is None
        tape = Tape()
        registry.bind(tape)
        leaf = registry.get("w")
        assert leaf.tape is tape
        registry.unbind()
        assert registry.get("w").tape is None
