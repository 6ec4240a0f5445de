import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecosim.tensor as T
from ecosim.tensor import ShapeError, Tape, TapeError, Tensor

from conftest import check_op_gradient


class TestForwardExamples:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7))
        np.testing.assert_array_equal(T.matmul(Tensor(np.eye(3)), Tensor(x)).data, x)

    def test_log_softmax_normalization_identity(self):
        rng = np.random.default_rng(1)
        v = Tensor(rng.normal(size=10))
        total = T.reduce_sum(T.exp(T.log_softmax(v)))
        assert abs(total.item() - 1.0) <= 1e-12

    def test_softmax_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 9))
        s = T.softmax(Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-10)
        perm = rng.permutation(9)
        np.testing.assert_allclose(T.softmax(Tensor(x[:, perm])).data, s[:, perm])

    def test_broadcast_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4,\)"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))

    def test_gather_out_of_range_names_index(self):
        with pytest.raises(ShapeError, match="index 5"):
            T.gather(Tensor(np.zeros((4, 2))), np.array([0, 5]), axis=0)

    def test_taped_and_untaped_forward_are_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))

        def compute(xt, wt):
            return T.reduce_sum(T.softmax(T.tanh(T.matmul(xt, wt))), axis=1)

        plain = compute(Tensor(x), Tensor(w))
        tape = Tape()
        taped = compute(tape.watch(x), tape.watch(w))
        np.testing.assert_array_equal(plain.data, taped.data)


class TestBackwardExamples:
    def test_sum_of_squares(self):
        tape = Tape()
        x = tape.watch([1.0, 2.0, 3.0])
        loss = T.reduce_sum(T.mul(x, x))
        np.testing.assert_allclose(tape.backward(loss)[x].data, [2.0, 4.0, 6.0])

    def test_log_softmax_closed_form_jacobian(self):
        tape = Tape()
        w = tape.watch([0.0, 0.0])
        loss = T.gather(T.log_softmax(w), np.array(0), axis=0)
        np.testing.assert_allclose(tape.backward(loss)[w].data, [0.5, -0.5], atol=1e-12)

    def test_unreachable_leaf_gets_zero_gradient(self):
        tape = Tape()
        x = tape.watch([1.0, 2.0])
        y = tape.watch([3.0])
        loss = T.reduce_sum(x)
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[y].data, [0.0])

    def test_second_backward_on_one_tape_rejected(self):
        tape = Tape()
        x = tape.watch([1.0, 2.0])
        loss = T.reduce_sum(T.mul(x, x))
        np.testing.assert_allclose(tape.backward(loss)[x].data, [2.0, 4.0])
        with pytest.raises(TapeError, match="already ran"):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.watch([1.0, 2.0])
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(x)

    def test_loss_from_other_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.watch([1.0])
        with pytest.raises(TapeError, match="tape"):
            t2.backward(T.reduce_sum(x))

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(TapeError):
            T.add(t1.watch([1.0]), t2.watch([2.0]))

    def test_wrong_shape_vjp_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones(3))
        y = T._apply(lambda a: 2.0 * a, (x,), (lambda g: np.ones(1),))
        loss = T.reduce_sum(y)
        with pytest.raises(TapeError, match=r"node 1 .*\(1,\).*node 0.*\(3,\)"):
            tape.backward(loss)


class TestTakeRows:
    def test_time_batched_rows(self, rng):
        a = rng.normal(size=(4, 3, 6, 5))        # (T, R, M, d)
        idx = rng.integers(0, 6, size=(4, 3, 7))  # (T, R, n)
        got = T.take_rows(Tensor(a), idx).data
        assert got.shape == (4, 3, 7, 5)
        for t in range(4):
            for r in range(3):
                np.testing.assert_array_equal(got[t, r], a[t, r][idx[t, r]])

    def test_equals_take_along_with_broadcast_index(self, rng):
        a = rng.normal(size=(3, 8, 4))
        idx = rng.integers(0, 8, size=(3, 10))
        np.testing.assert_array_equal(T.take_rows(Tensor(a), idx).data,
                                      T.take_along(Tensor(a), idx[..., None], -2).data)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ShapeError, match=r"take_rows: index 5 out of range \[0, 5\)"):
            T.take_rows(Tensor(np.zeros((2, 5, 3))), np.array([[0, 5], [1, 2]]))
        with pytest.raises(ShapeError, match="take_rows: index -1"):
            T.take_rows(Tensor(np.zeros((2, 5, 3))), np.array([[0, -1], [1, 2]]))

    def test_float_indices_rejected(self):
        with pytest.raises(ShapeError, match="take_rows: indices must be integers"):
            T.take_rows(Tensor(np.zeros((2, 5, 3))), np.array([[0.0, 1.0], [1.0, 2.0]]))

    def test_mismatched_leading_shape_rejected(self):
        with pytest.raises(ShapeError, match=r"take_rows: index shape \(3, 2\)"):
            T.take_rows(Tensor(np.zeros((2, 5, 3))), np.zeros((3, 2), np.int64))
        with pytest.raises(ShapeError, match="take_rows"):
            T.take_rows(Tensor(np.zeros((2, 5, 3))), np.zeros(2, np.int64))


class TestStopGradient:
    def test_definition(self):
        tape = Tape()
        x = tape.watch([2.0, 3.0])
        w = tape.watch([5.0, 7.0])
        loss = T.reduce_sum(T.mul(T.stop_gradient(x), w))
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[w].data, [2.0, 3.0])
        np.testing.assert_array_equal(grads[x].data, [0.0, 0.0])

    def test_value_identity(self):
        x = Tensor([1.5, -2.5])
        np.testing.assert_array_equal(T.stop_gradient(x).data, x.data)


class TestGradientSuite:
    """Central finite differences (step 1e-5), 20 random points per op,
    relative error < 1e-4."""

    CASES = {
        "add": (T.add, lambda r: [r.normal(size=(3, 4)), r.normal(size=(4,))]),
        "sub": (T.sub, lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))]),
        "mul": (T.mul, lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 1))]),
        "div": (T.div, lambda r: [r.normal(size=(3, 4)),
                                  r.normal(size=(3, 4)) + 3.0]),
        "neg": (T.neg, lambda r: [r.normal(size=(5,))]),
        "exp": (T.exp, lambda r: [r.normal(size=(5,))]),
        "log": (T.log, lambda r: [r.uniform(0.5, 3.0, size=(5,))]),
        "sqrt": (T.sqrt, lambda r: [r.uniform(0.5, 3.0, size=(5,))]),
        "tanh": (T.tanh, lambda r: [r.normal(size=(5,))]),
        "relu": (T.relu, lambda r: [np.sign(r.normal(size=(8,)))
                                    * r.uniform(0.2, 2.0, size=(8,))]),
        "softplus": (T.softplus, lambda r: [r.normal(size=(6,))]),
        "maximum": (T.maximum, lambda r: [r.normal(size=(6,)), r.normal(size=(6,))]),
        "minimum": (T.minimum, lambda r: [r.normal(size=(6,)), r.normal(size=(6,))]),
        "matmul": (T.matmul, lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2))]),
        "matmul_batched": (T.matmul, lambda r: [r.normal(size=(2, 3, 4)),
                                                r.normal(size=(4, 2))]),
        "concat": (lambda a, b: T.concat([a, b], axis=1),
                   lambda r: [r.normal(size=(3, 2)), r.normal(size=(3, 3))]),
        "gather": (lambda x: T.gather(x, np.array([0, 2, 2, 4]), axis=0),
                   lambda r: [r.normal(size=(5, 3))]),
        "take_along": (lambda x: T.take_along(x, np.array([[1], [0], [3]]), 1),
                       lambda r: [r.normal(size=(3, 5))]),
        "take_along_broadcast": (
            lambda x: T.take_along(x, np.array([[[1]], [[0]], [[3]]]), 1),
            lambda r: [r.normal(size=(3, 5, 2))]),
        "take_rows": (  # repeated rows, so the scatter-add accumulates
            lambda x: T.take_rows(x, np.array([[0, 2, 2, 4], [1, 1, 3, 1]])),
            lambda r: [r.normal(size=(2, 5, 3))]),
        "reduce_sum": (lambda x: T.reduce_sum(x, axis=1),
                       lambda r: [r.normal(size=(3, 5))]),
        "reduce_mean": (lambda x: T.reduce_mean(x, axis=0),
                        lambda r: [r.normal(size=(3, 5))]),
        "reduce_max": (lambda x: T.reduce_max(x, axis=-1),
                       lambda r: [r.normal(size=(3, 5))]),
        "squared_l2_norm": (T.squared_l2_norm, lambda r: [r.normal(size=(3, 4))]),
        "softmax": (T.softmax, lambda r: [r.normal(size=(3, 5))]),
        "log_softmax": (T.log_softmax, lambda r: [r.normal(size=(3, 5))]),
        "logsumexp": (T.logsumexp, lambda r: [r.normal(size=(3, 5))]),
        "reshape": (lambda x: T.reshape(x, (6, 2)), lambda r: [r.normal(size=(3, 4))]),
        "clip": (lambda x: T.clip(x, -0.5, 0.5), lambda r: [r.normal(size=(8,)) * 2]),
        "broadcast_to": (lambda x: T.broadcast_to(x, (4, 3, 5)),
                         lambda r: [r.normal(size=(3, 1))]),
        "stack": (lambda a, b: T.stack([a, b, a], axis=1),
                  lambda r: [r.normal(size=(3, 2)), r.normal(size=(3, 2))]),
        "index": (lambda x: T.index(x, (slice(1, 3), 0)),
                  lambda r: [r.normal(size=(4, 3))]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_finite_differences(self, name, rng):
        op, make = self.CASES[name]
        check_op_gradient(op, make, rng)

    def test_matmul_grad_is_row_sum_structure(self, rng):
        # loss = sum(A @ B): dA[i, j] = sum_k B[j, k]
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        tape = Tape()
        at, bt = tape.watch(a), tape.watch(b)
        grads = tape.backward(T.reduce_sum(T.matmul(at, bt)))
        np.testing.assert_allclose(grads[at].data,
                                   np.tile(b.sum(axis=1), (3, 1)), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
def test_softmax_always_normalized(values):
    s = T.softmax(Tensor(values)).data
    assert abs(s.sum() - 1.0) <= 1e-10
    assert np.all(s >= 0.0)
