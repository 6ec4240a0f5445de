import itertools

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.tensor import ShapeError, Tape, TapeError, Tensor

from conftest import check_op_gradient


class TestForwardExamples:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 7))
        np.testing.assert_array_equal(T.matmul(Tensor(np.eye(3)), Tensor(x)).data, x)

    def test_log_softmax_normalization_identity(self):
        rng = np.random.default_rng(1)
        v = Tensor(rng.normal(size=10))
        total = np.exp(T.log_softmax(v).data).sum()
        assert abs(total - 1.0) <= 1e-12

    def test_broadcast_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4,\)"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
        # take_along wants the tensor's shape off the axis, not a broadcast
        with pytest.raises(ShapeError, match=r"take_along: .*\(3, 1, 1\).*\(3, 5, 2\)"):
            T.take_along(Tensor(np.zeros((3, 5, 2))), np.zeros((3, 1, 1), np.int64), 1)

    def test_take_along_out_of_range_names_index(self):
        with pytest.raises(ShapeError, match="index 5"):
            T.take_along(Tensor(np.zeros((4, 2))), np.array([[0, 5]]), axis=0)

    def test_taped_and_untaped_forward_are_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))

        def compute(xt, wt):
            return T.reduce_sum(T.log_softmax(T.tanh(T.matmul(xt, wt))), axis=1)

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
        loss = T.index(T.log_softmax(w), 0)
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
        full = np.broadcast_to(idx[..., None], idx.shape + (4,))
        np.testing.assert_array_equal(T.take_rows(Tensor(a), idx).data,
                                      T.take_along(Tensor(a), full, -2).data)

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


def old_sqrt(a):
    """The taped square root the old affinity chain used; subgradient 0 at 0."""
    out = np.sqrt(a.data)

    def vjp(g):
        safe = np.where(out > 0.0, out, 1.0)
        return np.where(out > 0.0, 0.5 * g / safe, 0.0)

    return T._apply(lambda x: out, (a,), (vjp,))


def old_negative_euclidean(targets, items, scale=None):
    """The composition ``T.negative_euclidean`` replaces, as an oracle."""
    d = T.sub(items, T.expand_dims(targets, -2))
    out = T.neg(old_sqrt(T.reduce_sum(T.mul(d, d), axis=-1)))
    return out if scale is None else T.mul(out, scale)


def old_normal_log_density(value, loc, scale):
    """The composition ``T.normal_log_density`` replaces, as an oracle."""
    z = T.div(T.sub(value, loc), scale)
    return T.sub(T.mul(T.mul(z, z), -0.5),
                 T.add(T.log(scale), 0.5 * float(np.log(2.0 * np.pi))))


def value_and_grads(op, inputs, taped, weights):
    """op's value and the gradients of sum(weights * op) for the inputs
    flagged in ``taped``; the others enter as constants."""
    tape = Tape()
    args = [tape.watch(a) if t else Tensor(a) for a, t in zip(inputs, taped)]
    out = op(*args)
    grads = tape.backward(T.reduce_sum(T.mul(out, Tensor(weights))))
    return out.data, [grads[a].data for a, t in zip(args, taped) if t]


def assert_bit_identical(new, old, inputs, rng):
    weights = rng.normal(size=old(*[Tensor(a) for a in inputs]).shape)
    np.testing.assert_array_equal(new(*[Tensor(a) for a in inputs]).data,
                                  old(*[Tensor(a) for a in inputs]).data)
    for taped in itertools.product((False, True), repeat=len(inputs)):
        if not any(taped):
            continue
        got_value, got = value_and_grads(new, inputs, taped, weights)
        want_value, want = value_and_grads(old, inputs, taped, weights)
        np.testing.assert_array_equal(got_value, want_value)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)


class TestFusedKernels:
    @pytest.mark.parametrize("d", [1, 3, 8, 10])
    @pytest.mark.parametrize("slate", [1, 4, 8])
    @pytest.mark.parametrize("scale", [None, 0.7])
    @pytest.mark.parametrize("lead", [((5, 6), (5, 6)),     # same leading axes
                                      ((6,), (5, 6)),       # targets without the time axis
                                      ((1, 6), (5, 6)),     # targets broadcast on an axis
                                      ((5, 6), (6,))])      # items with fewer leading axes
    def test_negative_euclidean_matches_composition(self, d, slate, scale, lead, rng):
        t_lead, i_lead = lead
        targets = rng.normal(size=t_lead + (d,))
        items = rng.normal(size=i_lead + (slate, d)) * 10.0 ** rng.uniform(-3, 3)
        # a distance of exactly 0, where the subgradient is 0
        np.copyto(items[..., 0, :], targets if len(t_lead) <= len(i_lead) else targets[0])
        assert_bit_identical(lambda t, x: T.negative_euclidean(t, x, scale),
                             lambda t, x: old_negative_euclidean(t, x, scale),
                             [targets, items], rng)

    def test_negative_euclidean_zero_distance_is_zero_with_zero_gradient(self):
        tape = Tape()
        t = tape.watch(np.array([[1.0, 2.0]]))
        out = T.negative_euclidean(t, np.array([[[1.0, 2.0]]]), 0.5)
        assert out.data[0, 0] == 0.0
        np.testing.assert_array_equal(tape.backward(T.reduce_sum(out))[t].data, [[0.0, 0.0]])

    def test_negative_euclidean_rejects_mismatched_dims(self):
        with pytest.raises(ShapeError, match="negative_euclidean"):
            T.negative_euclidean(np.zeros((2, 1)), np.zeros((2, 4, 3)))

    @pytest.mark.parametrize("shapes", [
        ((4, 3), (4, 3), ()),           # scalar scale, as in the stories
        ((5, 4, 3), (4, 3), (3,)),      # time-batched value, per-dimension scale
        ((4, 3), (3,), (4, 3)),
        ((4, 1, 3), (2, 3), (4, 2, 1)),  # every operand broadcasts
    ])
    def test_normal_log_density_matches_composition(self, shapes, rng):
        v_shape, loc_shape, scale_shape = shapes
        inputs = [rng.normal(size=v_shape), rng.normal(size=loc_shape),
                  rng.uniform(0.2, 3.0, size=scale_shape)]
        assert_bit_identical(T.normal_log_density, old_normal_log_density, inputs, rng)

    def test_normal_log_density_with_a_scale_other_ops_use(self, rng):
        v, loc = rng.normal(size=(6, 20, 10)), rng.normal(size=(20, 10))
        s0 = rng.uniform(0.5, 2.0, size=(20, 10))

        def grads(density):
            tape = Tape()
            s = tape.watch(s0)
            scale = T.mul(s, 1.5)
            before = T.reduce_sum(T.log(scale))
            lp = T.reduce_sum(density(Tensor(v), Tensor(loc), scale))
            after = T.reduce_sum(T.mul(scale, scale))
            return tape.backward(T.add(T.add(before, lp), after))[s].data

        np.testing.assert_array_equal(grads(T.normal_log_density),
                                      grads(old_normal_log_density))


def scatter_reduce_max_gradient(a, g, axis):
    """The scatter-add vjp ``reduce_max`` had, as an oracle."""
    idx = np.expand_dims(np.argmax(a, axis=axis), axis)
    out = np.zeros_like(a)
    grids = list(np.ogrid[tuple(slice(n) for n in idx.shape)])
    grids[axis] = idx
    np.add.at(out, tuple(grids), np.expand_dims(g, axis))
    return out


class TestReduceMaxGradient:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_scatter_add_with_ties_and_signed_zeros(self, axis, rng):
        a = rng.integers(0, 3, size=(4, 5, 6)).astype(np.float64)  # many ties
        g = rng.normal(size=np.delete(np.array(a.shape), axis % 3))
        g[0] = -0.0
        tape = Tape()
        x = tape.watch(a)
        loss = T.reduce_sum(T.mul(T.reduce_max(x, axis=axis), Tensor(g)))
        got = tape.backward(loss)[x].data
        want = scatter_reduce_max_gradient(a, g, axis % 3)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestSumAxis:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_last_axis_equals_np_sum(self, n, rng):
        for shape in [(n,), (3, n), (4, 5, n), (2, 3, n, 1)]:
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            axis = len(shape) - 1 if shape[-1] != 1 else len(shape) - 2
            got = T._sum_axis(x, axis)
            np.testing.assert_array_equal(got, np.sum(x, axis=axis))
            zeros = np.full(shape, -0.0)
            np.testing.assert_array_equal(np.signbit(T._sum_axis(zeros, axis)),
                                          np.signbit(np.sum(zeros, axis=axis)))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_other_axes_equal_np_sum(self, n, rng):
        cases = [((n, 3), 0), ((4, n, 3), 1), ((4, n, 2, 5), 1), ((4, n, 1), 1),
                 ((n, 5, 2), 0)]
        for shape, axis in cases:
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            np.testing.assert_array_equal(T._sum_axis(x, axis), np.sum(x, axis=axis))
            np.testing.assert_array_equal(T._sum_axis(x.T, x.ndim - 1 - axis),
                                          np.sum(x.T, axis=x.ndim - 1 - axis))
            zeros = np.full(shape, -0.0)
            np.testing.assert_array_equal(np.signbit(T._sum_axis(zeros, axis)),
                                          np.signbit(np.sum(zeros, axis=axis)))


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
        "log": (T.log, lambda r: [r.uniform(0.5, 3.0, size=(5,))]),
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
        "take_along": (lambda x: T.take_along(x, np.array([[1], [0], [3]]), 1),
                       lambda r: [r.normal(size=(3, 5))]),
        "take_rows": (  # repeated rows, so the scatter-add accumulates
            lambda x: T.take_rows(x, np.array([[0, 2, 2, 4], [1, 1, 3, 1]])),
            lambda r: [r.normal(size=(2, 5, 3))]),
        "reduce_sum": (lambda x: T.reduce_sum(x, axis=1),
                       lambda r: [r.normal(size=(3, 5))]),
        "reduce_mean": (lambda x: T.reduce_mean(x, axis=0),
                        lambda r: [r.normal(size=(3, 5))]),
        "reduce_max": (lambda x: T.reduce_max(x, axis=-1),
                       lambda r: [r.normal(size=(3, 5))]),
        "negative_euclidean": (lambda t, x: T.negative_euclidean(t, x, 0.7),
                               lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 5, 4))]),
        "negative_euclidean_fewer_lead": (
            T.negative_euclidean,
            lambda r: [r.normal(size=(4,)), r.normal(size=(2, 3, 5, 4))]),
        "normal_log_density": (T.normal_log_density,
                               lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4)),
                                          r.uniform(0.5, 2.0, size=(4,))]),
        "normal_log_density_time_batched": (
            T.normal_log_density,
            lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(3, 4)),
                       r.uniform(0.5, 2.0, size=(3, 1))]),
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

