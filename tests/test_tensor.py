import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.behaviors import ParameterRegistry
from ecosim.inference import Adam, Sgd
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

    @pytest.mark.parametrize("op", [
        lambda a, b: T.add(a, b),
        lambda a, b: T.concat([a, Tensor([0.0]), b]),
        lambda a, b: T.normal_log_density(a, 0.0, T.add(b, 1.0)),
    ], ids=["add", "concat", "normal_log_density"])
    def test_operands_on_two_tapes_rejected(self, op):
        # every op records through T._record, which holds the one check
        t1, t2 = Tape(), Tape()
        with pytest.raises(TapeError, match="operands recorded on different tapes"):
            op(t1.watch([1.0]), t2.watch([2.0]))

    def test_vjp_writing_into_its_gradient_raises(self):
        def doubling_vjp(g):
            g *= 2.0
            return g

        tape = Tape()
        x = tape.watch(np.ones(3))
        y = T._record(2.0 * x.data, (x, doubling_vjp))
        loss = T.reduce_sum(T.mul(y, 3.0))  # y's gradient is a fresh array
        with pytest.raises(ValueError, match="read-only"):
            tape.backward(loss)

    def test_wrong_shape_vjp_rejected(self):
        tape = Tape()
        x = tape.watch(np.ones(3))
        y = T._record(2.0 * x.data, (x, lambda g: np.ones(1)))
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

    return T._record(out, (a, vjp))


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
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 10])      # d < 8 leads, d >= 8 trails
    @pytest.mark.parametrize("slate", [1, 4, 7, 8, 9])
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

    @pytest.mark.parametrize("d", [3, 10])
    def test_negative_euclidean_gradient_sums_downstream_as_before(self, d, rng):
        # a bias shared by every target sums the targets' gradient over 2,000
        # rows, where numpy's order depends on the gradient's memory layout
        x, bias = rng.normal(size=(40, 50, d)), rng.normal(size=d)
        items = rng.normal(size=(40, 50, 4, d))
        assert_bit_identical(lambda x, b: T.negative_euclidean(T.add(x, b), items),
                             lambda x, b: old_negative_euclidean(T.add(x, b), Tensor(items)),
                             [x, bias], rng)

    # d of 8..15 takes _sum_planes; d >= 16 keeps numpy's sum.
    @pytest.mark.parametrize("d", list(range(8, 25)) + [64, 128])
    def test_negative_euclidean_above_the_plane_rule_matches_composition(self, d, rng):
        targets = rng.normal(size=(8, 16, d))
        items = rng.normal(size=(8, 16, 8, d)) * 10.0 ** rng.uniform(-3, 3)
        assert_bit_identical(lambda t, x: T.negative_euclidean(t, x, 0.7),
                             lambda t, x: old_negative_euclidean(t, x, 0.7),
                             [targets, items], rng)

    @pytest.mark.parametrize("t_shape, i_shape, used", [
        ((4, 7), (4, 2, 7), False),
        ((3, 8), (3, 2, 8), True),
        ((100, 10), (100, 2, 10), True),
        ((13, 200, 15), (13, 200, 8, 15), True),
        ((100, 16), (100, 2, 16), False),
        ((100, 20), (100, 2, 20), False),    # porl's shape: d = 20
    ])
    def test_plane_sum_only_for_d_of_8_to_15(self, t_shape, i_shape, used, rng,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(T, "_sum_planes",
                            lambda x, f=T._sum_planes: calls.append(x.shape) or f(x))
        T.negative_euclidean(rng.normal(size=t_shape), rng.normal(size=i_shape))
        assert calls == ([i_shape] if used else [])

    @pytest.mark.parametrize("d", range(8, 16))
    def test_sum_planes_is_numpys_pairwise_sum(self, d, rng):
        x = rng.normal(size=(300, d)) * 10.0 ** rng.uniform(-9, 9, size=(300, d))
        assert T._sum_planes(x).tobytes() == np.sum(x, axis=-1).tobytes()

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


def old_reduce_max(a, axis, keepdims):
    """The kernel ``T.reduce_max`` had: ``np.argmax`` and a take at it."""
    out = np.take_along_axis(a, np.expand_dims(np.argmax(a, axis=axis), axis), axis=axis)
    return out if keepdims else np.squeeze(out, axis)


def old_log_softmax(a):
    """The kernel ``T.log_softmax`` had: shifted by ``np.max``."""
    shifted = a - a.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.sum(np.exp(shifted), axis=-1))[..., None]
    return out, lambda g: g - np.exp(out) * np.sum(g, axis=-1)[..., None]


def ties(rng, shape):
    """Values with many equal maxima, ``-0.0`` and ``0.0`` among them."""
    return rng.choice([-0.0, 0.0, 0.0, -1.5, 2.0, 2.0, -0.0], size=shape)


def taped_grad(op, a, g):
    """The gradient of ``sum(g * op(a))`` with respect to ``a``."""
    tape = Tape()
    x = tape.watch(a)
    out = op(x)
    grad = tape.backward(T.reduce_sum(T.mul(out, Tensor(g))))[x].data
    return out.data, grad


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestShortAxisKernels:
    """``reduce_max``, ``log_softmax`` and ``take_along`` against the numpy
    kernels they replaced, bit for bit, on both sides of the length-8 rule."""

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8, 9])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_reduce_max_matches_argmax_kernel(self, n, axis, keepdims, rng):
        shape = [3, 4, 5]
        shape[axis] = n
        a = ties(rng, shape)
        want = old_reduce_max(a, axis, keepdims)
        g = rng.normal(size=want.shape)
        g.reshape(-1)[::3] = -0.0

        def op(x):  # a kept axis is put back by expand_dims
            out = T.reduce_max(x, axis=axis)
            return T.expand_dims(out, axis) if keepdims else out

        value, grad = taped_grad(op, a, g)
        assert_same_bits(value, want)
        gk = g if keepdims else np.expand_dims(g, axis)
        assert_same_bits(grad, scatter_reduce_max_gradient(a, gk.squeeze(axis), axis % 3))

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_reduce_max_nan_picks_the_first_nan(self, n, rng):
        a = rng.normal(size=(6, n))
        a[1, n - 1] = a[2, 0] = a[2, 1] = a[3, 1] = np.nan
        value, grad = taped_grad(lambda x: T.reduce_max(x), a, np.ones(6))
        np.testing.assert_array_equal(value, old_reduce_max(a, -1, False))
        np.testing.assert_array_equal(grad, scatter_reduce_max_gradient(a, np.ones(6), 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9])
    def test_log_softmax_matches_max_reduce_kernel(self, n, rng):
        a = ties(rng, (6, 7, n))
        a[0, 0] = [-0.0] + [-800.0] * (n - 1)  # a row whose log-sum-exp is 0
        a[0, 1] = [0.0, -0.0] * (n // 2) + [-0.0] * (n % 2)
        want, want_vjp = old_log_softmax(a)
        g = rng.normal(size=a.shape)
        value, grad = taped_grad(T.log_softmax, a, g)
        assert_same_bits(value, want)
        assert_same_bits(grad, want_vjp(g))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_take_along_single_index_puts_positive_zero(self, axis, rng):
        a = rng.normal(size=(3, 4, 5))
        shape = list(a.shape)
        shape[axis] = 1
        idx = rng.integers(0, a.shape[axis], size=shape)
        g = rng.normal(size=shape)
        g.reshape(-1)[::2] = -0.0
        value, grad = taped_grad(lambda x: T.take_along(x, idx, axis), a, g)
        assert_same_bits(value, np.take_along_axis(a, idx, axis=axis))
        want = np.zeros_like(a)
        np.put_along_axis(want, idx, g + 0.0, axis=axis)
        assert_same_bits(grad, want)
        assert not np.signbit(grad[grad == 0.0]).any()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_take_along_repeated_indices_accumulate(self, order, rng):
        a = np.asarray(rng.normal(size=(3, 5)), order=order)
        idx = np.array([[1, 1, 4, 1], [0, 2, 2, 0], [3, 3, 3, 3]])
        g = rng.normal(size=idx.shape) * 10.0 ** rng.uniform(-8, 8, size=idx.shape)
        value, grad = taped_grad(lambda x: T.take_along(x, idx, 1), a, g)
        assert_same_bits(value, np.take_along_axis(a, idx, axis=1))
        want = np.zeros_like(a)
        np.add.at(want, (np.arange(3)[:, None], idx), g)
        assert_same_bits(grad, want)
        assert grad.flags.c_contiguous == want.flags.c_contiguous


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


class TestExpit:
    """The logistic sigmoid behind softplus's gradient and Bernoulli sampling."""

    def test_matches_scipy(self):
        expit = pytest.importorskip("scipy.special").expit
        x = np.linspace(-700.0, 700.0, 100_001)
        want = expit(x)
        assert np.max(np.abs(T._expit(x) - want) / want) < 1e-13

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(T._expit(np.array([-1e4, 1e4])), [0.0, 1.0])


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


def _positive(shape, rng):
    return rng.uniform(0.5, 2.0, size=shape)  # a valid log argument and Normal scale


class TestRetention:
    """A tape holds an operand's data only if the op's gradient reads it.

    Each case records the op on fresh operands, each either a taped
    intermediate ``add(leaf, 1.0)`` or an untaped constant, keeps only the
    tape and the loss, and checks which operand buffers are still alive.
    ``kept`` names the operands whose data the recorded vjps read.
    """

    CASES = {
        # name: (op, operand shapes, taped flags, kept flags)
        "add": (T.add, [(3, 4), (4,)], [True, True], [False, False]),
        "add_const": (T.add, [(3, 4), (4,)], [True, False], [False, False]),
        "sub": (T.sub, [(3, 4), (3, 4)], [True, True], [False, False]),
        "mul_one_taped": (T.mul, [(3, 4), (3, 1)], [True, False], [False, True]),
        "mul_other_taped": (T.mul, [(3, 4), (3, 1)], [False, True], [True, False]),
        "mul_two_taped": (T.mul, [(3, 4), (3, 1)], [True, True], [True, True]),
        "div_one_taped": (T.div, [(3, 4), (3, 4)], [True, False], [False, True]),
        "div_other_taped": (T.div, [(3, 4), (3, 4)], [False, True], [True, True]),
        "div_two_taped": (T.div, [(3, 4), (3, 4)], [True, True], [True, True]),
        "matmul_one_taped": (T.matmul, [(3, 4), (4, 2)], [True, False], [False, True]),
        "matmul_other_taped": (T.matmul, [(3, 4), (4, 2)], [False, True], [True, False]),
        "matmul_two_taped": (T.matmul, [(3, 4), (4, 2)], [True, True], [True, True]),
        "maximum": (T.maximum, [(6,), (6,)], [True, True], [False, False]),
        "minimum": (T.minimum, [(6,), (6,)], [True, False], [False, False]),
        "clip": (lambda x: T.clip(x, 2.0, 2.5), [(8,)], [True], [False]),
        "neg": (T.neg, [(5,)], [True], [False]),
        "log": (T.log, [(5,)], [True], [True]),
        "tanh": (T.tanh, [(5,)], [True], [False]),
        "relu": (T.relu, [(8,)], [True], [False]),
        "softplus": (T.softplus, [(6,)], [True], [True]),
        "reduce_sum": (lambda x: T.reduce_sum(x, axis=1), [(3, 5)], [True], [False]),
        "reduce_mean": (lambda x: T.reduce_mean(x, axis=0), [(3, 5)], [True], [False]),
        "reduce_max": (lambda x: T.reduce_max(x, axis=-1), [(3, 5)], [True], [False]),
        "reshape": (lambda x: T.reshape(x, (6, 2)), [(3, 4)], [True], [False]),
        "broadcast_to": (lambda x: T.broadcast_to(x, (4, 3, 5)), [(3, 1)], [True], [False]),
        "index": (lambda x: T.index(x, (slice(1, 3), 0)), [(4, 3)], [True], [False]),
        "take_along": (lambda x: T.take_along(x, np.array([[1], [0], [3]]), 1),
                       [(3, 5)], [True], [False]),
        "take_rows": (lambda x: T.take_rows(x, np.array([[0, 2, 2, 4], [1, 1, 3, 1]])),
                      [(2, 5, 3)], [True], [False]),
        "concat": (lambda a, b: T.concat([a, b], axis=1), [(3, 2), (3, 3)],
                   [True, True], [False, False]),
        "expand_dims": (lambda x: T.expand_dims(x, 1), [(3, 2)], [True], [False]),
        "squeeze": (lambda x: T.squeeze(x, 1), [(3, 1)], [True], [False]),
        "log_softmax": (T.log_softmax, [(3, 5)], [True], [False]),
        "logsumexp": (T.logsumexp, [(3, 5)], [True], [True]),
        "negative_euclidean": (lambda t, x: T.negative_euclidean(t, x, 0.7),
                               [(3, 4), (3, 5, 4)], [True, True], [False, False]),
        "normal_log_density": (T.normal_log_density, [(3, 4), (3, 4), (4,)],
                               [True, True, True], [False, False, True]),
        "normal_log_density_untaped_scale": (T.normal_log_density, [(3, 4), (3, 4), (4,)],
                                             [True, True, False], [False, False, True]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_tape_keeps_only_what_the_gradient_reads(self, name, rng):
        op, shapes, taped, kept = self.CASES[name]
        tape = Tape()
        leaves = [tape.watch(_positive(s, rng)) for s in shapes]
        operands = [T.add(leaf, 1.0) if t else Tensor(_positive(s, rng))
                    for leaf, s, t in zip(leaves, shapes, taped)]
        refs = [weakref.ref(x.data) for x in operands]
        # the loss holds no operand, so only the tape can keep one alive
        loss = T.reduce_sum(T.mul(op(*operands), 0.5))
        del operands
        gc.collect()
        assert [r() is not None for r in refs] == kept
        grads = tape.backward(loss)
        for leaf, t in zip(leaves, taped):
            assert np.all(np.isfinite(grads[leaf].data))
            assert t or not np.any(grads[leaf].data)


def _reshape_twice(x, w):
    return T.add(T.reshape(x, (6,)), T.reshape(x, (6,))), 2.0 * w.reshape(2, 3)


def _square(x, w):
    return T.mul(x, x), 2.0 * x.data * w


def _broadcast_plus_self(x, w):
    return T.add(T.broadcast_to(x, (4, 3)), x), 2.0 * w.sum(axis=0)


class TestGradientAliasing:
    """``backward`` keeps a first gradient as its vjp returned it (often a
    view) and owns a buffer only once a second gradient arrives; what it
    returns must still be independent, writeable float64 arrays."""

    GRAPHS = {"reshape_twice": ((2, 3), (6,), _reshape_twice),
              "square": ((2, 3), (2, 3), _square),
              "broadcast_plus_self": ((3,), (4, 3), _broadcast_plus_self)}

    def _grads(self, graph, rng, weighted):
        x_shape, y_shape, build = self.GRAPHS[graph]
        tape = Tape()
        x = tape.watch(rng.normal(size=x_shape))
        other = tape.watch(rng.normal(size=x_shape))  # gets the loss's own g
        w = rng.normal(size=y_shape) if weighted else np.ones(y_shape)
        y, want = build(x, w)
        y = T.mul(y, w) if weighted else y
        loss = T.add(T.reduce_sum(y), T.reduce_sum(other))
        grads = tape.backward(loss)
        forward = [x.data, other.data, w, y.data, loss.data]
        return grads[x].data, want, grads[other].data, forward

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_values_and_independent_buffers(self, graph, weighted, rng):
        gx, want, gother, forward = self._grads(graph, rng, weighted)
        np.testing.assert_allclose(gx, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(gother, np.ones_like(gother))
        for g in (gx, gother):
            assert g.dtype == np.float64 and g.flags.writeable
            assert not any(np.shares_memory(g, f) for f in forward)
        assert not np.shares_memory(gx, gother)

    @pytest.mark.parametrize("make_opt", [lambda: Sgd(0.1), lambda: Adam(0.1)],
                             ids=["sgd", "adam"])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_optimizer_step_leaves_an_earlier_gradient_unchanged(self, graph, make_opt):
        x_shape, y_shape, build = self.GRAPHS[graph]
        registry = ParameterRegistry()
        registry.create("x", np.linspace(-1.0, 1.0, int(np.prod(x_shape))).reshape(x_shape))
        opt = make_opt()
        held = []
        for _ in range(2):
            tape = Tape()
            registry.bind(tape)
            x = registry.get("x")
            y, _ = build(x, np.ones(y_shape))
            grads = tape.backward(T.reduce_sum(y))
            opt.apply(registry, grads)
            registry.unbind()
            held.append((grads[x].data, grads[x].data.copy()))
        for g, snapshot in held:
            np.testing.assert_array_equal(g, snapshot)
            assert not np.shares_memory(g, registry.parameters()[0].value)


class TestZerosLayout:
    def test_matches_zeros_like_on_views(self, rng):
        # the scatter vjps' zeros must add up later exactly as zeros_like's
        for _ in range(500):
            ndim = int(rng.integers(1, 5))
            shape = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
            base = tuple(1 if rng.random() < 0.5 else n for n in shape)
            views = [np.broadcast_to(rng.normal(size=base), shape),
                     np.transpose(rng.normal(size=shape), rng.permutation(ndim)),
                     rng.normal(size=tuple(2 * n for n in shape))[
                         tuple(slice(None, None, int(s)) for s in
                               rng.choice([2, -2], size=ndim))]]
            for v in views:
                z = T._zeros(T._layout(v))
                assert z.shape == v.shape and z.strides == np.zeros_like(v).strides
                assert not np.any(z)
