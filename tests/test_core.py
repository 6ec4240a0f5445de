import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecosim.core import (CoreError, FieldSpec, Network, Value, ValueSpec,
                         Variable)
from ecosim.dist import Normal
from ecosim.tensor import Tensor


class TestValue:
    def test_get_exact_payload(self):
        assert int(Value(n=0).get("n")) == 0

    def test_get_prefix_returns_sub_value(self):
        v = Value(**{"interest.state": np.array([1.0])})
        sub = v.get("interest")
        assert sub.paths == ("state",)

    def test_get_missing_lists_nearest_paths(self):
        with pytest.raises(CoreError, match="nearest available"):
            Value(alpha=1.0, beta=2.0).get("gamma")

    def test_int64_payload_is_kept_without_a_copy(self):
        a = np.arange(6, dtype=np.int64)
        assert np.shares_memory(Value.of({"x": a}).get("x"), a)
        narrow = np.arange(6, dtype=np.int32)
        assert Value.of({"x": narrow}).get("x").dtype == np.int64

    def test_union_keeps_both_sides(self):
        u = Value(x=1.0).union(Value(y=2.0))
        assert set(u.paths) == {"x", "y"}

    def test_union_collision_names_duplicate_path(self):
        with pytest.raises(CoreError, match="duplicate path 'x'"):
            Value(x=1.0).union(Value(x=2.0))

    def test_hierarchical_composition_keys(self):
        interest = Value(state=np.array([1.0]))
        satisfaction = Value(state=np.array([2.0]))
        composed = Value(interest=interest).union(Value(satisfaction=satisfaction))
        assert set(composed.paths) == {"interest.state", "satisfaction.state"}

    def test_nested_value_flattens(self):
        v = Value(interest=Value(state=np.array([1.0])))
        assert v.paths == ("interest.state",)

    def test_round_trip_union_of_prefixed(self):
        a = Value(state=np.array([1.0]))
        b = Value(state=np.array([2.0]))
        u = Value(i=a).union(Value(s=b))
        got = u.get("s")
        np.testing.assert_array_equal(got.get("state").data, [2.0])

    def test_payload_normalization(self):
        v = Value(i=np.array([1, 2]), f=np.array([1.0]), d=Normal(0.0, 1.0))
        assert v.get("i").dtype == np.int64
        assert isinstance(v.get("f"), Tensor)
        assert isinstance(v.get("d"), Normal)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcxyz", min_size=1, max_size=6),
       st.lists(st.text(alphabet="abcde", min_size=1, max_size=4),
                min_size=1, max_size=4, unique=True))
def test_nested_value_then_get_is_identity(prefix, keys):
    v = Value.of({k: np.array([float(i)]) for i, k in enumerate(keys)})
    back = Value.of({prefix: v}).get(prefix)
    assert set(back.paths) == set(v.paths)
    for k in keys:
        np.testing.assert_array_equal(back.get(k).data, v.get(k).data)


class TestValueSpec:
    def test_conformance_checks_trailing_shape(self):
        spec = ValueSpec(x=FieldSpec((3,)))
        spec.check_value(Value(x=np.zeros((5, 3))), None, "here")
        with pytest.raises(CoreError, match="shape"):
            spec.check_value(Value(x=np.zeros((5, 4))), None, "here")

    def test_kind_mismatch_rejected(self):
        spec = ValueSpec(x=FieldSpec((), "integer"))
        with pytest.raises(CoreError, match="integer"):
            spec.check_value(Value(x=np.zeros(4)), None, "here")

    def test_missing_and_extra_fields_reported(self):
        spec = ValueSpec(x=FieldSpec(()))
        with pytest.raises(CoreError, match="missing"):
            spec.check_value(Value(y=np.zeros(4)), None, "here")

    def test_batch_uniformity_enforced(self):
        spec = ValueSpec(x=FieldSpec(()), y=FieldSpec(()))
        with pytest.raises(CoreError, match="batch"):
            spec.check_value(Value(x=np.zeros(4), y=np.zeros(5)), None, "here")


class TestNames:
    # "|" joins the parts of a stream key, so Variable "a|b" with field "c"
    # and Variable "a" with field "b|c" would draw from one random stream;
    # "." splits "variable.path" references.
    @pytest.mark.parametrize("name", ["a|b", "a.b"])
    def test_separator_in_variable_name_rejected(self, name):
        with pytest.raises(CoreError, match=re.escape(f"variable name {name!r}")):
            Variable(name, ValueSpec(x=FieldSpec(())))

    def test_bar_in_field_name_rejected(self):
        with pytest.raises(CoreError, match=re.escape("field name 'b|c'")):
            ValueSpec(**{"b|c": FieldSpec(())})


def _simple_var(name):
    v = Variable(name, ValueSpec(x=FieldSpec(())))
    v.bind_initial(lambda *a: Value(x=np.zeros(1)))
    v.bind_kernel(lambda *a: Value(x=np.zeros(1)))
    return v


class TestNetwork:
    def test_count_network_single_node_order(self):
        count = _simple_var("count")
        count.bind_kernel(lambda prev: Value(x=prev.get("x") + 1.0),
                          deps=(count.previous,))
        net = Network([count])
        assert [v.name for v in net.order] == ["count"]

    def test_current_mode_cycle_rejected(self):
        a, b = _simple_var("a"), _simple_var("b")
        a.bind_kernel(lambda bv: Value(x=np.zeros(1)), deps=(b,))
        b.bind_kernel(lambda av: Value(x=np.zeros(1)), deps=(a,))
        with pytest.raises(CoreError, match="cycle"):
            Network([a, b])

    def test_previous_mode_imposes_no_ordering(self):
        a, b = _simple_var("a"), _simple_var("b")
        a.bind_kernel(lambda bv: Value(x=np.zeros(1)), deps=(b.previous,))
        b.bind_kernel(lambda av: Value(x=np.zeros(1)), deps=(a.previous,))
        net = Network([a, b])
        assert [v.name for v in net.order] == ["a", "b"]

    def test_chain_orders_topologically(self):
        a, b, c = _simple_var("a"), _simple_var("b"), _simple_var("c")
        b.bind_kernel(lambda av: Value(x=np.zeros(1)), deps=(a,))
        c.bind_kernel(lambda bv: Value(x=np.zeros(1)), deps=(b,))
        net = Network([c, b, a])  # declaration order does not hide the chain
        assert [v.name for v in net.order] == ["a", "b", "c"]

    def test_all_three_node_dags_match_topo_oracle(self):
        # every DAG on 3 nodes via upper-triangular edge masks
        for mask in itertools.product([0, 1], repeat=3):
            names = ["a", "b", "c"]
            vs = {n: _simple_var(n) for n in names}
            edges = []  # (src, dst) with src before dst alphabetically
            pairs = [("a", "b"), ("a", "c"), ("b", "c")]
            for bit, (src, dst) in zip(mask, pairs):
                if bit:
                    edges.append((src, dst))
            for n in names:
                deps = tuple(vs[src] for src, dst in edges if dst == n)
                if deps:
                    vs[n].bind_kernel(lambda *a: Value(x=np.zeros(1)), deps=deps)
            net = Network([vs[n] for n in names])
            order = [v.name for v in net.order]
            # oracle: order must respect every edge
            for src, dst in edges:
                assert order.index(src) < order.index(dst)
            # determinism: rebuilt network gives the identical order
            net2 = Network([vs[n] for n in names])
            assert [v.name for v in net2.order] == order

    def test_dangling_dependency_rejected(self):
        a, ghost = _simple_var("a"), _simple_var("ghost")
        a.bind_kernel(lambda g: Value(x=np.zeros(1)), deps=(ghost,))
        with pytest.raises(CoreError, match="ghost"):
            Network([a])

    def test_initial_previous_dep_rejected(self):
        a = _simple_var("a")
        a.bind_initial(lambda p: Value(x=np.zeros(1)), deps=(a.previous,))
        with pytest.raises(CoreError, match="predecessor"):
            Network([a])

    def test_unbound_builders_fail_loudly(self):
        v = Variable("v", ValueSpec(x=FieldSpec(())))
        with pytest.raises(CoreError, match="no initial builder"):
            Network([v])
        v.bind_initial(lambda: Value(x=np.zeros(1)))
        with pytest.raises(CoreError, match="no kernel builder"):
            Network([v])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CoreError, match="duplicate"):
            Network([_simple_var("a"), _simple_var("a")])
