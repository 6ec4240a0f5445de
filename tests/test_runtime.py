import csv
import io
import tracemalloc

import numpy as np
import pytest

import ecosim.tensor as T
from ecosim.core import FieldSpec, Network, Value, ValueSpec, Variable
from ecosim.dist import Categorical, Deterministic, Normal
from ecosim.logprob import LogProbError, trajectory_log_prob_rows
from ecosim.runtime import (SimulationError, Trajectory, execute, export_trajectory,
                            trajectory)
from ecosim.scenarios import PorlConfig, build_porl_story
from ecosim.tensor import Tensor


def array(payload):
    return payload.data if isinstance(payload, Tensor) else payload


def count_network(batch=1):
    count = Variable("count", ValueSpec(n=FieldSpec((), "integer")))
    count.bind_initial(lambda: Value(n=np.zeros(batch, np.int64)))
    count.bind_kernel(lambda prev: Value(n=prev.get("n") + 1),
                      deps=(count.previous,))
    return Network([count])


def gaussian_walk(batch, drift=0.0, scale=1.0):
    walk = Variable("walk", ValueSpec(x=FieldSpec(())))
    walk.bind_initial(lambda: Value(x=Normal(Tensor(np.zeros(batch)), scale)))
    walk.bind_kernel(lambda prev: Value(x=Normal(T.add(prev.get("x"), drift), scale)),
                     deps=(walk.previous,))
    return Network([walk])


class TestTrajectory:
    def test_count_semantics(self):
        traj = trajectory(count_network(), 5, seed=0)
        values = [int(traj.value("count", t).get("n")[0]) for t in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_all_deterministic_network_is_seed_independent(self):
        a = trajectory(count_network(), 6, seed=1)
        b = trajectory(count_network(), 6, seed=999)
        for t in range(6):
            np.testing.assert_array_equal(a.value("count", t).get("n"),
                                          b.value("count", t).get("n"))

    def test_fixed_seed_is_bit_identical(self):
        a = trajectory(gaussian_walk(8), 10, seed=3)
        b = trajectory(gaussian_walk(8), 10, seed=3)
        for t in range(10):
            np.testing.assert_array_equal(a.value("walk", t).get("x").data,
                                          b.value("walk", t).get("x").data)

    def test_markov_chain_transition_frequencies(self):
        # 2-state chain, known transition matrix, 50k trajectories of length 2
        p_init = np.array([0.6, 0.4])
        p_trans = np.array([[0.8, 0.2], [0.3, 0.7]])
        n = 50_000
        state = Variable("state", ValueSpec(s=FieldSpec((), "integer")))
        state.bind_initial(lambda: Value(
            s=Categorical(Tensor(np.tile(np.log(p_init), (n, 1))))))
        state.bind_kernel(lambda prev: Value(
            s=Categorical(Tensor(np.log(p_trans)[np.asarray(prev.get("s"))]))),
            deps=(state.previous,))
        traj = trajectory(Network([state]), 2, seed=11)
        s0 = np.asarray(traj.value("state", 0).get("s"))
        s1 = np.asarray(traj.value("state", 1).get("s"))
        for i in range(2):
            rows = s1[s0 == i]
            for j in range(2):
                p = p_trans[i, j]
                band = 3 * np.sqrt(p * (1 - p) / rows.size)
                assert abs((rows == j).mean() - p) < band

    def test_spec_violation_names_variable_path_step(self):
        bad = Variable("bad", ValueSpec(x=FieldSpec((2,))))
        bad.bind_initial(lambda: Value(x=np.zeros((1, 2))))
        bad.bind_kernel(lambda prev: Value(x=np.zeros((1, 3))),
                        deps=(bad.previous,))
        with pytest.raises(SimulationError, match="'bad' at step 1.*'x'"):
            trajectory(Network([bad]), 2, seed=0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            trajectory(count_network(), 0, seed=0)

    def test_carried_field_is_stored_once_with_time_stride_zero(self):
        v = Variable("v", ValueSpec(c=FieldSpec((2,)), x=FieldSpec(())))
        v.bind_initial(lambda: Value(c=np.ones((3, 2)), x=Normal(Tensor(np.zeros(3)), 1.0)))
        v.bind_kernel(lambda p: Value(c=p.get("c"), x=Normal(p.get("x"), 1.0)),
                      deps=(v.previous,))
        traj = trajectory(Network([v]), 4, seed=0)
        carried, walked = traj.fields["v"]["c"].data, traj.fields["v"]["x"].data
        assert carried.shape == (4, 3, 2) and carried.strides[0] == 0
        assert np.shares_memory(carried, traj.value("v", 0).get("c").data)
        assert walked.shape == (4, 3) and walked.flags.c_contiguous

    def test_record_and_its_observed_copy_peak_near_what_the_record_holds(self):
        # The sampler holds the record, the sampled slice before the one it
        # builds, and the slice being built with its temporaries.  The
        # observed copy adds nothing.
        cfg = PorlConfig()
        net, _, _ = build_porl_story(cfg)
        tracemalloc.start()
        try:
            traj = trajectory(net, cfg.horizon, 0)
            obs = Trajectory.from_trajectory(net, traj, hold_out=[("choice", "choice")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [array(p) for name in traj.specs for _, p in traj.value(name, 0).items()]
        arrays += [array(stack) for fields in traj.fields.values()
                   for stack in fields.values() if array(stack).flags.writeable]
        held = sum(a.nbytes for a in {id(a): a for a in arrays}.values())
        assert obs.held_out() == {("choice", "choice")}
        assert peak <= 1.2 * held


def walk_with_kernel(fault=None):
    """A walk of Variable "w" whose kernel builder breaks the builder output
    contract as ``fault`` names, or keeps it when ``fault`` is None."""
    kernels = {
        None: lambda prev: Value(x=Normal(prev.get("x"), 1.0)),
        "dict": lambda prev: {"x": Normal(prev.get("x"), 1.0)},
        "missing": lambda prev: Value(),
        "extra": lambda prev: Value(x=Normal(prev.get("x"), 1.0), y=prev.get("x")),
        "deterministic": lambda prev: Value(x=Deterministic(prev.get("x"))),
    }
    w = Variable("w", ValueSpec(x=FieldSpec(())))
    w.bind_initial(lambda: Value(x=Normal(Tensor(np.zeros(3)), 1.0)))
    w.bind_kernel(kernels[fault], deps=(w.previous,))
    return Network([w])


@pytest.mark.parametrize("fault, message", [
    ("dict", "returned dict, expected Value"),
    ("missing", r"missing \['x'\], unexpected \[\]"),
    ("extra", r"missing \[\], unexpected \['y'\]"),
    ("deterministic", "field 'x' is a Deterministic; emit the payload itself"),
], ids=["dict", "missing", "extra", "deterministic"])
@pytest.mark.parametrize("mode", ["trajectory", "trajectory_log_prob_rows"])
def test_sampler_and_scorer_hold_builders_to_one_output_contract(mode, fault, message):
    net = walk_with_kernel(fault)
    if mode == "trajectory":
        error, where = SimulationError, "step 1"
        run = lambda: trajectory(net, 3, seed=0)
    else:
        error, where = LogProbError, r"steps 1\.\.2"
        good = walk_with_kernel()
        observed = Trajectory.from_trajectory(good, trajectory(good, 3, seed=0))
        run = lambda: trajectory_log_prob_rows(net, observed, 2)
    with pytest.raises(error, match=rf"variable 'w' at {where}: .*{message}"):
        run()


class TestExecute:
    def test_count_reaches_num_steps(self):
        final = execute(count_network(), 10, seed=0)
        assert int(final["count"].get("n")[0]) == 10

    def test_zero_steps_returns_initial_slice(self):
        final = execute(count_network(), 0, seed=0)
        assert int(final["count"].get("n")[0]) == 0

    def test_equivalent_to_trajectory_last_slice(self):
        rng = np.random.default_rng(0)
        for seed in rng.integers(0, 2**31, size=5):
            for steps in (0, 1, 4):
                net = gaussian_walk(6, drift=0.1)
                via_execute = execute(net, steps, int(seed))
                via_traj = trajectory(net, steps + 1, int(seed)).value("walk", -1)
                np.testing.assert_array_equal(
                    via_execute["walk"].get("x").data,
                    via_traj.get("x").data)


class TestBatchSemantics:
    def test_batched_equals_independent_single_rows(self):
        batched = trajectory(gaussian_walk(5, drift=0.2), 6, seed=17)
        for row in range(5):
            solo = trajectory(gaussian_walk(1, drift=0.2), 6, seed=17,
                              row_offset=row)
            for t in range(6):
                np.testing.assert_array_equal(
                    batched.value("walk", t).get("x").data[row:row + 1],
                    solo.value("walk", t).get("x").data)

    def test_markov_splice_statistics(self):
        ks_2samp = pytest.importorskip("scipy.stats").ks_2samp
        # Re-simulating forward from an intermediate slice with fresh keyed
        # streams is statistically indistinguishable from whole runs.
        n, horizon, split = 10_000, 8, 4
        whole = trajectory(gaussian_walk(n), horizon, seed=5)
        spliced_start = whole.value("walk", split - 1).get("x").data.copy()
        resumed = Variable("walk", ValueSpec(x=FieldSpec(())))
        resumed.bind_initial(lambda: Value(x=Tensor(spliced_start)))
        resumed.bind_kernel(lambda prev: Value(x=Normal(prev.get("x"), 1.0)),
                            deps=(resumed.previous,))
        tail = trajectory(Network([resumed]), horizon - split + 1, seed=77)
        final_whole = whole.value("walk", horizon - 1).get("x").data
        final_spliced = tail.value("walk", horizon - split).get("x").data
        assert ks_2samp(final_whole, final_spliced).pvalue > 0.01


class TestCsvExport:
    def test_schema_header_and_columns(self, tmp_path):
        traj = trajectory(count_network(), 3, seed=0)
        [path] = export_trajectory(traj, tmp_path)
        assert path == tmp_path / "count.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=trajectory/1"
        assert lines[1] == "step,batch,n"
        assert lines[2] == "0,0,0"
        assert lines[-1] == "2,0,2"

    def test_event_axes_flattened_into_columns(self, tmp_path):
        net = Variable("v", ValueSpec(m=FieldSpec((2, 2))))
        net.bind_initial(lambda: Value(m=np.arange(4.0).reshape(1, 2, 2)))
        net.bind_kernel(lambda p: Value(m=p.get("m")), deps=(net.previous,))
        files = export_trajectory(trajectory(Network([net]), 2, seed=0), tmp_path)
        text = files[0].read_text()
        assert "m[0.0],m[0.1],m[1.0],m[1.1]" in text.splitlines()[1]

    def test_batch_zero_writes_schema_and_header_only(self, tmp_path):
        traj = trajectory(count_network(batch=0), 3, seed=0)
        [path] = export_trajectory(traj, tmp_path)
        assert path.read_bytes() == b"# schema=trajectory/1\nstep,batch,n\n"

    def test_matches_per_value_formatting_on_edge_values(self, tmp_path):
        batch = 7
        edges = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1e16])
        extremes = np.array([-2**63, 2**63 - 1, 0, -1, 1, 7, 42], np.int64)
        v = Variable("v", ValueSpec(f=FieldSpec(()), i=FieldSpec((), "integer"),
                                    m=FieldSpec((2, 2)), c=FieldSpec(()),
                                    z=FieldSpec(())))
        v.bind_initial(lambda: Value(
            f=edges, i=extremes, m=np.arange(4.0 * batch).reshape(batch, 2, 2) / 3,
            c=Tensor(np.linspace(-1.0, 1.0, batch)), z=np.zeros(batch)))
        v.bind_kernel(lambda p: Value(
            f=-p.get("f").data[::-1], i=np.roll(p.get("i"), 1), m=T.mul(p.get("m"), 0.5),
            c=p.get("c"),                    # carried by identity
            z=-p.get("z").data),             # flips 0.0 / -0.0: equal, not identical
            deps=(v.previous,))
        traj = trajectory(Network([v]), 4, seed=0, row_offset=5)
        assert traj.fields["v"]["c"].data.strides[0] == 0
        [path] = export_trajectory(traj, tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text == per_value_csv(traj, "v")
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert rows[0][:4] == ["0", "5", "-0.0", "-9223372036854775808"]
        assert [row[-1] for row in rows[::batch]] == ["0.0", "-0.0", "0.0", "-0.0"]

    @pytest.mark.parametrize("batch", [0, 3])
    def test_integer_fields_match_per_value_formatting(self, tmp_path, batch):
        v = Variable("v", ValueSpec(i=FieldSpec((), "integer"),
                                    e=FieldSpec((2, 3), "integer")))
        v.bind_initial(lambda: Value(i=np.arange(batch) - 1,
                                     e=np.arange(6 * batch).reshape(batch, 2, 3) * -7))
        v.bind_kernel(lambda p: Value(i=p.get("i") * 1000, e=p.get("e") + 1),
                      deps=(v.previous,))
        traj = trajectory(Network([v]), 3, seed=0)
        [path] = export_trajectory(traj, tmp_path)
        assert path.read_text(encoding="utf-8") == per_value_csv(traj, "v")

    def test_export_peak_stays_small_beside_the_record(self, tmp_path):
        # 100 steps of 10 rows of 1,000 floats: an 8 MB record and 18 MB of
        # text, formatted a bounded group of steps at a time.
        v = Variable("v", ValueSpec(x=FieldSpec((1000,))))
        v.bind_initial(lambda: Value(x=np.random.default_rng(0).normal(size=(10, 1000))))
        v.bind_kernel(lambda p: Value(x=p.get("x").data + 0.5), deps=(v.previous,))
        traj = trajectory(Network([v]), 100, seed=0)
        tracemalloc.start()
        try:
            [path] = export_trajectory(traj, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 18e6
        assert peak < 8 * 2**20


def per_value_csv(traj, variable):
    """The export as formatted one value at a time through csv.writer,
    reading each step's row of the record's stacks."""
    def fmt(x):
        return str(int(x)) if isinstance(x, (np.integer, int)) else repr(float(x))

    stacks = {path: array(stack) for path, stack in traj.fields[variable].items()}
    header = ["step", "batch"]
    for path, stack in stacks.items():
        event = stack.shape[2:]
        header += [f"{path}[{'.'.join(map(str, idx))}]" for idx in np.ndindex(*event)] \
            if event else [path]
    buf = io.StringIO()
    buf.write("# schema=trajectory/1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for t in range(traj.steps):
        flats = [stack[t].reshape(traj.batch, int(np.prod(stack.shape[2:])))
                 for stack in stacks.values()]
        for b in range(traj.batch):
            row = [str(t), str(b + traj.row_offset)]
            for arr in flats:
                row.extend(fmt(x) for x in arr[b])
            writer.writerow(row)
    return buf.getvalue()
