"""Unit/integration tests for the event-driven executor."""

import numpy as np
import pytest

from repro.errors import LaunchError, WorkloadError
from repro.gpusim.config import FERMI_C2050, KEPLER_K20
from repro.gpusim.executor import GpuExecutor
from repro.gpusim.kernels import KernelCosts, Launch, LaunchGraph


def _launch(name="k", blocks=None, block_size=64, tail=0.0, floor=None, **kw):
    if blocks is None:
        blocks = [1000.0]
    return Launch(
        name=name,
        block_size=block_size,
        costs=KernelCosts(
            block_cycles=np.array(blocks, dtype=float),
            block_floor=None if floor is None else np.array(floor, dtype=float),
            serial_tail=tail,
        ),
        **kw,
    )


def _run(*launches, config=KEPLER_K20, **kw):
    graph = LaunchGraph()
    for l in launches:
        graph.add(l)
    return GpuExecutor(config, **kw).run(graph), graph


class TestBasicExecution:
    def test_empty_graph(self):
        result = GpuExecutor(KEPLER_K20).run(LaunchGraph())
        assert result.cycles == 0.0
        assert result.n_launches == 0

    def test_single_block_duration(self):
        result, _ = _run(_launch(blocks=[10_000.0]))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 10_000.0)

    def test_blocks_spread_over_sms(self):
        # 13 equal blocks on 13 SMs run concurrently
        result, _ = _run(_launch(blocks=[5000.0] * 13))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 5000.0)

    def test_processor_sharing_within_sm(self):
        # 26 equal blocks: 2 per SM sharing issue bandwidth -> 2x duration
        result, _ = _run(_launch(blocks=[5000.0] * 26))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 10_000.0)

    def test_single_large_block_underutilizes(self):
        # one huge block: the paper's block-level imbalance story
        result, _ = _run(_launch(blocks=[13_000.0] + [10.0] * 12))
        assert result.sm_utilization < 0.15

    def test_floor_enforced(self):
        result, _ = _run(_launch(blocks=[100.0], floor=[50_000.0]))
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 50_000.0)

    def test_serial_tail_extends_kernel(self):
        r1, _ = _run(_launch(blocks=[100.0]))
        r2, _ = _run(_launch(blocks=[100.0], tail=9000.0))
        assert r2.cycles == pytest.approx(r1.cycles + 9000.0)

    def test_zero_work_blocks_complete(self):
        result, _ = _run(_launch(blocks=[0.0, 0.0, 0.0]))
        assert result.cycles > 0  # just the launch overhead
        assert result.n_launches == 1

    def test_records_disabled_by_default(self):
        result, _ = _run(_launch())
        assert result.records == []

    def test_records_enabled(self):
        result, _ = _run(_launch(name="probe"), record_timeline=True)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.name == "probe"
        assert rec.end_cycles > rec.start_cycles


class TestStreams:
    def test_same_stream_serializes(self):
        a = _launch(name="a", blocks=[8000.0], stream=0)
        b = _launch(name="b", blocks=[8000.0], stream=0)
        result, _ = _run(a, b)
        assert result.cycles > 16_000.0

    def test_different_streams_overlap(self):
        a = _launch(name="a", blocks=[8000.0], stream=0)
        b = _launch(name="b", blocks=[8000.0], stream=1)
        result, _ = _run(a, b)
        overhead = KEPLER_K20.us_to_cycles(KEPLER_K20.host_launch_overhead_us)
        assert result.cycles == pytest.approx(overhead + 8000.0, rel=0.01)

    def test_stream_order_preserved(self):
        launches = [
            _launch(name=f"k{i}", blocks=[1000.0], stream=0) for i in range(4)
        ]
        result, _ = _run(*launches, record_timeline=True)
        starts = {r.name: r.start_cycles for r in result.records}
        assert starts["k0"] < starts["k1"] < starts["k2"] < starts["k3"]


class TestDynamicParallelism:
    def test_child_runs_after_parent_block(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="parent", blocks=[1000.0]))
        graph.add(_launch(name="child", blocks=[500.0], parent=parent))
        result = GpuExecutor(KEPLER_K20, record_timeline=True).run(graph)
        recs = {r.name: r for r in result.records}
        assert recs["child"].start_cycles >= recs["parent"].end_cycles - 1e-6
        assert result.n_device_launches == 1

    def test_children_overlap_remaining_parent_blocks(self):
        # Parent has one fast block (issues child) and one slow block;
        # the child should start long before the slow block finishes.
        graph = LaunchGraph()
        parent = graph.add(_launch(name="parent", blocks=[100.0, 500_000.0]))
        graph.add(_launch(name="child", blocks=[100.0], parent=parent,
                          parent_block=0))
        result = GpuExecutor(KEPLER_K20, record_timeline=True).run(graph)
        recs = {r.name: r for r in result.records}
        assert recs["child"].end_cycles < recs["parent"].end_cycles

    def test_launch_overhead_dominates_small_children(self):
        # 100 tiny children each pay GMU service + latency
        graph = LaunchGraph()
        parent = graph.add(_launch(name="parent", blocks=[100.0]))
        graph.add(_launch(name="child", blocks=[1.0], parent=parent,
                          count=100, device_stream=1))
        # separate graph: one child doing all the work at once
        graph2 = LaunchGraph()
        parent2 = graph2.add(_launch(name="parent", blocks=[100.0]))
        graph2.add(_launch(name="bigchild", blocks=[100.0], parent=parent2))
        many = GpuExecutor(KEPLER_K20).run(graph)
        one = GpuExecutor(KEPLER_K20).run(graph2)
        assert many.cycles > 5 * one.cycles

    def test_same_device_stream_serializes_children(self):
        def build(streams):
            graph = LaunchGraph()
            parent = graph.add(_launch(name="p", blocks=[100.0]))
            for i in range(8):
                graph.add(_launch(
                    name=f"c{i}", blocks=[200_000.0], parent=parent,
                    device_stream=i % streams,
                ))
            return graph
        serial = GpuExecutor(KEPLER_K20).run(build(1))
        concurrent = GpuExecutor(KEPLER_K20).run(build(8))
        assert serial.cycles > 3 * concurrent.cycles

    def test_parent_completion_waits_for_children(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="p", blocks=[100.0], stream=0))
        graph.add(_launch(name="c", blocks=[900_000.0], parent=parent))
        graph.add(_launch(name="after", blocks=[10.0], stream=0))
        result = GpuExecutor(KEPLER_K20, record_timeline=True).run(graph)
        recs = {r.name: r for r in result.records}
        assert recs["after"].start_cycles >= recs["c"].end_cycles - 1e-6

    def test_fermi_rejects_device_launches(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="p", blocks=[100.0]))
        graph.add(_launch(name="c", blocks=[100.0], parent=parent))
        with pytest.raises(LaunchError, match="dynamic parallelism"):
            GpuExecutor(FERMI_C2050).run(graph)

    def test_instance_limit(self):
        graph = LaunchGraph()
        parent = graph.add(_launch(name="p", blocks=[100.0]))
        graph.add(_launch(name="c", blocks=[1.0], parent=parent, count=100))
        with pytest.raises(LaunchError, match="instance limit"):
            GpuExecutor(KEPLER_K20, max_launch_instances=50).run(graph)

    def test_nesting_depth_validated(self):
        shallow = KEPLER_K20.replace(max_launch_depth=1)
        graph = LaunchGraph()
        a = graph.add(_launch(name="a", blocks=[10.0]))
        b = graph.add(_launch(name="b", blocks=[10.0], parent=a))
        graph.add(_launch(name="c", blocks=[10.0], parent=b))
        with pytest.raises(LaunchError, match="nesting depth"):
            GpuExecutor(shallow).run(graph)


    def test_nesting_depth_boundary(self):
        """Depth == max_launch_depth runs; one level deeper is rejected."""
        shallow = KEPLER_K20.replace(max_launch_depth=2)
        graph = LaunchGraph()
        a = graph.add(_launch(name="a", blocks=[10.0]))
        b = graph.add(_launch(name="b", blocks=[10.0], parent=a))
        c = graph.add(_launch(name="c", blocks=[10.0], parent=b))
        # a second host tree restarts the depth count at 0
        d = graph.add(_launch(name="d", blocks=[10.0]))
        graph.add(_launch(name="e", blocks=[10.0], parent=d))
        assert GpuExecutor(shallow).run(graph).n_launches == 5
        graph.add(_launch(name="f", blocks=[10.0], parent=c))
        with pytest.raises(LaunchError, match="nesting depth 2"):
            GpuExecutor(shallow).run(graph)


class TestKernelCosts:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("where", ["cycles", "floor", "serial_tail"])
    def test_rejects_non_finite_or_negative(self, where, bad):
        """Bad values fail at construction: a NaN block would never
        retire and an inf one would make the run's time inf."""
        cycles = np.array([100.0, 100.0])
        floor = np.array([10.0, 10.0])
        tail = 0.0
        if where == "cycles":
            cycles[1] = bad
        elif where == "floor":
            floor[1] = bad
        else:
            tail = bad
        with pytest.raises(WorkloadError, match="finite and non-negative"):
            KernelCosts(block_cycles=cycles, block_floor=floor,
                        serial_tail=tail)
        if where != "serial_tail":
            with pytest.raises(WorkloadError, match="finite and non-negative"):
                KernelCosts.split(cycles, floor, [1, 2])

    def test_split_equals_per_launch_costs(self):
        # the (2.0, 1.0) run crosses the first launch boundary and the
        # (3.0, 0.0) run the second: neither may span launches
        cycles = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        floor = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        ends = [2, 4, 5, 7]
        pieces = KernelCosts.split(cycles, floor, ends)
        assert len(pieces) == len(ends)
        start = 0
        for got, end in zip(pieces, ends):
            want = KernelCosts(block_cycles=cycles[start:end],
                               block_floor=floor[start:end])
            np.testing.assert_array_equal(got.block_cycles, want.block_cycles)
            np.testing.assert_array_equal(got.block_floor, want.block_floor)
            assert got.serial_tail == want.serial_tail
            assert got.n_blocks == end - start
            assert got.block_runs() == want.block_runs()
            start = end
        assert pieces[1].block_runs() == ([2], [2.0], [1.0])
        assert pieces[2].block_runs() == ([1], [3.0], [0.0])

    @pytest.mark.parametrize("ends", [[2, 2, 4], [0, 4], [1, 3], [], [4, 2, 4]],
                             ids=["empty-middle", "empty-first", "short",
                                  "none", "decreasing"])
    def test_split_rejects_bad_pieces(self, ends):
        with pytest.raises(WorkloadError):
            KernelCosts.split(np.ones(4), np.zeros(4), ends)


class TestLaunchGraphValidation:
    def test_unknown_parent_rejected(self):
        graph = LaunchGraph()
        with pytest.raises(LaunchError, match="unknown parent"):
            graph.add(_launch(parent=5))

    def test_parent_block_out_of_range(self):
        graph = LaunchGraph()
        p = graph.add(_launch(blocks=[1.0]))
        with pytest.raises(LaunchError, match="block"):
            graph.add(_launch(parent=p, parent_block=3))

    def test_bulk_host_launch_rejected(self):
        graph = LaunchGraph()
        graph.add(_launch(count=4))
        with pytest.raises(LaunchError, match="bulk"):
            GpuExecutor(KEPLER_K20).run(graph)

    def test_counters_aggregate_includes_replicas(self):
        graph = LaunchGraph()
        p = graph.add(_launch(name="p", blocks=[10.0]))
        child = _launch(name="c", blocks=[1.0], parent=p, count=10)
        child.counters.host_launches = 0
        child.counters.device_launches = 1
        graph.add(child)
        agg = graph.aggregate_counters()
        assert agg.device_launches == 10


class TestUtilization:
    def test_full_utilization_many_blocks(self):
        result, _ = _run(_launch(blocks=[100_000.0] * 130))
        assert result.sm_utilization > 0.9

    def test_conservation_of_work(self):
        blocks = [1234.0, 777.0, 2.0, 90_000.0]
        result, _ = _run(_launch(blocks=blocks))
        assert result.sm_busy_cycles == pytest.approx(sum(blocks), rel=1e-6)
