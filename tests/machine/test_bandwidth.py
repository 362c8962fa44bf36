"""Tests for the data-movement (bandwidth) term of the simulator."""

import pytest

from repro.machine import MachineSpec, MachineSimulator
from repro.visibility.meter import TaskCost

from tests.conftest import make_fig1_tree


def make_sim(bandwidth=10e9, nodes=2):
    tree, _, _ = make_fig1_tree()
    spec = MachineSpec(bandwidth=bandwidth).with_nodes(nodes)
    return MachineSimulator(spec, tree)


EMPTY = TaskCost(counters={}, touches=())


class TestBandwidth:
    def test_data_bytes_charged_to_exec_pipeline(self):
        sim = make_sim(bandwidth=1e6)
        sim.begin_epoch()
        sim.process_task(EMPTY, origin=0, exec_node=1, data_bytes=1_000_000)
        elapsed = sim.end_epoch()
        # 1 MB over 1 MB/s dominates the task_run constant
        assert elapsed == pytest.approx(sim.spec.task_run + 1.0)

    def test_zero_bytes_default(self):
        sim = make_sim()
        sim.begin_epoch()
        sim.process_task(EMPTY, origin=0, exec_node=1)
        elapsed = sim.end_epoch()
        assert elapsed == pytest.approx(
            max(sim.spec.task_run, sim.spec.launch_overhead))

    def test_bandwidth_scales_transfer_time(self):
        slow = make_sim(bandwidth=1e6)
        fast = make_sim(bandwidth=1e9)
        for sim in (slow, fast):
            sim.begin_epoch()
            sim.process_task(EMPTY, origin=0, exec_node=1,
                             data_bytes=8_000_000)
        assert slow.end_epoch() > fast.end_epoch()

    def test_no_exec_node_no_transfer(self):
        sim = make_sim(bandwidth=1.0)  # pathologically slow link
        sim.begin_epoch()
        sim.process_task(EMPTY, origin=0, exec_node=None, data_bytes=10**9)
        assert sim.end_epoch() < 1.0  # nothing charged to execution
