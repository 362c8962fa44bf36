"""Tests for machine specs and the cost model."""

import pytest

from repro import MachineError
from repro.machine import CostModel, DEFAULT_WEIGHTS, MachineSpec
from repro.visibility.meter import TaskCost


class TestMachineSpec:
    def test_defaults_valid(self):
        spec = MachineSpec()
        assert spec.nodes == 1

    def test_validation(self):
        with pytest.raises(MachineError):
            MachineSpec(nodes=0)
        with pytest.raises(MachineError):
            MachineSpec(latency=-1.0)
        with pytest.raises(MachineError):
            MachineSpec(task_run=-0.1)

    def test_with_nodes(self):
        spec = MachineSpec(latency=5e-6)
        scaled = spec.with_nodes(64)
        assert scaled.nodes == 64
        assert scaled.latency == 5e-6
        assert spec.nodes == 1  # original untouched


class TestCostModel:
    def test_known_weights(self):
        model = CostModel()
        cost = TaskCost(counters={"entries_scanned": 10,
                                  "eqsets_split": 2}, touches=())
        want = 10 * DEFAULT_WEIGHTS["entries_scanned"] \
            + 2 * DEFAULT_WEIGHTS["eqsets_split"]
        assert model.ops(cost) == want

    def test_unknown_events_not_free(self):
        model = CostModel()
        cost = TaskCost(counters={"brand_new_event": 5}, touches=())
        assert model.ops(cost) == 5 * model.default_weight

    def test_seconds(self):
        model = CostModel(weights={"e": 2.0})
        cost = TaskCost(counters={"e": 3}, touches=())
        assert model.seconds(cost, analysis_op=1e-6) == pytest.approx(6e-6)

    def test_total_ops(self):
        cost = TaskCost(counters={"a": 1, "b": 2}, touches=(1,))
        assert cost.total_ops == 3
