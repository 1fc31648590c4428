"""Tests for the experiment-harness measurement containers and helpers."""

import pytest

from repro.experiments.harness import ExperimentResult, Measurement
from repro.storage.iostats import IOSnapshot


class TestUpdateMeasurement:
    def test_per_update_averages(self):
        m = Measurement(
            updates=100,
            io=IOSnapshot(leaf_reads=110, leaf_writes=120, log_writes=50),
            cpu_seconds=0.25,
        )
        assert m.io_per_operation == pytest.approx(2.8)  # includes the log
        assert m.leaf_io_per_operation == pytest.approx(2.3)
        assert m.cpu_ms_per_operation == pytest.approx(2.5)

    def test_zero_updates(self):
        m = Measurement(updates=0, io=IOSnapshot(), cpu_seconds=0.0)
        assert m.io_per_operation == 0.0
        assert m.leaf_io_per_operation == 0.0
        assert m.cpu_ms_per_operation == 0.0

    def test_index_io_counted(self):
        m = Measurement(
            updates=10,
            io=IOSnapshot(leaf_reads=10, leaf_writes=10, index_reads=10,
                          index_writes=5),
            cpu_seconds=0.0,
        )
        # The FUR-tree's secondary-index traffic is part of its update cost.
        assert m.io_per_operation == pytest.approx(3.5)


class TestQueryAndTraceMeasurement:
    def test_query_average(self):
        m = Measurement(
            queries=50, io=IOSnapshot(leaf_reads=150), cpu_seconds=0.0
        )
        assert m.io_per_operation == pytest.approx(3.0)

    def test_zero_queries(self):
        m = Measurement(queries=0, io=IOSnapshot(), cpu_seconds=0.0)
        assert m.io_per_operation == 0.0

    def test_trace_average(self):
        m = Measurement(
            updates=15,
            queries=5,
            io=IOSnapshot(leaf_reads=30, leaf_writes=10),
        )
        assert m.operations == 20
        assert m.io_per_operation == pytest.approx(2.0)

    def test_zero_trace(self):
        m = Measurement(IOSnapshot())
        assert m.operations == 0
        assert m.io_per_operation == 0.0


class TestExperimentResult:
    def test_column(self):
        result = ExperimentResult("x", "y")
        result.rows = [{"a": 1}, {"a": 2}]
        assert result.column("a") == [1, 2]
