"""Tests for the experiment CLI, its registry and the plain-text reporting
helpers."""

import pathlib

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.registry import ARCHIVED, EXPERIMENTS
from repro.experiments.report import format_table, format_value, series_table

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestFormatValue:
    def test_floats(self):
        assert format_value(0.0) == "0"
        assert format_value(0.12345) == "0.123"
        assert format_value(12.345) == "12.3"
        assert format_value(1234.5) == "1,234"

    def test_ints(self):
        assert format_value(7) == "7"
        assert format_value(12345) == "12,345"

    def test_strings(self):
        assert format_value("abc") == "abc"


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["a", "bb"], [[1, 2.5], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # Right-aligned: values end at the same column as the header.
        assert lines[0].endswith("bb")

    def test_empty_rows(self):
        text = format_table(["x", "y"], [])
        assert "x" in text and "y" in text


def _result():
    result = ExperimentResult("Exp", "demo")
    result.rows = [
        {"x": 1, "tree": "A", "io": 2.0},
        {"x": 1, "tree": "B", "io": 3.0},
        {"x": 2, "tree": "A", "io": 2.5},
        {"x": 2, "tree": "B", "io": 3.5},
    ]
    return result


class TestSeriesTable:
    def test_pivot_shape(self):
        text = series_table(_result(), "x", "tree", "io")
        lines = text.splitlines()
        assert lines[0].split() == ["x", "A", "B"]
        assert lines[2].split() == ["1", "2.000", "3.000"]
        assert lines[3].split() == ["2", "2.500", "3.500"]

    def test_missing_cells_blank(self):
        result = _result()
        del result.rows[3]
        text = series_table(result, "x", "tree", "io")
        assert "2.500" in text

    def test_column_accessor(self):
        assert _result().column("io") == [2.0, 3.0, 2.5, 3.5]


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig10", "fig16", "table2", "extensions"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nope"])

    def test_run_one(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        assert main(["fig15"]) == 0
        out = capsys.readouterr().out
        title = (RESULTS / "fig15_logging.txt").read_text().splitlines()[0]
        assert f"\n{title}\n" in out
        assert "option" in out
        assert "III" in out
        assert "finished" in out

    def test_run_cost(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "measured_io" in out
        assert "memo-based" in out


class TestRegistry:
    def test_one_table_per_archive_file(self):
        files = sorted(p.stem for p in RESULTS.glob("*.txt"))
        assert sorted(table.archive for table in ARCHIVED) == files

    def test_archives_carry_the_registry_titles(self):
        for table in ARCHIVED:
            text = (RESULTS / f"{table.archive}.txt").read_text()
            titles = text.rstrip("\n").split("\n\n")[0::2]
            assert titles == [s.title for s in table.sections]

    def test_names_unique(self):
        names = [e.name for e in EXPERIMENTS]
        assert len(names) == len(set(names)) == 17
