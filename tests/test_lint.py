"""Tests for the project linter (``repro.lint``).

Every rule gets a *positive* fixture (a file arranged in the directory
shape the rule scopes on, containing the violation) and a *suppressed*
or *exempt* negative.  Fixtures live under ``tmp_path`` — the rules
scope by path segment, so ``tmp_path/experiments/x.py`` is treated
exactly like ``src/repro/experiments/x.py``.
"""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.lint import SYNTAX_ERROR_ID, all_rules, run_lint
from repro.lint.cli import main
from repro.lint.rules import rule_catalog

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ALL_RULE_IDS = (
    "REP001",
    "REP004",
    "REP005",
    "REP006",
    "REP007",
    "REP008",
    "REP010",
    "REP011",
    "REP012",
    "REP013",
    "REP014",
    "REP015",
)


def write(root: pathlib.Path, rel: str, body: str) -> pathlib.Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


def lint(root: pathlib.Path, *select: str):
    return run_lint([root], select=list(select) or None)


def rule_ids(diagnostics) -> set:
    return {d.rule_id for d in diagnostics}


class TestRegistry:
    def test_all_rules_registered(self):
        assert tuple(all_rules()) == ALL_RULE_IDS

    def test_catalog_has_summaries(self):
        catalog = rule_catalog()
        assert set(catalog) == set(ALL_RULE_IDS)
        assert all(catalog.values())


class TestBroadExcept:
    BAD = """
        def f():
            try:
                g()
            except BaseException:
                pass
    """

    def test_flags_base_exception(self, tmp_path):
        write(tmp_path, "core/x.py", self.BAD)
        diags = lint(tmp_path, "REP001")
        assert rule_ids(diags) == {"REP001"}

    def test_flags_bare_and_exception_and_tuple(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            try:
                g()
            except:
                pass
            try:
                g()
            except Exception:
                pass
            try:
                g()
            except (ValueError, BaseException):
                pass
            """,
        )
        diags = lint(tmp_path, "REP001")
        assert len(diags) == 3

    def test_crashsim_and_faults_exempt(self, tmp_path):
        write(tmp_path, "crashsim/h.py", self.BAD)
        write(tmp_path, "storage/faults.py", self.BAD)
        assert lint(tmp_path, "REP001") == []

    def test_specific_exceptions_pass(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            try:
                g()
            except ValueError:
                pass
            """,
        )
        assert lint(tmp_path, "REP001") == []

    def test_suppression_comment(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            try:
                g()
            # lint: disable=REP001
            except BaseException:
                raise
            """,
        )
        assert lint(tmp_path, "REP001") == []


class TestDeterminism:
    def test_wall_clock_and_unseeded_rng_flagged(self, tmp_path):
        write(
            tmp_path,
            "experiments/exp.py",
            """
            import random
            import time

            def run():
                t = time.time()
                rng = random.Random()
                x = random.random()
                return t, rng, x
            """,
        )
        diags = lint(tmp_path, "REP004")
        assert len(diags) == 3

    def test_from_import_and_datetime_now(self, tmp_path):
        write(
            tmp_path,
            "workload/gen.py",
            """
            import datetime
            from time import time

            def run():
                return time(), datetime.datetime.now()
            """,
        )
        diags = lint(tmp_path, "REP004")
        assert len(diags) == 2

    def test_seeded_rng_and_cpu_clocks_pass(self, tmp_path):
        write(
            tmp_path,
            "experiments/exp.py",
            """
            import random
            import time

            def run(seed):
                rng = random.Random(seed)
                random.seed(0)
                return rng.random(), time.perf_counter()
            """,
        )
        assert lint(tmp_path, "REP004") == []

    def test_outside_scope_not_flagged(self, tmp_path):
        write(tmp_path, "core/x.py", "import time\nt = time.time()\n")
        assert lint(tmp_path, "REP004") == []


class TestMutableDefault:
    def test_flags_literals_and_ctors(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            def f(a=[], b={}, c=dict(), *, d=set()):
                return a, b, c, d
            """,
        )
        diags = lint(tmp_path, "REP005")
        assert len(diags) == 4

    def test_none_default_passes(self, tmp_path):
        write(tmp_path, "core/x.py", "def f(a=None, b=()):\n    return a, b\n")
        assert lint(tmp_path, "REP005") == []

    def test_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            "def f(a=[]):  # lint: disable=REP005\n    return a\n",
        )
        assert lint(tmp_path, "REP005") == []


class TestNoPrint:
    def test_flags_library_print(self, tmp_path):
        write(tmp_path, "storage/x.py", "print('hi')\n")
        assert len(lint(tmp_path, "REP006")) == 1

    def test_exempt_locations(self, tmp_path):
        write(tmp_path, "experiments/report.py", "print('table')\n")
        write(tmp_path, "core/__main__.py", "print('usage')\n")
        write(tmp_path, "core/cli.py", "print('usage')\n")
        assert lint(tmp_path, "REP006") == []


class TestObsPropagation:
    def test_flags_missing_attach_obs(self, tmp_path):
        write(
            tmp_path,
            "storage/thing.py",
            """
            class Thing:
                def __init__(self):
                    self._obs_reads = None
            """,
        )
        diags = lint(tmp_path, "REP007")
        assert len(diags) == 1
        assert "attach_obs" in diags[0].message

    def test_attach_obs_satisfies(self, tmp_path):
        write(
            tmp_path,
            "core/thing.py",
            """
            class Thing:
                def __init__(self):
                    self._obs_reads = None

                def attach_obs(self, obs):
                    self._obs_reads = None
            """,
        )
        assert lint(tmp_path, "REP007") == []

    def test_outside_scope_not_flagged(self, tmp_path):
        write(
            tmp_path,
            "workload/thing.py",
            """
            class Thing:
                def __init__(self):
                    self._obs_reads = None
            """,
        )
        assert lint(tmp_path, "REP007") == []


class TestNoAssert:
    def test_flags_runtime_assert(self, tmp_path):
        write(tmp_path, "core/x.py", "def f(x):\n    assert x > 0\n")
        assert len(lint(tmp_path, "REP008")) == 1

    def test_test_files_exempt(self, tmp_path):
        write(tmp_path, "core/test_x.py", "def f(x):\n    assert x > 0\n")
        write(tmp_path, "core/conftest.py", "assert True\n")
        assert lint(tmp_path, "REP008") == []

    def test_file_wide_suppression(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            # lint: disable-file=REP008
            def f(x):
                assert x > 0
                assert x < 9
            """,
        )
        assert lint(tmp_path, "REP008") == []


class TestEngine:
    def test_syntax_error_reported_not_crashing(self, tmp_path):
        write(tmp_path, "core/broken.py", "def f(:\n")
        diags = lint(tmp_path)
        assert [d.rule_id for d in diags] == [SYNTAX_ERROR_ID]

    def test_unknown_rule_id_raises(self, tmp_path):
        write(tmp_path, "core/x.py", "x = 1\n")
        with pytest.raises(ValueError, match="REP999"):
            run_lint([tmp_path], select=["REP999"])

    def test_diagnostics_sorted_and_rendered(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            "print('b')\ndef f(x):\n    assert x\n",
        )
        diags = lint(tmp_path)
        assert [d.line for d in diags] == sorted(d.line for d in diags)
        rendered = diags[0].render()
        assert "x.py:1:0: REP006" in rendered

    def test_pycache_skipped(self, tmp_path):
        write(tmp_path, "core/__pycache__/junk.py", "assert False\n")
        assert lint(tmp_path) == []


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "core/x.py", "x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one(self, tmp_path, capsys):
        write(tmp_path, "core/x.py", "def f(x):\n    assert x\n")
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "REP008" in captured.out
        assert "1 problem(s) found" in captured.err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write(tmp_path, "core/x.py", "x = 1\n")
        assert main([str(tmp_path), "--select", "NOPE"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_select_and_ignore(self, tmp_path):
        write(tmp_path, "core/x.py", "def f(x):\n    assert x\nprint(1)\n")
        assert main([str(tmp_path), "--select", "REP006"]) == 1
        assert main([str(tmp_path), "--ignore", "REP006,REP008"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out


class TestObsBoundInstruments:
    def test_flags_registry_call_outside_attach(self, tmp_path):
        write(
            tmp_path,
            "rtree/x.py",
            """
            def hot(self, reg):
                reg.counter("tree.queries").inc()
            """,
        )
        diags = lint(tmp_path, "REP010")
        assert rule_ids(diags) == {"REP010"}

    def test_flags_default_obs_lookup(self, tmp_path):
        write(
            tmp_path,
            "core/x.py",
            """
            from repro.obs import get_default_obs

            def hot(self):
                obs = get_default_obs()
                return obs
            """,
        )
        diags = lint(tmp_path, "REP010")
        assert rule_ids(diags) == {"REP010"}

    def test_attach_obs_binding_is_allowed(self, tmp_path):
        write(
            tmp_path,
            "storage/x.py",
            """
            class Pool:
                def attach_obs(self, obs):
                    reg = obs.registry
                    self._c_reads = reg.counter("disk.page_reads")

                def hot(self):
                    if self._c_reads is not None:
                        self._c_reads.inc()
            """,
        )
        assert lint(tmp_path, "REP010") == []

    def test_other_segments_exempt(self, tmp_path):
        write(
            tmp_path,
            "experiments/x.py",
            """
            def render(reg):
                return reg.counter("tables").value
            """,
        )
        assert lint(tmp_path, "REP010") == []


class TestRealTree:
    def test_project_source_is_clean(self):
        assert REPO_SRC.is_dir()
        assert run_lint([REPO_SRC]) == []
