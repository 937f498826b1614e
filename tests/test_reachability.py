"""The reachability census (tools/reachability.py) on a synthetic package.

Four functions, one per case the census must tell apart: called by a
workload, called only from tests, never called, and called only inside a
``multiprocessing`` spawn child -- the last guards the ``sitecustomize``
hook that follows a population into the processes it starts.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULE = textwrap.dedent(
    """\
    import multiprocessing


    def workload_function():
        return 1


    def test_only_function():
        return 2


    def never_called_function():
        return 3


    def spawn_child_function():
        return 4


    def run_in_spawn_child():
        process = multiprocessing.get_context("spawn").Process(target=spawn_child_function)
        process.start()
        process.join(30)
        return process.exitcode
    """
)


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "tools" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_census_sorts_each_function_into_its_class(reachability, tmp_path):
    package = tmp_path / "src" / "synthetic"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    python = sys.executable
    populations = [
        reachability.Population("tests", "test", (
            (python, "-c", "from synthetic import mod; mod.test_only_function(); mod.workload_function()"),
        )),
        reachability.Population("workload", "workload", (
            (python, "-c", "from synthetic import mod; mod.workload_function(); "
                           "assert mod.run_in_spawn_child() == 0"),
        )),
    ]
    result = reachability.census(package, populations)
    assert result.failures == []
    classes = {key.rpartition("::")[2]: cls for key, cls in result.classes.items()}
    assert classes == {
        "workload_function": reachability.WORKLOAD,
        "test_only_function": reachability.TEST_ONLY,
        "never_called_function": reachability.NEVER,
        "spawn_child_function": reachability.WORKLOAD,
        "run_in_spawn_child": reachability.WORKLOAD,
    }
    assert result.callers["synthetic/mod.py::workload_function"] == ["tests", "workload"]
    assert result.counts()[reachability.NEVER] == (1, 2)


def test_functions_are_keyed_by_their_first_decorator_line(reachability, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(textwrap.dedent(
        """\
        class A:
            @property
            @staticmethod
            def x():
                def inner():
                    pass
        """
    ))
    functions = reachability.enumerate_functions(package)
    assert [(f.key, f.line, f.lines) for f in functions] == [
        ("pkg/a.py::A.x", 2, 5),
        ("pkg/a.py::A.x.<locals>.inner", 5, 2),
    ]


def test_every_kept_function_exists(reachability):
    """A reason in KEEP names a def that is still under src/repro: one that
    was deleted or renamed must leave the table with it."""
    defined = {f.key for f in reachability.enumerate_functions(reachability.SOURCE)}
    assert sorted(set(reachability.KEEP) - defined) == []


def test_a_source_edit_during_the_run_stops_the_census(reachability, tmp_path):
    """A population that edits the package shifts the lines later populations
    record: the census names the changed file instead of classifying."""
    package = tmp_path / "src" / "synthetic"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    mod = package / "mod.py"
    mod.write_text(MODULE)
    edit = f"import pathlib; p = pathlib.Path({str(mod)!r}); p.write_text('#\\n' + p.read_text())"
    editor = reachability.Population("editor", "workload", ((sys.executable, "-c", edit),))
    with pytest.raises(reachability.SourceChanged, match=r"^editor: .*: synthetic/mod\.py$"):
        reachability.census(package, [editor])
