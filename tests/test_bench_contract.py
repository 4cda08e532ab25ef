"""The parts of the library that the benchmark harness under bench/ uses.

bench/spans.py traces functions and methods by name, and bench/unit.py
runs the graded_checks commands through the CLI with a --cache file and
expects every item of each to pass, and bench/run.py reads the keys
of fiber_cache().stats.
Both files are read as source, never imported or changed, so a rename
or a removed flag in the library fails here instead of in a bench run.
bench/unit.py also stops before its first item unless the fiber cache
is still empty once the library is imported.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from enhcone.cli import build_parser, main
from enhcone.fibers import fiber_cache

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _literal(path: Path, *names: str):
    """The literal value assigned to names[-1], inside the classes named
    by names[:-1], at the top level of the source file at path."""
    body = ast.parse(path.read_text()).body
    for scope in names[:-1]:
        (cls,) = [n for n in body if isinstance(n, ast.ClassDef) and n.name == scope]
        body = cls.body
    for node in body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == names[-1] for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{'.'.join(names)} not found in {path}")


@pytest.mark.parametrize("module, name", _literal(BENCH / "spans.py", "FUNCTIONS"))
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"enhcone.{module}"), name))


@pytest.mark.parametrize("module, cls, name", _literal(BENCH / "spans.py", "METHODS"))
def test_traced_method_exists(module, cls, name):
    owner = getattr(importlib.import_module(f"enhcone.{module}"), cls)
    assert callable(getattr(owner, name))


@pytest.mark.parametrize("label", sorted(_literal(BENCH / "spans.py", "GENERATORS")))
def test_traced_generator_is_generator_function(label):
    # spans.py times each next() of these; a list-returning rewrite
    # would break only the traced bench run
    module, name = label.split(".")
    fn = getattr(importlib.import_module(f"enhcone.{module}"), name)
    assert inspect.isgeneratorfunction(fn)


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in _literal(BENCH / "unit.py", "GradedChecks", "COMMANDS")]
)
def test_graded_checks_command_parses(argv):
    args = build_parser().parse_args(list(argv) + ["--format", "json", "--cache", "F"])
    assert (args.command, args.format, args.cache) == ("check", "json", "F")


def test_graded_checks_commands_pass(tmp_path, capsys, clean_cache):
    # both commands in order on one fresh cache file, as the bench unit
    # runs them: the first writes the file and the second reads it
    cache = str(tmp_path / "fiber-counts.jsonl")
    for argv, expected in _literal(BENCH / "unit.py", "GradedChecks", "COMMANDS"):
        code = main(list(argv) + ["--format", "json", "--cache", cache])
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert code == 0, argv
        assert summary["total"] == summary["passed"] == expected, (argv, summary)


def test_fiber_cache_stats_keys():
    # bench/run.py's layer_metrics reads these keys of fiber_cache().stats
    (fn,) = [
        n for n in ast.parse((BENCH / "run.py").read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics"
    ]
    read = {
        n.slice.value for n in ast.walk(fn)
        if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == "memo"
    }
    assert read == {"hits", "misses", "entries"}
    assert fiber_cache().stats.keys() == read


def test_import_leaves_the_fiber_cache_empty():
    # a fresh interpreter, as each bench unit is: a table filled at
    # import would make every unit stop before its first item
    script = (
        "import json\n"
        "from enhcone import checks, cli, fibers, normalform\n"
        "print(json.dumps(fibers.fiber_cache().stats))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    stats = json.loads(done.stdout)
    assert stats and not any(stats.values()), stats
