"""The package root exports what the README documents: the names its Quick
start imports from eegcl and the error types its Exit codes table names.
Everything else is imported from its module, and some module of the
program reaches it, or it is listed with the ROADMAP item that settles it. The CLI takes the options its
docstring and the README's CLI section document."""

import argparse
import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import eegcl
import eegcl.cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title):
    """The README's text under a level-2 heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def quick_start_names():
    block = re.search(r"from eegcl import \(([^)]*)\)", section("Quick start (Python)"))
    return set(block.group(1).replace(",", " ").split())


def exit_code_errors():
    return set(re.findall(r"`(\w+Error)`", section("Exit codes")))


def test_all_is_the_quick_start_and_exit_code_names():
    quick, errors = quick_start_names(), exit_code_errors()
    assert {"run_continual", "StreamConfig"} <= quick
    assert {"ConfigError", "StreamFormatError"} <= errors
    assert sorted(eegcl.__all__) == sorted(quick | errors)


def test_every_exported_name_resolves():
    for name in eegcl.__all__:
        obj = getattr(eegcl, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace = {}
    exec("from eegcl import *", namespace)
    assert set(eegcl.__all__) <= set(namespace)


def names_used(node):
    """Every name node mentions: as a name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


# The public names no src/eegcl module reaches yet, each tagged with the
# ROADMAP item that wires it in, moves it to tests/helpers.py or deletes it.
# A new name reached only by bench/ or the tests fails the reachability
# tests, and a listed name that the program comes to reach must leave.
UNREACHED = {
    "data.trials_equal": 6,
    "data.streams_equal": 6,
    "data.SubjectDataset.trials_for": 2,
    "harness.er_strategy": 13,
    "harness.ewc_strategy": 13,
    "harness.foreign_reads": 17,
    "linalg.covariance": 15,
    "models.loss_and_gradient": 17,
    "replay.memory_to_bytes": 17,
    "replay.memory_from_bytes": 17,
    "replay.ReplayMemory.class_counts": 17,
}


def program_modules():
    """(stem, tree) of every src/eegcl module, and a Counter of the names
    they mention. Names imported on a line marked "# noqa: F401", which
    only the benchmark's tracer reads, do not count."""
    modules, uses = [], Counter()
    for path in sorted((ROOT / "src" / "eegcl").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        modules.append((path.stem, tree))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                uses.update(alias.name.rpartition(".")[2] for alias in node.names
                            if "# noqa: F401" not in lines[alias.lineno - 1])
            else:
                uses.update(names_used(node))
    return modules, uses


def test_every_public_name_is_reached():
    """Every top-level function and class in src/eegcl whose name does not
    start with "_" is named in some src/eegcl module outside its own
    definition, or is exported in eegcl.__all__, apart from the names
    UNREACHED lists."""
    modules, uses = program_modules()
    unreached = {
        f"{stem}.{node.name}" for stem, tree in modules for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in eegcl.__all__
        and uses[node.name] == Counter(names_used(node))[node.name]
    }
    assert unreached == {name for name in UNREACHED if name.count(".") == 1}


def test_every_public_method_is_reached():
    """Every method of a top-level class in src/eegcl whose name does not
    start with "_" is named, as an attribute or a name, in some src/eegcl
    module outside its own definition, apart from the methods UNREACHED
    lists. A method that only the tests or bench/ call is either wired
    into the program or deleted."""
    modules, uses = program_modules()
    unreached = {
        f"{stem}.{cls.name}.{node.name}" for stem, tree in modules for cls in tree.body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and uses[node.name] == Counter(names_used(node))[node.name]
    }
    assert unreached == {name for name in UNREACHED if name.count(".") == 2}


def test_every_top_level_import_is_used():
    """Every name a top-level import binds in a src/eegcl module is used
    there, as a name (the base of an attribute is one). Exempt are
    __init__.py, which imports to re-export, `from __future__` imports and
    names imported on a line marked "# noqa: F401", which only the
    benchmark's tracer reads. It stands in for a linter's unused-import
    check."""
    unused = []
    for path in sorted((ROOT / "src" / "eegcl").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert unused == []


def test_every_parameter_is_used():
    """Every parameter of every function and lambda in a src/eegcl module,
    self and cls aside, is read as a name somewhere in its body. It stands
    in for a linter's unused-argument check, so a parameter that no longer
    does anything is deleted rather than left in the signature."""
    unused = []
    for path in sorted((ROOT / "src" / "eegcl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            used = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
            unused += [
                f"{path.name}:{node.lineno} {param.arg}" for param in params
                if param is not None and param.arg not in {"self", "cls"} | used
            ]
    assert unused == []


def test_cli_options_are_the_documented_ones():
    """Each subcommand's options are the --options on its line of the
    eegcl.cli docstring, and each appears in the README's CLI section."""
    documented = {
        name: set(re.findall(r"--[\w-]+", usage))
        for name, usage in re.findall(r"^- ``(\w+)([^`]*)``", eegcl.cli.__doc__, re.M)
    }
    (subcommands,) = [action.choices for action in eegcl.cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.items()
    }
    assert parsed == documented
    cli_section = section("CLI")
    assert [opt for opts in parsed.values() for opt in sorted(opts)
            if not re.search(rf"{opt}\b", cli_section)] == []
