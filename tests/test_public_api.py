"""The package root exports what the README documents: the names its Quick
start imports from eegcl and the error types its Exit codes table names.
Everything else is imported from its module."""

import importlib
import re
from pathlib import Path

import eegcl

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
