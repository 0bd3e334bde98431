"""Whole runs and the CLI's files are pinned by SHA-256 digests
(golden_runs.py says which and how to refresh them). A change that keeps
every result bit for bit passes unchanged; one that moves a single bit of a
run's parameters, matrix, report or CSVs fails here."""

import json

import numpy as np
import pytest

from golden_runs import GOLDEN_PATH, build_stamp, cli_digests, run_digests

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True)
def same_build():
    # The numpy version is compared first: show_config's dict form is newer
    # than the oldest numpy eegcl supports.
    made_with = GOLDEN["build"]
    if np.__version__ != made_with["numpy"]:
        pytest.skip(f"golden digests were made with numpy {made_with['numpy']}, "
                    f"this is numpy {np.__version__}")
    stamp = build_stamp()
    if stamp != made_with:
        pytest.skip(f"golden digests were made with {made_with['blas']} "
                    f"{made_with['blas_version']} running its {made_with['blas_core']} "
                    f"kernel, this numpy uses {stamp['blas']} {stamp['blas_version']} "
                    f"running {stamp['blas_core']}")


def expected(prefix):
    return {k: v for k, v in GOLDEN["digests"].items() if k.startswith(prefix)}


def test_run_digests():
    assert run_digests() == expected("run/")


def test_cli_file_digests(tmp_path):
    assert cli_digests(tmp_path) == expected("cli/")
