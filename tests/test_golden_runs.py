"""Whole runs and the CLI's files are pinned by SHA-256 digests
(golden_runs.py says which and how to refresh them). A change that keeps
every result bit for bit passes unchanged; one that moves a single bit of a
run's parameters, matrix, report or CSVs fails here.

Of the kernels tried (SkylakeX, Haswell and Sandybridge), only a run's
final_params digest follows the one OpenBLAS runs: the matrices, reports and
CSVs are checked on any kernel of the same numpy and BLAS build, and
final_params on the kernel that made the digests."""

import json

import numpy as np
import pytest

from golden_runs import GOLDEN_PATH, build_stamp, cli_digests, run_digests

GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True, scope="module")
def same_build():
    # The numpy version is compared first: show_config's dict form is newer
    # than the oldest numpy eegcl supports. Module-scoped, so that a skip
    # comes before the runs are made.
    made_with = GOLDEN["build"]
    if np.__version__ != made_with["numpy"]:
        pytest.skip(f"golden digests were made with numpy {made_with['numpy']}, "
                    f"this is numpy {np.__version__}")
    stamp = build_stamp()
    if (stamp["blas"], stamp["blas_version"]) != (made_with["blas"], made_with["blas_version"]):
        pytest.skip(f"golden digests were made with {made_with['blas']} "
                    f"{made_with['blas_version']}, this numpy uses {stamp['blas']} "
                    f"{stamp['blas_version']}")


@pytest.fixture(scope="module")
def runs():
    return run_digests()


def expected(prefix):
    return {k: v for k, v in GOLDEN["digests"].items() if k.startswith(prefix)}


def by_kernel(digests, kernel_bound):
    """The final_params digests if kernel_bound, else every other one."""
    return {k: v for k, v in digests.items() if k.endswith("/final_params") == kernel_bound}


def test_run_digests(runs):
    assert by_kernel(runs, False) == by_kernel(expected("run/"), False)


def test_final_params_digests(runs):
    made_on, runs_on = GOLDEN["build"]["blas_core"], build_stamp()["blas_core"]
    if runs_on != made_on:
        pytest.skip(f"final_params digests were made on OpenBLAS's {made_on} kernel, "
                    f"this numpy runs {runs_on}")
    assert by_kernel(runs, True) == by_kernel(expected("run/"), True)


def test_cli_file_digests(tmp_path):
    assert cli_digests(tmp_path) == expected("cli/")
