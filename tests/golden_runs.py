"""Golden digests of whole runs, and the script that prints fresh ones.

Each digest is the SHA-256 of one output of a run on a 4-subject stream of
the default shape, run seed 0, 2 epochs a stage:

- ``run/<name>/final_params``, ``run/<name>/matrix`` and ``run/<name>/report``
  (the report as ``eegcl run`` writes it, ``stage_seconds`` aside) for SFT,
  ER, EWC and PCED, ER under ``reservoir_standard``, and ER with a
  class-balanced memory small enough to evict;
- ``cli/<file>`` for every CSV that ``eegcl run --jobs 1`` over SFT, ER, EWC
  and PCED writes on the same stream, and the curve CSV that
  ``eegcl report --curve subject=2`` then writes.

The bits depend on the numpy and BLAS build and on the CPU kernel OpenBLAS
picks at run time, so ``golden_runs.json`` keeps the build and kernel that
made them beside the digests. ``test_golden_runs.py`` skips on another
numpy or BLAS build, and on another kernel it skips only the
``final_params`` digests, the only ones that moved under the Haswell and
Sandybridge kernels. A change that
alters results on purpose refreshes both in one step:

    PYTHONPATH=src python3 tests/golden_runs.py > tests/golden_runs.json
"""

import contextlib
import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from eegcl import ModelConfig, StreamConfig, TrainConfig, gen_stream, run_continual
from eegcl.cli import main
from eegcl.harness import (
    MemoryConfig,
    er_strategy,
    ewc_strategy,
    pced_strategy,
    record_to_json_dict,
    sft_strategy,
)

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

STREAM = {"n_subjects": 4}
TRAIN = {"max_epochs": 2}
SEED = 0


def blas_core():
    """The CPU kernel numpy's bundled OpenBLAS picked at run time (for
    example "SkylakeX"), or None without that library or its query. The
    build-time config that np.show_config reports does not name it, and
    gemm bits follow the kernel."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def build_stamp() -> dict:
    """The numpy version, the BLAS name and version numpy was built with,
    and the BLAS kernel that runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "blas_core": blas_core()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_report(report: dict) -> bytes:
    """A report's bytes as `eegcl run` writes them, without its wall times."""
    report = {key: value for key, value in report.items() if key != "stage_seconds"}
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def run_digests() -> dict:
    stream = gen_stream(StreamConfig(**STREAM))
    strategies = {
        "sft": sft_strategy(),
        "er": er_strategy(),
        "ewc": ewc_strategy(),
        "pced": pced_strategy(),
        "er_reservoir": er_strategy(MemoryConfig(policy="reservoir_standard")),
        # 10 exemplars a class, 20 a subject, against room for 30: evicts from stage 2
        "er_evicting": er_strategy(MemoryConfig(capacity=30, per_class=10)),
    }
    digests = {}
    for name, strategy in strategies.items():
        record = run_continual(stream, strategy, ModelConfig(), TrainConfig(**TRAIN),
                               run_seed=SEED)
        digests[f"run/{name}/final_params"] = sha256(record.final_params.tobytes())
        digests[f"run/{name}/matrix"] = sha256(record.matrix.tobytes())
        digests[f"run/{name}/report"] = sha256(canonical_report(record_to_json_dict(record)))
    return digests


def cli_digests(workdir: Path) -> dict:
    """Digests of the CSVs that `eegcl run` and `eegcl report` write into
    workdir/results; both commands run in this process."""
    config = workdir / "experiment.json"
    config.write_text(json.dumps({
        "stream": {"generator": STREAM},
        "strategies": ["SFT", "ER", "EWC", "PCED"],
        "train": TRAIN,
        "seeds": [SEED],
    }))
    out = workdir / "results"
    if main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) != 0:
        raise RuntimeError("eegcl run failed")
    if main(["report", str(out), "--curve", "subject=2"]) != 0:
        raise RuntimeError("eegcl report failed")
    return {f"cli/{p.name}": sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}


def fresh_golden() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        digests = {**run_digests(), **cli_digests(Path(workdir))}
    return {"build": build_stamp(), "digests": digests}


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # the commands' own output
        golden = fresh_golden()
    print(json.dumps(golden, indent=2))
