import concurrent.futures
import errno
import gc
import json
import os
import struct
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import eegcl.cli
from eegcl.alignment import compute_whitener, reference_covariance
from eegcl.cli import main, parse_experiment_config
from eegcl.data import Split, load_stream, save_stream
from eegcl.errors import ConfigError
from eegcl.harness import MemoryConfig
from eegcl.linalg import covariance

from helpers import UNDECODABLE_JSON


class Interrupted(Exception):
    """Stops a sweep part way; defined at module level so that a pool
    worker's raise pickles back to the parent."""


RUN_TASK = eegcl.cli._run_task


def dying_run_task(wait_for, strategy, seed, *args, **kwargs):
    """cli._run_task, except that ER seed 0 ends its process, as an OOM kill
    would, once wait_for exists. Defined at module level so that a forked
    pool worker unpickles the patched task."""
    if (strategy.kind, seed) == ("ER", 0):
        deadline = time.monotonic() + 30
        while not wait_for.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(9)
    return RUN_TASK(strategy, seed, *args, **kwargs)


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2))
    return path


def gen_config(**overrides):
    cfg = {"n_subjects": 2, "n_channels": 3, "n_timepoints": 12,
           "trials_per_subject": 10, "seed": 4}
    cfg.update(overrides)
    return cfg


def experiment_config(**overrides):
    cfg = {
        "stream": {"generator": gen_config()},
        "strategies": ["SFT", "PCED"],
        "model": {"architecture": "mlp", "hidden": [4]},
        "train": {"learning_rate": 0.01, "max_epochs": 2, "batch_size": 8, "patience": 2},
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    return cfg


def gen_stream_dir(tmp_path):
    config = write_json(tmp_path / "gen.json", gen_config())
    assert main(["gen", "--config", str(config), "--out", str(tmp_path / "stream")]) == 0
    return tmp_path / "stream"


def empty_stream_dir(tmp_path):
    """A stream directory whose manifest lists no subjects."""
    stream_dir = gen_stream_dir(tmp_path)
    manifest = json.loads((stream_dir / "manifest.json").read_text())
    write_json(stream_dir / "manifest.json", {**manifest, "n_subjects": 0, "subjects": []})
    return stream_dir


# The refusal of a generator that deals a class fewer than 3 trials.
TOO_FEW_TRIALS = "error: generator trials_per_subject must be >= 3 * n_classes = 6"

# Generator values that pass their rules but scale samples past float32.
OVERFLOWS = pytest.mark.parametrize("overflow", [
    {"mixing_scale": 60}, {"noise_sigma": 1e300}, {"mixing_scale": 1e308},
], ids=["mixing_scale", "noise_sigma", "mixing_past_float64"])


UNDECODABLE = pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON)


def assert_invalid_json_refused(err, path):
    """One error line naming path, and no traceback."""
    assert err.startswith(f"error: {path}: invalid JSON (") and err.count("\n") == 1


def assert_overflow_refused(err):
    assert err.startswith("error: generator mixing_scale ") and err.count("\n") == 1
    assert " and noise_sigma " in err


def retag_split(stream_dir, subject, old, new):
    """Rewrite one subject's file in a stream directory with its `old` trials
    tagged `new`. A Stream refuses a subject without a split, so the bytes
    are edited in place: an EEGC file is an 18-byte header (channels at
    offset 10, timepoints at 12), then per trial a <u4 timestamp, a u1
    label, a u1 split tag and the float32 samples."""
    path = stream_dir / f"subject_{subject:03d}.eegc"
    blob = bytearray(path.read_bytes())
    channels, timepoints = struct.unpack_from("<HI", blob, 10)
    tags = np.frombuffer(blob, np.uint8, offset=18 + 5)[:: 6 + 4 * channels * timepoints]
    tags[tags == old] = new
    path.write_bytes(blob)
    return stream_dir


def flatten_channel(stream_dir, subject, channel, value):
    """Rewrite a stream directory with one channel of one subject set to a
    constant value in every trial."""
    stream = load_stream(stream_dir)
    subjects = list(stream)
    block = subjects[subject].block.copy()
    block[:, channel] = value
    subjects[subject] = replace(subjects[subject], block=block)
    save_stream(replace(stream, subjects=subjects), stream_dir)
    return stream_dir


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One completed `run` invocation shared by the report tests."""
    base = tmp_path_factory.mktemp("cli_run")
    config = write_json(base / "exp.json", experiment_config())
    out = base / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_stream_directory(self, tmp_path, capsys):
        config = write_json(tmp_path / "gen.json", gen_config())
        rc = main(["gen", "--config", str(config), "--out", str(tmp_path / "stream")])
        assert rc == 0
        assert (tmp_path / "stream" / "manifest.json").is_file()
        assert (tmp_path / "stream" / "subject_000.eegc").is_file()
        assert (tmp_path / "stream" / "subject_001.eegc").is_file()
        assert "wrote 2 subjects" in capsys.readouterr().out

    def test_empty_config_uses_defaults(self, tmp_path):
        config = write_json(tmp_path / "gen.json", {})
        rc = main(["gen", "--config", str(config), "--out", str(tmp_path / "stream")])
        assert rc == 0
        stream = load_stream(tmp_path / "stream")
        assert len(stream) == 8
        assert stream.n_channels == 8
        assert stream.n_timepoints == 64

    def test_repeated_generation_is_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "gen.json", gen_config())
        main(["gen", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["gen", "--config", str(config), "--out", str(tmp_path / "b")])
        for name in ("manifest.json", "subject_000.eegc", "subject_001.eegc"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_config_value_exits_2(self, tmp_path):
        config = write_json(tmp_path / "gen.json", gen_config(n_classes=1))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2

    # A subject file stores n_timepoints and the trial count in four bytes.
    @pytest.mark.parametrize("field, value", [("seed", "x"), ("n_subjects", 2.5),
                                              ("n_classes", 300),
                                              ("trials_per_subject", 10**19),
                                              ("n_timepoints", 10**18)])
    def test_bad_config_value_type_exits_2(self, tmp_path, capsys, field, value):
        config = write_json(tmp_path / "gen.json", gen_config(**{field: value}))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        assert f"error: generator {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_unallocatable_stream_exits_3(self, tmp_path, capsys):
        # Every field passes its rule, but the class patterns alone would
        # take 512 PiB, more than any address space, so the allocation fails
        # at once and nothing is allocated.
        config = write_json(tmp_path / "gen.json", {
            "n_subjects": 1, "n_classes": 256, "n_channels": 65535,
            "n_timepoints": 2**32 - 1, "trials_per_subject": 768,
        })
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    @OVERFLOWS
    def test_overflowing_samples_exit_2(self, tmp_path, capsys, overflow):
        config = write_json(tmp_path / "gen.json", {"n_subjects": 1, **overflow})
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        assert_overflow_refused(capsys.readouterr().err)
        assert not (tmp_path / "s").exists()

    def test_class_too_small_to_split_exits_2(self, tmp_path, capsys):
        # two classes of two trials each: refused when the config is built
        config = write_json(tmp_path / "gen.json", gen_config(trials_per_subject=4))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(TOO_FEW_TRIALS) and err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = write_json(tmp_path / "gen.json", gen_config(bogus=1))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        for text in UNDECODABLE_JSON.values():
            config.write_bytes(text)
            assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
            assert_invalid_json_refused(capsys.readouterr().err, config)
        config.write_text("[]")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == f"error: {config}: config must be a JSON object\n"
        assert not (tmp_path / "s").exists()

    def test_missing_config_exits_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["gen", "--config", str(missing), "--out", str(tmp_path / "s")]) == 2


class TestAlign:
    def test_aligned_training_covariance_is_identity(self, tmp_path, capsys):
        config = write_json(tmp_path / "gen.json", gen_config())
        main(["gen", "--config", str(config), "--out", str(tmp_path / "stream")])
        rc = main(["align", "--stream", str(tmp_path / "stream"),
                   "--out", str(tmp_path / "aligned")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "subject 0: condition number" in out
        assert "subject 1: condition number" in out
        aligned = load_stream(tmp_path / "aligned")
        for ds in aligned:
            train = ds.trials_for(Split.TRAIN)
            mean_cov = sum(covariance(t.trial) for t in train) / len(train)
            assert np.linalg.norm(mean_cov - np.eye(3)) < 1e-4

    def test_writes_the_per_trial_whitening(self, tmp_path, capsys):
        # the stream `align` writes is byte for byte the one the per-trial
        # loop wrote: W from the training split, then W @ x for each trial
        config = write_json(tmp_path / "gen.json", gen_config(n_classes=3, trials_per_subject=15))
        main(["gen", "--config", str(config), "--out", str(tmp_path / "stream")])
        assert main(["align", "--stream", str(tmp_path / "stream"),
                     "--out", str(tmp_path / "aligned")]) == 0
        stream = load_stream(tmp_path / "stream")
        subjects = []
        for ds in stream:
            train = [t.trial for t in ds.trials_for(Split.TRAIN)]
            w = compute_whitener(reference_covariance(train)).whitener
            block = np.array([w @ t.trial.astype(np.float64) for t in ds.trials], np.float32)
            subjects.append(replace(ds, block=block))
        save_stream(replace(stream, subjects=subjects), tmp_path / "reference")
        for path in sorted((tmp_path / "reference").iterdir()):
            assert (tmp_path / "aligned" / path.name).read_bytes() == path.read_bytes()

    def test_whitening_overflow_exits_4(self, tmp_path, capsys):
        # A constant channel leaves the reference covariance singular, so the
        # floored whitener scales a constant of 1e36 past float32.
        stream_dir = flatten_channel(gen_stream_dir(tmp_path), 0, 1, 1e36)
        assert main(["align", "--stream", str(stream_dir),
                     "--out", str(tmp_path / "aligned")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: subject 0: whitened trials overflow float32 "
                              "(condition number ")
        assert err.count("\n") == 1
        assert not (tmp_path / "aligned").exists()

    @pytest.mark.parametrize("eps", ["0.1", "0", "-1", "nan", "inf"])
    def test_bad_eps_exits_2(self, tmp_path, capsys, eps, monkeypatch):
        # align whitens as PCED does, with linalg's one eigenvalue floor, so
        # it takes no --eps at all
        stream_dir = gen_stream_dir(tmp_path)
        monkeypatch.setattr(eegcl.cli, "load_stream", None)  # refused before any read
        with pytest.raises(SystemExit) as exit_info:
            main(["align", "--stream", str(stream_dir), "--out", str(tmp_path / "aligned"),
                  "--eps", eps])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    @pytest.mark.parametrize("spelling", ["same", "trailing_slash", "dotted"])
    def test_out_that_is_the_stream_exits_2_and_keeps_the_stream(
            self, tmp_path, capsys, spelling):
        # the raw stream that SFT, ER and EWC train on must survive alignment
        stream_dir = gen_stream_dir(tmp_path)
        before = {p.name: p.read_bytes() for p in stream_dir.iterdir()}
        out = {"same": str(stream_dir), "trailing_slash": f"{stream_dir}/",
               "dotted": str(stream_dir / ".." / "stream")}[spelling]
        capsys.readouterr()
        rc = main(["align", "--stream", str(stream_dir), "--out", out])
        assert {p.name: p.read_bytes() for p in stream_dir.iterdir()} == before
        assert rc == 2
        printed = capsys.readouterr()
        assert printed.out == ""  # no subject was whitened
        assert printed.err == (f"error: --out {out} is the --stream directory {stream_dir}; "
                               "choose another directory for the aligned stream\n")

    def test_out_that_is_the_stream_is_refused_before_any_read(self, tmp_path, monkeypatch):
        stream_dir = gen_stream_dir(tmp_path)
        monkeypatch.setattr(eegcl.cli, "load_stream", None)
        assert main(["align", "--stream", str(stream_dir), "--out", str(stream_dir)]) == 2

    def test_missing_stream_exits_3(self, tmp_path):
        rc = main(["align", "--stream", str(tmp_path / "void"),
                   "--out", str(tmp_path / "aligned")])
        assert rc == 3

    @pytest.mark.parametrize("damage", [
        lambda m: m["subjects"][0].update(subject_id="zero"),
        lambda m: m["subjects"][0].update(subject_id=True),
        lambda m: m["subjects"][0].update(subject_id=-1),
        lambda m: m["subjects"][0].update(subject_id=1.0),
        lambda m: m["subjects"][0].update(subject_id=2**32),
        lambda m: m["subjects"][1].update(subject_id=0),
        lambda m: m["subjects"][0].pop("file"),
        lambda m: m["subjects"][0].pop("subject_id"),
        lambda m: m["subjects"][0].update(file=7),
        lambda m: m.update(subjects={"0": "subject_000.eegc", "1": "subject_001.eegc"}),
        lambda m: m["subjects"].__setitem__(0, "subject_000.eegc"),
        lambda m: m.update(n_channels="3"),
        lambda m: m.update(seed=None),
    ], ids=["string_id", "bool_id", "negative_id", "float_id", "huge_id", "repeated_id", "no_file",
            "no_subject_id", "file_not_a_string", "subjects_not_a_list",
            "entry_not_an_object", "string_dimension", "null_seed"])
    def test_malformed_manifest_entry_exits_3(self, tmp_path, capsys, damage):
        stream_dir = gen_stream_dir(tmp_path)
        manifest = json.loads((stream_dir / "manifest.json").read_text())
        damage(manifest)
        write_json(stream_dir / "manifest.json", manifest)
        rc = main(["align", "--stream", str(stream_dir), "--out", str(tmp_path / "aligned")])
        assert rc == 3
        assert "manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "aligned").exists()

    def test_subject_without_training_trials_exits_3(self, tmp_path, capsys):
        stream_dir = retag_split(gen_stream_dir(tmp_path), 1, Split.TRAIN, Split.VAL)
        rc = main(["align", "--stream", str(stream_dir), "--out", str(tmp_path / "aligned")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"error: {stream_dir}: subject 1 has no train trials\n"
        assert not (tmp_path / "aligned").exists()

    def test_stream_without_subjects_exits_3(self, tmp_path, capsys):
        stream_dir = empty_stream_dir(tmp_path)
        rc = main(["align", "--stream", str(stream_dir), "--out", str(tmp_path / "aligned")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {stream_dir}: stream has no subjects\n"
        assert not (tmp_path / "aligned").exists()


class TestRunCommand:
    def test_writes_all_artifacts(self, run_dir):
        for kind in ("sft", "pced"):
            for seed in (0, 1):
                assert (run_dir / f"report_{kind}_{seed}.json").is_file()
                assert (run_dir / f"matrix_{kind}_{seed}.csv").is_file()
        assert (run_dir / "summary.csv").is_file()
        assert (run_dir / "stream" / "manifest.json").is_file()

    def test_report_contents(self, run_dir):
        report = json.loads((run_dir / "report_sft_1.json").read_text())
        assert report["strategy"]["kind"] == "SFT"
        assert report["seeds"]["run"] == 1
        assert report["n_subjects"] == 2
        assert report["matrix"][0][1] is None
        assert 0.0 <= report["acc"] <= 1.0
        assert len(report["stage_seconds"]) == 2

    def test_summary_layout(self, run_dir):
        lines = (run_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "strategy,runs,acc_mean,acc_sd,bwt_mean,bwt_sd"
        assert len(lines) == 3
        rows = {line.split(",")[0] for line in lines[1:]}
        assert rows == {"SFT", "PCED"}
        for line in lines[1:]:
            assert line.split(",")[1] == "2"

    def test_summary_sorted_by_mean_accuracy(self, run_dir):
        lines = (run_dir / "summary.csv").read_text().splitlines()
        means = [float(line.split(",")[2]) for line in lines[1:]]
        assert means == sorted(means, reverse=True)

    def test_summary_without_bwt_leaves_both_bwt_cells_blank(self, tmp_path, capsys):
        # One subject: no run has a BWT, so neither its mean nor its spread
        # is printed or written.
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"generator": gen_config(n_subjects=1)}
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out.splitlines()
        written = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert printed[0].split()[-1] == "bwt_sd" and len(printed) == 4
        for line in printed[1:3]:
            assert line[-8:].isspace() and len(line.split()) == 4
        for line in written[1:]:
            assert line.split(",")[-2:] == ["", ""]

    def test_no_escape_codes_in_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        config = write_json(tmp_path / "exp.json", experiment_config(
            strategies=["SFT"], seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert "\x1b" not in capsys.readouterr().out

    @pytest.mark.parametrize("no_color, bold", [(None, True), ("", True), ("1", False)],
                             ids=["unset", "empty", "set"])
    def test_bold_on_a_terminal_unless_no_color_is_non_empty(self, monkeypatch, no_color, bold):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        if no_color is None:
            monkeypatch.delenv("NO_COLOR", raising=False)
        else:
            monkeypatch.setenv("NO_COLOR", no_color)
        assert eegcl.cli._bold("acc") == ("\x1b[1macc\x1b[0m" if bold else "acc")

    def test_parallel_jobs_match_sequential_reports(self, tmp_path):
        # every file but each report's stage_seconds is the same byte for byte
        config = write_json(tmp_path / "exp.json", experiment_config())
        for out, jobs in (("seq", "1"), ("par", "2")):
            assert main(["run", "--config", str(config), "--out", str(tmp_path / out),
                         "--jobs", jobs]) == 0
            for report in (tmp_path / out).glob("report_*.json"):
                data = json.loads(report.read_text())
                del data["stage_seconds"]
                report.write_text(json.dumps(data, sort_keys=True))
        files = {p.relative_to(tmp_path / "seq") for p in (tmp_path / "seq").rglob("*")}
        assert files == {p.relative_to(tmp_path / "par") for p in (tmp_path / "par").rglob("*")}
        assert len([f for f in files if f.suffix in (".json", ".csv")]) == 10
        for name in sorted(files - {Path("stream")}):
            assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "seq" / name).read_bytes()

    def test_pool_never_outnumbers_the_tasks(self, tmp_path, monkeypatch):
        # The pool is a spy that records its size and runs each task in
        # this process, so no worker is started.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(eegcl.cli, "_worker_stream", None)
        config = write_json(tmp_path / "exp.json", experiment_config())  # 2 x 2 tasks
        for jobs in ("3", "64"):
            assert main(["run", "--config", str(config), "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
            assert (tmp_path / jobs / "report_pced_1.json").is_file()
        assert sizes == [3, 4]

    def test_unallocatable_model_exits_3(self, tmp_path, capsys):
        # 10**14 filters take 7 PiB of parameters, more than any address
        # space, so each run's allocation fails at once.
        config = write_json(tmp_path / "exp.json", experiment_config(
            model={"n_filters": 10**14, "kernel_len": 4},
        ))
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(config), "--out", str(out),
                         "--jobs", jobs]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: out of memory: ") and err.count("\n") == 1
            assert sorted(p.name for p in out.iterdir()) == ["stream"]

    def test_diverged_run_keeps_finished_reports_and_exits_4(self, tmp_path, capsys):
        # With the largest finite EWC lambda, lambda * F overflows to inf on
        # the convnet's Fisher entries above 1, so the first penalty gradient
        # of stage 2 is inf * 0 = NaN.
        config = write_json(tmp_path / "exp.json", experiment_config(
            model={"architecture": "shallow_conv", "n_filters": 2, "kernel_len": 4},
            strategies=["SFT", {"kind": "EWC", "lambda": sys.float_info.max}],
        ))
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(config), "--out", str(out),
                         "--jobs", jobs]) == 4
            assert sorted(p.name for p in out.iterdir()) == [
                "matrix_sft_0.csv", "matrix_sft_1.csv", "report_sft_0.json",
                "report_sft_1.json", "stream", "summary.csv",
            ]
            err = capsys.readouterr().err
            assert "error: EWC seed 0: training loss became nan" in err
            assert "error: EWC seed 1: training loss became nan" in err
            assert "RuntimeWarning" not in err
        seq, par = tmp_path / "jobs1", tmp_path / "jobs2"
        lines = (seq / "summary.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["SFT", "2"]]
        for name in ("summary.csv", "matrix_sft_0.csv", "matrix_sft_1.csv"):
            assert (seq / name).read_text() == (par / name).read_text()
        for name in ("report_sft_0.json", "report_sft_1.json"):
            a, b = json.loads((seq / name).read_text()), json.loads((par / name).read_text())
            a.pop("stage_seconds")
            b.pop("stage_seconds")
            assert a == b

    def test_whitening_overflow_fails_only_the_aligned_run(self, tmp_path, capsys):
        stream_dir = flatten_channel(gen_stream_dir(tmp_path), 0, 1, 1e36)
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(stream_dir)}, seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 4
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "matrix_sft_0.csv", "report_sft_0.json", "summary.csv",
        ]
        assert "error: PCED seed 0: subject 0: whitened trials overflow float32" in (
            capsys.readouterr().err
        )

    def test_interrupted_sweep_keeps_the_runs_before_it(self, tmp_path, monkeypatch):
        # The tasks run as SFT 0, SFT 1, PCED 0, PCED 1; the third raises,
        # in this process at --jobs 1 and in a forked worker at --jobs 2.
        config = write_json(tmp_path / "exp.json", experiment_config())
        full = tmp_path / "full"
        assert main(["run", "--config", str(config), "--out", str(full)]) == 0
        run_continual = eegcl.cli.run_continual

        def interrupted(stream, strategy, *args, run_seed):
            if (strategy.kind, run_seed) == ("PCED", 0):
                raise Interrupted
            return run_continual(stream, strategy, *args, run_seed=run_seed)

        def without_stage_seconds(path):
            data = json.loads(path.read_text())
            del data["stage_seconds"]
            return json.dumps(data, sort_keys=True)

        monkeypatch.setattr(eegcl.cli, "run_continual", interrupted)
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            with pytest.raises(Interrupted):
                main(["run", "--config", str(config), "--out", str(out), "--jobs", jobs])
            assert sorted(p.name for p in out.iterdir()) == [
                "matrix_sft_0.csv", "matrix_sft_1.csv", "report_sft_0.json",
                "report_sft_1.json", "stream",
            ]
            for name in ("matrix_sft_0.csv", "matrix_sft_1.csv"):
                assert (out / name).read_bytes() == (full / name).read_bytes()
            for name in ("report_sft_0.json", "report_sft_1.json"):
                assert without_stage_seconds(out / name) == without_stage_seconds(full / name)

    def test_dead_pool_worker_exits_3_and_keeps_the_runs_before_it(
            self, tmp_path, capsys, monkeypatch):
        # The tasks run as SFT 0, SFT 1, ER 0, ...; ER 0's worker dies once
        # SFT 1's files are written, so that no earlier result is lost.
        config = write_json(tmp_path / "exp.json", experiment_config(
            strategies=["SFT", "ER", "EWC", "PCED"], seeds=[0, 1]
        ))
        out = tmp_path / "out"
        monkeypatch.setattr(eegcl.cli, "_run_task",
                            partial(dying_run_task, out / "matrix_sft_1.csv"))
        assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: a pool worker died before the ER seed 0 run returned; "
            "the runs before it are written, and no summary.csv\n"
        )
        assert sorted(p.name for p in out.iterdir()) == [
            "matrix_sft_0.csv", "matrix_sft_1.csv", "report_sft_0.json",
            "report_sft_1.json", "stream",
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_write_starts_no_further_runs(self, tmp_path, capsys, monkeypatch, jobs):
        # 12 tasks of 0.1 s each; the first run's matrix CSV cannot be
        # written. Each task marks its start with a file, so that a forked
        # worker's start is seen here too.
        started = tmp_path / "started"
        started.mkdir()
        config = write_json(tmp_path / "exp.json", experiment_config(
            strategies=["SFT", "ER", "EWC", "PCED"], seeds=[0, 1, 2]
        ))
        run_continual = eegcl.cli.run_continual

        def slow(stream, strategy, *args, run_seed):
            (started / f"{strategy.kind}_{run_seed}").touch()
            time.sleep(0.1)
            return run_continual(stream, strategy, *args, run_seed=run_seed)

        def disk_full(path, rows):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(eegcl.cli, "run_continual", slow)
        monkeypatch.setattr(eegcl.cli, "_write_csv", disk_full)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 3
        assert "No space left on device" in capsys.readouterr().err
        # --jobs 1 runs its tasks lazily; the pool has a few queued ahead
        n_started = len(list(started.iterdir()))
        assert n_started == 1 if jobs == "1" else n_started < 12

    @pytest.mark.parametrize("stream_kind", ["generator", "path"])
    def test_stream_is_decoded_at_most_once(self, tmp_path, monkeypatch, stream_kind):
        calls = []

        def counting_load_stream(path):
            calls.append(path)
            return load_stream(path)

        stream = {"generator": gen_config()}
        if stream_kind == "path":
            gen_cfg = write_json(tmp_path / "gen.json", gen_config())
            main(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / "stream")])
            stream = {"path": str(tmp_path / "stream")}
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream=stream, strategies=["SFT", "ER", "EWC", "PCED"]
        ))
        monkeypatch.setattr(eegcl.cli, "load_stream", counting_load_stream)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--jobs", "1"]) == 0
        assert len(calls) == (0 if stream_kind == "generator" else 1)

    def test_reused_out_exits_2_and_keeps_the_earlier_outputs(self, tmp_path, capsys,
                                                              monkeypatch):
        out = tmp_path / "out"
        first = write_json(tmp_path / "first.json",
                           experiment_config(strategies=["SFT"], seeds=[0, 1]))
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()

        def refused(*args):
            raise AssertionError("the stream was generated or decoded")

        monkeypatch.setattr(eegcl.cli, "gen_stream", refused)
        monkeypatch.setattr(eegcl.cli, "load_stream", refused)
        second = write_json(tmp_path / "second.json",
                            experiment_config(strategies=["SFT"], seeds=[0]))
        assert main(["run", "--config", str(second), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} ") and "matrix_sft_0.csv" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("stream_kind", ["generator", "path"])
    def test_out_naming_a_file_exits_2_before_the_stream_is_read(self, tmp_path, capsys,
                                                                 monkeypatch, stream_kind):
        stream = ({"generator": gen_config()} if stream_kind == "generator"
                  else {"path": str(gen_stream_dir(tmp_path))})
        config = write_json(tmp_path / "exp.json", experiment_config(stream=stream))
        out = tmp_path / "results"
        out.write_text("kept\n")

        def refused(*args):
            raise AssertionError("the stream was generated or decoded")

        monkeypatch.setattr(eegcl.cli, "gen_stream", refused)
        monkeypatch.setattr(eegcl.cli, "load_stream", refused)
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --out {out} exists and is not a directory; "
                                           "choose a new or empty directory\n")
        assert out.read_text() == "kept\n"

    @UNDECODABLE
    def test_undecodable_config_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "exp.json"
        config.write_bytes(text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert_invalid_json_refused(capsys.readouterr().err, config)
        assert not (tmp_path / "out").exists()

    @UNDECODABLE
    def test_undecodable_manifest_exits_3(self, tmp_path, capsys, text):
        manifest = gen_stream_dir(tmp_path) / "manifest.json"
        manifest.write_bytes(text)
        config = write_json(tmp_path / "exp.json",
                            experiment_config(stream={"path": str(manifest.parent)}))
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert_invalid_json_refused(capsys.readouterr().err, manifest)
        assert main(["align", "--stream", str(manifest.parent),
                     "--out", str(tmp_path / "aligned")]) == 3
        assert_invalid_json_refused(capsys.readouterr().err, manifest)
        assert not (tmp_path / "out").exists() and not (tmp_path / "aligned").exists()

    @pytest.mark.parametrize("name", ["report_er_3.json", "matrix_old.csv", "summary.csv"])
    def test_out_holding_any_run_output_exits_2(self, tmp_path, capsys, name):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / name).write_text("earlier\n")
        config = write_json(tmp_path / "exp.json", experiment_config())
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert name in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "out").iterdir()] == [name]

    def test_out_holding_other_files_is_used(self, tmp_path):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("kept\n")
        config = write_json(tmp_path / "exp.json",
                            experiment_config(strategies=["SFT"], seeds=[0]))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "notes.txt").read_text() == "kept\n"
        assert (tmp_path / "out" / "report_sft_0.json").is_file()

    def test_generated_stream_target_that_is_a_file_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stream").write_text("kept\n")
        config = write_json(tmp_path / "exp.json", experiment_config())

        def refused(*args):
            raise AssertionError("the stream was generated")

        monkeypatch.setattr(eegcl.cli, "gen_stream", refused)
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: generated stream directory {out / 'stream'} exists and is not a "
            "directory; choose a new or empty directory\n")
        assert [p.name for p in out.iterdir()] == ["stream"]
        assert (out / "stream").read_text() == "kept\n"

    @pytest.mark.parametrize("overrides", [
        {"strategies": [{"kind": "EWC", "lambda": -1}]},
        {"strategies": [{"kind": "EWC", "lambda": "abc"}]},
        {"strategies": [{"kind": "EWC", "lambda": None}]},
        {"strategies": [{"kind": "EWC", "lambda": float("inf")}]},
        {"strategies": [{"kind": "EWC", "lambda": float("nan")}]},
        {"strategies": [{"kind": "EWC", "lambda": 10**400}]},
        {"strategies": [{"kind": "EWC", "lambda": True}]},
        {"strategies": [{"kind": "ER", "memory": {"capacity": "x"}}]},
        {"strategies": [{"kind": "ER", "memory": None}]},
        {"strategies": [{"kind": "ER", "memory": {"capacity": -1}}]},
        {"strategies": [{"kind": "PCED", "memory": {"capacity": 1.5}}]},
        {"strategies": [{"kind": "PCED", "memory": {"per_class": None}}]},
        {"strategies": [{"kind": "ER", "memory": {"policy": "fifo"}}]},
    ], ids=[
        "lambda_negative", "lambda_string", "lambda_null", "lambda_inf", "lambda_nan",
        "lambda_huge_int", "lambda_bool", "capacity_string", "memory_null",
        "capacity_negative", "capacity_fraction", "per_class_null", "policy_unknown",
    ])
    def test_bad_strategy_config_exits_2(self, tmp_path, capsys, overrides):
        config = write_json(tmp_path / "exp.json", experiment_config(**overrides))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"stream": {"generator": gen_config(n_subjects="8")}},
         "generator n_subjects must be an integer >= 1, got '8'"),
        ({"stream": {"generator": gen_config(seed="zero")}},
         "generator seed must be an integer >= 0, got 'zero'"),
        ({"stream": {"generator": gen_config(seed=-1)}},
         "generator seed must be an integer >= 0, got -1"),
        ({"stream": {"generator": gen_config(randomize_polarity="yes")}},
         "generator randomize_polarity must be true or false, got 'yes'"),
        ({"stream": {"generator": gen_config(n_classes=300, trials_per_subject=900)}},
         "generator n_classes must be an integer in [2, 256], got 300"),
        ({"stream": {"generator": 5}}, "stream generator config must be a JSON object, got int"),
        ({"stream": {"path": 5}}, "stream path must be a string, got 5"),
        ({"stream": {"generator": gen_config(), "pth": "x"}}, "unknown stream keys: ['pth']"),
        ({"train": {"max_epochs": "3"}}, "train max_epochs must be an integer >= 1, got '3'"),
        ({"train": {"max_epochs": 1.5}}, "train max_epochs must be an integer >= 1, got 1.5"),
        ({"train": {"learning_rate": None}},
         "train learning_rate must be a finite number > 0, got None"),
        ({"train": {"batch_size": True}}, "train batch_size must be an integer >= 1, got True"),
        ({"train": {"shuffle_seed": -1}}, "invalid train config: TrainConfig.__init__() got an "
         "unexpected keyword argument 'shuffle_seed'"),
        ({"train": {"shuffle_seed": 999}}, "invalid train config: TrainConfig.__init__() got an "
         "unexpected keyword argument 'shuffle_seed'"),
        ({"model": {"n_filters": "8"}}, "model n_filters must be an integer >= 1, got '8'"),
        ({"model": {"kernel_len": 4.5}}, "model kernel_len must be an integer >= 1, got 4.5"),
        ({"model": {"seed": -1}}, "invalid model config: ModelConfig.__init__() got an "
         "unexpected keyword argument 'seed'"),
        ({"model": {"seed": 12345}}, "invalid model config: ModelConfig.__init__() got an "
         "unexpected keyword argument 'seed'"),
        ({"model": 5}, "model config must be a JSON object, got int"),
        ({"model": {"architecture": "mlp", "hidden": 5}},
         "model hidden must be a non-empty list of integers >= 1, got 5"),
        ({"model": {"hidden": "abc"}},
         "model hidden must be a non-empty list of integers >= 1, got 'abc'"),
        ({"seeds": ["a"]}, "seeds must be a non-empty list of integers >= 0, got ['a']"),
        ({"seeds": [-1]}, "seeds must be a non-empty list of integers >= 0, got [-1]"),
        ({"seeds": [1.7]}, "seeds must be a non-empty list of integers >= 0, got [1.7]"),
        ({"seeds": [True]}, "seeds must be a non-empty list of integers >= 0, got [True]"),
        ({"seeds": None}, "seeds must be a non-empty list of integers >= 0, got None"),
        ({"stream": {"generator": gen_config(), "path": "x"}},
         "stream must specify exactly one of 'path' or 'generator'"),
        ({"strategies": ["ER", {"kind": "er", "memory": {"capacity": 4}}]},
         "strategies must list each kind at most once, got ['ER', 'ER']"),
        # A kind is named as written: only an ASCII kind is upper-cased, and
        # "\u017f" (long s) would upper-case to "S".
        ({"strategies": [{"kind": None}]},
         "strategy kind must be one of ('SFT', 'ER', 'EWC', 'PCED'), got None"),
        ({"strategies": [{"kind": 1}]},
         "strategy kind must be one of ('SFT', 'ER', 'EWC', 'PCED'), got 1"),
        ({"strategies": [{"kind": ["SFT"]}]},
         "strategy kind must be one of ('SFT', 'ER', 'EWC', 'PCED'), got ['SFT']"),
        ({"strategies": [{"kind": "\u017fft"}]},
         "strategy kind must be one of ('SFT', 'ER', 'EWC', 'PCED'), got '\u017fft'"),
        ({"strategies": [{"memory": {}}]}, "strategy entry {'memory': {}} needs a 'kind'"),
        # a memory is set on the ER or PCED entry that uses it, nowhere else
        ({"memory": {"capacity": 4}}, "unknown config keys: ['memory']"),
    ], ids=[
        "n_subjects_string", "generator_seed_string", "generator_seed_negative",
        "polarity_string", "n_classes_above_a_byte", "generator_not_object", "path_not_string",
        "stream_key_unknown", "max_epochs_string",
        "max_epochs_fraction", "learning_rate_null", "batch_size_bool", "shuffle_seed_negative",
        "shuffle_seed_given", "n_filters_string", "kernel_len_fraction", "model_seed_negative",
        "model_seed_given", "model_not_object", "hidden_not_list",
        "hidden_not_list_for_shallow_conv", "seed_string",
        "seed_negative", "seed_fraction", "seed_bool", "seeds_null", "two_stream_sources",
        "kind_listed_twice", "kind_null", "kind_number", "kind_list", "kind_long_s",
        "kind_missing", "top_level_memory",
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, overrides, message):
        config = write_json(tmp_path / "exp.json", experiment_config(**overrides))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stream_kind", ["generator", "path"])
    @pytest.mark.parametrize("dims, message", [
        ({"n_channels": 4}, "model n_channels 4 does not match the stream's 3"),
        ({"n_timepoints": 11}, "model n_timepoints 11 does not match the stream's 12"),
        ({"n_classes": 3}, "model n_classes 3 does not match the stream's 2"),
    ], ids=["channels", "timepoints", "classes"])
    def test_pinned_model_dims_must_match_the_stream(self, tmp_path, capsys, stream_kind,
                                                     dims, message):
        stream = ({"generator": gen_config()} if stream_kind == "generator"
                  else {"path": str(gen_stream_dir(tmp_path))})
        model = {"architecture": "mlp", "hidden": [4]}
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream=stream, model={**model, **dims}, seeds=[0, 1]
        ))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not out.exists()
        pinned = {k: v for k, v in gen_config().items() if k in dims}
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream=stream, model={**model, **pinned, "n_classes": 2}, seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0

    def test_model_is_checked_over_the_streams_dimensions(self, tmp_path):
        # a kernel longer than the default 64 timepoints fits a 128-sample stream
        def run(n_timepoints, out):
            config = write_json(tmp_path / "exp.json", experiment_config(
                stream={"generator": gen_config(n_timepoints=n_timepoints)},
                strategies=["SFT"], model={"kernel_len": 80},
                train={"max_epochs": 1, "patience": 1}, seeds=[0],
            ))
            return main(["run", "--config", str(config), "--out", str(out)])

        assert run(128, tmp_path / "long") == 0
        assert (tmp_path / "long" / "report_sft_0.json").is_file()
        assert run(64, tmp_path / "short") == 2
        assert not (tmp_path / "short").exists()

    def test_stream_path_variant(self, tmp_path):
        gen_cfg = write_json(tmp_path / "gen.json", gen_config())
        main(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / "stream")])
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(tmp_path / "stream")}, strategies=["SFT"], seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "report_sft_0.json").is_file()

    def test_missing_stream_path_exits_2(self, tmp_path):
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(tmp_path / "void")}
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = write_json(tmp_path / "exp.json", experiment_config(extra=1))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key, value", [("repeat", 2), ("ewc_lambda", 7)],
                             ids=["repeat", "ewc_lambda"])
    def test_respelled_key_exits_2(self, tmp_path, capsys, key, value):
        # "seeds" and an EWC entry's "lambda" are each setting's one spelling
        config = write_json(tmp_path / "exp.json", experiment_config(**{key: value}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys: [{key!r}]\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_seeds_exit_2(self, tmp_path):
        config = write_json(tmp_path / "exp.json", experiment_config(seeds=[0, 0]))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_bad_jobs_exits_2(self, tmp_path):
        config = write_json(tmp_path / "exp.json", experiment_config())
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                   "--jobs", "0"])
        assert rc == 2
        assert not (tmp_path / "out").exists()  # refused before any generation or output

    def test_corrupted_subject_file_exits_3(self, tmp_path):
        gen_cfg = write_json(tmp_path / "gen.json", gen_config())
        main(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / "stream")])
        blob = (tmp_path / "stream" / "subject_001.eegc").read_bytes()
        (tmp_path / "stream" / "subject_001.eegc").write_bytes(blob[: len(blob) // 2])
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(tmp_path / "stream")}, strategies=["SFT"], seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("strategy", ["SFT", "PCED"])
    @pytest.mark.parametrize("old, new", [
        (Split.TRAIN, Split.VAL), (Split.VAL, Split.TEST), (Split.TEST, Split.TRAIN),
    ], ids=["no_train", "no_val", "no_test"])
    def test_subject_with_an_empty_split_exits_3(self, tmp_path, capsys, strategy, old, new):
        stream_dir = retag_split(gen_stream_dir(tmp_path), 1, old, new)
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(stream_dir)}, strategies=[strategy], seeds=[0, 1]
        ))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "2"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {stream_dir}: subject 1 has no {old.name.lower()} trials\n"
        assert not list(out.glob("report_*"))

    def test_stream_without_subjects_exits_3(self, tmp_path, capsys):
        stream_dir = empty_stream_dir(tmp_path)
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(stream_dir)}
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {stream_dir}: stream has no subjects\n"
        assert not (tmp_path / "out").exists()

    def test_class_too_small_to_split_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"generator": gen_config(trials_per_subject=4)}
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(TOO_FEW_TRIALS) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @OVERFLOWS
    def test_overflowing_generator_exits_2(self, tmp_path, capsys, overflow):
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"generator": gen_config(**overflow)}
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert_overflow_refused(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_nan_sample_exits_3(self, tmp_path, capsys):
        gen_cfg = write_json(tmp_path / "gen.json", gen_config())
        main(["gen", "--config", str(gen_cfg), "--out", str(tmp_path / "stream")])
        path = tmp_path / "stream" / "subject_001.eegc"
        blob = bytearray(path.read_bytes())
        # an 18-byte header and the first trial's 6-byte prefix precede its samples
        blob[24:28] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(tmp_path / "stream")}, strategies=["SFT"], seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert main(["align", "--stream", str(tmp_path / "stream"),
                     "--out", str(tmp_path / "aligned")]) == 3
        err = capsys.readouterr().err
        assert err.count("trial 0: trial contains non-finite values (at byte 24)") == 2

    @pytest.mark.parametrize("resize", [
        lambda buf: buf + b"\0",
        lambda buf: buf[:6] + struct.pack("<I", 9) + buf[10:],
        lambda buf: buf[:6] + struct.pack("<I", 11) + buf[10:],
    ], ids=["byte_appended", "one_trial_fewer", "one_trial_more"])
    def test_subject_file_of_another_length_exits_3(self, tmp_path, capsys, resize):
        # gen_config writes 10 trials per subject; the count is bytes 6-10
        stream_dir = gen_stream_dir(tmp_path)
        path = stream_dir / "subject_001.eegc"
        path.write_bytes(resize(path.read_bytes()))
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(stream_dir)}, strategies=["SFT"], seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert main(["align", "--stream", str(stream_dir),
                     "--out", str(tmp_path / "aligned")]) == 3
        assert capsys.readouterr().err.count(f"error: {path}: file holds") == 2
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "aligned").exists()

    def test_subject_file_without_trials_exits_3(self, tmp_path, capsys):
        stream_dir = gen_stream_dir(tmp_path)
        path = stream_dir / "subject_001.eegc"
        buf = path.read_bytes()  # the header alone, its trial count (bytes 6-10) set to 0
        path.write_bytes(buf[:6] + struct.pack("<I", 0) + buf[10:18])
        config = write_json(tmp_path / "exp.json", experiment_config(
            stream={"path": str(stream_dir)}, strategies=["SFT"], seeds=[0]
        ))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert main(["align", "--stream", str(stream_dir),
                     "--out", str(tmp_path / "aligned")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: file holds no trials (at byte 6)\n" * 2
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "aligned").exists()


class TestOutPath:
    @pytest.mark.parametrize("where", ["file", "under_file"])
    @pytest.mark.parametrize("command", ["gen", "align", "run"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, where):
        stream_dir = gen_stream_dir(tmp_path)
        argv = {
            "gen": ["gen", "--config", str(tmp_path / "gen.json")],
            "align": ["align", "--stream", str(stream_dir)],
            "run": ["run", "--config", str(write_json(tmp_path / "exp.json", experiment_config(
                stream={"path": str(stream_dir)})))],
        }[command]
        file = tmp_path / "results"
        file.write_text("kept\n")
        out = file if where == "file" else file / "sub"

        def refused(*args):
            raise AssertionError("the stream was generated or decoded")

        monkeypatch.setattr(eegcl.cli, "gen_stream", refused)
        monkeypatch.setattr(eegcl.cli, "load_stream", refused)
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == (f"error: --out {out} exists and is not a directory; "
                               "choose a new or empty directory\n" if where == "file" else
                               f"error: --out {out} is under {file}, which exists and is "
                               "not a directory; choose a new or empty directory\n")
        assert file.read_text() == "kept\n"


class TestParseExperimentConfig:
    def test_strategy_objects_with_overrides(self):
        cfg = parse_experiment_config(experiment_config(
            strategies=[
                {"kind": "er", "memory": {"capacity": 20, "per_class": 2}},
                {"kind": "ewc", "lambda": 7.5},
            ]
        ))
        er, ewc = cfg.strategies
        assert er.kind == "ER"
        assert er.memory.capacity == 20
        assert ewc.lam == 7.5

    def test_shared_defaults_apply(self):
        # an entry without a memory gets MemoryConfig's defaults; a memory is
        # set only on its own entry
        cfg = parse_experiment_config(experiment_config(
            strategies=["ER", {"kind": "PCED", "memory": {"capacity": 12, "per_class": 3}}],
        ))
        assert [s.memory for s in cfg.strategies] == [MemoryConfig(),
                                                      MemoryConfig(capacity=12, per_class=3)]

    def test_integers_count_as_numbers(self):
        cfg = parse_experiment_config(experiment_config(
            strategies=[{"kind": "EWC", "lambda": 7}],
            train={"learning_rate": 1},
            stream={"generator": gen_config(mixing_scale=0, noise_sigma=2)},
        ))
        assert cfg.strategies[0].lam == 7
        assert cfg.train.learning_rate == 1

    @pytest.mark.parametrize("stream, message", [
        ({"generator": {}, "path": "x"},
         "stream must specify exactly one of 'path' or 'generator'"),
        ({"generator": {}}, "seeds must be unique, got [0, 0]"),
    ], ids=["two_stream_sources", "repeated_seed"])
    def test_parsed_config_is_checked(self, stream, message):
        data = {"stream": stream, "strategies": ["SFT"], "seeds": [0, 0]}
        with pytest.raises(ConfigError) as info:
            parse_experiment_config(data)
        assert str(info.value) == message

    def test_default_single_seed(self):
        data = experiment_config()
        del data["seeds"]
        assert parse_experiment_config(data).seeds == (0,)

    def test_repeat_key_is_unknown(self):
        # "seeds": [0, ..., N-1] is the one way to ask for N seeds
        data = experiment_config(repeat=3)
        del data["seeds"]
        with pytest.raises(ConfigError) as info:
            parse_experiment_config(data)
        assert str(info.value) == "unknown config keys: ['repeat']"


class TestReportCommand:
    def test_writes_mean_curve(self, run_dir, capsys):
        rc = main(["report", str(run_dir), "--curve", "subject=1"])
        assert rc == 0
        out_path = run_dir / "curve_subject1.csv"
        assert str(out_path) in capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "stage,PCED,SFT"
        assert len(lines) == 3  # stages 1 and 2
        reports = {
            (kind, seed): json.loads((run_dir / f"report_{kind}_{seed}.json").read_text())
            for kind in ("sft", "pced") for seed in (0, 1)
        }
        for row, stage in zip(lines[1:], (1, 2)):
            cells = row.split(",")
            assert cells[0] == str(stage)
            for col, kind in ((1, "pced"), (2, "sft")):
                expected = np.mean([
                    reports[(kind, seed)]["matrix"][stage - 1][0] for seed in (0, 1)
                ])
                assert float(cells[col]) == pytest.approx(expected, abs=1e-12)

    def test_last_subject_curve_has_one_row(self, run_dir):
        assert main(["report", str(run_dir), "--curve", "subject=2"]) == 0
        lines = (run_dir / "curve_subject2.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,")

    def test_rerun_is_byte_identical(self, run_dir):
        main(["report", str(run_dir), "--curve", "subject=1"])
        first = (run_dir / "curve_subject1.csv").read_bytes()
        main(["report", str(run_dir), "--curve", "subject=1"])
        assert (run_dir / "curve_subject1.csv").read_bytes() == first

    def test_subject_out_of_range_exits_2(self, run_dir):
        assert main(["report", str(run_dir), "--curve", "subject=9"]) == 2

    def test_malformed_curve_argument_exits_2(self, run_dir):
        assert main(["report", str(run_dir), "--curve", "stage=1"]) == 2

    def test_directory_without_reports_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_only_ascii_digits_count(self, run_dir, tmp_path):
        # "١" is ARABIC-INDIC DIGIT ONE, which a Unicode \d would match.
        for path in run_dir.glob("report_*.json"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        assert main(["report", str(tmp_path), "--curve", "subject=\u0661"]) == 2
        (tmp_path / "report_sft_\u0661.json").write_text("{")
        assert main(["report", str(tmp_path), "--curve", "subject=1"]) == 0

    def test_missing_directory_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "void")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("{", "invalid JSON"),
        (b'{"strategy": {"kind": "SFT"}, "matrix": [[0.5]], "note": "\xff"}', "invalid JSON"),
        (b'{"strategy": {"kind": "SFT"}, "matrix": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "invalid JSON"),
        ("[]", "report must be a JSON object"),
        (json.dumps({"strategy": {"kind": "SFT"}}), "report matrix must be"),
        (json.dumps({"strategy": {}, "matrix": [[0.5]]}), "report needs a strategy kind"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[0.5], [0.4, 0.6]]}),
         "report matrix must be"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[0.5, None]]}),
         "report matrix must be"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [["0.5"]]}),
         "report matrix must be"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[0.5, 0.9], [0.6, 0.7]]}),
         "report matrix must hold accuracies"),
        ('{"strategy": {"kind": "SFT"}, "matrix": [[1e400]]}',
         "report matrix must hold accuracies"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[0.5, None], [-0.1, 0.6]]}),
         "report matrix must hold accuracies"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[1.5]]}),
         "report matrix must hold accuracies"),
        ('{"strategy": {"kind": "SFT"}, "matrix": [[NaN, null], [0.5, 0.6]]}',
         "report matrix must hold accuracies"),
        ('{"strategy": {"kind": "SFT"}, "matrix": [[0.5, null], [0.5, NaN]]}',
         "report matrix must hold accuracies"),
        ('{"strategy": {"kind": "SFT"}, "matrix": [[0.5, NaN], [0.5, 0.6]]}',
         "report matrix must hold accuracies"),
        (json.dumps({"strategy": {"kind": "SFT,EXTRA"}, "matrix": [[0.5]]}),
         "report needs a strategy kind"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": []}), "report matrix must be"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[0.5, None], [0.4, None]]}),
         "report matrix must hold accuracies"),
        (json.dumps({"strategy": {"kind": "SFT"}, "matrix": [[0.5, None], [None, 0.6]]}),
         "report matrix must hold accuracies"),
        ('{"strategy": {"kind": "SFT"}, "matrix": [[0.5]], "matrix": [[0.5]]}',
         "invalid JSON (repeated key 'matrix')"),
    ], ids=["invalid_json", "not_utf8", "nested_too_deep", "not_an_object", "no_matrix",
            "no_kind", "ragged", "not_square", "not_numeric", "above_diagonal", "infinite", "negative", "above_one", "nan_on_curve",
            "nan_off_curve", "nan_above_diagonal", "unknown_kind", "no_rows",
            "undefined_on_diagonal", "undefined_below_diagonal", "repeated_key"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "report_sft_0.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "curve_subject1.csv").exists()


class TestProcessEntry:
    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        config = write_json(tmp_path / "gen.json", gen_config())
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
        assert gc.get_freeze_count() == frozen

    def test_process_entry_freezes_and_skips_the_pool_import(self, tmp_path):
        # `run` at the default --jobs 1 runs its task in process, without the pool
        configs = {
            "gen": write_json(tmp_path / "gen.json", gen_config()),
            "run": write_json(tmp_path / "exp.json", experiment_config(
                strategies=["SFT"], seeds=[0]
            )),
        }
        probe = (
            "import gc, sys\n"
            "import eegcl.cli\n"
            "sys.argv = ['eegcl', *sys.argv[1:2], '--config', sys.argv[2], '--out', sys.argv[3]]\n"
            "code = eegcl.cli.main()\n"
            "print(code, gc.get_freeze_count() > 0, 'concurrent.futures.process' in sys.modules)\n"
        )
        src = str(Path(eegcl.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        for command, config in configs.items():
            out = subprocess.run(
                [sys.executable, "-c", probe, command, str(config), str(tmp_path / command)],
                capture_output=True, text=True, env=env, timeout=60, check=True,
            ).stdout
            assert out.splitlines()[-1] == "0 True False"

    def test_module_entry_logs_under_the_package_name(self, tmp_path):
        config = write_json(tmp_path / "exp.json", experiment_config(
            strategies=["SFT"], seeds=[0]
        ))
        src = str(Path(eegcl.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        err = subprocess.run(
            [sys.executable, "-m", "eegcl.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            timeout=60, check=True,
        ).stderr
        assert err.startswith("INFO eegcl.cli: generated stream of 2 subjects")
