import io
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eegcl import (
    ConfigError,
    ModelConfig,
    StreamConfig,
    TrainConfig,
    UndefinedMetricError,
    forgetting_curve,
    gen_stream,
    pced_strategy,
    run_continual,
    sft_strategy,
)
from eegcl import ewc, harness
from eegcl.data import Split, Stream
from eegcl.errors import EmptyInputError, ShapeError, StreamFormatError
from eegcl.ewc import OnlineEwc
from eegcl.harness import (
    MemoryConfig,
    RunState,
    Strategy,
    bwt,
    derive_run_seeds,
    er_strategy,
    ewc_strategy,
    final_acc,
    foreign_reads,
    matrix_to_csv,
    new_matrix,
    record_to_json_dict,
)
from eegcl.models import ShallowConvNet, build_model
from eegcl.replay import ReplayMemory


def small_stream(seed=1, n_subjects=3, n_classes=2):
    return gen_stream(
        StreamConfig(n_subjects=n_subjects, n_channels=4, n_timepoints=32, n_classes=n_classes,
                     trials_per_subject=40, seed=seed)
    )


def small_model_cfg():
    return ModelConfig(architecture="shallow_conv", n_channels=4, n_timepoints=32,
                       n_classes=2, n_filters=4, kernel_len=8)


def fast_train_cfg():
    return TrainConfig(learning_rate=0.005, max_epochs=4, batch_size=16, patience=4)


def report_without_seconds(record):
    report = record_to_json_dict(record)
    del report["stage_seconds"]
    return report


def triangular(values):
    """Build a square matrix from per-row lists, NaN above the diagonal."""
    n = len(values)
    m = new_matrix(n)
    for j, row in enumerate(values):
        m[j, : len(row)] = row
    return m


class TestStrategies:
    def test_factories_build_valid_configs(self):
        for strategy in (sft_strategy(), er_strategy(), ewc_strategy(), pced_strategy()):
            assert replace(strategy) == strategy  # replace runs the constructor's checks

    def test_factory_shapes(self):
        assert sft_strategy() == Strategy(kind="SFT")
        er = er_strategy()
        assert er.kind == "ER" and er.memory == MemoryConfig() and not er.alignment_enabled
        ew = ewc_strategy(lam=5.0)
        assert ew.kind == "EWC" and ew.lam == 5.0 and ew.uses_ewc and not ew.uses_memory
        pc = pced_strategy()
        assert pc.kind == "PCED" and pc.alignment_enabled and pc.memory == MemoryConfig()

    def test_mechanisms_follow_the_kind(self):
        for kind, mechanisms in {"SFT": (False, False, False), "ER": (False, True, False),
                                 "EWC": (False, False, True), "PCED": (True, True, False)}.items():
            s = Strategy(kind)
            assert (s.alignment_enabled, s.uses_memory, s.uses_ewc) == mechanisms

    def test_memory_defaults(self):
        cfg = MemoryConfig()
        assert cfg.capacity == 160
        assert cfg.per_class == 10
        assert cfg.policy == "class_balanced"
        assert Strategy("EWC").lam == 100.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Strategy(kind="FINETUNE")


class TestBwt:
    def test_zero_when_final_row_equals_diagonal(self):
        rng = np.random.default_rng(0)
        for n in (2, 5):
            m = rng.random((n, n))
            m[-1, : n - 1] = np.diagonal(m)[: n - 1]
            assert bwt(m) == 0.0

    def test_two_subject_example(self):
        m = triangular([[0.9], [0.8, 0.7]])
        assert bwt(m) == pytest.approx(-0.10, abs=1e-12)

    def test_three_subject_example(self):
        m = triangular([[0.6], [0.5, 0.8], [0.7, 0.8, 0.9]])
        assert bwt(m) == pytest.approx(0.05, abs=1e-12)

    def test_single_subject_undefined(self):
        with pytest.raises(UndefinedMetricError):
            bwt(np.array([[0.9]]))

    def test_incomplete_run_undefined(self):
        m = triangular([[0.9], [0.8, 0.7]])
        m[1, 0] = np.nan
        with pytest.raises(UndefinedMetricError):
            bwt(m)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            bwt(np.zeros((2, 3)))

    def test_upper_triangle_nans_are_ignored(self):
        m = triangular([[0.5], [0.5, 0.5]])
        assert np.isnan(m[0, 1])
        assert bwt(m) == 0.0


class TestFinalAcc:
    def test_perfect_run(self):
        assert final_acc(np.ones((3, 3))) == 1.0

    def test_mean_of_last_row(self):
        m = triangular([[0.9], [0.8, 0.6]])
        assert final_acc(m) == pytest.approx(0.7, abs=1e-12)

    def test_incomplete_last_row_undefined(self):
        m = new_matrix(2)
        m[1, 0] = 0.5
        with pytest.raises(UndefinedMetricError):
            final_acc(m)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            final_acc(np.zeros((3, 1)))


class TestForgettingCurve:
    def matrix(self):
        return triangular([[0.9], [0.7, 0.8], [0.6, 0.75, 0.95]])

    def test_first_subject_full_series(self):
        assert forgetting_curve(self.matrix(), 1) == [(1, 0.9), (2, 0.7), (3, 0.6)]

    def test_last_subject_single_point(self):
        assert forgetting_curve(self.matrix(), 3) == [(3, 0.95)]

    def test_series_length(self):
        m = self.matrix()
        for subject in (1, 2, 3):
            assert len(forgetting_curve(m, subject)) == 3 - subject + 1

    def test_out_of_range_subject(self):
        with pytest.raises(ValueError):
            forgetting_curve(self.matrix(), 0)
        with pytest.raises(ValueError):
            forgetting_curve(self.matrix(), 4)

    def test_missing_entry_undefined(self):
        m = self.matrix()
        m[1, 0] = np.nan
        with pytest.raises(UndefinedMetricError):
            forgetting_curve(m, 1)


class TestRunContinual:
    def test_matrix_is_lower_triangular_and_bounded(self):
        record = run_continual(small_stream(), sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)
        m = record.matrix
        assert m.shape == (3, 3)
        for j in range(3):
            for i in range(3):
                if i <= j:
                    assert 0.0 <= m[j, i] <= 1.0
                else:
                    assert np.isnan(m[j, i])

    def test_summary_metrics_match_the_matrix(self):
        record = run_continual(small_stream(), sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)
        assert record.acc == final_acc(record.matrix)
        assert record.bwt == bwt(record.matrix)

    def test_stage_telemetry(self):
        record = run_continual(small_stream(), sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)
        assert record.stage_subjects == (0, 1, 2)
        assert len(record.stage_epochs) == 3
        assert all(1 <= e <= 4 for e in record.stage_epochs)
        assert len(record.stage_seconds) == 3
        assert all(s >= 0.0 for s in record.stage_seconds)
        assert record.stage_memory == (0, 0, 0)

    def test_single_subject_has_no_bwt(self):
        stream = gen_stream(
            StreamConfig(n_subjects=1, n_channels=4, n_timepoints=32,
                         trials_per_subject=40, seed=1)
        )
        record = run_continual(stream, sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)
        assert record.matrix.shape == (1, 1)
        assert record.bwt is None
        assert record.acc == record.matrix[0, 0]

    def test_plain_subject_list_is_refused(self):
        subjects = list(small_stream())[:1]
        with pytest.raises(TypeError, match="needs a Stream, got list"):
            run_continual(subjects, sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)

    def test_empty_stream_rejected(self):
        empty = Stream(subjects=(), n_channels=4, n_timepoints=32, n_classes=2, seed=0)
        with pytest.raises(EmptyInputError):
            run_continual(empty, sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)

    def test_model_stream_shape_mismatch(self):
        cfg = replace(small_model_cfg(), n_channels=3)
        with pytest.raises(ShapeError):
            run_continual(small_stream(), sft_strategy(), cfg, fast_train_cfg(), run_seed=0)

    @pytest.mark.parametrize("stream_classes, model_classes", [(2, 3), (3, 2)])
    def test_model_stream_class_count_mismatch(self, monkeypatch, stream_classes, model_classes):
        def no_training(*args, **kwargs):
            raise AssertionError("train was called")

        monkeypatch.setattr(harness, "train", no_training)
        cfg = replace(small_model_cfg(), n_classes=model_classes)
        stream = small_stream(n_classes=stream_classes)
        match = f"stream has {stream_classes} classes but the model outputs {model_classes}"
        with pytest.raises(ShapeError, match=match):
            run_continual(stream, pced_strategy(), cfg, fast_train_cfg(), run_seed=0)

    @pytest.mark.parametrize("split", list(Split), ids=lambda s: s.name.lower())
    def test_every_trial_shape_is_checked(self, split):
        first = small_stream()[0]
        rows = list(first.block)
        second = [i for i, s in enumerate(first.split) if s == split][1]
        rows[second] = rows[second][:, :-1]
        # A subject is one block, so the ragged subject cannot even be built...
        with pytest.raises(ValueError):
            replace(first, block=rows)
        # ...and a stream refuses a later subject of another trial shape.
        narrow = replace(first, subject_id=1, block=first.block[:, :, :-1])
        with pytest.raises(ValueError, match=r"subject 1 trial shape \(4, 31\)"):
            Stream(subjects=(first, narrow), n_channels=4, n_timepoints=32, n_classes=2, seed=1)

    def test_missing_split_refused_before_stage_one(self, monkeypatch):
        stream = small_stream()
        last = stream[2]
        retagged = replace(last, split=np.where(last.split == Split.TEST, Split.VAL, last.split))
        stream = replace(stream, subjects=(stream[0], stream[1], retagged))

        def no_training(*args, **kwargs):
            raise AssertionError("train was called")

        monkeypatch.setattr(harness, "train", no_training)
        with pytest.raises(StreamFormatError, match="subject 2 has no test trials"):
            run_continual(stream, er_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=0)

    def test_repeated_subject_does_not_lose_accuracy(self):
        # training twice on the same subject must keep its test accuracy
        # within tolerance of the first stage's result
        base = gen_stream(
            StreamConfig(n_subjects=1, n_channels=3, n_timepoints=16, n_classes=2,
                         trials_per_subject=60, mixing_scale=0.0, noise_sigma=0.3,
                         randomize_polarity=False, seed=3)
        )
        first = base[0]
        second = replace(first, subject_id=1)
        stream = Stream(subjects=(first, second), n_channels=3, n_timepoints=16,
                        n_classes=2, seed=3)
        model_cfg = ModelConfig(architecture="mlp", n_channels=3, n_timepoints=16,
                                n_classes=2, hidden=(8,))
        train_cfg = TrainConfig(learning_rate=0.01, max_epochs=30, batch_size=16, patience=5)
        record = run_continual(stream, sft_strategy(), model_cfg, train_cfg, run_seed=0)
        assert record.matrix[1, 0] >= record.matrix[0, 0] - 0.05

    def test_identical_seeds_reproduce_bitwise(self):
        stream = small_stream()
        a = run_continual(stream, pced_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=5)
        b = run_continual(stream, pced_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=5)
        assert np.array_equal(a.matrix, b.matrix, equal_nan=True)
        assert np.array_equal(a.final_params.vector, b.final_params.vector)
        assert a.stage_epochs == b.stage_epochs

    def test_disabled_mechanisms_reduce_to_plain_finetuning(self):
        # replay from a memory that holds nothing must follow the exact
        # same trajectory as SFT, parameter for parameter — the loop
        # dispatches on fields, not on the label
        stream = small_stream()
        neutered = er_strategy(MemoryConfig(capacity=0, per_class=0))
        a = run_continual(stream, sft_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=2)
        b = run_continual(stream, neutered, small_model_cfg(), fast_train_cfg(), run_seed=2)
        assert np.array_equal(a.matrix, b.matrix, equal_nan=True)
        assert np.array_equal(a.final_params.vector, b.final_params.vector)

    def test_no_strategy_reads_foreign_raw_trials(self):
        stream = small_stream()
        for strategy in (sft_strategy(), er_strategy(), ewc_strategy(), pced_strategy()):
            record = run_continual(stream, strategy, small_model_cfg(), fast_train_cfg(), run_seed=0)
            assert foreign_reads(record) == []
            assert len(record.access_events) == 9  # 3 stages x 3 splits

    def test_replay_memory_grows_by_quota(self):
        strategy = er_strategy(MemoryConfig(capacity=100, per_class=2))
        record = run_continual(small_stream(), strategy, small_model_cfg(), fast_train_cfg(), run_seed=0)
        assert record.stage_memory == (4, 8, 12)

    def test_replay_memory_respects_capacity(self):
        strategy = er_strategy(MemoryConfig(capacity=6, per_class=2))
        record = run_continual(small_stream(), strategy, small_model_cfg(), fast_train_cfg(), run_seed=0)
        assert record.stage_memory == (4, 6, 6)

    def test_run_seed_derives_and_records_seeds(self):
        stream = small_stream()
        record = run_continual(stream, sft_strategy(), small_model_cfg(),
                               fast_train_cfg(), run_seed=7)
        model_seed, train_seed = derive_run_seeds(7)
        assert record.seeds == {
            "stream": 1, "model": model_seed, "train": train_seed, "run": 7,
        }

    def test_seeds_block_golden(self):
        # The report's seeds for run_seed 0, fixed by the seed derivation.
        record = run_continual(small_stream(), sft_strategy(), small_model_cfg(),
                               fast_train_cfg(), run_seed=0)
        assert record_to_json_dict(record)["seeds"] == {
            "stream": 1, "model": 2968811710, "train": 3677149159, "run": 0,
        }


KINDS = (sft_strategy(), er_strategy(), ewc_strategy(), pced_strategy())


class TestRunState:
    @pytest.mark.parametrize("strategy", KINDS, ids=lambda s: s.kind)
    def test_advance_runs_one_stage_at_a_time(self, strategy):
        stream = small_stream(n_subjects=4)
        state = RunState(stream, strategy, small_model_cfg(), fast_train_cfg(), run_seed=3)
        for k, ds in enumerate(stream, start=1):
            before = len(state.events)
            state.advance(ds)
            assert np.isnan(state.matrix[k:]).all()
            assert np.isfinite(state.matrix[k - 1, :k]).all()
            new = state.events[before:]
            assert len(new) == 3
            assert {(e.stage, e.subject_id) for e in new} == {(k, ds.subject_id)}
        record = state.record()
        whole = run_continual(stream, strategy, small_model_cfg(), fast_train_cfg(), run_seed=3)
        assert record.matrix.tobytes() == whole.matrix.tobytes()
        assert record.final_params.vector.tobytes() == whole.final_params.vector.tobytes()
        assert report_without_seconds(record) == report_without_seconds(whole)

    @pytest.mark.parametrize("strategy", (er_strategy(), ewc_strategy()), ids=lambda s: s.kind)
    def test_record_pickles_without_the_run_state(self, strategy):
        # The record a pool worker sends back holds no memory, EWC state,
        # model or cached test set: its only arrays are the matrix and the
        # final parameter vector.
        seen = []

        class Collect(pickle.Pickler):
            def persistent_id(self, obj):
                seen.append(obj)

        record = run_continual(small_stream(), strategy, small_model_cfg(), fast_train_cfg(), run_seed=0)
        Collect(io.BytesIO()).dump(record)
        kinds = {type(obj) for obj in seen}
        assert not kinds & {ReplayMemory, OnlineEwc, ShallowConvNet}
        arrays = [obj for obj in seen if isinstance(obj, np.ndarray)]
        assert [a.shape for a in arrays] == [record.matrix.shape, record.final_params.vector.shape]


class TestEwcWiring:
    def test_each_stage_gets_the_penalty_of_the_stages_before(self, monkeypatch):
        # Stage k trains under the hook for the anchor after stage k-1 and
        # the left-to-right sum of the Fisher diagonals after stages 1..k-1.
        stages = []
        real_train = harness.train

        def recording_train(model, params, *args, penalty=None):
            out, history = real_train(model, params, *args, penalty=penalty)
            stages.append((params.copy(), out.copy(), penalty))
            return out, history

        monkeypatch.setattr(harness, "train", recording_train)
        stream, strategy = small_stream(), ewc_strategy()
        run_continual(stream, strategy, small_model_cfg(), fast_train_cfg(), run_seed=0)
        assert len(stages) == 3
        assert stages[0][2] is None
        model = build_model(small_model_cfg())
        fishers = [
            ewc.fisher_diagonal(model, out, ds.arrays(Split.TRAIN))
            for (_, out, _), ds in zip(stages, stream)
        ]
        for k in (2, 3):
            params_in, params_out, hook = stages[k - 1]
            anchor = stages[k - 2][1].vector
            assert params_in.vector.tobytes() == anchor.tobytes()
            fisher = fishers[0]
            for f in fishers[1 : k - 1]:
                fisher = fisher + f
            value, grad = hook(params_out.vector)
            want_value, want_grad = ewc.penalty(params_out.vector, anchor, fisher, strategy.lam)
            assert value > 0.0
            assert value == want_value
            assert grad.tobytes() == want_grad.tobytes()


class TestDeriveRunSeeds:
    def test_deterministic(self):
        assert derive_run_seeds(3) == derive_run_seeds(3)

    def test_golden_values(self):
        assert derive_run_seeds(0) == (2968811710, 3677149159)

    def test_pairs_differ_across_run_seeds(self):
        assert derive_run_seeds(0) != derive_run_seeds(1)

    def test_model_and_train_seed_differ(self):
        model_seed, train_seed = derive_run_seeds(0)
        assert model_seed != train_seed


class TestReportFormats:
    def record(self):
        return run_continual(
            small_stream(), er_strategy(), small_model_cfg(), fast_train_cfg(), run_seed=1
        )

    def test_json_dict_round_trips(self):
        d = record_to_json_dict(self.record())
        parsed = json.loads(json.dumps(d))
        assert parsed == d

    def test_json_dict_contents(self):
        record = self.record()
        d = record_to_json_dict(record)
        assert "final_params" not in d
        assert d["strategy"]["kind"] == "ER"
        assert d["strategy"]["alignment_enabled"] is False
        assert d["strategy"]["memory"] == {
            "capacity": 160, "per_class": 10, "policy": "class_balanced",
        }
        assert d["strategy"]["ewc"] is None
        assert d["n_subjects"] == 3
        assert d["matrix"][0][1] is None
        assert d["matrix"][2][0] == record.matrix[2, 0]
        assert d["acc"] == record.acc
        assert d["bwt"] == record.bwt

    def test_matrix_csv_layout(self):
        record = self.record()
        text = matrix_to_csv(record.matrix)
        lines = text.splitlines()
        assert lines[0] == "stage,subject1,subject2,subject3"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == record.matrix[0, 0]
        assert first[2] == "" and first[3] == ""
        last = lines[3].split(",")
        assert [float(v) for v in last[1:]] == list(record.matrix[2])


# One EWC and one PCED run on a 4-subject stream at the default shape;
# prints the SHA-256 of each run's final parameters and matrix.
_DIGEST_PROBE = """
import hashlib
from eegcl import ModelConfig, StreamConfig, TrainConfig, gen_stream, pced_strategy, run_continual
from eegcl.harness import ewc_strategy
stream = gen_stream(StreamConfig(n_subjects=4))
for strategy in (ewc_strategy(), pced_strategy()):
    record = run_continual(stream, strategy, ModelConfig(), TrainConfig(max_epochs=2), run_seed=0)
    for array in (record.final_params.vector, record.matrix):
        print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_results_do_not_depend_on_blas_thread_count():
    # Identical seeds must give identical results on any machine: one BLAS
    # thread and the library's default thread count give the same bytes.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: one BLAS thread is the default, so the runs cannot differ")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = [
        subprocess.run([sys.executable, "-c", _DIGEST_PROBE], capture_output=True, text=True,
                       env=settings, timeout=120, check=True).stdout.split()
        for settings in ({**env, "OPENBLAS_NUM_THREADS": "1"}, env)
    ]
    assert len(digests[0]) == 4
    assert digests[0] == digests[1]
