"""End-to-end acceptance checks for the continual EEG decoding package.

Nine checks, one per core guarantee:

1. aligning a subject drives their mean trial covariance to the identity;
2. the inverse matrix square root satisfies the sandwich identity;
3. analytic gradients match central finite differences on both architectures;
4. standard reservoir retention is uniform while the simplified constant-rate
   replacement rule measurably is not;
5. the backward-transfer and final-accuracy metrics satisfy their defining
   identities and hand-derived examples;
6. on the default synthetic stream the strategy ordering holds
   (PCED > ER > SFT on accuracy, SFT forgets most);
7. the first subject's forgetting curve collapses under naive fine-tuning but
   stays nearly flat under aligned replay;
8. no strategy ever re-reads a past subject's raw trials;
9. identical seeds give byte-identical reports (wall-time fields aside).

The continual-learning experiment (three seeds, three strategies, plus one
EWC run for the audit) executes once in a module fixture shared by checks
6-8.  Each check prints one PASS line with the measured quantities, so
``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import chi2

import helpers
from eegcl import (
    ModelConfig,
    StreamConfig,
    TrainConfig,
    forgetting_curve,
    gen_stream,
    pced_strategy,
    run_continual,
    sft_strategy,
)
from eegcl.alignment import reference_covariance
from eegcl.cli import main
from eegcl.data import LabeledTrial
from eegcl.harness import bwt, er_strategy, ewc_strategy, final_acc, foreign_reads
from eegcl.linalg import inv_sqrt
from eegcl.models import build_model, gradient, loss_and_gradient
from eegcl.replay import ReplayMemory

from helpers import align_subject

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def default_runs():
    """All strategy runs on the default stream: (kind, seed) -> RunRecord.

    SFT, ER, and PCED run on three seeds; EWC runs once on seed 0 so the
    access audit covers every strategy.  Returns (records, seconds spent on
    the nine SFT/ER/PCED runs).
    """
    records = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        stream = gen_stream(StreamConfig(seed=seed))
        for strategy in (sft_strategy(), er_strategy(), pced_strategy()):
            records[(strategy.kind, seed)] = run_continual(
                stream, strategy, ModelConfig(), TrainConfig(), run_seed=seed
            )
    nine_run_seconds = time.perf_counter() - t0
    records[("EWC", 0)] = run_continual(
        gen_stream(StreamConfig(seed=0)),
        ewc_strategy(),
        ModelConfig(),
        TrainConfig(),
        run_seed=0,
    )
    return records, nine_run_seconds


def test_01_alignment_makes_mean_covariance_identity():
    stream = gen_stream(
        StreamConfig(
            n_subjects=50, n_channels=8, n_timepoints=64, trials_per_subject=120, seed=11
        )
    )
    worst = 0.0
    t0 = time.perf_counter()
    for subject in stream.subjects:
        trials = [t.trial for t in subject.trials]
        assert len(trials) == 120
        aligned, _ = align_subject(trials)
        err = float(np.linalg.norm(reference_covariance(aligned) - np.eye(8)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    print(
        f"PASS 01 alignment identity: worst Frobenius error {worst:.2e} "
        f"over 50 subjects in {elapsed:.2f}s"
    )


def test_02_inverse_sqrt_sandwich_identity():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        g = rng.standard_normal((n, n))
        spd = (g @ g.T) * 10.0 ** rng.uniform(-2.0, 2.0)
        w = inv_sqrt(spd)
        err = float(np.linalg.norm(w @ spd @ w - np.eye(n)))
        worst = max(worst, err)
    assert worst < 1e-6
    print(f"PASS 02 inverse-sqrt sandwich: worst Frobenius error {worst:.2e} over 100 SPD matrices")


def test_03_analytic_gradients_match_finite_differences():
    largest = 0
    for i in range(20):
        rng = np.random.default_rng(7000 + i)
        n_channels = int(rng.integers(2, 4))
        n_classes = int(rng.integers(2, 4))
        if i % 2 == 0:
            cfg = ModelConfig(
                architecture="mlp",
                n_channels=n_channels,
                n_timepoints=int(rng.integers(4, 9)),
                n_classes=n_classes,
                hidden=(int(rng.integers(3, 7)),),
            )
        else:
            cfg = ModelConfig(
                architecture="shallow_conv",
                n_channels=n_channels,
                n_timepoints=int(rng.integers(8, 13)),
                n_classes=n_classes,
                n_filters=int(rng.integers(2, 4)),
                kernel_len=int(rng.integers(3, 7)),
            )
        model = build_model(cfg)
        assert model.layout.size <= 500
        largest = max(largest, model.layout.size)
        params = model.init_params(i) + 0.2 * rng.standard_normal(model.layout.size)
        x = rng.standard_normal((4, cfg.n_channels, cfg.n_timepoints))
        labels = rng.integers(0, n_classes, size=4)

        analytic = gradient(model, params, x, labels)
        numeric = helpers.central_difference(
            lambda v: loss_and_gradient(model, v, x, labels)[0],
            params,
        )
        assert helpers.gradients_close(analytic, numeric)
    print(
        "PASS 03 gradient check: 20 random instances on both architectures, "
        f"largest model {largest} parameters"
    )


@pytest.mark.slow
def test_04_reservoir_retention_is_uniform_and_literal_rule_is_not():
    capacity, n_items, n_reps = 10, 1000, 20000
    data = np.zeros((1, 1), dtype=np.float32)
    stream = [
        LabeledTrial(trial=data, class_label=0, subject_id=0, timestamp=t)
        for t in range(n_items)
    ]
    t0 = time.perf_counter()
    p_values = {}
    for policy in ("reservoir_standard", "reservoir_paper_literal"):
        counts = [0] * n_items
        for rep in range(n_reps):
            memory = ReplayMemory(capacity, policy, seed=rep)
            memory.offer_many(stream)
            for entry in memory.entries:
                counts[entry.timestamp] += 1
        buckets = np.asarray(counts).reshape(50, 20).sum(axis=1)
        expected = n_reps * capacity / 50.0
        stat = float(np.sum((buckets - expected) ** 2 / expected))
        p_values[policy] = float(chi2.sf(stat, df=49))
    elapsed = time.perf_counter() - t0
    assert p_values["reservoir_standard"] > 0.001
    assert p_values["reservoir_paper_literal"] < 0.001
    assert elapsed < 60.0
    print(
        "PASS 04 reservoir uniformity: standard p = "
        f"{p_values['reservoir_standard']:.3f}, constant-rate rule p = "
        f"{p_values['reservoir_paper_literal']:.2e}, {2 * n_reps} replications "
        f"in {elapsed:.1f}s"
    )


def test_05_metric_identities():
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        matrix = rng.uniform(0.2, 1.0, size=(n, n))
        for i in range(n):
            matrix[-1, i] = matrix[i, i]
        assert bwt(matrix) == 0.0

    two = np.array([[0.8, np.nan], [0.7, 0.9]])
    assert bwt(two) == pytest.approx(0.7 - 0.8, abs=1e-12)

    three = np.array(
        [
            [0.6, np.nan, np.nan],
            [0.5, 0.7, np.nan],
            [0.7, 0.7, 0.9],
        ]
    )
    assert bwt(three) == pytest.approx(((0.7 - 0.6) + (0.7 - 0.7)) / 2, abs=1e-12)

    square = rng.uniform(0.0, 1.0, size=(6, 6))
    assert abs(final_acc(square) - np.mean(square[-1])) < 1e-12
    print(
        "PASS 05 metric identities: zero property on 25 random matrices, "
        "worked examples -0.10 and +0.05, final accuracy = last-row mean"
    )


def test_06_strategy_ordering_on_default_stream(default_runs):
    records, nine_run_seconds = default_runs
    acc = {
        kind: float(np.mean([records[(kind, s)].acc for s in SEEDS]))
        for kind in ("SFT", "ER", "PCED")
    }
    mean_bwt = {
        kind: float(np.mean([records[(kind, s)].bwt for s in SEEDS]))
        for kind in ("SFT", "ER", "PCED")
    }
    assert acc["PCED"] > acc["ER"] > acc["SFT"]
    assert acc["PCED"] - acc["SFT"] >= 0.10
    assert mean_bwt["SFT"] < mean_bwt["PCED"]
    assert mean_bwt["SFT"] <= -0.05
    assert nine_run_seconds < 600.0
    print(
        "PASS 06 strategy ordering: acc SFT/ER/PCED = "
        f"{acc['SFT']:.3f}/{acc['ER']:.3f}/{acc['PCED']:.3f}, "
        f"bwt SFT = {mean_bwt['SFT']:+.3f} vs PCED = {mean_bwt['PCED']:+.3f}, "
        f"nine runs in {nine_run_seconds:.0f}s"
    )


def test_07_first_subject_forgetting_collapses_only_without_protection(default_runs):
    records, _ = default_runs
    drops = {}
    for kind in ("SFT", "PCED"):
        per_seed = []
        for seed in SEEDS:
            curve = forgetting_curve(records[(kind, seed)].matrix, subject=1)
            per_seed.append(curve[0][1] - curve[-1][1])
        drops[kind] = float(np.mean(per_seed))
    assert drops["SFT"] >= 0.10
    assert drops["PCED"] <= 0.5 * drops["SFT"]
    print(
        "PASS 07 forgetting curve: subject-1 drop SFT = "
        f"{drops['SFT']:+.3f}, PCED = {drops['PCED']:+.3f} (mean over 3 seeds)"
    )


def test_08_no_strategy_reads_past_subjects_raw_trials(default_runs):
    records, _ = default_runs
    kinds = set()
    n_events = 0
    for (kind, _seed), record in records.items():
        kinds.add(kind)
        assert record.access_events
        n_events += len(record.access_events)
        assert foreign_reads(record) == []
    assert kinds == {"SFT", "ER", "EWC", "PCED"}
    print(
        f"PASS 08 protocol integrity: {len(records)} runs over 4 strategies, "
        f"{n_events} audited accesses, 0 raw-trial reads of past subjects"
    )


def test_09_identical_seeds_give_identical_reports(tmp_path):
    config_path = tmp_path / "experiment.json"
    config_path.write_text(
        json.dumps(
            {
                "stream": {"generator": {}},
                "strategies": ["SFT", "PCED"],
                "seeds": [0],
            }
        )
    )
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0

    compared = 0
    for name in ("report_sft_0.json", "report_pced_0.json"):
        payloads = []
        for out in outs:
            report = json.loads((out / name).read_text())
            report.pop("stage_seconds")
            payloads.append(json.dumps(report, sort_keys=True).encode())
        assert payloads[0] == payloads[1]
        compared += 1
    for name in ("matrix_sft_0.csv", "matrix_pced_0.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        compared += 1
    print(
        "PASS 09 determinism: two identical-seed runs, "
        f"{compared} artifacts byte-identical (wall-time fields excluded)"
    )
