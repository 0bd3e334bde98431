import logging
from dataclasses import replace

import numpy as np
import pytest

from eegcl import (
    EmptyInputError,
    ShapeError,
    Split,
    StreamConfig,
    align_subject,
    compute_whitener,
    covariance,
    gen_stream,
    reference_covariance,
)
from eegcl.alignment import whiten_subject

from helpers import balanced_subject


def harmonic_trial(n_channels=4, n_timepoints=16):
    """A trial whose covariance is exactly the identity.

    Rows are sine/cosine harmonics over the time axis: zero-mean and
    mutually orthogonal, normalized so the sample covariance (T-1 divisor)
    comes out as the identity.
    """
    t = np.arange(n_timepoints)
    rows = []
    for k in range(n_channels):
        freq = k // 2 + 1
        phase = 2.0 * np.pi * freq * t / n_timepoints
        rows.append(np.cos(phase) if k % 2 == 0 else np.sin(phase))
    x = np.stack(rows)
    # each harmonic row has sum of squares T/2
    return x * np.sqrt((n_timepoints - 1) / (n_timepoints / 2.0))


def mean_covariance(trials):
    acc = sum(covariance(t) for t in trials)
    return acc / len(trials)


def per_trial_reference_covariance(trials):
    """The per-trial loop reference_covariance is checked against: each
    trial's covariance (T-1 divisor, symmetrized) accumulated in index
    order, then divided by the trial count."""
    acc = None
    for t in trials:
        x = np.asarray(t, dtype=np.float64)
        centered = x - x.mean(axis=1, keepdims=True)
        cov = centered @ centered.T
        cov /= x.shape[1] - 1
        cov = (cov + cov.T) / 2.0
        if acc is None:
            acc = cov
        else:
            acc += cov
    return acc / len(trials)


class TestReferenceCovariance:
    def test_batched_equals_per_trial_loop(self):
        rng = np.random.default_rng(7)
        cases = [
            [rng.standard_normal((4, 9)) for _ in range(7)],
            [(3.0 * rng.standard_normal((3, 40))).astype(np.float32) for _ in range(25)],
        ]
        stream = gen_stream(StreamConfig(seed=0))
        cases += [[t.trial for t in ds.trials_for(Split.TRAIN)] for ds in stream]
        for trials in cases:
            assert np.array_equal(
                reference_covariance(trials), per_trial_reference_covariance(trials)
            )

    def test_time_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        trials = [rng.standard_normal((3, 8)), rng.standard_normal((3, 8)), rng.standard_normal((3, 9))]
        with pytest.raises(ShapeError, match="trial 2"):
            reference_covariance(trials)

    def test_non_finite_rejected(self):
        trials = [np.ones((2, 4)), np.array([[0.0, 1.0, 2.0, np.nan], [1.0, 2.0, 3.0, 4.0]])]
        with pytest.raises(ValueError):
            reference_covariance(trials)

    def test_single_trial_equals_covariance(self):
        rng = np.random.default_rng(0)
        trial = rng.standard_normal((3, 10))
        assert np.array_equal(reference_covariance([trial]), covariance(trial))

    def test_arithmetic_mean_of_scaled_pair(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((3, 12))
        z = covariance(base)
        # second trial has covariance 2Z, so the mean is 1.5Z
        np.testing.assert_allclose(
            reference_covariance([base, np.sqrt(2.0) * base]),
            1.5 * z,
            rtol=1e-12,
            atol=1e-13,
        )

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(2)
        trials = [rng.standard_normal((4, 9)) for _ in range(7)]
        np.testing.assert_allclose(
            reference_covariance(trials), mean_covariance(trials), rtol=0, atol=1e-14
        )

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInputError):
            reference_covariance([])

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            reference_covariance(
                [rng.standard_normal((3, 8)), rng.standard_normal((4, 8))]
            )


class TestComputeWhitener:
    def test_report_fields(self):
        rng = np.random.default_rng(4)
        trials = [rng.standard_normal((3, 20)) for _ in range(5)]
        ref = reference_covariance(trials)
        report = compute_whitener(ref)
        assert np.array_equal(report.reference_covariance, ref)
        assert np.array_equal(report.whitener, report.whitener.T)
        assert report.condition_number >= 1.0
        assert report.eigenvalue_floor_applied is False

    def test_floor_flag_on_rank_deficient_input(self):
        report = compute_whitener(np.diag([1.0, 0.0]))
        assert report.eigenvalue_floor_applied is True
        assert np.all(np.isfinite(report.whitener))

    def test_warning_above_condition_threshold(self, caplog):
        with caplog.at_level(logging.WARNING, logger="eegcl.alignment"):
            compute_whitener(np.diag([1e10, 1.0]))
        assert any("ill-conditioned" in r.getMessage() for r in caplog.records)

    def test_no_warning_when_well_conditioned(self, caplog):
        with caplog.at_level(logging.WARNING, logger="eegcl.alignment"):
            compute_whitener(np.diag([2.0, 1.0]))
        assert not caplog.records

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            compute_whitener(np.eye(2), eps=-1.0)


class TestAlignSubject:
    def test_identity_reference_leaves_trials_unchanged(self):
        trials = [harmonic_trial() for _ in range(3)]
        aligned, report = align_subject(trials)
        assert report.condition_number == pytest.approx(1.0, abs=1e-9)
        for before, after in zip(trials, aligned):
            np.testing.assert_allclose(after, before, atol=1e-9)

    def test_mean_covariance_becomes_identity(self):
        rng = np.random.default_rng(5)
        mixing = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        trials = [mixing @ rng.standard_normal((4, 32)) for _ in range(20)]
        aligned, _ = align_subject(trials)
        err = np.linalg.norm(mean_covariance(aligned) - np.eye(4))
        assert err < 1e-6

    def test_realigning_is_nearly_a_no_op(self):
        rng = np.random.default_rng(6)
        trials = [rng.standard_normal((3, 24)) for _ in range(10)]
        aligned, _ = align_subject(trials)
        again, report = align_subject(aligned)
        assert report.condition_number == pytest.approx(1.0, abs=1e-6)
        for a, b in zip(aligned, again):
            assert np.max(np.abs(a - b)) < 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        trials = [rng.standard_normal((3, 16)) for _ in range(8)]
        perm = [5, 2, 7, 0, 3, 6, 1, 4]
        aligned, report = align_subject(trials)
        aligned_p, report_p = align_subject([trials[i] for i in perm])
        np.testing.assert_allclose(
            report_p.reference_covariance, report.reference_covariance,
            rtol=0, atol=1e-12,
        )
        for out_index, in_index in enumerate(perm):
            np.testing.assert_allclose(
                aligned_p[out_index], aligned[in_index], rtol=0, atol=1e-12
            )

    def test_global_scaling_cancels(self):
        rng = np.random.default_rng(8)
        trials = [rng.standard_normal((3, 16)) for _ in range(6)]
        scaled = [3.0 * t for t in trials]
        aligned, report = align_subject(trials)
        aligned_s, report_s = align_subject(scaled)
        np.testing.assert_allclose(
            report_s.reference_covariance,
            9.0 * report.reference_covariance,
            rtol=1e-9,
            atol=1e-12,
        )
        for a, b in zip(aligned, aligned_s):
            np.testing.assert_allclose(b, a, atol=1e-9)

    def test_output_shapes_match_inputs(self):
        rng = np.random.default_rng(9)
        trials = [rng.standard_normal((5, 13)) for _ in range(4)]
        aligned, _ = align_subject(trials)
        assert len(aligned) == len(trials)
        for t, a in zip(trials, aligned):
            assert a.shape == t.shape

    def test_whiten_subject_applies_training_whitener(self):
        # the whitener comes from the training split alone and every trial,
        # of every split, is W @ x rounded to float32 once
        ds = balanced_subject(np.random.default_rng(10), 2, 6, n_channels=3, n_timepoints=8)
        ds = replace(ds, split=[Split.TRAIN, Split.VAL, Split.TEST] * 4)
        aligned, report = whiten_subject(ds)
        train = [t.trial for t in ds.trials_for(Split.TRAIN)]
        assert np.array_equal(report.reference_covariance, reference_covariance(train))
        whitener = compute_whitener(reference_covariance(train)).whitener
        assert np.array_equal(report.whitener, whitener)
        assert aligned.block.dtype == np.float32 and not aligned.block.flags.writeable
        for before, after in zip(ds.trials, aligned.trials):
            w_x = (report.whitener @ before.trial.astype(np.float64)).astype(np.float32)
            assert np.array_equal(after.trial, w_x)
        for name in ("labels", "timestamps", "split"):
            assert np.array_equal(getattr(aligned, name), getattr(ds, name))
