"""Shared builders for the test suite: tiny trials, subjects, and a
central-difference gradient oracle."""

import numpy as np

from eegcl import LabeledTrial, Split, SubjectDataset


def make_trial(data, label=0, subject=0, timestamp=0):
    return LabeledTrial(
        trial=np.asarray(data), class_label=label, subject_id=subject, timestamp=timestamp
    )


def tiny_arrays(rng, n, n_channels=2, n_timepoints=4, n_classes=2):
    """n random trials with round-robin labels, as an (x, y) pair of arrays."""
    return rng.standard_normal((n, n_channels, n_timepoints)), np.arange(n) % n_classes


def tiny_trials(rng, n, n_channels=2, n_timepoints=4, subject=0, n_classes=2, start=0):
    """tiny_arrays as LabeledTrials with sequential timestamps."""
    x, y = tiny_arrays(rng, n, n_channels, n_timepoints, n_classes)
    return [
        make_trial(x[i], label=int(y[i]), subject=subject, timestamp=start + i) for i in range(n)
    ]


def balanced_subject(rng, subject_id, n_per_class, n_channels=2, n_timepoints=4,
                     n_classes=2, tag_all=Split.TRAIN):
    """A subject of tiny_arrays with n_per_class trials per class, all
    carrying one split tag."""
    n = n_per_class * n_classes
    x, y = tiny_arrays(rng, n, n_channels, n_timepoints, n_classes)
    return SubjectDataset(subject_id, x, y, np.arange(n), [tag_all] * n)


def separable_subject(rng, subject_id, n_per_class, n_channels=2, n_timepoints=4,
                      gap=6.0, noise=0.3, splits=(Split.TRAIN,)):
    """Two classes with far-apart means: linearly separable after flattening.

    splits cycles over the trials, so (TRAIN, TRAIN, VAL) gives a 2:1
    train/val interleaving.
    """
    n = n_per_class * 2
    labels = np.arange(n) % 2
    centers = np.where(labels == 0, gap, -gap)[:, None, None]
    block = centers + noise * rng.standard_normal((n, n_channels, n_timepoints))
    tags = [splits[i % len(splits)] for i in range(n)]
    return SubjectDataset(subject_id, block, labels, np.arange(n), tags)


def central_difference(f, vector, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    grad = np.zeros_like(vector)
    for i in range(vector.size):
        bumped = vector.copy()
        bumped[i] += h
        up = f(bumped)
        bumped[i] -= 2 * h
        down = f(bumped)
        grad[i] = (up - down) / (2 * h)
    return grad


def gradients_close(analytic, numeric, abs_tol=1e-4, rel_tol=1e-3):
    """Per-coordinate agreement within max(abs_tol, rel_tol * |numeric|)."""
    allowed = np.maximum(abs_tol, rel_tol * np.abs(numeric))
    return bool(np.all(np.abs(analytic - numeric) <= allowed))
