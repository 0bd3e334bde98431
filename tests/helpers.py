"""Shared builders for the test suite: tiny trials, subjects, a
central-difference gradient oracle, reference log-softmax and
cross-entropy for the gradient oracles, align_subject for whitening a
bare list of trials, a spy on the dtype each network computes in, and JSON
files that do not decode."""

import numpy as np

from eegcl.alignment import compute_whitener, reference_covariance
from eegcl.data import LabeledTrial, Split, SubjectDataset
from eegcl.models import MlpNet, ShallowConvNet


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


def log_softmax(logits):
    """Reference row-wise log softmax of 2-D logits, stabilized by max
    subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits, labels):
    """Reference mean negative log softmax probability of the true class."""
    ls = log_softmax(logits)
    return float(-ls[np.arange(len(labels)), labels].mean())


def align_subject(trials):
    """Whiten trials against their own mean covariance.

    Returns (aligned float64 trials, AlignmentReport). Each aligned trial has
    the same shape as its input, and the mean covariance of the aligned set
    is the identity whenever the reference covariance is well conditioned.
    """
    trials = list(trials)
    report = compute_whitener(reference_covariance(trials))
    return list(np.matmul(report.whitener, np.array(trials, dtype=np.float64))), report


def cache_dtypes(cache) -> frozenset:
    """The dtypes of every array in a forward pass's cache: its arrays, its
    lists of activations and its dicts of parameter blocks."""
    dtypes = set()
    for item in cache:
        if isinstance(item, dict):
            item = list(item.values())
        dtypes.update(a.dtype for a in (item if isinstance(item, list) else [item]))
    return frozenset(dtypes)


def spy_compute_dtypes(monkeypatch) -> list:
    """Wrap forward_cached and backward on both networks. Returns the list
    to which every call then appends (method name, per_sample or None for a
    forward pass, cache_dtypes of the cache it made or read)."""
    calls = []
    for cls in (MlpNet, ShallowConvNet):
        forward, backward = cls.forward_cached, cls.backward

        def spied_forward(self, params, x, forward=forward):
            logits, cache = forward(self, params, x)
            calls.append(("forward", None, cache_dtypes(cache)))
            return logits, cache

        def spied_backward(self, cache, dlogits, per_sample=False, backward=backward):
            calls.append(("backward", per_sample, cache_dtypes(cache)))
            return backward(self, cache, dlogits, per_sample)

        monkeypatch.setattr(cls, "forward_cached", spied_forward)
        monkeypatch.setattr(cls, "backward", spied_backward)
    return calls


# The bytes of JSON files that do not decode, by name: broken syntax, bytes
# that are not UTF-8, nesting far past the recursion limit, and an object
# that gives one key twice.
UNDECODABLE_JSON = {
    "broken": b"{broken",
    "not_utf8": b'{"seed": "\xff"}',
    "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
    "repeated_key": b'{"seed": 1, "seed": 2}',
}
