"""Trial data model, stratified splits, synthetic subject streams, and disk I/O.

A stream is an ordered list of subjects; each subject owns a set of labeled
multichannel trials tagged train/val/test. The synthetic generator produces
subjects that share latent class patterns but differ by an invertible
per-subject channel mixing, which is the kind of inter-subject shift the
alignment stage is designed to remove.

On-disk layout is a directory holding ``manifest.json`` plus one binary file
per subject. All integers and floats in the binary format are little-endian.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    StratificationError,
    StreamFormatError,
)
from .linalg import covariance, inv_sqrt, sym_eig, symmetrize

MANIFEST_NAME = "manifest.json"
SUBJECT_MAGIC = b"EEGC"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHIHIH")  # magic, version, n_trials, channels, timepoints, n_classes
_TRIAL_PREFIX = struct.Struct("<IBB")  # timestamp, class_label, split tag

# Redraw threshold for the per-subject mixing matrix determinant.
_LOG_DET_MIN = math.log(1e-3)


class Split(IntEnum):
    """Per-trial split tag; values double as the on-disk byte codes."""

    TRAIN = 0
    VAL = 1
    TEST = 2


@dataclass(frozen=True, eq=False)
class LabeledTrial:
    """One channels x time trial with its label and provenance.

    The sample matrix is stored as read-only float32; computation elsewhere
    promotes to float64. ``timestamp`` is the trial's sequence number within
    its subject's recording session.
    """

    trial: np.ndarray
    class_label: int
    subject_id: int
    timestamp: int

    def __post_init__(self):
        a = np.array(self.trial, dtype=np.float32, order="C")
        if a.ndim != 2:
            raise ValueError(f"trial must be 2-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("trial contains non-finite values")
        a.flags.writeable = False
        object.__setattr__(self, "trial", a)
        if self.class_label < 0:
            raise ValueError(f"class_label must be >= 0, got {self.class_label}")
        if self.subject_id < 0:
            raise ValueError(f"subject_id must be >= 0, got {self.subject_id}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")

    def __reduce__(self):
        # Unpickle through the constructor, which re-checks the trial and
        # makes its samples read-only again.
        return LabeledTrial, (self.trial, self.class_label, self.subject_id, self.timestamp)


def trials_equal(a: LabeledTrial, b: LabeledTrial) -> bool:
    """Bitwise equality of two labeled trials, all fields included."""
    return (
        a.class_label == b.class_label
        and a.subject_id == b.subject_id
        and a.timestamp == b.timestamp
        and a.trial.shape == b.trial.shape
        and np.array_equal(a.trial, b.trial)
    )


@dataclass(frozen=True, eq=False)
class SubjectDataset:
    """All trials of one subject plus a parallel tuple of split tags."""

    subject_id: int
    trials: tuple
    split: tuple

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))
        object.__setattr__(self, "split", tuple(Split(s) for s in self.split))
        if len(self.trials) != len(self.split):
            raise ValueError(
                f"{len(self.trials)} trials but {len(self.split)} split tags"
            )
        last = -1
        for t in self.trials:
            if t.timestamp <= last:
                raise ValueError(
                    f"timestamps must increase strictly within a subject "
                    f"(saw {t.timestamp} after {last})"
                )
            last = t.timestamp

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_channels(self) -> int:
        return self.trials[0].trial.shape[0] if self.trials else 0

    @property
    def n_timepoints(self) -> int:
        return self.trials[0].trial.shape[1] if self.trials else 0

    def trials_for(self, split: Split) -> tuple:
        """Trials carrying the given split tag, in timestamp order."""
        split = Split(split)
        return tuple(t for t, s in zip(self.trials, self.split) if s == split)

    def class_counts(self) -> dict:
        counts: dict = {}
        for t in self.trials:
            counts[t.class_label] = counts.get(t.class_label, 0) + 1
        return counts


def datasets_equal(a: SubjectDataset, b: SubjectDataset) -> bool:
    return (
        a.subject_id == b.subject_id
        and a.split == b.split
        and len(a.trials) == len(b.trials)
        and all(trials_equal(x, y) for x, y in zip(a.trials, b.trials))
    )


@dataclass(frozen=True)
class StreamConfig:
    """Shape and randomness knobs for the synthetic subject stream.

    mixing_scale controls how strongly subjects differ (0 disables mixing
    entirely); noise_sigma is the per-sample Gaussian noise level relative
    to the unit-scale class patterns. randomize_polarity flips the sign of
    each trial's class pattern at random, which moves class identity from
    the trial mean into the trial covariance; turning it off yields the
    simpler mean-coded stream (and with noise and mixing also zeroed, trials
    that equal their class template exactly).
    """

    n_subjects: int = 8
    n_channels: int = 8
    n_timepoints: int = 64
    n_classes: int = 2
    trials_per_subject: int = 120
    mixing_scale: float = 1.0
    noise_sigma: float = 1.0
    randomize_polarity: bool = True
    seed: int = 0

    def validate(self):
        for field in ("n_subjects", "n_channels", "n_timepoints", "trials_per_subject"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.mixing_scale < 0:
            raise ConfigError(f"mixing_scale must be >= 0, got {self.mixing_scale}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.n_timepoints < 2:
            raise ConfigError(
                f"n_timepoints must be >= 2 for covariance estimates, "
                f"got {self.n_timepoints}"
            )


@dataclass(frozen=True, eq=False)
class Stream:
    """An ordered subject stream plus the shared dimensions and seed."""

    subjects: tuple
    n_channels: int
    n_timepoints: int
    n_classes: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        for ds in self.subjects:
            for t in ds.trials:
                if t.trial.shape != (self.n_channels, self.n_timepoints):
                    raise ValueError(
                        f"subject {ds.subject_id} trial shape {t.trial.shape} "
                        f"!= ({self.n_channels}, {self.n_timepoints})"
                    )
                if t.class_label >= self.n_classes:
                    raise ValueError(
                        f"subject {ds.subject_id} has class_label {t.class_label} "
                        f">= n_classes {self.n_classes}"
                    )

    def __len__(self) -> int:
        return len(self.subjects)

    def __getitem__(self, i) -> SubjectDataset:
        return self.subjects[i]

    def __iter__(self):
        return iter(self.subjects)


def streams_equal(a: Stream, b: Stream) -> bool:
    return (
        (a.n_channels, a.n_timepoints, a.n_classes, a.seed)
        == (b.n_channels, b.n_timepoints, b.n_classes, b.seed)
        and len(a.subjects) == len(b.subjects)
        and all(datasets_equal(x, y) for x, y in zip(a.subjects, b.subjects))
    )


def split_subject(dataset: SubjectDataset, train_frac: float, seed: int) -> SubjectDataset:
    """Retag a subject's trials with a stratified train/val/test split.

    Per class, floor(train_frac * n) trials go to train; the leftovers
    alternate val, test. The alternation counter starts at val and carries
    across classes so that val and test end up the same size overall
    (a per-class restart would bias the totals toward val whenever the
    per-class remainder is odd). Trials keep their order; only tags change.
    """
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
    if not dataset.trials:
        raise EmptyInputError("cannot split a subject with no trials")
    by_class: dict = {}
    for idx, t in enumerate(dataset.trials):
        by_class.setdefault(t.class_label, []).append(idx)
    rng = np.random.default_rng(seed)
    tags = [Split.TRAIN] * len(dataset.trials)
    next_is_val = True
    for label in sorted(by_class):
        idxs = by_class[label]
        if len(idxs) < 3:
            raise StratificationError(
                f"class {label} has only {len(idxs)} trials; "
                f"need at least 3 to cover train/val/test"
            )
        order = np.array(idxs)
        rng.shuffle(order)
        n_train = int(math.floor(train_frac * len(order)))
        if n_train == 0:
            raise StratificationError(
                f"train_frac {train_frac} leaves class {label} with no training trials"
            )
        for pos, idx in enumerate(order):
            if pos < n_train:
                tags[idx] = Split.TRAIN
            else:
                tags[idx] = Split.VAL if next_is_val else Split.TEST
                next_is_val = not next_is_val
    return replace(dataset, split=tuple(tags))


def _draw_mixing(rng: np.random.Generator, n_channels: int, scale: float) -> np.ndarray:
    """Random symmetric positive-definite mixing matrix.

    Built as the matrix exponential of a scaled symmetric Gaussian draw,
    redrawn while the determinant magnitude is at most 1e-3. Symmetric
    positive-definite mixing matters: whitening a subject against their own
    mean covariance then cancels the mixing exactly instead of leaving a
    residual channel rotation behind.
    """
    if scale == 0.0:
        return np.eye(n_channels)
    while True:
        g = rng.standard_normal((n_channels, n_channels))
        eig = sym_eig(symmetrize(g) * scale)
        if float(np.sum(eig.eigenvalues)) > _LOG_DET_MIN:  # log|det| of the exponential
            break
    v = eig.eigenvectors
    return symmetrize((v * np.exp(eig.eigenvalues)) @ v.T)


def gen_stream(config: StreamConfig, train_frac: float = 0.7) -> Stream:
    """Generate a synthetic subject stream with controllable domain shift.

    Each class gets a fixed latent pattern, drawn once per stream and then
    jointly whitened so the patterns' mean covariance is the identity. Each
    subject applies their own random symmetric positive-definite channel
    mixing to every trial: trial = A_k (g * S_c + noise), where g is a
    random +-1 gain per trial (see below). Whitened patterns plus symmetric
    mixing make the shift exactly removable by per-subject covariance
    whitening, so the alignment stage's benefit is measurable rather than
    incidental. Labels cycle round-robin, keeping classes balanced within
    one trial.

    The random polarity gain (config.randomize_polarity, on by default)
    zeroes the class means so class identity lives only in the trials'
    second-order structure. That matters for sequential training: a
    positive-definite mixing change preserves the sign of any mean-coded
    decision boundary, so a mean-coded stream never makes later subjects
    conflict with earlier ones. Covariance-coded classes do conflict across
    mixings, which is what lets the stream exhibit genuine forgetting and
    genuine recovery under alignment instead of uniform positive transfer.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    c, t = config.n_channels, config.n_timepoints
    raw = rng.standard_normal((config.n_classes, c, t))
    mean_cov = np.zeros((c, c))
    for s in raw:
        mean_cov += covariance(s)
    mean_cov /= config.n_classes
    whiten = inv_sqrt(mean_cov)
    patterns = np.array([whiten @ s for s in raw])

    subjects = []
    for k in range(config.n_subjects):
        mixing = _draw_mixing(rng, c, config.mixing_scale)
        trials = []
        for i in range(config.trials_per_subject):
            label = i % config.n_classes
            if config.randomize_polarity:
                gain = 1.0 if rng.random() < 0.5 else -1.0
            else:
                gain = 1.0
            noise = rng.standard_normal((c, t))
            x = mixing @ (gain * patterns[label] + config.noise_sigma * noise)
            trials.append(
                LabeledTrial(trial=x, class_label=label, subject_id=k, timestamp=i)
            )
        ds = SubjectDataset(
            subject_id=k, trials=tuple(trials), split=(Split.TRAIN,) * len(trials)
        )
        split_seed = int(rng.integers(0, 2**32 - 1))
        subjects.append(split_subject(ds, train_frac, split_seed))
    return Stream(
        subjects=tuple(subjects),
        n_channels=c,
        n_timepoints=t,
        n_classes=config.n_classes,
        seed=config.seed,
    )


def encode_trial_data(a: np.ndarray) -> bytes:
    """Row-major little-endian float32 bytes of a trial matrix."""
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def decode_trial_data(buf: bytes, offset: int, n_channels: int, n_timepoints: int) -> np.ndarray:
    count = n_channels * n_timepoints
    return (
        np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
        .reshape(n_channels, n_timepoints)
        .copy()
    )


def _need(buf: bytes, offset: int, n: int, what: str, path):
    if offset + n > len(buf):
        raise StreamFormatError(
            f"{path}: truncated while reading {what} "
            f"(need {n} bytes at offset {offset}, have {len(buf) - offset})",
            offset=offset,
        )


def encode_subject(dataset: SubjectDataset, n_classes: int) -> bytes:
    """Serialize one subject to the binary trial format."""
    if dataset.trials:
        c, t = dataset.n_channels, dataset.n_timepoints
    else:
        c, t = 0, 0
    parts = [
        _HEADER.pack(SUBJECT_MAGIC, FORMAT_VERSION, len(dataset.trials), c, t, n_classes)
    ]
    for trial, tag in zip(dataset.trials, dataset.split):
        parts.append(_TRIAL_PREFIX.pack(trial.timestamp, trial.class_label, int(tag)))
        parts.append(encode_trial_data(trial.trial))
    return b"".join(parts)


def decode_subject(buf: bytes, subject_id: int, path="<memory>") -> tuple:
    """Parse one subject file; returns (SubjectDataset, n_classes).

    Raises StreamFormatError carrying the byte offset of the first
    malformed field.
    """
    _need(buf, 0, _HEADER.size, "header", path)
    magic, version, n_trials, c, t, n_classes = _HEADER.unpack_from(buf, 0)
    if magic != SUBJECT_MAGIC:
        raise StreamFormatError(
            f"{path}: bad magic {magic!r}, expected {SUBJECT_MAGIC!r}", offset=0
        )
    if version != FORMAT_VERSION:
        raise StreamFormatError(
            f"{path}: unsupported format version {version}", offset=4
        )
    if n_trials > 0 and (c < 1 or t < 1):
        raise StreamFormatError(
            f"{path}: invalid trial dimensions {c}x{t}", offset=10
        )
    offset = _HEADER.size
    trials = []
    tags = []
    for i in range(n_trials):
        _need(buf, offset, _TRIAL_PREFIX.size, f"trial {i} prefix", path)
        timestamp, label, tag = _TRIAL_PREFIX.unpack_from(buf, offset)
        if label >= n_classes:
            raise StreamFormatError(
                f"{path}: trial {i} class_label {label} >= n_classes {n_classes}",
                offset=offset + 4,
            )
        if tag not in (0, 1, 2):
            raise StreamFormatError(
                f"{path}: trial {i} split tag {tag} not in {{0, 1, 2}}",
                offset=offset + 5,
            )
        offset += _TRIAL_PREFIX.size
        _need(buf, offset, 4 * c * t, f"trial {i} samples", path)
        data = decode_trial_data(buf, offset, c, t)
        try:
            trial = LabeledTrial(
                trial=data, class_label=label, subject_id=subject_id, timestamp=timestamp
            )
        except ValueError as exc:
            raise StreamFormatError(f"{path}: trial {i}: {exc}", offset=offset) from exc
        offset += 4 * c * t
        trials.append(trial)
        tags.append(Split(tag))
    try:
        ds = SubjectDataset(subject_id=subject_id, trials=tuple(trials), split=tuple(tags))
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}", offset=_HEADER.size) from exc
    return ds, n_classes


def _subject_filename(subject_id: int) -> str:
    return f"subject_{subject_id:03d}.eegc"


def save_stream(stream: Stream, path) -> None:
    """Write a stream as manifest.json plus one binary file per subject."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for ds in stream:
        name = _subject_filename(ds.subject_id)
        (root / name).write_bytes(encode_subject(ds, stream.n_classes))
        entries.append({"subject_id": ds.subject_id, "file": name})
    manifest = {
        "version": FORMAT_VERSION,
        "n_subjects": len(stream),
        "n_channels": stream.n_channels,
        "n_timepoints": stream.n_timepoints,
        "n_classes": stream.n_classes,
        "seed": stream.seed,
        "subjects": entries,
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_stream(path) -> Stream:
    """Load a stream directory; inverse of save_stream, bit-exact."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StreamFormatError(f"{manifest_path}: manifest not found")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    for key in ("version", "n_subjects", "n_channels", "n_timepoints", "n_classes", "seed", "subjects"):
        if key not in manifest:
            raise StreamFormatError(f"{manifest_path}: missing key {key!r}")
    if manifest["version"] != FORMAT_VERSION:
        raise StreamFormatError(
            f"{manifest_path}: unsupported manifest version {manifest['version']}"
        )
    entries = manifest["subjects"]
    if len(entries) != manifest["n_subjects"]:
        raise StreamFormatError(
            f"{manifest_path}: manifest declares {manifest['n_subjects']} subjects "
            f"but lists {len(entries)} files"
        )
    subjects = []
    for entry in entries:
        fpath = root / entry["file"]
        if not fpath.is_file():
            raise StreamFormatError(f"{fpath}: listed in manifest but missing")
        ds, n_classes = decode_subject(fpath.read_bytes(), entry["subject_id"], fpath)
        if n_classes != manifest["n_classes"]:
            raise StreamFormatError(
                f"{fpath}: file declares {n_classes} classes, "
                f"manifest says {manifest['n_classes']}",
                offset=16,
            )
        if ds.trials and ds.n_channels != manifest["n_channels"]:
            raise StreamFormatError(
                f"{fpath}: file has {ds.n_channels} channels, "
                f"manifest says {manifest['n_channels']}",
                offset=10,
            )
        if ds.trials and ds.n_timepoints != manifest["n_timepoints"]:
            raise StreamFormatError(
                f"{fpath}: file has {ds.n_timepoints} timepoints, "
                f"manifest says {manifest['n_timepoints']}",
                offset=12,
            )
        subjects.append(ds)
    try:
        return Stream(
            subjects=tuple(subjects),
            n_channels=manifest["n_channels"],
            n_timepoints=manifest["n_timepoints"],
            n_classes=manifest["n_classes"],
            seed=manifest["seed"],
        )
    except ValueError as exc:
        raise StreamFormatError(f"{root}: {exc}") from exc
