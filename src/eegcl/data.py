"""Trial data model, stratified splits, synthetic subject streams, and disk I/O.

A stream is an ordered, non-empty list of subjects; each subject owns one or
more labeled multichannel trials tagged train/val/test. SubjectDataset and
decode_subject refuse a subject without trials, Stream a stream without
subjects or with a subject that lacks a split, and StreamConfig a class too
small to split, so every generated subject has trials in all three splits.
Stream.RULES, which load_stream reads a manifest by, _ID_RULES and the
shape check SubjectDataset and LabeledTrial share hold a stream's fields to
its files' widths, and a trial to TRIAL_SAMPLES_LIMIT samples, so every Stream
that builds saves; _ID_RULES and the shape check do the same for an EEGM exemplar.
The synthetic generator produces subjects that share latent class patterns
but differ by an invertible per-subject channel mixing, which is the kind of
inter-subject shift the alignment stage is designed to remove.

On-disk layout is a directory holding ``manifest.json`` plus one binary file
per subject. All integers and floats in the binary format are little-endian.
A subject file (EEGC) is stated once, as the header dtype _HEADER and the
record dtype _record_dtype: both codec directions go through them, and every
StreamFormatError offset is read from them by field name. encode_subject
refuses a class count that decode_subject would refuse, so every file it
writes decodes to an equal subject.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    BOOL,
    ConfigError,
    ShapeError,
    StreamFormatError,
    check_fields,
    integer,
    number,
)
from .linalg import covariances, inv_sqrt, sym_eig, symmetrize
from .linalg import covariance  # noqa: F401  traced as data.covariance by bench/

MANIFEST_NAME = "manifest.json"
SUBJECT_MAGIC = b"EEGC"
FORMAT_VERSION = 1

# A subject file's header, packed; a raw V4 magic keeps trailing NULs.
_HEADER = np.dtype([("magic", "V4"), ("version", "<u2"), ("n_trials", "<u4"),
                    ("n_channels", "<u2"), ("n_timepoints", "<u4"), ("n_classes", "<u2")])
# A subject header stores the channel count and the class count in two bytes,
# and the trial count and the timepoint count in four; a trial record stores
# its class label in one byte and its timestamp in four; an EEGM exemplar
# record (replay.py) stores its subject id in four.
CHANNEL_LIMIT = 0xFFFF
CLASS_LIMIT = 0xFFFF
COUNT_LIMIT = 0xFFFFFFFF
LABEL_LIMIT = 0xFF
SUBJECT_LIMIT = 0xFFFFFFFF
TIMESTAMP_LIMIT = 0xFFFFFFFF
# A subject's (trials, channels, timepoints) by the widths of its header
# fields; a trial's (channels, timepoints) by the last two.
_SHAPE_LIMITS = (COUNT_LIMIT, CHANNEL_LIMIT, COUNT_LIMIT)
# Samples a trial may hold: numpy's largest record dtype, 2**31 - 1 bytes (a
# wider one gets a negative itemsize), less EEGM's 9-byte prefix, in float32s.
TRIAL_SAMPLES_LIMIT = (2**31 - 1 - 9) // 4

# Redraw threshold for the per-subject mixing matrix determinant.
_LOG_DET_MIN = math.log(1e-3)
# Share of each class gen_stream tags train; val and test split the rest.
TRAIN_FRAC = 0.7
# A trial's ids obey a config count's rule, held to their record widths.
_ID_RULES = {"class_label": integer(0, LABEL_LIMIT), "subject_id": integer(0, SUBJECT_LIMIT),
             "timestamp": integer(0, TIMESTAMP_LIMIT)}


def _check_shape(name: str, shape: tuple, limits: tuple) -> None:
    """ShapeError unless shape has one dimension per limit, each from 1 to
    it, and its last two make a trial of at most TRIAL_SAMPLES_LIMIT samples."""
    if (len(shape) != len(limits) or not all(0 < n <= m for n, m in zip(shape, limits))
            or math.prod(shape[-2:]) > TRIAL_SAMPLES_LIMIT):
        raise ShapeError(f"{name} must be {len(limits)}-D, {' x '.join('1' * len(limits))} to "
                         f"{' x '.join(map(str, limits))}, got shape {shape} "
                         f"(at most {TRIAL_SAMPLES_LIMIT} samples a trial)")


class Split(IntEnum):
    """Per-trial split tag; values double as the on-disk byte codes."""

    TRAIN = 0
    VAL = 1
    TEST = 2


@dataclass(frozen=True, eq=False)
class LabeledTrial:
    """One channels x time trial with its label and provenance.

    The sample matrix is stored as read-only float32; the networks compute
    on it in float32, and whitening in float64. ``timestamp`` is the trial's
    sequence number within its subject's recording session. Its ids and
    shape fit an EEGM exemplar record, so every replay memory encodes.
    """

    trial: np.ndarray
    class_label: int
    subject_id: int
    timestamp: int

    def __post_init__(self):
        _check_shape("trial", np.shape(self.trial), _SHAPE_LIMITS[1:])  # before the copy
        a = np.array(self.trial, dtype=np.float32, order="C")
        if not np.all(np.isfinite(a)):
            raise ValueError("trial contains non-finite values")
        a.flags.writeable = False
        object.__setattr__(self, "trial", a)
        for name, rule in _ID_RULES.items():
            rule.check(getattr(self, name), name, ValueError)

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


def _int64(values, name: str) -> np.ndarray:
    """values as a new int64 array; a non-empty array of another kind than
    integers, or above int64, is a ValueError naming the field, not
    truncated or wrapped."""
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "iu" or a.max() > np.iinfo(np.int64).max):
        raise ValueError(f"{name} must be integers within int64, got {a.dtype} values")
    return a.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SubjectDataset:
    """One subject's trials: a read-only float32 block (n, channels, time)
    with parallel int64 `labels` and `timestamps` and uint8 `split` tags.

    The constructor checks the arrays (a block of 1 to 2**32 - 1 trials,
    1 to 65535 channels and 1 to 2**32 - 1 timepoints, the widths of an
    EEGC header, and at most TRIAL_SAMPLES_LIMIT samples a trial, before
    the block is copied; labels, timestamps and split codes of an integer
    dtype, never truncated; labels and timestamps by a trial's _ID_RULES),
    makes them read-only and stores subject_id as an int. A C-contiguous
    float32 block is kept, so dataclasses.replace(ds, split=...) shares it.
    `trials`, `trials_for` and `trials_at` build LabeledTrials of only the
    rows asked for, anew on each call.
    """

    subject_id: int
    block: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    timestamps: np.ndarray = field(repr=False)
    split: np.ndarray
    _ARRAYS = ("block", "labels", "timestamps", "split")

    def __post_init__(self):
        _check_shape("block", np.shape(self.block), _SHAPE_LIMITS)  # before the copy
        block = np.ascontiguousarray(self.block, dtype=np.float32)
        labels = _int64(self.labels, "labels")
        timestamps = _int64(self.timestamps, "timestamps")
        split = _int64(self.split, "split")
        n = len(block)
        if not labels.shape == timestamps.shape == (n,):
            raise ShapeError(f"need {n} labels and timestamps, "
                             f"got shapes {labels.shape} and {timestamps.shape}")
        _ID_RULES["subject_id"].check(self.subject_id, "subject_id", ValueError)
        if not np.isfinite(block).all():
            raise ValueError("trial contains non-finite values")
        step = np.flatnonzero(np.diff(timestamps, prepend=-1) <= 0)
        if step.size:
            i = step[0]
            raise ValueError(
                f"timestamps must increase strictly within a subject "
                f"(saw {timestamps[i]} after {timestamps[i - 1] if i else -1})"
            )
        for name, value in (("class_label", labels.min()), ("class_label", labels.max()),
                            ("timestamp", timestamps[-1])):  # the step check bounds the first
            _ID_RULES[name].check(int(value), f"subject {self.subject_id} {name}", ValueError)
        if split.shape != (n,) or ((split < 0) | (split > max(Split))).any():
            raise ValueError(f"need {n} Split codes, got {split.tolist()}")
        split = split.astype(np.uint8)
        object.__setattr__(self, "subject_id", int(self.subject_id))
        for name, value in zip(self._ARRAYS, (block, labels, timestamps, split)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Unpickle through the constructor, which makes the arrays read-only again.
        return SubjectDataset, (self.subject_id, *(getattr(self, n) for n in self._ARRAYS))

    @property
    def n_trials(self) -> int:
        return len(self.block)

    @property
    def n_channels(self) -> int:
        return self.block.shape[1]

    @property
    def n_timepoints(self) -> int:
        return self.block.shape[2]

    def arrays(self, split: Split) -> tuple:
        """(float32 samples, int64 labels) of the trials carrying the
        given split tag, in timestamp order."""
        mask = self.split == split
        return self.block[mask], self.labels[mask]

    def trials_at(self, rows) -> tuple:
        """LabeledTrials of the given rows, in the order given."""
        block, labels, stamps = self.block, self.labels, self.timestamps
        return tuple(
            LabeledTrial(block[i], int(labels[i]), self.subject_id, int(stamps[i])) for i in rows
        )

    @property
    def trials(self) -> tuple:
        """Every trial as a LabeledTrial, in timestamp order."""
        return self.trials_at(range(self.n_trials))

    def trials_for(self, split: Split) -> tuple:
        """Trials carrying the given split tag, in timestamp order."""
        return self.trials_at(np.flatnonzero(self.split == split))


def _check_classes(ds: SubjectDataset, n_classes: int) -> None:
    """ValueError unless every label of ds is below n_classes."""
    if ds.labels.max() >= n_classes:
        raise ValueError(
            f"subject {ds.subject_id} has class_label {ds.labels.max()} >= n_classes {n_classes}"
        )


def datasets_equal(a: SubjectDataset, b: SubjectDataset) -> bool:
    return a.subject_id == b.subject_id and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in SubjectDataset._ARRAYS
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

    # n_timepoints >= 2, since alignment needs covariance estimates; the
    # other bounds are a subject file's widths (a label in one byte, so
    # n_classes <= 256).
    RULES = {
        "n_subjects": integer(1),
        "n_channels": integer(1, CHANNEL_LIMIT),
        "n_timepoints": integer(2, COUNT_LIMIT),
        "n_classes": integer(2, LABEL_LIMIT + 1),
        "trials_per_subject": integer(1, COUNT_LIMIT),
        "mixing_scale": number(0),
        "noise_sigma": number(0),
        "randomize_polarity": BOOL,
        "seed": integer(0),
    }

    def __post_init__(self):
        check_fields(self, "generator", self.RULES)
        # Labels are dealt round-robin, so the smallest class gets
        # floor(trials_per_subject / n_classes) trials; each needs 3, one per split.
        if self.trials_per_subject < 3 * self.n_classes:
            raise ConfigError(
                f"generator trials_per_subject must be >= 3 * n_classes = "
                f"{3 * self.n_classes}, so that each class has a train, a val and "
                f"a test trial, got {self.trials_per_subject}"
            )


@dataclass(frozen=True, eq=False)
class Stream:
    """An ordered, non-empty subject stream plus the shared dimensions and
    seed; each subject id appears once and has train, val and test trials."""

    subjects: tuple
    n_channels: int
    n_timepoints: int
    n_classes: int
    seed: int

    RULES = {"n_channels": integer(1, CHANNEL_LIMIT), "n_timepoints": integer(1, COUNT_LIMIT),
             "n_classes": integer(1, CLASS_LIMIT), "seed": integer(0)}

    def __post_init__(self):
        check_fields(self, "stream", self.RULES)
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if not self.subjects:
            raise ValueError("stream has no subjects")
        seen = set()
        for ds in self.subjects:
            if not isinstance(ds, SubjectDataset):
                raise TypeError(f"stream subjects must be SubjectDatasets, got {type(ds).__name__}")
            if ds.subject_id in seen:
                raise ValueError(f"subject {ds.subject_id} is listed twice")
            seen.add(ds.subject_id)
            if ds.block.shape[1:] != (self.n_channels, self.n_timepoints):
                raise ShapeError(
                    f"subject {ds.subject_id} trial shape {ds.block.shape[1:]} "
                    f"!= ({self.n_channels}, {self.n_timepoints})"
                )
            _check_classes(ds, self.n_classes)
            counts = np.bincount(ds.split, minlength=len(Split))
            for split in Split:
                if not counts[split]:
                    raise ValueError(f"subject {ds.subject_id} has no {split.name.lower()} trials")

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


def _split_tags(labels: np.ndarray, seed: int) -> np.ndarray:
    """A generated subject's uint8 split tags: per class, a shuffled
    floor(TRAIN_FRAC * n) trials go to train and the rest alternate val,
    test. The alternation carries across classes, starting at val, so val
    and test end up the same size overall (a per-class restart would bias
    the totals toward val whenever a class's remainder is odd). StreamConfig
    gives every class at least 3 trials, so with 2 or more classes each
    split gets a trial."""
    rng = np.random.default_rng(seed)
    tags = np.full(len(labels), Split.TRAIN, dtype=np.uint8)
    next_is_val = True
    for label in sorted(set(labels.tolist())):
        order = np.flatnonzero(labels == label)
        rng.shuffle(order)
        rest = order[int(math.floor(TRAIN_FRAC * len(order))):]
        is_val = np.arange(len(rest)) % 2 == (0 if next_is_val else 1)
        tags[rest] = np.where(is_val, Split.VAL, Split.TEST)
        next_is_val ^= len(rest) % 2 == 1
    return tags


def _draw_mixing(rng: np.random.Generator, n_channels: int, scale: float) -> np.ndarray:
    """Random symmetric positive-definite mixing matrix.

    Built as the matrix exponential of a scaled symmetric Gaussian draw,
    redrawn while the determinant magnitude is at most 1e-3. Symmetric
    positive-definite mixing matters: whitening a subject against their own
    mean covariance then cancels the mixing exactly instead of leaving a
    residual channel rotation behind.

    The draw's spectrum widens like sqrt(n_channels), and the mixing's
    condition number with its exponential, so above 8 channels the draw is
    scaled by sqrt(8 / n_channels): scale means the same spread at every
    channel count, and at 8 channels or fewer it is used as given.
    """
    if scale == 0.0:
        return np.eye(n_channels)
    scale *= math.sqrt(8 / max(n_channels, 8))
    while True:
        g = rng.standard_normal((n_channels, n_channels))
        w, v = sym_eig(symmetrize(g) * scale)
        if float(np.sum(w)) > _LOG_DET_MIN:  # log|det| of the exponential
            break
    return symmetrize((v * np.exp(w)) @ v.T)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a ConfigError below
def gen_stream(config: StreamConfig) -> Stream:
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
    rng = np.random.default_rng(config.seed)
    c, t = config.n_channels, config.n_timepoints
    raw = rng.standard_normal((config.n_classes, c, t))
    patterns = inv_sqrt(covariances(raw).sum(axis=0) / config.n_classes) @ raw

    n = config.trials_per_subject
    labels = np.arange(n) % config.n_classes
    gains = np.ones(n)
    noise = np.empty((n, c, t))
    subjects = []
    for k in range(config.n_subjects):
        # Checked scales can still overflow: then the mixing's eigendecomposition
        # or the subject's finiteness check raises, and the config is at fault.
        try:
            mixing = _draw_mixing(rng, c, config.mixing_scale)
            # The draws interleave per trial (gain, then noise), as the stream's
            # definition fixes them; the arithmetic then runs once per subject.
            for i in range(n):
                if config.randomize_polarity:
                    gains[i] = 1.0 if rng.random() < 0.5 else -1.0
                rng.standard_normal(out=noise[i])
            # In place, in the order of mixing @ (gain * pattern + sigma * noise).
            x = patterns[labels]
            x *= gains[:, None, None]
            noise *= config.noise_sigma
            x += noise
            x = np.matmul(mixing, x, out=noise).astype(np.float32)
            # The split seed is drawn after the subject's samples.
            tags = _split_tags(labels, int(rng.integers(0, 2**32 - 1)))
            subjects.append(SubjectDataset(k, x, labels, np.arange(n), tags))
        except ValueError as exc:
            raise ConfigError(
                f"generator mixing_scale {config.mixing_scale} and noise_sigma "
                f"{config.noise_sigma} give samples that are not finite float32 ({exc})"
            ) from exc
    return Stream(
        subjects=tuple(subjects),
        n_channels=c,
        n_timepoints=t,
        n_classes=config.n_classes,
        seed=config.seed,
    )


def _record_dtype(c: int, t: int) -> np.dtype:
    """One trial record of a subject file: timestamp, class label and split
    tag, then the samples."""
    return np.dtype(
        [("timestamp", "<u4"), ("label", "u1"), ("tag", "u1"), ("samples", "<f4", (c, t))]
    )


def _offset(dtype: np.dtype, name: str) -> int:
    """The byte offset of the named field within a record of dtype."""
    return dtype.fields[name][1]


def encode_subject(dataset: SubjectDataset, n_classes: int) -> bytes:
    """Serialize one subject to the binary trial format. n_classes obeys
    Stream.RULES and is above every label, as decode_subject requires;
    else a ValueError."""
    Stream.RULES["n_classes"].check(n_classes, "n_classes", ValueError)
    _check_classes(dataset, n_classes)
    n, c, t = dataset.block.shape
    header = np.array((SUBJECT_MAGIC, FORMAT_VERSION, n, c, t, n_classes), _HEADER)
    records = np.empty(n, _record_dtype(c, t))
    records["timestamp"], records["label"] = dataset.timestamps, dataset.labels
    records["tag"], records["samples"] = dataset.split, dataset.block
    return header.tobytes() + records.tobytes()


def decode_subject(buf: bytes, subject_id: int, path="<memory>") -> tuple:
    """Parse one subject file; returns (SubjectDataset, n_classes).

    Its trial holds 1 to TRIAL_SAMPLES_LIMIT samples, so its record dtype
    builds, and the file is exactly its header plus n_trials records, as an
    EEGM blob is; all records are then parsed at once and checked by the
    SubjectDataset constructor. Raises StreamFormatError carrying the byte
    offset of the first malformed field: for a file of another length, its
    first missing or first extra byte; else the first bad record's first bad field.
    A subject_id out of its rule is the caller's fault, a plain ValueError.
    """
    _ID_RULES["subject_id"].check(subject_id, "subject_id", ValueError)
    if len(buf) < _HEADER.itemsize:
        raise StreamFormatError(
            f"{path}: truncated while reading header "
            f"(need {_HEADER.itemsize} bytes at offset 0, have {len(buf)})",
            offset=0,
        )
    magic, version, n_trials, c, t, n_classes = np.frombuffer(buf, _HEADER, 1)[0].item()
    for name, bad, message in (  # the header's faults, in its byte order
        ("magic", magic != SUBJECT_MAGIC, f"bad magic {magic!r}, expected {SUBJECT_MAGIC!r}"),
        ("version", version != FORMAT_VERSION, f"unsupported format version {version}"),
        ("n_trials", n_trials < 1, "file holds no trials"),
        ("n_channels", not 0 < c * t <= TRIAL_SAMPLES_LIMIT, f"invalid trial dimensions {c}x{t}"),
    ):
        if bad:
            raise StreamFormatError(f"{path}: {message}", offset=_offset(_HEADER, name))
    record = _record_dtype(c, t)
    expected = _HEADER.itemsize + n_trials * record.itemsize
    if len(buf) != expected:
        raise StreamFormatError(
            f"{path}: file holds {len(buf)} bytes, but its header and "
            f"{n_trials} trials of {c}x{t} take {expected}",
            offset=min(len(buf), expected),
        )
    records = np.frombuffer(buf, record, n_trials, _HEADER.itemsize)
    block = np.array(records["samples"], dtype=np.float32).reshape(n_trials, c, t)
    stamps, labels, tags = records["timestamp"], records["label"], records["tag"]
    with contextlib.suppress(ValueError):  # a bad record, which the table below finds
        if labels.max() < n_classes:  # the constructor's pass is the only one over the samples
            return SubjectDataset(subject_id, block, labels, stamps, tags), n_classes
    # The faults a record can hold, in its byte order: the first bad
    # record's first bad field is reported.
    prev = np.concatenate(([-1], stamps[:-1]))  # int64, so the first record's -1 fits
    faults = (
        ("timestamp", stamps <= prev,
         "trial {i}: timestamps must increase strictly within a subject (saw {v} after {prev})"),
        ("label", labels >= n_classes, "trial {i} class_label {v} >= n_classes {n_classes}"),
        ("tag", tags > max(Split), "trial {i} split tag {v} not in {{0, 1, 2}}"),
        ("samples", ~np.isfinite(block).all(axis=(1, 2)),
         "trial {i}: trial contains non-finite values"),
    )
    bad = np.array([mask for _, mask, _ in faults])
    i = int(bad.any(axis=0).argmax())
    name, _, message = faults[int(bad[:, i].argmax())]
    raise StreamFormatError(
        f"{path}: " + message.format(i=i, v=records[name][i], prev=prev[i], n_classes=n_classes),
        offset=_HEADER.itemsize + i * record.itemsize + _offset(record, name),
    )


def _subject_filename(subject_id: int) -> str:
    return f"subject_{subject_id:03d}.eegc"


def _unique_keys(pairs: list) -> dict:
    """json.loads object hook: an object that repeats a key is invalid."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def read_json_object(path, what: str, error) -> dict:
    """The JSON object in the file at path, read as UTF-8; every JSON file
    eegcl reads comes through here. A missing file, bytes that do not
    decode (nesting past the recursion limit and a repeated key included)
    or a value that is not an object raise error, naming the file; what
    names its role."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{path}: {what} not found")
    try:
        value = json.loads(path.read_bytes().decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return value


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
    """Load a stream directory; inverse of save_stream, bit-exact. A
    malformed manifest or subject file is a StreamFormatError."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    manifest = read_json_object(manifest_path, "manifest", StreamFormatError)
    rules = {"version": integer(0), "n_subjects": integer(0), **Stream.RULES}
    for key in (*rules, "subjects"):
        if key not in manifest:
            raise StreamFormatError(f"{manifest_path}: missing key {key!r}")
    for key, rule in rules.items():
        rule.check(manifest[key], f"{manifest_path}: {key}", StreamFormatError)
    if manifest["version"] != FORMAT_VERSION:
        raise StreamFormatError(
            f"{manifest_path}: unsupported manifest version {manifest['version']}"
        )
    entries = manifest["subjects"]
    if not isinstance(entries, list):
        raise StreamFormatError(f"{manifest_path}: 'subjects' must be a list")
    if len(entries) != manifest["n_subjects"]:
        raise StreamFormatError(
            f"{manifest_path}: manifest declares {manifest['n_subjects']} subjects "
            f"but lists {len(entries)} files"
        )
    # save_stream writes each subject to a bare name in the stream
    # directory; any other name is refused before a subject file is opened.
    for i, entry in enumerate(entries):
        name = entry.get("file") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise StreamFormatError(f"{manifest_path}: subjects[{i}] needs a 'file' name")
        if name in ("", ".", "..") or Path(name).name != name:
            raise StreamFormatError(
                f"{manifest_path}: subjects[{i}] file {name!r} is not a bare file name"
            )
    subjects = []
    for i, entry in enumerate(entries):
        subject_id = entry.get("subject_id")
        _ID_RULES["subject_id"].check(subject_id, f"{manifest_path}: subjects[{i}] subject_id",
                                      StreamFormatError)
        if any(ds.subject_id == subject_id for ds in subjects):
            raise StreamFormatError(f"{manifest_path}: subject {subject_id} is listed twice")
        fpath = root / entry["file"]
        if not fpath.is_file():
            raise StreamFormatError(f"{fpath}: listed in manifest but missing")
        ds, n_classes = decode_subject(fpath.read_bytes(), subject_id, fpath)
        # The header fields the manifest restates.
        for key, have in (("n_classes", n_classes), ("n_channels", ds.n_channels),
                          ("n_timepoints", ds.n_timepoints)):
            if have != manifest[key]:
                raise StreamFormatError(
                    f"{fpath}: file has {have} {key[2:]}, manifest says {manifest[key]}",
                    offset=_offset(_HEADER, key),
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
