import ast
import inspect
import itertools
import json
import math
import pickle
import re
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eegcl.data
import eegcl.replay
from eegcl import ConfigError, StreamConfig, StreamFormatError, gen_stream
from eegcl.alignment import compute_whitener, reference_covariance
from eegcl.data import (
    _SHAPE_LIMITS,
    LabeledTrial,
    Split,
    Stream,
    SubjectDataset,
    _check_shape,
    _draw_mixing,
    datasets_equal,
    decode_subject,
    encode_subject,
    load_stream,
    _split_tags,
    save_stream,
    streams_equal,
    trials_equal,
)
from eegcl.errors import ShapeError
from eegcl.linalg import covariance, inv_sqrt
from eegcl.replay import ReplayMemory, memory_from_bytes, memory_to_bytes

from helpers import UNDECODABLE_JSON, align_subject, balanced_subject, make_trial

HEADER = struct.Struct("<4sHIHIH")
TRIAL_PREFIX = struct.Struct("<IBB")
# A (channels, timepoints) trial of TRIAL_SAMPLES_LIMIT + 1 samples.
PAST_THE_SAMPLE_BOUND = (2, 268_435_455)


def with_trial_count(buf, change):
    """A subject file with its header's trial count moved by change."""
    fields = list(HEADER.unpack_from(buf))
    fields[2] += change
    return HEADER.pack(*fields) + buf[HEADER.size:]


def rand_trial(seed=0, n_channels=2, n_timepoints=8, label=0, timestamp=0):
    rng = np.random.default_rng(seed)
    return make_trial(
        rng.standard_normal((n_channels, n_timepoints)), label=label, timestamp=timestamp
    )


def balanced(n_per_class, n_classes=2, n_channels=2, n_timepoints=4, seed=0):
    return balanced_subject(
        np.random.default_rng(seed), 0, n_per_class, n_channels, n_timepoints, n_classes
    )


def counts_by_split(dataset):
    out = {Split.TRAIN: 0, Split.VAL: 0, Split.TEST: 0}
    for s in dataset.split:
        out[s] += 1
    return out


def per_trial_split(labels, train_frac, seed):
    """_split_tags's tags as the per-class loop over trial indices that
    the index-array version replaced."""
    by_class = {}
    for idx, label in enumerate(labels):
        by_class.setdefault(label, []).append(idx)
    rng = np.random.default_rng(seed)
    tags = [Split.TRAIN] * len(labels)
    next_is_val = True
    for label in sorted(by_class):
        order = np.array(by_class[label])
        rng.shuffle(order)
        n_train = int(math.floor(train_frac * len(order)))
        for pos, idx in enumerate(order):
            if pos >= n_train:
                tags[idx] = Split.VAL if next_is_val else Split.TEST
                next_is_val = not next_is_val
    return tags


def per_trial_gen_stream(config):
    """gen_stream as the per-trial loop it replaced: the same draws in the
    same order, then one mixing matmul and one float32 rounding per trial."""
    rng = np.random.default_rng(config.seed)
    c, t = config.n_channels, config.n_timepoints
    raw = rng.standard_normal((config.n_classes, c, t))
    mean_cov = np.zeros((c, c))
    for pattern in raw:
        mean_cov += covariance(pattern)
    mean_cov /= config.n_classes
    whiten = inv_sqrt(mean_cov)
    patterns = np.array([whiten @ pattern for pattern in raw])
    subjects = []
    n = config.trials_per_subject
    labels = [i % config.n_classes for i in range(n)]
    for k in range(config.n_subjects):
        mixing = _draw_mixing(rng, c, config.mixing_scale)
        trials = []
        for label in labels:
            gain = 1.0
            if config.randomize_polarity:
                gain = 1.0 if rng.random() < 0.5 else -1.0
            noise = rng.standard_normal((c, t))
            trials.append((mixing @ (gain * patterns[label] + config.noise_sigma * noise))
                          .astype(np.float32))
        tags = per_trial_split(labels, 0.7, int(rng.integers(0, 2**32 - 1)))
        subjects.append(SubjectDataset(k, np.array(trials), labels, np.arange(n), tags))
    return subjects


def per_trial_encode(ds, n_classes):
    """encode_subject as the per-trial struct packing it replaced."""
    c, t = (ds.n_channels, ds.n_timepoints) if ds.n_trials else (0, 0)
    parts = [HEADER.pack(b"EEGC", 1, ds.n_trials, c, t, n_classes)]
    for trial, tag in zip(ds.trials, ds.split):
        parts.append(TRIAL_PREFIX.pack(trial.timestamp, trial.class_label, int(tag)))
        parts.append(np.asarray(trial.trial, "<f4").tobytes())
    return b"".join(parts)


class TestLabeledTrial:
    def test_stores_float32_read_only(self):
        t = rand_trial()
        assert t.trial.dtype == np.float32
        assert not t.trial.flags.writeable
        with pytest.raises(ValueError):
            t.trial[0, 0] = 1.0

    def test_rejects_bad_shapes_and_values(self):
        # an EEGM header stores the channel count in two bytes, and its
        # decoder refuses a memory of empty trials
        for trial in (np.zeros(5), np.zeros((1, 2, 3)), np.zeros((65536, 1)), np.zeros((0, 3)),
                      np.zeros((3, 0))):
            with pytest.raises(ShapeError, match="trial must be 2-D"):
                LabeledTrial(trial=trial, class_label=0, subject_id=0, timestamp=0)
        with pytest.raises(ValueError):
            LabeledTrial(
                trial=np.array([[np.nan, 0.0]]), class_label=0, subject_id=0, timestamp=0
            )
        with pytest.raises(ValueError):
            LabeledTrial(trial=np.zeros((2, 3)), class_label=-1, subject_id=0, timestamp=0)
        with pytest.raises(ValueError):
            LabeledTrial(trial=np.zeros((2, 3)), class_label=0, subject_id=-1, timestamp=0)
        with pytest.raises(ValueError):
            LabeledTrial(trial=np.zeros((2, 3)), class_label=0, subject_id=0, timestamp=-1)

    @pytest.mark.parametrize("field", ["label", "subject", "timestamp"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
    def test_ids_are_integers_by_the_config_rule(self, field, value):
        # A fractional id would be truncated by the EEGM encoder into a
        # blob that its own decoder refuses.
        name, text = {"label": ("class_label", r"in \[0, 255\]"),
                      "subject": ("subject_id", r"in \[0, 4294967295\]"),
                      "timestamp": ("timestamp", r"in \[0, 4294967295\]")}[field]
        with pytest.raises(ValueError, match=f"^{name} must be an integer {text}, got "):
            make_trial(np.zeros((2, 3)), **{field: value})

    @pytest.mark.parametrize("field, value", [("label", 256), ("timestamp", 2**32)])
    def test_fields_out_of_record_range_rejected(self, field, value):
        # A record stores a class label in one byte and a timestamp in four,
        # so the trial refuses what its EEGM record could not hold.
        name = {"label": "class_label", "timestamp": "timestamp"}[field]
        with pytest.raises(ValueError, match=f"^{name} must be an integer in \\[0, {value - 1}\\]"):
            make_trial(np.zeros((2, 4)), **{field: value})
        memory = ReplayMemory(capacity=1)
        memory.offer_many([make_trial(np.zeros((2, 4)), **{field: value - 1})])
        (out,) = memory_from_bytes(memory_to_bytes(memory)).entries
        assert trials_equal(out, memory.entries[0])

    def test_numpy_integer_ids_accepted(self):
        t = make_trial(np.zeros((2, 3)), label=np.uint8(1), subject=np.int64(2),
                       timestamp=np.uint32(3))
        assert (t.class_label, t.subject_id, t.timestamp) == (1, 2, 3)

    def test_trials_equal_checks_everything(self):
        a = rand_trial(seed=1)
        assert trials_equal(a, rand_trial(seed=1))
        assert not trials_equal(a, rand_trial(seed=2))
        same_data = LabeledTrial(
            trial=a.trial, class_label=a.class_label + 1,
            subject_id=a.subject_id, timestamp=a.timestamp,
        )
        assert not trials_equal(a, same_data)


def subject(n=2, seed=0, **arrays):
    """An n-trial subject of 2 x 8 trials, all TRAIN; arrays overrides
    any of block, labels, timestamps and split."""
    fields = {
        "block": np.random.default_rng(seed).standard_normal((n, 2, 8)),
        "labels": np.arange(n) % 2, "timestamps": np.arange(n), "split": [Split.TRAIN] * n,
    }
    return SubjectDataset(0, **{**fields, **arrays})


class TestSubjectDataset:
    def test_timestamps_must_strictly_increase(self):
        with pytest.raises(ValueError, match="saw 3 after 3"):
            subject(timestamps=[3, 3])
        with pytest.raises(ValueError, match="saw 2 after 3"):
            subject(3, timestamps=[0, 3, 2])
        with pytest.raises(ValueError, match="saw -1 after -1"):
            subject(1, timestamps=[-1])

    def test_split_length_must_match(self):
        with pytest.raises(ValueError, match="need 1 Split codes"):
            subject(1, split=[])
        with pytest.raises(ValueError, match="need 2 Split codes"):
            subject(split=[Split.TRAIN, 3])
        with pytest.raises(ValueError, match="need 2 Split codes"):
            subject(split=[-1, Split.TRAIN])

    @pytest.mark.parametrize("arrays", [
        {"block": np.zeros((2, 8))}, {"block": np.zeros((2, 1, 2, 8))},
        {"labels": [0]}, {"timestamps": [0, 1, 2]}, {"labels": [[0, 1]]},
    ], ids=["block_2d", "block_4d", "short_labels", "long_timestamps", "labels_2d"])
    def test_array_shapes_must_agree(self, arrays):
        with pytest.raises(ShapeError):
            subject(**arrays)

    @pytest.mark.parametrize("field, value", [("labels", 256), ("timestamps", 2**32)],
                             ids=["label", "timestamp"])
    def test_fields_out_of_record_range_rejected(self, field, value):
        # A record stores a label in one byte and a timestamp in four, so the
        # subject refuses, by a trial's rule, what its EEGC record could not hold.
        name = {"labels": "class_label", "timestamps": "timestamp"}[field]
        with pytest.raises(ValueError, match=f"^subject 0 {name} must be an integer in "
                                             f"\\[0, {value - 1}\\], got {value}$"):
            subject(1, **{field: [value]})
        widest = subject(1, **{field: [value - 1]})
        assert datasets_equal(decode_subject(encode_subject(widest, 256), 0)[0], widest)

    # 2**32 trials is left out: the block would take 32 GB or more.
    @pytest.mark.parametrize("shape", [(1, 65536, 2), (1, 0, 3), (1, 2, 0)],
                             ids=["channels", "no_channels", "no_timepoints"])
    def test_fields_out_of_eegc_range_rejected(self, shape):
        # The subject refuses, where it is built, a shape its EEGC header
        # cannot hold: more channels than two bytes count, or none at all.
        with pytest.raises(ShapeError, match=re.escape(
                f"block must be 3-D, 1 x 1 x 1 to 4294967295 x 65535 x 4294967295, "
                f"got shape {shape}")):
            subject(1, block=np.zeros(shape))
        widest = subject(1, block=np.zeros((1, 65535, 2)))
        assert decode_subject(encode_subject(widest, 2), 0)[0].block.shape == (1, 65535, 2)

    def test_trial_past_the_sample_bound_refused_before_its_copy(self):
        # The shape check reads the input's own shape, so a view of one
        # float is refused before its ~2 GB float32 copy is made.
        c, t = PAST_THE_SAMPLE_BOUND
        for name, shape, limits in (("block", (1, c, t), _SHAPE_LIMITS),
                                    ("trial", (c, t), _SHAPE_LIMITS[1:])):
            with pytest.raises(ShapeError, match=re.escape(
                    f"got shape {shape} (at most 536870909 samples a trial)")):
                _check_shape(name, shape, limits)
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="^block must be 3-D"):
                SubjectDataset(0, np.broadcast_to(np.float32(0), (1, c, t)), [0], [0], [0])
            with pytest.raises(ShapeError, match="^trial must be 2-D"):
                make_trial(np.broadcast_to(np.float32(0), (c, t)))
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_negative_ids_and_labels_rejected(self):
        with pytest.raises(ValueError, match=r"class_label must be an integer in \[0, 255\], got -1"):
            subject(labels=[0, -1])
        with pytest.raises(ValueError, match=r"subject_id must be an integer in \[0, 4294967295\]"):
            replace(subject(), subject_id=-1)

    def test_numpy_subject_id_stored_as_int(self):
        # save_stream writes each id into the manifest with json.dumps,
        # which refuses a numpy integer after the subject files are written.
        ds = replace(subject(), subject_id=np.int64(3))
        assert type(ds.subject_id) is int and ds.subject_id == 3

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
    def test_subject_id_is_an_integer_by_the_config_rule(self, value):
        with pytest.raises(ValueError,
                           match=r"^subject_id must be an integer in \[0, 4294967295\], got "):
            replace(subject(), subject_id=value)

    @pytest.mark.parametrize("name, values", [
        ("labels", [0.7, 1.2, 1.9]), ("labels", [0.0, 1.0, 1.0]), ("labels", [True, False, True]),
        ("labels", [0, 1, 2**70]), ("timestamps", [0.0, 1.5, 2.0]), ("split", [0, 1.5, 2]),
        ("timestamps", np.array([0, 1, 2**63], np.uint64)),
    ], ids=["fractional_labels", "whole_float_labels", "bool_labels", "huge_label",
            "float_timestamps", "fractional_split", "uint64_timestamp_above_int64"])
    def test_integer_fields_are_refused_not_truncated(self, name, values):
        with pytest.raises(ValueError, match=f"^{name} must be integers within int64, got "):
            subject(3, **{name: values})

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_samples_rejected(self, value):
        block = np.zeros((2, 2, 8))
        block[1, 1, 7] = value  # 1e39 overflows float32
        with pytest.raises(ValueError, match="non-finite"):
            subject(block=block)

    def test_arrays_stored_checked_and_read_only(self):
        ds = subject(3, block=np.ones((3, 2, 8), dtype=np.float64), labels=[2, 0, 1])
        assert ds.block.dtype == np.float32 and ds.block.shape == (3, 2, 8)
        assert ds.labels.dtype == ds.timestamps.dtype == np.int64
        assert ds.split.dtype == np.uint8
        for a in (ds.block, ds.labels, ds.timestamps, ds.split):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            ds.block[0, 0, 0] = 1.0
        with pytest.raises(ShapeError, match=r"^block must be 3-D, 1 x 1 x 1 to "):
            subject(0, block=np.empty((0, 2, 8)))
        block = np.zeros((2, 2, 8), dtype=np.float32)  # already float32: kept, not copied
        assert subject(block=block).block is block
        assert not block.flags.writeable

    def test_trials_are_built_from_the_rows(self):
        ds = generator_split(balanced(5, n_classes=3, n_channels=3, n_timepoints=6), seed=1)
        trials = ds.trials
        assert len(trials) == 15
        for i, t in enumerate(trials):
            assert np.array_equal(t.trial, ds.block[i])
            assert (t.class_label, t.subject_id, t.timestamp) == (ds.labels[i], 0, i)
        assert all(trials_equal(a, b) for a, b in zip(ds.trials_at([4, 0]), trials[4::-4]))
        # no cache: each read builds its trials anew
        assert ds.trials[0] is not ds.trials[0]

    def test_trials_for_filters_in_order(self):
        tags = (Split.TRAIN, Split.VAL, Split.TRAIN, Split.TEST, Split.VAL, Split.TRAIN)
        ds = subject(6, split=tags)
        assert [t.timestamp for t in ds.trials_for(Split.TRAIN)] == [0, 2, 5]
        assert [t.timestamp for t in ds.trials_for(Split.VAL)] == [1, 4]
        assert [t.timestamp for t in ds.trials_for(Split.TEST)] == [3]

    def test_replace_trials_or_split(self):
        ds = balanced(4)
        retagged = replace(ds, split=[Split.TEST] * 8)
        assert retagged.block is ds.block
        assert retagged.split.tolist() == [Split.TEST] * 8
        moved = replace(ds, timestamps=ds.timestamps + 10)
        assert moved.timestamps.tolist() == list(range(10, 18))
        assert moved.block is ds.block
        with pytest.raises(ValueError):
            replace(ds, split=[Split.TRAIN] * 3)


def generator_split(ds, seed):
    """ds retagged as gen_stream tags a subject."""
    return replace(ds, split=_split_tags(ds.labels, seed))


class TestSplitSubject:
    def test_hundred_trials_give_70_15_15(self):
        out = generator_split(balanced(50), seed=0)
        assert counts_by_split(out) == {Split.TRAIN: 70, Split.VAL: 15, Split.TEST: 15}

    def test_ten_per_class_counts(self):
        # floor gives 7 train per class; the leftover alternation starts at
        # val and carries across classes, so class 0 gets 2 val / 1 test and
        # class 1 gets 1 val / 2 test.
        out = generator_split(balanced(10), seed=0)
        per_class = {0: {}, 1: {}}
        for t, s in zip(out.trials, out.split):
            per_class[t.class_label][s] = per_class[t.class_label].get(s, 0) + 1
        assert per_class[0] == {Split.TRAIN: 7, Split.VAL: 2, Split.TEST: 1}
        assert per_class[1] == {Split.TRAIN: 7, Split.VAL: 1, Split.TEST: 2}
        assert counts_by_split(out) == {Split.TRAIN: 14, Split.VAL: 3, Split.TEST: 3}

    def test_same_seed_same_tags(self):
        ds = balanced(10, n_classes=3)
        a, b = _split_tags(ds.labels, seed=9), _split_tags(ds.labels, seed=9)
        assert a.dtype == np.uint8 and np.array_equal(a, b)

    def test_trials_untouched_only_tags_change(self):
        ds = balanced(6)
        out = generator_split(ds, seed=4)
        assert out.subject_id == ds.subject_id
        assert len(out.trials) == len(ds.trials)
        for a, b in zip(ds.trials, out.trials):
            assert trials_equal(a, b)

    def test_every_class_reaches_train(self):
        out = generator_split(balanced(3, n_classes=3), seed=1)
        train_labels = {t.class_label for t in out.trials_for(Split.TRAIN)}
        assert train_labels == {0, 1, 2}

    def test_class_below_three_trials_rejected(self):
        # labels cycle 0,1,0,1,0 so class 1 would get only two trials: the
        # config that would deal them is refused
        with pytest.raises(ConfigError, match=r"trials_per_subject must be >= 3 \* n_classes = 6"):
            StreamConfig(trials_per_subject=5)
        # at three trials a class still reaches every split
        tags = _split_tags(subject(6).labels, seed=0)
        assert sorted(tags.tolist()) == [Split.TRAIN] * 4 + [Split.VAL, Split.TEST]


class TestStreamConfig:
    def test_defaults_validate(self):
        StreamConfig()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            StreamConfig(n_subjects=0)
        with pytest.raises(ConfigError):
            StreamConfig(n_classes=1)
        with pytest.raises(ConfigError):
            StreamConfig(mixing_scale=-0.1)
        with pytest.raises(ConfigError):
            StreamConfig(noise_sigma=-1.0)
        with pytest.raises(ConfigError):
            StreamConfig(n_timepoints=1)

    @pytest.mark.parametrize("n_classes", range(2, 7))
    def test_class_size_rule_accepts_exactly_what_splits(self, n_classes):
        # Labels are dealt round-robin, so the smallest class gets
        # floor(trials / n_classes); every accepted config splits each subject three ways.
        for trials in range(1, 3 * n_classes + 4):
            fields = dict(n_subjects=1, n_channels=2, n_timepoints=2,
                          n_classes=n_classes, trials_per_subject=trials)
            if trials < 3 * n_classes:
                with pytest.raises(ConfigError, match="generator trials_per_subject must be"):
                    StreamConfig(**fields)
                continue
            (ds,) = gen_stream(StreamConfig(**fields))
            assert set(ds.split.tolist()) == set(Split), (n_classes, trials)

    def test_channel_count_fits_the_subject_header(self):
        with pytest.raises(ConfigError, match=r"n_channels must be an integer in \[1, 65535\]"):
            StreamConfig(n_channels=65536)
        assert StreamConfig(n_channels=65535).n_channels == 65535


class TestGenStream:
    def test_degenerate_config_reproduces_class_templates(self):
        # no mixing, no noise, no polarity flips: every trial is exactly its
        # class template, identical across subjects
        cfg = StreamConfig(
            n_subjects=3, n_channels=4, n_timepoints=16, n_classes=2,
            trials_per_subject=6, mixing_scale=0.0, noise_sigma=0.0,
            randomize_polarity=False, seed=5,
        )
        stream = gen_stream(cfg)
        reference = stream[0]
        for ds in stream:
            for i, t in enumerate(ds.trials):
                assert t.class_label == i % 2
                assert np.array_equal(t.trial, reference.trials[i].trial)
        templates = {t.class_label: t.trial for t in reference.trials}
        assert not np.array_equal(templates[0], templates[1])

    def test_polarity_flips_preserve_magnitude_only(self):
        base = StreamConfig(
            n_subjects=1, n_channels=4, n_timepoints=16, n_classes=2,
            trials_per_subject=40, mixing_scale=0.0, noise_sigma=0.0,
            randomize_polarity=False, seed=5,
        )
        templates = {
            t.class_label: t.trial for t in gen_stream(base)[0].trials[:2]
        }
        flipped = gen_stream(
            StreamConfig(
                n_subjects=1, n_channels=4, n_timepoints=16, n_classes=2,
                trials_per_subject=40, mixing_scale=0.0, noise_sigma=0.0,
                randomize_polarity=True, seed=5,
            )
        )
        signs = []
        for t in flipped[0].trials:
            ref = templates[t.class_label]
            if np.array_equal(t.trial, ref):
                signs.append(1)
            else:
                assert np.array_equal(t.trial, -ref)
                signs.append(-1)
        assert 1 in signs and -1 in signs

    @pytest.mark.parametrize(
        "seed, n_classes, polarity", list(itertools.product(range(4), (2, 3), (True, False)))
    )
    def test_equals_per_trial_generator(self, seed, n_classes, polarity):
        cfg = StreamConfig(n_subjects=3, n_channels=4, n_timepoints=16, n_classes=n_classes,
                           trials_per_subject=31, randomize_polarity=polarity, seed=seed)
        reference = per_trial_gen_stream(cfg)
        stream = gen_stream(cfg)
        assert len(stream) == len(reference)
        assert all(datasets_equal(a, b) for a, b in zip(stream, reference))

    def test_deterministic_per_seed(self):
        cfg = StreamConfig(
            n_subjects=2, n_channels=3, n_timepoints=12, trials_per_subject=10, seed=7
        )
        assert streams_equal(gen_stream(cfg), gen_stream(cfg))

    def test_different_seeds_differ(self):
        a = gen_stream(StreamConfig(n_subjects=1, n_channels=3, n_timepoints=12,
                                    trials_per_subject=10, seed=0))
        b = gen_stream(StreamConfig(n_subjects=1, n_channels=3, n_timepoints=12,
                                    trials_per_subject=10, seed=1))
        assert not streams_equal(a, b)

    def test_labels_balanced_round_robin(self):
        stream = gen_stream(
            StreamConfig(n_subjects=2, n_channels=3, n_timepoints=12,
                         n_classes=2, trials_per_subject=10, seed=3)
        )
        for ds in stream:
            assert Counter(ds.labels.tolist()) == {0: 5, 1: 5}
            assert [t.class_label for t in ds.trials] == [i % 2 for i in range(10)]

    def test_alignment_recovers_templates_under_mixing(self):
        # without noise or flips each subject's trials are a fixed symmetric
        # positive-definite mixing of the shared templates, so whitening each
        # subject against their own mean covariance restores the templates
        pure = gen_stream(
            StreamConfig(n_subjects=3, n_channels=4, n_timepoints=32,
                         trials_per_subject=8, mixing_scale=0.0, noise_sigma=0.0,
                         randomize_polarity=False, seed=2)
        )
        mixed = gen_stream(
            StreamConfig(n_subjects=3, n_channels=4, n_timepoints=32,
                         trials_per_subject=8, mixing_scale=0.5, noise_sigma=0.0,
                         randomize_polarity=False, seed=2)
        )
        for k, ds in enumerate(mixed):
            aligned, _ = align_subject([t.trial for t in ds.trials])
            for i, a in enumerate(aligned):
                target = pure[k].trials[i].trial
                assert np.max(np.abs(a - target)) < 1e-5

    def test_conditioning_does_not_grow_with_channel_count(self):
        # above 8 channels the mixing draw is scaled by sqrt(8 / channels), so
        # every subject stays alignable without the eigenvalue floor
        medians = {}
        for c in (8, 16, 20, 32):
            reports = [
                compute_whitener(reference_covariance(ds.block[ds.split == Split.TRAIN]))
                for seed in range(3)
                for ds in gen_stream(StreamConfig(n_subjects=8, n_channels=c,
                                                  trials_per_subject=60, seed=seed))
            ]
            assert not any(r.eigenvalue_floor_applied for r in reports), c
            medians[c] = float(np.median([r.condition_number for r in reports]))
        for c in (16, 20, 32):
            assert medians[8] / 10 < medians[c] < medians[8] * 10, medians

    def test_stream_metadata(self):
        cfg = StreamConfig(n_subjects=2, n_channels=5, n_timepoints=20,
                           trials_per_subject=8, seed=11)
        stream = gen_stream(cfg)
        assert len(stream) == 2
        assert stream.n_channels == 5
        assert stream.n_timepoints == 20
        assert stream.n_classes == 2
        assert stream.seed == 11
        assert [ds.subject_id for ds in stream] == [0, 1]

    def test_each_subject_is_built_once(self, monkeypatch):
        calls = []
        post_init = SubjectDataset.__post_init__

        def counting(ds):
            calls.append(ds.subject_id)
            post_init(ds)

        monkeypatch.setattr(SubjectDataset, "__post_init__", counting)
        gen_stream(StreamConfig(n_subjects=3))
        assert calls == [0, 1, 2]

    def test_class_too_small_to_split_is_a_config_error(self):
        # Labels 0, 1, 0, 1: the config is refused when built, naming its
        # field, before gen_stream draws anything; not as the mixing/noise error.
        with pytest.raises(ConfigError, match="generator trials_per_subject must be >= 3") as err:
            StreamConfig(trials_per_subject=4)
        assert "mixing_scale" not in str(err.value)

    def test_all_splits_present_per_subject(self):
        stream = gen_stream(
            StreamConfig(n_subjects=2, n_channels=3, n_timepoints=12,
                         trials_per_subject=20, seed=0)
        )
        for ds in stream:
            counts = counts_by_split(ds)
            assert counts[Split.TRAIN] == 14
            assert counts[Split.VAL] + counts[Split.TEST] == 6


def split_subject(seed=0, **arrays):
    """A three-trial subject with one trial in each split; arrays overrides
    any of block, labels and timestamps."""
    return subject(3, seed, split=list(Split), **arrays)


class TestStreamValidation:
    def test_mismatched_trial_shape_rejected(self):
        ds = split_subject(block=np.zeros((3, 3, 8)))
        with pytest.raises(ShapeError, match=r"subject 0 trial shape \(3, 8\) != \(2, 8\)"):
            Stream(subjects=(ds,), n_channels=2, n_timepoints=8, n_classes=2, seed=0)

    def test_label_out_of_range_rejected(self):
        ds = split_subject(labels=[0, 1, 5])
        with pytest.raises(ValueError, match="subject 0 has class_label 5 >= n_classes 2"):
            Stream(subjects=(ds,), n_channels=2, n_timepoints=8, n_classes=2, seed=0)

    def test_repeated_subject_id_rejected(self):
        twins = (split_subject(), split_subject(seed=1))  # both subject 0
        with pytest.raises(ValueError, match="subject 0 is listed twice"):
            Stream(subjects=twins, n_channels=2, n_timepoints=8, n_classes=2, seed=0)

    def test_subject_that_is_not_a_dataset_rejected(self):
        with pytest.raises(TypeError, match="^stream subjects must be SubjectDatasets, got object$"):
            Stream(subjects=(split_subject(), object()), n_channels=2, n_timepoints=8,
                   n_classes=2, seed=0)

    @pytest.mark.parametrize("split", list(Split), ids=lambda s: s.name.lower())
    def test_subject_without_a_split_rejected(self, split):
        # A run reads only a Stream, so a subject lacking a split is refused
        # before any stage, where the stream is built.
        stream = gen_stream(StreamConfig(n_subjects=3, n_channels=2, n_timepoints=8,
                                         trials_per_subject=12))
        last = stream[2]
        retagged = replace(last, split=np.where(last.split == split, (split + 1) % 3, last.split))
        with pytest.raises(ValueError, match=f"^subject 2 has no {split.name.lower()} trials$"):
            replace(stream, subjects=(stream[0], stream[1], retagged))


class TestSubjectCodec:
    def test_round_trip(self):
        ds = generator_split(balanced(5), seed=0)
        out, n_classes = decode_subject(encode_subject(ds, 2), ds.subject_id)
        assert n_classes == 2
        assert np.array_equal(out.split, ds.split)
        for a, b in zip(ds.trials, out.trials):
            assert trials_equal(a, b)

    def test_header_layout(self):
        ds = balanced(2, n_channels=3, n_timepoints=5)
        buf = encode_subject(ds, 2)
        magic, version, n_trials, c, t, n_classes = HEADER.unpack_from(buf, 0)
        assert magic == b"EEGC"
        assert version == 1
        assert (n_trials, c, t, n_classes) == (4, 3, 5, 2)
        assert len(buf) == HEADER.size + 4 * (TRIAL_PREFIX.size + 4 * 3 * 5)

    def test_bad_magic_offset_0(self):
        buf = HEADER.pack(b"XXXX", 1, 0, 2, 4, 2)
        with pytest.raises(StreamFormatError) as exc:
            decode_subject(buf, 0)
        assert exc.value.offset == 0

    def test_bad_version_offset_4(self):
        buf = HEADER.pack(b"EEGC", 9, 0, 2, 4, 2)
        with pytest.raises(StreamFormatError) as exc:
            decode_subject(buf, 0)
        assert exc.value.offset == 4

    @pytest.mark.parametrize("dims", [(2, 4), (0, 0)], ids=["2x4", "0x0"])
    def test_zero_trials_offset_6(self, dims):
        # a file holds at least one trial; the count is checked before the dimensions
        with pytest.raises(StreamFormatError, match="file holds no trials") as exc:
            decode_subject(HEADER.pack(b"EEGC", 1, 0, *dims, 2), 0)
        assert exc.value.offset == 6

    def test_bad_dimensions_offset_10(self):
        # No channels, or one sample a trial past the bound: refused by the
        # dimension check, at n_channels, before the file's length is compared.
        for c, t in ((0, 4), PAST_THE_SAMPLE_BOUND):
            buf = HEADER.pack(b"EEGC", 1, 1, c, t, 2)
            with pytest.raises(StreamFormatError,
                               match=f"invalid trial dimensions {c}x{t} ") as exc:
                decode_subject(buf, 0)
            assert exc.value.offset == 10

    def test_bad_label_offset(self):
        data = np.zeros((2, 4), "<f4").tobytes()
        buf = HEADER.pack(b"EEGC", 1, 1, 2, 4, 2) + TRIAL_PREFIX.pack(0, 7, 0) + data
        with pytest.raises(StreamFormatError) as exc:
            decode_subject(buf, 0)
        assert exc.value.offset == HEADER.size + 4

    def test_bad_split_tag_offset(self):
        data = np.zeros((2, 4), "<f4").tobytes()
        buf = HEADER.pack(b"EEGC", 1, 1, 2, 4, 2) + TRIAL_PREFIX.pack(0, 1, 7) + data
        with pytest.raises(StreamFormatError) as exc:
            decode_subject(buf, 0)
        assert exc.value.offset == HEADER.size + 5

    def test_truncated_header(self):
        with pytest.raises(StreamFormatError):
            decode_subject(b"EEGC", 0)

    @pytest.mark.parametrize("subject_id", [-1, True, 2.0, 2**32])
    def test_bad_subject_id_is_the_callers_value_error(self, subject_id):
        # the file is valid: the argument is at fault, not a byte of the file
        buf = encode_subject(balanced(2), 2)
        with pytest.raises(ValueError, match=r"^subject_id must be an integer in "
                                             r"\[0, 4294967295\], got ") as exc:
            decode_subject(buf, subject_id)
        assert not isinstance(exc.value, StreamFormatError)

    def test_truncated_samples(self):
        buf = encode_subject(balanced(2), 2)
        with pytest.raises(StreamFormatError) as exc:
            decode_subject(buf[:-1], 0)
        assert exc.value.offset >= HEADER.size

    @pytest.mark.parametrize("resize, records_short", [
        (lambda buf: buf + b"\0", 0),
        (lambda buf: with_trial_count(buf, -1), 1),
        (lambda buf: with_trial_count(buf, +1), 0),
    ], ids=["byte_appended", "one_trial_fewer", "one_trial_more"])
    def test_length_must_match_the_trial_count(self, resize, records_short):
        # the error is at the first extra byte, or at the first missing one
        buf = encode_subject(balanced(2), 2)
        with pytest.raises(StreamFormatError, match="file holds") as exc:
            decode_subject(resize(buf), 0)
        assert exc.value.offset == len(buf) - records_short * (TRIAL_PREFIX.size + 4 * 2 * 4)

    def test_nan_sample_offset(self):
        data = np.zeros((2, 4), "<f4").tobytes()
        nan = np.full((2, 4), np.nan, "<f4").tobytes()
        buf = (
            HEADER.pack(b"EEGC", 1, 2, 2, 4, 2)
            + TRIAL_PREFIX.pack(0, 0, 0) + data
            + TRIAL_PREFIX.pack(1, 1, 0) + nan
        )
        with pytest.raises(StreamFormatError) as exc:
            decode_subject(buf, 0)
        assert exc.value.offset == HEADER.size + 2 * TRIAL_PREFIX.size + len(data)

    def test_non_increasing_timestamps_rejected(self):
        data = np.zeros((2, 4), "<f4").tobytes()
        buf = (
            HEADER.pack(b"EEGC", 1, 2, 2, 4, 2)
            + TRIAL_PREFIX.pack(5, 0, 0) + data
            + TRIAL_PREFIX.pack(5, 1, 0) + data
        )
        with pytest.raises(StreamFormatError, match="trial 1: timestamps must increase "
                                                    "strictly within a subject") as exc:
            decode_subject(buf, 0)
        # the repeated timestamp is in the second record, not at the first
        assert exc.value.offset == HEADER.size + 1 * (TRIAL_PREFIX.size + len(data))

    def test_record_dtypes_are_buildable_at_the_sample_bound(self):
        # numpy sizes a record dtype in a C int: at the bound, both codecs'
        # records (a 6-byte EEGC and a 9-byte EEGM prefix) still fit.
        limit = eegcl.data.TRIAL_SAMPLES_LIMIT
        assert limit == (2**31 - 1 - 9) // 4 == 536_870_909
        for record_dtype, prefix in ((eegcl.data._record_dtype, 6),
                                     (eegcl.replay._record_dtype, 9)):
            assert 0 < record_dtype(1, limit).itemsize == prefix + 4 * limit

    def test_no_module_imports_struct(self):
        # Binary layouts have one idiom, the numpy structured dtype.
        package = Path(eegcl.data.__file__).parent
        importers = [
            path.name for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "struct"
        ]
        assert importers == []

    def test_every_error_offset_is_read_from_a_dtype(self):
        # No offset= argument in eegcl.data holds an integer literal but 0:
        # each byte offset is read from the header or record dtype by field name.
        tree = ast.parse(inspect.getsource(eegcl.data))
        literals = [
            (node.lineno, const.value) for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "offset"
            for const in ast.walk(node.value)
            if isinstance(const, ast.Constant) and type(const.value) is int and const.value != 0
        ]
        assert literals == []


class TestStreamIO:
    def small_stream(self, seed=0):
        return gen_stream(
            StreamConfig(n_subjects=3, n_channels=3, n_timepoints=12,
                         trials_per_subject=10, seed=seed)
        )

    def test_round_trip_bitwise(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        assert streams_equal(load_stream(tmp_path / "s"), stream)

    def test_pickle_round_trip_keeps_trials_read_only(self):
        stream = self.small_stream()
        restored = pickle.loads(pickle.dumps(stream))
        assert streams_equal(restored, stream)
        for ds in restored:
            assert ds.block.dtype == np.float32
            for a in (ds.block, ds.labels, ds.timestamps, ds.split):
                assert not a.flags.writeable
            for t in ds.trials:
                assert t.trial.dtype == np.float32
                assert not t.trial.flags.writeable

    @pytest.mark.parametrize("resize", [
        lambda buf: buf + b"\0", lambda buf: with_trial_count(buf, -1),
        lambda buf: with_trial_count(buf, +1),
    ], ids=["byte_appended", "one_trial_fewer", "one_trial_more"])
    def test_load_refuses_a_subject_file_of_another_length(self, tmp_path, resize):
        save_stream(self.small_stream(), tmp_path / "s")
        path = tmp_path / "s" / "subject_001.eegc"
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(StreamFormatError, match=f"^{path}: file holds"):
            load_stream(tmp_path / "s")

    def test_save_writes_the_per_trial_encoding(self, tmp_path):
        stream = gen_stream(StreamConfig(n_subjects=2, n_channels=3, n_timepoints=12,
                                         n_classes=3, trials_per_subject=15, seed=6))
        save_stream(stream, tmp_path / "s")
        for ds in stream:
            written = (tmp_path / "s" / f"subject_{ds.subject_id:03d}.eegc").read_bytes()
            assert written == per_trial_encode(ds, stream.n_classes)

    def test_class_count_fits_the_subject_header(self):
        stream = self.small_stream()
        with pytest.raises(ConfigError, match=r"^stream n_classes must be an integer in "
                                              r"\[1, 65535\], got 65536$"):
            Stream(stream.subjects, stream.n_channels, stream.n_timepoints, 65536, 0)
        with pytest.raises(ValueError, match=r"^n_classes must be an integer in "
                                             r"\[1, 65535\], got 65536$"):
            encode_subject(stream[0], 65536)
        widest = encode_subject(stream[0], 65535)
        assert decode_subject(widest, 0)[1] == 65535

    def test_save_is_deterministic(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "a")
        save_stream(stream, tmp_path / "b")
        for name in ["manifest.json"] + [f"subject_{i:03d}.eegc" for i in range(3)]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        stream = self.small_stream(seed=4)
        save_stream(stream, tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["version"] == 1
        assert manifest["n_subjects"] == 3
        assert manifest["n_channels"] == 3
        assert manifest["n_timepoints"] == 12
        assert manifest["n_classes"] == 2
        assert manifest["seed"] == 4
        assert [e["subject_id"] for e in manifest["subjects"]] == [0, 1, 2]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StreamFormatError):
            load_stream(tmp_path)

    def test_invalid_manifest_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        for text in [b"{not json", *UNDECODABLE_JSON.values()]:
            path.write_bytes(text)
            with pytest.raises(StreamFormatError, match=f"^{re.escape(str(path))}: invalid JSON"):
                load_stream(tmp_path)
        path.write_text("[1]")
        with pytest.raises(StreamFormatError, match="manifest must be a JSON object$"):
            load_stream(tmp_path)

    def test_manifest_missing_key(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["seed"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(StreamFormatError):
            load_stream(tmp_path / "s")

    def test_manifest_count_mismatch(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["n_subjects"] = 5
        path.write_text(json.dumps(manifest))
        with pytest.raises(StreamFormatError):
            load_stream(tmp_path / "s")

    @pytest.mark.parametrize("name", ["../x.eegc", "absolute", "sub/x.eegc", ".", "..", ""])
    def test_file_outside_the_stream_directory_rejected(self, tmp_path, monkeypatch, name):
        # Each name points at a valid subject file, yet none is a bare name
        # in the stream directory, so none is opened.
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        blob = (tmp_path / "s" / "subject_002.eegc").read_bytes()
        (tmp_path / "x.eegc").write_bytes(blob)
        (tmp_path / "s" / "sub").mkdir()
        (tmp_path / "s" / "sub" / "x.eegc").write_bytes(blob)
        if name == "absolute":
            name = str(tmp_path / "x.eegc")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["subjects"][2]["file"] = name
        path.write_text(json.dumps(manifest))
        decoded = []
        monkeypatch.setattr(eegcl.data, "decode_subject", lambda *args: decoded.append(args))
        with pytest.raises(StreamFormatError, match=r"subjects\[2\] file .* is not a bare file name"):
            load_stream(tmp_path / "s")
        assert decoded == []

    @pytest.mark.parametrize("subject_id", [-1, 2**32])
    def test_manifest_subject_id_out_of_range_names_its_entry(self, tmp_path, subject_id):
        save_stream(self.small_stream(), tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["subjects"][1]["subject_id"] = subject_id
        path.write_text(json.dumps(manifest))
        with pytest.raises(StreamFormatError, match=r"subjects\[1\] subject_id must be an integer "
                                                    rf"in \[0, 4294967295\], got {subject_id}$"):
            load_stream(tmp_path / "s")

    def test_subject_file_without_trials_offset_6(self, tmp_path):
        save_stream(self.small_stream(), tmp_path / "s")
        path = tmp_path / "s" / "subject_001.eegc"
        path.write_bytes(HEADER.pack(b"EEGC", 1, 0, 3, 12, 2))
        with pytest.raises(StreamFormatError) as exc:
            load_stream(tmp_path / "s")
        assert exc.value.offset == 6
        assert str(exc.value) == f"{path}: file holds no trials (at byte 6)"

    def test_listed_file_missing(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        (tmp_path / "s" / "subject_001.eegc").unlink()
        with pytest.raises(StreamFormatError):
            load_stream(tmp_path / "s")

    def test_class_count_disagreement_offset_16(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["n_classes"] = 3
        path.write_text(json.dumps(manifest))
        with pytest.raises(StreamFormatError) as exc:
            load_stream(tmp_path / "s")
        assert exc.value.offset == 16
        assert "subject_000.eegc: file has 2 classes, manifest says 3" in str(exc.value)

    def test_channel_disagreement_offset_10(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        other = gen_stream(
            StreamConfig(n_subjects=3, n_channels=4, n_timepoints=12,
                         trials_per_subject=10, seed=0)
        )
        blob = encode_subject(other[1], other.n_classes)
        (tmp_path / "s" / "subject_001.eegc").write_bytes(blob)
        with pytest.raises(StreamFormatError) as exc:
            load_stream(tmp_path / "s")
        assert exc.value.offset == 10
        assert "subject_001.eegc: file has 4 channels, manifest says 3" in str(exc.value)

    def test_timepoint_disagreement_offset_12(self, tmp_path):
        stream = self.small_stream()
        save_stream(stream, tmp_path / "s")
        other = gen_stream(
            StreamConfig(n_subjects=3, n_channels=3, n_timepoints=16,
                         trials_per_subject=10, seed=0)
        )
        blob = encode_subject(other[1], other.n_classes)
        (tmp_path / "s" / "subject_001.eegc").write_bytes(blob)
        with pytest.raises(StreamFormatError) as exc:
            load_stream(tmp_path / "s")
        assert exc.value.offset == 12
        assert "subject_001.eegc: file has 16 timepoints, manifest says 12" in str(exc.value)
