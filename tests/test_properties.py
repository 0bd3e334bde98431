"""Property tests for the decoders: on arbitrary bytes, and on
single-byte mutations and truncations of valid files, a binary decoder
either returns what its encoder writes back byte for byte or raises its
documented error; load_stream does the same for generated manifest fields
and damaged manifest bytes, and an experiment config for generated values
in its fields. A Stream builds exactly when every subject has train, val
and test trials, and one that builds from generated field values saves
and loads back. Whitening a subject split by split gives the bits of
whitening their whole block. A continual run on a generated stream keeps
its matrix, audit, memory and seed invariants.

decode_subject reads all records of a subject at once; the per-trial
decoder it replaced is kept here as its reference, with the same rules
that a file holds at least one trial and is exactly its header plus its
records, and every error must match that decoder's message and byte offset.
"""

import copy
import json
import shutil
import struct
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eegcl import (  # noqa: E402
    ConfigError,
    ModelConfig,
    StreamConfig,
    StreamFormatError,
    TrainConfig,
    gen_stream,
)
from eegcl.alignment import whiten_subject  # noqa: E402
from eegcl.cli import ExperimentConfig, parse_experiment_config  # noqa: E402
from eegcl.data import (  # noqa: E402
    CHANNEL_LIMIT,
    CLASS_LIMIT,
    COUNT_LIMIT,
    LabeledTrial,
    Split,
    Stream,
    SubjectDataset,
    decode_subject,
    encode_subject,
    load_stream,
    save_stream,
    streams_equal,
    trials_equal,
)
from eegcl.harness import (  # noqa: E402
    MemoryConfig,
    er_strategy,
    ewc_strategy,
    foreign_reads,
    pced_strategy,
    record_to_json_dict,
    run_continual,
    sft_strategy,
)
from eegcl.replay import (  # noqa: E402
    ReplayMemory,
    memory_from_bytes,
    memory_to_bytes,
    store_class_balanced,
)

from helpers import tiny_trials  # noqa: E402

HEADER = struct.Struct("<4sHIHIH")
TRIAL_PREFIX = struct.Struct("<IBB")
# An EEGM blob's header up to, not including, its trial dimensions.
MEMORY_HEADER_BEFORE_DIMS = 23


def per_trial_decode(buf, path="<memory>"):
    """The per-trial subject decoder: returns (trials, split tags,
    n_classes), or raises the StreamFormatError the block decoder must
    reproduce. A file must hold n_trials >= 1 records and nothing else
    after its header."""
    if len(buf) < HEADER.size:
        raise StreamFormatError(
            f"{path}: truncated while reading header "
            f"(need {HEADER.size} bytes at offset 0, have {len(buf)})",
            offset=0,
        )
    magic, version, n_trials, c, t, n_classes = HEADER.unpack_from(buf, 0)
    if magic != b"EEGC":
        raise StreamFormatError(f"{path}: bad magic {magic!r}, expected {b'EEGC'!r}", offset=0)
    if version != 1:
        raise StreamFormatError(f"{path}: unsupported format version {version}", offset=4)
    if n_trials < 1:
        raise StreamFormatError(f"{path}: file holds no trials", offset=6)
    if c < 1 or t < 1:
        raise StreamFormatError(f"{path}: invalid trial dimensions {c}x{t}", offset=10)
    expected = HEADER.size + n_trials * (TRIAL_PREFIX.size + 4 * c * t)
    if len(buf) != expected:
        raise StreamFormatError(
            f"{path}: file holds {len(buf)} bytes, but its header and "
            f"{n_trials} trials of {c}x{t} take {expected}",
            offset=min(len(buf), expected),
        )
    offset = HEADER.size
    trials, tags = [], []
    for i in range(n_trials):
        timestamp, label, tag = TRIAL_PREFIX.unpack_from(buf, offset)
        if label >= n_classes:
            raise StreamFormatError(
                f"{path}: trial {i} class_label {label} >= n_classes {n_classes}",
                offset=offset + 4,
            )
        if tag not in (0, 1, 2):
            raise StreamFormatError(
                f"{path}: trial {i} split tag {tag} not in {{0, 1, 2}}", offset=offset + 5
            )
        offset += TRIAL_PREFIX.size
        try:
            trial = LabeledTrial(
                trial=np.frombuffer(buf, "<f4", c * t, offset).reshape(c, t), class_label=label,
                subject_id=0, timestamp=timestamp,
            )
        except ValueError as exc:
            raise StreamFormatError(f"{path}: trial {i}: {exc}", offset=offset) from exc
        offset += 4 * c * t
        trials.append(trial)
        tags.append(tag)
    last = -1
    for trial in trials:
        if trial.timestamp <= last:
            raise StreamFormatError(
                f"{path}: timestamps must increase strictly within a subject "
                f"(saw {trial.timestamp} after {last})",
                offset=HEADER.size,
            )
        last = trial.timestamp
    return trials, tags, n_classes


def _valid_subject_files():
    stream = gen_stream(StreamConfig(n_subjects=2, n_channels=2, n_timepoints=3,
                                     n_classes=3, trials_per_subject=9, seed=1))
    return [encode_subject(ds, stream.n_classes) for ds in stream]


def _valid_memory_blobs():
    reservoir = ReplayMemory(capacity=4, policy="reservoir_standard", seed=2)
    reservoir.offer_many(tiny_trials(np.random.default_rng(0), 9, n_channels=2, n_timepoints=3))
    balanced = ReplayMemory(capacity=6, policy="class_balanced", seed=3)
    for ds in gen_stream(StreamConfig(n_subjects=2, n_channels=2, n_timepoints=3,
                                      trials_per_subject=9, seed=4)):
        store_class_balanced(balanced, ds, per_class=2, rng=ds.subject_id)
    return [memory_to_bytes(m) for m in (reservoir, balanced, ReplayMemory(capacity=3))]


def set_byte(buf, pos, byte):
    pos %= len(buf)
    return buf[:pos] + bytes([byte]) + buf[pos + 1 :]


def damaged(valid, magic):
    """Arbitrary bytes, bytes after a valid magic and version, and valid
    files with one byte changed, cut short or with bytes appended."""
    pick = st.sampled_from(valid)
    return st.one_of(
        st.binary(max_size=80),
        st.binary(max_size=160).map(lambda b: magic + b"\x01\x00" + b),
        st.builds(set_byte, pick, st.integers(0, 10**6), st.integers(0, 255)),
        st.builds(lambda buf, n: buf[: n % len(buf)], pick, st.integers(0, 10**6)),
        st.builds(lambda buf, tail: buf + tail, pick, st.binary(min_size=1, max_size=40)),
    )


# Byte values that hit field bounds: the split tags and class counts, and,
# written over a float's high byte, infinities and NaNs.
EDGE_BYTES = (0x00, 0x01, 0x02, 0x03, 0x7F, 0x80, 0xFE, 0xFF)


def every_single_byte_damage(buf):
    """Every truncation of buf, buf with each edge value appended, and buf
    with each byte set to each edge value."""
    for byte in EDGE_BYTES:
        yield buf + bytes([byte])
    for pos in range(len(buf)):
        yield buf[:pos]
        for byte in EDGE_BYTES:
            yield set_byte(buf, pos, byte)


def check_subject_bytes(buf):
    try:
        trials, tags, n_classes = per_trial_decode(buf)
    except StreamFormatError as expected:
        with pytest.raises(StreamFormatError) as got:
            decode_subject(buf, 0)
        assert (got.value.offset, str(got.value)) == (expected.offset, str(expected))
        return
    ds, n = decode_subject(buf, 0)
    assert n == n_classes
    assert len(ds.trials) == len(trials)
    assert all(trials_equal(a, b) for a, b in zip(ds.trials, trials))
    assert ds.split.tolist() == tags
    assert encode_subject(ds, n) == buf


def check_memory_bytes(blob):
    try:
        memory = memory_from_bytes(blob)
    except ValueError:
        return
    again = memory_to_bytes(memory)
    if len(memory):
        assert again == blob
    else:  # an empty memory keeps no trial dimensions
        assert len(blob) == len(again)
        assert again[:MEMORY_HEADER_BEFORE_DIMS] == blob[:MEMORY_HEADER_BEFORE_DIMS]


@given(buf=damaged(_valid_subject_files(), b"EEGC"))
def test_decode_subject_round_trips_or_fails_like_the_per_trial_decoder(buf):
    check_subject_bytes(buf)


@pytest.mark.parametrize("make", [
    lambda valid: HEADER.pack(b"EEGC", 1, 0, 2, 3, 3),
    lambda valid: HEADER.pack(b"EEGC", 1, 0, 0, 0, 3),
    lambda valid: valid[:6] + struct.pack("<I", 0) + valid[10:],
], ids=["header_only", "header_only_no_dims", "records_after_count_0"])
def test_zero_trial_file_is_refused_at_offset_6(make):
    buf = make(_valid_subject_files()[0])
    with pytest.raises(StreamFormatError, match="file holds no trials") as got:
        decode_subject(buf, 0)
    assert got.value.offset == 6
    check_subject_bytes(buf)


def test_decode_subject_on_every_single_byte_damage():
    for buf in every_single_byte_damage(_valid_subject_files()[0]):
        check_subject_bytes(buf)


@given(blob=damaged(_valid_memory_blobs(), b"EEGM"))
def test_memory_from_bytes_round_trips_or_raises_value_error(blob):
    check_memory_bytes(blob)


def test_memory_from_bytes_on_every_single_byte_damage():
    for blob in every_single_byte_damage(_valid_memory_blobs()[0]):
        check_memory_bytes(blob)


# An exemplar id within EEGM's field limits: an integer, or a value that
# the integer rule refuses.
exemplar_ids = st.one_of(st.integers(0, 255), st.floats(0, 255), st.booleans())


@given(ids=st.lists(st.tuples(exemplar_ids, exemplar_ids, exemplar_ids), min_size=1,
                    max_size=6, unique_by=lambda ids: ids[1:]))
def test_every_memory_that_builds_round_trips_through_eegm(ids):
    """(class_label, subject_id, timestamp) per exemplar: LabeledTrial
    refuses what the encoder would truncate, so a memory that builds comes
    back from its blob with the same keys and labels."""
    try:
        trials = [LabeledTrial(np.full((2, 3), i), *key) for i, key in enumerate(ids)]
    except ValueError:
        return
    memory = ReplayMemory(capacity=len(trials))
    memory.offer_many(trials)
    blob = memory_to_bytes(memory)
    out = memory_from_bytes(blob)
    assert [(e.class_label, e.subject_id, e.timestamp) for e in out.entries] == list(ids)
    assert all(trials_equal(a, b) for a, b in zip(memory.entries, out.entries))
    assert memory_to_bytes(out) == blob


# A manifest field's replacement: a JSON value of another type, an
# integer near the valid ones, or the field's removal.
DROP = object()
replacements = st.one_of(
    st.just(DROP), st.none(), st.booleans(), st.integers(-2, 5), st.integers(2**31, 2**64),
    st.floats(), st.text(max_size=4), st.just([]), st.just({}), st.just("subject_000.eegc"),
)


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    """A saved 3-subject stream whose manifest each example rewrites."""
    root = tmp_path_factory.mktemp("manifest_props")
    save_stream(gen_stream(StreamConfig(n_subjects=3, n_channels=2, n_timepoints=3,
                                        trials_per_subject=9, seed=5)), root / "stream")
    return root


def damaged_manifest(valid, changes):
    """valid with each (path, value) change applied: a path names a
    top-level field, or a subject entry and one of its keys."""
    manifest = copy.deepcopy(valid)
    for (key, entry_key), value in changes:
        obj = manifest
        if entry_key is not None:
            if not isinstance(manifest.get("subjects"), list) or key >= len(manifest["subjects"]):
                continue
            obj, key = manifest["subjects"][key], entry_key
        if value is DROP:
            obj.pop(key, None)
        else:
            obj[key] = value
    return manifest


def manifests(valid):
    paths = [(key, None) for key in valid] + [
        (i, key) for i in range(len(valid["subjects"])) for key in ("subject_id", "file")
    ]
    changes = st.lists(st.tuples(st.sampled_from(paths), replacements), max_size=3)
    return st.builds(lambda c: damaged_manifest(valid, c), changes)


VALID_MANIFEST = {
    "version": 1, "n_subjects": 3, "n_channels": 2, "n_timepoints": 3, "n_classes": 2,
    "seed": 5, "subjects": [{"subject_id": i, "file": f"subject_{i:03d}.eegc"} for i in range(3)],
}


@given(manifest=manifests(VALID_MANIFEST))
def test_load_stream_round_trips_or_raises_stream_format_error(stream_dir, manifest):
    source = stream_dir / "stream"
    (source / "manifest.json").write_text(json.dumps(manifest))
    try:
        stream = load_stream(source)
    except StreamFormatError:
        return
    finally:
        (source / "manifest.json").write_text(json.dumps(VALID_MANIFEST))
    dims = ("n_channels", "n_timepoints", "n_classes", "seed")
    assert [getattr(stream, k) for k in dims] == [manifest[k] for k in dims]
    assert [ds.subject_id for ds in stream] == [e["subject_id"] for e in manifest["subjects"]]
    save_stream(stream, stream_dir / "copy")
    assert streams_equal(load_stream(stream_dir / "copy"), stream)


def test_load_stream_on_every_single_byte_damage_of_its_manifest(stream_dir):
    # bytes past 0x7F among the edge values make the file invalid UTF-8
    source = stream_dir / "stream"
    valid = (json.dumps(VALID_MANIFEST, indent=2, sort_keys=True) + "\n").encode()
    try:
        for buf in every_single_byte_damage(valid):
            (source / "manifest.json").write_bytes(buf)
            try:
                stream = load_stream(source)
            except StreamFormatError:
                continue
            manifest = json.loads(buf)
            assert [ds.subject_id for ds in stream] == [e["subject_id"]
                                                        for e in manifest["subjects"]]
    finally:
        (source / "manifest.json").write_text(json.dumps(VALID_MANIFEST))


def stream_field_values(low, high, fits):
    """A Stream field's value: one the subjects fit, or an integer outside
    [low, high] (high None is no bound), either as an int or an np.int64;
    or a bool, a float or None."""
    outside = st.integers(-2**63, low - 1)
    if high is not None:
        outside |= st.integers(high + 1, 2**63 - 1)
    ints = fits | outside
    return st.one_of(ints, ints.map(np.int64), st.booleans(), st.floats(), st.none())


# The fields of the stream stream_dir holds: 2 channels, 3 timepoints, 2 classes.
STREAM_FIELD_VALUES = {
    "n_channels": stream_field_values(1, CHANNEL_LIMIT, st.just(2)),
    "n_timepoints": stream_field_values(1, COUNT_LIMIT, st.just(3)),
    "n_classes": stream_field_values(1, CLASS_LIMIT, st.integers(2, CLASS_LIMIT)),
    "seed": stream_field_values(0, None, st.integers(0, 2**63 - 1)),
}


@given(changes=st.fixed_dictionaries({}, optional=STREAM_FIELD_VALUES))
def test_every_stream_that_builds_saves_and_loads_back(stream_dir, changes):
    try:
        stream = replace(load_stream(stream_dir / "stream"), **changes)
    except ConfigError:
        return
    target = stream_dir / "built"
    shutil.rmtree(target, ignore_errors=True)
    save_stream(stream, target)
    manifest = json.loads((target / "manifest.json").read_text())
    assert all(manifest[name] == getattr(stream, name) for name in STREAM_FIELD_VALUES)
    assert streams_equal(load_stream(target), stream)


VALID_EXPERIMENT = {
    "stream": {"generator": {"n_subjects": 2, "seed": 4}},
    "strategies": ["SFT", {"kind": "ER", "memory": {"capacity": 20, "per_class": 3,
                                                    "policy": "class_balanced"}},
                   {"kind": "EWC", "lambda": 5}],
    "model": {"architecture": "mlp", "hidden": [4, 2]},
    "train": {"learning_rate": 0.01, "max_epochs": 2},
    "seeds": [0, 1],
}


def _field_paths():
    """Every field an experiment config can set, as a path of keys."""
    paths = [(key,) for key in VALID_EXPERIMENT] + [
        ("stream", "path"), ("seeds", 0), ("model", "hidden", 0),
        *(("strategies", i, key) for i in (1, 2) for key in ("kind", "memory", "lambda")),
    ]
    for prefix, cls in ((("stream", "generator"), StreamConfig), (("model",), ModelConfig),
                        (("train",), TrainConfig), (("strategies", 1, "memory"), MemoryConfig)):
        paths += [(*prefix, f.name) for f in fields(cls)]
    return paths


def changed_config(changes):
    """VALID_EXPERIMENT with each (path, value) change applied; a change
    whose path an earlier change removed or replaced, or that would drop
    a list element, is skipped."""
    config = copy.deepcopy(VALID_EXPERIMENT)
    for path, value in changes:
        obj = config
        for key in path[:-1]:
            try:
                obj = obj[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            if isinstance(obj, list) and (value is DROP or not isinstance(path[-1], int)
                                          or path[-1] >= len(obj)):
                continue
            if isinstance(obj, dict) and value is DROP:
                obj.pop(path[-1], None)
            elif isinstance(obj, (dict, list)):
                obj[path[-1]] = value
    return config


config_values = st.one_of(
    replacements, st.floats(-1e3, 1e3), st.lists(st.integers(-2, 5), max_size=3),
    st.sampled_from(["mlp", "shallow_conv", "sgd", "reservoir_standard", "PCED"]),
)


@given(changes=st.lists(st.tuples(st.sampled_from(_field_paths()), config_values),
                        min_size=1, max_size=3))
def test_experiment_config_validates_or_raises_config_error(changes):
    try:
        config = parse_experiment_config(changed_config(changes))
    except ConfigError:
        return
    # parsing alone checked the stream source and the seeds
    assert (config.stream_path is None) != (config.generator is None)
    assert config.generator is not None or isinstance(config.stream_path, str)
    assert config.seeds and len(set(config.seeds)) == len(config.seeds)
    assert all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in config.seeds)


def test_valid_experiment_parses():
    # were it refused, every generated example would raise and pass vacuously
    config = parse_experiment_config(copy.deepcopy(VALID_EXPERIMENT))
    assert config.seeds == (0, 1)
    assert [s.kind for s in config.strategies] == ["SFT", "ER", "EWC"]


def test_experiment_config_with_two_stream_sources_is_refused():
    with pytest.raises(ConfigError, match="exactly one of 'path' or 'generator'"):
        ExperimentConfig(stream_path="x", generator=StreamConfig(), strategies=(),
                         model={}, train=TrainConfig())


@given(tags=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6),
                    min_size=1, max_size=3))
def test_stream_builds_exactly_when_every_subject_has_every_split(tags):
    subjects = tuple(SubjectDataset(i, np.zeros((len(t), 2, 4)), [0] * len(t), range(len(t)), t)
                     for i, t in enumerate(tags))
    missing = [(i, split) for i, t in enumerate(tags) for split in Split if split not in t]
    build = partial(Stream, subjects, n_channels=2, n_timepoints=4, n_classes=2, seed=0)
    if not missing:
        assert [ds.subject_id for ds in build()] == list(range(len(tags)))
    else:
        subject_id, split = missing[0]
        with pytest.raises(ValueError,
                           match=f"^subject {subject_id} has no {split.name.lower()} trials$"):
            build()


@given(n_channels=st.integers(1, 6), n_timepoints=st.integers(2, 12),
       tags=st.lists(st.sampled_from(Split), max_size=12), seed=st.integers(0, 2**32 - 1))
def test_per_split_whitening_is_whole_block_whitening(n_channels, n_timepoints, tags, seed):
    # What a PCED stage whitens split by split, eegcl align whitens as one block.
    tags = np.array([Split.TRAIN, *tags])
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((len(tags), n_channels, n_timepoints)).astype(np.float32)
    train = block[tags == Split.TRAIN]
    parts, report = whiten_subject(0, train, *(block[tags == split] for split in Split))
    (whole,), whole_report = whiten_subject(0, train, block)
    assert report.whitener.tobytes() == whole_report.whitener.tobytes()
    for split, part in zip(Split, parts):
        assert part.dtype == np.float32
        assert part.tobytes() == whole[tags == split].tobytes()


def run_strategies(capacity):
    """The four kinds, plus ER on a standard reservoir, with a memory of
    the given capacity."""
    balanced = MemoryConfig(capacity=capacity, per_class=2)
    return (sft_strategy(), er_strategy(balanced), ewc_strategy(), pced_strategy(balanced),
            er_strategy(MemoryConfig(capacity=capacity, policy="reservoir_standard")))


@settings(max_examples=25)
@given(n_subjects=st.integers(1, 4), n_channels=st.integers(2, 3),
       n_timepoints=st.integers(8, 12), n_classes=st.integers(2, 3),
       per_class=st.integers(3, 5), epochs=st.integers(1, 2),
       capacity=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_run_keeps_its_invariants(n_subjects, n_channels, n_timepoints, n_classes,
                                  per_class, epochs, capacity, seed):
    stream = gen_stream(StreamConfig(
        n_subjects=n_subjects, n_channels=n_channels, n_timepoints=n_timepoints,
        n_classes=n_classes, trials_per_subject=per_class * n_classes, seed=seed,
    ))
    model_cfg = ModelConfig(n_channels=n_channels, n_timepoints=n_timepoints,
                            n_classes=n_classes, n_filters=2, kernel_len=4)
    train_cfg = TrainConfig(learning_rate=0.01, max_epochs=epochs, batch_size=8,
                            patience=epochs)
    upper = np.triu(np.ones((n_subjects, n_subjects), dtype=bool), k=1)
    for strategy in run_strategies(capacity):
        record = run_continual(stream, strategy, model_cfg, train_cfg, run_seed=seed)
        assert np.isnan(record.matrix[upper]).all()
        lower = record.matrix[~upper]
        assert ((lower >= 0) & (lower <= 1)).all()
        per_stage = [sum(e.stage == k for e in record.access_events)
                     for k in range(1, n_subjects + 1)]
        assert per_stage == [3] * n_subjects
        assert foreign_reads(record) == []
        assert max(record.stage_memory) <= capacity
        assert (record.bwt is None) == (n_subjects == 1)
        again = run_continual(stream, strategy, model_cfg, train_cfg, run_seed=seed)
        first, second = record_to_json_dict(record), record_to_json_dict(again)
        del first["stage_seconds"], second["stage_seconds"]
        assert first == second
