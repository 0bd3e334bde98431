import hashlib
import random
import struct

import numpy as np
import pytest

from eegcl import ConfigError, StreamConfig, gen_stream
from eegcl.data import Split, SubjectDataset, encode_subject
from eegcl.errors import ShapeError
from eegcl.replay import ReplayMemory, memory_from_bytes, memory_to_bytes, store_class_balanced

from helpers import balanced_subject, make_trial, tiny_arrays, tiny_trials


def stream_of(n, subject=0, start=0, seed=0):
    return tiny_trials(np.random.default_rng(seed), n, subject=subject, start=start)


class TestConstruction:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ReplayMemory(capacity=-1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ReplayMemory(capacity=5, policy="fifo")

    @pytest.mark.parametrize("value", [1.5, True, "3", None])
    def test_non_integer_sizes_rejected(self, value):
        with pytest.raises(ConfigError,
                           match=r"memory capacity must be an integer in \[0, 4294967295\]"):
            ReplayMemory(capacity=value)
        subject = balanced_subject(np.random.default_rng(0), 0, 4)
        with pytest.raises(ConfigError, match="memory per_class must be an integer >= 0"):
            store_class_balanced(ReplayMemory(4, "class_balanced"), subject, value, 0)

    def test_starts_empty(self):
        mem = ReplayMemory(capacity=5)
        assert len(mem) == 0
        assert mem.seen == 0
        assert mem.snapshot() == ()


class ReferenceReservoir:
    """The per-item ReplayMemory.offer that offer_many replaced, kept as
    its reference: the same checks and draws, one call per item, with the
    constant-rate rule written as capacity / (capacity + len(entries))."""

    def __init__(self, capacity, policy, seed):
        self.capacity, self.policy = capacity, policy
        self.entries, self.seen = [], 0
        self._rng = random.Random(seed)
        self._keys, self._shape = set(), None

    def offer(self, entry) -> bool:
        if self._shape is None:
            self._shape = entry.trial.shape
        elif entry.trial.shape != self._shape:
            raise ShapeError(
                f"entry shape {entry.trial.shape} does not match memory shape {self._shape}"
            )
        key = (entry.subject_id, entry.timestamp)
        if key in self._keys:
            raise ValueError(f"exemplar {key} is already in memory")
        self.seen += 1
        if self.capacity == 0:
            return False
        if len(self.entries) < self.capacity:
            self.entries.append(entry)
            self._keys.add(key)
            return True
        if self.policy == "reservoir_standard":
            p = self.capacity / self.seen
        else:
            p = self.capacity / (self.capacity + len(self.entries))
        if self._rng.random() < p:
            slot = self._rng.randrange(self.capacity)
            old = self.entries[slot]
            self._keys.discard((old.subject_id, old.timestamp))
            self.entries[slot] = entry
            self._keys.add(key)
            return True
        return False


class TestOffer:
    def test_free_space_fills_in_arrival_order(self):
        mem = ReplayMemory(capacity=4)
        trials = stream_of(4)
        assert mem.offer_many(trials) == 4
        assert [e.timestamp for e in mem.snapshot()] == [0, 1, 2, 3]

    def test_capacity_is_never_exceeded(self):
        mem = ReplayMemory(capacity=7, seed=3)
        for t in stream_of(200):
            mem.offer_many([t])
            assert len(mem) <= 7
        assert len(mem) == 7
        assert mem.seen == 200

    def test_seen_counts_rejected_offers_too(self):
        mem = ReplayMemory(capacity=1, seed=0)
        mem.offer_many(stream_of(50))
        assert mem.seen == 50
        assert len(mem) == 1

    def test_duplicate_key_rejected(self):
        mem = ReplayMemory(capacity=5)
        t = stream_of(1)[0]
        mem.offer_many([t])
        with pytest.raises(ValueError):
            mem.offer_many([t])

    def test_same_timestamp_different_subject_is_fine(self):
        mem = ReplayMemory(capacity=5)
        mem.offer_many([stream_of(1, subject=0)[0], stream_of(1, subject=1)[0]])
        assert len(mem) == 2

    def test_shape_mismatch_rejected(self):
        mem = ReplayMemory(capacity=5)
        mem.offer_many([make_trial(np.zeros((2, 4)), timestamp=0)])
        with pytest.raises(ShapeError):
            mem.offer_many([make_trial(np.zeros((3, 4)), timestamp=1)])

    def test_capacity_zero_rejects_but_counts(self):
        mem = ReplayMemory(capacity=0)
        assert mem.offer_many(stream_of(10)) == 0
        assert mem.seen == 10
        assert len(mem) == 0

    def test_class_balanced_policy_has_no_offer(self):
        mem = ReplayMemory(capacity=5, policy="class_balanced")
        with pytest.raises(ConfigError):
            mem.offer_many(stream_of(2))

    def test_offer_many_matches_repeated_offer(self):
        # the same entries in the same slots, seen count and accept count
        # as the per-item reference, whether the stream comes in one call
        # or in uneven batches
        for policy in ("reservoir_standard", "reservoir_paper_literal"):
            for capacity in (0, 1, 3, 9, 40):
                for seed in range(4):
                    trials = stream_of(300, seed=seed)
                    one = ReferenceReservoir(capacity, policy, seed)
                    accepted = sum(one.offer(t) for t in trials)
                    many = ReplayMemory(capacity, policy, seed)
                    assert many.offer_many(trials) == accepted
                    batched = ReplayMemory(capacity, policy, seed)
                    cuts = (0, 1, 7, 150, 300)
                    batch_accepted = sum(
                        batched.offer_many(trials[a:b]) for a, b in zip(cuts, cuts[1:])
                    )
                    assert batch_accepted == accepted
                    for mem in (many, batched):
                        assert mem.seen == one.seen == 300
                        assert len(mem.entries) == len(one.entries)
                        assert all(a is b for a, b in zip(mem.entries, one.entries))

    def test_offer_many_error_matches_sequential_behavior(self):
        # entries before the malformed one are processed, exactly as if
        # they had been offered one at a time
        mem = ReplayMemory(capacity=5)
        bad = [make_trial(np.zeros((2, 4)), timestamp=0),
               make_trial(np.zeros((3, 4)), timestamp=1)]
        with pytest.raises(ShapeError):
            mem.offer_many(bad)
        assert mem.seen == 1
        assert len(mem) == 1
        # a stored key offered again once the memory is full
        trials = stream_of(30, seed=1)
        for policy in ("reservoir_standard", "reservoir_paper_literal"):
            one = ReferenceReservoir(4, policy, seed=6)
            for t in trials:
                one.offer(t)
            repeated = trials + stream_of(5, start=30) + [one.entries[-1]]
            one = ReferenceReservoir(4, policy, seed=6)
            with pytest.raises(ValueError, match="already in memory"):
                for t in repeated:
                    one.offer(t)
            many = ReplayMemory(4, policy, seed=6)
            with pytest.raises(ValueError, match="already in memory"):
                many.offer_many(repeated)
            assert many.seen == one.seen
            assert all(a is b for a, b in zip(many.entries, one.entries))

    @pytest.mark.parametrize("interrupt", ["nan_trial", "keyboard"])
    def test_seen_survives_an_iterable_that_raises(self, interrupt):
        # seen counts every trial the loop took, so the reservoir's B/n stays
        # right and the memory still encodes to a blob its decoder accepts
        def trials():
            yield from stream_of(3)
            if interrupt == "keyboard":
                raise KeyboardInterrupt
            yield make_trial(np.full((2, 4), np.nan), timestamp=3)

        mem = ReplayMemory(capacity=5, seed=0)
        with pytest.raises(KeyboardInterrupt if interrupt == "keyboard" else ValueError):
            mem.offer_many(trials())
        assert len(mem) == mem.seen == 3
        out = memory_from_bytes(memory_to_bytes(mem))
        assert (len(out), out.seen) == (3, 3)
        assert all(a.timestamp == b.timestamp for a, b in zip(mem.entries, out.entries))


class TestReservoirPolicies:
    def test_paper_literal_accepts_about_half_once_full(self):
        mem = ReplayMemory(capacity=20, policy="reservoir_paper_literal", seed=1)
        mem.offer_many(stream_of(20))
        accepted = mem.offer_many(stream_of(4000, start=20))
        assert 0.46 * 4000 <= accepted <= 0.54 * 4000

    def test_standard_keeps_early_items_literal_does_not(self):
        # after 2000 offers into 50 slots the constant-probability variant
        # has replaced the early items almost surely, while the standard
        # reservoir still holds a representative share of them
        trials = stream_of(2000)
        standard = ReplayMemory(capacity=50, policy="reservoir_standard", seed=2)
        standard.offer_many(trials)
        literal = ReplayMemory(capacity=50, policy="reservoir_paper_literal", seed=2)
        literal.offer_many(trials)
        standard_ts = [e.timestamp for e in standard.snapshot()]
        literal_ts = [e.timestamp for e in literal.snapshot()]
        assert min(standard_ts) < 1000
        assert min(literal_ts) > 1000


class TestSnapshot:
    def test_snapshot_is_frozen_against_later_offers(self):
        mem = ReplayMemory(capacity=3, seed=0)
        mem.offer_many(stream_of(3))
        snap = mem.snapshot()
        mem.offer_many(stream_of(100, start=3))
        assert [e.timestamp for e in snap] == [0, 1, 2]
        assert snap != mem.snapshot()

    def test_class_counts(self):
        mem = ReplayMemory(capacity=10)
        mem.offer_many(stream_of(6))
        assert mem.class_counts() == {0: 3, 1: 3}


class TestStoreClassBalanced:
    def subject(self, subject_id, n_per_class, seed=0):
        return balanced_subject(np.random.default_rng(seed), subject_id, n_per_class)

    def test_stores_quota_per_class(self):
        mem = ReplayMemory(capacity=100, policy="class_balanced")
        stored = store_class_balanced(mem, self.subject(0, 10), per_class=10, rng=0)
        assert stored == 20
        assert mem.class_counts() == {0: 10, 1: 10}

    def test_quota_clamps_to_available(self):
        mem = ReplayMemory(capacity=100, policy="class_balanced")
        stored = store_class_balanced(mem, self.subject(0, 3), per_class=4, rng=0)
        assert stored == 6
        assert mem.class_counts() == {0: 3, 1: 3}

    def test_only_training_trials_eligible(self):
        x, y = tiny_arrays(np.random.default_rng(0), 8)
        tags = (Split.TRAIN, Split.TRAIN, Split.VAL, Split.TEST) * 2
        ds = SubjectDataset(0, x, y, np.arange(8), tags)
        mem = ReplayMemory(capacity=100, policy="class_balanced")
        store_class_balanced(mem, ds, per_class=10, rng=0)
        train_keys = {(0, i) for i, s in enumerate(tags) if s == Split.TRAIN}
        assert {(e.subject_id, e.timestamp) for e in mem.snapshot()} == train_keys
        for e in mem.snapshot():
            assert np.array_equal(e.trial, ds.block[e.timestamp])
            assert e.class_label == y[e.timestamp]

    def test_same_rng_seed_same_selection(self):
        picks = []
        for _ in range(2):
            mem = ReplayMemory(capacity=100, policy="class_balanced")
            store_class_balanced(mem, self.subject(0, 10), per_class=4, rng=7)
            picks.append([(e.timestamp, e.class_label) for e in mem.snapshot()])
        assert picks[0] == picks[1]

    def test_accepts_generator_rng(self):
        mem = ReplayMemory(capacity=100, policy="class_balanced")
        stored = store_class_balanced(
            mem, self.subject(0, 5), per_class=2, rng=np.random.default_rng(3)
        )
        assert stored == 4

    def test_overflow_evicts_oldest_subject_entirely(self):
        mem = ReplayMemory(capacity=6, policy="class_balanced", seed=0)
        store_class_balanced(mem, self.subject(0, 3), per_class=3, rng=0)
        assert len(mem) == 6
        store_class_balanced(mem, self.subject(1, 3, seed=1), per_class=3, rng=1)
        assert len(mem) == 6
        assert all(e.subject_id == 1 for e in mem.snapshot())

    def test_overflow_evicts_only_as_needed(self):
        mem = ReplayMemory(capacity=9, policy="class_balanced", seed=0)
        store_class_balanced(mem, self.subject(0, 3), per_class=3, rng=0)
        store_class_balanced(mem, self.subject(1, 3, seed=1), per_class=3, rng=1)
        assert len(mem) == 9
        by_subject = {}
        for e in mem.snapshot():
            by_subject[e.subject_id] = by_subject.get(e.subject_id, 0) + 1
        assert by_subject == {0: 3, 1: 6}

    def test_overflow_evicts_first_arrival_not_lowest_id(self):
        # a stream may list its subjects in any id order
        mem = ReplayMemory(capacity=6, policy="class_balanced", seed=0)
        for i, subject_id in enumerate((2, 1, 0)):
            store_class_balanced(mem, self.subject(subject_id, 3, seed=i), per_class=3, rng=i)
            assert all(e.subject_id == subject_id for e in mem.snapshot())

    def test_eviction_uses_memory_rng(self):
        # identical stores with different memory seeds must be allowed to
        # evict different survivors from the oldest subject
        survivors = []
        for mem_seed in range(40):
            mem = ReplayMemory(capacity=7, policy="class_balanced", seed=mem_seed)
            store_class_balanced(mem, self.subject(0, 3), per_class=3, rng=0)
            store_class_balanced(mem, self.subject(1, 3, seed=1), per_class=3, rng=1)
            kept = tuple(
                sorted(e.timestamp for e in mem.snapshot() if e.subject_id == 0)
            )
            survivors.append(kept)
        assert len(set(survivors)) > 1

    def test_wrong_policy_rejected(self):
        mem = ReplayMemory(capacity=10, policy="reservoir_standard")
        with pytest.raises(ConfigError):
            store_class_balanced(mem, self.subject(0, 3), per_class=2, rng=0)

    def test_negative_per_class_rejected(self):
        mem = ReplayMemory(capacity=10, policy="class_balanced")
        with pytest.raises(ConfigError):
            store_class_balanced(mem, self.subject(0, 3), per_class=-1, rng=0)

    def test_capacity_zero_stores_nothing(self):
        mem = ReplayMemory(capacity=0, policy="class_balanced")
        stored = store_class_balanced(mem, self.subject(0, 3), per_class=3, rng=0)
        assert stored == 0
        assert len(mem) == 0
        assert mem.seen == 6


def reference_store(memory, entries) -> int:
    """ReplayMemory.store as it was before class_balanced insertion joined
    the memory's one insertion loop, kept as its reference: one checked
    entry at a time, evicting a random exemplar of the oldest subject while
    the memory is full."""
    stored = 0
    for entry in entries:
        if memory._shape is None:
            memory._shape = entry.trial.shape
        elif entry.trial.shape != memory._shape:
            raise ShapeError(
                f"entry shape {entry.trial.shape} does not match memory shape {memory._shape}"
            )
        key = (entry.subject_id, entry.timestamp)
        if key in memory._keys:
            raise ValueError(f"exemplar {key} is already in memory")
        memory.seen += 1
        if memory.capacity == 0:
            continue
        while len(memory.entries) >= memory.capacity:
            oldest = memory.entries[0].subject_id
            slots = [i for i, e in enumerate(memory.entries) if e.subject_id == oldest]
            victim = memory.entries.pop(slots[memory._rng.randrange(len(slots))])
            memory._keys.discard((victim.subject_id, victim.timestamp))
        memory.entries.append(entry)
        memory._keys.add(key)
        stored += 1
    return stored


@pytest.fixture(scope="module")
def six_subject_stream():
    # 4 classes of about 4 training trials each: 24 or more picks overflow
    # every tested capacity
    return gen_stream(StreamConfig(n_subjects=6, n_channels=2, n_timepoints=8, n_classes=4,
                                   trials_per_subject=24, seed=1))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_class", [1, 3])
@pytest.mark.parametrize("capacity", [0, 1, 7, 20])
def test_class_balanced_store_matches_reference(six_subject_stream, capacity, per_class, seed):
    memory = ReplayMemory(capacity, "class_balanced", seed=seed)
    reference = ReplayMemory(capacity, "class_balanced", seed=seed)
    batches = []

    def recorded(entries, insert=memory._insert):
        batches.append(list(entries))
        return insert(batches[-1])

    memory._insert = recorded
    for ds in six_subject_stream:
        stored = store_class_balanced(memory, ds, per_class, rng=seed * 10 + ds.subject_id)
        assert stored == reference_store(reference, batches[-1])
        assert memory.seen == reference.seen
        assert len(memory) == len(reference)
        assert all(a is b for a, b in zip(memory.entries, reference.entries))
        assert memory._keys == reference._keys
    assert memory.seen > capacity
    assert memory_to_bytes(memory) == memory_to_bytes(reference)


class TestSerialization:
    def test_round_trip(self):
        mem = ReplayMemory(capacity=8, policy="reservoir_standard", seed=4)
        mem.offer_many(stream_of(30))
        out = memory_from_bytes(memory_to_bytes(mem))
        assert out.capacity == mem.capacity
        assert out.policy == mem.policy
        assert out.seen == mem.seen
        assert len(out) == len(mem)
        for a, b in zip(mem.snapshot(), out.snapshot()):
            assert (a.subject_id, a.timestamp, a.class_label) == (
                b.subject_id, b.timestamp, b.class_label
            )
            assert np.array_equal(a.trial, b.trial)

    def test_empty_round_trip(self):
        mem = ReplayMemory(capacity=5, policy="class_balanced")
        out = memory_from_bytes(memory_to_bytes(mem))
        assert out.capacity == 5
        assert out.policy == "class_balanced"
        assert len(out) == 0

    def test_restored_memory_accepts_new_offers(self):
        mem = ReplayMemory(capacity=4, seed=0)
        mem.offer_many(stream_of(4))
        out = memory_from_bytes(memory_to_bytes(mem), seed=9)
        out.offer_many(stream_of(20, start=100))
        assert len(out) == 4
        assert out.seen == 24

    def test_header_errors(self):
        blob = memory_to_bytes(ReplayMemory(capacity=3))
        with pytest.raises(ValueError):
            memory_from_bytes(blob[:5])
        with pytest.raises(ValueError):
            memory_from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            memory_from_bytes(blob + b"\x00")
        bad_version = blob[:4] + b"\x09\x00" + blob[6:]
        with pytest.raises(ValueError):
            memory_from_bytes(bad_version)

    def _five_entry_blob(self, capacity, seen):
        mem = ReplayMemory(capacity=5, seed=0)
        mem.offer_many(stream_of(5))
        blob = memory_to_bytes(mem)
        # capacity is a uint32 at byte 6, seen a uint64 at byte 10
        return blob[:6] + struct.pack("<IQ", capacity, seen) + blob[18:]

    def test_more_entries_than_capacity_rejected(self):
        assert len(memory_from_bytes(self._five_entry_blob(5, 5))) == 5
        with pytest.raises(ValueError, match="capacity"):
            memory_from_bytes(self._five_entry_blob(1, 5))

    def test_fewer_seen_than_entries_rejected(self):
        with pytest.raises(ValueError, match="seen"):
            memory_from_bytes(self._five_entry_blob(5, 0))

    @pytest.mark.parametrize("dims", [(0, 0), (3, 0), (0, 3)], ids=str)
    def test_empty_trials_rejected(self, dims):
        # header: magic, version, capacity, seen, policy, n_entries, channels,
        # timepoints; then two entry prefixes whose samples take no bytes
        c, t = dims
        blob = struct.pack("<4sHIQBIHI", b"EEGM", 1, 4, 2, 0, 2, c, t)
        blob += struct.pack("<IIB", 0, 0, 0) + struct.pack("<IIB", 0, 1, 1)
        with pytest.raises(ValueError, match="dimensions"):
            memory_from_bytes(blob)

    # The encoder refuses nothing: MemoryConfig holds a capacity, and
    # LabeledTrial an exemplar's ids and dimensions, to their EEGM fields, so
    # one past a field's bound is refused at construction and the bound
    # itself round-trips.
    @pytest.mark.parametrize("field, value", [
        ("subject", 2**32), ("capacity", 2**32), ("channels", 2**16),
    ])
    def test_fields_out_of_eegm_range_rejected(self, field, value):
        def memory(v):
            mem = ReplayMemory(capacity=v if field == "capacity" else 2, seed=0)
            fields = {} if field in ("capacity", "channels") else {field: v}
            shape = (v, 2) if field == "channels" else (2, 4)
            mem.offer_many([make_trial(np.zeros(shape), **fields)])
            return mem

        error, text = {
            "subject": (ValueError, r"^subject_id must be an integer in \[0, 4294967295\]"),
            "capacity": (ConfigError, r"^memory capacity must be an integer in \[0, 4294967295\]"),
            "channels": (ShapeError, "1 x 1 to 65535 x 4294967295"),
        }[field]
        with pytest.raises(error, match=text):
            memory(value)
        assert len(memory_from_bytes(memory_to_bytes(memory(value - 1)))) == 1

    def test_duplicate_exemplar_rejected(self):
        mem = ReplayMemory(capacity=2, seed=0)
        mem.offer_many(stream_of(2))
        blob = memory_to_bytes(mem)
        header = len(memory_to_bytes(ReplayMemory(capacity=2)))
        first = blob[header : header + (len(blob) - header) // 2]
        assert len(memory_from_bytes(blob[:header] + first + blob[header + len(first):])) == 2
        with pytest.raises(ValueError, match=r"exemplar \(0, 0\) is already in memory"):
            memory_from_bytes(blob[:header] + first + first)

    def test_empty_memory_of_widest_dimensions_decodes(self):
        # An empty memory's header may state any dimensions within the sample
        # bound, 536870909, a trial of no samples included.
        for c, t in ((0xFFFF, 536870909 // 0xFFFF), (1, 536870909), (0, 536870909),
                     (0xFFFF, 0)):
            blob = struct.pack("<4sHIQBIHI", b"EEGM", 1, 4, 7, 1, 0, c, t)
            out = memory_from_bytes(blob)
            assert (len(out), out.capacity, out.seen) == (0, 4, 7)
            assert out.policy == "reservoir_paper_literal"

    @pytest.mark.parametrize("n_entries", [0, 1])
    def test_dimensions_past_the_sample_bound_rejected(self, n_entries):
        # One sample past the bound, in a trial or in the timepoints beside no
        # channels, or the widest header: refused by the dimension check, with
        # or without exemplars, before the blob's length is compared.
        for c, t in ((2, 268435455), (0, 536870910), (0xFFFF, 0xFFFFFFFF)):
            blob = struct.pack("<4sHIQBIHI", b"EEGM", 1, 4, 7, 1, n_entries, c, t)
            with pytest.raises(ValueError, match=f"^memory blob holds {n_entries} entries of "
                                                 f"invalid dimensions {c}x{t}$"):
                memory_from_bytes(blob)


@pytest.fixture(scope="module")
def seed3_stream():
    return gen_stream(StreamConfig(seed=3))


# SHA-256 of EEGM version 1 and EEGC blobs of one generated stream: a codec
# change that moves any byte of either format fails here.
GOLDEN_SHA256 = {
    "reservoir_standard": "8fced2f13a683e0e0f3e4e1f22c15cb82e70c5b340889caef3ba603796e55629",
    "class_balanced": "2a4aa2705885af038ffac499a3264b2980b7e3a10dda8a4bb9ac4a3422dfa7eb",
    "eegc_subject": "78b94dc040ac9d8947ec82554b38a3b6b288a117e2afe984223a502e0ae01f74",
}


def golden_blob(name, stream):
    if name == "eegc_subject":
        return encode_subject(stream[0], stream.n_classes)
    if name == "reservoir_standard":
        memory = ReplayMemory(capacity=50, policy=name, seed=5)
        for ds in stream:
            memory.offer_many(ds.trials_for(Split.TRAIN))
    else:
        memory = ReplayMemory(capacity=40, policy=name, seed=6)
        for ds in stream:
            store_class_balanced(memory, ds, per_class=4, rng=ds.subject_id)
    return memory_to_bytes(memory)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_bytes(name, seed3_stream):
    blob = golden_blob(name, seed3_stream)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]
    if name != "eegc_subject":
        assert memory_to_bytes(memory_from_bytes(blob)) == blob
