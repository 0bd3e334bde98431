import struct

import numpy as np
import pytest

from eegcl import ConfigError, ReplayMemory, ShapeError, Split, SubjectDataset, store_class_balanced
from eegcl.replay import memory_from_bytes, memory_to_bytes

from helpers import balanced_subject, make_trial, tiny_trials


def stream_of(n, subject=0, start=0, seed=0):
    return tiny_trials(np.random.default_rng(seed), n, subject=subject, start=start)


class TestConstruction:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ReplayMemory(capacity=-1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ReplayMemory(capacity=5, policy="fifo")

    def test_starts_empty(self):
        mem = ReplayMemory(capacity=5)
        assert len(mem) == 0
        assert mem.seen == 0
        assert mem.snapshot() == ()


class TestOffer:
    def test_free_space_fills_in_arrival_order(self):
        mem = ReplayMemory(capacity=4)
        trials = stream_of(4)
        for t in trials:
            assert mem.offer(t) is True
        assert [e.timestamp for e in mem.snapshot()] == [0, 1, 2, 3]

    def test_capacity_is_never_exceeded(self):
        mem = ReplayMemory(capacity=7, seed=3)
        for t in stream_of(200):
            mem.offer(t)
            assert len(mem) <= 7
        assert len(mem) == 7
        assert mem.seen == 200

    def test_seen_counts_rejected_offers_too(self):
        mem = ReplayMemory(capacity=1, seed=0)
        for t in stream_of(50):
            mem.offer(t)
        assert mem.seen == 50
        assert len(mem) == 1

    def test_duplicate_key_rejected(self):
        mem = ReplayMemory(capacity=5)
        t = stream_of(1)[0]
        mem.offer(t)
        with pytest.raises(ValueError):
            mem.offer(t)

    def test_same_timestamp_different_subject_is_fine(self):
        mem = ReplayMemory(capacity=5)
        mem.offer(stream_of(1, subject=0)[0])
        mem.offer(stream_of(1, subject=1)[0])
        assert len(mem) == 2

    def test_shape_mismatch_rejected(self):
        mem = ReplayMemory(capacity=5)
        mem.offer(make_trial(np.zeros((2, 4)), timestamp=0))
        with pytest.raises(ShapeError):
            mem.offer(make_trial(np.zeros((3, 4)), timestamp=1))

    def test_capacity_zero_rejects_but_counts(self):
        mem = ReplayMemory(capacity=0)
        for t in stream_of(10):
            assert mem.offer(t) is False
        assert mem.seen == 10
        assert len(mem) == 0

    def test_class_balanced_policy_has_no_offer(self):
        mem = ReplayMemory(capacity=5, policy="class_balanced")
        with pytest.raises(ConfigError):
            mem.offer(stream_of(1)[0])
        with pytest.raises(ConfigError):
            mem.offer_many(stream_of(2))

    def test_offer_many_matches_repeated_offer(self):
        trials = stream_of(300)
        one = ReplayMemory(capacity=9, seed=5)
        accepted = 0
        for t in trials:
            accepted += bool(one.offer(t))
        many = ReplayMemory(capacity=9, seed=5)
        assert many.offer_many(trials) == accepted
        assert many.seen == one.seen
        assert [e.timestamp for e in many.snapshot()] == [
            e.timestamp for e in one.snapshot()
        ]

    def test_offer_many_error_matches_sequential_behavior(self):
        # entries before the malformed one are processed, exactly as if
        # offer() had been called one at a time
        mem = ReplayMemory(capacity=5)
        bad = [make_trial(np.zeros((2, 4)), timestamp=0),
               make_trial(np.zeros((3, 4)), timestamp=1)]
        with pytest.raises(ShapeError):
            mem.offer_many(bad)
        assert mem.seen == 1
        assert len(mem) == 1


class TestReservoirPolicies:
    def test_paper_literal_accepts_about_half_once_full(self):
        mem = ReplayMemory(capacity=20, policy="reservoir_paper_literal", seed=1)
        for t in stream_of(20):
            mem.offer(t)
        accepted = sum(bool(mem.offer(t)) for t in stream_of(4000, start=20))
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
        first = stream_of(3)
        for t in first:
            mem.offer(t)
        snap = mem.snapshot()
        mem.offer_many(stream_of(100, start=3))
        assert [e.timestamp for e in snap] == [0, 1, 2]
        assert snap != mem.snapshot()

    def test_class_counts(self):
        mem = ReplayMemory(capacity=10)
        for t in stream_of(6):
            mem.offer(t)
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
        trials = tiny_trials(np.random.default_rng(0), 8)
        tags = (Split.TRAIN, Split.TRAIN, Split.VAL, Split.TEST) * 2
        ds = SubjectDataset(subject_id=0, trials=trials, split=tags)
        mem = ReplayMemory(capacity=100, policy="class_balanced")
        store_class_balanced(mem, ds, per_class=10, rng=0)
        train_keys = {
            (t.subject_id, t.timestamp) for t, s in zip(trials, tags) if s == Split.TRAIN
        }
        assert {(e.subject_id, e.timestamp) for e in mem.snapshot()} == train_keys

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

    def test_duplicate_exemplar_rejected(self):
        mem = ReplayMemory(capacity=2, seed=0)
        mem.offer_many(stream_of(2))
        blob = memory_to_bytes(mem)
        header = len(memory_to_bytes(ReplayMemory(capacity=2)))
        first = blob[header : header + (len(blob) - header) // 2]
        assert len(memory_from_bytes(blob[:header] + first + blob[header + len(first):])) == 2
        with pytest.raises(ValueError, match="twice"):
            memory_from_bytes(blob[:header] + first + first)
