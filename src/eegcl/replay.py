"""Capacity-bounded replay memory for exemplar rehearsal.

Three storage policies:

- ``reservoir_standard``: classic streaming reservoir. Item number n is
  kept with probability B/n and overwrites a uniformly random slot, which
  makes every item's retention probability exactly B/n — a uniform sample
  of the whole stream.
- ``reservoir_paper_literal``: replacement probability B/(B + |M|), i.e. a
  constant 1/2 once the buffer is full. Kept for comparison experiments;
  it is *not* uniform (late items crowd out early ones), and the test
  suite demonstrates that.
- ``class_balanced``: no per-item offers; instead `store_class_balanced`
  draws a fixed quota per class from each subject's training split.

The eviction and replacement randomness comes from the memory's own stdlib
RNG so buffer contents never depend on model or training seeds.
"""

from __future__ import annotations

import random
import struct

import numpy as np

from .data import LabeledTrial, Split, SubjectDataset, decode_trial_data, encode_trial_data
from .errors import ConfigError, ShapeError

POLICIES = ("reservoir_standard", "reservoir_paper_literal", "class_balanced")

_MEMORY_MAGIC = b"EEGM"
_MEMORY_VERSION = 1
_MEMORY_HEADER = struct.Struct("<4sHIQBIHI")
# magic, version, capacity, seen, policy code, n_entries, channels, timepoints
_ENTRY_PREFIX = struct.Struct("<IIB")  # subject_id, timestamp, class_label


class ReplayMemory:
    """Bounded exemplar buffer; at most `capacity` labeled trials."""

    def __init__(self, capacity: int, policy: str = "reservoir_standard", seed: int = 0):
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}, expected one of {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.entries: list = []
        self.seen = 0
        self._rng = random.Random(seed)
        self._keys = set()
        self._shape = None

    def __len__(self) -> int:
        return len(self.entries)

    def _check_entry(self, entry: LabeledTrial):
        if self._shape is None:
            self._shape = entry.trial.shape
        elif entry.trial.shape != self._shape:
            raise ShapeError(
                f"entry shape {entry.trial.shape} does not match "
                f"memory shape {self._shape}"
            )
        key = (entry.subject_id, entry.timestamp)
        if key in self._keys:
            raise ValueError(f"exemplar {key} is already in memory")
        return key

    def offer(self, entry: LabeledTrial) -> bool:
        """Offer one streamed item; returns whether it was stored.

        Free space is always filled in arrival order. Once full, the
        configured reservoir policy decides replacement; see the module
        docstring for the two probability rules.
        """
        if self.policy == "class_balanced":
            raise ConfigError(
                "offer() requires a reservoir policy; "
                "use store_class_balanced with policy='class_balanced'"
            )
        key = self._check_entry(entry)
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

    def offer_many(self, entries) -> int:
        """Offer a sequence of items; returns how many were stored.

        Same semantics as repeated offer(), with the per-call overhead
        hoisted out of the loop so large synthetic streams stay cheap.
        """
        if self.policy == "class_balanced":
            raise ConfigError(
                "offer_many() requires a reservoir policy; "
                "use store_class_balanced with policy='class_balanced'"
            )
        stored_list = self.entries
        keys = self._keys
        rand = self._rng.random
        randrange = self._rng.randrange
        capacity = self.capacity
        standard = self.policy == "reservoir_standard"
        seen = self.seen
        accepted = 0
        shape = self._shape
        for entry in entries:
            if shape is None:
                shape = self._shape = entry.trial.shape
            elif entry.trial.shape != shape:
                self.seen = seen
                raise ShapeError(
                    f"entry shape {entry.trial.shape} does not match "
                    f"memory shape {shape}"
                )
            key = (entry.subject_id, entry.timestamp)
            if key in keys:
                self.seen = seen
                raise ValueError(f"exemplar {key} is already in memory")
            seen += 1
            if capacity == 0:
                continue
            if len(stored_list) < capacity:
                stored_list.append(entry)
                keys.add(key)
                accepted += 1
                continue
            p = capacity / seen if standard else 0.5
            if rand() < p:
                slot = randrange(capacity)
                old = stored_list[slot]
                keys.discard((old.subject_id, old.timestamp))
                stored_list[slot] = entry
                keys.add(key)
                accepted += 1
        self.seen = seen
        return accepted

    def snapshot(self) -> tuple:
        """Immutable copy of the current contents, in storage order."""
        return tuple(self.entries)

    def class_counts(self) -> dict:
        counts: dict = {}
        for e in self.entries:
            counts[e.class_label] = counts.get(e.class_label, 0) + 1
        return counts


def store_class_balanced(
    memory: ReplayMemory, dataset: SubjectDataset, per_class: int, rng
) -> int:
    """Store up to `per_class` training trials per class from one subject.

    Selection is uniform without replacement using the rng argument (an int
    seed or a numpy Generator); chosen trials are appended in class order,
    each class's picks sorted by timestamp. If the additions overflow
    capacity, entries are evicted one at a time — uniformly at random, via
    the memory's own rng, among the entries of the oldest subject still
    present — until everything fits.
    """
    if memory.policy != "class_balanced":
        raise ConfigError(
            f"store_class_balanced requires policy 'class_balanced', "
            f"got {memory.policy!r}"
        )
    if per_class < 0:
        raise ConfigError(f"per_class must be >= 0, got {per_class}")
    rng = np.random.default_rng(rng)
    train = dataset.trials_for(Split.TRAIN)
    by_class: dict = {}
    for t in train:
        by_class.setdefault(t.class_label, []).append(t)
    chosen = []
    for label in sorted(by_class):
        pool = by_class[label]
        k = min(per_class, len(pool))
        picks = rng.choice(len(pool), size=k, replace=False)
        chosen.extend(pool[i] for i in sorted(int(i) for i in picks))
    stored = 0
    for entry in chosen:
        key = memory._check_entry(entry)
        memory.seen += 1
        if memory.capacity == 0:
            continue
        while len(memory.entries) >= memory.capacity:
            _evict_from_oldest_subject(memory)
        memory.entries.append(entry)
        memory._keys.add(key)
        stored += 1
    return stored


def _evict_from_oldest_subject(memory: ReplayMemory):
    oldest = min(e.subject_id for e in memory.entries)
    slots = [i for i, e in enumerate(memory.entries) if e.subject_id == oldest]
    slot = slots[memory._rng.randrange(len(slots))]
    victim = memory.entries.pop(slot)
    memory._keys.discard((victim.subject_id, victim.timestamp))


_POLICY_CODES = {name: i for i, name in enumerate(POLICIES)}


def memory_to_bytes(memory: ReplayMemory) -> bytes:
    """Serialize buffer contents (not the RNG state) to a binary blob.

    A restored memory continues with a fresh seed, so eviction decisions
    after a checkpoint reload differ from an uninterrupted run; contents,
    counters, and policy round-trip exactly.
    """
    if memory.entries:
        c, t = memory.entries[0].trial.shape
    else:
        c, t = 0, 0
    parts = [
        _MEMORY_HEADER.pack(
            _MEMORY_MAGIC,
            _MEMORY_VERSION,
            memory.capacity,
            memory.seen,
            _POLICY_CODES[memory.policy],
            len(memory.entries),
            c,
            t,
        )
    ]
    for e in memory.entries:
        parts.append(_ENTRY_PREFIX.pack(e.subject_id, e.timestamp, e.class_label))
        parts.append(encode_trial_data(e.trial))
    return b"".join(parts)


def memory_from_bytes(buf: bytes, seed: int = 0) -> ReplayMemory:
    if len(buf) < _MEMORY_HEADER.size:
        raise ValueError("memory blob too short for header")
    magic, version, capacity, seen, code, n_entries, c, t = _MEMORY_HEADER.unpack_from(buf, 0)
    if magic != _MEMORY_MAGIC:
        raise ValueError(f"bad memory blob magic {magic!r}")
    if version != _MEMORY_VERSION:
        raise ValueError(f"unsupported memory blob version {version}")
    policy = POLICIES[code] if code < len(POLICIES) else None
    if policy is None:
        raise ValueError(f"unknown policy code {code}")
    if n_entries > capacity:
        raise ValueError(f"memory blob holds {n_entries} entries, over its capacity {capacity}")
    if seen < n_entries:
        raise ValueError(f"memory blob holds {n_entries} entries but has seen only {seen}")
    memory = ReplayMemory(capacity=capacity, policy=policy, seed=seed)
    offset = _MEMORY_HEADER.size
    record = _ENTRY_PREFIX.size + 4 * c * t
    expected = _MEMORY_HEADER.size + n_entries * record
    if len(buf) != expected:
        raise ValueError(f"memory blob length {len(buf)} != expected {expected}")
    for _ in range(n_entries):
        subject_id, timestamp, label = _ENTRY_PREFIX.unpack_from(buf, offset)
        if (subject_id, timestamp) in memory._keys:
            raise ValueError(
                f"memory blob holds subject {subject_id} timestamp {timestamp} twice"
            )
        offset += _ENTRY_PREFIX.size
        data = decode_trial_data(buf, offset, c, t)
        offset += 4 * c * t
        entry = LabeledTrial(
            trial=data, class_label=label, subject_id=subject_id, timestamp=timestamp
        )
        memory.entries.append(entry)
        memory._keys.add((subject_id, timestamp))
        memory._shape = (c, t)
    memory.seen = seen
    return memory
