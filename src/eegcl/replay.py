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
from collections import Counter

import numpy as np

from .data import LabeledTrial, Split, SubjectDataset, decode_trial_data, encode_trial_data
from .errors import ConfigError, ShapeError, integer, one_of

POLICIES = ("reservoir_standard", "reservoir_paper_literal", "class_balanced")
# The memory's field rules, also harness.MemoryConfig's rule table.
MEMORY_RULES = {"capacity": integer(0), "per_class": integer(0), "policy": one_of(POLICIES)}

_MEMORY_MAGIC = b"EEGM"
_MEMORY_VERSION = 1
_MEMORY_HEADER = struct.Struct("<4sHIQBIHI")
# magic, version, capacity, seen, policy code, n_entries, channels, timepoints
_ENTRY_PREFIX = struct.Struct("<IIB")  # subject_id, timestamp, class_label
_ENTRY_LIMITS = (("subject_id", 2**32 - 1), ("timestamp", 2**32 - 1), ("class_label", 255))
_CAPACITY_LIMIT = 2**32 - 1


class ReplayMemory:
    """Bounded exemplar buffer: at most `capacity` labeled trials of one
    shape, each (subject_id, timestamp) key at most once. offer_many inserts
    under the reservoir policies, store under class_balanced."""

    def __init__(self, capacity: int, policy: str = "reservoir_standard", seed: int = 0):
        MEMORY_RULES["capacity"].check(capacity, "memory capacity")
        MEMORY_RULES["policy"].check(policy, "memory policy")
        self.capacity = capacity
        self.policy = policy
        self.entries: list = []
        self.seen = 0
        self._rng = random.Random(seed)
        self._keys = set()
        self._shape = None

    def __len__(self) -> int:
        return len(self.entries)

    def _check_entry(self, entry: LabeledTrial) -> tuple:
        """Check an entry against the memory's shape and keys; returns its key."""
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

    def offer_many(self, entries) -> int:
        """Offer streamed items in order; returns how many were stored.

        Free slots fill in arrival order. Once full, each offer draws one
        random() against the policy's replacement probability (module
        docstring) and, if accepted, a randrange for its slot. A bad entry
        raises after every earlier one was offered; the loop inlines
        _check_entry, since a call per item costs ~10% more.
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

    def store(self, entries) -> int:
        """Store every entry, in order; returns how many were stored. While
        the memory is full, one entry is evicted, uniformly at random via
        the memory's own rng, among those of the oldest subject still
        present. This is the class_balanced policy's insertion."""
        stored = 0
        for entry in entries:
            key = self._check_entry(entry)
            self.seen += 1
            if self.capacity == 0:
                continue
            while len(self.entries) >= self.capacity:
                self._evict_from_oldest_subject()
            self.entries.append(entry)
            self._keys.add(key)
            stored += 1
        return stored

    def _evict_from_oldest_subject(self):
        # store appends, so entries stay in arrival order whatever the ids
        oldest = self.entries[0].subject_id
        slots = [i for i, e in enumerate(self.entries) if e.subject_id == oldest]
        victim = self.entries.pop(slots[self._rng.randrange(len(slots))])
        self._keys.discard((victim.subject_id, victim.timestamp))

    def restore(self, entries, seen: int):
        """Put a saved memory's entries (in storage order) and seen back."""
        self.store(entries)
        self.seen = seen

    def snapshot(self) -> tuple:
        """Immutable copy of the current contents, in storage order."""
        return tuple(self.entries)

    def class_counts(self) -> dict:
        return dict(Counter(e.class_label for e in self.entries))


def store_class_balanced(
    memory: ReplayMemory, dataset: SubjectDataset, per_class: int, rng
) -> int:
    """Store up to `per_class` training trials per class from one subject.

    Selection is uniform without replacement using the rng argument (an int
    seed or a numpy Generator); the chosen trials go to memory.store in
    class order, each class's picks sorted by timestamp, so that overflow
    evicts from the oldest subject.
    """
    if memory.policy != "class_balanced":
        raise ConfigError(
            f"store_class_balanced requires policy 'class_balanced', "
            f"got {memory.policy!r}"
        )
    MEMORY_RULES["per_class"].check(per_class, "memory per_class")
    rng = np.random.default_rng(rng)
    train = np.flatnonzero(dataset.split == Split.TRAIN)
    labels = dataset.labels[train]
    chosen = []
    for label in sorted(set(labels.tolist())):
        pool = train[labels == label]
        picks = rng.choice(len(pool), size=min(per_class, len(pool)), replace=False)
        chosen.extend(pool[np.sort(picks)])
    return memory.store(dataset.trials_at(chosen))


_POLICY_CODES = {name: i for i, name in enumerate(POLICIES)}


def memory_to_bytes(memory: ReplayMemory) -> bytes:
    """Serialize buffer contents (not the RNG state) to a binary blob.
    A capacity above 2**32 - 1, or an exemplar whose subject_id or
    timestamp exceeds 2**32 - 1 or whose class_label exceeds 255, is a
    ValueError.

    A restored memory continues with a fresh seed, so eviction decisions
    after a checkpoint reload differ from an uninterrupted run; contents,
    counters, and policy round-trip exactly.
    """
    if memory.capacity > _CAPACITY_LIMIT:
        raise ValueError(f"memory capacity {memory.capacity} is above EEGM's {_CAPACITY_LIMIT}")
    c, t = memory.entries[0].trial.shape if memory.entries else (0, 0)
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
        for name, top in _ENTRY_LIMITS:
            if getattr(e, name) > top:
                raise ValueError(f"exemplar {name} {getattr(e, name)} is above EEGM's {top}")
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
    if n_entries and (c < 1 or t < 1):
        raise ValueError(f"memory blob holds {n_entries} entries of invalid dimensions {c}x{t}")
    record = _ENTRY_PREFIX.size + 4 * c * t
    expected = _MEMORY_HEADER.size + n_entries * record
    if len(buf) != expected:
        raise ValueError(f"memory blob length {len(buf)} != expected {expected}")
    entries = []
    for offset in range(_MEMORY_HEADER.size, expected, record):
        subject_id, timestamp, label = _ENTRY_PREFIX.unpack_from(buf, offset)
        data = decode_trial_data(buf, offset + _ENTRY_PREFIX.size, c, t)
        entries.append(LabeledTrial(
            trial=data, class_label=label, subject_id=subject_id, timestamp=timestamp
        ))
    memory = ReplayMemory(capacity=capacity, policy=policy, seed=seed)
    try:
        memory.restore(entries, seen)
    except ValueError as exc:  # the only check left: a key stored twice
        raise ValueError(f"memory blob holds an exemplar twice: {exc}") from exc
    return memory
