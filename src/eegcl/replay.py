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
RNG so buffer contents never depend on model or training seeds. A
strategy's MemoryConfig states the rules the memory checks its arguments by.

memory_to_bytes and memory_from_bytes write and read the EEGM format, which
only this module knows: a header, then one packed structured-dtype record
per exemplar.
"""

from __future__ import annotations

import random
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import LabeledTrial, Split, SubjectDataset
from .errors import ConfigError, ShapeError, check_fields, integer, one_of

POLICIES = ("reservoir_standard", "reservoir_paper_literal", "class_balanced")

_MEMORY_MAGIC = b"EEGM"
_MEMORY_VERSION = 1
_MEMORY_HEADER = struct.Struct("<4sHIQBIHI")
# magic, version, capacity, seen, policy code, n_entries, channels, timepoints
_ENTRY_LIMITS = (("subject_id", 2**32 - 1), ("timestamp", 2**32 - 1), ("class_label", 255))
_CAPACITY_LIMIT = 2**32 - 1
_CHANNEL_LIMIT = 0xFFFF


@dataclass(frozen=True)
class MemoryConfig:
    capacity: int = 160
    per_class: int = 10
    policy: str = "class_balanced"

    RULES = {"capacity": integer(0), "per_class": integer(0), "policy": one_of(POLICIES)}

    def __post_init__(self):
        check_fields(self, "memory", self.RULES)


class ReplayMemory:
    """Bounded exemplar buffer: at most `capacity` labeled trials of one
    shape, each (subject_id, timestamp) key at most once. offer_many inserts
    under the reservoir policies, store_class_balanced under class_balanced,
    both through _insert."""

    def __init__(self, capacity: int, policy: str = "reservoir_standard", seed: int = 0):
        MemoryConfig.RULES["capacity"].check(capacity, "memory capacity")
        MemoryConfig.RULES["policy"].check(policy, "memory policy")
        self.capacity = capacity
        self.policy = policy
        self.entries: list = []
        self.seen = 0
        self._rng = random.Random(seed)
        self._keys = set()
        self._shape = None

    def __len__(self) -> int:
        return len(self.entries)

    def offer_many(self, entries) -> int:
        """Offer streamed items in order under a reservoir policy; returns
        how many were stored (see _insert)."""
        if self.policy == "class_balanced":
            raise ConfigError(
                "offer_many() requires a reservoir policy; "
                "use store_class_balanced with policy='class_balanced'"
            )
        return self._insert(entries)

    def _insert(self, entries) -> int:
        """The memory's one insertion loop; returns how many entries were
        stored.

        Free slots fill in arrival order. Once full, a reservoir policy draws
        one random() per entry against its replacement probability (module
        docstring) and, if accepted, a randrange for the slot it overwrites;
        class_balanced evicts a randrange-drawn exemplar of the oldest
        subject and appends. A bad entry raises after every earlier one was
        inserted. The checks are inline, since a call per item costs ~10%.
        """
        stored_list = self.entries
        keys = self._keys
        rand = self._rng.random
        randrange = self._rng.randrange
        capacity = self.capacity
        standard = self.policy == "reservoir_standard"
        balanced = self.policy == "class_balanced"
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
            elif balanced:
                # this branch only appends, so entry 0 is the oldest subject's
                oldest = stored_list[0].subject_id
                slots = [i for i, e in enumerate(stored_list) if e.subject_id == oldest]
                old = stored_list.pop(slots[randrange(len(slots))])
                keys.discard((old.subject_id, old.timestamp))
                stored_list.append(entry)
            elif rand() < (capacity / seen if standard else 0.5):
                slot = randrange(capacity)
                old = stored_list[slot]
                keys.discard((old.subject_id, old.timestamp))
                stored_list[slot] = entry
            else:
                continue
            keys.add(key)
            accepted += 1
        self.seen = seen
        return accepted

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
    seed or a numpy Generator); the chosen trials go to the memory's
    insertion loop in class order, each class's picks sorted by timestamp, so that overflow
    evicts from the oldest subject.
    """
    if memory.policy != "class_balanced":
        raise ConfigError(
            f"store_class_balanced requires policy 'class_balanced', "
            f"got {memory.policy!r}"
        )
    MemoryConfig.RULES["per_class"].check(per_class, "memory per_class")
    rng = np.random.default_rng(rng)
    train = np.flatnonzero(dataset.split == Split.TRAIN)
    labels = dataset.labels[train]
    chosen = []
    for label in sorted(set(labels.tolist())):
        pool = train[labels == label]
        picks = rng.choice(len(pool), size=min(per_class, len(pool)), replace=False)
        chosen.extend(pool[np.sort(picks)])
    return memory._insert(dataset.trials_at(chosen))


_POLICY_CODES = {name: i for i, name in enumerate(POLICIES)}


def _record_dtype(c: int, t: int) -> np.dtype:
    """One exemplar record of an EEGM blob, packed: the fields of
    _ENTRY_LIMITS, then the samples."""
    return np.dtype([
        ("subject_id", "<u4"), ("timestamp", "<u4"), ("class_label", "u1"),
        ("trial", "<f4", (c, t)),
    ])


_RECORD_PREFIX = _record_dtype(0, 0).itemsize  # bytes of an exemplar record before its samples


def memory_to_bytes(memory: ReplayMemory) -> bytes:
    """Serialize buffer contents (not the RNG state) to a binary blob: the
    header, then one _record_dtype record per exemplar in storage order.
    A capacity above 2**32 - 1, exemplars of more than 65535 channels, or
    an exemplar whose subject_id or timestamp exceeds 2**32 - 1 or whose
    class_label exceeds 255, is a ValueError.

    A restored memory continues with a fresh seed, so eviction decisions
    after a checkpoint reload differ from an uninterrupted run; contents,
    counters, and policy round-trip exactly.
    """
    if memory.capacity > _CAPACITY_LIMIT:
        raise ValueError(f"memory capacity {memory.capacity} is above EEGM's {_CAPACITY_LIMIT}")
    entries = memory.entries
    c, t = entries[0].trial.shape if entries else (0, 0)
    if c > _CHANNEL_LIMIT:
        raise ValueError(f"exemplar channels {c} is above EEGM's {_CHANNEL_LIMIT}")
    header = _MEMORY_HEADER.pack(
        _MEMORY_MAGIC, _MEMORY_VERSION, memory.capacity, memory.seen,
        _POLICY_CODES[memory.policy], len(entries), c, t,
    )
    if not entries:
        return header
    records = np.empty(len(entries), _record_dtype(c, t))
    for name, top in _ENTRY_LIMITS:
        values = np.array([getattr(e, name) for e in entries])
        over = values > top
        if over.any():
            raise ValueError(f"exemplar {name} {values[over.argmax()]} is above EEGM's {top}")
        records[name] = values
    records["trial"] = [e.trial for e in entries]
    return header + records.tobytes()


def memory_from_bytes(buf: bytes, seed: int = 0) -> ReplayMemory:
    """Inverse of memory_to_bytes; any malformed blob is a ValueError."""
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
    # In Python integers: only a record that fits in buf is sure to fit in a dtype.
    expected = _MEMORY_HEADER.size + n_entries * (_RECORD_PREFIX + 4 * c * t)
    if len(buf) != expected:
        raise ValueError(f"memory blob length {len(buf)} != expected {expected}")
    memory = ReplayMemory(capacity=capacity, policy=policy, seed=seed)
    if n_entries:
        records = np.frombuffer(buf, _record_dtype(c, t), n_entries, _MEMORY_HEADER.size)
        if not np.isfinite(records["trial"]).all():
            raise ValueError("memory blob holds non-finite samples")
        keys = np.sort(records["subject_id"].astype(np.uint64) << 32 | records["timestamp"])
        twice = keys[1:][keys[1:] == keys[:-1]]
        if twice.size:
            key = int(twice[0])
            raise ValueError(f"memory blob holds exemplar {(key >> 32, key & 0xFFFFFFFF)} twice")
        fields = (records[n].tolist() for n in ("class_label", "subject_id", "timestamp"))
        memory._insert(LabeledTrial(*entry) for entry in zip(records["trial"], *fields))
    memory.seen = seen
    return memory
