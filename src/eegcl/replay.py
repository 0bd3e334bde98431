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
`seen`, the n of B/n, counts every item taken, also by an offer that raised.

memory_to_bytes and memory_from_bytes write and read the EEGM format, which
only this module knows: a packed header dtype, then one packed record dtype
per exemplar. MemoryConfig and LabeledTrial hold each value to its EEGM
width, and a trial to data.TRIAL_SAMPLES_LIMIT samples, so every memory
encodes; the decoder checks only header and length.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import COUNT_LIMIT, TRIAL_SAMPLES_LIMIT, LabeledTrial, Split, SubjectDataset
from .errors import ConfigError, ShapeError, check_fields, integer, one_of

POLICIES = ("reservoir_standard", "reservoir_paper_literal", "class_balanced")

_MEMORY_MAGIC = b"EEGM"
_MEMORY_VERSION = 1
# A memory blob's header, packed; a raw V4 magic keeps trailing NULs.
_MEMORY_HEADER = np.dtype([("magic", "V4"), ("version", "<u2"), ("capacity", "<u4"),
                           ("seen", "<u8"), ("policy", "u1"), ("n_entries", "<u4"),
                           ("n_channels", "<u2"), ("n_timepoints", "<u4")])


@dataclass(frozen=True)
class MemoryConfig:
    capacity: int = 160
    per_class: int = 10
    policy: str = "class_balanced"

    RULES = {"capacity": integer(0, COUNT_LIMIT), "per_class": integer(0),
             "policy": one_of(POLICIES)}

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
        subject and appends. A bad entry, or the iterable, raises after every
        earlier entry was inserted and counted in seen. The checks are
        inline, since a call per item costs ~10%.
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
        try:
            for entry in entries:
                if shape is None:
                    shape = self._shape = entry.trial.shape
                elif entry.trial.shape != shape:
                    raise ShapeError(
                        f"entry shape {entry.trial.shape} does not match "
                        f"memory shape {shape}"
                    )
                key = (entry.subject_id, entry.timestamp)
                if key in keys:
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
        finally:
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


def _record_dtype(c: int, t: int) -> np.dtype:
    """One exemplar record of an EEGM blob, packed: subject_id, timestamp
    and class_label, then the samples."""
    return np.dtype([
        ("subject_id", "<u4"), ("timestamp", "<u4"), ("class_label", "u1"),
        ("trial", "<f4", (c, t)),
    ])


def memory_to_bytes(memory: ReplayMemory) -> bytes:
    """Serialize buffer contents (not the RNG state) to a binary blob: the
    header, then one _record_dtype record per exemplar in storage order.
    Every memory encodes: MemoryConfig holds its capacity, and LabeledTrial
    each exemplar's ids and dimensions, to the widths of their fields.

    A restored memory continues with a fresh seed, so eviction decisions
    after a checkpoint reload differ from an uninterrupted run; contents,
    counters, and policy round-trip exactly.
    """
    entries = memory.entries
    c, t = entries[0].trial.shape if entries else (0, 0)
    header = np.array((_MEMORY_MAGIC, _MEMORY_VERSION, memory.capacity, memory.seen,
                       POLICIES.index(memory.policy), len(entries), c, t), _MEMORY_HEADER)
    records = np.empty(len(entries), _record_dtype(c, t))
    for name in records.dtype.names:  # a LabeledTrial's fields, as named
        records[name] = [getattr(e, name) for e in entries]
    return header.tobytes() + records.tobytes()


def memory_from_bytes(buf: bytes, seed: int = 0) -> ReplayMemory:
    """Inverse of memory_to_bytes; any malformed blob is a ValueError. Only
    the header (a trial of at most TRIAL_SAMPLES_LIMIT samples) and length
    are checked here: LabeledTrial and _insert check each exemplar."""
    if len(buf) < _MEMORY_HEADER.itemsize:
        raise ValueError("memory blob too short for header")
    magic, version, capacity, seen, code, n_entries, c, t = (
        np.frombuffer(buf, _MEMORY_HEADER, 1)[0].item())
    if magic != _MEMORY_MAGIC:
        raise ValueError(f"bad memory blob magic {magic!r}")
    if version != _MEMORY_VERSION:
        raise ValueError(f"unsupported memory blob version {version}")
    if code >= len(POLICIES):
        raise ValueError(f"unknown policy code {code}")
    if n_entries > capacity:
        raise ValueError(f"memory blob holds {n_entries} entries, over its capacity {capacity}")
    if seen < n_entries:
        raise ValueError(f"memory blob holds {n_entries} entries but has seen only {seen}")
    # Its record dtype builds (t counts alone at 0 channels); empty memories encode 0x0.
    if max(t, c * t) > TRIAL_SAMPLES_LIMIT or n_entries and not c * t:
        raise ValueError(f"memory blob holds {n_entries} entries of invalid dimensions {c}x{t}")
    record = _record_dtype(c, t)
    expected = _MEMORY_HEADER.itemsize + n_entries * record.itemsize
    if len(buf) != expected:
        raise ValueError(f"memory blob length {len(buf)} != expected {expected}")
    memory = ReplayMemory(capacity=capacity, policy=POLICIES[code], seed=seed)
    records = np.frombuffer(buf, record, n_entries, _MEMORY_HEADER.itemsize)
    fields = (records[n].tolist() for n in ("class_label", "subject_id", "timestamp"))
    memory._insert(LabeledTrial(*entry) for entry in zip(records["trial"], *fields))
    memory.seen = seen
    return memory
