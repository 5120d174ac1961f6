"""Per-system chronological event sequences, their pairs and their windows.

A corpus becomes one strictly increasing sequence per system: two columns,
its events' UTC epoch seconds, as ingest gives them, in an array and the
shared kind strings, no object per event: a sequence is sliced, never
indexed, and each reader takes its columns. Identical instants are resolved
deterministically: the colliding group is ordered by kind, then each later
event is pushed forward one second. A pair is one event of a sequence and
the history before it. Sequences partition losslessly into abutting
whole-day windows from midnight UTC of each system's first crash, each an
index range; windows.jsonl's format is pipeline's contract.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter, lt
from typing import Iterable

from .errors import ConfigError, IndexOutOfRange
from .ingest import DAY, CrashCorpus


@dataclass(frozen=True)
class EventSequence:
    """All crashes of one system: times, UTC epoch seconds strictly increasing, and kinds."""

    system_id: str
    times: array
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.times) != len(self.kinds):
            raise ValueError(f"times and kinds not parallel for {self.system_id}")
        if not all(map(lt, self.times, self.times[1:])):
            raise ValueError(f"times not strictly increasing for {self.system_id}")

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, key: slice) -> EventSequence:
        """A step-1 slice's events, unchecked: part of an increasing sequence increases. An
        event is read from the columns, so any other key raises TypeError."""
        if not isinstance(key, slice):
            raise TypeError(f"a sequence is sliced, not indexed: {key!r}")
        part = object.__new__(EventSequence)
        part.__dict__.update(system_id=self.system_id, times=self.times[key], kinds=self.kinds[key])
        return part


@dataclass(frozen=True, slots=True)
class LabeledPair:
    """The event at a 1-based index of a sequence, and the history before it."""

    sequence: EventSequence
    index: int

    def __post_init__(self):
        if not (type(self.index) is int and 1 <= self.index <= len(self.sequence)):
            raise IndexOutOfRange(
                f"index {self.index!r} outside 1..{len(self.sequence)}"
                f" for {self.sequence.system_id}"
            )

    @property
    def system_id(self) -> str:
        return self.sequence.system_id

    @property
    def history(self) -> EventSequence:
        return self.sequence[: self.index - 1]


def build_sequences(corpus: CrashCorpus) -> list[EventSequence]:
    """One sequence per distinct system, each sorted ascending by time.

    Result is sorted by system_id. Timestamp ties are broken by ordering
    the collided group lexicographically by kind and displacing each
    subsequent event forward by one second.
    """
    by_system: dict[str, list[tuple[int, str]]] = {}
    for system_id, time, kind, _, _ in corpus.events:
        by_system.setdefault(system_id, []).append((time, kind))

    sequences = []
    for system_id in sorted(by_system):
        events = sorted(by_system.pop(system_id))  # by (time, kind)
        times = array("q")
        for time, _ in events:
            times.append(time if not times or time > times[-1] else times[-1] + 1)
        sequences.append(EventSequence(system_id, times, tuple(map(itemgetter(1), events))))
    return sequences


def enumerate_pairs(sequences: Iterable[EventSequence]) -> list[LabeledPair]:
    """Every pair with a non-empty history.

    Deterministic order: sequences as given (sorted by system upstream),
    indices ascending.
    """
    return [LabeledPair(seq, i) for seq in sequences for i in range(2, len(seq) + 1)]


def day_floor(seconds: int) -> int:  # midnight UTC of the instant's day
    return seconds - seconds % DAY


def window_index_of(seconds: int, origin: int, width_days: int) -> int:
    return (seconds - origin) // (width_days * DAY)


def partition_windows(seq: EventSequence, width_days: int) -> list[tuple[int, int]]:
    """A sequence's abutting windows of whole days, each its events' (start, end) index range.

    The list index is the window index. Window 0 starts at midnight UTC of
    the first event's day; empty windows between occupied ones are emitted
    so indices are contiguous.
    """
    if width_days < 1:
        raise ConfigError(f"window width must be at least 1 day, got {width_days}")
    if not seq.times:
        return []
    origin, width = day_floor(seq.times[0]), width_days * DAY
    count = window_index_of(seq.times[-1], origin, width_days) + 1
    ends = [bisect_left(seq.times, origin + index * width) for index in range(1, count + 1)]
    return [*zip([0, *ends], ends)]
