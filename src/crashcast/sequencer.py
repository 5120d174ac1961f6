"""Per-system chronological event sequences, their pairs and their windows.

A corpus becomes one strictly increasing (time, kind) sequence per system.
Identical instants are resolved deterministically: the colliding group is
ordered by kind, then each later event is pushed forward one second.
A pair is a reference to one event of a sequence and the history before
it. Sequences partition losslessly into abutting windows of whole days,
aligned to midnight UTC of each system's first crash; how a window is
written to windows.jsonl and read back is pipeline's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, NamedTuple

from .errors import ConfigError, IndexOutOfRange
from .ingest import CrashCorpus

TIE_STEP = timedelta(seconds=1)


class SeqEvent(NamedTuple):
    time: datetime
    kind: str


@dataclass(frozen=True)
class EventSequence:
    """All crashes of one system, times strictly increasing."""

    system_id: str
    events: tuple[SeqEvent, ...]

    def __post_init__(self):
        for earlier, later in zip(self.events, self.events[1:]):
            if later.time <= earlier.time:
                raise ValueError(f"times not strictly increasing for {self.system_id}")


@dataclass(frozen=True, slots=True)
class LabeledPair:
    """The event at a 1-based index of a sequence, and the history before it."""

    sequence: EventSequence
    index: int

    def __post_init__(self):
        if not (type(self.index) is int and 1 <= self.index <= len(self.sequence.events)):
            raise IndexOutOfRange(
                f"index {self.index!r} outside 1..{len(self.sequence.events)}"
                f" for {self.sequence.system_id}"
            )

    @property
    def system_id(self) -> str:
        return self.sequence.system_id

    @property
    def history(self) -> tuple[SeqEvent, ...]:
        return self.sequence.events[: self.index - 1]

    @property
    def target(self) -> SeqEvent:
        return self.sequence.events[self.index - 1]


def build_sequences(corpus: CrashCorpus) -> list[EventSequence]:
    """One sequence per distinct system, each sorted ascending by time.

    Result is sorted by system_id. Timestamp ties are broken by ordering
    the collided group lexicographically by kind and displacing each
    subsequent event forward by one second.
    """
    by_system: dict[str, list[SeqEvent]] = {}
    new = tuple.__new__
    for system_id, time, kind, _, _ in corpus.events:
        by_system.setdefault(system_id, []).append(new(SeqEvent, (time, kind)))

    sequences = []
    for system_id in sorted(by_system):
        events = sorted(by_system[system_id])  # a SeqEvent sorts by (time, kind)
        shifted: list[SeqEvent] = []
        for event in events:
            if shifted and event.time <= shifted[-1].time:
                event = SeqEvent(shifted[-1].time + TIE_STEP, event.kind)
            shifted.append(event)
        sequences.append(EventSequence(system_id=system_id, events=tuple(shifted)))
    return sequences


def enumerate_pairs(sequences: Iterable[EventSequence]) -> list[LabeledPair]:
    """Every pair with a non-empty history.

    Deterministic order: sequences as given (sorted by system upstream),
    indices ascending.
    """
    return [LabeledPair(seq, i) for seq in sequences for i in range(2, len(seq.events) + 1)]


def day_floor(ts: datetime) -> datetime:
    return ts.replace(hour=0, minute=0, second=0, microsecond=0)


def window_index_of(ts: datetime, origin: datetime, width_days: int) -> int:
    return (ts - origin) // timedelta(days=width_days)


def partition_windows(seq: EventSequence, width_days: int) -> list[list[SeqEvent]]:
    """A sequence's events in abutting windows of whole days, one list per window.

    The list index is the window index. Window 0 starts at midnight UTC of
    the first event's day; empty windows between occupied ones are emitted
    so indices are contiguous.
    """
    if width_days < 1:
        raise ConfigError(f"window width must be at least 1 day, got {width_days}")
    if not seq.events:
        return []
    origin = day_floor(seq.events[0].time)
    width = timedelta(days=width_days)
    windows: list[list[SeqEvent]] = [[] for _ in range((seq.events[-1].time - origin) // width + 1)]
    for event in seq.events:
        windows[(event.time - origin) // width].append(event)
    return windows
