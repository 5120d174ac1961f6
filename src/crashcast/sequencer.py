"""Per-system chronological event sequences and fixed-width time windows.

A corpus becomes one strictly increasing (time, kind) sequence per system.
Identical instants are resolved deterministically: the colliding group is
ordered by kind, then each later event is pushed forward one second.
Sequences partition losslessly into abutting windows of whole days,
aligned to midnight UTC of each system's first crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, NamedTuple, Sequence

from .errors import BadWidth, IndexOutOfRange
from .ingest import CrashCorpus, format_timestamp, parse_timestamp

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

    def __len__(self) -> int:
        return len(self.events)


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


@dataclass(frozen=True)
class TimeWindow:
    start: datetime
    width_days: int
    index: int


@dataclass(frozen=True)
class WindowedSequence:
    """One window's slice of a sequence, split into parallel time/cause lists."""

    system_id: str
    window: TimeWindow
    time_sequence: tuple[datetime, ...]
    cause_sequence: tuple[str, ...]

    def __post_init__(self):
        if len(self.time_sequence) != len(self.cause_sequence):
            raise ValueError("time and cause sequences must be parallel")


def build_sequences(corpus: CrashCorpus) -> list[EventSequence]:
    """One sequence per distinct system, each sorted ascending by time.

    Result is sorted by system_id. Timestamp ties are broken by ordering
    the collided group lexicographically by kind and displacing each
    subsequent event forward by one second.
    """
    by_system: dict[str, list[SeqEvent]] = {}
    for event in corpus.events:
        by_system.setdefault(event.system_id, []).append(SeqEvent(event.time, event.kind))

    sequences = []
    for system_id in sorted(by_system):
        events = sorted(by_system[system_id], key=lambda e: (e.time, e.kind))
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


def partition_windows(seq: EventSequence, width_days: int) -> list[WindowedSequence]:
    """Partition a sequence into abutting windows of whole days.

    Window 0 starts at midnight UTC of the first event's day; empty windows
    between occupied ones are emitted so indices are contiguous.
    """
    if width_days < 1:
        raise BadWidth(f"window width must be at least 1 day, got {width_days}")
    if not seq.events:
        return []

    origin = day_floor(seq.events[0].time)
    width = timedelta(days=width_days)
    last_index = window_index_of(seq.events[-1].time, origin, width_days)

    buckets: dict[int, list[SeqEvent]] = {i: [] for i in range(last_index + 1)}
    for event in seq.events:
        buckets[window_index_of(event.time, origin, width_days)].append(event)

    windows = []
    for index in range(last_index + 1):
        events = buckets[index]
        windows.append(
            WindowedSequence(
                system_id=seq.system_id,
                window=TimeWindow(start=origin + index * width, width_days=width_days, index=index),
                time_sequence=tuple(e.time for e in events),
                cause_sequence=tuple(e.kind for e in events),
            )
        )
    return windows


# serialized form: one JSON record per system per window

def windows_to_lines(windows: Iterable[WindowedSequence]) -> list[str]:
    lines = []
    for w in windows:
        lines.append(
            json.dumps(
                {
                    "system_id": w.system_id,
                    "window_index": w.window.index,
                    "window_start": format_timestamp(w.window.start),
                    "width_days": w.window.width_days,
                    "times": [format_timestamp(t) for t in w.time_sequence],
                    "causes": list(w.cause_sequence),
                },
                ensure_ascii=False,
            )
        )
    return lines


def window_from_record(obj: dict) -> WindowedSequence:
    """The inverse of one windows_to_lines record, already JSON-decoded."""
    return WindowedSequence(
        system_id=obj["system_id"],
        window=TimeWindow(
            start=parse_timestamp(obj["window_start"]),
            width_days=obj["width_days"],
            index=obj["window_index"],
        ),
        time_sequence=tuple(parse_timestamp(t) for t in obj["times"]),
        cause_sequence=tuple(obj["causes"]),
    )


def sequences_from_windows(windows: Sequence[WindowedSequence]) -> list[EventSequence]:
    """Rebuild full sequences by concatenating windows in index order (lossless)."""
    by_system: dict[str, list[WindowedSequence]] = {}
    for w in windows:
        by_system.setdefault(w.system_id, []).append(w)

    sequences = []
    for system_id in sorted(by_system):
        events: list[SeqEvent] = []
        for w in sorted(by_system[system_id], key=lambda w: w.window.index):
            events.extend(SeqEvent(t, k) for t, k in zip(w.time_sequence, w.cause_sequence))
        sequences.append(EventSequence(system_id=system_id, events=tuple(events)))
    return sequences
