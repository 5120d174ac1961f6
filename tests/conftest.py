from __future__ import annotations

import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest

from crashcast.sequencer import EventSequence, SeqEvent

BASE = datetime(2021, 3, 1, tzinfo=timezone.utc)


def at_day(day: float, base: datetime = BASE) -> datetime:
    return base + timedelta(days=day)


def sequence_of(system_id: str, day_kinds) -> EventSequence:
    """Build a sequence from (day offset, kind) pairs at the shared base date."""
    return EventSequence.of(system_id, (SeqEvent(at_day(day), kind) for day, kind in day_kinds))


def transient_peak(fn, *args):
    """fn(*args), and how many bytes the call's traced peak rose above what it left allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


@pytest.fixture
def stub_server():
    from stubserver import StubServer

    server = StubServer().start()
    yield server
    server.stop()
