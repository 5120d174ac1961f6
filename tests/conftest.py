from __future__ import annotations

import os
import tracemalloc
from array import array
from datetime import datetime, timedelta, timezone

import pytest

from crashcast.ingest import seconds_of
from crashcast.sequencer import EventSequence

BASE = datetime(2021, 3, 1, tzinfo=timezone.utc)


def _stop_tracing() -> None:
    if tracemalloc.is_tracing():
        tracemalloc.stop()


# a memory test measures the process it runs in: a stage writer it forks would only be slowed
# by tracing every allocation it makes, which the test never reads
os.register_at_fork(after_in_child=_stop_tracing)


def at_day(day: float, base: datetime = BASE) -> datetime:
    return base + timedelta(days=day)


def seconds_at(day: float, base: datetime = BASE) -> int:
    """The UTC epoch seconds of a day offset from base, floored to the second."""
    return seconds_of(at_day(day, base))


def sequence_at(system_id: str, time_kinds) -> EventSequence:
    """Build a sequence from (UTC epoch seconds, kind) pairs."""
    times, kinds = [*zip(*time_kinds)] or [(), ()]
    return EventSequence(system_id, array("q", times), tuple(kinds))


def sequence_of(system_id: str, day_kinds) -> EventSequence:
    """Build a sequence from (day offset, kind) pairs at the shared base date."""
    return sequence_at(system_id, [(seconds_at(day), kind) for day, kind in day_kinds])


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


@pytest.fixture
def keep_alive_stub():
    """A stub that speaks HTTP/1.1; the test thread's kept-alive connection is closed after."""
    from stubserver import StubServer

    from crashcast.predictor import close_connections

    server = StubServer(keep_alive=True).start()
    yield server
    close_connections()
    server.stop()
