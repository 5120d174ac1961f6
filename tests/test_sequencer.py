import json
import random
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import at_day, seconds_at, sequence_at, sequence_of
from crashcast.errors import ConfigError, IndexOutOfRange
from crashcast.ingest import DAY, CrashCorpus, CrashEvent, format_timestamp, instant_of, seconds_of
from crashcast.pipeline import (
    WINDOW_FIELDS,
    _timestamp_text,
    decode_record,
    encode_line,
    rebuild_sequences,
    windows_to_lines,
)
from crashcast.predictor import MIN_SPAN_DAYS, fit_baseline
from crashcast.prompt import render_date
from crashcast.sequencer import (
    EventSequence,
    LabeledPair,
    build_sequences,
    day_floor,
    enumerate_pairs,
    partition_windows,
    window_index_of,
)

UTC = timezone.utc


def corpus_of(*events):
    crash_events = tuple(
        CrashEvent(system_id=s, time=seconds_of(t), kind=k, bugcheck_code="0x9F")
        for s, t, k in events
    )
    return CrashCorpus(events=crash_events)


class TestBuildSequences:
    def test_groups_and_sorts_per_system(self):
        corpus = corpus_of(
            ("A", at_day(2), "x"),
            ("A", at_day(1), "y"),
            ("B", at_day(3), "z"),
        )
        sequences = build_sequences(corpus)
        assert [s.system_id for s in sequences] == ["A", "B"]
        assert [*map(instant_of, sequences[0].times)] == [at_day(1), at_day(2)]
        assert len(sequences[1]) == 1

    def test_single_system_keeps_every_event(self):
        corpus = corpus_of(*[("A", at_day(d), "x") for d in range(40)])
        (seq,) = build_sequences(corpus)
        assert len(seq) == 40

    def test_identical_instants_shift_by_one_second_in_kind_order(self):
        instant = at_day(0)
        corpus = corpus_of(("A", instant, "y"), ("A", instant, "x"))
        (seq,) = build_sequences(corpus)
        assert [*seq.kinds] == ["x", "y"]
        assert instant_of(seq.times[0]) == instant
        assert instant_of(seq.times[1]) == instant + timedelta(seconds=1)

    def test_displacement_cascades_through_runs(self):
        instant = at_day(0)
        one_second = instant + timedelta(seconds=1)
        corpus = corpus_of(
            ("A", instant, "a"), ("A", instant, "b"), ("A", one_second, "c")
        )
        (seq,) = build_sequences(corpus)
        assert [*map(instant_of, seq.times)] == [
            instant,
            one_second,
            one_second + timedelta(seconds=1),
        ]

    def test_strictly_increasing_enforced_by_the_type(self):
        with pytest.raises(ValueError):
            sequence_at("A", [(seconds_at(1), "x"), (seconds_at(1), "y")])

    def test_a_sequence_is_sliced_not_indexed(self):
        seq = sequence_of("A", [(0, "a"), (1, "b")])
        assert seq[1:].kinds == ("b",)
        for read in (lambda: seq[0], lambda: [*seq]):
            with pytest.raises(TypeError):
                read()


class TestTakeHistory:
    def test_interior_split(self):
        seq = sequence_of("A", [(0, "a"), (1, "b"), (2, "c")])
        pair = LabeledPair(seq, 3)
        assert [*pair.history.kinds] == ["a", "b"]
        assert seq.kinds[pair.index - 1] == "c"
        assert pair.index == 3

    def test_first_index_gives_empty_history(self):
        seq = sequence_of("A", [(0, "a"), (1, "b"), (2, "c")])
        pair = LabeledPair(seq, 1)
        assert (tuple(pair.history.times), pair.history.kinds) == ((), ())
        assert seq.kinds[pair.index - 1] == "a"

    @pytest.mark.parametrize("index", [0, 4, -1])
    def test_out_of_range_indices(self, index):
        seq = sequence_of("A", [(0, "a"), (1, "b"), (2, "c")])
        with pytest.raises(IndexOutOfRange):
            LabeledPair(seq, index)

    def test_history_plus_target_is_a_prefix(self):
        seq = sequence_of("A", [(d, f"k{d}") for d in range(6)])
        for i in range(1, 7):
            pair = LabeledPair(seq, i)
            target = pair.index - 1
            assert [*pair.history.times, seq.times[target]] == [*seq[:i].times]
            assert (*pair.history.kinds, seq.kinds[target]) == seq[:i].kinds

    def test_enumerate_pairs_respects_min_history(self):
        seq = sequence_of("A", [(0, "a"), (1, "b"), (2, "c")])
        pairs = enumerate_pairs([seq])
        assert [p.index for p in pairs] == [2, 3]
        assert all(len(p.history) >= 1 for p in pairs)

    def test_pair_memory_is_linear(self):
        def peak_bytes(n):
            seq = sequence_of("A", [(d, "x") for d in range(n)])
            tracemalloc.start()
            try:
                enumerate_pairs([seq])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(2000), peak_bytes(4000)
        assert large < 2_000_000
        assert large < 2.5 * small


def window_records(seq: EventSequence, width_days: int) -> list[dict]:
    """seq's windows as windows.jsonl writes them, decoded by the stage-file codec."""
    lines = windows_to_lines(seq, partition_windows(seq, width_days), width_days)
    return [decode_record(WINDOW_FIELDS, json.loads(line)) for line in lines]


class TestPartitionWindows:
    def test_weekly_example(self):
        seq = sequence_of("A", [(0, "a"), (3, "b"), (8, "c"), (15, "d")])
        windows = partition_windows(seq, 7)
        assert [[*seq[a:b].kinds] for a, b in windows] == [["a", "b"], ["c"], ["d"]]
        records = window_records(seq, 7)
        assert [w["window_index"] for w in records] == [0, 1, 2]
        assert list(records[0]["causes"]) == ["a", "b"]
        assert list(records[1]["causes"]) == ["c"]
        assert list(records[2]["causes"]) == ["d"]

    def test_single_event_single_window(self):
        windows = window_records(sequence_of("A", [(2, "a")]), 7)
        assert len(windows) == 1
        assert list(windows[0]["causes"]) == ["a"]

    def test_gap_emits_the_empty_window(self):
        windows = window_records(sequence_of("A", [(0, "a"), (20, "b")]), 7)
        assert [w["window_index"] for w in windows] == [0, 1, 2]
        assert list(windows[1]["times"]) == []

    def test_window_zero_starts_at_midnight_of_first_crash(self):
        seq = sequence_at("A", [(seconds_of(datetime(2021, 3, 5, 17, 30, tzinfo=UTC)), "a")])
        (window,) = window_records(seq, 7)
        assert window["window_start"] == seconds_of(datetime(2021, 3, 5, tzinfo=UTC))

    def test_windows_abut_exactly(self):
        seq = sequence_of("A", [(0, "a"), (25, "b")])
        windows = window_records(seq, 7)
        for first, second in zip(windows, windows[1:]):
            assert second["window_start"] == first["window_start"] + 7 * DAY

    def test_width_below_one_day_is_rejected(self):
        with pytest.raises(ConfigError):
            partition_windows(sequence_of("A", [(0, "a")]), 0)

    def test_every_event_lands_inside_its_window(self):
        seq = sequence_of("A", [(d * 1.37, f"k{d}") for d in range(20)])
        for w in window_records(seq, 3):
            for t in w["times"]:
                assert w["window_start"] <= t < w["window_start"] + 3 * DAY


def random_sequence(rng: random.Random, system_id: str) -> EventSequence:
    count = rng.randint(1, 40)
    gaps = [rng.uniform(0.01, 5.0) for _ in range(count)]
    day = 0.0
    events = []
    for gap in gaps:
        day += gap
        time = seconds_at(day)
        if events and time <= events[-1][0]:
            time = events[-1][0] + 1
        events.append((time, rng.choice("abcde")))
    return sequence_at(system_id, events)


class TestLosslessPartition:
    def test_concatenated_windows_reproduce_the_sequence(self):
        rng = random.Random(99)
        for case in range(100):
            seq = random_sequence(rng, f"sys-{case}")
            width = rng.randint(1, 11)
            windows = window_records(seq, width)
            assert [w["window_index"] for w in windows] == list(range(len(windows)))
            times = [t for w in windows for t in w["times"]]
            causes = [c for w in windows for c in w["causes"]]
            assert times == [*seq.times]
            assert causes == [*seq.kinds]

    def test_serialized_windows_round_trip(self):
        rng = random.Random(7)
        sequences = [random_sequence(rng, f"sys-{i}") for i in range(5)]
        lines = [
            line for s in sequences for line in windows_to_lines(s, partition_windows(s, 7), 7)
        ]
        restored = [decode_record(WINDOW_FIELDS, json.loads(line)) for line in lines]
        assert [encode_line(WINDOW_FIELDS, w.values()) for w in restored] == lines
        assert rebuild_sequences(restored) == sorted(
            sequences, key=lambda s: s.system_id
        )

    def test_a_window_that_starts_off_its_place_names_where_it_belongs(self):
        seq = sequence_of("A", [(0.5, "a"), (9, "b")])
        lines = windows_to_lines(seq, partition_windows(seq, 7), 7)
        lines[1] = lines[1].replace("2021-03-08T00:00:00Z", "2021-03-09T00:00:00Z")
        records = [decode_record(WINDOW_FIELDS, json.loads(line)) for line in lines]
        with pytest.raises(ValueError) as raised:
            rebuild_sequences(records)
        origin = "2021-03-01 00:00:00+00:00"  # as a datetime prints
        assert str(raised.value) == f"A window 1 is not window 1, 7 days after {origin}"


def test_build_sequences_is_deterministic():
    corpus = corpus_of(
        ("B", at_day(1), "x"), ("A", at_day(1), "y"), ("A", at_day(0), "z")
    )
    first = build_sequences(corpus)
    second = build_sequences(corpus)
    assert [windows_to_lines(s, partition_windows(s, 7), 7) for s in first] == [
        windows_to_lines(s, partition_windows(s, 7), 7) for s in second
    ]


# whole-second UTC instants of years 1000 to 9999, as a sequence's times stand for them
_WHOLE_SECONDS = st.datetimes(
    min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
    timezones=st.just(UTC),
).map(lambda ts: ts.replace(microsecond=0))


@given(first=_WHOLE_SECONDS, second=_WHOLE_SECONDS, width_days=st.integers(1, 400))
def test_the_seconds_helpers_agree_with_the_datetime_code_they_replace(first, second, width_days):
    first, last = sorted((first, second))
    start, end = seconds_of(first), seconds_of(last)
    assert instant_of(start) == first and instant_of(end) == last
    assert format_timestamp(end) == last.strftime("%Y-%m-%dT%H:%M:%SZ")
    assert _timestamp_text(end) == json.dumps(format_timestamp(end))  # windows.jsonl's times
    assert render_date(end) == last.date().isoformat()
    midnight = first.replace(hour=0, minute=0, second=0)
    assert day_floor(start) == seconds_of(midnight)
    index = window_index_of(end, day_floor(start), width_days)
    assert index == (last - midnight) // timedelta(days=width_days)
    # the same two integers of microseconds divided, so the same correctly rounded float
    assert (end - start) / DAY == (last - first) / timedelta(days=1)
    if start < end:
        model = fit_baseline(sequence_at("s", [(start, "a"), (end, "b")]))
        assert model.observation_span == max((last - first) / timedelta(days=1), MIN_SPAN_DAYS)
        assert model.t_last == last
