import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import transient_peak
from oracles import build_corpus_loop
from crashcast.errors import (
    BadCode,
    BadTimestamp,
    EmptyCorpus,
    MalformedRecord,
    RecordError,
)
from crashcast.ingest import (
    RawLogRecord,
    _derive_kind,
    build_corpus,
    canonical_code,
    decode_json,
    default_catalog,
    default_catalog_path,
    filter_critical,
    format_timestamp,
    load_catalog,
    normalize_cause,
    parse_lines,
    parse_record,
    parse_timestamp,
    record_to_line,
)
from crashcast.synthgen import GeneratorConfig, generate_records

UTC = timezone.utc

FULL_LINE = (
    '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,'
    '"bugcheck":"0x9F","params":["0x3","0x0","0x0","0x0"],'
    '"cause":"DRIVER_POWER_STATE_FAILURE"}'
)


def make_record(system_id="A1", day=1, hour=0, event_id=41, **kwargs):
    return RawLogRecord(
        system_id=system_id,
        timestamp=datetime(2021, 3, day, hour, tzinfo=UTC),
        event_id=event_id,
        **kwargs,
    )


class TestParseRecord:
    def test_full_record_maps_every_field(self):
        record = parse_record(FULL_LINE)
        assert record.system_id == "A1"
        assert record.timestamp == datetime(2021, 3, 1, 8, 0, 0, tzinfo=UTC)
        assert record.event_id == 41
        assert record.bugcheck_code == "0x9F"
        assert record.params == ("0x3", "0x0", "0x0", "0x0")
        assert record.cause == "DRIVER_POWER_STATE_FAILURE"

    def test_date_without_time_is_a_bad_timestamp(self):
        with pytest.raises(BadTimestamp):
            parse_record('{"guid":"A1","ts":"2021-03-01","event_id":41}')

    def test_code_without_prefix_is_bad(self):
        with pytest.raises(BadCode):
            parse_record('{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"bugcheck":"9F"}')

    def test_unknown_fields_are_ignored(self):
        record = parse_record(
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"model":"x99"}'
        )
        assert record.system_id == "A1"

    def test_line_number_lands_in_the_message(self):
        with pytest.raises(MalformedRecord, match="line 7"):
            parse_record("{", line_no=7)

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "not json",
            "[1, 2]",
            '{"ts":"2021-03-01T08:00:00Z","event_id":41}',
            '{"guid":"","ts":"2021-03-01T08:00:00Z","event_id":41}',
            '{"guid":"A1","event_id":41}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z"}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":-1}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":true}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"params":["a","b","c","d","e"]}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"params":"x"}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"cause":3}',
            '{"guid":"\\ud800","ts":"2021-03-01T08:00:00Z","event_id":41}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"cause":"x\\udfff"}',
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"params":["\\ud83d"]}',
        ],
    )
    def test_structural_problems_are_malformed(self, line):
        with pytest.raises(MalformedRecord):
            parse_record(line)

    def test_escaped_surrogate_pair_is_text(self):
        record = parse_record(
            '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"cause":"\\ud83d\\ude00"}'
        )
        assert record.cause == "\U0001F600"

    def test_bugcheck_longer_than_eight_digits_is_bad(self):
        with pytest.raises(BadCode):
            parse_record(
                '{"guid":"A1","ts":"2021-03-01T08:00:00Z","event_id":41,"bugcheck":"0x123456789"}'
            )

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_arbitrary_text_never_escapes_the_error_taxonomy(self, line):
        try:
            record = parse_record(line)
        except RecordError:
            return
        assert isinstance(record, RawLogRecord)


class TestTimestamps:
    def test_both_utc_suffixes_parse(self):
        assert parse_timestamp("2021-03-01T08:00:00Z") == parse_timestamp(
            "2021-03-01T08:00:00+00:00"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "2021-03-01",
            "2021-03-01T08:00:00",
            "2021-03-01T08:00:00+02:00",
            "2021-03-01 08:00:00Z",
            # the pattern matches in full, in ASCII digits
            "2021-03-04T05:06:07Z\n",
            "\u0662\u0660\u0662\u0661-03-04T05:06:07Z",
        ],
    )
    def test_non_utc_or_partial_instants_are_rejected(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)

    def test_format_round_trips(self):
        ts = datetime(2021, 12, 31, 23, 59, 59, tzinfo=UTC)
        assert parse_timestamp(format_timestamp(ts)) == ts

    @pytest.mark.parametrize("year", [1, 999, 1000, 2000, 9999])
    def test_format_matches_strftime(self, year):
        ts = datetime(year, 2, 3, 4, 5, 6, tzinfo=UTC)
        assert format_timestamp(ts) == ts.strftime("%Y-%m-%dT%H:%M:%SZ")

    @given(st.datetimes(min_value=datetime(1000, 1, 1), timezones=st.just(UTC)))
    @settings(max_examples=300)
    def test_codec_round_trips_like_strftime(self, ts):
        ts = ts.replace(microsecond=0)
        text = format_timestamp(ts)
        assert text == ts.strftime("%Y-%m-%dT%H:%M:%SZ")
        assert parse_timestamp(text) == ts


_record_strategy = st.builds(
    RawLogRecord,
    system_id=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
    ),
    timestamp=st.datetimes(
        min_value=datetime(2000, 1, 1),
        max_value=datetime(2099, 12, 31),
    ).map(lambda d: d.replace(microsecond=0, tzinfo=UTC)),
    event_id=st.integers(min_value=0, max_value=9999),
    bugcheck_code=st.none() | st.from_regex(r"0x[0-9A-Fa-f]{1,8}", fullmatch=True),
    params=st.lists(
        st.from_regex(r"0x[0-9A-Fa-f]{1,8}", fullmatch=True), max_size=4
    ).map(tuple),
    cause=st.none() | st.text(min_size=1, max_size=30),
)


@given(_record_strategy)
@settings(max_examples=200)
def test_serialization_round_trips(record):
    assert parse_record(record_to_line(record)) == record


class TestFilterCritical:
    def test_keeps_only_event_41_in_order(self):
        records = [make_record(event_id=41), make_record(event_id=12), make_record(event_id=41, hour=1)]
        kept = filter_critical(records)
        assert [r.event_id for r in kept] == [41, 41]
        assert kept == [records[0], records[2]]

    def test_empty_and_no_critical(self):
        assert filter_critical([]) == []
        assert filter_critical([make_record(event_id=12)]) == []

    def test_idempotent(self):
        records = [make_record(event_id=41), make_record(event_id=12)]
        once = filter_critical(records)
        assert filter_critical(once) == once


class TestBuildCorpus:
    def test_cause_is_normalized(self):
        corpus = build_corpus([make_record(cause="DRIVER_POWER_STATE_FAILURE")])
        assert corpus.events[0].kind == "driver power state failure"

    def test_exact_duplicates_collapse_and_count(self):
        record = make_record(bugcheck_code="0x9F")
        corpus = build_corpus([record, record])
        assert len(corpus.events) == 1
        assert corpus.duplicates == 1

    def test_dedup_key_ignores_params(self):
        first = make_record(bugcheck_code="0x9F", params=("0x1",))
        second = make_record(bugcheck_code="0x9F", params=("0x2",))
        corpus = build_corpus([first, second])
        assert len(corpus.events) == 1

    def test_dedup_key_spans_code_spellings(self):
        first = make_record(bugcheck_code="0x9F")
        second = make_record(bugcheck_code="0x0000009f")
        corpus = build_corpus([first, second])
        assert len(corpus.events) == 1

    def test_missing_cause_falls_back_to_the_catalog(self):
        catalog_label = default_catalog()["0x9F"]
        corpus = build_corpus([make_record(bugcheck_code="0x9F")])
        assert corpus.events[0].kind == catalog_label
        raw = dict(
            line.split(None, 1)
            for line in default_catalog_path().read_text().splitlines()
            if line.strip() and not line.startswith("#")
        )
        assert normalize_cause(raw["0x9F"]) == catalog_label

    def test_event_plus_duplicate_counts_add_up(self):
        records = [
            make_record(day=d, bugcheck_code="0x9F") for d in (1, 1, 2, 3, 3, 3)
        ]
        corpus = build_corpus(records)
        assert len(corpus.events) + corpus.duplicates == len(records)

    def test_epoch_floor_drops_and_counts(self):
        ancient = RawLogRecord(
            system_id="A1", timestamp=datetime(1999, 1, 1, tzinfo=UTC), event_id=41
        )
        corpus = build_corpus([ancient, make_record()])
        assert corpus.dropped_before_floor == 1
        assert len(corpus.events) == 1

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            build_corpus([])

    def test_events_sorted_by_system_then_time(self):
        records = [
            make_record(system_id="B", day=1),
            make_record(system_id="A", day=2),
            make_record(system_id="A", day=1),
        ]
        corpus = build_corpus(records)
        assert [(e.system_id, e.time.day) for e in corpus.events] == [
            ("A", 1),
            ("A", 2),
            ("B", 1),
        ]


# codes in and out of the shipped catalog, spelled padded and in either case
_CODE_SPELLINGS = ("0x9F", "0x9f", "0x0000009F", "0xa", "0x000A", "0x1", "0xDEAD", "0xdead")
_CUSTOM_CATALOG = {"0x9F": "custom nine f", "0xDEAD": "dead beef"}


@given(
    records=st.lists(
        st.builds(
            make_record,
            system_id=st.sampled_from(["A1", "B2"]),
            day=st.integers(min_value=1, max_value=3),
            bugcheck_code=st.none() | st.sampled_from(_CODE_SPELLINGS),
            cause=st.none() | st.sampled_from(["", "  ", "Driver_Power", "driver  power", "IRQL"]),
        ),
        min_size=1,
        max_size=30,
    ),
    catalog=st.sampled_from([None, _CUSTOM_CATALOG]),
)
@settings(max_examples=200)
def test_corpus_kinds_and_codes_match_a_per_record_derivation(records, catalog):
    corpus = build_corpus(records, catalog=catalog)
    resolved = default_catalog() if catalog is None else catalog
    kept = {}  # dedup key -> the first record that has it, the one build_corpus keeps
    for record in records:
        code = canonical_code(record.bugcheck_code) if record.bugcheck_code else ""
        kept.setdefault((record.system_id, record.timestamp, code), record)
    assert len(corpus.events) == len(kept)
    for event in corpus.events:
        record = kept[event.system_id, event.time, event.bugcheck_code]
        assert event.kind == _derive_kind(record, resolved)
        if record.bugcheck_code:
            assert event.bugcheck_code == canonical_code(record.bugcheck_code)


def _corpus_inputs():
    """Records that exercise each order-sensitive branch of build_corpus."""
    records = [
        make_record(system_id=f"S{n % 3}", day=1 + n % 4, hour=n % 5, bugcheck_code=code)
        for n, code in enumerate(["0x9F", "0xa", "0x0000009f", "0xDEAD", "0x1"] * 6)
    ]
    # duplicates that differ only in params: the first in input order is kept
    records += [
        make_record(system_id="S9", day=2, bugcheck_code="0x9F", params=("0x1",)),
        make_record(system_id="S9", day=2, bugcheck_code="0x9f", params=("0x2",)),
    ]
    # before the epoch floor, and a cause beside a catalog code
    records.append(make_record()._replace(timestamp=datetime(1999, 12, 31, tzinfo=UTC)))
    records.append(make_record(system_id="S7", day=3, bugcheck_code="0x9F", cause="Irql_Not"))
    records.append(make_record(system_id="S7", day=3, hour=1, bugcheck_code="0xA", cause=" "))
    return records


@pytest.mark.parametrize("shuffle_seed", [None, 1, 2, 3])
def test_build_corpus_equals_a_record_by_record_loop(shuffle_seed):
    records = _corpus_inputs()
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(records)
    catalog = default_catalog()
    corpus = build_corpus(records, catalog=catalog)
    events, duplicates, dropped = build_corpus_loop(records, catalog)
    assert [*corpus.events] == events
    assert [type(event) for event in corpus.events] == [type(event) for event in events]
    assert (corpus.duplicates, corpus.dropped_before_floor) == (duplicates, dropped)
    assert (duplicates, dropped) == (1, 1)
    first = next(r for r in records if r.system_id == "S9")
    assert [e.params for e in corpus.events if e.system_id == "S9"] == [first.params]
    # a cause wins over the catalog; a blank cause falls back to it
    kinds = [e.kind for e in corpus.events if e.system_id == "S7"]
    assert kinds == ["irql not", catalog["0xA"]]


@pytest.mark.parametrize("order", ["shuffled", "grouped by system"])
def test_build_corpus_past_999_systems_equals_a_record_by_record_loop(order):
    config = GeneratorConfig(n_systems=1001, days=2)
    records = filter_critical(generate_records(config, seed=1234))
    # a copy of every fifth record with other params: whichever comes first in input order is kept
    copies = [record._replace(params=("0xD",)) for record in records[::5]]
    records += copies
    if order == "shuffled":
        random.Random(5).shuffle(records)
    else:  # in system index order, host-1000 last, where system_id order puts it after host-100
        records.sort(key=lambda record: int(record.system_id.removeprefix("host-")))
    catalog = default_catalog()
    corpus = build_corpus(records, catalog=catalog)
    events, duplicates, dropped = build_corpus_loop(records, catalog)
    assert [*corpus.events] == events
    assert (corpus.duplicates, corpus.dropped_before_floor) == (duplicates, dropped)
    assert (duplicates, dropped) == (len(copies), 0)


def test_build_corpus_builds_no_key_tuple_per_event():
    # one system's events are sorted at a time: a key tuple per event for the whole corpus
    # passes 56 bytes an event at its peak
    config = GeneratorConfig(seed=1234, n_systems=40, days=540)
    records = filter_critical(generate_records(config))
    corpus, transient = transient_peak(build_corpus, records, default_catalog())
    assert len(corpus.events) == len(records)
    assert transient < 24 * len(records), f"{transient / len(records):.1f} bytes an event"


class TestCatalog:
    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("# header\n0x0000009f   DRIVER_POWER_STATE_FAILURE\n\n0xA IRQL\n")
        catalog = load_catalog(path)
        assert catalog["0x9F"] == "driver power state failure"
        assert catalog["0xA"] == "irql"

    def test_canonical_code_strips_padding(self):
        assert canonical_code("0x0000009f") == "0x9F"
        assert canonical_code("0xa") == "0xA"


def test_parse_lines_skips_blanks_and_numbers_errors():
    lines = [FULL_LINE, "", "   ", FULL_LINE]
    assert len(parse_lines(lines)) == 2
    with pytest.raises(MalformedRecord, match="line 2"):
        parse_lines([FULL_LINE, "{broken"])


def test_normalize_cause_collapses_whitespace():
    assert normalize_cause("  A_B   c\t d ") == "a b c d"


# text with any code point, lone surrogates and line separators included
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ANY_TEXT, inner, max_size=4),
    max_leaves=20,
)


# any code point but a lone surrogate: quotes, backslashes and control characters included
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


def _record_line_by_dict(record):
    """record_to_line's line as json.dumps(ensure_ascii=False) writes the record's dict,
    optional fields left out."""
    obj = {"guid": record.system_id, "ts": format_timestamp(record.timestamp), "event_id": record.event_id}
    if record.bugcheck_code is not None:
        obj["bugcheck"] = record.bugcheck_code
    if record.params:
        obj["params"] = list(record.params)
    if record.cause is not None:
        obj["cause"] = record.cause
    return json.dumps(obj, ensure_ascii=False)


@given(
    st.builds(
        RawLogRecord,
        system_id=_TEXT,
        timestamp=st.datetimes(min_value=datetime(1000, 1, 1), timezones=st.just(UTC)),
        event_id=st.integers(min_value=0),
        bugcheck_code=st.none() | _TEXT,
        params=st.lists(_TEXT, max_size=4).map(tuple),
        cause=st.none() | _TEXT,
    )
)
@example(RawLogRecord('a"\\\x00\x1f\x7f \U0001f600', datetime(2021, 3, 1, tzinfo=UTC), 41))
@example(RawLogRecord("h%s", datetime(2021, 3, 1, tzinfo=UTC), 6008, "%d", ("", '"'), ""))
@settings(max_examples=300)
def test_record_to_line_writes_what_the_record_dict_encodes_to(record):
    assert record_to_line(record) == _record_line_by_dict(record)


def _outcome(decode, text):
    """What decode does with text: ("value", repr of the value) or ("error", type, message)."""
    try:
        return "value", repr(decode(text))  # repr tells 1 from 1.0 and True, and nan from itself
    except Exception as err:
        return "error", type(err), str(err)


_JSON_TEXTS = st.one_of(
    _JSON_VALUES.map(json.dumps),
    _JSON_VALUES.map(lambda value: json.dumps(value, ensure_ascii=False)),
    st.text(),
)


@given(
    text=_JSON_TEXTS,
    before=st.sampled_from(["", "\ufeff", " ", "\t\r\n "]),
    after=st.sampled_from(["", " ", "\r", "\n\t ", " x", "}", "1", "\ufeff", "\x00"]),
)
@example(text='{"a": 1}', before="", after="")
@example(text='{"a": 1', before="", after="")
@example(text="", before="", after="")
@example(text="[1, 2] [3]", before="", after="")
@settings(max_examples=400)
def test_decode_json_returns_or_raises_what_json_loads_does(text, before, after):
    text = before + text + after
    assert _outcome(decode_json, text) == _outcome(json.loads, text)
