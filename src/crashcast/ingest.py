"""Parse raw crash-log lines into validated crash events.

Input is line-delimited JSON, one record per line (UTF-8): fields guid,
ts (RFC-3339 UTC instant, second resolution), event_id, and optional
bugcheck / params / cause. Unknown fields are ignored. Critical crashes
are the records with event_id 41; only those enter the corpus. Records,
events and sequences hold an instant as UTC epoch seconds, an int; its
text is made here, by format_timestamp and date_text, and nowhere else.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import BadCode, BadTimestamp, MalformedRecord

CRITICAL_EVENT_ID = 41  # kernel event for a reboot without clean shutdown

DATA_DIR = Path(__file__).with_name("data")  # the packaged defaults: catalog, template, stopwords

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
DAY = 86400  # seconds

# Events earlier than this, 2000-01-01T00:00:00Z in UTC epoch seconds, are clock garbage.
DEFAULT_EPOCH_FLOOR = 946_684_800

MAX_PARAMS = 4

# Both patterns must match the whole value (fullmatch), in ASCII digits only.
BUGCHECK_RE = re.compile(r"0x[0-9A-Fa-f]{1,8}")
_TS_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(?:Z|\+00:00)")

# json.dumps(ensure_ascii=False)'s string encoder: one str as JSON text, non-ASCII kept raw
encode_basestring = json.encoder.encode_basestring

# json.loads's own decoder settings; its scanner (C where built) is called directly,
# skipping the per-call checks loads makes before it gets there
_SCAN_ONCE = json.JSONDecoder().scan_once
_WHITESPACE = json.decoder.WHITESPACE.match


def decode_json(text: str) -> object:
    """json.loads(text): the same value, or the same error type and message.

    A text that is one JSON value and trailing JSON whitespace is decoded by the
    scanner alone; any other text (a BOM, leading whitespace, trailing data, bad
    JSON, bytes) is handed to json.loads, which decodes it or raises its error.
    """
    if type(text) is str:
        try:
            value, end = _SCAN_ONCE(text, 0)
        except (StopIteration, ValueError, RecursionError):
            pass
        else:
            if end == len(text) or _WHITESPACE(text, end).end() == len(text):
                return value
    return json.loads(text)


class RawLogRecord(NamedTuple):
    """One parsed log line, before any normalization."""

    system_id: str
    timestamp: int  # UTC epoch seconds
    event_id: int
    bugcheck_code: str | None = None
    params: tuple[str, ...] = ()
    cause: str | None = None


class CrashEvent(NamedTuple):
    """One critical crash: when it happened and what kind it was."""

    system_id: str
    time: int  # UTC epoch seconds
    kind: str
    bugcheck_code: str
    params: tuple[str, ...] = ()


@dataclass(frozen=True)
class CrashCorpus:
    """Deduplicated crash events plus bookkeeping about what was folded away."""

    events: list[CrashEvent]
    duplicates: int = 0
    dropped_before_floor: int = 0


def seconds_of(ts: datetime) -> int:
    """A UTC instant as whole seconds since the epoch, floored: a timedelta's seconds and
    microseconds are never negative."""
    since = ts - EPOCH
    return since.days * DAY + since.seconds


def instant_of(seconds: int) -> datetime:
    """The UTC datetime of seconds since the epoch: exact, so seconds_of inverts it."""
    return EPOCH + timedelta(0, seconds)


def parse_timestamp(text: str) -> int:
    """Parse an RFC-3339 UTC instant at second resolution into UTC epoch seconds.

    Date-only strings and non-UTC offsets are rejected; records must
    carry a full instant even when the upstream cadence is daily.
    """
    if _TS_RE.fullmatch(text) is None:
        raise ValueError(f"not a full UTC instant: {text!r}")
    # the pattern has checked the shape; the offset is spelled out for Python 3.10
    return seconds_of(datetime.fromisoformat(text[:19] + "+00:00"))


@lru_cache(maxsize=1 << 12)  # a day's text is made once, not once per instant of that day
def date_text(day: int) -> str:
    """The ISO calendar date of a day counted in whole days from the epoch."""
    return instant_of(day * DAY).date().isoformat()


# "00" to "59": indexing beats a %02d conversion, which is half the cost of a format
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


def format_timestamp(seconds: int) -> str:
    """UTC epoch seconds as strftime("%Y-%m-%dT%H:%M:%SZ") writes their instant, years 1000-9999."""
    d = _TWO_DIGITS
    return (f"{date_text(seconds // DAY)}T{d[seconds // 3600 % 24]}:{d[seconds // 60 % 60]}"
            f":{d[seconds % 60]}Z")


def canonical_code(code: str) -> str:
    """Canonical bugcheck form: 0x prefix, uppercase, no zero padding."""
    return "0x" + format(int(code, 16), "X")


def normalize_cause(text: str) -> str:
    """Lowercase, underscores to spaces, whitespace collapsed."""
    return " ".join(text.lower().replace("_", " ").split())


def is_utf8_encodable(value: object) -> bool:
    """Whether value, a JSON value, encodes as UTF-8: no string in it holds a lone surrogate.

    Text read from a UTF-8 file cannot hold one; only a JSON escape such as
    "\\ud800" can put it there, so a JSON-lines reader need test only lines
    that hold a "\\u".
    """
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_record(line: str, line_no: int | None = None) -> RawLogRecord:
    """Parse one log line into a RawLogRecord, with no normalization.

    Raises MalformedRecord for structural problems, BadTimestamp for an
    unparseable instant, BadCode when the bugcheck field violates the
    0x + 1-8 hex digits pattern. Never raises anything else, whatever
    the input bytes.
    """
    try:
        obj = decode_json(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedRecord(f"not valid JSON: {exc}", line_no) from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not an object", line_no)
    if "\\u" in line and not is_utf8_encodable(obj):
        raise MalformedRecord("record holds a lone surrogate", line_no)

    guid = obj.get("guid")
    if not isinstance(guid, str) or not guid:
        raise MalformedRecord("missing or empty guid", line_no)

    ts_raw = obj.get("ts")
    if not isinstance(ts_raw, str):
        raise MalformedRecord("missing ts", line_no)
    try:
        ts = parse_timestamp(ts_raw)
    except ValueError as exc:
        raise BadTimestamp(str(exc), line_no) from None

    event_id = obj.get("event_id")
    if isinstance(event_id, bool) or not isinstance(event_id, int) or event_id < 0:
        raise MalformedRecord("event_id must be a non-negative integer", line_no)

    bugcheck = obj.get("bugcheck")
    if bugcheck is not None:
        if not isinstance(bugcheck, str):
            raise MalformedRecord("bugcheck must be a string", line_no)
        if BUGCHECK_RE.fullmatch(bugcheck) is None:
            raise BadCode(f"bugcheck {bugcheck!r} violates 0x hex pattern", line_no)

    params_raw = obj.get("params")
    if params_raw is None:
        params: tuple[str, ...] = ()
    else:
        if not isinstance(params_raw, list) or len(params_raw) > MAX_PARAMS:
            raise MalformedRecord(f"params must be a list of at most {MAX_PARAMS}", line_no)
        if not all(isinstance(p, str) for p in params_raw):
            raise MalformedRecord("params entries must be strings", line_no)
        params = tuple(params_raw)

    cause = obj.get("cause")
    if cause is not None and not isinstance(cause, str):
        raise MalformedRecord("cause must be a string", line_no)

    return RawLogRecord(guid, ts, event_id, bugcheck, params, cause)


# a logs.jsonl line; the last three slots hold each optional field with its key, or ""
_RECORD_LINE = '{"guid": %s, "ts": "%s", "event_id": %d%s%s%s}'


def as_template(text: str) -> str:
    """text as a %-template: each NUL a %s slot, each "%" escaped; JSON text holds no raw NUL."""
    return text.replace("%", "%%").replace("\0", "%s")


def record_template(system_id: str, event_id: int, bugcheck: str | None, params: bool,
                    cause: str | None) -> str:
    """A logs.jsonl line, json.dumps(ensure_ascii=False) of a record's dict, as a template: slots
    for its ts text and, if params, their JSON list text; bugcheck or cause None is left out."""
    return as_template(_RECORD_LINE % (
        encode_basestring(system_id), "\0", event_id,
        "" if bugcheck is None else ', "bugcheck": ' + encode_basestring(bugcheck),
        ', "params": \0' if params else "",
        "" if cause is None else ', "cause": ' + encode_basestring(cause),
    ))


def parse_lines(lines: Iterable[str]) -> list[RawLogRecord]:
    """Parse many lines, skipping blanks, attaching 1-based line numbers to errors."""
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        records.append(parse_record(line, line_no))
    return records


def filter_critical(records: Iterable[RawLogRecord]) -> list[RawLogRecord]:
    """Keep exactly the event-41 records, in input order."""
    return [r for r in records if r.event_id == CRITICAL_EVENT_ID]


def load_catalog(path: str | Path) -> dict[str, str]:
    """Load the bugcheck -> cause catalog: two columns, '#' comments allowed.

    Keys are canonicalized codes, values normalized cause labels.
    """
    catalog: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise MalformedRecord(f"catalog line needs two columns: {line!r}", line_no)
        code, label = parts
        if BUGCHECK_RE.fullmatch(code) is None:
            raise BadCode(f"catalog code {code!r} violates 0x hex pattern", line_no)
        catalog[canonical_code(code)] = normalize_cause(label)
    return catalog


def default_catalog() -> dict[str, str]:
    return load_catalog(DATA_DIR / "bugcheck_catalog.txt")


def derive_kind(record: RawLogRecord, catalog: dict[str, str]) -> str:
    if record.cause is not None and (cause := normalize_cause(record.cause)):
        return cause
    if record.bugcheck_code is not None:
        code = canonical_code(record.bugcheck_code)
        if code in catalog:
            return catalog[code]
        return f"bugcheck {code.lower()}"
    return "unknown"


def build_corpus(
    records: Iterable[RawLogRecord], catalog: dict[str, str] | None = None
) -> CrashCorpus:
    """Turn critical-only records into a deduplicated CrashCorpus.

    Cause text is normalized; records without a cause fall back to the
    catalog, then to the bugcheck code itself. Exact duplicates on
    (system_id, time, bugcheck_code) collapse to the first in input
    order and are counted, as are events before DEFAULT_EPOCH_FLOOR.
    The corpus may hold no event: the stages refuse it, not this.
    """
    if catalog is None:
        catalog = default_catalog()

    # a run holds a dozen or so distinct codes and kinds: derive each once, share the strings
    codes: dict[str | None, str] = {}
    kinds: dict[tuple[str | None, str | None], str] = {}
    systems: defaultdict[str, list[CrashEvent]] = defaultdict(list)  # each in input order
    new = tuple.__new__
    dropped = 0
    for record in records:
        system_id, timestamp, _, raw, params, cause = record
        if timestamp < DEFAULT_EPOCH_FLOOR:
            dropped += 1
            continue
        if (code := codes.get(raw)) is None:
            code = codes[raw] = canonical_code(raw) if raw else ""
        if (kind := kinds.get((cause, raw))) is None:
            kind = kinds[cause, raw] = derive_kind(record, catalog)
        systems[system_id].append(new(CrashEvent, (system_id, timestamp, kind, code, params)))

    # (system_id, time, bugcheck_code) order, one system's keys alive at a time; each sort is
    # stable, so the first of each run of equal keys is the first in input order
    built = sum(map(len, systems.values()))
    key = itemgetter(1, 3)  # (time, bugcheck_code)
    kept: list[CrashEvent] = []
    for system_id in sorted(systems):
        events = systems.pop(system_id)
        events.sort(key=key)
        kept.extend(next(group) for _, group in groupby(events, key))
    return CrashCorpus(
        events=kept,
        duplicates=built - len(kept),
        dropped_before_floor=dropped,
    )
