"""Drive the stages end to end and keep their file contracts.

STAGES lists the six stages in run order and the files each writes, and
path_of places every file: under paths.out_dir, except the logs when
paths.logs names them. Each stage writes its own files once. Run alone, a
stage reads only the files the previous stage declared, so any stage can
be rerun; inside `run_all` each stage takes the previous stage's
in-memory result instead, and no file is parsed back, logs.jsonl
included: synth and ingest stream each system's records and corpus
into sequence, and ingest parses a logs file only when `paths.logs`
names one (synth then does not run). Each
JSON-lines stage file past the logs (events.jsonl, windows.jsonl,
predictions.jsonl) has one field table here, which both writes its lines
and checks and decodes them when read. The full run also writes a
manifest that pins the resolved config, the seed, the backend, and the
digests of every output; wall-clock timings go to a separate file so the
manifest stays byte-identical across identical runs.

The three large files (logs.jsonl, events.jsonl, windows.jsonl) are
written by children made with os.fork(), so this module needs POSIX,
while this process goes on to the next stage. A stage called alone forks
one writer, which only encodes, writes and hashes its file. `run_all`
without paths.logs forks one data writer instead of synth's and
ingest's: it draws the synthetic corpus itself, one system at a time,
and deduplicates it, writing events.jsonl as it goes and logs.jsonl,
merged into time order, at the end; this process draws each system
again and sequences it. `run_all` waits for every child before its
manifest; a stage called alone waits for its child before it returns. A
child logs and prints nothing, and imports only hashlib, whose OpenSSL
SHA-256 hashes the files it wrote about 6x as fast as the interpreter's.
It sends their hex digests through a pipe, so this process reads none
of the three back, and leaves with os._exit, its exit status its report
of failure: 0, the errno of the OSError that stopped it, or 255.
ingest.json, which holds the logs' digest, is written once the logs'
writer is reaped. Every digest this process makes comes from
`_seed.sha256`, the interpreter's own, so a baseline run's main process
loads no OpenSSL.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import operator
import os
import random
import sys
import time
from array import array
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from datetime import timedelta
from itertools import accumulate, chain, groupby, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from ._seed import derive_seed, sha256
from .config import NormalizationFlags, RunConfig, config_digest, resolved_dict
from .errors import (
    BackendError,
    ConfigError,
    DataError,
    EmptyCorpus,
    InsufficientData,
    HistoryTooShort,
    RecordError,
)
from .ingest import (
    NO_EVENTS,
    CrashCorpus,
    CrashEvent,
    RawLogRecord,
    build_corpus,
    decode_json,
    default_catalog,
    encode_basestring,
    filter_critical,
    format_timestamp,
    is_utf8_encodable,
    load_catalog,
    parse_lines,
    parse_timestamp,
    record_to_line,
)
from .metrics import CATEGORIES, RougeScore, aggregate, score_item
from .postprocess import (
    NormalizationConfig,
    default_stopwords,
    extract_prediction,
    load_stopwords,
    merge_extractions,
)
from .predictor import (
    Backend,
    PredictionRaw,
    baseline_answer,
    make_backend,
)
from .prompt import (
    PromptBundle,
    build_bundle,
    default_template,
    load_template,
    render_cause_prompt,
    render_date,
    shots_from_pairs,
)
from .sequencer import (
    EventSequence,
    LabeledPair,
    SeqEvent,
    build_sequences,
    day_floor,
    enumerate_pairs,  # not called here: bench/tracer.py wraps it by its name in this module
    partition_windows,
    window_index_of,
)
# generate_corpus is not called here: bench/tracer.py wraps it by its name in this module
from .synthgen import generate_corpus, generate_records, generate_systems

LOGS_FILE = "logs.jsonl"
EVENTS_FILE = "events.jsonl"
INGEST_FILE = "ingest.json"
WINDOWS_FILE = "windows.jsonl"
SPLIT_FILE = "split.json"
PREDICTIONS_FILE = "predictions.jsonl"
REPORT_FILE = "report.json"
TABLE_FILE = "table.csv"
MANIFEST_FILE = "manifest.json"
TIMINGS_FILE = "timings.json"

# each stage in run order, with the files it writes: {file name: its key in the manifest's
# "outputs", or None for a file the manifest does not digest}
STAGES: dict[str, dict[str, str | None]] = {
    "synth": {LOGS_FILE: "logs"},
    "ingest": {EVENTS_FILE: "events", INGEST_FILE: None},
    "sequence": {WINDOWS_FILE: "windows"},
    "split": {SPLIT_FILE: "split"},
    "predict": {PREDICTIONS_FILE: "predictions"},
    "evaluate": {REPORT_FILE: "report", TABLE_FILE: "table"},
}

T = TypeVar("T")

# every indented JSON file: split, ingest, report, manifest, timings
_INDENTED = json.JSONEncoder(sort_keys=True, indent=2)


def path_of(config: RunConfig, name: str) -> Path:
    """Where the run's file called name goes: paths.logs names the logs when set, else out_dir."""
    if name == LOGS_FILE and config.paths.logs:
        return Path(config.paths.logs)
    return Path(config.paths.out_dir) / name


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic GC, then restore its state: a run's many records form no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _partial_of(path: Path) -> Path:
    return path.with_name(f".{path.name}.partial")


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to path as they come, creating its directory.

    They go to a hidden .partial sibling that then replaces path, so a
    write stopped partway leaves the earlier file whole, or no file. An
    OSError names path, not the sibling.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = _partial_of(path)
    try:
        with partial.open("w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        os.replace(partial, path)
    except BaseException as err:
        partial.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror or str(err), str(path)) from None
        raise


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    _write(path, (line + "\n" for line in lines))


_NO_FILE = "-" * 64  # what a writer sends for a file it left out


def _writer_error(path: Path, reason: str) -> RuntimeError:
    """A writer's failure past an OSError, with filename and strerror as an OSError has them."""
    error = RuntimeError(f"the writer of {path} {reason}")
    error.filename, error.strerror = str(path), f"its writer {reason}"
    return error


class Writers:
    """Forked children, each writing its files while this process goes on.

    A stage's writer only encodes and writes one file; `run_all`'s data
    writer also draws and deduplicates the corpus it writes (_write_data).
    Each child also hashes the files it wrote and sends their hex digests
    back through a pipe opened before the fork; digests holds them by path,
    and then() defers what needs one until its writer is reaped. Leaving
    the with block waits for every child, so the files the run got to are
    whole. Left normally, it then raises the first child's failure; left
    on an exception, it only removes a failed child's .partial files, and
    the exception goes on. An interrupt while it waits kills the children
    that are left. No child, and no pipe, outlives the block. A stage given
    no Writers makes its own, so it returns with its file whole. failure is
    the error of the first writer that could not start or failed, raised or
    not; it names the writer's first file. waits and usage hold, by file
    name, the seconds wait() blocked on each file's writer and that
    writer's CPU seconds and peak resident set (the files of one writer
    share its figures).
    """

    def __init__(self) -> None:
        self._live: dict[tuple[Path, ...], tuple[int, int]] = {}  # a writer's paths: pid, pipe
        self._then: dict[Path, Callable[[str | None], Any]] = {}  # path: fn(digest) when reaped
        self.digests: dict[Path, str] = {}  # path: hex sha256 of the file its writer wrote
        self.waits: dict[str, float] = {}  # file name: seconds wait() blocked on its writer
        self.usage: dict[str, dict[str, float]] = {}  # file name: its writer's rusage figures
        self.failure: Exception | None = None

    def __enter__(self) -> Writers:
        return self

    def __exit__(self, kind, err, tb) -> None:
        try:
            self.wait(*chain.from_iterable(self._live), raising=kind is None)
        finally:
            self.stop()

    def start(self, path: Path, lines: Iterable[str]) -> None:
        """Write lines to path from a forked child, which only encodes, writes and hashes."""

        def write() -> None:
            os.nice(9)  # 19 in all: where it contends for a core, the data writer goes first
            _write_lines(path, lines)

        self.fork((path,), write)

    def fork(self, paths: tuple[Path, ...], write: Callable[[], Any]) -> None:
        """Call write() in a forked child, which then sends the digest of each of paths.

        write() writes the files, each through its .partial sibling; one it leaves out is
        sent as 64 "-" and gets no digest. The child exits 0, with the errno (1-254) of the
        OSError that stopped it, or with 255.
        """
        pipe: tuple[int, ...] = ()
        try:
            pipe = os.pipe()
            pid = os.fork()
        except OSError as err:  # no writer to start is a failure to write its files
            for fd in pipe:
                os.close(fd)
            failure = OSError(err.errno, err.strerror, str(paths[0]))
            self.failure = self.failure or failure
            raise failure from None
        read_end, write_end = pipe
        if pid == 0:
            code = 255
            try:
                os.nice(10)  # where it contends for a core, the next stage goes first
                write()
                import hashlib  # OpenSSL's SHA-256, for _file_digest: 3.5 MB, this writer's alone
                digests = map(_file_digest, paths)
                sent = "".join(_NO_FILE if digest is None else digest for digest in digests)
                os.write(write_end, sent.encode())  # 64 bytes a file: one atomic write
                code = 0
            except OSError as err:
                code = err.errno if err.errno in range(1, 255) else 255
            finally:
                os._exit(code)
        os.close(write_end)  # so the read end sees end of file once the child is gone
        self._live[paths] = pid, read_end

    def then(self, path: Path, fn: Callable[[str | None], Any]) -> None:
        """Call fn with path's digest once its writer is reaped whole; at once if none runs.

        With no writer of path left, the digest is the one it sent, else the file's, read here.
        """
        if any(path in paths for paths in self._live):
            self._then[path] = fn
        else:
            fn(self.digests.get(path) or _file_digest(path))

    def wait(self, *paths: Path, raising: bool = True) -> None:
        """Reap the writers of paths that still run, then raise the first failure if raising.

        A failed writer's .partial files are removed: a killed child cannot remove them.
        """
        failure: Exception | None = None
        for key in [key for key in self._live if not set(key).isdisjoint(paths)]:
            pid, read_end = self._live.pop(key)
            started = time.perf_counter()
            status, usage = os.wait4(pid, 0)[1:]
            waited = time.perf_counter() - started
            figures = {"user_s": usage.ru_utime, "system_s": usage.ru_stime,
                       "maxrss_kb": usage.ru_maxrss}
            for path in key:
                self.waits[path.name], self.usage[path.name] = waited, figures
            try:
                sent = os.read(read_end, 64 * len(key) + 1)  # whole: written at once, then exit
            finally:
                os.close(read_end)
            code = os.waitstatus_to_exitcode(status)
            thens = [self._then.pop(path, None) for path in key]
            if code:  # a signal's is negative
                for path in key:
                    _partial_of(path).unlink(missing_ok=True)
                failure = failure or (
                    OSError(code, os.strerror(code), str(key[0])) if 0 < code < 255
                    else _writer_error(key[0], f"failed with status {code}")
                )
            elif len(sent) != 64 * len(key):
                failure = failure or _writer_error(key[0], "exited 0 without a full digest")
            else:
                for index, (path, then) in enumerate(zip(key, thens)):
                    if (digest := sent[64 * index:64 * (index + 1)].decode("ascii")) != _NO_FILE:
                        self.digests[path] = digest
                    try:
                        if then is not None:
                            then(self.digests.get(path))
                    except Exception as err:  # what waited for the digest failed: ingest.json
                        failure = failure or err
        self.failure = self.failure or failure
        if failure is not None and raising:
            raise failure

    def stop(self) -> None:
        """Kill every writer that still runs, reap it, close its pipe, remove its .partial files."""
        self._then.clear()
        for paths, (pid, read_end) in [*self._live.items()]:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(read_end)
            del self._live[paths]
            for path in paths:
                _partial_of(path).unlink(missing_ok=True)


def _write_forked(path: Path, lines: Iterable[str], writers: Writers | None) -> None:
    """Write lines to path from a child: one of writers, or, given None, one waited for here."""
    with (nullcontext(writers) if writers is not None else Writers()) as writers:
        writers.start(path, lines)


def _write_json(path: Path, payload: Any) -> None:
    _write(path, chain(_INDENTED.iterencode(payload), "\n"))


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path.name}: {err}") from None
    except json.JSONDecodeError as err:
        raise DataError(f"{path.name} is not valid JSON: {err}") from None


def _read_lines(path: Path, digest: Any = None) -> Iterator[str]:
    """A UTF-8 file's lines, split on "\\n" only (JSON Lines), read in chunks fed to digest."""
    try:
        with path.open("rb") as stream:
            tail = b""
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                if digest is not None:
                    digest.update(chunk)
                *lines, tail = (tail + chunk).split(b"\n")
                yield from (line.decode("utf-8") for line in lines)
            if tail:
                yield tail.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path.name}: {err}") from None


# --- stage file codecs ------------------------------------------------------------

class FieldType(NamedTuple):
    """How a stage-file field is held in JSON, and its codec.

    kind is the exact JSON type of the value, or of each item when many
    says the value is a list, so a JSON boolean is never an integer. text
    writes one value or item as json.dumps(ensure_ascii=False) does;
    decode converts one decoded value or item, None leaving it as it is.
    """

    name: str  # as the README's "Stage files" section gives it
    kind: type
    text: Callable[[Any], str]
    many: bool = False
    decode: Callable[[Any], Any] | None = None


def _timestamp_text(ts: Any) -> str:
    return '"' + format_timestamp(ts) + '"'  # ASCII digits and punctuation: nothing to escape


def _list_text(text: Callable[[Any], str]) -> Callable[[Any], str]:
    def list_text(items: Iterable[Any]) -> str:
        return "[" + ", ".join(map(text, items)) + "]"

    return list_text


STRING = FieldType("string", str, encode_basestring)
INTEGER = FieldType("integer", int, int.__repr__)
TIMESTAMP = FieldType("timestamp", str, _timestamp_text, False, parse_timestamp)
STRINGS = FieldType("list of strings", str, encode_basestring, True)
TIMESTAMPS = FieldType("list of timestamps", str, _timestamp_text, True, parse_timestamp)


class FieldTable(dict):
    """A stage file's {key: FieldType}, in line order, and its line format, built once.

    template is a line as json.dumps(ensure_ascii=False) writes the record,
    each value a %s slot; texts holds the function that writes each slot's value.
    """

    def __init__(self, fields: dict[str, FieldType]):
        super().__init__(fields)
        slots = (encode_basestring(key) + ": %s" for key in fields)
        self.template = "{" + ", ".join(slots) + "}"
        self.texts = tuple(_list_text(f.text) if f.many else f.text for f in fields.values())


# A table lists a file's fields in line order; a line's values come in that order.
# events.jsonl: one crash event, the fields in CrashEvent's order
EVENT_FIELDS = FieldTable({
    "system_id": STRING,
    "time": TIMESTAMP,
    "kind": STRING,
    "bugcheck": STRING,
    "params": STRINGS,
})
# windows.jsonl: one window of one system's sequence, times and causes parallel
WINDOW_FIELDS = FieldTable({
    "system_id": STRING,
    "window_index": INTEGER,
    "window_start": TIMESTAMP,
    "width_days": INTEGER,
    "times": TIMESTAMPS,
    "causes": STRINGS,
})
# predictions.jsonl: one answered validation pair, keys in sorted order
PREDICTION_FIELDS = FieldTable({
    "backend_id": STRING,
    "cause_answer": STRING,
    "index": INTEGER,
    "system_id": STRING,
    "target_cause": STRING,
    "target_time": STRING,
    "time_answer": STRING,
    "window_index": INTEGER,
})

# fn(value): operator.call where it exists (Python 3.11 on)
_call = getattr(operator, "call", lambda fn, value: fn(value))


def encode_line(table: FieldTable, values: Iterable[Any]) -> str:
    """One stage-file line holding values, given in the table's field order."""
    return table.template % tuple(map(_call, table.texts, values))


def decode_record(table: FieldTable, obj: Any) -> dict[str, Any]:
    """A JSON-decoded line as {field: value}, every field checked and decoded; a list as a tuple."""
    record = {}
    for key, field in table.items():
        value = obj[key]
        items = value if field.many else [value]
        if type(items) is not list or any(type(item) is not field.kind for item in items):
            raise TypeError(f"{key} must be {field.name}, got {value!r}")
        if field.decode is not None:
            items = [*map(field.decode, items)]
        record[key] = tuple(items) if field.many else items[0]
    return record


def _read_records(path: Path, table: FieldTable) -> list[dict]:
    """Each non-blank JSON line of a stage file decoded by table; a bad line is a DataError."""
    records = []
    for line_no, line in enumerate(_read_lines(path), start=1):
        if line.strip():
            try:
                obj = decode_json(line)
                if "\\u" in line and not is_utf8_encodable(obj):
                    raise ValueError("a string holds a lone surrogate")
                records.append(decode_record(table, obj))
            except (AttributeError, KeyError, TypeError, ValueError) as err:
                raise DataError(f"bad line {line_no} in {path.name}: {err!r}") from None
    return records


def _named_file(
    key: str, path: str | None, load: Callable[[str], T], default: Callable[[], T]
) -> T:
    """The file the config names at key, or the packaged default; unreadable is a config error."""
    if not path:
        return default()
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {key}: {err}") from None
    except RecordError as err:
        raise ConfigError(f"bad {key} {path}: {err}") from None


def _file_digest(path: Path) -> str | None:
    """Hex sha256 of a file's bytes, read in 64 KiB chunks; None when there is no file.

    Where this process has loaded hashlib, as a forked writer does, OpenSSL's SHA-256 hashes
    about 6x as fast as the interpreter's, which a baseline run's main process keeps to.
    """
    if not path.is_file():
        return None
    hashlib = sys.modules.get("hashlib")
    digest = sha256() if hashlib is None else hashlib.sha256()
    buffer = bytearray(1 << 16)  # one buffer for the whole file: no new bytes per chunk
    view = memoryview(buffer)
    with path.open("rb") as stream:
        while size := stream.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _pair_key(pair: LabeledPair) -> tuple[str, int]:
    return pair.system_id, pair.index


def _drained(items: list[T]) -> Iterator[T]:
    """items in order, each removed as it is yielded: the list holds none of what was taken."""
    items.reverse()
    while items:
        yield items.pop()


# --- synth ---------------------------------------------------------------------

def synth_stage(config: RunConfig, writers: Writers | None = None) -> list[RawLogRecord]:
    """The synthetic records, written to logs.jsonl; a paths.logs file is input, never written."""
    if config.paths.logs:
        raise ConfigError(f"synth never writes to paths.logs ({config.paths.logs}): unset it")
    records = generate_records(config.generator, seed=config.seed)
    _write_forked(path_of(config, LOGS_FILE), map(record_to_line, records), writers)
    return records


# --- synth and ingest, one system at a time ---------------------------------------

def _system_corpus(
    records: list[RawLogRecord], catalog: dict[str, str]
) -> tuple[CrashCorpus, int]:
    """One system's corpus and how many of records are critical; records is emptied.

    build_corpus refuses a corpus with no event; one system's may have none, and is then
    a corpus of no events that drops every critical record.
    """
    critical = filter_critical(_drained(records))
    count = len(critical)
    try:
        return build_corpus(_drained(critical), catalog=catalog), count
    except EmptyCorpus:
        return CrashCorpus([], 0, count), count


def _lines_in(text: str) -> Iterator[str]:
    """The lines of text, each ending in "\\n", sliced out one at a time."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end


def _write_data(config: RunConfig, catalog: dict[str, str]) -> None:
    """The data writer's work: events.jsonl as each system is drawn, then logs.jsonl.

    It keeps each system's log lines as one str and their instants in seconds, then
    merges the systems on the instant. heapq.merge is stable: ties keep system_id
    order, then each system's own, which is generate_records' order. With no event
    in any system it leaves no events.jsonl, as ingest_stage does.
    """
    systems: list[tuple[array, str]] = []  # each system's instants and its log lines

    def event_lines() -> Iterator[str]:
        events = 0
        for records in generate_systems(config.generator, seed=config.seed):
            if records:
                instants = array("q", [int(record.timestamp.timestamp()) for record in records])
                systems.append((instants, "\n".join(map(record_to_line, records)) + "\n"))
            corpus = _system_corpus(records, catalog)[0]
            events += len(corpus.events)
            yield from (encode_line(EVENT_FIELDS, event) + "\n" for event in corpus.events)
        if not events:
            raise EmptyCorpus(NO_EVENTS)

    with suppress(EmptyCorpus):
        _write(path_of(config, EVENTS_FILE), event_lines())
    streams = (zip(instants, _lines_in(text)) for instants, text in systems)
    merged = heapq.merge(*streams, key=itemgetter(0))
    _write(path_of(config, LOGS_FILE), map(itemgetter(1), merged))


def _drawn_corpora(
    config: RunConfig, catalog: dict[str, str], counts: dict[str, int], timings: dict[str, float]
) -> Iterator[CrashCorpus]:
    """Each system's corpus, drawn again here, in system_id order; EmptyCorpus if none has events.

    It adds each system's records, critical records, events, duplicates and dropped records
    to counts, and its seconds to timings' synth and ingest.
    """
    systems = generate_systems(config.generator, seed=config.seed)
    while True:
        started = time.perf_counter()
        records = next(systems, None)
        drawn = time.perf_counter()
        timings["synth"] += drawn - started
        if records is None:
            break
        counts["records"] += len(records)
        corpus, critical = _system_corpus(records, catalog)
        counts["critical"] += critical
        counts["events"] += len(corpus.events)
        counts["duplicates"] += corpus.duplicates
        counts["dropped_before_floor"] += corpus.dropped_before_floor
        timings["ingest"] += time.perf_counter() - drawn
        yield corpus
    if not counts["events"]:
        raise EmptyCorpus(NO_EVENTS)


# --- ingest --------------------------------------------------------------------

def ingest_stage(
    config: RunConfig,
    records: list[RawLogRecord] | None = None,
    writers: Writers | None = None,
) -> CrashCorpus:
    """The corpus of records, which it empties; None parses the logs file synth_stage wrote.

    ingest.json holds the logs' digest: when one of writers still writes the logs, it is
    written once that writer is reaped, so this stage does not wait for it.
    """
    path = path_of(config, LOGS_FILE)
    digest = None
    if records is None:
        digest = sha256()
        records = parse_lines(_read_lines(path, digest))
    counts = {"records": len(records)}
    critical = filter_critical(_drained(records))
    counts["critical"] = len(critical)
    catalog = _named_file("paths.catalog", config.paths.catalog, load_catalog, default_catalog)
    corpus = build_corpus(_drained(critical), catalog=catalog)
    counts.update(events=len(corpus.events), duplicates=corpus.duplicates,
                  dropped_before_floor=corpus.dropped_before_floor)

    lines = (encode_line(EVENT_FIELDS, e) for e in corpus.events)
    _write_forked(path_of(config, EVENTS_FILE), lines, writers)

    write_ingest = _ingest_writer(config, counts)
    if digest is not None:
        write_ingest(digest.hexdigest())
    elif writers is not None:  # synth's writer sends the logs' digest when it is reaped
        writers.then(path, write_ingest)
    else:
        write_ingest(_file_digest(path))
    return corpus


def _ingest_writer(config: RunConfig, counts: dict[str, int]) -> Callable[[str | None], None]:
    """What writes ingest.json, holding counts, once it is given the logs' digest."""

    def write_ingest(source_digest: str | None) -> None:
        _write_json(path_of(config, INGEST_FILE), {"source_digest": source_digest, **counts})

    return write_ingest


def load_events(path: Path) -> CrashCorpus:
    events = [CrashEvent(*record.values()) for record in _read_records(path, EVENT_FIELDS)]
    if not events:
        raise DataError(f"{path.name} holds no events")
    return CrashCorpus(events=events)


# --- sequence ------------------------------------------------------------------

def sequence_stage(
    config: RunConfig,
    corpus: CrashCorpus | Iterable[CrashCorpus] | None = None,
    writers: Writers | None = None,
) -> list[EventSequence]:
    """Sequences and windows of the corpus, whose events it empties; None reads events.jsonl.

    corpus may also be one corpus per system, in system_id order, each sequenced as it comes.
    """
    if corpus is None:
        corpus = load_events(path_of(config, EVENTS_FILE))
    # build_sequences reads the events once, so each is freed as its SeqEvent is made
    sequences = [
        sequence
        for part in ([corpus] if isinstance(corpus, CrashCorpus) else corpus)
        for sequence in build_sequences(dataclasses.replace(part, events=_drained(part.events)))
    ]
    width = config.window_days
    # partitioned here, encoded in the writer
    partitions = [(seq, partition_windows(seq, width)) for seq in sequences]
    _write_forked(
        path_of(config, WINDOWS_FILE),
        (line for seq, windows in partitions for line in windows_to_lines(seq, windows, width)),
        writers,
    )
    return sequences


def windows_to_lines(
    seq: EventSequence, windows: Sequence[Sequence[SeqEvent]], width_days: int
) -> list[str]:
    """The windows.jsonl lines of seq's partition into windows width_days wide."""
    if not windows:
        return []
    origin = day_floor(seq.events[0].time)
    width = timedelta(days=width_days)
    return [
        encode_line(WINDOW_FIELDS, (seq.system_id, index, origin + index * width, width_days,
                                    [e.time for e in events], [e.kind for e in events]))
        for index, events in enumerate(windows)
    ]


def rebuild_sequences(records: Iterable[dict[str, Any]]) -> list[EventSequence]:
    """Each system's windows.jsonl records joined in window_index order, systems sorted.

    A ValueError: times and causes not parallel or not increasing, or a system's windows
    not 0..n-1 once each, window n starting n widths after its first event's day.
    """
    ordered = sorted(records, key=lambda r: (r["system_id"], r["window_index"]))
    sequences = []
    for system_id, group in groupby(ordered, key=lambda r: r["system_id"]):
        windows = [*group]
        events = tuple(
            SeqEvent(time, kind)
            for window in windows
            for time, kind in zip(window["times"], window["causes"], strict=True)
        )
        if not events:
            raise ValueError(f"{system_id} has windows but no events")
        origin = day_floor(events[0].time)
        for index, window in enumerate(windows):
            offset = index * timedelta(days=window["width_days"])
            if window["window_index"] != index or window["window_start"] - origin != offset:
                raise ValueError(f"{system_id} window {window['window_index']} is not"
                                 f" window {index}, {offset.days} days after {origin}")
        sequences.append(EventSequence(system_id, events))
    return sequences


def load_sequences(config: RunConfig) -> list[EventSequence]:
    records = _read_records(path_of(config, WINDOWS_FILE), WINDOW_FIELDS)
    if not records:
        raise DataError(f"{WINDOWS_FILE} holds no windows")
    for record in records:
        if record["width_days"] != config.window_days:
            raise DataError(
                f"{WINDOWS_FILE} holds windows {record['width_days']!r} days wide,"
                f" but window_days is {config.window_days}"
            )
    try:
        return rebuild_sequences(records)
    except ValueError as err:
        raise DataError(f"{WINDOWS_FILE} does not rebuild into sequences: {err!r}") from None


# --- split ---------------------------------------------------------------------

def split_pairs(
    sequences: Sequence[EventSequence], train_n: int, val_n: int, seed: int
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Seeded disjoint sampling of (history, target) pairs.

    Validation pairs are drawn first; a training pair from the same system
    is then only eligible if its history ends strictly before every
    validation target of that system, so no history covers a held-out
    answer. Only the pairs kept are built: the draw shuffles flat pair
    positions, position p standing for enumerate_pairs(sequences)[p], and
    random.shuffle's draws depend only on the length, so the same pairs
    come out as from a shuffle of that list.
    """
    # starts[s]: the position of sequence s's first pair, index 2; the last entry is the total
    starts = [0, *accumulate(max(len(seq.events) - 1, 0) for seq in sequences)]
    total, needed = starts[-1], train_n + val_n
    if total < needed:
        raise InsufficientData(needed - total)

    positions = array("q", range(total))
    random.Random(derive_seed(seed, "split")).shuffle(positions)

    def pair_at(position: int) -> tuple[EventSequence, int]:
        s = bisect_right(starts, position) - 1
        return sequences[s], position - starts[s] + 2

    validation = [LabeledPair(*pair_at(p)) for p in islice(positions, val_n)]
    min_val_index: dict[str, int] = {}
    for pair in validation:
        current = min_val_index.get(pair.system_id)
        if current is None or pair.index < current:
            min_val_index[pair.system_id] = pair.index

    train: list[LabeledPair] = []
    for position in islice(positions, val_n, None):
        if len(train) == train_n:
            break
        seq, index = pair_at(position)
        if index < min_val_index.get(seq.system_id, index + 1):
            train.append(LabeledPair(seq, index))
    if len(train) < train_n:
        raise InsufficientData(train_n - len(train))
    return train, validation


def _count_by_system(pairs: Iterable[LabeledPair]) -> dict[str, int]:
    """Pairs per system, keyed in system order."""
    return dict(sorted(Counter(pair.system_id for pair in pairs).items()))


def split_stage(
    config: RunConfig, sequences: Sequence[EventSequence] | None = None
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Draw the (train, validation) pairs and write split.json.

    Both lists come back sorted by (system_id, index), the order split.json
    holds them in. None reads the sequences from windows.jsonl.
    """
    if sequences is None:
        sequences = load_sequences(config)
    train, validation = split_pairs(
        sequences, config.split.train_pairs, config.split.validation_pairs, config.seed
    )
    train.sort(key=_pair_key)
    validation.sort(key=_pair_key)
    payload = {
        "seed": config.seed,
        "train": [[p.system_id, p.index] for p in train],
        "validation": [[p.system_id, p.index] for p in validation],
        "counts": {"train": len(train), "validation": len(validation)},
        "validation_systems": _count_by_system(validation),
    }
    _write_json(path_of(config, SPLIT_FILE), payload)
    return train, validation


# --- predict -------------------------------------------------------------------

def _restore_pairs(
    refs: Iterable[Sequence], sequences_by_id: dict[str, EventSequence]
) -> list[LabeledPair]:
    pairs = []
    for system_id, index in refs:
        seq = sequences_by_id.get(system_id)
        if seq is None:
            raise DataError(f"split references unknown system {system_id!r}")
        if index < 2:  # a pair's history holds at least one event
            raise DataError(f"split references {system_id!r} pair {index!r}, below 2")
        pairs.append(LabeledPair(seq, index))
    return pairs


def load_split(
    config: RunConfig, sequences: Sequence[EventSequence]
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """The (train, validation) pairs split.json names, restored into sequences."""
    split = _read_json(path_of(config, SPLIT_FILE))
    sequences_by_id = {seq.system_id: seq for seq in sequences}
    try:
        return (
            _restore_pairs(split["train"], sequences_by_id),
            _restore_pairs(split["validation"], sequences_by_id),
        )
    except (DataError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"bad pair list in {SPLIT_FILE}: {err!r}") from None


def _normalization_of(
    flags: NormalizationFlags, stopwords_path: str | None
) -> NormalizationConfig:
    stopword_list = frozenset()
    if flags.remove_stopwords:
        stopword_list = _named_file(
            "paths.stopwords", stopwords_path, load_stopwords, default_stopwords
        )
    return NormalizationConfig(
        lowercase=flags.lowercase,
        strip_punctuation=flags.strip_punctuation,
        remove_stopwords=flags.remove_stopwords,
        stopword_list=stopword_list,
    )


def _predict_one(
    backend: Backend, bundle: PromptBundle
) -> PredictionRaw:
    time_answer = backend.complete(bundle.rendered_time_prompt)
    if time_answer.strip():
        cause_answer = backend.complete(render_cause_prompt(time_answer, bundle))
    else:
        cause_answer = ""
    return PredictionRaw(time_answer, cause_answer, backend.backend_id)


def _bundle_for(
    config: RunConfig,
    template,
    pair: LabeledPair,
    pool: Sequence[LabeledPair],
) -> PromptBundle:
    """The prompts for pair, its shots drawn from pool: other systems' pairs with a history."""
    shot_seed = derive_seed(config.seed, "shots", pair.system_id, pair.index)
    shots = shots_from_pairs(pool, config.shots_k, shot_seed, config.history_cap)
    return build_bundle(
        template, pair.system_id, pair.history, shots, config.history_cap
    )


def predict_stage(
    config: RunConfig,
    pairs: tuple[Sequence[LabeledPair], Sequence[LabeledPair]] | None = None,
) -> list[dict[str, Any]]:
    """Answer every validation pair, at most `width` pairs in flight.

    pairs is (train, validation); None restores them from split.json and
    windows.jsonl. Both are taken in (system_id, index) order, so the
    shots drawn from train do not depend on where the pairs came from.
    The first backend error stops submission; on any error or interrupt
    the rows finished so far are flushed before it propagates.
    """
    if pairs is None:
        pairs = load_split(config, load_sequences(config))
    train, validation = (sorted(pool, key=_pair_key) for pool in pairs)

    if config.backend.kind == "baseline":

        def answer(pair: LabeledPair) -> PredictionRaw:
            try:
                return baseline_answer(pair.history)
            except HistoryTooShort:
                return PredictionRaw("", "", "baseline")

    else:
        template = _named_file(
            "paths.template", config.paths.template, load_template, default_template
        )
        backend = make_backend(config.backend)
        systems = {pair.system_id for pair in validation}
        pools = {s: [p for p in train if p.index > 1 and p.system_id != s] for s in systems}

        def answer(pair: LabeledPair) -> PredictionRaw:
            return _predict_one(backend, _bundle_for(config, template, pair, pools[pair.system_id]))

    width = config.backend.max_in_flight if config.backend.kind == "remote-llm" else 1
    rows: dict[tuple[str, int], dict[str, Any]] = {}

    def row_of(pair: LabeledPair, raw: PredictionRaw) -> dict[str, Any]:
        target, origin = pair.target, day_floor(pair.sequence.events[0].time)
        window = window_index_of(target.time, origin, config.window_days)
        values = (raw.backend_id, raw.cause_answer, pair.index, pair.system_id,
                  target.kind, render_date(target.time), raw.time_answer, window)
        return dict(zip(PREDICTION_FIELDS, values))  # values in the table's sorted key order

    pending = iter(validation)
    try:
        if width == 1:  # answered in this thread: no worker to hand a pair to and wait on
            for pair in pending:
                rows[(pair.system_id, pair.index)] = row_of(pair, answer(pair))
        else:
            # imported here: a run with one pair in flight loads no thread pool
            from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

            with ThreadPoolExecutor(max_workers=width) as pool:
                in_flight = {pool.submit(answer, pair): pair for pair in islice(pending, width)}
                while in_flight:
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        pair = in_flight.pop(future)
                        rows[(pair.system_id, pair.index)] = row_of(pair, future.result())
                    for pair in islice(pending, len(done)):
                        in_flight[pool.submit(answer, pair)] = pair
    finally:
        ordered = [rows[key] for key in sorted(rows)]
        _write_lines(
            path_of(config, PREDICTIONS_FILE),
            (encode_line(PREDICTION_FIELDS, row.values()) for row in ordered),
        )
    return ordered


# --- evaluate ------------------------------------------------------------------

def load_predictions(config: RunConfig) -> list[dict[str, Any]]:
    """The rows of predictions.jsonl, each field checked against PREDICTION_FIELDS."""
    return _read_records(path_of(config, PREDICTIONS_FILE), PREDICTION_FIELDS)


# one report.json item row as _INDENTED writes it at depth 2, keys sorted; every score
# is a float in [0, 1], so its %r is its JSON text
_SCORES_TEXT = (
    '{\n        "f1": %r,\n        "precision": %r,\n        "recall": %r\n      }'
)
_REPORT_ROW = (
    '\n    {\n      "category": %s,\n      "index": %d,\n'
    f'      "rouge1": {_SCORES_TEXT},\n      "rougeL": {_SCORES_TEXT},\n'
    '      "status": %s,\n      "system_id": %s,\n      "window_index": %d\n    }'
)


def _report_rows(rows: Iterable[dict[str, Any]]) -> Iterator[str]:
    """report.json's "items" list as _INDENTED writes it at depth 1, one chunk per row."""
    text = encode_basestring_ascii
    separator = "["
    for row in rows:
        r1, rl = row["rouge1"], row["rougeL"]
        yield separator + _REPORT_ROW % (
            text(row["category"]), row["index"],
            r1["f1"], r1["precision"], r1["recall"], rl["f1"], rl["precision"], rl["recall"],
            text(row["status"]), text(row["system_id"]), row["window_index"],
        )
        separator = ","
    yield "[]" if separator == "[" else "\n  ]"


def report_chunks(report: dict[str, Any]) -> Iterator[str]:
    """report.json's text, as _write_json writes report, in chunks: the item rows by template.

    report["items"] may be any iterable of item dicts, a generator included: each row is
    encoded as it comes.
    """
    separator = "{"
    for key in sorted(report):
        yield f"{separator}\n  {encode_basestring_ascii(key)}: "
        if key == "items":
            yield from _report_rows(report[key])
        else:  # a value at depth 1: each of its lines one level further in
            yield _INDENTED.encode(report[key]).replace("\n", "\n  ")
        separator = ","
    yield "\n}\n" if report else "{}\n"


def evaluate_stage(
    config: RunConfig, rows: Sequence[dict[str, Any]] | None = None
) -> dict[str, Any]:
    """Score the prediction rows and write the report; None reads them from predictions.jsonl.

    Returns the report's summary, every key of report.json but "items": each item row is
    made as report.json is written and let go once encoded.
    """
    normalization = _normalization_of(config.normalization, config.paths.stopwords)
    if rows is None:
        rows = load_predictions(config)

    scored = []  # (row, extraction status, score_item's scores), in row order
    for row in rows:
        merged = merge_extractions(
            extract_prediction(row["time_answer"]), extract_prediction(row["cause_answer"])
        )
        scores = score_item(merged, row["target_time"], row["target_cause"], normalization)
        scored.append((row, merged.extraction_status, scores))
    means = aggregate([scores for _, _, scores in scored])
    backend_id = rows[-1]["backend_id"]
    scored.sort(key=lambda item: (item[0]["system_id"], item[0]["index"]))

    # one dict per distinct score, which every item and category with that score shares
    dicts: dict[RougeScore, dict[str, float]] = {}

    def score_dict(score: RougeScore) -> dict[str, float]:
        if (shared := dicts.get(score)) is None:
            shared = dicts[score] = {
                "precision": score.precision, "recall": score.recall, "f1": score.f1
            }
        return shared

    summary = {
        "backend_id": backend_id,
        "normalization": dataclasses.asdict(config.normalization),
        "item_count": len(rows),
        "categories": {
            category: {"rouge1": score_dict(r1), "rougeL": score_dict(rl)}
            for category, (r1, rl) in means.items()
        },
    }
    items = (
        {
            "system_id": row["system_id"],
            "index": row["index"],
            "window_index": row["window_index"],
            "status": status,
            "category": category,
            "rouge1": score_dict(scores[category][0]),
            "rougeL": score_dict(scores[category][1]),
        }
        for row, status, scores in scored
        for category in CATEGORIES
    )
    _write(path_of(config, REPORT_FILE), report_chunks({**summary, "items": items}))

    table_lines = ["backend_id,category,metric,precision,recall,f1"] + [
        f"{backend_id},{category},{metric},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f}"
        for category, pair in means.items()
        for metric, s in zip(("rouge1", "rougeL"), pair)
    ]
    _write_lines(path_of(config, TABLE_FILE), table_lines)
    return summary


# --- the full run ----------------------------------------------------------------

def _output_paths(config: RunConfig) -> dict[str, Path]:
    """The files a run's manifest digests, by their manifest key."""
    return {
        key: path_of(config, name)
        for files in STAGES.values() for name, key in files.items() if key is not None
    }


def _write_manifest(
    config: RunConfig,
    status: str,
    error: Exception | None,
    counts: dict[str, Any],
    validation_systems: dict[str, int],
    backend_id: str | None,
    digests: dict[Path, str],
) -> None:
    """The manifest; a file's digest from digests, the writers' report, else read here."""
    outputs = {
        name: digests.get(path) or _file_digest(path)
        for name, path in _output_paths(config).items()
    }
    manifest = {
        "status": status,
        "error": None
        if error is None
        else {"kind": type(error).__name__, "message": str(error)},
        "seed": config.seed,
        "backend_id": backend_id,
        "config": resolved_dict(config),
        "config_digest": config_digest(config),
        "item_counts": counts,
        "validation_systems": validation_systems,
        "outputs": outputs,
        "timings_file": TIMINGS_FILE,
    }
    _write_json(path_of(config, MANIFEST_FILE), manifest)


@collector_paused()
def run_all(config: RunConfig) -> dict[str, Any]:
    """Every stage in order, GC paused; manifest and timings written on failure or interrupt too.

    Returns evaluate_stage's summary of the report: every key of report.json but "items".

    Without paths.logs, one forked data writer draws the corpus and writes logs.jsonl
    and events.jsonl, while this process draws it again, one system at a time, and
    sequences each system as it comes: no list of every record or event is made here.
    """
    Path(config.paths.out_dir).mkdir(parents=True, exist_ok=True)
    # an earlier run's files would otherwise pass for this run's, and its
    # manifest for this run's if this run is stopped before writing its own
    keep = Path(config.paths.logs).resolve() if config.paths.logs else None
    for name in chain(*STAGES.values(), (MANIFEST_FILE, TIMINGS_FILE)):
        if (path := path_of(config, name)).resolve() != keep:
            path.unlink(missing_ok=True)
    timings: dict[str, float] = {}
    # the large stage files are written by forked children, all waited for or stopped here
    writers = Writers()
    # each wait is already inside its stage's seconds, so the waits are kept apart
    timings_file = {
        "seconds": timings, "writer_waits": writers.waits, "writer_usage": writers.usage
    }
    counts: dict[str, Any] = {}
    validation_systems: dict[str, int] = {}
    backend_id: str | None = None

    def timed(name, fn):
        started, recorded = time.perf_counter(), sum(timings.values())
        try:
            return fn()
        finally:
            # less what stages nested in this one recorded: synth and ingest, streamed in sequence
            timings[name] = time.perf_counter() - started - (sum(timings.values()) - recorded)

    try:
        with writers:
            if config.paths.logs:
                corpus = timed("ingest", lambda: ingest_stage(config, None, writers))
            else:  # the data writer writes logs and events; here each system is drawn again
                catalog = _named_file(
                    "paths.catalog", config.paths.catalog, load_catalog, default_catalog
                )
                data = path_of(config, LOGS_FILE), path_of(config, EVENTS_FILE)
                timed("synth", lambda: writers.fork(data, lambda: _write_data(config, catalog)))
                timings["ingest"] = 0.0
                ingested = dict.fromkeys(
                    ("records", "critical", "events", "duplicates", "dropped_before_floor"), 0
                )
                corpus = _drawn_corpora(config, catalog, ingested, timings)
            sequences = timed("sequence", lambda: sequence_stage(config, corpus, writers))
            corpus = None  # the sequences hold what later stages need
            if not config.paths.logs:  # the data writer sends the logs' digest when it is reaped
                writers.then(data[0], _ingest_writer(config, ingested))
            counts["events"] = sum(len(seq.events) for seq in sequences)
            counts["systems"] = len(sequences)
            counts["pairs"] = sum(max(len(seq.events) - 1, 0) for seq in sequences)
            train, validation = timed("split", lambda: split_stage(config, sequences))
            counts["train"] = len(train)
            counts["validation"] = len(validation)
            validation_systems = _count_by_system(validation)
            predictions = timed("predict", lambda: predict_stage(config, (train, validation)))
            counts["predictions"] = len(predictions)
            backend_id = predictions[0]["backend_id"] if predictions else None
            report = timed("evaluate", lambda: evaluate_stage(config, predictions))
    except BaseException as err:
        # a stage's error, a failed write, an interrupt or a failed writer gets a failed
        # manifest; a bug, none
        if err is not writers.failure and not isinstance(
            err, (ConfigError, DataError, BackendError, OSError, KeyboardInterrupt)
        ):
            raise
        predictions_path = path_of(config, PREDICTIONS_FILE)
        lines = _read_lines(predictions_path) if predictions_path.is_file() else ()
        counts.setdefault("predictions", sum(1 for line in lines if line.strip()))
        with suppress(OSError):  # if the manifest cannot be written either, err is raised
            _write_manifest(
                config, "failed", err, counts, validation_systems, backend_id, writers.digests
            )
            _write_json(path_of(config, TIMINGS_FILE), timings_file)
        raise

    _write_manifest(config, "ok", None, counts, validation_systems, backend_id, writers.digests)
    _write_json(path_of(config, TIMINGS_FILE), timings_file)
    return report
