"""Drive the stages end to end and keep their file contracts.

STAGES lists the six stages in run order and the files each writes, and
path_of places every file: under paths.out_dir, except the logs when
paths.logs names them. Each stage writes its own files once. Run alone, a
stage reads only the files the previous stage declared, so any stage can
be rerun; inside `run_all` each stage takes the previous stage's
in-memory result instead, and no file is parsed back, logs.jsonl
included: synth hands its records to ingest, which parses a logs file
only when `paths.logs` names one (synth then does not run). Each
JSON-lines stage file past the logs (events.jsonl, windows.jsonl,
predictions.jsonl) has one field table here, which both writes its lines
and checks and decodes them when read. The full run also writes a
manifest that pins the resolved config, the seed, the backend, and the
digests of every output; wall-clock timings go to a separate file so the
manifest stays byte-identical across identical runs.

The three large files (logs.jsonl, events.jsonl, windows.jsonl) are each
encoded and written by a child made with os.fork(), so this module needs
POSIX, while this process goes on to the next stage. `run_all` waits for
every child before its manifest; a stage called alone waits for its child
before it returns. The child only encodes, writes and hashes: it logs,
prints and imports nothing. It sends the hex SHA-256 of the file it wrote
through a pipe, so this process reads none of the three back, and leaves
with os._exit, its exit status its report of failure: 0, the errno of the
OSError that stopped it, or 255. ingest.json, which holds the logs'
digest, is written once the logs' writer is reaped. Every digest comes
from `_seed.sha256`, the interpreter's own, so a baseline run loads no
OpenSSL.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import operator
import os
import random
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from datetime import timedelta
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from ._seed import derive_seed, sha256
from .config import NormalizationFlags, RunConfig, config_digest, resolved_dict
from .errors import (
    BackendError,
    ConfigError,
    DataError,
    InsufficientData,
    HistoryTooShort,
    RecordError,
)
from .ingest import (
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
from .metrics import CATEGORIES, aggregate, score_item
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
    enumerate_pairs,
    partition_windows,
    window_index_of,
)
# generate_corpus is not called here: bench/tracer.py wraps it by its name in this module
from .synthgen import generate_corpus, generate_records

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


def _writer_error(path: Path, reason: str) -> RuntimeError:
    """A writer's failure past an OSError, with filename and strerror as an OSError has them."""
    error = RuntimeError(f"the writer of {path} {reason}")
    error.filename, error.strerror = str(path), f"its writer {reason}"
    return error


class Writers:
    """Forked children, each writing one file with _write_lines while this process goes on.

    Each child also hashes the file it wrote and sends the hex digest back
    through a pipe opened before the fork; digests holds them by path, and
    then() defers what needs one until its writer is reaped. Leaving the
    with block waits for every child, so the files the run got to are
    whole. Left normally, it then raises the first child's failure; left
    on an exception, it only removes a failed child's .partial file, and
    the exception goes on. An interrupt while it waits kills the children
    that are left. No child, and no pipe, outlives the block. A stage given
    no Writers makes its own, so it returns with its file whole. failure is
    the error of the first writer that could not start or failed, raised or
    not.
    """

    def __init__(self) -> None:
        self._live: dict[Path, tuple[int, int]] = {}  # path: pid of its writer, its pipe's read end
        self._then: dict[Path, Callable[[str], Any]] = {}  # path: called with its digest when reaped
        self.digests: dict[Path, str] = {}  # path: hex sha256 of the file its writer wrote
        self.waits: dict[str, float] = {}  # file name: seconds wait() blocked on its writer
        self.failure: Exception | None = None

    def __enter__(self) -> Writers:
        return self

    def __exit__(self, kind, err, tb) -> None:
        try:
            self.wait(*self._live, raising=kind is None)
        finally:
            self.stop()

    def start(self, path: Path, lines: Iterable[str]) -> None:
        """Write lines to path from a forked child, which only encodes, writes and hashes."""
        pipe: tuple[int, ...] = ()
        try:
            pipe = os.pipe()
            pid = os.fork()
        except OSError as err:  # no writer to start is a failure to write path
            for fd in pipe:
                os.close(fd)
            failure = OSError(err.errno, err.strerror, str(path))
            self.failure = self.failure or failure
            raise failure from None
        read_end, write_end = pipe
        if pid == 0:  # the child exits 0, with its OSError's errno (1-254), or with 255
            code = 255
            try:
                os.nice(10)  # where it contends for a core, the next stage goes first
                _write_lines(path, lines)
                os.write(write_end, _file_digest(path).encode())  # 64 bytes: one atomic write
                code = 0
            except OSError as err:
                code = err.errno if err.errno in range(1, 255) else 255
            finally:
                os._exit(code)
        os.close(write_end)  # so the read end sees end of file once the child is gone
        self._live[path] = pid, read_end

    def then(self, path: Path, fn: Callable[[str], Any]) -> None:
        """Call fn with path's digest once its writer is reaped whole; at once if none runs.

        With no writer of path left, the digest is the one it sent, else the file's, read here.
        """
        if path in self._live:
            self._then[path] = fn
        else:
            fn(self.digests.get(path) or _file_digest(path))

    def wait(self, *paths: Path, raising: bool = True) -> None:
        """Reap the writers of paths that still run, then raise the first failure if raising.

        A failed writer's .partial file is removed: a killed child cannot remove it.
        """
        failure: Exception | None = None
        for path in paths:
            if path not in self._live:
                continue
            pid, read_end = self._live[path]
            started = time.perf_counter()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            self.waits[path.name] = time.perf_counter() - started
            del self._live[path]
            try:
                sent = os.read(read_end, 65)  # whole: the child wrote it at once, then exited
            finally:
                os.close(read_end)
            then = self._then.pop(path, None)
            if code:  # a signal's is negative
                _partial_of(path).unlink(missing_ok=True)
                failure = failure or (
                    OSError(code, os.strerror(code), str(path)) if 0 < code < 255
                    else _writer_error(path, f"failed with status {code}")
                )
            elif len(sent) != 64:
                failure = failure or _writer_error(path, "exited 0 without a full digest")
            else:
                self.digests[path] = digest = sent.decode("ascii")
                try:
                    if then is not None:
                        then(digest)
                except Exception as err:  # what waited for the digest failed: ingest.json's write
                    failure = failure or err
        self.failure = self.failure or failure
        if failure is not None and raising:
            raise failure

    def stop(self) -> None:
        """Kill every writer that still runs, reap it, close its pipe and remove its .partial file."""
        self._then.clear()
        for path, (pid, read_end) in [*self._live.items()]:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(read_end)
            del self._live[path]
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
    """Hex sha256 of a file's bytes, read in 64 KiB chunks; None when there is no file."""
    if not path.is_file():
        return None
    digest = sha256()
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

    def write_ingest(source_digest: str | None) -> None:
        _write_json(path_of(config, INGEST_FILE), {"source_digest": source_digest, **counts})

    if digest is not None:
        write_ingest(digest.hexdigest())
    elif writers is not None:  # synth's writer sends the logs' digest when it is reaped
        writers.then(path, write_ingest)
    else:
        write_ingest(_file_digest(path))
    return corpus


def load_events(path: Path) -> CrashCorpus:
    events = [CrashEvent(*record.values()) for record in _read_records(path, EVENT_FIELDS)]
    if not events:
        raise DataError(f"{path.name} holds no events")
    return CrashCorpus(events=events)


# --- sequence ------------------------------------------------------------------

def sequence_stage(
    config: RunConfig, corpus: CrashCorpus | None = None, writers: Writers | None = None
) -> list[EventSequence]:
    """Sequences and windows of the corpus, whose events it empties; None reads events.jsonl."""
    if corpus is None:
        corpus = load_events(path_of(config, EVENTS_FILE))
    # build_sequences reads the events once, so each is freed as its SeqEvent is made
    sequences = build_sequences(dataclasses.replace(corpus, events=_drained(corpus.events)))
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
    answer.
    """
    pairs = enumerate_pairs(sequences)
    needed = train_n + val_n
    if len(pairs) < needed:
        raise InsufficientData(needed - len(pairs))

    rng = random.Random(derive_seed(seed, "split"))
    shuffled = list(pairs)
    rng.shuffle(shuffled)

    validation = shuffled[:val_n]
    min_val_index: dict[str, int] = {}
    for pair in validation:
        current = min_val_index.get(pair.system_id)
        if current is None or pair.index < current:
            min_val_index[pair.system_id] = pair.index

    candidates = [
        pair
        for pair in shuffled[val_n:]
        if pair.index < min_val_index.get(pair.system_id, pair.index + 1)
    ]
    if len(candidates) < train_n:
        raise InsufficientData(train_n - len(candidates))
    train = candidates[:train_n]
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


def _answered_here(answer: Callable[[T], Any], pair: T) -> Future:
    """answer(pair) called in this thread, its result in a finished Future; an error propagates."""
    future: Future = Future()
    future.set_result(answer(pair))
    return future


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
        # one pair at a time is answered in this thread: no worker to hand it to and wait on
        with ThreadPoolExecutor(max_workers=width) if width > 1 else nullcontext() as pool:
            submit = _answered_here if pool is None else pool.submit
            in_flight = {submit(answer, pair): pair for pair in islice(pending, width)}
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    pair = in_flight.pop(future)
                    rows[(pair.system_id, pair.index)] = row_of(pair, future.result())
                for pair in islice(pending, len(done)):
                    in_flight[submit(answer, pair)] = pair
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


def _report_rows(rows: Sequence[dict[str, Any]]) -> Iterator[str]:
    """report.json's "items" list as _INDENTED writes it at depth 1, one chunk per row."""
    if not rows:
        yield "[]"
        return
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
    yield "\n  ]"


def report_chunks(report: dict[str, Any]) -> Iterator[str]:
    """report.json's text, as _write_json writes report, in chunks: the item rows by template."""
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
    """Score the prediction rows; None reads them from predictions.jsonl."""
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
    by_pair = sorted(scored, key=lambda item: (item[0]["system_id"], item[0]["index"]))

    def score_dict(score) -> dict[str, float]:
        return {"precision": score.precision, "recall": score.recall, "f1": score.f1}

    report = {
        "backend_id": backend_id,
        "normalization": dataclasses.asdict(config.normalization),
        "item_count": len(rows),
        "categories": {
            category: {"rouge1": score_dict(r1), "rougeL": score_dict(rl)}
            for category, (r1, rl) in means.items()
        },
        "items": [
            {
                "system_id": row["system_id"],
                "index": row["index"],
                "window_index": row["window_index"],
                "status": status,
                "category": category,
                "rouge1": score_dict(scores[category][0]),
                "rougeL": score_dict(scores[category][1]),
            }
            for row, status, scores in by_pair
            for category in CATEGORIES
        ],
    }
    _write(path_of(config, REPORT_FILE), report_chunks(report))

    table_lines = ["backend_id,category,metric,precision,recall,f1"] + [
        f"{backend_id},{category},{metric},{s.precision:.6f},{s.recall:.6f},{s.f1:.6f}"
        for category, pair in means.items()
        for metric, s in zip(("rouge1", "rougeL"), pair)
    ]
    _write_lines(path_of(config, TABLE_FILE), table_lines)
    return report


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
    """Every stage in order, GC paused; manifest and timings written on failure or interrupt too."""
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
    timings_file = {"seconds": timings, "writer_waits": writers.waits}
    counts: dict[str, Any] = {}
    validation_systems: dict[str, int] = {}
    backend_id: str | None = None

    def timed(name, fn):
        started = time.perf_counter()
        try:
            return fn()
        finally:
            timings[name] = time.perf_counter() - started

    try:
        with writers:
            records = (
                None if config.paths.logs else timed("synth", lambda: synth_stage(config, writers))
            )
            corpus = timed("ingest", lambda: ingest_stage(config, records, writers))
            records = None  # the corpus holds what later stages need
            counts["events"] = len(corpus.events)
            sequences = timed("sequence", lambda: sequence_stage(config, corpus, writers))
            corpus = None  # the sequences hold what later stages need
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
        # a stage's error, an interrupt or a failed writer gets a failed manifest; a bug, none
        if err is not writers.failure and not isinstance(
            err, (ConfigError, DataError, BackendError, KeyboardInterrupt)
        ):
            raise
        predictions_path = path_of(config, PREDICTIONS_FILE)
        lines = _read_lines(predictions_path) if predictions_path.is_file() else ()
        counts.setdefault("predictions", sum(1 for line in lines if line.strip()))
        _write_manifest(
            config, "failed", err, counts, validation_systems, backend_id, writers.digests
        )
        _write_json(path_of(config, TIMINGS_FILE), timings_file)
        raise

    _write_manifest(config, "ok", None, counts, validation_systems, backend_id, writers.digests)
    _write_json(path_of(config, TIMINGS_FILE), timings_file)
    return report
