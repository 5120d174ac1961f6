"""Independent reference implementations the real code is checked against.

Deliberately naive: the unigram overlap marks reference tokens off one by
one, and the LCS enumerates subsequences outright. Slow but obviously
correct, which is the point. The synth, build_corpus, split and baseline
oracles are the plain loops their fast versions must match draw for draw
and record for record, and run_by_reference strings them into a whole
baseline run written with json.dumps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from datetime import datetime, timedelta, timezone
from functools import reduce
from itertools import accumulate, combinations
from operator import add
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from crashcast._seed import derive_seed
from crashcast.config import RunConfig
from crashcast.errors import EmptyCorpus, InsufficientData
from crashcast.ingest import (
    CrashEvent,
    RawLogRecord,
    canonical_code,
    default_catalog,
    instant_of,
    load_catalog,
    normalize_cause,
    seconds_of,
)
from crashcast.postprocess import (
    default_stopwords,
    extract_prediction,
    load_stopwords,
    merge_extractions,
    tokenize,
)
from crashcast.predictor import MIN_SPAN_DAYS
from crashcast.prompt import render_answer_sentence
from crashcast.sequencer import EventSequence, LabeledPair, enumerate_pairs
from crashcast.synthgen import GeneratorConfig


# ingest's DEFAULT_EPOCH_FLOOR as the instant it stands for
EPOCH_FLOOR = datetime(2000, 1, 1, tzinfo=timezone.utc)


def in_seconds(items: Sequence[tuple]) -> list[tuple]:
    """Records or events made here, their instants (the second field) as UTC epoch seconds,
    the form crashcast holds them in."""
    return [item._replace(**{item._fields[1]: seconds_of(item[1])}) for item in items]


def in_datetimes(items: Sequence[tuple]) -> list[tuple]:
    """crashcast's records or events, their instants as the UTC datetimes these loops take."""
    return [item._replace(**{item._fields[1]: instant_of(item[1])}) for item in items]


class Event(NamedTuple):
    """One event of a reference sequence."""

    time: datetime
    kind: str


def in_events(sequence: EventSequence) -> list[Event]:
    """crashcast's sequence as the events these loops take."""
    return [Event(instant_of(time), kind) for time, kind in zip(sequence.times, sequence.kinds)]


def clipped_overlap_bruteforce(candidate: Sequence[str], reference: Sequence[str]) -> int:
    """Count candidate tokens that can each consume one unused reference token."""
    used = [False] * len(reference)
    overlap = 0
    for token in candidate:
        for i, ref_token in enumerate(reference):
            if not used[i] and ref_token == token:
                used[i] = True
                overlap += 1
                break
    return overlap


def _is_subsequence(needle: Sequence[str], haystack: Sequence[str]) -> bool:
    it = iter(haystack)
    return all(token in it for token in needle)


def lcs_bruteforce(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence by exhaustive enumeration (len ≤ 12 only)."""
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    if len(short) > 12:
        raise ValueError("exhaustive enumeration capped at 12 tokens")
    for length in range(len(short), 0, -1):
        for positions in combinations(range(len(short)), length):
            subsequence = [short[i] for i in positions]
            if _is_subsequence(subsequence, long):
                return length
    return 0


# --- synth: the records as the random API draws them ---------------------------------

def _poisson_count(rng: random.Random, threshold: float, chunks: int) -> int:
    count = 0
    for _ in range(chunks):
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
    return count


def system_records_by_random_api(
    config: GeneratorConfig, seed: int, system_index: int
) -> list[RawLogRecord]:
    """One system's records drawn with choices, randrange and choice, as generate_systems draws."""
    catalog = config.resolved_catalog()
    labels = [(code, label) for code, label, _ in catalog]
    cum_weights = list(accumulate(weight for _, _, weight in catalog))
    rng = random.Random(derive_seed(seed, "synth", system_index))
    system_id = f"host-{system_index:03d}"

    multipliers = [1.0] * 7
    if config.bursty:
        raw = [rng.uniform(0.25, 2.0) for _ in range(7)]
        mean = reduce(add, raw, 0.0) / 7
        multipliers = [value / mean for value in raw]
    draws = []
    for rate in (config.per_system_rate * value for value in multipliers):
        chunks = math.ceil(rate / 500)
        draws.append((math.exp(-(rate / chunks)), chunks))

    instants: list[datetime] = []
    for day in range(config.days):
        day_start = config.start_date + timedelta(days=day)
        for _ in range(_poisson_count(rng, *draws[day_start.weekday()])):
            instants.append(day_start + timedelta(seconds=rng.randrange(86400)))
    instants.sort()

    records = []
    for instant in instants:
        code, label = rng.choices(labels, cum_weights=cum_weights)[0]
        records.append(
            RawLogRecord(system_id, instant, 41, code, (f"0x{rng.getrandbits(16):X}", "0x0"), label)
        )
    for _ in range(round(config.noise_fraction * len(records))):
        instant = config.start_date + timedelta(
            days=rng.randrange(config.days), seconds=rng.randrange(86400)
        )
        records.append(RawLogRecord(system_id, instant, rng.choice((1074, 6008, 7001))))
    return records


def records_by_random_api(config: GeneratorConfig, seed: int) -> list[RawLogRecord]:
    """Every system's records, in the order logs.jsonl holds them."""
    records = [
        record
        for index in range(config.n_systems)
        for record in system_records_by_random_api(config, seed, index)
    ]
    records.sort(
        key=lambda r: (r.timestamp, r.system_id, r.event_id, r.bugcheck_code or "", r.params)
    )
    return records


# --- ingest and the baseline: the loops the fast paths replace ------------------------

def build_corpus_loop(
    records: Sequence[RawLogRecord],
    catalog: dict[str, str],
    epoch_floor: datetime = EPOCH_FLOOR,
) -> tuple[list[CrashEvent], int, int]:
    """(events, duplicates, dropped_before_floor), one record at a time, first of a key kept."""
    seen = set()
    events = []
    duplicates = dropped = 0
    for record in records:
        if record.timestamp < epoch_floor:
            dropped += 1
            continue
        code = canonical_code(record.bugcheck_code) if record.bugcheck_code else ""
        key = (record.system_id, record.timestamp, code)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        if record.cause is not None and normalize_cause(record.cause):
            kind = normalize_cause(record.cause)
        elif record.bugcheck_code is not None:
            kind = catalog.get(code, f"bugcheck {code.lower()}")
        else:
            kind = "unknown"
        events.append(CrashEvent(record.system_id, record.timestamp, kind, code, record.params))
    events.sort(key=lambda e: (e.system_id, e.time, e.bugcheck_code))
    return events, duplicates, dropped


def baseline_rates_loop(history: Sequence[Event]) -> tuple[dict[str, float], float]:
    """(rates, total_rate) as a dict counted one event at a time and summed left to right."""
    span_days = max((history[-1].time - history[0].time) / timedelta(days=1), MIN_SPAN_DAYS)
    counts: dict[str, int] = {}
    for event in history:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    rates = {kind: count / span_days for kind, count in counts.items()}
    total = 0.0
    for rate in rates.values():
        total += rate
    return rates, total


def split_by_reference(
    sequences: Sequence[EventSequence], train_n: int, val_n: int, seed: int
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """split_pairs as a shuffle of every pair: validation first, then each pair left whose
    history ends before every validation target of its system, the first train_n of them."""
    pairs = enumerate_pairs(sequences)
    if len(pairs) < train_n + val_n:
        raise InsufficientData(train_n + val_n - len(pairs))
    random.Random(derive_seed(seed, "split")).shuffle(pairs)
    validation = pairs[:val_n]
    train = [
        pair for pair in pairs[val_n:]
        if all(pair.index < held.index for held in validation if held.system_id == pair.system_id)
    ]
    if len(train) < train_n:
        raise InsufficientData(train_n - len(train))
    return train[:train_n], validation


# --- a whole run: plain loops, json.dumps, no forks and no templates ---------------------

def _stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json_lines(path: Path, objects: list[dict[str, Any]]) -> None:
    text = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects)
    path.write_bytes(text.encode("utf-8"))


def _write_indented(path: Path, payload: Any) -> None:
    path.write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _prf(overlap: int, candidate_len: int, reference_len: int) -> dict[str, float]:
    if candidate_len == 0 or reference_len == 0:
        return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    precision = overlap / candidate_len
    recall = overlap / reference_len
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


def _lcs_table(a: Sequence[str], b: Sequence[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _baseline_answers(history: Sequence[Event]) -> tuple[str, str]:
    """(time answer, cause answer): the next crash after the mean wait, of the likeliest kind;
    none for a history too short to fit or a wait that ends past the last datetime."""
    if len(history) < 2:
        return "", ""
    rates, total = baseline_rates_loop(history)
    best = None
    for kind, rate in rates.items():
        if best is None or rate > rates[best] or (rate == rates[best] and kind < best):
            best = kind
    try:
        when = history[-1].time + timedelta(days=1.0 / total)
    except OverflowError:
        return "", ""
    sentence = render_answer_sentence(when.date().isoformat(), best)
    return sentence, sentence


def run_by_reference(config: RunConfig, out_dir: Path) -> None:
    """Write what run_all writes for a baseline run of config, all seven outputs and ingest.json.

    Raises EmptyCorpus or InsufficientData where the run does.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = config.generator
    seed = generator.seed if generator.seed is not None else config.seed

    # synth
    records = records_by_random_api(generator, seed)
    log_lines = []
    for record in records:
        obj: dict[str, Any] = {
            "guid": record.system_id, "ts": _stamp(record.timestamp), "event_id": record.event_id
        }
        if record.bugcheck_code is not None:
            obj["bugcheck"] = record.bugcheck_code
        if record.params:
            obj["params"] = list(record.params)
        if record.cause is not None:
            obj["cause"] = record.cause
        log_lines.append(obj)
    _write_json_lines(out_dir / "logs.jsonl", log_lines)

    # ingest
    critical = [record for record in records if record.event_id == 41]
    catalog = load_catalog(config.paths.catalog) if config.paths.catalog else default_catalog()
    events, duplicates, dropped = build_corpus_loop(critical, catalog)
    if not events:
        raise EmptyCorpus("no events")
    _write_json_lines(out_dir / "events.jsonl", [
        {"system_id": e.system_id, "time": _stamp(e.time), "kind": e.kind,
         "bugcheck": e.bugcheck_code, "params": list(e.params)}
        for e in events
    ])
    _write_indented(out_dir / "ingest.json", {
        "source_digest": hashlib.sha256((out_dir / "logs.jsonl").read_bytes()).hexdigest(),
        "records": len(records),
        "critical": len(critical),
        "events": len(events),
        "duplicates": duplicates,
        "dropped_before_floor": dropped,
    })

    # sequence: ties pushed one second on, then abutting windows from the first event's midnight
    sequences: dict[str, list[Event]] = {}
    for event in events:
        sequences.setdefault(event.system_id, []).append(Event(event.time, event.kind))
    width = timedelta(days=config.window_days)
    windows = []
    for system_id in sorted(sequences):
        shifted: list[Event] = []
        for event in sorted(sequences[system_id], key=lambda e: (e.time, e.kind)):
            if shifted and event.time <= shifted[-1].time:
                event = Event(shifted[-1].time + timedelta(seconds=1), event.kind)
            shifted.append(event)
        sequences[system_id] = shifted
        origin = shifted[0].time.replace(hour=0, minute=0, second=0)
        for index in range((shifted[-1].time - origin) // width + 1):
            inside = [e for e in shifted if (e.time - origin) // width == index]
            windows.append({
                "system_id": system_id, "window_index": index,
                "window_start": _stamp(origin + index * width), "width_days": config.window_days,
                "times": [_stamp(e.time) for e in inside], "causes": [e.kind for e in inside],
            })
    _write_json_lines(out_dir / "windows.jsonl", windows)

    # split: validation first, then training pairs ending before each system's validation targets
    pairs = [
        (system_id, index)
        for system_id in sorted(sequences)
        for index in range(2, len(sequences[system_id]) + 1)
    ]
    train_n, val_n = config.split.train_pairs, config.split.validation_pairs
    if len(pairs) < train_n + val_n:
        raise InsufficientData(train_n + val_n - len(pairs))
    random.Random(derive_seed(config.seed, "split")).shuffle(pairs)
    validation = pairs[:val_n]
    train = []
    for system_id, index in pairs[val_n:]:
        if all(index < other for other_id, other in validation if other_id == system_id):
            train.append((system_id, index))
    if len(train) < train_n:
        raise InsufficientData(train_n - len(train))
    train = sorted(train[:train_n])
    validation.sort()
    per_system: dict[str, int] = {}
    for system_id, _ in validation:
        per_system[system_id] = per_system.get(system_id, 0) + 1
    _write_indented(out_dir / "split.json", {
        "seed": config.seed,
        "train": [list(pair) for pair in train],
        "validation": [list(pair) for pair in validation],
        "counts": {"train": len(train), "validation": len(validation)},
        "validation_systems": per_system,
    })

    # predict
    rows = []
    for system_id, index in validation:
        sequence = sequences[system_id]
        target = sequence[index - 1]
        time_answer, cause_answer = _baseline_answers(sequence[: index - 1])
        origin = sequence[0].time.replace(hour=0, minute=0, second=0)
        rows.append({
            "backend_id": "baseline", "cause_answer": cause_answer, "index": index,
            "system_id": system_id, "target_cause": target.kind,
            "target_time": target.time.date().isoformat(), "time_answer": time_answer,
            "window_index": (target.time - origin) // width,
        })
    _write_json_lines(out_dir / "predictions.jsonl", rows)

    # evaluate
    flags = config.normalization
    stopwords: frozenset[str] = frozenset()
    if flags.remove_stopwords:
        paths = config.paths
        stopwords = load_stopwords(paths.stopwords) if paths.stopwords else default_stopwords()
    categories = ("time", "cause", "full")
    items = []
    for row in rows:
        merged = merge_extractions(
            extract_prediction(row["time_answer"]), extract_prediction(row["cause_answer"])
        )
        status = merged.extraction_status
        candidates = {
            "time": merged.time_text or "",
            "cause": merged.cause_text or "",
            "full": "" if status == "none" else merged.full_text,
        }
        references = {
            "time": row["target_time"],
            "cause": row["target_cause"],
            "full": render_answer_sentence(row["target_time"], row["target_cause"]),
        }
        for category in categories:
            candidate = tokenize(candidates[category], flags, stopwords)
            reference = tokenize(references[category], flags, stopwords)
            items.append({
                "system_id": row["system_id"], "index": row["index"],
                "window_index": row["window_index"], "status": status, "category": category,
                "rouge1": _prf(clipped_overlap_bruteforce(candidate, reference),
                               len(candidate), len(reference)),
                "rougeL": _prf(_lcs_table(candidate, reference), len(candidate), len(reference)),
            })
    means: dict[str, dict[str, dict[str, float]]] = {}
    for category in categories:
        means[category] = {}
        for metric in ("rouge1", "rougeL"):
            scores = [item[metric] for item in items if item["category"] == category]
            means[category][metric] = {}
            for part in ("precision", "recall", "f1"):
                total = 0.0
                for score in scores:
                    total += score[part]
                means[category][metric][part] = total / len(scores)
    _write_indented(out_dir / "report.json", {
        "backend_id": "baseline",
        "normalization": dataclasses.asdict(flags),
        "item_count": len(rows),
        "categories": means,
        "items": items,
    })
    table = ["backend_id,category,metric,precision,recall,f1"]
    for category in categories:
        for metric in ("rouge1", "rougeL"):
            score = means[category][metric]
            table.append(f"baseline,{category},{metric},{score['precision']:.6f},"
                         f"{score['recall']:.6f},{score['f1']:.6f}")
    (out_dir / "table.csv").write_bytes("".join(line + "\n" for line in table).encode("utf-8"))
