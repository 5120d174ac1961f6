"""Independent reference implementations the real code is checked against.

Deliberately naive: the unigram overlap marks reference tokens off one by
one, and the LCS enumerates subsequences outright. Slow but obviously
correct, which is the point. The synth, build_corpus and baseline oracles
are the plain loops their fast versions must match draw for draw and
record for record.
"""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta
from functools import reduce
from itertools import accumulate, combinations
from operator import add
from typing import Sequence

from crashcast._seed import derive_seed
from crashcast.ingest import (
    DEFAULT_EPOCH_FLOOR,
    CrashEvent,
    RawLogRecord,
    canonical_code,
    normalize_cause,
)
from crashcast.predictor import MIN_SPAN_DAYS
from crashcast.sequencer import SeqEvent
from crashcast.synthgen import GeneratorConfig


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
    """One system's records drawn with choices, randrange and choice, as generate_records draws."""
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
    """Every system's records, sorted as generate_records sorts them."""
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
    epoch_floor: datetime = DEFAULT_EPOCH_FLOOR,
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


def baseline_rates_loop(history: Sequence[SeqEvent]) -> tuple[dict[str, float], float]:
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
