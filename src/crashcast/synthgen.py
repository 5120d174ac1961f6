"""Generate seeded synthetic crash records, one list per system, for the raw log format.

Each system is an independent homogeneous Poisson process over a horizon
of whole days, with causes drawn from a weighted catalog. A bursty mode
modulates the rate with per-system day-of-week multipliers so the data
stops matching the baseline predictor's model family. Noise records with
non-critical event ids are mixed in for filter testing. Identical configs
produce byte-identical output. Every draw goes through random() or
getrandbits(), in the order and the way choices(), randrange() and choice()
of the random API would make it, so the records are the same on Python
3.10 to 3.13 and the per-record loops skip those methods' overhead.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import reduce
from itertools import accumulate
from operator import add, itemgetter
from typing import Iterator

from ._seed import derive_seed
from .errors import ConfigError
from .ingest import BUGCHECK_RE, DAY, RawLogRecord, default_catalog, seconds_of

DEFAULT_START = datetime(2021, 1, 1, tzinfo=timezone.utc)
DEFAULT_DOMINANT_CODE = "0x9F"
DEFAULT_DOMINANT_WEIGHT = 0.90

NOISE_EVENT_IDS = (1074, 6008, 7001)

_SECONDS_BITS = DAY.bit_length()
_KNUTH_MAX_RATE = 500  # Knuth's method needs exp(-rate) a normal float, so rate under ~708
_SYSTEM_ID = "host-{:03d}".format  # of a system index

# a run's size: synth draws once per system-day and holds about 265 B per record it makes
MAX_SYSTEM_DAYS = 10_000_000  # n_systems * days
MAX_RECORDS = 10_000_000  # expected records, about 2.7 GB


def default_cause_catalog() -> tuple[tuple[str, str, float], ...]:
    """The shipped code catalog with one dominant cause and the rest uniform."""
    catalog = default_catalog()
    if DEFAULT_DOMINANT_CODE not in catalog:
        raise ConfigError(f"dominant code {DEFAULT_DOMINANT_CODE} not in the shipped catalog")
    rest = [code for code in sorted(catalog) if code != DEFAULT_DOMINANT_CODE]
    share = (1.0 - DEFAULT_DOMINANT_WEIGHT) / len(rest)
    entries = [(DEFAULT_DOMINANT_CODE, catalog[DEFAULT_DOMINANT_CODE], DEFAULT_DOMINANT_WEIGHT)]
    entries.extend((code, catalog[code], share) for code in rest)
    return tuple(entries)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int | None = None
    n_systems: int = 8
    days: int = 540
    per_system_rate: float = 0.5
    cause_catalog: tuple[tuple[str, str, float], ...] | None = None
    start_date: datetime = DEFAULT_START
    noise_fraction: float = 0.2
    bursty: bool = False

    def __post_init__(self):
        if self.n_systems < 1:
            raise ConfigError("n_systems must be at least 1")
        if self.days < 1:
            raise ConfigError("days must be at least 1")
        if not self.per_system_rate > 0:
            raise ConfigError("per_system_rate must be positive")
        if self.noise_fraction < 0:
            raise ConfigError("noise_fraction must not be negative")
        system_days = self.n_systems * self.days
        if system_days > MAX_SYSTEM_DAYS:
            raise ConfigError(
                f"n_systems * days must be at most {MAX_SYSTEM_DAYS}, got {system_days}"
            )
        expected = self.per_system_rate * system_days * (1 + self.noise_fraction)
        if not expected <= MAX_RECORDS:  # NaN too
            raise ConfigError("per_system_rate * n_systems * days * (1 + noise_fraction)"
                              f" must be at most {MAX_RECORDS} records, got {expected:.10g}")
        # ingest takes the records as generated, so each must equal what its log line parses
        # to (a UTC instant, a code the log's bugcheck pattern accepts); and the manifest
        # holds start_date as a date, so it must be midnight to rebuild the same records
        start = self.start_date
        if not isinstance(start, datetime) or start.tzinfo is not timezone.utc:
            raise ConfigError(f"start_date must be a UTC datetime, got {start!r}")
        if start.time() != datetime.min.time():
            raise ConfigError(f"start_date must be midnight UTC, got {start.isoformat()}")
        # a log timestamp has a four-digit year, so the horizon must lie within 1000-9999
        if self.start_date.year < 1000:
            raise ConfigError(
                f"start_date must be in year 1000 or later, got {self.start_date.date().isoformat()}"
            )
        try:
            self.start_date + timedelta(days=self.days - 1, seconds=DAY - 1)
        except OverflowError:
            raise ConfigError(
                f"start_date {self.start_date.date().isoformat()} plus {self.days} days"
                " runs past the year 9999"
            ) from None
        if self.cause_catalog is not None:
            if not self.cause_catalog:
                raise ConfigError("cause_catalog must not be empty")
            for code, label, weight in self.cause_catalog:
                if not (isinstance(code, str) and BUGCHECK_RE.fullmatch(code)):
                    raise ConfigError(f"cause_catalog code {code!r} is not 0x and 1-8 hex digits")
                if not (math.isfinite(weight) and weight > 0):
                    raise ConfigError(f"weight for {code} must be positive and finite")
                if not label:
                    raise ConfigError(f"empty cause label for {code}")

    def resolved_catalog(self) -> tuple[tuple[str, str, float], ...]:
        return self.cause_catalog if self.cause_catalog is not None else default_cause_catalog()


def _below(getrandbits, n: int) -> int:
    """randrange(n) as random.Random draws it: n.bit_length() random bits until one is under n."""
    value = getrandbits(n.bit_length())
    while value >= n:
        value = getrandbits(n.bit_length())
    return value


def _system_records(
    config: GeneratorConfig,
    seed: int,
    system_index: int,
    days: list[tuple[int, int]],
    labels: list[tuple[str, str]],
    cum_weights: list[float],
) -> list[RawLogRecord]:
    """One system's records.

    days are the horizon's (midnight in UTC epoch seconds, weekday) pairs; labels are
    the catalog's (code, label) pairs, drawn by cum_weights.
    """
    rng = random.Random(derive_seed(seed, "synth", system_index))
    random_, getrandbits = rng.random, rng.getrandbits
    system_id = _SYSTEM_ID(system_index)
    new = tuple.__new__

    multipliers = [1.0] * 7
    if config.bursty:
        raw = [rng.uniform(0.25, 2.0) for _ in range(7)]
        mean = reduce(add, raw, 0.0) / 7  # left to right: sum() compensates from Python 3.12
        multipliers = [value / mean for value in raw]

    # a Poisson(rate) count is the sum of Knuth draws in chunks of rate at most
    # _KNUTH_MAX_RATE, each against the threshold exp(-chunk rate): per weekday, one per chunk
    thresholds = []
    for rate in (config.per_system_rate * value for value in multipliers):
        chunks = math.ceil(rate / _KNUTH_MAX_RATE)
        thresholds.append((math.exp(-(rate / chunks)),) * chunks)
    instants: list[int] = []  # crash instants in UTC epoch seconds
    append = instants.append
    for midnight, weekday in days:
        count = 0
        for threshold in thresholds[weekday]:
            product = random_()
            while product > threshold:
                count += 1
                product *= random_()
        while count:  # _below(getrandbits, DAY) each, inlined
            count -= 1
            second = getrandbits(_SECONDS_BITS)
            while second >= DAY:
                second = getrandbits(_SECONDS_BITS)
            append(midnight + second)
    instants.sort()

    # choices(labels, cum_weights=cum_weights): a bisection of the weights' running total
    total, hi = cum_weights[-1] + 0.0, len(labels) - 1
    records = []
    append = records.append
    for instant in instants:
        code, label = labels[bisect(cum_weights, random_() * total, 0, hi)]
        params = ("0x%X" % getrandbits(16), "0x0")
        append(new(RawLogRecord, (system_id, instant, 41, code, params, label)))

    for _ in range(round(config.noise_fraction * len(records))):
        day, second = _below(getrandbits, config.days), _below(getrandbits, DAY)
        event_id = NOISE_EVENT_IDS[_below(getrandbits, len(NOISE_EVENT_IDS))]  # choice()
        instant = days[day][0] + second
        append(new(RawLogRecord, (system_id, instant, event_id, None, (), None)))
    return records


def generate_systems(
    config: GeneratorConfig, seed: int | None = None
) -> Iterator[list[RawLogRecord]]:
    """Each system's records, systems in system_id order, each list sorted on (timestamp,
    event_id, bugcheck_code, params): the order a system's lines keep in logs.jsonl.

    "host-1000" comes before "host-999": the order is the ids', not the indices'.
    """
    effective_seed = config.seed if config.seed is not None else seed
    if effective_seed is None:
        raise ConfigError("generator needs a seed, none given")
    catalog = config.resolved_catalog()
    labels = [(code, label) for code, label, _ in catalog]
    # the same draws as weights=: choices() only accumulates the weights first
    cum_weights = list(accumulate(weight for _, _, weight in catalog))
    start, weekday = seconds_of(config.start_date), config.start_date.weekday()
    days = [(start + day * DAY, (weekday + day) % 7) for day in range(config.days)]
    # None never meets a str in the sort: noise has no code, event 41 one
    for index in sorted(range(config.n_systems), key=_SYSTEM_ID):
        system = _system_records(config, effective_seed, index, days, labels, cum_weights)
        system.sort(key=itemgetter(1, 2, 3, 4))
        yield system
