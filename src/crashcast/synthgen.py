"""Generate seeded synthetic crash corpora in the raw log line format.

Each system is an independent homogeneous Poisson process over a horizon
of whole days, with causes drawn from a weighted catalog. A bursty mode
modulates the rate with per-system day-of-week multipliers so the data
stops matching the baseline predictor's model family. Noise records with
non-critical event ids are mixed in for filter testing. Identical configs
produce byte-identical output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import reduce
from itertools import accumulate
from operator import add

from ._seed import derive_seed
from .errors import ConfigError
from .ingest import BUGCHECK_RE, RawLogRecord, default_catalog, record_to_line

DEFAULT_START = datetime(2021, 1, 1, tzinfo=timezone.utc)
DEFAULT_DOMINANT_CODE = "0x9F"
DEFAULT_DOMINANT_WEIGHT = 0.90

NOISE_EVENT_IDS = (1074, 6008, 7001)

_SECONDS_PER_DAY = 86400
_KNUTH_MAX_RATE = 500  # Knuth's method needs exp(-rate) a normal float, so rate under ~708


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
        # ingest takes the records as generated, so each must equal what its log line parses
        # to: a UTC instant in whole seconds, and a code the log's bugcheck pattern accepts
        start = self.start_date
        if not isinstance(start, datetime) or start.tzinfo is not timezone.utc or start.microsecond:
            raise ConfigError(f"start_date must be a UTC instant in whole seconds, got {start!r}")
        # a log timestamp has a four-digit year, so the horizon must lie within 1000-9999
        if self.start_date.year < 1000:
            raise ConfigError(
                f"start_date must be in year 1000 or later, got {self.start_date.date().isoformat()}"
            )
        try:
            self.start_date + timedelta(days=self.days - 1, seconds=_SECONDS_PER_DAY - 1)
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


def _poisson_count(rng: random.Random, threshold: float, chunks: int) -> int:
    """A Poisson(rate) draw as the sum of chunks Knuth draws, threshold exp(-rate / chunks)."""
    count = 0
    for _ in range(chunks):
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
    return count


def _system_records(
    config: GeneratorConfig,
    seed: int,
    system_index: int,
    days: list[tuple[datetime, int]],
    labels: list[tuple[str, str]],
    cum_weights: list[float],
) -> list[RawLogRecord]:
    """One system's records.

    days are the horizon's (day start, weekday) pairs; labels are the catalog's
    (code, label) pairs, drawn by cum_weights.
    """
    rng = random.Random(derive_seed(seed, "synth", system_index))
    system_id = f"host-{system_index:03d}"

    multipliers = [1.0] * 7
    if config.bursty:
        raw = [rng.uniform(0.25, 2.0) for _ in range(7)]
        mean = reduce(add, raw, 0.0) / 7  # left to right: sum() compensates from Python 3.12
        multipliers = [value / mean for value in raw]

    draws = []  # per weekday: (threshold, chunks), each chunk's rate at most _KNUTH_MAX_RATE
    for rate in (config.per_system_rate * value for value in multipliers):
        chunks = math.ceil(rate / _KNUTH_MAX_RATE)
        draws.append((math.exp(-(rate / chunks)), chunks))
    instants: list[datetime] = []
    for day_start, weekday in days:
        for _ in range(_poisson_count(rng, *draws[weekday])):
            instants.append(day_start + timedelta(seconds=rng.randrange(_SECONDS_PER_DAY)))
    instants.sort()

    records = []
    for instant in instants:
        code, label = rng.choices(labels, cum_weights=cum_weights)[0]
        records.append(
            RawLogRecord(system_id, instant, 41, code, (f"0x{rng.getrandbits(16):X}", "0x0"), label)
        )

    noise_count = round(config.noise_fraction * len(records))
    for _ in range(noise_count):
        instant = config.start_date + timedelta(
            days=rng.randrange(config.days), seconds=rng.randrange(_SECONDS_PER_DAY)
        )
        records.append(RawLogRecord(system_id, instant, rng.choice(NOISE_EVENT_IDS)))
    return records


def generate_records(config: GeneratorConfig, seed: int | None = None) -> list[RawLogRecord]:
    """All systems' records merged in a deterministic global order."""
    effective_seed = config.seed if config.seed is not None else seed
    if effective_seed is None:
        raise ConfigError("generator needs a seed, none given")
    catalog = config.resolved_catalog()
    labels = [(code, label) for code, label, _ in catalog]
    # the same draws as weights=: choices() only accumulates the weights first
    cum_weights = list(accumulate(weight for _, _, weight in catalog))
    starts = (config.start_date + timedelta(days=day) for day in range(config.days))
    days = [(start, start.weekday()) for start in starts]
    records: list[RawLogRecord] = []
    for index in range(config.n_systems):
        records.extend(_system_records(config, effective_seed, index, days, labels, cum_weights))
    records.sort(
        key=lambda r: (r.timestamp, r.system_id, r.event_id, r.bugcheck_code or "", r.params)
    )
    return records


def generate_corpus(config: GeneratorConfig, seed: int | None = None) -> list[str]:
    """Raw log lines, one record per line, ready for the ingest stage."""
    return [record_to_line(record) for record in generate_records(config, seed)]
