import collections
import math
from datetime import datetime, timedelta, timezone

import pytest

from oracles import in_seconds, records_by_random_api
from crashcast.config import RunConfig, parse_run_config, resolved_dict
from crashcast.errors import ConfigError
from crashcast.ingest import build_corpus, filter_critical, instant_of, parse_lines, seconds_of
from crashcast import synthgen
from crashcast.pipeline import generate_corpus
from crashcast.synthgen import (
    DEFAULT_DOMINANT_CODE,
    DEFAULT_DOMINANT_WEIGHT,
    GeneratorConfig,
    default_cause_catalog,
)


def one_system(seed, days=400, rate=0.5, noise=0.0, **extra):
    return GeneratorConfig(
        seed=seed,
        n_systems=1,
        days=days,
        per_system_rate=rate,
        noise_fraction=noise,
        **extra,
    )


class TestDeterminism:
    def test_same_config_twice_is_byte_identical(self):
        config = GeneratorConfig(seed=77, n_systems=3, days=60)
        assert generate_corpus(config) == generate_corpus(config)

    def test_different_seeds_differ(self):
        a = generate_corpus(GeneratorConfig(seed=1, n_systems=2, days=60))
        b = generate_corpus(GeneratorConfig(seed=2, n_systems=2, days=60))
        assert a != b

    def test_seed_argument_fills_a_missing_config_seed(self):
        config = GeneratorConfig(n_systems=1, days=30)
        records = in_seconds(records_by_random_api(config, 9))
        assert parse_lines(generate_corpus(config, seed=9)) == records

    def test_config_seed_wins_over_argument(self):
        config = GeneratorConfig(seed=5, n_systems=1, days=30)
        records = in_seconds(records_by_random_api(config, 5))
        assert parse_lines(generate_corpus(config, seed=9)) == records

    def test_no_seed_anywhere_is_refused(self):
        with pytest.raises(ConfigError):
            generate_corpus(GeneratorConfig(n_systems=1, days=30))


class TestShape:
    def test_exactly_n_distinct_guids(self):
        lines = generate_corpus(GeneratorConfig(seed=3, n_systems=3, days=90))
        corpus = build_corpus(filter_critical(parse_lines(lines)))
        systems = {event.system_id for event in corpus.events}
        assert systems == {"host-000", "host-001", "host-002"}

    def test_corpus_passes_ingest_cleanly(self):
        lines = generate_corpus(
            GeneratorConfig(seed=11, n_systems=4, days=120, noise_fraction=0.3)
        )
        records = parse_lines(lines)
        corpus = build_corpus(filter_critical(records))
        assert corpus.duplicates == 0
        assert corpus.dropped_before_floor == 0
        assert len(corpus.events) == len(filter_critical(records))

    def test_noise_records_are_exactly_the_filtered_ones(self):
        lines = generate_corpus(one_system(seed=21, days=200, rate=0.5, noise=0.25))
        records = parse_lines(lines)
        critical = filter_critical(records)
        noise = [record for record in records if record.event_id != 41]
        assert len(critical) + len(noise) == len(records)
        assert all(record.event_id == 41 for record in critical)
        assert all(record.event_id in (1074, 6008, 7001) for record in noise)
        assert len(noise) == round(0.25 * len(critical))

    def test_zero_noise_fraction_means_all_critical(self):
        lines = generate_corpus(one_system(seed=4, days=100, noise=0.0))
        records = parse_lines(lines)
        assert all(record.event_id == 41 for record in records)

    def test_timestamps_stay_inside_the_horizon(self):
        start = datetime(2021, 1, 1, tzinfo=timezone.utc)
        config = one_system(seed=8, days=30, rate=1.0, start_date=start)
        corpus = build_corpus(filter_critical(parse_lines(generate_corpus(config))))
        for event in corpus.events:
            offset = event.time - seconds_of(start)
            assert 0 <= offset < 30 * 86400

    def test_output_is_sorted_by_time_then_system(self):
        lines = generate_corpus(GeneratorConfig(seed=13, n_systems=3, days=90))
        records = parse_lines(lines)
        keys = [(r.timestamp, r.system_id, r.event_id) for r in records]
        assert keys == sorted(keys)


class TestPoissonConcentration:
    def test_count_within_three_sigma_for_nearly_all_seeds(self):
        expected = 200.0
        bound = 3 * math.sqrt(expected)
        misses = 0
        trials = 200
        for seed in range(trials):
            lines = generate_corpus(one_system(seed=seed))
            count = len(lines)
            if abs(count - expected) > bound:
                misses += 1
        assert misses <= trials * 0.01

    # exp(-rate) is no longer a normal float past a rate of about 708
    def test_daily_mean_holds_past_where_one_knuth_draw_saturates(self):
        days = 30
        count = len(generate_corpus(one_system(seed=3, days=days, rate=2000.0)))
        assert count / days == pytest.approx(2000.0, rel=0.02)

    def test_rate_scales_the_count(self):
        slow = len(generate_corpus(one_system(seed=30, rate=0.25, days=800)))
        fast = len(generate_corpus(one_system(seed=30, rate=1.0, days=800)))
        assert fast > slow * 2


class TestCauseFrequencies:
    def test_empirical_weights_match_the_catalog(self):
        config = one_system(seed=501, days=4000, rate=1.0)
        corpus = build_corpus(filter_critical(parse_lines(generate_corpus(config))))
        counts = collections.Counter(event.bugcheck_code for event in corpus.events)
        total = sum(counts.values())
        catalog = {code: weight for code, _, weight in config.resolved_catalog()}
        weight_sum = sum(catalog.values())
        for code, weight in catalog.items():
            empirical = counts.get(code, 0) / total
            assert abs(empirical - weight / weight_sum) <= 0.02

    def test_dominant_code_dominates(self):
        corpus = build_corpus(
            filter_critical(
                parse_lines(generate_corpus(one_system(seed=77, days=1000, rate=1.0)))
            )
        )
        counts = collections.Counter(event.bugcheck_code for event in corpus.events)
        top_code, top_count = counts.most_common(1)[0]
        assert top_code == DEFAULT_DOMINANT_CODE
        assert top_count / sum(counts.values()) > DEFAULT_DOMINANT_WEIGHT - 0.05

    def test_a_shipped_catalog_without_the_dominant_code_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(synthgen, "default_catalog", lambda: {"0xA": "irql not less or equal"})
        with pytest.raises(ConfigError, match=f"dominant code {DEFAULT_DOMINANT_CODE} not in"):
            default_cause_catalog()

    def test_default_catalog_weights(self):
        catalog = default_cause_catalog()
        weights = {code: weight for code, _, weight in catalog}
        assert weights[DEFAULT_DOMINANT_CODE] == pytest.approx(DEFAULT_DOMINANT_WEIGHT)
        assert sum(weights.values()) == pytest.approx(1.0)
        assert len(catalog) == 8


class TestBurstyMode:
    def test_bursty_is_still_deterministic(self):
        config = GeneratorConfig(seed=19, n_systems=2, days=120, bursty=True)
        assert generate_corpus(config) == generate_corpus(config)

    def test_bursty_changes_the_draw(self):
        flat = generate_corpus(GeneratorConfig(seed=19, n_systems=1, days=120))
        bursty = generate_corpus(
            GeneratorConfig(seed=19, n_systems=1, days=120, bursty=True)
        )
        assert flat != bursty

    def test_bursty_skews_the_weekday_histogram(self):
        config = one_system(seed=23, days=3500, rate=1.0, bursty=True)
        corpus = build_corpus(filter_critical(parse_lines(generate_corpus(config))))
        weekdays = (instant_of(event.time).weekday() for event in corpus.events)
        by_weekday = collections.Counter(weekdays)
        top = max(by_weekday.values())
        bottom = min(by_weekday.values())
        assert top > bottom * 1.5


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_systems": 0},
            {"days": 0},
            {"per_system_rate": 0.0},
            {"per_system_rate": -1.0},
            {"noise_fraction": -0.1},
            {"cause_catalog": [("0xA", "a", 0.0)]},
            {"cause_catalog": [("0xA", "a", float("inf"))]},
            # a code or start the logs cannot hold: a record would differ from its parsed line
            *({"cause_catalog": [(code, "a", 1.0)]}
              for code in ("0xZZ", "9F", "0x", "0x123456789", "0x9F\n", "0x\u0669")),
            {"start_date": datetime(2021, 1, 1)},
            {"start_date": datetime(2021, 1, 1, tzinfo=timezone(timedelta(hours=1)))},
            {"start_date": datetime(2021, 1, 1, 0, 0, 0, 500000, tzinfo=timezone.utc)},
            # the manifest holds the date only, so a time of day would not replay
            {"start_date": datetime(2021, 1, 1, 12, tzinfo=timezone.utc)},
        ],
    )
    def test_bad_values_are_refused(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorConfig(seed=1, **kwargs)


@pytest.mark.parametrize("start, days", [(datetime(1000, 1, 1, tzinfo=timezone.utc), 60),
                                         (datetime(9999, 12, 1, tzinfo=timezone.utc), 31)])
def test_horizon_at_either_end_of_four_digit_years_reads_back(start, days):
    config = GeneratorConfig(n_systems=2, days=days, per_system_rate=2.0, start_date=start)
    records = parse_lines(generate_corpus(config, seed=3))
    assert {instant_of(r.timestamp).year for r in records} == {start.year}


@pytest.mark.parametrize("start, days", [(datetime(999, 12, 31, tzinfo=timezone.utc), 1),
                                         (datetime(9999, 12, 1, tzinfo=timezone.utc), 32)])
def test_horizon_past_four_digit_years_is_a_config_error(start, days):
    with pytest.raises(ConfigError, match="start_date"):
        GeneratorConfig(days=days, start_date=start)


# configs whose records run draws and ingests without writing and parsing them
HANDOFF_CONFIGS = {
    "default": GeneratorConfig(),
    "bursty": GeneratorConfig(bursty=True),
    "no-noise": GeneratorConfig(noise_fraction=0.0),
    "padded-lower-case-codes": GeneratorConfig(
        cause_catalog=(("0x0000009f", "driver power state failure", 3.0),
                       ("0xa", "irql not less or equal", 1.0)),
    ),
    "year-1000": GeneratorConfig(n_systems=2, days=60, per_system_rate=2.0,
                                 start_date=datetime(1000, 1, 1, tzinfo=timezone.utc)),
    "year-9999": GeneratorConfig(n_systems=2, days=31, per_system_rate=2.0,
                                 start_date=datetime(9999, 12, 1, tzinfo=timezone.utc)),
}


@pytest.mark.parametrize("name", sorted(HANDOFF_CONFIGS))
def test_records_equal_what_their_log_lines_parse_to(name):
    config = HANDOFF_CONFIGS[name]
    records = in_seconds(records_by_random_api(config, 3))
    parsed = parse_lines(generate_corpus(config, seed=3))
    assert parsed == records
    assert [*map(repr, parsed)] == [*map(repr, records)]  # the same types, too


@pytest.mark.parametrize("name", sorted(HANDOFF_CONFIGS))
def test_the_manifest_config_rebuilds_the_same_generator(name):
    # default, bursty and a custom catalog among them
    config = RunConfig(generator=HANDOFF_CONFIGS[name])
    assert parse_run_config(resolved_dict(config)) == config


# each draws through another branch of the inlined draws: weekday multipliers, two Knuth
# chunks a day, a one-entry catalog (bisect's hi is 0), no noise and much noise
_DRAW_CONFIGS = {
    "default": {},
    "bursty": {"bursty": True},
    "two knuth chunks": {"per_system_rate": 600.0, "days": 4},
    "one cause": {"cause_catalog": (("0x9F", "driver power state failure", 2.5),)},
    "no noise": {"noise_fraction": 0.0},
    "half noise": {"noise_fraction": 0.5},
}


@pytest.mark.parametrize("seed", [1234, 99, 7])
@pytest.mark.parametrize("name", sorted(_DRAW_CONFIGS))
def test_records_equal_those_the_random_api_draws(name, seed):
    config = GeneratorConfig(**{"n_systems": 3, "days": 45, **_DRAW_CONFIGS[name]})
    records = in_seconds(records_by_random_api(config, seed))
    assert parse_lines(generate_corpus(config, seed=seed)) == records


def test_records_past_999_systems_equal_those_the_random_api_draws():
    # "host-1000" sorts between "host-100" and "host-101", not after "host-999"; at 10 crashes
    # a day, host-1000 shares an instant with a system of a lower index and a higher id
    config = GeneratorConfig(n_systems=1001, days=2, per_system_rate=10.0)
    records = parse_lines(generate_corpus(config, seed=1234))
    assert records == in_seconds(records_by_random_api(config, 1234))
    shared = {r.timestamp for r in records if r.system_id == "host-1000"}
    assert any(r.timestamp in shared and r.system_id > "host-1000" for r in records)

