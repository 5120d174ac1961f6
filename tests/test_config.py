import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from crashcast.cli import main
from crashcast.config import (
    RunConfig,
    config_digest,
    load_run_config,
    parse_run_config,
    resolved_dict,
)
from crashcast.errors import ConfigError
from crashcast.predictor import MAX_IN_FLIGHT, MAX_RETRY_LIMIT, MAX_TIMEOUT_S
from crashcast.synthgen import MAX_RECORDS, MAX_SYSTEM_DAYS

FULL_DOCUMENT = {
    "seed": 42,
    "window_days": 5,
    "shots_k": 4,
    "history_cap": 8,
    "split": {"train_pairs": 30, "validation_pairs": 10},
    "paths": {"out_dir": "scratch", "logs": "fixed.jsonl"},
    "backend": {
        "kind": "remote-llm",
        "endpoint": "http://127.0.0.1:1/v1",
        "model_name": "m",
        "timeout": 5.0,
        "retry_limit": 1,
    },
    "normalization": {"remove_stopwords": True},
    "generator": {"n_systems": 2, "days": 90, "per_system_rate": 0.4},
}


class TestDefaults:
    def test_zero_config_is_usable(self):
        config = RunConfig()
        assert config.seed == 1234
        assert config.window_days == 7
        assert config.shots_k == 10
        assert config.split.train_pairs == 100
        assert config.split.validation_pairs == 40
        assert config.backend.kind == "baseline"
        assert config.normalization.lowercase

    def test_empty_document_matches_defaults(self):
        assert parse_run_config({}) == RunConfig()


class TestParsing:
    def test_full_document_round_trips_field_by_field(self):
        config = parse_run_config(FULL_DOCUMENT)
        assert config.seed == 42
        assert config.window_days == 5
        assert config.paths.out_dir == "scratch"
        assert config.paths.logs == "fixed.jsonl"
        assert config.backend.kind == "remote-llm"
        assert config.backend.endpoint == "http://127.0.0.1:1/v1"
        assert config.normalization.remove_stopwords
        assert config.generator.n_systems == 2

    @pytest.mark.parametrize(
        "document,fragment",
        [
            ({"bogus": 1}, "bogus"),
            ({"paths": {"bogus": "x"}}, "bogus"),
            ({"backend": {"bogus": "x"}}, "bogus"),
            ({"normalization": {"bogus": True}}, "bogus"),
            ({"generator": {"bogus": 1}}, "bogus"),
            ({"split": {"bogus": 1}}, "bogus"),
        ],
    )
    def test_unknown_keys_are_named_in_the_error(self, document, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_run_config(document)

    @pytest.mark.parametrize(
        "document",
        [
            {"seed": "not a number"},
            {"seed": True},
            {"window_days": 0},
            {"shots_k": -1},
            {"split": {"train_pairs": 0}},
            {"split": {"validation_pairs": 0}},
            {"backend": {"kind": "unheard-of"}},
            {"backend": {"kind": "remote-llm"}},
            {"paths": {"logs": 7}},
            {"generator": {"days": "ninety"}},
            {"normalization": {"lowercase": "yes"}},
            {"generator": {"cause_catalog": [["0x9F", "driver power state failure"]]}},
            {"generator": {"cause_catalog": [["0x9F", "driver power state failure", "x"]]}},
            {"generator": {"start_date": "2021/01/01"}},
            {"generator": {"start_date": 5}},
            {"generator": {"n_systems": None}},
            {"backend": {"timeout": True}},
            {"paths": {"out_dir": None}},
            {"backend": {"kind": "remote-llm", "endpoint": "file:///etc/hostname"}},
            {"backend": {"kind": "remote-llm", "endpoint": "data:application/json,{}"}},
            {"backend": {"kind": "remote-llm", "endpoint": "ftp://127.0.0.1/v1"}},
            {"backend": {"kind": "remote-llm", "endpoint": "localhost:8000/v1"}},
            {"backend": {"model_name": "\ud800"}},
            {"generator": {"cause_catalog": [["0x9F", "x\udfff", 1.0]]}},
        ],
    )
    def test_bad_values_are_config_errors(self, document):
        with pytest.raises(ConfigError):
            parse_run_config(document)

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigError):
            parse_run_config(["not", "an", "object"])


class TestFiles:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(FULL_DOCUMENT))
        assert load_run_config(path) == parse_run_config(FULL_DOCUMENT)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.json")

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError):
            load_run_config(path)

    # json.loads reads 1e999 as inf and accepts NaN; an int past the float range cannot convert
    @pytest.mark.parametrize("number", ["1e999", "-1e999", "NaN", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "key",
        [
            "generator.per_system_rate",
            "generator.noise_fraction",
            "backend.timeout",
            "backend.backoff_base",
        ],
    )
    def test_non_finite_number_is_exit_two_naming_the_key(self, tmp_path, key, number):
        group, name = key.split(".")
        path = tmp_path / "run.json"
        path.write_text(f'{{"paths": {{"out_dir": "{tmp_path}"}}, "{group}": {{"{name}": {number}}}}}')
        result = CliRunner().invoke(main, ["--config", str(path), "run"], catch_exceptions=False)
        assert result.exit_code == 2, result.output
        assert f"{key} must be a finite number" in result.output


CUSTOM_GENERATOR = {
    "generator": {
        "seed": 7,
        "cause_catalog": [["0x9F", "driver power state failure", 3], ["0x50", "page fault", 1.5]],
        "start_date": "2022-06-30",
        "bursty": True,
    }
}


class TestReplay:
    def test_resolved_dict_replays_to_an_equal_config(self):
        for document in (FULL_DOCUMENT, CUSTOM_GENERATOR):
            config = parse_run_config(document)
            assert parse_run_config(json.loads(json.dumps(resolved_dict(config)))) == config

    def test_defaults_replay_too(self):
        config = RunConfig()
        assert parse_run_config(resolved_dict(config)) == config

    def test_resolved_dict_is_json_serializable(self):
        text = json.dumps(resolved_dict(RunConfig()), sort_keys=True)
        assert "seed" in text


class TestDigest:
    def test_equal_configs_share_a_digest(self):
        assert config_digest(parse_run_config(FULL_DOCUMENT)) == config_digest(
            parse_run_config(json.loads(json.dumps(FULL_DOCUMENT)))
        )

    def test_any_field_change_moves_the_digest(self):
        base = RunConfig()
        changed = parse_run_config({"seed": 4321})
        assert config_digest(base) != config_digest(changed)

    def test_digest_is_hex_sha256_shaped(self):
        digest = config_digest(RunConfig())
        assert len(digest) == 64
        int(digest, 16)


def test_readme_config_block_is_the_full_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == resolved_dict(RunConfig())


# a log timestamp has a four-digit year; the last day of a 540-day horizon would pass 9999
@pytest.mark.parametrize(
    "start_date, message",
    [
        ("0999-06-01", "start_date must be in year 1000 or later, got 0999-06-01"),
        ("9999-12-01", "start_date 9999-12-01 plus 540 days runs past the year 9999"),
    ],
)
def test_synth_horizon_outside_four_digit_years_is_exit_two(tmp_path, start_date, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "paths": {"out_dir": str(tmp_path / "out")}, "generator": {"start_date": start_date}
    }))
    result = CliRunner().invoke(main, ["--config", str(path), "run"], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert message in result.output


# refused at load, before any request: time.sleep raises on a negative backoff, a server
# cannot answer in fewer than one token, each call in flight holds a thread of its own, and
# each retry or second of timeout is one more a failing endpoint keeps a call waiting
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("backoff_base", -0.5, "backoff_base must not be negative"),
        ("max_output_tokens", 0, "max_output_tokens must be at least 1"),
        ("max_output_tokens", -64, "max_output_tokens must be at least 1"),
        ("max_in_flight", 65, "max_in_flight must be from 1 to 64"),
        ("retry_limit", 11, "retry_limit must be from 0 to 10"),
        ("retry_limit", 1_000_000, "retry_limit must be from 0 to 10"),
        ("timeout", 600.5, "timeout must be above 0 and at most 600 seconds"),
        ("timeout", 1e9, "timeout must be above 0 and at most 600 seconds"),
    ],
)
def test_a_backend_value_out_of_bounds_is_exit_two_naming_the_key(tmp_path, key, value, message):
    path = tmp_path / "run.json"
    backend = {"kind": "remote-llm", "endpoint": "http://127.0.0.1:1/v1", key: value}
    path.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "out")}, "backend": backend}))
    result = CliRunner().invoke(main, ["--config", str(path), "run"], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


def test_max_in_flight_may_be_the_bound(tmp_path):
    assert MAX_IN_FLIGHT == 64
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"backend": {"max_in_flight": 64, "backoff_base": 0.0}}))
    backend = load_run_config(path).backend
    assert (backend.max_in_flight, backend.backoff_base) == (64, 0.0)


def test_retry_limit_and_timeout_may_be_their_bounds(tmp_path):
    assert (MAX_RETRY_LIMIT, MAX_TIMEOUT_S) == (10, 600.0)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"backend": {"retry_limit": 10, "timeout": 600}}))
    backend = load_run_config(path).backend
    assert (backend.retry_limit, backend.timeout) == (10, 600)


# synth draws once per system-day and holds every record it makes, so a size past a bound is
# refused at load, before anything is generated: 10 x 1,000,000 system-days is at
# MAX_SYSTEM_DAYS and 11 x 909,091 one past it; 10,000 crashes a day for 1,000 days, or 5,000
# and as many noise records, are at MAX_RECORDS, and each case past it expects one more record
@pytest.mark.parametrize(
    "generator",
    [
        {"n_systems": 10, "days": 1_000_000, "per_system_rate": 0.5},
        {"n_systems": 1, "days": 1000, "per_system_rate": 10_000.0, "noise_fraction": 0.0},
        {"n_systems": 1, "days": 1000, "per_system_rate": 5_000.0, "noise_fraction": 1.0},
    ],
)
def test_a_generator_at_the_size_bounds_loads(tmp_path, generator):
    assert (MAX_SYSTEM_DAYS, MAX_RECORDS) == (10_000_000, 10_000_000)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"generator": generator}))
    loaded = load_run_config(path).generator
    assert [getattr(loaded, key) for key in generator] == [*generator.values()]


@pytest.mark.parametrize(
    "generator, message",
    [
        ({"n_systems": 11, "days": 909_091, "per_system_rate": 0.5},
         "n_systems * days must be at most 10000000, got 10000001"),
        ({"n_systems": 1, "days": 1000, "per_system_rate": 10_000.001, "noise_fraction": 0.0},
         "per_system_rate * n_systems * days * (1 + noise_fraction) must be at most 10000000"
         " records, got 10000001"),
        ({"n_systems": 1, "days": 1000, "per_system_rate": 5_000.0, "noise_fraction": 1.0000002},
         "per_system_rate * n_systems * days * (1 + noise_fraction) must be at most 10000000"
         " records, got 10000001"),
    ],
)
def test_a_generator_past_a_size_bound_is_exit_two_naming_the_keys(tmp_path, generator, message):
    path = tmp_path / "run.json"
    document = {"paths": {"out_dir": str(tmp_path / "out")}, "generator": generator}
    path.write_text(json.dumps(document))
    result = CliRunner().invoke(main, ["--config", str(path), "run"], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()
