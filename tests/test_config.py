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
