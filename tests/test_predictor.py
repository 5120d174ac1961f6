import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_day, seconds_at, sequence_at, sequence_of
from oracles import baseline_rates_loop, in_events
from crashcast.errors import (
    ConfigError,
    HistoryTooShort,
    DataError,
    ScriptExhausted,
)
from crashcast.ingest import instant_of, seconds_of
from crashcast.postprocess import extract_prediction
from crashcast.predictor import (
    BackendConfig,
    BaselineModel,
    ScriptedBackend,
    baseline_answer,
    fit_baseline,
    make_backend,
    mbr_next_time,
    mbr_next_type,
)


def events_of(day_kinds):
    return sequence_of("s", day_kinds)


class TestFitBaseline:
    def test_single_type_rate(self):
        history = events_of([(0, "a"), (3, "a"), (5, "a"), (8, "a"), (10, "a")])
        model = fit_baseline(history)
        assert model.rates == {"a": pytest.approx(0.5)}
        assert model.total_rate == pytest.approx(0.5)
        assert model.observation_span == pytest.approx(10.0)
        assert model.t_last == at_day(10)

    def test_two_type_rates(self):
        history = events_of(
            [(0, "a"), (1, "b"), (2, "a"), (3, "a"), (4, "b"), (5, "a"), (6, "a"), (8, "a")]
        )
        model = fit_baseline(history)
        assert model.rates["a"] == pytest.approx(0.75)
        assert model.rates["b"] == pytest.approx(0.25)
        assert model.total_rate == pytest.approx(1.0)

    def test_short_span_is_floored_to_one_day(self):
        history = sequence_at("s", [
            (seconds_at(0), "a"),
            (seconds_of(at_day(0) + timedelta(hours=6)), "a"),
        ])
        model = fit_baseline(history)
        assert model.observation_span == pytest.approx(1.0)
        assert model.total_rate == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_events(self, n):
        with pytest.raises(HistoryTooShort):
            fit_baseline(events_of([(d, "a") for d in range(n)]))

    def test_model_validation_rejects_inconsistent_total(self):
        with pytest.raises(ValueError):
            BaselineModel(
                rates={"a": 0.5},
                total_rate=1.5,
                t_last=at_day(1),
                observation_span=2.0,
            )


class TestPointPredictions:
    def test_expected_wait_is_one_over_total_rate(self):
        history = events_of([(0, "a"), (4, "a"), (10, "a")])
        model = fit_baseline(history)
        assert model.total_rate == pytest.approx(0.3)
        predicted = mbr_next_time(model)
        assert predicted == at_day(10) + timedelta(days=1 / 0.3)

    def test_half_rate_example(self):
        model = fit_baseline(
            events_of([(0, "a"), (3, "a"), (5, "a"), (8, "a"), (10, "a")])
        )
        assert mbr_next_time(model) == at_day(12)

    def test_unit_rate_example(self):
        model = fit_baseline(
            events_of(
                [(0, "a"), (1, "b"), (2, "a"), (3, "a"), (4, "b"), (5, "a"), (6, "a"), (8, "a")]
            )
        )
        assert mbr_next_time(model) == at_day(9)
        assert mbr_next_type(model) == "a"

    def test_type_tie_breaks_lexicographically(self):
        model = fit_baseline(events_of([(0, "b"), (1, "a"), (2, "b"), (3, "a")]))
        assert model.rates["a"] == model.rates["b"]
        assert mbr_next_type(model) == "a"

    def test_rates_follow_first_seen_order_and_sum_left_to_right(self):
        # four a, three b, two c over ten days: the three orders sum to three different floats
        totals = set()
        for order in (["a", "b", "c"], ["a", "c", "b"], ["b", "c", "a"]):
            kinds = [*order, *"aaabbc"]
            history = events_of([(n * 10 / (len(kinds) - 1), k) for n, k in enumerate(kinds)])
            model = fit_baseline(history)
            rates, total = baseline_rates_loop(in_events(history))
            assert [*model.rates] == [*rates] == order
            assert model.rates == rates
            assert model.total_rate.hex() == total.hex()
            totals.add(total.hex())
        assert len(totals) == 3

    def test_zero_rate_is_refused(self):
        model = BaselineModel(
            rates={}, total_rate=0.0, t_last=at_day(0), observation_span=1.0
        )
        with pytest.raises(DataError):
            mbr_next_time(model)

    @given(
        days=st.lists(st.integers(min_value=0, max_value=400), min_size=2, max_size=30),
        scale=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=100)
    def test_prediction_is_strictly_after_the_last_event(self, days, scale):
        kinds = ["a", "b", "c"]
        history = sorted(
            {(d, kinds[d % 3]) for d in days}, key=lambda dk: dk[0]
        )
        if len(history) < 2:
            return
        model = fit_baseline(events_of(history))
        assert mbr_next_time(model) > model.t_last

    @given(
        days=st.lists(
            st.integers(min_value=0, max_value=60), min_size=3, max_size=20, unique=True
        ),
        scale=st.sampled_from([2, 4]),
    )
    @settings(max_examples=100)
    def test_compressing_time_scales_the_wait(self, days, scale):
        days = sorted(days)
        if days[-1] - days[0] < scale:
            return
        base = events_of([(d, "ab"[d % 2]) for d in days])
        origin = seconds_at(0)
        compressed = sequence_at("s", [
            (origin + (time - origin) // scale, kind) for time, kind in zip(base.times, base.kinds)
        ])
        slow = fit_baseline(base)
        fast = fit_baseline(compressed)
        if fast.observation_span <= 1.0:
            return
        assert fast.total_rate == pytest.approx(slow.total_rate * scale)
        assert mbr_next_type(fast) == mbr_next_type(slow)
        slow_wait = mbr_next_time(slow) - slow.t_last
        fast_wait = mbr_next_time(fast) - fast.t_last
        assert fast_wait.total_seconds() == pytest.approx(
            slow_wait.total_seconds() / scale, rel=1e-9
        )


class TestDominantTypeRecovery:
    def test_argmax_recovers_the_dominant_cause(self):
        rng = random.Random(99)
        hits = 0
        for _ in range(50):
            t = at_day(0)
            history = []
            for _ in range(40):
                t += timedelta(days=rng.expovariate(1.0))
                kind = "dominant" if rng.random() < 0.8 else "rare"
                history.append((seconds_of(t), kind))
            if mbr_next_type(fit_baseline(sequence_at("s", history))) == "dominant":
                hits += 1
        assert hits >= 48


class TestBaselineAnswer:
    def test_renders_the_canonical_sentence_in_both_stages(self):
        start = datetime(2021, 2, 28, tzinfo=timezone.utc)
        history = [
            (seconds_of(start + timedelta(days=d)), kind)
            for d, kind in [
                (0, "a"), (1, "b"), (2, "a"), (3, "a"),
                (4, "b"), (5, "a"), (6, "a"), (8, "a"),
            ]
        ]
        assert instant_of(history[-1][0]) == datetime(2021, 3, 8, tzinfo=timezone.utc)
        raw = baseline_answer(sequence_at("s", history))
        expected = "The next crash will happen on 2021-03-09 caused by a."
        assert raw.time_answer == expected
        assert raw.cause_answer == expected
        assert raw.backend_id == "baseline"

    def test_answer_survives_extraction(self):
        raw = baseline_answer(events_of([(0, "disk failure"), (6, "disk failure")]))
        extracted = extract_prediction(raw.time_answer)
        assert extracted.extraction_status == "both"
        assert extracted.cause_text == "disk failure"

    def test_deterministic(self):
        history = events_of([(0, "a"), (5, "b"), (9, "a")])
        assert baseline_answer(history).time_answer == baseline_answer(history).time_answer


class TestMonteCarloOracle:
    def test_mean_wait_matches_simulation(self):
        rng = random.Random(4242)
        for lam in (0.1, 0.5, 1.0, 4.0):
            draws = 200_000
            mean = sum(rng.expovariate(lam) for _ in range(draws)) / draws
            assert mean == pytest.approx(1 / lam, rel=0.02)


class TestScriptedBackend:
    def test_replays_in_order(self):
        backend = ScriptedBackend(["x", "y"])
        assert backend.complete("first prompt") == "x"
        assert backend.complete("second prompt") == "y"
        with pytest.raises(ScriptExhausted):
            backend.complete("third prompt")

    def test_transcript_is_byte_exact(self):
        line = 'The next crash will happen on 2021-03-09 caused by a.  '
        backend = ScriptedBackend([line])
        assert backend.complete("anything") == line

    def test_make_backend_reads_a_script_file(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps("one") + "\n" + json.dumps("two") + "\n")
        config = BackendConfig(kind="scripted", script_path=str(script))
        backend = make_backend(config)
        assert backend.complete("p") == "one"
        assert backend.complete("p") == "two"

    def test_make_backend_rejects_non_string_lines(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps({"not": "a string"}) + "\n")
        with pytest.raises(ConfigError):
            make_backend(BackendConfig(kind="scripted", script_path=str(script)))


class TestBackendConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nonsense"},
            {"kind": "remote-llm"},
            {"timeout": 0},
            {"max_in_flight": 0},
            {"retry_limit": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            BackendConfig(**kwargs)

    def test_baseline_kind_cannot_complete_prompts(self):
        with pytest.raises(ConfigError):
            make_backend(BackendConfig(kind="baseline"))

    def test_scripted_kind_needs_a_script(self):
        with pytest.raises(ConfigError):
            make_backend(BackendConfig(kind="scripted"))
