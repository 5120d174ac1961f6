"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line after its assertions hold, so a
plain pytest run doubles as an acceptance report.
"""

import json
import random
import time
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy
import pytest

from crashcast.config import parse_run_config
from crashcast.errors import (
    ProtocolError,
    RateLimited,
    Timeout,
    TransportError,
)
from crashcast.ingest import default_catalog, seconds_of
from crashcast.metrics import ZERO_SCORE, lcs_length, rouge_1, rouge_l
from crashcast.pipeline import (
    MANIFEST_FILE,
    PREDICTIONS_FILE,
    REPORT_FILE,
    SPLIT_FILE,
    WINDOW_FIELDS,
    _bundle_for,
    _restore_pairs,
    decode_record,
    ingest_stage,
    load_sequences,
    rebuild_sequences,
    run_all,
    sequence_stage,
    split_stage,
    synth_stage,
    windows_to_lines,
)
from crashcast.postprocess import extract_prediction
from crashcast.predictor import (
    BackendConfig,
    BaselineModel,
    RemoteBackend,
    mbr_next_time,
    mbr_next_type,
)
from crashcast.prompt import default_template, render_answer_sentence
from crashcast.sequencer import enumerate_pairs, partition_windows
from conftest import sequence_at
from oracles import clipped_overlap_bruteforce, lcs_bruteforce


def announce(capsys, number, text):
    with capsys.disabled():
        print(f"\nPASS criterion {number}: {text}")


def ground_truth_script(out_dir):
    rows = [
        json.loads(line)
        for line in (Path(out_dir) / PREDICTIONS_FILE).read_text().splitlines()
    ]
    script = []
    for row in rows:
        sentence = render_answer_sentence(row["target_time"], row["target_cause"])
        script.append(sentence)
        script.append(sentence)
    return script


class TestAcceptance:
    def test_criterion_1_metric_oracle_equivalence(self, capsys):
        rng = random.Random(20210304)
        vocab = ["a", "b", "c", "crash", "2021-03-04"]
        started = time.monotonic()
        instances = 0
        for _ in range(1000):
            candidate = [rng.choice(vocab) for _ in range(rng.randrange(0, 11))]
            reference = [rng.choice(vocab) for _ in range(rng.randrange(0, 11))]
            instances += 1

            unigram = rouge_1(candidate, reference)
            overlap = clipped_overlap_bruteforce(candidate, reference)
            subseq = rouge_l(candidate, reference)
            lcs = lcs_bruteforce(candidate, reference)
            assert lcs_length(candidate, reference) == lcs

            if not candidate or not reference:
                assert unigram == ZERO_SCORE
                assert subseq == ZERO_SCORE
                continue
            for score, hits in ((unigram, overlap), (subseq, lcs)):
                precision = hits / len(candidate)
                recall = hits / len(reference)
                f1 = (
                    0.0
                    if precision + recall == 0
                    else 2 * precision * recall / (precision + recall)
                )
                assert abs(score.precision - precision) <= 1e-12
                assert abs(score.recall - recall) <= 1e-12
                assert abs(score.f1 - f1) <= 1e-12
        elapsed = time.monotonic() - started
        assert instances >= 1000
        assert elapsed < 10.0
        announce(
            capsys,
            1,
            f"both metrics match brute-force oracles to 1e-12 on {instances} "
            f"instances in {elapsed:.1f}s",
        )

    def test_criterion_2_hand_verified_fixtures(self, capsys):
        unigram = rouge_1(
            "crash on 2021-03-04 due to driver failure".split(),
            "crash expected on 2021-03-04 due to driver power state failure".split(),
        )
        assert round(unigram.precision, 4) == 1.0
        assert round(unigram.recall, 4) == 0.7
        assert round(unigram.f1, 4) == 0.8235

        transposed = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
        assert lcs_length(["a", "b", "c", "d"], ["a", "c", "b", "d"]) == 3
        assert round(transposed.f1, 4) == 0.75
        announce(capsys, 2, "unigram 0.8235 and subsequence 0.75 fixtures reproduce")

    def test_criterion_3_mbr_against_monte_carlo(self, capsys):
        started = time.monotonic()
        t_last = datetime(2021, 3, 1, tzinfo=timezone.utc)
        mix = {"a": 0.75, "b": 0.25}
        for i, lam in enumerate((0.1, 0.5, 1.0, 4.0)):
            model = BaselineModel(
                rates={kind: share * lam for kind, share in mix.items()},
                total_rate=lam,
                t_last=t_last,
                observation_span=30.0,
            )

            mc = numpy.random.default_rng(1000 + i)
            waits = mc.exponential(scale=1.0 / lam, size=1_000_000)
            predicted_days = (mbr_next_time(model) - t_last) / timedelta(days=1)
            assert abs(predicted_days - waits.mean()) / waits.mean() < 0.01

            draws = mc.choice(
                sorted(mix), size=1_000_000, p=[mix[k] for k in sorted(mix)]
            )
            for kind, share in mix.items():
                empirical = float(numpy.mean(draws == kind))
                assert abs(model.rates[kind] / model.total_rate - empirical) < 0.01
            assert mbr_next_type(model) == "a"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        announce(
            capsys,
            3,
            f"waiting times within 1% and type mix within 0.01 of 10^6-sample "
            f"oracles for four rates in {elapsed:.1f}s",
        )

    def test_criterion_4_template_inversion(self, capsys):
        rng = random.Random(41)
        causes = sorted(default_catalog().values())
        checked = 0
        for cause in causes:
            for _ in range(50):
                day = date(2015, 1, 1).toordinal() + rng.randrange(0, 7300)
                date_text = date.fromordinal(day).isoformat()
                extracted = extract_prediction(render_answer_sentence(date_text, cause))
                assert extracted.extraction_status == "both"
                assert extracted.time_text == date_text
                assert extracted.cause_text == cause
                checked += 1
        assert checked == len(causes) * 50
        announce(
            capsys,
            4,
            f"render-then-extract recovered (date, cause) on all {checked} "
            f"catalog-by-date combinations",
        )

    def test_criterion_5_end_to_end_identity(self, capsys, tmp_path):
        document = {
            "seed": 9,
            "split": {"train_pairs": 30, "validation_pairs": 12},
            "generator": {"n_systems": 6, "days": 240, "per_system_rate": 0.5},
            "paths": {"out_dir": str(tmp_path / "probe")},
        }
        run_all(parse_run_config(document))
        script = ground_truth_script(tmp_path / "probe")
        script_path = tmp_path / "script.jsonl"
        script_path.write_text("".join(json.dumps(s) + "\n" for s in script))

        document["paths"]["out_dir"] = str(tmp_path / "scripted")
        document["backend"] = {"kind": "scripted", "script_path": str(script_path)}
        report = run_all(parse_run_config(document))

        for category in ("time", "cause", "full"):
            for metric in ("rouge1", "rougeL"):
                assert report["categories"][category][metric]["f1"] == 1.0
        announce(
            capsys,
            5,
            "scripted ground-truth answers score F1 1.0 in every category "
            "under both metrics",
        )

    def test_criterion_6_baseline_sanity(self, capsys, tmp_path):
        document = {"seed": 5, "paths": {"out_dir": str(tmp_path / "out")}}
        config = parse_run_config(document)
        assert config.split.train_pairs == 100
        assert config.split.validation_pairs == 40
        assert config.generator.noise_fraction > 0

        synth_stage(config)
        ingest_stage(config)
        sequences = sequence_stage(config)
        eligible = enumerate_pairs(sequences)
        assert len(eligible) >= 150

        report = run_all(config)
        assert report["categories"]["cause"]["rouge1"]["f1"] >= 0.9

        assert sorted(report["categories"]) == ["cause", "full", "time"]
        for category in report["categories"].values():
            assert sorted(category) == ["rouge1", "rougeL"]
            for metric in category.values():
                assert sorted(metric) == ["f1", "precision", "recall"]
        announce(
            capsys,
            6,
            f"dominant-cause corpus scores cause ROUGE-1 F1 "
            f"{report['categories']['cause']['rouge1']['f1']:.4f} >= 0.9 with the "
            f"full three-category report shape",
        )

    def test_criterion_7_determinism(self, capsys, tmp_path):
        document = {
            "seed": 31,
            "split": {"train_pairs": 30, "validation_pairs": 12},
            "generator": {"n_systems": 6, "days": 240, "per_system_rate": 0.5},
            "paths": {"out_dir": str(tmp_path / "out")},
        }
        config = parse_run_config(document)
        run_all(config)
        out = tmp_path / "out"
        first_report = (out / REPORT_FILE).read_bytes()
        first_manifest = (out / MANIFEST_FILE).read_bytes()

        run_all(config)
        assert (out / REPORT_FILE).read_bytes() == first_report
        assert (out / MANIFEST_FILE).read_bytes() == first_manifest
        announce(
            capsys, 7, "two identical-config runs wrote byte-identical report and manifest"
        )

    def test_criterion_8_protocol_robustness(self, capsys, tmp_path, stub_server):
        def backend_for(route, **overrides):
            kwargs = dict(
                kind="remote-llm",
                endpoint=stub_server.url(route),
                model_name="m",
                timeout=2.0,
                retry_limit=1,
                backoff_base=0.01,
            )
            kwargs.update(overrides)
            return RemoteBackend(BackendConfig(**kwargs), sleep=lambda s: None)

        stub_server.sleep_s = 0.5
        with pytest.raises(Timeout):
            backend_for("fixed", timeout=0.05, retry_limit=0).complete("p")
        stub_server.sleep_s = 0.0

        unreachable = RemoteBackend(
            BackendConfig(
                kind="remote-llm",
                endpoint="http://127.0.0.1:9/v1/chat",
                model_name="m",
                timeout=0.2,
                retry_limit=0,
            ),
            sleep=lambda s: None,
        )
        with pytest.raises(TransportError):
            unreachable.complete("p")

        with pytest.raises(ProtocolError):
            backend_for("rejected").complete("p")

        with pytest.raises(RateLimited):
            backend_for("limited").complete("p")

        stub_server.hits = 0
        stub_server.fail_first = 2
        retried = backend_for("flaky", retry_limit=3)
        assert retried.complete("p") == stub_server.completion
        assert retried.total_retries == 2
        assert stub_server.hits == 3

        stub_server.hits = 0
        limit_probe = backend_for("limited", retry_limit=2)
        with pytest.raises(RateLimited):
            limit_probe.complete("p")
        assert stub_server.hits == 3

        stub_server.hits = 0
        stub_server.die_after = 5
        stub_server.completion = (
            "The next crash will happen on 2022-01-01 caused by disk failure."
        )
        document = {
            "seed": 9,
            "split": {"train_pairs": 30, "validation_pairs": 12},
            "generator": {"n_systems": 6, "days": 240, "per_system_rate": 0.5},
            "paths": {"out_dir": str(tmp_path / "out")},
            "backend": {
                "kind": "remote-llm",
                "endpoint": stub_server.url("mortal"),
                "model_name": "m",
                "timeout": 2.0,
                "retry_limit": 0,
                "max_in_flight": 1,
            },
        }
        with pytest.raises(TransportError):
            run_all(parse_run_config(document))
        out = tmp_path / "out"
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "TransportError"
        finished = (out / PREDICTIONS_FILE).read_text().splitlines()
        assert len(finished) == 2
        for line in finished:
            row = json.loads(line)
            assert row["time_answer"] == stub_server.completion
        announce(
            capsys,
            8,
            "remote backend separated the four failure classes, honored "
            "retry_limit, and a mid-run failure left a partial-flush manifest",
        )

    def test_criterion_9_lossless_windowing(self, capsys):
        rng = random.Random(500500)
        kinds = ["a", "b", "c", "disk failure"]
        checked = 0
        for case in range(500):
            t = datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(
                hours=rng.randrange(0, 48)
            )
            events = []
            for _ in range(rng.randrange(1, 60)):
                t += timedelta(seconds=rng.randrange(1, 200000))
                events.append((seconds_of(t), rng.choice(kinds)))
            seq = sequence_at(f"w{case}", events)
            width = rng.randrange(1, 12)
            windows = partition_windows(seq, width)
            records = [
                decode_record(WINDOW_FIELDS, json.loads(line))
                for line in windows_to_lines(seq, windows, width)
            ]

            indices = [w["window_index"] for w in records]
            assert indices == list(range(len(windows)))

            (rebuilt,) = rebuild_sequences(records)
            assert [*rebuilt.times] == [*seq.times]
            assert [*rebuilt.kinds] == [*seq.kinds]
            checked += 1
        assert checked == 500
        announce(
            capsys,
            9,
            "500 random sequences re-assembled losslessly from contiguous windows",
        )

    def test_criterion_10_ten_shot_contract(self, capsys, tmp_path):
        document = {
            "seed": 5,
            "paths": {"out_dir": str(tmp_path / "out")},
        }
        config = parse_run_config(document)
        assert config.shots_k == 10
        synth_stage(config)
        ingest_stage(config)
        sequence_stage(config)
        split_stage(config)

        sequences = {seq.system_id: seq for seq in load_sequences(config)}
        split = json.loads((tmp_path / "out" / SPLIT_FILE).read_text())
        train = _restore_pairs(split["train"], sequences)
        validation = _restore_pairs(split["validation"], sequences)
        template = default_template()

        assert len(validation) == 40
        for pair in validation:
            pool = [p for p in train if p.system_id != pair.system_id]
            bundle = _bundle_for(config, template, pair, pool)
            prompt = bundle.rendered_time_prompt
            assert prompt.count("### Example") == 10
            assert len(bundle.shots) == 10
            assert (
                f"When will the next crash happen on system {pair.system_id}?"
                in prompt
            )
            assert "What will be the predicted crash cause?" in prompt
        announce(
            capsys,
            10,
            "all 40 validation prompts carry exactly 10 demonstrations and "
            "both verbatim questions",
        )
