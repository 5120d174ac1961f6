import ast
import dataclasses
import errno
import gc
import hashlib
import importlib.util
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from contextlib import nullcontext
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import sequence_of
from oracles import in_seconds, records_by_random_api, run_by_reference, split_by_reference
from crashcast import pipeline
from crashcast.cli import main
from crashcast.config import RunConfig, parse_run_config
from crashcast.errors import (
    ConfigError,
    DataError,
    EmptyCorpus,
    InsufficientData,
    ScriptExhausted,
    TransportError,
)
from crashcast.ingest import (
    build_corpus,
    default_catalog,
    filter_critical,
    format_timestamp,
    parse_lines,
    record_to_line,
    seconds_of,
)
from crashcast.metrics import RougeScore
from crashcast.predictor import PredictionRaw, baseline_answer
from crashcast.sequencer import enumerate_pairs
from crashcast.synthgen import GeneratorConfig, generate_systems
from crashcast.pipeline import (
    EVENTS_FILE,
    INGEST_FILE,
    LOGS_FILE,
    MANIFEST_FILE,
    PREDICTIONS_FILE,
    REPORT_FILE,
    SPLIT_FILE,
    TABLE_FILE,
    TIMINGS_FILE,
    WINDOWS_FILE,
    evaluate_stage,
    generate_corpus,
    ingest_stage,
    load_events,
    load_predictions,
    load_sequences,
    load_split,
    predict_stage,
    run_all,
    sequence_stage,
    split_pairs,
    split_stage,
    synth_stage,
)

SMALL_RUN = {
    "seed": 9,
    "split": {"train_pairs": 30, "validation_pairs": 12},
    "generator": {"n_systems": 6, "days": 240, "per_system_rate": 0.5},
}


def small_config(out_dir, **overrides):
    document = json.loads(json.dumps(SMALL_RUN))
    document.update(overrides)
    document.setdefault("paths", {})["out_dir"] = str(out_dir)
    return parse_run_config(document)


def _without_system_id(line):
    obj = json.loads(line)
    del obj["system_id"]
    return json.dumps(obj)


def _with_field(key, value):
    return lambda line: json.dumps({**json.loads(line), key: value})


def _reversed_times(line):
    obj = json.loads(line)
    return json.dumps({**obj, "times": obj["times"][::-1]})


def _with_a_repeated_empty_window(text):
    lines = text.splitlines()
    empty = next(line for line in lines if not json.loads(line)["times"])
    return "\n".join([*lines, empty]) + "\n"


def _corrupt_first_line(corrupt, where=lambda line: True):
    def rewrite(text):
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if where(line))
        lines[first] = corrupt(lines[first])
        return "\n".join(lines) + "\n"

    return rewrite


def _with_the_first_line_repeated(text):
    return text + text.splitlines()[0] + "\n"


def _with_a_pair_repeated(source, target):
    """split.json's text with the first pair of its source list added to its target list."""

    def rewrite(text):
        split = json.loads(text)
        split[target].append(split[source][0])
        return json.dumps(split)

    return rewrite


def _first_validation_index_one(text):
    split = json.loads(text)
    split["validation"][0][1] = 1
    return json.dumps(split)


STAGES = tuple(pipeline.STAGES)

# case: (stage file, corruption of its text, the stage that reads it[, config overrides])
CORRUPT_STAGE_FILES = {
    "empty-split": (SPLIT_FILE, lambda text: "{}", "predict"),
    "short-split-ref": (
        SPLIT_FILE,
        lambda text: json.dumps({**json.loads(text), "validation": [["x"]]}),
        "predict",
    ),
    "truncated-window": (
        WINDOWS_FILE,
        _corrupt_first_line(lambda line: line[: len(line) // 2]),
        "predict",
    ),
    "window-without-system": (WINDOWS_FILE, _corrupt_first_line(_without_system_id), "predict"),
    "event-time-not-a-time": (
        EVENTS_FILE,
        _corrupt_first_line(_with_field("time", "yesterday")),
        "sequence",
    ),
    "reversed-window-times": (
        WINDOWS_FILE,
        _corrupt_first_line(_reversed_times, where=lambda line: len(json.loads(line)["times"]) > 1),
        "split",
    ),
    # a timestamp must match in full: "$" would match before a trailing newline
    "event-time-trailing-newline": (
        EVENTS_FILE,
        _corrupt_first_line(lambda line: json.dumps(
            {**json.loads(line), "time": json.loads(line)["time"] + "\n"}
        )),
        "sequence",
    ),
    "events-not-utf8": (EVENTS_FILE, lambda text: text + "\udcff\n", "sequence"),
    "split-not-utf8": (SPLIT_FILE, lambda text: text + "\udcff", "predict"),
    # a pair's history holds at least one event: split draws index 2 and up
    "split-index-one": (SPLIT_FILE, _first_validation_index_one, "predict"),
    "prediction-time-not-a-string": (
        PREDICTIONS_FILE,
        _corrupt_first_line(_with_field("target_time", 5)),
        "evaluate",
    ),
    "prediction-index-not-an-int": (
        PREDICTIONS_FILE,
        _corrupt_first_line(_with_field("index", "x")),
        "evaluate",
    ),
    # json.dumps writes a lone surrogate as the escape "\ud800"
    "event-kind-lone-surrogate": (
        EVENTS_FILE,
        _corrupt_first_line(_with_field("kind", "\ud800")),
        "sequence",
    ),
    "window-system-lone-surrogate": (
        WINDOWS_FILE,
        _corrupt_first_line(_with_field("system_id", "x\udfff")),
        "split",
    ),
    "prediction-backend-lone-surrogate": (
        PREDICTIONS_FILE,
        _corrupt_first_line(_with_field("backend_id", "\ud800")),
        "evaluate",
    ),
    # a JSON boolean is not an integer, although Python's bool is an int
    "prediction-index-true": (
        PREDICTIONS_FILE,
        _corrupt_first_line(lambda line: json.dumps(
            {**json.loads(line), "index": True, "window_index": False}
        )),
        "evaluate",
    ),
    "window-width-true": (
        WINDOWS_FILE,
        _corrupt_first_line(_with_field("width_days", True)),
        "split",
        {"window_days": 1},
    ),
    # window_start must be the day floor of the system's first event + window_index widths
    "shifted-window-start": (
        WINDOWS_FILE,
        _corrupt_first_line(_with_field("window_start", "1999-01-01T00:00:00Z")),
        "split",
    ),
    # a system's window indices must run 0..n-1 once each
    "duplicated-empty-window": (WINDOWS_FILE, _with_a_repeated_empty_window, "split",
                                {"window_days": 1}),
    # a stage file names each item once: ingest's dedup key, a split pair, a predicted pair
    "repeated-event": (EVENTS_FILE, _with_the_first_line_repeated, "sequence"),
    "repeated-validation-pair": (
        SPLIT_FILE, _with_a_pair_repeated("validation", "validation"), "predict"
    ),
    "train-pair-in-validation": (
        SPLIT_FILE, _with_a_pair_repeated("train", "validation"), "predict"
    ),
    "repeated-prediction": (PREDICTIONS_FILE, _with_the_first_line_repeated, "evaluate"),
}

# every file run_by_reference writes: the manifest's outputs and ingest.json
REFERENCE_FILES = [name for files in pipeline.STAGES.values() for name in files]


# the files run_all writes in this process, not in a forked writer
MAIN_PROCESS_FILES = [SPLIT_FILE, PREDICTIONS_FILE, REPORT_FILE, TABLE_FILE]


def _failing_write(*names, after=1):
    """pipeline._write, but the disk fills after `after` chunks (None: all) of any file called
    one of names."""
    real_write = pipeline._write

    def chunks_then_no_space(chunks):
        yield from islice(chunks, after)
        _refused(errno.ENOSPC)

    def write(path, chunks):
        real_write(path, chunks_then_no_space(chunks) if path.name in names else chunks)

    return write


@st.composite
def _reference_configs(draw):
    """Small baseline runs that vary every knob the outputs depend on."""
    rate = draw(st.sampled_from([0.3, 1.0, 2.5, 600.0]))
    heavy = rate > 500  # a day's count takes two Knuth chunks: one system, a few days
    # the default start; one whose first weeks fall before ingest's epoch floor; a leap day;
    # and two late enough that a mean wait can end past 9999-12-31, the last of them
    # leaving 120 days, the most drawn, to the end of the calendar
    start = draw(st.sampled_from(["2021-01-01", "1999-11-15", "2024-02-28", "9999-08-01",
                                  "9999-09-03"]))
    return {
        "seed": draw(st.integers(0, 2**32)),
        "window_days": draw(st.sampled_from([1, 3, 7, 30, 100000])),
        "split": {
            "train_pairs": draw(st.integers(1, 20)),
            "validation_pairs": draw(st.integers(1, 20)),
        },
        "normalization": {"remove_stopwords": draw(st.booleans())},
        "generator": {
            "n_systems": 1 if heavy else draw(st.integers(1, 6)),
            "days": 5 if heavy else draw(st.integers(5, 120)),
            "per_system_rate": rate,
            "bursty": draw(st.booleans()),
            "noise_fraction": draw(st.sampled_from([0.0, 0.2, 0.5])),
            "start_date": start,
        },
    }


# case: (config key named in the error, config overrides given the test's tmp_path)
UNREADABLE_CONFIG_FILES = {
    "missing-catalog": ("paths.catalog", lambda tmp: {"paths": {"catalog": str(tmp / "no")}}),
    "catalog-not-utf8": (
        "paths.catalog",
        lambda tmp: {"paths": {"catalog": str(tmp / "latin1.txt")}},
    ),
    "missing-stopwords": (
        "paths.stopwords",
        lambda tmp: {
            "paths": {"stopwords": str(tmp / "no")},
            "normalization": {"remove_stopwords": True},
        },
    ),
    "missing-template": (
        "paths.template",
        lambda tmp: {
            "paths": {"template": str(tmp / "no")},
            "backend": {"kind": "scripted", "script_path": str(tmp / "script.jsonl")},
        },
    ),
    "missing-script": (
        "backend.script_path",
        lambda tmp: {"backend": {"kind": "scripted", "script_path": str(tmp / "no")}},
    ),
    "script-not-json": (
        "backend.script_path",
        lambda tmp: {"backend": {"kind": "scripted", "script_path": str(tmp / "prose.txt")}},
    ),
    "script-lone-surrogate": (
        "backend.script_path",
        lambda tmp: {"backend": {"kind": "scripted", "script_path": str(tmp / "surrogate.jsonl")}},
    ),
    "catalog-not-a-code": (
        "paths.catalog",
        lambda tmp: {"paths": {"catalog": str(tmp / "not-a-code.txt")}},
    ),
    "catalog-bad-hex": (
        "paths.catalog",
        lambda tmp: {"paths": {"catalog": str(tmp / "bad-hex.txt")}},
    ),
    "missing-logs": ("paths.logs", lambda tmp: {"paths": {"logs": str(tmp / "nope.jsonl")}}),
}

# a remote backend whose calls the tests replace, so no request is sent
REMOTE_SHAPED = {
    "kind": "remote-llm",
    "endpoint": "http://127.0.0.1:9/v1/chat",
    "model_name": "m",
    "max_in_flight": 2,
}


# sha256 of each output at seed 1234, the default config and its bursty variant
OUTPUT_PINS = {
    "default": ({}, {
        LOGS_FILE: "507f24f0d66dc0e25406bd04766c5a7a2789b1c27ac28dea0124566244bba0ec",
        EVENTS_FILE: "5180b8d9bd059fe5f53f98a9308568dea5de74761f0f38ed218278de0277fc66",
        INGEST_FILE: "a8cca8743560deaa519590501690c4d99f0612472fe0d1a40b110222c27b6d2c",
        WINDOWS_FILE: "d1238a8b04f056cb4503c09ff5fde9de2b27bdecb166ee1c4046733829fa7d5e",
        SPLIT_FILE: "1647110bf68af541bae0b070c6bf9ded0be23f5695934738ed588898e3711098",
        PREDICTIONS_FILE: "8858bd2d26c4125e39f65cddffc77aca28938e8f5a7f41c2a85e61e3100abbbc",
        REPORT_FILE: "1a3b8783ca430d1daa5b14b5d718de3ac2709c9042bd9f0dff175f599436fce8",
        TABLE_FILE: "b06416d41a47722f681cbdc6d7aa5d578058d9ffacc827c7fa8a8b30462fc8e8",
    }),
    "bursty": ({"generator": {"bursty": True}}, {
        LOGS_FILE: "f7bc4c73690f4189f594ef2c011387977e50e7907a2532dd7f198502792eeebd",
        EVENTS_FILE: "4db55a1a4b247d1fa010f9f017e13469b55401c931a8ca80ff32729dd634ef1b",
        INGEST_FILE: "cfe893bde651189b1971e76310f0a6e19ff2da1bc9fbda9603bf33a3235eb3ea",
        WINDOWS_FILE: "603b7f9c851646f39c0d390ca853687e11a995f1bdaaf5aa815dc54e0955ed54",
        SPLIT_FILE: "c58d1ac166db8559642b0f61540446a44dae70af322bed0200b780cecf0d423a",
        PREDICTIONS_FILE: "93992e2703f0be7046544e826211c88cb4d691c067b71b937e707fed381fa892",
        REPORT_FILE: "9113d00a33a487cf6d7cd3b46e2ee1f88e8cb786f6bbef5552f70bd0bb2c82e9",
        TABLE_FILE: "227bcba5e86263162f6a6d132bea892c963ce3dcd7d21cb5709857101bb528ed",
    }),
}


def single_pair_systems(n):
    return [sequence_of(f"s{i:03d}", [(0, "a"), (1, "b")]) for i in range(n)]


class TestSplitPairs:
    def test_exact_pool_sizes_and_disjointness(self):
        train, val = split_pairs(single_pair_systems(200), 100, 40, seed=5)
        assert len(train) == 100
        assert len(val) == 40
        train_keys = {(p.system_id, p.index) for p in train}
        val_keys = {(p.system_id, p.index) for p in val}
        assert len(train_keys) == 100
        assert len(val_keys) == 40
        assert not train_keys & val_keys

    def test_shortfall_is_counted(self):
        with pytest.raises(InsufficientData) as exc_info:
            split_pairs(single_pair_systems(120), 100, 40, seed=5)
        assert exc_info.value.shortfall == 20
        assert "20" in str(exc_info.value)

    def test_same_seed_reproduces_the_split(self):
        sequences = single_pair_systems(200)
        first = split_pairs(sequences, 100, 40, seed=5)
        second = split_pairs(sequences, 100, 40, seed=5)
        assert [
            (p.system_id, p.index) for pool in first for p in pool
        ] == [(p.system_id, p.index) for pool in second for p in pool]

    def test_different_seed_moves_the_split(self):
        sequences = single_pair_systems(200)
        first, _ = split_pairs(sequences, 100, 40, seed=5)
        second, _ = split_pairs(sequences, 100, 40, seed=6)
        assert {(p.system_id, p.index) for p in first} != {
            (p.system_id, p.index) for p in second
        }

    def test_train_history_never_reaches_a_held_out_target(self):
        sequences = [
            sequence_of(f"m{i}", [(d, "x") for d in range(0, 60, 2)]) for i in range(8)
        ]
        successes = 0
        for seed in range(12):
            try:
                train, val = split_pairs(sequences, 40, 16, seed=seed)
            except InsufficientData:
                continue
            successes += 1
            earliest_val = {}
            for pair in val:
                earliest_val[pair.system_id] = min(
                    earliest_val.get(pair.system_id, pair.index), pair.index
                )
            for pair in train:
                if pair.system_id in earliest_val:
                    assert pair.index < earliest_val[pair.system_id]
        assert successes > 0

    def test_validation_pairs_carry_real_targets(self):
        sequences = single_pair_systems(150)
        _, val = split_pairs(sequences, 80, 30, seed=2)
        for pair in val:
            assert len(pair.history) == 1
            assert pair.sequence.times[pair.index - 1] > pair.history.times[-1]
            assert pair.index == 2


# split_pairs builds only the pairs it keeps from a shuffle of flat pair positions: it must
# keep what a shuffle of every pair keeps, and fall short by as many
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=12), max_size=8),
    train_n=st.integers(min_value=0, max_value=30),
    val_n=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(lengths=[0, 1, 3], train_n=1, val_n=1, seed=0)  # two systems with no pair
@settings(max_examples=300)
def test_split_pairs_keeps_what_a_shuffle_of_every_pair_keeps(lengths, train_n, val_n, seed):
    sequences = [
        sequence_of(f"s{i:02d}", [(day, "ab"[day % 2]) for day in range(n)])
        for i, n in enumerate(lengths)
    ]
    try:
        expected = split_by_reference(sequences, train_n, val_n, seed)
    except InsufficientData as err:
        with pytest.raises(InsufficientData) as raised:
            split_pairs(sequences, train_n, val_n, seed)
        assert raised.value.shortfall == err.shortfall
    else:
        assert split_pairs(sequences, train_n, val_n, seed) == expected


class TestStages:
    def test_run_all_writes_every_artifact(self, tmp_path):
        config = small_config(tmp_path / "out")
        report = run_all(config)
        out = tmp_path / "out"
        for name in (
            LOGS_FILE,
            EVENTS_FILE,
            WINDOWS_FILE,
            SPLIT_FILE,
            PREDICTIONS_FILE,
            REPORT_FILE,
            TABLE_FILE,
            MANIFEST_FILE,
            TIMINGS_FILE,
        ):
            assert (out / name).exists(), name
        assert report["item_count"] == 12
        assert set(report["categories"]) == {"time", "cause", "full"}
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["item_counts"]["validation"] == 12
        for digest in manifest["outputs"].values():
            assert digest is None or len(digest) == 64

    def test_stagewise_run_matches_run_all(self, tmp_path, monkeypatch):
        prompts: dict[Path, list[str]] = {}

        def recording(backend, bundle):
            prompts.setdefault(out_dir, []).append(bundle.rendered_time_prompt)
            return PredictionRaw("I cannot tell.", "", backend.backend_id)

        monkeypatch.setattr(pipeline, "_predict_one", recording)
        for variant, overrides in (("baseline", {}), ("remote", {"backend": REMOTE_SHAPED})):
            out_dir = tmp_path / variant / "whole"
            run_all(small_config(out_dir, **overrides))
            whole_prompts = sorted(prompts.pop(out_dir, []))

            out_dir = tmp_path / variant / "steps"
            steps = small_config(out_dir, **overrides)
            synth_stage(steps)
            ingest_stage(steps)
            sequence_stage(steps)
            split_stage(steps)
            predict_stage(steps)
            evaluate_stage(steps)

            for name in (
                LOGS_FILE,
                EVENTS_FILE,
                INGEST_FILE,
                WINDOWS_FILE,
                SPLIT_FILE,
                PREDICTIONS_FILE,
                REPORT_FILE,
                TABLE_FILE,
            ):
                whole_bytes = (tmp_path / variant / "whole" / name).read_bytes()
                steps_bytes = (tmp_path / variant / "steps" / name).read_bytes()
                assert whole_bytes == steps_bytes, (variant, name)
            # the shots come from the train pool in list order, so this also
            # pins the order in which run_all hands the pool forward
            assert whole_prompts == sorted(prompts.pop(out_dir, [])), variant
            assert len(whole_prompts) == (12 if variant == "remote" else 0)

    def test_run_all_reads_no_stage_file_back(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_all read a stage file back")

        for reader in (
            "load_events",
            "load_sequences",
            "load_split",
            "load_predictions",
            "_read_records",
            "_read_json",
            # run draws the records again in this process: logs.jsonl is not parsed back either
            "parse_lines",
            "_read_lines",
        ):
            monkeypatch.setattr(pipeline, reader, refuse)
        report = run_all(small_config(tmp_path / "out"))
        assert report["item_count"] == 12
        manifest = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())
        assert manifest["status"] == "ok"

    def test_source_digest_is_the_logs_file_digest(self, tmp_path):
        run_all(small_config(tmp_path / "out"))
        out = tmp_path / "out"
        ingest = json.loads((out / INGEST_FILE).read_text())
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert ingest["source_digest"] == manifest["outputs"]["logs"]
        assert ingest["source_digest"] == hashlib.sha256((out / LOGS_FILE).read_bytes()).hexdigest()

    def test_crlf_logs_load_the_same_events(self, tmp_path):
        config = small_config(tmp_path / "out")
        synth_stage(config)
        events = ingest_stage(config).events
        logs = tmp_path / "out" / LOGS_FILE
        logs.write_bytes(logs.read_bytes().replace(b"\n", b"\r\n"))
        assert ingest_stage(config).events == events

    def test_ingest_memory_is_linear_in_the_logs(self, tmp_path):
        # a logs file of about 1.8 MB; ingest keeps its records and its corpus, about
        # 5.5 times the file, and holding the file's text or every output line too passes 9
        config = small_config(tmp_path / "out", generator={"n_systems": 40, "days": 540})
        synth_stage(config)
        size = pipeline.path_of(config, LOGS_FILE).stat().st_size
        tracemalloc.start()
        try:
            ingest_stage(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * size, f"{peak / size:.1f}x the logs file"

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, RuntimeError])
    def test_stopped_rerun_keeps_its_finished_rows_and_no_stale_manifest(
        self, tmp_path, monkeypatch, stop
    ):
        config = parse_run_config({"paths": {"out_dir": str(tmp_path / "out")}})
        run_all(config)
        answered = []

        def stopping(history):
            answered.append(history)
            if len(answered) == 21:
                raise stop()
            return baseline_answer(history)

        monkeypatch.setattr(pipeline, "baseline_answer", stopping)
        with pytest.raises(stop):
            run_all(config)
        out = tmp_path / "out"
        assert len((out / PREDICTIONS_FILE).read_text().splitlines()) == 20
        if stop is RuntimeError:
            # not an error run_all handles: no manifest rather than the earlier run's
            assert not (out / MANIFEST_FILE).exists()
            assert not (out / TIMINGS_FILE).exists()
            return
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "KeyboardInterrupt"
        assert manifest["item_counts"]["predictions"] == 20
        written = {name for name, digest in manifest["outputs"].items() if digest}
        assert written == {"logs", "events", "windows", "split", "predictions"}
        assert not (out / REPORT_FILE).exists()
        assert "predict" in json.loads((out / TIMINGS_FILE).read_text())["seconds"]

    @pytest.mark.parametrize("ending", [None, DataError, KeyboardInterrupt])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_run_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, enabled, ending):
        paused = []

        def answer(history):
            paused.append(not gc.isenabled())
            if ending is not None:
                raise ending("stopped")
            return baseline_answer(history)

        monkeypatch.setattr(pipeline, "baseline_answer", answer)
        (gc.enable if enabled else gc.disable)()
        try:
            if ending is None:
                run_all(small_config(tmp_path / "out"))
            else:
                with pytest.raises(ending):
                    run_all(small_config(tmp_path / "out"))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert paused and all(paused)

    def test_a_run_leaves_almost_no_cycles_to_collect(self, tmp_path):
        # the collector is paused for a whole run: a cycle per record would pile up
        config = parse_run_config({"paths": {"out_dir": str(tmp_path / "out")}})
        gc.collect()
        gc.disable()
        try:
            run_all(config)
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed < 1000

    @pytest.mark.parametrize("variant", sorted(OUTPUT_PINS))
    def test_outputs_match_their_pins(self, tmp_path, variant):
        overrides, pins = OUTPUT_PINS[variant]
        out = tmp_path / "out"
        run_all(parse_run_config({**overrides, "paths": {"out_dir": str(out)}}))
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pins}
        assert digests == pins

    @pytest.mark.parametrize("variant", sorted(OUTPUT_PINS))
    def test_the_reference_run_writes_the_pinned_outputs(self, tmp_path, variant):
        overrides, pins = OUTPUT_PINS[variant]
        run_by_reference(parse_run_config(overrides), tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in pins}
        assert digests == pins

    @given(_reference_configs())
    # the last validation pairs' mean waits end past 9999-12-31: they get no answer
    @example({
        "seed": 5, "split": {"train_pairs": 5, "validation_pairs": 10},
        "generator": {"n_systems": 2, "days": 60, "per_system_rate": 0.3,
                      "start_date": "9999-11-02"},
    })
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_run_all_writes_what_the_reference_run_writes(self, document):
        with tempfile.TemporaryDirectory() as root:
            out, reference = Path(root) / "out", Path(root) / "reference"
            config = parse_run_config({**document, "paths": {"out_dir": str(out)}})
            try:
                run_all(config)
            except (EmptyCorpus, InsufficientData) as err:
                with pytest.raises(type(err)):
                    run_by_reference(config, reference)
                return
            run_by_reference(config, reference)
            for name in REFERENCE_FILES:
                assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_manifest_pair_count_matches_the_enumerated_pairs(self, tmp_path):
        synth_stage(small_config(tmp_path / "seed"))
        logs = tmp_path / "logs.jsonl"
        lonely = {"guid": "host-lonely", "ts": "2021-03-01T00:00:00Z", "event_id": 41}
        logs.write_text((tmp_path / "seed" / LOGS_FILE).read_text() + json.dumps(lonely) + "\n")
        config = small_config(tmp_path / "out", paths={"logs": str(logs)})
        run_all(config)
        sequences = load_sequences(config)
        assert [len(seq) for seq in sequences if seq.system_id == "host-lonely"] == [1]
        manifest = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())
        assert manifest["item_counts"]["pairs"] == len(enumerate_pairs(sequences))

    def test_rerun_in_place_is_byte_identical(self, tmp_path):
        config = small_config(tmp_path / "out")
        run_all(config)
        first_report = (tmp_path / "out" / REPORT_FILE).read_bytes()
        first_manifest = (tmp_path / "out" / MANIFEST_FILE).read_bytes()
        run_all(config)
        assert (tmp_path / "out" / REPORT_FILE).read_bytes() == first_report
        assert (tmp_path / "out" / MANIFEST_FILE).read_bytes() == first_manifest

    def test_manifest_replay_reproduces_the_report(self, tmp_path):
        config = small_config(tmp_path / "out")
        run_all(config)
        out = tmp_path / "out"
        saved_report = (out / REPORT_FILE).read_bytes()
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        replayed = parse_run_config(manifest["config"])
        assert replayed == config
        run_all(replayed)
        assert (out / REPORT_FILE).read_bytes() == saved_report

    def test_user_supplied_logs_are_left_alone(self, tmp_path):
        seed_dir = tmp_path / "seed"
        run_all(small_config(seed_dir))
        fixed_logs = tmp_path / "fixed.jsonl"
        fixed_logs.write_bytes((seed_dir / LOGS_FILE).read_bytes())
        before = fixed_logs.read_bytes()

        config = small_config(
            tmp_path / "out", paths={"logs": str(fixed_logs), "out_dir": str(tmp_path / "out")}
        )
        run_all(config)
        assert fixed_logs.read_bytes() == before
        assert not (tmp_path / "out" / LOGS_FILE).exists()

    def test_evaluate_stopword_override_changes_the_report(self, tmp_path):
        config = small_config(tmp_path / "out")
        plain = run_all(config)
        flags = dataclasses.replace(config.normalization, remove_stopwords=True)
        filtered = evaluate_stage(dataclasses.replace(config, normalization=flags))
        assert plain["normalization"]["remove_stopwords"] is False
        assert filtered["normalization"]["remove_stopwords"] is True
        assert (
            filtered["categories"]["full"]["rouge1"]["f1"]
            != plain["categories"]["full"]["rouge1"]["f1"]
        )
        written = json.loads((tmp_path / "out" / REPORT_FILE).read_text())
        assert written["normalization"]["remove_stopwords"] is True

    def test_stopword_flag_requires_a_list(self, tmp_path):
        (tmp_path / "stop.txt").write_text("# a comment and no word\n")
        config = small_config(
            tmp_path / "out",
            paths={"stopwords": str(tmp_path / "stop.txt")},
            normalization={"remove_stopwords": True},
        )
        with pytest.raises(ConfigError, match="stopword list is empty"):
            evaluate_stage(config)

    def test_predictions_rows_are_sorted_and_complete(self, tmp_path):
        config = small_config(tmp_path / "out")
        run_all(config)
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / PREDICTIONS_FILE).read_text().splitlines()
        ]
        assert len(rows) == 12
        keys = [(row["system_id"], row["index"]) for row in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert set(row) == {
                "system_id",
                "index",
                "window_index",
                "target_time",
                "target_cause",
                "time_answer",
                "cause_answer",
                "backend_id",
            }
            assert row["backend_id"] == "baseline"

    def test_report_items_cover_every_category(self, tmp_path):
        config = small_config(tmp_path / "out")
        summary = run_all(config)
        assert "items" not in summary  # the rows are written, not returned
        items = json.loads((tmp_path / "out" / REPORT_FILE).read_text())["items"]
        assert len(items) == 12 * 3
        by_category = {}
        for item in items:
            by_category.setdefault(item["category"], []).append(item)
        assert set(by_category) == {"time", "cause", "full"}
        for rows in by_category.values():
            assert len(rows) == 12

    def test_table_has_six_metric_rows(self, tmp_path):
        config = small_config(tmp_path / "out")
        run_all(config)
        lines = (tmp_path / "out" / TABLE_FILE).read_text().splitlines()
        assert lines[0] == "backend_id,category,metric,precision,recall,f1"
        assert len(lines) == 7
        seen = {tuple(line.split(",")[1:3]) for line in lines[1:]}
        assert seen == {
            (category, metric)
            for category in ("time", "cause", "full")
            for metric in ("rouge1", "rougeL")
        }


class TestScriptedRuns:
    def answers_for(self, config):
        run_all(config)
        out_dir = Path(config.paths.out_dir)
        rows = [
            json.loads(line)
            for line in (out_dir / PREDICTIONS_FILE).read_text().splitlines()
        ]
        script = []
        for row in rows:
            sentence = (
                f"The next crash will happen on {row['target_time']} "
                f"caused by {row['target_cause']}."
            )
            script.append(sentence)
            script.append(sentence)
        return script

    def test_scripted_backend_runs_the_same_plumbing(self, tmp_path):
        baseline_config = small_config(tmp_path / "base")
        script_lines = self.answers_for(baseline_config)
        script_path = tmp_path / "script.jsonl"
        script_path.write_text(
            "".join(json.dumps(line) + "\n" for line in script_lines)
        )
        config = small_config(
            tmp_path / "scripted",
            backend={"kind": "scripted", "script_path": str(script_path)},
        )
        report = run_all(config)
        assert report["item_count"] == 12
        for category in ("time", "cause", "full"):
            assert report["categories"][category]["rouge1"]["f1"] == pytest.approx(1.0)

    def test_exhausted_script_flushes_the_finished_prefix(self, tmp_path):
        baseline_config = small_config(tmp_path / "base")
        script_lines = self.answers_for(baseline_config)[:7]
        script_path = tmp_path / "script.jsonl"
        script_path.write_text(
            "".join(json.dumps(line) + "\n" for line in script_lines)
        )
        config = small_config(
            tmp_path / "scripted",
            backend={"kind": "scripted", "script_path": str(script_path)},
        )
        with pytest.raises(ScriptExhausted):
            run_all(config)
        out = tmp_path / "scripted"
        rows = (out / PREDICTIONS_FILE).read_text().splitlines()
        assert len(rows) == 3
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "ScriptExhausted"
        assert manifest["outputs"]["report"] is None
        timings = json.loads((out / TIMINGS_FILE).read_text())
        assert "predict" in timings["seconds"]

    def test_failing_endpoint_stops_within_the_window(self, tmp_path, stub_server):
        stub_server.die_after = 10
        stub_server.sleep_s = 0.01
        stub_server.completion = (
            "The next crash will happen on 2022-01-01 caused by disk failure."
        )
        max_in_flight = 4
        config = small_config(
            tmp_path / "out",
            split={"train_pairs": 30, "validation_pairs": 40},
            backend={
                "kind": "remote-llm",
                "endpoint": stub_server.url("mortal"),
                "model_name": "m",
                "timeout": 2.0,
                "retry_limit": 0,
                "max_in_flight": max_in_flight,
            },
        )
        with pytest.raises(TransportError):
            run_all(config)
        assert stub_server.hits <= stub_server.die_after + 2 * max_in_flight
        rows = (tmp_path / "out" / PREDICTIONS_FILE).read_text().splitlines()
        assert rows
        for line in rows:
            row = json.loads(line)
            assert row["time_answer"] == stub_server.completion
            assert row["cause_answer"] == stub_server.completion


# stage file -> its field table
STAGE_TABLES = {
    EVENTS_FILE: pipeline.EVENT_FIELDS,
    WINDOWS_FILE: pipeline.WINDOW_FIELDS,
    PREDICTIONS_FILE: pipeline.PREDICTION_FIELDS,
}


class TestStageFileCodecs:
    @pytest.mark.parametrize("name", sorted(STAGE_TABLES))
    def test_each_codec_is_its_own_inverse(self, stage_run, name):
        _, files, _ = stage_run
        table = STAGE_TABLES[name]
        lines = files[name].decode("utf-8").splitlines()
        assert lines
        for line in lines:
            record = pipeline.decode_record(table, json.loads(line))
            assert pipeline.encode_line(table, record.values()) == line

    def test_readme_stage_files_section_is_the_field_tables(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Stage files\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for block in section.split("\n### ")[1:]:
            name, *rows = block.splitlines()
            documented[name.strip("`")] = [
                tuple(cell.strip().strip("`") for cell in row.strip("|").split("|"))
                for row in rows
                if row.startswith("| `")
            ]
        assert documented == {
            name: [(key, field.name) for key, field in table.items()]
            for name, table in STAGE_TABLES.items()
        }


class TestSequenceRoundTrip:
    def test_load_sequences_restores_what_sequence_stage_wrote(self, tmp_path):
        config = small_config(tmp_path / "out")
        synth_stage(config)
        ingest_stage(config)
        built = sequence_stage(config)
        loaded = load_sequences(config)
        assert [s.system_id for s in loaded] == [s.system_id for s in built]
        assert [(s.times, s.kinds) for s in loaded] == [(s.times, s.kinds) for s in built]


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args), catch_exceptions=False)

    def write_config(self, tmp_path, **overrides):
        document = json.loads(json.dumps(SMALL_RUN))
        document.update(overrides)
        document.setdefault("paths", {})["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(document))
        return path

    def test_run_end_to_end_exits_zero(self, tmp_path):
        config_path = self.write_config(tmp_path)
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 0, result.output
        assert "cause" in result.output
        assert (tmp_path / "out" / REPORT_FILE).exists()

    def test_stage_subcommands_compose(self, tmp_path):
        config_path = self.write_config(tmp_path)
        for stage in ("synth", "ingest", "sequence", "split", "predict", "evaluate"):
            result = self.invoke("--config", str(config_path), stage)
            assert result.exit_code == 0, (stage, result.output)
        assert (tmp_path / "out" / REPORT_FILE).exists()

    def test_missing_config_file_is_exit_two(self, tmp_path):
        result = self.invoke("--config", str(tmp_path / "absent.json"), "run")
        assert result.exit_code == 2

    @pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIG_FILES))
    def test_unreadable_config_file_is_exit_two(self, tmp_path, case):
        key, overrides = UNREADABLE_CONFIG_FILES[case]
        (tmp_path / "latin1.txt").write_bytes(b"0x9F caf\xe9\n")
        (tmp_path / "script.jsonl").write_text('"an answer"\n')
        (tmp_path / "prose.txt").write_text("not json\n")
        (tmp_path / "surrogate.jsonl").write_text('"\\ud800"\n')
        (tmp_path / "not-a-code.txt").write_text("not-a-code\n")
        (tmp_path / "bad-hex.txt").write_text("0xZZ driver power state failure\n")
        config_path = self.write_config(tmp_path, **overrides(tmp_path))
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 2, result.output
        assert key in result.output
        manifest = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "ConfigError"

    def test_unknown_config_key_is_exit_two(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"bogus": 1}))
        result = self.invoke("--config", str(path), "run")
        assert result.exit_code == 2

    # a window is a timedelta, whose days stop at 999,999,999
    def test_window_wider_than_a_timedelta_is_exit_two_naming_the_key(self, tmp_path):
        config_path = self.write_config(tmp_path, window_days=1_000_000_000)
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 2, result.output
        assert "window_days must be from 1 to 999999999" in result.output

    def test_widest_window_runs(self, tmp_path):
        config_path = self.write_config(tmp_path, window_days=999_999_999)
        assert self.invoke("--config", str(config_path), "run").exit_code == 0
        windows = (tmp_path / "out" / WINDOWS_FILE).read_text().splitlines()
        assert all('"window_index": 0' in line for line in windows)

    def test_insufficient_data_is_exit_three(self, tmp_path):
        config_path = self.write_config(
            tmp_path, generator={"n_systems": 1, "days": 30, "per_system_rate": 0.3}
        )
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 3

    def test_malformed_logs_are_exit_three(self, tmp_path):
        logs = tmp_path / "bad.jsonl"
        logs.write_text('{"guid": "x"}\n')
        config_path = self.write_config(
            tmp_path,
            paths={"logs": str(logs), "out_dir": str(tmp_path / "out")},
        )
        result = self.invoke("--config", str(config_path), "ingest")
        assert result.exit_code == 3

    # a log value must match its pattern in full and in ASCII digits
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ts", "2021-03-04T05:06:07Z\n", "not a full UTC instant"),
            ("ts", "\u0662\u0660\u0662\u0661-03-04T05:06:07Z", "not a full UTC instant"),
            ("bugcheck", "0x9F\n", "violates 0x hex pattern"),
        ],
        ids=["ts-trailing-newline", "ts-arabic-indic-digits", "bugcheck-trailing-newline"],
    )
    def test_log_value_past_its_pattern_is_exit_three(self, tmp_path, field, value, message):
        logs = tmp_path / "logs.jsonl"
        record = {"guid": "x", "ts": "2021-03-04T05:06:07Z", "event_id": 41, field: value}
        logs.write_text(json.dumps(record) + "\n")
        config_path = self.write_config(
            tmp_path, paths={"logs": str(logs), "out_dir": str(tmp_path / "out")}
        )
        result = self.invoke("--config", str(config_path), "ingest")
        assert result.exit_code == 3, result.output
        assert "line 1: " in result.output
        assert message in result.output

    @pytest.mark.parametrize("case", sorted(CORRUPT_STAGE_FILES))
    def test_corrupt_stage_file_is_exit_three(self, tmp_path, case):
        name, corrupt, reader, *overrides = CORRUPT_STAGE_FILES[case]
        overrides = overrides[0] if overrides else {}
        config_path = self.write_config(tmp_path, **overrides)
        for stage in STAGES[: STAGES.index(reader)]:
            assert self.invoke("--config", str(config_path), stage).exit_code == 0
        path = tmp_path / "out" / name
        # surrogateescape lets a corruption write bytes that are not UTF-8
        path.write_bytes(corrupt(path.read_text()).encode("utf-8", "surrogateescape"))
        with pytest.raises(DataError, match=name):
            getattr(pipeline, f"{reader}_stage")(small_config(tmp_path / "out", **overrides))
        result = self.invoke("--config", str(config_path), reader)
        assert result.exit_code == 3

    def test_a_split_pair_at_index_one_is_exit_three_for_a_prompting_backend(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps("It will crash on 2021-06-01.") + "\n")
        config_path = self.write_config(
            tmp_path, backend={"kind": "scripted", "script_path": str(script)}
        )
        for stage in STAGES[: STAGES.index("predict")]:
            assert self.invoke("--config", str(config_path), stage).exit_code == 0
        split = tmp_path / "out" / SPLIT_FILE
        split.write_text(_first_validation_index_one(split.read_text()))
        result = self.invoke("--config", str(config_path), "predict")
        assert result.exit_code == 3, result.output
        assert f"bad pair list in {SPLIT_FILE}" in result.output

    def test_predict_at_another_window_width_is_exit_three(self, tmp_path):
        config_path = self.write_config(tmp_path)
        for stage in STAGES[: STAGES.index("predict")]:
            assert self.invoke("--config", str(config_path), stage).exit_code == 0
        narrow_path = self.write_config(tmp_path, window_days=3)
        result = self.invoke("--config", str(narrow_path), "predict")
        assert result.exit_code == 3, result.output
        assert "7 days wide" in result.output
        assert "window_days is 3" in result.output
        assert not (tmp_path / "out" / PREDICTIONS_FILE).exists()

    # str.splitlines splits at each of these characters, which JSON allows raw in a string
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    @pytest.mark.parametrize("escaped", [True, False], ids=["escaped", "raw"])
    def test_line_separator_inside_a_string_passes_every_stage(self, tmp_path, char, escaped):
        config_path = self.write_config(tmp_path)
        assert self.invoke("--config", str(config_path), "synth").exit_code == 0
        logs = tmp_path / "out" / LOGS_FILE
        record = {"guid": "host-x", "ts": "2021-03-01T00:00:00Z", "event_id": 41,
                  "params": [f"a{char}b"]}
        line = json.dumps(record, ensure_ascii=escaped)
        assert (char in line) is not escaped
        logs.write_text(logs.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        for stage in STAGES[1:]:
            result = self.invoke("--config", str(config_path), stage)
            assert result.exit_code == 0, result.output
        # events.jsonl holds the character raw, as encode_line writes it
        assert char in (tmp_path / "out" / EVENTS_FILE).read_text(encoding="utf-8")
        events = load_events(tmp_path / "out" / EVENTS_FILE).events
        assert [e.params for e in events if e.system_id == "host-x"] == [(f"a{char}b",)]

    def test_failed_rerun_manifest_digests_only_its_own_outputs(self, tmp_path):
        out = tmp_path / "out"
        default_path = tmp_path / "default.json"
        default_path.write_text(json.dumps({"paths": {"out_dir": str(out)}}))
        assert self.invoke("--config", str(default_path), "run").exit_code == 0
        greedy_path = tmp_path / "greedy.json"
        greedy_path.write_text(
            json.dumps({"split": {"validation_pairs": 100000}, "paths": {"out_dir": str(out)}})
        )
        assert self.invoke("--config", str(greedy_path), "run").exit_code == 3
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["item_counts"]["predictions"] == 0
        written = {name for name, digest in manifest["outputs"].items() if digest}
        assert written == {"logs", "events", "windows"}
        for name in (SPLIT_FILE, PREDICTIONS_FILE, REPORT_FILE, TABLE_FILE):
            assert not (out / name).exists()

    # run ingests the records it draws; the other routes parse the logs file they wrote, and
    # the synth command writes the logs run's data writer writes
    @pytest.mark.parametrize("bursty", [False, True], ids=["flat", "bursty"])
    def test_synth_run_matches_a_run_on_its_logs_and_the_stage_commands(self, tmp_path, bursty):
        generator = {**SMALL_RUN["generator"], "bursty": bursty}
        run_all(small_config(tmp_path / "synth", generator=generator))
        logs = tmp_path / "copy.jsonl"
        logs.write_bytes((tmp_path / "synth" / LOGS_FILE).read_bytes())
        run_all(small_config(tmp_path / "named", generator=generator, paths={"logs": str(logs)}))
        config_path = self.write_config(tmp_path, generator=generator)
        for stage in STAGES:
            result = self.invoke("--config", str(config_path), stage)
            assert result.exit_code == 0, (stage, result.output)
        for name in (EVENTS_FILE, INGEST_FILE, WINDOWS_FILE, REPORT_FILE):
            expected = (tmp_path / "synth" / name).read_bytes()
            assert (tmp_path / "named" / name).read_bytes() == expected, name
            assert (tmp_path / "out" / name).read_bytes() == expected, name
        assert (tmp_path / "out" / LOGS_FILE).read_bytes() == logs.read_bytes()

    def test_synth_refuses_to_overwrite_the_named_logs_file(self, tmp_path):
        mine = tmp_path / "mine.jsonl"
        mine.write_text('{"guid": "mine", "ts": "2021-03-04T05:06:07Z", "event_id": 41}\n')
        before = mine.read_bytes()
        config_path = self.write_config(
            tmp_path, paths={"logs": str(mine), "out_dir": str(tmp_path / "out")}
        )
        result = self.invoke("--config", str(config_path), "synth")
        assert result.exit_code == 2, result.output
        assert "paths.logs" in result.output
        assert mine.read_bytes() == before
        assert not (tmp_path / "out" / LOGS_FILE).exists()

    # run ingests the records it draws without parsing their log lines, so a code the log
    # pattern refuses is refused early
    @pytest.mark.parametrize("code", ["0xZZ", "9F"])
    def test_catalog_code_past_the_log_pattern_is_exit_two(self, tmp_path, code):
        generator = {**SMALL_RUN["generator"], "cause_catalog": [[code, "bad code", 1.0]]}
        config_path = self.write_config(tmp_path, generator=generator)
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 2, result.output
        assert f"cause_catalog code {code!r}" in result.output
        assert not (tmp_path / "out").exists()

    def test_an_output_under_a_regular_file_is_exit_two(self, tmp_path):
        (tmp_path / "a-file").write_text("")
        out = tmp_path / "a-file" / "out"
        result = self.invoke("--out-dir", str(out), "run")
        assert result.exit_code == 2, result.output
        assert f"config error: cannot write {out}: Not a directory" in result.output

    def test_a_writer_that_fails_is_exit_two_naming_its_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_write", _failing_write(LOGS_FILE))
        result = self.invoke("--config", str(self.write_config(tmp_path)), "run")
        assert result.exit_code == 2, result.output
        logs = tmp_path / "out" / LOGS_FILE
        assert f"config error: cannot write {logs}: No space left on device" in result.output

    # the data writer writes events.jsonl first, then logs.jsonl: a failure names its own file
    def test_a_data_writer_that_fails_at_the_end_of_the_events_names_them(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "_write", _failing_write(EVENTS_FILE, after=None))
        result = self.invoke("--config", str(self.write_config(tmp_path)), "run")
        out = tmp_path / "out"
        events = out / EVENTS_FILE
        assert result.exit_code == 2, result.output
        assert f"config error: cannot write {events}: No space left on device" in result.output
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {
            "kind": "OSError",
            "message": f"[Errno {errno.ENOSPC}] No space left on device: '{events}'",
        }
        assert not events.exists()
        assert not [*out.glob(".*.partial")]

    @pytest.mark.parametrize(
        "code, stage", [(errno.EAGAIN, "run"), (errno.ENOMEM, "synth")]
    )
    def test_a_writer_that_cannot_start_is_exit_two_naming_its_file(
        self, tmp_path, monkeypatch, code, stage
    ):
        monkeypatch.setattr(os, "fork", lambda: _refused(code))
        result = self.invoke("--config", str(self.write_config(tmp_path)), stage)
        assert result.exit_code == 2, result.output
        logs = tmp_path / "out" / LOGS_FILE
        assert f"config error: cannot write {logs}: {os.strerror(code)}" in result.output

    @pytest.mark.parametrize("status", [255, -signal.SIGKILL])
    def test_a_writer_that_fails_past_an_os_error_is_exit_two_naming_its_file(
        self, tmp_path, monkeypatch, status
    ):
        test_pid = os.getpid()

        def killed(record):
            assert os.getpid() != test_pid, "record_to_line ran outside the logs' writer"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(pipeline, "record_to_line", _not_a_record if status == 255 else killed)
        result = self.invoke("--config", str(self.write_config(tmp_path)), "run")
        assert result.exit_code == 2, result.output
        logs = tmp_path / "out" / LOGS_FILE
        expected = f"config error: cannot write {logs}: its writer failed with status {status}"
        assert expected in result.output
        assert json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())["status"] == "failed"

    @pytest.mark.parametrize("name", MAIN_PROCESS_FILES)
    def test_a_failed_write_in_this_process_is_exit_two_with_a_failed_manifest(
        self, tmp_path, monkeypatch, name
    ):
        monkeypatch.setattr(pipeline, "_write", _failing_write(name))
        result = self.invoke("--config", str(self.write_config(tmp_path)), "run")
        out = tmp_path / "out"
        assert result.exit_code == 2, result.output
        assert f"config error: cannot write {out / name}: No space left on device" in result.output
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "OSError"
        assert (out / TIMINGS_FILE).is_file()
        assert not (out / name).exists()
        assert not [*out.glob(".*.partial")]

    # the data writer writes ingest.json last, once it has hashed the logs it wrote
    def test_a_failed_write_of_the_ingest_file_in_the_data_writer_is_exit_two(
        self, tmp_path, monkeypatch, writer_pids
    ):
        monkeypatch.setattr(pipeline, "_write", _failing_write(INGEST_FILE))
        result = self.invoke("--config", str(self.write_config(tmp_path)), "run")
        out = tmp_path / "out"
        ingest = out / INGEST_FILE
        assert result.exit_code == 2, result.output
        assert f"config error: cannot write {ingest}: No space left on device" in result.output
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {
            "kind": "OSError",
            "message": f"[Errno {errno.ENOSPC}] No space left on device: '{ingest}'",
        }
        assert (out / TIMINGS_FILE).is_file()
        assert not ingest.exists()
        _assert_no_writer_left(out, writer_pids)

    def test_rerun_never_touches_the_named_logs_file(self, tmp_path):
        out = tmp_path / "out"
        config_path = self.write_config(tmp_path)
        assert self.invoke("--config", str(config_path), "run").exit_code == 0
        logs_bytes = (out / LOGS_FILE).read_bytes()
        (out / "sub").mkdir()
        # the same file as out/logs.jsonl, spelled another way
        named = self.write_config(
            tmp_path,
            split={"validation_pairs": 100000},
            paths={"logs": str(out / "sub" / ".." / LOGS_FILE)},
        )
        assert self.invoke("--config", str(named), "run").exit_code == 3
        assert (out / LOGS_FILE).read_bytes() == logs_bytes
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["outputs"]["logs"] == hashlib.sha256(logs_bytes).hexdigest()
        assert manifest["outputs"]["split"] is None

    def test_sigterm_mid_predict_exits_130_with_a_failed_manifest(self, tmp_path, stub_server):
        stub_server.sleep_s = 0.1
        config_path = self.write_config(
            tmp_path,
            backend={"kind": "remote-llm", "endpoint": stub_server.url(), "model_name": "m"},
        )
        src = Path(pipeline.__file__).parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        command = [sys.executable, "-m", "crashcast.cli", "--config", str(config_path), "run"]
        proc = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        try:
            deadline = time.monotonic() + 60
            while stub_server.hits < 10:  # 12 pairs of two calls each, two in flight
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 130, stderr
        out = tmp_path / "out"
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "KeyboardInterrupt"
        rows = [json.loads(line) for line in (out / PREDICTIONS_FILE).read_text().splitlines()]
        assert 0 < len(rows) < 12
        assert manifest["item_counts"]["predictions"] == len(rows)
        assert all(row["time_answer"] == stub_server.completion for row in rows)

    @pytest.mark.parametrize("stopwords, message", [
        ("comments.txt", "remove_stopwords set but the stopword list is empty"),
        ("absent.txt", "cannot read paths.stopwords"),
    ])
    def test_a_bad_stopword_list_stops_run_before_its_first_stage(
        self, tmp_path, stub_server, stopwords, message
    ):
        (tmp_path / "comments.txt").write_text("# a comment and no word\n")
        config_path = self.write_config(
            tmp_path,
            paths={"stopwords": str(tmp_path / stopwords)},
            normalization={"remove_stopwords": True},
            backend={"kind": "remote-llm", "endpoint": stub_server.url(), "model_name": "m",
                     "max_in_flight": 2},
        )
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert stub_server.hits == 0
        out = tmp_path / "out"
        assert sorted(path.name for path in out.iterdir()) == [MANIFEST_FILE, TIMINGS_FILE]
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert (manifest["status"], manifest["error"]["kind"]) == ("failed", "ConfigError")

    def test_a_scripted_backend_without_a_script_is_exit_two_before_any_stage(self, tmp_path):
        config_path = self.write_config(tmp_path)
        result = self.invoke("--config", str(config_path), "--backend", "scripted", "run")
        assert result.exit_code == 2, result.output
        assert "scripted backend requires script_path" in result.output
        assert not (tmp_path / "out").exists()

    def test_unreachable_backend_is_exit_four(self, tmp_path):
        config_path = self.write_config(
            tmp_path,
            backend={
                "kind": "remote-llm",
                "endpoint": "http://127.0.0.1:9/v1/chat",
                "model_name": "m",
                "timeout": 0.2,
                "retry_limit": 0,
            },
        )
        result = self.invoke("--config", str(config_path), "run")
        assert result.exit_code == 4
        manifest = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"

    def test_seed_flag_overrides_the_config(self, tmp_path):
        config_path = self.write_config(tmp_path)
        result = self.invoke("--config", str(config_path), "--seed", "77", "run")
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())
        assert manifest["seed"] == 77

    def test_out_dir_flag_redirects_output(self, tmp_path):
        config_path = self.write_config(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        result = self.invoke(
            "--config", str(config_path), "--out-dir", str(elsewhere), "run"
        )
        assert result.exit_code == 0
        assert (elsewhere / REPORT_FILE).exists()

    def test_evaluate_stopword_switch(self, tmp_path):
        config_path = self.write_config(tmp_path)
        assert self.invoke("--config", str(config_path), "run").exit_code == 0
        result = self.invoke(
            "--config", str(config_path), "evaluate", "--stopwords", "on"
        )
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / REPORT_FILE).read_text())
        assert report["normalization"]["remove_stopwords"] is True


class TestBackendInterchangeability:
    def test_reports_share_their_shape_across_backends(self, tmp_path):
        base_report = run_all(small_config(tmp_path / "a"))

        script_lines = []
        rows = [
            json.loads(line)
            for line in (tmp_path / "a" / PREDICTIONS_FILE).read_text().splitlines()
        ]
        for _ in rows:
            script_lines.append("I cannot tell.")
            script_lines.append("I cannot tell.")
        script_path = tmp_path / "script.jsonl"
        script_path.write_text("".join(json.dumps(s) + "\n" for s in script_lines))
        scripted_report = run_all(
            small_config(
                tmp_path / "b",
                backend={"kind": "scripted", "script_path": str(script_path)},
            )
        )

        assert set(base_report) == set(scripted_report)
        assert base_report["item_count"] == scripted_report["item_count"]
        assert set(base_report["categories"]) == set(scripted_report["categories"])
        for category in scripted_report["categories"].values():
            assert category["rouge1"]["f1"] == 0.0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _replace_a_node(draw, node):
    """node with one value somewhere inside it (or node itself) replaced by any JSON value."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        copy = dict(node) if isinstance(node, dict) else list(node)
        copy[key] = _replace_a_node(draw, node[key])
        return copy
    return draw(JSON_VALUES)


@st.composite
def corruptions(draw, data: bytes, json_lines: bool):
    """data with a byte span overwritten, or one JSON value (per line for JSONL) replaced."""
    if draw(st.booleans()):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, len(data)))
        return data[:start] + draw(st.binary(max_size=12)) + data[end:]
    if not json_lines:
        return json.dumps(_replace_a_node(draw, json.loads(data))).encode()
    lines = data.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = json.dumps(_replace_a_node(draw, json.loads(lines[at]))).encode()
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def stage_run(tmp_path_factory):
    """The config and stage files of one small finished run, and its sequences."""
    config = small_config(tmp_path_factory.mktemp("fuzz") / "out")
    run_all(config)
    out = Path(config.paths.out_dir)
    files = {name: (out / name).read_bytes() for name in STAGE_READERS}
    return config, files, load_sequences(config)


def _check_events(result):
    for event in result.events:
        assert type(event.time) is int  # UTC epoch seconds
        assert all(isinstance(v, str) for v in (event.system_id, event.kind, event.bugcheck_code))
        assert all(isinstance(p, str) for p in event.params)


def _check_sequences(result):
    for seq in result:
        assert isinstance(seq.system_id, str)
        assert seq.times.typecode == "q"  # UTC epoch seconds
        assert all(isinstance(k, str) for k in seq.kinds)


def _check_split(result):
    for pool in result:
        for pair in pool:
            assert type(pair.index) is int and isinstance(pair.system_id, str)


def _check_predictions(result):
    for row in result:
        assert set(row) == set(pipeline.PREDICTION_FIELDS)


# stage file -> (its reader given the config and the intact sequences, a check of what it returns)
STAGE_READERS = {
    EVENTS_FILE: (lambda config, seqs: load_events(Path(config.paths.out_dir) / EVENTS_FILE), _check_events),
    WINDOWS_FILE: (lambda config, seqs: load_sequences(config), _check_sequences),
    SPLIT_FILE: (load_split, _check_split),
    PREDICTIONS_FILE: (lambda config, seqs: load_predictions(config), _check_predictions),
}


class TestStageReadersUnderCorruption:
    @pytest.mark.parametrize("name", sorted(STAGE_READERS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corrupt_file_is_a_data_error_or_reads_well_typed(self, stage_run, name, data):
        config, files, sequences = stage_run
        read, check = STAGE_READERS[name]
        path = Path(config.paths.out_dir) / name
        path.write_bytes(data.draw(corruptions(files[name], json_lines=name != SPLIT_FILE)))
        try:
            result = read(config, sequences)
        except DataError as err:
            assert name in str(err)
            return
        finally:
            path.write_bytes(files[name])
        check(result)


# any code point but a lone surrogate: quotes, backslashes and control characters included
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
# UTC epoch seconds of years 1000 to 9999
_INSTANTS = st.integers(
    seconds_of(datetime(1000, 1, 1, tzinfo=timezone.utc)),
    seconds_of(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)),
)
# per field type: values encode_line takes, and the plain JSON value the line holds
_FIELD_VALUES = {
    "string": (_TEXT, lambda value: value),
    "integer": (st.integers(), lambda value: value),
    "timestamp": (_INSTANTS, format_timestamp),
    "list of strings": (st.lists(_TEXT, max_size=4) | st.tuples(_TEXT), list),
    "list of timestamps": (st.lists(_INSTANTS, max_size=4), lambda v: [*map(format_timestamp, v)]),
}
_TABLES = {
    EVENTS_FILE: pipeline.EVENT_FIELDS,
    WINDOWS_FILE: pipeline.WINDOW_FIELDS,
    PREDICTIONS_FILE: pipeline.PREDICTION_FIELDS,
}


@pytest.mark.parametrize("name", sorted(_TABLES))
@given(data=st.data())
@settings(max_examples=200)
def test_encode_line_writes_what_the_record_dict_encodes_to(name, data):
    table = _TABLES[name]
    values = [data.draw(_FIELD_VALUES[field.name][0], label=key) for key, field in table.items()]
    plain = {key: _FIELD_VALUES[field.name][1](value)
             for (key, field), value in zip(table.items(), values)}
    assert pipeline.encode_line(table, values) == json.dumps(plain, ensure_ascii=False)


_SCORE = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1.0, 1e-07, 1 / 3])
_SCORES = st.fixed_dictionaries({"precision": _SCORE, "recall": _SCORE, "f1": _SCORE})
_SCORE_EXAMPLE = {"precision": 1.0, "recall": 0.5, "f1": 2 / 3}
_REPORTS = st.fixed_dictionaries({
    "backend_id": st.none() | _TEXT,
    "normalization": st.dictionaries(_TEXT, st.booleans(), max_size=3),
    "item_count": st.integers(),
    "categories": st.dictionaries(
        _TEXT, st.fixed_dictionaries({"rouge1": _SCORES, "rougeL": _SCORES}), max_size=3
    ),
    "items": st.lists(
        st.fixed_dictionaries({
            "system_id": _TEXT,
            "index": st.integers(),
            "window_index": st.integers(),  # an integer on both routes, as PREDICTION_FIELDS has it
            "status": _TEXT,
            "category": _TEXT,
            "rouge1": _SCORES,
            "rougeL": _SCORES,
        }),
        max_size=4,
    ),
})


def _report_of(report):
    """report_chunks' arguments for report: its summary, and its item rows made by _item_rows."""
    summary = {key: value for key, value in report.items() if key != "items"}
    items = (
        text
        for item in report["items"]
        for text in pipeline._item_rows(item, item["status"], {
            item["category"]: (RougeScore(**item["rouge1"]), RougeScore(**item["rougeL"]))
        })
    )
    return summary, items


# a backend id that holds report_chunks' marker and a non-ASCII character, with 0 and 3 items
_MARKED_SUMMARY = {
    "backend_id": 'remote:m "items": [] \u00e9', "normalization": {"lowercase": True},
    "item_count": 3, "categories": {"time": {"rouge1": _SCORE_EXAMPLE, "rougeL": _SCORE_EXAMPLE}},
}
_MARKED_ITEMS = [
    {"system_id": "s\u00e9", "index": i, "window_index": 0, "status": "both", "category": "time",
     "rouge1": _SCORE_EXAMPLE, "rougeL": _SCORE_EXAMPLE}
    for i in (2, 3, 4)
]


@given(_REPORTS)
@example({**_MARKED_SUMMARY, "items": []})
@example({**_MARKED_SUMMARY, "items": _MARKED_ITEMS})
@settings(max_examples=200)
def test_report_chunks_write_what_the_indenting_encoder_writes(report):
    expected = json.JSONEncoder(sort_keys=True, indent=2).encode(report) + "\n"
    assert "".join(pipeline.report_chunks(*_report_of(report))) == expected


def test_report_chunks_of_an_empty_report_and_no_items():
    assert "".join(pipeline.report_chunks({}, [])) == '{\n  "items": []\n}\n'


def test_report_chunks_encode_items_a_generator_yields():
    rows = [
        {"system_id": "s", "index": i, "window_index": 0, "status": "none", "category": "time",
         "rouge1": {"precision": 0.0, "recall": 0.0, "f1": 0.0},
         "rougeL": {"precision": 1.0, "recall": 0.5, "f1": 2 / 3}}
        for i in (2, 3)
    ]
    report = {"item_count": 2, "items": rows}
    expected = json.JSONEncoder(sort_keys=True, indent=2).encode(report) + "\n"
    summary, items = _report_of(report)
    assert "".join(pipeline.report_chunks(summary, items)) == expected
    empty = "".join(pipeline.report_chunks({}, (row for row in ())))
    assert empty == '{\n  "items": []\n}\n'


def test_readme_report_files_section_is_a_default_runs_keys(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Report files\n", 1)[1].split("\n## ", 1)[0]
    tables = [
        [row.split("|")[1].strip().strip("`") for row in block.splitlines() if row.startswith("| `")]
        for block in section.split("\n\n")
        if block.startswith("|")
    ]
    out = tmp_path / "out"
    run_all(parse_run_config({"paths": {"out_dir": str(out)}}))
    report = json.loads((out / REPORT_FILE).read_text(encoding="utf-8"))
    header = (out / TABLE_FILE).read_text(encoding="utf-8").splitlines()[0]
    assert tables == [list(report), list(report["items"][0]), header.split(",")]


def test_a_write_stopped_partway_leaves_the_earlier_file_whole(tmp_path):
    path = tmp_path / "out" / EVENTS_FILE
    pipeline._write(path, ["the earlier file\n"])

    def chunks():
        yield "the first half of a line"
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        pipeline._write(path, chunks())
    assert path.read_bytes() == b"the earlier file\n"
    assert [p.name for p in path.parent.iterdir()] == [EVENTS_FILE]


def _refused(code):
    raise OSError(code, os.strerror(code))


def _no_space(*args):
    _refused(errno.ENOSPC)


def _not_a_record(*args):
    raise ValueError("not a record")



@pytest.fixture
def writer_pids(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_no_writer_left(out, pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # reaped: neither running nor a zombie
            os.waitpid(pid, os.WNOHANG)
    assert not [*out.glob(".*.partial")]


class TestWriters:
    """The large stage files are written by forked children."""

    @pytest.mark.parametrize("ending", [None, InsufficientData, KeyboardInterrupt, RuntimeError])
    def test_no_writer_outlives_run_all(self, tmp_path, monkeypatch, writer_pids, ending):
        out = tmp_path / "out"
        config = small_config(out)
        if ending is InsufficientData:
            config = small_config(out, split={"train_pairs": 30, "validation_pairs": 100000})
        real_windows_to_lines = pipeline.windows_to_lines

        def slow_windows_to_lines(seq, windows, width_days):
            time.sleep(0.05)
            return real_windows_to_lines(seq, windows, width_days)

        def stop_while_windows_are_written(history):
            deadline = time.monotonic() + 10
            while not (out / f".{WINDOWS_FILE}.partial").exists():
                assert time.monotonic() < deadline, "the windows writer never started"
                time.sleep(0.001)
            raise ending()

        monkeypatch.setattr(pipeline, "windows_to_lines", slow_windows_to_lines)
        if ending in (KeyboardInterrupt, RuntimeError):
            monkeypatch.setattr(pipeline, "baseline_answer", stop_while_windows_are_written)
        if ending is None:
            run_all(config)
        else:
            with pytest.raises(ending):
                run_all(config)
        _assert_no_writer_left(out, writer_pids)
        if ending is RuntimeError:  # not an error run_all handles: no manifest
            assert not (out / MANIFEST_FILE).exists()
            return
        # run_all waited for every writer: the manifest digests whole files
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        for name in (LOGS_FILE, EVENTS_FILE, WINDOWS_FILE):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert manifest["outputs"][name.split(".")[0]] == digest, name
        assert manifest["item_counts"]["systems"] == len(load_sequences(config))

    def test_partition_windows_runs_in_this_process_once_per_sequence(self, tmp_path, monkeypatch):
        calls = []
        real_partition_windows = pipeline.partition_windows

        def recording(seq, width_days):
            calls.append((os.getpid(), seq.system_id))
            return real_partition_windows(seq, width_days)

        monkeypatch.setattr(pipeline, "partition_windows", recording)
        config = small_config(tmp_path / "out")
        synth_stage(config)
        sequences = sequence_stage(config, ingest_stage(config))
        assert calls == [(os.getpid(), seq.system_id) for seq in sequences]

    def test_each_stage_alone_returns_with_its_file_whole(self, tmp_path, writer_pids):
        out = tmp_path / "out"
        config = small_config(out)
        synth_stage(config)
        _assert_no_writer_left(out, writer_pids)
        records = in_seconds(records_by_random_api(config.generator, config.seed))
        assert (out / LOGS_FILE).read_text() == "".join(record_to_line(r) + "\n" for r in records)
        corpus = ingest_stage(config)
        _assert_no_writer_left(out, writer_pids)
        assert load_events(out / EVENTS_FILE).events == corpus.events
        sequences = sequence_stage(config, corpus)
        _assert_no_writer_left(out, writer_pids)
        assert load_sequences(config) == sequences

    def test_a_write_that_fails_in_a_writer_reaches_the_caller(
        self, tmp_path, monkeypatch, writer_pids
    ):
        out = tmp_path / "out"
        config = small_config(out)
        synth_stage(config)
        monkeypatch.setattr(pipeline, "encode_line", _no_space)
        with pytest.raises(OSError) as raised:
            ingest_stage(config)
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.filename == str(out / EVENTS_FILE)
        assert not (out / EVENTS_FILE).exists()
        _assert_no_writer_left(out, writer_pids)

    def test_run_all_raises_a_failed_writer_error_with_no_writer_left(
        self, tmp_path, monkeypatch, writer_pids
    ):
        out = tmp_path / "out"
        monkeypatch.setattr(pipeline, "_write", _failing_write(LOGS_FILE))
        with pytest.raises(OSError) as raised:
            run_all(small_config(out))
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.filename == str(out / LOGS_FILE)
        assert not (out / LOGS_FILE).exists()
        _assert_no_writer_left(out, writer_pids)

    def test_a_fork_that_fails_names_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: _refused(errno.EAGAIN))
        writers = pipeline.Writers()
        with pytest.raises(OSError) as raised:
            pipeline._write_forked(tmp_path / LOGS_FILE, ["a line"], writers)
        assert raised.value.errno == errno.EAGAIN
        assert raised.value.filename == str(tmp_path / LOGS_FILE)
        writers.wait()  # nothing started, nothing to wait for
        assert writers.waits == {}

    def test_a_writer_that_fails_past_an_os_error_names_the_file_and_its_status(
        self, tmp_path, monkeypatch, writer_pids
    ):
        out = tmp_path / "out"

        def broken(record):
            raise ValueError("not a record")

        monkeypatch.setattr(pipeline, "record_to_line", broken)
        with pytest.raises(RuntimeError) as raised:
            run_all(small_config(out))
        assert str(raised.value) == f"the writer of {out / LOGS_FILE} failed with status 255"
        _assert_no_writer_left(out, writer_pids)

    @pytest.mark.parametrize(
        "failure, kind", [(_no_space, "OSError"), (_not_a_record, "RuntimeError")]
    )
    def test_a_failed_writer_leaves_a_failed_manifest(
        self, tmp_path, monkeypatch, writer_pids, failure, kind
    ):
        out = tmp_path / "out"
        monkeypatch.setattr(pipeline, "record_to_line", failure)
        with pytest.raises((OSError, RuntimeError)) as raised:
            run_all(small_config(out))
        assert type(raised.value).__name__ == kind
        _assert_no_writer_left(out, writer_pids)
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"kind": kind, "message": str(raised.value)}
        assert manifest["outputs"]["logs"] is None
        assert "synth" in json.loads((out / TIMINGS_FILE).read_text())["seconds"]

    def test_a_writer_that_cannot_start_leaves_a_failed_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setattr(os, "fork", lambda: _refused(errno.EAGAIN))
        with pytest.raises(OSError) as raised:
            run_all(small_config(out))
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        error = raised.value  # OSError(EAGAIN, ...) is a BlockingIOError
        assert manifest["error"] == {"kind": type(error).__name__, "message": str(error)}
        assert error.filename == str(out / LOGS_FILE)

    def test_a_writer_killed_by_a_signal_names_the_signal(self, tmp_path, writer_pids):
        def killed():
            yield "a line"
            os.kill(os.getpid(), signal.SIGKILL)

        writers = pipeline.Writers()
        pipeline._write_forked(tmp_path / EVENTS_FILE, killed(), writers)
        with pytest.raises(RuntimeError, match=f"failed with status {-signal.SIGKILL}"):
            writers.wait()
        _assert_no_writer_left(tmp_path, writer_pids)
        assert not (tmp_path / EVENTS_FILE).exists()

    def test_run_all_records_each_writer_wait_apart_from_the_stage_seconds(self, tmp_path):
        out = tmp_path / "out"
        run_all(small_config(out))
        timings = json.loads((out / TIMINGS_FILE).read_text())
        assert sorted(timings["seconds"]) == sorted(pipeline.STAGES)
        waits = timings["writer_waits"]
        assert sorted(waits) == sorted([LOGS_FILE, EVENTS_FILE, INGEST_FILE, WINDOWS_FILE])
        assert all(isinstance(value, float) and value >= 0 for value in waits.values())

    def test_stop_kills_a_running_writer_and_removes_its_partial_file(self, tmp_path, writer_pids):
        path = tmp_path / EVENTS_FILE

        def endless():
            while True:
                time.sleep(0.01)
                yield "a line"

        writers = pipeline.Writers()
        pipeline._write_forked(path, endless(), writers)
        deadline = time.monotonic() + 10
        while not (tmp_path / f".{EVENTS_FILE}.partial").exists():
            assert time.monotonic() < deadline, "the writer never started"
            time.sleep(0.001)
        writers.stop()
        _assert_no_writer_left(tmp_path, writer_pids)
        assert not path.exists()

    def test_run_all_hashes_no_forked_file_in_this_process(self, tmp_path, monkeypatch):
        hashed = []  # only this process's calls: a writer's are made in its own memory
        real_file_digest = pipeline._file_digest

        def spy(path):
            hashed.append(path.name)
            return real_file_digest(path)

        monkeypatch.setattr(pipeline, "_file_digest", spy)
        out = tmp_path / "out"
        run_all(small_config(out))
        assert not {LOGS_FILE, EVENTS_FILE, WINDOWS_FILE} & {*hashed}
        assert {SPLIT_FILE, PREDICTIONS_FILE, REPORT_FILE, TABLE_FILE} <= {*hashed}
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        for name in (LOGS_FILE, EVENTS_FILE, WINDOWS_FILE):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert manifest["outputs"][name.split(".")[0]] == digest, name

    def test_a_run_on_named_logs_hashes_them_only_as_it_parses_them(self, tmp_path, monkeypatch):
        synth_stage(small_config(tmp_path / "seed"))
        logs = tmp_path / "named.jsonl"
        logs.write_bytes((tmp_path / "seed" / LOGS_FILE).read_bytes())
        hashed = []  # every path this process hashes through _file_digest
        real_file_digest = pipeline._file_digest

        def spy(path):
            hashed.append(str(path))
            return real_file_digest(path)

        monkeypatch.setattr(pipeline, "_file_digest", spy)
        out = tmp_path / "out"
        run_all(small_config(out, paths={"logs": str(logs)}))
        assert str(logs) not in hashed
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        source_digest = json.loads((out / INGEST_FILE).read_text())["source_digest"]
        digest = hashlib.sha256(logs.read_bytes()).hexdigest()
        assert manifest["outputs"]["logs"] == source_digest == digest

    def test_each_writer_reports_the_sha256_of_its_file(self, tmp_path, writer_pids):
        files = {
            tmp_path / "empty.jsonl": [],
            tmp_path / "one.jsonl": ['{"system_id": "höst-\U0001f4a5"}'],
            tmp_path / "many.jsonl": [f'{{"index": {i}}}' for i in range(30_000)],
        }
        with pipeline.Writers() as writers:
            for path, lines in files.items():
                pipeline._write_forked(path, lines, writers)
        for path in files:
            assert writers.digests[path] == hashlib.sha256(path.read_bytes()).hexdigest()
        _assert_no_writer_left(tmp_path, writer_pids)

    @pytest.mark.parametrize("sent", ["", "0" * 63])
    def test_a_writer_that_sends_no_full_digest_names_its_file(
        self, tmp_path, monkeypatch, writer_pids, sent
    ):
        monkeypatch.setattr(pipeline, "_file_digest", lambda path: sent)
        path = tmp_path / EVENTS_FILE
        writers = pipeline.Writers()
        pipeline._write_forked(path, ["a line"], writers)
        with pytest.raises(RuntimeError) as raised:
            writers.wait()
        assert str(raised.value) == f"the writer of {path} exited 0 without a full digest"
        assert writers.failure is raised.value
        assert writers.digests == {}
        _assert_no_writer_left(tmp_path, writer_pids)

    @pytest.mark.parametrize("ending", ["ok", "failed writer", "stopped"])
    def test_no_pipe_outlives_the_writers(self, tmp_path, monkeypatch, ending):
        open_before = sorted(os.listdir("/proc/self/fd"))
        if ending == "ok":
            run_all(small_config(tmp_path / "out"))
        elif ending == "failed writer":
            monkeypatch.setattr(pipeline, "record_to_line", _not_a_record)
            with pytest.raises(RuntimeError):
                run_all(small_config(tmp_path / "out"))
        else:
            writers = pipeline.Writers()
            endless = iter(lambda: time.sleep(0.01) or "a line", None)
            pipeline._write_forked(tmp_path / EVENTS_FILE, endless, writers)
            pipeline._write_forked(tmp_path / WINDOWS_FILE, ["a line"], writers)
            writers.stop()
        assert sorted(os.listdir("/proc/self/fd")) == open_before

    def test_a_run_that_fails_at_split_writes_the_ingest_file_of_one_that_passes(self, tmp_path):
        run_all(small_config(tmp_path / "passes"))
        short = small_config(tmp_path / "fails", split={"train_pairs": 30, "validation_pairs": 10**5})
        with pytest.raises(InsufficientData):
            run_all(short)
        expected = (tmp_path / "passes" / INGEST_FILE).read_bytes()
        assert (tmp_path / "fails" / INGEST_FILE).read_bytes() == expected

    # the data writer writes ingest.json itself, so a run stopped once it is done keeps it
    def test_a_run_stopped_in_sequence_keeps_the_data_writers_ingest_file(
        self, tmp_path, monkeypatch, writer_pids
    ):
        run_all(small_config(tmp_path / "passes"))
        out = tmp_path / "stopped"

        def stopped_once_the_data_writer_is_done(config, corpus, writers):
            deadline = time.monotonic() + 30
            while not (out / INGEST_FILE).exists():  # replaced whole into place, its last file
                assert time.monotonic() < deadline, "the data writer never wrote ingest.json"
                time.sleep(0.005)
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "sequence_stage", stopped_once_the_data_writer_is_done)
        with pytest.raises(KeyboardInterrupt):
            run_all(small_config(out))
        _assert_no_writer_left(out, writer_pids)
        assert json.loads((out / MANIFEST_FILE).read_text())["status"] == "failed"
        ingest = json.loads((out / INGEST_FILE).read_text())
        assert ingest["source_digest"] == hashlib.sha256((out / LOGS_FILE).read_bytes()).hexdigest()
        assert ingest == json.loads((tmp_path / "passes" / INGEST_FILE).read_text())


def test_run_all_drops_the_corpus_once_it_is_sequenced(tmp_path, monkeypatch):
    corpus_refs, alive_at_split = [], []
    real_sequence_stage, real_split_stage = pipeline.sequence_stage, pipeline.split_stage

    def sequencing(config, corpus, writers):
        corpus_refs.append(weakref.ref(corpus))
        return real_sequence_stage(config, corpus, writers)

    def splitting(config, sequences):
        alive_at_split.append(corpus_refs[0]() is not None)
        return real_split_stage(config, sequences)

    monkeypatch.setattr(pipeline, "sequence_stage", sequencing)
    monkeypatch.setattr(pipeline, "split_stage", splitting)
    run_all(small_config(tmp_path / "out"))
    assert alive_at_split == [False]


def test_sequence_consumes_the_corpus_it_is_handed(tmp_path):
    config = small_config(tmp_path / "out")
    synth_stage(config)
    corpus = ingest_stage(config)
    events = [*corpus.events]
    sequences = sequence_stage(config, corpus)
    assert corpus.events == []
    assert sum(len(seq) for seq in sequences) == len(events)


def _peak_rise(fn, *args):
    """fn(*args), and how far the traced peak rose above the memory in use when it was called."""
    tracemalloc.reset_peak()
    in_use = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - in_use


# what a stage is handed is made under tracing, so the tracer sees it freed: each record
# (event) gone once its event (its sequence's column entries) exists leaves the peak where it
# was; holding the records (corpus) to the end, as a stage that copies does, rises about 95
# (103) bytes each.
# ingest parses its records itself, so the rise is taken from when they are parsed
def test_ingest_frees_each_record_as_it_goes(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out", generator={"n_systems": 40, "days": 540})
    synth_stage(config)
    counts, rises, real_system_corpus = [], [], pipeline._system_corpus

    def measured(records, catalog, ingested):
        counts.append(len(records))
        corpus, rise = _peak_rise(real_system_corpus, records, catalog, ingested)
        rises.append(rise)
        return corpus

    monkeypatch.setattr(pipeline, "_system_corpus", measured)
    tracemalloc.start()
    try:
        ingest_stage(config)
    finally:
        tracemalloc.stop()
    [count], [rise] = counts, rises
    assert rise < 16 * count, f"{rise / count:.1f} bytes a record"


# synth's writer draws the records it writes: 200 systems x 540 days make 64,473 records,
# which trace 15.2 MB as one list
def test_synth_holds_no_record_in_the_calling_process(tmp_path):
    config = small_config(tmp_path / "out", generator={"n_systems": 200, "days": 540})
    tracemalloc.start()
    try:
        synth_stage(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.1f} MiB"


def test_sequence_frees_each_event_as_it_goes(tmp_path):
    config = small_config(tmp_path / "out", generator={"n_systems": 40, "days": 540})
    tracemalloc.start()
    try:
        synth_stage(config)
        corpus = ingest_stage(config)
        count = len(corpus.events)
        _, rise = _peak_rise(sequence_stage, config, corpus)
    finally:
        tracemalloc.stop()
    assert rise < 16 * count, f"{rise / count:.1f} bytes an event"


# the stages past sequence hold only what they keep: split one shuffled position (8 bytes) a
# pair, where a split that built every pair would hold a LabeledPair and a list slot, about
# 65 bytes each; evaluate each row's scores, where holding its three item dicts is 1.2 KB a row
def test_split_builds_only_the_pairs_it_keeps(tmp_path):
    config = small_config(tmp_path / "out", generator={"n_systems": 40, "days": 540})
    synth_stage(config)
    sequences = sequence_stage(config, ingest_stage(config))
    count = sum(max(len(seq) - 1, 0) for seq in sequences)
    split = config.split
    tracemalloc.start()
    try:
        _, rise = _peak_rise(
            split_pairs, sequences, split.train_pairs, split.validation_pairs, config.seed
        )
    finally:
        tracemalloc.stop()
    assert rise < 16 * count, f"{rise / count:.1f} bytes a pair"


# a sequence holds an event as two columns' entries: 8 bytes of UTC seconds and an 8-byte slot
# of a shared kind string (23 bytes an event here, with each column's spare room), where a
# (datetime, kind) named tuple and its slot trace 73 bytes, and the datetime 48 more
def test_sequences_hold_under_32_bytes_an_event(tmp_path):
    config = small_config(tmp_path / "out", generator={"n_systems": 40, "days": 540})
    synth_stage(config)
    corpus = ingest_stage(config)
    count = len(corpus.events)
    tracemalloc.start()
    try:
        sequences = sequence_stage(config, corpus)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(len, sequences)) == count
    assert held < 32 * count, f"{held / count:.1f} bytes an event"


def test_evaluate_writes_its_item_rows_without_holding_them(tmp_path):
    config = small_config(
        tmp_path / "out",
        generator={"n_systems": 40, "days": 540},
        split={"train_pairs": 30, "validation_pairs": 2000},
    )
    synth_stage(config)
    sequences = sequence_stage(config, ingest_stage(config))
    rows = predict_stage(config, split_stage(config, sequences))
    tracemalloc.start()
    try:
        _, rise = _peak_rise(evaluate_stage, config, rows)
    finally:
        tracemalloc.stop()
    assert rise < 600 * len(rows), f"{rise / len(rows):.0f} bytes a row"


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 200_001])
def test_file_digest_is_the_sha256_of_the_bytes(tmp_path, size):
    path = tmp_path / "file"
    path.write_bytes(random.Random(size).randbytes(size))
    assert pipeline._file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert pipeline._file_digest(tmp_path / "missing") is None


SRC = Path(pipeline.__file__).parents[1]

# a run_all in a fresh interpreter: the run's output digests and the modules it loaded
_FRESH_RUN = """
import json, sys
from crashcast.config import parse_run_config
from crashcast.pipeline import run_all
config = parse_run_config(json.loads(sys.argv[1]))
report = run_all(config)
modules = sorted(sys.modules)
import hashlib
out = config.paths.out_dir
digests = {name: hashlib.sha256(open(out + "/" + name, "rb").read()).hexdigest()
           for name in json.loads(sys.argv[2])} if len(sys.argv) > 2 else {}
print(json.dumps({"modules": modules, "items": report["item_count"], **digests}))
"""


def _fresh_run(python, document, *names):
    """_FRESH_RUN's result, run by python with -S and deprecation warnings as errors."""
    result = subprocess.run(
        [python, "-S", "-W", "error::DeprecationWarning", "-c", _FRESH_RUN,
         json.dumps(document), json.dumps(names)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# what a baseline run must not load: OpenSSL (hashlib's) and a thread pool
UNLOADED = {"_hashlib", "hashlib", "ssl", "concurrent.futures"}


def test_baseline_predict_answers_in_this_thread(tmp_path):
    document = {**SMALL_RUN, "paths": {"out_dir": str(tmp_path / "out")}}
    run = _fresh_run(sys.executable, document)
    assert "concurrent.futures" not in run["modules"], "a baseline run loaded a thread pool"
    assert run["items"] == SMALL_RUN["split"]["validation_pairs"]


def _answer_ahead_checked(width, count, answer, kept, bundle_of=lambda pair: pair):
    """_answer_ahead over pairs 0..count-1, each answer appended to kept; it leaves no thread."""
    threads_before = threading.active_count()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost update has a chance to show
    try:
        pipeline._answer_ahead(width, range(count), bundle_of, answer, lambda p, r: kept.append(r))
    finally:
        sys.setswitchinterval(previous)
        assert threading.active_count() == threads_before


def test_answer_ahead_answers_each_pair_once_with_at_most_width_in_flight():
    lock, in_flight, most, kept = threading.Lock(), [0], [0], []

    def answer(bundle):
        with lock:
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        time.sleep(0)
        with lock:
            in_flight[0] -= 1
        return bundle

    _answer_ahead_checked(8, 600, answer, kept, bundle_of=lambda pair: -pair)
    assert sorted(kept, reverse=True) == [-pair for pair in range(600)]
    assert most[0] <= 8


@pytest.mark.parametrize("failing", [None, 2])
def test_answer_ahead_at_width_one_answers_here_and_closes_this_threads_connection(
    monkeypatch, failing
):
    here, threads_before = threading.current_thread(), threading.active_count()
    answered, closed, kept = [], [], []
    monkeypatch.setattr(
        pipeline, "close_connections", lambda: closed.append(threading.current_thread())
    )

    def answer(bundle):
        answered.append((threading.current_thread(), threading.active_count()))
        if bundle == failing:
            raise TransportError("down")
        return -bundle

    with pytest.raises(TransportError) if failing is not None else nullcontext():
        pipeline._answer_ahead(1, range(5), lambda pair: pair, answer,
                               lambda pair, raw: kept.append((pair, raw)))
    answered_pairs = 5 if failing is None else failing + 1
    assert answered == [(here, threads_before)] * answered_pairs  # no thread was started
    assert kept == [(pair, -pair) for pair in range(5 if failing is None else failing)]
    assert closed == [here]


@pytest.mark.parametrize("where", ["worker", "here"])
def test_answer_ahead_takes_no_pair_past_the_first_error(where):
    width, failing, kept = 4, 50, []

    def bundle_of(pair):
        if where == "here" and pair == failing:
            raise KeyboardInterrupt
        return pair

    def answer(bundle):
        if bundle == failing:
            raise TransportError("down")
        time.sleep(0.001)
        return bundle

    with pytest.raises(TransportError if where == "worker" else KeyboardInterrupt):
        _answer_ahead_checked(width, 1000, answer, kept, bundle_of)
    # pairs are taken in order, and a worker finishes the pair it holds
    if where == "worker":  # the others hold at most width - 1 pairs past the failing one
        assert set(range(failing)) <= set(kept)
        assert failing not in kept and max(kept) < failing + width
    else:  # up to width made pairs were waiting, pair 49 among them, and none of them is taken
        assert sorted(kept) == list(range(len(kept)))
        assert failing - width <= len(kept) < failing


def _remote_config(out_dir, stub, max_in_flight):
    stub.completion = "The next crash will happen on 2022-01-01 caused by disk failure."
    backend = {"kind": "remote-llm", "endpoint": stub.url(), "max_in_flight": max_in_flight}
    return small_config(out_dir, backend=backend)


@pytest.mark.parametrize("max_in_flight", [1, 3])
def test_a_remote_run_leaves_no_connection_or_thread(tmp_path, keep_alive_stub, max_in_flight):
    threads_before, fds_before = set(threading.enumerate()), sorted(os.listdir("/proc/self/fd"))
    run_all(_remote_config(tmp_path / "out", keep_alive_stub, max_in_flight))
    validation = SMALL_RUN["split"]["validation_pairs"]
    assert keep_alive_stub.hits == 2 * validation
    assert keep_alive_stub.connections <= max_in_flight  # one kept alive a worker
    # the stub's thread for a connection ends once the client has closed it
    deadline = time.monotonic() + 10
    while set(threading.enumerate()) - threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) <= threads_before
    assert sorted(os.listdir("/proc/self/fd")) == fds_before


def test_a_remote_run_has_at_most_max_in_flight_requests_in_flight(tmp_path, keep_alive_stub):
    keep_alive_stub.sleep_s = 0.01
    run_all(_remote_config(tmp_path / "out", keep_alive_stub, 3))
    assert 1 < keep_alive_stub.most_in_flight <= 3


def test_remote_prompts_are_made_in_the_calling_thread_in_pair_order(
    tmp_path, keep_alive_stub, monkeypatch
):
    made, real_build_bundle = [], pipeline.build_bundle

    def build_bundle(template, system_id, *rest):
        made.append((threading.current_thread(), system_id))
        return real_build_bundle(template, system_id, *rest)

    monkeypatch.setattr(pipeline, "build_bundle", build_bundle)
    run_all(_remote_config(tmp_path / "out", keep_alive_stub, 3))
    rows = (tmp_path / "out" / PREDICTIONS_FILE).read_text().splitlines()
    assert [thread for thread, _ in made] == [threading.current_thread()] * len(rows)
    assert [system_id for _, system_id in made] == [json.loads(row)["system_id"] for row in rows]


def _python(version):
    """An interpreter of version: the first in CRASHCAST_PYTHONS, else the newest of pyenv's."""
    for python in filter(None, os.environ.get("CRASHCAST_PYTHONS", "").split(os.pathsep)):
        try:
            asked = subprocess.run(
                [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True,
            )
        except OSError:  # not there, or not a program
            continue
        if asked.returncode == 0 and asked.stdout.strip() == version:
            return python
    pyenv = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python{version}"),
                   key=lambda path: int(path.parts[-3].split(".")[2]))
    return str(pyenv[-1]) if pyenv else None


# the logs are merged with heapq.merge: the pinned bytes must hold on every supported Python
@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_the_default_run_writes_its_pinned_outputs_on_every_python(tmp_path, version):
    python = _python(version)
    if python is None:
        pytest.skip(f"no Python {version}: name one in CRASHCAST_PYTHONS or under ~/.pyenv")
    overrides, pins = OUTPUT_PINS["default"]
    run = _fresh_run(python, {**overrides, "paths": {"out_dir": str(tmp_path)}}, *pins)
    assert {name: run[name] for name in pins} == pins
    assert not UNLOADED & {*run["modules"]}


# --- run_all's streamed route: one data writer; this process draws and sequences each system --

@st.composite
def _generator_configs(draw):
    """Small corpora; at the high rate, records of one system and of several share instants."""
    rate = draw(st.sampled_from([0.5, 20.0, 3000.0]))
    return GeneratorConfig(
        seed=draw(st.integers(0, 2**32)),
        n_systems=draw(st.integers(1, 3 if rate > 100 else 12)),
        days=1 if rate > 100 else draw(st.integers(1, 30)),
        per_system_rate=rate,
        noise_fraction=draw(st.sampled_from([0.0, 0.2, 0.5])),
        bursty=draw(st.booleans()),
    )


# "host-1000" sorts between "host-100" and "host-101", and about 3,000 records in one day
# share dozens of instants across systems, one of them host-1000's with host-867's
HOST_1000 = GeneratorConfig(seed=3, n_systems=1001, days=1, per_system_rate=3.0)


@given(_generator_configs())
@example(HOST_1000)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_the_data_writer_writes_what_the_stage_route_writes(generator):
    records = in_seconds(records_by_random_api(generator, generator.seed))
    with tempfile.TemporaryDirectory() as root:
        config = dataclasses.replace(parse_run_config({"paths": {"out_dir": root}}),
                                     generator=generator)
        pipeline._write_data(config, default_catalog())
        out = Path(root)
        assert (out / LOGS_FILE).read_text() == "".join(record_to_line(r) + "\n" for r in records)
        critical = filter_critical(records)
        corpus = build_corpus(critical)
        if not corpus.events:
            assert sorted(path.name for path in out.iterdir()) == [LOGS_FILE]
            return
        expected = "".join(
            pipeline.encode_line(pipeline.EVENT_FIELDS, e) + "\n" for e in corpus.events
        )
        assert (out / EVENTS_FILE).read_text() == expected
        assert json.loads((out / INGEST_FILE).read_text()) == {
            "source_digest": hashlib.sha256((out / LOGS_FILE).read_bytes()).hexdigest(),
            "records": len(records), "critical": len(critical), "events": len(corpus.events),
            "duplicates": corpus.duplicates, "dropped_before_floor": corpus.dropped_before_floor,
        }


def test_the_data_writers_example_shares_instants_across_systems():
    systems_at = {}
    for record in parse_lines(generate_corpus(HOST_1000)):
        systems_at.setdefault(record.timestamp, set()).add(record.system_id)
    assert sum(len(systems) > 1 for systems in systems_at.values()) > 10
    # a tie that system_id order and system index order break differently
    assert {"host-1000", "host-867"} in systems_at.values()


# what these runs left before run_all streamed (synth, then ingest on the whole corpus):
# (overrides, the files, the manifest past its config, ingest.json or None)
FAILED_RUNS = {
    EmptyCorpus: (
        {"generator": {"n_systems": 6, "days": 10, "start_date": "1999-12-01"}},
        [LOGS_FILE, MANIFEST_FILE, TIMINGS_FILE],
        {
            "backend_id": None,
            "error": {"kind": "EmptyCorpus",
                      "message": "zero crash events survived corpus construction"},
            "item_counts": {"predictions": 0},
            "outputs": {
                "events": None,
                "logs": "e7e7011bfc3473fcb228de0a048042b585d3f7fc59139697093cd7223209d8f7",
                "predictions": None, "report": None, "split": None, "table": None,
                "windows": None,
            },
            "seed": 9, "status": "failed", "timings_file": "timings.json",
            "validation_systems": {},
        },
        None,
    ),
    InsufficientData: (
        {"split": {"train_pairs": 30, "validation_pairs": 100000}},
        [EVENTS_FILE, INGEST_FILE, LOGS_FILE, MANIFEST_FILE, TIMINGS_FILE, WINDOWS_FILE],
        {
            "backend_id": None,
            "error": {"kind": "InsufficientData",
                      "message": "short by 99314 eligible (history, label) pairs"},
            "item_counts": {"events": 722, "pairs": 716, "predictions": 0, "systems": 6},
            "outputs": {
                "events": "d7da86bae42edff9a3aba95b9bb78aa2b45235337e43a90e6de83d9b5641c556",
                "logs": "413e84405910f453c64b899717ca8b1d98d5776d6f03c8200523ff5f71296132",
                "predictions": None, "report": None, "split": None, "table": None,
                "windows": "e38c8c56316563cc13c14ea92c9bbd4339728607cd916b0433eb975b42779d5a",
            },
            "seed": 9, "status": "failed", "timings_file": "timings.json",
            "validation_systems": {},
        },
        {
            "critical": 722, "dropped_before_floor": 0, "duplicates": 0, "events": 722,
            "records": 866,
            "source_digest": "413e84405910f453c64b899717ca8b1d98d5776d6f03c8200523ff5f71296132",
        },
    ),
}


@pytest.mark.parametrize("error", FAILED_RUNS, ids=lambda error: error.__name__)
def test_a_failed_run_leaves_what_it_left_before_run_all_streamed(tmp_path, error):
    overrides, files, manifest, ingest = FAILED_RUNS[error]
    out = tmp_path / "out"
    with pytest.raises(error):
        run_all(small_config(out, **overrides))
    assert sorted(path.name for path in out.iterdir()) == files
    written = json.loads((out / MANIFEST_FILE).read_text())
    assert {key: value for key, value in written.items()
            if key not in ("config", "config_digest")} == manifest
    assert (json.loads((out / INGEST_FILE).read_text()) if ingest else None) == ingest


# a function this process calls in each stage of a synth run
STAGE_CALLS = {
    "synth": "generate_systems",
    "ingest": "build_corpus",
    "sequence": "build_sequences",
    "split": "split_pairs",
    "predict": "baseline_answer",
    "evaluate": "score_item",
}


def _run_cli(tmp_path):
    """crashcast run on the small config, and whether it left any file descriptor open."""
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({**SMALL_RUN, "paths": {"out_dir": str(tmp_path / "out")}}))
    open_before = sorted(os.listdir("/proc/self/fd"))
    result = CliRunner().invoke(main, ["--config", str(config_path), "run"])
    return result, sorted(os.listdir("/proc/self/fd")) == open_before


@pytest.mark.parametrize("stage", STAGE_CALLS)
def test_an_interrupt_in_any_stage_leaves_no_writer_pipe_or_partial_file(
    tmp_path, monkeypatch, writer_pids, stage
):
    test_pid = os.getpid()
    real = getattr(pipeline, STAGE_CALLS[stage])

    def interrupted(*args, **kwargs):  # in this process only: a writer calls the real one
        if os.getpid() == test_pid:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, STAGE_CALLS[stage], interrupted)
    result, no_fd_left = _run_cli(tmp_path)
    assert result.exit_code == 130, result.output
    assert no_fd_left
    _assert_no_writer_left(tmp_path / "out", writer_pids)
    manifest = json.loads((tmp_path / "out" / MANIFEST_FILE).read_text())
    assert manifest["error"]["kind"] == "KeyboardInterrupt"


def test_a_killed_data_writer_leaves_no_writer_pipe_or_partial_file(
    tmp_path, monkeypatch, writer_pids
):
    test_pid, real_encode_line, encoded = os.getpid(), pipeline.encode_line, []

    def killed_partway(table, values):  # in the data writer, with events.jsonl half written
        if os.getpid() != test_pid and table is pipeline.EVENT_FIELDS:
            encoded.append(values)
            if len(encoded) == 100:
                os.kill(os.getpid(), signal.SIGKILL)
        return real_encode_line(table, values)

    monkeypatch.setattr(pipeline, "encode_line", killed_partway)
    result, no_fd_left = _run_cli(tmp_path)
    assert result.exit_code == 2, result.output
    logs = tmp_path / "out" / LOGS_FILE
    assert f"cannot write {logs}: its writer failed with status {-signal.SIGKILL}" in result.output
    assert no_fd_left
    _assert_no_writer_left(tmp_path / "out", writer_pids)
    assert not logs.exists() and not (tmp_path / "out" / EVENTS_FILE).exists()


def test_run_all_holds_less_up_to_split_than_the_records_alone(tmp_path, monkeypatch):
    config = small_config(tmp_path / "out", generator={"n_systems": 40, "days": 540})
    peaks, real_split_stage = [], pipeline.split_stage

    def measured(config, sequences):
        peaks.append(tracemalloc.get_traced_memory()[1] - in_use)
        return real_split_stage(config, sequences)

    monkeypatch.setattr(pipeline, "split_stage", measured)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [*chain.from_iterable(generate_systems(config.generator, seed=config.seed))]
        kept = tracemalloc.get_traced_memory()[0] - before
        del records
        tracemalloc.reset_peak()
        in_use = tracemalloc.get_traced_memory()[0]
        run_all(config)
    finally:
        tracemalloc.stop()
    assert peaks[0] < kept, f"{peaks[0] / kept:.2f}x what the records hold"


def test_run_all_reports_each_writers_cpu_and_peak_memory(tmp_path):
    out = tmp_path / "out"
    run_all(small_config(out))
    timings = json.loads((out / TIMINGS_FILE).read_text())
    usage = timings["writer_usage"]
    assert sorted(usage) == sorted([LOGS_FILE, EVENTS_FILE, INGEST_FILE, WINDOWS_FILE])
    for figures in usage.values():
        assert sorted(figures) == ["maxrss_kb", "system_s", "user_s"]
        assert figures["maxrss_kb"] > 0 and figures["user_s"] + figures["system_s"] > 0
        assert min(figures.values()) >= 0
    # one data writer wrote the logs, the events and ingest.json
    assert usage[LOGS_FILE] == usage[EVENTS_FILE] == usage[INGEST_FILE] != usage[WINDOWS_FILE]


def test_a_manifest_that_cannot_be_written_leaves_the_first_error_to_propagate(
    tmp_path, monkeypatch
):
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "_write", _failing_write(SPLIT_FILE, MANIFEST_FILE))
    with pytest.raises(OSError) as raised:
        run_all(small_config(out))
    assert raised.value.filename == str(out / SPLIT_FILE)
    assert not (out / MANIFEST_FILE).exists()
    assert not [*out.glob(".*.partial")]


BENCH = Path(__file__).parents[1] / "bench"


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_benchmark_file_lists_follow_the_stage_table():
    """bench/ keeps its own lists of the stage files; each must agree with pipeline.STAGES."""
    tracer = _bench_tracer()
    run_py = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    lists = {
        target.id: ast.literal_eval(node.value)
        for node in run_py.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("OUTPUTS", "UPSTREAM_OUTPUTS")
    }
    outputs = {
        key: name for files in pipeline.STAGES.values() for name, key in files.items() if key
    }
    assert tracer.STAGES == STAGES
    assert lists["OUTPUTS"] == tuple(outputs)
    assert {key: outputs.get(key) for key in tracer.OUTPUT_FILES} == tracer.OUTPUT_FILES
    upstream = [
        key for stage in STAGES[: STAGES.index("predict")]
        for key in pipeline.STAGES[stage].values() if key
    ]
    assert lists["UPSTREAM_OUTPUTS"] == tuple(upstream)


def test_readme_command_table_is_the_stage_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    writes = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            command, cell = (cell.strip() for cell in row.strip("|").split("|")[:2])
            # run's cell: "all of the above + <its own files>"
            own = cell.split(" + ")[-1]
            writes[command.strip("`")] = [name.strip("`") for name in own.split(", ")]
    assert writes.pop("run") == [MANIFEST_FILE, TIMINGS_FILE]
    assert writes == {stage: [*files] for stage, files in pipeline.STAGES.items()}


def test_every_name_the_benchmark_tracer_wraps_is_a_pipeline_callable():
    """bench/tracer.py replaces these attributes of crashcast.pipeline by name."""
    tracer = _bench_tracer()
    assert tracer.TRACED_FUNCTIONS
    for name in [*tracer.TRACED_FUNCTIONS, "make_backend"]:
        assert callable(getattr(pipeline, name, None)), name
