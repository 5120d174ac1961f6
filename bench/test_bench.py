"""Tests for the benchmark's own logic: percentiles, the correctness gate, the stub.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

import run
from stub import ANSWER, RouteCounter, make_server
from tracer import percentile, tail_percentile


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(800) == 98.0
    assert tail_percentile(600) == 98.0
    assert tail_percentile(499) == 95.0
    assert tail_percentile(10000) == 98.0
    assert tail_percentile(400) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_percentile_interpolates_between_ranks():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([0.0, 10.0], 98) == pytest.approx(9.8)
    assert percentile([float(v) for v in range(101)], 98) == 98.0


def write_run(out_dir, rows):
    """A two-window, one-system run directory whose split validates indices 2 and 3."""
    out_dir.mkdir()
    windows = [
        {"system_id": "host-000", "window_index": 0,
         "times": ["2021-01-01T01:00:00Z", "2021-01-02T01:00:00Z"], "causes": ["a", "b"]},
        {"system_id": "host-000", "window_index": 1,
         "times": ["2021-01-09T00:00:00Z"], "causes": ["c"]},
    ]
    (out_dir / "windows.jsonl").write_text("\n".join(json.dumps(w) for w in windows) + "\n")
    (out_dir / "split.json").write_text(json.dumps({"validation": [["host-000", 3], ["host-000", 2]]}))
    (out_dir / "predictions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))


def kshot_row(index, window_index, date, cause):
    return {"system_id": "host-000", "index": index, "window_index": window_index,
            "target_time": date, "target_cause": cause, "time_answer": ANSWER,
            "cause_answer": ANSWER, "backend_id": "remote:default"}


GOOD_ROWS = [kshot_row(2, 0, "2021-01-02", "b"), kshot_row(3, 1, "2021-01-09", "c")]


def test_rows_are_derived_from_windows_and_split(tmp_path):
    write_run(tmp_path / "out", GOOD_ROWS)
    assert run.row_problems(tmp_path / "out", partial=False) == []


def test_doctored_row_fails_and_missing_rows_fail_only_a_full_run(tmp_path):
    doctored = [GOOD_ROWS[0], {**GOOD_ROWS[1], "cause_answer": "something else"}]
    write_run(tmp_path / "doctored", doctored)
    assert run.row_problems(tmp_path / "doctored", partial=True)
    write_run(tmp_path / "partial", GOOD_ROWS[:1])
    assert run.row_problems(tmp_path / "partial", partial=True) == []
    assert run.row_problems(tmp_path / "partial", partial=False)


def outage_manifest(kind="TransportError"):
    return {"status": "failed", "error": {"kind": kind, "message": "server answered 500"}}


def test_outage_must_end_in_a_transport_error():
    outage = run.WORKLOADS["remote-outage"]
    expected = {"outcome": "BackendError", "error_kind": "TransportError"}
    assert run.outcome_problems(outage, expected, outage_manifest()) == []
    assert run.outcome_problems(outage, {"outcome": "ok"}, {"status": "ok", "error": None})
    assert run.outcome_problems(outage, {"outcome": "BackendError", "error_kind": "Timeout"},
                                outage_manifest("Timeout"))
    assert run.outcome_problems(outage, {"outcome": "KeyError"}, outage_manifest())
    assert run.outcome_problems(outage, expected, None)


def test_kshot_must_end_ok():
    kshot = run.WORKLOADS["remote-kshot"]
    assert run.outcome_problems(kshot, {"outcome": "ok"}, {"status": "ok", "error": None}) == []
    assert run.outcome_problems(kshot, {"outcome": "BackendError"}, outage_manifest())


@pytest.mark.parametrize("workload", ["corpus-large", "remote-kshot", "remote-outage"])
def test_doctored_digest_fails_the_run_at_the_default_seed(workload):
    pinned = json.loads(run.PINNED_FILE.read_text())["outputs"][run.PINNED_AS[workload]]
    good = run.Run("run", outputs=dict(pinned))
    doctored = run.Run("run", outputs={**pinned, "split": "0" * 64})
    run.Bench(workload, run.DEFAULT_SEED, started=0.0).check_digests([good, doctored])
    assert good.problems == []
    assert doctored.problems and "split" in doctored.problems[0]


def test_runs_at_another_seed_must_agree():
    first = run.Run("run", outputs={key: "a" for key in run.OUTPUTS})
    same = run.Run("run", outputs=dict(first.outputs))
    other = run.Run("run", outputs={**first.outputs, "report": "b"})
    run.Bench("corpus-large", run.DEFAULT_SEED + 1, started=0.0).check_digests([first, same, other])
    assert [bool(r.problems) for r in (first, same, other)] == [False, False, True]


def test_route_counter_refuses_exactly_after_its_threshold():
    counter = RouteCounter(refuse_after=400)
    assert all(counter.admit("/r1") for _ in range(400))
    assert not counter.admit("/r1")
    assert not counter.admit("/r1")
    assert counter.admit("/r2")
    assert counter.stats("/r1") == {"hits": 402, "refused": 2}
    assert counter.stats("/r2") == {"hits": 1, "refused": 0}
    assert RouteCounter().admit("/r1")


def test_stub_answers_then_refuses_over_http():
    server = make_server(RouteCounter(refuse_after=1), latency_s=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        def post():
            request = urllib.request.Request(f"{base}/r1", data=b"{}", method="POST")
            with urllib.request.urlopen(request, timeout=5) as response:
                return json.loads(response.read())

        assert post()["choices"][0]["message"]["content"] == ANSWER
        with pytest.raises(urllib.error.HTTPError) as refused:
            post()
        assert refused.value.code == 500
        refused.value.close()
        with urllib.request.urlopen(f"{base}/stats/r1", timeout=5) as response:
            assert json.loads(response.read()) == {"hits": 2, "refused": 1}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
