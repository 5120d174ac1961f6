"""crashcast benchmark: time ``run_all`` on a named workload and check its outputs.

    python3 bench/run.py --workload corpus-large|remote-kshot|remote-outage \
        [--seed 1234] [--seconds 30] [--trace 0|1]

Each repeat runs ``crashcast.pipeline.run_all`` in a fresh child process
(bench/child.py) until ``--seconds`` have passed; the remote workloads
talk to bench/stub.py in a process of its own. Every repeat's outputs are
checked. ``--trace 1`` adds one traced run (bench/tracer.py) and reports
the per-layer metrics instead of the end-to-end ones. Human-readable
lines come first; the last line of standard output is one JSON object.
Metric names, units and workload reasons live in BENCHMARK.json at the
root of the repository; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from stub import ANSWER, LATENCY_MS
from tracer import STAGES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
PINNED_FILE = BENCH_DIR / "digests.json"

DEFAULT_SEED = 1234
SETUP_PROBES_PER_RUN = 3
DEADLINE_S = 170.0
OUTPUTS = ("logs", "events", "windows", "split", "predictions", "report", "table")
UPSTREAM_OUTPUTS = ("logs", "events", "windows", "split")


@dataclass(frozen=True)
class Workload:
    n_systems: int
    train_pairs: int
    validation_pairs: int
    backend: dict[str, Any] | None = None  # None: the closed-form baseline
    refuse_after: int | None = None  # the stub answers 500 after this many requests

    @property
    def remote(self) -> bool:
        return self.backend is not None

    @property
    def expect_failure(self) -> bool:
        return self.refuse_after is not None

    def config(self, seed: int, out_dir: str, endpoint: str | None) -> dict[str, Any]:
        config: dict[str, Any] = {
            "seed": seed,
            "split": {"train_pairs": self.train_pairs, "validation_pairs": self.validation_pairs},
            "generator": {"n_systems": self.n_systems, "days": 540},
            "paths": {"out_dir": out_dir},
        }
        if self.backend is not None:
            config["backend"] = {**self.backend, "endpoint": endpoint}
        return config


REMOTE = {"kind": "remote-llm", "max_in_flight": 2}
WORKLOADS = {
    "corpus-large": Workload(n_systems=200, train_pairs=2000, validation_pairs=2000),
    "remote-kshot": Workload(n_systems=40, train_pairs=400, validation_pairs=400, backend=REMOTE),
    "remote-outage": Workload(
        n_systems=40,
        train_pairs=400,
        validation_pairs=400,
        backend={**REMOTE, "retry_limit": 2, "backoff_base": 0.01},
        refuse_after=400,
    ),
}
# remote-outage differs from remote-kshot only in the backend, so its data
# files must match remote-kshot's and its rows are remote-kshot rows
PINNED_AS = {"corpus-large": "corpus-large", "remote-kshot": "remote-kshot",
             "remote-outage": "remote-kshot"}


# --- correctness -----------------------------------------------------------------

def expected_rows(out_dir: Path) -> dict[tuple[str, int], dict[str, Any]]:
    """The remote-kshot prediction row of every validation pair in out_dir's split.

    The stub always answers ANSWER, so a row follows from the windows and
    the split alone; this is written independently of crashcast's code.
    """
    events: dict[str, list[tuple[int, str, str]]] = {}
    for line in (out_dir / "windows.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            w = json.loads(line)
            events.setdefault(w["system_id"], []).extend(
                (w["window_index"], ts, cause) for ts, cause in zip(w["times"], w["causes"])
            )
    for system_events in events.values():
        system_events.sort(key=lambda event: event[0])
    split = json.loads((out_dir / "split.json").read_text(encoding="utf-8"))
    rows = {}
    for system_id, index in split["validation"]:
        window_index, ts, cause = events[system_id][index - 1]
        rows[(system_id, index)] = {
            "system_id": system_id,
            "index": index,
            "window_index": window_index,
            "target_time": ts[:10],
            "target_cause": cause,
            "time_answer": ANSWER,
            "cause_answer": ANSWER,
            "backend_id": "remote:default",
        }
    return rows


def row_problems(out_dir: Path, partial: bool) -> list[str]:
    """Rows that differ from remote-kshot's; with partial, missing rows are allowed."""
    expected = expected_rows(out_dir)
    got = {}
    for line in (out_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            row = json.loads(line)
            got[(row["system_id"], row["index"])] = row
    problems = [f"row {key} is {row}, expected {expected.get(key)}"
                for key, row in got.items() if row != expected.get(key)]
    if not partial and got.keys() != expected.keys():
        problems.append(f"{len(got)} rows for {len(expected)} validation pairs")
    return problems


def outcome_problems(workload: Workload, result: dict[str, Any], manifest: dict | None) -> list[str]:
    """How the run ended versus how this workload must end."""
    if manifest is None:
        return ["no manifest.json"]
    outcome = result.get("outcome")
    error = manifest.get("error") or {}
    if not workload.expect_failure:
        problems = [] if outcome == "ok" else [f"run ended with {outcome}"]
        if manifest.get("status") != "ok":
            problems.append(f"manifest status {manifest.get('status')!r}, error {error}")
        return problems
    problems = []
    if outcome != "BackendError" or result.get("error_kind") != "TransportError":
        problems.append(f"expected a TransportError, run ended with {outcome} "
                        f"{result.get('error_kind', '')}".rstrip())
    if manifest.get("status") != "failed" or error.get("kind") != result.get("error_kind"):
        problems.append(f"manifest status {manifest.get('status')!r}, error {error}")
    return problems


def digest_problems(outputs: dict[str, Any], reference: dict[str, Any], keys) -> list[str]:
    return [f"{key} digest {outputs.get(key)} differs from {reference.get(key)}"
            for key in keys if outputs.get(key) != reference.get(key)]


# --- processes -------------------------------------------------------------------

class Stub:
    """bench/stub.py in its own process; it exits when its stdin closes."""

    def __init__(self, refuse_after: int | None):
        cmd = [sys.executable, str(BENCH_DIR / "stub.py")]
        if refuse_after is not None:
            cmd += ["--refuse-after", str(refuse_after)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def url(self, route: str) -> str:
        return f"{self.base}/{route}"

    def stats(self, route: str) -> dict[str, int]:
        with urllib.request.urlopen(f"{self.base}/stats/{route}", timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Run:
    """One child process: its result file plus what the parent checked."""

    mode: str
    result: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    stub: dict[str, int] = field(default_factory=dict)


class Bench:
    def __init__(self, name: str, seed: int, started: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.work = OUT_ROOT / "work" / f"{name}-{os.getpid()}"
        self.stub: Stub | None = None
        self.spans_path = OUT_ROOT / f"{name}-seed{seed}-spans.jsonl"
        self._tags = 0

    def child(self, mode: str) -> Run:
        self._tags += 1
        tag = f"r{self._tags}"
        out_dir = self.work / tag
        endpoint = self.stub.url(tag) if self.stub else None
        config_path = self.work / f"{tag}.config.json"
        result_path = self.work / f"{tag}.result.json"
        config_path.write_text(json.dumps(self.workload.config(self.seed, str(out_dir), endpoint)))
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode,
               "--config", str(config_path), "--result", str(result_path)]
        if mode == "trace":
            cmd += ["--spans", str(self.spans_path)]
        run = Run(mode)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            run.problems.append(f"{mode} child still running at the {DEADLINE_S:.0f} s deadline")
            return run
        if proc.returncode != 0 or not result_path.is_file():
            run.problems.append(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
            return run
        run.result = json.loads(result_path.read_text())
        if mode != "setup":
            self.check(run, out_dir)
            if self.stub:
                run.stub = self.stub.stats(tag)
        shutil.rmtree(out_dir, ignore_errors=True)
        return run

    def check(self, run: Run, out_dir: Path) -> None:
        if "traceback" in run.result:
            run.problems.append(run.result["traceback"])
        manifest = _read_json(out_dir / "manifest.json")
        run.problems += outcome_problems(self.workload, run.result, manifest)
        if manifest is not None:
            run.outputs = manifest.get("outputs", {})
        run.timings = (_read_json(out_dir / "timings.json") or {}).get("seconds", {})
        if self.workload.remote and (out_dir / "predictions.jsonl").is_file():
            run.problems += row_problems(out_dir, partial=self.workload.expect_failure)

    def check_digests(self, runs: list[Run]) -> None:
        """Outputs equal the pinned digests at the default seed, else agree across runs."""
        keys = UPSTREAM_OUTPUTS if self.workload.expect_failure else OUTPUTS
        if self.seed == DEFAULT_SEED:
            pinned = json.loads(PINNED_FILE.read_text())
            reference = pinned["outputs"].get(PINNED_AS[self.name], {})
        else:
            reference = next((r.outputs for r in runs if r.outputs), {})
        for run in runs:
            run.problems += digest_problems(run.outputs, reference, keys)


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# --- metrics ---------------------------------------------------------------------

def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[q1 {q1:.4g}, q3 {q3:.4g}] n={len(values)}"


# The machine the benchmark was sized on switches between two speeds, about
# 1.4x apart, in phases of a few seconds. The set-up probes are short and
# come in groups of three, so their median follows the share of groups that
# met a slow phase; their minimum is the set-up time on the fast phase, which
# the many groups of a run nearly always meet.
SUMMARY = {"run_s": median_of, "peak_rss_mb": median_of, "setup_s": min}


def end_to_end(runs: list[Run], setups: list[float]) -> dict[str, list[float]]:
    timed = [r for r in runs if "run_s" in r.result]
    return {
        "run_s": [r.result["run_s"] for r in timed],
        "peak_rss_mb": [r.result["peak_rss_mb"] for r in timed],
        "setup_s": setups,
    }


def per_layer(runs: list[Run], traced: Run, config_loads: list[float]) -> dict[str, float]:
    layers = dict(traced.result["layers"])
    outside_predict = traced.result["predict_outside_s"]
    timed = [r for r in runs if "run_s" in r.result]
    for stage in STAGES:
        values = [r.timings[stage] for r in timed if stage in r.timings]
        if not values and stage == "predict":
            values = [outside_predict]
        layers[f"pipeline.stage.{stage}_s"] = median_of(values)
    layers["pipeline.unstaged_s"] = median_of([
        r.result["run_s"] - sum(r.timings.values())
        - (0.0 if "predict" in r.timings else outside_predict)
        for r in timed
    ])
    sent = [r.stub.get("hits", 0) for r in timed]
    layers["requests_sent"] = median_of(sent)
    layers["predictor.requests_after_failure"] = median_of([r.stub.get("refused", 0) for r in timed])
    traced_sent = traced.stub.get("hits", 0)
    useful = layers["predictor.calls"] - sum(v for k, v in layers.items()
                                             if k.startswith("predictor.errors."))
    layers["predictor.useful_share"] = useful / traced_sent if traced_sent else 0.0
    layers["config.load_ms"] = median_of(config_loads)
    layers["trace.overhead_s"] = traced.result.get("run_s", 0.0) - median_of(
        [r.result["run_s"] for r in timed])
    return layers


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    # on SIGTERM, unwind: subprocess.run kills the running child, finally stops the stub
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "crashcast" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no crashcast sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    bench = Bench(args.workload, args.seed, started)
    workload = bench.workload
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "stub_latency_ms": LATENCY_MS if workload.remote else None,
        "stub_refuse_after": workload.refuse_after,
        "config": workload.config(args.seed, "<out_dir>", "<stub url>/<run>"),
    }
    print("context " + json.dumps(context), flush=True)

    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if workload.remote:
            bench.stub = Stub(workload.refuse_after)
        bench.child("setup")  # warm-up: compiles bytecode, fills the file cache
        probes: list[Run] = []
        runs: list[Run] = []
        measured = 0.0
        while measured < args.seconds:
            # probes spread over the whole run, so set-up is sampled at many moments
            probes += [bench.child("setup") for _ in range(SETUP_PROBES_PER_RUN)]
            started_run = time.monotonic()
            runs.append(bench.child("run"))
            measured += time.monotonic() - started_run
        traced = bench.child("trace") if args.trace else None
    finally:
        if bench.stub is not None:
            bench.stub.stop()
        shutil.rmtree(bench.work, ignore_errors=True)

    checked = runs + ([traced] if traced else [])
    bench.check_digests(checked)
    failed = [r for r in checked if r.problems]
    for run in failed:
        print(f"FAILED {run.mode} run: " + "\n  ".join(run.problems[:5]), file=sys.stderr)
    for probe in probes:
        if probe.problems:
            print("FAILED setup probe: " + probe.problems[0], file=sys.stderr)
    children = [p for p in probes + runs if "setup_s" in p.result]
    samples = end_to_end(runs, [c.result["setup_s"] for c in children])
    if not samples["run_s"] or not samples["setup_s"]:
        print("no run was timed", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{args.workload} seed={args.seed}: {len(runs)} timed runs"
          + (", 1 traced run" if traced else ""))
    for name, values in samples.items():
        print(f"  {name:<12} {SUMMARY[name](values):10.4f} {units[name]:<6} {SUMMARY[name].__name__}"
              f" {spread(values)}")
    sent = [r.stub.get("hits", 0) for r in runs]
    if workload.remote:
        print(f"  requests_sent {median_of(sent):9.0f} count  {spread(sent)}")
    print(f"  failed_share {len(failed) / len(checked):10.4f} share  "
          f"({len(failed)} of {len(checked)} runs)")

    if traced and "layers" not in traced.result:
        print("the traced run reported no layer metrics", file=sys.stderr)
        return 1
    if traced:
        reported = per_layer(runs, traced, [c.result["config_load_ms"] for c in children])
        names = [m["name"] for m in spec["per_layer"]]
    else:
        reported = {name: SUMMARY[name](values) for name, values in samples.items()}
        names = [m["name"] for m in spec["end_to_end"]]
    if set(reported) != set(names):
        print(f"metrics {sorted(set(reported) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    if traced:
        for name in names:
            print(f"  {name:<36} {reported[name]:14.6g} {units[name]}")
        print(f"  spans written to {bench.spans_path.relative_to(ROOT)}")

    metrics = {name: {"value": reported[name], "unit": units[name]} for name in names}
    record = {"context": context, "samples": samples, "requests_sent": sent,
              "outputs": runs[0].outputs, "problems": [r.problems for r in checked],
              "metrics": metrics}
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
