"""One crashcast run in a fresh interpreter, started by bench/run.py.

    python3 bench/child.py --mode setup|run|trace --config CFG.json \
        --result OUT.json [--spans SPANS.jsonl]

``setup`` stops once crashcast is imported and the config is loaded, and
times that; ``run`` then times one ``run_all`` call; ``trace`` does the
same with the tracer's wrappers installed and writes its spans to
``--spans``, which it requires. The result file holds the timings, the
process's peak resident memory and how the run ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PR_SET_PDEATHSIG = 1  # linux/prctl.h


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.mode == "trace" and args.spans is None:
        parser.error("--mode trace needs --spans")
    # die with the benchmark process, which may be killed outright
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)

    sys.path.insert(0, str(SRC_DIR))
    # set-up is the program's own part of start-up: importing crashcast and
    # loading the config; interpreter start and process spawn are left out
    setup_started = time.perf_counter()
    import crashcast

    if Path(crashcast.__file__).resolve().parent != SRC_DIR / "crashcast":
        print(f"crashcast imported from {crashcast.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    from crashcast import pipeline
    from crashcast.config import load_run_config
    from crashcast.errors import BackendError

    started = time.perf_counter()
    config = load_run_config(args.config)
    ready = time.perf_counter()
    result: dict = {"config_load_ms": (ready - started) * 1000.0,
                    "setup_s": ready - setup_started}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer(run_id=args.result.stem)
            tracer.install(pipeline)
        started = time.perf_counter()
        try:
            pipeline.run_all(config)
            result["outcome"] = "ok"
        except BackendError as err:
            result["outcome"] = "BackendError"
            result["error_kind"] = type(err).__name__
        except Exception as err:  # any other ending is reported as a failed run
            result["outcome"] = type(err).__name__
            result["traceback"] = traceback.format_exc()
        result["run_s"] = time.perf_counter() - started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(
                Path(config.paths.out_dir), config.backend.max_in_flight
            )
            # timings.json has no entry for a stage that raised, so predict is
            # also timed from outside
            result["predict_outside_s"] = sum(tracer.durations("pipeline.predict_stage"))
            tracer.write_spans(args.spans)

    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
