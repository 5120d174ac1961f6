"""Command-line front end: one subcommand per stage plus an all-in-one run.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 backend problems, 130 stopped by Ctrl-C or SIGTERM.
"""

from __future__ import annotations

import dataclasses
import signal
import sys

import click

from . import pipeline
from .config import RunConfig, load_run_config
from .errors import BackendError, ConfigError, DataError
from .predictor import BACKEND_KINDS

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4
EXIT_STOPPED = 130  # the shell's 128 + SIGINT


def _resolve_config(config_path, seed, out_dir, backend) -> RunConfig:
    config = load_run_config(config_path) if config_path else RunConfig()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if out_dir is not None:
        config = dataclasses.replace(
            config, paths=dataclasses.replace(config.paths, out_dir=out_dir)
        )
    if backend is not None:
        config = dataclasses.replace(
            config, backend=dataclasses.replace(config.backend, kind=backend)
        )
    return config


def _execute(fn):
    try:
        with pipeline.collector_paused():
            return fn()
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    except DataError as err:
        click.echo(f"data error: {err}", err=True)
        sys.exit(EXIT_DATA)
    except BackendError as err:
        click.echo(f"backend error: {err}", err=True)
        sys.exit(EXIT_BACKEND)
    except KeyboardInterrupt:
        click.echo("stopped", err=True)
        sys.exit(EXIT_STOPPED)


@click.group()
@click.option("--config", "config_path", type=click.Path(), help="Run config file (JSON).")
@click.option("--seed", type=int, default=None, help="Override the run seed.")
@click.option("--out-dir", type=click.Path(), default=None, help="Override the output directory.")
@click.option(
    "--backend",
    type=click.Choice(BACKEND_KINDS),
    default=None,
    help="Override the backend kind.",
)
@click.pass_context
def main(ctx, config_path, seed, out_dir, backend):
    """Crash sequence prediction harness: generate, predict, evaluate."""
    # SIGTERM stops a command the way Ctrl-C does: predict flushes, run writes a failed manifest
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    ctx.call_on_close(lambda: signal.signal(signal.SIGTERM, previous))
    ctx.obj = _execute(lambda: _resolve_config(config_path, seed, out_dir, backend))


@main.command()
@click.pass_obj
def synth(config: RunConfig):
    """Generate a synthetic raw crash log; refused when paths.logs names the logs."""
    _execute(lambda: pipeline.synth_stage(config))
    click.echo(f"wrote {pipeline.logs_path_of(config)}")


@main.command()
@click.pass_obj
def ingest(config: RunConfig):
    """Parse raw logs into validated crash events."""
    corpus = _execute(lambda: pipeline.ingest_stage(config))
    click.echo(
        f"{len(corpus.events)} events"
        f" ({corpus.duplicates} duplicates folded,"
        f" {corpus.dropped_before_floor} before the epoch floor)"
    )


@main.command()
@click.pass_obj
def sequence(config: RunConfig):
    """Build per-system sequences and partition them into windows."""
    sequences = _execute(lambda: pipeline.sequence_stage(config))
    click.echo(f"{len(sequences)} systems sequenced")


@main.command()
@click.pass_obj
def split(config: RunConfig):
    """Draw disjoint train and validation pair pools."""
    train, validation = _execute(lambda: pipeline.split_stage(config))
    click.echo(f"train {len(train)}, validation {len(validation)}")


@main.command()
@click.pass_obj
def predict(config: RunConfig):
    """Ask the configured backend for next-crash answers."""
    rows = _execute(lambda: pipeline.predict_stage(config))
    click.echo(f"{len(rows)} predictions from {config.backend.kind}")


@main.command()
@click.option(
    "--stopwords",
    type=click.Choice(["on", "off"]),
    default=None,
    help="Force stopword removal on or off for this evaluation.",
)
@click.pass_obj
def evaluate(config: RunConfig, stopwords):
    """Score predictions with ROUGE-1 and ROUGE-L per category."""
    if stopwords is not None:
        flags = dataclasses.replace(config.normalization, remove_stopwords=stopwords == "on")
        config = dataclasses.replace(config, normalization=flags)
    report = _execute(lambda: pipeline.evaluate_stage(config))
    _echo_summary(report)


@main.command()
@click.pass_obj
def run(config: RunConfig):
    """Run every stage and write the report and manifest."""
    report = _execute(lambda: pipeline.run_all(config))
    _echo_summary(report)
    click.echo(f"report written to {pipeline.out_dir_of(config) / pipeline.REPORT_FILE}")


def _echo_summary(report):
    for category, scores in report["categories"].items():
        click.echo(
            f"{category}: rouge1 f1 {scores['rouge1']['f1']:.4f},"
            f" rougeL f1 {scores['rougeL']['f1']:.4f}"
        )


if __name__ == "__main__":
    main()
