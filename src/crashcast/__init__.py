"""Crash event sequence prediction harness.

Parse raw crash logs into per-system event sequences, build k-shot
prompts, obtain next-crash (time, cause) answers from pluggable
backends, and score them with ROUGE-1/ROUGE-L.
"""

from .errors import (
    BackendError,
    ConfigError,
    CrashcastError,
    DataError,
)
from .ingest import CrashCorpus, CrashEvent, RawLogRecord, build_corpus, parse_record
from .sequencer import EventSequence, LabeledPair, build_sequences, partition_windows
from .prompt import PromptBundle, Shot, render_cause_prompt
from .predictor import (
    BackendConfig,
    BaselineModel,
    PredictionRaw,
    baseline_answer,
    fit_baseline,
    mbr_next_time,
    mbr_next_type,
)
from .postprocess import ExtractedPrediction, NormalizationConfig, extract_prediction, tokenize
from .metrics import RougeScore, aggregate, rouge_1, rouge_l, score_item
from .synthgen import GeneratorConfig
from .config import RunConfig, load_run_config
from .pipeline import generate_corpus, run_all, split_pairs

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "BackendError",
    "BaselineModel",
    "ConfigError",
    "CrashCorpus",
    "CrashEvent",
    "CrashcastError",
    "DataError",
    "EventSequence",
    "ExtractedPrediction",
    "GeneratorConfig",
    "LabeledPair",
    "NormalizationConfig",
    "PredictionRaw",
    "PromptBundle",
    "RawLogRecord",
    "RougeScore",
    "RunConfig",
    "Shot",
    "aggregate",
    "baseline_answer",
    "build_corpus",
    "build_sequences",
    "extract_prediction",
    "fit_baseline",
    "generate_corpus",
    "load_run_config",
    "mbr_next_time",
    "mbr_next_type",
    "parse_record",
    "partition_windows",
    "render_cause_prompt",
    "rouge_1",
    "rouge_l",
    "run_all",
    "score_item",
    "split_pairs",
    "tokenize",
]
