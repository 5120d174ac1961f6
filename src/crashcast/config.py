"""Run configuration: file schema, defaults, and strict loading.

The config file is JSON shaped like the RunConfig dataclass tree: one
key per field, a nested dataclass as a nested object. Every value is
checked against the type of its field, `null` only where the field is
typed `X | None`. Unknown keys are rejected rather than ignored so
typos fail loudly. Everything has a default; an empty file is a valid
run against the shipped data files and the baseline backend.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from ._seed import sha256
from .errors import ConfigError
from .ingest import is_utf8_encodable
from .postprocess import NormalizationFlags
from .predictor import BackendConfig
from .synthgen import GeneratorConfig


@dataclass(frozen=True)
class RunPaths:
    logs: str | None = None
    catalog: str | None = None
    template: str | None = None
    stopwords: str | None = None
    out_dir: str = "out"


@dataclass(frozen=True)
class SplitCounts:
    """How many (history, target) pairs to draw for training and for validation."""

    train_pairs: int = 100
    validation_pairs: int = 40

    def __post_init__(self):
        if self.train_pairs < 1 or self.validation_pairs < 1:
            raise ConfigError("split counts must be positive")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1234
    paths: RunPaths = dataclasses.field(default_factory=RunPaths)
    window_days: int = 7
    shots_k: int = 10
    history_cap: int = 10
    split: SplitCounts = dataclasses.field(default_factory=SplitCounts)
    backend: BackendConfig = dataclasses.field(default_factory=BackendConfig)
    normalization: NormalizationFlags = dataclasses.field(default_factory=NormalizationFlags)
    generator: GeneratorConfig = dataclasses.field(default_factory=GeneratorConfig)

    def __post_init__(self):
        if not 1 <= self.window_days <= timedelta.max.days:  # a window is a timedelta
            raise ConfigError(f"window_days must be from 1 to {timedelta.max.days}")
        if self.shots_k < 0:
            raise ConfigError("shots_k must not be negative")
        if self.history_cap < 0:
            raise ConfigError("history_cap must not be negative")


DATE_FORMAT = "%Y-%m-%d"

_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _object(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _fields_of(cls: type, data: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """Decode every key of data, each a field of the dataclass cls, by that field's type."""
    unknown = set(data) - {field.name for field in dataclasses.fields(cls)}
    if unknown:
        where = prefix.rstrip(".") or "config"
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    hints = get_type_hints(cls)
    return {name: _decode(value, hints[name], prefix + name) for name, value in data.items()}


def _decode(value: Any, hint: Any, where: str) -> Any:
    """One JSON value as the field type hint; where names it in errors."""
    if dataclasses.is_dataclass(hint):
        return hint(**_fields_of(hint, _object(value, where), where + "."))
    if get_origin(hint) is UnionType:
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        return _decode(value, hint, where)
    if value is None:
        raise ConfigError(f"{where} must not be null")
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        args = get_args(hint)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} items")
        return tuple(
            _decode(item, arg, f"{where}[{i}]") for i, (item, arg) in enumerate(zip(value, args))
        )
    if hint is datetime:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a YYYY-MM-DD string")
        try:
            return datetime.strptime(value, DATE_FORMAT).replace(tzinfo=timezone.utc)
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from None
    if hint is bool:
        valid = isinstance(value, bool)
    else:
        valid = not isinstance(value, bool) and isinstance(
            value, (int, float) if hint is float else hint
        )
    if not valid:
        raise ConfigError(f"{where} must be {_KINDS[hint]}")
    if hint is float and not abs(value) <= sys.float_info.max:  # also NaN
        raise ConfigError(f"{where} must be a finite number")
    if hint is str and not is_utf8_encodable(value):
        raise ConfigError(f"{where} holds a lone surrogate")
    return float(value) if hint is float else value


def parse_run_config(data: Mapping[str, Any]) -> RunConfig:
    return RunConfig(**_fields_of(RunConfig, _object(data, "config"), ""))


def load_run_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    return parse_run_config(data)


def resolved_dict(value: Any) -> Any:
    """A config (or any value in it), every field JSON-ready: parse_run_config inverts it."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: resolved_dict(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, datetime):
        return value.strftime(DATE_FORMAT)
    if isinstance(value, tuple):
        return [resolved_dict(item) for item in value]
    return value


def config_digest(config: RunConfig) -> str:
    payload = json.dumps(resolved_dict(config), sort_keys=True)
    return sha256(payload.encode("utf-8")).hexdigest()
