"""Produce next-crash answers from interchangeable backends.

Three backend kinds: a remote model served over a chat-style HTTP
protocol and a scripted double for tests share one calling convention,
``complete(prompt) -> str``; a deterministic per-type Poisson baseline
answers from a history alone, with closed-form minimum-Bayes-risk
answers. The baseline renders its answers through the same sentence
template the prompts teach, so everything downstream is backend-agnostic.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import (
    ConfigError,
    DataError,
    HistoryTooShort,
    ProtocolError,
    RateLimited,
    ScriptExhausted,
    Timeout,
    TransportError,
)
from .ingest import is_utf8_encodable
from .prompt import render_answer_sentence, render_date
from .sequencer import SeqEvent

BACKEND_KINDS = ("remote-llm", "baseline", "scripted")

# Span shorter than one aggregation day would blow the rates up.
MIN_SPAN_DAYS = 1.0

SYSTEM_MESSAGE = "Answer with a single sentence in the format shown by the examples."

# the longest sleep between two attempts of one remote call, in seconds
MAX_BACKOFF_S = 30.0
# the most remote calls in flight at once, each on a thread of its own
MAX_IN_FLIGHT = 64
# the most retries of one remote call, whose sleeps then add up to at most 10 x MAX_BACKOFF_S
MAX_RETRY_LIMIT = 10
# the longest wait for one request's answer, in seconds
MAX_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "baseline"
    endpoint: str | None = None
    model_name: str | None = None
    timeout: float = 30.0
    max_in_flight: int = 4
    retry_limit: int = 2
    backoff_base: float = 0.5
    max_output_tokens: int = 64
    script_path: str | None = None

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT:
            raise ConfigError(f"max_in_flight must be from 1 to {MAX_IN_FLIGHT}")
        if not 0 < self.timeout <= MAX_TIMEOUT_S:
            raise ConfigError(f"timeout must be above 0 and at most {MAX_TIMEOUT_S:g} seconds")
        if not 0 <= self.retry_limit <= MAX_RETRY_LIMIT:
            raise ConfigError(f"retry_limit must be from 0 to {MAX_RETRY_LIMIT}")
        if self.backoff_base < 0:  # time.sleep refuses a negative length
            raise ConfigError("backoff_base must not be negative")
        if self.max_output_tokens < 1:
            raise ConfigError("max_output_tokens must be at least 1")
        # urlopen would also read file: and data: URLs as if they were answers
        if self.kind == "remote-llm" and not _is_http_url(self.endpoint):
            raise ConfigError(
                f"remote-llm backend requires an http:// or https:// endpoint, got {self.endpoint!r}"
            )


def _is_http_url(endpoint: str | None) -> bool:
    try:
        url = urlsplit(endpoint or "")
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.netloc)


@dataclass(frozen=True)
class PredictionRaw:
    time_answer: str
    cause_answer: str
    backend_id: str


class Backend(Protocol):
    backend_id: str

    def complete(self, prompt: str) -> str: ...


# --- per-type Poisson baseline ------------------------------------------------

@dataclass(frozen=True)
class BaselineModel:
    """Per-cause event rates fitted on one history, plus where it ended."""

    rates: dict[str, float]
    total_rate: float
    t_last: datetime
    observation_span: float  # days

    def __post_init__(self):
        if self.observation_span <= 0:
            raise ValueError("observation span must be positive")
        if any(rate < 0 for rate in self.rates.values()):
            raise ValueError("rates must not be negative")
        checksum = reduce(add, self.rates.values(), 0.0)  # left to right, as fit_baseline adds
        if abs(checksum - self.total_rate) > 1e-12 * max(abs(checksum), 1.0):
            raise ValueError("total_rate does not match the sum of rates")


def fit_baseline(history: Sequence[SeqEvent]) -> BaselineModel:
    """Per-cause maximum-likelihood rates: count over observed span in days."""
    if len(history) < 2:
        raise HistoryTooShort(f"need at least 2 events to fit a span, got {len(history)}")
    span_days = (history[-1].time - history[0].time) / timedelta(days=1)
    span_days = max(span_days, MIN_SPAN_DAYS)
    # a Counter keeps first-seen order, so total_rate adds the rates in the same order
    counts = Counter(map(itemgetter(1), history))  # SeqEvent.kind
    rates = {kind: count / span_days for kind, count in counts.items()}
    return BaselineModel(
        rates=rates,
        # left to right: sum() compensates from Python 3.12, which moves the answers' last digit
        total_rate=reduce(add, rates.values(), 0.0),
        t_last=history[-1].time,
        observation_span=span_days,
    )


def mbr_next_time(model: BaselineModel) -> datetime:
    """Mean of the exponential waiting time: t_last plus 1/Λ days."""
    if model.total_rate <= 0:
        raise DataError("total rate is zero, waiting time undefined")
    return model.t_last + timedelta(days=1.0 / model.total_rate)


def mbr_next_type(model: BaselineModel) -> str:
    """Most probable next cause: argmax of the rates, ties broken by label."""
    if model.total_rate <= 0:
        raise DataError("total rate is zero, type distribution undefined")
    return min(model.rates, key=lambda kind: (-model.rates[kind], kind))


def baseline_answer(history: Sequence[SeqEvent]) -> PredictionRaw:
    """Render the MBR (time, type) through the canonical sentence template.

    Both stages get the full sentence, so extraction treats baseline output
    exactly like model output.
    """
    model = fit_baseline(history)
    sentence = render_answer_sentence(
        render_date(mbr_next_time(model)), mbr_next_type(model)
    )
    return PredictionRaw(time_answer=sentence, cause_answer=sentence, backend_id="baseline")


# --- scripted test double -----------------------------------------------------

class ScriptedBackend:
    """Replays canned completions in order."""

    def __init__(self, completions: Iterable[str]):
        self.backend_id = "scripted"
        self._completions = list(completions)
        self._cursor = 0

    def complete(self, prompt: str) -> str:
        if self._cursor >= len(self._completions):
            raise ScriptExhausted(
                f"script exhausted after {len(self._completions)} completions"
            )
        answer = self._completions[self._cursor]
        self._cursor += 1
        return answer


# --- remote chat-completion backend -------------------------------------------

class RemoteBackend:
    """Chat-style completion client with retry on transient failures.

    Timeouts, connection drops, 5xx responses, and 429s are retried up to
    retry_limit times with exponential backoff, each sleep at most
    MAX_BACKOFF_S; anything that indicates the request itself is wrong
    (other 4xx, malformed body) is raised at once.
    Safe to call from several threads.
    """

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep):
        if config.kind != "remote-llm":
            raise ConfigError(f"RemoteBackend needs a remote-llm config, got {config.kind!r}")
        self.config = config
        self.backend_id = f"remote:{config.model_name or 'default'}"
        self._sleep = sleep
        self._lock = threading.Lock()
        self.total_calls = 0
        self.total_retries = 0

    def complete(self, prompt: str) -> str:
        attempts = self.config.retry_limit + 1
        last_error: Exception | None = None
        delay = min(self.config.backoff_base, MAX_BACKOFF_S)
        for attempt in range(attempts):
            if attempt:
                self._sleep(delay)  # backoff_base * 2 ** (attempt - 1), doubled exactly, capped
                delay = min(2 * delay, MAX_BACKOFF_S)
            try:
                text = self._request_once(prompt)
            except (Timeout, TransportError, RateLimited) as err:
                last_error = err
                continue
            with self._lock:
                self.total_calls += 1
                self.total_retries += attempt
            return text
        with self._lock:
            self.total_calls += 1
            self.total_retries += attempts - 1
        assert last_error is not None
        raise last_error

    def _request_once(self, prompt: str) -> str:
        # imported here, not at module level: they load ssl, email and socket, which only this needs
        import http.client
        import urllib.error
        import urllib.request

        body = {
            "model": self.config.model_name or "default",
            "messages": [
                {"role": "system", "content": SYSTEM_MESSAGE},
                {"role": "user", "content": prompt},
            ],
            "temperature": 0,
            "max_tokens": self.config.max_output_tokens,
        }
        request = urllib.request.Request(
            self.config.endpoint,
            data=json.dumps(body, allow_nan=False).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout) as response:
                raw = response.read()
        except urllib.error.HTTPError as err:
            err.close()
            if err.code == 429:
                raise RateLimited("server answered 429") from None
            if err.code >= 500:
                raise TransportError(f"server answered {err.code}") from None
            raise ProtocolError(f"server rejected the request: {err.code}") from None
        except (OSError, http.client.HTTPException) as err:
            # urlopen wraps a failure to connect or send in URLError, the cause as its reason
            cause = err.reason if isinstance(err, urllib.error.URLError) else err
            if isinstance(cause, TimeoutError):
                raise Timeout(f"no response within {self.config.timeout}s") from err
            raise TransportError(str(err)) from err

        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise ProtocolError(f"malformed response body: {err}") from err
        if not isinstance(content, str):
            raise ProtocolError("completion content is not text")
        if not is_utf8_encodable(content):
            raise ProtocolError("completion holds a lone surrogate")
        return content


def make_backend(config: BackendConfig) -> Backend:
    """Build the completion backend for a config; baseline has no prompt side."""
    if config.kind == "remote-llm":
        return RemoteBackend(config)
    if config.kind == "scripted":
        if not config.script_path:
            raise ConfigError("scripted backend requires script_path")
        try:
            with open(config.script_path, encoding="utf-8") as fh:
                completions = [json.loads(line) for line in fh if line.strip()]
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read backend.script_path: {err}") from None
        for item in completions:
            if not isinstance(item, str) or not is_utf8_encodable(item):
                raise ConfigError("backend.script_path must hold one JSON string of UTF-8 text per line")
        return ScriptedBackend(completions)
    raise ConfigError(f"backend kind {config.kind!r} does not complete prompts")
