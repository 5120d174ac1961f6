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
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import reduce
from operator import add
from typing import Callable, Iterable, Protocol
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
from .ingest import DAY, instant_of, is_utf8_encodable, seconds_of
from .prompt import render_answer_sentence, render_date
from .sequencer import EventSequence

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
        if self.kind == "scripted" and not self.script_path:
            raise ConfigError("scripted backend requires script_path")
        if self.kind == "remote-llm":
            # split once here, not at the first request: RemoteBackend dials what this checked
            object.__setattr__(self, "address", _address_of(self.endpoint))


def _address_of(endpoint: str | None) -> tuple[str, str, int, str, str]:
    """The scheme, host, port, Host header and request target of an endpoint the client can dial.

    Host and port are split as http.client splits them: the host keeps its case and loses an
    IPv6 literal's brackets, and the port defaults to the scheme's. Anything else is a
    ConfigError naming backend.endpoint: another scheme, no host, credentials (which the client
    never sends), a port that is not a number from 0 to 65535, a space, a control character or
    a character that is not ASCII.
    """
    try:
        url = urlsplit(endpoint or "")
        port = url.port  # a ValueError for a port that is not a number from 0 to 65535
    except ValueError as err:
        raise ConfigError(f"backend.endpoint {endpoint!r} cannot be dialled: {err}") from None
    # the client speaks HTTP and HTTPS alone
    if url.scheme not in ("http", "https") or not url.netloc:
        raise ConfigError(
            f"remote-llm backend requires an http:// or https:// endpoint, got {endpoint!r}"
        )
    if "@" in url.netloc or not url.hostname:
        raise ConfigError(f"backend.endpoint {endpoint!r} must name a host, and no credentials")
    if " " in endpoint or not (endpoint.isascii() and endpoint.isprintable()):
        raise ConfigError(f"backend.endpoint {endpoint!r} must be printable ASCII without spaces")
    colon, bracket = url.netloc.rfind(":"), url.netloc.rfind("]")
    host = url.netloc[:colon] if colon > bracket else url.netloc
    host = host.removeprefix("[").removesuffix("]")
    default_port = 443 if url.scheme == "https" else 80
    port = default_port if port is None else port
    host_header = f"[{host}]" if ":" in host else host
    host_header += f":{port}" if port != default_port else ""
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    return url.scheme, host, port, host_header, target


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


def fit_baseline(history: EventSequence) -> BaselineModel:
    """Per-cause maximum-likelihood rates: count over observed span in days."""
    if len(history) < 2:
        raise HistoryTooShort(f"need at least 2 events to fit a span, got {len(history)}")
    # whole seconds over a day's: the float that timedelta / timedelta(days=1) gives
    span_days = max((history.times[-1] - history.times[0]) / DAY, MIN_SPAN_DAYS)
    # a Counter keeps first-seen order, so total_rate adds the rates in the same order
    counts = Counter(history.kinds)
    rates = {kind: count / span_days for kind, count in counts.items()}
    return BaselineModel(
        rates=rates,
        # left to right: sum() compensates from Python 3.12, which moves the answers' last digit
        total_rate=reduce(add, rates.values(), 0.0),
        t_last=instant_of(history.times[-1]),
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


def baseline_answer(history: EventSequence) -> PredictionRaw:
    """Render the MBR (time, type) through the canonical sentence template.

    Both stages get the full sentence, so extraction treats baseline output
    exactly like model output.
    """
    model = fit_baseline(history)
    sentence = render_answer_sentence(
        render_date(seconds_of(mbr_next_time(model))), mbr_next_type(model)
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

# each thread's kept-alive connection, a (socket, buffered reader) pair, and the (scheme, host,
# port, timeout) it was made for. It lives here, not on the backend, because what make_backend
# returns may be wrapped so that only complete() reaches it: a thread closes its connection
# through close_connections()
_kept = threading.local()

# http.client's limits on an answer's head: the longest line, and the most lines of header
# fields (the blank line that ends them counted), so that a server cannot grow the client
_MAX_LINE = 65536
_MAX_HEADERS = 100
# HTTP/1.x, then a status from 100 to 999 and the reason, as http.client reads them
_STATUS_LINE = re.compile(rb"HTTP/1\.(\S*)\s+([1-9]\d\d)(?:\s.*)?", re.DOTALL)


def close_connections() -> None:
    """Close the calling thread's kept-alive connection, if it has one.

    RemoteBackend keeps one connection per thread across calls; a thread
    that called complete() calls this before it ends, as predict_stage's
    workers do.
    """
    connection = getattr(_kept, "connection", None)
    _kept.connection = _kept.origin = None
    if connection is not None:
        sock, reader = connection
        reader.close()
        sock.close()


def _retry_after(value: str | None) -> float | None:
    """A Retry-After header in delta-seconds, capped at MAX_BACKOFF_S; None for anything else.

    An HTTP-date is read as None too (RFC 9110 §10.2.3 allows either form).
    """
    text = (value or "").strip()
    if not (text.isascii() and text.isdigit()):
        return None
    return min(float(text), MAX_BACKOFF_S)


def _fields(reader) -> dict[bytes, bytes]:
    """Header or trailer fields up to the blank line: lowercased names, the first value of each."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS):
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise TransportError(f"a header line is longer than {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.setdefault(name.lower(), value.strip())
    raise TransportError(f"more than {_MAX_HEADERS - 1} header fields")


def _exactly(reader, size: int) -> bytes:
    """The answer's next size bytes, a MiB a read: memory grows with what came, not the claim."""
    parts = []
    while size > 0:
        parts.append(reader.read(min(size, 1 << 20)))
        if not parts[-1]:
            raise TransportError("the connection closed inside the answer's body")
        size -= len(parts[-1])
    return b"".join(parts)


def _chunks(reader) -> bytes:
    """A chunked body (RFC 9112 §7.1): the size lines' extensions and the trailer are skipped."""
    chunks = []
    while True:
        line = reader.readline(_MAX_LINE + 1)
        size = int(line.partition(b";")[0], 16) if len(line) <= _MAX_LINE else -1
        if size < 0:
            raise TransportError("a chunk size line is malformed")
        if size == 0:
            _fields(reader)
            return b"".join(chunks)
        chunks.append(_exactly(reader, size))
        if reader.read(2) != b"\r\n":
            raise TransportError("a chunk does not end where its size line said")


def _answer(reader, line: bytes) -> tuple[int, str | None, bytes, bool]:
    """The rest of an answer whose first status line is read: its status, Retry-After, body,
    and whether the connection may carry the next request.

    Interim 1xx answers are skipped. The body is sized by RFC 9112 §6.3: none for a
    204 or 304, else chunked, else Content-Length, else all the server sends before it closes.
    """
    while True:
        status_line = _STATUS_LINE.fullmatch(line)
        if status_line is None or len(line) > _MAX_LINE:
            raise TransportError(f"malformed status line {line[:80]!r}")
        minor, status = status_line.groups()
        fields = _fields(reader)
        if not status.startswith(b"1"):
            break
        line = reader.readline(_MAX_LINE + 1)
    connection = fields.get(b"connection", b"").lower()
    keep = b"keep-alive" in connection if minor == b"0" else b"close" not in connection
    length = fields.get(b"content-length")
    if status in (b"204", b"304"):
        body = b""
    elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _chunks(reader)
    elif length is not None:
        if not length.isdigit():
            raise TransportError(f"malformed Content-Length {length!r}")
        body = _exactly(reader, int(length))
    else:
        body, keep = reader.read(), False
    retry_after = fields.get(b"retry-after")
    return int(status), None if retry_after is None else retry_after.decode("latin-1"), body, keep


class RemoteBackend:
    """Chat-style completion client with retry on transient failures.

    Timeouts, connection drops, 5xx responses, and 429s are retried up to
    retry_limit times with exponential backoff, each sleep at most
    MAX_BACKOFF_S; a 429's Retry-After in seconds replaces that retry's
    sleep. Anything that indicates the request itself is wrong (other
    non-2xx, malformed body) is raised at once.
    Safe to call from several threads: each keeps its own HTTP/1.1
    connection alive across calls (see close_connections).
    """

    def __init__(self, config: BackendConfig, sleep: Callable[[float], None] = time.sleep):
        if config.kind != "remote-llm":
            raise ConfigError(f"RemoteBackend needs a remote-llm config, got {config.kind!r}")
        self.config = config
        self.backend_id = f"remote:{config.model_name or 'default'}"
        self._sleep = sleep
        self._lock = threading.Lock()
        scheme, host, port, host_header, target = config.address
        self._origin = (scheme, host, port, config.timeout)
        # the request's head up to its Content-Length, the header fields http.client sends
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {host_header}\r\nAccept-Encoding: identity\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self.total_calls = 0
        self.total_retries = 0

    def complete(self, prompt: str) -> str:
        """The completion of prompt; every call is counted, however it ends, with its retries."""
        retries, delay = 0, min(self.config.backoff_base, MAX_BACKOFF_S)
        try:
            while True:
                try:
                    return self._request_once(prompt)
                except (Timeout, TransportError, RateLimited) as err:
                    if retries == self.config.retry_limit:
                        raise
                    asked = getattr(err, "retry_after", None)  # a 429's Retry-After, capped
                self._sleep(delay if asked is None else asked)  # else backoff_base * 2 ** retries
                delay = min(2 * delay, MAX_BACKOFF_S)  # doubled exactly, capped
                retries += 1
        finally:
            with self._lock:
                self.total_calls += 1
                self.total_retries += retries

    def _request_once(self, prompt: str) -> str:
        body = {
            "model": self.config.model_name or "default",
            "messages": [
                {"role": "system", "content": SYSTEM_MESSAGE},
                {"role": "user", "content": prompt},
            ],
            "temperature": 0,
            "max_tokens": self.config.max_output_tokens,
        }
        status, retry_after, raw = self._exchange(json.dumps(body, allow_nan=False).encode("utf-8"))
        if status == 429:
            raise RateLimited("server answered 429", _retry_after(retry_after))
        if status >= 500:
            close_connections()
            raise TransportError(f"server answered {status}")
        if not 200 <= status < 300:
            raise ProtocolError(f"server rejected the request: {status}")
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise ProtocolError(f"malformed response body: {err}") from err
        if not isinstance(content, str):
            raise ProtocolError("completion content is not text")
        if not is_utf8_encodable(content):
            raise ProtocolError("completion holds a lone surrogate")
        return content

    def _exchange(self, payload: bytes, resend: bool = True) -> tuple[int, str | None, bytes]:
        """POST payload on this thread's connection: the status, Retry-After and body.

        A kept-alive connection that the server closed while it sat idle fails
        at the send or gives no status line; the request then goes once more,
        on a new connection, which is not a retry. Any failure closes the
        connection, and so does an answer after which the server closes it.
        """
        import socket  # here, not at module level: only a remote call needs it

        reused = answered = False
        try:
            reused = getattr(_kept, "origin", None) == self._origin
            sock, reader = _kept.connection if reused else self._connect()
            sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(payload), payload))
            if hasattr(socket, "TCP_QUICKACK"):
                # sending left delayed-ACK mode on: ACK the answer's first segment at once, or a
                # server that writes its headers and body apart holds the body back (Nagle), ~40 ms
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            line = reader.readline(_MAX_LINE + 1)
            if not line:
                raise ConnectionResetError("the server closed the connection without an answer")
            answered = True
            status, retry_after, body, keep = _answer(reader, line)
            if not keep:
                close_connections()
            return status, retry_after, body
        except BaseException as err:
            close_connections()
            if resend and reused and not answered and isinstance(err, ConnectionError):
                return self._exchange(payload, resend=False)
            if isinstance(err, TimeoutError):
                raise Timeout(f"no response within {self.config.timeout}s") from err
            if isinstance(err, (OSError, ValueError)):  # ValueError: a chunk size not in hex
                raise TransportError(str(err)) from err
            raise

    def _connect(self):
        """A new connection to the endpoint, kept as this thread's: a socket and a reader of it."""
        import socket

        close_connections()
        scheme, host, port, timeout = self._origin
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":  # verified against the system's CA certificates, as http.client
                import ssl

                context = ssl.create_default_context()
                context.set_alpn_protocols(["http/1.1"])
                sock = context.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        _kept.connection, _kept.origin = (sock, sock.makefile("rb")), self._origin
        return _kept.connection


def make_backend(config: BackendConfig) -> Backend:
    """Build the completion backend for a config; baseline has no prompt side."""
    if config.kind == "remote-llm":
        return RemoteBackend(config)
    if config.kind == "scripted":
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
