"""Exception hierarchy for the whole pipeline.

Three branches map one-to-one onto the CLI exit codes: configuration
problems (exit 2), data problems (exit 3), and backend problems (exit 4).
"""

from __future__ import annotations


class CrashcastError(Exception):
    """Base class for every error this package raises deliberately."""


class ConfigError(CrashcastError):
    """Bad configuration, template, or catalog input."""


class DataError(CrashcastError):
    """The run is well configured but the data cannot support it."""


class BackendError(CrashcastError):
    """Failure while obtaining an answer from a prediction backend."""


# ingest

class RecordError(DataError):
    """Per-line parse failure; carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedRecord(RecordError):
    """Line is not a structurally valid record."""


class BadTimestamp(RecordError):
    """Timestamp field does not parse as a full UTC instant."""


class BadCode(RecordError):
    """Bugcheck field violates the 0x + 1-8 hex digits pattern."""


class EmptyCorpus(DataError):
    """No crash events survived corpus construction."""


# sequencer

class IndexOutOfRange(DataError):
    """History index outside 1..len(sequence)."""


# prompt

class TemplateError(ConfigError):
    """Prompt template file is missing sections or named slots."""


class InsufficientShots(DataError):
    """Demonstration pool smaller than the requested shot count."""


# predictor

class HistoryTooShort(DataError):
    """Baseline fit needs at least two events to span an interval."""


class ScriptExhausted(BackendError):
    """Scripted backend ran out of canned completions."""


class Timeout(BackendError):
    """Remote call exceeded the configured timeout after all retries."""


class TransportError(BackendError):
    """Remote endpoint unreachable or failing at the transport level."""


class ProtocolError(BackendError):
    """Remote endpoint answered, but not in the expected shape."""


class RateLimited(BackendError):
    """Remote endpoint kept rejecting with a rate-limit status."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after  # the seconds its Retry-After asked for, if it gave them


# split

class InsufficientData(DataError):
    """Not enough eligible pairs to fill the requested split."""

    def __init__(self, shortfall: int):
        super().__init__(f"short by {shortfall} eligible (history, label) pairs")
        self.shortfall = shortfall
