"""Pull (time, cause) out of answer text and normalize tokens for scoring.

The extractor is the inverse of the answer-sentence template: first ISO
date wins, and the cause is whatever follows the first "caused by" up to
the end of the sentence. Absence is a status, not an error, because a
backend is free to answer prose that carries neither piece.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .ingest import DATA_DIR, normalize_cause

DATE_RE = re.compile(r"\b[0-9]{4}-[0-9]{2}-[0-9]{2}\b")
CAUSE_MARKER_RE = re.compile(r"caused\s+by", re.IGNORECASE)
_SENTENCE_END_RE = re.compile(r"[.!?\n]")

# Dates stay whole; everything else splits on non-alphanumeric runs.
_TOKEN_RE = re.compile(r"\b[0-9]{4}-[0-9]{2}-[0-9]{2}\b|[0-9A-Za-z]+")


@dataclass(frozen=True)
class ExtractedPrediction:
    time_text: str | None
    cause_text: str | None
    full_text: str

    @property
    def extraction_status(self) -> str:
        """Which of the time and the cause were found: both, time-only, cause-only or none."""
        if self.time_text and self.cause_text:
            return "both"
        if self.time_text:
            return "time-only"
        if self.cause_text:
            return "cause-only"
        return "none"


def extract_prediction(answer: str) -> ExtractedPrediction:
    """First ISO date and first "caused by" phrase, surrounding prose ignored."""
    date_match = DATE_RE.search(answer)
    time_text = date_match.group(0) if date_match else None

    cause_text = None
    marker = CAUSE_MARKER_RE.search(answer)
    if marker:
        tail = answer[marker.end():]
        end = _SENTENCE_END_RE.search(tail)
        phrase = tail[: end.start()] if end else tail
        normalized = normalize_cause(phrase)
        if normalized:
            cause_text = normalized

    return ExtractedPrediction(
        time_text=time_text,
        cause_text=cause_text,
        full_text=answer,
    )


def merge_extractions(
    time_stage: ExtractedPrediction, cause_stage: ExtractedPrediction
) -> ExtractedPrediction:
    """Combine the two question stages into one prediction.

    The time comes from the first stage (second as fallback), the cause
    from the second (first as fallback). The full text stays the raw
    first-stage answer: that is the sentence the template asked for.
    """
    return ExtractedPrediction(
        time_text=time_stage.time_text or cause_stage.time_text,
        cause_text=cause_stage.cause_text or time_stage.cause_text,
        full_text=time_stage.full_text,
    )


@dataclass(frozen=True)
class NormalizationFlags:
    """Tokenizer switches; the stopword list itself loads at evaluate time."""

    lowercase: bool = True
    strip_punctuation: bool = True
    remove_stopwords: bool = False


def tokenize(text: str, flags: NormalizationFlags, stopwords: frozenset[str]) -> list[str]:
    """Split into tokens, keeping date-shaped tokens whole.

    Steps apply in flag order: lowercase, punctuation split, stopword
    removal. Stopword removal never touches date tokens.
    """
    if flags.lowercase:
        text = text.lower()
    if flags.strip_punctuation:
        tokens = _TOKEN_RE.findall(text)
    else:
        tokens = text.split()
    if flags.remove_stopwords:
        tokens = [t for t in tokens if t not in stopwords or DATE_RE.fullmatch(t)]
    return tokens


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One token per line, '#' comments allowed."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(word)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    return load_stopwords(DATA_DIR / "stopwords.txt")
