"""ROUGE-1 and ROUGE-L with per-category aggregation over validation items.

ROUGE-1 is clipped unigram overlap, ROUGE-L is longest common subsequence,
both reported as precision/recall/F1 with the 0-convention on empty input.
Items score in three categories: the predicted date alone, the predicted
cause alone, and the full answer sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .postprocess import ExtractedPrediction, NormalizationFlags, tokenize
from .prompt import render_answer_sentence

CATEGORIES = ("time", "cause", "full")


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        for value in (self.precision, self.recall, self.f1):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"score component {value} outside [0, 1]")


ZERO_SCORE = RougeScore(0.0, 0.0, 0.0)


# a run scores a few thousand items on a few dozen distinct (overlap, lengths): one
# shared score for each keeps the scores an evaluation holds small
@lru_cache(maxsize=4096)
def _prf(overlap: float, candidate_len: int, reference_len: int) -> RougeScore:
    if candidate_len == 0 or reference_len == 0:
        return ZERO_SCORE
    precision = overlap / candidate_len
    recall = overlap / reference_len
    if precision + recall == 0.0:
        return RougeScore(precision, recall, 0.0)
    return RougeScore(precision, recall, 2 * precision * recall / (precision + recall))


def rouge_1(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Clipped unigram overlap: each token counts at most its reference count."""
    if candidate == reference:  # every token overlaps: no counting needed
        return _prf(len(candidate), len(candidate), len(reference))
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    overlap = sum(min(count, ref_counts[token]) for token, count in cand_counts.items())
    return _prf(overlap, len(candidate), len(reference))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of a longest common subsequence of a and b.

    A token both start with, or both end with, is in some longest common
    subsequence, so the shared prefix and suffix count in full and the
    table is filled for the differing middles only.
    """
    shortest = min(len(a), len(b))
    start = 0
    while start < shortest and a[start] == b[start]:
        start += 1
    end = 0
    while end < shortest - start and a[-1 - end] == b[-1 - end]:
        end += 1
    shared = start + end
    a, b = a[start:len(a) - end], b[start:len(b) - end]
    if not a or not b:
        return shared
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return shared + previous[len(b)]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence overlap with the balanced F-measure."""
    return _prf(lcs_length(candidate, reference), len(candidate), len(reference))


def score_item(
    pred: ExtractedPrediction,
    target_date: str,
    target_cause: str,
    flags: NormalizationFlags,
    stopwords: frozenset[str],
) -> dict[str, tuple[RougeScore, RougeScore]]:
    """Score one prediction in every category as {category: (rouge1, rougeL)}.

    The full answer is scored against the answer sentence rendered from
    the target. Absent fields become empty candidates and score zero; a
    prediction with nothing extracted scores zero across the board, full
    category included, but is still counted.
    """
    def tokens(text: str) -> list[str]:
        return tokenize(text, flags, stopwords)

    if pred.extraction_status == "none":
        full_candidate: list[str] = []
    else:
        full_candidate = tokens(pred.full_text)
    reference_sentence = render_answer_sentence(target_date, target_cause)
    pairs = {
        "time": (tokens(pred.time_text or ""), tokens(target_date)),
        "cause": (tokens(pred.cause_text or ""), tokens(target_cause)),
        "full": (full_candidate, tokens(reference_sentence)),
    }
    return {
        category: (rouge_1(cand, ref), rouge_l(cand, ref))
        for category, (cand, ref) in pairs.items()
    }


def _left_sum(values: Iterable[float]) -> float:
    """The floats added left to right, as sum() adds them before Python 3.12 (which compensates)."""
    return reduce(add, values, 0.0)


def _mean_score(scores: Sequence[RougeScore]) -> RougeScore:
    n = len(scores)
    return RougeScore(
        precision=_left_sum(s.precision for s in scores) / n,
        recall=_left_sum(s.recall for s in scores) / n,
        f1=_left_sum(s.f1 for s in scores) / n,
    )


def aggregate(
    items: Sequence[Mapping[str, tuple[RougeScore, RougeScore]]]
) -> dict[str, tuple[RougeScore, RougeScore]]:
    """Arithmetic mean per category and metric of score_item results, categories in order."""
    if not items:
        raise DataError("no items to aggregate")
    return {
        category: (
            _mean_score([scores[category][0] for scores in items]),
            _mean_score([scores[category][1] for scores in items]),
        )
        for category in CATEGORIES
    }
