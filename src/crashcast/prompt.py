"""Render k-shot prompts for the two-question flow: next crash time, then cause.

Rendering is a pure function of its inputs: no clock, no ambient randomness.
The only randomness is the seeded shot sampler. The answer-sentence template
is the pivot of the whole harness: predictions are rendered through it and
the postprocess extractor inverts it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DataError, InsufficientShots, TemplateError
from .ingest import DATA_DIR, DAY, date_text
from .sequencer import EventSequence, LabeledPair

TIME_QUESTION = "When will the next crash happen on system {system_id}?"
CAUSE_QUESTION = "What will be the predicted crash cause?"
ANSWER_SENTENCE = "The next crash will happen on {date} caused by {cause}."

_SECTION_RE = re.compile(r"^\[(header|example|query|cause)\]\s*$")
_REQUIRED_SLOTS = ("{system_id}", "{history}", "{time_question}", "{cause_question}", "{answer}")


def render_answer_sentence(date_text: str, cause_text: str) -> str:
    return ANSWER_SENTENCE.format(date=date_text, cause=cause_text)


def render_date(seconds: int) -> str:
    """Dates go into prompts at day granularity, ISO calendar form: UTC epoch seconds' day."""
    return date_text(seconds // DAY)


def render_history(history: EventSequence, cap: int | None = None) -> str:
    """One line per event, most recent `cap` events when capped."""
    if cap is not None and cap >= 0:
        history = history[-cap:] if cap else history[:0]
    return "\n".join(f"- {render_date(t)}: {k}" for t, k in zip(history.times, history.kinds))


@dataclass(frozen=True)
class Shot:
    """One worked demonstration: a history and its true next event."""

    system_id: str
    history_rendering: str
    target_time: str
    target_cause: str

    @property
    def answer_sentence(self) -> str:
        return render_answer_sentence(self.target_time, self.target_cause)


@dataclass(frozen=True)
class PromptTemplate:
    """Sectioned template file: header, example block, query block, cause follow-up."""

    header: str
    example: str
    query: str
    cause: str

    def __post_init__(self):
        text = "\n".join([self.header, self.example, self.query, self.cause])
        for slot in _REQUIRED_SLOTS:
            if slot not in text:
                raise TemplateError(f"template is missing the {slot} slot")
        dummy = dict(
            system_id="s", history="h", time_question="t", cause_question="c", answer="a"
        )
        for name in ("example", "query", "cause"):
            try:
                getattr(self, name).format(**dummy)
            except (KeyError, IndexError, ValueError) as exc:
                raise TemplateError(f"bad slot in [{name}] section: {exc}") from None


def parse_template(text: str) -> PromptTemplate:
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        match = _SECTION_RE.match(line)
        if match:
            current = sections.setdefault(match.group(1), [])
            continue
        if current is not None:
            current.append(line)
    missing = {"header", "example", "query", "cause"} - sections.keys()
    if missing:
        raise TemplateError(f"template is missing sections: {sorted(missing)}")
    return PromptTemplate(
        header="\n".join(sections["header"]).strip("\n"),
        example="\n".join(sections["example"]).strip("\n"),
        query="\n".join(sections["query"]).strip("\n"),
        cause="\n".join(sections["cause"]).strip("\n"),
    )


def load_template(path: str | Path) -> PromptTemplate:
    return parse_template(Path(path).read_text(encoding="utf-8"))


def default_template() -> PromptTemplate:
    return load_template(DATA_DIR / "prompt_template.txt")


def shot_from_pair(pair: LabeledPair, history_cap: int | None = None) -> Shot:
    target = pair.index - 1
    return Shot(
        system_id=pair.system_id,
        history_rendering=render_history(pair.history, history_cap),
        target_time=render_date(pair.sequence.times[target]),
        target_cause=pair.sequence.kinds[target],
    )


def shots_from_pairs(
    pairs: Sequence[LabeledPair], k: int, seed: int, history_cap: int | None = None
) -> list[Shot]:
    """Sample k demonstrations without replacement, in sample order; each pair needs index > 1."""
    if k == 0:
        return []
    if len(pairs) < k:
        raise InsufficientShots(f"need {k} eligible pairs, pool has {len(pairs)}")
    sampled = random.Random(seed).sample(pairs, k)
    return [shot_from_pair(p, history_cap) for p in sampled]


@dataclass(frozen=True)
class PromptBundle:
    """Everything rendered for one system under test."""

    system_id: str
    shots: tuple[Shot, ...]
    query_history: EventSequence
    time_question: str
    cause_question: str
    rendered_time_prompt: str
    history_rendering: str
    cause_template: str  # the template's [cause] section, its slots unfilled


def build_bundle(
    template: PromptTemplate,
    system_id: str,
    query_history: EventSequence,
    shots: Sequence[Shot],
    history_cap: int | None = None,
) -> PromptBundle:
    """Render the time prompt for one query and keep what its cause prompt needs."""
    if shots and not query_history:
        raise ValueError("query history must be non-empty unless zero-shot")
    history = render_history(query_history, history_cap)

    blocks = [template.header]
    for shot in shots:
        blocks.append(
            template.example.format(
                system_id=shot.system_id,
                history=shot.history_rendering,
                time_question=TIME_QUESTION.format(system_id=shot.system_id),
                cause_question=CAUSE_QUESTION,
                answer=shot.answer_sentence,
            )
        )
    time_question = TIME_QUESTION.format(system_id=system_id)
    blocks.append(
        template.query.format(
            system_id=system_id,
            history=history,
            time_question=time_question,
            cause_question=CAUSE_QUESTION,
            answer="",
        )
    )
    return PromptBundle(
        system_id=system_id,
        shots=tuple(shots),
        query_history=query_history,
        time_question=time_question,
        cause_question=CAUSE_QUESTION,
        rendered_time_prompt="\n\n".join(blocks),
        history_rendering=history,
        cause_template=template.cause,
    )


def render_cause_prompt(time_answer: str, bundle: PromptBundle) -> str:
    """Time prompt, then the model's own time answer, then the cause question.

    The answer fills only the [cause] section's answer slot: format inserts
    every value verbatim, so no text from the logs or the answer is a slot.
    """
    if not time_answer.strip():
        raise DataError("cause prompt requires a non-empty time answer")
    cause_block = bundle.cause_template.format(
        system_id=bundle.system_id,
        history=bundle.history_rendering,
        time_question=bundle.time_question,
        cause_question=bundle.cause_question,
        answer=time_answer,
    )
    return bundle.rendered_time_prompt + "\n" + cause_block
