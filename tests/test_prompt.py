import random
from datetime import date

import pytest

from conftest import sequence_of
from crashcast.errors import DataError, InsufficientShots, TemplateError
from crashcast.ingest import default_catalog, instant_of
from crashcast.postprocess import extract_prediction
from crashcast.prompt import (
    CAUSE_QUESTION,
    TIME_QUESTION,
    build_bundle,
    default_template,
    parse_template,
    render_answer_sentence,
    render_cause_prompt,
    render_history,
    shots_from_pairs,
)
from crashcast.sequencer import enumerate_pairs


def pool_sequences(n_systems=3, length=6):
    return [
        sequence_of(f"sys-{i}", [(d, f"cause {d % 3}") for d in range(length)])
        for i in range(n_systems)
    ]


@pytest.fixture
def template():
    return default_template()


@pytest.fixture
def bundle(template):
    sequences = pool_sequences()
    shots = shots_from_pairs(enumerate_pairs(sequences[:2]), k=3, seed=11)
    query = sequence_of("A1", [(0, "driver power state failure"), (2, "page fault")])
    return build_bundle(template, "A1", query, shots)


class TestShots:
    def test_pool_of_twelve_gives_ten_deterministic_shots(self):
        sequences = pool_sequences(n_systems=2, length=7)
        pairs = enumerate_pairs(sequences)
        assert len(pairs) == 12
        first = shots_from_pairs(pairs, 10, seed=5)
        second = shots_from_pairs(pairs, 10, seed=5)
        assert len(first) == 10
        assert first == second
        assert shots_from_pairs(pairs, 10, seed=6) != first

    def test_pool_smaller_than_k(self):
        pairs = enumerate_pairs(pool_sequences(n_systems=1, length=6))
        assert len(pairs) == 5
        with pytest.raises(InsufficientShots):
            shots_from_pairs(pairs, 10, seed=5)

    def test_zero_shot_mode(self):
        assert shots_from_pairs([], 0, seed=5) == []

    def test_shot_target_is_the_true_next_event(self):
        pairs = enumerate_pairs(pool_sequences(n_systems=1, length=4))
        (shot,) = shots_from_pairs(pairs, 1, seed=3)
        match = [p for p in pairs if p.sequence.kinds[p.index - 1] == shot.target_cause]
        assert match
        target = instant_of(match[0].sequence.times[match[0].index - 1])
        assert shot.target_time == target.date().isoformat()

    def test_shot_history_is_nonempty(self):
        pairs = enumerate_pairs(pool_sequences(n_systems=1, length=5))
        for shot in shots_from_pairs(pairs, 4, seed=1):
            assert shot.history_rendering.startswith("- ")


class TestRenderHistory:
    def test_one_line_per_event(self):
        events = sequence_of("A", [(0, "a"), (1, "b")])
        text = render_history(events)
        assert text.splitlines() == ["- 2021-03-01: a", "- 2021-03-02: b"]

    def test_cap_keeps_the_most_recent(self):
        events = sequence_of("A", [(d, f"k{d}") for d in range(12)])
        lines = render_history(events, cap=10).splitlines()
        assert len(lines) == 10
        assert lines[0] == "- 2021-03-03: k2"
        assert lines[-1] == "- 2021-03-12: k11"

    def test_uncapped_renders_everything(self):
        events = sequence_of("A", [(d, "x") for d in range(12)])
        assert len(render_history(events).splitlines()) == 12


class TestTimePrompt:
    def test_ends_with_the_verbatim_question(self, template):
        query = sequence_of("A1", [(0, "driver power state failure")])
        bundle = build_bundle(template, "A1", query, shots=[])
        assert bundle.rendered_time_prompt.endswith(
            "When will the next crash happen on system A1?"
        )

    def test_contains_one_block_per_shot(self, bundle):
        assert bundle.rendered_time_prompt.count("### Example") == 3
        assert bundle.rendered_time_prompt.count("### Task") == 1

    def test_shot_answers_use_the_canonical_sentence(self, bundle):
        for shot in bundle.shots:
            assert (
                render_answer_sentence(shot.target_time, shot.target_cause)
                in bundle.rendered_time_prompt
            )

    def test_rendering_twice_is_byte_identical(self, template, bundle):
        again = build_bundle(
            template, "A1", bundle.query_history, list(bundle.shots)
        )
        assert again.rendered_time_prompt == bundle.rendered_time_prompt

    def test_query_history_cap_applies(self, template):
        query = sequence_of("A1", [(d, f"k{d}") for d in range(12)])
        bundle = build_bundle(template, "A1", query, shots=[], history_cap=10)
        assert "k1\n" not in bundle.rendered_time_prompt
        assert "- 2021-03-03: k2" in bundle.rendered_time_prompt


class TestCausePrompt:
    def test_appends_answer_then_cause_question(self, bundle):
        answer = "The next crash will happen on 2021-03-08."
        prompt = render_cause_prompt(answer, bundle)
        assert prompt.startswith(bundle.rendered_time_prompt)
        assert answer in prompt
        assert prompt.endswith(CAUSE_QUESTION)
        assert prompt.index(answer) > prompt.index("### Task")

    def test_empty_answer_is_refused(self, bundle):
        with pytest.raises(DataError):
            render_cause_prompt("   ", bundle)

    def test_prompts_differ_only_in_the_answer(self, bundle):
        first = render_cause_prompt("The next crash will happen on 2021-03-08.", bundle)
        second = render_cause_prompt("The next crash will happen on 2021-03-09.", bundle)
        diffs = [
            (a, b) for a, b in zip(first.splitlines(), second.splitlines()) if a != b
        ]
        assert len(diffs) == 1

    def test_braces_in_the_answer_survive(self, bundle):
        prompt = render_cause_prompt("odd {answer} text", bundle)
        assert "odd {answer} text" in prompt

    def test_answer_fills_only_its_own_slot(self, template):
        slot = "{time_answer}"  # a system id and a cause label found in the logs
        shots = shots_from_pairs(
            enumerate_pairs([sequence_of(slot, [(d, slot) for d in range(4)])]), k=3, seed=11
        )
        query = sequence_of(slot, [(0, slot), (2, "page fault")])
        bundle = build_bundle(template, slot, query, shots)
        answer = "The next crash will happen on 2021-03-08."
        prompt = render_cause_prompt(answer, bundle)
        assert prompt.count(answer) == 1
        assert prompt.startswith(bundle.rendered_time_prompt)
        assert slot in bundle.rendered_time_prompt


class TestQuestionStrings:
    def test_verbatim_forms(self):
        assert TIME_QUESTION.format(system_id="X") == (
            "When will the next crash happen on system X?"
        )
        assert CAUSE_QUESTION == "What will be the predicted crash cause?"

    def test_bundle_carries_both(self, bundle):
        assert bundle.time_question == "When will the next crash happen on system A1?"
        assert bundle.cause_question == CAUSE_QUESTION
        assert bundle.time_question in bundle.rendered_time_prompt


class TestTemplateInversion:
    def test_every_catalog_cause_round_trips(self):
        rng = random.Random(2021)
        causes = sorted(default_catalog().values())
        for cause in causes:
            for _ in range(50):
                day = date(2021, 1, 1).toordinal() + rng.randrange(0, 3650)
                date_text = date.fromordinal(day).isoformat()
                extracted = extract_prediction(render_answer_sentence(date_text, cause))
                assert extracted.extraction_status == "both"
                assert extracted.time_text == date_text
                assert extracted.cause_text == cause


class TestTemplateLoading:
    def test_missing_section_is_a_template_error(self):
        with pytest.raises(TemplateError, match="sections"):
            parse_template("[header]\nhi\n[example]\n{answer}\n[query]\n{history}\n")

    def test_missing_slot_is_a_template_error(self):
        text = (
            "[header]\nh\n[example]\n{system_id}{history}{time_question}{answer}\n"
            "[query]\n{system_id}{history}{time_question}\n[cause]\n{answer}\n"
        )
        with pytest.raises(TemplateError, match="cause_question"):
            parse_template(text)

    def test_unknown_slot_is_a_template_error(self):
        text = (
            "[header]\nh\n[example]\n{system_id}{history}{time_question}"
            "{cause_question}{answer}\n[query]\n{bogus}\n[cause]\n{answer}\n"
        )
        with pytest.raises(TemplateError):
            parse_template(text)

    def test_shipped_template_loads(self, template):
        assert "### Example" in template.example
