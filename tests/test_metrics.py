import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashcast.errors import DataError
from crashcast.metrics import (
    CATEGORIES,
    ZERO_SCORE,
    RougeScore,
    aggregate,
    lcs_length,
    rouge_1,
    rouge_l,
    score_item,
)
from crashcast.postprocess import NormalizationFlags, extract_prediction
from crashcast.prompt import render_answer_sentence
from oracles import clipped_overlap_bruteforce, lcs_bruteforce

token_lists = st.lists(
    st.sampled_from(["a", "b", "c", "crash", "2021-03-04"]), max_size=10
)


class TestRouge1:
    def test_driver_failure_fixture(self):
        candidate = "crash on 2021-03-04 due to driver failure".split()
        reference = "crash expected on 2021-03-04 due to driver power state failure".split()
        score = rouge_1(candidate, reference)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(0.7)
        assert score.f1 == pytest.approx(0.8235, abs=5e-5)

    def test_identical_lists(self):
        tokens = ["x", "y", "z"]
        assert rouge_1(tokens, tokens) == RougeScore(1.0, 1.0, 1.0)

    def test_disjoint_lists(self):
        assert rouge_1(["a"], ["b"]) == ZERO_SCORE

    @pytest.mark.parametrize(
        "candidate,reference",
        [([], ["a"]), (["a"], []), ([], [])],
    )
    def test_empty_side_convention(self, candidate, reference):
        assert rouge_1(candidate, reference) == ZERO_SCORE

    def test_repeats_are_clipped(self):
        score = rouge_1(["a", "a", "a"], ["a"])
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1.0)

    def test_clipping_is_symmetric_in_roles(self):
        score = rouge_1(["a"], ["a", "a", "a"])
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(1 / 3)

    @given(candidate=token_lists, reference=token_lists)
    @settings(max_examples=300)
    def test_matches_bruteforce_overlap(self, candidate, reference):
        score = rouge_1(candidate, reference)
        overlap = clipped_overlap_bruteforce(candidate, reference)
        if not candidate or not reference:
            assert score == ZERO_SCORE
        else:
            assert score.precision == pytest.approx(overlap / len(candidate))
            assert score.recall == pytest.approx(overlap / len(reference))

    @given(candidate=token_lists, reference=token_lists)
    @settings(max_examples=200)
    def test_role_swap_transposes_precision_and_recall(self, candidate, reference):
        forward = rouge_1(candidate, reference)
        backward = rouge_1(reference, candidate)
        assert forward.precision == pytest.approx(backward.recall)
        assert forward.recall == pytest.approx(backward.precision)


class TestLcs:
    def test_transposition_fixture(self):
        assert lcs_length(["a", "b", "c", "d"], ["a", "c", "b", "d"]) == 3
        score = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
        assert score.f1 == pytest.approx(0.75)

    def test_subsequence_fixture(self):
        score = rouge_l(["a", "b", "c"], ["a", "x", "b", "y", "c"])
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(0.6)
        assert score.f1 == pytest.approx(0.75)

    def test_empty_side_convention(self):
        assert rouge_l([], ["a"]) == ZERO_SCORE
        assert rouge_l(["a"], []) == ZERO_SCORE

    @given(candidate=token_lists, reference=token_lists)
    @settings(max_examples=300)
    def test_matches_bruteforce_lcs(self, candidate, reference):
        assert lcs_length(candidate, reference) == lcs_bruteforce(candidate, reference)

    @given(candidate=token_lists, reference=token_lists)
    @settings(max_examples=200)
    def test_lcs_is_symmetric(self, candidate, reference):
        assert lcs_length(candidate, reference) == lcs_length(reference, candidate)

    @given(tokens=token_lists)
    @settings(max_examples=100)
    def test_self_lcs_is_full_length(self, tokens):
        assert lcs_length(tokens, tokens) == len(tokens)


class TestScoreItem:
    flags = NormalizationFlags()
    date_text = "2021-03-04"
    cause = "driver power state failure"

    def score(self, pred, date_text=date_text, cause=cause):
        return score_item(pred, date_text, cause, self.flags, frozenset())

    def test_exact_answer_scores_one_everywhere(self):
        pred = extract_prediction(render_answer_sentence(self.date_text, self.cause))
        scores = self.score(pred)
        assert set(scores) == set(CATEGORIES)
        for rouge1, rougeL in scores.values():
            assert rouge1 == RougeScore(1.0, 1.0, 1.0)
            assert rougeL == RougeScore(1.0, 1.0, 1.0)

    def test_nothing_extracted_scores_zero_everywhere(self):
        pred = extract_prediction("I cannot answer that.")
        assert pred.extraction_status == "none"
        scores = self.score(pred)
        for rouge1, rougeL in scores.values():
            assert rouge1 == ZERO_SCORE
            assert rougeL == ZERO_SCORE

    def test_right_date_wrong_cause(self):
        pred = extract_prediction(
            "The next crash will happen on 2021-03-04 caused by memory corruption."
        )
        scores = self.score(pred, cause="page fault in nonpaged area")
        time_r1, time_rl = scores["time"]
        cause_r1, cause_rl = scores["cause"]
        full_r1, full_rl = scores["full"]
        assert time_r1.f1 == 1.0 and time_rl.f1 == 1.0
        assert cause_r1.f1 == 0.0 and cause_rl.f1 == 0.0
        assert 0.0 < full_r1.f1 < 1.0
        assert 0.0 < full_rl.f1 < 1.0

    def test_missing_time_still_scores_cause(self):
        pred = extract_prediction("It is caused by driver power state failure.")
        scores = self.score(pred)
        assert scores["time"][0] == ZERO_SCORE
        assert scores["cause"][0].f1 == 1.0
        assert scores["full"][0].f1 > 0.0


def scored(f1_value):
    """A score_item result scoring f1_value in every component of every category."""
    score = RougeScore(f1_value, f1_value, f1_value)
    return {category: (score, score) for category in CATEGORIES}


class TestAggregate:
    def test_two_items_average_to_half(self):
        reports = aggregate([scored(0.0), scored(1.0)])
        assert list(reports) == list(CATEGORIES)
        for rouge1, rougeL in reports.values():
            assert rouge1.f1 == pytest.approx(0.5)
            assert rougeL.f1 == pytest.approx(0.5)

    def test_single_item_passes_through(self):
        time_rouge1, _ = aggregate([scored(0.8235)])["time"]
        assert time_rouge1.f1 == pytest.approx(0.8235)

    def test_empty_evaluation_is_refused(self):
        with pytest.raises(DataError):
            aggregate([])

    def test_each_category_maps_to_a_rouge1_rougel_pair(self):
        reports = aggregate([scored(0.5), scored(0.25)])
        for pair in reports.values():
            assert isinstance(pair, tuple) and len(pair) == 2
            assert all(isinstance(score, RougeScore) for score in pair)

    @given(
        f1s=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_mean_is_componentwise_within_tolerance(self, f1s):
        reports = aggregate([scored(v) for v in f1s])
        expected = sum(f1s) / len(f1s)
        for rouge1, _ in reports.values():
            assert abs(rouge1.precision - expected) <= 1e-12
            assert abs(rouge1.recall - expected) <= 1e-12
            assert abs(rouge1.f1 - expected) <= 1e-12


class TestRougeScoreValidation:
    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_out_of_range_components_are_rejected(self, bad):
        with pytest.raises(ValueError):
            RougeScore(bad, 0.5, 0.5)

    def test_f1_is_the_harmonic_mean_of_its_own_parts(self):
        rng = random.Random(7)
        vocab = ["a", "b", "c", "d"]
        for _ in range(100):
            candidate = [rng.choice(vocab) for _ in range(rng.randrange(1, 8))]
            reference = [rng.choice(vocab) for _ in range(rng.randrange(1, 8))]
            for score in (rouge_1(candidate, reference), rouge_l(candidate, reference)):
                p, r = score.precision, score.recall
                expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
                assert score.f1 == pytest.approx(expected)


@given(
    prefix=st.lists(st.sampled_from(["the", "next", "crash", "on"]), max_size=5),
    suffix=st.lists(st.sampled_from(["caused", "by", "crash", "."]), max_size=3),
    candidate=st.lists(st.sampled_from(["a", "b", "on", "crash"]), max_size=4),
    reference=st.lists(st.sampled_from(["a", "b", "by", "crash"]), max_size=4),
)
@settings(max_examples=300)
def test_lcs_with_shared_prefix_and_suffix_matches_bruteforce(prefix, suffix, candidate, reference):
    a, b = prefix + candidate + suffix, prefix + reference + suffix
    assert lcs_length(a, b) == lcs_bruteforce(a, b)
    assert lcs_length(a, b) == len(prefix) + lcs_bruteforce(candidate, reference) + len(suffix)


def test_mean_adds_left_to_right_on_every_python():
    # sum() compensates from Python 3.12 and would give 1.0 / 10
    for rouge1, rougeL in aggregate([scored(0.1)] * 10).values():
        assert rouge1 == rougeL == RougeScore(*[0.9999999999999999 / 10] * 3)
