from hypothesis import given, settings
from hypothesis import strategies as st

from crashcast.postprocess import (
    NormalizationFlags,
    default_stopwords,
    extract_prediction,
    load_stopwords,
    merge_extractions,
    tokenize,
)

# 2021-03-04 in Arabic-Indic digits, which str.isdigit() and a regex \d accept
ARABIC_INDIC_DATE = "\u0662\u0660\u0662\u0661-\u0660\u0663-\u0660\u0664"


class TestExtraction:
    def test_canonical_sentence(self):
        out = extract_prediction(
            "The next crash will happen on 2021-05-02 caused by driver power state failure."
        )
        assert out.time_text == "2021-05-02"
        assert out.cause_text == "driver power state failure"
        assert out.extraction_status == "both"

    def test_refusal_has_nothing(self):
        out = extract_prediction("I cannot determine the next crash.")
        assert out.time_text is None
        assert out.cause_text is None
        assert out.extraction_status == "none"

    def test_date_without_marker(self):
        out = extract_prediction("Likely around 2021-05-02.")
        assert out.time_text == "2021-05-02"
        assert out.cause_text is None
        assert out.extraction_status == "time-only"

    def test_marker_without_date(self):
        out = extract_prediction("It will be caused by a bad driver.")
        assert out.time_text is None
        assert out.cause_text == "a bad driver"
        assert out.extraction_status == "cause-only"

    def test_first_date_wins(self):
        out = extract_prediction("Either 2021-05-02 or 2021-06-01.")
        assert out.time_text == "2021-05-02"

    def test_only_ascii_digits_make_a_date(self):
        out = extract_prediction(f"Either on {ARABIC_INDIC_DATE} or 2021-03-05 caused by disk failure.")
        assert out.time_text == "2021-03-05"

    def test_first_marker_wins(self):
        out = extract_prediction("caused by alpha. Later caused by beta.")
        assert out.cause_text == "alpha"

    def test_cause_stops_at_sentence_end(self):
        out = extract_prediction("caused by disk failure! More prose follows.")
        assert out.cause_text == "disk failure"

    def test_cause_stops_at_newline(self):
        out = extract_prediction("caused by disk failure\nextra line")
        assert out.cause_text == "disk failure"

    def test_cause_is_normalized(self):
        out = extract_prediction("caused by   DRIVER_POWER_STATE   Failure.")
        assert out.cause_text == "driver power state failure"

    def test_marker_case_and_spacing_are_tolerated(self):
        out = extract_prediction("Caused  BY memory corruption.")
        assert out.cause_text == "memory corruption"

    def test_empty_cause_after_marker_counts_as_absent(self):
        out = extract_prediction("This was caused by .")
        assert out.cause_text is None
        assert out.extraction_status == "none"

    def test_surrounding_prose_is_tolerated(self):
        out = extract_prediction(
            "Well, judging by the pattern, the next crash will happen on "
            "2022-11-30 caused by page fault in nonpaged area. Stay safe."
        )
        assert out.time_text == "2022-11-30"
        assert out.cause_text == "page fault in nonpaged area"

    def test_full_text_keeps_the_raw_answer(self):
        raw = "  odd SPACING 2021-01-01 caused by x.  "
        assert extract_prediction(raw).full_text == raw

    def test_empty_answer(self):
        assert extract_prediction("").extraction_status == "none"


class TestMerge:
    def time_only(self, date_text="2021-03-04"):
        return extract_prediction(f"The next crash will happen on {date_text}.")

    def cause_only(self, cause="disk failure"):
        return extract_prediction(f"It is caused by {cause}.")

    def test_each_stage_contributes_its_field(self):
        merged = merge_extractions(self.time_only(), self.cause_only())
        assert merged.time_text == "2021-03-04"
        assert merged.cause_text == "disk failure"
        assert merged.extraction_status == "both"

    def test_stage_one_time_wins(self):
        stage2 = extract_prediction("On 2021-09-09 caused by beta.")
        merged = merge_extractions(self.time_only("2021-03-04"), stage2)
        assert merged.time_text == "2021-03-04"
        assert merged.cause_text == "beta"

    def test_stage_two_cause_wins(self):
        stage1 = extract_prediction("On 2021-03-04 caused by alpha.")
        stage2 = self.cause_only("beta")
        assert merge_extractions(stage1, stage2).cause_text == "beta"

    def test_fallbacks_fill_gaps(self):
        stage1 = extract_prediction("On 2021-03-04 caused by alpha.")
        stage2 = extract_prediction("no structure here")
        merged = merge_extractions(stage1, stage2)
        assert merged.time_text == "2021-03-04"
        assert merged.cause_text == "alpha"

    def test_time_falls_back_to_stage_two(self):
        stage1 = self.cause_only("alpha")
        stage2 = extract_prediction("Expect it on 2021-12-25.")
        merged = merge_extractions(stage1, stage2)
        assert merged.time_text == "2021-12-25"
        assert merged.cause_text == "alpha"

    def test_full_text_is_the_first_stage_answer(self):
        stage1 = self.time_only()
        stage2 = self.cause_only()
        assert merge_extractions(stage1, stage2).full_text == stage1.full_text

    def test_nothing_anywhere_is_status_none(self):
        merged = merge_extractions(
            extract_prediction("shrug"), extract_prediction("dunno")
        )
        assert merged.extraction_status == "none"


class TestTokenize:
    plain = NormalizationFlags()
    filtering = NormalizationFlags(remove_stopwords=True)

    def test_lowercase_and_punctuation(self):
        assert tokenize("Crash at NOON!", self.plain, frozenset()) == ["crash", "at", "noon"]

    def test_date_kept_whole(self):
        tokens = tokenize("crash on 2021-03-04", self.plain, frozenset())
        assert tokens == ["crash", "on", "2021-03-04"]

    def test_only_ascii_digits_make_a_date_token(self):
        tokens = tokenize(f"crash on {ARABIC_INDIC_DATE}", self.plain, frozenset())
        assert tokens == ["crash", "on"]

    def test_stopword_removal(self):
        tokens = tokenize("the crash at the dock", self.filtering, frozenset({"the", "at"}))
        assert tokens == ["crash", "dock"]

    def test_empty_input(self):
        assert tokenize("", self.plain, frozenset()) == []

    def test_whitespace_mode_keeps_punctuation(self):
        flags = NormalizationFlags(strip_punctuation=False)
        assert tokenize("Crash at NOON!", flags, frozenset()) == ["crash", "at", "noon!"]

    def test_no_lowercase_mode(self):
        flags = NormalizationFlags(lowercase=False)
        assert tokenize("Crash At NOON", flags, frozenset()) == ["Crash", "At", "NOON"]

    def test_dates_survive_stopword_removal(self):
        stopwords = frozenset({"2021-03-04", "on"})
        assert tokenize("on 2021-03-04", self.filtering, stopwords) == ["2021-03-04"]

    def test_date_embedded_in_prose_with_default_list(self):
        text = "The next crash will happen on 2021-03-04."
        tokens = tokenize(text, self.filtering, default_stopwords())
        assert "2021-03-04" in tokens
        assert "the" not in tokens
        assert "on" not in tokens

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent_under_default_config(self, text):
        once = tokenize(text, self.plain, frozenset())
        assert tokenize(" ".join(once), self.plain, frozenset()) == once

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent_with_stopwords(self, text):
        stopwords = default_stopwords()
        once = tokenize(text, self.filtering, stopwords)
        assert tokenize(" ".join(once), self.filtering, stopwords) == once

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_stopword_removal_never_grows_the_stream(self, text):
        filtered = tokenize(text, self.filtering, default_stopwords())
        assert len(filtered) <= len(tokenize(text, self.plain, frozenset()))


class TestNormalizationFlags:
    def test_defaults(self):
        flags = NormalizationFlags()
        assert flags.lowercase
        assert flags.strip_punctuation
        assert not flags.remove_stopwords


class TestStopwordFile:
    def test_comments_and_blanks_are_skipped(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# leading comment\nthe\n\nan  # trailing comment\n")
        assert load_stopwords(path) == frozenset({"the", "an"})

    def test_shipped_list_is_plausible(self):
        words = default_stopwords()
        assert {"the", "a", "on", "will"} <= words
        assert len(words) > 15
