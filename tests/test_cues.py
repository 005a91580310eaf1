"""Cue extraction, inventories, and the binary cue matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlkit import (
    CueConfig,
    build_cue_matrix,
    build_inventory,
    extract_grams,
    merge_grams,
    novel_cues,
)
from ldlkit.cues import CueError, csr_arrays

PHONE2 = CueConfig(unit="phone", n=2)
PHONE3 = CueConfig(unit="phone", n=3)
SYLL2 = CueConfig(unit="syllable", n=2)


class TestExtractGrams:
    def test_biphones_worked_example(self):
        assert extract_grams("al@", PHONE2) == ["#a", "al", "l@", "@#"]

    def test_triphones_worked_example(self):
        assert extract_grams("al@", PHONE3) == ["#al", "al@", "l@#"]

    def test_bisyllables_worked_example(self):
        assert extract_grams("a-l@", SYLL2) == ["#-a", "a-l@", "l@-#"]

    def test_short_form_single_gram(self):
        # padded window count len+2-n = 1; brute-force: only one window fits
        assert extract_grams("a", PHONE3) == ["#a#"]

    def test_form_shorter_than_window(self):
        # even shorter forms keep one gram so the item is never dropped
        assert extract_grams("a", CueConfig(unit="phone", n=4)) == ["#a#"]

    def test_empty_input_rejected(self):
        with pytest.raises(CueError):
            extract_grams("", PHONE3)

    def test_boundary_inside_input_rejected(self):
        with pytest.raises(CueError):
            extract_grams("a#b", PHONE3)

    @given(st.text(alphabet="abcdef@", min_size=1, max_size=12), st.integers(2, 5))
    @settings(max_examples=200)
    def test_gram_count_formula(self, s, n):
        # padded length len+2, so len+2-n+1 windows; short forms keep one
        cfg = CueConfig(unit="phone", n=n)
        grams = extract_grams(s, cfg)
        if len(s) + 2 >= n:
            assert len(grams) == len(s) + 3 - n
        else:
            assert len(grams) == 1

    @given(st.text(alphabet="abcdef@", min_size=1, max_size=12), st.integers(2, 5))
    @settings(max_examples=200)
    def test_merge_round_trip(self, s, n):
        cfg = CueConfig(unit="phone", n=n)
        assert merge_grams(extract_grams(s, cfg), cfg) == s

    @given(st.lists(st.sampled_from(["ba", "du", "gi", "lo"]), min_size=1, max_size=5))
    def test_merge_round_trip_syllables(self, sylls):
        s = "-".join(sylls)
        assert merge_grams(extract_grams(s, SYLL2), SYLL2) == s


class TestInventory:
    def test_first_occurrence_order(self):
        inv = build_inventory(["al@", "al@n"], PHONE3)
        assert inv.cues == ["#al", "al@", "l@#", "l@n", "@n#"]

    def test_single_word(self):
        assert len(build_inventory(["al@"], PHONE3)) == 3

    def test_order_stable_against_later_duplicates(self):
        base = build_inventory(["al@", "al@n"], PHONE3)
        extended = build_inventory(["al@", "al@n", "al@", "al@n", "al@"], PHONE3)
        assert base.cues == extended.cues

    def test_empty_corpus_rejected(self):
        with pytest.raises(CueError):
            build_inventory([], PHONE3)


class TestCueMatrix:
    def test_direct_construction(self):
        inv = build_inventory(["al@", "al@n"], PHONE3)
        cm = build_cue_matrix(["al@"], inv, PHONE3)
        assert cm.rows.tolist() == [[1.0, 1.0, 1.0, 0.0, 0.0]]

    def test_repeats_collapse_to_presence(self):
        inv = build_inventory(["baba"], PHONE2)
        cm = build_cue_matrix(["baba"], inv, PHONE2)
        assert set(np.unique(cm.rows)) <= {0.0, 1.0}
        assert cm.rows[0, inv.index["ba"]] == 1.0

    def test_novel_grams_dropped_and_counted(self):
        inv = build_inventory(["al@"], PHONE3)
        cm = build_cue_matrix(["al@n"], inv, PHONE3)
        # #al and al@ known; l@n and @n# novel
        assert cm.novel_dropped.tolist() == [2]
        assert cm.rows[0].sum() == 2

    def test_item_without_known_grams_rejected(self):
        inv = build_inventory(["al@"], PHONE3)
        with pytest.raises(CueError):
            build_cue_matrix(["zzz"], inv, PHONE3)

    def test_every_row_nonzero(self):
        corpus = ["al@", "al@n", "bu", "z@ba"]
        inv = build_inventory(corpus, PHONE3)
        cm = build_cue_matrix(corpus, inv, PHONE3)
        assert (cm.rows.sum(axis=1) > 0).all()

    def test_csr_arrays_match_dense(self):
        corpus = ["al@", "al@n", "bu"]
        inv = build_inventory(corpus, PHONE3)
        cm = build_cue_matrix(corpus, inv, PHONE3)
        indptr, indices = csr_arrays(cm.rows)
        for i in range(len(corpus)):
            assert sorted(indices[indptr[i]:indptr[i + 1]]) == sorted(np.flatnonzero(cm.rows[i]))


class TestNovelCues:
    def test_in_corpus_items_have_none(self):
        corpus = ["al@", "al@n"]
        inv = build_inventory(corpus, PHONE3)
        assert novel_cues(corpus, inv, PHONE3) == set()

    def test_unseen_grams_reported(self):
        inv = build_inventory(["al@"], PHONE3)
        assert novel_cues(["al@n"], inv, PHONE3) == {"l@n", "@n#"}


class TestMerge:
    def test_single_padded_gram(self):
        assert merge_grams(["#a#"], PHONE3) == "a"

    def test_non_overlapping_rejected(self):
        with pytest.raises(Exception):
            merge_grams(["#al", "l@#"], PHONE3)

