"""Cue extraction, inventories, and the binary cue matrix."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlkit import (
    CueConfig,
    build_cue_matrix,
    build_inventory,
    extract_grams,
    load_dataset,
    merge_grams,
    novel_cues,
)
from ldlkit.cues import CueError

from corpora import csr_arrays, dense_cue_rows, paradigm_lexicon

ROOT = Path(__file__).resolve().parents[1]

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
        rows, _ = dense_cue_rows(corpus, inv, PHONE3)
        indptr, indices = csr_arrays(rows)
        assert cm.indptr.tolist() == indptr.tolist()
        assert cm.indices.tolist() == indices.tolist()
        assert cm.shape == rows.shape

    def test_rows_is_a_read_only_dense_view(self):
        corpus = ["al@", "al@n", "bu"]
        inv = build_inventory(corpus, PHONE3)
        cm = build_cue_matrix(corpus, inv, PHONE3)
        rows = cm.rows
        assert np.array_equal(rows, dense_cue_rows(corpus, inv, PHONE3)[0])
        assert not rows.flags.writeable
        assert cm.rows is not rows  # built on each read


VOWELS = "aeiou@"


def cv_syllables(form: str) -> str:
    """form split into syllables after each vowel; consonants after the
    last vowel close the last syllable."""
    parts, open_ = [], ""
    for ch in form:
        open_ += ch
        if ch in VOWELS:
            parts.append(open_)
            open_ = ""
    if open_:
        if parts:
            parts[-1] += open_
        else:
            parts.append(open_)
    return "-".join(parts)


def cue_corpus(name: str, unit: str) -> list[str]:
    """The cue strings of the demo lexicon or of paradigm250 (the
    paradigm lexicon of 250 lemmas, 1,000 entries) in one unit; the
    syllables are CV splits of the pronunciations."""
    d = load_dataset(ROOT / "data" / "demo.tsv") if name == "demo" else paradigm_lexicon(250)
    if unit == "letter":
        return [e.wordform for e in d]
    if unit == "phone":
        return [e.pronunciation for e in d]
    return [cv_syllables(e.pronunciation) for e in d]


CUE_CONFIGS = {"letter": CueConfig(unit="letter", n=2), "phone": PHONE3, "syllable": SYLL2}


class TestCueMatrixAgainstDenseOracle:
    """build_cue_matrix's CSR arrays against today's dense presence loop
    (corpora.dense_cue_rows)."""

    @pytest.mark.parametrize("unit", list(CUE_CONFIGS))
    @pytest.mark.parametrize("corpus", ["demo", "paradigm250"])
    @pytest.mark.parametrize("inventory", ["every_item", "first_half"])
    def test_equal_to_the_dense_oracle(self, corpus, unit, inventory):
        cfg = CUE_CONFIGS[unit]
        strings = cue_corpus(corpus, unit)
        inv = build_inventory(strings if inventory == "every_item" else strings[: len(strings) // 2], cfg)
        rows, dropped = dense_cue_rows(strings, inv, cfg)
        # build_cue_matrix rejects an item with no known cue
        known = [s for s, r in zip(strings, rows) if r.any()]
        assert len(known) > len(strings) // 2
        rows, dropped = dense_cue_rows(known, inv, cfg)
        cm = build_cue_matrix(known, inv, cfg)

        assert cm.shape == rows.shape
        assert cm.indptr.dtype == cm.indices.dtype == np.int64
        for i in range(len(known)):
            cols = cm.indices[cm.indptr[i]:cm.indptr[i + 1]]
            assert (np.diff(cols) > 0).all(), "columns ascending and distinct"
            assert cols.tolist() == np.flatnonzero(rows[i]).tolist()
        assert np.array_equal(cm.novel_dropped, dropped)
        assert (dropped > 0).any() == (inventory == "first_half")
        dense = cm.dense()
        assert dense.dtype == np.float64 and dense.flags.c_contiguous and dense.flags.writeable
        assert np.array_equal(dense, rows)

    @pytest.mark.parametrize("ids", [[3, 3, 0, 3], [9, 2, 7, 0, 5], [], np.array([4, 1, 1])],
                             ids=["repeated", "unsorted", "empty", "array"])
    def test_dense_rows_of_ids(self, ids):
        strings = cue_corpus("demo", "phone")
        inv = build_inventory(strings, PHONE3)
        rows, _ = dense_cue_rows(strings, inv, PHONE3)
        cm = build_cue_matrix(strings, inv, PHONE3)
        got = cm.dense(ids)
        assert got.shape == (len(ids), len(inv)) and got.dtype == np.float64
        assert np.array_equal(got, rows[np.asarray(ids, dtype=np.int64)])
        assert not np.shares_memory(got, cm.dense(ids)), "fresh rows on each call"

    def test_build_peak_is_a_fraction_of_the_dense_matrix(self):
        # paradigm250 under triphones: ~8.3 MB dense at 0.56% nonzeros
        strings = cue_corpus("paradigm250", "phone")
        inv = build_inventory(strings, PHONE3)
        dense_bytes = len(strings) * len(inv) * 8
        assert dense_bytes > 8e6
        tracemalloc.start()
        try:
            build_cue_matrix(strings, inv, PHONE3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


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

