"""Dataset ingestion, article attachment, splits, and token streams."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ldlkit import (
    CueConfig,
    Dataset,
    WordEntry,
    attach_articles,
    extract_grams,
    load_dataset,
    sample_token_stream,
    simulate_role_frequencies,
    split_no_novel_cues,
    split_random,
)
from ldlkit.lexicon import (
    DEFAULT_ROLE_TABLE,
    LexiconError,
    _largest_remainder,
    save_split,
)

from corpora import paradigm_lexicon

HEADER = "wordform\tpronunciation\tlemma\tcase\tnumber\tfrequency\tgender\n"


def write_tsv(tmp_path, body, header=HEADER):
    p = tmp_path / "data.tsv"
    p.write_text(header + body, encoding="utf-8")
    return p


class TestLoadDataset:
    def test_basic_row(self, tmp_path):
        p = write_tsv(tmp_path, "Aal\tal\tAal\tnominative\tsingular\t29\tm\n")
        d = load_dataset(p)
        assert len(d) == 1
        e = d[0]
        assert e.pronunciation == "al"
        assert e.case == "nominative"
        assert e.number == "singular"
        assert e.frequency == 29
        assert e.gender == "masculine"

    def test_empty_file_with_header(self, tmp_path):
        d = load_dataset(write_tsv(tmp_path, ""))
        assert len(d) == 0

    def test_unknown_case_rejected(self, tmp_path):
        p = write_tsv(tmp_path, "Aal\tal\tAal\tvocative\tsingular\t29\tm\n")
        with pytest.raises(LexiconError, match="unknown case"):
            load_dataset(p)

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("wordform\tpronunciation\tlemma\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="missing required column"):
            load_dataset(p)

    def test_malformed_frequency(self, tmp_path):
        p = write_tsv(tmp_path, "Aal\tal\tAal\tnominative\tsingular\tmany\tm\n")
        with pytest.raises(LexiconError, match="malformed frequency"):
            load_dataset(p)

    def test_negative_frequency(self, tmp_path):
        p = write_tsv(tmp_path, "Aal\tal\tAal\tnominative\tsingular\t-1\tm\n")
        with pytest.raises(LexiconError, match="negative frequency"):
            load_dataset(p)

    def test_empty_pronunciation(self, tmp_path):
        p = write_tsv(tmp_path, "Aal\t\tAal\tnominative\tsingular\t29\tm\n")
        with pytest.raises(LexiconError, match="empty pronunciation"):
            load_dataset(p)

    def test_optional_columns(self, tmp_path):
        header = HEADER.rstrip("\n") + "\tsyllables\trole\trole_frequency\n"
        p = write_tsv(tmp_path, "Aale\tal@\tAal\tnominative\tplural\t34\tm\ta-l@\tagent\t5\n", header)
        e = load_dataset(p)[0]
        assert e.syllabified_pronunciation == "a-l@"
        assert e.semantic_role == "agent"
        assert e.role_frequency == 5

    def test_syllabified_must_flatten(self, tmp_path):
        header = HEADER.rstrip("\n") + "\tsyllables\n"
        p = write_tsv(tmp_path, "Aale\tal@\tAal\tnominative\tplural\t34\tm\ta-lo\n", header)
        with pytest.raises(LexiconError, match="flatten"):
            load_dataset(p)

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        # with it, the header's first name read "\ufeffwordform"
        p = write_tsv(tmp_path, "Aal\tal\tAal\tnominative\tsingular\t29\tm\n", "\ufeff" + HEADER)
        assert load_dataset(p)[0].wordform == "Aal"

    @pytest.mark.parametrize("extra,name", [("frequency", "frequency"), ("word form", "wordform")])
    def test_a_column_named_twice_is_rejected(self, tmp_path, extra, name):
        # the second copy was dropped without a word: the first 29 was read, the 9 ignored
        p = write_tsv(tmp_path, "Aal\tal\tAal\tnominative\tsingular\t29\tm\t9\n",
                      HEADER.rstrip("\n") + f"\t{extra}\n")
        with pytest.raises(LexiconError, match=f"named twice: {name}"):
            load_dataset(p)


def make_entry(**kw):
    base = dict(
        wordform="Aal", pronunciation="al", lemma="Aal", case="nominative",
        number="singular", gender="masculine", frequency=29,
    )
    base.update(kw)
    return WordEntry(**base)


class TestArticles:
    def test_definite_masculine_nominative(self):
        d = attach_articles(Dataset([make_entry()]), "definite")
        assert d[0].pronunciation == "deral"
        assert d[0].wordform == "derAal"
        assert d[0].definiteness == "definite"

    def test_feminine_dative_singular_is_der(self):
        e = make_entry(wordform="Mutter", pronunciation="mUt@r", lemma="Mutter",
                       case="dative", gender="feminine")
        d = attach_articles(Dataset([e]), "definite")
        assert d[0].pronunciation.startswith("der")

    def test_none_is_identity(self):
        d0 = Dataset([make_entry()])
        assert attach_articles(d0, "none") is d0

    def test_definite_preserves_count(self):
        d0 = paradigm_lexicon(10)
        assert len(attach_articles(d0, "definite")) == len(d0)

    def test_definite_and_indefinite_doubles(self):
        d0 = paradigm_lexicon(10)
        d = attach_articles(d0, "definite_and_indefinite")
        assert len(d) == 2 * len(d0)
        flags = {e.definiteness for e in d}
        assert flags == {"definite", "indefinite"}

    def test_indefinite_plural_is_bare(self):
        e = make_entry(wordform="Aale", pronunciation="al@", number="plural")
        d = attach_articles(Dataset([e]), "definite_and_indefinite")
        indef = [x for x in d if x.definiteness == "indefinite"][0]
        assert indef.pronunciation == "al@"

    def test_indefinite_singular_prefixed(self):
        d = attach_articles(Dataset([make_entry()]), "definite_and_indefinite")
        indef = [x for x in d if x.definiteness == "indefinite"][0]
        assert indef.pronunciation == "Wnal"

    def test_syllabified_gets_article_syllable(self):
        e = make_entry(wordform="Aale", pronunciation="al@", number="plural",
                       syllabified_pronunciation="a-l@")
        d = attach_articles(Dataset([e]), "definite")
        assert d[0].syllabified_pronunciation == "di-a-l@"
        assert d[0].syllabified_pronunciation.replace("-", "") == d[0].pronunciation


class TestSplitRandom:
    def test_deterministic(self):
        d = paradigm_lexicon(25)
        a = split_random(d, 0.8, seed=3)
        b = split_random(d, 0.8, seed=3)
        assert a.train_ids == b.train_ids
        assert a.validation_ids == b.validation_ids

    def test_sizes(self):
        d = paradigm_lexicon(30)
        ten = Dataset(list(d)[:10])
        s = split_random(ten, 0.8, seed=0)
        assert len(s.train_ids) == 8
        assert len(s.validation_ids) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_invariants(self, seed):
        d = paradigm_lexicon(20)
        s = split_random(d, 0.75, seed=seed)
        assert sorted(s.train_ids + s.validation_ids) == list(range(len(d)))
        assert not set(s.train_ids) & set(s.validation_ids)
        assert s.homophone_val_ids | s.newform_val_ids == set(s.validation_ids)
        assert not s.homophone_val_ids & s.newform_val_ids

    def test_homophone_sets_by_cue_string(self):
        d = paradigm_lexicon(20)
        s = split_random(d, 0.8, seed=1)
        train_strings = {d[i].pronunciation for i in s.train_ids}
        for i in s.homophone_val_ids:
            assert d[i].pronunciation in train_strings
        for i in s.newform_val_ids:
            assert d[i].pronunciation not in train_strings

    def test_novel_lemma_ids(self):
        d = paradigm_lexicon(20)
        s = split_random(d, 0.8, seed=2)
        train_lemmas = {d[i].lemma for i in s.train_ids}
        assert s.novel_lemma_ids == {i for i in s.validation_ids if d[i].lemma not in train_lemmas}
        assert s.novel_lemma_ids <= set(s.validation_ids)

    def test_fraction_out_of_range(self):
        with pytest.raises(LexiconError):
            split_random(paradigm_lexicon(5), 1.2, seed=0)


class TestSplitNoNovelCues:
    CFG = CueConfig(unit="phone", n=3)

    def grams(self, e):
        return extract_grams(e.pronunciation, self.CFG)

    @pytest.mark.parametrize("seed", range(10))
    def test_validation_has_no_novel_cues(self, seed):
        d = paradigm_lexicon(40)
        s = split_no_novel_cues(d, 0.8, seed, grams_of=self.grams)
        train_cues = set()
        for i in s.train_ids:
            train_cues.update(self.grams(d[i]))
        for i in s.validation_ids:
            assert set(self.grams(d[i])) <= train_cues

    def test_unique_cue_entry_always_in_train(self):
        # one entry holds a triphone no other entry has; exhaustive over seeds
        forms = ["bala", "lado", "dora", "rabo", "zzz"]
        entries = [
            make_entry(wordform=f.capitalize(), pronunciation=f, lemma=f.capitalize())
            for f in forms
        ]
        d = Dataset(entries)
        for seed in range(10):
            s = split_no_novel_cues(d, 0.6, seed, grams_of=self.grams)
            assert 4 in s.train_ids  # "zzz" cues occur nowhere else

    def test_reports_achieved_fraction(self):
        d = paradigm_lexicon(40)
        s = split_no_novel_cues(d, 0.8, 0, grams_of=self.grams)
        assert 0.5 <= s.achieved_train_fraction <= 1.0


class TestRoleFrequencies:
    def test_default_table_probabilities(self):
        assert DEFAULT_ROLE_TABLE["nominative"] == (("agent", 0.5), ("theme", 0.4), ("patient", 0.1))
        assert DEFAULT_ROLE_TABLE["genitive"] == (("possessive", 0.9), ("partitive", 0.1))
        assert DEFAULT_ROLE_TABLE["dative"] == (("beneficiary", 0.5), ("location", 0.5))
        assert DEFAULT_ROLE_TABLE["accusative"] == (("patient", 0.4), ("motion", 0.3), ("experiencer", 0.3))
        for rows in DEFAULT_ROLE_TABLE.values():
            assert abs(sum(p for _, p in rows) - 1.0) < 1e-12

    def test_largest_remainder_against_fraction_oracle(self):
        # independent exact-arithmetic oracle for the apportionment
        def oracle(total, weights):
            shares = [Fraction(total) * Fraction(w).limit_denominator() for w in weights]
            wsum = sum(Fraction(w).limit_denominator() for w in weights)
            shares = [s / wsum for s in shares]
            alloc = [int(s) for s in shares]
            rema = sorted(range(len(shares)), key=lambda i: (-(shares[i] - alloc[i]), i))
            for i in rema[: total - sum(alloc)]:
                alloc[i] += 1
            return alloc

        cases = [
            (34, [0.5, 0.4]),       # nominative cell, patient zeroed
            (34, [0.9, 0.1]),
            (17, [0.5, 0.5]),
            (10, [0.4, 0.3, 0.3]),
            (1, [0.5, 0.4, 0.1]),
        ]
        for total, weights in cases:
            assert _largest_remainder(total, weights) == oracle(total, weights)
        # frozen value for the 137/4-cell example: floor share 34
        assert _largest_remainder(34, [0.5, 0.4]) == [19, 15]

    def test_expansion_structure(self):
        e = make_entry(frequency=137, gender="feminine")
        cells = [
            make_entry(frequency=137, gender="feminine", case=c)
            for c in ("nominative", "genitive", "dative", "accusative")
        ]
        d = simulate_role_frequencies(Dataset(cells), seed=5)
        # one output entry per (cell, role), zeroed roles kept with count 0
        assert len(d) == 3 + 2 + 2 + 3
        assert all(x.semantic_role is not None for x in d)
        assert all(x.role_frequency is not None for x in d)

    @pytest.mark.parametrize("seed", range(6))
    def test_totals_conserved_up_to_floor_loss(self, seed):
        d0 = paradigm_lexicon(15)
        d = simulate_role_frequencies(d0, seed=seed)
        # per (lemma, wordform): sum of role counts <= frequency, loss < n_cells
        by_form: dict[tuple, list] = {}
        for x in d:
            by_form.setdefault((x.lemma, x.wordform), []).append(x)
        for (lemma, wf), rows in by_form.items():
            freq = rows[0].frequency
            cells = {(r.case, r.number) for r in rows}
            total = sum(r.role_frequency for r in rows)
            assert total <= freq
            # zeroing can remove whole cells, so only the upper bound is firm
            assert total >= 0

    def test_zeroing_probability_matches_table_size(self):
        # with K roles a cell keeps a role with prob 1-1/K; check the rate
        cells = [
            make_entry(wordform=f"W{i}", pronunciation=f"w{i}", lemma=f"W{i}",
                       case="dative", frequency=100)
            for i in range(400)
        ]
        d = simulate_role_frequencies(Dataset(cells), seed=9)
        zeroed = sum(1 for x in d if x.role_frequency == 0)
        rate = zeroed / len(d)
        assert abs(rate - 0.5) < 0.08  # K=2 for dative

    def test_bad_table_rejected(self):
        with pytest.raises(LexiconError, match="sum"):
            simulate_role_frequencies(
                Dataset([make_entry()]),
                role_table={"nominative": (("agent", 0.5),), "genitive": (("possessive", 1.0),),
                            "dative": (("location", 1.0),), "accusative": (("patient", 1.0),)},
                seed=0,
            )


class TestTokenStream:
    def test_each_entry_repeated_by_frequency(self):
        d = Dataset([make_entry(frequency=3), make_entry(wordform="Buch", pronunciation="bux", frequency=2)])
        stream = sample_token_stream(d, seed=0)
        assert sorted(stream.tolist()) == [0, 0, 0, 1, 1]

    def test_role_frequency_preferred(self):
        e = make_entry(frequency=10, semantic_role="agent", role_frequency=4)
        stream = sample_token_stream(Dataset([e]), seed=0)
        assert len(stream) == 4

    def test_token_frequency_is_role_frequency_when_set(self):
        assert make_entry(frequency=10).token_frequency == 10
        zero = make_entry(frequency=10, semantic_role="agent", role_frequency=0)
        assert zero.token_frequency == 0

    def test_deterministic(self):
        d = paradigm_lexicon(10)
        a = sample_token_stream(d, seed=42)
        b = sample_token_stream(d, seed=42)
        assert (a == b).all()

    def test_all_zero_rejected(self):
        with pytest.raises(LexiconError):
            sample_token_stream(Dataset([make_entry(frequency=0)]), seed=0)

    def test_equals_the_list_construction(self):
        # entries with zero frequency, with role_frequency set (some of them
        # zero) and without it, in one corpus
        plain = [replace(e, frequency=0) if i % 3 == 0 else e
                 for i, e in enumerate(paradigm_lexicon(8, seed=4))]
        d = Dataset(plain + list(simulate_role_frequencies(paradigm_lexicon(8, seed=5), seed=6)))
        freqs = [e.role_frequency if e.role_frequency is not None else e.frequency for e in d]
        assert 0 in freqs[: len(plain)] and 0 in freqs[len(plain):]
        reps = []
        for i, f in enumerate(freqs):
            reps.extend([i] * f)
        expected = np.asarray(reps, dtype=np.int64)
        np.random.default_rng(17).shuffle(expected)
        stream = sample_token_stream(d, seed=17)
        assert stream.dtype == np.int64
        assert stream.tobytes() == expected.tobytes()


def test_save_split_round_trip(tmp_path):
    d = paradigm_lexicon(12)
    s = split_random(d, 0.8, seed=1)
    save_split(s, tmp_path)
    from ldlkit import load_dataset as ld

    train = ld(tmp_path / "train.tsv")
    assert len(train) == len(s.train_ids)
    sidecar = json.loads((tmp_path / "split.json").read_text())
    assert sidecar["train_ids"] == list(s.train_ids)
    assert set(sidecar["homophone_val_ids"]) == s.homophone_val_ids
