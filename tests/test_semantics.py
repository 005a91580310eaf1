"""Simulated spaces, embedding ingestion, and analytical reconstruction."""

import numpy as np
import pytest

from ldlkit import (
    Dataset,
    WordEntry,
    load_embeddings,
    reconstruct_analytical,
    simulate_vectors,
    wug_plural_vector,
)
from ldlkit.semantics import FeatureRegistry, SemanticsError

from corpora import paradigm_lexicon


def compose_vector(reg, lemma, features):
    """The noise-free vector of a lemma with the given features."""
    row = reg.lexeme_vectors[lemma].copy()
    for f in features:
        row += reg.feature_vectors[f]
    return row


def entry(wordform, lemma, case, number, role=None, definiteness=None):
    return WordEntry(
        wordform=wordform, pronunciation=wordform.lower(), lemma=lemma,
        case=case, number=number, gender="masculine", frequency=1,
        semantic_role=role, definiteness=definiteness,
    )


class TestSimulateVectors:
    def test_composition_is_lexeme_plus_features(self):
        d = Dataset([entry("Aalen", "Aal", "dative", "plural")])
        space = simulate_vectors(d, dim=32, seed=1, sd_noise=0.0)
        reg = space.registry
        expected = reg.lexeme_vectors["Aal"] + reg.feature_vectors["plural"] + reg.feature_vectors["dative"]
        np.testing.assert_allclose(space.S[0], expected)
        assert space.gold_keys[0] == ("Aal", "plural", "dative")

    def test_noise_free_homophones_identical(self):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular"),
                     entry("Aal", "Aal", "nominative", "singular")])
        space = simulate_vectors(d, dim=16, seed=2, sd_noise=0.0)
        np.testing.assert_array_equal(space.S[0], space.S[1])

    def test_noise_separates_same_bundle(self):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular"),
                     entry("Aal", "Aal", "nominative", "singular")])
        space = simulate_vectors(d, dim=16, seed=2, sd_noise=1.0)
        assert np.abs(space.S[0] - space.S[1]).max() > 0

    def test_number_contrast_is_shared_shift(self):
        d = Dataset([entry("Aal", "Aal", "dative", "singular"),
                     entry("Aalen", "Aal", "dative", "plural")])
        space = simulate_vectors(d, dim=24, seed=3, sd_noise=0.0)
        reg = space.registry
        np.testing.assert_allclose(
            space.S[1] - space.S[0],
            reg.feature_vectors["plural"] - reg.feature_vectors["singular"],
            atol=1e-12,
        )

    def test_privative_singular_unmarked(self):
        d = Dataset([entry("Aal", "Aal", "dative", "singular")])
        space = simulate_vectors(d, dim=8, seed=4, sd_noise=0.0,
                                 number_opposition="privative")
        reg = space.registry
        np.testing.assert_allclose(
            space.S[0], reg.lexeme_vectors["Aal"] + reg.feature_vectors["dative"]
        )
        assert "singular" not in reg.feature_vectors

    def test_role_scheme_replaces_case(self):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular", role="agent")])
        space = simulate_vectors(d, dim=8, seed=5, sd_noise=0.0, scheme="role")
        reg = space.registry
        assert "agent" in reg.feature_vectors
        assert "nominative" not in reg.feature_vectors
        np.testing.assert_allclose(
            space.S[0],
            reg.lexeme_vectors["Aal"] + reg.feature_vectors["singular"] + reg.feature_vectors["agent"],
        )

    def test_definiteness_features_from_flags(self):
        d = Dataset([entry("derAal", "Aal", "nominative", "singular", definiteness="definite"),
                     entry("Aal", "Aal", "nominative", "singular", definiteness="indefinite")])
        space = simulate_vectors(d, dim=8, seed=6, sd_noise=0.0)
        reg = space.registry
        np.testing.assert_allclose(
            space.S[0] - space.S[1],
            reg.feature_vectors["definite"] - reg.feature_vectors["indefinite"],
            atol=1e-12,
        )

    def test_uniformly_definite_data_gets_no_definiteness_feature(self):
        # definite-only article attachment flags every entry the same way;
        # a shared shift is uninformative, so no feature vector is drawn
        d = Dataset([entry("derAal", "Aal", "nominative", "singular", definiteness="definite"),
                     entry("demAal", "Aal", "dative", "singular", definiteness="definite")])
        space = simulate_vectors(d, dim=8, seed=6, sd_noise=0.0)
        assert "definite" not in space.registry.feature_vectors
        assert "definite" not in space.gold_keys[0]

    def test_feature_scale_shrinks_plural_magnitude(self):
        # mean |x| of a centered Gaussian is sd * sqrt(2/pi): about 3.19
        # at sd 4, about 0.32 after scaling by 1/10
        d = paradigm_lexicon(5)
        full = simulate_vectors(d, dim=4000, seed=7)
        tenth = simulate_vectors(d, dim=4000, seed=7, feature_scale=0.1)
        m_full = np.abs(full.registry.feature_vectors["plural"]).mean()
        m_tenth = np.abs(tenth.registry.feature_vectors["plural"]).mean()
        assert m_full == pytest.approx(4.0 * np.sqrt(2 / np.pi), rel=0.05)
        assert m_tenth == pytest.approx(0.32, rel=0.08)

    def test_lexeme_vectors_near_orthogonal(self):
        d = paradigm_lexicon(20)
        space = simulate_vectors(d, dim=1200, seed=8)
        lex = np.vstack(list(space.registry.lexeme_vectors.values()))
        lex = lex - lex.mean(axis=1, keepdims=True)
        lex /= np.linalg.norm(lex, axis=1, keepdims=True)
        corr = lex @ lex.T
        off = corr[~np.eye(len(lex), dtype=bool)]
        assert abs(off.mean()) < 0.05

    def test_bit_reproducible(self):
        d = paradigm_lexicon(6)
        a = simulate_vectors(d, dim=10, seed=9)
        b = simulate_vectors(d, dim=10, seed=9)
        assert (a.S == b.S).all()

    def test_bad_dim_rejected(self):
        with pytest.raises(SemanticsError):
            simulate_vectors(paradigm_lexicon(2), dim=0, seed=0)


class TestWugVector:
    def test_cancellation_when_equal(self):
        reg = FeatureRegistry({}, {"singular": np.ones(3), "plural": np.ones(3)})
        s = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(wug_plural_vector(s, reg), s)

    def test_zero_input(self):
        reg = FeatureRegistry({}, {"singular": np.array([1.0, 0.0]),
                                   "plural": np.array([0.0, 1.0])})
        np.testing.assert_array_equal(wug_plural_vector(np.zeros(2), reg), [-1.0, 1.0])

    def test_exact_shift_on_composed_vector(self):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        space = simulate_vectors(d, dim=12, seed=10, sd_noise=0.0)
        reg = space.registry
        shifted = wug_plural_vector(space.S[0], reg)
        expected = compose_vector(reg, "Aal", ("plural", "nominative"))
        np.testing.assert_allclose(shifted, expected, atol=1e-12)

    def test_missing_feature_rejected(self):
        reg = FeatureRegistry({}, {"plural": np.zeros(2)})
        with pytest.raises(SemanticsError):
            wug_plural_vector(np.zeros(2), reg)


def write_embeddings(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for word, vec in rows:
            fh.write(word + " " + " ".join(str(x) for x in vec) + "\n")


class TestLoadEmbeddings:
    def test_homophones_share_rows(self, tmp_path):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular"),
                     entry("Aal", "Aal", "dative", "singular")])
        p = tmp_path / "vecs.txt"
        write_embeddings(p, [("Aal", [0.1, 0.2, 0.3])])
        res = load_embeddings(p, d)
        np.testing.assert_array_equal(res.space.S[0], res.space.S[1])
        assert res.space.gold_keys[0] == res.space.gold_keys[1] == ("Aal",)

    def test_missing_words_dropped_with_report(self, tmp_path):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular"),
                     entry("Buch", "Buch", "nominative", "singular")])
        p = tmp_path / "vecs.txt"
        write_embeddings(p, [("Aal", [1.0, 2.0])])
        res = load_embeddings(p, d)
        assert len(res.dataset) == 1
        assert res.missing_words == ("Buch",)

    def test_count_dim_header_skipped(self, tmp_path):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        p = tmp_path / "vecs.txt"
        write_embeddings(p, [("Aal", [1.0, 2.0, 3.0])], header="1 3")
        res = load_embeddings(p, d)
        assert res.space.dimension == 3

    def test_inconsistent_dimension_rejected(self, tmp_path):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        p = tmp_path / "vecs.txt"
        write_embeddings(p, [("Aal", [1.0, 2.0]), ("Buch", [1.0])])
        with pytest.raises(SemanticsError, match="dimension"):
            load_embeddings(p, d)

    @pytest.mark.parametrize("header", [None, "1 3"])
    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path, header):
        # with it, the first word was "\ufeffAal" and went missing, or the
        # "count dim" line was read as the word "\ufeff1" with one component
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        p = tmp_path / "vecs.txt"
        write_embeddings(p, [("Aal", [1.0, 2.0, 3.0])], header=header)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        res = load_embeddings(p, d)
        assert res.missing_words == ()
        np.testing.assert_array_equal(res.space.S, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_rejected(self, tmp_path, bad):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        p = tmp_path / "vecs.txt"
        p.write_text(f"Aal 1.0 2.0\nBuch 1.0 {bad}\n", encoding="utf-8")
        with pytest.raises(SemanticsError, match=r"vecs.txt:2: non-finite component"):
            load_embeddings(p, d)

    def test_word_listed_twice_rejected(self, tmp_path):
        # the first vector was kept and the second dropped without a word
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        p = tmp_path / "vecs.txt"
        write_embeddings(p, [("Aal", [1.0, 2.0]), ("Buch", [5.0, 6.0]), ("Aal", [3.0, 4.0])])
        with pytest.raises(SemanticsError,
                           match=r"vecs.txt:3: word 'Aal' is listed again \(first on line 1\)"):
            load_embeddings(p, d)


class TestReconstructAnalytical:
    def test_single_entry_correlates_perfectly(self):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular")])
        rng = np.random.default_rng(11)
        from ldlkit.semantics import SemanticSpace

        space = SemanticSpace(S=rng.normal(size=(1, 10)), gold_keys=[("Aal",)])
        _, _, corr = reconstruct_analytical(space, d)
        assert corr[0] == pytest.approx(1.0)

    def test_self_consistent_table_reconstructs_exactly(self, tmp_path):
        # synthetic embeddings built as lexeme + number + case sums, with
        # zero-sum constraints so the averaging recovers each part exactly
        rng = np.random.default_rng(12)
        dim = 40
        lemmas = ["alpha", "beta", "gamma", "delta"]
        lex = rng.normal(size=(len(lemmas), dim))
        lex -= lex.mean(axis=0, keepdims=True)  # lexemes sum to zero
        plural = rng.normal(size=dim)
        number = {"singular": -plural, "plural": plural}
        cases = ["nominative", "genitive", "dative", "accusative"]
        case_vecs = rng.normal(size=(4, dim))
        case_vecs -= case_vecs.mean(axis=0, keepdims=True)  # cases sum to zero

        entries, rows = [], []
        for li, lm in enumerate(lemmas):
            for n in ("singular", "plural"):
                for ci, c in enumerate(cases):
                    form = f"{lm}_{n}_{c}"
                    entries.append(entry(form, lm, c, n))
                    rows.append((form, lex[li] + number[n] + case_vecs[ci]))
        p = tmp_path / "vecs.txt"
        write_embeddings(p, rows)
        res = load_embeddings(p, Dataset(entries))
        reg, analytical, corr = reconstruct_analytical(res.space, res.dataset)

        np.testing.assert_allclose(corr, np.ones(len(entries)), atol=1e-9)
        np.testing.assert_allclose(analytical.S, res.space.S, atol=1e-9)
        for li, lm in enumerate(lemmas):
            np.testing.assert_allclose(reg.lexeme_vectors[lm], lex[li], atol=1e-9)
        np.testing.assert_allclose(reg.feature_vectors["plural"], plural, atol=1e-9)

    def test_correlations_bounded(self):
        d = paradigm_lexicon(8)
        rng = np.random.default_rng(13)
        from ldlkit.semantics import SemanticSpace

        space = SemanticSpace(S=rng.normal(size=(len(d), 20)),
                              gold_keys=[(e.wordform,) for e in d])
        _, _, corr = reconstruct_analytical(space, d)
        assert np.all(corr[~np.isnan(corr)] <= 1.0 + 1e-12)
        assert np.all(corr[~np.isnan(corr)] >= -1.0 - 1e-12)

    def test_correlations_match_the_paired_row_formula(self):
        from ldlkit.semantics import SemanticSpace

        d = paradigm_lexicon(8)
        S = simulate_vectors(d, dim=20, seed=15).S.copy()
        constant = [0, 5]
        S[constant] = 0.1  # zero variance, though the mean of the row rounds
        space = SemanticSpace(S=S, gold_keys=[(e.wordform,) for e in d])
        _, analytical, corr = reconstruct_analytical(space, d)

        # The formula reconstruct_analytical used before it shared the
        # comprehension helper: centred rows, NaN only at an exact zero norm.
        A, B = analytical.S, S
        Ac = A - A.mean(axis=1, keepdims=True)
        Bc = B - B.mean(axis=1, keepdims=True)
        den = np.sqrt((Ac**2).sum(axis=1) * (Bc**2).sum(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            old = np.where(den > 0, (Ac * Bc).sum(axis=1) / den, np.nan)

        varied = np.ones(len(d), dtype=bool)
        varied[constant] = False
        assert np.array_equal(corr[varied], old[varied])
        assert np.all(np.isnan(corr[constant]))
        assert not np.any(np.isnan(old[constant])), "the old formula scored round-off"

