"""Nearest-gold scoring and the evaluation schemes."""

import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ldlkit import (
    CueConfig,
    Dataset,
    GoldPool,
    Scores,
    build_cue_matrix,
    build_inventory,
    evaluate,
    score_items,
    simulate_vectors,
    solve_endstate,
    split_random,
)
from ldlkit import comprehension, mappings
from ldlkit.comprehension import (
    ComprehensionError,
    Forms,
    average_ranks,
    centre,
    item_score_rows,
    pearson,
    pearson_matrix,
    rowwise_pearson,
    scheme_ids,
    spearman,
)
from ldlkit.lexicon import WordEntry
from ldlkit.semantics import SemanticSpace

from corpora import noisy_scores, paradigm_lexicon, score_entries, toy_lexicon


def entry(wordform, lemma, case, number):
    return WordEntry(wordform=wordform, pronunciation=wordform.lower(), lemma=lemma,
                     case=case, number=number, gender="masculine", frequency=1)


class TestFullRankToy:
    def test_training_items_interpolated(self):
        d, cfg = toy_lexicon(40, seed=3)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=60, seed=1)
        F = solve_endstate(C.rows, space.S)
        results = score_entries(C.rows @ F.W, space, d, cfg)
        assert results.correct_strict.all()
        assert (results.r_target >= 1 - 1e-9).all()


class TestEvaluate:
    def test_strict_implies_lenient_per_item(self):
        _, results = noisy_scores(3.0)
        assert results.correct_lenient[results.correct_strict].all()

    def test_val_strict_at_most_val_all(self):
        split, results = noisy_scores(2.0)
        strict = evaluate(results, split, "val_strict")
        lenient = evaluate(results, split, "val_all")
        assert strict <= lenient + 1e-12

    def test_no_homophones_makes_strict_equal_lenient(self):
        split, results = noisy_scores(2.5, seed=1, homophones=False)
        assert evaluate(results, split, "val_strict") == evaluate(results, split, "val_all")
        assert np.array_equal(results.correct_strict, results.correct_lenient)

    def test_scheme_id_sets(self):
        split, _ = noisy_scores(1.0)
        assert scheme_ids(split, "train") == list(split.train_ids)
        assert scheme_ids(split, "val_all") == list(split.validation_ids)
        assert set(scheme_ids(split, "val_lenient")) == split.homophone_val_ids
        assert set(scheme_ids(split, "val_newform")) == split.newform_val_ids - split.novel_lemma_ids

    def test_unknown_scheme_rejected(self):
        split, results = noisy_scores(1.0)
        with pytest.raises(ComprehensionError):
            evaluate(results, split, "val_bogus")

    def test_missing_items_rejected_and_an_empty_scheme_is_nan(self):
        split, results = noisy_scores(1.0, homophones=False)
        assert not split.homophone_val_ids and np.isnan(evaluate(results, split, "val_lenient"))
        # scores missing the last entry, which no scheme can be graded on
        partial = Scores(*(field[:-1] for field in results))
        n = len(split.dataset)
        for scheme in comprehension.SCHEMES:
            with pytest.raises(ComprehensionError,
                               match=f"scores of {n - 1} entries for a dataset of {n}"):
                evaluate(partial, split, scheme)

    def test_deterministic(self):
        a = noisy_scores(2.0, seed=7)
        b = noisy_scores(2.0, seed=7)
        for scheme in ("train", "val_all", "val_strict"):
            ra = evaluate(a[1], a[0], scheme)
            rb = evaluate(b[1], b[0], scheme)
            assert (np.isnan(ra) and np.isnan(rb)) or ra == rb

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_strict_never_exceeds_lenient(self, seed):
        split, results = noisy_scores(2.0, seed=seed)
        strict = evaluate(results, split, "val_strict")
        lenient = evaluate(results, split, "val_all")
        assert strict <= lenient + 1e-12


def pool_rows(pool, space):
    """The raw gold rows of a pool, one per pool row, taken from space.S."""
    return space.S[[ids[0] for ids in pool.entry_ids]]


class TestGoldPool:
    def test_identical_rows_collapse(self):
        # embedding-style space: homophones share one vector
        d = Dataset([entry("Aal", "Aal", "nominative", "singular"),
                     entry("Aal", "Aal", "dative", "singular"),
                     entry("Buch", "Buch", "nominative", "singular")])
        vec = np.array([1.0, 2.0, 0.5])
        space = SemanticSpace(S=np.vstack([vec, vec, [0.0, 1.0, -1.0]]),
                              gold_keys=[("Aal",), ("Aal",), ("Buch",)])
        cfg = CueConfig(unit="letter", n=2)
        pool = GoldPool.build(space, Forms.build(d, cfg))
        assert pool.centred.rows.shape[0] == 2
        assert pool.entry_ids == [[0, 1], [2]]
        assert pool.form_ids == [{0}, {1}]

    def test_shared_vector_scores_all_readings_strict(self):
        d = Dataset([entry("Aal", "Aal", "nominative", "singular"),
                     entry("Aal", "Aal", "dative", "singular")])
        vec = np.array([1.0, -2.0, 0.5, 3.0])
        space = SemanticSpace(S=np.vstack([vec, vec]), gold_keys=[("Aal",), ("Aal",)])
        cfg = CueConfig(unit="letter", n=2)
        results = score_entries(np.vstack([vec, vec]), space, d, cfg)
        assert results.correct_strict.all()

    def test_lenient_credit_follows_the_cue_unit(self):
        # one pronunciation, two spellings: one form under phone cues, two
        # under letter cues; both forms predict the second entry's meaning
        d = Dataset([WordEntry(wordform=w, pronunciation="al", lemma=w, case="nominative",
                               number="singular", gender="masculine", frequency=1)
                     for w in ("Aal", "Ahl")])
        space = SemanticSpace(S=np.array([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, -1.0, 2.0]]),
                              gold_keys=[("Aal",), ("Ahl",)])
        for unit, form_ids, lenient in (("phone", [{0}, {0}], [True, True]),
                                        ("letter", [{0}, {1}], [False, True])):
            cfg = CueConfig(unit=unit, n=2)
            forms = Forms.build(d, cfg)
            pool = GoldPool.build(space, forms)
            assert pool.form_ids == form_ids
            results = score_items(centre(space.S[[1] * len(forms.first)]), space, pool, forms)
            assert results.best_index.tolist() == [1, 1]
            assert results.correct_strict.tolist() == [False, True]
            assert results.correct_lenient.tolist() == lenient


def test_score_items_best_rows_match_per_row_nanargmax():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(4, 6))
    # row 4 ties row 1 exactly (power-of-two scaling); row 5 has no variance (a NaN column)
    gold = np.vstack([base, 2.0 * base[1], np.full(6, 3.0)])
    n = len(gold)
    d = Dataset([entry(f"W{i}", f"W{i}", "nominative", "singular") for i in range(n)])
    space = SemanticSpace(S=gold, gold_keys=[(f"W{i}",) for i in range(n)])
    cfg = CueConfig(unit="letter", n=2)
    forms = Forms.build(d, cfg)
    assert np.array_equal(forms.first, np.arange(n))  # one form per entry
    pool = GoldPool.build(space, forms)
    split = split_random(d, 0.5, seed=0, cue_string_of=cfg.cue_string)
    S_hat = np.vstack([base[1], rng.normal(size=(n - 2, 6)), np.full(6, 1.0)])
    bests = None
    # the plain predictions, then affine rescalings of them: correlation
    # ignores scale and offset, so every best row stays
    for a, b in ((1.0, 0.0), (2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
        results = score_items(centre(a * S_hat + b), space, pool, forms)
        R = pearson_matrix(a * S_hat + b, pool_rows(pool, space))
        assert np.isnan(R[:-1]).any(axis=0).sum() == 1 and np.isnan(R[-1]).all()
        assert R[0, 1] == R[0, 4]
        for best, r in zip(results.best_index, R):
            expected = -1 if np.isnan(r).all() else int(np.nanargmax(r))
            assert best == expected
        assert results.best_index[0] == 1
        assert list(item_score_rows(results, split))[-1][-1] == "zero-variance prediction"
        bests = bests or results.best_index.tolist()
        assert results.best_index.tolist() == bests


def test_scores_hold_one_row_per_entry_and_minus_one_at_zero_variance_only():
    """Every array of Scores has one row per entry.  best_index is -1
    exactly where best_key is None, at the zero-variance predictions,
    where both flags are False; items.csv gives a reason there only."""
    d = paradigm_lexicon(12, seed=5)
    cfg = CueConfig(unit="phone", n=3)
    space = simulate_vectors(d, dim=30, seed=4)
    forms = Forms.build(d, cfg)
    S_hat = space.S[forms.first] + 2.0 * np.random.default_rng(2).normal(
        size=(len(forms.first), 30))
    S_hat[::7] = 1.5
    n = len(d)
    results = score_items(centre(S_hat), space, GoldPool.build(space, forms), forms)
    assert [len(field) for field in results] == [n] * len(Scores._fields) and n > 40
    assert results.r_target.dtype == np.float64 and results.best_index.dtype == np.intp
    assert results.correct_strict.dtype == results.correct_lenient.dtype == bool
    degenerate = results.best_index == -1
    assert np.array_equal(degenerate, forms.row % 7 == 0) and 0 < degenerate.sum() < n
    assert [key is None for key in results.best_key] == degenerate.tolist()
    assert not (results.correct_strict[degenerate] | results.correct_lenient[degenerate]).any()
    assert results.correct_lenient[~degenerate].any()
    assert np.isnan(results.r_target[degenerate]).all()
    rows = list(item_score_rows(results, split_random(d, 0.75, seed=0,
                                                      cue_string_of=cfg.cue_string)))
    assert rows[0][0] == "id" and rows[0][-1] == "reason"
    assert [row[0] for row in rows[1:]] == list(range(n))
    assert [row[-1] for row in rows[1:]] == [
        "zero-variance prediction" if flag else "" for flag in degenerate]


def test_pearson_matrix_matches_numpy_corrcoef():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 12))
    B = rng.normal(size=(7, 12))
    R = pearson_matrix(A, B)
    for i in range(5):
        for j in range(7):
            assert R[i, j] == pytest.approx(np.corrcoef(A[i], B[j])[0, 1], abs=1e-12)


def _assert_matches_oracle(ours, oracle):
    if np.isnan(oracle):
        assert np.isnan(ours)
    else:
        assert abs(ours - oracle) <= 1e-12


def pairs(sizes, xs, ys):
    """Two vectors of one drawn length."""
    return sizes.flatmap(lambda n: st.tuples(st.lists(xs, min_size=n, max_size=n),
                                             st.lists(ys, min_size=n, max_size=n)))


ties = st.integers(-3, 3)  # few values, so many ties


@given(
    xy=pairs(st.integers(4, 40), ties, ties | st.floats(-1e3, 1e3, allow_subnormal=False))
    | pairs(st.integers(2, 3), ties, ties)
    | pairs(st.integers(2, 12), st.just(7), ties),  # a constant vector
    swap=st.booleans(),
)
@settings(max_examples=300, deadline=None)
@example(xy=([1, 2], [3, 3]), swap=False)
@example(xy=([0.1, 0.1, 0.1], [1.0, 2.0, 3.0]), swap=True)
@example(xy=([0, 0, 0, 1], [0, 0, 0, 1.6201615829272901e-193]), swap=False)  # squares underflow
@example(xy=([0, 0, 0, 1], [0, 0, 0, 1e300]), swap=True)  # squares overflow
def test_spearman_and_pearson_match_scipy(xy, swap):
    """Tied integer vectors, n = 2 and 3, and constant vectors (NaN)."""
    x, y = (np.asarray(v, dtype=np.float64) for v in (xy[::-1] if swap else xy))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = stats.spearmanr(x, y).statistic
        r = stats.pearsonr(x, y).statistic
    _assert_matches_oracle(spearman(x, y), rho)
    _assert_matches_oracle(pearson(x, y), r)
    assert np.array_equal(average_ranks(x), stats.rankdata(x))


def test_score_items_cached_statistics_match_direct_pearson():
    """The pool's centred rows, and the gold rows centred block by block,
    give the bits of the direct helpers, for a pool of every entry or of
    some, on two gold matrices, each scored against a pool of its own."""
    d = paradigm_lexicon(12, seed=5)
    cfg = CueConfig(unit="phone", n=3)
    inv = build_inventory([cfg.cue_string(e) for e in d], cfg)
    C = build_cue_matrix([cfg.cue_string(e) for e in d], inv, cfg)
    space = simulate_vectors(d, dim=30, seed=4)
    forms = Forms.build(d, cfg)
    S_hat = (C.rows @ solve_endstate(C.rows, space.S).W)[forms.first]
    preds = centre(S_hat)
    for gold, restrict_ids in itertools.product(
        (space, SemanticSpace(S=np.roll(space.S, 1, axis=0), gold_keys=space.gold_keys)),
        (None, range(0, len(d), 2)),
    ):
        pool = GoldPool.build(gold, forms, restrict_ids=restrict_ids)
        for _ in range(2):
            results = score_items(preds, gold, pool, forms)
            r_own = results.r_target.tolist()
            assert r_own == rowwise_pearson(S_hat[forms.row], gold.S).tolist()
            best = pearson_matrix(S_hat, pool_rows(pool, gold)).argmax(axis=1)[forms.row]
            assert results.best_index.tolist() == best.tolist()


@pytest.mark.parametrize("pool_of", ["all", "train"])
def test_r_target_reads_the_pool_rows_bit_for_bit(pool_of):
    """score_items reads each entry's centred gold row from its pool row
    and copies and centres only the rows of entries outside the pool
    (semantics.pool=train's validation entries): r_target has the bits of
    copying and centring every entry's own row, also for shared, constant
    and rescaled rows."""
    d = paradigm_lexicon(12, seed=5)
    cfg = CueConfig(unit="phone", n=3)
    S = simulate_vectors(d, dim=30, seed=4).S
    S[[1, 3]] = S[0]  # one vector for three entries, as embeddings give homophones
    S[5] = 0.25  # no variance
    S[6] *= 1e-155  # a sum of squares that centre rescales
    space = SemanticSpace(S=S, gold_keys=[(e.lemma, e.case, e.number) for e in d])
    forms = Forms.build(d, cfg)
    train = sorted(split_random(d, 0.7, seed=3, cue_string_of=cfg.cue_string).train_ids)
    pool = GoldPool.build(space, forms, restrict_ids=None if pool_of == "all" else train)
    inside = sorted(i for ids in pool.entry_ids for i in ids)
    assert inside == (list(range(len(d))) if pool_of == "all" else train)
    assert [b for b in pool.row.tolist() if b >= 0] == [
        b for i in range(len(d)) for b, ids in enumerate(pool.entry_ids) if i in ids]
    assert 0 < len(inside) and (pool_of == "all" or len(inside) < len(d))
    preds = centre(np.random.default_rng(2).normal(size=(len(forms.first), 30)))
    with mock.patch.object(comprehension, "CHUNK_BYTES", 3 * 30 * 8):  # three rows a block
        got = score_items(preds, space, pool, forms).r_target
    expected = rowwise_pearson(preds.take(forms.row), centre(space.S.copy()))
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(got[5]) and not np.isnan(got[6])


# Values of the drawn matrices, one byte each: half the table holds the
# integers -2 to 2, so that rows tie, repeat and turn constant; the other
# half floats of full mantissa in [-8, 8].
_VALUES = np.concatenate([np.arange(128) % 5 - 2.0, np.random.default_rng(9).uniform(-8, 8, 128)])


def matrices(rows, dims):
    """A (rows, dims) matrix of _VALUES, drawn as one byte string."""
    size = rows * dims
    return st.binary(min_size=size, max_size=size).map(
        lambda raw: _VALUES[np.frombuffer(raw, dtype=np.uint8)].reshape(rows, dims))


@st.composite
def scoring_cases(draw):
    """Gold rows with duplicates, predictions with constant rows, homophone
    forms, and every way of choosing the pool and the gold space."""
    n = draw(st.integers(2, 9))
    dims = draw(st.integers(2, 40))  # past numpy's pairwise-summation block of 8
    forms = [f"W{draw(st.integers(0, n // 2))}" for _ in range(n)]
    distinct = draw(matrices(draw(st.integers(1, n)), dims))
    gold = distinct[draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))]
    n_forms = len(set(forms))
    S_hat = draw(matrices(n_forms, dims))  # one row per form
    for k in draw(st.sets(st.integers(0, n_forms - 1))):
        S_hat[k] = S_hat[k, 0]  # zero variance
    return dict(
        gold=gold, S_hat=S_hat, forms=forms,
        pool_ids=draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(sorted)),
        other_gold=draw(st.none() | matrices(n, dims)),
        chunk_bytes=draw(st.integers(8, 160)),
    )


def _one_block_centre(X):
    """centre's arithmetic on the whole matrix at once."""
    Xc = X - X.mean(axis=1, keepdims=True)
    constant = (X == X[:, :1]).all(axis=1)
    Xc[constant] = 0.0
    sq = (Xc**2).sum(axis=1)
    scale = ~constant & ((sq < 2.0**-500) | (sq > 2.0**500))
    Xc[scale] /= np.abs(Xc[scale]).max(axis=1, keepdims=True)
    sq[scale] = (Xc[scale] ** 2).sum(axis=1)
    return Xc, sq


def _one_block_pearson(A, B, rowwise=False):
    """pearson_matrix's, or rowwise_pearson's, arithmetic without row blocks."""
    (a, sa), (b, sb) = _one_block_centre(A), _one_block_centre(B)
    with np.errstate(invalid="ignore", divide="ignore"):
        if rowwise:
            den = np.sqrt(sa * sb)
            return np.where(den > 0, (a * b).sum(axis=1) / den, np.nan)
        an, bn = np.sqrt(sa), np.sqrt(sb)
        R = (a @ b.T) / np.outer(an, bn)
    R[an == 0, :] = np.nan
    R[:, bn == 0] = np.nan
    return R


_WIDE = np.random.default_rng(8).normal(size=(4, 37))


@given(case=scoring_cases())
@settings(max_examples=300, deadline=None)
@example(case=dict(  # one-row blocks of 37 dims: several pairwise-summation blocks per row
    gold=_WIDE[[0, 1, 1, 2]], S_hat=_WIDE[[1, 2, 0]] * 3.7 + 0.1, forms=["W0", "W1", "W0", "W2"],
    pool_ids=[0, 1, 3], other_gold=None, chunk_bytes=8,
))
def test_score_items_is_the_direct_pearson_on_copies(case):
    """Bit for bit, in row blocks of one to a few rows: a pool of every
    entry or of some, built from the gold matrix with duplicate rows or
    from a second one, and NaN for zero-variance rows.  The blocked
    helpers give the bits of one block."""
    n = len(case["gold"])
    d = Dataset([entry(f, f, "nominative", "singular") for f in case["forms"]])
    keys = [(f"K{i}",) for i in range(n)]
    space = SemanticSpace(S=case["gold"], gold_keys=keys)
    forms = Forms.build(d, CueConfig(unit="letter", n=2))
    gold = space if case["other_gold"] is None else SemanticSpace(S=case["other_gold"], gold_keys=keys)
    pool = GoldPool.build(gold, forms, restrict_ids=case["pool_ids"])
    S_hat = case["S_hat"].copy()
    per_entry = case["S_hat"][forms.row]
    with mock.patch.object(comprehension, "CHUNK_BYTES", case["chunk_bytes"]):
        results = score_items(centre(S_hat), gold, pool, forms)
        R = pearson_matrix(case["S_hat"], pool_rows(pool, gold))
        r_own = rowwise_pearson(per_entry, gold.S.copy())

    np.testing.assert_array_equal(R, _one_block_pearson(case["S_hat"], pool_rows(pool, gold)))
    np.testing.assert_array_equal(r_own, _one_block_pearson(per_entry, gold.S, True))
    assert np.array_equal(S_hat, case["S_hat"])
    assert [len(field) for field in results] == [n] * len(results)
    np.testing.assert_array_equal(results.r_target, r_own)
    reasons = [row[-1] for row in item_score_rows(results, split_random(d, 0.5, seed=0))][1:]
    for i, r in enumerate(R[forms.row]):
        if np.isnan(r).all():
            assert (results.best_index[i], results.best_key[i], reasons[i]) == (
                -1, None, "zero-variance prediction")
            assert not (results.correct_strict[i] or results.correct_lenient[i])
            continue
        best = int(np.nanargmax(r))
        at_best = pool.entry_ids[best]
        assert (results.best_index[i], results.best_key[i]) == (best, keys[at_best[0]])
        assert results.correct_strict[i] == (keys[i] in {keys[j] for j in at_best})
        assert results.correct_lenient[i] == (case["forms"][i] in {case["forms"][j] for j in at_best})


def test_score_items_leaves_its_input_unchanged():
    rng = np.random.default_rng(5)
    S = rng.normal(size=(4, 6))
    d = Dataset([entry(f"W{i}", f"W{i}", "nominative", "singular") for i in range(4)])
    space = SemanticSpace(S=S, gold_keys=[(i,) for i in range(4)])
    forms = Forms.build(d, CueConfig(unit="letter", n=2))
    pool = GoldPool.build(space, forms)
    preds = centre(S + rng.normal(scale=0.1, size=S.shape))
    before = [a.copy() for a in preds]
    score_items(preds, space, pool, forms)
    assert all(np.array_equal(a, b) for a, b in zip(preds, before))
    assert np.array_equal(space.S, S)


def test_gold_pool_keeps_no_copy_of_the_gold_matrix():
    d = paradigm_lexicon(6, seed=5)
    cfg = CueConfig(unit="phone", n=3)
    space = simulate_vectors(d, dim=12, seed=4)
    pool = GoldPool.build(space, Forms.build(d, cfg), restrict_ids=range(0, len(d), 2))
    assert not hasattr(pool, "gold_centred")
    arrays = [v for v in vars(pool).values() if isinstance(v, np.ndarray)]
    arrays += list(pool.centred)
    assert all(a.size < space.S.size for a in arrays)


def test_gold_pool_build_copies_no_gold_row():
    # Rows are deduplicated by the hash of their bytes, so while the pool
    # is built nothing of the size of the gold rows is held beside it.
    d = paradigm_lexicon(250)
    cfg = CueConfig(unit="phone", n=3)
    space = simulate_vectors(d, dim=1000, seed=4)
    forms = Forms.build(d, cfg)
    tracemalloc.start()
    try:
        pool = GoldPool.build(space, forms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pool_bytes = pool.centred.rows.nbytes + pool.centred.sq.nbytes
    assert pool_bytes > 7 * 2**20
    assert peak < 1.5 * pool_bytes


def test_gold_pool_rows_with_one_hash_stay_apart_unless_equal():
    d = paradigm_lexicon(6, seed=5)
    cfg = CueConfig(unit="phone", n=3)
    space = simulate_vectors(d, dim=12, seed=4)
    space = SemanticSpace(S=space.S[[0, 1, 0, 2, 1]], gold_keys=space.gold_keys[:5])
    forms = Forms.build(Dataset(list(d)[:5]), cfg)
    expected = GoldPool.build(space, forms)
    assert expected.entry_ids == [[0, 2], [1, 4], [3]]
    assert expected.form_ids == [{forms.row[0], forms.row[2]}, {forms.row[1], forms.row[4]},
                                 {forms.row[3]}]
    with mock.patch.object(mappings, "hash", lambda raw: 0, create=True):
        colliding = GoldPool.build(space, forms)
    assert colliding.entry_ids == expected.entry_ids
    assert (colliding.keys, colliding.form_ids) == (expected.keys, expected.form_ids)
    assert np.array_equal(colliding.centred.rows, expected.centred.rows)


class TestDistinctForms:
    """score_items with one prediction row per distinct form (Forms)."""

    @pytest.fixture()
    def case(self):
        d = paradigm_lexicon(12, seed=5)
        cfg = CueConfig(unit="phone", n=3)
        space = simulate_vectors(d, dim=30, seed=4)
        forms = Forms.build(d, cfg)
        # each form predicts its first entry's meaning, slightly off
        rng = np.random.default_rng(3)
        S_forms = space.S[forms.first] + 0.1 * rng.normal(size=(len(forms.first), 30))
        return d, cfg, space, GoldPool.build(space, forms), forms, S_forms

    def test_forms_index_each_entry_by_its_cue_string(self, case):
        d, cfg, _, _, forms, _ = case
        strings = [cfg.cue_string(e) for e in d]
        assert len(forms.first) == len(set(strings)) < len(d)
        assert list(forms.first) == sorted(strings.index(s) for s in set(strings))
        assert all(forms.first[forms.row[i]] == strings.index(s) for i, s in enumerate(strings))

    def test_entries_of_one_form_share_the_best_row_only(self, case):
        d, cfg, space, pool, forms, S_forms = case
        results = score_items(centre(S_forms), space, pool, forms)
        best, keys = results.best_index, results.best_key
        R = pearson_matrix(S_forms, pool_rows(pool, space))
        mixed_strict = 0
        for k in range(len(forms.first)):
            group = np.flatnonzero(forms.row == k).tolist()
            assert len({(best[i], keys[i], results.correct_lenient[i]) for i in group}) == 1
            if len(group) > 1:
                assert len(set(results.r_target[group])) == len(group)
                mixed_strict += len(set(results.correct_strict[group])) > 1
            for i in group:
                # the entry's own oracle: its form's nearest pool row, whose
                # entries' cue strings give the lenient credit
                at_best = pool.entry_ids[np.nanargmax(R[k])]
                assert (best[i], keys[i]) == (np.nanargmax(R[k]), space.gold_keys[at_best[0]])
                assert results.r_target[i] == pearson(S_forms[k], space.S[i])
                assert results.correct_strict[i] == (space.gold_keys[i] in pool.keys[best[i]])
                assert results.correct_lenient[i] == (
                    cfg.cue_string(d[i]) in {cfg.cue_string(d[j]) for j in at_best})
        assert mixed_strict > 0

    def test_forms_of_the_wrong_length_or_out_of_range_rejected(self, case):
        """Forms of another number of entries, and predictions of another
        number of forms: too few, so that a form names a row outside them,
        or one row per entry."""
        _, _, space, pool, forms, S_forms = case
        for preds, forms_given in (
            (S_forms, Forms(forms.first, forms.row[:-1])),
            (S_forms[:-1], forms),
            (S_forms[forms.row], forms),
        ):
            with pytest.raises(ComprehensionError, match="one row per form of the scored entries"):
                score_items(centre(preds), space, pool, forms_given)
