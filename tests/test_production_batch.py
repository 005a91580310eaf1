"""Batched, compact positional support against the per-item dense path."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldlkit import experiments as ex
from ldlkit import production
from ldlkit.comprehension import pearson_matrix
from ldlkit.cues import CueConfig, CueInventory, extract_grams
from ldlkit.lexicon import save_dataset
from ldlkit.mappings import Mapping
from ldlkit.production import (
    CandidatePath,
    PositionalSupportModel,
    ProductionParams,
    _candidates_by_position,
    positional_targets,
    produce,
    synthesize_by_analysis,
)

from corpora import id_paths, model_from_dense, paradigm_lexicon, spelling_model

EPS = np.finfo(np.float64).eps


def dense_supports(W, x):
    """Reference: one item's supports over the dense (max_len, input_dim, n_cues) tensor."""
    return np.einsum("i,pij->pj", x, W)


def input_order_supports(W, x):
    """Reference: the same sums, added term by term in input order."""
    acc = np.zeros((W.shape[0], W.shape[2]))
    for i in range(W.shape[1]):
        acc = acc + x[i] * W[:, i, :]
    return acc


def dense_block(m, row):
    """One compact support row scattered into (max_len, n_cues), unattested cues at 0."""
    out = np.zeros(m.max_len * len(m.inventory))
    out[m.columns] = row
    return out.reshape(m.max_len, len(m.inventory))


def dense_candidates(support, k, theta, tolerance):
    """Reference: the selection over one position's dense row, as the path
    search made it over (items, max_len, n_cues) support blocks: the top k
    by argpartition, ordered by (-support, cue index)."""
    k = min(k, support.size)
    top = np.argpartition(-support, k - 1)[:k] if k < support.size else np.arange(support.size)
    order = top[np.lexsort((top, -support[top]))]
    return [(int(j), bool(support[j] < theta)) for j in order if tolerance or support[j] >= theta]


def check_dense_top_k(got, support, k, theta, tolerance):
    """got is one position's top k over the dense row support: in stable
    order by (-support, cue index), the first k, below-theta cues weak
    and kept only in tolerance mode.  Among cues tied at the k-th value,
    which ones are taken is left to the selection."""
    order = sorted(range(support.size), key=lambda j: (-support[j], j))[:k]
    kth = support[order[-1]]
    expected = [(j, bool(support[j] < theta)) for j in order if tolerance or support[j] >= theta]
    above = [c for c in expected if support[c[0]] > kth]
    assert got[: len(above)] == above
    tied = got[len(above) :]
    assert len(tied) == len(expected) - len(above)
    assert [j for j, _ in tied] == sorted({j for j, _ in tied})
    assert all(support[j] == kth and weak == bool(kth < theta) for j, weak in tied)


def dense_solve(state):
    """Reference: the dense tensor, one solve per position over every cue."""
    cfg = state.cue_cfg
    forms = [cfg.cue_string(e) for e in state.split.train]
    t = positional_targets(forms, state.C.inventory, cfg, state.positional.max_len)
    targets = np.zeros((t.n_items, t.max_len * t.n_cues))
    targets[t.items, t.columns] = 1.0
    targets = targets.reshape(t.n_items, t.max_len, t.n_cues)
    pinv = np.linalg.pinv(state.space.S[list(state.split.train_ids)] @ state.G.W)
    return np.stack([pinv @ targets[:, p, :] for p in range(targets.shape[1])])


def chunk_budget(m, rows):
    input_dim, n_attested = m.weights.shape
    return rows * (8 * (2 * input_dim + n_attested) + n_attested)


def letter_inventory(n_cues):
    return CueInventory([f"#{chr(97 + j)}#" for j in range(n_cues)])


def unigram_model(n_cues):
    """A spelling model of n_cues one-letter cues under letter unigrams: a path
    of them spells its cues in order, so distinct paths spell distinct surfaces."""
    return spelling_model(CueInventory([chr(97 + j) for j in range(n_cues)]),
                          CueConfig(unit="letter", n=1))


def check_candidates_against_dense(n_cues, positions, k, theta, tolerance):
    """positions[p] maps the cue ids attested at p to their supports."""
    columns = [p * n_cues + j for p, row in enumerate(positions) for j in sorted(row)]
    values = [row[j] for row in positions for j in sorted(row)]
    m = PositionalSupportModel(weights=np.array([values], dtype=np.float64).reshape(1, -1),
                               columns=np.array(columns, dtype=np.int64), max_len=len(positions),
                               inventory=letter_inventory(n_cues), cfg=CueConfig(unit="letter", n=3))
    row = m.supports(np.ones((1, 1)))[0]
    dense = dense_block(m, row)
    got = _candidates_by_position(m, row, k, theta, tolerance)
    assert len(got) == m.max_len
    for p in range(m.max_len):
        assert got[p] == dense_candidates(dense[p], k, theta, tolerance)
        check_dense_top_k(got[p], dense[p], k, theta, tolerance)


support_value = st.one_of(st.sampled_from([0.0, -0.0, 0.005, 0.5, -0.5, 1.0]),
                          st.floats(-2.0, 2.0, allow_nan=False))


@given(
    n_cues=st.integers(1, 10),
    k=st.integers(1, 13),
    theta=st.sampled_from([0.0, 0.005, 0.5]),
    tolerance=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_compact_candidates_are_the_dense_top_k(n_cues, k, theta, tolerance, data):
    cue = st.integers(0, n_cues - 1)
    positions = data.draw(st.lists(st.dictionaries(cue, support_value), min_size=1, max_size=4))
    check_candidates_against_dense(n_cues, positions, k, theta, tolerance)


@pytest.mark.parametrize("tolerance", [False, True])
@pytest.mark.parametrize("n_cues, positions, k, theta", [
    # exact zeros among the attested values tie with the unattested cues
    (6, [{1: 0.0, 4: 0.3, 5: -0.0}], 4, 0.005),
    # ties at the k-th place
    (8, [{2: 0.5, 5: 0.5, 6: 0.5, 7: 0.9}], 3, 0.005),
    (8, [{0: -0.5, 3: 0.5}], 3, 0.005),
    # a position with no attested column
    (5, [{0: 1.0}, {}, {4: 0.2}], 2, 0.005),
    # an inventory smaller than k plus the attested count, and than k
    (4, [{0: -1.0, 2: 0.7, 3: -0.2}], 3, 0.005),
    (3, [{1: -1.0, 2: 0.7}], 5, 0.0),
    # several positions, each with a tie at 0 at the k-th place
    (7, [{0: 0.9, 3: -0.2}, {2: 0.4, 6: 0.0}, {1: 0.7, 4: 0.1, 5: -0.3}], 3, 0.005),
])
def test_compact_candidates_named_cases(n_cues, positions, k, theta, tolerance):
    check_candidates_against_dense(n_cues, positions, k, theta, tolerance)


@given(
    seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(1, 4),
    input_dim=st.integers(2, 6),
    n_cues=st.integers(1, 8),
    zero_share=st.floats(0.0, 1.0),
    batch=st.sampled_from(["one item", "one chunk", "several chunks"]),
    k=st.integers(1, 8),
    tolerance=st.booleans(),
)
# Every cue attested at every position: no implicit zero may enter a cutoff.
@example(seed=1, max_len=2, input_dim=2, n_cues=5, zero_share=0.0, batch="one chunk", k=2,
         tolerance=True)
@settings(max_examples=60, deadline=None)
def test_search_supports_choose_as_input_order_sums(
    seed, max_len, input_dim, n_cues, zero_share, batch, k, tolerance
):
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=0.01, size=(max_len, input_dim, n_cues))
    # Near-singular weights: huge components along u, to which every input
    # is orthogonal, so a support's rounding depends on summation order.
    u = rng.normal(size=input_dim)
    W += 1e14 * u[None, :, None] * (rng.random((max_len, 1, n_cues)) < 0.5)
    W *= rng.random((max_len, 1, n_cues)) >= zero_share  # all-zero (position, cue) columns
    m = model_from_dense(W, letter_inventory(n_cues), CueConfig(unit="letter", n=3))
    assert m.weights.shape == (input_dim, int(np.any(W != 0.0, axis=1).sum()))

    rows_per_chunk = 3
    n = {"one item": 1, "one chunk": rows_per_chunk, "several chunks": 2 * rows_per_chunk + 1}[batch]
    X = rng.normal(size=(n, input_dim))
    X -= np.outer(X @ u / (u @ u), u)
    params = ProductionParams(k=k, theta=0.005, tolerance=tolerance)

    for x, row in zip(X, m.supports(X)):
        assert row.shape == m.columns.shape
        block = dense_block(m, row)
        bound = 2 * (input_dim + 1) * EPS * dense_supports(np.abs(W), np.abs(x))
        assert np.all(np.abs(block - dense_supports(W, x)) <= bound)
        assert np.all(block[~np.any(W != 0.0, axis=1)] == 0.0), "unattested cues are exactly 0"

    calls = []
    supports = m.supports
    m.supports = lambda X: calls.append(len(X)) or supports(X)
    with mock.patch.object(ex, "SUPPORT_CHUNK_BYTES", chunk_budget(m, rows_per_chunk)):
        rows = list(ex._support_blocks(m, X, params))
    assert calls == [min(rows_per_chunk, n - s) for s in range(0, n, rows_per_chunk)]
    assert len(rows) == n
    for x, row in zip(X, rows):
        ref = input_order_supports(W, x)
        got = _candidates_by_position(m, row, k, params.theta, tolerance)
        for p in range(max_len):
            assert got[p] == dense_candidates(ref[p], k, params.theta, tolerance)
            check_dense_top_k(got[p], ref[p], k, params.theta, tolerance)


def test_from_dense_keeps_attested_columns_in_flat_order():
    W = np.zeros((2, 1, 3))
    W[0, 0, 2], W[1, 0, 0] = 5.0, -1.0
    inv = CueInventory(["#a", "a#", "#b"])
    m = model_from_dense(W, inv, CueConfig(unit="letter", n=2))
    assert m.columns.tolist() == [2, 3]
    assert m.weights.tolist() == [[5.0, -1.0]]
    assert m.ends.tolist() == [0, 1, 2]
    row = m.supports(np.array([[2.0]]))
    assert row.tolist() == [[10.0, -2.0]]
    assert dense_block(m, row[0]).tolist() == [[0.0, 0.0, 10.0], [-2.0, 0.0, 0.0]]


@pytest.fixture(scope="module", params=["demo", "paradigm250"])
def pipeline(request, tmp_path_factory):
    if request.param == "demo":
        data, every = "data/demo.tsv", 1
    else:
        data = tmp_path_factory.mktemp("corpus") / "paradigm250.tsv"
        save_dataset(paradigm_lexicon(250), data)
        every = 8  # the dense per-item reference takes ~14 ms an item at 1,092 cues
    cfg = ex.load_config("data/demo.config", [f"data={data}", "output=unused"])
    state = ex.build_pipeline(cfg)
    ids = sorted(set(state.split.train_ids) | set(state.split.validation_ids))[::every]
    return state, ids, dense_solve(state)


def test_compact_weights_are_the_attested_dense_columns(pipeline):
    state, _, W = pipeline
    m = state.positional
    dense = model_from_dense(W, m.inventory, m.cfg)
    assert np.array_equal(dense.columns, m.columns)
    assert np.array_equal(dense.weights, m.weights)


def summary(res):
    return (res.n_candidates, res.truncated,
            [(c.surface, c.grams, c.tolerated_count, c.score) for c in res.top_n])


@pytest.mark.parametrize("tolerance", [False, True])
def test_batched_production_matches_per_item_dense_path(pipeline, tolerance):
    state, ids, W = pipeline
    params = dataclasses.replace(state.cfg.production_params(), tolerance=tolerance, top_n=10**9)
    m, G, F = state.positional, state.G, state.F
    with mock.patch.object(ex, "SUPPORT_CHUNK_BYTES", chunk_budget(m, 50)):
        batched = ex.produce_items(state.space.S[ids], G, m, F, params)
    assert sum(r.n_candidates for r in batched) > len(ids) // 2
    unattested = np.ones(W.shape[0] * W.shape[2], dtype=bool)
    unattested[m.columns] = False
    for i, got in zip(ids, batched):
        s = state.space.S[i]
        dense = dense_supports(W, s @ G.W).reshape(-1)
        assert not dense[unattested].any()
        ref = produce(s, G, m, F, params, support=dense[m.columns])
        assert summary(got) == summary(ref)


def test_candidate_paths_are_built_for_the_kept_top_n_only(pipeline, monkeypatch):
    state, ids, _ = pipeline
    params = dataclasses.replace(state.cfg.production_params(), tolerance=True)
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return CandidatePath(*args, **kwargs)

    monkeypatch.setattr(production, "CandidatePath", counted)
    results = ex.produce_items(state.space.S[ids], state.G, state.positional, state.F, params)
    kept = sum(len(r.top_n) for r in results)
    assert sum(r.n_candidates for r in results) > kept
    assert len(built) == kept


def test_production_allocates_no_dense_support_block(tmp_path):
    data = tmp_path / "paradigm40.tsv"
    save_dataset(paradigm_lexicon(40), data)
    cfg = ex.load_config("data/demo.config", [f"data={data}", "output=unused"])
    state = ex.build_pipeline(cfg)
    m, S = state.positional, state.space.S
    dense_bytes = S.shape[0] * m.max_len * len(m.inventory) * 8
    tracemalloc.start()
    try:
        results = ex.produce_items(S, state.G, m, state.F, cfg.production_params())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(r.best is not None for r in results) == len(results)
    assert peak < dense_bytes


# Cue-space synthesis scores against the Pearson of the dense C @ F.W rows.
SYNTHESIS_TOL = 1e-12


def dense_synthesis_scores(cands, F, target, inv):
    """Reference: each candidate's binary cue row (a repeated gram sets its
    cue once) mapped through F.W, correlated with the target.  The
    projection is the sum of the rows of F.W at the candidate's distinct
    cues, not a matrix product: a sum of rows that are each constant is
    constant, so its Pearson is NaN, where a product can spread it by an
    ulp or so, which then correlates."""
    proj = np.array([F.W[sorted({inv.index[g] for g in c.grams})].sum(axis=0) for c in cands])
    return pearson_matrix(proj, np.asarray(target, dtype=np.float64)[None, :])[:, 0]


def check_synthesis_against_dense(cands, F, target, m):
    """Scores within SYNTHESIS_TOL of the dense Pearson and NaN at the same
    candidates; the ranked order is the dense one wherever two dense
    scores lie more than SYNTHESIS_TOL apart.  Each candidate's surface is
    the one m spells for its grams."""
    inv = m.inventory
    dense = dict(zip((c.surface for c in cands), dense_synthesis_scores(cands, F, target, inv)))
    ranked = synthesize_by_analysis(id_paths(cands, inv), F, target, m)
    assert sorted(c.surface for c in ranked) == sorted(dense)
    for c in ranked:
        ref = dense[c.surface]
        assert np.isnan(c.score) == np.isnan(ref), (c.surface, c.score, ref)
        if not np.isnan(ref):
            assert abs(c.score - ref) <= SYNTHESIS_TOL, (c.surface, c.score, ref)
    for i, a in enumerate(ranked):
        for b in ranked[i + 1 :]:
            da, db = dense[a.surface], dense[b.surface]
            if np.isnan(da) or np.isnan(db):
                assert np.isnan(db) and (not np.isnan(da) or a.surface < b.surface)
            elif abs(da - db) > SYNTHESIS_TOL:
                assert da > db, (a.surface, da, b.surface, db)
    return ranked


def test_synthesis_matrix_is_the_candidates_cue_rows(pipeline):
    state, _, _ = pipeline
    m, F, cfg = state.positional, state.F, state.cue_cfg
    forms = [cfg.cue_string(e) for e in state.split.train][:20]
    cands = [CandidatePath(grams=tuple(extract_grams(f, cfg)), surface=f) for f in dict.fromkeys(forms)]
    target = state.space.S[state.split.train_ids[0]]
    ranked = check_synthesis_against_dense(cands, F, target, m)
    assert len(ranked) == len(cands) > 1
    assert not any(np.isnan(c.score) for c in ranked)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_cues=st.integers(1, 12),
    dims=st.integers(1, 6),
    n_cands=st.sampled_from([1, 2, 40]),
    max_grams=st.integers(1, 8),
    target=st.sampled_from(["varied", "constant"]),
)
@example(seed=0, n_cues=3, dims=4, n_cands=1, max_grams=1, target="varied")
# a candidate whose cues all have constant rows of F.W: its projection is constant
@example(seed=5, n_cues=8, dims=5, n_cands=1, max_grams=5, target="varied")
@settings(max_examples=200, deadline=None)
def test_cue_space_synthesis_is_the_dense_pearson(seed, n_cues, dims, n_cands, max_grams, target):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(n_cues, dims)) * rng.uniform(0.1, 10.0, size=(n_cues, 1))
    kind = rng.choice(["varied", "zero", "constant"], size=n_cues, p=[0.6, 0.2, 0.2])
    W[kind == "zero"] = 0.0
    W[kind == "constant"] = rng.normal(size=(int((kind == "constant").sum()), 1))
    m = unigram_model(n_cues)
    # Grams are drawn with replacement, so a path may repeat one.  A search
    # returns each path once, so a path drawn twice is kept once.
    draws = (rng.integers(0, n_cues, rng.integers(1, max_grams + 1)) for _ in range(n_cands))
    paths = dict.fromkeys(tuple(m.inventory.cues[j] for j in ids) for ids in draws)
    cands = [CandidatePath(grams=grams, surface="".join(grams)) for grams in paths]
    s = rng.normal(size=dims) if target == "varied" else np.full(dims, rng.normal())
    check_synthesis_against_dense(cands, Mapping(W), s, m)


def test_synthesis_of_cancelling_rows_is_the_dense_pearson():
    """Two cue rows that sum to almost nothing (exactly, in floating point):
    summed products of the rows would lose every digit of the sum, so the
    candidate is scored from the sum itself."""
    m = unigram_model(3)
    inv = m.inventory
    F = Mapping(np.array([[1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.000001], [0.5, -1.0, 2.0, 0.0]]))
    cands = [CandidatePath(grams=(inv.cues[0], inv.cues[1]), surface="ab"),
             CandidatePath(grams=(inv.cues[0], inv.cues[1], inv.cues[2]), surface="abc"),
             CandidatePath(grams=(inv.cues[1],), surface="b")]
    ranked = check_synthesis_against_dense(cands, F, np.array([0.3, -0.2, 0.1, -0.9]), m)
    assert [c.surface for c in ranked] == ["ab", "b", "abc"]


def test_synthesis_allocates_nothing_of_candidates_by_cues():
    rng = np.random.default_rng(5)
    n_cues, dims, n_cands = 4000, 20, 500
    m = unigram_model(n_cues)
    inv = m.inventory
    F = Mapping(rng.normal(size=(n_cues, dims)))
    used = rng.choice(n_cues, size=30, replace=False)
    cands = id_paths([CandidatePath(grams=tuple(inv.cues[j] for j in rng.choice(used, size=7)),
                                    surface=f"c{i}") for i in range(n_cands)], inv)
    dense_bytes = n_cands * n_cues * 8
    tracemalloc.start()
    try:
        ranked = synthesize_by_analysis(cands, F, rng.normal(size=dims), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranked) == n_cands
    assert peak < dense_bytes // 20
