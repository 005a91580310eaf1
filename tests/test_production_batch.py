"""Batched, compact positional support against the per-item dense path."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlkit import experiments as ex
from ldlkit.cues import CueConfig, CueInventory, extract_grams
from ldlkit.lexicon import save_dataset
from ldlkit.production import (
    CandidatePath,
    PositionalSupportModel,
    ProductionParams,
    _position_candidates,
    positional_targets,
    produce,
    synthesize_by_analysis,
)

from corpora import paradigm_lexicon

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
    return rows * 8 * (m.max_len * len(m.inventory) + m.columns.size)


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
    inv = CueInventory([f"#{chr(97 + j)}#" for j in range(n_cues)])
    m = PositionalSupportModel.from_dense(W, inv, CueConfig(unit="letter", n=3))
    assert m.weights.shape == (input_dim, int(np.any(W != 0.0, axis=1).sum()))

    rows_per_chunk = 3
    n = {"one item": 1, "one chunk": rows_per_chunk, "several chunks": 2 * rows_per_chunk + 1}[batch]
    X = rng.normal(size=(n, input_dim))
    X -= np.outer(X @ u / (u @ u), u)
    params = ProductionParams(k=k, theta=0.005, tolerance=tolerance)

    for x, block in zip(X, m.supports(X)):
        bound = 2 * (input_dim + 1) * EPS * dense_supports(np.abs(W), np.abs(x))
        assert np.all(np.abs(block - dense_supports(W, x)) <= bound)
        assert np.all(block[~np.any(W != 0.0, axis=1)] == 0.0), "unattested cues are exactly 0"

    calls = []
    supports = m.supports
    m.supports = lambda X: calls.append(len(X)) or supports(X)
    with mock.patch.object(ex, "SUPPORT_CHUNK_BYTES", chunk_budget(m, rows_per_chunk)):
        blocks = list(ex._support_blocks(m, X, params))
    assert calls == [min(rows_per_chunk, n - s) for s in range(0, n, rows_per_chunk)]
    assert len(blocks) == n
    for x, block in zip(X, blocks):
        ref = input_order_supports(W, x)
        for p in range(max_len):
            assert _position_candidates(block[p], k, params.theta, tolerance) == \
                _position_candidates(ref[p], k, params.theta, tolerance)


def test_from_dense_keeps_attested_columns_in_flat_order():
    W = np.zeros((2, 1, 3))
    W[0, 0, 2], W[1, 0, 0] = 5.0, -1.0
    inv = CueInventory(["#a", "a#", "#b"])
    m = PositionalSupportModel.from_dense(W, inv, CueConfig(unit="letter", n=2))
    assert m.columns.tolist() == [2, 3]
    assert m.weights.tolist() == [[5.0, -1.0]]
    assert m.supports(np.array([[2.0]])).tolist() == [[[0.0, 0.0, 10.0], [-2.0, 0.0, 0.0]]]


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
    dense = PositionalSupportModel.from_dense(W, m.inventory, m.cfg)
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
    for i, got in zip(ids, batched):
        s = state.space.S[i]
        ref = produce(s, G, m, F, params, support=dense_supports(W, s @ G.W))
        assert summary(got) == summary(ref)


def test_synthesis_matrix_is_the_candidates_cue_rows(pipeline):
    state, _, _ = pipeline
    m, F, cfg = state.positional, state.F, state.cue_cfg
    forms = [cfg.cue_string(e) for e in state.split.train][:20]
    cands = [CandidatePath(grams=tuple(extract_grams(f, cfg)), surface=f) for f in dict.fromkeys(forms)]
    rows = np.zeros((len(cands), len(m.inventory)))
    for i, c in enumerate(cands):
        for g in c.grams:
            rows[i, m.inventory.index[g]] = 1.0
    projected = dict(zip((c.surface for c in cands), rows @ F.W))
    ranked = synthesize_by_analysis(cands, F, state.space.S[state.split.train_ids[0]], m.inventory)
    assert len(ranked) == len(cands) > 1
    for c in ranked:
        assert np.array_equal(c.projected_semantics, projected[c.surface])
