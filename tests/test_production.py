"""Positional support, path enumeration, and synthesis by analysis."""

import gc
import weakref

import numpy as np
import pytest

from ldlkit import (
    CueConfig,
    build_cue_matrix,
    build_inventory,
    enumerate_paths,
    merge_grams,
    produce,
    simulate_vectors,
    solve_endstate,
    synthesize_by_analysis,
    train_positional,
)
from ldlkit.cues import extract_grams
from ldlkit.production import (
    CandidatePath,
    ProductionError,
    ProductionParams,
    positional_targets,
)

from corpora import id_paths, model_from_dense, toy_lexicon

PHONE3 = CueConfig(unit="phone", n=3)


def validate_path(cand, cfg):
    """Independent re-check of the path type invariants."""
    toks = [cfg.tokens(g) for g in cand.grams]
    assert toks[0][0] == cfg.boundary, "must start at a boundary gram"
    assert toks[-1][-1] == cfg.boundary, "must end at a boundary gram"
    for a, b in zip(toks, toks[1:]):
        assert a[-(len(b) - 1):] == b[:-1], "adjacent grams must overlap"
    assert merge_grams(cand.grams, cfg) == cand.surface


def validate_paths(paths, inv, cfg):
    """validate_path for each of enumerate_paths' surface -> (cue ids, tolerated)."""
    for surface, (ids, _) in paths.items():
        validate_path(CandidatePath(grams=tuple(inv.cues[j] for j in ids), surface=surface), cfg)


def support_model(rows_by_position, inv, cfg):
    """Hand-built model: a 1-dim input of [1.0] selects the given supports."""
    W = np.zeros((len(rows_by_position), 1, len(inv)))
    for p, row in enumerate(rows_by_position):
        for gram, value in row.items():
            W[p, 0, inv.index[gram]] = value
    return model_from_dense(W, inv, cfg)


def support_of(m, x):
    """One input's compact (n_attested,) support row."""
    return m.supports(np.atleast_2d(x))[0]


def dense_support(m, x):
    """One input's supports of every cue at every position, (max_len, n_cues)."""
    out = np.zeros(m.max_len * len(m.inventory))
    out[m.columns] = support_of(m, x)
    return out.reshape(m.max_len, len(m.inventory))


class TestPositionalTargets:
    def test_slots_follow_gram_order(self):
        inv = build_inventory(["al@"], PHONE3)
        T = positional_targets(["al@"], inv, PHONE3, max_len=5)
        assert T.position(0)[0, inv.index["#al"]] == 1.0
        assert T.position(1)[0, inv.index["al@"]] == 1.0
        assert T.position(2)[0, inv.index["l@#"]] == 1.0
        assert T.position(3).sum() == T.position(4).sum() == 0
        assert sorted(T.columns) == [inv.index["#al"], len(inv) + inv.index["al@"],
                                     2 * len(inv) + inv.index["l@#"]]

    def test_full_rank_inputs_interpolate_supports(self):
        d, cfg = toy_lexicon(30, seed=5)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        space = simulate_vectors(d, dim=50, seed=2)
        max_len = max(len(extract_grams(s, cfg)) for s in strings) + 2
        targets = positional_targets(strings, inv, cfg, max_len)
        model = train_positional(space.S, targets, inv, cfg)
        for i, s in enumerate(strings):
            sup = dense_support(model, space.S[i])
            for p, g in enumerate(extract_grams(s, cfg)):
                assert np.argmax(sup[p]) == inv.index[g]

    def test_form_longer_than_max_len_rejected(self):
        inv = build_inventory(["al@"], PHONE3)
        with pytest.raises(Exception):
            positional_targets(["al@"], inv, PHONE3, max_len=2)


class TestEnumeratePaths:
    def setup_method(self):
        self.inv = build_inventory(["al@", "alu"], PHONE3)
        # grams: #al, al@, l@#, alu, lu#

    def test_single_concentrated_chain(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": 1.0}, {"l@#": 1.0}], self.inv, PHONE3
        )
        paths = enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.5)
        assert list(paths) == ["al@"]
        validate_paths(paths, self.inv, PHONE3)

    def test_theta_above_all_supports_empty(self):
        m = support_model(
            [{"#al": 0.3}, {"al@": 0.3}, {"l@#": 0.3}], self.inv, PHONE3
        )
        assert enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.9) == {}

    def test_branching_paths(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": 0.9, "alu": 0.8}, {"l@#": 0.9, "lu#": 0.8}],
            self.inv, PHONE3,
        )
        paths = enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.5)
        assert set(paths) == {"al@", "alu"}
        validate_paths(paths, self.inv, PHONE3)

    def test_raising_theta_never_enlarges_candidates(self):
        rng = np.random.default_rng(0)
        W = rng.random((4, 1, len(self.inv)))
        m = model_from_dense(W, self.inv, PHONE3)
        previous = None
        for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            surfaces = set(enumerate_paths(m, support_of(m, [1.0]), k=5, theta=theta))
            if previous is not None:
                assert surfaces <= previous
            previous = surfaces

    def test_tolerance_budget_controls_weak_grams(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": 0.01}, {"l@#": 0.01}], self.inv, PHONE3
        )
        x = np.array([1.0])
        assert enumerate_paths(m, support_of(m, x), k=5, theta=0.5, tolerance=False) == {}
        assert enumerate_paths(m, support_of(m, x), k=5, theta=0.5, tolerance=True, max_tolerated=1) == {}
        found = enumerate_paths(m, support_of(m, x), k=5, theta=0.5, tolerance=True, max_tolerated=2)
        assert "al@" in found, "two weak grams fit into the budget of two"
        ids = tuple(self.inv.index[g] for g in ("#al", "al@", "l@#"))
        assert found["al@"] == (ids, 2)
        assert all(t <= 2 for _, t in found.values())

    def test_unattested_cue_outranks_negative_support_in_tolerance_mode(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": -0.5}, {"l@#": 1.0, "lu#": 1.0}], self.inv, PHONE3
        )
        alu = self.inv.index["alu"]
        assert len(self.inv) + alu not in m.columns, "alu is never attested at position 1"
        assert dense_support(m, [1.0])[1, alu] == 0.0
        sup = support_of(m, [1.0])
        # The four unattested cues at position 1 (support exactly 0) fill the
        # top 4 ahead of al@ (-0.5); only alu continues #al.
        paths = enumerate_paths(m, sup, k=4, theta=0.5, tolerance=True, max_tolerated=1)
        assert [(s, t) for s, (_, t) in paths.items()] == [("alu", 1)]
        wider = enumerate_paths(m, sup, k=5, theta=0.5, tolerance=True, max_tolerated=1)
        assert list(wider) == ["alu", "al@"]

    def test_result_is_freed_without_the_cycle_collector(self):
        # An item's paths must go when its ranking is done, not at the next
        # collection: with the cycle collector off, dropping the result frees it.
        m = support_model([{"#al": 1.0}, {"al@": 1.0}, {"l@#": 1.0}], self.inv, PHONE3)
        gc.disable()
        try:
            paths = weakref.ref(enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.5))
            assert paths() is None
        finally:
            gc.enable()

    def test_dense_support_block_rejected(self):
        m = support_model([{"#al": 1.0}, {"al@": 1.0}, {"l@#": 1.0}], self.inv, PHONE3)
        with pytest.raises(ProductionError, match="attested columns"):
            enumerate_paths(m, dense_support(m, [1.0]), k=5, theta=0.5)

    def test_tolerance_off_all_grams_meet_theta(self):
        rng = np.random.default_rng(1)
        W = rng.random((4, 1, len(self.inv)))
        m = model_from_dense(W, self.inv, PHONE3)
        theta = 0.4
        sup = dense_support(m, [1.0])
        for ids, _ in enumerate_paths(m, support_of(m, [1.0]), k=5, theta=theta).values():
            for pos, j in enumerate(ids):
                assert sup[pos, j] >= theta

    def test_invariants_over_random_supports(self):
        corpus = ["bada", "dalu", "ba", "lu", "badalu"]
        inv = build_inventory(corpus, PHONE3)
        rng = np.random.default_rng(2)
        for trial in range(30):
            W = rng.normal(size=(6, 3, len(inv)))
            m = model_from_dense(W, inv, PHONE3)
            x = rng.normal(size=3)
            for tol in (False, True):
                paths = enumerate_paths(m, support_of(m, x), k=4, theta=0.1, tolerance=tol)
                validate_paths(paths, inv, PHONE3)

    def test_max_paths_truncates(self):
        rng = np.random.default_rng(3)
        corpus = ["bada", "dalu", "badalu", "luba"]
        inv = build_inventory(corpus, PHONE3)
        W = np.abs(rng.normal(size=(6, 1, len(inv))))
        m = model_from_dense(W, inv, PHONE3)
        full = enumerate_paths(m, support_of(m, [1.0]), k=6, theta=0.0)
        assert len(full) > 1 and not full.truncated
        capped = enumerate_paths(m, support_of(m, [1.0]), k=6, theta=0.0, max_paths=1)
        assert len(capped) == 1 and capped.truncated
        exact = enumerate_paths(m, support_of(m, [1.0]), k=6, theta=0.0, max_paths=len(full))
        assert len(exact) == len(full)


class TestSynthesizeByAnalysis:
    def test_orders_by_correlation(self):
        d, cfg = toy_lexicon(20, seed=9)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=40, seed=3)
        F = solve_endstate(C.rows, space.S)

        m = support_model([{}], inv, cfg)  # unused here, just for paths
        cands = [
            CandidatePath(grams=tuple(extract_grams(s, cfg)), surface=s)
            for s in strings[:4]
        ]
        ranked = synthesize_by_analysis(id_paths(cands, inv), F, space.S[0], inv)
        assert ranked[0].surface == strings[0]
        scores = [c.score for c in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0].score == pytest.approx(1.0, abs=1e-9)

    def test_ranking_invariant_under_positive_rescaling(self):
        d, cfg = toy_lexicon(15, seed=10)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=30, seed=4)
        F = solve_endstate(C.rows, space.S)
        cands = [
            CandidatePath(grams=tuple(extract_grams(s, cfg)), surface=s)
            for s in strings[:6]
        ]
        target = space.S[2]
        base = [c.surface for c in synthesize_by_analysis(id_paths(cands, inv), F, target, inv)]
        scaled = [c.surface for c in synthesize_by_analysis(id_paths(cands, inv), F, 7.5 * target, inv)]
        assert base == scaled

    def test_deterministic_tie_break_by_surface(self):
        inv = build_inventory(["ba", "ab"], CueConfig(unit="phone", n=2))
        F = solve_endstate(np.eye(len(inv)), np.ones((len(inv), 3)))
        # identical cue sets -> identical projections -> tie on score
        c1 = CandidatePath(grams=("#b", "ba", "a#"), surface="ba")
        c2 = CandidatePath(grams=("#a", "ab", "b#"), surface="ab")
        # give both the same grams so scores tie exactly
        c2 = CandidatePath(grams=c1.grams, surface="ab")
        ranked = synthesize_by_analysis(id_paths([c1, c2], inv), F, np.array([1.0, 2.0, 3.0]), inv)
        assert [c.surface for c in ranked] == ["ab", "ba"]

    def test_degenerate_projections_rank_last(self):
        from ldlkit import CueInventory, Mapping

        inv = CueInventory(["#a", "a#", "#b", "b#", "#c"])
        F = Mapping(np.array([
            [0.0, 0.0, 0.0, 0.0],     # #a: a zero row
            [2.5, 2.5, 2.5, 2.5],     # a#: a constant row
            [1.0, -1.0, 0.5, 2.0],
            [0.0, 3.0, -1.0, 1.0],
            [-7.0, -7.0, -7.0, -7.0],  # #c: another constant row
        ]))
        cands = [
            CandidatePath(grams=("#a", "a#"), surface="a"),
            CandidatePath(grams=("#b", "b#"), surface="b"),
            CandidatePath(grams=("#c", "a#", "#a"), surface="c"),
            CandidatePath(grams=("#b", "a#"), surface="ba"),
        ]
        ranked = synthesize_by_analysis(id_paths(cands, inv), F, np.array([0.2, 1.0, -0.3, 0.4]), inv)
        assert [c.surface for c in ranked[2:]] == ["a", "c"]
        assert all(np.isnan(c.score) for c in ranked[2:])
        assert not any(np.isnan(c.score) for c in ranked[:2])
        # A constant target has no variance either: every score is NaN.
        flat = synthesize_by_analysis(id_paths(cands, inv), F, np.full(4, 0.7), inv)
        assert [c.surface for c in flat] == ["a", "b", "ba", "c"]
        assert all(np.isnan(c.score) for c in flat)

    def test_repeated_gram_counts_once(self):
        from ldlkit import CueInventory, Mapping

        # Paths of nine and more cues: numpy sums eight or more terms pairwise,
        # so the repeat must not move a cue's place in the sums.
        inv = CueInventory([f"g{j}" for j in range(12)])
        F = Mapping(np.random.default_rng(3).normal(size=(12, 6)))
        grams = tuple(inv.cues[:9])
        once = CandidatePath(grams=grams, surface="once")
        twice = CandidatePath(grams=grams[:2] + grams[1:], surface="twice")
        other = CandidatePath(grams=grams[:8] + (inv.cues[11],), surface="other")
        ranked = synthesize_by_analysis(id_paths([twice, other, once], inv), F, np.arange(6.0) ** 2, inv)
        by_surface = {c.surface: c.score for c in ranked}
        assert by_surface["once"] == by_surface["twice"]
        assert by_surface["once"] != by_surface["other"]
        surfaces = [c.surface for c in ranked]
        assert surfaces.index("once") + 1 == surfaces.index("twice")

    def test_empty_candidates(self):
        F = solve_endstate(np.eye(2), np.ones((2, 2)))
        inv = build_inventory(["ab"], CueConfig(unit="phone", n=2))
        assert synthesize_by_analysis([], F, np.ones(2), inv) == []


class TestProduce:
    def build(self, n_forms=30, seed=11):
        d, cfg = toy_lexicon(n_forms, seed=seed)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=n_forms + 20, seed=5)
        F = solve_endstate(C.rows, space.S)
        G = solve_endstate(space.S, C.rows)
        max_len = max(len(extract_grams(s, cfg)) for s in strings) + 2
        targets = positional_targets(strings, inv, cfg, max_len)
        model = train_positional(space.S @ G.W, targets, inv, cfg)
        return d, cfg, strings, space, F, G, model

    def test_round_trip_on_trained_forms(self):
        d, cfg, strings, space, F, G, model = self.build()
        params = ProductionParams(k=10, theta=0.1)
        for i, s in enumerate(strings):
            res = produce(space.S[i], G, model, F, params)
            assert res.best is not None
            assert res.best.surface == s
            assert res.best is res.top_n[0] and len(res.top_n) <= params.top_n
            for cand in res.top_n:
                validate_path(cand, cfg)

    def test_empty_candidate_set_is_failure(self):
        d, cfg, strings, space, F, G, model = self.build(n_forms=10, seed=12)
        params = ProductionParams(k=10, theta=1e9)
        res = produce(space.S[0], G, model, F, params)
        assert res.best is None
        assert res.n_candidates == 0
        assert not res.truncated

    def test_precomputed_support_matches_own(self):
        d, cfg, strings, space, F, G, model = self.build(n_forms=10, seed=13)
        params = ProductionParams(k=10, theta=0.1)
        support = model.search_supports((space.S[0] @ G.W)[None], params)[0]
        own = produce(space.S[0], G, model, F, params)
        given = produce(space.S[0], G, model, F, params, support=support)
        assert [(c.surface, c.score) for c in own.top_n] == [(c.surface, c.score) for c in given.top_n]


class TestProductionParams:
    @pytest.mark.parametrize(
        "kwargs,message",
        [({"k": 0}, "k must be >= 1"), ({"k": -3}, "k must be >= 1"),
         ({"theta": -0.1}, "theta must be >= 0"), ({"input_space": "bogus"}, "input space"),
         ({"top_n": 0}, "top_n must be >= 1"), ({"top_n": -1}, "top_n must be >= 1"),
         ({"max_tolerated": -1}, "max_tolerated must be >= 0"),
         ({"max_paths": 0}, "max_paths must be >= 1")],
    )
    def test_rejected_when_built(self, kwargs, message):
        with pytest.raises(ProductionError, match=message):
            ProductionParams(**kwargs)
        if kwargs.keys() <= {"k", "theta", "max_tolerated", "max_paths"}:
            # The path search checks its own parameters' ranges the same way.
            inv = build_inventory(["al@"], PHONE3)
            m = support_model([{"#al": 1.0}, {"al@": 1.0}, {"l@#": 1.0}], inv, PHONE3)
            with pytest.raises(ProductionError, match=message):
                enumerate_paths(m, support_of(m, [1.0]), tolerance=True, **kwargs)

    def test_boundary_values_accepted(self):
        ProductionParams(k=1, theta=0.0, input_space="semantics", top_n=1, max_tolerated=0,
                         max_paths=1)
