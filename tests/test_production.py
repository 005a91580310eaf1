"""Positional support, path enumeration, and synthesis by analysis."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _candidates_by_position,
    _surface,
    positional_targets,
)

from corpora import id_paths, model_from_dense, spell, spelling_model, toy_lexicon

PHONE3 = CueConfig(unit="phone", n=3)


def validate_path(cand, cfg):
    """Independent re-check of the path type invariants."""
    toks = [cfg.tokens(g) for g in cand.grams]
    assert toks[0][0] == cfg.boundary, "must start at a boundary gram"
    assert toks[-1][-1] == cfg.boundary, "must end at a boundary gram"
    for a, b in zip(toks, toks[1:]):
        assert a[-(len(b) - 1):] == b[:-1], "adjacent grams must overlap"
    assert merge_grams(cand.grams, cfg) == cand.surface


def validate_paths(paths, m):
    """validate_path for each of enumerate_paths' (cue ids, tolerated) paths,
    and no two of them spell the same surface."""
    surfaces = spell(paths, m)
    for (ids, _), surface in zip(paths, surfaces):
        validate_path(CandidatePath(grams=tuple(m.inventory.cues[j] for j in ids), surface=surface), m.cfg)
    assert len(set(surfaces)) == len(surfaces)


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


def recursive_paths(m, support, k=10, theta=0.008, tolerance=False, max_tolerated=2,
                    max_paths=None):
    """The recursive depth-first search that enumerate_paths replaced, kept
    as its oracle: surface -> (cue ids, tolerated count) of the first path
    that spells each surface, whether max_paths stopped the search, and
    how many complete paths it met."""
    per_pos = _candidates_by_position(m, support, k, theta, tolerance)
    cfg = m.cfg
    boundary = cfg.boundary
    tok = m.tokens
    n = cfg.n
    by_prefix = []
    for cands in per_pos:
        d = {}
        for j, weak in cands:
            d.setdefault(m.prefixes[j], []).append((j, weak))
        by_prefix.append(d)

    out = {}
    truncated, completed = False, 0
    budget = max_tolerated if tolerance else 0

    def dfs(path, tolerated):
        nonlocal truncated, completed
        if max_paths is not None and len(out) >= max_paths:
            truncated = True
            return False
        last = path[-1]
        if tok[last][-1] == boundary:
            completed += 1
            surface = _surface(tok[path[0]] + [tok[j][-1] for j in path[1:]], cfg)
            if surface not in out:
                out[surface] = (tuple(path), tolerated)
            return True
        depth = len(path)
        if depth >= m.max_len:
            return True
        nexts = by_prefix[depth].get(m.suffixes[last], []) if n > 1 else per_pos[depth]
        for j, weak in nexts:
            t = tolerated + int(weak)
            if t > budget:
                continue
            path.append(j)
            ok = dfs(path, t)
            path.pop()
            if not ok:
                return False
        return True

    for j, weak in per_pos[0]:
        if tok[j][0] != boundary:
            continue
        t = int(weak)
        if t > budget:
            continue
        if not dfs([j], t):
            break
    return out, truncated, completed


class TestPositionalTargets:
    def test_slots_follow_gram_order(self):
        inv = build_inventory(["al@"], PHONE3)
        T = positional_targets(["al@"], inv, PHONE3, margin=2)
        assert T.max_len == 5  # three grams, then the margin
        assert (T.n_items, T.n_cues) == (1, len(inv))
        # one (item, p * n_cues + j) pair per gram; positions 3 and 4 stay empty
        assert T.items.tolist() == [0, 0, 0]
        assert T.columns.tolist() == [inv.index["#al"], len(inv) + inv.index["al@"],
                                      2 * len(inv) + inv.index["l@#"]]

    def test_full_rank_inputs_interpolate_supports(self):
        d, cfg = toy_lexicon(30, seed=5)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        space = simulate_vectors(d, dim=50, seed=2)
        targets = positional_targets(strings, inv, cfg, margin=2)
        model = train_positional(space.S, targets, inv, cfg)
        for i, s in enumerate(strings):
            sup = dense_support(model, space.S[i])
            for p, g in enumerate(extract_grams(s, cfg)):
                assert np.argmax(sup[p]) == inv.index[g]

    def test_negative_margin_rejected(self):
        inv = build_inventory(["al@"], PHONE3)
        with pytest.raises(ProductionError, match="margin must be >= 0"):
            positional_targets(["al@"], inv, PHONE3, margin=-1)


class TestEnumeratePaths:
    def setup_method(self):
        self.inv = build_inventory(["al@", "alu"], PHONE3)
        # grams: #al, al@, l@#, alu, lu#

    def test_single_concentrated_chain(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": 1.0}, {"l@#": 1.0}], self.inv, PHONE3
        )
        paths = enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.5)
        assert spell(paths, m) == ["al@"]
        validate_paths(paths, m)

    def test_theta_above_all_supports_empty(self):
        m = support_model(
            [{"#al": 0.3}, {"al@": 0.3}, {"l@#": 0.3}], self.inv, PHONE3
        )
        assert enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.9) == []

    def test_branching_paths(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": 0.9, "alu": 0.8}, {"l@#": 0.9, "lu#": 0.8}],
            self.inv, PHONE3,
        )
        paths = enumerate_paths(m, support_of(m, [1.0]), k=5, theta=0.5)
        assert set(spell(paths, m)) == {"al@", "alu"}
        validate_paths(paths, m)

    def test_raising_theta_never_enlarges_candidates(self):
        rng = np.random.default_rng(0)
        W = rng.random((4, 1, len(self.inv)))
        m = model_from_dense(W, self.inv, PHONE3)
        previous = None
        for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            surfaces = set(spell(enumerate_paths(m, support_of(m, [1.0]), k=5, theta=theta), m))
            if previous is not None:
                assert surfaces <= previous
            previous = surfaces

    def test_tolerance_budget_controls_weak_grams(self):
        m = support_model(
            [{"#al": 1.0}, {"al@": 0.01}, {"l@#": 0.01}], self.inv, PHONE3
        )
        x = np.array([1.0])
        assert enumerate_paths(m, support_of(m, x), k=5, theta=0.5, tolerance=False) == []
        assert enumerate_paths(m, support_of(m, x), k=5, theta=0.5, tolerance=True, max_tolerated=1) == []
        found = enumerate_paths(m, support_of(m, x), k=5, theta=0.5, tolerance=True, max_tolerated=2)
        surfaces = spell(found, m)
        assert "al@" in surfaces, "two weak grams fit into the budget of two"
        ids = tuple(self.inv.index[g] for g in ("#al", "al@", "l@#"))
        assert found[surfaces.index("al@")] == (ids, 2)
        assert all(t <= 2 for _, t in found)

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
        assert [(s, t) for s, (_, t) in zip(spell(paths, m), paths)] == [("alu", 1)]
        wider = enumerate_paths(m, sup, k=5, theta=0.5, tolerance=True, max_tolerated=1)
        assert spell(wider, m) == ["alu", "al@"]

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
        for ids, _ in enumerate_paths(m, support_of(m, [1.0]), k=5, theta=theta):
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
                validate_paths(paths, m)

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


class TestRecursiveOracle:
    """enumerate_paths against the recursive search it replaced."""

    def capped(self, m, sup, cap):
        paths = enumerate_paths(m, sup, k=6, theta=0.0, max_paths=cap)
        oracle, truncated, completed = recursive_paths(m, sup, k=6, theta=0.0, max_paths=cap)
        assert completed == len(oracle)
        assert list(paths) == list(oracle.values())
        assert paths.truncated == truncated
        return paths

    def branching(self):
        """Two paths, #al al@ l@# and then #al alu lu#: the second is the
        last node the search visits."""
        inv = build_inventory(["al@", "alu"], PHONE3)
        m = support_model([{"#al": 1.0}, {"al@": 0.9, "alu": 0.8}, {"l@#": 0.9, "lu#": 0.8}],
                          inv, PHONE3)
        return m, support_of(m, [1.0])

    def random(self):
        """Paths whose last is followed by dead ends."""
        rng = np.random.default_rng(3)
        inv = build_inventory(["bada", "dalu", "badalu", "luba"], PHONE3)
        m = model_from_dense(np.abs(rng.normal(size=(6, 1, len(inv)))), inv, PHONE3)
        return m, support_of(m, [1.0])

    def test_max_paths_reached_at_a_completed_path(self):
        m, sup = self.branching()
        full = self.capped(m, sup, None)
        assert len(full) == 2 and not full.truncated
        paths = self.capped(m, sup, 1)
        assert paths.truncated and paths == full[:1]
        m, sup = self.random()
        full = self.capped(m, sup, None)
        for cap in range(1, len(full)):
            paths = self.capped(m, sup, cap)
            assert paths.truncated and paths == full[:cap]

    def test_max_paths_reached_at_the_last_path(self):
        m, sup = self.branching()
        paths = self.capped(m, sup, 2)
        assert not paths.truncated and spell(paths, m) == ["al@", "alu"]
        # Here a dead end follows the last path, and visiting it is where the
        # search stops: it is flagged as truncated with every path found.
        m, sup = self.random()
        full = self.capped(m, sup, None)
        paths = self.capped(m, sup, len(full))
        assert paths.truncated and paths == full
        assert not self.capped(m, sup, len(full) + 1).truncated

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 3]),
        unit=st.sampled_from(["letter", "syllable"]),
        tolerance=st.booleans(),
        max_tolerated=st.integers(0, 3),
        max_paths=st.one_of(st.none(), st.integers(1, 50)),
        k=st.integers(1, 12),
        theta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_generated_models(self, seed, n, unit, tolerance, max_tolerated, max_paths, k, theta):
        # Two units and non-negative supports, so that many grams overlap
        # and are supported: some items have dozens of paths.
        rng = np.random.default_rng(seed)
        cfg = CueConfig(unit=unit, n=n)
        units = ["a", "b"] if unit == "letter" else ["ba", "lu"]
        forms = [cfg.joiner.join(rng.choice(units, size=int(rng.integers(1, 6))))
                 for _ in range(int(rng.integers(1, 9)))]
        inv = build_inventory(forms, cfg)
        max_len = max(len(extract_grams(f, cfg)) for f in forms) + int(rng.integers(0, 3))
        dims = 2
        W = np.abs(rng.normal(size=(max_len, dims, len(inv))))
        W *= rng.random((max_len, 1, len(inv))) < 0.8
        m = model_from_dense(W, inv, cfg)
        sup = support_of(m, np.abs(rng.normal(size=dims)))
        kwargs = dict(k=k, theta=theta, tolerance=tolerance, max_tolerated=max_tolerated,
                      max_paths=max_paths)
        paths = enumerate_paths(m, sup, **kwargs)
        oracle, truncated, completed = recursive_paths(m, sup, **kwargs)
        assert completed == len(oracle), "the oracle's surface dictionary dropped a path"
        assert list(paths) == list(oracle.values())
        assert paths.truncated == truncated
        assert spell(paths, m) == list(oracle)


class TestSynthesizeByAnalysis:
    def test_orders_by_correlation(self):
        d, cfg = toy_lexicon(20, seed=9)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=40, seed=3)
        F = solve_endstate(C.rows, space.S)

        m = spelling_model(inv, cfg)
        cands = [
            CandidatePath(grams=tuple(extract_grams(s, cfg)), surface=s)
            for s in strings[:4]
        ]
        ranked = synthesize_by_analysis(id_paths(cands, inv), F, space.S[0], m)
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
        target, m = space.S[2], spelling_model(inv, cfg)
        base = [c.surface for c in synthesize_by_analysis(id_paths(cands, inv), F, target, m)]
        scaled = [c.surface for c in synthesize_by_analysis(id_paths(cands, inv), F, 7.5 * target, m)]
        assert base == scaled

    def test_deterministic_tie_break_by_surface(self):
        from ldlkit import Mapping

        cfg = CueConfig(unit="phone", n=2)
        inv = build_inventory(["ba", "ab"], cfg)
        assert inv.cues == ["#b", "ba", "a#", "#a", "ab", "b#"]
        # #a, ab and b# repeat the rows of #b, ba and a#: the two paths have
        # the same projection.  Small integers with mean 0 keep every sum exact.
        rows = [[1.0, -1.0, 0.0], [0.0, 2.0, -2.0], [3.0, 0.0, -3.0]]
        F = Mapping(np.array(rows + rows))
        c1 = CandidatePath(grams=("#b", "ba", "a#"), surface="ba")
        c2 = CandidatePath(grams=("#a", "ab", "b#"), surface="ab")
        ranked = synthesize_by_analysis(id_paths([c1, c2], inv), F, np.array([1.0, 2.0, -3.0]),
                                        spelling_model(inv, cfg))
        assert ranked[0].score == ranked[1].score and not np.isnan(ranked[0].score)
        assert [c.surface for c in ranked] == ["ab", "ba"]

    def test_degenerate_projections_rank_last(self):
        from ldlkit import CueInventory, Mapping

        inv = CueInventory(["#a", "a#", "#b", "b#", "#c", "c#", "ba"])
        F = Mapping(np.array([
            [0.0, 0.0, 0.0, 0.0],     # #a: a zero row
            [2.5, 2.5, 2.5, 2.5],     # a#: a constant row
            [1.0, -1.0, 0.5, 2.0],
            [0.0, 3.0, -1.0, 1.0],
            [-7.0, -7.0, -7.0, -7.0],  # #c: another constant row
            [4.0, 4.0, 4.0, 4.0],     # c#: and another
            [0.5, 0.0, 2.0, -1.0],
        ]))
        cands = [
            CandidatePath(grams=("#a", "a#"), surface="a"),
            CandidatePath(grams=("#b", "b#"), surface="b"),
            CandidatePath(grams=("#c", "c#"), surface="c"),
            CandidatePath(grams=("#b", "ba", "a#"), surface="ba"),
        ]
        m = spelling_model(inv, CueConfig(unit="phone", n=2))
        ranked = synthesize_by_analysis(id_paths(cands, inv), F, np.array([0.2, 1.0, -0.3, 0.4]), m)
        assert [c.surface for c in ranked[2:]] == ["a", "c"]
        assert all(np.isnan(c.score) for c in ranked[2:])
        assert not any(np.isnan(c.score) for c in ranked[:2])
        # A constant target has no variance either: every score is NaN.
        flat = synthesize_by_analysis(id_paths(cands, inv), F, np.full(4, 0.7), m)
        assert [c.surface for c in flat] == ["a", "b", "ba", "c"]
        assert all(np.isnan(c.score) for c in flat)

    def test_repeated_gram_counts_once(self):
        from ldlkit import CueInventory, Mapping

        # Paths of nine and more cues: numpy sums eight or more terms pairwise,
        # so the repeat must not move a cue's place in the sums.
        # One-letter cues of unigram paths: a path spells its cues in order,
        # and once spells a surface that sorts before twice's.
        inv = CueInventory(list("lkjihgfedcba"))
        m = spelling_model(inv, CueConfig(unit="letter", n=1))
        F = Mapping(np.random.default_rng(3).normal(size=(12, 6)))
        grams = tuple(inv.cues[:9])
        once = CandidatePath(grams=grams, surface="lkjihgfed")
        twice = CandidatePath(grams=grams[:2] + grams[1:], surface="lkkjihgfed")
        other = CandidatePath(grams=grams[:8] + (inv.cues[11],), surface="lkjihgfea")
        ranked = synthesize_by_analysis(id_paths([twice, other, once], inv), F, np.arange(6.0) ** 2, m)
        by_surface = {c.surface: c.score for c in ranked}
        assert by_surface[once.surface] == by_surface[twice.surface]
        assert by_surface[once.surface] != by_surface[other.surface]
        surfaces = [c.surface for c in ranked]
        assert surfaces.index(once.surface) + 1 == surfaces.index(twice.surface)

    def test_empty_candidates(self):
        F = solve_endstate(np.eye(2), np.ones((2, 2)))
        cfg = CueConfig(unit="phone", n=2)
        inv = build_inventory(["ab"], cfg)
        assert synthesize_by_analysis([], F, np.ones(2), spelling_model(inv, cfg)) == []


class TestProduce:
    def build(self, n_forms=30, seed=11):
        d, cfg = toy_lexicon(n_forms, seed=seed)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=n_forms + 20, seed=5)
        F = solve_endstate(C.rows, space.S)
        G = solve_endstate(space.S, C.rows)
        targets = positional_targets(strings, inv, cfg, margin=2)
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
