"""Acceptance suite: one test per release criterion.

Each test prints one PASS/FAIL line (visible with `pytest -v -s` or in
captured output on failure).  Criterion 12 needs a real corpus in the
published schema and is skipped unless LDLKIT_CELEX_TSV points at one.
"""

import csv
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ldlkit import (
    CueConfig,
    Dataset,
    Forms,
    GoldPool,
    build_cue_matrix,
    build_inventory,
    evaluate,
    extract_grams,
    merge_grams,
    novel_cues,
    prune,
    sample_token_stream,
    simulate_vectors,
    solve_endstate,
    split_no_novel_cues,
    train_incremental,
    wh_update,
)
from ldlkit.comprehension import rowwise_pearson
from ldlkit.lexicon import save_dataset
from ldlkit.production import ProductionParams, positional_targets, produce, train_positional
from ldlkit.experiments import resolve_config, run_wug

from corpora import loss_gradient, noisy_scores, paradigm_lexicon, score_entries, toy_lexicon


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {label}")


@pytest.fixture(scope="module")
def toy100():
    """100-form lexicon with linearly independent triphone rows, plus its
    trained comprehension model (shared by criteria 2, 3, and 9)."""
    d, cfg = toy_lexicon(100, seed=7)
    strings = [cfg.cue_string(e) for e in d]
    inv = build_inventory(strings, cfg)
    C = build_cue_matrix(strings, inv, cfg)
    assert np.linalg.matrix_rank(C.rows) == 100, "toy rows must be independent"
    space = simulate_vectors(d, dim=130, seed=2)
    F = solve_endstate(C.rows, space.S)
    pool = GoldPool.build(space, Forms.build(d, cfg))
    return d, cfg, strings, inv, C, space, F, pool


def test_criterion_01_regression_oracle_equivalence():
    with criterion(1, "solve_endstate matches the normal-equations oracle"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(20):
            X = rng.normal(size=(50, 30))
            Y = rng.normal(size=(50, 20))
            W = solve_endstate(X, Y).W
            W0 = np.linalg.solve(X.T @ X, X.T @ Y)
            rel = np.linalg.norm(W - W0) / np.linalg.norm(W0)
            assert rel <= 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_02_exact_memorization(toy100):
    with criterion(2, "end-state memorizes the 100-form toy lexicon"):
        d, cfg, strings, inv, C, space, F, pool = toy100
        results = score_entries(C.rows @ F.W, space, d, cfg, pool)
        accuracy = np.count_nonzero(results.correct_lenient) / len(results.correct_lenient)
        assert accuracy == 1.0
        assert (results.r_target >= 1 - 1e-9).all()


def test_criterion_03_production_round_trip(toy100):
    with criterion(3, "produce() reproduces every toy training form"):
        d, cfg, strings, inv, C, space, F, pool = toy100
        G = solve_endstate(space.S, C.rows)
        targets = positional_targets(strings, inv, cfg, margin=2)
        model = train_positional(space.S @ G.W, targets, inv, cfg)
        params = ProductionParams(k=10, theta=0.1)
        produced = 0
        for i, s in enumerate(strings):
            res = produce(space.S[i], G, model, F, params)
            assert res.best is not None, f"no candidate for {s!r}"
            if res.best.surface == s:
                produced += 1
            for cand in res.top_n:
                toks = [cfg.tokens(g) for g in cand.grams]
                assert toks[0][0] == cfg.boundary
                assert toks[-1][-1] == cfg.boundary
                for a, b in zip(toks, toks[1:]):
                    assert a[-(len(b) - 1):] == b[:-1]
                assert merge_grams(cand.grams, cfg) == cand.surface
        assert produced == len(strings)


def test_criterion_04_widrow_hoff_convergence():
    with criterion(4, "500 epochs drive W within 1% of the end state, monotonically"):
        d, cfg = toy_lexicon(20, seed=23)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        S = simulate_vectors(d, dim=30, seed=3).S
        W_end = solve_endstate(C.rows, S).W

        epochs, eta = 500, 0.01
        stream = np.tile(np.arange(len(d)), epochs).astype(np.int64)
        checkpoints = [len(d) * (epochs // 10) * i for i in range(1, 11)]
        dists = []
        train_incremental(stream, C, S, eta=eta, checkpoints=checkpoints,
                          on_checkpoint=lambda m: dists.append(np.linalg.norm(m.W - W_end)))

        initial = np.linalg.norm(W_end)  # distance of the zero start
        assert dists[-1] < 0.01 * initial
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-9


def test_criterion_05_one_step_widrow_hoff():
    with criterion(5, "single update on (W=0, c=[1,0], o=[1], eta=0.1)"):
        W1 = wh_update(np.zeros((2, 1)), np.array([1.0, 0.0]), np.array([1.0]), eta=0.1)
        assert W1.tolist() == [[0.1], [0.0]]


def test_criterion_06_gradient_check():
    with criterion(6, "update equals -eta x finite-difference gradient"):
        rng = np.random.default_rng(606)
        eta, h = 0.25, 1e-5
        worst = 0.0
        for _ in range(50):
            W = rng.normal(size=(4, 3))
            c = rng.normal(size=4)
            o = rng.normal(size=3)
            delta = wh_update(W, c, o, eta) - W
            grad = loss_gradient(W, c, o, h)
            worst = max(worst, np.abs(delta - (-eta * grad)).max())
        assert worst <= 1e-6


def test_criterion_07_frequency_effect():
    with criterion(7, "single-pass learning tracks Zipfian token frequency"):
        start = time.perf_counter()
        base = paradigm_lexicon(200, seed=41)
        rng = np.random.default_rng(17)
        ranks = rng.permutation(len(base)) + 1
        freqs = np.maximum(1, np.round(400.0 / ranks)).astype(int)  # Zipf, exponent 1
        d = Dataset(replace(e, frequency=int(f)) for e, f in zip(base, freqs))

        cfg = CueConfig(unit="phone", n=3)
        strings = [cfg.cue_string(e) for e in d]
        inv = build_inventory(strings, cfg)
        C = build_cue_matrix(strings, inv, cfg)
        space = simulate_vectors(d, dim=len(inv), seed=5)

        stream = sample_token_stream(d, seed=7)
        final = train_incremental(stream, C, space.S, eta=0.01)
        r_inc = rowwise_pearson(C.rows @ final.W, space.S)
        rho_inc = stats.spearmanr(np.log1p(freqs), r_inc).statistic

        F = solve_endstate(C.rows, space.S)
        r_end = rowwise_pearson(C.rows @ F.W, space.S)
        rho_end = stats.spearmanr(np.log1p(freqs), r_end).statistic

        assert rho_inc >= 0.2, f"incremental rho {rho_inc:.3f}"
        assert abs(rho_end) <= 0.1, f"endstate rho {rho_end:.3f}"
        assert time.perf_counter() - start < 120


class TestCriterion08SchemeLogic:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_strict_at_most_lenient(self, seed):
        split, results = noisy_scores(2.0, seed)
        assert (results.correct_lenient | ~results.correct_strict).all()
        assert evaluate(results, split, "val_strict") <= evaluate(results, split, "val_all") + 1e-12

    @staticmethod
    def _zero_homophone_case(seed):
        split, results = noisy_scores(2.5, seed, homophones=False)
        assert evaluate(results, split, "val_strict") == evaluate(results, split, "val_all")
        assert np.array_equal(results.correct_strict, results.correct_lenient)

    def test_zero_homophones_strict_equals_lenient(self):
        self._zero_homophone_case(seed=1)

    def test_report(self):
        with criterion(8, "strict accuracy never exceeds lenient accuracy"):
            for seed in range(15):
                split, results = noisy_scores(2.0, seed)
                assert (results.correct_lenient | ~results.correct_strict).all()
                strict = evaluate(results, split, "val_strict")
                lenient = evaluate(results, split, "val_all")
                assert strict <= lenient + 1e-12
                self._zero_homophone_case(seed)


def test_criterion_09_pruning_curve(toy100, tmp_path):
    with criterion(9, "pruning the smallest 40% of weights costs <= 5 points"):
        d, cfg, strings, inv, C, space, F, pool = toy100

        def train_accuracy(mapping):
            res = score_entries(C.rows @ mapping.W, space, d, cfg, pool)
            return np.count_nonzero(res.correct_lenient) / len(res.correct_lenient)

        baseline = train_accuracy(F)
        curve = []
        for q in np.linspace(0.0, 1.0, 11):
            theta_p = float(np.quantile(np.abs(F.W), q)) if q > 0 else 0.0
            if q == 1.0:
                theta_p = float(np.abs(F.W).max()) * (1 + 1e-9)
            pruned, fraction = prune(F, theta_p)
            curve.append((fraction, train_accuracy(pruned)))

        path = tmp_path / "pruning_curve.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["pruned_fraction", "train_accuracy"])
            w.writerows(curve)
        assert path.exists() and len(curve) >= 10

        pruned40, fraction40 = prune(F, float(np.quantile(np.abs(F.W), 0.4)))
        assert fraction40 >= 0.39
        assert baseline - train_accuracy(pruned40) <= 0.05


def test_criterion_10_careful_split_guarantee():
    with criterion(10, "no-novel-cue splits never leak unseen cues"):
        d = paradigm_lexicon(40, seed=11)
        cfg = CueConfig(unit="phone", n=3)

        def grams(e):
            return extract_grams(cfg.cue_string(e), cfg)

        for seed in range(10):
            s = split_no_novel_cues(d, 0.8, seed, grams_of=grams,
                                    cue_string_of=cfg.cue_string)
            inv = build_inventory([cfg.cue_string(d[i]) for i in s.train_ids], cfg)
            val_strings = [cfg.cue_string(d[i]) for i in s.validation_ids]
            assert novel_cues(val_strings, inv, cfg) == set()


WUG_NONCES = ["Bral", "Kach", "Klot", "Mur", "Nuhl", "Pind",
              "Pisch", "Pund", "Raun", "Spand", "Spert", "Vag"]


def _wug_corpus(n_lemmas=150, seed=51, suffixes=("en", "e", "er", "n", "s")):
    """One singular and one suffixed plural per lemma (300 distinct forms by
    default); lemma i takes suffixes[i % len(suffixes)]."""
    from corpora import _random_form
    from ldlkit.lexicon import WordEntry

    rng = np.random.default_rng(seed)
    stems: dict[str, None] = {}
    while len(stems) < n_lemmas:
        stems.setdefault(_random_form(rng).replace("@", "e"))
    entries = []
    for i, stem in enumerate(stems):
        wf = stem.capitalize()
        plural = wf + suffixes[i % len(suffixes)]
        gender = ("masculine", "feminine", "neuter")[i % 3]
        entries.append(WordEntry(wordform=wf, pronunciation=stem, lemma=wf,
                                 case="nominative", number="singular", gender=gender,
                                 frequency=1 + i % 20))
        entries.append(WordEntry(wordform=plural, pronunciation=plural.lower(), lemma=wf,
                                 case="nominative", number="plural", gender=gender,
                                 frequency=1 + i % 10))
    return Dataset(entries)


def test_criterion_11_wug_pipeline_shape(tmp_path):
    with criterion(11, "wug run yields >= 5 valid ranked candidates per nonce"):
        d = _wug_corpus()
        assert len({e.wordform for e in d}) == 300
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        cfg = resolve_config({
            "data": str(data),
            "output": str(tmp_path / "out"),
            "cues.unit": "letter",
            "cues.n": "2",
            "semantics.feature_scale": "0.1",
            "production.tolerance": "true",
            "production.k": "10",
            "production.top_n": "5",
            "production.max_paths": "20000",
        })
        report = run_wug(cfg, WUG_NONCES)
        assert report["skipped_nonces"] == []

        cue_cfg = cfg.cue_config()
        inv = build_inventory([cue_cfg.cue_string(e) for e in d], cue_cfg)
        total = 0
        for nonce in WUG_NONCES:
            cands = report["candidates"][nonce]
            assert len(cands) >= 5, f"{nonce}: only {len(cands)} candidates"
            total += len(cands)
            for surface in cands:
                grams = extract_grams(surface, cue_cfg)
                assert all(g in inv for g in grams), f"{surface!r} uses unseen grams"
                assert merge_grams(grams, cue_cfg) == surface
        assert sum(report["marker_summary"].values()) == total == report["total_candidates"]


CELEX_ENV = "LDLKIT_CELEX_TSV"


@pytest.mark.skipif(CELEX_ENV not in os.environ,
                    reason=f"set {CELEX_ENV} to a corpus in the published schema")
def test_criterion_12_reference_corpus_ordering(tmp_path):
    with criterion(12, "reference corpus: triphone >= 85% train, above biphone"):
        from ldlkit.experiments import run_endstate

        accs = {}
        for n in (2, 3):
            cfg = resolve_config({
                "data": os.environ[CELEX_ENV],
                "output": str(tmp_path / f"out{n}"),
                "cues.unit": "phone",
                "cues.n": str(n),
                "production.enabled": "false",
            })
            accs[n] = run_endstate(cfg)["comprehension"]["train"]
        assert accs[3] >= 0.85
        assert accs[2] < accs[3] + 0.05
