"""Deterministic toy corpora, and serial oracles, shared across the test
modules.  Forms come from the benchmark's generator,
perfbench/workloads.py, so the tests and the benchmark draw the same
corpora."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from ldlkit import (
    CueConfig,
    CueInventory,
    CueMatrix,
    Dataset,
    Forms,
    GoldPool,
    PositionalSupportModel,
    WordEntry,
    build_cue_matrix,
    build_inventory,
    extract_grams,
    merge_grams,
    score_items,
    simulate_vectors,
    split_random,
)
from ldlkit.comprehension import centre
from ldlkit.mappings import solve_endstate
from ldlkit.production import CandidatePaths, positional_targets, train_positional

# perfbench is a directory of scripts that import each other by bare name;
# appended, so that none of them shadows a module found before it
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import GENDERS, _random_form, paradigm_rows  # noqa: E402
CASES = ("nominative", "genitive", "dative", "accusative")


def independent_forms(n: int, cfg: CueConfig, seed: int = 7, pool: int = 60) -> list[str]:
    """n distinct forms whose cue rows are linearly independent.

    Candidates are drawn until a greedy rank-growing pass can pick n of
    them; restricting the matrix to the selected rows keeps full rank
    because dropping all-zero columns never lowers it.
    """
    rng = np.random.default_rng(seed)
    candidates: dict[str, None] = {}
    while len(candidates) < n + pool:
        candidates.setdefault(_random_form(rng))
    forms = list(candidates)
    inv = build_inventory(forms, cfg)
    rows = build_cue_matrix(forms, inv, cfg).dense()

    chosen: list[int] = []
    basis = np.zeros((0, rows.shape[1]))
    for i in range(len(forms)):
        stacked = np.vstack([basis, rows[i]])
        if np.linalg.matrix_rank(stacked) > basis.shape[0]:
            basis = stacked
            chosen.append(i)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise AssertionError(f"could only collect {len(chosen)} independent forms")
    return [forms[i] for i in chosen]


def entries_for_forms(forms: list[str], freq_start: int = 1) -> Dataset:
    """One homophone-free entry per form; lemma equals the form."""
    entries = []
    for i, form in enumerate(forms):
        entries.append(
            WordEntry(
                wordform=form.capitalize(),
                pronunciation=form,
                lemma=form,
                case=CASES[i % len(CASES)],
                number="singular" if i % 2 == 0 else "plural",
                gender=GENDERS[i % len(GENDERS)],
                frequency=freq_start + (i * 13) % 50,
            )
        )
    return Dataset(entries)


def toy_lexicon(n_forms: int = 100, seed: int = 7) -> tuple[Dataset, CueConfig]:
    """Homophone-free lexicon with linearly independent triphone rows."""
    cfg = CueConfig(unit="phone", n=3)
    forms = independent_forms(n_forms, cfg, seed=seed)
    return entries_for_forms(forms), cfg


def syllabified_lexicon(n_lemmas: int = 30, seed: int = 19) -> Dataset:
    """Lexicon with clean CV syllable boundaries in the syllables column."""
    rng = np.random.default_rng(seed)
    syllables = [c + v for c in "bdfklmnprstz" for v in "aeiou"]
    entries = []
    seen: dict[str, None] = {}
    while len(seen) < n_lemmas:
        parts = tuple(rng.choice(syllables, size=int(rng.integers(2, 4))))
        seen.setdefault("-".join(parts))
    for i, syll in enumerate(seen):
        flat = syll.replace("-", "")
        plural_syll = syll + "-n@"
        gender = GENDERS[i % 3]
        entries.append(
            WordEntry(
                wordform=flat.capitalize(), pronunciation=flat, lemma=flat.capitalize(),
                case="nominative", number="singular", gender=gender,
                frequency=1 + i % 9, syllabified_pronunciation=syll,
            )
        )
        entries.append(
            WordEntry(
                wordform=(flat + "ne").capitalize(), pronunciation=flat + "n@",
                lemma=flat.capitalize(), case="nominative", number="plural",
                gender=gender, frequency=1 + i % 5,
                syllabified_pronunciation=plural_syll,
            )
        )
    return Dataset(entries)


def paradigm_lexicon(n_lemmas: int = 50, seed: int = 11, homophones: bool = True) -> Dataset:
    """paradigm_rows as a Dataset: per lemma a singular and a
    suffixed plural, each listed in two cases so that homophone groups
    exist.  Without homophones only the nominative singular and the
    genitive plural are kept."""
    kept = {("nominative", "singular"), ("genitive", "plural")}
    return Dataset([
        WordEntry(wordform=wf, pronunciation=pron, lemma=lemma, case=case, number=number,
                  gender=gender, frequency=f)
        for wf, pron, lemma, case, number, f, gender in paradigm_rows(n_lemmas, seed)
        if homophones or (case, number) in kept
    ])


def noisy_scores(predict_noise: float, seed: int = 0, homophones: bool = True):
    """(split, results) of scoring the paradigm lexicon's meanings plus
    predict_noise times standard normal noise, each form predicted by its
    first entry's (score_entries): 12 lemmas with homophones, or 10
    without, whose forms are then all distinct."""
    n_lemmas, dim, space_seed, fraction = (12, 30, 4, 0.75) if homophones else (10, 25, 5, 0.7)
    d = paradigm_lexicon(n_lemmas, homophones=homophones)
    cfg = CueConfig(unit="phone", n=3)
    assert homophones or len({cfg.cue_string(e) for e in d}) == len(d)
    space = simulate_vectors(d, dim=dim, seed=space_seed)
    rng = np.random.default_rng(seed)
    S_hat = space.S + predict_noise * rng.normal(size=space.S.shape)
    split = split_random(d, fraction, seed=seed, cue_string_of=cfg.cue_string)
    return split, score_entries(S_hat, space, d, cfg)


def score_entries(S_hat: np.ndarray, space, d: Dataset, cfg: CueConfig, pool=None):
    """score_items on per-entry predictions S_hat taken at each form's
    first entry, so that every entry of a form gets that entry's
    prediction, against pool (by default a pool of every entry)."""
    forms = Forms.build(d, cfg)
    pool = GoldPool.build(space, forms) if pool is None else pool
    return score_items(centre(S_hat[forms.first]), space, pool, forms)


def dense_cue_rows(corpus, inv: CueInventory, cfg: CueConfig) -> tuple[np.ndarray, np.ndarray]:
    """The dense oracle of build_cue_matrix: (n_items, n_cues) float64 0/1
    presence rows and the per-item counts of grams missing from inv."""
    rows = np.zeros((len(corpus), len(inv)), dtype=np.float64)
    dropped = np.zeros(len(corpus), dtype=np.int64)
    for i, s in enumerate(corpus):
        for g in extract_grams(s, cfg):
            j = inv.index.get(g)
            if j is None:
                dropped[i] += 1
            else:
                rows[i, j] = 1.0
    return rows, dropped


def csr_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the nonzero columns of each dense row, in
    index order: one row-major np.nonzero lists the columns of row 0,
    then row 1, and so on."""
    row_of, indices = np.nonzero(rows)
    indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=rows.shape[0]), out=indptr[1:])
    return indptr, np.ascontiguousarray(indices, dtype=np.int64)


def cue_matrix(rows: np.ndarray) -> CueMatrix:
    """A CueMatrix of dense binary rows, over cues named by their column."""
    indptr, indices = csr_arrays(rows)
    inv = CueInventory([f"c{j}" for j in range(rows.shape[1])])
    return CueMatrix(indptr=indptr, indices=indices, inventory=inv,
                     novel_dropped=np.zeros(rows.shape[0], dtype=np.int64))


def loss_gradient(W: np.ndarray, c: np.ndarray, o: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of 0.5 * ||c @ W - o||^2 over W's entries."""
    def loss(M):
        return 0.5 * np.sum((c @ M - o) ** 2)

    grad = np.zeros_like(W)
    for i, j in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += h
        Wm[i, j] -= h
        grad[i, j] = (loss(Wp) - loss(Wm)) / (2 * h)
    return grad


def model_from_dense(weights: np.ndarray, inventory: CueInventory, cfg: CueConfig) -> PositionalSupportModel:
    """Compact positional model from a dense (max_len, input_dim, n_cues)
    tensor; all-zero (position, cue) columns are dropped."""
    max_len, input_dim, n_cues = weights.shape
    assert n_cues == len(inventory), "dense weights need one column per inventory cue"
    flat = np.moveaxis(np.asarray(weights, dtype=np.float64), 1, 0).reshape(input_dim, -1)
    columns = np.flatnonzero(np.any(flat != 0.0, axis=0))
    return PositionalSupportModel(weights=flat[:, columns], columns=columns, max_len=max_len,
                                  inventory=inventory, cfg=cfg)


def spelling_model(inventory: CueInventory, cfg: CueConfig) -> PositionalSupportModel:
    """A positional model with no attested column: what synthesis reads of
    a model is its inventory, the inventory's tokens and the cue config."""
    return PositionalSupportModel(weights=np.zeros((1, 0)), columns=np.zeros(0, dtype=np.int64),
                                  max_len=1, inventory=inventory, cfg=cfg)


def id_paths(cands, inv: CueInventory) -> CandidatePaths:
    """Candidates written with gram strings (anything with grams and
    tolerated_count), as enumerate_paths returns them: (cue ids, tolerated
    count) in the given order."""
    return CandidatePaths((tuple(inv.index[g] for g in c.grams), c.tolerated_count) for c in cands)


def spell(paths: CandidatePaths, m: PositionalSupportModel) -> list[str]:
    """The surface of each of enumerate_paths' paths, merged from its grams."""
    return [merge_grams([m.inventory.cues[j] for j in ids], m.cfg) for ids, _ in paths]


def serial_production_model(state):
    """The serial oracle of experiments._production_stage's production
    fits: G, the positional model and its inputs for every entry, each
    computed as it was on one thread, from the meanings mapped through G
    or, with production.input=semantics, from the meanings themselves."""
    cfg, inv = state.cfg, state.C.inventory
    train_ids = list(state.split.train_ids)
    S, cue_rows = state.space.S[train_ids], state.C.dense(train_ids)
    forms = [state.cue_cfg.cue_string(e) for e in state.split.train]
    G = solve_endstate(S, cue_rows)
    targets = positional_targets(forms, inv, state.cue_cfg, cfg.max_len_margin)
    if cfg.production_input == "semantics":
        inputs, X = S, state.space.S
    else:
        inputs, X = S @ G.W, np.array([s @ G.W for s in state.space.S])
    positional = train_positional(inputs, targets, inv, state.cue_cfg)
    return G, positional, X
