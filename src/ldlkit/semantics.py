"""Semantic vector spaces: simulated compositional vectors, imported
embedding tables, and analytical reconstruction by averaging.

A simulated entry vector is the sum of its lexeme vector, one vector per
pertinent inflectional feature, and per-entry Gaussian noise.  Features
can be grammatical cases or semantic roles (one scheme per space), with
number treated as an equipollent opposition by default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .comprehension import rowwise_pearson
from .lexicon import CASES, ROLES, Dataset, WordEntry

SINGULAR = "singular"
PLURAL = "plural"
DEFINITE = "definite"
INDEFINITE = "indefinite"

# Inflectional features: grammatical cases or semantic roles (config key
# semantics.scheme).
FEATURE_SCHEMES = ("case", "role")
# Number as singular and plural vectors, or a plural vector only (config
# key semantics.number).
NUMBER_OPPOSITIONS = ("equipollent", "privative")


class SemanticsError(ValueError):
    pass


@dataclass
class FeatureRegistry:
    """Lexeme and inflectional-feature vectors a space was composed from."""

    lexeme_vectors: dict[str, np.ndarray]
    feature_vectors: dict[str, np.ndarray]


@dataclass
class SemanticSpace:
    """Real-valued matrix with one row per dataset entry.

    gold_keys identify the meaning of each row: the lemma plus the
    feature bundle for simulated spaces, or the bare word form for
    imported embeddings (homophones share a key there).
    """

    S: np.ndarray
    gold_keys: list[tuple]
    registry: Optional[FeatureRegistry] = None

    def __len__(self) -> int:
        return self.S.shape[0]

    @property
    def dimension(self) -> int:
        return self.S.shape[1]


def entry_features(
    e: WordEntry,
    scheme: str = "case",
    number_opposition: str = "equipollent",
    use_definiteness: bool = False,
) -> tuple[str, ...]:
    """Inflectional feature names composed into an entry's vector."""
    if number_opposition not in NUMBER_OPPOSITIONS:
        raise SemanticsError(f"unknown number opposition: {number_opposition!r}")
    if scheme not in FEATURE_SCHEMES:
        raise SemanticsError(f"unknown feature scheme: {scheme!r}")
    feats: list[str] = []
    if number_opposition == "equipollent":
        feats.append(SINGULAR if e.number == "singular" else PLURAL)
    elif e.number == "plural":
        feats.append(PLURAL)
    if scheme == "case":
        feats.append(e.case)
    else:
        if e.semantic_role is None:
            raise SemanticsError(f"entry {e.wordform!r} has no semantic role")
        feats.append(e.semantic_role)
    if use_definiteness:
        if e.definiteness is None:
            raise SemanticsError(f"entry {e.wordform!r} has no definiteness flag")
        feats.append(e.definiteness)
    return tuple(feats)


def scheme_features(scheme: str, number_opposition: str, use_definiteness: bool) -> list[str]:
    """Canonical ordered feature list for a configuration."""
    feats = [SINGULAR, PLURAL] if number_opposition == "equipollent" else [PLURAL]
    feats += list(CASES) if scheme == "case" else list(ROLES)
    if use_definiteness:
        feats += [DEFINITE, INDEFINITE]
    return feats


def simulate_vectors(
    d: Dataset,
    dim: int,
    seed: int,
    sd_lexeme: float = 4.0,
    sd_feature: float = 4.0,
    sd_noise: float = 1.0,
    feature_scale: float = 1.0,
    scheme: str = "case",
    number_opposition: str = "equipollent",
    use_definiteness: Optional[bool] = None,
) -> SemanticSpace:
    """Compose one Gaussian vector per lemma and per inflectional feature.

    Each entry row is lexeme + sum of its feature vectors + fresh noise.
    feature_scale multiplies the feature standard deviation only (the
    wug setup shrinks inflectional vectors by 1/10 this way).  Draws are
    ordered (lexemes by first occurrence, then the canonical feature
    list, then per-entry noise), so the space is reproducible from the
    seed alone.

    Definiteness features are composed only when the dataset actually
    contrasts definite and indefinite entries; a uniformly definite
    dataset (articles attached in definite-only mode) gets none, since a
    shift shared by every row carries no information.
    """
    if dim < 1:
        raise SemanticsError(f"dimension must be >= 1, got {dim}")
    if min(sd_lexeme, sd_feature, sd_noise) < 0:
        raise SemanticsError("standard deviations must be non-negative")
    if use_definiteness is None:
        flags = {e.definiteness for e in d} - {None}
        use_definiteness = len(flags) == 2

    rng = np.random.default_rng(seed)
    lemmas: dict[str, None] = {}
    for e in d:
        lemmas.setdefault(e.lemma)
    lexeme_vectors = {lm: rng.normal(0.0, sd_lexeme, size=dim) for lm in lemmas}
    feature_vectors = {
        f: rng.normal(0.0, sd_feature * feature_scale, size=dim)
        for f in scheme_features(scheme, number_opposition, use_definiteness)
    }
    registry = FeatureRegistry(lexeme_vectors, feature_vectors)

    S = np.empty((len(d), dim))
    keys = []
    for i, e in enumerate(d):
        feats = entry_features(e, scheme, number_opposition, use_definiteness)
        row = lexeme_vectors[e.lemma].copy()
        for f in feats:
            row += feature_vectors[f]
        if sd_noise > 0:
            row += rng.normal(0.0, sd_noise, size=dim)
        S[i] = row
        keys.append((e.lemma,) + feats)
    return SemanticSpace(S=S, gold_keys=keys, registry=registry)


def wug_plural_vector(s_nom_sg: np.ndarray, reg: FeatureRegistry) -> np.ndarray:
    """Shift a nominative-singular meaning into its plural counterpart."""
    for f in (SINGULAR, PLURAL):
        if f not in reg.feature_vectors:
            raise SemanticsError(f"registry lacks the {f} vector")
    return s_nom_sg + reg.feature_vectors[PLURAL] - reg.feature_vectors[SINGULAR]


@dataclass
class EmbeddingLoadResult:
    space: SemanticSpace
    dataset: Dataset  # entries that had a vector, reindexed densely
    missing_words: tuple[str, ...]


def load_embeddings(path: str | os.PathLike, d: Dataset) -> EmbeddingLoadResult:
    """Assign each entry the vector of its word form from a text table.

    Format: one line per word, token then components, whitespace
    separated; an optional leading "count dim" line and a UTF-8
    byte-order mark are skipped.  Components must be finite and words
    distinct.  Entries whose form is absent are dropped and reported.
    Homophonous entries share identical rows by construction.
    """
    table: dict[str, np.ndarray] = {}
    listed_on: dict[str, int] = {}
    dim = None
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
                continue
            word, comps = parts[0], parts[1:]
            try:
                vec = np.array([float(x) for x in comps])
            except ValueError as exc:
                raise SemanticsError(f"{path}:{lineno}: malformed component") from exc
            if not np.isfinite(vec).all():
                raise SemanticsError(f"{path}:{lineno}: non-finite component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise SemanticsError(
                    f"{path}:{lineno}: dimension {vec.size} differs from {dim}"
                )
            if word in listed_on:
                raise SemanticsError(f"{path}:{lineno}: word {word!r} is listed again "
                                     f"(first on line {listed_on[word]})")
            listed_on[word] = lineno
            table[word] = vec
    if dim is None:
        raise SemanticsError(f"{path}: no vectors found")

    kept, rows, keys, missing = [], [], [], []
    for i, e in enumerate(d):
        vec = table.get(e.wordform)
        if vec is None:
            missing.append(e.wordform)
            continue
        kept.append(i)
        rows.append(vec)
        keys.append((e.wordform,))
    if not kept:
        raise SemanticsError("no dataset entry has an embedding")
    space = SemanticSpace(S=np.vstack(rows), gold_keys=keys, registry=None)
    return EmbeddingLoadResult(
        space=space,
        dataset=d.subset(kept),
        missing_words=tuple(dict.fromkeys(missing)),
    )


def reconstruct_analytical(
    space: SemanticSpace, d: Dataset
) -> tuple[FeatureRegistry, SemanticSpace, np.ndarray]:
    """Rebuild lexeme and feature vectors by averaging form vectors.

    The lexeme vector is the mean over a lemma's distinct form vectors;
    a feature vector (e.g. plural) is the mean over all distinct forms
    that can realize the feature.  Each analytical row is lexeme +
    number + case; the per-entry Pearson correlation between analytical
    and original rows is returned alongside.
    """
    if space.S.shape[0] != len(d):
        raise SemanticsError("space rows do not align with dataset entries")
    form_vec: dict[str, np.ndarray] = {}
    form_feats: dict[str, set[str]] = {}
    lemma_forms: dict[str, dict[str, None]] = {}
    for i, e in enumerate(d):
        form_vec.setdefault(e.wordform, space.S[i])
        form_feats.setdefault(e.wordform, set()).update((e.number, e.case))
        lemma_forms.setdefault(e.lemma, {}).setdefault(e.wordform)

    lexeme_vectors = {
        lm: np.mean([form_vec[w] for w in forms], axis=0) for lm, forms in lemma_forms.items()
    }
    feature_vectors = {}
    for feat in (SINGULAR, PLURAL) + CASES:
        vecs = [v for w, v in form_vec.items() if feat in form_feats[w]]
        if vecs:
            feature_vectors[feat] = np.mean(vecs, axis=0)
    registry = FeatureRegistry(lexeme_vectors, feature_vectors)

    rows = np.empty_like(space.S)
    keys = []
    for i, e in enumerate(d):
        rows[i] = lexeme_vectors[e.lemma] + feature_vectors[e.number] + feature_vectors[e.case]
        keys.append((e.lemma, e.number, e.case))
    analytical = SemanticSpace(S=rows, gold_keys=keys, registry=registry)

    corr = rowwise_pearson(rows, space.S)
    return registry, analytical, corr

