"""Comprehension scoring: map cue rows into semantic space and grade the
predictions against a pool of gold vectors.

An item is understood strictly when the nearest gold vector (by Pearson
correlation) carries the item's own meaning key, and leniently when the
nearest vector belongs to any entry spelling the same form, which is how
homophones are credited.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .cues import CueConfig
from .lexicon import Dataset, SplitResult
from .mappings import Mapping

if TYPE_CHECKING:
    from .semantics import SemanticSpace

SCHEMES = ("train", "val_all", "val_strict", "val_lenient", "val_newform")


class ComprehensionError(ValueError):
    pass


def predict_semantics(c: np.ndarray, F: Mapping) -> np.ndarray:
    """Predicted semantic row(s): c @ F."""
    c = np.asarray(c, dtype=np.float64)
    if c.shape[-1] != F.input_dim:
        raise ComprehensionError(
            f"cue dimension {c.shape[-1]} does not match mapping input {F.input_dim}"
        )
    return c @ F.W


class Centred(NamedTuple):
    """Rows minus their means, with each centred row's sum of squares."""

    rows: np.ndarray
    sq: np.ndarray

    def take(self, ids) -> "Centred":
        return Centred(self.rows[ids], self.sq[ids])


def centre(A: np.ndarray | Centred) -> Centred:
    """Centred rows of A (A itself when it is already centred).  A constant
    row centres to exact zeros, so it has zero variance even when its mean
    rounds."""
    if isinstance(A, Centred):
        return A
    A = np.asarray(A, dtype=np.float64)
    Ac = A - A.mean(axis=1, keepdims=True)
    Ac[(A == A[:, :1]).all(axis=1)] = 0.0
    return Centred(Ac, (Ac**2).sum(axis=1))


def pearson_matrix(A: np.ndarray | Centred, B: np.ndarray | Centred) -> np.ndarray:
    """Pearson correlations between all row pairs; NaN for zero-variance rows.

    Either side may be passed already centred, so that rows scored many
    times are centred once; every statistic is per row, so the result is
    the same to the bit.
    """
    a, b = centre(A), centre(B)
    an = np.sqrt(a.sq)
    bn = np.sqrt(b.sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        R = (a.rows @ b.rows.T) / np.outer(an, bn)
    R[an == 0, :] = np.nan
    R[:, bn == 0] = np.nan
    return R


def rowwise_pearson(A: np.ndarray | Centred, B: np.ndarray | Centred) -> np.ndarray:
    """Pearson correlation of each row of A with the same row of B; NaN
    where either row has zero variance."""
    a, b = centre(A), centre(B)
    den = np.sqrt(a.sq * b.sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, (a.rows * b.rows).sum(axis=1) / den, np.nan)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector; tied values share the mean of their
    positions in sorted order."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    v = x[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two vectors; NaN when either is constant."""
    return float(rowwise_pearson(np.atleast_2d(x), np.atleast_2d(y))[0])


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation: the Pearson correlation of average ranks."""
    return pearson(average_ranks(x), average_ranks(y))


def nearest_gold(s_hat: np.ndarray, gold: SemanticSpace) -> tuple[int, float]:
    """Index and correlation of the gold row most correlated with s_hat.

    Exact ties resolve to the lowest row index.  A zero-variance
    prediction has no defined correlation; (-1, nan) is returned and the
    caller scores the item incorrect.
    """
    if len(gold) == 0:
        raise ComprehensionError("empty gold space")
    r = pearson_matrix(s_hat[None, :], gold.S)[0]
    if np.all(np.isnan(r)):
        return -1, float("nan")
    best = int(np.nanargmax(r))
    return best, float(r[best])


@dataclass
class GoldPool:
    """Deduplicated gold rows with the entries collapsed into each row.

    Strict credit requires the winning row to carry the item's own key;
    lenient credit requires it to carry the item's cue string.  The
    centred rows, and those of the gold matrix last scored against
    (gold_centred), are kept for the Pearson helpers, since a run scores
    against the same pool many times.
    """

    rows: np.ndarray
    keys: list[set]
    cue_strings: list[set]
    first_key: list[tuple]
    entry_ids: list[list[int]]
    centred: Centred = field(init=False, repr=False, compare=False)
    _gold: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.centred = centre(self.rows)

    def gold_centred(self, S: np.ndarray) -> Centred:
        """centre(S), computed once while S is the same array object."""
        if self._gold[0] is not S:
            self._gold = (S, centre(S))
        return self._gold[1]

    @classmethod
    def build(
        cls,
        space: SemanticSpace,
        d: Dataset,
        cfg: CueConfig,
        restrict_ids: Optional[Sequence[int]] = None,
    ) -> "GoldPool":
        ids = range(len(d)) if restrict_ids is None else restrict_ids
        index: dict[bytes, int] = {}
        rows, keys, strings, first_key, entry_ids = [], [], [], [], []
        for i in ids:
            raw = space.S[i].tobytes()
            at = index.get(raw)
            if at is None:
                index[raw] = len(rows)
                rows.append(space.S[i])
                keys.append({space.gold_keys[i]})
                strings.append({cfg.cue_string(d[i])})
                first_key.append(space.gold_keys[i])
                entry_ids.append([i])
            else:
                keys[at].add(space.gold_keys[i])
                strings[at].add(cfg.cue_string(d[i]))
                entry_ids[at].append(i)
        return cls(np.vstack(rows), keys, strings, first_key, entry_ids)


@dataclass(frozen=True)
class ItemScore:
    item_id: int
    r_target: float
    best_index: int  # pool row, -1 when the prediction is degenerate
    best_key: Optional[tuple]
    correct_strict: bool
    correct_lenient: bool
    reason: str = ""


def score_items(
    S_hat: np.ndarray,
    space: SemanticSpace,
    pool: GoldPool,
    d: Dataset,
    cfg: CueConfig,
    ids: Optional[Sequence[int]] = None,
) -> list[ItemScore]:
    """Grade predicted rows against the pool.

    S_hat has one row per dataset entry; ids selects which to score.
    r_target is each item's correlation with its own gold row; the
    strict/lenient flags compare the best pool row's keys and cue
    strings with the item's own.
    """
    if S_hat.shape[0] != len(space.S):
        raise ComprehensionError("S_hat must have one row per dataset entry")
    ids = list(range(S_hat.shape[0])) if ids is None else list(ids)
    preds = centre(S_hat[ids])
    R = pearson_matrix(preds, pool.centred)
    r_own = rowwise_pearson(preds, pool.gold_centred(space.S).take(ids))
    # Row-wise nanargmax in two array calls: NaN never wins, and argmax
    # keeps the first of tied maxima.
    undefined = np.isnan(R)
    degenerate = undefined.all(axis=1).tolist()
    bests = np.where(undefined, -np.inf, R).argmax(axis=1).tolist()

    out = []
    for k, i in enumerate(ids):
        if degenerate[k]:
            out.append(
                ItemScore(i, float(r_own[k]), -1, None, False, False,
                          reason="zero-variance prediction")
            )
            continue
        best = bests[k]
        key = space.gold_keys[i]
        cue_string = cfg.cue_string(d[i])
        out.append(
            ItemScore(
                item_id=i,
                r_target=float(r_own[k]),
                best_index=best,
                best_key=pool.first_key[best],
                correct_strict=key in pool.keys[best],
                correct_lenient=cue_string in pool.cue_strings[best],
            )
        )
    return out


def scheme_ids(split: SplitResult, scheme: str) -> list[int]:
    if scheme == "train":
        return list(split.train_ids)
    if scheme in ("val_all", "val_strict"):
        return list(split.validation_ids)
    if scheme == "val_lenient":
        return sorted(split.homophone_val_ids)
    if scheme == "val_newform":
        return sorted(split.newform_eval_ids())
    raise ComprehensionError(f"unknown evaluation scheme: {scheme!r}")


def scheme_uses_strict(scheme: str) -> bool:
    """val_strict demands the exact reading; every other scheme credits
    any reading of the item's own form (homophones are not separable
    from form alone)."""
    return scheme == "val_strict"


def evaluate(results: Sequence[ItemScore], split: SplitResult, scheme: str) -> float:
    """Accuracy of the scheme's id set; NaN when the set is empty."""
    wanted = set(scheme_ids(split, scheme))
    strict = scheme_uses_strict(scheme)
    flags = [
        (r.correct_strict if strict else r.correct_lenient)
        for r in results
        if r.item_id in wanted
    ]
    if len(flags) != len(wanted):
        raise ComprehensionError(f"results missing items for scheme {scheme!r}")
    if not flags:
        return float("nan")
    return sum(flags) / len(flags)


def save_item_scores(
    results: Sequence[ItemScore], split: SplitResult, path: str | os.PathLike
) -> None:
    """Per-item CSV: id, correlation with own target, best key, flags."""
    train = set(split.train_ids)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["id", "r_target", "best_key", "strict", "lenient",
             "in_train", "is_homophone_val", "is_newform_val", "is_novel_lemma", "reason"]
        )
        for r in sorted(results, key=lambda x: x.item_id):
            w.writerow(
                [
                    r.item_id,
                    "" if np.isnan(r.r_target) else repr(r.r_target),
                    "" if r.best_key is None else "+".join(str(k) for k in r.best_key),
                    int(r.correct_strict),
                    int(r.correct_lenient),
                    int(r.item_id in train),
                    int(r.item_id in split.homophone_val_ids),
                    int(r.item_id in split.newform_val_ids),
                    int(r.item_id in split.novel_lemma_ids),
                    r.reason,
                ]
            )
