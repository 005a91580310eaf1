"""Comprehension scoring: map cue rows into semantic space and grade the
predictions against a pool of gold vectors.

An item is understood strictly when the nearest gold vector (by Pearson
correlation) carries the item's own meaning key, and leniently when the
nearest vector belongs to any entry spelling the same form, which is how
homophones are credited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .cues import CueConfig
from .lexicon import Dataset, SplitResult
from .mappings import distinct_rows

if TYPE_CHECKING:
    from .semantics import SemanticSpace

SCHEMES = ("train", "val_all", "val_strict", "val_lenient", "val_newform")


class ComprehensionError(ValueError):
    pass


class Centred(NamedTuple):
    """Rows minus their means, with each centred row's sum of squares."""

    rows: np.ndarray
    sq: np.ndarray

    def take(self, ids) -> "Centred":
        return Centred(self.rows[ids], self.sq[ids])


# Row-local work (centring, norms, the division of R, own-row products)
# runs in blocks of about this many bytes, so its temporaries stay small.
# Every statistic is per row, so the blocks do not change a bit.
CHUNK_BYTES = 1 << 18


def _row_chunks(n_rows: int, n_cols: int):
    step = max(1, CHUNK_BYTES // (8 * max(n_cols, 1)))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


# Sums of squares kept as they are: the product of two of them (the
# denominator of rowwise_pearson) stays a normal float.
_SQ_RANGE = (2.0**-500, 2.0**500)


def centre(A: np.ndarray | Centred, out: Optional[np.ndarray] = None) -> Centred:
    """Centred rows of A (A itself when it is already centred).  A constant
    row centres to exact zeros, so it has zero variance even when its mean
    rounds.  A non-constant row whose sum of squares falls outside
    _SQ_RANGE (so that it, or a product of two, would under- or overflow)
    is divided by its largest magnitude; correlations do not depend on a
    row's scale, and every other row keeps its bits.  The centred rows are
    written to out, which may be A itself; by default to a new array."""
    if isinstance(A, Centred):
        return A
    A = np.asarray(A, dtype=np.float64)
    out = np.empty_like(A) if out is None else out
    sq = np.empty(A.shape[0])
    for rows in _row_chunks(*A.shape):
        a, c = A[rows], out[rows]
        constant = (a == a[:, :1]).all(axis=1)
        np.subtract(a, a.mean(axis=1, keepdims=True), out=c)
        c[constant] = 0.0
        with np.errstate(over="ignore"):
            s = (c**2).sum(axis=1)
        scale = ~constant & ((s < _SQ_RANGE[0]) | (s > _SQ_RANGE[1]))
        if scale.any():
            c[scale] /= np.abs(c[scale]).max(axis=1, keepdims=True)
            s[scale] = (c[scale] ** 2).sum(axis=1)
        sq[rows] = s
    return Centred(out, sq)


def pearson_matrix(A: np.ndarray | Centred, B: np.ndarray | Centred) -> np.ndarray:
    """Pearson correlations between all row pairs; NaN for zero-variance rows.

    Either side may be passed already centred, so that rows scored many
    times are centred once; every statistic is per row, so the result is
    the same to the bit.  Besides R, only row blocks are allocated.
    """
    a, b = centre(A), centre(B)
    an = np.sqrt(a.sq)
    bn = np.sqrt(b.sq)
    R = a.rows @ b.rows.T
    with np.errstate(invalid="ignore", divide="ignore"):
        for rows in _row_chunks(*R.shape):
            R[rows] /= np.outer(an[rows], bn)
    R[an == 0, :] = np.nan
    R[:, bn == 0] = np.nan
    return R


def rowwise_pearson(A: np.ndarray | Centred, B: np.ndarray | Centred) -> np.ndarray:
    """Pearson correlation of each row of A with the same row of B; NaN
    where either row has zero variance."""
    a, b = centre(A), centre(B)
    num = np.empty(a.rows.shape[0])
    for rows in _row_chunks(*a.rows.shape):
        num[rows] = (a.rows[rows] * b.rows[rows]).sum(axis=1)
    den = np.sqrt(a.sq * b.sq)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, np.nan)


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


@dataclass
class GoldPool:
    """Deduplicated gold rows with the entries collapsed into each row.

    Strict credit requires the winning row to carry the item's own key;
    lenient credit requires it to carry the item's form (Forms.row).  The
    rows are kept only in centred form, since a run scores against the
    same pool many times; the raw row of pool row r is
    space.S[entry_ids[r][0]].
    """

    centred: Centred
    keys: list[set]
    form_ids: list[set]
    entry_ids: list[list[int]]

    @classmethod
    def build(
        cls,
        space: SemanticSpace,
        forms: Forms,
        restrict_ids: Optional[Sequence[int]] = None,
    ) -> "GoldPool":
        entry_ids = distinct_rows(space.S, ids=restrict_ids)
        rows = space.S[[ids[0] for ids in entry_ids]]
        form_of = forms.row.tolist()
        return cls(
            centre(rows, out=rows),
            [{space.gold_keys[i] for i in ids} for ids in entry_ids],
            [{form_of[i] for i in ids} for ids in entry_ids],
            entry_ids,
        )


class Forms(NamedTuple):
    """The distinct forms of a dataset, in order of first occurrence:
    first[k] is the id of the first entry spelling form k, and row[i] is
    the form of entry i.  Entries of one form (one cue string) have equal
    cue rows, and so equal predictions: a scoring predicts each form's
    first entry only."""

    first: np.ndarray
    row: np.ndarray

    @classmethod
    def build(cls, d: Dataset, cfg: CueConfig) -> "Forms":
        groups = list(d.groups_by(cfg.cue_string).values())
        row = np.empty(len(d), dtype=np.intp)
        for k, ids in enumerate(groups):
            row[ids] = k
        return cls(np.array([ids[0] for ids in groups], dtype=np.intp), row)


class Scores(NamedTuple):
    """Every entry's comprehension grade, as arrays indexed by entry id.

    r_target is the correlation of the entry's prediction with its own
    gold row (NaN where either has zero variance); best_index the pool
    row nearest to the prediction, -1 where the prediction has zero
    variance, and best_key that row's first key (None at -1);
    correct_strict and correct_lenient whether that row carries the
    entry's own key, or its form (both False at -1)."""

    r_target: np.ndarray
    best_index: np.ndarray
    best_key: list
    correct_strict: np.ndarray
    correct_lenient: np.ndarray


def score_items(preds: Centred, space: SemanticSpace, pool: GoldPool, forms: Forms) -> Scores:
    """Grade every dataset entry's prediction against the pool.

    preds holds one centred prediction row per form (row k predicts the
    entries i with forms.row[i] == k), e.g. centre(P, out=P) of a fresh
    product P, which is then not copied.  The correlations R with the
    pool, the degenerate test and the best pool row are computed once per
    form.  Per entry, r_target is the correlation of its prediction with
    its own gold row; the strict/lenient flags compare the best pool
    row's keys and forms with the entry's own.

    One scoring allocates one large array: the (forms, pool rows)
    correlations R.  Everything else is a row block of about CHUNK_BYTES
    or one value per entry; the entries' gold rows are copied from
    space.S and centred one block at a time.
    """
    n = len(space.S)
    if forms.row.shape != (n,) or preds.rows.shape[0] != len(forms.first):
        raise ComprehensionError("preds must hold one row per form of the scored entries")
    r_own = np.empty(n)
    for rows in _row_chunks(n, space.S.shape[1]):
        gold = np.array(space.S[rows], dtype=np.float64)
        r_own[rows] = rowwise_pearson(preds.take(forms.row[rows]), centre(gold, out=gold))
    R = pearson_matrix(preds, pool.centred)
    # Row-wise nanargmax, with NaN set to -inf in R itself: NaN never
    # wins, and argmax keeps the first of tied maxima; -1 for a row of
    # NaN only (a zero-variance prediction).
    best = np.empty(len(R), dtype=np.intp)
    for rows in _row_chunks(*R.shape):
        block = R[rows]
        undefined = np.isnan(block)
        block[undefined] = -np.inf
        best[rows] = np.where(undefined.all(axis=1), -1, block.argmax(axis=1))
    best = best[forms.row]
    at = best.tolist()
    return Scores(
        r_target=r_own,
        best_index=best,
        best_key=[None if b < 0 else space.gold_keys[pool.entry_ids[b][0]] for b in at],
        correct_strict=np.array([b >= 0 and key in pool.keys[b]
                                 for b, key in zip(at, space.gold_keys)], dtype=bool),
        correct_lenient=np.array([b >= 0 and f in pool.form_ids[b]
                                  for b, f in zip(at, forms.row.tolist())], dtype=bool),
    )


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


def scheme_accuracy(correct, split: SplitResult, scheme: str) -> float:
    """The share of the scheme's ids i with correct[i] true, correct
    holding one flag per entry; NaN when the scheme has no ids."""
    ids = scheme_ids(split, scheme)
    return int(np.count_nonzero(np.asarray(correct)[ids])) / len(ids) if ids else float("nan")


def evaluate(scores: Scores, split: SplitResult, scheme: str) -> float:
    """Comprehension accuracy of the scheme (scheme_accuracy).  val_strict
    demands the exact reading; every other scheme credits any reading of
    the item's own form (homophones are not separable from form alone)."""
    if len(scores.r_target) != len(split.dataset):
        raise ComprehensionError(f"scores of {len(scores.r_target)} entries for a dataset "
                                 f"of {len(split.dataset)}")
    return scheme_accuracy(scores.correct_strict if scheme == "val_strict"
                           else scores.correct_lenient, split, scheme)


def item_score_rows(scores: Scores, split: SplitResult):
    """Per-item CSV rows, header first: id, correlation with own target,
    best key, flags."""
    train = set(split.train_ids)
    yield ["id", "r_target", "best_key", "strict", "lenient",
           "in_train", "is_homophone_val", "is_newform_val", "is_novel_lemma", "reason"]
    columns = (scores.r_target.tolist(), scores.best_index.tolist(), scores.best_key,
               scores.correct_strict.tolist(), scores.correct_lenient.tolist())
    for i, (r, best, key, strict, lenient) in enumerate(zip(*columns)):
        yield [
            i,
            "" if np.isnan(r) else repr(r),
            "" if key is None else "+".join(str(k) for k in key),
            int(strict),
            int(lenient),
            int(i in train),
            int(i in split.homophone_val_ids),
            int(i in split.newform_val_ids),
            int(i in split.novel_lemma_ids),
            "zero-variance prediction" if best < 0 else "",
        ]
