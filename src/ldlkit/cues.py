"""N-gram form cues and the binary item-by-cue matrix.

Cues are contiguous windows of n units (phones, syllables, or letters)
over a boundary-padded form.  Presence coding: a matrix cell is 1 when
the item contains the cue at least once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .lexicon import WordEntry


# The units a cue can be made of (config key cues.unit).
CUE_UNITS = ("phone", "syllable", "letter")


class CueError(ValueError):
    pass


@dataclass(frozen=True)
class CueConfig:
    unit: str = "phone"  # one of CUE_UNITS
    n: int = 3
    boundary: str = "#"

    def __post_init__(self):
        if self.unit not in CUE_UNITS:
            raise CueError(f"unknown cue unit: {self.unit!r}")
        if self.n < 1:
            raise CueError(f"cue size must be >= 1, got {self.n}")
        if len(self.boundary) != 1:
            raise CueError("boundary must be a single symbol")

    @property
    def joiner(self) -> str:
        return "-" if self.unit == "syllable" else ""

    def tokens(self, s: str) -> list[str]:
        """Split a form string into its unit tokens."""
        if self.unit == "syllable":
            return s.split("-")
        return list(s)

    def cue_string(self, e: WordEntry) -> str:
        """The string of an entry that cues are extracted from."""
        if self.unit == "phone":
            return e.pronunciation
        if self.unit == "letter":
            return e.wordform
        if e.syllabified_pronunciation is None:
            raise CueError(f"entry {e.wordform!r} has no syllabified pronunciation")
        return e.syllabified_pronunciation


def extract_grams(s: str, cfg: CueConfig) -> list[str]:
    """All length-n windows over the boundary-padded token sequence.

    One boundary token is added at each end.  Forms whose padded length
    is below n still yield the whole padded sequence as a single gram,
    so every item has at least one cue.
    """
    if not s:
        raise CueError("empty input string")
    tokens = [cfg.boundary] + cfg.tokens(s) + [cfg.boundary]
    if any(cfg.boundary in t for t in tokens[1:-1]):
        raise CueError(f"boundary marker {cfg.boundary!r} occurs inside {s!r}")
    if len(tokens) <= cfg.n:
        return [cfg.joiner.join(tokens)]
    return [cfg.joiner.join(tokens[i : i + cfg.n]) for i in range(len(tokens) - cfg.n + 1)]


@dataclass
class CueInventory:
    """Distinct grams in first-occurrence order, with column lookup."""

    cues: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {g: i for i, g in enumerate(self.cues)}
        if len(self.index) != len(self.cues):
            raise CueError("inventory contains duplicate cues")

    def __len__(self) -> int:
        return len(self.cues)

    def __contains__(self, gram: str) -> bool:
        return gram in self.index


def build_inventory(corpus: Iterable[str], cfg: CueConfig) -> CueInventory:
    """Inventory of all distinct grams over the corpus, first occurrence first."""
    seen: dict[str, None] = {}
    empty = True
    for s in corpus:
        empty = False
        for g in extract_grams(s, cfg):
            seen.setdefault(g)
    if empty:
        raise CueError("empty corpus")
    return CueInventory(list(seen))


@dataclass
class CueMatrix:
    """Binary item-by-cue matrix as CSR arrays, with per-item novel-gram
    drop counts.  Row i's cues are the columns
    indices[indptr[i]:indptr[i + 1]], ascending and distinct; a cell is 1
    where its column is listed and 0 elsewhere, so no value is stored.
    Solves and scorings take their rows dense from dense()."""

    indptr: np.ndarray  # (n_items + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    inventory: CueInventory
    novel_dropped: np.ndarray  # (n_items,) ints

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, len(self.inventory)

    def dense(self, ids: Optional[Sequence[int]] = None) -> np.ndarray:
        """Fresh float64 0/1 rows of the items ids (by default every
        item), in the order given, repeats included."""
        ids = np.arange(self.shape[0]) if ids is None else np.asarray(ids, dtype=np.int64)
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        # position in indices of every listed cell of the chosen rows, row by row
        first = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        out = np.zeros((len(ids), self.shape[1]))
        out[np.repeat(np.arange(len(ids)), counts),
            self.indices[first + np.arange(first.size)]] = 1.0
        return out

    @property
    def rows(self) -> np.ndarray:
        """Every item's dense row, read-only and built on each read, for
        readers of the whole matrix outside the package (perfbench's
        tracer); the package itself reads dense()."""
        rows = self.dense()
        rows.flags.writeable = False
        return rows


def build_cue_matrix(corpus: Sequence[str], inv: CueInventory, cfg: CueConfig) -> CueMatrix:
    """Binary presence rows over the inventory, as CSR arrays.

    Grams missing from the inventory (validation items) are dropped and
    counted per item; an item with no in-inventory gram at all is an
    error since its row would be unusable.
    """
    indptr = np.zeros(len(corpus) + 1, dtype=np.int64)
    indices: list[int] = []
    dropped = np.zeros(len(corpus), dtype=np.int64)
    for i, s in enumerate(corpus):
        cols: set[int] = set()
        for g in extract_grams(s, cfg):
            j = inv.index.get(g)
            if j is None:
                dropped[i] += 1
            else:
                cols.add(j)
        if not cols:
            raise CueError(f"item {s!r} has no cue in the inventory")
        indices.extend(sorted(cols))
        indptr[i + 1] = len(indices)
    return CueMatrix(indptr=indptr, indices=np.array(indices, dtype=np.int64),
                     inventory=inv, novel_dropped=dropped)


def novel_cues(items: Iterable[str], inv: CueInventory, cfg: CueConfig) -> set[str]:
    """Grams occurring in the items but absent from the inventory."""
    out: set[str] = set()
    for s in items:
        for g in extract_grams(s, cfg):
            if g not in inv:
                out.add(g)
    return out

