"""N-gram form cues and the binary item-by-cue matrix.

Cues are contiguous windows of n units (phones, syllables, or letters)
over a boundary-padded form.  Presence coding: a matrix cell is 1 when
the item contains the cue at least once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .lexicon import WordEntry


class CueError(ValueError):
    pass


@dataclass(frozen=True)
class CueConfig:
    unit: str = "phone"  # phone | syllable | letter
    n: int = 3
    boundary: str = "#"

    def __post_init__(self):
        if self.unit not in ("phone", "syllable", "letter"):
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
    """Binary item-by-cue matrix with per-item novel-gram drop counts."""

    rows: np.ndarray  # (n_items, n_cues) float64 of 0/1
    inventory: CueInventory
    novel_dropped: np.ndarray  # (n_items,) ints

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) arrays of the active columns per row."""
        return csr_arrays(self.rows)


def csr_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the nonzero columns of each row, in index order.

    One row-major np.nonzero lists the columns of row 0, then row 1, and
    so on, so indices[indptr[i]:indptr[i + 1]] are row i's columns.
    """
    row_of, indices = np.nonzero(rows)
    indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=rows.shape[0]), out=indptr[1:])
    # nonzero returns strided views of one (nnz, 2) array; a contiguous copy
    # does not keep the row numbers alive beside the column indices
    return indptr, np.ascontiguousarray(indices, dtype=np.int64)


def build_cue_matrix(corpus: Sequence[str], inv: CueInventory, cfg: CueConfig) -> CueMatrix:
    """Binary presence rows over the inventory.

    Grams missing from the inventory (validation items) are dropped and
    counted per item; an item with no in-inventory gram at all is an
    error since its row would be unusable.
    """
    rows = np.zeros((len(corpus), len(inv)), dtype=np.float64)
    dropped = np.zeros(len(corpus), dtype=np.int64)
    for i, s in enumerate(corpus):
        hit = False
        for g in extract_grams(s, cfg):
            j = inv.index.get(g)
            if j is None:
                dropped[i] += 1
            else:
                rows[i, j] = 1.0
                hit = True
        if not hit:
            raise CueError(f"item {s!r} has no cue in the inventory")
    return CueMatrix(rows=rows, inventory=inv, novel_dropped=dropped)


def novel_cues(items: Iterable[str], inv: CueInventory, cfg: CueConfig) -> set[str]:
    """Grams occurring in the items but absent from the inventory."""
    out: set[str] = set()
    for s in items:
        for g in extract_grams(s, cfg):
            if g not in inv:
                out.add(g)
    return out


def save_cue_matrix(cm: CueMatrix, triplet_path: str | os.PathLike, inventory_path: str | os.PathLike) -> None:
    """Sparse (row, col, 1) triplet dump plus the inventory listing."""
    with open(triplet_path, "w", encoding="utf-8") as fh:
        for i, j in zip(*np.nonzero(cm.rows)):
            fh.write(f"{i}\t{j}\t1\n")
    with open(inventory_path, "w", encoding="utf-8") as fh:
        for g in cm.inventory.cues:
            fh.write(g + "\n")
