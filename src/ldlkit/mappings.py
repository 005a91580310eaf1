"""Linear form/meaning mappings.

Two estimation routes: the closed-form least-squares end state (exact
multivariate multiple regression, minimum-norm for rank-deficient
designs) and incremental delta-rule learning applied once per token.
The token loop is the hot path; it lives in _wh_numpy.run_stream.
Both return a Mapping: the weight matrix and, for the token loop, the
number of tokens learned from.  Which direction a mapping goes
(comprehension F or production G) is known from the rows it was solved
on; the Mapping does not record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _wh_numpy
from .cues import CueMatrix

# There is one token loop; the name stays because perfbench/run.py prints it.
WH_BACKEND = "python"


class MappingError(ValueError):
    pass


@dataclass
class Mapping:
    """Dense weight matrix W (inputs by outputs), so that a row x maps to
    x @ W.  trained_tokens counts the delta-rule updates behind an
    incremental mapping (0 for an end-state solve); the incremental
    runner keys its checkpoint scores by it."""

    W: np.ndarray
    trained_tokens: int = 0


def distinct_rows(*arrays: np.ndarray, ids: Optional[Sequence[int]] = None) -> list[list[int]]:
    """The ids (by default every row's) grouped by equal rows in every
    array, groups and ids in order of first occurrence.  Rows are keyed by
    the hash of their bytes, and compared on a hit, so that no key copies
    a row."""
    index: dict[int, list[list[int]]] = {}
    groups: list[list[int]] = []
    for i in range(len(arrays[0])) if ids is None else ids:
        raw = tuple(A[i].tobytes() for A in arrays)
        same = index.setdefault(hash(raw), [])
        group = next((g for g in same
                      if all(A[g[0]].tobytes() == r for A, r in zip(arrays, raw))), None)
        if group is None:
            group = []
            same.append(group)
            groups.append(group)
        group.append(i)
    return groups


def _dedup_pairs(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop exact duplicate (x_row, y_row) pairs, keeping first occurrences
    (distinct_rows).  Identical inputs mapped to different outputs are
    distinct pairs and are kept: the regression then predicts their
    average."""
    keep = [ids[0] for ids in distinct_rows(X, Y)]
    if len(keep) == X.shape[0]:
        return X, Y
    return X[keep], Y[keep]


def solve_endstate(X: np.ndarray, Y: np.ndarray) -> Mapping:
    """Minimum-norm least-squares solution of X @ W = Y.

    Duplicate (x, y) row pairs carry no information and are removed
    before solving.  When the distinct rows of X are linearly
    independent the solution interpolates the targets exactly.

    With production, experiments._production_stage solves F in a forked
    child while the calling process solves G.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise MappingError("X and Y must be matrices")
    if X.shape[0] != Y.shape[0]:
        raise MappingError(f"row count mismatch: {X.shape[0]} vs {Y.shape[0]}")
    if X.shape[0] == 0:
        raise MappingError("empty input")
    X, Y = _dedup_pairs(X, Y)
    W, *_ = np.linalg.lstsq(X, Y, rcond=None)
    return Mapping(W=W)


def wh_update(W: np.ndarray, c: np.ndarray, o: np.ndarray, eta: float) -> np.ndarray:
    """One delta-rule step: W + c (o^T - c^T W) eta, returned as a new matrix.

    Only rows of W at nonzero components of c change, so the update cost
    scales with the number of active cues rather than the matrix size.
    """
    if eta <= 0:
        raise MappingError(f"eta must be positive, got {eta}")
    c = np.asarray(c, dtype=np.float64)
    o = np.asarray(o, dtype=np.float64)
    if c.shape != (W.shape[0],) or o.shape != (W.shape[1],):
        raise MappingError(
            f"dimension mismatch: W {W.shape}, c {c.shape}, o {o.shape}"
        )
    idx = np.flatnonzero(c)
    out = W.copy()
    if idx.size == 0:
        return out
    cv = c[idx]
    pred = cv @ W[idx]
    out[idx] += eta * np.outer(cv, o - pred)
    return out


def _as_checkpoint_array(checkpoints: Sequence[int], n_tokens: int) -> np.ndarray:
    arr = np.asarray(list(checkpoints), dtype=np.int64)
    if arr.size and (np.any(arr[:-1] > arr[1:]) or arr[0] < 0 or arr[-1] > n_tokens):
        raise MappingError("checkpoints must be sorted within [0, n_tokens]")
    return arr


def train_incremental(
    stream: np.ndarray,
    C: CueMatrix,
    S: np.ndarray,
    eta: float = 0.001,
    checkpoints: Sequence[int] = (),
    on_checkpoint: Optional[Callable[[Mapping], None]] = None,
) -> Mapping:
    """Single sequential pass of delta-rule updates over a token stream.

    stream holds entry ids; each token applies one update with the
    entry's cue row, read from C's CSR arrays (binary by construction),
    and its target row.  W starts at zero.  After each checkpoint's token
    count (0 = before any token) on_checkpoint is called with a Mapping
    whose W is the live weight matrix: it must be read, or copied, before
    the callback returns, since training goes on in place; a caller that
    needs a snapshot copies it there.  The final Mapping shares that live
    matrix.
    """
    if eta <= 0:
        raise MappingError(f"eta must be positive, got {eta}")
    S = np.ascontiguousarray(S, dtype=np.float64)
    n_entries, n_cues = C.shape
    if n_entries != S.shape[0]:
        raise MappingError("C and S must have one row per entry")
    stream = np.ascontiguousarray(stream, dtype=np.int64)
    if stream.size and (stream.min() < 0 or stream.max() >= n_entries):
        raise MappingError("stream contains out-of-range entry ids")
    ck = _as_checkpoint_array(checkpoints, stream.size)

    W = np.zeros((n_cues, S.shape[1]), dtype=np.float64)
    done = 0
    for t in ck.tolist():
        _wh_numpy.run_stream(W, C.indptr, C.indices, S, stream[done:t], float(eta))
        done = t
        if on_checkpoint is not None:
            on_checkpoint(Mapping(W=W, trained_tokens=t))
    _wh_numpy.run_stream(W, C.indptr, C.indices, S, stream[done:], float(eta))
    return Mapping(W=W, trained_tokens=int(stream.size))


def prune(m: Mapping, theta_p: float) -> tuple[Mapping, float]:
    """Zero all weights with magnitude strictly below theta_p.

    Returns the pruned mapping and the fraction of weights that are zero
    afterwards.
    """
    if theta_p < 0:
        raise MappingError(f"threshold must be non-negative, got {theta_p}")
    W = m.W.copy()
    W[np.abs(W) < theta_p] = 0.0
    fraction = float(np.count_nonzero(W == 0.0)) / W.size
    return Mapping(W=W, trained_tokens=m.trained_tokens), fraction

