"""Linear form/meaning mappings.

Two estimation routes: the closed-form least-squares end state (exact
multivariate multiple regression, minimum-norm for rank-deficient
designs) and incremental delta-rule learning applied once per token.
The token loop is the hot path; it lives in _wh_numpy.run_stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import _wh_numpy
from .cues import csr_arrays

# There is one token loop; the name stays because perfbench/run.py prints it.
WH_BACKEND = "python"


class MappingError(ValueError):
    pass


@dataclass
class Mapping:
    """Dense weight matrix with training provenance."""

    W: np.ndarray  # (input_dim, output_dim)
    kind: str = "comprehension"  # comprehension | production
    provenance: str = "endstate"  # endstate | incremental
    trained_tokens: int = 0
    eta: Optional[float] = None

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]

    @property
    def output_dim(self) -> int:
        return self.W.shape[1]


def _dedup_pairs(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop exact duplicate (x_row, y_row) pairs, keeping first occurrences.

    Identical inputs mapped to different outputs are distinct pairs and
    are kept: the regression then predicts their average.
    """
    seen: set[bytes] = set()
    keep = []
    for i in range(X.shape[0]):
        key = X[i].tobytes() + Y[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    if len(keep) == X.shape[0]:
        return X, Y
    return X[keep], Y[keep]


def solve_endstate(X: np.ndarray, Y: np.ndarray, kind: str = "comprehension") -> Mapping:
    """Minimum-norm least-squares solution of X @ W = Y.

    Duplicate (x, y) row pairs carry no information and are removed
    before solving.  When the distinct rows of X are linearly
    independent the solution interpolates the targets exactly.
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
    return Mapping(W=W, kind=kind, provenance="endstate")


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
    C: np.ndarray,
    S: np.ndarray,
    eta: float = 0.001,
    checkpoints: Sequence[int] = (),
    kind: str = "comprehension",
    on_checkpoint: Optional[Callable[[Mapping], None]] = None,
) -> tuple[Mapping, list[Mapping]]:
    """Single sequential pass of delta-rule updates over a token stream.

    stream holds entry ids; each token applies one update with the
    entry's binary cue row and target row.  W starts at zero.  After each
    checkpoint's token count (0 = before any token) on_checkpoint is
    called with a Mapping whose W is the live weight matrix: it must be
    read, or copied, before the callback returns, since training goes on
    in place.  No snapshot is stored and the returned list is empty.
    Without a callback, a copy is kept at every checkpoint and returned.
    """
    if eta <= 0:
        raise MappingError(f"eta must be positive, got {eta}")
    C = np.ascontiguousarray(C, dtype=np.float64)
    S = np.ascontiguousarray(S, dtype=np.float64)
    if C.shape[0] != S.shape[0]:
        raise MappingError("C and S must have one row per entry")
    if not np.isin(C, (0.0, 1.0)).all():
        raise MappingError("cue rows must be binary")
    stream = np.ascontiguousarray(stream, dtype=np.int64)
    if stream.size and (stream.min() < 0 or stream.max() >= C.shape[0]):
        raise MappingError("stream contains out-of-range entry ids")
    ck = _as_checkpoint_array(checkpoints, stream.size)

    snaps: list[Mapping] = []
    if on_checkpoint is None:
        def on_checkpoint(m: Mapping) -> None:
            snaps.append(replace(m, W=m.W.copy()))

    indptr, indices = csr_arrays(C)
    W = np.zeros((C.shape[1], S.shape[1]), dtype=np.float64)
    done = 0
    for t in ck.tolist():
        _wh_numpy.run_stream(W, indptr, indices, S, stream[done:t], float(eta))
        done = t
        on_checkpoint(Mapping(W=W, kind=kind, provenance="incremental",
                              trained_tokens=t, eta=eta))
    _wh_numpy.run_stream(W, indptr, indices, S, stream[done:], float(eta))
    final = Mapping(W=W, kind=kind, provenance="incremental",
                    trained_tokens=int(stream.size), eta=eta)
    return final, snaps


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
    return (
        Mapping(W=W, kind=m.kind, provenance=m.provenance,
                trained_tokens=m.trained_tokens, eta=m.eta),
        fraction,
    )


def save_mapping(m: Mapping, path: str | os.PathLike) -> None:
    """Binary matrix dump with a one-line JSON header."""
    header = {
        "kind": m.kind,
        "provenance": m.provenance,
        "shape": list(m.W.shape),
        "dtype": "float64",
        "eta": m.eta,
        "trained_tokens": m.trained_tokens,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(m.W, dtype=np.float64).tobytes())


def load_mapping(path: str | os.PathLike) -> Mapping:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        W = np.frombuffer(fh.read(), dtype=np.float64).reshape(header["shape"]).copy()
    return Mapping(
        W=W,
        kind=header["kind"],
        provenance=header["provenance"],
        trained_tokens=header["trained_tokens"],
        eta=header["eta"],
    )
