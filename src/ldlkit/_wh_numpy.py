"""The Widrow-Hoff token loop of incremental delta-rule training.

run_stream applies one update per token of a stream segment to W, in
place.  The rows of W a token touches are exactly the active cue columns
of its entry, given as a CueMatrix's CSR arrays (indptr, indices), which
hold binary cues.  Checkpoints are not handled here: train_incremental
runs the stream in segments between them.

Each token works on row views of W rather than on fancy-indexed copies:
the active rows are summed one by one in index order, which is the order
W[idx].sum(axis=0) adds them when W has two or more columns, so the
weights are bit-identical to a gather/scatter loop at about half the
numpy calls per token.  (With a single column, numpy sums the gathered
column with partial sums, so the last bit can differ.)  Each entry's row
views and target row are built once per call, the first time the entry
occurs, and every token's update is formed in one accumulator allocated
once per call, so the loop allocates no array per token.  An entry with
one active cue subtracts its row from the target directly; one with none
is skipped.
"""

from __future__ import annotations

import numpy as np


def run_stream(
    W: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    S: np.ndarray,
    stream: np.ndarray,
    eta: float,
) -> None:
    views = list(W)
    add, subtract = np.add, np.subtract
    acc = np.empty(W.shape[1], dtype=W.dtype)
    # per entry: its row views, those after the second, and its target row
    entries: dict[int, tuple[list[np.ndarray], list[np.ndarray], np.ndarray]] = {}
    for eid in stream.tolist():
        entry = entries.get(eid)
        if entry is None:
            rows = [views[j] for j in indices[indptr[eid] : indptr[eid + 1]].tolist()]
            entry = entries[eid] = (rows, rows[2:], S[eid])
        rows, more, target = entry
        if len(rows) > 1:
            add(rows[0], rows[1], out=acc)
            for r in more:
                acc += r
            subtract(target, acc, out=acc)
        elif rows:
            subtract(target, rows[0], out=acc)
        else:
            continue
        acc *= eta
        for r in rows:
            r += acc
