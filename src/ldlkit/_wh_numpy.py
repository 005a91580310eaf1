"""The Widrow-Hoff token loop of incremental delta-rule training.

run_stream applies one update per token of a stream segment to W, in
place.  The rows of W a token touches are exactly the active cue columns
of its entry, given as CSR arrays (indptr, indices); cue values are
assumed binary.  Checkpoints are not handled here: train_incremental
runs the stream in segments between them.

Each token works on row views of W rather than on fancy-indexed copies:
the active rows are summed one by one in index order, which is the order
W[idx].sum(axis=0) adds them when W has two or more columns, so the
weights are bit-identical to a gather/scatter loop at about half the
numpy calls per token.  (With a single column, numpy sums the gathered
column with partial sums, so the last bit can differ.)
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
    entry_rows: dict[int, list[np.ndarray]] = {}
    for eid in stream.tolist():
        rows = entry_rows.get(eid)
        if rows is None:
            rows = [views[j] for j in indices[indptr[eid] : indptr[eid + 1]].tolist()]
            entry_rows[eid] = rows
        if rows:
            acc = rows[0].copy()
            for r in rows[1:]:
                acc += r
            np.subtract(S[eid], acc, out=acc)
            acc *= eta
            for r in rows:
                r += acc
