"""Pure-numpy token loop for incremental delta-rule training.

Same contract as the compiled kernel in _wh_kernel.pyx: rows of W touched
by a token are exactly the active cue columns of the token's entry, cue
values are assumed binary, and W is updated in place.

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
    checkpoints: np.ndarray,
    snapshots: np.ndarray,
) -> None:
    ck = 0
    n_ck = checkpoints.shape[0]
    while ck < n_ck and checkpoints[ck] == 0:
        snapshots[ck] = W
        ck += 1
    views = list(W)
    entry_rows: dict[int, list[np.ndarray]] = {}
    for t, eid in enumerate(stream.tolist(), start=1):
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
        while ck < n_ck and checkpoints[ck] == t:
            snapshots[ck] = W
            ck += 1
