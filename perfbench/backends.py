"""Check that the numpy and compiled Widrow-Hoff token loops agree.

    python3 perfbench/backends.py run.config

Builds the incremental experiment's cue rows, semantic targets and token
stream from the config, runs both `run_stream` backends on them from
zero weights, and prints one JSON line with the largest absolute
difference over the final weights and checkpoint snapshots.  When the
compiled kernel is not built the difference is null.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ldlkit import _wh_numpy, experiments, lexicon

N_SNAPSHOTS = 4


def main(config: str) -> None:
    try:
        from ldlkit import _wh_kernel
    except ImportError:
        print(json.dumps({"max_abs_diff": None, "reason": "compiled kernel not built"}))
        return
    cfg = experiments.load_config(config)
    state = experiments.build_pipeline(cfg, with_production=False)
    train_ids = np.asarray(state.split.train_ids, dtype=np.int64)
    stream = train_ids[lexicon.sample_token_stream(state.split.train, cfg.seed_stream)]
    checkpoints = np.linspace(0, stream.size, N_SNAPSHOTS).astype(np.int64)
    indptr, indices = state.C.csr_arrays()
    S = np.ascontiguousarray(state.space.S)

    out = []
    for backend in (_wh_numpy, _wh_kernel):
        W = np.zeros((len(state.C.inventory), S.shape[1]))
        snaps = np.zeros((checkpoints.size,) + W.shape)
        backend.run_stream(W, indptr, indices, S, stream, cfg.eta, checkpoints, snaps)
        out.append((W, snaps))
    diff = max(float(np.abs(out[0][0] - out[1][0]).max()), float(np.abs(out[0][1] - out[1][1]).max()))
    print(json.dumps({"max_abs_diff": diff, "tokens": int(stream.size)}))


if __name__ == "__main__":
    main(sys.argv[1])
