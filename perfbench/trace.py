"""Run one `ldlkit` CLI call in-process with per-layer spans.

The public functions of each layer are wrapped where `ldlkit.experiments`
and `ldlkit.production` look them up, so the program itself is not
changed.  Every wrapped call becomes a span with its parent; a layer's
self time is its span minus its wrapped children.  Counts are taken from
arguments and return values after the span closes, and that bookkeeping
is charged to no layer.

    python3 perfbench/trace.py SIDECAR.json -- endstate --config run.config

writes the aggregated per-layer metrics and the raw span list to
SIDECAR.json, then exits with the CLI's own status.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[list] = []  # [name, start, child_s, index]
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        inner = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][3] if tracer.stack else -1
            frame = [name, time.perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append((name, frame[1], frame[1], parent))
            tracer.stack.append(frame)
            try:
                out = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[frame[3]] = (name, frame[1], end, parent)
                dur = end - frame[1]
                tracer.total[name] += dur
                tracer.self_s[name] += dur - frame[2]
                tracer.calls[name] += 1
                tracer.durations[name].append(dur)
            if on_return is not None:
                on_return(tracer, dur, out, *args, **kwargs)
            if tracer.stack:  # bookkeeping counts as child time, not parent self time
                tracer.stack[-1][2] += time.perf_counter() - frame[1]
            return out

        setattr(owner, attr, traced)


def _on_cue_matrix(t, dur, cm, *a, **k):
    t.counts["cues.n_cues"] = len(cm.inventory)
    t.counts["cues.matrix_mb"] = cm.rows.nbytes / 2**20
    t.counts["cues.density"] = float(np.count_nonzero(cm.rows)) / max(cm.rows.size, 1)


def _on_solve(t, dur, m, X, Y, *a, **k):
    X = np.ascontiguousarray(X, dtype=np.float64)
    t.counts["mappings.rows"] += X.shape[0]
    t.counts["mappings.distinct_rows"] += len({r.tobytes() for r in X})


def _on_incremental(t, dur, out, stream, C, S, *a, checkpoints=(), **k):
    t.counts["mappings.tokens"] += len(stream)
    t.counts["mappings.snapshot_mb"] += len(list(checkpoints)) * C.shape[1] * S.shape[1] * 8 / 2**20


def _on_positional(t, dur, m, *a, **k):
    t.counts["production.positional_mb"] += m.weights.nbytes / 2**20
    attested = np.any(m.weights != 0.0, axis=1)
    t.counts["production.positional_attested"] = float(attested.mean())


def _on_enumerate(t, dur, paths, *a, max_paths=None, **k):
    t.counts["production.candidates"] += len(paths)
    t.counts["production.truncated_items"] += int(max_paths is not None and len(paths) >= max_paths)


def _on_produce(t, dur, res, *a, **k):
    t.counts["production.kept"] += len(res.top_n)
    t.counts["production.scored"] += res.n_candidates
    t.counts["production.zero_candidate_items"] += int(res.n_candidates == 0)


def install(tracer: Tracer) -> None:
    from ldlkit import cli, comprehension, experiments, lexicon, production, semantics

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(lexicon, "load_dataset", "lexicon.load_dataset")
    tracer.wrap(lexicon, "sample_token_stream", "lexicon.sample_token_stream")
    tracer.wrap(semantics, "simulate_vectors", "semantics.simulate_vectors")
    tracer.wrap(comprehension, "score_items", "comprehension.score_items")
    tracer.wrap(experiments, "build_cue_matrix", "cues.build_cue_matrix", _on_cue_matrix)
    tracer.wrap(experiments, "solve_endstate", "mappings.solve_endstate", _on_solve)
    tracer.wrap(experiments, "train_incremental", "mappings.train_incremental", _on_incremental)
    tracer.wrap(experiments, "train_positional", "production.train_positional", _on_positional)
    tracer.wrap(experiments, "comprehension_scores", "experiments.comprehension_scores")
    tracer.wrap(experiments, "produce", "production.produce", _on_produce)
    tracer.wrap(production, "enumerate_paths", "production.enumerate_paths", _on_enumerate)
    tracer.wrap(production, "synthesize_by_analysis", "production.synthesize_by_analysis")
    tracer.wrap(production.PositionalSupportModel, "supports", "production.supports")
    for verb in ("run_endstate", "run_incremental", "run_wug", "run_pruning"):
        tracer.wrap(experiments, verb, "experiments")


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (0 if none)."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 0


def layer_metrics(t: Tracer) -> dict[str, float]:
    c = t.counts
    produce_ms = np.array(t.durations["production.produce"]) * 1e3
    pct = tail_percentile(produce_ms.size)
    m = {
        "production.supports.s": t.total["production.supports"],
        "production.supports.calls": t.calls["production.supports"],
        "production.enumerate_paths.self_s": t.self_s["production.enumerate_paths"],
        "production.synthesize_by_analysis.s": t.total["production.synthesize_by_analysis"],
        "production.candidates": c["production.candidates"],
        "production.kept_ratio": c["production.kept"] / c["production.scored"] if c["production.scored"] else 0.0,
        "production.truncated_items": c["production.truncated_items"],
        "production.zero_candidate_items": c["production.zero_candidate_items"],
        "production.produce.items": produce_ms.size,
        "production.produce.p50_ms": float(np.median(produce_ms)) if produce_ms.size else 0.0,
        "production.produce.ptail_pct": pct,
        "production.produce.ptail_ms": float(np.percentile(produce_ms, pct)) if pct else 0.0,
        "production.train_positional.s": t.total["production.train_positional"],
        "production.positional_mb": c["production.positional_mb"],
        "production.positional_attested": c["production.positional_attested"],
        "mappings.solve_endstate.s": t.total["mappings.solve_endstate"],
        "mappings.solve_endstate.calls": t.calls["mappings.solve_endstate"],
        "mappings.distinct_row_ratio": c["mappings.distinct_rows"] / c["mappings.rows"] if c["mappings.rows"] else 0.0,
        "mappings.train_incremental.s": t.total["mappings.train_incremental"],
        "mappings.tokens_per_s": c["mappings.tokens"] / t.total["mappings.train_incremental"] if c["mappings.tokens"] else 0.0,
        "mappings.snapshot_mb": c["mappings.snapshot_mb"],
        "comprehension.score_items.s": t.total["comprehension.score_items"],
        "comprehension.score_items.calls": t.calls["comprehension.score_items"],
        "experiments.comprehension_scores.self_s": t.self_s["experiments.comprehension_scores"],
        "cues.build_cue_matrix.s": t.total["cues.build_cue_matrix"],
        "cues.n_cues": c["cues.n_cues"],
        "cues.matrix_mb": c["cues.matrix_mb"],
        "cues.density": c["cues.density"],
        "lexicon.load_dataset.s": t.total["lexicon.load_dataset"],
        "lexicon.sample_token_stream.s": t.total["lexicon.sample_token_stream"],
        "semantics.simulate_vectors.s": t.total["semantics.simulate_vectors"],
        "experiments.self_s": t.self_s["experiments"],
        "cli.self_s": t.self_s["cli"],
    }
    return {k: float(v) for k, v in m.items()}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        raise SystemExit("usage: trace.py SIDECAR.json -- VERB [ARGS...]")
    sidecar, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from ldlkit import cli

    status = cli.main(cli_argv)
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"metrics": layer_metrics(tracer), "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
