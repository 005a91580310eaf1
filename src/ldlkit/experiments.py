"""Configuration-driven experiment harness.

A flat dotted-key config selects the data, cue granularity, article
handling, semantic space, split mode, learning regime, and production
parameters.  Runners cover end-state training with full evaluation,
single-pass incremental learning with trajectory and frequency
analyses, the nonce-plural elicitation pipeline, and weight-pruning
sweeps.  All randomness flows through three named seeds (split,
semantics, stream) and every report embeds the resolved config, so
re-running a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import pickle
from collections import Counter
from dataclasses import Field, dataclass, field, fields
from typing import (
    TYPE_CHECKING, Callable, Collection, Iterable, NamedTuple, Optional, Sequence, TypeVar,
)

import numpy as np

from . import comprehension as comp
from . import lexicon, semantics
from .cues import (
    CUE_UNITS,
    CueConfig,
    CueInventory,
    CueMatrix,
    build_cue_matrix,
    build_inventory,
    extract_grams,
)
from .mappings import Mapping, prune, solve_endstate, train_incremental
from .production import (
    INPUT_SPACES,
    PositionalSupportModel,
    ProductionParams,
    ProductionResult,
    positional_targets,
    produce,
    production_rows,
    train_positional,
)

if TYPE_CHECKING:  # imported where a thread is started, see _comprehension_stage
    from concurrent.futures import Executor

T = TypeVar("T")

DEFAULT_THETA = {
    ("phone", 2): 0.05,
    ("phone", 3): 0.008,
    ("phone", 4): 0.005,
    ("syllable", 2): 0.005,
    ("letter", 3): 0.008,
}


# Support scores held at once while producing many items: items are
# produced in chunks whose compact (chunk, n_attested) supports, with the
# search's working arrays, fit this budget, so memory does not grow with
# the number of items.
SUPPORT_CHUNK_BYTES = 32 * 2**20


# Code paths picked by config keys that experiments branches on itself.
SEMANTICS_MODES = ("simulate", "embeddings", "analytical")
GOLD_POOLS = ("all", "train")
SPLIT_MODES = ("random", "no_novel_cues")


class ConfigError(ValueError):
    pass


# Lower bounds a config value is checked against when the config is read.
_BOUNDS = {">": operator.gt, ">=": operator.ge}


def _key(key: str, default, parse: Optional[type] = None, choices: Optional[Sequence[str]] = None,
         low: Optional[tuple[str, float]] = None):
    """Declare a config field: its dotted key, the type a raw value is
    parsed as (that of the default unless the default is None) and, for a
    key that picks a code path, its allowed values; low, e.g. (">", 0),
    bounds a set value from below."""
    meta = {"key": key, "parse": parse or type(default), "choices": choices, "low": low}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    data: str = _key("data", "")
    output: str = _key("output", "out")
    cue_unit: str = _key("cues.unit", "phone", choices=CUE_UNITS)
    cue_n: int = _key("cues.n", 3)
    cue_boundary: str = _key("cues.boundary", "#")
    article_mode: str = _key("articles.mode", "none", choices=lexicon.ARTICLE_MODES)
    semantics_mode: str = _key("semantics.mode", "simulate", choices=SEMANTICS_MODES)
    semantics_dim: Optional[int] = _key("semantics.dim", None, int)  # default: cue inventory size
    sd_lexeme: float = _key("semantics.sd_lexeme", 4.0)
    sd_feature: float = _key("semantics.sd_feature", 4.0)
    sd_noise: float = _key("semantics.sd_noise", 1.0)
    feature_scale: float = _key("semantics.feature_scale", 1.0)
    feature_scheme: str = _key("semantics.scheme", "case", choices=semantics.FEATURE_SCHEMES)
    number_opposition: str = _key("semantics.number", "equipollent",
                                  choices=semantics.NUMBER_OPPOSITIONS)
    embeddings_path: Optional[str] = _key("semantics.embeddings", None, str)
    gold_pool: str = _key("semantics.pool", "all", choices=GOLD_POOLS)
    split_mode: str = _key("split.mode", "random", choices=SPLIT_MODES)
    train_fraction: float = _key("split.fraction", 0.8)
    eta: float = _key("learning.eta", 0.001, low=(">", 0))
    n_checkpoints: int = _key("learning.checkpoints", 10, low=(">=", 0))
    simulate_roles: bool = _key("roles.simulate", False)
    # 0 passes here and fails later as an empty dataset
    subsample_lemmas: Optional[int] = _key("roles.subsample_lemmas", None, int, low=(">=", 0))
    production_enabled: bool = _key("production.enabled", True)
    production_k: int = _key("production.k", 10)
    production_theta: Optional[float] = _key("production.theta", None, float)
    production_tolerance: bool = _key("production.tolerance", False)
    production_max_tolerated: int = _key("production.max_tolerated", 2)
    production_input: str = _key("production.input", "predicted_cues", choices=INPUT_SPACES)
    production_top_n: int = _key("production.top_n", 5)
    production_max_paths: Optional[int] = _key("production.max_paths", None, int)
    max_len_margin: int = _key("production.max_len_margin", 2, low=(">=", 0))
    frequency_effect: bool = _key("analyses.frequency_effect", True)
    error_analysis: bool = _key("analyses.error_analysis", False)
    seed_split: int = _key("seeds.split", 1)
    seed_semantics: int = _key("seeds.semantics", 2)
    seed_stream: int = _key("seeds.stream", 3)

    def __post_init__(self):
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            allowed, low = f.metadata["choices"], f.metadata["low"]
            if allowed is not None and value not in allowed:
                raise ConfigError(f"{key}: expected one of {', '.join(allowed)}, got {value!r}")
            if low is not None and value is not None and not _BOUNDS[low[0]](value, low[1]):
                raise ConfigError(f"{key} must be {low[0]} {low[1]}, got {value!r}")
        self.production_params()  # rejects out-of-range values before any run starts

    def theta(self) -> float:
        if self.production_theta is not None:
            return self.production_theta
        return DEFAULT_THETA.get((self.cue_unit, self.cue_n), 0.008)

    def cue_config(self) -> CueConfig:
        return CueConfig(unit=self.cue_unit, n=self.cue_n, boundary=self.cue_boundary)

    def production_params(self) -> ProductionParams:
        return ProductionParams(
            k=self.production_k,
            theta=self.theta(),
            tolerance=self.production_tolerance,
            max_tolerated=self.production_max_tolerated,
            input_space=self.production_input,
            top_n=self.production_top_n,
            max_paths=self.production_max_paths,
        )


def _key_of(name: str) -> str:
    """The dotted key of ExperimentConfig field name, for messages."""
    return ExperimentConfig.__dataclass_fields__[name].metadata["key"]


def _coerce(f: Field, raw: str):
    key, typ = f.metadata["key"], f.metadata["parse"]
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}")


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; # starts a comment."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(
    pairs: dict[str, str], overrides: Optional[Sequence[str]] = None
) -> ExperimentConfig:
    merged = dict(pairs)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    by_key = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, raw in merged.items():
        if key not in by_key:
            raise ConfigError(f"unknown config key: {key!r}")
        if raw.strip() == "":  # empty value means "use the default"
            continue
        kwargs[by_key[key].name] = _coerce(by_key[key], raw)
    cfg = ExperimentConfig(**kwargs)
    if not cfg.data:
        raise ConfigError("config is missing the data path")
    return cfg


def load_config(path: str | os.PathLike, overrides: Optional[Sequence[str]] = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return resolve_config(parse_config_text(fh.read()), overrides)


def resolved_pairs(cfg: ExperimentConfig) -> dict[str, str]:
    """The full config as flat key/value strings, defaults included."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.metadata["key"]] = "" if value is None else str(value)
    return out


def write_outputs(
    cfg: ExperimentConfig,
    report: Optional[dict] = None,
    tables: Optional[dict[str, Iterable[Sequence]]] = None,
) -> None:
    """Write a run's files into cfg.output: each CSV table (header row
    first), config.resolved and, given a report, report.json with the
    config and seeds added to the report.  The directory is made here,
    so a run that fails makes none."""
    os.makedirs(cfg.output, exist_ok=True)
    for name, rows in (tables or {}).items():
        with open(os.path.join(cfg.output, name), "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    pairs = resolved_pairs(cfg)
    with open(os.path.join(cfg.output, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={pairs[key]}\n" for key in sorted(pairs))
    if report is None:
        return
    report["config"] = pairs
    report["seeds"] = {"split": cfg.seed_split, "semantics": cfg.seed_semantics, "stream": cfg.seed_stream}
    with open(os.path.join(cfg.output, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class PipelineState:
    """All artifacts shared by the runners."""

    cfg: ExperimentConfig
    dataset: lexicon.Dataset
    split: lexicon.SplitResult
    cue_cfg: CueConfig
    C: CueMatrix
    space: semantics.SemanticSpace
    G: Optional[Mapping] = None
    positional: Optional[PositionalSupportModel] = None
    pool: Optional[comp.GoldPool] = None
    dropped_entries: int = 0
    analytical_corr_mean: Optional[float] = None
    solved_f: Optional[Mapping] = None
    # the positional model's inputs for production_ids(split), in that order
    production_inputs: Optional[np.ndarray] = None

    @property
    def F(self) -> Mapping:
        """The end-state comprehension mapping on the train rows.  A stage
        with production solves it beside G; otherwise it is solved here
        when first read, so a run reads it only where it is needed (the
        incremental baseline reads it in a forked child)."""
        if self.solved_f is None:
            train_ids = list(self.split.train_ids)
            self.solved_f = solve_endstate(self.C.rows[train_ids], self.space.S[train_ids])
        return self.solved_f


def _prepare_dataset(cfg: ExperimentConfig) -> lexicon.Dataset:
    d = lexicon.load_dataset(cfg.data)
    d = lexicon.attach_articles(d, cfg.article_mode)
    if cfg.simulate_roles:
        d = lexicon.simulate_role_frequencies(d, seed=cfg.seed_stream)
    if cfg.subsample_lemmas is not None:
        lemmas = sorted({e.lemma for e in d})
        rng = np.random.default_rng(cfg.seed_split)
        chosen = set(rng.choice(lemmas, size=min(cfg.subsample_lemmas, len(lemmas)), replace=False))
        d = lexicon.Dataset(e for e in d if e.lemma in chosen)
    return d


def _split(cfg: ExperimentConfig, d: lexicon.Dataset, cue_cfg: CueConfig) -> lexicon.SplitResult:
    if cfg.split_mode == "random":
        return lexicon.split_random(d, cfg.train_fraction, cfg.seed_split, cue_cfg.cue_string)
    return lexicon.split_no_novel_cues(
        d, cfg.train_fraction, cfg.seed_split,
        grams_of=lambda e: extract_grams(cue_cfg.cue_string(e), cue_cfg),
        cue_string_of=cue_cfg.cue_string,
    )


def _simulated_space(
    cfg: ExperimentConfig, d: lexicon.Dataset, inv: CueInventory
) -> semantics.SemanticSpace:
    """Simulated semantic vectors, one dimension per cue unless a dimension is set."""
    dim = cfg.semantics_dim if cfg.semantics_dim is not None else len(inv)
    return semantics.simulate_vectors(
        d, dim=dim, seed=cfg.seed_semantics,
        sd_lexeme=cfg.sd_lexeme, sd_feature=cfg.sd_feature, sd_noise=cfg.sd_noise,
        feature_scale=cfg.feature_scale, scheme=cfg.feature_scheme,
        number_opposition=cfg.number_opposition,
    )


def _comprehension_stage(
    cfg: ExperimentConfig,
    split: lexicon.SplitResult,
    cue_cfg: CueConfig,
    space: Optional[semantics.SemanticSpace] = None,
    with_production: bool = False,
) -> PipelineState:
    """The stage every verb shares: the inventory of the training forms,
    the cue matrix of every form and the simulated space (unless space is
    given).  Without production, F is left to PipelineState.F, which
    solves it on the train rows when first read.

    With production, F is solved on one worker thread while this thread
    fits G to the same train rows; the worker then computes the
    production inputs and half of the positional solves
    (_production_model).  Neither side writes what the other reads, and
    numpy's LAPACK and BLAS calls release the GIL, so the two run on two
    CPUs and give the bits of a serial run.  The worker takes the smaller
    fit because glibc gives it its own malloc arena, whose freed memory
    this thread does not reuse: with G and the positional model there,
    endstate-1k's peak RSS rose from ~158 to ~188 MB.  The worker is
    joined before the stage returns, also when either side raises."""
    d = split.dataset
    inv = build_inventory([cue_cfg.cue_string(e) for e in split.train], cue_cfg)
    C = build_cue_matrix([cue_cfg.cue_string(e) for e in d], inv, cue_cfg)
    if space is None:
        space = _simulated_space(cfg, d, inv)
    if not with_production:
        return PipelineState(cfg=cfg, dataset=d, split=split, cue_cfg=cue_cfg, C=C, space=space)

    # imported here, so that runs which start no thread (and the CLI's
    # start-up) skip its ~4 ms import
    from concurrent.futures import ThreadPoolExecutor

    train_ids = list(split.train_ids)
    with ThreadPoolExecutor(max_workers=1) as worker:
        # Each fit gets its own copies of the train rows, which it alone
        # holds, so that they are freed once it no longer needs them.
        comprehension = worker.submit(solve_endstate, C.rows[train_ids], space.S[train_ids])
        G, positional, X = _production_model(
            cfg, inv, space.S[train_ids], C.rows[train_ids],
            [cue_cfg.cue_string(e) for e in split.train], worker, space.S, production_ids(split),
        )
        F = comprehension.result()
    return PipelineState(cfg=cfg, dataset=d, split=split, cue_cfg=cue_cfg, C=C, space=space,
                         G=G, positional=positional, solved_f=F, production_inputs=X)


def _predict_cues(S: np.ndarray, rows: Sequence[int], W: np.ndarray, out: np.ndarray) -> None:
    """out[r] = S[rows[r]] @ W, one vector-matrix product per row, as
    produce() computes it: a row of a matrix product may round
    differently."""
    for r, i in enumerate(rows):
        np.matmul(S[i], W, out=out[r])


def _production_model(
    cfg: ExperimentConfig, inv: CueInventory, S: np.ndarray, cue_rows: np.ndarray,
    forms: Sequence[str], worker: Executor, targets: np.ndarray, rows: Sequence[int],
) -> tuple[Mapping, PositionalSupportModel, np.ndarray]:
    """The production mapping G (S to cue_rows), the positional model
    trained on forms, the cue strings of the rows of S, and the
    positional model's inputs for the meanings targets[rows], which are
    to be produced.

    G is solved on this thread.  Then worker, an executor with one
    thread (which may still be busy with earlier work), computes the
    inputs of targets[rows] into an array allocated here, while this
    thread computes the pseudo-inverse of the positional model's
    training inputs; the positional solves are then split between the
    two threads (train_positional).  S and cue_rows are let go once G
    and the training inputs are computed: a caller that holds no other
    reference to them has them freed before the positional solves."""
    cue_cfg = cfg.cue_config()
    G = solve_endstate(S, cue_rows)
    if cfg.production_input == "predicted_cues":
        X = np.empty((len(rows), G.W.shape[1]))
        predicted = worker.submit(_predict_cues, targets, rows, G.W, X)
        inputs = S @ G.W
    else:
        X, predicted, inputs = targets[rows], None, S
    del S, cue_rows
    max_len = max(len(extract_grams(s, cue_cfg)) for s in forms) + cfg.max_len_margin
    positional = train_positional(inputs, positional_targets(forms, inv, cue_cfg, max_len),
                                  inv, cue_cfg, worker)
    if predicted is not None:
        predicted.result()
    return G, positional, X


def build_pipeline(cfg: ExperimentConfig, with_production: Optional[bool] = None) -> PipelineState:
    """Assemble split, cue matrix, semantic space, and trained mappings.

    With production (cfg.production_enabled unless with_production says
    otherwise), F, G, the positional model and the production inputs
    are computed on two threads (see _comprehension_stage); the state
    returned holds them as plain fields, and every bit is that of a serial
    run.  Without production, F is solved when first read."""
    d = _prepare_dataset(cfg)
    cue_cfg = cfg.cue_config()
    space, dropped, corr_mean = None, 0, None
    if cfg.semantics_mode != "simulate":  # embeddings or analytical
        if not cfg.embeddings_path:
            raise ConfigError(f"{_key_of('embeddings_path')} path is required in embeddings mode")
        loaded = semantics.load_embeddings(cfg.embeddings_path, d)
        d = loaded.dataset
        space = loaded.space
        dropped = len(loaded.missing_words)
        if cfg.semantics_mode == "analytical":
            _, space, corr = semantics.reconstruct_analytical(space, d)
            corr_mean = float(np.nanmean(corr))

    if with_production is None:
        with_production = cfg.production_enabled
    state = _comprehension_stage(cfg, _split(cfg, d, cue_cfg), cue_cfg, space, with_production)
    state.dropped_entries, state.analytical_corr_mean = dropped, corr_mean
    pool_ids = None if cfg.gold_pool == "all" else list(state.split.train_ids)
    state.pool = comp.GoldPool.build(state.space, d, cue_cfg, restrict_ids=pool_ids)
    return state


def comprehension_scores(state: PipelineState, F: Optional[Mapping] = None) -> list[comp.ItemScore]:
    """Score every entry's prediction under F (state.F by default); the
    fresh product is centred in place, so it is the scoring's only copy of
    the predictions."""
    F = F or state.F
    S_hat = state.C.rows @ F.W
    preds = comp.centre(S_hat, out=S_hat)
    return comp.score_items(preds, state.space, state.pool, state.dataset, state.cue_cfg)


def comprehension_accuracies(
    state: PipelineState, results: Sequence[comp.ItemScore]
) -> dict[str, float]:
    return {s: comp.evaluate(results, state.split, s) for s in comp.SCHEMES}


def _support_blocks(m: PositionalSupportModel, X: np.ndarray, params: ProductionParams):
    """Each row's (n_attested,) search support, one GEMM per chunk of rows.

    Per row, search_supports holds two float64 copies of the input (its
    absolute values and its transpose), the float64 supports and a bool
    redo flag per attested column."""
    input_dim, n_attested = m.weights.shape
    per_row = 8 * (2 * input_dim + n_attested) + n_attested
    step = max(1, SUPPORT_CHUNK_BYTES // per_row)
    for start in range(0, X.shape[0], step):
        yield from m.search_supports(X[start : start + step], params)


def produce_items(
    S_targets: np.ndarray, G: Mapping, m: PositionalSupportModel, F: Mapping,
    params: ProductionParams, X: Optional[np.ndarray] = None,
) -> list[ProductionResult]:
    """produce() for every row of S_targets, with supports computed in
    chunks.  X holds the rows' inputs to m when they were computed
    before; otherwise they are computed here."""
    if X is None and params.input_space == "predicted_cues":
        X = np.empty((len(S_targets), G.W.shape[1]))
        _predict_cues(S_targets, range(len(S_targets)), G.W, X)
    elif X is None:
        X = S_targets
    return [
        produce(s, G, m, F, params, support=sup)
        for s, sup in zip(S_targets, _support_blocks(m, X, params))
    ]


def production_counts(results: Collection[ProductionResult]) -> dict[str, int]:
    """Items whose path search hit max_paths, and items with no candidate."""
    return {
        "truncated_items": sum(r.truncated for r in results),
        "zero_candidate_items": sum(r.n_candidates == 0 for r in results),
    }


def production_ids(split: lexicon.SplitResult) -> list[int]:
    """The items endstate produces: every train and validation item, in id order."""
    return sorted(set(split.train_ids) | set(split.validation_ids))


def _produce_in_two(
    S_targets: np.ndarray, G: Mapping, m: PositionalSupportModel, F: Mapping,
    params: ProductionParams, X: np.ndarray, meanwhile: Callable[[], T] = lambda: None,
) -> tuple[T, list[ProductionResult]]:
    """meanwhile() and produce_items(S_targets, ...), with X the rows'
    inputs to m, on two CPUs: a child forked with _fork produces the
    second half of the rows while this process calls meanwhile() and
    produces the first half.  Returns what meanwhile returned and the
    results in row order.

    search_supports makes an item's candidates independent of the batch
    it is computed in, so the results are those of one serial batch.
    The fork must come when no other thread runs: a thread holding a
    lock at the fork would leave it held in the child.  On any error
    here the child is killed and reaped."""
    half = len(S_targets) // 2
    child = _fork(f"the production of items [{half}, {len(S_targets)})",
                  lambda: produce_items(S_targets[half:], G, m, F, params, X[half:]))
    try:
        done = meanwhile()
        first = produce_items(S_targets[:half], G, m, F, params, X[:half])
    except BaseException:
        _kill(child)
        raise
    return done, first + _join(child)


def production_accuracies(
    state: PipelineState, results: dict[int, ProductionResult]
) -> dict[str, float]:
    targets = {i: state.cue_cfg.cue_string(state.dataset[i]) for i in results}
    correct = {
        i: res.best is not None and res.best.surface == targets[i] for i, res in results.items()
    }
    out = {}
    for scheme in comp.SCHEMES:
        ids = comp.scheme_ids(state.split, scheme)
        out[scheme] = sum(correct[i] for i in ids) / len(ids) if ids else float("nan")
    return out


def _check_production(cfg: ExperimentConfig) -> None:
    """Production needs cues of two or more units, since a unigram
    boundary cue both opens and closes a path, so every search would find
    the path of that one cue, which spells the empty form; and it needs
    os.fork (_produce_in_two)."""
    if cfg.cue_n < 2:
        raise ConfigError(f"{_key_of('cue_n')} must be >= 2 where production runs, got {cfg.cue_n}")
    _check_fork("production runs half its items in a forked process")


def _check_fork(why: str) -> None:
    """A run that forks needs os.fork, which POSIX systems have; it is
    tested on Linux only.  Checked before anything is fitted or written."""
    if not hasattr(os, "fork"):
        raise ConfigError(f"{why}, and os.fork is missing on this platform")


def run_endstate(cfg: ExperimentConfig) -> dict:
    """Closed-form training plus the full evaluation grid."""
    if cfg.production_enabled:
        _check_production(cfg)
    state = build_pipeline(cfg)
    if cfg.production_enabled:
        ids = production_ids(state.split)
        results, produced = _produce_in_two(
            state.space.S[ids], state.G, state.positional, state.F, cfg.production_params(),
            state.production_inputs, meanwhile=lambda: comprehension_scores(state),
        )
        prod = dict(zip(ids, produced))
    else:
        results = comprehension_scores(state)
    comp_acc = comprehension_accuracies(state, results)
    report = {
        "n_entries": len(state.dataset),
        "n_train": len(state.split.train_ids),
        "n_validation": len(state.split.validation_ids),
        "n_homophone_val": len(state.split.homophone_val_ids),
        "n_newform_val": len(state.split.newform_val_ids),
        "n_novel_lemma": len(state.split.novel_lemma_ids),
        "n_cues": len(state.C.inventory),
        "novel_grams_dropped": int(state.C.novel_dropped.sum()),
        "achieved_train_fraction": state.split.achieved_train_fraction,
        "comprehension": comp_acc,
        "embedding_entries_dropped": state.dropped_entries,
        # a new form with several paradigm readings is credited for any of them
        "val_newform_scoring": "lenient_within_form",
    }
    if state.analytical_corr_mean is not None:
        report["analytical_reconstruction_mean_r"] = state.analytical_corr_mean
    tables = {"items.csv": comp.item_score_rows(results, state.split)}
    if cfg.production_enabled:
        report["production"] = production_accuracies(state, prod)
        report.update(production_counts(prod.values()))
        tables["production.csv"] = production_rows(
            (state.cue_cfg.cue_string(state.dataset[i]), prod[i]) for i in ids
        )
        tables["summary.csv"] = _summary_rows(report)
    write_outputs(cfg, report, tables)
    return report


def _summary_rows(report: dict):
    """One row of train/val accuracy cells per direction."""
    cols = ["train", "val_all", "val_lenient", "val_newform"]
    yield ["direction"] + cols
    for direction in ("comprehension", "production"):
        if direction in report:
            yield [direction] + [repr(report[direction][c]) for c in cols]


def _default_checkpoints(total: int, n: int) -> list[int]:
    pts = sorted({max(1, round(i * total / n)) for i in range(1, n + 1)})
    return [p for p in pts if p <= total]


class _Child(NamedTuple):
    """Work forked by _fork: its pid, the read end of its result pipe,
    and what it does, which names it in errors."""

    pid: int
    fd: int
    what: str


def _fork(what: str, work: Callable[[], object]) -> _Child:
    """Run work() in a forked child process, whose pipe carries back its
    pickled (ok, value) pair: (True, what work returned) or (False, the
    exception it raised).

    The child sees memory as it was at the fork, so the caller may go on
    changing what work reads.  It ends with os._exit, so it never returns
    into the caller, runs no exit handler and flushes no inherited buffer."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return _Child(pid, read_fd, what)
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, work())
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            outcome = (False, exc)
        try:
            payload = pickle.dumps(outcome)
        except Exception as exc:  # noqa: BLE001 - a value or exception pickle cannot take
            payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write_fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _join(child: _Child):
    """Read child's pipe to its end, reap it, and return what it sent, or
    raise the exception it sent.  A child that ends without sending a
    whole pair raises a RuntimeError naming its work."""
    try:
        with open(child.fd, "rb") as fh:
            payload = fh.read()
    finally:
        status = os.waitpid(child.pid, 0)[1]
    try:
        ok, value = pickle.loads(payload)
    except Exception:  # noqa: BLE001 - nothing or a cut-off pair was sent
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"{child.what} ended without a result (exit status {code})") from None
    if not ok:
        raise value
    return value


def _kill(child: _Child) -> None:
    """Kill and reap a child that will not be joined, and close its pipe."""
    # imported here, not with the module: importing signal at start-up
    # (it builds enum classes) raised the peak RSS of endstate-1k by ~0.9 MB
    import signal

    os.kill(child.pid, signal.SIGKILL)
    os.waitpid(child.pid, 0)
    os.close(child.fd)


def _train_and_score(
    state: PipelineState, stream: np.ndarray, checkpoints: Sequence[int]
) -> tuple[list[tuple[int, dict[str, float]]], list[comp.ItemScore], list[comp.ItemScore]]:
    """Train W over the token stream and score the entries' predictions
    at every checkpoint, the final weights and the end-state F.

    Returns the curve, one (tokens, accuracies) pair per checkpoint in
    order, then the incremental and the end-state scores.  While this
    process runs the loop, forked child processes (_fork) score: first
    the end-state baseline, whose child also solves F (state.F is read
    there first), then each checkpoint.  The fork is the snapshot: a
    child reads W as it was at the fork while the loop goes on writing
    its own copy.  Each checkpoint collects the previous checkpoint's
    child before it forks the next, so at most one checkpoint child is in
    flight, and collects the baseline's child once its result is waiting,
    so that child does not outlive its work.  Only a checkpoint at the
    stream's end sends its item scores back, the others their
    accuracies; without one, the final weights are scored here.  Each
    product is the same single-thread BLAS call on the same inputs as in
    a serial run, so the bits are the same.  A child's exception is
    raised here, and on every path out any child still running is killed
    and reaped."""
    import select  # imported here, as signal is in _kill

    baseline: Optional[_Child] = None
    checkpoint: Optional[_Child] = None
    end_scores: Optional[list[comp.ItemScore]] = None
    curve: list[tuple[int, dict[str, float]]] = []
    latest: Optional[list[comp.ItemScore]] = None  # the scores at the stream's end

    def score_checkpoint(m: Mapping):
        results = comprehension_scores(state, m)
        at_end = m.trained_tokens == stream.size
        acc = comprehension_accuracies(state, results)
        return m.trained_tokens, acc, results if at_end else None

    def collect(wait_for_baseline: bool) -> None:
        nonlocal baseline, checkpoint, end_scores, latest
        if checkpoint is not None:
            child, checkpoint = checkpoint, None
            tokens, acc, latest = _join(child)
            curve.append((tokens, acc))
        if baseline is not None and (
            wait_for_baseline or select.select([baseline.fd], [], [], 0)[0]  # its result waits
        ):
            child, baseline = baseline, None
            end_scores = _join(child)

    def on_checkpoint(m: Mapping) -> None:
        nonlocal checkpoint
        collect(wait_for_baseline=False)
        checkpoint = _fork(f"scoring the checkpoint at {m.trained_tokens} tokens",
                           lambda: score_checkpoint(m))

    try:
        baseline = _fork("scoring the end-state baseline", lambda: comprehension_scores(state))
        final = train_incremental(
            stream, state.C.rows, state.space.S, eta=state.cfg.eta, checkpoints=checkpoints,
            on_checkpoint=on_checkpoint,
        )
        collect(wait_for_baseline=False)
        if latest is None:  # no checkpoint at the stream's end
            latest = comprehension_scores(state, final)
        collect(wait_for_baseline=True)
        return curve, latest, end_scores
    finally:
        for child in (baseline, checkpoint):
            if child is not None:
                _kill(child)


def run_incremental(cfg: ExperimentConfig) -> dict:
    """Single-pass token learning with trajectory and frequency analyses.

    The token loop runs in this process while forked child processes
    solve the end-state F and score the baseline and each checkpoint
    (_train_and_score), so F is not solved here; every output is
    byte-identical to a serial run.  It needs os.fork, which POSIX
    systems have; it is tested on Linux only."""
    _check_fork("incremental scores its checkpoints in forked processes")
    state = build_pipeline(cfg, with_production=False)
    d, split = state.dataset, state.split

    train_ids = np.asarray(split.train_ids, dtype=np.int64)
    local_stream = lexicon.sample_token_stream(split.train, cfg.seed_stream)
    stream = train_ids[local_stream]
    checkpoints = _default_checkpoints(stream.size, cfg.n_checkpoints)
    curve_rows, inc_results, end_results = _train_and_score(state, stream, checkpoints)
    inc_acc = comprehension_accuracies(state, inc_results)
    end_acc = comprehension_accuracies(state, end_results)

    report = {
        "n_entries": len(d),
        "n_train": len(split.train_ids),
        "n_tokens": int(stream.size),
        "checkpoints": checkpoints,
        "incremental": inc_acc,
        "endstate": end_acc,
        "val_newform_scoring": "lenient_within_form",
    }
    tables = {
        "curve.csv": [["tokens", "train", "val_lenient", "val_newform"]] + [
            [tokens, repr(acc["train"]), repr(acc["val_lenient"]), repr(acc["val_newform"])]
            for tokens, acc in curve_rows
        ]
    }

    if cfg.frequency_effect:
        freq = np.array([d[i].token_frequency for i in split.train_ids], dtype=np.float64)
        by_id_inc = {r.item_id: r.r_target for r in inc_results}
        by_id_end = {r.item_id: r.r_target for r in end_results}
        r_inc = np.array([by_id_inc[i] for i in split.train_ids])
        r_end = np.array([by_id_end[i] for i in split.train_ids])
        logf = np.log1p(freq)
        ok = ~(np.isnan(r_inc) | np.isnan(r_end))
        report["frequency_effect"] = {
            "spearman_incremental": comp.spearman(logf[ok], r_inc[ok]),
            "spearman_endstate": comp.spearman(logf[ok], r_end[ok]),
            "pearson_incremental": comp.pearson(logf[ok], r_inc[ok]),
            "pearson_endstate": comp.pearson(logf[ok], r_end[ok]),
        }
        tables["items.csv"] = [["id", "frequency", "r_target_incremental", "r_target_endstate"]] + [
            [i, int(f0), repr(float(ri)), repr(float(re_))]
            for i, f0, ri, re_ in zip(split.train_ids, freq, r_inc, r_end)
        ]

    if cfg.error_analysis and cfg.feature_scheme == "role":
        report["role_errors"] = {
            "incremental": _role_misidentifications(state, inc_results),
            "endstate": _role_misidentifications(state, end_results),
        }

    write_outputs(cfg, report, tables)
    return report


def _role_misidentifications(
    state: PipelineState, results: Sequence[comp.ItemScore]
) -> dict[str, dict]:
    """Overgeneralization profile: items whose lemma, number, and case were
    recovered but whose role was not, counted per misidentified role."""
    d, split = state.dataset, state.split
    role_tokens: dict[str, int] = {}
    for i in split.train_ids:
        e = d[i]
        if e.semantic_role and e.role_frequency:
            role_tokens[e.semantic_role] = role_tokens.get(e.semantic_role, 0) + e.role_frequency

    out = {}
    for part, ids in (("train", set(split.train_ids)), ("validation", set(split.validation_ids))):
        counts: dict[str, int] = {}
        for r in results:
            if r.item_id not in ids or r.best_index < 0 or r.correct_strict:
                continue
            e = d[r.item_id]
            for j in state.pool.entry_ids[r.best_index]:
                b = d[j]
                if (
                    b.lemma == e.lemma and b.number == e.number and b.case == e.case
                    and b.semantic_role != e.semantic_role
                ):
                    counts[b.semantic_role] = counts.get(b.semantic_role, 0) + 1
                    break
        out[part] = {
            "misidentified": dict(sorted(counts.items())),
            "role_train_tokens": dict(sorted(role_tokens.items())),
        }
    return out


PLURAL_MARKERS = ("-(e)n", "-e", "-er", "-0", "-s", "other")


def classify_marker(candidate: str, singular: str) -> str:
    """Apparent plural marker of a candidate, by suffix comparison."""
    if candidate == singular:
        return "-0"
    if candidate in (singular + "en", singular + "n"):
        return "-(e)n"
    if candidate == singular + "e":
        return "-e"
    if candidate == singular + "er":
        return "-er"
    if candidate == singular + "s":
        return "-s"
    return "other"


def run_wug(cfg: ExperimentConfig, nonce_words: Sequence[str]) -> dict:
    """Nonce-plural elicitation.

    Comprehension is trained on all real words; each nonce's meaning is
    inferred from its singular form, shifted to a plural meaning, and
    mapped back to candidate forms.  The production mapping is re-solved
    with the nonces included (known only as singulars), so each nonce word
    may be given once.
    """
    if not nonce_words:
        raise ConfigError("no nonce words supplied")
    repeated = [w for w, n in Counter(nonce_words).items() if n > 1]
    if repeated:
        raise ConfigError(f"nonce words must be distinct; repeated: {', '.join(repeated)}")
    if cfg.number_opposition != "equipollent":
        raise ConfigError("the plural shift needs both number vectors; "
                          f"{_key_of('number_opposition')} must be equipollent")
    _check_production(cfg)
    if cfg.semantics_mode != "simulate":
        raise ConfigError("the wug experiment simulates its meanings; "
                          f"{_key_of('semantics_mode')} must be simulate, "
                          f"got {cfg.semantics_mode!r}")
    d = _prepare_dataset(cfg)
    cue_cfg = cfg.cue_config()
    state = _comprehension_stage(
        cfg, lexicon._split_ids(d, cue_cfg.cue_string, range(len(d)), ()), cue_cfg
    )
    inv, space, F = state.C.inventory, state.space, state.F

    usable, skipped, novel_counts = [], [], {}
    for w in nonce_words:
        grams = extract_grams(w, cue_cfg)
        known = sum(g in inv for g in grams)
        novel_counts[w] = len(grams) - known
        (usable if known else skipped).append(w)
    if not usable:
        raise ConfigError("every nonce word consists of unseen cues only")
    C_nonce = build_cue_matrix(usable, inv, cue_cfg).rows
    S_nonce_sg = C_nonce @ F.W
    S_pl = np.vstack([semantics.wug_plural_vector(s, space.registry) for s in S_nonce_sg])

    # imported here, as in _comprehension_stage
    from concurrent.futures import ThreadPoolExecutor

    # The worker is joined before the fork in _produce_in_two.
    with ThreadPoolExecutor(max_workers=1) as worker:
        G, posmodel, X = _production_model(
            cfg, inv, np.vstack([space.S, S_nonce_sg]), np.vstack([state.C.rows, C_nonce]),
            [cue_cfg.cue_string(e) for e in d] + usable, worker, S_pl, range(len(S_pl)),
        )
    _, results = _produce_in_two(S_pl, G, posmodel, F, cfg.production_params(), X)
    marker_counts = dict.fromkeys(PLURAL_MARKERS, 0)
    per_nonce = {}
    candidate_rows = [["nonce", "rank", "candidate", "score", "tolerated", "marker", "truncated"]]
    for w, res in zip(usable, results):
        ranked = res.top_n
        per_nonce[w] = [c.surface for c in ranked]
        for rank, cand in enumerate(ranked, start=1):
            marker = classify_marker(cand.surface, w)
            marker_counts[marker] += 1
            candidate_rows.append(
                [w, rank, cand.surface, repr(cand.score), cand.tolerated_count, marker,
                 int(res.truncated)]
            )

    report = {
        "n_real_words": len(d),
        "nonce_words": list(nonce_words),
        "skipped_nonces": skipped,
        "novel_gram_counts": novel_counts,
        "candidates": per_nonce,
        "marker_summary": marker_counts,
        "total_candidates": sum(marker_counts.values()),
        **production_counts(results),
    }
    write_outputs(cfg, report, {"candidates.csv": candidate_rows})
    return report


def run_pruning(cfg: ExperimentConfig, thresholds: Optional[Sequence[float]] = None) -> dict:
    """Sweep magnitude-pruning thresholds and track train comprehension."""
    state = build_pipeline(cfg, with_production=False)
    W = state.F.W
    if thresholds is None:
        qs = np.linspace(0.0, 1.0, 11)
        thresholds = [0.0] + [float(np.quantile(np.abs(W), q)) for q in qs[1:]]
        thresholds[-1] = float(np.abs(W).max()) * (1 + 1e-9)  # prune everything at the top end

    rows = []
    for theta_p in thresholds:
        pruned, fraction = prune(state.F, theta_p)
        results = comprehension_scores(state, pruned)
        acc = comp.evaluate(results, state.split, "train")
        rows.append((float(theta_p), fraction, acc))

    report = {
        "curve": [{"threshold": t, "pruned_fraction": f, "train_accuracy": a} for t, f, a in rows],
    }
    curve = [["threshold", "pruned_fraction", "train_accuracy"]] + [
        [repr(t), repr(f), repr(a)] for t, f, a in rows
    ]
    write_outputs(cfg, report, {"curve.csv": curve})
    return report


def run_split(cfg: ExperimentConfig) -> dict:
    """Materialize the configured split to train/validation files."""
    d = _prepare_dataset(cfg)
    split = _split(cfg, d, cfg.cue_config())
    lexicon.save_split(split, cfg.output)
    write_outputs(cfg)
    return {
        "n_train": len(split.train_ids),
        "n_validation": len(split.validation_ids),
        "n_homophone_val": len(split.homophone_val_ids),
        "n_newform_val": len(split.newform_val_ids),
        "n_novel_lemma": len(split.novel_lemma_ids),
        "achieved_train_fraction": split.achieved_train_fraction,
    }


def run_inspect(cfg: ExperimentConfig) -> dict:
    """Dataset and cue-space summary for a config, no training."""
    d = _prepare_dataset(cfg)
    cue_cfg = cfg.cue_config()
    strings = [cue_cfg.cue_string(e) for e in d]
    inv = build_inventory(strings, cue_cfg)
    groups = d.groups_by(cue_cfg.cue_string)
    return {
        "n_entries": len(d),
        "n_lemmas": len({e.lemma for e in d}),
        "n_distinct_forms": len(groups),
        "n_homophone_groups": sum(1 for g in groups.values() if len(g) > 1),
        "n_cues": len(inv),
        "cue_unit": cue_cfg.unit,
        "cue_n": cue_cfg.n,
        "total_frequency": sum(e.frequency for e in d),
    }
