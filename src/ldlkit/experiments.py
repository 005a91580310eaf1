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
import math
import operator
import os
import pickle
from collections import Counter
from dataclasses import Field, dataclass, field, fields
from functools import cached_property
from typing import BinaryIO, Callable, Collection, Iterable, NamedTuple, Optional, Sequence

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
from .production import (  # produce: perfbench/trace.py wraps it here
    INPUT_SPACES,
    PositionalSupportModel,
    ProductionParams,
    ProductionResult,
    positional_targets,
    produce,
    produce_batch,
    production_inputs,
    production_rows,
    train_positional,
)

DEFAULT_THETA = {
    ("phone", 2): 0.05,
    ("phone", 3): 0.008,
    ("phone", 4): 0.005,
    ("syllable", 2): 0.005,
    ("letter", 3): 0.008,
}


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
    production_k: int = _key("production.k", ProductionParams.k)
    production_theta: Optional[float] = _key("production.theta", None, float)
    production_tolerance: bool = _key("production.tolerance", ProductionParams.tolerance)
    production_max_tolerated: int = _key("production.max_tolerated", ProductionParams.max_tolerated)
    production_input: str = _key("production.input", ProductionParams.input_space,
                                 choices=INPUT_SPACES)
    production_top_n: int = _key("production.top_n", ProductionParams.top_n)
    production_max_paths: Optional[int] = _key("production.max_paths", ProductionParams.max_paths,
                                               int)
    max_len_margin: int = _key("production.max_len_margin", 2, low=(">=", 0))
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
        return DEFAULT_THETA.get((self.cue_unit, self.cue_n), ProductionParams.theta)

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
    """Flat `key = value` lines, each key on one line only.  A # starts a
    comment at the start of a line or after whitespace; elsewhere it is
    part of the value, so that a path such as demo#1.tsv, as written to
    config.resolved, reads back."""
    import re  # imported here: re is used by this function only

    out: dict[str, str] = {}
    given_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|(?<=\s))#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in given_on:
            raise ConfigError(f"line {lineno}: key {key!r} is given again "
                              f"(first on line {given_on[key]})")
        given_on[key] = lineno
        out[key] = value
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
    with open(path, encoding="utf-8-sig") as fh:
        return resolve_config(parse_config_text(fh.read()), overrides)


def resolved_pairs(cfg: ExperimentConfig) -> dict[str, str]:
    """The full config as flat key/value strings, defaults included."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.metadata["key"]] = "" if value is None else str(value)
    return out


def _finite(obj):
    """obj with every non-finite float, however deep, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def json_text(obj, indent: Optional[int] = None) -> str:
    """obj as JSON with sorted keys.  JSON (RFC 8259) has no NaN or
    infinity, so a non-finite statistic is written as null."""
    return json.dumps(_finite(obj), indent=indent, sort_keys=True, allow_nan=False)


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
        fh.write(json_text(report, indent=2) + "\n")


@dataclass
class PipelineState:
    """The inputs every verb shares.  It holds no fitted model: each stage
    returns what it fits (solve_f, _production_stage).

    A process holds only what its own stages read: the gold pool is built
    by the first read of pool in each process, and C stays sparse (CSR),
    so every process that forks inherits only its index arrays; a solve
    or a scoring takes the dense rows it reads from C.dense() and lets
    go of them when done."""

    cfg: ExperimentConfig
    dataset: lexicon.Dataset
    split: lexicon.SplitResult
    cue_cfg: CueConfig
    C: CueMatrix
    space: semantics.SemanticSpace
    dropped_entries: int = 0
    analytical_corr_mean: Optional[float] = None

    @cached_property
    def pool(self) -> comp.GoldPool:
        """The gold pool that scoring reads (semantics.pool: every entry's
        row or the train rows only), built on the first read in each
        process.  With production on, only the F child reads it; in
        incremental, the baseline's child and the scorer each build their
        own, and the calling process builds it only to score the final
        weights itself or for the role error analysis."""
        ids = None if self.cfg.gold_pool == "all" else list(self.split.train_ids)
        return comp.GoldPool.build(self.space, self.forms, restrict_ids=ids)

    @cached_property
    def forms(self) -> comp.Forms:
        """The dataset's distinct forms (entries of one cue string), which
        scoring predicts once each; built on the first read in each
        process, as pool is."""
        return comp.Forms.build(self.dataset, self.cue_cfg)


def solve_f(state: PipelineState) -> Mapping:
    """The end-state comprehension mapping F, solved on the train rows."""
    train_ids = list(state.split.train_ids)
    return solve_endstate(state.C.dense(train_ids), state.space.S[train_ids])


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
) -> PipelineState:
    """The stage every verb shares: the inventory of the training forms,
    the cue matrix of every form and the simulated space (unless space is
    given).  A verb that needs F solves it (solve_f)."""
    d = split.dataset
    inv = build_inventory([cue_cfg.cue_string(e) for e in split.train], cue_cfg)
    C = build_cue_matrix([cue_cfg.cue_string(e) for e in d], inv, cue_cfg)
    if space is None:
        space = _simulated_space(cfg, d, inv)
    return PipelineState(cfg=cfg, dataset=d, split=split, cue_cfg=cue_cfg, C=C, space=space)


def _production_stage(
    state: PipelineState,
) -> tuple[Mapping, comp.Scores, PositionalSupportModel, np.ndarray]:
    """F, every entry's comprehension scores under F, the positional model
    and its inputs X for every entry in id order, on two CPUs.

    A child forked beside the production fits (_beside) solves F on the
    train rows, builds the gold pool, writes F's weights into an array
    shared with this process (_shared_array) and sends back the scores.
    Meanwhile this process makes G's train rows of the cue matrix dense
    (CueMatrix.dense), as a temporary passed to _production_model, and
    fits the positional model there, which lets go of those rows, and of
    G with predicted cues, before the positional solves.  The child pays
    while G outlasts F and its scoring: serially on endstate-1k corpus 11
    (one BLAS thread, 2-CPU Xeon), G took 1.29 s, F 0.79 s and scoring F
    0.07 s.  Each product is the same single-thread BLAS call on the same
    values as in a serial run, so every bit is that of one."""
    S, train_ids = state.space.S, list(state.split.train_ids)
    F_W = _shared_array((len(state.C.inventory), S.shape[1]))

    def solve_and_score() -> comp.Scores:
        F = solve_f(state)
        np.copyto(F_W, F.W)
        return comprehension_scores(state, F)

    scores, (positional, X) = _beside(
        "solving and scoring the end-state F", solve_and_score,
        lambda: _production_model(state.cfg, state.C.inventory, S[train_ids],
                                  state.C.dense(train_ids),
                                  [state.cue_cfg.cue_string(e) for e in state.split.train], S),
    )
    return Mapping(W=F_W), scores, positional, X


def _production_model(
    cfg: ExperimentConfig, inv: CueInventory, S: np.ndarray, cue_rows: np.ndarray,
    forms: Sequence[str], targets: np.ndarray,
) -> tuple[PositionalSupportModel, np.ndarray]:
    """The positional model trained on forms, the cue strings of the rows
    of S, and its inputs X for the meanings targets (production_inputs).

    With semantics, X is targets, no G is solved and cue_rows is let go
    unread.  With predicted cues, G (S to cue_rows) and the training
    inputs S @ G.W are computed here and S and cue_rows let go; then a
    child forked beside the positional fit (_beside), so holding no train
    copies, computes X into an array shared with this process
    (_shared_array), and this process lets go of G, which only that child
    reads.  The child hides the per-row inputs behind the fit (0.38 s and
    0.42 s, measured as in _production_stage).  cue_rows are dense rows of
    the cue matrix (CueMatrix.dense), which each caller passes as a
    temporary that nothing else holds, so they are freed before the
    positional solves (train_positional)."""
    cue_cfg = cfg.cue_config()

    def fit(inputs: np.ndarray) -> PositionalSupportModel:
        targets = positional_targets(forms, inv, cue_cfg, cfg.max_len_margin)
        return train_positional(inputs, targets, inv, cue_cfg)

    if cfg.production_input == "semantics":
        del cue_rows
        return fit(S), targets
    G = solve_endstate(S, cue_rows)
    inputs = S @ G.W
    del S, cue_rows
    X = _shared_array((len(targets), G.W.shape[1]))

    def predict() -> None:  # into the shared X, so nothing is sent back
        production_inputs(targets, G, cfg.production_input, out=X)

    def fit_inputs() -> PositionalSupportModel:
        nonlocal G
        del G  # read only by the prediction child, forked before this runs
        return fit(inputs)

    _, positional = _beside("predicting the production inputs", predict, fit_inputs)
    return positional, X


def build_pipeline(cfg: ExperimentConfig) -> PipelineState:
    """Assemble the split, cue matrix and semantic space.  Nothing is
    fitted here, and the gold pool is not built: a verb fits what it
    needs (solve_f, _production_stage), and each process that scores
    builds the pool on its first read of PipelineState.pool."""
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

    state = _comprehension_stage(cfg, _split(cfg, d, cue_cfg), cue_cfg, space)
    state.dropped_entries, state.analytical_corr_mean = dropped, corr_mean
    return state


def comprehension_scores(state: PipelineState, F: Mapping) -> comp.Scores:
    """Score every entry's prediction under F.  Entries of one form share
    their cue row, so only the cue rows of each form's first entry are
    mapped (PipelineState.forms), and the fresh product is centred in
    place, so it is the scoring's only copy of the predictions.  The
    first scoring in a process builds its gold pool and its forms."""
    forms = state.forms
    S_hat = state.C.dense(forms.first) @ F.W
    return comp.score_items(comp.centre(S_hat, out=S_hat), state.space, state.pool, forms)


def comprehension_accuracies(state: PipelineState, results: comp.Scores) -> dict[str, float]:
    return {s: comp.evaluate(results, state.split, s) for s in comp.SCHEMES}


def production_counts(results: Collection[ProductionResult]) -> dict[str, int]:
    """Items whose path search hit max_paths, and items with no candidate."""
    return {
        "truncated_items": sum(r.truncated for r in results),
        "zero_candidate_items": sum(r.n_candidates == 0 for r in results),
    }


def _produce_in_two(
    X: np.ndarray, S_targets: np.ndarray, m: PositionalSupportModel, F: Mapping,
    params: ProductionParams,
) -> list[ProductionResult]:
    """produce_batch(X, S_targets, ...) on two CPUs: a child forked beside
    this process (_beside) produces the second half of the rows while this
    process produces the first half.  Serially, endstate-1k's 1,000 items
    took 0.37 s in search_supports and 0.31 s in path search and ranking
    (measured as in _production_stage).  Returns the results in row order,
    which are those of one serial batch (produce_batch)."""
    half = len(S_targets) // 2
    second, first = _beside(f"the production of items [{half}, {len(S_targets)})",
                            lambda: produce_batch(X[half:], S_targets[half:], m, F, params),
                            lambda: produce_batch(X[:half], S_targets[:half], m, F, params))
    return first + second


def production_accuracies(
    state: PipelineState, results: Sequence[ProductionResult]
) -> dict[str, float]:
    """Production accuracy per scheme, results being every entry's in id order."""
    correct = [
        res.best is not None and res.best.surface == state.cue_cfg.cue_string(e)
        for e, res in zip(state.dataset, results)
    ]
    return {s: comp.scheme_accuracy(correct, state.split, s) for s in comp.SCHEMES}


def _check_production(cfg: ExperimentConfig) -> None:
    """Production needs cues of two or more units, since a unigram
    boundary cue both opens and closes a path, so every search would find
    the path of that one cue, which spells the empty form; and it needs
    os.fork (_production_stage, _production_model, _produce_in_two), by
    which each process holds only the arrays its own stage reads."""
    if cfg.cue_n < 2:
        raise ConfigError(f"{_key_of('cue_n')} must be >= 2 where production runs, got {cfg.cue_n}")
    _check_fork("production computes its inputs and half its items in forked processes")


def _check_fork(why: str) -> None:
    """A run that forks needs os.fork, which POSIX systems have; it is
    tested on Linux only.  Checked before anything is fitted or written."""
    if not hasattr(os, "fork"):
        raise ConfigError(f"{why}, and os.fork is missing on this platform")


def _split_counts(split: lexicon.SplitResult) -> dict:
    """The sizes of a split's parts and its achieved train fraction."""
    return {
        "n_train": len(split.train_ids),
        "n_validation": len(split.validation_ids),
        "n_homophone_val": len(split.homophone_val_ids),
        "n_newform_val": len(split.newform_val_ids),
        "n_novel_lemma": len(split.novel_lemma_ids),
        "achieved_train_fraction": split.achieved_train_fraction,
    }


def run_endstate(cfg: ExperimentConfig) -> dict:
    """Closed-form training plus the full evaluation grid."""
    if cfg.production_enabled:
        _check_production(cfg)
    state = build_pipeline(cfg)
    if cfg.production_enabled:
        F, results, positional, X = _production_stage(state)
        prod = _produce_in_two(X, state.space.S, positional, F, cfg.production_params())
    else:
        results = comprehension_scores(state, solve_f(state))
    comp_acc = comprehension_accuracies(state, results)
    report = {
        "n_entries": len(state.dataset),
        **_split_counts(state.split),
        "n_cues": len(state.C.inventory),
        "novel_grams_dropped": int(state.C.novel_dropped.sum()),
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
        report.update(production_counts(prod))
        tables["production.csv"] = production_rows(
            (state.cue_cfg.cue_string(e), res) for e, res in zip(state.dataset, prod)
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
    """A process forked by _fork_serving: its pid, the read end of its
    result pipe, and what it does, which names it in errors.  The pipe is
    closed once the child is reaped."""

    pid: int
    results: BinaryIO
    what: str


def _fork(what: str, work: Callable[[], object]) -> _Child:
    """Run work() in a forked child process that sends back its outcome
    (_send) and ends; _join collects it."""
    return _fork_serving(what, lambda out: _send(out, work))


def _beside(what: str, theirs: Callable[[], object], ours: Callable[[], object]) -> tuple:
    """(theirs(), ours()): theirs runs in a child forked with _fork while
    this process runs ours.  On any error here the child is killed and
    reaped."""
    child = _fork(what, theirs)
    try:
        mine = ours()
        return _join(child), mine
    finally:
        _kill(child)


def _fork_serving(what: str, serve: Callable[[BinaryIO], object]) -> _Child:
    """Fork a child process that calls serve(out), out being the write end
    of the pipe its results go back on (_send, read with _receive).

    The child sees memory as it was at the fork, shared mappings aside,
    so the caller may go on changing what it reads.  It ends with
    os._exit, so it never returns into the caller, runs no exit handler
    and flushes no inherited buffer."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return _Child(pid, open(read_fd, "rb"), what)
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            serve(out)
        status = 0
    finally:
        os._exit(status)


def _send(out: BinaryIO, work: Callable[[], object]) -> bool:
    """Call work() and send its outcome on out as one pickled (ok, value)
    pair: (True, what work returned) or (False, the exception it raised).
    Returns ok."""
    try:
        outcome = (True, work())
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        outcome = (False, exc)
    try:
        payload = pickle.dumps(outcome)
    except Exception as exc:  # noqa: BLE001 - a value or exception pickle cannot take
        outcome = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        payload = pickle.dumps(outcome)
    out.write(payload)
    out.flush()
    return outcome[0]


def _receive(child: _Child):
    """Return the value of child's next (ok, value) pair.  A child that
    sends an exception, or ends before a whole pair arrives, is done: it
    is reaped, and its exception, or a RuntimeError naming its work, is
    raised."""
    try:
        ok, value = pickle.load(child.results)
    except Exception:  # noqa: BLE001 - nothing or a cut-off pair was sent
        code = os.waitstatus_to_exitcode(_reap(child))
        raise RuntimeError(f"{child.what} ended without a result (exit status {code})") from None
    if not ok:
        _reap(child)
        raise value
    return value


def _join(child: _Child):
    """Receive the one result of a child forked by _fork and reap it."""
    value = _receive(child)
    _reap(child)
    return value


def _reap(child: _Child) -> int:
    """Close child's pipe, wait for it to end and return its wait status."""
    child.results.close()
    return os.waitpid(child.pid, 0)[1]


def _shared_array(shape: tuple[int, int]) -> np.ndarray:
    """A float64 array of zeros in a shared anonymous mmap: what a child
    forked after it is made writes there, this process reads."""
    import mmap  # imported here, as signal is in _kill

    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * shape[0] * shape[1]))


def _kill(child: _Child) -> None:
    """Kill and reap a child that will not be joined, unless it was
    reaped already."""
    if child.results.closed:
        return
    # imported here, not with the module: importing signal at start-up
    # (it builds enum classes) raised the peak RSS of endstate-1k by ~0.9 MB
    import signal

    os.kill(child.pid, signal.SIGKILL)
    _reap(child)


def _train_and_score(
    state: PipelineState, stream: np.ndarray, checkpoints: Sequence[int]
) -> tuple[list[tuple[int, dict[str, float]]], comp.Scores, comp.Scores]:
    """Train W over the token stream and score the entries' predictions
    at every checkpoint, the final weights and the end-state F.

    Returns the curve, one (tokens, accuracies) pair per checkpoint in
    order, then the incremental and the end-state scores.  This process
    runs the loop; before the first token, and so before W exists (the
    loop's writes to W then take no copy-on-write faults), it forks
    - the baseline's child (_fork), which solves F (solve_f) and scores
      it, so that F does not hold up the checkpoints: serially on
      incremental-stream corpus 11 (one BLAS thread, 2-CPU Xeon), F took
      0.82 s, against a checkpoint every ~0.14 s of a 2.84 s loop over
      269,480 tokens.  It is collected at the first checkpoint after its
      result is waiting, so it does not outlive its work.
    - with checkpoints, one scorer (_fork_serving) for all of them, each
      scoring (~0.05 s) off the loop.  At each checkpoint the loop collects
      the previous checkpoint's result, copies W into one W-sized shared
      anonymous mmap and writes the token count down the scorer's request
      pipe.  So at most one checkpoint is in flight, and the buffer
      (_shared_array) is its only snapshot.  The scorer ends when its
      request pipe does.
    Only a checkpoint at the stream's end sends its item scores back, the
    others their accuracies; without one, the final weights are scored
    here.  Each product is the same single-thread BLAS call on the same
    values as in a serial run, so the bits are the same.  A child's
    exception is raised here, and on every path out any child still
    running is killed and reaped."""
    import select  # imported here, as signal is in _kill

    baseline: Optional[_Child] = None
    scorer: Optional[_Child] = None
    to_scorer: Optional[int] = None  # the write end of the scorer's request pipe
    in_flight = False
    end_scores: Optional[comp.Scores] = None
    curve: list[tuple[int, dict[str, float]]] = []
    latest: Optional[comp.Scores] = None  # the scores at the stream's end

    def score_checkpoint(m: Mapping):
        results = comprehension_scores(state, m)
        at_end = m.trained_tokens == stream.size
        acc = comprehension_accuracies(state, results)
        return m.trained_tokens, acc, results if at_end else None

    def serve(out: BinaryIO) -> None:
        os.close(to_scorer)
        with open(requests, "rb") as fh:
            for line in fh:  # one token count per checkpoint
                m = Mapping(W=snapshot, trained_tokens=int(line))
                if not _send(out, lambda: score_checkpoint(m)):
                    return

    def collect(wait_for_baseline: bool) -> None:
        nonlocal baseline, in_flight, end_scores, latest
        if in_flight:
            in_flight = False
            tokens, acc, latest = _receive(scorer)
            curve.append((tokens, acc))
        if baseline is not None and (
            wait_for_baseline or select.select([baseline.results], [], [], 0)[0]  # its result waits
        ):
            child, baseline = baseline, None
            end_scores = _join(child)

    def on_checkpoint(m: Mapping) -> None:
        nonlocal scorer, in_flight
        collect(wait_for_baseline=False)
        np.copyto(snapshot, m.W)
        scorer = scorer._replace(what=f"scoring the checkpoint at {m.trained_tokens} tokens")
        try:
            os.write(to_scorer, b"%d\n" % m.trained_tokens)
        except BrokenPipeError:
            pass  # the scorer has ended; collecting this checkpoint says how
        in_flight = True

    try:
        baseline = _fork("scoring the end-state baseline",
                         lambda: comprehension_scores(state, solve_f(state)))
        if checkpoints:
            shape = (state.C.shape[1], state.space.S.shape[1])
            snapshot = _shared_array(shape)
            requests, to_scorer = os.pipe()
            try:
                scorer = _fork_serving("the checkpoint scorer", serve)
            finally:
                os.close(requests)
        final = train_incremental(
            stream, state.C, state.space.S, eta=state.cfg.eta, checkpoints=checkpoints,
            on_checkpoint=on_checkpoint,
        )
        collect(wait_for_baseline=False)
        if latest is None:  # no checkpoint at the stream's end
            latest = comprehension_scores(state, final)
        collect(wait_for_baseline=True)
        return curve, latest, end_scores
    finally:
        if to_scorer is not None:
            os.close(to_scorer)
        for child in (baseline, scorer):
            if child is not None:
                _kill(child)


def run_incremental(cfg: ExperimentConfig) -> dict:
    """Single-pass token learning with trajectory and frequency analyses.

    The token loop runs in this process while one forked child solves
    the end-state F and scores it and another scores every checkpoint
    (_train_and_score), so F is not solved here; every output is
    byte-identical to a serial run.  It needs os.fork, which POSIX
    systems have; it is tested on Linux only."""
    _check_fork("incremental scores its checkpoints in forked processes")
    state = build_pipeline(cfg)
    d, split = state.dataset, state.split

    train_ids = np.asarray(split.train_ids, dtype=np.int64)
    stream = train_ids[lexicon.sample_token_stream(split.train, cfg.seed_stream)]
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

    freq = np.array([d[i].token_frequency for i in split.train_ids], dtype=np.float64)
    r_inc = inc_results.r_target[train_ids]
    r_end = end_results.r_target[train_ids]
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


def _role_misidentifications(state: PipelineState, results: comp.Scores) -> dict[str, dict]:
    """Overgeneralization profile: items whose lemma, number, and case were
    recovered but whose role was not, counted per misidentified role."""
    d, split = state.dataset, state.split
    role_tokens: dict[str, int] = {}
    for i in split.train_ids:
        e = d[i]
        if e.semantic_role and e.role_frequency:
            role_tokens[e.semantic_role] = role_tokens.get(e.semantic_role, 0) + e.role_frequency

    best, strict = results.best_index.tolist(), results.correct_strict.tolist()
    out = {}
    for part, ids in (("train", split.train_ids), ("validation", split.validation_ids)):
        counts: dict[str, int] = {}
        for i in ids:
            if best[i] < 0 or strict[i]:
                continue
            e = d[i]
            for j in state.pool.entry_ids[best[i]]:
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
        cfg, lexicon.split_ids(d, cue_cfg.cue_string, range(len(d)), ()), cue_cfg
    )
    inv, space, F = state.C.inventory, state.space, solve_f(state)

    usable, skipped, novel_counts = [], [], {}
    for w in nonce_words:
        grams = extract_grams(w, cue_cfg)
        known = sum(g in inv for g in grams)
        novel_counts[w] = len(grams) - known
        (usable if known else skipped).append(w)
    if not usable:
        raise ConfigError("every nonce word consists of unseen cues only")
    C_nonce = build_cue_matrix(usable, inv, cue_cfg).dense()
    S_nonce_sg = C_nonce @ F.W
    S_pl = np.vstack([semantics.wug_plural_vector(s, space.registry) for s in S_nonce_sg])

    posmodel, X = _production_model(
        cfg, inv, np.vstack([space.S, S_nonce_sg]), np.vstack([state.C.dense(), C_nonce]),
        [cue_cfg.cue_string(e) for e in d] + usable, S_pl,
    )
    results = _produce_in_two(X, S_pl, posmodel, F, cfg.production_params())
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
    state = build_pipeline(cfg)
    F = solve_f(state)
    if thresholds is None:
        absW = np.abs(F.W)
        qs = np.linspace(0.0, 1.0, 11)
        thresholds = [0.0] + np.quantile(absW, qs[1:]).tolist()
        thresholds[-1] = float(absW.max()) * (1 + 1e-9)  # prune everything at the top end
        del absW

    rows = []
    for theta_p in thresholds:
        pruned, fraction = prune(F, theta_p)
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
    return _split_counts(split)


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
