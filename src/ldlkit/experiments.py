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
import os
from dataclasses import dataclass, fields
from typing import Collection, Optional, Sequence

import numpy as np

from . import comprehension as comp
from . import lexicon, semantics
from .cues import (
    CueConfig,
    CueInventory,
    CueMatrix,
    build_cue_matrix,
    build_inventory,
    extract_grams,
)
from .mappings import Mapping, prune, solve_endstate, train_incremental
from .production import (
    PositionalSupportModel,
    ProductionParams,
    ProductionResult,
    positional_targets,
    produce,
    save_production_report,
    train_positional,
)

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


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    data: str = ""
    output: str = "out"
    cue_unit: str = "phone"
    cue_n: int = 3
    cue_boundary: str = "#"
    article_mode: str = "none"
    semantics_mode: str = "simulate"  # simulate | embeddings | analytical
    semantics_dim: Optional[int] = None  # default: cue inventory size
    sd_lexeme: float = 4.0
    sd_feature: float = 4.0
    sd_noise: float = 1.0
    feature_scale: float = 1.0
    feature_scheme: str = "case"  # case | role
    number_opposition: str = "equipollent"
    embeddings_path: Optional[str] = None
    gold_pool: str = "all"  # all | train
    split_mode: str = "random"  # random | no_novel_cues
    train_fraction: float = 0.8
    eta: float = 0.001
    n_checkpoints: int = 10
    simulate_roles: bool = False
    subsample_lemmas: Optional[int] = None
    production_enabled: bool = True
    production_k: int = 10
    production_theta: Optional[float] = None
    production_tolerance: bool = False
    production_max_tolerated: int = 2
    production_input: str = "predicted_cues"
    production_top_n: int = 5
    production_max_paths: Optional[int] = None
    max_len_margin: int = 2
    frequency_effect: bool = True
    error_analysis: bool = False
    seed_split: int = 1
    seed_semantics: int = 2
    seed_stream: int = 3

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


_KEYMAP = {
    "data": ("data", str),
    "output": ("output", str),
    "cues.unit": ("cue_unit", str),
    "cues.n": ("cue_n", int),
    "cues.boundary": ("cue_boundary", str),
    "articles.mode": ("article_mode", str),
    "semantics.mode": ("semantics_mode", str),
    "semantics.dim": ("semantics_dim", int),
    "semantics.sd_lexeme": ("sd_lexeme", float),
    "semantics.sd_feature": ("sd_feature", float),
    "semantics.sd_noise": ("sd_noise", float),
    "semantics.feature_scale": ("feature_scale", float),
    "semantics.scheme": ("feature_scheme", str),
    "semantics.number": ("number_opposition", str),
    "semantics.embeddings": ("embeddings_path", str),
    "semantics.pool": ("gold_pool", str),
    "split.mode": ("split_mode", str),
    "split.fraction": ("train_fraction", float),
    "learning.eta": ("eta", float),
    "learning.checkpoints": ("n_checkpoints", int),
    "roles.simulate": ("simulate_roles", bool),
    "roles.subsample_lemmas": ("subsample_lemmas", int),
    "production.enabled": ("production_enabled", bool),
    "production.k": ("production_k", int),
    "production.theta": ("production_theta", float),
    "production.tolerance": ("production_tolerance", bool),
    "production.max_tolerated": ("production_max_tolerated", int),
    "production.input": ("production_input", str),
    "production.top_n": ("production_top_n", int),
    "production.max_paths": ("production_max_paths", int),
    "production.max_len_margin": ("max_len_margin", int),
    "analyses.frequency_effect": ("frequency_effect", bool),
    "analyses.error_analysis": ("error_analysis", bool),
    "seeds.split": ("seed_split", int),
    "seeds.semantics": ("seed_semantics", int),
    "seeds.stream": ("seed_stream", int),
}
_FIELD_TO_KEY = {f: k for k, (f, _) in _KEYMAP.items()}


def _coerce(key: str, raw: str):
    field_name, typ = _KEYMAP[key]
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return field_name, True
        if raw.lower() in ("false", "0", "no", "off"):
            return field_name, False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return field_name, typ(raw)
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
    kwargs = {}
    for key, raw in merged.items():
        if key not in _KEYMAP:
            raise ConfigError(f"unknown config key: {key!r}")
        if raw.strip() == "":  # empty value means "use the default"
            continue
        field_name, value = _coerce(key, raw)
        kwargs[field_name] = value
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
        key = _FIELD_TO_KEY[f.name]
        value = getattr(cfg, f.name)
        out[key] = "" if value is None else str(value)
    return out


def write_resolved(cfg: ExperimentConfig, path: str | os.PathLike) -> None:
    pairs = resolved_pairs(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(pairs):
            fh.write(f"{key}={pairs[key]}\n")


def _write_json(obj, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
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
    F: Mapping
    G: Optional[Mapping] = None
    positional: Optional[PositionalSupportModel] = None
    pool: Optional[comp.GoldPool] = None
    dropped_entries: int = 0
    analytical_corr_mean: Optional[float] = None


def _prepare_dataset(cfg: ExperimentConfig) -> lexicon.Dataset:
    d = lexicon.load_dataset(cfg.data)
    d = lexicon.attach_articles(d, cfg.article_mode)
    if cfg.simulate_roles:
        d = lexicon.simulate_role_frequencies(d, seed=cfg.seed_stream)
    if cfg.subsample_lemmas:
        lemmas = sorted({e.lemma for e in d})
        rng = np.random.default_rng(cfg.seed_split)
        chosen = set(rng.choice(lemmas, size=min(cfg.subsample_lemmas, len(lemmas)), replace=False))
        d = lexicon.Dataset(e for e in d if e.lemma in chosen)
    return d


def _split(cfg: ExperimentConfig, d: lexicon.Dataset, cue_cfg: CueConfig) -> lexicon.SplitResult:
    if cfg.split_mode == "random":
        return lexicon.split_random(d, cfg.train_fraction, cfg.seed_split, cue_cfg.cue_string)
    if cfg.split_mode == "no_novel_cues":
        return lexicon.split_no_novel_cues(
            d, cfg.train_fraction, cfg.seed_split,
            grams_of=lambda e: extract_grams(cue_cfg.cue_string(e), cue_cfg),
            cue_string_of=cue_cfg.cue_string,
        )
    raise ConfigError(f"unknown split mode: {cfg.split_mode!r}")


def _simulated_space(
    cfg: ExperimentConfig, d: lexicon.Dataset, inv: CueInventory
) -> semantics.SemanticSpace:
    """Simulated semantic vectors, one dimension per cue unless semantics.dim is set."""
    dim = cfg.semantics_dim if cfg.semantics_dim else len(inv)
    return semantics.simulate_vectors(
        d, dim=dim, seed=cfg.seed_semantics,
        sd_lexeme=cfg.sd_lexeme, sd_feature=cfg.sd_feature, sd_noise=cfg.sd_noise,
        feature_scale=cfg.feature_scale, scheme=cfg.feature_scheme,
        number_opposition=cfg.number_opposition,
    )


def _production_model(
    cfg: ExperimentConfig, S: np.ndarray, cue_rows: np.ndarray, forms: Sequence[str],
    inv: CueInventory, cue_cfg: CueConfig,
) -> tuple[Mapping, PositionalSupportModel]:
    """The production mapping G (S to cue_rows) and the positional model
    trained on forms, the cue strings of the rows of S."""
    G = solve_endstate(S, cue_rows, kind="production")
    max_len = max(len(extract_grams(s, cue_cfg)) for s in forms) + cfg.max_len_margin
    targets = positional_targets(forms, inv, cue_cfg, max_len)
    inputs = S @ G.W if cfg.production_input == "predicted_cues" else S
    return G, train_positional(inputs, targets, inv, cue_cfg, cfg.production_input)


def build_pipeline(cfg: ExperimentConfig, with_production: Optional[bool] = None) -> PipelineState:
    """Assemble split, cue matrix, semantic space, and trained mappings."""
    d = _prepare_dataset(cfg)
    cue_cfg = cfg.cue_config()
    dropped = 0
    corr_mean = None
    if cfg.semantics_mode in ("embeddings", "analytical"):
        if not cfg.embeddings_path:
            raise ConfigError("semantics.embeddings path is required in embeddings mode")
        loaded = semantics.load_embeddings(cfg.embeddings_path, d)
        d = loaded.dataset
        space = loaded.space
        dropped = len(loaded.missing_words)
        if cfg.semantics_mode == "analytical":
            _, space, corr = semantics.reconstruct_analytical(space, d)
            corr_mean = float(np.nanmean(corr))
    split = _split(cfg, d, cue_cfg)

    train_strings = [cue_cfg.cue_string(e) for e in split.train]
    all_strings = [cue_cfg.cue_string(e) for e in d]
    inv = build_inventory(train_strings, cue_cfg)
    C = build_cue_matrix(all_strings, inv, cue_cfg)

    if cfg.semantics_mode == "simulate":
        space = _simulated_space(cfg, d, inv)
    elif cfg.semantics_mode not in ("embeddings", "analytical"):
        raise ConfigError(f"unknown semantics mode: {cfg.semantics_mode!r}")

    train_ids = list(split.train_ids)
    F = solve_endstate(C.rows[train_ids], space.S[train_ids], kind="comprehension")

    state = PipelineState(
        cfg=cfg, dataset=d, split=split, cue_cfg=cue_cfg, C=C, space=space, F=F,
        dropped_entries=dropped, analytical_corr_mean=corr_mean,
    )
    pool_ids = None if cfg.gold_pool == "all" else train_ids
    state.pool = comp.GoldPool.build(space, d, cue_cfg, restrict_ids=pool_ids)

    if with_production if with_production is not None else cfg.production_enabled:
        state.G, state.positional = _production_model(
            cfg, space.S[train_ids], C.rows[train_ids], train_strings, inv, cue_cfg
        )
    return state


def comprehension_scores(state: PipelineState, F: Optional[Mapping] = None) -> list[comp.ItemScore]:
    F = F or state.F
    S_hat = state.C.rows @ F.W
    return comp.score_items(S_hat, state.space, state.pool, state.dataset, state.cue_cfg)


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
    params: ProductionParams,
) -> list[ProductionResult]:
    """produce() for every row of S_targets, with supports computed in chunks."""
    if params.input_space == "predicted_cues":
        # One vector-matrix product per item, as produce() computes it: a row
        # of a matrix product may round differently.
        X = np.array([s @ G.W for s in S_targets])
    else:
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


def production_results(
    state: PipelineState, ids: Sequence[int]
) -> dict[int, ProductionResult]:
    params = state.cfg.production_params()
    results = produce_items(state.space.S[list(ids)], state.G, state.positional, state.F, params)
    return dict(zip(ids, results))


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


def run_endstate(cfg: ExperimentConfig) -> dict:
    """Closed-form training plus the full evaluation grid."""
    os.makedirs(cfg.output, exist_ok=True)
    state = build_pipeline(cfg)
    results = comprehension_scores(state)
    comp_acc = comprehension_accuracies(state, results)
    report = {
        "config": resolved_pairs(cfg),
        "seeds": {"split": cfg.seed_split, "semantics": cfg.seed_semantics, "stream": cfg.seed_stream},
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
    comp.save_item_scores(results, state.split, os.path.join(cfg.output, "items.csv"))
    if cfg.production_enabled:
        all_ids = sorted(set(state.split.train_ids) | set(state.split.validation_ids))
        prod = production_results(state, all_ids)
        report["production"] = production_accuracies(state, prod)
        report.update(production_counts(prod.values()))
        rows = [(state.cue_cfg.cue_string(state.dataset[i]), prod[i]) for i in all_ids]
        save_production_report(rows, os.path.join(cfg.output, "production.csv"))
        _write_summary_table(report, os.path.join(cfg.output, "summary.csv"))
    write_resolved(cfg, os.path.join(cfg.output, "config.resolved"))
    _write_json(report, os.path.join(cfg.output, "report.json"))
    return report


def _write_summary_table(report: dict, path: str | os.PathLike) -> None:
    """One row of train/val accuracy cells per direction."""
    cols = ["train", "val_all", "val_lenient", "val_newform"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["direction"] + cols)
        for direction in ("comprehension", "production"):
            if direction in report:
                w.writerow([direction] + [repr(report[direction][c]) for c in cols])


def _default_checkpoints(total: int, n: int) -> list[int]:
    pts = sorted({max(1, round(i * total / n)) for i in range(1, n + 1)})
    return [p for p in pts if p <= total]


def run_incremental(cfg: ExperimentConfig) -> dict:
    """Single-pass token learning with trajectory and frequency analyses."""
    os.makedirs(cfg.output, exist_ok=True)
    state = build_pipeline(cfg, with_production=False)
    d, split = state.dataset, state.split

    train_ids = np.asarray(split.train_ids, dtype=np.int64)
    local_stream = lexicon.sample_token_stream(split.train, cfg.seed_stream)
    stream = train_ids[local_stream]
    checkpoints = _default_checkpoints(stream.size, cfg.n_checkpoints)

    curve_rows = []

    def score_checkpoint(m: Mapping) -> None:
        acc = comprehension_accuracies(state, comprehension_scores(state, m))
        curve_rows.append((m.trained_tokens, acc))

    final, _ = train_incremental(
        stream, state.C.rows, state.space.S, eta=cfg.eta, checkpoints=checkpoints,
        on_checkpoint=score_checkpoint,
    )
    inc_results = comprehension_scores(state, final)
    inc_acc = comprehension_accuracies(state, inc_results)
    end_results = comprehension_scores(state)  # end-state baseline on the same split
    end_acc = comprehension_accuracies(state, end_results)

    report = {
        "config": resolved_pairs(cfg),
        "seeds": {"split": cfg.seed_split, "semantics": cfg.seed_semantics, "stream": cfg.seed_stream},
        "n_entries": len(d),
        "n_train": len(split.train_ids),
        "n_tokens": int(stream.size),
        "checkpoints": checkpoints,
        "incremental": inc_acc,
        "endstate": end_acc,
        "val_newform_scoring": "lenient_within_form",
    }

    if cfg.frequency_effect:
        freq = np.array(
            [d[i].role_frequency if d[i].role_frequency is not None else d[i].frequency
             for i in split.train_ids],
            dtype=np.float64,
        )
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
        with open(os.path.join(cfg.output, "items.csv"), "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "frequency", "r_target_incremental", "r_target_endstate"])
            for i, f0, ri, re_ in zip(split.train_ids, freq, r_inc, r_end):
                w.writerow([i, int(f0), repr(float(ri)), repr(float(re_))])

    if cfg.error_analysis and cfg.feature_scheme == "role":
        report["role_errors"] = {
            "incremental": _role_misidentifications(state, inc_results),
            "endstate": _role_misidentifications(state, end_results),
        }

    with open(os.path.join(cfg.output, "curve.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tokens", "train", "val_lenient", "val_newform"])
        for tokens, acc in curve_rows:
            w.writerow([tokens, repr(acc["train"]), repr(acc["val_lenient"]), repr(acc["val_newform"])])

    write_resolved(cfg, os.path.join(cfg.output, "config.resolved"))
    _write_json(report, os.path.join(cfg.output, "report.json"))
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
    with the nonces included (known only as singulars).
    """
    os.makedirs(cfg.output, exist_ok=True)
    if not nonce_words:
        raise ConfigError("no nonce words supplied")
    if cfg.number_opposition != "equipollent":
        raise ConfigError("the plural shift needs both number vectors; "
                          "semantics.number must be equipollent")
    if cfg.semantics_mode != "simulate":
        raise ConfigError("the wug experiment simulates its meanings; "
                          f"semantics.mode must be simulate, got {cfg.semantics_mode!r}")
    d = _prepare_dataset(cfg)
    cue_cfg = cfg.cue_config()
    strings = [cue_cfg.cue_string(e) for e in d]
    inv = build_inventory(strings, cue_cfg)
    C = build_cue_matrix(strings, inv, cue_cfg)
    space = _simulated_space(cfg, d, inv)
    F = solve_endstate(C.rows, space.S, kind="comprehension")

    usable, skipped = [], []
    nonce_rows, novel_counts = [], {}
    for w in nonce_words:
        grams = extract_grams(w, cue_cfg)
        known = [g for g in grams if g in inv]
        novel_counts[w] = len(grams) - len(known)
        if not known:
            skipped.append(w)
            continue
        row = np.zeros(len(inv))
        for g in known:
            row[inv.index[g]] = 1.0
        usable.append(w)
        nonce_rows.append(row)
    if not usable:
        raise ConfigError("every nonce word consists of unseen cues only")
    C_nonce = np.vstack(nonce_rows)
    S_nonce_sg = C_nonce @ F.W

    G, posmodel = _production_model(
        cfg, np.vstack([space.S, S_nonce_sg]), np.vstack([C.rows, C_nonce]),
        strings + usable, inv, cue_cfg,
    )

    S_pl = np.vstack([semantics.wug_plural_vector(s, space.registry) for s in S_nonce_sg])
    results = produce_items(S_pl, G, posmodel, F, cfg.production_params())
    marker_counts = dict.fromkeys(PLURAL_MARKERS, 0)
    per_nonce = {}
    candidate_rows = []
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
        "config": resolved_pairs(cfg),
        "seeds": {"split": cfg.seed_split, "semantics": cfg.seed_semantics, "stream": cfg.seed_stream},
        "n_real_words": len(d),
        "nonce_words": list(nonce_words),
        "skipped_nonces": skipped,
        "novel_gram_counts": novel_counts,
        "candidates": per_nonce,
        "marker_summary": marker_counts,
        "total_candidates": sum(marker_counts.values()),
        **production_counts(results),
    }
    with open(os.path.join(cfg.output, "candidates.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["nonce", "rank", "candidate", "score", "tolerated", "marker", "truncated"])
        w.writerows(candidate_rows)
    write_resolved(cfg, os.path.join(cfg.output, "config.resolved"))
    _write_json(report, os.path.join(cfg.output, "report.json"))
    return report


def run_pruning(cfg: ExperimentConfig, thresholds: Optional[Sequence[float]] = None) -> dict:
    """Sweep magnitude-pruning thresholds and track train comprehension."""
    os.makedirs(cfg.output, exist_ok=True)
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
        "config": resolved_pairs(cfg),
        "seeds": {"split": cfg.seed_split, "semantics": cfg.seed_semantics, "stream": cfg.seed_stream},
        "curve": [{"threshold": t, "pruned_fraction": f, "train_accuracy": a} for t, f, a in rows],
    }
    with open(os.path.join(cfg.output, "curve.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["threshold", "pruned_fraction", "train_accuracy"])
        for t, f, a in rows:
            w.writerow([repr(t), repr(f), repr(a)])
    write_resolved(cfg, os.path.join(cfg.output, "config.resolved"))
    _write_json(report, os.path.join(cfg.output, "report.json"))
    return report


def run_split(cfg: ExperimentConfig) -> dict:
    """Materialize the configured split to train/validation files."""
    os.makedirs(cfg.output, exist_ok=True)
    d = _prepare_dataset(cfg)
    split = _split(cfg, d, cfg.cue_config())
    lexicon.save_split(split, cfg.output)
    write_resolved(cfg, os.path.join(cfg.output, "config.resolved"))
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
