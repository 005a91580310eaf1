"""Linear discriminative learning toolkit for inflectional morphology.

Binary n-gram form vectors are mapped onto real-valued semantic vectors
(comprehension) and back (production) by plain linear mappings, trained
either in closed form or incrementally token by token.  Word forms are
synthesized by assembling supported n-grams into overlap-valid paths
and reranking them through the comprehension mapping.

BLAS runs on one thread unless the environment sets a count: how a
product rounds depends on the thread count, and one thread writes the
same bytes on every machine.  The default is set here, before anything
imports numpy; it has no effect when numpy was imported first.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .cues import (
    CueConfig,
    CueInventory,
    CueMatrix,
    build_cue_matrix,
    build_inventory,
    extract_grams,
    novel_cues,
)
from .comprehension import (
    Forms,
    GoldPool,
    Scores,
    evaluate,
    score_items,
)
from .lexicon import (
    Dataset,
    SplitResult,
    WordEntry,
    attach_articles,
    load_dataset,
    sample_token_stream,
    simulate_role_frequencies,
    split_no_novel_cues,
    split_random,
)
from .mappings import (
    Mapping,
    WH_BACKEND,
    prune,
    solve_endstate,
    train_incremental,
    wh_update,
)
from .production import (
    CandidatePath,
    PositionalSupportModel,
    ProductionParams,
    enumerate_paths,
    merge_grams,
    produce,
    synthesize_by_analysis,
    train_positional,
)
from .semantics import (
    FeatureRegistry,
    SemanticSpace,
    load_embeddings,
    reconstruct_analytical,
    simulate_vectors,
    wug_plural_vector,
)

__version__ = "0.1.0"

__all__ = [
    "CueConfig", "CueInventory", "CueMatrix", "build_cue_matrix", "build_inventory",
    "extract_grams", "novel_cues",
    "Forms", "GoldPool", "Scores", "evaluate", "score_items",
    "Dataset", "SplitResult", "WordEntry", "attach_articles", "load_dataset",
    "sample_token_stream", "simulate_role_frequencies", "split_no_novel_cues", "split_random",
    "Mapping", "WH_BACKEND", "prune", "solve_endstate", "train_incremental", "wh_update",
    "CandidatePath", "PositionalSupportModel", "ProductionParams", "enumerate_paths",
    "merge_grams", "produce", "synthesize_by_analysis", "train_positional",
    "FeatureRegistry", "SemanticSpace", "load_embeddings", "reconstruct_analytical",
    "simulate_vectors", "wug_plural_vector",
    "__version__",
]
