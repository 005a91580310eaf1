"""Seeded workload generator for the ldlkit benchmark.

Each workload is a directory holding only what the program reads: a
lexicon TSV in the `load_dataset` schema, a flat key=value config and,
for `wug`, a nonce file.  The lexicon is the paradigm lexicon of the test
suite (per lemma a singular and a suffixed plural, each listed in two
cases), re-implemented here so the benchmark does not import the tests:
`paradigm_rows(250, seed=11)` yields exactly the entries of
`tests/corpora.paradigm_lexicon(250)`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou@"
GENDERS = ("masculine", "feminine", "neuter")
SUFFIXES = ("@n", "@", "s", "n", "@r")
HEADER = ("wordform", "pronunciation", "lemma", "case", "number", "frequency", "gender")
DEFAULT_SEED = 11
N_LEMMAS = 250  # four entries per lemma: 1,000 entries


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    freq_mult: int = 1
    n_nonce: int = 0
    settings: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "endstate-1k", "endstate",
            settings={"cues.unit": "phone", "cues.n": "3"},
        ),
        Workload(
            "incremental-stream", "incremental",
            freq_mult=20,
            settings={"cues.unit": "phone", "cues.n": "3", "learning.checkpoints": "20"},
        ),
        Workload(
            "wug-tolerant", "wug",
            # ~2,200 candidates per nonce: 200 nonces took ~16 s a child, too long
            # for the benchmark's run budget
            n_nonce=100,
            settings={
                "cues.unit": "letter", "cues.n": "2", "semantics.feature_scale": "0.1",
                "production.tolerance": "true", "production.k": "20",
                "production.max_paths": "20000",
            },
        ),
    )
}


def _random_form(rng: np.random.Generator) -> str:
    n_syll = int(rng.integers(2, 4))
    parts = []
    for _ in range(n_syll):
        parts.append(rng.choice(list(CONSONANTS)))
        parts.append(rng.choice(list(VOWELS)))
    if rng.random() < 0.5:
        parts.append(rng.choice(list(CONSONANTS)))
    return "".join(parts)


def paradigm_rows(n_lemmas: int = N_LEMMAS, seed: int = DEFAULT_SEED, freq_mult: int = 1):
    """Lexicon rows in HEADER order; frequencies are multiplied by freq_mult."""
    rng = np.random.default_rng(seed)
    stems: dict[str, None] = {}
    while len(stems) < n_lemmas:
        stems.setdefault(_random_form(rng))
    rows = []
    for i, stem in enumerate(stems):
        gender = GENDERS[i % 3]
        plural = stem + SUFFIXES[i % len(SUFFIXES)]
        for case in ("nominative", "dative"):
            f = (1 + (i * 7) % 40) * freq_mult
            rows.append((stem.capitalize(), stem, stem.capitalize(), case, "singular", f, gender))
        for case in ("nominative", "genitive"):
            f = (1 + (i * 5) % 30) * freq_mult
            rows.append((plural.capitalize(), plural, stem.capitalize(), case, "plural", f, gender))
    return rows


def nonce_stems(n: int, seed: int) -> list[str]:
    """n distinct capitalised one-syllable stems (CV or CVC).

    Wug items are monosyllables, as in data/nonce.txt; the lexicon's stems
    have two or three syllables, so no nonce is a lexicon stem.  The draw
    uses its own stream so that the nonces do not depend on the lexicon.
    """
    rng = np.random.default_rng([seed, 1])
    out: dict[str, None] = {}
    while len(out) < n:
        w = rng.choice(list(CONSONANTS)) + rng.choice(list(VOWELS))
        if rng.random() < 0.5:
            w += rng.choice(list(CONSONANTS))
        out.setdefault(w.capitalize())
    return list(out)


def write_workload(name: str, seed: int, outdir: str) -> None:
    """Write the inputs of one workload: lexicon.tsv, run.config and, for wug, nonce.txt."""
    w = WORKLOADS[name]
    os.makedirs(outdir, exist_ok=True)
    rows = paradigm_rows(seed=seed, freq_mult=w.freq_mult)
    with open(os.path.join(outdir, "lexicon.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\t".join(HEADER) + "\n")
        for r in rows:
            fh.write("\t".join(map(str, r)) + "\n")
    if w.n_nonce:
        with open(os.path.join(outdir, "nonce.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(s + "\n" for s in nonce_stems(w.n_nonce, seed))
    settings = {"data": "lexicon.tsv", "output": "out", "seeds.split": "1",
                "seeds.semantics": "2", "seeds.stream": "3", **w.settings}
    with open(os.path.join(outdir, "run.config"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in settings.items())


def cli_args(name: str) -> list[str]:
    """Arguments after `ldlkit`, relative to the workload directory."""
    w = WORKLOADS[name]
    args = [w.verb, "--config", "run.config"]
    if w.n_nonce:
        args += ["--nonce", "nonce.txt"]
    return args

