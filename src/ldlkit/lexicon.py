"""Dataset model for inflected word forms.

Holds one entry per paradigm-cell realization of a word form, supports
TSV ingestion, article attachment, train/validation splitting (random or
with a no-novel-cue guarantee), simulated usage frequencies over semantic
roles, and token-stream sampling for incremental learning.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

CASES = ("nominative", "genitive", "dative", "accusative")
NUMBERS = ("singular", "plural")
GENDERS = ("masculine", "feminine", "neuter")
ROLES = (
    "agent",
    "theme",
    "patient",
    "possessive",
    "partitive",
    "beneficiary",
    "location",
    "motion",
    "experiencer",
)

_GENDER_ALIASES = {"m": "masculine", "f": "feminine", "n": "neuter"}

# Orthographic article -> DISC transcription.  The corpus transcribes
# "der Aal" as "deral", which fixes the first entry; the rest follow the
# same one-character-per-phone convention (W = /ai/ diphthong).
DEFINITE_ARTICLES_DISC = {
    "der": "der",
    "die": "di",
    "das": "das",
    "dem": "dem",
    "den": "den",
    "des": "dEs",
}
INDEFINITE_ARTICLES_DISC = {
    "ein": "Wn",
    "eine": "Wn@",
    "einem": "Wn@m",
    "einen": "Wn@n",
    "einer": "Wn@r",
    "eines": "Wn@s",
}

# gender -> case -> definite article, singular and plural.
_DEF_SG = {
    "masculine": {"nominative": "der", "genitive": "des", "dative": "dem", "accusative": "den"},
    "neuter": {"nominative": "das", "genitive": "des", "dative": "dem", "accusative": "das"},
    "feminine": {"nominative": "die", "genitive": "der", "dative": "der", "accusative": "die"},
}
_DEF_PL = {"nominative": "die", "genitive": "der", "dative": "den", "accusative": "die"}

# How articles are attached (config key articles.mode; see attach_articles).
ARTICLE_MODES = ("none", "definite", "definite_and_indefinite")

# Indefinite articles exist for singulars only; plurals are bare.
_INDEF_SG = {
    "masculine": {"nominative": "ein", "genitive": "eines", "dative": "einem", "accusative": "einen"},
    "neuter": {"nominative": "ein", "genitive": "eines", "dative": "einem", "accusative": "ein"},
    "feminine": {"nominative": "eine", "genitive": "einer", "dative": "einer", "accusative": "eine"},
}

# Per-case probabilities of semantic roles used when simulating usage
# frequencies.
DEFAULT_ROLE_TABLE = {
    "nominative": (("agent", 0.5), ("theme", 0.4), ("patient", 0.1)),
    "genitive": (("possessive", 0.9), ("partitive", 0.1)),
    "dative": (("beneficiary", 0.5), ("location", 0.5)),
    "accusative": (("patient", 0.4), ("motion", 0.3), ("experiencer", 0.3)),
}


class LexiconError(ValueError):
    """Raised for malformed input data or invalid arguments."""


@dataclass(frozen=True)
class WordEntry:
    """One paradigm-cell realization of a word form."""

    wordform: str
    pronunciation: str
    lemma: str
    case: str
    number: str
    gender: str
    frequency: int
    syllabified_pronunciation: Optional[str] = None
    semantic_role: Optional[str] = None
    role_frequency: Optional[int] = None
    definiteness: Optional[str] = None

    def __post_init__(self):
        if not self.pronunciation:
            raise LexiconError("empty pronunciation")
        if self.case not in CASES:
            raise LexiconError(f"unknown case value: {self.case!r}")
        if self.number not in NUMBERS:
            raise LexiconError(f"unknown number value: {self.number!r}")
        if self.gender not in GENDERS:
            raise LexiconError(f"unknown gender value: {self.gender!r}")
        if self.semantic_role is not None and self.semantic_role not in ROLES:
            raise LexiconError(f"unknown semantic role: {self.semantic_role!r}")
        if self.frequency < 0:
            raise LexiconError(f"negative frequency: {self.frequency}")
        if self.role_frequency is not None:
            if self.semantic_role is None:
                raise LexiconError("role_frequency without semantic_role")
            if self.role_frequency < 0:
                raise LexiconError(f"negative role_frequency: {self.role_frequency}")
        if self.syllabified_pronunciation is not None:
            flat = self.syllabified_pronunciation.replace("-", "")
            if flat != self.pronunciation:
                raise LexiconError(
                    "syllabified pronunciation does not flatten to pronunciation: "
                    f"{self.syllabified_pronunciation!r} vs {self.pronunciation!r}"
                )

    @property
    def token_frequency(self) -> int:
        """The entry's tokens in a learning stream: role_frequency if set, else
        frequency."""
        return self.frequency if self.role_frequency is None else self.role_frequency


class Dataset:
    """Immutable ordered collection of entries; ids are dense 0..N-1."""

    def __init__(self, entries: Iterable[WordEntry]):
        self.entries: tuple[WordEntry, ...] = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> WordEntry:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def subset(self, ids: Sequence[int]) -> "Dataset":
        return Dataset(self.entries[i] for i in ids)

    def groups_by(self, key: Callable[[WordEntry], str]) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        for i, e in enumerate(self.entries):
            groups.setdefault(key(e), []).append(i)
        return groups


@dataclass(frozen=True)
class SplitResult:
    """Train/validation partition over a dataset, ids in the original space.

    homophone_val_ids: validation entries whose cue string also occurs in
    train; newform_val_ids: the rest.  novel_lemma_ids are validation
    entries whose lemma never occurs in train (a subset of the newforms
    unless the novel lemma happens to be homophonous with a trained form).
    """

    dataset: Dataset
    train_ids: tuple[int, ...]
    validation_ids: tuple[int, ...]
    homophone_val_ids: frozenset[int]
    newform_val_ids: frozenset[int]
    novel_lemma_ids: frozenset[int]

    @property
    def train(self) -> Dataset:
        return self.dataset.subset(self.train_ids)

    @property
    def validation(self) -> Dataset:
        return self.dataset.subset(self.validation_ids)

    @property
    def achieved_train_fraction(self) -> float:
        return len(self.train_ids) / len(self.dataset)

    def newform_eval_ids(self) -> frozenset[int]:
        """Newform ids scored in evaluation: novel lemmas are excluded."""
        return self.newform_val_ids - self.novel_lemma_ids


REQUIRED_COLUMNS = ("wordform", "pronunciation", "lemma", "case", "number", "frequency", "gender")
OPTIONAL_COLUMNS = ("syllables", "role", "role_frequency")

_HEADER_ALIASES = {"word form": "wordform", "word_form": "wordform"}


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Read a tab-separated file with a header row into a Dataset.

    Parsing is strict: required columns must be present, no column the
    loader reads may be named twice, enums are closed, frequencies must be
    non-negative integers.  A leading UTF-8 byte-order mark is skipped.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        try:
            raw_header = next(reader)
        except StopIteration:
            raise LexiconError(f"{path}: empty file, expected a header row")
        header = [_HEADER_ALIASES.get(h.strip().lower(), h.strip().lower()) for h in raw_header]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise LexiconError(f"{path}: missing required column(s): {', '.join(missing)}")
        twice = [c for c in REQUIRED_COLUMNS + OPTIONAL_COLUMNS if header.count(c) > 1]
        if twice:
            raise LexiconError(f"{path}: column(s) named twice: {', '.join(twice)}")
        col = {name: header.index(name) for name in header}

        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                entries.append(_parse_row(row, col))
            except (LexiconError, IndexError) as exc:
                raise LexiconError(f"{path}:{lineno}: {exc}") from exc
    return Dataset(entries)


def _parse_row(row: list[str], col: dict[str, int]) -> WordEntry:
    def get(name: str) -> str:
        return row[col[name]].strip()

    def get_opt(name: str) -> Optional[str]:
        if name not in col:
            return None
        value = row[col[name]].strip() if col[name] < len(row) else ""
        return value or None

    freq_text = get("frequency")
    try:
        frequency = int(freq_text)
    except ValueError:
        raise LexiconError(f"malformed frequency: {freq_text!r}")
    gender = get("gender").lower()
    gender = _GENDER_ALIASES.get(gender, gender)
    role_freq_text = get_opt("role_frequency")
    if role_freq_text is not None:
        try:
            role_frequency = int(role_freq_text)
        except ValueError:
            raise LexiconError(f"malformed role_frequency: {role_freq_text!r}")
    else:
        role_frequency = None
    return WordEntry(
        wordform=get("wordform"),
        pronunciation=get("pronunciation"),
        lemma=get("lemma"),
        case=get("case").lower(),
        number=get("number").lower(),
        gender=gender,
        frequency=frequency,
        syllabified_pronunciation=get_opt("syllables"),
        semantic_role=(get_opt("role").lower() if get_opt("role") else None),
        role_frequency=role_frequency,
    )


def save_dataset(d: Dataset, path: str | os.PathLike) -> None:
    """Write a Dataset back out in the load_dataset TSV schema."""
    has_syll = any(e.syllabified_pronunciation for e in d)
    has_role = any(e.semantic_role for e in d)
    header = list(REQUIRED_COLUMNS)
    if has_syll:
        header.append("syllables")
    if has_role:
        header += ["role", "role_frequency"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(header)
        for e in d:
            row = [e.wordform, e.pronunciation, e.lemma, e.case, e.number, str(e.frequency), e.gender]
            if has_syll:
                row.append(e.syllabified_pronunciation or "")
            if has_role:
                row += [e.semantic_role or "", "" if e.role_frequency is None else str(e.role_frequency)]
            writer.writerow(row)


def definite_article(gender: str, case: str, number: str) -> str:
    if number == "plural":
        return _DEF_PL[case]
    return _DEF_SG[gender][case]


def indefinite_article(gender: str, case: str, number: str) -> Optional[str]:
    """Indefinite article for the cell, or None for (bare) plurals."""
    if number == "plural":
        return None
    return _INDEF_SG[gender][case]


def _with_article(e: WordEntry, article: Optional[str], definiteness: str) -> WordEntry:
    if article is None:
        return replace(e, definiteness=definiteness)
    disc = (DEFINITE_ARTICLES_DISC if definiteness == "definite" else INDEFINITE_ARTICLES_DISC)[article]
    syll = None
    if e.syllabified_pronunciation is not None:
        syll = disc + "-" + e.syllabified_pronunciation
    return replace(
        e,
        wordform=article + e.wordform,
        pronunciation=disc + e.pronunciation,
        syllabified_pronunciation=syll,
        definiteness=definiteness,
    )


def attach_articles(d: Dataset, mode: str = "definite") -> Dataset:
    """Prefix article transcriptions onto the word forms, no separator.

    mode "definite" keeps one copy per entry; "definite_and_indefinite"
    doubles the dataset (second copy: indefinite articles on singulars,
    bare plurals) and flags each copy's definiteness.
    """
    if mode not in ARTICLE_MODES:
        raise LexiconError(f"unknown article mode: {mode!r}")
    if mode == "none":
        return d
    definite = [
        _with_article(e, definite_article(e.gender, e.case, e.number), "definite") for e in d
    ]
    if mode == "definite":
        return Dataset(definite)
    indefinite = [
        _with_article(e, indefinite_article(e.gender, e.case, e.number), "indefinite") for e in d
    ]
    return Dataset(definite + indefinite)


def split_ids(
    d: Dataset,
    cue_string_of: Callable[[WordEntry], str],
    train_ids: Sequence[int],
    val_ids: Sequence[int],
) -> SplitResult:
    """d split into train_ids and val_ids, validation classed by cue string and lemma."""
    train_strings = {cue_string_of(d[i]) for i in train_ids}
    train_lemmas = {d[i].lemma for i in train_ids}
    homophones = frozenset(i for i in val_ids if cue_string_of(d[i]) in train_strings)
    newforms = frozenset(val_ids) - homophones
    novel_lemmas = frozenset(i for i in val_ids if d[i].lemma not in train_lemmas)
    return SplitResult(
        dataset=d,
        train_ids=tuple(train_ids),
        validation_ids=tuple(val_ids),
        homophone_val_ids=homophones,
        newform_val_ids=newforms,
        novel_lemma_ids=novel_lemmas,
    )


def split_random(
    d: Dataset,
    train_fraction: float,
    seed: int,
    cue_string_of: Callable[[WordEntry], str] = lambda e: e.pronunciation,
) -> SplitResult:
    """Seeded random train/validation split.

    Homophone/newform bookkeeping is computed against the supplied cue
    string (pronunciation by default; the experiment config passes the
    string matching its cue unit).
    """
    if not 0.0 < train_fraction < 1.0:
        raise LexiconError(f"train_fraction out of range: {train_fraction}")
    if len(d) == 0:
        raise LexiconError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(d))
    n_train = int(round(train_fraction * len(d)))
    n_train = min(max(n_train, 1), len(d) - 1)
    train_ids = sorted(int(i) for i in order[:n_train])
    val_ids = sorted(int(i) for i in order[n_train:])
    return split_ids(d, cue_string_of, train_ids, val_ids)


def split_no_novel_cues(
    d: Dataset,
    train_fraction: float,
    seed: int,
    grams_of: Callable[[WordEntry], Sequence[str]],
    cue_string_of: Callable[[WordEntry], str] = lambda e: e.pronunciation,
) -> SplitResult:
    """Split so that every cue in validation is attested in train.

    Greedy repair: start from a random split, pull every validation entry
    with an unattested cue into train, then refill validation with train
    entries whose cues all remain covered by at least one other train
    entry.  The target fraction may be undershot; the result reports the
    achieved fraction.
    """
    base = split_random(d, train_fraction, seed, cue_string_of)
    rng = np.random.default_rng(seed)

    gram_sets = [frozenset(grams_of(e)) for e in d]
    train = set(base.train_ids)
    val = set(base.validation_ids)

    # Presence count per cue over train entries.
    counts: dict[str, int] = {}
    for i in train:
        for g in gram_sets[i]:
            counts[g] = counts.get(g, 0) + 1

    offenders = [i for i in val if any(g not in counts for g in gram_sets[i])]
    for i in offenders:
        val.discard(i)
        train.add(i)
        for g in gram_sets[i]:
            counts[g] = counts.get(g, 0) + 1

    target_val = len(d) - int(round(train_fraction * len(d)))
    candidates = rng.permutation(sorted(train))
    for i in candidates:
        if len(val) >= target_val:
            break
        i = int(i)
        # Movable only if every cue of i keeps coverage without it.
        if all(counts[g] >= 2 for g in gram_sets[i]):
            train.discard(i)
            val.add(i)
            for g in gram_sets[i]:
                counts[g] -= 1

    return split_ids(d, cue_string_of, sorted(train), sorted(val))


def save_split(split: SplitResult, outdir: str | os.PathLike) -> None:
    """Serialize a split: train.tsv, validation.tsv, and an id sidecar."""
    os.makedirs(outdir, exist_ok=True)
    save_dataset(split.train, os.path.join(outdir, "train.tsv"))
    save_dataset(split.validation, os.path.join(outdir, "validation.tsv"))
    sidecar = {
        "train_ids": list(split.train_ids),
        "validation_ids": list(split.validation_ids),
        "homophone_val_ids": sorted(split.homophone_val_ids),
        "newform_val_ids": sorted(split.newform_val_ids),
        "novel_lemma_ids": sorted(split.novel_lemma_ids),
        "achieved_train_fraction": split.achieved_train_fraction,
    }
    with open(os.path.join(outdir, "split.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


RoleTable = dict[str, tuple[tuple[str, float], ...]]


def _largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Apportion `total` units proportionally to weights, conserving the sum."""
    wsum = sum(weights)
    shares = [total * w / wsum for w in weights]
    alloc = [math.floor(s) for s in shares]
    leftover = total - sum(alloc)
    by_frac = sorted(range(len(shares)), key=lambda i: (-(shares[i] - alloc[i]), i))
    for i in by_frac[:leftover]:
        alloc[i] += 1
    return alloc


def simulate_role_frequencies(
    d: Dataset,
    role_table: RoleTable | None = None,
    seed: int = 0,
) -> Dataset:
    """Expand entries over semantic roles with simulated usage counts.

    Three stages: (1) each word form's token frequency is divided equally
    over its paradigm cells; (2) per cell, every role is independently
    zeroed with probability 1/K (K roles in that cell); (3) the cell's
    share is apportioned over surviving roles proportionally to the role
    table, largest-remainder rounded so totals are conserved (up to the
    floor loss per cell).  Zeroed roles are kept with count 0.
    """
    table = role_table if role_table is not None else DEFAULT_ROLE_TABLE
    for case, rows in table.items():
        total = sum(p for _, p in rows)
        if abs(total - 1.0) > 1e-9:
            raise LexiconError(f"role probabilities for {case} sum to {total}, expected 1")

    rng = np.random.default_rng(seed)
    groups = {}
    for i, e in enumerate(d):
        groups.setdefault((e.lemma, e.wordform, e.definiteness), []).append(i)

    out: list[WordEntry] = []
    for e in d:
        key = (e.lemma, e.wordform, e.definiteness)
        cell_share = math.floor(e.frequency / len(groups[key]))
        roles = table[e.case]
        keep = [int(rng.binomial(1, 1.0 / len(roles))) == 0 for _ in roles]
        survivors = [(name, p) for (name, p), k in zip(roles, keep) if k]
        counts = dict.fromkeys((name for name, _ in roles), 0)
        if survivors and cell_share > 0:
            alloc = _largest_remainder(cell_share, [p for _, p in survivors])
            for (name, _), n in zip(survivors, alloc):
                counts[name] = n
        for name, _ in roles:
            out.append(replace(e, semantic_role=name, role_frequency=counts[name]))
    return Dataset(out)


def sample_token_stream(d: Dataset, seed: int) -> np.ndarray:
    """Seeded shuffled stream of entry ids, one occurrence per token."""
    freqs = [e.token_frequency for e in d]
    stream = np.repeat(np.arange(len(d), dtype=np.int64), freqs)
    if not stream.size:
        raise LexiconError("all token frequencies are zero")
    np.random.default_rng(seed).shuffle(stream)
    return stream
