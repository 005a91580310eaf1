"""Config handling, the experiment runners, and the CLI."""

import csv
import ctypes
import dataclasses
import errno
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ldlkit import _wh_numpy, cli, comprehension, lexicon, production
from ldlkit import experiments as ex
from ldlkit.cues import CueMatrix
from ldlkit.experiments import (
    ConfigError,
    ExperimentConfig,
    classify_marker,
    load_config,
    parse_config_text,
    resolve_config,
    resolved_pairs,
    run_endstate,
    run_incremental,
    run_inspect,
    run_pruning,
    run_split,
    run_wug,
)
from ldlkit.lexicon import Dataset, save_dataset
from ldlkit.mappings import MappingError, solve_endstate, train_incremental
from ldlkit.production import ProductionError

from corpora import paradigm_lexicon, serial_production_model


@pytest.fixture()
def data_path(tmp_path):
    p = tmp_path / "corpus.tsv"
    save_dataset(paradigm_lexicon(25, seed=21), p)
    return p


def solves_f(X):
    """Whether a solve_endstate call fits F: F's inputs are the binary cue
    rows, G's the real-valued semantic rows."""
    return bool(np.isin(X, (0.0, 1.0)).all())


def base_config(data_path, tmp_path, **overrides):
    pairs = {
        "data": str(data_path),
        "output": str(tmp_path / "out"),
        "cues.unit": "phone",
        "cues.n": "3",
        "semantics.dim": "80",
        "split.fraction": "0.8",
        "seeds.split": "1",
        "seeds.semantics": "2",
        "seeds.stream": "3",
    }
    pairs.update({k: str(v) for k, v in overrides.items()})
    return resolve_config(pairs)


# Each verb, its demo config and the arguments it needs besides its
# output, for runs from the repository's root.
VERB_ARGS = [
    ("inspect", "demo.config", ""),
    ("split", "demo.config", ""),
    ("endstate", "demo.config", ""),
    ("incremental", "demo.config", " --set learning.eta=0.01"),
    ("wug", "demo-wug.config", " --nonce data/nonce.txt"),
    ("prune", "demo.config", ""),
]


class CallLog:
    """Calls recorded as JSON lines in a file, each with the pid that made
    it, so that calls made in forked children count too: their memory is
    not visible here."""

    def __init__(self, path):
        self.path = path

    def add(self, **fields):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), **fields}) + "\n")

    def records(self):
        if not self.path.exists():
            return []
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def dense_calls(monkeypatch):
    """A spy on CueMatrix.dense: for each call made in this process, not
    in a forked child, the ids asked for (None for every item) and a weak
    reference to the rows returned."""
    calls, dense, caller = [], CueMatrix.dense, os.getpid()

    def spy(self, ids=None):
        rows = dense(self, ids)
        if os.getpid() == caller:
            calls.append((None if ids is None else [int(i) for i in ids], weakref.ref(rows)))
        return rows

    monkeypatch.setattr(CueMatrix, "dense", spy)
    return calls


def cli_argv(verb, data_path, tmp_path):
    """The CLI arguments of verb on data_path, or of wug on the demo, with
    the output in tmp_path/out."""
    if verb == "wug":
        return ["wug", "--config", "data/demo-wug.config", "--nonce", "data/nonce.txt",
                "--set", f"output={tmp_path / 'out'}"]
    p = tmp_path / "exp.config"
    p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
    return [verb, "--config", str(p)]


def cli_errors(argv, capsys):
    """The JSON error lines of a CLI run that must exit 2 with nothing on
    stdout."""
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    return [json.loads(line) for line in captured.err.splitlines()]


def production_firsts(run_dir):
    """The first production.csv row of each item of the endstate run whose
    output is run_dir/out: one item per run of rows starting at rank 1 (or
    at no rank when it has no candidate)."""
    with open(run_dir / "out" / "production.csv", encoding="utf-8", newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["rank"] in ("1", "")]


def entry_cue_strings(data_path, tmp_path):
    """Every entry's cue string under base_config, in id order."""
    cfg = base_config(data_path, tmp_path)
    return [cfg.cue_config().cue_string(e) for e in ex._prepare_dataset(cfg)]


class TestConfig:
    def test_parse_flat_keys(self):
        text = "# comment\ncues.n = 3\n\ndata=corpus.tsv # trailing\n"
        pairs = parse_config_text(text)
        assert pairs == {"cues.n": "3", "data": "corpus.tsv"}

    def test_key_given_twice_rejected(self, tmp_path):
        # the last value was kept without a word
        with pytest.raises(ConfigError,
                           match=r"line 3: key 'cues.n' is given again \(first on line 1\)"):
            parse_config_text("cues.n=2\ndata=x\n cues.n = 3\n")
        p = tmp_path / "run.config"
        p.write_text("cues.n=2\ndata=x\n", encoding="utf-8")
        assert load_config(p, ["cues.n=3"]).cue_n == 3  # --set still wins over the file

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"data": "x", "cues.m": "3"})

    def test_missing_data_rejected(self):
        with pytest.raises(ConfigError, match="data"):
            resolve_config({"cues.n": "3"})

    def test_overrides_win(self):
        cfg = resolve_config({"data": "x", "cues.n": "2"}, overrides=["cues.n=4"])
        assert cfg.cue_n == 4

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError, match="expected int"):
            resolve_config({"data": "x", "cues.n": "three"})

    def test_bool_parsing(self):
        cfg = resolve_config({"data": "x", "production.tolerance": "true"})
        assert cfg.production_tolerance is True
        with pytest.raises(ConfigError):
            resolve_config({"data": "x", "production.tolerance": "maybe"})

    @pytest.mark.parametrize(
        "unit,n,theta",
        [("phone", 2, 0.05), ("phone", 3, 0.008), ("phone", 4, 0.005),
         ("syllable", 2, 0.005), ("letter", 3, 0.008), ("letter", 2, 0.008)],
    )
    def test_default_thetas(self, unit, n, theta):
        cfg = ExperimentConfig(data="x", cue_unit=unit, cue_n=n)
        assert cfg.theta() == theta

    def test_explicit_theta_wins(self):
        cfg = ExperimentConfig(data="x", production_theta=0.123)
        assert cfg.theta() == 0.123

    def test_resolved_pairs_round_trip(self):
        cfg = ExperimentConfig(data="x", cue_n=4, production_tolerance=True)
        back = resolve_config(resolved_pairs(cfg))
        assert back == cfg

    @pytest.mark.parametrize("key,good", [
        ("semantics.pool", ("all", "train")),
        ("production.input", ("predicted_cues", "semantics")),
        ("cues.unit", ("phone", "syllable", "letter")),
        ("articles.mode", ("none", "definite", "definite_and_indefinite")),
        ("semantics.mode", ("simulate", "embeddings", "analytical")),
        ("semantics.scheme", ("case", "role")),
        ("semantics.number", ("equipollent", "privative")),
        ("split.mode", ("random", "no_novel_cues")),
    ])
    def test_unknown_choice_rejected(self, key, good):
        for value in good:
            resolve_config({"data": "x", key: value})
        with pytest.raises(ConfigError, match=re.escape(key)):
            resolve_config({"data": "x", key: "bogus"})

    def test_readme_config_table_keys_and_defaults(self):
        # Each row names its keys and defaults in the same order; a default
        # that is not a `literal` (prose such as "per-unit default") stands
        # for an unset key.
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
        default = ExperimentConfig(data="x")
        checked = 0
        for line in table.strip().splitlines()[1:]:
            cells = line.strip("|").split("|")
            key_cell, default_cell = cells[0], cells[-1]
            keys = re.findall(r"`([^`]+)`", key_cell)
            values = [v.strip() for v in default_cell.split(",")]
            assert len(keys) == len(values), line
            for key, value in zip(keys, values):
                literal = re.fullmatch(r"`([^`]*)`", value)
                cfg = resolve_config({"data": "x", key: literal.group(1) if literal else ""})
                assert cfg == default, (key, value)
                if not literal:
                    assert resolved_pairs(cfg)[key] == "", (key, value)
                checked += 1
        assert checked >= 15

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "exp.config"
        p.write_text("data=corpus.tsv\ncues.n=2\n", encoding="utf-8")
        cfg = load_config(p, overrides=["seeds.split=9"])
        assert cfg.cue_n == 2
        assert cfg.seed_split == 9

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # with it, the first key read "\ufeffdata", an unknown key
        p = tmp_path / "exp.config"
        p.write_text("\ufeffdata=corpus.tsv\ncues.n=2\n", encoding="utf-8")
        assert load_config(p) == resolve_config({"data": "corpus.tsv", "cues.n": "2"})

    def test_written_config_with_hash_in_paths_reads_back_equal(self, tmp_path):
        # A # inside a value is part of it: a comment starts only at the
        # start of a line or after whitespace.
        cfg = ExperimentConfig(data=str(tmp_path / "demo#1.tsv"), output=str(tmp_path / "o#3"))
        ex.write_outputs(cfg)
        assert load_config(tmp_path / "o#3" / "config.resolved") == cfg


class TestRunEndstate:
    def test_report_structure(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        report = run_endstate(cfg)
        for direction in ("comprehension", "production"):
            for scheme in ("train", "val_all", "val_strict", "val_lenient", "val_newform"):
                assert scheme in report[direction]
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "items.csv").exists()
        assert (tmp_path / "out" / "production.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "config.resolved").exists()
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + one row per direction
        assert report["truncated_items"] == 0

    def test_truncated_and_empty_searches_are_counted(self, data_path, tmp_path):
        capped = run_endstate(base_config(data_path, tmp_path / "a", **{"production.max_paths": 1}))
        assert capped["truncated_items"] > 0
        assert capped["zero_candidate_items"] == 0
        firsts = production_firsts(tmp_path / "a")
        assert len(firsts) == capped["n_train"] + capped["n_validation"]
        assert [r["target"] for r in firsts] == entry_cue_strings(data_path, tmp_path)
        assert sum(int(r["truncated"]) for r in firsts) == capped["truncated_items"]
        empty = run_endstate(base_config(data_path, tmp_path / "b", **{"production.theta": 1e9}))
        assert empty["truncated_items"] == 0
        assert empty["zero_candidate_items"] == empty["n_train"] + empty["n_validation"]
        assert empty["production"]["train"] == 0.0

    def test_train_accuracy_perfect_on_seen_types(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        report = run_endstate(cfg)
        # distinct cue rows of this corpus are independent at dim 80, so
        # the end state memorizes the training data
        assert report["comprehension"]["train"] == 1.0

    def test_rerun_is_byte_identical(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        run_endstate(cfg)
        out = tmp_path / "out"
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        run_endstate(cfg)
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second

    def test_seed_changes_split_not_solver(self, data_path, tmp_path):
        a = run_endstate(base_config(data_path, tmp_path, **{"seeds.split": 1}))
        b = run_endstate(base_config(data_path, tmp_path, **{"seeds.split": 5}))
        assert a["n_train"] == b["n_train"]

    def test_no_novel_cue_split_mode(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path, **{"split.mode": "no_novel_cues"})
        report = run_endstate(cfg)
        assert report["novel_grams_dropped"] == 0
        # every entry is produced, in id order, under this split too
        firsts = production_firsts(tmp_path)
        assert len(firsts) == report["n_train"] + report["n_validation"]
        assert [r["target"] for r in firsts] == entry_cue_strings(data_path, tmp_path)


class TestRunIncremental:
    def test_curve_and_report(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path, **{"learning.eta": "0.01",
                                                  "learning.checkpoints": "5"})
        report = run_incremental(cfg)
        assert len(report["checkpoints"]) == 5
        curve = (tmp_path / "out" / "curve.csv").read_text().splitlines()
        assert curve[0] == "tokens,train,val_lenient,val_newform"
        assert len(curve) == 6
        assert "spearman_incremental" in report["frequency_effect"]

    def test_endstate_baseline_matches_run_endstate(self, data_path, tmp_path):
        inc_cfg = base_config(data_path, tmp_path, **{"learning.eta": "0.01"})
        end_cfg = base_config(data_path, tmp_path / "b", **{"production.enabled": "false"})
        inc = run_incremental(inc_cfg)
        end = run_endstate(end_cfg)
        for scheme, value in end["comprehension"].items():
            baseline = inc["endstate"][scheme]
            assert (np.isnan(value) and np.isnan(baseline)) or value == baseline

    def test_accuracy_improves_along_the_trajectory(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path, **{"learning.eta": "0.01"})
        run_incremental(cfg)
        rows = (tmp_path / "out" / "curve.csv").read_text().splitlines()[1:]
        train_accs = [float(r.split(",")[1]) for r in rows]
        # rises substantially, then plateaus (token noise allows small dips)
        assert train_accs[-1] > train_accs[0]
        assert train_accs[-1] >= max(train_accs) - 0.05

    def test_final_weights_are_scored_once(self, data_path, tmp_path):
        """The checkpoint at the stream's end gives the incremental scores;
        without checkpoints the final weights are scored after training, in
        this process."""
        items = {}
        score_items = comprehension.score_items
        # five checkpoints and the end state; or the final weights and the end state
        for n, calls_here, calls in ((5, 0, 6), (0, 1, 2)):
            cfg = base_config(data_path, tmp_path / str(n), **{"learning.eta": "0.01",
                                                              "learning.checkpoints": n})
            log = CallLog(tmp_path / f"score_items{n}.jsonl")

            def logged(*args, **kwargs):
                log.add()
                return score_items(*args, **kwargs)

            with mock.patch.object(comprehension, "score_items", logged):
                report = run_incremental(cfg)
            assert report["checkpoints"][-1:] == ([report["n_tokens"]] if n else [])
            pids = [r["pid"] for r in log.records()]
            assert len(pids) == calls and pids.count(os.getpid()) == calls_here
            items[n] = (tmp_path / str(n) / "out" / "items.csv").read_bytes()
        assert items[5] == items[0]
        assert_no_child_left()

    def test_role_pipeline_with_error_analysis(self, data_path, tmp_path):
        cfg = base_config(
            data_path, tmp_path,
            **{"roles.simulate": "true", "semantics.scheme": "role",
               "analyses.error_analysis": "true", "learning.eta": "0.01"},
        )
        report = run_incremental(cfg)
        assert "role_errors" in report
        assert set(report["role_errors"]) == {"incremental", "endstate"}
        assert set(report["role_errors"]["incremental"]) == {"train", "validation"}


def write_embedding_table(path, dataset, dim=50, seed=61):
    rng = np.random.default_rng(seed)
    forms = sorted({e.wordform for e in dataset})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(forms)} {dim}\n")
        for w in forms:
            vec = rng.normal(size=dim)
            fh.write(w + " " + " ".join(repr(float(x)) for x in vec) + "\n")


class TestSemanticsModes:
    def test_embeddings_mode_end_to_end(self, tmp_path):
        d = paradigm_lexicon(20, seed=22)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        vecs = tmp_path / "vecs.txt"
        write_embedding_table(vecs, d)
        cfg = base_config(
            data, tmp_path,
            **{"semantics.mode": "embeddings", "semantics.embeddings": str(vecs),
               "production.enabled": "false"},
        )
        report = run_endstate(cfg)
        # every homophone shares its form vector, so any reading of a
        # trained form counts and train accuracy is perfect here
        assert report["comprehension"]["train"] == 1.0
        assert report["embedding_entries_dropped"] == 0

    def test_embeddings_missing_words_reported(self, tmp_path):
        d = paradigm_lexicon(10, seed=23)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        vecs = tmp_path / "vecs.txt"
        kept = Dataset(list(d)[: len(d) - 2])
        write_embedding_table(vecs, kept)
        cfg = base_config(
            data, tmp_path,
            **{"semantics.mode": "embeddings", "semantics.embeddings": str(vecs),
               "production.enabled": "false"},
        )
        report = run_endstate(cfg)
        assert report["embedding_entries_dropped"] >= 1
        assert report["n_entries"] < len(d)

    def test_analytical_mode_reports_reconstruction_quality(self, tmp_path):
        d = paradigm_lexicon(20, seed=24)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        vecs = tmp_path / "vecs.txt"
        write_embedding_table(vecs, d)
        cfg = base_config(
            data, tmp_path,
            **{"semantics.mode": "analytical", "semantics.embeddings": str(vecs),
               "production.enabled": "false"},
        )
        report = run_endstate(cfg)
        assert -1.0 <= report["analytical_reconstruction_mean_r"] <= 1.0

    def test_embeddings_mode_requires_path(self, tmp_path):
        d = paradigm_lexicon(5, seed=25)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        cfg = base_config(data, tmp_path, **{"semantics.mode": "embeddings"})
        with pytest.raises(ConfigError, match="embeddings"):
            run_endstate(cfg)


class TestGranularityOrdering:
    def test_triphones_outperform_biphones_on_train(self, tmp_path):
        # biphone inventories are too small to separate hundreds of
        # meanings, so training accuracy must order biphone < triphone
        d = paradigm_lexicon(220, seed=77)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        accs = {}
        for n in (2, 3):
            cfg = base_config(
                data, tmp_path / f"o{n}",
                **{"cues.n": str(n), "production.enabled": "false",
                   "semantics.dim": "600"},
            )
            accs[n] = run_endstate(cfg)["comprehension"]["train"]
        assert accs[2] < accs[3]
        assert accs[3] >= 0.95


class TestSyllableUnit:
    def test_endstate_over_bisyllable_cues(self, tmp_path):
        from corpora import syllabified_lexicon

        d = syllabified_lexicon(25)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        cfg = base_config(
            data, tmp_path,
            **{"cues.unit": "syllable", "cues.n": "2", "semantics.dim": "100"},
        )
        report = run_endstate(cfg)
        assert report["comprehension"]["train"] == 1.0
        # production targets are the syllabified strings
        prod_rows = (tmp_path / "out" / "production.csv").read_text().splitlines()
        assert any("-" in row.split(",")[0] for row in prod_rows[1:])


class TestArticleModes:
    def test_definite_mode_runs_and_reduces_homophony(self, data_path, tmp_path):
        bare = run_endstate(base_config(data_path, tmp_path / "a",
                                        **{"production.enabled": "false"}))
        arts = run_endstate(base_config(data_path, tmp_path / "b",
                                        **{"articles.mode": "definite",
                                           "production.enabled": "false"}))
        assert arts["n_entries"] == bare["n_entries"]

    def test_definite_and_indefinite_doubles_and_uses_features(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path,
                          **{"articles.mode": "definite_and_indefinite",
                             "production.enabled": "false"})
        report = run_endstate(cfg)
        assert report["n_entries"] == 200  # 100 base entries, doubled


class TestRunPruning:
    def test_curve_spans_zero_to_full(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        report = run_pruning(cfg)
        curve = report["curve"]
        assert len(curve) >= 10
        assert curve[0]["threshold"] == 0.0
        assert curve[-1]["pruned_fraction"] == 1.0
        baseline = run_endstate(base_config(data_path, tmp_path / "e",
                                            **{"production.enabled": "false"}))
        assert curve[0]["train_accuracy"] == baseline["comprehension"]["train"]
        assert (tmp_path / "out" / "curve.csv").exists()


class TestRunWug:
    def test_candidates_and_marker_summary(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        save_dataset(paradigm_lexicon(40, seed=31), p)
        cfg = base_config(
            p, tmp_path,
            **{"cues.unit": "letter", "cues.n": "2",
               "semantics.feature_scale": "0.1", "semantics.dim": "150",
               "production.tolerance": "true", "production.k": "8",
               "production.max_paths": "3000"},
        )
        nonces = ["Bral", "Kach", "Mur"]
        report = run_wug(cfg, nonces)
        assert set(report["candidates"]) <= set(nonces)
        total = sum(len(v) for v in report["candidates"].values())
        assert report["total_candidates"] == total
        assert sum(report["marker_summary"].values()) == total
        csv_lines = (tmp_path / "out" / "candidates.csv").read_text().splitlines()
        assert csv_lines[0] == "nonce,rank,candidate,score,tolerated,marker,truncated"
        assert len(csv_lines) == total + 1
        assert report["truncated_items"] == report["zero_candidate_items"] == 0
        assert {line.rsplit(",", 1)[1] for line in csv_lines[1:]} == {"0"}
        capped = run_wug(dataclasses.replace(cfg, production_max_paths=1), nonces)
        assert capped["truncated_items"] == len(nonces)
        csv_lines = (tmp_path / "out" / "candidates.csv").read_text().splitlines()
        assert {line.rsplit(",", 1)[1] for line in csv_lines[1:]} == {"1"}

    def test_all_novel_nonce_skipped(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        save_dataset(paradigm_lexicon(10, seed=32), p)
        cfg = base_config(p, tmp_path, **{"cues.unit": "letter", "cues.n": "2"})
        report = run_wug(cfg, ["Bral", "QQQQ"])
        assert report["skipped_nonces"] == ["QQQQ"]
        # every gram is counted, repeats too: QQQQ's five grams #Q, QQ, QQ, QQ, Q#
        assert report["novel_gram_counts"] == {"Bral": 4, "QQQQ": 5}
        assert list(report["candidates"]) == ["Bral"]

    def test_privative_number_rejected(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        save_dataset(paradigm_lexicon(5, seed=34), p)
        cfg = base_config(p, tmp_path, **{"semantics.number": "privative"})
        with pytest.raises(ConfigError, match="equipollent"):
            run_wug(cfg, ["Bral"])

    def test_wug_trains_on_every_entry_whatever_the_split_says(self, tmp_path):
        nonces = (ROOT / "data" / "nonce.txt").read_text(encoding="utf-8").split()

        def candidates(*overrides):
            cfg = load_config(ROOT / "data" / "demo-wug.config", [
                f"data={ROOT / 'data' / 'demo.tsv'}", f"output={tmp_path / 'out'}", *overrides])
            run_wug(cfg, nonces)
            return (tmp_path / "out" / "candidates.csv").read_bytes()

        expected = candidates()
        assert candidates("split.mode=no_novel_cues", "split.fraction=0.5") == expected
        assert candidates("split.mode=random", "split.fraction=0.3") == expected

    def test_known_singulars_elicit_their_attested_plurals(self, tmp_path):
        # probing with forms the model actually knows: the attested plural
        # must surface among the top candidates
        from test_acceptance import _wug_corpus

        d = _wug_corpus()
        sg_to_pl = {e.lemma: e.wordform for e in d if e.number == "plural"}
        probes = list(sg_to_pl)[:6]
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        cfg = base_config(
            data, tmp_path,
            **{"cues.unit": "letter", "cues.n": "2",
               "semantics.feature_scale": "0.1",
               "production.tolerance": "true", "production.k": "10",
               "production.max_paths": "20000"},
        )
        report = run_wug(cfg, probes)
        for p in probes:
            assert sg_to_pl[p] in report["candidates"][p], (
                f"{p}: {sg_to_pl[p]} not in {report['candidates'][p]}"
            )


def test_wug_marker_counts_on_held_out_nonces(tmp_path):
    """Current behaviour, not a quality bar: on a corpus whose plurals are
    all stem + "en", letter bigrams rebuild few held-out one-syllable
    nonces, so most top-5 candidates classify as "other".  A change to
    production that moves these counts should say why."""
    from test_acceptance import WUG_NONCES, _wug_corpus

    d = _wug_corpus(138, seed=11, suffixes=("en",))
    forms = {e.wordform for e in d}
    assert not forms & set(WUG_NONCES)
    assert all(len(re.findall("[aeiou]+", w)) == 1 for w in WUG_NONCES)  # one syllable
    data = tmp_path / "corpus.tsv"
    save_dataset(d, data)
    cfg = base_config(
        data, tmp_path,
        **{"cues.unit": "letter", "cues.n": "2",
           "semantics.dim": "",  # empty: one dimension per cue
           "semantics.feature_scale": "0.1",
           "production.tolerance": "true", "production.k": "10", "production.top_n": "5",
           "production.max_paths": "20000"},
    )
    report = run_wug(cfg, WUG_NONCES)
    assert report["skipped_nonces"] == []
    assert report["truncated_items"] == report["zero_candidate_items"] == 0
    assert report["marker_summary"] == {
        "-(e)n": 1, "-e": 0, "-er": 1, "-0": 2, "-s": 0, "other": 56,
    }


class TestMarkerClassification:
    @pytest.mark.parametrize(
        "cand,sg,marker",
        [
            ("Bral", "Bral", "-0"),
            ("Bralen", "Bral", "-(e)n"),
            ("Braln", "Bral", "-(e)n"),
            ("Brale", "Bral", "-e"),
            ("Braler", "Bral", "-er"),
            ("Brals", "Bral", "-s"),
            ("Bralern", "Bral", "other"),
            ("Kach", "Bral", "other"),
        ],
    )
    def test_suffix_rules(self, cand, sg, marker):
        assert classify_marker(cand, sg) == marker


class TestSplitAndInspect:
    def test_run_split_writes_files(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        summary = run_split(cfg)
        assert summary["n_train"] + summary["n_validation"] > 0
        out = tmp_path / "out"
        assert (out / "train.tsv").exists()
        assert (out / "validation.tsv").exists()
        assert (out / "split.json").exists()

    def test_run_inspect_counts(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        summary = run_inspect(cfg)
        assert summary["n_entries"] == 100  # 25 lemmas x 4 rows
        assert summary["n_lemmas"] == 25
        assert summary["n_cues"] > 0


class TestCli:
    def test_inspect_ok(self, data_path, tmp_path, capsys):
        assert cli.main(cli_argv("inspect", data_path, tmp_path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_entries"] == 100

    def test_endstate_with_overrides(self, data_path, tmp_path, capsys):
        p = tmp_path / "exp.config"
        p.write_text(
            f"data={data_path}\noutput={tmp_path / 'out'}\nsemantics.dim=60\n",
            encoding="utf-8",
        )
        rc = cli.main(["endstate", "--config", str(p), "--set", "production.enabled=false"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "comprehension" in out

    @pytest.mark.parametrize("verb, scores", [("endstate", "comprehension"),
                                              ("incremental", "incremental")])
    def test_a_nan_statistic_is_written_as_null(self, data_path, tmp_path, capsys, verb, scores):
        # three lemmas leave no new form to validate on: val_newform is NaN
        argv = cli_argv(verb, data_path, tmp_path) + [
            "--set", "roles.subsample_lemmas=3", "--set", "production.enabled=false"]
        assert cli.main(argv) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"),
                            parse_constant=reject)
        assert summary[scores]["val_newform"] is None and report[scores]["val_newform"] is None

    def test_error_is_machine_readable(self, tmp_path, capsys):
        [err] = cli_errors(cli_argv("endstate", "/does/not/exist.tsv", tmp_path), capsys)
        assert "error" in err

    @pytest.mark.parametrize("override", [
        f"{key}=bogus" for key in ("production.input", "semantics.pool", "cues.unit", "articles.mode",
                                   "semantics.mode", "semantics.scheme", "semantics.number",
                                   "split.mode")
    ])
    def test_unknown_choice_exits_2_before_any_output(self, data_path, tmp_path, capsys, override):
        [err] = cli_errors(cli_argv("endstate", data_path, tmp_path) + ["--set", override], capsys)
        assert err["type"] == "ConfigError" and override.split("=")[0] in err["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override,message", [
        # checked when the config is read
        ("production.k=0", "k must be >= 1"),
        ("production.theta=-1", "theta must be >= 0"),
        ("production.top_n=-1", "top_n must be >= 1"),
        ("production.max_tolerated=-1", "max_tolerated must be >= 0"),
        ("production.max_paths=0", "max_paths must be >= 1"),
        # an explicit 0 is a value, not "unset": it reaches the range checks
        ("semantics.dim=0", "dimension must be >= 1"),
        ("roles.subsample_lemmas=0", "empty dataset"),
        ("learning.checkpoints=-1", "learning.checkpoints must be >= 0"),
        ("roles.subsample_lemmas=-1", "roles.subsample_lemmas must be >= 0"),
        ("production.max_len_margin=-50", "production.max_len_margin must be >= 0"),
        ("learning.eta=0", "learning.eta must be > 0"),
    ])
    def test_out_of_range_value_exits_2_before_any_output(self, data_path, tmp_path, capsys,
                                                          override, message):
        [err] = cli_errors(cli_argv("endstate", data_path, tmp_path) + ["--set", override], capsys)
        assert message in err["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb,where", [
        pytest.param("endstate", "f-child", id="f-child"),
        pytest.param("endstate", "prediction-child", id="prediction-child"),
        pytest.param("endstate", "caller", id="caller"),
        pytest.param("incremental", "scorer", id="incremental-scorer"),
        pytest.param("incremental", "caller", id="incremental-caller"),
    ])
    def test_error_in_any_process_exits_2_no_child_left(self, data_path, tmp_path, capsys,
                                                         monkeypatch, verb, where):
        # endstate: one forked child solves F and another predicts the
        # production inputs while the calling process runs train_positional.
        # incremental: a forked child scores each checkpoint while the
        # calling process runs the token loop.
        log = CallLog(tmp_path / "raised.jsonl")
        error = ProductionError if verb == "endstate" else MappingError
        caller = os.getpid()

        def fail(*args, **kwargs):
            log.add()
            raise error("fit failed")

        if where == "f-child":
            monkeypatch.setattr(ex, "solve_endstate", lambda X, Y: (
                fail() if solves_f(X) else solve_endstate(X, Y)))
        elif where == "prediction-child":
            monkeypatch.setattr(ex, "production_inputs", fail)
        elif verb == "endstate":
            monkeypatch.setattr(ex, "train_positional", fail)
        elif where == "scorer":
            # every checkpoint's scoring fails; the baseline's does not
            scores = ex.comprehension_scores
            monkeypatch.setattr(ex, "comprehension_scores", lambda state, F: (
                fail() if F.trained_tokens else scores(state, F)))
        else:
            # the second stream segment fails, with the first checkpoint in flight
            run_stream = _wh_numpy.run_stream
            segments = []

            def second_segment_fails(*args):
                segments.append(args)
                return fail() if len(segments) == 2 else run_stream(*args)

            monkeypatch.setattr(_wh_numpy, "run_stream", second_segment_fails)
        assert cli_errors(cli_argv(verb, data_path, tmp_path), capsys) == [
            {"error": "fit failed", "type": error.__name__}
        ]
        [raised] = log.records()
        assert (raised["pid"] == caller) == (where == "caller")
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("n, what", [
        pytest.param(1, "solving and scoring the end-state F", id="f-child"),
        pytest.param(2, "predicting the production inputs", id="prediction-child"),
        pytest.param(3, "the production of items", id="production-child"),
    ])
    def test_a_failed_fork_exits_2_and_leaks_no_descriptor(self, data_path, tmp_path, capsys,
                                                           monkeypatch, n, what):
        # The n-th fork of an endstate run raises, as os.fork does when the
        # system is out of processes; the forks before it succeed.
        fork, forking = os.fork, []
        fork_serving = ex._fork_serving

        def recording_fork(work_what, serve):
            forking.append(work_what)
            return fork_serving(work_what, serve)

        def nth_fork_fails():
            if len(forking) == n:
                raise OSError(errno.EAGAIN, "fork failed")
            return fork()

        monkeypatch.setattr(ex, "_fork_serving", recording_fork)
        monkeypatch.setattr(os, "fork", nth_fork_fails)
        argv = cli_argv("endstate", data_path, tmp_path)
        open_fds = len(os.listdir("/proc/self/fd"))
        assert cli_errors(argv, capsys) == [
            {"error": str(OSError(errno.EAGAIN, "fork failed")), "type": "BlockingIOError"}
        ]
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert len(forking) == n and forking[-1].startswith(what)
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("dies_in", ["baseline", "checkpoint", "idle-scorer"])
    def test_a_child_that_dies_without_a_result_exits_2(self, data_path, tmp_path, capsys,
                                                         monkeypatch, dies_in):
        caller = os.getpid()

        def die():
            assert os.getpid() != caller, "the scoring ran in the calling process"
            os._exit(1)

        if dies_in == "baseline":
            monkeypatch.setattr(ex, "solve_endstate", lambda X, Y: die())
            what = "scoring the end-state baseline"
        elif dies_in == "idle-scorer":
            # Each child ends after its first result, and the loop waits for
            # the scorer to end before it sends the next checkpoint, so that
            # request finds the pipe closed.
            send, receive = ex._send, ex._receive

            def send_once(out, work):
                send(out, work)
                die()

            def receive_then_wait(child):
                value = receive(child)
                if child.what.startswith("scoring the checkpoint at "):
                    os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
                return value

            monkeypatch.setattr(ex, "_send", send_once)
            monkeypatch.setattr(ex, "_receive", receive_then_wait)
            what = "scoring the checkpoint at "
        else:
            scores = ex.comprehension_scores
            monkeypatch.setattr(ex, "comprehension_scores", lambda state, F: (
                die() if F.trained_tokens else scores(state, F)))
            what = "scoring the checkpoint at "
        [err] = cli_errors(cli_argv("incremental", data_path, tmp_path), capsys)
        assert err["type"] == "RuntimeError"
        assert err["error"].startswith(what)
        assert "without a result (exit status 1)" in err["error"]
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("verb", ["endstate", "wug"])
    @pytest.mark.parametrize("how", ["raises", "exits"])
    def test_a_failing_production_child_exits_2_and_leaves_no_child(self, data_path, tmp_path,
                                                                     capsys, monkeypatch, verb,
                                                                     how):
        caller = os.getpid()
        synthesize = production.synthesize_by_analysis

        def synthesis_in_child_fails(*args, **kwargs):
            if os.getpid() != caller:
                if how == "exits":
                    os._exit(1)
                raise ProductionError("production failed")
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(production, "synthesize_by_analysis", synthesis_in_child_fails)
        [err] = cli_errors(cli_argv(verb, data_path, tmp_path), capsys)
        if how == "raises":
            assert err == {"error": "production failed", "type": "ProductionError"}
        else:
            assert err["type"] == "RuntimeError"
            assert re.fullmatch(r"the production of items \[\d+, \d+\) ended without a result "
                                r"\(exit status 1\)", err["error"])
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("verb", ["endstate", "wug"])
    def test_a_failing_calling_half_kills_the_production_child(self, data_path, tmp_path, capsys,
                                                               monkeypatch, verb):
        # The child's half would take a minute; the run must not wait for it.
        caller = os.getpid()
        synthesize = production.synthesize_by_analysis

        def synthesis_fails_here(*args, **kwargs):
            if os.getpid() == caller:
                raise ProductionError("production failed")
            time.sleep(60)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(production, "synthesize_by_analysis", synthesis_fails_here)
        start = time.monotonic()
        [err] = cli_errors(cli_argv(verb, data_path, tmp_path), capsys)
        assert time.monotonic() - start < 30
        assert err["error"] == "production failed"
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    def test_a_failing_loop_kills_the_children_it_leaves(self, data_path, tmp_path, capsys,
                                                          monkeypatch):
        # The baseline's child and the checkpoint scorer would each take a
        # minute; the run must not wait for them.
        caller = os.getpid()
        log = CallLog(tmp_path / "scorer.jsonl")
        scores = ex.comprehension_scores

        def slow_solve(X, Y):
            assert os.getpid() != caller, "F was solved in the calling process"
            time.sleep(60)
            return solve_endstate(X, Y)

        def slow_scores(state, F):
            if F.trained_tokens:
                log.add(tokens=F.trained_tokens)
                time.sleep(60)
            return scores(state, F)

        run_stream = _wh_numpy.run_stream
        segments = []

        def second_segment_fails(*args):
            segments.append(args)
            if len(segments) == 2:
                # The scorer is killed as soon as the loop fails: wait, up
                # to 10 s, for its log record of the first checkpoint,
                # which the assertions below read.
                deadline = time.monotonic() + 10
                while not log.records() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise MappingError("loop failed")
            return run_stream(*args)

        monkeypatch.setattr(ex, "solve_endstate", slow_solve)
        monkeypatch.setattr(ex, "comprehension_scores", slow_scores)
        monkeypatch.setattr(_wh_numpy, "run_stream", second_segment_fails)
        argv = cli_argv("incremental", data_path, tmp_path)
        start = time.monotonic()
        [err] = cli_errors(argv, capsys)
        assert time.monotonic() - start < 30
        assert err["error"] == "loop failed"
        assert_no_child_left()
        # the scorer had taken the first checkpoint, and is gone
        [scoring] = log.records()
        assert scoring["pid"] != caller
        with pytest.raises(ProcessLookupError):
            os.kill(scoring["pid"], 0)

    def test_a_scorer_that_raises_at_the_second_checkpoint_exits_2(self, data_path, tmp_path,
                                                                    capsys, monkeypatch):
        caller = os.getpid()
        log = CallLog(tmp_path / "scorings.jsonl")
        scores = ex.comprehension_scores

        def second_checkpoint_fails(state, F):
            if F.trained_tokens:
                log.add(tokens=F.trained_tokens)
                if len(log.records()) == 2:
                    raise MappingError("scoring failed")
            return scores(state, F)

        monkeypatch.setattr(ex, "comprehension_scores", second_checkpoint_fails)
        assert cli_errors(cli_argv("incremental", data_path, tmp_path), capsys) == [
            {"error": "scoring failed", "type": "MappingError"}
        ]
        # one scorer took both checkpoints, and it was not this process
        first, second = log.records()
        assert first["pid"] == second["pid"] != caller
        assert first["tokens"] < second["tokens"]
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    def test_without_fork_incremental_exits_2_before_any_output(self, data_path, tmp_path,
                                                                 capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        [err] = cli_errors(cli_argv("incremental", data_path, tmp_path), capsys)
        assert err["type"] == "ConfigError" and "os.fork" in err["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["endstate", "wug"])
    def test_without_fork_production_exits_2_before_any_output(self, data_path, tmp_path,
                                                                capsys, monkeypatch, verb):
        monkeypatch.delattr(os, "fork")
        [err] = cli_errors(cli_argv(verb, data_path, tmp_path), capsys)
        assert err == {"error": "production computes its inputs and half its items in forked "
                                "processes, and os.fork is missing on this platform",
                       "type": "ConfigError"}
        assert not (tmp_path / "out").exists()

    def test_without_fork_endstate_runs_without_production(self, data_path, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.delattr(os, "fork")
        argv = cli_argv("endstate", data_path, tmp_path)
        assert cli.main(argv + ["--set", "production.enabled=false"]) == 0
        assert "comprehension" in json.loads(capsys.readouterr().out)

    def test_wug_cli(self, tmp_path, capsys):
        data = tmp_path / "corpus.tsv"
        save_dataset(paradigm_lexicon(30, seed=33), data)
        nonce = tmp_path / "nonce.txt"
        nonce.write_text("Bral\nMur\n", encoding="utf-8")
        p = tmp_path / "exp.config"
        p.write_text(
            f"data={data}\noutput={tmp_path / 'out'}\n"
            "cues.unit=letter\ncues.n=2\nsemantics.dim=120\n"
            "production.tolerance=true\nproduction.max_paths=2000\n",
            encoding="utf-8",
        )
        rc = cli.main(["wug", "--config", str(p), "--nonce", str(nonce)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "marker_summary" in out

    def test_wug_repeated_nonce_exits_2_before_any_output(self, tmp_path, capsys):
        # A repeated nonce would be fitted twice and its candidates counted twice.
        nonce = tmp_path / "nonce.txt"
        nonce.write_text("Bral\nKach\nBral\n", encoding="utf-8")
        [err] = cli_errors(["wug", "--config", "data/demo-wug.config", "--nonce", str(nonce),
                            "--set", f"output={tmp_path / 'out'}"], capsys)
        assert err["type"] == "ConfigError" and "repeated: Bral" in err["error"]
        assert not (tmp_path / "out").exists()

    def test_wug_nonce_file_byte_order_mark_is_not_part_of_the_first_nonce(self, tmp_path,
                                                                           capsys):
        # the first nonce repeats the last only when read without the mark;
        # with it, the first nonce was "\ufeffBral", with three novel grams
        nonce = tmp_path / "nonce.txt"
        nonce.write_text("\ufeffBral\nKach\nBral\n", encoding="utf-8")
        [err] = cli_errors(["wug", "--config", "data/demo-wug.config", "--nonce", str(nonce),
                            "--set", f"output={tmp_path / 'out'}"], capsys)
        assert "repeated: Bral" in err["error"]

    @pytest.mark.parametrize("verb,overrides", [
        ("endstate", ["cues.n=1"]),
        ("wug", ["cues.n=1"]),
        # wug produces whatever production.enabled says
        ("wug", ["cues.n=1", "production.enabled=false"]),
    ])
    def test_unigram_production_exits_2_before_any_output(self, tmp_path, capsys, verb,
                                                          overrides):
        # A unigram boundary cue opens and closes a path, so every item's
        # only candidate would spell the empty form.
        config = "data/demo-wug.config" if verb == "wug" else "data/demo.config"
        argv = [verb, "--config", config, "--set", f"output={tmp_path / 'out'}"]
        if verb == "wug":
            argv += ["--nonce", "data/nonce.txt"]
        for override in overrides:
            argv += ["--set", override]
        [err] = cli_errors(argv, capsys)
        assert err["type"] == "ConfigError" and "cues.n must be >= 2" in err["error"]
        assert not (tmp_path / "out").exists()

    def test_unigram_cues_run_without_production(self, tmp_path, capsys):
        rc = cli.main(["endstate", "--config", "data/demo.config", "--set", f"output={tmp_path}",
                       "--set", "production.enabled=false", "--set", "cues.n=1"])
        assert rc == 0
        assert "comprehension" in json.loads(capsys.readouterr().out)
        assert not (tmp_path / "production.csv").exists()

    @pytest.mark.parametrize("mode", ["embeddings", "analytical", "bogus"])
    def test_wug_rejects_semantics_it_cannot_use(self, tmp_path, capsys, mode):
        # wug simulates its meanings; any other semantics.mode must fail, not
        # run on simulated vectors
        d = paradigm_lexicon(5, seed=34)
        data = tmp_path / "corpus.tsv"
        save_dataset(d, data)
        vecs = tmp_path / "vectors.txt"
        write_embedding_table(vecs, d)
        nonce = tmp_path / "nonce.txt"
        nonce.write_text("Bral\n", encoding="utf-8")
        p = tmp_path / "exp.config"
        p.write_text(
            f"data={data}\noutput={tmp_path / 'out'}\ncues.unit=letter\ncues.n=2\n"
            f"semantics.mode={mode}\nsemantics.embeddings={vecs}\n",
            encoding="utf-8",
        )
        [err] = cli_errors(["wug", "--config", str(p), "--nonce", str(nonce)], capsys)
        assert "semantics.mode" in err["error"]
        assert not (tmp_path / "out").exists()


class TestOverlappedFits:
    def test_mappings_equal_serial_solves_bit_for_bit(self, data_path, tmp_path, monkeypatch):
        cfg = base_config(data_path, tmp_path)
        state = ex.build_pipeline(cfg)
        train_ids = list(state.split.train_ids)
        F = solve_endstate(state.C.dense(train_ids), state.space.S[train_ids])
        G, positional, X = serial_production_model(state)
        solved = []  # the mappings solved in this process: G only, as F is solved in a child

        def recording_solve(inputs, outputs):
            solved.append(solve_endstate(inputs, outputs))
            return solved[-1]

        monkeypatch.setattr(ex, "solve_endstate", recording_solve)
        got_F, scores, got_positional, got_X = ex._production_stage(state)
        [got_G] = solved
        assert np.array_equal(got_F.W, F.W)
        assert np.array_equal(got_G.W, G.W)
        assert np.array_equal(got_positional.columns, positional.columns)
        assert np.array_equal(got_positional.weights, positional.weights)
        assert np.array_equal(got_X, X)

    def test_semantic_inputs_are_the_targets_meanings(self, data_path, tmp_path, monkeypatch):
        log = CallLog(tmp_path / "calls.jsonl")
        self.record_fits(log, monkeypatch)
        forked, fork = [], ex._fork_serving
        monkeypatch.setattr(ex, "_fork_serving",
                            lambda what, serve: forked.append(what) or fork(what, serve))
        state = ex.build_pipeline(base_config(data_path, tmp_path,
                                              **{"production.input": "semantics"}))
        *_, X = ex._production_stage(state)
        assert np.array_equal(X, state.space.S)
        assert X is state.space.S  # read in place, not copied
        assert_no_child_left()
        # no G is solved and nothing is predicted, in any process: only the
        # F child is forked
        calls = [r["call"] for r in log.records()]
        assert sorted(set(calls)) == ["F", "pinv", "pool", "score", "train_positional"]
        assert forked == ["solving and scoring the end-state F"]

    @staticmethod
    def record_fits(log, monkeypatch):
        """Log each call to F's and G's solve, F's scoring, the gold pool's
        build, the input prediction, the pseudo-inverse and the positional
        fit, which solves every position."""
        solve, scores = ex.solve_endstate, ex.comprehension_scores
        build_pool = comprehension.GoldPool.build
        predict, pinv, fit = ex.production_inputs, np.linalg.pinv, ex.train_positional

        def recording(name, f):
            def call(*args, **kwargs):
                log.add(call=name)
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(ex, "solve_endstate", lambda X, Y: (
            recording("F" if solves_f(X) else "G", solve)(X, Y)))
        monkeypatch.setattr(ex, "comprehension_scores", recording("score", scores))
        monkeypatch.setattr(comprehension.GoldPool, "build", recording("pool", build_pool))
        monkeypatch.setattr(ex, "production_inputs", recording("predict", predict))
        monkeypatch.setattr(np.linalg, "pinv", recording("pinv", pinv))
        monkeypatch.setattr(ex, "train_positional", recording("train_positional", fit))

    def test_build_pipeline_fits_nothing(self, data_path, tmp_path, monkeypatch):
        log = CallLog(tmp_path / "calls.jsonl")
        self.record_fits(log, monkeypatch)
        state = ex.build_pipeline(base_config(data_path, tmp_path))
        assert log.records() == []  # not even the gold pool
        # F is solved here, where it is asked for, and nothing else is fitted
        F = ex.solve_f(state)
        assert_no_child_left()
        assert F.W.shape == (len(state.C.inventory), state.space.S.shape[1])
        assert [(r["call"], r["pid"]) for r in log.records()] == [("F", os.getpid())]

    def test_f_and_inputs_run_in_children_with_production(self, data_path, tmp_path,
                                                          monkeypatch):
        log = CallLog(tmp_path / "calls.jsonl")
        scores = ex.comprehension_scores
        self.record_fits(log, monkeypatch)
        caller = os.getpid()
        cfg = base_config(data_path, tmp_path)
        state = ex.build_pipeline(cfg)
        F, results, m, X = ex._production_stage(state)
        assert_no_child_left()
        assert F.W.shape == (len(state.C.inventory), state.space.S.shape[1])
        calls = log.records()
        pids = {r["call"]: r["pid"] for r in calls}
        assert sorted(r["call"] for r in calls) == [
            "F", "G", "pinv", "pool", "predict", "score", "train_positional"]
        # one child solves and scores F against the gold pool it builds,
        # another predicts the inputs, and this process fits G, the
        # pseudo-inverse and every position
        assert pids["F"] == pids["score"] == pids["pool"] != caller
        assert pids["predict"] not in (caller, pids["F"])
        assert pids["G"] == pids["pinv"] == pids["train_positional"] == caller
        filled = [p for p in range(m.max_len) if m.ends[p] < m.ends[p + 1]]
        assert len(filled) >= 4 and filled[-1] < m.max_len - 1  # the margin stays empty
        # the scores sent back are those of F, scored on a fresh state
        assert results.r_target.tolist() == scores(ex.build_pipeline(cfg), F).r_target.tolist()

    def test_the_caller_holds_no_cue_rows_or_g_at_the_positional_fit(self, data_path, tmp_path,
                                                                     monkeypatch, dense_calls):
        # The positional fit is the calling process's peak. By then only the
        # F child reads dense cue rows and only the prediction child reads
        # G, each its own, so this process has let go of G's dense train
        # rows and of G.
        state = ex.build_pipeline(base_config(data_path, tmp_path))
        C = state.C
        g_weights, held = [], []
        solve, fit = ex.solve_endstate, ex.train_positional

        def recording_solve(X, Y):
            mapping = solve(X, Y)
            g_weights.append(weakref.ref(mapping.W))  # in this process, G's only
            return mapping

        def recording_fit(*args, **kwargs):
            dense_rows_alive = any(rows() is not None for _, rows in dense_calls)
            held.append((dense_rows_alive, g_weights[0]() is not None))
            return fit(*args, **kwargs)

        monkeypatch.setattr(ex, "solve_endstate", recording_solve)
        monkeypatch.setattr(ex, "train_positional", recording_fit)
        ex._production_stage(state)
        assert len(g_weights) == 1
        assert held == [(False, False)]
        # G's train rows are this process's only dense cue rows, and the
        # sparse matrix, which the report reads, stays
        assert [ids for ids, _ in dense_calls] == [list(state.split.train_ids)]
        assert state.C is C

    @pytest.mark.parametrize("verb", ["endstate", "incremental"])
    def test_the_caller_densifies_only_the_train_rows(self, tmp_path, dense_calls, verb):
        # endstate's calling process makes G's train rows dense, and F's
        # rows and the scorings' are made dense in forked children only;
        # incremental's token loop reads the CSR arrays, and its children
        # solve and score
        if verb == "endstate":
            cfg = load_config(ROOT / "data" / "demo.config", [
                f"data={ROOT / 'data' / 'demo.tsv'}", f"output={tmp_path / 'out'}"])
            run_endstate(cfg)
        else:
            cfg = demo_incremental_config(tmp_path / "out")
            run_incremental(cfg)
        assert_no_child_left()
        calls = [ids for ids, _ in dense_calls]
        state = ex.build_pipeline(cfg)  # makes nothing dense
        assert calls == ([list(state.split.train_ids)] if verb == "endstate" else [])
        assert all(ids is not None and len(ids) < len(state.dataset) for ids in calls)

    @pytest.mark.parametrize("verb, config, extra", VERB_ARGS, ids=[v for v, _, _ in VERB_ARGS])
    def test_no_verb_starts_a_thread(self, tmp_path, monkeypatch, capsys, verb, config, extra):
        def no_thread(self):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        argv = [verb, "--config", f"data/{config}", "--set", f"output={tmp_path / 'out'}"]
        assert cli.main(argv + extra.split()) == 0, capsys.readouterr().err
        assert_no_child_left()


def production_summary(results):
    """Every field of each result, the scores as repr, so that NaN equals NaN."""
    return [(r.n_candidates, r.truncated, r.best is None,
             [(c.surface, c.grams, c.tolerated_count, repr(c.score)) for c in r.top_n])
            for r in results]


@pytest.fixture(scope="module")
def production_state(tmp_path_factory):
    """The demo state, then F, the serial oracle's production inputs, and
    the positional model and the production inputs of _production_stage."""
    tmp_path = tmp_path_factory.mktemp("production")
    data_path = tmp_path / "corpus.tsv"
    save_dataset(paradigm_lexicon(25, seed=21), data_path)
    state = ex.build_pipeline(base_config(data_path, tmp_path))
    _, _, serial_X = serial_production_model(state)
    F, _, m, X = ex._production_stage(state)
    return state, F, serial_X, m, X


class TestProductionInTwo:
    """_produce_in_two against one serial produce_batch."""

    @pytest.mark.parametrize("tolerance", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 15])
    def test_results_equal_one_serial_batch_bit_for_bit(self, production_state, tmp_path,
                                                        monkeypatch, tolerance, n):
        state, F, serial_X, m, X = production_state
        params = dataclasses.replace(state.cfg.production_params(), tolerance=tolerance)
        S, X = state.space.S[:n], X[:n]
        expected = production.produce_batch(serial_X[:n], S, m, F, params)
        assert len(expected) == n

        log = CallLog(tmp_path / "produced.jsonl")
        synthesize = production.synthesize_by_analysis

        def recording_synthesis(candidates, F, s, *args, **kwargs):  # once per item
            log.add(row=int(np.flatnonzero((S == s).all(axis=1))[0]))
            return synthesize(candidates, F, s, *args, **kwargs)

        monkeypatch.setattr(production, "synthesize_by_analysis", recording_synthesis)
        caller = os.getpid()
        results = ex._produce_in_two(X, S, m, F, params)
        assert production_summary(results) == production_summary(expected)
        assert_no_child_left()
        rows = {r["row"]: r["pid"] for r in log.records()}
        assert sorted(rows) == list(range(n))
        half = n // 2
        assert all(rows[i] == caller for i in range(half))
        assert all(rows[i] != caller for i in range(half, n))


ROOT = Path(__file__).resolve().parents[1]


def demo_incremental_config(output):
    return load_config(ROOT / "data" / "demo.config", [
        f"data={ROOT / 'data' / 'demo.tsv'}", f"output={output}",
        "learning.eta=0.01", "learning.checkpoints=5",
    ])


def serial_train_and_score(state, stream, checkpoints):
    """The serial oracle of ex._train_and_score: each checkpoint is scored
    in the calling process inside the token loop, then the end state."""
    curve, latest = [], {}

    def score(m):
        results = ex.comprehension_scores(state, m)
        latest[m.trained_tokens] = results
        curve.append((m.trained_tokens, ex.comprehension_accuracies(state, results)))

    final = train_incremental(stream, state.C, state.space.S, eta=state.cfg.eta,
                              checkpoints=checkpoints, on_checkpoint=score)
    inc = latest.get(final.trained_tokens) or ex.comprehension_scores(state, final)
    train_ids = list(state.split.train_ids)
    F = solve_endstate(state.C.dense(train_ids), state.space.S[train_ids])
    return curve, inc, ex.comprehension_scores(state, F)


INCREMENTAL_FILES = ("curve.csv", "items.csv", "report.json")


def incremental_outputs(output):
    """Run the demo incremental into output (report.json records the
    path, so runs compared share it) and return its files."""
    run_incremental(demo_incremental_config(output))
    files = {name: (output / name).read_bytes() for name in INCREMENTAL_FILES}
    for name in os.listdir(output):
        os.remove(output / name)
    return files


class TestOverlappedScoring:
    """Forked children score the baseline and the checkpoints while the
    calling process runs the token loop."""

    def test_outputs_equal_serial_scoring_bit_for_bit(self, tmp_path, monkeypatch):
        with monkeypatch.context() as serial:
            serial.setattr(ex, "_train_and_score", serial_train_and_score)
            expected = incremental_outputs(tmp_path / "out")

        log = CallLog(tmp_path / "calls.jsonl")
        scores = ex.comprehension_scores

        def recording_scores(state, F):
            log.add(scored=F.trained_tokens or "baseline")
            return scores(state, F)

        def recording_solve(X, Y):
            log.add(solved="F" if solves_f(X) else "G")
            return solve_endstate(X, Y)

        monkeypatch.setattr(ex, "comprehension_scores", recording_scores)
        monkeypatch.setattr(ex, "solve_endstate", recording_solve)
        before = set(threading.enumerate())
        assert incremental_outputs(tmp_path / "out") == expected
        assert set(threading.enumerate()) == before
        assert_no_child_left()
        checkpoints = json.loads(expected["report.json"])["checkpoints"]
        calls = log.records()
        scored = [r["scored"] for r in calls if "scored" in r]
        assert scored.count("baseline") == 1
        assert sorted(t for t in scored if t != "baseline") == checkpoints
        assert [r["solved"] for r in calls if "solved" in r] == ["F"]
        assert len(checkpoints) == 5 and os.getpid() not in {r["pid"] for r in calls}

    def test_only_the_children_build_a_gold_pool(self, tmp_path, monkeypatch):
        log = CallLog(tmp_path / "pools.jsonl")
        build = comprehension.GoldPool.build

        def recording_build(*args, **kwargs):
            log.add()
            return build(*args, **kwargs)

        monkeypatch.setattr(comprehension.GoldPool, "build", recording_build)
        incremental_outputs(tmp_path / "out")
        assert_no_child_left()
        # one pool in the baseline's child and one in the scorer
        pids = [r["pid"] for r in log.records()]
        assert len(pids) == len(set(pids)) == 2 and os.getpid() not in pids

    def test_a_slow_worker_changes_nothing(self, tmp_path, monkeypatch):
        # A scoring slower than a stream segment must make the loop wait at
        # the next checkpoint, so that it does not overwrite the shared
        # buffer the scorer is reading.
        expected = incremental_outputs(tmp_path / "out")
        log = CallLog(tmp_path / "scorings.jsonl")
        scores = ex.comprehension_scores

        def slow_scores(state, F):
            start = time.monotonic()
            seen = F.W.copy()
            time.sleep(0.05)  # longer than a demo stream segment
            results = scores(state, F)
            # the loop has gone on meanwhile, but not in the W this scoring reads
            assert np.array_equal(F.W, seen)
            log.add(tokens=F.trained_tokens, start=start, end=time.monotonic())
            return results

        monkeypatch.setattr(ex, "comprehension_scores", slow_scores)
        assert incremental_outputs(tmp_path / "out") == expected
        assert_no_child_left()
        scorings = sorted((r["start"], r["end"], r["tokens"]) for r in log.records())
        checkpoints = [(start, end) for start, end, tokens in scorings if tokens]
        assert len(checkpoints) == 5 and len(scorings) == 6
        # at most one checkpoint in flight
        assert all(end <= next_start for (_, end), (next_start, _) in
                   zip(checkpoints, checkpoints[1:]))
        assert os.getpid() not in {r["pid"] for r in log.records()}


    @pytest.mark.parametrize("n_checkpoints, n_forks", [(0, 1), (5, 2), (50, 2)])
    def test_one_fork_for_the_baseline_and_one_for_all_checkpoints(self, tmp_path, monkeypatch,
                                                                   n_checkpoints, n_forks):
        fork = os.fork
        forked = []  # the pids this process forked

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        log = CallLog(tmp_path / "calls.jsonl")
        scores = ex.comprehension_scores

        def recording_scores(state, F):
            log.add(scored=F.trained_tokens or "baseline")
            return scores(state, F)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(ex, "comprehension_scores", recording_scores)
        cfg = load_config(ROOT / "data" / "demo.config", [
            f"data={ROOT / 'data' / 'demo.tsv'}", f"output={tmp_path / 'out'}",
            "learning.eta=0.01", f"learning.checkpoints={n_checkpoints}",
        ])
        report = run_incremental(cfg)
        assert_no_child_left()
        assert len(forked) == n_forks
        calls = log.records()
        [baseline] = [r["pid"] for r in calls if r["scored"] == "baseline"]
        scored = [r for r in calls if r["scored"] != "baseline"]
        assert baseline == forked[0]
        if n_checkpoints:
            assert [r["scored"] for r in scored] == report["checkpoints"]
            assert len(report["checkpoints"]) == n_checkpoints
            assert {r["pid"] for r in scored} == {forked[1]}
            assert forked[1] not in (os.getpid(), baseline)
        else:  # the final weights, here
            assert [(r["pid"], r["scored"]) for r in scored] == [(os.getpid(), report["n_tokens"])]

    def test_a_baseline_result_larger_than_a_pipe_arrives_whole(self, tmp_path, monkeypatch):
        # A result over the pipe's 64 KiB blocks the baseline's child on its
        # write until this process reads it.  The demo's is smaller, so each
        # entry's best key is padded, with a string of its own that pickle
        # stores whole.
        expected = incremental_outputs(tmp_path / "out")
        log = CallLog(tmp_path / "baseline.jsonl")
        scores = ex.comprehension_scores

        def padded_scores(state, F):
            results = scores(state, F)
            results = results._replace(best_key=[f"{key}{i:>1024}"
                                                 for i, key in enumerate(results.best_key)])
            if not F.trained_tokens:
                log.add(size=len(pickle.dumps((True, results))))
            return results

        def too_slow(*_):
            raise TimeoutError("the run did not complete in 60 s")

        monkeypatch.setattr(ex, "comprehension_scores", padded_scores)
        handler = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            assert incremental_outputs(tmp_path / "out") == expected
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert_no_child_left()
        [baseline] = log.records()
        assert baseline["size"] > 64 * 2**10


def test_incremental_imports_no_thread_pool(tmp_path):
    # Every verb, one after the other in one process, so that the first
    # verb to print True is the one that imported it.
    proc = run_python(
        "import sys\nfrom ldlkit import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    rc = cli.main(argv.split())\n"
        "    print(argv.split()[0], rc, 'concurrent.futures' in sys.modules)",
        *(f"{verb} --config data/{config} --set output={tmp_path / verb}{extra}"
          for verb, config, extra in VERB_ARGS),
    )
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if not line.startswith("{")] == [
        f"{verb} 0 False" for verb, _, _ in VERB_ARGS]


def open_descriptors():
    """This process's open descriptors, each with what it refers to."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:  # the one listdir read the directory through
            pass
    return fds


@pytest.mark.parametrize("verb, extra", [
    pytest.param("endstate", [], id="endstate"),
    pytest.param("incremental", ["--set", "learning.eta=0.01", "--set", "learning.checkpoints=0"],
                 id="incremental-0"),
    pytest.param("incremental", ["--set", "learning.eta=0.01"], id="incremental"),
    pytest.param("wug", ["--nonce", str(ROOT / "data" / "nonce.txt")], id="wug"),
])
def test_a_forking_verb_leaves_the_process_as_it_found_it(tmp_path, capsys, verb, extra):
    # Each verb's children are reaped and each pipe end closed, on the
    # demo run in this process.
    config = "demo-wug.config" if verb == "wug" else "demo.config"
    argv = [verb, "--config", str(ROOT / "data" / config),
            "--set", f"data={ROOT / 'data' / 'demo.tsv'}", "--set", f"output={tmp_path / 'out'}",
            *extra]
    before = open_descriptors()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert open_descriptors() == before
    assert_no_child_left()


# Runs the CLI with scipy unimportable: a None entry in sys.modules makes
# every `import scipy...` raise ImportError.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from ldlkit import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


class TestNumpyOnlyRuntime:
    @pytest.mark.parametrize("verb", ["endstate", "incremental"])
    def test_demo_runs_without_scipy(self, verb, tmp_path):
        proc = run_python(WITHOUT_SCIPY, verb, "--config", "data/demo.config",
                          "--set", f"output={tmp_path}")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()

    def test_cli_import_loads_no_scipy(self):
        proc = run_python(
            "import sys, ldlkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records OPENBLAS_NUM_THREADS as numpy is first imported, then imports ldlkit.
BLAS_AT_NUMPY_IMPORT = """
import json, os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import ldlkit
print(json.dumps([seen[0]] + [os.environ.get(k) for k in sys.argv[1:]]))
"""


def openblas_threads():
    """The thread count of each OpenBLAS this process has loaded (numpy's,
    and scipy's once scipy is imported), read through its C API."""
    counts = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                counts[path] = get()
                break
    return counts


class TestBlasThreads:
    """import ldlkit gives BLAS one thread unless the environment sets a count."""

    def run(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(preset, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", BLAS_AT_NUMPY_IMPORT, *BLAS_THREAD_VARS],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_one_thread_by_default_before_numpy_loads(self):
        assert self.run() == ["1", "1", "1", "1"]

    def test_a_count_the_user_sets_wins(self):
        assert self.run(OPENBLAS_NUM_THREADS="2") == ["2", "2", "1", "1"]

    def test_the_suite_runs_the_thread_count_the_cli_runs(self):
        """tests/conftest.py imports ldlkit before any test module loads
        numpy.  Had numpy loaded first with no count set, its OpenBLAS would
        run one thread per CPU while the environment read 1."""
        counts = openblas_threads()
        if not counts:
            pytest.skip("numpy links no OpenBLAS")
        assert set(counts.values()) == {int(os.environ["OPENBLAS_NUM_THREADS"])}


def test_one_scoring_holds_the_predictions_and_correlations_only(tmp_path):
    """Traced bytes of one comprehension_scores call: the (forms, dims)
    predictions and the (forms, pool rows) correlations, plus a slack of
    two row blocks and 1 KiB per item (the Scores arrays and per-item
    vectors).  A further copy of the predictions or of the gold matrix, or
    correlations per entry rather than per distinct form, exceed it."""
    data = tmp_path / "paradigm100.tsv"
    save_dataset(paradigm_lexicon(100), data)
    cfg = load_config("data/demo.config", [f"data={data}", "output=unused",
                                           "production.enabled=false"])
    state = ex.build_pipeline(cfg)
    n, dims = state.space.S.shape
    n_pool = len(state.pool.entry_ids)  # builds the pool before the trace starts
    n_forms = len(state.forms.first)  # and the forms
    bound = 8 * n_forms * (dims + n_pool) + 2 * comprehension.CHUNK_BYTES + 1024 * n
    F = ex.solve_f(state)  # before the trace starts
    tracemalloc.start()
    try:
        results = ex.comprehension_scores(state, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results.r_target) == n and dims > 500 and n_forms == n // 2
    assert peak < bound


@pytest.mark.parametrize("corpus, settings", [
    ("demo", []),
    ("paradigm250", []),
    ("no_homophones", ["split.mode=no_novel_cues"]),
    ("demo", ["semantics.pool=train"]),
])
def test_scoring_per_form_is_the_per_entry_product(tmp_path, corpus, settings):
    """comprehension_scores maps each distinct form once; scoring the
    per-entry product C @ W, taken at each form's first entry, gives the
    same best rows, best keys and flags, and r_target within 1e-12, for an
    end-state F and for the weights at a checkpoint of the token stream."""
    data = ROOT / "data" / "demo.tsv"
    if corpus != "demo":
        data = tmp_path / "corpus.tsv"
        save_dataset(paradigm_lexicon(250) if corpus == "paradigm250"
                     else paradigm_lexicon(60, homophones=False), data)
    cfg = load_config(ROOT / "data" / "demo.config",
                      [f"data={data}", "output=unused", "production.enabled=false", *settings])
    state = ex.build_pipeline(cfg)
    n, forms = len(state.dataset), state.forms
    if corpus == "no_homophones":
        assert np.array_equal(forms.first, np.arange(n)) and np.array_equal(forms.row, np.arange(n))
    else:
        assert len(forms.first) < n
    stream = np.asarray(state.split.train_ids)[
        lexicon.sample_token_stream(state.split.train, cfg.seed_stream)]
    checkpoint = train_incremental(stream[: stream.size // 2], state.C, state.space.S, eta=0.01)
    for m in (ex.solve_f(state), checkpoint):
        ours = ex.comprehension_scores(state, m)
        oracle = comprehension.score_items(comprehension.centre((state.C.rows @ m.W)[forms.first]),
                                           state.space, state.pool, forms)
        assert len(ours.r_target) == len(oracle.r_target) == n
        for name in ("best_index", "best_key", "correct_strict", "correct_lenient"):
            assert list(getattr(ours, name)) == list(getattr(oracle, name)), name
        assert ours.r_target == pytest.approx(oracle.r_target, abs=1e-12, nan_ok=True)


def test_pruning_thresholds_are_the_quantiles_one_at_a_time(data_path, tmp_path):
    """run_pruning takes all its quantiles of |W| in one call; they equal
    those taken one quantile at a time."""
    cfg = base_config(data_path, tmp_path)
    report = run_pruning(cfg)
    absW = np.abs(ex.solve_f(ex.build_pipeline(cfg)).W)
    expected = [0.0] + [float(np.quantile(absW, q)) for q in np.linspace(0.0, 1.0, 11)[1:]]
    expected[-1] = float(absW.max()) * (1 + 1e-9)
    assert [point["threshold"] for point in report["curve"]] == expected
