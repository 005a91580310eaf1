"""Config handling, the experiment runners, and the CLI."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ldlkit import _wh_numpy, cli, comprehension
from ldlkit import experiments as ex
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
from ldlkit.cues import extract_grams
from ldlkit.lexicon import Dataset, save_dataset
from ldlkit.mappings import MappingError, solve_endstate, train_incremental
from ldlkit.production import (
    PositionalTargets,
    ProductionError,
    positional_targets,
    train_positional,
)

from corpora import paradigm_lexicon


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


class TestConfig:
    def test_parse_flat_keys(self):
        text = "# comment\ncues.n = 3\n\ndata=corpus.tsv # trailing\n"
        pairs = parse_config_text(text)
        assert pairs == {"cues.n": "3", "data": "corpus.tsv"}

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
        with open(tmp_path / "a" / "out" / "production.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # one item per run of rows starting at rank 1 (or at no rank when empty)
        firsts = [r for r in rows if r["rank"] in ("1", "")]
        assert len(firsts) == capped["n_train"] + capped["n_validation"]
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
        cfg = base_config(data_path, tmp_path, **{"split.mode": "no_novel_cues",
                                                  "production.enabled": "false"})
        report = run_endstate(cfg)
        assert report["novel_grams_dropped"] == 0


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
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        rc = cli.main(["inspect", "--config", str(p)])
        assert rc == 0
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

    def test_error_is_machine_readable(self, tmp_path, capsys):
        p = tmp_path / "exp.config"
        p.write_text("data=/does/not/exist.tsv\n", encoding="utf-8")
        rc = cli.main(["endstate", "--config", str(p)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    @pytest.mark.parametrize("override", [
        f"{key}=bogus" for key in ("production.input", "semantics.pool", "cues.unit", "articles.mode",
                                   "semantics.mode", "semantics.scheme", "semantics.number",
                                   "split.mode")
    ])
    def test_unknown_choice_exits_2_before_any_output(self, data_path, tmp_path, capsys, override):
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        rc = cli.main(["endstate", "--config", str(p), "--set", override])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
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
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        rc = cli.main(["endstate", "--config", str(p), "--set", override])
        assert rc == 2
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb,where", [
        pytest.param("endstate", "worker", id="worker"),
        pytest.param("endstate", "caller", id="caller"),
        pytest.param("incremental", "worker", id="incremental-worker"),
        pytest.param("incremental", "caller", id="incremental-caller"),
    ])
    def test_error_on_either_thread_exits_2_and_leaves_no_thread(self, data_path, tmp_path, capsys,
                                                                 monkeypatch, verb, where):
        # endstate: the worker thread solves F while the calling thread runs
        # train_positional.  incremental: a forked child scores each
        # checkpoint while the calling process runs the token loop.
        log = CallLog(tmp_path / "raised.jsonl")
        error = ProductionError if verb == "endstate" else MappingError
        caller = os.getpid()

        def fail(*args, **kwargs):
            log.add(main_thread=threading.current_thread() is threading.main_thread())
            raise error("fit failed")

        if verb == "endstate" and where == "worker":
            monkeypatch.setattr(ex, "solve_endstate", lambda X, Y: (
                fail() if solves_f(X) else solve_endstate(X, Y)))
        elif verb == "endstate":
            monkeypatch.setattr(ex, "train_positional", fail)
        elif where == "worker":
            # every checkpoint's scoring fails; the baseline's does not
            scores = ex.comprehension_scores
            monkeypatch.setattr(ex, "comprehension_scores", lambda state, F=None: (
                fail() if F is not None and F.trained_tokens else scores(state, F)))
        else:
            # the second stream segment fails, with the first checkpoint in flight
            run_stream = _wh_numpy.run_stream
            segments = []

            def second_segment_fails(*args):
                segments.append(args)
                return fail() if len(segments) == 2 else run_stream(*args)

            monkeypatch.setattr(_wh_numpy, "run_stream", second_segment_fails)
        before = set(threading.enumerate())
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        rc = cli.main([verb, "--config", str(p)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [
            {"error": "fit failed", "type": error.__name__}
        ]
        [raised] = log.records()
        on_caller = raised["pid"] == caller and raised["main_thread"]
        assert on_caller == (where == "caller")
        assert not (tmp_path / "out").exists()
        assert set(threading.enumerate()) == before
        assert_no_child_left()

    @pytest.mark.parametrize("dies_in", ["baseline", "checkpoint"])
    def test_a_child_that_dies_without_a_result_exits_2(self, data_path, tmp_path, capsys,
                                                         monkeypatch, dies_in):
        caller = os.getpid()

        def die():
            assert os.getpid() != caller, "the scoring ran in the calling process"
            os._exit(1)

        if dies_in == "baseline":
            monkeypatch.setattr(ex, "solve_endstate", lambda X, Y: die())
            what = "scoring the end-state baseline"
        else:
            scores = ex.comprehension_scores
            monkeypatch.setattr(ex, "comprehension_scores", lambda state, F=None: (
                die() if F is not None and F.trained_tokens else scores(state, F)))
            what = "scoring the checkpoint at "
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        rc = cli.main(["incremental", "--config", str(p)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [err] = [json.loads(line) for line in captured.err.splitlines()]
        assert err["type"] == "RuntimeError"
        assert err["error"].startswith(what)
        assert "without a result (exit status 1)" in err["error"]
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @staticmethod
    def production_argv(verb, data_path, tmp_path):
        if verb == "wug":
            return ["wug", "--config", "data/demo-wug.config", "--nonce", "data/nonce.txt",
                    "--set", f"output={tmp_path / 'out'}"]
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        return ["endstate", "--config", str(p)]

    @pytest.mark.parametrize("verb", ["endstate", "wug"])
    @pytest.mark.parametrize("how", ["raises", "exits"])
    def test_a_failing_production_child_exits_2_and_leaves_no_child(self, data_path, tmp_path,
                                                                     capsys, monkeypatch, verb,
                                                                     how):
        caller = os.getpid()
        produce = ex.produce

        def produce_in_child_fails(*args, **kwargs):
            if os.getpid() != caller:
                if how == "exits":
                    os._exit(1)
                raise ProductionError("production failed")
            return produce(*args, **kwargs)

        monkeypatch.setattr(ex, "produce", produce_in_child_fails)
        rc = cli.main(self.production_argv(verb, data_path, tmp_path))
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [err] = [json.loads(line) for line in captured.err.splitlines()]
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
        produce = ex.produce

        def produce_fails_here(*args, **kwargs):
            if os.getpid() == caller:
                raise ProductionError("production failed")
            time.sleep(60)
            return produce(*args, **kwargs)

        monkeypatch.setattr(ex, "produce", produce_fails_here)
        start = time.monotonic()
        rc = cli.main(self.production_argv(verb, data_path, tmp_path))
        assert time.monotonic() - start < 30
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "production failed"
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    def test_a_failing_loop_kills_the_children_it_leaves(self, data_path, tmp_path, capsys,
                                                          monkeypatch):
        # The baseline's child would take a minute; the run must not wait for it.
        caller = os.getpid()

        def slow_solve(X, Y):
            assert os.getpid() != caller, "F was solved in the calling process"
            time.sleep(60)
            return solve_endstate(X, Y)

        run_stream = _wh_numpy.run_stream
        segments = []

        def second_segment_fails(*args):
            segments.append(args)
            if len(segments) == 2:
                raise MappingError("loop failed")
            return run_stream(*args)

        monkeypatch.setattr(ex, "solve_endstate", slow_solve)
        monkeypatch.setattr(_wh_numpy, "run_stream", second_segment_fails)
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        start = time.monotonic()
        rc = cli.main(["incremental", "--config", str(p)])
        assert time.monotonic() - start < 30
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "loop failed"
        assert_no_child_left()

    def test_without_fork_incremental_exits_2_before_any_output(self, data_path, tmp_path,
                                                                 capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        p = tmp_path / "exp.config"
        p.write_text(f"data={data_path}\noutput={tmp_path / 'out'}\n", encoding="utf-8")
        rc = cli.main(["incremental", "--config", str(p)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [err] = [json.loads(line) for line in captured.err.splitlines()]
        assert err["type"] == "ConfigError" and "os.fork" in err["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["endstate", "wug"])
    def test_without_fork_production_exits_2_before_any_output(self, data_path, tmp_path,
                                                                capsys, monkeypatch, verb):
        monkeypatch.delattr(os, "fork")
        rc = cli.main(self.production_argv(verb, data_path, tmp_path))
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [err] = [json.loads(line) for line in captured.err.splitlines()]
        assert err == {"error": "production runs half its items in a forked process, "
                                "and os.fork is missing on this platform", "type": "ConfigError"}
        assert not (tmp_path / "out").exists()

    def test_without_fork_endstate_runs_without_production(self, data_path, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.delattr(os, "fork")
        argv = self.production_argv("endstate", data_path, tmp_path)
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
        rc = cli.main(["wug", "--config", "data/demo-wug.config", "--nonce", str(nonce),
                       "--set", f"output={tmp_path / 'out'}"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [err] = [json.loads(line) for line in captured.err.splitlines()]
        assert err["type"] == "ConfigError" and "repeated: Bral" in err["error"]
        assert not (tmp_path / "out").exists()

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
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [err] = [json.loads(line) for line in captured.err.splitlines()]
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
        rc = cli.main(["wug", "--config", str(p), "--nonce", str(nonce)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "semantics.mode" in err["error"]
        assert not (tmp_path / "out").exists()


def serial_production_model(state):
    """The serial oracle of the production fits in build_pipeline: G, the
    positional model and its inputs for production_ids, each computed as
    it was on one thread."""
    cfg, inv = state.cfg, state.C.inventory
    train_ids = list(state.split.train_ids)
    S, cue_rows = state.space.S[train_ids], state.C.rows[train_ids]
    forms = [state.cue_cfg.cue_string(e) for e in state.split.train]
    G = solve_endstate(S, cue_rows)
    max_len = max(len(extract_grams(f, state.cue_cfg)) for f in forms) + cfg.max_len_margin
    targets = positional_targets(forms, inv, state.cue_cfg, max_len)
    positional = train_positional(S @ G.W, targets, inv, state.cue_cfg)
    X = np.array([s @ G.W for s in state.space.S[ex.production_ids(state.split)]])
    return G, positional, X


class TestOverlappedFits:
    def test_mappings_equal_serial_solves_bit_for_bit(self, data_path, tmp_path):
        cfg = base_config(data_path, tmp_path)
        state = ex.build_pipeline(cfg)
        train_ids = list(state.split.train_ids)
        F = solve_endstate(state.C.rows[train_ids], state.space.S[train_ids])
        G, positional, X = serial_production_model(state)
        assert np.array_equal(state.F.W, F.W)
        assert np.array_equal(state.G.W, G.W)
        assert np.array_equal(state.positional.columns, positional.columns)
        assert np.array_equal(state.positional.weights, positional.weights)
        assert np.array_equal(state.production_inputs, X)

    def test_semantic_inputs_are_the_targets_meanings(self, data_path, tmp_path):
        state = ex.build_pipeline(base_config(data_path, tmp_path,
                                              **{"production.input": "semantics"}))
        ids = ex.production_ids(state.split)
        assert np.array_equal(state.production_inputs, state.space.S[ids])

    @pytest.mark.parametrize("with_production", [True, False])
    def test_f_runs_on_a_worker_only_beside_production(self, data_path, tmp_path, monkeypatch,
                                                        with_production):
        threads = {}

        def recording_solve(X, Y):
            threads["F" if solves_f(X) else "G"] = threading.current_thread()
            return solve_endstate(X, Y)

        monkeypatch.setattr(ex, "solve_endstate", recording_solve)
        before = set(threading.enumerate())
        state = ex.build_pipeline(base_config(data_path, tmp_path),
                                  with_production=with_production)
        # without production, F is solved where it is first read
        assert ("F" in threads) == with_production
        assert state.F.W.shape == (len(state.C.inventory), state.space.S.shape[1])
        assert (threads.pop("F") is threading.main_thread()) != with_production
        if with_production:
            assert threads.pop("G") is threading.main_thread()
        assert not threads
        assert set(threading.enumerate()) == before

    def test_predictions_and_half_the_positions_run_on_the_worker(self, data_path, tmp_path,
                                                                   monkeypatch):
        calls = []
        predict, pinv, position = ex._predict_cues, np.linalg.pinv, PositionalTargets.position

        def recording(name, f):
            def call(*args, **kwargs):
                on_main = threading.current_thread() is threading.main_thread()
                calls.append((name, args[1] if name == "position" else None, on_main))
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(ex, "_predict_cues", recording("predict", predict))
        monkeypatch.setattr(np.linalg, "pinv", recording("pinv", pinv))
        monkeypatch.setattr(PositionalTargets, "position", recording("position", position))
        before = set(threading.enumerate())
        state = ex.build_pipeline(base_config(data_path, tmp_path))
        assert set(threading.enumerate()) == before
        # the two threads run at once, so their calls interleave in any order
        assert sorted(c for c in calls if c[0] != "position") == [("pinv", None, True),
                                                                 ("predict", None, False)]
        m = state.positional
        filled = [p for p in range(m.max_len) if m.ends[p] < m.ends[p + 1]]
        assert len(filled) >= 4 and filled[-1] < m.max_len - 1  # the margin stays empty
        solved = sorted((p, on_main) for name, p, on_main in calls if name == "position")
        assert solved == [(p, i % 2 == 0) for i, p in enumerate(filled)]
        # every position's solve and every prediction gives the serial bits
        _, positional, X = serial_production_model(state)
        assert np.array_equal(m.weights, positional.weights)
        assert np.array_equal(state.production_inputs, X)

    @pytest.mark.parametrize("verb", ["endstate", "wug"])
    def test_one_thread_is_alive_at_the_production_fork(self, data_path, tmp_path, monkeypatch,
                                                        capsys, verb):
        alive = []
        fork = ex._fork

        def counting_fork(what, work):
            alive.append(threading.active_count())
            return fork(what, work)

        monkeypatch.setattr(ex, "_fork", counting_fork)
        assert cli.main(TestCli.production_argv(verb, data_path, tmp_path)) == 0
        assert alive == [1]
        assert_no_child_left()


def production_summary(results):
    """Every field of each result, the scores as repr, so that NaN equals NaN."""
    return [(r.n_candidates, r.truncated, r.best is None,
             [(c.surface, c.grams, c.tolerated_count, repr(c.score)) for c in r.top_n])
            for r in results]


@pytest.fixture(scope="module")
def production_state(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("production")
    data_path = tmp_path / "corpus.tsv"
    save_dataset(paradigm_lexicon(25, seed=21), data_path)
    return ex.build_pipeline(base_config(data_path, tmp_path))


class TestProductionInTwo:
    """_produce_in_two against one serial produce_items batch."""

    @pytest.mark.parametrize("tolerance", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 15])
    def test_results_equal_one_serial_batch_bit_for_bit(self, production_state, tmp_path,
                                                        monkeypatch, tolerance, n):
        state = production_state
        params = dataclasses.replace(state.cfg.production_params(), tolerance=tolerance)
        ids = ex.production_ids(state.split)[:n]
        S, X = state.space.S[ids], state.production_inputs[:n]
        expected = ex.produce_items(S, state.G, state.positional, state.F, params)
        assert len(expected) == n

        log = CallLog(tmp_path / "produced.jsonl")
        produce = ex.produce

        def recording_produce(s, *args, **kwargs):
            log.add(row=int(np.flatnonzero((S == s).all(axis=1))[0]))
            return produce(s, *args, **kwargs)

        monkeypatch.setattr(ex, "produce", recording_produce)
        caller = os.getpid()
        done, results = ex._produce_in_two(S, state.G, state.positional, state.F, params, X,
                                           meanwhile=lambda: os.getpid())
        assert done == caller
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

    final = train_incremental(stream, state.C.rows, state.space.S, eta=state.cfg.eta,
                              checkpoints=checkpoints, on_checkpoint=score)
    inc = latest.get(final.trained_tokens) or ex.comprehension_scores(state, final)
    train_ids = list(state.split.train_ids)
    F = solve_endstate(state.C.rows[train_ids], state.space.S[train_ids])
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

        def recording_scores(state, F=None):
            log.add(scored="baseline" if F is None else F.trained_tokens)
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

    def test_a_slow_worker_changes_nothing(self, tmp_path, monkeypatch):
        # A checkpoint child slower than a stream segment must make the loop
        # wait at the next checkpoint, so that children do not pile up.
        expected = incremental_outputs(tmp_path / "out")
        log = CallLog(tmp_path / "scorings.jsonl")
        scores = ex.comprehension_scores

        def slow_scores(state, F=None):
            start = time.monotonic()
            F = F or state.F
            seen = F.W.copy()
            time.sleep(0.05)  # longer than a demo stream segment
            results = scores(state, F)
            # the loop has gone on meanwhile, but not in this child's W
            assert np.array_equal(F.W, seen)
            log.add(tokens=F.trained_tokens, start=start, end=time.monotonic())
            return results

        monkeypatch.setattr(ex, "comprehension_scores", slow_scores)
        assert incremental_outputs(tmp_path / "out") == expected
        assert_no_child_left()
        scorings = sorted((r["start"], r["end"], r["tokens"]) for r in log.records())
        checkpoints = [(start, end) for start, end, tokens in scorings if tokens]
        assert len(checkpoints) == 5 and len(scorings) == 6
        # at most one checkpoint child in flight
        assert all(end <= next_start for (_, end), (next_start, _) in
                   zip(checkpoints, checkpoints[1:]))
        assert os.getpid() not in {r["pid"] for r in log.records()}


    def test_the_baseline_child_is_collected_once_its_result_waits(self, tmp_path,
                                                                    monkeypatch):
        # The demo's baseline takes well under a second; each stream segment
        # is made to take 0.5 s, so the baseline's child has sent its scores
        # before the last segment and must be reaped by then, not only after
        # the loop: a result larger than a pipe holds keeps the child alive,
        # with F and its heap, until the result is read.
        log = CallLog(tmp_path / "baseline.jsonl")
        scores = ex.comprehension_scores

        def recording_scores(state, F=None):
            if F is None:
                log.add()
            return scores(state, F)

        run_stream = _wh_numpy.run_stream
        reaped = []  # per segment, whether the baseline's child was reaped

        def slow_segment(*args):
            time.sleep(0.5)
            try:  # WNOWAIT leaves a child that has ended to be reaped by the run
                os.waitid(os.P_PID, log.records()[0]["pid"],
                          os.WEXITED | os.WNOHANG | os.WNOWAIT)
                reaped.append(False)
            except ChildProcessError:
                reaped.append(True)
            return run_stream(*args)

        monkeypatch.setattr(ex, "comprehension_scores", recording_scores)
        monkeypatch.setattr(_wh_numpy, "run_stream", slow_segment)
        incremental_outputs(tmp_path / "out")
        assert_no_child_left()
        # five checkpoint segments and the empty one after the last
        assert len(reaped) == 6 and reaped[-1]


def test_incremental_imports_no_thread_pool(tmp_path):
    proc = run_python(
        "import sys\nfrom ldlkit import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print(rc, 'concurrent.futures' in sys.modules)",
        "incremental", "--config", "data/demo.config", "--set", f"output={tmp_path}",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


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


def test_one_scoring_holds_the_predictions_and_correlations_only(tmp_path):
    """Traced bytes of one comprehension_scores call: the (items, dims)
    predictions and the (items, pool rows) correlations, plus a slack of two
    row blocks and 1 KiB per item (the ItemScore list and per-item vectors).
    A further copy of the predictions or of the gold matrix exceeds it."""
    data = tmp_path / "paradigm100.tsv"
    save_dataset(paradigm_lexicon(100), data)
    cfg = load_config("data/demo.config", [f"data={data}", "output=unused",
                                           "production.enabled=false"])
    state = ex.build_pipeline(cfg)
    n, dims = state.space.S.shape
    n_pool = len(state.pool.entry_ids)
    bound = 8 * n * (dims + n_pool) + 2 * comprehension.CHUNK_BYTES + 1024 * n
    F = state.F  # solved when first read, so before the trace starts
    tracemalloc.start()
    try:
        results = ex.comprehension_scores(state, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == n and dims > 500
    assert peak < bound
