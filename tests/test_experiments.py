"""Config handling, the experiment runners, and the CLI."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldlkit import cli
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

from corpora import paradigm_lexicon


@pytest.fixture()
def data_path(tmp_path):
    p = tmp_path / "corpus.tsv"
    save_dataset(paradigm_lexicon(25, seed=21), p)
    return p


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
        assert "QQQQ" in report["skipped_nonces"]

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


ROOT = Path(__file__).resolve().parents[1]

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
