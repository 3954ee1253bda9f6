import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lexmap
from lexmap.cli import run
from lexmap.mapper import LinearMap, load_map
from lexmap.synth import default_anchor_words, export_world, generate_linear_world, load_world
from lexmap.translate import AtlasEntry, MapAtlas, save_atlas

from conftest import write_vec


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    """Linear world exported through the synth subcommand."""
    out = tmp_path_factory.mktemp("world")
    code = run(
        [
            "synth", "--kind", "linear", "--n", "1500", "--d", "16",
            "--clusters", "8", "--cluster-std", "0.2", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def world_anchors(world_dir):
    return default_anchor_words(load_world(world_dir))


def _experiment_args(world_dir, anchors, out):
    return [
        "experiment",
        "--src-emb", str(world_dir / "src.vec"),
        "--tgt-emb", str(world_dir / "tgt.vec"),
        "--lexicon", str(world_dir / "lexicon.txt"),
        "--anchors", ",".join(anchors),
        "--trainer", "lsq", "--lam", "1e-6",
        "--test-size", "50", "--seed", "3",
        "--out", str(out),
    ]


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["synth", "--bogus", "1", "--out", str(tmp_path)]) == 2

    def test_missing_required_flags_is_usage_error(self, capsys):
        assert run(["experiment"]) == 2
        assert "missing required" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["experiment", "diagnose"])
    def test_jobs_flag_is_gone(self, subcommand, tmp_path, capsys):
        assert run([subcommand, "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        """Neither the import nor an experiment that reaches Spearman loads scipy."""
        src = str(Path(lexmap.__file__).resolve().parents[1])
        code = "\n".join([
            "import sys, lexmap.cli",
            "print('scipy.stats' in sys.modules)",
            "w, e = sys.argv[1] + '/w', sys.argv[1] + '/e'",
            "assert lexmap.cli.run(['synth', '--kind', 'nonlinear', '--n', '400', '--d', '8',",
            "    '--clusters', '4', '--cluster-std', '0.25', '--variation-strength', '1.0',",
            "    '--noise-sigma', '0.2', '--seed', '5', '--out', w]) == 0",
            "assert lexmap.cli.run(['experiment', '--src-emb', w + '/src.vec',",
            "    '--tgt-emb', w + '/tgt.vec', '--lexicon', w + '/lexicon.txt',",
            "    '--anchors', 'w00207,w00084,w00037,w00113', '--epochs', '3',",
            "    '--test-size', '10', '--k', '2', '--min-train', '20', '--seed', '5',",
            "    '--out', e]) == 0",
            "print('scipy' in sys.modules)",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src}, cwd=src,
        )
        lines = result.stdout.splitlines()
        assert lines[0] == "False"  # after the import
        assert lines[-1] == "False"  # after the experiment
        spearman = (tmp_path / "e" / "report.tsv").read_text().splitlines()[-1]
        assert float(spearman.split("\t")[1]) == pytest.approx(0.316227766016838)

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = run(
            [
                "neighborhood", "--src-emb", str(tmp_path / "none.vec"),
                "--anchors", "a", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: data:")

    def test_unknown_anchor_is_constraint_error(self, tmp_path, capsys):
        vec = write_vec(tmp_path / "t.vec", [("a", [1, 0]), ("b", [0, 1])])
        code = run(
            [
                "neighborhood", "--src-emb", str(vec),
                "--anchors", "ghost", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: constraint:")


class TestNeighborhoodCommand:
    def test_growth_profile_rows(self, tmp_path):
        vec = write_vec(
            tmp_path / "toy.vec",
            [("a", [1.0, 0.0]), ("b", [0.8, 0.6]), ("c", [0.0, 1.0])],
        )
        out = tmp_path / "out"
        code = run(
            [
                "neighborhood", "--src-emb", str(vec), "--anchors", "a",
                "--thresholds", "1.0,0.5", "--out", str(out),
            ]
        )
        assert code == 0
        body = (out / "profile_a.tsv").read_text()
        assert body == "s\tcount\n1.0\t1\n0.5\t2\n"
        assert (out / "config.json").is_file()


class TestSynthAndDiagnose:
    def test_synth_outputs(self, world_dir):
        for name in ("src.vec", "tgt.vec", "lexicon.txt", "world.json", "config.json"):
            assert (world_dir / name).is_file()

    def test_diagnose_linear_world(self, world_dir, tmp_path):
        out = tmp_path / "diag"
        code = run(
            [
                "diagnose", "--world", str(world_dir), "--trainer", "lsq",
                "--lam", "1e-6", "--test-size", "50", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        pairwise = (out / "pairwise.tsv").read_text().splitlines()
        assert pairwise[0] == "anchor_a\tanchor_b\tanchor_cosine\tmap_cosine"
        values = [float(line.split("\t")[3]) for line in pairwise[1:]]
        assert values and min(values) >= 0.95


class TestExperimentCommand:
    def test_linear_world_report(self, world_dir, world_anchors, tmp_path):
        out = tmp_path / "exp"
        assert run(_experiment_args(world_dir, world_anchors, out)) == 0
        lines = (out / "report.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "anchor_word" and len(header) == 10
        data = [line.split("\t") for line in lines[1:] if not line.startswith("#")]
        assert len(data) == len(world_anchors)
        map_cos = [float(row[8]) for row in data]
        assert min(map_cos) >= 0.95
        for name in ("report.jsonl", "scatter.tsv", "config.json"):
            assert (out / name).is_file()
        assert (out / "maps" / "global.txt").is_file()

    def test_snapshot_rerun_is_byte_identical(self, world_dir, world_anchors, tmp_path):
        """Primary outputs reproduce exactly from the emitted config."""
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run(_experiment_args(world_dir, world_anchors, out1)) == 0
        code = run(
            [
                "experiment", "--config", str(out1 / "config.json"),
                "--out", str(out2),
            ]
        )
        assert code == 0
        for rel in ["report.tsv", "report.jsonl", "scatter.tsv", "maps/global.txt"]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        local_maps = sorted(p.name for p in (out1 / "maps").glob("local_*.txt"))
        assert local_maps
        for name in local_maps:
            assert (out1 / "maps" / name).read_bytes() == (out2 / "maps" / name).read_bytes()

    def test_snapshot_with_retired_jobs_key_reruns(self, world_dir, world_anchors, tmp_path):
        """A snapshot that still records the removed --jobs flag reruns unchanged."""
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run(_experiment_args(world_dir, world_anchors, out1)) == 0
        snapshot = json.loads((out1 / "config.json").read_text())
        snapshot["args"]["jobs"] = 1
        old = tmp_path / "old_config.json"
        old.write_text(json.dumps(snapshot))
        assert run(["experiment", "--config", str(old), "--out", str(out2)]) == 0
        for rel in ["report.tsv", "report.jsonl", "maps/global.txt"]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        assert "jobs" not in json.loads((out2 / "config.json").read_text())["args"]

    def test_snapshot_subcommand_mismatch_rejected(self, world_dir, world_anchors, tmp_path):
        out = tmp_path / "exp2"
        assert run(_experiment_args(world_dir, world_anchors, out)) == 0
        code = run(["synth", "--config", str(out / "config.json"), "--out", str(tmp_path / "x")])
        assert code == 1

    def test_synth_snapshot_rerun_is_byte_identical(self, world_dir, tmp_path):
        out = tmp_path / "w2"
        code = run(["synth", "--config", str(world_dir / "config.json"), "--out", str(out)])
        assert code == 0
        for name in ("src.vec", "tgt.vec", "lexicon.txt", "world.json"):
            assert (out / name).read_bytes() == (world_dir / name).read_bytes()

    def test_neighborhood_snapshot_rerun_is_byte_identical(self, world_dir, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        args = [
            "neighborhood", "--src-emb", str(world_dir / "src.vec"),
            "--anchors", "w00001", "--thresholds", "0.8,0.5,0.2",
            "--out", str(out1),
        ]
        assert run(args) == 0
        assert run(["neighborhood", "--config", str(out1 / "config.json"), "--out", str(out2)]) == 0
        assert (out1 / "profile_w00001.tsv").read_bytes() == (out2 / "profile_w00001.tsv").read_bytes()


class TestTrainAndTranslate:
    def test_train_global_map(self, world_dir, tmp_path):
        out = tmp_path / "train"
        code = run(
            [
                "train",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--lexicon", str(world_dir / "lexicon.txt"),
                "--trainer", "lsq", "--lam", "1e-6",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        fitted = load_map(out / "map.txt")
        assert fitted.trainer == "least_squares"
        assert fitted.matrix.shape == (16, 16)

    def test_translate_with_map(self, world_dir, tmp_path):
        train_out = tmp_path / "train"
        run(
            [
                "train",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--lexicon", str(world_dir / "lexicon.txt"),
                "--trainer", "lsq", "--lam", "1e-6",
                "--seed", "3", "--out", str(train_out),
            ]
        )
        world = load_world(world_dir)
        words = list(world.src_space.words)[:5]
        out = tmp_path / "tr"
        code = run(
            [
                "translate",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--map", str(train_out / "map.txt"),
                "--words", ",".join(words),
                "--k", "3", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "translations.tsv").read_text().splitlines()
        assert lines[0] == "source\tmap\trank\ttarget\tscore"
        assert len(lines) == 1 + 5 * 3
        top1 = {line.split("\t")[0]: line.split("\t")[3] for line in lines[1:] if line.split("\t")[2] == "1"}
        for word in words:
            assert top1[word] == world.lexicon.targets(word)[0]

    def test_translate_with_atlas(self, world_dir, tmp_path):
        world = load_world(world_dir)
        anchors = default_anchor_words(world)[:2]
        entries = tuple(
            AtlasEntry(a, world.src_space.vector(a), LinearMap(world.ground_truth.matrix, anchor=a))
            for a in anchors
        )
        atlas_dir = tmp_path / "atlas"
        save_atlas(MapAtlas(entries), atlas_dir)
        out = tmp_path / "tr"
        code = run(
            [
                "translate",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--atlas", str(atlas_dir),
                "--words", anchors[0],
                "--k", "1", "--out", str(out),
            ]
        )
        assert code == 0
        row = (out / "translations.tsv").read_text().splitlines()[1].split("\t")
        assert row[1] == anchors[0]  # dispatched to its own anchor map

    def test_atlas_without_manifest_fails_before_loading_vectors(self, tmp_path, capsys):
        (tmp_path / "maps").mkdir()
        code = run(
            [
                "translate",
                "--src-emb", str(tmp_path / "absent_src.vec"),
                "--tgt-emb", str(tmp_path / "absent_tgt.vec"),
                "--atlas", str(tmp_path / "maps"),
                "--words", "w00001",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: data: atlas manifest not found")

    def test_translate_requires_exactly_one_source_of_maps(self, world_dir, tmp_path, capsys):
        code = run(
            [
                "translate",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--words", "w00001",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err
