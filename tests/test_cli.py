import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lexmap
from lexmap.analysis import frobenius_norm, matrix_cosine, report_to_tsv, run_experiment
from lexmap.cli import build_parser, run
from lexmap.embeddings import cosine_similarity, load_embeddings
from lexmap.mapper import LinearMap, TrainConfig, load_map, save_map
from lexmap.synth import default_anchor_words, load_world
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


def _train_args(world_dir, out):
    return [
        "train",
        "--src-emb", str(world_dir / "src.vec"),
        "--tgt-emb", str(world_dir / "tgt.vec"),
        "--lexicon", str(world_dir / "lexicon.txt"),
        "--trainer", "lsq", "--lam", "1e-6",
        "--seed", "3", "--out", str(out),
    ]


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


@pytest.fixture(scope="module")
def snapshots(world_dir, world_anchors, tmp_path_factory):
    """Runs whose config.json the override tests replay: an experiment and a
    translate through the global map, plus the first anchor's local map."""
    root = tmp_path_factory.mktemp("snapshots")
    assert run(_experiment_args(world_dir, world_anchors, root / "experiment")) == 0
    assert run(_train_args(world_dir, root / "global")) == 0
    assert run(_train_args(world_dir, root / "local") + ["--anchor", world_anchors[0]]) == 0
    assert run([
        "translate", "--src-emb", str(world_dir / "src.vec"),
        "--tgt-emb", str(world_dir / "tgt.vec"), "--map", str(root / "global" / "map.txt"),
        "--words", "w00001,w00002", "--k", "2", "--out", str(root / "translate"),
    ]) == 0
    return root


# inputs that do not exist: a check that fires before any load names no file
ABSENT_INPUTS = [
    ("neighborhood", ["--src-emb", "absent.vec"]),
    ("experiment", ["--src-emb", "absent.vec", "--tgt-emb", "absent.vec",
                    "--lexicon", "absent.txt"]),
    ("diagnose", ["--world", "absent"]),
]


_SPACES = ["--src-emb", "{d}/v.vec", "--tgt-emb", "{d}/v.vec"]
# input checks no other test reaches, each with the error line it prints ({d}: the inputs' directory)
INPUT_CHECKS = [
    pytest.param(["neighborhood", "--src-emb", "{d}/x.vec", "--anchors", "a"],
                 "constraint: bad header in {d}/x.vec: expected two integers", id="header-text"),
    pytest.param(["neighborhood", "--src-emb", "{d}/neg.vec", "--anchors", "a"],
                 "constraint: bad header in {d}/neg.vec: count=-1 dim=12", id="header-negative"),
    pytest.param(["translate", *_SPACES, "--map", "{d}/m.txt"],
                 "constraint: pass --words or --input", id="no-words"),
    pytest.param(["neighborhood", "--src-emb", "{d}/v.vec", "--anchors", ","],
                 "constraint: empty comma list", id="empty-anchors"),
    pytest.param(["train", *_SPACES, "--lexicon", "{d}/lex.txt", "--trainer", "lsq", "--lam", "-1"],
                 "constraint: lam must be finite and >= 0, got -1.0", id="negative-lam"),
    pytest.param(["train", *_SPACES, "--lexicon", "{d}/lex.txt", "--gamma", "nan"],
                 "constraint: gamma must be finite and > 0, got nan", id="nan-gamma"),
    pytest.param(["train", *_SPACES, "--lexicon", "{d}/lex.txt", "--gamma", "inf"],
                 "constraint: gamma must be finite and > 0, got inf", id="inf-gamma"),
    pytest.param(["neighborhood", "--src-emb", "{d}/v.vec", "--anchors", "a", "--thresholds", "2,0.5"],
                 "constraint: threshold s must be in [-1, 1], got 2.0", id="threshold-above-one"),
    pytest.param(["synth", "--clusters", "0"],
                 "constraint: need n_clusters >= 1", id="no-clusters"),
    pytest.param(["train", *_SPACES, "--lexicon", "{d}/none.txt"],
                 "constraint: no lexicon pair is covered by both embedding spaces", id="uncovered-lexicon"),
    pytest.param(["translate", *_SPACES, "--atlas", "{d}/atlas", "--words", "a"],
                 "data: map file not found: {d}/atlas/map_0000.txt", id="atlas-map-deleted"),
    pytest.param(["translate", *_SPACES, "--no-normalize", "--map", "{d}/m.txt", "--words", "z"],
                 "constraint: cosine similarity undefined for zero query", id="zero-source-row"),
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

    def test_dests_and_defaults_are_pinned(self):
        """Each subcommand's namespace for a minimal argv, as config.json records it."""
        common = {"config": None, "out": None, "seed": 0}
        spaces = {"limit": None, "no_normalize": False, "src_emb": None}
        evals = {"k": 10, "min_train": 50, "s": 0.5}
        training = {
            "epochs": 50, "gamma": 0.4, "init": "identity", "lam": 0.0, "lr": 0.1,
            "lr_decay": 0.99, "negatives": 1, "ortho_weight": 0.0, "trainer": "maxmargin",
        }
        expected = {
            "neighborhood": {**spaces, "anchors": None, "thresholds": "0.9,0.8,0.7,0.6,0.5,0.4,0.3"},
            "train": {**spaces, **training, "anchor": None, "lexicon": None, "s": 0.5,
                      "tgt_emb": None},
            "experiment": {**spaces, **evals, **training, "anchors": None, "lexicon": None,
                           "split_method": "random", "test_size": 500, "tgt_emb": None},
            "translate": {**spaces, "atlas": None, "floor": 0.0, "input": None, "k": 10,
                          "map_path": None, "tgt_emb": None, "words": None},
            "synth": {"cluster_std": 0.3, "clusters": 8, "d": 50, "kind": "linear", "n": 2000,
                      "noise_sigma": 0.0, "variation_strength": 1.5},
            "diagnose": {**evals, **training, "anchors": None, "test_size": 100, "world": None},
        }
        for subcommand, flags in expected.items():
            args = vars(build_parser().parse_args([subcommand]))
            assert args == {"subcommand": subcommand, **common, **flags}, subcommand

    def test_out_naming_a_file_is_data_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["synth", "--n", "50", "--d", "4", "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and err.count("\n") == 1

    def test_input_naming_a_directory_is_data_error(self, tmp_path, capsys):
        vec = write_vec(tmp_path / "t.vec", [("a", [1, 0]), ("b", [0, 1])])
        save_map(LinearMap(np.eye(2)), tmp_path / "m.txt")
        code = run(
            [
                "translate", "--src-emb", str(vec), "--tgt-emb", str(vec),
                "--map", str(tmp_path / "m.txt"), "--input", str(tmp_path),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand, inputs", ABSENT_INPUTS)
    @pytest.mark.parametrize("anchors", [("a/b", "a_b"), ("c++", "c__")])
    def test_anchors_sharing_a_file_name_rejected_before_loading(
        self, subcommand, inputs, anchors, tmp_path, capsys
    ):
        """a/b and a_b would both write local_a_b.txt (or profile_a_b.tsv)."""
        argv = [subcommand, *inputs, "--anchors", ",".join(("x", *anchors)),
                "--out", str(tmp_path / "o")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: constraint: anchors")
        assert all(repr(anchor) in err for anchor in anchors)

    @pytest.mark.parametrize("subcommand, inputs", ABSENT_INPUTS)
    def test_repeated_anchor_rejected_before_loading(self, subcommand, inputs, tmp_path, capsys):
        argv = [subcommand, *inputs, "--anchors", "x,a,a", "--out", str(tmp_path / "o")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: constraint: anchor words must be unique: 'a' repeats\n"

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
        assert capsys.readouterr().err == "error: constraint: anchor word not in vocabulary: 'ghost'\n"


    def test_singular_least_squares_is_numeric_error(self, tmp_path, capsys):
        """LinAlgError is a ValueError; it must still be reported as numeric."""
        world = tmp_path / "w"
        assert run(["synth", "--n", "300", "--d", "40", "--clusters", "4",
                    "--cluster-std", "0.05", "--seed", "1", "--out", str(world)]) == 0
        capsys.readouterr()
        code = run(["train", "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
                    "--lexicon", str(world / "lexicon.txt"), "--anchor", "w00000", "--s", "0.99",
                    "--trainer", "lsq", "--lam", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: numeric: X X^T is singular; pass a positive lam to regularize\n")

    @pytest.mark.parametrize("argv, message", INPUT_CHECKS)
    def test_input_check_exits_one_with_its_message(self, argv, message, tmp_path, capsys):
        write_vec(tmp_path / "v.vec", [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("z", [0.0, 0.0])])
        (tmp_path / "x.vec").write_text("x 12\n", encoding="utf-8")
        (tmp_path / "neg.vec").write_text("-1 12\n", encoding="utf-8")
        (tmp_path / "lex.txt").write_text("a a\nb b\n", encoding="utf-8")
        (tmp_path / "none.txt").write_text("x y\n", encoding="utf-8")
        save_map(LinearMap(np.eye(2)), tmp_path / "m.txt")
        entry = AtlasEntry("a", np.array([1.0, 0.0]), LinearMap(np.eye(2)))
        save_atlas(MapAtlas((entry,)), tmp_path / "atlas")
        (tmp_path / "atlas" / "map_0000.txt").unlink()  # maps.npz stays
        d = str(tmp_path)
        assert run([arg.format(d=d) for arg in argv] + ["--out", f"{d}/o"]) == 1
        assert capsys.readouterr().err == f"error: {message.format(d=d)}\n"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_constraint_error(self, tmp_path, capsys, limit):
        vec = write_vec(tmp_path / "t.vec", [("a", [1, 0]), ("b", [0, 1])])
        code = run(["neighborhood", "--src-emb", str(vec), "--limit", limit,
                    "--anchors", "a", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: constraint: limit must be >= 1, got {limit}\n"

    @pytest.mark.parametrize("inputs", [
        ["experiment", "--src-emb", "{d}/missing.vec", "--tgt-emb", "{d}/missing.vec",
         "--lexicon", "{d}/missing.txt", "--anchors", "a"],
        ["diagnose", "--world", "{d}/nowhere"],
        ["train", "--src-emb", "{d}/missing.vec", "--tgt-emb", "{d}/missing.vec",
         "--lexicon", "{d}/missing.txt"],
    ], ids=["experiment", "diagnose", "train"])
    def test_trainer_flags_are_checked_before_any_input_loads(self, inputs, tmp_path, capsys):
        argv = [arg.format(d=tmp_path) for arg in inputs]
        assert run([*argv, "--epochs", "0", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: constraint: epochs must be >= 1, got 0\n"


class TestNeighborhoodCommand:
    def test_limit_keeps_the_head_of_the_file(self, tmp_path):
        vec = write_vec(tmp_path / "t.vec", [("a", [1.0, 0.0]), ("b", [0.8, 0.6]), ("c", [0.0, 1.0])])
        out = tmp_path / "out"
        assert run(["neighborhood", "--src-emb", str(vec), "--anchors", "a", "--limit", "2",
                    "--thresholds", "0.5,-1.0", "--out", str(out)]) == 0
        assert (out / "profile_a.tsv").read_text() == "s\tcount\n0.5\t2\n-1.0\t2\n"
        assert json.loads((out / "config.json").read_text())["args"]["limit"] == 2

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


def _assert_cosines_equal_saved_maps(out, src, anchors):
    """pairwise.tsv and report.jsonl hold the cosines and norms of the saved maps, bit for bit."""
    lines = (out / "pairwise.tsv").read_text().splitlines()
    assert lines[0] == "anchor_a\tanchor_b\tanchor_cosine\tmap_cosine"
    pairs = [line.split("\t") for line in lines[1:]]
    assert [(a, b) for a, b, *_ in pairs] == list(itertools.combinations(anchors, 2))
    maps = {a: load_map(out / "maps" / f"local_{a}.txt").matrix for a in anchors}
    for a, b, anchor_cos, map_cos in pairs:
        assert float(anchor_cos) == cosine_similarity(src.vector(a), src.vector(b))
        assert float(map_cos) == matrix_cosine(maps[a], maps[b])
    rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()[:-1]]
    assert [row["anchor_word"] for row in rows] == anchors
    for row in rows:
        assert row["map_cosine"] == matrix_cosine(maps[anchors[0]], maps[row["anchor_word"]])
        assert row["map_norm"] == frobenius_norm(maps[row["anchor_word"]])


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

    def test_diagnose_lsq_cosines_equal_saved_maps(self, world_dir, world_anchors, tmp_path):
        """Fitted lsq maps are C-ordered like loaded ones, so cosines agree bit for bit."""
        out = tmp_path / "diag"
        assert run([
            "diagnose", "--world", str(world_dir), "--trainer", "lsq", "--lam", "1e-6",
            "--test-size", "50", "--seed", "3", "--out", str(out),
        ]) == 0
        _assert_cosines_equal_saved_maps(out, load_world(world_dir).src_space, world_anchors)

    def test_experiment_after_diagnose_rewrites_pairwise(self, world_dir, world_anchors, tmp_path):
        out = tmp_path / "shared"
        code = run(
            [
                "diagnose", "--world", str(world_dir), "--anchors", ",".join(world_anchors[:3]),
                "--trainer", "lsq", "--lam", "1e-6", "--test-size", "50", "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert run(_experiment_args(world_dir, world_anchors[3:5], out)) == 0
        pairs = [line.split("\t")[:2] for line in (out / "pairwise.tsv").read_text().splitlines()[1:]]
        assert pairs == [list(world_anchors[3:5])]


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

    def test_frequency_split_method(self, world_dir, world_anchors, tmp_path):
        """--split-method frequency tests on the head of each neighborhood."""
        out = tmp_path / "freq"
        assert run([*_experiment_args(world_dir, world_anchors, out),
                    "--split-method", "frequency"]) == 0
        world = load_world(world_dir)
        report = run_experiment(
            world_anchors, 0.5, load_embeddings(world_dir / "src.vec"),
            load_embeddings(world_dir / "tgt.vec"), world.lexicon, TrainConfig(seed=3),
            test_size=50, seed=3, trainer="lsq", lam=1e-6, split_method="frequency",
        )
        assert (out / "report.tsv").read_text() == report_to_tsv(report)
        random = tmp_path / "random"
        assert run(_experiment_args(world_dir, world_anchors, random)) == 0
        assert (random / "report.tsv").read_text() != report_to_tsv(report)

    def test_pairwise_tsv_matches_anchor_vectors_and_saved_maps(
        self, world_dir, world_anchors, tmp_path
    ):
        out = tmp_path / "exp"
        anchors = world_anchors[:3]
        assert run(_experiment_args(world_dir, anchors, out)) == 0
        _assert_cosines_equal_saved_maps(out, load_embeddings(world_dir / "src.vec"), anchors)

    def test_rerun_into_one_out_leaves_only_its_own_maps(self, world_dir, world_anchors, tmp_path):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert run(_experiment_args(world_dir, world_anchors, shared)) == 0
        assert run(_experiment_args(world_dir, world_anchors[:2], shared)) == 0
        assert run(_experiment_args(world_dir, world_anchors[:2], fresh)) == 0
        maps = {p.name: p.read_bytes() for p in (shared / "maps").iterdir()}
        assert maps == {p.name: p.read_bytes() for p in (fresh / "maps").iterdir()}
        assert sorted(maps) == ["global.txt", *sorted(f"local_{a}.txt" for a in world_anchors[:2])]

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

    @pytest.mark.parametrize("subcommand, override, table, column, expected", [
        ("experiment", ["--test-size", "10"], "report.tsv", "test_size", "10"),
        ("experiment", ["--test", "10"], "report.tsv", "test_size", "10"),  # an abbreviation
        ("translate", ["--map", "{local}"], "translations.tsv", "map", "{anchor}"),  # dest map_path
    ], ids=["full-name", "abbreviation", "dest-differs"])
    def test_flags_on_the_command_line_beat_the_snapshot(
        self, snapshots, world_anchors, tmp_path, subcommand, override, table, column, expected
    ):
        fill = {"local": str(snapshots / "local" / "map.txt"), "anchor": world_anchors[0]}
        config = snapshots / subcommand / "config.json"
        override = [arg.format(**fill) for arg in override]
        out = tmp_path / "rerun"
        assert run([subcommand, "--config", str(config), *override, "--out", str(out)]) == 0
        rows = [line.split("\t") for line in (out / table).read_text().splitlines()
                if not line.startswith("#")]
        assert {row[rows[0].index(column)] for row in rows[1:]} == {expected.format(**fill)}

    def test_snapshot_subcommand_mismatch_rejected(self, world_dir, world_anchors, tmp_path):
        out = tmp_path / "exp2"
        assert run(_experiment_args(world_dir, world_anchors, out)) == 0
        code = run(["synth", "--config", str(out / "config.json"), "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("snapshot, reason", [
        ("[]", 'expected an object with an "args" object'),
        ('{"subcommand": "synth", "args": [1]}', 'expected an object with an "args" object'),
        ('{"subcommand": "synth", "args": {"n": [1], "d": 6}}', "n=[1] is no value of --n"),
        ('{"subcommand": "synth", "args": {"n": true}}', "n=True is no value of --n"),
        ('{"subcommand": "synth", "args": {"kind": "cubic"}}', "kind='cubic' is no value of --kind"),
        ('{"subcommand": "synth", "args": {"cluster_std": "0.3"}}',
         "cluster_std='0.3' is no value of --cluster-std"),
        ('{"subcommand": "synth", "args": {"seed": 1.5}}', "seed=1.5 is no value of --seed"),
    ])
    def test_malformed_snapshot_is_named(self, tmp_path, capsys, snapshot, reason):
        """The first three used to exit with an AttributeError or TypeError traceback."""
        config = tmp_path / "config.json"
        config.write_text(snapshot, encoding="utf-8")
        assert run(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: constraint: bad config snapshot {config}: {reason}\n"
        assert not (tmp_path / "o").exists()

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

    def test_normalize_overrides_a_snapshots_no_normalize(self, tmp_path):
        """z is a zero row: a raw load keeps it at cosine 0, a normalizing load drops it."""
        vec = write_vec(tmp_path / "t.vec", [("a", [1, 0]), ("b", [0, 1]), ("z", [0, 0])])
        raw, rerun = tmp_path / "raw", tmp_path / "rerun"
        assert run([
            "neighborhood", "--src-emb", str(vec), "--anchors", "a", "--thresholds", "0.5,-1.0",
            "--no-normalize", "--out", str(raw),
        ]) == 0
        assert run(["neighborhood", "--config", str(raw / "config.json"), "--normalize",
                    "--out", str(rerun)]) == 0
        assert (raw / "profile_a.tsv").read_text() == "s\tcount\n0.5\t1\n-1.0\t3\n"
        assert (rerun / "profile_a.tsv").read_text() == "s\tcount\n0.5\t1\n-1.0\t2\n"
        assert json.loads((rerun / "config.json").read_text())["args"]["no_normalize"] is False


class TestTrainAndTranslate:
    def test_train_flags_reach_the_map_and_rerun_byte_identical(self, world_dir, tmp_path):
        """Every train flag off its default: the map records each, and --config repeats it."""
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run([
            "train", "--src-emb", str(world_dir / "src.vec"), "--tgt-emb", str(world_dir / "tgt.vec"),
            "--lexicon", str(world_dir / "lexicon.txt"), "--trainer", "maxmargin",
            "--gamma", "0.3", "--negatives", "2", "--epochs", "3", "--lr", "0.05",
            "--lr-decay", "0.9", "--init", "scaled-random", "--ortho-weight", "0.01",
            "--lam", "0.5", "--seed", "4", "--out", str(out1),
        ]) == 0
        meta = [line for line in (out1 / "map.txt").read_text().splitlines() if line.startswith("#")]
        assert meta[:3] == ["# trainer=max_margin", "# anchor=global", "# train_size=1500"]
        assert meta[3].startswith("# final_loss=")
        assert meta[4:] == [
            "# epochs=3", "# gamma=0.3", "# init='scaled-random'", "# learning_rate=0.05",
            "# lr_decay=0.9", "# negatives=2", "# ortho_weight=0.01", "# seed=4",
        ]
        assert json.loads((out1 / "config.json").read_text())["args"]["lam"] == 0.5
        assert run(["train", "--config", str(out1 / "config.json"), "--out", str(out2)]) == 0
        assert (out2 / "map.txt").read_bytes() == (out1 / "map.txt").read_bytes()

    def test_train_global_map(self, world_dir, tmp_path):
        out = tmp_path / "train"
        assert run(_train_args(world_dir, out)) == 0
        fitted = load_map(out / "map.txt")
        assert fitted.trainer == "least_squares"
        assert fitted.matrix.shape == (16, 16)

    def test_translate_with_map(self, world_dir, tmp_path):
        train_out = tmp_path / "train"
        assert run(_train_args(world_dir, train_out)) == 0
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

    def test_translate_with_anchor_map_labels_rows_with_its_anchor(
        self, world_dir, world_anchors, tmp_path
    ):
        train_out, out = tmp_path / "train", tmp_path / "tr"
        anchor = world_anchors[0]
        assert run([*_train_args(world_dir, train_out), "--anchor", anchor]) == 0
        code = run(
            [
                "translate",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--map", str(train_out / "map.txt"),
                "--words", "w00001,w00002",
                "--k", "2", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [line.split("\t") for line in (out / "translations.tsv").read_text().splitlines()[1:]]
        assert len(rows) == 4 and {row[1] for row in rows} == {anchor}

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

    def test_unknown_word_through_atlas_is_constraint_error(self, world_dir, tmp_path, capsys):
        world = load_world(world_dir)
        anchor = default_anchor_words(world)[0]
        entries = (AtlasEntry(anchor, world.src_space.vector(anchor), LinearMap(world.ground_truth.matrix)),)
        save_atlas(MapAtlas(entries), tmp_path / "atlas")
        code = run(
            [
                "translate",
                "--src-emb", str(world_dir / "src.vec"),
                "--tgt-emb", str(world_dir / "tgt.vec"),
                "--atlas", str(tmp_path / "atlas"),
                "--words", "ghost", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: constraint: word not in vocabulary: 'ghost'\n"

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

    @pytest.mark.parametrize("maps", [["--atlas", "absent_atlas"], ["--map", "absent.txt"]])
    def test_k_below_one_fails_before_loading_maps_or_vectors(self, maps, tmp_path, capsys):
        code = run(
            [
                "translate",
                "--src-emb", str(tmp_path / "absent_src.vec"),
                "--tgt-emb", str(tmp_path / "absent_tgt.vec"),
                maps[0], str(tmp_path / maps[1]),
                "--words", "w00001", "--k", "0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: constraint: k must be >= 1, got 0\n"

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c",
                                           "\x1d", "\x1e", "\xa0", "\u3000"])
    def test_input_splits_words_only_at_line_endings(self, separator, tmp_path):
        """A .vec token may hold Unicode whitespace, at its ends too; --input keeps it in
        the word, splits at \\n, \\r\\n and \\r, strips ASCII spaces and skips blank lines."""
        token, lead, trail = f"a{separator}b", f"{separator}a", f"a{separator}"
        entries = [(token, [1.0, 0.0]), ("c", [0.0, 1.0]), ("d", [0.6, 0.8]),
                   (lead, [0.8, 0.6]), (trail, [-0.6, 0.8])]
        write_vec(tmp_path / "e.vec", entries)
        assert load_embeddings(tmp_path / "e.vec").words == (token, "c", "d", lead, trail)
        save_map(LinearMap(np.eye(2)), tmp_path / "map.txt")
        (tmp_path / "words.txt").write_bytes(f"{token}\r\n\r\n d \rc\n {lead}\n{trail}  \n".encode("utf-8"))
        vec = str(tmp_path / "e.vec")
        argv = ["translate", "--src-emb", vec, "--tgt-emb", vec, "--map", str(tmp_path / "map.txt"),
                "--input", str(tmp_path / "words.txt"), "--k", "1", "--out", str(tmp_path / "o")]
        assert run(argv) == 0
        rows = (tmp_path / "o" / "translations.tsv").read_text(encoding="utf-8").split("\n")[1:-1]
        assert [row.split("\t")[:4] for row in rows] == [
            [w, "global", "1", w] for w in (token, "d", "c", lead, trail)]

    def test_translate_against_an_empty_target_writes_only_the_header(self, tmp_path):
        src = write_vec(tmp_path / "src.vec", [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        (tmp_path / "tgt.vec").write_text("0 2\n", encoding="utf-8")
        save_map(LinearMap(np.eye(2)), tmp_path / "map.txt")
        code = run(["translate", "--src-emb", str(src), "--tgt-emb", str(tmp_path / "tgt.vec"),
                    "--map", str(tmp_path / "map.txt"), "--words", "a,b", "--k", "5",
                    "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "translations.tsv").read_text() == "source\tmap\trank\ttarget\tscore\n"

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
