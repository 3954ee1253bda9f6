"""Outputs that do not depend on the BLAS thread count.

A d=300 world is trained with ``experiment --trainer maxmargin``, and
translated through a saved atlas with ``translate --atlas``, in two
subprocesses each: one with every BLAS library limited to one thread and
one to two. The report files, saved maps and translations must be equal
byte for byte. At d=300 the matrix products are large enough for a
threaded BLAS to split them, which d=8 golden runs never do; every ranking
selects its candidates with a GEMM, so the translations guard the margin
that keeps those rankings exact. A least-squares run is not checked: its
normal equations still change in their last bits with the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexmap
from lexmap.cli import run
from lexmap.lexicon import build_dataset
from lexmap.mapper import train_least_squares
from lexmap.neighborhoods import build_neighborhood
from lexmap.synth import default_anchor_words, load_world
from lexmap.translate import AtlasEntry, MapAtlas, save_atlas

SRC = str(Path(lexmap.__file__).resolve().parents[1])
COMPARED = ("report.tsv", "report.jsonl", "pairwise.tsv", "scatter.tsv")

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads"
)


def _lexmap(args: list[str], threads: int) -> None:
    env = {**os.environ, "PYTHONPATH": SRC}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    subprocess.run([sys.executable, "-m", "lexmap.cli", *args],
                   check=True, capture_output=True, env=env, cwd=SRC)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    world = tmp_path_factory.mktemp("blas") / "world"
    assert run([
        "synth", "--kind", "nonlinear", "--n", "800", "--d", "300", "--clusters", "4",
        "--cluster-std", "0.03", "--seed", "3", "--out", str(world),
    ]) == 0
    return world


def test_maxmargin_outputs_equal_under_one_and_two_blas_threads(world, tmp_path):
    anchors = default_anchor_words(load_world(world))
    for threads in (1, 2):
        _lexmap([
            "experiment", "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
            "--lexicon", str(world / "lexicon.txt"), "--anchors", ",".join(anchors),
            "--trainer", "maxmargin", "--epochs", "3", "--test-size", "40", "--seed", "3",
            "--out", str(tmp_path / f"threads{threads}"),
        ], threads)

    one, two = tmp_path / "threads1", tmp_path / "threads2"
    maps = sorted(path.name for path in (one / "maps").glob("*.txt"))
    assert len(maps) == len(anchors) + 1  # every local map and the global one
    assert maps == sorted(path.name for path in (two / "maps").glob("*.txt"))
    for name in (*COMPARED, *(f"maps/{m}" for m in maps)):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_atlas_translations_equal_under_one_and_two_blas_threads(world, tmp_path):
    """Every word of the world, dispatched over four lsq maps and ranked top-10."""
    loaded = load_world(world)
    entries = []
    for anchor in default_anchor_words(loaded):
        nb = build_neighborhood(loaded.src_space, anchor, 0.5)
        ds = build_dataset(nb, loaded.lexicon, loaded.src_space, loaded.tgt_space)
        fitted = train_least_squares(ds, loaded.tgt_space, lam=1e-3, anchor=anchor)
        entries.append(AtlasEntry(anchor, loaded.src_space.vector(anchor), fitted))
    save_atlas(MapAtlas(tuple(entries)), tmp_path / "atlas")
    (tmp_path / "queries.txt").write_text("\n".join(loaded.src_space.words) + "\n", encoding="utf-8")
    for threads in (1, 2):
        _lexmap([
            "translate", "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
            "--atlas", str(tmp_path / "atlas"), "--input", str(tmp_path / "queries.txt"),
            "--k", "10", "--out", str(tmp_path / f"threads{threads}"),
        ], threads)

    one = (tmp_path / "threads1" / "translations.tsv").read_bytes()
    assert len(one.splitlines()) == 1 + 10 * len(loaded.src_space)
    assert one == (tmp_path / "threads2" / "translations.tsv").read_bytes()
