"""Outputs that do not depend on the BLAS thread count.

A d=300 world is trained with ``experiment --trainer maxmargin``, and
translated through a saved atlas with ``translate --atlas``, in two
subprocesses each: one with every BLAS library limited to one thread and
one to two. The report files, saved maps and translations must be equal
byte for byte. At d=300 the matrix products are large enough for a
threaded BLAS to split them, which d=8 golden runs never do; every ranking
selects its candidates with a GEMM, so the translations guard the margin
that keeps those rankings exact, and ``top_k_rows`` is checked on its own
on spaces full of near ties. A least-squares run is expected to differ,
on the SkylakeX core it was seen on: its normal equations still change in
their last bits with the thread count (ROADMAP item 1).
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
# top_k_rows over a raw and a normalized space of 5000 rows, two row tiles at the
# default tile, whose groups of 8 rows are a row and its copies nudged by float32
# and float64 ulps; 400 queries near the groups, in blocks of 87 at k=10. Prints
# a digest of each ranking and whether it equals the per-query one.
RANKING = """
import hashlib
import numpy as np
from lexmap.embeddings import EmbeddingSpace, cosines_to_all, top_k_indices, top_k_rows
rng = np.random.default_rng(41)
vectors = rng.standard_normal((5000, 300))
for normalized in (False, True):
    if normalized:
        vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[1::8] = vectors[::8] * (1.0 + rng.integers(-4, 5, size=(625, 300)) * 2.0**-24)
    vectors[2::8] = np.nextafter(vectors[::8], np.inf)
    vectors[3::8] = vectors[::8]
    space = EmbeddingSpace([f"t{i}" for i in range(5000)], vectors, normalized)
    queries = vectors[rng.integers(0, 625, 300) * 8] + 0.3 * rng.standard_normal((300, 300))
    queries = list(queries) + list(vectors[:800:8] * 3.0)
    indices, scores = top_k_rows(space, queries, 10)
    cos = [cosines_to_all(space, query) for query in queries]
    top = [top_k_indices(c, 10) for c in cos]
    alone = np.array(top).tobytes() + np.array([c[t] for c, t in zip(cos, top)]).tobytes()
    print(hashlib.sha256(indices.tobytes() + scores.tobytes()).hexdigest(),
          indices.tobytes() + scores.tobytes() == alone)
"""

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads"
)


def _python(args: list[str], threads: int) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, *args], check=True, capture_output=True,
                          env=env, cwd=SRC, text=True).stdout


def _lexmap(args: list[str], threads: int) -> None:
    _python(["-m", "lexmap.cli", *args], threads)


def test_top_k_rows_equal_under_one_and_two_blas_threads():
    """The float32 candidate GEMM may sum in another order on two threads; the
    margin keeps every index and score bit."""
    one, two = (_python(["-c", RANKING], threads).split() for threads in (1, 2))
    assert one[1::2] == ["True", "True"] and one == two


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


@pytest.mark.xfail(strict=True, reason="the lsq normal equations depend on the BLAS thread count")
def test_lsq_outputs_equal_under_one_and_two_blas_threads(world, tmp_path, blas_core):
    if not blas_core.startswith("SkylakeX"):
        pytest.skip(f"the lsq outputs were seen to differ on the SkylakeX core, not {blas_core}")
    for threads in (1, 2):
        _lexmap(["diagnose", "--world", str(world), "--trainer", "lsq", "--lam", "1e-6",
                 "--test-size", "40", "--seed", "3", "--out", str(tmp_path / f"threads{threads}")],
                threads)

    one, two = tmp_path / "threads1", tmp_path / "threads2"
    maps = sorted(path.name for path in (one / "maps").glob("*.txt"))
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
