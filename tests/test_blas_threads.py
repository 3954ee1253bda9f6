"""Max-margin outputs do not depend on the BLAS thread count.

A d=300 world is trained with ``experiment --trainer maxmargin`` in two
subprocesses, one with every BLAS library limited to one thread and one to
two, and the report files and saved maps must be equal byte for byte. At
d=300 the matrix products are large enough for a threaded BLAS to split
them, which d=8 golden runs never do. A least-squares run is not checked:
its normal equations still change in their last bits with the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexmap
from lexmap.cli import run
from lexmap.synth import default_anchor_words, load_world

SRC = str(Path(lexmap.__file__).resolve().parents[1])
COMPARED = ("report.tsv", "report.jsonl", "pairwise.tsv", "scatter.tsv")


def _experiment(world: Path, anchors: list[str], out: Path, threads: int) -> None:
    env = {**os.environ, "PYTHONPATH": SRC}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    subprocess.run(
        [sys.executable, "-m", "lexmap.cli", "experiment",
         "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
         "--lexicon", str(world / "lexicon.txt"), "--anchors", ",".join(anchors),
         "--trainer", "maxmargin", "--epochs", "3", "--test-size", "40", "--seed", "3",
         "--out", str(out)],
        check=True, capture_output=True, env=env, cwd=SRC,
    )


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
def test_maxmargin_outputs_equal_under_one_and_two_blas_threads(tmp_path):
    world = tmp_path / "world"
    assert run([
        "synth", "--kind", "nonlinear", "--n", "800", "--d", "300", "--clusters", "4",
        "--cluster-std", "0.03", "--seed", "3", "--out", str(world),
    ]) == 0
    anchors = default_anchor_words(load_world(world))
    for threads in (1, 2):
        _experiment(world, anchors, tmp_path / f"threads{threads}", threads)

    one, two = tmp_path / "threads1", tmp_path / "threads2"
    maps = sorted(path.name for path in (one / "maps").glob("*.txt"))
    assert len(maps) == len(anchors) + 1  # every local map and the global one
    assert maps == sorted(path.name for path in (two / "maps").glob("*.txt"))
    for name in (*COMPARED, *(f"maps/{m}" for m in maps)):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
