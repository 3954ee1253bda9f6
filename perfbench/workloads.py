"""The benchmark's workloads: how each makes its inputs, runs lexmap, is checked.

Every workload works at d=300, the width of the paper's fastText spaces, on
a noiseless rotating world whose clusters are tight enough (cluster_std
0.03) that a neighborhood at s=0.5 holds about one cluster. A workload
object lives for one benchmark run:

1. ``setup(inputs, seed)`` names the command that builds its inputs;
2. ``prepare(inputs, seed)`` reads them, picks anchors or queries from the
   seed, checks them, and returns the problems found;
3. ``run_args(inputs, out)`` is the one ``lexmap`` command that is timed;
4. ``check(inputs, out)`` compares that command's outputs with numpy and
   returns (failed operations, problems).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

import checks


@dataclass(frozen=True)
class Synth:
    """``lexmap synth`` arguments of a rotating world."""

    n: int
    clusters: int = 8
    d: int = 300
    cluster_std: ClassVar[float] = 0.03

    def args(self, out: Path, seed: int) -> list[str]:
        return [
            "synth", "--kind", "nonlinear", "--n", str(self.n), "--d", str(self.d),
            "--clusters", str(self.clusters), "--cluster-std", repr(self.cluster_std),
            "--seed", str(seed), "--out", str(out),
        ]


class _Report:
    """Shared parts of the two workloads that write an experiment report."""

    name: ClassVar[str]
    world: Synth
    s: ClassVar[float] = 0.5
    test_size: int

    def setup(self, inputs: Path, seed: int) -> tuple[str, list[str]]:
        return "cli", self.world.args(inputs, seed)

    def _load(self, inputs: Path) -> list[str]:
        self._desc = json.loads((inputs / "world.json").read_text(encoding="utf-8"))
        self._words, self._src = checks.read_vec(inputs / "src.vec")
        self._lexicon = checks.read_lexicon(inputs / "lexicon.txt")
        with open(inputs / "tgt.vec", "r", encoding="utf-8") as fh:
            fh.readline()
            self._tgt_words = {line.split(" ", 1)[0] for line in fh}
        self.anchors = checks.cluster_anchors(self._desc, self._words, self._src)
        return checks.world_problems(inputs, self._words, self._src)

    @property
    def operations(self) -> int:
        """One operation per anchor: a report row with its map."""
        return len(self.anchors)

    def check(self, inputs: Path, out: Path) -> tuple[int, list[str]]:
        problems = checks.check_report(
            out, self._words, self._src, self._lexicon, self._tgt_words,
            self.anchors, self.s, self.test_size,
        )
        failed = self.operations - len(checks.read_report(out))
        return failed, problems


@dataclass
class ExperimentMaxMargin(_Report):
    """``lexmap experiment`` with the max-margin trainer on unit spaces.

    Per-instance SGD is the largest layer; retrieval is cheap because the
    CLI normalizes both spaces at load.
    """

    name: ClassVar[str] = "experiment_maxmargin"
    world: Synth = Synth(n=2000)
    n_anchors: int = 4
    test_size: int = 40
    epochs: int = 8

    def prepare(self, inputs: Path, seed: int) -> list[str]:
        problems = self._load(inputs)
        picks = np.round(np.linspace(0, len(self.anchors) - 1, self.n_anchors)).astype(int)
        self.anchors = [self.anchors[i] for i in picks]
        self._seed = seed
        return problems

    def run_args(self, inputs: Path, out: Path) -> list[str]:
        return [
            "experiment", "--src-emb", str(inputs / "src.vec"), "--tgt-emb", str(inputs / "tgt.vec"),
            "--lexicon", str(inputs / "lexicon.txt"), "--anchors", ",".join(self.anchors),
            "--s", repr(self.s), "--test-size", str(self.test_size), "--trainer", "maxmargin",
            "--epochs", str(self.epochs), "--seed", str(self._seed), "--out", str(out),
        ]


@dataclass
class DiagnoseLsq(_Report):
    """``lexmap diagnose`` with the closed-form trainer on raw targets.

    ``load_world`` keeps targets raw, so precision@k recomputes every target
    norm per query; retrieval and .vec loading are the largest layers, and
    training is small. Anchors are the CLI default, one per cluster.
    """

    name: ClassVar[str] = "diagnose_lsq"
    world: Synth = Synth(n=3000, clusters=6)
    test_size: int = 50
    lam: ClassVar[float] = 1e-6
    # properties of the method on a noiseless rotating world (checks.check_locality)
    min_local_acc: ClassVar[float] = 95.0
    max_rank_corr: ClassVar[float] = -0.8

    def prepare(self, inputs: Path, seed: int) -> list[str]:
        self._seed = seed
        return self._load(inputs)

    def run_args(self, inputs: Path, out: Path) -> list[str]:
        return [
            "diagnose", "--world", str(inputs), "--trainer", "lsq", "--lam", repr(self.lam),
            "--s", repr(self.s), "--test-size", str(self.test_size),
            "--seed", str(self._seed), "--out", str(out),
        ]

    def check(self, inputs: Path, out: Path) -> tuple[int, list[str]]:
        failed, problems = super().check(inputs, out)
        problems += checks.check_locality(
            out, self._desc, self._words, self._src, self.min_local_acc, self.max_rank_corr
        )
        return failed, problems


@dataclass
class TranslateAtlas:
    """``lexmap translate --atlas`` of seeded query words (every source word by default).

    Set-up builds the world and an atlas of one least-squares map per
    cluster (build_atlas.py); the run loads both spaces and the atlas, then
    dispatches and ranks every query. Nothing is trained during the run.
    """

    name: ClassVar[str] = "translate_atlas"
    world: Synth = Synth(n=1600, clusters=32)
    queries: int = 1600
    k: int = 10
    s: ClassVar[float] = 0.5
    lam: ClassVar[float] = 1e-3

    def setup(self, inputs: Path, seed: int) -> tuple[str, list[str]]:
        w = self.world
        return "atlas", [
            "--out", str(inputs), "--n", str(w.n), "--d", str(w.d), "--clusters", str(w.clusters),
            "--cluster-std", repr(w.cluster_std), "--s", repr(self.s), "--lam", repr(self.lam),
            "--seed", str(seed),
        ]

    def prepare(self, inputs: Path, seed: int) -> list[str]:
        words, src = checks.read_vec(inputs / "world" / "src.vec")
        rng = np.random.default_rng(seed)
        self._queries = [words[i] for i in rng.choice(len(words), size=self.queries, replace=False)]
        (inputs / "queries.txt").write_text("\n".join(self._queries) + "\n", encoding="utf-8")
        problems = checks.world_problems(inputs / "world", words, src)
        return problems + checks.check_atlas(inputs / "atlas", inputs / "world", self.s, self.lam)

    def run_args(self, inputs: Path, out: Path) -> list[str]:
        world = inputs / "world"
        return [
            "translate", "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
            "--atlas", str(inputs / "atlas"), "--input", str(inputs / "queries.txt"),
            "--k", str(self.k), "--out", str(out),
        ]

    @property
    def operations(self) -> int:
        """One operation per query word: its dispatch and top-k ranking."""
        return self.queries

    def check(self, inputs: Path, out: Path) -> tuple[int, list[str]]:
        problems = checks.check_translations(
            out, inputs / "atlas", inputs / "world", self._queries, self.k
        )
        lines = (out / "translations.tsv").read_text(encoding="utf-8").splitlines()[1:]
        answered = {line.split("\t", 1)[0] for line in lines}
        return sum(q not in answered for q in self._queries), problems


WORKLOADS = {w.name: w for w in (ExperimentMaxMargin, DiagnoseLsq, TranslateAtlas)}


def sgd_steps(out: Path) -> int:
    """Max-margin SGD steps of a run, from its saved maps: train size x epochs."""
    steps = 0
    for path in sorted((out / "maps").glob("*.txt")) if (out / "maps").is_dir() else []:
        meta = checks.read_map_meta(path)
        if meta.get("trainer") == "max_margin":
            steps += int(meta["train_size"]) * int(meta["epochs"])
    return steps
