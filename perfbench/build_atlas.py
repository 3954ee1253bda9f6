"""Build the translate_atlas inputs with lexmap: a world and an atlas.

Generates a rotating world, exports it as .vec and lexicon files, trains one
least-squares map per cluster anchor (the member nearest each cluster
center) on the anchor's cosine neighborhood, and saves the maps with
``save_atlas``. This is what a researcher runs before serving translations
with ``lexmap translate --atlas``.

    python3 perfbench/build_atlas.py --out DIR --n 3000 --d 300 --clusters 24 \\
        --cluster-std 0.03 --s 0.5 --lam 0.001 --seed 0

Writes DIR/world (src.vec, tgt.vec, lexicon.txt, world.json) and DIR/atlas.
Needs lexmap on the import path.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from lexmap import lexicon, mapper, neighborhoods, synth, translate


def build(out: Path, n: int, d: int, clusters: int, cluster_std: float,
          s: float, lam: float, seed: int) -> None:
    world = synth.generate_nonlinear_world(
        n, d, seed=seed, n_clusters=clusters, cluster_std=cluster_std
    )
    synth.export_world(world, out / "world")
    entries = []
    for anchor in synth.default_anchor_words(world):
        nb = neighborhoods.build_neighborhood(world.src_space, anchor, s)
        ds = lexicon.build_dataset(nb, world.lexicon, world.src_space, world.tgt_space)
        fitted = mapper.train_least_squares(ds, world.tgt_space, lam=lam, anchor=anchor)
        entries.append(translate.AtlasEntry(anchor, world.src_space.vector(anchor), fitted))
    translate.save_atlas(translate.MapAtlas(tuple(entries)), out / "atlas")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--clusters", type=int, required=True)
    parser.add_argument("--cluster-std", type=float, required=True)
    parser.add_argument("--s", type=float, required=True)
    parser.add_argument("--lam", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    a = parser.parse_args(argv)
    build(Path(a.out), a.n, a.d, a.clusters, a.cluster_std, a.s, a.lam, a.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
