"""Translation serving: single-map retrieval and a piecewise atlas.

The atlas keeps one map per anchor word and dispatches each query to the
map whose anchor is nearest by cosine. Nearest-anchor dispatch covers the
whole space even where neighborhoods overlap or leave gaps; an optional
global fallback map handles queries far from every anchor.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSpace, top_k_rows
from .mapper import LinearMap, load_map, save_map


@dataclass(frozen=True)
class AtlasEntry:
    anchor_word: str
    anchor_vector: np.ndarray
    linear_map: LinearMap


@dataclass(frozen=True)
class MapAtlas:
    """Anchored local maps plus an optional global fallback.

    Construction stacks the anchor vectors once into ``anchors``, a
    read-only space of the anchor words, and rejects duplicate words, zero
    or non-finite vectors, and vectors whose dimension is not the maps'
    ``d_src``. Equal anchor vectors score bit-equal, so dispatch picks the
    earliest of them.
    """

    entries: tuple[AtlasEntry, ...]
    fallback: LinearMap | None = None
    anchors: EmbeddingSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = {e.linear_map.matrix.shape for e in self.entries}
        if self.fallback is not None:
            shapes.add(self.fallback.matrix.shape)
        if len(shapes) > 1:
            raise ValueError(f"atlas maps disagree on dimensions: {sorted(shapes)}")
        words = [e.anchor_word for e in self.entries]
        vectors = np.vstack([e.anchor_vector for e in self.entries]) if words else np.empty((0, 0))
        # the maps, fallback included, share one shape, so one d_src
        d_src = self.entries[0].linear_map.d_src if words else None
        if words and vectors.shape[1] != d_src:
            raise ValueError(
                f"atlas anchor vectors have dimension {vectors.shape[1]}, "
                f"but the maps' d_src is {d_src}"
            )
        anchors = EmbeddingSpace(words, vectors)
        # a zero row has an inf norm, a non-finite row an inf or NaN one
        for word, norm in zip(words, anchors.row_norms):
            if not np.isfinite(norm):
                raise ValueError(f"atlas anchor {word!r} has a zero or non-finite vector")
        object.__setattr__(self, "anchors", anchors)

    def __len__(self) -> int:
        return len(self.entries)


def dispatch(
    atlas: MapAtlas, src_vectors: Sequence[np.ndarray], floor: float = 0.0
) -> list[tuple[LinearMap, str]]:
    """Per query, the map whose anchor is nearest by cosine, and its label.

    All queries are scored against the stacked anchors in one top_k_rows
    call. Ties keep the earliest atlas entry. The fallback map, labelled
    with its anchor, is used when the atlas is empty or the best anchor
    cosine is below the floor; without a fallback the best anchor is used
    regardless, so dispatch always succeeds on a non-empty atlas.
    """
    if not atlas.entries:
        if atlas.fallback is None:
            raise ValueError("empty atlas with no fallback map")
        return [(atlas.fallback, atlas.fallback.anchor)] * len(src_vectors)
    best, scores = top_k_rows(atlas.anchors, src_vectors, 1)
    chosen = []
    for i, score in zip(best[:, 0], scores[:, 0]):
        if atlas.fallback is None or not score < floor:
            chosen.append((atlas.entries[i].linear_map, atlas.entries[i].anchor_word))
        else:
            chosen.append((atlas.fallback, atlas.fallback.anchor))
    return chosen


def select_entry(
    atlas: MapAtlas, src_vector: np.ndarray, floor: float = 0.0
) -> tuple[LinearMap, str]:
    """The map whose anchor is nearest the query, and its label: dispatch of one query."""
    return dispatch(atlas, [src_vector], floor)[0]


def translate_words(
    atlas: MapAtlas,
    src_words: Sequence[str],
    src_space: EmbeddingSpace,
    tgt_space: EmbeddingSpace,
    k: int,
    floor: float = 0.0,
) -> list[tuple[list[tuple[str, float]], str]]:
    """Per word, its top-k through the nearest-anchor map and the anchor used.

    Every word is dispatched at once; each mapped query is one gemv of its
    map, and the mapped queries are ranked in top_k_rows blocks.
    """
    vectors = [src_space.vector(w) for w in src_words]
    chosen = dispatch(atlas, vectors, floor)
    tops, scores = top_k_rows(tgt_space, (m.apply(v) for v, (m, _) in zip(vectors, chosen)), k)
    return [
        ([(tgt_space.words[i], float(s)) for i, s in zip(top, row)], label)
        for top, row, (_, label) in zip(tops, scores, chosen)
    ]


def piecewise_translate(
    atlas: MapAtlas,
    src_word: str,
    src_space: EmbeddingSpace,
    tgt_space: EmbeddingSpace,
    k: int,
    floor: float = 0.0,
) -> tuple[list[tuple[str, float]], str]:
    """Translate through the nearest-anchor map; returns (ranking, anchor used)."""
    return translate_words(atlas, [src_word], src_space, tgt_space, k, floor)[0]


def save_atlas(atlas: MapAtlas, directory: str | Path) -> None:
    """Persist an atlas as one map file per anchor plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"entries": [], "fallback": None}
    for i, entry in enumerate(atlas.entries):
        filename = f"map_{i:04d}.txt"
        save_map(entry.linear_map, directory / filename)
        manifest["entries"].append(
            {
                "anchor": entry.anchor_word,
                "file": filename,
                "vector": [float(v) for v in entry.anchor_vector],
            }
        )
    if atlas.fallback is not None:
        save_map(atlas.fallback, directory / "map_global.txt")
        manifest["fallback"] = "map_global.txt"
    with (directory / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_atlas(directory: str | Path) -> MapAtlas:
    """Load an atlas saved by save_atlas.

    A manifest that is not JSON, lacks a key or holds a value of the wrong
    type is rejected, naming the manifest, before any map file loads.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"atlas manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        items = [(item["anchor"], item["file"], np.array(item["vector"], dtype=np.float64))
                 for item in manifest["entries"]]
        fallback = manifest.get("fallback")
        names = [fallback or "", *(text for anchor, file, _ in items for text in (anchor, file))]
        if not all(isinstance(name, str) for name in names):
            raise TypeError("anchor, file and fallback must be strings")
    except KeyError as exc:
        raise ValueError(f"bad atlas manifest in {manifest_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad atlas manifest in {manifest_path}: {exc}") from None
    entries = tuple(
        AtlasEntry(anchor_word=anchor, anchor_vector=vector, linear_map=load_map(directory / file))
        for anchor, file, vector in items
    )
    return MapAtlas(entries, fallback=load_map(directory / fallback) if fallback else None)
