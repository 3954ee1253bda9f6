"""Translation serving: single-map retrieval and a piecewise atlas.

The atlas keeps one map per anchor word and dispatches each query to the
map whose anchor is nearest by cosine. Nearest-anchor dispatch covers the
whole space even where neighborhoods overlap or leave gaps; an optional
global fallback map handles queries far from every anchor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSpace, top_k_rows
from .formats import read_atlas, write_atlas
from .mapper import LinearMap


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

    All queries are scored against the stacked anchors in one top_k_rows call. Ties
    keep the earliest atlas entry. The fallback map, labelled with its anchor, is used
    when the atlas is empty or the best anchor cosine is below the floor; without a
    fallback the best anchor is used regardless, so dispatch always succeeds on a
    non-empty atlas. A NaN floor, which no cosine is below, raises.
    """
    if np.isnan(floor):
        raise ValueError(f"floor must be a number, got {floor}")
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

    Every word is dispatched at once. The words are then mapped in map
    order, every word of one map in a row, in input order within each map,
    so that each map's matrix stays in cache across its gemvs; each mapped
    query is still one gemv of its map. The mapped queries are made lazily
    and ranked in top_k_rows blocks, whose results do not depend on the
    block a query falls in, and the rankings are put back in input order.
    """
    vectors = [src_space.vector(w) for w in src_words]
    chosen = dispatch(atlas, vectors, floor)
    order = np.argsort([id(m) for m, _ in chosen], kind="stable")  # input order within a map
    tops, scores = top_k_rows(tgt_space, (chosen[i][0].apply(vectors[i]) for i in order), k)
    back = np.argsort(order)
    words = tgt_space.words
    return [
        ([(words[i], s) for i, s in zip(top, row)], label)
        for top, row, (_, label) in zip(tops[back].tolist(), scores[back].tolist(), chosen)
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
    """Persist an atlas as one map file per anchor, a JSON manifest and a binary companion.

    The text map files, written as save_map writes them, are the atlas.
    ``maps.npz`` is their binary companion: ``maps`` stacks their matrices,
    entries first and the fallback last, under the digests of the map
    files in that order. The map files of an atlas saved earlier into the
    directory are removed first, so only the files the manifest names remain.
    """
    write_atlas(atlas, Path(directory))


def load_atlas(directory: str | Path) -> MapAtlas:
    """Load an atlas saved by save_atlas.

    A manifest that is not JSON, lacks a key or holds a value of the wrong
    type is rejected, naming the manifest, before any map file loads. Each
    map's header and metadata come from its text file; its matrix comes
    from ``maps.npz`` while its digests hold, else from the text.
    """
    entries, fallback = read_atlas(Path(directory))
    return MapAtlas(tuple(AtlasEntry(anchor, vector, LinearMap(**fields))
                          for anchor, vector, fields in entries),
                    fallback=LinearMap(**fallback) if fallback else None)
