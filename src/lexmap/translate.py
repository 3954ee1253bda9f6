"""Translation serving: single-map retrieval and a piecewise atlas.

The atlas keeps one map per anchor word and dispatches each query to the
map whose anchor is nearest by cosine. Nearest-anchor dispatch covers the
whole space even where neighborhoods overlap or leave gaps; an optional
global fallback map handles queries far from every anchor.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSpace, top_k_rows
from .mapper import LinearMap, _read_map, save_map

# the binary copy of an atlas's maps, which load_atlas serves while its digests hold
_STACK_FILE = "maps.npy"
# bytes read per digest update
_DIGEST_CHUNK = 1 << 20


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


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read in chunks (hashlib.file_digest needs Python 3.11)."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def save_atlas(atlas: MapAtlas, directory: str | Path) -> None:
    """Persist an atlas as one map file per anchor, a stack of the maps and a JSON manifest.

    The text map files are the atlas. ``maps.npy`` stacks their matrices,
    entries first and the fallback last, and the manifest's ``"stack"``
    records its sha256 and that of every map file, in stack order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"entries": [], "fallback": None}
    maps: dict[str, LinearMap] = {}  # file -> map, in stack order
    for i, entry in enumerate(atlas.entries):
        filename = f"map_{i:04d}.txt"
        maps[filename] = entry.linear_map
        manifest["entries"].append(
            {
                "anchor": entry.anchor_word,
                "file": filename,
                "vector": [float(v) for v in entry.anchor_vector],
            }
        )
    if atlas.fallback is not None:
        maps["map_global.txt"] = atlas.fallback
        manifest["fallback"] = "map_global.txt"
    for filename, m in maps.items():
        save_map(m, directory / filename)
    matrices = [m.matrix for m in maps.values()]
    stack = np.stack(matrices) if matrices else np.empty((0, 0, 0))
    np.save(directory / _STACK_FILE, stack, allow_pickle=False)
    manifest["stack"] = {
        "file": _STACK_FILE,
        "sha256": _sha256(directory / _STACK_FILE),
        "maps": [_sha256(directory / filename) for filename in maps],
    }
    with (directory / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _stacked_matrices(
    directory: Path, stack: dict | None, files: list[str]
) -> list[np.ndarray | None]:
    """Per map file, its matrix from the stack, or None for all when a digest differs.

    The stack is served only while its sha256 and that of every map file
    equal the manifest's, so an edited, missing or added file sends every
    map to the text parse.
    """
    unverified = [None] * len(files)
    if stack is None:
        return unverified
    digests = zip([*files, stack["file"]], [*stack["maps"], stack["sha256"]])
    if not all((directory / f).is_file() and _sha256(directory / f) == d for f, d in digests):
        return unverified
    matrices = np.load(directory / stack["file"], allow_pickle=False)
    return list(matrices) if matrices.ndim == 3 and len(matrices) == len(files) else unverified


def load_atlas(directory: str | Path) -> MapAtlas:
    """Load an atlas saved by save_atlas.

    A manifest that is not JSON, lacks a key or holds a value of the wrong
    type or length is rejected, naming the manifest, before any map file
    loads. Each map's header and metadata come from its text file; its
    matrix comes from the stack when every digest holds, else from the text.
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
        files = [file for _, file, _ in items] + ([fallback] if fallback else [])
        stack = manifest.get("stack")
        if stack is not None and not (isinstance(stack, dict) and isinstance(stack["maps"], list)):
            raise TypeError("stack must be an object with a list of map digests")
        digests = [stack["file"], stack["sha256"], *stack["maps"]] if stack is not None else []
        if not all(isinstance(name, str) for name in [*(a for a, _, _ in items), *files, *digests]):
            raise TypeError("anchor, file, fallback and stack entries must be strings")
        if stack is not None and len(stack["maps"]) != len(files):
            raise ValueError(f"stack holds {len(stack['maps'])} map digests, expected {len(files)}")
    except KeyError as exc:
        raise ValueError(f"bad atlas manifest in {manifest_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad atlas manifest in {manifest_path}: {exc}") from None
    matrices = _stacked_matrices(directory, stack, files)
    maps = [_read_map(directory / file, matrix) for file, matrix in zip(files, matrices)]
    entries = tuple(
        AtlasEntry(anchor_word=anchor, anchor_vector=vector, linear_map=m)
        for (anchor, _, vector), m in zip(items, maps)
    )
    return MapAtlas(entries, fallback=maps[-1] if fallback else None)
