"""Monolingual word embedding spaces: loading, normalization, cosine retrieval.

The on-disk format is the common ``.vec`` convention: a header line
``<count> <dim>`` followed by one ``<token> <d floats>`` line per word,
space-separated, UTF-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

# .vec lines parsed per np.loadtxt call: bounds the text and floats held at once
_CHUNK_LINES = 256
# np.loadtxt strips these from a field as whitespace, float() rejects them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass
class LoadStats:
    """Audit counters from one load_embeddings call."""

    malformed: int = 0
    duplicates: int = 0
    zero_dropped: int = 0


class EmbeddingSpace:
    """Vocabulary plus dense vector matrix for one language.

    Immutable after construction: the vector matrix is marked read-only and
    the word list is a tuple, so instances are safe to share across
    concurrent read-only queries. Row norms are kept read-only too, with
    zero rows as inf, so cosine retrieval never recomputes them. Norms and
    cosine scores are ``np.vecdot`` products, which sum each row alone:
    equal rows score bit-equal wherever they sit.
    """

    def __init__(
        self,
        language_tag: str,
        words: list[str] | tuple[str, ...],
        vectors: np.ndarray,
        normalized: bool = False,
        stats: LoadStats | None = None,
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D matrix (one row per word)")
        if len(words) != vectors.shape[0]:
            raise ValueError(
                f"word count {len(words)} != vector row count {vectors.shape[0]}"
            )
        if len(set(words)) != len(words):
            raise ValueError("words must be unique")
        norms = np.sqrt(np.vecdot(vectors, vectors))
        if normalized and norms.size and not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("normalized=True but some rows are not unit norm")
        norms[norms == 0.0] = np.inf  # zero rows score 0 instead of dividing by 0
        norms.flags.writeable = False

        self.language_tag = language_tag
        self.words: tuple[str, ...] = tuple(words)
        self.vectors = vectors
        self.vectors.flags.writeable = False
        self.dim = int(vectors.shape[1])
        self.normalized = normalized
        self.row_norms = norms
        self.stats = stats
        self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise KeyError(f"word not in vocabulary: {word!r}") from None

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index(word)]


def load_embeddings(
    path: str | Path,
    limit: int | None = None,
    normalize: bool = True,
    language_tag: str | None = None,
) -> EmbeddingSpace:
    """Load a ``.vec`` file into an EmbeddingSpace.

    Keeps at most ``min(header count, limit)`` entries in file order.
    Trailing whitespace (fastText's trailing space, CRLF) is ignored.
    Duplicate tokens keep the first occurrence; lines with the wrong field
    count, a non-finite entry or, when normalizing, an overflowing norm are
    skipped as malformed; zero vectors are dropped when normalizing. All are
    counted in the space's ``stats`` rather than aborting the load (published
    .vec files contain occasional tokens with embedded spaces).

    Args:
        path: UTF-8 text file, ``<count> <dim>`` header then one word per line.
        limit: optional cap on vocabulary size.
        normalize: scale every vector to unit Euclidean norm.
        language_tag: label for the space; defaults to the file stem.

    Raises:
        FileNotFoundError: missing file.
        ValueError: unparsable header, non-positive dimensions, or a body
            of which no line loads.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"embedding file not found: {path}")
    if language_tag is None:
        language_tag = path.stem

    stats = LoadStats()
    words: list[str] = []
    blocks: list[np.ndarray] = []
    seen: set[str] = set()

    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"bad header in {path}: expected '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"bad header in {path}: expected two integers") from None
        if count < 0 or dim <= 0:
            raise ValueError(f"bad header in {path}: count={count} dim={dim}")

        target = count if limit is None else min(count, limit)
        while len(words) < target:
            lines = [line.rstrip() for line in islice(fh, _CHUNK_LINES)]
            if not lines:
                break
            # well-formed: splits on " " into a non-empty token and dim fields
            formed = [line.count(" ") == dim and not line.startswith(" ") for line in lines]
            split = [line.partition(" ") for line, ok in zip(lines, formed) if ok]
            bodies = [body for _, _, body in split]
            block = _parse_float_rows(bodies, dim, " ")
            if block is None:
                block = np.array([_float_fields(body, dim) for body in bodies]).reshape(-1, dim)
            with np.errstate(over="ignore"):
                norms = np.sqrt(np.vecdot(block, block))
            # a NaN or inf entry, or a squared norm that overflows, gives a non-finite norm
            finite = np.isfinite(norms) if normalize else np.isfinite(block).all(axis=1)
            keep: list[int] = []
            j = -1
            for ok in formed:
                if len(words) >= target:
                    break
                if not ok:
                    stats.malformed += 1
                    continue
                j += 1
                token = split[j][0]
                if token in seen:
                    stats.duplicates += 1
                    continue
                if not finite[j]:
                    stats.malformed += 1
                    continue
                if normalize and norms[j] == 0.0:
                    stats.zero_dropped += 1
                    continue
                seen.add(token)
                words.append(token)
                keep.append(j)
            kept = block[keep]
            if normalize:
                kept /= norms[keep][:, None]
            blocks.append(kept)

    if not words and (stats.malformed or stats.zero_dropped):
        raise ValueError(
            f"no words loaded from {path}: {stats.malformed} malformed lines, "
            f"{stats.zero_dropped} zero vectors"
        )
    vectors = np.concatenate(blocks) if blocks else np.empty((0, dim))
    return EmbeddingSpace(language_tag, words, vectors, normalized=normalize, stats=stats)


def _parse_float_rows(rows: list[str], width: int, delimiter: str | None) -> np.ndarray | None:
    """Parse rows of ``width`` floats in one go, or None where float() might differ.

    ``np.loadtxt`` rounds exactly as ``float()`` does, but it rejects ``1_0``
    and non-ASCII digits, which ``float()`` reads, and strips the separators
    ``\\x1c``-``\\x1f`` from a field, which ``float()`` rejects. A block
    holding such a separator, failing to parse or parsing to another shape
    gives None, and the caller reads it one ``float()`` at a time instead.
    """
    if not rows:
        return None
    text = "\n".join(rows)
    if any(sep in text for sep in _LOADTXT_ONLY_SPACE):  # a memchr each, unlike a regex
        return None
    try:
        block = np.loadtxt(rows, dtype=np.float64, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (len(rows), width) else None


def _float_fields(body: str, dim: int) -> list[float]:
    """The " "-separated floats of a .vec line body; all NaN (malformed) if float() fails."""
    try:
        return [float(x) for x in body.split(" ")]
    except ValueError:
        return [math.nan] * dim


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors of equal dimension."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def cosines_to_all(space: EmbeddingSpace, query: np.ndarray) -> np.ndarray:
    """Cosine of a query vector against every row of the space."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (space.dim,):
        raise ValueError(f"query dimension {query.shape} != space dim {space.dim}")
    qnorm = np.linalg.norm(query)
    if qnorm == 0.0:
        raise ValueError("cosine similarity undefined for zero query")
    scores = np.vecdot(space.vectors, query / qnorm)
    if not space.normalized:
        scores = scores / space.row_norms
    return np.clip(scores, -1.0, 1.0)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties by ascending index.

    The one ranking rule of lexmap, exactly ``np.argsort(-scores,
    kind="stable")[:k]``: a partition finds the k-th best score and only
    the candidates tied with or above it are sorted. Fewer than k scores
    give all of them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    neg = -np.asarray(scores, dtype=np.float64)
    if k >= neg.size:
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(~(neg > kth))  # NaN stays a candidate and sorts last
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def top_k_by_cosine(
    space: EmbeddingSpace,
    query: np.ndarray,
    k: int,
    exclude: set[str] | None = None,
) -> list[tuple[str, float]]:
    """The k highest-cosine words for a query, ties broken by vocabulary index.

    Words in ``exclude`` are skipped. If fewer than k candidates remain, all
    of them are returned.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    exclude = exclude or set()
    scores = cosines_to_all(space, query)
    # k + len(exclude) ranked words hold at least k that are not excluded
    ranked = top_k_indices(scores, k + len(exclude))
    return [
        (space.words[i], float(scores[i])) for i in ranked if space.words[i] not in exclude
    ][:k]


def write_embeddings(space: EmbeddingSpace, path: str | Path) -> None:
    """Write a space back to ``.vec`` text, round-tripping float64 exactly."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for word, row in zip(space.words, space.vectors):
            fh.write(word + " " + " ".join(map(repr, row.tolist())) + "\n")
