"""Monolingual word embedding spaces: normalization and cosine retrieval.

A space is a vocabulary and its vector matrix; ``load_embeddings`` and
``write_embeddings`` read and write the common ``.vec`` convention through
``formats``, which also keeps the binary companion ``<name>.vec.npz``.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice
from pathlib import Path

import numpy as np

from .formats import LoadStats, read_vec, write_vec

# least bytes of one top_k_rows block: its unit queries, GEMM cosines and their argpartition
_BLOCK_BYTES = 2 << 20
# a vector normed below this may have lost its squares' bits to underflow; times 2**600 it has not
_TINY_NORM = 2.0**-450


class EmbeddingSpace:
    """Vocabulary plus dense vector matrix for one language.

    Immutable after construction: the vector matrix is marked read-only and
    the word list is a tuple, so instances are safe to share across
    concurrent read-only queries. Every cosine is ``vecdot(row, unit query)``
    over the row's read-only norm: inf for a zero row, exactly 1.0 in a
    normalized space, exact for a raw row too small to square. ``vecdot``
    sums each row alone: equal rows score bit-equal wherever they sit.
    """

    def __init__(
        self,
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
        index = {w: i for i, w in enumerate(words)}
        if len(index) != len(words):
            raise ValueError("words must be unique")
        norms = np.sqrt(np.vecdot(vectors, vectors))
        if normalized and not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("normalized=True but some rows are not unit norm")
        tiny = norms < _TINY_NORM  # scaled by a power of two, exactly, then normed
        scaled = vectors[tiny] * 2.0**600
        norms[tiny] = np.sqrt(np.vecdot(scaled, scaled)) * 2.0**-600
        norms[norms == 0.0] = np.inf  # zero rows score 0 instead of dividing by 0
        norms = np.ones_like(norms) if normalized else norms  # x / 1.0 is x, bit for bit
        norms.flags.writeable = False

        self.words: tuple[str, ...] = tuple(words)
        self.vectors = vectors
        self.vectors.flags.writeable = False
        self.dim = int(vectors.shape[1])
        self.normalized = normalized
        self.row_norms = norms
        self.stats = stats
        self._index = index

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
) -> EmbeddingSpace:
    """Load a ``.vec`` file into an EmbeddingSpace.

    The companion that write_embeddings leaves beside the file is served
    instead of the text when no limit is below the header count, its
    digests of the ``.vec`` and of its own payload hold, it has one word
    per row, every row norm is finite and no row is a row of zeros. The
    text path would keep every such row as written and count nothing, so
    the result is the same bit for bit; in any other case the text is parsed.

    Keeps at most ``min(header count, limit)`` entries in file order.
    Trailing whitespace (fastText's trailing space, CRLF) is ignored.
    Duplicate tokens keep the first occurrence; lines with the wrong field
    count, a non-finite entry or, when normalizing, an overflowing norm are
    skipped as malformed; all-zero vectors are dropped when normalizing; a raw
    load keeps a finite row whose norm overflows. All are counted in the
    space's ``stats`` rather than aborting the load (published .vec files
    contain occasional tokens with embedded spaces). Unless a limit below
    the header count cuts the read short, a body whose line count differs
    from the header count is counted too, from the lines already read and
    at most one more.

    Args:
        path: UTF-8 text file, ``<count> <dim>`` header then one word per line.
        limit: optional cap on vocabulary size, at least 1.
        normalize: scale each row to unit Euclidean norm, exactly (a tiny row times 2**600 first).

    Raises:
        FileNotFoundError: missing file.
        ValueError: a limit below 1, unparsable header, non-positive
            dimensions, or a body of which no line loads.
    """
    words, vectors, stats = read_vec(Path(path), limit, normalize)
    if normalize:  # read_vec left only finite, nonzero rows
        _unit_rows(vectors)
    return EmbeddingSpace(words, vectors, normalized=normalize, stats=stats)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors of equal dimension."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    u, v = (x * 2.0**600 if np.linalg.norm(x) < _TINY_NORM else x for x in (u, v))
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Divide each row of a float64 matrix by its norm, in place, and return the norms.

    A row normed below _TINY_NORM may have lost its squares' bits to
    underflow, so it is scaled by 2**600, exactly, first. Each norm is
    ``sqrt(vecdot(row, row))``, the bits of ``np.linalg.norm(row)``. A zero
    row's norm is 0 and its row NaN.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        matrix[np.sqrt(np.vecdot(matrix, matrix)) < _TINY_NORM] *= 2.0**600
        norms = np.sqrt(np.vecdot(matrix, matrix))
        matrix /= norms[:, None]
    return norms


def _unit_queries(space: EmbeddingSpace, queries: list) -> np.ndarray:
    """The queries over their norms, as the rows of one matrix, checked against the space's
    dimension."""
    unit = np.empty((len(queries), space.dim))
    for row, query in zip(unit, queries):
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (space.dim,):
            raise ValueError(f"query dimension {query.shape} != space dim {space.dim}")
        row[:] = query
    if not _unit_rows(unit).all():
        raise ValueError("cosine similarity undefined for zero query")
    return unit


def _cosines(space: EmbeddingSpace, rows: np.ndarray | slice, unit: np.ndarray) -> np.ndarray:
    """Cosines of a unit query to the space's rows, an index array or ``slice(None)``.

    Each score is ``vecdot(row, unit) / row norm``, one row product, so a
    row scores the same bits in any subset of rows.
    """
    return np.clip(np.vecdot(space.vectors[rows], unit) / space.row_norms[rows], -1.0, 1.0)


def cosines_to_all(space: EmbeddingSpace, query: np.ndarray) -> np.ndarray:
    """Cosine of a query vector against every row of the space."""
    return _cosines(space, slice(None), _unit_queries(space, [query])[0])


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, ties by ascending index, NaN last.

    The one ranking rule of lexmap: ``np.argsort(-scores, kind="stable")[:k]``,
    along the last axis, so each row of a 2-D array is ranked alone. Fewer
    than k scores give all of them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")[..., :k]


def top_k_rows(
    space: EmbeddingSpace, queries: Iterable[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and cosines of the k best rows for each query, best first.

    Equal, bit for bit, to ranking ``cosines_to_all`` of each query with
    ``top_k_indices``, whatever the block size or BLAS thread count. Queries
    are read lazily, a block at a time, and each block's unit queries are
    normed in one pass and scored with one GEMM, which only selects
    candidates. Two summation orders of one d-term dot product differ by at
    most 2 gamma_d |q| |v|, with gamma_m = m u / (1 - m u) and u = 2^-53.
    Every row whose GEMM cosine lies within 4 gamma_{2d+4} of the query's
    k-th best GEMM cosine is a candidate. That one margin holds for every
    space: a unit query's norm is within gamma_d of 1 (``_unit_rows`` scales
    a query whose squares could underflow), a normalized row's within 1.1e-5
    (the constructor's check), and the d+4 spare terms cover both factors,
    a raw space's norms and division, and the margin's own rounding. Rows
    it does not cover, nonzero with a tiny or inf norm, are always
    candidates, and a query whose unit vector is not finite has every row.

    A query whose candidates are exactly the k rows of one ``argpartition``
    of the block's GEMM, as almost every query's are, is ranked with the
    block: one gathered ``vecdot`` rescores the candidates, in ascending
    row order, with ``cosines_to_all``'s row products, and one
    ``top_k_indices`` ranks every such query's row. Any other query is
    rescored over its candidates and ranked on its own. A space of fewer
    than k rows gives all of them, ranked with the block; an empty space
    none.

    Returns:
        (indices, scores), each of shape (queries, min(k, len(space))).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(space)
    width = min(k, n)
    # a block's gathered candidate rows stay within _BLOCK_BYTES too
    block = min(_block_queries(space), max(1, _BLOCK_BYTES // (8 * width * space.dim or 1)))
    forced = _forced_candidates(space)
    mu = (2 * space.dim + 4) * 2.0**-53
    margin = 4.0 * mu / (1.0 - mu)
    indices = [np.empty((0, width), dtype=np.intp)]
    scores = [np.empty((0, width))]
    it = iter(queries)
    while batch := list(islice(it, block)):
        unit = _unit_queries(space, batch)
        if k < n:
            with np.errstate(over="ignore", invalid="ignore"):  # forced rows are reset below
                gemm = unit @ space.vectors.T
                if not space.normalized:  # a normalized space's norms are 1.0
                    gemm /= space.row_norms
            np.clip(gemm, -1.0, 1.0, out=gemm)
            gemm[:, forced] = -np.inf
            best = np.argpartition(gemm, n - k, axis=1)[:, n - k:]
            kth = np.take_along_axis(gemm, best[:, :1], axis=1)
            candidates = gemm >= kth - margin
            candidates[~np.isfinite(unit).all(axis=1)] = True
            candidates[:, forced] = True
            exact = np.count_nonzero(candidates, axis=1) == k
        else:
            best = np.broadcast_to(np.arange(n), (len(batch), n))
            exact = np.ones(len(batch), dtype=bool)
        top = np.empty((len(batch), width), dtype=np.intp)
        cos = np.empty((len(batch), width))
        rows = np.sort(best[exact], axis=1)
        rescored = _cosines(space, rows, unit[exact][:, None])
        rank = top_k_indices(rescored, k)
        top[exact] = np.take_along_axis(rows, rank, axis=1)
        cos[exact] = np.take_along_axis(rescored, rank, axis=1)
        for i in np.flatnonzero(~exact):
            rows = np.flatnonzero(candidates[i])
            rescored = _cosines(space, rows, unit[i])
            rank = top_k_indices(rescored, k)
            top[i], cos[i] = rows[rank], rescored[rank]
        indices.append(top)
        scores.append(cos)
    return np.concatenate(indices), np.concatenate(scores)


def _block_queries(space: EmbeddingSpace) -> int:
    """Queries per top_k_rows block.

    A block fills _BLOCK_BYTES, or an eighth of a larger space's matrix: the
    GEMM then reads the matrix once per about d/16 queries rather than per
    query, and the block adds at most an eighth to the space's memory.
    """
    block_bytes = max(_BLOCK_BYTES, space.vectors.nbytes // 8)
    return max(1, block_bytes // (8 * (space.dim + 2 * len(space))))


def _forced_candidates(space: EmbeddingSpace) -> np.ndarray:
    """Rows outside the margin's reach: nonzero with a tiny or inf norm (raw spaces only)."""
    norms = space.row_norms
    odd = np.flatnonzero(~(norms >= _TINY_NORM) | np.isinf(norms))
    return odd[space.vectors[odd].any(axis=1)]  # a zero row scores 0 in any order


def top_k_by_cosine(space: EmbeddingSpace, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The k highest-cosine words for a query, ties broken by vocabulary index.

    A space of fewer than k words gives all of them.
    """
    indices, scores = top_k_rows(space, [query], k)
    return [(space.words[i], float(s)) for i, s in zip(indices[0], scores[0])]


def write_embeddings(space: EmbeddingSpace, path: str | Path) -> None:
    """Write a space back to ``.vec`` text, round-tripping float64 exactly.

    Each entry is its shortest round-trip float repr, formatted in one
    vectorized pass per block of rows (formats._format_float_rows). Beside the file
    goes its binary companion ``<name>.vec.npz``: ``words``, the UTF-8
    words joined by newlines, and ``vectors``, the float64 matrix, under
    the sha256 of the text as written. A word the text cannot hold back
    as written (empty, holding " " or a line break, or not UTF-8) raises
    ValueError before any file is written.
    """
    write_vec(space, Path(path))
