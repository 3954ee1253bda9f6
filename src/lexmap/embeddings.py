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

# least bytes of one top_k_rows block (_block_queries), and most of one rescoring gather
_BLOCK_BYTES = 2 << 20
# rows of the space per top_k_rows GEMM tile
_ROW_TILE = 4096
# a vector normed below this may have lost its squares' bits to underflow; times 2**600 it has not
_TINY_NORM = 2.0**-450


class EmbeddingSpace:
    """Vocabulary plus dense vector matrix for one language.

    Immutable after construction: the vector matrix is marked read-only and
    the word list is a tuple, so instances are safe to share across
    concurrent read-only queries. Every cosine is ``vecdot(row, unit query)``
    over the row's read-only norm: inf for a zero row, exactly 1.0 in a
    normalized space, exact for a raw row too small to square or whose
    squares overflow. ``vecdot`` sums each row alone: equal rows score
    bit-equal wherever they sit. The rows ``top_k_rows``' margin does not
    cover, nonzero with a tiny norm or one beyond float64's range (raw
    spaces only), are found once, when the space is built.

    The first ``top_k_rows`` that ranks against a space builds a float32
    copy of its unit rows, which picks the candidates, and keeps it,
    read-only, for the space's lifetime: V * d * 4 bytes more, 60 MB at
    50,000 x 300. Two threads that rank at once may each build it; both
    builds hold equal bytes, so either one serves.
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
        with np.errstate(over="ignore"):  # a norm beyond float64's range stays inf
            norms = np.sqrt(np.vecdot(vectors, vectors))
            if normalized and not np.allclose(norms, 1.0, atol=1e-6):
                raise ValueError("normalized=True but some rows are not unit norm")
            odd = ~(norms >= _TINY_NORM) | np.isinf(norms)  # scaled by a power of two, then normed
            scaled = vectors[odd]
            scale = _into_range(scaled)
            norms[odd] = np.sqrt(np.vecdot(scaled, scaled)) / scale
        norms[norms == 0.0] = np.inf  # zero rows score 0 instead of dividing by 0
        norms = np.ones_like(norms) if normalized else norms  # x / 1.0 is x, bit for bit
        norms.flags.writeable = False
        forced = np.flatnonzero(~(norms >= _TINY_NORM) | np.isinf(norms))
        forced = forced[vectors[forced].any(axis=1)]  # a zero row scores 0 in any order
        forced.flags.writeable = False

        self.words: tuple[str, ...] = tuple(words)
        self.vectors = vectors
        self.vectors.flags.writeable = False
        self.dim = int(vectors.shape[1])
        self.normalized = normalized
        self.row_norms = norms
        self.stats = stats
        self._index = index
        self._forced = forced  # rows outside top_k_rows' margin: always its candidates
        self._unit32: np.ndarray | None = None  # built by the first ranking: _float32_rows

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
    count or a non-finite entry are skipped as malformed; all-zero vectors
    are dropped when normalizing; every other row is kept, one whose squared
    norm overflows too (normalizing scales it by 2**-600 first). All are
    counted in the space's ``stats`` rather than aborting the load
    (published .vec files contain occasional tokens with embedded spaces),
    the overflowing rows in ``norm_overflow``. Unless a limit below
    the header count cuts the read short, a body whose line count differs
    from the header count is counted too, from the lines already read and
    at most one more.

    Args:
        path: UTF-8 text file, ``<count> <dim>`` header then one word per line.
        limit: optional cap on vocabulary size, at least 1.
        normalize: scale each row to unit Euclidean norm, exactly (scaled into range first).

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
    u, v = (np.array(x, ndmin=2) for x in (u, v))  # copies, as rows for _into_range
    _into_range(u)
    _into_range(v)
    u, v = u[0], v[0]
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _into_range(matrix: np.ndarray) -> np.ndarray:
    """Scale, exactly and in place, each row of a float64 matrix whose squares lose bits, and
    return every row's factor: 2**600 for a row normed below _TINY_NORM (its squares may
    underflow), 2**-600 for a finite row normed inf (its squares overflow; entries far below
    its norm may underflow, which moves no cosine by more than a rounding), 1.0 for any other.
    Each norm is ``sqrt(vecdot(row, row))``, the bits of ``np.linalg.norm(row)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(matrix, matrix))
    scale = np.ones_like(norms)
    scale[norms < _TINY_NORM] = 2.0**600
    huge = np.flatnonzero(np.isinf(norms))
    scale[huge[np.isfinite(matrix[huge]).all(axis=1)]] = 2.0**-600
    odd = scale != 1.0
    matrix[odd] *= scale[odd, None]
    return scale


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Divide each row of a float64 matrix by its norm, in place, and return the norms.

    Each row is scaled into range by ``_into_range`` first, so a row too
    small to square or whose squares overflow gets its unit vector too. A
    zero row's norm is 0 and its row NaN.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _into_range(matrix)
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


def cosines_to_rows(space: EmbeddingSpace, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine of a query vector against the space's rows at an index array: the bits
    ``cosines_to_all`` gives each of those rows, at the cost of scoring only them."""
    return _cosines(space, rows, _unit_queries(space, [query])[0])


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
    ``top_k_indices``, whatever the block size, row tile or BLAS thread
    count. Queries are read lazily in blocks, which one rule sizes
    (``_block_queries``: a block's unit queries, one tile's GEMM scores
    beside the k best and their partition), and each block's unit queries
    are normed in one pass. A float32 GEMM against the space's float32 unit
    rows (``_float32_rows``), _ROW_TILE rows at a time, only selects
    candidates: every row whose GEMM score is at least the query's
    k-th best GEMM score less a margin. A running k-th best carries from
    tile to tile; it only rises, so the rows a tile keeps against it are
    filtered once more against the last.

    The margin depends on d alone. Let q be a unit query, x a row, n its
    norm (1.0 in a normalized space), s the rescored cosine, the float64
    ``vecdot(x, q) / n``, and g the GEMM score of fl32(x / n) against
    fl32(q). With u = 2^-24 and gamma_m = m u / (1 - m u), each float32
    entry is within gamma_2 of its real value, and an sgemm that sums the
    d products in any order is within gamma_d of their exact sum, so
    |g - x.q / n| <= gamma_{d+3} |q| |x| / n. A unit query's norm is within
    gamma_d of 1 (``_unit_rows`` scales a query whose squares could
    underflow), a normalized row's within 1.1e-5 (the constructor's check)
    and a raw row's |x| / n within gamma_d, and each float64 rounding of s
    is below u; clipping both scores widens no gap. So each g lies within
    e ~ gamma_{d+3} of its s, the k-th best g at most e above the k-th best
    s, and each of the k best rows has a g at least the k-th best g less 2e.
    The margin is 4 gamma_{2d+4} + d 2^-122 (about 1.44e-4 at d=300): its
    d + 4 spare terms cover the norms, the float64 rounding of s and the
    float32 rounding of the margin and of the k-th best less it. The
    absolute term covers float32's range: an entry, product or partial sum
    below 2^-126 is off by up to 2^-126 (a subnormal rounded, or flushed to
    zero), at most 5d of them, whatever the BLAS does with subnormals; it
    is far below the first term's last bit. Rows the margin does not cover,
    nonzero with a tiny or inf norm, are found when the space is built and
    are always candidates; a query whose unit vector is not finite has every row.

    The block's queries are rescored in groups of equal candidate count,
    most at exactly k: one gathered ``vecdot`` per group rescores each
    query's candidates, in ascending row order, with ``cosines_to_all``'s
    row products, and one ``top_k_indices`` ranks them. A group is split so
    that no gather exceeds _BLOCK_BYTES, unless one query's own candidates
    do (every row, for a query whose unit vector is not finite): such a
    query is gathered alone. A space of fewer than k rows gives all of
    them; an empty space none.

    Returns:
        (indices, scores), each of shape (queries, min(k, len(space))).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    width = min(k, len(space))
    block = _block_queries(space, width)
    mu = (2 * space.dim + 4) * 2.0**-24
    margin = np.float32(4.0 * mu / (1.0 - mu) + space.dim * 2.0**-122)
    indices = [np.empty((0, width), dtype=np.intp)]
    scores = [np.empty((0, width))]
    it = iter(queries)
    while batch := list(islice(it, block)):
        unit = _unit_queries(space, batch)
        query, row = _candidates(space, unit, k, margin)
        count = np.bincount(query, minlength=len(batch))
        first = np.cumsum(count) - count
        top = np.empty((len(batch), width), dtype=np.intp)
        cos = np.empty((len(batch), width))
        # one flat rescoring per block took +44 %, and padding to the widest query could gather
        # 10 GB at 50,000 x 300: queries of equal count share a gather, in parts of _BLOCK_BYTES
        for c in sorted(set(count.tolist())):  # np.unique would import numpy.ma, 10-20 ms a process
            group = np.flatnonzero(count == c)
            per = max(1, _BLOCK_BYTES // (8 * c * space.dim or 1))
            for part in (group[i:i + per] for i in range(0, len(group), per)):
                rows = row[first[part, None] + np.arange(c)]
                rescored = _cosines(space, rows, unit[part, None])
                rank = top_k_indices(rescored, k)
                top[part] = np.take_along_axis(rows, rank, axis=1)
                cos[part] = np.take_along_axis(rescored, rank, axis=1)
        indices.append(top)
        scores.append(cos)
    return np.concatenate(indices), np.concatenate(scores)


def _candidates(
    space: EmbeddingSpace, unit: np.ndarray, k: int, margin: np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """Each unit query's candidate rows under top_k_rows' margin, as (query, row) index
    pairs sorted by query, then row: every row when the space has at most k."""
    n, forced = len(space), space._forced
    space_rows = _float32_rows(space)
    finite = np.isfinite(unit).all(axis=1)
    unit32 = np.where(finite[:, None], unit, 0.0).astype(np.float32)
    best = np.empty((len(unit), 0), dtype=np.float32)  # the k best GEMM scores so far
    floor = np.full(len(unit), -np.inf, dtype=np.float32)  # an empty space has no tile: no pairs
    kept = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0, dtype=np.float32),)]
    for start in range(0, n, _ROW_TILE):
        gemm = unit32 @ space_rows[start:start + _ROW_TILE].T
        odd = forced[(forced >= start) & (forced < start + gemm.shape[1])] - start
        gemm[:, odd] = -np.inf
        seen = np.concatenate([best, gemm], axis=1) if start else gemm
        best = np.partition(seen, max(seen.shape[1] - k, 0), axis=1)[:, -k:]  # a copy
        floor = np.clip(best[:, 0], -1.0, 1.0) - margin  # fewer than k rows: under their least
        floor[(floor <= -1.0) | ~finite] = -np.inf  # every clipped score is at least -1
        gemm[:, odd] = np.inf  # forced rows pass every floor; best holds them as -inf
        flat = np.flatnonzero(gemm >= floor[:, None])  # a 1-D nonzero: ten times a 2-D one's speed
        query, row = np.divmod(flat, gemm.shape[1])
        kept.append((query, row + start, gemm.ravel()[flat]))
    query, row, score = (np.concatenate(part) for part in zip(*kept))
    keep = score >= floor[query]
    order = np.argsort(query[keep], kind="stable")  # tile by tile, each by query, then row
    return query[keep][order], row[keep][order]


def _float32_rows(space: EmbeddingSpace) -> np.ndarray:
    """The space's unit rows in float32: built by the first ranking, then kept read-only.

    Each row is divided by its norm in float64, then cast, so a raw entry
    beyond float32's range casts to at most 1; a normalized space's norms
    are 1.0. The space's forced rows are zero.
    """
    rows = space._unit32
    if rows is None:
        rows = np.empty(space.vectors.shape, dtype=np.float32)
        with np.errstate(invalid="ignore"):  # inf over an inf norm, in a forced row
            np.divide(space.vectors, space.row_norms[:, None], out=rows, casting="same_kind")
        rows[space._forced] = 0.0
        rows.flags.writeable = False
        space._unit32 = rows
    return rows


def _block_queries(space: EmbeddingSpace, width: int) -> int:
    """Queries per top_k_rows block of ``width`` best rows each: the one rule that sizes a block.

    Per query, a block holds its unit query and one row tile's float32 GEMM
    scores beside the running ``width`` best, and their partition: 4 (d +
    2 (min(V, _ROW_TILE) + width)) bytes. They fill _BLOCK_BYTES, or an
    eighth of a larger space's float32 rows: the GEMM then reads the rows
    once per many queries rather than per query, and a block's memory stops
    growing with the space past one tile.
    """
    block_bytes = max(_BLOCK_BYTES, 4 * space.dim * len(space) // 8)
    per_query = 4 * (space.dim + 2 * (min(len(space), _ROW_TILE) + width))
    return max(1, block_bytes // per_query)


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
