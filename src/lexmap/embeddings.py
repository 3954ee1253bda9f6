"""Monolingual word embedding spaces: loading, normalization, cosine retrieval.

The on-disk format is the common ``.vec`` convention: a header line
``<count> <dim>`` followed by one ``<token> <d floats>`` line per word,
space-separated, UTF-8. ``write_embeddings`` also leaves a binary companion,
``<name>.vec.npz``, which ``load_embeddings`` serves in place of the text
while its digests hold.
"""

from __future__ import annotations

import hashlib
import math
import zipfile
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

# .vec lines parsed per np.loadtxt call: bounds the text and floats held at once
_CHUNK_LINES = 256
# np.loadtxt strips these from a field as whitespace, float() rejects them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# least bytes of one top_k_rows block: its unit queries, GEMM cosines and their partitioned copy
_BLOCK_BYTES = 2 << 20
# a raw row normed below this may have lost its squares' bits to underflow
_TINY_NORM = 2.0**-450
# bytes read per digest update
_DIGEST_CHUNK = 1 << 20
# a fixed member timestamp keeps a companion's bytes deterministic, unlike np.savez
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)
# entries per _format_float_rows block: bounds its (block, 32) byte layout
_FORMAT_BLOCK = 1 << 14
# 2**27 + 1 splits a double into two halves whose products are exact (Dekker)
_SPLIT = 134217729.0
# the exact doubles 10**0 .. 10**22, their Dekker halves, and int64 10**0 .. 10**17
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_INT10 = np.array([10**k for k in range(18)], dtype=np.int64)
_MANTISSA = np.uint64((1 << 52) - 1)
# "00" .. "99", and "0000" .. "9999" as little-endian uint32, so one gather writes four digits
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype="<u2")
_DIGITS4 = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view("<u4").ravel()


@dataclass
class LoadStats:
    """Audit counters from one load_embeddings call."""

    malformed: int = 0
    duplicates: int = 0
    zero_dropped: int = 0
    norm_overflow: int = 0  # finite rows kept by a raw load whose norm is inf
    header_mismatch: int = 0  # 1 if, with no limit below it, the header count != body lines


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
) -> EmbeddingSpace:
    """Load a ``.vec`` file into an EmbeddingSpace.

    The companion that write_embeddings leaves beside the file is served
    instead of the text when no limit is below the header count, its
    digests of the ``.vec`` and of its own payload hold, it has one word
    per row and every row norm is finite and nonzero. The text path would
    keep every such row as written and count nothing, so the result is the
    same bit for bit; in any other case the text is parsed.

    Keeps at most ``min(header count, limit)`` entries in file order.
    Trailing whitespace (fastText's trailing space, CRLF) is ignored.
    Duplicate tokens keep the first occurrence; lines with the wrong field
    count, a non-finite entry or, when normalizing, an overflowing norm are
    skipped as malformed; zero vectors are dropped when normalizing; a raw
    load keeps a finite row whose norm overflows. All are counted in the
    space's ``stats`` rather than aborting the load (published .vec files
    contain occasional tokens with embedded spaces). Unless a limit below
    the header count cuts the read short, a body whose line count differs
    from the header count is counted too, from the lines already read and
    at most one more.

    Args:
        path: UTF-8 text file, ``<count> <dim>`` header then one word per line.
        limit: optional cap on vocabulary size, at least 1.
        normalize: scale every vector to unit Euclidean norm.

    Raises:
        FileNotFoundError: missing file.
        ValueError: a limit below 1, unparsable header, non-positive
            dimensions, or a body of which no line loads.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"embedding file not found: {path}")
    served = _serve_companion(path, limit, normalize)
    return served if served is not None else _parse_vec(path, limit, normalize)


def _parse_vec(path: Path, limit: int | None, normalize: bool) -> EmbeddingSpace:
    """load_embeddings of the .vec text itself."""
    stats = LoadStats()
    words: list[str] = []
    seen: set[str] = set()
    body_lines = 0

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
        # a kept line is a token and dim fields, each after a space: over 2 dim bytes,
        # so a header count larger than the file cannot size the array
        vectors = np.empty((min(target, path.stat().st_size // (2 * dim)), dim))
        while len(words) < target:
            lines = [line.rstrip() for line in islice(fh, min(_CHUNK_LINES, target))]
            if not lines:
                break
            body_lines += len(lines)
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
            start = len(words)
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
            kept = np.take(block, keep, axis=0, out=vectors[start:len(words)])
            # only a raw load keeps a row whose squared norm overflows
            stats.norm_overflow += int(np.isinf(norms[keep]).sum())
            if normalize:
                kept /= norms[keep][:, None]
        if target == count:
            # the read stops before the end only after count words, so after at
            # least count lines: one more line then settles an equal count
            stats.header_mismatch = int(body_lines != count or fh.readline() != "")

    if not words and (stats.malformed or stats.zero_dropped):
        raise ValueError(
            f"no words loaded from {path}: {stats.malformed} malformed lines, "
            f"{stats.zero_dropped} zero vectors"
        )
    # the row views taken above are not used again, so the array shrinks in place
    vectors.resize((len(words), dim), refcheck=False)
    return EmbeddingSpace(words, vectors, normalized=normalize, stats=stats)


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


def _format_float_rows(matrix: np.ndarray) -> bytes:
    """The rows of a float64 matrix as text, each ended by "\n", its entries joined by " ".

    Byte for byte ``(" ".join(map(repr, row.tolist())) + "\n" for row in
    matrix)`` joined: each entry is its shortest round-trip repr, which
    float() reads back exactly. Entries with 1e-6 <= |x| < 10 that are not
    powers of two are formatted in numpy (_shortest_digits, _FIELDS), in
    blocks of whole rows of at most _FORMAT_BLOCK entries, or of one row;
    every other entry (zero, non-finite, subnormal, a power of two, or out
    of that range) takes its repr one at a time.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = len(matrix)
    if not matrix.size:
        return b"\n" * rows
    step = max(1, _FORMAT_BLOCK // matrix.shape[1])
    return b"".join(_format_block(matrix[i:i + step]) for i in range(0, rows, step))


def _format_block(block: np.ndarray) -> bytes:
    """_format_float_rows of a block of rows: each entry is laid out in a row of
    _FIELDS and its kept bytes are joined in order."""
    x = block.ravel()
    a = np.abs(x)
    decade = np.searchsorted(_DECADES, a, side="right") - 7  # floor(log10(a)), exactly
    # 1e-6 <= a < 10 (so normal and finite), and no power of two, whose rounding
    # interval is narrower below than above
    fast = (decade >= -6) & (decade <= 0) & ((a.view(np.uint64) & _MANTISSA) != 0)
    code = np.full(x.size, len(_FIELDS) - 1)
    fi = slice(None) if fast.all() else np.flatnonzero(fast)
    digits, p, decade = _shortest_digits(a[fi], decade[fi])
    code[fi] = (np.signbit(x[fi]) * 7 + decade + 6) * 17 + p - 1
    text, keep = _FIELDS[code], _FIELDS_KEPT[code]
    digits *= _INT10[17 - p]  # 17 digits, the first p of them significant
    lead, rest = np.divmod(digits, _INT10[16])
    high, low = np.divmod(rest, _INT10[8])
    text[fi, 6] = lead + ord("0")
    text.view("<u4")[fi, 2:6] = _DIGITS4[np.stack([high // 10**4, high % 10**4,
                                                   low // 10**4, low % 10**4], axis=1)]
    slow = np.flatnonzero(~fast)
    if slow.size:
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype="S24")
        text[slow, :24] = reprs[:, None].view(np.uint8)
        keep[slow, :24] = text[slow, :24] != 0
    text[:, 31] = ord(" ")
    text[block.shape[1] - 1::block.shape[1], 31] = ord("\n")
    return text[keep].tobytes()


def _shortest_digits(a: np.ndarray, decade: np.ndarray):
    """(N, p, E): the shortest decimal N * 10**(E+1-p) of p digits that reads back as
    each a, nearest a among those, an exact half to even N. E is the decade of the
    digits, floor(log10(a)) unless the nearest was 10**(floor(log10(a)) + 1).

    The nearest p-digit decimal reads back for every p at or above the
    shortest (a's rounding interval is symmetric), so p = 16 is tried, then
    15, then a binary search of 1..14; where 16 fails, 17 always reads back.
    """
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    parts = (a, a_hi, a - a_hi, np.ldexp(1.0, np.frexp(a)[1] - 54))  # the last is half an ulp
    digits, ok16 = _nearest_decimal(*parts, 15 - decade)
    more, ok = _nearest_decimal(*parts, np.where(ok16, 14, 16) - decade)
    p = np.where(ok16, 15 + ~ok, 17)
    digits = np.where(ok16 & ~ok, digits, more)
    idx = np.flatnonzero(ok16 & ok)
    lo, hi = np.ones(idx.size, np.int64), np.full(idx.size, 15)
    while idx.size:
        mid = (lo + hi) // 2
        found, ok = _nearest_decimal(*(part[idx] for part in parts), mid - 1 - decade[idx])
        digits[idx[ok]], p[idx[ok]] = found[ok], mid[ok]
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid + 1)
        idx, lo, hi = idx[lo < hi], lo[lo < hi], hi[lo < hi]
    up = digits == _INT10[p]  # rounded up to 10**p: the one digit 1, a decade higher
    digits[up], p[up] = 1, 1
    return digits, p, decade + up


def _nearest_decimal(a, a_hi, a_lo, half_ulp, s):
    """The integer N nearest each a * 10**s, and whether N * 10**-s reads back as a.

    a * 10**s is hi + lo exactly, Dekker's two-product against the exact
    power of ten: with a = m * 2**q (m < 2**53), a multiple of 2**(q+s),
    q + s < 0. The decimal reads back when its distance from a, scaled by
    10**s, is below half an ulp of a: 5**s * 2**(q+s-1), an odd multiple of
    2**(q+s-1) with at most 52 bits and at most hi * 2**-53. So the distance
    never equals that bound nor rounds onto it, and its one rounding keeps
    the comparison. From a bound of 1/2 on, hi >= 2**52 is an integer, even
    under a half in lo, and rint takes lo half to even; below it, a half
    rounded the wrong way is no nearer than 1/2 - 2**-54, and neither
    neighbour reads back.
    """
    power, p_hi, p_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    hi = a * power
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    whole = np.floor(hi)
    frac = hi - whole  # exact
    step = np.rint(frac + lo)
    ok = np.abs((frac - step) + lo) < half_ulp * power
    return whole.astype(np.int64) + step.astype(np.int64), ok


def _least_double_at_least(k: int) -> float:
    """The smallest double >= 10**k."""
    d = float(f"1e{k}")
    num, den = d.as_integer_ratio()
    return d if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else math.nextafter(d, math.inf)


def _field_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Per code (sign * 7 + E + 6) * 17 + p - 1, the 32 bytes of a repr of p digits in
    decade E, -6 <= E <= 0, and which of them it keeps.

    Columns: 0 "-", 1-2 "0.", 3-5 zeros, 6 the first digit, 7 ".", 8-23 the
    other digits, 24 the "0" of "d.0", 25-28 "e-0X", 31 the separator. The
    last code keeps only the separator, for a repr written over columns 0-23.
    """
    text, keep = [], []
    for sign in (0, 1):
        for decade in range(-6, 1):
            exp = decade <= -5  # repr's exponent form below 1e-4
            fixed = not exp and decade < 0  # "0.", then -decade - 1 zeros
            for p in range(1, 18):
                text.append(b"-0.000d.dddddddddddddddd0e-0%c\0\0\0" % (ord("0") - decade))
                keep.append(bytes([
                    sign, fixed, fixed, *(fixed and decade <= z for z in (-2, -3, -4)),
                    True, decade == 0 or (exp and p > 1), *(i < p for i in range(1, 17)),
                    decade == 0 and p == 1, exp, exp, exp, exp, False, False, True,
                ]))
    text.append(bytes(32))
    keep.append(bytes(31) + b"\1")
    return (np.frombuffer(b"".join(text), np.uint8).reshape(-1, 32),
            np.frombuffer(b"".join(keep), bool).reshape(-1, 32))


def _float_fields(body: str, dim: int) -> list[float]:
    """The " "-separated floats of a .vec line body; all NaN (malformed) if float() fails."""
    try:
        return [float(x) for x in body.split(" ")]
    except ValueError:
        return [math.nan] * dim


# a double is >= _DECADES[j] exactly when it is >= 10**(j - 6)
_DECADES = np.array([_least_double_at_least(k) for k in range(-6, 2)])
_FIELDS, _FIELDS_KEPT = _field_layouts()


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


def _unit_query(space: EmbeddingSpace, query: np.ndarray) -> np.ndarray:
    """The query over its norm, checked against the space's dimension."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (space.dim,):
        raise ValueError(f"query dimension {query.shape} != space dim {space.dim}")
    qnorm = np.linalg.norm(query)
    if qnorm == 0.0:
        raise ValueError("cosine similarity undefined for zero query")
    return query / qnorm


def _cosines(space: EmbeddingSpace, rows: np.ndarray | None, unit: np.ndarray) -> np.ndarray:
    """Cosines of a unit query to the space's rows (all of them for None).

    Each score is one ``np.vecdot`` row product, so a row scores the same
    bits in any subset of rows.
    """
    vectors = space.vectors if rows is None else space.vectors[rows]
    scores = np.vecdot(vectors, unit)
    if not space.normalized:
        scores = scores / (space.row_norms if rows is None else space.row_norms[rows])
    return np.clip(scores, -1.0, 1.0)


def cosines_to_all(space: EmbeddingSpace, query: np.ndarray) -> np.ndarray:
    """Cosine of a query vector against every row of the space."""
    return _cosines(space, None, _unit_query(space, query))


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


def top_k_rows(
    space: EmbeddingSpace, queries: Iterable[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and cosines of the k best rows for each query, best first.

    Equal, bit for bit, to ranking ``cosines_to_all`` of each query with
    ``top_k_indices``, whatever the block size or BLAS thread count. Blocks
    of unit queries are scored with one GEMM, which only selects candidates:
    two summation orders of one d-term dot product differ by at most
    2 gamma_d |q| |v|, so every row whose GEMM cosine lies within twice
    that margin of the query's k-th best GEMM cosine is rescored with
    ``cosines_to_all``'s row products and ranked with ``top_k_indices``.
    The margin holds for rows whose norm is finite and not tiny; in a raw
    space any other nonzero row is always a candidate, and a query whose
    unit vector is not finite is rescored over every row. Queries are read
    lazily, one block at a time. A space of fewer than k rows gives all of
    them.

    Returns:
        (indices, scores), each of shape (queries, min(k, len(space))).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(space)
    width = min(k, n)
    block = _block_queries(space)
    forced = _forced_candidates(space)
    # delta = 2 gamma_m |q| max|v|, gamma_m = m u / (1 - m u) with u = 2^-53, bounds
    # how far two summation orders of one cosine differ; m = 2d+4 in place of d
    # also covers the norms it uses, a raw space's division and its own rounding
    mu = (2 * space.dim + 4) * 2.0**-53
    scale = 2.0 * mu / (1.0 - mu)
    if space.normalized and n:
        scale *= float(space.row_norms.max())
    indices: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    it = iter(queries)
    while units := [_unit_query(space, q) for q in islice(it, block)]:
        unit = np.array(units)
        candidates = np.ones((len(units), n), dtype=bool)
        if k < n:
            with np.errstate(over="ignore", invalid="ignore"):  # forced rows are reset below
                gemm = unit @ space.vectors.T
                if not space.normalized:
                    gemm /= space.row_norms
            np.clip(gemm, -1.0, 1.0, out=gemm)
            gemm[:, forced] = -np.inf
            kth = np.partition(gemm, n - k, axis=1)[:, n - k]
            margin = 2.0 * scale * np.sqrt(np.vecdot(unit, unit))
            finite = np.isfinite(unit).all(axis=1)
            np.greater_equal(gemm, (kth - margin)[:, None], out=candidates, where=finite[:, None])
            candidates[:, forced] = True
        for row, mask in zip(unit, candidates):
            rows = np.flatnonzero(mask)
            cos = _cosines(space, rows, row)
            top = top_k_indices(cos, width)
            indices.append(rows[top])
            scores.append(cos[top])
    shape = (len(indices), width)
    return (np.array(indices, dtype=np.intp).reshape(shape),
            np.array(scores, dtype=np.float64).reshape(shape))


def _block_queries(space: EmbeddingSpace) -> int:
    """Queries per top_k_rows block.

    A block fills _BLOCK_BYTES, or an eighth of a larger space's matrix: the
    GEMM then reads the matrix once per about d/16 queries rather than per
    query, and the block adds at most an eighth to the space's memory.
    """
    block_bytes = max(_BLOCK_BYTES, space.vectors.nbytes // 8)
    return max(1, block_bytes // (8 * (space.dim + 2 * len(space))))


def _forced_candidates(space: EmbeddingSpace) -> np.ndarray:
    """Rows of a raw space outside the margin's reach: nonzero with a tiny or inf norm."""
    if space.normalized:
        return np.empty(0, dtype=np.intp)
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
    vectorized pass per block of rows (_format_float_rows). Beside the file
    goes its binary companion ``<name>.vec.npz``: ``words``, the UTF-8
    words joined by newlines, and ``vectors``, the float64 matrix, under
    the sha256 of the text as written. It is written only when the text
    keeps every word as written (no word is empty or holds whitespace);
    otherwise any stale companion is removed.
    """
    path = Path(path)
    digest = hashlib.sha256()
    step = max(1, _FORMAT_BLOCK // max(space.dim, 1))
    with path.open("wb") as fh:
        def write(text: bytes) -> None:
            fh.write(text)
            digest.update(text)

        write(f"{len(space)} {space.dim}\n".encode())
        for start in range(0, len(space), step):
            rows = _format_float_rows(space.vectors[start:start + step]).split(b"\n")
            write(b"".join(w.encode("utf-8") + b" " + row + b"\n"
                           for w, row in zip(space.words[start:start + step], rows)))
    companion = path.with_name(path.name + ".npz")
    if not all(w and w.split() == [w] for w in space.words):
        companion.unlink(missing_ok=True)
        return
    words = np.frombuffer("\n".join(space.words).encode("utf-8"), dtype=np.uint8)
    _write_companion(companion, [digest.hexdigest()], {"words": words, "vectors": space.vectors})


def _serve_companion(path: Path, limit: int | None, normalize: bool) -> EmbeddingSpace | None:
    """load_embeddings from the companion of a .vec, or None where the text must be parsed."""
    if limit is not None:
        with path.open("rb") as fh:
            count = fh.readline().split()[:1]
        # a limit below the row count is left to the text, which stops reading there
        if not (count and count[0].isdigit() and limit >= int(count[0])):
            return None
    if (arrays := _read_companion(path.with_name(path.name + ".npz"), [path])) is None:
        return None
    words, vectors = arrays["words"], arrays["vectors"]
    tokens = words.tobytes().decode("utf-8").split("\n") if words.size else []
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(vectors, vectors))
    # the text keeps each such row as written and counts nothing; an empty or
    # zero-width matrix is left to the text's own header checks
    usable = norms.size and np.all(np.isfinite(norms) & (norms != 0))
    if len(tokens) != len(vectors) or not usable:
        return None
    if normalize:
        vectors /= norms[:, None]
    return EmbeddingSpace(tokens, vectors, normalized=normalize, stats=LoadStats())


def _write_companion(path: Path, sources: list[str], arrays: dict[str, np.ndarray]) -> None:
    """Write arrays to the .npz at path as a binary copy of text files whose hex sha256
    digests are sources, with a ``digests`` member: sources, then the payload digest."""
    digests = np.array([*sources, _payload_digest(arrays)])
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in {**arrays, "digests": digests}.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_TIME), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.ascontiguousarray(array), allow_pickle=False)


def _read_companion(path: Path, sources: list[Path]) -> dict[str, np.ndarray] | None:
    """The arrays _write_companion wrote to path for these sources, in its order, or None
    unless every digest holds: the caller then parses the sources' text."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        digests = arrays.pop("digests").tolist()
        return arrays if digests == [*map(_sha256, sources), _payload_digest(arrays)] else None
    except Exception:  # a damaged companion of any kind: the text stays the authority
        return None


def _payload_digest(arrays: dict[str, np.ndarray]) -> str:
    """Hex sha256 of arrays: each one's name, dtype, shape and bytes, by name."""
    digest = hashlib.sha256()
    for name, array in sorted(arrays.items()):
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read in chunks (hashlib.file_digest needs Python 3.11)."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()
