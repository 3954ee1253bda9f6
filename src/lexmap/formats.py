"""lexmap's file formats: ``.vec`` spaces, map texts, atlases and their binary companions.

The spaces, maps and atlases themselves, with the public load and save
functions, live in the modules above, so the readers here return plain parts
and the writers take any object with the fields they write.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import math
import zipfile
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

# .vec lines parsed per np.loadtxt call: bounds the text and floats held at once
_CHUNK_LINES = 256
# np.loadtxt strips these from a field as whitespace, float() rejects them
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
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


# a space as read_vec gives it: its words, float64 rows and load counters
VecParts = NamedTuple("VecParts", [("words", tuple), ("vectors", np.ndarray), ("stats", LoadStats)])


def read_vec(path: Path, limit: int | None, normalize: bool) -> VecParts:
    """load_embeddings of path: from its companion where that serves, else from the text."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if not path.is_file():
        raise FileNotFoundError(f"embedding file not found: {path}")
    return _serve_companion(path, limit, normalize) or _parse_vec(path, limit, normalize)


def _parse_vec(path: Path, limit: int | None, normalize: bool) -> VecParts:
    """read_vec of the .vec text itself."""
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
    return VecParts(tuple(words), vectors, stats)


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


def write_vec(space, path: Path) -> None:
    """write_embeddings of a space: any object with its words, vectors and dim."""
    digest = _write_hashed(path, _vec_text(space))
    companion = path.with_name(path.name + ".npz")
    if not all(w and w.split() == [w] for w in space.words):
        companion.unlink(missing_ok=True)
        return
    words = np.frombuffer("\n".join(space.words).encode("utf-8"), dtype=np.uint8)
    _write_companion(companion, [digest], {"words": words, "vectors": space.vectors})


def _vec_text(space) -> Iterable[bytes]:
    """The .vec text of a space: its header, then blocks of whole lines."""
    yield f"{len(space.words)} {space.dim}\n".encode()
    step = max(1, _FORMAT_BLOCK // max(space.dim, 1))
    for start in range(0, len(space.words), step):
        rows = _format_float_rows(space.vectors[start:start + step]).split(b"\n")
        yield b"".join(w.encode("utf-8") + b" " + row + b"\n"
                       for w, row in zip(space.words[start:start + step], rows))


def _write_hashed(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to path; the hex sha256 of the bytes written."""
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _serve_companion(path: Path, limit: int | None, normalize: bool) -> VecParts | None:
    """read_vec from the companion of a .vec, or None where the text must be parsed."""
    if limit is not None:
        with path.open("rb") as fh:
            count = fh.readline().split()[:1]
        # a limit below the row count is left to the text, which stops reading there
        if not (count and count[0].isdigit() and limit >= int(count[0])):
            return None
    companion = path.with_name(path.name + ".npz")
    # a .vec is hashed only when a companion may serve it: a real one runs to hundreds of MB
    if not companion.is_file() or (arrays := _read_companion(companion, [_sha256(path)])) is None:
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
    return VecParts(tuple(tokens), vectors, LoadStats())


def _write_companion(path: Path, sources: list[str], arrays: dict[str, np.ndarray]) -> None:
    """Write arrays to the .npz at path as a binary copy of text files whose hex sha256
    digests are sources, with a ``digests`` member: sources, then the payload digest."""
    digests = np.array([*sources, _payload_digest(arrays)])
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in {**arrays, "digests": digests}.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_TIME), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.ascontiguousarray(array), allow_pickle=False)


def _read_companion(path: Path, sources: list[str]) -> dict[str, np.ndarray] | None:
    """The arrays _write_companion wrote to path for text files whose hex sha256 digests
    are sources, in its order, or None unless every digest holds: the caller then
    parses the text."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        digests = arrays.pop("digests").tolist()
        return arrays if digests == [*sources, _payload_digest(arrays)] else None
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


def write_map(m, path: Path) -> None:
    """save_map of a map: any object with LinearMap's fields."""
    path.write_bytes(_map_text(m))


def _map_text(m) -> bytes:
    """The bytes save_map writes for a map."""
    lines = [f"{m.d_tgt} {m.d_src}", f"# trainer={m.trainer}", f"# anchor={m.anchor}",
             f"# train_size={m.train_size}"]
    if m.final_loss is not None:
        lines.append(f"# final_loss={m.final_loss!r}")
    lines += [f"# {key}={value!r}" for key, value in sorted(m.hyperparams.items())]
    return "".join(line + "\n" for line in lines).encode("utf-8") + _format_float_rows(m.matrix)


def _literal(text: str):
    """The value whose repr save_map wrote, or text itself if it is no literal."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, TypeError):
        return text


def read_map(path: Path, data: bytes | None = None, matrix: np.ndarray | None = None) -> dict:
    """load_map's LinearMap fields of the map text at path, parsed from data, the file's
    bytes, where given. A given matrix stands in for the rows, which go unparsed, so data
    then need only reach the line of the last '#'.

    The header, its shape check against the matrix and the '#' metadata are
    read from the text either way, as the file reads in text mode.
    """
    if data is None:
        if not path.is_file():
            raise FileNotFoundError(f"map file not found: {path}")
        data = path.read_bytes()
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(x.isdecimal() and int(x) > 0 for x in header):
            raise ValueError(f"bad map header in {path}: expected two positive integers")
        d_tgt, d_src = int(header[0]), int(header[1])
        meta: dict[str, str] = {}
        rows: list[str] = []
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            elif line and matrix is None:
                rows.append(line)
    if matrix is None:
        # save_map's single spaces; other spacing fails the bulk parse and is split per entry
        matrix = _parse_float_rows(rows, d_src, " ")
        try:
            if matrix is None:
                matrix = np.array([[float(v) for v in line.split()] for line in rows], dtype=np.float64)
        except ValueError as exc:  # a non-numeric entry, or rows of unequal length
            raise ValueError(f"bad map body in {path}: {exc}") from None
    if matrix.shape != (d_tgt, d_src):
        raise ValueError(f"bad map body in {path}: shape {matrix.shape} != header ({d_tgt}, {d_src})")

    trainer = meta.pop("trainer", "unspecified")
    anchor = meta.pop("anchor", "global")
    try:
        train_size = int(meta.pop("train_size", "0"))
        final_loss_raw = meta.pop("final_loss", None)
        final_loss = float(final_loss_raw) if final_loss_raw is not None else None
    except ValueError as exc:
        raise ValueError(f"bad map metadata in {path}: {exc}") from None
    return dict(
        matrix=matrix,
        trainer=trainer,
        anchor=anchor,
        hyperparams={key: _literal(value) for key, value in meta.items()},
        train_size=train_size,
        final_loss=final_loss,
    )


def _map_head(path: Path) -> tuple[str, bytes] | None:
    """The hex sha256 of a map text and its bytes through the line of its last '#', past
    which no line holds metadata; None if path is no file."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    head = data.find(b"\n", max(data.rfind(b"#"), 0)) + 1
    return hashlib.sha256(data).hexdigest(), data[:head or None]


def write_atlas(atlas, directory: Path) -> None:
    """save_atlas of an atlas: any object with MapAtlas' entries and fallback."""
    directory.mkdir(parents=True, exist_ok=True)
    for stale in [*directory.glob("map_[0-9][0-9][0-9][0-9]*.txt"), directory / "map_global.txt"]:
        stale.unlink(missing_ok=True)
    manifest: dict = {"entries": [], "fallback": None}
    maps: dict = {}  # file -> map, in stack order
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
    digests = [_write_hashed(directory / filename, [_map_text(m)]) for filename, m in maps.items()]
    stack = np.array([m.matrix for m in maps.values()])  # the maps share one shape
    _write_companion(directory / "maps.npz", digests, {"maps": stack})
    with (directory / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def read_atlas(directory: Path) -> tuple[list[tuple[str, np.ndarray, dict]], dict | None]:
    """load_atlas of directory: (anchor word, anchor vector, map fields) per entry, and the
    fallback's map fields or None. Where maps.npz holds, each map text is read once."""
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"atlas manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        items = [(item["anchor"], item["file"], np.array(item["vector"], dtype=np.float64))
                 for item in manifest["entries"]]
        fallback = manifest.get("fallback")
        files = [file for _, file, _ in items] + ([fallback] if fallback else [])
        if not all(isinstance(name, str) for name in [*(a for a, _, _ in items), *files]):
            raise TypeError("anchor, file and fallback entries must be strings")
    except KeyError as exc:
        raise ValueError(f"bad atlas manifest in {manifest_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad atlas manifest in {manifest_path}: {exc}") from None
    paths = [directory / file for file in files]
    companion = directory / "maps.npz"
    heads = [_map_head(path) for path in paths] if companion.is_file() else None
    served = heads and None not in heads and _read_companion(companion, [d for d, _ in heads])
    if served:
        maps = [read_map(path, head, matrix)
                for path, (_, head), matrix in zip(paths, heads, served["maps"])]
    else:
        maps = [read_map(path) for path in paths]
    entries = [(anchor, vector, m) for (anchor, _, vector), m in zip(items, maps)]
    return entries, maps[-1] if fallback else None
