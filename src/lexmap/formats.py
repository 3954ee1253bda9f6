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
import re
import struct
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
# a word a .vec line holds back as written: no " ", line break or lone surrogate (not UTF-8)
_VEC_WORD = re.compile("[^ \n\r\ud800-\udfff]+")
# bytes read per digest update
_DIGEST_CHUNK = 1 << 20
# a fixed member timestamp keeps a companion's bytes deterministic, unlike np.savez
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)
# entries per _format_float_rows block: bounds its (block, 32) byte layout
_FORMAT_BLOCK = 1 << 14
# 2**27 + 1 splits a double into two halves whose products are exact (Dekker)
_SPLIT = 134217729.0
# "00" .. "99", and "0000" .. "9999" as little-endian uint32, so one gather writes four digits
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype="<u2")
_DIGITS4 = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view("<u4").ravel()


@dataclass
class LoadStats:
    """Audit counters from one load_embeddings call."""

    malformed: int = 0
    duplicates: int = 0
    zero_dropped: int = 0
    norm_overflow: int = 0  # finite rows kept whose squared norm overflows
    header_mismatch: int = 0  # 1 if, with no limit below it, the header count != body lines


# a space as read_vec gives it: its words, float64 rows and load counters
VecParts = NamedTuple("VecParts", [("words", tuple), ("vectors", np.ndarray), ("stats", LoadStats)])


def read_vec(path: Path, limit: int | None, normalize: bool) -> VecParts:
    """load_embeddings of path, rows as written: from the companion where it serves, else text."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if not path.is_file():
        raise FileNotFoundError(f"embedding file not found: {path}")
    return _serve_companion(path, limit) or _parse_vec(path, limit, normalize)


def _parse_vec(path: Path, limit: int | None, normalize: bool) -> VecParts:
    """read_vec of the .vec text itself: its rows as written, but for those it skips."""
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
            block = _parse_float_rows(bodies, dim)
            if block is None:
                block = np.array([_float_fields(body, dim) for body in bodies]).reshape(-1, dim)
            with np.errstate(over="ignore"):
                norms = np.sqrt(np.vecdot(block, block))
            finite = np.isfinite(block).all(axis=1)
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
                if normalize and norms[j] == 0.0 and not block[j].any():  # squares may underflow
                    stats.zero_dropped += 1
                    continue
                seen.add(token)
                words.append(token)
                keep.append(j)
            np.take(block, keep, axis=0, out=vectors[start:len(words)])
            stats.norm_overflow += int(np.isinf(norms[keep]).sum())
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


def _parse_float_rows(rows: list[str], width: int) -> np.ndarray | None:
    """Parse rows of ``width`` " "-joined floats at once, or None where float() might differ.

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
        block = np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (len(rows), width) else None


def _format_float_rows(matrix: np.ndarray) -> bytes:
    """The rows of a float64 matrix as text, each ended by "\n", its entries joined by " ".

    Byte for byte ``(" ".join(map(repr, row.tolist())) + "\n" for row in
    matrix)`` joined: each entry is its shortest round-trip repr, which
    float() reads back exactly. Entries with 1e-6 <= |x| < 10 are formatted
    in numpy (_shortest_digits, _LAYOUT), in blocks of whole rows of at most
    _FORMAT_BLOCK entries, or of one row; every other entry (zero,
    non-finite, subnormal, or out of that range) takes its repr one at a
    time.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = len(matrix)
    if not matrix.size:
        return b"\n" * rows
    step = max(1, _FORMAT_BLOCK // matrix.shape[1])
    return b"".join(_format_block(matrix[i:i + step]) for i in range(0, rows, step))


def dumps_json(obj: dict) -> str:
    """``json.dumps`` of a dict, byte for byte, where a float64 array value stands for its
    ``tolist()``.

    JSON writes a float as its repr, and _format_float_rows writes exactly
    repr, so each array of finite entries is written in one vectorized pass.
    """
    items = (f"{json.dumps(key)}: {_json_value(value)}" for key, value in obj.items())
    return "{" + ", ".join(items) + "}"


def _json_value(value) -> str:
    """json.dumps of a value; a 1-D or 2-D float64 array of finite entries from its rows' text."""
    if not isinstance(value, np.ndarray):
        return json.dumps(value)
    if value.dtype != np.float64 or value.ndim not in (1, 2) or not np.isfinite(value).all():
        return json.dumps(value.tolist())  # JSON writes NaN and Infinity, repr nan and inf
    text = _format_float_rows(np.atleast_2d(value)).decode("ascii").replace(" ", ", ")
    rows = [f"[{row}]" for row in text.split("\n")[:-1]]
    return rows[0] if value.ndim == 1 else f"[{', '.join(rows)}]"


def _format_block(block: np.ndarray) -> bytes:
    """_format_float_rows of a block of rows: each entry is laid out in a 32-byte row
    of _LAYOUT, whose dropped bytes are 0, and the other bytes are joined in order."""
    x = block.ravel()
    a = np.abs(x)
    # j = 2 * (sign and exponent bits) + 1 where |x| reaches the binade's second decade
    j = x.view(np.uint64) >> 52
    above = a >= _NEXT_DECADE.take(j)
    j += j
    j |= above
    base = _CODE.take(j)
    slow = np.flatnonzero(base < 0)  # outside 1e-6 <= a < 10, so zero, subnormal or not finite
    if slow.size:  # a stand-in from the fast range keeps the digit search finite
        a[slow], j[slow] = 1.5, 2 * 1023
    digits, p = _shortest_digits(a, j)
    code = base + p
    code[slow] = len(_LAYOUT) - 1
    text = _LAYOUT.take(code, axis=0)
    # the first digit, then the other 16 as four groups of four, each one gather of _DIGITS4
    halves = np.empty((2, len(x)), np.int32)
    np.floor_divide(digits, 10**8, out=halves[0], casting="unsafe")
    halves[1] = digits - halves[0] * np.int64(10**8)
    lead = halves[0] // 10**8
    halves[0] -= lead * 10**8
    text[:, 6] |= lead.astype(np.uint8)
    fours = halves // 10**4
    halves -= fours * 10**4
    columns = text.view(np.uint32)
    for column, group in enumerate((fours[0], halves[0], fours[1], halves[1]), start=2):
        columns[:, column] &= _DIGITS4.take(group)  # the layout masks the digits past the p-th
    if slow.size:
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype="S24")
        text[slow, :24] = reprs[:, None].view(np.uint8)
    text[block.shape[1] - 1::block.shape[1], 31] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _shortest_digits(a: np.ndarray, j: np.ndarray):
    """(D, p): the shortest decimal N * 10**(E+1-p) of p digits that reads back as each
    a, nearest a among those, an exact half to even N, as D = N * 10**(17-p); E =
    floor(log10(a)) is the decade j gives.

    One exact product gives V = a * 10**(16-E) = hi + lo, in [10**16, 10**17),
    and from it N17, the nearest integer, and r = V - N17; _nearest_decimal
    derives the 16- and 15-digit candidates from N17 mod 100 and r. The
    nearest p-digit decimal reads back for every p at or above the shortest
    (a's rounding interval is symmetric), and 17 digits always do. From 15
    digits down, multiples of 10**(17-p) lie farther apart than the interval
    is wide, so where N15 reads back, the shortest is N15 without its
    trailing zeros. No N is 10**p, a decade up: that would take a double
    below 10**(E+1) that reads back as it, and the doubles nearest 1e-5,
    1e-4, ..., 1 are at or above their powers of ten. Powers of two, whose
    interval is narrower below than above, are exact decimals of at most
    14 digits here (2**-19 .. 2**3), each N15 at distance 0.
    """
    power, power_hi, power_lo = _POW.take(j), _POW_HI.take(j), _POW_LO.take(j)
    hi = a * power
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    # Dekker's two-product: hi + lo is a * power exactly
    lo = a_hi * power_hi
    lo -= hi
    part = a_hi * power_lo
    lo += part
    np.multiply(a_lo, power_hi, out=part)
    lo += part
    np.multiply(a_lo, power_lo, out=part)
    lo += part
    # hi >= 10**16 > 2**53 is an even integer, so rint of lo takes V half to even
    whole = np.rint(lo)
    n17 = hi.astype(np.int64)
    n17 += whole.astype(np.int64)
    lo -= whole  # r, exactly: lo - rint(lo) is a multiple of lo's ulp and no larger than lo
    half = _HALF_ULP.take(j)
    hundreds = n17 // 100
    last2 = (n17 - hundreds * 100).astype(np.float64)
    tens = np.floor(last2 * 0.1)  # exactly last2 // 10 below 100
    units = last2 - tens * 10
    off16, ok16 = _nearest_decimal(units, lo, half, 10)
    # an exact half (r = 0, units 5) goes to the even N16, by the tens digit; from
    # 100 on, a half is 50 away, beyond any half ulp (below 11.1 here)
    tie = (lo == 0) & (units == 5)
    if tie.any():
        off16[tie & (tens % 2 == 1)] -= 10
    off15, ok15 = _nearest_decimal(last2, lo, half, 100)
    digits = n17 - np.where(ok15, off15, off16 * ok16).astype(np.int64)
    p = 17 - ok16.view(np.int8) - ok15.view(np.int8)
    at = np.flatnonzero(ok15)
    rest = digits[at] // 100
    while at.size:  # strip N15's trailing zeros, one digit a pass
        shorter = rest // 10
        zero = rest == shorter * 10
        at, rest = at[zero], shorter[zero]
        p[at] -= 1
    return digits, p


def _nearest_decimal(d, r, half, k):
    """(e, ok) for V = n17 + r, d = n17 mod k: the multiple of k nearest V (an exact
    half down) is n17 - e, and ok is whether it reads back.

    With a = m * 2**q (m < 2**53), V is a multiple of g = 2**(q+16-E) <
    2**-32, and so is the distance D = V - (n17 - e) = e + r. The decimal
    reads back when |D| is below half an ulp of a, scaled to V: half =
    5**(16-E) * g / 2, an odd multiple of g / 2 below 2**52 * g. e, an
    integer below k in size, and r are exact, so D is one rounded sum:
    where |D| < 2**53 * g, D is a double and the sum is exact; elsewhere
    the rounded sum is at least 2**53 * g, above half. So the comparison
    is exact, and D never equals half. Whether the multiple above is
    nearer compares r with the integer k / 2 - d, exactly too.
    """
    e = d - k * (r > k / 2 - d)
    return e, np.abs(e + r) < half


def _least_double_at_least(k: int) -> float:
    """The smallest double >= 10**k."""
    d = float(f"1e{k}")
    num, den = d.as_integer_ratio()
    return d if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else math.nextafter(d, math.inf)


def _decade_tables():
    """The tables _format_block reads by a double's sign and exponent bits t, and by
    j = 2 * t + 1 where |x| >= _NEXT_DECADE[t], else 2 * t.

    A binade spans a factor of 2, so it meets at most two decades:
    _NEXT_DECADE[t] is the least double at or above the power of ten that
    begins the second, and j gives the decade E of |x|. Per j: _CODE is
    the first _LAYOUT code of (sign, E), or -1 outside -6 <= E <= 0, and for
    those E, _POW is 10**(16-E) (exact up to 10**22) and _HALF_ULP half an
    ulp of the binade times it, exactly too.
    """
    next_decade, code = np.full(1 << 12, math.inf), np.full(1 << 13, -1)
    power, half_ulp = np.zeros(1 << 13), np.zeros(1 << 13)
    least = {k: _least_double_at_least(k) for k in range(-7, 2)}
    for biased in range(1003, 1027):  # the binades of 2**-20 .. 2**3 meet 1e-6 <= |x| < 10
        first = max(k for k, bound in least.items() if 2.0 ** (biased - 1023) >= bound)
        for t in (biased, 1 << 11 | biased):
            next_decade[t] = least[first + 1]
            for above in (0, 1):
                decade = first + above
                if -6 <= decade <= 0:
                    code[2 * t + above] = ((t >> 11) * 7 + decade + 6) * 18
                    power[2 * t + above] = float(10 ** (16 - decade))
                    half_ulp[2 * t + above] = math.ldexp(power[2 * t + above], biased - 1076)
    return next_decade, code, power, half_ulp


def _layout() -> np.ndarray:
    """Per code (sign * 7 + E + 6) * 18 + p, the 32 bytes of a repr of p digits in
    decade E, -6 <= E <= 0, with 0 for each byte it drops and 0xff for each digit
    it keeps (a mask for the digits).

    Columns: 0 "-", 1-2 "0.", 3-5 zeros, 6 the "0" the first digit is added
    to, 7 ".", 8-23 the other 16 digits (the "0" of "d.0" is the second
    digit), 24-27 "e-0X", 31 the separator. The last code keeps only the
    separator, for a repr written over columns 0-23.
    """
    rows = []
    for sign in (0, 1):
        for decade in range(-6, 1):
            exp = decade <= -5  # repr's exponent form below 1e-4
            fixed = not exp and decade < 0  # "0.", then -decade - 1 zeros
            text = b"-0.0000." + b"\xff" * 16 + b"e-0%c\0\0\0 " % (ord("0") - decade)
            rows.append(bytes(32))  # no code has p = 0
            for p in range(1, 18):
                keep = [
                    sign, fixed, fixed, *(fixed and decade <= z for z in (-2, -3, -4)),
                    True, decade == 0 or (exp and p > 1),
                    *(i < p or (decade == 0 and p == 1 == i) for i in range(1, 17)),
                    exp, exp, exp, exp, False, False, False, True,
                ]
                rows.append(bytes(c if k else 0 for c, k in zip(text, keep)))
    rows.append(bytes(31) + b" ")
    return np.frombuffer(b"".join(rows), np.uint8).reshape(-1, 32)


def _float_fields(body: str, dim: int) -> list[float]:
    """The " "-separated floats of a .vec line body; all NaN (malformed) if float() fails."""
    try:
        return [float(x) for x in body.split(" ")]
    except ValueError:
        return [math.nan] * dim


_NEXT_DECADE, _CODE, _POW, _HALF_ULP = _decade_tables()
_POW_HI = _POW * _SPLIT - (_POW * _SPLIT - _POW)
_POW_LO = _POW - _POW_HI
_LAYOUT = _layout()


def write_vec(space, path: Path) -> None:
    """write_embeddings of a space: any object with its words, vectors and dim."""
    if bad := [word for word in space.words if not _VEC_WORD.fullmatch(word)]:
        raise ValueError(f"a .vec word is nonempty UTF-8 without a space or line break: {bad[0]!r}")
    words = "\n".join(space.words).encode("utf-8")  # _VEC_WORD keeps "\n" out of a word
    digest = _write_hashed(path, _vec_text(space, words.split(b"\n")))
    _write_companion(path.with_name(path.name + ".npz"), [digest],
                     {"words": np.frombuffer(words, dtype=np.uint8), "vectors": space.vectors})


def _vec_text(space, words: list[bytes]) -> Iterable[bytes]:
    """The .vec text of a space, its words given UTF-8 encoded: a header, then blocks of lines."""
    yield f"{len(space.words)} {space.dim}\n".encode()
    step = max(1, _FORMAT_BLOCK // max(space.dim, 1))
    for start in range(0, len(space.words), step):
        rows = _format_float_rows(space.vectors[start:start + step]).split(b"\n")
        yield b"".join(w + b" " + row + b"\n" for w, row in zip(words[start:start + step], rows))


def _write_hashed(path: Path, chunks: Iterable[bytes]) -> str:
    """Write the chunks to path; the hex sha256 of the bytes written."""
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _serve_companion(path: Path, limit: int | None) -> VecParts | None:
    """read_vec from the companion of a .vec, or None where the text must be parsed."""
    companion = path.with_name(path.name + ".npz")
    if not companion.is_file():
        return None
    with path.open("rb") as fh:
        count = fh.readline().split()[:1]
        # a limit below the row count is left to the text, which stops reading there
        if limit is not None and not (count and count[0].isdigit() and limit >= int(count[0])):
            return None
        # a .vec is hashed only when a companion may serve it: a real one runs to hundreds of MB
        digest = _sha256(fh)
    if (arrays := _read_companion(companion, [digest])) is None:
        return None
    words, vectors = arrays["words"], arrays["vectors"]
    tokens = words.tobytes().decode("utf-8").split("\n") if words.size else []
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(vectors, vectors))
    # the text keeps each such row as written and counts nothing; an empty or
    # zero-width matrix is left to the text's own header checks
    usable = norms.size and np.all(np.isfinite(norms) & vectors.any(axis=1))
    if len(tokens) != len(vectors) or not usable:
        return None
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
        with path.open("rb") as fh, zipfile.ZipFile(fh) as zf:
            arrays = {info.filename.removesuffix(".npy"): _stored_member(fh, info)
                      for info in zf.infolist()}
        digests = arrays.pop("digests").tolist()
        return arrays if digests == [*sources, _payload_digest(arrays)] else None
    except Exception:  # a damaged companion of any kind: the text stays the authority
        return None


def _stored_member(fh, info: zipfile.ZipInfo) -> np.ndarray:
    """The .npy array of a stored (uncompressed) zip member, read in place from fh.

    zipfile would check a CRC-32 over the bytes and copy them; the payload
    digest checks them instead. A compressed member raises ValueError.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{info.filename} is compressed")
    fh.seek(info.header_offset)
    header = struct.unpack(zipfile.structFileHeader, fh.read(zipfile.sizeFileHeader))
    fh.seek(header[10] + header[11], io.SEEK_CUR)  # past the member's name and extra field
    return np.lib.format.read_array(fh, allow_pickle=False)


def _payload_digest(arrays: dict[str, np.ndarray]) -> str:
    """Hex sha256 of arrays: each one's name, dtype, shape and bytes, by name."""
    digest = hashlib.sha256()
    for name, array in sorted(arrays.items()):
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _sha256(fh) -> str:
    """Hex sha256 of a binary file from its start, read in chunks (hashlib.file_digest
    needs Python 3.11)."""
    fh.seek(0)
    digest = hashlib.sha256()
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
        return float(text) if text in ("nan", "inf", "-inf") else ast.literal_eval(text)
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
        matrix = _parse_float_rows(rows, d_src)
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
