"""Property tests of the bulk text parsing and formatting of .vec and map files.

``load_embeddings`` and ``load_map`` parse float rows a block at a time and
fall back to one ``float()`` per entry where numpy's parser could read a
block differently. The writers format whole blocks of floats in numpy
(``_format_float_rows``), and fall back to one ``repr`` per entry where the
vectorized path does not settle it. Each is compared here with the
per-line or per-element code it replaced, kept in this file as the
reference, on inputs full of the quirks real files have. Spearman's rho is
compared bit for bit with scipy's.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lexmap.analysis import spearman_correlation
from lexmap.embeddings import EmbeddingSpace, LoadStats, load_embeddings, write_embeddings
from lexmap import formats
from lexmap.formats import _format_float_rows, _parse_float_rows
from lexmap.mapper import LinearMap, load_map, save_map

from conftest import load_every_way


def reference_load_embeddings(path, limit=None, normalize=True):
    """The per-line loader that the chunked bulk parse replaced."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    stats = LoadStats()
    words, rows, seen = [], [], set()
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        count, dim = int(header[0]), int(header[1])
        target = count if limit is None else min(count, limit)
        body = list(fh)
        stats.header_mismatch = int(target == count and len(body) != count)
        for line in body:
            if len(words) >= target:
                break
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1 or not parts[0]:
                stats.malformed += 1
                continue
            token = parts[0]
            if token in seen:
                stats.duplicates += 1
                continue
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                stats.malformed += 1
                continue
            if not np.isfinite(vec).all():
                stats.malformed += 1
                continue
            norm = np.linalg.norm(vec)
            if normalize and not vec.any():
                stats.zero_dropped += 1
                continue
            if not np.isfinite(norm):  # the squared norm overflows: the row is kept
                stats.norm_overflow += 1
            if normalize:
                if norm < 2.0**-450:  # its squares may underflow: scaled by 2**600, exactly
                    vec = vec * 2.0**600
                    norm = np.linalg.norm(vec)
                elif not np.isfinite(norm):  # its squares overflow: scaled by 2**-600
                    vec = vec * 2.0**-600
                    norm = np.linalg.norm(vec)
                vec = vec / norm
            seen.add(token)
            words.append(token)
            rows.append(vec)
    if not rows and (stats.malformed or stats.zero_dropped):
        raise ValueError(
            f"no words loaded from {path}: {stats.malformed} malformed lines, "
            f"{stats.zero_dropped} zero vectors"
        )
    vectors = np.vstack(rows) if rows else np.empty((0, dim))
    return EmbeddingSpace(words, vectors, normalized=normalize, stats=stats)


def reference_map_body(lines):
    """The per-line map body parse that the bulk parse replaced."""
    rows = [[float(v) for v in line.split()] for line in lines]
    return np.array(rows, dtype=np.float64)


def result_or_error(f, *args, **kwargs):
    """f's result, or the message of the ValueError it raises."""
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def loaded(load, path, **kwargs):
    """Words, vector bytes and shape, and stats of a loaded space."""
    space = load(path, **kwargs)
    return space.words, space.vectors.tobytes(), space.vectors.shape, space.stats


# spellings float() and numpy's parser disagree on (1_0, non-ASCII digits,
# the \x1c-\x1f separators), empty fields, non-finite and zero entries
FIELDS = st.one_of(
    st.sampled_from([
        "0", "0.0", "-0.0", "1", "2.5", "-1e-320", "1e16", "1e400", "nan", "-inf",
        "Infinity", "1_0", "١", "", "x", "1\x1c", "\x1f2", "0.5\t", "\t3", "+.5",
    ]),
    st.floats(width=64).map(repr),
)
TOKENS = st.sampled_from(["a", "b", "c", "f1", "f300", "", "é", "a\tb"])
LINE_ENDS = st.sampled_from(["", "", " ", "  ", "\t", " \t"])


@st.composite
def odd_lines(draw, dim):
    """A .vec body line that is malformed, duplicated, zero or unusual in spelling."""
    lead = draw(st.sampled_from(["", "", "", " "]))
    token = draw(TOKENS)
    if draw(st.integers(0, 4)) == 0:
        fields = ["0.0"] * dim
    else:
        width = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        fields = draw(st.lists(FIELDS, min_size=width, max_size=width))
    return lead + token + " " + " ".join(fields) + draw(LINE_ENDS)


@st.composite
def vec_files(draw):
    """(text, limit, normalize): well-formed filler lines with odd lines among them."""
    dim = draw(st.integers(1, 4))
    filler = draw(st.one_of(st.integers(0, 40), st.integers(250, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [
        f"f{i} " + " ".join(repr(float(v)) for v in rng.standard_normal(dim))
        for i in range(filler)
    ]
    for line in draw(st.lists(odd_lines(dim), max_size=25)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    count = draw(st.integers(0, len(lines) + 3))
    limit = draw(st.one_of(st.none(), st.integers(0, len(lines) + 3)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([f"{count} {dim}", *lines]) + newline
    return text, limit, draw(st.booleans())


# rows of huge entries overflow the norm's dot product, in both loaders alike
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(vec_files())
@example(("2 2\na 1_0 2\nb 3 4\n", None, False))  # a spelling only float() reads
@example(("2 2\na 1 2\nb 1\x1c 2\n", None, False))  # a spelling only numpy reads
@example(("3 1\n" + "".join(f"w{i} {i}\n" for i in range(300)), 2, True))  # limit inside a chunk
@example(("2 2\na 1e200 1e200\nb 1 0\n", None, True))  # a norm that overflows
@example(("3 2\na 1e200 1e200\nb 1 0\nc 1.7e308 1.7e308\n", None, False))  # kept raw
@example(("3 1\n" + "".join(f"w{i} {i}\n" for i in range(5)), None, True))  # header too short
@example(("5 1\na 1\nb 2\n", 5, True))  # header too long
@example(("2 1\na 1\nb 2\n", 0, True))  # a limit below 1
@example(("3 2\na 1e-170 1e-170\nb 1e-310 0\nc 0 0\n", None, True))  # squares that underflow
def test_load_embeddings_matches_per_line_reference(tmp_path_factory, case):
    text, limit, normalize = case
    path = tmp_path_factory.mktemp("vec") / "e.vec"
    path.write_bytes(text.encode("utf-8"))
    options = {"limit": limit, "normalize": normalize}
    expected = result_or_error(loaded, reference_load_embeddings, path, **options)
    assert result_or_error(loaded, load_embeddings, path, **options) == expected


def test_parse_float_rows_reads_a_plain_block():
    assert _parse_float_rows(["1 2", "3 4"], 2).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("rows", [
    ["1 2", "3"],  # ragged
    ["1 2 3", "4 5 6"],  # another width
    ["1_0 2", "3 4"],  # only float() reads 1_0
    ["1\x1c 2", "3 4"],  # only numpy reads 1\x1c
    [],
])
def test_parse_float_rows_declines_what_float_may_read_otherwise(rows):
    assert _parse_float_rows(rows, 2) is None


MAP_FIELDS = st.one_of(
    st.sampled_from(["0", "-0.0", "1_0", "١", "1\x1c", "x", "nan", "1e-320", " 2"]),
    st.floats(width=64, allow_nan=False, allow_infinity=False).map(repr),
)


# save_map's single space, and spacing that only the per-entry split reads
MAP_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.lists(MAP_FIELDS, min_size=1, max_size=4), min_size=0, max_size=4),
    st.lists(MAP_SEPARATORS, min_size=3, max_size=3),
)
@example(3, [["1", "2", "3"], ["4", "5", "6"]], ["  ", " ", " "])  # "1  2 3": a double space
@example(3, [["1", "2", "3"], ["4", "5", "6"]], [" ", "\t", " "])  # "1 2\t3": a tab
def test_load_map_matches_per_line_reference(tmp_path_factory, d_src, rows, seps):
    d_tgt = max(len(rows), 1)
    # each row joins its fields with the drawn separators in turn
    lines = [row[0] + "".join(seps[i % 3] + f for i, f in enumerate(row[1:])) for row in rows]
    path = tmp_path_factory.mktemp("map") / "m.txt"
    path.write_text(f"{d_tgt} {d_src}\n# trainer=t\n" + "".join(f"{line}\n" for line in lines),
                    encoding="utf-8")

    def reference():
        try:
            matrix = reference_map_body([line.strip() for line in lines if line.strip()])
        except ValueError as exc:
            raise ValueError(f"bad map body in {path}: {exc}") from None
        if matrix.shape != (d_tgt, d_src):
            raise ValueError(f"bad map body in {path}: shape {matrix.shape} != header ({d_tgt}, {d_src})")
        return LinearMap(matrix).matrix.tobytes()

    got = result_or_error(lambda: load_map(path).matrix.tobytes())
    assert got == result_or_error(reference)


# finite float64 values, with subnormals, signed zeros and 1e16 drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-7, 0.1]),
    st.floats(width=64, allow_nan=False, allow_infinity=False),
)


def matrices():
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=FINITE))


def per_element_map_text(m):
    """The map writer's bytes before rows were formatted in bulk."""
    lines = [f"{m.d_tgt} {m.d_src}", f"# trainer={m.trainer}", f"# anchor={m.anchor}",
             f"# train_size={m.train_size}"]
    if m.final_loss is not None:
        lines.append(f"# final_loss={m.final_loss!r}")
    lines += [f"# {key}={value!r}" for key, value in sorted(m.hyperparams.items())]
    lines += [" ".join(repr(float(v)) for v in row) for row in m.matrix]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_map_write_read_round_trip_is_exact(tmp_path_factory, matrix):
    m = LinearMap(matrix, trainer="max_margin", anchor="a", hyperparams={"seed": 3},
                  train_size=7, final_loss=0.25)
    path = tmp_path_factory.mktemp("map") / "m.txt"
    save_map(m, path)
    assert path.read_text(encoding="utf-8") == per_element_map_text(m)
    assert load_map(path).matrix.tobytes() == matrix.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(matrices())
def test_vec_write_read_round_trip_is_exact(tmp_path_factory, matrix):
    words = [f"w{i}" for i in range(len(matrix))]
    path = tmp_path_factory.mktemp("vec") / "e.vec"
    write_embeddings(EmbeddingSpace(words, matrix), path)
    expected = f"{len(words)} {matrix.shape[1]}\n" + "".join(
        word + " " + " ".join(repr(float(x)) for x in row) + "\n"
        for word, row in zip(words, matrix)
    )
    assert path.read_text(encoding="utf-8") == expected
    back = load_embeddings(path, normalize=False)
    assert back.words == tuple(words)
    assert back.vectors.tobytes() == matrix.tobytes()
    # the companion serves what the text parse gives, for every limit and normalize
    served = load_every_way(path, len(words))
    path.with_name("e.vec.npz").unlink()
    assert load_every_way(path, len(words)) == served


def per_element_rows(matrix):
    """The float rows as the writers formatted them before the vectorized pass: one
    repr per entry, joined by " ", each row ended by a newline."""
    return "".join(" ".join(map(repr, row.tolist())) + "\n" for row in matrix).encode()


def with_neighbours(values):
    return [v for x in values for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]


# where the vectorized path starts and stops, and its hardest digits
FORMAT_EDGES = [
    [0.0, -0.0, 1e-6, 9.999999999999999e-07, *with_neighbours([1e-6, 1e-4, 10.0])],
    with_neighbours([2.0**k for k in range(-21, 4)]),  # a lopsided rounding interval
    with_neighbours([10.0**k for k in range(-7, 2)]),
    # a 17-digit half (...187|5), which goes to the even digit
    [0.234661102294921875, -0.234661102294921875, 0.1, 1 / 3, 2 / 3],
    # 16 digits above 2**53, where the decimal itself is no double
    [9.007199254740993 * 10.0**e for e in range(-6, 1)] + [9.999999999999999, 9.999999999999998],
    [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, float("nan"), -float("inf")],
]


def float_blocks(elements):
    shapes = st.tuples(st.integers(1, 5), st.integers(1, 8))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


@settings(max_examples=300, deadline=None)
@given(float_blocks(st.floats(width=64)))
@example(np.array(FORMAT_EDGES[0]).reshape(1, -1))
@example(np.array(FORMAT_EDGES[1]).reshape(3, -1))
@example(np.array(FORMAT_EDGES[2]).reshape(3, -1))
@example(np.array(FORMAT_EDGES[3]).reshape(1, -1))
@example(np.array(FORMAT_EDGES[4]).reshape(1, -1))
@example(np.array(FORMAT_EDGES[5]).reshape(1, -1))
def test_format_float_rows_equals_per_element_repr(matrix):
    assert _format_float_rows(matrix) == per_element_rows(matrix)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.uint64, shape, elements=st.integers(0, 2**64 - 1))))
def test_format_float_rows_equals_per_element_repr_on_raw_bits(bits):
    matrix = bits.view(np.float64)
    assert _format_float_rows(matrix) == per_element_rows(matrix)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda rows: st.one_of(
    arrays(np.float64, rows, elements=st.floats(width=64)),
    arrays(np.float64, (rows, 3), elements=st.floats(width=64, allow_nan=False,
                                                      allow_infinity=False)))))
@example(np.array(FORMAT_EDGES[4]))
@example(np.zeros((2, 0)))
def test_dumps_json_equals_json_dumps_of_the_lists(array):
    """World descriptors write their float arrays through the vectorized writer."""
    obj = {"kind": "x", "array": array, "labels": {"w\u00e9": 1}, "ints": np.arange(3)}
    expected = json.dumps({**obj, "array": array.tolist(), "ints": [0, 1, 2]})
    assert formats.dumps_json(obj) == expected


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
def test_format_float_rows_of_no_entries(shape):
    assert _format_float_rows(np.zeros(shape)) == per_element_rows(np.zeros(shape))


def test_format_float_rows_on_a_million_seeded_values():
    """Eight classes of 125000 values each, shuffled, half as rows of 250 and half as
    rows of 5, which split rows across blocks differently."""
    rng = np.random.default_rng(20181)
    n = 125000
    scale = 10.0 ** rng.integers(-7, 2, n)
    decades = 10.0 ** rng.integers(-7, 2, n)
    sign = rng.choice([-1.0, 1.0], n)
    classes = [
        rng.standard_normal(n) * scale,  # normals at many scales
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),  # raw mantissa bits
        # short decimals: the quotient of two exact doubles is the nearest double
        sign * rng.integers(1, 10**7, n) / 10.0 ** rng.integers(1, 13, n),
        sign * np.nextafter(decades, decades * rng.choice([0.0, 1.0, 2.0], n)),  # 10**k, ±1 ulp
        sign * rng.uniform(9.007, 9.999, n) * 10.0 ** rng.integers(-6, 1, n),  # leading 9.007-9.999
        rng.integers(1, 2**53, n) / 2.0 ** rng.integers(1, 75, n),  # dyadic, many 17-digit halves
        (rng.standard_normal(n) * scale).astype(np.float32).astype(np.float64),  # widened float32
        sign * rng.integers(1, 2**20, n) / 2.0 ** rng.integers(1, 30, n),  # short dyadic halves
    ]
    values = rng.permutation(np.concatenate(classes))
    half = values.size // 2
    for width, part in ((250, values[:half]), (5, values[half:])):  # 10**6 values in all
        matrix = part.reshape(-1, width)
        assert _format_float_rows(matrix) == per_element_rows(matrix)


def significant_digits(value):
    """How many significant digits repr(value) writes."""
    mantissa = repr(abs(value)).split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def with_digits(decade, count, rng):
    """Seeded values in [10**decade, 10**(decade + 1)) whose repr has count significant
    digits, of both signs: decimals with a nonzero last digit up to 15 digits, which
    every double reads back as written, and drawn doubles kept by their repr beyond."""
    if count <= 15:
        digits = rng.integers(10 ** (count - 1), 10**count, 40)
        digits = digits[digits % 10 != 0][:8]
        return [float(f"{sign}{d}e{decade - count + 1}") for d in digits for sign in "+-"]
    drawn = rng.uniform(1.0, 10.0, 400) * 10.0**decade
    found = [v for v in drawn.tolist()
             if significant_digits(v) == count and 10.0**decade <= v < 10.0 ** (decade + 1)]
    return [v * sign for v in found[:8] for sign in (1, -1)]


@pytest.mark.parametrize("count", [1, 14, 15, 16, 17])
@pytest.mark.parametrize("decade", range(-6, 1))
def test_format_float_rows_at_each_digit_count_in_each_decade(decade, count):
    values = with_digits(decade, count, np.random.default_rng(100 * (decade + 6) + count))
    assert len(values) >= 8 and all(significant_digits(v) == count for v in values)
    matrix = np.array(values).reshape(2, -1)
    assert _format_float_rows(matrix) == per_element_rows(matrix)


def test_format_float_rows_one_ulp_around_the_decade_table_edges():
    """Every power of two that bounds a binade the exponent-to-decade table reads, and
    every power of ten it compares with, with the doubles one ulp either side."""
    thresholds = formats._NEXT_DECADE[np.isfinite(formats._NEXT_DECADE)]
    edges = [*(2.0**e for e in range(-21, 5)), *(10.0**k for k in range(-7, 2)), *thresholds]
    values = np.array(with_neighbours(edges))
    matrix = np.concatenate([values, -values]).reshape(2, -1)
    assert _format_float_rows(matrix) == per_element_rows(matrix)


def test_format_float_rows_writes_every_nan_as_nan():
    """repr writes "nan" whatever the sign and payload bits."""
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFF8DEADBEEF0000], dtype=np.uint64)
    matrix = np.concatenate([bits.view(np.float64), [0.5, -0.25, 1e-3]]).reshape(3, 3)
    assert _format_float_rows(matrix) == per_element_rows(matrix)
    assert _format_float_rows(matrix).count(b"nan") == 6


@pytest.mark.parametrize("shape", [
    (2 * (formats._FORMAT_BLOCK // 300) + 1, 300),  # three blocks, the last of one row
    (3, formats._FORMAT_BLOCK + 3),  # rows longer than a block: a block each
    (2, formats._FORMAT_BLOCK),  # a block each, exactly
    (formats._FORMAT_BLOCK // 7 + 5, 7),  # a block of whole rows, short of _FORMAT_BLOCK
])
def test_format_float_rows_across_block_edges(shape):
    rng = np.random.default_rng(shape[1])
    matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-7, 2, shape)
    # entries that take repr, among them the first and last of each block's rows
    matrix.flat[rng.integers(0, matrix.size, 50)] = [0.0, np.nan, 2.0**-3, 1e300, -5e-324] * 10
    matrix[:, 0], matrix[:, -1] = 0.0, -np.inf
    assert _format_float_rows(matrix) == per_element_rows(matrix)


# a few values drawn often give many exact ties, 0.0 against -0.0 included
RANKED = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 30.0, float("inf"), float("nan")]),
    st.floats(width=64),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(RANKED, min_size=n, max_size=n), st.lists(RANKED, min_size=n, max_size=n))))
@example(([1.0, 1.0, 2.0, 3.0], [30.0, 50.0, 0.0, 30.0]))
@example(([0.0, -0.0, 1.0], [1.0, 2.0, 3.0]))
def test_spearman_bit_equal_to_scipy(pair):
    stats = pytest.importorskip("scipy.stats")
    xs, ys = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        expected = float(stats.spearmanr(xs, ys).statistic) if len(xs) else float("nan")
    if np.isnan(expected):
        with pytest.raises(ValueError, match="zero variance"):
            spearman_correlation(xs, ys)
    else:
        assert spearman_correlation(xs, ys).hex() == expected.hex()
