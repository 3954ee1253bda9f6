"""Property tests of the bulk text parsing and formatting of .vec and map files.

``load_embeddings`` and ``load_map`` parse float rows a block at a time and
fall back to one ``float()`` per entry where numpy's parser could read a
block differently. The writers format a row at a time. Each is compared here
with the per-line or per-element code it replaced, kept in this file as the
reference, on inputs full of the quirks real files have. Spearman's rho is
compared bit for bit with scipy's.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lexmap.analysis import spearman_correlation
from lexmap.embeddings import (
    EmbeddingSpace,
    LoadStats,
    _parse_float_rows,
    load_embeddings,
    write_embeddings,
)
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
            if not np.isfinite(norm):  # the squared norm overflows
                if normalize:
                    stats.malformed += 1
                    continue
                stats.norm_overflow += 1  # a raw load keeps the row
            if normalize:
                if norm == 0.0:
                    stats.zero_dropped += 1
                    continue
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
def test_load_embeddings_matches_per_line_reference(tmp_path_factory, case):
    text, limit, normalize = case
    path = tmp_path_factory.mktemp("vec") / "e.vec"
    path.write_bytes(text.encode("utf-8"))
    options = {"limit": limit, "normalize": normalize}
    expected = result_or_error(loaded, reference_load_embeddings, path, **options)
    assert result_or_error(loaded, load_embeddings, path, **options) == expected


def test_parse_float_rows_reads_a_plain_block():
    assert _parse_float_rows(["1 2", "3 4"], 2, " ").tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("rows, delimiter", [
    (["1 2", "3"], None),  # ragged
    (["1 2 3", "4 5 6"], None),  # another width
    (["1_0 2", "3 4"], " "),  # only float() reads 1_0
    (["1\x1c 2", "3 4"], " "),  # only numpy reads 1\x1c
    ([], None),
])
def test_parse_float_rows_declines_what_float_may_read_otherwise(rows, delimiter):
    assert _parse_float_rows(rows, 2, delimiter) is None


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
