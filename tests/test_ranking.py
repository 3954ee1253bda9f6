"""Property tests of the one ranking rule: descending score, ties by index.

Every ranking in lexmap goes through ``top_k_indices``. These tests build
exact ties on purpose (repeated scores, duplicated vectors) and compare each
ranking path with the per-query reference it replaced. Equal rows of a
random float space must tie exactly too, wherever they sit in the matrix.
The batched kernel ``top_k_rows`` must equal the per-query path bit for bit
at every block size, near-ties a few ulps apart and odd raw rows included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexmap import embeddings
from lexmap.analysis import precision_at_k
from lexmap.embeddings import (
    EmbeddingSpace,
    cosine_similarity,
    cosines_to_all,
    top_k_by_cosine,
    top_k_indices,
    top_k_rows,
)
from lexmap.lexicon import Instance, TranslationDataset
from lexmap.mapper import LinearMap
from lexmap.translate import AtlasEntry, MapAtlas, select_entry

NAN = float("nan")
# a few values drawn often give many exact ties, including 0.0 against -0.0
TIED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0, NAN, float("inf")])
SCORES = st.lists(st.one_of(TIED, st.floats(width=64)), max_size=40)


@settings(max_examples=300)
@given(SCORES, st.integers(1, 42))
@example([NAN, NAN, 0.5], 2)  # the k-th best score is NaN
@example([0.0, -0.0, 1.0, 0.0], 2)  # signed zeros tie
@example([0.25, 1.0, 0.25, 0.25, -1.0], 2)  # a tie straddles the cut
def test_top_k_indices_is_stable_argsort_prefix(scores, k):
    scores = np.array(scores, dtype=np.float64)
    k = min(k, len(scores) + 2)
    expected = np.argsort(-scores, kind="stable")[:k]
    assert top_k_indices(scores, k).tolist() == expected.tolist()


def test_top_k_indices_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1"):
        top_k_indices(np.zeros(3), 0)


small_ints = st.integers(-2, 2).map(float)


def _int_rows(n, d):
    return st.lists(st.lists(small_ints, min_size=d, max_size=d), min_size=n, max_size=n)


@st.composite
def tied_retrieval(draw):
    """A raw target space of small-integer rows (many exact score ties) and queries."""
    d = draw(st.integers(1, 4))
    rows = np.array(draw(_int_rows(draw(st.integers(1, 12)), d)), dtype=np.float64).reshape(-1, d)
    assume(np.any(rows, axis=1).all())
    tgt = EmbeddingSpace([f"t{i}" for i in range(len(rows))], rows)
    n_src = draw(st.integers(1, 6))
    sources = np.array(draw(_int_rows(n_src, d)), dtype=np.float64).reshape(-1, d)
    matrix = np.array(draw(_int_rows(d, d)), dtype=np.float64).reshape(d, d)
    m = LinearMap(matrix)
    assume(all(np.any(m.apply(v)) for v in sources))
    golds = st.lists(st.sampled_from(tgt.words), min_size=1, max_size=3, unique=True)
    instances = tuple(
        Instance(f"s{i}", v, tuple(draw(golds))) for i, v in enumerate(sources)
    )
    return m, TranslationDataset(instances), tgt


def _rank_arithmetic_precision(m, test, tgt_space, k):
    """precision@k as first written: count the scores ahead of each gold."""
    hits = 0
    for inst in test.instances:
        scores = cosines_to_all(tgt_space, m.apply(inst.source_vector))
        for gold in inst.gold_targets:
            gi = tgt_space.index(gold)
            gs = scores[gi]
            rank = int(np.count_nonzero(scores > gs))
            rank += int(np.count_nonzero(scores[:gi] == gs))
            if rank < k:
                hits += 1
                break
    return 100.0 * hits / len(test)


@given(tied_retrieval(), st.data())
def test_precision_at_k_matches_rank_arithmetic(case, data):
    m, test, tgt = case
    k = data.draw(st.integers(1, len(tgt) + 1), label="k")
    assert precision_at_k(m, test, tgt, k) == _rank_arithmetic_precision(m, test, tgt, k)


@given(tied_retrieval(), st.data())
def test_top_k_by_cosine_matches_filtered_full_order(case, data):
    m, test, tgt = case
    query = m.apply(test.instances[0].source_vector)
    k = data.draw(st.integers(1, len(tgt) + 1), label="k")
    scores = cosines_to_all(tgt, query)
    order = np.argsort(-scores, kind="stable")
    expected = [(tgt.words[i], float(scores[i])) for i in order[:k]]
    assert top_k_by_cosine(tgt, query, k) == expected


def _first_argmax_label(atlas, src_vector, floor):
    """select_entry as first written: a loop of cosine_similarity over entries."""
    best = None
    for i, entry in enumerate(atlas.entries):
        score = cosine_similarity(entry.anchor_vector, src_vector)
        if best is None or score > best[0]:
            best = (score, i)
    if best is None or (best[0] < floor and atlas.fallback is not None):
        return "global"
    return atlas.entries[best[1]].anchor_word


@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 9),
    st.lists(st.integers(0, 2), min_size=1, max_size=12),
    st.booleans(),
    st.floats(-1.0, 0.99),
)
def test_select_entry_matches_first_argmax_with_duplicated_anchors(
    seed, d, picks, with_fallback, floor
):
    """Entries share vectors (exact ties): the earliest copy must win."""
    rng = np.random.default_rng(seed)
    distinct = rng.standard_normal((3, d))
    entries = tuple(
        AtlasEntry(f"a{i}", distinct[p].copy(), LinearMap(np.eye(d))) for i, p in enumerate(picks)
    )
    fallback = LinearMap(np.eye(d), anchor="global") if with_fallback else None
    atlas = MapAtlas(entries, fallback=fallback)
    queries = list(rng.standard_normal((32, d))) + [distinct[p] for p in set(picks)]
    for query in queries:
        assert select_entry(atlas, query, floor=floor)[1] == _first_argmax_label(atlas, query, floor)


@st.composite
def copied_row_cases(draw):
    """(n, d, seed, normalized, copies): one row of a random space and its copies.

    Copies often land among the last ``n % 4`` rows, which BLAS gemv sums in
    another order than the rows before them.
    """
    n = draw(st.integers(2, 48))
    positions = st.one_of(st.integers(0, n - 1), st.integers(min(n - n % 4, n - 1), n - 1))
    copies = sorted(set(draw(st.lists(positions, min_size=2, max_size=4))))
    assume(len(copies) >= 2)
    return n, draw(st.integers(1, 80)), draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), copies


def space_with_copied_row(n, d, seed, normalized, copies):
    """A random float space, raw or unit, whose rows at ``copies`` are equal."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, d)) * rng.uniform(0.1, 10, size=(n, 1))
    if normalized:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[copies[1:]] = vectors[copies[0]]
    return EmbeddingSpace([f"t{i}" for i in range(n)], vectors, normalized), rng


@settings(max_examples=150, deadline=None)
@given(copied_row_cases())
@example((7, 30, 1, False, [0, 6]))  # the copy is the last of n % 4 = 3 tail rows
@example((9, 64, 2, True, [3, 8]))  # a unit space; the copy is its one tail row
def test_equal_rows_score_bit_equal_and_rank_by_index(case):
    space, rng = space_with_copied_row(*case)
    copies = case[-1]
    identity = LinearMap(np.eye(space.dim))
    for query in [*rng.standard_normal((4, space.dim)), space.vectors[copies[0]]]:
        scores = cosines_to_all(space, query)
        assert len({scores[i].hex() for i in copies}) == 1
        for row, score in zip(space.vectors, scores):
            alone = EmbeddingSpace(["w"], row[None, :], space.normalized)
            assert cosines_to_all(alone, query)[0].hex() == score.hex()
        ranked = [space.index(w) for w, _ in top_k_by_cosine(space, query, len(space))]
        assert [i for i in ranked if i in copies] == copies
        k = ranked.index(copies[0]) + 1
        for gold, expected in ((copies[0], 100.0), (copies[1], 0.0)):
            test = TranslationDataset((Instance("q", query, (space.words[gold],)),))
            assert precision_at_k(identity, test, space, k) == expected


def per_query_top_k(space, queries, k):
    """top_k_rows as one cosines_to_all and top_k_indices per query."""
    indices, scores = [], []
    for query in queries:
        cos = cosines_to_all(space, query)
        top = top_k_indices(cos, k)
        indices.append(top.tolist())
        scores.append(cos[top].tobytes())
    return indices, scores


def result_or_error(f, *args):
    """f's result, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# rows of a raw space that the GEMM margin does not cover, and a zero row
ODD_ROWS = {
    "zero": lambda d: np.zeros(d),
    "overflowing": lambda d: np.full(d, 1e200),
    "overflowing mixed": lambda d: np.resize([1.7e308, -1.7e308, 1.0], d),
    "tiny": lambda d: np.full(d, 2.3e-162),
}


@st.composite
def retrieval_cases(draw):
    """(space, queries, k, queries per block) full of ties and near-ties.

    Small-integer rows tie exactly; copied rows tie wherever they sit;
    copies moved a few ulps score a few ulps apart, inside the GEMM margin.
    A normalized space's rows may be off unit length by up to 1e-5.
    A raw space may hold the rows of ODD_ROWS; queries include copies of
    rows, one whose norm overflows and one with an inf entry.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.one_of(st.integers(1, 8), st.sampled_from([33, 300])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        vectors = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        vectors = rng.standard_normal((n, d)) * rng.uniform(0.1, 10, size=(n, 1))
    normalized = draw(st.booleans())
    if normalized:
        vectors[~vectors.any(axis=1), 0] = 1.0
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        if draw(st.booleans()):  # off unit by as much as the constructor lets a row be
            vectors *= rng.uniform(1 - 1e-5, 1 + 1e-5, size=(n, 1))
    for _ in range(draw(st.integers(0, 6))):
        source, copy = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        row = vectors[source].copy()
        for _ in range(draw(st.integers(0, 3))):
            row = np.nextafter(row, np.inf)
        vectors[copy] = row
    if not normalized:
        for name in draw(st.lists(st.sampled_from(sorted(ODD_ROWS)), max_size=4)):
            vectors[draw(st.integers(0, n - 1))] = ODD_ROWS[name](d)
    space = EmbeddingSpace([f"t{i}" for i in range(n)], vectors, normalized)
    queries = list(rng.standard_normal((draw(st.integers(1, 12)), d)))
    queries += [vectors[i] for i in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    if draw(st.booleans()):
        queries += [np.full(d, 1e300), np.resize([np.inf, 1.0], d)]
    k = draw(st.integers(1, n + 2))
    return space, queries, k, draw(st.sampled_from([1, 3, 1000]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing rows, as per query
@settings(max_examples=300, deadline=None)
@given(retrieval_cases())
def test_top_k_rows_equals_per_query_path(case):
    space, queries, k, per_block = case

    def batched():
        indices, scores = top_k_rows(space, iter(queries), k)
        return [row.tolist() for row in indices], [row.tobytes() for row in scores]

    with mock.patch.object(embeddings, "_block_queries", lambda space, width: per_block):
        got = result_or_error(batched)
    assert got == result_or_error(per_query_top_k, space, queries, k)  # a zero query raises


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("per_block", [1, 7, 1000])
def test_top_k_rows_on_near_ties_at_d300(normalized, per_block):
    """Many rows a few ulps from the best at the benchmark's width.

    Each query's own row is copied and nudged by 1 to 3 ulps per entry, so
    the top scores differ in their last bits and GEMM and ``np.vecdot``
    can order them differently. Normalized rows are off unit length by up
    to 1e-5, as the constructor allows.
    """
    rng = np.random.default_rng(14)
    vectors = rng.standard_normal((400, 300)) * rng.uniform(0.5, 2, size=(400, 1))
    if normalized:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors *= rng.uniform(1 - 1e-5, 1 + 1e-5, size=(400, 1))
    for base in range(0, 400, 8):
        for offset in range(1, 4):
            vectors[base + offset] = vectors[base]
            for _ in range(offset):
                vectors[base + offset] = np.nextafter(vectors[base + offset], np.inf)
        vectors[base + 4] = vectors[base]
    space = EmbeddingSpace([f"t{i}" for i in range(400)], vectors, normalized)
    queries = [vectors[base] * 3.0 for base in range(0, 400, 8)]
    queries += list(vectors[::8] + 1e-3 * rng.standard_normal((50, 300)))
    for k in (1, 4, 10):
        with mock.patch.object(embeddings, "_block_queries", lambda space, width: per_block):
            indices, scores = top_k_rows(space, queries, k)
        got = ([row.tolist() for row in indices], [row.tobytes() for row in scores])
        assert got == per_query_top_k(space, queries, k)


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("k", [1, 5])
def test_top_k_rows_of_an_empty_space_gives_no_rows(normalized, k):
    """No row tile to score, but every query is still checked."""
    space = EmbeddingSpace([], np.zeros((0, 3)), normalized)
    queries = [np.array([1.0, 2.0, 3.0]), np.array([0.0, -1.0, 0.5])]
    indices, scores = top_k_rows(space, queries, k)
    assert indices.shape == scores.shape == (2, 0)
    got = ([row.tolist() for row in indices], [row.tobytes() for row in scores])
    assert got == per_query_top_k(space, queries, k)
    with pytest.raises(ValueError, match="zero query"):
        top_k_rows(space, [*queries, np.zeros(3)], k)
    with pytest.raises(ValueError, match="dimension"):
        top_k_rows(space, [np.ones(4)], k)


def test_tiny_query_is_scaled_before_its_norm():
    """A query whose squares underflow has the unit vector of its scaled copy.

    Unscaled, the computed norm of this query is 11.7 times too small.
    """
    rng = np.random.default_rng(3)
    space = EmbeddingSpace([f"t{i}" for i in range(20)], rng.standard_normal((20, 300)))
    tiny = np.append(np.full(299, 1.5e-162), 2.23e-162)
    scaled = cosines_to_all(space, tiny * 2.0**600)
    assert cosines_to_all(space, tiny).tobytes() == scaled.tobytes()
    indices, scores = top_k_rows(space, [tiny], 3)
    assert scores[0].tobytes() == scaled[indices[0]].tobytes()


def test_tiny_row_is_normed_exactly():
    """A row whose squares underflow scores the bits of its copy times 2**600.

    Unscaled, the computed norm of this row is 11.7 times too small, so it
    scored 1.0 against a query whose cosine with it is 0.2724.
    """
    tiny = np.append(np.full(299, 1.5e-162), 2.23e-162)
    query = tiny * 2.0**600
    query[0] *= -50
    space = EmbeddingSpace(["t", "big"], np.array([tiny, tiny * 2.0**600]))
    expected = np.array([0.27244248654528, 0.27244248654528])
    assert cosines_to_all(space, query).tobytes() == expected.tobytes()
    indices, scores = top_k_rows(space, [query], 1)
    assert indices.tolist() == [[0]] and scores.tobytes() == expected[:1].tobytes()
    assert cosine_similarity(tiny, query) == cosine_similarity(tiny * 2.0**600, query) == expected[0]


def test_huge_query_scores_its_cosine():
    """A vector whose squares overflow is scaled by 2**-600 before its norm, as
    one too small to square is by 2**600, so it keeps its cosines."""
    rng = np.random.default_rng(39)
    space = EmbeddingSpace([f"t{i}" for i in range(20)], rng.standard_normal((20, 300)))
    v = space.vectors[3]
    assert cosine_similarity(1e-200 * v, v) == pytest.approx(1.0)
    assert cosine_similarity(1e200 * v, v) == pytest.approx(1.0)
    (word, score), _ = top_k_by_cosine(space, 1e200 * v, 2)
    assert word == "t3" and score == pytest.approx(1.0)


def assert_ranks_per_query(space, queries, k, tile, per_block=1000):
    """top_k_rows with rows tiled ``tile`` at a time equals the per-query path."""
    with mock.patch.object(embeddings, "_ROW_TILE", tile), \
            mock.patch.object(embeddings, "_block_queries", lambda space, width: per_block):
        indices, scores = top_k_rows(space, queries, k)
    got = ([row.tolist() for row in indices], [row.tobytes() for row in scores])
    assert got == per_query_top_k(space, queries, k)
    return got[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing rows, as per query
@settings(max_examples=200, deadline=None)
@given(retrieval_cases(), st.sampled_from([1, 2, 3, 4, 7]))
def test_top_k_rows_in_small_row_tiles_equals_per_query_path(case, tile):
    """Every retrieval case again, its rows scored a few at a time: ties and
    forced rows fall on every side of a tile boundary, and k often exceeds
    a tile."""
    space, queries, k, per_block = case

    def batched():
        indices, scores = top_k_rows(space, iter(queries), k)
        return [row.tolist() for row in indices], [row.tobytes() for row in scores]

    with mock.patch.object(embeddings, "_ROW_TILE", tile), \
            mock.patch.object(embeddings, "_block_queries", lambda space, width: per_block):
        got = result_or_error(batched)
    assert got == result_or_error(per_query_top_k, space, queries, k)  # a zero query raises


def test_ties_straddling_a_tile_boundary_rank_by_index():
    """Five equal rows span the boundary between tiles 0 and 1, a sixth sits in
    tile 3; every cut through the tie keeps the lowest indices."""
    rng = np.random.default_rng(31)
    vectors = rng.standard_normal((16, 300))
    vectors[[2, 3, 4, 5, 6, 13]] = vectors[2]
    space = EmbeddingSpace([f"t{i}" for i in range(16)], vectors)
    queries = [vectors[2], vectors[2] * 7.0 + 1e-3 * rng.standard_normal(300)]
    for k in (1, 3, 5, 6, 7):
        got = assert_ranks_per_query(space, queries, k, tile=4)
        assert got[0] == [2, 3, 4, 5, 6, 13, *got[0][6:]][:k]


@pytest.mark.parametrize("tile", [4, 5, 16])
def test_kth_score_first_seen_in_the_last_tile(tile, candidate_counts):
    """The k best rows all sit in the last tile, or all in the first: the
    running k-th merges across tiles, so each query admits just its k rows."""
    rng = np.random.default_rng(32)
    vectors = rng.standard_normal((64, 300))
    space = EmbeddingSpace([f"t{i}" for i in range(64)], vectors)
    sets = ([61, 62, 63], [0, 1, 2], [3, 30, 60], [63, 0, 33])
    queries = [vectors[rows].sum(axis=0) for rows in sets]
    got = assert_ranks_per_query(space, queries, 3, tile)
    assert [sorted(rows) for rows in got] == [sorted(rows) for rows in sets]
    assert candidate_counts == [3] * len(queries)


def test_k_larger_than_a_tile():
    rng = np.random.default_rng(33)
    vectors = rng.standard_normal((11, 40))
    vectors[7] = vectors[1]
    space = EmbeddingSpace([f"t{i}" for i in range(11)], vectors)
    queries = [*rng.standard_normal((5, 40)), vectors[1]]
    for k in (3, 5, 10):
        assert_ranks_per_query(space, queries, k, tile=2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing rows, as per query
def test_forced_rows_in_different_tiles_are_candidates_of_every_query(candidate_counts):
    """Tiny, overflowing and inf rows sit in three tiles; each is rescored for
    every query, so every query admits more than its k rows."""
    rng = np.random.default_rng(34)
    vectors = rng.standard_normal((14, 30))
    vectors[1] = ODD_ROWS["tiny"](30)
    vectors[6] = ODD_ROWS["overflowing"](30)
    vectors[12] = np.resize([np.inf, 1.0], 30)
    vectors[9] = vectors[2]
    space = EmbeddingSpace([f"t{i}" for i in range(14)], vectors)
    queries = [*rng.standard_normal((4, 30)), vectors[1] * 2.0**600, vectors[2]]
    for k in (1, 2, 6):
        candidate_counts.clear()
        assert_ranks_per_query(space, queries, k, tile=4)
        assert len(candidate_counts) == len(queries)
        assert all(count > k for count in candidate_counts)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an overflowing row, as per query
def test_k_larger_than_the_space_keeps_every_row(candidate_counts):
    """A space of at most k rows, tiled in threes with forced rows in two tiles:
    every row is a candidate of every query, and none is admitted twice."""
    rng = np.random.default_rng(37)
    vectors = rng.standard_normal((7, 30))
    vectors[1] = ODD_ROWS["tiny"](30)
    vectors[5] = ODD_ROWS["overflowing"](30)
    vectors[6] = vectors[2]
    space = EmbeddingSpace([f"t{i}" for i in range(7)], vectors)
    queries = [*rng.standard_normal((4, 30)), vectors[2], np.full(30, 1e300)]
    for k in (7, 8, 20):
        got = assert_ranks_per_query(space, queries, k, tile=3)
        assert [sorted(rows) for rows in got] == [list(range(7))] * len(queries)
    assert candidate_counts == [7] * 3 * len(queries)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an overflowing row, as per query
@pytest.mark.parametrize("forced", [False, True])
def test_equal_counts_share_one_gather_per_part_within_the_budget(forced, monkeypatch):
    """Blocks of 6 queries that mix k candidates, near ties of 3 and 4, and a
    non-finite query of every row; with forced rows, every count grows by two.
    Under a budget of 12 rescored rows, each block's queries of one count are
    rescored in parts of as many as fit, one _cosines call per part, in
    their exact width; a query past the budget on its own is gathered alone.
    """
    rng = np.random.default_rng(40)
    n, d, k = 40, 30, 2
    vectors = rng.standard_normal((n, d))
    vectors[1], vectors[2] = np.nextafter(vectors[0], np.inf), vectors[0]
    vectors[11:14] = vectors[10]
    vectors[12] = np.nextafter(vectors[10], -np.inf)
    if forced:
        vectors[30], vectors[35] = ODD_ROWS["tiny"](d), ODD_ROWS["overflowing mixed"](d)
    space = EmbeddingSpace([f"t{i}" for i in range(n)], vectors)
    near = [vectors[0] * scale for scale in (1.0, 2.0, 3.0, 0.5, 7.0)]
    queries = [*near, rng.standard_normal(d), np.resize([np.inf, 1.0], d), vectors[10],
               rng.standard_normal(d) * 1e-160, *rng.standard_normal((2, d)), vectors[10] * 2.0,
               *near[:3], vectors[10] * 5.0, *rng.standard_normal((3, d))]
    expected = per_query_top_k(space, queries, k)
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * 12 * d)
    log = []  # per block: each query's candidate count, and the (queries, rows) of each gather
    candidates, cosines = embeddings._candidates, embeddings._cosines

    def candidates_spy(space, unit, k, margin):
        query, row = candidates(space, unit, k, margin)
        log.append((np.bincount(query, minlength=len(unit)).tolist(), []))
        return query, row

    def cosines_spy(space, rows, unit):
        log[-1][1].append(rows.shape)
        return cosines(space, rows, unit)

    monkeypatch.setattr(embeddings, "_candidates", candidates_spy)
    monkeypatch.setattr(embeddings, "_cosines", cosines_spy)
    indices, scores = top_k_rows(space, queries, k)
    assert ([row.tolist() for row in indices], [row.tobytes() for row in scores]) == expected
    extra = {6: n - k - 2 * forced, 7: 2, 11: 2, 15: 2}  # every row; along row 10's four copies
    extra |= dict.fromkeys([0, 1, 2, 3, 4, 12, 13, 14], 1)  # along row 0's three
    assert [count for counts, _ in log for count in counts] == [
        k + 2 * forced + extra.get(i, 0) for i in range(len(queries))]
    split = alone = 0
    for counts, shapes in log:
        assert all(q == 1 or q * c <= 12 for q, c in shapes)
        parts = []
        for c in sorted(set(counts)):
            group = counts.count(c)
            per = max(1, 12 // c)
            parts += [(min(per, group - i), c) for i in range(0, group, per)]
            split += group > per
            alone += c > 12
        assert sorted(shapes) == sorted(parts)
    assert split and alone


def test_one_rule_sizes_every_block(monkeypatch):
    """Under a budget of 2880 bytes, 40 rows at d=30 give blocks of 6, 5 and 3
    queries at k = 1, 10 and 40: every block but the last holds
    _block_queries(space, min(k, V)), so blocks shrink as the k best they
    keep grow, no other cap holds them smaller, and each ranking is the
    per-query one."""
    rng = np.random.default_rng(44)
    n, d = 40, 30
    vectors = rng.standard_normal((n, d))
    vectors[1] = vectors[0]
    space = EmbeddingSpace([f"t{i}" for i in range(n)], vectors)
    queries = [*rng.standard_normal((17, d)), vectors[0], vectors[0] * 2.0]
    expected = {k: per_query_top_k(space, queries, k) for k in (1, 10, n)}
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 8 * 12 * d)
    blocks = []  # each block's query count
    candidates = embeddings._candidates

    def candidates_spy(space, unit, k, margin):
        blocks.append(len(unit))
        return candidates(space, unit, k, margin)

    monkeypatch.setattr(embeddings, "_candidates", candidates_spy)
    sizes = []
    for k in (1, 10, n):
        blocks.clear()
        indices, scores = top_k_rows(space, queries, k)
        assert ([row.tolist() for row in indices], [row.tobytes() for row in scores]) == expected[k]
        sizes.append(embeddings._block_queries(space, min(k, n)))
        assert blocks[:-1] == [sizes[-1]] * (len(blocks) - 1) and blocks[-1] <= sizes[-1]
        assert sum(blocks) == len(queries)
    assert sizes == [6, 5, 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an overflowing row
@pytest.mark.parametrize("kind", sorted(ODD_ROWS))
def test_forced_rows_are_found_once_when_the_space_is_built(kind):
    """Nonzero rows with a tiny or inf norm, read-only on the space: a zero row
    is not one, nor is a row whose squares overflow but whose norm does not,
    nor any row of a normalized space."""
    rng = np.random.default_rng(38)
    vectors = rng.standard_normal((9, 12))
    words = [f"t{i}" for i in range(9)]
    unit = EmbeddingSpace(words, vectors / np.linalg.norm(vectors, axis=1, keepdims=True), True)
    vectors[[2, 7]] = ODD_ROWS[kind](12)
    space = EmbeddingSpace(words, vectors)
    norms = space.row_norms
    odd = np.flatnonzero(~(norms >= 2.0**-450) | np.isinf(norms))
    assert space._forced.tolist() == odd[vectors[odd].any(axis=1)].tolist()
    assert space._forced.tolist() == ([] if kind in ("zero", "overflowing") else [2, 7])
    assert unit._forced.tolist() == []
    for forced in (space._forced, unit._forced):
        with pytest.raises(ValueError, match="read-only"):
            forced[:] = 0


def float32_near_copies(normalized, seed):
    """Rows of groups of 16 near-copies, each entry moved by up to 8 float32 ulps,
    and queries near the groups' first rows: their cosines differ by less than
    the float32 GEMM's error, so it cannot order them, but float64 can."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((160, 300))
    if normalized:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    for base in range(0, 160, 16):
        steps = rng.integers(-8, 9, size=(15, 300)) * 2.0**-24
        vectors[base + 1:base + 16] = vectors[base] * (1.0 + steps)
    space = EmbeddingSpace([f"t{i}" for i in range(160)], vectors, normalized)
    queries = vectors[::16] + 0.5 * rng.standard_normal((10, 300))
    return space, [*queries, *vectors[::16]]


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("tile", [4096, 24])
def test_float32_near_copies_rank_as_float64(normalized, tile):
    for seed in range(3):
        space, queries = float32_near_copies(normalized, seed)
        for k in (1, 4, 10):
            assert_ranks_per_query(space, queries, k, tile, per_block=7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing rows, as per query
@pytest.mark.parametrize("tile", [4096, 3])
def test_float32_extremes_rank_as_float64(tile):
    """Exact ties, a zero row, overflowing and tiny rows, rows whose unit entries
    fall below float32's normal range (2**-126) and rows of entries beyond
    float32's range, in a raw space; then the normal rows, normalized."""
    rng = np.random.default_rng(35)
    vectors = rng.standard_normal((24, 50))
    vectors[3] = vectors[17] = vectors[5]
    vectors[8] = 0.0
    vectors[10] = ODD_ROWS["overflowing mixed"](50)
    vectors[11] = ODD_ROWS["tiny"](50)
    for row in (13, 14, 15):  # unit entries from 1e-30 down to subnormal float32 and below
        vectors[row] = vectors[row - 12]
        vectors[row, 25:] = vectors[row, 25:] * 10.0 ** -rng.integers(30, 50, size=25)
    vectors[20] = vectors[19] * 2.0**400  # beyond float32's range; ties with row 19 exactly
    vectors[21] = rng.standard_normal(50) * 1e39
    space = EmbeddingSpace([f"t{i}" for i in range(24)], vectors)
    queries = [*rng.standard_normal((4, 50)), *vectors[[1, 5, 13, 19, 21]]]
    tiny_entries = vectors[2].copy()
    tiny_entries[::2] *= 1e-44  # a query whose unit entries underflow float32
    queries.append(tiny_entries)
    for k in (1, 2, 5):
        assert_ranks_per_query(space, queries, k, tile)
    normal = [i for i in range(24) if i not in (8, 10, 11)]
    unit = vectors[normal] / space.row_norms[normal][:, None]
    space = EmbeddingSpace([f"t{i}" for i in range(len(normal))], unit, normalized=True)
    for k in (1, 2, 5):
        assert_ranks_per_query(space, queries, k, tile)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # an overflowing row
@pytest.mark.parametrize("normalized", [True, False])
def test_float32_rows_are_built_once_and_read_only(normalized):
    """The first ranking casts the space's unit rows to float32, forced rows as
    zero (a row whose squares overflow is not one unless its norm does too);
    later rankings reuse that one read-only array."""
    rng = np.random.default_rng(36)
    vectors = rng.standard_normal((30, 8))
    if normalized:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    else:
        vectors[[4, 9, 14]] = [ODD_ROWS[kind](8) for kind in ("tiny", "overflowing",
                                                             "overflowing mixed")]
    space = EmbeddingSpace([f"t{i}" for i in range(30)], vectors, normalized)
    top_k_rows(space, rng.standard_normal((3, 8)), 2)
    rows = space._unit32
    expected = (vectors / space.row_norms[:, None]).astype(np.float32)
    if not normalized:
        assert np.abs(expected[9]).max() > 0.0
        expected[[4, 14]] = 0.0
    assert rows.dtype == np.float32 and rows.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1.0
    top_k_rows(space, rng.standard_normal((3, 8)), 5)
    assert space._unit32 is rows
