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

    with mock.patch.object(embeddings, "_block_queries", lambda space: per_block):
        got = result_or_error(batched)
    assert got == result_or_error(per_query_top_k, space, queries, k)  # a zero query raises


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("per_block", [1, 7, 1000])
def test_top_k_rows_on_near_ties_at_d300(normalized, per_block):
    """Many rows a few ulps from the best at the benchmark's width.

    Each query's own row is copied and nudged by 1 to 3 ulps per entry, so
    the top scores differ in their last bits and GEMM and ``np.vecdot``
    can order them differently.
    """
    rng = np.random.default_rng(14)
    vectors = rng.standard_normal((400, 300)) * rng.uniform(0.5, 2, size=(400, 1))
    if normalized:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
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
        with mock.patch.object(embeddings, "_block_queries", lambda space: per_block):
            indices, scores = top_k_rows(space, queries, k)
        got = ([row.tolist() for row in indices], [row.tobytes() for row in scores])
        assert got == per_query_top_k(space, queries, k)
