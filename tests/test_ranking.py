"""Property tests of the one ranking rule: descending score, ties by index.

Every ranking in lexmap goes through ``top_k_indices``. These tests build
exact ties on purpose (repeated scores, duplicated vectors) and compare each
ranking path with the per-query reference it replaced. Equal rows of a
random float space must tie exactly too, wherever they sit in the matrix.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexmap.analysis import precision_at_k
from lexmap.embeddings import (
    EmbeddingSpace,
    cosine_similarity,
    cosines_to_all,
    top_k_by_cosine,
    top_k_indices,
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
    tgt = EmbeddingSpace("t", [f"t{i}" for i in range(len(rows))], rows)
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


def _rank_arithmetic_precision(m, test, tgt_space, k, single_reference):
    """precision@k as first written: count the scores ahead of each gold."""
    hits = 0
    for inst in test.instances:
        scores = cosines_to_all(tgt_space, m.apply(inst.source_vector))
        golds = inst.gold_targets[:1] if single_reference else inst.gold_targets
        for gold in golds:
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
    single = data.draw(st.booleans(), label="single_reference")
    assert precision_at_k(m, test, tgt, k, single) == _rank_arithmetic_precision(
        m, test, tgt, k, single
    )


@given(tied_retrieval(), st.data())
def test_top_k_by_cosine_matches_filtered_full_order(case, data):
    m, test, tgt = case
    query = m.apply(test.instances[0].source_vector)
    k = data.draw(st.integers(1, len(tgt) + 1), label="k")
    exclude = set(data.draw(st.lists(st.sampled_from(tgt.words), max_size=4), label="exclude"))
    scores = cosines_to_all(tgt, query)
    order = [i for i in np.argsort(-scores, kind="stable") if tgt.words[i] not in exclude]
    expected = [(tgt.words[i], float(scores[i])) for i in order[:k]]
    assert top_k_by_cosine(tgt, query, k, exclude=exclude) == expected


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
    return EmbeddingSpace("t", [f"t{i}" for i in range(n)], vectors, normalized), rng


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
            alone = EmbeddingSpace("one", ["w"], row[None, :], space.normalized)
            assert cosines_to_all(alone, query)[0].hex() == score.hex()
        ranked = [space.index(w) for w, _ in top_k_by_cosine(space, query, len(space))]
        assert [i for i in ranked if i in copies] == copies
        k = ranked.index(copies[0]) + 1
        for gold, expected in ((copies[0], 100.0), (copies[1], 0.0)):
            test = TranslationDataset((Instance("q", query, (space.words[gold],)),))
            assert precision_at_k(identity, test, space, k) == expected
