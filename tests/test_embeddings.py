import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lexmap import embeddings
from lexmap.embeddings import (
    EmbeddingSpace,
    cosine_similarity,
    cosines_to_all,
    load_embeddings,
    top_k_by_cosine,
    top_k_indices,
    top_k_rows,
    write_embeddings,
)

from conftest import load_every_way, random_space, write_vec


class TestLoadEmbeddings:
    def test_basic_load_and_normalize(self, tmp_path):
        """Format definition plus unit scaling."""
        path = write_vec(tmp_path / "t.vec", [("a", [1, 0, 0]), ("b", [0, 2, 0])])
        space = load_embeddings(path, normalize=True)
        assert space.words == ("a", "b")
        assert space.dim == 3
        assert_allclose(space.vector("b"), [0.0, 1.0, 0.0])
        assert space.normalized

    def test_limit_truncates_in_file_order(self, tmp_path):
        path = write_vec(tmp_path / "t.vec", [("a", [1, 0, 0]), ("b", [0, 2, 0])])
        space = load_embeddings(path, limit=1)
        assert space.words == ("a",)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        path = write_vec(tmp_path / "t.vec", [("a", [1, 0, 0]), ("b", [0, 2, 0])])
        with pytest.raises(ValueError, match=f"^limit must be >= 1, got {limit}$"):
            load_embeddings(path, limit=limit)

    @pytest.mark.parametrize("header_count, body_lines, limit, expected", [
        (3, 3, None, 0),
        (3, 5, None, 1),  # header too short: 3 words load
        (5, 2, None, 1),  # header too long: 2 words load
        (5, 2, 5, 1),  # a limit at the count cuts nothing
        (5, 2, 4, 0),  # a limit below the count cuts the read short
        (3, 5, 2, 0),
        (0, 2, None, 1),
        (300, 301, None, 1),  # the extra line is past the first chunk
        (300, 300, None, 0),
    ])
    def test_header_count_against_body_lines(self, tmp_path, header_count, body_lines, limit, expected):
        entries = [(f"w{i}", [1.0, float(i)]) for i in range(body_lines)]
        path = write_vec(tmp_path / "t.vec", entries, header_count=header_count)
        space = load_embeddings(path, limit=limit)
        assert space.stats.header_mismatch == expected
        assert len(space) == min(header_count, body_lines, limit or header_count)

    def test_duplicate_token_keeps_first_and_counts(self, tmp_path):
        path = write_vec(
            tmp_path / "t.vec",
            [("a", [1, 0]), ("b", [0, 1]), ("a", [0.5, 0.5])],
        )
        space = load_embeddings(path, normalize=False)
        assert space.words == ("a", "b")
        assert_allclose(space.vector("a"), [1.0, 0.0])
        assert space.stats.duplicates == 1

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.vec"
        path.write_text("3 2\na 1 0\nbad token line 1 2 3\nb 0 1\n", encoding="utf-8")
        space = load_embeddings(path)
        assert space.words == ("a", "b")
        assert space.stats.malformed == 1

    def test_zero_vector_dropped_under_normalize(self, tmp_path):
        path = write_vec(tmp_path / "t.vec", [("a", [1, 0]), ("z", [0, 0]), ("b", [0, 1])])
        space = load_embeddings(path, normalize=True)
        assert space.words == ("a", "b")
        assert space.stats.zero_dropped == 1
        unnorm = load_embeddings(path, normalize=False)
        assert "z" in unnorm  # kept when not normalizing

    @pytest.mark.parametrize(
        "body",
        ["a 1 0 \nb 0 2 \nc 3 4 \n", "a 1 0\r\nb 0 2\r\nc 3 4\r\n"],
        ids=["fasttext-trailing-space", "crlf"],
    )
    def test_trailing_whitespace_loads_every_word(self, tmp_path, body):
        path = tmp_path / "t.vec"
        path.write_bytes(("3 2\n" + body).encode("utf-8"))
        space = load_embeddings(path, normalize=False)
        assert space.words == ("a", "b", "c")
        assert_allclose(space.vectors, [[1, 0], [0, 2], [3, 4]])
        assert space.stats.malformed == 0

    def test_inner_space_still_malformed(self, tmp_path):
        path = tmp_path / "t.vec"
        path.write_text("2 2\na 1 0 \nnew york 0 1 \n", encoding="utf-8")
        space = load_embeddings(path)
        assert space.words == ("a",)
        assert space.stats.malformed == 1

    @pytest.mark.parametrize("normalize", [True, False])
    def test_non_finite_rows_count_as_malformed(self, tmp_path, normalize):
        path = tmp_path / "t.vec"
        path.write_text("4 2\na 1 0\nb nan 1\nc inf 0\nd 0 -inf\n", encoding="utf-8")
        space = load_embeddings(path, normalize=normalize)
        assert space.words == ("a",)
        assert np.all(np.isfinite(space.vectors))
        assert space.stats.malformed == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_row_whose_norm_overflows(self, tmp_path):
        """Normalizing once made such a row zero and aborted the load with "not unit
        norm", then dropped it as malformed; both loads keep every finite row, and a
        normalizing load scales it by 2**-600 before its norm."""
        path = tmp_path / "t.vec"
        path.write_text("3 2\na 1e200 1e200\nb 1 0\nc 1.7e308 1.7e308\n", encoding="utf-8")
        space = load_embeddings(path)
        assert space.words == ("a", "b", "c")
        assert space.vectors == pytest.approx(np.array([[0.5**0.5] * 2, [1.0, 0.0], [0.5**0.5] * 2]),
                                              rel=1e-15)
        assert space.stats.malformed == 0 and space.stats.norm_overflow == 2
        raw = load_embeddings(path, normalize=False)
        assert raw.words == ("a", "b", "c")
        assert np.array_equal(raw.vectors, [[1e200, 1e200], [1.0, 0.0], [1.7e308, 1.7e308]])
        assert raw.stats.malformed == 0 and raw.stats.norm_overflow == 2

    def test_body_without_any_loadable_word_rejected(self, tmp_path):
        path = tmp_path / "t.vec"
        path.write_text("3 2\nbad line 1 2\nb nan 1\nz 0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no words loaded.*2 malformed.*1 zero"):
            load_embeddings(path)

    def test_empty_body_loads_empty_space(self, tmp_path):
        path = tmp_path / "t.vec"
        path.write_text("0 2\n", encoding="utf-8")
        assert len(load_embeddings(path)) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_embeddings(tmp_path / "nope.vec")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.vec"
        path.write_text("hello\na 1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_embeddings(path)

    def test_loader_idempotent(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = [(f"w{i}", rng.standard_normal(4)) for i in range(20)]
        path = write_vec(tmp_path / "t.vec", entries)
        s1 = load_embeddings(path)
        s2 = load_embeddings(path)
        assert s1.words == s2.words
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_write_then_load_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        space = random_space(rng, 15, 6)
        write_embeddings(space, tmp_path / "out.vec")
        back = load_embeddings(tmp_path / "out.vec", normalize=False)
        assert back.words == space.words
        assert np.array_equal(back.vectors, space.vectors)
        served = load_every_way(tmp_path / "out.vec", len(space))
        (tmp_path / "out.vec.npz").unlink()
        assert load_every_way(tmp_path / "out.vec", len(space)) == served

    def test_vectors_immutable(self, toy_space):
        with pytest.raises(ValueError):
            toy_space.vectors[0, 0] = 5.0


class TestEmbeddingSpace:
    @pytest.mark.parametrize("words, vectors, normalized, message", [
        (["a"], np.ones(2), False, "vectors must be a 2-D matrix (one row per word)"),
        (["a"], np.ones((2, 2)), False, "word count 1 != vector row count 2"),
        (["a", "b"], np.array([[1.0, 0.0], [0.0, 2.0]]), True,
         "normalized=True but some rows are not unit norm"),
    ])
    def test_constructor_checks(self, words, vectors, normalized, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddingSpace(words, vectors, normalized=normalized)

    def test_normalized_row_norms_are_exactly_one_and_read_only(self):
        space = random_space(np.random.default_rng(4), 50, 7)
        assert not np.array_equal(np.sqrt(np.vecdot(space.vectors, space.vectors)), np.ones(50))
        assert space.row_norms.tobytes() == np.ones(50).tobytes()
        with pytest.raises(ValueError):
            space.row_norms[0] = 2.0

    def test_normalized_cosines_are_the_clipped_products(self):
        """Dividing by a stored norm of 1.0 moves no bit of a normalized space's cosines."""
        rng = np.random.default_rng(5)
        space = random_space(rng, 60, 9)
        for _ in range(20):
            query = rng.standard_normal(9) * rng.uniform(0.01, 100)
            expected = np.clip(np.vecdot(space.vectors, query / np.linalg.norm(query)), -1.0, 1.0)
            assert cosines_to_all(space, query).tobytes() == expected.tobytes()


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 0.7])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_45_degrees(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarity([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_symmetry_and_scale_invariance(self):
        """cos(u,v) == cos(v,u) == cos(au, bv) for a,b > 0, to 1e-9."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            a, b = rng.uniform(0.01, 100, size=2)
            c = cosine_similarity(u, v)
            assert abs(c - cosine_similarity(v, u)) < 1e-9
            assert abs(c - cosine_similarity(a * u, b * v)) < 1e-9


class TestCosinesToAll:
    def test_raw_space_scores_match_per_query_norms(self):
        """Norms cached at construction give the same bits as recomputing them."""
        rng = np.random.default_rng(12)
        vectors = rng.standard_normal((40, 7)) * rng.uniform(0.1, 10, size=(40, 1))
        vectors[5] = 0.0
        space = EmbeddingSpace([f"w{i}" for i in range(40)], vectors)
        for _ in range(20):
            query = rng.standard_normal(7)
            norms = np.sqrt(np.vecdot(space.vectors, space.vectors))
            norms[norms == 0.0] = np.inf
            scores = np.vecdot(space.vectors, query / np.linalg.norm(query))
            expected = np.clip(scores / norms, -1.0, 1.0)
            got = cosines_to_all(space, query)
            assert np.array_equal(got, expected)
            assert got[5] == 0.0

    def test_a_block_of_queries_is_normed_as_each_query_alone(self):
        """A block's queries are normed in one vecdot pass, to the bits of
        np.linalg.norm of each query alone, at widths on both sides of the
        BLAS kernels' unrolling and at unaligned row offsets."""
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 7, 8, 33, 300, 301):
            space = random_space(rng, 5, d)
            queries = rng.standard_normal((40, d)) * rng.uniform(1e-3, 1e3, size=(40, 1))
            indices, scores = top_k_rows(space, queries, 5)
            for query, rows, got in zip(queries, indices, scores):
                unit = query / np.linalg.norm(query)
                expected = np.clip(np.vecdot(space.vectors[rows], unit) / space.row_norms[rows], -1, 1)
                assert got.tobytes() == expected.tobytes()

    def test_query_of_another_dimension_rejected(self, toy_space):
        with pytest.raises(ValueError, match=f"^{re.escape('query dimension (3,) != space dim 2')}$"):
            cosines_to_all(toy_space, np.ones(3))

    def test_row_norms_are_read_only(self):
        raw = EmbeddingSpace(["a", "b"], np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert_allclose(raw.row_norms, [5.0, np.inf])
        with pytest.raises(ValueError):
            raw.row_norms[0] = 1.0


class TestTopK:
    def test_self_retrieval(self, toy_space):
        result = top_k_by_cosine(toy_space, toy_space.vector("b"), 1)
        assert result[0][0] == "b"
        assert result[0][1] == pytest.approx(1.0)

    def test_matches_brute_force(self):
        """Exact ranking verified against a brute-force sort."""
        rng = np.random.default_rng(3)
        space = random_space(rng, 30, 4)
        query = rng.standard_normal(4)
        got = top_k_by_cosine(space, query, 30)
        brute = sorted(
            ((w, cosine_similarity(query, space.vector(w))) for w in space.words),
            key=lambda t: -t[1],
        )
        assert [w for w, _ in got] == [w for w, _ in brute]
        assert_allclose([s for _, s in got], [s for _, s in brute], atol=1e-12)

    def test_tie_break_by_vocab_index(self):
        space = EmbeddingSpace(
            ["x", "y"], np.array([[1.0, 0.0], [1.0, 0.0]]), normalized=True
        )
        result = top_k_by_cosine(space, np.array([1.0, 0.0]), 2)
        assert [w for w, _ in result] == ["x", "y"]

    def test_top_k_rows_rejects_k_below_one(self, toy_space):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            top_k_rows(toy_space, [np.array([1.0, 0.0])], 0)

    def test_k_larger_than_vocab_returns_all(self, toy_space):
        assert len(top_k_by_cosine(toy_space, np.array([1.0, 0.0]), 100)) == 3

    def test_full_k_is_sorted_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            space = random_space(rng, 20, 3)
            got = top_k_by_cosine(space, rng.standard_normal(3), 20)
            assert sorted(w for w, _ in got) == sorted(space.words)
            scores = [s for _, s in got]
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_prefix_property(self):
        """top-k1 is a prefix of top-k2 for k1 <= k2."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            space = random_space(rng, 25, 3)
            query = rng.standard_normal(3)
            full = top_k_by_cosine(space, query, 25)
            for k in (1, 5, 12):
                assert top_k_by_cosine(space, query, k) == full[:k]

    @pytest.mark.parametrize("kind", ["normalized", "raw", "raw with a forced row"])
    def test_mixed_block_ranks_each_query_as_alone(self, kind, monkeypatch):
        """One block of queries, most of whose margins admit exactly k rows.

        Copies of row 0 a few ulps apart tie at the top, so a query along row
        0 admits more than k rows; so does a query with an inf entry, whose
        unit vector is not finite. A row whose squares underflow is a forced
        candidate of every query. Each such query is ranked on its own. The
        others are ranked together, in one 2-D top_k_indices, among them a
        query along row 5, which ties exactly with its copy in row 6, and a
        query whose squares underflow. Every result equals cosines_to_all
        ranked by top_k_indices.
        """
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((60, 300))
        if kind == "normalized":
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors[1] = vectors[0]
        vectors[2] = np.nextafter(vectors[0], np.inf)
        vectors[6] = vectors[5]
        if kind == "raw with a forced row":
            vectors[30] = np.full(300, 2.3e-162)
        space = EmbeddingSpace([f"t{i}" for i in range(60)], vectors, kind == "normalized")
        alone = [vectors[0] * 3.0, np.resize([np.inf, 1.0], 300), vectors[0]]
        tiny = rng.standard_normal(300) * 1e-160
        queries = [*rng.standard_normal((3, 300)), alone[0], tiny, vectors[5] * 2.0, alone[1],
                   *rng.standard_normal((3, 300)), alone[2]]

        def ranked(query):
            cos = cosines_to_all(space, query)
            top = top_k_indices(cos, 2)
            return top.tolist(), cos[top].tobytes()

        expected = [ranked(query) for query in queries]
        assert expected[5][0] == [5, 6]
        ranked_alone = []
        monkeypatch.setattr(embeddings, "_block_queries", lambda space: len(queries))

        def spy(scores, k):
            if np.ndim(scores) == 1:
                ranked_alone.append(scores)
            return top_k_indices(scores, k)

        monkeypatch.setattr(embeddings, "top_k_indices", spy)
        indices, scores = top_k_rows(space, queries, 2)
        assert [(row.tolist(), s.tobytes()) for row, s in zip(indices, scores)] == expected
        assert len(ranked_alone) == (len(queries) if "forced" in kind else len(alone))
