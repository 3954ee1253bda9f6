import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lexmap.embeddings import (
    EmbeddingSpace,
    cosine_similarity,
    cosines_to_all,
    load_embeddings,
    top_k_by_cosine,
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
        """Normalizing made such a row zero and aborted the load with "not unit norm"."""
        path = tmp_path / "t.vec"
        path.write_text("3 2\na 1e200 1e200\nb 1 0\nc 1.7e308 1.7e308\n", encoding="utf-8")
        space = load_embeddings(path)
        assert space.words == ("b",)
        assert space.stats.malformed == 2 and space.stats.norm_overflow == 0
        raw = load_embeddings(path, normalize=False)  # raw loads keep every finite row
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
