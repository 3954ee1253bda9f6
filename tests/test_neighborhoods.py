import numpy as np
import pytest

from lexmap.embeddings import EmbeddingSpace, cosine_similarity
from lexmap.neighborhoods import build_neighborhood, growth_profile, profile_to_tsv

from conftest import random_space


class TestBuildNeighborhood:
    def test_threshold_half_on_toy_space(self, toy_space):
        """cos(a,b)=0.8 and cos(a,c)=0, so s=0.5 keeps exactly {a, b}."""
        nb = build_neighborhood(toy_space, "a", 0.5)
        assert nb.member_words() == ["a", "b"]
        assert nb.members[0][1] == pytest.approx(1.0)
        assert nb.members[1][1] == pytest.approx(0.8)

    def test_threshold_one_keeps_anchor_and_exact_duplicates(self):
        space = EmbeddingSpace(
            ["a", "dup", "c"],
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            normalized=True,
        )
        nb = build_neighborhood(space, "a", 1.0)
        assert nb.member_words() == ["a", "dup"]

    def test_vacuous_threshold_keeps_everything(self, toy_space):
        nb = build_neighborhood(toy_space, "a", -1.0)
        assert sorted(nb.member_words()) == ["a", "b", "c"]

    def test_anchor_is_member_with_unit_cosine(self):
        rng = np.random.default_rng(2)
        space = random_space(rng, 40, 7)
        nb = build_neighborhood(space, "rand3", 0.99)
        by_word = dict(nb.members)
        assert abs(by_word["rand3"] - 1.0) < 1e-6

    def test_missing_anchor_names_token(self, toy_space):
        with pytest.raises(KeyError, match="ghost"):
            build_neighborhood(toy_space, "ghost", 0.5)

    def test_threshold_out_of_range(self, toy_space):
        with pytest.raises(ValueError):
            build_neighborhood(toy_space, "a", 1.5)

    def test_members_sorted_non_increasing(self):
        rng = np.random.default_rng(4)
        space = random_space(rng, 60, 5)
        nb = build_neighborhood(space, "rand0", -1.0)
        scores = [c for _, c in nb.members]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_matches_brute_force_filter(self):
        """Membership equals a direct predicate scan for random spaces."""
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(5, 120))
            space = random_space(rng, n, int(rng.integers(2, 8)))
            anchor = space.words[int(rng.integers(n))]
            s = float(rng.uniform(-1, 1))
            nb = build_neighborhood(space, anchor, s)
            anchor_vec = space.vector(anchor)
            brute = {
                w for w in space.words
                if cosine_similarity(anchor_vec, space.vector(w)) >= s
            }
            brute.add(anchor)
            assert set(nb.member_words()) == brute

    def test_nesting(self):
        """Members at a larger threshold are a subset of a smaller one's."""
        rng = np.random.default_rng(9)
        for _ in range(30):
            space = random_space(rng, 80, 6)
            anchor = space.words[int(rng.integers(80))]
            s1, s2 = sorted(rng.uniform(-1, 1, size=2), reverse=True)
            high = set(build_neighborhood(space, anchor, s1).member_words())
            low = set(build_neighborhood(space, anchor, s2).member_words())
            assert high <= low


class TestGrowthProfile:
    def test_toy_profile(self, toy_space):
        assert growth_profile(toy_space, "a", [1.0, 0.5, -1.0]) == [
            (1.0, 1),
            (0.5, 2),
            (-1.0, 3),
        ]

    def test_single_threshold_consistent_with_build(self, toy_space):
        profile = growth_profile(toy_space, "a", [0.5])
        assert profile == [(0.5, len(build_neighborhood(toy_space, "a", 0.5)))]

    def test_anchor_counted_where_its_own_cosine_is_below_s(self):
        """The raw row [0.1, 0.2, 0.3] has a self-cosine of 1 - 2**-53."""
        space = EmbeddingSpace(["a", "b"], np.array([[0.1, 0.2, 0.3], [-0.1, -0.2, -0.3]]))
        profile = growth_profile(space, "a", [1.0, -1.0])
        assert profile == [(1.0, 1), (-1.0, 2)]
        assert [count for _, count in profile] == [
            len(build_neighborhood(space, "a", s)) for s, _ in profile
        ]

    def test_empty_thresholds(self, toy_space):
        assert growth_profile(toy_space, "a", []) == []

    def test_counts_non_decreasing(self):
        rng = np.random.default_rng(12)
        space = random_space(rng, 100, 5)
        thresholds = [0.9, 0.6, 0.3, 0.0, -0.5]
        counts = [c for _, c in growth_profile(space, "rand7", thresholds)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rejects_non_descending(self, toy_space):
        with pytest.raises(ValueError, match="descending"):
            growth_profile(toy_space, "a", [0.5, 0.5])

    def test_tsv_output(self, toy_space):
        tsv = profile_to_tsv(growth_profile(toy_space, "a", [1.0, 0.5]))
        assert tsv == "s\tcount\n1.0\t1\n0.5\t2\n"
