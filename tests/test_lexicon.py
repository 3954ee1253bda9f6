import re

import numpy as np
import pytest

from lexmap.embeddings import EmbeddingSpace
from lexmap.lexicon import (
    BilingualLexicon,
    Instance,
    TranslationDataset,
    build_dataset,
    build_full_dataset,
    load_lexicon,
    split_dataset,
    union_train_datasets,
)
from lexmap.neighborhoods import build_neighborhood

from conftest import random_space


@pytest.fixture
def tgt_space():
    return EmbeddingSpace(
        ["alpha", "beta", "gamma"],
        np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
        normalized=True,
    )


class TestLoadLexicon:
    def test_multimap_semantics(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("dog Hund\ndog Hunde\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.targets("dog") == ["Hund", "Hunde"]

    def test_duplicate_line_deduplicated(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("cat Katze\ncat Katze\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.targets("cat") == ["Katze"]
        assert lex.dedup_count == 1

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("cat\ndog Hund\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.skipped_count == 1
        assert lex.targets("dog") == ["Hund"]
        assert "cat" not in lex

    def test_blank_lines_skipped_uncounted(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("dog Hund\n\n  \t\ncat Katze\n\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.pairs == {"dog": ["Hund"], "cat": ["Katze"]}
        assert (lex.line_count, lex.skipped_count) == (2, 0)

    def test_tab_or_space_separated(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("a\tx\nb y\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.targets("a") == ["x"] and lex.targets("b") == ["y"]

    def test_only_ascii_space_and_tab_separate(self, tmp_path):
        """A .vec token keeps U+00A0 and U+2028, so a lexicon token keeps them too."""
        path = tmp_path / "lex.txt"
        path.write_text("a\xa0b\tx\nc\u2028d y\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.pairs == {"a\xa0b": ["x"], "c\u2028d": ["y"]}
        assert lex.skipped_count == 0

    def test_leading_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        """Editors on Windows start UTF-8 files with U+FEFF; it used to stay on the first
        source word, whose pair was then lost uncounted. Elsewhere it is a character."""
        path = tmp_path / "lex.txt"
        path.write_text("\ufeffa alpha\nb beta\n\ufeffc gamma\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.pairs == {"a": ["alpha"], "b": ["beta"], "\ufeffc": ["gamma"]}
        assert (lex.line_count, lex.skipped_count) == (3, 0)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_line_endings_load_as_lf(self, tmp_path, newline):
        """A lexicon saved with Windows or old Mac line endings gives the pairs and
        counts of the same lines ended by LF: no token keeps a CR."""
        lines = ["dog Hund", "dog Hunde", "cat\tKatze", "", "bird Vogel  "]
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        other.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        expected, got = load_lexicon(lf), load_lexicon(other)
        assert got.pairs == expected.pairs == {
            "dog": ["Hund", "Hunde"], "cat": ["Katze"], "bird": ["Vogel"]
        }
        counts = (got.line_count, got.dedup_count, got.skipped_count)
        assert counts == (expected.line_count, expected.dedup_count, expected.skipped_count)
        assert counts == (4, 0, 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_lexicon(tmp_path / "none.txt")


class TestTranslationDataset:
    @pytest.mark.parametrize("instances, message", [
        ([Instance("a", np.zeros(2), ("x",)), Instance("a", np.ones(2), ("y",))],
         "dataset source words must be unique"),
        ([Instance("a", np.zeros(2), ("x",)), Instance("b", np.zeros(3), ("y",))],
         "dataset source vectors disagree on dimension: [(2,), (3,)]"),
        ([Instance("a", np.zeros(2), ())], "instance 'a' has an empty gold set"),
    ])
    def test_invalid_instances_rejected(self, instances, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TranslationDataset(tuple(instances))

    def test_matrices_equal_the_vstack_of_their_rows(self):
        """Both matrices hold the bytes, dtype and C order of np.vstack over the
        instances' rows; a split's instances come in shuffled order, and a later
        gold target does not count."""
        rng = np.random.default_rng(4)
        src = random_space(rng, 30, 7, tag="s")
        tgt = random_space(rng, 20, 7, tag="t")
        lex = BilingualLexicon({f"s{i}": [f"t{(3 * i) % 20}", f"t{i % 20}"] for i in range(30)})
        train, test = split_dataset(build_full_dataset(lex, src, tgt), 9, seed=5)
        for ds in (train, test):
            for got, expected in (
                (ds.source_matrix(), np.vstack([inst.source_vector for inst in ds.instances])),
                (ds.target_matrix(tgt),
                 np.vstack([tgt.vector(inst.gold_targets[0]) for inst in ds.instances])),
            ):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.flags.c_contiguous and got.flags.writeable
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("matrix", ["source", "target"])
    def test_matrices_of_an_empty_dataset_raise_as_vstack(self, tgt_space, matrix):
        empty = TranslationDataset(())
        with pytest.raises(ValueError, match="^need at least one array to concatenate$"):
            empty.source_matrix() if matrix == "source" else empty.target_matrix(tgt_space)


class TestBuildDataset:
    def test_direct_filter(self, toy_space, tgt_space):
        lex = BilingualLexicon({"a": ["alpha"]})
        nb = build_neighborhood(toy_space, "a", 0.5)  # members a, b
        ds = build_dataset(nb, lex, toy_space, tgt_space)
        assert len(ds) == 1
        assert ds.instances[0].source_word == "a"
        assert ds.instances[0].gold_targets == ("alpha",)
        assert ds.drop_stats["dropped_no_lexicon"] == 1  # b missing from lexicon

    def test_out_of_vocab_target_drops_instance(self, toy_space, tgt_space):
        lex = BilingualLexicon({"a": ["missing"], "b": ["beta"]})
        nb = build_neighborhood(toy_space, "a", 0.5)
        ds = build_dataset(nb, lex, toy_space, tgt_space)
        assert [i.source_word for i in ds.instances] == ["b"]
        assert ds.drop_stats["dropped_no_target"] == 1

    def test_partial_gold_set_is_filtered_not_dropped(self, toy_space, tgt_space):
        lex = BilingualLexicon({"a": ["missing", "gamma"]})
        nb = build_neighborhood(toy_space, "a", 0.99)
        ds = build_dataset(nb, lex, toy_space, tgt_space)
        assert ds.instances[0].gold_targets == ("gamma",)

    def test_empty_result_errors_with_stats(self, toy_space, tgt_space):
        lex = BilingualLexicon({"zzz": ["alpha"]})
        nb = build_neighborhood(toy_space, "a", 0.5)
        with pytest.raises(ValueError, match="'a'"):
            build_dataset(nb, lex, toy_space, tgt_space)

    def test_instances_subset_of_members(self, tgt_space):
        rng = np.random.default_rng(3)
        space = random_space(rng, 50, 2, tag="s")
        lex = BilingualLexicon({f"s{i}": ["alpha"] for i in range(0, 50, 2)})
        nb = build_neighborhood(space, "s0", 0.0)
        ds = build_dataset(nb, lex, space, tgt_space)
        assert len(ds) <= len(nb)
        assert ds.source_words() <= set(nb.member_words())


class TestSplitDataset:
    def _dataset(self, n=10):
        rng = np.random.default_rng(0)
        space = random_space(rng, n, 3, tag="s")
        lex = BilingualLexicon({f"s{i}": [f"t{i}"] for i in range(n)})
        tgt = random_space(rng, n, 3, tag="t")
        return build_full_dataset(lex, space, tgt)

    def test_partition_and_determinism(self):
        ds = self._dataset(10)
        train, test = split_dataset(ds, 3, seed=42)
        assert len(train) == 7 and len(test) == 3
        assert train.source_words() | test.source_words() == ds.source_words()
        assert train.source_words() & test.source_words() == set()
        train2, test2 = split_dataset(ds, 3, seed=42)
        assert test.source_words() == test2.source_words()
        assert [i.source_word for i in train.instances] == [
            i.source_word for i in train2.instances
        ]

    def test_zero_test_count_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(10), 0, seed=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="^unknown split method: 'x'$"):
            split_dataset(self._dataset(10), 3, seed=1, method="x")

    def test_test_count_must_be_less_than_size(self):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(10), 10, seed=1)

    def test_different_seeds_differ_somewhere(self):
        """Over 100 seeds at least one test membership differs."""
        ds = self._dataset(12)
        baseline = split_dataset(ds, 4, seed=0)[1].source_words()
        assert any(
            split_dataset(ds, 4, seed=s)[1].source_words() != baseline
            for s in range(1, 101)
        )

    def test_frequency_method_takes_head(self):
        ds = self._dataset(10)
        train, test = split_dataset(ds, 3, seed=0, method="frequency")
        assert [i.source_word for i in test.instances] == ["s0", "s1", "s2"]

    def test_frequency_method_on_a_neighborhood_takes_its_nearest_members(self):
        """A neighborhood's dataset is in descending cosine to the anchor, not in
        vocabulary order, so "frequency" tests on the members nearest the anchor."""
        rng = np.random.default_rng(7)
        space = random_space(rng, 40, 4, tag="s")
        lex = BilingualLexicon({f"s{i}": [f"t{i}"] for i in range(40)})
        nb = build_neighborhood(space, "s20", 0.0)
        ds = build_dataset(nb, lex, space, random_space(rng, 40, 4, tag="t"))
        test = split_dataset(ds, 5, seed=0, method="frequency")[1]
        assert [i.source_word for i in test.instances] == list(nb.member_words()[:5])
        by_index = sorted(nb.member_words(), key=space.index)[:5]
        assert [i.source_word for i in test.instances] != by_index


class TestUnionAndExport:
    def test_union_dedups_and_excludes(self):
        rng = np.random.default_rng(1)
        space = random_space(rng, 6, 3, tag="s")
        lex = BilingualLexicon({f"s{i}": [f"t{i}"] for i in range(6)})
        tgt = random_space(rng, 6, 3, tag="t")
        full = build_full_dataset(lex, space, tgt)
        a = split_dataset(full, 2, seed=0)[0]
        merged = union_train_datasets([a, a], exclude_words={"s1"})
        words = [i.source_word for i in merged.instances]
        assert len(words) == len(set(words))
        assert "s1" not in words
        assert merged.provenance == "global"

    def test_union_empty_after_exclusion_errors(self):
        rng = np.random.default_rng(2)
        space = random_space(rng, 3, 3, tag="s")
        lex = BilingualLexicon({f"s{i}": [f"t{i}"] for i in range(3)})
        tgt = random_space(rng, 3, 3, tag="t")
        full = build_full_dataset(lex, space, tgt)
        with pytest.raises(ValueError, match="empty"):
            union_train_datasets([full], exclude_words={"s0", "s1", "s2"})
