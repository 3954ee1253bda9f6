import json
import math

import numpy as np
import pytest

from lexmap import analysis
from lexmap.analysis import (
    TSV_COLUMNS,
    frobenius_norm,
    matrix_cosine,
    pearson_correlation,
    precision_at_k,
    report_scatter_tsv,
    report_to_records,
    report_to_tsv,
    run_experiment,
    spearman_correlation,
)
from lexmap.embeddings import EmbeddingSpace, top_k_by_cosine
from lexmap.lexicon import BilingualLexicon, build_full_dataset
from lexmap.mapper import LinearMap, TrainConfig
from lexmap.neighborhoods import build_neighborhood
from lexmap.synth import default_anchor_words, generate_linear_world, generate_nonlinear_world

from conftest import random_space


class TestMatrixCosine:
    def test_self_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.standard_normal((5, 7)) * 10 ** rng.uniform(-6, 6)
            assert matrix_cosine(m, m) == 1.0

    def test_negation_is_minus_one(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        assert matrix_cosine(m, -m) == -1.0

    def test_rotation_vs_identity_has_zero_trace(self):
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert matrix_cosine(np.eye(2), rot90) == pytest.approx(0.0)

    def test_scale_sign_invariance(self):
        """cos(aM1, bM2) = sign(ab) cos(M1, M2), to 1e-9."""
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m1 = rng.standard_normal((3, 5))
            m2 = rng.standard_normal((3, 5))
            a = rng.uniform(-50, 50) or 1.0
            b = rng.uniform(-50, 50) or 1.0
            want = math.copysign(1.0, a * b) * matrix_cosine(m1, m2)
            assert abs(matrix_cosine(a * m1, b * m2) - want) < 1e-9

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m1 = rng.standard_normal((4, 4))
            m2 = rng.standard_normal((4, 4))
            c = matrix_cosine(m1, m2)
            assert c == matrix_cosine(m2, m1)
            assert abs(c) <= 1.0 + 1e-12

    def test_trace_formula_agreement(self):
        """Same value through tr(M1^T M2) / sqrt(tr(M1^T M1) tr(M2^T M2))."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            m1 = rng.standard_normal((6, 3))
            m2 = rng.standard_normal((6, 3))
            trace_form = np.trace(m1.T @ m2) / math.sqrt(
                np.trace(m1.T @ m1) * np.trace(m2.T @ m2)
            )
            assert matrix_cosine(m1, m2) == pytest.approx(trace_form, abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            matrix_cosine(np.zeros((2, 2)), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_cosine(np.eye(2), np.eye(3))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((4, 9))) == 0.0

    def test_300_identity_matches_sqrt_300(self):
        assert frobenius_norm(np.eye(300)) == pytest.approx(math.sqrt(300), abs=1e-3)
        assert frobenius_norm(np.eye(300)) == pytest.approx(17.3205, abs=1e-3)

    def test_all_ones_2x2(self):
        assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_squared_norm_equals_trace(self):
        """||M||^2 == tr(M^T M) within relative 1e-9."""
        rng = np.random.default_rng(5)
        for _ in range(1000):
            m = rng.standard_normal((3, 6)) * 10 ** rng.uniform(-3, 3)
            n2 = frobenius_norm(m) ** 2
            tr = float(np.trace(m.T @ m))
            assert abs(n2 - tr) <= 1e-9 * max(abs(tr), 1e-300)


class TestPrecisionAtK:
    def _fixture(self):
        tgt = EmbeddingSpace(
            ["t0", "t1", "t2", "t3"],
            np.array([[1.0, 0.0], [0.0, 1.0], [0.8, 0.6], [-1.0, 0.0]]),
            normalized=True,
        )
        src = EmbeddingSpace(
            ["s0", "s1", "s2"],
            np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]]),
            normalized=True,
        )
        lex = BilingualLexicon({"s0": ["t0"], "s1": ["t1"], "s2": ["t3"]})
        return build_full_dataset(lex, src, tgt), tgt

    def test_identity_on_matched_world_is_100(self):
        rng = np.random.default_rng(6)
        src = random_space(rng, 20, 4, tag="s")
        tgt = EmbeddingSpace([f"t{i}" for i in range(20)], src.vectors, normalized=True)
        lex = BilingualLexicon({f"s{i}": [f"t{i}"] for i in range(20)})
        ds = build_full_dataset(lex, src, tgt)
        assert precision_at_k(LinearMap(np.eye(4)), ds, tgt, 1) == 100.0

    def test_k_equal_vocab_is_100(self):
        ds, tgt = self._fixture()
        assert precision_at_k(LinearMap(np.eye(2)), ds, tgt, 4) == 100.0

    def test_hand_fixture_two_of_three(self):
        """s2's gold t3 is not in its top-1 under the identity map."""
        ds, tgt = self._fixture()
        got = precision_at_k(LinearMap(np.eye(2)), ds, tgt, 1)
        assert got == pytest.approx(66.67, abs=0.01)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            src = random_space(rng, 12, 3, tag="s")
            tgt = random_space(rng, 12, 3, tag="t")
            lex = BilingualLexicon({f"s{i}": [f"t{int(rng.integers(12))}"] for i in range(12)})
            ds = build_full_dataset(lex, src, tgt)
            m = LinearMap(rng.standard_normal((3, 3)))
            values = [precision_at_k(m, ds, tgt, k) for k in range(1, 13)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == 100.0

    def test_matches_topk_ranking(self):
        """Hit decisions agree with the brute-force top-k word lists."""
        rng = np.random.default_rng(8)
        src = random_space(rng, 15, 3, tag="s")
        tgt = random_space(rng, 15, 3, tag="t")
        lex = BilingualLexicon({f"s{i}": [f"t{int(rng.integers(15))}"] for i in range(15)})
        ds = build_full_dataset(lex, src, tgt)
        m = LinearMap(rng.standard_normal((3, 3)))
        for k in (1, 3, 7):
            hits = 0
            for inst in ds.instances:
                ranked = [w for w, _ in top_k_by_cosine(tgt, m.apply(inst.source_vector), k)]
                hits += any(g in ranked for g in inst.gold_targets)
            assert precision_at_k(m, ds, tgt, k) == pytest.approx(100.0 * hits / len(ds))

    def test_empty_test_set_rejected(self):
        from lexmap.lexicon import TranslationDataset

        _, tgt = self._fixture()
        with pytest.raises(ValueError, match="empty"):
            precision_at_k(LinearMap(np.eye(2)), TranslationDataset(()), tgt, 1)


class TestPearson:
    def test_perfect_linear(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson_correlation(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_perfect_anti_linear(self):
        xs = [0.3, 1.2, 4.4]
        assert pearson_correlation(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert pearson_correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0], [2.0])

    def test_spearman_monotone_is_one(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 25, 90]) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def linear_report():
    world = generate_linear_world(2500, 16, seed=5, cluster_std=0.2)
    anchors = default_anchor_words(world)[:4]
    report = run_experiment(
        anchors,
        0.5,
        world.src_space,
        world.tgt_space,
        world.lexicon,
        TrainConfig(seed=5),
        test_size=80,
        seed=5,
        trainer="least_squares",
        lam=1e-6,
    )
    return world, report


def _lexicon_starving(world, reference, anchor):
    """The world's lexicon without the words only ``anchor``'s neighborhood holds.

    ``anchor`` then pairs only the neighbors it shares with ``reference``:
    fewer than a test split of 80, while ``reference`` keeps all of its pairs.
    """
    kept, starved = (set(build_neighborhood(world.src_space, a, 0.5).member_words())
                     for a in (reference, anchor))
    assert len(starved & kept) < 80
    return BilingualLexicon({w: t for w, t in world.lexicon.pairs.items() if w not in starved - kept})


class TestRunExperiment:
    def test_reference_row_self_comparison(self, linear_report):
        """Reference anchor row: delta exactly 0 and map cosine exactly 1."""
        _, report = linear_report
        row = report.rows[0]
        assert row.delta == 0.0
        assert row.map_cosine == 1.0
        assert row.acc_reference == row.acc_local
        assert row.anchor_cosine == pytest.approx(1.0)

    def test_linear_world_maps_agree(self, linear_report):
        """Locally fitted maps on a linear world are near-identical."""
        _, report = linear_report
        assert all(row.map_cosine >= 0.95 for row in report.rows)
        assert all(abs(row.delta) <= 5.0 for row in report.rows)

    def test_row_shapes_and_ranges(self, linear_report):
        _, report = linear_report
        assert len(report.rows) == 4
        for row in report.rows:
            assert 0.0 <= row.acc_global <= 100.0
            assert 0.0 <= row.acc_reference <= 100.0
            assert 0.0 <= row.acc_local <= 100.0
            assert row.delta == pytest.approx(row.acc_local - row.acc_reference, abs=1e-9)
            assert -1.0 <= row.map_cosine <= 1.0
            assert row.train_size >= 50 and row.test_size == 80

    def test_nonlinear_world_similarity_tracks_distance(self):
        """Map cosine falls off with anchor distance (rank correlation)."""
        world = generate_nonlinear_world(2500, 16, seed=6, variation_strength=2.0, cluster_std=0.2)
        anchors = default_anchor_words(world)
        report = run_experiment(
            anchors,
            0.5,
            world.src_space,
            world.tgt_space,
            world.lexicon,
            TrainConfig(seed=6),
            test_size=80,
            seed=6,
            trainer="least_squares",
            lam=1e-6,
        )
        sims = [row.anchor_cosine for row in report.rows]
        mcos = [row.map_cosine for row in report.rows]
        assert spearman_correlation(sims, mcos) >= 0.8
        assert report.spearman_simvacc is not None

    def test_undersized_anchor_skipped_with_diagnostic(self, linear_report):
        world, _ = linear_report
        anchors = default_anchor_words(world)[:2]
        report = run_experiment(
            anchors,
            0.5,
            world.src_space,
            world.tgt_space,
            _lexicon_starving(world, *anchors),
            TrainConfig(seed=5),
            test_size=80,
            seed=5,
            trainer="least_squares",
            lam=1e-6,
        )
        assert len(report.rows) == 1
        assert report.skipped and report.skipped[0][0] == anchors[1]
        assert report.skipped[0][1].endswith("usable pairs cannot supply a test split of 80")
        assert any("correlation omitted" in w for w in report.warnings)

    def test_unusable_reference_is_fatal(self, linear_report):
        world, _ = linear_report
        first, second = default_anchor_words(world)[:2]
        with pytest.raises(ValueError, match="reference .* cannot supply a test split of 80"):
            run_experiment(
                [second, first],
                0.5,
                world.src_space,
                world.tgt_space,
                _lexicon_starving(world, first, second),
                TrainConfig(seed=5),
                test_size=80,
                seed=5,
                trainer="least_squares",
            )

    def test_duplicate_anchors_rejected(self, linear_report):
        world, _ = linear_report
        a = default_anchor_words(world)[0]
        with pytest.raises(ValueError, match="unique"):
            run_experiment(
                [a, a], 0.5, world.src_space, world.tgt_space, world.lexicon,
                TrainConfig(seed=5), test_size=80, seed=5,
            )


def _four_cluster_world():
    """20 words near each axis of R^4 (prefixes a-d), mapped to themselves.

    Every a-word has a lexicon pair, b-words none, the first 10 c-words and
    the first 3 d-words one each. At s=0.5 each neighborhood is its cluster,
    so with a test split of 3 and min_train 8: a0 is usable, b0 has no usable
    pairs, c0 trains on 7 and d0 cannot supply the test split.
    """
    rng = np.random.default_rng(11)
    words, rows = [], []
    for axis, prefix in enumerate("abcd"):
        for i in range(20):
            row = 0.05 * rng.standard_normal(4)
            row[axis] += 1.0
            words.append(f"{prefix}{i}")
            rows.append(row / np.linalg.norm(row))
    vectors = np.array(rows)
    src = EmbeddingSpace(words, vectors, normalized=True)
    tgt = EmbeddingSpace([w.upper() for w in words], vectors, normalized=True)
    paired = [f"a{i}" for i in range(20)] + [f"c{i}" for i in range(10)] + [f"d{i}" for i in range(3)]
    return src, tgt, BilingualLexicon({w: [w.upper()] for w in paired})


def _run_four_cluster(anchors, test_size=3):
    src, tgt, lexicon = _four_cluster_world()
    return run_experiment(
        anchors, 0.5, src, tgt, lexicon, TrainConfig(seed=2),
        test_size=test_size, seed=2, trainer="lsq", lam=1e-6, eval_k=2, min_train=8,
    )


NO_PAIRS_B0 = ("no usable pairs for neighborhood 'b0' (s=0.5): {'members': 20, 'kept': 0, "
               "'dropped_no_lexicon': 20, 'dropped_no_target': 0}")
SKIP_REASONS = {
    "b0": NO_PAIRS_B0,
    "c0": "train size 7 below floor 8",
    "d0": "3 usable pairs cannot supply a test split of 3",
}


class TestSkippedAnchors:
    def test_non_reference_anchors_skipped_in_order(self):
        report = _run_four_cluster(["a0", "b0", "c0", "a1", "d0"])
        assert [row.anchor_word for row in report.rows] == ["a0", "a1"]
        assert report.skipped == [(a, SKIP_REASONS[a]) for a in ("b0", "c0", "d0")]
        assert list(report.local_maps) == ["a0", "a1"]
        assert [row.train_size for row in report.rows] == [17, 17]
        lines = report_to_tsv(report).splitlines()
        assert lines[-3:] == [f"# skipped\t{a}\t{SKIP_REASONS[a]}" for a in ("b0", "c0", "d0")]

    @pytest.mark.parametrize("reference", ["b0", "c0", "d0"])
    def test_each_reason_on_the_reference_is_fatal(self, reference):
        message = f"reference anchor {reference!r} unusable: {SKIP_REASONS[reference]}"
        with pytest.raises(ValueError) as info:
            _run_four_cluster([reference, "a0"])
        assert str(info.value) == message

    def test_unusable_reference_raises_before_later_anchors_are_scanned(self):
        """A later anchor outside the vocabulary would raise a KeyError if scanned."""
        with pytest.raises(ValueError, match="^reference anchor 'b0' unusable: no usable pairs"):
            _run_four_cluster(["b0", "not-a-word"])

    def test_k_below_one_raises_before_any_neighborhood_is_scanned(self, monkeypatch):
        def scan(*args):
            raise AssertionError("scanned a neighborhood")

        monkeypatch.setattr(analysis, "build_neighborhood", scan)
        src, tgt, lexicon = _four_cluster_world()
        with pytest.raises(ValueError) as info:
            run_experiment(["a0", "a1"], 0.5, src, tgt, lexicon, TrainConfig(seed=2),
                           test_size=3, seed=2, trainer="lsq", lam=1e-6, eval_k=0)
        assert str(info.value) == "k must be >= 1, got 0"

    @pytest.mark.parametrize("anchors", [["a0", "a1"], ["a1", "a0"]])
    def test_zero_test_size_raises_split_dataset_error(self, anchors):
        with pytest.raises(ValueError) as info:
            _run_four_cluster(anchors, test_size=0)
        assert str(info.value) == "test_count must be in (0, 20), got 0"


class TestReportEmission:
    def test_tsv_layout(self, linear_report):
        _, report = linear_report
        lines = report_to_tsv(report).splitlines()
        assert lines[0] == "\t".join(TSV_COLUMNS)
        first = lines[1].split("\t")
        assert len(first) == 10
        assert first[0] == report.rows[0].anchor_word
        # accuracies carry one decimal place
        assert first[4] == f"{report.rows[0].acc_global:.1f}"
        assert any(line.startswith("# pearson") for line in lines)
        assert any(line.startswith("# spearman") for line in lines)

    def test_jsonl_records_full_precision(self, linear_report):
        _, report = linear_report
        lines = report_to_records(report).splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["anchor_word"] == report.rows[0].anchor_word
        assert records[0]["acc_global"] == report.rows[0].acc_global
        assert "summary" in records[-1]

    def test_scatter_columns(self, linear_report):
        _, report = linear_report
        lines = report_scatter_tsv(report).splitlines()
        assert lines[0] == "map_cosine\tacc_reference"
        cell = lines[1].split("\t")
        assert float(cell[0]) == report.rows[0].map_cosine
        assert float(cell[1]) == report.rows[0].acc_reference
