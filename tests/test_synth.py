import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lexmap.analysis import precision_at_k, spearman_correlation
from lexmap.lexicon import (
    BilingualLexicon,
    build_dataset,
    build_full_dataset,
    load_lexicon,
    split_dataset,
)
from lexmap.mapper import LinearMap, TrainConfig, train_least_squares
from lexmap.neighborhoods import build_neighborhood
from lexmap.synth import (
    default_anchor_words,
    export_world,
    generate_linear_world,
    generate_nonlinear_world,
    load_world,
    local_map_at,
    locality_diagnostic,
    pairwise_to_tsv,
    rotation_matrix,
)
from lexmap.translate import translate_topk


class TestGeneration:
    def test_same_seed_same_world(self):
        a = generate_linear_world(200, 8, seed=3, n_clusters=4)
        b = generate_linear_world(200, 8, seed=3, n_clusters=4)
        assert np.array_equal(a.src_space.vectors, b.src_space.vectors)
        assert np.array_equal(a.tgt_space.vectors, b.tgt_space.vectors)
        assert a.region_labels == b.region_labels

    def test_different_seed_different_world(self):
        a = generate_linear_world(200, 8, seed=3, n_clusters=4)
        b = generate_linear_world(200, 8, seed=4, n_clusters=4)
        assert not np.array_equal(a.src_space.vectors, b.src_space.vectors)

    def test_noiseless_targets_exactly_linear(self):
        world = generate_linear_world(300, 10, seed=1, n_clusters=4)
        G = world.ground_truth.matrix
        assert_allclose(world.tgt_space.vectors, world.src_space.vectors @ G.T, atol=0)

    def test_lexicon_is_bijection(self):
        world = generate_linear_world(150, 8, seed=2, n_clusters=4)
        targets = [t for ts in world.lexicon.pairs.values() for t in ts]
        assert len(world.lexicon) == 150
        assert len(targets) == len(set(targets)) == 150

    def test_generating_matrix_well_conditioned(self):
        world = generate_linear_world(100, 12, seed=5)
        assert np.linalg.cond(world.ground_truth.matrix) <= 10.0

    def test_strength_zero_degenerates_bitwise(self):
        """The rotating generator at strength 0 IS the linear generator."""
        a = generate_linear_world(300, 12, seed=9, noise_sigma=0.01)
        b = generate_nonlinear_world(300, 12, seed=9, variation_strength=0.0, noise_sigma=0.01)
        assert np.array_equal(a.src_space.vectors, b.src_space.vectors)
        assert np.array_equal(a.tgt_space.vectors, b.tgt_space.vectors)

    def test_rotation_matrix_consistent_with_generation(self):
        """Vectorized target construction equals the explicit local map."""
        world = generate_nonlinear_world(50, 10, seed=4, variation_strength=1.2, n_clusters=4)
        for i in (0, 17, 42):
            x = world.src_space.vectors[i]
            y = world.tgt_space.vectors[i]
            assert_allclose(local_map_at(world, x) @ x, y, atol=1e-12)

    def test_rotation_matrix_is_orthogonal(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(7)
        p /= np.linalg.norm(p)
        q = rng.standard_normal(7)
        q -= (q @ p) * p
        q /= np.linalg.norm(q)
        R = rotation_matrix(p, q, 1.1)
        assert_allclose(R @ R.T, np.eye(7), atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_linear_world(1, 8)
        with pytest.raises(ValueError):
            generate_linear_world(100, 8, noise_sigma=-1.0)
        with pytest.raises(ValueError):
            generate_nonlinear_world(100, 8, variation_strength=-0.5)
        with pytest.raises(ValueError):
            generate_linear_world(100, 6, n_clusters=8)  # too few dimensions


class TestOracleChecks:
    def test_least_squares_recovers_generator(self):
        """Noiseless world: lsq on >= d+10 pairs recovers the matrix."""
        world = generate_linear_world(400, 30, seed=7)
        full = build_full_dataset(world.lexicon, world.src_space, world.tgt_space)
        train, _ = split_dataset(full, 100, seed=7)
        fitted = train_least_squares(train, world.tgt_space, lam=0.0)
        assert np.max(np.abs(fitted.matrix - world.ground_truth.matrix)) < 1e-5

    def test_generating_map_translates_perfectly(self):
        world = generate_linear_world(250, 10, seed=8, n_clusters=4)
        m = LinearMap(world.ground_truth.matrix)
        full = build_full_dataset(world.lexicon, world.src_space, world.tgt_space)
        assert precision_at_k(m, full, world.tgt_space, 1) == 100.0

    def test_distant_local_maps_diverge_when_rotating(self):
        """Strong rotation: maps fitted at opposite ends disagree (< 0.9)."""
        world = generate_nonlinear_world(2500, 16, seed=3, variation_strength=2.0, cluster_std=0.2)
        anchors = default_anchor_words(world)
        ends = [anchors[0], anchors[-1]]
        maps = []
        for anchor in ends:
            nb = build_neighborhood(world.src_space, anchor, 0.5)
            ds = build_dataset(nb, world.lexicon, world.src_space, world.tgt_space)
            train, _ = split_dataset(ds, 50, seed=3)
            maps.append(train_least_squares(train, world.tgt_space, lam=1e-6))
        from lexmap.analysis import matrix_cosine

        assert matrix_cosine(maps[0].matrix, maps[1].matrix) < 0.9

    def test_tight_cluster_locally_linear(self):
        """Within one cluster the rotating map is linear to 99%+ retrieval."""
        world = generate_nonlinear_world(3000, 20, seed=1, variation_strength=2.0, cluster_std=0.2)
        anchor = default_anchor_words(world)[0]
        nb = build_neighborhood(world.src_space, anchor, 0.5)
        ds = build_dataset(nb, world.lexicon, world.src_space, world.tgt_space)
        train, test = split_dataset(ds, 100, seed=1)
        fitted = train_least_squares(train, world.tgt_space, lam=1e-6)
        assert precision_at_k(fitted, test, world.tgt_space, 1) >= 99.0


class TestLocalityDiagnostic:
    def test_single_anchor_self_row(self):
        world = generate_linear_world(2500, 16, seed=2, cluster_std=0.2)
        anchor = default_anchor_words(world)[0]
        report = locality_diagnostic(
            world, [anchor], 0.5, "least_squares", TrainConfig(seed=2), test_size=60, lam=1e-6
        )
        assert len(report.rows) == 1
        assert report.rows[0].delta == 0.0
        assert report.rows[0].map_cosine == 1.0
        assert report.pairwise_map_cosines == []

    def test_linear_world_high_agreement(self):
        world = generate_linear_world(2500, 16, seed=2, cluster_std=0.2)
        anchors = default_anchor_words(world)
        report = locality_diagnostic(
            world, anchors, 0.5, "least_squares", TrainConfig(seed=2), test_size=60, lam=1e-6
        )
        assert min(mc for *_, mc in report.pairwise_map_cosines) >= 0.95

    def test_rotating_world_trend(self):
        world = generate_nonlinear_world(2500, 16, seed=2, variation_strength=2.0, cluster_std=0.2)
        anchors = default_anchor_words(world)
        report = locality_diagnostic(
            world, anchors, 0.5, "least_squares", TrainConfig(seed=2), test_size=60, lam=1e-6
        )
        rows_rho = spearman_correlation(
            [r.anchor_cosine for r in report.rows], [r.map_cosine for r in report.rows]
        )
        assert rows_rho >= 0.8
        assert min(mc for *_, mc in report.pairwise_map_cosines) < 0.9
        tsv = pairwise_to_tsv(report)
        assert tsv.startswith("anchor_a\tanchor_b\tanchor_cosine\tmap_cosine\n")


# lexicon tokens hold no whitespace, which separates the two fields of a line
LEX_TOKENS = st.text(st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace()),
                     min_size=1, max_size=6)


class TestWorldExport:
    def test_round_trip_bit_exact(self, tmp_path):
        world = generate_nonlinear_world(120, 10, seed=6, variation_strength=1.0, n_clusters=4)
        export_world(world, tmp_path / "w")
        back = load_world(tmp_path / "w")
        assert back.src_space.words == world.src_space.words
        assert np.array_equal(back.src_space.vectors, world.src_space.vectors)
        assert np.array_equal(back.tgt_space.vectors, world.tgt_space.vectors)
        assert np.array_equal(back.ground_truth.matrix, world.ground_truth.matrix)
        assert back.region_labels == world.region_labels
        assert back.lexicon.pairs == world.lexicon.pairs
        assert back.ground_truth.variation_strength == 1.0

    def test_missing_descriptor(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_world(tmp_path / "absent")

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(LEX_TOKENS, st.lists(LEX_TOKENS, min_size=1, max_size=4, unique=True),
                           max_size=8))
    def test_lexicon_file_round_trips_pairs_in_order(self, tmp_path_factory, pairs):
        """export_world's lexicon.txt reads back with every source's targets in order."""
        world = generate_linear_world(40, 5, seed=0, n_clusters=2)
        directory = tmp_path_factory.mktemp("w")
        export_world(dataclasses.replace(world, lexicon=BilingualLexicon(pairs)), directory)
        back = load_lexicon(directory / "lexicon.txt")
        assert list(back.pairs.items()) == list(pairs.items())
        assert back.line_count == sum(map(len, pairs.values()))
        assert (back.dedup_count, back.skipped_count) == (0, 0)
