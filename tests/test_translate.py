import json
import re

import numpy as np
import pytest

from lexmap.embeddings import EmbeddingSpace
from lexmap.mapper import LinearMap
from lexmap.synth import default_anchor_words, generate_linear_world, generate_nonlinear_world
from lexmap.translate import (
    AtlasEntry,
    MapAtlas,
    load_atlas,
    piecewise_translate,
    save_atlas,
    select_entry,
    translate_topk,
)

from conftest import random_space


@pytest.fixture(scope="module")
def linear_world():
    return generate_linear_world(300, 12, seed=2)


class TestTranslateTopK:
    def test_identity_map_self_retrieval(self, toy_space):
        m = LinearMap(np.eye(2))
        out = translate_topk(m, toy_space.vector("b"), toy_space, 1)
        assert out[0][0] == "b"

    def test_oracle_world_gold_first_everywhere(self, linear_world):
        """With the true generating matrix every source retrieves its gold."""
        world = linear_world
        m = LinearMap(world.ground_truth.matrix)
        for src, targets in world.lexicon.pairs.items():
            out = translate_topk(m, world.src_space.vector(src), world.tgt_space, 1)
            assert out[0][0] == targets[0]

    def test_k1_is_head_of_k10(self, linear_world):
        world = linear_world
        m = LinearMap(world.ground_truth.matrix)
        v = world.src_space.vector("w00005")
        assert translate_topk(m, v, world.tgt_space, 10)[:1] == translate_topk(
            m, v, world.tgt_space, 1
        )

    def test_dimension_mismatch(self, toy_space):
        with pytest.raises(ValueError):
            translate_topk(LinearMap(np.eye(3)), np.ones(2), toy_space, 1)


def _atlas_for(world, anchors, maps=None):
    entries = tuple(
        AtlasEntry(a, world.src_space.vector(a), maps[i] if maps else LinearMap(world.ground_truth.matrix))
        for i, a in enumerate(anchors)
    )
    return MapAtlas(entries)


class TestPiecewiseTranslate:
    def test_single_entry_equals_plain_topk(self, linear_world):
        world = linear_world
        atlas = _atlas_for(world, ["w00003"])
        m = atlas.entries[0].linear_map
        for word in list(world.src_space.words)[:20]:
            got, label = piecewise_translate(atlas, word, world.src_space, world.tgt_space, 5)
            assert label == "w00003"
            assert got == translate_topk(m, world.src_space.vector(word), world.tgt_space, 5)

    def test_anchor_word_dispatches_to_own_map(self, linear_world):
        world = linear_world
        anchors = default_anchor_words(world)[:4]
        atlas = _atlas_for(world, anchors)
        for a in anchors:
            _, label = piecewise_translate(atlas, a, world.src_space, world.tgt_space, 1)
            assert label == a

    def test_two_region_world_dispatch_matches_region(self):
        """Nearest-anchor choice agrees with cluster membership >= 95%."""
        world = generate_nonlinear_world(
            800, 12, seed=3, variation_strength=2.0, n_clusters=2, cluster_std=0.2
        )
        anchors = default_anchor_words(world)
        atlas = _atlas_for(world, anchors)
        agree = 0
        for word, region in world.region_labels.items():
            _, label = piecewise_translate(atlas, word, world.src_space, world.tgt_space, 1)
            if world.region_labels[label] == region:
                agree += 1
        assert agree / len(world.region_labels) >= 0.95

    def test_dispatch_scale_invariance(self, linear_world):
        """Scaling anchor vectors by a positive constant keeps the choice."""
        world = linear_world
        anchors = default_anchor_words(world)[:3]
        base = _atlas_for(world, anchors)
        scaled = MapAtlas(
            tuple(
                AtlasEntry(e.anchor_word, 7.3 * e.anchor_vector, e.linear_map)
                for e in base.entries
            )
        )
        for word in list(world.src_space.words)[:40]:
            v = world.src_space.vector(word)
            assert select_entry(base, v)[1] == select_entry(scaled, v)[1]

    def test_copies_of_same_map_equal_plain_topk(self, linear_world):
        world = linear_world
        m = LinearMap(world.ground_truth.matrix)
        atlas = _atlas_for(world, default_anchor_words(world)[:5], maps=[m] * 5)
        for word in list(world.src_space.words)[:20]:
            got, _ = piecewise_translate(atlas, word, world.src_space, world.tgt_space, 3)
            assert got == translate_topk(m, world.src_space.vector(word), world.tgt_space, 3)

    def test_empty_atlas_without_fallback_errors(self, linear_world):
        world = linear_world
        with pytest.raises(ValueError, match="fallback"):
            piecewise_translate(
                MapAtlas(()), "w00001", world.src_space, world.tgt_space, 1
            )

    def test_unknown_source_word_named_in_error(self, linear_world):
        world = linear_world
        atlas = _atlas_for(world, ["w00003"])
        with pytest.raises(KeyError, match="ghost"):
            piecewise_translate(atlas, "ghost", world.src_space, world.tgt_space, 1)

    def test_fallback_used_below_floor(self, linear_world):
        world = linear_world
        # single far anchor plus a distinguishable fallback
        anchor = "w00000"
        local = LinearMap(np.zeros((12, 12)) + np.eye(12) * 2)
        fallback = LinearMap(world.ground_truth.matrix, anchor="global")
        entries = (AtlasEntry(anchor, -world.src_space.vector("w00007"), local),)
        atlas = MapAtlas(entries, fallback=fallback)
        chosen, label = select_entry(atlas, world.src_space.vector("w00007"), floor=0.0)
        assert label == "global"
        assert chosen is fallback

    def test_empty_atlas_with_fallback_uses_it(self, linear_world):
        world = linear_world
        fallback = LinearMap(world.ground_truth.matrix, anchor="global")
        atlas = MapAtlas((), fallback=fallback)
        got, label = piecewise_translate(atlas, "w00002", world.src_space, world.tgt_space, 1)
        assert label == "global"
        assert got[0][0] == world.lexicon.targets("w00002")[0]


class TestMapAtlasType:
    def test_duplicate_anchor_words_rejected(self, linear_world):
        world = linear_world
        e = AtlasEntry("w00001", world.src_space.vector("w00001"), LinearMap(np.eye(12)))
        with pytest.raises(ValueError, match="unique"):
            MapAtlas((e, e))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_zero_or_non_finite_anchor_vector_rejected(self, bad):
        vector = np.array([bad, 0.0, 0.0])
        entries = (
            AtlasEntry("bad", vector, LinearMap(np.eye(3))),
            AtlasEntry("good", np.array([1.0, 0.0, 0.0]), LinearMap(np.eye(3))),
        )
        with pytest.raises(ValueError, match="'bad' has a zero or non-finite vector"):
            MapAtlas(entries)

    def test_anchor_vectors_stacked_read_only(self):
        entries = tuple(
            AtlasEntry(w, np.array(v), LinearMap(np.eye(2)))
            for w, v in (("a", [1.0, 0.0]), ("b", [0.0, 2.0]))
        )
        atlas = MapAtlas(entries)
        assert atlas.anchors.words == ("a", "b")
        assert np.array_equal(atlas.anchors.vectors, [[1.0, 0.0], [0.0, 2.0]])
        assert not atlas.anchors.vectors.flags.writeable

    def test_duplicated_anchor_vectors_dispatch_to_earliest_copy(self):
        """Equal anchor vectors score bit-equal, so the earliest copy wins."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            distinct = rng.standard_normal((2, d))
            picks = rng.integers(0, 2, size=int(rng.integers(2, 13)))
            atlas = MapAtlas(tuple(
                AtlasEntry(f"a{i}", distinct[p].copy(), LinearMap(np.eye(d)))
                for i, p in enumerate(picks)
            ))
            for query in rng.standard_normal((8, d)):
                score = {p: distinct[p] @ query / np.linalg.norm(distinct[p]) for p in set(picks)}
                earliest = list(picks).index(max(score, key=score.get))
                assert select_entry(atlas, query)[1] == f"a{earliest}"

    def test_dimension_disagreement_rejected(self):
        rng = np.random.default_rng(0)
        a = AtlasEntry("a", rng.standard_normal(3), LinearMap(np.eye(3)))
        b = AtlasEntry("b", rng.standard_normal(3), LinearMap(np.eye(4)))
        with pytest.raises(ValueError, match="dimensions"):
            MapAtlas((a, b))

    @pytest.mark.parametrize("matrix", [np.eye(4), np.ones((3, 4))])
    def test_anchor_dimension_must_be_maps_d_src(self, matrix):
        """A 3-d anchor used to be accepted and to fail only at the first dispatch."""
        entry = AtlasEntry("a", np.ones(3), LinearMap(matrix))
        with pytest.raises(ValueError, match="dimension 3, but the maps' d_src is 4"):
            MapAtlas((entry,))
        with pytest.raises(ValueError, match="dimension 3, but the maps' d_src is 4"):
            MapAtlas((entry,), fallback=LinearMap(matrix))

    def test_rectangular_maps_take_anchors_of_d_src(self):
        atlas = MapAtlas((AtlasEntry("a", np.ones(3), LinearMap(np.ones((4, 3)))),))
        assert atlas.anchors.dim == 3


class TestAtlasPersistence:
    def test_save_load_round_trip(self, tmp_path, linear_world):
        world = linear_world
        anchors = default_anchor_words(world)[:3]
        entries = tuple(
            AtlasEntry(
                a,
                world.src_space.vector(a),
                LinearMap(world.ground_truth.matrix, trainer="least_squares", anchor=a),
            )
            for a in anchors
        )
        atlas = MapAtlas(entries, fallback=LinearMap(np.eye(12), anchor="global"))
        save_atlas(atlas, tmp_path / "atlas")
        back = load_atlas(tmp_path / "atlas")
        assert [e.anchor_word for e in back.entries] == anchors
        for orig, loaded in zip(atlas.entries, back.entries):
            assert np.array_equal(orig.anchor_vector, loaded.anchor_vector)
            assert np.array_equal(orig.linear_map.matrix, loaded.linear_map.matrix)
        assert back.fallback is not None
        assert np.array_equal(back.fallback.matrix, np.eye(12))

    @pytest.mark.parametrize("bad", [float("nan"), 0.0])
    def test_bad_anchor_vector_in_manifest_rejected_at_load(self, tmp_path, bad):
        """A NaN first entry used to capture every query; a zero one failed at dispatch."""
        entries = tuple(
            AtlasEntry(w, np.array([1.0, 0.0, 0.0]), LinearMap(np.eye(3)))
            for w in ("bad", "good")
        )
        save_atlas(MapAtlas(entries), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["entries"][0]["vector"] = [bad, 0.0, 0.0]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'bad'"):
            load_atlas(tmp_path)

    def test_anchor_dimension_in_manifest_rejected_at_load(self, tmp_path):
        entries = (AtlasEntry("a", np.array([1.0, 0.0, 0.0]), LinearMap(np.eye(3))),)
        save_atlas(MapAtlas(entries), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["entries"][0]["vector"] = [1.0, 0.0, 0.0, 0.0]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="dimension 4, but the maps' d_src is 3"):
            load_atlas(tmp_path)

    def test_bad_map_header_names_the_map_file(self, tmp_path):
        entries = tuple(
            AtlasEntry(w, np.array(v), LinearMap(np.eye(2)))
            for w, v in (("a", [1.0, 0.0]), ("b", [0.0, 1.0]))
        )
        save_atlas(MapAtlas(entries), tmp_path)
        path = tmp_path / "map_0001.txt"
        path.write_text("x y\n" + path.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match=f"bad map header in {re.escape(str(path))}"):
            load_atlas(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_atlas(tmp_path / "nowhere")
