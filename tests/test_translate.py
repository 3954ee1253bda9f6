import hashlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexmap.formats
from lexmap import embeddings
from lexmap.cli import run
from lexmap.embeddings import EmbeddingSpace, cosines_to_all, top_k_by_cosine
from lexmap.mapper import LinearMap, load_map
from lexmap.synth import (
    default_anchor_words,
    export_world,
    generate_linear_world,
    generate_nonlinear_world,
)
from lexmap.translate import (
    AtlasEntry,
    MapAtlas,
    dispatch,
    load_atlas,
    piecewise_translate,
    save_atlas,
    select_entry,
    translate_words,
)


@pytest.fixture(scope="module")
def linear_world():
    return generate_linear_world(300, 12, seed=2)


class TestTranslateTopK:
    def test_identity_map_self_retrieval(self, toy_space):
        m = LinearMap(np.eye(2))
        out = top_k_by_cosine(toy_space, m.apply(toy_space.vector("b")), 1)
        assert out[0][0] == "b"

    def test_oracle_world_gold_first_everywhere(self, linear_world):
        """With the true generating matrix every source retrieves its gold."""
        world = linear_world
        m = LinearMap(world.ground_truth.matrix)
        for src, targets in world.lexicon.pairs.items():
            out = top_k_by_cosine(world.tgt_space, m.apply(world.src_space.vector(src)), 1)
            assert out[0][0] == targets[0]

    def test_k1_is_head_of_k10(self, linear_world):
        world = linear_world
        m = LinearMap(world.ground_truth.matrix)
        v = world.src_space.vector("w00005")
        mapped = m.apply(v)
        assert top_k_by_cosine(world.tgt_space, mapped, 10)[:1] == top_k_by_cosine(
            world.tgt_space, mapped, 1
        )

    def test_dimension_mismatch(self, toy_space):
        with pytest.raises(ValueError):
            top_k_by_cosine(toy_space, LinearMap(np.eye(3)).apply(np.ones(2)), 1)


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
            assert got == top_k_by_cosine(world.tgt_space, m.apply(world.src_space.vector(word)), 5)

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
            assert got == top_k_by_cosine(world.tgt_space, m.apply(world.src_space.vector(word)), 3)

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


@pytest.mark.parametrize("fallback", [LinearMap(3.0 * np.eye(2), anchor="global"), None])
def test_dispatch_at_the_floor(fallback):
    """A best anchor cosine equal to the floor keeps its map, and one ulp below the floor
    sends the query to the fallback; without a fallback the best anchor serves it whatever
    the floor. translate_words labels each word as dispatch does."""
    src = EmbeddingSpace(["a", "b", "q"], np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 1.0]]))
    local = LinearMap(np.eye(2), anchor="a")
    atlas = MapAtlas((AtlasEntry("a", src.vector("a"), local),
                      AtlasEntry("b", src.vector("b"), LinearMap(-np.eye(2), anchor="b"))),
                     fallback=fallback)
    cos = cosines_to_all(atlas.anchors, src.vector("q"))[0]
    assert 0.0 < cos < 1.0
    below = (fallback, "global") if fallback else (local, "a")
    for floor, (chosen, label) in [(cos, (local, "a")), (np.nextafter(cos, 2.0), below),
                                   (1.0, below), (2.0, below)]:
        [(m, got)] = dispatch(atlas, [src.vector("q")], floor)
        assert m is chosen and got == label
        labels = [lab for _, lab in translate_words(atlas, ["q", "b", "q"], src, src, 1, floor)]
        b_label = "global" if fallback and floor > 1.0 else "b"
        assert labels == [label, b_label, label]


@st.composite
def atlas_cases(draw):
    """(atlas, source space, target space, words, k, floor, queries per block).

    The atlas holds 8 to 12 random maps, one of them at times under two
    anchors, and at times a fallback; the words repeat and interleave.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([3, 8, 40]))
    n_src, n_tgt = draw(st.integers(12, 40)), draw(st.integers(1, 40))
    src = EmbeddingSpace([f"s{i}" for i in range(n_src)], rng.standard_normal((n_src, d)))
    tgt_vectors = rng.standard_normal((n_tgt, d))
    normalized = draw(st.booleans())
    if normalized:
        tgt_vectors /= np.linalg.norm(tgt_vectors, axis=1, keepdims=True)
    tgt = EmbeddingSpace([f"t{i}" for i in range(n_tgt)], tgt_vectors, normalized)
    anchors = rng.choice(n_src, size=draw(st.integers(8, 12)), replace=False)
    maps = [LinearMap(rng.standard_normal((d, d)), anchor=f"s{a}") for a in anchors]
    if draw(st.booleans()):
        maps[-1] = maps[0]
    entries = tuple(AtlasEntry(f"s{a}", src.vectors[a], m) for a, m in zip(anchors, maps))
    fallback = LinearMap(rng.standard_normal((d, d)), anchor="global") if draw(st.booleans()) else None
    words = [f"s{i}" for i in draw(st.lists(st.integers(0, n_src - 1), min_size=1, max_size=60))]
    return (MapAtlas(entries, fallback=fallback), src, tgt, words, draw(st.integers(1, n_tgt + 2)),
            draw(st.floats(-1.0, 1.0)), draw(st.sampled_from([1, 3, 1000])))


@settings(max_examples=150, deadline=None)
@given(atlas_cases())
def test_translate_words_equals_the_per_word_path(case):
    """Words served in map order and ranked in blocks get the per-word rankings and labels."""
    atlas, src, tgt, words, k, floor, per_block = case
    expected = []
    for word in words:
        m, label = select_entry(atlas, src.vector(word), floor)
        expected.append((top_k_by_cosine(tgt, m.apply(src.vector(word)), k), label))
    with mock.patch.object(embeddings, "_block_queries", lambda space: per_block):
        assert translate_words(atlas, words, src, tgt, k, floor) == expected


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


def _save_provenance_atlas(world, directory):
    """Three anchored maps and a fallback, each with its own matrix and provenance."""
    rng = np.random.default_rng(5)
    anchors = default_anchor_words(world)[:3]
    maps = [
        LinearMap(world.ground_truth.matrix + 0.01 * rng.standard_normal(world.ground_truth.matrix.shape),
                  trainer="least_squares", anchor=a, hyperparams={"lam": 10.0 ** -i},
                  train_size=40 + i, final_loss=0.1 * i + 1 / 3)
        for i, a in enumerate(anchors)
    ]
    entries = tuple(AtlasEntry(a, world.src_space.vector(a), m) for a, m in zip(anchors, maps))
    fallback = LinearMap(world.ground_truth.matrix, trainer="least_squares", train_size=300)
    save_atlas(MapAtlas(entries, fallback=fallback), directory)
    return directory


def _to_older_layout(directory):
    """Rewrite a saved atlas as save_atlas wrote it before maps.npz: maps.npy, the float64
    stack of its maps, and a manifest "stack" with its sha256 and those of the map files."""
    manifest = json.loads((directory / "manifest.json").read_text())
    files = [e["file"] for e in manifest["entries"]] + [manifest["fallback"]]
    np.save(directory / "maps.npy", np.stack([load_map(directory / f).matrix for f in files]),
            allow_pickle=False)
    sha256 = [hashlib.sha256((directory / f).read_bytes()).hexdigest() for f in ["maps.npy", *files]]
    manifest["stack"] = {"file": "maps.npy", "sha256": sha256[0], "maps": sha256[1:]}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (directory / "maps.npz").unlink()


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
        manifest = json.loads((tmp_path / "atlas" / "manifest.json").read_text())
        assert sorted(manifest) == ["entries", "fallback"]  # no digests: they live in maps.npz
        back = load_atlas(tmp_path / "atlas")
        assert [e.anchor_word for e in back.entries] == anchors
        for orig, loaded in zip(atlas.entries, back.entries):
            assert np.array_equal(orig.anchor_vector, loaded.anchor_vector)
            assert np.array_equal(orig.linear_map.matrix, loaded.linear_map.matrix)
        assert back.fallback is not None
        assert np.array_equal(back.fallback.matrix, np.eye(12))

    def test_save_over_an_atlas_leaves_only_the_new_files(self, tmp_path):
        """A smaller atlas saved over a larger one used to leave the older map files."""
        maps = [LinearMap(np.eye(2) * (i + 1), anchor=f"a{i}") for i in range(4)]
        entries = tuple(AtlasEntry(f"a{i}", np.array([1.0, i]), maps[i]) for i in range(3))
        save_atlas(MapAtlas(entries, fallback=maps[3]), tmp_path)
        assert len(list(tmp_path.glob("map_*.txt"))) == 4
        save_atlas(MapAtlas(entries[:1]), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "map_0000.txt", "maps.npz"]
        back = load_atlas(tmp_path)
        assert [e.anchor_word for e in back.entries] == ["a0"] and back.fallback is None

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

    @pytest.mark.parametrize("row", ["0.0 x", "0.0"])
    def test_bad_map_body_names_the_map_file(self, tmp_path, row):
        entries = tuple(
            AtlasEntry(w, np.array(v), LinearMap(np.eye(2)))
            for w, v in (("a", [1.0, 0.0]), ("b", [0.0, 1.0]))
        )
        save_atlas(MapAtlas(entries), tmp_path)
        path = tmp_path / "map_0001.txt"
        path.write_text(path.read_text().rsplit("\n", 2)[0] + f"\n{row}\n")
        with pytest.raises(ValueError, match=f"bad map body in {re.escape(str(path))}: "):
            load_atlas(tmp_path)

    @pytest.mark.parametrize("meta", ["train_size=x", "final_loss=abc"])
    def test_bad_map_metadata_names_the_map_file(self, tmp_path, meta):
        entries = tuple(
            AtlasEntry(w, np.array(v), LinearMap(np.eye(2)))
            for w, v in (("a", [1.0, 0.0]), ("b", [0.0, 1.0]))
        )
        save_atlas(MapAtlas(entries), tmp_path)
        path = tmp_path / "map_0001.txt"
        # a later line of a key wins over the train_size=0 that save_map wrote
        path.write_text(path.read_text().replace("# train_size=0\n", f"# train_size=0\n# {meta}\n"))
        with pytest.raises(ValueError, match=f"bad map metadata in {re.escape(str(path))}: "):
            load_atlas(tmp_path)

    def test_companion_text_and_older_layout_translate_to_the_same_bytes(
        self, tmp_path, linear_world, monkeypatch
    ):
        """An atlas as save_atlas wrote it before maps.npz (a maps.npy and a manifest
        "stack" of digests) loads through its text to the same maps and translations."""
        export_world(linear_world, tmp_path / "world")
        layouts = {name: _save_provenance_atlas(linear_world, tmp_path / name)
                   for name in ("companion", "text", "older")}
        (layouts["text"] / "maps.npz").unlink()
        _to_older_layout(layouts["older"])
        parse = lexmap.formats._parse_float_rows
        parses = []
        monkeypatch.setattr(lexmap.formats, "_parse_float_rows",
                            lambda *args: parses.append(args) or parse(*args))
        loads, outputs = {}, {}
        for name, atlas_dir in layouts.items():
            parses.clear()
            atlas = load_atlas(atlas_dir)
            loads[name] = [m.matrix.tobytes() for m in
                           [*(e.linear_map for e in atlas.entries), atlas.fallback]]
            assert len(parses) == (0 if name == "companion" else 4)
            out = tmp_path / f"out_{name}"
            code = run(["translate", "--atlas", str(atlas_dir),
                        "--words", ",".join(linear_world.src_space.words[:60]),
                        "--src-emb", str(tmp_path / "world" / "src.vec"),
                        "--tgt-emb", str(tmp_path / "world" / "tgt.vec"),
                        "--k", "3", "--floor", "0.6", "--out", str(out)])
            assert code == 0
            outputs[name] = (out / "translations.tsv").read_bytes()
        assert loads["companion"] == loads["text"] == loads["older"]
        assert outputs["companion"] == outputs["text"] == outputs["older"]
        assert b"\tglobal\t" in outputs["companion"]  # the fallback served some words

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_atlas(tmp_path / "nowhere")

    @pytest.mark.parametrize("text, reason", [
        ("not json", "Expecting value"),
        ("{}", "missing key 'entries'"),
        ('{"entries": "x"}', "string indices must be integers"),
        ("[1]", "list indices must be integers"),
        ('{"entries": [{"anchor": "a", "file": "map_0000.txt"}]}', "missing key 'vector'"),
        ('{"entries": [{"anchor": "a", "file": 7, "vector": [1.0]}]}', "must be strings"),
        ('{"entries": [{"anchor": "a", "file": "map_0000.txt", "vector": {}}]}', "float"),
        ('{"entries": [], "fallback": 3}', "must be strings"),
    ])
    def test_malformed_manifest_named_before_any_map_loads(self, tmp_path, capsys, text, reason):
        manifest = tmp_path / "atlas" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text(text, encoding="utf-8")
        message = f"bad atlas manifest in {manifest}: "
        with pytest.raises(ValueError, match=re.escape(message) + ".*" + re.escape(reason)):
            load_atlas(manifest.parent)
        # no map file and no .vec file exists: loading one would be a data error
        code = run(["translate", "--atlas", str(manifest.parent), "--words", "a",
                    "--src-emb", str(tmp_path / "absent.vec"),
                    "--tgt-emb", str(tmp_path / "absent.vec"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: constraint: {message}") and err.count("\n") == 1
