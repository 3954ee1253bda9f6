"""The binary companion that write_embeddings leaves beside a .vec file.

``load_embeddings`` serves ``<name>.vec.npz`` only while its digests, word
count and row norms hold, and parses the text in every other case; the
loads here go through a spy on the text parser to tell the two apart.
"""

import shutil
import time

import numpy as np
import pytest

from lexmap import embeddings
from lexmap.cli import run
from lexmap.embeddings import EmbeddingSpace, LoadStats, load_embeddings, write_embeddings
from lexmap.mapper import load_map
from lexmap.synth import default_anchor_words, load_world
from lexmap.translate import AtlasEntry, MapAtlas, save_atlas


def raw_space(n=6, d=4, seed=3):
    rng = np.random.default_rng(seed)
    return EmbeddingSpace([f"w{i}" for i in range(n)], rng.standard_normal((n, d)) * 3.0)


def companion(path):
    return path.with_name(path.name + ".npz")


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.fixture
def written(tmp_path):
    space = raw_space()
    path = tmp_path / "e.vec"
    write_embeddings(space, path)
    return path, space


@pytest.fixture
def text_parses(monkeypatch):
    """The paths the text parser is called on."""
    calls = []
    parse = embeddings._parse_vec

    def spy(path, limit, normalize):
        calls.append(path)
        return parse(path, limit, normalize)

    monkeypatch.setattr(embeddings, "_parse_vec", spy)
    return calls


def test_clean_file_is_served_without_the_text_parser(written, monkeypatch):
    path, space = written

    def fail(*args):
        raise AssertionError("the text parser ran")

    monkeypatch.setattr(embeddings, "_parse_vec", fail)
    back = load_embeddings(path, normalize=False)
    assert back.words == space.words
    assert back.vectors.tobytes() == space.vectors.tobytes()
    assert back.stats == LoadStats()
    unit = load_embeddings(path, limit=2)
    assert unit.words == space.words[:2]
    assert unit.normalized and unit.vectors.shape == (2, space.dim)


def test_companion_bytes_hold_words_matrix_and_digests(written):
    path, space = written
    with np.load(companion(path), allow_pickle=False) as npz:
        assert sorted(npz.files) == ["digests", "vectors", "words"]
        assert npz["words"].tobytes().decode("utf-8").split("\n") == list(space.words)
        assert npz["vectors"].tobytes() == space.vectors.tobytes()
        assert npz["digests"][0] == embeddings._sha256(path)


def _rewrite_companion(path, redigest):
    """A well-formed companion with one word short, or with one changed entry under
    its old digests; redigest gives the first with a payload digest of its own."""
    with np.load(companion(path), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    if redigest:
        arrays["words"] = arrays["words"][: arrays["words"].tobytes().rindex(b"\n")]
        arrays["digests"][1] = embeddings._payload_digest(arrays["words"], arrays["vectors"])
    else:
        arrays["vectors"][1, 2] += 1.0
    np.savez(companion(path), **arrays)


def _copy_from_other_vec(path):
    other = path.with_name("other.vec")
    write_embeddings(raw_space(seed=4), other)
    shutil.copyfile(companion(other), companion(path))


def _last_row_units_digit(path):
    """Offset of the units digit of the last row's first entry, whose flip changes the value."""
    data = path.read_bytes()
    return data.index(b".", data.rindex(b"\n", 0, len(data) - 1)) - 1


def _flip_in_companion(path, needle):
    raw = companion(path).read_bytes()
    offset = raw.find(needle)
    assert offset >= 0
    flip_byte(companion(path), offset + 3)


DAMAGE = {
    "vec byte": lambda path, space: flip_byte(path, _last_row_units_digit(path)),
    "payload byte": lambda path, space: _flip_in_companion(path, space.vectors[2].tobytes()),
    "vec digest byte": lambda path, space: _flip_in_companion(
        path, embeddings._sha256(path).encode("utf-32-le")),
    "payload digest byte": lambda path, space: _flip_in_companion(
        path, embeddings._payload_digest(
            np.frombuffer("\n".join(space.words).encode(), dtype=np.uint8), space.vectors
        ).encode("utf-32-le")),
    "payload with old digests": lambda path, space: _rewrite_companion(path, redigest=False),
    "one word short, digests recomputed": lambda path, space: _rewrite_companion(path, redigest=True),
    "truncated companion": lambda path, space: companion(path).write_bytes(
        companion(path).read_bytes()[: companion(path).stat().st_size // 2]),
    "deleted companion": lambda path, space: companion(path).unlink(),
    "companion of another vec": lambda path, space: _copy_from_other_vec(path),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damage_sends_the_load_to_the_text(written, text_parses, damage):
    path, space = written
    DAMAGE[damage](path, space)
    back = load_embeddings(path, normalize=False)
    assert text_parses == [path]
    if damage == "vec byte":  # the edited .vec is served as edited
        assert back.vectors[-1, 0] != space.vectors[-1, 0]
        assert back.vectors[:-1].tobytes() == space.vectors[:-1].tobytes()
    else:
        assert back.vectors.tobytes() == space.vectors.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("value, normalize, counted", [
    (0.0, True, LoadStats(zero_dropped=1)),
    (0.0, False, LoadStats()),
    (np.inf, False, LoadStats(malformed=1)),
    (np.nan, True, LoadStats(malformed=1)),
    (1e200, True, LoadStats(malformed=1)),  # finite entries whose norm overflows
    (1e200, False, LoadStats(norm_overflow=1)),
    (1e-170, True, LoadStats(zero_dropped=1)),  # nonzero entries whose norm underflows to 0
])
def test_zero_or_non_finite_row_is_parsed_and_counted(tmp_path, text_parses, value, normalize,
                                                      counted):
    space = raw_space()
    vectors = space.vectors.copy()
    vectors[2] = value
    path = tmp_path / "e.vec"
    write_embeddings(EmbeddingSpace(space.words, vectors), path)
    assert companion(path).is_file()
    back = load_embeddings(path, normalize=normalize)
    assert text_parses == [path]
    assert back.stats == counted


@pytest.mark.parametrize("word", ["a b", "a\tb", "a\x1cb", "a\xa0b", "a\u2028b", ""])
def test_word_the_text_would_not_keep_gets_no_companion(tmp_path, word):
    path = tmp_path / "e.vec"
    write_embeddings(raw_space(), path)
    assert companion(path).is_file()
    space = raw_space()
    write_embeddings(EmbeddingSpace(["x", word, *space.words[2:]], space.vectors), path)
    assert not companion(path).exists()  # the stale one is removed too


def test_synth_writes_byte_identical_companions(tmp_path, monkeypatch):
    argv = ["synth", "--kind", "nonlinear", "--n", "200", "--d", "6", "--clusters", "3",
            "--seed", "9"]
    assert run([*argv, "--out", str(tmp_path / "one")]) == 0
    # a day later: a zip member stamped with the clock would differ
    now = time.time
    monkeypatch.setattr(time, "time", lambda: now() + 86400.0)
    assert run([*argv, "--out", str(tmp_path / "two")]) == 0
    for name in ("src.vec.npz", "tgt.vec.npz"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


@pytest.fixture(scope="module")
def world_and_atlas(tmp_path_factory):
    """A small seeded world and an atlas of its lsq maps, one per cluster anchor."""
    base = tmp_path_factory.mktemp("companion_cli")
    world_dir, maps = base / "world", base / "maps"
    assert run([
        "synth", "--kind", "nonlinear", "--n", "400", "--d", "8", "--clusters", "4",
        "--cluster-std", "0.25", "--seed", "5", "--out", str(world_dir),
    ]) == 0
    assert run(["diagnose", "--world", str(world_dir), "--trainer", "lsq", "--lam", "1e-6",
                "--test-size", "10", "--min-train", "20", "--seed", "5", "--out", str(maps)]) == 0
    world = load_world(world_dir)
    entries = tuple(
        AtlasEntry(a, world.src_space.vector(a), load_map(maps / "maps" / f"local_{a}.txt"))
        for a in default_anchor_words(world)
    )
    save_atlas(MapAtlas(entries), base / "atlas")
    return world_dir, base / "atlas", default_anchor_words(world)


def _outputs(directory):
    """Every file under a directory, by relative path, with its bytes."""
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_cli_outputs_are_byte_identical_without_companions(world_and_atlas, tmp_path):
    world_dir, atlas, anchors = world_and_atlas
    vecs = ["--src-emb", str(world_dir / "src.vec"), "--tgt-emb", str(world_dir / "tgt.vec")]
    out = tmp_path / "out"
    commands = {
        "diagnose": ["diagnose", "--world", str(world_dir), "--trainer", "lsq", "--lam", "1e-6",
                     "--test-size", "10", "--min-train", "20", "--seed", "5"],
        "experiment": ["experiment", *vecs, "--lexicon", str(world_dir / "lexicon.txt"),
                       "--anchors", ",".join(anchors), "--trainer", "maxmargin", "--epochs", "2",
                       "--test-size", "10", "--min-train", "20", "--seed", "5"],
        "translate": ["translate", *vecs, "--atlas", str(atlas), "--words", "w00001,w00002,w00003",
                      "--k", "3"],
    }
    assert sorted(p.name for p in world_dir.glob("*.npz")) == ["src.vec.npz", "tgt.vec.npz"]
    outputs = []
    for _ in range(2):
        for name, argv in commands.items():
            assert run([*argv, "--out", str(out / name)]) == 0
        outputs.append(_outputs(out))
        shutil.rmtree(out)
        for path in world_dir.glob("*.npz"):
            path.unlink()
    assert outputs[0] == outputs[1]
    assert {str(p) for p in outputs[0]} >= {"diagnose/report.tsv", "experiment/report.tsv",
                                            "translate/translations.tsv"}
