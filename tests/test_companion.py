"""The digest-verified binary companions of .vec files and atlases.

``write_embeddings`` leaves ``<name>.vec.npz`` beside a ``.vec`` and
``save_atlas`` leaves ``maps.npz`` beside an atlas's map texts. Their
loaders serve a companion only while its digests hold, and parse the text
in every other case; the loads here go through a spy on the text parsers
to tell the two apart. One damage table runs against both companions.
"""

import builtins
import hashlib
import io
import json
import re
import shutil
import time
import zipfile

import numpy as np
import pytest

from lexmap import formats
from lexmap.cli import run
from lexmap.embeddings import EmbeddingSpace, LoadStats, load_embeddings, write_embeddings
from lexmap.mapper import LinearMap, load_map
from lexmap.synth import default_anchor_words, load_world
from lexmap.translate import AtlasEntry, MapAtlas, load_atlas, save_atlas

from conftest import load_every_way


def raw_space(n=6, d=4, seed=3):
    rng = np.random.default_rng(seed)
    return EmbeddingSpace([f"w{i}" for i in range(n)], rng.standard_normal((n, d)) * 3.0)


def provenance_atlas(seed, d=4):
    """Three anchored maps and a fallback, each with its own matrix and provenance."""
    rng = np.random.default_rng(seed)
    entries = tuple(
        AtlasEntry(f"a{i}", rng.standard_normal(d),
                   LinearMap(rng.standard_normal((d, d)), trainer="least_squares", anchor=f"a{i}",
                             hyperparams={"lam": 10.0 ** -i}, train_size=40 + i,
                             final_loss=0.1 * i + 1 / 3))
        for i in range(3)
    )
    fallback = LinearMap(rng.standard_normal((d, d)), trainer="least_squares", train_size=300)
    return MapAtlas(entries, fallback=fallback)


def _maps_record(maps):
    return [(m.matrix.tobytes(), m.matrix.shape, m.trainer, m.anchor, m.hyperparams,
             m.train_size, m.final_loss) for m in maps]


class VecFile:
    """A .vec file and its companion <name>.vec.npz."""

    members = ["digests", "vectors", "words"]
    payload = "vectors"
    parser = (formats, "_parse_vec")

    def write(self, directory, seed=3):
        directory.mkdir(parents=True, exist_ok=True)
        write_embeddings(raw_space(seed=seed), directory / "e.vec")
        return directory / "e.vec"

    def companion(self, target):
        return target.with_name(target.name + ".npz")

    def sources(self, target):
        return [target]

    def read_files(self, target):
        """The files a clean load reads."""
        return [target, self.companion(target)]

    def load(self, target):
        space = load_embeddings(target, normalize=False)
        return space.words, space.vectors.tobytes(), space.stats

    def parse(self, target):
        """The text alone."""
        space = formats._parse_vec(target, None, False)
        return space.words, space.vectors.tobytes(), space.stats


class AtlasDir:
    """An atlas directory and its companion maps.npz."""

    members = ["digests", "maps"]
    payload = "maps"
    parser = (formats, "_parse_float_rows")

    def write(self, directory, seed=5):
        save_atlas(provenance_atlas(seed), directory / "atlas")
        return directory / "atlas"

    def companion(self, target):
        return target / "maps.npz"

    def sources(self, target):
        manifest = json.loads((target / "manifest.json").read_text())
        return [target / e["file"] for e in manifest["entries"]] + [target / manifest["fallback"]]

    def read_files(self, target):
        """The files a clean load reads."""
        return [target / "manifest.json", *self.sources(target), self.companion(target)]

    def load(self, target):
        atlas = load_atlas(target)
        return _maps_record([*(e.linear_map for e in atlas.entries), atlas.fallback])

    def parse(self, target):
        """The text alone."""
        return _maps_record([load_map(path) for path in self.sources(target)])


CALLERS = [VecFile(), AtlasDir()]
CALLER_IDS = ["vec", "atlas"]


def spy_on_parser(monkeypatch, caller):
    """The calls to the caller's text parser from now on."""
    module, name = caller.parser
    parse, calls = getattr(module, name), []

    def spy(*args):
        calls.append(args[0])
        return parse(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def spy_on_open(monkeypatch):
    """The (file, mode) of every open from now on."""
    opened = []

    def spy(open_):
        def wrapper(file, mode="r", *args, **kwargs):
            opened.append((str(file), mode))
            return open_(file, mode, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(io, "open", spy(io.open))
    monkeypatch.setattr(builtins, "open", spy(builtins.open))
    return opened


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _last_row_units_digit(path):
    """Offset of a units digit in the last row, whose flip changes one value."""
    data = path.read_bytes()
    return data.index(b".", data.rindex(b"\n", 0, len(data) - 1)) - 1


def _companion_arrays(caller, target):
    with np.load(caller.companion(target), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _flip_in_companion(caller, target, needle):
    raw = caller.companion(target).read_bytes()
    assert raw.count(needle) == 1
    flip_byte(caller.companion(target), raw.index(needle))


def _flip_digest(caller, target, which):
    digest = _companion_arrays(caller, target)["digests"][which]
    _flip_in_companion(caller, target, str(digest).encode("utf-32-le"))


def _payload_with_old_digests(caller, target):
    arrays = _companion_arrays(caller, target)
    arrays[caller.payload].flat[5] += 1.0
    np.savez(caller.companion(target), **arrays)


def _foreign_companion(caller, target):
    other = caller.write(target.parent / "other", seed=11)
    shutil.copyfile(caller.companion(other), caller.companion(target))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _rewrite_members(caller, target, compression, cut):
    """Write the companion's members again with the given compression, the payload
    member's .npy bytes cut to ``[:cut]``."""
    with zipfile.ZipFile(caller.companion(target)) as zf:
        members = {info.filename: zf.read(info) for info in zf.infolist()}
    payload = f"{caller.payload}.npy"
    members[payload] = members[payload][:cut]
    with zipfile.ZipFile(caller.companion(target), "w", compression) as zf:
        for name, data in members.items():
            zf.writestr(name, data)


DAMAGE = {
    "source byte": lambda c, t: flip_byte(c.sources(t)[-1], _last_row_units_digit(c.sources(t)[-1])),
    "payload byte": lambda c, t: _flip_in_companion(
        c, t, _companion_arrays(c, t)[c.payload][1].tobytes()),
    "source digest byte": lambda c, t: _flip_digest(c, t, 0),
    "payload digest byte": lambda c, t: _flip_digest(c, t, -1),
    "payload with old digests": _payload_with_old_digests,
    "truncated companion": lambda c, t: _truncate(c.companion(t)),
    # every digest still holds, but only a stored member is read in place
    "deflated members": lambda c, t: _rewrite_members(c, t, zipfile.ZIP_DEFLATED, None),
    # a whole zip whose payload member ends before its array does
    "truncated payload member": lambda c, t: _rewrite_members(c, t, zipfile.ZIP_STORED, -8),
    "deleted companion": lambda c, t: c.companion(t).unlink(),
    "foreign companion": _foreign_companion,
}


@pytest.mark.parametrize("caller", CALLERS, ids=CALLER_IDS)
def test_clean_companion_is_served_without_the_text_parser(caller, tmp_path, monkeypatch):
    target = caller.write(tmp_path)
    expected = caller.parse(target)

    def fail(*args):
        raise AssertionError("the text parser ran")

    monkeypatch.setattr(*caller.parser, fail)
    assert caller.load(target) == expected


@pytest.mark.parametrize("caller", CALLERS, ids=CALLER_IDS)
def test_companion_holds_the_payload_and_the_source_digests(caller, tmp_path):
    target = caller.write(tmp_path)
    arrays = _companion_arrays(caller, target)
    assert sorted(arrays) == caller.members
    digests = arrays["digests"].tolist()
    assert digests[:-1] == [hashlib.sha256(p.read_bytes()).hexdigest() for p in caller.sources(target)]


@pytest.mark.parametrize("caller", CALLERS, ids=CALLER_IDS)
def test_write_opens_each_file_once_and_reads_none(caller, tmp_path, monkeypatch):
    """The companion's digests of the text come from the bytes as written: no file
    is opened twice or for reading, as hashing a written file back would."""
    opened = spy_on_open(monkeypatch)
    target = caller.write(tmp_path)
    monkeypatch.undo()
    paths = [path for path, _ in opened]
    assert str(caller.companion(target)) in paths
    assert {str(source) for source in caller.sources(target)} <= set(paths)
    assert len(paths) == len(set(paths))
    assert all(mode[0] in "wx" for _, mode in opened)
    assert caller.load(target) == caller.parse(target)


@pytest.mark.parametrize("caller", CALLERS, ids=CALLER_IDS)
def test_clean_load_opens_each_file_once(caller, tmp_path, monkeypatch):
    """A clean load reads each file once: a map text gives its digest, header and metadata
    from one read, where a digest pass and then a header pass would open it twice."""
    target = caller.write(tmp_path)
    expected = caller.parse(target)
    opened = spy_on_open(monkeypatch)
    loaded = caller.load(target)
    monkeypatch.undo()
    assert sorted(path for path, _ in opened) == sorted(map(str, caller.read_files(target)))
    assert all(mode[0] == "r" for _, mode in opened)
    assert loaded == expected


@pytest.mark.parametrize("extra", [0, 5])
def test_load_with_a_limit_at_the_count_opens_the_vec_once(tmp_path, monkeypatch, extra):
    """A limit at or above the header count is served from one read of the .vec, for
    its count and its digest, and then the companion."""
    vec = VecFile()
    target = vec.write(tmp_path)
    expected = vec.load(target)
    opened = spy_on_open(monkeypatch)
    space = load_embeddings(target, limit=len(raw_space()) + extra, normalize=False)
    monkeypatch.undo()
    assert [path for path, _ in opened] == [str(target), str(vec.companion(target))]
    assert (space.words, space.vectors.tobytes(), space.stats) == expected


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("caller", CALLERS, ids=CALLER_IDS)
def test_damage_sends_the_load_to_the_text(caller, damage, tmp_path, monkeypatch):
    target = caller.write(tmp_path)
    original = caller.load(target)
    DAMAGE[damage](caller, target)
    expected = caller.parse(target)
    parses = spy_on_parser(monkeypatch, caller)
    assert caller.load(target) == expected
    assert parses
    # an edited text is served as edited
    assert (expected != original) == (damage == "source byte")


@pytest.fixture
def written(tmp_path):
    return VecFile().write(tmp_path), raw_space()


@pytest.fixture
def text_parses(monkeypatch):
    """The calls to the .vec text parser."""
    return spy_on_parser(monkeypatch, VecFile())


@pytest.mark.parametrize("limit", [None, 1, 5, 6, 7])
@pytest.mark.parametrize("normalize", [True, False])
def test_limit_below_the_rows_parses_the_text(written, text_parses, limit, normalize):
    """A limited load of the companion used to read and hash the whole matrix."""
    path, space = written
    back = load_embeddings(path, limit=limit, normalize=normalize)
    assert back.words == space.words[:limit]
    assert back.normalized == normalize and back.stats == LoadStats()
    assert (text_parses == []) == (limit is None or limit >= len(space))


def test_companion_with_a_word_per_row_short_serves_the_text(written, text_parses):
    path, space = written
    words = np.frombuffer("\n".join(space.words[:-1]).encode(), dtype=np.uint8)
    with path.open("rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    formats._write_companion(VecFile().companion(path), [digest],
                             {"words": words, "vectors": space.vectors})
    back = load_embeddings(path, normalize=False)
    assert text_parses == [path]
    assert back.words == space.words


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("value, normalize, counted", [
    (0.0, True, LoadStats(zero_dropped=1)),
    (0.0, False, LoadStats()),
    (np.inf, False, LoadStats(malformed=1)),
    (np.nan, True, LoadStats(malformed=1)),
    (1e200, True, LoadStats(norm_overflow=1)),  # finite entries whose norm overflows: kept
    (1e200, False, LoadStats(norm_overflow=1)),
    (1e-170, True, LoadStats()),  # nonzero entries whose norm underflows to 0: kept
])
def test_zero_or_non_finite_row_is_parsed_and_counted(tmp_path, text_parses, value, normalize,
                                                      counted):
    space = raw_space()
    vectors = space.vectors.copy()
    vectors[2] = value
    path = tmp_path / "e.vec"
    write_embeddings(EmbeddingSpace(space.words, vectors), path)
    assert VecFile().companion(path).is_file()
    back = load_embeddings(path, normalize=normalize)
    assert back.stats == counted
    if value != 1e-170:
        assert text_parses == [path]
        return
    # not a row of zeros: the companion serves what the text gives
    assert text_parses == []
    VecFile().companion(path).unlink()
    text = load_embeddings(path, normalize=normalize)
    assert text_parses == [path]
    assert ((back.words, back.vectors.tobytes(), back.stats)
            == (text.words, text.vectors.tobytes(), LoadStats()))


@pytest.mark.parametrize("word", ["", "a b", "a\nb", "a\rb", "\ud800"])
def test_word_the_text_cannot_hold_is_rejected_before_any_write(tmp_path, word):
    path = VecFile().write(tmp_path)
    before = [p.read_bytes() for p in (path, VecFile().companion(path))]
    space = raw_space()
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        write_embeddings(EmbeddingSpace(["x", word, *space.words[2:]], space.vectors), path)
    assert [p.read_bytes() for p in (path, VecFile().companion(path))] == before


@pytest.mark.parametrize("word", ["a\tb", "a\x0bb", "a\x1cb", "a\x85b", "a\xa0b", "a\u2028b"])
def test_word_the_text_keeps_gets_a_companion(tmp_path, text_parses, word):
    space = raw_space()
    words = ["x", word, *space.words[2:]]
    path = tmp_path / "e.vec"
    write_embeddings(EmbeddingSpace(words, space.vectors), path)
    assert VecFile().companion(path).is_file()
    served = load_every_way(path, len(words))
    assert served[0][0] == tuple(words)
    assert text_parses == [path] * 4  # the limits below the row count
    VecFile().companion(path).unlink()
    assert load_every_way(path, len(words)) == served


@pytest.mark.parametrize("row", [np.full(6, 1e-170), np.full(6, 1e-310),
                                 np.array([1.5e-162] * 5 + [2.23e-162])],
                         ids=["1e-170", "1e-310", "1.5e-162"])
def test_row_too_small_to_square_is_normalized_exactly(tmp_path, text_parses, row):
    """Each row is normalized as (r * 2**600) / its norm: the squares of r underflow."""
    path = tmp_path / "e.vec"
    write_embeddings(EmbeddingSpace(["t", "ones"], np.stack([row, np.ones(6)])), path)
    back = load_embeddings(path)
    scaled = row * 2.0**600
    assert back.stats == LoadStats()
    expected = np.stack([scaled / np.sqrt(np.vecdot(scaled, scaled)), np.ones(6) / np.sqrt(6.0)])
    assert back.vectors.tobytes() == expected.tobytes()
    served = load_every_way(path, 2)
    assert text_parses == [path] * 4  # the limits below the row count: the full loads are served
    VecFile().companion(path).unlink()
    assert load_every_way(path, 2) == served


def test_synth_writes_byte_identical_companions(tmp_path, monkeypatch):
    argv = ["synth", "--kind", "nonlinear", "--n", "200", "--d", "6", "--clusters", "3",
            "--seed", "9"]
    assert run([*argv, "--out", str(tmp_path / "one")]) == 0
    # a day later: a zip member stamped with the clock would differ
    now = time.time
    monkeypatch.setattr(time, "time", lambda: now() + 86400.0)
    assert run([*argv, "--out", str(tmp_path / "two")]) == 0
    save_atlas(provenance_atlas(5), tmp_path / "two" / "atlas")
    monkeypatch.setattr(time, "time", now)
    save_atlas(provenance_atlas(5), tmp_path / "one" / "atlas")
    for name in ("src.vec.npz", "tgt.vec.npz", "atlas/maps.npz"):
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
    companions = [*world_dir.glob("*.npz"), *atlas.glob("*.npz")]
    assert sorted(p.name for p in companions) == ["maps.npz", "src.vec.npz", "tgt.vec.npz"]
    outputs = []
    for _ in range(2):
        for name, argv in commands.items():
            assert run([*argv, "--out", str(out / name)]) == 0
        outputs.append(_outputs(out))
        shutil.rmtree(out)
        for path in companions:
            path.unlink(missing_ok=True)
    assert outputs[0] == outputs[1]
    assert {str(p) for p in outputs[0]} >= {"diagnose/report.tsv", "experiment/report.tsv",
                                            "translate/translations.tsv"}
