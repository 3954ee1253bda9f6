"""Golden outputs of two small seeded runs.

The first is synth -> diagnose --trainer lsq -> translate --atlas; its
expected bytes and values were recorded before the ranking paths were
unified behind one top-k kernel. The second is synth -> experiment
--trainer maxmargin; its expected bytes, values and map digests were
recorded at commit 7c64b36, before Spearman moved from scipy to numpy and
before the bulk float parser and writers. A change to what lexmap computes
must show up here and be re-recorded on purpose, with the reason in
CHANGES.md.
"""

import hashlib
import json

import pytest

from lexmap.cli import run
from lexmap.embeddings import load_embeddings
from lexmap.mapper import load_map
from lexmap.translate import AtlasEntry, MapAtlas, save_atlas

WORDS = tuple(f"w{i:05d}" for i in range(0, 600, 60))

EXPECTED_REPORT_TSV = (
    'anchor_word\ttrain_size\ttest_size\tanchor_cosine\tacc_global\tacc_reference\tacc_local\tdelta\tmap_cosine\tmap_norm\n'
    'w00564\t141\t20\t1.00\t65.0\t65.0\t65.0\t0.0\t1.00\t5.26\n'
    'w00470\t135\t20\t0.09\t80.0\t80.0\t95.0\t15.0\t0.94\t5.34\n'
    'w00512\t113\t20\t0.04\t80.0\t60.0\t75.0\t15.0\t0.91\t5.32\n'
    'w00559\t129\t20\t-0.61\t90.0\t60.0\t95.0\t35.0\t0.84\t5.38\n'
    '# pearson(map_cosine, acc_reference)\t0.42718230480313535\n'
    '# spearman(map_cosine, acc_reference)\t0.7378647873726218\n'
)

EXPECTED_RECORDS = [
    {"acc_global": 65.0, "acc_local": 65.0, "acc_reference": 65.0, "anchor_cosine": 1.0, "anchor_word": "w00564", "delta": 0.0, "map_cosine": 1.0, "map_norm": 5.260979074555441, "test_size": 20, "train_size": 141},
    {"acc_global": 80.0, "acc_local": 95.0, "acc_reference": 80.0, "anchor_cosine": 0.09224489571920348, "anchor_word": "w00470", "delta": 15.0, "map_cosine": 0.9448081964939529, "map_norm": 5.335519629609559, "test_size": 20, "train_size": 135},
    {"acc_global": 80.0, "acc_local": 75.0, "acc_reference": 60.0, "anchor_cosine": 0.04437305074536806, "anchor_word": "w00512", "delta": 15.0, "map_cosine": 0.907275392712934, "map_norm": 5.321512672013531, "test_size": 20, "train_size": 113},
    {"acc_global": 90.0, "acc_local": 95.0, "acc_reference": 60.0, "anchor_cosine": -0.6088847962398471, "anchor_word": "w00559", "delta": 35.0, "map_cosine": 0.844452501545217, "map_norm": 5.382581929532085, "test_size": 20, "train_size": 129},
    {"summary": {"pearson_simvacc": 0.42718230480313535, "skipped": [], "spearman_simvacc": 0.7378647873726218, "warnings": []}},
]

EXPECTED_TRANSLATIONS_TSV = (
    'source\tmap\trank\ttarget\tscore\n'
    'w00000\tw00564\t1\tv00082\t0.893958\n'
    'w00000\tw00564\t2\tv00000\t0.878560\n'
    'w00000\tw00564\t3\tv00198\t0.852827\n'
    'w00060\tw00559\t1\tv00456\t0.902235\n'
    'w00060\tw00559\t2\tv00231\t0.895144\n'
    'w00060\tw00559\t3\tv00060\t0.878265\n'
    'w00120\tglobal\t1\tv00120\t0.953639\n'
    'w00120\tglobal\t2\tv00309\t0.893876\n'
    'w00120\tglobal\t3\tv00048\t0.846303\n'
    'w00180\tw00559\t1\tv00180\t0.935852\n'
    'w00180\tw00559\t2\tv00539\t0.862638\n'
    'w00180\tw00559\t3\tv00291\t0.839433\n'
    'w00240\tglobal\t1\tv00240\t0.970088\n'
    'w00240\tglobal\t2\tv00342\t0.829798\n'
    'w00240\tglobal\t3\tv00175\t0.778433\n'
    'w00300\tw00559\t1\tv00300\t0.911142\n'
    'w00300\tw00559\t2\tv00236\t0.890401\n'
    'w00300\tw00559\t3\tv00559\t0.871566\n'
    'w00360\tw00512\t1\tv00360\t0.940249\n'
    'w00360\tw00512\t2\tv00365\t0.937178\n'
    'w00360\tw00512\t3\tv00450\t0.917411\n'
    'w00420\tw00470\t1\tv00420\t0.934214\n'
    'w00420\tw00470\t2\tv00390\t0.885776\n'
    'w00420\tw00470\t3\tv00293\t0.883254\n'
    'w00480\tw00470\t1\tv00480\t0.916724\n'
    'w00480\tw00470\t2\tv00013\t0.903887\n'
    'w00480\tw00470\t3\tv00188\t0.900265\n'
    'w00540\tw00564\t1\tv00540\t0.961995\n'
    'w00540\tw00564\t2\tv00175\t0.916942\n'
    'w00540\tw00564\t3\tv00543\t0.888975\n'
)


def run_golden(tmp_path):
    """Run the pinned scenario; returns (report.tsv, report.jsonl, translations.tsv).

    The atlas holds diagnose's local maps, keyed by their anchors' source
    vectors, with the global map as fallback; the floor sends some words to it.
    """
    world, diag, atlas_dir, trans = (tmp_path / n for n in ("world", "diag", "atlas", "trans"))
    assert run([
        "synth", "--kind", "nonlinear", "--n", "600", "--d", "12", "--clusters", "4",
        "--cluster-std", "0.25", "--variation-strength", "1.0", "--noise-sigma", "0.2",
        "--seed", "11", "--out", str(world),
    ]) == 0
    assert run([
        "diagnose", "--world", str(world), "--trainer", "lsq", "--lam", "1e-6",
        "--s", "0.5", "--test-size", "20", "--k", "2", "--min-train", "20",
        "--seed", "11", "--out", str(diag),
    ]) == 0
    src = load_embeddings(world / "src.vec", normalize=False)
    anchors = [json.loads(line)["anchor_word"]
               for line in (diag / "report.jsonl").read_text().splitlines()[:-1]]
    entries = tuple(
        AtlasEntry(a, src.vector(a), load_map(diag / "maps" / f"local_{a}.txt")) for a in anchors
    )
    save_atlas(MapAtlas(entries, fallback=load_map(diag / "maps" / "global.txt")), atlas_dir)
    assert run([
        "translate", "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
        "--atlas", str(atlas_dir), "--words", ",".join(WORDS), "--k", "3",
        "--floor", "0.75", "--no-normalize", "--out", str(trans),
    ]) == 0
    return tuple(
        path.read_text(encoding="utf-8")
        for path in (diag / "report.tsv", diag / "report.jsonl", trans / "translations.tsv")
    )


def _assert_close(got, want, path="record"):
    """Equal structure and strings; floats equal to within 1e-10."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=0, abs=1e-10), path
    else:
        assert got == want, path


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


def test_report_tsv_bytes(golden):
    assert golden[0] == EXPECTED_REPORT_TSV


def test_report_jsonl_values(golden):
    records = [json.loads(line) for line in golden[1].splitlines()]
    _assert_close(records, EXPECTED_RECORDS)


def test_translations_tsv_bytes(golden):
    assert golden[2] == EXPECTED_TRANSLATIONS_TSV


MM_ANCHORS = ("w00207", "w00084", "w00037", "w00113")

# acc_reference holds a tie (30.0 twice), so Spearman averages ranks
EXPECTED_MM_REPORT_TSV = (
    'anchor_word\ttrain_size\ttest_size\tanchor_cosine\tacc_global\tacc_reference\tacc_local\tdelta\tmap_cosine\tmap_norm\n'
    'w00207\t93\t10\t1.00\t30.0\t30.0\t30.0\t0.0\t1.00\t3.60\n'
    'w00084\t84\t10\t0.29\t40.0\t50.0\t20.0\t-30.0\t0.90\t3.61\n'
    'w00037\t98\t10\t-0.41\t50.0\t0.0\t50.0\t50.0\t0.87\t3.54\n'
    'w00113\t96\t10\t-0.53\t40.0\t30.0\t30.0\t0.0\t0.84\t3.61\n'
    '# pearson(map_cosine, acc_reference)\t0.2385451343292039\n'
    '# spearman(map_cosine, acc_reference)\t0.316227766016838\n'
)

EXPECTED_MM_RECORDS = [
    {"acc_global": 30.0, "acc_local": 30.0, "acc_reference": 30.0, "anchor_cosine": 1.0, "anchor_word": "w00207", "delta": 0.0, "map_cosine": 1.0, "map_norm": 3.5966131300129014, "test_size": 10, "train_size": 93},
    {"acc_global": 40.0, "acc_local": 20.0, "acc_reference": 50.0, "anchor_cosine": 0.28813440629594655, "anchor_word": "w00084", "delta": -30.0, "map_cosine": 0.9009956316404493, "map_norm": 3.6062662496179505, "test_size": 10, "train_size": 84},
    {"acc_global": 50.0, "acc_local": 50.0, "acc_reference": 0.0, "anchor_cosine": -0.41388510218122676, "anchor_word": "w00037", "delta": 50.0, "map_cosine": 0.8658717929294666, "map_norm": 3.5444043071762565, "test_size": 10, "train_size": 98},
    {"acc_global": 40.0, "acc_local": 30.0, "acc_reference": 30.0, "anchor_cosine": -0.5309140420534398, "anchor_word": "w00113", "delta": 0.0, "map_cosine": 0.83618283554448, "map_norm": 3.611657986973933, "test_size": 10, "train_size": 96},
    {"summary": {"pearson_simvacc": 0.2385451343292039, "skipped": [], "spearman_simvacc": 0.316227766016838, "warnings": []}},
]

# sha256 of each saved map file (8 x 8 matrices plus provenance lines)
EXPECTED_MM_MAP_SHA256 = {
    "global.txt": "c5bc4bc09456d94d04bdb93957eb73d25bb62abb37806a5e8f71c1bc3220e568",
    "local_w00037.txt": "9d45b9b82b7f2131a0111de42cc959ca6c1647ea0245fb53ebbf9cd2e94d9cd1",
    "local_w00084.txt": "f30b0a6d586bf4acffb9accc80142c89ece5fdda9791ef9148dee5a29505636b",
    "local_w00113.txt": "8a453954d28a5f0296958b63a1826efd0197f15c6f38c0091790ffadddcd4f99",
    "local_w00207.txt": "84eef95dfe549611ad9dc614fbdbac5950b0afc2c605a9e03fe1d0695e2d68d0",
}


@pytest.fixture(scope="module")
def golden_maxmargin(tmp_path_factory):
    """Seeded synth -> experiment --trainer maxmargin (3 epochs); returns its output dir."""
    base = tmp_path_factory.mktemp("golden_mm")
    world, exp = base / "world", base / "exp"
    assert run([
        "synth", "--kind", "nonlinear", "--n", "400", "--d", "8", "--clusters", "4",
        "--cluster-std", "0.25", "--variation-strength", "1.0", "--noise-sigma", "0.2",
        "--seed", "5", "--out", str(world),
    ]) == 0
    assert run([
        "experiment", "--src-emb", str(world / "src.vec"), "--tgt-emb", str(world / "tgt.vec"),
        "--lexicon", str(world / "lexicon.txt"), "--anchors", ",".join(MM_ANCHORS),
        "--trainer", "maxmargin", "--epochs", "3", "--test-size", "10", "--k", "2",
        "--min-train", "20", "--seed", "5", "--out", str(exp),
    ]) == 0
    return exp


def test_maxmargin_report_tsv_bytes(golden_maxmargin):
    assert (golden_maxmargin / "report.tsv").read_text(encoding="utf-8") == EXPECTED_MM_REPORT_TSV


def test_maxmargin_report_jsonl_values(golden_maxmargin):
    text = (golden_maxmargin / "report.jsonl").read_text(encoding="utf-8")
    _assert_close([json.loads(line) for line in text.splitlines()], EXPECTED_MM_RECORDS)


def test_maxmargin_map_bytes(golden_maxmargin):
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (golden_maxmargin / "maps").iterdir()
    }
    assert digests == EXPECTED_MM_MAP_SHA256
