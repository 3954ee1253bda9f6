"""Print the sha256 of every file a seeded end-to-end lexmap run writes.

The run builds a synthetic world (n=2000, d=300) and runs ``diagnose
--trainer lsq``, ``diagnose --trainer maxmargin``, ``neighborhood``,
``experiment --trainer maxmargin``, ``train``, ``translate --map`` and
``translate --atlas`` on it, each in its own subprocess under
``OPENBLAS_NUM_THREADS=1``. The atlas holds diagnose's
local maps, keyed by their anchors' source vectors, with its global map as
fallback, as in ``tests/test_golden.py``. It translates 50 ``--words``
with a floor, then every source word from an ``--input`` file at k=10, as
the benchmark's ``translate_atlas`` does, in an order that interleaves the
clusters. Then ``diagnose`` (lsq) and
``experiment`` run again from their ``config.json`` (``--config``) into
``diagnose_rerun`` and ``experiment_rerun``: a rerun writes the same
bytes, config.json aside. Every command runs in the work directory with
relative paths, so config.json does not depend on where it is, and imports
lexmap from the ``src`` directory beside this script: running the script
from two checkouts and diffing the output shows which output bytes a
change moves.

Usage: python tools/output_digests.py [WORKDIR]

``-h`` or ``--help`` prints that line; any other argument that starts with
``-``, or a second argument, is rejected with it. Either way nothing runs.
Without WORKDIR the outputs go to a temporary directory that is removed
afterwards. Lines are ``<sha256>  <path under WORKDIR>``, sorted by path.
One more line, on stderr, names the OpenBLAS core and build that numpy
loads under the same environment (``unknown`` where the library does not
say), since the synth, least-squares and max-margin digests depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
SEED = "3"
WORDS = ",".join(f"w{i:05d}" for i in range(0, 2000, 40))
# every source word once, 797 apart: 797 is prime to 2000
INPUT_WORDS = "".join(f"w{i * 797 % 2000:05d}\n" for i in range(2000))
# the runs repeated from their config.json, each into <command>_rerun
RERUNS = ("diagnose", "experiment")

# save_atlas of diagnose's maps, run like the commands under the same environment
BUILD_ATLAS = """
import json
from pathlib import Path
from lexmap.embeddings import load_embeddings
from lexmap.mapper import load_map
from lexmap.translate import AtlasEntry, MapAtlas, save_atlas
maps = Path("diagnose", "maps")
src = load_embeddings("world/src.vec", normalize=False)
records = Path("diagnose", "report.jsonl").read_text().splitlines()[:-1]
anchors = [json.loads(line)["anchor_word"] for line in records]
entries = tuple(AtlasEntry(a, src.vector(a), load_map(maps / f"local_{a}.txt")) for a in anchors)
save_atlas(MapAtlas(entries, fallback=load_map(maps / "global.txt")), "atlas")
"""

# the core and config of the OpenBLAS that numpy loads, asked of the library itself, as
# perfbench/envinfo.py asks it for its thread count
BLAS_CORE = """
import ctypes
import numpy

def ask(lib, kind):
    for symbol in (f"scipy_openblas_get_{kind}64_", f"openblas_get_{kind}64_",
                   f"openblas_get_{kind}"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None

with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for lib in map(ctypes.CDLL, libs):
    if core := ask(lib, "corename"):
        print(f"{core} ({ask(lib, 'config')})")
        break
"""


def blas_core() -> str:
    result = subprocess.run([sys.executable, "-c", BLAS_CORE], env=ENV, capture_output=True,
                            text=True)
    return result.stdout.strip() or "unknown"


def run_all(work: Path) -> None:
    def python(*argv: str) -> None:
        subprocess.run([sys.executable, *argv], cwd=work, env=ENV, check=True,
                       stdout=subprocess.DEVNULL)

    def lexmap(*argv: str) -> None:
        python("-m", "lexmap.cli", *argv)

    vecs = ["--src-emb", "world/src.vec", "--tgt-emb", "world/tgt.vec"]
    lexicon = ["--lexicon", "world/lexicon.txt"]
    lexmap("synth", "--kind", "nonlinear", "--n", "2000", "--d", "300", "--clusters", "8",
           "--cluster-std", "0.03", "--seed", SEED, "--out", "world")
    lexmap("diagnose", "--world", "world", "--trainer", "lsq", "--lam", "1e-6",
           "--test-size", "100", "--seed", SEED, "--out", "diagnose")
    lexmap("diagnose", "--world", "world", "--trainer", "maxmargin", "--epochs", "3",
           "--test-size", "100", "--seed", SEED, "--out", "diagnose_maxmargin")
    records = (work / "diagnose" / "report.jsonl").read_text().splitlines()[:-1]
    anchors = ",".join(json.loads(line)["anchor_word"] for line in records)
    lexmap("neighborhood", "--src-emb", "world/src.vec", "--anchors", anchors, "--seed", SEED,
           "--out", "neighborhood")
    lexmap("experiment", *vecs, *lexicon, "--anchors", anchors, "--trainer", "maxmargin",
           "--epochs", "3", "--test-size", "100", "--seed", SEED, "--out", "experiment")
    lexmap("train", *vecs, *lexicon, "--trainer", "maxmargin", "--epochs", "3", "--seed", SEED,
           "--out", "train")
    lexmap("translate", *vecs, "--map", "train/map.txt", "--words", WORDS, "--k", "5",
           "--out", "translate_map")
    python("-c", BUILD_ATLAS)
    lexmap("translate", *vecs, "--atlas", "atlas", "--words", WORDS, "--k", "5",
           "--floor", "0.81", "--out", "translate_atlas")
    (work / "atlas_words.txt").write_text(INPUT_WORDS, encoding="utf-8")
    lexmap("translate", *vecs, "--atlas", "atlas", "--input", "atlas_words.txt", "--k", "10",
           "--out", "translate_atlas_input")
    for command in RERUNS:
        lexmap(command, "--config", f"{command}/config.json", "--out", f"{command}_rerun")


def digests(work: Path) -> list[str]:
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work)}" for p in files]


def main(argv: list[str]) -> None:
    usage = __doc__.split("\n\n")[2]
    if argv in (["-h"], ["--help"]):
        print(usage)
        return
    if len(argv) > 1 or any(arg.startswith("-") for arg in argv):
        sys.exit(usage)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(argv[0]) if argv else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        print(f"blas core: {blas_core()}", file=sys.stderr)
        run_all(work)
        print("\n".join(digests(work)))


if __name__ == "__main__":
    main(sys.argv[1:])
