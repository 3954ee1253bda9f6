"""The lexmap API the benchmark calls from outside the package still works.

``perfbench/spans.py`` names the functions it replaces as (module, name)
pairs, and ``perfbench/build_atlas.py`` trains and saves the atlas that the
``translate_atlas`` workload serves. A rename, deletion or signature change
in lexmap would otherwise fail only the benchmark, not this suite.
"""

import importlib
import importlib.util
from pathlib import Path

from lexmap.synth import load_world
from lexmap.translate import load_atlas

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    spans = _perfbench_module("spans")
    pairs = [pair for layer in spans.LAYERS.values() for pair in layer]
    pairs += list(spans.COUNTED.values())
    missing = [(module, name) for module, name in pairs
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert pairs and not missing


def test_atlas_set_up_builds_an_atlas_that_loads(tmp_path):
    build_atlas = _perfbench_module("build_atlas")
    build_atlas.build(tmp_path, 300, 12, 4, 0.03, 0.5, 1e-3, 0)
    world = load_world(tmp_path / "world")
    atlas = load_atlas(tmp_path / "atlas")
    assert len(atlas) == 4 and atlas.fallback is None
    for entry in atlas.entries:
        assert entry.linear_map.anchor == entry.anchor_word
        assert entry.linear_map.matrix.shape == (12, 12)
        assert entry.anchor_vector.tolist() == world.src_space.vector(entry.anchor_word).tolist()
