"""Layer spans for the traced run: wrappers installed from outside lexmap.

The traced run imports lexmap, replaces each layer's public function with a
wrapper that records one span (name, start, end, parent, size), runs the
CLI or ``build_atlas.py``, and writes the spans to a JSON file at exit. A
function is replaced in every module namespace that holds a reference to
it, because ``lexmap.cli``, ``lexmap.synth`` and ``lexmap.analysis`` import
names such as ``load_embeddings`` into their own namespaces.

Per-element helpers that run millions of times (``squared_distance``,
``cosine_similarity``) are not wrapped; ``cosines_to_all`` runs once per
query and is only counted, so its time stays with the layer that called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, function) pairs whose calls it covers
LAYERS = {
    "embeddings.load": [("lexmap.embeddings", "load_embeddings")],
    "embeddings.write": [("lexmap.embeddings", "write_embeddings")],
    "embeddings.topk": [("lexmap.embeddings", "top_k_by_cosine")],
    "synth.generate": [
        ("lexmap.synth", "generate_linear_world"),
        ("lexmap.synth", "generate_nonlinear_world"),
    ],
    "synth.export": [("lexmap.synth", "export_world")],
    "synth.load_world": [("lexmap.synth", "load_world")],
    "neighborhoods.scan": [("lexmap.neighborhoods", "build_neighborhood")],
    "lexicon.load": [("lexmap.lexicon", "load_lexicon")],
    "lexicon.pair": [
        ("lexmap.lexicon", "build_dataset"),
        ("lexmap.lexicon", "build_full_dataset"),
        ("lexmap.lexicon", "split_dataset"),
        ("lexmap.lexicon", "union_train_datasets"),
    ],
    "mapper.maxmargin": [("lexmap.mapper", "train_max_margin")],
    "mapper.lsq": [("lexmap.mapper", "train_least_squares")],
    "mapper.save_map": [("lexmap.mapper", "save_map")],
    "mapper.load_map": [("lexmap.mapper", "load_map")],
    "analysis.precision": [("lexmap.analysis", "precision_at_k")],
    "translate.dispatch": [("lexmap.translate", "select_entry")],
    "translate.save_atlas": [("lexmap.translate", "save_atlas")],
    "translate.load_atlas": [("lexmap.translate", "load_atlas")],
}

# calls counted without a span
COUNTED = {"embeddings.cosines": ("lexmap.embeddings", "cosines_to_all")}


def _size(name: str, args: tuple, kwargs: dict, result) -> int:
    """Work done by one call, where the layer has a natural count."""
    if name in ("embeddings.load", "neighborhoods.scan"):
        return len(result)
    if name == "analysis.precision":
        return len(kwargs["test"] if "test" in kwargs else args[1])
    return 0


class Recorder:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {name: 0 for name in COUNTED}
        self._stack: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = {"id": sid, "name": name, "parent": parent, "size": 0}
            self.spans.append(record)
            self._stack.append(sid)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            record["size"] = _size(name, args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, extra_modules: tuple[str, ...] = ()) -> None:
        """Replace every traced function in lexmap and the named modules."""
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if key == "lexmap" or key.startswith("lexmap.") or key in extra_modules
        ]
        targets = [(name, pair, self.span) for name, pairs in LAYERS.items() for pair in pairs]
        targets += [(name, pair, self.counter) for name, pair in COUNTED.items()]
        for name, (module, attr), make in targets:
            original = getattr(sys.modules[module], attr)
            wrapper = make(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
            fh.write("\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(s["end"] - s["start"] - covered)
    return out


def summarize(files: list[str]) -> dict:
    """Self time, call count and size per layer, summed over span files."""
    layers = {name: {"self_s": 0.0, "calls": 0, "size": 0} for name in LAYERS}
    counters = {name: 0 for name in COUNTED}
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for span, self_s in zip(data["spans"], self_times(data["spans"])):
            layer = layers[span["name"]]
            layer["self_s"] += self_s
            layer["calls"] += 1
            layer["size"] += span["size"]
        for name, value in data["counters"].items():
            counters[name] += value
    return {"layers": layers, "counters": counters}
