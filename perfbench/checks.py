"""Independent computations that the benchmark checks lexmap's outputs against.

Everything here reads the files the program wrote and recomputes with numpy
alone; nothing imports lexmap. Each check returns a list of problems, empty
when the output is right.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# a cosine this close to the threshold s may fall on either side of it in
# another summation order, so it is allowed either way
EDGE = 1e-9
# relative tolerance for a statistic recomputed in another summation order
CLOSE = 1e-9


def read_vec(path: Path) -> tuple[list[str], np.ndarray]:
    """Words and raw vectors of a .vec file."""
    with open(path, "r", encoding="utf-8") as fh:
        _, dim = (int(v) for v in fh.readline().split())
        words = [line.split(" ", 1)[0] for line in fh]
    vectors = np.loadtxt(path, skiprows=1, usecols=range(1, dim + 1), comments=None, ndmin=2)
    return words, vectors


def unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def read_map_meta(path: Path) -> dict[str, str]:
    """The '#' provenance fields that follow a map file's header."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    return meta


def read_map(path: Path) -> tuple[np.ndarray, dict[str, str]]:
    """Matrix and '#' provenance fields of a map file."""
    with open(path, "r", encoding="utf-8") as fh:
        shape = tuple(int(v) for v in fh.readline().split())
    matrix = np.loadtxt(path, skiprows=1, comments="#", ndmin=2)
    if matrix.shape != shape:
        raise ValueError(f"{path}: body {matrix.shape} != header {shape}")
    return matrix, read_map_meta(path)


def read_lexicon(path: Path) -> dict[str, list[str]]:
    pairs: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 2 and fields[1] not in pairs.setdefault(fields[0], []):
                pairs[fields[0]].append(fields[1])
    return pairs


def cluster_anchors(world: dict, words: list[str], src: np.ndarray) -> list[str]:
    """Per cluster, in cluster order, the member nearest the cluster center."""
    labels = np.array([world["region_labels"][w] for w in words])
    centers = unit_rows(np.array(world["cluster_centers"]))
    cos = np.einsum("ij,ij->i", unit_rows(src), centers[labels])
    anchors = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        anchors.append(words[members[np.argmax(cos[members])]])
    return anchors


def matrix_cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def spearman(x: list[float], y: list[float]) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def _close(a: float, b: float, tol: float = CLOSE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def read_report(out: Path) -> list[dict]:
    records = [json.loads(line) for line in (out / "report.jsonl").read_text(encoding="utf-8").splitlines()]
    return [r for r in records if "summary" not in r]


def world_problems(world_dir: Path, words: list[str], src: np.ndarray) -> list[str]:
    """The exported world against its own descriptor.

    Sources are unit rows, the lexicon pairs word i with target i, and every
    target equals G R(theta(x)) x, where R rotates the (p, q) plane by
    theta = strength * (axis . x).
    """
    desc = json.loads((world_dir / "world.json").read_text(encoding="utf-8"))
    tgt_words, tgt = read_vec(world_dir / "tgt.vec")
    problems = []
    if np.max(np.abs(np.linalg.norm(src, axis=1) - 1.0)) > 1e-12:
        problems.append("world source rows are not unit norm")
    lexicon = read_lexicon(world_dir / "lexicon.txt")
    if [lexicon.get(w) for w in words] != [[t] for t in tgt_words]:
        problems.append("world lexicon does not pair word i with target i")
    p, q, axis = (np.array(desc[key]) for key in ("plane_p", "plane_q", "axis"))
    theta = desc["variation_strength"] * (src @ axis)
    px, qx = src @ p, src @ q
    rotated = (
        src
        + (np.cos(theta) - 1.0)[:, None] * (np.outer(px, p) + np.outer(qx, q))
        + np.sin(theta)[:, None] * (np.outer(px, q) - np.outer(qx, p))
    )
    expected = rotated @ np.array(desc["matrix"]).T
    if np.max(np.abs(tgt - expected)) > 1e-9 * np.max(np.abs(expected)):
        problems.append("world targets are not G R(theta(x)) x")
    return problems


def check_report(out: Path, words: list[str], src: np.ndarray, lexicon: dict[str, list[str]],
                 tgt_words: set[str], anchors: list[str], s: float, test_size: int) -> list[str]:
    """Rows of an experiment or diagnose report against numpy recomputation.

    Checks neighborhood sizes, split sizes, the map statistics against the
    saved map files, and the accuracy grid.
    """
    problems = []
    if (out / "stdout.txt").read_text(encoding="utf-8") != (out / "report.tsv").read_text(encoding="utf-8"):
        problems.append("printed report differs from report.tsv")
    rows = read_report(out)
    got = [r["anchor_word"] for r in rows]
    if got != [a for a in anchors if a in got] or got[:1] != anchors[:1]:
        problems.append(f"report anchors {got} do not follow {anchors}")
        return problems
    index = {w: i for i, w in enumerate(words)}
    unit = unit_rows(src)
    paired = np.array([any(t in tgt_words for t in lexicon.get(w, ())) for w in words])
    ref = unit[index[anchors[0]]]
    ref_map, _ = read_map(out / "maps" / f"local_{anchors[0]}.txt")
    tsv_rows = (out / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]
    tsv_rows = [line.split("\t") for line in tsv_rows if not line.startswith("#")]
    if [t[:3] for t in tsv_rows] != [[r["anchor_word"], str(r["train_size"]), str(r["test_size"])] for r in rows]:
        problems.append("report.tsv rows disagree with report.jsonl")
    for r in rows:
        a = r["anchor_word"]
        cos = unit @ unit[index[a]]
        sure = (cos >= s + EDGE) & paired
        edge = (np.abs(cos - s) < EDGE) & paired
        sure[index[a]] = bool(paired[index[a]])
        size = r["train_size"] + r["test_size"]
        if not int(sure.sum()) <= size <= int((sure | edge).sum()):
            problems.append(f"{a}: train+test {size} != {int(sure.sum())} paired words with cosine >= {s}")
        if r["test_size"] != test_size:
            problems.append(f"{a}: test_size {r['test_size']} != {test_size}")
        if not _close(r["anchor_cosine"], float(ref @ unit[index[a]])):
            problems.append(f"{a}: anchor_cosine {r['anchor_cosine']} != numpy {float(ref @ unit[index[a]])}")
        local, meta = read_map(out / "maps" / f"local_{a}.txt")
        if int(meta.get("train_size", -1)) != r["train_size"]:
            problems.append(f"{a}: map file train_size {meta.get('train_size')} != {r['train_size']}")
        if not _close(r["map_norm"], float(np.linalg.norm(local))):
            problems.append(f"{a}: map_norm {r['map_norm']} != numpy {float(np.linalg.norm(local))}")
        if not _close(r["map_cosine"], matrix_cosine(ref_map, local)):
            problems.append(f"{a}: map_cosine {r['map_cosine']} != numpy {matrix_cosine(ref_map, local)}")
        for key in ("acc_global", "acc_reference", "acc_local"):
            hits = r[key] * r["test_size"] / 100.0
            if not 0.0 <= r[key] <= 100.0 or abs(hits - round(hits)) > 1e-9:
                problems.append(f"{a}: {key} {r[key]} is not a multiple of 100/{r['test_size']} in [0, 100]")
        if not _close(r["delta"], r["acc_local"] - r["acc_reference"]):
            problems.append(f"{a}: delta {r['delta']} != acc_local - acc_reference")
    if rows and (rows[0]["delta"] != 0.0 or not _close(rows[0]["map_cosine"], 1.0, 1e-12)):
        problems.append("reference row must have delta 0 and map_cosine 1")
    return problems


def check_locality(out: Path, world: dict, words: list[str], src: np.ndarray,
                   min_local_acc: float, max_rank_corr: float) -> list[str]:
    """Properties of the method on a noiseless rotating world.

    Local least-squares maps translate their own neighborhoods almost
    perfectly, and map cosine falls as two anchors move apart along the
    world's variation axis.
    """
    problems = []
    index = {w: i for i, w in enumerate(words)}
    unit = unit_rows(src)
    for r in read_report(out):
        if r["acc_local"] < min_local_acc:
            problems.append(f"{r['anchor_word']}: local precision@k {r['acc_local']} < {min_local_acc}")
    axis = np.array(world["axis"])
    distances, map_cosines = [], []
    lines = (out / "pairwise.tsv").read_text(encoding="utf-8").splitlines()[1:]
    maps = {}
    for line in lines:
        a, b, anchor_cos, map_cos = line.split("\t")
        for w in (a, b):
            if w not in maps:
                maps[w] = read_map(out / "maps" / f"local_{w}.txt")[0]
        ma, mb = maps[a], maps[b]
        if not _close(float(anchor_cos), float(unit[index[a]] @ unit[index[b]])):
            problems.append(f"pairwise {a},{b}: anchor_cosine {anchor_cos} != numpy")
        if not _close(float(map_cos), matrix_cosine(ma, mb)):
            problems.append(f"pairwise {a},{b}: map_cosine {map_cos} != numpy {matrix_cosine(ma, mb)}")
        distances.append(abs(float(axis @ (src[index[a]] - src[index[b]]))))
        map_cosines.append(float(map_cos))
    if len(lines) < 3:
        problems.append(f"pairwise.tsv has {len(lines)} rows, too few for a trend")
    elif spearman(distances, map_cosines) > max_rank_corr:
        rho = spearman(distances, map_cosines)
        problems.append(f"rank correlation of axis distance and map cosine {rho:.3f} > {max_rank_corr}")
    return problems


def check_atlas(atlas: Path, world_dir: Path, s: float, lam: float) -> list[str]:
    """Atlas anchors and maps against a numpy ridge fit per neighborhood."""
    problems = []
    world = json.loads((world_dir / "world.json").read_text(encoding="utf-8"))
    words, src = read_vec(world_dir / "src.vec")
    tgt_words, tgt = read_vec(world_dir / "tgt.vec")
    lexicon = read_lexicon(world_dir / "lexicon.txt")
    manifest = json.loads((atlas / "manifest.json").read_text(encoding="utf-8"))
    anchors = [e["anchor"] for e in manifest["entries"]]
    if anchors != cluster_anchors(world, words, src):
        return [f"atlas anchors {anchors} are not the cluster anchors"]
    index = {w: i for i, w in enumerate(words)}
    tgt_index = {w: i for i, w in enumerate(tgt_words)}
    unit = unit_rows(src)
    for entry in manifest["entries"]:
        a = entry["anchor"]
        if not np.array_equal(np.array(entry["vector"]), src[index[a]]):
            problems.append(f"atlas vector of {a} is not its source row")
        cos = unit @ unit[index[a]]
        if np.any(np.abs(cos - s) < EDGE):
            continue  # membership at the edge is ambiguous; no reference fit
        members = [i for i in np.flatnonzero(cos >= s) if lexicon.get(words[i])]
        x = src[members]
        y = tgt[[tgt_index[lexicon[words[i]][0]] for i in members]]
        ref = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y).T
        fitted, meta = read_map(atlas / entry["file"])
        if int(meta.get("train_size", -1)) != len(members):
            problems.append(f"atlas map {a}: train_size {meta.get('train_size')} != {len(members)}")
        if np.max(np.abs(fitted - ref)) > 1e-6 * np.max(np.abs(ref)):
            problems.append(f"atlas map {a} differs from the numpy ridge fit")
    return problems


def check_translations(out: Path, atlas: Path, world_dir: Path, queries: list[str], k: int) -> list[str]:
    """Dispatch, top-k and scores of an atlas translation run, recomputed.

    Spaces are unit-normalized as the CLI does at load. The chosen anchor is
    the first argmax of anchor cosines; the top-k follows descending cosine
    with ties by ascending target index; printed scores agree to 1e-6.
    A query missing from the output is left to the caller to count as failed.
    """
    problems = []
    words, src = read_vec(world_dir / "src.vec")
    tgt_words, tgt = read_vec(world_dir / "tgt.vec")
    src, tgt = unit_rows(src), unit_rows(tgt)
    index = {w: i for i, w in enumerate(words)}
    manifest = json.loads((atlas / "manifest.json").read_text(encoding="utf-8"))
    anchors = [e["anchor"] for e in manifest["entries"]]
    anchor_unit = unit_rows(np.array([e["vector"] for e in manifest["entries"]]))
    maps = [read_map(atlas / e["file"])[0] for e in manifest["entries"]]

    text = (out / "translations.tsv").read_text(encoding="utf-8")
    if (out / "stdout.txt").read_text(encoding="utf-8") != text:
        problems.append("printed translations differ from translations.tsv")
    lines = text.splitlines()
    if lines[0] != "source\tmap\trank\ttarget\tscore":
        return [f"bad translations header {lines[0]!r}"]
    got: dict[str, list[list[str]]] = {}
    for line in lines[1:]:
        fields = line.split("\t")
        got.setdefault(fields[0], []).append(fields)
    if list(got) != [w for w in queries if w in got]:
        problems.append("translated words are not the queries in order")

    x = src[[index[w] for w in queries]]
    chosen = np.argmax(x @ anchor_unit.T, axis=1)
    for j in np.unique(chosen):
        rows = np.flatnonzero(chosen == j)
        y = unit_rows(x[rows] @ maps[j].T)
        scores = np.clip(y @ tgt.T, -1.0, 1.0)
        top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        for p, (r, q) in enumerate(zip(rows, top)):
            word = queries[r]
            ranking = got.get(word)
            if ranking is None:
                continue  # counted as a failed query, not checked
            if [f[2] for f in ranking] != [str(i) for i in range(1, k + 1)]:
                problems.append(f"{word}: ranks {[f[2] for f in ranking]} are not 1..{k}")
                continue
            if any(f[1] != anchors[j] for f in ranking):
                problems.append(f"{word}: dispatched to {ranking[0][1]}, numpy argmax is {anchors[j]}")
            if [f[3] for f in ranking] != [tgt_words[i] for i in q]:
                problems.append(f"{word}: top-{k} {[f[3] for f in ranking]} != numpy {[tgt_words[i] for i in q]}")
            elif max(abs(float(f[4]) - scores[p, i]) for f, i in zip(ranking, q)) > 1e-6:
                problems.append(f"{word}: printed scores differ from numpy by more than 1e-6")
    return problems
