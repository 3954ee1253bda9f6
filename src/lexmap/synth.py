"""Synthetic embedding-pair worlds with known generating maps.

Worlds pair a clustered source space with a target space produced by a
known map, giving an independent ground truth for every diagnostic in this
package. Two regimes share one generator:

* linear: targets are G x for a fixed well-conditioned matrix G, so every
  locally fitted map should agree with every other one.
* rotating: targets are G R(theta(x)) x where R rotates a fixed 2-plane by
  theta(x) = variation_strength * (u . x) for a fixed unit axis u. The map
  changes smoothly with position, is locally approximable by construction,
  and degenerates to the linear regime at variation_strength = 0 with
  bit-identical output.

Source vectors are drawn from a Gaussian mixture whose cluster centers are
spread along the axis u, at axis coordinates evenly spaced in
[-CENTER_SPREAD, CENTER_SPREAD], so the rotating regime actually sweeps a
wide angle range across clusters and cosine neighborhoods are non-trivial.
G's singular values are drawn uniformly from SINGULAR_RANGE, which bounds
its condition number by 2.5. Sources are unit-normalized; targets are kept
raw so that the exact relation y = M(x) x survives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import (EmbeddingSpace, cosines_to_rows, load_embeddings, top_k_indices,
                         write_embeddings)
from .formats import dumps_json
from .lexicon import BilingualLexicon, load_lexicon
from .seeds import spawn_rng

CENTER_SPREAD = 0.8  # largest |axis coordinate| of a cluster center
SINGULAR_RANGE = (0.8, 2.0)  # bounds of G's singular values
_ROTATE_ROWS = 1024  # rows per block of the rotation's n x d temporaries


@dataclass(frozen=True)
class GroundTruth:
    """Parameters of the generating map."""

    matrix: np.ndarray
    variation_strength: float
    axis: np.ndarray
    plane_p: np.ndarray
    plane_q: np.ndarray
    cluster_centers: np.ndarray

    @property
    def kind(self) -> str:
        return "linear" if self.variation_strength == 0.0 else "rotating"


@dataclass(frozen=True)
class SyntheticWorld:
    """Paired spaces, bijective lexicon, generating map, and region labels."""

    src_space: EmbeddingSpace
    tgt_space: EmbeddingSpace
    lexicon: BilingualLexicon
    ground_truth: GroundTruth
    region_labels: dict[str, int]
    noise_sigma: float
    seed: int
    params: dict = field(default_factory=dict)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def rotation_matrix(p: np.ndarray, q: np.ndarray, theta: float) -> np.ndarray:
    """Rotation by theta in the plane spanned by the orthonormal pair (p, q)."""
    d = p.shape[0]
    return (
        np.eye(d)
        + (math.cos(theta) - 1.0) * (np.outer(p, p) + np.outer(q, q))
        + math.sin(theta) * (np.outer(q, p) - np.outer(p, q))
    )


def local_map_at(world: SyntheticWorld, x: np.ndarray) -> np.ndarray:
    """The generating map evaluated at one source position (oracle)."""
    gt = world.ground_truth
    theta = gt.variation_strength * float(gt.axis @ x)
    return gt.matrix @ rotation_matrix(gt.plane_p, gt.plane_q, theta)


def _turned(X: np.ndarray, p: np.ndarray, q: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """X + (cos - 1) (px p + qx q) + sin (px q - qx p), px = X @ p and qx = X @ q: each row
    turned by its theta in the plane of p and q. Built a block of rows at a time: the
    same bits in each entry as whole-matrix steps, with only X and the result n x d."""
    px, qx = X @ p, X @ q
    shrink, sin = (np.cos(theta) - 1.0)[:, None], np.sin(theta)[:, None]
    X_rot = np.empty_like(X)
    for start in range(0, len(X), _ROTATE_ROWS):
        rows = slice(start, start + _ROTATE_ROWS)
        block = np.multiply(px[rows, None], p, out=X_rot[rows])
        block += qx[rows, None] * q
        block *= shrink[rows]
        turn = px[rows, None] * q
        turn -= qx[rows, None] * p
        turn *= sin[rows]
        block += X[rows]
        block += turn
    return X_rot


def generate_nonlinear_world(
    n: int,
    d: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    variation_strength: float = 1.5,
    n_clusters: int = 8,
    cluster_std: float = 0.3,
) -> SyntheticWorld:
    """World with a smoothly position-dependent map; strength 0 is linear."""
    if n < 2 or d < 3:
        raise ValueError(f"need n >= 2 and d >= 3, got n={n} d={d}")
    if n_clusters < 1:
        raise ValueError("need n_clusters >= 1")
    for name, value in (("noise_sigma", noise_sigma), ("variation_strength", variation_strength)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if not 0 < cluster_std < math.inf:
        raise ValueError(f"cluster_std must be finite and > 0, got {cluster_std}")

    # one stream, fixed draw order, independent of variation_strength: the
    # rotating generator at strength 0 must emit bit-identical vectors
    rng = spawn_rng(seed, "world")

    axis = _unit(rng.standard_normal(d))
    p = rng.standard_normal(d)
    p = _unit(p - (p @ axis) * axis)
    q = rng.standard_normal(d)
    q = _unit(q - (q @ axis) * axis - (q @ p) * p)

    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    singulars = rng.uniform(*SINGULAR_RANGE, size=d)
    G = q1 @ np.diag(singulars) @ q2

    if n_clusters > 1 and d < n_clusters + 3:
        raise ValueError(f"need d >= n_clusters + 3 for distinct cluster directions, got d={d}")
    if n_clusters == 1:
        alphas = np.array([0.0])
    else:
        alphas = np.linspace(-CENTER_SPREAD, CENTER_SPREAD, n_clusters)
    centers = np.empty((n_clusters, d))
    residuals: list[np.ndarray] = []
    for j, alpha in enumerate(alphas):
        w = rng.standard_normal(d)
        # mutually orthogonal residual directions: center cosines then depend
        # on the axis coordinates alone, so anchor distance tracks the swept
        # angle exactly instead of up to random cross terms
        w = w - (w @ axis) * axis
        for prev in residuals:
            w = w - (w @ prev) * prev
        w = _unit(w)
        residuals.append(w)
        centers[j] = alpha * axis + math.sqrt(1.0 - alpha * alpha) * w

    labels = rng.integers(n_clusters, size=n)
    X = rng.standard_normal((n, d))
    X *= cluster_std
    X += centers[labels]
    X /= np.linalg.norm(X, axis=1, keepdims=True)

    Y = _turned(X, p, q, variation_strength * (X @ axis)) @ G.T
    if noise_sigma > 0:  # the stream's last draw, so skipping it changes no other value
        noise = rng.standard_normal((n, d))
        noise *= noise_sigma
        Y += noise
        del noise

    width = max(5, len(str(n - 1)))
    src_words = [f"w{i:0{width}d}" for i in range(n)]
    tgt_words = [f"v{i:0{width}d}" for i in range(n)]
    src_space = EmbeddingSpace(src_words, X, normalized=True)
    tgt_space = EmbeddingSpace(tgt_words, Y)
    lexicon = BilingualLexicon({sw: [tw] for sw, tw in zip(src_words, tgt_words)}, line_count=n)

    gt = GroundTruth(
        matrix=G,
        variation_strength=float(variation_strength),
        axis=axis,
        plane_p=p,
        plane_q=q,
        cluster_centers=centers,
    )
    params = {
        "n": n,
        "d": d,
        "n_clusters": n_clusters,
        "cluster_std": cluster_std,
        "center_spread": CENTER_SPREAD,
        "singular_range": list(SINGULAR_RANGE),
        "normalize_targets": False,
    }
    return SyntheticWorld(
        src_space=src_space,
        tgt_space=tgt_space,
        lexicon=lexicon,
        ground_truth=gt,
        region_labels={w: int(c) for w, c in zip(src_words, labels)},
        noise_sigma=float(noise_sigma),
        seed=seed,
        params=params,
    )


def generate_linear_world(
    n: int,
    d: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    n_clusters: int = 8,
    cluster_std: float = 0.3,
) -> SyntheticWorld:
    """World whose targets are exactly G x (plus optional Gaussian noise)."""
    return generate_nonlinear_world(n, d, noise_sigma, seed, 0.0, n_clusters, cluster_std)


def default_anchor_words(world: SyntheticWorld) -> list[str]:
    """One representative word per cluster: the member nearest its center.

    Ordered by cluster index, which follows the center positions along the
    variation axis, so the first anchor sits at one end of the swept range.
    Each cluster's members, in vocabulary order, are ranked by their
    cosines_to_all score against its center with top_k_indices: the highest
    cosine wins, ties to the first member. Only the members are scored.
    """
    space, centers = world.src_space, world.ground_truth.cluster_centers
    members: dict[int, list[int]] = {}
    for word, label in world.region_labels.items():
        members.setdefault(label, []).append(space.index(word))
    anchors = []
    for label in sorted(members):
        rows = np.sort(members[label])
        cos = cosines_to_rows(space, centers[label], rows)
        anchors.append(space.words[rows[top_k_indices(cos, 1)[0]]])
    return anchors


def export_world(world: SyntheticWorld, directory: str | Path) -> None:
    """Write the world in standard file formats plus a JSON descriptor.

    src.vec / tgt.vec / lexicon.txt feed the normal CLI path; world.json
    carries the generating-map parameters and region labels so the world
    can be reconstructed exactly for diagnostics.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_embeddings(world.src_space, directory / "src.vec")
    write_embeddings(world.tgt_space, directory / "tgt.vec")
    with (directory / "lexicon.txt").open("w", encoding="utf-8") as fh:
        for src, targets in world.lexicon.pairs.items():
            for tgt in targets:
                fh.write(f"{src}\t{tgt}\n")
    gt = world.ground_truth
    descriptor = {
        "kind": gt.kind,
        "seed": world.seed,
        "noise_sigma": world.noise_sigma,
        "variation_strength": gt.variation_strength,
        "matrix": gt.matrix,
        "axis": gt.axis,
        "plane_p": gt.plane_p,
        "plane_q": gt.plane_q,
        "cluster_centers": gt.cluster_centers,
        "region_labels": world.region_labels,
        "params": world.params,
    }
    (directory / "world.json").write_text(dumps_json(descriptor) + "\n", encoding="utf-8")


def load_world(directory: str | Path) -> SyntheticWorld:
    """Reconstruct a world exported by export_world (bit-exact vectors).

    A descriptor that is not JSON, lacks a key or holds a value of the
    wrong type is rejected, naming world.json, before any .vec file loads.
    """
    directory = Path(directory)
    descriptor_path = directory / "world.json"
    if not descriptor_path.is_file():
        raise FileNotFoundError(f"world descriptor not found: {descriptor_path}")
    try:
        with descriptor_path.open("r", encoding="utf-8") as fh:
            desc = json.load(fh)
        ndims = {"matrix": 2, "axis": 1, "plane_p": 1, "plane_q": 1, "cluster_centers": 2}
        arrays = {key: np.array(desc[key], dtype=np.float64) for key in ndims}
        if wrong := [key for key, ndim in ndims.items() if arrays[key].ndim != ndim]:
            raise ValueError(f"{wrong[0]} must be a {ndims[wrong[0]]}-D array of numbers")
        gt = GroundTruth(variation_strength=float(desc["variation_strength"]), **arrays)
        region_labels = {w: int(c) for w, c in desc["region_labels"].items()}
        if not set(region_labels.values()) <= set(range(len(gt.cluster_centers))):
            raise ValueError("region_labels must index the rows of cluster_centers")
        noise_sigma, seed, params = float(desc["noise_sigma"]), int(desc["seed"]), desc["params"]
    except KeyError as exc:
        raise ValueError(f"bad world descriptor in {descriptor_path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad world descriptor in {descriptor_path}: {exc}") from None

    raw = load_embeddings(directory / "src.vec", normalize=False)  # the unit rows as written
    src_space = EmbeddingSpace(raw.words, raw.vectors, normalized=True, stats=raw.stats)
    tgt_space = load_embeddings(directory / "tgt.vec", normalize=False)
    lexicon = load_lexicon(directory / "lexicon.txt")
    return SyntheticWorld(src_space=src_space, tgt_space=tgt_space, lexicon=lexicon,
                          ground_truth=gt, region_labels=region_labels,
                          noise_sigma=noise_sigma, seed=seed, params=params)
