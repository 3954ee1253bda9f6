"""Cosine-thresholded neighborhoods around anchor words.

A neighborhood is the anchor word together with every vocabulary word whose
cosine similarity to the anchor is at least a threshold s. Membership is
computed by exhaustive scan over the full vocabulary: exactness matters for
reproducing member counts, and a few hundred thousand dot products per
anchor is fast at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, cosines_to_all, top_k_indices


@dataclass(frozen=True)
class Neighborhood:
    """Anchor word, threshold, and members sorted by descending cosine."""

    anchor_word: str
    threshold_s: float
    members: tuple[tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.members)

    def member_words(self) -> list[str]:
        return [w for w, _ in self.members]


def _anchor_scan(space: EmbeddingSpace, anchor: str) -> tuple[int, np.ndarray]:
    """The anchor's vocabulary index and its cosine to every word."""
    if anchor not in space:
        raise KeyError(f"anchor word not in vocabulary: {anchor!r}")
    anchor_idx = space.index(anchor)
    return anchor_idx, cosines_to_all(space, space.vectors[anchor_idx])


def build_neighborhood(space: EmbeddingSpace, anchor: str, s: float) -> Neighborhood:
    """All words with cosine-to-anchor >= s, anchor always included.

    The anchor seeds the neighborhood before the threshold scan, so it is a
    member even at s = 1.0 where its own float cosine may round just below 1.
    Members are sorted by descending cosine, ties by vocabulary index.
    """
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"threshold s must be in [-1, 1], got {s}")
    anchor_idx, cos = _anchor_scan(space, anchor)
    keep = cos >= s
    keep[anchor_idx] = True
    idx = np.flatnonzero(keep)
    idx = idx[top_k_indices(cos[idx], len(idx))]
    members = tuple((space.words[i], float(cos[i])) for i in idx)
    return Neighborhood(anchor, float(s), members)


def growth_profile(
    space: EmbeddingSpace, anchor: str, thresholds: list[float]
) -> list[tuple[float, int]]:
    """Member count at each threshold of a strictly descending list."""
    for a, b in zip(thresholds, thresholds[1:]):
        if not b < a:
            raise ValueError(f"thresholds must be strictly descending, got {thresholds}")
    if not thresholds:
        return []
    anchor_idx, cos = _anchor_scan(space, anchor)
    profile = []
    for s in thresholds:
        if not -1.0 <= s <= 1.0:
            raise ValueError(f"threshold s must be in [-1, 1], got {s}")
        count = int(np.count_nonzero(cos >= s))
        if cos[anchor_idx] < s:
            count += 1  # anchor is always a member
        profile.append((float(s), count))
    return profile


def profile_to_tsv(profile: list[tuple[float, int]]) -> str:
    """Two-column TSV (s, count) for plotting."""
    lines = ["s\tcount", *(f"{s!r}\t{count}" for s, count in profile)]
    return "\n".join(lines) + "\n"
