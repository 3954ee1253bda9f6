import numpy as np
import pytest

from lexmap.embeddings import EmbeddingSpace


@pytest.fixture
def toy_space():
    """Three 2-D words: a=[1,0], b=[0.8,0.6], c=[0,1] (already unit norm)."""
    return EmbeddingSpace(
        ["a", "b", "c"],
        np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]),
        normalized=True,
    )


def random_space(rng, n, d, tag="rand"):
    """Unit-normalized random space with distinct tokens."""
    vectors = rng.standard_normal((n, d))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return EmbeddingSpace([f"{tag}{i}" for i in range(n)], vectors, normalized=True)


def write_vec(path, entries, dim=None, header_count=None):
    """Write a .vec file from (token, vector) pairs; header overridable."""
    dim = dim if dim is not None else len(entries[0][1])
    count = header_count if header_count is not None else len(entries)
    lines = [f"{count} {dim}"]
    for token, vec in entries:
        lines.append(token + " " + " ".join(str(float(v)) for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
