import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from lexmap.embeddings import EmbeddingSpace, load_embeddings

# CI runs each property test on the same examples every time, so a failure
# there reproduces locally with CI=1 and prints the blob to replay it
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def digests_tool():
    """tools/output_digests.py, loaded as a module."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def blas_core():
    """The OpenBLAS core and build numpy loads, as tools/output_digests.py names them."""
    return digests_tool().blas_core()


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


def load_every_way(path, n):
    """Every load of a .vec of n words, for limits None, 1, n-1, n, n+1 and both normalize
    values: the words, vector bytes, shape and stats, or the ValueError's message."""
    results = []
    for limit in (None, 1, n - 1, n, n + 1):
        for normalize in (True, False):
            if limit is not None and limit < 1:
                continue
            try:
                space = load_embeddings(path, limit=limit, normalize=normalize)
            except ValueError as exc:
                results.append(str(exc))
                continue
            results.append((space.words, space.vectors.tobytes(), space.vectors.shape, space.stats))
    return results
