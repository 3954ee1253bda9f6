"""Locally linear word-translation maps: training, diagnostics, serving."""

from .analysis import (
    ExperimentReport,
    ExperimentRow,
    frobenius_norm,
    matrix_cosine,
    pearson_correlation,
    precision_at_k,
    run_experiment,
)
from .embeddings import EmbeddingSpace, cosine_similarity, load_embeddings, top_k_by_cosine
from .lexicon import (
    BilingualLexicon,
    TranslationDataset,
    build_dataset,
    load_lexicon,
    split_dataset,
)
from .mapper import (
    LinearMap,
    TrainConfig,
    hinge_loss,
    orthogonality_penalty,
    squared_distance,
    train_least_squares,
    train_max_margin,
)
from .neighborhoods import Neighborhood, build_neighborhood, growth_profile
from .synth import SyntheticWorld, generate_linear_world, generate_nonlinear_world
from .translate import MapAtlas, piecewise_translate

__version__ = "0.1.0"

__all__ = [
    "BilingualLexicon",
    "EmbeddingSpace",
    "ExperimentReport",
    "ExperimentRow",
    "LinearMap",
    "MapAtlas",
    "Neighborhood",
    "SyntheticWorld",
    "TrainConfig",
    "TranslationDataset",
    "build_dataset",
    "build_neighborhood",
    "cosine_similarity",
    "frobenius_norm",
    "generate_linear_world",
    "generate_nonlinear_world",
    "growth_profile",
    "hinge_loss",
    "load_embeddings",
    "load_lexicon",
    "matrix_cosine",
    "orthogonality_penalty",
    "pearson_correlation",
    "piecewise_translate",
    "precision_at_k",
    "run_experiment",
    "split_dataset",
    "squared_distance",
    "top_k_by_cosine",
    "train_least_squares",
    "train_max_margin",
]
