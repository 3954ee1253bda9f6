"""Experiment diagnostics: matrix similarity, retrieval accuracy, reports.

The experiment driver trains one map per anchor neighborhood plus a global
map on the union of their training data, evaluates all three on each
anchor's held-out test set, and assembles a ten-column report row per
anchor together with the correlation between map similarity and the
reference map's accuracy, and the (anchor cosine, map cosine) of every
pair of usable anchors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations

import numpy as np

from .embeddings import EmbeddingSpace, cosine_similarity, top_k_rows
from .lexicon import (
    BilingualLexicon,
    TranslationDataset,
    build_dataset,
    split_dataset,
    union_train_datasets,
)
from .mapper import LinearMap, TrainConfig, get_trainer
from .neighborhoods import build_neighborhood
from .seeds import spawn_seed

def matrix_cosine(m1: np.ndarray, m2: np.ndarray) -> float:
    """Cosine similarity of two matrices viewed as flat vectors.

    Computed as the Frobenius inner product over the product of Frobenius
    norms, which equals the trace form tr(M1^T M2) / sqrt(tr(M1^T M1)
    tr(M2^T M2)).
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape:
        raise ValueError(f"shape mismatch: {m1.shape} vs {m2.shape}")
    n1 = float(np.sum(m1 * m1))
    n2 = float(np.sum(m2 * m2))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("matrix cosine undefined for an all-zero matrix")
    return float(np.sum(m1 * m2)) / float(np.sqrt(n1 * n2))


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(m * m)))


def precision_at_k(
    m: LinearMap,
    test: TranslationDataset,
    tgt_space: EmbeddingSpace,
    k: int,
) -> float:
    """Percentage of test items with a gold target in the cosine top-k.

    Retrieval ranks the full target vocabulary with the same scores and
    tie-break (ascending vocabulary index) as top_k_by_cosine, for the whole
    test set in one top_k_rows call. A hit is any gold target in the top-k.
    """
    if len(test) == 0:
        raise ValueError("test set is empty")
    tops, _ = top_k_rows(tgt_space, (m.apply(inst.source_vector) for inst in test.instances), k)
    hits = sum(
        any(tgt_space.index(gold) in top for gold in inst.gold_targets)
        for inst, top in zip(test.instances, tops)
    )
    return 100.0 * hits / len(test)


def _paired(xs: list[float], ys: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Both correlations' inputs as float64: equal-length 1-D, at least 2 points."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if len(xs) < 2:
        raise ValueError("correlation undefined under zero variance: fewer than 2 points")
    return xs, ys


def pearson_correlation(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson coefficient; errors on zero variance or non-finite input."""
    xs, ys = _paired(xs, ys)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("correlation undefined for non-finite input")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined under zero variance")
    return float(np.clip(np.sum(dx * dy) / (sx * sy), -1.0, 1.0))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties given the mean of their positions (rankdata "average")."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based position of each distinct value's last copy
    return (last - (counts - 1) / 2.0)[inverse.reshape(-1)]


def spearman_correlation(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (rank-based robustness companion).

    Pearson's r of the average ranks, taken by ``np.corrcoef`` over the two
    rank columns; constant or NaN input has no correlation and raises.
    """
    xs, ys = _paired(xs, ys)
    if np.isnan(xs).any() or np.isnan(ys).any() or (xs == xs[0]).all() or (ys == ys[0]).all():
        raise ValueError("correlation undefined under zero variance")
    ranks = np.column_stack([_average_ranks(xs), _average_ranks(ys)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass(frozen=True)
class ExperimentRow:
    """One report row: data sizes, anchor similarity, accuracies, map stats.

    The fields are the columns of report.tsv, in order; a field's ``tsv``
    metadata is its format spec there.
    """

    anchor_word: str
    train_size: int
    test_size: int
    anchor_cosine: float = field(metadata={"tsv": ".2f"})
    acc_global: float = field(metadata={"tsv": ".1f"})
    acc_reference: float = field(metadata={"tsv": ".1f"})
    acc_local: float = field(metadata={"tsv": ".1f"})
    delta: float = field(metadata={"tsv": ".1f"})
    map_cosine: float = field(metadata={"tsv": ".2f"})
    map_norm: float = field(metadata={"tsv": ".2f"})


TSV_COLUMNS = tuple(f.name for f in fields(ExperimentRow))


@dataclass(frozen=True)
class ExperimentReport:
    """Rows, correlation summaries, skip reasons, fitted maps and map pairs."""

    rows: list[ExperimentRow]
    pearson_simvacc: float | None
    spearman_simvacc: float | None
    skipped: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    local_maps: dict[str, LinearMap] = field(default_factory=dict)
    global_map: LinearMap | None = None
    pairwise_map_cosines: list[tuple[str, str, float, float]] = field(default_factory=list)


def run_experiment(
    anchors: list[str],
    s: float,
    src_space: EmbeddingSpace,
    tgt_space: EmbeddingSpace,
    lexicon: BilingualLexicon,
    train_config: TrainConfig,
    test_size: int,
    seed: int,
    trainer: str = "max_margin",
    lam: float = 0.0,
    eval_k: int = 10,
    min_train: int = 50,
    split_method: str = "random",
) -> ExperimentReport:
    """Train per-anchor local maps plus a global map and report diagnostics.

    The first anchor is the reference: every row compares the local map
    against the reference anchor's map on that row's test set. Each anchor
    in turn is scanned, paired, split and trained. One whose paired training
    data falls below min_train (or cannot be split) is skipped with a
    diagnostic; the reference anchor must be usable, and raises before the
    other anchors are scanned if it is not. The global map trains on the
    union of all usable train sets with every test word excluded. With fewer
    than two usable rows, or degenerate columns, the correlations are
    omitted with a warning.
    """
    _, fit = get_trainer(trainer)
    if eval_k < 1:
        raise ValueError(f"k must be >= 1, got {eval_k}")
    if not anchors:
        raise ValueError("anchors list is empty")
    if len(set(anchors)) != len(anchors):
        raise ValueError("anchor words must be unique")

    skipped: list[tuple[str, str]] = []
    warnings: list[str] = []

    def skip(anchor: str, reason: str) -> None:
        if anchor == anchors[0]:
            raise ValueError(f"reference anchor {anchor!r} unusable: {reason}")
        skipped.append((anchor, reason))

    prepared: dict[str, tuple[TranslationDataset, TranslationDataset]] = {}
    trained: dict[str, LinearMap] = {}
    for index, anchor in enumerate(anchors):
        nb = build_neighborhood(src_space, anchor, s)
        try:
            ds = build_dataset(nb, lexicon, src_space, tgt_space)
        except ValueError as exc:
            skip(anchor, str(exc))
            continue
        if len(ds) <= test_size:
            skip(anchor, f"{len(ds)} usable pairs cannot supply a test split of {test_size}")
            continue
        train, test = split_dataset(ds, test_size, seed=seed, method=split_method)
        if len(train) < min_train:
            skip(anchor, f"train size {len(train)} below floor {min_train}")
            continue
        prepared[anchor] = (train, test)
        seeded = replace(train_config, seed=spawn_seed(seed, "train", index))
        trained[anchor] = fit(train, tgt_space, seeded, lam, anchor)

    all_test_words = set().union(*(test.source_words() for _, test in prepared.values()))
    global_train = union_train_datasets(
        [train for train, _ in prepared.values()], exclude_words=all_test_words
    )
    seeded = replace(train_config, seed=spawn_seed(seed, "train", "global"))
    global_map = fit(global_train, tgt_space, seeded, lam, "global")

    reference = anchors[0]
    ref_map = trained[reference]
    ref_vector = src_space.vector(reference)
    rows: list[ExperimentRow] = []
    for anchor, (train, test) in prepared.items():
        local = trained[anchor]
        acc_global = precision_at_k(global_map, test, tgt_space, eval_k)
        acc_reference = precision_at_k(ref_map, test, tgt_space, eval_k)
        if anchor == reference:
            acc_local = acc_reference
        else:
            acc_local = precision_at_k(local, test, tgt_space, eval_k)
        rows.append(
            ExperimentRow(
                anchor_word=anchor,
                train_size=len(train),
                test_size=len(test),
                anchor_cosine=cosine_similarity(ref_vector, src_space.vector(anchor)),
                acc_global=acc_global,
                acc_reference=acc_reference,
                acc_local=acc_local,
                delta=acc_local - acc_reference,
                map_cosine=matrix_cosine(ref_map.matrix, local.matrix),
                map_norm=frobenius_norm(local.matrix),
            )
        )

    pearson = spearman = None
    if len(rows) < 2:
        warnings.append("fewer than 2 usable rows; correlation omitted")
    else:
        sims = [row.map_cosine for row in rows]
        accs = [row.acc_reference for row in rows]
        try:
            pearson = pearson_correlation(sims, accs)
            spearman = spearman_correlation(sims, accs)
        except ValueError as exc:
            warnings.append(f"correlation omitted: {exc}")

    return ExperimentReport(
        rows=rows,
        pearson_simvacc=pearson,
        spearman_simvacc=spearman,
        skipped=skipped,
        warnings=warnings,
        local_maps=trained,
        global_map=global_map,
        pairwise_map_cosines=[
            (a, b, cosine_similarity(src_space.vector(a), src_space.vector(b)),
             matrix_cosine(trained[a].matrix, trained[b].matrix))
            for a, b in combinations(trained, 2)
        ],
    )


def report_to_tsv(report: ExperimentReport) -> str:
    """Fixed ten-column TSV; accuracies to one decimal, trailing correlations."""
    lines = ["\t".join(TSV_COLUMNS)]
    for row in report.rows:
        lines.append("\t".join(format(getattr(row, f.name), f.metadata.get("tsv", ""))
                               for f in fields(row)))
    pearson = "n/a" if report.pearson_simvacc is None else repr(report.pearson_simvacc)
    spearman = "n/a" if report.spearman_simvacc is None else repr(report.spearman_simvacc)
    lines.append(f"# pearson(map_cosine, acc_reference)\t{pearson}")
    lines.append(f"# spearman(map_cosine, acc_reference)\t{spearman}")
    for anchor, reason in report.skipped:
        lines.append(f"# skipped\t{anchor}\t{reason}")
    return "\n".join(lines) + "\n"


def report_to_records(report: ExperimentReport) -> str:
    """One JSON record per row at full precision, for plotting pipelines."""
    lines = [json.dumps(asdict(row), sort_keys=True) for row in report.rows]
    summary = {
        "pearson_simvacc": report.pearson_simvacc,
        "spearman_simvacc": report.spearman_simvacc,
        "skipped": report.skipped,
        "warnings": report.warnings,
    }
    lines.append(json.dumps({"summary": summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def report_scatter_tsv(report: ExperimentReport) -> str:
    """Two-column scatter data: map cosine vs reference-map accuracy."""
    lines = ["map_cosine\tacc_reference"]
    for row in report.rows:
        lines.append(f"{row.map_cosine!r}\t{row.acc_reference!r}")
    return "\n".join(lines) + "\n"


def pairwise_to_tsv(report: ExperimentReport) -> str:
    """Pairwise (anchor cosine, map cosine) rows for trend plotting."""
    lines = ["anchor_a\tanchor_b\tanchor_cosine\tmap_cosine"]
    for a, b, ac, mc in report.pairwise_map_cosines:
        lines.append(f"{a}\t{b}\t{ac!r}\t{mc!r}")
    return "\n".join(lines) + "\n"
