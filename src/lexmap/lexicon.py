"""Bilingual dictionaries and paired translation datasets.

Lexicon files follow the common one-pair-per-line convention: source and
target token separated by spaces or tabs. A source token may map to several
gold targets across lines; evaluation later counts a hit when any of them
is retrieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSpace
from .neighborhoods import Neighborhood
from .seeds import spawn_rng


@dataclass
class BilingualLexicon:
    """Multimap from source token to its ordered set of gold targets."""

    pairs: dict[str, list[str]]
    line_count: int = 0
    dedup_count: int = 0
    skipped_count: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, source: str) -> bool:
        return source in self.pairs

    def targets(self, source: str) -> list[str]:
        return self.pairs.get(source, [])


@dataclass(frozen=True)
class Instance:
    """One translation item: source word, its vector, non-empty gold set."""

    source_word: str
    source_vector: np.ndarray
    gold_targets: tuple[str, ...]


@dataclass(frozen=True)
class TranslationDataset:
    """Paired instances and their provenance.

    Provenance names the originating neighborhood as "anchor@s" or is
    "global" for merged data. Source words are unique within a dataset.
    """

    instances: tuple[Instance, ...]
    provenance: str = "global"
    drop_stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        words = [inst.source_word for inst in self.instances]
        if len(set(words)) != len(words):
            raise ValueError("dataset source words must be unique")
        dims = {inst.source_vector.shape for inst in self.instances}
        if len(dims) > 1:
            raise ValueError(f"dataset source vectors disagree on dimension: {sorted(dims)}")
        for inst in self.instances:
            if not inst.gold_targets:
                raise ValueError(f"instance {inst.source_word!r} has an empty gold set")

    def __len__(self) -> int:
        return len(self.instances)

    def source_words(self) -> set[str]:
        return {inst.source_word for inst in self.instances}

    def source_matrix(self) -> np.ndarray:
        """The instances' source vectors as rows, in one copy."""
        if not self.instances:
            raise ValueError("need at least one array to concatenate")  # as np.vstack([])
        return np.array([inst.source_vector for inst in self.instances])

    def target_matrix(self, tgt_space: EmbeddingSpace) -> np.ndarray:
        """Each instance's first gold target vector: the training target."""
        if not self.instances:
            raise ValueError("need at least one array to concatenate")  # as np.vstack([])
        return tgt_space.vectors[[tgt_space.index(inst.gold_targets[0]) for inst in self.instances]]


def load_lexicon(path: str | Path) -> BilingualLexicon:
    """Read a pair file, fields separated by spaces or tabs, into a multimap.

    Repeated identical (source, target) lines are deduplicated and lines
    without exactly two fields skipped, both counted on the lexicon. Other
    whitespace, such as U+00A0 or U+2028, stays in a token, as in a .vec.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"lexicon file not found: {path}")

    pairs: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()
    lines = dedup = skipped = 0
    with path.open("r", encoding="utf-8-sig") as fh:  # a byte order mark is no token
        for line in fh:
            fields = [f for f in line.rstrip("\n").replace("\t", " ").split(" ") if f]
            if not fields:
                continue
            lines += 1
            if len(fields) != 2:
                skipped += 1
                continue
            src, tgt = fields
            if (src, tgt) in seen:
                dedup += 1
                continue
            seen.add((src, tgt))
            pairs.setdefault(src, []).append(tgt)

    return BilingualLexicon(pairs, line_count=lines, dedup_count=dedup, skipped_count=skipped)


def _pair(
    words: list[str],
    lexicon: BilingualLexicon,
    src_space: EmbeddingSpace,
    tgt_space: EmbeddingSpace,
) -> tuple[list[Instance], int, int]:
    """Instances of the words that have an in-vocabulary gold target, in word order.

    Gold sets are filtered to in-vocabulary targets, preserving lexicon
    order (the first surviving target is the training target downstream).
    Also returns how many words were dropped for having no lexicon entry
    and for having no gold target in the target space.
    """
    instances: list[Instance] = []
    no_lexicon = no_target = 0
    for word in words:
        targets = lexicon.targets(word)
        in_vocab = tuple(t for t in targets if t in tgt_space)
        if in_vocab:
            instances.append(Instance(word, src_space.vector(word), in_vocab))
        elif targets:
            no_target += 1
        else:
            no_lexicon += 1
    return instances, no_lexicon, no_target


def build_dataset(
    neighborhood: Neighborhood,
    lexicon: BilingualLexicon,
    src_space: EmbeddingSpace,
    tgt_space: EmbeddingSpace,
) -> TranslationDataset:
    """Pair neighborhood members with their in-vocabulary gold targets.

    Members missing from the lexicon, or whose every gold target is absent
    from the target space, are dropped and counted in ``drop_stats``.
    """
    instances, no_lexicon, no_target = _pair(
        neighborhood.member_words(), lexicon, src_space, tgt_space
    )
    stats = {
        "members": len(neighborhood),
        "kept": len(instances),
        "dropped_no_lexicon": no_lexicon,
        "dropped_no_target": no_target,
    }
    if not instances:
        raise ValueError(
            f"no usable pairs for neighborhood {neighborhood.anchor_word!r} "
            f"(s={neighborhood.threshold_s}): {stats}"
        )
    provenance = f"{neighborhood.anchor_word}@{neighborhood.threshold_s}"
    return TranslationDataset(tuple(instances), provenance=provenance, drop_stats=stats)


def build_full_dataset(
    lexicon: BilingualLexicon,
    src_space: EmbeddingSpace,
    tgt_space: EmbeddingSpace,
) -> TranslationDataset:
    """Pair every lexicon entry covered by both spaces (no neighborhood)."""
    covered = [src for src in lexicon.pairs if src in src_space]
    instances = _pair(covered, lexicon, src_space, tgt_space)[0]
    if not instances:
        raise ValueError("no lexicon pair is covered by both embedding spaces")
    return TranslationDataset(tuple(instances), provenance="global")


def split_dataset(
    ds: TranslationDataset,
    test_count: int,
    seed: int,
    method: str = "random",
) -> tuple[TranslationDataset, TranslationDataset]:
    """Partition a dataset into (train, test), deterministic given the seed.

    "random" samples the test set uniformly without replacement. "frequency"
    instead takes the first test_count instances in dataset order: for a
    neighborhood (``build_dataset``), the members nearest the anchor, not the
    most frequent words. It exists to probe sensitivity to the sampling policy.
    """
    n = len(ds.instances)
    if not 0 < test_count < n:
        raise ValueError(f"test_count must be in (0, {n}), got {test_count}")
    if method == "random":
        rng = spawn_rng(seed, "split", ds.provenance)
        test_idx = set(rng.choice(n, size=test_count, replace=False).tolist())
    elif method == "frequency":
        test_idx = set(range(test_count))
    else:
        raise ValueError(f"unknown split method: {method!r}")

    train = tuple(inst for i, inst in enumerate(ds.instances) if i not in test_idx)
    test = tuple(inst for i, inst in enumerate(ds.instances) if i in test_idx)
    return (
        TranslationDataset(train, provenance=ds.provenance),
        TranslationDataset(test, provenance=ds.provenance),
    )


def union_train_datasets(
    datasets: list[TranslationDataset],
    exclude_words: set[str] | None = None,
) -> TranslationDataset:
    """Deduplicated union of train sets for fitting one global map.

    Source words in ``exclude_words`` (typically every word appearing in any
    test split) are left out so the merged data leaks nothing into the
    evaluations it will be compared on. The first occurrence of a repeated
    source word wins.
    """
    exclude = exclude_words or set()
    merged: list[Instance] = []
    seen: set[str] = set()
    excluded = 0
    for ds in datasets:
        for inst in ds.instances:
            if inst.source_word in seen:
                continue
            if inst.source_word in exclude:
                excluded += 1
                seen.add(inst.source_word)
                continue
            seen.add(inst.source_word)
            merged.append(inst)
    if not merged:
        raise ValueError("global training union is empty after exclusions")
    stats = {"kept": len(merged), "excluded_test_words": excluded}
    return TranslationDataset(tuple(merged), provenance="global", drop_stats=stats)

