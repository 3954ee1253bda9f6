"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria over randomized inputs use fixed seeds, so outcomes are
reproducible. The real-data trend criterion only runs when embedding and
lexicon paths are supplied through environment variables (the snapshots it
needs are not distributable); it reports SKIP otherwise.
"""

import math
import os
import time

import numpy as np
import pytest

from lexmap.analysis import (
    frobenius_norm,
    matrix_cosine,
    precision_at_k,
    run_experiment,
    spearman_correlation,
)
from lexmap.embeddings import load_embeddings
from lexmap.lexicon import BilingualLexicon, build_full_dataset, load_lexicon, split_dataset
from lexmap.mapper import (
    LinearMap,
    TrainConfig,
    hinge_gradient,
    hinge_loss,
    squared_distance,
    train_least_squares,
    train_max_margin,
)
from lexmap.neighborhoods import build_neighborhood
from lexmap.synth import default_anchor_words, generate_linear_world, generate_nonlinear_world

from conftest import random_space


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _flag(num, detail):
    print(f"[criterion {num}] FLAG - {detail}")


def test_criterion_1_algebraic_suite():
    """Randomized algebraic properties, >= 1000 cases each, under a minute."""
    started = time.time()
    rng = np.random.default_rng(1001)

    for _ in range(1000):  # matrix cosine: bound, symmetry, scale-sign invariance
        m1 = rng.standard_normal((4, 6))
        m2 = rng.standard_normal((4, 6))
        a = float(rng.uniform(-20, 20)) or 1.0
        b = float(rng.uniform(-20, 20)) or 1.0
        c = matrix_cosine(m1, m2)
        assert abs(c) <= 1.0 + 1e-12
        assert c == matrix_cosine(m2, m1)
        assert abs(matrix_cosine(a * m1, b * m2) - math.copysign(1.0, a * b) * c) < 1e-9

    for _ in range(1000):  # Frobenius norm squared == trace form
        m = rng.standard_normal((5, 3)) * 10 ** rng.uniform(-3, 3)
        n2 = frobenius_norm(m) ** 2
        tr = float(np.trace(m.T @ m))
        assert abs(n2 - tr) <= 1e-9 * abs(tr)

    checked = 0  # neighborhood nesting over random spaces and threshold pairs
    while checked < 1000:
        space = random_space(rng, int(rng.integers(5, 40)), int(rng.integers(2, 6)))
        anchor = space.words[int(rng.integers(len(space)))]
        for _ in range(10):
            s_high, s_low = sorted(rng.uniform(-1, 1, size=2), reverse=True)
            high = set(build_neighborhood(space, anchor, s_high).member_words())
            low = set(build_neighborhood(space, anchor, s_low).member_words())
            assert high <= low
            checked += 1

    checked = 0  # precision@k monotone in k
    while checked < 1000:
        n = 12
        src = random_space(rng, n, 3, tag="s")
        tgt = random_space(rng, n, 3, tag="t")
        lex = BilingualLexicon({f"s{i}": [f"t{int(rng.integers(n))}"] for i in range(n)})
        ds = build_full_dataset(lex, src, tgt)
        m = LinearMap(rng.standard_normal((3, 3)))
        values = [precision_at_k(m, ds, tgt, k) for k in range(1, n + 1)]
        for a, b in zip(values, values[1:]):
            assert a <= b
            checked += 1

    for _ in range(1000):  # hinge loss non-negative, zero iff margin satisfied
        W = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        y_pos = rng.standard_normal(4)
        y_neg = rng.standard_normal(4)
        loss = hinge_loss(W, x, y_pos, y_neg, 0.4)
        assert loss >= 0.0
        wx = W @ x
        slack = squared_distance(y_neg, wx) - squared_distance(y_pos, wx) - 0.4
        assert (loss == 0.0) == (slack >= 0.0)

    elapsed = time.time() - started
    _report(1, elapsed < 60.0, f"5 property families x >=1000 cases in {elapsed:.1f}s")


def test_criterion_2_gradient_check():
    """Analytic hinge gradient vs central differences at active points."""
    rng = np.random.default_rng(2002)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 100:
        dt, ds = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        W = rng.standard_normal((dt, ds))
        x = rng.standard_normal(ds)
        y_pos = rng.standard_normal(dt)
        y_neg = rng.standard_normal(dt)
        if hinge_loss(W, x, y_pos, y_neg, 0.4) <= 1e-3:
            continue
        checked += 1
        analytic = hinge_gradient(W, x, y_pos, y_neg, 0.4)
        numeric = np.zeros_like(W)
        for i in range(dt):
            for j in range(ds):
                up, down = W.copy(), W.copy()
                up[i, j] += h
                down[i, j] -= h
                numeric[i, j] = (
                    hinge_loss(up, x, y_pos, y_neg, 0.4)
                    - hinge_loss(down, x, y_pos, y_neg, 0.4)
                ) / (2 * h)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - numeric)) / scale))
    _report(2, worst < 1e-4, f"{checked} active points, max relative error {worst:.2e}")


def test_criterion_3_exact_recovery_oracle():
    """Noiseless linear world (n=2000, d=50): lsq recovery + perfect ranking."""
    started = time.time()
    world = generate_linear_world(2000, 50, seed=0)
    full = build_full_dataset(world.lexicon, world.src_space, world.tgt_space)
    train, test = split_dataset(full, 500, seed=0)

    lsq = train_least_squares(train, world.tgt_space, lam=0.0)
    recovery_err = float(np.max(np.abs(lsq.matrix - world.ground_truth.matrix)))

    config = TrainConfig(seed=0, init="zeros", negatives=4, epochs=100)
    mm = train_max_margin(train, world.tgt_space, config)
    p1 = precision_at_k(mm, test, world.tgt_space, 1)

    elapsed = time.time() - started
    ok = recovery_err < 1e-5 and p1 == 100.0 and elapsed < 120.0
    _report(
        3,
        ok,
        f"lsq max-entry error {recovery_err:.2e}, ranking precision@1 {p1:.1f}%, {elapsed:.0f}s",
    )


def test_criterion_4_locality_discrimination():
    """Local-map similarity separates linear from smoothly varying worlds."""
    started = time.time()
    config = TrainConfig(seed=0)
    linear_mins = []
    nonlinear_mins = []
    nonlinear_rhos = []
    for seed in range(10):
        linear = generate_linear_world(3000, 20, seed=seed, cluster_std=0.2)
        report = run_experiment(
            default_anchor_words(linear), 0.5, linear.src_space, linear.tgt_space,
            linear.lexicon, config, test_size=100, seed=seed, trainer="least_squares", lam=1e-6,
        )
        linear_mins.append(min(mc for *_, mc in report.pairwise_map_cosines))

        rotating = generate_nonlinear_world(
            3000, 20, seed=seed, variation_strength=2.0, cluster_std=0.2
        )
        report = run_experiment(
            default_anchor_words(rotating), 0.5, rotating.src_space, rotating.tgt_space,
            rotating.lexicon, config, test_size=100, seed=seed, trainer="least_squares", lam=1e-6,
        )
        nonlinear_mins.append(min(mc for *_, mc in report.pairwise_map_cosines))
        nonlinear_rhos.append(
            spearman_correlation(
                [r.anchor_cosine for r in report.rows],
                [r.map_cosine for r in report.rows],
            )
        )

    elapsed = time.time() - started
    linear_ok = all(m >= 0.95 for m in linear_mins)
    nonlinear_ok = all(m < 0.9 for m in nonlinear_mins) and all(
        r >= 0.8 for r in nonlinear_rhos
    )
    median_gap = float(np.median(linear_mins)) > float(np.median(nonlinear_mins))
    ok = linear_ok and nonlinear_ok and median_gap and elapsed < 600.0
    _report(
        4,
        ok,
        "10 seeds: linear min map-cos "
        f"{min(linear_mins):.3f} (>=0.95), nonlinear min map-cos "
        f"{max(nonlinear_mins):.3f} (<0.9), Spearman >= {min(nonlinear_rhos):.3f} "
        f"(>=0.8), {elapsed:.0f}s",
    )


def test_criterion_5_self_row_invariants():
    """Reference-anchor row reports delta 0 and map cosine 1 exactly."""
    world = generate_linear_world(2500, 16, seed=5, cluster_std=0.2)
    anchors = default_anchor_words(world)[:3]
    report = run_experiment(
        anchors, 0.5, world.src_space, world.tgt_space, world.lexicon,
        TrainConfig(seed=5), test_size=80, seed=5,
        trainer="least_squares", lam=1e-6,
    )
    row = report.rows[0]
    ok = row.delta == 0.0 and row.map_cosine == 1.0
    _report(5, ok, f"reference row delta={row.delta}, map_cosine={row.map_cosine}")


def test_criterion_6_norm_sanity():
    """300x300 identity norm; trained real-data map norms are informational."""
    norm = frobenius_norm(np.eye(300))
    ok = abs(norm - math.sqrt(300)) < 1e-3
    _report(6, ok, f"frobenius_norm(I_300) = {norm:.4f} vs sqrt(300) = {math.sqrt(300):.4f}")

    maps_dir = os.environ.get("LEXMAP_REAL_MAPS")
    if not maps_dir:
        _flag(6, "trained-map norm range (25-45 +/-50%) not checked: no real-data maps supplied")
        return
    from pathlib import Path

    from lexmap.mapper import load_map

    for path in sorted(Path(maps_dir).glob("*.txt")):
        n = frobenius_norm(load_map(path).matrix)
        inside = 12.5 <= n <= 67.5
        _flag(6, f"{path.name}: norm {n:.2f} {'inside' if inside else 'OUTSIDE'} 25-45 +/-50%")


@pytest.mark.skipif(
    not all(
        os.environ.get(k)
        for k in ("LEXMAP_REAL_SRC_EMB", "LEXMAP_REAL_TGT_EMB", "LEXMAP_REAL_LEXICON")
    ),
    reason="real-data trend check needs LEXMAP_REAL_SRC_EMB / LEXMAP_REAL_TGT_EMB / "
    "LEXMAP_REAL_LEXICON (public embedding + lexicon snapshots are not bundled)",
)
def test_criterion_7_real_data_trends():
    """Distant neighborhoods favor local maps; reference accuracy decays."""
    anchors = os.environ.get(
        "LEXMAP_REAL_ANCHORS",
        "clotting,heparin,inflammation,metabolites,hydroxides,giovannini,gerardo",
    ).split(",")
    limit = int(os.environ.get("LEXMAP_REAL_LIMIT", "200000"))
    src = load_embeddings(os.environ["LEXMAP_REAL_SRC_EMB"], limit=limit)
    tgt = load_embeddings(os.environ["LEXMAP_REAL_TGT_EMB"], limit=limit)
    lexicon = load_lexicon(os.environ["LEXMAP_REAL_LEXICON"])

    report = run_experiment(
        anchors, 0.5, src, tgt, lexicon, TrainConfig(seed=0, init="zeros"),
        test_size=300, seed=0, trainer="max_margin", eval_k=10,
    )
    for row in report.rows:
        print(
            f"[criterion 7] info - {row.anchor_word}: anchor_cos {row.anchor_cosine:.2f} "
            f"acc_global {row.acc_global:.1f} acc_reference {row.acc_reference:.1f} "
            f"acc_local {row.acc_local:.1f}"
        )
    distant = [r for r in report.rows if r.anchor_cosine < 0.3]
    gap_ok = all(r.acc_local - r.acc_reference >= 10.0 for r in distant)
    rho = spearman_correlation(
        [r.anchor_cosine for r in report.rows],
        [r.acc_reference for r in report.rows],
    )
    ok = bool(distant) and gap_ok and rho >= 0.7
    _report(
        7,
        ok,
        f"{len(distant)} distant anchors all gain >=10 points: {gap_ok}; "
        f"Spearman(anchor_cos, acc_reference) = {rho:.2f}",
    )
