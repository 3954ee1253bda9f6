import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexmap import mapper
from lexmap.analysis import precision_at_k
from lexmap.embeddings import EmbeddingSpace
from lexmap.lexicon import (
    BilingualLexicon,
    Instance,
    TranslationDataset,
    build_full_dataset,
    split_dataset,
)
from lexmap.mapper import (
    LinearMap,
    TrainConfig,
    _init_matrix,
    hinge_gradient,
    get_trainer,
    hinge_loss,
    load_map,
    orthogonality_penalty,
    save_map,
    squared_distance,
    train_least_squares,
    train_max_margin,
)
from lexmap.seeds import spawn_rng
from lexmap.synth import generate_linear_world, generate_nonlinear_world
from lexmap.translate import AtlasEntry, MapAtlas, dispatch

GAMMA = 0.4


@pytest.fixture(scope="module")
def small_world():
    """Noiseless linear world used by several training tests."""
    world = generate_linear_world(500, 40, seed=0)
    full = build_full_dataset(world.lexicon, world.src_space, world.tgt_space)
    return world, full


class TestSquaredDistance:
    def test_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert squared_distance(v, v) == 0.0

    def test_unit_axes(self):
        assert squared_distance([1, 0], [0, 1]) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v = rng.standard_normal((2, 6))
            assert squared_distance(u, v) == pytest.approx(squared_distance(v, u))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distance([1, 0], [1, 0, 0])


class TestHingeLoss:
    def test_satisfied_margin_is_zero(self):
        """Prediction sits on the gold, negative is far: max(0, 0.4+0-2)=0."""
        W = np.eye(2)
        assert hinge_loss(W, [1, 0], [1, 0], [0, 1], GAMMA) == 0.0

    def test_equal_positive_and_negative_gives_gamma(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert hinge_loss(W, x, y, y, GAMMA) == pytest.approx(GAMMA)

    def test_zero_map_cancels_distances(self):
        W = np.zeros((2, 2))
        assert hinge_loss(W, [0.3, 0.8], [1, 0], [0, 1], GAMMA) == pytest.approx(0.4)

    def test_never_negative_and_zero_condition(self):
        """loss >= 0, and == 0 exactly when d_neg >= d_pos + gamma."""
        rng = np.random.default_rng(2)
        for _ in range(1000):
            W = rng.standard_normal((4, 3))
            x = rng.standard_normal(3)
            y_pos = rng.standard_normal(4)
            y_neg = rng.standard_normal(4)
            loss = hinge_loss(W, x, y_pos, y_neg, GAMMA)
            assert loss >= 0.0
            wx = W @ x
            slack = squared_distance(y_neg, wx) - squared_distance(y_pos, wx) - GAMMA
            assert (loss == 0.0) == (slack >= 0.0)

    def test_gradient_matches_central_differences(self):
        """Analytic vs numeric gradient at strictly active hinge points."""
        rng = np.random.default_rng(42)
        checked = 0
        h = 1e-5
        while checked < 120:
            dt, ds = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            W = rng.standard_normal((dt, ds))
            x = rng.standard_normal(ds)
            y_pos = rng.standard_normal(dt)
            y_neg = rng.standard_normal(dt)
            if hinge_loss(W, x, y_pos, y_neg, GAMMA) <= 1e-3:
                continue
            checked += 1
            analytic = hinge_gradient(W, x, y_pos, y_neg, GAMMA)
            numeric = np.zeros_like(W)
            for i in range(dt):
                for j in range(ds):
                    up, down = W.copy(), W.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    numeric[i, j] = (
                        hinge_loss(up, x, y_pos, y_neg, GAMMA)
                        - hinge_loss(down, x, y_pos, y_neg, GAMMA)
                    ) / (2 * h)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-4

    def test_inactive_gradient_is_zero(self):
        W = np.eye(2)
        grad = hinge_gradient(W, [1, 0], [1, 0], [0, 1], GAMMA)
        assert np.array_equal(grad, np.zeros((2, 2)))


class TestTrainMaxMargin:
    def test_perfect_retrieval_on_noiseless_world(self, small_world):
        """500 exactly-linear pairs: training reaches precision@1 = 100%."""
        world, full = small_world
        fitted = train_max_margin(
            full, world.tgt_space, TrainConfig(seed=0, init="zeros")
        )
        assert precision_at_k(fitted, full, world.tgt_space, 1) == 100.0

    def test_single_pair_converges_below_hundredth_of_margin(self):
        src = EmbeddingSpace(["x"], np.array([[0.0, 1.0]]), normalized=True)
        tgt = EmbeddingSpace(
            ["pos", "n1", "n2"],
            np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]]),
            normalized=True,
        )
        ds = build_full_dataset(BilingualLexicon({"x": ["pos"]}), src, tgt)
        fitted = train_max_margin(ds, tgt, TrainConfig(seed=0, epochs=100))
        assert fitted.loss_history[0] > GAMMA  # the pair started violated
        assert fitted.final_loss < GAMMA / 100

    def test_deterministic_given_seed(self, small_world):
        world, full = small_world
        cfg = TrainConfig(seed=9, epochs=10)
        a = train_max_margin(full, world.tgt_space, cfg)
        b = train_max_margin(full, world.tgt_space, cfg)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.loss_history == b.loss_history

    def test_seed_changes_trajectory(self, small_world):
        world, full = small_world
        a = train_max_margin(full, world.tgt_space, TrainConfig(seed=1, epochs=5))
        b = train_max_margin(full, world.tgt_space, TrainConfig(seed=2, epochs=5))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_loss_tail_non_increasing_within_tolerance(self, small_world):
        world, full = small_world
        fitted = train_max_margin(
            full, world.tgt_space, TrainConfig(seed=0, init="zeros")
        )
        tail = fitted.loss_history[-10:]
        assert all(b <= a + 1e-3 for a, b in zip(tail, tail[1:]))

    def test_ortho_weight_drives_penalty_down(self, small_world):
        world, full = small_world
        plain = train_max_margin(
            full, world.tgt_space, TrainConfig(seed=4, init="zeros", epochs=60)
        )
        constrained = train_max_margin(
            full,
            world.tgt_space,
            TrainConfig(seed=4, init="zeros", epochs=60, ortho_weight=0.5),
        )
        assert orthogonality_penalty(constrained) < 0.1 * orthogonality_penalty(plain)

    def test_non_finite_state_aborts(self, small_world):
        world, full = small_world
        bad = TrainConfig(seed=0, learning_rate=10.0, ortho_weight=10.0, epochs=30)
        with pytest.raises(ArithmeticError, match="non-finite"):
            train_max_margin(full, world.tgt_space, bad)

    @pytest.mark.parametrize(
        "config, rank",
        [
            (TrainConfig(seed=5, epochs=4, negatives=2, init="zeros"), mapper._RANK),
            (TrainConfig(seed=6, epochs=3, learning_rate=0.05, ortho_weight=0.05), mapper._RANK),
            (TrainConfig(seed=5, epochs=4, negatives=2, init="zeros"), 1),
            (TrainConfig(seed=6, epochs=3, learning_rate=0.05, ortho_weight=0.05), 3),
        ],
        ids=["two-negatives", "ortho-weight", "two-negatives-rank-1", "ortho-weight-rank-3"],
    )
    def test_matches_reference_loop_over_hinge_functions(self, small_world, config, rank,
                                                         monkeypatch):
        """A plain SGD loop over hinge_loss and hinge_gradient, drawing from the
        trainer's shuffle and negatives streams, reproduces the trainer's loss
        trajectory and final matrix, so the two compute one loss. Ranks 1 and 3
        fold pending steps mid-epoch and on an epoch's last step."""
        monkeypatch.setattr(mapper, "_RANK", rank)
        world, full = small_world
        train = TranslationDataset(full.instances[:150])
        fitted = train_max_margin(train, world.tgt_space, config)

        X = train.source_matrix()
        Y = train.target_matrix(world.tgt_space)
        m = len(train)
        W = np.eye(X.shape[1]) if config.init == "identity" else np.zeros((Y.shape[1], X.shape[1]))
        lr = config.learning_rate
        history = []
        for epoch in range(config.epochs):
            order = spawn_rng(config.seed, "shuffle", epoch).permutation(m)
            neg_rng = spawn_rng(config.seed, "negatives", epoch)
            total = 0.0
            for i in order:
                grad = np.zeros_like(W)
                for _ in range(config.negatives):
                    j = int(neg_rng.integers(m - 1))
                    j += j >= i
                    total += hinge_loss(W, X[i], Y[i], Y[j], config.gamma)
                    grad += hinge_gradient(W, X[i], Y[i], Y[j], config.gamma)
                W = W - lr * grad
            loss = total / m
            if config.ortho_weight > 0.0:
                loss += config.ortho_weight * orthogonality_penalty(W) ** 2
                W = W - lr * config.ortho_weight * 4.0 * ((W @ W.T - np.eye(len(W))) @ W)
            history.append(loss)
            lr *= config.lr_decay

        assert fitted.loss_history == pytest.approx(history, rel=1e-9)
        assert np.max(np.abs(fitted.matrix - W)) <= 1e-9 * np.max(np.abs(W))

    def test_scaled_random_init_draws_from_the_init_stream(self):
        bound = 1.0 / np.sqrt(5)
        expected = spawn_rng(4, "init").uniform(-bound, bound, size=(3, 5))
        drawn = _init_matrix(TrainConfig(seed=4, init="scaled-random"), 3, 5)
        assert drawn.tobytes() == expected.tobytes()
        assert np.abs(drawn).max() <= bound

    def test_identity_init_of_a_rectangular_map_falls_back_to_scaled_random(self):
        rng = np.random.default_rng(8)
        src = EmbeddingSpace([f"s{i}" for i in range(30)], rng.standard_normal((30, 5)))
        tgt = EmbeddingSpace([f"t{i}" for i in range(30)], rng.standard_normal((30, 3)))
        lexicon = BilingualLexicon({f"s{i}": [f"t{i}"] for i in range(30)})
        train = build_full_dataset(lexicon, src, tgt)
        maps = [train_max_margin(train, tgt, TrainConfig(seed=4, epochs=2, init=init))
                for init in ("identity", "scaled-random")]
        assert maps[0].matrix.shape == (3, 5)
        assert maps[0].matrix.tobytes() == maps[1].matrix.tobytes()

    def test_empty_training_set_rejected(self, small_world):
        world, full = small_world
        with pytest.raises(ValueError, match="empty"):
            train_max_margin(TranslationDataset(()), world.tgt_space, TrainConfig())

    def test_single_instance_whose_gold_covers_the_target_vocabulary_rejected(self):
        tgt = EmbeddingSpace(["x", "y"], np.eye(2))
        train = TranslationDataset((Instance("a", np.array([1.0, 0.0]), ("x", "y")),))
        message = "^cannot sample negatives: target vocabulary has no non-gold word$"
        with pytest.raises(ValueError, match=message):
            train_max_margin(train, tgt, TrainConfig())

    def test_provenance_recorded(self, small_world):
        world, full = small_world
        fitted = train_max_margin(
            full, world.tgt_space, TrainConfig(seed=3, epochs=5), anchor="w00007"
        )
        assert fitted.trainer == "max_margin"
        assert fitted.anchor == "w00007"
        assert fitted.train_size == len(full)
        assert fitted.hyperparams["gamma"] == GAMMA
        assert sorted(fitted.hyperparams) == [
            "epochs", "gamma", "init", "learning_rate", "lr_decay", "negatives",
            "ortho_weight", "seed",
        ]
        assert len(fitted.loss_history) == 5


class TestTrainerRegistry:
    def test_aliases_share_canonical_name_and_fit(self):
        assert get_trainer("maxmargin") == get_trainer("max_margin")
        assert get_trainer("lsq") == get_trainer("least_squares")
        assert get_trainer("maxmargin")[0] == "max_margin"
        assert get_trainer("lsq")[0] == "least_squares"

    def test_fit_matches_direct_trainer_calls(self, small_world):
        world, full = small_world
        config = TrainConfig(seed=3, epochs=3)
        _, fit = get_trainer("maxmargin")
        via_registry = fit(full, world.tgt_space, config, 0.5, "a")
        direct = train_max_margin(full, world.tgt_space, config, anchor="a")
        assert np.array_equal(via_registry.matrix, direct.matrix)
        assert via_registry.hyperparams == direct.hyperparams
        _, fit = get_trainer("lsq")
        via_registry = fit(full, world.tgt_space, config, 1e-3, "a")
        direct = train_least_squares(full, world.tgt_space, lam=1e-3, anchor="a")
        assert np.array_equal(via_registry.matrix, direct.matrix)
        assert via_registry.hyperparams == {"lam": 1e-3}

    def test_unknown_name_lists_accepted_names(self):
        with pytest.raises(ValueError, match="unknown trainer 'sgd'") as info:
            get_trainer("sgd")
        for name in ("max_margin", "maxmargin", "least_squares", "lsq"):
            assert name in str(info.value)


class TestTrainLeastSquares:
    def test_empty_training_set_rejected(self, small_world):
        world, _ = small_world
        with pytest.raises(ValueError, match="^training set is empty$"):
            train_least_squares(TranslationDataset(()), world.tgt_space)

    def test_exact_recovery(self, small_world):
        """Noiseless targets: the generating matrix comes back exactly."""
        world, full = small_world
        fitted = train_least_squares(full, world.tgt_space, lam=0.0)
        assert np.max(np.abs(fitted.matrix - world.ground_truth.matrix)) < 1e-6

    def test_huge_lam_shrinks_solution(self, small_world):
        world, full = small_world
        fitted = train_least_squares(full, world.tgt_space, lam=1e9)
        assert np.max(np.abs(fitted.matrix)) < 1e-3

    @pytest.mark.parametrize("pairs", [None, 25], ids=["n>d", "n<d"])
    def test_gradient_vanishes_at_solution(self, small_world, pairs):
        """2(MX - Y)X^T + 2*lam*M == 0 at the closed-form optimum, from the primal
        solve (500 pairs at d=40) and from the dual one (25 pairs)."""
        world, full = small_world
        full = TranslationDataset(full.instances[:pairs])
        lam = 0.37
        fitted = train_least_squares(full, world.tgt_space, lam=lam)
        X = full.source_matrix().T
        Y = np.vstack(
            [world.tgt_space.vector(i.gold_targets[0]) for i in full.instances]
        ).T
        grad = 2.0 * (fitted.matrix @ X - Y) @ X.T + 2.0 * lam * fitted.matrix
        assert np.max(np.abs(grad)) < 1e-6

    @pytest.mark.parametrize("pairs", [None, 40], ids=["n>d", "n=d"])
    def test_primal_solve_is_kept_bit_for_bit_from_d_pairs_up(self, small_world, pairs):
        """With at least as many pairs as dimensions the map and its loss are the
        bits of the normal system's solve, as before the dual solve existed."""
        world, full = small_world
        full = TranslationDataset(full.instances[:pairs])
        lam = 1e-3
        X = full.source_matrix().T
        Y = full.target_matrix(world.tgt_space).T
        normal = X @ X.T + lam * np.eye(X.shape[0])
        W = np.linalg.solve(normal, X @ Y.T).T
        residual = W @ X - Y
        loss = float(np.sum(residual * residual) + lam * np.sum(W * W))
        fitted = train_least_squares(full, world.tgt_space, lam=lam)
        assert fitted.matrix.tobytes() == np.ascontiguousarray(W).tobytes()
        assert fitted.final_loss == loss

    def test_singular_normal_matrix_advises_positive_lam(self):
        rng = np.random.default_rng(5)
        # fewer pairs than dimensions makes X X^T rank-deficient
        src = EmbeddingSpace(
            ["a", "b"], _unit_rows(rng.standard_normal((2, 6))), normalized=True
        )
        tgt = EmbeddingSpace(
            ["ta", "tb"], _unit_rows(rng.standard_normal((2, 6))), normalized=True
        )
        ds = build_full_dataset(BilingualLexicon({"a": ["ta"], "b": ["tb"]}), src, tgt)
        with pytest.raises(np.linalg.LinAlgError, match="positive lam"):
            train_least_squares(ds, tgt, lam=0.0)
        train_least_squares(ds, tgt, lam=1e-3)  # regularized path succeeds

    def test_agreement_with_max_margin_at_retrieval_level(self):
        """Both trainers reach test precision@1 = 100% on one clean world."""
        world = generate_linear_world(600, 40, seed=4)
        full = build_full_dataset(world.lexicon, world.src_space, world.tgt_space)
        train, test = split_dataset(full, 150, seed=4)
        lsq = train_least_squares(train, world.tgt_space, lam=0.0)
        mm = train_max_margin(
            train,
            world.tgt_space,
            TrainConfig(seed=4, init="zeros", negatives=4, epochs=100),
        )
        assert precision_at_k(lsq, test, world.tgt_space, 1) == 100.0
        assert precision_at_k(mm, test, world.tgt_space, 1) == 100.0


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 12),
    shape=st.sampled_from(["n<d", "n=d", "n>d"]),
    extra=st.integers(1, 8),
    d_tgt=st.integers(1, 8),
    lam=st.sampled_from([1e-3, 0.1, 1.0, 37.0]),
    scale=st.sampled_from([0.01, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_equals_the_primal_ridge_solve(d, shape, extra, d_tgt, lam, scale, seed):
    """Fewer pairs than dimensions take the n x n dual solve, the others the d x d
    primal one; either way the map and final_loss are numpy's primal ridge fit's. The
    scales keep the primal matrix's condition number below about 5e5, so that the
    reference itself is good to about 1e-10."""
    n = {"n<d": max(1, d - extra), "n=d": d, "n>d": d + extra}[shape]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * scale
    Y = rng.standard_normal((n, d_tgt))
    fitted = train_least_squares(*_pairs(X, Y), lam=lam)
    ref = np.linalg.solve(X.T @ X + lam * np.eye(d), X.T @ Y).T
    ref_loss = np.sum((X @ ref.T - Y) ** 2) + lam * np.sum(ref**2)
    assert np.max(np.abs(fitted.matrix - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert fitted.final_loss == pytest.approx(ref_loss, rel=1e-9)


def _pairs(X, Y) -> tuple[TranslationDataset, EmbeddingSpace]:
    """The dataset pairing row i of X with target t{i}, row i of Y, and the target space."""
    X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)
    tgt = EmbeddingSpace([f"t{i}" for i in range(len(Y))], Y)
    return TranslationDataset(tuple(Instance(f"s{i}", x, (f"t{i}",)) for i, x in enumerate(X))), tgt


@st.composite
def _fewer_pairs_than_dimensions(draw):
    """Rows X (n x d, 1 <= n < d <= 12) and Y (n x d_tgt), zero and subnormal entries included."""
    d = draw(st.integers(2, 12))
    n = draw(st.integers(1, d - 1))
    entries = st.floats(-1e3, 1e3, allow_nan=False)

    def rows(width):
        return st.lists(st.lists(entries, min_size=width, max_size=width), min_size=n, max_size=n)

    return draw(rows(d)), draw(rows(draw(st.integers(1, 4))))


@settings(max_examples=150, deadline=None)
@given(pairs=_fewer_pairs_than_dimensions())
@example(pairs=([[0.7, 0.1]], [[1.0, 2.0]]))  # its d x d Cholesky once factored, by rounding
def test_zero_lam_on_fewer_pairs_than_dimensions_always_raises(pairs):
    """X X^T has rank at most n < d, so lam = 0 raises on every input, whatever rounding
    would make of a factorization."""
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^X X\^T is singular; pass a positive lam to regularize$"):
        train_least_squares(*_pairs(*pairs), lam=0.0)


def test_a_tiny_positive_lam_on_fewer_pairs_than_dimensions_is_decided_by_the_dual_system():
    """One pair at d=2 and lam = 1e-20, below the rounding of X X^T: the 1 x 1 dual
    system x^T x + lam factors, and the map is y x^T / (x^T x + lam) to a few ulps."""
    x, y, lam = np.array([0.6, 0.8]), np.array([1.0, 2.0]), 1e-20
    fitted = train_least_squares(*_pairs([x], [y]), lam=lam)
    expected = np.outer(y, x) / (x @ x + lam)
    assert np.all(np.abs(fitted.matrix - expected) <= 4 * np.spacing(np.abs(expected)))


@pytest.mark.parametrize("n, d", [(1, 2), (3, 8), (7, 40)])
def test_a_fit_on_fewer_pairs_than_dimensions_factors_only_an_n_by_n_matrix(monkeypatch, n, d):
    factored = []
    cholesky = np.linalg.cholesky

    def spy(a):
        factored.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    rng = np.random.default_rng(n * d)
    train_least_squares(*_pairs(rng.standard_normal((n, d)), rng.standard_normal((n, 3))), lam=0.1)
    assert factored == [(n, n)]


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(0, mapper._RANK),
    d_tgt=st.integers(1, 40),
    d_src=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_fold_is_within_the_rounding_bound_of_the_exact_update(p, d_tgt, d_src, seed):
    """Each entry of W - U^T V lies within gamma_{p+1} (|W| + sum_k |u_k v_k|) of
    the exact value, the classic bound for a sum of p products and one more
    term. The entries of U and V keep 26 significant bits, so every product
    u_k v_k is exact, and math.fsum sums each entry's error exactly and rounds
    it once. With no pending row, W keeps its bytes."""
    if d_tgt == d_src:
        d_src += 1  # a transposed operand would show
    rng = np.random.default_rng(seed)

    def exact_factors(shape):
        return rng.integers(-(2**26) + 1, 2**26, shape) * 2.0 ** rng.integers(-60, 20, shape)

    U, V = exact_factors((p, d_tgt)), exact_factors((p, d_src))
    W = rng.standard_normal((d_tgt, d_src)) * 2.0 ** rng.integers(-30, 30, (d_tgt, d_src))
    folded = W.copy()
    mapper._fold(folded, U, V)
    if p == 0:
        assert folded.tobytes() == W.tobytes()
    products = U[:, :, None] * V[:, None, :]
    terms = np.concatenate([folded[None], -W[None], products]).reshape(p + 2, -1).T
    error = np.array([math.fsum(row) for row in terms.tolist()]).reshape(W.shape)
    u = 2.0**-53
    gamma = (p + 1) * u / (1 - (p + 1) * u)
    assert np.all(np.abs(error) <= gamma * (np.abs(W) + np.abs(products).sum(axis=0)))


class TestOrthogonalityPenalty:
    def test_identity_is_zero(self):
        assert orthogonality_penalty(np.eye(5)) == 0.0

    def test_rotation_is_zero(self):
        theta = 0.83
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert orthogonality_penalty(rot) < 1e-9

    def test_diagonal_example(self):
        assert orthogonality_penalty(np.diag([2.0, 1.0])) == pytest.approx(3.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            orthogonality_penalty(np.ones((2, 3)))


class TestMapSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        fitted = LinearMap(
            rng.standard_normal((7, 5)) * 10 ** rng.uniform(-8, 8),
            trainer="max_margin",
            anchor="anchor_word",
            hyperparams={"gamma": 0.4, "seed": 3},
            train_size=123,
            final_loss=0.0125,
        )
        save_map(fitted, tmp_path / "m.txt")
        back = load_map(tmp_path / "m.txt")
        assert np.array_equal(back.matrix, fitted.matrix)  # stronger than 1e-12
        assert back.trainer == "max_margin"
        assert back.anchor == "anchor_word"
        assert back.train_size == 123
        assert back.final_loss == pytest.approx(0.0125)

    @pytest.mark.parametrize("trainer", ["lsq", "maxmargin"])
    def test_load_then_save_keeps_bytes(self, small_world, tmp_path, trainer):
        """Hyperparameters used to load as repr strings, so each save quoted them again."""
        world, full = small_world
        _, fit = get_trainer(trainer)
        fitted = fit(full, world.tgt_space, TrainConfig(seed=1, epochs=2), 1e-6, "w00003")
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_map(fitted, first)
        loaded = load_map(first)
        assert loaded.hyperparams == fitted.hyperparams
        save_map(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_non_finite_hyperparameters_keep_their_bytes(self, tmp_path):
        """nan, inf and -inf used to load as text, so a second save quoted them."""
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        hyperparams = {"lam": math.nan, "high": math.inf, "low": -math.inf}
        save_map(LinearMap(np.eye(2), hyperparams=hyperparams), first)
        loaded = load_map(first)
        assert {k: repr(v) for k, v in loaded.hyperparams.items()} == {
            "lam": "nan", "high": "inf", "low": "-inf"}
        save_map(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_non_literal_metadata_kept_as_text(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n# note=two words\n# seed=3\n1.0\n", encoding="utf-8")
        assert load_map(path).hyperparams == {"note": "two words", "seed": 3}

    def test_header_and_comment_layout(self, tmp_path):
        fitted = LinearMap(np.eye(2), trainer="least_squares")
        save_map(fitted, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert lines[0] == "2 2"
        assert lines[1].startswith("# ")
        assert lines[-1] == "0.0 1.0"

    def test_blank_body_lines_skipped(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n# trainer=t\n\n1.0 0.0\n  \n0.0 1.0\n\n", encoding="utf-8")
        assert load_map(path).matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_shape_mismatch_detected(self, tmp_path):
        (tmp_path / "m.txt").write_text("2 2\n1.0 0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="shape"):
            load_map(tmp_path / "m.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_map(tmp_path / "none.txt")

    @pytest.mark.parametrize("body", ["1.0 x\n0.0 1.0\n", "1.0 0.0\n1.0\n", "1.0 0.0\n"])
    def test_bad_body_named(self, tmp_path, body):
        """A non-numeric entry and a short row used to fail naming no file."""
        path = tmp_path / "m.txt"
        path.write_text(f"2 2\n# trainer=t\n{body}", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad map body in {re.escape(str(path))}: "):
            load_map(path)

    @pytest.mark.parametrize("header", ["x y", "2", "2 2 2", "0 2", "2 -2", "2 2.0", ""])
    def test_bad_header_named(self, tmp_path, header):
        """A non-integer header used to fail with a bare int() error naming no file."""
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n1.0 0.0\n0.0 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad map header in {re.escape(str(path))}"):
            load_map(path)

    @pytest.mark.parametrize("meta", ["train_size=x", "final_loss=abc"])
    def test_bad_metadata_named(self, tmp_path, meta):
        """A non-numeric train_size or final_loss used to fail naming no file."""
        path = tmp_path / "m.txt"
        path.write_text(f"2 2\n# {meta}\n1.0 0.0\n0.0 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad map metadata in {re.escape(str(path))}: "):
            load_map(path)


class TestLinearMapType:
    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ValueError, match="^map matrix must be 2-D$"):
            LinearMap(np.ones(3))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LinearMap(np.array([[1.0, np.nan]]))

    def test_apply_checks_dimension(self):
        m = LinearMap(np.eye(3))
        with pytest.raises(ValueError):
            m.apply(np.ones(2))

    def test_matrix_read_only(self):
        m = LinearMap(np.eye(2))
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 2.0


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"negatives": 0},
            {"epochs": 0},
            {"learning_rate": -1.0},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"init": "bogus"},
            {"ortho_weight": -0.1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.gamma == 0.4
        assert cfg.negatives == 1
        assert cfg.ortho_weight == 0.0


def _atlas_dispatch(floor):
    entry = AtlasEntry("a", np.array([1.0, 0.0]), LinearMap(np.eye(2)))
    return dispatch(MapAtlas((entry,), fallback=LinearMap(np.eye(2))), [np.ones(2)], floor)


# each range check that NaN passed when it was written as x < 0 or x <= 0, or inf as
# x > 0, and each value it must now reject, naming the parameter
NON_FINITE = [
    *[(name, lambda v, name=name: TrainConfig(**{name: v}), v)
      for name in ["gamma", "learning_rate", "ortho_weight"]
      for v in [math.nan, math.inf, -math.inf]],
    *[("lam", lambda v: train_least_squares(*_pairs([[1.0, 0.0]], [[1.0]]), lam=v), v)
      for v in [math.nan, math.inf, -math.inf]],
    *[(name, lambda v, name=name: generate_nonlinear_world(50, 12, n_clusters=4, **{name: v}), v)
      for name in ["noise_sigma", "variation_strength", "cluster_std"]
      for v in [math.nan, math.inf, -math.inf]],
    ("floor", _atlas_dispatch, math.nan),
]


@pytest.mark.parametrize("name, call, value", NON_FINITE,
                         ids=[f"{name}={value}" for name, _, value in NON_FINITE])
def test_nan_and_out_of_range_infinities_are_rejected_by_name(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$"):
        call(value)


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)
