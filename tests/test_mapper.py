import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lexmap.analysis import precision_at_k
from lexmap.embeddings import EmbeddingSpace
from lexmap.lexicon import BilingualLexicon, build_full_dataset, split_dataset
from lexmap.mapper import (
    LinearMap,
    TrainConfig,
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
from lexmap.synth import generate_linear_world

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
        src = EmbeddingSpace("s", ["x"], np.array([[0.0, 1.0]]), normalized=True)
        tgt = EmbeddingSpace(
            "t",
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

    def test_empty_training_set_rejected(self, small_world):
        world, full = small_world
        from lexmap.lexicon import TranslationDataset

        with pytest.raises(ValueError, match="empty"):
            train_max_margin(TranslationDataset(()), world.tgt_space, TrainConfig())

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
    def test_exact_recovery(self, small_world):
        """Noiseless targets: the generating matrix comes back exactly."""
        world, full = small_world
        fitted = train_least_squares(full, world.tgt_space, lam=0.0)
        assert np.max(np.abs(fitted.matrix - world.ground_truth.matrix)) < 1e-6

    def test_huge_lam_shrinks_solution(self, small_world):
        world, full = small_world
        fitted = train_least_squares(full, world.tgt_space, lam=1e9)
        assert np.max(np.abs(fitted.matrix)) < 1e-3

    def test_gradient_vanishes_at_solution(self, small_world):
        """2(MX - Y)X^T + 2*lam*M == 0 at the closed-form optimum."""
        world, full = small_world
        lam = 0.37
        fitted = train_least_squares(full, world.tgt_space, lam=lam)
        X = full.source_matrix().T
        Y = np.vstack(
            [world.tgt_space.vector(i.gold_targets[0]) for i in full.instances]
        ).T
        grad = 2.0 * (fitted.matrix @ X - Y) @ X.T + 2.0 * lam * fitted.matrix
        assert np.max(np.abs(grad)) < 1e-6

    def test_singular_normal_matrix_advises_positive_lam(self):
        rng = np.random.default_rng(5)
        # fewer pairs than dimensions makes X X^T rank-deficient
        src = EmbeddingSpace(
            "s", ["a", "b"], _unit_rows(rng.standard_normal((2, 6))), normalized=True
        )
        tgt = EmbeddingSpace(
            "t", ["ta", "tb"], _unit_rows(rng.standard_normal((2, 6))), normalized=True
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

    def test_header_and_comment_layout(self, tmp_path):
        fitted = LinearMap(np.eye(2), trainer="least_squares")
        save_map(fitted, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert lines[0] == "2 2"
        assert lines[1].startswith("# ")
        assert lines[-1] == "0.0 1.0"

    def test_shape_mismatch_detected(self, tmp_path):
        (tmp_path / "m.txt").write_text("2 2\n1.0 0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="shape"):
            load_map(tmp_path / "m.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_map(tmp_path / "none.txt")

    @pytest.mark.parametrize("header", ["x y", "2", "2 2 2", "0 2", "2 -2", "2 2.0", ""])
    def test_bad_header_named(self, tmp_path, header):
        """A non-integer header used to fail with a bare int() error naming no file."""
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n1.0 0.0\n0.0 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad map header in {re.escape(str(path))}"):
            load_map(path)


class TestLinearMapType:
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


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)
