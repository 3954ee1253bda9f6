"""Linear translation maps and their trainers.

Two trainers are provided. The ranking trainer minimizes a max-margin hinge
over squared Euclidean distances with per-epoch random negatives via
per-instance SGD. The baseline solves the squared-Frobenius ridge problem
in closed form. Both return a LinearMap carrying full provenance so
experiment reports can be audited.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSpace
from .formats import read_map, write_map
from .lexicon import TranslationDataset
from .seeds import spawn_rng

INITS = ("identity", "zeros", "scaled-random")
# max-margin SGD steps held back and folded into the map at once
_RANK = 32


@dataclass(frozen=True)
class LinearMap:
    """A d_tgt x d_src matrix mapping source vectors into the target space."""

    matrix: np.ndarray
    trainer: str = "unspecified"
    anchor: str = "global"
    hyperparams: dict = field(default_factory=dict, compare=False)
    train_size: int = 0
    final_loss: float | None = None
    loss_history: tuple[float, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        # C order, as load_map gives: matrix_cosine then sums a fitted map and
        # its saved copy in one order, bit for bit
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("map matrix must be 2-D")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("map matrix contains non-finite entries")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def d_tgt(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def d_src(self) -> int:
        return int(self.matrix.shape[1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d_src,):
            raise ValueError(f"vector dimension {x.shape} != map d_src {self.d_src}")
        return self.matrix @ x


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the max-margin trainer."""

    gamma: float = 0.4
    negatives: int = 1
    epochs: int = 50
    learning_rate: float = 0.1
    lr_decay: float = 0.99
    seed: int = 0
    init: str = "identity"
    ortho_weight: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")
        if not 0 <= self.ortho_weight < math.inf:
            raise ValueError(f"ortho_weight must be finite and >= 0, got {self.ortho_weight}")


def squared_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Squared Euclidean norm of u - v."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    diff = u - v
    return float(diff @ diff)


def _as_matrix(m: LinearMap | np.ndarray) -> np.ndarray:
    return m.matrix if isinstance(m, LinearMap) else np.asarray(m, dtype=np.float64)


def hinge_loss(
    m: LinearMap | np.ndarray,
    x: np.ndarray,
    y_pos: np.ndarray,
    y_neg: np.ndarray,
    gamma: float,
) -> float:
    """max(0, gamma + d(y_pos, Wx) - d(y_neg, Wx)) for one ranking triple."""
    W = _as_matrix(m)
    wx = W @ x
    return max(0.0, gamma + squared_distance(y_pos, wx) - squared_distance(y_neg, wx))


def hinge_gradient(
    m: LinearMap | np.ndarray,
    x: np.ndarray,
    y_pos: np.ndarray,
    y_neg: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Gradient of hinge_loss w.r.t. W; zero matrix where the hinge is inactive.

    On the active branch the quadratic terms in W cancel, leaving the
    W-independent rank-one gradient 2 (y_neg - y_pos) x^T.
    """
    W = _as_matrix(m)
    if hinge_loss(W, x, y_pos, y_neg, gamma) > 0.0:
        return 2.0 * np.outer(np.asarray(y_neg) - np.asarray(y_pos), x)
    return np.zeros_like(W)


def _init_matrix(config: TrainConfig, d_tgt: int, d_src: int) -> np.ndarray:
    init = config.init
    if init == "identity" and d_tgt != d_src:
        init = "scaled-random"  # identity undefined for rectangular maps
    if init == "identity":
        return np.eye(d_tgt)
    if init == "zeros":
        return np.zeros((d_tgt, d_src))
    rng = spawn_rng(config.seed, "init")
    bound = 1.0 / math.sqrt(d_src)
    return rng.uniform(-bound, bound, size=(d_tgt, d_src))


def _fold(W: np.ndarray, U: np.ndarray, V: np.ndarray) -> None:
    """W -= U^T V in place, as one stack of matrix-vector products.

    Row i of U^T V is the gemv V^T @ U[:, i], in the same matrix-vector
    form as the step's own W @ x, on contiguous copies of V^T and U^T. Each
    row is computed whole on one thread, so the map does not depend on the
    BLAS thread count, and its bits held under both the SkylakeX and the
    Haswell core. Per rank-32 fold at d=300, on one core: this stack about
    0.4-0.5 ms, np.einsum 0.7 ms, the vector-matrix stack U^T[:, None] @ V
    0.33 ms but with other bits under Haswell, and a U^T @ V GEMM 0.13 ms
    but with other bits on two threads.
    """
    VT = np.ascontiguousarray(V.T)
    UT = np.ascontiguousarray(U.T)
    W -= np.matmul(VT, UT[:, :, None])[:, :, 0]


def train_max_margin(
    train: TranslationDataset,
    tgt_space: EmbeddingSpace,
    config: TrainConfig,
    anchor: str = "global",
) -> LinearMap:
    """Fit a map by per-instance SGD on the max-margin ranking loss.

    Each epoch shuffles the instances and, per instance, samples
    config.negatives targets uniformly from the gold vectors of the other
    instances; a single-instance dataset falls back to sampling negatives
    from the target vocabulary instead. Multi-valued gold sets contribute
    their first target as the positive. All randomness derives from
    config.seed, so the loss trajectory and final matrix are reproducible
    bit for bit.

    Each hinge step is the W-independent rank-one 2 lr (y_neg - y_pos) x^T,
    so SGD steps are applied in delayed rank-r folds: W is kept as
    W - U^T V with up to _RANK pending steps as rows of U and V, and the
    pending steps are folded into W every _RANK active steps and before the
    per-epoch orthogonality step and finiteness check. A step computes
    W x, the pending correction (V x) U and its squared distances with
    BLAS matrix-vector and dot products; a fold is one stack of
    matrix-vector products (_fold), not a GEMM. The map does not depend on
    the BLAS thread count.
    """
    m = len(train)
    if m == 0:
        raise ValueError("training set is empty")
    X = train.source_matrix()
    Y = train.target_matrix(tgt_space)
    d_src = X.shape[1]
    d_tgt = tgt_space.dim

    W = _init_matrix(config, d_tgt, d_src)
    eye = np.eye(d_tgt)
    # per-step buffers; each element sees the same operations in the same order
    wx = np.empty(d_tgt)
    diff = np.empty(d_tgt)
    # pending steps: the effective map is W - U[:pending].T @ V[:pending]
    U = np.empty((_RANK, d_tgt))
    V = np.empty((_RANK, d_src))
    pending = 0

    vocab_fallback: np.ndarray | None = None
    if m == 1:
        gold = set(train.instances[0].gold_targets)
        allowed = [i for i, w in enumerate(tgt_space.words) if w not in gold]
        if not allowed:
            raise ValueError("cannot sample negatives: target vocabulary has no non-gold word")
        vocab_fallback = np.array(allowed)

    lr = config.learning_rate
    gamma = config.gamma
    loss_history: list[float] = []
    matvec = W.dot  # W is only ever updated in place
    # overflow en route is expected to surface as the per-epoch finiteness abort
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = spawn_rng(config.seed, "shuffle", epoch).permutation(m)
            # one draw per epoch is the stream of one scalar draw per negative
            neg_rng = spawn_rng(config.seed, "negatives", epoch)
            if vocab_fallback is None:
                negatives = neg_rng.integers(m - 1, size=(m, config.negatives))
                negatives += negatives >= order[:, None]  # skip the instance itself
                targets = Y
            else:
                negatives = vocab_fallback[neg_rng.integers(len(vocab_fallback),
                                                            size=(m, config.negatives))]
                targets = tgt_space.vectors
            scale = 2.0 * lr
            epoch_loss = 0.0
            for i, draws in zip(order.tolist(), negatives.tolist()):
                x = X[i]
                y_pos = Y[i]
                matvec(x, out=wx)
                if pending:
                    wx -= Vp.dot(x).dot(Up)
                np.subtract(y_pos, wx, out=diff)
                d_pos = float(diff.dot(diff))
                pushed = False
                for j in draws:
                    y_neg = targets[j]
                    np.subtract(y_neg, wx, out=diff)
                    violation = gamma + d_pos - float(diff.dot(diff))
                    if violation > 0.0:
                        epoch_loss += violation
                        if pushed:
                            push += np.subtract(y_neg, y_pos, out=diff)
                        else:
                            push = np.subtract(y_neg, y_pos, out=U[pending])
                            pushed = True
                if pushed:
                    push *= scale
                    V[pending] = x
                    pending += 1
                    if pending == _RANK:
                        _fold(W, U, V)
                        pending = 0
                    Vp, Up = V[:pending], U[:pending]
            _fold(W, U[:pending], V[:pending])
            pending = 0
            avg_loss = epoch_loss / m
            if config.ortho_weight > 0.0:
                # full-batch penalty step once per epoch; per-instance application
                # would cost O(d^3) per sample for no extra accuracy
                residual = W @ W.T - eye
                avg_loss += config.ortho_weight * float(np.sum(residual * residual))
                W -= lr * config.ortho_weight * 4.0 * (residual @ W)
            if not np.isfinite(avg_loss) or not np.all(np.isfinite(W)):
                raise ArithmeticError(
                    f"non-finite training state at epoch {epoch} (loss={avg_loss}); "
                    "reduce learning_rate or check input scaling"
                )
            loss_history.append(avg_loss)
            lr *= config.lr_decay

    return LinearMap(
        W,
        trainer="max_margin",
        anchor=anchor,
        hyperparams=asdict(config),
        train_size=m,
        final_loss=loss_history[-1],
        loss_history=tuple(loss_history),
    )


def train_least_squares(
    train: TranslationDataset,
    tgt_space: EmbeddingSpace,
    lam: float = 0.0,
    anchor: str = "global",
) -> LinearMap:
    """Closed-form ridge solution M = Y X^T (X X^T + lam I)^-1.

    Columns of X and Y are the n paired source and (first) gold target vectors. One
    system per fit is both checked, by a Cholesky factorization, and solved: X X^T + lam I
    with n >= d_src; with fewer pairs, as a tight neighborhood gives, the n x n dual
    X^T X + lam I, as M = Y (X^T X + lam I)^-1 X^T (the push-through identity). There
    lam = 0 always raises, as X X^T has rank at most n < d_src. A failed check advises
    a positive lam.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    X = train.source_matrix().T
    Y = train.target_matrix(tgt_space).T
    d_src, n = X.shape

    dual = n < d_src
    system = X.T @ X + lam * np.eye(n) if dual else X @ X.T + lam * np.eye(d_src)
    try:
        if dual and lam == 0:  # X X^T has rank at most n < d_src
            raise np.linalg.LinAlgError
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "X X^T is singular; pass a positive lam to regularize"
        ) from None
    W = (X @ np.linalg.solve(system, Y.T) if dual else np.linalg.solve(system, X @ Y.T)).T

    residual = W @ X - Y
    loss = float(np.sum(residual * residual) + lam * np.sum(W * W))
    return LinearMap(
        W,
        trainer="least_squares",
        anchor=anchor,
        hyperparams={"lam": lam},
        train_size=len(train),
        final_loss=loss,
    )


# The fit functions look the trainers up by module-global name on every call,
# so a wrapper installed on train_max_margin or train_least_squares sees them.
def _fit_max_margin(train, tgt_space, config, lam, anchor):
    return train_max_margin(train, tgt_space, config, anchor=anchor)


def _fit_least_squares(train, tgt_space, config, lam, anchor):
    return train_least_squares(train, tgt_space, lam=lam, anchor=anchor)


# accepted trainer name -> (canonical name recorded in maps, fit function)
TRAINERS = {
    "max_margin": ("max_margin", _fit_max_margin),
    "maxmargin": ("max_margin", _fit_max_margin),
    "least_squares": ("least_squares", _fit_least_squares),
    "lsq": ("least_squares", _fit_least_squares),
}


def get_trainer(name: str):
    """Canonical name and fit(train, tgt_space, config, lam, anchor) for a trainer name."""
    if name not in TRAINERS:
        raise ValueError(f"unknown trainer {name!r}; expected one of {', '.join(TRAINERS)}")
    return TRAINERS[name]


def orthogonality_penalty(m: LinearMap | np.ndarray) -> float:
    """Frobenius norm of M M^T - I; zero exactly for orthogonal matrices."""
    M = _as_matrix(m)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"orthogonality penalty requires a square matrix, got {M.shape}")
    residual = M @ M.T - np.eye(M.shape[0])
    return float(np.linalg.norm(residual))


def save_map(m: LinearMap, path: str | Path) -> None:
    """Serialize a map as text: header 'd_tgt d_src', '#' provenance, rows.

    Entries are written as their shortest round-trip float repr, one
    vectorized pass over the matrix (formats._format_float_rows), so
    load_map restores them exactly.
    """
    write_map(m, Path(path))


def load_map(path: str | Path) -> LinearMap:
    """Read a map written by save_map.

    Hyperparameter values come back as the Python literals save_map wrote
    with repr, so a loaded map saves to the same bytes.
    """
    return LinearMap(**read_map(Path(path)))
