"""Application objectives: coverage-diversity movie recommendation,
max-similarity image summarization, and randomly generated non-negative
DR-submodular box quadratics.

Real datasets are replaced by CSV feature ingestion and seeded synthetic
generators; the objective formulas and instance distributions are otherwise
the standard ones.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .constraints import DownClosedPolytope
from .oracle import GroundSet, SetFunctionOracle, ids_of

__all__ = [
    "FeatureMatrix",
    "load_features_csv",
    "random_feature_matrix",
    "inner_product_similarity",
    "random_similarity",
    "validate_similarity",
    "movie_objective",
    "image_objective",
    "QuadraticInstance",
    "generate_quadratic_instance",
    "min_box_quadratic",
]

MIN_BOX_LIMIT = 16


@dataclass(frozen=True)
class FeatureMatrix:
    """n items by d features, with display labels per item."""

    features: np.ndarray
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def load_features_csv(path) -> FeatureMatrix:
    """Load a feature matrix from a CSV with header `label,f1,...,fd`.

    Rows must be rectangular and numeric past the label column; parse errors
    report the offending line number.
    """
    labels: list[str] = []
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a label column and at least one "
                             "feature column")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} cells, "
                                 f"got {len(row)}")
            labels.append(row[0])
            try:
                rows.append([float(c) for c in row[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature cell") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    feats = np.array(rows, dtype=float)
    if not np.all(np.isfinite(feats)):
        raise ValueError(f"{path}: non-finite feature values")
    return FeatureMatrix(features=feats, labels=tuple(labels))


def random_feature_matrix(n: int, d: int, seed: int = 0) -> FeatureMatrix:
    """Synthetic non-negative feature rows (uniform [0,1))."""
    rng = np.random.default_rng(seed)
    feats = rng.random((n, d))
    return FeatureMatrix(features=feats, labels=tuple(f"item{i}" for i in range(n)))


def inner_product_similarity(X: FeatureMatrix, clip_negative: bool = False) -> np.ndarray:
    """Pairwise inner-product similarity matrix of the feature rows.

    All products must be non-negative (non-negative features suffice); pass
    clip_negative=True to clamp stray negative products to zero instead of
    raising.
    """
    s = X.features @ X.features.T
    if np.any(s < 0):
        if not clip_negative:
            raise ValueError("negative inner products; rerun with "
                             "clip_negative=True to clamp them")
        s = np.clip(s, 0.0, None)
    return s


def random_similarity(n: int, seed: int = 0, d: int | None = None,
                      psd: bool = True) -> np.ndarray:
    """Random non-negative symmetric similarity matrix; psd=True builds it as
    a Gram matrix of non-negative features."""
    rng = np.random.default_rng(seed)
    if psd:
        feats = rng.random((n, d if d is not None else max(2, n // 2)))
        return feats @ feats.T
    s = rng.random((n, n))
    s = np.triu(s) + np.triu(s, 1).T
    return s


def validate_similarity(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("similarity matrix must be square")
    if not np.allclose(s, s.T, atol=1e-9):
        raise ValueError("similarity matrix must be symmetric")
    if np.any(s < 0):
        raise ValueError("similarity entries must be non-negative")
    return s


# Float bytes one kernel step may gather: bounds the (rows, L, n) block a
# kernel builds for rows of set size L.
_KERNEL_BLOCK_BYTES = 1 << 18


def _size_groups(X: np.ndarray):
    """Split the nonempty rows of a (B, n) boolean mask matrix by set size.

    Yields (rows, ids): row indices into X and the (len(rows), L) array of
    their sorted element ids, in blocks of at most _KERNEL_BLOCK_BYTES of
    (len(rows), L, n) floats. Beyond one block, the split itself keeps two
    int64 per row of X. Rows of one size reduce over equally long axes, so
    numpy sums each row in the same order as the scalar objective and the
    batched values equal the scalar ones bit for bit.
    """
    n = X.shape[1]
    sizes = X.sum(axis=1)
    order = np.argsort(sizes, kind="stable")
    first = 0
    for size, count in enumerate(np.bincount(sizes, minlength=n + 1).tolist()):
        if size and count:
            step = max(1, _KERNEL_BLOCK_BYTES // (8 * size * n))
            for lo in range(first, first + count, step):
                rows = order[lo:min(lo + step, first + count)]
                yield rows, np.nonzero(X[rows])[1].reshape(len(rows), size)
        first += count


def _pair_sums(s_flat: np.ndarray, n: int, ids: np.ndarray) -> np.ndarray:
    """sum_{u,v in S} s_{u,v} for each row S of ids, from the row-major
    flattened n x n matrix s, summed like the scalar s[np.ix_(idx, idx)].sum()."""
    block = s_flat.take((ids * n)[:, :, None] + ids[:, None, :])
    return block.reshape(len(ids), -1).sum(axis=1)


def movie_objective(s: np.ndarray, lam: float,
                    labels: tuple[str, ...] | None = None) -> SetFunctionOracle:
    """Coverage-minus-diversity recommendation objective

        f(S) = sum_{u in N} sum_{v in S} s_{u,v} - lam * sum_{u,v in S} s_{u,v},

    non-negative and submodular for non-negative symmetric s and lam in
    [0,1]; monotone for lam <= 1/2. Computed values are clamped at 0: f(S)
    equals sum_{v in S} (sum_{u not in S} s_{u,v} + (1 - lam) sum_{u in S}
    s_{u,v}) >= 0, so a negative result is rounding (at lam = 1 the two sums
    of f(N) cancel to about -1e-13).
    """
    s = validate_similarity(s)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0,1]")
    n = s.shape[0]
    colsum = s.sum(axis=0)
    s_flat = s.ravel()

    def fn(mask: int) -> float:
        if mask == 0:
            return 0.0
        idx = ids_of(mask)
        return max(float(colsum[idx].sum() - lam * s[np.ix_(idx, idx)].sum()), 0.0)

    def batch_fn(X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X))
        for rows, ids in _size_groups(X):
            out[rows] = colsum[ids].sum(axis=1) - lam * _pair_sums(s_flat, n, ids)
        return np.maximum(out, 0.0)

    ground = GroundSet(n, labels)
    return SetFunctionOracle(ground, fn, memoize=n <= 20, name=f"movie(lam={lam})",
                             batch_fn=batch_fn)


def image_objective(s: np.ndarray,
                    labels: tuple[str, ...] | None = None) -> SetFunctionOracle:
    """Max-similarity summarization objective

        f(S) = sum_{u in N} max_{v in S} s_{u,v} - (1/n) sum_{u,v in S} s_{u,v}

    with max over the empty set taken as 0 (so f(empty) = 0); non-negative
    and submodular for non-negative s. Computed values are clamped at 0: each
    max is at least the mean of its row over S, so f >= 0 exactly and a
    negative result is rounding (rows constant over S cancel).
    """
    s = validate_similarity(s)
    n = s.shape[0]
    s_cols = np.ascontiguousarray(s.T)  # row v holds column v of s
    s_flat = s.ravel()

    def fn(mask: int) -> float:
        if mask == 0:
            return 0.0
        idx = ids_of(mask)
        cover = s[:, idx].max(axis=1).sum()
        return max(float(cover - s[np.ix_(idx, idx)].sum() / n), 0.0)

    def batch_fn(X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X))
        for rows, ids in _size_groups(X):
            cover = s_cols[ids].max(axis=1).sum(axis=1)
            out[rows] = cover - _pair_sums(s_flat, n, ids) / n
        return np.maximum(out, 0.0)

    ground = GroundSet(n, labels)
    return SetFunctionOracle(ground, fn, memoize=n <= 20, name="image",
                             batch_fn=batch_fn)


@dataclass(frozen=True)
class QuadraticInstance:
    """A generated box-quadratic F(x) = x'Hx/2 + h'x + c over
    P = {x >= 0 : Ax <= b, x <= u}.

    H is symmetric non-positive (so F is DR-submodular), h = -beta H'u, and
    c = -M + alpha|M| for the box minimum M of the c-free part, which makes F
    non-negative on the box. L bounds the gradient Lipschitz constant and
    D = |u|_2 bounds the feasible diameter.
    """

    H: np.ndarray
    A: np.ndarray
    b: np.ndarray
    u: np.ndarray
    h: np.ndarray
    c: float
    alpha: float
    beta: float
    seed: int
    M: float
    L: float
    D: float

    @property
    def n(self) -> int:
        return self.u.size

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.h @ x + self.c)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.H @ x + self.h

    def polytope(self) -> DownClosedPolytope:
        return DownClosedPolytope(self.A, self.b, self.u)

    def to_json(self) -> str:
        return json.dumps({
            "H": self.H.tolist(), "A": self.A.tolist(), "b": self.b.tolist(),
            "u": self.u.tolist(), "h": self.h.tolist(), "c": self.c,
            "alpha": self.alpha, "beta": self.beta, "seed": self.seed,
            "M": self.M, "L": self.L, "D": self.D,
        })

    @classmethod
    def from_json(cls, text: str) -> "QuadraticInstance":
        d = json.loads(text)
        return cls(H=np.array(d["H"]), A=np.array(d["A"]), b=np.array(d["b"]),
                   u=np.array(d["u"]), h=np.array(d["h"]), c=float(d["c"]),
                   alpha=float(d["alpha"]), beta=float(d["beta"]),
                   seed=int(d["seed"]), M=float(d["M"]), L=float(d["L"]),
                   D=float(d["D"]))


def _quad_part(H, h, X: np.ndarray) -> np.ndarray:
    # rows of X -> x'Hx/2 + h'x, vectorized
    return 0.5 * np.einsum("ij,ij->i", X @ H, X) + X @ h


def min_box_quadratic(H, h, u, starts: int = 200, pgd_iters: int = 300,
                      seed: int = 0) -> float:
    """Approximate global minimum of x'Hx/2 + h'x over the box [0, u].

    Combines all 2^n box vertices, multi-start projected gradient descent,
    and coordinate-wise exact polishing (each coordinate slice is concave for
    entrywise non-positive H, so slice minima sit at the box endpoints) and
    returns the best value found.
    """
    H = np.asarray(H, dtype=float)
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    n = u.size
    if n > MIN_BOX_LIMIT:
        raise ValueError(f"vertex enumeration capped at n={MIN_BOX_LIMIT}")

    # (1) all box vertices
    masks = np.arange(1 << n)
    verts = ((masks[:, None] >> np.arange(n)) & 1) * u
    best = float(_quad_part(H, h, verts).min())

    # (2) multi-start projected gradient descent
    rng = np.random.default_rng(seed)
    X = rng.random((starts, n)) * u
    lip = float(np.linalg.norm(H, 2)) + 1e-9
    step = 1.0 / lip
    for _ in range(pgd_iters):
        X -= step * (X @ H + h)
        np.clip(X, 0.0, u, out=X)
    best = min(best, float(_quad_part(H, h, X).min()))

    # (3) coordinate-wise polish of the PGD endpoints
    for x in X[np.argsort(_quad_part(H, h, X))[:20]]:
        x = x.copy()
        for _ in range(n):
            changed = False
            for j in range(n):
                rest = H[j] @ x - H[j, j] * x[j] + h[j]
                lo = 0.0
                hi = 0.5 * H[j, j] * u[j] ** 2 + rest * u[j]
                want = 0.0 if lo <= hi else u[j]
                if x[j] != want:
                    x[j] = want
                    changed = True
            if not changed:
                break
        val = float(0.5 * x @ H @ x + h @ x)
        best = min(best, val)
    return best


def generate_quadratic_instance(n: int, v: float = 0.01, beta: float = 0.1,
                                alpha: float = 0.3, seed: int = 0) -> QuadraticInstance:
    """Draw a random instance: H symmetric with entries uniform on [-1,0],
    A positive with entries uniform on [v, v+1], b all ones,
    u_j = min_i b_i / A_{ij}, h = -beta H'u, and c = -M + alpha|M| for the
    box minimum M (making F non-negative on the whole box)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must be in (0, 0.5)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    upper = rng.uniform(-1.0, 0.0, size=(n, n))
    H = np.triu(upper) + np.triu(upper, 1).T
    A = rng.uniform(v, v + 1.0, size=(n, n))
    b = np.ones(n)
    u = (b[:, None] / A).min(axis=0)
    h = -beta * (H.T @ u)
    M = min_box_quadratic(H, h, u, seed=seed + 1)
    c = -M + alpha * abs(M)
    L = 1.01 * float(np.linalg.norm(H, 2))
    D = float(np.linalg.norm(u))
    return QuadraticInstance(H=H, A=A, b=b, u=u, h=h, c=c, alpha=alpha,
                             beta=beta, seed=seed, M=M, L=L, D=D)
