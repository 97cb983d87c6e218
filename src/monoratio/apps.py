"""Application objectives: coverage-diversity movie recommendation,
max-similarity image summarization, randomly generated non-negative
DR-submodular box quadratics, and a random coverage+cut mixture.

Real datasets are replaced by CSV feature ingestion and seeded synthetic
generators; the objective formulas and instance distributions are otherwise
the standard ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .constraints import DownClosedPolytope
from .oracle import GroundSet, SetFunctionOracle, ids_of

__all__ = [
    "load_features_csv",
    "random_feature_matrix",
    "inner_product_similarity",
    "validate_similarity",
    "movie_objective",
    "image_objective",
    "mixture_objective",
    "QuadraticInstance",
    "generate_quadratic_instance",
]


def load_features_csv(path) -> np.ndarray:
    """Load the (n, d) feature matrix of a CSV with header `label,f1,...,fd`.

    The label column is required and skipped. Rows must be rectangular and
    numeric past the label column; parse errors report the offending line
    number.
    """
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
            try:
                rows.append([float(c) for c in row[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature cell") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    feats = np.array(rows, dtype=float)
    if not np.all(np.isfinite(feats)):
        raise ValueError(f"{path}: non-finite feature values")
    return feats


def random_feature_matrix(n: int, d: int, seed: int = 0) -> np.ndarray:
    """Synthetic non-negative (n, d) feature rows (uniform [0,1))."""
    return np.random.default_rng(seed).random((n, d))


def inner_product_similarity(X: np.ndarray) -> np.ndarray:
    """Pairwise inner-product similarity matrix X X' of the (n, d) feature
    rows X.

    All products must be non-negative (non-negative features suffice); a
    negative one raises ValueError naming its row pair.
    """
    s = X @ X.T
    if np.any(s < 0):
        i, j = (int(v) for v in np.argwhere(s < 0)[0])
        raise ValueError(f"rows {i} and {j} have a negative inner product "
                         f"{s[i, j]:g}")
    return s


def validate_similarity(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix of shape {s.shape} must be square")
    for bad, rule in ((~np.isclose(s, s.T, atol=1e-9), "the matrix must be symmetric"),
                      (s < 0, "entries must be non-negative")):
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise ValueError(f"similarity s[{i}, {j}] = {s[i, j]:g} and s[{j}, {i}] = "
                             f"{s[j, i]:g}: {rule}")
    return s


def _pair_sums(s_flat: np.ndarray, n: int, ids: np.ndarray) -> np.ndarray:
    """sum_{u,v in S} s_{u,v} for each row S of ids (row-major flattened n x n
    s). A row's sum must not depend on its batch, whose one-row case is the
    scalar value, and keeps its order, so that seeded outputs stay fixed."""
    block = s_flat.take((ids * n)[:, :, None] + ids[:, None, :])
    return block.reshape(len(ids), -1).sum(axis=1)


def _kernel_oracle(n: int, ids_fn, name: str) -> SetFunctionOracle:
    """Oracle whose one formula is its id-row kernel `ids_fn`: a set's
    scalar value is the kernel on its one row, and 0 on the empty set."""

    def fn(mask: int) -> float:
        return float(ids_fn(np.array([ids_of(mask)], dtype=np.int64))[0]) if mask else 0.0

    return SetFunctionOracle(GroundSet(n), fn, name=name, ids_fn=ids_fn)


def movie_objective(s: np.ndarray, lam: float) -> SetFunctionOracle:
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

    def ids_fn(ids: np.ndarray) -> np.ndarray:
        pairs = _pair_sums(s_flat, n, ids)
        return np.maximum(colsum[ids].sum(axis=1) - lam * pairs, 0.0)

    return _kernel_oracle(n, ids_fn, f"movie(lam={lam})")


def image_objective(s: np.ndarray) -> SetFunctionOracle:
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

    def ids_fn(ids: np.ndarray) -> np.ndarray:
        cover = s_cols[ids].max(axis=1).sum(axis=1)
        return np.maximum(cover - _pair_sums(s_flat, n, ids) / n, 0.0)

    return _kernel_oracle(n, ids_fn, "image")


def mixture_objective(n: int, seed: int) -> SetFunctionOracle:
    """Random non-negative submodular coverage+cut mixture.

    Coverage part: each element covers a random subset of a 2n-point
    weighted universe. Cut part: weighted directed cut. A style draw skews
    the mixture so the monotonicity ratio spreads over [0, 1]. Each cover
    set is drawn as one int64 below 2^(2n), which caps n at 31.
    """
    if n > 31:
        raise ValueError(f"mixture objective needs n <= 31 (its cover sets are "
                         f"int64 masks over 2n points), got n={n}")
    rng = np.random.default_rng(seed)
    style = int(rng.integers(3))  # 0: coverage-heavy, 1: cut-heavy, 2: mixed
    universe = 2 * n
    covers = [int(rng.integers(1, 1 << universe)) for _ in range(n)]
    pt_w = rng.random(universe) * (0.25 if style == 1 else 1.0)
    cut_w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(cut_w, 0.0)
    cut_w *= 0.15 if style == 0 else 1.25

    def fn(mask: int) -> float:
        cov = 0
        ins, outs = [], []
        for u in range(n):
            if (mask >> u) & 1:
                cov |= covers[u]
                ins.append(u)
            else:
                outs.append(u)
        val = sum(pt_w[p] for p in range(universe) if (cov >> p) & 1)
        if ins and outs:
            val += float(cut_w[np.ix_(ins, outs)].sum())
        return val

    return SetFunctionOracle(GroundSet(n), fn, name=f"mixture(seed={seed})")


@dataclass(frozen=True)
class QuadraticInstance:
    """A generated box-quadratic F(x) = x'Hx/2 + h'x + c over
    P = {x >= 0 : Ax <= b, x <= u}.

    H is symmetric non-positive (so F is DR-submodular), h = -beta H'u, and
    c = -M + alpha|M| for the box minimum M of the c-free part, which makes F
    non-negative on the box. M = q(u) < 0 for every generated instance (see
    `generate_quadratic_instance`), so every generated point's m bound,
    `quadratic_ratio_bound(alpha, beta, M >= 0)`, is
    (1-2*beta)*alpha/(1+alpha). L bounds the gradient Lipschitz constant and
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


def generate_quadratic_instance(n: int, beta: float = 0.1, alpha: float = 0.3,
                                seed: int = 0) -> QuadraticInstance:
    """Draw a random instance: H symmetric with entries uniform on [-1,0),
    A positive with entries uniform on [v, v+1] for v = 0.01, b all ones,
    u_j = min_i b_i / A_{ij}, h = -beta H'u, and c = -M + alpha|M| for the
    box minimum M (making F non-negative on the whole box).

    M is the value of q(x) = x'Hx/2 + h'x at the top corner u. For x in the
    box write d = u - x >= 0; then
        q(u) - q(x) = (1-beta) x'Hd + (1/2-beta) d'Hd <= 0,
    since H <= 0 entrywise, x, d >= 0 and beta < 1/2. So
    M = q(u) = (1/2-beta) u'Hu < 0 at every n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must be in (0, 0.5)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    upper = rng.uniform(-1.0, 0.0, size=(n, n))
    H = np.triu(upper) + np.triu(upper, 1).T
    v = 0.01
    A = rng.uniform(v, v + 1.0, size=(n, n))
    b = np.ones(n)
    u = (b[:, None] / A).min(axis=0)
    h = -beta * (H.T @ u)
    M = float(0.5 * u @ H @ u + h @ u)  # QuadraticInstance.value without c
    c = -M + alpha * abs(M)
    L = 1.01 * float(np.linalg.norm(H, 2))
    D = float(np.linalg.norm(u))
    return QuadraticInstance(H=H, A=A, b=b, u=u, h=h, c=c, alpha=alpha,
                             beta=beta, M=M, L=L, D=D)
