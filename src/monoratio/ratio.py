"""Exact monotonicity/weak-monotonicity ratios and structural checks.

The monotonicity ratio of a non-negative set function f is

    m = min over S subset-of T of f(T) / f(S),

with the convention that a pair contributes 1 whenever f(S) = 0. m = 1 iff f
is monotone. Everything here is brute force at desk scale and meant as an
oracle for certifying algorithm guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import _EXACT_CHUNK, SetFunctionOracle, SizeLimitError, ids_of

__all__ = [
    "RatioReport",
    "exact_monotonicity_ratio",
    "exact_weak_monotonicity_ratio",
    "is_submodular",
    "movie_ratio_bound",
    "image_weak_ratio_bound",
    "quadratic_ratio_bound",
    "continuous_ratio_grid_bound",
]

MONOTONICITY_DP_LIMIT = 16
WEAK_RATIO_LIMIT = 13
SUBMODULARITY_LIMIT = 12


@dataclass(frozen=True)
class RatioReport:
    """Exact ratio with the witnessing set pair and oracle-call count.

    witness_S / witness_T are bitmasks; for the (strong) monotonicity ratio
    witness_S is a subset of witness_T and ratio = f(witness_T)/f(witness_S)
    under the zero convention. For the weak ratio, witness_T is the feasible
    partner set and the evaluated superset is witness_S | witness_T.
    """

    ratio: float
    witness_S: int
    witness_T: int
    eval_count: int

    def csv_row(self) -> str:
        return f"{self.ratio!r},{self.witness_S},{self.witness_T},{self.eval_count}"

    CSV_HEADER = "ratio,witness_s,witness_t,eval_count"


def _f_table(f: SetFunctionOracle) -> np.ndarray:
    """Values of f on all 2^n masks, in mask order, evaluated through
    `f.values` in chunks so that a `batch_fn` serves them and the unpacked
    mask matrix stays bounded."""
    full = 1 << f.n
    return np.concatenate([f.values(range(lo, min(lo + _EXACT_CHUNK, full)))
                           for lo in range(0, full, _EXACT_CHUNK)])


def _nonnegative_table(f: SetFunctionOracle) -> np.ndarray:
    """`_f_table`, rejecting a negative value: the ratio is defined for
    non-negative functions only, and the zero convention would turn a
    negative f(S) into a ratio outside [0, 1]."""
    fv = _f_table(f)
    neg = fv < 0.0
    if neg.any():
        mask = int(np.argmax(neg))
        raise ValueError(f"ratio of oracle {f.name} needs a non-negative function; "
                         f"f = {float(fv[mask])!r} at mask {mask} (elements {ids_of(mask)})")
    return fv


def exact_monotonicity_ratio(f: SetFunctionOracle, limit: int = MONOTONICITY_DP_LIMIT) -> RatioReport:
    """Exact monotonicity ratio by downward DP in O(n 2^n).

    Computes g(S) = min over supersets T of f(T) via the superset-min
    transform, then minimizes g(S)/f(S) with the f(S)=0 -> 1 convention.
    Witnesses break ties toward lexicographically smaller masks (S first,
    then T), matching a naive ascending all-pairs scan. Raises ValueError
    when f is negative anywhere.
    """
    n = f.n
    if n > limit:
        raise SizeLimitError(f"exact ratio DP capped at n={limit}, got n={n}")
    start_calls = f.eval_count
    fv = _nonnegative_table(f)
    full = 1 << n

    g = fv.copy()
    tptr = np.arange(full, dtype=np.int64)
    all_masks = np.arange(full, dtype=np.int64)
    for u in range(n):
        bit = 1 << u
        lo = all_masks[(all_masks & bit) == 0]
        hi = lo | bit
        g_lo, g_hi = g[lo], g[hi]
        t_lo, t_hi = tptr[lo], tptr[hi]
        better = (g_hi < g_lo) | ((g_hi == g_lo) & (t_hi < t_lo))
        g[lo] = np.where(better, g_hi, g_lo)
        tptr[lo] = np.where(better, t_hi, t_lo)

    pos = fv > 0.0
    r = np.divide(g, fv, out=np.ones(full), where=pos)  # 1 where f(S) = 0
    wS = int(np.argmin(r))  # first minimum: the smallest S
    # f >= 0, so where f(S) = 0 the superset minimum is S itself
    wT = int(tptr[wS])
    return RatioReport(ratio=float(r[wS]), witness_S=wS, witness_T=wT,
                       eval_count=f.eval_count - start_calls)


def exact_weak_monotonicity_ratio(f: SetFunctionOracle, feasible,
                                  limit: int = WEAK_RATIO_LIMIT) -> RatioReport:
    """Exact weak monotonicity ratio: min over feasible S, T of f(S|T)/f(S).

    `feasible` is a predicate over masks (or an iterable of feasible masks).
    With everything feasible this equals the monotonicity ratio, since every
    superset of S is S|T for some T. Raises ValueError when f is negative
    anywhere.
    """
    n = f.n
    if n > limit:
        raise SizeLimitError(f"weak ratio scan capped at n={limit}, got n={n}")
    start_calls = f.eval_count
    fv = _nonnegative_table(f)
    if callable(feasible):
        fam = np.array([m for m in range(1 << n) if feasible(m)], dtype=np.int64)
    else:
        fam = np.array(sorted(set(int(m) for m in feasible)), dtype=np.int64)
    if fam.size == 0:
        raise ValueError("feasible family is empty")

    best = math.inf
    wS = wT = int(fam[0])
    for S in fam:
        fS = fv[S]
        if fS <= 0.0:
            r, T = 1.0, int(S)
        else:
            unions = S | fam
            ratios = fv[unions] / fS
            j = int(np.argmin(ratios))  # first occurrence = smallest T mask
            r, T = float(ratios[j]), int(fam[j])
        if r < best:
            best, wS, wT = r, int(S), T
    return RatioReport(ratio=float(best), witness_S=wS, witness_T=wT,
                       eval_count=f.eval_count - start_calls)


def is_submodular(f: SetFunctionOracle, tol: float = 1e-9, witness: bool = False,
                  limit: int = SUBMODULARITY_LIMIT):
    """Exhaustive submodularity check.

    Uses the local characterization f(T+u)+f(T+v) >= f(T+u+v)+f(T) for all T
    and u,v not in T, which is equivalent to the diminishing-returns
    inequality over all nested pairs; f may take either sign. With
    witness=True returns (ok, (S, T, u)) where f(u|S) < f(u|T) for S = T'
    and T = T'+v exhibits the violation (witness is None when submodular).
    """
    n = f.n
    if n > limit:
        raise SizeLimitError(f"submodularity check capped at n={limit}, got n={n}")
    fv = _f_table(f)
    scale = max(1.0, float(np.max(np.abs(fv))))
    masks = np.arange(1 << n, dtype=np.int64)
    for u in range(n):
        bu = 1 << u
        for v in range(u + 1, n):
            bv = 1 << v
            base = masks[(masks & (bu | bv)) == 0]
            lhs = fv[base | bu] + fv[base | bv]
            rhs = fv[base | bu | bv] + fv[base]
            bad = lhs < rhs - tol * scale
            if np.any(bad):
                if not witness:
                    return False
                T0 = int(base[np.argmax(bad)])
                # f(u | T0) >= f(u | T0+v) fails
                return False, (T0, T0 | bv, u)
    return (True, None) if witness else True


def movie_ratio_bound(lam: float) -> float:
    """Monotonicity-ratio lower bound for the coverage-diversity movie
    objective: monotone up to lam = 1/2, then 2(1-lam)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0,1]")
    return 1.0 if lam <= 0.5 else 2.0 * (1.0 - lam)


def image_weak_ratio_bound(k: int, n: int) -> float:
    """Weak monotonicity-ratio lower bound 1 - 2k/n for the image-summary
    objective with feasible sets of size at most k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return max(0.0, 1.0 - 2.0 * k / n)


def quadratic_ratio_bound(alpha: float, beta: float, min_nonneg: bool) -> float:
    """Monotonicity-ratio lower bound for the generated box quadratic:
    (1-2*beta) when the box minimum is non-negative, else scaled by
    alpha/(1+alpha)."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must be in (0, 0.5)")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    base = 1.0 - 2.0 * beta
    return base if min_nonneg else base * alpha / (1.0 + alpha)


def continuous_ratio_grid_bound(F, u, points_per_axis: int = 5) -> float:
    """Grid-sampled upper bound on the continuous monotonicity ratio.

    Samples ordered pairs x <= y on a regular grid of the box [0, u] and
    returns min F(y)/F(x) (zero convention). The true infimum ranges over all
    pairs, so this is an upper bound on m only.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    if points_per_axis < 2:
        raise ValueError("need at least 2 points per axis")
    axes = [np.linspace(0.0, u[j], points_per_axis) for j in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    vals = np.array([F(x) for x in grid])
    best = 1.0
    for i in range(grid.shape[0]):
        if vals[i] <= 0.0:
            continue
        ge = np.all(grid >= grid[i] - 1e-12, axis=1)
        best = min(best, float(np.min(vals[ge]) / vals[i]))
    return best
