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

from .oracle import SetFunctionOracle, SizeLimitError, _f_table, ids_of

__all__ = [
    "RatioReport",
    "exact_monotonicity_ratio",
    "exact_weak_monotonicity_ratio",
    "is_submodular",
    "movie_ratio_bound",
    "image_weak_ratio_bound",
    "quadratic_ratio_bound",
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


def exact_monotonicity_ratio(f: SetFunctionOracle) -> RatioReport:
    """Exact monotonicity ratio by downward DP in O(n 2^n).

    Computes g(S) = min over supersets T of f(T) via the superset-min
    transform, then minimizes g(S)/f(S) with the f(S)=0 -> 1 convention.
    Witnesses break ties toward lexicographically smaller masks (S first,
    then T), matching a naive ascending all-pairs scan. Raises ValueError
    when f is negative anywhere, and SizeLimitError above
    MONOTONICITY_DP_LIMIT elements.
    """
    n = f.n
    if n > MONOTONICITY_DP_LIMIT:
        raise SizeLimitError(f"exact ratio DP capped at n={MONOTONICITY_DP_LIMIT}, "
                             f"got n={n}")
    start_calls = f.eval_count
    fv = _nonnegative_table(f)
    full = 1 << n

    g = fv.copy()
    for u in range(n):
        # [:, 0] holds the masks without bit u, [:, 1] the same masks with
        # it; the strict < never lets a -0.0 replace a 0.0
        gv = g.reshape(-1, 2, 1 << u)
        np.copyto(gv[:, 0], gv[:, 1], where=gv[:, 1] < gv[:, 0])

    pos = fv > 0.0
    r = np.divide(g, fv, out=np.ones(full), where=pos)  # 1 where f(S) = 0
    wS = int(np.argmin(r))  # first minimum: the smallest S
    # the smallest superset of S where f attains g(S): S itself when
    # f(S) = 0, since f >= 0
    masks = np.arange(full)
    wT = int(np.flatnonzero(((masks & wS) == wS) & (fv == g[wS]))[0])
    return RatioReport(ratio=float(r[wS]), witness_S=wS, witness_T=wT,
                       eval_count=f.eval_count - start_calls)


def exact_weak_monotonicity_ratio(f: SetFunctionOracle, feasible) -> RatioReport:
    """Exact weak monotonicity ratio: min over feasible S, T of f(S|T)/f(S).

    `feasible` is a predicate over the masks in [0, 2^n); a list of masks
    `fam` passes as `set(fam).__contains__`. With everything feasible this
    equals the monotonicity ratio, since every superset of S is S|T for
    some T. Raises ValueError when no mask is feasible or f is negative
    anywhere, and SizeLimitError above WEAK_RATIO_LIMIT elements.
    """
    n = f.n
    if n > WEAK_RATIO_LIMIT:
        raise SizeLimitError(f"weak ratio scan capped at n={WEAK_RATIO_LIMIT}, got n={n}")
    fam = np.array([m for m in range(1 << n) if feasible(m)], dtype=np.int64)
    if fam.size == 0:
        raise ValueError("feasible family is empty")
    start_calls = f.eval_count
    fv = _nonnegative_table(f)

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


def is_submodular(f: SetFunctionOracle, witness: bool = False):
    """Exhaustive submodularity check.

    Uses the local characterization f(T+u)+f(T+v) >= f(T+u+v)+f(T) for all T
    and u,v not in T, which is equivalent to the diminishing-returns
    inequality over all nested pairs; f may take either sign. With
    witness=True returns (ok, (S, T, u)) where f(u|S) < f(u|T) for S = T'
    and T = T'+v exhibits the violation (witness is None when submodular).
    A violation must exceed 1e-9 times max(1, max |f|), which absorbs
    rounding. Raises SizeLimitError above SUBMODULARITY_LIMIT elements.
    """
    n = f.n
    if n > SUBMODULARITY_LIMIT:
        raise SizeLimitError(f"submodularity check capped at n={SUBMODULARITY_LIMIT}, "
                             f"got n={n}")
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
            bad = lhs < rhs - 1e-9 * scale
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
