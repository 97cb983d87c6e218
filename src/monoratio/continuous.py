"""Continuous maximization: measured continuous greedy over down-closed
bodies, swap rounding for uniform/partition matroid polytopes, and the
non-monotone Frank-Wolfe ascent for DR-submodular objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (DownClosedPolytope, Matroid, PartitionMatroid,
                          _finite_vector, _same_ground_set,
                          linear_maximize_matroid, linear_maximize_polytope)
from .discrete import _rng
from .oracle import (SetFunctionOracle, _pack_masks, ids_of, indicator,
                     mask_from_indicator)

__all__ = [
    "MCGConfig",
    "MCGResult",
    "measured_continuous_greedy",
    "swap_rounding",
    "FWConfig",
    "FWResult",
    "frank_wolfe_nonmonotone",
]


@dataclass(frozen=True)
class MCGConfig:
    """Discretization and sampling control for measured continuous greedy.

    T is the total ascent time (the output is guaranteed inside the body only
    for T <= 1); steps is the number of discrete time slices; samples is the
    Monte-Carlo budget per gain-vector estimate.
    """

    T: float = 1.0
    steps: int = 100
    samples: int = 64
    seed: int | None = None

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.steps < 1 or self.samples < 1:
            raise ValueError("steps and samples must be positive")


@dataclass
class MCGResult:
    """Final fractional point plus a crude additive discretization bound
    (delta * n * max|f| over the sampled evaluations) and an optional
    per-step trace of (t, max coordinate, estimated F, stderr)."""

    y: np.ndarray
    discretization_bound: float
    trace: list[tuple[float, float, float, float]] | None = None


def _gain_estimates(f: SetFunctionOracle, y: np.ndarray, samples: int, rng,
                    known: dict):
    """Estimate w_u = F(y or 1_u) - F(y) for all u with common random numbers:
    the same sampled sets R(y) are reused with u forced in, which makes each
    w_u a mean of correlated differences and slashes the variance.

    `known` maps the mask of every set the run has evaluated to its value.
    A step lists its sets in first-occurrence order: the d distinct sampled
    sets R, then R + u for each u and each R. The sets `known` lacks go to
    the oracle in one batch and join `known`; the row of R + u is a sample
    row that drew R, with column u set. The (n + 1, samples) value matrix
    is then gathered from `known`. A row's value does not depend on its
    batch, so the estimates equal those of evaluating all samples * (n + 1)
    rows."""
    n = y.size
    bits = rng.random((samples, n)) < y
    cols = {}  # column of each distinct sampled set, in first-occurrence order
    col = [cols.setdefault(m, len(cols)) for m in _pack_masks(bits)]
    d = len(cols)
    sample_of = np.empty(d, dtype=np.intp)
    sample_of[col] = np.arange(samples)  # a sample that drew each column's set
    keys = [*cols] + [m | 1 << u for u in range(n) for m in cols]
    pos = dict(zip(keys, range(len(keys))))  # first-occurrence order
    new = [j for m, j in pos.items() if m not in known]
    if new:
        at = np.array(new)
        rows = bits[sample_of[at % d]]
        forced = at >= d
        rows[forced, at[forced] // d - 1] = True
        known.update(zip([keys[j] for j in new], f.values(rows).tolist()))
    vals = np.fromiter(map(known.__getitem__, keys), float, len(keys))
    vals = vals.reshape(n + 1, d)[:, col]
    base_vals = vals[0]
    w = (vals[1:] - base_vals).mean(axis=1)
    fmax = float(np.max(np.abs(base_vals))) if samples else 0.0
    est = float(base_vals.mean())
    se = float(base_vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return w, est, se, fmax


def measured_continuous_greedy(f: SetFunctionOracle, constraint,
                               cfg: MCGConfig = MCGConfig(),
                               trace: bool = False) -> MCGResult:
    """Measured continuous greedy over a matroid or down-closed polytope.

    Discretizes dy/dt = (1 - y) * x(t) with delta = T/steps, where x(t)
    maximizes the estimated gain vector w(t) over the constraint (exact
    greedy for matroid kinds, an LP for polytopes). The continuous guarantee
    target is F(y(T)) >= [m(1-e^-T) + (1-m)T e^-T] f(OPT) up to
    discretization and sampling error.

    A run evaluates each set at most once: it keeps the value of every set
    it has evaluated, and each step asks the oracle only for the sampled and
    forced sets it does not hold yet. Its points, trace and bound are those
    of evaluating every row of every step.
    """
    n = f.n
    rng = _rng(cfg.seed)
    delta = cfg.T / cfg.steps
    if not isinstance(constraint, (Matroid, DownClosedPolytope)):
        raise ValueError(f"unsupported constraint {constraint!r}")
    _same_ground_set(n, constraint)
    y = np.zeros(n)
    rows = [] if trace else None
    fmax_seen = 0.0
    known = {}  # value of every set the run has evaluated, by mask
    for step in range(cfg.steps):
        w, fest, se, fmax = _gain_estimates(f, y, cfg.samples, rng, known)
        fmax_seen = max(fmax_seen, fmax)
        if isinstance(constraint, Matroid):
            x = indicator(linear_maximize_matroid(constraint, w), n)
        else:
            x = linear_maximize_polytope(constraint, w)
        y = y + delta * (1.0 - y) * x
        if rows is not None:
            rows.append(((step + 1) * delta, float(np.max(y)), fest, se))
    bound = delta * n * fmax_seen
    return MCGResult(y=y, discretization_bound=bound, trace=rows)


def _round_block(x: np.ndarray, ids: list[int], rng) -> None:
    """In-place randomized rounding of one block: mean-preserving pairwise
    moves along e_i - e_j until at most one fractional coordinate remains,
    then an independent Bernoulli for the survivor. Block sums never grow, so
    the rounded block respects its capacity; multilinear extensions of
    submodular f are convex along e_i - e_j and linear per coordinate, so
    E[f(rounded)] >= F(x)."""
    tol = 1e-12
    frac = [j for j in ids if tol < x[j] < 1.0 - tol]
    while len(frac) >= 2:
        i, j = frac[0], frac[1]
        up = min(1.0 - x[i], x[j])
        down = min(x[i], 1.0 - x[j])
        if rng.random() < down / (up + down):
            x[i] += up
            x[j] -= up
        else:
            x[i] -= down
            x[j] += down
        frac = [j for j in frac if tol < x[j] < 1.0 - tol]
    if frac:
        j = frac[0]
        x[j] = 1.0 if rng.random() < x[j] else 0.0
    for j in ids:
        x[j] = 0.0 if x[j] < 0.5 else 1.0


def swap_rounding(y, M: Matroid, seed=None) -> int:
    """Round a matroid-polytope point to a random independent set with
    Pr[u in S] = y_u and E[f(S)] >= F(y) for submodular f.

    Supports uniform and partition matroids (the rounding runs per block,
    which is exact because these matroids are direct sums of uniform ones).
    Integral input rounds to its own set deterministically.
    """
    rng = _rng(seed)
    if not isinstance(M, PartitionMatroid):
        raise ValueError("swap rounding supports uniform and partition matroids")
    y = _finite_vector(y, M.n, "y")
    tol = 1e-9
    if np.any(y < -tol) or np.any(y > 1.0 + tol):
        raise ValueError("point is outside [0,1]^n")
    blocks = [ids_of(b) for b in M.blocks]
    for ids, cap in zip(blocks, M.capacities):
        if sum(y[j] for j in ids) > cap + tol:
            raise ValueError("point is outside the matroid polytope "
                             f"(block sum exceeds capacity {cap})")
    np.clip(y, 0.0, 1.0, out=y)
    for ids in blocks:
        _round_block(y, ids, rng)
    return mask_from_indicator(y)


@dataclass(frozen=True)
class FWConfig:
    """Frank-Wolfe control: step size eps (1/eps is rounded up to an
    integer), plus the smoothness constant L and diameter bound D used for
    the reported additive loss eps*L*D^2."""

    eps: float
    L: float
    D: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0,1)")


@dataclass
class FWResult:
    """Final point and value, the additive loss eps*L*D^2 at the rounded step
    size eps = 1/steps, and the per-iteration trace of the Frank-Wolfe gap
    <s - z, w> of the LP weights w = (1-z) * g (box-normalized coordinates):
    the gain the linear model promises from z towards s."""

    y: np.ndarray
    value: float
    steps: int
    additive_loss_bound: float
    trace: list[float] | None = None


def frank_wolfe_nonmonotone(grad, value, P: DownClosedPolytope,
                            cfg: FWConfig) -> FWResult:
    """Non-monotone Frank-Wolfe ascent for DR-submodular maximization.

    Runs ceil(1/eps) iterations of s <- argmax_{x in P} x . ((1-z) * g) and
    z <- z + eps (1-z) * s in box-normalized coordinates (so iterates stay in
    [0,1]^n and are coordinatewise nondecreasing), then maps back to the
    original box. Guarantee target:
    F(y) >= [m(1-1/e) + (1-m)/e] F(opt) - eps L D^2.
    The trace lists each iteration's gap <s - z, w>, computed from the LP
    weights w and solution s the iteration already has.
    """
    steps = math.ceil(1.0 / cfg.eps)
    eps = 1.0 / steps
    Pn, scale = P.normalized()
    z = np.zeros(P.n)
    gaps = []
    for _ in range(steps):
        g = np.asarray(grad(scale * z), dtype=float)
        room = 1.0 - z
        w = room * (scale * g)
        s = linear_maximize_polytope(Pn, w)
        gaps.append(float((s - z) @ w))
        z = z + eps * room * s
    y = scale * z
    return FWResult(y=y, value=float(value(y)), steps=steps,
                    additive_loss_bound=eps * cfg.L * cfg.D ** 2, trace=gaps)
