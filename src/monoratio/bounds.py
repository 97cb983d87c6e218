"""Closed-form guarantees and min-max hardness curves.

Every expression maps a monotonicity-ratio value m in [0,1] to a ratio in
[0,1]. Additive epsilon slack terms appearing in the hardness statements are
dropped (they are arbitrary constants); the curves are the epsilon -> 0
limits.

The matroid curve is min over a of max over x in [0,1/2] of
a*A(x) + (1-a)*B(x), with A(x) = (m-2)x^2 + 2x and B(x) = c(1 - (1-m)x),
c = 2(1 - e^{-1/2}). The expression is linear in a and concave in x (A'' =
2(m-2) < 0, B linear), so by Sion's minimax theorem it equals max over x of
min(A(x), B(x)). On [0,1/2] A is nondecreasing (A' >= m) and B is
nonincreasing, so the value is A(1/2) = (m+2)/4 when A(1/2) <= B(1/2),
that is for m >= 2(1-c)/(2c-1) ~ 0.74253, and B at the crossing of A and B
below it. `matroid_hardness` is this closed form. The cardinality curve
divides by max{1, 2(1-a)} and stays numeric: a pruned (a, x) grid plus
golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "guarantee",
    "GUARANTEE_KINDS",
    "cardinality_hardness",
    "matroid_hardness",
    "symmetry_gap_unconstrained",
    "upper_bound_from_output",
    "GuaranteeCurve",
    "evaluate_curve",
    "CURVE_IDS",
    "smallest_grid_crossing",
]

_INV_E = math.exp(-1.0)
_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio step
_RESOLUTION = 2001  # default grid points per axis of the numeric curves


def _check_m(m: float) -> float:
    if not -1e-12 <= m <= 1 + 1e-12:
        raise ValueError("m must be in [0,1]")
    return min(1.0, max(0.0, float(m)))


def _check_resolution(resolution: int) -> None:
    if resolution < 2:
        raise ValueError("resolution must be >= 2")


def _g_unconstrained_alg(m):
    return max(m, (2.0 + m) / 4.0)


def _g_unconstrained_hard(m):
    return 1.0 / (2.0 - m)


def _g_greedy_card(m):
    return m * (1.0 - _INV_E)


def _g_random_greedy_card(m):
    return m * (1.0 - _INV_E) + (1.0 - m) * _INV_E


def _g_greedy_matroid(m):
    return m / 2.0


def _g_rgm(m):
    if m >= 1.0:
        return 0.5
    return (1.0 + m + math.exp(-2.0 / (1.0 - m))) / 4.0


GUARANTEE_KINDS = {
    "unconstrained_alg": _g_unconstrained_alg,
    "unconstrained_hard": _g_unconstrained_hard,
    "greedy_card": _g_greedy_card,
    "random_greedy_card": _g_random_greedy_card,
    "greedy_matroid": _g_greedy_matroid,
    # m(1-e^-T) + (1-m)T e^-T of measured continuous greedy, at T = 1
    "mcg": _g_random_greedy_card,
    "rgm": _g_rgm,
}


def guarantee(kind: str, m: float) -> float:
    """Closed-form guarantee (or hardness) value for one expression kind.

    Kinds: unconstrained_alg, unconstrained_hard, greedy_card,
    random_greedy_card, greedy_matroid, mcg (at time horizon T = 1), rgm.
    """
    m = _check_m(m)
    try:
        fn = GUARANTEE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown guarantee kind {kind!r}; "
                         f"known: {sorted(GUARANTEE_KINDS)}") from None
    return fn(m)


def _golden_section_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] in 40 steps; returns
    (argmax, max)."""
    a, b = lo, hi
    x1 = b - _PHI * (b - a)
    x2 = a + _PHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(40):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _PHI * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _PHI * (b - a)
            f1 = fn(x1)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def _bracket(grid: np.ndarray, j: int) -> tuple[float, float]:
    """The interval one grid step either side of grid[j], clipped to the
    grid's ends."""
    lo, hi = float(grid[0]), float(grid[-1])
    step = (hi - lo) / (len(grid) - 1)
    x = float(grid[j])
    return max(lo, x - step), min(hi, x + step)


def _refined_max(fn, xs: np.ndarray, vals: np.ndarray) -> float:
    """Maximum of fn over [xs[0], xs[-1]]: the better of the dense grid's
    best value (vals = fn(xs)) and one golden-section search within a grid
    step of it.

    The golden-section steps call fn on Python floats, and the curve terms
    return Python floats: they use only arithmetic and _exp, and np.exp
    rounds a float exactly as it rounds the same float inside an array. So
    a step costs a few float operations, not a chain of numpy scalars."""
    j = int(np.argmax(vals))
    _, v = _golden_section_max(fn, *_bracket(xs, j))
    return max(float(vals[j]), v)


# Float bytes of one row block of the (alpha, x) grid: bounds each
# temporary _grid_row_max builds.
_GRID_BLOCK_BYTES = 1 << 18
# Column stride of the row lower bound that prunes the (alpha, x) grid.
_PRUNE_STRIDE = 16


def _exp(x):
    """np.exp, as a Python float for a scalar (math.exp rounds differently)."""
    y = np.exp(x)
    return float(y) if y.ndim == 0 else y


def _grid_row_max(A: np.ndarray, B: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """max over j of alphas[i] * A[j] + (1 - alphas[i]) * B[j], for every i.

    Built in blocks of rows of at most _GRID_BLOCK_BYTES; a row max is
    exact, so the result equals that of the full matrix bit for bit."""
    step = max(1, _GRID_BLOCK_BYTES // (8 * len(A)))
    out = np.empty(len(alphas))
    for lo in range(0, len(alphas), step):
        a = alphas[lo:lo + step, None]
        block = a * A
        block += (1.0 - a) * B
        block.max(axis=1, out=out[lo:lo + step])
    return out


def _first_min_row(A: np.ndarray, B: np.ndarray, alphas: np.ndarray,
                   d: np.ndarray) -> int:
    """First i minimizing max_j (alphas[i]*A[j] + (1-alphas[i])*B[j]) / d[i].

    Every _PRUNE_STRIDE-th column bounds a row from below: a max over a subset
    of its own entries, and dividing by d > 0 rounds monotonically. The row
    with the smallest lower bound is evaluated in full; its value c is at
    least the minimum, so a row whose lower bound exceeds c lies above it.
    Only the other rows, every tie included, are evaluated in full, so the
    result is the full grid's first argmin bit for bit."""
    lower = _grid_row_max(A[::_PRUNE_STRIDE], B[::_PRUNE_STRIDE], alphas) / d
    i = int(np.argmin(lower))
    c = _grid_row_max(A, B, alphas[i:i + 1])[0] / d[i]
    rows = np.flatnonzero(lower <= c)
    return int(rows[np.argmin(_grid_row_max(A, B, alphas[rows]) / d[rows])])


def _nested_min_max(term_a, term_b, denom, x_hi: float,
                    resolution: int) -> float:
    """min over alpha in [0,1] of [max over x in [0,x_hi] of
    alpha*term_a(x) + (1-alpha)*term_b(x)] / denom(alpha).

    Takes the first (alpha, x) grid row minimizing its max over denom
    (_first_min_row evaluates only the rows that can), then refines, by one
    golden-section search each within a grid step, first x and finally
    alpha. The x grid and its terms are built once.
    """
    _check_resolution(resolution)
    xs = np.linspace(0.0, x_hi, resolution)
    A, B = term_a(xs), term_b(xs)
    alphas = np.linspace(0.0, 1.0, resolution)
    j = _first_min_row(A, B, alphas, denom(alphas))

    def outer(alpha: float) -> float:
        f = lambda x: alpha * term_a(x) + (1.0 - alpha) * term_b(x)
        return _refined_max(f, xs, alpha * A + (1.0 - alpha) * B) \
            / float(denom(alpha))

    _, v = _golden_section_max(lambda t: -outer(t), *_bracket(alphas, j))
    return min(outer(float(alphas[j])), -v)


def cardinality_hardness(m: float, resolution: int = _RESOLUTION) -> float:
    """Numeric value of the cardinality-constraint inapproximability curve:

        min_{a in [0,1]} max_{x in [0,1]}
            [a(mx^2+2x-2x^2) + 2(1-a)(1-e^{x-1})(1-(1-m)x)] / max{1, 2(1-a)}
    """
    m = _check_m(m)
    term_a = lambda x: m * x * x + 2.0 * x - 2.0 * x * x
    term_b = lambda x: 2.0 * (1.0 - _exp(x - 1.0)) * (1.0 - (1.0 - m) * x)
    denom = lambda a: np.maximum(1.0, 2.0 * (1.0 - a))
    return _nested_min_max(term_a, term_b, denom, 1.0, resolution)


def matroid_hardness(m: float) -> float:
    """Exact value of the matroid-constraint inapproximability curve:

        min_{a in [0,1]} max_{x in [0,1/2]}
            a(mx^2+2x-2x^2) + 2(1-a)(1-e^{-1/2})(1-(1-m)x)

    By Sion's minimax theorem this is max_x min(A(x), B(x)) with A(x) =
    (m-2)x^2 + 2x nondecreasing and B(x) = c(1-(1-m)x) nonincreasing on
    [0,1/2], c = 2(1-e^{-1/2}) (see the module docstring). It is A(1/2) =
    (m+2)/4 when that is at most B(1/2) = c(1+m)/2, i.e. for m >=
    2(1-c)/(2c-1) ~ 0.74253; below, it is B(x*) at the smaller root x* of
    (2-m)x^2 - qx + c = 0, q = 2 + c(1-m), taken as 2c/(q + sqrt(q^2 -
    4(2-m)c)) to avoid cancellation.
    """
    m = _check_m(m)
    c = 2.0 * (1.0 - math.exp(-0.5))
    top = (m + 2.0) / 4.0
    if top <= c * (1.0 + m) / 2.0:
        return top
    q = 2.0 + c * (1.0 - m)
    x = 2.0 * c / (q + math.sqrt(q * q - 4.0 * (2.0 - m) * c))
    return c * (1.0 - (1.0 - m) * x)


def symmetry_gap_unconstrained(m: float,
                               resolution: int = _RESOLUTION) -> float:
    """Numeric maximum of 2y - (2-m)y^2 over y in [0,1] (the symmetric relaxation
    value of the two-element gap instance); equals 1/(2-m) analytically."""
    m = _check_m(m)
    _check_resolution(resolution)
    f = lambda y: 2.0 * y - (2.0 - m) * y * y
    ys = np.linspace(0.0, 1.0, resolution)
    return _refined_max(f, ys, f(ys))


def upper_bound_from_output(value: float, guarantee_value: float) -> float:
    """Upper bound on the optimum implied by an algorithm output: value over
    its proven approximation ratio."""
    if guarantee_value <= 0.0:
        raise ValueError("approximation ratio must be positive for a finite bound")
    return value / guarantee_value


_HARDNESS_IDS = {
    "cardinality_hardness": cardinality_hardness,
    "matroid_hardness": matroid_hardness,
    "symmetry_gap_unconstrained": symmetry_gap_unconstrained,
}

CURVE_IDS = tuple(sorted(GUARANTEE_KINDS) + sorted(_HARDNESS_IDS))


@dataclass
class GuaranteeCurve:
    """Sampled (m, value) pairs for one guarantee/hardness expression."""

    expression_id: str
    points: list[tuple[float, float]]
    resolution: int

    CSV_HEADER = "m,value,expression_id,resolution"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for m, v in self.points:
            lines.append(f"{m:.10g},{v:.12g},{self.expression_id},{self.resolution}")
        return "\n".join(lines) + "\n"


def evaluate_curve(expression_id: str, num_points: int = 101) -> GuaranteeCurve:
    """Evaluate one expression on a uniform m-grid of num_points >= 1 in
    [0,1] (the mcg curve at time horizon T = 1, the numeric hardness curves
    at their default resolution, the matroid curve exactly; the resolution
    column reads that default for all three)."""
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    ms = np.linspace(0.0, 1.0, num_points)
    if expression_id in GUARANTEE_KINDS:
        pts = [(float(m), guarantee(expression_id, float(m))) for m in ms]
        return GuaranteeCurve(expression_id, pts, resolution=num_points)
    if expression_id in _HARDNESS_IDS:
        fn = _HARDNESS_IDS[expression_id]
        pts = [(float(m), fn(float(m))) for m in ms]
        return GuaranteeCurve(expression_id, pts, resolution=_RESOLUTION)
    raise ValueError(f"unknown expression id {expression_id!r}; known: {CURVE_IDS}")


def smallest_grid_crossing(fn, threshold: float, step: float = 0.001,
                           lo: float = 0.0, hi: float = 1.0) -> float:
    """Smallest grid point m = lo + i*step with fn(m) >= threshold.

    Assumes fn is nondecreasing (verified locally: the returned point passes
    the threshold while its left neighbor does not). Bisects over grid
    indices rather than scanning.
    """
    steps = int(round((hi - lo) / step))
    if fn(lo) >= threshold:
        return lo
    # anchor the bisection at some grid point above the threshold; a coarse
    # scan tolerates float dust right at the top of the range
    b = None
    for i in range(steps, 0, -max(1, steps // 16)):
        if fn(lo + i * step) >= threshold:
            b = i
            break
    if b is None:
        raise ValueError("fn never reaches the threshold on the grid")
    a = 0  # invariant: fn(lo + a*step) < threshold <= fn(lo + b*step)
    while b - a > 1:
        mid = (a + b) // 2
        if fn(lo + mid * step) >= threshold:
            b = mid
        else:
            a = mid
    m_star = lo + b * step
    if fn(m_star) < threshold or fn(m_star - step) >= threshold:
        raise RuntimeError("fn is not monotone around the crossing point")
    return m_star
