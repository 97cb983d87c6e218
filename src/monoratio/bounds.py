"""Closed-form guarantees and numeric min-max hardness curves.

Every expression maps a monotonicity-ratio value m in [0,1] to a ratio in
[0,1]. Additive epsilon slack terms appearing in the hardness statements are
dropped (they are arbitrary constants); the curves are the epsilon -> 0
limits.
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
    "golden_section_max",
]

_INV_E = math.exp(-1.0)
_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio step
_RESOLUTION = 2001  # default grid points per axis of the hardness curves


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


def golden_section_max(fn, lo: float, hi: float) -> tuple[float, float]:
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


def _refined_max(fn, xs: np.ndarray, vals: np.ndarray, rounds: int):
    """Maximum of fn over [xs[0], xs[-1]]: the best of the dense grid xs
    (vals = fn(xs)), then golden-section refinement rounds around the
    incumbent, each round shrinking the bracket.

    The golden-section steps call fn on Python floats, and the curve terms
    return Python floats: they use only arithmetic and _exp, and np.exp
    rounds a float exactly as it rounds the same float inside an array. So
    a step costs a few float operations, not a chain of numpy scalars."""
    lo, hi = float(xs[0]), float(xs[-1])
    j = int(np.argmax(vals))
    best_x, best_v = float(xs[j]), float(vals[j])
    span = (hi - lo) / (len(xs) - 1)
    for _ in range(rounds):
        a = max(lo, best_x - span)
        b = min(hi, best_x + span)
        x, v = golden_section_max(fn, a, b)
        if v > best_v:
            best_x, best_v = x, v
        span /= 50.0
    return best_x, best_v


# Float bytes of one row block of the (alpha, x) grid: bounds each
# temporary _grid_row_max builds.
_GRID_BLOCK_BYTES = 1 << 18
# Columns per block of the row bounds that prune the (alpha, x) grid.
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

    With alpha, 1 - alpha >= 0 and d > 0, rounding is monotone, so block
    maxima of A and B (_PRUNE_STRIDE columns a block) bound every row from
    above, and every _PRUNE_STRIDE-th column bounds it from below. A row whose
    lower bound exceeds the smallest upper bound lies strictly above the
    minimum; only the other rows, every tie included, are evaluated in full,
    so the result is the full grid's first argmin bit for bit."""
    starts = np.arange(0, len(A), _PRUNE_STRIDE)
    upper = _grid_row_max(np.maximum.reduceat(A, starts),
                          np.maximum.reduceat(B, starts), alphas) / d
    lower = _grid_row_max(A[starts], B[starts], alphas) / d
    rows = np.flatnonzero(lower <= upper.min())
    return int(rows[np.argmin(_grid_row_max(A, B, alphas[rows]) / d[rows])])


def _nested_min_max(term_a, term_b, denom, x_hi: float,
                    resolution: int, rounds: int) -> float:
    """min over alpha in [0,1] of [max over x in [0,x_hi] of
    alpha*term_a(x) + (1-alpha)*term_b(x)] / denom(alpha).

    Takes the first (alpha, x) grid row minimizing its max over denom
    (_first_min_row evaluates only the rows that can), then refines first x
    and finally alpha by golden section. The x grid and its terms are built
    once.
    """
    _check_resolution(resolution)
    xs = np.linspace(0.0, x_hi, resolution)
    A, B = term_a(xs), term_b(xs)
    alphas = np.linspace(0.0, 1.0, resolution)
    j = _first_min_row(A, B, alphas, denom(alphas))

    def outer(alpha: float) -> float:
        f = lambda x: alpha * term_a(x) + (1.0 - alpha) * term_b(x)
        _, v = _refined_max(f, xs, alpha * A + (1.0 - alpha) * B, rounds)
        return v / float(denom(alpha))

    best_a, best_v = float(alphas[j]), outer(float(alphas[j]))
    span = 1.0 / (resolution - 1)
    for _ in range(rounds):
        a = max(0.0, best_a - span)
        b = min(1.0, best_a + span)
        x, v = golden_section_max(lambda t: -outer(t), a, b)
        if -v < best_v:
            best_a, best_v = x, -v
        span /= 50.0
    return best_v


def cardinality_hardness(m: float, resolution: int = _RESOLUTION,
                         rounds: int = 3) -> float:
    """Numeric value of the cardinality-constraint inapproximability curve:

        min_{a in [0,1]} max_{x in [0,1]}
            [a(mx^2+2x-2x^2) + 2(1-a)(1-e^{x-1})(1-(1-m)x)] / max{1, 2(1-a)}
    """
    m = _check_m(m)
    term_a = lambda x: m * x * x + 2.0 * x - 2.0 * x * x
    term_b = lambda x: 2.0 * (1.0 - _exp(x - 1.0)) * (1.0 - (1.0 - m) * x)
    denom = lambda a: np.maximum(1.0, 2.0 * (1.0 - a))
    return _nested_min_max(term_a, term_b, denom, 1.0, resolution, rounds)


def matroid_hardness(m: float, resolution: int = _RESOLUTION,
                     rounds: int = 3) -> float:
    """Numeric value of the matroid-constraint inapproximability curve:

        min_{a in [0,1]} max_{x in [0,1/2]}
            a(mx^2+2x-2x^2) + 2(1-a)(1-e^{-1/2})(1-(1-m)x)
    """
    m = _check_m(m)
    c = 2.0 * (1.0 - math.exp(-0.5))
    term_a = lambda x: m * x * x + 2.0 * x - 2.0 * x * x
    term_b = lambda x: c * (1.0 - (1.0 - m) * x)
    denom = lambda a: np.ones_like(a)
    return _nested_min_max(term_a, term_b, denom, 0.5, resolution, rounds)


def symmetry_gap_unconstrained(m: float, resolution: int = _RESOLUTION,
                               rounds: int = 3) -> float:
    """Numeric maximum of 2y - (2-m)y^2 over y in [0,1] (the symmetric relaxation
    value of the two-element gap instance); equals 1/(2-m) analytically."""
    m = _check_m(m)
    _check_resolution(resolution)
    f = lambda y: 2.0 * y - (2.0 - m) * y * y
    ys = np.linspace(0.0, 1.0, resolution)
    _, v = _refined_max(f, ys, f(ys), rounds)
    return v


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
    """Evaluate one expression on a uniform m-grid of num_points in [0,1]
    (the mcg curve at time horizon T = 1, the hardness curves at their
    default resolution and rounds)."""
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
