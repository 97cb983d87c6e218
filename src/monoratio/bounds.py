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
below it. `matroid_hardness` is this closed form.

The cardinality curve is min over a of max over x in [0,1] of
[a*A(x) + (1-a)*B(x)] / max{1, 2(1-a)}, with the same A and B(x) =
2(1 - e^{x-1})(1 - (1-m)x). The denominator is linear on each half of
[0,1], so the curve is the smaller of two minima, each over a convex
function (a max of functions linear in its parameter):
- a in [0,1/2], s = a/(1-a) in [0,1]: g1(s) = max_x (B + sA)/2. A >= 0 on
  [0,1], so g1 is least at s = 0, and B is nonincreasing (both its factors
  are), so that least value is B(0)/2 = 1 - 1/e exactly;
- a in [1/2,1]: g2(a) = max_x a*A + (1-a)*B, minimized by a golden-section
  search. The max over x is exact (`_argmax_terms`), with no x grid.
On [1/2,1] the objective is linear in a, so by Sion's theorem min_a g2 is
the max over mixtures mu of x of min(E_mu u, E_mu v), with u = (A+B)/2 and
v = A its values at a = 1/2 and a = 1. So every evaluated g2 bounds the
curve from above; min(u, v) at its maximizer bounds min_a g2 from below,
and so does the point where the chord between two maximizers on either
side of the diagonal u = v crosses it. `_cardinality_bracket` returns both
bounds, capped at 1 - 1/e; they meet within 1e-12 (within a few ulp in
practice), and `cardinality_hardness` is the upper one.
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
    "curves_csv",
    "evaluate_curve",
    "CURVE_IDS",
    "smallest_grid_crossing",
]

_INV_E = math.exp(-1.0)
_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio step


def _check_m(m: float) -> float:
    if not -1e-12 <= m <= 1 + 1e-12:
        raise ValueError("m must be in [0,1]")
    return min(1.0, max(0.0, float(m)))


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


def _card_terms(m: float, x: float) -> tuple[float, float]:
    """(A(x), B(x)), the two terms of the cardinality curve."""
    return ((m - 2.0) * x * x + 2.0 * x,
            2.0 * (1.0 - math.exp(x - 1.0)) * (1.0 - (1.0 - m) * x))


def _argmax_terms(m: float, a: float, b: float) -> tuple[float, float]:
    """(A(x*), B(x*)) at a maximizer x* over [0,1] of h = a*A + b*B, for
    a, b >= 0.

    h''' = 2b e^{x-1}(3c-1+cx), c = 1-m, changes sign at most once, from -
    to +, so h'' is least at x0 = (1-3c)/c clipped to [0,1] (x0 = 1 at
    c = 0): h' is concave left of x0 and convex right of it. So h has at
    most one interior local maximum, the zero of h' where h'' < 0, and
    Newton's method from x0 approaches it from one side, since a tangent of
    h' there crosses zero between the iterate and the zero. The steps stop
    where h'' >= 0 (no such zero that way), outside [0,1], or when rounding
    turns a step back. The max is the best of that point, x = 0 and x = 1.
    """
    c = 1.0 - m
    x = min(1.0, max(0.0, (1.0 - 3.0 * c) / c)) if c > 0.0 else 1.0
    step = 0.0
    for _ in range(64):  # a cap only: the steps converge in a few
        e = math.exp(x - 1.0)
        d1 = 2.0 * a * ((m - 2.0) * x + 1.0) + 2.0 * b * (e * (c - 1.0 + c * x) - c)
        d2 = 2.0 * a * (m - 2.0) + 2.0 * b * e * (2.0 * c - 1.0 + c * x)
        if d2 >= 0.0:
            break
        new = -d1 / d2
        if new * step < 0.0 or x + new == x or not 0.0 <= x + new <= 1.0:
            break
        x, step = x + new, new
    return max((_card_terms(m, t) for t in (0.0, 1.0, x)),
               key=lambda t: a * t[0] + b * t[1])


def _cardinality_bracket(m: float) -> tuple[float, float]:
    """(lower, upper) bounds on the cardinality curve at m (see the module
    docstring), from one golden-section search in alpha on [1/2, 1]. The
    chord joins the maximizers of the least evaluated values on either side
    of the diagonal u = v. Both bounds are capped at 1 - 1/e, the exact
    minimum over alpha <= 1/2."""
    evals = []

    def g(alpha: float) -> float:
        A, B = _argmax_terms(m, alpha, 1.0 - alpha)
        value = alpha * A + (1.0 - alpha) * B
        evals.append((value, 0.5 * (A + B), A))
        return -value

    _golden_section_max(g, 0.5, 1.0)
    upper = min(value for value, _, _ in evals)
    lower = max(min(u, v) for _, u, v in evals)
    above = [e for e in evals if e[1] >= e[2]]
    below = [e for e in evals if e[1] < e[2]]
    if above and below:
        (_, u1, v1), (_, u2, v2) = min(above), min(below)
        p = (u1 - v1) / ((u1 - v1) - (u2 - v2))
        lower = max(lower, u1 + p * (u2 - u1))
    flat = 1.0 - _INV_E
    return min(flat, lower), min(flat, upper)


def cardinality_hardness(m: float) -> float:
    """Value of the cardinality-constraint inapproximability curve:

        min_{a in [0,1]} max_{x in [0,1]}
            [a(mx^2+2x-2x^2) + 2(1-a)(1-e^{x-1})(1-(1-m)x)] / max{1, 2(1-a)}

    It is the upper end of `_cardinality_bracket(m)`, whose two ends lie
    within 1e-12 of each other (see the module docstring).
    """
    return _cardinality_bracket(_check_m(m))[1]


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


def symmetry_gap_unconstrained(m: float) -> float:
    """Maximum of 2y - (2-m)y^2 over y in [0,1] (the symmetric relaxation
    value of the two-element gap instance): 1/(2-m), at y = 1/(2-m), the
    same closed form as guarantee("unconstrained_hard", m)."""
    return _g_unconstrained_hard(_check_m(m))


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


def curves_csv(curves) -> str:
    """One CSV of every curve's points: m (10 significant digits), the value
    (12 significant digits) and the expression id, under one header."""
    return "".join(["m,value,expression_id\n"] + [
        f"{m:.10g},{v:.12g},{c.expression_id}\n" for c in curves for m, v in c.points])


def evaluate_curve(expression_id: str, num_points: int = 101) -> GuaranteeCurve:
    """Evaluate one expression on a uniform m-grid of num_points >= 1 in
    [0,1] (the mcg curve at time horizon T = 1)."""
    if num_points < 1:
        raise ValueError(f"num_points must be >= 1, got {num_points}")
    fn = GUARANTEE_KINDS.get(expression_id) or _HARDNESS_IDS.get(expression_id)
    if fn is None:
        raise ValueError(f"unknown expression id {expression_id!r}; known: {CURVE_IDS}")
    ms = np.linspace(0.0, 1.0, num_points)
    return GuaranteeCurve(expression_id, [(float(m), fn(float(m))) for m in ms])


def smallest_grid_crossing(fn, threshold: float, step: float = 0.001) -> float:
    """Smallest grid point m = i*step in [0, 1] with fn(m) >= threshold.

    Assumes fn is nondecreasing (verified locally: the returned point passes
    the threshold while its left neighbor does not). Bisects over grid
    indices rather than scanning.
    """
    steps = int(round(1.0 / step))
    if fn(0.0) >= threshold:
        return 0.0
    # anchor the bisection at some grid point above the threshold; a coarse
    # scan tolerates float dust right at the top of the range
    b = None
    for i in range(steps, 0, -max(1, steps // 16)):
        if fn(i * step) >= threshold:
            b = i
            break
    if b is None:
        raise ValueError("fn never reaches the threshold on the grid")
    a = 0  # invariant: fn(a*step) < threshold <= fn(b*step)
    while b - a > 1:
        mid = (a + b) // 2
        if fn(mid * step) >= threshold:
            b = mid
        else:
            a = mid
    m_star = b * step
    if fn(m_star) < threshold or fn(m_star - step) >= threshold:
        raise RuntimeError("fn is not monotone around the crossing point")
    return m_star
