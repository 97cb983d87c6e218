"""Shared fixture builders and independent brute-force oracles for the tests.

Everything here is deliberately naive: expected values computed by these
helpers never reuse the library's optimized code paths.
"""

import math
from itertools import combinations

import numpy as np

from monoratio import (FWResult, GroundSet, SetFunctionOracle, ids_of,
                       mask_of, mixture_objective)
from monoratio.constraints import (_VERTEX_BUDGET, _VERTEX_TOL,
                                   _vertex_candidates)


def table_oracle(table, name="table") -> SetFunctionOracle:
    """Oracle backed by an explicit value table indexed by mask."""
    vals = [float(v) for v in table]
    ground = GroundSet((len(vals) - 1).bit_length())
    return SetFunctionOracle(ground, lambda m: vals[m], name=name)


def modular_oracle(weights) -> SetFunctionOracle:
    w = [float(x) for x in weights]
    ground = GroundSet(len(w))
    return SetFunctionOracle(
        ground, lambda m: sum(w[u] for u in ids_of(m)), name="modular")


def gap_oracle(m: float) -> SetFunctionOracle:
    """Two-element function m*1[S nonempty] + (1-m)(|S| mod 2); its
    monotonicity ratio is exactly m."""
    def fn(mask):
        return m * (mask != 0) + (1.0 - m) * (mask.bit_count() % 2)
    return SetFunctionOracle(GroundSet(2), fn, name=f"gap({m})")


def directed_cut_edge() -> SetFunctionOracle:
    """Directed cut of the single edge 0 -> 1 (n = 2)."""
    return SetFunctionOracle(GroundSet(2), lambda m: 1.0 if m == 0b01 else 0.0,
                             name="cut-edge")


def recording_oracle(f: SetFunctionOracle):
    """(copy, log): a copy of the oracle `f` that shares no state between
    runs and whose `fn` and `ids_fn` append to `log` every mask they
    compute."""
    log = []
    fn, ids_fn = f._fn, f._ids_fn

    def logged_fn(mask):
        log.append(mask)
        return fn(mask)

    def logged_ids_fn(ids):
        log.extend(mask_of(row) for row in ids.tolist())
        return ids_fn(ids)

    g = SetFunctionOracle(f.ground, logged_fn, name=f.name,
                          ids_fn=None if ids_fn is None else logged_ids_fn)
    g._states = None
    return g, log


def every_row_gain_estimates(f: SetFunctionOracle, y, samples: int, rng,
                             known=None):
    """Reference copy of measured continuous greedy's gain estimates that
    evaluates all samples * (n + 1) rows of every step: the sampled sets R_s
    as one batch, then R_s + u as a second one with rows ordered by u. It
    ignores `known`, so a run through it keeps no values between steps."""
    n = y.size
    bits = rng.random((samples, n)) < y
    base_vals = f.values(bits)
    forced = np.repeat(bits[None], n, axis=0)
    forced[np.arange(n), :, np.arange(n)] = True
    vals = f.values(forced.reshape(-1, n)).reshape(n, samples)
    w = (vals - base_vals).mean(axis=1)
    fmax = float(np.max(np.abs(base_vals))) if samples else 0.0
    est = float(base_vals.mean())
    se = float(base_vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return w, est, se, fmax


def as_matrix(masks, n: int) -> np.ndarray:
    """(B, n) boolean matrix of int masks, one row per mask, bit by bit."""
    return np.array([[(m >> u) & 1 for u in range(n)] for m in masks],
                    dtype=bool).reshape(len(masks), n)


def mixture_table(n: int, seed: int) -> np.ndarray:
    """Value table of `apps.mixture_objective(n, seed)`, indexed by mask."""
    f = mixture_objective(n, seed)
    return np.array([f.value(mask) for mask in range(1 << n)])


def mixture_oracle(n: int, seed: int):
    table = mixture_table(n, seed)
    return table_oracle(table, name=f"mix{seed}"), table


def psd_similarity(n: int, seed: int, d: int = 4) -> np.ndarray:
    """Random non-negative PSD similarity (Gram matrix of non-negative
    features)."""
    rng = np.random.default_rng(seed)
    feats = rng.random((n, d))
    return feats @ feats.T


def brute_opt(table, feasible=None):
    """(best value, first best mask) over all masks passing `feasible`."""
    best_v, best_m = -math.inf, None
    for mask in range(len(table)):
        if feasible is not None and not feasible(mask):
            continue
        if table[mask] > best_v:
            best_v, best_m = float(table[mask]), mask
    return best_v, best_m


def naive_monotonicity_ratio(table):
    """Independent all-pairs scan with the same zero convention and
    lexicographic tie-break the library documents."""
    full = len(table) - 1
    best = math.inf
    wS = wT = 0
    for S in range(len(table)):
        fS = table[S]
        T = S
        while True:
            r = 1.0 if fS <= 0.0 else table[T] / fS
            if r < best:
                best, wS, wT = r, S, T
            if T == full:
                break
            T = (T + 1) | S
    return float(best), wS, wT


def naive_weak_ratio(table, family):
    best = math.inf
    for S in family:
        fS = table[S]
        for T in family:
            r = 1.0 if fS <= 0.0 else table[S | T] / fS
            best = min(best, r)
    return float(best)


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


def naive_quadratic(H, h, x) -> float:
    """x'Hx/2 + h'x by a plain double loop."""
    n = len(x)
    return (sum(0.5 * x[i] * H[i][j] * x[j] for i in range(n) for j in range(n))
            + sum(h[j] * x[j] for j in range(n)))


def naive_box_quadratic_min(H, h, u) -> float:
    """Minimum of x'Hx/2 + h'x over the 2^n vertices of the box [0, u].

    When H's diagonal is non-positive every coordinate slice is concave, so
    this is also the minimum over the whole box.
    """
    n = len(u)
    return min(naive_quadratic(H, h, [u[j] if (mask >> j) & 1 else 0.0
                                      for j in range(n)])
               for mask in range(1 << n))


# The candidate rules of the random greedies as they were before the
# vectorized selection (`discrete._pick`), kept as its reference. Each takes
# the (marginal, u, f(A + u)) triples of the positive-marginal elements u of
# one set A, in id order, and returns M_i in its order.
def top_k(pos, k):
    """The k best triples, ties by id."""
    return sorted(pos, key=lambda t: -t[0])[:k]  # stable: ties by id


def buckets(pos, k, eps):
    """A descending threshold scan from the best marginal d (decay 1 - eps,
    floor eps * d / k): each threshold takes the triples first reaching it,
    by id, until k are taken."""
    bucket = []
    if pos:
        desc = sorted(pos, key=lambda t: t[0], reverse=True)  # ties by id
        w = desc[0][0]
        floor, i = eps * w / k, 0
        while len(bucket) < k and w >= floor:
            j = i  # desc[i:j]: the elements first reaching w, taken by id
            while j < len(desc) and desc[j][0] >= w:
                j += 1
            bucket += sorted(desc[i:j], key=lambda t: t[1])
            i, w = j, w * (1.0 - eps)
    return bucket[:k]


def naive_greedy_trajectory(table, k):
    """Replay of the textbook greedy (argmax marginal, accept when >= 0,
    smaller id on ties); returns the list of solution masks per iteration."""
    n = (len(table) - 1).bit_length()
    A = 0
    out = []
    for _ in range(k):
        best = None
        for u in range(n):
            if (A >> u) & 1:
                continue
            marg = table[A | (1 << u)] - table[A]
            if best is None or marg > best[0]:
                best = (marg, u)
        if best is not None and best[0] >= 0:
            A |= 1 << best[1]
        out.append(A)
    return out


def exact_double_greedy_expectation(table):
    """Exact expected output value of the randomized double greedy, by
    enumerating both branches of every coin with their probabilities."""
    n = (len(table) - 1).bit_length()
    full = len(table) - 1

    def rec(u, X, Y, prob):
        if u == n:
            return prob * table[X]
        bit = 1 << u
        a = table[X | bit] - table[X]
        b = table[Y & ~bit] - table[Y]
        ap, bp = max(a, 0.0), max(b, 0.0)
        p_add = 1.0 if ap + bp == 0.0 else ap / (ap + bp)
        total = 0.0
        if p_add > 0.0:
            total += rec(u + 1, X | bit, Y, prob * p_add)
        if p_add < 1.0:
            total += rec(u + 1, X, Y & ~bit, prob * (1.0 - p_add))
        return total

    return rec(0, 0, full, 1.0)


def product_expectation(table, O_mask, probs):
    """E[f(O u D)] for D including element u independently w.p. probs[u],
    by exhaustive enumeration of D's support."""
    n = (len(table) - 1).bit_length()
    w = np.array([1.0])
    for u in range(n):
        w = np.concatenate([w * (1.0 - probs[u]), w * probs[u]])
    return float(sum(w[m] * table[O_mask | m] for m in range(len(table))))


def union_find_forest_indep(edges):
    """Independence test for the graphic matroid of `edges`: a set of edge
    ids is independent iff it contains no cycle."""
    def indep(mask):
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for i, (a, b) in enumerate(edges):
            if not (mask >> i) & 1:
                continue
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    return indep


def coverage_table(n: int, seed: int) -> np.ndarray:
    """Pure weighted-coverage table: monotone submodular (ratio exactly 1)."""
    rng = np.random.default_rng(seed)
    universe = 2 * n
    covers = [int(rng.integers(1, 1 << universe)) for _ in range(n)]
    pt_w = rng.random(universe)
    table = np.zeros(1 << n)
    for mask in range(1 << n):
        cov = 0
        for u in range(n):
            if (mask >> u) & 1:
                cov |= covers[u]
        table[mask] = sum(pt_w[p] for p in range(universe) if (cov >> p) & 1)
    return table


# The numeric min-max evaluator that `bounds` used before its curves had
# closed forms or a duality bracket, kept verbatim as the reference of the
# differential tests: a pruned (alpha, x) grid plus golden-section
# refinement. With resolution 2001 it gives the former curve values.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio step


def _check_resolution(resolution: int) -> None:
    if resolution < 2:
        raise ValueError("resolution must be >= 2")


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


# The vertex enumeration, face filter and Frank-Wolfe loop as they were
# before linear_maximize_polytope kept per-face vertex lists, kept verbatim
# (self renamed P) as the references of the differential tests: the vertex build through the
# along-axis helpers and np.unique(axis=0), a face filter over the whole
# vertex list on every call, and the loop that computes 1 - z twice.
def reference_vertices(P):
    """DownClosedPolytope._vertices of P as a fresh computation."""
    n, rows = P.n, P.b.size
    if _vertex_candidates(n, rows) > _VERTEX_BUDGET:
        return None
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    corners = bits * P.u
    points = [corners]
    for k in range(1, min(n, rows) + 1):
        Fs = np.array(list(combinations(range(n), k)))
        Rs = np.array(list(combinations(range(rows), k)))
        # fixed patterns of each F: the corners with every F bit zero
        fmask = (1 << Fs).sum(axis=1)
        pat = np.nonzero((np.arange(1 << n) & fmask[:, None]) == 0)[1]
        fixed = corners[pat.reshape(len(Fs), -1)]                # (nF, nP, n)
        slack = P.b - fixed @ P.A.T                        # (nF, nP, rows)
        M = P.A[Rs[None, :, :, None], Fs[:, None, None, :]]   # (nF, nR, k, k)
        sv = np.linalg.svd(M, compute_uv=False)
        f_i, r_i = np.nonzero(sv[..., -1] > 1e-12 * sv[..., 0])
        rhs = np.take_along_axis(slack[f_i], Rs[r_i][:, None, :], axis=2)
        sol = np.linalg.solve(M[f_i, r_i], rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        x = fixed[f_i]                                           # (m, nP, n)
        cols = np.broadcast_to(Fs[f_i][:, None, :], sol.shape)
        np.put_along_axis(x, cols, sol, axis=2)
        points.append(x.reshape(-1, n))
    X = np.concatenate(points)
    X = X[np.all((X >= -_VERTEX_TOL) & (X <= P.u + _VERTEX_TOL), axis=1)]
    X = np.clip(X, 0.0, P.u)
    X = X[np.all(X @ P.A.T <= P.b + _VERTEX_TOL, axis=1)]
    return np.unique(X, axis=0)


def reference_vertex_lp(V, w):
    """linear_maximize_polytope on the vertex list V of a polytope: the
    vertices 0 on every negative-weight coordinate, filtered afresh."""
    w = np.array(w, dtype=float)
    V = V[np.all(V[:, w < 0] == 0.0, axis=1)]
    vals = V @ np.maximum(w, 0.0)
    best = vals.max()
    return V[np.argmax(vals >= best - 1e-12 * best)].copy()


def reference_frank_wolfe(grad, value, P, cfg):
    """frank_wolfe_nonmonotone with its LP answered by reference_vertex_lp
    over reference_vertices of the box-normalized polytope."""
    steps = math.ceil(1.0 / cfg.eps)
    eps = 1.0 / steps
    Pn, scale = P.normalized()
    V = reference_vertices(Pn)
    z = np.zeros(P.n)
    gaps = []
    for _ in range(steps):
        g = np.asarray(grad(scale * z), dtype=float)
        w = (1.0 - z) * (scale * g)
        s = reference_vertex_lp(V, w)
        gaps.append(float((s - z) @ w))
        z = z + eps * (1.0 - z) * s
    y = scale * z
    return FWResult(y=y, value=float(value(y)), steps=steps,
                    additive_loss_bound=eps * cfg.L * cfg.D ** 2, trace=gaps)
