"""Cardinality/matroid constraints and linear maximization over down-closed
polytopes.

Matroids come in three kinds: uniform(k), partition (disjoint blocks with
per-block capacities) and oracle (a user independence test). All take and
return subsets as bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np
from scipy.optimize import linprog

from .oracle import ids_of, mask_of

__all__ = [
    "CardinalityConstraint",
    "Matroid",
    "UniformMatroid",
    "PartitionMatroid",
    "OracleMatroid",
    "partition_matroid_from_text",
    "max_weight_base_disjoint",
    "exchange_map",
    "DownClosedPolytope",
    "matroid_polytope",
    "linear_maximize_polytope",
    "linear_maximize_matroid",
    "InfeasibleError",
]


class InfeasibleError(ValueError):
    """No solution satisfying the requested constraint exists."""


@dataclass(frozen=True)
class CardinalityConstraint:
    """At most k elements out of n."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")

    def is_feasible(self, mask: int) -> bool:
        return mask.bit_count() <= self.k


class Matroid:
    """Independence-oracle interface; subclasses fix the kind."""

    n: int
    rank: int

    def is_independent(self, mask: int) -> bool:
        raise NotImplementedError

    # constraint protocol shared with CardinalityConstraint
    def is_feasible(self, mask: int) -> bool:
        return self.is_independent(mask)


class UniformMatroid(Matroid):
    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        self.n = n
        self.k = k
        self.rank = k

    def is_independent(self, mask: int) -> bool:
        return mask.bit_count() <= self.k

    def __repr__(self):
        return f"UniformMatroid(n={self.n}, k={self.k})"


class PartitionMatroid(Matroid):
    """Disjoint blocks with per-block capacities; elements outside every
    block are free (capacity unlimited is not allowed: every element must be
    covered by exactly one block)."""

    def __init__(self, n: int, blocks, capacities):
        blocks = [mask_of(b) if not isinstance(b, int) else b for b in blocks]
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block")
        cover = 0
        for b in blocks:
            if b & cover:
                raise ValueError("blocks must be disjoint")
            cover |= b
        if cover != (1 << n) - 1:
            raise ValueError("blocks must cover all elements")
        self.n = n
        self.blocks = blocks
        self.capacities = [int(c) for c in capacities]
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be non-negative")
        self.rank = sum(min(c, b.bit_count()) for b, c in zip(blocks, self.capacities))
        self._block_of = {}
        for j, b in enumerate(blocks):
            for u in ids_of(b):
                self._block_of[u] = j

    def block_of(self, u: int) -> int:
        return self._block_of[u]

    def is_independent(self, mask: int) -> bool:
        return all((mask & b).bit_count() <= c
                   for b, c in zip(self.blocks, self.capacities))

    def __repr__(self):
        return f"PartitionMatroid(n={self.n}, blocks={len(self.blocks)}, rank={self.rank})"


class OracleMatroid(Matroid):
    """Matroid given by a black-box independence test.

    The matroid axioms are the caller's responsibility (the test suite spot
    checks them exhaustively for small n). rank is computed by greedy
    completion if not supplied.
    """

    def __init__(self, n: int, indep, rank: int | None = None):
        self.n = n
        self._indep = indep
        if rank is None:
            m = 0
            for u in range(n):
                if indep(m | (1 << u)):
                    m |= 1 << u
            rank = m.bit_count()
        self.rank = rank

    def is_independent(self, mask: int) -> bool:
        return bool(self._indep(mask))


def partition_matroid_from_text(text: str, n: int | None = None) -> PartitionMatroid:
    """Parse a partition matroid from lines `block: id,id,... capacity=c`."""
    blocks, caps = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, body = line.split(":", 1)
            if head.strip() != "block":
                raise ValueError("expected 'block:'")
            ids_part, cap_part = body.rsplit("capacity=", 1)
            ids = [int(t) for t in ids_part.replace(",", " ").split()]
            caps.append(int(cap_part))
            blocks.append(mask_of(ids))
        except Exception as exc:
            raise ValueError(f"bad partition spec on line {lineno}: {raw!r} ({exc})") from exc
    if not blocks:
        raise ValueError("no blocks in partition spec")
    if n is None:
        n = max(max(ids_of(b)) for b in blocks) + 1
    return PartitionMatroid(n, blocks, caps)


def max_weight_base_disjoint(M: Matroid, w, exclude: int = 0) -> int:
    """Max-weight base of M avoiding `exclude`, by weight-sorted greedy.

    Sorts all allowed elements by descending weight (ties by smaller id) and
    adds those that keep the set independent; matroid greedy yields a maximum
    weight base of the restriction for arbitrary real weights. Raises
    InfeasibleError if no base avoids `exclude`.
    """
    w = np.asarray(w, dtype=float)
    order = sorted((u for u in range(M.n) if not (exclude >> u) & 1),
                   key=lambda u: (-w[u], u))
    base = 0
    for u in order:
        cand = base | (1 << u)
        if M.is_independent(cand):
            base = cand
            if base.bit_count() == M.rank:
                return base
    raise InfeasibleError("no base of the matroid avoids the excluded set")


def exchange_map(M: Matroid, S: int, B: int) -> dict[int, int]:
    """Bijection g: B -> S with S - g(u) + u independent for every u in B.

    S and B must be disjoint bases. Uniform matroids pair by sorted id;
    partition matroids pair within blocks and then match leftovers; general
    oracle matroids fall back to maximum bipartite matching on the exchange
    graph (a perfect matching exists for any two matroid bases).
    """
    k = M.rank
    if S & B:
        raise ValueError("bases must be disjoint")
    if S.bit_count() != k or B.bit_count() != k:
        raise ValueError("both sets must be bases (size = rank)")
    if not (M.is_independent(S) and M.is_independent(B)):
        raise ValueError("both sets must be independent")

    s_ids, b_ids = ids_of(S), ids_of(B)
    if isinstance(M, UniformMatroid):
        return dict(zip(b_ids, s_ids))
    if isinstance(M, PartitionMatroid):
        return _partition_exchange(M, s_ids, b_ids)
    return _matching_exchange(M, S, s_ids, b_ids)


def _partition_exchange(M: PartitionMatroid, s_ids, b_ids) -> dict[int, int]:
    by_block_s: dict[int, list[int]] = {}
    for s in s_ids:
        by_block_s.setdefault(M.block_of(s), []).append(s)
    g: dict[int, int] = {}
    leftover_b = []
    for u in b_ids:
        j = M.block_of(u)
        if by_block_s.get(j):
            g[u] = by_block_s[j].pop(0)
        else:
            leftover_b.append(u)
    leftover_s = sorted(s for lst in by_block_s.values() for s in lst)
    # a leftover u sits in a block where S is below capacity, so any partner works
    for u, s in zip(leftover_b, leftover_s):
        g[u] = s
    return g


def _matching_exchange(M: Matroid, S: int, s_ids, b_ids) -> dict[int, int]:
    edges = {u: [s for s in s_ids if M.is_independent((S & ~(1 << s)) | (1 << u))]
             for u in b_ids}
    match_of_s: dict[int, int] = {}

    def augment(u, seen):
        for s in edges[u]:
            if s in seen:
                continue
            seen.add(s)
            if s not in match_of_s or augment(match_of_s[s], seen):
                match_of_s[s] = u
                return True
        return False

    for u in b_ids:
        if not augment(u, set()):
            raise ValueError("exchange matching failed: inputs are not bases "
                             "of a matroid")
    return {u: s for s, u in match_of_s.items()}


# Feasibility tolerance of an enumerated vertex (that of DownClosedPolytope.contains).
_VERTEX_TOL = 1e-9
# Largest number of candidate bases sum_k C(n,k) 2^(n-k) C(rows,k) that
# DownClosedPolytope._vertices enumerates; larger polytopes solve each LP by HiGHS.
_VERTEX_BUDGET = 20_000


def _vertex_candidates(n: int, rows: int) -> int:
    return sum(comb(n, k) * 2 ** (n - k) * comb(rows, k)
               for k in range(min(n, rows) + 1))


@dataclass(frozen=True)
class DownClosedPolytope:
    """P = {x >= 0 : Ax <= b, x <= u} with A, b, u finite and non-negative
    (so 0 in P and P is down-closed). The arrays are read-only copies, so the
    vertex list cached on first use stays valid."""

    A: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def __init__(self, A, b, u):
        A = np.array(A, dtype=float, ndmin=2)
        b = np.array(b, dtype=float).ravel()
        u = np.array(u, dtype=float).ravel()
        if A.shape != (b.size, u.size):
            raise ValueError("A must be (len(b), len(u))")
        for name, arr in (("A", A), ("b", b), ("u", u)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                idx = tuple(int(i) for i in bad[0])
                raise ValueError(f"{name}[{', '.join(map(str, idx))}] = "
                                 f"{arr[idx]} is not finite")
        if np.any(A < 0) or np.any(b < 0) or np.any(u <= 0):
            raise ValueError("A, b must be non-negative and u positive "
                             "(down-closedness)")
        for name, arr in (("A", A), ("b", b), ("u", u)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.u.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return (np.all(x >= -tol) and np.all(x <= self.u + tol)
                and np.all(self.A @ x <= self.b + tol))

    def normalized(self) -> tuple["DownClosedPolytope", np.ndarray]:
        """Rescale so the box bound is all-ones; returns (P', scale) with
        x = scale * z mapping P' back to P."""
        scale = self.u.copy()
        return DownClosedPolytope(self.A * scale, self.b, np.ones_like(scale)), scale

    @cached_property
    def _vertices(self) -> np.ndarray | None:
        """All vertices of P, lexicographically sorted, or None when P has
        more candidate bases than _VERTEX_BUDGET.

        A vertex fixes each coordinate outside a free set F at 0 or u_j and
        solves k = |F| tight rows R of A for x_F, with A[R, F] nonsingular.
        The solves are batched over every (F, R, fixed pattern) of one k;
        points within _VERTEX_TOL of P are clipped to the box and kept when
        Ax <= b + _VERTEX_TOL still holds."""
        n, rows = self.n, self.b.size
        if _vertex_candidates(n, rows) > _VERTEX_BUDGET:
            return None
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        corners = bits * self.u
        points = [corners]
        for k in range(1, min(n, rows) + 1):
            Fs = np.array(list(combinations(range(n), k)))
            Rs = np.array(list(combinations(range(rows), k)))
            # fixed patterns of each F: the corners with every F bit zero
            fmask = (1 << Fs).sum(axis=1)
            pat = np.nonzero((np.arange(1 << n) & fmask[:, None]) == 0)[1]
            fixed = corners[pat.reshape(len(Fs), -1)]                # (nF, nP, n)
            slack = self.b - fixed @ self.A.T                        # (nF, nP, rows)
            M = self.A[Rs[None, :, :, None], Fs[:, None, None, :]]   # (nF, nR, k, k)
            sv = np.linalg.svd(M, compute_uv=False)
            f_i, r_i = np.nonzero(sv[..., -1] > 1e-12 * sv[..., 0])
            rhs = np.take_along_axis(slack[f_i], Rs[r_i][:, None, :], axis=2)
            sol = np.linalg.solve(M[f_i, r_i], rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
            x = fixed[f_i]                                           # (m, nP, n)
            cols = np.broadcast_to(Fs[f_i][:, None, :], sol.shape)
            np.put_along_axis(x, cols, sol, axis=2)
            points.append(x.reshape(-1, n))
        X = np.concatenate(points)
        X = X[np.all((X >= -_VERTEX_TOL) & (X <= self.u + _VERTEX_TOL), axis=1)]
        X = np.clip(X, 0.0, self.u)
        X = X[np.all(X @ self.A.T <= self.b + _VERTEX_TOL, axis=1)]
        return np.unique(X, axis=0)


def matroid_polytope(M: Matroid) -> DownClosedPolytope:
    """Inequality description of the independent-set polytope for uniform and
    partition matroids (the only kinds with a compact exact description here)."""
    n = M.n
    if isinstance(M, UniformMatroid):
        return DownClosedPolytope(np.ones((1, n)), [float(M.k)], np.ones(n))
    if isinstance(M, PartitionMatroid):
        A = np.zeros((len(M.blocks), n))
        for j, bmask in enumerate(M.blocks):
            for u in ids_of(bmask):
                A[j, u] = 1.0
        return DownClosedPolytope(A, [float(c) for c in M.capacities], np.ones(n))
    raise ValueError("matroid_polytope supports uniform and partition matroids")


def linear_maximize_polytope(P: DownClosedPolytope, w) -> np.ndarray:
    """Optimal vertex of max{w.x : x in P}.

    Negative-weight coordinates are pinned to 0 first (valid because P is
    down-closed). A small P answers from its cached vertex list: among the
    vertices that are 0 on every pinned coordinate, the lexicographically
    smallest one whose value w+.x is within a relative 1e-12 of the maximum.
    A P above the vertex budget hands the LP to the HiGHS solver instead.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (P.n,):
        raise ValueError(f"w must have shape ({P.n},)")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"LP weight w[{j}] = {w[j]} is not finite")
    V = P._vertices
    if V is not None:
        V = V[np.all(V[:, w < 0] == 0.0, axis=1)]
        vals = V @ np.maximum(w, 0.0)
        best = vals.max()
        return V[np.argmax(vals >= best - 1e-12 * best)].copy()
    bounds = [(0.0, 0.0) if w[j] < 0 else (0.0, float(P.u[j])) for j in range(P.n)]
    res = linprog(-w, A_ub=P.A, b_ub=P.b, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(
            f"LP failed (status={res.status}, nit={getattr(res, 'nit', '?')}): "
            f"{res.message}")
    x = np.clip(res.x, 0.0, P.u)
    return x


def linear_maximize_matroid(M: Matroid, w) -> int:
    """argmax of sum of w over independent sets, by greedy on positive
    weights; the indicator of the result is an optimal vertex of the matroid
    polytope."""
    w = np.asarray(w, dtype=float)
    order = sorted((u for u in range(M.n) if w[u] > 0), key=lambda u: (-w[u], u))
    best = 0
    for u in order:
        cand = best | (1 << u)
        if M.is_independent(cand):
            best = cand
    return best
