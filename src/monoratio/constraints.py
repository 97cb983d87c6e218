"""Matroid constraints and linear maximization over down-closed polytopes.

A cardinality constraint, at most k of n elements, is the uniform matroid
of rank k. `Matroid` is the general matroid, run on its independence test;
partition matroids (uniform(k) is one block) override its exchange law with
a closed form. All take and return subsets as bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .oracle import ids_of, mask_of

__all__ = [
    "Matroid",
    "UniformMatroid",
    "PartitionMatroid",
    "OracleMatroid",
    "partition_matroid_from_text",
    "DownClosedPolytope",
    "matroid_polytope",
    "linear_maximize_polytope",
    "linear_maximize_matroid",
]


def _same_ground_set(n: int, constraint) -> None:
    """ValueError naming both sizes unless `constraint` is over n elements."""
    if constraint.n != n:
        raise ValueError(f"ground sets differ: {n} elements against "
                         f"{constraint.n} in the constraint")


class Matroid:
    """The general matroid: subclasses define `n`, `rank` and
    `is_independent`, and greedy, the exchange law and partner run on
    independence tests alone. Partition matroids override `exchange_law` and
    `partner` with the closed form their blocks give.

    Random greedy pads M with `free` dummies, the elements n..n+free-1: they
    are free for independence and count only towards the rank.
    """

    n: int
    rank: int

    def is_independent(self, mask: int) -> bool:
        raise NotImplementedError

    def _padded_independent(self, mask: int) -> bool:
        """Independence in M padded with dummies (the elements >= n)."""
        return (mask.bit_count() <= self.rank
                and self.is_independent(mask & ((1 << self.n) - 1)))

    def greedy(self, w, exclude: int = 0, free: int = 0) -> int:
        """Max-weight independent set of M padded with `free` dummies that
        avoids `exclude`; w indexes the n real elements (dummies weigh 0).

        Greedy over non-increasing weights, ties by smaller id: the positive
        reals, then the lowest dummies outside `exclude` until the set reaches
        the rank. With free = 0 this is a max-weight independent set of M.
        When `exclude` is a base of the matroid padded with free = 2 * rank
        dummies, it holds at most rank of them, so the result is a max-weight
        base disjoint from `exclude`.
        """
        reals = sorted((u for u in range(self.n) if w[u] > 0 and not (exclude >> u) & 1),
                       key=w.__getitem__, reverse=True)  # stable: ties by id
        out = 0
        for u in reals:
            if out.bit_count() == self.rank:
                break  # a base: no further element joins
            if self.is_independent(out | (1 << u)):  # below the rank: no padding test
                out |= 1 << u
        spare = (((1 << free) - 1) << self.n) & ~exclude
        while spare and out.bit_count() < self.rank:
            low = spare & -spare  # lowest spare dummy
            out |= low
            spare ^= low
        return out

    def exchange_law(self, S: int, B: int, free: int = 0):
        """The table `partner` draws from, for disjoint bases S and B of M
        padded with `free` dummies; build it once per pair of bases.

        It holds the admissible pairs {u: {s : S - s + u independent}} for u
        in B, and both bases' ids.
        """
        s_ids, b_ids = ids_of(S), ids_of(B)
        indep = self._padded_independent
        adm = {u: {s for s in s_ids if indep((S & ~(1 << s)) | (1 << u))}
               for u in b_ids}
        return adm, s_ids, b_ids

    def partner(self, law, x, rng) -> tuple[int, int]:
        """Draw u uniformly from the base B and return (u, g(u)), where g is
        a random exchange bijection B -> S drawn independently of u, so that
        S - g(u) + u is independent. `law` is `exchange_law(S, B, free)`
        and x four uniforms in [0, 1).

        u = B[int(x0 k)], with B sorted by id, and g is a maximum matching on
        the exchange graph of the bases shuffled by `rng`, which draws
        permutation(|S|) and then permutation(|B|).
        """
        adm, s_ids, b_ids = law
        u = b_ids[int(x[0] * len(b_ids))]
        s_order, b_order = s_ids[:], b_ids[:]
        # shuffling a list makes exactly the draws of permutation(len(list))
        rng.shuffle(s_order)
        rng.shuffle(b_order)
        return u, _matching_exchange(adm, s_order, b_order)[u]


class PartitionMatroid(Matroid):
    """Disjoint blocks with per-block capacities; every element of
    range(n) lies in exactly one block. A block is an iterable of element
    ids. `key[u]` is the block of element u, and the dummies of random
    greedy pair in block `dummy_key`."""

    dummy_key = -1

    def __init__(self, n: int, blocks, capacities):
        if len(blocks) != len(capacities):
            raise ValueError("one capacity per block")
        self.key = [-1] * n
        masks = []
        for j, b in enumerate(blocks):
            try:
                ids = list(b)
            except TypeError:
                raise ValueError(f"block {j} is not an iterable of element ids") from None
            for u in ids:
                if not 0 <= u < n:
                    raise ValueError(f"element {u} of block {j} is outside [0, {n})")
                if self.key[u] not in (-1, j):
                    raise ValueError(f"blocks {self.key[u]} and {j} both hold element {u}")
                self.key[u] = j
            masks.append(mask_of(ids))
        if -1 in self.key:
            raise ValueError(f"element {self.key.index(-1)} is in no block")
        for j, c in enumerate(capacities):
            if not (float(c).is_integer() and c >= 0):
                raise ValueError(f"capacity {c} of block {j} is not an integer >= 0")
        self.n = n
        self.blocks = masks
        self.capacities = [int(c) for c in capacities]
        self.rank = sum(min(c, b.bit_count()) for b, c in zip(masks, self.capacities))

    def is_independent(self, mask: int) -> bool:
        # a loop, not all() over a generator: greedy calls this per element
        for b, c in zip(self.blocks, self.capacities):
            if (mask & b).bit_count() > c:
                return False
        return True

    def exchange_law(self, S: int, B: int, free: int = 0):
        """`Matroid.exchange_law` in closed form: per element of B in id order,
        its block's elements of S and count in B; and the spare blocks."""
        s_ids, b_ids = ids_of(S), ids_of(B)
        key = self.key + [self.dummy_key] * free
        pools: dict[int, list[int]] = {}  # S by block
        for s in s_ids:
            pools.setdefault(key[s], []).append(s)
        counts: dict[int, int] = {}  # B by block
        for b in b_ids:
            counts[key[b]] = counts.get(key[b], 0) + 1
        rows = [(b, pools.get(key[b], ()), counts[key[b]]) for b in b_ids]
        # S in block c once per spare element: n_c - m_c times when positive
        spares = [pool for c, pool in pools.items()
                  for _ in range(len(pool) - counts.get(c, 0))]
        return rows, spares

    def partner(self, law, x, rng) -> tuple[int, int]:
        """`Matroid.partner` in closed form. g is the law that, in each block
        c with n_c elements of S and m_c of B, pairs min(n_c, m_c) random
        elements of B with random elements of S, then maps the leftovers of B
        onto the spare elements of S by a uniform bijection. A leftover u of
        block c has n_c < m_c <= capacity, so every pair is an exchange.
        Only the marginal of (u, g(u)) is sampled, from x alone:
        - u = B[int(x0 k)], with B sorted by id;
        - if x1 m_c < n_c (always when m_c <= n_c), g(u) is the element
          int(x2 n_c) of S in block c;
        - otherwise a spare block c' is drawn with probability
          (n_c' - m_c') / L from x2, L the sum of the positive
          n_c' - m_c', and g(u) is the element int(x3 n_c') of S in c'.
        int(x n) is uniform on range(n) up to a bias below n 2^-53. Given
        u, g(u) is each element of S in u's block with probability
        1 / max(n_c, m_c), while an element of another block may have
        probability 0 even when its swap would improve. Nothing is drawn
        from `rng`.
        """
        rows, spares = law
        u, pool, m = rows[int(x[0] * len(rows))]
        n_c = len(pool)
        if x[1] * m < n_c:
            return u, pool[int(x[2] * n_c)]
        pool = spares[int(x[2] * len(spares))]
        return u, pool[int(x[3] * len(pool))]

    def __repr__(self):
        return f"PartitionMatroid(n={self.n}, blocks={len(self.blocks)}, rank={self.rank})"


class UniformMatroid(PartitionMatroid):
    """At most k of n elements: a partition matroid with one block. Its
    dummies pair in the same block as its elements, since any bijection
    between two bases of a uniform matroid is an exchange."""

    dummy_key = 0

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
        super().__init__(n, [range(n)], [k])
        self.k = k

    def is_independent(self, mask: int) -> bool:
        return mask.bit_count() <= self.k

    def __repr__(self):
        return f"UniformMatroid(n={self.n}, k={self.k})"


class OracleMatroid(Matroid):
    """Matroid given by a black-box independence test.

    The matroid axioms are the caller's responsibility (the test suite spot
    checks them exhaustively for small n). rank is computed by greedy
    completion.
    """

    def __init__(self, n: int, indep):
        self.n = n
        self._indep = indep
        m = 0
        for u in range(n):
            if indep(m | (1 << u)):
                m |= 1 << u
        self.rank = m.bit_count()

    def is_independent(self, mask: int) -> bool:
        return bool(self._indep(mask))


def partition_matroid_from_text(text: str, n: int) -> PartitionMatroid:
    """Parse a partition matroid on range(n) from lines
    `block: id,id,... capacity=c`."""
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
            blocks.append(ids)
        except Exception as exc:
            raise ValueError(f"bad partition spec on line {lineno}: {raw!r} ({exc})") from exc
    if not blocks:
        raise ValueError("no blocks in partition spec")
    return PartitionMatroid(n, blocks, caps)


def _matching_exchange(adm, s_ids, b_ids) -> dict[int, int]:
    """Exchange bijection B -> S from a maximum bipartite matching on the
    bases in the orders `s_ids` and `b_ids`, where u in B may pair with s
    in S when s is in `adm[u]`."""
    edges = {u: [s for s in s_ids if s in adm[u]] for u in b_ids}
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


# Feasibility tolerance of an enumerated vertex and of DownClosedPolytope.contains:
# absolute, so a row may be exceeded by 1e-9 whatever its scale.
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
            if not np.isfinite(arr).all():
                idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
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

    def contains(self, x) -> bool:
        """Whether x is in P up to an absolute 1e-9 (_VERTEX_TOL): each bound
        and each row of Ax <= b may be exceeded by 1e-9, whatever the row's
        scale, so for rows x <= 1e-9 and 0.5x <= 0 the point x = 1e-9 is in."""
        x = np.asarray(x, dtype=float)
        return (np.all(x >= -_VERTEX_TOL) and np.all(x <= self.u + _VERTEX_TOL)
                and np.all(self.A @ x <= self.b + _VERTEX_TOL))

    def normalized(self) -> tuple["DownClosedPolytope", np.ndarray]:
        """Rescale so the box bound is all-ones; returns (P', scale) with
        x = scale * z mapping P' back to P."""
        scale = self.u.copy()
        return DownClosedPolytope(self.A * scale, self.b, np.ones_like(scale)), scale

    @cached_property
    def _faces(self) -> dict[bytes, np.ndarray]:
        """The vertex lists of linear_maximize_polytope, keyed by the sign
        pattern (w < 0).tobytes() of its weights: the vertices that are 0 on
        every negative-weight coordinate, in _vertices order (at most 2^n)."""
        return {}

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
            # the advanced indices around the slice put it last: (m, k, nP)
            sol = np.linalg.solve(M[f_i, r_i], slack[f_i[:, None], :, Rs[r_i]])
            x = fixed[f_i]                                           # (m, nP, n)
            x[np.arange(f_i.size)[:, None], :, Fs[f_i]] = sol
            points.append(x.reshape(-1, n))
        X = np.concatenate(points)
        X = X[np.all((X >= -_VERTEX_TOL) & (X <= self.u + _VERTEX_TOL), axis=1)]
        # with the array bound u, clip also maps -0.0 to 0.0, so rows equal
        # as floats are equal as bytes and the dedup below keeps no -0.0
        X = np.clip(X, 0.0, self.u)
        X = X[np.all(X @ self.A.T <= self.b + _VERTEX_TOL, axis=1)]
        if n:  # lexsort needs a key
            X = X[np.lexsort(X.T[::-1])]
        return X[np.r_[True, np.any(X[1:] != X[:-1], axis=1)]]


def matroid_polytope(M: Matroid) -> DownClosedPolytope:
    """Inequality description of the independent-set polytope for uniform and
    partition matroids (the only kinds with a compact exact description here)."""
    if not isinstance(M, PartitionMatroid):
        raise ValueError("matroid_polytope supports uniform and partition matroids")
    A = np.zeros((len(M.blocks), M.n))
    for j, bmask in enumerate(M.blocks):
        for u in ids_of(bmask):
            A[j, u] = 1.0
    return DownClosedPolytope(A, [float(c) for c in M.capacities], np.ones(M.n))


def _finite_vector(x, n: int, name: str) -> np.ndarray:
    """A float copy of x, or ValueError unless it has shape (n,) and finite
    entries."""
    x = np.array(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), not {x.shape}")
    if not np.isfinite(x).all():
        j = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"{name}[{j}] = {x[j]} is not finite")
    return x


def linprog(*args, **kwargs):
    """scipy's `linprog`, imported on the first call: importing scipy.optimize
    costs about 0.6 s and 40 MB, and only a polytope above the vertex budget
    needs it."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def linear_maximize_polytope(P: DownClosedPolytope, w) -> np.ndarray:
    """Optimal vertex of max{w.x : x in P}.

    Negative-weight coordinates are pinned to 0 first (valid because P is
    down-closed). A small P answers from its cached vertex list: among the
    vertices that are 0 on every pinned coordinate, the lexicographically
    smallest one whose value w+.x is within a relative 1e-12 of the maximum.
    The first LP on P pays for the vertex build; the vertices of each set of
    pinned coordinates (a face of P) are filtered once, on the first LP that
    pins exactly that set, and later LPs with the same pins reuse the list.
    A P above the vertex budget hands the LP to the HiGHS solver instead;
    scipy.optimize is imported only then, so a process that never solves
    such an LP starts without it.
    """
    w = _finite_vector(w, P.n, "w")
    V = P._vertices
    if V is not None:
        neg = w < 0
        key = neg.tobytes()
        face = P._faces.get(key)
        if face is None:
            face = P._faces[key] = V[np.all(V[:, neg] == 0.0, axis=1)]
        vals = face @ np.maximum(w, 0.0)
        best = vals.max()
        return face[(vals >= best - 1e-12 * best).argmax()].copy()
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
    weights (`M.greedy`); the indicator of the result is an optimal vertex of
    the matroid polytope."""
    return M.greedy(_finite_vector(w, M.n, "w").tolist())
