"""Discrete maximization algorithms: double greedy, greedy and random greedy
under cardinality constraints (plus their accelerated threshold/sample
variants), greedy and random greedy under matroid constraints, and the Random
scarecrow baseline.

Every run returns a RunResult whose value is a fresh oracle evaluation of the
returned solution and whose oracle_calls counts the calls consumed by the
run. All randomness flows through explicitly seeded numpy generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (CardinalityConstraint, Matroid, PartitionMatroid,
                          UniformMatroid, _matching_exchange)
from .oracle import SetFunctionOracle, ids_of

__all__ = [
    "RunResult",
    "TraceRow",
    "trace_to_csv",
    "double_greedy",
    "best_of_with_ground",
    "greedy_cardinality",
    "random_greedy_cardinality",
    "threshold_greedy",
    "sample_greedy",
    "threshold_random_greedy",
    "greedy_matroid",
    "random_greedy_matroid",
    "random_baseline",
]


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    element: int | None
    marginal: float | None
    accepted: bool


def trace_to_csv(rows) -> str:
    lines = ["iteration,element,marginal,accepted"]
    for r in rows:
        elem = "" if r.element is None else r.element
        marg = "" if r.marginal is None else repr(r.marginal)
        lines.append(f"{r.iteration},{elem},{marg},{int(r.accepted)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunResult:
    solution: int
    value: float
    oracle_calls: int
    seed: int | None = None
    trace: tuple[TraceRow, ...] | None = None

    @property
    def solution_ids(self) -> list[int]:
        return ids_of(self.solution)

    @property
    def size(self) -> int:
        return self.solution.bit_count()


def _rng(seed) -> tuple[np.random.Generator, int | None]:
    if isinstance(seed, np.random.Generator):
        return seed, None
    return np.random.default_rng(seed), seed


def _finish(f: SetFunctionOracle, solution: int, start_calls: int,
            seed: int | None, trace) -> RunResult:
    value = f.value(solution)
    return RunResult(solution=solution, value=value,
                     oracle_calls=f.eval_count - start_calls, seed=seed,
                     trace=tuple(trace) if trace is not None else None)


def double_greedy(f: SetFunctionOracle, seed=None, trace: bool = False) -> RunResult:
    """Randomized double greedy for unconstrained maximization.

    Sweeps the elements once keeping X (grow-up) and Y (shrink-down) sets;
    element u joins X with probability a'/(a'+b') where a' = max(f(u|X), 0)
    and b' = max(-f(u|Y-u), 0) (probability 1 when both vanish). Expected
    value is at least (2 f(OPT) + f(empty) + f(N)) / 4.
    """
    rng, seed = _rng(seed)
    start = f.eval_count
    n = f.n
    rows = [] if trace else None
    X = 0
    Y = (1 << n) - 1
    for u in range(n):
        bit = 1 << u
        a = f.value(X | bit) - f.value(X)
        b = f.value(Y & ~bit) - f.value(Y)
        ap, bp = max(a, 0.0), max(b, 0.0)
        p_add = 1.0 if ap + bp == 0.0 else ap / (ap + bp)
        take = rng.random() < p_add
        if take:
            X |= bit
        else:
            Y &= ~bit
        if rows is not None:
            rows.append(TraceRow(u + 1, u, a, take))
    if X != Y:
        raise RuntimeError(f"double greedy ended with X={X} != Y={Y}")
    return _finish(f, X, start, seed, rows)


def best_of_with_ground(f: SetFunctionOracle, seed=None) -> RunResult:
    """Better of double greedy and the full ground set; achieves the
    max{m, (2+m)/4} unconstrained guarantee."""
    start = f.eval_count
    dg = double_greedy(f, seed=seed)
    full = (1 << f.n) - 1
    ground_value = f.value(full)
    solution = full if ground_value > dg.value else dg.solution
    return _finish(f, solution, start, dg.seed, None)


def _scan(f: SetFunctionOracle, A: int, candidates):
    """Pairs (u, f(A + u)) for each candidate u outside A, in the given
    order, evaluated as one batch."""
    cands = [u for u in candidates if not (A >> u) & 1]
    return zip(cands, f.values([A | (1 << u) for u in cands]).tolist())


def _best_candidate(f, A, fA, candidates):
    """(value, marginal, element) maximizing the marginal, ties by smaller id."""
    best = None
    for u, val in _scan(f, A, candidates):
        marg = val - fA
        if best is None or marg > best[1]:
            best = (val, marg, u)
    return best


def greedy_cardinality(f: SetFunctionOracle, k: int, trace: bool = False) -> RunResult:
    """Classic greedy: k iterations, each adding the best-marginal element
    only when its marginal is non-negative."""
    n = f.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    start = f.eval_count
    rows = [] if trace else None
    A = 0
    fA = f.value(0)
    for i in range(1, k + 1):
        cands = [u for u in range(n) if not (A >> u) & 1]
        if not cands:
            break
        val, marg, u = _best_candidate(f, A, fA, cands)
        accepted = marg >= 0.0
        if accepted:
            A |= 1 << u
            fA = val
        if rows is not None:
            rows.append(TraceRow(i, u, marg, accepted))
    return _finish(f, A, start, None, rows)


def random_greedy_cardinality(f: SetFunctionOracle, k: int, seed=None,
                              trace: bool = False) -> RunResult:
    """Random greedy: per iteration collect the best set M_i of at most k
    positive-marginal elements, then add a uniform element of M_i with
    probability |M_i|/k (so each member joins with probability exactly 1/k).

    Restricting M_i to positive marginals never lowers its total marginal,
    so the argmax semantics are preserved.
    """
    n = f.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    rng, seed = _rng(seed)
    start = f.eval_count
    rows = [] if trace else None
    A = 0
    fA = f.value(0)
    for i in range(1, k + 1):
        scored = []
        for u, val in _scan(f, A, range(n)):
            marg = val - fA
            if marg > 0.0:
                scored.append((marg, u, val))
        scored.sort(key=lambda t: (-t[0], t[1]))
        top = scored[:k]
        if top and rng.random() < len(top) / k:
            marg, u, val = top[int(rng.integers(len(top)))]
            A |= 1 << u
            fA = val
            if rows is not None:
                rows.append(TraceRow(i, u, marg, True))
        elif rows is not None:
            rows.append(TraceRow(i, None, None, False))
    return _finish(f, A, start, seed, rows)


def threshold_greedy(f: SetFunctionOracle, k: int, eps: float) -> RunResult:
    """Descending-threshold greedy: the threshold w starts at the best
    singleton marginal d, each full scan adds every element with marginal at
    least w, and w decays by the factor (1-eps) down to the floor (eps/n)*d.
    """
    n = f.n
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    start = f.eval_count
    fA = f.value(0)
    d = max(val - fA for _, val in _scan(f, 0, range(n)))
    A = 0
    if d > 0.0 and k > 0:
        w = d
        floor = eps * d / n
        while A.bit_count() < k and w >= floor:
            # stays scalar: an accepted element changes the base set of
            # every later evaluation in the same pass
            for u in range(n):
                if A.bit_count() == k:
                    break
                if (A >> u) & 1:
                    continue
                val = f.value(A | (1 << u))
                if val - fA >= w:
                    A |= 1 << u
                    fA = val
            w *= 1.0 - eps
    return _finish(f, A, start, None, None)


def sample_greedy(f: SetFunctionOracle, k: int, eps: float, seed=None) -> RunResult:
    """Subsampled greedy: each of the k iterations draws
    ceil((n/k) ln(1/eps)) uniform candidates and adds the best of the sample
    when its marginal is non-negative."""
    n = f.n
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n (k={k}, n={n})")
    rng, seed = _rng(seed)
    start = f.eval_count
    sample_size = math.ceil((n / k) * math.log(1.0 / eps))
    A = 0
    fA = f.value(0)
    for _ in range(k):
        cands = [u for u in range(n) if not (A >> u) & 1]
        if not cands:
            break
        take = min(sample_size, len(cands))
        sample = sorted(int(cands[j]) for j in
                        rng.choice(len(cands), size=take, replace=False))
        val, marg, u = _best_candidate(f, A, fA, sample)
        if marg >= 0.0:
            A |= 1 << u
            fA = val
    return _finish(f, A, start, seed, None)


def threshold_random_greedy(f: SetFunctionOracle, k: int, eps: float,
                            seed=None) -> RunResult:
    """Threshold-bucketed random greedy.

    Per iteration the candidate set M_i is collected by a descending
    threshold scan (decay 1-eps, floor eps*d/k below the iteration's best
    marginal d) over positive-marginal elements, capped at k elements; the
    random-greedy selection rule is then applied to M_i unchanged. For
    modular objectives the buckets collapse and the run coincides with exact
    random greedy under the same seed.
    """
    n = f.n
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    rng, seed = _rng(seed)
    start = f.eval_count
    A = 0
    fA = f.value(0)
    for _ in range(k):
        marg = {}
        vals = {}
        for u, val in _scan(f, A, range(n)):
            if val - fA > 0.0:
                marg[u] = val - fA
                vals[u] = val
        if not marg:
            continue
        d = max(marg.values())
        bucket: list[int] = []
        chosen = set()
        w = d
        floor = eps * d / k
        while len(bucket) < k and w >= floor:
            for u in sorted(marg):
                if len(bucket) == k:
                    break
                if u not in chosen and marg[u] >= w:
                    bucket.append(u)
                    chosen.add(u)
            w *= 1.0 - eps
        if bucket and rng.random() < len(bucket) / k:
            u = bucket[int(rng.integers(len(bucket)))]
            A |= 1 << u
            fA = vals[u]
    return _finish(f, A, start, seed, None)


def greedy_matroid(f: SetFunctionOracle, M: Matroid, trace: bool = False) -> RunResult:
    """Greedy under a matroid constraint: repeatedly add the best feasible
    augmentation while its marginal stays non-negative."""
    if f.n != M.n:
        raise ValueError("oracle and matroid ground sets differ")
    start = f.eval_count
    rows = [] if trace else None
    A = 0
    fA = f.value(0)
    i = 0
    while True:
        i += 1
        cands = [u for u in range(M.n)
                 if not (A >> u) & 1 and M.is_independent(A | (1 << u))]
        if not cands:
            break
        val, marg, u = _best_candidate(f, A, fA, cands)
        if marg < 0.0:
            if rows is not None:
                rows.append(TraceRow(i, u, marg, False))
            break
        A |= 1 << u
        fA = val
        if rows is not None:
            rows.append(TraceRow(i, u, marg, True))
    return _finish(f, A, start, None, rows)


class _AugmentedMatroid(Matroid):
    """Base matroid plus `extra` dummy elements, truncated at the base rank.

    Dummy elements are free for independence (only the global size cap
    applies), which guarantees a base disjoint from any current base always
    exists. Mirrors the dummy construction used by random greedy for
    matroids: the objective ignores dummies.

    For the built-in kinds, `key[u]` is the class element u pairs within
    and `cap[c]` the number of reals class c admits: partition matroids key
    reals by block and dummies by -1; uniform matroids key every element 0,
    since any bijection between two bases is an exchange. Oracle matroids
    have `key = None` and use independence tests instead.
    """

    def __init__(self, base: Matroid, extra: int):
        self.base = base
        self.extra = extra
        self.n = base.n + extra
        self.rank = base.rank
        self.real_mask = (1 << base.n) - 1
        if isinstance(base, PartitionMatroid):
            self.key = [base.block_of(u) for u in range(base.n)] + [-1] * extra
            self.cap = base.capacities
        elif isinstance(base, UniformMatroid):
            self.key = [0] * self.n
            self.cap = [base.k]
        else:
            self.key = self.cap = None

    def is_independent(self, mask: int) -> bool:
        if mask.bit_count() > self.rank:
            return False
        return self.base.is_independent(mask & self.real_mask)

    def greedy_base_disjoint(self, w, exclude: int) -> int:
        """Max-weight base avoiding the base `exclude`; w indexes real
        elements only (dummies weigh 0).

        Greedy over non-increasing weights, ties by smaller id: the positive
        reals, then the dummies. `exclude` holds at most rank of the 2*rank
        dummies, so the free dummies always complete the base and the greedy
        never reaches a non-positive real.
        """
        n = self.base.n
        reals = sorted((u for u in range(n) if w[u] > 0 and not (exclude >> u) & 1),
                       key=w.__getitem__, reverse=True)  # stable: ties by id
        out = 0
        key = self.key
        if key is None:
            for u in reals:
                if self.is_independent(out | (1 << u)):
                    out |= 1 << u
        else:
            left = list(self.cap)
            for u in reals:
                c = key[u]
                if left[c]:
                    left[c] -= 1
                    out |= 1 << u
        free = ((1 << self.n) - 1) & ~self.real_mask & ~exclude
        for _ in range(self.rank - out.bit_count()):
            low = free & -free  # lowest free dummy
            out |= low
            free ^= low
        return out

    def partner(self, S: int, B: int, rng) -> tuple[int, int]:
        """Draw u uniformly from the base B and return (u, g(u)), where g is
        a random exchange bijection B -> S, so S - g(u) + u is independent.

        Makes the draws of permutation(|S|), permutation(|B|) and
        integers(|B|), in that order, and returns the partner the full
        bijection gives u: S and B are shuffled; each element of B, in
        shuffled order, takes the next element of S in its own class while
        one is left; the leftovers then pair, in shuffled order, with the
        unused elements of S grouped by class in order of first appearance
        in shuffled S. A random pairing, unlike a fixed one, cannot trap the
        swap process in a sub-optimal absorbing state: it matches any
        improving pair with probability >= 1/k.
        """
        s_order, b_ids = ids_of(S), ids_of(B)
        b_order = b_ids[:]
        # shuffling a list makes exactly the draws of permutation(len(list))
        # and permutes it alike, at a fraction of the cost
        rng.shuffle(s_order)
        rng.shuffle(b_order)
        u = b_ids[rng.integers(len(b_ids))]
        key = self.key
        if key is None:
            return u, _matching_exchange(self, S, s_order, b_order)[u]
        pool: dict[int, list[int]] = {}
        for s in s_order:
            pool.setdefault(key[s], []).append(s)
        used = dict.fromkeys(pool, 0)
        slot = leftovers = 0
        for b in b_order:
            c = key[b]
            t = used.get(c)
            if t is not None and t < len(pool[c]):
                if b == u:
                    return u, pool[c][t]
                used[c] = t + 1
            else:
                if b == u:
                    slot = leftovers
                leftovers += 1
        # u is a leftover: the spare list exists only once every element of
        # B has taken its partner from its own class
        spare = [s for c, lst in pool.items() for s in lst[used[c]:]]
        return u, spare[slot]


def random_greedy_matroid(f: SetFunctionOracle, M: Matroid, eps: float,
                          seed=None, trace: bool = False) -> RunResult:
    """Random greedy for matroids with dummy padding and beneficial-swap
    gating.

    The ground set is augmented with 2k dummies the objective ignores; the
    run starts from an all-dummy base and performs ceil(k/eps) iterations of:
    pick the max-weight disjoint base M_i on current marginals, map it onto
    the solution with a random exchange bijection, draw a uniform u in M_i,
    and swap u in only when the swap strictly improves f. Dummies are
    stripped from the returned solution.

    Seeded outputs depend on the draw order. Each iteration makes exactly
    three draws from the generator: permutation(k) of the solution,
    permutation(k) of M_i (the two shuffles of the bijection), then
    integers(k) for the position of u in M_i sorted by id. Only the partner
    of u is computed (`_AugmentedMatroid.partner`), never the whole
    bijection.
    """
    if f.n != M.n:
        raise ValueError("oracle and matroid ground sets differ")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    rng, seed = _rng(seed)
    start = f.eval_count
    rows = [] if trace else None
    k = M.rank
    n = M.n
    if k == 0:
        return _finish(f, 0, start, seed, rows)
    aug = _AugmentedMatroid(M, 2 * k)
    real_mask = aug.real_mask
    iterations = math.ceil(k / eps)
    # arbitrary starting base: the first k dummies
    S = ((1 << k) - 1) << n
    fS = f.value(S & real_mask)
    for i in range(1, iterations + 1):
        s_real = S & real_mask
        w = [0.0] * n
        for u, val in _scan(f, s_real, range(n)):
            w[u] = val - fS
        B = aug.greedy_base_disjoint(w, S)
        u, out = aug.partner(S, B, rng)
        cand = (S & ~(1 << out)) | (1 << u)
        cand_val = f.value(cand & real_mask)
        delta = cand_val - fS
        improved = cand_val > fS
        if improved:
            S = cand
            fS = cand_val
        if rows is not None:
            rows.append(TraceRow(i, u if u < n else None, delta, improved))
    return _finish(f, S & real_mask, start, seed, rows)


def random_baseline(f: SetFunctionOracle, constraint, seed=None) -> RunResult:
    """Scarecrow baseline: a uniformly random feasible set of maximal allowed
    size (k elements; or a full random pick per block for partition
    matroids)."""
    rng, seed = _rng(seed)
    start = f.eval_count
    n = f.n
    if isinstance(constraint, int):
        constraint = CardinalityConstraint(n, constraint)
    sol = 0
    if isinstance(constraint, (CardinalityConstraint, UniformMatroid)):
        k = constraint.k
        if k > 0:
            for j in rng.choice(n, size=k, replace=False):
                sol |= 1 << int(j)
    elif isinstance(constraint, PartitionMatroid):
        for bmask, cap in zip(constraint.blocks, constraint.capacities):
            ids = ids_of(bmask)
            take = min(cap, len(ids))
            if take > 0:
                for j in rng.choice(len(ids), size=take, replace=False):
                    sol |= 1 << ids[int(j)]
    elif isinstance(constraint, Matroid):
        for u in rng.permutation(n):
            cand = sol | (1 << int(u))
            if constraint.is_independent(cand):
                sol = cand
    else:
        raise ValueError(f"unsupported constraint {constraint!r}")
    return _finish(f, sol, start, seed, None)
