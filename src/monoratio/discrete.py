"""Discrete maximization algorithms: double greedy, greedy and random greedy
under cardinality constraints (plus their accelerated threshold/sample
variants), greedy and random greedy under matroid constraints, and the Random
scarecrow baseline.

Every run returns a RunResult whose value is the run's own evaluation of the
returned solution and whose oracle_calls counts the calls consumed by the
run. A run evaluates each set at most once: it reuses the values it holds.
All randomness flows through explicitly seeded numpy generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .constraints import (Matroid, PartitionMatroid, UniformMatroid,
                          _same_ground_set)
from .oracle import SetFunctionOracle, ids_of

__all__ = [
    "RunResult",
    "TraceRow",
    "trace_to_csv",
    "double_greedy",
    "greedy_cardinality",
    "random_greedy_cardinality",
    "threshold_greedy",
    "sample_greedy",
    "threshold_random_greedy",
    "random_greedy_trials",
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
    trace: tuple[TraceRow, ...] | None = None

    @property
    def solution_ids(self) -> list[int]:
        return ids_of(self.solution)

    @property
    def size(self) -> int:
        return self.solution.bit_count()


def _rng(seed) -> np.random.Generator:
    """The generator of a run: a caller's Generator is used as is; any other
    seed makes a fresh generator whose stream and state equal those of
    `np.random.default_rng(seed)`.

    A non-negative Python int seed skips the seed hashing: PCG64 reads the
    cached words of `SeedSequence(seed)` (`_seed_words`).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if type(seed) is int and seed >= 0:
        return np.random.Generator(np.random.PCG64(_seed_words(seed)))
    return np.random.default_rng(seed)


@cache
def _cached_seed_sequence():
    """The ISeedSequence class behind `_seed_words`, defined on first use so
    that importing the package does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class CachedSeedSequence(ISeedSequence):
        def __init__(self, seed: int):
            self.words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            self.words.flags.writeable = False

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for these 4 uint64 words only

    return CachedSeedSequence


# larger than the 5,000 seeds that one guarantee check loops over
@lru_cache(maxsize=8192)
def _seed_words(seed: int):
    """A seed sequence for PCG64 holding the state words of
    `SeedSequence(seed)`, hashed once per seed."""
    return _cached_seed_sequence()(seed)


def _finish(f: SetFunctionOracle, solution: int, value: float,
            start_calls: int, trace) -> RunResult:
    return RunResult(solution=solution, value=value,
                     oracle_calls=f.eval_count - start_calls,
                     trace=tuple(trace) if trace is not None else None)


def double_greedy(f: SetFunctionOracle, seed=None, trace: bool = False) -> RunResult:
    """Randomized double greedy for unconstrained maximization.

    Sweeps the elements once keeping X (grow-up) and Y (shrink-down) sets;
    element u joins X with probability a'/(a'+b') where a' = max(f(u|X), 0)
    and b' = max(-f(u|Y-u), 0) (probability 1 when both vanish). Expected
    value is at least (2 f(OPT) + f(empty) + f(N)) / 4.

    Y starts at N and drops u only when b' > 0, that is when f(Y-u) > f(Y),
    so f(Y) never falls below f(N); the run ends with X = Y and returns
    f(result) >= f(N) for every f, in floating point too. With f(N) >=
    m f(OPT) for an m-monotone f, its expected value attains
    max{m, (2+m)/4} f(OPT).

    f(X) and f(Y) are carried forward rather than re-evaluated, so a run
    makes 2n oracle calls: f(empty) and f(N), then f(X+u) and f(Y-u) for
    each element but the last, where X+u = Y and Y-u = X.
    """
    rng = _rng(seed)
    start = f.eval_count
    rows = [] if trace else None
    n = f.n
    X = 0
    Y = (1 << n) - 1
    fX = f.value(X)
    fY = f.value(Y)
    # one call draws the same values, and leaves the same state, as n
    # scalar random() calls
    uniforms = rng.random(n).tolist()
    for u in range(n):
        bit = 1 << u
        if u < n - 1:
            fXu = f.value(X | bit)
            fYu = f.value(Y & ~bit)
        else:  # X + u = Y and Y - u = X
            fXu, fYu = fY, fX
        a = fXu - fX
        b = fYu - fY
        ap, bp = max(a, 0.0), max(b, 0.0)
        p_add = 1.0 if ap + bp == 0.0 else ap / (ap + bp)
        take = uniforms[u] < p_add
        if take:
            X |= bit
            fX = fXu
        else:
            Y &= ~bit
            fY = fYu
        if rows is not None:
            rows.append(TraceRow(u + 1, u, a, take))
    if X != Y:
        raise RuntimeError(f"double greedy ended with X={X} != Y={Y}")
    return _finish(f, X, fX, start, rows)


def _scan(f: SetFunctionOracle, A: int, candidates):
    """Pairs (u, f(A + u)) for each candidate u outside A, in the given
    order, evaluated by one `f.scan`."""
    cands = [u for u in candidates if not (A >> u) & 1]
    return zip(cands, f.scan(A, cands))


def _best_candidate(pairs, fA):
    """(value, marginal, element) maximizing the marginal val - fA over the
    pairs (u, val), ties by the first pair."""
    best = None
    for u, val in pairs:
        marg = val - fA
        if best is None or marg > best[1]:
            best = (val, marg, u)
    return best


def _greedy(f: SetFunctionOracle, M: Matroid, trace: bool) -> RunResult:
    """Greedy under the matroid M, whose ground set is that of f: add the
    best feasible augmentation while its marginal is non-negative. The trace
    ends with the first rejected element."""
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
        val, marg, u = _best_candidate(_scan(f, A, cands), fA)
        if marg < 0.0:
            if rows is not None:
                rows.append(TraceRow(i, u, marg, False))
            break
        A |= 1 << u
        fA = val
        if rows is not None:
            rows.append(TraceRow(i, u, marg, True))
    return _finish(f, A, fA, start, rows)


def greedy_cardinality(f: SetFunctionOracle, k: int, trace: bool = False) -> RunResult:
    """Classic greedy under at most k elements: greedy on the uniform matroid
    of rank k, so it stops at k elements or at the first negative marginal."""
    return _greedy(f, UniformMatroid(f.n, k), trace)


def _random_greedy(f: SetFunctionOracle, k: int, seeds: list, rule,
                   trace: bool) -> list[RunResult]:
    """Random greedy, one run per seed: per iteration build the candidate
    set M_i of at most k elements, then add a uniform element of M_i with
    probability |M_i|/k (so each member joins with probability exactly 1/k).

    `rule` names how M_i is picked from the positive-marginal elements:
    ("top", k) or ("buckets", k, eps) (see `_pick`). M_i depends on A
    alone, so it is built at the start and after each added element; an
    iteration that adds nothing reuses it. Each run is a `_run` generator
    that draws from its own seed. The runs advance together in rounds: a
    round scans every distinct set A whose M_i some run lacks, in one
    `f._scan_outside` call, and picks all their M_i at once.

    M_i is shared under the key (rule, A): for the oracle's lifetime in its
    state cache (n <= `_STATE_MAX_N`), else for this call. Every run counts
    f(empty) and the n - |A| calls of each scan whose M_i it uses, on
    `f.eval_count` too, whether it made that scan or not. So results and
    counts equal those of the runs made one after the other on fresh
    oracles.
    """
    n = f.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    if not seeds:
        return []
    memo = {} if f._states is None else f._states
    fA = f.value(0)
    f.eval_count += len(seeds) - 1  # every run counts f(empty)
    results = [None] * len(seeds)
    if len(seeds) == 1:  # a lone run needs no rounds: serve each ask as it comes
        for A, fA in _run(f, k, rule, memo, seeds[0], fA, trace, results, 0):
            memo[rule, A] = _pick_all(f, [A], [fA], rule)[0]
        return results
    runs = [_run(f, k, rule, memo, seed, fA, trace, results, r)
            for r, seed in enumerate(seeds)]
    while runs:
        asks = {}  # A -> (f(A), the runs that wait for its M_i)
        for run in runs:
            ask = next(run, None)
            if ask is not None:
                asks.setdefault(ask[0], (ask[1], []))[1].append(run)
        runs = []
        if asks:
            sets = sorted(asks, key=int.bit_count)  # sets of one size adjacent
            for A, top in zip(sets, _pick_all(f, sets, [asks[A][0] for A in sets], rule)):
                memo[rule, A] = top
                waiting = asks[A][1]
                f.eval_count += (len(waiting) - 1) * (n - A.bit_count())
                runs += waiting
    return results


def _run(f: SetFunctionOracle, k: int, rule, memo: dict, seed, fA: float,
         trace: bool, results: list, r: int):
    """Run r of `_random_greedy`, from the empty set, whose value is fA.

    A generator: it takes M_i of its current A from `memo`, counting that
    scan's calls on `f`; when M_i is not there it yields (A, f(A)) and,
    once resumed, finds M_i there. It stores its RunResult in results[r].
    """
    rng = _rng(seed)
    n = f.n
    rows = [] if trace else None
    A = 0
    calls = 1
    top = None  # M_i of the current A; None after A changed
    for i in range(1, k + 1):
        if top is None:
            top = memo.get((rule, A))
            if top is None:
                yield A, fA
                top = memo[rule, A]
            else:
                f.eval_count += n - A.bit_count()
            calls += n - A.bit_count()
        if top and rng.random() < len(top) / k:
            marg, u, fA = top[int(rng.integers(len(top)))]
            A |= 1 << u
            top = None
            if rows is not None:
                rows.append(TraceRow(i, u, marg, True))
        elif rows is not None:
            rows.append(TraceRow(i, None, None, False))
    results[r] = RunResult(A, fA, calls, None if rows is None else tuple(rows))


def _pick_all(f: SetFunctionOracle, sets: list[int], values: list[float], rule):
    """M_i of each set A of `sets` (whose values are `values`) under `rule`:
    a list of (marginal, u, f(A + u)) triples per set, from one scan of
    every element outside every set."""
    g, ids, vals = f._scan_outside(sets)
    marg = vals - np.array(values)[g]
    take = _pick(g, marg, rule)
    triples = list(zip(marg[take].tolist(), ids[take].tolist(), vals[take].tolist()))
    cuts = g[take].searchsorted(range(len(sets) + 1)).tolist()
    return [triples[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _pick(g: np.ndarray, marg: np.ndarray, rule) -> np.ndarray:
    """Indices of the entries making up M_i, set by set, each M_i in its
    order, for flat entries of marginal marg[j] in set g[j] (g ascending,
    ids ascending within a set).

    Only positive marginals count. Each set's entries sort by a key, ties
    by id, and M_i is the first k: the key is -marginal for ("top", k), so
    M_i holds the k best; for ("buckets", k, eps) it is the threshold band
    (see `_bands`), so M_i takes whole bands in order, each by id.
    """
    pos = (marg > 0.0).nonzero()[0]
    if rule[0] == "top":
        key = -marg[pos]
    else:
        band, kept = _bands(g[pos], marg[pos], *rule[1:])
        pos, key = pos[kept], band[kept]
    gs = g[pos]  # also the sets of `order`, which permutes within sets
    order = pos[np.lexsort((key, gs))]  # lexsort is stable: ties by id
    return order[np.arange(len(order)) - gs.searchsorted(gs) < rule[1]]


def _bands(g: np.ndarray, marg: np.ndarray, k: int, eps: float):
    """(band, kept) of each positive marginal marg[j] of set g[j] (g
    ascending), under a descending threshold scan per set.

    A set's thresholds are w_0 = d, its best marginal, and w_t = w_{t-1}
    (1 - eps), rounded step by step as the scalar loop rounds them
    (np.multiply.accumulate), down to the floor eps * d / k. An element's
    band is the first t with marg >= w_t, and it is kept when w_t is at
    least the floor.
    """
    if not len(g):
        return g, g.astype(bool)
    first = np.empty(len(g), dtype=bool)
    first[0] = True
    np.not_equal(g[1:], g[:-1], out=first[1:])
    at = np.cumsum(first) - 1  # row of each entry's set
    d = np.maximum.reduceat(marg, np.flatnonzero(first))
    floor = eps * d / k
    steps = max(1, math.ceil(math.log(eps / k) / math.log1p(-eps)))
    # until every set's last threshold lies below its floor, or no longer
    # falls (subnormal thresholds that round to themselves)
    while True:
        w = np.full((len(d), steps + 1), 1.0 - eps)
        w[:, 0] = d
        np.multiply.accumulate(w, axis=1, out=w)
        if not ((w[:, -1] >= floor) & (w[:, -1] < w[:, -2])).any():
            break
        steps *= 2
    # the band is the count of thresholds above marg; bands are mostly small,
    # so count 8 columns at a time for the entries above all counted so far
    band = np.zeros(len(g), dtype=np.intp)
    rest = np.arange(len(g))
    for lo in range(0, steps + 1, 8):
        cols = w[:, lo:lo + 8]
        above = (cols[at[rest]] > marg[rest, None]).sum(axis=1)
        band[rest] += above
        rest = rest[above == cols.shape[1]]
        if not len(rest):
            break
    return band, band < (w >= floor[:, None]).sum(axis=1)[at]


def random_greedy_cardinality(f: SetFunctionOracle, k: int, seed=None,
                              trace: bool = False) -> RunResult:
    """Random greedy whose M_i holds the k best positive-marginal elements,
    ties by smaller id.

    Restricting M_i to positive marginals never lowers its total marginal,
    so the argmax semantics are preserved.
    """
    return _random_greedy(f, k, [seed], ("top", k), trace)[0]


def random_greedy_trials(f: SetFunctionOracle, k: int, seeds: list,
                         eps: float | None = None) -> list[RunResult]:
    """One run per seed of `random_greedy_cardinality` (eps None) or of
    `threshold_random_greedy` (eps given), in seed order, advanced together.

    Each result equals that of the single-seed function at its seed, and
    `f.eval_count` grows by the sum of their calls. The runs share each M_i
    for the call's duration, and each round scans, in one batch, every set
    whose M_i a run lacks. A run draws from its own generator, so a
    Generator may appear only once among the seeds.
    """
    gens = [seed for seed in seeds if isinstance(seed, np.random.Generator)]
    if len(set(map(id, gens))) < len(gens):
        raise ValueError("a Generator appears twice among the seeds; "
                         "each run draws from its own")
    if eps is None:
        return _random_greedy(f, k, seeds, ("top", k), False)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    return _random_greedy(f, k, seeds, ("buckets", k, eps), False)


def threshold_greedy(f: SetFunctionOracle, k: int, eps: float) -> RunResult:
    """Descending-threshold greedy: the threshold w starts at the best
    singleton marginal d, each full scan adds every element with marginal at
    least w, and w decays by the factor (1-eps) down to the floor (eps/n)*d.

    f(A + u) is evaluated once per A: the values of the singleton scan and of
    a pass are reused by the following passes until an element is accepted.
    """
    n = f.n
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    start = f.eval_count
    fA = f.value(0)
    held = dict(_scan(f, 0, range(n)))  # f(A + u) for the current A
    d = max(val - fA for val in held.values())
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
                val = held.get(u)
                if val is None:
                    val = held[u] = f.value(A | (1 << u))
                if val - fA >= w:
                    A |= 1 << u
                    fA = val
                    held.clear()
            w *= 1.0 - eps
    return _finish(f, A, fA, start, None)


def sample_greedy(f: SetFunctionOracle, k: int, eps: float, seed=None) -> RunResult:
    """Subsampled greedy: each of the k iterations draws
    ceil((n/k) ln(1/eps)) uniform candidates and adds the best of the sample
    when its marginal is non-negative.

    f(A + u) is evaluated once per A: an iteration evaluates only the
    members of its sample whose values it does not hold since A last
    changed.
    """
    n = f.n
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (k={k}, n={n})")
    rng = _rng(seed)
    start = f.eval_count
    A = 0
    fA = f.value(0)
    held = {}  # f(A + u) for the current A
    for _ in range(k):
        cands = [u for u in range(n) if not (A >> u) & 1]
        take = min(math.ceil((n / k) * math.log(1.0 / eps)), len(cands))
        sample = sorted(int(cands[j]) for j in
                        rng.choice(len(cands), size=take, replace=False))
        held.update(_scan(f, A, [u for u in sample if u not in held]))
        val, marg, u = _best_candidate(((u, held[u]) for u in sample), fA)
        if marg >= 0.0:
            A |= 1 << u
            fA = val
            held.clear()
    return _finish(f, A, fA, start, None)


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
    return random_greedy_trials(f, k, [seed], eps)[0]


def greedy_matroid(f: SetFunctionOracle, M: Matroid, trace: bool = False) -> RunResult:
    """Greedy under a matroid constraint: repeatedly add the best feasible
    augmentation while its marginal stays non-negative."""
    _same_ground_set(f.n, M)
    return _greedy(f, M, trace)


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

    A run draws one block up front, rng.random((ceil(k/eps), 4)): iteration
    i reads row i, four uniforms from which `Matroid.partner` draws u and
    its partner under the exchange bijection law (see there).
    Int seeds and passed Generators draw alike; a passed Generator advances
    by exactly 4 ceil(k/eps) doubles, plus, for oracle matroids only, the
    two permutations of the bases that `partner` draws per iteration.

    The marginals, M_i and the table `partner` draws from are functions of
    the solution alone, so they are computed at the start and after each
    accepted swap; an iteration whose swap is rejected reuses them. A run
    evaluates each set of reals at most once: it holds the value of every
    set it evaluated, so a scan evaluates only the reals outside the
    solution whose sets it does not hold, and a candidate swap costs a call
    only the first time its set comes up.

    Runs on one oracle share this per-solution state through the oracle's
    state cache, keyed by (M, S) for the padded solution S: the exchange
    law and the pairs (R + u, f(R + u)) of the scan, R the reals of S and
    u each real outside R. A run that finds them there adds to the values
    it holds the pairs it does not hold yet and counts one call per pair
    added, as its own scan would. Entries live as long as the oracle, and
    the key holds M, so M must not be mutated once a run has used it.
    """
    _same_ground_set(f.n, M)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0,1)")
    rng = _rng(seed)
    start = f.eval_count
    states = f._states
    rows = [] if trace else None
    k = M.rank
    n = M.n
    if k == 0:
        return _finish(f, 0, f.value(0), start, rows)
    free = 2 * k
    real_mask = (1 << n) - 1
    draws = rng.random((math.ceil(k / eps), 4)).tolist()
    # arbitrary starting base: the first k dummies
    S = ((1 << k) - 1) << n
    fS = f.value(0)
    known = {0: fS}  # value of every set of reals the run has evaluated
    law = None  # exchange law of S and its M_i; None after S changed
    for i, x in enumerate(draws, 1):
        if law is None:
            R = S & real_mask
            state = None if states is None else states.get((M, S))
            if state is None:
                sets = [R | (1 << u) for u in range(n)]  # a member u gives R: weight 0
                new = [u for u in range(n) if sets[u] not in known]
                known.update(zip([sets[u] for u in new], f.scan(R, new)))
                w = [known[C] - fS for C in sets]
                law = M.exchange_law(S, M.greedy(w, S, free), free)
                if states is not None:
                    states[M, S] = law, [(C, known[C]) for C in sets if C != R]
            else:
                law, pairs = state
                added = [p for p in pairs if p[0] not in known]
                known.update(added)
                f.eval_count += len(added)
        u, out = M.partner(law, x, rng)
        cand = (S & ~(1 << out)) | (1 << u)
        C = cand & real_mask
        cand_val = known.get(C)
        if cand_val is None:
            cand_val = known[C] = f.value(C)
        delta = cand_val - fS
        improved = cand_val > fS
        if improved:
            S = cand
            fS = cand_val
            law = None
        if rows is not None:
            rows.append(TraceRow(i, u if u < n else None, delta, improved))
    return _finish(f, S & real_mask, fS, start, rows)


def random_baseline(f: SetFunctionOracle, constraint, seed=None) -> RunResult:
    """Scarecrow baseline: a uniformly random feasible set of maximal allowed
    size (k elements; or a full random pick per block for partition
    matroids)."""
    rng = _rng(seed)
    start = f.eval_count
    n = f.n
    if isinstance(constraint, int):
        constraint = UniformMatroid(n, constraint)
    if not isinstance(constraint, Matroid):
        raise ValueError(f"unsupported constraint {constraint!r}")
    _same_ground_set(n, constraint)
    sol = 0
    if isinstance(constraint, PartitionMatroid):
        for bmask, cap in zip(constraint.blocks, constraint.capacities):
            ids = ids_of(bmask)
            take = min(cap, len(ids))
            if take > 0:
                for j in rng.choice(len(ids), size=take, replace=False):
                    sol |= 1 << ids[int(j)]
    else:
        for u in rng.permutation(n):
            cand = sol | (1 << int(u))
            if constraint.is_independent(cand):
                sol = cand
    return _finish(f, sol, f.value(sol), start, None)
