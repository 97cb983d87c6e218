import copy
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_opt, directed_cut_edge, exact_double_greedy_expectation,
                     gap_oracle, mixture_oracle, modular_oracle,
                     naive_greedy_trajectory, psd_similarity, recording_oracle,
                     table_oracle, union_find_forest_indep)
from monoratio import (Matroid, OracleMatroid, PartitionMatroid, TraceRow,
                       UniformMatroid, double_greedy, exact_monotonicity_ratio,
                       greedy_cardinality, greedy_matroid, ids_of,
                       image_objective, mask_of, movie_objective, random_baseline,
                       random_greedy_cardinality, random_greedy_matroid,
                       sample_greedy, threshold_greedy, threshold_random_greedy,
                       trace_to_csv)
from monoratio.constraints import _matching_exchange
from monoratio.discrete import _rng
from monoratio.experiments import ALGORITHMS

INV_E = math.exp(-1.0)


# ---------------------------------------------------------------- unconstrained

def test_double_greedy_monotone_modular_returns_ground_set():
    f = modular_oracle([2.0, 1.0, 3.0])
    for seed in range(5):
        r = double_greedy(f, seed=seed)
        assert r.solution == 0b111
        assert r.value == 6.0


def test_double_greedy_constant_function():
    f = table_oracle([4.0] * 8)
    vals = {double_greedy(f, seed=s).value for s in range(10)}
    assert vals == {4.0}


def test_double_greedy_cut_edge_deterministic():
    # on the single directed edge both coins are forced: output is {u} always
    cut = directed_cut_edge()
    for seed in range(50):
        r = double_greedy(cut, seed=seed)
        assert r.solution == 0b01 and r.value == 1.0


def test_double_greedy_mean_matches_exact_branch_tree():
    for seed in [4, 23]:
        f, table = mixture_oracle(4, seed=seed)
        exact = exact_double_greedy_expectation(table)
        vals = np.array([double_greedy(f, seed=s).value for s in range(4000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * max(se, 1e-12)


def test_double_greedy_guarantee_on_fixture():
    f, table = mixture_oracle(5, seed=51)
    opt, _ = brute_opt(table)
    m = exact_monotonicity_ratio(f).ratio
    vals = np.array([double_greedy(f, seed=s).value for s in range(1500)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert vals.mean() >= (2 + m) / 4 * opt - 3 * se


def test_double_greedy_attains_the_better_of_itself_and_the_ground_set():
    f = modular_oracle([1.0, 2.0])
    assert double_greedy(f, seed=0).value == 3.0  # monotone: f(N)

    g = gap_oracle(0.8)
    r = double_greedy(g, seed=1)
    assert r.value >= 0.8  # OPT = 1, max{m, (2+m)/4} = 0.8

    const = table_oracle([2.0] * 4)
    assert double_greedy(const, seed=2).value == 2.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       trace=st.booleans())
def test_double_greedy_never_returns_less_than_the_ground_set(n, data, seed, trace):
    """Y shrinks only when that raises f(Y), and the run returns the final
    Y, so its value is at least f(N) on any signed table, bit for bit."""
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    table = data.draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    r = double_greedy(table_oracle(table), seed, trace=trace)
    assert r.value >= table[-1]
    assert r.value == table[r.solution]


# ------------------------------------------------------------------ cardinality

def test_greedy_modular():
    f = modular_oracle([3.0, 1.0, 2.0])
    r = greedy_cardinality(f, 2)
    assert r.solution == mask_of([0, 2]) and r.value == 5.0


def test_greedy_matches_naive_trajectory_on_coverage():
    for seed in [1, 7, 19]:
        f, table = mixture_oracle(6, seed=seed)
        r = greedy_cardinality(f, 3, trace=True)
        masks = naive_greedy_trajectory(table, 3)
        assert r.solution == masks[-1]
        assert r.value == pytest.approx(table[masks[-1]])


def test_greedy_cut_edge_rejects_negative_marginal():
    cut = directed_cut_edge()
    r = greedy_cardinality(cut, 2, trace=True)
    assert r.solution == 0b01 and r.value == 1.0
    assert [row.accepted for row in r.trace] == [True, False]


def test_greedy_preconditions_and_trace_csv():
    f = modular_oracle([1.0, 2.0])
    with pytest.raises(ValueError):
        greedy_cardinality(f, 3)
    r = greedy_cardinality(f, 2, trace=True)
    csv = trace_to_csv(r.trace)
    assert csv.splitlines()[0] == "iteration,element,marginal,accepted"
    assert len(csv.splitlines()) == 3


def test_greedy_trajectory_is_nondecreasing():
    for seed in range(8):
        f, table = mixture_oracle(6, seed=100 + seed)
        r = greedy_cardinality(f, 4, trace=True)
        A, prev = 0, table[0]
        for row in r.trace:
            if row.accepted:
                A |= 1 << row.element
            assert table[A] >= prev - 1e-12
            prev = table[A]


def test_greedy_recursion_inequality():
    # m f(OPT) - f(A_i) <= (1 - 1/k)(m f(OPT) - f(A_{i-1}))
    k = 3
    for seed in range(12):
        f, table = mixture_oracle(6, seed=300 + seed)
        m = exact_monotonicity_ratio(f).ratio
        opt, _ = brute_opt(table, feasible=lambda mm: mm.bit_count() <= k)
        r = greedy_cardinality(f, k, trace=True)
        A, prev_gap = 0, m * opt - table[0]
        for row in r.trace:
            if row.accepted:
                A |= 1 << row.element
            gap = m * opt - table[A]
            assert gap <= (1 - 1 / k) * prev_gap + 1e-9
            prev_gap = gap


def test_random_greedy_k1_picks_top():
    f = modular_oracle([3.0, 5.0, 1.0])
    for seed in range(10):
        assert random_greedy_cardinality(f, 1, seed=seed).solution == 0b010


def test_random_greedy_membership_probability_bound():
    k = 3
    f, _ = mixture_oracle(7, seed=42)
    seeds = 4000
    counts = np.zeros((k + 1, 7))
    for s in range(seeds):
        r = random_greedy_cardinality(f, k, seed=s, trace=True)
        A = 0
        for i, row in enumerate(r.trace, start=1):
            if row.accepted:
                A |= 1 << row.element
            for u in range(7):
                counts[i, u] += (A >> u) & 1
    for i in range(1, k + 1):
        bound = 1 - (1 - 1 / k) ** i
        sigma = math.sqrt(bound * (1 - bound) / seeds)
        assert np.all(counts[i] / seeds <= bound + 4 * sigma)


def test_random_greedy_guarantee_on_fixture():
    k = 3
    f, table = mixture_oracle(6, seed=8)
    m = exact_monotonicity_ratio(f).ratio
    opt, _ = brute_opt(table, feasible=lambda mm: mm.bit_count() <= k)
    vals = np.array([random_greedy_cardinality(f, k, seed=s).value
                     for s in range(2000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    target = (m * (1 - INV_E) + (1 - m) * INV_E) * opt
    assert vals.mean() >= target - 3 * se


def test_random_greedy_constant_function():
    f = table_oracle([5.0] * 16)
    assert random_greedy_cardinality(f, 2, seed=3).value == 5.0


# ----------------------------------------------------------- accelerated variants

def test_threshold_greedy_matches_exact_on_modular():
    f = modular_oracle([3.0, 1.0, 2.0, 0.5])
    for eps in [0.05, 0.2, 0.5]:
        assert threshold_greedy(f, 2, eps).solution == greedy_cardinality(f, 2).solution


def test_threshold_random_greedy_equals_exact_on_modular():
    f = modular_oracle([3.0, 1.0, 2.0, 0.5, 4.0])
    for seed in range(30):
        a = threshold_random_greedy(f, 2, 0.2, seed=seed)
        b = random_greedy_cardinality(f, 2, seed=seed)
        assert a.solution == b.solution


def test_sample_greedy_matches_exact_when_sample_covers():
    # eps small enough that every iteration samples the whole remainder
    f = modular_oracle([3.0, 1.0, 2.0, 0.5, 4.0])
    r = sample_greedy(f, 2, eps=0.05, seed=0)
    assert r.solution == greedy_cardinality(f, 2).solution


def test_sample_greedy_takes_k_from_zero_to_n():
    f, _ = mixture_oracle(6, seed=71)
    r = sample_greedy(f, 0, 0.5, seed=1)
    assert (r.solution, r.value, r.oracle_calls) == (0, f.value(0), 1)
    for k in (-1, 7):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            sample_greedy(f, k, 0.5, seed=0)


def test_accelerated_variants_near_greedy_on_movie_fixture():
    s = psd_similarity(50, seed=1, d=25)
    k = 10
    base = greedy_cardinality(movie_objective(s, 0.75), k).value
    tg = threshold_greedy(movie_objective(s, 0.75), k, eps=0.1).value
    sg = sample_greedy(movie_objective(s, 0.75), k, eps=0.05, seed=2).value
    trg = threshold_random_greedy(movie_objective(s, 0.75), k, eps=0.1, seed=2).value
    for v in (tg, sg, trg):
        assert v >= 0.95 * base


def test_accelerated_variants_validation_and_feasibility():
    f, _ = mixture_oracle(6, seed=71)
    for fn in (lambda: threshold_greedy(f, 3, 1.5),
               lambda: sample_greedy(f, 3, 0.0, seed=0),
               lambda: threshold_random_greedy(f, 3, -0.1, seed=0)):
        with pytest.raises(ValueError):
            fn()
    for r in (threshold_greedy(f, 3, 0.5),
              sample_greedy(f, 3, 0.5, seed=1),
              threshold_random_greedy(f, 3, 0.5, seed=1)):
        assert r.size <= 3


# ---------------------------------------------------------------------- matroids

def test_greedy_matroid_modular_uniform():
    f = modular_oracle([3.0, 1.0, 2.0, 5.0])
    r = greedy_matroid(f, UniformMatroid(4, 2))
    assert r.solution == mask_of([0, 3]) and r.value == 8.0


def test_greedy_matroid_constant_returns_base():
    f = table_oracle([2.0] * 64)
    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])
    r = greedy_matroid(f, M)
    assert r.size == M.rank  # zero marginals are accepted


def test_greedy_matroid_guarantee_on_fixtures():
    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])
    for seed in range(15):
        f, table = mixture_oracle(6, seed=600 + seed)
        m = exact_monotonicity_ratio(f).ratio
        opt, _ = brute_opt(table, feasible=M.is_independent)
        r = greedy_matroid(f, M)
        assert r.value >= m / 2 * opt - 1e-9
        assert M.is_independent(r.solution)


def test_random_greedy_matroid_modular_converges():
    w = [9.0, 7.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.5]
    f = modular_oracle(w)
    M = UniformMatroid(8, 3)
    vals = [random_greedy_matroid(f, M, 0.1, seed=s).value for s in range(500)]
    assert np.mean(vals) >= 0.95 * 21.0


def test_random_greedy_matroid_never_decreases():
    f, table = mixture_oracle(6, seed=5)
    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])
    for seed in range(20):
        r = random_greedy_matroid(f, M, 0.2, seed=seed, trace=True)
        for row in r.trace:
            if row.accepted:
                assert row.marginal > 0.0
        assert M.is_independent(r.solution)


def test_random_greedy_matroid_guarantee_on_fixture():
    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])
    f, table = mixture_oracle(6, seed=33)
    m = exact_monotonicity_ratio(f).ratio
    opt, _ = brute_opt(table, feasible=M.is_independent)
    vals = np.array([random_greedy_matroid(f, M, 0.1, seed=s).value
                     for s in range(800)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    target = ((1 + m + math.exp(-2 / (1 - m))) / 4 - 0.1 - 0.1) * opt if m < 1 \
        else (0.5 - 0.2) * opt
    assert vals.mean() >= target - 3 * se


def test_random_greedy_matroid_constant():
    f = table_oracle([3.0] * 16)
    r = random_greedy_matroid(f, UniformMatroid(4, 2), 0.25, seed=0)
    assert r.value == 3.0


def test_random_greedy_matroid_rejects_an_oracle_that_is_not_a_matroid():
    # {2} cannot grow by an element of {0, 1}: the family breaks the
    # augmentation axiom, and the bases lose their exchange bijection
    family = {0b000, 0b001, 0b010, 0b100, 0b011}
    M = OracleMatroid(3, family.__contains__)
    for seed in range(20):
        with pytest.raises(ValueError, match="^exchange matching failed: inputs "
                           "are not bases of a matroid$"):
            random_greedy_matroid(modular_oracle([1.0, 2.0, 3.0]), M, 0.1, seed=seed)


def padded_independent(M):
    """Independence test of M padded with dummies (the elements >= M.n):
    dummies are free, and no set exceeds the rank."""
    real = (1 << M.n) - 1
    return lambda mask: mask.bit_count() <= M.rank and M.is_independent(mask & real)


def pairing_key(M):
    """The class each element of the padded M pairs within, or None for an
    oracle matroid: a uniform matroid keys everything 0, a partition matroid
    keys reals by block and dummies by -1."""
    if isinstance(M, UniformMatroid):
        return lambda u: 0
    if isinstance(M, PartitionMatroid):
        return lambda u: M.key[u] if u < M.n else -1
    return None


def full_bijections(M, S, s_order, b_order):
    """Reference for the law that `Matroid.partner` samples: the exchange
    bijections B -> S built whole from orders of both bases. Each element of
    B, in b_order, takes the next element of S of its own class, in s_order,
    while one is left; every bijection of the leftovers onto the unused
    elements of S is then yielded once. Oracle matroids yield the maximum
    matching on the ordered bases."""
    key = pairing_key(M)
    if key is None:
        indep = padded_independent(M)
        adm = {u: {s for s in s_order if indep((S & ~(1 << s)) | (1 << u))}
               for u in b_order}
        yield _matching_exchange(adm, s_order, b_order)
        return
    pool = {}
    for s in s_order:
        pool.setdefault(key(s), []).append(s)
    g, leftover = {}, []
    for u in b_order:
        if pool.get(key(u)):
            g[u] = pool[key(u)].pop(0)
        else:
            leftover.append(u)
    spare = [s for lst in pool.values() for s in lst]
    for order in permutations(spare):
        yield {**g, **dict(zip(leftover, order))}


def exact_bijection_law(M, S, B):
    """P(u, g(u)) as Fractions for u uniform in B and g uniform over the
    bijections of `full_bijections` on all orders of both bases."""
    s_ids, b_ids = ids_of(S), ids_of(B)
    counts, total = Counter(), 0
    for s_order in permutations(s_ids):
        for b_order in permutations(b_ids):
            for g in full_bijections(M, S, s_order, b_order):
                counts.update(g.items())
                total += 1
    return {pair: Fraction(c, total * len(b_ids)) for pair, c in counts.items()}


# midpoints of twelve equal cells: int(x * n) and x * m < c split them exactly
# for every n, m <= 4, so the grid gives the sampler's exact law at rank <= 4
GRID = list(product([(j + 0.5) / 12 for j in range(12)], repeat=4))


def full_order_greedy(M, w, exclude):
    """Reference for `Matroid.greedy` with 2 * rank dummies: independence
    tests along all elements by non-increasing weight, ties by smaller id,
    with the zero-weight dummies ahead of the non-positive reals."""
    n = M.n
    indep = padded_independent(M)
    reals = sorted(range(n), key=lambda u: (-w[u], u))
    order = ([u for u in reals if w[u] > 0] + list(range(n, n + 2 * M.rank))
             + [u for u in reals if w[u] <= 0])
    out = 0
    for u in order:
        if not (exclude >> u) & 1 and indep(out | (1 << u)):
            out |= 1 << u
    return out


def random_base(M, exclude, rng):
    """A base of M padded with 2 * rank dummies avoiding `exclude`, grown in
    a random element order."""
    indep = padded_independent(M)
    out = 0
    for u in rng.permutation(M.n + 2 * M.rank).tolist():
        if not (exclude >> u) & 1 and indep(out | (1 << u)):
            out |= 1 << u
    assert out.bit_count() == M.rank
    return out


@pytest.mark.parametrize("M", [
    UniformMatroid(7, 3),
    PartitionMatroid(7, [[0, 1, 2, 3], [4, 5, 6]], [2, 1]),
    PartitionMatroid(9, [[0, 1, 2], [3, 4], [5, 6, 7, 8]], [1, 1, 2]),
    OracleMatroid(6, union_find_forest_indep([(0, 1), (0, 2), (0, 3),
                                              (1, 2), (1, 3), (2, 3)])),
], ids=["uniform", "partition2", "partition3", "graphic"])
def test_partner_matches_full_bijection(M):
    """The sampled (u, g(u)) follows the law of the whole bijection exactly,
    on the all-dummy base every run starts from and on random bases (the
    first 40; the exact law is slow), and greedy matches its reference."""
    free = 2 * M.rank
    indep = padded_independent(M)
    key = pairing_key(M)
    rng = np.random.default_rng(12)
    cross = 0
    for trial in range(300):
        S = random_base(M, 0, rng) if trial else ((1 << M.rank) - 1) << M.n
        B = random_base(M, S, rng)
        law = M.exchange_law(S, B, free)
        if key is None:
            ref_rng, rng_ = np.random.default_rng(trial), np.random.default_rng(trial)
            x = rng.random(4).tolist()
            u, s = M.partner(law, x, rng_)
            s_order, b_order = ref_rng.permutation(ids_of(S)), ref_rng.permutation(ids_of(B))
            (g,) = full_bijections(M, S, s_order.tolist(), b_order.tolist())
            assert (u, s) == (ids_of(B)[int(x[0] * M.rank)], g[u])
            # the two shuffles are the only draws
            assert rng_.bit_generator.state == ref_rng.bit_generator.state
            assert indep((S & ~(1 << s)) | (1 << u))
        elif trial < 40:
            sampled = Counter(M.partner(law, x, None) for x in GRID)
            law_of_pairs = exact_bijection_law(M, S, B)
            assert {p: Fraction(c, len(GRID)) for p, c in sampled.items()} == law_of_pairs
            for u, s in law_of_pairs:
                assert (B >> u) & 1 and (S >> s) & 1
                assert indep((S & ~(1 << s)) | (1 << u))
                cross += key(u) != key(s)
        # integer weights make ties, which must break toward smaller ids
        w = (rng.normal(size=M.n) if trial % 2 else
             rng.integers(-1, 3, size=M.n).astype(float)).tolist()
        greedy = M.greedy(w, S, free)
        assert greedy == full_order_greedy(M, w, S)
        assert not greedy & S and greedy.bit_count() == M.rank
    if isinstance(M, PartitionMatroid) and not isinstance(M, UniformMatroid):
        assert cross > 0  # leftovers paired across blocks were exercised


@st.composite
def small_matroids(draw):
    """Uniform matroids, and partition matroids with random blocks whose
    capacities run from 0 to above the block size."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return UniformMatroid(n, draw(st.integers(0, n)))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks = [[u for u in range(n) if labels[u] == j] for j in sorted(set(labels))]
    caps = [draw(st.integers(0, len(b) + 2)) for b in blocks]
    return PartitionMatroid(n, blocks, caps)


@settings(max_examples=60, deadline=None)
@given(M=small_matroids(), seed=st.integers(0, 2**32 - 1))
def test_matroid_axioms_and_partner_exchange_property(M, seed):
    indep = [[] for _ in range(M.n + 1)]  # independent sets by size
    for mask in range(1 << M.n):
        if M.is_independent(mask):
            indep[mask.bit_count()].append(mask)
            assert all(M.is_independent(mask & ~(1 << u)) for u in ids_of(mask))
    assert indep[M.rank] and not any(indep[M.rank + 1:])  # rank is the largest size
    # augmentation from each size to the next covers every |S| < |T| pair,
    # given the hereditary property checked above
    for small, large in zip(indep, indep[1:]):
        for S in small:
            for T in large:
                assert any(M.is_independent(S | (1 << u)) for u in ids_of(T & ~S))
    if M.rank == 0:
        return
    indep = padded_independent(M)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        S = random_base(M, 0, rng)
        B = random_base(M, S, rng)
        law = M.exchange_law(S, B, 2 * M.rank)
        x = rng.random(4).tolist()
        state = rng.bit_generator.state
        u, s = M.partner(law, x, rng)
        assert (B >> u) & 1 and (S >> s) & 1
        assert indep((S & ~(1 << s)) | (1 << u))
        assert rng.bit_generator.state == state  # block matroids draw from x only
        # integer weights make ties, which must break toward smaller ids
        w = rng.integers(-1, 3, size=M.n).astype(float).tolist()
        assert M.greedy(w, S, 2 * M.rank) == full_order_greedy(M, w, S)


class K4Forests(Matroid):
    """The graphic matroid of K4 as a direct subclass of the base class."""

    n, rank = 6, 3

    def __init__(self):
        self._indep = union_find_forest_indep([(0, 1), (0, 2), (0, 3),
                                               (1, 2), (1, 3), (2, 3)])

    def is_independent(self, mask):
        return self._indep(mask)


def test_a_direct_matroid_subclass_runs_like_an_oracle_matroid():
    """The base class is the general matroid: a subclass that defines only
    n, rank and is_independent runs random greedy for matroids exactly as
    the oracle matroid with the same independence test."""
    direct, oracle = K4Forests(), OracleMatroid(6, K4Forests().is_independent)
    assert oracle.rank == direct.rank
    for seed in range(8):
        f, _ = mixture_oracle(6, seed=seed)
        g, _ = mixture_oracle(6, seed=seed)
        a = random_greedy_matroid(f, direct, 0.1, seed=seed)
        b = random_greedy_matroid(g, oracle, 0.1, seed=seed)
        assert (a.solution, a.value, a.oracle_calls) == (b.solution, b.value, b.oracle_calls)


def test_random_greedy_matroid_golden():
    """Seeded runs pinned to solutions and values drawn from the exchange
    law, one block of four uniforms per iteration. The call counts are those
    of evaluating each set of reals at most once."""
    f, _ = mixture_oracle(7, seed=8)
    M = PartitionMatroid(7, [[0, 1, 2, 3], [4, 5, 6]], [2, 1])
    got = [(r.solution, r.value, r.oracle_calls)
           for r in (random_greedy_matroid(f, M, 0.1, seed=s) for s in range(6))]
    assert got == [(20, 9.256046344562186, 21), (21, 10.531033574483407, 26),
                   (20, 9.256046344562186, 29), (67, 8.772044191282124, 28),
                   (20, 9.256046344562186, 28), (67, 8.772044191282124, 24)]

    img = image_objective(psd_similarity(30, seed=2, d=10))
    P = PartitionMatroid(30, [range(0, 10), range(10, 20), range(20, 30)], [2, 2, 1])
    got = [(r.solution, r.value, r.oracle_calls)
           for r in (random_greedy_matroid(img, P, 0.2, seed=s) for s in range(4))]
    assert got == [(8352, 97.01004593767361, 278), (8352, 97.01004593767361, 117),
                   (8352, 97.01004593767361, 144), (8352, 97.01004593767361, 169)]
    U = UniformMatroid(30, 4)
    got = [(r.solution, r.value, r.oracle_calls)
           for r in (random_greedy_matroid(img, U, 0.2, seed=s) for s in range(4))]
    assert got == [(8352, 97.01004593767361, 194), (8352, 97.01004593767361, 143),
                   (8352, 97.01004593767361, 116), (272416, 96.48078919794668, 148)]


def test_random_greedy_matroid_recomputes_the_base_only_after_a_swap(monkeypatch):
    """A table oracle gives the same marginals until a swap is accepted, so
    on a fresh oracle the disjoint base is computed once up front and once
    per accepted swap. Runs on one shared oracle compute it once per
    distinct solution S that any of them visits."""
    calls = []  # the solution S of each greedy call
    original = Matroid.greedy

    def counted(self, w, exclude=0, free=0):
        calls.append(exclude)
        return original(self, w, exclude, free)

    monkeypatch.setattr(Matroid, "greedy", counted)
    M = PartitionMatroid(7, [[0, 1, 2, 3], [4, 5, 6]], [2, 1])
    got, visited, fresh_calls = [], set(), 0
    for seed in range(6):
        f, _ = mixture_oracle(7, seed=8)
        calls.clear()
        r = random_greedy_matroid(f, M, 0.1, seed=seed, trace=True)
        accepted = sum(row.accepted for row in r.trace)
        assert len(r.trace) == 30 and accepted > 0
        assert len(calls) == 1 + accepted
        visited.update(calls)
        fresh_calls += len(calls)
        got.append((r.solution, r.value, r.oracle_calls))
    assert got == [(20, 9.256046344562186, 21), (21, 10.531033574483407, 26),
                   (20, 9.256046344562186, 29), (67, 8.772044191282124, 28),
                   (20, 9.256046344562186, 28), (67, 8.772044191282124, 24)]
    f, _ = mixture_oracle(7, seed=8)
    calls.clear()
    shared = [random_greedy_matroid(f, M, 0.1, seed=seed) for seed in range(6)]
    assert len(calls) == len(visited) < fresh_calls  # every run starts at one S
    assert set(calls) == visited
    assert [(r.solution, r.value, r.oracle_calls) for r in shared] == got


# ---------------------------------------------------------------------- baseline

def test_random_baseline_sizes():
    f, _ = mixture_oracle(6, seed=0)
    for seed in range(10):
        run = random_baseline(f, 3, seed=seed)
        assert run.size == 3
        # an int k draws as the uniform matroid of rank k does
        assert run.solution == random_baseline(f, UniformMatroid(6, 3), seed=seed).solution
    assert random_baseline(f, 0, seed=1).solution == 0
    for k in (-1, 7):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            random_baseline(f, k, seed=0)

    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 1])
    for seed in range(10):
        r = random_baseline(f, M, seed=seed)
        assert r.size == 2
        assert M.is_independent(r.solution)


def test_random_baseline_uniformity():
    f, _ = mixture_oracle(4, seed=0)
    counts = np.zeros(4)
    for s in range(4000):
        for u in random_baseline(f, 2, seed=s).solution_ids:
            counts[u] += 1
    assert np.all(np.abs(counts / 4000 - 0.5) < 0.05)


def test_random_baseline_rejects_a_constraint_on_another_ground_set():
    f, _ = mixture_oracle(5, seed=0)
    for constraint in (PartitionMatroid(8, [[0, 1, 2, 3], [4, 5, 6, 7]], [1, 1]),
                       UniformMatroid(8, 2)):
        with pytest.raises(ValueError, match="5 elements against 8"):
            random_baseline(f, constraint, seed=0)


# -------------------------------------------------------------------- invariants

def test_determinism_fixed_seed():
    f, _ = mixture_oracle(6, seed=77)
    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])
    runs = [
        lambda: double_greedy(f, seed=5),
        lambda: random_greedy_cardinality(f, 3, seed=5),
        lambda: sample_greedy(f, 3, 0.3, seed=5),
        lambda: threshold_random_greedy(f, 3, 0.3, seed=5),
        lambda: random_greedy_matroid(f, M, 0.2, seed=5),
        lambda: random_baseline(f, M, seed=5),
    ]
    for make in runs:
        a, b = make(), make()
        assert a.solution == b.solution and a.value == b.value


def test_run_result_value_is_the_value_of_the_solution():
    f, table = mixture_oracle(5, seed=10)
    r = random_greedy_cardinality(f, 2, seed=0)
    assert r.value == table[r.solution]
    assert r.oracle_calls > 0


# ------------------------------------------------- query-once differential
# Reference copies of the rescanning algorithms: each iteration evaluates
# every set it needs, whether or not the solution changed since the last
# one. Each returns (solution, trace rows or None) and makes the draws the
# library versions make, from the generator it is given.

def rescanning_double_greedy(f, rng):
    X, Y, rows = 0, (1 << f.n) - 1, []
    for u in range(f.n):
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
        rows.append(TraceRow(u + 1, u, a, take))
    return X, rows


def rescanning_random_greedy(f, k, rng):
    A, fA, rows = 0, f.value(0), []
    for i in range(1, k + 1):
        scored = []
        for u in range(f.n):
            if not (A >> u) & 1:
                val = f.value(A | (1 << u))
                if val - fA > 0.0:
                    scored.append((val - fA, u, val))
        top = sorted(scored, key=lambda t: (-t[0], t[1]))[:k]
        if top and rng.random() < len(top) / k:
            marg, u, fA = top[int(rng.integers(len(top)))]
            A |= 1 << u
            rows.append(TraceRow(i, u, marg, True))
        else:
            rows.append(TraceRow(i, None, None, False))
    return A, rows


def rescanning_threshold_greedy(f, k, eps):
    n = f.n
    fA = f.value(0)
    d = max(f.value(1 << u) - fA for u in range(n))
    A = 0
    if d > 0.0 and k > 0:
        w = d
        while A.bit_count() < k and w >= eps * d / n:
            for u in range(n):
                if A.bit_count() == k:
                    break
                if not (A >> u) & 1:
                    val = f.value(A | (1 << u))
                    if val - fA >= w:
                        A, fA = A | (1 << u), val
            w *= 1.0 - eps
    return A, None


def rescanning_sample_greedy(f, k, eps, rng):
    n = f.n
    A, fA = 0, f.value(0)
    for _ in range(k):
        cands = [u for u in range(n) if not (A >> u) & 1]
        if not cands:
            break
        size = math.ceil((n / k) * math.log(1.0 / eps))
        sample = sorted(cands[j] for j in
                        rng.choice(len(cands), size=min(size, len(cands)), replace=False))
        marg = {u: f.value(A | (1 << u)) - fA for u in sample}
        u = max(sample, key=marg.__getitem__)  # ties by smaller id
        if marg[u] >= 0.0:
            A |= 1 << u
            fA = f.value(A)
    return A, None


def rescanning_threshold_random_greedy(f, k, eps, rng):
    A, fA = 0, f.value(0)
    for _ in range(k):
        vals = {u: f.value(A | (1 << u)) for u in range(f.n) if not (A >> u) & 1}
        marg = {u: val - fA for u, val in vals.items() if val - fA > 0.0}
        if not marg:
            continue
        d = max(marg.values())
        bucket, w = [], d
        while len(bucket) < k and w >= eps * d / k:
            for u in sorted(marg):
                if len(bucket) == k:
                    break
                if u not in bucket and marg[u] >= w:
                    bucket.append(u)
            w *= 1.0 - eps
        if rng.random() < len(bucket) / k:
            u = bucket[int(rng.integers(len(bucket)))]
            A, fA = A | (1 << u), vals[u]
    return A, None


def rescanning_random_greedy_matroid(f, M, eps, rng):
    k, n = M.rank, M.n
    if k == 0:
        return 0, []
    real = (1 << n) - 1
    S = ((1 << k) - 1) << n
    fS = f.value(0)
    rows = []
    for i, x in enumerate(rng.random((math.ceil(k / eps), 4)).tolist(), 1):
        w = [0.0 if (S >> u) & 1 else f.value((S & real) | (1 << u)) - fS
             for u in range(n)]
        law = M.exchange_law(S, M.greedy(w, S, 2 * k), 2 * k)
        u, out = M.partner(law, x, rng)
        cand = (S & ~(1 << out)) | (1 << u)
        cand_val = f.value(cand & real)
        improved = cand_val > fS
        rows.append(TraceRow(i, u if u < n else None, cand_val - fS, improved))
        if improved:
            S, fS = cand, cand_val
    return S & real, rows


@st.composite
def differential_cases(draw, max_n=8):
    """A fixture oracle factory (a mixture table without a kernel, or an
    image or movie objective with one), k, eps and a uniform, partition or
    graphic matroid, on n <= max_n elements."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["mixture", "image", "movie"]))
    if kind == "mixture":
        _, table = mixture_oracle(n, seed)
        make = lambda: table_oracle(table)
    elif kind == "image":
        make = lambda: image_objective(psd_similarity(n, seed))
    else:
        lam = draw(st.sampled_from([0.3, 0.8, 1.0]))
        make = lambda: movie_objective(psd_similarity(n, seed), lam)
    k = draw(st.integers(0, n))
    eps = draw(st.sampled_from([0.1, 0.3, 0.6]))
    matroid = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if matroid == "uniform":
        M = UniformMatroid(n, draw(st.integers(0, n)))
    elif matroid == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[u for u in range(n) if labels[u] == j] for j in sorted(set(labels))]
        M = PartitionMatroid(n, blocks, [draw(st.integers(0, len(b))) for b in blocks])
    else:  # n edges, parallel ones allowed, on four vertices
        edges = draw(st.lists(st.sampled_from(list(combinations(range(4), 2))),
                              min_size=n, max_size=n))
        M = OracleMatroid(n, union_find_forest_indep(edges))
    return make, k, eps, M


@settings(max_examples=80, deadline=None)
@given(case=differential_cases(), seed=st.integers(0, 2**32 - 1))
def test_query_once_algorithms_match_the_rescanning_references(case, seed):
    """Reusing held values changes nothing but the oracle call count: same
    solution, value, trace and generator state as the rescanning reference,
    with at most its calls, and exactly 2n calls for double greedy."""
    make, k, eps, M = case
    pairs = [
        (lambda f, g: double_greedy(f, g, trace=True), rescanning_double_greedy),
        (lambda f, g: random_greedy_cardinality(f, k, g, trace=True),
         lambda f, g: rescanning_random_greedy(f, k, g)),
        (lambda f, g: threshold_greedy(f, k, eps),
         lambda f, g: rescanning_threshold_greedy(f, k, eps)),
        (lambda f, g: threshold_random_greedy(f, k, eps, g),
         lambda f, g: rescanning_threshold_random_greedy(f, k, eps, g)),
        (lambda f, g: random_greedy_matroid(f, M, eps, g, trace=True),
         lambda f, g: rescanning_random_greedy_matroid(f, M, eps, g)),
        (lambda f, g: sample_greedy(f, k, eps, g),
         lambda f, g: rescanning_sample_greedy(f, k, eps, g)),
    ]
    for run, reference in pairs:
        f, g = make(), np.random.default_rng(seed)
        got = run(f, g)
        f_ref, g_ref = make(), np.random.default_rng(seed)
        solution, rows = reference(f_ref, g_ref)
        value = f_ref.value(solution)
        assert (got.solution, got.value) == (solution, value)
        assert got.trace == (tuple(rows) if rows is not None else None)
        assert g.bit_generator.state == g_ref.bit_generator.state
        assert got.oracle_calls <= f_ref.eval_count
    assert double_greedy(make(), seed).oracle_calls == 2 * M.n
    # greedy under k elements is greedy on the uniform matroid of rank k, and
    # it ends where the textbook greedy, which rescans after a rejection, ends
    f = make()
    got = greedy_cardinality(f, k, trace=True)
    ref = greedy_matroid(make(), UniformMatroid(f.n, k), trace=True)
    assert ((got.solution, got.value, got.trace, got.oracle_calls)
            == (ref.solution, ref.value, ref.trace, ref.oracle_calls))
    table = [f.value(mask) for mask in range(1 << f.n)]
    assert got.solution == (naive_greedy_trajectory(table, k)[-1] if k else 0)


@settings(max_examples=60, deadline=None)
@given(case=differential_cases(), seed=st.integers(0, 2**64))
def test_random_greedy_matroid_int_seed_matches_the_reference(case, seed):
    """An int seed draws what numpy's Generator of the same seed draws, as
    the reference does."""
    make, _, eps, M = case
    got = random_greedy_matroid(make(), M, eps, seed, trace=True)
    f_ref = make()
    solution, rows = rescanning_random_greedy_matroid(
        f_ref, M, eps, np.random.default_rng(seed))
    assert (got.solution, got.value, got.trace) == (
        solution, f_ref.value(solution), tuple(rows))


@settings(max_examples=80, deadline=None)
@given(case=differential_cases(), seed=st.integers(0, 2**32 - 1))
def test_every_run_evaluates_each_set_at_most_once(case, seed):
    """Through `fn` or `ids_fn`, a run computes no set twice, counts exactly
    the sets it computes, and reports the value `fn` gives its solution, bit
    for bit."""
    make, k, eps, M = case
    opts = SimpleNamespace(eps=eps)
    constraints = {"cardinality": [k], "matroid": [M], "any": [k, M], "none": [None]}
    for name, alg in ALGORITHMS.items():
        if alg.experiment_only:
            continue
        for c in constraints[alg.constraint]:
            base = make()
            f, log = recording_oracle(base)
            r = alg.call(f, c, seed, opts)
            assert len(set(log)) == len(log), name
            assert r.oracle_calls == f.eval_count == len(log), name
            assert r.value.hex() == float(base._fn(r.solution)).hex(), name


# --------------------------------------------------------- shared-oracle states

def run_on(f, a, g, k, eps, M):
    """Run algorithm a of the three whose runs share states on an oracle:
    random greedy, its threshold variant, random greedy for matroids."""
    if a == 0:
        return random_greedy_cardinality(f, k, g, trace=True)
    if a == 1:
        return threshold_random_greedy(f, k, eps, g)
    return random_greedy_matroid(f, M, eps, g, trace=True)


@settings(max_examples=150, deadline=None)
@given(case=differential_cases(max_n=12),
       runs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.booleans(),
                               st.integers(0, 12), st.sampled_from([0.1, 0.3, 0.6]),
                               st.booleans()),
                     min_size=1, max_size=12))
def test_runs_on_a_shared_oracle_equal_runs_on_fresh_oracles(case, runs):
    """Runs in any order on one oracle, which share their states, return
    what runs on fresh oracles return, field for field, with the same total
    calls and the same final state of a passed Generator. The runs vary k,
    eps and the matroid (the drawn one, or the uniform matroid of its rank,
    whose runs start from the same padded base). Drawing from the cached
    states again, through `partner` and, for oracle matroids,
    `_matching_exchange` on the admissible pairs, leaves them unchanged."""
    make, _, _, M = case
    matroids = [M, UniformMatroid(M.n, M.rank)]
    jobs = [(a, seed, as_generator, (k % (M.n + 1), eps, matroids[other]))
            for a, seed, as_generator, k, eps, other in runs]

    def seed_of(seed, as_generator):
        return np.random.default_rng(seed) if as_generator else seed

    shared = make()
    fresh_calls = 0
    for a, seed, as_generator, opts in jobs:
        f, g_ref, g = make(), seed_of(seed, as_generator), seed_of(seed, as_generator)
        ref = run_on(f, a, g_ref, *opts)
        fresh_calls += f.eval_count
        got = run_on(shared, a, g, *opts)
        assert ((got.solution, got.value, got.oracle_calls, got.trace)
                == (ref.solution, ref.value, ref.oracle_calls, ref.trace))
        if as_generator:
            assert g.bit_generator.state == g_ref.bit_generator.state
    assert shared.eval_count == fresh_calls
    states = shared._states
    snapshot = {key: copy.deepcopy(entry) for key, entry in states.items()}
    for a, seed, as_generator, opts in jobs:
        run_on(shared, a, seed_of(seed, as_generator), *opts)
    assert states == snapshot


# ----------------------------------------------------------------- seeded draws

@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, np.int64(12345), None])
def test_rng_matches_default_rng(seed):
    for _ in range(2):  # the second int call reads the cached seed words
        g = _rng(seed)
        ref = np.random.default_rng(seed)
        if seed is None:
            continue
        assert g.bit_generator.state == ref.bit_generator.state
        assert g.random(5).tolist() == ref.random(5).tolist()
        assert g.integers(1 << 40, size=5).tolist() == ref.integers(1 << 40, size=5).tolist()
        assert g.bit_generator.state == ref.bit_generator.state
    own = np.random.default_rng(3)
    assert _rng(own) is own
    with pytest.raises(ValueError):
        _rng(-1)
