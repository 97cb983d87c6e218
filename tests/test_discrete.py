import math

import numpy as np
import pytest

from helpers import (brute_opt, directed_cut_edge, exact_double_greedy_expectation,
                     gap_oracle, mixture_oracle, modular_oracle,
                     naive_greedy_trajectory, psd_similarity, table_oracle,
                     union_find_forest_indep)
from monoratio import (OracleMatroid, PartitionMatroid, UniformMatroid,
                       best_of_with_ground, double_greedy,
                       exact_monotonicity_ratio, greedy_cardinality,
                       greedy_matroid, ids_of, image_objective, mask_of,
                       movie_objective, random_baseline,
                       random_greedy_cardinality, random_greedy_matroid,
                       sample_greedy, threshold_greedy, threshold_random_greedy,
                       trace_to_csv)
from monoratio.constraints import _matching_exchange
from monoratio.discrete import _AugmentedMatroid

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


def test_best_of_with_ground():
    f = modular_oracle([1.0, 2.0])
    assert best_of_with_ground(f, seed=0).value == 3.0  # monotone: f(N)

    g = gap_oracle(0.8)
    r = best_of_with_ground(g, seed=1)
    assert r.value >= 0.8  # OPT = 1, max{m, (2+m)/4} = 0.8

    const = table_oracle([2.0] * 4)
    assert best_of_with_ground(const, seed=2).value == 2.0


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


def full_bijection_partner(aug, S, B, rng):
    """Reference for `_AugmentedMatroid.partner`: the random exchange
    bijection B -> S built whole (shuffle both bases, pair within classes,
    then pair the leftovers), followed by the draw of u."""
    base = aug.base
    s_ids, b_ids = ids_of(S), ids_of(B)
    s_ids = [s_ids[j] for j in rng.permutation(len(s_ids))]
    b_ids = [b_ids[j] for j in rng.permutation(len(b_ids))]
    if isinstance(base, PartitionMatroid):
        key = lambda u: base.block_of(u) if u < base.n else -1
    elif isinstance(base, UniformMatroid):
        key = lambda u: 0
    else:
        key = None
    if key is None:
        g = _matching_exchange(aug, S, s_ids, b_ids)
    else:
        pool = {}
        for s in s_ids:
            pool.setdefault(key(s), []).append(s)
        g = {}
        leftover = []
        for u in b_ids:
            if pool.get(key(u)):
                g[u] = pool[key(u)].pop(0)
            else:
                leftover.append(u)
        spare = [s for lst in pool.values() for s in lst]
        g.update(zip(leftover, spare))
    sorted_b = ids_of(B)
    u = sorted_b[int(rng.integers(len(sorted_b)))]
    return u, g[u]


def full_order_greedy(aug, w, exclude):
    """Reference for `_AugmentedMatroid.greedy_base_disjoint`: independence
    tests along all elements by non-increasing weight, ties by smaller id,
    with the zero-weight dummies ahead of the non-positive reals."""
    n = aug.base.n
    reals = sorted(range(n), key=lambda u: (-w[u], u))
    order = ([u for u in reals if w[u] > 0] + list(range(n, aug.n))
             + [u for u in reals if w[u] <= 0])
    out = 0
    for u in order:
        if not (exclude >> u) & 1 and aug.is_independent(out | (1 << u)):
            out |= 1 << u
    return out


def random_base(aug, exclude, rng):
    """A base of `aug` avoiding `exclude`, grown in a random element order."""
    out = 0
    for u in rng.permutation(aug.n).tolist():
        if not (exclude >> u) & 1 and aug.is_independent(out | (1 << u)):
            out |= 1 << u
    assert out.bit_count() == aug.rank
    return out


@pytest.mark.parametrize("M", [
    UniformMatroid(7, 3),
    PartitionMatroid(7, [[0, 1, 2, 3], [4, 5, 6]], [2, 1]),
    PartitionMatroid(9, [[0, 1, 2], [3, 4], [5, 6, 7, 8]], [1, 2, 2]),
    OracleMatroid(6, union_find_forest_indep([(0, 1), (0, 2), (0, 3),
                                              (1, 2), (1, 3), (2, 3)])),
], ids=["uniform", "partition2", "partition3", "graphic"])
def test_partner_matches_full_bijection(M):
    aug = _AugmentedMatroid(M, 2 * M.rank)
    rng = np.random.default_rng(12)
    cross = 0
    for seed in range(300):
        S = random_base(aug, 0, rng)
        B = random_base(aug, S, rng)
        ref_rng, rng_ = np.random.default_rng(seed), np.random.default_rng(seed)
        u, s = aug.partner(S, B, rng_)
        assert (u, s) == full_bijection_partner(aug, S, B, ref_rng)
        # same draws, so the stream continues identically
        assert rng_.bit_generator.state == ref_rng.bit_generator.state
        assert (B >> u) & 1 and (S >> s) & 1
        assert aug.is_independent((S & ~(1 << s)) | (1 << u))
        if aug.key is not None and aug.key[u] != aug.key[s]:
            cross += 1
        # integer weights make ties, which must break toward smaller ids
        w = (rng.normal(size=M.n) if seed % 2 else
             rng.integers(-1, 3, size=M.n).astype(float)).tolist()
        greedy = aug.greedy_base_disjoint(w, S)
        assert greedy == full_order_greedy(aug, w, S)
        assert not greedy & S and greedy.bit_count() == aug.rank
    if isinstance(M, PartitionMatroid):
        assert cross > 0  # leftovers paired across blocks were exercised


def test_random_greedy_matroid_golden():
    """Seeded runs pinned to outputs computed with the full-bijection
    exchange that `partner` replaced."""
    f, _ = mixture_oracle(7, seed=8)
    M = PartitionMatroid(7, [[0, 1, 2, 3], [4, 5, 6]], [2, 1])
    got = [(r.solution, r.value, r.oracle_calls)
           for r in (random_greedy_matroid(f, M, 0.1, seed=s) for s in range(6))]
    assert got == [(67, 8.772044191282124, 162), (70, 8.816112893706094, 168),
                   (20, 9.256046344562186, 185), (20, 9.256046344562186, 185),
                   (21, 10.531033574483407, 158), (21, 10.531033574483407, 162)]

    img = image_objective(psd_similarity(30, seed=2, d=10))
    P = PartitionMatroid(30, [range(0, 10), range(10, 20), range(20, 30)], [2, 2, 1])
    got = [(r.solution, r.value, r.oracle_calls)
           for r in (random_greedy_matroid(img, P, 0.2, seed=s) for s in range(4))]
    assert got == [(8352, 97.01004593767361, 708), (10280, 96.11774526246582, 692),
                   (8352, 97.01004593767361, 706), (160, 96.60012950088941, 730)]
    U = UniformMatroid(30, 4)
    got = [(r.solution, r.value, r.oracle_calls)
           for r in (random_greedy_matroid(img, U, 0.2, seed=s) for s in range(4))]
    assert got == [(270376, 96.4151893784956, 552), (270376, 96.4151893784956, 552),
                   (2208, 96.74681935424461, 569), (8352, 97.01004593767361, 570)]


# ---------------------------------------------------------------------- baseline

def test_random_baseline_sizes():
    f, _ = mixture_oracle(6, seed=0)
    for seed in range(10):
        assert random_baseline(f, 3, seed=seed).size == 3
    assert random_baseline(f, 0, seed=1).solution == 0

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


def test_run_result_value_is_fresh_eval():
    f, table = mixture_oracle(5, seed=10)
    r = random_greedy_cardinality(f, 2, seed=0)
    assert r.value == pytest.approx(table[r.solution])
    assert r.oracle_calls > 0
    assert r.seed == 0
