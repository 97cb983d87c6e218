from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import monoratio.constraints as constraints
from helpers import (reference_vertex_lp, reference_vertices,
                     union_find_forest_indep)
from monoratio import (DownClosedPolytope, OracleMatroid, PartitionMatroid,
                       UniformMatroid, ids_of,
                       linear_maximize_matroid, linear_maximize_polytope,
                       mask_of, matroid_polytope, partition_matroid_from_text)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4_graphic_matroid():
    return OracleMatroid(6, union_find_forest_indep(K4_EDGES))


def test_cardinality_and_uniform_examples():
    u2 = UniformMatroid(4, 2)
    assert u2.is_independent(mask_of([0, 1]))
    assert not u2.is_independent(mask_of([0, 1, 2]))
    assert u2.is_independent(mask_of([1, 3])) and not u2.is_independent(0b0111)
    with pytest.raises(ValueError):
        UniformMatroid(3, 4)


def test_partition_independence():
    # one element allowed from {a,b} = {0,1}, one from the rest
    M = PartitionMatroid(6, [[0, 1], [2, 3, 4, 5]], [1, 1])
    assert not M.is_independent(mask_of([0, 1]))
    assert M.is_independent(mask_of([0, 3]))
    assert M.rank == 2
    with pytest.raises(ValueError, match="^blocks 0 and 1 both hold element 1$"):
        PartitionMatroid(4, [[0, 1], [1, 2, 3]], [1, 1])
    with pytest.raises(ValueError, match="^element 2 is in no block$"):
        PartitionMatroid(4, [[0, 1], [3]], [1, 1])


@pytest.mark.parametrize("cap", [1.5, -1, float("nan"), float("inf")])
def test_partition_rejects_a_capacity_not_a_non_negative_integer(cap):
    # 1.5 was truncated to capacity 1
    with pytest.raises(ValueError, match=f"^capacity {cap} of block 1 is not an "
                       "integer >= 0$"):
        PartitionMatroid(4, [[0, 1], [2, 3]], [1, cap])
    assert PartitionMatroid(4, [[0, 1], [2, 3]], [1, 2.0]).capacities == [1, 2]


@pytest.mark.parametrize("blocks, message", [
    ([[0, 1], [2, 3, 4]], "element 4 of block 1 is outside"),
    ([[0, -1], [1, 2, 3]], "element -1 of block 0 is outside"),
    ([range(2), range(2, 5)], "element 4 of block 1 is outside"),
])
def test_partition_rejects_elements_outside_the_ground_set(blocks, message):
    with pytest.raises(ValueError, match=message + r" \[0, 4\)"):
        PartitionMatroid(4, blocks, [1, 1])
    text = "".join(f"block: {','.join(map(str, b))} capacity=1\n" for b in blocks)
    with pytest.raises(ValueError, match=message):
        partition_matroid_from_text(text, n=4)


def _exhaustive_downward_closed(M):
    for mask in range(1 << M.n):
        if M.is_independent(mask):
            for u in ids_of(mask):
                assert M.is_independent(mask & ~(1 << u))


def _exhaustive_exchange_axiom(M):
    indep = [m for m in range(1 << M.n) if M.is_independent(m)]
    for S in indep:
        for T in indep:
            if S.bit_count() < T.bit_count():
                assert any(M.is_independent(S | (1 << u))
                           for u in ids_of(T & ~S))


@pytest.mark.parametrize("M", [
    UniformMatroid(6, 3),
    PartitionMatroid(6, [[0, 1, 2], [3, 4], [5]], [2, 1, 1]),
    k4_graphic_matroid(),
])
def test_matroid_axioms_exhaustive(M):
    _exhaustive_downward_closed(M)
    _exhaustive_exchange_axiom(M)


def test_graphic_matroid_rank():
    assert k4_graphic_matroid().rank == 3  # spanning trees of K4


def test_max_weight_base_examples():
    M = UniformMatroid(4, 2)
    assert M.greedy([3, 1, 2, 0]) == mask_of([0, 2])
    assert M.greedy([3, 1, 2, 0], exclude=mask_of([0])) == mask_of([1, 2])
    # two dummies 4, 5: the zero weight of 3 leaves the second slot to dummy 5
    assert M.greedy([3, 1, 2, 0], exclude=mask_of([1, 2, 4]), free=2) == mask_of([0, 5])

    P = PartitionMatroid(4, [[0, 1], [2, 3]], [1, 1])
    assert P.greedy([5, 4, 1, 2], exclude=mask_of([0])) == mask_of([1, 3])


def test_max_weight_base_properties():
    rng = np.random.default_rng(3)
    M = PartitionMatroid(7, [[0, 1, 2], [3, 4], [5, 6]], [1, 2, 1])
    for _ in range(30):
        w = rng.normal(size=7)
        base = M.greedy(w, free=M.rank)
        assert base.bit_count() == M.rank
        real = base & ((1 << 7) - 1)
        assert M.is_independent(real)
        # exact optimality vs enumeration over all independent sets
        best = max(sum(w[u] for u in ids_of(mask))
                   for mask in range(1 << 7) if M.is_independent(mask))
        assert sum(w[u] for u in ids_of(real)) == pytest.approx(best)


def _partners(M, S, B, seeds=range(40)):
    """Every (u, partner of u) that `partner` draws over the seeds."""
    law = M.exchange_law(S, B)
    pairs = set()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        pairs.add(M.partner(law, rng.random(4).tolist(), rng))
    return pairs


def test_exchange_map_uniform_and_partition():
    M = UniformMatroid(6, 3)
    S, B = mask_of([0, 2, 4]), mask_of([1, 3, 5])
    pairs = _partners(M, S, B, seeds=range(200))
    assert pairs == set(product(ids_of(B), ids_of(S)))  # any pairing is an exchange

    P = PartitionMatroid(6, [[0, 1], [2, 3], [4, 5]], [1, 1, 1])
    pairs = _partners(P, S, B)
    assert pairs == {(1, 0), (3, 2), (5, 4)}  # forced by block structure
    for u, s in pairs:
        assert P.is_independent((S & ~(1 << s)) | (1 << u))


def test_exchange_map_graphic_matroid():
    M = k4_graphic_matroid()
    # edge ids: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5
    assert not M.is_independent(mask_of([3, 4, 5]))  # {12,13,23} is a cycle
    S2 = mask_of([0, 1, 4])   # {01,02,13}: tree
    B2 = mask_of([2, 3, 5])   # {03,12,23}: tree
    assert M.is_independent(S2) and M.is_independent(B2)
    pairs = _partners(M, S2, B2)
    assert {u for u, _ in pairs} == {2, 3, 5}
    assert {s for _, s in pairs} <= {0, 1, 4}
    for u, s in pairs:
        assert M.is_independent((S2 & ~(1 << s)) | (1 << u))


def test_partition_matroid_from_text():
    text = """
    # fixture
    block: 0,1,2 capacity=1
    block: 3,4 capacity=2
    """
    M = partition_matroid_from_text(text, n=5)
    assert M.n == 5 and M.rank == 3
    assert M.is_independent(mask_of([0, 3, 4]))
    assert not M.is_independent(mask_of([0, 1]))
    with pytest.raises(ValueError, match="line"):
        partition_matroid_from_text("block: 0,1 capacity=x", n=2)
    with pytest.raises(ValueError):
        partition_matroid_from_text("\n\n", n=2)


def test_polytope_validation_and_contains():
    with pytest.raises(ValueError):
        DownClosedPolytope([[-1.0]], [1.0], [1.0])
    P = DownClosedPolytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
    assert P.contains([0.5, 0.5])
    assert not P.contains([0.9, 0.9])
    assert P.contains(np.zeros(2))


def test_linear_maximize_polytope_examples():
    # uniform(k) matroid polytope with all-ones weights: value k
    P = matroid_polytope(UniformMatroid(5, 3))
    x = linear_maximize_polytope(P, np.ones(5))
    assert np.ones(5) @ x == pytest.approx(3.0)

    P1 = DownClosedPolytope([[1.0]], [1.0], [1.0])
    assert linear_maximize_polytope(P1, [2.0])[0] == pytest.approx(1.0)

    P2 = DownClosedPolytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
    x = linear_maximize_polytope(P2, [3.0, 1.0])
    assert x == pytest.approx([1.0, 0.0])


def test_linear_maximize_polytope_negative_weights_and_dominance():
    rng = np.random.default_rng(8)
    A = rng.random((3, 4))
    b = rng.random(3) + 0.5
    u = rng.random(4) * 0.8 + 0.2
    P = DownClosedPolytope(A, b, u)
    w = rng.normal(size=4)
    x = linear_maximize_polytope(P, w)
    assert P.contains(x)
    assert np.all(x[w < 0] == 0.0)
    # randomized dominance: no random feasible point beats the LP optimum
    best = w @ x
    for _ in range(1000):
        cand = rng.random(4) * u
        scalebound = A @ cand
        over = scalebound > b
        if np.any(over):
            cand = cand * min(1.0, float((b[over] / scalebound[over]).min()))
        assert w @ cand <= best + 1e-9


@pytest.mark.parametrize("A, b, u, message", [
    ([[1.0, np.nan]], [1.0], [1.0, 1.0], r"A\[0, 1\] = nan"),
    ([[1.0], [2.0]], [1.0, np.inf], [1.0], r"b\[1\] = inf"),
    ([[1.0, 1.0]], [1.0], [-np.inf, 1.0], r"u\[0\] = -inf"),
])
def test_polytope_rejects_non_finite_data(A, b, u, message):
    with pytest.raises(ValueError, match=message + " is not finite"):
        DownClosedPolytope(A, b, u)


def test_polytope_arrays_are_read_only_copies():
    A = np.ones((1, 2))
    P = DownClosedPolytope(A, [1.0], [1.0, 1.0])
    A[0, 0] = 5.0
    assert P.A[0, 0] == 1.0
    with pytest.raises(ValueError):
        P.b[0] = 2.0


def test_linear_maximize_polytope_rejects_non_finite_weights():
    P = DownClosedPolytope([[1.0, 1.0, 1.0]], [1.0], [1.0, 1.0, 1.0])
    for w, message in (([1.0, np.nan, np.inf], r"w\[1\] = nan"),
                       ([1.0, 0.0, -np.inf], r"w\[2\] = -inf")):
        with pytest.raises(ValueError, match=message + " is not finite"):
            linear_maximize_polytope(P, w)


def test_linear_maximize_polytope_tie_break_is_lexicographic():
    # uniform(2) on 4 elements: the maximizers of (1, 1, 1, 0) are the three
    # pairs inside {0, 1, 2}; the lexicographically smallest is {1, 2}
    P = matroid_polytope(UniformMatroid(4, 2))
    assert list(linear_maximize_polytope(P, [1.0, 1.0, 1.0, 0.0])) == [0, 1, 1, 0]
    assert list(linear_maximize_polytope(P, [0.0, -1.0, 0.0, 0.0])) == [0, 0, 0, 0]


def _reference_vertices(P, tol):
    """Vertices of P by a plain loop over (free set F, fixed pattern, rows R),
    one np.linalg.solve per system with condition number below 1e12. A point
    at most tol outside the box is clipped to it and kept if Ax <= b + tol."""
    n, rows = P.n, P.b.size
    out = []
    for k in range(min(n, rows) + 1):
        for F in combinations(range(n), k):
            rest = [j for j in range(n) if j not in F]
            for at_u in product([False, True], repeat=n - k):
                fixed = np.zeros(n)
                fixed[rest] = np.where(at_u, P.u[rest], 0.0)
                for R in combinations(range(rows), k):
                    x = fixed.copy()
                    if k:
                        M = P.A[np.ix_(R, F)]
                        if not np.linalg.cond(M) < 1e12:
                            continue
                        x[list(F)] = np.linalg.solve(M, P.b[list(R)] - P.A[list(R)] @ fixed)
                    if np.all(x >= -tol) and np.all(x <= P.u + tol):
                        x = np.clip(x, 0.0, P.u)
                        if (np.all(x >= -tol) and np.all(x <= P.u + tol)
                                and np.all(P.A @ x <= P.b + tol)):
                            out.append(x)
    return np.array(out)


_LP_ENTRY = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0))
# HiGHS drops matrix entries |a| <= 1e-9, so non-zero coefficients stay at or
# above 1e-3 for its LP to be the reference
_LP_COEF = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(1e-3, 3.0))
_LP_WEIGHT = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-3.0, 3.0))
# HiGHS at its tightest tolerances: at the 1e-7 defaults it reads a tiny
# weight as 0 and lets x overshoot a tiny b, both by more than 1e-9
_HIGHS_EXACT = {"primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10}


@st.composite
def _lp_polytopes(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "uniform", "partition"]))
    if kind == "uniform":
        return n, matroid_polytope(UniformMatroid(n, draw(st.integers(0, n))))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[u for u in range(n) if labels[u] == j] for j in sorted(set(labels))]
        caps = [draw(st.integers(0, len(blk))) for blk in blocks]
        return n, matroid_polytope(PartitionMatroid(n, blocks, caps))
    rows = draw(st.integers(0, 5))
    A = [draw(st.lists(_LP_COEF, min_size=n, max_size=n)) for _ in range(rows)]
    b = draw(st.lists(st.one_of(st.just(0.0), _LP_ENTRY), min_size=rows, max_size=rows))
    if rows and rows < 5 and draw(st.booleans()):  # a duplicated row
        A.append(A[0])
        b.append(b[0])
    u = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 2.0),
                      min_size=n, max_size=n))
    return n, DownClosedPolytope(np.reshape(A, (len(b), n)), b, u)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vertex_lp_agrees_with_highs_property(data):
    n, P = data.draw(_lp_polytopes())
    w = np.array(data.draw(st.lists(_LP_WEIGHT, min_size=n, max_size=n)))
    x = linear_maximize_polytope(P, w)
    bounds = [(0.0, 0.0) if w[j] < 0 else (0.0, float(P.u[j])) for j in range(n)]
    res = linprog(-w, A_ub=P.A, b_ub=P.b, bounds=bounds, method="highs",
                  options=_HIGHS_EXACT)
    assert res.success
    # a vertex may overshoot each row by the 1e-9 of P.contains, which can
    # raise the objective by 1e-9 times that row's dual value
    slack = 1e-9 * (1.0 + np.abs(res.ineqlin.marginals).sum())
    assert abs(w @ x - w @ np.clip(res.x, 0.0, P.u)) <= slack
    assert P.contains(x)
    assert np.all(x[w < 0] == 0.0)
    # the cached list holds every reference vertex feasible to 1e-11 and only
    # reference vertices feasible to 1e-7 (so rounding at the 1e-9 cut-off
    # cannot decide the test), sorted lexicographically; x is its first
    # unpinned vertex within the relative 1e-12 tie tolerance of the maximum
    inner, outer = _reference_vertices(P, 1e-11), _reference_vertices(P, 1e-7)
    V = P._vertices
    for a, b in ((inner, V), (V, outer)):
        assert all(np.abs(b - v).max(axis=1).min() <= 1e-9 for v in a)
    assert np.array_equal(V, V[np.lexsort(V.T[::-1])])
    allowed = V[np.all(V[:, w < 0] == 0.0, axis=1)]
    vals = allowed @ np.maximum(w, 0.0)
    assert np.array_equal(x, allowed[vals >= vals.max() * (1.0 - 1e-12)][0])


# special weight vectors: every coordinate pinned, none pinned, signed zeros
_SPECIAL_WEIGHTS = (lambda n: -np.ones(n), np.zeros, lambda n: -np.zeros(n),
                    lambda n: np.where(np.arange(n) % 2, -0.0, -1.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vertex_and_face_lists_match_the_reference_property(data):
    # the vertex list is the reference's, byte for byte; then a run of LPs on
    # the polytope, repeated, so the face dict sees both new and known sign
    # patterns: every answer is byte-identical to filtering the reference
    # vertex list afresh
    n, P = data.draw(_lp_polytopes())
    V = reference_vertices(P)
    assert P._vertices.shape == V.shape
    assert P._vertices.tobytes() == V.tobytes()
    drawn = data.draw(st.lists(st.lists(_LP_WEIGHT | st.just(-0.0), min_size=n,
                                        max_size=n), min_size=1, max_size=6))
    ws = [np.array(w) for w in drawn] + [make(n) for make in _SPECIAL_WEIGHTS]
    for w in ws + ws[::-1]:
        x = linear_maximize_polytope(P, w)
        assert x.tobytes() == reference_vertex_lp(V, w).tobytes()
    assert P._faces.keys() == {(w < 0).tobytes() for w in ws}
    assert len(P._faces) <= 2 ** n


# the solve of all rows on all coordinates returns a -0.0 (its LU pivots
# turn negative): x = (1, -0.0), (0, -0.0) and (1/11, 5/11, -0.0); clipped
# with the array bound u the vertex list holds 0.0 there, as the reference's
# does, and with a scalar upper bound the last list would keep the -0.0
_SIGNED_ZERO_POLYTOPES = [([[1.0, 2.0], [1.0, 1.0]], [1.0, 1.0], [1.0, 1.0]),
                          ([[1.0, 2.0], [1.0, 1.0]], [0.0, 0.0], [1.0, 1.0]),
                          ([[3.0, 0.5, 2.0], [1.0, 2.0, 0.0], [3.0, 0.5, 0.0]],
                           [0.5, 1.0, 0.5], [2.0, 1.0, 2.0])]


@pytest.mark.parametrize("A, b, u", _SIGNED_ZERO_POLYTOPES)
def test_vertex_list_matches_the_reference_with_signed_zeros(A, b, u):
    assert np.signbit(np.linalg.solve(A, b)).any()
    P = DownClosedPolytope(A, b, u)
    ref = reference_vertices(P)
    assert P._vertices.shape == ref.shape
    assert P._vertices.tobytes() == ref.tobytes()
    assert not np.signbit(P._vertices).any()


def test_contains_tolerance_is_absolute():
    # rows x <= 1e-9 and 0.5 x <= 0: the true maximum of 2x is at x = 0, but
    # each row may be exceeded by an absolute 1e-9, so the vertex x = 1e-9
    # stays in the list and wins
    P = DownClosedPolytope([[1.0], [0.5]], [1e-9, 0.0], [1.0])
    assert linear_maximize_polytope(P, [2.0]).tolist() == [1e-9]
    assert P.contains([1e-9])
    assert not P.contains([3e-9])


def test_large_polytope_takes_the_highs_path(monkeypatch):
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(constraints, "linprog", counting_linprog)
    rng = np.random.default_rng(3)
    big = DownClosedPolytope(rng.random((10, 10)), np.ones(10), np.ones(10))
    assert constraints._vertex_candidates(10, 10) > constraints._VERTEX_BUDGET
    w = rng.normal(size=10)
    x = linear_maximize_polytope(big, w)
    assert big._vertices is None and calls == [1]
    assert big.contains(x) and np.all(x[w < 0] == 0.0)
    small = DownClosedPolytope(rng.random((4, 4)), np.ones(4), np.ones(4))
    linear_maximize_polytope(small, rng.normal(size=4))
    assert small._vertices is not None and calls == [1]


def test_lp_agrees_with_matroid_greedy():
    rng = np.random.default_rng(11)
    matroids = [UniformMatroid(6, 2),
                PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])]
    for M in matroids:
        P = matroid_polytope(M)
        for _ in range(20):
            w = rng.normal(size=6)
            lp_val = w @ linear_maximize_polytope(P, w)
            greedy_mask = linear_maximize_matroid(M, w)
            greedy_val = sum(w[u] for u in ids_of(greedy_mask))
            assert lp_val == pytest.approx(greedy_val, abs=1e-8)


def test_exchange_map_partition_higher_capacities_random_bases():
    rng = np.random.default_rng(13)
    P = PartitionMatroid(8, [[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1])

    def random_base(exclude):
        base = 0
        for u in rng.permutation(8):
            cand = base | (1 << int(u))
            if not (exclude >> int(u)) & 1 and P.is_independent(cand):
                base = cand
        return base

    for _ in range(40):
        S = random_base(0)
        B = random_base(S)
        if B.bit_count() != P.rank:
            continue  # no disjoint base available for this draw
        pairs = _partners(P, S, B, seeds=range(10))
        for u, s in pairs:
            assert (B >> u) & 1 and (S >> s) & 1
            assert P.is_independent((S & ~(1 << s)) | (1 << u))


def test_linear_maximize_matroid_rejects_bad_weights():
    M = PartitionMatroid(3, [[0, 1], [2]], [1, 1])
    for w, message in (([1.0, np.nan, 0.0], r"w\[1\] = nan is not finite"),
                       ([1.0, 0.0, np.inf], r"w\[2\] = inf is not finite"),
                       ([1.0, 2.0], r"w must have shape \(3,\), not \(2,\)")):
        with pytest.raises(ValueError, match=message):
            linear_maximize_matroid(M, w)


@st.composite
def _tiny_matroids(draw):
    """Uniform, partition (capacities 0 to above the block size) and graphic
    oracle matroids on n <= 6 elements."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["uniform", "partition", "graphic"]))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n)))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[u for u in range(n) if labels[u] == j] for j in sorted(set(labels))]
        caps = [draw(st.integers(0, len(b) + 2)) for b in blocks]
        return PartitionMatroid(n, blocks, caps)
    edges = draw(st.lists(st.sampled_from(K4_EDGES), min_size=n, max_size=n))
    return OracleMatroid(n, union_find_forest_indep(edges))


@settings(max_examples=100, deadline=None)
@given(M=_tiny_matroids(), data=st.data())
def test_matroid_greedy_is_a_max_weight_base_property(M, data):
    n, k = M.n, M.rank
    w = data.draw(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                                     st.floats(-3.0, 3.0)), min_size=n, max_size=n))

    def best_avoiding(exclude):
        return max(sum(w[u] for u in ids_of(mask)) for mask in range(1 << n)
                   if not mask & exclude and M.is_independent(mask))

    lin = linear_maximize_matroid(M, w)
    assert M.is_independent(lin)
    assert sum(w[u] for u in ids_of(lin)) == pytest.approx(best_avoiding(0))
    # S: a base of M padded with 2k dummies, holding at most k of the dummies
    real = 0
    for u in ids_of(data.draw(st.integers(0, (1 << n) - 1))):
        if M.is_independent(real | (1 << u)):
            real |= 1 << u
    S = real | (((1 << (k - real.bit_count())) - 1) << n)
    B = M.greedy(w, S, 2 * k)
    assert not B & S and B.bit_count() == k and B >> (n + 2 * k) == 0
    assert M.is_independent(B & ((1 << n) - 1))
    assert sum(w[u] for u in ids_of(B) if u < n) == pytest.approx(best_avoiding(S))
