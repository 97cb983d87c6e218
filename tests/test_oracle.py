import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (as_matrix, gap_oracle, mixture_oracle,
                     modular_oracle, product_expectation, psd_similarity,
                     recording_oracle, table_oracle)
from monoratio import (GroundSet, MCGConfig, PartitionMatroid, SampleConfig,
                       SetFunctionOracle, SizeLimitError, UniformMatroid,
                       double_greedy, exact_monotonicity_ratio,
                       greedy_cardinality, greedy_matroid, ids_of,
                       image_objective, indicator, mask_from_indicator, mask_of,
                       measured_continuous_greedy, mixture_objective,
                       movie_objective, multilinear_exact, multilinear_sampled,
                       random_greedy_cardinality, random_greedy_matroid,
                       sample_greedy, threshold_greedy, threshold_random_greedy)
from monoratio.oracle import _KERNEL_BLOCK_BYTES, _size_groups


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert ids_of(0b100101) == [0, 2, 5]
    assert mask_of([]) == 0


def test_ids_of_rejects_a_negative_mask():
    # a negative int has infinitely many set bits: the loop would not end
    for mask in (-1, -6, -(1 << 70)):
        with pytest.raises(ValueError, match=f"mask {mask} is negative"):
            ids_of(mask)


def test_indicator_round_trip_and_out_of_range_mask():
    assert indicator(0b101, 4).tolist() == [1.0, 0.0, 1.0, 0.0]
    assert mask_from_indicator([1.0 - 1e-10, 1e-10, 1.0, 0.0]) == 0b101
    # numpy's IndexError named neither the mask nor the ground set
    with pytest.raises(ValueError, match="^mask 32 outside the 3-element ground set$"):
        indicator(1 << 5, 3)


@pytest.mark.parametrize("x, named", [([5.0, -0.5, 0.0], "coordinate 0 = 5.0"),
                                      ([float("nan")], "coordinate 0 = nan"),
                                      ([1.0, -0.5], "coordinate 1 = -0.5")])
def test_mask_from_indicator_rejects_a_coordinate_not_0_or_1(x, named):
    # 5.0 read as 1, and -0.5 and NaN as 0
    with pytest.raises(ValueError, match=f"^{named} is not 0/1 within 1e-9$"):
        mask_from_indicator(x)


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)


def test_value_calls_fn_once_per_call_and_counts_it():
    calls = []
    f = SetFunctionOracle(GroundSet(2), lambda m: calls.append(m) or float(m))
    assert f.value(3) == f.value(3) == 3.0
    assert f.value(1) == 1.0
    assert f.eval_count == 3
    assert calls == [3, 3, 1]


def test_multilinear_exact_examples():
    f = modular_oracle([1.0, 1.0])
    assert multilinear_exact(f, [0.3, 0.7]) == pytest.approx(1.0)

    g0 = gap_oracle(0.0)
    assert multilinear_exact(g0, [0.5, 0.5]) == pytest.approx(0.5)

    # F(1_S) = f(S) for arbitrary functions
    f, table = mixture_oracle(5, seed=3)
    for mask in [0, 0b10110, 0b11111, 0b00001]:
        x = [(mask >> u) & 1 for u in range(5)]
        assert multilinear_exact(f, x) == pytest.approx(table[mask])


def test_multilinear_exact_gap_function_closed_form():
    # F(x) = x_u + x_v - x_u x_v (2 - m) for the two-element gap function
    rng = np.random.default_rng(0)
    for m in [0.0, 0.25, 0.7, 1.0]:
        f = gap_oracle(m)
        for _ in range(5):
            xu, xv = rng.random(2)
            expect = xu + xv - xu * xv * (2.0 - m)
            assert multilinear_exact(f, [xu, xv]) == pytest.approx(expect)


def test_multilinear_exact_size_error_mentions_sampling():
    f = SetFunctionOracle(GroundSet(21), lambda m: 0.0)
    with pytest.raises(SizeLimitError, match="multilinear_sampled"):
        multilinear_exact(f, np.zeros(21))


def test_multilinear_sampled_degenerate_and_reproducible():
    f, table = mixture_oracle(4, seed=1)
    x = [1.0, 0.0, 1.0, 0.0]
    est, se = multilinear_sampled(f, x, SampleConfig(samples=50, seed=9))
    assert est == pytest.approx(table[0b0101])
    assert se == 0.0

    x = [0.4, 0.8, 0.1, 0.6]
    a = multilinear_sampled(f, x, SampleConfig(samples=400, seed=7))
    b = multilinear_sampled(f, x, SampleConfig(samples=400, seed=7))
    assert a == b  # bit-reproducible


def test_multilinear_sampled_agrees_with_exact():
    f = modular_oracle([1.0, 1.0])
    est, se = multilinear_sampled(f, [0.5, 0.5], SampleConfig(10000, seed=1))
    assert abs(est - 1.0) <= 5 * se

    g0 = gap_oracle(0.0)
    exact = multilinear_exact(g0, [0.5, 0.5])
    est, se = multilinear_sampled(g0, [0.5, 0.5], SampleConfig(10000, seed=2))
    assert abs(est - exact) <= 5 * se

    with pytest.raises(ValueError):
        multilinear_sampled(g0, [0.5, 0.5], SampleConfig(1, seed=0))


def test_union_with_random_set_lower_bound():
    # E[f(O u D)] >= (1 - (1-m) max_u Pr[u in D]) f(O), expectation exact
    rng = np.random.default_rng(100)
    for seed in range(25):
        f, table = mixture_oracle(5 + seed % 2, seed=200 + seed)
        n = f.n
        m = exact_monotonicity_ratio(f).ratio
        O = int(rng.integers(0, 1 << n))
        probs = rng.random(n)
        lhs = product_expectation(table, O, probs)
        rhs = (1.0 - (1.0 - m) * probs.max()) * table[O]
        assert lhs >= rhs - 1e-9


# ------------------------------------------------------------ batched oracle

def scalar_twin(f: SetFunctionOracle) -> SetFunctionOracle:
    """The same objective without its vectorized kernel."""
    return SetFunctionOracle(f.ground, f._fn, name=f.name)


def objectives(n: int, seed: int = 0):
    s = psd_similarity(n, seed)
    return [movie_objective(s, 0.7), image_objective(s)]


def random_masks(n: int, count: int, seed: int) -> list[int]:
    """Random masks at every density, plus the empty and the full set."""
    rng = np.random.default_rng(seed)
    bits = rng.random((count, n)) < rng.random((count, 1))
    masks = [sum(1 << int(u) for u in np.flatnonzero(row)) for row in bits]
    return [0, (1 << n) - 1] + masks


@pytest.mark.parametrize("n", [1, 12, 50, 70])
def test_batched_values_equal_scalar(n):
    for f in objectives(n, seed=n):
        assert f._ids_fn is not None
        # 30 full sets overflow one kernel block at n=70
        masks = random_masks(n, 200, seed=n) + [(1 << n) - 1] * 30
        scalar = np.array([f._fn(m) for m in masks])
        X = as_matrix(masks, n)
        # rows are grouped by set size, so every row sums in the scalar
        # order and the values agree bit for bit
        np.testing.assert_array_equal(f.values(X), scalar)
        np.testing.assert_array_equal(scalar_twin(f).values(X), scalar)


def test_batched_values_count_one_evaluation_per_set():
    for f in objectives(30):
        masks = random_masks(30, 40, seed=1)
        f.values(as_matrix(masks, 30))
        assert f.eval_count == len(masks)
        assert f.values(as_matrix([], 30)).shape == (0,)
        assert f.eval_count == len(masks)


def test_kernel_batches_send_every_row_to_the_kernel():
    # `values` and `scan` of a kernel oracle send every nonempty row to the
    # kernel, repeated ones included; without a kernel every set goes to
    # `fn`. eval_count counts one evaluation per set on every path.
    computed, scalar = [], []

    def fn(mask):
        scalar.append(mask)
        return mask.bit_count() * 1.5

    def ids_fn(ids):
        computed.extend(ids.tolist())
        return np.full(len(ids), ids.shape[1] * 1.5)

    masks = [0b0011, 0b0101, 0b0101, 0b1111, 0b0000]
    f = SetFunctionOracle(GroundSet(4), fn, ids_fn=ids_fn)
    assert f.value(0b0011) == f.value(0b0011) == 3.0
    assert scalar == [0b0011, 0b0011] and f.eval_count == 2
    for _ in range(2):
        computed.clear()
        scalar.clear()
        assert f.values(as_matrix(masks, 4)).tolist() == [3.0, 3.0, 3.0, 6.0, 0.0]
        # the repeated set reaches the kernel twice; the empty set goes to
        # fn, never to the kernel
        assert sorted(computed) == [[0, 1], [0, 1, 2, 3], [0, 2], [0, 2]]
        assert scalar == [0]
    computed.clear()
    assert f.scan(0b0001, [1, 2, 1]) == [3.0, 3.0, 3.0]
    assert computed == [[0, 1], [0, 2], [0, 1]]
    assert f.eval_count == 2 + 2 * len(masks) + 3

    scalar.clear()
    g = SetFunctionOracle(GroundSet(4), fn)
    g.value(0b0011)
    g.values(as_matrix(masks, 4))
    g.values(as_matrix(masks, 4))
    assert g.scan(0b0001, [1, 2, 3]) == [3.0, 3.0, 3.0]
    assert scalar == [0b0011] + 2 * masks + [0b0011, 0b0101, 0b1001]
    assert g.eval_count == 1 + 2 * len(masks) + 3


def test_shared_states_exist_exactly_at_n_up_to_20():
    """Seeded runs share states only on at most 20 elements, and not on a
    copy whose state cache was removed, so such a copy computes again every
    set that a repeated run needs."""
    def fn(mask):
        return float(mask.bit_count())

    f = SetFunctionOracle(GroundSet(20), fn)
    assert f._states == {}
    random_greedy_cardinality(f, 3, seed=0)
    assert f._states
    h = SetFunctionOracle(GroundSet(21), fn)
    assert h._states is None
    random_greedy_cardinality(h, 3, seed=0)
    assert h._states is None

    base, _ = mixture_oracle(6, seed=3)
    M = PartitionMatroid(6, [[0, 1, 2], [3, 4, 5]], [1, 2])
    for run in (lambda f: random_greedy_cardinality(f, 3, seed=1),
                lambda f: threshold_random_greedy(f, 3, 0.2, seed=1),
                lambda f: random_greedy_matroid(f, M, 0.2, seed=1)):
        g, log = recording_oracle(base)
        assert g._states is None
        first = run(g)
        computed = len(log)
        assert run(g) == first and len(log) == 2 * computed == 2 * first.oracle_calls
        assert g._states is None


def test_oracle_without_kernel_returns_its_scalar_values():
    f, table = mixture_oracle(5, seed=4)
    assert f._ids_fn is None
    masks = random_masks(5, 30, seed=2)
    assert f.values(as_matrix(masks, 5)).tolist() == [table[m] for m in masks]
    assert f.eval_count == len(masks)


def test_values_rejects_a_matrix_of_the_wrong_width_and_bad_kernels():
    f = objectives(6)[0]
    for kernel in (f._ids_fn, None):
        g = SetFunctionOracle(f.ground, f._fn, ids_fn=kernel)
        for X in (np.zeros((3, 5), dtype=bool), np.zeros(6, dtype=bool), [1, 2]):
            with pytest.raises(ValueError, match=r"is a \(B, 6\) boolean matrix, "
                               r"got shape"):
                g.values(X)
        assert g.eval_count == 0
    g = SetFunctionOracle(GroundSet(3), float, ids_fn=lambda ids: np.zeros(1))
    with pytest.raises(ValueError, match="shape"):
        g.values(as_matrix([1, 2], 3))
    with pytest.raises(ValueError, match="shape"):
        g.scan(1, [1, 2])


def test_values_rejects_a_non_boolean_matrix_on_every_oracle_kind():
    # an int row reads as truth values on one path and as bit weights on the
    # other ([[2, 0, 0]] is {0} or mask 2 = {1}), so both paths refuse it
    f = objectives(3)[1]
    for kernel in (f._ids_fn, None):
        g = SetFunctionOracle(f.ground, f._fn, ids_fn=kernel)
        for X in (np.array([[2, 0, 0]]), np.array([[1, 0, 0]], dtype=np.uint8),
                  np.array([[1.0, 0.0, 0.0]]), np.array([[0.5, 0.0, 1.0]])):
            with pytest.raises(ValueError, match=f"boolean matrix, got dtype {X.dtype}$"):
                g.values(X)
        assert g.eval_count == 0
        assert g.values(np.array([[False, True, False]])).tolist() == [f._fn(0b010)]


def test_a_mask_outside_the_ground_set_raises_on_every_path():
    # with and without a kernel: no path may drop the extra bits, index past
    # a table or count the set; a rejected scan counts nothing on either
    # path. A batch to `values` is a (B, n) matrix, which holds no such set.
    n = 5
    s = psd_similarity(n, 3, d=max(2, n // 2))
    table_f, _ = mixture_oracle(n, seed=0)
    bases = [movie_objective(s, 0.75), image_objective(s), mixture_objective(n, 0),
             table_f]
    assert [b._ids_fn is None for b in bases] == [False, False, True, True]
    for f in bases:
        for bad in (1 << n, (1 << n) | 0b101, 1 << 70, -1, -(1 << 70)):
            count = f.eval_count
            with pytest.raises(ValueError, match=f"^mask {bad} outside the "
                               f"{n}-element ground set$"):
                f.value(bad)
            assert f.eval_count == count
            for A, cands in ((bad, [1]), (0, [1, n]), (0b11, [n + 3, 2])):
                count = f.eval_count
                with pytest.raises(ValueError, match=f"outside the {n}-element"):
                    f.scan(A, cands)
                assert f.eval_count == count


def test_a_scan_reads_an_iterator_of_candidates_once():
    # the error names the bad candidate, not a drained iterator's leftovers,
    # and the rejected scan counts nothing, with and without a kernel
    n = 5
    s = psd_similarity(n, 3, d=max(2, n // 2))
    table_f, _ = mixture_oracle(n, seed=0)
    for f in (movie_objective(s, 0.75), image_objective(s), mixture_objective(n, 0),
              table_f):
        for bad in (n, -1):
            count = f.eval_count
            with pytest.raises(ValueError, match=f"^candidate {bad} of oracle "
                               f"{re.escape(f.name)} is outside the {n}-element"):
                f.scan(0, iter([0, bad]))
            assert f.eval_count == count
        assert f.scan(0b1, iter([2, 3])) == f.scan(0b1, [2, 3])


def test_a_bool_matrix_kernel_keyword_is_rejected():
    # the (B, n) boolean-matrix hook is gone; its old keyword must not
    # reach an oracle that would misread id rows as masks
    with pytest.raises(TypeError, match="batch_fn"):
        SetFunctionOracle(GroundSet(3), float, batch_fn=lambda X: X.sum(axis=1))


def test_kernel_blocks_cover_every_nonempty_row_within_the_gather_bound():
    n = 70
    X = as_matrix(random_masks(n, 300, seed=5) + [(1 << n) - 1] * 30, n)
    seen = []
    for rows, ids in _size_groups(X):
        size = ids.shape[1]
        assert ids.shape == (len(rows), size)
        assert len(rows) == 1 or len(rows) * size * n * 8 <= _KERNEL_BLOCK_BYTES
        for r, row_ids in zip(rows.tolist(), ids.tolist()):
            assert row_ids == np.flatnonzero(X[r]).tolist()
        seen.extend(rows.tolist())
    assert sorted(seen) == np.flatnonzero(X.any(axis=1)).tolist()


@pytest.mark.parametrize("n", [6, 12])
def test_scan_equals_values_on_every_oracle_kind(n):
    for obj in objectives(n, seed=n):
        for kernel in (None, obj._ids_fn):
            def make():
                return SetFunctionOracle(obj.ground, obj._fn, ids_fn=kernel,
                                         name=obj.name)

            scanned, batched = make(), make()
            rng = np.random.default_rng(n)
            for A in random_masks(n, 20, seed=n):
                # any order, and repeated candidates
                cands = [u for u in rng.permutation(n).tolist() if not (A >> u) & 1]
                cands += cands[:2]
                got = scanned.scan(A, cands)
                ref = batched.values(as_matrix([A | (1 << u) for u in cands], n))
                assert type(got) is list and all(type(v) is float for v in got)
                np.testing.assert_array_equal(np.array(got).view(np.int64),
                                              ref.view(np.int64))
                assert got == [obj._fn(A | (1 << u)) for u in cands]
                assert scanned.eval_count == batched.eval_count
            # the scans `ids_fn` cannot take loop over `value`: an empty
            # scan counts nothing, and a candidate in A yields f(A)
            calls = scanned.eval_count
            for A in ((1 << n) - 1, 0, 0b101):
                assert scanned.scan(A, []) == []
            assert scanned.eval_count == calls
            A = 0b101
            got = scanned.scan(A, [2, 1, 0, 3])
            ref = batched.values(as_matrix([A, A | 0b10, A, A | 0b1000], n))
            assert type(got) is list and all(type(v) is float for v in got)
            assert got == ref.tolist() == [obj._fn(A | (1 << u)) for u in (2, 1, 0, 3)]
            assert scanned.eval_count == batched.eval_count == calls + 4


def test_candidate_scans_evaluate_only_non_members():
    # positive modular weights: every scan adds an element, so the i-th scan
    # evaluates the n - i + 1 sets that grow the current set, and the value of
    # the solution is the one the last scan found
    f = modular_oracle([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    run = random_greedy_cardinality(f, 3, seed=0)
    assert run.solution.bit_count() == 3
    assert run.oracle_calls == 1 + 6 + 5 + 4
    run = threshold_random_greedy(f, 3, 0.2, seed=0)
    assert run.solution.bit_count() == 3
    assert run.oracle_calls == 1 + 6 + 5 + 4


def algorithm_runs(f, n):
    k = 4
    blocks = [list(range(0, n, 2)), list(range(1, n, 2))]
    M = PartitionMatroid(n, blocks, [2, 2])
    return {
        "greedy_cardinality": greedy_cardinality(f, k),
        "random_greedy_cardinality": random_greedy_cardinality(f, k, seed=5),
        "threshold_greedy": threshold_greedy(f, k, 0.2),
        "sample_greedy": sample_greedy(f, k, 0.2, seed=6),
        "threshold_random_greedy": threshold_random_greedy(f, k, 0.2, seed=7),
        "greedy_matroid": greedy_matroid(f, M),
        "random_greedy_matroid": random_greedy_matroid(f, M, 0.25, seed=8),
        "double_greedy": double_greedy(f, seed=9),
    }


@pytest.mark.parametrize("n", [12, 30])
def test_algorithms_agree_with_and_without_kernel(n):
    for f in objectives(n, seed=3):
        plain = scalar_twin(f)
        batched_runs, scalar_runs = algorithm_runs(f, n), algorithm_runs(plain, n)
        for alg, run in batched_runs.items():
            ref = scalar_runs[alg]
            assert (run.solution, run.value, run.oracle_calls) == \
                (ref.solution, ref.value, ref.oracle_calls), (f.name, alg)
        assert f.eval_count == plain.eval_count

        cfg = MCGConfig(steps=6, samples=8, seed=11)
        M = UniformMatroid(n, 3)
        got = measured_continuous_greedy(f, M, cfg, trace=True)
        ref = measured_continuous_greedy(plain, M, cfg, trace=True)
        np.testing.assert_array_equal(got.y, ref.y)
        assert got.trace == ref.trace
        assert got.discretization_bound == ref.discretization_bound

        x = np.random.default_rng(n).random(n)
        cfg = SampleConfig(samples=50, seed=12)
        assert multilinear_sampled(f, x, cfg) == multilinear_sampled(plain, x, cfg)
        assert f.eval_count == plain.eval_count


def test_multilinear_exact_batched_equals_scalar():
    for f in objectives(9, seed=2):
        x = np.random.default_rng(1).random(9)
        plain = scalar_twin(f)
        assert multilinear_exact(f, x) == multilinear_exact(plain, x)
        assert f.eval_count == plain.eval_count == 1 << 9


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.0, 1.0), psd=st.booleans())
def test_batched_equals_scalar_property(data, n, seed, lam, psd):
    if psd:
        s = psd_similarity(n, seed, d=max(2, n // 2))
    else:  # symmetric with uniform entries, not a Gram matrix
        s = np.random.default_rng(seed).random((n, n))
        s = np.triu(s) + np.triu(s, 1).T
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    for f in (movie_objective(s, lam), image_objective(s)):
        got = f.values(as_matrix(masks, n))
        assert got.tolist() == [f._fn(m) for m in masks]
        assert f.eval_count == len(masks)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.0, 1.0))
def test_id_row_scan_equals_scalar_value_property(data, n, seed, lam):
    s = psd_similarity(n, seed, d=max(2, n // 2))
    A = data.draw(st.integers(0, (1 << n) - 1), label="A")
    # unsorted, possibly repeated, possibly empty, possibly members of A
    cands = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 3), label="cands")
    members = ids_of(A)
    if members and data.draw(st.booleans(), label="add a member of A"):
        cands.insert(data.draw(st.integers(0, len(cands))), members[-1])
    for f in (movie_objective(s, lam), image_objective(s)):
        plain = scalar_twin(f)
        got = f.scan(A, cands)
        ref = [plain.value(A | (1 << u)) for u in cands]
        # a candidate in A yields f(A)
        assert type(got) is list and all(type(v) is float for v in got)
        np.testing.assert_array_equal(np.array(got, dtype=float).view(np.int64),
                                      np.array(ref, dtype=float).view(np.int64))
        assert f.eval_count == plain.eval_count == len(cands)
        assert f.scan(A, []) == [] and f.eval_count == len(cands)
        for bad in (n, n + data.draw(st.integers(1, 70), label="beyond"), -1):
            for g in (f, plain):
                count = g.eval_count
                with pytest.raises(ValueError, match=f"^candidate {bad} of oracle "
                                   f"{re.escape(f.name)} is outside the "
                                   f"{n}-element ground set$"):
                    g.scan(A, cands + [bad])
                assert g.eval_count == count


# ------------------------------------------------------- non-finite values

def test_non_finite_values_raise_and_name_the_mask():
    nan_table = [0.0, 1.0, float("nan"), 0.5]
    with pytest.raises(ValueError, match=r"non-finite value nan for mask 2 \(elements \[1\]\)"):
        exact_monotonicity_ratio(table_oracle(nan_table))
    with pytest.raises(ValueError, match="mask 2"):
        double_greedy(table_oracle(nan_table), seed=0)
    inf = SetFunctionOracle(GroundSet(3), lambda m: math.inf if m == 5 else 1.0,
                            name="inf")
    assert inf.value(4) == 1.0
    with pytest.raises(ValueError, match="oracle inf .* mask 5"):
        inf.value(5)


def has(ids, u):
    """Rows of an id array that hold element u."""
    return (ids == u).any(axis=1)


def test_batched_non_finite_values_raise_and_name_the_mask():
    def ids_fn(ids):
        out = np.full(len(ids), float(ids.shape[1]))
        out[has(ids, 0) & has(ids, 2)] = np.nan
        return out

    f = SetFunctionOracle(GroundSet(3), lambda m: float(m.bit_count()),
                          ids_fn=ids_fn, name="holey")
    assert f.values(as_matrix([1, 2, 3], 3)).tolist() == [1.0, 1.0, 2.0]
    with pytest.raises(ValueError, match=r"oracle holey .* mask 7 \(elements \[0, 1, 2\]\)"):
        f.values(as_matrix([0, 7, 5], 3))


def test_scan_non_finite_values_raise_and_name_the_mask():
    def fn(mask):
        return math.nan if mask == 5 else float(mask.bit_count())

    def ids_fn(ids):
        out = np.full(len(ids), float(ids.shape[1]))
        out[has(ids, 0) & ~has(ids, 1) & has(ids, 2)] = np.nan
        return out

    for kernel in (None, ids_fn):
        f = SetFunctionOracle(GroundSet(3), fn, ids_fn=kernel, name="holey")
        assert f.scan(1, [1]) == [2.0]
        with pytest.raises(ValueError, match=r"oracle holey .* mask 5 \(elements \[0, 2\]\)"):
            f.scan(1, [1, 2])
