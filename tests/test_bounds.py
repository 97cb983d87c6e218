import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import gap_oracle
from monoratio import (bounds, cardinality_hardness, curves_csv, evaluate_curve,
                       guarantee, matroid_hardness, multilinear_exact,
                       smallest_grid_crossing, symmetry_gap_unconstrained,
                       upper_bound_from_output)
from monoratio.bounds import CURVE_IDS

INV_E = math.exp(-1.0)
M_GRID = np.linspace(0.0, 1.0, 101)
HARDNESS = {fn.__name__: fn for fn in (cardinality_hardness, matroid_hardness,
                                       symmetry_gap_unconstrained)}


def test_guarantee_closed_forms():
    assert guarantee("random_greedy_card", 0.0) == pytest.approx(INV_E)
    assert guarantee("random_greedy_card", 0.5) == pytest.approx(0.5)
    assert guarantee("random_greedy_card", 1.0) == pytest.approx(1 - INV_E)
    assert guarantee("rgm", 0.0) == pytest.approx((1 + math.exp(-2)) / 4)
    assert guarantee("rgm", 0.0) == pytest.approx(0.283833, abs=1e-6)
    assert guarantee("rgm", 1.0) == 0.5
    assert guarantee("unconstrained_hard", 0.5) == pytest.approx(2 / 3)
    assert guarantee("unconstrained_hard", 0.0) == 0.5
    assert guarantee("unconstrained_hard", 1.0) == 1.0
    assert guarantee("unconstrained_alg", 0.9) == pytest.approx(0.9)
    assert guarantee("unconstrained_alg", 0.1) == pytest.approx(0.525)
    assert guarantee("greedy_card", 1.0) == pytest.approx(1 - INV_E)
    assert guarantee("greedy_matroid", 0.8) == pytest.approx(0.4)
    assert guarantee("mcg", 0.0) == pytest.approx(INV_E)
    assert guarantee("mcg", 1.0) == pytest.approx(1 - INV_E)
    with pytest.raises(ValueError):
        guarantee("nope", 0.5)
    with pytest.raises(ValueError):
        guarantee("greedy_card", 1.5)


def test_symmetry_gap_matches_closed_form():
    for m in M_GRID:
        assert abs(symmetry_gap_unconstrained(float(m))
                   - 1.0 / (2.0 - m)) < 1e-12


def test_hardness_endpoints():
    assert 0.486 <= cardinality_hardness(0.0) <= 0.496
    assert 0.473 <= matroid_hardness(0.0) <= 0.483
    assert cardinality_hardness(1.0) == pytest.approx(1 - INV_E, abs=1e-9)
    assert matroid_hardness(1.0) == pytest.approx(0.75, abs=1e-6)


def test_hardness_rejects_degenerate_resolution():
    # the numeric references need at least two grid points per axis
    for reference in (numeric_cardinality_hardness, numeric_matroid_hardness):
        for resolution in (0, 1):
            with pytest.raises(ValueError, match="resolution"):
                reference(0.5, resolution)


def test_matroid_hardness_alpha_one_slice():
    # with the convex-combination weight pinned to the symmetric instance the
    # inner max is the parabola vertex value: at m=0 it is 1/2 at x=1/2
    xs = np.linspace(0.0, 0.5, 2001)
    inner = 0.0 * xs ** 2 + 2 * xs - 2 * xs ** 2
    assert inner.max() == pytest.approx(0.5)
    assert matroid_hardness(0.0) <= 0.5 + 1e-9


def test_consistency_alg_below_hardness():
    ch = {m: cardinality_hardness(float(m)) for m in M_GRID[::10]}
    mh = {m: matroid_hardness(float(m)) for m in M_GRID[::10]}
    for m in M_GRID:
        assert guarantee("unconstrained_alg", float(m)) \
            <= guarantee("unconstrained_hard", float(m)) + 1e-12
    for m, h in ch.items():
        assert guarantee("greedy_card", float(m)) <= h + 1e-9
        assert guarantee("random_greedy_card", float(m)) <= h + 1e-9
        assert guarantee("random_greedy_card", float(m)) <= 1 - INV_E + 1e-9
    for m, h in mh.items():
        cap = min(h, 1 - INV_E)
        assert guarantee("greedy_matroid", float(m)) <= cap + 1e-9
        assert guarantee("mcg", float(m)) <= cap + 1e-9
        assert guarantee("rgm", float(m)) <= cap + 1e-9


def test_monotone_in_m():
    kinds = ["unconstrained_alg", "unconstrained_hard", "greedy_card",
             "random_greedy_card", "greedy_matroid", "mcg", "rgm"]
    for kind in kinds:
        vals = [guarantee(kind, float(m)) for m in M_GRID]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), kind
    for fn in (cardinality_hardness, matroid_hardness):
        vals = [fn(float(m)) for m in M_GRID]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


def test_nonlinearity_witness():
    # the optimal unconstrained ratio cannot be linear in m:
    # 1/(2-m) stays strictly below the segment from (0,1/2) to (1,1)
    for m in M_GRID[1:-1]:
        assert 1.0 / (2.0 - m) < 0.5 + m / 2.0


def test_upper_bound_from_output():
    assert upper_bound_from_output(0.8, 0.5) == pytest.approx(1.6)
    assert upper_bound_from_output(1.0, 1.0) == pytest.approx(1.0)
    assert upper_bound_from_output(0.9, 0.25) == pytest.approx(3.6)
    with pytest.raises(ValueError):
        upper_bound_from_output(1.0, 0.0)


def test_evaluate_curve_and_csv():
    c = evaluate_curve("unconstrained_hard", num_points=11)
    assert c.points[0] == (0.0, 0.5)
    assert c.points[-1] == (1.0, 1.0)
    text = curves_csv([c])
    lines = text.splitlines()
    assert lines[0] == "m,value,expression_id"
    assert len(lines) == 12
    assert lines[1] == "0,0.5,unconstrained_hard"
    ms = [float(line.split(",")[0]) for line in lines[1:]]
    assert ms == sorted(ms)
    with pytest.raises(ValueError):
        evaluate_curve("bogus")
    for num_points in (0, -3):
        with pytest.raises(ValueError,
                           match=f"num_points must be >= 1, got {num_points}"):
            evaluate_curve("rgm", num_points=num_points)
    assert evaluate_curve("rgm", num_points=1).points \
        == [(0.0, guarantee("rgm", 0.0))]


@pytest.mark.parametrize("expression_id", CURVE_IDS)
def test_every_curve_csv_row_is_m_value_and_id(expression_id):
    c = evaluate_curve(expression_id, num_points=7)
    assert curves_csv([c]).splitlines() == ["m,value,expression_id"] + [
        f"{m:.10g},{v:.12g},{expression_id}" for m, v in c.points]
    assert all(line.count(",") == 2 for line in curves_csv([c]).splitlines())


def test_smallest_grid_crossing():
    fn = lambda m: m * m
    assert smallest_grid_crossing(fn, 0.25, step=0.001) == pytest.approx(0.5)
    assert smallest_grid_crossing(fn, 0.0, step=0.001) == 0.0
    with pytest.raises(ValueError):
        smallest_grid_crossing(lambda m: 0.0, 1.0, step=0.01)


# float.hex of the cardinality curve's upper bound (one golden-section
# search in alpha, each max over x exact; 1 - 1/e on its flat branch) and
# of the matroid and symmetry-gap closed forms
GOLDEN_HEX = {
    "cardinality_hardness": {
        0.0: "0x1.f6c464c293032p-2", 0.25: "0x1.1918b631f9a34p-1",
        0.361872: "0x1.27bacf0d973e4p-1", 0.5: "0x1.3ade3cc00f486p-1",
        0.75: "0x1.43a54e4e98864p-1", 1.0: "0x1.43a54e4e98864p-1"},
    "matroid_hardness": {
        0.0: "0x1.e8c1f856479b8p-2", 0.25: "0x1.11e16ddafe230p-1",
        0.361872: "0x1.2105dbed0ec5ap-1", 0.5: "0x1.3593303ab5a15p-1",
        0.75: "0x1.6000000000000p-1", 1.0: "0x1.8000000000000p-1"},
    "symmetry_gap_unconstrained": {
        0.0: "0x1.0000000000000p-1", 0.25: "0x1.2492492492492p-1",
        0.361872: "0x1.388d489086247p-1", 0.5: "0x1.5555555555555p-1",
        0.75: "0x1.999999999999ap-1", 1.0: "0x1.0000000000000p+0"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_hardness_golden_values(name):
    for m, expected in GOLDEN_HEX[name].items():
        assert HARDNESS[name](m).hex() == expected, (name, m)


DENOMS = {"cardinality_hardness": lambda a: np.maximum(1.0, 2.0 * (1.0 - a))}


def numeric_cardinality_hardness(m, resolution):
    """The cardinality curve's min-max on the (alpha, x) grid with
    golden-section refinement: the numeric reference of the bracket."""
    term_a = lambda x: m * x * x + 2.0 * x - 2.0 * x * x
    term_b = lambda x: 2.0 * (1.0 - helpers._exp(x - 1.0)) * (1.0 - (1.0 - m) * x)
    return helpers._nested_min_max(term_a, term_b, DENOMS["cardinality_hardness"],
                                   1.0, resolution)


# The numeric references of the differential tests below; the grid tests
# check that a reference's pruned grid keeps the full grid's argmin.
REFERENCE = {"cardinality_hardness": numeric_cardinality_hardness}


def full_row_max(A, B, alphas):
    return (alphas[:, None] * A[None, :]
            + (1.0 - alphas)[:, None] * B[None, :]).max(axis=1)


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_grid_row_blocks_match_full_matrix(monkeypatch, rows):
    # 61 is not a multiple of 7, and 1000 rows hold the whole grid in one
    # block; every call is checked: the lower bound, the threshold row and
    # the exact rows
    resolution = 61
    seen = []
    blocked = helpers._grid_row_max

    def spy(A, B, alphas):
        out = blocked(A, B, alphas)
        seen.append((A, B, alphas, out))
        return out

    monkeypatch.setattr(helpers, "_GRID_BLOCK_BYTES", 8 * resolution * rows)
    monkeypatch.setattr(helpers, "_grid_row_max", spy)
    for m in (0.0, 0.2, 0.361872, 0.75, 1.0):
        for name, denom in DENOMS.items():
            seen.clear()
            REFERENCE[name](m, resolution)
            assert seen, (name, m)
            for A, B, alphas, got in seen:
                full = full_row_max(A, B, alphas)
                assert np.array_equal(got, full), (name, m)
                assert np.argmin(got / denom(alphas)) == np.argmin(full / denom(alphas))


def chosen_rows(name, m, resolution):
    """(A, B, alphas, d, j) of every row choice one reference point makes."""
    calls = []
    pruned = helpers._first_min_row

    def spy(A, B, alphas, d):
        j = pruned(A, B, alphas, d)
        calls.append((A, B, alphas, d, j))
        return j

    with mock.patch.object(helpers, "_first_min_row", spy):
        REFERENCE[name](m, resolution)
    return calls


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(DENOMS)), m=st.floats(0.0, 1.0),
       resolution=st.sampled_from([2, 3, 17, 61, 501]))
def test_pruned_row_equals_full_grid_argmin_property(name, m, resolution):
    (A, B, alphas, d, j), = chosen_rows(name, m, resolution)
    assert np.array_equal(d, DENOMS[name](alphas))
    assert j == np.argmin(full_row_max(A, B, alphas) / d), (name, m, resolution)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cols=st.integers(1, 70), rows=st.integers(1, 40))
def test_pruned_row_equals_full_grid_argmin_with_ties_property(data, cols, rows):
    # few distinct values, so rows tie and many bounds meet the minimum
    values = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 3.0])
    A = np.array(data.draw(st.lists(values, min_size=cols, max_size=cols)))
    B = np.array(data.draw(st.lists(values, min_size=cols, max_size=cols)))
    alphas = np.linspace(0.0, 1.0, rows)
    d = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                    min_size=rows, max_size=rows)))
    assert helpers._first_min_row(A, B, alphas, d) \
        == np.argmin(full_row_max(A, B, alphas) / d)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), cols=st.integers(2, 70), rows=st.integers(1, 40))
def test_pruned_row_equals_full_grid_argmin_with_spikes_property(data, cols,
                                                                  rows):
    # spikes between the strided columns lift rows far above their lower
    # bound, so the row with the smallest lower bound is often not the
    # argmin; few distinct values make lower bounds tie the threshold
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    between = [j for j in range(cols) if j % helpers._PRUNE_STRIDE]

    def spiked_term():
        term = np.array(data.draw(st.lists(values, min_size=cols,
                                           max_size=cols)))
        spikes = data.draw(st.lists(st.sampled_from(between), max_size=3))
        term[spikes] = data.draw(st.sampled_from([1.5, 2.0, 8.0]))
        return term

    A, B = spiked_term(), spiked_term()
    alphas = np.linspace(0.0, 1.0, rows)
    d = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                    min_size=rows, max_size=rows)))
    assert helpers._first_min_row(A, B, alphas, d) \
        == np.argmin(full_row_max(A, B, alphas) / d)


@pytest.mark.parametrize("name", sorted(DENOMS))
def test_each_point_evaluates_few_rows_in_full(monkeypatch, name):
    # the threshold row and the rows the lower bound keeps: at most 34 of
    # 2001 per point of the reference on the 101-point curve, kinks included
    full = []
    exact = helpers._grid_row_max

    def spy(A, B, alphas):
        if len(A) == 2001:
            full[-1] += len(alphas)
        return exact(A, B, alphas)

    monkeypatch.setattr(helpers, "_grid_row_max", spy)
    for m in M_GRID:
        full.append(0)
        REFERENCE[name](float(m), 2001)
    assert 1 <= max(full) <= 40, (name, max(full))


@pytest.mark.parametrize("name", ["cardinality_hardness"])
def test_each_search_runs_one_golden_section_round(name):
    # one search in alpha on [1/2, 1], of 43 evaluations; the max over x
    # inside each is exact, with no search
    evals = []
    search = bounds._golden_section_max

    def spy(fn, lo, hi):
        evals.append(0)
        i = len(evals) - 1

        def counted(x):
            evals[i] += 1
            return fn(x)
        return search(counted, lo, hi)

    with mock.patch.object(bounds, "_golden_section_max", spy):
        HARDNESS[name](0.3)
    assert evals == [43]


C_MATROID = 2.0 * (1.0 - math.exp(-0.5))


def numeric_matroid_hardness(m, resolution):
    """The matroid curve's min-max on the (alpha, x) grid with golden-section
    refinement: the numeric reference of the closed form."""
    term_a = lambda x: m * x * x + 2.0 * x - 2.0 * x * x
    term_b = lambda x: C_MATROID * (1.0 - (1.0 - m) * x)
    return helpers._nested_min_max(term_a, term_b, np.ones_like, 0.5, resolution)


def test_matroid_closed_form_equals_numeric_min_max():
    # at resolution 2001 the reference is the former numeric curve; the
    # closed form moves it by at most 3 ulp (2.2e-16) at these points
    for m in M_GRID:
        exact = matroid_hardness(float(m))
        assert abs(exact - numeric_matroid_hardness(float(m), 2001)) <= 4.4e-16, m
        assert abs(exact - numeric_matroid_hardness(float(m), 6001)) <= 1e-12, m


@settings(max_examples=60, deadline=None)
@given(m=st.floats(0.0, 1.0), resolution=st.sampled_from([2001, 6001]))
def test_matroid_closed_form_equals_numeric_min_max_property(m, resolution):
    assert abs(matroid_hardness(m) - numeric_matroid_hardness(m, resolution)) \
        <= 1e-12, (m, resolution)


def test_cardinality_equals_numeric_min_max():
    # at resolution 2001 the reference is the former numeric curve
    for m in M_GRID:
        value = cardinality_hardness(float(m))
        for resolution in (2001, 6001):
            reference = numeric_cardinality_hardness(float(m), resolution)
            assert abs(value - reference) <= 1e-12, (m, resolution)


@settings(max_examples=40, deadline=None)
@given(m=st.floats(0.0, 1.0), resolution=st.sampled_from([2001, 6001]))
def test_cardinality_equals_numeric_min_max_property(m, resolution):
    assert abs(cardinality_hardness(m)
               - numeric_cardinality_hardness(m, resolution)) <= 1e-12, (m, resolution)


@settings(max_examples=200, deadline=None)
@given(m=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_inner_max_brackets_the_grid_max_property(m, a, b):
    # |h''| <= 4(a+b) on [0,1] (|A''| = 2(2-m), |B''| = 2e^{x-1}|2c-1+cx|),
    # so the grid max is within 4(a+b)step^2/8 of the max; 1e-15 absorbs
    # the rounding of the two evaluations
    A, B = bounds._argmax_terms(m, a, b)
    exact = a * A + b * B
    xs = np.linspace(0.0, 1.0, 20001)
    grid = (a * ((m - 2.0) * xs * xs + 2.0 * xs)
            + b * 2.0 * (1.0 - np.exp(xs - 1.0)) * (1.0 - (1.0 - m) * xs)).max()
    step = xs[1]
    assert grid - 1e-15 <= exact <= grid + 4.0 * (a + b) * step * step / 8.0 + 1e-15, \
        (m, a, b, exact, grid)


def test_cardinality_bracket_is_tight():
    for m in M_GRID:
        lower, upper = bounds._cardinality_bracket(float(m))
        assert upper - lower <= 1e-12, (m, lower, upper)
        assert cardinality_hardness(float(m)) == upper, m
    assert bounds._cardinality_bracket(1.0) == (1.0 - INV_E, 1.0 - INV_E)


def test_matroid_hardness_is_the_vertex_value_above_the_switch():
    # A(1/2) = (m+2)/4 <= B(1/2) = c(1+m)/2 exactly when m >= 2(1-c)/(2c-1)
    switch = 2.0 * (1.0 - C_MATROID) / (2.0 * C_MATROID - 1.0)
    assert 0.7425 < switch < 0.7426
    for m in [*M_GRID[M_GRID >= 0.75], 0.7426]:
        assert matroid_hardness(float(m)) == (float(m) + 2.0) / 4.0, m
    assert matroid_hardness(0.7425) < (0.7425 + 2.0) / 4.0


def test_gap_instance_realizes_the_curve_term():
    # the two-element gap function of ratio m has multilinear extension
    # A(x) = mx^2 + 2x - 2x^2 on the diagonal, and its diagonal maximum is
    # the symmetry gap 1/(2-m)
    for m in np.linspace(0.0, 1.0, 11):
        f = gap_oracle(float(m))
        for x in np.linspace(0.0, 1.0, 11):
            term = m * x * x + 2.0 * x - 2.0 * x * x
            assert abs(multilinear_exact(f, [x, x]) - term) <= 2.0 ** -52, (m, x)
        xs = np.linspace(0.0, 1.0, 2001)
        best = max(multilinear_exact(f, [x, x]) for x in xs)
        # a grid step of 1/2000 misses the vertex by at most (2-m)(1/4000)^2
        assert 0.0 <= symmetry_gap_unconstrained(float(m)) - best \
            <= (2.0 - m) / 4000.0 ** 2 + 1e-15, m


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(bounds.GUARANTEE_KINDS)),
       a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_guarantees_nondecreasing_property(kind, a, b):
    lo, hi = sorted((a, b))
    assert guarantee(kind, lo) <= guarantee(kind, hi) + 1e-12, (kind, lo, hi)


# An algorithm for matroids also runs under a cardinality constraint, so both
# constrained hardness curves cap its guarantee.
CAPPED_BY = {
    "unconstrained_alg": ("symmetry_gap_unconstrained",),
    "greedy_card": ("cardinality_hardness",),
    "random_greedy_card": ("cardinality_hardness",),
    "greedy_matroid": ("cardinality_hardness", "matroid_hardness"),
    "mcg": ("cardinality_hardness", "matroid_hardness"),
    "rgm": ("cardinality_hardness", "matroid_hardness"),
}


@settings(max_examples=15, deadline=None)
@given(m=st.floats(0.0, 1.0))
def test_guarantees_below_hardness_property(m):
    curves = {name: fn(m) for name, fn in HARDNESS.items()}
    for kind, caps in CAPPED_BY.items():
        for name in caps:
            assert guarantee(kind, m) <= curves[name] + 1e-12, (kind, name, m)


@settings(max_examples=100, deadline=None)
@given(m=st.floats(0.0, 1.0))
def test_guarantees_below_cardinality_lower_bound_property(m):
    # no slack: the certified lower end of the bracket, not the value
    lower, _ = bounds._cardinality_bracket(m)
    for kind, caps in CAPPED_BY.items():
        if "cardinality_hardness" in caps:
            assert guarantee(kind, m) <= lower, (kind, m, lower)
