import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoratio import (bounds, cardinality_hardness, evaluate_curve,
                       guarantee, matroid_hardness, smallest_grid_crossing,
                       symmetry_gap_unconstrained, upper_bound_from_output)

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
        assert abs(symmetry_gap_unconstrained(float(m), resolution=501)
                   - 1.0 / (2.0 - m)) < 1e-6


def test_hardness_endpoints():
    assert 0.486 <= cardinality_hardness(0.0) <= 0.496
    assert 0.473 <= matroid_hardness(0.0) <= 0.483
    assert cardinality_hardness(1.0) == pytest.approx(1 - INV_E, abs=1e-9)
    assert matroid_hardness(1.0) == pytest.approx(0.75, abs=1e-6)


def test_hardness_rejects_degenerate_resolution():
    for fn in HARDNESS.values():
        for resolution in (0, 1):
            with pytest.raises(ValueError, match="resolution"):
                fn(0.5, resolution=resolution)


def test_matroid_hardness_alpha_one_slice():
    # with the convex-combination weight pinned to the symmetric instance the
    # inner max is the parabola vertex value: at m=0 it is 1/2 at x=1/2
    xs = np.linspace(0.0, 0.5, 2001)
    inner = 0.0 * xs ** 2 + 2 * xs - 2 * xs ** 2
    assert inner.max() == pytest.approx(0.5)
    assert matroid_hardness(0.0) <= 0.5 + 1e-9


def test_consistency_alg_below_hardness():
    ch = {m: cardinality_hardness(float(m), resolution=501, rounds=2)
          for m in M_GRID[::10]}
    mh = {m: matroid_hardness(float(m), resolution=501, rounds=2)
          for m in M_GRID[::10]}
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
        vals = [fn(float(m), resolution=301, rounds=1) for m in M_GRID]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:])), fn.__name__


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
    text = c.to_csv()
    lines = text.splitlines()
    assert lines[0] == "m,value,expression_id,resolution"
    assert len(lines) == 12
    assert lines[1].startswith("0,0.5,unconstrained_hard,")
    ms = [float(line.split(",")[0]) for line in lines[1:]]
    assert ms == sorted(ms)
    with pytest.raises(ValueError):
        evaluate_curve("bogus")


def test_smallest_grid_crossing():
    fn = lambda m: m * m
    assert smallest_grid_crossing(fn, 0.25, step=0.001) == pytest.approx(0.5)
    assert smallest_grid_crossing(fn, 0.0, step=0.001) == 0.0
    with pytest.raises(ValueError):
        smallest_grid_crossing(lambda m: 0.0, 1.0, step=0.01)


# float.hex of the numeric curves at default resolution and rounds, as the
# evaluator gave them with one-element-array golden-section steps and the
# full (alpha, x) grid matrix
GOLDEN_HEX = {
    "cardinality_hardness": {
        0.0: "0x1.f6c464c293032p-2", 0.25: "0x1.1918b631f9a33p-1",
        0.361872: "0x1.27bacf0d973e3p-1", 0.5: "0x1.3ade3cc00f486p-1",
        0.75: "0x1.43a54e4e98863p-1", 1.0: "0x1.43a54e4e98863p-1"},
    "matroid_hardness": {
        0.0: "0x1.e8c1f856479b8p-2", 0.25: "0x1.11e16ddafe230p-1",
        0.361872: "0x1.2105dbed0ec5ap-1", 0.5: "0x1.3593303ab5a14p-1",
        0.75: "0x1.6000000000000p-1", 1.0: "0x1.8000000000000p-1"},
    "symmetry_gap_unconstrained": {
        0.0: "0x1.0000000000000p-1", 0.25: "0x1.2492492492492p-1",
        0.361872: "0x1.388d489086246p-1", 0.5: "0x1.5555555555555p-1",
        0.75: "0x1.999999999999ap-1", 1.0: "0x1.0000000000000p+0"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_hardness_golden_values(name):
    for m, expected in GOLDEN_HEX[name].items():
        assert HARDNESS[name](m).hex() == expected, (name, m)


DENOMS = {"cardinality_hardness": lambda a: np.maximum(1.0, 2.0 * (1.0 - a)),
          "matroid_hardness": np.ones_like}


def full_row_max(A, B, alphas):
    return (alphas[:, None] * A[None, :]
            + (1.0 - alphas)[:, None] * B[None, :]).max(axis=1)


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_grid_row_blocks_match_full_matrix(monkeypatch, rows):
    # 61 is not a multiple of 7, and 1000 rows hold the whole grid in one
    # block; every call is checked: the two row bounds and the exact rows
    resolution = 61
    seen = []
    blocked = bounds._grid_row_max

    def spy(A, B, alphas):
        out = blocked(A, B, alphas)
        seen.append((A, B, alphas, out))
        return out

    monkeypatch.setattr(bounds, "_GRID_BLOCK_BYTES", 8 * resolution * rows)
    monkeypatch.setattr(bounds, "_grid_row_max", spy)
    for m in (0.0, 0.2, 0.361872, 0.75, 1.0):
        for name, denom in DENOMS.items():
            seen.clear()
            HARDNESS[name](m, resolution=resolution, rounds=1)
            assert seen, (name, m)
            for A, B, alphas, got in seen:
                full = full_row_max(A, B, alphas)
                assert np.array_equal(got, full), (name, m)
                assert np.argmin(got / denom(alphas)) == np.argmin(full / denom(alphas))


def chosen_rows(name, m, resolution):
    """(A, B, alphas, d, j) of every row choice one hardness point makes."""
    calls = []
    pruned = bounds._first_min_row

    def spy(A, B, alphas, d):
        j = pruned(A, B, alphas, d)
        calls.append((A, B, alphas, d, j))
        return j

    with mock.patch.object(bounds, "_first_min_row", spy):
        HARDNESS[name](m, resolution=resolution, rounds=0)
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
    assert bounds._first_min_row(A, B, alphas, d) \
        == np.argmin(full_row_max(A, B, alphas) / d)


@pytest.mark.parametrize("fn", [cardinality_hardness, matroid_hardness])
def test_hardness_accuracy_against_finer_run(fn):
    for m in (0.0, 0.5, 1.0):
        coarse = fn(m)
        fine = fn(m, resolution=6001, rounds=4)
        assert abs(coarse - fine) <= 1e-4, (fn.__name__, m, coarse, fine)


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
