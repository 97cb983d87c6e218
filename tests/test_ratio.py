import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (continuous_ratio_grid_bound, directed_cut_edge,
                     gap_oracle, mixture_oracle, mixture_table, modular_oracle,
                     naive_monotonicity_ratio, naive_weak_ratio, psd_similarity,
                     table_oracle)
from monoratio import (SetFunctionOracle, SizeLimitError,
                       exact_monotonicity_ratio, exact_weak_monotonicity_ratio,
                       image_objective, image_weak_ratio_bound, is_submodular,
                       movie_objective, movie_ratio_bound, quadratic_ratio_bound)
from monoratio.oracle import _f_table


def test_ratio_examples():
    f = modular_oracle([1.0, 1.0, 1.0])
    assert exact_monotonicity_ratio(f).ratio == 1.0

    cut = directed_cut_edge()
    rep = exact_monotonicity_ratio(cut)
    assert rep.ratio == 0.0
    assert rep.witness_S == 0b01 and rep.witness_T == 0b11

    for m in [0.0, 0.25, 0.5, 0.9, 1.0]:
        assert exact_monotonicity_ratio(gap_oracle(m)).ratio == pytest.approx(m)


def test_ratio_eval_count_and_limit():
    f, _ = mixture_oracle(4, seed=0)
    rep = exact_monotonicity_ratio(f)
    assert rep.eval_count == 16

    big = modular_oracle([1.0] * 17)
    with pytest.raises(SizeLimitError):
        exact_monotonicity_ratio(big)


def test_dp_matches_naive_scan():
    for i in range(60):
        n = 3 + i % 6
        table = mixture_table(n, seed=500 + i)
        f = table_oracle(table)
        rep = exact_monotonicity_ratio(f)
        ratio, wS, wT = naive_monotonicity_ratio(table)
        assert rep.ratio == ratio  # bit-exact
        assert (rep.witness_S, rep.witness_T) == (wS, wT)


def test_dp_zero_convention():
    # f vanishing on a chain: those pairs contribute ratio 1
    table = [0.0, 0.0, 2.0, 1.0]  # f(empty)=f({0})=0
    f = table_oracle(table)
    rep = exact_monotonicity_ratio(f)
    assert rep.ratio == 0.5  # f({0,1})/f({1})
    ratio, wS, wT = naive_monotonicity_ratio(table)
    assert (rep.ratio, rep.witness_S, rep.witness_T) == (ratio, wS, wT)

    zero = table_oracle([0.0, 0.0, 0.0, 0.0])
    assert exact_monotonicity_ratio(zero).ratio == 1.0


def test_certifiers_reject_negative_values():
    # f(empty) = 1 and f({0}) = -1.5 used to certify ratio -1.5
    f = table_oracle([1.0, -1.5], name="signed")
    with pytest.raises(ValueError, match=r"oracle signed .* -1\.5 at mask 1 \(elements \[0\]\)"):
        exact_monotonicity_ratio(f)
    # the first negative mask is named
    f = table_oracle([1.0, 0.5, -2.0, -1.5], name="signed")
    for certify in (exact_monotonicity_ratio,
                    lambda g: exact_weak_monotonicity_ratio(g, lambda m: True)):
        with pytest.raises(ValueError, match=r"at mask 2 \(elements \[1\]\)"):
            certify(f)
    # submodularity is a property of signed functions too
    assert is_submodular(table_oracle([0.0, -1.0, -2.0, -3.0])) is True


def _random_table(n: int, seed: int, levels: int) -> np.ndarray:
    """Non-negative table: uniform values with some zeros, or, with levels
    > 0, integers in [0, levels] so that ties and the zero convention
    decide the witnesses."""
    rng = np.random.default_rng(seed)
    if levels:
        return rng.integers(0, levels + 1, 1 << n).astype(float)
    return rng.random(1 << n) * (rng.random(1 << n) > 0.1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 1, 3]))
def test_ratio_dp_equals_naive_scan_property(n, seed, levels):
    table = _random_table(n, seed, levels)
    rep = exact_monotonicity_ratio(table_oracle(table))
    assert (rep.ratio, rep.witness_S, rep.witness_T) == naive_monotonicity_ratio(table)
    assert rep.eval_count == 1 << n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       levels=st.sampled_from([0, 1, 3]))
def test_weak_ratio_equals_strong_when_everything_feasible_property(n, seed, levels):
    table = _random_table(n, seed, levels)
    weak = exact_weak_monotonicity_ratio(table_oracle(table), lambda m: True)
    assert weak.ratio == exact_monotonicity_ratio(table_oracle(table)).ratio


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.0, 1.0), k=st.integers(1, 10))
def test_certifier_reports_same_with_and_without_kernel_property(n, seed, lam, k):
    s = psd_similarity(n, seed)
    for f in (movie_objective(s, lam), image_objective(s)):
        reports = set()
        for ids_fn in (f._ids_fn, None):
            g = SetFunctionOracle(f.ground, f._fn, ids_fn=ids_fn, name=f.name)
            reports.add((
                exact_monotonicity_ratio(g),
                exact_weak_monotonicity_ratio(g, lambda m: m.bit_count() <= k),
                is_submodular(g, witness=True)))
            assert g.eval_count == 3 << n
        assert len(reports) == 1


def test_certifier_table_spans_several_chunks():
    # 2^13 masks make two chunks of the batched truth table
    f = movie_objective(psd_similarity(13, seed=4), 0.8)
    plain = SetFunctionOracle(f.ground, f._fn, name=f.name)
    assert exact_monotonicity_ratio(f) == exact_monotonicity_ratio(plain)
    assert f.eval_count == plain.eval_count == 1 << 13
    ref = np.array([f._fn(mask) for mask in range(1 << 13)])
    for kernel in (f._ids_fn, None):
        g = SetFunctionOracle(f.ground, f._fn, ids_fn=kernel, name=f.name)
        np.testing.assert_array_equal(_f_table(g).view(np.int64), ref.view(np.int64))
        assert g.eval_count == 1 << 13


def test_weak_ratio_identity_when_everything_feasible():
    for seed in [2, 9, 31]:
        f, table = mixture_oracle(5, seed=seed)
        weak = exact_weak_monotonicity_ratio(f, lambda m: True)
        strong = exact_monotonicity_ratio(f)
        assert weak.ratio == pytest.approx(strong.ratio)


def test_weak_ratio_monotone_and_family_argument():
    f = modular_oracle([1.0, 2.0, 3.0])
    assert exact_weak_monotonicity_ratio(f, lambda m: True).ratio == 1.0
    # a listed family passes as its membership test
    fam = [0b001, 0b010, 0b011]
    f2, table = mixture_oracle(4, seed=77)
    rep = exact_weak_monotonicity_ratio(f2, set(fam).__contains__)
    assert rep.ratio == pytest.approx(naive_weak_ratio(table, fam))


def test_weak_ratio_image_objective_bound():
    s = psd_similarity(8, seed=5)
    f = image_objective(s)
    k = 2
    rep = exact_weak_monotonicity_ratio(f, lambda m: m.bit_count() <= k)
    assert rep.ratio >= 1.0 - 2.0 * k / 8 - 1e-9


def test_is_submodular_true_cases():
    f, _ = mixture_oracle(5, seed=13)  # coverage + cut is submodular
    assert is_submodular(f) is True

    movie = movie_objective(psd_similarity(6, seed=3), lam=0.8)
    ok, witness = is_submodular(movie, witness=True)
    assert ok and witness is None


def test_is_submodular_false_with_witness():
    n = 4
    f = table_oracle([float(m.bit_count() ** 2) for m in range(1 << n)])
    assert is_submodular(f) is False
    ok, witness = is_submodular(f, witness=True)
    assert not ok
    S, T, u = witness
    assert S & T == S and not (T >> u) & 1
    fv = lambda m: float(m.bit_count() ** 2)
    assert fv(S | (1 << u)) - fv(S) < fv(T | (1 << u)) - fv(T)


def test_closure_properties():
    # scaling, shifting and sums of m-monotone functions stay m-monotone
    for seed in range(10):
        f, table = mixture_oracle(5, seed=900 + seed)
        g, table_g = mixture_oracle(5, seed=950 + seed)
        m_f = exact_monotonicity_ratio(f).ratio
        m_g = exact_monotonicity_ratio(g).ratio

        scaled = table_oracle(3.7 * table)
        assert exact_monotonicity_ratio(scaled).ratio == pytest.approx(m_f)

        shifted = table_oracle(table + 2.5)
        assert exact_monotonicity_ratio(shifted).ratio >= m_f - 1e-12

        summed = table_oracle(table + table_g)
        assert exact_monotonicity_ratio(summed).ratio >= min(m_f, m_g) - 1e-12


def test_movie_ratio_bound_values():
    assert movie_ratio_bound(0.3) == 1.0
    assert movie_ratio_bound(0.75) == pytest.approx(0.5)
    assert movie_ratio_bound(1.0) == 0.0
    with pytest.raises(ValueError):
        movie_ratio_bound(1.5)


def test_image_weak_ratio_bound_values():
    assert image_weak_ratio_bound(10, 10000) == pytest.approx(0.998)
    assert image_weak_ratio_bound(5, 10) == 0.0
    assert image_weak_ratio_bound(2, 8) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        image_weak_ratio_bound(0, 10)


def test_quadratic_ratio_bound_values():
    assert quadratic_ratio_bound(0.3, 0.2, False) == pytest.approx(0.6 * 0.3 / 1.3)
    assert quadratic_ratio_bound(0.3, 0.2, True) == pytest.approx(0.6)
    assert quadratic_ratio_bound(1.0, 0.4999, True) == pytest.approx(0.0002, abs=1e-9)
    with pytest.raises(ValueError):
        quadratic_ratio_bound(0.3, 0.5, True)
    with pytest.raises(ValueError):
        quadratic_ratio_bound(0.0, 0.2, True)


def test_continuous_grid_bound():
    u = np.ones(3)
    monotone = lambda x: float(x.sum()) + 1.0
    assert continuous_ratio_grid_bound(monotone, u) == 1.0
    drop = lambda x: float(2.0 - x[0])
    assert continuous_ratio_grid_bound(drop, u) == pytest.approx(0.5)
