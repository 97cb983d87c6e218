import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monoratio.continuous as continuous
from helpers import (brute_opt, coverage_table, every_row_gain_estimates,
                     mixture_oracle, modular_oracle, psd_similarity,
                     recording_oracle, reference_frank_wolfe, table_oracle)
from monoratio import (DownClosedPolytope, FWConfig, MCGConfig,
                       PartitionMatroid, UniformMatroid, frank_wolfe_nonmonotone,
                       generate_quadratic_instance, ids_of, image_objective,
                       mask_of, matroid_polytope, measured_continuous_greedy,
                       mixture_objective, movie_objective, multilinear_exact,
                       swap_rounding)

INV_E = math.exp(-1.0)


# -------------------------------------------------------- measured continuous greedy

def test_mcg_modular_uniform_selected_coordinates():
    w = [5.0, 4.0, 3.0, 0.5, 0.2]
    f = modular_oracle(w)
    cfg = MCGConfig(T=1.0, steps=200, samples=64, seed=1)
    res = measured_continuous_greedy(f, UniformMatroid(5, 3), cfg)
    for u in range(3):
        assert abs(res.y[u] - (1 - INV_E)) < 0.01
    for u in range(3, 5):
        assert res.y[u] == 0.0


def test_mcg_t_zero_returns_origin():
    f, table = mixture_oracle(4, seed=2)
    res = measured_continuous_greedy(f, UniformMatroid(4, 2),
                                     MCGConfig(T=0.0, steps=5, samples=8, seed=0))
    assert np.all(res.y == 0.0)
    assert multilinear_exact(f, res.y) == pytest.approx(table[0])


def test_mcg_monotone_coverage_guarantee():
    # m = 1: F(y(1)) >= (1 - 1/e) OPT - 0.03 OPT
    table = coverage_table(6, seed=9)
    f = table_oracle(table)
    k = 3
    opt, _ = brute_opt(table, feasible=lambda m: m.bit_count() <= k)
    cfg = MCGConfig(T=1.0, steps=100, samples=64, seed=3)
    res = measured_continuous_greedy(f, UniformMatroid(6, k), cfg)
    value = multilinear_exact(table_oracle(table), res.y)
    assert value >= (1 - INV_E) * opt - 0.03 * opt


def test_mcg_coordinate_cap_and_feasibility():
    f, _ = mixture_oracle(5, seed=4)
    M = PartitionMatroid(5, [[0, 1], [2, 3, 4]], [1, 2])
    cfg = MCGConfig(T=1.0, steps=50, samples=16, seed=7)
    res = measured_continuous_greedy(f, M, cfg, trace=True)
    delta = cfg.T / cfg.steps
    for step, (t, ynorm, _, _) in enumerate(res.trace, start=1):
        assert ynorm <= 1 - (1 - delta) ** step + 1e-12
    # output lies in the matroid polytope for T <= 1
    assert matroid_polytope(M).contains(res.y)
    assert res.discretization_bound >= 0.0


def test_mcg_polytope_constraint_path():
    f = modular_oracle([2.0, 1.0])
    P = DownClosedPolytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
    res = measured_continuous_greedy(f, P, MCGConfig(T=1.0, steps=40,
                                                     samples=32, seed=5))
    assert P.contains(res.y)
    assert res.y[0] > res.y[1]


def test_mcg_config_validation():
    with pytest.raises(ValueError):
        MCGConfig(T=-1.0)
    with pytest.raises(ValueError):
        MCGConfig(steps=0)


def test_mcg_rejects_a_constraint_on_another_ground_set():
    f = modular_oracle([1.0] * 5)
    for constraint in (UniformMatroid(3, 1), matroid_polytope(UniformMatroid(3, 1))):
        with pytest.raises(ValueError, match="5 elements against 3"):
            measured_continuous_greedy(f, constraint, MCGConfig(steps=1, samples=1))
    assert f.eval_count == 0


@st.composite
def _mcg_cases(draw):
    """An oracle factory (the image or movie objective with a kernel, at
    n in {12, 50, 70}, or the kernel-free mixture on n <= 10), a
    partition matroid, the constraint (that matroid or its polytope) and an
    MCG budget."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["image", "movie", "mixture"]))
    if kind == "mixture":
        n = draw(st.integers(1, 10))
        make = lambda: mixture_objective(n, seed)
    else:  # n = 70 packs its masks through np.packbits
        n = draw(st.sampled_from([12, 50, 70]))
        s = psd_similarity(n, seed)
        lam = draw(st.sampled_from([0.3, 1.0]))
        make = ((lambda: image_objective(s)) if kind == "image"
                else (lambda: movie_objective(s, lam)))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = [[u for u in range(n) if labels[u] == j] for j in sorted(set(labels))]
    M = PartitionMatroid(n, blocks, [draw(st.integers(0, min(3, len(b)))) for b in blocks])
    constraint = matroid_polytope(M) if draw(st.booleans()) else M
    cfg = MCGConfig(T=draw(st.sampled_from([0.5, 1.0])), steps=draw(st.integers(1, 6)),
                    samples=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**32 - 1)))
    return make, M, constraint, cfg


@settings(max_examples=40, deadline=None)
@given(case=_mcg_cases())
def test_mcg_matches_the_every_row_reference(case):
    """Evaluating each set once per run changes nothing but the call count:
    the point, trace, bound and rounded set equal those of evaluating all
    samples * (n + 1) rows of every step, bit for bit."""
    make, M, constraint, cfg = case
    f = make()
    got = measured_continuous_greedy(f, constraint, cfg, trace=True)
    f_ref = make()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuous, "_gain_estimates", every_row_gain_estimates)
        ref = measured_continuous_greedy(f_ref, constraint, cfg, trace=True)
    assert got.y.tobytes() == ref.y.tobytes()
    assert got.trace == ref.trace
    assert got.discretization_bound.hex() == ref.discretization_bound.hex()
    assert swap_rounding(got.y, M, seed=cfg.seed) == swap_rounding(ref.y, M, seed=cfg.seed)
    assert f_ref.eval_count == cfg.steps * cfg.samples * (f.n + 1)
    assert f.eval_count <= f_ref.eval_count


@settings(max_examples=30, deadline=None)
@given(case=_mcg_cases())
def test_mcg_evaluates_each_set_at_most_once(case):
    """Through `fn` or `ids_fn`, a run computes no set twice and counts
    exactly the sets it computes. It keeps no values for later runs: a
    second run on one oracle counts what a run on a fresh oracle counts."""
    make, _, constraint, cfg = case
    f, log = recording_oracle(make())
    measured_continuous_greedy(f, constraint, cfg)
    assert len(set(log)) == len(log)
    assert f.eval_count == len(log)
    shared = make()
    for runs in (1, 2):
        measured_continuous_greedy(shared, constraint, cfg)
        assert shared.eval_count == runs * len(log)


def test_mcg_call_count_golden():
    # the sweeps budget of 10 steps x 8 samples on n = 12: 1,040 rows, of
    # which the run evaluates 144 distinct sets
    M = PartitionMatroid(12, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]], [1, 2, 1])
    f = image_objective(psd_similarity(12, seed=5))
    measured_continuous_greedy(f, M, MCGConfig(steps=10, samples=8, seed=0))
    assert f.eval_count == 144


# ------------------------------------------------------------------ swap rounding

def test_swap_rounding_integral_is_identity():
    M = UniformMatroid(4, 2)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    for seed in range(5):
        assert swap_rounding(y, M, seed=seed) == mask_of([0, 2])


def test_swap_rounding_marginals_uniform1():
    M = UniformMatroid(2, 1)
    y = np.array([0.3, 0.7])
    hits = np.zeros(2)
    trials = 10000
    for s in range(trials):
        sol = swap_rounding(y, M, seed=s)
        assert sol.bit_count() == 1
        for u in ids_of(sol):
            hits[u] += 1
    p = hits / trials
    for u, target in enumerate(y):
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(p[u] - target) <= 4 * sigma


def test_swap_rounding_marginals_partition():
    M = PartitionMatroid(5, [[0, 1, 2], [3, 4]], [2, 1])
    y = np.array([0.6, 0.8, 0.5, 0.25, 0.75])
    trials = 8000
    hits = np.zeros(5)
    for s in range(trials):
        sol = swap_rounding(y, M, seed=s)
        assert M.is_independent(sol)
        for u in ids_of(sol):
            hits[u] += 1
    for u in range(5):
        sigma = math.sqrt(y[u] * (1 - y[u]) / trials)
        assert abs(hits[u] / trials - y[u]) <= 4 * sigma


def test_swap_rounding_preserves_expected_value():
    # E[f(S)] >= F(y) - 3 sigma for submodular f
    M = PartitionMatroid(3, [[0, 1], [2]], [1, 1])
    y = np.array([0.5, 0.5, 1.0])
    trials = 3000
    for seed in range(20):
        f, table = mixture_oracle(3, seed=700 + seed)
        exact = multilinear_exact(f, y)
        vals = np.array([table[swap_rounding(y, M, seed=s)]
                         for s in range(trials)])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert vals.mean() >= exact - 3 * max(se, 1e-12)


@st.composite
def _matroid_points(draw):
    """A uniform or partition matroid on 2-7 elements and a point of its
    polytope: raw coordinates (exact 0s and 1s included) scaled down per
    block to fit the capacity."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        M = UniformMatroid(n, draw(st.integers(1, n)))
        blocks, caps = [list(range(n))], [M.k]
    else:
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[u for u in range(n) if labels[u] == j] for j in sorted(set(labels))]
        caps = [draw(st.integers(0, len(blk))) for blk in blocks]
        M = PartitionMatroid(n, blocks, caps)
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n)))
    for ids, cap in zip(blocks, caps):
        total = y[ids].sum()
        if total > cap:
            y[ids] *= cap / total
    return M, blocks, y


@settings(max_examples=30, deadline=None)
@given(case=_matroid_points())
def test_swap_rounding_property_independent_and_unbiased(case):
    # each rounded block keeps floor or ceil of its sum (so within capacity),
    # and each empirical marginal lies within 5 binomial sigmas of y_u
    M, blocks, y = case
    trials = 300
    hits = np.zeros(M.n)
    for s in range(trials):
        sol = swap_rounding(y, M, seed=s)
        assert M.is_independent(sol)
        for ids in blocks:
            total, count = y[ids].sum(), sum((sol >> u) & 1 for u in ids)
            assert math.floor(total + 1e-9) <= count <= math.ceil(total - 1e-9)
        hits[ids_of(sol)] += 1
    sigma = np.sqrt(y * (1.0 - y) / trials)
    assert np.all(np.abs(hits / trials - y) <= 5.0 * sigma + 1e-9)


def test_swap_rounding_rejects_outside_polytope():
    M = UniformMatroid(3, 1)
    with pytest.raises(ValueError):
        swap_rounding(np.array([0.8, 0.8, 0.0]), M, seed=0)
    with pytest.raises(ValueError):
        swap_rounding(np.array([1.2, 0.0, 0.0]), M, seed=0)


def test_swap_rounding_rejects_bad_points():
    with pytest.raises(ValueError, match=r"y must have shape \(5,\), not \(3,\)"):
        swap_rounding([0.3, 0.3, 0.3], UniformMatroid(5, 1), seed=0)
    for y, message in (([np.nan, 0.3, 0.3], r"y\[0\] = nan"),
                       ([0.3, 0.3, -np.inf], r"y\[2\] = -inf")):
        with pytest.raises(ValueError, match=message + " is not finite"):
            swap_rounding(y, UniformMatroid(3, 1), seed=0)


# -------------------------------------------------------------------- frank-wolfe

def test_fw_one_dimensional_closed_form():
    # F(x) = -x^2/2 + 0.6 x + c on [0,1]; optimum at x = 0.6
    c = 0.05
    P = DownClosedPolytope([[0.0]], [0.0], [1.0])
    grad = lambda x: np.array([-x[0] + 0.6])
    value = lambda x: float(-x[0] ** 2 / 2 + 0.6 * x[0] + c)
    res = frank_wolfe_nonmonotone(grad, value, P, FWConfig(eps=0.01, L=1.0, D=1.0))
    f_star = 0.18 + c
    m = (0.1 + c) / f_star  # F(1)/F(0.6): analytic monotonicity ratio
    target = (m * (1 - INV_E) + (1 - m) * INV_E) * f_star - res.additive_loss_bound
    assert res.value >= target
    assert 0.0 <= res.y[0] <= 1.0


def test_fw_zero_budget_polytope():
    P = DownClosedPolytope([[1.0]], [0.0], [1.0])  # x <= 0: only the origin
    grad = lambda x: np.array([1.0])
    value = lambda x: float(x[0] + 1.0)
    res = frank_wolfe_nonmonotone(grad, value, P, FWConfig(eps=0.25, L=1.0, D=1.0))
    assert res.y[0] == 0.0
    assert res.value == 1.0
    assert res.additive_loss_bound == 0.25 * 1.0 * 1.0 ** 2


def test_fw_quadratic_instance_feasible_and_monotone_iterates():
    inst = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=11)
    P = inst.polytope()
    seen = []

    def grad(x):
        seen.append(np.array(x))
        return inst.grad(x)

    res = frank_wolfe_nonmonotone(grad, inst.value, P,
                                  FWConfig(eps=0.05, L=inst.L, D=inst.D))
    assert np.all(P.A @ res.y <= P.b + 1e-9)
    assert np.all(res.y <= P.u + 1e-12) and np.all(res.y >= -1e-12)
    for a, b in zip(seen, seen[1:]):
        assert np.all(b >= a - 1e-12)  # coordinatewise nondecreasing
    assert res.steps == 20


def test_fw_trace_gaps_cost_no_extra_calls(monkeypatch):
    inst = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=11)
    calls = {"grad": 0, "value": 0, "lp": 0}

    def count(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(continuous, "linear_maximize_polytope",
                        count("lp", continuous.linear_maximize_polytope))
    res = frank_wolfe_nonmonotone(count("grad", inst.grad),
                                  count("value", inst.value), inst.polytope(),
                                  FWConfig(eps=0.05, L=inst.L, D=inst.D))
    assert calls == {"grad": 20, "value": 1, "lp": 20}
    assert len(res.trace) == res.steps == 20
    assert all(math.isfinite(g) for g in res.trace)
    # z stays in the normalized polytope and s maximizes <., w> over it
    assert min(res.trace) >= -1e-9


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (4, 3), (4, 11), (4, 1000003)])
@pytest.mark.parametrize("eps", [0.02, 0.1])
def test_fw_matches_the_reference_loop(n, seed, eps):
    # face lists and the shared 1 - z change no bit of the run
    inst = generate_quadratic_instance(n, beta=0.2, alpha=0.3, seed=seed)
    cfg = FWConfig(eps=eps, L=inst.L, D=inst.D)
    res = frank_wolfe_nonmonotone(inst.grad, inst.value, inst.polytope(), cfg)
    ref = reference_frank_wolfe(inst.grad, inst.value, inst.polytope(), cfg)
    assert res.y.tobytes() == ref.y.tobytes()
    assert res.value.hex() == ref.value.hex()
    assert [g.hex() for g in res.trace] == [g.hex() for g in ref.trace]
    assert res.steps == ref.steps
    assert res.additive_loss_bound == ref.additive_loss_bound


def test_fw_config_validation():
    with pytest.raises(ValueError):
        FWConfig(eps=0.0, L=1.0, D=1.0)
    with pytest.raises(ValueError):
        FWConfig(eps=1.0, L=1.0, D=1.0)
