import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (as_matrix, continuous_ratio_grid_bound, naive_box_quadratic_min,
                     naive_quadratic, psd_similarity)
from monoratio import (exact_monotonicity_ratio, exact_weak_monotonicity_ratio,
                       generate_quadratic_instance, ids_of, image_objective,
                       image_weak_ratio_bound, inner_product_similarity,
                       is_submodular, load_features_csv, mask_of,
                       movie_objective, movie_ratio_bound,
                       quadratic_ratio_bound, random_feature_matrix)
from monoratio.apps import validate_similarity


# ------------------------------------------------------------------ feature CSV

def test_load_features_csv(tmp_path):
    p = tmp_path / "items.csv"
    p.write_text("label,f1,f2\nA,1.0,2.0\nB,0.5,0.25\nC,0,1\n")
    X = load_features_csv(p)  # the label column is skipped
    assert X.dtype == float
    assert X.tolist() == [[1.0, 2.0], [0.5, 0.25], [0.0, 1.0]]


def test_load_features_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("label,f1\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_features_csv(p)
    p.write_text("label\nA\n")
    with pytest.raises(ValueError, match="feature column"):
        load_features_csv(p)
    p.write_text("label,f1,f2\nA,1.0\n")
    with pytest.raises(ValueError, match=":2"):
        load_features_csv(p)
    p.write_text("label,f1,f2\nA,1.0,2.0\nB,x,3\n")
    with pytest.raises(ValueError, match=":3"):
        load_features_csv(p)


# ------------------------------------------------------------------- similarity

def test_inner_product_similarity():
    X = random_feature_matrix(5, 3, seed=2)
    assert X.tolist() == np.random.default_rng(2).random((5, 3)).tolist()
    s = inner_product_similarity(X)
    assert np.allclose(s, s.T)
    assert np.all(s >= 0)

    assert np.allclose(inner_product_similarity(np.eye(2)), np.eye(2))
    assert inner_product_similarity(np.array([[1.0, 1.0], [2.0, 0.0]]))[0, 1] == 2.0

    # rows 1 and 2 have the one negative product; the error names the pair
    neg = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError, match="^rows 1 and 2 have a negative inner "
                       "product -1$"):
        inner_product_similarity(neg)


# ------------------------------------------------------------- movie objective

def test_movie_objective_examples():
    eye = np.eye(3)
    f0 = movie_objective(eye, 0.0)
    for mask in range(8):
        assert f0.value(mask) == mask.bit_count()
    f1 = movie_objective(eye, 1.0)
    for mask in range(8):
        assert f1.value(mask) == 0.0

    s = psd_similarity(3, seed=8)
    f = movie_objective(s, 0.75)
    assert f.value(0) == 0.0
    expect = s[:, 0].sum() - 0.75 * s[0, 0]
    assert f.value(mask_of([0])) == pytest.approx(expect)

    with pytest.raises(ValueError):
        movie_objective(eye, 1.2)


def test_movie_objective_nonneg_submodular():
    for seed in range(10):
        s = psd_similarity(6, seed=seed)
        for lam in (0.0, 0.4, 0.8, 1.0):
            f = movie_objective(s, lam)
            assert is_submodular(f)
            assert all(f.value(m) >= -1e-9 for m in range(1 << 6))


@pytest.mark.parametrize("objective", ["movie", "image"])
@pytest.mark.parametrize("s,message", [
    (np.ones((2, 3)), "must be square"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "must be symmetric"),
    (np.array([[1.0, -0.5], [-0.5, 1.0]]), "must be non-negative"),
], ids=["non-square", "asymmetric", "negative"])
def test_objectives_reject_a_bad_similarity(objective, s, message):
    with pytest.raises(ValueError, match=f"^similarity .*{message}$"):
        movie_objective(s, 0.5) if objective == "movie" else image_objective(s)


def test_similarity_errors_name_the_shape_pair_or_entry():
    with pytest.raises(ValueError, match=r"of shape \(2, 3\) must be square$"):
        validate_similarity(np.ones((2, 3)))
    asym = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^similarity s\[1, 2\] = 0.25 and "
                       r"s\[2, 1\] = 0: the matrix must be symmetric$"):
        validate_similarity(asym)
    neg = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -0.5], [0.0, -0.5, 1.0]])
    with pytest.raises(ValueError, match=r"^similarity s\[1, 2\] = -0.5 and "
                       r"s\[2, 1\] = -0.5: entries must be non-negative$"):
        validate_similarity(neg)


def _movie_reference(s, lam, S):
    """f(S) of the movie objective by a plain double loop, clamped at 0."""
    cover = sum(s[u][v] for u in range(len(s)) for v in S)
    return max(cover - lam * sum(s[u][v] for u in S for v in S), 0.0)


def _image_reference(s, S):
    """f(S) of the image objective by a plain double loop, clamped at 0."""
    if not S:
        return 0.0
    cover = sum(max(s[u][v] for v in S) for u in range(len(s)))
    return max(cover - sum(s[u][v] for u in S for v in S) / len(s), 0.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.0, 1.0))
def test_objectives_equal_a_double_loop_over_their_formula(data, n, seed, lam):
    # the kernel is each objective's one formula; `value`, `scan` and
    # `values` all reach it, and must agree with the formula written out
    s = psd_similarity(n, seed)
    rows = s.tolist()
    full = (1 << n) - 1
    masks = [0, full] + data.draw(st.lists(st.integers(0, full), max_size=12))
    for f, ref in ((movie_objective(s, lam), lambda S: _movie_reference(rows, lam, S)),
                   (image_objective(s), lambda S: _image_reference(rows, S))):
        got = [(f.value(mask), mask) for mask in masks]
        got += zip(f.values(as_matrix(masks, n)).tolist(), masks)
        A = data.draw(st.integers(0, full))
        cands = data.draw(st.permutations([u for u in range(n) if not (A >> u) & 1]))
        got += zip(f.scan(A, cands), [A | (1 << u) for u in cands])
        for v, mask in got:
            want = ref(ids_of(mask))
            assert abs(v - want) <= 1e-9 * max(1.0, abs(want)), (f.name, mask, v, want)


def test_objectives_clamp_rounding_negatives():
    # both objectives are >= 0 exactly; these inputs cancel to about -1e-13
    # (movie, lam = 1, full set) and -6e-17 (image, constant rows) unclamped
    full10 = (1 << 10) - 1
    for seed in (1, 4):
        sim = inner_product_similarity(random_feature_matrix(10, 25, seed=seed))
        assert sim.sum(axis=0).sum() - sim.sum() < 0.0
        f = movie_objective(sim, 1.0)
        assert f.value(full10) == 0.0
        assert f.values(as_matrix([full10], 10)).tolist() == [0.0]
        assert exact_monotonicity_ratio(f).ratio == movie_ratio_bound(1.0) == 0.0
    s = np.full((3, 3), 0.12)
    assert s.max(axis=1).sum() - s.sum() / 3 < 0.0
    f = image_objective(s)
    assert f.value(0b111) == 0.0 and f.values(as_matrix([0b111], 3)).tolist() == [0.0]


def test_movie_monotonicity_certificate():
    for seed in range(6):
        s = psd_similarity(6, seed=40 + seed)
        for lam in (0.1, 0.5):
            assert exact_monotonicity_ratio(movie_objective(s, lam)).ratio \
                == pytest.approx(1.0)
        for lam in (0.6, 0.9):
            rep = exact_monotonicity_ratio(movie_objective(s, lam))
            assert rep.ratio >= movie_ratio_bound(lam) - 1e-9


# ------------------------------------------------------------- image objective

def test_image_objective_examples():
    s = np.eye(4)
    f = image_objective(s)
    assert f.value(0) == 0.0
    assert f.value(mask_of([0])) == pytest.approx(0.75)  # 1 - 1/4

    rnd = psd_similarity(6, seed=3)
    assert is_submodular(image_objective(rnd))


def test_image_weak_ratio_certificate():
    for seed in range(5):
        s = psd_similarity(8, seed=70 + seed)
        f = image_objective(s)
        for k in (2, 3):
            rep = exact_weak_monotonicity_ratio(f, lambda m: m.bit_count() <= k)
            assert rep.ratio >= image_weak_ratio_bound(k, 8) - 1e-9


# ------------------------------------------------------------------- quadratics

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10),
       beta=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_generated_box_minimum_is_the_top_corner(n, beta, seed):
    inst = generate_quadratic_instance(n, beta=beta, seed=seed)
    tol = max(1.0, abs(inst.M))
    H, h, u = inst.H.tolist(), inst.h.tolist(), inst.u.tolist()
    assert abs(inst.M - naive_box_quadratic_min(H, h, u)) <= 1e-13 * tol
    # the closed form holds on the whole box, not only at its vertices
    for t in np.random.default_rng(seed).random((20, n)):
        assert naive_quadratic(H, h, (t * inst.u).tolist()) >= inst.M - 1e-12 * tol


def test_generate_quadratic_instance_structure():
    inst = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=5)
    assert np.allclose(inst.H, inst.H.T)
    assert np.all(inst.H <= 0)
    assert np.all(inst.A > 0)
    assert np.allclose(inst.u, (inst.b[:, None] / inst.A).min(axis=0))
    assert np.allclose(inst.h, -0.2 * inst.H.T @ inst.u)
    assert inst.c == pytest.approx(-inst.M + 0.3 * abs(inst.M))
    assert inst.L >= np.linalg.norm(inst.H, 2)
    assert inst.D == pytest.approx(np.linalg.norm(inst.u))

    again = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=5)
    assert np.array_equal(inst.H, again.H) and inst.c == again.c


def test_generate_quadratic_one_dimensional_closed_form():
    inst = generate_quadratic_instance(1, beta=0.2, alpha=0.5, seed=3)
    h11 = inst.H[0, 0]
    u = inst.u[0]
    assert h11 <= 0
    assert inst.h[0] == pytest.approx(-0.2 * h11 * u)
    m_analytic = min(0.0, 0.5 * h11 * u * u + inst.h[0] * u)
    assert inst.M == pytest.approx(m_analytic, abs=1e-9)
    assert inst.value(np.zeros(1)) == pytest.approx(inst.c)


def test_quadratic_nonneg_on_grid_and_ratio_bound():
    for seed in (1, 2):
        inst = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=seed)
        axes = [np.linspace(0, inst.u[j], 9) for j in range(4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 4)
        vals = (0.5 * np.einsum("ij,ij->i", grid @ inst.H, grid)
                + grid @ inst.h + inst.c)
        assert vals.min() >= -1e-9

        bound = quadratic_ratio_bound(0.3, 0.2, inst.M >= 0)
        grid_m = continuous_ratio_grid_bound(inst.value, inst.u, points_per_axis=5)
        assert grid_m >= bound - 1e-9


def test_quadratic_nonnegativity_dense_grid():
    # 21^n certification grid at n = 3
    inst = generate_quadratic_instance(3, beta=0.3, alpha=0.4, seed=12)
    axes = [np.linspace(0, inst.u[j], 21) for j in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
    vals = (0.5 * np.einsum("ij,ij->i", grid @ inst.H, grid)
            + grid @ inst.h + inst.c)
    assert vals.min() >= -1e-9


def test_quadratic_gradient_consistency_and_antitone():
    inst = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=21)
    rng = np.random.default_rng(0)
    eps = 1e-6
    scale = max(1.0, float(np.abs(inst.grad(inst.u)).max()))
    for _ in range(100):
        x = rng.random(4) * inst.u
        g = inst.grad(x)
        for j in range(4):
            step = np.zeros(4)
            step[j] = eps
            fd = (inst.value(x + step) - inst.value(x - step)) / (2 * eps)
            assert abs(fd - g[j]) <= 1e-6 * scale
    # DR-submodularity: gradient is antitone along the box order
    for _ in range(100):
        a = rng.random(4) * inst.u
        b = a + rng.random(4) * (inst.u - a)
        assert np.all(inst.grad(a) >= inst.grad(b) - 1e-12)


def test_generate_quadratic_validation():
    with pytest.raises(ValueError):
        generate_quadratic_instance(0)
    with pytest.raises(ValueError):
        generate_quadratic_instance(3, beta=0.6)
    with pytest.raises(ValueError):
        generate_quadratic_instance(3, alpha=-1.0)
