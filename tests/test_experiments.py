import math
from dataclasses import fields, replace

import pytest

import monoratio.experiments as experiments
from monoratio import ExperimentSpec, run_experiment
from monoratio.bounds import GUARANTEE_KINDS
from monoratio.cli import build_parser
from monoratio.experiments import (_OBJECTIVES, _SWEEP_FIELDS, ALGORITHMS,
                                   ExperimentResult, SpecValidationError, algorithm,
                                   validate_spec)

# run_experiment output for this spec, computed when every trial and the m
# bound generated their own copy of the sweep point's instance
QUADRATIC_CSV = (
    "sweep,sweep_value,frank_wolfe_mean,frank_wolfe_stderr,m_bound,ub_prev,ub_new\n"
    "beta,0.1,2.176702796,0,0.2285714286,5.916891656,5.082459968\n"
    "beta,0.3,4.146859848,0,0.1142857143,11.27233377,10.41719314\n")

# computed when every trial of a seedless algorithm ran; the stderr of three
# equal floats need not be 0
MOVIE_CSV = (
    "sweep,sweep_value,greedy_mean,greedy_stderr,random_greedy_mean,"
    "random_greedy_stderr,m_bound,ub_prev,ub_new\n"
    "k,2,140.9112297,0,141.1976771,0.3144399172,0.5,383.8150798,282.3953541\n"
    "k,3,190.1977012,2.009718347e-14,188.9199682,1.141725171,0.5,513.5377165,"
    "377.8399363\n")


def counting(monkeypatch, name, log):
    """Wrap `experiments.<name>`, appending to `log` on every call."""
    orig = getattr(experiments, name)

    def counted(*args, **kwargs):
        log.append(kwargs.get("seed"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)


def test_quadratic_sweep_generates_each_instance_once(monkeypatch):
    made, fw_runs = [], []
    counting(monkeypatch, "generate_quadratic_instance", made)
    counting(monkeypatch, "frank_wolfe_nonmonotone", fw_runs)
    spec = ExperimentSpec(objective="quadratic", sweep="beta", grid=[0.1, 0.3],
                          n=3, alpha=0.4, trials=2, seed=7, fw_eps=0.1)
    assert run_experiment(spec).to_csv() == QUADRATIC_CSV
    assert made == [7, 7 + 10007]
    # Frank-Wolfe is deterministic: one run per point serves both trials
    assert len(fw_runs) == 2


def test_seedless_algorithms_run_once_per_point(monkeypatch):
    greedy, random_greedy = [], []
    counting(monkeypatch, "greedy_cardinality", greedy)
    trials = experiments.random_greedy_trials
    monkeypatch.setattr(experiments, "random_greedy_trials", lambda f, k, seeds, *a:
                        random_greedy.append(seeds) or trials(f, k, seeds, *a))
    spec = ExperimentSpec(objective="movie", sweep="k", grid=[2, 3], n=10,
                          trials=3, seed=4,
                          algorithms=["greedy", "random_greedy"])
    assert run_experiment(spec).to_csv() == MOVIE_CSV
    assert len(greedy) == 2
    # a seeded algorithm with batched trials gets all seeds of a point at once
    assert random_greedy == [[4, 5, 6], [4, 5, 6]]


def test_movie_and_image_sweeps_build_one_objective_per_point(monkeypatch):
    movies, images, features = [], [], []
    counting(monkeypatch, "movie_objective", movies)
    counting(monkeypatch, "image_objective", images)
    counting(monkeypatch, "random_feature_matrix", features)
    run_experiment(ExperimentSpec(objective="movie", sweep="lambda",
                                  grid=[0.5, 0.7, 0.9], n=8, k=2, trials=1,
                                  algorithms=["greedy"]))
    run_experiment(ExperimentSpec(objective="image", sweep="k", grid=[1, 2],
                                  n=8, trials=1, algorithms=["greedy_matroid"]))
    assert (len(movies), len(images)) == (3, 2)
    # each point draws its own features from the spec seed
    assert features == [0] * 5


def test_objective_table_is_consistent():
    experiment = next(a for a in build_parser()._actions
                      if a.dest == "command").choices["experiment"]
    choices = next(a.choices for a in experiment._actions if a.dest == "objective")
    assert list(choices) == list(_OBJECTIVES)
    valid = {"lambda": 0.5, "k": 2, "alpha": 0.3, "beta": 0.2, "n": 3}
    for name, (_, need, sweeps, defaults, rules) in _OBJECTIVES.items():
        assert need in {"none", "cardinality", "matroid", "polytope"}, name
        assert set(sweeps) <= _SWEEP_FIELDS.keys(), name
        for sweep in sweeps:
            spec = validate_spec(ExperimentSpec(objective=name, sweep=sweep,
                                                grid=[valid[sweep]], n=10))
            assert spec.algorithms == defaults, (name, sweep)
        assert {f for f, _, _ in rules} <= {f.name for f in fields(ExperimentSpec)}


def test_algorithm_table_is_consistent():
    constraints = {"none", "cardinality", "matroid", "any", "polytope"}
    for name, alg in ALGORITHMS.items():
        assert alg.guarantee is None or alg.guarantee in GUARANTEE_KINDS, name
        assert alg.constraint in constraints, name
        assert algorithm(name) is alg
        assert algorithm(name.replace("_", "-")) is alg
    assert ALGORITHMS["random"].guarantee is None
    # double greedy returns at least f(N), so it attains max{m, (2+m)/4}
    assert ALGORITHMS["double_greedy"].guarantee == "unconstrained_alg"
    with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
        algorithm("bogus")


def test_validate_spec_checks_constraints_and_normalizes_names():
    spec = validate_spec(ExperimentSpec(
        objective="image", sweep="k", grid=[1],
        algorithms=["random-greedy-matroid", "mcg_rounding", "random"]))
    assert spec.algorithms == ["random_greedy_matroid", "mcg_rounding", "random"]
    with pytest.raises(SpecValidationError) as exc:
        validate_spec(ExperimentSpec(objective="quadratic", sweep="beta",
                                     grid=[0.1], n=3, trials=0,
                                     algorithms=["greedy", "random",
                                                 "frank-wolfe", "nope"]))
    problems = exc.value.problems
    assert len(problems) == 4
    assert "trials must be >= 1" in problems
    assert any("'greedy'" in p for p in problems)
    assert any("'random'" in p for p in problems)
    assert any("unknown algorithm 'nope'" in p for p in problems)


def test_validate_spec_rejects_k_and_n_grid_values_that_are_not_positive_integers():
    for objective, sweep in (("movie", "k"), ("image", "k"), ("quadratic", "n")):
        assert validate_spec(ExperimentSpec(objective=objective, sweep=sweep,
                                            grid=[1, 2.0, 3])).grid == [1, 2.0, 3]
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(ExperimentSpec(objective=objective, sweep=sweep,
                                         grid=[2.5, 0, 4, -1]))
        assert exc.value.problems == [
            f"{sweep} sweep grid values must be positive integers, "
            f"got [2.5, 0, -1]"]


def test_validate_spec_rejects_out_of_range_budgets_dims_and_k(monkeypatch):
    # reported together, before any feature, instance or oracle is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the spec reached the sweep")

    for name in ("random_feature_matrix", "movie_objective", "image_objective",
                 "generate_quadratic_instance"):
        monkeypatch.setattr(experiments, name, unreachable)
    with pytest.raises(SpecValidationError) as exc:
        run_experiment(ExperimentSpec(objective="movie", sweep="lambda",
                                      grid=[0.5], n=6, k=9, mcg_steps=0,
                                      mcg_samples=0, feature_dim=0))
    assert exc.value.problems == ["mcg_steps must be >= 1",
                                  "mcg_samples must be >= 1",
                                  "feature_dim must be >= 1",
                                  "k must be between 0 and n = 6, got [9]"]
    for spec, problem in (
            (dict(objective="movie", sweep="lambda", n=6, k=-1, grid=[0.5]),
             "k must be between 0 and n = 6, got [-1]"),
            (dict(objective="movie", sweep="k", n=6, grid=[2, 7, 9]),
             "k must be between 0 and n = 6, got [7, 9]"),
            # a swept k leaves spec.k unread
            (dict(objective="image", sweep="k", n=6, k=-1, grid=[1]), None),
            (dict(objective="image", sweep="k", n=6, grid=[1], feature_dim=-1),
             "feature_dim must be >= 1"),
            (dict(objective="image", sweep="lambda", n=6, k=-1, grid=[1]),
             "k must be >= 0"),
            (dict(objective="bogus", sweep="k", grid=[1]),
             "unknown objective 'bogus' (choose from ['image', 'movie', "
             "'quadratic'])"),
            (dict(objective="movie", sweep="k", grid=[1], eps=1.0),
             "eps must be in (0,1)"),
            (dict(objective="quadratic", sweep="beta", grid=[0.1], fw_eps=0.0),
             "fw_eps must be in (0,1)"),
            (dict(objective="movie", sweep="k", grid=[1], lam=1.5),
             "lambda must be in [0,1]"),
            (dict(objective="quadratic", sweep="alpha", grid=[0.3], beta=0.5),
             "beta must be in (0,0.5)"),
            (dict(objective="quadratic", sweep="beta", grid=[0.1], alpha=0.0),
             "alpha must be positive"),
            # a swept value gets the problem text of a fixed one
            (dict(objective="movie", sweep="lambda", grid=[0.5, 1.2]),
             "lambda must be in [0,1]"),
            (dict(objective="quadratic", sweep="beta", grid=[0.1, 0.6]),
             "beta must be in (0,0.5)"),
            (dict(objective="quadratic", sweep="alpha", grid=[0.3, -1]),
             "alpha must be positive"),
            (dict(objective="quadratic", sweep="alpha", grid=[0.3], n=16), None),
            # nor does a swept lambda read spec.lam
            (dict(objective="movie", sweep="lambda", grid=[0.5], lam=2), None),
            (dict(objective="quadratic", sweep="n", grid=[2], n=0), None)):
        if problem is None:
            checked = validate_spec(ExperimentSpec(**spec))
            assert replace(checked, algorithms=[]) == ExperimentSpec(**spec)
            continue
        with pytest.raises(SpecValidationError) as exc:
            run_experiment(ExperimentSpec(**spec))
        assert problem in exc.value.problems, (spec, exc.value.problems)
    # the movie bounds are inclusive
    for k in (0, 6):
        assert validate_spec(ExperimentSpec(objective="movie", sweep="lambda",
                                            grid=[0.5], n=6, k=k)).k == k


def test_svg_draws_an_infinite_bound_at_a_finite_cap():
    spec = validate_spec(ExperimentSpec(objective="movie", sweep="lambda",
                                        grid=[0.5, 0.9], algorithms=["random_greedy"]))
    rows = [{"sweep_value": 0.5, "random_greedy_mean": 1.0, "ub_prev": 4.0, "ub_new": 2.0},
            {"sweep_value": 0.9, "random_greedy_mean": 1.0, "ub_prev": math.inf,
             "ub_new": math.inf}]
    text = ExperimentResult(spec, [], rows).to_svg().lower()
    assert "nan" not in text and "inf" not in text and "<polygon" in text
