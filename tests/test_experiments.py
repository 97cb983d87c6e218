import math

import pytest

import monoratio.experiments as experiments
from monoratio import ExperimentSpec, run_experiment
from monoratio.bounds import GUARANTEE_KINDS
from monoratio.experiments import (ALGORITHMS, ExperimentResult,
                                   SpecValidationError, algorithm, validate_spec)

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
    counting(monkeypatch, "random_greedy_cardinality", random_greedy)
    spec = ExperimentSpec(objective="movie", sweep="k", grid=[2, 3], n=10,
                          trials=3, seed=4,
                          algorithms=["greedy", "random_greedy"])
    assert run_experiment(spec).to_csv() == MOVIE_CSV
    assert len(greedy) == 2
    assert random_greedy == [4, 5, 6, 4, 5, 6]


def test_algorithm_table_is_consistent():
    constraints = {"none", "cardinality", "matroid", "any", "polytope"}
    for name, alg in ALGORITHMS.items():
        assert alg.guarantee is None or alg.guarantee in GUARANTEE_KINDS, name
        assert alg.constraint in constraints, name
        assert algorithm(name) is alg
        assert algorithm(name.replace("_", "-")) is alg
    assert ALGORITHMS["random"].guarantee is None
    with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
        algorithm("bogus")


def test_validate_spec_checks_constraints_and_normalizes_names():
    spec = validate_spec(ExperimentSpec(
        objective="image", sweep="k", grid=[1],
        algorithms=["random-greedy-matroid", "mcg_rounding", "random"]))
    assert spec.algorithms == ["random_greedy_matroid", "mcg_rounding", "random"]
    with pytest.raises(SpecValidationError) as exc:
        validate_spec(ExperimentSpec(objective="quadratic", sweep="beta",
                                     grid=[0.1], trials=0,
                                     algorithms=["greedy", "random",
                                                 "frank-wolfe", "nope"]))
    problems = exc.value.problems
    assert len(problems) == 4
    assert "trials must be >= 1" in problems
    assert any("'greedy'" in p for p in problems)
    assert any("'random'" in p for p in problems)
    assert any("unknown algorithm 'nope'" in p for p in problems)


def test_svg_draws_an_infinite_bound_at_a_finite_cap():
    spec = validate_spec(ExperimentSpec(objective="movie", sweep="lambda",
                                        grid=[0.5, 0.9], algorithms=["random_greedy"]))
    rows = [{"sweep_value": 0.5, "random_greedy_mean": 1.0, "ub_prev": 4.0, "ub_new": 2.0},
            {"sweep_value": 0.9, "random_greedy_mean": 1.0, "ub_prev": math.inf,
             "ub_new": math.inf}]
    text = ExperimentResult(spec, [], rows).to_svg().lower()
    assert "nan" not in text and "inf" not in text and "<polygon" in text
