"""Upper-bound-on-OPT experiment sweeps.

For every sweep point the harness runs the configured algorithms (averaging
over trials), derives the applicable monotonicity-ratio lower bound from the
closed-form application ratio bounds, and emits two upper bounds on the optimum:
ub_prev = value / ratio(m=0) (the ratio-agnostic bound) and
ub_new = value / ratio(m=bound). The band between them is the improvement
bought by the monotonicity ratio.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import _svg
from .apps import (generate_quadratic_instance, image_objective,
                   inner_product_similarity, movie_objective, random_feature_matrix)
from .bounds import guarantee, upper_bound_from_output
from .constraints import PartitionMatroid
from .continuous import FWConfig, MCGConfig, frank_wolfe_nonmonotone, \
    measured_continuous_greedy, swap_rounding
from .discrete import (RunResult, double_greedy, greedy_cardinality,
                       greedy_matroid, random_baseline,
                       random_greedy_cardinality, random_greedy_matroid,
                       sample_greedy, threshold_greedy, threshold_random_greedy)
from .ratio import image_weak_ratio_bound, movie_ratio_bound, quadratic_ratio_bound

__all__ = ["ExperimentSpec", "ExperimentResult", "run_experiment",
           "validate_spec", "SpecValidationError", "Algorithm", "ALGORITHMS",
           "algorithm", "trial_values"]


@dataclass(frozen=True)
class Algorithm:
    """One algorithm as the `run` and `experiment` commands see it.

    `call(f, c, seed, opts)` runs it once and returns a result with a
    `.value`. `c` is the constraint: an int k for "cardinality", a Matroid
    for "matroid", either for "any", None for "none"; for "polytope", `f` is
    a QuadraticInstance and `c` its polytope. `opts.eps` is the accuracy of
    the algorithms that take one; experiment-only algorithms also read their
    budget (MCG steps and samples, Frank-Wolfe eps) from the ExperimentSpec
    `opts`. `guarantee` is the `bounds.GUARANTEE_KINDS` entry its output is
    divided by to bound OPT, None when it bounds nothing.
    """

    call: Callable
    constraint: str
    guarantee: str | None
    seeded: bool
    takes_eps: bool = False
    experiment_only: bool = False


def _mcg_rounding(f, M, seed, spec) -> RunResult:
    start = f.eval_count
    cfg = MCGConfig(T=1.0, steps=spec.mcg_steps, samples=spec.mcg_samples,
                    seed=seed)
    sol = swap_rounding(measured_continuous_greedy(f, M, cfg).y, M, seed=seed + 1)
    return RunResult(sol, f.value(sol), f.eval_count - start)


# Every entry reaches its function through a module-global name at call
# time, so a wrapper rebound on this module's attribute sees every run.
ALGORITHMS = {
    "greedy": Algorithm(lambda f, k, seed, o: greedy_cardinality(f, k),
                        "cardinality", "greedy_card", seeded=False),
    "random_greedy": Algorithm(
        lambda f, k, seed, o: random_greedy_cardinality(f, k, seed=seed),
        "cardinality", "random_greedy_card", seeded=True),
    "threshold_greedy": Algorithm(
        lambda f, k, seed, o: threshold_greedy(f, k, o.eps),
        "cardinality", "greedy_card", seeded=False, takes_eps=True),
    "sample_greedy": Algorithm(
        lambda f, k, seed, o: sample_greedy(f, k, o.eps, seed=seed),
        "cardinality", "greedy_card", seeded=True, takes_eps=True),
    "threshold_random_greedy": Algorithm(
        lambda f, k, seed, o: threshold_random_greedy(f, k, o.eps, seed=seed),
        "cardinality", "random_greedy_card", seeded=True, takes_eps=True),
    "double_greedy": Algorithm(lambda f, c, seed, o: double_greedy(f, seed=seed),
                               "none", "unconstrained_alg", seeded=True),
    "greedy_matroid": Algorithm(lambda f, M, seed, o: greedy_matroid(f, M),
                                "matroid", "greedy_matroid", seeded=False),
    "random_greedy_matroid": Algorithm(
        lambda f, M, seed, o: random_greedy_matroid(f, M, o.eps, seed=seed),
        "matroid", "rgm", seeded=True, takes_eps=True),
    # the scarecrow baseline carries no guarantee
    "random": Algorithm(lambda f, c, seed, o: random_baseline(f, c, seed=seed),
                        "any", None, seeded=True),
    "mcg_rounding": Algorithm(lambda f, M, seed, o: _mcg_rounding(f, M, seed, o),
                              "matroid", "mcg", seeded=True, experiment_only=True),
    # the Frank-Wolfe ratio has the same closed form as random greedy's
    "frank_wolfe": Algorithm(
        lambda inst, P, seed, o: frank_wolfe_nonmonotone(
            inst.grad, inst.value, P, FWConfig(eps=o.fw_eps, L=inst.L, D=inst.D)),
        "polytope", "random_greedy_card", seeded=False, experiment_only=True),
}


def algorithm(name: str) -> Algorithm:
    """Table entry for `name`; hyphens and underscores are interchangeable."""
    try:
        return ALGORITHMS[name.replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}") from None


def trial_values(alg: Algorithm, run_one, trials: int, seed: int) -> list[float]:
    """Values of `trials` runs, trial t seeded with seed + t. A seedless
    algorithm repeats the same run, so it runs once and fills every trial."""
    if not alg.seeded:
        return [run_one(seed).value] * trials
    return [run_one(seed + t).value for t in range(trials)]


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Mean of trial values and its standard error (0 for a single trial)."""
    if len(vals) < 2:
        return float(vals.mean()), 0.0
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


# sweep -> the ExperimentSpec field each of its points sets
_SWEEP_FIELDS = {"lambda": "lam", "k": "k", "alpha": "alpha", "beta": "beta", "n": "n"}


# a point builder returns (f, constraint, m bound) of sweep point p with spec
# pt, calling the library through module-global names at call time
def _similarity(pt):
    return inner_product_similarity(random_feature_matrix(pt.n, pt.feature_dim,
                                                          seed=pt.seed))


def _movie_point(pt, p):
    return movie_objective(_similarity(pt), pt.lam), pt.k, movie_ratio_bound(pt.lam)


def _image_point(pt, p):
    # contiguous near-equal blocks of 0..n-1, one per category
    blocks = [b.tolist() for b in np.array_split(np.arange(pt.n), pt.categories)]
    M = PartitionMatroid(pt.n, blocks, [pt.k] * len(blocks))
    # feasible sets hold up to k elements from each of the categories
    return (image_objective(_similarity(pt)), M,
            image_weak_ratio_bound(min(pt.n, pt.k * pt.categories), pt.n))


def _quadratic_point(pt, p):
    # one instance per point, shared by its trials and its m bound
    inst = generate_quadratic_instance(pt.n, beta=pt.beta, alpha=pt.alpha,
                                       seed=pt.seed + 10007 * p)
    return inst, inst.polytope(), quadratic_ratio_bound(inst.alpha, inst.beta, inst.M >= 0.0)


# objective -> (its point builder, the constraint its sweeps run algorithms
# under, its sweep parameters, its default algorithms, its range rules
# (field, test(value, spec), problem formatted with the spec and bad values))
_OBJECTIVES = {
    "movie": (_movie_point, "cardinality", ("lambda", "k"),
              ["threshold_random_greedy", "random"],
              [("lam", lambda lam, s: 0 <= lam <= 1, "lambda must be in [0,1]"),
               ("k", lambda k, s: 0 <= k <= s.n,
                "k must be between 0 and n = {spec.n}, got {bad}")]),
    "image": (_image_point, "matroid", ("k",),
              ["random_greedy_matroid", "mcg_rounding", "random"],
              [("k", lambda k, s: k >= 0, "k must be >= 0")]),
    "quadratic": (_quadratic_point, "polytope", ("alpha", "beta", "n"), ["frank_wolfe"],
                  [("beta", lambda beta, s: 0 < beta < 0.5, "beta must be in (0,0.5)"),
                   ("alpha", lambda alpha, s: alpha > 0, "alpha must be positive")]),
}


class SpecValidationError(ValueError):
    """Carries every validation problem found in an experiment spec."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ExperimentSpec:
    objective: str
    sweep: str
    grid: list[float]
    n: int = 50
    k: int = 10
    lam: float = 0.75
    categories: int = 3
    alpha: float = 0.3
    beta: float = 0.2
    algorithms: list[str] = field(default_factory=list)
    trials: int = 10
    seed: int = 0
    eps: float = 0.1
    fw_eps: float = 0.02
    mcg_steps: int = 40
    mcg_samples: int = 32
    feature_dim: int = 25


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# declared type of an ExperimentSpec field (a string: annotations are
# postponed) -> (test of a value, what the value must be)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
            "an integer"),
    "float": (_finite, "a finite number"),
    "list[float]": (lambda v: isinstance(v, list) and v and all(map(_finite, v)),
                    "a non-empty list of finite numbers"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v),
                  "a list of names"),
}


def validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Return a normalized copy; raises SpecValidationError listing every
    problem at once: first each field whose value has the wrong type, else
    each value out of range or unsupported."""
    problems = []
    for f in fields(spec):
        test, kind = _FIELD_TYPES[f.type]
        v = getattr(spec, f.name)
        if not test(v):
            problems.append(f"{f.name} must be {kind}, got {v!r}")
    if problems:  # the checks below compare values of the declared types
        raise SpecValidationError(problems)
    _, need, sweeps, defaults, rules = _OBJECTIVES.get(spec.objective,
                                                       (None, None, (), (), ()))
    if need is None:
        problems.append(f"unknown objective {spec.objective!r} "
                        f"(choose from {sorted(_OBJECTIVES)})")
    elif spec.sweep not in sweeps:
        problems.append(f"sweep {spec.sweep!r} unsupported for "
                        f"{spec.objective} (choose from {sorted(sweeps)})")
    swept, grid = _SWEEP_FIELDS.get(spec.sweep), spec.grid
    if swept in ("k", "n"):  # each bad value is reported here alone
        bad = [g for g in grid if not (g >= 1 and g == int(g))]
        grid = [int(g) for g in grid if g not in bad]  # ints in the returned copy
        if bad:
            problems.append(f"{spec.sweep} sweep grid values must be positive "
                            f"integers, got {bad}")
    # every value the sweep's points give a field: the grid for the swept one
    given = lambda name: grid if name == swept else [getattr(spec, name)]
    for name in ("trials", "n", "categories", "mcg_steps", "mcg_samples",
                 "feature_dim"):
        if any(v < 1 for v in given(name)):
            problems.append(f"{name} must be >= 1")
    if spec.seed < 0:
        problems.append(f"seed must be >= 0, got {spec.seed}")
    if not 0 < spec.eps < 1:
        problems.append("eps must be in (0,1)")
    if not 0 < spec.fw_eps < 1:
        problems.append("fw_eps must be in (0,1)")
    algs = [a.replace("-", "_") for a in spec.algorithms] or list(defaults)
    for a in algs:
        alg = ALGORITHMS.get(a)
        if alg is None:
            problems.append(f"unknown algorithm {a!r} (choose from {sorted(ALGORITHMS)})")
        elif need is not None and alg.constraint != need and not (
                alg.constraint == "any" and need != "polytope"):
            problems.append(f"algorithm {a!r} ({alg.constraint} constraint) "
                            f"does not fit the {need} constraint of "
                            f"{spec.objective} sweeps")
    for name, ok, problem in rules:
        bad = [v for v in given(name) if not ok(v, spec)]
        if bad:
            problems.append(problem.format(spec=spec, bad=bad))
    if problems:
        raise SpecValidationError(problems)
    return replace(spec, grid=grid, algorithms=algs)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    columns: list[str]
    rows: list[dict]

    def to_csv(self) -> str:
        def cell(v):
            return f"{v:.10g}" if isinstance(v, float) else str(v)

        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        xs = [row["sweep_value"] for row in self.rows]
        series = [(alg, xs, [row[f"{alg}_mean"] for row in self.rows])
                  for alg in self.spec.algorithms]
        band = None
        # ub_new <= ub_prev, so a row has a finite bound iff its ub_new is
        # finite; without one (no algorithm has a guarantee) there is no band
        finite = [row["ub_new"] for row in self.rows if not math.isinf(row["ub_new"])]
        if finite:
            cap = 2.0 * max(finite) if max(finite) > 0 else 1.0  # clamp inf bounds
            lo, hi = ([cap if math.isinf(row[c]) else row[c] for row in self.rows]
                      for c in ("ub_new", "ub_prev"))
            series += [("ub_prev", xs, hi), ("ub_new", xs, lo)]
            band = (xs, lo, hi)
        return _svg.line_chart(series, band=band,
                               title=f"{self.spec.objective} sweep over {self.spec.sweep}",
                               xlabel=self.spec.sweep, ylabel="value")


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the sweep described by `spec` (validated first)."""
    spec = validate_spec(spec)
    point = _OBJECTIVES[spec.objective][0]
    rows = []
    swept = _SWEEP_FIELDS[spec.sweep]
    for p, value in enumerate(spec.grid):  # each point is the spec, one field set
        pt = replace(spec, **{swept: value})
        f, constraint, m_bound = point(pt, p)
        row = {"sweep": spec.sweep, "sweep_value": value, "m_bound": m_bound,
               "ub_prev": math.inf, "ub_new": math.inf}
        for name in spec.algorithms:
            alg = ALGORITHMS[name]
            # the point's runs share its oracle, each counting its own calls
            # as an eval_count delta; trial t owns seed + t
            run_one = lambda seed: alg.call(f, constraint, seed, pt)
            vals = np.array(trial_values(alg, run_one, spec.trials, spec.seed))
            mean, row[f"{name}_stderr"] = _mean_stderr(vals)
            row[f"{name}_mean"] = mean
            if alg.guarantee is None:
                continue
            for col, m in (("ub_prev", 0.0), ("ub_new", m_bound)):
                g = guarantee(alg.guarantee, m)
                if g > 0:
                    row[col] = min(row[col], upper_bound_from_output(mean, g))
        rows.append(row)

    columns = ["sweep", "sweep_value"]
    for name in spec.algorithms:
        columns += [f"{name}_mean", f"{name}_stderr"]
    columns += ["m_bound", "ub_prev", "ub_new"]
    return ExperimentResult(spec=spec, columns=columns, rows=rows)
