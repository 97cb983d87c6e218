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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import _svg
from .apps import (generate_quadratic_instance, image_objective,
                   inner_product_similarity, movie_objective,
                   random_feature_matrix)
from .bounds import guarantee
from .constraints import PartitionMatroid
from .continuous import FWConfig, MCGConfig, frank_wolfe_nonmonotone, \
    measured_continuous_greedy, swap_rounding
from .discrete import (greedy_cardinality, greedy_matroid,
                       random_baseline, random_greedy_cardinality,
                       random_greedy_matroid, sample_greedy, threshold_greedy,
                       threshold_random_greedy)
from .ratio import image_weak_ratio_bound, movie_ratio_bound, quadratic_ratio_bound

__all__ = ["ExperimentSpec", "ExperimentResult", "run_experiment",
           "validate_spec", "SpecValidationError", "ALG_GUARANTEE_KIND"]

# scarecrow algorithms carry no guarantee and are excluded from the bounds
ALG_GUARANTEE_KIND = {
    "greedy": "greedy_card",
    "threshold_greedy": "greedy_card",
    "sample_greedy": "greedy_card",
    "random_greedy": "random_greedy_card",
    "threshold_random_greedy": "random_greedy_card",
    "greedy_matroid": "greedy_matroid",
    "random_greedy_matroid": "rgm",
    "mcg_rounding": "mcg",
    # the Frank-Wolfe ratio has the same closed form as random greedy's
    "frank_wolfe": "random_greedy_card",
    "random": None,
}

_DEFAULT_ALGS = {
    "movie": ["threshold_random_greedy", "random"],
    "image": ["random_greedy_matroid", "mcg_rounding", "random"],
    "quadratic": ["frank_wolfe"],
}

_SWEEPS = {
    "movie": {"lambda", "k"},
    "image": {"k"},
    "quadratic": {"alpha", "beta", "n"},
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
    jobs: int = 1
    feature_dim: int = 25


def validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Return a normalized copy; raises SpecValidationError listing every
    problem at once."""
    problems = []
    if spec.objective not in _DEFAULT_ALGS:
        problems.append(f"unknown objective {spec.objective!r} "
                        f"(choose from {sorted(_DEFAULT_ALGS)})")
    else:
        if spec.sweep not in _SWEEPS[spec.objective]:
            problems.append(f"sweep {spec.sweep!r} unsupported for "
                            f"{spec.objective} (choose from "
                            f"{sorted(_SWEEPS[spec.objective])})")
    if not spec.grid:
        problems.append("sweep grid is empty")
    if spec.trials < 1:
        problems.append("trials must be >= 1")
    if spec.n < 1:
        problems.append("n must be >= 1")
    if not 0 < spec.eps < 1:
        problems.append("eps must be in (0,1)")
    if not 0 < spec.fw_eps < 1:
        problems.append("fw_eps must be in (0,1)")
    if spec.jobs < 1:
        problems.append("jobs must be >= 1")
    algs = list(spec.algorithms) or list(_DEFAULT_ALGS.get(spec.objective, []))
    for a in algs:
        if a not in ALG_GUARANTEE_KIND:
            problems.append(f"unknown algorithm {a!r}")
    if spec.objective == "movie" and not 0 <= spec.lam <= 1:
        problems.append("lambda must be in [0,1]")
    if spec.objective == "quadratic":
        if spec.sweep != "beta" and not 0 < spec.beta < 0.5:
            problems.append("beta must be in (0,0.5)")
        if spec.sweep != "alpha" and spec.alpha <= 0:
            problems.append("alpha must be positive")
    if problems:
        raise SpecValidationError(problems)
    return replace(spec, algorithms=algs)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    columns: list[str]
    rows: list[dict]

    def to_csv(self) -> str:
        def cell(v):
            if isinstance(v, float):
                if math.isinf(v):
                    return "inf"
                return f"{v:.10g}"
            return str(v)

        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        xs = [row["sweep_value"] for row in self.rows]
        lo = [row["ub_new"] for row in self.rows]
        cap = 2.0 * max(lo) if lo and max(lo) > 0 else 1.0  # clamp inf bounds
        hi = [cap if math.isinf(row["ub_prev"]) else row["ub_prev"]
              for row in self.rows]
        series = []
        for alg in self.spec.algorithms:
            series.append((alg, xs, [row[f"{alg}_mean"] for row in self.rows]))
        series.append(("ub_prev", xs, hi))
        series.append(("ub_new", xs, lo))
        return _svg.line_chart(series, band=(xs, lo, hi),
                               title=f"{self.spec.objective} sweep over {self.spec.sweep}",
                               xlabel=self.spec.sweep, ylabel="value")


def _partition_blocks(n: int, categories: int):
    """Contiguous near-equal split of 0..n-1 into `categories` blocks."""
    sizes = [n // categories + (1 if j < n % categories else 0)
             for j in range(categories)]
    blocks, start = [], 0
    for sz in sizes:
        blocks.append(list(range(start, start + sz)))
        start += sz
    return blocks


def _run_discrete(alg: str, make_oracle, constraint, k: int, eps: float,
                  spec: ExperimentSpec, seed: int) -> float:
    f = make_oracle()
    if alg == "greedy":
        return greedy_cardinality(f, k).value
    if alg == "random_greedy":
        return random_greedy_cardinality(f, k, seed=seed).value
    if alg == "threshold_greedy":
        return threshold_greedy(f, k, eps).value
    if alg == "sample_greedy":
        return sample_greedy(f, k, eps, seed=seed).value
    if alg == "threshold_random_greedy":
        return threshold_random_greedy(f, k, eps, seed=seed).value
    if alg == "random":
        return random_baseline(f, constraint, seed=seed).value
    if alg == "greedy_matroid":
        return greedy_matroid(f, constraint).value
    if alg == "random_greedy_matroid":
        return random_greedy_matroid(f, constraint, eps, seed=seed).value
    if alg == "mcg_rounding":
        cfg = MCGConfig(T=1.0, steps=spec.mcg_steps, samples=spec.mcg_samples,
                        seed=seed)
        res = measured_continuous_greedy(f, constraint, cfg)
        sol = swap_rounding(res.y, constraint, seed=seed + 1)
        return f.value(sol)
    raise ValueError(f"unsupported algorithm {alg!r}")


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the sweep described by `spec` (validated first)."""
    spec = validate_spec(spec)
    points = list(spec.grid)

    # data fixed across the sweep (movie/image); quadratic draws one instance
    # per point, shared by its trials and its m bound
    sim = None
    if spec.objective in ("movie", "image"):
        feats = random_feature_matrix(spec.n, spec.feature_dim, seed=spec.seed)
        sim = inner_product_similarity(feats)
    instances = [None] * len(points)
    if spec.objective == "quadratic":
        instances = [_quadratic_instance(spec, value, p)
                     for p, value in enumerate(points)]

    tasks = []  # (point_idx, alg, trial) in deterministic order
    for p in range(len(points)):
        for alg in spec.algorithms:
            for t in range(spec.trials):
                tasks.append((p, alg, t))

    def run_task(task):
        p, alg, t = task
        value = points[p]
        trial_seed = spec.seed + t  # each trial owns base_seed + trial index
        if spec.objective == "movie":
            lam = value if spec.sweep == "lambda" else spec.lam
            k = int(value) if spec.sweep == "k" else spec.k
            make = lambda: movie_objective(sim, lam)
            return _run_discrete(alg, make, k, k, spec.eps, spec, trial_seed)
        if spec.objective == "image":
            k = int(value) if spec.sweep == "k" else spec.k
            blocks = _partition_blocks(spec.n, spec.categories)
            matroid = PartitionMatroid(spec.n, blocks, [k] * len(blocks))
            make = lambda: image_objective(sim)
            return _run_discrete(alg, make, matroid, k, spec.eps, spec, trial_seed)
        if spec.objective == "quadratic":
            inst = instances[p]
            cfg = FWConfig(eps=spec.fw_eps, L=inst.L, D=inst.D)
            res = frank_wolfe_nonmonotone(inst.grad, inst.value,
                                          inst.polytope(), cfg)
            return res.value
        raise AssertionError(spec.objective)

    if spec.jobs > 1:
        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            values = list(pool.map(run_task, tasks))
    else:
        values = [run_task(t) for t in tasks]
    by_key = {task: v for task, v in zip(tasks, values)}

    columns = ["sweep", "sweep_value"]
    for alg in spec.algorithms:
        columns += [f"{alg}_mean", f"{alg}_stderr"]
    columns += ["m_bound", "ub_prev", "ub_new"]

    rows = []
    for p, value in enumerate(points):
        row = {"sweep": spec.sweep, "sweep_value": value}
        for alg in spec.algorithms:
            vals = np.array([by_key[(p, alg, t)] for t in range(spec.trials)])
            row[f"{alg}_mean"] = float(vals.mean())
            row[f"{alg}_stderr"] = (float(vals.std(ddof=1) / math.sqrt(len(vals)))
                                    if len(vals) > 1 else 0.0)
        row["m_bound"] = _m_bound(spec, value, instances[p])
        ub_prev = math.inf
        ub_new = math.inf
        for alg in spec.algorithms:
            kind = ALG_GUARANTEE_KIND[alg]
            if kind is None:
                continue
            mean = row[f"{alg}_mean"]
            g0 = guarantee(kind, 0.0)
            gm = guarantee(kind, row["m_bound"])
            if g0 > 0:
                ub_prev = min(ub_prev, mean / g0)
            if gm > 0:
                ub_new = min(ub_new, mean / gm)
        row["ub_prev"] = ub_prev
        row["ub_new"] = ub_new
        rows.append(row)
    return ExperimentResult(spec=spec, columns=columns, rows=rows)


def _quadratic_instance(spec: ExperimentSpec, value, point_idx: int):
    n = int(value) if spec.sweep == "n" else spec.n
    alpha = value if spec.sweep == "alpha" else spec.alpha
    beta = value if spec.sweep == "beta" else spec.beta
    return generate_quadratic_instance(n, beta=beta, alpha=alpha,
                                       seed=spec.seed + 10007 * point_idx)


def _m_bound(spec: ExperimentSpec, value, inst) -> float:
    if spec.objective == "movie":
        lam = value if spec.sweep == "lambda" else spec.lam
        return movie_ratio_bound(lam)
    if spec.objective == "image":
        k = int(value) if spec.sweep == "k" else spec.k
        # feasible sets hold up to k elements from each of the categories
        total = min(spec.n, k * spec.categories)
        return image_weak_ratio_bound(total, spec.n)
    if spec.objective == "quadratic":
        return quadratic_ratio_bound(inst.alpha, inst.beta, inst.M >= 0.0)
    raise AssertionError(spec.objective)
