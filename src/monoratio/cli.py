"""Command-line harness: `monoratio ratio|bounds|run|experiment`.

Exit codes: 0 on success, 1 on runtime errors, 2 on usage/validation errors.
Outputs are CSV (and optional SVG) with no timestamps, so reruns with
identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import _svg
from .apps import (image_objective, inner_product_similarity, load_features_csv,
                   movie_objective, random_feature_matrix, random_similarity)
from .bounds import CURVE_IDS, evaluate_curve
from .constraints import (CardinalityConstraint, PartitionMatroid,
                          UniformMatroid, partition_matroid_from_text)
from .discrete import (double_greedy, greedy_cardinality, greedy_matroid,
                       random_baseline, random_greedy_cardinality,
                       random_greedy_matroid, sample_greedy, threshold_greedy,
                       threshold_random_greedy)
from .experiments import (ExperimentSpec, SpecValidationError, run_experiment,
                          validate_spec)
from .oracle import GroundSet, SetFunctionOracle
from .ratio import RatioReport, exact_monotonicity_ratio, exact_weak_monotonicity_ratio

__all__ = ["main", "build_parser"]


def _directed_cut_chain(n: int) -> SetFunctionOracle:
    """Directed cut of the chain 0->1->...->n-1 (classic non-monotone
    fixture: ratio 0 already at n=2)."""

    def fn(mask: int) -> float:
        return float(sum(1 for i in range(n - 1)
                         if (mask >> i) & 1 and not (mask >> (i + 1)) & 1))

    return SetFunctionOracle(GroundSet(n), fn, memoize=n <= 20, name="cut-chain")


def _synthetic_mixture(n: int, seed: int) -> SetFunctionOracle:
    """Random coverage + directed-cut mixture; non-negative submodular with a
    monotonicity ratio spread over (0, 1)."""
    rng = np.random.default_rng(seed)
    universe = 2 * n
    covers = [int(rng.integers(1, 1 << universe)) for _ in range(n)]
    pt_w = rng.random(universe)
    cut_w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(cut_w, 0.0)
    scale_cov = float(rng.random())
    scale_cut = float(rng.random()) * 2.0

    def fn(mask: int) -> float:
        cov = 0
        for u in range(n):
            if (mask >> u) & 1:
                cov |= covers[u]
        total = scale_cov * sum(pt_w[p] for p in range(universe) if (cov >> p) & 1)
        ins = [u for u in range(n) if (mask >> u) & 1]
        outs = [u for u in range(n) if not (mask >> u) & 1]
        if ins and outs:
            total += scale_cut * float(cut_w[np.ix_(ins, outs)].sum())
        return total

    return SetFunctionOracle(GroundSet(n), fn, memoize=n <= 20, name="mixture")


def _build_objective(args) -> SetFunctionOracle:
    name = args.objective
    if name == "synthetic-cut":
        return _directed_cut_chain(args.n)
    if name == "synthetic-mix":
        return _synthetic_mixture(args.n, args.seed)
    if getattr(args, "features_csv", None):
        feats = load_features_csv(args.features_csv)
        sim = inner_product_similarity(feats, clip_negative=True)
    elif name == "movie":
        feats = random_feature_matrix(args.n, 25, seed=args.seed)
        sim = inner_product_similarity(feats)
    else:
        sim = random_similarity(args.n, seed=args.seed)
    if name == "movie":
        return movie_objective(sim, args.lam)
    if name == "image":
        return image_objective(sim)
    raise ValueError(f"unknown objective {name!r}")


def cmd_ratio(args) -> int:
    if args.weak and args.k is None:
        print("error: --weak requires --k", file=sys.stderr)
        return 2
    f = _build_objective(args)
    # the certifiers own their size limits: a SizeLimitError is a ValueError,
    # which main reports with exit code 2
    if args.weak:
        report = exact_weak_monotonicity_ratio(f, lambda m: m.bit_count() <= args.k)
    else:
        report = exact_monotonicity_ratio(f)
    print(RatioReport.CSV_HEADER)
    print(report.csv_row())
    return 0


def cmd_bounds(args) -> int:
    curves = [evaluate_curve(expr, num_points=args.points) for expr in args.expr]
    lines = [curves[0].CSV_HEADER]
    for c in curves:
        lines.extend(c.to_csv().splitlines()[1:])
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        series = [(c.expression_id, [m for m, _ in c.points],
                   [v for _, v in c.points]) for c in curves]
        with open(args.svg, "w") as fh:
            fh.write(_svg.line_chart(series, title="guarantee curves",
                                     xlabel="m", ylabel="ratio"))
    return 0


def _parse_matroid(text: str, n: int):
    if text.startswith("uniform:"):
        return UniformMatroid(n, int(text.split(":", 1)[1]))
    if text.startswith("partition:"):
        path = text.split(":", 1)[1]
        with open(path) as fh:
            return partition_matroid_from_text(fh.read(), n=n)
    raise ValueError(f"bad --matroid {text!r}; use uniform:K or partition:FILE")


def cmd_run(args) -> int:
    f = _build_objective(args)
    n = f.n
    alg = args.alg
    needs_matroid = alg in ("greedy-matroid", "random-greedy-matroid")
    constraint = None
    if args.matroid:
        constraint = _parse_matroid(args.matroid, n)
    elif args.k is not None:
        if args.k > n:
            print(f"error: k={args.k} exceeds the ground set size n={n}",
                  file=sys.stderr)
            return 2
        constraint = (UniformMatroid(n, args.k) if needs_matroid
                      else CardinalityConstraint(n, args.k))
    if needs_matroid and not isinstance(constraint, (UniformMatroid, PartitionMatroid)):
        print("error: this algorithm needs --matroid (or --k)", file=sys.stderr)
        return 2

    def one(seed):
        if alg == "greedy":
            return greedy_cardinality(f, args.k)
        if alg == "random-greedy":
            return random_greedy_cardinality(f, args.k, seed=seed)
        if alg == "threshold-greedy":
            return threshold_greedy(f, args.k, args.eps)
        if alg == "sample-greedy":
            return sample_greedy(f, args.k, args.eps, seed=seed)
        if alg == "threshold-random-greedy":
            return threshold_random_greedy(f, args.k, args.eps, seed=seed)
        if alg == "double-greedy":
            return double_greedy(f, seed=seed)
        if alg == "greedy-matroid":
            return greedy_matroid(f, constraint)
        if alg == "random-greedy-matroid":
            return random_greedy_matroid(f, constraint, args.eps, seed=seed)
        if alg == "random":
            return random_baseline(f, constraint, seed=seed)
        raise ValueError(f"unknown algorithm {alg!r}")

    if alg in ("greedy", "random-greedy", "threshold-greedy", "sample-greedy",
               "threshold-random-greedy") and args.k is None:
        print("error: this algorithm needs --k", file=sys.stderr)
        return 2
    if alg == "random" and constraint is None:
        print("error: random baseline needs --k or --matroid", file=sys.stderr)
        return 2

    if args.trials == 1:
        r = one(args.seed)
        print("alg,value,size,oracle_calls,seed,solution")
        ids = "|".join(str(u) for u in r.solution_ids)
        print(f"{alg},{r.value:.10g},{r.size},{r.oracle_calls},{args.seed},{ids}")
    else:
        vals = np.array([one(args.seed + t).value for t in range(args.trials)])
        stderr = float(vals.std(ddof=1) / math.sqrt(len(vals)))
        print("alg,trials,mean_value,stderr,min_value,max_value")
        print(f"{alg},{args.trials},{vals.mean():.10g},{stderr:.10g},"
              f"{vals.min():.10g},{vals.max():.10g}")
    return 0


def cmd_experiment(args) -> int:
    if args.spec:
        with open(args.spec) as fh:
            payload = json.load(fh)
        known = {f.name for f in fields(ExperimentSpec)}
        unknown = sorted(set(payload) - known)
        if unknown:
            print(f"error: unknown spec fields: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        spec = ExperimentSpec(**payload)
    else:
        if args.objective is None or args.sweep is None or args.grid is None:
            print("error: need --objective, --sweep and --grid (or --spec)",
                  file=sys.stderr)
            return 2
        spec = ExperimentSpec(
            objective=args.objective, sweep=args.sweep,
            grid=[float(g) for g in args.grid.split(",") if g.strip()],
            n=args.n, k=args.k if args.k is not None else 10, lam=args.lam,
            categories=args.categories, alpha=args.alpha, beta=args.beta,
            algorithms=args.alg or [], trials=args.trials, seed=args.seed,
            eps=args.eps, jobs=args.jobs)
    try:
        spec = validate_spec(spec)
    except SpecValidationError as exc:
        for p in exc.problems:
            print(f"error: {p}", file=sys.stderr)
        return 2
    result = run_experiment(spec)
    text = result.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(result.to_svg())
    return 0


def _add_objective_flags(p, default_n):
    p.add_argument("--objective", required=True,
                   choices=["movie", "image", "synthetic-cut", "synthetic-mix"])
    p.add_argument("--n", type=int, default=default_n)
    p.add_argument("--lambda", dest="lam", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features-csv", default=None,
                   help="load item features from CSV instead of the synthetic generator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoratio",
        description="Monotonicity-ratio laboratory for submodular maximization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="exact monotonicity ratio of an objective")
    _add_objective_flags(p, default_n=8)
    p.add_argument("--weak", action="store_true",
                   help="weak ratio over feasible sets of size at most --k")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("bounds", help="guarantee/hardness curve CSV (and SVG)")
    p.add_argument("--expr", action="append", required=True, choices=list(CURVE_IDS))
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("run", help="one algorithm on one instance")
    _add_objective_flags(p, default_n=20)
    p.add_argument("--alg", required=True,
                   choices=["greedy", "random-greedy", "threshold-greedy",
                            "sample-greedy", "threshold-random-greedy",
                            "double-greedy", "greedy-matroid",
                            "random-greedy-matroid", "random"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matroid", default=None, help="uniform:K or partition:FILE")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="upper-bound-on-OPT sweep")
    p.add_argument("--spec", default=None, help="JSON experiment spec file")
    p.add_argument("--objective", choices=["movie", "image", "quadratic"])
    p.add_argument("--sweep", choices=["lambda", "k", "alpha", "beta", "n"])
    p.add_argument("--grid", default=None, help="comma-separated sweep values")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=0.75)
    p.add_argument("--categories", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--alg", action="append", default=None,
                   help="algorithm list (repeatable); defaults per objective")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--jobs", type=int,
                   default=int(os.environ.get("MONORATIO_JOBS", "1")))
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
