"""Command-line harness: `monoratio ratio|bounds|run|experiment`.

Exit codes: 0 on success, 1 on runtime errors, 2 on usage/validation errors.
Outputs are CSV (and optional SVG) with no timestamps, so reruns with
identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import fields

import numpy as np

from . import _svg
from .apps import (image_objective, inner_product_similarity, load_features_csv,
                   mixture_objective, movie_objective, random_feature_matrix)
from .bounds import CURVE_IDS, curves_csv, evaluate_curve
from .constraints import UniformMatroid, partition_matroid_from_text
from .experiments import (_OBJECTIVES, _SWEEP_FIELDS, ALGORITHMS, ExperimentSpec,
                          SpecValidationError, _mean_stderr, algorithm,
                          run_experiment, trial_values)
from .oracle import GroundSet, SetFunctionOracle
from .ratio import RatioReport, exact_monotonicity_ratio, exact_weak_monotonicity_ratio

__all__ = ["main", "build_parser"]


def _directed_cut_chain(n: int) -> SetFunctionOracle:
    """Directed cut of the chain 0->1->...->n-1 (classic non-monotone
    fixture: ratio 0 already at n=2)."""

    def fn(mask: int) -> float:
        return float(sum(1 for i in range(n - 1)
                         if (mask >> i) & 1 and not (mask >> (i + 1)) & 1))

    return SetFunctionOracle(GroundSet(n), fn, name="cut-chain")


def _build_objective(args, default_n) -> SetFunctionOracle:
    name, csv = args.objective, args.features_csv
    if csv and name.startswith("synthetic"):
        raise ValueError(f"--objective {name} does not take --features-csv")
    if csv and args.n is not None:  # n is the CSV's row count
        raise ValueError("give --n or --features-csv, not both")
    args.n = default_n if args.n is None else args.n
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 <= args.lam <= 1.0:
        raise ValueError(f"--lambda must be in [0,1], got {args.lam}")
    if name == "synthetic-cut":
        return _directed_cut_chain(args.n)
    if name == "synthetic-mix":
        return mixture_objective(args.n, args.seed)
    if csv:
        X = load_features_csv(csv)
        sim = np.clip(X @ X.T, 0.0, None)  # signed features: clamp at 0
    else:
        d = 25 if name == "movie" else max(2, args.n // 2)
        sim = inner_product_similarity(random_feature_matrix(args.n, d, seed=args.seed))
    if name == "movie":
        return movie_objective(sim, args.lam)
    return image_objective(sim)


def cmd_ratio(args) -> int:
    if args.weak and args.k is None:
        raise ValueError("--weak requires --k")
    if args.k is not None and not args.weak:
        raise ValueError("--k requires --weak")
    if args.weak and args.k < 0:
        raise ValueError(f"--k must be >= 0, got {args.k}")
    f = _build_objective(args, 8)
    # the certifiers own their size limits: a SizeLimitError is a ValueError,
    # which main reports with exit code 2
    if args.weak:
        report = exact_weak_monotonicity_ratio(f, lambda m: m.bit_count() <= args.k)
    else:
        report = exact_monotonicity_ratio(f)
    print(RatioReport.CSV_HEADER)
    print(report.csv_row())
    return 0


def _write_outputs(args, text: str, chart) -> None:
    """Write `text` to --out, or to stdout without it, and with --svg the
    chart that `chart()` draws there."""
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        pathlib.Path(args.svg).write_text(chart())


def cmd_bounds(args) -> int:
    curves = [evaluate_curve(expr, num_points=args.points) for expr in args.expr]
    _write_outputs(args, curves_csv(curves), lambda: _svg.line_chart(
        [(c.expression_id, [m for m, _ in c.points], [v for _, v in c.points])
         for c in curves], title="guarantee curves", xlabel="m", ylabel="ratio"))
    return 0


def _parse_matroid(text: str, n: int):
    if text.startswith("partition:"):
        with open(text.split(":", 1)[1]) as fh:
            return partition_matroid_from_text(fh.read(), n=n)
    k = text.removeprefix("uniform:")
    if k != text and k.isdecimal() and int(k) <= n:
        return UniformMatroid(n, int(k))
    rank = f" (rank {k!r} is not in 0..{n})" if k != text else ""
    raise ValueError(f"bad --matroid {text!r}{rank}; use uniform:K with "
                     "0 <= K <= n, or partition:FILE")


def _check_run_flags(args, alg) -> None:
    """Raise ValueError naming a flag `run` would ignore for `alg`, lacks,
    or cannot use."""
    if alg.experiment_only:
        raise ValueError(f"algorithm {args.alg!r} runs only in experiment sweeps")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.eps is not None and not alg.takes_eps:
        raise ValueError(f"--alg {args.alg} does not take --eps")
    if args.eps is not None and not 0.0 < args.eps < 1.0:
        raise ValueError(f"--eps must be in (0,1), got {args.eps}")
    if alg.constraint == "none":
        for flag, given in (("--k", args.k), ("--matroid", args.matroid)):
            if given is not None:
                raise ValueError(f"--alg {args.alg} does not take {flag}")
    elif alg.constraint == "cardinality":
        if args.matroid is not None:
            raise ValueError(f"--alg {args.alg} does not take --matroid")
        if args.k is None:
            raise ValueError("this algorithm needs --k")
    elif args.k is not None and args.matroid is not None:
        raise ValueError("give --k or --matroid, not both")
    elif args.k is None and args.matroid is None:
        raise ValueError("this algorithm needs --k or --matroid")


def cmd_run(args) -> int:
    alg = algorithm(args.alg)
    _check_run_flags(args, alg)
    f = _build_objective(args, 20)
    n = f.n
    if args.k is not None and args.k > n:
        raise ValueError(f"k={args.k} exceeds the ground set size n={n}")
    if args.matroid:
        constraint = _parse_matroid(args.matroid, n)
    elif alg.constraint == "matroid":
        constraint = UniformMatroid(n, args.k)
    else:
        constraint = args.k
    if args.eps is None:
        args.eps = 0.1
    run_one = lambda seed: alg.call(f, constraint, seed, args)

    if args.trials == 1:
        r = run_one(args.seed)
        print("alg,value,size,oracle_calls,seed,solution")
        ids = "|".join(str(u) for u in r.solution_ids)
        print(f"{args.alg},{r.value:.10g},{r.size},{r.oracle_calls},{args.seed},{ids}")
    else:
        vals = np.array(trial_values(alg, run_one, args.trials, args.seed))
        mean, stderr = _mean_stderr(vals)
        print("alg,trials,mean_value,stderr,min_value,max_value")
        print(f"{args.alg},{args.trials},{mean:.10g},{stderr:.10g},"
              f"{vals.min():.10g},{vals.max():.10g}")
    return 0


def cmd_experiment(args) -> int:
    if args.spec:
        flagged = sorted(set(vars(args)) & _SPEC_FIELDS)
        if flagged:
            raise ValueError(f"--spec takes no spec fields as flags; put them in "
                             f"the spec file: {', '.join(flagged)}")
        with open(args.spec) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError("the spec file must hold a JSON object")
        unknown = sorted(set(given) - _SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown spec fields: {', '.join(unknown)}")
    else:
        given = {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
        if "grid" in given:
            try:
                given["grid"] = [float(g) for g in args.grid.split(",") if g.strip()]
            except ValueError:
                raise ValueError(f"--grid must be comma-separated numbers, "
                                 f"got {args.grid!r}") from None
    if not {"objective", "sweep", "grid"} <= given.keys():
        raise ValueError("need --objective, --sweep and --grid (or a --spec with all three)")
    result = run_experiment(ExperimentSpec(**given))
    _write_outputs(args, result.to_csv(), result.to_svg)
    return 0


def _add_objective_flags(p):
    p.add_argument("--objective", required=True,
                   choices=["movie", "image", "synthetic-cut", "synthetic-mix"])
    p.add_argument("--n", type=int, help="ground set size (default 8 for ratio, 20 for run)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--features-csv", default=None,
                   help="load item features from CSV instead of the synthetic generator")


_RUN_ALGS = [name.replace("_", "-") for name, alg in ALGORITHMS.items()
             if not alg.experiment_only]
_SPEC_FIELDS = {f.name for f in fields(ExperimentSpec)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoratio",
        description="Monotonicity-ratio laboratory for submodular maximization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="exact monotonicity ratio of an objective")
    _add_objective_flags(p)
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
    _add_objective_flags(p)
    p.add_argument("--alg", required=True,
                   help="one of " + ", ".join(_RUN_ALGS)
                   + " (hyphens or underscores)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matroid", default=None, help="uniform:K or partition:FILE")
    p.add_argument("--eps", type=float, default=None,
                   help="accuracy of the algorithms that take one (default 0.1)")
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=cmd_run)

    # a spec flag that is not given stays off the namespace, so the
    # ExperimentSpec defaults are the only ones
    p = sub.add_parser("experiment", help="upper-bound-on-OPT sweep",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--spec", default=None, help="JSON experiment spec file")
    p.add_argument("--objective", choices=list(_OBJECTIVES))
    p.add_argument("--sweep", choices=list(_SWEEP_FIELDS))
    p.add_argument("--grid", help="comma-separated sweep values")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--categories", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--alg", dest="algorithms", action="append", metavar="ALG",
                   help="algorithm list (repeatable); defaults per objective; "
                   "one of " + ", ".join(sorted(ALGORITHMS)))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
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
    except (ValueError, OSError, RuntimeError) as exc:
        # a spec's validation problems go one to a line
        problems = exc.problems if isinstance(exc, SpecValidationError) else [exc]
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
