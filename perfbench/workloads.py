"""The benchmark's three workloads: inputs, the timed job, references, checks.

Each workload makes every input from the seed it is given, calls only public
`monoratio` names (looked up on the package at call time, so the tracer's
wrappers see the calls), and checks every output against a reference that
it computes itself with numpy.

- `sweeps`: an image k-sweep and the movie lambda-sweep through
  `run_experiment`. Image and movie oracles at n=50 are not memoized and see
  mostly distinct masks, so oracle evaluation dominates.
- `certify`: coverage+cut mixture tables (n=5..7) with the exact ratio DP and
  many seeded runs of five algorithms, plus ratio-lab certifications of a
  movie (n=14) and an image (n=12) objective. Oracles are table lookups or
  memoized with repeats, so algorithm control flow dominates.
- `quadratic_curves`: a quadratic beta-sweep (Frank-Wolfe over HiGHS LPs)
  and hardness-curve points. It builds no set oracle at all, so it bypasses
  every oracle and matroid change.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import monoratio as mr
from monoratio.experiments import ExperimentSpec

INV_E = math.exp(-1.0)


class Verdict:
    """Checked tasks of one job, the quality fractions and digest input."""

    def __init__(self):
        self.tasks: list[tuple[str, bool, str]] = []
        self.fractions: list[float] = []
        self._digest = hashlib.sha256()

    def task(self, name: str, ok: bool, note: str = "") -> None:
        self.tasks.append((name, bool(ok), note))

    def raised(self, name: str, output) -> bool:
        """Record a failed task when a group raised; True when it did."""
        if isinstance(output, Exception):
            self.task(name, False, f"raised {output!r}")
            return True
        return False

    def digest(self, *parts) -> None:
        for part in parts:
            self._digest.update(part if isinstance(part, bytes) else repr(part).encode())

    @property
    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# Calibration kernels: fixed work written here, not in monoratio, so no change
# to the package moves them. The host's speed drifts by up to 1.7x over tens
# of seconds; timing a kernel next to every job and reporting the job time
# relative to it cancels that drift (see NOTES.md). Each takes about
# CALIBRATION_REF_S on an idle core of the reference machine.
CALIBRATION_REF_S = 0.075
_KERNEL_S = np.random.default_rng(0).random((50, 50))
_KERNEL_X = np.linspace(0.0, 1.0, 1001)


def interpreter_kernel() -> float:
    """Python loops around small fancy-indexed reductions: the shape of a
    scalar image or movie evaluation inside an algorithm's candidate scan."""
    total = 0.0
    for i in range(4000):
        idx = [u for u in range(50) if (i * 2654435761 >> u) & 3 == 0]
        if idx:
            total += _KERNEL_S[:, idx].max(axis=1).sum()
    return total


def mixed_kernel() -> float:
    """Fewer small reductions plus dense grid reductions: the shape of the
    hardness evaluator and of the LP-driven Frank-Wolfe loop. The grid goes
    in blocks of 15 rows (120 KB) so that the kernel never frees a large
    array, which would raise the allocator's mmap threshold and change the
    process's peak RSS."""
    total = 0.0
    for i in range(4250):
        idx = [u for u in range(50) if (i * 2654435761 >> u) & 3 == 0]
        if idx:
            total += _KERNEL_S[:, idx].max(axis=1).sum()
    squares = _KERNEL_X ** 2
    for r in range(10):
        for lo in range(0, len(_KERNEL_X), 15):
            block = _KERNEL_X[lo:lo + 15, None] * (1.0 + r) - squares[None, :]
            total += float(block.max(axis=1).sum())
    return total


# --------------------------------------------------------------------- sweeps

# MCG budget: 10 steps x 8 samples x (n+1) = 4080 scalar image evaluations
# per run, against 65k at the library defaults, so that one job stays near
# two seconds and a run can repeat it several times.
MCG_STEPS, MCG_SAMPLES = 10, 8
MOVIE_GRID = [0.55, 0.65, 0.75, 0.85, 0.95]


class Sweeps:
    name = "sweeps"
    calibrate = staticmethod(interpreter_kernel)

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        base = int(rng.integers(1 << 30))
        specs = {
            "image": ExperimentSpec(objective="image", sweep="k", grid=[1, 2],
                                    n=50, categories=3, trials=2, seed=base,
                                    algorithms=["random_greedy_matroid",
                                                "mcg_rounding", "random"],
                                    mcg_steps=MCG_STEPS, mcg_samples=MCG_SAMPLES),
            "movie": ExperimentSpec(objective="movie", sweep="lambda",
                                    grid=list(MOVIE_GRID), n=50, k=10,
                                    trials=10, seed=base + 1,
                                    algorithms=["threshold_random_greedy", "random"]),
        }
        # run_experiment draws its features from the spec seed the same way
        sims = {key: mr.inner_product_similarity(
                    mr.random_feature_matrix(s.n, s.feature_dim, seed=s.seed))
                for key, s in specs.items()}
        return {"specs": specs, "sims": sims}

    def groups(self, ctx: dict):
        return [(f"{key}_sweep", lambda s=spec: mr.run_experiment(s))
                for key, spec in ctx["specs"].items()]

    def reference(self, ctx: dict) -> dict:
        image, movie = ctx["sims"]["image"], ctx["sims"]["movie"]
        k = ctx["specs"]["movie"].k
        # f(S) <= sum_u max_v s_uv for the image objective, and for the movie
        # objective f(S) <= sum of the |S| <= k largest column sums
        return {"image": float(image.max(axis=1).sum()),
                "movie": float(np.sort(movie.sum(axis=0))[-k:].sum())}

    def check(self, ctx: dict, ref: dict, outs: dict, fw_runs) -> Verdict:
        v = Verdict()
        for key, spec in ctx["specs"].items():
            group = f"{key}_sweep"
            res = outs[group]
            if v.raised(group, res):
                continue
            v.digest(res.to_csv())
            v.task(f"{group}/rows", len(res.rows) == len(spec.grid),
                   f"{len(res.rows)} rows")
            for row in res.rows:
                x = row["sweep_value"]
                if key == "image":
                    total = min(spec.n, int(x) * spec.categories)
                    closed = max(0.0, 1.0 - 2.0 * total / spec.n)
                else:
                    closed = 1.0 if x <= 0.5 else 2.0 * (1.0 - x)
                means = [row[f"{alg}_mean"] for alg in spec.algorithms]
                ok = (_finite(*means, row["m_bound"], row["ub_prev"], row["ub_new"])
                      and row["ub_new"] <= row["ub_prev"]
                      and abs(row["m_bound"] - closed) <= 1e-12
                      and all(0.0 <= m <= ref[key] for m in means))
                v.task(f"{group}/{x}", ok,
                       f"m_bound={row['m_bound']!r} closed={closed!r} "
                       f"ub=({row['ub_new']!r}, {row['ub_prev']!r}) means={means}")
                v.fractions.extend(m / ref[key] for m in means)
        return v


# -------------------------------------------------------------------- certify

TABLE_SIZES = (5, 6, 7) * 4
K = 3
EPS = 0.1
RUNS = {"double_greedy": 150, "random_greedy_cardinality": 150,
        "random_greedy_matroid": 75}
MOVIE_N, IMAGE_N, IMAGE_K = 14, 12, 3


def _masks(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def _bits(n: int) -> np.ndarray:
    return ((_masks(n)[:, None] >> np.arange(n)) & 1).astype(float)


def mixture_table(n: int, rng: np.random.Generator) -> list[float]:
    """Values on all 2^n masks of a non-negative submodular coverage + directed
    cut mixture; a style draw skews it so the monotonicity ratio spreads."""
    style = int(rng.integers(3))  # 0: coverage-heavy, 1: cut-heavy, 2: mixed
    universe = 2 * n
    covers = rng.random((n, universe)) < 0.4
    point_w = rng.random(universe) * (0.25 if style == 1 else 1.0)
    cut_w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(cut_w, 0.0)
    cut_w *= 0.15 if style == 0 else 1.25
    x = _bits(n)
    covered = (x @ covers) > 0
    values = covered @ point_w + np.einsum("iu,uv,iv->i", x, cut_w, 1.0 - x)
    return [float(val) for val in values]


def fixture_blocks(n: int) -> tuple[list[list[int]], list[int]]:
    """Two blocks with capacities 2 and 1, as in the acceptance fixtures."""
    split = 3 if n == 5 else 4
    return [list(range(split)), list(range(split, n))], [2, 1]


def naive_ratio(table: np.ndarray) -> float:
    """min f(T)/f(S) over all nested pairs S <= T with f(S) > 0 (else 1)."""
    masks = _masks((len(table) - 1).bit_length())
    nested = (masks[:, None] & ~masks[None, :]) == 0   # [S, T]: S subset of T
    sup_min = np.where(nested, table[None, :], np.inf).min(axis=1)
    pos = table > 0
    return float(min(1.0, (sup_min[pos] / table[pos]).min())) if pos.any() else 1.0


def movie_value(s: np.ndarray, lam: float, mask: int) -> float:
    idx = [u for u in range(len(s)) if (mask >> u) & 1]
    return float(s[:, idx].sum() - lam * s[np.ix_(idx, idx)].sum())


def image_value(s: np.ndarray, mask: int) -> float:
    idx = [u for u in range(len(s)) if (mask >> u) & 1]
    if not idx:
        return 0.0
    return float(s[:, idx].max(axis=1).sum() - s[np.ix_(idx, idx)].sum() / len(s))


def _witness_ok(ratio: float, fS: float, fT: float, tol: float) -> bool:
    if not 0.0 <= ratio <= 1.0:
        return False
    if fS <= 0.0:
        return ratio == 1.0
    return abs(fT / fS - ratio) <= tol


class Certify:
    name = "certify"
    calibrate = staticmethod(interpreter_kernel)

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        tables = []
        for n in TABLE_SIZES:
            blocks, caps = fixture_blocks(n)
            tables.append((n, mixture_table(n, rng), mr.PartitionMatroid(n, blocks, caps)))
        lam = 0.55 + 0.4 * float(rng.random())
        movie_sim = mr.inner_product_similarity(
            mr.random_feature_matrix(MOVIE_N, 4, seed=int(rng.integers(1 << 30))))
        image_sim = mr.inner_product_similarity(
            mr.random_feature_matrix(IMAGE_N, 4, seed=int(rng.integers(1 << 30))))
        return {"tables": tables, "lam": lam, "movie_sim": movie_sim,
                "image_sim": image_sim, "run_seed": int(rng.integers(1 << 30))}

    def groups(self, ctx: dict):
        base = ctx["run_seed"]

        def table_group(n, vals, M):
            f = mr.SetFunctionOracle(mr.GroundSet(n), vals.__getitem__, name="table")
            return {
                "ratio": mr.exact_monotonicity_ratio(f),
                "greedy_cardinality": [mr.greedy_cardinality(f, K)],
                "greedy_matroid": [mr.greedy_matroid(f, M)],
                "double_greedy": [mr.double_greedy(f, seed=base + s)
                                  for s in range(RUNS["double_greedy"])],
                "random_greedy_cardinality": [
                    mr.random_greedy_cardinality(f, K, seed=base + s)
                    for s in range(RUNS["random_greedy_cardinality"])],
                "random_greedy_matroid": [
                    mr.random_greedy_matroid(f, M, EPS, seed=base + s)
                    for s in range(RUNS["random_greedy_matroid"])],
            }

        def ratio_lab():
            movie = mr.movie_objective(ctx["movie_sim"], ctx["lam"])
            image = mr.image_objective(ctx["image_sim"])
            return {
                "monotonicity": mr.exact_monotonicity_ratio(movie),
                "weak": mr.exact_weak_monotonicity_ratio(
                    image, lambda m: m.bit_count() <= IMAGE_K),
                "submodular": mr.is_submodular(image, witness=True),
            }

        out = [(f"table{i}", lambda t=t: table_group(*t))
               for i, t in enumerate(ctx["tables"])]
        return out + [("ratio_lab", ratio_lab)]

    def reference(self, ctx: dict) -> dict:
        refs = []
        for n, vals, _ in ctx["tables"]:
            table = np.array(vals)
            masks = _masks(n)
            sizes = np.array([int(m).bit_count() for m in masks])
            blocks, caps = fixture_blocks(n)
            indep = np.ones(len(masks), dtype=bool)
            for block, cap in zip(blocks, caps):
                bmask = sum(1 << u for u in block)
                indep &= np.array([int(m & bmask).bit_count() <= cap for m in masks])
            refs.append({"card": float(table[sizes <= K].max()),
                         "matroid": float(table[indep].max()),
                         "all": float(table.max()),
                         "ratio": naive_ratio(table), "indep": indep})
        return {"tables": refs}

    def check(self, ctx: dict, ref: dict, outs: dict, fw_runs) -> Verdict:
        v = Verdict()
        for i, ((_, vals, _), r) in enumerate(zip(ctx["tables"], ref["tables"])):
            group = f"table{i}"
            res = outs[group]
            if v.raised(group, res):
                continue
            rep = res["ratio"]
            m = rep.ratio
            v.digest(rep.ratio, rep.witness_S, rep.witness_T, rep.eval_count)
            S, T = rep.witness_S, rep.witness_T
            v.task(f"{group}/ratio",
                   m == r["ratio"] and S & ~T == 0
                   and _witness_ok(m, vals[S], vals[T], 0.0),
                   f"dp={m!r} naive={r['ratio']!r} S={S} T={T}")
            rgm_base = 0.5 if m >= 1 else (1 + m + math.exp(-2 / (1 - m))) / 4
            rules = {  # algorithm: (constraint of its OPT, guaranteed ratio)
                "greedy_cardinality": ("card", m * (1 - INV_E)),
                "greedy_matroid": ("matroid", m / 2),
                "double_greedy": ("all", (2 + m) / 4),
                "random_greedy_cardinality": ("card", m * (1 - INV_E) + (1 - m) * INV_E),
                # the slack of acceptance criterion 4 for eps = 0.1
                "random_greedy_matroid": ("matroid", rgm_base - 2 * EPS),
            }
            for alg, (kind, ratio) in rules.items():
                runs = res[alg]
                opt = r[kind]
                values = np.array([run.value for run in runs])
                v.digest([(run.solution, run.value, run.oracle_calls) for run in runs])
                feasible = all(
                    run.value == vals[run.solution]
                    and (kind == "all"
                         or (kind == "card" and run.solution.bit_count() <= K)
                         or (kind == "matroid" and r["indep"][run.solution]))
                    for run in runs)
                if len(runs) > 1:  # randomized: the guarantee holds in expectation
                    se = values.std(ddof=1) / math.sqrt(len(values))
                    meets = values.mean() >= ratio * opt - 3 * se
                else:
                    meets = values[0] >= ratio * opt - 1e-9
                v.task(f"{group}/{alg}", feasible and meets,
                       f"mean={values.mean()!r} bound={ratio * opt!r} m={m!r}")
                v.fractions.append(float(values.mean()) / opt)
        res = outs["ratio_lab"]
        if not v.raised("ratio_lab", res):
            self._check_ratio_lab(ctx, res, v)
        return v

    def _check_ratio_lab(self, ctx: dict, res: dict, v: Verdict) -> None:
        lam, movie_sim, image_sim = ctx["lam"], ctx["movie_sim"], ctx["image_sim"]
        mono, weak, (submodular, witness) = (res["monotonicity"], res["weak"],
                                             res["submodular"])
        v.digest(mono.ratio, mono.witness_S, mono.witness_T, weak.ratio,
                 weak.witness_S, weak.witness_T, submodular, witness)
        S, T = mono.witness_S, mono.witness_T
        closed = 1.0 if lam <= 0.5 else 2.0 * (1.0 - lam)
        v.task("ratio_lab/movie_monotonicity",
               S & ~T == 0 and mono.ratio >= closed - 1e-9
               and _witness_ok(mono.ratio, movie_value(movie_sim, lam, S),
                               movie_value(movie_sim, lam, T), 1e-9),
               f"ratio={mono.ratio!r} closed={closed!r} S={S} T={T}")
        S, T = weak.witness_S, weak.witness_T
        closed = max(0.0, 1.0 - 2.0 * IMAGE_K / IMAGE_N)
        v.task("ratio_lab/image_weak",
               S.bit_count() <= IMAGE_K and T.bit_count() <= IMAGE_K
               and weak.ratio >= closed - 1e-9
               and _witness_ok(weak.ratio, image_value(image_sim, S),
                               image_value(image_sim, S | T), 1e-9),
               f"ratio={weak.ratio!r} closed={closed!r} S={S} T={T}")
        v.task("ratio_lab/image_submodular", submodular is True and witness is None,
               f"witness={witness}")


# ----------------------------------------------------------- quadratic_curves

BETA_GRID = [0.1, 0.2, 0.3]
ALPHA = 0.3
HARDNESS_WINDOWS = {  # m = 0 windows of acceptance criterion 1, m = 1 values
    "cardinality": ((0.486, 0.496), 1.0 - INV_E),
    "matroid": ((0.473, 0.483), 0.75),
}


def feasible_grid_max(inst, points: int = 25) -> float:
    """Maximum of F over the points of a regular grid of [0, u] inside P,
    one slice of the first coordinate at a time so that this reference
    never sets the process's peak RSS."""
    axes = [np.linspace(0.0, inst.u[j], points) for j in range(inst.n)]
    rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), -1).reshape(-1, inst.n - 1)
    best = -math.inf
    for x0 in axes[0]:
        grid = np.column_stack([np.full(len(rest), x0), rest])
        feasible = grid[np.all(grid @ inst.A.T <= inst.b + 1e-12, axis=1)]
        if len(feasible):
            values = (0.5 * np.einsum("ij,ij->i", feasible @ inst.H, feasible)
                      + feasible @ inst.h + inst.c)
            best = max(best, float(values.max()))
    return best


class QuadraticCurves:
    name = "quadratic_curves"
    calibrate = staticmethod(mixed_kernel)

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        spec = ExperimentSpec(objective="quadratic", sweep="beta", grid=list(BETA_GRID),
                              n=4, alpha=ALPHA, trials=2, seed=int(rng.integers(1 << 30)),
                              fw_eps=0.02)
        # run_experiment seeds the instance of sweep point p with seed + 10007 p
        instances = [mr.generate_quadratic_instance(spec.n, beta=b, alpha=ALPHA,
                                                    seed=spec.seed + 10007 * p)
                     for p, b in enumerate(spec.grid)]
        ms = [0.0, round(0.2 + 0.6 * float(rng.random()), 6), 1.0]
        return {"spec": spec, "instances": instances, "ms": ms}

    def groups(self, ctx: dict):
        out = [("beta_sweep", lambda: mr.run_experiment(ctx["spec"]))]
        for kind in HARDNESS_WINDOWS:
            for m in ctx["ms"]:
                out.append((f"{kind}_hardness/{m}",
                            lambda k=kind, m=m: getattr(mr, f"{k}_hardness")(m)))
        return out

    def reference(self, ctx: dict) -> dict:
        return {"grid_max": [feasible_grid_max(inst) for inst in ctx["instances"]]}

    def check(self, ctx: dict, ref: dict, outs: dict, fw_runs) -> Verdict:
        v = Verdict()
        spec = ctx["spec"]
        res = outs["beta_sweep"]
        if not v.raised("beta_sweep", res):
            v.digest(res.to_csv())
            v.task("beta_sweep/rows", len(res.rows) == len(spec.grid),
                   f"{len(res.rows)} rows")
            for row, inst, best in zip(res.rows, ctx["instances"], ref["grid_max"]):
                beta = row["sweep_value"]
                base = 1.0 - 2.0 * beta
                closed = base if inst.M >= 0.0 else base * ALPHA / (1.0 + ALPHA)
                mean = row["frank_wolfe_mean"]
                v.task(f"beta_sweep/{beta}",
                       _finite(mean, row["m_bound"], row["ub_prev"], row["ub_new"])
                       and row["ub_new"] <= row["ub_prev"]
                       and abs(row["m_bound"] - closed) <= 1e-12 and mean >= 0.0,
                       f"m_bound={row['m_bound']!r} closed={closed!r} mean={mean!r}")
                v.fractions.append(mean / best)
            inside = [P.contains(r.y) and math.isfinite(r.value) for P, r in fw_runs]
            v.digest(*(r.y.tobytes() for _, r in fw_runs))
            v.task("beta_sweep/fw_points_in_polytope", bool(inside) and all(inside),
                   f"{sum(inside)}/{len(inside)} inside")
        for kind, ((lo, hi), at_one) in HARDNESS_WINDOWS.items():
            curve = []
            for m in ctx["ms"]:
                group = f"{kind}_hardness/{m}"
                val = outs[group]
                if v.raised(group, val):
                    continue
                v.digest(val)
                ok = 0.0 <= val <= 1.0
                if m == 0.0:
                    ok = ok and lo <= val <= hi
                elif m == 1.0:
                    ok = ok and abs(val - at_one) <= 1e-4
                v.task(group, ok, f"value={val!r}")
                curve.append(val)
            v.task(f"{kind}_hardness/nondecreasing",
                   len(curve) == len(ctx["ms"])
                   and all(a <= b for a, b in zip(curve, curve[1:])), f"{curve}")
        return v


WORKLOADS = {w.name: w for w in (Sweeps(), Certify(), QuadraticCurves())}
