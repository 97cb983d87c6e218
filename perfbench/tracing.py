"""Counters and span tracing for the benchmark, added from outside the package.

Nothing in `monoratio` knows about this module. Wrappers are installed by
replacing a public function at every module attribute of the package that
refers to it, so callers that imported the name into their own namespace
(for example `monoratio.experiments.random_greedy_matroid`) see the wrapper
too. Methods are replaced on their class. A target that no longer exists is
recorded as absent and skipped, so a later refactor turns a metric into an
absent one instead of crashing the run.

Imports here are standard library only: the set-up probe times the first
import of numpy, scipy and monoratio, so this module must not pull them in.
"""

from __future__ import annotations

import sys
import time

perf = time.perf_counter

DISCRETE_ALGS = ("double_greedy", "greedy_cardinality",
                 "random_greedy_cardinality", "greedy_matroid",
                 "random_greedy_matroid", "threshold_random_greedy",
                 "random_baseline")
ORACLE_KEYS = ("image", "movie", "table")

# Span record fields; oracle evaluations are 5-tuples without attributes.
NAME, START, END, PARENT, TASK, ATTRS = range(6)


class Patcher:
    """Replaces public names and methods and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def function(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        current = getattr(mod, attr, None)
        if current is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(current)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "monoratio" or name.startswith("monoratio.")):
                continue
            for key, value in list(vars(m).items()):
                if value is current:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, current))

    def method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(sys.modules.get(module), cls, None)
        current = vars(owner).get(attr) if owner is not None else None
        if current is None:
            self.absent.append(f"{module}.{cls}.{attr}")
            return
        setattr(owner, attr, make(current))
        self._undo.append((owner, attr, current))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class Counters:
    """Always-on bookkeeping that the end-to-end metrics and checks need.

    It records every `SetFunctionOracle` built during a job (to sum their
    `eval_count`), counts value and gradient calls of generated quadratics,
    and keeps each Frank-Wolfe result with its polytope for the checks.
    None of it sits on a set-oracle evaluation path.
    """

    def __init__(self):
        self.patcher = Patcher()
        self.reset()

    def reset(self) -> None:
        self.oracles: list = []
        self.quadratic_calls = 0
        self.fw_runs: list = []

    def oracle_calls(self) -> int:
        return sum(o.eval_count for o in self.oracles) + self.quadratic_calls

    def install(self) -> None:
        p = self.patcher

        def make_init(orig):
            def __init__(oracle, *args, **kwargs):
                orig(oracle, *args, **kwargs)
                self.oracles.append(oracle)
            return __init__

        def make_counted(orig):
            def counted(inst, *args, **kwargs):
                self.quadratic_calls += 1
                return orig(inst, *args, **kwargs)
            return counted

        def make_fw(orig):
            def frank_wolfe(grad, value, P, *args, **kwargs):
                res = orig(grad, value, P, *args, **kwargs)
                self.fw_runs.append((P, res))
                return res
            return frank_wolfe

        p.method("monoratio.oracle", "SetFunctionOracle", "__init__", make_init)
        p.method("monoratio.apps", "QuadraticInstance", "value", make_counted)
        p.method("monoratio.apps", "QuadraticInstance", "grad", make_counted)
        p.function("monoratio.continuous", "frank_wolfe_nonmonotone", make_fw)


class Tracer:
    """In-memory spans `[name, start, end, parent, task, attrs]`.

    `parent` is the index of the enclosing span (-1 at top level) and `task`
    the benchmark task running when the span opened. A scalar oracle
    evaluation is a leaf, recorded as one tuple when it ends: at well under a
    microsecond per table lookup, the cost of a full span would swamp what
    it measures.
    """

    def __init__(self):
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.task = None
        self.seen: dict = {}
        self.independence_calls = 0

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1], self.task, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf()
        self.stack.pop()

    def span(self, name: str, attrs=None):
        """Wrapper factory: one span per call; `attrs(args, kwargs, result,
        before)` fills the span's attributes, where `before` is the first
        argument's `eval_count` at entry (None when it has none)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                before = getattr(args[0], "eval_count", None) if args else None
                rec = self.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(rec)
                if attrs is not None:
                    rec[ATTRS] = attrs(args, kwargs, out, before)
                return out
            return wrapper
        return make

    def install(self) -> Patcher:
        """Patch every layer boundary, recording into the span list of the
        last `reset()`; returns the patcher that restores the originals."""
        p = Patcher()
        tracer = self
        names: dict[tuple[str, str], str] = {}

        def span_name(kind: str, oracle) -> str:
            name = names.get((kind, oracle.name))
            if name is None:
                name = names[kind, oracle.name] = (
                    f"oracle.{kind}.{oracle.name.partition('(')[0]}")
            return name

        def make_value(orig):
            spans, stack, seen_by = tracer.spans, tracer.stack, tracer.seen

            def value(oracle, mask):
                seen = seen_by.get(oracle)
                if seen is None:
                    seen = seen_by[oracle] = set()
                seen.add(mask)
                start = perf()
                try:
                    return orig(oracle, mask)
                finally:
                    spans.append((span_name("value", oracle), start, perf(),
                                  stack[-1], tracer.task))
            return value

        def make_values(orig):
            def values(oracle, masks):
                rec = tracer.open(span_name("values", oracle))
                try:
                    return orig(oracle, masks)
                finally:
                    tracer.close(rec)
            return values

        def make_independent(orig):
            def is_independent(matroid, mask):
                tracer.independence_calls += 1
                return orig(matroid, mask)
            return is_independent

        def run_attrs(args, kwargs, out, before):
            n = getattr(args[0], "n", None) if args else None
            return {"evals": getattr(out, "oracle_calls", None), "n": n}

        def eval_delta(args, kwargs, out, before):
            after = getattr(args[0], "eval_count", None)
            return {"evals": None if before is None else after - before}

        def generation_key(args, kwargs, out, before):
            return {"key": (args, tuple(sorted(kwargs.items())))}

        p.method("monoratio.oracle", "SetFunctionOracle", "value", make_value)
        p.method("monoratio.oracle", "SetFunctionOracle", "values", make_values)
        for cls in ("UniformMatroid", "PartitionMatroid", "OracleMatroid"):
            p.method("monoratio.constraints", cls, "is_independent", make_independent)
        for mod, fn, name, attrs in (
                ("constraints", "linear_maximize_polytope", "constraints.lp", None),
                ("constraints", "linear_maximize_matroid", "constraints.matroid_linmax", None),
                *[("discrete", alg, f"discrete.{alg}", run_attrs) for alg in DISCRETE_ALGS],
                ("continuous", "measured_continuous_greedy", "continuous.mcg", eval_delta),
                ("continuous", "swap_rounding", "continuous.swap_rounding", None),
                ("continuous", "frank_wolfe_nonmonotone", "continuous.frank_wolfe", None),
                ("ratio", "exact_monotonicity_ratio", "ratio.monotonicity", eval_delta),
                ("ratio", "exact_weak_monotonicity_ratio", "ratio.weak", eval_delta),
                ("ratio", "is_submodular", "ratio.submodular", eval_delta),
                ("bounds", "cardinality_hardness", "bounds.hardness", None),
                ("bounds", "matroid_hardness", "bounds.hardness", None),
                ("apps", "generate_quadratic_instance", "apps.quadratic", generation_key),
                ("apps", "random_feature_matrix", "apps.similarity", None),
                ("apps", "inner_product_similarity", "apps.similarity", None),
                ("apps", "random_similarity", "apps.similarity", None),
                ("experiments", "run_experiment", "experiments.sweep", None)):
            p.function(f"monoratio.{mod}", fn, self.span(name, attrs))
        # objective callbacks of Frank-Wolfe, on top of the always-on counters
        p.method("monoratio.apps", "QuadraticInstance", "value",
                 self.span("objective.quadratic"))
        p.method("monoratio.apps", "QuadraticInstance", "grad",
                 self.span("objective.quadratic"))
        for name in p.absent:
            if name not in self.absent:
                self.absent.append(name)
        return p


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest of 99.9/99/95/90/75/50 that leaves
    at least ten samples above it; the median when there are too few."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            break
    else:
        pct = 50.0
    return _percentile(ordered, pct), pct


def _percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class LayerSummary:
    """Per-layer numbers gathered over the traced jobs of one run.

    Per-job quantities (counts, busy and self times) are kept per job and
    reported as the median over jobs; per-call durations are pooled across
    jobs for their percentiles.
    """

    def __init__(self):
        self.jobs: list[dict[str, float]] = []
        self.samples: dict[str, list[float]] = {}
        self.setup_similarity_s: list[float] = []
        self.tail_ranks: dict[str, float] = {}
        self.baseline: dict[str, list[tuple[float, int]]] = {}

    def _sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def add_setup(self, spans: list) -> None:
        self.setup_similarity_s.append(sum(
            s[END] - s[START] for s in spans if s[NAME] == "apps.similarity"
            and (s[PARENT] < 0 or spans[s[PARENT]][NAME] != "apps.similarity")))

    def add_job(self, tracer: Tracer, wall: float) -> None:
        spans = tracer.spans
        job: dict[str, float] = {}

        def add(key, value):
            job[key] = job.get(key, 0.0) + value

        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        generated = set()
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = s[END] - s[START]
            self_s = dur - child[i]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            attrs = (s[ATTRS] if len(s) > ATTRS else None) or {}
            if name.startswith("oracle."):
                if not parent.startswith("oracle."):
                    add("oracle.busy_s", dur)
                if name.startswith("oracle.value."):
                    add("oracle.evals", 1)
                    self._sample(name[len("oracle.value."):] + ".eval_us", dur * 1e6)
            elif name == "constraints.lp":
                add("constraints.lp_solves", 1)
                add("constraints.lp_busy_s", dur)
                self._sample("lp_ms", dur * 1e3)
            elif name == "constraints.matroid_linmax":
                add("constraints.matroid_linmax_calls", 1)
                add("constraints.matroid_linmax_busy_s", dur)
            elif name.startswith("discrete."):
                add(f"{name}.runs", 1)
                add(f"{name}.self_s", self_s)
                add(f"{name}.evals", attrs.get("evals") or 0)
                self._sample(f"{name}.run_us", dur * 1e6)
                if attrs.get("n") == 7:
                    self.baseline.setdefault(name, []).append(
                        (dur * 1e6, attrs.get("evals") or 0))
            elif name == "continuous.mcg":
                add("continuous.mcg.runs", 1)
                add("continuous.mcg.self_s", self_s)
                add("continuous.mcg.evals", attrs.get("evals") or 0)
                self._sample("continuous.mcg.run_s", dur)
            elif name == "continuous.swap_rounding":
                self._sample("continuous.swap_rounding.run_us", dur * 1e6)
            elif name == "continuous.frank_wolfe":
                add("continuous.frank_wolfe.runs", 1)
                add("continuous.frank_wolfe.self_s", self_s)
                self._sample("continuous.frank_wolfe.run_ms", dur * 1e3)
            elif name.startswith("ratio."):
                add(f"{name}.busy_s", dur)
                add(f"{name}.self_s", self_s)
                add("ratio.evals", attrs.get("evals") or 0)
            elif name == "bounds.hardness":
                add("bounds.hardness_points", 1)
                add("bounds.busy_s", dur)
                self._sample("hardness_ms", dur * 1e3)
            elif name == "apps.quadratic":
                add("apps.quadratic_generated", 1)
                add("apps.quadratic_busy_s", dur)
                generated.add(attrs.get("key"))
            elif name == "experiments.sweep":
                add("experiments.sweeps", 1)
                add("experiments.busy_s", dur)
                add("experiments.self_s", self_s)
        evals = job.get("oracle.evals", 0.0)
        distinct = sum(len(masks) for masks in tracer.seen.values())
        job["oracle.distinct_frac"] = distinct / evals if evals else 0.0
        job["oracle.share"] = job.get("oracle.busy_s", 0.0) / wall
        made = job.get("apps.quadratic_generated", 0.0)
        job["apps.quadratic_useful_frac"] = len(generated) / made if made else 0.0
        job["constraints.is_independent_calls"] = tracer.independence_calls
        self.jobs.append(job)

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric by name; a metric with no data reads 0."""
        def per_job(key):
            vals = sorted(j.get(key, 0.0) for j in self.jobs)
            return _percentile(vals, 50.0)

        def p50(key):
            return _percentile(sorted(self.samples.get(key, [])), 50.0)

        def tail(key, metric):
            vals = self.samples.get(key, [])
            value, rank = tail_percentile(vals)
            self.tail_ranks[metric] = rank
            return value

        out: dict[str, float] = {}
        for key in ("oracle.evals", "oracle.busy_s", "oracle.share",
                    "oracle.distinct_frac"):
            out[key] = per_job(key)
        for key in ORACLE_KEYS:
            out[f"oracle.{key}.eval_us_p50"] = p50(f"{key}.eval_us")
            out[f"oracle.{key}.eval_us_tail"] = tail(f"{key}.eval_us",
                                                     f"oracle.{key}.eval_us_tail")
        out["constraints.lp_solves"] = per_job("constraints.lp_solves")
        out["constraints.lp_ms_p50"] = p50("lp_ms")
        out["constraints.lp_ms_tail"] = tail("lp_ms", "constraints.lp_ms_tail")
        for key in ("constraints.lp_busy_s", "constraints.matroid_linmax_calls",
                    "constraints.matroid_linmax_busy_s",
                    "constraints.is_independent_calls"):
            out[key] = per_job(key)
        for alg in DISCRETE_ALGS:
            name = f"discrete.{alg}"
            runs = per_job(f"{name}.runs")
            out[f"{name}.runs"] = runs
            out[f"{name}.run_us_p50"] = p50(f"{name}.run_us")
            out[f"{name}.run_us_tail"] = tail(f"{name}.run_us", f"{name}.run_us_tail")
            out[f"{name}.evals_per_run"] = per_job(f"{name}.evals") / runs if runs else 0.0
            out[f"{name}.self_s"] = per_job(f"{name}.self_s")
        runs = per_job("continuous.mcg.runs")
        out["continuous.mcg.runs"] = runs
        out["continuous.mcg.run_s_p50"] = p50("continuous.mcg.run_s")
        out["continuous.mcg.evals_per_run"] = (
            per_job("continuous.mcg.evals") / runs if runs else 0.0)
        out["continuous.mcg.self_s"] = per_job("continuous.mcg.self_s")
        out["continuous.swap_rounding.run_us_p50"] = p50("continuous.swap_rounding.run_us")
        out["continuous.frank_wolfe.runs"] = per_job("continuous.frank_wolfe.runs")
        out["continuous.frank_wolfe.run_ms_p50"] = p50("continuous.frank_wolfe.run_ms")
        out["continuous.frank_wolfe.self_s"] = per_job("continuous.frank_wolfe.self_s")
        for kind in ("monotonicity", "weak", "submodular"):
            out[f"ratio.{kind}.busy_s"] = per_job(f"ratio.{kind}.busy_s")
            out[f"ratio.{kind}.self_s"] = per_job(f"ratio.{kind}.self_s")
        out["ratio.evals"] = per_job("ratio.evals")
        out["bounds.hardness_points"] = per_job("bounds.hardness_points")
        out["bounds.hardness_ms_p50"] = p50("hardness_ms")
        out["bounds.busy_s"] = per_job("bounds.busy_s")
        for key in ("apps.quadratic_generated", "apps.quadratic_useful_frac",
                    "apps.quadratic_busy_s"):
            out[key] = per_job(key)
        out["apps.similarity_busy_s"] = _percentile(sorted(self.setup_similarity_s), 50.0)
        for key in ("experiments.sweeps", "experiments.busy_s", "experiments.self_s"):
            out[key] = per_job(key)
        out["trace.overhead_frac"] = overhead_frac
        return out

    def baseline_figures(self) -> dict[str, dict[str, float]]:
        """Median µs and mean oracle calls per run on 7-element fixtures."""
        figures = {}
        for name, runs in sorted(self.baseline.items()):
            us = sorted(r[0] for r in runs)
            figures[name] = {"runs": len(runs), "run_us_p50": _percentile(us, 50.0),
                             "evals_per_run": sum(r[1] for r in runs) / len(runs)}
        return figures

