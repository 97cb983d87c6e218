"""Reproduce the guarantee and inapproximability curves as CSV + SVG.

Three charts, one per constraint regime:
  unconstrained  - max{m,(2+m)/4} vs the 1/(2-m) hardness ceiling
  cardinality    - greedy and random greedy vs the numeric min-max hardness
  matroid        - greedy, measured continuous greedy, random greedy for
                   matroids vs the matroid hardness curve and 1 - 1/e
The band between an algorithm curve and its ceiling is where the optimal
approximation ratio lives.
"""

import math
import pathlib

from monoratio import curves_csv, evaluate_curve
from monoratio._svg import line_chart

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

CHARTS = {
    "unconstrained": ["unconstrained_alg", "unconstrained_hard"],
    "cardinality": ["greedy_card", "random_greedy_card", "cardinality_hardness"],
    "matroid": ["greedy_matroid", "mcg", "rgm", "matroid_hardness"],
}

for chart, exprs in CHARTS.items():
    curves = [evaluate_curve(e, num_points=41) for e in exprs]
    csv_path = OUT / f"curves_{chart}.csv"
    csv_path.write_text(curves_csv(curves))
    series = [(c.expression_id, [m for m, _ in c.points], [v for _, v in c.points])
              for c in curves]
    if chart == "matroid":  # the inherited monotone ceiling
        ms = [m for m, _ in curves[0].points]
        series.append(("1 - 1/e", ms, [1 - math.exp(-1)] * len(ms)))
    svg_path = OUT / f"curves_{chart}.svg"
    svg_path.write_text(line_chart(series, title=f"{chart} guarantees vs m",
                                   xlabel="monotonicity ratio m",
                                   ylabel="approximation ratio"))
    print(f"wrote {csv_path.name} and {svg_path.name}")

print(f"\noutputs in {OUT}")
