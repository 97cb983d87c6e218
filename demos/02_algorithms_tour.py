"""A tour of the maximization algorithms on one synthetic instance.

Draws a coverage + cut mixture with `mixture_objective` (non-negative,
submodular, partially monotone), brute-forces the optimum at this desk
scale, and lets every algorithm have a go. The closing table compares each
value against the algorithm's proven fraction of OPT given the function's
exact monotonicity ratio.
"""

from monoratio import (PartitionMatroid, double_greedy, exact_monotonicity_ratio,
                       greedy_cardinality, greedy_matroid, guarantee,
                       mixture_objective, random_baseline, random_greedy_cardinality,
                       random_greedy_matroid, sample_greedy, threshold_greedy,
                       threshold_random_greedy)

n, k = 8, 3
f = mixture_objective(n, 7)
m = exact_monotonicity_ratio(f).ratio
table = [f.value(mask) for mask in range(1 << n)]  # every set, for the optima
M = PartitionMatroid(n, [[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1])
opt_all = max(table)
opt_card = max(v for mask, v in enumerate(table) if mask.bit_count() <= k)
opt_mat = max(v for mask, v in enumerate(table) if M.is_independent(mask))

print(f"mixture instance: n={n}, exact m = {m:.3f}")
print(f"brute-force OPT: unconstrained {opt_all:.3f}, |S|<={k} {opt_card:.3f}, "
      f"matroid {opt_mat:.3f}\n")

runs = [
    ("double greedy", double_greedy(f, seed=1).value, opt_all,
     guarantee("unconstrained_alg", m)),
    ("greedy (cardinality)", greedy_cardinality(f, k).value, opt_card,
     guarantee("greedy_card", m)),
    ("random greedy", random_greedy_cardinality(f, k, seed=1).value, opt_card,
     guarantee("random_greedy_card", m)),
    ("threshold greedy", threshold_greedy(f, k, eps=0.1).value, opt_card,
     guarantee("greedy_card", m)),
    ("sample greedy", sample_greedy(f, k, eps=0.1, seed=1).value, opt_card,
     guarantee("greedy_card", m)),
    ("threshold random greedy", threshold_random_greedy(f, k, 0.1, seed=1).value,
     opt_card, guarantee("random_greedy_card", m)),
    ("greedy (matroid)", greedy_matroid(f, M).value, opt_mat,
     guarantee("greedy_matroid", m)),
    ("random greedy matroid", random_greedy_matroid(f, M, 0.1, seed=1).value,
     opt_mat, guarantee("rgm", m)),
    ("random baseline", random_baseline(f, M, seed=1).value, opt_mat, None),
]

print(f"{'algorithm':26s} {'value':>8s} {'frac of OPT':>12s} {'guarantee(m)':>13s}")
for name, v, opt, g in runs:
    gtxt = f"{g:12.3f}" if g is not None else "          --"
    print(f"{name:26s} {v:8.3f} {v / opt:12.3f} {gtxt}")
print("\n(single seeds shown; the randomized guarantees hold in expectation)")
