"""monoratio: a monotonicity-ratio laboratory for submodular maximization.

The package bundles counted set-function oracles with exact continuous
extensions, cardinality/matroid constraints, the standard discrete and
continuous maximization algorithms, exact brute-force computation of the
monotonicity ratio and its weak variant, numeric evaluation of the
guarantee/inapproximability curves, and the movie/image/quadratic
application objectives with their upper-bound-on-OPT experiment harness.
"""

from .apps import (QuadraticInstance, generate_quadratic_instance, image_objective,
                   inner_product_similarity, load_features_csv, mixture_objective,
                   movie_objective, random_feature_matrix)
from .bounds import (GuaranteeCurve, cardinality_hardness, curves_csv, evaluate_curve,
                     guarantee, matroid_hardness, smallest_grid_crossing,
                     symmetry_gap_unconstrained, upper_bound_from_output)
from .constraints import (DownClosedPolytope, Matroid, OracleMatroid,
                          PartitionMatroid, UniformMatroid,
                          linear_maximize_matroid, linear_maximize_polytope,
                          matroid_polytope, partition_matroid_from_text)
from .continuous import (FWConfig, FWResult, MCGConfig, MCGResult,
                         frank_wolfe_nonmonotone, measured_continuous_greedy,
                         swap_rounding)
from .discrete import (RunResult, TraceRow, double_greedy, greedy_cardinality,
                       greedy_matroid, random_baseline, random_greedy_cardinality,
                       random_greedy_matroid, sample_greedy, threshold_greedy,
                       threshold_random_greedy, trace_to_csv)
from .experiments import ExperimentSpec, run_experiment
from .oracle import (GroundSet, SampleConfig, SetFunctionOracle, SizeLimitError,
                     ids_of, indicator, mask_of, mask_from_indicator,
                     multilinear_exact, multilinear_sampled)
from .ratio import (RatioReport, exact_monotonicity_ratio,
                    exact_weak_monotonicity_ratio, image_weak_ratio_bound,
                    is_submodular, movie_ratio_bound, quadratic_ratio_bound)

__version__ = "0.1.0"
