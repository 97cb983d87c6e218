"""Input checks that no other test, demo or command reaches: each call below
must stop at its own check, with that check's message."""

import re

import numpy as np
import pytest

from helpers import modular_oracle
from monoratio import (DownClosedPolytope, MCGConfig, OracleMatroid, PartitionMatroid,
                       UniformMatroid, exact_weak_monotonicity_ratio, is_submodular,
                       load_features_csv, matroid_polytope, measured_continuous_greedy,
                       multilinear_exact, partition_matroid_from_text, random_baseline,
                       random_greedy_cardinality, random_greedy_matroid, swap_rounding,
                       threshold_greedy)
from monoratio._svg import line_chart
from monoratio.cli import main

F4 = modular_oracle([1.0, 2.0, 3.0, 4.0])
FREE = OracleMatroid(4, lambda mask: True)  # a matroid of neither compact kind


def _features(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_text(text)
    return load_features_csv(path)


CHECKS = [
    (lambda tmp: _features(tmp, ""), "features.csv: empty file"),
    (lambda tmp: _features(tmp, "label,f1\na,1\nb,inf\n"), "non-finite feature values"),
    (lambda tmp: PartitionMatroid(4, [[0, 1], [2, 3]], [1]), "one capacity per block"),
    (lambda tmp: PartitionMatroid(4, [[0, 1], 2], [1, 1]),
     "block 1 is not an iterable of element ids"),
    (lambda tmp: partition_matroid_from_text("blocks: 0,1,2,3 capacity=1", n=4),
     "expected 'block:'"),
    (lambda tmp: DownClosedPolytope([[1.0, 1.0]], [1.0, 1.0], [1.0, 1.0]),
     "A must be (len(b), len(u))"),
    (lambda tmp: matroid_polytope(FREE),
     "matroid_polytope supports uniform and partition matroids"),
    (lambda tmp: measured_continuous_greedy(F4, 2, MCGConfig(steps=2, samples=2)),
     "unsupported constraint 2"),
    (lambda tmp: swap_rounding(np.full(4, 0.5), FREE, seed=0),
     "swap rounding supports uniform and partition matroids"),
    (lambda tmp: random_greedy_cardinality(F4, -1, seed=0), "need 0 <= k <= n (k=-1, n=4)"),
    (lambda tmp: threshold_greedy(F4, 5, 0.1), "need 0 <= k <= n (k=5, n=4)"),
    (lambda tmp: random_greedy_matroid(F4, UniformMatroid(4, 2), 1.5, seed=0),
     "eps must be in (0,1)"),
    (lambda tmp: random_baseline(F4, "k=2", seed=0), "unsupported constraint 'k=2'"),
    (lambda tmp: multilinear_exact(F4, [0.5, 0.5]), "x must have shape (4,)"),
    (lambda tmp: multilinear_exact(F4, [0.5, 0.5, 0.5, 1.5]),
     "coordinates must lie in [0,1]"),
    (lambda tmp: exact_weak_monotonicity_ratio(F4, lambda m: False),
     "feasible family is empty"),
    (lambda tmp: is_submodular(modular_oracle([1.0] * 13)),
     "submodularity check capped at n=12, got n=13"),
    (lambda tmp: line_chart([]), "nothing to plot"),
]


@pytest.mark.parametrize("call, message", CHECKS, ids=[m for _, m in CHECKS])
def test_each_input_check_refuses_its_input(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)


# command-line range checks: each names its flag and the value it got
CLI_CHECKS = [
    (["run", "--alg", "greedy", "--objective", "movie", "--n", "6", "--k", "2",
      "--trials", "0"], "--trials must be >= 1, got 0"),
    (["bounds", "--expr", "mcg", "--points", "0"], "--points must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", CLI_CHECKS, ids=[m for _, m in CLI_CHECKS])
def test_each_cli_range_check_names_its_flag_and_value(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
