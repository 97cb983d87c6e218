import json

import numpy as np
import pytest

from monoratio import (RatioReport, UniformMatroid, exact_monotonicity_ratio,
                       greedy_cardinality, greedy_matroid, image_objective,
                       inner_product_similarity, load_features_csv,
                       mixture_objective, movie_objective)
from monoratio.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ratio_movie_monotone(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--objective", "movie", "--n", "8",
                           "--lambda", "0.3", "--seed", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "ratio,witness_s,witness_t,eval_count"
    assert float(row.split(",")[0]) == 1.0


def test_ratio_movie_full_penalty_certifies(capsys):
    # at lam = 1 the sums of f(N) cancel; rounding must not make f negative
    for seed in (1, 4):
        code, out, err = run_cli(capsys, "ratio", "--objective", "movie",
                                 "--n", "10", "--lambda", "1.0", "--seed", str(seed))
        assert (code, err) == (0, "")
        assert out.strip().splitlines()[1] == "0.0,1,1023,1024"


def test_ratio_synthetic_cut(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--objective", "synthetic-cut",
                           "--n", "2")
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[0]) == 0.0


def test_ratio_weak_needs_k(capsys):
    code, _, err = run_cli(capsys, "ratio", "--objective", "image", "--n", "6",
                           "--weak")
    assert code == 2
    assert "--k" in err


def test_ratio_size_limits_come_from_the_certifiers(capsys):
    code, out, err = run_cli(capsys, "ratio", "--objective", "movie", "--n", "17")
    assert code == 2 and out == ""
    assert "exact ratio DP capped at n=16, got n=17" in err
    code, out, err = run_cli(capsys, "ratio", "--objective", "image", "--n", "14",
                             "--weak", "--k", "2")
    assert code == 2 and out == ""
    assert "weak ratio scan capped at n=13, got n=14" in err


def test_bad_flag_usage_error(capsys):
    assert main(["ratio", "--objective", "movie", "--bogus"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_bounds_unconstrained_hard(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--expr", "unconstrained_hard")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,expression_id"
    assert len(lines) == 102
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.5
    assert float(last[0]) == 1.0 and float(last[1]) == 1.0


def test_bounds_cardinality_hardness_endpoint(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--expr", "cardinality_hardness",
                           "--points", "3")
    assert code == 0
    m0 = float(out.strip().splitlines()[1].split(",")[1])
    assert 0.486 <= m0 <= 0.496


def test_bounds_rgm_endpoint_and_svg(capsys, tmp_path):
    svg = tmp_path / "curves.svg"
    code, out, _ = run_cli(capsys, "bounds", "--expr", "rgm", "--expr",
                           "random_greedy_card", "--points", "5",
                           "--svg", str(svg))
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    rgm_rows = [r for r in rows if r[2] == "rgm"]
    assert float(rgm_rows[-1][0]) == 1.0
    assert float(rgm_rows[-1][1]) == 0.5
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_bounds_unknown_expression(capsys):
    assert main(["bounds", "--expr", "nope"]) == 2


@pytest.mark.parametrize("points", ["0", "-3"])
def test_bounds_rejects_fewer_than_one_point(capsys, tmp_path, points):
    out_csv = tmp_path / "c.csv"
    code, out, err = run_cli(capsys, "bounds", "--expr", "rgm", "--points",
                             points, "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert err == f"error: num_points must be >= 1, got {points}\n"
    assert not out_csv.exists()


def test_run_greedy_golden_and_determinism(capsys):
    args = ["run", "--alg", "greedy", "--objective", "synthetic-mix",
            "--n", "8", "--k", "3", "--seed", "4"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "alg,value,size,oracle_calls,seed,solution"
    cells = lines[1].split(",")
    assert cells[0] == "greedy" and int(cells[2]) <= 3
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical rerun


def test_run_trials_mean_columns(capsys):
    code, out, _ = run_cli(capsys, "run", "--alg", "random-greedy",
                           "--objective", "synthetic-mix", "--n", "8",
                           "--k", "3", "--trials", "50", "--seed", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alg,trials,mean_value,stderr,min_value,max_value"
    cells = lines[1].split(",")
    assert int(cells[1]) == 50
    assert float(cells[4]) <= float(cells[2]) <= float(cells[5])


def test_run_infeasible_k(capsys):
    code, _, err = run_cli(capsys, "run", "--alg", "greedy", "--objective",
                           "synthetic-mix", "--n", "5", "--k", "9")
    assert code == 2
    assert "exceeds" in err


def test_run_synthetic_mix_above_its_size_limit(capsys):
    code, out, err = run_cli(capsys, "run", "--alg", "greedy", "--objective",
                             "synthetic-mix", "--n", "40", "--k", "2")
    assert code == 2 and out == ""
    assert "n <= 31" in err and "got n=40" in err
    assert "out of bounds" not in err


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("objective", ["movie", "image", "synthetic-cut",
                                       "synthetic-mix"])
@pytest.mark.parametrize("command", [["run", "--alg", "greedy", "--k", "1"],
                                     ["ratio"]])
def test_a_ground_set_below_one_element_names_n(capsys, monkeypatch, command,
                                                 objective, n):
    # rejected before any feature matrix or mixture is drawn
    def unreachable(*args, **kwargs):
        raise AssertionError("drew an instance")

    monkeypatch.setattr("monoratio.cli.random_feature_matrix", unreachable)
    monkeypatch.setattr("monoratio.cli.mixture_objective", unreachable)
    code, out, err = run_cli(capsys, *command, "--objective", objective, "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: --n must be at least 1, got {n}\n"


# signed features: rows b and c have the inner product -1
SIGNED_CSV = "label,f1,f2\na,1,0\nb,0,1\nc,1,-1\n"


def test_features_csv_clamps_negative_products(capsys, tmp_path):
    items = tmp_path / "items.csv"
    items.write_text(SIGNED_CSV)
    X = load_features_csv(items)
    # the library refuses the signed products; the CLI clamps them at 0
    with pytest.raises(ValueError, match="^rows 1 and 2 have a negative"):
        inner_product_similarity(X)
    sim = np.clip(X @ X.T, 0.0, None)
    assert sim.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]

    code, out, err = run_cli(capsys, "ratio", "--objective", "movie",
                             "--features-csv", str(items), "--lambda", "0.9")
    assert (code, err) == (0, "")
    report = exact_monotonicity_ratio(movie_objective(sim, 0.9))
    assert out == f"{RatioReport.CSV_HEADER}\n{report.csv_row()}\n"

    code, out, err = run_cli(capsys, "run", "--alg", "greedy", "--objective",
                             "image", "--features-csv", str(items), "--k", "2")
    assert (code, err) == (0, "")
    r = greedy_cardinality(image_objective(sim), 2)
    ids = "|".join(map(str, r.solution_ids))
    assert out.splitlines()[1] == (f"greedy,{r.value:.10g},{r.size},"
                                   f"{r.oracle_calls},0,{ids}")


@pytest.mark.parametrize("command", [["run", "--alg", "greedy", "--k", "2"],
                                     ["ratio"]])
@pytest.mark.parametrize("objective", ["movie", "image"])
def test_features_csv_refuses_n(capsys, tmp_path, command, objective):
    # n is the CSV's row count, so a given --n would go unread
    items = tmp_path / "items.csv"
    items.write_text(SIGNED_CSV)
    code, out, err = run_cli(capsys, *command, "--objective", objective,
                             "--features-csv", str(items), "--n", "50")
    assert (code, out) == (2, "")
    assert err == "error: give --n or --features-csv, not both\n"


def test_n_defaults_to_8_for_ratio_and_20_for_run(capsys):
    code, out, err = run_cli(capsys, "ratio", "--objective", "synthetic-cut")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",256")  # 2^8 evaluations
    base = ["run", "--alg", "greedy", "--objective", "synthetic-mix", "--k", "3"]
    assert run_cli(capsys, *base) == run_cli(capsys, *base, "--n", "20")


def test_run_greedy_matroid_on_a_uniform_matroid(capsys):
    # --k 2 and --matroid uniform:2 name the same matroid
    f = mixture_objective(8, 0)
    r = greedy_matroid(f, UniformMatroid(8, 2))
    ids = "|".join(map(str, r.solution_ids))
    expected = ("alg,value,size,oracle_calls,seed,solution\n"
                f"greedy-matroid,{r.value:.10g},{r.size},{r.oracle_calls},0,{ids}\n")
    for flags in (["--k", "2"], ["--matroid", "uniform:2"]):
        code, out, err = run_cli(capsys, "run", "--alg", "greedy-matroid",
                                 "--objective", "synthetic-mix", "--n", "8", *flags)
        assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("matroid,named", [("bogus:2", "'bogus:2'"),
                                           ("uniform:two", "'two'"),
                                           ("uniform:-1", "'-1'"),
                                           ("uniform:99", "'99'")])
def test_run_rejects_a_malformed_matroid(capsys, matroid, named):
    code, out, err = run_cli(capsys, "run", "--alg", "greedy-matroid",
                             "--objective", "synthetic-mix", "--n", "8",
                             "--matroid", matroid)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    # the flag, the text given and the accepted forms
    assert f"--matroid {matroid!r}" in err
    assert "uniform:K with 0 <= K <= n" in err and "partition:FILE" in err


@pytest.mark.parametrize("command", [["run", "--alg", "greedy", "--n", "6", "--k", "2"],
                                     ["ratio"]])
@pytest.mark.parametrize("objective", ["synthetic-cut", "synthetic-mix"])
def test_synthetic_objectives_reject_features_csv(capsys, tmp_path, command, objective):
    # the synthetic objectives draw no features, so the file would go unread
    items = tmp_path / "items.csv"
    items.write_text(SIGNED_CSV)
    code, out, err = run_cli(capsys, *command, "--objective", objective,
                             "--features-csv", str(items))
    assert (code, out) == (2, "")
    assert err == f"error: --objective {objective} does not take --features-csv\n"


def test_run_names_the_element_two_partition_blocks_share(capsys, tmp_path):
    spec = tmp_path / "overlap.txt"
    spec.write_text("block: 0,1,2 capacity=1\nblock: 2,3 capacity=1\n")
    code, out, err = run_cli(capsys, "run", "--alg", "greedy-matroid",
                             "--objective", "synthetic-mix", "--n", "4",
                             "--matroid", f"partition:{spec}")
    assert (code, out) == (2, "")
    assert err == "error: blocks 0 and 1 both hold element 2\n"


def test_run_matroid_algorithms(capsys, tmp_path):
    spec = tmp_path / "matroid.txt"
    spec.write_text("block: 0,1,2,3 capacity=1\nblock: 4,5,6,7 capacity=2\n")
    code, out, _ = run_cli(capsys, "run", "--alg", "random-greedy-matroid",
                           "--objective", "synthetic-mix", "--n", "8",
                           "--matroid", f"partition:{spec}", "--seed", "3")
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "random-greedy-matroid"


# `run` output (value,size,oracle_calls,seed,solution) of every algorithm on
# seeded n=12 instances, computed at the parent commit of the algorithm table;
# the image/greedy count is that of greedy stopping at its first negative
# marginal
RUN_GOLDEN = {
    ("movie", "greedy"): "253.0502968,4,43,3,2|4|7|11",
    ("movie", "random-greedy"): "253.0502968,4,43,3,2|4|7|11",
    ("movie", "threshold-greedy"): "251.0780155,4,43,3,1|2|4|7",
    ("movie", "sample-greedy"): "252.4578471,4,29,3,2|4|7|9",
    ("movie", "threshold-random-greedy"): "253.0502968,4,43,3,2|4|7|11",
    ("movie", "double-greedy"): "319.9382859,8,24,3,0|1|3|4|5|6|7|9",
    ("movie", "greedy-matroid"): "253.0502968,4,34,3,2|4|7|11",
    ("movie", "random-greedy-matroid"): "253.0502968,4,58,3,2|4|7|11",
    ("movie", "random"): "241.7235199,4,1,3,3|4|7|8",
    ("image", "greedy"): "26.83983395,2,34,3,7|11",
    ("image", "random-greedy"): "26.83983395,2,24,3,7|11",
    ("image", "threshold-greedy"): "26.78094841,1,24,3,11",
    ("image", "sample-greedy"): "26.14420268,2,23,3,2|11",
    ("image", "threshold-random-greedy"): "26.83983395,2,24,3,7|11",
    ("image", "double-greedy"): "24.08145692,5,24,3,0|1|4|7|11",
    ("image", "greedy-matroid"): "26.83983395,2,28,3,7|11",
    ("image", "random-greedy-matroid"): "26.78094841,1,53,3,11",
    ("image", "random"): "22.04780134,4,1,3,3|4|7|8",
}
CARDINALITY_ALGS = {"greedy", "random-greedy", "threshold-greedy",
                    "sample-greedy", "threshold-random-greedy"}


@pytest.mark.parametrize("objective,alg", sorted(RUN_GOLDEN))
def test_run_golden_outputs(capsys, tmp_path, objective, alg):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("block: 0,1,2,3 capacity=1\nblock: 4,5,6,7 capacity=2\n"
                      "block: 8,9,10,11 capacity=1\n")
    args = ["run", "--alg", alg, "--objective", objective, "--n", "12",
            "--seed", "3"]
    if alg in CARDINALITY_ALGS:
        args += ["--k", "4"]
    elif alg != "double-greedy":
        args += ["--matroid", f"partition:{blocks}"]
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert out == ("alg,value,size,oracle_calls,seed,solution\n"
                   f"{alg},{RUN_GOLDEN[objective, alg]}\n")
    # the underscored spelling runs the same algorithm and is echoed as typed
    under = alg.replace("-", "_")
    code, out, _ = run_cli(capsys, *[under if a == alg else a for a in args])
    assert code == 0
    assert out.splitlines()[1] == f"{under},{RUN_GOLDEN[objective, alg]}"


def test_run_trials_golden(capsys):
    # a seedless algorithm runs once and fills its trials; stderr is that of
    # five equal floats, as when every trial ran
    code, out, _ = run_cli(capsys, "run", "--alg", "threshold-greedy",
                           "--objective", "image", "--n", "12", "--k", "4",
                           "--seed", "3", "--trials", "5")
    assert code == 0
    assert out.splitlines()[1] == ("threshold-greedy,5,26.78094841,"
                                   "1.776356839e-15,26.78094841,26.78094841")
    code, out, _ = run_cli(capsys, "run", "--alg", "random-greedy",
                           "--objective", "movie", "--n", "12", "--k", "4",
                           "--seed", "3", "--trials", "5")
    assert code == 0
    assert out.splitlines()[1] == ("random-greedy,5,251.4183404,0.536767903,"
                                   "249.9475349,253.0502968")


@pytest.mark.parametrize("alg,flags,named", [
    ("double-greedy", ["--k", "2"], "--k"),
    ("double-greedy", ["--matroid", "uniform:2"], "--matroid"),
    ("greedy", ["--k", "5", "--matroid", "uniform:1"], "--matroid"),
    ("greedy", ["--k", "5", "--eps", "0.2"], "--eps"),
    ("greedy-matroid", ["--k", "2", "--matroid", "uniform:3"], "--k"),
    ("random", ["--k", "2", "--matroid", "uniform:3"], "--k"),
])
def test_run_rejects_ignored_flags(capsys, alg, flags, named):
    code, out, err = run_cli(capsys, "run", "--alg", alg, "--objective",
                             "synthetic-mix", "--n", "10", *flags)
    assert code == 2 and out == ""
    assert named in err


def test_run_rejects_partition_flag_with_cardinality_alg(capsys, tmp_path):
    # greedy ignored the partition and broke block 0's capacity of 1
    spec = tmp_path / "blocks.txt"
    spec.write_text("".join(f"block: {2 * j},{2 * j + 1} capacity=1\n"
                            for j in range(5)))
    code, out, err = run_cli(capsys, "run", "--alg", "greedy", "--objective",
                             "movie", "--n", "10", "--k", "5",
                             "--matroid", f"partition:{spec}")
    assert code == 2 and out == ""
    assert "--matroid" in err


@pytest.mark.parametrize("alg,flags,message", [
    ("greedy", [], "needs --k"),
    ("random-greedy-matroid", [], "needs --k or --matroid"),
    ("random", [], "needs --k or --matroid"),
    ("mcg-rounding", ["--matroid", "uniform:2"], "only in experiment"),
    ("frank_wolfe", [], "only in experiment"),
    ("bogus", ["--k", "2"], "unknown algorithm 'bogus'"),
    ("greedy", ["--k", "2", "--trials", "0"], "--trials must be >= 1"),
])
def test_run_rejects_bad_flags_and_unknown_algorithms(capsys, alg, flags,
                                                      message):
    code, out, err = run_cli(capsys, "run", "--alg", alg, "--objective",
                             "synthetic-mix", "--n", "6", *flags)
    assert code == 2 and out == ""
    assert message in err


def test_experiment_validation_lists_all_errors(capsys):
    code, _, err = run_cli(capsys, "experiment", "--objective", "movie",
                           "--sweep", "alpha", "--grid", "0.5",
                           "--trials", "0")
    assert code == 2
    assert "sweep" in err and "trials" in err  # both problems reported


def test_experiment_movie_small(capsys, tmp_path):
    out_csv = tmp_path / "movie.csv"
    svg = tmp_path / "movie.svg"
    args = ["experiment", "--objective", "movie", "--sweep", "lambda",
            "--grid", "0.55,0.75", "--n", "12", "--k", "3", "--trials", "3",
            "--seed", "1", "--out", str(out_csv), "--svg", str(svg)]
    assert main(args) == 0
    text = out_csv.read_text()
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["sweep", "sweep_value"]
    assert "ub_prev" in header and "ub_new" in header and "m_bound" in header
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["ub_new"]) <= float(row["ub_prev"]) + 1e-9
    assert svg.read_text().startswith("<svg")
    # reruns are byte-identical
    out2 = tmp_path / "movie2.csv"
    main(["experiment", "--objective", "movie", "--sweep", "lambda",
          "--grid", "0.55,0.75", "--n", "12", "--k", "3", "--trials", "3",
          "--seed", "1", "--out", str(out2)])
    assert out2.read_text() == text


def test_experiment_spec_file(capsys, tmp_path):
    payload = {"objective": "quadratic", "sweep": "beta", "grid": [0.1, 0.3],
               "n": 3, "trials": 1, "seed": 2, "fw_eps": 0.1}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "experiment", "--spec", str(spec))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert float(row["ub_new"]) <= float(row["ub_prev"]) + 1e-9

    spec.write_text(json.dumps({"objective": "quadratic", "bogus": 1}))
    assert main(["experiment", "--spec", str(spec)]) == 2


def test_experiment_spec_rejects_spec_fields_given_as_flags(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"objective": "quadratic", "sweep": "beta",
                                "grid": [0.1], "n": 3, "trials": 1, "fw_eps": 0.1}))
    code, out, err = run_cli(capsys, "experiment", "--spec", str(spec),
                             "--trials", "3", "--seed", "5", "--lambda", "0.5")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --spec takes no spec fields as flags; "
                                "put them in the spec file: lam, seed, trials"]
    # --out and --svg name output files, not spec fields
    out_csv, out_svg = tmp_path / "out.csv", tmp_path / "out.svg"
    code, out, _ = run_cli(capsys, "experiment", "--spec", str(spec),
                           "--out", str(out_csv), "--svg", str(out_svg))
    assert (code, out) == (0, "")
    assert out_csv.read_text().startswith("sweep,sweep_value,frank_wolfe_mean,")
    assert out_svg.read_text().startswith("<svg")


def test_experiment_spec_file_with_bad_types_reports_each_field(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    good = {"objective": "image", "sweep": "k", "grid": [1], "n": 6}
    for bad, field in (({"n": "12"}, "n"), ({"grid": 0.6}, "grid"),
                       ({"grid": []}, "grid"), ({"grid": [1, "2"]}, "grid"),
                       ({"grid": [1, True]}, "grid"), ({"trials": True}, "trials"),
                       ({"k": 2.5}, "k"), ({"eps": "0.1"}, "eps"),
                       ({"lam": None}, "lam"), ({"algorithms": "random"}, "algorithms"),
                       ({"algorithms": ["random", 3]}, "algorithms"),
                       ({"categories": 0}, "categories")):
        spec.write_text(json.dumps({**good, **bad}))
        code, out, err = run_cli(capsys, "experiment", "--spec", str(spec))
        assert (code, out) == (2, ""), bad
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert field in lines[0], err
    # every badly typed field is reported, one line each; range problems
    # are reported once every field has its declared type
    for bad, fields in (({"n": "12", "grid": 0.6, "alpha": [], "algorithms": None},
                         ["grid", "n", "alpha", "algorithms"]),
                        ({"categories": 0, "trials": 0}, ["trials", "categories"])):
        spec.write_text(json.dumps({**good, **bad}))
        code, _, err = run_cli(capsys, "experiment", "--spec", str(spec))
        assert code == 2
        assert [line.split()[1] for line in err.splitlines()] == fields
    for payload, message in (([1], "JSON object"), ({"objective": "movie"},
                                                    "a --spec with all three")):
        spec.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "experiment", "--spec", str(spec))
        assert code == 2 and message in err


def test_experiment_svg_without_a_finite_bound_has_no_nan(capsys, tmp_path):
    # `random` carries no guarantee, so every ub_new and ub_prev is infinite
    for algs in (["random"], ["random", "threshold_random_greedy"]):
        svg = tmp_path / "band.svg"
        args = ["experiment", "--objective", "movie", "--sweep", "lambda",
                "--grid", "0.6,0.9", "--n", "12", "--k", "3", "--trials", "2",
                "--svg", str(svg)]
        for alg in algs:
            args += ["--alg", alg]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and ("inf" in out) == (len(algs) == 1)
        text = svg.read_text().lower()
        assert text.startswith("<svg")
        assert "nan" not in text and "inf" not in text
        assert ("<polygon" in text) == (len(algs) == 2)


def test_experiment_image_matroid_small(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--objective", "image",
                           "--sweep", "k", "--grid", "1,2", "--n", "9",
                           "--categories", "3", "--trials", "2", "--seed", "0")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    assert "random_greedy_matroid_mean" in header
    assert "mcg_rounding_mean" in header


def test_experiment_rejects_algorithms_under_the_wrong_constraint(capsys):
    code, out, err = run_cli(capsys, "experiment", "--objective", "quadratic",
                             "--sweep", "beta", "--grid", "0.1", "--n", "3",
                             "--alg", "greedy", "--alg", "random")
    assert code == 2 and out == ""
    assert ("'greedy' (cardinality constraint) does not fit the polytope "
            "constraint of quadratic sweeps") in err
    assert "'random' (any constraint)" in err
    code, out, err = run_cli(capsys, "experiment", "--objective", "image",
                             "--sweep", "k", "--grid", "1", "--n", "9",
                             "--alg", "greedy")
    assert code == 2 and "'greedy'" in err and "matroid" in err
    code, out, err = run_cli(capsys, "experiment", "--objective", "movie",
                             "--sweep", "k", "--grid", "2", "--n", "9",
                             "--alg", "greedy-matroid", "--alg", "double-greedy")
    assert code == 2 and out == ""
    assert "'greedy_matroid'" in err and "'double_greedy'" in err


def test_experiment_rejects_fractional_and_zero_k_grid_values(capsys):
    code, out, err = run_cli(capsys, "experiment", "--objective", "movie",
                             "--sweep", "k", "--grid", "2.5,0", "--n", "10",
                             "--trials", "1", "--alg", "greedy")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: k sweep grid values must be positive integers, got [2.5, 0.0]"]


def test_experiment_checks_every_swept_value_and_reads_no_swept_spec_value(capsys):
    code, out, err = run_cli(capsys, "experiment", "--objective", "quadratic",
                             "--sweep", "beta", "--grid", "0.1,0.7", "--n", "3")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: beta must be in (0,0.5)"]
    # a lambda sweep never reads --lambda
    code, out, err = run_cli(capsys, "experiment", "--objective", "movie",
                             "--sweep", "lambda", "--lambda", "2", "--grid", "0.6",
                             "--n", "8", "--k", "2", "--trials", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("lambda,0.6,")


def test_quadratic_sweeps_run_above_n_16_and_at_the_default_n(capsys):
    for flags, points in ((["--sweep", "n", "--grid", "3,17"], [["n", "3"], ["n", "17"]]),
                          # a beta sweep at the spec default n = 50
                          (["--sweep", "beta", "--grid", "0.1"], [["beta", "0.1"]])):
        code, out, err = run_cli(capsys, "experiment", "--objective", "quadratic",
                                 *flags, "--trials", "1")
        assert (code, err) == (0, "")
        assert [line.split(",")[:2] for line in out.splitlines()[1:]] == points


def test_sample_greedy_sweeps_at_k_zero(capsys):
    code, out, err = run_cli(capsys, "experiment", "--objective", "movie",
                             "--sweep", "lambda", "--grid", "0.6,0.7", "--n", "8",
                             "--k", "0", "--trials", "1", "--alg", "greedy",
                             "--alg", "sample-greedy")
    assert (code, err) == (0, "")
    assert [line.split(",")[:6] for line in out.splitlines()[1:]] == [
        ["lambda", v, "0", "0", "0", "0"] for v in ("0.6", "0.7")]


def test_experiment_accepts_both_spellings(capsys):
    base = ["experiment", "--objective", "movie", "--sweep", "lambda",
            "--grid", "0.6", "--n", "10", "--k", "3", "--trials", "2"]
    code, hyphen, _ = run_cli(capsys, *base, "--alg", "threshold-random-greedy")
    assert code == 0
    code, under, _ = run_cli(capsys, *base, "--alg", "threshold_random_greedy")
    assert code == 0 and hyphen == under
    assert hyphen.startswith("sweep,sweep_value,threshold_random_greedy_mean,")


@pytest.mark.parametrize("argv, message", [
    (["experiment", "--objective", "movie", "--sweep", "lambda", "--grid", "0.5,x",
      "--n", "8", "--k", "2", "--trials", "1"],
     "--grid must be comma-separated numbers, got '0.5,x'"),
    (["ratio", "--objective", "image", "--n", "10", "--weak", "--k", "-1"],
     "--k must be >= 0, got -1"),
    (["ratio", "--objective", "movie", "--n", "6", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["run", "--alg", "greedy", "--objective", "movie", "--n", "6", "--k", "2",
      "--seed", "-1"], "--seed must be >= 0, got -1"),
    # checked with the spec, before the first point runs
    (["experiment", "--objective", "quadratic", "--sweep", "beta", "--grid", "0.1,0.2",
      "--n", "3", "--trials", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["run", "--alg", "greedy-matroid", "--objective", "movie", "--n", "8", "--k", "-1"],
     "need 0 <= k <= n (k=-1, n=8)"),
    # checked before the objective or the algorithm is built
    (["ratio", "--objective", "movie", "--n", "6", "--k", "3"], "--k requires --weak"),
    (["run", "--alg", "threshold-greedy", "--objective", "movie", "--n", "8", "--k", "2",
      "--eps", "2"], "--eps must be in (0,1), got 2.0"),
    (["ratio", "--objective", "movie", "--n", "6", "--lambda", "2"],
     "--lambda must be in [0,1], got 2.0"),
    (["run", "--alg", "greedy", "--objective", "movie", "--n", "6", "--k", "2",
      "--lambda", "-1"], "--lambda must be in [0,1], got -1.0"),
])
def test_refused_inputs_name_their_value(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]
