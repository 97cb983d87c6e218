import json

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
    assert lines[0] == "m,value,expression_id,resolution"
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


def test_run_matroid_algorithms(capsys, tmp_path):
    spec = tmp_path / "matroid.txt"
    spec.write_text("block: 0,1,2,3 capacity=1\nblock: 4,5,6,7 capacity=2\n")
    code, out, _ = run_cli(capsys, "run", "--alg", "random-greedy-matroid",
                           "--objective", "synthetic-mix", "--n", "8",
                           "--matroid", f"partition:{spec}", "--seed", "3")
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "random-greedy-matroid"


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


def test_experiment_image_matroid_small(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--objective", "image",
                           "--sweep", "k", "--grid", "1,2", "--n", "9",
                           "--categories", "3", "--trials", "2", "--seed", "0")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    assert "random_greedy_matroid_mean" in header
    assert "mcg_rounding_mean" in header


def test_experiment_jobs_parallel_deterministic(capsys, tmp_path):
    base = ["experiment", "--objective", "movie", "--sweep", "lambda",
            "--grid", "0.6,0.8", "--n", "10", "--k", "3", "--trials", "4",
            "--seed", "5"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "3", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
