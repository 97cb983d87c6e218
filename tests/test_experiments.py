import pytest

import monoratio.experiments as experiments
from monoratio import ExperimentSpec, run_experiment

# run_experiment output for this spec, computed when every trial and the m
# bound generated their own copy of the sweep point's instance
QUADRATIC_CSV = (
    "sweep,sweep_value,frank_wolfe_mean,frank_wolfe_stderr,m_bound,ub_prev,ub_new\n"
    "beta,0.1,2.176702796,0,0.2285714286,5.916891656,5.082459968\n"
    "beta,0.3,4.146859848,0,0.1142857143,11.27233377,10.41719314\n")


@pytest.mark.parametrize("jobs", [1, 2])
def test_quadratic_sweep_generates_each_instance_once(monkeypatch, jobs):
    made = []
    generate = experiments.generate_quadratic_instance

    def counted(*args, **kwargs):
        made.append(kwargs["seed"])
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiments, "generate_quadratic_instance", counted)
    spec = ExperimentSpec(objective="quadratic", sweep="beta", grid=[0.1, 0.3],
                          n=3, alpha=0.4, trials=2, seed=7, fw_eps=0.1, jobs=jobs)
    assert run_experiment(spec).to_csv() == QUADRATIC_CSV
    assert made == [7, 7 + 10007]
