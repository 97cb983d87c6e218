"""DR-submodular box quadratics and non-monotone Frank-Wolfe.

Draws random instances F(x) = x'Hx/2 + h'x + c with H <= 0 over a packing
polytope, sweeps beta (which controls how non-monotone F is), and maximizes
with the Frank-Wolfe ascent. The instance-specific monotonicity-ratio bound
(1-2b)a/(1+a) tightens the upper bound on the optimum. A generated
instance's box minimum is always negative (see
`generate_quadratic_instance`), so the larger (1-2b) bound for a
non-negative minimum never applies, and the m bound in the CSV falls
linearly in beta, with no jump.
"""

import pathlib

import numpy as np

from monoratio import (FWConfig, frank_wolfe_nonmonotone,
                       generate_quadratic_instance, quadratic_ratio_bound)
from monoratio.experiments import ExperimentSpec, run_experiment

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# one instance up close
inst = generate_quadratic_instance(4, beta=0.2, alpha=0.3, seed=0)
res = frank_wolfe_nonmonotone(inst.grad, inst.value, inst.polytope(),
                              FWConfig(eps=0.01, L=inst.L, D=inst.D))
print(f"single instance: F(y) = {res.value:.4f} at y = {np.round(res.y, 3)}")
print(f"  box minimum M = {inst.M:.4f} -> ratio bound "
      f"{quadratic_ratio_bound(0.3, 0.2, inst.M >= 0):.4f}, "
      f"additive FW loss term {res.additive_loss_bound:.2e}\n")

# the beta sweep from the band experiments (alpha fixed at 0.5)
spec = ExperimentSpec(objective="quadratic", sweep="beta",
                      grid=[0.05, 0.15, 0.25, 0.35, 0.45],
                      n=4, alpha=0.5, trials=1, seed=3, fw_eps=0.01)
result = run_experiment(spec)
(OUT / "quadratic_beta.csv").write_text(result.to_csv())
(OUT / "quadratic_beta.svg").write_text(result.to_svg())

print(f"{'beta':>6s} {'FW value':>9s} {'m bound':>8s} {'ub_prev':>9s} {'ub_new':>9s}")
for row in result.rows:
    print(f"{row['sweep_value']:6.2f} {row['frank_wolfe_mean']:9.3f} "
          f"{row['m_bound']:8.3f} {row['ub_prev']:9.3f} {row['ub_new']:9.3f}")
print(f"\nwrote quadratic_beta.csv / quadratic_beta.svg in {OUT}")
