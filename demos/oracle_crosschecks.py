# Three independent routes to the same numbers.
#
# 1. The production solver: coefficient sequences in extended precision,
#    a small difference system for the seed values, then the row read off
#    the sequences with those values as weights.
# 2. A banded float64 boundary oracle: pin phi(u) = 1 far out where
#    survival is near certain, solve the full linear system in one shot.
# 3. Monte Carlo: simulate the surplus path directly.
#
# They share no code path beyond the model object, so agreement is
# evidence, not tautology.

import numpy as np

from ruinwalk import (
    ModelSpec,
    boundary_oracle,
    make_displaced_poisson,
    mc_estimate,
    residuals,
    survival_finite,
    survival_ultimate,
)

model = ModelSpec(
    x=make_displaced_poisson(1.0, 1),
    y=make_displaced_poisson(0.9, 1),
)

u_max = 20
result = survival_ultimate(model, u_max=u_max)
oracle = boundary_oracle(model, u_max=u_max)

gap = np.abs(result.phi - oracle)
print("solver vs boundary oracle")
print(f"  max gap over u <= {u_max}: {gap.max():.2e} at u = {int(gap.argmax())}")

res = residuals(model, result.phi)
print("recurrence residuals on the solver output")
print(f"  worst balance violation: {res.master:.2e}")
print(f"  capital-constraint violation: {res.constraint:.2e}")

# Monte Carlo cannot see infinite horizons, but for moderate capital the
# finite-horizon value at large T is already within simulation noise of
# the limit.
grid = survival_finite(model, u_max=4, t_max=200)
print()
print("Monte Carlo vs finite-horizon recursion at T = 200")
for u in range(5):
    est = mc_estimate(model, u=u, t=200, trials=200000, seed=2024 + u)
    truth = grid.value(u, 200)
    sigmas = abs(est.estimate - truth) / est.stderr if est.stderr else 0.0
    print(
        f"  u = {u}: mc {est.estimate:.5f} +- {est.stderr:.5f}, "
        f"recursion {truth:.5f}, off by {sigmas:.2f} stderr"
    )
