"""Simulate joint paths and verify the factor's stationary law.

The moving-average scheme discretizes ``Z`` by exact kernel cell masses on
an oversampled sub-grid, repairs the singular first cell, and compensates
the truncated history with an independent tail term, so the simulated
factor is stationary *from the first grid point*.  A modest path budget is
enough to see the variance, the slow autocorrelation decay, and a Monte
Carlo price agreeing with the corrected price.
"""

import math
from dataclasses import replace

import numpy as np

from roughvol import (
    BoundedSigmoid,
    Call,
    CovarianceEval,
    ModelParams,
    SimGrid,
    concat_bundles,
    corrected_price,
    exact_gaussian_check,
    group_params,
    sigma_ou,
    simulate_paths,
)
from roughvol.experiments import mc_price

mp = ModelParams(hurst=0.3, eps=0.05, rho=-0.5,
                 vol_fn=BoundedSigmoid(0.05, 0.45, 2.5),
                 x0=1.0, maturity_T=0.5)
grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
print(f"grid: {grid.n_steps} steps, dt = {grid.dt:.5f}, "
      f"warmup horizon = {grid.warmup_horizon} years")

n_paths = 20_000
bundle = concat_bundles(simulate_paths(mp, grid, n_paths, seed=7))
print(f"simulated {n_paths} paths; Z/sigma/X shapes: "
      f"{bundle.Z.shape}, {bundle.sigma.shape}, {bundle.X.shape}")
print()

# -- stationary law of the factor ----------------------------------------------------
so2 = sigma_ou(mp.hurst) ** 2
ce = CovarianceEval(mp.hurst)
var_hat = float(np.mean(bundle.Z[:, 0] ** 2))
se = float(np.std(bundle.Z[:, 0] ** 2, ddof=1)) / math.sqrt(n_paths)
print(f"Var(Z):      sample {var_hat:.5f} +- {se:.5f}, exact {so2:.5f}")
for lag_cols, lag_fast in ((8, 1.0), (40, 5.0)):
    prod = bundle.Z[:, 0] * bundle.Z[:, lag_cols] / so2
    se = float(np.std(prod, ddof=1)) / math.sqrt(n_paths)
    print(f"corr lag {lag_fast:.0f}eps: sample {float(np.mean(prod)):.5f} "
          f"+- {se:.5f}, exact {ce.cov_CZ(lag_fast):.5f}")

# the scheme's whole Gaussian law can be compared with the exact one in
# closed form on a small grid (no sampling noise at all):
small = replace(mp, maturity_T=0.25)
rep = exact_gaussian_check(small, SimGrid.for_model(small, 8, 30.0))
print(f"max |corr(scheme) - corr(exact)| = {rep.max_abs_corr_diff:.2e}")
print(f"max |Var_scheme(Z) / Var_exact(Z) - 1| = {rep.max_rel_var_diff:.2e}")
print()

# -- Monte Carlo price vs corrected price ----------------------------------------------
gp = group_params(mp)
payoff = Call(1.0)
res = corrected_price(mp, gp, payoff, t=0.0)
est = mc_price(mp, grid, payoff, n_paths=20_000, seed=42)
print(f"corrected price q_eps = {res.q_eps:.6f}")
print(f"Monte Carlo           = {est.mean:.6f} +- {est.std_error:.6f}")
print(f"difference            = {abs(est.mean - res.q_eps):.2e} "
      f"({abs(est.mean - res.q_eps) / est.std_error:.2f} SE)")
