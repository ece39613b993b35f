"""Walk through the moving-average kernel and the factor covariance.

The volatility factor is a stationary Gaussian moving average
``Z_t = int_{-inf}^t K(t - s) dW_s`` whose kernel blends a fractional
power ``t^(H-1/2)`` at the origin with an integrable mean-reverting tail.
This script evaluates the kernel across its three evaluation branches,
verifies the two exact normalizations, locates the sign change, and
compares the closed-form covariance with its spectral reference.
"""

import math

import numpy as np

from roughvol import CovarianceEval, KernelEval, gamma_reflect, sigma_ou

H = 0.3
ke = KernelEval(H)

print(f"Hurst exponent H = {H}, sigma_ou = {sigma_ou(H):.6f}")
print(f"(sigma_ou^2 = 1 / (2 sin(pi H)) = {1.0 / (2.0 * math.sin(math.pi * H)):.6f})")
print()

# -- kernel values across the evaluation branches ---------------------------------
print("kernel K(t) (power-law onset, zero crossing, integrable tail):")
for t in (1e-4, 0.01, 0.5, 2.0, 10.0, 80.0):
    print(f"  K({t:8.4f}) = {ke.kernel_K(t): .6e}")
print()

# -- the two exact normalizations --------------------------------------------------
# int_0^inf K^2 = 1 fixes the variance of Z; int_0^inf K = 0 makes the
# factor mean-revert (zero total weight).  The second cancellation is very
# slow: the running integral decays to zero only like t^(H-1/2).
t_probe = 70.0
sq = ke.ksq_cum(t_probe) + ke.ksq_tail(t_probe)
print(f"int_0^inf K^2 = {sq:.15f}   (exactly 1 by construction)")
t_star = ke.zero_crossing()
print("running integral int_0^t K (tends to 0 like t^(H-1/2)):")
for t in (t_star, 10.0, 100.0, 1e4, 1e8):
    ik = float(ke.integrated_K(np.array([t]))[0])
    print(f"  int_0^{t:<9.6g} K = {ik: .4e}")
print(f"K changes sign once, at t* = {t_star:.6f}")
print(f"int_0^inf |K| = {ke.abs_integral():.6f} = 2 * int_0^t* K")
print()

# -- covariance: closed form vs spectral reference ----------------------------------
td = CovarianceEval(H)
lags = np.array([0.0, 0.01, 0.5, 1.0, 5.0, 30.0])
closed = td.cov_CZ(lags)                    # kink-split closed forms
spectral = td.cov_CZ_spectral(lags)         # oscillatory quadrature
print("covariance C_Z(s), time-domain vs spectral:")
print(f"  {'s':>8}  {'TimeDomain':>14}  {'Spectral':>14}  {'diff':>9}")
for s, a, b in zip(lags, closed, spectral):
    print(f"  {s:8.2f}  {a:14.10f}  {b:14.10f}  {abs(a - b):9.1e}")
print()

# -- limiting behaviour -------------------------------------------------------------
# short lags: 1 - C_Z(s) ~ s^(2H) / Gamma(2H+1)  (rough paths);
# long lags:  C_Z(s) ~ s^(2H-2) / Gamma(2H-1) < 0 (slow sign-reversed decay).
s = 1e-3
short_ratio = (1.0 - td.cov_CZ(s)) * math.gamma(2 * H + 1) / s ** (2 * H)
s = 1e3
long_ratio = td.cov_CZ(s) * gamma_reflect(2 * H - 1.0) / s ** (2 * H - 2)
print(f"short-lag ratio (1-C_Z)Gamma(2H+1)/s^2H at s=1e-3: {short_ratio:.4f}")
print(f"long-lag ratio  C_Z Gamma(2H-1)/s^(2H-2) at s=1e3: {long_ratio:.4f}")
print(f"C_Z(1000) = {td.cov_CZ(1e3):.3e}  (negative tail)")
