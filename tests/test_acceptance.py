"""Package-level acceptance suite.

Eight end-to-end verification criteria, one test (or test group) each, run
at fixed seeds and stated tolerances with their runtime budgets asserted:

1. kernel normalization and the two covariance routes;
2. the price-correction coefficient against a brute-force nested-trapezoid
   oracle;
3. the law of the simulated volatility factor (variance, autocorrelation,
   exact-Gaussian comparison);
4. convergence of the corrected price (the scaled error must shrink and
   beat the uncorrected constant-volatility price);
5. the implied-volatility expansion and smile-slope recovery;
6. remainder-term rates (integrated conditional variance, volatility
   adjustment, pathwise bound, quadratic-variation correction);
7. equivalence of the zero-started factor with the stationary one;
8. term-structure slopes and regime exponents.

Expensive Monte Carlo runs are shared through module-scoped fixtures, each
carrying its wall-clock time so the budget asserts cover the real work.

The volatility-adjustment target check (criterion 6) compares against the
``eps -> 0`` limit ``d_bar`` after removing one closed-form term: at the
finite horizon ``T/eps`` the constant part ``Lambda(0) = <F><FF'>`` of the
``d_bar`` integrand contributes ``sigma_ou <F><FF'> IK(T/eps)``, which
vanishes only because ``int_0^infty K = 0``.  Without that term the
finite-horizon integral already matches ``d_bar`` to 0.1% at desk scale;
the companion oracle test pins the raw mean, term included, to an
independent finite-horizon quadrature.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from roughvol.kernel import (
    CovarianceEval,
    KernelEval,
    bivariate_expect,
    cov_RL,
    gamma_reflect,
    sigma_ou,
)
from roughvol.gaussfunc import BoundedSigmoid, d_bar, group_params
from roughvol.simulate import (
    ModelParams,
    SimGrid,
    concat_bundles,
    exact_gaussian_check,
    simulate_paths,
)
from roughvol.experiments import (
    convergence_study,
    kappa_check,
    phi_variance_check,
    smile_study,
    termstructure_study,
    vartheta_check,
)
from roughvol.pricing import smooth_ramp

HURST = 0.3
VF = BoundedSigmoid(0.05, 0.85, 3.5)
PAYOFF = smooth_ramp(1.0, 0.1)
EPS_GRID = (0.1, 0.05, 0.025, 0.0125)
N_PATHS = 200_000
SEED = 2024


def make_model(**kw):
    base = dict(hurst=HURST, eps=0.1, rho=-0.5, vol_fn=VF, x0=1.0,
                maturity_T=1.0)
    base.update(kw)
    return ModelParams(**base)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- shared expensive runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def conv_stationary():
    return _timed(lambda: convergence_study(
        make_model(), EPS_GRID, PAYOFF, n_paths=N_PATHS, seed=SEED,
        points_per_eps=4, warmup_mult=24.0))


@pytest.fixture(scope="module")
def conv_zero_start():
    return _timed(lambda: convergence_study(
        make_model(), EPS_GRID, PAYOFF, n_paths=N_PATHS, seed=SEED,
        points_per_eps=4, warmup_mult=24.0, zero_start=True))


@pytest.fixture(scope="module")
def vartheta_run():
    mp = make_model(eps=0.01)
    grid = SimGrid.for_model(mp, 4, 24.0)
    return _timed(lambda: vartheta_check(mp, grid, n_paths=10_000, seed=42))


@pytest.fixture(scope="module")
def phi_run():
    return _timed(lambda: phi_variance_check(
        make_model(eps=0.04), (0.04, 0.02, 0.01, 0.005),
        n_mc=20_000, seed=0))


@pytest.fixture(scope="module")
def kappa_run():
    return _timed(lambda: kappa_check(
        make_model(eps=0.08), (0.08, 0.04, 0.02, 0.01),
        n_mc=20_000, seed=0))


# -- 1. kernel and covariance ------------------------------------------------------


def test_kernel_normalization_and_covariance_routes():
    t0 = time.perf_counter()
    for h in (0.1, 0.2, 0.3, 0.35, 0.45):
        ke = KernelEval(h)
        head = ke.ksq_first_cell(1.0)
        mid, _ = integrate.quad(
            lambda u: float(ke.kernel_K(u)) ** 2, 1.0, 70.0,
            epsabs=1e-13, epsrel=1e-11, limit=200,
        )
        assert abs(head + mid + ke.ksq_tail(70.0) - 1.0) < 1e-6

        td = CovarianceEval(h)
        for s in (0.01, 1.0, 10.0):  # 5 H values x 3 lags = 15 points
            assert abs(td.cov_CZ(s) - td.cov_CZ_spectral(s)) < 1e-6

        s = 1e-3
        ratio = (1.0 - td.cov_CZ(s)) * math.gamma(2 * h + 1.0) / s ** (2 * h)
        assert 0.98 <= ratio <= 1.02
        s = 1e3
        ratio = td.cov_CZ(s) * gamma_reflect(2.0 * h - 1.0) / s ** (2 * h - 2.0)
        assert 0.95 <= ratio <= 1.05
    assert time.perf_counter() - t0 < 60.0


# -- 2. correction coefficient vs brute force ----------------------------------------


class _BruteLambda:
    """Dense-trapezoid E[F(so*Z) (FF')(so*Z')] on a 2-d grid, Taylor near c=1."""

    def __init__(self, vf, so, n_base=641):
        self.vf, self.so, self.n_base = vf, so, n_base
        self._taylor = None

    def _grid2d(self, c):
        width = math.sqrt(1.0 - c * c)
        n = min(3201, max(self.n_base, int(128.0 / width) + 1))
        z = np.linspace(-8.0, 8.0, n)
        f1 = self.vf(self.so * z)
        f2 = self.vf(self.so * z) * self.vf.deriv(self.so * z)
        acc = np.empty(n)
        for i0 in range(0, n, 256):  # chunk rows to bound memory
            zi = z[i0:i0 + 256, None]
            q = (zi * zi - 2.0 * c * zi * z[None, :] + z[None, :] ** 2)
            dens = np.exp(-q / (2.0 * width**2)) / (2.0 * math.pi * width)
            acc[i0:i0 + 256] = np.trapezoid(
                f1[i0:i0 + 256, None] * f2[None, :] * dens, z, axis=1)
        return float(np.trapezoid(acc, z))

    def __call__(self, c):
        if c <= 1.0 - 1e-4:
            return self._grid2d(c)
        # the 2-d grid loses accuracy as the density collapses onto the
        # diagonal; Lambda is analytic in c, so extrapolate linearly from
        # just inside (error O((c - c0)^2) ~ 1e-6 relative)
        if self._taylor is None:
            c0, dc = 1.0 - 1e-3, 5e-4
            lam0 = self._grid2d(c0)
            slope = (self._grid2d(c0 + dc) - self._grid2d(c0 - dc)) / (2.0 * dc)
            self._taylor = (c0, lam0, slope)
        c0, lam0, slope = self._taylor
        return lam0 + slope * (c - c0)


def _dbar_brute(vf, ke, ce, n0=1000, n1=1000, s_cap=1500.0, n_base=641,
                grade=4.0):
    """Nested-trapezoid correction coefficient, fully independent of d_bar.

    Outer integral in the substituted variable w = s^(H+1/2) on a graded
    grid over [0, 1] (flattens the origin singularity), then log-spaced
    trapezoid on [1, s_cap], then a linearized closed-form tail.
    """
    h = ke.hurst
    so = ke.sigma_ou
    a = h + 0.5
    lam = _BruteLambda(vf, so, n_base)
    z = np.linspace(-8.0, 8.0, 4001)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    lam0 = float(np.trapezoid(vf(so * z) * phi, z)) * float(
        np.trapezoid(vf(so * z) * vf.deriv(so * z) * phi, z))

    def sub(s):
        return (lam(float(ce.cov_CZ(s))) - lam0) * float(ke.kernel_K(s))

    w = (np.arange(n0 + 1) / n0) ** grade
    vals = np.empty_like(w)
    vals[0] = (lam(1.0) - lam0) / (a * so * math.gamma(a))  # w->0 limit
    for i in range(1, n0 + 1):
        s = w[i] ** (1.0 / a)
        vals[i] = sub(s) * (1.0 / a) * w[i] ** (1.0 / a - 1.0)
    total = float(np.trapezoid(vals, w))

    u = np.linspace(0.0, math.log(s_cap), n1 + 1)
    vals = np.array([sub(math.exp(x)) * math.exp(x) for x in u])
    total += float(np.trapezoid(vals, u))

    c_ref = float(ce.cov_CZ(s_cap))
    slope = (lam(c_ref) - lam0) / c_ref
    q = 3.0 * h - 3.5
    tail = (slope / (gamma_reflect(2.0 * h - 1.0) * so * gamma_reflect(h - 0.5))
            * s_cap ** (q + 1.0) / (-(q + 1.0)))
    return so * (total + tail)


@pytest.mark.parametrize("hurst", [0.1, 0.3])
def test_correction_coefficient_matches_brute_force(hurst):
    t0 = time.perf_counter()
    vf = BoundedSigmoid(0.1, 0.3, 1.0)
    ke = KernelEval(hurst)
    ce = CovarianceEval(hurst)
    brute = _dbar_brute(vf, ke, ce)
    impl, _ = d_bar(vf, hurst)
    assert abs(impl - brute) / abs(brute) < 1e-5
    assert time.perf_counter() - t0 < 60.0


# -- 3. simulated factor law ---------------------------------------------------------


def test_simulated_factor_law():
    t0 = time.perf_counter()
    for h in (0.3, 0.1):
        mp = make_model(hurst=h, eps=0.05, maturity_T=0.5)
        grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
        bundle = concat_bundles(simulate_paths(mp, grid, 50_000, seed=11))
        so2 = sigma_ou(h) ** 2
        ce = CovarianceEval(h)
        n = bundle.Z.shape[0]

        zsq = bundle.Z[:, 0] ** 2
        se = float(zsq.std(ddof=1)) / math.sqrt(n)
        assert abs(float(zsq.mean()) - so2) < 3.0 * se

        for lag_mult, cols in ((1.0, 8), (5.0, 40)):  # lag eps and 5 eps
            prod = bundle.Z[:, 0] * bundle.Z[:, cols] / so2
            se = float(prod.std(ddof=1)) / math.sqrt(n)
            assert abs(float(prod.mean()) - ce.cov_CZ(lag_mult)) < 3.0 * se

        small = SimGrid.for_model(
            make_model(hurst=h, eps=0.05, maturity_T=0.25),
            points_per_eps=8, warmup_mult=30.0)
        rep = exact_gaussian_check(make_model(hurst=h, eps=0.05,
                                              maturity_T=0.25), small)
        assert rep.max_abs_corr_diff < 5e-3
    assert time.perf_counter() - t0 < 180.0


# -- 4. corrected-price convergence ---------------------------------------------------


def test_corrected_price_convergence(conv_stationary):
    report, elapsed = conv_stationary
    assert report.verdict.startswith("decreasing"), report.verdict
    for p in report.points:
        assert p.error < p.error_bs, (
            f"correction must beat the constant-volatility price at "
            f"eps={p.eps}: {p.error:.3e} vs {p.error_bs:.3e}")
    assert elapsed < 600.0


# -- 5. implied-volatility expansion ---------------------------------------------------


def test_implied_vol_expansion_and_smile_recovery():
    t0 = time.perf_counter()
    report = smile_study(make_model(), EPS_GRID)
    assert report.verdict == "decreasing"
    gaps = [p.max_scaled_iv_gap for p in report.points]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert report.points[-1].recovery_rel_err < 0.02
    assert time.perf_counter() - t0 < 60.0


# -- 6. remainder-term rates -----------------------------------------------------------


def test_conditional_variance_integral_rate(phi_run):
    report, _ = phi_run
    assert abs(report.slope - report.expected_slope) <= 0.15, report.slope


def test_volatility_adjustment_fast_scale_target(vartheta_run):
    report, _ = vartheta_run
    # The raw mean carries the closed-form horizon term
    # sqrt(eps) sigma_ou <F><FF'> IK(T/eps) (~6x the target here), which
    # integrates to zero only over the infinite horizon; ratio_to_target is
    # the covariance-form estimate of the remainder over sqrt(eps) d_bar.
    se_rel = report.cov_std_error / abs(report.target)
    assert abs(report.ratio_to_target - 1.0) <= max(0.05, 4.0 * se_rel), (
        f"(mean - horizon term)/sqrt(eps) = "
        f"{report.cov_estimate / math.sqrt(report.eps):.4e} vs "
        f"d_bar = {report.d_bar:.4e} "
        f"(ratio {report.ratio_to_target:.3f}, se {se_rel:.3f})")


def test_volatility_adjustment_finite_horizon_oracle(vartheta_run):
    report, _ = vartheta_run
    eps, T = 0.01, 1.0
    so = sigma_ou(HURST)
    ke = KernelEval(HURST)
    ce = CovarianceEval(HURST)
    f = lambda z: VF(so * z)
    ffp = lambda z: VF(so * z) * VF.deriv(so * z)

    n_cells = 4000
    delta = (T / eps) / n_cells
    masses = ke.cell_masses(delta, n_cells)
    nodes = delta * np.arange(n_cells + 1)
    lam = np.array([
        bivariate_expect(f, ffp, float(ce.cov_CZ(u)) if u > 0 else 1.0, 80)
        for u in nodes])
    finite_horizon = so * float(0.5 * (lam[:-1] + lam[1:]) @ masses)

    # The raw mean against the finite-horizon integral, horizon term
    # included.  2% of that value is ~14% of d_bar, so this pins the
    # estimator to the truncated integral, not to d_bar precision; the
    # fast-scale target test above carries the d_bar-level check.
    measured = report.mean / math.sqrt(eps)
    se = report.std_error / math.sqrt(eps)
    assert abs(measured - finite_horizon) < max(4.0 * se, 0.02 * abs(finite_horizon)), (
        f"measured {measured:.4e} vs finite-horizon quadrature "
        f"{finite_horizon:.4e} (se {se:.1e})")


def test_volatility_adjustment_pathwise_bound(vartheta_run):
    report, _ = vartheta_run
    assert report.n_paths == 10_000
    assert report.bound_violations == 0
    assert report.max_abs_over_sqrt_eps <= report.bound_constant


def test_quadratic_variation_correction_rate(kappa_run):
    report, _ = kappa_run
    assert report.slope >= report.slope_floor, report.slope


def test_remainder_rate_budget(phi_run, vartheta_run, kappa_run):
    assert phi_run[1] + vartheta_run[1] + kappa_run[1] < 600.0


# -- 7. zero-started factor equivalence --------------------------------------------------


def test_zero_started_covariance_matches_stationary():
    ke = KernelEval(HURST)
    ce = CovarianceEval(HURST)
    for t in (10.0, 20.0, 40.0):  # elapsed time >= 10 eps, in fast units
        for s in (0.0, 1.0, 5.0, 10.0, 20.0):
            assert abs(cov_RL(t, s, ke) - ce.cov_CZ(s)) < 1e-2


def test_zero_started_convergence_verdict(conv_stationary, conv_zero_start):
    stationary, t_stat = conv_stationary
    zero_start, t_zero = conv_zero_start
    assert zero_start.verdict.startswith("decreasing"), zero_start.verdict
    assert stationary.verdict.startswith("decreasing")
    for p in zero_start.points:
        assert p.error < p.error_bs
    assert t_zero < 600.0


# -- 8. term structure --------------------------------------------------------------------


@pytest.mark.parametrize("hurst", [0.1, 0.3])
def test_term_structure_slopes_and_exponents(hurst):
    t0 = time.perf_counter()
    report = termstructure_study(make_model(hurst=hurst))
    assert abs(report.short_slope - (hurst + 0.5)) < 0.05
    assert abs(report.long_slope - (hurst - 0.5)) < 0.05
    assert report.zeta_fast == max(hurst - 0.5, 0.0)
    assert report.zeta_slow == hurst + 0.5
    assert report.zeta_small_amplitude == hurst + 0.5
    assert time.perf_counter() - t0 < 60.0
