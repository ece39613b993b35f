"""Tests for volatility functions and their Gaussian functionals."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from roughvol import gaussfunc
from roughvol.kernel import KernelEval, sigma_ou
from roughvol.gaussfunc import (
    BoundedSigmoid,
    ConstantVol,
    ExponentialVol,
    GroupParams,
    TabulatedVol,
    d_bar,
    d_bar_markov,
    g_prime_sup,
    gaussian_profile,
    group_params,
    mean_FFp,
    moments,
    psi_of_C,
    sigma_bar,
)


class Model:
    """Minimal stand-in providing the fields group_params needs."""

    def __init__(self, hurst, vol_fn):
        self.hurst = hurst
        self.vol_fn = vol_fn


def trapezoid_moments(vol_fn, hurst, n=40001, z_range=10.0):
    """Independent dense-trapezoid oracle for the four Gaussian moments."""
    so = sigma_ou(hurst)
    z = np.linspace(-z_range, z_range, n)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    f = vol_fn(so * z)
    fp = vol_fn.deriv(so * z)
    return (
        float(np.trapezoid(f * phi, z)),
        float(np.trapezoid(f * f * phi, z)),
        float(np.trapezoid(fp * phi, z)),
        float(np.trapezoid(fp * fp * phi, z)),
    )


# frozen regression values (quadrature converged to ~1e-9 relative; the
# independent nested-trapezoid oracle agreement is exercised in
# tests/test_acceptance.py)
D_BAR_REGRESSION = {
    (0.1, (0.1, 0.3, 1.0)): 1.152486338052e-05,
    (0.3, (0.1, 0.3, 1.0)): 1.510915870466e-05,
    (0.3, (0.05, 0.45, 2.5)): 4.329011559885e-04,
    (0.1, (0.05, 0.45, 2.5)): 1.583288974549e-04,
}
# value of the independent brute-force nested trapezoid oracle (graded
# trapezoid meshes x explicit-bivariate-density 2-D trapezoid), frozen
BRUTE_ORACLE_H03 = 1.5109208433e-05
# steep or very rough models, frozen from bench/oracle.py's dbar_oracle(hurst,
# BoundedSigmoid(*params)) at its default resolution (a 401 x 401 trapezoid
# for Lambda, 2,000 Simpson cells in each s-range); the coarse run
# (n_head = n_log = 1000) differs by at most 3.0e-14
DENSE_ORACLE_STEEP = {
    (0.1, (0.05, 0.85, 6.0)): 8.370965740461e-04,
    (0.3, (0.05, 0.85, 8.0)): 3.409175298246e-03,
    (0.05, (0.05, 0.85, 3.5)): 3.935427698706e-04,
}
TABULATED = TabulatedVol([-3.0, -1.5, 0.0, 1.5, 3.0], [0.12, 0.16, 0.2, 0.24, 0.28])


# ---------------------------------------------------------------------------
# volatility function families


def test_bounded_sigmoid_validation():
    with pytest.raises(ValueError):
        BoundedSigmoid(0.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        BoundedSigmoid(-0.1, 0.3, 1.0)
    with pytest.raises(ValueError):
        BoundedSigmoid(0.3, 0.1, 1.0)
    with pytest.raises(ValueError):
        BoundedSigmoid(0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        BoundedSigmoid(0.1, 0.3, 0.0)
    with pytest.raises(ValueError):
        BoundedSigmoid(0.1, 0.3, -2.0)


def test_bounded_sigmoid_values_and_bounds():
    vf = BoundedSigmoid(0.1, 0.3, 1.0)
    assert vf(0.0) == pytest.approx(0.2)
    z = np.linspace(-30.0, 30.0, 401)
    vals = vf(z)
    assert np.all(vals > 0.1) and np.all(vals < 0.3)
    assert np.all(np.diff(vals) > 0.0)
    assert vf(-35.0) == pytest.approx(0.1, abs=1e-12)
    assert vf(35.0) == pytest.approx(0.3, abs=1e-12)


def test_bounded_sigmoid_deriv_matches_finite_difference():
    vf = BoundedSigmoid(0.05, 0.45, 2.5)
    z = np.linspace(-4.0, 4.0, 17)
    h = 1e-6
    fd = (vf(z + h) - vf(z - h)) / (2.0 * h)
    assert vf.deriv(z) == pytest.approx(fd, rel=1e-5, abs=1e-10)
    assert np.all(vf.deriv(z) > 0.0)


def test_constant_vol():
    with pytest.raises(ValueError):
        ConstantVol(0.0)
    with pytest.raises(ValueError):
        ConstantVol(-0.2)
    vf = ConstantVol(0.2)
    z = np.linspace(-5.0, 5.0, 11)
    assert np.all(vf(z) == 0.2)
    assert np.all(vf.deriv(z) == 0.0)
    assert vf.sigma_min == vf.sigma_max == 0.2


def test_exponential_vol_requires_unsafe():
    with pytest.raises(ValueError):
        ExponentialVol(0.2)
    with pytest.raises(ValueError):
        ExponentialVol(scale=-1.0, unsafe=True)
    vf = ExponentialVol(0.2, unsafe=True)
    assert vf(0.0) == pytest.approx(0.2)
    assert vf.deriv(1.0) == pytest.approx(vf(1.0))
    assert vf.sigma_max == math.inf


def test_tabulated_vol_validation():
    z = [-3.0, -1.5, 0.0, 1.5, 3.0]
    with pytest.raises(ValueError):
        TabulatedVol([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])  # too few points
    with pytest.raises(ValueError):
        TabulatedVol([0.0, 1.0, 1.0, 2.0, 3.0], [0.1, 0.15, 0.2, 0.25, 0.3])
    with pytest.raises(ValueError):
        TabulatedVol(z, [0.12, 0.2, 0.16, 0.24, 0.28])  # non-monotone values
    with pytest.raises(ValueError):
        TabulatedVol(z, [0.12, 0.16, 0.2, 0.24, 0.28], sigma_min=0.15)
    with pytest.raises(ValueError):
        TabulatedVol(z, [-0.1, 0.16, 0.2, 0.24, 0.28])


def test_tabulated_vol_interpolates_and_stays_monotone():
    z = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])
    v = np.array([0.12, 0.16, 0.2, 0.24, 0.28])
    vf = TabulatedVol(z, v)
    assert vf(z) == pytest.approx(v, rel=1e-12)
    grid = np.linspace(-12.0, 12.0, 4001)
    vals = vf(grid)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals > vf.sigma_min) and np.all(vals < vf.sigma_max)
    # C^1 across the linear-continuation joins and FD-consistent derivative
    h = 1e-6
    for z0 in (-3.0, 3.0, -1.0, 0.7):
        fd = (vf(z0 + h) - vf(z0 - h)) / (2.0 * h)
        assert vf.deriv(z0) == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_tabulated_vol_rejects_non_monotone_spline():
    # values increase, but the spline in transformed space overshoots and
    # dips; the dense-grid monotonicity check must catch it
    z = [-3.0, -1.5, 0.0, 1.5, 3.0]
    v = [0.11, 0.111, 0.25, 0.251, 0.29]
    with pytest.raises(ValueError):
        TabulatedVol(z, v)


@pytest.mark.parametrize("vf", [
    BoundedSigmoid(0.05, 0.85, 3.5),
    TabulatedVol([-3.0, -1.5, 0.0, 1.5, 3.0], [0.12, 0.16, 0.2, 0.24, 0.28]),
    ConstantVol(0.2),
], ids=["sigmoid", "tabulated", "constant"])
def test_ffp_is_bitwise_product_of_value_and_derivative(vf, monkeypatch):
    z = np.concatenate((np.linspace(-12.0, 12.0, 2000), [-40.0, 40.0]))
    assert np.array_equal(vf.ffp(z), vf(z) * vf.deriv(z))
    assert np.array_equal(vf.ffp(z.reshape(2, -1)), (vf(z) * vf.deriv(z)).reshape(2, -1))
    # one route in every family, so whatever wraps __call__ and deriv (a
    # tracer, a counter) also sees F F'
    calls = []
    cls = type(vf)
    for name in ("__call__", "deriv"):
        def counted(self, z, _name=name, _orig=getattr(cls, name)):
            calls.append(_name)
            return _orig(self, z)
        monkeypatch.setattr(cls, name, counted)
    vf.ffp(z)
    assert sorted(calls) == ["__call__", "deriv"]


# ---------------------------------------------------------------------------
# moments and sigma_bar


def test_moments_constant():
    m = moments(ConstantVol(0.2), 0.3)
    assert m[0] == pytest.approx(0.2, rel=1e-14)
    assert m[1] == pytest.approx(0.04, rel=1e-14)
    assert m[2] == 0.0
    assert m[3] == 0.0


@pytest.mark.parametrize("params", [(0.1, 0.3, 1.0), (0.05, 0.45, 2.5),
                                    (0.05, 0.85, 8.0)])
def test_moments_match_trapezoid_oracle(params):
    vf = BoundedSigmoid(*params)
    got = moments(vf, 0.3)
    want = trapezoid_moments(vf, 0.3)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


@pytest.mark.parametrize("hurst", [0.1, 0.3])
@pytest.mark.parametrize("vf", [BoundedSigmoid(0.05, 0.85, 8.0), TABULATED],
                         ids=["steep", "tabulated"])
def test_moments_match_adaptive_quad(vf, hurst):
    # adaptive quadrature in z, split at the spline knots (in units of
    # sigma_ou) so that the C^2 joins of the tabulated function sit on breaks
    so = sigma_ou(hurst)
    knots = [k / so for k in (-3.0, -1.5, 0.0, 1.5, 3.0)]
    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    fns = (lambda z: vf(so * z), lambda z: vf(so * z) ** 2,
           lambda z: vf.deriv(so * z), lambda z: vf.deriv(so * z) ** 2)
    for got, fn in zip(moments(vf, hurst), fns):
        want, _ = integrate.quad(lambda z: float(fn(z)) * phi(z), -14.0, 14.0,
                                 points=knots, epsabs=1e-14, epsrel=1e-13,
                                 limit=500)
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("params", [(0.1, 0.3, 1.0), (0.05, 0.45, 2.5)])
def test_mean_ffp_matches_trapezoid_oracle(params):
    vf = BoundedSigmoid(*params)
    so = sigma_ou(0.3)
    z = np.linspace(-10.0, 10.0, 40001)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    want = float(np.trapezoid(vf(so * z) * vf.deriv(so * z) * phi, z))
    assert mean_FFp(vf, 0.3) == pytest.approx(want, abs=1e-9)
    assert mean_FFp(ConstantVol(0.2), 0.3) == 0.0


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.4])
def test_moments_sigmoid_symmetry(hurst):
    # F(z) + F(-z) = sigma_min + sigma_max for the logistic family, so the
    # stationary mean is the midpoint regardless of H and slope
    vf = BoundedSigmoid(0.05, 0.45, 2.5)
    mean_f, _, _, _ = moments(vf, hurst)
    assert mean_f == pytest.approx(0.25, rel=1e-12)


def test_sigma_bar_constant_and_jensen():
    assert sigma_bar(ConstantVol(0.2), 0.3) == pytest.approx(0.2, rel=1e-14)
    for hurst in (0.1, 0.3):
        vf = BoundedSigmoid(0.1, 0.3, 1.0)
        mean_f, mean_f2, _, _ = moments(vf, hurst)
        sb = sigma_bar(vf, hurst)
        assert sb**2 == pytest.approx(mean_f2, rel=1e-13)
        assert sb**2 >= mean_f**2
        assert 0.1 < sb < 0.3


@pytest.mark.parametrize("vf", [BoundedSigmoid(0.05, 0.45, 2.5), TABULATED],
                         ids=["sigmoid", "tabulated"])
def test_sigma_bar_reads_only_F(vf, monkeypatch):
    # sigma_bar evaluates F and <F^2> alone, bit for bit group_params' value
    want = group_params(Model(0.3, vf)).sigma_bar

    def no_deriv(z):
        raise AssertionError("sigma_bar evaluated F'")

    monkeypatch.setattr(vf, "deriv", no_deriv)
    assert sigma_bar(vf, 0.3) == want


# ---------------------------------------------------------------------------
# d_bar


def test_d_bar_constant_is_zero():
    assert d_bar(ConstantVol(0.2), 0.3)[0] == 0.0


@pytest.mark.parametrize("key", sorted(D_BAR_REGRESSION))
def test_d_bar_regression(key):
    hurst, params = key
    val, _ = d_bar(BoundedSigmoid(*params), hurst)
    assert val == pytest.approx(D_BAR_REGRESSION[key], rel=1e-6)


@pytest.mark.parametrize("key", sorted(DENSE_ORACLE_STEEP))
def test_d_bar_matches_frozen_dense_oracle_on_steep_models(key):
    hurst, params = key
    vf = BoundedSigmoid(*params)
    val, _ = d_bar(vf, hurst)
    assert abs(val - DENSE_ORACLE_STEEP[key]) <= 1e-7 * vf.sigma_max**3


def test_d_bar_matches_frozen_brute_force_oracle():
    val, _ = d_bar(BoundedSigmoid(0.1, 0.3, 1.0), 0.3)
    assert val == pytest.approx(BRUTE_ORACLE_H03, rel=1e-5)


def test_d_bar_bounded_by_kernel_mass():
    # |d_bar| <= sigma_ou * sup|F| * sup|FF'| * int |K|
    for hurst in (0.1, 0.3):
        ke = KernelEval(hurst)
        vf = BoundedSigmoid(0.1, 0.3, 1.0)
        bound = (
            ke.sigma_ou * vf.sigma_max * g_prime_sup(vf) * ke.abs_integral()
        )
        assert abs(d_bar(vf, hurst)[0]) <= bound


def test_d_bar_scale_equivariance():
    # replacing F by alpha*F multiplies sigma_bar by alpha and d_bar by
    # alpha^3; for the logistic family alpha*F is the family with scaled
    # bounds
    alpha = 1.3
    vf = BoundedSigmoid(0.1, 0.3, 1.0)
    vf_scaled = BoundedSigmoid(alpha * 0.1, alpha * 0.3, 1.0)
    assert sigma_bar(vf_scaled, 0.3) == pytest.approx(
        alpha * sigma_bar(vf, 0.3), rel=1e-10
    )
    assert d_bar(vf_scaled, 0.3)[0] == pytest.approx(
        alpha**3 * d_bar(vf, 0.3)[0], rel=1e-6
    )


def test_d_bar_tail_non_convergence_raises(monkeypatch):
    # the tail beyond a horizon of 50 is too large to linearize
    monkeypatch.setattr(gaussfunc, "_S_MAX", 50.0)
    with pytest.raises(RuntimeError, match="tail bound"):
        d_bar(BoundedSigmoid(0.05, 0.45, 2.5), 0.3)


def test_d_bar_diagnostics():
    vf = BoundedSigmoid(0.1, 0.3, 1.0)
    val, diag = d_bar(vf, 0.3)
    assert val == pytest.approx(D_BAR_REGRESSION[(0.3, (0.1, 0.3, 1.0))], rel=1e-6)
    assert diag["tail_bound"] < 1e-7 * vf.sigma_max**3
    assert abs(diag["tail_estimate"]) <= diag["tail_bound"]
    assert 0.0 < diag["truncation_bound"] < 1e-7 * vf.sigma_max**3 - diag["tail_bound"]
    assert diag["n_terms"] == 1000
    assert diag["s_max"] == 2000.0


def test_d_bar_approaches_the_markov_limit_linearly():
    # at H = 1/2 the factor is an OU process and d_bar is the Markov
    # coefficient; the gap closes linearly in 1/2 - H (slope about -2.0 here)
    vf = BoundedSigmoid(0.05, 0.85, 3.5)
    limit = d_bar_markov(vf)
    assert limit == pytest.approx(6.28549e-3, rel=1e-5)
    for gap in (1e-2, 1e-3, 1e-4):
        hurst = 0.5 - gap
        rel = d_bar(vf, hurst)[0] / limit - 1.0
        assert -2.1 < rel / gap < -1.95
    assert d_bar_markov(ConstantVol(0.2)) == 0.0


# ---------------------------------------------------------------------------
# group_params


def test_group_params_constant_vol():
    gp = group_params(Model(0.3, ConstantVol(0.2)))
    assert isinstance(gp, GroupParams)
    assert gp.sigma_bar == pytest.approx(0.2, rel=1e-14)
    assert gp.tau_bar == pytest.approx(50.0, rel=1e-12)
    assert gp.d_bar == 0.0
    assert gp.var_F == 0.0
    assert gp.mean_Fp == 0.0
    assert gp.mean_Fp2 == 0.0
    assert gp.d_bar_diagnostics is None  # the series is skipped


@pytest.mark.parametrize("value", [0.3, 0.45])
def test_group_params_var_F_is_zero_for_every_constant_vol(value):
    # <F^2> - <F>^2 cancels to -2.8e-17 at 0.3 and -5.6e-17 at 0.45
    assert group_params(Model(0.3, ConstantVol(value))).var_F == 0.0


@pytest.mark.parametrize("vf", [BoundedSigmoid(0.05, 0.45, 2.5), TABULATED],
                         ids=["sigmoid", "tabulated"])
def test_group_params_var_F_is_the_centred_mean(vf):
    gp = group_params(Model(0.3, vf))
    f = vf(sigma_ou(0.3) * gaussfunc._Z)
    assert gp.var_F == float(gaussfunc._W @ ((f - gp.mean_F) ** 2))
    assert gp.var_F == pytest.approx(gp.sigma_bar**2 - gp.mean_F**2, abs=1e-15)


def test_group_params_sigmoid_consistency():
    mp = Model(0.3, BoundedSigmoid(0.1, 0.3, 1.0))
    gp = group_params(mp)
    assert gp.tau_bar == pytest.approx(2.0 / gp.sigma_bar**2, rel=1e-14)
    assert 0.1 <= gp.sigma_bar <= 0.3
    assert gp.var_F > 0.0
    assert gp.mean_Fp > 0.0
    assert gp.mean_Fp2 > gp.mean_Fp**2  # Jensen for F'
    assert gp.d_bar == pytest.approx(D_BAR_REGRESSION[(0.3, (0.1, 0.3, 1.0))], rel=1e-6)
    # d_bar's value and bounds, as d_bar returns them
    assert (gp.d_bar, gp.d_bar_diagnostics) == d_bar(mp.vol_fn, mp.hurst)
    # pure and repeatable; equality reads the parameters, not the bounds
    gp2 = group_params(mp)
    assert gp2 == gp == dataclasses.replace(gp, d_bar_diagnostics=None)


def test_g_prime_sup_positive_and_dominates_origin():
    vf = BoundedSigmoid(0.1, 0.3, 1.0)
    sup = g_prime_sup(vf)
    assert sup >= float(vf(0.0) * vf.deriv(0.0))
    assert sup <= vf.sigma_max * float(np.max(vf.deriv(np.linspace(-40, 40, 40001))))


# ---------------------------------------------------------------------------
# runtime check of the fixed rule


@pytest.mark.parametrize("slope", [100.0, 200.0])
def test_fixed_rule_check_raises_on_steep_models(slope):
    # <F'^2> at H 0.1 is off by 9.6e-4 (slope 100) and 0.63 (slope 200) on
    # the step-0.01 rule; every route through the rule must refuse
    vf = BoundedSigmoid(0.05, 0.85, slope)
    with pytest.raises(RuntimeError, match="does not resolve"):
        moments(vf, 0.1)
    with pytest.raises(RuntimeError, match="does not resolve"):
        mean_FFp(vf, 0.1)
    with pytest.raises(RuntimeError, match="does not resolve"):
        d_bar(vf, 0.1)
    with pytest.raises(RuntimeError, match="does not resolve"):
        psi_of_C(0.5, vf, 0.1)


def test_fixed_rule_check_passes_below_threshold():
    # slope 40 at H 0.1: <F'^2> is still within 5e-13 of a step-0.001 rule
    vf = BoundedSigmoid(0.05, 0.85, 40.0)
    so = sigma_ou(0.1)
    z = np.linspace(-16.0, 16.0, 32001)
    exact = 0.001 * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) @ vf.deriv(so * z) ** 2
    assert moments(vf, 0.1)[3] == pytest.approx(exact, abs=1e-12)


def test_fixed_rule_check_non_analytic_table():
    # a spline is only C^2, so the rule converges algebraically: on TABULATED's
    # values at half its knot spacing, <F'> at H 0.05 is off by 1.1e-9 and
    # <FF'> by 2.2e-10, where the squared gap would read below 1e-15
    sharp = TabulatedVol([-1.5, -0.75, 0.0, 0.75, 1.5], [0.12, 0.16, 0.2, 0.24, 0.28])
    with pytest.raises(RuntimeError, match="does not resolve"):
        moments(sharp, 0.05)
    with pytest.raises(RuntimeError, match="does not resolve"):
        mean_FFp(sharp, 0.05)
    # TABULATED is resolved at the tests' H: |gap|/3 stays below 1e-10
    for h in (0.1, 0.3):
        moments(TABULATED, h)
        mean_FFp(TABULATED, h)
        psi_of_C(0.5, TABULATED, h)
        d_bar(TABULATED, h)


# ---------------------------------------------------------------------------
# psi_of_C (Mehler series) and gaussian_profile (smoothed table)


def rotated_psi_oracle(vf, hurst, c, step=0.01, half_width=10.0):
    """Dense 2-D trapezoid in (Z, W) with ``Z' = c Z + sqrt(1 - c^2) W``."""
    so = sigma_ou(hurst)
    z = np.arange(-half_width, half_width + 0.5 * step, step)
    w = step * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    f = vf(so * z)
    mean = w @ f
    inner = vf(so * (c * z[:, None] + math.sqrt(1.0 - c * c) * z[None, :])) @ w
    return float(w @ ((f - mean) * (inner - mean)))


@pytest.mark.parametrize("c", [0.3, 0.9, 0.999])
def test_psi_of_c_matches_dense_rotated_oracle_on_steep_model(c):
    # Gauss-Hermite order 40 was off by 4.1e-7, 4.0e-4 and 1.9e-3 here
    vf = BoundedSigmoid(0.05, 0.85, 8.0)
    assert psi_of_C(c, vf, 0.3) == pytest.approx(
        rotated_psi_oracle(vf, 0.3, c), abs=1e-12)


def dense_profile(fn, means, variances):
    """E[fn(m + sd Z)] by a 24,001-node trapezoid on [-12, 12]."""
    z = np.linspace(-12.0, 12.0, 24001)
    w = (z[1] - z[0]) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    sds = np.sqrt(variances)
    return np.stack([fn(means[:, j, None] + sds[j] * z) @ w
                     for j in range(means.shape[1])], axis=1)


def profile_block(hurst, seed=0):
    """Means and variances shaped like a conditional-profile block."""
    so = sigma_ou(hurst)
    sds = so * np.concatenate(([0.0], np.linspace(0.01, 1.0, 24)))
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((48, sds.size)) * np.sqrt(so * so - sds * sds)
    means[0] = 3.0 * so  # far out where the table must still be exact
    return means, sds * sds


def phi_g(hurst):
    vf = BoundedSigmoid(0.05, 0.85, 3.5)
    sb2 = moments(vf, hurst)[1]
    return lambda z: 0.5 * (vf(z) ** 2 - sb2)


@pytest.mark.parametrize("hurst, fn", [
    (0.3, BoundedSigmoid(0.05, 0.85, 3.5).ffp),
    (0.3, BoundedSigmoid(0.05, 0.85, 8.0).ffp),
    (0.05, phi_g(0.05)),
], ids=["acceptance-ffp", "slope8-ffp", "phi-G-H0.05"])
def test_gaussian_profile_matches_dense_oracle(hurst, fn):
    # Gauss-Hermite order 40 was off by 2.2e-5, 1.5e-2 and 9.5e-4 here
    means, variances = profile_block(hurst)
    got = gaussian_profile(fn, hurst, means, variances)
    assert got.shape == means.shape
    assert np.max(np.abs(got - dense_profile(fn, means, variances))) < 1e-7


def test_gaussian_profile_small_sd_near_table_end():
    # phi's G does not decay at the table ends; a zero-padded table rang
    # into the table for sd below ~1.5 steps (4.5e-8 at 14 sigma_ou)
    so = sigma_ou(0.05)
    means = so * np.array([[0.0], [6.0], [-10.0], [14.0]])
    for sd in (0.1, 0.5, 1.0):
        variances = np.array([(sd * 0.005 * so) ** 2])
        got = gaussian_profile(phi_g(0.05), 0.05, means, variances)
        assert np.max(np.abs(got - dense_profile(phi_g(0.05), means, variances))) < 1e-11


def test_gaussian_profile_under_resolved_table_raises():
    means, variances = profile_block(0.3)
    with pytest.raises(RuntimeError, match="too steep"):
        gaussian_profile(BoundedSigmoid(0.05, 0.85, 200.0).ffp, 0.3, means, variances)


def test_gaussian_profile_far_mean_raises():
    so = sigma_ou(0.3)
    variances = np.array([0.0, 0.25 * so * so])
    ok = np.array([[15.9 * so, 11.9 * so]])
    assert np.all(np.isfinite(gaussian_profile(np.cos, 0.3, ok, variances)))
    for bad in ([[16.5 * so, 0.0]], [[0.0, 12.5 * so]], [[math.nan, 0.0]]):
        with pytest.raises(ValueError, match="leaves the smoothing table"):
            gaussian_profile(np.cos, 0.3, np.array(bad), variances)
