"""Tests for pricing: BS formulas, operator greeks, implied volatility."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from roughvol.gaussfunc import GroupParams
from roughvol.kernel import KernelEval
from roughvol.pricing import (
    _EXP_ARG_MAX,
    Call,
    PriceResult,
    SmoothCustom,
    bs_operator_greeks,
    bs_price,
    corrected_price,
    first_order_price,
    implied_vol_asymptotic,
    implied_vol_invert,
    smooth_ramp,
    term_structure_factor,
    zeta_exponent,
)

# Black-Scholes ATM closed form: 100*(2*ndtr(0.1)-1)
BS_ATM_ORACLE = 7.9655674554058038


class Model:
    """Minimal stand-in providing the fields pricing needs."""

    def __init__(self, eps, rho, x0=1.0, maturity_T=1.0, hurst=0.3, vol_fn=None):
        self.eps = eps
        self.rho = rho
        self.x0 = x0
        self.maturity_T = maturity_T
        self.hurst = hurst
        self.vol_fn = vol_fn


GP = GroupParams(
    sigma_bar=0.2793171700219237,  # sqrt(<F^2>) for (0.05,0.45,2.5) at H=0.3
    d_bar=4.329011559885e-04,
    tau_bar=2.0 / 0.2793171700219237**2,
    mean_F=0.25,
    var_F=0.0155,
    mean_Fp=0.153,
    mean_Fp2=0.0294,
)


def lognormal_trapezoid_price(x, h, sigma, tau, n=40001, z_range=10.0):
    """Independent dense-trapezoid oracle for E[h(x e^{-s^2 t/2 + s sqrt(t) Z})]."""
    z = np.linspace(-z_range, z_range, n)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    y = x * np.exp(-0.5 * sigma**2 * tau + sigma * math.sqrt(tau) * z)
    return float(np.trapezoid(h(y) * phi, z))


# ---------------------------------------------------------------------------
# payoffs


def test_call_validation_and_values():
    with pytest.raises(ValueError):
        Call(0.0)
    with pytest.raises(ValueError):
        Call(-5.0)
    c = Call(1.0)
    assert c(1.5) == pytest.approx(0.5)
    assert c(0.5) == 0.0
    assert np.all(c(np.array([0.5, 1.0, 2.0])) == np.array([0.0, 0.0, 1.0]))


def test_smooth_custom_rejects_inconsistent_derivatives():
    ramp = smooth_ramp(1.0, 0.1)
    with pytest.raises(ValueError):
        SmoothCustom(ramp.h, lambda x: 2.0 * ramp.h_prime(x), ramp.h_double_prime)
    with pytest.raises(ValueError):
        SmoothCustom(ramp.h, ramp.h_prime, lambda x: ramp.h_double_prime(x) + 1.0)
    with pytest.raises(ValueError):
        SmoothCustom(ramp.h, ramp.h_prime, ramp.h_double_prime, check_points=[-1.0])


def test_smooth_ramp_shape():
    with pytest.raises(ValueError):
        smooth_ramp(-1.0, 0.1)
    with pytest.raises(ValueError):
        smooth_ramp(1.0, 0.0)
    ramp = smooth_ramp(1.0, 0.1, height=2.0)
    assert ramp(1.0) == pytest.approx(1.0)  # half height at the center
    assert ramp(10.0) == pytest.approx(2.0, abs=1e-12)
    assert ramp(0.2) == pytest.approx(0.0, abs=1e-3)
    x = np.linspace(0.2, 3.0, 101)
    assert np.all(np.diff(ramp(x)) > 0.0)


@pytest.mark.parametrize("center, width, height", [
    (1.0, 0.1, 1.0), (1.0, 0.02, 2.5), (3.0, 1.0, 0.3), (1.0, 1.0 / 350.0, 1.0)])
def test_smooth_ramp_matches_expit(center, width, height):
    # NumPy's exp against scipy's expit, at spots from 1e-300 to 1e300 and
    # across the ramp, with no overflow (or other) warning on the way
    x = np.concatenate([np.logspace(-300, 300, 601),
                        center * np.linspace(0.5, 1.5, 2001)])
    ramp = smooth_ramp(center, width, height)
    p = special.expit((x - center) / width)
    hp = height * p * (1.0 - p) / width
    hpp = height * p * (1.0 - p) * (1.0 - 2.0 * p) / width**2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ramp.h(x), ramp.h_prime(x), ramp.h_double_prime(x)
        scalars = ramp.h(center), ramp.h_double_prime(1e300)
    assert np.max(np.abs(got[0] - height * p)) <= 4.5e-16 * height
    assert np.max(np.abs(got[1] - hp)) <= 1e-14 * np.max(np.abs(hp))
    assert np.max(np.abs(got[2] - hpp)) <= 1e-14 * np.max(np.abs(hpp))
    assert all(isinstance(v, np.float64) for v in scalars)
    assert scalars == (0.5 * height, 0.0)


def test_smooth_ramp_refuses_a_ramp_whose_exp_could_overflow():
    # center / width above 709: exp((center - x) / width) could overflow at
    # spots near 0
    with pytest.raises(ValueError, match="center / width must be at most 709"):
        smooth_ramp(1.0, 1e-3)


@pytest.mark.parametrize("ratio", [300.0, 360.0, 500.0, _EXP_ARG_MAX])
def test_narrow_ramps_pass_the_derivative_check_up_to_the_exp_limit(ratio):
    # the finite-difference step 1e-4 x is up to 7% of such a ramp's width;
    # the check's tolerance includes its own truncation error
    for center, height in ((1.0, 1.0), (1.0, 2.5), (40.0, 0.3)):
        ramp = smooth_ramp(center, center / ratio, height)
        assert ramp(center) == 0.5 * height


@pytest.mark.parametrize("ratio", [10.0, 360.0, _EXP_ARG_MAX])
def test_narrow_ramp_with_a_slope_off_by_one_percent_is_refused(ratio):
    ramp = smooth_ramp(1.0, 1.0 / ratio)
    with pytest.raises(ValueError, match="h_prime inconsistent with h"):
        SmoothCustom(ramp.h, lambda x: 1.01 * ramp.h_prime(x), ramp.h_double_prime,
                     check_points=[0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# bs_price


def test_bs_price_atm_oracle():
    got = bs_price(100.0, Call(100.0), 0.2, 1.0)
    assert got == pytest.approx(BS_ATM_ORACLE, rel=1e-12)
    numeric = lognormal_trapezoid_price(
        100.0, lambda y: np.maximum(y - 100.0, 0.0), 0.2, 1.0
    )
    assert got == pytest.approx(numeric, rel=1e-7)


def test_bs_price_expiry_and_monotone_in_vol():
    assert bs_price(100.0, Call(90.0), 0.2, 0.0) == pytest.approx(10.0)
    ramp = smooth_ramp(1.0, 0.1)
    assert bs_price(0.7, ramp, 0.2, 0.0) == pytest.approx(float(ramp(0.7)))
    prices = [bs_price(100.0, Call(110.0), s, 1.0) for s in (0.1, 0.2, 0.3, 0.5)]
    assert np.all(np.diff(prices) > 0.0)


def test_bs_price_vectorized_in_spot():
    x = np.array([80.0, 100.0, 125.0])
    got = bs_price(x, Call(100.0), 0.2, 1.0)
    assert got.shape == (3,)
    for xi, gi in zip(x, got):
        assert gi == pytest.approx(bs_price(float(xi), Call(100.0), 0.2, 1.0))


@pytest.mark.parametrize("payoff", [Call(1.0), smooth_ramp(1.0, 0.1)],
                         ids=["call", "ramp"])
def test_bs_price_per_path_vols_match_scalar_calls(payoff):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.6, 1.5, 257)
    sigma = rng.uniform(0.05, 0.9, 257)
    got = bs_price(x, payoff, sigma, 0.8)
    want = np.array([bs_price(a, payoff, s, 0.8) for a, s in zip(x, sigma)])
    assert np.array_equal(got, want)
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError, match="sigma"):
            bs_price(x, payoff, np.where(np.arange(257) == 100, bad, sigma), 0.8)


@pytest.mark.parametrize("fn", [bs_price, bs_operator_greeks])
@pytest.mark.parametrize("x, sigma, tau, name", [
    (np.nan, 0.2, 1.0, "spot"),
    (np.array([1.0, np.inf]), 0.2, 1.0, "spot"),
    (1.0, 0.2, math.inf, "tau"),
    (1.0, np.array([0.2, np.nan]), 1.0, "sigma"),
    (1.0, math.inf, 1.0, "sigma"),
])
def test_non_finite_market_inputs_rejected(fn, x, sigma, tau, name):
    for payoff in (Call(1.0), smooth_ramp(1.0, 0.1)):
        with pytest.raises(ValueError, match=f"{name} must be"):
            fn(x, payoff, sigma, tau)


def test_bs_price_smooth_matches_trapezoid_oracle():
    ramp = smooth_ramp(1.0, 0.15)
    got = bs_price(0.9, ramp, 0.25, 0.7)
    want = lognormal_trapezoid_price(0.9, ramp.h, 0.25, 0.7)
    assert got == pytest.approx(want, rel=1e-9)


def lognormal_trapezoid_d12(x, hpp, sigma, tau, n=40001, z_range=10.0):
    """Dense-trapezoid twin of D12 = x^2 E[Z h''(x Y) Y^2] / (sigma sqrt(tau))."""
    z = np.linspace(-z_range, z_range, n)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    rt = sigma * math.sqrt(tau)
    y = np.exp(-0.5 * rt * rt + rt * z)
    return x * x * float(np.trapezoid(z * hpp(x * y) * y * y * phi, z)) / rt


@pytest.mark.parametrize("rt, q0_tol, d12_tol", [
    (0.3, 1e-10, 1e-7), (0.46, 1e-10, 1e-7), (0.53, 1e-9, 3e-6),
    (0.75, 5e-7, 1e-3),
])
def test_smooth_rule_accuracy_on_a_narrow_ramp(rt, q0_tol, d12_tol):
    # width 0.1, where the other smooth-payoff tests use 0.15; the rule's
    # error grows with sigma sqrt(tau), and D12 is measured against its
    # largest magnitude over the spots, since it crosses zero
    ramp = smooth_ramp(1.0, 0.1)
    spots = np.linspace(0.6, 1.6, 21)
    sigma, tau = rt / math.sqrt(0.8), 0.8
    q0 = bs_price(spots, ramp, sigma, tau)
    d12 = bs_operator_greeks(spots, ramp, sigma, tau)[1]
    want_q0 = [lognormal_trapezoid_price(x, ramp.h, sigma, tau) for x in spots]
    want_d12 = np.array([lognormal_trapezoid_d12(x, ramp.h_double_prime, sigma, tau)
                         for x in spots])
    assert np.max(np.abs(q0 - want_q0)) <= q0_tol
    assert np.max(np.abs(d12 - want_d12)) <= d12_tol * np.max(np.abs(want_d12))


def test_bs_price_validation():
    with pytest.raises(ValueError):
        bs_price(-1.0, Call(1.0), 0.2, 1.0)
    with pytest.raises(ValueError):
        bs_price(1.0, Call(1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        bs_price(1.0, Call(1.0), 0.2, -1.0)


# ---------------------------------------------------------------------------
# operator greeks


def fd_d2_d12(x, payoff, sigma, tau, step):
    """4th-order finite-difference oracle for (D2, D12) from bs_price."""

    def q(v):
        return bs_price(v, payoff, sigma, tau)

    def qxx(v):
        return (
            -q(v + 2 * step) + 16 * q(v + step) - 30 * q(v)
            + 16 * q(v - step) - q(v - 2 * step)
        ) / (12.0 * step**2)

    def g(v):
        return v * v * qxx(v)

    d2 = g(x)
    d12 = x * (
        -g(x + 2 * step) + 8 * g(x + step) - 8 * g(x - step) + g(x - 2 * step)
    ) / (12.0 * step)
    return d2, d12


def test_call_greeks_match_finite_differences():
    d2, d12 = bs_operator_greeks(100.0, Call(100.0), 0.2, 1.0)
    fd2, fd12 = fd_d2_d12(100.0, Call(100.0), 0.2, 1.0, step=0.1)
    assert d2 == pytest.approx(fd2, rel=1e-6)
    assert d12 == pytest.approx(fd12, rel=1e-6)
    assert d2 > 0.0


@pytest.mark.parametrize("strike", [80.0, 100.0, 125.0])
@pytest.mark.parametrize("tau", [0.25, 1.0, 3.0])
def test_call_greeks_grid_consistency(strike, tau):
    d2, d12 = bs_operator_greeks(100.0, Call(strike), 0.2, tau)
    fd2, fd12 = fd_d2_d12(100.0, Call(strike), 0.2, tau, step=0.1)
    assert d2 == pytest.approx(fd2, rel=1e-6)
    assert d12 == pytest.approx(fd12, rel=1e-6, abs=1e-10)


def test_smooth_greeks_match_finite_differences():
    ramp = smooth_ramp(1.0, 0.15)
    d2, d12 = bs_operator_greeks(1.05, ramp, 0.25, 0.8)
    fd2, fd12 = fd_d2_d12(1.05, ramp, 0.25, 0.8, step=5e-4)
    assert d2 == pytest.approx(fd2, rel=1e-6)
    assert d12 == pytest.approx(fd12, rel=1e-6)


def test_smooth_greeks_at_many_spots_match_scalar_calls():
    ramp = smooth_ramp(1.0, 0.1)
    x = np.random.default_rng(12).uniform(0.6, 1.5, 5000)
    got = bs_operator_greeks(x, ramp, 0.3, 0.8)
    want = np.array([bs_operator_greeks(a, ramp, 0.3, 0.8) for a in x]).T
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_call_greeks_homogeneity():
    lam = 1.7
    d2a, d12a = bs_operator_greeks(100.0, Call(95.0), 0.2, 1.0)
    d2b, d12b = bs_operator_greeks(lam * 100.0, Call(lam * 95.0), 0.2, 1.0)
    assert d2b == pytest.approx(lam * d2a, rel=1e-12)
    assert d12b == pytest.approx(lam * d12a, rel=1e-12)


def test_greeks_expiry_error():
    with pytest.raises(ValueError):
        bs_operator_greeks(100.0, Call(100.0), 0.2, 0.0)


# ---------------------------------------------------------------------------
# implied volatility


@pytest.mark.parametrize("sigma", [0.1, 0.2793, 0.5])
@pytest.mark.parametrize("moneyness", [0.8, 1.0, 1.25])
@pytest.mark.parametrize("tau", [0.25, 1.0, 4.0])
def test_implied_vol_roundtrip(sigma, moneyness, tau):
    x, strike = 1.0, moneyness
    price = bs_price(x, Call(strike), sigma, tau)
    assert implied_vol_invert(price, x, strike, tau) == pytest.approx(
        sigma, abs=1e-10
    )


@pytest.mark.parametrize("x", [1.0, 100.0])
@pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0, 30.0])
@pytest.mark.parametrize("sigma", [0.005, 0.05, 0.3, 2.0])
def test_implied_vol_reprices_within_docstring_bound(x, tau, sigma):
    # the docstring promises a repricing error within 1e-12 x
    checked = 0
    for k in (-1.5, -0.5, 0.0, 0.5, 1.5):
        strike = x * math.exp(k)
        price = bs_price(x, Call(strike), sigma, tau)
        if not (max(x - strike, 0.0) + 1e-14 * x < price < x - 1e-14 * x):
            continue  # too close to a bound to invert
        iv = implied_vol_invert(price, x, strike, tau)
        assert abs(bs_price(x, Call(strike), iv, tau) - price) <= 1e-12 * x
        checked += 1
    assert checked  # the at-the-money quote is never at a bound


def test_implied_vol_bound_errors_name_the_bound():
    with pytest.raises(ValueError, match="lower bound"):
        implied_vol_invert(9.0, 100.0, 90.0, 1.0)
    with pytest.raises(ValueError, match="upper bound"):
        implied_vol_invert(101.0, 100.0, 90.0, 1.0)
    with pytest.raises(ValueError):
        implied_vol_invert(5.0, 100.0, 100.0, 0.0)


def test_implied_vol_near_intrinsic_is_small():
    tighter = implied_vol_invert(10.0 + 1e-7, 100.0, 90.0, 1.0)
    looser = implied_vol_invert(10.0 + 1e-5, 100.0, 90.0, 1.0)
    assert 0.0 < tighter < looser < 0.06


def test_implied_vol_asymptotic_shape():
    mp = Model(eps=0.04, rho=-0.5)
    # rho = 0 collapses to sigma_bar
    assert implied_vol_asymptotic(Model(0.04, 0.0), GP, 1.0, 1.1, 0.0) == (
        pytest.approx(GP.sigma_bar, rel=1e-14)
    )
    # at the money the log term vanishes
    atm = implied_vol_asymptotic(mp, GP, 1.0, 1.0, 0.0)
    want = GP.sigma_bar + math.sqrt(mp.eps) * mp.rho * GP.d_bar / (2 * GP.sigma_bar)
    assert atm == pytest.approx(want, rel=1e-14)
    # exact affinity in log-moneyness with the displayed slope
    strikes = np.array([0.8, 1.0, 1.3])
    ivs = implied_vol_asymptotic(mp, GP, 1.0, strikes, 0.0)
    k = np.log(strikes)
    slope = (ivs[2] - ivs[0]) / (k[2] - k[0])
    want_slope = math.sqrt(mp.eps) * mp.rho * GP.d_bar / (GP.sigma_bar**3 * 1.0)
    assert slope == pytest.approx(want_slope, rel=1e-12)
    mid = ivs[0] + slope * (k[1] - k[0])
    assert ivs[1] == pytest.approx(mid, rel=1e-12)


def test_expansion_consistency_scaled_error_decreases():
    # |invert(q_eps) - asymptotic| / sqrt(eps) must decrease along dyadic eps
    strikes = Call(1.05)
    scaled = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        mp = Model(eps=eps, rho=-0.5)
        res = corrected_price(mp, GP, strikes, 0.0)
        scaled.append(
            abs(res.implied_vol_inverted - res.implied_vol_asymptotic)
            / math.sqrt(eps)
        )
    assert np.all(np.diff(scaled) < 0.0)


# ---------------------------------------------------------------------------
# corrected price


def test_corrected_price_identity_and_rho_zero():
    mp = Model(eps=0.05, rho=-0.5)
    res = corrected_price(mp, GP, Call(1.0), 0.0)
    assert res.q_eps == res.q0 + math.sqrt(mp.eps) * mp.rho * res.q1
    res0 = corrected_price(Model(0.05, 0.0), GP, Call(1.0), 0.0)
    assert res0.q_eps == res0.q0
    assert isinstance(res, PriceResult)


def test_corrected_price_at_expiry():
    mp = Model(eps=0.05, rho=-0.5, x0=1.2)
    res = corrected_price(mp, GP, Call(1.0), mp.maturity_T)
    assert res.q1 == 0.0
    assert res.q_eps == res.q0 == pytest.approx(0.2)
    assert res.implied_vol_inverted is None


def test_corrected_price_constant_vol_reduces_to_bs():
    gp0 = GroupParams(0.2, 0.0, 50.0, 0.2, 0.0, 0.0, 0.0)
    mp = Model(eps=0.05, rho=-0.7, x0=100.0)
    res = corrected_price(mp, gp0, Call(100.0), 0.0)
    assert res.q1 == 0.0
    assert res.q_eps == pytest.approx(BS_ATM_ORACLE, rel=1e-12)


def test_corrected_price_smooth_payoff():
    mp = Model(eps=0.05, rho=-0.5)
    ramp = smooth_ramp(1.0, 0.15)
    res = corrected_price(mp, GP, ramp, 0.0)
    assert res.implied_vol_inverted is None
    assert res.implied_vol_asymptotic is None
    assert res.q_eps == res.q0 + math.sqrt(mp.eps) * mp.rho * res.q1
    assert res.q1 != 0.0


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0])
def test_first_order_price_matches_corrected_price_at_each_spot(t):
    mp = Model(eps=0.05, rho=-0.5)
    spots = np.linspace(0.7, 1.4, 15)
    for payoff in (Call(1.0), smooth_ramp(1.0, 0.15)):
        got = np.array(first_order_price(spots, mp, GP, payoff,
                                         mp.maturity_T - t))
        assert got.shape == (3, spots.size)
        want = np.array([dataclasses.astuple(corrected_price(
            Model(eps=0.05, rho=-0.5, x0=float(x)), GP, payoff, t))[:3]
            for x in spots]).T
        assert np.array_equal(got, want)


def test_corrected_price_validation():
    mp = Model(eps=0.05, rho=-0.5)
    with pytest.raises(ValueError):
        corrected_price(mp, GP, Call(1.0), -0.1)
    with pytest.raises(ValueError):
        corrected_price(mp, GP, Call(1.0), 1.5)


# ---------------------------------------------------------------------------
# term structure


def test_zeta_exponent_values_and_continuity():
    assert zeta_exponent(0.3, "SlowMeanReverting") == pytest.approx(0.8)
    assert zeta_exponent(0.3, "FastMeanReverting") == 0.0
    assert zeta_exponent(0.7, "FastMeanReverting") == pytest.approx(0.2)
    assert zeta_exponent(0.3, "SmallAmplitude") == pytest.approx(0.8)
    # continuity of the fast-regime exponent at h = 1/2
    below = zeta_exponent(0.5 - 1e-9, "FastMeanReverting")
    above = zeta_exponent(0.5 + 1e-9, "FastMeanReverting")
    assert abs(below) < 1e-8 and abs(above) < 1e-8
    with pytest.raises(ValueError):
        zeta_exponent(0.0, "SlowMeanReverting")
    with pytest.raises(ValueError):
        zeta_exponent(0.3, "Sideways")


def test_term_structure_factor_validation():
    for times in ((-1.0, 50.0), (0.0, 50.0), (1.0, -50.0), (math.inf, 50.0),
                  (1.0, math.inf), (math.nan, 50.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            term_structure_factor(1.0, 0.3, *times)
    for tau in (np.array([1.0, -1.0]), np.array([1.0, math.nan]), math.inf):
        with pytest.raises(ValueError, match="tau must be positive"):
            term_structure_factor(tau, 0.3, 1.0, 1.0)


def quad_maturity_factor(tau, h, tau_mr, tau_bar):
    """The maturity factor by adaptive quadrature of its defining integral."""
    u = tau / tau_mr
    val = integrate.quad(lambda v: math.exp(-v) * (1.0 - v / u) ** (h + 1.5),
                         0.0, min(u, 50.0), limit=200)[0]
    return (tau / tau_bar) ** (h + 0.5) * (1.0 - val)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 0.45])
def test_term_structure_factor_matches_quadrature_on_whole_arrays(h):
    # the study's table, short and long maturities; past v = 50 the
    # quadrature's integrand is below 2e-22
    for eps in (0.05, 0.0125, 1e-3):
        taus = eps * np.concatenate([np.geomspace(1e-4, 1e4, 17),
                                     [1e-4, 2e-4, 5e-4, 1e-3, 1e3, 2e3, 5e3, 1e4]])
        got = term_structure_factor(taus, h, eps, 1.0)
        assert got.shape == taus.shape
        want = [quad_maturity_factor(t, h, eps, 1.0) for t in taus]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        one = term_structure_factor(float(taus[3]), h, eps, 1.0)
        assert type(one) is float and one == pytest.approx(got[3], rel=1e-15)


def test_term_structure_factor_limits():
    tau_mr, tau_bar, h = 2.0, 50.0, 0.3
    # short maturities: A -> (tau/tau_bar)^(H+1/2)
    tau = 0.01 * tau_mr
    ratio = (term_structure_factor(tau, h, tau_mr, tau_bar)
             / (tau / tau_bar) ** (h + 0.5))
    assert 0.98 < ratio <= 1.0
    # long maturities: log-log slope -> H - 1/2
    taus = np.array([1000.0, 1100.0]) * tau_mr
    vals = [term_structure_factor(t, h, tau_mr, tau_bar) for t in taus]
    slope = (math.log(vals[1]) - math.log(vals[0])) / math.log(taus[1] / taus[0])
    assert slope == pytest.approx(h - 0.5, abs=2e-3)
    # positive and continuous in tau
    near = [term_structure_factor(49.9 * tau_mr, h, tau_mr, tau_bar),
            term_structure_factor(50.1 * tau_mr, h, tau_mr, tau_bar)]
    assert abs(near[1] - near[0]) / abs(near[0]) < 1e-2
    with pytest.raises(ValueError):
        term_structure_factor(-1.0, h, tau_mr, tau_bar)
    with pytest.raises(ValueError):
        term_structure_factor(1.0, 1.5, tau_mr, tau_bar)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 0.45])
def test_maturity_factor_is_the_integrated_kernel_horizon_term(h):
    # eps int_0^(tau/eps) IK(v) dv = tau eps^-(H+1/2) A(tau)
    #                                / (sigma_ou Gamma(H+5/2)),
    # with A the maturity factor at tau_mr = eps and tau_bar = 1
    ke = KernelEval(h)
    for eps in (0.05, 0.0125):
        for tau in (1e-3, 0.1, 1.0, 10.0):
            u = tau / eps
            breaks = [p for p in (1.0, 60.0, 600.0) if p < u] or None
            lhs = eps * integrate.quad(ke.integrated_K, 0.0, u, points=breaks,
                                       epsabs=0.0, epsrel=1e-13, limit=500)[0]
            rhs = (tau * eps ** -(h + 0.5) * term_structure_factor(tau, h, eps, 1.0)
                   / (ke.sigma_ou * special.gamma(h + 2.5)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=0.0), (eps, tau)
