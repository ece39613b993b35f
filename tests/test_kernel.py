"""Tests for the kernel and covariance evaluators.

Reference values marked "frozen oracle" were computed independently with
40-digit arbitrary-precision arithmetic (mpmath) from the defining integrals
before this module was implemented.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from roughvol.kernel import (
    CovarianceEval,
    KernelEval,
    _SPLIT_POINT,
    bivariate_expect,
    cov_RL,
    gamma_reflect,
    gaussian_expect,
    jittered_cholesky,
    sigma_ou,
)
from roughvol.gaussfunc import cov_sigma, psi_of_C

# ---------------------------------------------------------------------------
# frozen oracle values (arbitrary-precision evaluation of the defining forms)
# ---------------------------------------------------------------------------

KERNEL_ORACLE = {
    0.1: {
        0.1: 1.1183263053632265,
        0.5: 0.2669728371929889,
        1.0: 0.034418093135670515,
        2.0: -0.061942744371141445,
        5.0: -0.032243558693718454,
        10.0: -0.010052714148164049,
        50.0: -0.00090920184414076525,
        200.0: -0.00012771436139395515,
        1000.0: -1.3342108047927816e-05,
    },
    0.25: {
        0.1: 1.5083184152914697,
        0.5: 0.56935729344083255,
        1.0: 0.20592338379478085,
        2.0: -0.01514485755266781,
        5.0: -0.04176436557763698,
        10.0: -0.015944001703323461,
    },
    0.3: {
        0.1: 1.5267831963977335,
        0.5: 0.65425461937151914,
        1.0: 0.27329675310566373,
        2.0: 0.01703368733146352,
        5.0: -0.038674908732749671,
        10.0: -0.015990544015080551,
        50.0: -0.0020488022761529053,
        200.0: -0.00038095710670264216,
        1000.0: -5.4954989132209584e-05,
    },
    0.4: {
        1.0: 0.40620728151614589,
    },
}

CZ_ORACLE = {
    0.1: {
        0.01: 0.56644533484918463,
        0.1: 0.31520818177113544,
        1.0: 0.0097452215306895972,
        5.0: -0.011159778142714396,
        10.0: -0.0029368588257628706,
        30.0: -0.00038446413485337194,
        100.0: -4.3794211230328288e-05,
        1000.0: -6.9374468315655859e-07,
    },
    0.25: {
        0.01: 0.88720907467689966,
        0.1: 0.64722720764643346,
        1.0: 0.094152655742927798,
        5.0: -0.02643751574619699,
        10.0: -0.0093140681839740897,
    },
    0.3: {
        0.01: 0.92943313722359011,
        0.1: 0.72320394276700916,
        1.0: 0.13818097373110814,
        5.0: -0.028475740403733909,
        10.0: -0.011105409519767775,
        30.0: -0.002305609621607657,
        100.0: -0.00042584871557430708,
        1000.0: -1.6947696713613374e-05,
    },
    0.4: {
        1.0: 0.24439958601076575,
    },
}

IK_ORACLE = {
    0.1: {
        1.0: 0.493486466121,
        5.0: 0.309554759285,
        25.0: 0.148149032046,
        100.0: 0.0840067049754,
        1000.0: 0.0333218679928,
    },
    0.3: {
        1.0: 0.819288013043,
        5.0: 0.830558128081,
        25.0: 0.578775185517,
        100.0: 0.435846438018,
        1000.0: 0.274499839925,
    },
}

ZERO_CROSSING_ORACLE = {0.1: 1.1675137409, 0.25: 1.84743201098, 0.3: 2.17271848658, 0.4: 3.17028022997}

ABS_INTEGRAL_ORACLE = {0.1: 0.992385952802, 0.25: 1.66479814378, 0.3: 1.87104591292, 0.4: 2.29991378554}

Q0_ORACLE = {  # int_0^(1/8) K^2
    0.1: 0.861365906553,
    0.25: 0.598358635662,
    0.3: 0.510084861378,
    0.4: 0.3497467234,
}


class BoundedRamp:
    """Minimal monotone bounded test function (independent of gaussfunc)."""

    def __init__(self, lo=0.1, hi=0.3, slope=1.0):
        self.lo, self.hi, self.slope = lo, hi, slope

    def __call__(self, z):
        return self.lo + (self.hi - self.lo) * special.expit(self.slope * np.asarray(z, float))


# ---------------------------------------------------------------------------
# sigma_ou and Hurst-exponent validation
# ---------------------------------------------------------------------------


def test_sigma_ou_quarter():
    assert sigma_ou(0.25) ** 2 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_sigma_ou_golden_ratio():
    # 2 sin(pi/10) = 1/phi, so sigma_ou(0.1)^2 equals the golden ratio
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert sigma_ou(0.1) ** 2 == pytest.approx(phi, rel=1e-12)
    assert sigma_ou(0.1) ** 2 == pytest.approx(1.6180339887498948482, rel=1e-14)


def test_sigma_ou_near_half_limit():
    assert sigma_ou(0.5 - 1e-9) ** 2 == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("bad", [-0.1, 0.0, 0.5, 0.7, 1.0])
def test_hurst_domain_rejected(bad):
    with pytest.raises(ValueError):
        sigma_ou(bad)
    with pytest.raises(ValueError):
        KernelEval(bad)


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", sorted(KERNEL_ORACLE))
def test_kernel_spot_values(h):
    ke = KernelEval(h)
    for t, expected in KERNEL_ORACLE[h].items():
        assert ke.kernel_K(t) == pytest.approx(expected, rel=5e-11, abs=1e-16), (h, t)


def test_kernel_vectorized_matches_scalar():
    ke = KernelEval(0.3)
    ts = np.array([0.1, 0.9, 1.5, 30.0, 80.0, 500.0])
    vec = ke.kernel_K(ts)
    for t, v in zip(ts, vec):
        assert v == pytest.approx(ke.kernel_K(float(t)), rel=1e-13)


def test_kernel_singular_at_origin():
    ke = KernelEval(0.2)
    with pytest.raises(ValueError, match="singular"):
        ke.kernel_K(0.0)
    with pytest.raises(ValueError):
        ke.kernel_K(-1.0)


def test_kernel_split_agreement():
    for h in (0.1, 0.25, 0.4):
        ke = KernelEval(h)
        assert abs(ke.kernel_small(_SPLIT_POINT) - ke.kernel_large(_SPLIT_POINT)) < 1e-8


@pytest.mark.parametrize("h", [0.1, 0.25, 0.4])
def test_kernel_small_time_power_law(h):
    ke = KernelEval(h)
    for t in (1e-6, 1e-4):
        ratio = ke.kernel_K(t) * ke.sigma_ou * special.gamma(h + 0.5) * t ** (0.5 - h)
        assert ratio == pytest.approx(1.0, abs=2e-4)


@pytest.mark.parametrize("h", [0.1, 0.25, 0.4])
def test_kernel_large_time_power_law(h):
    ke = KernelEval(h)
    t = 1000.0
    ratio = ke.kernel_K(t) * ke.sigma_ou * gamma_reflect(h - 0.5) * t ** (1.5 - h)
    assert ratio == pytest.approx(1.0, abs=5e-3)
    # the tail is genuinely negative (Gamma(H-1/2) < 0); do not "fix" signs
    assert ke.kernel_K(t) < 0.0


def _kernel_oracle(mpmath, h, t):
    """``K(t)`` from the Kummer form in the ambient mpmath precision."""
    a = mpmath.mpf(h) + mpmath.mpf(1) / 2
    t = mpmath.mpf(t)
    norm = (mpmath.sqrt(1 / (2 * mpmath.sin(mpmath.pi * mpmath.mpf(h))))
            * mpmath.gamma(a))
    return (t ** (a - 1) - mpmath.exp(-t) * t**a * mpmath.hyp1f1(a, a + 1, t) / a) / norm


@pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 0.45])
def test_kernel_matches_mpmath_oracle(h):
    mpmath = pytest.importorskip("mpmath")
    ke = KernelEval(h)
    # the fixed-rule range (1, 60), ends included, then all routes
    # over t in [1e-6, 1e4] with both switch points (t = 1, t = 60) straddled
    mid = np.concatenate((np.geomspace(1.001, 59.9, 25),
                          [np.nextafter(1.0, 2.0), np.nextafter(60.0, 0.0)]))
    ts = np.concatenate((mid, np.geomspace(1e-6, 1e4, 41), [1.0, 60.0]))
    with mpmath.workdps(40):
        ref = np.array([float(_kernel_oracle(mpmath, h, t)) for t in ts])
    assert np.max(np.abs(ke.kernel_large(mid) - ref[: mid.size])) <= 1e-13
    got = ke.kernel_K(ts)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


# ---------------------------------------------------------------------------
# normalization and integrated kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", [0.1, 0.25, 0.4])
def test_kernel_l2_normalization(h):
    ke = KernelEval(h)
    total = ke.ksq_cum(50.0) + ke.ksq_tail(50.0)
    assert abs(total - 1.0) < 1e-6


def test_ksq_cum_tail_consistency():
    ke = KernelEval(0.3)
    for t in (0.125, 1.0, 10.0, 59.0, 100.0):
        assert ke.ksq_cum(t) + ke.ksq_tail(t) == pytest.approx(1.0, abs=1e-8)


def test_ksq_cum_grid_matches_pointwise():
    ke = KernelEval(0.3)
    delta = 1.25  # nodes on both sides of the split point and of t = 60
    grid = ke.ksq_cum_grid(delta, 64)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0.0)
    for k in (1, 3, 20, 47, 48, 64):
        assert grid[k] == pytest.approx(ke.ksq_cum(k * delta), abs=1e-10)
    with pytest.raises(ValueError):
        ke.ksq_cum_grid(0.0, 4)
    with pytest.raises(ValueError):
        ke.ksq_cum_grid(0.5, 0)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 0.45])
def test_ksq_cum_matches_mpmath_oracle(h):
    mpmath = pytest.importorskip("mpmath")
    ke = KernelEval(h)
    with mpmath.workdps(30):
        hm = mpmath.mpf(h)
        p = 1 / (2 * hm)
        # u = v^(1/(2H)) turns the u^(2H-1) endpoint singularity of K^2 into
        # a bounded integrand; plain quadrature in u is off by up to 4e-4
        head = mpmath.quad(
            lambda v: _kernel_oracle(mpmath, h, v**p) ** 2 * p * v ** (p - 1), [0, 1])
        edges = [1, 2, 4, 8, 16, 30, 45, 59.5]
        pieces = [mpmath.quad(lambda u: _kernel_oracle(mpmath, h, u) ** 2, [lo, hi])
                  for lo, hi in zip(edges[:-1], edges[1:])]
        ref = {2.0: head + pieces[0], 30.0: head + sum(pieces[:5]),
               59.5: head + sum(pieces)}
    assert ke.ksq_first_cell(1.0) == pytest.approx(float(head), abs=1e-13)
    for t, expected in ref.items():
        assert ke.ksq_cum(t) == pytest.approx(float(expected), abs=1e-11), t
    vec = ke.ksq_cum(np.array(sorted(ref)))
    assert np.allclose(vec, [ke.ksq_cum(t) for t in sorted(ref)], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("h", [0.05, 0.3, 0.45])
def test_ksq_tail_series_matches_mpmath_oracle(h):
    mpmath = pytest.importorskip("mpmath")
    ke = KernelEval(h)

    def ksq(u):
        # the Kummer bracket cancels ~log10(u) digits; carry that many extra
        with mpmath.extradps(int(mpmath.log10(u)) + 10):
            return _kernel_oracle(mpmath, h, u) ** 2

    ts = [60.0, 100.0, 1e3, 1e4]
    with mpmath.workdps(30):
        ref = [float(mpmath.quad(ksq, [t, 10 * t, mpmath.inf])) for t in ts]
    for t, expected in zip(ts, ref):
        assert ke.ksq_tail(t) == pytest.approx(expected, rel=1e-13), t
    assert np.allclose(ke.ksq_tail(np.array(ts)), ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("h", sorted(Q0_ORACLE))
def test_first_cell_squared_mass(h):
    ke = KernelEval(h)
    assert ke.ksq_first_cell(0.125) == pytest.approx(Q0_ORACLE[h], rel=1e-8)


@pytest.mark.parametrize("h", sorted(IK_ORACLE))
def test_integrated_kernel_spots(h):
    ke = KernelEval(h)
    for t, expected in IK_ORACLE[h].items():
        assert ke.integrated_K(t) == pytest.approx(expected, rel=1e-9), (h, t)


def test_integrated_kernel_asymptotic_branch_continuity():
    ke = KernelEval(0.3)
    # values straddling the hypergeometric/asymptotic switch agree smoothly:
    # the jump across the switch must equal the true integral of K there
    below, above = ke.integrated_K(599.0), ke.integrated_K(601.0)
    mid = ke.integrated_K(600.0)
    assert below > mid > above  # decreasing toward 0 in the negative-tail region
    assert above - below == pytest.approx(2.0 * ke.kernel_K(600.0), rel=1e-5)


def test_integrated_kernel_total_mass_zero():
    # int_0^infty K = 0: the running integral decays like t^(H-1/2)
    for h in (0.1, 0.3, 0.4):
        ke = KernelEval(h)
        t = 1e7
        assert abs(ke.integrated_K(t)) < 2.0 * t ** (h - 0.5)


def test_cell_masses_match_integrated_K():
    ke = KernelEval(0.3)
    delta = 0.125
    masses = ke.cell_masses(delta, 400)
    ik = ke.integrated_K(delta * np.arange(1, 401))
    assert np.allclose(np.cumsum(masses), ik, rtol=1e-9, atol=1e-12)
    assert masses[0] == pytest.approx(ke.integrated_K(delta), rel=1e-12)


def test_cell_masses_validation():
    ke = KernelEval(0.3)
    with pytest.raises(ValueError):
        ke.cell_masses(0.0, 5)
    with pytest.raises(ValueError):
        ke.cell_masses(0.1, 0)


def test_zero_crossing_and_abs_integral():
    for h, t_star in ZERO_CROSSING_ORACLE.items():
        ke = KernelEval(h)
        assert ke.zero_crossing() == pytest.approx(t_star, rel=1e-8)
        assert ke.abs_integral() == pytest.approx(ABS_INTEGRAL_ORACLE[h], rel=1e-8)


# ---------------------------------------------------------------------------
# covariance C_Z
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", sorted(CZ_ORACLE))
def test_cz_time_domain_spots(h):
    ce = CovarianceEval(h)
    for s, expected in CZ_ORACLE[h].items():
        assert ce.cov_CZ(s) == pytest.approx(expected, rel=1e-9, abs=1e-14), (h, s)


def _cz_oracle(mpmath, h, s):
    """``C_Z(s)``, ``s > 0``, from the kink-split closed form in the ambient
    mpmath precision."""
    h, s = mpmath.mpf(h), mpmath.mpf(s)
    b = 2 * h + 1
    gb = mpmath.gamma(b)
    upper = mpmath.exp(s) * mpmath.gammainc(b, s)
    lower = mpmath.exp(-s) * s**b / b * mpmath.hyp1f1(b, b + 1, s)
    return (0.5 * (upper + lower + mpmath.exp(-s) * gb) - s ** (2 * h)) / gb


@pytest.mark.parametrize("h", [0.01, 0.1, 0.3, 0.49])
def test_cz_matches_mpmath_oracle(h):
    mpmath = pytest.importorskip("mpmath")
    ce = CovarianceEval(h)
    # dense lags over [1e-12, 1e4], straddling the series switch at s = 30
    lags = np.concatenate((np.geomspace(1e-12, 1e4, 161), np.linspace(28.0, 32.0, 41),
                           [np.nextafter(30.0, 0.0), np.nextafter(30.0, 31.0)]))
    with mpmath.workdps(40):
        ref = np.array([float(_cz_oracle(mpmath, h, s)) for s in lags])
    # the 8-term series is least accurate just past the switch (6e-13 at H 0.3)
    assert np.max(np.abs(ce.cov_CZ(lags) - ref)) <= 1e-12
    # negative lags, zero and a 2-D input: |s| symmetry, C_Z(0) = 1, shape kept
    grid = np.concatenate(([0.0], -lags[:39], lags[:40])).reshape(4, 20)
    got = ce.cov_CZ(grid)
    assert got.shape == (4, 20)
    assert got[0, 0] == 1.0
    assert np.array_equal(got.ravel()[1:40], ce.cov_CZ(lags[:39]))
    assert np.array_equal(got.ravel()[40:], ce.cov_CZ(lags[:40]))
    # a 0-d input returns a float equal to the array route's entry
    for s in (0.0, -2.5, 30.0, 1e3):
        one = ce.cov_CZ(np.float64(s))
        assert type(one) is float
        assert one == ce.cov_CZ(np.array([s]))[0]


def test_cz_zero_and_symmetry():
    ce = CovarianceEval(0.3)
    assert ce.cov_CZ(0.0) == 1.0
    assert ce.cov_CZ(-2.5) == ce.cov_CZ(2.5)
    assert abs(ce.cov_CZ(3.0)) <= 1.0


def test_cz_nonfinite_rejected():
    ce = CovarianceEval(0.3)
    with pytest.raises(ValueError):
        ce.cov_CZ(np.inf)


def test_cz_representation_agreement():
    for h in (0.1, 0.25, 0.4):
        ce = CovarianceEval(h)
        for s in (0.01, 0.1, 1.0, 5.0, 10.0):
            assert abs(ce.cov_CZ(s) - ce.cov_CZ_spectral(s)) < 1e-6, (h, s)


@pytest.mark.parametrize("h", [0.1, 0.25, 0.4])
def test_cz_short_lag_expansion(h):
    ce = CovarianceEval(h)
    s = 1e-3
    ratio = (1.0 - ce.cov_CZ(s)) * special.gamma(2 * h + 1.0) / s ** (2 * h)
    assert 0.98 <= ratio <= 1.02


@pytest.mark.parametrize("h", [0.1, 0.25, 0.4])
def test_cz_long_lag_expansion(h):
    ce = CovarianceEval(h)
    s = 1e3
    ratio = ce.cov_CZ(s) * gamma_reflect(2 * h - 1.0) / s ** (2 * h - 2.0)
    assert 0.95 <= ratio <= 1.05
    assert ce.cov_CZ(s) < 0.0  # eventually negative, by the sign of Gamma(2H-1)


def test_cz_integrability_cauchy():
    """int_0^S |C_Z| is Cauchy: dyadic increments shrink at the integrable rate.

    The tail of |C_Z| is ~ s^(2H-2) with 2H-2 < -1, so the increment over
    [S, 2S] scales like S^(2H-1) -> 0; the measured ratios must match.
    """
    h = 0.3
    ce = CovarianceEval(h)

    def increment(lo, hi):
        s = np.linspace(lo, hi, 801)
        vals = np.abs(ce.cov_CZ(s))
        return float(np.trapezoid(vals, s))

    incs = [increment(s0, 2 * s0) for s0 in (100.0, 200.0, 400.0, 800.0)]
    assert incs[0] > incs[1] > incs[2] > incs[3] > 0.0
    expected_ratio = 2.0 ** (2 * h - 1.0)
    for a, b in zip(incs[:-1], incs[1:]):
        assert b / a == pytest.approx(expected_ratio, rel=0.05)


def test_gamma_reflect_matches_positive():
    for x in (0.3, 1.7, 2.5):
        assert gamma_reflect(x) == pytest.approx(float(special.gamma(x)), rel=1e-13)
    assert gamma_reflect(-0.4) < 0.0
    with pytest.raises(ValueError):
        gamma_reflect(-1.0)


def cz_matrix_cholesky(times, eps: float, ce: CovarianceEval):
    """Covariance matrix ``sigma_ou^2 C_Z((t_i - t_j)/eps)`` with its
    jittered Cholesky factor and the jitter, relative to the largest
    diagonal entry."""
    so2 = sigma_ou(ce.hurst) ** 2
    lags = np.abs(times[:, None] - times[None, :]) / eps
    unique, inverse = np.unique(lags.ravel(), return_inverse=True)
    cov = so2 * ce.cov_CZ(unique)[inverse].reshape(lags.shape)
    return (cov, *jittered_cholesky(cov))


def test_psd_cholesky_512_grid():
    ce = CovarianceEval(0.3)
    times = np.linspace(0.0, 1.0, 512)
    cov, chol, jitter = cz_matrix_cholesky(times, eps=0.05, ce=ce)
    assert jitter <= 1e-10
    assert cov[0, 0] == pytest.approx(sigma_ou(0.3) ** 2, rel=1e-12)
    recon = chol @ chol.T
    assert np.max(np.abs(recon - cov)) < 1e-8


# ---------------------------------------------------------------------------
# psi_of_C
# ---------------------------------------------------------------------------


def test_psi_trivial_endpoints():
    f = BoundedRamp()
    h = 0.3
    assert psi_of_C(0.0, f, h) == pytest.approx(0.0, abs=1e-14)
    so = sigma_ou(h)
    mean = gaussian_expect(lambda z: f(so * z))
    mean2 = gaussian_expect(lambda z: f(so * z) ** 2)
    assert psi_of_C(1.0, f, h) == pytest.approx(mean2 - mean**2, rel=1e-10)


def test_psi_domain_and_order_validation():
    f = BoundedRamp()
    with pytest.raises(ValueError):
        psi_of_C(1.5, f, 0.3)


def test_psi_degenerate_branch_continuous():
    f = BoundedRamp()
    assert psi_of_C(1.0 - 1e-12, f, 0.3) == pytest.approx(psi_of_C(1.0, f, 0.3), abs=1e-8)
    assert psi_of_C(-1.0 + 1e-12, f, 0.3) == pytest.approx(psi_of_C(-1.0, f, 0.3), abs=1e-8)


def test_psi_brute_force_oracle():
    """Dense trapezoid quadrature on [-8,8]^2 as an independent oracle."""
    f = BoundedRamp()
    h, c = 0.3, 0.5
    so = sigma_ou(h)
    grid = np.linspace(-8.0, 8.0, 1601)
    pdf1 = np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
    mean_f = np.trapezoid(f(so * grid) * pdf1, grid)
    z1 = grid[:, None]
    z2 = grid[None, :]
    det = 1.0 - c * c
    dens = np.exp(-(z1**2 - 2 * c * z1 * z2 + z2**2) / (2 * det)) / (
        2.0 * math.pi * math.sqrt(det)
    )
    fc1 = f(so * z1) - mean_f
    fc2 = f(so * z2) - mean_f
    oracle = np.trapezoid(np.trapezoid(fc1 * fc2 * dens, grid, axis=1), grid)
    assert psi_of_C(c, f, h) == pytest.approx(oracle, abs=1e-8)


def test_psi_reflection_symmetry():
    f = BoundedRamp(0.1, 0.3, 1.3)

    def reflected(z):
        return f(-np.asarray(z))

    for c in (0.2, 0.7):
        assert psi_of_C(c, f, 0.25) == pytest.approx(psi_of_C(c, reflected, 0.25), rel=1e-10)


def test_psi_bounded_by_variance():
    f = BoundedRamp()
    top = psi_of_C(1.0, f, 0.3)
    for c in np.linspace(0.0, 1.0, 11):
        assert psi_of_C(float(c), f, 0.3) <= top + 1e-12


# ---------------------------------------------------------------------------
# cov_sigma and cov_RL
# ---------------------------------------------------------------------------


class _MiniParams:
    def __init__(self, hurst, eps, vol_fn):
        self.hurst, self.eps, self.vol_fn = hurst, eps, vol_fn


def test_cov_sigma_zero_lag_variance():
    f = BoundedRamp()
    mp = _MiniParams(0.3, 0.05, f)
    so = sigma_ou(0.3)
    mean = gaussian_expect(lambda z: f(so * z))
    mean2 = gaussian_expect(lambda z: f(so * z) ** 2)
    assert cov_sigma(0.0, mp) == pytest.approx(mean2 - mean**2, rel=1e-10)
    with pytest.raises(ValueError):
        cov_sigma(-1.0, mp)


def test_cov_sigma_short_lag_ratio():
    f = BoundedRamp()
    h, eps = 0.3, 1.0
    mp = _MiniParams(h, eps, f)
    so = sigma_ou(h)
    var_f = psi_of_C(1.0, f, h)
    mean_fp2 = gaussian_expect(
        lambda z: (0.2 * f.slope * special.expit(f.slope * so * z)
                   * (1.0 - special.expit(f.slope * so * z))) ** 2
    )
    u = 1e-3
    ratio = (
        (var_f - cov_sigma(u, mp))
        * special.gamma(2 * h + 1.0)
        / (so**2 * mean_fp2 * u ** (2 * h))
    )
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_cov_sigma_long_lag_ratio():
    f = BoundedRamp()
    h, eps = 0.3, 1.0
    mp = _MiniParams(h, eps, f)
    so = sigma_ou(h)
    mean_fp = gaussian_expect(
        lambda z: 0.2 * f.slope * special.expit(f.slope * so * z)
        * (1.0 - special.expit(f.slope * so * z))
    )
    u = 500.0
    ratio = cov_sigma(u, mp) * gamma_reflect(2 * h - 2.0 + 1.0) / (
        so**2 * mean_fp**2 * u ** (2 * h - 2.0)
    )
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_cov_rl_trivial_and_convergence():
    ke = KernelEval(0.3)
    ce = CovarianceEval(0.3)
    assert cov_RL(0.0, 1.0, ke) == 0.0
    assert cov_RL(50.0, 1.0, ke) == pytest.approx(ce.cov_CZ(1.0), abs=1e-3)
    with pytest.raises(ValueError):
        cov_RL(-1.0, 0.0, ke)


def test_cov_rl_zero_lag_is_running_l2_mass():
    ke = KernelEval(0.25)
    assert cov_RL(5.0, 0.0, ke) == pytest.approx(ke.ksq_cum(5.0), rel=1e-10)


@pytest.mark.parametrize("hurst", [0.3, 0.05])
def test_cov_rl_matches_adaptive_quad(hurst):
    # reference: adaptive quad of K(u) K(u + s), in w = u^a on [0, min(t, 1)]
    # (where K(u) u' is smooth) and in u on [1, t]
    ke = KernelEval(hurst)
    a = ke._a

    def head(w, s):
        u = w ** (1.0 / a)
        return ke.kernel_K(u) * ke.kernel_K(u + s) * u / (a * w)

    # tolerances past double precision: quad warns that it stops at roundoff
    opts = dict(epsabs=1e-16, epsrel=1e-15, limit=200)
    for t, s in [(0.3, 0.5), (0.9, 0.05), (5.0, 2.0), (20.0, 0.1), (50.0, 1.0),
                 (80.0, 2.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            ref = integrate.quad(head, 0.0, min(t, 1.0) ** a, args=(s,), **opts)[0]
            if t > 1.0:
                ref += integrate.quad(
                    lambda u: ke.kernel_K(u) * ke.kernel_K(u + s), 1.0, t, **opts)[0]
        assert abs(cov_RL(t, s, ke) - ref) < 1e-13, (t, s)


def test_cov_rl_monotone_convergence():
    ke = KernelEval(0.3)
    ce = CovarianceEval(0.3)
    target = ce.cov_CZ(2.0)
    errors = [abs(cov_RL(t, 2.0, ke) - target) for t in (5.0, 20.0, 80.0)]
    assert errors[0] > errors[1] > errors[2]


def test_bivariate_expect_independent_product():
    f = BoundedRamp()
    a = bivariate_expect(f, f, 0.0)
    m = gaussian_expect(f)
    assert a == pytest.approx(m * m, rel=1e-12)


def test_gh_nodes_built_once_and_read_only():
    from roughvol.kernel import _gh_nodes

    nodes, weights = _gh_nodes(37)
    again = _gh_nodes(37)
    assert again[0] is nodes and again[1] is weights
    assert nodes.shape == weights.shape == (37,)
    assert weights.sum() == pytest.approx(1.0, rel=1e-13)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ValueError):
        _gh_nodes(321)
