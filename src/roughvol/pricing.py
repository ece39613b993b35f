"""Option pricing: leading order, first-order correction, implied volatility.

The corrected price is

    Q^eps(x) = Q0(x) + sqrt(eps) * rho * Q1(x),
    Q1(x)    = (T - t) * d_bar * (x d/dx (x^2 d^2/dx^2)) Q0(x),

where ``Q0`` is the zero-rate Black--Scholes price at the effective
volatility ``sigma_bar``; :func:`first_order_price` alone forms ``Q1`` and
``Q^eps``.  Every Black--Scholes price, at one vol or one per path, takes
one route: the closed formula for calls, and for smooth payoffs one
121-node trapezoid rule in the standard-normal variable, summed row by
row, so a spot priced alone has the bits it has inside any batch.  The
induced implied-volatility expansion is affine in log-moneyness,

    I = sigma_bar + sqrt(eps) rho d_bar [1/(2 sigma_bar)
        + log(K/x) / (sigma_bar^3 (T-t))],

and the term-structure utilities expose the characteristic exponent
``zeta`` of the three regimes and the maturity factor ``A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize, special

__all__ = [
    "Call",
    "SmoothCustom",
    "smooth_ramp",
    "PriceResult",
    "bs_price",
    "bs_operator_greeks",
    "first_order_price",
    "corrected_price",
    "implied_vol_invert",
    "implied_vol_asymptotic",
    "zeta_exponent",
    "term_structure_factor",
]

# The rule for smooth-payoff lognormal expectations: the trapezoid rule of
# N(0, 1) at step 1/6 on |zeta| <= 10 (phi(10) is 8e-23).  It converges
# geometrically for integrands analytic in a strip (Trefethen & Weideman,
# SIAM Review 56, 2014).
_ZETA = np.arange(-60, 61) / 6.0
_W = np.exp(-0.5 * _ZETA * _ZETA) / (6.0 * math.sqrt(2.0 * math.pi))
_ZETA.flags.writeable = _W.flags.writeable = False

_EXP_ARG_MAX = 709.0  # largest exponent smooth_ramp gives exp; exp(709.79) overflows

_REGIMES = ("FastMeanReverting", "SlowMeanReverting", "SmallAmplitude")


def _norm_pdf(d):
    return np.exp(-0.5 * np.square(d)) / math.sqrt(2.0 * math.pi)


class Call:
    """European call payoff ``h(x) = max(x - strike, 0)``."""

    def __init__(self, strike: float):
        if not (strike > 0.0):
            raise ValueError(f"strike must be positive; got {strike!r}")
        self.strike = float(strike)

    def __call__(self, x):
        return np.maximum(np.asarray(x, dtype=float) - self.strike, 0.0)

    def __repr__(self):
        return f"Call(strike={self.strike})"


class SmoothCustom:
    """Smooth payoff given by ``h`` with its first two derivatives.

    The derivatives are cross-checked against central finite differences of
    ``h`` at construction; inconsistent handles raise ``ValueError``.  The
    differences are taken at the steps ``s = 1e-4 x`` and ``s / 2``, and the
    tolerance includes their gap, which estimates the truncation error of
    the finer one, so a payoff narrow against ``s`` is not refused.

    Parameters
    ----------
    h, h_prime, h_double_prime : callable
        Vectorized payoff and derivatives on (0, inf).
    check_points : array_like, optional
        Spots used for the finite-difference validation (default a
        geometric sweep of (0.25, 0.5, 1, 2, 4)).
    """

    def __init__(
        self,
        h: Callable,
        h_prime: Callable,
        h_double_prime: Callable,
        check_points=None,
    ):
        self.h = h
        self.h_prime = h_prime
        self.h_double_prime = h_double_prime
        pts = np.asarray(
            [0.25, 0.5, 1.0, 2.0, 4.0] if check_points is None else check_points,
            dtype=float,
        )
        if pts.size == 0 or np.any(pts <= 0.0):
            raise ValueError("check_points must be positive and non-empty")
        scale = float(np.max(np.abs(h(pts)))) + 1.0

        def differences(x, step):
            lo, mid, hi = h(x - step), h(x), h(x + step)
            return (hi - lo) / (2.0 * step), (hi - 2.0 * mid + lo) / step**2

        for x in pts:
            coarse, fine = differences(x, 1e-4 * x), differences(x, 0.5e-4 * x)
            checks = (("h_prime", h_prime, 1e-4 * scale / x, 1e-4),
                      ("h_double_prime", h_double_prime, 1e-3 * scale / x**2, 1e-3))
            for (name, fn, floor, rel), fd, gap in zip(
                    checks, fine, np.subtract(coarse, fine)):
                # the gap is about three times the error of the finer step
                if abs(fn(x) - fd) > rel * abs(fd) + floor + abs(gap):
                    raise ValueError(f"{name} inconsistent with h at x={x}: "
                                     f"{fn(x)!r} vs finite difference {fd!r}")

    def __call__(self, x):
        return self.h(np.asarray(x, dtype=float))


def smooth_ramp(center: float, width: float, height: float = 1.0) -> SmoothCustom:
    """Bounded C-infinity ramp payoff ``h(x) = height * p(x)``, with the
    logistic ``p(x) = 1 / (1 + exp((center - x) / width))``.

    A smooth, bounded stand-in for a digital/call-spread profile; its
    derivatives are analytic, making it the strict test case for the
    smooth-payoff pricing proposition.  ``p`` is formed on NumPy's
    ``exp``, whose exponent is at most ``center / width`` at spots ``x >=
    0``; a ramp is refused where that passes ``_EXP_ARG_MAX``, so ``exp``
    never overflows there.
    """
    if not (center > 0.0 and width > 0.0 and height > 0.0):
        raise ValueError("center, width, height must all be positive")
    if center / width > _EXP_ARG_MAX:
        raise ValueError(
            f"center / width must be at most {_EXP_ARG_MAX}; got {center / width!r}")
    slope, curve = height / width, height / width**2

    def logistic(x, top=1.0):
        """``top / (1 + exp((center - x) / width))``, in place on one copy
        of an array ``x``."""
        p = center - np.asarray(x, dtype=float)
        if not p.ndim:
            return top / (1.0 + np.exp(p / width))
        p /= width
        np.exp(p, p)
        p += 1.0
        return np.divide(top, p, p)

    def h(x):
        return logistic(x, height)

    def hp(x):
        p = logistic(x)
        return p * (1.0 - p) * slope

    def hpp(x):
        p = logistic(x)
        return p * (1.0 - p) * (1.0 - 2.0 * p) * curve

    # h'' vanishes at the center and peaks at center +- log(2 + sqrt(3)) width
    # (about 1.32 width), where a check sees an error in it above the floor
    peak = math.log(2.0 + math.sqrt(3.0)) * width
    points = [0.5 * center, center, 2.0 * center, center + peak]
    if center > peak:
        points.append(center - peak)
    return SmoothCustom(h, hp, hpp, check_points=points)


@dataclass(frozen=True)
class PriceResult:
    """Corrected-price output.

    ``q_eps = q0 + sqrt(eps) * rho * q1`` exactly; the implied-volatility
    fields are filled for call payoffs with positive time to maturity and
    are ``None`` otherwise.
    """

    q0: float
    q1: float
    q_eps: float
    implied_vol_inverted: Optional[float]
    implied_vol_asymptotic: Optional[float]


def _market(x, sigma, tau: float):
    """Validated spot (at least one-dimensional), total vol
    ``rt = sigma sqrt(tau)``, and whether both inputs were scalars."""
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    for name, a in (("spot", x), ("sigma", sigma)):
        # min and max are NaN if any entry is
        if a.size and not (0.0 < a.min() and a.max() < math.inf):
            raise ValueError(f"{name} must be positive and finite")
    if not (0.0 <= tau < math.inf):
        raise ValueError(f"tau must be nonnegative and finite; got {tau!r}")
    scalar = x.ndim == 0 and sigma.ndim == 0
    return np.atleast_1d(x), sigma * math.sqrt(tau), scalar


def _lognormal_nodes(rt):
    """The lognormal factors ``Y = exp(rt zeta - rt^2/2)`` at the rule's
    nodes ``_ZETA``, one row per entry of ``rt``."""
    rt = rt[..., None]
    return np.exp(rt * _ZETA - 0.5 * (rt * rt))


def _rule_sum(values):
    """The rule applied to each row of ``values`` (nodes last).  A pairwise
    sum along the row, not a BLAS product, whose rounding of a row can
    depend on the row count or the thread count."""
    return (values * _W).sum(axis=-1)


def _lognormal(x, payoff, rt):
    """Unvalidated ``E[payoff(x Y)]`` at total vol ``rt = sigma sqrt(tau) > 0``,
    broadcast over ``x`` and ``rt``: the zero-rate Black--Scholes price."""
    if isinstance(payoff, Call):
        d1 = (np.log(x / payoff.strike) + 0.5 * rt * rt) / rt
        return x * special.ndtr(d1) - payoff.strike * special.ndtr(d1 - rt)
    return _rule_sum(payoff(x[..., None] * _lognormal_nodes(rt)))


def bs_price(x, payoff, sigma, tau: float):
    """Zero-rate Black--Scholes price of ``payoff``, broadcast over spot
    ``x`` and volatility ``sigma`` (every ``sigma > 0``).

    Calls use the closed formula; smooth payoffs integrate ``h`` against
    the lognormal transition density on the 121-node trapezoid rule
    (step 1/6 on ``|zeta| <= 10``), one row per price.  ``tau = 0``
    returns ``h(x)``.  The rule's error grows with ``sigma sqrt(tau)``:
    for ``smooth_ramp(1, 0.1)`` at spots 0.6--1.6 it was at most 4.2e-10
    at ``sigma sqrt(tau) = 0.53`` and 1.6e-7 at 0.75, against a dense
    trapezoid.
    """
    x, rt, scalar = _market(x, sigma, tau)
    if tau == 0.0:
        out = payoff(np.broadcast_to(x, np.broadcast_shapes(x.shape, rt.shape)))
    else:
        out = _lognormal(x, payoff, rt)
    return float(out[0]) if scalar else out


def bs_operator_greeks(x, payoff, sigma, tau: float):
    """The operator greeks ``(D2, D12)`` of the leading-order price.

    ``D2 = x^2 d^2Q0/dx^2`` and ``D12 = x d/dx (x^2 d^2Q0/dx^2)``, broadcast
    over ``x`` and ``sigma`` as in :func:`bs_price`.  Calls use closed forms
    at ``d1``; smooth payoffs differentiate under the lognormal integral
    (the third payoff derivative is eliminated by Gaussian integration by
    parts, so only ``h''`` is required) on the rule of :func:`bs_price`.
    For ``smooth_ramp(1, 0.1)`` at spots 0.6--1.6, ``D12`` was off by at
    most 1.1e-6 of its largest magnitude at ``sigma sqrt(tau) = 0.53`` and
    3.5e-4 at 0.75, against a dense trapezoid.

    Raises
    ------
    ValueError
        If ``tau <= 0`` (the operators are undefined at expiry).
    """
    x, rt, scalar = _market(x, sigma, tau)
    if tau == 0.0:
        raise ValueError("operator greeks are undefined at expiry (tau=0)")
    if isinstance(payoff, Call):
        d1 = (np.log(x / payoff.strike) + 0.5 * rt * rt) / rt
        d2v = x * _norm_pdf(d1) / rt
        d12 = d2v * (1.0 - d1 / rt)
    else:
        y = _lognormal_nodes(rt)
        hpp = payoff.h_double_prime(x[..., None] * y)
        y2 = y * y
        d2v = x**2 * _rule_sum(hpp * y2)
        # x^3 E[h'''(xY) Y^3] = x^2 E[zeta h''(xY) Y^2]/rt - 2 x^2 E[h'' Y^2]
        # (Gaussian integration by parts), so
        # D12 = 2 D2 + x^3 E[h''' Y^3] = x^2 E[zeta h''(xY) Y^2]/rt
        d12 = x**2 * _rule_sum(hpp * (_ZETA * y2)) / rt
    if scalar:
        return float(d2v[0]), float(d12[0])
    return d2v, d12


def implied_vol_invert(price: float, x: float, strike: float, tau: float) -> float:
    """Black--Scholes implied volatility of a call price.

    The ``brentq`` root on a doubling bracket.  It reprices to within
    ``1e-12 * x`` with no further polish: the root is within about
    ``1e-14`` of the exact vol and the vega is at most
    ``x sqrt(tau / (2 pi))``, so the repricing error is at most
    ``0.4 x sqrt(tau) 1e-14``, inside the bound for any ``tau`` below
    about 6e4 years.

    Raises
    ------
    ValueError
        If ``price`` is at or below the intrinsic lower bound
        ``max(x - strike, 0)`` or at or above the upper bound ``x``
        (the message names the violated bound), or if ``tau <= 0``.
    """
    if not (x > 0.0 and strike > 0.0):
        raise ValueError("spot and strike must be positive")
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive to invert a price; got {tau!r}")
    lower = max(x - strike, 0.0)
    if price <= lower:
        raise ValueError(
            f"price {price!r} at or below the intrinsic lower bound {lower!r}"
        )
    if price >= x:
        raise ValueError(f"price {price!r} at or above the upper bound x={x!r}")
    payoff = Call(strike)

    def f(sig):
        return float(_lognormal(x, payoff, sig * math.sqrt(tau))) - price

    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e4:  # pragma: no cover - unreachable inside the bounds
            raise RuntimeError("implied volatility bracket expansion failed")
    return float(optimize.brentq(f, 1e-12, hi, xtol=1e-14, rtol=8.9e-16))


def implied_vol_asymptotic(mp, gp, x, strike, t: float):
    """First-order implied-volatility expansion (affine in log-moneyness).

    ``I = sigma_bar + sqrt(eps) rho d_bar [1/(2 sigma_bar)
    + log(K/x)/(sigma_bar^3 (T-t))]``; vectorized in ``strike``.
    """
    tau = mp.maturity_T - t
    if not (tau > 0.0):
        raise ValueError(f"need t < maturity; got t={t!r}, T={mp.maturity_T!r}")
    k = np.log(np.asarray(strike, dtype=float) / x)
    sb = gp.sigma_bar
    out = sb + math.sqrt(mp.eps) * mp.rho * gp.d_bar * (
        1.0 / (2.0 * sb) + k / (sb**3 * tau)
    )
    return float(out) if np.ndim(strike) == 0 else out


def first_order_price(x, mp, gp, payoff, tau: float):
    """First-order price ``(q0, q1, q_eps)`` at spot ``x`` (vectorized) and
    time to maturity ``tau``.

    ``q0`` is the Black--Scholes price at ``gp.sigma_bar``,
    ``q1 = tau d_bar D12`` and ``q_eps = q0 + sqrt(eps) rho q1``.  At
    ``tau = 0``, ``q0`` is the payoff and ``q1 = 0``.
    """
    q0 = bs_price(x, payoff, gp.sigma_bar, tau)
    d12 = bs_operator_greeks(x, payoff, gp.sigma_bar, tau)[1] if tau else 0.0 * q0
    q1 = tau * gp.d_bar * d12
    return q0, q1, q0 + math.sqrt(mp.eps) * mp.rho * q1


def corrected_price(mp, gp, payoff, t: float) -> PriceResult:
    """First-order corrected price at time ``t`` for spot ``mp.x0``.

    ``q0``, ``q1`` and ``q_eps`` are :func:`first_order_price` at
    ``tau = T - t``.  For call payoffs with ``t < T`` both
    implied-volatility fields are filled.
    """
    if not (0.0 <= t <= mp.maturity_T):
        raise ValueError(
            f"t must lie in [0, {mp.maturity_T!r}]; got {t!r}"
        )
    tau = mp.maturity_T - t
    q0, q1, q_eps = first_order_price(mp.x0, mp, gp, payoff, tau)
    iv_inv = iv_asym = None
    if isinstance(payoff, Call) and tau > 0.0:
        iv_asym = float(implied_vol_asymptotic(mp, gp, mp.x0, payoff.strike, t))
        lower = max(mp.x0 - payoff.strike, 0.0)
        if lower < q_eps < mp.x0:
            iv_inv = implied_vol_invert(q_eps, mp.x0, payoff.strike, tau)
    return PriceResult(q0, q1, q_eps, iv_inv, iv_asym)


def zeta_exponent(h: float, regime: str) -> float:
    """Characteristic term-structure exponent ``zeta(H)``.

    Slow mean reversion gives ``H + 1/2``; fast gives ``max(H - 1/2, 0)``;
    small amplitude follows the short-maturity slope of the maturity
    factor, ``H + 1/2``.  Accepts the full range ``0 < h < 1`` (reporting
    covers both rough and smooth exponents).
    """
    if not (0.0 < h < 1.0):
        raise ValueError(f"h must lie in (0, 1); got {h!r}")
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}; got {regime!r}")
    if regime == "FastMeanReverting":
        return max(h - 0.5, 0.0)
    return h + 0.5


def term_structure_factor(tau, h: float, tau_mr: float, tau_bar: float):
    """Maturity factor ``A(tau/tau_bar, tau/tau_mr)`` of the smile level,
    elementwise over an array of maturities ``tau`` (a float for a scalar).

    ``A = (tau/tau_bar)^(H+1/2) * (1 - int_0^u exp(-v) (1 - v/u)^(H+3/2) dv)``
    with ``u = tau/tau_mr``.  Interpolates between the short-maturity slope
    ``H + 1/2`` and the long-maturity slope ``H - 1/2`` on a log-log plot.
    The integral is ``u M(1, H+7/2, -u) / (H+5/2)``, Kummer's function
    ``M``, evaluated in closed form.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all((0.0 < tau) & (tau < math.inf)):
        raise ValueError("tau must be positive and finite")
    if not (0.0 < h < 1.0):
        raise ValueError(f"h must lie in (0, 1); got {h!r}")
    if not (0.0 < tau_mr < math.inf and 0.0 < tau_bar < math.inf):
        raise ValueError("tau_mr and tau_bar must be positive and finite")
    u = tau / tau_mr
    out = (tau / tau_bar) ** (h + 0.5) * (
        1.0 - u * special.hyp1f1(1.0, h + 3.5, -u) / (h + 2.5))
    return float(out) if out.ndim == 0 else out
