"""Volatility functions and their Gaussian functionals.

The volatility process is ``sigma_t = F(Z_t)`` where ``Z`` is the stationary
Gaussian factor with standard deviation ``sigma_ou``.  The model hypotheses
require ``F`` to be one-to-one, positive, smooth, bounded and with bounded
derivatives; :class:`BoundedSigmoid` is the default family satisfying all of
them.  This module is the one place that computes Gaussian expectations of
a volatility function:

* the moments ``<F^j> = E[F(sigma_ou Z)^j]`` and ``<F'^j>``,
* the effective volatility ``sigma_bar = sqrt(<F^2>)`` and the diffusion
  time ``tau_bar = 2/sigma_bar^2``,
* the correction coefficient

      d_bar = sigma_ou * int_0^infty E[F(sigma_ou Z) (FF')(sigma_ou Z')] K(s) ds,

  where ``(Z, Z')`` is bivariate normal with correlation ``C_Z(s)``,
* the volatility autocovariance ``Psi(c) = Cov(F(sigma_ou Z), F(sigma_ou Z'))``
  at correlation ``c`` (:func:`psi_of_C`, :func:`cov_sigma`),
* the conditional profiles ``E[G(m + sd Z)]`` over many means ``m``
  (:func:`gaussian_profile`).

Every expectation over ``Z`` uses one fixed trapezoid rule, checked at
run time against its every-other-node half; ``d_bar`` and ``Psi`` are
Mehler--Hermite series with coefficients projected on that rule, and the
profiles smooth one table of ``G`` on the same nodes at half the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import fft, interpolate, special

from .kernel import CovarianceEval, KernelEval, gamma_reflect, sigma_ou
# not used here: bench/test_bench.py asserts that gaussfunc binds this name
from .kernel import bivariate_expect  # noqa: F401

__all__ = [
    "VolFunction",
    "BoundedSigmoid",
    "ConstantVol",
    "ExponentialVol",
    "TabulatedVol",
    "GroupParams",
    "moments",
    "mean_FFp",
    "sigma_bar",
    "d_bar",
    "d_bar_markov",
    "group_params",
    "g_prime_sup",
    "psi_of_C",
    "cov_sigma",
    "gaussian_profile",
]


class VolFunction:
    """Base interface for volatility functions ``F``.

    Subclasses implement ``__call__(z)`` and ``deriv(z)`` (both vectorized)
    and expose ``sigma_min``/``sigma_max`` bounds; ``ffp(z)`` gives the
    product ``F(z) F'(z)`` through those two, for every family.  The model
    hypotheses — strictly increasing, bounded, positive — are validated at
    construction for every family intended for production use.
    """

    sigma_min: float
    sigma_max: float
    # Analytic in a strip about the real axis, so the fixed Gaussian rule
    # converges geometrically on it (see _expect); False for families that
    # are only finitely smooth.
    analytic = True

    def __call__(self, z):  # pragma: no cover - abstract
        raise NotImplementedError

    def deriv(self, z):  # pragma: no cover - abstract
        raise NotImplementedError

    def ffp(self, z):
        """``F(z) F'(z)`` (vectorized); bit-identical to ``self(z) * self.deriv(z)``."""
        return self(z) * self.deriv(z)


class BoundedSigmoid(VolFunction):
    """Logistic volatility function
    ``F(z) = sigma_min + (sigma_max - sigma_min) / (1 + e^(-slope z))``.

    Strictly increasing with ``F' > 0`` everywhere, bounded in
    ``(sigma_min, sigma_max)``, and smooth — the reference family for all
    studies.

    Parameters
    ----------
    sigma_min, sigma_max : float
        Volatility bounds (year^-1/2), ``0 < sigma_min < sigma_max``.
    slope : float
        Positive steepness of the transition.
    """

    def __init__(self, sigma_min: float, sigma_max: float, slope: float):
        if not (0.0 < sigma_min < sigma_max < math.inf):
            raise ValueError(
                "volatility bounds must satisfy 0 < sigma_min < sigma_max; "
                f"got ({sigma_min!r}, {sigma_max!r})"
            )
        if not (slope > 0.0):
            raise ValueError(f"slope must be positive; got {slope!r}")
        self.sigma_min = float(sigma_min)
        self.sigma_max = float(sigma_max)
        self.slope = float(slope)

    def __call__(self, z):
        p = special.expit(self.slope * np.asarray(z, dtype=float))
        return self.sigma_min + (self.sigma_max - self.sigma_min) * p

    def deriv(self, z):
        p = special.expit(self.slope * np.asarray(z, dtype=float))
        return (self.sigma_max - self.sigma_min) * self.slope * p * (1.0 - p)

    def __repr__(self):
        return (
            f"BoundedSigmoid(sigma_min={self.sigma_min}, "
            f"sigma_max={self.sigma_max}, slope={self.slope})"
        )


class ConstantVol(VolFunction):
    """Constant volatility ``F == value`` (degenerate zero-slope limit).

    Violates the one-to-one hypothesis; it is admitted as a validation case
    (every correction vanishes, the price is exactly Black--Scholes) and for
    baseline runs.
    """

    def __init__(self, value: float):
        if not (value > 0.0):
            raise ValueError(f"constant volatility must be positive; got {value!r}")
        self.value = float(value)
        self.sigma_min = self.value
        self.sigma_max = self.value

    def __call__(self, z):
        return np.full_like(np.asarray(z, dtype=float), self.value)

    def deriv(self, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def __repr__(self):
        return f"ConstantVol({self.value})"


class ExponentialVol(VolFunction):
    """Exponential volatility ``F(z) = scale * e^z`` (outside the hypotheses).

    Unbounded with unbounded derivatives: the asymptotic theory implemented
    here does not cover it.  Construction is refused unless ``unsafe=True``
    is passed explicitly; intended for comparison runs only.
    """

    def __init__(self, scale: float = 0.2, unsafe: bool = False):
        if not unsafe:
            raise ValueError(
                "ExponentialVol is unbounded and violates the model "
                "hypotheses (bounded F with bounded derivatives); pass "
                "unsafe=True to construct it for comparison runs"
            )
        if not (scale > 0.0):
            raise ValueError(f"scale must be positive; got {scale!r}")
        self.scale = float(scale)
        self.sigma_min = 0.0
        self.sigma_max = math.inf

    def __call__(self, z):
        return self.scale * np.exp(np.asarray(z, dtype=float))

    def deriv(self, z):
        return self.scale * np.exp(np.asarray(z, dtype=float))

    def __repr__(self):
        return f"ExponentialVol(scale={self.scale}, unsafe=True)"


class TabulatedVol(VolFunction):
    """Monotone ``C^2`` volatility function interpolating user table data.

    A natural cubic spline is fitted to the logit-transformed normalized
    values ``u(z) = logit((sigma - sigma_min)/(sigma_max - sigma_min))`` and
    mapped back through the logistic function, with linear continuation of
    ``u`` beyond the knot range (the natural boundary conditions make the
    join ``C^2``).  The result is bounded in ``(sigma_min, sigma_max)`` and
    strictly increasing; tables whose spline is not strictly increasing on a
    dense check grid are rejected.

    Parameters
    ----------
    z_knots, sigma_values : array_like
        Strictly increasing knots and values.
    sigma_min, sigma_max : float, optional
        Bounds enclosing all values; default to the value range widened by
        10% of its span on each side.
    """

    analytic = False  # C^2 at the knots

    def __init__(self, z_knots, sigma_values, sigma_min=None, sigma_max=None):
        z = np.asarray(z_knots, dtype=float)
        v = np.asarray(sigma_values, dtype=float)
        if z.ndim != 1 or z.shape != v.shape or z.size < 4:
            raise ValueError("need matching 1-D knot/value arrays with >= 4 points")
        if np.any(np.diff(z) <= 0.0):
            raise ValueError("z_knots must be strictly increasing")
        if np.any(np.diff(v) <= 0.0):
            raise ValueError("table values must be strictly increasing (monotone)")
        if np.any(v <= 0.0):
            raise ValueError("table values must be positive")
        span = v[-1] - v[0]
        lo = float(sigma_min) if sigma_min is not None else float(v[0] - 0.1 * span)
        hi = float(sigma_max) if sigma_max is not None else float(v[-1] + 0.1 * span)
        if not (0.0 < lo < v[0] and v[-1] < hi):
            raise ValueError(
                "bounds must satisfy 0 < sigma_min < min(values) and "
                f"max(values) < sigma_max; got ({lo!r}, {hi!r})"
            )
        self.sigma_min, self.sigma_max = lo, hi
        self._z0, self._z1 = float(z[0]), float(z[-1])
        u = special.logit((v - lo) / (hi - lo))
        self._spline = interpolate.CubicSpline(z, u, bc_type="natural")
        self._du = self._spline.derivative()
        self._u0, self._u1 = float(self._spline(z[0])), float(self._spline(z[-1]))
        self._s0, self._s1 = float(self._du(z[0])), float(self._du(z[-1]))
        check = np.linspace(self._z0, self._z1, 2001)
        if np.any(self._du(check) <= 0.0) or self._s0 <= 0.0 or self._s1 <= 0.0:
            raise ValueError(
                "table data produce a non-monotone interpolant; supply a "
                "table whose spline is strictly increasing"
            )

    def _pieces(self, z, inner, left, right):
        """``inner(z)`` on the knot range; beyond it ``left``/``right`` of the
        distance ``z - z_end`` to the end knot (the linear continuations)."""
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        lo = z < self._z0
        hi = z > self._z1
        mid = ~(lo | hi)
        out[mid] = inner(z[mid])
        out[lo] = left(z[lo] - self._z0)
        out[hi] = right(z[hi] - self._z1)
        return out

    def _u(self, z):
        return self._pieces(z, self._spline, lambda d: self._u0 + self._s0 * d,
                            lambda d: self._u1 + self._s1 * d)

    def _u_prime(self, z):
        return self._pieces(z, self._du, lambda d: self._s0, lambda d: self._s1)

    def __call__(self, z):
        p = special.expit(self._u(z))
        return self.sigma_min + (self.sigma_max - self.sigma_min) * p

    def deriv(self, z):
        p = special.expit(self._u(z))
        return (self.sigma_max - self.sigma_min) * p * (1.0 - p) * self._u_prime(z)


@dataclass(frozen=True)
class GroupParams:
    """Derived market-group parameters of the model, from :func:`group_params`.

    Attributes
    ----------
    sigma_bar : float
        Effective (root-mean-square) volatility ``sqrt(<F^2>)``.
    d_bar : float
        Price-correction coefficient (units year^-3/2).
    tau_bar : float
        Characteristic diffusion time ``2/sigma_bar^2`` (years).
    mean_F, var_F : float
        Stationary mean and variance of the volatility.
    mean_Fp, mean_Fp2 : float
        ``<F'>`` and ``<F'^2>`` under the stationary Gaussian law.
    d_bar_diagnostics : dict or None
        The bounds :func:`d_bar` returns with its value; None when
        ``<F'^2> = 0`` (constant vol), where ``d_bar = 0`` without the
        series.  Neither compared nor hashed, so parameters built from the
        seven numbers alone equal those :func:`group_params` returns.
    """

    sigma_bar: float
    d_bar: float
    tau_bar: float
    mean_F: float
    var_F: float
    mean_Fp: float
    mean_Fp2: float
    d_bar_diagnostics: Optional[dict] = field(default=None, compare=False)


# The standard-normal rule every functional below uses: the trapezoid rule
# with step 0.01 on [-16, 16] (3,201 nodes).  On a Gaussian-weighted
# integrand analytic in a strip about the real axis it converges
# geometrically in 1/step (Trefethen & Weideman, SIAM Review 56, 2014), and
# the Gaussian mass beyond |z| = 16 is below 1e-56.  For BoundedSigmoid the
# poles sit pi/(slope sigma_ou) from the real axis, so the error grows with
# slope * sigma_ou: <F'^2> is within 1e-12 of adaptive quad up to about 50
# and off by 8e-8 at 76.
_Z = np.linspace(-16.0, 16.0, 3201)
_W = 0.01 * np.exp(-0.5 * _Z * _Z) / math.sqrt(2.0 * math.pi)
_N_TERMS = 1000  # terms of the Mehler series for d_bar and Psi
_S_MAX = 2000.0  # d_bar's horizon, in fast-scale time; the tail beyond is linearized
# Absolute error the fixed rule is held to.  For an analytic vol function,
# geometric convergence makes the step-0.02 rule's error about the square
# root of the step-0.01 rule's, in units of the integrand's peak, so the full
# rule's implied error is (full - half)^2 / peak.  For BoundedSigmoid(0.05,
# 0.85, slope) at H 0.1 the check first fails at slope 42, where <F'^2> is
# still within 3e-12.  A finitely smooth one (TabulatedVol) converges
# algebraically, and the error is a fixed fraction of the gap: |gap|/3
# bounded it in every case measured on tables at H 0.05 to 0.45.
_RULE_TOL = 1e-10


def _expect(vol_fn, values) -> float:
    """``E[g(Z)]`` from the values ``g(_Z)`` of a function of ``vol_fn`` on
    the fixed rule.

    Raises ``RuntimeError`` if the rule's implied error, from its
    every-other-node half, exceeds ``_RULE_TOL``; the estimate follows
    ``vol_fn.analytic`` (a plain callable without it counts as analytic).
    """
    full = float(_W @ values)
    gap = full - 2.0 * float(_W[::2] @ values[::2])
    peak = float(np.max(np.abs(_W * values))) / 0.01
    # peak == 0 only where g(_Z) == 0, and then gap == 0
    analytic = getattr(vol_fn, "analytic", True) and peak > 0.0
    implied = gap * gap / peak if analytic else abs(gap) / 3.0
    if implied > _RULE_TOL:
        raise RuntimeError(
            "the fixed Gaussian rule does not resolve this vol function: its "
            f"step-0.01 and step-0.02 sums differ by {gap:.3e}, an implied "
            f"error of {implied:.3e} above {_RULE_TOL:.0e}"
        )
    return full


def moments(vol_fn: VolFunction, hurst):
    """One-dimensional Gaussian moments ``(<F>, <F^2>, <F'>, <F'^2>)``.

    All are expectations of ``F(sigma_ou Z)`` (respectively ``F'``) under
    standard normal ``Z``, evaluated on the module's fixed trapezoid rule
    (absolute error below 1e-10, checked at run time).
    """
    y = sigma_ou(hurst) * _Z
    f, fp = vol_fn(y), vol_fn.deriv(y)
    return tuple(_expect(vol_fn, v) for v in (f, f * f, fp, fp * fp))


def mean_FFp(vol_fn: VolFunction, hurst) -> float:
    """Stationary mean ``<FF'> = E[(F F')(sigma_ou Z)]`` (absolute error 1e-10).

    Together with ``<F>`` it gives ``Lambda(0) = <F><FF'>``, the constant
    part of the ``d_bar`` integrand, which integrates to zero only over the
    infinite horizon.
    """
    return _expect(vol_fn, vol_fn.ffp(sigma_ou(hurst) * _Z))


def _hermite_projection(vol_fn, *values):
    """Per function ``g`` of ``vol_fn`` (values ``g(_Z)``): ``c_k = E[g(Z) He_k(Z)]/sqrt(k!)``
    for ``k <= _N_TERMS`` and the Parseval remainder ``E[g^2] - sum_k c_k^2``,
    floored at the rounding bound of the dot products.  ``psi_k =
    sqrt(_W) He_k/sqrt(k!)`` stay bounded and come one row at a time from
    the three-term recurrence."""
    psi_prev, psi = np.zeros_like(_Z), np.sqrt(_W)
    us = [psi * v for v in values]
    coef = np.empty((len(us), _N_TERMS + 1))
    for k in range(_N_TERMS + 1):
        for i, u in enumerate(us):
            coef[i, k] = u @ psi
        psi_prev, psi = psi, (_Z * psi - math.sqrt(k) * psi_prev) / math.sqrt(k + 1)
    norms = [_expect(vol_fn, v * v) for v in values]
    rounding = _Z.size * np.finfo(float).eps
    return [(c, max(n - float(c @ c), rounding * n)) for c, n in zip(coef, norms)]


def sigma_bar(vol_fn: VolFunction, hurst) -> float:
    """Effective volatility ``sqrt(<F^2>)`` (the leading-order implied vol)."""
    f = vol_fn(sigma_ou(hurst) * _Z)
    return math.sqrt(_expect(vol_fn, f * f))


def g_prime_sup(vol_fn: VolFunction) -> float:
    """Supremum of ``|G'| = |F F'|`` (dense-grid scan of ``[-40, 40]``).

    ``G(z) = (F(z)^2 - sigma_bar^2)/2`` drives every remainder bound; its
    derivative's sup norm enters the pathwise bound on the martingale
    correction term.
    """
    z = np.linspace(-40.0, 40.0, 40001)
    return float(np.max(np.abs(vol_fn.ffp(z))))


def d_bar(vol_fn: VolFunction, hurst):
    """Correction coefficient ``d_bar`` as a Mehler--Hermite series, and
    its diagnostics: ``(value, {"s_max", "tail_estimate", "tail_bound",
    "truncation_bound", "lambda_at_zero", "n_terms"})``.

    Evaluates ``sigma_ou * int_0^infty (Lambda(C_Z(s)) - Lambda(0)) K(s) ds``
    where ``Lambda(c) = E[F(sigma_ou Z) (FF')(sigma_ou Z')]`` at correlation
    ``c``; ``Lambda(0) = <F><FF'>`` contributes nothing since
    ``int_0^infty K = 0``.  By Mehler's formula
    ``Lambda(c) = sum_k alpha_k beta_k c^k``, where ``alpha_k`` and
    ``beta_k`` are the coefficients of ``F(sigma_ou z)`` and
    ``(FF')(sigma_ou z)`` on the normalized Hermite polynomials, projected
    on the module's trapezoid rule; so

        d_bar = sigma_ou (sum_{k=1}^{N} alpha_k beta_k mu_k + tail),

    with ``N = 1000`` and ``mu_k = int_0^s_max C_Z^k K ds`` from a running
    power of ``C_Z`` on the kernel-weighted rule ``kernel_rule(s_max)``
    (graded toward ``s = 0`` for the ``s^(2H)`` correlation cusp), where
    ``s_max = 2000``.  ``tail`` is the linearized integral
    beyond ``s_max`` (the exact slope ``Lambda'(0) = alpha_1 beta_1`` times
    the asymptotic powers of ``C_Z`` and ``K``), bounded by twice its
    magnitude.  By Cauchy--Schwarz the truncation after ``N`` terms is
    bounded by ``sigma_ou sqrt(R_alpha R_beta) int |C_Z|^(N+1) |K|``, with
    the Parseval remainders ``R_alpha = <F^2> - sum_k alpha_k^2`` and
    ``R_beta``.

    Raises
    ------
    RuntimeError
        If the tail bound plus the truncation bound exceeds the absolute
        tolerance ``1e-7 * sigma_max^3``, with the numbers in the message.
    """
    ke = KernelEval(hurst)
    h, so, s_max = ke.hurst, ke.sigma_ou, _S_MAX

    (alpha, rem_alpha), (beta, rem_beta) = _hermite_projection(
        vol_fn, vol_fn(so * _Z), vol_fn.ffp(so * _Z))
    coef = (alpha * beta).tolist()

    s_all, wk = ke.kernel_rule(s_max)
    c = CovarianceEval(hurst).cov_CZ(s_all)
    total = 0.0
    c_pow = np.ones_like(c)
    for k in range(1, _N_TERMS + 1):
        c_pow *= c
        total += coef[k] * float(wk @ c_pow)
    truncation_bound = so * math.sqrt(rem_alpha * rem_beta) * float(
        np.abs(wk) @ np.abs(c_pow * c))

    # C_Z ~ s^(2H-2)/Gamma(2H-1) and K ~ s^(H-3/2)/(sigma_ou Gamma(H-1/2))
    q_exp = 3.0 * h - 3.5
    tail = (coef[1] / (gamma_reflect(2.0 * h - 1.0) * so * gamma_reflect(h - 0.5))
            * s_max ** (q_exp + 1.0) / (-(q_exp + 1.0)))
    tail_bound = 2.0 * so * abs(tail)
    scale = vol_fn.sigma_max**3 if math.isfinite(vol_fn.sigma_max) else abs(so * total)
    tol = 1e-7 * max(scale, 1e-12)
    if tail_bound + truncation_bound > tol:
        raise RuntimeError(
            f"d_bar did not converge: tail bound {tail_bound:.3e} beyond "
            f"s_max={s_max} plus truncation bound {truncation_bound:.3e} after "
            f"{_N_TERMS} terms exceeds tolerance {tol:.3e}"
        )
    return so * (total + tail), {
        "s_max": s_max,
        "tail_estimate": so * tail,
        "tail_bound": tail_bound,
        "truncation_bound": truncation_bound,
        "lambda_at_zero": coef[0],
        "n_terms": _N_TERMS,
    }


def d_bar_markov(vol_fn: VolFunction) -> float:
    """The ``H -> 1/2`` limit of :func:`d_bar`: the fast mean-reverting
    Markov coefficient (Fouque, Papanicolaou, Sircar & Solna, *Multiscale
    Stochastic Volatility*, CUP 2011).

    At ``H = 1/2`` the kernel is ``K(t) = sqrt(2) e^(-t)`` and ``C_Z(s) =
    e^(-s)``, so ``mu_k = sqrt(2)/(k+1)`` in ``d_bar``'s Mehler series and
    ``sigma_ou = 1/sqrt(2)`` cancels the ``sqrt(2)``: the limit is
    ``sum_{k>=1} alpha_k beta_k/(k+1)``, with ``alpha_k`` and ``beta_k``
    the Hermite coefficients of ``F`` and ``FF'`` at ``sigma_ou =
    1/sqrt(2)``, projected on the same rule as ``d_bar``.  It is written
    without the kernel or ``C_Z`` routes, which makes it an independent
    check of them near the edge of their range.

    Neither this limit nor :func:`d_bar` is the larger part of the
    first-order correction at a finite maturity ``tau``: the constant part
    ``<F><FF'>`` of the integrand adds ``tau <F><FF'> eps^-(H+1/2) A(tau) /
    Gamma(H + 5/2)``, with ``A`` :func:`roughvol.pricing.term_structure_factor`
    at ``tau_mr = eps``, ``tau_bar = 1``.  Relative to ``tau d_bar`` this
    finite-horizon term decays only like ``eps^(1/2-H)``.  For
    ``BoundedSigmoid(0.05, 0.45, 2.5)`` at ``tau = 1`` it is 3 to 33 times
    ``d_bar`` at H in [0.05, 0.45] and every ``eps`` from 0.1 to 1e-3 (where
    one sampler batch draws about 1 GB): every ``eps`` the program can
    simulate.
    """
    y = _Z / math.sqrt(2.0)
    (alpha, _), (beta, _) = _hermite_projection(vol_fn, vol_fn(y), vol_fn.ffp(y))
    k = np.arange(1, _N_TERMS + 1)
    return float(np.sum(alpha[1:] * beta[1:] / (k + 1)))


def group_params(mp) -> GroupParams:
    """All derived group parameters for a model (pure function of ``mp``),
    with :func:`d_bar`'s bounds; the one route from a model to them.

    ``mp`` provides ``hurst`` and ``vol_fn``
    (see :class:`roughvol.simulate.ModelParams`).
    """
    vol_fn, hurst = mp.vol_fn, mp.hurst
    mean_f, mean_f2, mean_fp, mean_fp2 = moments(vol_fn, hurst)
    if mean_fp2 == 0.0:  # constant vol: F' = 0, so var_F = d_bar = 0
        var_f, dbar, diag = 0.0, 0.0, None
    else:  # var_F centred on the same rule, so never negative
        f = vol_fn(sigma_ou(hurst) * _Z)
        var_f = _expect(vol_fn, (f - mean_f) ** 2)
        dbar, diag = d_bar(vol_fn, hurst)
    return GroupParams(
        sigma_bar=math.sqrt(mean_f2),
        d_bar=dbar,
        tau_bar=2.0 / mean_f2,
        mean_F=mean_f,
        var_F=var_f,
        mean_Fp=mean_fp,
        mean_Fp2=mean_fp2,
        d_bar_diagnostics=diag,
    )


def psi_of_C(c: float, vol_fn, hurst) -> float:
    """Volatility covariance ``Psi(c) = Cov(F(sigma_ou Z), F(sigma_ou Z'))``.

    ``(Z, Z')`` is standard bivariate normal with correlation ``c`` in
    ``[-1, 1]``, so ``Psi(C_Z(s/eps))`` is the autocovariance at lag ``s``.
    By Mehler's formula ``Psi(c) = sum_{k>=1} alpha_k^2 c^k`` (the
    coefficients of :func:`d_bar`), summed to ``k = 1000``; raises
    ``RuntimeError`` if the Parseval bound ``R_alpha |c|^1001`` on the rest
    exceeds ``1e-10 <F^2>``.
    """
    c = float(c)
    if not abs(c) <= 1.0:
        raise ValueError(f"correlation must satisfy |c| <= 1; got {c!r}")
    ((alpha, rem),) = _hermite_projection(vol_fn, vol_fn(sigma_ou(hurst) * _Z))
    bound, tol = rem * abs(c) ** (_N_TERMS + 1), _RULE_TOL * float(alpha @ alpha)
    if bound > tol:
        raise RuntimeError(f"Psi({c!r}) truncation bound {bound:.3e} after "
                           f"{_N_TERMS} terms exceeds tolerance {tol:.3e}")
    return c * float(np.polynomial.polynomial.polyval(c, alpha[1:] ** 2))


def cov_sigma(s: float, mp) -> float:
    """Autocovariance ``Psi(C_Z(s/eps))`` of the volatility at lag ``s >= 0``
    years; ``mp`` provides ``hurst``, ``eps`` and ``vol_fn``."""
    if not float(s) >= 0.0:
        raise ValueError("cov_sigma requires s >= 0")
    c = CovarianceEval(mp.hurst).cov_CZ(float(s) / mp.eps)
    return psi_of_C(c, mp.vol_fn, mp.hurst)


# gaussian_profile's table: u on [-16, 16] at half the fixed rule's step, so
# that its even nodes are the rule's
_U = np.linspace(-16.0, 16.0, 6401)


def _lagrange4(table, step, u):
    """4-point Lagrange interpolation of ``table`` (nodes ``-16 + i step``) at ``u``."""
    p = (u + 16.0) / step
    i = np.floor(p).astype(np.intp)
    t = p - i
    return ((t + 1) * t * (t - 1) * table[i + 2] - t * (t - 1) * (t - 2) * table[i - 1]
            ) / 6.0 + (t + 1) * (t - 2) * ((t - 1) * table[i] - t * table[i + 1]) / 2.0


def gaussian_profile(fn, hurst, means, variances) -> np.ndarray:
    """``E[fn(m + sd Z)]`` for a ``(paths, nodes)`` array of means ``m``,
    with one variance ``sd^2`` per node.

    ``fn(sigma_ou u)`` is tabulated once on ``_U`` and padded to twice its
    length by a smooth periodic continuation.  Per node, its ``rfft`` times
    ``exp(-(sd/sigma_ou)^2 omega^2/2)`` is inverted and read at each mean
    by 4-point Lagrange interpolation; the even-node table takes the same
    steps, and ``|fine - even|/15`` estimates the error.  Raises ``ValueError`` if a mean's ``+-8 sd``
    window leaves the table, ``RuntimeError`` if the estimate exceeds
    ``1e-7 max|fn|``.
    """
    so = sigma_ou(hurst)
    means = np.asarray(means, dtype=float)
    sds = np.sqrt(np.maximum(variances, 0.0)) / so
    values = np.asarray(fn(so * _U), dtype=float)
    tol = 1e-7 * float(np.max(np.abs(values)))
    tables = []
    for step, vals in ((0.005, values), (0.01, values[::2])):
        n = fft.next_fast_len(2 * vals.size, real=True)
        # pad with a C-infinity step from the last value back to the first:
        # zeros would leave jumps where fn does not decay, which ring into
        # the table when sd is below ~1.5 steps (4.5e-8 for phi's G)
        t = np.linspace(0.0, 1.0, n - vals.size + 2)[1:-1]
        step_up = special.expit((t - 0.5) / (t * (1.0 - t)))
        padded = np.concatenate((vals, vals[-1] + (vals[0] - vals[-1]) * step_up))
        omega = 2.0 * math.pi * fft.rfftfreq(n, step)
        tables.append((step, vals.size, n, -0.5 * omega * omega, fft.rfft(padded)))
    out = np.empty_like(means)
    for j, s in enumerate(sds):
        u = means[:, j] / so
        # the stencil at the even step needs two nodes beyond the window
        if not np.max(np.abs(u)) + 8.0 * s <= 15.98:
            raise ValueError(f"node {j}: a mean's +-8 sd window leaves the "
                             f"smoothing table |m| <= {15.98 * so:.4g}")
        fine, even = (_lagrange4(fft.irfft(spec * np.exp(s * s * w2), n)[:size],
                                 step, u) for step, size, n, w2, spec in tables)
        err = float(np.max(np.abs(fine - even))) / 15.0
        if err > tol:
            raise RuntimeError(f"node {j}: error estimate {err:.3e} above "
                               f"{tol:.3e}; fn is too steep for the table")
        out[:, j] = fine
    return out
