"""Moving-average kernel and covariance numerics for the fast-scale volatility factor.

This module evaluates, with certified accuracy, the deterministic
ingredients that every other part of the package builds on:

* the moving-average kernel ``K`` of the stationary fractional
  Ornstein--Uhlenbeck (fOU) volatility factor, normalized so that
  ``int_0^infty K(u)^2 du = 1``,
* the normalized covariance ``C_Z`` of that factor, by one time-domain
  closed form on whole arrays (``CovarianceEval.cov_CZ``), with the
  independent spectral quadrature kept as a reference method
  (``CovarianceEval.cov_CZ_spectral``), and the zero-started covariance
  ``cov_RL``.

Gaussian expectations of a volatility function, including the volatility
autocovariance ``Psi``, live in :mod:`roughvol.gaussfunc`, and
:mod:`roughvol.pricing` prices smooth payoffs on its own 121-node
trapezoid rule.  The Gauss--Hermite rules here (``_gh_nodes``) serve only
``gaussian_expect`` and ``bivariate_expect``, independent references for
tests and the benchmark.

The kernel is

    K(t) = [ t^(H-1/2) - int_0^t (t-s)^(H-1/2) e^(-s) ds ] / (sigma_ou * Gamma(H+1/2)),

with ``0 < H < 1/2`` and ``sigma_ou^2 = 1/(2 sin(pi H))``.  It behaves like
``t^(H-1/2)`` at the origin (integrable singularity) and like
``t^(H-3/2)/(sigma_ou*Gamma(H-1/2))`` at infinity; ``Gamma(H-1/2) < 0`` so the
tail is negative, and the total mass ``int_0^infty K`` is exactly zero (the
Laplace transform of the bracket is ``Gamma(H+1/2) s^(1/2-H)/(1+s)``, which
vanishes at ``s=0``).  Several downstream quantities rely on this exact
cancellation and on the sign of the tail; none of it is "fixed up" here.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import integrate, optimize, special

__all__ = [
    "KernelEval",
    "CovarianceEval",
    "sigma_ou",
    "gamma_reflect",
    "cov_RL",
    "jittered_cholesky",
]

# Default tail beyond which the asymptotic series for K is used; the series
# remainder there is below 1e-12 relative for all H in (0, 1/2).
_ASYM_SWITCH_K = 60.0
# Confluent-hypergeometric forms overflow in double precision near t ~ 700;
# integrated-kernel evaluations switch to the tail series well before that.
_ASYM_SWITCH_IK = 600.0
# Time-domain covariance switches to its (even) asymptotic series here.
_ASYM_SWITCH_CZ = 30.0
_N_ASYM_TERMS = 14
# Switch between the small-t Kummer form of K and its large-t routes.
_SPLIT_POINT = 1.0
# Absolute tolerance of the adaptive quadrature of the first squared-kernel
# cell; the two kernel routes must agree at the split to within 10 times it.
_QUAD_TOL = 1e-9
# Fixed rule for J(t) on (_SPLIT_POINT, 60): composite Gauss--Legendre in w,
# half the panels graded geometrically toward w=0 (the w^((1-a)/a) branch
# point) and half toward w=1 (the e^(-t(1-w^(1/a))) boundary layer of width
# ~a/t).  Accurate to ~1e-15 absolute for all H in (0, 1/2).
_J_PANELS = 40
_J_NODES = 16
# K^2 integrals away from the origin: one Gauss--Legendre rule per cell.
_KSQ_NODES = 20
# Geometric panels on [1, 60] whose cumulative K^2 masses are tabulated once.
_KSQ_PANELS = 24
# Array kernel evaluations run in blocks of this many doubles (~1 MB).
_BLOCK = 1 << 17


def _hurst_value(h) -> float:
    """Validate and return a rough-regime Hurst exponent as a plain float."""
    value = float(h)
    if not (0.0 < value < 0.5):
        raise ValueError(
            f"Hurst exponent must lie in the rough regime (0, 1/2); got {value!r}"
        )
    return value


def sigma_ou(h) -> float:
    """Stationary standard deviation of the fOU factor, ``sqrt(1/(2 sin(pi H)))``.

    Parameters
    ----------
    h : float
        Hurst exponent in ``(0, 1/2)``.

    Returns
    -------
    float
        ``sigma_ou`` such that ``Var(Z_t) = sigma_ou^2`` for the unit-scale
        stationary factor.
    """
    hv = _hurst_value(h)
    return math.sqrt(1.0 / (2.0 * math.sin(math.pi * hv)))


def gamma_reflect(x: float) -> float:
    """Gamma function valid at negative non-integer arguments.

    Uses the reflection formula ``Gamma(x) = pi / (sin(pi x) Gamma(1-x))`` so
    that quantities like ``Gamma(2H-1) < 0`` (which controls the negative
    covariance tail) are computed without cancellation.
    """
    x = float(x)
    if x > 0.0:
        return float(special.gamma(x))
    if x == math.floor(x):
        raise ValueError(f"gamma_reflect undefined at non-positive integer {x!r}")
    return math.pi / (math.sin(math.pi * x) * float(special.gamma(1.0 - x)))


class KernelEval:
    """Evaluator for the fOU moving-average kernel ``K`` and its integrals.

    Parameters
    ----------
    hurst : float
        Hurst exponent in ``(0, 1/2)``.

    Notes
    -----
    Three evaluation routes are used, all for the same bracket
    ``B(t) = t^(a-1) - int_0^t (t-s)^(a-1) e^(-s) ds`` with ``a = H + 1/2``:

    * ``t <= 1`` -- Kummer form
      ``B(t) = t^(a-1) - e^(-t) t^a M(a, a+1, t)/a`` whose series has all
      positive terms (no internal cancellation),
    * ``1 < t < 60`` -- the numerically stable rewriting
      ``B(t) = t^(a-1) e^(-t) - J(t)`` with
      ``J(t) = (t^a/a) int_0^1 [1 - w^((1-a)/a)] e^(-t(1-w^(1/a))) dw``
      (substitution ``w = ((t-v)/t)^a`` in the defining integral), evaluated
      for whole arrays of ``t`` by one fixed composite Gauss--Legendre rule
      in ``w`` whose panels are graded geometrically toward both ends,
    * ``t >= 60`` -- the asymptotic series
      ``B(t) ~ -t^(a-1) sum_{k>=1} (1-a)_k t^(-k)``.

    Squared-kernel integrals ``int_1^t K^2`` apply one Gauss--Legendre rule
    per cell to the array kernel: cumulative masses over fixed geometric
    panels of ``[1, 60]`` are tabulated once per evaluator, and each ``t``
    adds the rule over its own partial panel.

    The small- and large-``t`` routes must agree at the split ``t = 1`` to
    within ``1e-8``; a disagreement raises at construction.
    """

    def __init__(self, hurst):
        self.hurst = _hurst_value(hurst)
        self.sigma_ou = sigma_ou(self.hurst)
        self._a = self.hurst + 0.5
        self._norm = self.sigma_ou * float(special.gamma(self._a))

        small = self.kernel_small(_SPLIT_POINT)
        large = self.kernel_large(_SPLIT_POINT)
        if abs(small - large) > 10.0 * _QUAD_TOL:
            raise ValueError(
                "kernel evaluation routes disagree at the split "
                f"{_SPLIT_POINT}: {small!r} vs {large!r}"
            )

    # -- kernel values -----------------------------------------------------

    def kernel_small(self, t):
        """Small-``t`` route for ``K(t)`` (Kummer confluent-hypergeometric form)."""
        t = np.asarray(t, dtype=float)
        a = self._a
        raw = t ** (a - 1.0) - np.exp(-t) * t**a / a * special.hyp1f1(a, a + 1.0, t)
        return raw / self._norm

    @functools.cached_property
    def _j_rule(self):
        """Exponent factors ``1 - w^(1/a)`` and weights of the fixed ``J`` rule.

        Nodes of the right half are built from their distance ``d = 1 - w``
        to the end, so that both factors keep full precision near ``w = 1``.
        """
        a = self._a
        x, wt = np.polynomial.legendre.leggauss(_J_NODES)
        side = _J_PANELS // 2
        left = np.concatenate(([0.0], np.geomspace(1e-14, 0.5, side)))
        right = np.concatenate((np.geomspace(0.5, 1e-9, side), [0.0]))
        half_l = 0.5 * (left[1:] - left[:-1])
        half_r = 0.5 * (right[:-1] - right[1:])
        w_l = (0.5 * (left[1:] + left[:-1]))[:, None] + half_l[:, None] * x
        d_r = (0.5 * (right[1:] + right[:-1]))[:, None] + half_r[:, None] * x
        log_w = np.concatenate((np.log(w_l).ravel(), np.log1p(-d_r).ravel()))
        weights = np.concatenate(((half_l[:, None] * wt).ravel(),
                                  (half_r[:, None] * wt).ravel()))
        expo = -np.expm1(log_w / a)
        weights *= -np.expm1((1.0 - a) / a * log_w)
        return expo, weights

    def _kernel_mid(self, t: np.ndarray) -> np.ndarray:
        """``K(t)`` on ``(0, 60)`` by the fixed ``J`` rule (1-D array ``t``)."""
        a = self._a
        expo, weights = self._j_rule
        j = np.empty_like(t)
        rows = max(1, _BLOCK // expo.size)
        for lo in range(0, t.size, rows):
            block = np.multiply.outer(t[lo: lo + rows], -expo)
            np.exp(block, out=block)
            j[lo: lo + rows] = block @ weights
        bracket = t ** (a - 1.0) * np.exp(-t) - j * t**a / a
        return bracket / self._norm

    @functools.cached_property
    def _asym(self):
        """``c_k = (1-a)_k`` for ``k = 1.._N_ASYM_TERMS``: the coefficients of
        ``B(t) ~ -t^(a-1) sum_k c_k t^(-k)``, from which the series of ``IK``
        and of the ``K^2`` tail follow term by term."""
        return np.cumprod(np.arange(1, _N_ASYM_TERMS + 1) - self._a)

    def _kernel_asym(self, t: np.ndarray) -> np.ndarray:
        """``K(t)`` for ``t >= 60`` by the asymptotic series (1-D array ``t``)."""
        a = self._a
        return -(t ** (a - 1.0)) * polyval(1.0 / t, np.r_[0.0, self._asym]) / self._norm

    def kernel_large(self, t):
        """Large-``t`` route for ``K(t)`` (stable rewriting / asymptotic series)."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        mid = t < _ASYM_SWITCH_K
        if np.any(mid):
            out[mid] = self._kernel_mid(t[mid])
        if np.any(~mid):
            out[~mid] = self._kernel_asym(t[~mid])
        return out

    def kernel_K(self, t):
        """Kernel value ``K(t)`` for ``t > 0`` (scalar or array).

        Raises
        ------
        ValueError
            If any ``t`` is zero (the kernel diverges like ``t^(H-1/2)``;
            integrate over cells instead of evaluating at the origin) or
            negative.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("kernel_K requires t >= 0")
        if np.any(arr == 0.0):
            raise ValueError(
                "kernel is singular at the origin (t=0); integrate the cell "
                "mass via integrated_K instead of evaluating pointwise"
            )
        out = np.empty_like(arr)
        small = arr <= _SPLIT_POINT
        if np.any(small):
            out[small] = self.kernel_small(arr[small])
        if np.any(~small):
            out[~small] = self.kernel_large(arr[~small])
        return out if out.ndim else float(out)

    def kernel_rule(self, upper: float):
        """Nodes ``s`` and weights ``wk`` with ``wk @ f(s) ~ int_0^upper f K``.

        20-node Gauss--Legendre panels in ``w = s^a`` on ``[0, min(upper,
        1)]``, which flattens the ``s^(a-1)`` of ``K``, graded toward
        ``w = 0`` for a cusp of ``f`` such as the ``s^(2H)`` of ``C_Z``;
        then 60 geometric panels on ``[1, upper]``."""
        a = self._a
        x, wt = np.polynomial.legendre.leggauss(20)
        w_edges = (np.concatenate(([0.0], np.geomspace(1e-10, 1.0, 41)))
                   * min(upper, 1.0) ** a)
        w_half = 0.5 * (w_edges[1:] - w_edges[:-1])
        wn = (0.5 * (w_edges[1:] + w_edges[:-1]))[:, None] + w_half[:, None] * x
        jac = (1.0 / a) * wn ** (1.0 / a - 1.0)
        nodes, weights = [wn ** (1.0 / a)], [w_half[:, None] * wt * jac]
        if upper > 1.0:
            edges = np.exp(np.linspace(0.0, math.log(upper), 61))
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes.append((0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * x)
            weights.append(half[:, None] * wt)
        s = np.concatenate([v.ravel() for v in nodes])
        return s, np.concatenate([v.ravel() for v in weights]) * self.kernel_K(s)

    # -- integrated kernel -------------------------------------------------

    def integrated_K(self, t):
        """Running integral ``IK(t) = int_0^t K(u) du`` (scalar or array).

        For ``t`` beyond the hypergeometric overflow range the tail series of
        ``-int_t^infty K`` is used (the total integral is exactly zero).
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("integrated_K requires t >= 0")
        a = self._a
        out = np.zeros_like(arr)
        lo = (arr > 0.0) & (arr <= _ASYM_SWITCH_IK)
        hi = arr > _ASYM_SWITCH_IK
        if np.any(lo):
            tl = arr[lo]
            out[lo] = (
                tl**a / a
                - np.exp(-tl) * tl ** (a + 1.0) / (a + 1.0)
                * special.hyp1f1(a + 1.0, a + 2.0, tl) / a
            ) / self._norm
        if np.any(hi):
            th = arr[hi]
            coeff = self._asym / (np.arange(1, _N_ASYM_TERMS + 1) - a)
            out[hi] = th**a * polyval(1.0 / th, np.r_[0.0, coeff]) / self._norm
        return out if out.ndim else float(out)

    def cell_masses(self, delta: float, count: int):
        """Cell integrals ``M_k = int_{k delta}^{(k+1) delta} K(u) du``.

        Evaluated as differences of the closed-form running integral, which
        handles the origin singularity exactly and keeps the cumulative sums
        consistent with ``integrated_K`` to machine precision.
        """
        if delta <= 0.0:
            raise ValueError(f"delta must be positive; got {delta!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1; got {count!r}")
        ik = self.integrated_K(delta * np.arange(1, count + 1))
        masses = np.empty(count)
        masses[0] = ik[0]
        np.subtract(ik[1:], ik[:-1], out=masses[1:])
        return masses

    # -- squared-kernel integrals -------------------------------------------

    def ksq_first_cell(self, delta: float) -> float:
        """``int_0^delta K(u)^2 du`` with the ``u^(2H-1)`` endpoint singularity.

        Uses algebraic-weight adaptive quadrature: the integrand is written
        as ``u^(2a-2) * f(u)^2`` with ``f`` smooth and ``f(0) = 1/norm``.
        """
        if delta <= 0.0:
            raise ValueError(f"delta must be positive; got {delta!r}")
        a = self._a
        norm = self._norm

        def smooth(u):
            if u <= 0.0:
                return 1.0 / norm**2
            ratio = 1.0 - np.exp(-u) * u / a * special.hyp1f1(a, a + 1.0, u)
            return (ratio / norm) ** 2

        val, _ = integrate.quad(
            smooth,
            0.0,
            float(delta),
            weight="alg",
            wvar=(2.0 * a - 2.0, 0.0),
            epsabs=0.1 * _QUAD_TOL,
            epsrel=1e-13,
            limit=200,
        )
        return float(val)

    def _ksq_cells(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``int_lo^hi K(u)^2 du`` per cell (arrays, ``0 < lo <= hi``).

        One Gauss--Legendre rule per cell; the kernel is evaluated on the
        nodes of a block of cells at a time.
        """
        x, wt = np.polynomial.legendre.leggauss(_KSQ_NODES)
        mid = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        out = np.empty_like(mid)
        rows = _BLOCK // _KSQ_NODES
        for b in range(0, mid.size, rows):
            nodes = mid[b: b + rows, None] + half[b: b + rows, None] * x
            out[b: b + rows] = half[b: b + rows] * (self.kernel_K(nodes) ** 2 @ wt)
        return out

    @functools.cached_property
    def _ksq_table(self):
        """Panel edges on ``[1, 60]`` and ``int_0^edge K^2`` at each edge."""
        edges = np.geomspace(1.0, _ASYM_SWITCH_K, _KSQ_PANELS + 1)
        cum = np.empty_like(edges)
        cum[0] = self.ksq_first_cell(1.0)
        cum[1:] = cum[0] + np.cumsum(self._ksq_cells(edges[:-1], edges[1:]))
        return edges, cum

    def _ksq_tail_series(self, t: np.ndarray) -> np.ndarray:
        """``int_t^infty K^2`` for ``t >= 60``: the squared asymptotic series
        integrated termwise."""
        a = self._a
        # d_m = sum_{k+l=m} c_k c_l, kept for m = 2.._N_ASYM_TERMS + 1
        d = np.convolve(self._asym, self._asym)[:_N_ASYM_TERMS]
        coeff = d / (np.arange(3, _N_ASYM_TERMS + 3) - 2.0 * a)
        return (t ** (2.0 * a - 1.0) * polyval(1.0 / t, np.r_[0.0, 0.0, coeff])
                / self._norm**2)

    def ksq_cum(self, t):
        """``int_0^t K(u)^2 du`` (scalar or array; monotone, converging to 1).

        ``t <= 1`` uses :meth:`ksq_first_cell`; ``1 < t < 60`` adds to the
        tabulated mass at the panel edge below ``t`` one fixed rule over the
        rest of the panel; ``t >= 60`` is the complement of the tail series.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("ksq_cum requires t >= 0")
        out = np.zeros_like(arr)
        head = (arr > 0.0) & (arr <= 1.0)
        mid = (arr > 1.0) & (arr < _ASYM_SWITCH_K)
        far = arr >= _ASYM_SWITCH_K
        if np.any(head):
            out[head] = [self.ksq_first_cell(float(v)) for v in arr[head]]
        if np.any(mid):
            tm = arr[mid]
            edges, cum = self._ksq_table
            j = np.searchsorted(edges, tm, side="right") - 1
            out[mid] = cum[j] + self._ksq_cells(edges[j], tm)
        if np.any(far):
            out[far] = 1.0 - self._ksq_tail_series(arr[far])
        return out if out.ndim else float(out)

    def ksq_cum_grid(self, delta: float, count: int) -> np.ndarray:
        """``int_0^{k delta} K(u)^2 du`` for ``k = 0..count`` (array).

        Accumulated cell by cell: below the asymptotic switch each cell gets
        one fixed rule and the masses are summed cumulatively onto
        ``ksq_cum(delta)``, so the cost is linear in ``count``; from the
        switch on, the closed-form tail series is used exactly as in
        :meth:`ksq_cum`.
        """
        if delta <= 0.0:
            raise ValueError(f"delta must be positive; got {delta!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1; got {count!r}")
        t = delta * np.arange(count + 1)
        out = np.zeros(count + 1)
        out[1] = self.ksq_cum(delta)
        near = 2 + int(np.count_nonzero(t[2:] < _ASYM_SWITCH_K))
        out[2:near] = out[1] + np.cumsum(self._ksq_cells(t[1: near - 1], t[2:near]))
        out[near:] = 1.0 - self._ksq_tail_series(t[near:])
        return out

    def ksq_tail(self, t):
        """``int_t^infty K(u)^2 du`` (scalar or array; the unresolved-history
        variance).

        For ``t >= 60`` the square of the kernel's asymptotic series is
        integrated termwise; below that, the complement of ``ksq_cum``.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("ksq_tail requires t >= 0")
        out = np.empty_like(arr)
        near = arr < _ASYM_SWITCH_K
        if np.any(near):
            out[near] = 1.0 - self.ksq_cum(arr[near])
        if np.any(~near):
            out[~near] = self._ksq_tail_series(arr[~near])
        return out if out.ndim else float(out)

    # -- sign structure ------------------------------------------------------

    def zero_crossing(self) -> float:
        """Unique time ``t*`` where the kernel changes sign (positive before,
        negative after)."""
        lo, hi = 0.5, 8.0
        while self.kernel_K(hi) > 0.0:
            hi *= 2.0
            if hi > 1e3:  # pragma: no cover - defensive
                raise RuntimeError("kernel zero crossing not bracketed")
        return float(
            optimize.brentq(lambda u: float(self.kernel_K(u)), lo, hi, xtol=1e-13)
        )

    def abs_integral(self) -> float:
        """``int_0^infty |K(u)| du``.

        Since the total signed mass is exactly zero, this equals
        ``2 * IK(t*)`` at the sign change ``t*``.
        """
        return 2.0 * float(self.integrated_K(self.zero_crossing()))


def _abs_lags(s) -> np.ndarray:
    """``|s|`` as a float array, rejecting non-finite lags."""
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cov_CZ requires finite s")
    return np.asarray(np.abs(arr))  # np.abs of a 0-d array is a scalar


class CovarianceEval:
    """Evaluator for the normalized fOU covariance ``C_Z``.

    Parameters
    ----------
    hurst : float
        Hurst exponent in ``(0, 1/2)``.

    Notes
    -----
    :meth:`cov_CZ` evaluates the defining integral
    ``C_Z(s) = [ (1/2) int e^(-|v|) |s+v|^(2H) dv - s^(2H) ] / Gamma(2H+1)``
    with the ``|s+v|`` kink split out, each piece in closed form
    (incomplete-gamma / confluent-hypergeometric), switching to an
    asymptotic series for large ``s``.  :meth:`cov_CZ_spectral` is an
    independent reference: it integrates
    ``(2 sin(pi H)/pi) int_0^infty cos(s x) x^(1-2H)/(1+x^2) dx`` with
    oscillatory-tail (Filon-type cycle summation) handling.

    ``C_Z(0) = 1``; near zero ``1 - C_Z(s) ~ s^(2H)/Gamma(2H+1)``; at
    infinity ``C_Z(s) ~ s^(2H-2)/Gamma(2H-1)``, which is *negative* for
    ``H < 1/2``, and the total integral over the line is zero.
    """

    def __init__(self, hurst):
        self.hurst = h = _hurst_value(hurst)
        self._gamma_b = float(special.gamma(2.0 * h + 1.0))
        # the asymptotic series sum_j s^(2H-2j) / Gamma(2H+1-2j), j = 1..8
        self._series_gammas = [gamma_reflect(2.0 * h + 1.0 - 2.0 * j)
                               for j in range(1, 9)]

    def cov_CZ(self, s):
        """Normalized covariance ``C_Z(|s|)`` (scalar or array, shape kept)."""
        s = _abs_lags(s)
        h = self.hurst
        b = 2.0 * h + 1.0
        gb = self._gamma_b
        out = np.ones_like(s)
        near = (s > 0.0) & (s <= _ASYM_SWITCH_CZ)
        far = s > _ASYM_SWITCH_CZ
        if np.any(near):
            sn = s[near]
            term_a = np.exp(sn) * special.gammaincc(b, sn) * gb
            term_b = np.exp(-sn) * sn**b / b * special.hyp1f1(b, b + 1.0, sn)
            term_c = np.exp(-sn) * gb
            out[near] = (0.5 * (term_a + term_b + term_c) - sn ** (2.0 * h)) / gb
        if np.any(far):
            sf = s[far]
            total = 0.5 * np.exp(-sf)
            for j, gamma_j in enumerate(self._series_gammas, start=1):
                total += sf ** (2.0 * h - 2.0 * j) / gamma_j
            out[far] = total
        return out if out.ndim else float(out)

    def cov_CZ_spectral(self, s):
        """Reference ``C_Z(|s|)`` by oscillatory quadrature of the spectral
        density, one adaptive ``quad`` per lag (absolute tolerance
        ``1e-10``); slow, for cross-checks only."""
        s = _abs_lags(s)
        h = self.hurst

        def one(v: float) -> float:
            if v == 0.0:
                return 1.0
            val, _ = integrate.quad(
                lambda x: x ** (1.0 - 2.0 * h) / (1.0 + x * x),
                0.0,
                np.inf,
                weight="cos",
                wvar=v,
                epsabs=1e-10,
                limlst=200,
                limit=400,
            )
            return 2.0 * math.sin(math.pi * h) / math.pi * float(val)

        out = np.array([one(float(v)) for v in s.ravel()]).reshape(s.shape)
        return out if out.ndim else float(out)


# -- Gauss--Hermite rules: test and benchmark references ----------------------


@functools.lru_cache(maxsize=None)
def _gh_nodes(order: int):
    """Probabilists' Gauss--Hermite nodes and weights, built once per order.

    The cached arrays are shared by every caller and therefore read-only.
    """
    if not (2 <= order <= 320):
        raise ValueError(
            "gh_order must be in [2, 320] (Gauss-Hermite weights underflow "
            f"at higher orders); got {order!r}"
        )
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    # Physicists' Hermite: E[f(N(0,1))] = sum w_i f(sqrt(2) x_i) / sqrt(pi).
    nodes = math.sqrt(2.0) * nodes
    weights = weights / math.sqrt(math.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gaussian_expect(fn, gh_order: int = 40):
    """``E[fn(Z)]`` for standard normal ``Z`` by Gauss--Hermite quadrature."""
    z, w = _gh_nodes(gh_order)
    return float(np.dot(w, fn(z)))


def bivariate_expect(fn1, fn2, c: float, gh_order: int = 40) -> float:
    """``E[fn1(Z) fn2(Z')]`` for standard bivariate normal with correlation ``c``.

    Uses the rotation ``Z' = c Z + sqrt(1-c^2) W`` and a tensorized
    Gauss--Hermite rule; ``|c|`` within ``1e-10`` of 1 falls back to the
    degenerate one-dimensional integral (the joint density collapses onto a
    line there).
    """
    c = float(c)
    if abs(c) > 1.0:
        raise ValueError(f"correlation must satisfy |c| <= 1; got {c!r}")
    z, w = _gh_nodes(gh_order)
    if abs(c) > 1.0 - 1e-10:
        sign = 1.0 if c > 0.0 else -1.0
        return float(np.dot(w, fn1(z) * fn2(sign * z)))
    z2 = c * z[:, None] + math.sqrt(1.0 - c * c) * z[None, :]
    inner = np.asarray(fn2(z2)) @ w
    return float(np.dot(w, fn1(z) * inner))


def cov_RL(t: float, s: float, ke: KernelEval) -> float:
    """Normalized covariance of the zero-started (Riemann--Liouville) factor.

    ``C0_t(s) = int_0^t K(u) K(u+s) du`` (the normalizing
    ``int_0^infty K^2`` equals 1), on :meth:`KernelEval.kernel_rule`.
    Converges monotonically to ``C_Z(s)`` as ``t`` grows; the transient is
    what distinguishes the zero-started factor from the stationary one.
    """
    t = float(t)
    s = float(s)
    if t < 0.0 or s < 0.0:
        raise ValueError("cov_RL requires t >= 0 and s >= 0")
    if t == 0.0:
        return 0.0
    if s == 0.0:
        return ke.ksq_cum(t)
    u, wk = ke.kernel_rule(t)
    return float(wk @ ke.kernel_K(u + s))


def jittered_cholesky(cov: np.ndarray):
    """Lower Cholesky factor of ``cov`` with the smallest jitter that works.

    Tries an exact factorization first, then adds ``jitter * max(diag)`` to
    the diagonal for ``jitter`` in ``(1e-14, 1e-12, 1e-10)``; raises if the
    matrix is still not positive semidefinite at that point.

    Returns
    -------
    (chol, jitter) : (ndarray, float)
    """
    scale = float(np.max(np.diag(cov)))
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            chol = np.linalg.cholesky(cov + jitter * scale * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            continue
        return chol, jitter
    raise RuntimeError(
        "covariance matrix is not positive semidefinite even after jitter 1e-10"
    )
