"""Correctness checks, computed apart from the program.

Every check returns a list of failure messages (empty when it passes).  The
references are closed forms or dense quadratures written here, the stored
``d_bar`` oracle (``oracle.py``), ``CovarianceEval.cov_CZ`` for the factor's
autocovariance, or properties the methods must have.  None of them compares
with a saved copy of the program's output.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)


def sigma_ou(hurst: float) -> float:
    """Stationary std of the unit-scale factor, ``1/sqrt(2 sin(pi H))``."""
    return 1.0 / math.sqrt(2.0 * math.sin(math.pi * hurst))


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def bs_call(x: float, strike: float, sigma: float, tau: float) -> float:
    """Zero-rate Black--Scholes call price."""
    rt = sigma * math.sqrt(tau)
    d1 = (math.log(x / strike) + 0.5 * rt * rt) / rt
    return x * norm_cdf(d1) - strike * norm_cdf(d1 - rt)


def bs_call_d12(x: float, strike: float, sigma: float, tau: float) -> float:
    """``x d/dx (x^2 d^2/dx^2)`` of the Black--Scholes call price."""
    rt = sigma * math.sqrt(tau)
    d1 = (math.log(x / strike) + 0.5 * rt * rt) / rt
    return x * norm_pdf(d1) / rt * (1.0 - d1 / rt)


_Z = np.linspace(-12.0, 12.0, 8001)
_W = (_Z[1] - _Z[0]) * np.exp(-0.5 * _Z * _Z) / math.sqrt(2.0 * math.pi)


def gauss_mean(values: np.ndarray) -> float:
    """``E[g(Z)]`` from ``g`` sampled on the dense trapezoid grid ``_Z``."""
    return float(_W @ values)


def ramp_moments(x: float, center: float, width: float, sigma: float,
                 tau: float):
    """``(q0, D12)`` for the ramp ``h = expit((x - center)/width)``.

    ``q0 = E[h(xY)]`` and ``D12 = 2 x^2 E[h''(xY) Y^2] + x^3 E[h'''(xY) Y^3]``
    for lognormal ``Y``, by the dense trapezoid rule with the ramp's
    derivatives in closed form.
    """
    rt = sigma * math.sqrt(tau)
    y = np.exp(-0.5 * rt * rt + rt * _Z)
    p = special.expit((x * y - center) / width)
    q = p * (1.0 - p)
    h2 = q * (1.0 - 2.0 * p) / width**2
    h3 = q * (1.0 - 6.0 * p + 6.0 * p * p) / width**3
    q0 = gauss_mean(p)
    d12 = 2.0 * x**2 * gauss_mean(h2 * y * y) + x**3 * gauss_mean(h3 * y**3)
    return q0, d12


def _close(name: str, got: float, want: float, tol: float) -> list:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{name}: got {got!r}, expected {want!r} within {tol:.3g}"]


# -- group parameters ---------------------------------------------------------


def check_group_params(label: str, hurst: float, vol_fn, gp,
                       dbar_ref=None, dbar_ref_error: float = 0.0) -> list:
    """``<F>`` and ``sigma_bar^2`` against a dense trapezoid of
    ``F(sigma_ou z)^j phi(z)``, and ``d_bar`` against an oracle value within
    the program's stated absolute accuracy ``1e-7 sigma_max^3``."""
    f = vol_fn(sigma_ou(hurst) * _Z)
    out = _close(f"{label} sigma_bar^2", gp.sigma_bar**2, gauss_mean(f * f), 1e-9)
    out += _close(f"{label} mean_F", gp.mean_F, gauss_mean(f), 1e-9)
    out += _close(f"{label} tau_bar", gp.tau_bar, 2.0 / gp.sigma_bar**2,
                  1e-12 * gp.tau_bar)
    if dbar_ref is not None:
        tol = 1e-7 * vol_fn.sigma_max**3 + dbar_ref_error
        out += _close(f"{label} d_bar vs oracle", gp.d_bar, dbar_ref, tol)
    return out


def check_scaled_pair(label: str, dbar_base: float, dbar_scaled: float,
                      factor: float, sigma_max_scaled: float) -> list:
    """``d_bar(cF) = c^3 d_bar(F)`` within ``1e-7 (c sigma_max)^3``."""
    return _close(f"{label} d_bar(cF) vs c^3 d_bar(F)", dbar_scaled,
                  factor**3 * dbar_base, 1e-7 * sigma_max_scaled**3)


# -- quotes -------------------------------------------------------------------


def check_call_quote(label: str, mp, gp, strike: float, res) -> list:
    """A call quote against closed-form Black--Scholes at ``sigma_bar``."""
    x, tau = mp.x0, mp.maturity_T
    out = _close(f"{label} q0", res.q0, bs_call(x, strike, gp.sigma_bar, tau),
                 1e-12 * x)
    q1 = tau * gp.d_bar * bs_call_d12(x, strike, gp.sigma_bar, tau)
    out += _close(f"{label} q1", res.q1, q1, 1e-10 * abs(q1) + 1e-15)
    out += _close(f"{label} q_eps", res.q_eps,
                  res.q0 + math.sqrt(mp.eps) * mp.rho * res.q1, 1e-15 * x)
    invertible = max(x - strike, 0.0) < res.q_eps < x
    if invertible != (res.implied_vol_inverted is not None):
        out.append(f"{label}: implied vol present={res.implied_vol_inverted is not None}"
                   f" but price within bounds={invertible}")
    elif invertible:
        out += _close(f"{label} repriced implied vol",
                      bs_call(x, strike, res.implied_vol_inverted, tau),
                      res.q_eps, 1e-12 * x)
    return out


def check_ramp_quote(label: str, mp, gp, center: float, width: float, res) -> list:
    """A smooth-ramp quote against the dense-trapezoid ``q0`` and ``D12``.

    The program integrates smooth payoffs with a fixed 200-node
    Gauss--Hermite rule, whose error grows quickly with ``sigma sqrt(tau)``
    (measured for a ramp of width 0.1: 1.3e-7 on ``q0`` and 1.5e-4 relative
    on ``D12`` at ``sigma sqrt(tau) = 0.5``; 6e-6 and 6e-3 at 0.71).  The
    tolerances, 1e-6 on ``q0`` (payoff height 1) and 2e-3 relative on
    ``q1``, hold up to ``sigma sqrt(tau)`` of about 0.55.
    """
    q0, d12 = ramp_moments(mp.x0, center, width, gp.sigma_bar, mp.maturity_T)
    q1 = mp.maturity_T * gp.d_bar * d12
    out = _close(f"{label} q0", res.q0, q0, 1e-6)
    out += _close(f"{label} q1", res.q1, q1, 2e-3 * abs(q1))
    out += _close(f"{label} q_eps", res.q_eps,
                  res.q0 + math.sqrt(mp.eps) * mp.rho * res.q1, 1e-15)
    return out


# -- Monte Carlo ----------------------------------------------------------------


def _pair_units(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[0::2] + values[1::2])


def _within_se(name: str, units: np.ndarray, want: float, k: float = 4.0) -> list:
    mean = float(units.mean())
    se = float(units.std(ddof=1) / math.sqrt(units.size))
    if abs(mean - want) <= k * se:
        return []
    return [f"{name}: {mean!r} vs {want!r} differs by "
            f"{abs(mean - want) / se:.1f} SE (allowed {k:g})"]


def check_mc_estimate(est, x_terminal: np.ndarray, strike: float) -> list:
    """The estimate is the antithetic-pair mean of the call payoff over the
    paths the sampler produced, and the price is a martingale:
    ``E[X_T] = x0`` within 4 SE."""
    units = _pair_units(np.maximum(x_terminal - strike, 0.0))
    se = float(units.std(ddof=1) / math.sqrt(units.size))
    out = _close("mc_price mean", est.mean, float(units.mean()),
                 1e-12 * abs(est.mean))
    out += _close("mc_price std_error", est.std_error, se, 1e-9 * se)
    if est.n_paths != x_terminal.size:
        out.append(f"mc_price n_paths {est.n_paths} vs {x_terminal.size} simulated")
    return out


def check_martingale(x_terminal: np.ndarray, x0: float) -> list:
    return _within_se("E[X_T]", _pair_units(x_terminal), x0)


def check_factor_law(z: np.ndarray, lag_steps, variance: float,
                     covariances) -> list:
    """Stationary variance and lag covariances of the factor within 4 SE.

    ``z`` holds antithetic row pairs (one row of each pair is used, since
    the pair's products coincide); each path contributes its average over
    the grid times, so the units are independent.
    """
    base = z[0::2]
    out = _within_se("Var(Z)", np.mean(base * base, axis=1), variance)
    for lag, cov in zip(lag_steps, covariances):
        units = np.mean(base[:, :-lag] * base[:, lag:], axis=1)
        out += _within_se(f"Cov(Z_t, Z_t+{lag}dt)", units, cov)
    return out


# -- studies ----------------------------------------------------------------------


def config_hash(config: dict) -> str:
    """The documented config hash: SHA-256 of the canonical JSON of the
    configuration without its output section, first 12 hex digits."""
    content = {k: v for k, v in config.items() if k != "output"}
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()[:12]


def check_emitted(label: str, report_text: str, sidecar_text: str) -> list:
    """The JSON report parses and carries the hash of the run's config."""
    try:
        report = json.loads(report_text)
        sidecar = json.loads(sidecar_text)
    except json.JSONDecodeError as exc:
        return [f"{label}: emitted JSON does not parse: {exc}"]
    want = config_hash(sidecar["config"])
    out = []
    if report.get("config_hash") != want or sidecar.get("config_hash") != want:
        out.append(f"{label}: config hash {report.get('config_hash')!r} "
                   f"(sidecar {sidecar.get('config_hash')!r}) vs {want!r}")
    return out


def check_convergence(report: dict) -> list:
    """The verdict says decreasing, and the corrected price beats the plain
    Black--Scholes price at every eps."""
    out = []
    if not str(report.get("verdict", "")).startswith("decreasing"):
        out.append(f"convergence verdict {report.get('verdict')!r}")
    for p in report["points"]:
        if not p["error"] < p["error_bs"]:
            out.append(f"convergence eps={p['eps']}: error {p['error']!r} "
                       f">= error_bs {p['error_bs']!r}")
    return out


def check_vartheta(report: dict) -> list:
    """``ratio_to_target`` within ``max(0.05, 4 cov_se/|target|)`` of 1 and
    no pathwise bound violations."""
    tol = max(0.05, 4.0 * report["cov_std_error"] / abs(report["target"]))
    out = _close("vartheta ratio_to_target", report["ratio_to_target"], 1.0, tol)
    if report["bound_violations"] != 0:
        out.append(f"vartheta bound_violations {report['bound_violations']}")
    return out
