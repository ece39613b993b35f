"""Monte Carlo verification harness.

Prices by simulation, runs the epsilon-convergence study of the corrected
price, and empirically checks the remainder-term rates (the conditional
volatility-adjustment process, its time integral, and the running
quadratic-variation correction) that underpin the accuracy result.

All studies are pure functions of their parameters and seed: batches are
generated from counter-based substreams and reduced in a fixed order, so
reports are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from . import pricing
from .gaussfunc import (GroupParams, g_prime_sup, gaussian_profile,
                        group_params, mean_FFp)
from .simulate import (
    FactorSampler,
    ModelParams,
    SimGrid,
    normal_blocks,
    simulate_paths,
)

__all__ = [
    "MCEstimate",
    "ConvergencePoint",
    "ConvergenceReport",
    "VarthetaReport",
    "PhiReport",
    "KappaReport",
    "SmileReport",
    "TermStructureReport",
    "mc_price",
    "convergence_study",
    "vartheta_check",
    "phi_variance_check",
    "kappa_check",
    "smile_study",
    "termstructure_study",
]


def __getattr__(name: str):
    """``signal`` is :mod:`scipy.signal`, imported on first lookup: no code
    here calls it, but ``bench/tracer.py`` proxies ``experiments.signal``."""
    if name == "signal":
        from scipy import signal
        return signal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


N_PATHS_PRICING = 200_000  # default path budget for price estimates
N_PATHS_LEMMA = 20_000     # default path budget for remainder-rate checks

_SUP_NOTE = ("sup over t in [0,T] is probed only at t=0 and t=T/2 "
             "(sample-average proxy at the interior time); full-sup "
             "verification is out of scope")


# -- estimates -----------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with a 1-standard-error confidence radius.

    With antithetic pairing the independent sampling units are the
    per-pair averages, so ``std_error`` is their sample standard deviation
    divided by the square root of the number of pairs; ``n_paths`` counts
    simulated paths.
    """

    mean: float
    std_error: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite; got {self.mean!r}")
        if not (self.std_error >= 0.0 and math.isfinite(self.std_error)):
            raise ValueError(
                f"std_error must be finite and >= 0; got {self.std_error!r}"
            )
        if not (isinstance(self.n_paths, int) and self.n_paths >= 1):
            raise ValueError(f"n_paths must be a positive integer; got {self.n_paths!r}")


def _pair_means(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[0::2] + values[1::2])


def _std_error(samples: np.ndarray) -> float:
    """Standard error of the sample mean (at least two samples)."""
    return float(samples.std(ddof=1) / math.sqrt(samples.size))


def _stream_seed(seed: int, stream: int) -> int:
    """Seed of substream ``stream`` of ``seed`` (one per epsilon of a study)."""
    return int(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(stream,)
    ).generate_state(1, np.uint64)[0])


def _loglog_slope(eps, values) -> float:
    """Least-squares slope of ``log(values)`` against ``log(eps)``.

    NaN when a value is not positive (the constant-volatility case).
    """
    if min(values) > 0.0:
        return float(np.polyfit(np.log(eps), np.log(values), 1)[0])
    return math.nan


def _estimate_from_units(units: np.ndarray, n_paths: int, seed: int) -> MCEstimate:
    """Sample mean and standard error of at least two sampling units."""
    return MCEstimate(mean=float(units.mean()), std_error=_std_error(units),
                      n_paths=n_paths, seed=seed)


def mc_price(mp: ModelParams, grid: SimGrid, payoff, n_paths: int = N_PATHS_PRICING,
             seed: int = 0, antithetic: bool = True) -> MCEstimate:
    """Monte Carlo price of ``payoff`` at t=0 (sample mean of h(X_T)).

    Uses antithetic pairing on the Brownian draws by default; a constant
    payoff is reproduced exactly with zero standard error.  At least two
    sampling units (paths, or antithetic pairs) are required.
    """
    _check_se_paths("n_paths", n_paths, antithetic)
    units = []
    for bundle in simulate_paths(mp, grid, n_paths, seed, antithetic=antithetic):
        hx = np.asarray(payoff(bundle.X[:, -1]), dtype=float)
        units.append(_pair_means(hx) if antithetic else hx)
    return _estimate_from_units(np.concatenate(units), n_paths, seed)


# -- report plumbing -----------------------------------------------------------


def _scalar_fields(report) -> dict:
    out = {}
    for f in dataclasses.fields(report):
        v = getattr(report, f.name)
        if isinstance(v, (int, float, str, bool)) or v is None:
            out[f.name] = v
    return out


def _to_builtin(value):
    if isinstance(value, tuple):
        return [_to_builtin(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_builtin(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def _report_json(report) -> str:
    payload = {"report": type(report).__name__}
    payload.update(
        {f.name: _to_builtin(getattr(report, f.name))
         for f in dataclasses.fields(report)}
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _report_text(report, columns, rows, notes=()) -> str:
    lines = [f"[{type(report).__name__}]"]
    for note in notes:
        lines.append(f"  note: {note}")
    for name, value in _scalar_fields(report).items():
        if isinstance(value, float):
            lines.append(f"  {name} = {value:.12g}")
        else:
            lines.append(f"  {name} = {value}")
    if columns:
        cells = [[f"{v:.6e}" if isinstance(v, float) else str(v) for v in row]
                 for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
                  for i, c in enumerate(columns)]
        lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(columns, widths)))
        for row in cells:
            lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _report_csv(columns, rows) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(
            "%.17g" % v if isinstance(v, float) else str(v) for v in row
        ))
    return "\n".join(out) + "\n"


class _ReportMixin:
    """JSON / aligned-text / CSV emission shared by all study reports."""

    def table(self):
        return (), ()

    @property
    def notes(self):
        return ()

    def to_json(self) -> str:
        return _report_json(self)

    def to_text(self) -> str:
        columns, rows = self.table()
        return _report_text(self, columns, rows, self.notes)

    def to_csv(self) -> str:
        columns, rows = self.table()
        return _report_csv(columns, rows)


# -- convergence study ---------------------------------------------------------


@dataclass(frozen=True)
class ConvergencePoint:
    """Per-epsilon entry of a convergence study."""

    eps: float
    mc_mean: float
    mc_se: float
    q0: float
    q_eps: float
    error: float
    scaled_error: float
    scaled_se: float
    error_bs: float
    interior_error: float
    interior_se: float
    inconclusive: bool


@dataclass(frozen=True)
class ConvergenceReport(_ReportMixin):
    """Scaled pricing error ``|MC - q_eps| / sqrt(eps)`` across epsilon."""

    eps_grid: tuple
    errors: tuple
    error_ses: tuple
    scaled_errors: tuple
    rate_fits: tuple          # (name, slope) pairs from log-log regression
    points: tuple
    verdict: str
    n_paths: int
    seed: int
    header_notes: tuple

    def __post_init__(self):
        eg = self.eps_grid
        if any(b >= a for a, b in zip(eg, eg[1:])):
            raise ValueError(f"eps_grid must be strictly decreasing; got {eg!r}")
        for p in self.points:
            if not (math.isfinite(p.error) and math.isfinite(p.mc_se)):
                raise ValueError("confidence intervals must be finite")

    @property
    def notes(self):
        return self.header_notes

    def table(self):
        columns = ("eps", "mc_mean", "mc_se", "q_eps", "error", "scaled_error",
                   "scaled_se", "error_bs", "interior_error", "inconclusive")
        rows = [
            (p.eps, p.mc_mean, p.mc_se, p.q_eps, p.error, p.scaled_error,
             p.scaled_se, p.error_bs, p.interior_error, int(p.inconclusive))
            for p in self.points
        ]
        return columns, rows


def _check_dyadic(eps_grid: Sequence[float], min_points: int = 4):
    eps = [float(e) for e in eps_grid]
    if len(eps) < min_points:
        raise ValueError(
            f"need at least {min_points} epsilon points; got {len(eps)}"
        )
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"eps_grid must be strictly decreasing; got {eps!r}")
    for a, b in zip(eps, eps[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ValueError(
                f"eps_grid must be dyadic (each ratio 2); got ratio {a / b!r}"
            )
    return eps


def _check_se_paths(name: str, count, antithetic: bool = False) -> None:
    """Reports with a sample standard error need two sampling units.

    A unit is a path, or with antithetic pairing a pair of paths.
    """
    least = 4 if antithetic else 2
    if not (isinstance(count, int) and count >= least):
        raise ValueError(
            f"{name} must be an integer >= {least} for a sample standard error; "
            f"got {count!r}"
        )


def _dyadic_grids(mp_base: ModelParams, eps: Sequence[float],
                  points_per_eps: int, warmup_mult: float):
    """Nested grids sharing a common finest refinement (for CRN coupling)."""
    T = mp_base.maturity_T
    k = len(eps)
    mult = 2 ** k
    n_fine = math.ceil(T * points_per_eps / eps[-1])
    n_fine = mult * math.ceil(n_fine / mult)
    models, grids, factors = [], [], []
    for e in eps:
        factor = int(round(e / eps[-1]))
        n = n_fine // factor
        dt = T / n
        n_w = math.ceil(warmup_mult * e / dt)
        models.append(replace(mp_base, eps=e))
        grids.append(SimGrid(n, dt, n_w * dt))
        factors.append(factor)
    return n_fine, models, grids, factors


def _q_of_x(x: np.ndarray, mp: ModelParams, gp: GroupParams, payoff,
            t: float) -> np.ndarray:
    """Corrected price as a function of spot at an interior time."""
    tau = mp.maturity_T - t
    q0 = pricing.bs_price(x, payoff, gp.sigma_bar, tau)
    _, d12 = pricing.bs_operator_greeks(x, payoff, gp.sigma_bar, tau)
    return q0 + math.sqrt(mp.eps) * mp.rho * tau * gp.d_bar * d12


def _conditional_price(mp: ModelParams, svar, sxw, payoff) -> np.ndarray:
    """``E[payoff(X_T) | sigma, W]`` per path, from ``svar = int_0^T sigma^2
    dt`` and ``sxw = int_0^T sigma dW`` (arrays or scalars): ``X_T`` is then
    ``x0 exp(rho sxw - rho^2 svar / 2)`` times a lognormal orthogonal shock
    of variance ``(1 - rho^2) svar``, which the Black--Scholes price
    integrates out (Romano & Touzi, Math. Finance 7, 1997)."""
    svar, sxw = np.broadcast_arrays(svar, sxw)
    t = mp.maturity_T
    x_eff = mp.x0 * np.exp(mp.rho * sxw - 0.5 * mp.rho**2 * svar)
    return pricing.bs_price_pathwise(
        x_eff, payoff, math.sqrt(1.0 - mp.rho**2) * np.sqrt(svar / t), t)


def convergence_study(mp_base: ModelParams, eps_grid: Sequence[float], payoff,
                      n_paths: int = N_PATHS_PRICING, seed: int = 0,
                      points_per_eps: int = 4, warmup_mult: float = 24.0,
                      zero_start: bool = False) -> ConvergenceReport:
    """Pricing error of the corrected price across a dyadic epsilon grid.

    For each epsilon the Monte Carlo price (antithetic pairing) is compared
    with the first-order corrected price; all epsilons share the Brownian
    increments on [0, T] through block sums of one common fine-grid pool
    (common random numbers), which stabilizes the scaled-error ordering.
    The estimator is the :func:`_conditional_price` of each path less that
    of constant ``sigma_bar``, a control variate centred on the same
    quadrature value as ``q0``.  A point whose error is within twice its
    standard error is flagged ``inconclusive`` rather than silently counted
    as converged.

    With ``zero_start=True`` the factor is started at zero (the
    no-prehistory variant) instead of stationarily.
    """
    eps = _check_dyadic(eps_grid)
    n_fine, models, grids, factors = _dyadic_grids(
        mp_base, eps, points_per_eps, warmup_mult
    )
    samplers = [FactorSampler(m, g, zero_start) for m, g in zip(models, grids)]
    kap = samplers[0].kappa

    # per-row layout: fine pools for the shared increments on [0, T], then
    # each sampler's own draws (history normals, first-cell repairs, tail)
    sizes = [kap * n_fine, n_fine] + [w for s in samplers for w in s.widths]
    cuts = np.cumsum(sizes)[:-1]
    blocks = normal_blocks(seed, n_paths, sum(sizes), antithetic=True)
    _check_se_paths("n_paths", n_paths, antithetic=True)
    gp = group_params(mp_base)

    bs_center = float(pricing.bs_price(mp_base.x0, payoff, gp.sigma_bar,
                                       mp_base.maturity_T))

    pair_units = [[] for _ in eps]       # pair means of the CV-adjusted payoff
    interior_units = [[] for _ in eps]   # pair means of h(X_T) - Q_{T/2}(X_{T/2})
    for block in blocks:
        # base rows: the linear part runs on them, then pairs (a, -a)
        pool_xi, pool_zeta, *own = np.split(block, cuts, axis=1)
        for idx, (mp, grid, sampler, factor) in enumerate(
            zip(models, grids, samplers, factors)
        ):
            g, r, eta = own[3 * idx: 3 * idx + 3]
            _, sigma, xi_w, _, x = sampler.paths(
                g, sampler.block_sums(pool_xi, factor),
                sampler.block_sums(pool_zeta, factor), r, eta, antithetic=True)
            hx = np.asarray(payoff(x[:, -1]), dtype=float)
            # the conditional price of the vol path, control-variated by
            # that of constant sigma_bar, whose expectation is bs_center
            sig = sigma[:, :-1]
            cond = _conditional_price(
                mp, (sig * sig).sum(axis=1) * grid.dt,
                (sig * xi_w).sum(axis=1) * math.sqrt(grid.dt), payoff)
            cond0 = _conditional_price(
                mp, gp.sigma_bar**2 * mp.maturity_T,
                gp.sigma_bar * (xi_w.sum(axis=1) * math.sqrt(grid.dt)), payoff)
            units = cond - cond0 + bs_center
            qmid = _q_of_x(x[:, grid.n_steps // 2], mp, gp, payoff,
                           0.5 * mp.maturity_T)
            pair_units[idx].append(_pair_means(units))
            interior_units[idx].append(_pair_means(hx - qmid))

    points = []
    for idx, (mp, grid, e) in enumerate(zip(models, grids, eps)):
        est = _estimate_from_units(
            np.concatenate(pair_units[idx]), n_paths, seed
        )
        interior = _estimate_from_units(
            np.concatenate(interior_units[idx]), n_paths, seed
        )
        res = pricing.corrected_price(mp, gp, payoff, 0.0)
        err = abs(est.mean - res.q_eps)
        points.append(ConvergencePoint(
            eps=e,
            mc_mean=est.mean,
            mc_se=est.std_error,
            q0=res.q0,
            q_eps=res.q_eps,
            error=err,
            scaled_error=err / math.sqrt(e),
            scaled_se=est.std_error / math.sqrt(e),
            error_bs=abs(est.mean - res.q0),
            interior_error=abs(interior.mean),
            interior_se=interior.std_error,
            inconclusive=bool(err < 2.0 * est.std_error),
        ))

    slope = float(np.polyfit(
        np.log([p.eps for p in points]),
        np.log([max(p.error, 1e-300) for p in points]), 1
    )[0])
    decreasing = all(
        b.scaled_error < a.scaled_error
        or (b.scaled_error - b.scaled_se) <= (a.scaled_error + a.scaled_se)
        for a, b in zip(points, points[1:])
    )
    strict = all(b.scaled_error < a.scaled_error
                 for a, b in zip(points, points[1:]))
    if strict:
        verdict = "decreasing"
    elif decreasing:
        verdict = "decreasing (within 1-SE overlap)"
    else:
        verdict = "not decreasing"
    if any(p.inconclusive for p in points):
        verdict += "; some points inconclusive (error within 2 SE of noise)"

    return ConvergenceReport(
        eps_grid=tuple(eps),
        errors=tuple(p.error for p in points),
        error_ses=tuple(p.mc_se for p in points),
        scaled_errors=tuple(p.scaled_error for p in points),
        rate_fits=(("error_vs_eps_loglog_slope", slope),),
        points=tuple(points),
        verdict=verdict,
        n_paths=n_paths,
        seed=seed,
        header_notes=(_SUP_NOTE,),
    )


# -- conditional-expectation machinery for the remainder checks -----------------


@dataclass(frozen=True)
class VarthetaReport(_ReportMixin):
    """Sample behaviour of the volatility-adjustment product at t=0.

    ``mean`` estimates E[sigma_0 * vartheta_0] with the s-integral truncated
    at the maturity.  Its fast-scale limit over ``sqrt(eps)`` is ``d_bar``,
    but at a finite horizon the constant part ``Lambda(0) = <F><FF'>`` of
    the integrand still contributes the closed-form ``horizon_term``
    ``sqrt(eps) sigma_ou <F><FF'> IK(T/eps)``, which vanishes only as
    ``T/eps -> infinity`` (``IK`` is the running kernel integral).
    ``cov_estimate`` estimates ``mean - horizon_term`` directly, as the
    sample mean of the per-path covariance form
    ``(F(Z_0) - <F>) (vartheta_0 - sqrt(eps) sigma_ou <FF'> IK(T/eps))``
    (standard error ``cov_std_error``), and ``ratio_to_target`` is
    ``cov_estimate / target``.  ``bound_constant`` is the pathwise bound
    constant; ``bound_violations`` counts paths breaking
    ``|sigma_0 vartheta_0| <= sqrt(eps) * bound_constant`` (must be 0).
    """

    eps: float
    hurst: float
    mean: float
    std_error: float
    horizon_term: float
    cov_estimate: float
    cov_std_error: float
    d_bar: float
    target: float              # sqrt(eps) * d_bar
    ratio_to_target: float     # cov_estimate / target
    bound_constant: float
    bound_violations: int
    max_abs_over_sqrt_eps: float
    interior_cov_over_eps: Optional[float]
    t_interior: Optional[float]
    n_paths: int
    seed: int

    @property
    def notes(self):
        return ("the s-integral is truncated at T; mean includes the "
                "closed-form horizon_term sqrt(eps) sigma_ou <F><FF'> "
                "IK(T/eps), which ratio_to_target excludes",)


def _trapezoid_cells(profile: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Per-path trapezoid rule over cells weighted by exact kernel masses."""
    return 0.5 * (profile[:, :-1] + profile[:, 1:]) @ masses


def vartheta_check(mp: ModelParams, grid: SimGrid, n_paths: int = N_PATHS_LEMMA,
                   seed: int = 0, t_interior: Optional[float] = None) -> VarthetaReport:
    """Estimate E[sigma_0 vartheta_0] against its fast-scale limit.

    Per path the conditional expectation E[G'(Z_s) | time-0 info] is a
    one-dimensional Gaussian integral with mean given by the history part
    of the moving average (drawn through the sampler's history factor on
    the fine grid) and variance ``sigma_ou^2 int_0^{s/eps} K^2``;
    :func:`roughvol.gaussfunc.gaussian_profile` evaluates it for every path
    and node from one smoothed table of ``G' = FF'``, with a checked error
    below ``1e-7 max|FF'|``.
    The s-quadrature is the trapezoid rule with exact kernel cell masses
    on the fine sub-grid the increments are drawn on (``kappa`` nodes per
    price step), which resolves the ``s^(2H)`` correlation cusp at the
    origin far better than the price grid does.  The pathwise bound
    ``|sigma_0 vartheta_0| <= sqrt(eps) sigma_ou ||F||_inf ||FF'||_inf
    int|K|`` is asserted on every path.  With ``t_interior`` set, the
    product is also formed at that time and the lag covariance
    ``Cov(sigma_0 vartheta_0, sigma_t vartheta_t)/eps`` is reported;
    ``t_interior`` must round to a price node strictly inside the grid.
    """
    sampler = FactorSampler(mp, grid)
    _check_se_paths("n_paths", n_paths)
    gp = group_params(mp)
    ke = sampler.ke
    n, kap = sampler.n, sampler.kappa
    n_fine = kap * n
    fine = sampler.delta / kap
    so = sampler.sig_ou
    vol = mp.vol_fn
    masses = ke.cell_masses(fine, n_fine)
    variances = so**2 * ke.ksq_cum_grid(fine, n_fine)
    i_int = None
    if t_interior is not None:
        if not (0.0 < t_interior < mp.maturity_T):
            raise ValueError(
                f"t_interior must lie in (0, maturity); got {t_interior!r}"
            )
        i_int = round(t_interior / grid.dt)
        if not 0 < i_int < grid.n_steps:
            raise ValueError(f"t_interior {t_interior!r} rounds to price node {i_int}; "
                             f"it must round to an interior node 0 < i < {grid.n_steps}")

    sqeps = math.sqrt(mp.eps)
    k_bound = so * vol.sigma_max * g_prime_sup(vol) * ke.abs_integral()
    # E[vartheta_0]: the stationary <FF'> integrated against K up to T/eps
    theta_mean = (sqeps * so * mean_FFp(vol, mp.hurst)
                  * ke.integrated_K(mp.maturity_T / mp.eps))

    # per-row layout: the history normals, the fine increments on [0, t_int],
    # then (r, eta) at node 0 and at t_int
    n_g = sampler.history_factor(fine=True).shape[0]
    n_xi = n_g if i_int is None else n_g + kap * i_int
    ncols = n_xi + (2 if i_int is None else 4)

    def at_node(block, i, col):
        """``(sigma_i, theta_i)`` per path at price node ``i`` from the
        increments before it; ``col`` is the column of its ``r`` draw."""
        m = sampler.conditional_means(block[:, :n_g], block[:, n_g: n_g + kap * i],
                                      fine=True)[:, kap * i:]
        z = m[:, 0] + so * (sampler.r_std * block[:, col]
                            + sampler.eta_std[i] * block[:, col + 1])
        gprof = gaussian_profile(vol.ffp, mp.hurst, m,
                                 variances[: n_fine + 1 - kap * i])
        return vol(z), so * sqeps * _trapezoid_cells(gprof,
                                                     masses[: n_fine - kap * i])

    samples, samples_cov, samples_int = [], [], []
    violations = 0
    max_scaled = 0.0
    for block in normal_blocks(seed, n_paths, ncols):
        sigma0, theta = at_node(block, 0, n_xi)
        prod = sigma0 * theta
        samples.append(prod)
        samples_cov.append((sigma0 - gp.mean_F) * (theta - theta_mean))
        scaled = np.abs(prod) / sqeps
        max_scaled = max(max_scaled, float(scaled.max()))
        violations += int(np.sum(scaled > k_bound * (1.0 + 1e-12)))
        if i_int is not None:
            sigma_t, theta_t = at_node(block, i_int, n_xi + 2)
            samples_int.append(sigma_t * theta_t)

    prod = np.concatenate(samples)
    mean = float(prod.mean())
    cov_form = np.concatenate(samples_cov)
    cov_estimate = float(cov_form.mean())
    target = sqeps * gp.d_bar
    interior_cov = None
    if i_int is not None:
        other = np.concatenate(samples_int)
        cov = float(np.mean((prod - prod.mean()) * (other - other.mean())))
        interior_cov = cov / mp.eps
    return VarthetaReport(
        eps=mp.eps,
        hurst=mp.hurst,
        mean=mean,
        std_error=_std_error(prod),
        horizon_term=gp.mean_F * theta_mean,
        cov_estimate=cov_estimate,
        cov_std_error=_std_error(cov_form),
        d_bar=gp.d_bar,
        target=target,
        ratio_to_target=cov_estimate / target if target != 0.0 else math.nan,
        bound_constant=k_bound,
        bound_violations=violations,
        max_abs_over_sqrt_eps=max_scaled,
        interior_cov_over_eps=interior_cov,
        t_interior=t_interior,
        n_paths=n_paths,
        seed=seed,
    )


@dataclass(frozen=True)
class PhiReport(_ReportMixin):
    """Decay of the integrated conditional variance drift with epsilon."""

    eps_grid: tuple
    mean_sq: tuple
    mean_sq_se: tuple
    means: tuple
    mean_ses: tuple
    slope: float
    expected_slope: float
    hurst: float
    n_mc: int
    seed: int

    def table(self):
        columns = ("eps", "mean_sq", "mean_sq_se", "mean", "mean_se")
        rows = list(zip(self.eps_grid, self.mean_sq, self.mean_sq_se,
                        self.means, self.mean_ses))
        return columns, rows


def phi_variance_check(mp_base: ModelParams, eps_grid: Sequence[float],
                       n_mc: int = N_PATHS_LEMMA, seed: int = 0,
                       points_per_eps: int = 4,
                       warmup_mult: float = 24.0) -> PhiReport:
    """Estimate E[phi_0^2], phi_0 = int_0^T E[G(Z_s)|time-0 info] ds.

    The conditional expectation ``E[G(Z_s) | time-0 info]``, with
    ``G = (F^2 - sigma_bar^2)/2``, is Gaussian in the factor with the
    history mean (drawn through the sampler's history factor) and
    variance ``sigma_ou^2 int_0^{s/eps} K^2``, and comes from
    :func:`roughvol.gaussfunc.gaussian_profile` (checked error below
    ``1e-7 max|G|``).  The second moment must decay like
    ``eps^(2-2H)``; the report carries the fitted log-log slope and the
    (zero-mean) sample means per epsilon.
    """
    eps = _check_dyadic(eps_grid)
    _check_se_paths("n_mc", n_mc)
    gp = group_params(mp_base)
    sb2 = gp.sigma_bar**2
    vol = mp_base.vol_fn

    def g_fn(z):
        return 0.5 * (vol(z) ** 2 - sb2)

    mean_sq, mean_sq_se, means, mean_ses = [], [], [], []
    for stream, e in enumerate(eps):
        mp = replace(mp_base, eps=e)
        grid = SimGrid.for_model(mp, points_per_eps=points_per_eps,
                                 warmup_mult=warmup_mult)
        sampler = FactorSampler(mp, grid)
        n = sampler.n
        variances = sampler.sig_ou**2 * sampler.ke.ksq_cum_grid(sampler.delta, n)
        trap_w = np.full(n + 1, grid.dt)
        trap_w[0] = trap_w[-1] = 0.5 * grid.dt
        phis = []
        for block in normal_blocks(_stream_seed(seed, stream), n_mc,
                                   sampler.widths[0]):
            m = sampler.conditional_means(block)
            gprof = gaussian_profile(g_fn, mp.hurst, m, variances)
            phis.append(gprof @ trap_w)
        phi = np.concatenate(phis)
        sq = phi**2
        mean_sq.append(float(sq.mean()))
        mean_sq_se.append(_std_error(sq))
        means.append(float(phi.mean()))
        mean_ses.append(_std_error(phi))
    return PhiReport(
        eps_grid=tuple(eps),
        mean_sq=tuple(mean_sq),
        mean_sq_se=tuple(mean_sq_se),
        means=tuple(means),
        mean_ses=tuple(mean_ses),
        slope=_loglog_slope(eps, mean_sq),
        expected_slope=2.0 - 2.0 * mp_base.hurst,
        hurst=mp_base.hurst,
        n_mc=n_mc,
        seed=seed,
    )


@dataclass(frozen=True)
class KappaReport(_ReportMixin):
    """Decay of the running quadratic-variation correction with epsilon."""

    eps_grid: tuple
    sup_mean_sq: tuple
    final_means: tuple
    final_mean_ses: tuple
    slope: float
    slope_floor: float
    hurst: float
    n_mc: int
    seed: int

    def table(self):
        columns = ("eps", "sup_mean_sq", "final_mean", "final_mean_se")
        rows = list(zip(self.eps_grid, self.sup_mean_sq, self.final_means,
                        self.final_mean_ses))
        return columns, rows


def kappa_check(mp_base: ModelParams, eps_grid: Sequence[float],
                n_mc: int = N_PATHS_LEMMA, seed: int = 0,
                points_per_eps: int = 4,
                warmup_mult: float = 24.0) -> KappaReport:
    """Estimate sup_t E[kappa_t^2], kappa_t = (sqrt(eps)/2) int_0^t (sigma^2 - sigma_bar^2).

    The bound predicts decay at least like ``eps^(2-H)``; the fitted
    log-log slope is reported together with the (zero-mean) terminal
    sample means.
    """
    eps = _check_dyadic(eps_grid)
    _check_se_paths("n_mc", n_mc)
    gp = group_params(mp_base)
    sb2 = gp.sigma_bar**2
    sup_mean_sq, final_means, final_ses = [], [], []
    for stream, e in enumerate(eps):
        mp = replace(mp_base, eps=e)
        grid = SimGrid.for_model(mp, points_per_eps=points_per_eps,
                                 warmup_mult=warmup_mult)
        acc_sq = None
        finals = []
        count = 0
        for bundle in simulate_paths(mp, grid, n_mc,
                                     _stream_seed(seed, stream)):
            integrand = bundle.sigma**2 - sb2
            run = integrate.cumulative_trapezoid(
                integrand, dx=grid.dt, axis=1, initial=0.0
            )
            kpath = 0.5 * math.sqrt(e) * run
            sq_sum = (kpath**2).sum(axis=0)
            acc_sq = sq_sum if acc_sq is None else acc_sq + sq_sum
            finals.append(kpath[:, -1])
            count += kpath.shape[0]
        mean_sq_t = acc_sq / count
        fin = np.concatenate(finals)
        sup_mean_sq.append(float(mean_sq_t.max()))
        final_means.append(float(fin.mean()))
        final_ses.append(_std_error(fin))
    return KappaReport(
        eps_grid=tuple(eps),
        sup_mean_sq=tuple(sup_mean_sq),
        final_means=tuple(final_means),
        final_mean_ses=tuple(final_ses),
        slope=_loglog_slope(eps, sup_mean_sq),
        slope_floor=2.0 - mp_base.hurst - 0.2,
        hurst=mp_base.hurst,
        n_mc=n_mc,
        seed=seed,
    )


# -- deterministic studies (no Monte Carlo) -------------------------------------


@dataclass(frozen=True)
class SmilePoint:
    """Per-epsilon smile diagnostics."""

    eps: float
    max_scaled_iv_gap: float   # max_K |inverted - asymptotic| / sqrt(eps)
    d_bar_recovered: float     # from the fitted smile slope
    recovery_rel_err: float


@dataclass(frozen=True)
class SmileReport(_ReportMixin):
    """Implied-volatility smile versus the affine asymptotic expansion."""

    eps_grid: tuple
    strikes_rel: tuple
    points: tuple
    d_bar: float
    sigma_bar: float
    hurst: float
    verdict: str

    def table(self):
        columns = ("eps", "max_scaled_iv_gap", "d_bar_recovered",
                   "recovery_rel_err")
        rows = [(p.eps, p.max_scaled_iv_gap, p.d_bar_recovered,
                 p.recovery_rel_err) for p in self.points]
        return columns, rows


def smile_study(mp_base: ModelParams, eps_grid: Sequence[float],
                strikes_rel: Sequence[float] = (0.94, 0.97, 1.0, 1.03, 1.06),
                ) -> SmileReport:
    """Deterministic smile study: invert corrected call prices, compare with
    the affine asymptotic implied volatility, and recover the group constant
    from the fitted smile slope.
    """
    eps = _check_dyadic(eps_grid)
    if mp_base.rho == 0.0:
        raise ValueError("smile slope recovery requires rho != 0")
    gp = group_params(mp_base)
    tau = mp_base.maturity_T
    x0 = mp_base.x0
    points = []
    for e in eps:
        mp = replace(mp_base, eps=e)
        log_m, iv_inv, gaps = [], [], []
        for rel in strikes_rel:
            strike = x0 * float(rel)
            res = pricing.corrected_price(mp, gp, pricing.Call(strike), 0.0)
            if res.implied_vol_inverted is None:
                raise RuntimeError(
                    f"corrected price {res.q_eps!r} fell outside the "
                    f"no-arbitrage band at strike {strike!r}"
                )
            log_m.append(math.log(strike / x0))
            iv_inv.append(res.implied_vol_inverted)
            gaps.append(abs(res.implied_vol_inverted - res.implied_vol_asymptotic))
        slope = float(np.polyfit(log_m, iv_inv, 1)[0])
        recovered = slope * gp.sigma_bar**3 * tau / (math.sqrt(e) * mp.rho)
        points.append(SmilePoint(
            eps=e,
            max_scaled_iv_gap=max(gaps) / math.sqrt(e),
            d_bar_recovered=recovered,
            recovery_rel_err=abs(recovered - gp.d_bar) / abs(gp.d_bar),
        ))
    gaps = [p.max_scaled_iv_gap for p in points]
    verdict = ("decreasing" if all(b < a for a, b in zip(gaps, gaps[1:]))
               else "not decreasing")
    return SmileReport(
        eps_grid=tuple(eps),
        strikes_rel=tuple(float(s) for s in strikes_rel),
        points=tuple(points),
        d_bar=gp.d_bar,
        sigma_bar=gp.sigma_bar,
        hurst=mp_base.hurst,
        verdict=verdict,
    )


@dataclass(frozen=True)
class TermStructureReport(_ReportMixin):
    """Maturity scaling of the term-structure amplitude factor."""

    hurst: float
    tau_mr: float
    tau_bar: float
    short_slope: float
    long_slope: float
    expected_short: float      # H + 1/2
    expected_long: float       # H - 1/2
    zeta_fast: float
    zeta_slow: float
    zeta_small_amplitude: float
    taus: tuple
    factors: tuple

    def table(self):
        return ("tau", "amplitude_factor"), list(zip(self.taus, self.factors))


def termstructure_study(hurst: float, tau_mr: float = 1.0,
                        tau_bar: float = 1.0,
                        delta_sigma: float = 0.1) -> TermStructureReport:
    """Short- and long-maturity slopes of the amplitude factor, plus the
    characteristic exponents for the three modelling regimes."""
    ts = pricing.TermStructureParams(
        regime="FastMeanReverting", tau_mr=tau_mr, delta_sigma=delta_sigma,
        tau_bar=tau_bar,
    )
    h = float(hurst)

    def slope(taus):
        vals = [pricing.term_structure_factor(t, ts, h) for t in taus]
        return float(np.polyfit(np.log(taus), np.log(np.abs(vals)), 1)[0])

    short_taus = tau_mr * np.array([1e-4, 2e-4, 5e-4, 1e-3])
    long_taus = tau_mr * np.array([1e3, 2e3, 5e3, 1e4])
    table_taus = tau_mr * np.geomspace(1e-4, 1e4, 17)
    factors = [pricing.term_structure_factor(t, ts, h) for t in table_taus]
    return TermStructureReport(
        hurst=h,
        tau_mr=tau_mr,
        tau_bar=tau_bar,
        short_slope=slope(short_taus),
        long_slope=slope(long_taus),
        expected_short=h + 0.5,
        expected_long=h - 0.5,
        zeta_fast=pricing.zeta_exponent(h, "FastMeanReverting"),
        zeta_slow=pricing.zeta_exponent(h, "SlowMeanReverting"),
        zeta_small_amplitude=pricing.zeta_exponent(h, "SmallAmplitude"),
        taus=tuple(float(t) for t in table_taus),
        factors=tuple(float(f) for f in factors),
    )
