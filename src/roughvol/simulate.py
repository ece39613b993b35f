"""Joint simulation of the price/volatility model on a time grid.

The volatility factor is the stationary fractional OU process

    Z_t = sigma_ou * int_-inf^t K_eps(t - s) dW_s,
    K_eps(u) = eps^(-1/2) K(u / eps),

the volatility is ``sigma_t = F(Z_t)``, and the price solves
``dX = sigma_t X dW*_t`` with ``W* = rho W + sqrt(1-rho^2) B``.

The default scheme discretizes the moving average by kernel cell masses
on a sub-grid ``delta' = delta/kappa`` four times finer than the price
grid (``delta = dt/eps``):

    Z_i = sigma_ou [ h_i + sum_k (M'_k / sqrt(delta')) xi'_(kappa i - 1 - k)
                     + r_i + eta_i ],

where ``M'_k`` are the exact fine-cell integrals of ``K``, ``xi'`` the
standardized fine Brownian increments since ``t = 0``, and ``h_i`` the
same sum over the ``kappa n_w`` fine increments of the warmup before
``t = 0``; the price increments ``dW_j`` are the block sums of the fine
increments, so Cov(Z_i, dW_j) is exact by construction.  Oversampling is
needed because the kernel is singular at the origin: plain cell averages
at the price resolution distort the short-lag autocovariance of Z by over
1e-2 in correlation units at ``delta = 1/8``, versus ~2e-3 with
``kappa = 4``.  Two Gaussian repairs sharpen the marginals further:
``r_i`` restores the exact nearest-cell variance ``int_0^delta' K^2``
(the fine cell average alone loses up to tens of percent at small H), and
``eta_i`` compensates the truncated pre-warmup history with variance
``int_(warmup+t_i)/eps^inf K^2``.  The residual covariance error, 7e-4 to
3e-3 in correlation, is measured by :func:`exact_gaussian_check`.

The warmup increments are not drawn one by one.  They reach ``h_0..h_n``
through a linear map of numerical rank about 14, so ``h`` is drawn as
``F^T g``: ``g`` holds that many standard normals per path, and ``F`` is
a pivoted Cholesky factor of the map's Gram matrix, exact up to a
residual variance of 1e-16.  The law is the scheme's; the FFT convolves
only the increments on ``[0, T]``.

The same scheme gives the zero-started factor
``Z_t = sigma_ou int_0^t K_eps(t - s) dW_s`` (the Riemann--Liouville
variant of :func:`simulate_paths_RL` and of ``convergence_study`` with
``zero_start=True``): a history of rank 0.  The sum runs over the
increments since ``t = 0`` only, so ``Z_0 = 0`` and there is no
``eta_i``.  :class:`FactorSampler` holds the scheme for one grid in either
mode, and its :meth:`~FactorSampler.paths` is the one route from standard
normals to ``(Z, sigma, X)``; :func:`normal_blocks` draws the standard
normals every simulator and study consumes.

The price update is the exact lognormal step for piecewise-constant
volatility, so convergence studies isolate the volatility approximation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy import fft as sp_fft

from .gaussfunc import VolFunction
from .kernel import CovarianceEval, KernelEval, _hurst_value, jittered_cholesky

__all__ = [
    "ModelParams",
    "SimGrid",
    "PathBundle",
    "ExactGaussianReport",
    "FactorSampler",
    "normal_blocks",
    "simulate_paths",
    "simulate_paths_RL",
    "exact_gaussian_check",
    "concat_bundles",
    "dump_paths",
]


def __getattr__(name: str):
    """``signal`` is :mod:`scipy.signal`, imported on first lookup: no code
    here calls it, but ``bench/tracer.py`` proxies ``simulate.signal``."""
    if name == "signal":
        from scipy import signal
        return signal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_BATCH_PATHS = 4096  # internal batch width; fixed so output is independent
# of how many paths are requested (prefix property) and of any parallelism

_OVERSAMPLE = 4  # fine sub-steps per price step in the moving average

_HISTORY_TOL = 1e-16  # largest residual variance the history factor leaves
_SLAB_DOUBLES = 1 << 15  # entries of a history slab formed at once (256 kB)

_SCHEMES = ("TruncatedMovingAverage", "CholeskyExact")


@dataclass(frozen=True)
class ModelParams:
    """Model inputs.

    Attributes
    ----------
    hurst : float
        Roughness exponent in (0, 1/2).
    eps : float
        Mean-reversion time of the volatility factor (years).
    rho : float
        Leverage correlation in [-1, 1].
    vol_fn : VolFunction
        Volatility function ``F``.
    x0 : float
        Spot at time 0.
    maturity_T : float
        Option maturity (years).
    """

    hurst: float
    eps: float
    rho: float
    vol_fn: VolFunction
    x0: float
    maturity_T: float

    def __post_init__(self):
        object.__setattr__(self, "hurst", _hurst_value(self.hurst))
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be positive; got {self.eps!r}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1]; got {self.rho!r}")
        if not isinstance(self.vol_fn, VolFunction):
            raise ValueError("vol_fn must be a VolFunction instance")
        if not (self.x0 > 0.0):
            raise ValueError(f"x0 must be positive; got {self.x0!r}")
        if not (self.maturity_T > 0.0):
            raise ValueError(
                f"maturity_T must be positive; got {self.maturity_T!r}"
            )


@dataclass(frozen=True)
class SimGrid:
    """Simulation grid: ``n_steps`` steps of length ``dt`` plus a warmup.

    ``dt * n_steps`` must equal the model maturity; under the
    ``TruncatedMovingAverage`` scheme the grid must resolve the fast scale
    (``dt <= eps/4``) and carry enough history (``warmup_horizon >=
    20 eps``) — both enforced at simulation time against the model.
    ``CholeskyExact`` samples the exact joint Gaussian law instead
    (limited to ``n_steps <= 512``) and ignores the warmup.
    """

    n_steps: int
    dt: float
    warmup_horizon: float
    scheme: str = "TruncatedMovingAverage"

    def __post_init__(self):
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer; got {self.n_steps!r}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be positive; got {self.dt!r}")
        if not (self.warmup_horizon >= 0.0):
            raise ValueError(
                f"warmup_horizon must be nonnegative; got {self.warmup_horizon!r}"
            )
        if self.scheme not in _SCHEMES:
            raise ValueError(
                f"scheme must be one of {_SCHEMES}; got {self.scheme!r}"
            )

    @classmethod
    def for_model(cls, mp: ModelParams, points_per_eps: int = 8,
                  warmup_mult: float = 30.0,
                  scheme: str = "TruncatedMovingAverage") -> "SimGrid":
        """Grid satisfying the invariants for ``mp``.

        ``dt`` is ``maturity_T/n_steps`` with ``n_steps`` chosen so that
        ``dt <= eps/points_per_eps``; the warmup is ``warmup_mult * eps``.
        """
        if points_per_eps < 4:
            raise ValueError("points_per_eps must be >= 4 to resolve the fast scale")
        if warmup_mult < 20.0:
            raise ValueError("warmup_mult must be >= 20")
        n = max(1, math.ceil(mp.maturity_T * points_per_eps / mp.eps))
        return cls(n, mp.maturity_T / n, warmup_mult * mp.eps, scheme)


@dataclass(frozen=True)
class PathBundle:
    """A batch of simulated paths (rows are paths).

    ``times`` has ``n_steps + 1`` entries; ``dW``/``dB`` hold the Brownian
    increments (``sqrt(dt)`` scale, ``n_steps`` columns); ``Z``, ``sigma``
    and ``X`` hold the factor, volatility and price at the grid times, with
    ``sigma = F(Z)`` exactly and ``X[:, 0] = x0``.
    """

    times: np.ndarray
    dW: np.ndarray
    dB: np.ndarray
    Z: np.ndarray
    sigma: np.ndarray
    X: np.ndarray
    seed: int


@dataclass(frozen=True)
class ExactGaussianReport:
    """Scheme-vs-exact covariance comparison on a small grid.

    ``max_abs_corr_diff`` is the largest absolute entrywise difference
    between the correlation matrices of the stacked Gaussian vector
    ``(Z_0..Z_n, dW_0..dW_{n-1})`` under the scheme and under the exact
    law, blind to variance errors, which ``max_rel_var_diff`` measures:
    ``max_i |Var_scheme(Z_i) / Var_exact(Z_i) - 1|``.  ``zero_offset_value``
    is the exact ``Var(Z_t)`` recovered from the covariance builder (equals
    ``sigma_ou^2``); ``jitter`` is the diagonal boost the exact Cholesky
    factorization required.
    """

    max_abs_corr_diff: float
    max_rel_var_diff: float
    zero_offset_value: float
    jitter: float
    n_steps: int
    dt: float
    warmup_horizon: float


def _validate_grid(mp: ModelParams, grid: SimGrid, moving_average: bool = True,
                   warmup: bool = True):
    """Check ``grid`` for ``mp`` under the moving-average rules, which apply
    whatever the grid's label, or else under the Cholesky size limit."""
    if abs(grid.n_steps * grid.dt - mp.maturity_T) > 1e-9 * mp.maturity_T:
        raise ValueError(
            f"grid spans {grid.n_steps * grid.dt!r} years but maturity is "
            f"{mp.maturity_T!r}"
        )
    if moving_average:
        if grid.dt > mp.eps / 4.0 * (1.0 + 1e-12):
            raise ValueError(
                f"dt={grid.dt!r} violates dt <= eps/4 = {mp.eps / 4.0!r}; "
                "the grid must resolve the fast scale"
            )
        if warmup and grid.warmup_horizon < 20.0 * mp.eps * (1.0 - 1e-12):
            raise ValueError(
                f"warmup_horizon={grid.warmup_horizon!r} violates "
                f"warmup >= 20*eps = {20.0 * mp.eps!r}"
            )
    elif grid.n_steps > 512:
        raise ValueError(
            "CholeskyExact is limited to n_steps <= 512; got "
            f"{grid.n_steps}"
        )


def normal_blocks(seed: int, n_paths: int, ncols: int,
                  antithetic: bool = False) -> Iterator[np.ndarray]:
    """Standard normal draws for ``n_paths`` rows of ``ncols``, in batches.

    Batch ``b`` holds rows ``4096 b`` onwards and starts at counter
    ``b * 2^128`` of a Philox stream keyed by the seed, so batches never
    overlap, the content of a batch does not depend on how many are
    consumed, and the first ``m`` rows do not depend on ``n_paths >= m``.
    Each batch draws only the rows it yields.  With ``antithetic=True`` a
    batch of ``use`` paths yields its ``use // 2`` base rows: path ``2m``
    takes base row ``m`` and path ``2m + 1`` its negation (see
    :meth:`FactorSampler.antithetic`).

    Raises
    ------
    ValueError
        If ``n_paths`` is not a positive integer, or if ``antithetic`` and
        ``n_paths`` is odd.  Both are checked on the call, before any draw.
    """
    if not (isinstance(n_paths, int) and n_paths > 0):
        raise ValueError(f"n_paths must be a positive integer; got {n_paths!r}")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic sampling requires an even n_paths")
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)

    def blocks():
        for batch_index, first in enumerate(range(0, n_paths, _BATCH_PATHS)):
            use = min(_BATCH_PATHS, n_paths - first)
            bit = np.random.Philox(key=key, counter=batch_index << 128)
            # standard_normal fills row-major, so these rows are the first
            # rows of the full batch
            yield np.random.Generator(bit).standard_normal(
                (use // 2 if antithetic else use, ncols))

    return blocks()


def _x_from_vol(mp: ModelParams, dt: float, sigma: np.ndarray,
                xi_w: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Exact lognormal price steps for piecewise-constant volatility."""
    sig = sigma[:, :-1]
    shock = mp.rho * xi_w + math.sqrt(1.0 - mp.rho**2) * zeta
    log_incr = -0.5 * sig**2 * dt + sig * math.sqrt(dt) * shock
    log_x = np.cumsum(log_incr, axis=1)
    x = np.empty_like(sigma)
    x[:, 0] = mp.x0
    x[:, 1:] = mp.x0 * np.exp(log_x)
    return x


def _history_factor(w: np.ndarray, n_hist: int, step: int) -> np.ndarray:
    """Rows ``F`` with ``F^T F = A A^T`` up to a residual variance of
    ``_HISTORY_TOL`` for the history map ``A[s, j] = w[step s + j]``,
    ``j < n_hist``: the weight, at node ``s`` (``step s`` fine cells after
    ``t = 0``), of the fine increment ``j + 1`` cells before ``t = 0``.

    Pivoted Cholesky of ``A A^T`` (Harbrecht, Peters & Schneider, Appl.
    Numer. Math. 62, 2012): each step takes the node of largest residual
    variance, and stops once that is at most ``_HISTORY_TOL``.  The columns
    of ``A A^T`` are elementwise products summed along rows, and ``A`` is
    a strided view of ``w`` read in slabs, so no BLAS call sets the bits
    (they do not depend on the thread count) and ``A`` is never held whole.
    """
    windows = np.lib.stride_tricks.sliding_window_view(w, n_hist)[::step]
    n_nodes = windows.shape[0]
    slab = max(1, _SLAB_DOUBLES // max(n_hist, 1))

    def gram_column(v):
        return np.concatenate([(windows[a: a + slab] * v).sum(axis=1)
                               for a in range(0, n_nodes, slab)])

    resid = np.concatenate([(windows[a: a + slab] ** 2).sum(axis=1)
                            for a in range(0, n_nodes, slab)])
    rows = []
    for _ in range(n_nodes):
        p = int(np.argmax(resid))
        if resid[p] <= _HISTORY_TOL:
            break
        col = gram_column(windows[p])
        for f in rows:
            col -= f[p] * f
        f = col / math.sqrt(resid[p])
        rows.append(f)
        resid -= f * f
        resid[p] = 0.0
    return np.array(rows).reshape(len(rows), n_nodes)


class FactorSampler:
    """The moving-average scheme for ``Z`` on one grid.

    Built once per ``(mp, grid)``: it validates the grid, precomputes the
    scheme weights (dimensionless, eps units) and the history factor, and
    turns standard normal draws into factor values, price increments and
    prices through :meth:`paths` (:meth:`bundle` wraps it for one block of
    draws).  Stationary by default; with ``zero_start=True`` the factor has
    no history before ``t = 0``: it is the same scheme with a history
    factor of rank 0 (no rows), so ``Z_0 = 0``, there is no tail
    compensator and no repair draw at ``t = 0``, and the warmup of the grid
    is neither used nor checked.

    The ``kappa n_w`` warmup increments reach the nodes only through the
    map ``A[s, j] = w_conv[kappa s + j]`` (the fine increment ``j + 1``
    cells before ``t = 0`` at node ``s``), whose numerical rank is about
    14.  So they are not drawn: the history part of the moving sum is
    ``F^T g``, with ``g`` a few standard normals per row and ``F`` the
    pivoted Cholesky factor of :meth:`history_factor`, which has the
    covariance ``A A^T`` up to a residual variance of 1e-16 (unit
    stationary variance).  Only the increments on ``[0, T]`` are
    convolved, with the lags inside ``[0, T]``.

    The history product, the convolution, the block sums and ``Z`` are
    linear in the draws, and each row is computed on its own: the history
    product adds ``F``'s rows one at a time rather than calling BLAS, so
    the bits of a row depend neither on the other rows of its block nor on
    the thread count.  For antithetic sampling the linear part runs on the
    base rows alone and is paired by :meth:`antithetic` before the vol map
    and the price step; negation is exact and rounding is symmetric in
    sign, so the output has the bits of computing both rows.  The kernel's
    spectrum is computed once per input width and kept.

    Attributes
    ----------
    ke : KernelEval
        The kernel evaluator the weights come from; ``sig_ou`` is its
        ``sigma_ou``.
    n, n_w, kappa : int
        Price steps, warmup price steps (0 when zero-started) and fine
        sub-steps per price step.
    delta : float
        ``dt / eps``.
    w_conv : ndarray
        ``M'_k / sqrt(delta')`` for the fine cells ``k`` of the warmup and
        ``[0, T]``.
    r_std : float
        Std of the nearest-fine-cell variance repair.
    eta_std : ndarray or None
        Std of the pre-warmup tail compensator at ``i = 0..n`` (stationary
        only).
    widths : tuple
        Per-row column counts of the sampler's own draws: the history
        normals ``g`` (the rank of the price-grid history factor, 0 when
        zero-started), the repairs ``r`` and the tail compensators ``eta``.
    ncols : int
        Columns of a :meth:`bundle` block: ``g``, the fine increments on
        ``[0, T]``, the orthogonal price shocks, ``r`` and ``eta``.
    """

    def __init__(self, mp: ModelParams, grid: SimGrid, zero_start: bool = False):
        _validate_grid(mp, grid, warmup=not zero_start)
        self.mp, self.grid, self.zero_start = mp, grid, zero_start
        self.ke = ke = KernelEval(mp.hurst)
        self.sig_ou = ke.sigma_ou
        self.n = n = grid.n_steps
        self.n_w = 0 if zero_start else int(round(grid.warmup_horizon / grid.dt))
        self.kappa = kap = _OVERSAMPLE
        self.delta = grid.dt / mp.eps
        fine = self.delta / kap
        masses = ke.cell_masses(fine, kap * (self.n_w + n))
        self.w_conv = masses / math.sqrt(fine)
        self.r_std = math.sqrt(max(ke.ksq_first_cell(fine) - masses[0] ** 2 / fine,
                                   0.0))
        self._factors = {}  # fine -> history factor, see history_factor
        if zero_start:
            self.eta_std = None
            self.widths = (0, n, 0)
        else:
            self.eta_std = np.sqrt(ke.ksq_tail((self.n_w + np.arange(n + 1))
                                               * self.delta))
            self.widths = (self.history_factor().shape[0], n + 1, n + 1)
        self.ncols = sum(self.widths) + (kap + 1) * n
        self._spectra = {}  # input width -> (n, rfft(w_conv[:kappa n], n))

    def history_factor(self, fine: bool = False) -> np.ndarray:
        """``F`` (one row per history normal, one column per node) with
        ``F^T F`` the covariance the warmup increments give the moving sum
        at the price nodes, or with ``fine=True`` at every node of the
        ``kappa``-times finer sub-grid (no rows when zero-started).  Built
        on first use and kept."""
        if fine not in self._factors:
            self._factors[fine] = _history_factor(
                self.w_conv, self.kappa * self.n_w, 1 if fine else self.kappa)
        return self._factors[fine]

    def _convolve(self, xi: np.ndarray) -> np.ndarray:
        """Full convolution of each row of ``xi`` with ``w_conv[:kappa n]``.

        The same transforms, padded length and product as
        ``signal.fftconvolve(xi, w_conv[None, :kappa n], mode="full",
        axes=1)``, so the same bits, with the kernel's spectrum computed
        once per input width.
        """
        w = self.w_conv[: self.kappa * self.n]
        width = xi.shape[1]
        full = width + w.size - 1
        if width not in self._spectra:
            n = sp_fft.next_fast_len(full, True)
            self._spectra[width] = n, sp_fft.rfft(w, n)
        n, w_hat = self._spectra[width]
        return sp_fft.irfft(sp_fft.rfft(xi, n, axis=1) * w_hat, n,
                            axis=1)[:, :full]

    def _moving_sum(self, g: np.ndarray, xi: np.ndarray, fine: bool) -> np.ndarray:
        """The moving sum (in ``sigma_ou`` units, no repairs) at the price
        nodes or the fine nodes: the history ``F^T g`` plus the first
        ``xi.shape[1]`` fine increments on ``[0, T]``."""
        factor = self.history_factor(fine)
        nodes, rows = factor.shape[1], xi.shape[0]
        total = np.zeros((nodes, rows))
        if factor.shape[0]:  # none when zero-started
            # one row of F at a time, not g @ F, whose BLAS rounding can
            # vary with the block's row count or the thread count.  Summed
            # as nodes x rows, a slab of nodes at a time, so each product
            # runs along the rows and the slab stays cached.
            g_t = g.T.copy()
            span = max(1, _SLAB_DOUBLES // rows)
            for a in range(0, nodes, span):
                slab = total[a: a + span]
                for coef, part in zip(g_t, factor[:, a: a + span]):
                    slab += part[:, None] * coef
        total = total.T
        if xi.shape[1]:
            step = 1 if fine else self.kappa
            # node s sees the increments before it: entry s - 1 of the sum
            total[:, 1:] += self._convolve(xi)[:, step - 1: self.kappa * self.n: step]
        return total

    @staticmethod
    def antithetic(a: np.ndarray) -> np.ndarray:
        """Rows ``(a_0, -a_0, a_1, -a_1, ...)`` from base rows ``a``."""
        out = np.empty((2 * a.shape[0],) + a.shape[1:])
        out[0::2] = a
        np.negative(a, out=out[1::2])
        return out

    def z_from_normals(self, g: Optional[np.ndarray], xi: np.ndarray,
                       r: np.ndarray, eta: Optional[np.ndarray],
                       antithetic: bool = False) -> np.ndarray:
        """Factor values ``Z_0..Z_n`` (batch rows) from standard normals.

        ``g`` holds the history normals, ``xi`` the fine increments on
        ``[0, T]``, ``r`` and ``eta`` the repair and tail draws; ``g`` and
        ``eta`` are ignored when zero-started.  The repairs go on the last
        ``r.shape[1]`` nodes (all of them, or all but ``t = 0`` when
        zero-started).  With ``antithetic=True`` the draws are base rows
        and the result holds each row's antithetic pair.
        """
        # C order, as the arithmetic below and the vol map run faster on it
        z = np.ascontiguousarray(self._moving_sum(g, xi, False))
        z[:, -r.shape[1]:] += self.r_std * r
        if not self.zero_start:
            z += self.eta_std * eta
        z *= self.sig_ou
        if antithetic:
            z = self.antithetic(z)
        if self.zero_start:
            # Z_0 = 0 is set after pairing: a negated zero would be -0.0
            z[:, 0] = 0.0
        return z

    def conditional_means(self, g: np.ndarray, xi: Optional[np.ndarray] = None,
                          fine: bool = False) -> np.ndarray:
        """E[Z_s | the history before 0 and the increments ``xi`` since 0].

        ``g`` holds the history normals (``history_factor(fine).shape[0]``
        columns) and ``xi`` the first fine increments on ``[0, T]`` (none by
        default).  Evaluated at the price nodes, or with ``fine=True`` at
        every node of the ``kappa``-times finer sub-grid.
        """
        if xi is None:
            xi = np.empty((g.shape[0], 0))
        return self.sig_ou * self._moving_sum(g, xi, fine)

    @staticmethod
    def block_sums(xi: np.ndarray, m: int) -> np.ndarray:
        """Standardized sums of ``m`` consecutive standardized increments."""
        b, cols = xi.shape
        return xi.reshape(b, cols // m, m).sum(axis=2) / math.sqrt(m)

    def paths(self, g: Optional[np.ndarray], xi: np.ndarray, zeta: np.ndarray,
              r: np.ndarray, eta: Optional[np.ndarray],
              decay: Optional[np.ndarray] = None, antithetic: bool = False):
        """``(Z, sigma, xi_w, zeta, X)`` from the draws of
        :meth:`z_from_normals` and the orthogonal price shocks ``zeta``;
        ``xi_w`` are the standardized price increments and ``decay`` is
        added to ``Z``.  With ``antithetic=True`` the draws are base rows,
        paired before the vol map, and every output holds both rows."""
        z = self.z_from_normals(g, xi, r, eta, antithetic)
        if decay is not None:
            z += decay
        sigma = self.mp.vol_fn(z)
        xi_w = self.block_sums(xi, self.kappa)
        if antithetic:
            xi_w, zeta = self.antithetic(xi_w), self.antithetic(zeta)
        return z, sigma, xi_w, zeta, _x_from_vol(self.mp, self.grid.dt,
                                                 sigma, xi_w, zeta)

    def bundle(self, block: np.ndarray, seed: int,
               decay: Optional[np.ndarray] = None,
               antithetic: bool = False) -> PathBundle:
        """:meth:`paths` from one block of ``ncols`` draws (base rows, as
        :func:`normal_blocks` yields them, with ``antithetic=True``)."""
        n, dt, widths = self.n, self.grid.dt, self.widths
        g, xi, zeta, r, eta = np.split(
            block, np.cumsum((widths[0], self.kappa * n, n, widths[1])), axis=1)
        z, sigma, xi_w, zeta, x = self.paths(g, xi, zeta, r, eta, decay, antithetic)
        return PathBundle(np.arange(n + 1) * dt, math.sqrt(dt) * xi_w,
                          math.sqrt(dt) * zeta, z, sigma, x, seed)


def _exact_joint_cov(mp: ModelParams, grid: SimGrid):
    """Exact covariance of (Z_0..Z_n, dW_0..dW_{n-1}) under the model.

    ``Cov(Z_i, dW_j) = sigma_ou sqrt(eps) M_(i-1-j)`` for ``j < i``, with the
    kernel cell masses ``M`` at the price resolution, and 0 for ``j >= i``.
    """
    ke = KernelEval(mp.hurst)
    ce = CovarianceEval(mp.hurst)
    n = grid.n_steps
    delta = grid.dt / mp.eps
    so = ke.sigma_ou
    nodes = np.arange(n + 1)
    cz_vals = so**2 * ce.cov_CZ(nodes * delta)
    masses = so * math.sqrt(mp.eps) * ke.cell_masses(delta, n)
    # entry i - j of (0, M_0, .., M_(n-1)) is Cov(Z_i, dW_j)
    cross = np.append(0.0, masses)[np.maximum(np.subtract.outer(nodes, nodes[:n]), 0)]
    cov = np.empty((2 * n + 1, 2 * n + 1))
    cov[: n + 1, : n + 1] = cz_vals[np.abs(np.subtract.outer(nodes, nodes))]
    cov[: n + 1, n + 1:] = cross
    cov[n + 1:, : n + 1] = cross.T
    cov[n + 1:, n + 1:] = grid.dt * np.eye(n)
    return cov


def _scheme_joint_cov(mp: ModelParams, grid: SimGrid) -> np.ndarray:
    """Covariance of (Z_0..Z_n, dW) implied by the moving-average scheme.

    The Gram matrix ``A A^T`` of the linear map ``A`` the sampler applies
    to its standardized draws (history normals ``g``, fine increments on
    ``[0, T]``, ``r``, ``eta``) to give ``(Z_0..Z_n, dW_0..dW_{n-1})``.
    Row ``i`` of ``Z`` weighs ``g`` by ``sigma_ou`` times column ``i`` of
    the history factor, fine increment ``q`` by ``sigma_ou w_conv[kappa i
    - 1 - q]`` (0 from ``t_i`` on), and adds ``sigma_ou r_std`` and
    ``sigma_ou eta_std[i]`` on its own repair and tail draws; row ``j`` of
    ``dW`` is the block sum ``sqrt(dt/kappa)`` over the ``kappa``
    increments of step ``j``, whose variance is set to exactly ``dt``.
    """
    sw = FactorSampler(mp, grid)
    n, kap, so = sw.n, sw.kappa, sw.sig_ou
    rank, nfine = sw.widths[0], kap * n
    fine = np.arange(nfine)
    lag = np.subtract.outer(kap * np.arange(n + 1) - 1, fine)
    weights = np.append(so * sw.w_conv[:nfine], 0.0)  # entry nfine: no weight
    a = np.zeros((2 * n + 1, rank + nfine + 2 * (n + 1)))
    a[: n + 1, :rank] = so * sw.history_factor().T
    a[: n + 1, rank: rank + nfine] = weights[np.where(lag >= 0, lag, nfine)]
    cols = rank + nfine
    a[: n + 1, cols: cols + n + 1] = so * sw.r_std * np.eye(n + 1)
    a[: n + 1, cols + n + 1:] = so * np.diag(sw.eta_std)
    a[n + 1:, rank: rank + nfine] = (math.sqrt(grid.dt / kap)
                                     * (fine // kap == np.arange(n)[:, None]))
    cov = a @ a.T
    cov[n + 1:, n + 1:] = grid.dt * np.eye(n)
    return cov


def exact_gaussian_check(mp: ModelParams, grid_small: SimGrid) -> ExactGaussianReport:
    """Compare the scheme's Gaussian law with the exact law on a small grid.

    Builds the exact joint covariance of the factor values and Brownian
    increments, Cholesky-factorizes it (escalating jitter up to 1e-10, and
    raising if the matrix still is not positive semidefinite), computes the
    scheme's covariance in closed form, and reports the maximum absolute
    entrywise difference of the two correlation matrices and the largest
    relative error of the scheme's factor variances.
    """
    if grid_small.n_steps > 512:
        raise ValueError(
            f"exact_gaussian_check requires n_steps <= 512; got {grid_small.n_steps}"
        )
    _validate_grid(mp, grid_small)
    exact = _exact_joint_cov(mp, grid_small)
    _, jitter = jittered_cholesky(exact)
    scheme = _scheme_joint_cov(mp, grid_small)

    def corr(m):
        d = np.sqrt(np.diag(m))
        return m / np.outer(d, d)

    diff = float(np.max(np.abs(corr(exact) - corr(scheme))))
    # both laws give each dW_j the variance dt exactly, so the Z_i set the max
    var_diff = float(np.max(np.abs(np.diag(scheme) / np.diag(exact) - 1.0)))
    return ExactGaussianReport(
        max_abs_corr_diff=diff,
        max_rel_var_diff=var_diff,
        zero_offset_value=float(exact[0, 0]),
        jitter=jitter,
        n_steps=grid_small.n_steps,
        dt=grid_small.dt,
        warmup_horizon=grid_small.warmup_horizon,
    )


def simulate_paths(mp: ModelParams, grid: SimGrid, n_paths: int, seed: int,
                   antithetic: bool = False) -> Iterator[PathBundle]:
    """Simulate paths of (W, B, Z, sigma, X); yields batches of paths.

    Reproducible: the same ``(mp, grid, n_paths, seed, antithetic)`` give
    bit-identical output, and the first ``m`` paths do not depend on
    ``n_paths >= m``.  With ``antithetic=True`` consecutive rows
    ``(2m, 2m+1)`` use negated Gaussian draws (``n_paths`` must be even);
    the linear part of the scheme runs once per pair, on the base rows of
    :func:`normal_blocks`, with the bits of running it on both rows.

    Raises
    ------
    ValueError
        If the grid violates its invariants for ``mp`` (``dt <= eps/4``,
        ``warmup >= 20 eps`` under the moving-average scheme), if
        ``n_paths <= 0``, or if ``antithetic`` and ``n_paths`` is odd.
    """
    if grid.scheme == "TruncatedMovingAverage":
        sampler = FactorSampler(mp, grid)
        for block in normal_blocks(seed, n_paths, sampler.ncols, antithetic):
            yield sampler.bundle(block, seed, antithetic=antithetic)
        return
    _validate_grid(mp, grid, moving_average=False)
    chol, _ = jittered_cholesky(_exact_joint_cov(mp, grid))
    n, dt = grid.n_steps, grid.dt
    times = np.arange(n + 1) * dt
    for block in normal_blocks(seed, n_paths, 3 * n + 1, antithetic):
        if antithetic:
            # paired before the product: a BLAS kernel may sum a row in an
            # order that depends on the row's position in the block
            block = FactorSampler.antithetic(block)
        zw = block[:, : 2 * n + 1] @ chol.T
        z = zw[:, : n + 1]
        dw = zw[:, n + 1:]
        zeta = block[:, 2 * n + 1:]
        sigma = mp.vol_fn(z)
        x = _x_from_vol(mp, dt, sigma, dw / math.sqrt(dt), zeta)
        yield PathBundle(times, dw, math.sqrt(dt) * zeta, z, sigma, x, seed)


def simulate_paths_RL(mp: ModelParams, grid: SimGrid, z0: float,
                      n_paths: int, seed: int,
                      antithetic: bool = False) -> Iterator[PathBundle]:
    """Riemann--Liouville variant: no pre-history, started at ``Z_0 = z0``.

    ``Z_t = z0 exp(-t/eps) + sigma_ou int_0^t K_eps(t-s) dW_s``: the
    zero-started :class:`FactorSampler` plus the decay of ``z0``.  The grid
    is checked as for :func:`simulate_paths`, except its warmup, which is
    not used.
    """
    if not math.isfinite(z0):
        raise ValueError(f"z0 must be finite; got {z0!r}")
    if grid.scheme != "TruncatedMovingAverage":
        raise ValueError("simulate_paths_RL supports only TruncatedMovingAverage")
    sampler = FactorSampler(mp, grid, zero_start=True)
    decay = z0 * np.exp(-np.arange(grid.n_steps + 1) * sampler.delta)
    for block in normal_blocks(seed, n_paths, sampler.ncols, antithetic):
        yield sampler.bundle(block, seed, decay, antithetic)


def concat_bundles(stream) -> PathBundle:
    """Concatenate a stream of batches into one PathBundle (small runs)."""
    bundles = list(stream)
    if not bundles:
        raise ValueError("empty path stream")
    first = bundles[0]
    return PathBundle(
        times=first.times,
        dW=np.concatenate([b.dW for b in bundles]),
        dB=np.concatenate([b.dB for b in bundles]),
        Z=np.concatenate([b.Z for b in bundles]),
        sigma=np.concatenate([b.sigma for b in bundles]),
        X=np.concatenate([b.X for b in bundles]),
        seed=first.seed,
    )


def dump_paths(mp: ModelParams, grid: SimGrid, bundle: PathBundle,
               out_dir: str, header_lines=()) -> list:
    """Write one CSV per path (time, Z, sigma, X) plus a JSON sidecar.

    Floating-point values are written with 17 significant digits; header
    comment lines (e.g. a config hash) are prepended verbatim after a
    leading '#'.  Returns the list of files written.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for p in range(bundle.X.shape[0]):
        path_file = os.path.join(out_dir, f"path_{p:05d}.csv")
        with open(path_file, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(f"# seed = {bundle.seed}\n")
            fh.write("time,Z,sigma,X\n")
            np.savetxt(fh, np.column_stack((bundle.times, bundle.Z[p],
                                            bundle.sigma[p], bundle.X[p])),
                       fmt="%.17g", delimiter=",")
        written.append(path_file)
    sidecar = os.path.join(out_dir, "paths_meta.json")
    meta = {
        "seed": int(bundle.seed),
        "n_paths": int(bundle.X.shape[0]),
        "model": {
            "hurst": mp.hurst,
            "eps": mp.eps,
            "rho": mp.rho,
            "x0": mp.x0,
            "maturity_T": mp.maturity_T,
            "vol_fn": repr(mp.vol_fn),
        },
        "grid": {
            "n_steps": grid.n_steps,
            "dt": grid.dt,
            "warmup_horizon": grid.warmup_horizon,
            "scheme": grid.scheme,
        },
    }
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(sidecar)
    return written
