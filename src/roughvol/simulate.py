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
variant, ``FactorSampler(zero_start=True)``, which ``convergence_study``
runs with ``zero_start=True``): a history of rank 0.  The sum runs over the
increments since ``t = 0`` only, so ``Z_0 = 0`` and there is no
``eta_i``.  :class:`FactorSampler` holds the scheme for one grid in either
mode, and its :meth:`~FactorSampler.paths` is the one route from standard
normals to ``Z``, ``sigma`` and the cumulative log-price ``log(X / x0)``;
:func:`normal_blocks` draws the standard normals every simulator and
study consumes.

Each batch of draws comes from its own Philox stream, and
:func:`normal_blocks` draws the next batch on one helper thread while the
caller consumes the current one.  ``ROUGHVOL_THREADS`` caps the
BLAS/OpenMP pools only, not that thread; the output bits depend on
neither the helper's timing nor the thread count, with one exception: the
``CholeskyExact`` scheme applies its Cholesky factor by a BLAS product,
so its bits follow the BLAS thread count.  A batch is cut into row slabs
of ``_SLAB_ROWS`` base rows (:meth:`FactorSampler.row_slabs`), and only
there: one pass fills a batch's arrays slab by slab for either scheme,
:meth:`FactorSampler.conditional_law` forms its means slab by slab, and
``convergence_study`` reduces each slab to its prices before the next, so
a slab's temporaries stay in cache.  Each row is computed on its own, so
the first ``m`` paths do not depend on how many are drawn, and no output
of the moving-average scheme depends on the slab size.

The price update is the exact lognormal step for piecewise-constant
volatility, so convergence studies isolate the volatility approximation.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
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
_SLAB_ROWS = 128  # base rows a per-batch pass takes at once (FactorSampler.row_slabs)

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
        if not (0.0 < self.eps < math.inf):
            raise ValueError(f"eps must be positive and finite; got {self.eps!r}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1]; got {self.rho!r}")
        if not isinstance(self.vol_fn, VolFunction):
            raise ValueError("vol_fn must be a VolFunction instance")
        if not (0.0 < self.x0 < math.inf):
            raise ValueError(f"x0 must be positive and finite; got {self.x0!r}")
        if not (0.0 < self.maturity_T < math.inf):
            raise ValueError(
                f"maturity_T must be positive and finite; got {self.maturity_T!r}"
            )


@dataclass(frozen=True)
class SimGrid:
    """Simulation grid: ``n_steps`` steps of length ``dt`` plus a warmup.

    ``dt * n_steps`` must equal the model maturity; under the
    ``TruncatedMovingAverage`` scheme the grid must resolve the fast scale
    (``dt <= eps/4``) and carry enough history (``warmup_horizon >=
    20 eps``) — both enforced at simulation time against the model.
    ``CholeskyExact`` samples the exact joint Gaussian law instead and
    ignores the warmup; that law, in :func:`simulate_paths` and
    :func:`exact_gaussian_check` alike, is limited to ``n_steps <= 512``.
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


def _check_span(mp: ModelParams, grid: SimGrid):
    if abs(grid.n_steps * grid.dt - mp.maturity_T) > 1e-9 * mp.maturity_T:
        raise ValueError(
            f"grid spans {grid.n_steps * grid.dt!r} years but maturity is "
            f"{mp.maturity_T!r}"
        )


def _validate_grid(mp: ModelParams, grid: SimGrid, warmup: bool = True):
    """Check ``grid`` for ``mp`` under the moving-average rules, which apply
    whatever the grid's label."""
    _check_span(mp, grid)
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

    While the caller holds batch ``b``, one helper thread draws batch
    ``b + 1`` into a new array (batch 0 is drawn on the caller's thread).
    Each batch is its own stream and its own array, so neither the bits
    nor a yielded array depend on the helper's timing, and
    ``ROUGHVOL_THREADS``, which caps the BLAS/OpenMP pools only, does not
    count the helper.  The stream keeps no batch it has yielded once the
    caller asks for the next, and joins the helper when it ends, is closed
    or is collected.

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
    firsts = range(0, n_paths, _BATCH_PATHS)

    def draw(batch_index):
        use = min(_BATCH_PATHS, n_paths - firsts[batch_index])
        bit = np.random.Philox(key=key, counter=batch_index << 128)
        # standard_normal fills row-major, so these rows are the first
        # rows of the full batch
        return np.random.Generator(bit).standard_normal(
            (use // 2 if antithetic else use, ncols))

    def blocks():
        # leaving the with block, also by close or collection, joins the
        # helper after its draw in progress
        with ThreadPoolExecutor(1, thread_name_prefix="roughvol-draw") as helper:
            ahead = None
            for b in range(len(firsts)):
                # rebinding drops batch b - 1 before batch b + 1 is begun
                block = draw(b) if ahead is None else ahead.result()
                ahead = helper.submit(draw, b + 1) if b + 1 < len(firsts) else None
                yield block

    return blocks()


def _log_price(mp: ModelParams, dt: float, sigma: np.ndarray,
               xi_w: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """``log(X / x0)`` at the grid times (0 at ``t = 0``) under the exact
    lognormal price step for piecewise-constant volatility.

    The log increment ``-0.5 sig^2 dt + sig sqrt(dt) (rho xi_w +
    sqrt(1 - rho^2) zeta)`` is formed in the output, each operation
    rounding as it would out of place, and summed along the row."""
    sig = sigma[:, :-1]
    log_x = np.empty_like(sigma)
    log_x[:, 0] = 0.0
    inc = log_x[:, 1:]
    np.multiply(mp.rho, xi_w, out=inc)
    inc += math.sqrt(1.0 - mp.rho**2) * zeta
    inc *= sig * math.sqrt(dt)
    inc += -0.5 * sig**2 * dt
    np.cumsum(inc, axis=1, out=inc)
    return log_x


def _price(x0: float, log_x: np.ndarray, out: Optional[np.ndarray] = None):
    """``X = x0 exp(log_x)`` into ``out``, by default over ``log_x``; the
    column ``t = 0`` comes out as ``x0`` exactly."""
    out = log_x if out is None else out
    np.exp(log_x, out=out)
    return np.multiply(x0, out, out=out)


def _vol_and_price(mp: ModelParams, dt: float, z: np.ndarray, xi_w: np.ndarray,
                   zeta: np.ndarray, antithetic: bool):
    """``(Z, sigma, xi_w, zeta, log_x)`` from the factor ``z``, the
    standardized price increments ``xi_w`` and the orthogonal shocks
    ``zeta`` of the base rows: the pairing, the vol map and the price step
    of both schemes.  With ``antithetic=True`` all three are paired here by
    :meth:`FactorSampler.antithetic`, the one place either scheme pairs."""
    if antithetic:
        z, xi_w, zeta = map(FactorSampler.antithetic, (z, xi_w, zeta))
    sigma = mp.vol_fn(z)
    return z, sigma, xi_w, zeta, _log_price(mp, dt, sigma, xi_w, zeta)


def _bundle(x0: float, grid: SimGrid, block: np.ndarray, seed: int,
            antithetic: bool, slab_paths) -> PathBundle:
    """A batch's :class:`PathBundle` from one block of draws (base rows
    with ``antithetic=True``): the one path pass of both schemes.

    ``slab_paths`` maps one of the :meth:`FactorSampler.row_slabs` of the
    block to its ``(Z, sigma, xi_w, zeta, log_x)``, as
    :func:`_vol_and_price` returns them.  The arrays are allocated once and
    filled slab by slab, each slab's ``log_x`` exponentiated into ``X`` in
    place, so the temporaries of a scheme are a slab's and stay in cache.
    """
    n, dt = grid.n_steps, grid.dt
    pair = 2 if antithetic else 1
    rows = pair * block.shape[0]
    dW, dB = np.empty((rows, n)), np.empty((rows, n))
    z_all, sigma_all, x_all = (np.empty((rows, n + 1)) for _ in range(3))
    for base in FactorSampler.row_slabs(block.shape[0]):
        out = slice(pair * base.start, pair * base.stop)
        z_all[out], sigma_all[out], xi_w, zeta, log_x = slab_paths(block[base])
        np.multiply(math.sqrt(dt), xi_w, out=dW[out])
        np.multiply(math.sqrt(dt), zeta, out=dB[out])
        _price(x0, log_x, out=x_all[out])
    return PathBundle(np.arange(n + 1) * dt, dW, dB, z_all, sigma_all, x_all, seed)


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
    log-prices through :meth:`paths` (:meth:`bundle` wraps it for one block
    of draws, slab by slab, and forms the prices).  Stationary by default;
    with ``zero_start=True`` the factor has no history before ``t = 0``: it
    is the same scheme with a history factor of rank 0 (no rows), so ``Z_0
    = 0``, there is no tail compensator and no repair draw at ``t = 0``,
    and the warmup of the grid is neither used nor checked.

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
    sign, so the output has the bits of computing both rows, a
    zero-started ``Z_0 = +0.0`` included.

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
    masses, w_conv : ndarray
        The kernel masses ``M'_k`` of the fine cells ``k`` of the warmup
        and ``[0, T]``, and ``M'_k / sqrt(delta')``.
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
        self.masses = masses = ke.cell_masses(fine, kap * (self.n_w + n))
        self.w_conv = masses / math.sqrt(fine)
        self.r_std = math.sqrt(max(ke.ksq_first_cell(fine) - masses[0] ** 2 / fine,
                                   0.0))
        self._factors, self._variances = {}, {}  # by fine: see their methods
        if zero_start:
            self.eta_std = None
            self.widths = (0, n, 0)
        else:
            self.eta_std = np.sqrt(ke.ksq_tail((self.n_w + np.arange(n + 1))
                                               * self.delta))
            self.widths = (self.history_factor().shape[0], n + 1, n + 1)
        self.ncols = sum(self.widths) + (kap + 1) * n

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

    def _convolve(self, xi: np.ndarray, step: int) -> np.ndarray:
        """Columns ``step - 1 : kappa n : step`` of the full convolution of
        each row of ``xi`` with ``w_conv[:kappa n]``: the entries
        :meth:`_moving_sum` reads.

        One pass takes the transforms, padded length and product of
        ``signal.fftconvolve(xi, w_conv[None, :kappa n], mode="full",
        axes=1)`` on the rows it is given; the FFT transforms each row on
        its own, so a row has the bits of that call on any block holding
        it, and a caller bounds the spectra by passing one of the
        :meth:`row_slabs`.  The transforms run on the caller's thread
        alone, whatever ``ROUGHVOL_THREADS`` (which caps the BLAS/OpenMP
        pools only) and whatever the helper thread of :func:`normal_blocks`
        is doing; the bits depend on neither.
        """
        kn = self.kappa * self.n
        n = sp_fft.next_fast_len(xi.shape[1] + kn - 1, True)
        spec = sp_fft.rfft(xi, n, axis=1)
        spec *= sp_fft.rfft(self.w_conv[:kn], n)
        return sp_fft.irfft(spec, n, axis=1, overwrite_x=True)[:, step - 1: kn: step]

    @staticmethod
    def row_slabs(n_rows: int) -> list:
        """Slices of ``_SLAB_ROWS`` consecutive rows covering ``n_rows``
        rows: the slabs a per-batch pass (:meth:`bundle` and the
        ``CholeskyExact`` pass of :func:`simulate_paths`,
        :meth:`conditional_law`, ``convergence_study``) takes at once, so
        that a slab's arrays stay in cache.  Each row is computed on its
        own, so no output of the moving-average scheme depends on the slab
        size."""
        return [slice(a, a + _SLAB_ROWS) for a in range(0, n_rows, _SLAB_ROWS)]

    def _moving_sum(self, g: np.ndarray, xi: np.ndarray, fine: bool) -> np.ndarray:
        """The moving sum (in ``sigma_ou`` units, no repairs) at the price
        nodes or the fine nodes, one C-ordered row per row of ``g``: the
        history ``F^T g`` plus the first ``xi.shape[1]`` fine increments on
        ``[0, T]``."""
        factor = self.history_factor(fine)
        total = np.zeros((xi.shape[0], factor.shape[1]))
        if factor.shape[0]:  # none when zero-started
            # one row of F at a time, not g @ F, whose BLAS rounding can
            # vary with the block's row count or the thread count.  The
            # outer product sums nothing, so einsum rounds it as coef * part
            # does, but faster on a slab's short rows
            for coef, part in zip(g.T, factor):
                total += np.einsum("r,s->rs", coef, part)
        if xi.shape[1]:
            # node s sees the increments before it: entry s - 1 of the sum
            total[:, 1:] += self._convolve(xi, 1 if fine else self.kappa)
        return total

    @staticmethod
    def antithetic(a: np.ndarray) -> np.ndarray:
        """Rows ``(a_0, -a_0, a_1, -a_1, ...)`` from base rows ``a``.

        The odd rows are ``0.0 - a``: ``-a`` for every nonzero value, and
        ``+0.0`` for a zero, which is what computing the negated row gives
        (a zero-started ``Z_0`` stays ``+0.0``)."""
        out = np.empty((2 * a.shape[0],) + a.shape[1:])
        out[0::2] = a
        np.subtract(0.0, a, out=out[1::2])
        return out

    def z_from_normals(self, g: Optional[np.ndarray], xi: np.ndarray,
                       r: np.ndarray, eta: Optional[np.ndarray]) -> np.ndarray:
        """Factor values ``Z_0..Z_n`` (batch rows) from standard normals.

        ``g`` holds the history normals, ``xi`` the fine increments on
        ``[0, T]``, ``r`` and ``eta`` the repair and tail draws; ``g`` and
        ``eta`` are ignored when zero-started.  The repairs go on the last
        ``r.shape[1]`` nodes (all of them, or all but ``t = 0`` when
        zero-started, where ``Z_0 = +0.0``).
        """
        z = self._moving_sum(g, xi, False)
        z[:, -r.shape[1]:] += self.r_std * r
        if not self.zero_start:
            z += self.eta_std * eta
        z *= self.sig_ou
        return z

    def conditional_law(self, g: np.ndarray, xi: Optional[np.ndarray] = None,
                        fine: bool = False):
        """``(means, variances)`` of ``Z_s`` given the history normals ``g``
        (``history_factor(fine).shape[0]`` columns) and the first fine
        increments ``xi`` on ``[0, T]`` (none by default; whole steps), at
        the price nodes, or with ``fine=True`` the ``kappa``-times finer
        nodes, from the node where ``xi`` ends.  Given that past ``Z_s`` is
        Gaussian: the mean is ``sigma_ou`` times the moving sum (no
        repairs), the variance ``sigma_ou^2 int_0^{(s - t)/eps} K^2`` with
        ``t`` the end of ``xi``; the variances are built once and kept.
        The means are formed one of the :meth:`row_slabs` at a time and
        stored node by node (each node's column contiguous), the order in
        which ``gaussian_profile`` reads them."""
        if xi is None:
            xi = np.empty((g.shape[0], 0))
        step = 1 if fine else self.kappa
        if fine not in self._variances:
            spacing = self.delta / self.kappa if fine else self.delta
            self._variances[fine] = self.sig_ou**2 * self.ke.ksq_cum_grid(
                spacing, self.kappa * self.n // step)
        start = xi.shape[1] // step
        means = np.empty((self.kappa * self.n // step + 1 - start, g.shape[0])).T
        for rows in self.row_slabs(g.shape[0]):
            total = self._moving_sum(g[rows], xi[rows], fine)
            total *= self.sig_ou
            means[rows] = total[:, start:]
        return means, self._variances[fine][: means.shape[1]]

    @staticmethod
    def block_sums(xi: np.ndarray, m: int) -> np.ndarray:
        """Standardized sums of ``m`` consecutive standardized increments.

        ``m = 1`` returns ``xi`` itself.  Otherwise the strided views
        ``xi[:, j::m]`` are added in the order NumPy adds a row of ``m``,
        so the result has the bits of ``xi.reshape(b, cols // m,
        m).sum(axis=2)`` (up to the sign of a block of ``-0.0``) without
        copying a non-contiguous ``xi``: in turn for ``m < 8``, and for
        ``8 <= m <= 128`` as NumPy's unrolled pairwise sum, eight partial
        sums of every eighth term added as a tree, then the terms past the
        last full eight.  Past 128 terms NumPy splits the row, and the
        reshape-sum stays."""
        if m == 1:
            return xi
        if m < 8:
            total = xi[:, 0::m] + xi[:, 1::m]
            for j in range(2, m):
                total += xi[:, j::m]
        elif m <= 128:
            full = m - m % 8
            part = [xi[:, j::m] for j in range(8)]
            for i in range(8, full, 8):
                part = [p + xi[:, i + j::m] for j, p in enumerate(part)]
            total = part[0] + part[1]
            total += part[2] + part[3]
            rest = part[4] + part[5]
            rest += part[6] + part[7]
            total += rest
            for i in range(full, m):
                total += xi[:, i::m]
        else:
            b, cols = xi.shape
            total = xi.reshape(b, cols // m, m).sum(axis=2)
        return total / math.sqrt(m)

    def paths(self, g: Optional[np.ndarray], xi: np.ndarray, zeta: np.ndarray,
              r: np.ndarray, eta: Optional[np.ndarray], antithetic: bool = False):
        """``(Z, sigma, xi_w, zeta, log_x)`` from the draws of
        :meth:`z_from_normals` and the orthogonal price shocks ``zeta``;
        ``xi_w`` are the standardized price increments and ``log_x`` is the
        cumulative log-price ``log(X / x0)`` at the grid times (0 at
        ``t = 0``).  ``x0 * exp(log_x)`` has the bits of the price ``X`` of
        :meth:`bundle`, so a caller that reads a few times exponentiates
        only those columns.  With ``antithetic=True`` the draws are base
        rows, paired by :func:`_vol_and_price` before the vol map, and
        every output holds both rows."""
        return _vol_and_price(self.mp, self.grid.dt, self.z_from_normals(g, xi, r, eta),
                              self.block_sums(xi, self.kappa), zeta, antithetic)

    def bundle(self, block: np.ndarray, seed: int,
               antithetic: bool = False) -> PathBundle:
        """:meth:`paths` from one block of ``ncols`` draws (base rows, as
        :func:`normal_blocks` yields them, with ``antithetic=True``), filled
        into the batch's arrays one of the :meth:`row_slabs` at a time by
        :func:`_bundle`."""
        cuts = np.cumsum((self.widths[0], self.kappa * self.n, self.n, self.widths[1]))
        return _bundle(self.mp.x0, self.grid, block, seed, antithetic,
                       lambda slab: self.paths(*np.split(slab, cuts, axis=1),
                                               antithetic))


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


def _exact_factor(mp: ModelParams, grid: SimGrid):
    """``(cov, chol, jitter)``: :func:`_exact_joint_cov` on a grid that spans
    the maturity and has ``n_steps <= 512`` (the warmup is not used), and
    its :func:`~roughvol.kernel.jittered_cholesky` factor and jitter."""
    _check_span(mp, grid)
    if grid.n_steps > 512:
        raise ValueError(
            f"the exact joint law is limited to n_steps <= 512; got {grid.n_steps}"
        )
    cov = _exact_joint_cov(mp, grid)
    return (cov, *jittered_cholesky(cov))


def _exact_slab_paths(mp: ModelParams, grid: SimGrid, antithetic: bool):
    """``(ncols, slab_paths)`` of the ``CholeskyExact`` scheme for
    :func:`_bundle`.

    A row of draws holds ``2n + 1`` standard normals, which the
    :func:`_exact_factor` maps to ``(Z_0..Z_n, dW_0..dW_{n-1})``, then the
    ``n`` orthogonal price shocks; the factor's ``dW`` rows are divided by
    ``sqrt(dt)``, so the product gives the standardized increments.  The
    product runs on the base rows, which :func:`_vol_and_price` pairs after
    it.  It is a BLAS product of one fixed shape: each slab is padded with
    zero rows to ``_SLAB_ROWS`` rows, and slabs start at multiples of
    ``_SLAB_ROWS`` in a batch, so a row's bits depend neither on the other
    rows nor on how many are drawn.  They do depend on the BLAS thread
    count, which ``ROUGHVOL_THREADS`` caps.
    """
    _, chol, _ = _exact_factor(mp, grid)
    n, k = grid.n_steps, 2 * grid.n_steps + 1
    lin = chol.T.copy()  # base rows @ lin = (Z, dW / sqrt(dt))
    lin[:, n + 1:] /= math.sqrt(grid.dt)

    def slab_paths(slab):
        base = np.zeros((_SLAB_ROWS, k))
        base[: slab.shape[0]] = slab[:, :k]
        zx = (base @ lin)[: slab.shape[0]]
        return _vol_and_price(mp, grid.dt, zx[:, : n + 1], zx[:, n + 1:], slab[:, k:],
                              antithetic)

    return 3 * n + 1, slab_paths


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
    relative error of the scheme's factor variances.  The grid must meet
    the exact law's size limit and the moving-average rules, as in
    :func:`simulate_paths`.
    """
    exact, _, jitter = _exact_factor(mp, grid_small)
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
    ``n_paths >= m``.  The bits do not depend on the BLAS/OpenMP thread
    count either, except under ``CholeskyExact``, whose Cholesky factor is
    applied by a BLAS product: there they follow the count that
    ``ROUGHVOL_THREADS`` caps.  With ``antithetic=True`` consecutive rows
    ``(2m, 2m+1)`` use negated Gaussian draws (``n_paths`` must be even);
    under either scheme the linear part runs once per pair, on the base
    rows of :func:`normal_blocks`, and is paired by
    :meth:`FactorSampler.antithetic`.  Each yielded bundle owns its
    arrays, so a caller may keep them while the stream goes on; one that
    drops each bundle before asking for the next holds one batch of paths
    at a time.

    Raises
    ------
    ValueError
        If the grid violates its invariants for ``mp`` (``dt <= eps/4``,
        ``warmup >= 20 eps`` under the moving-average scheme,
        ``n_steps <= 512`` under ``CholeskyExact``), if ``n_paths <= 0``,
        or if ``antithetic`` and ``n_paths`` is odd.
    """
    if grid.scheme == "TruncatedMovingAverage":
        sampler = FactorSampler(mp, grid)
        ncols = sampler.ncols
        bundle = partial(sampler.bundle, seed=seed, antithetic=antithetic)
    else:
        ncols, slab_paths = _exact_slab_paths(mp, grid, antithetic)
        bundle = partial(_bundle, mp.x0, grid, seed=seed, antithetic=antithetic,
                         slab_paths=slab_paths)
    # map keeps no block between batches: while the caller holds a bundle,
    # the only blocks alive are the stream's last and the one drawn ahead
    yield from map(bundle, normal_blocks(seed, n_paths, ncols, antithetic))


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
