"""Tests for the path simulation engine."""

import gc
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import signal

import roughvol
from roughvol.gaussfunc import BoundedSigmoid
from roughvol.kernel import CovarianceEval, KernelEval, cov_RL
from roughvol.simulate import (
    FactorSampler,
    ModelParams,
    PathBundle,
    SimGrid,
    concat_bundles,
    dump_paths,
    exact_gaussian_check,
    normal_blocks,
    simulate_paths,
    _SLAB_ROWS,
    _exact_joint_cov,
    _scheme_joint_cov,
)

EPS = 0.05
HURST = 0.3
VF = BoundedSigmoid(0.05, 0.45, 2.5)
KE = KernelEval(HURST)
CE = CovarianceEval(HURST)
SO2 = KE.sigma_ou**2


def make_model(**kw):
    base = dict(hurst=HURST, eps=EPS, rho=-0.5, vol_fn=VF, x0=1.0,
                maturity_T=0.3)
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def main_run():
    mp = make_model()
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    bundle = concat_bundles(simulate_paths(mp, grid, 6000, seed=2024))
    return mp, grid, bundle


def se_mean(x):
    return x.std(ddof=1) / math.sqrt(len(x))


# -- parameter validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(eps=0.0),
        dict(eps=-1.0),
        dict(rho=1.5),
        dict(rho=-1.0001),
        dict(x0=0.0),
        dict(maturity_T=0.0),
        dict(hurst=0.5),
        dict(hurst=0.0),
    ],
)
def test_model_params_validation(kw):
    with pytest.raises(ValueError):
        make_model(**kw)


@pytest.mark.parametrize("field", ["eps", "x0", "maturity_T"])
def test_model_params_reject_infinity(field):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        make_model(**{field: math.inf})


def test_model_params_vol_fn_type():
    with pytest.raises(ValueError, match="vol_fn"):
        make_model(vol_fn=lambda z: z)


@pytest.mark.parametrize(
    "args",
    [
        (0, 0.01, 1.0, "TruncatedMovingAverage"),
        (10, 0.0, 1.0, "TruncatedMovingAverage"),
        (10, 0.01, -1.0, "TruncatedMovingAverage"),
        (10, 0.01, 1.0, "Euler"),
    ],
)
def test_sim_grid_validation(args):
    with pytest.raises(ValueError):
        SimGrid(*args)


def test_for_model_satisfies_invariants():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    assert grid.dt <= mp.eps / 4.0
    assert grid.warmup_horizon >= 20.0 * mp.eps
    assert abs(grid.n_steps * grid.dt - mp.maturity_T) < 1e-12
    with pytest.raises(ValueError):
        SimGrid.for_model(mp, points_per_eps=2)
    with pytest.raises(ValueError):
        SimGrid.for_model(mp, warmup_mult=10.0)


def test_coarse_dt_is_an_error_not_a_warning():
    mp = make_model()
    grid = SimGrid(10, mp.maturity_T / 10, 30 * EPS)  # dt = 0.03 > eps/4
    with pytest.raises(ValueError, match="eps/4"):
        next(simulate_paths(mp, grid, 4, seed=0))


def test_short_warmup_is_an_error():
    mp = make_model()
    grid = SimGrid(48, mp.maturity_T / 48, 10 * EPS)
    with pytest.raises(ValueError, match="warmup"):
        next(simulate_paths(mp, grid, 4, seed=0))


def test_grid_maturity_mismatch_is_an_error():
    mp = make_model()
    grid = SimGrid(48, 0.9 * mp.maturity_T / 48, 30 * EPS)
    with pytest.raises(ValueError, match="maturity"):
        next(simulate_paths(mp, grid, 4, seed=0))


def test_bad_n_paths():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    with pytest.raises(ValueError, match="n_paths"):
        next(simulate_paths(mp, grid, 0, seed=0))
    with pytest.raises(ValueError, match="even"):
        next(simulate_paths(mp, grid, 5, seed=0, antithetic=True))


def test_dt_at_boundary_is_accepted():
    mp = make_model(maturity_T=EPS / 4.0 * 8)
    grid = SimGrid(8, EPS / 4.0, 30 * EPS)
    bundle = next(simulate_paths(mp, grid, 2, seed=1))
    assert bundle.X.shape == (2, 9)


# -- structural path properties ----------------------------------------------


def test_bundle_shapes_and_times(main_run):
    mp, grid, b = main_run
    n = grid.n_steps
    assert b.times.shape == (n + 1,)
    np.testing.assert_allclose(b.times, np.arange(n + 1) * grid.dt, rtol=0, atol=0)
    assert b.dW.shape == b.dB.shape == (6000, n)
    assert b.Z.shape == b.sigma.shape == b.X.shape == (6000, n + 1)
    assert b.seed == 2024


def test_sigma_is_vol_fn_of_Z_exactly(main_run):
    _, _, b = main_run
    assert np.array_equal(b.sigma, VF(b.Z))


def test_price_positive_and_started_at_x0(main_run):
    mp, _, b = main_run
    assert np.all(b.X > 0.0)
    assert np.all(b.X[:, 0] == mp.x0)


def test_same_seed_bit_identical(main_run):
    mp, grid, b = main_run
    again = concat_bundles(simulate_paths(mp, grid, 6000, seed=2024))
    for name in ("dW", "dB", "Z", "sigma", "X"):
        assert np.array_equal(getattr(b, name), getattr(again, name))


def test_path_prefix_independent_of_n_paths(main_run):
    mp, grid, b = main_run
    head = concat_bundles(simulate_paths(mp, grid, 1500, seed=2024))
    assert np.array_equal(head.X, b.X[:1500])
    assert np.array_equal(head.Z, b.Z[:1500])


def test_different_seeds_differ(main_run):
    mp, grid, b = main_run
    other = next(simulate_paths(mp, grid, 8, seed=2025))
    assert not np.array_equal(other.Z, b.Z[:8])


def test_antithetic_rows_are_negated_draws():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    b = concat_bundles(simulate_paths(mp, grid, 600, seed=5, antithetic=True))
    assert np.array_equal(b.Z[0::2], -b.Z[1::2])
    assert np.array_equal(b.dW[0::2], -b.dW[1::2])
    assert np.array_equal(b.dB[0::2], -b.dB[1::2])


@pytest.mark.parametrize("m", [*range(1, 18), 24, 29, 64, 127, 128, 129])
def test_block_sums_have_the_bits_of_the_reshape_sum(m):
    # a column slice of a wider block, as convergence_study passes its pool
    block = np.random.default_rng(m).standard_normal((37, 120 * m + 5))
    xi = block[:, 3: 3 + 120 * m]
    want = xi.reshape(37, 120, m).sum(axis=2) / math.sqrt(m)
    got = FactorSampler.block_sums(xi, m)
    assert got.tobytes() == want.tobytes()
    assert (got is xi) == (m == 1)


def test_stream_batches_cover_request():
    mp = make_model(maturity_T=0.1)
    grid = SimGrid.for_model(mp)
    sizes = [bd.X.shape[0] for bd in simulate_paths(mp, grid, 5000, seed=3)]
    assert sum(sizes) == 5000
    assert all(s <= 4096 for s in sizes)


def test_concat_bundles_empty():
    with pytest.raises(ValueError, match="empty"):
        concat_bundles(iter(()))


# -- law checks (fixed seeds; 3-SE statistical tolerances) ---------------------


def test_increment_scale_and_leverage_correlation(main_run):
    mp, grid, b = main_run
    vw = b.dW.var(ddof=1, axis=0)
    vb = b.dB.var(ddof=1, axis=0)
    se_v = grid.dt * math.sqrt(2.0 / (b.dW.shape[0] - 1))
    assert np.max(np.abs(vw - grid.dt)) < 4 * se_v
    assert np.max(np.abs(vb - grid.dt)) < 4 * se_v
    dwstar = mp.rho * b.dW + math.sqrt(1 - mp.rho**2) * b.dB
    c = np.corrcoef(b.dW[:, 10], dwstar[:, 10])[0, 1]
    assert abs(c - mp.rho) < 3.0 / math.sqrt(b.dW.shape[0])


def test_factor_variance_matches_stationary_value(main_run):
    _, grid, b = main_run
    n_paths = b.Z.shape[0]
    se_var = SO2 * math.sqrt(2.0 / (n_paths - 1))
    for i in (0, grid.n_steps // 2, grid.n_steps):
        v = b.Z[:, i].var(ddof=1)
        assert abs(v - SO2) < 3 * se_var


def test_factor_autocovariance_matches_cz(main_run):
    mp, grid, b = main_run
    steps_per_eps = round(mp.eps / grid.dt)
    i0 = steps_per_eps
    for lag_eps in (1.0, 5.0):
        lag = round(lag_eps * steps_per_eps)
        prod = b.Z[:, i0] * b.Z[:, i0 + lag]
        target = SO2 * float(CE.cov_CZ(lag_eps))
        assert abs(prod.mean() - target) < 3 * se_mean(prod)


def test_price_is_a_martingale(main_run):
    mp, _, b = main_run
    xt = b.X[:, -1]
    assert abs(xt.mean() - mp.x0) < 3 * se_mean(xt)


def test_observed_leverage_sign(main_run):
    _, _, b = main_run
    c = np.corrcoef(b.dW[:, 20], b.Z[:, 21])[0, 1]
    assert c > 0.5  # nearest-cell kernel mass dominates and is positive


def test_warmup_doubling_variance_shift_below_one_se():
    # the scheme's Var(Z_0) is available in closed form; doubling the warmup
    # must move it by less than one standard error of a 5e4-path estimate
    mp = make_model()
    g1 = SimGrid.for_model(mp, warmup_mult=30.0)
    g2 = SimGrid.for_model(mp, warmup_mult=60.0)

    def var0(grid):
        sw = FactorSampler(mp, grid)
        m = sw.kappa * sw.n_w
        return sw.sig_ou**2 * (
            float(np.dot(sw.w_conv[:m], sw.w_conv[:m]))
            + sw.r_std**2 + sw.eta_std[0] ** 2
        )

    one_se = SO2 * math.sqrt(2.0 / 5e4)
    assert abs(var0(g1) - var0(g2)) < one_se


def test_variance_stationary_across_grid(main_run):
    # drift of the sampled variance along the grid stays within noise
    _, grid, b = main_run
    v = b.Z.var(ddof=1, axis=0)
    se_var = SO2 * math.sqrt(2.0 / (b.Z.shape[0] - 1))
    assert np.max(np.abs(v - SO2)) < 4 * se_var


# -- scheme-vs-exact covariance -----------------------------------------------


@pytest.mark.parametrize("hurst", [0.3, 0.1])
def test_exact_gaussian_check_discrepancy(hurst):
    mp = make_model(hurst=hurst, maturity_T=0.25)
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    rep = exact_gaussian_check(mp, grid)
    assert rep.max_abs_corr_diff < 5e-3
    # the scheme's Var(Z_i) falls short of sigma_ou^2 by 6e-4 (H 0.3) and
    # 1.2e-3 (H 0.1), which the correlations cannot show
    assert 1e-4 < rep.max_rel_var_diff < 2e-3
    assert abs(rep.zero_offset_value - KernelEval(hurst).sigma_ou**2) < 1e-6
    assert rep.jitter <= 1e-10


def test_exact_gaussian_check_size_limit():
    mp = make_model(eps=0.5, maturity_T=600 * 0.1)
    grid = SimGrid(600, 0.1, 30 * 0.5)
    with pytest.raises(ValueError, match="512"):
        exact_gaussian_check(mp, grid)


def test_exact_law_size_limit_has_one_message():
    mp = make_model(maturity_T=600 * EPS / 8)
    with pytest.raises(ValueError, match="512") as sim:
        next(simulate_paths(mp, SimGrid(600, EPS / 8, 0.0, scheme="CholeskyExact"),
                            2, seed=0))
    with pytest.raises(ValueError, match="512") as check:
        exact_gaussian_check(mp, SimGrid(600, EPS / 8, 30 * EPS))
    assert str(check.value) == str(sim.value)


@pytest.mark.parametrize("grid", [
    SimGrid(4, EPS / 2, 30 * EPS),        # dt > eps/4
    SimGrid(16, EPS / 8, 10 * EPS),       # warmup < 20 eps
    SimGrid(15, EPS / 8, 30 * EPS),       # spans 15/16 of the maturity
], ids=["coarse", "short_warmup", "short_span"])
def test_exact_gaussian_check_rejects_grid_as_sampler_does(grid):
    mp = make_model(maturity_T=2 * EPS)
    with pytest.raises(ValueError) as sampler:
        FactorSampler(mp, grid)
    with pytest.raises(ValueError) as check:
        exact_gaussian_check(mp, grid)
    assert str(check.value) == str(sampler.value)


def test_cross_covariance_sign_follows_cell_mass():
    # with enough lags the kernel cell integrals change sign; the scheme's
    # Cov(Z_i, dW_j) must flip sign with them
    mp = make_model(maturity_T=24 * EPS / 8.0)
    grid = SimGrid(24, EPS / 8.0, 30 * EPS)
    cov = _scheme_joint_cov(mp, grid)
    n = grid.n_steps
    masses = KE.cell_masses(grid.dt / mp.eps, n)
    assert masses[0] > 0.0 and masses[-1] < 0.0
    for j in range(n):
        entry = cov[n, n + 1 + j]  # Cov(Z_n, dW_j), cell index n-1-j
        assert np.sign(entry) == np.sign(masses[n - 1 - j])


def test_scheme_joint_cov_matches_defining_sums():
    mp = make_model(maturity_T=24 * EPS / 8.0)
    grid = SimGrid(24, EPS / 8.0, 30 * EPS)
    cov = _scheme_joint_cov(mp, grid)
    sw = FactorSampler(mp, grid)
    n, kap, w, so = sw.n, sw.kappa, sw.w_conv, sw.sig_ou
    for i, j in ((0, 0), (0, 24), (3, 3), (5, 17), (24, 24)):
        m, lag = kap * (sw.n_w + i), kap * (j - i)
        zz = w[lag: lag + m] @ w[:m]
        if i == j:
            zz += sw.r_std**2 + sw.eta_std[i] ** 2
        assert cov[i, j] == pytest.approx(so**2 * zz, rel=1e-13, abs=0.0)
        assert cov[j, i] == cov[i, j]
    for i, j in ((1, 0), (7, 2), (24, 0), (24, 23)):
        cell = kap * (i - 1 - j)
        want = so * math.sqrt(grid.dt / kap) * np.sum(w[cell: cell + kap])
        assert cov[i, n + 1 + j] == pytest.approx(want, rel=1e-13, abs=0.0)
    # Z_i does not see the increments at and after t_i
    assert cov[0, n + 1] == cov[5, n + 1 + 5] == cov[5, 2 * n] == 0.0
    assert np.array_equal(cov[n + 1:, n + 1:], grid.dt * np.eye(n))


def test_exact_joint_cov_zero_lag_and_symmetry():
    mp = make_model(maturity_T=0.1)
    grid = SimGrid.for_model(mp)
    cov = _exact_joint_cov(mp, grid)
    assert np.allclose(cov, cov.T, rtol=0, atol=0)
    assert abs(cov[0, 0] - SO2) < 1e-9


# -- exact joint sampler -------------------------------------------------------


def test_cholesky_exact_scheme_law():
    mp = make_model(maturity_T=0.25)
    grid = SimGrid(40, 0.25 / 40, 0.0, scheme="CholeskyExact")
    b = concat_bundles(simulate_paths(mp, grid, 8000, seed=17))
    se_var = SO2 * math.sqrt(2.0 / (8000 - 1))
    v = b.Z.var(ddof=1, axis=0)
    assert np.max(np.abs(v - SO2)) < 4 * se_var
    assert np.all(b.X > 0) and np.all(b.X[:, 0] == mp.x0)
    assert np.array_equal(b.sigma, VF(b.Z))
    # cross-correlation of the factor with the previous increment is exact
    delta = grid.dt / mp.eps
    m0 = KE.integrated_K(delta)
    target = (math.sqrt(mp.eps) * m0 * KE.sigma_ou
              / (math.sqrt(grid.dt) * math.sqrt(SO2)))
    c = np.corrcoef(b.dW[:, 5], b.Z[:, 6])[0, 1]
    assert abs(c - target) < 3.0 / math.sqrt(8000)


def test_cholesky_exact_size_limit():
    mp = make_model(maturity_T=600 * EPS / 8)
    grid = SimGrid(600, EPS / 8, 0.0, scheme="CholeskyExact")
    with pytest.raises(ValueError, match="512"):
        next(simulate_paths(mp, grid, 2, seed=0))


@pytest.mark.parametrize("antithetic", [False, True])
def test_cholesky_exact_prefix_property(antithetic):
    # the product runs on slabs padded to one fixed shape, so the first m
    # paths do not depend on n_paths (1-3 base rows, a slab and one more
    # row, a full batch); the pair of a base row is its negation
    mp = make_model(maturity_T=0.25)
    grid = SimGrid(40, 0.25 / 40, 0.0, scheme="CholeskyExact")
    full = concat_bundles(simulate_paths(mp, grid, 8192, 23, antithetic))
    pair = 2 if antithetic else 1
    for base_rows in (1, 2, 3, 130, 4096):
        m = pair * base_rows
        head = concat_bundles(simulate_paths(mp, grid, m, 23, antithetic))
        for name in ("dW", "dB", "Z", "sigma", "X"):
            assert (getattr(head, name).tobytes()
                    == getattr(full, name)[:m].tobytes()), (m, name)
    if antithetic:
        for name in ("dW", "dB", "Z"):
            a = getattr(full, name)
            assert np.array_equal(a[1::2], -a[0::2]), name


# -- zero-started (Riemann--Liouville) variant ---------------------------------


def zero_started_paths(mp, grid, n_paths, seed):
    s = FactorSampler(mp, grid, zero_start=True)
    return concat_bundles(s.bundle(block, seed)
                          for block in normal_blocks(seed, n_paths, s.ncols))


def test_rl_variance_matches_quadrature_oracle():
    mp = make_model(maturity_T=0.3)
    grid = SimGrid.for_model(mp)
    b = zero_started_paths(mp, grid, 8000, seed=31)
    for t_over_eps in (2.0, 6.0):
        i = round(t_over_eps * mp.eps / grid.dt)
        target = SO2 * cov_RL(t_over_eps, 0.0, KE)
        v = b.Z[:, i].var(ddof=1)
        se_var = target * math.sqrt(2.0 / (8000 - 1))
        assert abs(v - target) < 3 * se_var


def test_rl_relaxes_to_stationary_autocovariance():
    mp = make_model(maturity_T=0.3)
    grid = SimGrid.for_model(mp)
    b = zero_started_paths(mp, grid, 8000, seed=32)
    steps_per_eps = round(mp.eps / grid.dt)
    i0 = 4 * steps_per_eps  # t = 4 eps >> eps
    prod = b.Z[:, i0] * b.Z[:, i0 + steps_per_eps]
    target = SO2 * float(CE.cov_CZ(1.0))
    assert abs(prod.mean() - target) < 3 * se_mean(prod)


def test_rl_validation():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    # the grid checks are those of simulate_paths, except the warmup
    coarse = SimGrid(10, 0.03, 1.5)
    with pytest.raises(ValueError, match="the grid must resolve the fast scale"):
        FactorSampler(mp, coarse, zero_start=True)
    with pytest.raises(ValueError, match="maturity"):
        FactorSampler(mp, SimGrid(40, 0.01, 1.5), zero_start=True)
    no_warmup = SimGrid(grid.n_steps, grid.dt, 0.0)
    assert zero_started_paths(mp, no_warmup, 4, seed=0).Z.shape == (
        4, grid.n_steps + 1)


@pytest.mark.parametrize("zero_start", [False, True])
def test_factor_matches_direct_moving_sum(zero_start):
    # Z_i = sig_ou [sum_k F_ki g_k + sum_k w_k xi_(kappa i - 1 - k) + r_std r_i
    #               + eta_std_i eta_i], with xi the fine increments since t = 0,
    # summed term by term from the documented column layout of one
    # simulate_paths block
    mp = make_model(maturity_T=0.05)
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=20.0)
    s = FactorSampler(mp, grid, zero_start)
    n, kap, rank = s.n, s.kappa, s.widths[0]
    block = next(normal_blocks(3, 6, s.ncols))
    if zero_start:
        z = s.bundle(block, 3).Z
        assert rank == 0
    else:
        z = next(simulate_paths(mp, grid, 6, seed=3)).Z
        factor = s.history_factor()
        assert factor.shape == (rank, n + 1) and 8 <= rank <= 20
    g = block[:, :rank]
    xi = block[:, rank: rank + kap * n]
    r = block[:, rank + kap * n + n: rank + kap * n + n + s.widths[1]]
    eta = block[:, rank + kap * n + n + s.widths[1]:]
    assert eta.shape[1] == s.widths[2] == (0 if zero_start else n + 1)
    for p in range(block.shape[0]):
        for i in range(n + 1):
            terms = [s.w_conv[k] * xi[p, kap * i - 1 - k] for k in range(kap * i)]
            if zero_start:
                terms += [s.r_std * r[p, i - 1]] if i else []
            else:
                terms += [factor[k, i] * g[p, k] for k in range(rank)]
                terms += [s.r_std * r[p, i], s.eta_std[i] * eta[p, i]]
            oracle = s.sig_ou * math.fsum(terms)
            scale = s.sig_ou * sum(abs(t) for t in terms)
            assert abs(z[p, i] - oracle) <= 1e-13 * scale
    if zero_start:
        assert np.all(z[:, 0] == 0.0)


def test_conditional_law_is_the_moving_sum_and_its_variance():
    # from the node where xi ends: sig_ou times the moving sum, and
    # sig_ou^2 int_0^((s - t)/eps) K^2 on the same grid step
    mp = make_model()
    s = FactorSampler(mp, SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0))
    so, kap, n = s.sig_ou, s.kappa, s.n
    rng = np.random.default_rng(8)
    g = rng.standard_normal((6, s.history_factor().shape[0]))
    means, variances = s.conditional_law(g)
    assert np.array_equal(means, so * s._moving_sum(g, np.empty((6, 0)), False))
    assert np.array_equal(variances, so**2 * s.ke.ksq_cum_grid(s.delta, n))
    g = rng.standard_normal((6, s.history_factor(fine=True).shape[0]))
    full = so**2 * s.ke.ksq_cum_grid(s.delta / kap, kap * n)
    for i in (0, n // 3):
        xi = rng.standard_normal((6, kap * i))
        means, variances = s.conditional_law(g, xi, fine=True)
        assert means.shape == (6, kap * (n - i) + 1)
        assert np.array_equal(means, (so * s._moving_sum(g, xi, True))[:, kap * i:])
        assert np.array_equal(variances, full[: kap * (n - i) + 1])


def test_conditional_law_rows_do_not_depend_on_the_block():
    # a 300-row block (two full slabs and a short one) gives each row the
    # bits of that row alone, at the price and at the fine nodes
    mp = make_model()
    s = FactorSampler(mp, SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0))
    rng = np.random.default_rng(5)
    for fine, i in ((False, 0), (False, s.n // 2), (True, s.n // 3)):
        g = rng.standard_normal((300, s.history_factor(fine).shape[0]))
        xi = rng.standard_normal((300, s.kappa * i))
        means, variances = s.conditional_law(g, xi, fine=fine)
        for p in range(300):
            row, var = s.conditional_law(g[p: p + 1], xi[p: p + 1], fine=fine)
            assert row.tobytes() == means[p: p + 1].tobytes(), (fine, i, p)
            assert var.tobytes() == variances.tobytes()


def test_sampler_masses_are_the_fine_cell_masses():
    mp = make_model()
    s = FactorSampler(mp, SimGrid.for_model(mp))
    fine, m = s.delta / s.kappa, s.kappa * s.n
    assert np.array_equal(s.masses[:m], s.ke.cell_masses(fine, m))
    assert np.array_equal(s.w_conv, s.masses / math.sqrt(fine))


# -- bit-identity of the antithetic and convolution routes -----------------------
# compared with tobytes(), which, unlike np.array_equal, sees the sign of zero


@pytest.mark.parametrize("zero_start", [False, True])
def test_convolve_matches_fftconvolve(zero_start):
    mp = make_model()
    s = FactorSampler(mp, SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0),
                      zero_start)
    kap, kn = s.kappa, s.kappa * s.n
    # the widths the sampler is given: the increments on [0, T] (a block)
    # and, stationary only, those up to an interior time (vartheta_check);
    # the history before t = 0 goes through the history factor instead
    widths = {kn} if zero_start else {kap * (s.n // 2), kn}
    rng = np.random.default_rng(1)
    for width in sorted(widths):
        # row counts on both sides of a slab boundary, up to a full block
        for rows in (1, 7, 64, _SLAB_ROWS, _SLAB_ROWS + 1, 2048):
            xi = rng.standard_normal((rows, width))
            ref = signal.fftconvolve(xi, s.w_conv[None, :kn], mode="full", axes=1)
            # the columns _moving_sum reads at the price and the fine nodes
            for step in (kap, 1):
                got = s._convolve(xi, step)
                assert got.tobytes() == ref[:, step - 1: kn: step].tobytes(), (rows, step)


@pytest.mark.parametrize("route", ["plain", "antithetic", "rl"])
def test_bundle_does_not_depend_on_the_slab_size(route, monkeypatch):
    # 300 rows: slabs of 1 and 3 rows, the default's full slabs and a short
    # last one, and a single slab as large as a whole batch
    mp = make_model()
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    s = FactorSampler(mp, grid, zero_start=route == "rl")
    antithetic = route != "plain"
    block = next(normal_blocks(13, 600 if antithetic else 300, s.ncols, antithetic))
    assert block.shape[0] == 300 and 300 % _SLAB_ROWS

    def arrays(size):
        monkeypatch.setattr(roughvol.simulate, "_SLAB_ROWS", size)
        assert len(s.row_slabs(300)) == -(-300 // size)
        b = s.bundle(block, 13, antithetic)
        return [getattr(b, name).tobytes()
                for name in ("times", "dW", "dB", "Z", "sigma", "X")]

    ref = arrays(_SLAB_ROWS)
    for size in (1, 3, 4096):
        assert arrays(size) == ref, size


def test_paths_log_price_gives_the_bundle_prices():
    # x0 exp(log_x) at any column has the bits of the bundle's X there
    mp = make_model(x0=1.3)
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    s = FactorSampler(mp, grid)
    block = next(normal_blocks(2, 40, s.ncols, antithetic=True))
    g, xi, zeta, r, eta = np.split(
        block, np.cumsum((s.widths[0], s.kappa * s.n, s.n, s.widths[1])), axis=1)
    log_x = s.paths(g, xi, zeta, r, eta, antithetic=True)[-1]
    x = s.bundle(block, 2, antithetic=True).X
    assert log_x.shape == x.shape and not log_x[:, 0].any()
    for col in (0, s.n // 2, s.n):
        assert (mp.x0 * np.exp(log_x[:, col])).tobytes() == x[:, col].tobytes()


def _interleaved_blocks(seed, n_paths, ncols):
    # each batch draws 2,048 base rows on its own Philox counter and
    # interleaves every row with its negation, sliced to the paths it holds
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    for b, first in enumerate(range(0, n_paths, 4096)):
        gen = np.random.Generator(np.random.Philox(key=key, counter=b << 128))
        base = gen.standard_normal((2048, ncols))
        pairs = np.empty((4096, ncols))
        pairs[0::2], pairs[1::2] = base, -base
        yield pairs[: min(4096, n_paths - first)]


@pytest.mark.parametrize("zero_start", [False, True])
def test_antithetic_paths_match_interleaved_draws(zero_start):
    # 4,110 paths: a full batch, then a partial one of 7 antithetic pairs
    mp = make_model()
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    n_paths, seed = 4110, 17
    s = FactorSampler(mp, grid, zero_start)
    if zero_start:
        got = (s.bundle(block, seed, antithetic=True)
               for block in normal_blocks(seed, n_paths, s.ncols, antithetic=True))
    else:
        got = simulate_paths(mp, grid, n_paths, seed, antithetic=True)
    sizes = []
    for bundle, block in zip(got, _interleaved_blocks(seed, n_paths, s.ncols),
                             strict=True):
        ref = s.bundle(block, seed)
        for name in ("times", "dW", "dB", "Z", "sigma", "X"):
            assert getattr(bundle, name).tobytes() == getattr(ref, name).tobytes(), name
        sizes.append(bundle.X.shape[0])
    assert sizes == [4096, 14]


@pytest.mark.parametrize("zero_start", [False, True])
@pytest.mark.parametrize("antithetic", [False, True])
def test_factor_is_c_ordered(zero_start, antithetic):
    mp = make_model()
    s = FactorSampler(mp, SimGrid.for_model(mp), zero_start=zero_start)
    block = next(normal_blocks(4, 14, s.ncols, antithetic=antithetic))
    z = s.bundle(block, 4, antithetic=antithetic).Z
    assert z.shape == (14, s.n + 1) and z.flags.c_contiguous


def test_zero_start_factor_of_base_rows_keeps_positive_zero():
    # convergence_study(zero_start=True) pairs the factor of the base rows:
    # a negated Z_0 = +0.0 must not become -0.0
    mp = make_model()
    s = FactorSampler(mp, SimGrid.for_model(mp), zero_start=True)
    base = next(normal_blocks(4, 14, s.ncols, antithetic=True))
    assert base.shape == (7, s.ncols)
    cuts = np.cumsum((s.widths[0], s.kappa * s.n, s.n, s.widths[1]))
    paired = s.paths(*np.split(base, cuts, axis=1), antithetic=True)
    ref = s.paths(*np.split(s.antithetic(base), cuts, axis=1))
    assert not np.signbit(paired[0][:, 0]).any()
    for got, want in zip(paired, ref, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def prefix_runs():
    mp = make_model()
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    cache = {}

    def run(route, n_paths):
        if (route, n_paths) not in cache:
            cache[route, n_paths] = concat_bundles(simulate_paths(
                mp, grid, n_paths, 8, antithetic=route == "antithetic"))
        return cache[route, n_paths]

    return run


@pytest.mark.parametrize("route, n_paths", [
    *(("antithetic", n) for n in (4098, 4100, 4102)),
    *(("plain", n) for n in (4097, 4098, 4099, 4100, 4102)),
])
def test_prefix_on_a_last_batch_of_few_rows(route, n_paths, prefix_runs):
    # the last batch holds 1-3 base rows (1-6 rows on the plain route), where
    # a BLAS product can round a row differently than in a full block
    head = prefix_runs(route, n_paths)
    full = prefix_runs(route, 8192)
    for name in ("dW", "dB", "Z", "sigma", "X"):
        assert (getattr(head, name).tobytes()
                == getattr(full, name)[:n_paths].tobytes()), name


_THREAD_SCRIPT = """
from hashlib import sha256
from roughvol.gaussfunc import BoundedSigmoid
from roughvol.simulate import (FactorSampler, ModelParams, SimGrid, concat_bundles,
                               simulate_paths)
mp = ModelParams(0.1, 0.05, -0.5, BoundedSigmoid(0.05, 0.45, 2.5), 1.0, 1.0)
grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
b = concat_bundles(simulate_paths(mp, grid, 4100, 6, antithetic=True))
fine = FactorSampler(mp, grid).history_factor(fine=True)
print(*(sha256(a.tobytes()).hexdigest() for a in (b.Z, b.X, fine)))
"""


def test_paths_do_not_depend_on_the_thread_count():
    # two batches, and the fine-grid history factor of vartheta_check (a
    # 641 x 960 map, where an SVD gave different bits), under a BLAS/OpenMP
    # pool of 1 and of 2 threads
    src = os.path.dirname(os.path.dirname(roughvol.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "ROUGHVOL_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


# -- the draw-ahead of normal_blocks ----------------------------------------------


def _direct_blocks(seed, n_paths, ncols, antithetic):
    # each batch from its own Philox stream, drawn on the caller's thread
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    for b, first in enumerate(range(0, n_paths, 4096)):
        use = min(4096, n_paths - first)
        gen = np.random.Generator(np.random.Philox(key=key, counter=b << 128))
        yield gen.standard_normal((use // 2 if antithetic else use, ncols))


@pytest.mark.parametrize("n_paths, antithetic, last_rows", [
    (8193, False, 1), (8195, False, 3), (8194, True, 1), (8198, True, 3),
    (3 * 4096, True, 2048),
])
def test_drawn_ahead_blocks_are_the_direct_draws(n_paths, antithetic, last_rows):
    got = list(normal_blocks(21, n_paths, 5, antithetic))
    ref = list(_direct_blocks(21, n_paths, 5, antithetic))
    assert len(got) == len(ref) == 3
    assert got[-1].shape == (last_rows, 5)
    for a, b in zip(got, ref, strict=True):
        assert a.tobytes() == b.tobytes()


def test_draw_ahead_thread_ends_with_the_stream():
    # wide enough batches that the helper is still drawing when each check
    # runs, so a helper left running or idle would be counted
    baseline = threading.active_count()

    def stream():
        return normal_blocks(5, 3 * 4096, 1000)

    closed = stream()
    next(closed)
    closed.close()
    assert threading.active_count() == baseline

    with pytest.raises(RuntimeError, match="consumer"):
        for _ in stream():
            raise RuntimeError("consumer failed")
    assert threading.active_count() == baseline

    dropped = stream()
    next(dropped)
    del dropped
    gc.collect()
    assert threading.active_count() == baseline


@pytest.mark.parametrize("route", ["plain", "antithetic"])
def test_yielded_bundle_owns_its_arrays(route):
    # a consumer may keep a batch's arrays without copying them while the
    # stream goes on to draw and build the later batches
    mp = make_model(maturity_T=0.1)
    grid = SimGrid.for_model(mp)

    def run(n_paths):
        return simulate_paths(mp, grid, n_paths, 9, antithetic=route == "antithetic")

    ref = next(run(4096))
    ref_z, ref_x = ref.Z.tobytes(), ref.X.tobytes()
    stream = run(3 * 4096)
    first = next(stream)
    z, x = first.Z, first.X
    del ref, first
    assert sum(1 for _ in stream) == 2
    assert z.tobytes() == ref_z
    assert x.tobytes() == ref_x


def test_few_path_batch_draws_only_its_rows():
    # at eps 0.001 a full 4,096-path block would hold 4096 x 56,962 doubles
    mp = make_model(eps=0.001, maturity_T=1.0)
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    tracemalloc.start()
    try:
        bundle = next(simulate_paths(mp, grid, 2, seed=0, antithetic=True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.Z.shape == (2, 8001)
    assert peak < 16 * 2**20


# -- path dumps ----------------------------------------------------------------


def test_dump_paths_roundtrip(tmp_path):
    mp = make_model(maturity_T=0.1)
    grid = SimGrid.for_model(mp)
    bundle = next(simulate_paths(mp, grid, 3, seed=12))
    files = dump_paths(mp, grid, bundle, str(tmp_path), header_lines=["config_hash = abc123"])
    csvs = [f for f in files if f.endswith(".csv")]
    assert len(csvs) == 3
    data = np.genfromtxt(csvs[1], delimiter=",", names=True, skip_header=2)
    np.testing.assert_array_equal(data["time"], bundle.times)
    np.testing.assert_array_equal(data["Z"], bundle.Z[1])
    np.testing.assert_array_equal(data["X"], bundle.X[1])
    with open(csvs[0]) as fh:
        head = fh.readline()
    assert head.startswith("# config_hash = abc123")
    with open(files[-1]) as fh:
        meta = json.load(fh)
    assert meta["seed"] == 12
    assert meta["model"]["eps"] == mp.eps
    assert meta["grid"]["n_steps"] == grid.n_steps
