"""Tests for the Monte Carlo verification harness."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from roughvol.gaussfunc import (
    BoundedSigmoid,
    ConstantVol,
    group_params,
    mean_FFp,
    moments,
)
from roughvol.kernel import KernelEval
from roughvol.pricing import Call, bs_price, smooth_ramp
from roughvol.simulate import (
    FactorSampler,
    ModelParams,
    SimGrid,
    concat_bundles,
    simulate_paths,
)
from roughvol import experiments, simulate
from roughvol.experiments import (
    ConvergenceReport,
    MCEstimate,
    _conditional_price,
    convergence_study,
    kappa_check,
    mc_price,
    phi_variance_check,
    smile_study,
    termstructure_study,
    vartheta_check,
)

HURST = 0.3
VF = BoundedSigmoid(0.05, 0.85, 3.5)
EPS_GRID = (0.1, 0.05, 0.025, 0.0125)
PAYOFF = smooth_ramp(1.0, 0.1)


def make_model(**kw):
    base = dict(hurst=HURST, eps=0.1, rho=-0.5, vol_fn=VF, x0=1.0,
                maturity_T=0.5)
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def small_study():
    mp = make_model()
    return convergence_study(mp, EPS_GRID, PAYOFF, n_paths=4000, seed=7)


@pytest.fixture(scope="module")
def vartheta_report():
    mp = make_model(eps=0.05)
    grid = SimGrid.for_model(mp, points_per_eps=4, warmup_mult=24.0)
    return vartheta_check(mp, grid, n_paths=3000, seed=5, t_interior=0.25)


# -- estimate container ---------------------------------------------------------


def test_mc_estimate_fields():
    est = MCEstimate(mean=1.5, std_error=0.01, n_paths=100, seed=3)
    assert est.mean == 1.5
    assert est.std_error == 0.01


@pytest.mark.parametrize(
    "kw",
    [
        dict(std_error=-1e-9),
        dict(n_paths=0),
        dict(n_paths=-4),
        dict(mean=math.nan),
    ],
)
def test_mc_estimate_validation(kw):
    base = dict(mean=1.0, std_error=0.1, n_paths=10, seed=0)
    base.update(kw)
    with pytest.raises(ValueError):
        MCEstimate(**base)


# -- Monte Carlo pricing --------------------------------------------------------


def test_mc_price_unit_payoff_is_exact():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    est = mc_price(mp, grid, lambda x: np.ones_like(x), n_paths=2000, seed=1)
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.n_paths == 2000


def test_mc_price_constant_vol_matches_black_scholes():
    mp = make_model(vol_fn=ConstantVol(0.3))
    grid = SimGrid.for_model(mp)
    payoff = Call(1.0)
    est = mc_price(mp, grid, payoff, n_paths=6000, seed=4)
    ref = bs_price(mp.x0, payoff, 0.3, mp.maturity_T)
    assert abs(est.mean - ref) < 3.0 * est.std_error


def test_mc_price_antithetic_reduces_error():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    anti = mc_price(mp, grid, PAYOFF, n_paths=4000, seed=9, antithetic=True)
    plain = mc_price(mp, grid, PAYOFF, n_paths=4000, seed=9, antithetic=False)
    assert anti.std_error <= plain.std_error


def test_mc_price_deterministic():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    a = mc_price(mp, grid, PAYOFF, n_paths=2000, seed=11)
    b = mc_price(mp, grid, PAYOFF, n_paths=2000, seed=11)
    assert a == b


def test_mc_price_validation():
    mp = make_model()
    grid = SimGrid.for_model(mp)
    with pytest.raises(ValueError, match="even"):
        mc_price(mp, grid, PAYOFF, n_paths=2001, seed=0)
    with pytest.raises(ValueError):
        mc_price(mp, grid, PAYOFF, n_paths=0, seed=0)


def test_mc_price_holds_one_batch_beside_the_draw_ahead():
    # three batches at eps 0.01.  The stream holds two blocks of base draws
    # (the batch in use and the one drawn ahead), and building a batch's
    # paths about two more.  Keeping the last batch's paths as well, or the
    # convolution spectra of a whole block, takes the peak to ~5 blocks.
    mp = make_model(eps=0.01, maturity_T=0.3)
    grid = SimGrid.for_model(mp, points_per_eps=8, warmup_mult=30.0)
    block = 2048 * FactorSampler(mp, grid).ncols * 8
    tracemalloc.start()
    try:
        est = mc_price(mp, grid, Call(1.0), n_paths=3 * 4096, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_paths == 3 * 4096
    assert peak < 4.5 * block


@pytest.mark.parametrize("n_paths, antithetic", [(2, True), (1, False)])
def test_mc_price_needs_two_units_for_its_standard_error(n_paths, antithetic):
    # one antithetic pair, or one plain path, is a single sampling unit
    mp = make_model()
    grid = SimGrid.for_model(mp)
    least = 4 if antithetic else 2
    with pytest.raises(ValueError, match=f"n_paths must be an integer >= {least}"):
        mc_price(mp, grid, PAYOFF, n_paths=n_paths, seed=0, antithetic=antithetic)


# -- convergence study ----------------------------------------------------------


@pytest.mark.parametrize(
    "grid_eps",
    [
        (0.1, 0.05, 0.025),                    # fewer than 4 points
        (0.1, 0.05, 0.025, 0.01),              # not dyadic
        (0.0125, 0.025, 0.05, 0.1),            # increasing
        (0.1, 0.1, 0.05, 0.025),               # repeated point
    ],
)
def test_convergence_study_grid_validation(grid_eps):
    mp = make_model()
    with pytest.raises(ValueError):
        convergence_study(mp, grid_eps, PAYOFF, n_paths=8, seed=0)


def test_convergence_study_odd_paths():
    mp = make_model()
    with pytest.raises(ValueError, match="even"):
        convergence_study(mp, EPS_GRID, PAYOFF, n_paths=101, seed=0)


@pytest.mark.parametrize("n_paths", [0, -2])
def test_convergence_study_rejects_nonpositive_paths(n_paths):
    with pytest.raises(ValueError, match="n_paths must be a positive integer"):
        convergence_study(make_model(), EPS_GRID, PAYOFF, n_paths=n_paths, seed=0)


def test_convergence_study_needs_two_pairs_for_its_standard_error():
    with pytest.raises(ValueError, match="n_paths must be an integer >= 4"):
        convergence_study(make_model(), EPS_GRID, PAYOFF, n_paths=2, seed=0)


def test_convergence_report_structure(small_study):
    rep = small_study
    assert isinstance(rep, ConvergenceReport)
    assert rep.eps_grid == EPS_GRID
    assert len(rep.points) == 4
    assert rep.n_paths == 4000
    for p, e in zip(rep.points, EPS_GRID):
        assert p.eps == e
        assert p.error == abs(p.mc_mean - p.q_eps)
        assert p.error_bs == abs(p.mc_mean - p.q0)
        assert p.scaled_error == pytest.approx(p.error / math.sqrt(e))
        assert p.mc_se > 0.0
    name, slope = rep.rate_fits[0]
    assert name == "error_vs_eps_loglog_slope"
    assert np.isfinite(slope)


def test_convergence_correction_beats_plain_bs(small_study):
    # the correction moves the price toward the simulated mean at the
    # coarse epsilons, where the gap is well above the noise floor
    for p in small_study.points[:2]:
        assert p.error < p.error_bs


def test_convergence_verdict_stable_across_seeds(small_study):
    mp = make_model()
    verdicts = {small_study.verdict.split(";")[0]}
    for seed in (20, 33):
        rep = convergence_study(mp, EPS_GRID, PAYOFF, n_paths=2000, seed=seed)
        verdicts.add(rep.verdict.split(";")[0])
    assert all(v.startswith("decreasing") for v in verdicts)


def test_convergence_constant_vol_error_vanishes():
    mp = make_model(vol_fn=ConstantVol(0.3))
    rep = convergence_study(mp, EPS_GRID, PAYOFF, n_paths=400, seed=2)
    for p in rep.points:
        assert p.error < 1e-12
        assert p.mc_se < 1e-15
        assert p.inconclusive  # a zero error is indistinguishable from noise
    assert rep.verdict.startswith("decreasing")
    # every error is 0.0, so there is no rate to fit (as phi and kappa report)
    (name, slope), = rep.rate_fits
    assert name == "error_vs_eps_loglog_slope" and math.isnan(slope)


def test_convergence_zero_start_variant():
    mp = make_model()
    rep = convergence_study(mp, EPS_GRID, PAYOFF, n_paths=2000, seed=7,
                            zero_start=True)
    assert rep.verdict.startswith("decreasing")
    assert all(np.isfinite(p.error) for p in rep.points)


@pytest.mark.parametrize("payoff", [Call(1.0), PAYOFF], ids=["call", "ramp"])
def test_convergence_study_does_not_depend_on_the_slab_size(payoff, monkeypatch):
    # 600 paths: 300 base rows in slabs of 1 and 3 rows, the default's full
    # slabs and a short last one, and one slab as large as a whole batch
    mp = make_model(maturity_T=0.25)
    assert 300 % simulate._SLAB_ROWS

    def report(size):
        monkeypatch.setattr(simulate, "_SLAB_ROWS", size)
        return convergence_study(mp, EPS_GRID, payoff, n_paths=600, seed=4).to_json()

    ref = report(simulate._SLAB_ROWS)
    for size in (1, 3, 4096):
        assert report(size) == ref, size


def test_convergence_study_holds_one_block_and_a_slab():
    # the studies benchmark's convergence config at one batch of 4,096
    # paths: a block of 2,048 x 2,858 base draws (44.7 MiB).  Per-eps
    # arrays of a whole batch took the traced peak to 130 MiB; a slab's
    # arrays add a few MiB.
    mp = make_model(maturity_T=1.0)
    n_fine, models, grids, _ = experiments._dyadic_grids(mp, EPS_GRID, 4, 24.0)
    ncols = 5 * n_fine + sum(sum(FactorSampler(m, g).widths)
                             for m, g in zip(models, grids))
    block = 2048 * ncols * 8
    assert ncols == 2858
    tracemalloc.start()
    try:
        rep = convergence_study(mp, EPS_GRID, PAYOFF, n_paths=4096, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_paths == 4096
    assert peak < block + 16 * 2**20


@pytest.mark.parametrize("rho", [1.0, -1.0])
@pytest.mark.parametrize("payoff", [Call(1.0), PAYOFF], ids=["call", "ramp"])
def test_conditional_price_without_orthogonal_shock_is_the_payoff(rho, payoff):
    # at |rho| = 1 there is no orthogonal shock: X_T is known given the vol
    # path and W, and _conditional_price returns the payoff there
    mp = make_model(rho=rho)
    grid = SimGrid.for_model(mp, points_per_eps=4, warmup_mult=24.0)
    b = concat_bundles(simulate_paths(mp, grid, 400, seed=3))
    sig = b.sigma[:, :-1]
    svar, sxw = (sig * sig).sum(axis=1) * grid.dt, (sig * b.dW).sum(axis=1)
    cond = _conditional_price(mp, svar, sxw, payoff)
    x_eff = mp.x0 * np.exp(mp.rho * sxw - 0.5 * mp.rho**2 * svar)
    assert np.array_equal(cond, payoff(x_eff))
    hx = np.asarray(payoff(b.X[:, -1]), dtype=float)
    # relative to the spot as well: a call next to its strike keeps only
    # the absolute accuracy of X_T - K
    np.testing.assert_allclose(cond, hx, rtol=1e-12, atol=1e-12 * mp.x0)


def test_convergence_at_unit_leverage_has_finite_noisy_points():
    mp = make_model(rho=-1.0)
    for payoff in (Call(1.0), PAYOFF):
        rep = convergence_study(mp, EPS_GRID, payoff, n_paths=400, seed=2)
        for p in rep.points:
            assert math.isfinite(p.mc_mean)
            assert p.mc_se > 0.0


def test_convergence_report_serialization(small_study):
    data = json.loads(small_study.to_json())
    assert data["report"] == "ConvergenceReport"
    assert data["verdict"] == small_study.verdict
    assert len(data["points"]) == 4
    assert any("sup" in note for note in small_study.header_notes)
    text = small_study.to_text()
    assert "eps" in text and "verdict" in text
    csv = small_study.to_csv()
    header = csv.splitlines()[0].split(",")
    assert "eps" in header and "error" in header


# -- conditional volatility adjustment (theta) ----------------------------------


def test_vartheta_pathwise_bound_holds(vartheta_report):
    rep = vartheta_report
    assert rep.bound_violations == 0
    assert rep.max_abs_over_sqrt_eps <= rep.bound_constant
    assert rep.bound_constant > 0.0


def test_vartheta_moments_finite(vartheta_report):
    rep = vartheta_report
    assert np.isfinite(rep.mean)
    assert rep.std_error > 0.0
    assert rep.target == pytest.approx(math.sqrt(rep.eps) * rep.d_bar)
    assert np.isfinite(rep.ratio_to_target)
    ke = KernelEval(HURST)
    mean_f = moments(VF, HURST)[0]  # <F>, as in group_params
    horizon = (math.sqrt(rep.eps) * ke.sigma_ou * mean_f * mean_FFp(VF, HURST)
               * ke.integrated_K(make_model().maturity_T / rep.eps))
    assert rep.horizon_term == pytest.approx(horizon, rel=1e-12)
    assert np.isfinite(rep.cov_estimate)
    assert 0.0 < rep.cov_std_error < rep.std_error
    assert rep.ratio_to_target == pytest.approx(rep.cov_estimate / rep.target,
                                                rel=1e-12)


def test_vartheta_interior_decorrelation(vartheta_report):
    rep = vartheta_report
    assert rep.t_interior is not None
    assert abs(rep.interior_cov_over_eps) < 0.1 * abs(rep.d_bar)


def test_vartheta_constant_vol_is_degenerate():
    mp = make_model(vol_fn=ConstantVol(0.3), eps=0.05)
    grid = SimGrid.for_model(mp, points_per_eps=4, warmup_mult=24.0)
    rep = vartheta_check(mp, grid, n_paths=400, seed=1)
    assert rep.mean == 0.0
    assert rep.d_bar == 0.0
    assert rep.horizon_term == 0.0
    assert rep.cov_estimate == 0.0
    assert rep.cov_std_error == 0.0
    assert math.isnan(rep.ratio_to_target)
    assert rep.bound_violations == 0


@pytest.mark.parametrize("n_paths", [0, 1])
def test_vartheta_needs_two_paths_for_its_standard_error(n_paths):
    mp = make_model(eps=0.05)
    grid = SimGrid.for_model(mp, points_per_eps=4, warmup_mult=24.0)
    with pytest.raises(ValueError, match="n_paths must be an integer >= 2"):
        vartheta_check(mp, grid, n_paths=n_paths, seed=0)


@pytest.mark.parametrize("t_interior", [0.004, 0.996])
def test_vartheta_rejects_t_interior_rounding_to_an_end_node(t_interior):
    # dt = 0.01: 0.004 rounds to node 0 and 0.996 to node n = 100
    mp = make_model(eps=0.04, maturity_T=1.0)
    grid = SimGrid.for_model(mp, points_per_eps=4, warmup_mult=24.0)
    assert (grid.n_steps, grid.dt) == (100, 0.01)
    with pytest.raises(ValueError, match="interior node"):
        vartheta_check(mp, grid, n_paths=200, seed=0, t_interior=t_interior)


def test_vartheta_t_interior_next_to_the_end_still_works():
    mp = make_model(eps=0.04, maturity_T=1.0)
    grid = SimGrid.for_model(mp, points_per_eps=4, warmup_mult=24.0)
    rep = vartheta_check(mp, grid, n_paths=200, seed=0, t_interior=0.994)
    assert rep.t_interior == 0.994  # node 99
    assert np.isfinite(rep.interior_cov_over_eps)
    assert rep.interior_cov_over_eps != 0.0


def test_vartheta_checks_any_grid_under_the_moving_average_rules():
    # the sampler runs the moving-average scheme whatever the grid's label
    mp = make_model(eps=0.05)
    grid = SimGrid(25, 0.02, 1.2, scheme="CholeskyExact")  # dt = 0.4 eps
    with pytest.raises(ValueError, match="the grid must resolve the fast scale"):
        vartheta_check(mp, grid, n_paths=64, seed=0)


def test_vartheta_serialization(vartheta_report):
    data = json.loads(vartheta_report.to_json())
    assert data["report"] == "VarthetaReport"
    assert data["bound_violations"] == 0
    assert "truncated at T" in vartheta_report.to_text()


# -- integrated adjustment (phi) -------------------------------------------------


@pytest.fixture(scope="module")
def phi_report():
    mp = make_model()
    return phi_variance_check(mp, (0.08, 0.04, 0.02, 0.01), n_mc=1200, seed=3)


def test_phi_zero_mean(phi_report):
    for m, se in zip(phi_report.means, phi_report.mean_ses):
        assert abs(m) < 4.0 * se


def test_phi_variance_slope(phi_report):
    # the asymptotic slope is 2 - 2H; a small pilot stays within a loose band
    assert 0.8 < phi_report.slope < 2.0
    assert phi_report.expected_slope == pytest.approx(2.0 - 2.0 * HURST)
    assert all(ms > 0 for ms in phi_report.mean_sq)


@pytest.mark.parametrize("n_mc", [0, 1])
def test_phi_needs_two_paths_for_its_standard_error(n_mc):
    with pytest.raises(ValueError, match="n_mc must be an integer >= 2"):
        phi_variance_check(make_model(), (0.08, 0.04, 0.02, 0.01), n_mc=n_mc)


def test_phi_report_serialization(phi_report):
    data = json.loads(phi_report.to_json())
    assert data["report"] == "PhiReport"
    assert len(data["mean_sq"]) == 4


# -- quadratic-variation correction (kappa) --------------------------------------


@pytest.fixture(scope="module")
def kappa_report():
    mp = make_model()
    return kappa_check(mp, (0.08, 0.04, 0.02, 0.01), n_mc=1200, seed=3)


def test_kappa_slope_above_floor(kappa_report):
    assert kappa_report.slope >= kappa_report.slope_floor
    assert kappa_report.slope_floor == pytest.approx(2.0 - HURST - 0.2)


def test_kappa_zero_mean_and_decay(kappa_report):
    for m, se in zip(kappa_report.final_means, kappa_report.final_mean_ses):
        assert abs(m) < 4.0 * se
    sup = kappa_report.sup_mean_sq
    assert all(b < a for a, b in zip(sup, sup[1:]))


@pytest.mark.parametrize("n_mc", [0, 1])
def test_kappa_needs_two_paths_for_its_standard_error(n_mc):
    with pytest.raises(ValueError, match="n_mc must be an integer >= 2"):
        kappa_check(make_model(), (0.08, 0.04, 0.02, 0.01), n_mc=n_mc)


def test_kappa_serialization(kappa_report):
    data = json.loads(kappa_report.to_json())
    assert data["report"] == "KappaReport"
    assert "slope_floor" in kappa_report.to_text()


def test_phi_and_kappa_checks_do_not_run_the_d_bar_series(monkeypatch):
    # both read sigma_bar alone, so neither needs group_params
    def no_group_params(mp):
        raise AssertionError("group_params was called")

    monkeypatch.setattr(experiments, "group_params", no_group_params)
    mp = make_model()
    phi = phi_variance_check(mp, (0.08, 0.04, 0.02, 0.01), n_mc=16, seed=3)
    kap = kappa_check(mp, (0.08, 0.04, 0.02, 0.01), n_mc=16, seed=3)
    assert len(phi.mean_sq) == len(kap.sup_mean_sq) == 4


# -- smile ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smile_report():
    mp = make_model(maturity_T=1.0)
    return smile_study(mp, EPS_GRID)


def test_smile_gap_decreasing(smile_report):
    assert smile_report.verdict == "decreasing"
    gaps = [p.max_scaled_iv_gap for p in smile_report.points]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_smile_recovers_group_constant(smile_report):
    finest = smile_report.points[-1]
    assert finest.recovery_rel_err < 0.02
    assert finest.d_bar_recovered == pytest.approx(smile_report.d_bar, rel=0.02)


def test_smile_requires_leverage():
    mp = make_model(rho=0.0)
    with pytest.raises(ValueError, match="rho"):
        smile_study(mp, EPS_GRID)


def test_smile_refuses_constant_vol_before_pricing(monkeypatch):
    def priced(*args, **kwargs):
        raise AssertionError("smile_study priced a model it must refuse")

    monkeypatch.setattr(experiments.pricing, "corrected_price", priced)
    with pytest.raises(ValueError, match="d_bar"):
        smile_study(make_model(vol_fn=ConstantVol(0.2)), EPS_GRID)


def test_smile_deterministic(smile_report):
    mp = make_model(maturity_T=1.0)
    again = smile_study(mp, EPS_GRID)
    assert again.to_json() == smile_report.to_json()


# -- term structure ----------------------------------------------------------------


@pytest.mark.parametrize("h", [0.1, 0.3])
def test_termstructure_slopes(h):
    rep = termstructure_study(make_model(hurst=h))
    assert rep.short_slope == pytest.approx(h + 0.5, abs=0.05)
    assert rep.long_slope == pytest.approx(h - 0.5, abs=0.05)


def test_termstructure_reads_model_eps():
    # tau_mr is the model's eps and tau_bar is 1, so the table's maturities
    # scale with eps while the log-log slopes do not move
    base = termstructure_study(make_model(eps=0.05))
    fast = termstructure_study(make_model(eps=0.0125))
    assert (base.tau_mr, base.tau_bar) == (0.05, 1.0)
    assert (fast.tau_mr, fast.tau_bar) == (0.0125, 1.0)
    assert np.allclose(np.array(base.taus) / 0.05, np.array(fast.taus) / 0.0125,
                       rtol=1e-15, atol=0.0)
    assert base.factors != fast.factors
    assert fast.short_slope == pytest.approx(base.short_slope, abs=1e-12)
    assert fast.long_slope == pytest.approx(base.long_slope, abs=1e-12)


def test_termstructure_zeta_closed_forms():
    rep = termstructure_study(make_model(hurst=0.3))
    assert rep.zeta_fast == max(0.3 - 0.5, 0.0)
    assert rep.zeta_slow == 0.3 + 0.5
    assert rep.zeta_small_amplitude == 0.3 + 0.5


def test_termstructure_table_and_serialization():
    rep = termstructure_study(make_model(hurst=0.25))
    assert len(rep.taus) == 17
    assert all(f > 0 for f in rep.factors)
    assert rep.to_json() == termstructure_study(make_model(hurst=0.25)).to_json()
    assert rep.to_csv().splitlines()[0] == "tau,amplitude_factor"
    data = json.loads(rep.to_json())
    assert data["report"] == "TermStructureReport"
