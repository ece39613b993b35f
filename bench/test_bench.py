"""Tests of the benchmark itself: each check passes on right inputs and fails
on a deliberately wrong one, the tracer's arithmetic and wiring, and the
command's failure outside a full tree.

    python3 -m pytest bench
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import oracle
import tracer as tracing
import workloads
from roughvol import cli, gaussfunc, kernel, pricing, simulate
from roughvol.experiments import MCEstimate

HERE = os.path.dirname(os.path.abspath(__file__))


def _oracle_case():
    """The stored H=0.1 oracle model with group parameters assembled from
    the dense trapezoid and the stored d_bar (no program quadrature)."""
    (hurst, lo, hi, slope), (dbar, err) = next(iter(workloads.load_oracle().items()))
    vol = gaussfunc.BoundedSigmoid(lo, hi, slope)
    f = vol(checks.sigma_ou(hurst) * checks._Z)
    m1, m2 = checks.gauss_mean(f), checks.gauss_mean(f * f)
    gp = gaussfunc.GroupParams(sigma_bar=math.sqrt(m2), d_bar=dbar, tau_bar=2.0 / m2,
                               mean_F=m1, var_F=m2 - m1**2, mean_Fp=0.0, mean_Fp2=0.0)
    return hurst, vol, gp, dbar, err


# -- group parameters ------------------------------------------------------------


def test_group_params_check_passes_on_reference_values():
    hurst, vol, gp, dbar, err = _oracle_case()
    assert checks.check_group_params("m", hurst, vol, gp, dbar, err) == []


@pytest.mark.parametrize("field,factor", [("d_bar", 1.01), ("sigma_bar", 1 + 1e-6),
                                          ("mean_F", 1 + 1e-6)])
def test_group_params_check_fails_on_wrong_value(field, factor):
    hurst, vol, gp, dbar, err = _oracle_case()
    wrong = dataclasses.replace(gp, **{field: getattr(gp, field) * factor})
    if field == "sigma_bar":
        wrong = dataclasses.replace(wrong, tau_bar=2.0 / wrong.sigma_bar**2)
    assert checks.check_group_params("m", hurst, vol, wrong, dbar, err)


def test_scaled_pair_check():
    c, d, smax = 1.37, 1.1524863e-05, 0.3
    assert checks.check_scaled_pair("m", d, c**3 * d, c, c * smax) == []
    assert checks.check_scaled_pair("m", d, 1.01 * c**3 * d, c, c * smax)


def test_oracle_reproduces_stored_value_at_low_resolution():
    (hurst, lo, hi, slope), (dbar, _) = next(iter(workloads.load_oracle().items()))
    coarse = oracle.dbar_oracle(hurst, gaussfunc.BoundedSigmoid(lo, hi, slope),
                                n_head=200, n_log=200)
    assert abs(coarse - dbar) < 1e-6 * abs(dbar)


# -- quotes ----------------------------------------------------------------------


def _quote_model(tau):
    hurst, vol, gp, _, _ = _oracle_case()
    mp = simulate.ModelParams(hurst=hurst, eps=0.05, rho=-0.5, vol_fn=vol, x0=1.0,
                              maturity_T=tau)
    return mp, gp


@pytest.mark.parametrize("strike", [0.85, 1.0, 1.2])
def test_call_quote_check(strike):
    mp, gp = _quote_model(0.5)
    res = pricing.corrected_price(mp, gp, pricing.Call(strike), 0.0)
    assert checks.check_call_quote("q", mp, gp, strike, res) == []
    for wrong in (dataclasses.replace(res, q0=res.q0 + 1e-9),
                  dataclasses.replace(res, q1=res.q1 * 1.01),
                  dataclasses.replace(res, implied_vol_inverted=res.implied_vol_inverted
                                      + 1e-6),
                  dataclasses.replace(res, implied_vol_inverted=None)):
        assert checks.check_call_quote("q", mp, gp, strike, wrong)


def test_ramp_quote_check():
    mp, gp = _quote_model(1.0)
    res = pricing.corrected_price(mp, gp, pricing.smooth_ramp(1.03, 0.1), 0.0)
    assert checks.check_ramp_quote("r", mp, gp, 1.03, 0.1, res) == []
    assert checks.check_ramp_quote("r", mp, gp, 1.03, 0.1,
                                   dataclasses.replace(res, q0=res.q0 + 1e-5))
    assert checks.check_ramp_quote("r", mp, gp, 1.03, 0.1,
                                   dataclasses.replace(res, q1=res.q1 * 1.01))


def test_ramp_reference_matches_closed_form_limit():
    # a ramp far narrower than the spot spread approaches a digital call
    sigma, tau, center = 0.3, 1.0, 1.0
    q0, _ = checks.ramp_moments(1.0, center, 1e-4, sigma, tau)
    rt = sigma * math.sqrt(tau)
    d2 = (math.log(1.0 / center) - 0.5 * rt * rt) / rt
    assert abs(q0 - checks.norm_cdf(d2)) < 1e-4


# -- Monte Carlo --------------------------------------------------------------------


def _antithetic(rows):
    out = np.empty((2 * rows.shape[0],) + rows.shape[1:])
    out[0::2], out[1::2] = rows, -rows
    return out


def _exact_factor(n_paths=8192, hurst=workloads.MC_HURST, eps=workloads.MC_EPS,
                  dt=1.0 / 160):
    """Exact stationary factor paths on the mc_price grid (antithetic rows)."""
    ce = kernel.CovarianceEval(hurst)
    so2 = checks.sigma_ou(hurst) ** 2
    n = 161
    lags = np.arange(n) * dt / eps
    cov = so2 * np.asarray(ce.cov_CZ(lags))
    mat = cov[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    chol = np.linalg.cholesky(mat + 1e-12 * np.eye(n))
    rng = np.random.default_rng(3)
    z = _antithetic(rng.standard_normal((n_paths // 2, n)) @ chol.T)
    steps = [round(m * eps / dt) for m in workloads.MC_LAGS_EPS]
    return z, steps, so2, [so2 * ce.cov_CZ(s * dt / eps) for s in steps]


def test_factor_law_check():
    z, steps, so2, covs = _exact_factor()
    assert checks.check_factor_law(z, steps, so2, covs) == []
    assert checks.check_factor_law(z, steps, 1.05 * so2, covs)
    assert checks.check_factor_law(z, steps, so2, [covs[0] + 0.05 * so2, covs[1]])
    assert checks.check_factor_law(z, steps, so2, [covs[0], covs[1] + 0.05 * so2])


def test_martingale_and_estimate_checks():
    rng = np.random.default_rng(5)
    sigma, n = 0.28, workloads.MC_PATHS
    xi = _antithetic(rng.standard_normal(n // 2))
    x_t = np.exp(-0.5 * sigma**2 + sigma * xi)
    assert checks.check_martingale(x_t, 1.0) == []
    assert checks.check_martingale(1.01 * x_t, 1.0)
    units = 0.5 * (np.maximum(x_t[0::2] - 1.0, 0) + np.maximum(x_t[1::2] - 1.0, 0))
    est = MCEstimate(mean=float(units.mean()),
                     std_error=float(units.std(ddof=1) / math.sqrt(units.size)),
                     n_paths=n, seed=0)
    assert checks.check_mc_estimate(est, x_t, 1.0) == []
    assert checks.check_mc_estimate(dataclasses.replace(est, mean=est.mean * (1 + 1e-9)),
                                    x_t, 1.0)
    assert checks.check_mc_estimate(dataclasses.replace(est, n_paths=n - 2), x_t, 1.0)


# -- studies --------------------------------------------------------------------------


def test_config_hash_matches_program_rule():
    cfg = cli.load_config(None, {("model", "eps"): 0.04, ("study", "seed"): 9})
    assert checks.config_hash(cfg.to_dict()) == cli.config_hash(cfg)


def test_emitted_report_check():
    cfg = cli.load_config(None, {})
    h = cli.config_hash(cfg)
    sidecar = json.dumps({"config_hash": h, "config": cfg.to_dict()})
    assert checks.check_emitted("s", json.dumps({"config_hash": h}), sidecar) == []
    assert checks.check_emitted("s", json.dumps({"config_hash": "0" * 12}), sidecar)
    assert checks.check_emitted("s", json.dumps({}), sidecar)
    assert checks.check_emitted("s", "{not json", sidecar)


def test_convergence_check():
    point = {"eps": 0.1, "error": 0.01, "error_bs": 0.02}
    good = {"verdict": "decreasing (within 1-SE overlap)", "points": [point]}
    assert checks.check_convergence(good) == []
    assert checks.check_convergence(dict(good, verdict="not decreasing"))
    assert checks.check_convergence(dict(good, points=[dict(point, error_bs=0.005)]))


def test_vartheta_check():
    good = {"ratio_to_target": 1.03, "cov_std_error": 1e-5, "target": 5.7e-4,
            "bound_violations": 0}
    assert checks.check_vartheta(good) == []
    assert checks.check_vartheta(dict(good, ratio_to_target=1.1))
    assert checks.check_vartheta(dict(good, bound_violations=1))


# -- tracer ----------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    outer = t.open("a")
    inner = t.open("b")
    nested = t.open("a")
    t.close(nested)
    t.close(inner)
    t.close(outer)
    dur = np.asarray(t._end) - np.asarray(t._start)
    table = t.span_table()
    assert table["a"]["calls"] == 1            # the nested "a" is not outermost
    assert table["a"]["s"] == pytest.approx(dur[0])
    assert table["a"]["self_s"] == pytest.approx(dur[0] - dur[1] + dur[2])
    assert table["b"]["self_s"] == pytest.approx(dur[1] - dur[2])


def test_install_wraps_every_binding_and_restores():
    original = kernel.bivariate_expect
    t = tracing.Tracer()
    inst = tracing.install(t)
    try:
        assert gaussfunc.bivariate_expect is kernel.bivariate_expect
        assert kernel.bivariate_expect is not original
        assert cli.d_bar is gaussfunc.d_bar is not None
        value = gaussfunc.bivariate_expect(np.cos, np.cos, 0.5, 24)
        assert t.maxima["kernel.gh.max_order"] == 24
        assert set(t.span_table()) >= {"kernel.bivariate_expect", "kernel.gh"}
        assert value == pytest.approx(original(np.cos, np.cos, 0.5, 24), rel=1e-15)
    finally:
        inst.restore()
    assert kernel.bivariate_expect is original
    assert gaussfunc.bivariate_expect is original
    assert not isinstance(simulate.signal, tracing._Proxy)


def test_layer_metrics_cover_the_declared_list():
    t = tracing.Tracer()
    assert list(t.layer_metrics(1)) == [name for name, _, _ in tracing.PER_LAYER]


# -- the command ---------------------------------------------------------------------------


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "params_sweep", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
