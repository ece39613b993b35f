"""The benchmark's three workloads.

Each workload builds its inputs from the seed (this is the set-up that
``setup_s`` times), then runs whole rounds of the same operations.  A
round records the wall time of every timed operation, counts the
operations attempted and failed, and checks the outputs with ``checks``.

* ``params_sweep`` -- ``group_params`` for a fixed list of distinct models,
  then corrected-price quotes over a strike x maturity grid of calls and
  smooth ramps.  No simulation runs.
* ``mc_price`` -- one ``mc_price`` call at the shipped example config.
* ``studies`` -- ``roughvol study convergence`` and ``roughvol study
  vartheta`` run through ``roughvol.cli.main`` with a config file and
  ``--out``, as a user runs them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from roughvol import cli, experiments, gaussfunc, kernel, pricing, simulate

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

# A round after the first scales every vol function by 1/(1 + r/7), so that
# no model repeats within a run however many rounds fit in it.
_ROUND_SCALE = 7.0


def _round_scale(r: int) -> float:
    return 1.0 / (1.0 + r / _ROUND_SCALE)


def _sigmoid(params, scale: float = 1.0):
    lo, hi, slope = params
    return gaussfunc.BoundedSigmoid(scale * lo, scale * hi, slope)


class Workload:
    """Inputs, rounds and tallies of one workload."""

    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.primary: list = []
        self.secondary: list = []

    def install_hooks(self) -> None:
        """Called once after tracing (if any) is installed."""

    def run_round(self, r: int) -> None:
        raise NotImplementedError

    def metrics(self) -> dict:
        return {"primary_s": statistics.median(self.primary),
                "secondary_s": statistics.median(self.secondary)}

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _op_failed(self, what: str) -> None:
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


# -- params_sweep ------------------------------------------------------------------

# (label, hurst, BoundedSigmoid(sigma_min, sigma_max, slope)): the vol
# functions of the acceptance tests, the README and the brute-force test.
PARAMS_MODELS = (
    ("acceptance", 0.3, (0.05, 0.85, 3.5)),
    ("brute_H0.1", 0.1, (0.1, 0.3, 1.0)),
    ("readme", 0.3, (0.05, 0.45, 2.5)),
    ("brute_H0.3", 0.3, (0.1, 0.3, 1.0)),
)
# This model is also swept as a copy scaled by a seed-drawn factor.
PARAMS_SCALED = "brute_H0.1"
N_STRIKES, N_RAMPS = 9, 5
MATURITIES = (0.1, 0.25, 0.5, 1.0)  # each shortened by up to 5% from the seed
RAMP_WIDTH = 0.1


def load_oracle() -> dict:
    """Stored ``d_bar`` oracle values keyed by (hurst, sigma_min, sigma_max,
    slope); regenerate with ``python3 bench/oracle.py``."""
    with open(os.path.join(HERE, "dbar_oracle.json")) as fh:
        data = json.load(fh)
    return {(m["hurst"], m["sigma_min"], m["sigma_max"], m["slope"]):
            (m["d_bar"], m["abs_error_estimate"]) for m in data["models"]}


class ParamsSweep(Workload):
    name = "params_sweep"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        rng = self.rng
        self.oracle = load_oracle()
        self.factor = float(rng.uniform(1.15, 1.85))
        self.eps = float(rng.uniform(0.01, 0.1))
        self.rho = float(rng.uniform(-0.8, -0.2))
        self.x0 = 1.0
        log_k = np.linspace(-0.2, 0.2, N_STRIKES) + rng.uniform(-0.01, 0.01, N_STRIKES)
        self.strikes = [float(k) for k in self.x0 * np.exp(log_k)]
        taus = np.array(MATURITIES) * rng.uniform(0.95, 1.0, len(MATURITIES))
        self.maturities = [float(t) for t in taus]
        centers = self.x0 * np.linspace(0.9, 1.1, N_RAMPS) * (
            1.0 + rng.uniform(-0.01, 0.01, N_RAMPS))
        self.calls = [pricing.Call(k) for k in self.strikes]
        self.ramps = [(float(c), pricing.smooth_ramp(float(c), RAMP_WIDTH))
                      for c in centers]

    def models(self, r: int):
        """(label, hurst, vol params, scale) for round ``r``."""
        s = _round_scale(r)
        out = []
        for label, hurst, params in PARAMS_MODELS:
            out.append((label, hurst, params, s))
            if label == PARAMS_SCALED:
                out.append((f"{label}*c", hurst, params, s * self.factor))
        return out

    def run_round(self, r: int) -> None:
        n_quotes = len(self.maturities) * (len(self.calls) + len(self.ramps))
        dbar = {}
        param_t = quote_t = 0.0
        n_params = n_done = 0
        for label, hurst, params, scale in self.models(r):
            vol = _sigmoid(params, scale)
            mp = simulate.ModelParams(hurst=hurst, eps=self.eps, rho=self.rho,
                                      vol_fn=vol, x0=self.x0, maturity_T=1.0)
            self.attempted += 1 + n_quotes
            t0 = time.perf_counter()
            try:
                gp = gaussfunc.group_params(mp)
            except Exception:
                self._op_failed(f"group_params {label}")
                self.failed += n_quotes
                continue
            param_t += time.perf_counter() - t0
            n_params += 1
            dbar[label] = (gp.d_bar, scale, vol.sigma_max)
            ref = self.oracle.get((hurst, *params))
            self.failures += checks.check_group_params(
                label, hurst, vol, gp,
                None if ref is None else scale**3 * ref[0],
                0.0 if ref is None else scale**3 * ref[1])
            dt, done = self._quotes(label, mp, gp)
            quote_t += dt
            n_done += done
        base, scaled = dbar.get(PARAMS_SCALED), dbar.get(f"{PARAMS_SCALED}*c")
        if base and scaled:
            self.failures += checks.check_scaled_pair(
                PARAMS_SCALED, base[0], scaled[0], scaled[1] / base[1], scaled[2])
        if n_params:
            self.primary.append(param_t / n_params)
        if n_done:
            self.secondary.append(quote_t / n_done)

    def _quotes(self, label, mp, gp):
        elapsed, done = 0.0, 0
        for tau in self.maturities:
            mp_t = simulate.ModelParams(hurst=mp.hurst, eps=mp.eps, rho=mp.rho,
                                        vol_fn=mp.vol_fn, x0=mp.x0, maturity_T=tau)
            for payoff in self.calls:
                t0 = time.perf_counter()
                try:
                    res = pricing.corrected_price(mp_t, gp, payoff, 0.0)
                except Exception:
                    self._op_failed(f"corrected_price {label} {payoff!r} T={tau}")
                    continue
                elapsed += time.perf_counter() - t0
                done += 1
                self.failures += checks.check_call_quote(
                    f"{label} K={payoff.strike:.4f} T={tau:.3f}", mp_t, gp,
                    payoff.strike, res)
            for center, payoff in self.ramps:
                t0 = time.perf_counter()
                try:
                    res = pricing.corrected_price(mp_t, gp, payoff, 0.0)
                except Exception:
                    self._op_failed(f"corrected_price {label} ramp {center} T={tau}")
                    continue
                elapsed += time.perf_counter() - t0
                done += 1
                self.failures += checks.check_ramp_quote(
                    f"{label} ramp c={center:.4f} T={tau:.3f}", mp_t, gp,
                    center, RAMP_WIDTH, res)
        return elapsed, done


# -- mc_price ------------------------------------------------------------------------

# demos/example_config.ini
MC_HURST, MC_EPS, MC_RHO = 0.3, 0.05, -0.5
MC_VOL = (0.05, 0.45, 2.5)
MC_POINTS_PER_EPS, MC_WARMUP_MULT = 8, 30.0
MC_STRIKE = 1.0
MC_PATHS = 65_536
MC_CHECK_BATCHES = 2          # batches (of 4,096 paths) whose factor law is checked
MC_LAGS_EPS = (1, 5)          # covariance lags, in units of eps


class _BatchRecorder:
    """Sits between ``mc_price`` and ``simulate_paths``: keeps the terminal
    prices of every batch, the factor values of the first batches, and the
    time the first batch arrived."""

    def __init__(self, gen_fn):
        self.gen_fn = gen_fn
        self.reset()

    def reset(self) -> None:
        self.x_terminal: list = []
        self.z: list = []
        self.first_batch_at = None

    def __call__(self, *args, **kwargs):
        for bundle in self.gen_fn(*args, **kwargs):
            if self.first_batch_at is None:
                self.first_batch_at = time.perf_counter()
            self.x_terminal.append(bundle.X[:, -1].copy())
            if len(self.z) < MC_CHECK_BATCHES:
                self.z.append(bundle.Z)
            yield bundle


class MCPrice(Workload):
    name = "mc_price"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.mp = simulate.ModelParams(hurst=MC_HURST, eps=MC_EPS, rho=MC_RHO,
                                       vol_fn=_sigmoid(MC_VOL), x0=1.0,
                                       maturity_T=1.0)
        self.grid = simulate.SimGrid.for_model(self.mp, MC_POINTS_PER_EPS,
                                               MC_WARMUP_MULT)
        self.payoff = pricing.Call(MC_STRIKE)
        self.recorder = None
        self.law = None

    def install_hooks(self) -> None:
        self.recorder = _BatchRecorder(experiments.simulate_paths)
        experiments.simulate_paths = self.recorder

    def close(self) -> None:
        if self.recorder is not None:
            experiments.simulate_paths = self.recorder.gen_fn
        super().close()

    def _law(self):
        """Stationary variance and lag covariances the factor must have."""
        if self.law is None:
            ce = kernel.CovarianceEval(MC_HURST)
            so2 = checks.sigma_ou(MC_HURST) ** 2
            lags = [round(m * MC_EPS / self.grid.dt) for m in MC_LAGS_EPS]
            covs = [so2 * ce.cov_CZ(lag * self.grid.dt / MC_EPS) for lag in lags]
            self.law = (lags, so2, covs)
        return self.law

    def run_round(self, r: int) -> None:
        rec = self.recorder
        rec.reset()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            est = experiments.mc_price(self.mp, self.grid, self.payoff,
                                       n_paths=MC_PATHS, seed=self.seed + 7919 * r,
                                       antithetic=True)
        except Exception:
            self._op_failed("mc_price")
            return
        t1 = time.perf_counter()
        self.primary.append(t1 - t0)
        self.secondary.append(rec.first_batch_at - t0)
        x_t = np.concatenate(rec.x_terminal)
        lags, so2, covs = self._law()
        self.failures += checks.check_mc_estimate(est, x_t, MC_STRIKE)
        self.failures += checks.check_martingale(x_t, self.mp.x0)
        self.failures += checks.check_factor_law(np.concatenate(rec.z), lags,
                                                 so2, covs)
        rec.reset()


# -- studies ----------------------------------------------------------------------------

STUDY_MODEL = {"hurst": 0.3, "rho": -0.5, "x0": 1.0, "maturity_T": 1.0,
               "vol_type": '"sigmoid"', "vol_sigma_min": 0.05,
               "vol_sigma_max": 0.85, "vol_slope": 3.5}
# demos/convergence_at_desk_scale.py
CONVERGENCE = {"eps": 0.1, "points_per_eps": 4, "warmup_mult": 24.0,
               "eps_grid": [0.1, 0.05, 0.025, 0.0125], "n_paths": 20_000,
               "payoff": {"type": '"smooth_ramp"', "center": 1.0, "width": 0.1,
                          "height": 1.0}}
VARTHETA = {"eps": 0.04, "points_per_eps": 4, "warmup_mult": 24.0,
            "n_paths": 8192, "payoff": {"type": '"call"', "strike": 1.0}}


def _ini(study: dict, seed: int) -> str:
    model = dict(STUDY_MODEL, eps=study["eps"])
    lines = ["[model]"] + [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[grid]", f"points_per_eps = {study['points_per_eps']}",
              f"warmup_mult = {study['warmup_mult']}"]
    lines += ["", "[payoff]"] + [f"{k} = {v}" for k, v in study["payoff"].items()]
    lines += ["", "[study]", f"n_paths = {study['n_paths']}", f"seed = {seed}"]
    if "eps_grid" in study:
        lines.append(f"eps_grid = {json.dumps(study['eps_grid'])}")
    lines += ["", "[output]", 'formats = "csv,json,txt"', ""]
    return "\n".join(lines)


class Studies(Workload):
    name = "studies"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.configs = {}
        for which, study in (("convergence", CONVERGENCE), ("vartheta", VARTHETA)):
            path = os.path.join(out_dir, f"{which}.ini")
            with open(path, "w") as fh:
                fh.write(_ini(study, seed))
            self.configs[which] = path

    def _study(self, which: str, r: int):
        out = os.path.join(self.out_dir, f"round{r}", which)
        argv = ["study", which, "--config", self.configs[which],
                "--seed", str(self.seed + 7919 * r), "--out", out]
        self.attempted += 1
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except Exception:
            self._op_failed(f"roughvol {' '.join(argv)}")
            return None, None
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"operation failed: roughvol {' '.join(argv)} exited {code}",
                  file=sys.stderr)
            return None, None
        with open(os.path.join(out, f"{which}.json")) as fh:
            report_text = fh.read()
        with open(os.path.join(out, "config.json")) as fh:
            sidecar_text = fh.read()
        self.failures += checks.check_emitted(which, report_text, sidecar_text)
        try:
            return elapsed, json.loads(report_text)
        except json.JSONDecodeError:
            return elapsed, None

    def run_round(self, r: int) -> None:
        elapsed, report = self._study("convergence", r)
        if report is not None:
            self.primary.append(elapsed)
            self.failures += checks.check_convergence(report)
        elapsed, report = self._study("vartheta", r)
        if report is not None:
            self.secondary.append(elapsed)
            self.failures += checks.check_vartheta(report)
        shutil.rmtree(os.path.join(self.out_dir, f"round{r}"), ignore_errors=True)


WORKLOADS = {w.name: w for w in (ParamsSweep, MCPrice, Studies)}


def make(name: str, seed: int, out_dir: str) -> Workload:
    return WORKLOADS[name](seed, out_dir)
