"""Command-line front end: config parsing, study orchestration, and emission.

A run is described by a declarative config file (INI sections with
JSON-typed values, or an equivalent JSON document) holding the model,
grid, payoff, study, and output settings; command-line flags override
individual values.  Every emitted file embeds the config hash and seed in
a header comment, CSV files carry column names on the first line and 17
significant digits, and each run with an output directory writes a
``config.json`` sidecar that re-parses to the identical configuration.

Exit codes: 0 on success, 2 on configuration errors, and 3 on numerical
failures (quadrature non-convergence or floating-point breakdown).

The environment variable ``ROUGHVOL_THREADS`` caps the linear-algebra
thread pools; the studies themselves are sequential and deterministic.
"""

from __future__ import annotations

import os


def _cap_threads() -> None:
    """Propagate ``ROUGHVOL_THREADS`` to the BLAS/OpenMP thread caps.

    Must run before the numerical stack is imported, since the pools read
    these variables at load time.
    """
    raw = os.environ.get("ROUGHVOL_THREADS")
    if not raw:
        return
    try:
        count = int(raw)
    except ValueError:
        return  # re-validated (and rejected) in main()
    if count < 1:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = str(count)


_cap_threads()

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from scipy import integrate

from . import experiments, pricing
from .experiments import _ReportMixin
from .gaussfunc import BoundedSigmoid, ConstantVol, d_bar, moments
from .kernel import CovarianceEval, KernelEval
from .simulate import (
    ModelParams,
    SimGrid,
    concat_bundles,
    dump_paths,
    simulate_paths,
)

__all__ = ["RunConfig", "load_config", "config_hash", "main"]

_STUDIES = ("convergence", "vartheta", "phi", "kappa", "smile", "termstructure")
_FORMATS = ("csv", "json", "txt")

_SECTION_KEYS = {
    "model": (
        "hurst", "eps", "rho", "x0", "maturity_T",
        "vol_type", "vol_sigma_min", "vol_sigma_max", "vol_slope", "vol_value",
    ),
    "grid": ("points_per_eps", "warmup_mult", "scheme"),
    "payoff": ("type", "strike", "center", "width", "height"),
    "study": (
        "eps_grid", "n_paths", "seed", "t", "t_interior",
        "strikes_rel", "tau_mr", "delta_sigma",
    ),
    "output": ("dir", "formats"),
}

_VOL_KEYS = {
    "sigmoid": ("vol_sigma_min", "vol_sigma_max", "vol_slope"),
    "constant": ("vol_value",),
}
_PAYOFF_KEYS = {
    "call": ("strike",),
    "smooth_ramp": ("center", "width", "height"),
}


def _as_float(section: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"[{section}] {key} must be a number; got {value!r}")
    return float(value)


def _as_int(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"[{section}] {key} must be an integer; got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (model, grid, payoff, study, output).

    Constructed through :func:`load_config` / :meth:`from_dict`, which
    reject unknown sections and keys and re-validate every module-level
    invariant (model parameters, grid constraints, payoff construction) at
    load time.
    """

    hurst: float = 0.3
    eps: float = 0.05
    rho: float = -0.5
    x0: float = 1.0
    maturity_T: float = 1.0
    vol_type: str = "sigmoid"
    vol_params: tuple = (0.05, 0.45, 2.5)
    points_per_eps: int = 8
    warmup_mult: float = 30.0
    scheme: str = "TruncatedMovingAverage"
    payoff_type: str = "call"
    payoff_params: tuple = (1.0,)
    eps_grid: tuple = (0.1, 0.05, 0.025, 0.0125)
    n_paths: Optional[int] = None
    seed: int = 0
    t: float = 0.0
    t_interior: Optional[float] = None
    strikes_rel: tuple = (0.94, 0.97, 1.0, 1.03, 1.06)
    tau_mr: float = 1.0
    delta_sigma: float = 0.1
    out_dir: Optional[str] = None
    formats: tuple = _FORMATS

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config root must be a mapping; got {type(data).__name__}")
        unknown = set(data) - set(_SECTION_KEYS)
        if unknown:
            raise ValueError(
                f"unknown config section(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_SECTION_KEYS)}"
            )
        for section, entries in data.items():
            if not isinstance(entries, dict):
                raise ValueError(f"section [{section}] must be a mapping")
            bad = set(entries) - set(_SECTION_KEYS[section])
            if bad:
                raise ValueError(
                    f"unknown key(s) {sorted(bad)} in section [{section}]; "
                    f"expected a subset of {sorted(_SECTION_KEYS[section])}"
                )

        kw = {}
        model = data.get("model", {})
        for key in ("hurst", "eps", "rho", "x0", "maturity_T"):
            if key in model:
                kw[key] = _as_float("model", key, model[key])
        vol_type = model.get("vol_type", cls.vol_type)
        if vol_type not in _VOL_KEYS:
            raise ValueError(
                f"[model] vol_type must be one of {sorted(_VOL_KEYS)}; got {vol_type!r}"
            )
        extra = [k for k in model
                 if k.startswith("vol_") and k != "vol_type"
                 and k not in _VOL_KEYS[vol_type]]
        if extra:
            raise ValueError(
                f"key(s) {sorted(extra)} in section [model] do not apply to "
                f"vol_type {vol_type!r} (expected {list(_VOL_KEYS[vol_type])})"
            )
        defaults = dict(zip(_VOL_KEYS[cls.vol_type], cls.vol_params))
        vol_params = tuple(
            _as_float("model", k, model[k]) if k in model
            else defaults.get(k, 0.3)
            for k in _VOL_KEYS[vol_type]
        )
        kw["vol_type"] = vol_type
        kw["vol_params"] = vol_params

        grid = data.get("grid", {})
        if "points_per_eps" in grid:
            kw["points_per_eps"] = _as_int("grid", "points_per_eps",
                                           grid["points_per_eps"])
        if "warmup_mult" in grid:
            kw["warmup_mult"] = _as_float("grid", "warmup_mult",
                                          grid["warmup_mult"])
        if "scheme" in grid:
            kw["scheme"] = str(grid["scheme"])

        payoff = data.get("payoff", {})
        payoff_type = payoff.get("type", cls.payoff_type)
        if payoff_type not in _PAYOFF_KEYS:
            raise ValueError(
                f"[payoff] type must be one of {sorted(_PAYOFF_KEYS)}; "
                f"got {payoff_type!r}"
            )
        extra = [k for k in payoff
                 if k != "type" and k not in _PAYOFF_KEYS[payoff_type]]
        if extra:
            raise ValueError(
                f"key(s) {sorted(extra)} in section [payoff] do not apply to "
                f"payoff type {payoff_type!r} "
                f"(expected {list(_PAYOFF_KEYS[payoff_type])})"
            )
        pdefaults = {"strike": 1.0, "center": 1.0, "width": 0.2, "height": 1.0}
        kw["payoff_type"] = payoff_type
        kw["payoff_params"] = tuple(
            _as_float("payoff", k, payoff[k]) if k in payoff else pdefaults[k]
            for k in _PAYOFF_KEYS[payoff_type]
        )

        study = data.get("study", {})
        if "eps_grid" in study:
            grid_val = study["eps_grid"]
            if not isinstance(grid_val, (list, tuple)):
                raise ValueError("[study] eps_grid must be a list of numbers")
            kw["eps_grid"] = tuple(
                _as_float("study", "eps_grid", v) for v in grid_val
            )
        if "n_paths" in study and study["n_paths"] is not None:
            kw["n_paths"] = _as_int("study", "n_paths", study["n_paths"])
        if "seed" in study:
            kw["seed"] = _as_int("study", "seed", study["seed"])
        if "t" in study:
            kw["t"] = _as_float("study", "t", study["t"])
        if "t_interior" in study and study["t_interior"] is not None:
            kw["t_interior"] = _as_float("study", "t_interior",
                                         study["t_interior"])
        if "strikes_rel" in study:
            strikes = study["strikes_rel"]
            if not isinstance(strikes, (list, tuple)):
                raise ValueError("[study] strikes_rel must be a list of numbers")
            kw["strikes_rel"] = tuple(
                _as_float("study", "strikes_rel", v) for v in strikes
            )
        if "tau_mr" in study:
            kw["tau_mr"] = _as_float("study", "tau_mr", study["tau_mr"])
        if "delta_sigma" in study:
            kw["delta_sigma"] = _as_float("study", "delta_sigma",
                                          study["delta_sigma"])

        output = data.get("output", {})
        if "dir" in output and output["dir"] is not None:
            kw["out_dir"] = str(output["dir"])
        if "formats" in output:
            formats = output["formats"]
            if isinstance(formats, str):
                formats = [f.strip() for f in formats.split(",") if f.strip()]
            bad = set(formats) - set(_FORMATS)
            if bad:
                raise ValueError(
                    f"[output] formats {sorted(bad)} not supported; "
                    f"expected a subset of {list(_FORMATS)}"
                )
            kw["formats"] = tuple(f for f in _FORMATS if f in formats)

        cfg = cls(**kw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Re-run every module-level invariant on the resolved values."""
        mp = self.model()
        SimGrid.for_model(mp, self.points_per_eps, self.warmup_mult,
                          scheme=self.scheme)
        self.payoff_fn()
        if self.n_paths is not None and self.n_paths < 1:
            raise ValueError(
                f"[study] n_paths must be positive; got {self.n_paths!r}"
            )
        if not (0.0 <= self.t <= self.maturity_T):
            raise ValueError(
                f"[study] t must lie in [0, maturity_T]; got {self.t!r}"
            )
        for e in self.eps_grid:
            if not (e > 0.0):
                raise ValueError(
                    f"[study] eps_grid entries must be positive; got {e!r}"
                )

    # -- builders -------------------------------------------------------------

    def vol_fn(self):
        if self.vol_type == "sigmoid":
            return BoundedSigmoid(*self.vol_params)
        return ConstantVol(*self.vol_params)

    def model(self) -> ModelParams:
        return ModelParams(hurst=self.hurst, eps=self.eps, rho=self.rho,
                           vol_fn=self.vol_fn(), x0=self.x0,
                           maturity_T=self.maturity_T)

    def grid(self, mp: Optional[ModelParams] = None) -> SimGrid:
        return SimGrid.for_model(mp or self.model(), self.points_per_eps,
                                 self.warmup_mult, scheme=self.scheme)

    def payoff_fn(self):
        if self.payoff_type == "call":
            return pricing.Call(*self.payoff_params)
        return pricing.smooth_ramp(*self.payoff_params)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        model = {
            "hurst": self.hurst, "eps": self.eps, "rho": self.rho,
            "x0": self.x0, "maturity_T": self.maturity_T,
            "vol_type": self.vol_type,
        }
        model.update(dict(zip(_VOL_KEYS[self.vol_type], self.vol_params)))
        payoff = {"type": self.payoff_type}
        payoff.update(dict(zip(_PAYOFF_KEYS[self.payoff_type],
                               self.payoff_params)))
        return {
            "model": model,
            "grid": {
                "points_per_eps": self.points_per_eps,
                "warmup_mult": self.warmup_mult,
                "scheme": self.scheme,
            },
            "payoff": payoff,
            "study": {
                "eps_grid": list(self.eps_grid),
                "n_paths": self.n_paths,
                "seed": self.seed,
                "t": self.t,
                "t_interior": self.t_interior,
                "strikes_rel": list(self.strikes_rel),
                "tau_mr": self.tau_mr,
                "delta_sigma": self.delta_sigma,
            },
            "output": {
                "dir": self.out_dir,
                "formats": list(self.formats),
            },
        }


def config_hash(cfg: RunConfig) -> str:
    """Short content hash identifying the run-defining configuration.

    The output section (directory, formats) is excluded: it controls where
    results land, not what they are, so identical runs emitted to different
    directories stay byte-identical.
    """
    content = cfg.to_dict()
    del content["output"]
    canon = json.dumps(content, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()[:12]


def _read_config_file(path: Path) -> dict:
    if not path.exists():
        raise ValueError(f"config file {str(path)!r} does not exist")
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        if isinstance(data, dict) and "config" in data:
            data = data["config"]  # sidecar wrapper
        return data
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (maturity_T)
    parser.read_string(text)
    data: dict = {}
    for section in parser.sections():
        entries = {}
        for key, raw in parser.items(section):
            try:
                entries[key] = json.loads(raw)
            except json.JSONDecodeError:
                entries[key] = raw
        data[section] = entries
    return data


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> RunConfig:
    """Load a config file (INI or JSON) and apply flag overrides."""
    data = _read_config_file(Path(path)) if path else {}
    for (section, key), value in (overrides or {}).items():
        data.setdefault(section, {})[key] = value
    return RunConfig.from_dict(data)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class ParamsReport(_ReportMixin):
    """Group market parameters with quadrature diagnostics."""

    hurst: float
    eps: float
    rho: float
    vol: str
    sigma_bar: float
    d_bar: float
    tau_bar: float
    mean_F: float
    mean_F2: float
    mean_Fp: float
    mean_Fp2: float
    kernel_sq_residual: float
    dbar_truncation_bound: Optional[float]
    dbar_tail_bound: Optional[float]
    dbar_s_max: Optional[float]

    def table(self):
        names = ("sigma_bar", "d_bar", "tau_bar",
                 "mean_F", "mean_F2", "mean_Fp", "mean_Fp2")
        return (("parameter", "value"),
                [(n, getattr(self, n)) for n in names])


@dataclass(frozen=True)
class PriceReport(_ReportMixin):
    """Asymptotic and Monte Carlo prices side by side."""

    t: float
    q0: float
    q1: float
    q_eps: float
    implied_vol_inverted: Optional[float]
    implied_vol_asymptotic: Optional[float]
    mc_mean: Optional[float]
    mc_std_error: Optional[float]
    n_paths: Optional[int]
    seed: int

    def table(self):
        rows = [(n, getattr(self, n))
                for n in ("q0", "q1", "q_eps", "mc_mean", "mc_std_error")
                if getattr(self, n) is not None]
        return (("quantity", "value"), rows)


# -- commands ------------------------------------------------------------------


def cmd_params(cfg: RunConfig) -> ParamsReport:
    """Group parameters sigma_bar, d_bar, tau_bar and Gaussian moments."""
    vol = cfg.vol_fn()
    mean_f, mean_f2, mean_fp, mean_fp2 = moments(vol, cfg.hurst)
    ke = KernelEval(cfg.hurst)
    # honest normalization probe: adaptive quadrature across the kernel's
    # evaluation branches against the independent series tail
    head = ke.ksq_first_cell(1.0)
    mid, _ = integrate.quad(lambda u: float(ke.kernel_K(u)) ** 2, 1.0, 70.0,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
    kernel_residual = abs(head + mid + ke.ksq_tail(70.0) - 1.0)
    if mean_fp2 == 0.0:
        dbar, diag = 0.0, None
    else:
        dbar, diag = d_bar(vol, ke, CovarianceEval(cfg.hurst),
                           return_diagnostics=True)
    return ParamsReport(
        hurst=cfg.hurst,
        eps=cfg.eps,
        rho=cfg.rho,
        vol=repr(vol),
        sigma_bar=math.sqrt(mean_f2),
        d_bar=dbar,
        tau_bar=2.0 / mean_f2,
        mean_F=mean_f,
        mean_F2=mean_f2,
        mean_Fp=mean_fp,
        mean_Fp2=mean_fp2,
        kernel_sq_residual=kernel_residual,
        dbar_truncation_bound=None if diag is None else diag["truncation_bound"],
        dbar_tail_bound=None if diag is None else diag["tail_bound"],
        dbar_s_max=None if diag is None else diag["s_max"],
    )


def cmd_price(cfg: RunConfig) -> PriceReport:
    """Corrected price at time ``t`` next to a Monte Carlo estimate.

    The Monte Carlo leg uses the stationary model restarted with maturity
    ``T - t`` (time homogeneity); at ``t = T`` it is skipped and the price
    is the payoff at spot.
    """
    mp = cfg.model()
    gp = experiments.group_params(mp)
    payoff = cfg.payoff_fn()
    res = pricing.corrected_price(mp, gp, payoff, cfg.t)
    est = None
    if cfg.t < cfg.maturity_T:
        mp_mc = replace(mp, maturity_T=cfg.maturity_T - cfg.t)
        grid = cfg.grid(mp_mc)
        est = experiments.mc_price(
            mp_mc, grid, payoff,
            n_paths=cfg.n_paths or experiments.N_PATHS_PRICING,
            seed=cfg.seed,
        )
    return PriceReport(
        t=cfg.t,
        q0=res.q0,
        q1=res.q1,
        q_eps=res.q_eps,
        implied_vol_inverted=res.implied_vol_inverted,
        implied_vol_asymptotic=res.implied_vol_asymptotic,
        mc_mean=None if est is None else est.mean,
        mc_std_error=None if est is None else est.std_error,
        n_paths=None if est is None else est.n_paths,
        seed=cfg.seed,
    )


def cmd_simulate(cfg: RunConfig) -> list:
    """Simulate paths and dump one CSV per path plus a JSON sidecar."""
    if cfg.out_dir is None:
        raise ValueError(
            "[output] dir is required for the simulate command (--out DIR)"
        )
    mp = cfg.model()
    grid = cfg.grid(mp)
    n_paths = cfg.n_paths or 8
    bundle = concat_bundles(simulate_paths(mp, grid, n_paths, cfg.seed))
    return dump_paths(mp, grid, bundle, cfg.out_dir,
                      header_lines=(f"config = {config_hash(cfg)}",))


def cmd_study(cfg: RunConfig, which: str):
    """Run one named study and return its report object."""
    if which not in _STUDIES:
        raise ValueError(f"unknown study {which!r}; expected one of {_STUDIES}")
    if which == "termstructure":
        return experiments.termstructure_study(
            cfg.hurst, tau_mr=cfg.tau_mr, delta_sigma=cfg.delta_sigma
        )
    mp = cfg.model()
    if which == "smile":
        return experiments.smile_study(mp, cfg.eps_grid, cfg.strikes_rel)
    if which == "convergence":
        return experiments.convergence_study(
            mp, cfg.eps_grid, cfg.payoff_fn(),
            n_paths=cfg.n_paths or experiments.N_PATHS_PRICING,
            seed=cfg.seed,
            points_per_eps=cfg.points_per_eps,
            warmup_mult=cfg.warmup_mult,
        )
    n_mc = cfg.n_paths or experiments.N_PATHS_LEMMA
    if which == "vartheta":
        return experiments.vartheta_check(
            mp, cfg.grid(mp), n_paths=n_mc, seed=cfg.seed,
            t_interior=cfg.t_interior,
        )
    grid = dict(points_per_eps=cfg.points_per_eps, warmup_mult=cfg.warmup_mult)
    if which == "phi":
        return experiments.phi_variance_check(
            mp, cfg.eps_grid, n_mc=n_mc, seed=cfg.seed, **grid
        )
    return experiments.kappa_check(
        mp, cfg.eps_grid, n_mc=n_mc, seed=cfg.seed, **grid
    )


# -- emission ------------------------------------------------------------------


def _emit(report, name: str, cfg: RunConfig) -> list:
    """Write the report in the configured formats; return written paths."""
    if cfg.out_dir is None:
        return []
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h = config_hash(cfg)
    comment = f"# config = {h}\n# seed = {cfg.seed}\n"
    written = []
    for fmt in cfg.formats:
        path = out / f"{name}.{fmt}"
        if fmt == "csv":
            path.write_text(comment + report.to_csv())
        elif fmt == "txt":
            path.write_text(comment + report.to_text())
        else:
            payload = json.loads(report.to_json())
            payload["config_hash"] = h
            payload.setdefault("seed", cfg.seed)
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written.append(str(path))
    sidecar = out / "config.json"
    sidecar.write_text(json.dumps(
        {"config_hash": h, "seed": cfg.seed, "config": cfg.to_dict()},
        sort_keys=True, indent=2,
    ) + "\n")
    written.append(str(sidecar))
    return written


# -- argument parsing ------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="config file (INI sections or JSON)")
    sub.add_argument("--seed", type=int, metavar="N",
                     help="override study.seed")
    sub.add_argument("--paths", type=int, metavar="N",
                     help="override study.n_paths")
    sub.add_argument("--eps", type=float, metavar="X",
                     help="override model.eps")
    sub.add_argument("--hurst", type=float, metavar="X",
                     help="override model.hurst")
    sub.add_argument("--rho", type=float, metavar="X",
                     help="override model.rho")
    sub.add_argument("--out", metavar="DIR",
                     help="override output.dir (enables file emission)")
    sub.add_argument("--format", metavar="LIST",
                     help="override output.formats, e.g. csv,json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvol",
        description=(
            "Fast-mean-reverting rough volatility: group parameters, "
            "corrected prices, path simulation, and verification studies."
        ),
        epilog=(
            "Defaults: sigmoid volatility (0.05, 0.45, 2.5), H=0.3, "
            "eps=0.05, rho=-0.5, call payoff at strike 1.0, maturity 1.0, "
            "eps grid (0.1, 0.05, 0.025, 0.0125), formats csv,json,txt.  "
            "ROUGHVOL_THREADS caps the linear-algebra thread pools."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("params", "print group market parameters and moments"),
        ("price", "corrected price next to a Monte Carlo estimate"),
        ("simulate", "dump simulated paths as CSV files"),
    ):
        _add_common(commands.add_parser(name, help=doc))
    study = commands.add_parser("study", help="run a named verification study")
    study.add_argument("which", choices=_STUDIES)
    _add_common(study)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    over = {}
    if args.seed is not None:
        over[("study", "seed")] = args.seed
    if args.paths is not None:
        over[("study", "n_paths")] = args.paths
    if args.eps is not None:
        over[("model", "eps")] = args.eps
    if args.hurst is not None:
        over[("model", "hurst")] = args.hurst
    if args.rho is not None:
        over[("model", "rho")] = args.rho
    if args.out is not None:
        over[("output", "dir")] = args.out
    if args.format is not None:
        over[("output", "formats")] = args.format
    return over


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw_threads = os.environ.get("ROUGHVOL_THREADS")
        if raw_threads is not None:
            if not raw_threads.isdigit() or int(raw_threads) < 1:
                raise ValueError(
                    f"ROUGHVOL_THREADS must be a positive integer; "
                    f"got {raw_threads!r}"
                )
        cfg = load_config(args.config, _overrides_from_args(args))
        if args.command == "simulate":
            files = cmd_simulate(cfg)
            print(f"wrote {len(files)} files to {cfg.out_dir}")
            return 0
        if args.command == "params":
            report = cmd_params(cfg)
            name = "params"
        elif args.command == "price":
            report = cmd_price(cfg)
            name = "price"
        else:
            report = cmd_study(cfg, args.which)
            name = args.which
        sys.stdout.write(report.to_text())
        files = _emit(report, name, cfg)
        for path in files:
            print(f"wrote {path}")
        return 0
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
