"""Command-line front end: config parsing, study orchestration, and emission.

A run is described by a declarative config file (INI sections with
JSON-typed values, or an equivalent JSON document) holding the model,
grid, payoff, study, and output settings; command-line flags override
individual values.  Every emitted file embeds the config hash and seed in
a header comment, CSV files carry column names on the first line and 17
significant digits, and each run with an output directory writes a
``config.json`` sidecar that re-parses to the identical configuration.

Each config key is declared once, on the :class:`RunConfig` field holding
it; parsing, serialization, the override flags and the key listing of
``roughvol --help`` are all read off those declarations.

Exit codes: 0 on success, 2 on configuration errors, and 3 on numerical
failures (quadrature non-convergence or floating-point breakdown).

The environment variable ``ROUGHVOL_THREADS`` caps the linear-algebra
thread pools; the studies themselves are sequential and deterministic.  The
cap is applied by ``import roughvol``, before NumPy loads, so it has no
effect in a process that imported NumPy first.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from scipy import integrate

from . import _thread_count, experiments, pricing
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

# paths a command simulates when [study] n_paths is null
_DEFAULT_PATHS = dict(
    price=experiments.N_PATHS_PRICING, convergence=experiments.N_PATHS_PRICING,
    vartheta=experiments.N_PATHS_LEMMA, phi=experiments.N_PATHS_LEMMA,
    kappa=experiments.N_PATHS_LEMMA, simulate=8,
)


# -- config schema ---------------------------------------------------------------
#
# A value kind is a function (label, value) -> attribute value that raises
# ValueError naming ``label`` ("[section] key") when the value is ill-typed.


def _number(label: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number; got {value!r}")
    return float(value)


def _integer(label: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer; got {value!r}")
    return value


def _text(label: str, value) -> str:
    return str(value)


def _numbers(label: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{label} must be a list of numbers")
    return tuple(_number(label, v) for v in value)


def _formats(label: str, value) -> tuple:
    if isinstance(value, str):
        value = [f.strip() for f in value.split(",") if f.strip()]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{label} must be a list or a comma-separated string")
    bad = [f for f in value if f not in _FORMATS]
    if bad:
        raise ValueError(
            f"{label} {bad} not supported; expected a subset of {list(_FORMATS)}"
        )
    return tuple(f for f in _FORMATS if f in value)


def _plain(value):  # the JSON form of an attribute value
    return list(value) if isinstance(value, tuple) else value


def _help_line(key: str, value, note: str = "") -> str:
    line = f"  {key} = {json.dumps(_plain(value))}"
    return f"{line:<40} # {note}" if note else line


@dataclass(frozen=True)
class _Key:
    """One config key held in one :class:`RunConfig` attribute, and the
    command-line flag that overrides it, if any.  It accepts null when its
    default is None.  ``_SCHEMA`` fills in the last three fields."""

    section: str
    kind: Callable
    note: str = ""
    flag: str = ""
    key: str = ""
    attr: str = ""
    default: object = None

    def keys(self) -> tuple:
        return (self.key,)

    def load(self, entries: dict) -> dict:
        value = entries.get(self.key, self.default)
        if value is None and self.default is None:
            return {self.attr: None}
        return {self.attr: self.kind(f"[{self.section}] {self.key}", value)}

    def dump(self, cfg: "RunConfig") -> dict:
        return {self.key: _plain(getattr(cfg, self.attr))}

    def help(self) -> list:
        return [_help_line(self.key, self.default, self.note)]


@dataclass(frozen=True)
class _Family:
    """A type key that selects a builder and its number-valued keys.

    ``variants`` maps each type, the default first, to its builder and its
    parameter keys with their defaults.  The declaring attribute holds the
    type; attribute ``params`` holds the parameter tuple.
    """

    section: str
    key: str
    params: str
    variants: dict
    attr: str = ""
    default: str = ""
    flag = ""  # no override flag

    def type_field(self):
        return field(default=next(iter(self.variants)),
                     metadata={"config": self})

    def params_default(self) -> tuple:
        return tuple(next(iter(self.variants.values()))[1].values())

    def keys(self) -> tuple:
        return (self.key, *(k for _, p in self.variants.values() for k in p))

    def load(self, entries: dict) -> dict:
        name = entries.get(self.key, self.default)
        if not isinstance(name, str) or name not in self.variants:
            raise ValueError(
                f"[{self.section}] {self.key} must be one of "
                f"{sorted(self.variants)}; got {name!r}"
            )
        chosen = self.variants[name][1]
        extra = [k for k in self.keys()[1:] if k in entries and k not in chosen]
        if extra:
            raise ValueError(
                f"key(s) {sorted(extra)} in section [{self.section}] do not "
                f"apply to {self.key} {name!r} (expected {list(chosen)})"
            )
        params = tuple(_number(f"[{self.section}] {k}", entries[k])
                       if k in entries else v for k, v in chosen.items())
        return {self.attr: name, self.params: params}

    def dump(self, cfg: "RunConfig") -> dict:
        name = getattr(cfg, self.attr)
        return {self.key: name,
                **dict(zip(self.variants[name][1], getattr(cfg, self.params)))}

    def build(self, name: str, params: tuple):
        return self.variants[name][0](*params)

    def help(self) -> list:
        return [_help_line(self.key, self.default)] + [
            _help_line(k, v, f"{self.key} {json.dumps(name)}")
            for name, (_, params) in self.variants.items()
            for k, v in params.items()
        ]


def _key(section: str, kind: Callable, default, *, key: str = "",
         note: str = "", flag: str = ""):
    return field(default=default,
                 metadata={"config": _Key(section, kind, note, flag, key)})


_VOL = _Family("model", "vol_type", "vol_params", {
    "sigmoid": (BoundedSigmoid, {"vol_sigma_min": 0.05, "vol_sigma_max": 0.45,
                                 "vol_slope": 2.5}),
    "constant": (ConstantVol, {"vol_value": 0.3}),
})
_PAYOFF = _Family("payoff", "type", "payoff_params", {
    "call": (pricing.Call, {"strike": 1.0}),
    "smooth_ramp": (pricing.smooth_ramp,
                    {"center": 1.0, "width": 0.2, "height": 1.0}),
})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (model, grid, payoff, study, output).

    Constructed through :func:`load_config` / :meth:`from_dict`, which
    reject unknown sections and keys and re-validate every module-level
    invariant (model parameters, grid constraints, payoff construction) at
    load time.  Each field declared by ``_key`` or ``_Family.type_field``
    is a config input, listed in this order by :meth:`to_dict` and ``--help``.
    """

    hurst: float = _key("model", _number, 0.3, flag="--hurst")
    eps: float = _key("model", _number, 0.05, flag="--eps")
    rho: float = _key("model", _number, -0.5, flag="--rho")
    x0: float = _key("model", _number, 1.0)
    maturity_T: float = _key("model", _number, 1.0)
    vol_type: str = _VOL.type_field()
    vol_params: tuple = _VOL.params_default()
    points_per_eps: int = _key("grid", _integer, 8)
    warmup_mult: float = _key("grid", _number, 30.0)
    scheme: str = _key("grid", _text, "TruncatedMovingAverage")
    payoff_type: str = _PAYOFF.type_field()
    payoff_params: tuple = _PAYOFF.params_default()
    eps_grid: tuple = _key("study", _numbers, (0.1, 0.05, 0.025, 0.0125))
    n_paths: Optional[int] = _key(
        "study", _integer, None, flag="--paths",
        note="null: " + ", ".join(f"{cmd} {n:,}"
                                  for cmd, n in _DEFAULT_PATHS.items()),
    )
    seed: int = _key("study", _integer, 0, flag="--seed")
    t: float = _key("study", _number, 0.0)
    t_interior: Optional[float] = _key(
        "study", _number, None, note="null: vartheta checks t = 0 only")
    strikes_rel: tuple = _key("study", _numbers, (0.94, 0.97, 1.0, 1.03, 1.06))
    tau_mr: float = _key("study", _number, 1.0)
    delta_sigma: float = _key("study", _number, 0.1)
    out_dir: Optional[str] = _key("output", _text, None, key="dir", flag="--out",
                                  note="null: print only, write no files")
    formats: tuple = _key("output", _formats, _FORMATS, flag="--format")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config root must be a mapping; got {type(data).__name__}")
        unknown = set(data) - set(_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown config section(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(_SECTIONS)}"
            )
        for section, entries in data.items():
            if not isinstance(entries, dict):
                raise ValueError(f"section [{section}] must be a mapping")
            bad = set(entries) - set(_SECTIONS[section])
            if bad:
                raise ValueError(
                    f"unknown key(s) {sorted(bad)} in section [{section}]; "
                    f"expected a subset of {sorted(_SECTIONS[section])}"
                )
        kw = {}
        for spec in _SCHEMA:
            kw.update(spec.load(data.get(spec.section, {})))
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
        return _VOL.build(self.vol_type, self.vol_params)

    def model(self) -> ModelParams:
        return ModelParams(hurst=self.hurst, eps=self.eps, rho=self.rho,
                           vol_fn=self.vol_fn(), x0=self.x0,
                           maturity_T=self.maturity_T)

    def grid(self, mp: Optional[ModelParams] = None) -> SimGrid:
        return SimGrid.for_model(mp or self.model(), self.points_per_eps,
                                 self.warmup_mult, scheme=self.scheme)

    def payoff_fn(self):
        return _PAYOFF.build(self.payoff_type, self.payoff_params)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {}
        for spec in _SCHEMA:
            data.setdefault(spec.section, {}).update(spec.dump(self))
        return data


# every config input in declaration order, and the keys of each section
_SCHEMA = tuple(
    replace(spec, key=spec.key or f.name, attr=f.name, default=f.default)
    for f in fields(RunConfig) if (spec := f.metadata.get("config"))
)
_SECTIONS = {
    section: tuple(k for spec in _SCHEMA if spec.section == section
                   for k in spec.keys())
    for section in dict.fromkeys(spec.section for spec in _SCHEMA)
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
            n_paths=cfg.n_paths or _DEFAULT_PATHS["price"],
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
    n_paths = cfg.n_paths or _DEFAULT_PATHS["simulate"]
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
    n_mc = cfg.n_paths or _DEFAULT_PATHS[which]
    if which == "vartheta":
        return experiments.vartheta_check(
            mp, cfg.grid(mp), n_paths=n_mc, seed=cfg.seed,
            t_interior=cfg.t_interior,
        )
    grid = dict(points_per_eps=cfg.points_per_eps, warmup_mult=cfg.warmup_mult)
    if which == "convergence":
        return experiments.convergence_study(
            mp, cfg.eps_grid, cfg.payoff_fn(), n_paths=n_mc, seed=cfg.seed,
            **grid
        )
    check = (experiments.phi_variance_check if which == "phi"
             else experiments.kappa_check)
    return check(mp, cfg.eps_grid, n_mc=n_mc, seed=cfg.seed, **grid)


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

# argparse type and metavar of a flag, by the kind of the key it sets
_FLAG_TYPES = {_integer: (int, "N"), _number: (float, "X")}


def _epilog() -> str:
    lines = ["config keys and defaults (INI syntax, JSON-typed values):"]
    for section in _SECTIONS:
        lines.append(f"  [{section}]")
        lines += [line for spec in _SCHEMA if spec.section == section
                  for line in spec.help()]
    lines.append("ROUGHVOL_THREADS=N caps the linear-algebra thread pools.")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughvol",
        description=(
            "Fast-mean-reverting rough volatility: group parameters, "
            "corrected prices, path simulation, and verification studies."
        ),
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("params", "print group market parameters and moments"),
        ("price", "corrected price next to a Monte Carlo estimate"),
        ("simulate", "dump simulated paths as CSV files"),
        ("study", "run a named verification study"),
    ):
        sub = commands.add_parser(name, help=doc)
        if name == "study":
            sub.add_argument("which", choices=_STUDIES)
        sub.add_argument("--config", metavar="PATH",
                         help="config file (INI sections or JSON)")
        for spec in _SCHEMA:
            if spec.flag:
                kind, metavar = _FLAG_TYPES.get(spec.kind, (str, spec.key.upper()))
                sub.add_argument(spec.flag, dest=spec.attr, type=kind,
                                 metavar=metavar,
                                 help=f"override [{spec.section}] {spec.key}")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    values = vars(args)
    return {(spec.section, spec.key): values[spec.attr] for spec in _SCHEMA
            if spec.flag and values[spec.attr] is not None}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw_threads = os.environ.get("ROUGHVOL_THREADS")
        if raw_threads is not None and _thread_count(raw_threads) is None:
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
            report, name = cmd_params(cfg), "params"
        elif args.command == "price":
            report, name = cmd_price(cfg), "price"
        else:
            report, name = cmd_study(cfg, args.which), args.which
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
