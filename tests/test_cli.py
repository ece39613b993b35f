"""Tests for the command-line front end: config handling, commands, emission."""

import json
import os
from pathlib import Path

import pytest

import roughvol
from roughvol import cli
from roughvol.cli import RunConfig, cmd_params, cmd_price, config_hash, load_config

INI_TEXT = """\
[model]
hurst = 0.2
eps = 0.1
rho = -0.3
maturity_T = 2.0
vol_type = "constant"
vol_value = 0.25

[grid]
points_per_eps = 8
warmup_mult = 24.0

[payoff]
type = "call"
strike = 1.05

[study]
seed = 11
n_paths = 2000
eps_grid = [0.2, 0.1, 0.05, 0.025]

[output]
formats = "csv,txt"
"""


@pytest.fixture()
def ini_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(INI_TEXT)
    return str(path)


# -- config loading --------------------------------------------------------------


def test_ini_config_loads_all_sections(ini_path):
    cfg = load_config(ini_path)
    assert cfg.hurst == 0.2
    assert cfg.eps == 0.1
    assert cfg.rho == -0.3
    assert cfg.maturity_T == 2.0
    assert cfg.vol_type == "constant"
    assert cfg.vol_params == (0.25,)
    assert cfg.points_per_eps == 8
    assert cfg.warmup_mult == 24.0
    assert cfg.payoff_type == "call"
    assert cfg.payoff_params == (1.05,)
    assert cfg.seed == 11
    assert cfg.n_paths == 2000
    assert cfg.eps_grid == (0.2, 0.1, 0.05, 0.025)
    assert cfg.formats == ("csv", "txt")


def test_config_round_trip_ini_json_sidecar(ini_path, tmp_path):
    cfg = load_config(ini_path)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg

    plain = tmp_path / "run.json"
    plain.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(plain)) == cfg

    sidecar = tmp_path / "config.json"
    sidecar.write_text(json.dumps(
        {"config_hash": config_hash(cfg), "seed": cfg.seed,
         "config": cfg.to_dict()}
    ))
    assert load_config(str(sidecar)) == cfg


def test_config_hash_tracks_content(ini_path):
    cfg = load_config(ini_path)
    assert config_hash(cfg) == config_hash(load_config(ini_path))
    bumped = load_config(ini_path, {("study", "seed"): 12})
    assert config_hash(bumped) != config_hash(cfg)


def test_config_hashes_pinned():
    # the hash keys every emitted artifact: a change here re-keys them all
    assert config_hash(RunConfig()) == "5b1bc131fc32"
    example = Path(__file__).resolve().parents[1] / "demos" / "example_config.ini"
    assert config_hash(load_config(str(example))) == "8fcf9a0f490c"


# one entry per config key, at a non-default value:
# (section, entries, attribute, value the attribute reads back)
EVERY_KEY = [
    ("model", {"hurst": 0.2}, "hurst", 0.2),
    ("model", {"eps": 0.1}, "eps", 0.1),
    ("model", {"rho": -0.3}, "rho", -0.3),
    ("model", {"x0": 1.2}, "x0", 1.2),
    ("model", {"maturity_T": 2.0}, "maturity_T", 2.0),
    ("model", {"vol_type": "constant"}, "vol_params", (0.3,)),
    ("model", {"vol_sigma_min": 0.1}, "vol_params", (0.1, 0.45, 2.5)),
    ("model", {"vol_sigma_max": 0.6}, "vol_params", (0.05, 0.6, 2.5)),
    ("model", {"vol_slope": 3.0}, "vol_params", (0.05, 0.45, 3.0)),
    ("model", {"vol_type": "constant", "vol_value": 0.25}, "vol_params", (0.25,)),
    ("grid", {"points_per_eps": 16}, "points_per_eps", 16),
    ("grid", {"warmup_mult": 24.0}, "warmup_mult", 24.0),
    ("grid", {"scheme": "CholeskyExact"}, "scheme", "CholeskyExact"),
    ("payoff", {"type": "smooth_ramp"}, "payoff_params", (1.0, 0.2, 1.0)),
    ("payoff", {"strike": 1.05}, "payoff_params", (1.05,)),
    ("payoff", {"type": "smooth_ramp", "center": 1.1}, "payoff_params",
     (1.1, 0.2, 1.0)),
    ("payoff", {"type": "smooth_ramp", "width": 0.1}, "payoff_params",
     (1.0, 0.1, 1.0)),
    ("payoff", {"type": "smooth_ramp", "height": 2.0}, "payoff_params",
     (1.0, 0.2, 2.0)),
    ("study", {"eps_grid": [0.2, 0.1]}, "eps_grid", (0.2, 0.1)),
    ("study", {"n_paths": 500}, "n_paths", 500),
    ("study", {"seed": 11}, "seed", 11),
    ("study", {"t": 0.5}, "t", 0.5),
    ("study", {"t_interior": 0.5}, "t_interior", 0.5),
    ("study", {"strikes_rel": [0.9, 1.1]}, "strikes_rel", (0.9, 1.1)),
    ("study", {"tau_mr": 2.0}, "tau_mr", 2.0),
    ("study", {"delta_sigma": 0.2}, "delta_sigma", 0.2),
    ("output", {"dir": "results"}, "out_dir", "results"),
    ("output", {"formats": ["json"]}, "formats", ("json",)),
]
EVERY_KEY_NAMES = {(section, key) for section, entries, _, _ in EVERY_KEY
                   for key in entries}


def test_every_key_has_a_round_trip_case():
    assert len(EVERY_KEY_NAMES) == 28
    assert EVERY_KEY_NAMES == {(section, key)
                               for section, keys in cli._SECTIONS.items()
                               for key in keys}


@pytest.mark.parametrize("section, entries, attr, value", EVERY_KEY,
                         ids=[",".join(e) for _, e, _, _ in EVERY_KEY])
def test_every_key_round_trips(tmp_path, section, entries, attr, value):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{section}]\n" + "".join(
        f"{key} = {json.dumps(v)}\n" for key, v in entries.items()))
    plain = tmp_path / "run.json"
    plain.write_text(json.dumps({section: entries}))
    cfg = load_config(str(ini))
    assert load_config(str(plain)) == cfg
    assert getattr(cfg, attr) == value
    assert cfg != RunConfig()

    dumped = cfg.to_dict()
    for key, v in entries.items():
        assert dumped[section][key] == v
    assert RunConfig.from_dict(dumped) == cfg
    again = tmp_path / "again.json"
    again.write_text(json.dumps(dumped))
    assert load_config(str(again)) == cfg

    if section == "output":
        assert config_hash(cfg) == config_hash(RunConfig())
    else:
        assert config_hash(cfg) != config_hash(RunConfig())


def test_help_lists_every_key_and_its_default(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for _, key in EVERY_KEY_NAMES:
        assert f"  {key} = " in text
    for line in ("x0 = 1.0", "points_per_eps = 8", "warmup_mult = 30.0",
                 'scheme = "TruncatedMovingAverage"', "seed = 0", "t = 0.0",
                 "strikes_rel = [0.94, 0.97, 1.0, 1.03, 1.06]", "tau_mr = 1.0",
                 "delta_sigma = 0.1", "vol_value = 0.3", "center = 1.0",
                 "width = 0.2", "height = 1.0"):
        assert f"  {line}" in text
    for budget in ("price 200,000", "convergence 200,000", "vartheta 20,000",
                   "phi 20,000", "kappa 20,000", "simulate 8"):
        assert budget in text
    assert "ROUGHVOL_THREADS" in text


def test_flag_overrides_take_precedence(ini_path):
    cfg = load_config(ini_path, {
        ("model", "hurst"): 0.35,
        ("study", "seed"): 99,
        ("study", "n_paths"): 50,
        ("output", "formats"): "json",
    })
    assert cfg.hurst == 0.35
    assert cfg.seed == 99
    assert cfg.n_paths == 50
    assert cfg.formats == ("json",)
    assert cfg.maturity_T == 2.0  # untouched file values survive


def test_defaults_without_config_file():
    cfg = load_config(None)
    assert cfg == RunConfig()
    assert cfg.vol_type == "sigmoid"
    assert cfg.eps_grid == (0.1, 0.05, 0.025, 0.0125)
    assert cfg.formats == ("csv", "json", "txt")


@pytest.mark.parametrize("data, fragment", [
    ({"bogus": {}}, "bogus"),
    ({"model": {"spam": 1.0}}, "spam"),
    ({"model": {"vol_type": "sigmoid", "vol_value": 0.3}}, "vol_value"),
    ({"model": {"vol_type": "exponential"}}, "vol_type"),
    ({"payoff": {"type": "call", "width": 0.1}}, "width"),
    ({"payoff": {"type": "digital"}}, "type"),
    ({"output": {"formats": ["csv", "xml"]}}, "xml"),
    ({"model": {"hurst": "high"}}, "hurst"),
    ({"study": {"n_paths": 2.5}}, "n_paths"),
    ({"model": {"hurst": None}}, "hurst"),
    ({"grid": {"warmup_mult": True}}, "warmup_mult"),
    ({"study": {"strikes_rel": 1.0}}, "strikes_rel"),
    ({"study": {"t_interior": "x"}}, "t_interior"),
    ({"output": {"formats": 5}}, "formats"),
    ({"model": {"vol_type": ["sigmoid"]}}, "vol_type"),
])
def test_unknown_or_ill_typed_keys_rejected(data, fragment):
    with pytest.raises(ValueError, match=fragment):
        RunConfig.from_dict(data)


@pytest.mark.parametrize("data", [
    {"model": {"rho": 2.0}},
    {"model": {"hurst": 0.8}},
    {"model": {"eps": -0.1}},
    {"grid": {"points_per_eps": 2}},
    {"grid": {"scheme": "Exact"}},
    {"study": {"n_paths": 0}},
    {"study": {"t": 5.0}},
    {"study": {"eps_grid": [0.1, -0.05]}},
])
def test_module_invariants_revalidated_at_load(data):
    with pytest.raises(ValueError):
        RunConfig.from_dict(data)


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["params", "--config", str(tmp_path / "absent.ini")]) == 2


def test_malformed_json_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["params", "--config", str(path)]) == 2


# -- params command --------------------------------------------------------------


def test_params_constant_vol_closed_forms():
    cfg = RunConfig.from_dict(
        {"model": {"vol_type": "constant", "vol_value": 0.2}}
    )
    rep = cmd_params(cfg)
    assert rep.sigma_bar == pytest.approx(0.2, rel=1e-14)
    assert rep.d_bar == 0.0
    assert rep.tau_bar == pytest.approx(50.0, rel=1e-14)
    assert rep.mean_F == pytest.approx(0.2, rel=1e-14)
    assert rep.mean_F2 == pytest.approx(0.04, rel=1e-14)
    assert rep.mean_Fp == 0.0
    assert rep.dbar_truncation_bound is None
    assert rep.kernel_sq_residual < 1e-9


def test_params_sigmoid_reports_quadrature_diagnostics():
    rep = cmd_params(RunConfig())
    assert rep.d_bar == pytest.approx(4.329011559885e-04, rel=1e-9)
    assert rep.sigma_bar == pytest.approx(0.27931717, rel=1e-7)
    assert rep.tau_bar == pytest.approx(2.0 / rep.mean_F2, rel=1e-15)
    assert 0.0 < rep.dbar_truncation_bound < 1e-8
    assert rep.dbar_tail_bound < 1e-8
    assert rep.dbar_s_max == 2000.0
    text = rep.to_text()
    assert "sigma_bar" in text and "d_bar" in text and "tau_bar" in text


# -- price command ---------------------------------------------------------------


def test_price_rho_zero_correction_vanishes():
    cfg = RunConfig.from_dict(
        {"model": {"rho": 0.0, "eps": 0.1},
         "study": {"n_paths": 2000, "seed": 3}}
    )
    rep = cmd_price(cfg)
    assert rep.q_eps == rep.q0
    assert rep.q1 != 0.0  # the coefficient itself is nonzero; rho kills it
    assert rep.mc_mean is not None
    assert abs(rep.mc_mean - rep.q_eps) < 4.0 * rep.mc_std_error + 5e-3


def test_price_at_maturity_is_payoff_at_spot():
    cfg = RunConfig.from_dict(
        {"model": {"vol_type": "constant", "vol_value": 0.2},
         "payoff": {"type": "call", "strike": 0.9},
         "study": {"t": 1.0}}
    )
    rep = cmd_price(cfg)
    assert rep.q_eps == pytest.approx(0.1, abs=1e-15)
    assert rep.q0 == rep.q_eps
    assert rep.mc_mean is None and rep.n_paths is None


def test_price_mc_tracks_corrected_price():
    cfg = RunConfig.from_dict(
        {"model": {"eps": 0.1}, "study": {"n_paths": 4000, "seed": 3}}
    )
    rep = cmd_price(cfg)
    # 3 SE plus an o(sqrt(eps)) allowance for the higher-order remainder
    assert abs(rep.mc_mean - rep.q_eps) < 3.0 * rep.mc_std_error + 7e-3
    assert rep.implied_vol_inverted == pytest.approx(
        rep.implied_vol_asymptotic, abs=5e-4
    )


# -- simulate command ------------------------------------------------------------


def test_simulate_writes_paths_with_hash_header(tmp_path):
    out = tmp_path / "paths"
    code = cli.main([
        "simulate", "--paths", "3", "--eps", "0.1", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    files = sorted(os.listdir(out))
    assert files == ["path_00000.csv", "path_00001.csv", "path_00002.csv",
                     "paths_meta.json"]
    lines = (out / "path_00000.csv").read_text().splitlines()
    cfg = load_config(None, {("model", "eps"): 0.1, ("study", "seed"): 5,
                             ("study", "n_paths"): 3,
                             ("output", "dir"): str(out)})
    assert lines[0] == f"# config = {config_hash(cfg)}"
    assert lines[1] == "# seed = 5"
    assert lines[2] == "time,Z,sigma,X"


def test_simulate_without_out_dir_is_config_error(capsys):
    assert cli.main(["simulate", "--paths", "2"]) == 2
    assert "dir" in capsys.readouterr().err


def test_vartheta_t_interior_at_an_end_node_is_config_error(tmp_path, capsys):
    path = tmp_path / "end.json"
    path.write_text(json.dumps({"model": {"eps": 0.04, "maturity_T": 1.0},
                                "grid": {"points_per_eps": 4},
                                "study": {"t_interior": 0.996}}))
    assert cli.main(["study", "vartheta", "--config", str(path),
                     "--paths", "200"]) == 2
    assert "interior node" in capsys.readouterr().err


# -- study command and emission ----------------------------------------------------


def test_study_termstructure_emits_all_formats(tmp_path):
    out = tmp_path / "ts"
    code = cli.main(["study", "termstructure", "--out", str(out)])
    assert code == 0
    for ext in ("csv", "json", "txt"):
        assert (out / f"termstructure.{ext}").exists()

    cfg = load_config(None, {("output", "dir"): str(out)})
    h = config_hash(cfg)

    csv_lines = (out / "termstructure.csv").read_text().splitlines()
    assert csv_lines[0] == f"# config = {h}"
    assert csv_lines[1] == "# seed = 0"
    assert csv_lines[2] == "tau,amplitude_factor"
    assert len(csv_lines) == 3 + 17

    txt = (out / "termstructure.txt").read_text()
    assert txt.startswith(f"# config = {h}\n# seed = 0\n")

    payload = json.loads((out / "termstructure.json").read_text())
    assert payload["report"] == "TermStructureReport"
    assert payload["config_hash"] == h
    assert payload["seed"] == 0


def test_study_sidecar_reparses_to_identical_config(tmp_path, ini_path):
    out = tmp_path / "run"
    code = cli.main(["study", "termstructure", "--config", ini_path,
                     "--out", str(out), "--format", "csv"])
    assert code == 0
    cfg = load_config(str(out / "config.json"))
    direct = load_config(ini_path, {("output", "dir"): str(out),
                                    ("output", "formats"): "csv"})
    assert cfg == direct
    sidecar = json.loads((out / "config.json").read_text())
    assert sidecar["config_hash"] == config_hash(direct)
    assert sidecar["seed"] == direct.seed


def test_identical_config_gives_byte_identical_csv(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["study", "smile", "--out", str(out),
                         "--format", "csv", "--eps", "0.05"]) == 0
        outs.append((out / "smile.csv").read_bytes())
    assert outs[0] == outs[1]


def test_study_smile_csv_headers(tmp_path):
    out = tmp_path / "smile"
    assert cli.main(["study", "smile", "--out", str(out),
                     "--format", "csv"]) == 0
    lines = (out / "smile.csv").read_text().splitlines()
    assert lines[0].startswith("# config = ")
    assert lines[2].split(",")[0] == "eps"


def test_study_unknown_name_rejected_by_parser():
    with pytest.raises(SystemExit):
        cli.main(["study", "sobolev"])


def test_study_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(cfg, which):
        raise FloatingPointError("quadrature diverged")

    monkeypatch.setattr(cli, "cmd_study", boom)
    assert cli.main(["study", "termstructure"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_params_stdout_contains_group_parameters(capsys):
    code = cli.main(["params", "--hurst", "0.25"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "sigma_bar" in captured
    assert "tau_bar" in captured
    assert "d_bar" in captured


# -- environment handling -----------------------------------------------------------


def test_thread_cap_propagates(monkeypatch):
    monkeypatch.setenv("ROUGHVOL_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    roughvol._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_cap_ignores_unset(monkeypatch):
    monkeypatch.delenv("ROUGHVOL_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    roughvol._cap_threads()
    assert "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("raw", ["+2", " 2", "2 ", "0", ""])
def test_thread_env_rejected_by_main_sets_no_cap(monkeypatch, capsys, raw):
    # one parse rule: a value main() rejects never reaches the thread caps
    monkeypatch.setenv("ROUGHVOL_THREADS", raw)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    roughvol._cap_threads()
    assert "OMP_NUM_THREADS" not in os.environ
    assert cli.main(["study", "termstructure"]) == 2
    assert "ROUGHVOL_THREADS" in capsys.readouterr().err


def test_invalid_thread_env_is_config_error(monkeypatch, capsys):
    monkeypatch.setenv("ROUGHVOL_THREADS", "zero")
    assert cli.main(["study", "termstructure"]) == 2
    assert "ROUGHVOL_THREADS" in capsys.readouterr().err


def test_study_phi_uses_grid_section(tmp_path):
    # [grid] points_per_eps reaches the study: a finer grid changes the
    # report body, not only the config hash in its header
    bodies = []
    for ppe in (4, 8):
        cfg_path = tmp_path / f"phi{ppe}.json"
        cfg_path.write_text(json.dumps({
            "grid": {"points_per_eps": ppe},
            "study": {"n_paths": 64, "seed": 0, "eps_grid": [0.4, 0.2, 0.1, 0.05]},
        }))
        out = tmp_path / f"out{ppe}"
        assert cli.main(["study", "phi", "--config", str(cfg_path),
                         "--out", str(out), "--format", "csv"]) == 0
        lines = (out / "phi.csv").read_text().splitlines()
        bodies.append([line for line in lines if not line.startswith("#")])
    assert bodies[0][0] == bodies[1][0] == "eps,mean_sq,mean_sq_se,mean,mean_se"
    assert len(bodies[0]) == len(bodies[1]) == 5
    assert bodies[0] != bodies[1]


def test_study_convergence_uses_points_per_eps(tmp_path):
    # [grid] points_per_eps reaches the convergence study as given, with no
    # cap at 8: a finer grid changes the report body
    bodies = []
    for ppe in (8, 16):
        cfg_path = tmp_path / f"conv{ppe}.json"
        cfg_path.write_text(json.dumps({
            "grid": {"points_per_eps": ppe},
            "payoff": {"type": "smooth_ramp", "center": 1.0, "width": 0.1},
            "study": {"n_paths": 64, "seed": 1},
        }))
        out = tmp_path / f"out{ppe}"
        assert cli.main(["study", "convergence", "--config", str(cfg_path),
                         "--out", str(out), "--format", "csv"]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        bodies.append([line for line in lines if not line.startswith("#")])
    assert bodies[0][0] == bodies[1][0]
    assert len(bodies[0]) == len(bodies[1]) == 5
    assert bodies[0] != bodies[1]
