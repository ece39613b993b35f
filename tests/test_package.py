"""Tests for what ``import roughvol`` does: the thread cap, the modules it
loads, and the package namespace."""

import json
import os
import subprocess
import sys

import pytest

import roughvol
from roughvol import experiments, gaussfunc, kernel, pricing, simulate

_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
         "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the package namespace before it was read off the modules' lists, less the
# names deleted since
_EXPORTED_BEFORE = (
    "__version__", "KernelEval", "CovarianceEval", "sigma_ou",
    "gamma_reflect", "psi_of_C", "cov_sigma", "cov_RL", "VolFunction",
    "BoundedSigmoid", "ConstantVol", "ExponentialVol", "TabulatedVol",
    "GroupParams", "moments", "sigma_bar", "d_bar", "d_bar_markov",
    "group_params", "Call", "SmoothCustom", "smooth_ramp", "PriceResult",
    "bs_price", "bs_operator_greeks", "corrected_price",
    "implied_vol_invert", "implied_vol_asymptotic",
    "term_structure_factor", "zeta_exponent", "ModelParams", "SimGrid",
    "PathBundle", "ExactGaussianReport", "simulate_paths", "exact_gaussian_check", "concat_bundles", "dump_paths", "MCEstimate",
    "mc_price", "convergence_study", "vartheta_check", "phi_variance_check",
    "kappa_check", "smile_study", "termstructure_study",
)

_MODULES = (kernel, gaussfunc, pricing, simulate, experiments)


def _run(script: str, **env_updates) -> str:
    """stdout of ``script`` in a fresh interpreter that finds this package."""
    src = os.path.dirname(os.path.dirname(roughvol.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in _CAPS and k != "ROUGHVOL_THREADS"}
    env.update(env_updates,
               PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout


_CAPS_AT_NUMPY_LOAD = """
import json, os, sys
caps = %r
seen = {}

class Probe:
    # records the thread caps when numpy is first imported; imports nothing
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({var: os.environ.get(var) for var in caps})
        return None

sys.meta_path.insert(0, Probe())
import roughvol.cli
print(json.dumps(seen))
""" % (_CAPS,)


def test_thread_cap_is_set_before_numpy_loads():
    seen = json.loads(_run(_CAPS_AT_NUMPY_LOAD, ROUGHVOL_THREADS="1"))
    assert seen == {var: "1" for var in _CAPS}


_LOADED = """
import json, sys
import roughvol
cli_with_package = "roughvol.cli" in sys.modules
import roughvol.cli
print(json.dumps([cli_with_package, roughvol.cli.__name__,
                  sorted(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules)]))
"""


def test_import_leaves_scipy_signal_to_first_lookup():
    cli_with_package, cli_name, loaded = json.loads(_run(_LOADED))
    assert not cli_with_package
    assert cli_name == "roughvol.cli"
    assert loaded == []
    # the name the benchmark's tracer proxies still resolves
    from scipy import signal
    assert simulate.signal.fftconvolve is signal.fftconvolve
    assert experiments.signal.fftconvolve is signal.fftconvolve
    for module in (simulate, experiments):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_namespace_is_version_plus_each_module_list():
    names = roughvol.__all__
    assert len(names) == len(set(names)) == 60
    assert names == ["__version__", *(n for m in _MODULES for n in m.__all__)]
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(roughvol, name) is getattr(module, name), name
    assert set(_EXPORTED_BEFORE) <= set(names)
    assert "cli" not in names
