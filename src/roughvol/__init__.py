"""Fast-mean-reverting rough stochastic volatility numerics.

Subpackages cover the moving-average kernel and covariance of the fractional
Ornstein--Uhlenbeck volatility factor (:mod:`roughvol.kernel`), Gaussian
functionals of the volatility function including the price-correction
coefficient (:mod:`roughvol.gaussfunc`), joint path simulation
(:mod:`roughvol.simulate`), corrected option pricing and implied-volatility
asymptotics (:mod:`roughvol.pricing`), Monte Carlo verification studies
(:mod:`roughvol.experiments`), and a command-line front end
(:mod:`roughvol.cli`).

The package namespace is each of the five numerical modules' ``__all__``.
``ROUGHVOL_THREADS`` is applied here, before NumPy is imported: it caps
nothing in a process that imported NumPy first.
"""

import os

__version__ = "0.1.0"


def _thread_count(raw: str | None) -> int | None:
    """The thread count in ``raw``, or None unless ``raw`` is decimal digits
    worth at least 1: the one rule for ``ROUGHVOL_THREADS``."""
    if raw and raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    return None


def _cap_threads() -> None:
    """Propagate ``ROUGHVOL_THREADS`` to the BLAS/OpenMP thread caps.

    Runs before the numerical stack is imported, since the pools read these
    variables at load time.  A value :func:`roughvol.cli.main` would reject
    sets no cap.
    """
    count = _thread_count(os.environ.get("ROUGHVOL_THREADS"))
    if count is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(count)


_cap_threads()

from . import experiments, gaussfunc, kernel, pricing, simulate  # noqa: E402
from .kernel import *  # noqa: E402,F401,F403
from .gaussfunc import *  # noqa: E402,F401,F403
from .pricing import *  # noqa: E402,F401,F403
from .simulate import *  # noqa: E402,F401,F403
from .experiments import *  # noqa: E402,F401,F403

__all__ = ["__version__", *kernel.__all__, *gaussfunc.__all__, *pricing.__all__,
           *simulate.__all__, *experiments.__all__]
