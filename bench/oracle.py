"""Dense-grid oracle for the correction coefficient ``d_bar``.

``d_bar = sigma_ou * int_0^inf (Lambda(C_Z(s)) - Lambda(0)) K(s) ds`` with
``Lambda(c) = E[F(sigma_ou Z) (FF')(sigma_ou Z')]`` at correlation ``c``.

The program evaluates ``Lambda`` with tensor Gauss--Hermite rules and the
``s``-integral on Gauss--Legendre panels.  This oracle shares neither:

* ``Lambda(c)`` is a 2-D trapezoid rule in ``(z, w)`` with
  ``Z' = c Z + sqrt(1 - c^2) W``, which stays smooth up to ``c = 1``
  (the trapezoid rule on a Gaussian-weighted analytic integrand converges
  geometrically in the node spacing);
* the ``s``-integral is a composite Simpson rule in ``u`` on ``[0, 1]``
  with ``s = u^(p/a)`` (``a = H + 1/2``), which removes the ``s^(H-1/2)``
  kernel singularity and smooths the ``s^(2H)`` correlation cusp, then a
  Simpson rule in ``log s`` on ``[1, s_cap]``, then the linearized
  closed-form tail beyond ``s_cap``.

Only the kernel ``K`` and the covariance ``C_Z`` come from the program
(``KernelEval.kernel_K``, ``CovarianceEval.cov_CZ``).  Each model is
evaluated at two resolutions; the stored value is the finer one and the
difference is stored as its error estimate.

Regenerate the stored values (about a minute per model on one core):

    python3 bench/oracle.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_FILE = os.path.join(HERE, "dbar_oracle.json")

# The models whose d_bar is stored: (hurst, sigma_min, sigma_max, slope) of
# a BoundedSigmoid vol function.  Both appear in the params_sweep workload.
ORACLE_MODELS = (
    (0.1, 0.1, 0.3, 1.0),
    (0.3, 0.05, 0.85, 3.5),
)


def _simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced values."""
    if values.size % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of nodes")
    return h / 3.0 * float(values[0] + values[-1] + 4.0 * values[1:-1:2].sum()
                           + 2.0 * values[2:-1:2].sum())


class _Lambda:
    """``Lambda(c)`` by a 2-D trapezoid rule on ``[-L, L]^2``."""

    def __init__(self, vf, so: float, half_width: float = 10.0, n: int = 401):
        z = np.linspace(-half_width, half_width, n)
        h = z[1] - z[0]
        self.z = z
        self.wts = h * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        self.f1 = vf(so * z)
        self.vf, self.so = vf, so

    def g(self, x):
        y = self.so * x
        return self.vf(y) * self.vf.deriv(y)

    def __call__(self, c: float) -> float:
        z = self.z
        zp = c * z[:, None] + math.sqrt(max(1.0 - c * c, 0.0)) * z[None, :]
        inner = self.g(zp) @ self.wts
        return float(self.wts @ (self.f1 * inner))

    def at_zero(self) -> float:
        return float(self.wts @ self.f1) * float(self.wts @ self.g(self.z))


def dbar_oracle(hurst: float, vf, n_head: int = 2000, n_log: int = 2000,
                grade: float = 6.0, s_cap: float = 5000.0) -> float:
    """Dense-grid ``d_bar`` for the vol function ``vf`` at Hurst ``hurst``."""
    from roughvol.kernel import CovarianceEval, KernelEval, gamma_reflect

    ke = KernelEval(hurst)
    ce = CovarianceEval(hurst)
    so = ke.sigma_ou
    a = hurst + 0.5
    lam = _Lambda(vf, so)
    lam0 = lam.at_zero()

    def integrand(s: float) -> float:
        return (lam(float(ce.cov_CZ(s))) - lam0) * float(ke.kernel_K(s))

    # [0, 1]: s = u^(grade/a), ds = (grade/a) u^(grade/a - 1) du; the
    # kernel's s^(a-1) times the Jacobian leaves u^(grade-1), finite at 0
    u = np.linspace(0.0, 1.0, n_head + 1)
    head = np.zeros_like(u)
    e = grade / a
    for i in range(1, u.size):
        s = u[i] ** e
        head[i] = integrand(s) * e * u[i] ** (e - 1.0)
    total = _simpson(head, u[1] - u[0])

    # [1, s_cap] in log s
    x = np.linspace(0.0, math.log(s_cap), n_log + 1)
    body = np.array([integrand(math.exp(v)) * math.exp(v) for v in x])
    total += _simpson(body, x[1] - x[0])

    # linearized tail beyond s_cap: Lambda - Lambda(0) ~ slope * C_Z with
    # C_Z ~ s^(2H-2)/Gamma(2H-1), K ~ s^(H-3/2)/(sigma_ou Gamma(H-1/2))
    c_ref = float(ce.cov_CZ(s_cap))
    slope = (lam(c_ref) - lam0) / c_ref
    q = 3.0 * hurst - 3.5
    tail = (slope / (gamma_reflect(2.0 * hurst - 1.0) * so
                     * gamma_reflect(hurst - 0.5))
            * s_cap ** (q + 1.0) / (-(q + 1.0)))
    return so * (total + tail)


def _main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from roughvol.gaussfunc import BoundedSigmoid

    entries = []
    for hurst, lo, hi, slope in ORACLE_MODELS:
        vf = BoundedSigmoid(lo, hi, slope)
        coarse = dbar_oracle(hurst, vf, n_head=1000, n_log=1000)
        fine = dbar_oracle(hurst, vf)
        entries.append({
            "hurst": hurst, "sigma_min": lo, "sigma_max": hi, "slope": slope,
            "d_bar": fine, "abs_error_estimate": abs(fine - coarse),
        })
        print(f"H={hurst} {vf!r}: d_bar={fine!r} "
              f"(coarse {coarse!r}, rel diff {abs(fine - coarse) / abs(fine):.2e})",
              flush=True)
    with open(ORACLE_FILE, "w") as fh:
        json.dump({"regenerate": "python3 bench/oracle.py", "models": entries},
                  fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
