"""Fast-mean-reverting rough stochastic volatility numerics.

Subpackages cover the moving-average kernel and covariance of the fractional
Ornstein--Uhlenbeck volatility factor (:mod:`roughvol.kernel`), Gaussian
functionals of the volatility function including the price-correction
coefficient (:mod:`roughvol.gaussfunc`), joint path simulation
(:mod:`roughvol.simulate`), corrected option pricing and implied-volatility
asymptotics (:mod:`roughvol.pricing`), Monte Carlo verification studies
(:mod:`roughvol.experiments`), and a command-line front end
(:mod:`roughvol.cli`).
"""

__version__ = "0.1.0"

from .kernel import (
    CovarianceEval,
    Hurst,
    KernelEval,
    cov_RL,
    gamma_reflect,
    sigma_ou,
)
from .gaussfunc import (
    BoundedSigmoid,
    ConstantVol,
    ExponentialVol,
    GroupParams,
    TabulatedVol,
    VolFunction,
    cov_sigma,
    d_bar,
    d_bar_markov,
    group_params,
    moments,
    psi_of_C,
    sigma_bar,
)
from .pricing import (
    Call,
    PriceResult,
    SmoothCustom,
    TermStructureParams,
    bs_operator_greeks,
    bs_price,
    corrected_price,
    implied_vol_asymptotic,
    implied_vol_general,
    implied_vol_invert,
    smooth_ramp,
    term_structure_factor,
    zeta_exponent,
)
from .simulate import (
    ExactGaussianReport,
    ModelParams,
    PathBundle,
    SimGrid,
    concat_bundles,
    dump_paths,
    exact_gaussian_check,
    simulate_paths,
    simulate_paths_RL,
)
from .experiments import (
    MCEstimate,
    convergence_study,
    kappa_check,
    mc_price,
    phi_variance_check,
    smile_study,
    termstructure_study,
    vartheta_check,
)

__all__ = [
    "__version__",
    # kernel / covariance
    "Hurst",
    "KernelEval",
    "CovarianceEval",
    "sigma_ou",
    "gamma_reflect",
    "psi_of_C",
    "cov_sigma",
    "cov_RL",
    # volatility functions and group parameters
    "VolFunction",
    "BoundedSigmoid",
    "ConstantVol",
    "ExponentialVol",
    "TabulatedVol",
    "GroupParams",
    "moments",
    "sigma_bar",
    "d_bar",
    "d_bar_markov",
    "group_params",
    # pricing
    "Call",
    "SmoothCustom",
    "smooth_ramp",
    "PriceResult",
    "TermStructureParams",
    "bs_price",
    "bs_operator_greeks",
    "corrected_price",
    "implied_vol_invert",
    "implied_vol_asymptotic",
    "implied_vol_general",
    "term_structure_factor",
    "zeta_exponent",
    # simulation
    "ModelParams",
    "SimGrid",
    "PathBundle",
    "ExactGaussianReport",
    "simulate_paths",
    "simulate_paths_RL",
    "exact_gaussian_check",
    "concat_bundles",
    "dump_paths",
    # verification studies
    "MCEstimate",
    "mc_price",
    "convergence_study",
    "vartheta_check",
    "phi_variance_check",
    "kappa_check",
    "smile_study",
    "termstructure_study",
]
