"""Reparameterization gradients through rejection samplers.

Gamma and Dirichlet variational families sampled by the smooth cube
transform with shape augmentation, a gradient estimator decomposed into
pathwise + correction + entropy terms, a score-function and an
importance-weighted baseline, and a stochastic-ascent engine with an
adaptive step-size schedule.
"""

from .distributions import DirichletParams, dirichlet_entropy, dirichlet_kl
from .engine import RunConfig, TraceRecord, run_rsvi, softplus, softplus_inv, step_size
from .estimators import (
    EstimatorConfig,
    GradientEstimate,
    VarianceProfile,
    default_theta_init,
    estimate,
    estimate_elbo,
    variance_profile,
)
from .exceptions import ContractError, DomainError, OptimizerAbortError, SamplerStallError
from .mathcore import RandomStream, digamma, finite_diff_grad, log_gamma_fn, trigamma
from .models import (
    ConjugateModel,
    LatentBlock,
    ModelSpec,
    SparseGammaDEF,
    make_synthetic_def_data,
)
from .rejection import (
    dh_dalpha,
    dh_deps,
    grad_log_ratio_gamma,
    h_gam,
    log_ratio_q_over_r,
)

__version__ = "0.1.0"
