"""Gamma and Dirichlet parameters, entropies and entropy gradients.

The two gamma parameterizations are distinct types on purpose: shape/rate is
the natural density parameterization, shape/mean is what the layered count
models optimize in, and the chain rules differ between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .mathcore import (
    _digamma_scalar,
    _gamma_fns,
    _lgamma_scalar,
    _trigamma_scalar,
    digamma,
    log_gamma_fn,
    trigamma,
)

__all__ = [
    "GammaParams",
    "GammaMeanShapeParams",
    "DirichletParams",
    "gamma_entropy",
    "gamma_entropy_grad",
    "gamma_entropy_grad_mean_shape",
    "dirichlet_entropy",
    "dirichlet_entropy_grad",
    "dirichlet_kl",
]

def _require_positive_scalar(value, name):
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")
    return v


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution with shape `shape` and rate `rate`."""

    shape: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "shape", _require_positive_scalar(self.shape, "shape"))
        object.__setattr__(self, "rate", _require_positive_scalar(self.rate, "rate"))


@dataclass(frozen=True)
class GammaMeanShapeParams:
    """Gamma distribution given by shape and mean (rate = shape / mean)."""

    shape: float
    mean: float

    def __post_init__(self):
        object.__setattr__(self, "shape", _require_positive_scalar(self.shape, "shape"))
        object.__setattr__(self, "mean", _require_positive_scalar(self.mean, "mean"))

    def as_shape_rate(self) -> GammaParams:
        return GammaParams(self.shape, self.shape / self.mean)


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet distribution with concentration vector `conc` (K >= 2)."""

    conc: np.ndarray

    def __post_init__(self):
        conc = np.asarray(self.conc, dtype=float)
        if conc.ndim != 1 or conc.size < 2:
            raise DomainError("Dirichlet needs a 1-d concentration vector with K >= 2")
        if not (np.all(np.isfinite(conc)) and np.all(conc > 0.0)):
            raise DomainError("Dirichlet concentrations must be positive and finite")
        conc = conc.copy()
        conc.flags.writeable = False
        object.__setattr__(self, "conc", conc)

    @property
    def dim(self) -> int:
        return self.conc.size


def _gamma_entropy(shapes, rates, lg_shapes, psi_shapes):
    """Entropy shape - ln rate + ln Gamma(shape) + (1 - shape) psi(shape),
    elementwise, given ln Gamma and psi of the shapes."""
    return shapes - np.log(rates) + lg_shapes + (1.0 - shapes) * psi_shapes


def _gamma_entropy_grad_mean_shape(shapes, means, psi1_shapes):
    """(dH/dshape, dH/dmean) of the mean-shape gamma, elementwise, given
    psi'(shape). With rate = shape/mean the rate path contributes -1/shape
    to the shape component and +1/mean to the mean component."""
    return 1.0 + (1.0 - shapes) * psi1_shapes - 1.0 / shapes, 1.0 / means


def gamma_entropy(p: GammaParams) -> float:
    """H = shape - ln rate + ln Gamma(shape) + (1 - shape) psi(shape)."""
    a = p.shape
    return float(_gamma_entropy(a, p.rate, _lgamma_scalar(a), _digamma_scalar(a)))


def gamma_entropy_grad(p: GammaParams) -> tuple[float, float]:
    """(dH/dshape, dH/drate) = (1 + (1 - shape) psi'(shape), -1/rate)."""
    a, b = p.shape, p.rate
    return 1.0 + (1.0 - a) * trigamma(a), -1.0 / b


def gamma_entropy_grad_mean_shape(p: GammaMeanShapeParams) -> tuple[float, float]:
    """(dH/dshape, dH/dmean) at fixed mean resp. fixed shape."""
    return _gamma_entropy_grad_mean_shape(p.shape, p.mean, _trigamma_scalar(p.shape))


def dirichlet_entropy(p: DirichletParams) -> float:
    lg, psi, _ = _gamma_fns(p.conc, lgamma=True, psi=True)
    return _dirichlet_entropy(p.conc, lg, psi)


def dirichlet_entropy_grad(p: DirichletParams) -> np.ndarray:
    return _dirichlet_entropy_grad(p.conc, _gamma_fns(p.conc, psi1=True)[2])


def _dirichlet_entropy(a: np.ndarray, lg_a: np.ndarray, psi_a: np.ndarray) -> float:
    """Entropy at concentrations a, given ln Gamma(a) and psi(a)."""
    a0 = float(a.sum())
    k = a.size
    return (
        float(np.sum(lg_a))
        - _lgamma_scalar(a0)
        + (a0 - k) * _digamma_scalar(a0)
        - float(np.dot(a - 1.0, psi_a))
    )


def _dirichlet_entropy_grad(a: np.ndarray, psi1_a: np.ndarray) -> np.ndarray:
    """Entropy gradient at concentrations a, given psi'(a)."""
    a0 = float(a.sum())
    k = a.size
    return (a0 - k) * _trigamma_scalar(a0) - (a - 1.0) * psi1_a


def dirichlet_kl(p: DirichletParams, q: DirichletParams) -> float:
    """KL(p || q); >= 0 with equality iff the parameters coincide."""
    if p.dim != q.dim:
        raise DomainError("dirichlet_kl: dimension mismatch")
    ap, aq = p.conc, q.conc
    a0 = float(ap.sum())
    elog = digamma(ap) - digamma(a0)
    return (
        log_gamma_fn(a0)
        - float(np.sum(log_gamma_fn(ap)))
        - log_gamma_fn(float(aq.sum()))
        + float(np.sum(log_gamma_fn(aq)))
        + float(np.dot(ap - aq, elog))
    )
