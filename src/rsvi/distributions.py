"""Gamma and Dirichlet entropies, their gradients, and the Dirichlet KL.

The private kernels take the special functions of the shapes from the
caller, so `estimators.ThetaState`, the one producer of the variational
entropy and its gradient, evaluates them in one `_gamma_fns` call per block.
The public functions are the Dirichlet entropy and KL that the conjugate
model's exact ELBO and `rsvi fit`'s reported KL use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .mathcore import _gamma_fns

__all__ = ["DirichletParams", "dirichlet_entropy", "dirichlet_kl"]


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
    psi'(shape): 1 + (1 - shape) psi'(shape) at a fixed rate, plus -1/shape
    to the shape component and +1/mean to the mean component through the
    rate shape/mean."""
    return 1.0 + (1.0 - shapes) * psi1_shapes - 1.0 / shapes, 1.0 / means


def _with_total(a: np.ndarray) -> np.ndarray:
    """Concentrations a followed by their total a0, so that one special
    function call covers both."""
    return np.append(a, a.sum())


def dirichlet_entropy(p: DirichletParams) -> float:
    lg, psi, _ = _gamma_fns(_with_total(p.conc), lgamma=True, psi=True)
    return _dirichlet_entropy(p.conc, lg, psi)


def _dirichlet_entropy(a: np.ndarray, lg: np.ndarray, psi: np.ndarray) -> float:
    """Entropy at concentrations a, given ln Gamma and psi of _with_total(a)."""
    a0 = float(a.sum())
    k = a.size
    return (
        float(np.sum(lg[:k]))
        - float(lg[k])
        + (a0 - k) * float(psi[k])
        - float(np.dot(a - 1.0, psi[:k]))
    )


def _dirichlet_entropy_grad(a: np.ndarray, psi1: np.ndarray) -> np.ndarray:
    """Entropy gradient at concentrations a, given psi' of _with_total(a)."""
    a0 = float(a.sum())
    k = a.size
    return (a0 - k) * psi1[k] - (a - 1.0) * psi1[:k]


def dirichlet_kl(p: DirichletParams, q: DirichletParams) -> float:
    """KL(p || q); >= 0 with equality iff the parameters coincide."""
    if p.dim != q.dim:
        raise DomainError("dirichlet_kl: dimension mismatch")
    ap, aq = p.conc, q.conc
    k = p.dim
    lg_p, psi_p, _ = _gamma_fns(_with_total(ap), lgamma=True, psi=True)
    lg_q = _gamma_fns(_with_total(aq), lgamma=True)[0]
    elog = psi_p[:k] - psi_p[k]
    return (
        float(lg_p[k])
        - float(np.sum(lg_p[:k]))
        - float(lg_q[k])
        + float(np.sum(lg_q[:k]))
        + float(np.dot(ap - aq, elog))
    )
