"""Target models: the conjugate Dirichlet-multinomial and a sparse gamma DEF.

Both expose a ModelSpec: a latent layout plus one batch callback that
evaluates the log-joint, and on request its hand-derived latent gradient in
the same pass, on a matrix of log-latent rows at once. The conjugate model
additionally carries an exact posterior and an analytic objective gradient,
which is what makes it the oracle for estimator unbiasedness and end-to-end
convergence checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .distributions import DirichletParams, dirichlet_entropy
from .exceptions import DomainError
from .mathcore import RandomStream, _rel_err, digamma, finite_diff_grad, log_gamma_fn, trigamma
from .rejection import make_sampler_bank

__all__ = [
    "LatentBlock",
    "ParamBlock",
    "ModelSpec",
    "ConjugateModel",
    "conjugate_exact_elbo_grad",
    "conjugate_elbo_exact",
    "conjugate_model_spec",
    "SparseGammaDEF",
    "def_model_spec",
    "make_synthetic_def_data",
]

POISSON_RATE_FLOOR = 1e-10
_LOG_RATE_FLOOR = math.log(POISSON_RATE_FLOOR)

_FAMILIES = ("gamma_mean_shape", "dirichlet")


@dataclass(frozen=True)
class LatentBlock:
    name: str
    family: str
    dim: int


@dataclass(frozen=True)
class ParamBlock:
    """Where one latent block sits in a log-latent row and in theta.

    A gamma_mean_shape block packs [shapes..., means...] (2*dim entries of
    theta); a dirichlet block packs its concentration vector (dim entries),
    which is its shape_slice, and has no mean_slice.
    """

    name: str
    family: str
    dim: int
    latent_slice: slice
    theta_slice: slice
    shape_slice: slice
    mean_slice: slice | None


class ModelSpec:
    """A model as the estimators see it.

    Latents are passed in log space, one point per row: a row is the flat
    vector of log latents (blocks concatenated in layout order; Dirichlet
    blocks hold the logs of the simplex coordinates). `log_joint_batch(lz)`
    maps an (n, n_latents) matrix to the n values log p(x, z);
    `log_joint_batch(lz, grad=True)` returns those values and the
    (n, n_latents) rows d log p / d log z from one pass. Row i of either
    output must equal the one-row batch of that row bit for bit, since the
    estimators evaluate a matrix of replicates at once and each replicate
    must match its lone estimate. The callback must accept points slightly
    off the simplex: finite differences and the normalization chain rule
    probe there. Log latents keep draws whose value lies below the smallest
    double (tiny gamma shapes) finite.

    The layout is fixed here, once: `blocks` holds one ParamBlock per
    latent block in layout order, and `n_latents` and `n_params` are the
    widths of a log-latent row and of theta.
    """

    def __init__(self, latent_layout: Sequence[LatentBlock], log_joint_batch: Callable):
        layout = tuple(latent_layout)
        if not layout:
            raise DomainError("ModelSpec needs at least one latent block")
        names = [b.name for b in layout]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate latent block names: {names}")
        blocks = []
        lat = par = 0
        for b in layout:
            if b.family not in _FAMILIES:
                raise DomainError(f"unknown latent family {b.family!r}")
            if not isinstance(b.dim, (int, np.integer)) or b.dim < 1 or (b.family == "dirichlet" and b.dim < 2):
                raise DomainError(f"bad dimension for block {b.name!r}: {b.dim!r}")
            dim = int(b.dim)
            gamma = b.family == "gamma_mean_shape"
            width = 2 * dim if gamma else dim
            latents, shapes = slice(lat, lat + dim), slice(par, par + dim)
            means = slice(par + dim, par + width) if gamma else None
            blocks.append(ParamBlock(b.name, b.family, dim, latents, slice(par, par + width), shapes, means))
            lat += dim
            par += width
        self.latent_layout = layout
        self.log_joint_batch = log_joint_batch
        self.blocks = tuple(blocks)
        self.n_latents = lat
        self.n_params = par

    def random_interior_point(self, stream: RandomStream) -> np.ndarray:
        """Log of a strictly interior latent point (for the gradient self-check)."""
        z = np.empty(self.n_latents)
        for pb in self.blocks:
            u = stream.uniforms_open(pb.dim)
            if pb.family == "dirichlet":
                w = 0.2 + u
                z[pb.latent_slice] = w / w.sum()
            else:
                z[pb.latent_slice] = 0.3 + 2.0 * u
        return np.log(z)

    def self_check(self, stream: RandomStream) -> float:
        """Analytic-vs-finite-difference gradient check at 20 random log
        points, each evaluated as a one-row batch (step 1e-6).

        Error metric per point: mathcore._rel_err, max_i |g_i - fd_i| /
        max(1, max_i |fd_i|). Returns the worst error, NaN if any point's is;
        callers gate it with `<=`, so a NaN fails.
        """
        errors = []
        for _ in range(20):
            z = self.random_interior_point(stream)
            g = np.asarray(self.log_joint_batch(z[None], grad=True)[1], dtype=float)[0]
            fd = finite_diff_grad(lambda v: float(self.log_joint_batch(v[None])[0]), z, 1e-6)
            errors.append(_rel_err(fd, g))
        # np.max, not max(): a NaN error makes the worst error NaN
        return float(np.max(errors))


# --- conjugate Dirichlet-multinomial -------------------------------------------


@dataclass(frozen=True)
class ConjugateModel:
    """Multinomial counts with a Dirichlet prior (exact posterior available)."""

    prior: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        counts = np.asarray(self.counts)
        if prior.ndim != 1 or prior.size < 2:
            raise DomainError("prior must be a 1-d vector with K >= 2")
        if not (np.all(np.isfinite(prior)) and np.all(prior > 0.0)):
            raise DomainError("prior concentrations must be positive")
        if counts.shape != prior.shape:
            raise DomainError("counts must match the prior's shape")
        if not (np.all(counts == np.floor(counts)) and np.all(counts >= 0)):
            raise DomainError("counts must be non-negative integers")
        counts = counts.astype(np.int64)
        prior = prior.copy()
        prior.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return self.prior.size

    @property
    def n_trials(self) -> int:
        return int(self.counts.sum())

    def exact_posterior(self) -> DirichletParams:
        return DirichletParams(self.prior + self.counts)

    def log_marginal_likelihood(self) -> float:
        """ln p(x) of the multinomial-Dirichlet (closed form)."""
        return (
            _conjugate_const(self)
            + float(np.sum(log_gamma_fn(self.prior + self.counts)))
            - log_gamma_fn(float(self.prior.sum()) + self.n_trials)
        )


def _conjugate_coeffs(m: ConjugateModel) -> np.ndarray:
    return m.prior + m.counts - 1.0


def _conjugate_const(m: ConjugateModel) -> float:
    n = m.n_trials
    return (
        log_gamma_fn(n + 1.0)
        - float(np.sum(log_gamma_fn(m.counts + 1.0)))
        + log_gamma_fn(float(m.prior.sum()))
        - float(np.sum(log_gamma_fn(m.prior)))
    )


def conjugate_exact_elbo_grad(m: ConjugateModel, q: DirichletParams) -> np.ndarray:
    """Analytic gradient of the variational objective at q.

    The objective is ln p(x) - KL(q || posterior); with a = prior + counts,
    d/d theta_k = (a_k - theta_k) psi'(theta_k) - psi'(theta_0) sum_j (a_j - theta_j).
    """
    if q.dim != m.dim:
        raise DomainError("parameter dimension mismatch")
    a = m.prior + m.counts
    th = q.conc
    diff = a - th
    return diff * trigamma(th) - trigamma(float(th.sum())) * float(diff.sum())


def conjugate_elbo_exact(m: ConjugateModel, q: DirichletParams) -> float:
    """Exact objective value E_q[f] + H[q] via special functions."""
    if q.dim != m.dim:
        raise DomainError("parameter dimension mismatch")
    th = q.conc
    elog = digamma(th) - digamma(float(th.sum()))
    return float(np.dot(_conjugate_coeffs(m), elog)) + _conjugate_const(m) + dirichlet_entropy(q)


def conjugate_model_spec(m: ConjugateModel) -> ModelSpec:
    """Log-latent adapter: f(log z) = c . log z + const, gradient c.

    Each row is np.vecdot of that row with c, on C-contiguous input, so
    row i of a batch rounds exactly as the one-row batch does. (lz @ c does
    not: its rows differ from the one-row value in the last bits, and so
    does vecdot over rows with a non-unit stride.)
    """
    layout = (LatentBlock("z", "dirichlet", m.dim),)
    c = _conjugate_coeffs(m)
    const = _conjugate_const(m)

    def log_joint_batch(lzmat, grad=False):
        lz = np.ascontiguousarray(lzmat, dtype=float)
        if lz.ndim != 2 or lz.shape[-1] != m.dim:
            raise DomainError(f"log latents must have {m.dim} entries per row, got shape {lz.shape}")
        if not np.isfinite(lz).all():
            raise DomainError("log-joint needs finite log latents")
        f = np.vecdot(lz, c) + const
        # the gradient is a read-only view: every row is c
        return (f, np.broadcast_to(c, lz.shape)) if grad else f

    return ModelSpec(layout, log_joint_batch)


# --- sparse gamma deep exponential family ---------------------------------------


@dataclass(frozen=True)
class SparseGammaDEF:
    """Layered gamma latents with Poisson observations.

    layer_sizes orders layers bottom-up: layer 1 (size K_1) drives the
    observations, the last layer is the top. Weights w[0] (K_1 x D) connect
    layer 1 to the data; w[l] (K_l x K_{l+1}) couples adjacent layers. Each
    non-top latent is Gam(alpha_z, alpha_z / (w z_above)), so the prior mean
    of a latent is its weighted parent sum. The priors are fixed at the
    paper's values: alpha_z = 0.1, weights Gam(0.1, 0.3) and the top layer
    Gam(0.1, 0.1), as (shape, rate).
    """

    alpha_z: ClassVar[float] = 0.1
    weight_prior: ClassVar[tuple] = (0.1, 0.3)
    top_prior: ClassVar[tuple] = (0.1, 0.1)

    layer_sizes: tuple
    data: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(k) for k in self.layer_sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise DomainError("layer sizes must be positive integers")
        data = np.asarray(self.data)
        if data.ndim != 2 or data.size == 0:
            raise DomainError("data must be a non-empty (n_obs, n_dim) matrix")
        if not (np.all(data == np.floor(data)) and np.all(data >= 0)):
            raise DomainError("data must hold non-negative integer counts")
        data = data.astype(np.int64)
        data.flags.writeable = False
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "data", data)
        object.__setattr__(
            self, "_poisson_const", -float(np.sum(log_gamma_fn(data.astype(float) + 1.0)))
        )
        object.__setattr__(self, "_lg_alpha_z", log_gamma_fn(self.alpha_z))
        object.__setattr__(self, "_lg_top", log_gamma_fn(self.top_prior[0]))
        object.__setattr__(self, "_lg_weight", log_gamma_fn(self.weight_prior[0]))

    @property
    def n_obs(self) -> int:
        return self.data.shape[0]

    @property
    def n_dim(self) -> int:
        return self.data.shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes)

    def weight_shapes(self) -> list:
        return _weight_shapes(self.layer_sizes, self.n_dim)


def _weight_shapes(layer_sizes, n_dim: int) -> list:
    """w[0] is (K_1, n_dim); w[l] is (K_l, K_(l+1)) for the layers above."""
    return [(layer_sizes[0], n_dim)] + list(zip(layer_sizes[:-1], layer_sizes[1:]))


def _flat_rows(a: np.ndarray) -> np.ndarray:
    """A stack with a leading draw axis as an (n, rest) matrix, n = 0 too
    (reshape(n, -1) cannot infer the rest of an empty stack)."""
    return a.reshape(a.shape[0], math.prod(a.shape[1:]))


def _gamma_logpdf_stack(lz: np.ndarray, shape: float, log_rate, lg_shape: float):
    """Per-draw sum of elementwise log Gam(z; shape, rate) over a stack.

    Takes lz = ln z and ln rate, so neither z nor the rate has to be
    representable as a double. lz has a leading draw axis; log_rate may be a
    broadcastable array. Returns one total per draw, and z * rate in lz's shape.
    """
    # a latent far above its mean overflows to inf here, and the log-joint
    # to -inf: the draw is rejected as impossible
    with np.errstate(over="ignore"):
        z_rate = np.exp(lz + log_rate)
    per_elem = (shape - 1.0) * lz - z_rate + shape * log_rate - lg_shape
    # finite terms near the largest double can still sum past it, to -inf
    with np.errstate(over="ignore"):
        return _flat_rows(per_elem).sum(axis=1), z_rate


# shifted products at or above this are exact to rounding (their largest term
# is a normal double); smaller ones are redone term by term in log space
_LOG_MATMUL_TINY = 1e-280


def _log_matmul(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """ln(exp(la) @ exp(lb)) over the last two axes, without leaving log space.

    Rows of la and columns of lb are shifted by their maxima, so the matmul
    runs on values in (0, 1]. Entries whose shifted sum still falls below
    _LOG_MATMUL_TINY (the row and the column peak at different inner
    indices) are recomputed by a log-sum-exp over the inner axis.
    """
    ma = la.max(axis=-1, keepdims=True)
    mb = lb.max(axis=-2, keepdims=True)
    s = np.matmul(np.exp(la - ma), np.exp(lb - mb))
    low = s < _LOG_MATMUL_TINY
    with np.errstate(divide="ignore"):
        out = np.log(s) + ma + mb
    if low.any():
        exact = np.logaddexp.reduce(la[..., :, :, None] + lb[..., None, :, :], axis=-2)
        out[low] = exact[low]
    return out


def _def_log_joint_stack(m: SparseGammaDEF, lzs, lws, grad=False):
    """Batched log p(x, z, w) from log latents: Poisson likelihood, layer
    conditionals and priors; with grad, also d log p / d ln z and
    d log p / d ln w, from the same rates and layer means.

    lzs[l] is (n, n_obs, K_l) and lws[l] is (n, ...): logs of the latents
    and weights. Poisson rates and layer means are formed by log-sum-exp.
    Rates are floored at POISSON_RATE_FLOOR inside the log; an exactly zero
    rate against a positive count gives -inf. Returns the n totals, or with
    grad the totals and the (n, n_latents) gradient rows, blocks ordered
    z1..zL then w0..w(L-1). Each gradient path through a rate or a layer
    mean carries its responsibility z_ik w_kj / (z w)_ij, which stays in
    (0, 1] in log space.
    """
    x = m.data.astype(float)
    log_lam = _log_matmul(lzs[0], lws[0])
    lam = np.exp(log_lam)
    bad = ((lam == 0.0) & (x > 0)).any(axis=(1, 2))
    above = log_lam >= _LOG_RATE_FLOOR
    total = _flat_rows(x * np.where(above, log_lam, _LOG_RATE_FLOOR) - lam).sum(axis=1) + m._poisson_const
    if grad:
        gz = [np.zeros_like(lz) for lz in lzs]
        gw = [np.zeros_like(lw) for lw in lws]
        # d/d ln lam of x ln max(lam, floor) - lam: x - lam at or above the
        # floor, -lam below it, where the log term is the constant x ln floor
        dlam = np.where(above, x, 0.0) - lam
        resp = np.exp(lzs[0][..., :, :, None] + lws[0][..., None, :, :] - log_lam[..., :, None, :])
        weighted = resp * dlam[..., :, None, :]
        gz[0] += weighted.sum(axis=-1)
        gw[0] += weighted.sum(axis=-3)
    az = m.alpha_z
    for l in range(m.n_layers - 1):
        log_mean = _log_matmul(lzs[l + 1], np.swapaxes(lws[l + 1], -1, -2))
        # z_rate is finite wherever the log-joint is, and inf only where that is -inf
        part, z_rate = _gamma_logpdf_stack(lzs[l], az, math.log(az) - log_mean, m._lg_alpha_z)
        total += part
        if grad:
            gz[l] += (az - 1.0) - z_rate
            # d/d ln mean of [az ln(az/mean) - (az/mean) z] = az z/mean - az
            resp = np.exp(lzs[l + 1][..., :, None, :] + lws[l + 1][..., None, :, :] - log_mean[..., :, :, None])
            weighted = resp * (z_rate - az)[..., :, :, None]
            gz[l + 1] += weighted.sum(axis=-2)
            gw[l + 1] += weighted.sum(axis=-3)
    ta, tb = m.top_prior
    total += _gamma_logpdf_stack(lzs[-1], ta, math.log(tb), m._lg_top)[0]
    wa, wb = m.weight_prior
    for lw in lws:
        total += _gamma_logpdf_stack(lw, wa, math.log(wb), m._lg_weight)[0]
    total[bad] = -np.inf
    if not grad:
        return total
    # z * rate as tb * e^lz, not the log-joint's e^(lz + ln tb): the two
    # differ in the last bits
    gz[-1] += (ta - 1.0) - tb * np.exp(lzs[-1])
    for l in range(m.n_layers):
        gw[l] += (wa - 1.0) - wb * np.exp(lws[l])
    return total, np.concatenate([_flat_rows(g) for g in gz + gw], axis=1)


def def_model_spec(m: SparseGammaDEF) -> ModelSpec:
    """Log-latent adapter; blocks ordered z1..zL then w0..w(L-1)."""
    stacks = [(f"z{l + 1}", (m.n_obs, k)) for l, k in enumerate(m.layer_sizes)]
    stacks += [(f"w{l}", shape) for l, shape in enumerate(m.weight_shapes())]

    def unpack(vmat):
        """Split an (n, n_latents) matrix of log latents into layer stacks."""
        vmat = np.asarray(vmat, dtype=float)
        if vmat.ndim != 2 or vmat.shape[1] != spec.n_latents:
            raise DomainError(f"log latents must have {spec.n_latents} entries per row, got shape {vmat.shape}")
        if not np.all(np.isfinite(vmat)):
            raise DomainError("log-joint needs finite log latents")
        n = vmat.shape[0]
        parts = [vmat[:, pb.latent_slice].reshape(n, *shape) for pb, (_, shape) in zip(spec.blocks, stacks)]
        return parts[: m.n_layers], parts[m.n_layers :]

    def log_joint_batch(vmat, grad=False):
        return _def_log_joint_stack(m, *unpack(vmat), grad=grad)

    spec = ModelSpec([LatentBlock(name, "gamma_mean_shape", a * b) for name, (a, b) in stacks], log_joint_batch)
    return spec


def _poisson_draw(lam: float, stream: RandomStream) -> int:
    """Exact Poisson count via unit-exponential arrivals (any finite rate)."""
    if lam <= 0.0:
        return 0
    k = 0
    t = -math.log(stream.uniform_open())
    while t <= lam:
        k += 1
        t += -math.log(stream.uniform_open())
    return k


def make_synthetic_def_data(layer_sizes, n_obs: int, n_dim: int, stream: RandomStream):
    """Ancestral draw from the generative model itself, with SparseGammaDEF's
    fixed priors.

    Returns (counts matrix, dict of generating latents).
    """
    sizes = tuple(int(k) for k in layer_sizes)
    if not sizes or any(k < 1 for k in sizes) or n_obs < 1 or n_dim < 1:
        raise DomainError("layer sizes, n_obs and n_dim must be positive")
    alpha_z = SparseGammaDEF.alpha_z
    wa, wb = SparseGammaDEF.weight_prior
    ws = []
    for shape in _weight_shapes(sizes, n_dim):
        bank = make_sampler_bank(np.full(shape[0] * shape[1], wa), wb, 0)
        ws.append(bank.draw(stream).z.reshape(shape))
    ta, tb = SparseGammaDEF.top_prior
    zs = [None] * len(sizes)
    bank = make_sampler_bank(np.full(n_obs * sizes[-1], ta), tb, 0)
    zs[-1] = bank.draw(stream).z.reshape(n_obs, sizes[-1])
    for l in range(len(sizes) - 2, -1, -1):
        mean = zs[l + 1] @ ws[l + 1].T
        mean = np.maximum(mean, POISSON_RATE_FLOOR)
        rates = (alpha_z / mean).ravel()
        bank = make_sampler_bank(np.full(rates.size, alpha_z), rates, 0)
        zs[l] = bank.draw(stream).z.reshape(n_obs, sizes[l])
    lam = zs[0] @ ws[0]
    counts = np.empty((n_obs, n_dim), dtype=np.int64)
    for i in range(n_obs):
        for j in range(n_dim):
            counts[i, j] = _poisson_draw(float(lam[i, j]), stream)
    latents = {f"z{l + 1}": zs[l] for l in range(len(sizes))}
    latents.update({f"w{l}": ws[l] for l in range(len(ws))})
    return counts, latents
