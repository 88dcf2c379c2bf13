"""Monte Carlo gradient estimators for the variational objective.

Three estimators share one parameter layout: the decomposed pathwise
estimator (a reparameterization term from the accepted proposal plus a
correction term for the target/proposal mismatch plus the analytic entropy
gradient), the plain score-function estimator, and an importance-weighted
variant that skips the accept step and weights by the target/proposal ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DirichletParams, dirichlet_entropy, dirichlet_entropy_grad
from .exceptions import ContractError, DomainError
from .mathcore import RandomStream, StreamBatch, digamma, log_gamma_fn, trigamma
from .models import ModelSpec
from .rejection import BankDraw, _augment, dh_dalpha, make_sampler_bank

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "VarianceProfile",
    "ParamBlock",
    "param_layout",
    "default_theta_init",
    "grad_log_ratio_gamma",
    "estimate_gradient",
    "estimate_gradient_score",
    "estimate_gradient_importance",
    "estimate",
    "variance_profile",
    "estimate_elbo",
    "entropy_total",
]

ESTIMATOR_KINDS = ("rsvi", "score_function", "importance")


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, with B augmentation steps and S draws.

    A single draw per estimate (draws=1) is the default; averaging S draws
    divides the variance by roughly S.
    """

    kind: str = "rsvi"
    aug_b: int = 1
    draws: int = 1

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ContractError(f"unknown estimator kind {self.kind!r}")
        if int(self.aug_b) < 0:
            raise ContractError("aug_b must be >= 0")
        if int(self.draws) < 1:
            raise ContractError("draws per estimate must be >= 1")
        object.__setattr__(self, "aug_b", int(self.aug_b))
        object.__setattr__(self, "draws", int(self.draws))

    @property
    def label(self) -> str:
        return f"{self.kind}(B={self.aug_b})" if self.kind != "score_function" else self.kind


@dataclass(frozen=True)
class GradientEstimate:
    """Per-parameter estimate split into its three components.

    total is exactly g_rep + g_cor + g_entropy, kept separate so the
    correction term can be profiled on its own.
    """

    g_rep: np.ndarray
    g_cor: np.ndarray
    g_entropy: np.ndarray
    total: np.ndarray
    draws: int
    trials: int


@dataclass(frozen=True)
class VarianceProfile:
    means: np.ndarray
    variances: np.ndarray
    vmin: float
    vmedian: float
    vmax: float
    label: str
    sample_count: int


@dataclass(frozen=True)
class ParamBlock:
    name: str
    family: str
    dim: int
    latent_slice: slice
    theta_slice: slice


def param_layout(model: ModelSpec) -> tuple[list[ParamBlock], int]:
    """Map each latent block to its slice of the variational parameter vector.

    gamma_mean_shape blocks pack [shapes..., means...] (2*dim entries);
    dirichlet blocks pack their concentration vector (dim entries).
    """
    blocks = []
    lat = 0
    par = 0
    for lb in model.latent_layout:
        width = 2 * lb.dim if lb.family == "gamma_mean_shape" else lb.dim
        blocks.append(
            ParamBlock(
                name=lb.name,
                family=lb.family,
                dim=lb.dim,
                latent_slice=slice(lat, lat + lb.dim),
                theta_slice=slice(par, par + width),
            )
        )
        lat += lb.dim
        par += width
    return blocks, par


def default_theta_init(model: ModelSpec) -> np.ndarray:
    """Deterministic initialization: gamma shape 0.5 / mean 1.0, Dirichlet 1."""
    blocks, n = param_layout(model)
    theta = np.empty(n)
    for pb in blocks:
        if pb.family == "gamma_mean_shape":
            theta[pb.theta_slice.start : pb.theta_slice.start + pb.dim] = 0.5
            theta[pb.theta_slice.start + pb.dim : pb.theta_slice.stop] = 1.0
        else:
            theta[pb.theta_slice] = 1.0
    return theta


def _check_theta(theta, n_params) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_params,):
        raise ContractError(f"theta must have shape ({n_params},), got {theta.shape}")
    if not (np.isfinite(theta).all() and (theta > 0.0).all()):
        raise DomainError("variational parameters must be positive and finite")
    return theta


def _block_params(theta: np.ndarray, pb: ParamBlock):
    seg = theta[pb.theta_slice]
    if pb.family == "gamma_mean_shape":
        return seg[: pb.dim], seg[pb.dim :]
    return seg


def grad_log_ratio_gamma(eps, alpha):
    """d/d alpha of the target/proposal log-ratio at the accepted eps.

    Sum of the target-density derivative ln h + (alpha-1) h_a / h - h_a
    - psi(alpha) and the Jacobian derivative 1/(2(alpha - 1/3))
    - 9 eps / ((1 + eps/s)(9 alpha - 3)^(3/2)); h_a is dh/dalpha. Drops to
    zero as alpha grows, which is exactly why the correction term vanishes
    for well-behaved shapes.
    """
    scalar = np.ndim(eps) == 0 and np.ndim(alpha) == 0
    eps = np.asarray(eps, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if not (np.all(np.isfinite(alpha)) and np.all(alpha >= 1.0)):
        raise DomainError("grad_log_ratio_gamma requires alpha >= 1")
    s2 = 9.0 * alpha - 3.0
    s = np.sqrt(s2)
    y = 1.0 + eps / s
    if not np.all(np.isfinite(eps)) or np.any(y <= 0.0):
        raise DomainError("grad_log_ratio_gamma: eps outside the transform support")
    d = alpha - 1.0 / 3.0
    h = d * (y * y * y)
    ha = y * y * (y - 1.5 * (eps / s))
    dlogq = np.log(h) + (alpha - 1.0) * ha / h - ha - digamma(alpha)
    dlogjac = 0.5 / d - 9.0 * eps / (y * s2 * s)
    out = dlogq + dlogjac
    return float(out) if scalar else out


def _entropy_parts(blocks, theta):
    """Analytic entropy value and per-parameter gradient (memoized on theta)."""
    layout_key = tuple((pb.family, pb.dim) for pb in blocks)
    return _entropy_parts_cached(layout_key, tuple(float(t) for t in theta))


@lru_cache(maxsize=1024)
def _entropy_parts_cached(layout_key, theta_key):
    theta = np.array(theta_key)
    n = theta.size
    grad = np.zeros(n)
    value = 0.0
    pos = 0
    for family, dim in layout_key:
        if family == "gamma_mean_shape":
            shapes = theta[pos : pos + dim]
            means = theta[pos + dim : pos + 2 * dim]
            value += float(
                np.sum(
                    shapes
                    - np.log(shapes / means)
                    + _lgamma_vec(shapes)
                    + (1.0 - shapes) * digamma(shapes)
                )
            )
            grad[pos : pos + dim] = 1.0 + (1.0 - shapes) * trigamma(shapes) - 1.0 / shapes
            grad[pos + dim : pos + 2 * dim] = 1.0 / means
            pos += 2 * dim
        else:
            p = DirichletParams(theta[pos : pos + dim])
            value += dirichlet_entropy(p)
            grad[pos : pos + dim] = dirichlet_entropy_grad(p)
            pos += dim
    grad.flags.writeable = False
    return value, grad


@lru_cache(maxsize=1024)
def _score_consts_cached(layout_key, theta_key):
    """theta-only pieces of the score vectors, one entry per block."""
    theta = np.array(theta_key)
    consts = []
    pos = 0
    for family, dim in layout_key:
        if family == "gamma_mean_shape":
            shapes = theta[pos : pos + dim]
            means = theta[pos + dim : pos + 2 * dim]
            consts.append((np.log(shapes / means) - digamma(shapes), shapes, means))
            pos += 2 * dim
        else:
            conc = theta[pos : pos + dim]
            consts.append((digamma(float(conc.sum())) - digamma(conc), None, None))
            pos += dim
    return consts


def _lgamma_vec(x):
    return log_gamma_fn(np.asarray(x, dtype=float))


def _glr_psi(eps, alpha, psi_alpha):
    """grad_log_ratio_gamma with psi(alpha) supplied (bank-cached).

    The estimators pass alpha and psi(alpha) as (1, k) rows against
    (replicates, k) eps, so a single replicate needs no broadcasting.
    """
    s2 = 9.0 * alpha - 3.0
    s = np.sqrt(s2)
    y = 1.0 + eps / s
    d = alpha - 1.0 / 3.0
    h = d * (y * y * y)
    ha = y * y * (y - 1.5 * (eps / s))
    return np.log(h) + (alpha - 1.0) * ha / h - ha - psi_alpha + 0.5 / d - 9.0 * eps / (y * s2 * s)


def _make_bank(pb, theta, aug_b):
    """The sampler bank for one block: Gam(shape, shape/mean) or Gam(conc, 1)."""
    if pb.family == "gamma_mean_shape":
        shapes, means = _block_params(theta, pb)
        return make_sampler_bank(shapes, shapes / means, aug_b)
    return make_sampler_bank(_block_params(theta, pb), 1.0, aug_b)


# Latent draws per chunk of replicates in variance_profile. It bounds the
# chunk's memory; results do not depend on it, because every replicate
# draws from its own stream.
_CHUNK_DRAWS = 2**13


@dataclass
class _Plan:
    """What an estimate needs that depends on theta alone, built once per call:
    the block layout, one sampler bank per block, the analytic entropy
    gradient and, for the score-function kind, its theta-only constants."""

    model: ModelSpec
    cfg: EstimatorConfig
    theta: np.ndarray
    blocks: list
    n_params: int
    banks: list
    g_entropy: np.ndarray
    score_consts: list | None


def _plan(model, theta, cfg) -> _Plan:
    blocks, n_params = param_layout(model)
    theta = _check_theta(theta, n_params)
    _, g_entropy = _entropy_parts(blocks, theta)
    banks = [_make_bank(pb, theta, cfg.aug_b) for pb in blocks]
    consts = None
    if cfg.kind == "score_function":
        layout_key = tuple((pb.family, pb.dim) for pb in blocks)
        consts = _score_consts_cached(layout_key, tuple(float(t) for t in theta))
    return _Plan(model, cfg, theta, blocks, n_params, banks, g_entropy, consts)


def _sample_blocks(plan, rows):
    """One z per latent and replicate via the rejection banks; returns materials."""
    return [(pb, bank, bank.draw_streams(rows)) for pb, bank in zip(plan.blocks, plan.banks)]


def _block_log_latents(pb, log_z):
    """Log latents of one block: the draws, or their log simplex point."""
    if pb.family == "gamma_mean_shape":
        return log_z
    return log_z - np.logaddexp.reduce(log_z, axis=-1, keepdims=True)


def _latents_from_mats(mats, n_latents):
    """(replicates, n_latents) log latents, blocks in layout order."""
    lz_full = np.empty((mats[0][2].log_z.shape[0], n_latents))
    for pb, _bank, bd in mats:
        lz_full[:, pb.latent_slice] = _block_log_latents(pb, bd.log_z)
    return lz_full


def _eval_model(model, lz_full):
    """log p and d log p / d log z at every row, one callback pair per row."""
    f = np.empty(lz_full.shape[0])
    gf = np.empty(lz_full.shape)
    for g, lz in enumerate(lz_full):
        fg = float(model.log_joint(lz))
        if not math.isfinite(fg):
            raise DomainError(f"estimate rejected: log-joint is non-finite ({fg!r}) at log z = {lz!r}")
        gg = np.asarray(model.grad_latents(lz), dtype=float)
        if gg.shape != lz.shape or not np.isfinite(gg).all():
            raise DomainError("estimate rejected: latent gradient is non-finite or mis-shaped")
        f[g] = fg
        gf[g] = gg
    return f, gf


def _pathwise_terms(pb, bank, bd, theta, g_block, lz_block, weight=None):
    """g_rep contributions for one block: df/dlog z dot d log z / d theta.

    One row per replicate. The shape path runs through the transform
    (d ln h/dalpha), the augmentation uniforms' exponents (aug_dsum), and
    -- for mean-shape blocks -- the rate shape/mean, which contributes
    -1/shape; the mean path is d ln z/d mean = 1/mean. Dirichlet blocks
    route through the simplex normalization, d ln z_k/d ln z1_j =
    delta_kj - z_j. `weight` holds one importance weight per row.
    """
    dlogz1_da = dh_dalpha(bd.eps, bank.eff_shapes[None]) / bd.h + bd.aug_dsum
    if pb.family == "gamma_mean_shape":
        shapes, means = _block_params(theta, pb)
        rep = np.concatenate([g_block * (dlogz1_da - 1.0 / shapes), g_block / means], axis=-1)
    else:
        rep = (g_block - np.exp(lz_block) * g_block.sum(axis=-1, keepdims=True)) * dlogz1_da
    return rep if weight is None else rep * weight[:, None]


def _draw_rsvi(plan, rows):
    mats = _sample_blocks(plan, rows)
    lz_full = _latents_from_mats(mats, plan.model.n_latents)
    f, gf = _eval_model(plan.model, lz_full)
    g_rep = np.zeros((rows.size, plan.n_params))
    g_cor = np.zeros((rows.size, plan.n_params))
    trials = np.zeros(rows.size, dtype=np.int64)
    for pb, bank, bd in mats:
        trials += bd.trials.sum(axis=1)
        sl = pb.latent_slice
        g_rep[:, pb.theta_slice] = _pathwise_terms(pb, bank, bd, plan.theta, gf[:, sl], lz_full[:, sl])
        glr = _glr_psi(bd.eps, bank.eff_shapes[None], bank.psi_eff[None])
        g_cor[:, pb.theta_slice.start : pb.theta_slice.start + pb.dim] = f[:, None] * glr
    return g_rep, g_cor, trials


def _draw_score(plan, rows):
    mats = _sample_blocks(plan, rows)
    lz_full = _latents_from_mats(mats, plan.model.n_latents)
    f, _ = _eval_model(plan.model, lz_full)
    f = f[:, None]
    g_cor = np.zeros((rows.size, plan.n_params))
    trials = np.zeros(rows.size, dtype=np.int64)
    for (pb, _bank, bd), (const, shapes, means) in zip(mats, plan.score_consts):
        trials += bd.trials.sum(axis=1)
        lz = lz_full[:, pb.latent_slice]
        if pb.family == "gamma_mean_shape":
            d_rate = means - np.exp(lz)  # shape/rate - z with rate = shape/mean
            d_a = const + lz + d_rate / means
            d_mu = d_rate * (-shapes / (means * means))
            g_cor[:, pb.theta_slice] = f * np.concatenate([d_a, d_mu], axis=1)
        else:
            g_cor[:, pb.theta_slice] = f * (lz + const)
    return np.zeros((rows.size, plan.n_params)), g_cor, trials


def _draw_importance(plan, rows):
    """Propose eps ~ s directly and weight both terms by prod q/r.

    Proposals past the transform boundary carry weight zero (the target
    density vanishes there), which zeroes the whole product weight: such a
    replicate's terms are zero and its model is not evaluated.
    """
    n_rows = rows.size
    drawn = []
    log_w = np.zeros(n_rows)
    valid = np.ones(n_rows, dtype=bool)
    for pb, bank in zip(plan.blocks, plan.banks):
        eps = rows.std_normals(pb.dim)
        eff = bank.eff_shapes
        y = 1.0 + eps / np.sqrt(9.0 * eff - 3.0)
        inside = y > 0.0
        valid &= inside.all(axis=1)
        y = np.where(inside, y, 1.0)
        h = (eff - 1.0 / 3.0) * y**3
        aug_u = rows.uniforms_open(bank.max_b * pb.dim).reshape(n_rows, bank.max_b, pb.dim)
        log_prod_u, aug_dsum = _augment(bank.shapes, bank.b_steps, aug_u)
        # rows past the boundary accumulate a finite value that is never used
        log_w += _log_ratio_vec(eps, y, eff, bank.log_M).sum(axis=1)
        log_z = np.log(h) + log_prod_u - np.log(bank.rates)
        drawn.append((pb, bank, (eps, h, aug_dsum, log_z, np.ones(eps.shape, dtype=np.int64), aug_u)))
    g_rep = np.zeros((n_rows, plan.n_params))
    g_cor = np.zeros((n_rows, plan.n_params))
    n_proposals = np.full(n_rows, sum(pb.dim for pb in plan.blocks), dtype=np.int64)
    keep = np.flatnonzero(valid)
    if not keep.size:
        return g_rep, g_cor, n_proposals
    mats = [(pb, bank, BankDraw(*(a[keep] for a in fields))) for pb, bank, fields in drawn]
    weight = np.array([math.exp(w) for w in log_w[keep]])
    lz_full = _latents_from_mats(mats, plan.model.n_latents)
    f, gf = _eval_model(plan.model, lz_full)
    wf = (weight * f)[:, None]
    for pb, bank, bd in mats:
        sl = pb.latent_slice
        g_rep[keep, pb.theta_slice] = _pathwise_terms(
            pb, bank, bd, plan.theta, gf[:, sl], lz_full[:, sl], weight=weight
        )
        glr = _glr_psi(bd.eps, bank.eff_shapes[None], bank.psi_eff[None])
        g_cor[keep, pb.theta_slice.start : pb.theta_slice.start + pb.dim] = wf * glr
    return g_rep, g_cor, n_proposals


def _log_ratio_vec(eps, y, alpha, log_m):
    """Vectorized target/proposal log-ratio at the effective shapes.

    y = 1 + eps / sqrt(9 alpha - 3). log_M (the bank's envelope constant,
    the ratio's value at its mode eps = 0) plus the Marsaglia-Tsang kernel
    log_ratio - log_M.
    """
    d = alpha - 1.0 / 3.0
    v = y * y * y
    return log_m + 0.5 * eps * eps + d * (1.0 - v + 3.0 * np.log(y))


_DRAW_FNS = {
    "rsvi": _draw_rsvi,
    "score_function": _draw_score,
    "importance": _draw_importance,
}


def _estimate_rows(plan, rows):
    """One estimate per stream of `rows`: (g_rep, g_cor, total, trials) by row.

    Row g is the estimate `estimate` makes from stream g alone: every
    operation here acts row by row, the model runs once per row, and the
    draws of a replicate come one after another from its stream.
    """
    g_rep = np.zeros((rows.size, plan.n_params))
    g_cor = np.zeros((rows.size, plan.n_params))
    trials = np.zeros(rows.size, dtype=np.int64)
    draw_fn = _DRAW_FNS[plan.cfg.kind]
    # a draw starts where the previous one's rejection rounds left each
    # stream, so the draws run in turn rather than side by side
    for _ in range(plan.cfg.draws):
        rep, cor, t = draw_fn(plan, rows)
        g_rep += rep
        g_cor += cor
        trials += t
    g_rep /= plan.cfg.draws
    g_cor /= plan.cfg.draws
    total = g_rep + g_cor + plan.g_entropy[None]
    if not np.isfinite(total).all():
        raise DomainError("estimate rejected: non-finite gradient component")
    return g_rep, g_cor, total, trials


def _run_estimator(model, theta, cfg, stream):
    plan = _plan(model, theta, cfg)
    rows = StreamBatch.of((stream,))
    try:
        g_rep, g_cor, total, trials = _estimate_rows(plan, rows)
    finally:
        rows.sync()
    return GradientEstimate(
        g_rep=g_rep[0],
        g_cor=g_cor[0],
        g_entropy=plan.g_entropy,
        total=total[0],
        draws=cfg.draws,
        trials=int(trials[0]),
    )


def estimate_gradient(model, theta, cfg: EstimatorConfig, stream: RandomStream) -> GradientEstimate:
    """Decomposed pathwise estimator (one accepted eps per latent).

    g_rep and g_cor come from the same draw; the entropy gradient is
    analytic. Unbiased for the gradient of E_q[f] + H[q].
    """
    if cfg.kind != "rsvi":
        raise ContractError(f"estimate_gradient runs kind='rsvi', got {cfg.kind!r}")
    return _run_estimator(model, theta, cfg, stream)


def estimate_gradient_score(model, theta, cfg, stream) -> GradientEstimate:
    """Score-function estimator: f(z) * grad log q(z) + analytic entropy grad.

    The score term is stored in the g_cor field (g_rep is zero); no control
    variates are applied.
    """
    if cfg.kind != "score_function":
        raise ContractError("estimate_gradient_score runs kind='score_function'")
    return _run_estimator(model, theta, cfg, stream)


def estimate_gradient_importance(model, theta, cfg, stream) -> GradientEstimate:
    """Importance-weighted estimator with weights prod q/r over all latents."""
    if cfg.kind != "importance":
        raise ContractError("estimate_gradient_importance runs kind='importance'")
    return _run_estimator(model, theta, cfg, stream)


def estimate(model, theta, cfg: EstimatorConfig, stream: RandomStream) -> GradientEstimate:
    """Dispatch on cfg.kind."""
    return _run_estimator(model, theta, cfg, stream)


def variance_profile(model, theta, cfg, G: int, stream: RandomStream) -> VarianceProfile:
    """Per-parameter sample mean and variance over G independent estimates.

    Replicate g draws from the child stream stream.child(g), so profiles
    are reproducible; `stream` itself is not advanced. The replicates are
    evaluated together, in chunks of about _CHUNK_DRAWS latent draws, and
    each one's total is bit-identical to
    estimate(model, theta, cfg, stream.child(g)).total.
    """
    G = int(G)
    if G < 2:
        raise ContractError("variance_profile needs G >= 2 replicates")
    plan = _plan(model, theta, cfg)
    per_chunk = max(1, _CHUNK_DRAWS // model.n_latents)
    totals = np.empty((G, plan.n_params))
    for lo in range(0, G, per_chunk):
        hi = min(G, lo + per_chunk)
        totals[lo:hi] = _estimate_rows(plan, StreamBatch.children(stream, lo, hi))[2]
    variances = totals.var(axis=0, ddof=1)
    # identical replicates have zero variance by definition, not roundoff dust
    variances[np.ptp(totals, axis=0) == 0.0] = 0.0
    return VarianceProfile(
        means=totals.mean(axis=0),
        variances=variances,
        vmin=float(variances.min()),
        vmedian=float(np.median(variances)),
        vmax=float(variances.max()),
        label=cfg.label,
        sample_count=G,
    )


def entropy_total(model, theta) -> float:
    """Analytic entropy of the full variational distribution at theta."""
    blocks, n_params = param_layout(model)
    value, _ = _entropy_parts(blocks, _check_theta(theta, n_params))
    return value


def estimate_elbo(model, theta, n_draws: int, stream: RandomStream) -> float:
    """Monte Carlo E_q[f] over fresh draws plus the analytic entropy.

    Raises DomainError when the estimate is not finite.
    """
    n_draws = int(n_draws)
    if n_draws < 1:
        raise ContractError("estimate_elbo needs n_draws >= 1")
    blocks, n_params = param_layout(model)
    theta = _check_theta(theta, n_params)
    lz_all = np.empty((n_draws, model.n_latents))
    for pb in blocks:
        log_z = _make_bank(pb, theta, 0).draw_batch(stream, n_draws).log_z
        lz_all[:, pb.latent_slice] = _block_log_latents(pb, log_z)
    value, _ = _entropy_parts(blocks, theta)
    batch_fn = getattr(model, "log_joint_batch", None)
    if batch_fn is not None:
        fbar = float(np.mean(batch_fn(lz_all)))
    else:
        fbar = sum(float(model.log_joint(lz_all[i])) for i in range(n_draws)) / n_draws
    elbo = fbar + value
    if not math.isfinite(elbo):
        raise DomainError(f"ELBO estimate is non-finite ({elbo!r})")
    return elbo
