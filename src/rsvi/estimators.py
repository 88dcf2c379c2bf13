"""Monte Carlo gradient estimators for the variational objective.

Three estimators share one parameter layout: the decomposed pathwise
estimator (a reparameterization term from the accepted proposal plus a
correction term for the target/proposal mismatch plus the analytic entropy
gradient), the plain score-function estimator, and an importance-weighted
variant that skips the accept step and weights by the target/proposal ratio.
The sampler's half of each term (d ln z/d alpha, d log(q/r)/d alpha, the
importance proposals) comes from `rejection`; this module forms no part of
the cube and keeps the model's chain rule, the families and the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _dirichlet_entropy,
    _dirichlet_entropy_grad,
    _gamma_entropy,
    _gamma_entropy_grad_mean_shape,
    _with_total,
)
from .exceptions import ContractError, DomainError
from .mathcore import RandomStream, StreamBatch, _gamma_fns
from .models import ModelSpec, ParamBlock
from .rejection import _build_bank, _propose, _shape_terms

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "VarianceProfile",
    "ThetaState",
    "default_theta_init",
    "estimate",
    "variance_profile",
    "estimate_elbo",
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


def default_theta_init(model: ModelSpec) -> np.ndarray:
    """Deterministic initialization: gamma shape 0.5 / mean 1.0, Dirichlet 1."""
    theta = np.ones(model.n_params)
    for pb in model.blocks:
        if pb.family == "gamma_mean_shape":
            theta[pb.shape_slice] = 0.5
    return theta


def _check_theta(theta, n_params) -> np.ndarray:
    theta = np.array(theta, dtype=float)
    if theta.shape != (n_params,):
        raise ContractError(f"theta must have shape ({n_params},), got {theta.shape}")
    if not (np.isfinite(theta).all() and (theta > 0.0).all()):
        raise DomainError("variational parameters must be positive and finite")
    theta.flags.writeable = False
    return theta


@dataclass(frozen=True)
class BlockState:
    """One parameter block at theta: the gamma shapes (or the Dirichlet
    concentrations), the means (None for Dirichlet), the rates shape/mean
    (ones for Dirichlet), and ln Gamma, digamma and trigamma of the shapes,
    followed for a Dirichlet block by those of the total concentration."""

    pb: ParamBlock
    shapes: np.ndarray
    means: np.ndarray | None
    rates: np.ndarray
    lgamma: np.ndarray
    psi: np.ndarray
    psi1: np.ndarray


class ThetaState:
    """What estimates and ELBOs at one theta need from theta alone.

    Building it checks theta (right shape, positive and finite, and every
    derived rate shape/mean positive and finite), evaluates the special
    functions of each block's shapes (and a Dirichlet block's total) in
    one call per block, and the analytic entropy and its gradient. It
    splits theta through the slices of `model.blocks`, one BlockState per
    block, and forms no slice of its own. `estimate` and `estimate_elbo`
    build one when none is passed; `run_rsvi` builds one per iterate and
    passes it to the ELBO of the step that reached the iterate and to the
    gradient estimate taken there. `theta` is a read-only copy.
    """

    def __init__(self, model: ModelSpec, theta):
        self.model = model
        self.theta = theta = _check_theta(theta, model.n_params)
        self.blocks = []
        self.g_entropy = grad = np.zeros(model.n_params)
        value = 0.0
        for pb in model.blocks:
            shapes = theta[pb.shape_slice]
            if pb.family == "gamma_mean_shape":
                means = theta[pb.mean_slice]
                with np.errstate(over="ignore", under="ignore"):
                    rates = shapes / means
                if not (np.isfinite(rates).all() and (rates > 0.0).all()):
                    raise DomainError("variational rates shape/mean must be positive and finite")
                args = shapes
            else:
                means, rates = None, np.full(pb.dim, 1.0)
                args = _with_total(shapes)
            bs = BlockState(pb, shapes, means, rates, *_gamma_fns(args, lgamma=True, psi=True, psi1=True))
            self.blocks.append(bs)
            if means is not None:
                value += float(np.sum(_gamma_entropy(shapes, rates, bs.lgamma, bs.psi)))
                grad[pb.shape_slice], grad[pb.mean_slice] = _gamma_entropy_grad_mean_shape(shapes, means, bs.psi1)
            else:
                value += _dirichlet_entropy(shapes, bs.lgamma, bs.psi)
                grad[pb.shape_slice] = _dirichlet_entropy_grad(shapes, bs.psi1)
        self.entropy = value
        self.g_entropy.flags.writeable = False

    def banks(self, aug_b: int) -> list:
        """One sampler bank per block: Gam(shape, shape/mean) or Gam(conc, 1)."""
        return [_build_bank(bs.shapes, bs.rates, aug_b) for bs in self.blocks]


def _state_for(model, theta, state) -> ThetaState:
    """`state` if it was built for this model and theta; a new one if None."""
    if state is None:
        return ThetaState(model, theta)
    if state.model is not model or not (state.theta is theta or np.array_equal(state.theta, theta)):
        raise ContractError("the ThetaState passed was built for another model or theta")
    return state


# Latent draws per chunk of draws in estimate_elbo's model calls: it
# bounds the model's temporaries, which on the DEF cost page faults past
# this size. Results do not depend on it: the model evaluates each row on
# its own.
_CHUNK_DRAWS = 2**13

# Most latent draws per pass of variance_profile's replicates through the
# estimate pipeline. Each pass pays the pipeline's few hundred numpy calls
# once, so the pass is as wide as memory allows; results do not depend on
# it, because every replicate draws from its own stream and every kernel
# acts row by row.
_PROFILE_DRAWS = 2**15


def _log_simplex(log_z, out=None):
    """Rows of log_z normalized onto the log simplex: log_z minus the
    log-sum-exp of its row.

    The log-sum-exp is a left-to-right fold of np.logaddexp along each
    row, run over the first axis of the transposed copy so that every step
    is one contiguous pass over all the rows.
    """
    lse = np.logaddexp.reduce(np.ascontiguousarray(log_z.T), axis=0)
    return np.subtract(log_z, lse[:, None], out=out)


def _log_latents(state, log_zs):
    """(rows, n_latents) log latents from one log-draw array per block, in
    layout order: a gamma block's draws, or a Dirichlet block's draws
    normalized onto the log simplex."""
    lz = np.empty((log_zs[0].shape[0], state.model.n_latents))
    for bs, log_z in zip(state.blocks, log_zs):
        if bs.pb.family == "gamma_mean_shape":
            lz[:, bs.pb.latent_slice] = log_z
        else:
            _log_simplex(log_z, out=lz[:, bs.pb.latent_slice])
    return lz


def _log_joint_values(f, n):
    """The model's log-joint batch as n floats; DomainError for another shape."""
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise DomainError(f"estimate rejected: log-joint batch has shape {f.shape}, expected ({n},)")
    return f


def _eval_model(model, lz, with_grad=True):
    """log p and, if with_grad, d log p / d log z at every row of `lz`: one
    batch callback for the whole matrix, asked for the gradient only when
    it is needed; the gradient is None without with_grad.

    A bad row raises DomainError as a row-by-row evaluation would: the
    first row whose log-joint or gradient is bad, its log-joint first.
    """
    n = lz.shape[0]
    f, gf = model.log_joint_batch(lz, grad=True) if with_grad else (model.log_joint_batch(lz), None)
    f = _log_joint_values(f, n)
    finite = np.isfinite(f)
    bad_f = n if finite.all() else int(np.argmin(finite))
    bad_g = n
    if with_grad:
        gf = np.asarray(gf, dtype=float)
        if gf.shape != lz.shape:
            bad_g = 0
        else:
            finite = np.isfinite(gf).all(axis=1)
            bad_g = n if finite.all() else int(np.argmin(finite))
    if bad_f < n and bad_f <= bad_g:
        raise DomainError(f"estimate rejected: log-joint is non-finite ({float(f[bad_f])!r}) at log z = {lz[bad_f]!r}")
    if bad_g < n:
        raise DomainError("estimate rejected: latent gradient is non-finite or mis-shaped")
    return f, gf


def _reparam_terms(state, banks, draws, lz, f, gf, weight=None):
    """g_rep and g_cor, one row per replicate, from each block's draws.

    `draws` holds (eps, h, aug_dsum) per block, `lz` the log latents, `f`
    the log-joint and `gf` its gradient in the log latents at each row;
    `weight`, when given, holds one importance weight per row.

    g_rep is df/dlog z dot d log z / d theta. The shape path runs through
    the sampler's d ln z/dalpha at a fixed rate (the bank's `_shape_terms`)
    and -- for mean-shape blocks -- the rate shape/mean, which contributes
    -1/shape; the mean path is d ln z/d mean = 1/mean. Dirichlet blocks
    route through the simplex normalization, d ln z_k/d ln z1_j
    = delta_kj - z_j. g_cor is f times the shape derivative of the
    log-ratio at the accepted eps, the bank's other shape term.
    """
    g_rep = np.zeros((lz.shape[0], state.model.n_params))
    g_cor = np.zeros((lz.shape[0], state.model.n_params))
    wf = f[:, None] if weight is None else (weight * f)[:, None]
    for bs, bank, draw in zip(state.blocks, banks, draws):
        pb = bs.pb
        g_block, lz_block = gf[:, pb.latent_slice], lz[:, pb.latent_slice]
        dlogz1_da, glr = _shape_terms(bank, *draw)
        if pb.family == "gamma_mean_shape":
            dlogz1_da -= 1.0 / bs.shapes
            np.multiply(g_block, dlogz1_da, out=g_rep[:, pb.shape_slice])
            np.divide(g_block, bs.means, out=g_rep[:, pb.mean_slice])
        else:
            rep = np.exp(lz_block)
            rep *= g_block.sum(axis=-1, keepdims=True)
            np.subtract(g_block, rep, out=rep)
            np.multiply(rep, dlogz1_da, out=g_rep[:, pb.theta_slice])
        if weight is not None:
            g_rep[:, pb.theta_slice] *= weight[:, None]
        np.multiply(wf, glr, out=g_cor[:, pb.shape_slice])
    return g_rep, g_cor


def _draw_rsvi(state, banks, rows):
    bds = [bank.draw_streams(rows) for bank in banks]
    lz = _log_latents(state, [bd.log_z for bd in bds])
    f, gf = _eval_model(state.model, lz)
    g_rep, g_cor = _reparam_terms(state, banks, [(bd.eps, bd.h, bd.aug_dsum) for bd in bds], lz, f, gf)
    return g_rep, g_cor, sum(bd.trials.sum(axis=1) for bd in bds)


def _draw_score(state, banks, rows):
    bds = [bank.draw_streams(rows) for bank in banks]
    lz_full = _log_latents(state, [bd.log_z for bd in bds])
    f = _eval_model(state.model, lz_full, with_grad=False)[0][:, None]
    g_cor = np.zeros((rows.size, state.model.n_params))
    for bs in state.blocks:
        pb = bs.pb
        lz = lz_full[:, pb.latent_slice]
        if pb.family == "gamma_mean_shape":
            shapes, means = bs.shapes, bs.means
            d_rate = means - np.exp(lz)  # shape/rate - z with rate = shape/mean
            d_a = (np.log(bs.rates) - bs.psi) + lz + d_rate / means
            d_mu = d_rate * (-shapes / (means * means))
            g_cor[:, pb.shape_slice] = f * d_a
            g_cor[:, pb.mean_slice] = f * d_mu
        else:
            g_cor[:, pb.theta_slice] = f * (lz + (bs.psi[-1] - bs.psi[:-1]))
    return np.zeros((rows.size, state.model.n_params)), g_cor, sum(bd.trials.sum(axis=1) for bd in bds)


def _draw_importance(state, banks, rows):
    """Propose eps ~ s directly and weight both terms by prod q/r.

    Proposals past the transform boundary carry weight zero (the target
    density vanishes there), which zeroes the whole product weight: such a
    replicate's terms are zero and its model is not evaluated.
    """
    n_rows = rows.size
    draws, log_zs = [], []
    log_w = np.zeros(n_rows)
    valid = np.ones(n_rows, dtype=bool)
    for bank in banks:
        eps, h, aug_dsum, log_z, bank_log_w, inside = _propose(bank, rows)
        valid &= inside.all(axis=1)
        # rows past the boundary accumulate a finite value that is never used
        log_w += bank_log_w
        draws.append((eps, h, aug_dsum))
        log_zs.append(log_z)
    g_rep = np.zeros((n_rows, state.model.n_params))
    g_cor = np.zeros((n_rows, state.model.n_params))
    # when every row is inside, the rows are taken as they are, not gathered
    keep = slice(None) if valid.all() else np.flatnonzero(valid)
    if valid.any():
        weight = np.array([math.exp(w) for w in log_w[keep]])
        lz = _log_latents(state, [log_z[keep] for log_z in log_zs])
        f, gf = _eval_model(state.model, lz)
        kept = [tuple(a[keep] for a in draw) for draw in draws]
        g_rep[keep], g_cor[keep] = _reparam_terms(state, banks, kept, lz, f, gf, weight=weight)
    return g_rep, g_cor, np.full(n_rows, state.model.n_latents, dtype=np.int64)


_DRAW_FNS = {
    "rsvi": _draw_rsvi,
    "score_function": _draw_score,
    "importance": _draw_importance,
}


def _estimate_rows(cfg, state, banks, rows):
    """One estimate per stream of `rows`: (g_rep, g_cor, total, trials) by row.

    `banks` are state.banks(cfg.aug_b). Row g is the estimate `estimate`
    makes from stream g alone: every operation here acts row by row, the
    model runs once per row, and the draws of a replicate come one after
    another from its stream.
    """
    draw_fn = _DRAW_FNS[cfg.kind]
    # a draw starts where the previous one's rejection rounds left each
    # stream, so the draws run in turn rather than side by side. The sums
    # start from the first draw's fresh arrays; + 0.0 turns its -0.0 into
    # +0.0, as a sum started from zeros does
    g_rep, g_cor, trials = draw_fn(state, banks, rows)
    g_rep += 0.0
    g_cor += 0.0
    for _ in range(cfg.draws - 1):
        rep, cor, t = draw_fn(state, banks, rows)
        g_rep += rep
        g_cor += cor
        trials += t
    if cfg.draws > 1:
        g_rep /= cfg.draws
        g_cor /= cfg.draws
    total = g_rep + g_cor + state.g_entropy[None]
    if not np.isfinite(total).all():
        raise DomainError("estimate rejected: non-finite gradient component")
    return g_rep, g_cor, total, trials


def estimate(
    model, theta, cfg: EstimatorConfig, stream: RandomStream, *, state: ThetaState | None = None
) -> GradientEstimate:
    """One gradient estimate of the kind cfg.kind, from `stream`.

    - rsvi: the decomposed pathwise estimator, one accepted eps per latent.
      g_rep and g_cor come from the same draw; unbiased for the gradient of
      E_q[f] + H[q].
    - score_function: f(z) * grad log q(z), stored in g_cor (g_rep is
      zero); no control variates are applied.
    - importance: both terms weighted by prod q/r over all latents.

    The entropy gradient is analytic. `state`, when given, is the
    ThetaState of this model and theta; the estimate then reuses its
    special functions and entropy gradient instead of building them, with
    the same result.
    """
    state = _state_for(model, theta, state)
    g_rep, g_cor, total, trials = _estimate_rows(cfg, state, state.banks(cfg.aug_b), stream._row)
    return GradientEstimate(
        g_rep=g_rep[0],
        g_cor=g_cor[0],
        g_entropy=state.g_entropy,
        total=total[0],
        draws=cfg.draws,
        trials=int(trials[0]),
    )


def variance_profile(model, theta, cfg, G: int, stream: RandomStream) -> VarianceProfile:
    """Per-parameter sample mean and variance over G independent estimates.

    Replicate g draws from the child stream stream.child(g), so profiles
    are reproducible; `stream` itself is not advanced. The replicates are
    evaluated together, in the fewest passes of at most _PROFILE_DRAWS
    latent draws, split into chunks of equal size (the last may be
    smaller), so a pass's working memory stays bounded whatever G is.
    Each replicate's total is bit-identical to
    estimate(model, theta, cfg, stream.child(g)).total.
    """
    G = int(G)
    if G < 2:
        raise ContractError("variance_profile needs G >= 2 replicates")
    state = ThetaState(model, theta)
    banks = state.banks(cfg.aug_b)
    passes = -(-G // max(1, _PROFILE_DRAWS // model.n_latents))
    per_chunk = -(-G // passes)
    children = StreamBatch.children(stream, G)
    totals = np.empty((G, state.model.n_params))
    for lo in range(0, G, per_chunk):
        rows = StreamBatch(children.bases[lo : lo + per_chunk], children.counters[lo : lo + per_chunk])
        totals[lo : lo + per_chunk] = _estimate_rows(cfg, state, banks, rows)[2]
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
    )


def estimate_elbo(
    model, theta, n_draws: int, stream: RandomStream, *, state: ThetaState | None = None
) -> float:
    """Monte Carlo E_q[f] over fresh draws plus the analytic entropy.

    Raises DomainError when the estimate is not finite. `state` is as in
    `estimate`.
    """
    n_draws = int(n_draws)
    if n_draws < 1:
        raise ContractError("estimate_elbo needs n_draws >= 1")
    state = _state_for(model, theta, state)
    log_zs = [bank.draw_batch(stream, n_draws).log_z for bank in state.banks(0)]
    lz = _log_latents(state, log_zs)
    # the model runs on chunks of rows, which bounds its temporaries
    per_chunk = max(1, _CHUNK_DRAWS // model.n_latents)
    chunks = [lz[lo : lo + per_chunk] for lo in range(0, n_draws, per_chunk)]
    f = np.concatenate([_log_joint_values(model.log_joint_batch(c), len(c)) for c in chunks])
    elbo = float(np.mean(f)) + state.entropy
    if not math.isfinite(elbo):
        raise DomainError(f"ELBO estimate is non-finite ({elbo!r})")
    return elbo
