"""Stochastic gradient ascent on the variational objective.

Optimization happens in unconstrained space through the softplus map, with
the rmsprop/Adagrad-hybrid step-size schedule
rho_n = eta * n^(-1/2 + delta) * (1 + sqrt(s_n))^(-1),
s_n = t * g_n^2 + (1 - t) * s_(n-1), elementwise.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorConfig, ThetaState, estimate, estimate_elbo
from .exceptions import DomainError, OptimizerAbortError
from .mathcore import RandomStream

__all__ = [
    "softplus",
    "softplus_inv",
    "softplus_jacobian",
    "OptimizerState",
    "init_optimizer",
    "step_size",
    "TraceRecord",
    "RunConfig",
    "run_rsvi",
    "trace_stability",
]

log = logging.getLogger(__name__)

# exponent offset delta and second-moment weight t of the step schedule
STEP_DELTA = 1e-16
STEP_MOMENT_WEIGHT = 0.1
# consecutive failed iterations that abort a run
MAX_FAILURES = 3


def softplus(x):
    """theta = ln(1 + e^x); overflow-safe at both tails."""
    out = np.logaddexp(0.0, np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def softplus_inv(theta):
    """x with softplus(x) = theta, theta > 0.

    Large theta uses theta + log1p(-exp(-theta)); small theta uses
    log(expm1(theta)). Mutually inverse with softplus to ~1e-10 across
    [1e-6, 1e6].
    """
    arr = np.asarray(theta, dtype=float)
    if arr.size == 0 or not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
        raise DomainError("softplus_inv requires theta > 0")
    big = arr > 0.6931471805599453
    out = np.empty_like(arr)
    out[big] = arr[big] + np.log1p(-np.exp(-arr[big]))
    out[~big] = np.log(np.expm1(arr[~big]))
    return float(out) if np.ndim(theta) == 0 else out


def softplus_jacobian(x):
    """d softplus / dx = sigmoid(x), elementwise (the diagonal Jacobian)."""
    arr = np.asarray(x, dtype=float)
    pos = arr >= 0.0
    out = np.empty_like(arr)
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    enx = np.exp(arr[~pos])
    out[~pos] = enx / (1.0 + enx)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class OptimizerState:
    """Iteration counter and running second moment for the step schedule."""

    n: int
    s: np.ndarray
    eta: float


def init_optimizer(eta: float, n_params: int) -> OptimizerState:
    if not (eta > 0.0 and math.isfinite(eta)):
        raise DomainError("eta must be positive and finite")
    return OptimizerState(n=1, s=np.zeros(int(n_params)), eta=float(eta))


def step_size(state: OptimizerState, g: np.ndarray):
    """(rho, next state) for gradient g at iteration state.n.

    The first step seeds the second moment with the squared gradient itself
    (s_1 = g_1^2); afterwards s follows the exponential recursion.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != state.s.shape or not np.all(np.isfinite(g)):
        raise DomainError("step_size requires a finite gradient of matching shape")
    t = STEP_MOMENT_WEIGHT
    # a gradient entry above about 1.3e154 squares to inf; s = inf gives
    # rho = 0, the schedule's own limit at such a gradient
    with np.errstate(over="ignore"):
        s = g * g if state.n == 1 else t * (g * g) + (1.0 - t) * state.s
    rho = state.eta * float(state.n) ** (-0.5 + STEP_DELTA) / (1.0 + np.sqrt(s))
    nxt = OptimizerState(n=state.n + 1, s=s, eta=state.eta)
    return rho, nxt


def _norm(v) -> float:
    """np.linalg.norm of a finite vector, redone on v / max|v| where the sum
    of squares overflows; a finite norm keeps its bits."""
    with np.errstate(over="ignore"):
        out = float(np.linalg.norm(v))
    if math.isinf(out):
        top = float(np.max(np.abs(v)))
        out = top * float(np.linalg.norm(v / top))
    return out


@dataclass(frozen=True)
class TraceRecord:
    """One optimization iteration as reported to traces.

    wall_clock is seconds since the run started; everything else is a pure
    function of (seed, config).
    """

    iteration: int
    elbo: float
    step_norm: float
    grad_norm: float
    wall_clock: float
    trials: int
    accept_rate: float


@dataclass(frozen=True)
class RunConfig:
    estimator: EstimatorConfig = EstimatorConfig()
    eta: float = 0.75
    max_iters: int = 1000
    elbo_draws: int = 100
    stop_tol: float | None = 1e-6
    stop_window: int = 200

    def __post_init__(self):
        if self.max_iters < 0 or self.elbo_draws < 1 or self.stop_window < 1:
            raise DomainError("bad run configuration")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise DomainError("eta must be positive and finite")
        if self.stop_tol is not None and not math.isfinite(self.stop_tol):
            raise DomainError("stop_tol must be finite or None")


def run_rsvi(model, theta_init, cfg: RunConfig, stream: RandomStream):
    """Optimize the variational parameters; returns (theta, trace list).

    Ascent in unconstrained space: phi += rho * g_phi with g_phi the
    estimator output pushed through the softplus chain rule. Iteration i
    draws its gradient from stream.child(2i) and its reported ELBO from
    fresh draws on stream.child(2i+1), so failures cannot shift the random
    stream of later iterations. Stops at max_iters, or earlier once the
    relative improvement of the stop_window-iteration ELBO moving average
    drops below stop_tol.

    A numerical failure (DomainError or RuntimeError) in the gradient
    estimate, the step, or the reported ELBO fails the iteration: its step
    is discarded, so parameters and optimizer state stay at the last
    iterate whose gradient and ELBO were both finite, and no trace record
    is written. MAX_FAILURES consecutive failed iterations abort with an
    OptimizerAbortError that carries that iterate and the partial trace.

    Each iterate's ThetaState is built once, by the iteration whose step
    reaches it, and serves both that step's ELBO and the next iteration's
    gradient estimate.
    """
    n_params = model.n_params
    theta0 = np.asarray(theta_init, dtype=float)
    if theta0.shape != (n_params,) or not (np.all(np.isfinite(theta0)) and np.all(theta0 > 0.0)):
        raise DomainError(f"theta_init must be positive with shape ({n_params},)")
    phi = softplus_inv(theta0)
    state = init_optimizer(cfg.eta, n_params)
    trace: list[TraceRecord] = []
    elbos: list[float] = []
    n_latents = model.n_latents
    failures = 0
    at_phi = None  # the ThetaState of softplus(phi), once built
    start = time.perf_counter()
    for it in range(1, cfg.max_iters + 1):
        try:
            if at_phi is None:
                at_phi = ThetaState(model, softplus(phi))
            est = estimate(model, at_phi.theta, cfg.estimator, stream.child(2 * it), state=at_phi)
            g_phi = est.total * softplus_jacobian(phi)
            rho, next_state = step_size(state, g_phi)
            next_phi = phi + rho * g_phi
            at_next = ThetaState(model, softplus(next_phi))
            elbo = estimate_elbo(model, at_next.theta, cfg.elbo_draws, stream.child(2 * it + 1), state=at_next)
        except (DomainError, RuntimeError) as exc:
            failures += 1
            log.warning("numerical failure at iteration %d (%d consecutive): %s", it, failures, exc)
            if failures >= MAX_FAILURES:
                raise OptimizerAbortError(
                    f"{failures} consecutive numerical failures at iteration {it}: {exc}",
                    softplus(phi),
                    trace,
                ) from exc
            continue
        failures = 0
        phi, state, at_phi = next_phi, next_state, at_next
        trace.append(
            TraceRecord(
                iteration=it,
                elbo=elbo,
                step_norm=_norm(rho),
                grad_norm=_norm(g_phi),
                wall_clock=time.perf_counter() - start,
                trials=est.trials,
                accept_rate=n_latents * est.draws / est.trials if est.trials else 1.0,
            )
        )
        elbos.append(elbo)
        if cfg.stop_tol is not None and len(elbos) >= 2 * cfg.stop_window:
            recent = float(np.mean(elbos[-cfg.stop_window :]))
            previous = float(np.mean(elbos[-2 * cfg.stop_window : -cfg.stop_window]))
            if (recent - previous) / max(1.0, abs(previous)) < cfg.stop_tol:
                break
    return softplus(phi), trace


def trace_stability(trace) -> bool:
    """Whether the windowed ELBO means are non-decreasing over the last 1000
    iterations.

    Those iterations are cut into ten consecutive 100-iteration blocks (the
    moving average sampled every 100 iterations). Because the reported ELBO
    is a Monte Carlo estimate, "non-decreasing" allows each block mean to dip
    below its predecessor by at most 3 standard errors of the difference (SEs
    estimated from the within-block scatter); a genuine ELBO collapse exceeds
    that band and fails.
    """
    if len(trace) < 1000:
        return False
    blocks = np.array([r.elbo for r in trace[-1000:]], dtype=float).reshape(10, 100)
    means = blocks.mean(axis=1)
    ses = blocks.std(axis=1, ddof=1) / math.sqrt(100)
    slack = 3.0 * np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2)
    return bool(np.all(np.diff(means) >= -slack))
