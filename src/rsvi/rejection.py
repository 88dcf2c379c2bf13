"""Reparameterized rejection sampling for gamma-family distributions.

The sampler targets Gam(alpha, 1) with alpha >= 1 through the smooth cube
transform of Marsaglia & Tsang (2000),

    z = h(eps, alpha) = (alpha - 1/3) * (1 + eps / sqrt(9 alpha - 3))^3,

with standard-normal proposals eps. The accepted eps keeps an analytic,
differentiable marginal density s(eps) * q(h(eps)) / r(h(eps)), which is what
the gradient estimators differentiate through. Shapes below one and variance
reduction both go through shape augmentation: a Gam(alpha, 1) variable equals
h(eps, alpha + B) * prod_i u_i^(1/(alpha + i - 1)) with B extra uniforms.
The sampler banks carry that product in log space,
ln z = ln h + sum_i ln(u_i)/(alpha + i - 1), because for small alpha the draw
itself often lies below the smallest positive double.

The cube, its shape derivative, the log-ratio and its shape derivative
each have one private kernel (`_h`, `_dh_dalpha`, `_log_ratio`,
`_glr_psi`), and so has a draw's tail, from y = 1 + eps/sqrt(9 alpha - 3)
to h, the augmentation derivative and ln z (`_draw_tail`). The estimators
get the sampler's half of the gradient from here, d ln z/d alpha and
d log(q/r)/d alpha (`_shape_terms`), and the importance proposals
(`_propose`), and never form the cube themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, SamplerStallError
from .mathcore import (
    _LN_SQRT_2PI,
    RandomStream,
    StreamBatch,
    _gamma_fns,
    _open_unit,
    _ppnd_array as _ppnd,
    _scalar_or_array,
    _stream_words,
    digamma,
)

__all__ = [
    "DEFAULT_TRIAL_BUDGET",
    "SamplerBank",
    "BankDraw",
    "h_gam",
    "dh_deps",
    "dh_dalpha",
    "log_ratio_q_over_r",
    "grad_log_ratio_gamma",
    "make_sampler_bank",
]

DEFAULT_TRIAL_BUDGET = 10**6


def _cube(name, eps, alpha):
    """Checked inputs of the cube transform and of the formulas built on it.

    Returns (scalar, eps, alpha, s, y) with s = sqrt(9 alpha - 3) and
    y = 1 + eps/s, after checking alpha >= 1, eps finite and y > 0: at or
    below eps = -s the cube leaves the gamma support, which the sampling
    loop treats as an automatic rejection instead of calling in here.
    """
    arr = np.asarray(alpha, dtype=float)
    if arr.size == 0 or not (np.isfinite(arr).all() and (arr >= 1.0).all()):
        raise DomainError(f"{name}: alpha must be >= 1 for the cube transform, got {alpha!r}")
    scalar = np.ndim(eps) == 0 and np.ndim(alpha) == 0
    eps = np.asarray(eps, dtype=float)
    if not np.isfinite(eps).all():
        raise DomainError(f"{name}: non-finite eps")
    s = np.sqrt(9.0 * arr - 3.0)
    y = 1.0 + eps / s
    if (y <= 0.0).any():
        raise DomainError(f"{name}: eps at or below the support boundary -sqrt(9 alpha - 3)")
    return scalar, eps, arr, s, y


def _h(alpha, y):
    """The cube transform (alpha - 1/3) y^3, y = 1 + eps/sqrt(9 alpha - 3).

    y has the full shape, so the cube takes the product in place.
    """
    v = y * y
    v *= y
    v *= alpha - 1.0 / 3.0
    return v


def _dh_dalpha(eps, s, y):
    """d h / d alpha = y^3 - (3/2)(eps/s) y^2 at s = sqrt(9 alpha - 3).

    The second term carries the derivative of 1/s through the cube.
    """
    return y * y * (y - 1.5 * (eps / s))


def _log_ratio(eps, y, alpha, log_m):
    """Target/proposal log-ratio at the shapes alpha, given log_M there.

    log_M is the ratio's value at its mode eps = 0, and the Marsaglia-Tsang
    kernel eps^2/2 + d (1 - y^3 + 3 ln y), d = alpha - 1/3, is the ratio
    minus log_M.
    """
    d = alpha - 1.0 / 3.0
    # in place on ln y, which has the full shape: (1 - y^3) + 3 ln y, times
    # d, plus log_M + eps^2/2
    out = np.log(y)
    out *= 3.0
    out += 1.0 - y * y * y
    out *= d
    out += log_m + 0.5 * eps * eps
    return out


def h_gam(eps, alpha):
    """Cube transform (alpha - 1/3)(1 + eps/sqrt(9 alpha - 3))^3, alpha >= 1.

    Raises DomainError when eps is at or below -sqrt(9 alpha - 3).
    """
    scalar, _eps, alpha, _s, y = _cube("h_gam", eps, alpha)
    return _scalar_or_array(scalar, _h(alpha, y))


def dh_deps(eps, alpha):
    """d h / d eps = 3 (alpha - 1/3)(1 + eps/sqrt(9a-3))^2 / sqrt(9a-3)."""
    scalar, _eps, alpha, s, y = _cube("dh_deps", eps, alpha)
    return _scalar_or_array(scalar, 3.0 * (alpha - 1.0 / 3.0) * (y * y) / s)


def dh_dalpha(eps, alpha):
    """d h / d alpha = (1 + eps/s)^3 - (3/2) (eps/s) (1 + eps/s)^2, s = sqrt(9a-3)."""
    scalar, eps, _alpha, s, y = _cube("dh_dalpha", eps, alpha)
    return _scalar_or_array(scalar, _dh_dalpha(eps, s, y))


def log_ratio_q_over_r(eps, alpha):
    """ln q(h(eps); alpha, 1) - ln r(h(eps); alpha) for the cube transform.

    The proposal density on z-space is r(z) = s(eps)/|dh/deps|, so the ratio
    is ln q(h) + ln dh/deps + eps^2/2 + ln(sqrt(2 pi)). Marginalizing the
    accept variable leaves the accepted eps distributed as
    pi(eps) = s(eps) exp(log_ratio), which integrates to one.
    """
    scalar, eps, alpha, _s, y = _cube("log_ratio_q_over_r", eps, alpha)
    return _scalar_or_array(scalar, _log_ratio(eps, y, alpha, _log_m_at_mode(alpha)))


def grad_log_ratio_gamma(eps, alpha):
    """d/d alpha of the target/proposal log-ratio at the accepted eps, alpha >= 1."""
    scalar, eps, alpha, s, y = _cube("grad_log_ratio_gamma", eps, alpha)
    return _scalar_or_array(scalar, _glr_psi(eps, alpha, digamma(alpha), s, y, _h(alpha, y), _dh_dalpha(eps, s, y)))


def _glr_psi(eps, alpha, psi_alpha, s, y, h, ha):
    """d/d alpha of the log-ratio, given psi(alpha) and the cube at eps:
    s = sqrt(9 alpha - 3), y = 1 + eps/s, h and ha = dh/dalpha.

    Sum of the target-density derivative ln h + (alpha-1) h_a / h - h_a
    - psi(alpha) and the Jacobian derivative 1/(2(alpha - 1/3))
    - 9 eps / ((1 + eps/s)(9 alpha - 3)^(3/2)). Drops to zero as alpha
    grows, which is exactly why the correction term vanishes for
    well-behaved shapes.
    """
    d = alpha - 1.0 / 3.0
    # in place on two arrays of h's shape (the full one, 0-d for scalars),
    # in the order of ln h + (alpha - 1) ha / h - ha - psi + 0.5 / d
    # - 9 eps / ((y (9 alpha - 3)) s)
    out = np.log(h, out=np.empty(np.shape(h)))
    t = np.multiply(ha, alpha - 1.0, out=np.empty(np.shape(h)))
    t /= h
    out += t
    out -= ha
    out -= psi_alpha
    out += 0.5 / d
    np.multiply(y, 9.0 * alpha - 3.0, out=t)
    # above a shape of about 3.5e204 the product is inf, and the term 0
    with np.errstate(over="ignore"):
        t *= s
    out -= np.divide(np.multiply(eps, 9.0), t, out=t)
    return out


def _log_m_at_mode(alpha):
    """Envelope constant ln M, the sup over eps of the log-ratio, alpha >= 1.

    For the cube transform the log-ratio derivative vanishes at eps = 0 and
    the ratio-minus-mode difference d [3 ln v - v^3 + 1 + 4.5 (v-1)^2] is
    non-positive for every v = 1 + c eps > 0, so the supremum is exactly the
    value at zero: (alpha - 1/2) ln(alpha - 1/3) - (alpha - 1/3)
    + ln(sqrt(2 pi)) - ln Gamma(alpha). exp(-log_M) is the sampler's
    acceptance probability. Shapes are taken to be checked.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    d = alpha_arr - 1.0 / 3.0
    out = (alpha_arr - 0.5) * np.log(d) - d + _LN_SQRT_2PI - _gamma_fns(alpha_arr, lgamma=True)[0]
    return _scalar_or_array(np.ndim(alpha) == 0, out)


# --- sampling -----------------------------------------------------------------


@dataclass(frozen=True)
class SamplerBank:
    """A vector of gamma rejection samplers with elementwise parameters.

    Heterogeneous shapes/rates share the stream in round-major order: each
    rejection round draws one proposal normal and one acceptance uniform for
    every still-active element, then augmentation draws `max_b` rows of
    uniforms for all elements (rows past an element's own step count are
    discarded), so draws are deterministic for a given stream. `draw` and
    `draw_batch` run `draw_streams`' layout on the stream's own one-row
    `StreamBatch`, which they advance in place, also when they raise.

    `cube_scale`, sqrt(9 eff - 3) at each effective shape, is formed once
    when the bank is built; the rejection rounds, the draws' cube and the
    shape terms read it. No field is lazy: `log_M`, the envelope
    constants, is computed on each read.
    """

    shapes: np.ndarray
    rates: np.ndarray
    b_steps: np.ndarray
    eff_shapes: np.ndarray
    cube_scale: np.ndarray

    @property
    def log_M(self) -> np.ndarray:
        return _log_m_at_mode(self.eff_shapes)

    @property
    def size(self) -> int:
        return self.shapes.size

    @property
    def max_b(self) -> int:
        return int(self.b_steps.max()) if self.size else 0

    def draw(self, stream: RandomStream) -> "BankDraw":
        return BankDraw(*(a[0] for a in _draw_rows(self, stream._row)))

    def draw_streams(self, streams: StreamBatch) -> "BankDraw":
        """One draw per element from each stream; every field gets a leading
        stream axis, and row s equals `draw` on stream s alone."""
        return BankDraw(*_draw_rows(self, streams))

    def draw_batch(self, stream: RandomStream, n: int) -> "BankDraw":
        """n independent draws per element from one stream; every field is (n, size).

        The stream is laid out as for one bank of n * size elements, the
        bank's parameters repeated n times.
        """
        n = int(n)
        if n < 0:
            raise DomainError("draw_batch needs n >= 0")
        return BankDraw(*_draw_rows(self, stream._row, reps=n))


def _draw_rows(bank: SamplerBank, streams: StreamBatch, reps: int = 1):
    """`reps` log-space draws per element of `bank` from each stream.

    Each stream is consumed as the rejection rounds of reps * bank.size
    elements (the bank's elements, repeated reps times), then max_b rows of
    augmentation uniforms, each over those elements. Returns (eps, h,
    aug_dsum, log_z, trials), each (streams * reps, bank.size): the rows of
    stream s are s * reps to (s + 1) * reps - 1. The bank's parameters
    broadcast as (size,) rows against them.
    """
    eps, trials = _rejection_rounds(bank, streams, reps)
    y = 1.0 + eps / bank.cube_scale
    return (eps, *_draw_tail(bank, y, streams, reps), trials)


def _draw_tail(bank: SamplerBank, y: np.ndarray, streams: StreamBatch, reps: int = 1):
    """(h, aug_dsum, log_z) of draws whose cube runs at y = 1 + eps/s.

    y is (streams * reps, bank.size). Each stream then gives max_b rows of
    augmentation uniforms over its reps * bank.size elements. A bank with
    no augmentation rows (max_b == 0) takes no words: its product is
    empty, ln 1 = 0.0 with a zero derivative.
    """
    h = _h(bank.eff_shapes, y)
    k, max_b = bank.size, bank.max_b
    if max_b:
        aug_u = streams.uniforms_open(max_b * reps * k).reshape(streams.size, max_b, reps, k)
        # (streams, reps, max_b, k): row j of the augmentation is aug_u[..., j, :]
        aug = _augment(bank.shapes, bank.b_steps, aug_u.swapaxes(1, 2))
        log_prod_u, aug_dsum = (a.reshape(y.shape) for a in aug)
    else:
        log_prod_u, aug_dsum = 0.0, np.zeros(y.shape)
    log_z = np.log(h) + log_prod_u - np.log(bank.rates)
    return h, aug_dsum, log_z


def _propose(bank: SamplerBank, streams: StreamBatch):
    """The importance estimator's proposals: bank.size normals from each
    stream, with no accept step, then `_draw_tail`'s uniforms.

    Returns (eps, h, aug_dsum, log_z, log_w, inside), each (streams, size)
    but log_w, each stream's summed log-ratio q/r. A proposal at or below
    the transform boundary is not `inside`; its tail runs at y = 1.
    """
    eps = streams.std_normals(bank.size)
    y = 1.0 + eps / bank.cube_scale
    inside = y > 0.0
    y = np.where(inside, y, 1.0)
    h, aug_dsum, log_z = _draw_tail(bank, y, streams)
    log_w = _log_ratio(eps, y, bank.eff_shapes, bank.log_M).sum(axis=1)
    return eps, h, aug_dsum, log_z, log_w, inside


def _shape_terms(bank: SamplerBank, eps, h, aug_dsum):
    """(d ln z/d alpha, d log(q/r)/d alpha) at (rows, size) draws of the
    bank, from their eps, h and aug_dsum; alpha is the shape before
    augmentation, at a fixed rate."""
    alpha, s = bank.eff_shapes, bank.cube_scale
    y = 1.0 + eps / s
    ha = _dh_dalpha(eps, s, y)
    return ha / h + aug_dsum, _glr_psi(eps, alpha, _gamma_fns(alpha, psi=True)[1], s, y, h, ha)


@dataclass(frozen=True)
class BankDraw:
    """Bank draws plus the pieces the chain rule needs: one per element
    (`draw`), per stream and element (`draw_streams`) or per draw and
    element (`draw_batch`).

    `eps` is the accepted proposal and `trials` the rounds it took. `h` is
    the raw cube-transform value at the effective shape, `aug_dsum`
    = sum_j (-ln u_j)/(shape + j)^2 (the shape derivative of the log
    augmentation product), and `log_z` = ln h + sum_j ln(u_j)/(shape + j)
    - ln rate is the log of the Gam(shape, rate) draw. The draw is carried
    in log space because for small shapes z itself can lie below the
    smallest double; `z` is its (possibly underflowing) exponential.
    """

    eps: np.ndarray
    h: np.ndarray
    aug_dsum: np.ndarray
    log_z: np.ndarray
    trials: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return np.exp(self.log_z)


def _augment(shapes: np.ndarray, b_steps: np.ndarray, aug_u: np.ndarray):
    """Log augmentation product and its shape derivative.

    Row j of `aug_u` (its second-to-last axis; leading axes are streams)
    holds one uniform per element; it enters element i only while
    j < b_steps[i]. Returns (sum_j ln(u_j)/(shape + j),
    sum_j -ln(u_j)/(shape + j)^2), the log of prod_j u_j^(1/(shape + j))
    and its derivative in the shape.
    """
    log_prod_u = np.zeros(aug_u.shape[:-2] + aug_u.shape[-1:])
    aug_dsum = np.zeros(log_prod_u.shape)
    for j in range(aug_u.shape[-2]):
        shifted = shapes + j
        step = np.log(aug_u[..., j, :])
        step /= shifted
        unused = j >= b_steps
        if unused.any():
            step[..., unused] = 0.0
        log_prod_u += step
        # at a shape near 1e-200, ln(u)/shape^2 overflows to -inf, which
        # the estimators then reject
        with np.errstate(over="ignore"):
            step /= shifted
        aug_dsum -= step
    return log_prod_u, aug_dsum


def _rejection_rounds(bank: SamplerBank, streams: StreamBatch, reps: int = 1):
    """Vectorized propose/accept rounds; one accepted eps per element and stream.

    Every stream owns reps rows of the bank's elements, which propose at
    their effective shapes. A round takes one block of 2m words from each
    stream with m active elements: the first m give the proposals' normals
    and the last m the accept uniforms, both in element order. A stream's
    words therefore do not depend on the other streams. More than
    DEFAULT_TRIAL_BUDGET rounds raise SamplerStallError. Returns (eps,
    trials), (streams * reps, elements).
    """
    eff_shapes, s = bank.eff_shapes, bank.cube_scale
    k = eff_shapes.size
    per_stream = reps * k
    eps = np.empty(0)
    trials = np.zeros(0, dtype=np.int64)
    active = np.arange(streams.size * per_stream)
    rounds = 0
    while active.size:
        if rounds >= DEFAULT_TRIAL_BUDGET:
            shape = float(eff_shapes[active[0] % k])
            raise SamplerStallError(shape, float(_log_m_at_mode(shape)), rounds)
        rounds += 1
        if rounds == 1:
            # every element is active: each stream's block is its next
            # 2 * per_stream words, and the parameters broadcast as rows
            block = streams.uniforms_open(2 * per_stream).reshape(streams.size, 2, reps, k)
            e, u = block[:, 0].reshape(-1, k), block[:, 1].reshape(-1, k)
            s_active, shapes = s, eff_shapes
        else:
            if streams.size == 1:
                # a lone stream's block is simply its next 2m words
                e, u = streams.uniforms_open(2 * active.size).reshape(2, active.size)
            else:
                e, u = _round_uniforms(active // per_stream, streams)
            element = active % k
            s_active, shapes = s[element], eff_shapes[element]
        e = _ppnd(e)
        y = e / s_active
        y += 1.0
        ok = y > 0.0
        # accept with probability exp(log-ratio - log_M)
        accept = ok & (np.log(u) < _log_ratio(e, np.where(ok, y, 1.0), shapes, 0.0))
        if rounds == 1:
            # e is a fresh (rows, k) array: its flat view holds the draws
            eps, trials = e.reshape(-1), np.ones(e.size, dtype=np.int64)
            active = np.flatnonzero(~accept)
        else:
            # an element's trials are the round that accepts it
            done = active[accept]
            trials[done] = rounds
            eps[done] = e[accept]
            active = active[~accept]
    n_rows = streams.size * reps
    return eps.reshape(n_rows, k), trials.reshape(n_rows, k)


def _round_uniforms(owner: np.ndarray, streams: StreamBatch) -> np.ndarray:
    """The uniforms of one rejection round over many streams, (2, active).

    owner[i] is the stream of the i-th active element, in ascending order.
    A stream with m active elements gives its next 2m words: the first m
    to its elements' proposals, the last m to their accept tests. Row 0
    holds the proposals' uniforms and row 1 the accept uniforms, both in
    active order.
    """
    m = np.bincount(owner, minlength=streams.size).astype(np.uint64)
    # the i-th active element proposes with word counter + i + 1 - (start of its stream's run)
    first = streams.counters - (np.cumsum(m) - m)
    i = np.arange(1, owner.size + 1, dtype=np.uint64)
    words = _stream_words(streams.bases[owner], first[owner], np.stack([i, i + m[owner]]))
    streams.counters += np.uint64(2) * m
    return _open_unit(words)


def _as_param_array(values, k: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr = np.full(k, float(arr)) if arr.ndim == 0 else arr.copy()
    if arr.shape != (k,):
        raise DomainError(f"{name} must be scalar or length-{k}, got shape {arr.shape}")
    if not (np.isfinite(arr).all() and (arr > 0.0).all()):
        raise DomainError(f"{name} must be positive and finite")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _build_bank(shapes: np.ndarray, rates: np.ndarray, B: int) -> SamplerBank:
    """A bank over checked positive, finite (k,) shapes and rates; B >= 0."""
    b_steps = np.maximum(B, (shapes < 1.0).astype(np.int64))
    eff_shapes = shapes + b_steps
    return SamplerBank(
        shapes=_read_only(shapes),
        rates=_read_only(rates),
        b_steps=_read_only(b_steps),
        eff_shapes=_read_only(eff_shapes),
        cube_scale=_read_only(np.sqrt(9.0 * eff_shapes - 3.0)),
    )


def make_sampler_bank(shapes, rates=1.0, B: int = 0) -> SamplerBank:
    """Vectorized sampler construction from checked parameters.

    Each element runs the cube transform at its effective shape, shape + B;
    a shape below one forces at least one augmentation step, so the
    effective shape is always >= 1. The envelope constants come from the
    closed mode evaluation, which the test suite pins against a
    golden-section search.
    """
    shapes = np.atleast_1d(np.asarray(shapes, dtype=float))
    k = shapes.size
    if k == 0:
        raise DomainError("make_sampler_bank needs at least one shape")
    B = int(B)
    if B < 0:
        raise DomainError("augmentation steps B must be >= 0")
    return _build_bank(_as_param_array(shapes, k, "shapes"), _as_param_array(rates, k, "rates"), B)
