"""Special functions, deterministic random streams, and derivative oracles.

Everything here is self-contained (numpy + stdlib): the special functions
use classical recurrence shifting plus asymptotic series, so their accuracy
is testable against external references instead of inherited from whatever
libm happens to be installed. ln Gamma, digamma and trigamma have one
kernel, the array kernel `_gamma_fns`, which serves scalar arguments too.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError

__all__ = [
    "log_gamma_fn",
    "digamma",
    "trigamma",
    "reg_lower_gamma",
    "reg_inc_beta",
    "kolmogorov_sf",
    "RandomStream",
    "StreamBatch",
    "finite_diff_grad",
]

_LN_SQRT_2PI = 0.9189385332046727  # ln(sqrt(2*pi))

# B_{2n} / (2n*(2n-1)), the Stirling-series coefficients for ln Gamma.
_LGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2n} / (2n), for psi(x) ~ ln x - 1/(2x) - sum c_n x^{-2n}.
_DIGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2n}, for psi'(x) ~ 1/x + 1/(2x^2) + sum b_n x^{-2n-1}.
_TRIGAMMA_COEF = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _table(*polys):
    """Coefficient table of a stack of polynomials for `_horner`: one
    (rows, 1) column per power, constant term first."""
    return tuple(np.array(column)[:, None] for column in zip(*polys, strict=True))


# The three series, one row each for one Horner pass in 1/x^2. The 7-term
# rows are padded with a top coefficient of 0.0: Horner's first step
# 0.0 * t + c is exactly c for a finite t.
_GAMMA_SERIES = _table(_LGAMMA_COEF, _DIGAMMA_COEF + (0.0,), _TRIGAMMA_COEF + (0.0,))

_SHIFT = 12.0  # arguments below this are recurrence-shifted before the series


def _check_positive(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0 or not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
        raise DomainError(f"{name} requires positive finite input, got {x!r}")


def _gamma_fns(x, lgamma=False, psi=False, psi1=False):
    """ln Gamma, digamma and trigamma of a positive array, as asked for.

    Returns a triple with None in place of each output not asked for. The
    three share one recurrence shift, which steps every argument up by one
    until it reaches _SHIFT; each output then adds its own asymptotic
    series. Callers check the input: here it is taken to be positive and
    finite.

    Row j of `steps` holds each argument after j unit steps, formed by
    adding 1.0 j times, and `below` marks the steps an argument takes. The
    recurrence terms of an argument are folded into its accumulator in
    step order, starting from 0.0, so each output equals the element-wise
    loop x -> x + 1 with acc -= ln x (ln Gamma), acc -= 1/x (digamma) or
    acc += 1/x^2 (trigamma) at every step.
    """
    x = np.array(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    # x > 0 reaches _SHIFT within _SHIFT steps, the smallest x in about _SHIFT - x
    n_rows = 1 + min(int(_SHIFT), max(0, int(_SHIFT - x.min()) + 2)) if x.size else 1
    steps = np.empty((n_rows, x.size))
    steps[0] = x
    steps[1:] = 1.0
    np.add.accumulate(steps, axis=0, out=steps)
    below = steps < _SHIFT
    x = steps[below.sum(axis=0), np.arange(x.size)]
    # the steps not taken are set to 1.0 so that nothing below overflows
    taken = np.where(below, steps, 1.0)
    acc_lg = acc_psi = acc_psi1 = None
    if lgamma:
        acc_lg = np.subtract.reduce(np.log(taken), axis=0, initial=0.0, where=below)
    if psi:
        acc_psi = np.subtract.reduce(1.0 / taken, axis=0, initial=0.0, where=below)
    if psi1:
        # acc - (-t) is acc + t, bit for bit; a step below about 1e-154
        # squares to 0 and its term is -inf
        with np.errstate(divide="ignore"):
            acc_psi1 = np.subtract.reduce(-1.0 / (taken * taken), axis=0, initial=0.0, where=below)
    inv = 1.0 / x
    inv2 = inv * inv
    log_x = np.log(x) if lgamma or psi else None
    # one pass for the three series: x >= _SHIFT keeps inv2 small and finite
    s_lg, s_psi, s_psi1 = _horner(_GAMMA_SERIES, inv2)
    out_lg = out_psi = out_psi1 = None
    if lgamma:
        out_lg = acc_lg + (x - 0.5) * log_x - x + _LN_SQRT_2PI + s_lg * inv
    if psi:
        out_psi = acc_psi + log_x - 0.5 * inv - s_psi * inv2
    if psi1:
        out_psi1 = acc_psi1 + inv + 0.5 * inv2 + s_psi1 * inv2 * inv
    return tuple(None if out is None else out.reshape(shape) for out in (out_lg, out_psi, out_psi1))


def _scalar_or_array(scalar, out):
    """`out`, as a float when the arguments were scalars."""
    return float(out) if scalar else out


def log_gamma_fn(x):
    """ln Gamma(x) for x > 0, scalar or array.

    Recurrence ln G(x) = ln G(x+1) - ln x shifts the argument above 12,
    where the Stirling series with eight Bernoulli terms is accurate to
    well under one part in 1e15.
    """
    _check_positive(x, "log_gamma_fn")
    return _scalar_or_array(np.ndim(x) == 0, _gamma_fns(x, lgamma=True)[0])


def digamma(x):
    """psi(x) = d/dx ln Gamma(x), x > 0, scalar or array."""
    _check_positive(x, "digamma")
    return _scalar_or_array(np.ndim(x) == 0, _gamma_fns(x, psi=True)[1])


def trigamma(x):
    """psi'(x), the derivative of digamma, x > 0, scalar or array."""
    _check_positive(x, "trigamma")
    return _scalar_or_array(np.ndim(x) == 0, _gamma_fns(x, psi1=True)[2])


# Series terms and Lentz steps allowed per element at shape a. Within 8 sd
# of the gamma mean P takes about 8 sqrt(a) of them and I_x(a, b) about
# sqrt(max(a, b)), so 20 sqrt(a) + 200 leaves a margin; no call runs more
# than _MAX_STEPS, and an element unconverged there is NaN.
_MAX_STEPS = 100_000
_TINY = 1e-300  # stands in for a zero Lentz denominator


def _step_cap(shape: float) -> int:
    return int(min(_MAX_STEPS, 20.0 * math.sqrt(shape) + 200.0))


def _converge(step, state, cap: int) -> np.ndarray:
    """Run state, value, done = step(j, state) for j = 1..cap over the arrays
    in `state`. Each element leaves with its value at its first `done`, so it
    gets what a one-element call gives; one never done is NaN."""
    out = np.full(state[0].shape, np.nan)
    live = np.arange(out.size)
    for j in range(1, cap + 1):
        if not live.size:
            break
        state, value, done = step(j, state)
        if done.any():
            out[live[done]] = value[done]
            live, state = live[~done], [s[~done] for s in state]
    return out


def _lentz(x: np.ndarray, d: np.ndarray, terms, cap: int) -> np.ndarray:
    """Continued fraction 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))) elementwise by
    the modified Lentz method (Thompson & Barnett 1986), given d = 1/b_0 and
    (a_j, b_j) = terms(j, x). An element stops at |delta - 1| < 1e-16."""

    def step(j, state):
        x, d, c, h = state
        an, bn = terms(j, x)
        d = an * d + bn
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = bn + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = d * c
        h = h * delta
        return (x, d, c, h), h, np.abs(delta - 1.0) < 1e-16

    return _converge(step, (x, d, np.full(x.shape, 1.0 / _TINY), d), cap)


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    x is a scalar or an array, taken elementwise; ln Gamma(a) is formed
    once per call. The power series runs for x < a+1 and the continued
    fraction of Q = 1 - P elsewhere (Numerical Recipes 6.2), each over its
    whole half of x at once. A value unconverged within _step_cap(a) steps
    is NaN.
    """
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"reg_lower_gamma requires a > 0, got {a!r}")
    xs = np.asarray(x, dtype=float)
    if not (np.isfinite(xs).all() and (xs >= 0.0).all()):
        raise DomainError(f"reg_lower_gamma requires x >= 0, got {x!r}")
    cap = _step_cap(a)
    out = np.zeros(xs.shape)
    v = xs[xs > 0.0]
    front = np.exp(-v + a * np.log(v) - float(_gamma_fns(a, lgamma=True)[0]))
    series = v < a + 1.0

    def term(j, state):
        # sum_n x^n / (a (a+1) ... (a+n)), until a term falls below 1e-17 of the total
        x, t, total = state
        t = t * (x / (a + j))
        total = total + t
        return (x, t, total), total, np.abs(t) < np.abs(total) * 1e-17

    p = np.empty_like(v)
    first = np.full(np.count_nonzero(series), 1.0 / a)
    p[series] = np.minimum(1.0, _converge(term, (v[series], first, first), cap) * front[series])
    b0 = v[~series] + 1.0 - a
    q = front[~series] * _lentz(b0, 1.0 / b0, lambda j, b: (-j * (j - a), b + 2.0 * j), cap)
    p[~series] = np.maximum(0.0, 1.0 - q)
    out[xs > 0.0] = p
    return _scalar_or_array(np.ndim(x) == 0, out)


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) by continued fraction.

    x is a scalar or an array, taken elementwise; the ln Gamma terms are
    formed once per call. The fraction for I_x(a, b) runs below
    x = (a+1)/(a+b+2), and the one for 1 - I_{1-x}(b, a) above it (Numerical
    Recipes 6.4), each over its whole half of x at once. A value
    unconverged within _step_cap(max(a, b)) steps is NaN.
    """
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got {a!r}, {b!r}")
    xs = np.asarray(x, dtype=float)
    if not ((xs >= 0.0) & (xs <= 1.0)).all():
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x!r}")
    lg_ab, lg_a, lg_b = _gamma_fns(np.array([a + b, a, b]), lgamma=True)[0].tolist()
    cap = _step_cap(max(a, b))
    out = np.zeros(xs.shape)
    out[xs == 1.0] = 1.0
    inner = (xs > 0.0) & (xs < 1.0)
    v = xs[inner]
    front = np.exp(lg_ab - lg_a - lg_b + a * np.log(v) + b * np.log1p(-v))
    lower = v < (a + 1.0) / (a + b + 2.0)
    for side, p, q, y in ((lower, a, b, v), (~lower, b, a, 1.0 - v)):

        def terms(j, y, p=p, q=q):
            # a_j = d_j (d_2m at even j, d_(2m+1) at odd j) and b_j = 1; d_1 takes
            # the fewest roundings, because 1 + d_1 can cancel to 2 / (a + b + 2)
            m = j // 2
            if j == 1:
                return -((p + q) * y / (p + 1.0)), 1.0
            if j % 2 == 0:
                return m * (q - m) * y / ((p - 1.0 + j) * (p + j)), 1.0
            return -(p + m) * (p + q + m) * y / ((p + (j - 1)) * (p + 1.0 + (j - 1))), 1.0

        y = y[side]
        # I_x(a, b) on the lower side, 1 - I_x(a, b) on the upper
        front[side] = front[side] * _lentz(y, np.ones_like(y), terms, cap) / p
    out[inner] = np.where(lower, front, 1.0 - front)
    return _scalar_or_array(np.ndim(x) == 0, out)


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(t) = P(K > t), NaN at NaN."""
    t = float(t)
    if not t > 0.0:
        return t if math.isnan(t) else 1.0
    if t < 0.3:
        # 1 - Q(t) = (sqrt(2 pi) / t) sum_k exp(-(2k - 1)^2 pi^2 / (8 t^2)); here its
        # second term is below e^-109 of its first, while the alternating series
        # below has not converged in its 100 terms under t ~ 0.046
        a = math.pi / t
        return 1.0 - math.exp(-0.125 * a * a) / t * math.sqrt(2.0 * math.pi)
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * t * t)
        total += term if j % 2 == 1 else -term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * total))


# --- normal inverse CDF (Wichura's algorithm AS 241, PPND16) -----------------

_PPND_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_PPND_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_PPND_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_PPND_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


# numerator and denominator of each branch, one row each
_PPND_AB = _table(_PPND_A, _PPND_B)
_PPND_CD = _table(_PPND_C, _PPND_D)
_PPND_EF = _table(_PPND_E, _PPND_F)


def _horner(table, t):
    """Every polynomial of a `_table` at the 1-D array t, one row each.

    Horner's rule, in place after its first product. The rule's first step
    from 0.0, 0.0 * t + c, is just c for the finite t it gets, so the
    product of the top coefficient with t starts it.
    """
    s = table[-1] * t
    s += table[-2]
    for column in table[-3::-1]:
        s *= t
        s += column
    return s


def _ppnd_array(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (quantile) of an array of u in (0, 1).

    Wichura's AS 241 rational approximations (the PPND16 variant), pure
    arithmetic apart from sqrt/log, accurate to ~1e-16 relative.

    The central branch runs over every element, and the tail elements,
    gathered by index, then overwrite their results. On a tail input the
    central formula stays finite: there r = 0.180625 - q^2 lies in
    (-0.0694, 0), where its denominator is above 0.002.
    """
    shape = np.shape(u)
    q = np.subtract(u, 0.5, dtype=float).reshape(-1)
    tail = (np.abs(q) > 0.425).nonzero()[0]
    qt = q[tail]
    r = q * q
    np.subtract(0.180625, r, out=r)
    ab = _horner(_PPND_AB, r)
    # q takes the result: q * a / b, as (a * q) / b
    q *= ab[0]
    q /= ab[1]
    if tail.size:
        ut = np.take(u, tail)
        r = np.where(qt < 0.0, ut, 1.0 - ut)
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        # the near branch on every tail element; its denominator is at
        # least 1 there, since r > 1.6 whenever |q| > 0.425
        far = r > 5.0
        rf = r[far] if far.any() else None
        r -= 1.6
        x = _horner(_PPND_CD, r)
        xt = x[0]
        xt /= x[1]
        if rf is not None:
            rf -= 5.0
            x = _horner(_PPND_EF, rf)
            x[0] /= x[1]
            xt[far] = x[0]
        # both tail branches are positive (positive coefficients at r - 1.6
        # > 0 and r - 5 > 0), so taking q's sign negates the lower tail
        np.copysign(xt, qt, out=xt)
        q[tail] = xt
    return q.reshape(shape)


# --- deterministic random streams --------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_U64 = np.uint64(_GOLDEN)
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


def _mix(x: int) -> int:
    # splitmix64 finalizer: full-avalanche 64-bit mixing
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix_np(x: np.ndarray) -> np.ndarray:
    # wraps modulo 2**64; numpy does not flag integer overflow on arrays.
    # Consumes x, a fresh array of the caller's: every step runs in place
    # with one shift buffer, so a large block holds two arrays at once.
    shifted = np.right_shift(x, np.uint64(30))
    x ^= shifted
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=shifted)
    x ^= shifted
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def _stream_words(bases, counters, offsets) -> np.ndarray:
    """Output words number ``counters + offsets`` of the streams keyed by ``bases``.

    The word kernel of every stream: word i of the stream with key base is
    ``mix(base + i * GOLDEN)``. The three uint64 arguments broadcast
    together, so one call serves one stream (scalar base and counter) or
    many (one base and counter per stream, gathered per word). Each
    stream's start ``base + counter * GOLDEN`` is formed once and each
    offset's step ``offset * GOLDEN`` once, and the words are their sum:
    the same value modulo 2**64. The scalar steps go through the ufuncs,
    because numpy scalars flag the wraparound that arrays do not.
    """
    start = np.add(np.multiply(counters, _GOLDEN_U64), bases)
    return _mix_np(np.add(np.multiply(offsets, _GOLDEN_U64), start))


def _open_unit(words: np.ndarray) -> np.ndarray:
    """Doubles strictly inside (0, 1) from the top 53 bits of each word.

    Consumes `words`, a fresh array of the caller's. The top word's
    (2**53 - 1) + 1/2 rounds up to 2**53, so it is clamped to the largest
    double below 1.
    """
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, _BELOW_ONE, out=u)
    return u


class RandomStream:
    """Counter-based deterministic random stream.

    The stream is the splitmix64 output sequence
    ``out_i = mix(base + i * GOLDEN)`` where ``base`` is derived from
    ``(seed, stream_id)`` by two rounds of the same finalizer:
    ``base = mix(mix(seed) ^ mix(stream_id ^ GOLDEN))``. All arithmetic is
    exact 64-bit integer work, so two streams with the same ``(seed,
    stream_id)`` are bit-identical everywhere, and distinct stream ids give
    unrelated (fully re-keyed, not offset) sequences.

    Uniform doubles take the top 53 bits of an output word. Normals are
    generated by inversion: ``z = ppnd(u)`` with an open-interval uniform,
    one output word per normal, so batch and repeated scalar draws agree
    element for element.

    The stream owns its position: ``_row``, a one-row :class:`StreamBatch`
    whose uint64 counter wraps modulo 2**64. Every draw from the stream,
    scalar, block, sampler or estimator, advances that row in place.

    A stream is single-owner; fan-out derives child streams via
    :meth:`child` before parallel work.
    """

    __slots__ = ("seed", "stream_id", "_base", "_row")

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not (0 <= seed <= _MASK64 and 0 <= stream_id <= _MASK64):
            raise DomainError("seed and stream_id must be 64-bit unsigned integers")
        self.seed = seed
        self.stream_id = stream_id
        self._base = _mix(_mix(seed) ^ _mix(stream_id ^ _GOLDEN))
        self._row = StreamBatch([self._base], [0])

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    @property
    def counter(self) -> int:
        return int(self._row.counters[0])

    def child(self, index: int) -> "RandomStream":
        """Derive an independent substream; ``index`` selects which one."""
        index = int(index)
        if index < 0:
            raise DomainError("child index must be non-negative")
        derived = _mix((self.stream_id * _GOLDEN + index + 1) & _MASK64)
        return RandomStream(self.seed, derived)

    def _next_u64(self) -> int:
        counter = (int(self._row.counters[0]) + 1) & _MASK64
        self._row.counters[0] = counter
        return _mix((self._base + counter * _GOLDEN) & _MASK64)

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self._next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """One double strictly inside (0, 1); safe under log()."""
        return min(((self._next_u64() >> 11) + 0.5) * 2.0**-53, _BELOW_ONE)

    def std_normal(self) -> float:
        return float(self.std_normals(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        return (self._row._words(n)[0] >> np.uint64(11)) * 2.0**-53

    def uniforms_open(self, n: int) -> np.ndarray:
        return self._row.uniforms_open(n)[0]

    def std_normals(self, n: int) -> np.ndarray:
        return _ppnd_array(self.uniforms_open(n))


class StreamBatch:
    """Several stream positions advanced together.

    Row s of every block is exactly what the same call on stream s alone
    would return, and each stream's counter moves as it would alone, so a
    batch of streams reproduces a loop over them word for word. The
    streams' keys and counters live in uint64 arrays, and every draw
    advances ``counters`` in place, modulo 2**64; ``bases[s]`` and
    ``counters[s]`` may be gathered per word for ragged draws, where
    stream s takes its own number of words (see ``_stream_words``). A
    :class:`RandomStream` owns a one-row batch and draws through it, so a
    draw from that row is a draw from the stream: nothing is copied back.
    """

    __slots__ = ("bases", "counters")

    def __init__(self, bases, counters):
        self.bases = np.asarray(bases, dtype=np.uint64)
        self.counters = np.array(counters, dtype=np.uint64)

    @classmethod
    def children(cls, stream: RandomStream, n: int) -> "StreamBatch":
        """Fresh child streams ``stream.child(i)`` for i in [0, n).

        Derives the keys of :meth:`RandomStream.child` with the vectorized
        finalizer, so no per-child object is built.
        """
        idx = np.arange(1, n + 1, dtype=np.uint64)
        derived = _mix_np(np.uint64((stream.stream_id * _GOLDEN) & _MASK64) + idx)
        bases = _mix_np(np.uint64(_mix(stream.seed)) ^ _mix_np(derived ^ np.uint64(_GOLDEN)))
        return cls(bases, np.zeros(n, dtype=np.uint64))

    @property
    def size(self) -> int:
        return self.bases.size

    def _words(self, n: int) -> np.ndarray:
        """The next n output words of every stream: (size, n)."""
        n = int(n)
        words = _stream_words(self.bases[:, None], self.counters[:, None], np.arange(1, n + 1, dtype=np.uint64))
        self.counters += np.uint64(n)
        return words

    def uniforms_open(self, n: int) -> np.ndarray:
        """The next n open-interval uniforms of every stream: (size, n)."""
        return _open_unit(self._words(n))

    def std_normals(self, n: int) -> np.ndarray:
        return _ppnd_array(self.uniforms_open(n))


# --- finite differences -------------------------------------------------------


def finite_diff_grad(
    f: Callable, x: float | Sequence[float] | np.ndarray, h: float = 1e-6
):
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / (2h).

    Accepts a scalar or a vector x; returns the matching shape. Raises
    DomainError naming the offending coordinate if f comes back non-finite.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError(f"finite_diff_grad requires h > 0, got {h!r}")
    scalar = np.ndim(x) == 0
    xv = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    fn = (lambda v: f(float(v[0]))) if scalar else f
    grad = np.empty_like(xv)
    for i in range(xv.size):
        step = np.zeros_like(xv)
        step[i] = h
        fp = float(fn(xv + step))
        fm = float(fn(xv - step))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise DomainError(
                f"finite_diff_grad: non-finite evaluation at coordinate {i} "
                f"(f+ = {fp!r}, f- = {fm!r})"
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return float(grad[0]) if scalar else grad


def _rel_err(fd, analytic) -> float:
    """max|analytic - fd| / max(1, max|fd|): the one error metric of the
    derivative checks, for a scalar or a vector derivative. A NaN analytic
    value gives NaN, which a check must count as a failure."""
    err = np.max(np.abs(np.asarray(analytic, dtype=float) - fd))
    return float(err / max(1.0, float(np.max(np.abs(fd)))))
