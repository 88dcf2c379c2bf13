import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special, stats

from rsvi import mathcore
from rsvi.exceptions import DomainError
from rsvi.mathcore import (
    RandomStream,
    StreamBatch,
    _gamma_fns,
    _ppnd_array,
    digamma,
    finite_diff_grad,
    kolmogorov_sf,
    log_gamma_fn,
    reg_inc_beta,
    reg_lower_gamma,
    trigamma,
)
from rsvi.rejection import dh_dalpha, h_gam

# reference values from a 30-digit computation
LN_GAMMA_HALF = 0.5723649429247001
PSI_ONE = -0.5772156649015329
PSI_HALF = -1.9635100260214235
TRIGAMMA_ONE = 1.6449340668482264
TRIGAMMA_TEN = 0.10516633568168575


class TestLogGamma:
    def test_frozen_values(self):
        assert log_gamma_fn(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_fn(2.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_fn(0.5) == pytest.approx(LN_GAMMA_HALF, abs=1e-13)

    def test_against_reference_grid(self):
        # abs tolerance where the value is moderate, relative far out
        xs = np.concatenate([np.logspace(-3, 6, 300), np.linspace(0.02, 30, 200)])
        ref = special.gammaln(xs)
        ours = log_gamma_fn(xs)
        moderate = np.abs(ref) <= 100.0
        assert np.max(np.abs(ours[moderate] - ref[moderate])) <= 1e-12
        large = ~moderate
        assert np.max(np.abs(ours[large] - ref[large]) / np.abs(ref[large])) <= 5e-14

    def test_scalar_matches_array_path(self):
        xs = np.logspace(-3, 5, 50)
        assert np.array_equal(log_gamma_fn(xs), np.array([log_gamma_fn(float(x)) for x in xs]))

    @given(st.floats(min_value=1e-2, max_value=1e4))
    def test_recurrence(self, x):
        assert abs(log_gamma_fn(x + 1.0) - log_gamma_fn(x) - math.log(x)) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma_fn(bad)


class TestDigammaTrigamma:
    def test_frozen_values(self):
        assert digamma(1.0) == pytest.approx(PSI_ONE, rel=1e-12)
        assert digamma(2.0) == pytest.approx(PSI_ONE + 1.0, rel=1e-12)
        assert digamma(0.5) == pytest.approx(PSI_HALF, rel=1e-12)
        assert trigamma(1.0) == pytest.approx(TRIGAMMA_ONE, rel=1e-10)
        assert trigamma(2.0) == pytest.approx(TRIGAMMA_ONE - 1.0, rel=1e-10)
        assert trigamma(10.0) == pytest.approx(TRIGAMMA_TEN, rel=1e-10)

    def test_against_reference_grid(self):
        xs = np.logspace(-3, 6, 400)
        dg = digamma(xs)
        tg = trigamma(xs)
        ref_d = special.digamma(xs)
        ref_t = special.polygamma(1, xs)
        # psi has a real zero near 1.4616; measure against |psi|+1 there
        assert np.max(np.abs(dg - ref_d) / (np.abs(ref_d) + 1e-6)) <= 1e-10
        assert np.max(np.abs(tg - ref_t) / np.abs(ref_t)) <= 1e-8

    @given(st.floats(min_value=1e-2, max_value=1e4))
    def test_psi_recurrence(self, x):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10

    @given(st.floats(min_value=1e-2, max_value=1e4))
    def test_trigamma_recurrence(self, x):
        rel = abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) / trigamma(x)
        assert rel <= 1e-10

    def test_domain(self):
        for fn in (digamma, trigamma):
            with pytest.raises(DomainError):
                fn(-0.5)

    def test_tiny_trigamma_argument_is_inf_in_both_forms(self):
        # below about 1e-154, x*x underflows to 0 and 1/x^2 is inf
        array_form = trigamma(np.array([1e-200]))[0]
        assert array_form == math.inf
        assert trigamma(1e-200) == array_form

    @pytest.mark.filterwarnings("error")
    def test_digamma_below_the_smallest_normal_is_minus_inf(self):
        # 1/x overflows below about 5.6e-309: the IEEE answer, no warning
        assert digamma(1e-310) == -math.inf

    @pytest.mark.filterwarnings("error")
    def test_trigamma_where_the_square_is_subnormal_is_inf(self):
        # x*x is subnormal, and 1/x^2 overflows: the IEEE answer, no warning
        assert trigamma(1e-160) == math.inf


def _shift_loop_reference(x):
    """ln Gamma, digamma and trigamma by the element-wise recurrence loop,
    each with its own loop, as the shared kernel must reproduce bit for bit."""
    outs = []
    for coef, term, tail in (
        (mathcore._LGAMMA_COEF, lambda v: -np.log(v),
         lambda acc, v, inv, inv2, s: acc + (v - 0.5) * np.log(v) - v + mathcore._LN_SQRT_2PI + s * inv),
        (mathcore._DIGAMMA_COEF, lambda v: -(1.0 / v),
         lambda acc, v, inv, inv2, s: acc + np.log(v) - 0.5 * inv - s * inv2),
        (mathcore._TRIGAMMA_COEF, lambda v: 1.0 / (v * v),
         lambda acc, v, inv, inv2, s: acc + inv + 0.5 * inv2 + s * inv2 * inv),
    ):
        v = np.array(x, dtype=float)
        acc = np.zeros_like(v)
        mask = v < mathcore._SHIFT
        while mask.any():
            acc[mask] += term(v[mask])
            v[mask] += 1.0
            mask = v < mathcore._SHIFT
        inv = 1.0 / v
        inv2 = inv * inv
        s = np.zeros_like(v)
        for c in reversed(coef):
            s = s * inv2 + c
        outs.append(tail(acc, v, inv, inv2, s))
    return outs


class TestSharedSpecialKernel:
    @pytest.mark.parametrize("case", ["small", "wide", "near-integers", "single", "matrix", "grid"])
    def test_bit_identical_to_separate_loops(self, case):
        rng = np.random.default_rng(17)
        x = {
            "small": rng.uniform(1e-4, 14.0, 300),
            "wide": 10.0 ** rng.uniform(-300, 300, 300),
            "near-integers": np.nextafter(rng.integers(1, 13, 300).astype(float), 0.0),
            "single": np.array([0.37]),
            "matrix": rng.uniform(0.01, 5.0, (6, 7)),
            "grid": np.geomspace(2e-9, 3000.0, 1531),
        }[case]
        with np.errstate(divide="ignore", over="ignore"):
            got = _gamma_fns(x, lgamma=True, psi=True, psi1=True)
            want = _shift_loop_reference(x)
        for g, w in zip(got, want):
            assert g.shape == x.shape
            assert np.array_equal(g, w)

    def test_only_requested_outputs(self):
        lg, psi, psi1 = _gamma_fns(np.array([0.5, 3.0]), psi=True)
        assert lg is None and psi1 is None
        assert np.array_equal(psi, digamma(np.array([0.5, 3.0])))

    @pytest.mark.parametrize("fn,index", [(log_gamma_fn, 0), (digamma, 1), (trigamma, 2)])
    def test_scalar_is_the_one_element_kernel(self, fn, index):
        xs = np.concatenate([np.geomspace(2e-9, 3000.0, 1500), np.arange(1.0, 40.0), [0.5, 12.0 - 2e-15]])
        which = {"lgamma": index == 0, "psi": index == 1, "psi1": index == 2}
        for x in xs.tolist():
            got = fn(x)
            assert type(got) is float
            assert got == _gamma_fns(np.array([x]), **which)[index][0], x

    @pytest.mark.parametrize("fn", [log_gamma_fn, digamma, trigamma])
    @pytest.mark.parametrize(
        "bad",
        [0.0, -0.5, float("nan"), float("inf"), np.array([1.0, 0.0]), np.array([2.0, -3.0]), np.array([])],
        ids=["zero", "negative", "nan", "inf", "array-zero", "array-negative", "empty"],
    )
    def test_public_functions_reject_non_positive(self, fn, bad):
        with pytest.raises(DomainError):
            fn(bad)


class TestIncompleteFunctions:
    def test_reg_lower_gamma_vs_reference(self):
        pts = [(0.5, 0.2), (2.0, 1.0), (2.0, 5.0), (10.0, 3.0), (10.0, 30.0),
               (1e3, 900.0), (1e3, 1100.0), (0.1, 1e-4), (3.0, 0.0)]
        for a, x in pts:
            assert reg_lower_gamma(a, x) == pytest.approx(special.gammainc(a, x), abs=1e-13)

    def test_reg_inc_beta_vs_reference(self):
        pts = [(0.5, 0.5, 0.3), (2, 3, 0.4), (10, 2, 0.9), (0.1, 0.2, 0.5), (5, 5, 0.02)]
        for a, b, x in pts:
            assert reg_inc_beta(a, b, x) == pytest.approx(special.betainc(a, b, x), abs=1e-13)

    def test_array_x_is_the_scalar_calls(self):
        rng = np.random.default_rng(5)
        for a in (0.3, 2.0, 1e3):
            # both halves of the P/Q split, and x = 0
            x = np.concatenate([[0.0], rng.uniform(0.0, 3.0 * a + 5.0, 41)]).reshape(3, 14)
            got = reg_lower_gamma(a, x)
            assert got.shape == x.shape
            assert np.array_equal(got, [[reg_lower_gamma(a, v) for v in row] for row in x.tolist()])
        for a, b in ((0.5, 0.5), (2.0, 3.0), (10.0, 2.0), (0.1, 0.2)):
            x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 40)])
            got = reg_inc_beta(a, b, x)
            assert np.array_equal(got, [reg_inc_beta(a, b, v) for v in x.tolist()])
        assert reg_lower_gamma(2.0, np.array([])).shape == (0,)
        assert type(reg_lower_gamma(2.0, 1.0)) is float and type(reg_inc_beta(2.0, 3.0, 0.5)) is float

    # Both branches and both ends at shapes 1e-2 to 1e3. The tolerance is
    # 1e-13 plus eps times `big`, the size of the terms that the front
    # factor's logarithm sums and cancels: at a = 1e3 near x = a they are
    # about 1.4e4, and their rounding, not the series or the fraction, leaves
    # errors of a few 1e-13.
    @pytest.mark.parametrize("a", np.geomspace(1e-2, 1e3, 11).tolist())
    def test_reg_lower_gamma_grid(self, a):
        x = np.array([
            0.0, 1e-300, a * 1e-6, np.nextafter(a + 1.0, 0.0), a + 1.0, np.nextafter(a + 1.0, np.inf),
            0.5 * a, 2.0 * a + 5.0, a + 40.0 * math.sqrt(a) + 40.0, 50.0 * a + 700.0,
        ])
        ref = special.gammainc(a, x)
        with np.errstate(divide="ignore"):
            big = x + a * np.abs(np.log(x)) + abs(special.gammaln(a))
        big[0] = 0.0
        assert np.all(np.abs(reg_lower_gamma(a, x) - ref) <= 1e-13 + np.finfo(float).eps * big)

    @pytest.mark.parametrize("a", [0.01, 0.3, 2.0, 40.0, 1e3])
    @pytest.mark.parametrize("b", [0.01, 1.0, 7.0, 1e3])
    def test_reg_inc_beta_grid(self, a, b):
        split = (a + 1.0) / (a + b + 2.0)
        x = np.array([
            0.0, 1.0, 1e-300, 1e-12, 1.0 - 1e-12, np.nextafter(split, 0.0), split, np.nextafter(split, 1.0),
            0.5 * split, 0.5 + 0.5 * split,
        ])
        ref = special.betainc(a, b, x)
        with np.errstate(divide="ignore"):
            big = (abs(special.gammaln(a + b)) + abs(special.gammaln(a)) + abs(special.gammaln(b))
                   + a * np.abs(np.log(x)) + b * np.abs(np.log1p(-x)))
        big[:2] = 0.0
        assert np.all(np.abs(reg_inc_beta(a, b, x) - ref) <= 1e-13 + np.finfo(float).eps * big)

    @pytest.mark.parametrize("a", [1e5, 1e6])
    def test_reg_lower_gamma_large_shapes(self, a):
        # a fixed 1000-step cap would leave errors of 7.9e-4 at 1e5 and 0.16
        # at 1e6 here
        x = a + math.sqrt(a) * np.linspace(-6.0, 6.0, 61)
        assert np.max(np.abs(reg_lower_gamma(a, x) - special.gammainc(a, x))) <= 1e-8

    def test_unconverged_is_nan(self, monkeypatch):
        monkeypatch.setattr(mathcore, "_MAX_STEPS", 5)
        p = reg_lower_gamma(100.0, np.array([0.0, 95.0, 100.0, 110.0]))
        assert p[0] == 0.0 and np.isnan(p[1:]).all()
        i = reg_inc_beta(50.0, 50.0, np.array([0.0, 0.45, 0.55, 1.0]))
        assert i[0] == 0.0 and i[3] == 1.0 and np.isnan(i[1:3]).all()

    def test_kolmogorov_sf(self):
        for t in [0.3, 0.5, 1.0, 1.5, 2.0]:
            assert kolmogorov_sf(t) == pytest.approx(special.kolmogorov(t), abs=1e-12)
        # small t, where 1 - Q(t) falls below 1e-200 and an alternating series
        # of 100 terms has not converged
        for t in [1e-3, 5e-3, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2]:
            assert kolmogorov_sf(t) == pytest.approx(special.kolmogorov(t), abs=1e-15)
        assert kolmogorov_sf(0.0) == 1.0
        assert math.isnan(kolmogorov_sf(math.nan))

    def test_domains(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, -1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, np.array([0.5, np.nan]))


class TestNormalInverseCdf:
    def test_against_reference(self):
        us = np.concatenate(
            [np.linspace(1e-12, 1 - 1e-12, 1001), 10.0 ** np.linspace(-300, -1, 60), [1.0 - 1e-16]]
        )
        ours = _ppnd_array(us)
        ref = stats.norm.ppf(us)
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def _poly_out_of_place(coefs, r):
    s = 0.0 * r
    for c in reversed(coefs):
        s = s * r + c
    return s


def _ppnd_out_of_place(u):
    """The normal quantile kernel written with a fresh array per operation."""
    q = u - 0.5
    out = np.empty_like(u)
    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _poly_out_of_place(mathcore._PPND_A, r) / _poly_out_of_place(mathcore._PPND_B, r)
    tail = ~central
    if tail.any():
        ut = u[tail]
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, ut, 1.0 - ut)))
        near = r <= 5.0
        x = np.empty_like(r)
        if near.any():
            rn = r[near] - 1.6
            x[near] = _poly_out_of_place(mathcore._PPND_C, rn) / _poly_out_of_place(mathcore._PPND_D, rn)
        far = ~near
        if far.any():
            rf = r[far] - 5.0
            x[far] = _poly_out_of_place(mathcore._PPND_E, rf) / _poly_out_of_place(mathcore._PPND_F, rf)
        out[tail] = np.where(qt < 0.0, -x, x)
    return out


def _stream_words_out_of_place(bases, counters, offsets):
    x = bases + (counters + offsets) * np.uint64(mathcore._GOLDEN)
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(mathcore._MIX1)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(mathcore._MIX2)
    return x ^ (x >> np.uint64(31))


def _open_unit_out_of_place(words):
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


# one input of each branch of the normal quantile: central, near tail
# below and above the centre, far tail below and above
QUANTILE_BRANCHES = {
    "central": [0.5, 0.0751, 0.9249, 0.3, 0.61],
    "near-lower": [0.0749, 1e-3, 1e-6, 1e-10, 2e-11],
    "near-upper": [0.9251, 1 - 1e-3, 1 - 1e-6, 1 - 1e-10, 1 - 2e-11],
    "far-lower": [1e-11, 1e-20, 1e-100, 1e-300, 2.0**-54],
    "far-upper": [1 - 1e-12, 1 - 1e-14, 1 - 1e-15, 1 - 1e-16, 1 - 2.0**-53],
}


@pytest.mark.filterwarnings("error")
class TestInPlaceKernels:
    """The stream and normal-quantile kernels work in place on the arrays
    they create; each must equal its one-array-per-operation form bit for
    bit."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("branch", sorted(QUANTILE_BRANCHES))
    def test_normal_quantile_small_inputs(self, branch, n):
        u = np.array(QUANTILE_BRANCHES[branch][:n], dtype=float)
        got = _ppnd_array(u)
        assert got.shape == u.shape and np.array_equal(got, _ppnd_out_of_place(u))

    def test_normal_quantile(self):
        u = RandomStream(3, 7).uniforms_open(10**5 - 400)
        # central (|u - 1/2| <= 0.425), near tail (r <= 5, u above about
        # 1.4e-11) and far tail, on both sides, and the ends of the streams'
        # open unit interval
        lower, upper = 10.0 ** np.linspace(-300, -2, 100), 1.0 - 10.0 ** np.linspace(-15.9, -2, 100)
        u = np.concatenate([u, lower, upper, 0.5 + np.linspace(-0.43, 0.43, 198), [2.0**-54, 1.0 - 2.0**-53]])
        r = np.sqrt(-np.log(np.minimum(u, 1.0 - u)))
        far, near = r > 5.0, (r <= 5.0) & (np.abs(u - 0.5) > 0.425)
        assert far.sum() >= 100 and near.sum() >= 10**4 and u.size == 10**5
        want = _ppnd_out_of_place(u)
        kept = u.copy()
        assert np.array_equal(_ppnd_array(u), want)
        assert np.array_equal(u, kept)  # the input is left as it was
        # a strided (rows, k) view, as the rejection rounds pass
        block = u.reshape(2, 250, 200)[:, :, :100]
        assert np.array_equal(_ppnd_array(block[0]), _ppnd_out_of_place(np.ascontiguousarray(block[0])))

    def test_stream_words(self):
        base, counter = np.uint64(0x9E3779B97F4A7C15), np.uint64(2**64 - 3)
        offsets = np.arange(1, 10**5 + 1, dtype=np.uint64)
        # one stream; a stream per row; stream keys gathered per word
        bases = StreamBatch.children(RandomStream(5, 1), 50).bases
        counters = np.arange(50, dtype=np.uint64) * np.uint64(7)
        owner = np.repeat(np.arange(50), 40)
        per_word = np.stack([offsets[: owner.size], offsets[: owner.size] + np.uint64(3)])
        near_top = np.uint64(2**64 - 1) - counters * np.uint64(97)
        cases = [
            (base, counter, offsets),
            (bases[:, None], counters[:, None], offsets[:2000]),
            (bases[owner], counters[owner], per_word),
            (bases[:, None], near_top[:, None], offsets[:2000]),
            (bases[owner], near_top[owner], per_word),
        ]
        for b, c, o in cases:
            want = _stream_words_out_of_place(b, c, o)
            assert np.array_equal(mathcore._stream_words(b, c, o), want)
            assert np.array_equal(mathcore._open_unit(mathcore._stream_words(b, c, o)), _open_unit_out_of_place(want))
        # a lone stream's block across the end of its counter range
        stream = RandomStream(3, 9)
        stream._row.counters[0] = 2**64 - 10
        want = _stream_words_out_of_place(np.uint64(stream._base), np.uint64(2**64 - 10), offsets[:20])
        assert np.array_equal(stream.uniforms_open(20), _open_unit_out_of_place(want))
        assert stream.counter == 10

    def test_top_word_uniform_is_below_one(self, monkeypatch):
        # (2**53 - 1) + 1/2 rounds to 2**53, so the unclamped top word gives 1.0
        top = np.uint64(2**64 - 1)
        words = top - np.array([0, 2**11, 2**12, 2**64 - 1], dtype=np.uint64)
        u = mathcore._open_unit(words.copy())
        assert u[0] == 1.0 - 2.0**-53 and _open_unit_out_of_place(words[:1])[0] == 1.0
        assert np.array_equal(u[1:], _open_unit_out_of_place(words[1:]))
        z = _ppnd_array(u)
        assert np.isfinite(z).all() and z[0] > 8.0
        monkeypatch.setattr(RandomStream, "_next_u64", lambda self: 2**64 - 1)
        assert RandomStream(1).uniform_open() == 1.0 - 2.0**-53


class TestRandomStream:
    def test_determinism(self):
        a = RandomStream(123, 9)
        b = RandomStream(123, 9)
        assert np.array_equal(a.uniforms(2000), b.uniforms(2000))
        assert a.std_normal() == b.std_normal()

    def test_scalar_and_batch_agree(self):
        a = RandomStream(5, 2)
        b = RandomStream(5, 2)
        batch = a.uniforms(64)
        assert [b.uniform() for _ in range(64)] == batch.tolist()
        a2, b2 = RandomStream(5, 3), RandomStream(5, 3)
        assert np.array_equal(a2.std_normals(32), np.array([b2.std_normal() for _ in range(32)]))

    def test_uniform_moments(self):
        u = RandomStream(7, 0).uniforms(10**6)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) <= 3.0 / math.sqrt(12.0 * 10**6)

    def test_normal_moments(self):
        z = RandomStream(11, 0).std_normals(10**6)
        assert abs(z.var() - 1.0) <= 0.005
        assert abs(z.mean()) <= 0.004

    def test_streams_uncorrelated(self):
        n = 10**5
        u0 = RandomStream(1, 0).uniforms(n)
        u1 = RandomStream(1, 1).uniforms(n)
        assert abs(np.corrcoef(u0, u1)[0, 1]) <= 4.0 / math.sqrt(n)

    def test_child_streams_differ(self):
        s = RandomStream(4, 0)
        kids = [s.child(i) for i in range(4)] + [s.child(0).child(0)]
        seqs = [tuple(k.uniforms(8).tolist()) for k in kids]
        assert len(set(seqs)) == len(seqs)
        c1, c2 = RandomStream(4, 0).child(3), RandomStream(4, 0).child(3)
        assert np.array_equal(c1.uniforms(16), c2.uniforms(16))

    def test_batch_rows_are_the_streams(self):
        parent = RandomStream(2**64 - 1, 2**63 + 5)
        parent.uniforms(3)  # a parent's own counter does not reach its children
        kids = [parent.child(i) for i in range(4, 9)]
        kids[1].uniforms(7)
        batch = StreamBatch([k._base for k in kids], [k.counter for k in kids])
        every = StreamBatch.children(parent, 9)
        fresh = StreamBatch(every.bases[4:], every.counters[4:])
        assert np.array_equal(fresh.bases, batch.bases)
        normals, uniforms = batch.std_normals(6), batch.uniforms_open(3)
        assert np.array_equal(fresh.std_normals(6)[0], normals[0])
        for g, kid in enumerate(kids):
            assert np.array_equal(normals[g], kid.std_normals(6))
            assert np.array_equal(uniforms[g], kid.uniforms_open(3))
        assert batch.counters.tolist() == [k.counter for k in kids] == [9, 16, 9, 9, 9]

    def test_counter_wraps_past_the_end(self):
        # blocks and scalars share one counter, which wraps modulo 2**64
        stream = RandomStream(1, 2)
        stream._row.counters[0] = 2**64 - 3
        got = np.concatenate([stream.uniforms_open(5), stream.uniforms_open(2), [stream.uniform_open()]])
        at = np.array([2**64 - 2, 2**64 - 1, 0, 1, 2, 3, 4, 5], dtype=np.uint64)
        want = _stream_words_out_of_place(np.uint64(stream._base), np.uint64(0), at)
        assert np.array_equal(got, _open_unit_out_of_place(want))
        assert stream.counter == 5

    def test_open_uniforms_strictly_inside(self):
        u = RandomStream(2, 0).uniforms_open(10**5)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            RandomStream(-1)
        with pytest.raises(DomainError):
            RandomStream(0).child(-2)


class TestFiniteDiff:
    def test_quadratic_exact(self):
        assert finite_diff_grad(lambda x: x**2, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-8)

    def test_constant_zero(self):
        g = finite_diff_grad(lambda v: 7.5, np.array([1.0, -2.0, 0.3]), 1e-6)
        assert np.array_equal(g, np.zeros(3))

    def test_cross_checks_h_gam_derivative(self):
        # two in-repo implementations must agree through the oracle
        fd = finite_diff_grad(lambda a: h_gam(0.3, a), 2.0, 1e-6)
        assert abs(fd - dh_dalpha(0.3, 2.0)) / abs(fd) <= 1e-5

    def test_propagates_non_finite(self):
        def f(v):
            return float("nan") if v[1] < 0.0 else float(v[1])

        with pytest.raises(DomainError, match="coordinate 1"):
            finite_diff_grad(f, np.array([1.0, 1e-9]), 1e-6)

    @given(
        st.tuples(
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=-3, max_value=3),
        )
    )
    def test_linear_functions_recovered(self, coeffs):
        c = np.array(coeffs)
        x = np.array([0.4, -1.2, 2.0])
        g = finite_diff_grad(lambda v: float(np.dot(c, v)), x, 1e-5)
        assert np.max(np.abs(g - c)) <= 1e-9
