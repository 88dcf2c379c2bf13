import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special, stats

from rsvi import rejection
from rsvi.distributions import DirichletParams
from rsvi.estimators import EstimatorConfig, estimate
from rsvi.exceptions import DomainError, SamplerStallError
from rsvi.mathcore import RandomStream, StreamBatch, finite_diff_grad
from rsvi.models import LatentBlock, ModelSpec
from rsvi.rejection import (
    dh_dalpha,
    dh_deps,
    grad_log_ratio_gamma,
    h_gam,
    log_ratio_q_over_r,
    make_sampler_bank,
    _log_m_at_mode,
)

H_GAM_1_2 = 3.3196832142632680  # (5/3)(1 + 1/sqrt(15))^3, direct arithmetic
DH_DEPS_0_2 = 1.2909944487358056  # 5/sqrt(15)


class TestTransform:
    def test_frozen_values(self):
        assert h_gam(0.0, 2.0) == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert h_gam(1.0, 2.0) == pytest.approx(H_GAM_1_2, rel=1e-14)
        assert dh_deps(0.0, 2.0) == pytest.approx(DH_DEPS_0_2, rel=1e-14)
        for a in (1.0, 2.0, 3.7, 50.0):
            assert dh_dalpha(0.0, a) == pytest.approx(1.0, rel=1e-14)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            h_gam(-math.sqrt(6.0), 1.0)  # cube hits zero exactly
        with pytest.raises(DomainError):
            h_gam(-10.0, 1.0)
        with pytest.raises(DomainError):
            h_gam(0.0, 0.9)  # shape below one is out of the transform domain

    def test_derivatives_match_finite_differences(self):
        stream = RandomStream(3, 0)
        worst_e = worst_a = 0.0
        for _ in range(50):
            a = 1.0 + 19.0 * stream.uniform()
            e = -2.5 + 5.5 * stream.uniform()
            fd_e = finite_diff_grad(lambda v: h_gam(v, a), e, 1e-6)
            fd_a = finite_diff_grad(lambda v: h_gam(e, v), a, 1e-6)
            worst_e = max(worst_e, abs(fd_e - dh_deps(e, a)) / abs(fd_e))
            worst_a = max(worst_a, abs(fd_a - dh_dalpha(e, a)) / max(1e-9, abs(fd_a)))
        assert worst_e <= 1e-6
        assert worst_a <= 1e-6


class TestLogRatio:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 10.0])
    def test_accepted_marginal_integrates_to_one(self, alpha):
        lo = -math.sqrt(9.0 * alpha - 3.0) + 1e-9

        def pi_density(e):
            return math.exp(log_ratio_q_over_r(e, alpha)) * math.exp(-0.5 * e * e) / math.sqrt(2 * math.pi)

        val, _ = integrate.quad(pi_density, lo, 12.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_matches_reference_formula(self, reference_log_ratio):
        for a in (1.0, 1.7, 10.0, 250.0):
            for e in (-0.9 * math.sqrt(9.0 * a - 3.0), -1.0, 0.0, 0.3, 4.0):
                ref = reference_log_ratio(e, a)
                assert log_ratio_q_over_r(e, a) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        eps = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(log_ratio_q_over_r(eps, 2.0), [log_ratio_q_over_r(float(e), 2.0) for e in eps])

    def test_finite_and_smooth_at_zero(self):
        for a in (1.0, 2.0, 10.0):
            vals = [log_ratio_q_over_r(e, a) for e in (-1e-4, 0.0, 1e-4)]
            assert all(math.isfinite(v) for v in vals)
            assert abs(vals[0] - 2 * vals[1] + vals[2]) < 1e-4

    def test_shape_sensitivity_decreases_with_alpha(self):
        # restricted to each shape's transform support (alpha=1 only covers
        # eps > -sqrt(6)); the boundary blow-up at small shapes is the point
        grid = np.linspace(-3.0, 3.0, 241)

        def max_dalpha(alpha):
            valid = grid > -math.sqrt(9.0 * alpha - 3.0) + 1e-9
            return float(np.max(np.abs(grad_log_ratio_gamma(grid[valid], alpha))))

        assert max_dalpha(10.0) < max_dalpha(1.0)


class TestEnvelope:
    def test_golden_section_matches_mode_evaluation(self, golden_log_m):
        for a in [1.0, 1.3, 2.0, 5.0, 17.0, 100.0, 1e4]:
            tol = 1e-12 + 4e-16 * a * max(1.0, math.log(a))
            assert abs(golden_log_m(a) - _log_m_at_mode(a)) <= tol

    def test_acceptance_probabilities_match_reported(self):
        assert math.exp(-_log_m_at_mode(2.0)) == pytest.approx(0.98, abs=0.005)
        assert math.exp(-_log_m_at_mode(1.0)) >= 0.95

    def test_acceptance_non_decreasing_in_shape(self):
        acc = [math.exp(-_log_m_at_mode(a)) for a in (1.0, 2.0, 5.0, 10.0, 100.0)]
        assert all(b >= a for a, b in zip(acc, acc[1:]))

    def test_huge_shape_accepts_almost_surely(self):
        assert math.exp(-_log_m_at_mode(1e4)) >= 0.999

    def test_is_an_upper_bound_on_probes(self):
        for a in (1.0, 2.0, 10.0):
            log_m = _log_m_at_mode(a)
            s = math.sqrt(9.0 * a - 3.0)
            grid = np.linspace(-0.999 * s, 8.0, 1000)
            assert np.max(log_ratio_q_over_r(grid, a)) <= log_m + 1e-9


class TestProposition1Moments:
    """E[f(h(eps))] over the accepted-eps marginal equals the gamma moments."""

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 10.0])
    @pytest.mark.parametrize("B", [0, 4])
    def test_mean_and_meanlog(self, alpha, B):
        n = 10**5
        beta = 1.0
        bank = make_sampler_bank(np.array([alpha]), beta, B)
        z = bank.draw_batch(RandomStream(7, int(alpha) * 10 + B), n).z[:, 0]
        se_mean = math.sqrt(alpha) / beta / math.sqrt(n)
        assert abs(z.mean() - alpha / beta) <= 4.0 * se_mean
        se_log = math.sqrt(special.polygamma(1, alpha)) / math.sqrt(n)
        expected_log = special.digamma(alpha) - math.log(beta)
        assert abs(np.log(z).mean() - expected_log) <= 4.0 * se_log


class TestBankSampler:
    def test_bump_rule(self):
        bank = make_sampler_bank(np.array([0.1, 2.0]), 1.0, 0)
        assert bank.b_steps.tolist() == [1, 0]
        assert bank.eff_shapes.tolist() == [0.1 + 1, 2.0]
        assert make_sampler_bank(2.0, 1.0, 4).eff_shapes.tolist() == [6.0]
        with pytest.raises(DomainError):
            make_sampler_bank(2.0, 1.0, -1)

    def test_empirical_acceptance_matches_envelope(self):
        bank = make_sampler_bank(np.array([2.0]), 1.0, 0)
        trials = bank.draw_batch(RandomStream(5, 0), 20000).trials
        assert trials.size / trials.sum() == pytest.approx(math.exp(-bank.log_M[0]), abs=0.005)

    def test_deterministic(self):
        bank = make_sampler_bank(np.array([0.5, 2.0, 7.0]), np.array([1.0, 2.0, 0.5]), 1)
        a = bank.draw_batch(RandomStream(3, 3), 500)
        b = bank.draw_batch(RandomStream(3, 3), 500)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.trials, b.trials)

    def test_marginals_on_grid(self):
        # four KS tests held at family-wise level 0.01 (Bonferroni)
        shapes = np.array([0.5, 1.0, 2.0, 10.0])
        rates = np.array([1.0, 3.0, 1.0, 2.0])
        bank = make_sampler_bank(shapes, rates, 1)
        batch = bank.draw_batch(RandomStream(6, 0), 40000)
        for i in range(4):
            p = stats.kstest(
                batch.z[:, i], lambda x: stats.gamma.cdf(x, shapes[i], scale=1.0 / rates[i])
            ).pvalue
            assert p > 0.01 / 4, f"coordinate {i}"

    def test_draw_consistent_with_fields(self):
        bank = make_sampler_bank(np.array([0.7, 3.0]), np.array([2.0, 1.0]), 2)
        stream = RandomStream(9, 0)
        bd = bank.draw(stream)
        # the rejection rounds take two words per trial, then augmentation
        # takes its max_b x size uniforms: the last words the draw took
        assert bank.max_b == 2 and stream.counter == 2 * int(bd.trials.sum()) + 2 * 2
        copy = RandomStream(9, 0)
        copy.uniforms_open(stream.counter - 2 * 2)
        aug_u = copy.uniforms_open(2 * 2).reshape(2, 2)
        # log z = ln h + sum_j ln(u_j) / (shape + j) - ln rate, with the
        # augmentation uniforms honoring the per-element step counts
        log_prod_u = sum(
            np.where(j < bank.b_steps, np.log(aug_u[j]) / (bank.shapes + j), 0.0) for j in range(2)
        )
        assert np.allclose(bd.log_z, np.log(bd.h) + log_prod_u - np.log(bank.rates))
        assert np.allclose(bd.z, bd.h * np.exp(log_prod_u) / bank.rates)
        assert np.all(bd.trials >= 1)
        assert np.all((aug_u > 0.0) & (aug_u < 1.0))

    def test_batch_of_one_is_a_draw(self):
        bank = make_sampler_bank(np.array([0.3, 1.0, 2.5]), np.array([1.0, 2.0, 0.5]), 1)
        one, batch = RandomStream(14, 1), RandomStream(14, 1)
        bd, bb = bank.draw(one), bank.draw_batch(batch, 1)
        for field in ("eps", "h", "aug_dsum", "log_z", "trials"):
            assert getattr(bb, field).shape == (1, 3), field
            assert np.array_equal(getattr(bb, field)[0], getattr(bd, field)), field
        assert batch.counter == one.counter > 0

    def test_batch_is_the_repeated_bank(self):
        # n draws from one stream take its words as one draw of the bank
        # repeated n times: second rounds at shape 1, and a row of
        # augmentation uniforms that only shape 0.3's forced step uses
        shapes, rates = np.array([0.3, 1.0, 2.5, 1.0]), np.array([1.0, 2.0, 0.5, 3.0])
        bank = make_sampler_bank(shapes, rates, 0)
        repeated = make_sampler_bank(np.tile(shapes, 60), np.tile(rates, 60), 0)
        batch, one = RandomStream(16, 2), RandomStream(16, 2)
        bb, bd = bank.draw_batch(batch, 60), repeated.draw(one)
        assert bb.trials.max() >= 2
        for field in ("eps", "h", "aug_dsum", "log_z", "trials"):
            assert np.array_equal(getattr(bb, field), getattr(bd, field).reshape(60, 4)), field
        assert batch.counter == one.counter

    def test_empty_batch(self):
        bank = make_sampler_bank(np.array([2.0]), 1.0, 0)
        stream = RandomStream(1, 0)
        batch = bank.draw_batch(stream, 0)
        assert batch.z.shape == (0, 1) and stream.counter == 0
        for field in ("eps", "h", "aug_dsum", "log_z", "trials"):
            assert getattr(batch, field).shape == (0, 1), field
        assert batch.trials.dtype == np.int64

    def test_stall_reports_rounds_run_and_envelope(self, monkeypatch):
        bank = make_sampler_bank(np.array([2.0, 3.0]), 1.0, 0)
        stream = RandomStream(0, 0)
        monkeypatch.setattr(rejection, "DEFAULT_TRIAL_BUDGET", 0)
        with pytest.raises(SamplerStallError) as info:
            bank.draw(stream)
        assert info.value.trials == 0 and stream.counter == 0
        assert info.value.shape == 2.0
        assert info.value.log_m == _log_m_at_mode(2.0)

    def test_stall_after_one_round(self, monkeypatch):
        # at shape 1 about 5% of proposals reject, so 500 elements need a second round
        bank = make_sampler_bank(np.array([1.0]), 1.0, 0)
        stream = RandomStream(4, 0)
        monkeypatch.setattr(rejection, "DEFAULT_TRIAL_BUDGET", 1)
        with pytest.raises(SamplerStallError) as info:
            bank.draw_batch(stream, 500)
        assert info.value.trials == 1 and info.value.shape == 1.0
        assert info.value.log_m == _log_m_at_mode(1.0)
        assert stream.counter == 2 * 500  # one round ran: a normal and a uniform each

    def test_streams_match_one_at_a_time(self):
        # second rounds at shape 1, and a row of augmentation uniforms for
        # the step that shape 0.3 forces
        bank = make_sampler_bank(np.array([0.3, 1.0, 1.0, 2.5, 1.0]), np.array([1.0, 2.0, 0.5, 1.0, 3.0]), 0)
        root = RandomStream(12, 5)
        rows = StreamBatch.children(root, 40)
        together = bank.draw_streams(rows)
        assert together.trials.max() >= 2
        for g in range(40):
            alone = RandomStream(12, 5).child(g)
            bd = bank.draw(alone)
            for field in ("eps", "h", "aug_dsum", "log_z", "trials"):
                assert np.array_equal(getattr(together, field)[g], getattr(bd, field)), field
            assert int(rows.counters[g]) == alone.counter


class TestLogSpaceDraws:
    """Shape augmentation carried in log space stays finite at extreme shapes."""

    @given(
        log10_shape=st.floats(min_value=-4.0, max_value=4.0),
        log10_rate=st.floats(min_value=-3.0, max_value=3.0),
        B=st.sampled_from([0, 1, 4]),
    )
    def test_finite_log_draws_and_gradient(self, log10_shape, log10_rate, B):
        shape, rate = 10.0**log10_shape, 10.0**log10_rate
        bank = make_sampler_bank(np.array([shape]), rate, B)
        assert np.all(np.isfinite(bank.draw(RandomStream(1, 0)).log_z))
        assert np.all(np.isfinite(bank.draw_batch(RandomStream(2, 0), 50).log_z))
        # f = ln z - z on one mean-shape latent, in the log-latent contract
        def log_joint_batch(lz, grad=False):
            f = lz[:, 0] - np.exp(lz[:, 0])
            return (f, 1.0 - np.exp(lz)) if grad else f

        spec = ModelSpec((LatentBlock("z", "gamma_mean_shape", 1),), log_joint_batch)
        theta = np.array([shape, shape / rate])
        est = estimate(spec, theta, EstimatorConfig("rsvi", aug_b=B), RandomStream(3, 0))
        assert np.all(np.isfinite(est.total))


def _simplex(log_z):
    """Bank draws normalized onto the simplex in log space."""
    return np.exp(log_z - np.logaddexp.reduce(log_z, axis=-1, keepdims=True))


class TestDirichletSampling:
    def test_simplex_and_fields(self):
        bank = make_sampler_bank(np.array([2.0, 3.0, 5.0]), 1.0, 1)
        stream = RandomStream(11, 0)
        bd = bank.draw(stream)
        assert abs(_simplex(bd.log_z).sum() - 1.0) <= 1e-12
        # two words per trial, then one row of three augmentation uniforms
        assert np.all(bd.trials >= 1) and stream.counter == 2 * int(bd.trials.sum()) + 1 * 3

    def test_symmetric_means(self):
        k, n = 4, 30000
        p = DirichletParams(np.full(k, 2.5))
        bank = make_sampler_bank(p.conc, 1.0, 0)
        simplex = _simplex(bank.draw_batch(RandomStream(13, 0), n).log_z)
        mean = simplex.mean(axis=0)
        a0 = k * 2.5
        se = math.sqrt((2.5 / a0) * (1 - 2.5 / a0) / (a0 + 1.0) / n)
        assert np.max(np.abs(mean - 1.0 / k)) <= 4.0 * se

    def test_asymmetric_means(self):
        p = DirichletParams(np.array([2.0, 3.0, 5.0]))
        n = 30000
        bank = make_sampler_bank(p.conc, 1.0, 1)
        simplex = _simplex(bank.draw_batch(RandomStream(14, 0), n).log_z)
        target = p.conc / p.conc.sum()
        for i in range(3):
            se = math.sqrt(target[i] * (1 - target[i]) / (p.conc.sum() + 1.0) / n)
            assert abs(simplex[:, i].mean() - target[i]) <= 4.0 * se

    def test_tiny_concentrations_stay_on_the_simplex(self):
        # most draws lie below the smallest double; the log-space
        # normalization must not give 0/0
        bank = make_sampler_bank(np.array([1e-3, 2e-3]), 1.0, 0)
        simplex = _simplex(bank.draw_batch(RandomStream(15, 0), 500).log_z)
        assert np.all(np.isfinite(simplex))
        assert np.allclose(simplex.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
