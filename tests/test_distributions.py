import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from rsvi.distributions import DirichletParams, dirichlet_entropy, dirichlet_kl
from rsvi.estimators import ThetaState
from rsvi.exceptions import DomainError
from rsvi.mathcore import RandomStream, finite_diff_grad
from rsvi.models import LatentBlock, ModelSpec
from rsvi.rejection import make_sampler_bank

pos = st.floats(min_value=0.2, max_value=25.0)


def one_block(family, dim):
    """A one-latent-block spec for ThetaState's entropy; its log-joint is
    never called."""
    return ModelSpec([LatentBlock("q", family, dim)], None)


def entropy_grad_error(spec, theta):
    """Relative error of ThetaState's entropy gradient against central
    differences of its entropy."""
    fd = finite_diff_grad(lambda v: ThetaState(spec, v).entropy, theta, 1e-6)
    an = ThetaState(spec, theta).g_entropy
    return np.max(np.abs(an - fd) / np.maximum(1.0, np.abs(fd)))


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            DirichletParams(np.array([1.0]))
        with pytest.raises(DomainError):
            DirichletParams(np.array([1.0, -1.0]))


class TestGammaEntropy:
    """The mean-shape gamma entropy and its gradient, as ThetaState forms them."""

    def test_frozen_values(self):
        spec = one_block("gamma_mean_shape", 1)
        assert ThetaState(spec, [1.0, 1.0]).entropy == pytest.approx(1.0, abs=1e-13)
        # shape 1 and mean 1/e is rate e
        assert ThetaState(spec, [1.0, 1.0 / math.e]).entropy == pytest.approx(0.0, abs=1e-13)

    @given(pos, pos)
    def test_mean_shape_grad_matches_finite_differences(self, a, mu):
        assert entropy_grad_error(one_block("gamma_mean_shape", 1), np.array([a, mu])) <= 1e-6


class TestDirichlet:
    def test_entropy_grad_matches_finite_differences(self):
        assert entropy_grad_error(one_block("dirichlet", 3), np.array([2.0, 3.0, 4.0])) <= 1e-6

    def test_entropy_matches_reference(self):
        conc = np.array([0.6, 2.0, 5.5])
        assert dirichlet_entropy(DirichletParams(conc)) == pytest.approx(
            stats.dirichlet.entropy(conc), abs=1e-10
        )


class TestDirichletKl:
    def test_identity_is_zero(self):
        p = DirichletParams(np.array([2.0, 3.0, 4.0]))
        assert dirichlet_kl(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.3, max_value=8.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.3, max_value=8.0), min_size=3, max_size=3),
    )
    def test_non_negative(self, a, b):
        p, q = DirichletParams(np.array(a)), DirichletParams(np.array(b))
        assert dirichlet_kl(p, q) >= -1e-12

    def test_matches_monte_carlo(self):
        p = DirichletParams(np.array([2.0, 5.0, 3.0]))
        q = DirichletParams(np.array([1.0, 1.0, 1.0]))
        rng = np.random.default_rng(0)
        zs = rng.dirichlet(p.conc, size=200000)
        mc = np.mean(stats.dirichlet.logpdf(zs.T, p.conc) - stats.dirichlet.logpdf(zs.T, q.conc))
        assert dirichlet_kl(p, q) == pytest.approx(mc, abs=4.0 * 0.01)


class TestDerivedTransforms:
    """Moments of families built by hand from the bank's gamma draws."""

    def test_beta_moments_via_gamma_draws(self):
        a, b, n = 2.0, 3.0, 10**5
        bank = make_sampler_bank(np.array([a, b]), 1.0, 0)
        draws = bank.draw_batch(RandomStream(31, 0), n).z
        beta_draws = draws[:, 0] / draws.sum(axis=1)
        mean = a / (a + b)
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        assert abs(beta_draws.mean() - mean) <= 4.0 * sd / math.sqrt(n)

    @pytest.mark.parametrize(
        "family,theta,moments",
        [
            ("chi_squared", (6.0,), (6.0, 12.0)),
            ("nakagami", (1.5, 2.0), (None, None)),
            ("student_t", (7.0,), (0.0, 7.0 / 5.0)),
        ],
    )
    def test_sampling_moments(self, family, theta, moments):
        n = 10**5
        stream = RandomStream(57, hash(family) % 1000)
        if family == "chi_squared":
            bank = make_sampler_bank(np.array([theta[0] / 2.0]), 1.0, 0)
            aux = bank.draw_batch(stream, n).z
            draws = 2.0 * aux[:, 0]
        elif family == "nakagami":
            m, omega = theta
            bank = make_sampler_bank(np.array([m]), 1.0, 0)
            aux = bank.draw_batch(stream, n).z
            draws = np.sqrt(omega * aux[:, 0] / m)
        else:
            nu = theta[0]
            bank = make_sampler_bank(np.array([nu / 2.0]), 1.0, 0)
            aux = bank.draw_batch(stream, n).z
            normals = stream.std_normals(n)
            draws = np.sqrt(nu / (2.0 * aux[:, 0])) * normals
        if family == "nakagami":
            m, omega = theta
            ref_mean = math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) * math.sqrt(omega / m)
            ref_var = omega - ref_mean**2
        else:
            ref_mean, ref_var = moments
        se_mean = math.sqrt(draws.var() / n)
        assert abs(draws.mean() - ref_mean) <= 4.0 * se_mean
        se_var = math.sqrt(max(np.var((draws - draws.mean()) ** 2), 1e-12) / n)
        assert abs(draws.var() - ref_var) <= 4.0 * se_var
