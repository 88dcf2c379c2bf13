import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rsvi.distributions import DirichletParams
from rsvi.mathcore import RandomStream
from rsvi.models import (
    ConjugateModel,
    SparseGammaDEF,
    conjugate_model_spec,
    def_model_spec,
    make_synthetic_def_data,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def conj5():
    """The desk-scale conjugate instance: K=5, N=20, uniform prior."""
    return ConjugateModel(np.ones(5), np.array([8, 5, 4, 2, 1]))


@pytest.fixture(scope="session")
def conj5_spec(conj5):
    return conjugate_model_spec(conj5)


@pytest.fixture(scope="session")
def theta5():
    # mixed shapes around 1, one below (exercises the forced augmentation)
    return np.array([1.4, 0.8, 2.2, 1.0, 3.0])


@pytest.fixture(scope="session")
def q5(theta5):
    return DirichletParams(theta5)


@pytest.fixture(scope="session")
def def_small():
    counts, _ = make_synthetic_def_data((3, 2), 4, 3, RandomStream(0, 977))
    return SparseGammaDEF((3, 2), counts)


@pytest.fixture(scope="session")
def def_small_spec(def_small):
    return def_model_spec(def_small)


def fresh_stream(seed, stream_id=0):
    return RandomStream(seed, stream_id)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def log_ratio_reference(eps, alpha):
    """ln q(h(eps); alpha, 1) + ln dh/deps + eps^2/2 + ln sqrt(2 pi), the
    target/proposal log-ratio written out from the gamma log-density."""
    s = math.sqrt(9.0 * alpha - 3.0)
    y = 1.0 + eps / s
    z = (alpha - 1.0 / 3.0) * y**3
    jac = 3.0 * (alpha - 1.0 / 3.0) * y * y / s
    log_q = (alpha - 1.0) * math.log(z) - z - math.lgamma(alpha)
    return log_q + math.log(jac) + 0.5 * eps * eps + 0.5 * math.log(2.0 * math.pi)


def envelope_log_M(alpha):
    """ln M = sup over eps of the log-ratio, alpha >= 1, by golden-section
    search (tolerance 1e-10 in eps) on the unimodal reference log-ratio.

    The oracle for the closed mode value rsvi.rejection._log_m_at_mode.
    """
    alpha = float(alpha)
    a, b = -0.999999 * math.sqrt(9.0 * alpha - 3.0), 8.0

    def fn(e):
        return log_ratio_reference(e, alpha)

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return fn(0.5 * (a + b))


@pytest.fixture(scope="session")
def golden_log_m():
    return envelope_log_M


@pytest.fixture(scope="session")
def reference_log_ratio():
    return log_ratio_reference
