"""Estimator outputs pinned across commits.

The values were recorded from the estimators as they ran one replicate at
a time, one `estimate` call per child stream. They pin the stream layout
of the rejection rounds, the augmentation rows and the importance
proposals: a change that consumes words in another order moves a total by
O(1), while libm differences between CPUs move it by a few ulps, hence
rtol 1e-12. Stream counters are integers and must match exactly.
"""

import numpy as np
import pytest

from rsvi.estimators import EstimatorConfig, default_theta_init, estimate, variance_profile
from rsvi.mathcore import RandomStream

RTOL = 1e-12

# (kind, B): (total, stream counter after the call); RandomStream(31, 0), theta5
CONJ5_TOTALS = {
    ('rsvi', 4): ([6.363374862537302, 31.461340775628084, -1.4019117983858733, -3.4073391328595863, -1.303922830372024], 30),
    ('rsvi', 1): ([4.422304789821382, 29.1333884399415, -1.0825849503348375, -3.2086790304458006, -1.1859954592266861], 15),
    ('rsvi', 0): ([1.4993942573133128, 29.099166356333306, -0.8892844495014387, -0.698060369040723, -2.399929366314897], 15),
    ('score_function', 0): ([-16.682212432383867, 26.736929366205338, -2.8575512063035515, -15.18484292287225, 6.426337611385012], 15),
    ('importance', 1): ([20.522328847416922, -1.623740835356147, -0.16266234985742553, -0.374050083966782, -2.254582063577973], 10),
}

# (kind, B): (first six entries, sum of |total|, counter); RandomStream(32, 0),
# default initialization
DEF_SMALL_TOTALS = {
    ('rsvi', 4): ([-4.499966628811993, -6.523561882779235, -6.108131553095458, 1.601316752513176, -8.813730578335601, 8.000167884326201], 464.9829190933251, 210),
    ('rsvi', 1): ([-4.988319719006947, -6.044215335426831, -3.8425483963863525, 0.7071148624226249, -10.595515365236952, 5.5741202263043945], 256.54999569582856, 105),
    ('rsvi', 0): ([-4.988319719006947, -6.044215335426831, -3.8425483963863525, 0.7071148624226249, -10.595515365236952, 5.5741202263043945], 256.54999569582856, 105),
    ('score_function', 0): ([188.7397969218111, 242.14041677988754, 116.63678605354661, -93.0270952524077, 81.68311218363033, -110.84684868383219], 4826.417331798087, 105),
    ('importance', 1): ([-0.4083736336470287, -3.21110481518456, -2.8199029687406436, -7.5428499422412365, -12.113283057384871, -1.7977056046269024], 347.59823747773, 70),
}

# as above at every shape 1.0 with draws=3, RandomStream(35, 0): some
# latents need a second rejection round (counter 216 = 3 x 70 + 6)
DEF_SMALL_SHAPE_ONE = {
    ('rsvi', 0): ([5.537679365595495, 14.30654263818777, 9.16842117954258, 13.50956644358312, 8.275179160795489, 7.476156365096645], 1544.482071097611, 216),
    ('score_function', 0): ([-60.77017803121245, -67.84519633516545, 22.889528773492813, -112.0715914011002, -10.854909543336694, 0.014109785659243812], 7467.977515040386, 216),
}

# (kind, B): (total of the second of two draws=2 estimates on one
# RandomStream(9, 1), its counter afterwards); theta5
REUSED_STREAM = {
    ('rsvi', 4): ([6.888206165681178, 4.056357232077858, 1.104603916280218, 1.0094527182432143, -2.8299133290421286], 120),
    ('rsvi', 1): ([7.47774181049639, 7.798613538215237, -0.7299208772775829, 0.4566350139295078, -2.215769486017756], 60),
    ('rsvi', 0): ([8.361986337820255, 6.9076260913104335, -0.9035457702976657, 4.054757154236793, -2.6162804870341287], 60),
    ('score_function', 0): ([1.6820963544273362, -4.44695349920951, -3.5201000285090083, 12.592103569600662, 0.5870681823642818], 60),
    ('importance', 1): ([7.904068675174623, -0.38833483689801507, -0.7171220864278713, 1.9357594365308, -1.6235632395119675], 40),
}

# median variance, G=200 on RandomStream(33, 0), theta5
CONJ5_PROFILE_MEDIANS = {
    ('rsvi', 4): 8.197596694955864,
    ('rsvi', 1): 9.105865091901418,
    ('rsvi', 0): 13.002255772442238,
    ('score_function', 0): 655.8905688806472,
    ('importance', 1): 10.842745716115708,
}

# median variance, G=20 and draws=2 on RandomStream(34, 0), default initialization
DEF_SMALL_PROFILE_MEDIANS = {
    ('rsvi', 4): 69.40037846449201,
    ('rsvi', 1): 46.55979947354021,
    ('rsvi', 0): 46.55979947354021,
    ('score_function', 0): 8730.896400872465,
    ('importance', 1): 151.4910606856185,
}


@pytest.mark.parametrize("kind,B", list(CONJ5_TOTALS))
def test_conj5_estimate(conj5_spec, theta5, kind, B):
    total, counter = CONJ5_TOTALS[(kind, B)]
    stream = RandomStream(31, 0)
    est = estimate(conj5_spec, theta5, EstimatorConfig(kind, aug_b=B), stream)
    np.testing.assert_allclose(est.total, total, rtol=RTOL)
    assert stream.counter == counter


@pytest.mark.parametrize("kind,B", list(DEF_SMALL_TOTALS))
def test_def_small_estimate(def_small_spec, kind, B):
    head, abs_sum, counter = DEF_SMALL_TOTALS[(kind, B)]
    stream = RandomStream(32, 0)
    est = estimate(def_small_spec, default_theta_init(def_small_spec), EstimatorConfig(kind, aug_b=B), stream)
    np.testing.assert_allclose(est.total[:6], head, rtol=RTOL)
    assert np.abs(est.total).sum() == pytest.approx(abs_sum, rel=RTOL)
    assert stream.counter == counter


@pytest.mark.parametrize("kind,B", list(DEF_SMALL_SHAPE_ONE))
def test_def_small_second_rounds(def_small_spec, kind, B):
    head, abs_sum, counter = DEF_SMALL_SHAPE_ONE[(kind, B)]
    theta = default_theta_init(def_small_spec)
    theta = np.where(theta == 0.5, 1.0, theta)
    stream = RandomStream(35, 0)
    est = estimate(def_small_spec, theta, EstimatorConfig(kind, aug_b=B, draws=3), stream)
    np.testing.assert_allclose(est.total[:6], head, rtol=RTOL)
    assert np.abs(est.total).sum() == pytest.approx(abs_sum, rel=RTOL)
    assert stream.counter == counter


@pytest.mark.parametrize("kind,B", list(REUSED_STREAM))
def test_reused_stream_continues(conj5_spec, theta5, kind, B):
    total, counter = REUSED_STREAM[(kind, B)]
    cfg = EstimatorConfig(kind, aug_b=B, draws=2)
    stream = RandomStream(9, 1)
    estimate(conj5_spec, theta5, cfg, stream)
    est = estimate(conj5_spec, theta5, cfg, stream)
    np.testing.assert_allclose(est.total, total, rtol=RTOL)
    assert stream.counter == counter


@pytest.mark.parametrize("kind,B", list(CONJ5_PROFILE_MEDIANS))
def test_conj5_profile_median(conj5_spec, theta5, kind, B):
    prof = variance_profile(conj5_spec, theta5, EstimatorConfig(kind, aug_b=B), 200, RandomStream(33, 0))
    assert prof.vmedian == pytest.approx(CONJ5_PROFILE_MEDIANS[(kind, B)], rel=RTOL)


@pytest.mark.parametrize("kind,B", list(DEF_SMALL_PROFILE_MEDIANS))
def test_def_small_profile_median(def_small_spec, kind, B):
    cfg = EstimatorConfig(kind, aug_b=B, draws=2)
    prof = variance_profile(def_small_spec, default_theta_init(def_small_spec), cfg, 20, RandomStream(34, 0))
    assert prof.vmedian == pytest.approx(DEF_SMALL_PROFILE_MEDIANS[(kind, B)], rel=RTOL)
