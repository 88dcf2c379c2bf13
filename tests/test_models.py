import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from rsvi.distributions import DirichletParams, dirichlet_kl
from rsvi.exceptions import DomainError
from rsvi.mathcore import RandomStream, finite_diff_grad
from rsvi import models
from rsvi.models import (
    ConjugateModel,
    LatentBlock,
    POISSON_RATE_FLOOR,
    ModelSpec,
    SparseGammaDEF,
    _LOG_MATMUL_TINY,
    _log_matmul,
    _poisson_draw,
    conjugate_elbo_exact,
    conjugate_exact_elbo_grad,
    conjugate_model_spec,
    def_model_spec,
    make_synthetic_def_data,
)

DEF_1X1_LOG_JOINT = -6.256081093200410  # x=0, w=1, z=1, single layer, by hand


def row_value(spec, lz):
    """log p at one point, as the one-row batch."""
    return float(spec.log_joint_batch(np.asarray(lz, dtype=float)[None])[0])


def row_grad(spec, lz):
    """d log p / d log z at one point, as the one-row batch."""
    return np.asarray(spec.log_joint_batch(np.asarray(lz, dtype=float)[None], grad=True)[1], dtype=float)[0]


@pytest.fixture(scope="module")
def def_3layer():
    counts, _ = make_synthetic_def_data((4, 3, 2), 5, 6, RandomStream(3, 977))
    return SparseGammaDEF((4, 3, 2), counts)


@pytest.fixture(scope="module")
def def_3layer_spec(def_3layer):
    return def_model_spec(def_3layer)


def _def_edge_rows(m, spec):
    """40 rows at the DEF kernels' fallbacks: 20 whose Poisson rates take
    _log_matmul's log-sum-exp recompute (random z1 and w0 entries 700 below
    the rest) and 20 whose rates lie below POISSON_RATE_FLOOR."""
    rng = np.random.default_rng(12)
    blocks = {pb.name: pb.latent_slice for pb in spec.blocks}
    far, low = [], []
    for i in range(20):
        row = rng.normal(0.0, 1.0, spec.n_latents)
        for name in ("z1", "w0"):
            block = row[blocks[name]]
            block[rng.random(block.size) < 0.5] -= 700.0
        far.append(row)
        row = spec.random_interior_point(RandomStream(10, i))
        row[blocks["z1"]] -= 15.0
        row[blocks["w0"]] -= 15.0
        low.append(row)
    k1 = m.layer_sizes[0]
    for rows, in_fallback in (
        (far, lambda la, lb: _shifted_products(la, lb) < _LOG_MATMUL_TINY),
        (low, lambda la, lb: _log_matmul(la, lb) < math.log(POISSON_RATE_FLOOR)),
    ):
        lz = np.array(rows)
        la = lz[:, blocks["z1"]].reshape(-1, m.n_obs, k1)
        lb = lz[:, blocks["w0"]].reshape(-1, k1, m.n_dim)
        assert in_fallback(la, lb).any(axis=(1, 2)).sum() >= 10
    return far + low


def _shifted_products(la, lb):
    """The max-shifted products _log_matmul compares against _LOG_MATMUL_TINY."""
    ma = la.max(axis=-1, keepdims=True)
    mb = lb.max(axis=-2, keepdims=True)
    return np.matmul(np.exp(la - ma), np.exp(lb - mb))


class TestModelSpec:
    def test_validation(self):
        def log_joint_batch(z, grad=False):
            return (np.zeros(len(z)), z) if grad else np.zeros(len(z))

        with pytest.raises(DomainError):
            ModelSpec((), log_joint_batch)
        with pytest.raises(DomainError):
            ModelSpec((LatentBlock("z", "weird", 3),), log_joint_batch)
        with pytest.raises(DomainError):
            ModelSpec((LatentBlock("z", "dirichlet", 1),), log_joint_batch)
        with pytest.raises(DomainError):
            ModelSpec((LatentBlock("a", "dirichlet", 2), LatentBlock("a", "dirichlet", 2)), log_joint_batch)

    def test_block_dim_must_be_an_integer(self):
        # the constructor lays the blocks out, so a dim that cannot be a
        # slice bound fails there, not at the first theta
        def log_joint_batch(z, grad=False):
            return (np.zeros(len(z)), z) if grad else np.zeros(len(z))

        for dim in (2.5, 2.0, "3", None):
            with pytest.raises(DomainError, match="bad dimension"):
                ModelSpec((LatentBlock("z", "gamma_mean_shape", dim),), log_joint_batch)
        spec = ModelSpec((LatentBlock("z", "gamma_mean_shape", np.int64(2)),), log_joint_batch)
        assert (spec.n_latents, spec.n_params) == (2, 4)
        assert type(spec.n_latents) is int and type(spec.blocks[0].dim) is int

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda g: g + 0.05,
            lambda g: np.full_like(g, np.nan),
            lambda g: np.where(np.arange(g.shape[1]) == 2, np.nan, g),
        ],
        ids=["offset", "all_nan", "one_nan"],
    )
    def test_self_check_catches_corruption(self, conj5_spec, corrupt):
        # a NaN entry gives a NaN error at its point, which must fail the check
        def corrupted(z, grad=False):
            if not grad:
                return conj5_spec.log_joint_batch(z)
            f, g = conj5_spec.log_joint_batch(z, grad=True)
            return f, corrupt(np.asarray(g, dtype=float))

        bad = ModelSpec(conj5_spec.latent_layout, corrupted)
        assert not bad.self_check(RandomStream(0, 0)) <= 1e-4

    def test_self_check_passes(self, conj5_spec, def_small_spec):
        assert conj5_spec.self_check(RandomStream(1, 0)) <= 1e-4
        assert def_small_spec.self_check(RandomStream(1, 1)) <= 1e-4

    @pytest.mark.parametrize("model", ["conj5", "conj100", "def_small", "def_3layer"])
    def test_batch_rows_are_the_one_row_batch(self, request, model):
        # bit for bit: the estimators evaluate a matrix of replicates at
        # once, and each replicate must equal its estimate alone
        if model == "conj100":
            rng = np.random.default_rng(20170211)
            spec = conjugate_model_spec(ConjugateModel(np.ones(100), rng.multinomial(100, rng.dirichlet(np.ones(100)))))
        else:
            spec = request.getfixturevalue(f"{model}_spec")
        rows = [spec.random_interior_point(RandomStream(9, i)) for i in range(60)]
        if model.startswith("def"):
            rows += _def_edge_rows(request.getfixturevalue(model), spec)
        lz = np.array(rows)
        f, g = spec.log_joint_batch(lz, grad=True)
        g = np.asarray(g)
        assert f.shape == (len(rows),) and g.shape == lz.shape
        # the value-only form gives the same values as the one pass with the gradient
        assert spec.log_joint_batch(lz).tobytes() == f.tobytes()
        for i, row in enumerate(lz):
            f1, g1 = spec.log_joint_batch(row[None], grad=True)
            assert f[i].tobytes() == f1[0].tobytes() == spec.log_joint_batch(row[None])[0].tobytes(), i
            assert g[i].tobytes() == np.asarray(g1)[0].tobytes(), i

    @pytest.mark.parametrize("model", ["conj5", "def_small"])
    def test_empty_batch(self, request, model):
        # no rows in, no rows out, in the shapes of an n-row batch
        spec = request.getfixturevalue(f"{model}_spec")
        lz = np.empty((0, spec.n_latents))
        assert spec.log_joint_batch(lz).shape == (0,)
        f, g = spec.log_joint_batch(lz, grad=True)
        assert f.shape == (0,) and np.asarray(g).shape == (0, spec.n_latents)

    @pytest.mark.parametrize("model", ["conj5", "def_small", "def_3layer"])
    @pytest.mark.parametrize("grad", [False, True])
    def test_bad_rows_are_a_domain_error(self, request, model, grad):
        # too long, too short (a layer cut short), a latent with no log, and
        # a row with an extra axis
        spec = request.getfixturevalue(f"{model}_spec")
        lz = spec.random_interior_point(RandomStream(8, 0))
        nan_first = np.where(np.arange(lz.size) == 0, np.nan, lz)
        for bad in (np.append(lz, [0.0, 0.0]), lz[:-1], nan_first, lz[None]):
            with pytest.raises(DomainError):
                # each bad row as a one-row matrix
                spec.log_joint_batch(bad[None], grad=grad)


class TestConjugateModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            ConjugateModel(np.array([1.0]), np.array([2]))
        with pytest.raises(DomainError):
            ConjugateModel(np.array([1.0, -1.0]), np.array([1, 1]))
        with pytest.raises(DomainError):
            ConjugateModel(np.ones(2), np.array([1.5, 2.0]))
        with pytest.raises(DomainError):
            ConjugateModel(np.ones(2), np.array([-1, 2]))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_uniform_prior_zero_counts_is_flat(self, k):
        # with no observations the log-joint is the prior's Dirichlet
        # log-density: ln (K-1)! anywhere on the simplex under a uniform prior
        spec = conjugate_model_spec(ConjugateModel(np.ones(k), np.zeros(k, dtype=int)))
        ramp = np.arange(1.0, k + 1)
        for z in (np.full(k, 1.0 / k), ramp / ramp.sum()):
            assert row_value(spec, np.log(z)) == pytest.approx(math.lgamma(k), abs=1e-12)
        assert np.max(np.abs(row_grad(spec, np.log(ramp)))) <= 1e-12

    def test_zero_counts_density_integrates_to_one(self):
        spec = conjugate_model_spec(ConjugateModel(np.array([2.0, 3.0, 4.0]), np.zeros(3, dtype=int)))

        def density(z1, z2):
            z3 = 1.0 - z1 - z2
            if z1 <= 0.0 or z2 <= 0.0 or z3 <= 1e-12:
                return 0.0
            return math.exp(row_value(spec, np.log([z1, z2, z3])))

        val, _ = integrate.dblquad(lambda z2, z1: density(z1, z2), 0.0, 1.0, 0.0, lambda z1: 1.0 - z1)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_two_sided_conjugacy(self):
        m = ConjugateModel(np.array([1.0, 1.0]), np.array([1, 0]))
        assert np.array_equal(m.exact_posterior().conc, np.array([2.0, 1.0]))

    def test_grad_matches_finite_differences(self, conj5_spec):
        # through the normalization: f(ln zt - ln sum zt) has gradient
        # c - (sum c) zt / sum zt in the log auxiliary gammas ln zt
        stream = RandomStream(23, 0)
        for _ in range(20):
            lzt = np.log(0.2 + 3.0 * stream.uniforms(5))
            fd = finite_diff_grad(lambda v: row_value(conj5_spec, v - np.logaddexp.reduce(v)), lzt, 1e-6)
            lz = lzt - np.logaddexp.reduce(lzt)
            g = row_grad(conj5_spec, lz)
            an = g - g.sum() * np.exp(lz)
            assert np.max(np.abs(an - fd) / np.maximum(1.0, np.abs(fd))) <= 1e-5

    def test_exact_gradient_zero_at_posterior(self, conj5):
        g = conjugate_exact_elbo_grad(conj5, conj5.exact_posterior())
        assert np.max(np.abs(g)) <= 1e-8

    def test_exact_gradient_matches_quadrature(self):
        m = ConjugateModel(np.array([1.0, 1.0]), np.array([3, 2]))
        c = m.prior + m.counts - 1.0

        def elbo(theta):
            t1, t2 = theta

            def integrand(t):
                logq = (
                    (t1 - 1.0) * math.log(t)
                    + (t2 - 1.0) * math.log1p(-t)
                    - (special.gammaln(t1) + special.gammaln(t2) - special.gammaln(t1 + t2))
                )
                f = c[0] * math.log(t) + c[1] * math.log1p(-t)
                return math.exp(logq) * (f - logq)

            val, _ = integrate.quad(integrand, 1e-12, 1.0 - 1e-12, limit=400)
            return val + _const(m)

        def _const(m):
            n = m.n_trials
            return float(
                special.gammaln(n + 1)
                - special.gammaln(m.counts + 1).sum()
                + special.gammaln(m.prior.sum())
                - special.gammaln(m.prior).sum()
            )

        theta = np.array([1.7, 2.4])
        fd = finite_diff_grad(elbo, theta, 1e-4)
        an = conjugate_exact_elbo_grad(m, DirichletParams(theta))
        assert np.max(np.abs(an - fd) / np.abs(fd)) <= 1e-4

    def test_symmetry(self):
        m = ConjugateModel(np.ones(4), np.full(4, 5))
        g = conjugate_exact_elbo_grad(m, DirichletParams(np.full(4, 2.0)))
        assert np.max(np.abs(g - g[0])) <= 1e-12

    def test_elbo_at_posterior_is_log_marginal(self, conj5):
        # KL(q || posterior) = 0 there, so the objective equals ln p(x)
        post = conj5.exact_posterior()
        assert conjugate_elbo_exact(conj5, post) == pytest.approx(
            conj5.log_marginal_likelihood(), abs=1e-10
        )
        other = DirichletParams(np.full(5, 2.0))
        gap = conj5.log_marginal_likelihood() - conjugate_elbo_exact(conj5, other)
        assert gap == pytest.approx(dirichlet_kl(other, post), abs=1e-10)


class TestSparseGammaDEF:
    def test_validation(self):
        with pytest.raises(DomainError):
            SparseGammaDEF((0,), np.ones((2, 2), dtype=int))
        with pytest.raises(DomainError):
            SparseGammaDEF((2,), np.array([[1, -1]]))
        with pytest.raises(DomainError):
            SparseGammaDEF((2,), np.array([[0.5, 1.0]]))

    def test_priors_are_fixed_constants(self):
        # the paper's priors are class constants, not fields a caller can set
        model = SparseGammaDEF((2,), np.ones((2, 3), dtype=int))
        assert [f.name for f in dataclasses.fields(SparseGammaDEF)] == ["layer_sizes", "data"]
        assert (model.alpha_z, model.weight_prior, model.top_prior) == (0.1, (0.1, 0.3), (0.1, 0.1))
        with pytest.raises(TypeError):
            SparseGammaDEF((2,), np.ones((2, 3), dtype=int), alpha_z=0.5)

    def test_frozen_one_by_one_value(self):
        spec = def_model_spec(SparseGammaDEF((1,), np.array([[0]])))
        assert row_value(spec, np.array([0.0, 0.0])) == pytest.approx(DEF_1X1_LOG_JOINT, abs=1e-12)

    def test_zero_rate_positive_count_is_neg_inf(self):
        spec = def_model_spec(SparseGammaDEF((1,), np.array([[1]])))
        # latents whose product underflows produce an exactly zero rate
        lz = np.full(2, math.log(1e-200))
        assert row_value(spec, lz) == -math.inf

    def test_grad_matches_finite_differences(self, def_small, def_small_spec):
        stream = RandomStream(77, 0)
        for _ in range(5):
            v = 0.3 + 2.0 * stream.uniforms(def_small_spec.n_latents)
            fd = finite_diff_grad(lambda v: row_value(def_small_spec, v), v, 1e-6)
            an = row_grad(def_small_spec, v)
            assert np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-4

    def test_grad_below_rate_floor_one_by_one(self):
        # lam = e^-30 lies below POISSON_RATE_FLOOR, where the Poisson term is
        # the constant x ln(floor) minus lam: d/d ln z is -lam from it and
        # (0.1 - 1) - 0.1 z from the top prior, -0.9000 in all
        spec = def_model_spec(SparseGammaDEF((1,), np.array([[3]])))
        v = np.array([-15.0, -15.0])
        g = row_grad(spec, v)
        fd = finite_diff_grad(lambda v: row_value(spec, v), v, 1e-6)
        assert g[0] == pytest.approx(-0.9, abs=1e-6)
        assert np.max(np.abs(g - fd)) <= 1e-6

    def test_grad_matches_finite_differences_below_rate_floor(self):
        # the self-check's points with z1 and w0 moved down by 15 in log space:
        # every Poisson rate (a sum of two z w products) falls below the floor,
        # while the layer above keeps the other terms of order one
        spec = def_model_spec(SparseGammaDEF((2, 1), np.array([[3, 1, 0], [2, 0, 4]])))
        blocks = {pb.name: pb.latent_slice for pb in spec.blocks}
        stream = RandomStream(78, 0)
        for _ in range(5):
            v = spec.random_interior_point(stream)
            v[blocks["z1"]] -= 15.0
            v[blocks["w0"]] -= 15.0
            fd = finite_diff_grad(lambda v: row_value(spec, v), v, 1e-6)
            an = row_grad(spec, v)
            assert np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-4

    def test_batch_log_joint_matches_scalar(self, def_small, def_small_spec):
        # against log p written point by point from scipy's densities, in
        # linear space: Poisson counts, the layer conditional and the priors
        m = def_small
        blocks = {pb.name: pb.latent_slice for pb in def_small_spec.blocks}
        zs = np.array([def_small_spec.random_interior_point(RandomStream(5, i)) for i in range(7)])
        batch = def_small_spec.log_joint_batch(zs)
        for lz, got in zip(zs, batch):
            z1 = np.exp(lz[blocks["z1"]]).reshape(m.n_obs, m.layer_sizes[0])
            z2 = np.exp(lz[blocks["z2"]]).reshape(m.n_obs, m.layer_sizes[1])
            w0 = np.exp(lz[blocks["w0"]]).reshape(m.weight_shapes()[0])
            w1 = np.exp(lz[blocks["w1"]]).reshape(m.weight_shapes()[1])
            az = m.alpha_z
            want = stats.poisson.logpmf(m.data, z1 @ w0).sum()
            want += stats.gamma.logpdf(z1, az, scale=(z2 @ w1.T) / az).sum()
            want += stats.gamma.logpdf(z2, m.top_prior[0], scale=1.0 / m.top_prior[1]).sum()
            for w in (w0, w1):
                want += stats.gamma.logpdf(w, m.weight_prior[0], scale=1.0 / m.weight_prior[1]).sum()
            assert got == pytest.approx(want, abs=1e-9)

    def test_log_matmul_matches_log_sum_exp(self):
        # reference: ln sum_k exp(la_ik + lb_kj) term by term; the second case
        # peaks at different k for the row and the column, so the shifted
        # matmul underflows and the log-sum-exp path has to take over
        rng = np.random.default_rng(3)
        cases = [
            (rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 3, 5))),
            (np.array([[0.0, -2000.0]]), np.array([[-2000.0], [0.0]])),
        ]
        for la, lb in cases:
            ref = np.logaddexp.reduce(la[..., :, :, None] + lb[..., None, :, :], axis=-2)
            assert np.allclose(_log_matmul(la, lb), ref, rtol=1e-13, atol=0.0)
        assert _log_matmul(*cases[1])[0, 0] == pytest.approx(-2000.0 + math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("top", [-710.5, -712.2, -720.0])
    def test_latent_far_above_its_mean(self, def_small_spec, top):
        # both z2 entries of row 0 far down in log space put row 0 of z1
        # some 710 above the log of its layer mean. At -710.5 the log-joint
        # is finite and so must the gradient be; further down the log-joint
        # overflows to -inf and the estimate is rejected. No numpy warning
        # is printed on either side.
        from rsvi.estimators import _eval_model

        z1, z2 = def_small_spec.latent_layout[:2]
        assert (z1.name, z2.name, z2.dim) == ("z1", "z2", 8)
        lz = np.zeros((1, def_small_spec.n_latents))
        lz[0, z1.dim : z1.dim + 2] = top  # z2 is 4 x 2, and its row 0 follows z1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f, g = def_small_spec.log_joint_batch(lz, grad=True)
            if top == -710.5:
                assert np.isfinite(f).all() and np.isfinite(g).all()
                _eval_model(def_small_spec, lz)
            else:
                assert f[0] == -np.inf
                with pytest.raises(DomainError, match="log-joint is non-finite"):
                    _eval_model(def_small_spec, lz)

    def test_one_pass_forms_each_rate_and_mean_once(self, monkeypatch):
        # the (10,5) DEF forms its Poisson rates and its one layer of means
        # by _log_matmul: twice per call, with or without the gradient
        counts, _ = make_synthetic_def_data((10, 5), 50, 20, RandomStream(0, 977))
        spec = def_model_spec(SparseGammaDEF((10, 5), counts))
        lz = spec.random_interior_point(RandomStream(4, 0))[None]
        calls = []

        def counted(la, lb):
            calls.append(la.shape)
            return _log_matmul(la, lb)

        monkeypatch.setattr(models, "_log_matmul", counted)
        spec.log_joint_batch(lz, grad=True)
        assert calls == [(1, 50, 10), (1, 50, 5)]
        spec.log_joint_batch(lz)
        assert len(calls) == 4

    def test_log_joint_diverges_at_boundary(self):
        # the sole latent behind a positive count cannot vanish: f -> -inf as
        # z -> 0+ (the count term x ln(wz) beats the prior's ln-z singularity)
        spec = def_model_spec(SparseGammaDEF((1,), np.array([[3]])))
        vals = [row_value(spec, np.array([math.log(s), 0.0])) for s in (1e-2, 1e-5, 1e-8)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -20.0


class TestSyntheticData:
    def test_deterministic(self):
        a, _ = make_synthetic_def_data((3, 2), 5, 4, RandomStream(9, 977))
        b, _ = make_synthetic_def_data((3, 2), 5, 4, RandomStream(9, 977))
        assert np.array_equal(a, b)

    def test_zero_rate_draws_zero(self):
        # a gamma draw can underflow to a zero rate, which takes no uniform
        stream = RandomStream(9, 1)
        assert _poisson_draw(0.0, stream) == 0
        assert stream.counter == 0

    def test_latents_returned(self):
        counts, lat = make_synthetic_def_data((3, 2), 5, 4, RandomStream(1, 0))
        assert set(lat) == {"z1", "z2", "w0", "w1"}
        assert lat["z1"].shape == (5, 3) and lat["w0"].shape == (3, 4)

    def test_one_layer_marginal_mean(self):
        # E[x] = K * E[w] E[z] = K * (1/3) * 1; average over independent datasets
        k, n_obs, n_dim, reps = 2, 10, 3, 150
        means = np.empty(reps)
        for r in range(reps):
            counts, _ = make_synthetic_def_data((k,), n_obs, n_dim, RandomStream(r, 31))
            means[r] = counts.mean()
        expect = k / 3.0
        se = means.std(ddof=1) / math.sqrt(reps)
        assert abs(means.mean() - expect) <= 4.0 * se
