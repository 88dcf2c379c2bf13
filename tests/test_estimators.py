import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from rsvi import cli, estimators
from rsvi.estimators import (
    ESTIMATOR_KINDS,
    EstimatorConfig,
    ThetaState,
    default_theta_init,
    estimate,
    estimate_elbo,
    variance_profile,
)
from rsvi.exceptions import ContractError, DomainError
from rsvi.mathcore import RandomStream, finite_diff_grad, trigamma
from rsvi.models import (
    ConjugateModel,
    LatentBlock,
    ModelSpec,
    SparseGammaDEF,
    conjugate_elbo_exact,
    conjugate_exact_elbo_grad,
    conjugate_model_spec,
    def_model_spec,
    make_synthetic_def_data,
)
from rsvi.rejection import grad_log_ratio_gamma, log_ratio_q_over_r


def flat_model(k=5):
    def log_joint_batch(lz, grad=False):
        return (np.zeros(len(lz)), np.zeros((len(lz), k))) if grad else np.zeros(len(lz))

    return ModelSpec((LatentBlock("z", "dirichlet", k),), log_joint_batch)


def gamma_toy_model(c1, c2):
    """Independent gamma latents with f = sum c1 ln z - c2 z (exact oracle).

    Written against the log-latent ModelSpec contract: f and df/d ln z at
    each row of lz = ln z.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)

    def log_joint_batch(lz, grad=False):
        f = np.vecdot(lz, c1) - np.vecdot(np.exp(lz), c2)
        return (f, c1 - c2 * np.exp(lz)) if grad else f

    return ModelSpec((LatentBlock("z", "gamma_mean_shape", c1.size),), log_joint_batch)


def recorded_spec(spec, calls):
    """spec with its callback appending (rows, grad) to `calls` at every call."""

    def log_joint_batch(lz, grad=False):
        calls.append((lz.shape[0], grad))
        return spec.log_joint_batch(lz, grad=grad)

    return ModelSpec(spec.latent_layout, log_joint_batch)


def gamma_toy_exact_grad(c1, c2, shapes, means):
    """d/d(shape, mean) of c1 E[ln z] - c2 E[z] + H, all analytic."""
    d_shape = c1 * (trigamma(shapes) - 1.0 / shapes) + (
        1.0 + (1.0 - shapes) * trigamma(shapes) - 1.0 / shapes
    )
    d_mean = c1 / means - c2 + 1.0 / means
    return np.concatenate([d_shape, d_mean])


class TestConfigAndLayout:
    def test_config_validation(self):
        with pytest.raises(ContractError):
            EstimatorConfig(kind="nope")
        with pytest.raises(ContractError):
            EstimatorConfig(aug_b=-1)
        with pytest.raises(ContractError):
            EstimatorConfig(draws=0)

    def test_param_layout_mixed(self, def_small_spec):
        blocks, n = def_small_spec.blocks, def_small_spec.n_params
        assert n == 2 * def_small_spec.n_latents  # all gamma mean-shape blocks
        assert blocks[0].theta_slice.start == 0
        assert blocks[-1].theta_slice.stop == n

    def test_theta_validation(self, conj5_spec):
        with pytest.raises(DomainError):
            estimate(conj5_spec, np.array([1.0, -1.0, 1.0, 1.0, 1.0]), EstimatorConfig(), RandomStream(0, 0))
        with pytest.raises(ContractError):
            estimate(conj5_spec, np.ones(4), EstimatorConfig(), RandomStream(0, 0))


def mixed_model():
    """Blocks u (Dirichlet 3), z (mean-shape gamma 2) and v (Dirichlet 2)
    with the separable log-joint cu . ln u + sum (a - 1) ln z - b z + cv . ln v,
    and its closed-form ELBO at theta."""
    cu, a1, b, cv = np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.5]), np.array([0.5, 1.5]), np.array([0.7, 1.2])

    def log_joint_batch(lz, grad=False):
        lz = np.ascontiguousarray(lz, dtype=float)
        u, z, v = lz[:, :3], lz[:, 3:5], lz[:, 5:]
        f = np.vecdot(u, cu) + np.vecdot(z, a1) - np.vecdot(np.exp(z), b) + np.vecdot(v, cv)
        g = np.concatenate([np.broadcast_to(cu, u.shape), a1 - b * np.exp(z), np.broadcast_to(cv, v.shape)], axis=1)
        return (f, g) if grad else f

    layout = (LatentBlock("u", "dirichlet", 3), LatentBlock("z", "gamma_mean_shape", 2), LatentBlock("v", "dirichlet", 2))
    spec = ModelSpec(layout, log_joint_batch)

    def elbo(theta):
        # E ln u_k = psi(conc_k) - psi(sum conc); E ln z = psi(shape) - ln(shape/mean), E z = mean
        conc_u, shapes, means, conc_v = theta[:3], theta[3:5], theta[5:7], theta[7:]
        e_log_u = special.digamma(conc_u) - special.digamma(conc_u.sum())
        e_log_v = special.digamma(conc_v) - special.digamma(conc_v.sum())
        e_log_z = special.digamma(shapes) - np.log(shapes / means)
        e_f = cu @ e_log_u + a1 @ e_log_z - b @ means + cv @ e_log_v
        return e_f + ThetaState(spec, theta).entropy

    return spec, elbo


class TestMixedLayout:
    """A spec that mixes both families, Dirichlet blocks on either side of a
    mean-shape gamma block."""

    theta = np.array([4.0, 5.0, 6.0, 4.5, 5.5, 1.3, 0.8, 4.0, 5.0])

    def test_slices(self):
        spec = mixed_model()[0]
        assert (spec.n_latents, spec.n_params) == (7, 9)
        assert [pb.latent_slice for pb in spec.blocks] == [slice(0, 3), slice(3, 5), slice(5, 7)]
        assert [pb.theta_slice for pb in spec.blocks] == [slice(0, 3), slice(3, 7), slice(7, 9)]
        assert [pb.shape_slice for pb in spec.blocks] == [slice(0, 3), slice(3, 5), slice(7, 9)]
        assert [pb.mean_slice for pb in spec.blocks] == [None, slice(5, 7), None]
        assert default_theta_init(spec).tolist() == [1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0]
        assert cli._param_names(spec) == [
            "u.conc[0]", "u.conc[1]", "u.conc[2]", "z.shape[0]", "z.shape[1]", "z.mean[0]", "z.mean[1]",
            "v.conc[0]", "v.conc[1]",
        ]

    def test_entropy_is_the_sum_of_one_block_specs(self):
        # each block's entropy and gradient as its own one-block spec, to the bit
        spec = mixed_model()[0]
        state = ThetaState(spec, self.theta)
        parts = [slice(0, 3), slice(3, 7), slice(7, 9)]
        singles = [ThetaState(ModelSpec((lb,), None), self.theta[sl]) for lb, sl in zip(spec.latent_layout, parts)]
        assert state.entropy == sum(one.entropy for one in singles)
        for sl, one in zip(parts, singles):
            assert np.array_equal(state.g_entropy[sl], one.g_entropy)

    @pytest.mark.parametrize("kind,B", [("rsvi", 0), ("rsvi", 1), ("importance", 1), ("score_function", 0)])
    def test_profile_means_hit_the_elbo_gradient(self, kind, B):
        # 4 estimators x 9 parameters, each within 4 SE (two-sided normal
        # tail 6.3e-5): a family-wise false-failure rate of at most 2.3e-3
        # (Bonferroni) on a correct estimator. The correction term is rare
        # and large (kurtosis near 1e3 here), so G is large enough for the
        # normal tail to hold: over 250 fresh seeds per rsvi row and 100 per
        # other row, no |z| passed 3.6, and |z| > 3 came at the normal rate
        spec, elbo = mixed_model()
        exact = finite_diff_grad(elbo, self.theta, 1e-6)
        G = 100_000
        prof = variance_profile(spec, self.theta, EstimatorConfig(kind, aug_b=B), G, RandomStream(91, B))
        se = np.sqrt(prof.variances / G)
        assert np.all(np.abs(prof.means - exact) <= 4.0 * se), (prof.means - exact) / se


class TestStructuralIdentities:
    def test_decomposition_identity(self, conj5_spec, theta5):
        for kind in ("rsvi", "score_function", "importance"):
            est = estimate(conj5_spec, theta5, EstimatorConfig(kind, aug_b=2, draws=3), RandomStream(8, 1))
            assert np.array_equal(est.total, est.g_rep + est.g_cor + est.g_entropy)
            assert np.all(np.isfinite(est.total))

    def test_flat_model_reduces_to_entropy_gradient(self, theta5):
        spec = flat_model()
        for kind in ("rsvi", "score_function", "importance"):
            est = estimate(spec, theta5, EstimatorConfig(kind, aug_b=1), RandomStream(3, 0))
            assert np.array_equal(est.total, est.g_entropy)
            assert np.all(est.g_rep == 0.0) and np.all(est.g_cor == 0.0)

    def test_determinism(self, conj5_spec, theta5):
        a = estimate(conj5_spec, theta5, EstimatorConfig("rsvi", 1), RandomStream(42, 7))
        b = estimate(conj5_spec, theta5, EstimatorConfig("rsvi", 1), RandomStream(42, 7))
        assert np.array_equal(a.total, b.total) and a.trials == b.trials

    def test_meta_fields(self, conj5_spec, theta5):
        est = estimate(conj5_spec, theta5, EstimatorConfig("rsvi", 1, draws=4), RandomStream(1, 0))
        assert est.draws == 4
        assert est.trials >= 4 * 5  # at least one trial per latent per draw


class TestGradLogRatio:
    def test_matches_finite_differences(self):
        stream = RandomStream(12, 0)
        worst = 0.0
        for _ in range(50):
            a = 1.0 + 25.0 * stream.uniform()
            e = -2.0 + 4.0 * stream.uniform()
            fd = finite_diff_grad(lambda v: log_ratio_q_over_r(e, v), a, 1e-4)
            worst = max(worst, abs(fd - grad_log_ratio_gamma(e, a)) / max(1.0, abs(fd)))
        assert worst <= 1e-5

    def test_magnitude_decreases_with_shape(self):
        vals = [abs(grad_log_ratio_gamma(0.0, a)) for a in (1.0, 2.0, 10.0, 100.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_vanishes_in_large_shape_limit(self):
        assert abs(grad_log_ratio_gamma(0.0, 1e6)) < 1e-4

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_at_huge_shapes(self, conj5_spec):
        # above about 3.5e204 the Jacobian term's denominator (y (9 alpha -
        # 3)) s overflows, and the term is 0, its limit
        for a in (1e204, 1e205, 1e250, 1e300, 1e305):
            assert a * grad_log_ratio_gamma(0.5, a) == pytest.approx(0.5, rel=1e-12)
        theta = np.array([1e250, 1.0, 1.0, 1.0, 1.0])
        for kind, B in (("rsvi", 0), ("rsvi", 1), ("importance", 1)):
            prof = variance_profile(conj5_spec, theta, EstimatorConfig(kind, aug_b=B), 50, RandomStream(7, 0))
            assert np.isfinite(prof.means).all() and np.isfinite(prof.variances).all()

    def test_domain(self):
        with pytest.raises(DomainError):
            grad_log_ratio_gamma(0.0, 0.5)
        with pytest.raises(DomainError):
            grad_log_ratio_gamma(-5.0, 1.0)


class TestUnbiasedness:
    """Each estimator's mean over many one-sample estimates hits the oracle.

    Every statistic comes from one variance_profile on the test's root
    stream: replicate i draws from root.child(i), so the means and standard
    errors are those of a loop of `estimate` calls, bit for bit. Each gate
    is two-sided at 4 standard errors, 6.3e-5 per coordinate in the normal
    limit; over the class's 32 coordinates the family-wise level of a false
    failure is at most 2.0e-3. The conjugate rows take n = 100,000: at
    n = 8000 the heavy-tailed [rsvi-0] row failed 5 of 300 fresh roots.
    """

    @staticmethod
    def _assert_mean_is(exact, spec, theta, cfg, root, n):
        prof = variance_profile(spec, theta, cfg, n, root)
        se = np.sqrt(prof.variances) / math.sqrt(n)
        assert np.all(np.abs(prof.means - exact) <= 4.0 * se), cfg.label

    @pytest.mark.parametrize("kind,B", [("rsvi", 1), ("rsvi", 0), ("score_function", 0), ("importance", 1)])
    def test_conjugate_model(self, conj5, conj5_spec, theta5, q5, kind, B):
        exact = conjugate_exact_elbo_grad(conj5, q5)
        cfg = EstimatorConfig(kind, aug_b=B)
        self._assert_mean_is(exact, conj5_spec, theta5, cfg, RandomStream(100 + B, 0), 100_000)

    @pytest.mark.parametrize("B", [0, 2])
    def test_gamma_mean_shape_chain_rule(self, B):
        # shapes below one force augmentation; B=2 exercises the exponent path
        c1 = np.array([3.0, 1.5])
        c2 = np.array([2.0, 0.7])
        shapes = np.array([0.8, 2.5])
        means = np.array([1.3, 0.6])
        theta = np.concatenate([shapes, means])
        exact = gamma_toy_exact_grad(c1, c2, shapes, means)
        self._assert_mean_is(exact, gamma_toy_model(c1, c2), theta, EstimatorConfig("rsvi", aug_b=B),
                             RandomStream(55 + B, 0), 20000)

    def test_gamma_mean_shape_score_and_importance(self):
        c1 = np.array([2.0])
        c2 = np.array([1.1])
        shapes = np.array([1.6])
        means = np.array([0.9])
        theta = np.concatenate([shapes, means])
        spec = gamma_toy_model(c1, c2)
        exact = gamma_toy_exact_grad(c1, c2, shapes, means)
        for kind in ("score_function", "importance"):
            self._assert_mean_is(exact, spec, theta, EstimatorConfig(kind, aug_b=1), RandomStream(77, 0), 20000)


class TestCorrectionTerm:
    def test_gcor_shrinks_with_shape(self, conj5, conj5_spec):
        means = []
        for shape in (1.0, 2.0, 10.0, 100.0):
            theta = np.full(5, shape)
            root = RandomStream(31, int(shape))
            acc = 0.0
            n = 2500
            for i in range(n):
                est = estimate(conj5_spec, theta, EstimatorConfig("rsvi", 0), root.child(i))
                acc += float(np.mean(np.abs(est.g_cor)))
            means.append(acc / n)
        assert all(b < a for a, b in zip(means, means[1:])), means


class TestVarianceProfile:
    def test_zero_variance_for_flat_model(self, theta5):
        prof = variance_profile(flat_model(), theta5, EstimatorConfig("rsvi", 1), 50, RandomStream(1, 0))
        assert prof.vmax == 0.0

    def test_requires_two_replicates(self, conj5_spec, theta5):
        with pytest.raises(ContractError):
            variance_profile(conj5_spec, theta5, EstimatorConfig(), 1, RandomStream(0, 0))

    def test_deterministic(self, conj5_spec, theta5):
        a = variance_profile(conj5_spec, theta5, EstimatorConfig("rsvi", 1), 60, RandomStream(9, 4))
        b = variance_profile(conj5_spec, theta5, EstimatorConfig("rsvi", 1), 60, RandomStream(9, 4))
        assert np.array_equal(a.variances, b.variances)
        assert a.vmin <= a.vmedian <= a.vmax

    def test_averaging_draws_divides_variance(self, conj5_spec, theta5):
        g = 1000
        v1 = variance_profile(conj5_spec, theta5, EstimatorConfig("rsvi", 1, draws=1), g, RandomStream(2, 0))
        v10 = variance_profile(conj5_spec, theta5, EstimatorConfig("rsvi", 1, draws=10), g, RandomStream(2, 1))
        ratio = v1.vmedian / v10.vmedian
        assert 10.0 / 1.2 <= ratio <= 10.0 * 1.2


class TestReplicateBatch:
    """variance_profile evaluates its replicates together; each replicate's
    total must equal `estimate` on the same child stream, bit for bit."""

    @pytest.mark.parametrize("draws", [1, 3])
    @pytest.mark.parametrize("B", [0, 1, 4])
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    @pytest.mark.parametrize("model", ["conj5", "def_small"])
    def test_profile_matches_one_at_a_time(self, request, monkeypatch, model, kind, B, draws):
        # conj5 at theta5 forces an augmentation step on its 0.8 shape;
        # def_small has several gamma_mean_shape blocks
        if model == "conj5":
            spec, theta = request.getfixturevalue("conj5_spec"), request.getfixturevalue("theta5")
        else:
            spec = request.getfixturevalue("def_small_spec")
            theta = default_theta_init(spec)
        cfg = EstimatorConfig(kind, aug_b=B, draws=draws)
        # a budget of 8 rows per pass splits 20 replicates into three passes
        # of 7, 7 and 6, so two chunk boundaries fall inside the batch
        monkeypatch.setattr(estimators, "_PASS_DRAWS", 8 * spec.n_latents)
        G = 20
        root = RandomStream(61, 2)
        loop = np.array([estimate(spec, theta, cfg, root.child(g)).total for g in range(G)])

        chunks = []
        batch_rows = estimators._estimate_rows

        def recording(cfg, state, banks, rows):
            out = batch_rows(cfg, state, banks, rows)
            chunks.append(out[2])
            return out

        monkeypatch.setattr(estimators, "_estimate_rows", recording)
        prof = variance_profile(spec, theta, cfg, G, root)
        assert [c.shape[0] for c in chunks] == [7, 7, 6]
        assert np.array_equal(np.concatenate(chunks), loop)
        assert np.array_equal(prof.means, loop.mean(axis=0))
        variances = loop.var(axis=0, ddof=1)
        variances[np.ptp(loop, axis=0) == 0.0] = 0.0
        assert np.array_equal(prof.variances, variances)
        assert root.counter == 0

    @staticmethod
    def _k100_spec():
        # criterion 4's variance-study instance: K=100, uniform prior, 100 trials
        rng = np.random.default_rng(20170211)
        counts = rng.multinomial(100, rng.dirichlet(np.ones(100)))
        return conjugate_model_spec(ConjugateModel(np.ones(100), counts))

    @pytest.mark.parametrize("G, passes", [(250, [250]), (1000, [250] * 4)])
    def test_k100_profile_runs_in_equal_passes(self, monkeypatch, G, passes):
        # 2**15 // 100 = 327 replicates at most per pass: G = 250 is one
        # pass, and G = 1000 needs four, of 250 each
        spec = self._k100_spec()
        sizes = []
        batch_rows = estimators._estimate_rows

        def recording(cfg, state, banks, rows):
            sizes.append(rows.size)
            return batch_rows(cfg, state, banks, rows)

        monkeypatch.setattr(estimators, "_estimate_rows", recording)
        variance_profile(spec, np.ones(100), EstimatorConfig("rsvi", aug_b=4), G, RandomStream(404, 0))
        assert sizes == passes

    @pytest.mark.parametrize("kind, B", [("rsvi", 4), ("score_function", 0), ("importance", 1)])
    def test_k100_profile_memory_is_bounded_in_G(self, kind, B):
        # the working memory of a pass does not grow with G: at 4 passes the
        # peak exceeds the one-pass peak by no more than 10% beyond what G
        # itself must hold, each replicate's total (n_params doubles) and
        # its child stream's key and counter (two uint64)
        spec = self._k100_spec()
        most = estimators._PASS_DRAWS // spec.n_latents
        cfg = EstimatorConfig(kind, aug_b=B)
        working = []
        for G in (most, 4 * most):
            tracemalloc.start()
            try:
                variance_profile(spec, np.ones(100), cfg, G, RandomStream(5, 0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            working.append(peak - G * (8 * spec.n_latents + 16))
        assert working[1] <= 1.1 * working[0]


class TestModelCallbacks:
    @staticmethod
    def _nan_gradient_model(calls):
        def log_joint_batch(lz, grad=False):
            f = -np.exp(lz).sum(axis=1)
            if not grad:
                return f
            calls.append(lz)
            return f, np.full(lz.shape, np.nan)

        return ModelSpec((LatentBlock("z", "gamma_mean_shape", 2),), log_joint_batch)

    def test_score_function_never_asks_for_the_gradient(self):
        calls = []
        spec = self._nan_gradient_model(calls)
        theta = np.array([1.5, 0.7, 2.0, 1.0])
        est = estimate(spec, theta, EstimatorConfig("score_function", draws=3), RandomStream(4, 0))
        assert np.all(np.isfinite(est.total)) and not calls
        profile = variance_profile(spec, theta, EstimatorConfig("score_function"), 20, RandomStream(4, 0))
        assert np.all(np.isfinite(profile.variances)) and not calls

    @pytest.mark.parametrize("kind", ["rsvi", "importance"])
    def test_pathwise_estimators_reject_a_nan_gradient(self, kind):
        calls = []
        spec = self._nan_gradient_model(calls)
        with pytest.raises(DomainError, match="latent gradient"):
            estimate(spec, np.array([1.5, 0.7, 2.0, 1.0]), EstimatorConfig(kind, aug_b=1), RandomStream(4, 0))
        assert calls


    LZ = np.array([[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]])

    @staticmethod
    def _row_model(bad_f=(), bad_g=(), width=2):
        """log-joint 0 and gradient zeros, except -inf and NaN at the rows
        whose first log latent is listed; `width` entries per gradient row."""

        def log_joint_batch(lz, grad=False):
            f = np.where(np.isin(lz[:, 0], list(bad_f)), -math.inf, 0.0)
            if not grad:
                return f
            g = np.zeros((len(lz), width))
            g[np.isin(lz[:, 0], list(bad_g))] = math.nan
            return f, g

        return ModelSpec((LatentBlock("z", "gamma_mean_shape", 2),), log_joint_batch)

    @pytest.mark.parametrize(
        "bad_f,bad_g,width,row",
        [
            ({1.0}, (), 2, 1),
            ({1.0, 2.0}, (), 2, 1),
            ((), {1.0}, 2, None),
            ((), (), 3, None),
            # row by row, row 0's gradient comes before row 1's log-joint,
            # and a row's log-joint before its gradient
            ({1.0}, {0.0}, 2, None),
            ({1.0}, {1.0}, 2, 1),
            ({0.0}, (), 3, 0),
        ],
    )
    def test_model_errors_name_the_first_bad_row(self, bad_f, bad_g, width, row):
        spec = self._row_model(bad_f, bad_g, width)
        if row is None:
            message = "estimate rejected: latent gradient is non-finite or mis-shaped"
        else:
            message = f"estimate rejected: log-joint is non-finite (-inf) at log z = {self.LZ[row]!r}"
        with pytest.raises(DomainError) as err:
            estimators._eval_model(spec, self.LZ)
        assert str(err.value) == message

    @pytest.mark.parametrize("kind,counter", [("rsvi", 15), ("importance", 10), ("score_function", 15)])
    def test_rejected_estimate_advances_its_stream(self, conj5_spec, kind, counter):
        # a rejected estimate leaves its stream where its draws put it
        theta = np.array([9.0, 6.0, 5.0, 3.0, 2.0])
        cfg = EstimatorConfig(kind, aug_b=1)

        def log_joint_batch(lz, grad=False):
            f = np.full(len(lz), -math.inf)
            return (f, conj5_spec.log_joint_batch(lz, grad=True)[1]) if grad else f

        rejecting = ModelSpec(conj5_spec.latent_layout, log_joint_batch)
        accepted, rejected = RandomStream(5, 1), RandomStream(5, 1)
        estimate(conj5_spec, theta, cfg, accepted)
        with pytest.raises(DomainError):
            estimate(rejecting, theta, cfg, rejected)
        assert rejected.counter == accepted.counter == counter

    def test_without_gradient_only_the_log_joint_is_checked(self):
        f, gf = estimators._eval_model(self._row_model((), {0.0, 1.0, 2.0}, 3), self.LZ, with_grad=False)
        assert gf is None and np.array_equal(f, np.zeros(3))

    def test_one_model_call_per_replicate_matrix(self, conj5_spec, theta5):
        calls = []
        spec = recorded_spec(conj5_spec, calls)
        variance_profile(spec, theta5, EstimatorConfig("rsvi", aug_b=1, draws=2), 30, RandomStream(4, 0))
        assert calls == [(30, True)] * 2

    @pytest.mark.parametrize("model", ["conj5", "def_small"])
    @pytest.mark.parametrize("kind,grad", [("rsvi", True), ("importance", True), ("score_function", False)])
    def test_one_model_call_per_estimate(self, request, model, kind, grad):
        # the pathwise estimators take the log-joint and its gradient from one
        # call; the score function asks for the log-joint alone
        spec = request.getfixturevalue(f"{model}_spec")
        calls = []
        recorded = recorded_spec(spec, calls)
        theta = default_theta_init(spec) * 1.5
        cfg = EstimatorConfig(kind, aug_b=1)
        got = estimate(recorded, theta, cfg, RandomStream(6, 2))
        want = estimate(spec, theta, cfg, RandomStream(6, 2))
        assert calls == [(1, grad)]
        assert got.total.tobytes() == want.total.tobytes()


class TestElbo:
    def test_matches_exact_conjugate_value(self, conj5, conj5_spec, theta5, q5):
        exact = conjugate_elbo_exact(conj5, q5)
        vals = [estimate_elbo(conj5_spec, theta5, 500, RandomStream(71, i)) for i in range(20)]
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - exact) <= 4.0 * se

    def test_batch_and_loop_paths_agree(self, conj5_spec, theta5):
        # a spec that evaluates each row as its own one-row batch: by the
        # ModelSpec row contract the ELBO comes out the same to the bit
        def one_row_at_a_time(lz, grad=False):
            rows = [conj5_spec.log_joint_batch(row[None], grad=True) for row in lz]
            f = np.stack([row_f[0] for row_f, _ in rows])
            return (f, np.stack([np.asarray(row_g)[0] for _, row_g in rows])) if grad else f

        loop_spec = ModelSpec(conj5_spec.latent_layout, one_row_at_a_time)
        a = estimate_elbo(conj5_spec, theta5, 64, RandomStream(5, 5))
        b = estimate_elbo(loop_spec, theta5, 64, RandomStream(5, 5))
        assert a == b

    def test_entropy_total_matches_dirichlet(self, conj5_spec, theta5, q5):
        from rsvi.distributions import dirichlet_entropy

        assert ThetaState(conj5_spec, theta5).entropy == pytest.approx(dirichlet_entropy(q5), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_model_runs_on_chunks_of_rows(self, monkeypatch):
        # the (10,5) DEF has 1000 latents; a pass width of 8000 latent draws
        # splits 25 draws into 4 chunks of 8 rows, and the ELBO equals one
        # 25-row call
        counts, _ = make_synthetic_def_data((10, 5), 50, 20, RandomStream(0, 977))
        spec = def_model_spec(SparseGammaDEF((10, 5), counts))
        calls = []
        chunked = recorded_spec(spec, calls)
        # at the shipped width the 25 draws are one call
        estimate_elbo(chunked, default_theta_init(spec), 25, RandomStream(0, 5))
        assert calls == [(25, False)]
        calls.clear()
        monkeypatch.setattr(estimators, "_PASS_DRAWS", 8 * spec.n_latents)
        theta0 = default_theta_init(spec)
        theta = theta0 * np.linspace(0.6, 1.8, theta0.size)
        for seed in range(3):
            got = estimate_elbo(chunked, theta, 25, RandomStream(seed, 5))
            stream = RandomStream(seed, 5)
            state = ThetaState(spec, theta)
            lz = estimators._log_latents(state, [bank.draw_batch(stream, 25).log_z for bank in state.banks(0)])
            assert got == float(np.mean(spec.log_joint_batch(lz))) + state.entropy
            # one value-only call per chunk, and no other call
            assert calls == [(8, False), (8, False), (8, False), (1, False)] * (seed + 1)

    @pytest.mark.parametrize(
        "values", [lambda lz: np.zeros(len(lz) + 1), lambda lz: np.float64(0.0), lambda lz: np.zeros((len(lz), 1))],
        ids=["extra-value", "zero-d", "column"],
    )
    def test_mis_shaped_log_joint_batch_is_a_domain_error(self, values):
        # estimate_elbo checks each chunk's shape as _eval_model does: extra
        # values would shift the mean, and a 0-d value cannot be concatenated
        spec = ModelSpec((LatentBlock("z", "gamma_mean_shape", 2),), lambda lz, grad=False: values(lz))
        with pytest.raises(DomainError, match=r"log-joint batch has shape .*, expected \(5,\)"):
            estimate_elbo(spec, np.ones(4), 5, RandomStream(3, 0))


@pytest.mark.filterwarnings("error")
def test_log_simplex_is_the_fold_along_each_row():
    rng = np.random.default_rng(20170211)
    for _ in range(300):
        rows, k = int(rng.integers(1, 301)), int(rng.integers(1, 141))
        spread = float(rng.choice([1e-3, 1.0, 30.0, 700.0]))
        log_z = rng.uniform(-spread, spread, size=(rows, k))
        if k > 1 and rng.random() < 0.3:
            # ties, and -inf entries in rows that keep a finite one
            log_z[:, 1] = log_z[:, 0]
            cut = rng.random(size=(rows, k)) < 0.2
            cut[:, 0] = False
            log_z[cut] = -np.inf
        want = log_z - np.logaddexp.reduce(log_z, axis=-1, keepdims=True)
        assert np.array_equal(estimators._log_simplex(log_z), want)
        out = np.zeros((rows, k + 3))
        estimators._log_simplex(log_z, out=out[:, 2 : 2 + k])
        assert np.array_equal(out[:, 2 : 2 + k], want)


class TestThetaState:
    """A ThetaState handed to estimate or estimate_elbo gives the same result
    as the state the call would build itself."""

    @staticmethod
    def _model_theta(request, model):
        if model == "conj5":
            return request.getfixturevalue("conj5_spec"), request.getfixturevalue("theta5")
        spec = request.getfixturevalue("def_small_spec")
        return spec, default_theta_init(spec)

    @pytest.mark.parametrize("B", [0, 1])
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    @pytest.mark.parametrize("model", ["conj5", "def_small"])
    def test_estimate_with_state(self, request, model, kind, B):
        spec, theta = self._model_theta(request, model)
        cfg = EstimatorConfig(kind, aug_b=B, draws=2)
        state = ThetaState(spec, theta)
        alone, handed = RandomStream(81, 0), RandomStream(81, 0)
        a = estimate(spec, theta, cfg, alone)
        b = estimate(spec, theta, cfg, handed, state=state)
        for field in ("g_rep", "g_cor", "g_entropy", "total"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.trials == b.trials and alone.counter == handed.counter
        # one state serves several estimates and ELBOs
        c = estimate(spec, state.theta, cfg, RandomStream(81, 0), state=state)
        assert np.array_equal(c.total, a.total)

    @pytest.mark.parametrize("model", ["conj5", "def_small"])
    def test_elbo_with_state(self, request, model):
        spec, theta = self._model_theta(request, model)
        state = ThetaState(spec, theta)
        alone, handed = RandomStream(82, 0), RandomStream(82, 0)
        values = [estimate_elbo(spec, theta, 7, alone) for _ in range(2)]
        handed_values = [estimate_elbo(spec, theta, 7, handed, state=state) for _ in range(2)]
        assert np.array_equal(values, handed_values)
        assert alone.counter == handed.counter
        assert state.entropy == ThetaState(spec, theta).entropy

    def test_gamma_entropy_is_the_closed_form(self):
        # one mean-shape latent per state, so its sums hold a single term:
        # H = shape - ln(shape/mean) + ln Gamma(shape) + (1 - shape) psi(shape)
        spec = gamma_toy_model([1.0], [1.0])
        for shape, mean in [(0.3, 2.0), (1.0, 1.0), (4.7, 0.2), (40.0, 9.0)]:
            state = ThetaState(spec, np.array([shape, mean]))
            entropy = shape - math.log(shape / mean) + special.gammaln(shape) + (1.0 - shape) * special.digamma(shape)
            d_shape = 1.0 + (1.0 - shape) * special.polygamma(1, shape) - 1.0 / shape
            assert state.entropy == pytest.approx(entropy, rel=1e-13, abs=1e-13)
            assert state.g_entropy == pytest.approx([d_shape, 1.0 / mean], rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize(
        "conc", [[1.4, 0.8, 2.2, 1.0, 3.0], [0.05] * 7, np.linspace(0.3, 4.0, 100)], ids=["theta5", "tiny", "k100"]
    )
    def test_dirichlet_entropy_is_the_public_formula(self, conc):
        # the entropy is the public dirichlet_entropy; its gradient is the
        # closed form (a0 - k) psi'(a0) - (a - 1) psi'(a)
        from rsvi.distributions import DirichletParams, dirichlet_entropy

        conc = np.asarray(conc)
        state = ThetaState(flat_model(conc.size), conc)
        assert state.entropy == dirichlet_entropy(DirichletParams(conc))
        a0, k = conc.sum(), conc.size
        grad = (a0 - k) * special.polygamma(1, a0) - (conc - 1.0) * special.polygamma(1, conc)
        assert state.g_entropy == pytest.approx(grad, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model", ["conj5", "def_small", "toy"])
    def test_one_special_function_call_per_block(self, request, monkeypatch, model):
        from rsvi import distributions, mathcore, rejection

        if model == "toy":
            spec, theta = gamma_toy_model([1.0, 2.0], [0.5, 1.0]), np.array([0.3, 2.0, 1.5, 0.7])
        else:
            spec, theta = self._model_theta(request, model)
        calls = []
        kernel = mathcore._gamma_fns

        def counted(*args, **kwargs):
            calls.append(np.size(args[0]))
            return kernel(*args, **kwargs)

        for module in (mathcore, distributions, rejection, estimators):
            monkeypatch.setattr(module, "_gamma_fns", counted)
        state = ThetaState(spec, theta)
        blocks = spec.blocks
        assert len(calls) == len(blocks)
        # a Dirichlet block's call also covers its total concentration
        assert calls == [pb.dim + (pb.family == "dirichlet") for pb in blocks]
        # the score-function estimate reads its special functions from the state
        estimate(spec, state.theta, EstimatorConfig("score_function"), RandomStream(83, 0), state=state)
        assert calls == [pb.dim + (pb.family == "dirichlet") for pb in blocks]

    def test_state_of_another_theta_or_model_rejected(self, conj5_spec, theta5):
        state = ThetaState(conj5_spec, theta5)
        with pytest.raises(ContractError):
            estimate(conj5_spec, theta5 * 1.5, EstimatorConfig(), RandomStream(0, 0), state=state)
        with pytest.raises(ContractError):
            estimate_elbo(flat_model(), theta5, 5, RandomStream(0, 0), state=state)

    def test_theta_is_a_read_only_copy(self, conj5_spec, theta5):
        theta = theta5.copy()
        state = ThetaState(conj5_spec, theta)
        theta[0] = 9.0
        assert state.theta[0] == theta5[0]
        assert not state.theta.flags.writeable

    @pytest.mark.parametrize("shape,mean", [(1e300, 1e-300), (1e-300, 1e300)], ids=["rate-overflows", "rate-underflows"])
    def test_rate_out_of_range_is_a_domain_error(self, shape, mean):
        # shape/mean is inf or 0 although shape and mean are positive and finite
        spec = gamma_toy_model([1.0, 2.0], [0.5, 1.0])
        theta = np.array([shape, 2.0, mean, 1.0])
        for kind in ESTIMATOR_KINDS:
            with pytest.raises(DomainError, match="rates"):
                estimate(spec, theta, EstimatorConfig(kind, aug_b=1), RandomStream(0, 0))
        with pytest.raises(DomainError, match="rates"):
            estimate_elbo(spec, theta, 5, RandomStream(0, 0))
